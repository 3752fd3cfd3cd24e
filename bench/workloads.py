"""The benchmark workloads: inputs made from a seed, one iteration, output checks.

Each workload is a closed loop with one caller: an iteration starts when the
previous one has returned.  Iteration ``i`` of a seed always gets the same
inputs, so an untraced and a traced iteration can be compared byte for byte.
The program is reached only through its public functions and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from dephasim import cli, presets, states, timescales

RATE = 1.0
ORACLE_TOL = 1e-12

#: the audit sweep: every published (class, scenario) combination, plus the
#: generic class under collective noise, where the audit's known defects show.
SWEEP_COMBOS = presets.PAPER_MATRIX + (("generic", "2q-collective"),)

#: the scenario w_config writes out for the CLI workloads: the costliest
#: proven-equivalent Monte Carlo case, two fields on dimension 8.
W_SCENARIO = "3q-local-A-pair-BC"
EXPORT_SAMPLES = 2000
EXPORT_OUTPUTS = ("elements", "concurrence", "eof", "reduced", "timescales", "audit")
EXPORT_FILES = ("trajectory.csv", "timescales.csv", "audit.csv", "elements.svg", "entanglement.svg")
EXPORT_ROWS_CHECKED = 16
MC_TRAJECTORIES = 10_000


@dataclass
class Op:
    """One timed operation and how its output check came out."""

    seconds: float
    #: what was run, e.g. "generic/2q-collective" or "verify".
    label: str
    failure: Optional[str] = None
    #: an outcome documented as a defect of the audit (the generic class's
    #: plateau and zero-floor fits); counted apart from failures, per label.
    known_defect: Optional[str] = None


@dataclass
class Iteration:
    ops: list[Op]
    #: sha256 of everything the iteration produced.
    digest: str
    #: bytes of each file the iteration wrote.
    files: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def w_config(seed: int, extra: str = "") -> tuple[str, states.WState]:
    """Config text of a seeded W state under local(A) + pair(BC) noise, and its spec."""
    a1, a2, a4 = unit_vector(np.random.default_rng(seed), 3)
    lines = [
        "state.class = w",
        *(f"state.{k} = {float(c.real)!r}, {float(c.imag)!r}" for k, c in (("a1", a1), ("a2", a2), ("a4", a4))),
        "scenario.register = 3",
        "scenario.channels[0].kind = local",
        "scenario.channels[0].qubits = A",
        f"scenario.channels[0].rate = {RATE!r}",
        "scenario.channels[1].kind = pair_collective",
        "scenario.channels[1].qubits = B, C",
        f"scenario.channels[1].rate = {RATE!r}",
    ]
    text = "\n".join(lines) + "\n" + extra
    return text, states.WState(complex(a1), complex(a2), complex(a4))


def oracle_distance(spec, scenario, stack: Optional[np.ndarray] = None) -> float:
    """Largest Frobenius distance between an evolution stack and the closed form.

    The stack defaults to the operator-sum evolution on the default grid,
    the one ``build_report`` fits.
    """
    grid = timescales.default_grid(scenario)
    if stack is None:
        stack = timescales.sample_evolution(spec, scenario, grid)
    return max(
        float(np.linalg.norm(stack[k] - states.analytic_evolved(spec, scenario, t).matrix))
        for k, t in enumerate(grid.times)
    )


def run_cli(argv: list[str]) -> tuple[int, str, float, Optional[str]]:
    """Exit code, stdout, seconds and raised exception (if any) of one command."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one raising command must not abort the workload
            code, raised = -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue() + err.getvalue(), seconds, raised


def _dir_digest(path: Path) -> tuple[str, dict[str, int]]:
    digest = hashlib.sha256()
    sizes = {}
    for item in sorted(path.iterdir()):
        data = item.read_bytes()
        digest.update(item.name.encode() + b"\0" + data + b"\0")
        sizes[item.name] = len(data)
    return digest.hexdigest(), sizes


class Workload:
    name: str
    #: what one unit of work is, and how many one iteration does.
    unit: str
    units_per_iteration: int
    #: iterations of a traced run; fixed, so every count repeats exactly.
    traced_iterations: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        #: context in which output checks run; the runner pauses tracing there.
        self.unrecorded = contextlib.nullcontext

    def iteration(self, i: int) -> Iteration:
        raise NotImplementedError


class AuditSweep(Workload):
    """The per-draw loop of ``dephasim sweep``: draw_state, build_report, audit_inequality."""

    name = "audit-sweep"
    unit = "reports"
    units_per_iteration = len(SWEEP_COMBOS)
    traced_iterations = 20

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.scenarios = [presets.named_scenario(scen, RATE) for _, scen in SWEEP_COMBOS]

    def iteration(self, i: int) -> Iteration:
        rng = np.random.default_rng([self.seed, i])
        checked = i % len(SWEEP_COMBOS)  # one stack per iteration goes to the oracle
        digest = hashlib.sha256()
        ops = []
        for k, ((cls, scen), scenario) in enumerate(zip(SWEEP_COMBOS, self.scenarios)):
            label = f"{cls}/{scen}"
            start = time.perf_counter()
            try:
                spec = presets.draw_state(cls, rng)
                audit = timescales.audit_inequality(timescales.build_report(spec, scenario))
            except Exception as exc:  # one raising report must not abort the sweep
                op = Op(time.perf_counter() - start, label)
                message = f"{type(exc).__name__}: {exc}"
                digest.update(f"{cls} {scen} raised {message}".encode())
                if cls == "generic" and isinstance(exc, ValueError) and "too few usable" in message:
                    op.known_defect = "raised"
                else:
                    op.failure = f"{cls} under {scen} raised {message}"
                ops.append(op)
                continue
            op = Op(time.perf_counter() - start, label)
            digest.update(repr(audit).encode())
            if audit.overall == "FAIL":
                if cls == "generic":
                    op.known_defect = "FAIL verdict"
                else:
                    op.failure = f"{cls} under {scen}: audit FAIL"
            if k == checked:
                with self.unrecorded():
                    distance = oracle_distance(spec, scenario)
                if not distance <= ORACLE_TOL:
                    op.failure = f"{cls} under {scen}: stack is {distance:.3e} from the closed form"
            ops.append(op)
        return Iteration(ops, digest.hexdigest())


class CliWorkload(Workload):
    """One CLI command per iteration, writing into a fresh output directory."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "out"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, code: int, stdout: str) -> Optional[str]:
        """Failure message for the outputs in self.out, or None."""
        raise NotImplementedError

    def iteration(self, i: int) -> Iteration:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        code, stdout, seconds, raised = run_cli(self.argv())
        with self.unrecorded():
            failure = raised or self.check(code, stdout)
        digest, files = _dir_digest(self.out)
        return Iteration([Op(seconds, self.argv()[0], failure)], digest, files)


class McVerify(CliWorkload):
    """``dephasim verify`` on a seeded W state under local(A) + pair(BC)."""

    name = "mc-verify"
    unit = "trajectories"
    units_per_iteration = MC_TRAJECTORIES
    traced_iterations = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        mc_seed = int(np.random.default_rng([seed, 1]).integers(1, 2**31))
        text, _ = w_config(seed, f"mc.trajectories = {MC_TRAJECTORIES}\nmc.seed = {mc_seed}\n")
        self.config = workdir / "verify.conf"
        self.config.write_text(text)

    def argv(self) -> list[str]:
        return ["verify", "--config", str(self.config), "--out", str(self.out)]

    def check(self, code: int, stdout: str) -> Optional[str]:
        return check_verify(self.out, code)


def check_verify(out: Path, code: int) -> Optional[str]:
    if code != 0:
        return f"verify exited {code}"
    try:
        payload = json.loads((out / "verify.json").read_text())
    except (OSError, ValueError) as exc:
        return f"verify.json unreadable: {exc}"
    if payload.get("passed") is not True or payload.get("informational") is not False:
        return "verify.json does not report a passed, non-informational comparison"
    return None


class RunExport(CliWorkload):
    """``dephasim run --plots`` with every output group on a long grid."""

    name = "run-export"
    unit = "samples"
    units_per_iteration = EXPORT_SAMPLES
    traced_iterations = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        text, self.spec = w_config(
            seed, f"grid.samples = {EXPORT_SAMPLES}\noutputs = {', '.join(EXPORT_OUTPUTS)}\n"
        )
        self.scenario = presets.named_scenario(W_SCENARIO, RATE)
        self.config = workdir / "run.conf"
        self.config.write_text(text)
        picks = np.random.default_rng([seed, 2]).choice(EXPORT_SAMPLES, EXPORT_ROWS_CHECKED, False)
        self.rows_checked = sorted({0, EXPORT_SAMPLES - 1, *map(int, picks)})

    def argv(self) -> list[str]:
        return ["run", "--config", str(self.config), "--out", str(self.out), "--plots"]

    def check(self, code: int, stdout: str) -> Optional[str]:
        return check_export(self.out, code, stdout, self.spec, self.scenario, self.rows_checked)


def check_export(out: Path, code: int, stdout: str, spec, scenario, rows_checked) -> Optional[str]:
    """Exit 0, audit PASS, every file present, one row per sample, rows match the closed form."""
    if code != 0:
        return f"run exited {code}"
    missing = [name for name in EXPORT_FILES if not (out / name).is_file()]
    if missing:
        return f"missing outputs: {', '.join(missing)}"
    if "audit: PASS" not in stdout.splitlines():
        return "run did not report audit: PASS"
    with (out / "audit.csv").open(newline="") as fh:
        if ["overall", "PASS", "", "", ""] not in list(csv.reader(fh)):
            return "audit.csv has no overall PASS row"
    with (out / "trajectory.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if len(rows) != EXPORT_SAMPLES:
        return f"trajectory.csv has {len(rows)} rows, expected {EXPORT_SAMPLES}"
    columns = [
        (col, int(name[8]) - 1, int(name[9]) - 1)
        for col, name in enumerate(header)
        if name.startswith("abs_rho_")
    ]
    if len(columns) != 28:
        return f"trajectory.csv has {len(columns)} coherence columns, expected 28"
    for r in rows_checked:
        row = rows[r]
        expected = np.abs(states.analytic_evolved(spec, scenario, float(row[0])).matrix)
        worst = max(abs(float(row[col]) - expected[i, j]) for col, i, j in columns)
        if not worst <= ORACLE_TOL:
            return f"trajectory.csv row {r} is {worst:.3e} from the closed form"
    return None


class PaperTables(CliWorkload):
    """``dephasim paper-tables``; its draws are seeded inside the command."""

    name = "paper-tables"
    unit = "combinations"
    units_per_iteration = len(presets.PAPER_MATRIX)
    traced_iterations = 3

    def argv(self) -> list[str]:
        return ["paper-tables", "--out", str(self.out)]

    def check(self, code: int, stdout: str) -> Optional[str]:
        return check_tables(self.out, code)


def check_tables(out: Path, code: int) -> Optional[str]:
    if code != 0:
        return f"paper-tables exited {code}"
    try:
        payload = json.loads((out / "paper_tables.json").read_text())
    except (OSError, ValueError) as exc:
        return f"paper_tables.json unreadable: {exc}"
    if payload.get("failures") != []:
        return f"paper-tables reports failures: {payload.get('failures')}"
    if not (out / "paper_tables.csv").is_file():
        return "paper_tables.csv missing"
    return None


WORKLOADS = {w.name: w for w in (AuditSweep, McVerify, RunExport, PaperTables)}
