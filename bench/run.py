"""Benchmark of dephasim: one workload per process, measured untraced or traced.

Run from the repository root, with nothing installed:

    python3 bench/run.py --workload audit-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, iteration time,
peak memory) and prints throughput, latency quantiles and raw times beside them.  ``--trace 1`` measures the same loop untraced,
then a fixed number of traced iterations, and reports the per-layer metrics.
Both print a readable report and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The program is loaded
from ``src/`` of the checkout; without it the benchmark exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracing import TRACED, Tracer

# One caller, one thread: BLAS gains nothing on matrices of dimension <= 8,
# and extra threads only add noise.  Set before numpy is imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

#: seconds one calibration block takes at the reference speed (see Speed).
CAL_REF_S = 0.01
SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import dephasim.cli\n"
    "dephasim.cli.load_config(sys.argv[2])\n"
    "print(time.perf_counter() - start)\n"
)
#: the fewest timed iterations of a run, however long they take.
MIN_ITERATIONS = 5

#: (name, unit, better) of the metrics a --trace 0 run prints; bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: traced functions reported with calls, self time and errors.
_LAYER_FUNCTIONS = tuple(fn for fn in TRACED if fn not in ("presets.draw_state", "cli.main"))
OUTPUT_FILES = (
    "trajectory.csv",
    "timescales.csv",
    "audit.csv",
    "elements.svg",
    "entanglement.svg",
    "verify.json",
    "paper_tables.json",
    "paper_tables.csv",
)

#: (name, unit, better) of the metrics a --trace 1 run prints.
PER_LAYER = (
    *(
        metric
        for fn in _LAYER_FUNCTIONS
        for metric in (
            (f"{fn}.calls", "count", "lower"),
            (f"{fn}.self_s", "s", "lower"),
            (f"{fn}.errors", "count", "lower"),
        )
    ),
    ("presets.draw_state.calls", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.errors", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("channels.kraus_reuse", "ratio", "higher"),
    ("channels.apply_kraus.flops_computed", "flop", "lower"),
    ("timescales.sample_evolution.distinct_frac", "ratio", "higher"),
    ("timescales.audit_inequality.fail_verdicts", "count", "lower"),
    ("entanglement.concurrence_curve.matrices", "count", "lower"),
    ("linalg.partial_trace.matrices", "count", "lower"),
    ("montecarlo.trajectories", "count", "lower"),
    ("montecarlo.us_per_traj", "us", "lower"),
    *((f"cli.bytes.{name}", "B", "lower") for name in OUTPUT_FILES),
    ("trace.iterations", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import dephasim from src/ of this checkout, and from nowhere else."""
    if not (SRC / "dephasim" / "__init__.py").is_file():
        raise ProgramMissing(f"no dephasim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dephasim

    if Path(dephasim.__file__).resolve().parent != SRC / "dephasim":
        raise ProgramMissing(f"dephasim was imported from {dephasim.__file__}, not {SRC}")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dephasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout if it is itself a git work tree, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def calibration_block() -> float:
    """Seconds of a fixed piece of work shaped like the program's, without using it.

    Small complex products, 4x4 eigensolves, generator creation and Python
    arithmetic: the mix whose speed the host's load changes.
    """
    import numpy as np

    start = time.perf_counter()
    a = (np.arange(64.0).reshape(8, 8) + 1j) / 64
    acc = np.zeros((8, 8), dtype=complex)
    total = 0.0
    for _ in range(300):
        acc += a @ a.conj().T
        total += float(np.linalg.eigvalsh(acc[:4, :4] + np.eye(4))[0]) + sum(i * 0.5 for i in range(20))
    for child in np.random.SeedSequence(2).spawn(200):
        np.random.default_rng(child).standard_normal(50)
    return time.perf_counter() - start


class Speed:
    """Calibration blocks between measurements, to read them at the reference speed.

    The host's speed drifts by tens of percent over seconds, and a single
    short block is often hit by a transient stall.  A measurement is
    therefore multiplied by CAL_REF_S over the median of the three blocks
    before it and the three after it, which reads it as seconds on a
    machine where one block takes CAL_REF_S.
    """

    def __init__(self):
        calibration_block()  # warm-up
        self.blocks = [calibration_block()]

    def mark(self) -> None:
        """Close a measurement with a calibration block."""
        self.blocks.append(calibration_block())

    def scale(self, raw: list[float]) -> list[float]:
        """raw[j], measured between blocks[j] and blocks[j + 1], at the reference speed."""
        return [
            t * CAL_REF_S / statistics.median(self.blocks[max(0, j - 2) : j + 4])
            for j, t in enumerate(raw)
        ]


def measure_setup(config: Path) -> tuple[list[float], list[float]]:
    """Seconds to import dephasim.cli and load a config, each in a fresh process.

    Returns the raw times and the same times at the reference speed.
    """
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    raw = []
    speed = None
    for k in range(SETUP_RUNS + 1):  # the first run compiles bytecode and is not counted
        proc = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CODE, str(SRC), str(config)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        if speed is None:
            speed = Speed()
            continue
        raw.append(float(proc.stdout.strip()))
        speed.mark()
    return raw, speed.scale(raw)


class Tally:
    """Operations attempted, failed and known defects over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.by_label: Counter = Counter()
        self.defects: dict[str, Counter] = defaultdict(Counter)

    def add(self, it) -> None:
        for op in it.ops:
            self.attempted += 1
            self.by_label[op.label] += 1
            if op.failure:
                self.failures.append(op.failure)
            if op.known_defect:
                self.defects[op.label][op.known_defect] += 1


def timed_loop(wl, seconds: float, tally: Tally, min_iterations: int):
    """Warm-up iteration 0, then iterations 1, 2, ... until `seconds` of work are done.

    Returns the iterations, their times at the reference speed, and the Speed.
    """
    tally.add(wl.iteration(0))
    speed = Speed()
    iterations = []
    while sum(it.seconds for it in iterations) < seconds or len(iterations) < min_iterations:
        it = wl.iteration(len(iterations) + 1)
        speed.mark()
        tally.add(it)
        iterations.append(it)
    return iterations, speed.scale([it.seconds for it in iterations]), speed


def traced_loop(wl, tally: Tally):
    """The first traced_iterations iterations with every layer traced."""
    tracer = Tracer()
    tracer.install()
    wl.unrecorded = tracer.paused
    speed = Speed()
    iterations = []
    try:
        for i in range(1, wl.traced_iterations + 1):
            with tracer.recording():
                it = wl.iteration(i)
            speed.mark()
            tracer.end_iteration()
            tally.add(it)
            iterations.append(it)
    finally:
        tracer.uninstall()
        wl.unrecorded = contextlib.nullcontext
    return tracer, iterations, speed.scale([it.seconds for it in iterations])


def end_to_end(wl, setup: tuple[list, list], loop: tuple[list, list, Speed], tally: Tally):
    """The BENCHMARK.json metrics, and further figures for the readable report.

    Times are at the reference speed unless their name starts with raw_.
    """
    setup_raw, setup_scaled = setup
    iterations, scaled, speed = loop
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s", len(setup_scaled)),
        "wall_s": (statistics.median(scaled), "s", len(scaled)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    units = wl.units_per_iteration * len(iterations)
    more = {f"{wl.unit}_per_s": (units / sum(scaled), "1/s", units)}
    if wl.name == "audit-sweep":
        ops = [op.seconds * s / it.seconds for it, s in zip(iterations, scaled) for op in it.ops]
        more["report_ms_p50"] = (1e3 * statistics.median(ops), "ms", len(ops))
        # the highest percentile with at least ten samples beyond it
        if len(ops) >= 1000:
            more["report_ms_p99"] = (1e3 * quantile(ops, 0.99), "ms", len(ops))
    if iterations[-1].files:
        more["bytes_written"] = (sum(iterations[-1].files.values()), "B", 1)
    more["failed_frac"] = (len(tally.failures) / tally.attempted, "ratio", tally.attempted)
    more["calibration_ms"] = (1e3 * statistics.median(speed.blocks), "ms", len(speed.blocks))
    more["raw_setup_s"] = (statistics.median(setup_raw), "s", len(setup_raw))
    more["raw_wall_s"] = (statistics.median(it.seconds for it in iterations), "s", len(iterations))
    return metrics, more


def per_layer(tracer, traced: list, traced_scaled: list, untraced_scaled: list):
    """Per-layer metrics of the traced iterations, and the bases of the ratios."""
    self_s = tracer.self_times()
    metrics = {}
    for fn in _LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = tracer.calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        metrics[f"{fn}.errors"] = tracer.errors.get(fn, 0)
    counts = tracer.counts
    builds = tracer.calls.get("channels.kraus_for", 0)
    evolutions = tracer.calls.get("timescales.sample_evolution", 0)
    trajectories = counts.get("montecarlo.trajectories", 0)
    files = traced[-1].files
    metrics.update(
        {
            "presets.draw_state.calls": tracer.calls.get("presets.draw_state", 0),
            "cli.main.calls": tracer.calls.get("cli.main", 0),
            "cli.main.errors": tracer.errors.get("cli.main", 0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "channels.kraus_reuse": counts["channels.kraus_for.distinct"] / builds if builds else 0.0,
            "channels.apply_kraus.flops_computed": int(counts.get("channels.apply_kraus.flops_computed", 0)),
            "timescales.sample_evolution.distinct_frac": (
                counts["timescales.sample_evolution.distinct"] / evolutions if evolutions else 0.0
            ),
            "timescales.audit_inequality.fail_verdicts": int(
                counts.get("timescales.audit_inequality.fail_verdicts", 0)
            ),
            "entanglement.concurrence_curve.matrices": int(counts.get("entanglement.concurrence_curve.matrices", 0)),
            "linalg.partial_trace.matrices": int(counts.get("linalg.partial_trace.matrices", 0)),
            "montecarlo.trajectories": int(trajectories),
            "montecarlo.us_per_traj": (
                1e6 * self_s.get("montecarlo.simulate_statistics", 0.0) / trajectories if trajectories else 0.0
            ),
            **{f"cli.bytes.{name}": files.get(name, 0) for name in OUTPUT_FILES},
            "trace.iterations": len(traced),
            "trace.spans": len(tracer.names),
            "trace.traced_s": sum(it.seconds for it in traced),
            "trace.self_sum_s": sum(self_s.values()),
            # per iteration, both at the reference speed
            "trace.overhead_s": statistics.median(traced_scaled) - statistics.median(untraced_scaled),
        }
    )
    bases = {
        "channels.kraus_reuse": f"{int(counts['channels.kraus_for.distinct'])} distinct (kind, register, rate, t) per iteration over {builds} builds",
        "timescales.sample_evolution.distinct_frac": f"{int(counts['timescales.sample_evolution.distinct'])} distinct (spec, scenario, grid) per iteration over {evolutions} calls",
        "montecarlo.us_per_traj": f"simulate_statistics self time over {int(trajectories)} trajectories",
        "channels.apply_kraus.flops_computed": "computed from shapes: 16 d^3 + 2 d^2 per operator",
        "timescales.audit_inequality.fail_verdicts": f"over {tracer.calls.get('timescales.audit_inequality', 0)} audits",
    }
    return metrics, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_THREADS)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    prov = provenance(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    tally = Tally()
    if args.trace == 0:
        setup_conf = workdir / "setup.conf"
        setup_conf.write_text(workloads.w_config(args.seed)[0])
        setup = measure_setup(setup_conf)
        untraced = timed_loop(wl, args.seconds, tally, MIN_ITERATIONS)
        metrics, more = end_to_end(wl, setup, untraced, tally)
        for name, (value, unit, n) in {**metrics, **more}.items():
            print(f"  {name:<22} {value:>14.6g} {unit:<6} n={n}")
        values = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
        correct = not tally.failures
    else:
        untraced, untraced_scaled, _ = timed_loop(
            wl, args.seconds, tally, max(MIN_ITERATIONS, wl.traced_iterations)
        )
        tracer, traced, traced_scaled = traced_loop(wl, tally)
        tracer.write_spans(workdir / f"spans-seed{args.seed}.csv")
        metrics, bases = per_layer(tracer, traced, traced_scaled, untraced_scaled)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name in units:
            base = f"  ({bases[name]})" if name in bases else ""
            print(f"  {name:<44} {metrics[name]:>14.6g} {units[name]}{base}")
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        mismatched = [it_t for it_t, it_u in zip(traced, untraced) if it_t.digest != it_u.digest]
        if mismatched:
            tally.failures.append(f"{len(mismatched)} traced iterations differ from the untraced ones")
        if metrics["trace.self_sum_s"] > metrics["trace.traced_s"]:
            tally.failures.append("per-layer self times exceed the traced time")
        correct = not tally.failures

    known = {label: {**kinds, "operations": tally.by_label[label]} for label, kinds in tally.defects.items()}
    for label, kinds in sorted(tally.defects.items()):
        shown = ", ".join(f"{kind} {n}" for kind, n in sorted(kinds.items()))
        print(f"  known defects of {label}: {shown} of {tally.by_label[label]} operations")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": values,
    }
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "known_defects": known, "provenance": prov}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
