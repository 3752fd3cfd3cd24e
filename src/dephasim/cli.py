"""Command-line front end: run, verify, paper-tables and sweep subcommands.

All outputs are deterministic byte-for-byte for a given config (and seed):
no timestamps, shortest round-trip float formatting, fixed column orders.
Each command computes all of its files before writing any; each file goes
to a unique temporary name and is renamed into place, and if one write fails
the files already written are removed, so a failed command leaves none.

Exit codes: 0 success, 1 check failed, 2 config parse error, 3 validation
error, 4 I/O error, 5 stochastic-oracle equivalence not established.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import (
    ConfigParseError,
    ConfigValidationError,
    format_from,
    load_config,
    mc_from,
    grid_from,
    run_options_from,
    scenario_from,
    state_from,
    sweep_from,
)
from .channels import NoiseScenario, evolve
from .entanglement import concurrence_curve, entanglement_of_formation
from .errors import EquivalenceNotEstablishedError
from .linalg import UPPER
from .montecarlo import ALPHA, ChannelComparison, compare_to_channel
from .presets import (
    PAPER_MATRIX,
    PaperTau,
    draw_state,
    measure_paper_taus,
    named_scenario,
    paper_tau_table,
)
from .states import (
    STATE_TYPES,
    StateSpec,
    analytic_factors,
    check_density,
    pure_matrices,
    reduced_stacks,
)
from .svgplot import line_chart
from .timescales import (
    ZERO_FLOOR,
    TimeGrid,
    TimescaleReport,
    audit_inequality,
    build_report,
    sample_evolution,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_EQUIVALENCE = 5

ORACLE_TOL = 1e-12


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a uniquely named temp file beside `path`, then rename it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep a plain write's mode
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file of a command, then print the paths; a failed write removes those written."""
    written: list[Path] = []
    try:
        for name, text in files.items():
            _write_atomic(out_dir / name, text)
            written.append(out_dir / name)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    for path in written:
        print(path)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)  # the text of its CSV cell
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _is_float_array(values) -> bool:
    return isinstance(values, np.ndarray) and values.dtype.kind == "f"


def _cells(values: Sequence) -> list[str]:
    """One column's CSV cells as `_cell` writes them; a float array in one pass.

    A bitwise-constant float column (0.0 and -0.0 differ, NaN matches NaN) is formatted once.
    """
    if not _is_float_array(values):
        return [_cell(value) for value in values]
    bits = values.view(f"i{values.itemsize}")
    if values.size and (bits == bits[0]).all():
        return [repr(float(values[0]))] * values.size
    return list(map(repr, values.tolist()))


def _columns(header: Sequence[str], rows: Sequence[dict]) -> dict[str, list]:
    """Dict rows as columns in `header` order; a missing key is an empty cell."""
    return {key: [row.get(key) for row in rows] for key in header}


def _table(fmt: str, columns: dict[str, Sequence], payload) -> str:
    """`columns` as CSV, one column per key in order, or `payload` as JSON.

    Each distinct float array is formatted once: a column bitwise equal to an
    earlier one shares its cells.  Float-array rows are joined directly: a
    float repr needs no quoting.
    """
    if fmt == "json":
        return _dump_json(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    formatted: dict[tuple, list[str]] = {}

    def cells(values) -> list[str]:
        if not _is_float_array(values):
            return _cells(values)
        key = (values.dtype.str, values.tobytes())
        if key not in formatted:
            formatted[key] = _cells(values)
        return formatted[key]

    rows = zip(*map(cells, columns.values()))
    if not all(map(_is_float_array, columns.values())):
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join([buf.getvalue().removesuffix("\n"), *map(",".join, rows), ""])


def _magnitudes(prefix: str, stack: np.ndarray) -> dict[str, np.ndarray]:
    """|rho_ij| over time of every upper off-diagonal element of a (T, d, d) stack."""
    rows, cols, keys = UPPER[stack.shape[-1]]
    return {prefix + key: np.abs(stack[:, i, j]) for i, j, key in zip(rows, cols, keys)}


def _trajectory_columns(
    spec: StateSpec, scenario: NoiseScenario, grid: TimeGrid, outputs: tuple[str, ...]
) -> dict[str, np.ndarray]:
    stack = sample_evolution(spec, scenario, grid)
    columns: dict[str, np.ndarray] = {"t": grid.times}
    if "elements" in outputs:
        columns.update(_magnitudes("abs_", stack))
    if not {"concurrence", "eof", "reduced"}.intersection(outputs):
        return columns
    register = spec.register
    reduced = reduced_stacks(stack, register)
    pairwise = "concurrence" in outputs or "eof" in outputs
    curves = {
        pair: concurrence_curve(red) for pair, red in reduced.items() if pairwise and len(pair) == 2
    }
    if "concurrence" in outputs:
        # squared concurrence is the pairwise quantity at three qubits
        for label, c in curves.items():
            if len(register) == 2:
                columns[f"C_{label}"] = c
            columns[f"C2_{label}"] = c * c
    if "eof" in outputs:
        for label, c in curves.items():
            columns[f"Ef_{label}"] = entanglement_of_formation(c)
    if "reduced" in outputs:
        for label, red in reduced.items():
            if len(label) < len(register):
                columns.update(_magnitudes(f"abs_{label}_", red))
    return columns


_TIMESCALE_HEADER = [
    "kind",
    "key",
    "tau",
    "amplitude",
    "limit",
    "printed_tau",
    "convention",
    "implied",
]
_AUDIT_HEADER = ["pair", "verdict", "tau_dis", "tau_bound", "margin"]


def _timescale_rows(
    report: TimescaleReport, convention: str, paper: Sequence[PaperTau]
) -> list[dict]:
    # the full register's rows are "element" rows named "rho_12", a reduced
    # matrix's are "reduced" rows named "A:rho_12"
    full = "".join(report.register)
    groups = [
        ("element", "", taus) if label == full else ("reduced", f"{label}:", taus)
        for label, taus in report.coherence_taus.items()
    ]
    if convention in ("c", "both"):
        groups.append(("concurrence", "", report.concurrence_taus))
    if convention in ("c2", "both"):
        groups.append(("concurrence_sq", "", report.concurrence_sq_taus))
    blank = dict.fromkeys(_TIMESCALE_HEADER)  # JSON rows carry every column, in header order
    rows = [
        {**blank, "kind": kind, "key": prefix + key, **asdict(row)}
        for kind, prefix, taus in groups
        for key, row in taus.items()
    ]
    measured = measure_paper_taus(report, paper)
    return rows + [
        {
            **blank,
            "kind": "paper",
            "key": entry.label,
            "tau": measured.get(entry.label),
            "printed_tau": entry.printed,
            "convention": entry.convention,
            "implied": entry.implied,
        }
        for entry in paper
    ]


def _plots(columns: dict[str, np.ndarray], log_y: bool) -> dict[str, str]:
    times = columns["t"]
    element_series = [
        (name.removeprefix("abs_"), times, vals)
        for name, vals in columns.items()
        if name.startswith("abs_rho_") and np.max(vals) > ZERO_FLOOR
    ]
    ent_series = [
        (name, times, vals)
        for name, vals in columns.items()
        if name.startswith(("C_", "C2_", "Ef_"))
    ]
    return {
        "elements.svg": line_chart(
            element_series, "Coherence magnitudes", "t", "|rho_ij|", log_y=log_y
        ),
        "entanglement.svg": line_chart(
            ent_series, "Pairwise entanglement", "t", "C / Ef", log_y=log_y
        ),
    }


def _state_and_scenario(raw: dict[str, str]) -> tuple[StateSpec, NoiseScenario]:
    """The config's state and noise scenario, checked to be on the same register size."""
    spec = state_from(raw)
    scenario = scenario_from(raw)
    if len(spec.register) != scenario.register_size:
        raise ConfigValidationError(
            "scenario.register",
            f"state class {spec.name!r} needs a {len(spec.register)}-qubit register",
        )
    return spec, scenario


def cmd_run(args, raw, out_dir: Path) -> int:
    opts = run_options_from(raw)
    spec, scenario = _state_and_scenario(raw)
    grid = grid_from(raw, scenario)
    fmt = opts.fmt

    columns = _trajectory_columns(spec, scenario, grid, opts.outputs)
    files: dict[str, str] = {}
    overall = None
    if "timescales" in opts.outputs or "audit" in opts.outputs:
        report = build_report(spec, scenario)
        if "timescales" in opts.outputs:
            rows = _timescale_rows(report, opts.convention, paper_tau_table(spec.name, scenario))
            payload = {"scenario": report.scenario_label, "fits": rows}
            files[f"timescales.{fmt}"] = _table(fmt, _columns(_TIMESCALE_HEADER, rows), payload)
        if "audit" in opts.outputs:
            audit = audit_inequality(report)
            overall = audit.overall
            pairs = [asdict(p) for p in audit.pairs]
            payload = {"scenario": report.scenario_label, "pairs": pairs, "overall": overall}
            rows = pairs + [{"pair": "overall", "verdict": overall}]
            files[f"audit.{fmt}"] = _table(fmt, _columns(_AUDIT_HEADER, rows), payload)
    if opts.plots:
        files.update(_plots(columns, opts.log_y))
    # the trajectory is by far the largest text: built last, written first
    files = {f"trajectory.{fmt}": _table(fmt, columns, columns), **files}
    _emit(out_dir, files)
    if overall is not None:
        print(f"audit: {overall}")
    return EXIT_OK


def _comparison_payload(cmp_: ChannelComparison) -> dict:
    rows, cols, keys = UPPER[cmp_.mc_mean.shape[0]]
    elements = [
        {
            "element": key,
            "mc_re": cmp_.mc_mean[i, j].real,
            "mc_im": cmp_.mc_mean[i, j].imag,
            "channel_re": cmp_.channel_matrix[i, j].real,
            "channel_im": cmp_.channel_matrix[i, j].imag,
            "z": cmp_.z_scores[i, j],
        }
        for i, j, key in zip(rows, cols, keys)
    ]
    return {
        "state_class": cmp_.state_class,
        "scenario": cmp_.scenario_label,
        "n_trajectories": cmp_.n_trajectories,
        "seed": cmp_.seed,
        "t_final": cmp_.t_final,
        "distance": cmp_.distance,
        "expected_distance": cmp_.expected_distance,
        "max_z": cmp_.max_z,
        "z_limit": cmp_.z_limit,
        "alpha": ALPHA,
        "informational": cmp_.informational,
        "passed": cmp_.passed,
        "elements": elements,
        "divergence": list(cmp_.divergence),
    }


def cmd_verify(args, raw, out_dir: Path) -> int:
    spec, scenario = _state_and_scenario(raw)
    cfg = mc_from(raw)
    if cfg is None:
        raise ConfigValidationError("mc.seed", "verify needs an mc.* section")
    cmp_ = compare_to_channel(spec, scenario, cfg, force_informational=args.force_informational)
    _emit(out_dir, {"verify.json": _dump_json(_comparison_payload(cmp_))})
    status = "INFORMATIONAL" if cmp_.informational else ("PASS" if cmp_.passed else "FAIL")
    print(
        f"verify: {status} distance={cmp_.distance:.6g} "
        f"expected={cmp_.expected_distance:.6g} max_z={cmp_.max_z:.3g} z_limit={cmp_.z_limit:.3g}"
    )
    if cmp_.informational:
        for entry in cmp_.divergence:
            print(
                f"  divergence {entry['element']}: stochastic {entry['stochastic_factor']:.6g} "
                f"vs channel {entry['channel_factor']:.6g}"
            )
        return EXIT_OK
    return EXIT_OK if cmp_.passed else EXIT_CHECK_FAILED


def _oracle_check(cls: str, scenario: NoiseScenario, seed: int) -> float:
    """Largest distance of `evolve` from the checked closed form over 10 draws x 5 times.

    The projectors are checked once, as the closed form's t = 0 slices; a NaN distance fails.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 2.0, 5)
    rho0 = pure_matrices(np.stack([draw_state(cls, rng).amplitudes() for _ in range(10)]))[:, None]
    expected = rho0 * analytic_factors(scenario, STATE_TYPES[cls].register, times)
    check_density(expected)
    got = evolve(rho0, scenario, times[:, None, None])
    return float(np.linalg.norm(expected - got, axis=(-2, -1)).max())


_PAPER_HEADER = [
    "class", "scenario", "label", "printed_tau", "convention", "implied", "measured", "ok"
]


def cmd_paper_tables(args, raw, out_dir: Path) -> int:
    fmt = format_from(raw)
    rate = 1.0
    entries = []
    oracle_rows = []
    audit_rows = []
    failures: list[str] = []
    for idx, (cls, scen_name) in enumerate(PAPER_MATRIX):
        scenario = named_scenario(scen_name, rate)
        worst = _oracle_check(cls, scenario, seed=1000 + idx)
        oracle_ok = worst <= ORACLE_TOL
        oracle_rows.append(
            {"class": cls, "scenario": scen_name, "max_distance": worst, "ok": oracle_ok}
        )
        if not oracle_ok:
            failures.append(f"oracle mismatch: ({cls}, {scen_name}, distance={worst:.3e})")

        spec = draw_state(cls, np.random.default_rng(2000 + idx))
        report = build_report(spec, scenario)
        paper = paper_tau_table(cls, scenario)
        measured = measure_paper_taus(report, paper)
        for entry in paper:
            got = measured.get(entry.label)
            want = entry.implied
            ok = got is not None and abs(got - want) <= ORACLE_TOL * want
            entries.append(
                {
                    "class": cls,
                    "scenario": scen_name,
                    "label": entry.label,
                    "printed_tau": entry.printed,
                    "convention": entry.convention,
                    "implied": entry.implied,
                    "measured": got,
                    "ok": ok,
                }
            )
            if not ok:
                failures.append(f"tau mismatch: ({cls}, {scen_name}, {entry.label})")
        audit = audit_inequality(report)
        for pair in audit.pairs:
            audit_rows.append(
                {
                    "class": cls,
                    "scenario": scen_name,
                    "pair": pair.pair,
                    "verdict": pair.verdict,
                    "margin": pair.margin,
                }
            )
            if pair.verdict == "FAIL":
                failures.append(f"audit FAIL: ({cls}, {scen_name}, pair {pair.pair})")

    payload = {
        "rate": rate,
        "timescales": entries,
        "oracle_checks": oracle_rows,
        "audit": audit_rows,
        "failures": failures,
    }
    files = {"paper_tables.json": _dump_json(payload)}
    if fmt == "csv":
        files["paper_tables.csv"] = _table("csv", _columns(_PAPER_HEADER, entries), entries)

    for e in entries:
        shown = "n/a" if e["measured"] is None else f"{e['measured']:.6g}"
        mark = "ok" if e["ok"] else "MISMATCH"
        print(
            f"{e['class']:8s} {e['scenario']:20s} {e['label']:10s} "
            f"printed={e['printed_tau']:.6g} ({e['convention']}) "
            f"implied={e['implied']:.6g} measured={shown} [{mark}]"
        )
    verdicts = [row["verdict"] for row in audit_rows]
    print(
        f"oracle checks: {sum(r['ok'] for r in oracle_rows)}/{len(oracle_rows)} ok; "
        f"audit: {verdicts.count('PASS')} PASS, {verdicts.count('VACUOUS')} VACUOUS, "
        f"{verdicts.count('FAIL')} FAIL"
    )
    _emit(out_dir, files)
    if failures:
        for failure in failures:
            print(f"FAILURE {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_SWEEP_HEADER = ["class", "scenario", "draw", *_AUDIT_HEADER]


def cmd_sweep(args, raw, out_dir: Path) -> int:
    fmt = format_from(raw)
    sweep = sweep_from(raw)
    rng = np.random.default_rng(sweep.seed)
    rows = []
    for cls in sweep.classes:
        for scen_name in sweep.scenarios:
            scenario = named_scenario(scen_name, sweep.rate)
            if scenario.register_size != len(STATE_TYPES[cls].register):
                continue
            for draw in range(sweep.draws):
                audit = audit_inequality(build_report(draw_state(cls, rng), scenario))
                rows += [
                    {"class": cls, "scenario": scen_name, "draw": draw, **asdict(pair)}
                    for pair in audit.pairs
                ]
    table = _table(fmt, _columns(_SWEEP_HEADER, rows), rows)
    _emit(out_dir, {f"sweep.{fmt}": table})
    verdicts = [row["verdict"] for row in rows]
    fails = verdicts.count("FAIL")
    print(
        f"sweep: {len(rows)} pair verdicts; {verdicts.count('PASS')} PASS, "
        f"{verdicts.count('VACUOUS')} VACUOUS, {fails} FAIL"
    )
    return EXIT_CHECK_FAILED if fails else EXIT_OK


#: keyword arguments of the flags that only some commands read
_FLAGS = {
    "format": {"choices": ("csv", "json"), "help": "table format"},
    "plots": {"action": "store_true", "help": "write SVG line charts"},
    "seed": {"type": int, "help": "override mc.seed / sweep.seed"},
    "force-informational": {
        "action": "store_true",
        "help": "compare scenarios outside the proven-equivalent channel set",
    },
    "convention": {"choices": ("c", "c2", "both"), "help": "concurrence convention"},
}

#: name: (handler, help, the flags it reads besides --config and --out)
_COMMANDS = {
    "run": (cmd_run, "evolve a state and emit trajectories and reports", "format plots convention"),
    "verify": (cmd_verify, "Monte Carlo cross-check of the evolution", "seed force-informational"),
    "paper-tables": (cmd_paper_tables, "reproduce every published timescale and audit", "format"),
    "sweep": (cmd_sweep, "audit random coefficient draws across scenarios", "format seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephasim",
        description="Dephasing-channel evolution, entanglement decay and timescale audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=name != "paper-tables", help="path to the config file")
        sp.add_argument("--out", help="output directory (default: 'out' or config key)")
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config) if args.config is not None else {}
        # a flag given on the command line replaces the config key it names
        flags = {
            "format": getattr(args, "format", None),
            "plots": "true" if getattr(args, "plots", False) else None,
            "convention": getattr(args, "convention", None),
            ("mc.seed" if args.command == "verify" else "sweep.seed"): getattr(args, "seed", None),
        }
        raw.update((key, str(value)) for key, value in flags.items() if value is not None)
        return args.handler(args, raw, Path(args.out or raw.get("out", "out")))
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EquivalenceNotEstablishedError as exc:
        print(f"equivalence not established: {exc}", file=sys.stderr)
        return EXIT_EQUIVALENCE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
