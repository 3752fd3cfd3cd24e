"""Command-line front end: run, verify, paper-tables and sweep subcommands.

All outputs are deterministic byte-for-byte for a given config (and seed):
no timestamps, shortest round-trip float formatting, fixed column orders.
Files are written to a unique temporary name and renamed into place on success.

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
    OutputOptions,
    load_config,
    mc_from,
    grid_from,
    output_options_from,
    scenario_from,
    state_from,
    sweep_from,
)
from .channels import NoiseScenario, evolve
from .entanglement import concurrence_curve, entanglement_of_formation
from .errors import EquivalenceNotEstablishedError
from .linalg import frobenius_distance, partial_trace
from .montecarlo import DISTANCE_FACTOR, Z_LIMIT, ChannelComparison, compare_to_channel
from .presets import PAPER_MATRIX, draw_state, named_scenario
from .states import (
    STATE_TYPES,
    StateSpec,
    analytic_evolved,
    projector,
    qubit_pairs,
    reduced_subsets,
)
from .svgplot import line_chart
from .timescales import (
    TimeGrid,
    TimescaleReport,
    audit_inequality,
    build_report,
    measure_paper_taus,
    sample_evolution,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_EQUIVALENCE = 5

ORACLE_TOL = 1e-12
FIT_TOL = 0.01


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
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


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _trajectory_columns(
    spec: StateSpec, scenario: NoiseScenario, grid: TimeGrid, outputs: tuple[str, ...]
) -> dict[str, np.ndarray]:
    times = grid.times
    stack = sample_evolution(spec, scenario, grid)
    register = spec.register
    n = len(register)
    dim = 1 << n

    columns: dict[str, np.ndarray] = {"t": times}
    if "elements" in outputs:
        for i in range(dim):
            for j in range(i + 1, dim):
                columns[f"abs_rho_{i + 1}{j + 1}"] = np.abs(stack[:, i, j])

    pair_curves: dict[str, np.ndarray] = {}
    for pair in qubit_pairs(register):
        label = "".join(pair)
        red = stack if n == 2 else partial_trace(stack, pair, register)
        pair_curves[label] = concurrence_curve(red)
    if "concurrence" in outputs:
        # squared concurrence is the pairwise quantity at three qubits
        for label, c in pair_curves.items():
            if n == 2:
                columns[f"C_{label}"] = c
                columns[f"C2_{label}"] = c * c
            else:
                columns[f"C2_{label}"] = c * c
    if "eof" in outputs:
        for label, c in pair_curves.items():
            columns[f"Ef_{label}"] = np.array([entanglement_of_formation(x) for x in c])
    if "reduced" in outputs:
        for keep in reduced_subsets(register):
            label = "".join(keep)
            red = partial_trace(stack, keep, register)
            d = 1 << len(keep)
            for i in range(d):
                for j in range(i + 1, d):
                    columns[f"abs_{label}_rho_{i + 1}{j + 1}"] = np.abs(red[:, i, j])
    return columns


def _write_trajectory(columns: dict[str, np.ndarray], opts: OutputOptions) -> Path:
    path = opts.out_dir / f"trajectory.{opts.fmt}"
    if opts.fmt == "csv":
        header = list(columns)
        rows = zip(*(columns[name] for name in header))
        _write_atomic(path, _csv_text(header, [list(r) for r in rows]))
    else:
        _write_atomic(path, _dump_json({name: list(vals) for name, vals in columns.items()}))
    return path


def _fit_rows(report: TimescaleReport, convention: str) -> list[list]:
    rows: list[list] = []

    def add(kind: str, fits: dict) -> None:
        for key, fit in fits.items():
            rows.append(
                [
                    kind,
                    key,
                    fit.tau,
                    fit.amplitude,
                    fit.residual,
                    fit.is_constant,
                    fit.non_monotone,
                    None,
                    None,
                    None,
                ]
            )

    add("element", report.element_fits)
    add("reduced", report.reduced_fits)
    if convention in ("c", "both"):
        add("concurrence", report.concurrence_fits)
    if convention in ("c2", "both"):
        add("concurrence_sq", report.concurrence_sq_fits)
    measured = measure_paper_taus(report)
    if report.paper_taus:
        for entry in report.paper_taus:
            rows.append(
                [
                    "paper",
                    entry.label,
                    measured.get(entry.label),
                    None,
                    None,
                    None,
                    None,
                    entry.printed,
                    entry.convention,
                    entry.fitted_equiv,
                ]
            )
    return rows


_TIMESCALE_HEADER = [
    "kind",
    "key",
    "tau",
    "amplitude",
    "residual",
    "is_constant",
    "non_monotone",
    "printed_tau",
    "convention",
    "fitted_equiv",
]


def _write_timescales(report: TimescaleReport, opts: OutputOptions) -> Path:
    path = opts.out_dir / f"timescales.{opts.fmt}"
    rows = _fit_rows(report, opts.convention)
    if opts.fmt == "csv":
        _write_atomic(path, _csv_text(_TIMESCALE_HEADER, rows))
    else:
        payload = [dict(zip(_TIMESCALE_HEADER, row)) for row in rows]
        _write_atomic(path, _dump_json({"scenario": report.scenario_label, "fits": payload}))
    return path


def _write_audit(report: TimescaleReport, opts: OutputOptions) -> tuple[Path, str]:
    audit = audit_inequality(report)
    path = opts.out_dir / f"audit.{opts.fmt}"
    rows = [
        [p.pair, p.verdict, p.tau_dis, p.tau_bound, p.margin] for p in audit.pairs
    ] + [["overall", audit.overall, None, None, None]]
    if opts.fmt == "csv":
        _write_atomic(path, _csv_text(["pair", "verdict", "tau_dis", "tau_bound", "margin"], rows))
    else:
        _write_atomic(
            path,
            _dump_json(
                {
                    "scenario": report.scenario_label,
                    "pairs": [asdict(p) for p in audit.pairs],
                    "overall": audit.overall,
                }
            ),
        )
    return path, audit.overall


def _write_plots(columns: dict[str, np.ndarray], opts: OutputOptions) -> list[Path]:
    times = columns["t"]
    element_series = [
        (name.removeprefix("abs_"), times, vals)
        for name, vals in columns.items()
        if name.startswith("abs_rho_") and np.max(vals) > 1e-13
    ]
    ent_series = [
        (name, times, vals)
        for name, vals in columns.items()
        if name.startswith(("C_", "C2_", "Ef_"))
    ]
    paths = []
    for fname, series, title, ylab in (
        ("elements.svg", element_series, "Coherence magnitudes", "|rho_ij|"),
        ("entanglement.svg", ent_series, "Pairwise entanglement", "C / Ef"),
    ):
        path = opts.out_dir / fname
        _write_atomic(path, line_chart(series, title, "t", ylab, log_y=opts.log_y))
        paths.append(path)
    return paths


def cmd_run(args) -> int:
    raw = load_config(args.config)
    opts = output_options_from(raw, args.out, args.format, args.plots, args.convention)
    spec = state_from(raw)
    scenario = scenario_from(raw)
    if len(spec.register) != scenario.register_size:
        raise ConfigValidationError(
            "scenario.register",
            f"state class {spec.name!r} needs a {len(spec.register)}-qubit register",
        )
    grid = grid_from(raw, scenario)

    columns = _trajectory_columns(spec, scenario, grid, opts.outputs)
    written = [_write_trajectory(columns, opts)]
    overall = None
    if "timescales" in opts.outputs or "audit" in opts.outputs:
        report = build_report(spec, scenario, grid)
        if "timescales" in opts.outputs:
            written.append(_write_timescales(report, opts))
        if "audit" in opts.outputs:
            path, overall = _write_audit(report, opts)
            written.append(path)
    if opts.plots:
        written.extend(_write_plots(columns, opts))
    for path in written:
        print(path)
    if overall is not None:
        print(f"audit: {overall}")
    return EXIT_OK


def _comparison_payload(cmp_: ChannelComparison) -> dict:
    dim = cmp_.mc_mean.shape[0]
    elements = []
    for i in range(dim):
        for j in range(i + 1, dim):
            elements.append(
                {
                    "element": f"rho_{i + 1}{j + 1}",
                    "mc_re": cmp_.mc_mean[i, j].real,
                    "mc_im": cmp_.mc_mean[i, j].imag,
                    "channel_re": cmp_.channel_matrix[i, j].real,
                    "channel_im": cmp_.channel_matrix[i, j].imag,
                    "z": cmp_.z_scores[i, j],
                }
            )
    return {
        "state_class": cmp_.state_class,
        "scenario": cmp_.scenario_label,
        "n_trajectories": cmp_.n_trajectories,
        "seed": cmp_.seed,
        "dt": cmp_.dt,
        "t_final": cmp_.t_final,
        "distance": cmp_.distance,
        "distance_bound": DISTANCE_FACTOR * cmp_.expected_scale,
        "max_z": cmp_.max_z,
        "z_limit": Z_LIMIT,
        "informational": cmp_.informational,
        "passed": cmp_.passed,
        "elements": elements,
        "divergence": list(cmp_.divergence),
    }


def cmd_verify(args) -> int:
    raw = load_config(args.config)
    opts = output_options_from(raw, args.out, args.format, args.plots, args.convention)
    spec = state_from(raw)
    scenario = scenario_from(raw)
    cfg = mc_from(raw, args.seed)
    if cfg is None:
        raise ConfigValidationError("mc.seed", "verify needs an mc.* section")
    cmp_ = compare_to_channel(spec, scenario, cfg, force_informational=args.force_informational)
    payload = _comparison_payload(cmp_)
    path = opts.out_dir / "verify.json"
    _write_atomic(path, _dump_json(payload))
    print(path)
    status = "INFORMATIONAL" if cmp_.informational else ("PASS" if cmp_.passed else "FAIL")
    print(
        f"verify: {status} distance={cmp_.distance:.6g} "
        f"bound={DISTANCE_FACTOR * cmp_.expected_scale:.6g} max_z={cmp_.max_z:.3g}"
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    times = np.linspace(0.0, 2.0, 5)
    for _ in range(10):
        spec = draw_state(cls, rng)
        rho0 = projector(spec)
        for t in times:
            expected = analytic_evolved(spec, scenario, t)
            got = evolve(rho0, scenario, t)
            worst = max(worst, frobenius_distance(expected.matrix, got.matrix))
    return worst


def cmd_paper_tables(args) -> int:
    opts_raw: dict[str, str] = {}
    if args.config:
        opts_raw = load_config(args.config)
    opts = output_options_from(opts_raw, args.out, args.format, args.plots, args.convention)
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
        measured = measure_paper_taus(report)
        for entry in report.paper_taus or ():
            got = measured.get(entry.label)
            fit_ok = got is not None and abs(got - entry.fitted_equiv) <= FIT_TOL * entry.fitted_equiv
            entries.append(
                {
                    "class": cls,
                    "scenario": scen_name,
                    "label": entry.label,
                    "printed_tau": entry.printed,
                    "convention": entry.convention,
                    "fitted_equiv": entry.fitted_equiv,
                    "fitted": got,
                    "ok": fit_ok,
                }
            )
            if not fit_ok:
                failures.append(f"fit mismatch: ({cls}, {scen_name}, {entry.label})")
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
    path = opts.out_dir / "paper_tables.json"
    _write_atomic(path, _dump_json(payload))
    written = [path]
    if opts.fmt == "csv":
        header = [
            "class",
            "scenario",
            "label",
            "printed_tau",
            "convention",
            "fitted_equiv",
            "fitted",
            "ok",
        ]
        rows = [[e[k] for k in header] for e in entries]
        csv_path = opts.out_dir / "paper_tables.csv"
        _write_atomic(csv_path, _csv_text(header, rows))
        written.append(csv_path)

    for e in entries:
        fitted = "n/a" if e["fitted"] is None else f"{e['fitted']:.6g}"
        mark = "ok" if e["ok"] else "MISMATCH"
        print(
            f"{e['class']:8s} {e['scenario']:20s} {e['label']:10s} "
            f"printed={e['printed_tau']:.6g} ({e['convention']}) "
            f"factor-implied={e['fitted_equiv']:.6g} fitted={fitted} [{mark}]"
        )
    verdicts = [row["verdict"] for row in audit_rows]
    print(
        f"oracle checks: {sum(r['ok'] for r in oracle_rows)}/{len(oracle_rows)} ok; "
        f"audit: {verdicts.count('PASS')} PASS, {verdicts.count('VACUOUS')} VACUOUS, "
        f"{verdicts.count('FAIL')} FAIL"
    )
    for path_ in written:
        print(path_)
    if failures:
        for failure in failures:
            print(f"FAILURE {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = load_config(args.config)
    opts = output_options_from(raw, args.out, args.format, args.plots, args.convention)
    sweep = sweep_from(raw, args.seed)
    rng = np.random.default_rng(sweep.seed)
    rows = []
    fails = 0
    for cls in sweep.classes:
        for scen_name in sweep.scenarios:
            scenario = named_scenario(scen_name, sweep.rate)
            if scenario.register_size != len(STATE_TYPES[cls].register):
                continue
            for draw in range(sweep.draws):
                spec = draw_state(cls, rng)
                audit = audit_inequality(build_report(spec, scenario))
                for pair in audit.pairs:
                    rows.append(
                        [
                            cls,
                            scen_name,
                            draw,
                            pair.pair,
                            pair.verdict,
                            pair.tau_dis,
                            pair.tau_bound,
                            pair.margin,
                        ]
                    )
                    if pair.verdict == "FAIL":
                        fails += 1
    header = ["class", "scenario", "draw", "pair", "verdict", "tau_dis", "tau_bound", "margin"]
    path = opts.out_dir / f"sweep.{opts.fmt}"
    if opts.fmt == "csv":
        _write_atomic(path, _csv_text(header, rows))
    else:
        _write_atomic(path, _dump_json([dict(zip(header, row)) for row in rows]))
    verdicts = [row[4] for row in rows]
    print(path)
    print(
        f"sweep: {len(rows)} pair verdicts; {verdicts.count('PASS')} PASS, "
        f"{verdicts.count('VACUOUS')} VACUOUS, {fails} FAIL"
    )
    return EXIT_CHECK_FAILED if fails else EXIT_OK


def _add_common(sp: argparse.ArgumentParser, config_required: bool = True) -> None:
    sp.add_argument("--config", required=config_required, help="path to the run config file")
    sp.add_argument("--out", help="output directory (default: 'out' or config key)")
    sp.add_argument("--format", choices=("csv", "json"), help="table format")
    sp.add_argument("--plots", action="store_true", help="write SVG line charts")
    sp.add_argument("--seed", type=int, help="override mc.seed / sweep.seed")
    sp.add_argument(
        "--force-informational",
        action="store_true",
        help="compare scenarios outside the proven-equivalent channel set",
    )
    sp.add_argument("--convention", choices=("c", "c2", "both"), help="concurrence convention")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephasim",
        description="Dephasing-channel evolution, entanglement decay and timescale audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="evolve a state and emit trajectories and reports")
    _add_common(run_p)
    run_p.set_defaults(handler=cmd_run)
    verify_p = sub.add_parser("verify", help="Monte Carlo cross-check of the channel evolution")
    _add_common(verify_p)
    verify_p.set_defaults(handler=cmd_verify)
    tables_p = sub.add_parser("paper-tables", help="reproduce every published timescale and audit")
    _add_common(tables_p, config_required=False)
    tables_p.set_defaults(handler=cmd_paper_tables)
    sweep_p = sub.add_parser("sweep", help="audit random coefficient draws across scenarios")
    _add_common(sweep_p)
    sweep_p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
