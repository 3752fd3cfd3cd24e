"""Tests of the benchmark itself: contract, exact counts, seeds and output checks.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import dephasim.channels  # noqa: E402
import dephasim.timescales  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(wl) -> dict:
    """Every per-layer metric of a traced run that is a count, not a time."""
    tally = run.Tally()
    tracer, traced, scaled = run.traced_loop(wl, tally)
    metrics, _ = run.per_layer(tracer, traced, scaled, scaled)
    assert not tally.failures
    return {
        name: value
        for name, value in metrics.items()
        if not name.endswith("_s") and name != "montecarlo.us_per_traj"
    }


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_counts_repeat_exactly_for_a_fixed_seed(tmp_path):
    first = workloads.AuditSweep(5, tmp_path / "a")
    second = workloads.AuditSweep(5, tmp_path / "b")
    first.traced_iterations = second.traced_iterations = 2
    counts = _traced_counts(first)
    assert counts == _traced_counts(second)
    assert counts["presets.draw_state.calls"] == 2 * len(workloads.SWEEP_COMBOS)
    assert counts["channels.apply_kraus.calls"] > 0
    tables = [_traced_counts(workloads.PaperTables(0, tmp_path / k)) for k in "cd"]
    assert tables[0] == tables[1]
    assert tables[0]["cli.bytes.paper_tables.json"] > 0
    # the wrappers are gone again, including the from-import bindings
    assert dephasim.timescales.evolve is dephasim.channels.evolve
    assert not hasattr(dephasim.channels.evolve, "__wrapped__")


def test_traced_run_writes_the_same_outputs(tmp_path):
    wl = workloads.RunExport(2, tmp_path)
    wl.traced_iterations = 1
    untraced = wl.iteration(1)
    tally = run.Tally()
    tracer, traced, _ = run.traced_loop(wl, tally)
    assert not tally.failures and not untraced.ops[0].failure
    assert traced[0].digest == untraced.digest
    assert traced[0].files == untraced.files
    assert tracer.calls["timescales.sample_evolution"] == 2


def test_a_different_seed_changes_the_inputs(tmp_path):
    for cls in (workloads.McVerify, workloads.RunExport):
        one, again, other = (cls(s, tmp_path / f"{cls.name}{k}") for k, s in enumerate((1, 1, 2)))
        assert one.config.read_text() == again.config.read_text() != other.config.read_text()
    one, again, other = (workloads.AuditSweep(s, tmp_path / f"sweep{k}") for k, s in enumerate((1, 1, 2)))
    assert one.iteration(1).digest == again.iteration(1).digest != other.iteration(1).digest


def test_a_perturbed_output_is_caught(tmp_path):
    wl = workloads.RunExport(3, tmp_path)
    it = wl.iteration(1)
    assert it.ops[0].failure is None

    def check() -> str | None:
        return workloads.check_export(wl.out, 0, "audit: PASS\n", wl.spec, wl.scenario, wl.rows_checked)

    path = wl.out / "trajectory.csv"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    row = wl.rows_checked[1] + 1  # line 0 is the header
    cells = lines[row].rstrip("\n").split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    path.write_text("".join(lines[:row] + [",".join(cells) + "\n"] + lines[row + 1 :]))
    assert "from the closed form" in check()
    path.write_text("".join(lines[:-1]))
    assert "rows" in check()
    path.write_text(text)
    assert check() is None
    (wl.out / "elements.svg").unlink()
    assert "missing" in check()

    sweep = workloads.AuditSweep(3, tmp_path / "sweep")
    spec = workloads.presets.draw_state("w", np.random.default_rng(0))
    scenario = sweep.scenarios[2]
    grid = workloads.timescales.default_grid(scenario)
    stack = workloads.timescales.sample_evolution(spec, scenario, grid)
    assert workloads.oracle_distance(spec, scenario, stack) <= workloads.ORACLE_TOL
    stack[5, 1, 2] += 1e-10
    assert workloads.oracle_distance(spec, scenario, stack) > workloads.ORACLE_TOL

    (tmp_path / "verify.json").write_text(json.dumps({"passed": False, "informational": False}))
    assert workloads.check_verify(tmp_path, 0) is not None
    (tmp_path / "paper_tables.json").write_text(json.dumps({"failures": ["fit mismatch"]}))
    assert workloads.check_tables(tmp_path, 0) is not None


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path, trace):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-sweep", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
