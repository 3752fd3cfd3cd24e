"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import json
import math
import time

import numpy as np

from dephasim.channels import (
    Local,
    PairCollective,
    TripleCollective,
    evolve,
    gamma,
    kraus_for,
    verify_completeness,
)
from dephasim.cli import main
from dephasim.entanglement import concurrence_curve
from dephasim.linalg import frobenius_distance
from dephasim.montecarlo import TrajectoryConfig, compare_to_channel, simulate_statistics
from dephasim.presets import (
    PAPER_MATRIX,
    draw_state,
    measure_paper_taus,
    named_scenario,
    paper_tau_table,
)
from dephasim.states import (
    Fragile,
    GenericPure,
    Robust,
    analytic_evolved,
    check_density,
    projector,
    reduced_stacks,
)
from dephasim.timescales import (
    TimeGrid,
    audit_inequality,
    build_report,
)

GHZ_SCENARIOS = (
    "3q-local-A",
    "3q-pair-AB",
    "3q-collective",
    "3q-multi-local",
    "3q-local-A-pair-BC",
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, f"criterion {number}: {name}"


def test_criterion_01_fragile_collective_concurrence():
    start = time.perf_counter()
    s = 1 / math.sqrt(2)
    spec = Fragile(s, 0.0, s)
    scenario = named_scenario("2q-collective", 1.0)
    rho0 = projector(spec)
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 1.0):
        c = concurrence_curve(evolve(rho0, scenario, t))
        worst = max(worst, abs(c - math.exp(-2.0 * t)))
    elapsed = time.perf_counter() - start
    _report(1, f"fragile C(t)=e^-2t, worst dev {worst:.2e}, {elapsed:.2f}s", worst <= 1e-10 and elapsed < 1.0)


def test_criterion_02_robust_collective_is_frozen():
    s = 1 / math.sqrt(2)
    spec = Robust(0.0, s, -s)
    scenario = named_scenario("2q-collective", 1.0)
    rho0 = projector(spec)
    times = TimeGrid(3.0, 64).times
    stack = np.stack([evolve(rho0.matrix, scenario, t) for t in times])
    c_dev = float(np.max(np.abs(concurrence_curve(stack) - 1.0)))
    rho23_dev = float(np.max(np.abs(stack[:, 1, 2] - rho0.matrix[1, 2])))
    ok = c_dev <= 1e-12 and rho23_dev <= 1e-12
    _report(2, f"robust C=1 (dev {c_dev:.2e}), rho_23 constant (dev {rho23_dev:.2e})", ok)


def test_criterion_03_w_frozen_under_triple_collective():
    rng = np.random.default_rng(303)
    scenario = named_scenario("3q-collective", 1.0)
    worst = 0.0
    spec = draw_state("w", rng)
    rho0 = projector(spec)
    for t in np.linspace(0.0, 4.5, 10):
        worst = max(worst, frobenius_distance(evolve(rho0, scenario, t).matrix, rho0.matrix))
    _report(3, f"W frozen under collective dephasing, worst distance {worst:.2e}", worst <= 1e-12)


def test_criterion_04_ghz_no_pairwise_entanglement():
    rng = np.random.default_rng(404)
    spec = draw_state("ghz", rng)
    rho0 = projector(spec)
    worst_c = 0.0
    worst_offdiag = 0.0
    for name in GHZ_SCENARIOS:
        scenario = named_scenario(name, 1.0)
        for t in np.linspace(0.0, 3.0, 16):
            evolved = evolve(rho0, scenario, t)
            for keep, red in reduced_stacks(evolved.matrix, spec.register).items():
                if len(keep) == len(spec.register):
                    continue
                check_density(red)
                off = red - np.diag(np.diag(red))
                worst_offdiag = max(worst_offdiag, float(np.max(np.abs(off))))
                if len(keep) == 2:
                    worst_c = max(worst_c, concurrence_curve(red))
    ok = worst_c <= 1e-12 and worst_offdiag <= 1e-12
    _report(4, f"GHZ pairwise C {worst_c:.2e}, reductions diagonal {worst_offdiag:.2e}", ok)


def test_criterion_05_closed_form_oracle_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        for _ in range(10):
            spec = draw_state(cls, rng)
            rho0 = projector(spec)
            for t in np.linspace(0.0, 2.5, 5):
                d = frobenius_distance(
                    analytic_evolved(spec, scenario, t).matrix,
                    evolve(rho0, scenario, t).matrix,
                )
                worst = max(worst, d)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(5, f"closed-form vs operator-sum, worst {worst:.2e}, {elapsed:.2f}s", ok)


def test_criterion_06_fitted_timescales():
    rng = np.random.default_rng(606)
    ok = True
    detail = []
    # every decaying element matches the decay rate implied by its factors
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        spec = draw_state(cls, rng)
        report = build_report(spec, scenario)
        rho0 = projector(spec).matrix
        ref = analytic_evolved(spec, scenario, 1.0).matrix
        dim = rho0.shape[0]
        for i in range(dim):
            for j in range(i + 1, dim):
                row = report.coherence_taus["".join(spec.register)][f"rho_{i + 1}{j + 1}"]
                if not row.decays:
                    continue
                predicted = -1.0 / math.log(abs(ref[i, j] / rho0[i, j]))
                if abs(row.tau - predicted) > 1e-12 * predicted:
                    ok = False
                    detail.append(f"{cls}/{scen_name}/rho_{i+1}{j+1}")
    # the named published values at unit rate
    named = {
        ("fragile", "2q-collective", "2-dec-slow"): 2.0,
        ("fragile", "2q-collective", "2-dec-fast"): 0.5,
        ("fragile", "2q-collective", "dis"): 0.5,
        ("w", "3q-local-A", "3-dec"): 2.0,
        ("ghz", "3q-multi-local", "3-dec"): 2.0 / 3.0,
        ("ghz", "3q-collective", "3-dec"): 0.5,
    }
    for (cls, scen_name, label), expected in named.items():
        scenario = named_scenario(scen_name, 1.0)
        report = build_report(draw_state(cls, rng), scenario)
        got = measure_paper_taus(report, paper_tau_table(cls, scenario))[label]
        if got is None or abs(got - expected) > 1e-12 * expected:
            ok = False
            detail.append(f"{cls}/{scen_name}/{label}={got}")
    bad = "; bad: " + ",".join(detail) if detail else ""
    _report(6, f"exact e-folding times within 1e-12{bad}", ok)


def test_criterion_07_inequality_audit_never_fails():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    bad = []
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        for _ in range(100):
            spec = draw_state(cls, rng)
            audit = audit_inequality(build_report(spec, scenario))
            if audit.overall not in ("PASS", "VACUOUS"):
                bad.append((cls, scen_name, spec))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _report(7, f"audit PASS/VACUOUS over 100 draws x {len(PAPER_MATRIX)} combos, {elapsed:.1f}s", ok)


def test_criterion_08_channel_sanity():
    rng = np.random.default_rng(808)
    worst_completeness = 0.0
    for _ in range(20):
        rate = float(rng.uniform(0.1, 4.0))
        t = float(rng.uniform(0.0, 4.0))
        for kind, register_size in (
            (Local("A"), 2),
            (Local("C"), 3),
            (PairCollective("A", "B"), 2),
            (PairCollective("A", "C"), 3),
            (TripleCollective(), 3),
        ):
            ks = kraus_for(kind, register_size, rate, t)
            worst_completeness = max(worst_completeness, verify_completeness(ks))
    ok = worst_completeness <= 1e-12

    worst_trace = worst_eig = worst_diag = worst_semi = worst_perm = 0.0
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        spec = draw_state(cls, rng)
        rho0 = projector(spec).matrix
        t1, t2 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        evolved = evolve(rho0, scenario, t1)
        worst_trace = max(worst_trace, abs(np.trace(evolved).real - 1.0))
        worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(evolved))))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(evolved) - np.diag(rho0)))))
        twice = evolve(evolve(rho0, scenario, t1), scenario, t2)
        worst_semi = max(
            worst_semi, float(np.max(np.abs(twice - evolve(rho0, scenario, t1 + t2))))
        )
        if len(scenario.channels) > 1:
            reversed_scenario = type(scenario)(
                scenario.register_size, tuple(reversed(scenario.channels))
            )
            worst_perm = max(
                worst_perm,
                float(
                    np.max(
                        np.abs(
                            evolve(rho0, scenario, t1) - evolve(rho0, reversed_scenario, t1)
                        )
                    )
                ),
            )
    ok = (
        ok
        and worst_trace <= 1e-12
        and worst_eig <= 1e-10
        and worst_diag <= 1e-12
        and worst_semi <= 1e-12
        and worst_perm <= 1e-12
    )
    _report(
        8,
        "channel sanity: completeness "
        f"{worst_completeness:.1e}, trace {worst_trace:.1e}, eig {worst_eig:.1e}, "
        f"diag {worst_diag:.1e}, semigroup {worst_semi:.1e}, order {worst_perm:.1e}",
        ok,
    )


def test_criterion_09_monte_carlo_oracle(tmp_path):
    start = time.perf_counter()
    cfg = TrajectoryConfig(n_trajectories=10_000, seed=20260810, t_final=1.0)
    cmp_local = compare_to_channel(
        GenericPure(0.5, 0.5, 0.5, 0.5), named_scenario("2q-local-A", 1.0), cfg
    )
    ok = cmp_local.distance < 0.05 and cmp_local.max_z <= cmp_local.z_limit < 4.0

    # pair-collective fragile input: gamma^4 / gamma / untouched pattern
    spec = Fragile(0.6, 0.5, math.sqrt(1 - 0.61))
    rho0 = projector(spec).matrix
    fields = named_scenario("2q-collective", 1.0).channels
    mean = simulate_statistics(rho0, fields, cfg)
    g = gamma(1.0, 1.0)
    for (i, j), power in (((0, 3), 4), ((0, 1), 1), ((1, 3), 1)):
        # exact SE of a mean of rho_ij e^(i Delta), Delta ~ N(0, power): Var |.| = |rho|^2 (1 - e^-power)
        se = abs(rho0[i, j]) * math.sqrt(-math.expm1(-power) / cfg.n_trajectories)
        ok = ok and abs(mean[i, j] - rho0[i, j] * g**power) <= 4 * se
    ok = ok and mean[1, 2] == 0.0

    # repeat-seed CLI verify runs are byte-identical
    conf = tmp_path / "mc.conf"
    conf.write_text(
        "state.class = generic\n"
        "state.a = 0.5\nstate.b = 0.5\nstate.c = 0.5\nstate.d = 0.5\n"
        "scenario.register = 2\n"
        "scenario.channels[0].kind = local\n"
        "scenario.channels[0].qubits = A\n"
        "scenario.channels[0].rate = 1.0\n"
        "mc.trajectories = 10000\nmc.seed = 20260810\nmc.t = 1.0\n"
    )
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "v1")]) == 0
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "v2")]) == 0
    bytes1 = (tmp_path / "v1" / "verify.json").read_bytes()
    ok = ok and bytes1 == (tmp_path / "v2" / "verify.json").read_bytes()
    payload = json.loads(bytes1)
    ok = ok and payload["passed"] is True
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        9,
        f"MC oracle: dist {cmp_local.distance:.4f} < 0.05, max z {cmp_local.max_z:.2f} "
        f"<= {cmp_local.z_limit:.2f}, "
        f"byte-identical, {elapsed:.1f}s",
        ok,
    )


def test_criterion_10_convergence_scaling():
    spec = GenericPure(0.5, 0.5, 0.5, 0.5)
    scenario = named_scenario("2q-local-A", 1.0)
    scaled = []
    for n in (100, 1000, 10_000):
        distances = [
            compare_to_channel(
                spec, scenario, TrajectoryConfig(n, seed, 1.0)
            ).distance
            for seed in (11, 22, 33, 44, 55)
        ]
        scaled.append(float(np.mean(distances)) * math.sqrt(n))
    spread = max(scaled) / min(scaled)
    _report(10, f"distance * sqrt(n) spread {spread:.2f} (factor-3 band)", spread <= 3.0)
