import math
from itertools import combinations

import numpy as np
import pytest

from dephasim.channels import (
    Local,
    NoiseScenario,
    PairCollective,
    TripleCollective,
    evolve,
)
from dephasim.entanglement import concurrence_curve
from dephasim.linalg import partial_trace, subspace_index
from dephasim.presets import (
    PAPER_MATRIX,
    PAPER_TAUS,
    SCENARIO_LAYOUTS,
    draw_state,
    measure_paper_taus,
    named_scenario,
    paper_tau_table,
)
from dephasim.states import (
    STATE_TYPES,
    analytic_evolved,
    projector,
    reduced_stacks,
)
from dephasim import timescales
from dephasim.timescales import (
    ZERO_FLOOR,
    TimeGrid,
    Trajectory,
    _crossings,
    audit_inequality,
    build_report,
    default_grid,
    fit_exponential,
    sample_evolution,
)

RNG = np.random.default_rng(99)


def make_traj(tau, t_max=3.0, n=64, amplitude=1.0):
    times = np.linspace(0.0, t_max, n)
    return Trajectory(times, amplitude * np.exp(-times / tau))


def test_fit_recovers_exact_exponential():
    fit = fit_exponential(make_traj(1.0))
    assert abs(fit.tau - 1.0) < 1e-9
    assert abs(fit.amplitude - 1.0) < 1e-9
    assert fit.residual < 1e-12
    assert not fit.is_constant and not fit.non_monotone


def test_fit_recovers_random_generators():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tau = float(rng.uniform(0.05, 10.0))
        amp = float(rng.uniform(0.01, 2.0))
        fit = fit_exponential(make_traj(tau, t_max=3 * tau, amplitude=amp))
        assert abs(fit.tau - tau) <= 1e-6 * tau
        assert abs(fit.amplitude - amp) <= 1e-6 * amp


def test_fit_flags_constant_trajectories():
    times = np.linspace(0.0, 3.0, 64)
    flat = fit_exponential(Trajectory(times, np.full(64, 0.37)))
    assert flat.is_constant and math.isinf(flat.tau)
    assert abs(flat.amplitude - 0.37) < 1e-15
    zero = fit_exponential(Trajectory(times, np.zeros(64)))
    assert zero.is_constant and zero.amplitude == 0.0


def test_fit_flags_non_monotone_data():
    times = np.linspace(0.0, 3.0, 64)
    values = np.exp(-times)
    values[30] += 0.05
    fit = fit_exponential(Trajectory(times, values))
    assert fit.non_monotone


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_exponential(Trajectory(np.linspace(0, 1, 4), np.ones(4)))
    with pytest.raises(ValueError):
        fit_exponential(Trajectory(np.linspace(0, 1, 10), np.linspace(-0.1, 1, 10)))
    times = np.linspace(0.0, 3.0, 10)
    values = np.zeros(10)
    values[0] = 1.0  # only one usable sample above the floor
    with pytest.raises(ValueError, match="usable"):
        fit_exponential(Trajectory(times, values))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


def test_default_grid_spans_three_slowest_efoldings():
    grid = default_grid(named_scenario("2q-collective", 2.0))
    assert abs(grid.t_max - 1.5) < 1e-15
    assert grid.n_samples == 64


def test_time_grid_size_bounds():
    assert TimeGrid(1.0, 100_000).n_samples == 100_000  # times are built only when read
    with pytest.raises(ValueError, match="^n_samples must be at most 100000"):
        TimeGrid(1.0, 100_001)


def test_time_grid_times_are_built_once_and_read_only():
    grid = TimeGrid(2.5, 77)
    assert grid.times is grid.times
    assert not grid.times.flags.writeable
    expected = np.linspace(0.0, 2.5, 77)
    assert grid.times.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        grid.times[0] = 1.0
    # still a frozen value: equal and hashed by (t_max, n_samples), times read or not
    fresh = TimeGrid(2.5, 77)
    assert fresh == grid and hash(fresh) == hash(grid) and len({fresh, grid}) == 1
    assert repr(fresh) == repr(grid) == "TimeGrid(t_max=2.5, n_samples=77)"
    with pytest.raises(AttributeError):
        grid.t_max = 1.0


@pytest.mark.parametrize("t_max", [0.0, 1e-101, 1e101, math.nan, math.inf])
def test_time_grid_horizon_is_bounded(t_max):
    with pytest.raises(ValueError, match=r"^t_max must be in \[1e-100, 1e\+100\]"):
        TimeGrid(t_max)


def test_default_grid_stays_within_the_scale_range():
    assert default_grid(named_scenario("2q-collective", 1e-100)).t_max == 1e100


def test_build_report_refuses_an_out_of_range_rate():
    # the rate is refused where the scenario is built, before any eigensolve
    with pytest.raises(ValueError, match="^channel rate must be 0 or in"):
        build_report(draw_state("fragile", np.random.default_rng(0)), named_scenario("2q-collective", 1e308))


def test_fitted_taus_follow_the_exponents():
    # an element scaled by g1^p g2^q decays at rate (p r1 + q r2) / 2
    rng = np.random.default_rng(2)
    for _ in range(10):
        r1, r2 = rng.uniform(0.3, 2.0, size=2)
        p, q = rng.integers(1, 5, size=2)
        rate = 0.5 * (p * r1 + q * r2)
        times = np.linspace(0.0, 3.0 / min(r1, r2), 50)
        traj = Trajectory(times, 0.5 * np.exp(-rate * times))
        fit = fit_exponential(traj)
        assert abs(fit.tau - 1.0 / rate) <= 0.01 / rate


def test_paper_tau_table_fragile_and_robust():
    scenario = named_scenario("2q-collective", 2.0)
    fragile = {e.label: e for e in paper_tau_table("fragile", scenario)}
    assert fragile["2-dec-slow"].printed == 1.0  # 2 / rate
    assert fragile["2-dec-fast"].printed == 0.25
    assert fragile["dis"].printed == 0.25 and fragile["dis"].convention == "C"
    assert fragile["1-dec"].printed == 0.5
    assert fragile["1-dec"].implied == 1.0  # decay factor implies 2 / rate
    robust = {e.label: e for e in paper_tau_table("robust", scenario)}
    assert robust["2-dec"].printed == 1.0
    assert "dis" not in robust


def test_paper_tau_table_w_class():
    local = {e.label: e for e in paper_tau_table("w", named_scenario("3q-local-A", 1.0))}
    assert local["3-dec"].printed == 2.0
    assert local["dis"].printed == 1.0 and local["dis"].convention == "C2"
    assert paper_tau_table("w", named_scenario("3q-collective", 1.0)) == ()
    multi = {e.label: e for e in paper_tau_table("w", named_scenario("3q-multi-local", 1.0))}
    assert multi["3-dec"].printed == 1.0
    assert multi["dis"].printed == 0.5
    mixed = {
        e.label: e for e in paper_tau_table("w", named_scenario("3q-local-A-pair-BC", (1.0, 2.0)))
    }
    # additive transcription differs from the factor-implied e-folding
    assert mixed["3-dec"].printed == 2.0 / 1.0 + 2.0 / 2.0
    assert abs(mixed["3-dec"].implied - 2.0 / 3.0) < 1e-15


def test_paper_tau_table_ghz():
    cases = {
        "3q-local-A": 2.0,
        "3q-pair-AB": 0.5,
        "3q-collective": 0.5,
        "3q-multi-local": 2.0 / 3.0,
    }
    for name, expected in cases.items():
        (entry,) = paper_tau_table("ghz", named_scenario(name, 1.0))
        assert entry.label == "3-dec"
        assert abs(entry.printed - expected) < 1e-15
    (mixed,) = paper_tau_table("ghz", named_scenario("3q-local-A-pair-BC", (1.0, 1.0)))
    assert abs(mixed.printed - 2.5) < 1e-15
    assert abs(mixed.implied - 0.4) < 1e-15


def test_paper_tau_table_rejects_unknown_pairs():
    assert paper_tau_table("fragile", named_scenario("2q-local-A", 1.0)) == ()
    assert paper_tau_table("generic", named_scenario("2q-collective", 1.0)) == ()
    rates_differ = NoiseScenario(
        3, ((Local("A"), 1.0), (Local("B"), 2.0), (Local("C"), 1.0))
    )
    overlapping = NoiseScenario(3, ((Local("A"), 1.0), (Local("B"), 1.0)), allow_overlap=True)
    idle_pair = named_scenario("3q-local-A-pair-BC", (1.0, 0.0))
    for scenario in (rates_differ, overlapping, idle_pair):
        assert paper_tau_table("w", scenario) == ()


def test_paper_matrix_keeps_its_order():
    # paper-tables seeds each combination by its index in this order
    layouts = ("3q-local-A", "3q-pair-AB", "3q-collective", "3q-multi-local", "3q-local-A-pair-BC")
    assert PAPER_MATRIX == (("fragile", "2q-collective"), ("robust", "2q-collective")) + tuple(
        (cls, name) for cls in ("w", "ghz") for name in layouts
    )


@pytest.mark.parametrize(
    "name, channels",
    [
        ("3q-local-A", ((Local("B"), 0.7),)),
        ("3q-local-A", ((Local("C"), 0.7),)),
        ("3q-pair-AB", ((PairCollective("A", "C"), 0.7),)),
        ("3q-pair-AB", ((PairCollective("B", "C"), 0.7),)),
        ("3q-local-A-pair-BC", ((Local("B"), 0.7), (PairCollective("A", "C"), 1.9))),
        ("3q-local-A-pair-BC", ((PairCollective("C", "A"), 1.9), (Local("B"), 0.7))),
    ],
)
def test_paper_tau_table_follows_relabelled_layouts(name, channels):
    named = named_scenario(name, (0.7, 1.9)[: len(channels)])
    relabelled = NoiseScenario(3, channels)
    for cls in ("w", "ghz"):
        rows = paper_tau_table(cls, named)
        assert rows and paper_tau_table(cls, relabelled) == rows


def test_factor_implied_rows_follow_the_exponents():
    # a full-register element row implies the slowest (2-dec-fast: the fastest)
    # e-folding 1 / E_ij among the decaying coherences on the class's support
    picks = {"3-dec": max, "2-dec-slow": max, "2-dec-fast": min, "2-dec": max}
    checked = 0
    for (cls, name), rows in PAPER_TAUS.items():
        size, layout = SCENARIO_LAYOUTS[name]
        kinds = list(dict.fromkeys(type(k) for k in layout))
        for rates in ((1.0,), (0.7,), (0.7, 1.9)):
            if len(rates) != len(kinds):
                continue
            scenario = named_scenario(name, [rates[kinds.index(type(k))] for k in layout])
            exponents = scenario.exponents
            taus = [
                1.0 / exponents[i, j]
                for i, j in combinations(STATE_TYPES[cls].support, 2)
                if exponents[i, j] > 1e-9
            ]
            for entry in paper_tau_table(cls, scenario):
                if entry.label in picks and not (entry.label == "2-dec" and size == 3):
                    expected = picks[entry.label](taus)
                    assert abs(entry.implied - expected) <= 1e-15 * expected, (cls, name)
                    checked += 1
    assert checked == 22


def test_sample_evolution_matches_reference():
    spec = draw_state("w", RNG)
    scenario = named_scenario("3q-pair-AB", 1.0)
    grid = TimeGrid(2.0, 9)
    stack = sample_evolution(spec, scenario, grid)
    assert stack.shape == (9, 8, 8)
    for k, t in enumerate(grid.times):
        expected = analytic_evolved(spec, scenario, t).matrix
        assert np.max(np.abs(stack[k] - expected)) < 1e-14


def test_report_fits_match_factor_implied_taus():
    rng = np.random.default_rng(3)
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        report = build_report(draw_state(cls, rng), scenario)
        paper = paper_tau_table(cls, scenario)
        measured = measure_paper_taus(report, paper)
        for entry in paper:
            got = measured[entry.label]
            assert got is not None, (cls, scen_name, entry.label)
            assert abs(got - entry.implied) <= 1e-12 * entry.implied


def test_report_element_taus_match_analytic_factors():
    # every decaying element's tau agrees with the decay rate implied by
    # the closed-form factor at a reference time
    rng = np.random.default_rng(4)
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
                factor = abs(ref[i, j] / rho0[i, j])
                predicted = -1.0 / math.log(factor)
                assert abs(row.tau - predicted) <= 1e-12 * predicted


def test_audit_fragile_margin_is_four():
    rng = np.random.default_rng(5)
    spec = draw_state("fragile", rng)
    report = build_report(spec, named_scenario("2q-collective", 1.0))
    audit = audit_inequality(report)
    (pair,) = audit.pairs
    assert pair.verdict == "PASS"
    assert abs(pair.tau_dis - 0.5) < 1e-12
    assert abs(pair.tau_bound - 2.0) < 1e-12
    assert abs(pair.margin - 4.0) < 1e-12
    assert audit.overall == "PASS"


#: the two-qubit classes with a zero population
_ZERO_POPULATION = ("fragile", "fragile2", "robust", "robust2")

#: the audit margin of every non-vacuous pair, as a function of the layout's
#: rates; None where every pair is VACUOUS
_AUDIT_MARGINS = {
    **{(cls, "2q-collective"): lambda rates: 4.0 for cls in ("fragile", "fragile2")},
    **{(cls, "2q-collective"): None for cls in ("robust", "robust2")},
    **{(cls, "2q-local-A"): lambda rates: 1.0 for cls in _ZERO_POPULATION},
    **{
        (cls, "2q-multi-local"): lambda rates: 1.0 + max(rates) / min(rates)
        for cls in _ZERO_POPULATION
    },
    **{
        ("w", layout): lambda rates: 1.0
        for layout, (size, _) in SCENARIO_LAYOUTS.items()
        if size == 3 and layout != "3q-collective"
    },
    ("w", "3q-collective"): None,
}


def test_audit_margins_are_constants_of_the_class_and_layout():
    # at log-uniform rates in [0.01, 100], one per channel
    rng = np.random.default_rng(18)
    for (cls, layout), margin in _AUDIT_MARGINS.items():
        for _ in range(5):
            rates = (10.0 ** rng.uniform(-2.0, 2.0, len(SCENARIO_LAYOUTS[layout][1]))).tolist()
            audit = audit_inequality(
                build_report(draw_state(cls, rng), named_scenario(layout, rates))
            )
            case = (cls, layout, rates)
            if margin is None:
                assert audit.overall == "VACUOUS", case
                continue
            assert audit.overall == "PASS", case
            for pair in audit.pairs:
                if pair.verdict != "VACUOUS":
                    want = margin(rates)
                    assert abs(pair.margin - want) <= 1e-12 * want, (case, pair)


def test_audit_vacuous_cases():
    rng = np.random.default_rng(6)
    robust = build_report(draw_state("robust", rng), named_scenario("2q-collective", 1.0))
    assert audit_inequality(robust).overall == "VACUOUS"
    w_frozen = build_report(draw_state("w", rng), named_scenario("3q-collective", 1.0))
    assert audit_inequality(w_frozen).overall == "VACUOUS"
    ghz = build_report(draw_state("ghz", rng), named_scenario("3q-local-A", 1.0))
    assert audit_inequality(ghz).overall == "VACUOUS"


def test_audit_w_pair_scenario_mixes_verdicts():
    rng = np.random.default_rng(7)
    report = build_report(draw_state("w", rng), named_scenario("3q-pair-AB", 1.0))
    audit = audit_inequality(report)
    verdicts = {p.pair: p.verdict for p in audit.pairs}
    assert verdicts["AB"] == "VACUOUS"  # its concurrence never decays
    assert verdicts["AC"] == "PASS"
    assert verdicts["BC"] == "PASS"
    assert audit.overall == "PASS"


def test_audit_handles_equality_at_the_bound():
    rng = np.random.default_rng(8)
    report = build_report(draw_state("w", rng), named_scenario("3q-multi-local", 1.0))
    audit = audit_inequality(report)
    for pair in audit.pairs:
        assert pair.verdict == "PASS"
        assert abs(pair.margin - 1.0) < 1e-12


def test_audit_never_fails_across_paper_matrix():
    rng = np.random.default_rng(9)
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        for _ in range(5):
            report = build_report(draw_state(cls, rng), scenario)
            assert audit_inequality(report).overall in ("PASS", "VACUOUS")


def _all_rows(report):
    """(group, key, row) of every row: a matrix label, or the power 1 or 2 of C."""
    groups = (
        *report.coherence_taus.items(),
        (1, report.concurrence_taus),
        (2, report.concurrence_sq_taus),
    )
    return [(group, key, row) for group, rows in groups for key, row in rows.items()]


def _upper(dim):
    return [(f"rho_{i + 1}{j + 1}", (i, j)) for i, j in combinations(range(dim), 2)]


def test_fits_on_sampled_curves_cross_check_the_exact_taus():
    # the fit is independent of E: it only sees the sampled curves
    rng = np.random.default_rng(10)
    checked = 0
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        spec = draw_state(cls, rng)
        grid = default_grid(scenario)
        report = build_report(spec, scenario)
        stack = sample_evolution(spec, scenario, grid)
        reduced = reduced_stacks(stack, spec.register)
        for group, key, row in _all_rows(report):
            if not row.decays:
                continue
            if group in reduced:
                i, j = dict(_upper(len(reduced[group][0])))[key]
                values = np.abs(reduced[group][:, i, j])
            else:
                values = concurrence_curve(reduced[key]) ** group - row.limit
            fit = fit_exponential(Trajectory(grid.times, values))
            assert abs(fit.tau - row.tau) <= 1e-6 * row.tau, (cls, scen_name, key)
            checked += 1
    assert checked > 50


def _dis_draws():
    rng = np.random.default_rng(11)
    for cls, scen_name in PAPER_MATRIX + (("generic", "2q-collective"),) * 8:
        scenario = named_scenario(scen_name, 1.0)
        yield draw_state(cls, rng), scenario


def test_disentanglement_time_sits_on_the_level():
    checked = 0
    for spec, scenario in _dis_draws():
        report = build_report(spec, scenario)
        for power, rows in ((1, report.concurrence_taus), (2, report.concurrence_sq_taus)):
            for label, row in rows.items():
                if not row.decays:
                    continue
                rho = evolve(projector(spec), scenario, row.tau)
                pair = reduced_stacks(rho.matrix, spec.register)[label]
                level = row.limit + (row.amplitude - row.limit) / math.e
                assert abs(concurrence_curve(pair) ** power - level) <= 1e-12, (spec, label)
                checked += 1
    assert checked > 30


def _report_on(spec, scenario, grid):
    """`build_report` with its crossings bracketed on `grid` instead of the default grid."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timescales, "default_grid", lambda scenario: grid)
        return build_report(spec, scenario)


def test_taus_do_not_depend_on_the_grid():
    # a coarse short grid needs the doubling past t_max; a fine one brackets
    # tightly; on a long one every sample after t = 0 is below the level
    rng = np.random.default_rng(12)
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        spec = draw_state(cls, rng)
        reports = [build_report(spec, scenario)] + [
            _report_on(spec, scenario, grid)
            for grid in (TimeGrid(0.3, 8), TimeGrid(3.0, 2000), TimeGrid(1000.0, 64))
        ]
        base = _all_rows(reports[0])
        for other in reports[1:]:
            for (_, key, row), (_, _, again) in zip(base, _all_rows(other)):
                assert again.decays == row.decays, (cls, scen_name, key)
                if row.decays:
                    assert abs(again.tau - row.tau) <= 1e-12 * row.tau, (cls, scen_name, key)


def test_tiny_concurrence_drops_are_grid_independent_to_their_roundoff():
    # C carries ~1e-16 of roundoff, so a drop C0 - C_inf of size d fixes
    # tau only to about 1e-16 / d relative; everything else to 1e-12
    rng = np.random.default_rng(0)
    scenario = named_scenario("2q-collective", 1.0)
    for _ in range(100):
        spec = draw_state("generic", rng)
        row = build_report(spec, scenario).concurrence_taus["AB"]
        if not row.decays:
            continue
        tol = 1e-12 + 1e-14 / (row.amplitude - row.limit)
        for grid in (TimeGrid(0.3, 8), TimeGrid(3.0, 500)):
            again = _report_on(spec, scenario, grid).concurrence_taus["AB"]
            assert abs(again.tau - row.tau) <= tol * row.tau


def _kind_sets():
    kinds = {
        2: [Local("A"), Local("B"), PairCollective("A", "B")],
        3: [Local(q) for q in "ABC"]
        + [PairCollective(*p) for p in ("AB", "AC", "BC")]
        + [TripleCollective()],
    }
    for size, available in kinds.items():
        for n in (1, 2, 3):
            for chosen in combinations(available, n):
                yield size, chosen


def test_reduced_coherences_are_single_exponentials():
    # every element of every matrix has at most two nonzero terms, they share
    # one exponent bit for bit, and the element's tau is 1 / that exponent
    # exactly, for every class under every set of one to three channel kinds
    rng = np.random.default_rng(13)
    checked = 0
    for size, chosen in _kind_sets():
        rates = rng.uniform(0.1, 10.0, size=len(chosen))
        scenario = NoiseScenario(size, tuple(zip(chosen, rates)), allow_overlap=True)
        exponents = scenario.exponents
        for cls in STATE_TYPES.values():
            if len(cls.register) != size:
                continue
            spec = draw_state(cls.name, rng)
            rho0 = projector(spec).matrix
            report = build_report(spec, scenario)
            register = spec.register
            for label, rows in report.coherence_taus.items():
                keep = tuple(label)
                rest = tuple(q for q in register if q not in keep)
                index = subspace_index(keep, register)
                other = subspace_index(rest, register)
                for key, (a, b) in _upper(1 << len(keep)):
                    terms = [
                        exponents[i, j]
                        for i in np.flatnonzero(index == a)
                        for j in np.flatnonzero(index == b)
                        if other[i] == other[j] and rho0[i, j] != 0
                    ]
                    case = (scenario.label, cls.name, label, key)
                    assert len(terms) <= 2 and len(set(terms)) <= 1, case
                    if rows[key].decays:
                        assert rows[key].tau == 1.0 / terms[0], case
                        checked += 1
    assert checked > 200
    # each term of A's coherence, rho_13 and rho_24, is 8e-14, below the zero
    # floor, while their sum is above it: the terms still give its exponent
    a, d = math.sqrt(8e-14), 8e-14
    spec = STATE_TYPES["generic"](a, math.sqrt(1.0 - 2.0 * a * a - d * d), a, d)
    row = build_report(spec, named_scenario("2q-local-A", 1.0)).coherence_taus["A"]["rho_12"]
    assert row.amplitude > ZERO_FLOOR
    assert row.tau == 2.0


def test_every_paper_class_but_generic_carries_each_pair_in_one_coherence():
    # a pair with a zero population k has C = 2|rho_c|, the carrier c being
    # (00, 11) when k is 01 or 10 and (01, 10) otherwise; dephasing moves no
    # population, so C decays with the carrier's exponent and C**2 twice as fast
    rng = np.random.default_rng(19)
    decaying = 0
    for layout, (size, kinds) in SCENARIO_LAYOUTS.items():
        for cls in ("fragile", "fragile2", "robust", "robust2", "w", "ghz"):
            if len(STATE_TYPES[cls].register) != size:
                continue
            for _ in range(3):
                spec = draw_state(cls, rng)
                scenario = named_scenario(layout, (10.0 ** rng.uniform(-1, 1, len(kinds))).tolist())
                grid = default_grid(scenario)
                report = build_report(spec, scenario)
                stack = reduced_stacks(sample_evolution(spec, scenario, grid), spec.register)
                for label, row in report.concurrence_taus.items():
                    pair = stack[label]
                    zeros = np.flatnonzero(np.diagonal(pair[0]).real == 0)
                    assert zeros.size, (cls, layout, label)
                    c = concurrence_curve(pair)
                    for k in zeros.tolist():
                        (i, j), key = ((0, 3), "rho_14") if k in (1, 2) else ((1, 2), "rho_23")
                        assert np.abs(c - 2.0 * np.abs(pair[:, i, j])).max() <= 2e-15
                    carrier = report.coherence_taus[label][key]
                    assert row.decays == carrier.decays, (cls, layout, label)
                    if row.decays:
                        assert abs(row.tau - carrier.tau) <= 1e-13 * carrier.tau
                        squared = report.concurrence_sq_taus[label].tau
                        assert abs(squared - carrier.tau / 2.0) <= 1e-13 * carrier.tau
                        decaying += 1
    assert decaying > 40


def test_generic_under_collective_noise_never_fails():
    rng = np.random.default_rng(14)
    scenario = named_scenario("2q-collective", 1.0)
    plateaus = 0
    for _ in range(200):
        report = build_report(draw_state("generic", rng), scenario)
        assert audit_inequality(report).overall != "FAIL"
        plateaus += report.concurrence_taus["AB"].limit > ZERO_FLOOR
    assert plateaus > 0


def test_a_crossing_on_a_grid_sample_is_that_sample():
    # robust under local(A) disentangles as exp(-rate t / 2), so its level
    # falls on sample 42 of the default 64 on [0, 3 / rate]
    rng = np.random.default_rng(15)
    for rate in (1.0, math.sqrt(10.0), 0.37):
        scenario = named_scenario("2q-local-A", rate)
        for _ in range(10):
            (pair,) = audit_inequality(build_report(draw_state("robust", rng), scenario)).pairs
            assert pair.verdict == "PASS"
            assert abs(pair.tau_dis - 2.0 / rate) <= 1e-12 * 2.0 / rate


def _crossing_jobs(spec, scenario, grid):
    """Every crossing a report refines, as (pair, level, sampled C), and the tau it reports."""
    report = _report_on(spec, scenario, grid)
    reduced = reduced_stacks(sample_evolution(spec, scenario, grid), spec.register)
    jobs = []
    for power, rows in ((1, report.concurrence_taus), (2, report.concurrence_sq_taus)):
        for label, row in rows.items():
            if row.decays:
                level = (row.limit + (row.amplitude - row.limit) / math.e) ** (1.0 / power)
                jobs.append((tuple(label), level, concurrence_curve(reduced[label]), row.tau))
    return jobs


def test_refining_crossings_together_changes_no_bit(monkeypatch):
    # every crossing of a report refined in one batch has the bits it has when
    # refined alone, whether the jobs need different numbers of steps or the
    # doubling past a short grid
    rng = np.random.default_rng(16)
    cases = list(PAPER_MATRIX) + [("generic", "2q-collective")] * 6
    cases += [(cls, scen) for cls in ("w", "ghz") for scen in SCENARIO_LAYOUTS if scen[0] == "3"]
    steps = []

    def counted(stack):
        steps.append(len(stack))
        return concurrence_curve(stack)

    monkeypatch.setattr(timescales, "concurrence_curve", counted)
    uneven = doubled = 0
    for cls, scen_name in cases:
        scenario = named_scenario(scen_name, float(rng.uniform(0.3, 3.0)))
        spec = draw_state(cls, rng)
        for grid in (default_grid(scenario), TimeGrid(0.3, 8)):
            jobs = _crossing_jobs(spec, scenario, grid)
            if not jobs:
                continue
            pairs, levels, curves, taus = zip(*jobs)
            rho0 = sample_evolution(spec, scenario, grid)[0]
            args = (rho0, scenario)
            together = _crossings(*args, pairs, levels, grid.times, np.stack(curves))
            assert together.tolist() == list(taus), (cls, scen_name, grid)
            counts = []
            for k in range(len(jobs)):
                steps.clear()
                job = (pairs[k : k + 1], levels[k : k + 1], grid.times, curves[k][None])
                alone = _crossings(*args, *job)
                assert alone.tolist() == [taus[k]], (cls, scen_name, grid, pairs[k])
                counts.append(len(steps))
                doubled += not np.any(curves[k] <= levels[k])
            uneven += len(set(counts)) > 1 and len(spec.register) == 3
    assert uneven > 5 and doubled > 5


def _slowest_live_tau(rho0, rho_t, t):
    """Largest 1/rate over the upper elements live in rho0, each rate read from |rho0| and |rho_t|.

    None if no live element decays.
    """
    rates = [
        math.log(abs(rho0[i, j]) / abs(rho_t[i, j])) / t
        for _, (i, j) in _upper(len(rho0))
        if abs(rho0[i, j]) > ZERO_FLOOR
    ]
    decaying = [rate for rate in rates if rate > 1e-9]
    return 1.0 / min(decaying) if decaying else None


def _scale_cases():
    """(spec, scenario, t): the paper matrix and generic/2q-collective at random rates, three
    draws each, then every class under every set of one to three channel kinds at random rates."""
    rng = np.random.default_rng(17)
    for cls, scen_name in PAPER_MATRIX + (("generic", "2q-collective"),):
        for _ in range(3):
            rate = rng.uniform(0.3, 3.0)
            yield draw_state(cls, rng), named_scenario(scen_name, rate), 0.5 / rate
    for size, chosen in _kind_sets():
        rates = rng.uniform(0.3, 3.0, size=len(chosen))
        scenario = NoiseScenario(size, tuple(zip(chosen, rates)), allow_overlap=True)
        for cls in STATE_TYPES.values():
            if len(cls.register) == size:
                yield draw_state(cls.name, rng), scenario, 0.5 / max(rates)


def test_each_pair_is_bounded_by_the_slowest_coherence_of_each_of_its_scales():
    # a pair's scales are the full register, its own reduction (on three
    # qubits) and its two single spins together; each reduced exponent is read
    # from the evolved matrices themselves, not from E or the report
    below_register = 0
    for spec, scenario, t in _scale_cases():
        register = spec.register
        rho0 = projector(spec).matrix
        rho_t = evolve(rho0, scenario, t)

        def slowest(keep):
            return _slowest_live_tau(
                partial_trace(rho0, keep, register), partial_trace(rho_t, keep, register), t
            )

        report = build_report(spec, scenario)
        for pair in audit_inequality(report).pairs:
            scales = [slowest(register)]
            if len(register) == 3:
                scales.append(slowest(tuple(pair.pair)))
            singles = [tau for q in pair.pair if (tau := slowest((q,))) is not None]
            scales.append(max(singles) if singles else None)
            bounds = [tau for tau in scales if tau is not None]
            case = (spec, scenario.label, pair.pair)
            if not report.concurrence_taus[pair.pair].decays or not bounds:
                assert (pair.verdict, pair.tau_bound) == ("VACUOUS", None), case
                continue
            assert abs(pair.tau_bound - min(bounds)) <= 1e-9 * min(bounds), case
            below_register += min(bounds) < scales[0] * (1.0 - 1e-9)
    assert below_register > 5
