import dataclasses
import itertools
import math

import numpy as np
import pytest

from dephasim.channels import (
    KrausSet,
    Local,
    NoiseScenario,
    PairCollective,
    TripleCollective,
    apply_kraus,
    evolve,
    gamma,
    kraus_for,
    omega_factors,
    verify_completeness,
)
from dephasim.montecarlo import TrajectoryConfig, compare_to_channel
from dephasim.states import DensityMatrix, analytic_factors, projector
from dephasim.presets import draw_state, named_scenario
from dephasim.timescales import audit_inequality, build_report


def random_density(rng, n_qubits):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_scenario(rng):
    """Disjoint-support scenario with random channels and rates."""
    n = int(rng.choice([2, 3]))
    labels = list("ABC"[:n])
    rng.shuffle(labels)
    channels = []
    while labels:
        take = int(rng.integers(1, len(labels) + 1))
        group, labels = labels[:take], labels[take:]
        rate = float(rng.uniform(0.2, 3.0))
        if len(group) == 1:
            channels.append((Local(group[0]), rate))
        elif len(group) == 2:
            channels.append((PairCollective(group[0], group[1]), rate))
        else:
            channels.append((TripleCollective(), rate))
    return NoiseScenario(n, tuple(channels))


def test_gamma_values():
    assert gamma(1.0, 0.0) == 1.0
    assert abs(gamma(1.0, 2.0) - math.exp(-1.0)) < 1e-15
    assert gamma(0.0, 5.0) == 1.0
    with pytest.raises(ValueError):
        gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        gamma(1.0, -0.1)


def test_omega_factors_limits():
    assert omega_factors(1.0, 0.0) == (0.0, 0.0, 0.0)
    w1, w2, w3 = omega_factors(1.0, 500.0)  # decay factor ~ 0
    assert abs(w1 - 1.0) < 1e-12 and abs(w2) < 1e-12 and abs(w3 - 1.0) < 1e-12


def test_omega_factors_closed_form():
    # at rate=1, t=1 the decay factor is e^(-1/2)
    w1, w2, w3 = omega_factors(1.0, 1.0)
    g2 = math.exp(-1.0)
    assert abs(w1 - math.sqrt(1 - g2)) < 1e-15          # 0.7950600976206501
    assert abs(w2 - (-g2 * math.sqrt(1 - g2))) < 1e-15  # -0.29248626441039716
    assert abs(w3 - math.sqrt((1 - g2) * (1 - g2 * g2))) < 1e-15  # 0.7393053117351511


def test_local_kraus_structure_three_qubits():
    g = gamma(0.8, 1.3)
    ks = kraus_for(Local("A"), 3, 0.8, 1.3)
    assert np.allclose(ks.operators[0], [1, 1, 1, 1, g, g, g, g])
    w = math.sqrt(1 - g * g)
    assert np.allclose(ks.operators[1], [0, 0, 0, 0, w, w, w, w])


def test_local_kraus_identity_at_t_zero():
    ks = kraus_for(Local("B"), 2, 1.0, 0.0)
    assert np.array_equal(ks.operators[0], np.ones(4))
    assert np.max(np.abs(ks.operators[1])) == 0.0


def test_local_kraus_scales_corner_coherence():
    v = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = np.outer(v, v.conj())
    out = apply_kraus(rho, kraus_for(Local("A"), 2, 1.0, 1.0))
    g = gamma(1.0, 1.0)
    assert abs(out[0, 3] - rho[0, 3] * g) < 1e-15
    assert abs(out[0, 0] - rho[0, 0]) < 1e-15


def test_local_kraus_rejects_outside_register():
    with pytest.raises(ValueError, match="outside the 2-qubit register"):
        kraus_for(Local("C"), 2, 1.0, 1.0)


def test_pair_kraus_matches_printed_two_qubit_operators():
    rate, t = 1.0, 0.7
    g = gamma(rate, t)
    w1, w2, w3 = omega_factors(rate, t)
    ks = kraus_for(PairCollective("A", "B"), 2, rate, t)
    assert np.allclose(ks.operators, [[g, 1.0, 1.0, g], [w1, 0.0, 0.0, w2], [0.0, 0.0, 0.0, w3]])


def test_pair_kraus_element_scalings():
    rate, t = 1.0, 0.9
    g = gamma(rate, t)
    rho = np.full((4, 4), 0.25, dtype=complex)
    out = apply_kraus(rho, kraus_for(PairCollective("A", "B"), 2, rate, t))
    # |++><--| gains the net g^4 factor, |+-><-+| is untouched
    assert abs(out[0, 3] - 0.25 * g**4) < 1e-15
    assert abs(out[1, 2] - 0.25) < 1e-15
    assert abs(out[0, 1] - 0.25 * g) < 1e-15


def test_pair_kraus_non_adjacent_embedding():
    rate, t = 1.0, 0.5
    g = gamma(rate, t)
    ks = kraus_for(PairCollective("A", "C"), 3, rate, t)
    # pair subspace values by (bit A, bit C): indices 0..7 -> 00,01,00,01,10,11,10,11
    assert np.allclose(ks.operators[0], [g, 1, g, 1, 1, g, 1, g])
    assert verify_completeness(ks) < 1e-12


def test_triple_kraus_structure_and_identity():
    rate, t = 0.7, 1.1
    g = gamma(rate, t)
    w1, w2, w3 = omega_factors(rate, t)
    ks = kraus_for(TripleCollective(), 3, rate, t)
    assert np.allclose(ks.operators[0], [g, 1, 1, 1, 1, 1, 1, g])
    assert np.allclose(ks.operators[1], [w1, 0, 0, 0, 0, 0, 0, w2])
    assert np.allclose(ks.operators[2], [0, 0, 0, 0, 0, 0, 0, w3])
    identity = kraus_for(TripleCollective(), 3, 1.0, 0.0)
    assert np.array_equal(identity.operators[0], np.ones(8))


def test_triple_kraus_corner_coherence_gets_g4():
    rate, t = 1.0, 0.8
    g = gamma(rate, t)
    rho = projector(draw_state("ghz", np.random.default_rng(0))).matrix
    out = apply_kraus(rho, kraus_for(TripleCollective(), 3, rate, t))
    assert abs(out[0, 7] - rho[0, 7] * g**4) < 1e-15


def test_triple_kraus_leaves_w_support_untouched():
    rho = projector(draw_state("w", np.random.default_rng(1))).matrix
    out = apply_kraus(rho, kraus_for(TripleCollective(), 3, 1.0, 2.0))
    assert np.max(np.abs(out - rho)) < 1e-15


def test_verify_completeness_identity_and_builders():
    assert verify_completeness(KrausSet(np.ones((1, 4)))) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        rate = float(rng.uniform(0.1, 4.0))
        t = float(rng.uniform(0.0, 4.0))
        for kind, register_size in (
            (Local("A"), 3),
            (PairCollective("B", "C"), 3),
            (TripleCollective(), 3),
            (PairCollective("A", "B"), 2),
        ):
            assert verify_completeness(kraus_for(kind, register_size, rate, t)) <= 1e-12


def test_verify_completeness_detects_missing_operator():
    rate, t = 1.0, 1.0
    g = gamma(rate, t)
    full = kraus_for(TripleCollective(), 3, rate, t)
    truncated = KrausSet(full.operators[:2])
    expected = (1 - g**2) * (1 - g**4)
    assert abs(verify_completeness(truncated) - expected) < 1e-12


def test_apply_kraus_identity_set():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    out = apply_kraus(rho, KrausSet(np.ones((1, 4))))
    assert np.max(np.abs(out - rho)) < 1e-15


def test_apply_kraus_preserves_diagonal_input():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = apply_kraus(rho, kraus_for(PairCollective("A", "B"), 2, 1.0, 1.0))
    assert np.max(np.abs(out - rho)) < 1e-15


def test_apply_kraus_reproduces_collective_fragile_pattern():
    rng = np.random.default_rng(4)
    spec = draw_state("fragile", rng)
    rho = projector(spec).matrix
    t = 1.4
    g = gamma(1.0, t)
    out = apply_kraus(rho, kraus_for(PairCollective("A", "B"), 2, 1.0, t))
    expected = rho * np.array(
        [
            [1, g, g, g**4],
            [g, 1, 1, g],
            [g, 1, 1, g],
            [g**4, g, g, 1],
        ]
    )
    assert np.max(np.abs(out - expected)) < 1e-15


def test_apply_kraus_refuses_incomplete_set():
    bad = KrausSet([[1.0, 0.5, 0.5, 1.0]])
    with pytest.raises(ValueError, match="completeness"):
        apply_kraus(np.eye(4) / 4, bad)


def test_apply_kraus_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_kraus(np.eye(8) / 8, KrausSet(np.ones((1, 4))))


#: every channel kind with each register size it fits in
KINDS_ON_REGISTERS = [
    (Local("A"), 2), (Local("B"), 2), (PairCollective("A", "B"), 2),
    (Local("A"), 3), (Local("B"), 3), (Local("C"), 3),
    (PairCollective("A", "B"), 3), (PairCollective("A", "C"), 3), (PairCollective("B", "C"), 3),
    (TripleCollective(), 3),
]


@pytest.mark.parametrize("kind, register_size", KINDS_ON_REGISTERS)
def test_apply_kraus_matches_the_literal_operator_sum(kind, register_size):
    # the dense reference: each operator as the matrix diag(d), summed as K rho K^T
    rng = np.random.default_rng(15)
    dim = 1 << register_size
    for _ in range(10):
        rate, t = float(rng.uniform(0.01, 5.0)), float(rng.uniform(0.0, 5.0))
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ks = kraus_for(kind, register_size, rate, t)
        literal = sum(np.diag(d) @ rho @ np.diag(d).T for d in ks.operators)
        assert np.max(np.abs(apply_kraus(rho, ks) - literal)) <= 1e-15


def test_dagger_convention_equivalence():
    # for these real diagonal operators, sum K rho K^dag equals sum K^dag rho K
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    for kind in (Local("B"), PairCollective("A", "C"), TripleCollective()):
        ks = kraus_for(kind, 3, 1.2, 0.9)
        dense = [np.diag(d) for d in ks.operators]
        left = sum(k @ rho @ k.conj().T for k in dense)
        right = sum(k.conj().T @ rho @ k for k in dense)
        assert np.max(np.abs(left - right)) < 1e-15


@pytest.mark.parametrize("operators", [np.ones(4), np.ones((1, 4, 4)), 1.0])
def test_kraus_set_refuses_anything_but_a_2d_array(operators):
    with pytest.raises(ValueError, match=r"\(k, dim\) array of diagonals"):
        KrausSet(operators)


def random_kind(rng, register_size):
    labels = list("ABC"[:register_size])
    shape = int(rng.integers(0, 3 if register_size == 3 else 2))
    if shape == 0:
        return Local(str(rng.choice(labels)))
    if shape == 1:
        first, second = rng.choice(labels, size=2, replace=False)
        return PairCollective(str(first), str(second))
    return TripleCollective()


def random_wide_scenario(rng, allow_overlap):
    """Random channels with log-uniform rates in [1e-3, 1e3]; overlapping if allowed."""
    if not allow_overlap:
        scenario = random_scenario(rng)
        kinds = [kind for kind, _ in scenario.channels]
        n = scenario.register_size
    else:
        n = int(rng.choice([2, 3]))
        kinds = [random_kind(rng, n) for _ in range(int(rng.integers(2, 5)))]
    rates = 10.0 ** rng.uniform(-3.0, 3.0, size=len(kinds))
    return NoiseScenario(n, tuple(zip(kinds, rates)), allow_overlap=allow_overlap)


def test_evolve_matches_sequential_kraus_at_wide_rates():
    rng = np.random.default_rng(13)
    for trial in range(60):
        scenario = random_wide_scenario(rng, allow_overlap=trial % 2 == 1)
        rho = random_density(rng, scenario.register_size)
        t_max = 3.0 / scenario.min_rate
        # the grid ends, random times, and each channel's own e-folding scale
        e_folds = [1.0 / rate for _, rate in scenario.channels]
        for t in (0.0, t_max, *rng.uniform(0.0, t_max, size=4), *e_folds):
            sequential = rho
            for kind, rate in scenario.channels:
                sequential = apply_kraus(sequential, kraus_for(kind, scenario.register_size, rate, t))
            assert np.max(np.abs(evolve(rho, scenario, t) - sequential)) <= 1e-12, (scenario, t)


def test_exponents_finite_and_zero_for_idle_channels():
    rng = np.random.default_rng(14)
    for trial in range(60):
        scenario = random_wide_scenario(rng, allow_overlap=trial % 2 == 1)
        exponents = scenario.exponents
        assert np.all(np.isfinite(exponents)) and np.min(exponents) >= 0.0
        assert np.all(np.diag(exponents) == 0.0)
        idle = NoiseScenario(
            scenario.register_size,
            tuple((kind, 0.0) for kind, _ in scenario.channels),
            allow_overlap=scenario.allow_overlap,
        )
        assert np.all(idle.exponents == 0.0)
    # a rate-0 channel leaves the exponents of the others unchanged
    busy = ((Local("A"), 37.0), (PairCollective("B", "C"), 0.1))
    with_idle = NoiseScenario(3, busy + ((TripleCollective(), 0.0),), allow_overlap=True)
    assert np.array_equal(with_idle.exponents, NoiseScenario(3, busy).exponents)


def test_exponents_of_the_paper_channels():
    # coherence decays at rate/2 per flipped local qubit; the collective
    # corners |0..0><1..1| at 2 rate, the singlet-like |01><10| not at all
    assert np.array_equal(
        NoiseScenario(2, ((Local("A"), 3.0),)).exponents,
        np.array([[0, 0, 1.5, 1.5], [0, 0, 1.5, 1.5], [1.5, 1.5, 0, 0], [1.5, 1.5, 0, 0]]),
    )
    pair = NoiseScenario(2, ((PairCollective("A", "B"), 1.0),)).exponents
    expected = [[0, 0.5, 0.5, 2], [0.5, 0, 0, 0.5], [0.5, 0, 0, 0.5], [2, 0.5, 0.5, 0]]
    assert np.allclose(pair, expected, rtol=1e-15, atol=0)
    assert pair[1, 2] == 0.0
    triple = NoiseScenario(3, ((TripleCollective(), 1.0),)).exponents
    assert abs(triple[0, 7] - 2.0) < 1e-15 and triple[1, 2] == triple[3, 5] == 0.0


def test_exponents_are_built_once_per_scenario(monkeypatch):
    builds = []

    def counted(*args):
        builds.append(args)
        return kraus_for(*args)

    monkeypatch.setattr("dephasim.channels.kraus_for", counted)
    busy = ((Local("A"), 2.0), (PairCollective("B", "C"), 0.5), (TripleCollective(), 0.0))
    scenario = NoiseScenario(3, busy, allow_overlap=True)
    unread_hash = hash(scenario)
    spec = draw_state("w", np.random.default_rng(3))
    audit_inequality(build_report(spec, scenario))
    for t in (0.0, 0.1, 0.5, 1.0, 4.0):
        evolve(projector(spec), scenario, t)
    compare_to_channel(spec, scenario, TrajectoryConfig(50, 1, 0.5))
    assert len(builds) == 2  # the channels with a nonzero rate

    with pytest.raises(ValueError, match="read-only"):
        scenario.exponents[0, 1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.exponents = np.zeros((8, 8))
    fresh = NoiseScenario(3, busy, allow_overlap=True)
    assert fresh == scenario and hash(fresh) == hash(scenario) == unread_hash
    assert fresh.exponents.tobytes() == scenario.exponents.tobytes()
    assert len(builds) == 4


def test_evolve_identity_at_t_zero():
    rng = np.random.default_rng(6)
    scenario = named_scenario("3q-local-A-pair-BC", 1.0)
    rho = random_density(rng, 3)
    assert np.max(np.abs(evolve(rho, scenario, 0.0) - rho)) < 1e-15


def test_evolve_of_a_stack_is_each_matrix_evolved_alone():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 2.0, 5)
    for _ in range(5):
        scenario = random_scenario(rng)
        stack = np.stack([random_density(rng, scenario.register_size) for _ in range(4)])
        out = evolve(stack[:, None], scenario, times[:, None, None])
        assert out.shape == (4, 5, *stack.shape[1:])
        for rho, evolved in zip(stack, out):
            assert np.array_equal(evolved, evolve(rho, scenario, times[:, None, None]))
            for t, slice_ in zip(times, evolved):
                assert np.array_equal(slice_, evolve(rho, scenario, t))


def test_evolve_refuses_a_stacked_density_matrix():
    scenario = named_scenario("2q-collective", 1.0)
    rho = DensityMatrix(np.eye(4) / 4, ("A", "B"))
    object.__setattr__(rho, "matrix", np.stack([rho.matrix, rho.matrix]))
    with pytest.raises(ValueError, match=r"state of shape \(2, 4, 4\)"):
        evolve(rho, scenario, 0.5)
    times = np.array([0.5, 1.0])[:, None, None]
    with pytest.raises(ValueError, match="does not match register"):
        evolve(DensityMatrix(np.eye(4) / 4, ("A", "B")), scenario, times)


@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf, -0.5, np.array([0.0, 1.0, math.inf])])
def test_evolve_refuses_a_non_finite_or_negative_time(t):
    scenario = named_scenario("3q-local-A", 1.0)
    rho = projector(draw_state("w", np.random.default_rng(3)))
    for state in (rho, rho.matrix, np.stack([rho.matrix] * 3)):
        with pytest.raises(ValueError, match="^time must be finite and nonnegative, got"):
            evolve(state, scenario, t)


@pytest.mark.parametrize(
    "rate, t, name",
    [
        (1.0, math.nan, "time"),
        (1.0, math.inf, "time"),
        (1.0, -math.inf, "time"),
        (math.nan, 1.0, "rate"),
        (math.inf, 0.0, "rate"),
    ],
)
def test_channel_factors_refuse_a_non_finite_time_or_rate(rate, t, name):
    message = f"^{name} must be finite and nonnegative, got"
    with pytest.raises(ValueError, match=message):
        gamma(rate, t)
    with pytest.raises(ValueError, match=message):
        omega_factors(rate, t)
    with pytest.raises(ValueError, match=message):
        apply_kraus(np.eye(4) / 4, kraus_for(Local("A"), 2, rate, t))


@pytest.mark.parametrize("times", [[math.nan], [0.0, math.inf]])
def test_analytic_factors_refuse_a_non_finite_time(times):
    scenario = NoiseScenario(2, ((Local("A"), 1.0),))
    with pytest.raises(ValueError, match="^time must be finite and nonnegative, got"):
        analytic_factors(scenario, ("A", "B"), times)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_apply_kraus_refuses_a_non_finite_kraus_set(bad):
    ks = KrausSet(np.array([[1.0, 1.0, bad, 1.0], [0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="^Kraus set violates completeness by"):
        apply_kraus(np.eye(4) / 4, ks)


def test_evolve_w_under_local_matches_decay_pattern():
    rng = np.random.default_rng(7)
    spec = draw_state("w", rng)
    rho = projector(spec).matrix
    t = 1.2
    g = gamma(1.0, t)
    out = evolve(rho, named_scenario("3q-local-A", 1.0), t)
    assert abs(out[1, 2] - rho[1, 2]) < 1e-15          # |001><010| untouched
    assert abs(out[1, 4] - rho[1, 4] * g) < 1e-15      # |001><100| decays
    assert abs(out[2, 4] - rho[2, 4] * g) < 1e-15


def test_evolve_mixed_scenario_factors_multiply():
    rng = np.random.default_rng(8)
    spec = draw_state("w", rng)
    rho = projector(spec).matrix
    t = 0.9
    scenario = NoiseScenario(3, ((Local("A"), 1.0), (PairCollective("B", "C"), 2.0)))
    out = evolve(rho, scenario, t)
    factor = gamma(1.0, t) * gamma(2.0, t)
    assert abs(out[1, 4] - rho[1, 4] * factor) < 1e-15
    assert abs(out[1, 2] - rho[1, 2]) < 1e-15


def test_evolve_invariants_random_scenarios():
    rng = np.random.default_rng(9)
    for _ in range(15):
        scenario = random_scenario(rng)
        rho = random_density(rng, scenario.register_size)
        t = float(rng.uniform(0.0, 3.0))
        out = evolve(rho, scenario, t)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10
        assert np.max(np.abs(np.diag(out) - np.diag(rho))) < 1e-12


def test_evolve_semigroup_property():
    rng = np.random.default_rng(10)
    for _ in range(8):
        scenario = random_scenario(rng)
        rho = random_density(rng, scenario.register_size)
        t1, t2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        twice = evolve(evolve(rho, scenario, t1), scenario, t2)
        once = evolve(rho, scenario, t1 + t2)
        assert np.max(np.abs(twice - once)) < 1e-12


def test_evolve_order_independence():
    rng = np.random.default_rng(11)
    channels = ((Local("A"), 0.5), (Local("B"), 1.5), (Local("C"), 2.5))
    rho = random_density(rng, 3)
    t = 0.8
    results = [
        evolve(rho, NoiseScenario(3, perm), t) for perm in itertools.permutations(channels)
    ]
    for other in results[1:]:
        assert np.max(np.abs(results[0] - other)) < 1e-12


def test_offdiagonals_decay_monotonically():
    rng = np.random.default_rng(12)
    for _ in range(6):
        scenario = random_scenario(rng)
        rho = random_density(rng, scenario.register_size)
        times = np.linspace(0.0, 4.0, 30)
        mags = np.stack([np.abs(evolve(rho, scenario, t)) for t in times])
        assert np.all(np.diff(mags, axis=0) <= 1e-12)


def test_scenario_rejects_overlapping_support():
    with pytest.raises(ValueError):
        NoiseScenario(3, ((Local("A"), 1.0), (PairCollective("A", "B"), 1.0)))
    # explicit override allows it
    scenario = NoiseScenario(
        3, ((Local("A"), 1.0), (PairCollective("A", "B"), 1.0)), allow_overlap=True
    )
    assert scenario.allow_overlap


def test_scenario_rejects_support_outside_register():
    with pytest.raises(ValueError):
        NoiseScenario(2, ((TripleCollective(), 1.0),))
    with pytest.raises(ValueError):
        NoiseScenario(2, ((Local("C"), 1.0),))


@pytest.mark.parametrize("rate", [-1.0, 1e-101, 1e101, 1e308, math.nan, math.inf])
def test_scenario_rejects_rates_outside_the_scale_range(rate):
    with pytest.raises(ValueError, match=r"^channel rate must be 0 or in \[1e-100, 1e\+100\]"):
        NoiseScenario(2, ((Local("A"), rate),))


def test_scenario_accepts_idle_channels_and_the_range_ends():
    for rate in (0.0, 1e-100, 1e100):
        assert NoiseScenario(2, ((Local("A"), rate),)).channels[0][1] == rate


def test_pair_channel_canonicalizes_order():
    assert PairCollective("C", "A") == PairCollective("A", "C")
    with pytest.raises(ValueError):
        PairCollective("A", "A")


def test_kraus_for_dispatch():
    assert kraus_for(Local("A"), 2, 1.0, 1.0).dim == 4
    assert kraus_for(PairCollective("B", "C"), 3, 1.0, 1.0).dim == 8
    assert kraus_for(TripleCollective(), 3, 1.0, 1.0).dim == 8


@pytest.mark.parametrize("kind", [PairCollective("A", "C"), TripleCollective()])
def test_kraus_for_refuses_a_collective_support_outside_the_register(kind):
    with pytest.raises(ValueError, match="outside the 2-qubit register"):
        kraus_for(kind, 2, 1.0, 1.0)


def test_kraus_for_refuses_an_unknown_kind():
    with pytest.raises(TypeError, match="unknown channel kind"):
        kraus_for(("A",), 2, 1.0, 1.0)
