import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from dephasim import montecarlo
from dephasim.channels import (
    Local,
    NoiseScenario,
    PairCollective,
    TripleCollective,
    charges,
    gamma,
)
from dephasim.montecarlo import (
    ALPHA,
    BLOCK,
    TrajectoryConfig,
    compare_to_channel,
    simulate_statistics,
)
from dephasim.linalg import subspace_index
from dephasim.presets import draw_state, named_scenario
from dephasim.states import Fragile, GenericPure, GHZState, projector

PLUS = np.full((2, 2), 0.5, dtype=complex)


def exact_se(rho_ij: complex, s2: float, n: int) -> tuple[float, float]:
    """Standard errors of Re and Im of an n-trajectory mean of rho_ij e^(i Delta), Delta ~ N(0, s2)."""
    mod2, phi = abs(rho_ij) ** 2, np.angle(rho_ij)
    var_re = mod2 * ((1 + math.exp(-2 * s2) * math.cos(2 * phi)) / 2 - math.exp(-s2) * math.cos(phi) ** 2)
    var_im = mod2 * ((1 - math.exp(-2 * s2) * math.cos(2 * phi)) / 2 - math.exp(-s2) * math.sin(phi) ** 2)
    return math.sqrt(var_re / n), math.sqrt(var_im / n)


def binomial_bound(trials: int, p: float, tail: float = 1e-3) -> int:
    """Smallest b with P(X > b) <= tail for X ~ Binomial(trials, p)."""
    cdf, b = 0.0, -1
    while 1.0 - cdf > tail:
        b += 1
        cdf += math.comb(trials, b) * p**b * (1 - p) ** (trials - b)
    return b


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(0, 1, 1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 1, 0.0)


def test_config_size_bounds():
    TrajectoryConfig(10_000_000, 1, 1.0)  # the largest run accepted
    with pytest.raises(ValueError, match=r"^n_trajectories must be in \[1, 10000000\]"):
        TrajectoryConfig(10_000_001, 1, 1.0)


@pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
def test_negative_or_non_finite_rate_is_rejected(rate):
    cfg = TrajectoryConfig(10, 1, 1.0)
    with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
        simulate_statistics(PLUS, ((Local("A"), rate),), cfg)


def test_zero_fields_returns_input_exactly():
    rho = projector(GenericPure(0.5, 0.5, 0.5, 0.5))
    cfg = TrajectoryConfig(50, 123, 1.0)
    assert np.array_equal(simulate_statistics(rho, (), cfg), rho.matrix)


def test_single_qubit_coherence_decays_to_gamma():
    # |+><+| under a single local field: coherence shrinks by e^(-rate t / 2)
    cfg = TrajectoryConfig(20_000, 7, 1.0)
    mean = simulate_statistics(PLUS, ((Local("A"), 1.0),), cfg)
    expected = 0.5 * gamma(1.0, 1.0)  # 0.5 * e^(-1/2)
    se_re, se_im = exact_se(0.5, 1.0, cfg.n_trajectories)  # phase variance rate * t
    assert abs(mean[0, 1].real - expected) < 4 * se_re
    assert abs(mean[0, 1].imag) < 4 * se_im


def test_diagonal_is_preserved_exactly():
    rng = np.random.default_rng(3)
    spec = draw_state("generic", rng)
    rho = projector(spec)
    cfg = TrajectoryConfig(200, 5, 0.7)
    mean = simulate_statistics(rho, named_scenario("2q-collective", 1.0).channels, cfg)
    assert np.array_equal(np.diag(mean), np.diag(rho.matrix))


def test_same_seed_is_bit_identical():
    spec = Fragile(0.6, 0.5, math.sqrt(1 - 0.61))
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(500, 42, 1.0)
    a = simulate_statistics(projector(spec).matrix, fields, cfg)
    b = simulate_statistics(projector(spec).matrix, fields, cfg)
    assert np.array_equal(a, b)
    c = simulate_statistics(projector(spec).matrix, fields, TrajectoryConfig(500, 43, 1.0))
    assert not np.array_equal(a, c)


def test_same_seed_is_bit_identical_across_blocks():
    # one trajectory past a block: the last block holds a single trajectory
    rho0 = projector(Fragile(0.6, 0.5, math.sqrt(1 - 0.61))).matrix
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(BLOCK + 1, 42, 1.0)
    a = simulate_statistics(rho0, fields, cfg)
    b = simulate_statistics(rho0, fields, cfg)
    assert np.array_equal(a, b)
    shorter = simulate_statistics(rho0, fields, TrajectoryConfig(BLOCK, 42, 1.0))
    assert not np.array_equal(a, shorter)


def test_a_weak_field_keeps_its_phase_beside_a_strong_one():
    # local(B) at 2.6e43 randomises every coherence that flips B, and cancels
    # on those that flip only A, where local(A)'s phase alone must survive:
    # a difference of per-state phase sums rounded it away (max_z 61.6)
    spec = draw_state("fragile2", np.random.default_rng(5))
    scenario = NoiseScenario(2, ((Local("A"), 8.1e3), (Local("B"), 2.6e43)))
    cmp_ = compare_to_channel(spec, scenario, TrajectoryConfig(2000, 27, 1.0))
    assert cmp_.passed, cmp_.max_z


def test_fragment_pattern_under_pair_collective():
    spec = Fragile(0.6, 0.5, math.sqrt(1 - 0.61))
    rho0 = projector(spec).matrix
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(20_000, 9, 1.0)
    mean = simulate_statistics(rho0, fields, cfg)
    g = gamma(1.0, 1.0)
    for (i, j), power in (((0, 3), 4), ((0, 1), 1), ((1, 3), 1)):
        # g^power = e^(-power t / 2) is the mean of e^(i Delta) with Var Delta = power
        se = math.hypot(*exact_se(rho0[i, j], power, cfg.n_trajectories))
        assert abs(mean[i, j] - rho0[i, j] * g**power) <= 4 * se, (i, j)
    assert mean[1, 2] == 0.0  # robust slot of the projector stays empty


def test_support_outside_register_is_rejected():
    cfg = TrajectoryConfig(10, 1, 1.0)
    with pytest.raises(ValueError, match="support"):
        simulate_statistics(PLUS, ((PairCollective("A", "B"), 1.0),), cfg)


def test_compare_local_channel_passes():
    cfg = TrajectoryConfig(10_000, 20260810, 1.0)
    cmp_ = compare_to_channel(
        GenericPure(0.5, 0.5, 0.5, 0.5), named_scenario("2q-local-A", 1.0), cfg
    )
    assert cmp_.distance < 5 * cmp_.expected_distance
    assert cmp_.max_z <= cmp_.z_limit < 4.0
    assert cmp_.passed


def ghz_triple_case(n: int = 2000):
    """GHZ under the triple-collective field at unit rate, and its run at t = 1."""
    return (
        GHZState(2**-0.5, 2**-0.5),
        named_scenario("3q-collective", 1.0),
        TrajectoryConfig(n, 4, 1.0),
    )


def test_compare_triple_collective_passes():
    cmp_ = compare_to_channel(*ghz_triple_case())
    assert cmp_.passed, cmp_.max_z
    assert cmp_.max_z <= cmp_.z_limit < 4.0


def test_compare_triple_collective_corner_decays_by_e_minus_2():
    cmp_ = compare_to_channel(*ghz_triple_case())
    # charges +1 on |000> and -1 on |111>: rho_18 turns by 2 phases, so decays by e^(-2)
    assert cmp_.channel_matrix[0, 7] == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)
    # the trajectory mean lands on the same corner, not on the old e^(-9/2)
    se = math.hypot(*exact_se(0.5, 4, cmp_.n_trajectories))
    assert abs(cmp_.mc_mean[0, 7] - cmp_.channel_matrix[0, 7]) <= 4 * se


def _kind_multisets(size: int) -> list[tuple]:
    """Every multiset of one to three channel kinds on `size` qubits, overlapping or not."""
    register = "ABC"[:size]
    kinds = [Local(q) for q in register] + [PairCollective(*p) for p in combinations(register, 2)]
    kinds += [TripleCollective()] * (size == 3)
    return [chosen for n in (1, 2, 3) for chosen in combinations_with_replacement(kinds, n)]


def _disjoint(layout: tuple) -> bool:
    qubits = [q for kind in layout for q in kind.support]
    return len(qubits) == len(set(qubits))


def test_charges_give_the_exponent_matrix_bit_for_bit():
    # sum_f rate_f (h_fi - h_fj)^2 / 2 over the fields' charges is E, built from
    # the Kraus diagonals, for disjoint and overlapping supports alike
    rng = np.random.default_rng(37)
    layouts = [(size, layout) for size in (2, 3) for layout in _kind_multisets(size)]
    assert len(layouts) == 138
    assert len([layout for _, layout in layouts if _disjoint(layout)]) == 18
    for size, layout in layouts:
        # 20 draws of each disjoint layout, 4 of each overlapping one: 840 scenarios
        for _ in range(20 if _disjoint(layout) else 4):
            rates = np.exp(rng.uniform(-3.0, 3.0, len(layout)))
            scenario = NoiseScenario(size, tuple(zip(layout, rates)))
            exponents = np.zeros((1 << size, 1 << size))
            for kind, rate in scenario.channels:
                h = charges(kind, scenario.register)
                exponents += rate * np.subtract.outer(h, h) ** 2 / 2.0
            assert np.array_equal(exponents, scenario.exponents), scenario.label


def test_convergence_scales_as_inverse_sqrt_n():
    spec = GenericPure(0.5, 0.5, 0.5, 0.5)
    scenario = named_scenario("2q-local-A", 1.0)
    scaled = []
    for n in (100, 1000):
        distances = []
        for seed in (101, 202, 303):
            cfg = TrajectoryConfig(n, seed, 1.0)
            distances.append(compare_to_channel(spec, scenario, cfg).distance)
        scaled.append(np.mean(distances) * math.sqrt(n))
    assert max(scaled) / min(scaled) < 3.0


def w_case(seed: int, n: int):
    """A seeded W state under local(A) + pair(BC) at unit rate, and its run at t = 1."""
    spec = draw_state("w", np.random.default_rng(seed))
    return spec, named_scenario("3q-local-A-pair-BC", 1.0), TrajectoryConfig(n, seed, 1.0)


def test_z_scores_use_the_exact_null_variance():
    spec, scenario, cfg = w_case(1, 2000)
    cmp_ = compare_to_channel(spec, scenario, cfg)
    rho0 = projector(spec).matrix
    exponents = scenario.exponents
    dev = cmp_.mc_mean - cmp_.channel_matrix
    live, total_var = 0, 0.0
    for i, j in zip(*np.triu_indices(8, 1)):
        if exponents[i, j] == 0 or rho0[i, j] == 0:
            # a coherence that is absent or does not decay does not move either
            assert cmp_.z_scores[i, j] == 0.0, (i, j)
            continue
        se_re, se_im = exact_se(rho0[i, j], 2 * cfg.t_final * exponents[i, j], cfg.n_trajectories)
        z = max(abs(dev[i, j].real) / se_re, abs(dev[i, j].imag) / se_im)
        live += 2
        total_var += se_re**2 + se_im**2
        assert cmp_.z_scores[i, j] == pytest.approx(z, rel=1e-9), (i, j)
    # rho_23 sits in pair(BC)'s decoherence-free subspace; rho_25 and rho_35 decay
    assert live == 4
    assert cmp_.z_limit == pytest.approx(3.6623, abs=1e-4)  # Phi^-1(1 - ALPHA / (2 * 4))
    assert cmp_.expected_distance == pytest.approx(math.sqrt(2 * total_var), rel=1e-9)


def test_z_limit_is_below_four_for_every_class():
    # the most live components any class has is 12 (generic: six coherences)
    for cls in ("fragile", "fragile2", "robust", "robust2", "generic", "w", "ghz"):
        spec = draw_state(cls, np.random.default_rng(0))
        size = len(spec.register)
        scenario = named_scenario("2q-multi-local" if size == 2 else "3q-multi-local", 1.0)
        cmp_ = compare_to_channel(spec, scenario, TrajectoryConfig(10, 1, 1.0))
        assert cmp_.z_limit <= 3.9347, cls


def test_an_idle_triple_field_beside_a_local_one_passes():
    # a triple-collective field at rate 0 changes neither route
    cfg = TrajectoryConfig(100, 1, 1.0)
    ghz = GHZState(2**-0.5, 2**-0.5)
    idle = NoiseScenario(3, ((TripleCollective(), 0.0), (Local("A"), 1.0)))
    assert compare_to_channel(ghz, idle, cfg).passed
    overlapping = NoiseScenario(2, ((Local("A"), 1.0), (PairCollective("A", "B"), 0.5)))
    assert compare_to_channel(GenericPure(0.5, 0.5, 0.5, 0.5), overlapping, cfg).passed


def _at_scaled_rates(monkeypatch, factor: float) -> None:
    """Run every Monte Carlo ensemble at `factor` times the scenario's rates."""
    real = montecarlo.simulate_statistics
    monkeypatch.setattr(
        montecarlo,
        "simulate_statistics",
        lambda rho0, fields, cfg: real(rho0, [(kind, rate * factor) for kind, rate in fields], cfg),
    )


@pytest.mark.parametrize("factor", [1.1, 0.9])
def test_power_against_a_ten_percent_rate_error(monkeypatch, factor):
    _at_scaled_rates(monkeypatch, factor)
    cmp_ = compare_to_channel(*w_case(1, 10_000))
    assert not cmp_.passed
    assert cmp_.max_z > 5.0


def test_power_on_the_criterion_09_config(monkeypatch):
    _at_scaled_rates(monkeypatch, 1.1)
    cfg = TrajectoryConfig(10_000, 20260810, 1.0)
    cmp_ = compare_to_channel(GenericPure(0.5, 0.5, 0.5, 0.5), named_scenario("2q-local-A", 1.0), cfg)
    assert not cmp_.passed


def test_power_against_half_sigma_z_charges_on_the_triple(monkeypatch):
    # half the sigma_z sum, +-3/2 on the corners, decays rho_18 by e^(-9/2), not e^(-2)
    def half_sz_sum(kind, register):
        return 0.5 * sum(1.0 - 2.0 * subspace_index((q,), register) for q in kind.support)

    monkeypatch.setattr(montecarlo, "charges", half_sz_sum)
    assert not compare_to_channel(*ghz_triple_case()).passed


def test_false_alarms_stay_within_the_binomial_bound():
    seeds = range(1, 401)
    failures = [seed for seed in seeds if not compare_to_channel(*w_case(seed, 1000)).passed]
    bound = binomial_bound(len(seeds), ALPHA)
    assert bound == 3
    assert len(failures) <= bound, failures


def test_library_refuses_rates_and_horizons_outside_the_scale_range():
    with pytest.raises(ValueError, match="^channel rate must be 0 or in"):
        compare_to_channel(
            GenericPure(0.5, 0.5, 0.5, 0.5),
            named_scenario("2q-local-A", 1e300),
            TrajectoryConfig(100, 1, 1e10),
        )
    for t_final in (1e-101, 1e101, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^t_final must be in \[1e-100, 1e\+100\]"):
            TrajectoryConfig(100, 1, t_final)
