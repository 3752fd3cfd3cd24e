import math

import numpy as np
import pytest

from dephasim.channels import Local, PairCollective, evolve, gamma
from dephasim.errors import EquivalenceNotEstablishedError
from dephasim.linalg import frobenius_distance
from dephasim.montecarlo import (
    BLOCK,
    TrajectoryConfig,
    compare_to_channel,
    simulate_statistics,
)
from dephasim.presets import draw_state, named_scenario
from dephasim.states import Fragile, GenericPure, GHZState, projector

PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(0, 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, -0.1, 1, 1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 2.0, 1, 1.0)  # dt beyond the horizon
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 0.1, 1, 0.0)


def test_config_size_bounds():
    TrajectoryConfig(10_000_000, 1e-5, 1, 1.0)  # the largest run accepted
    with pytest.raises(ValueError, match=r"^n_trajectories must be in \[1, 10000000\]"):
        TrajectoryConfig(10_000_001, 0.1, 1, 1.0)
    with pytest.raises(ValueError, match="^dt must be at least t_final / 100000"):
        TrajectoryConfig(10, 1e-9, 1, 1.0)


@pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
def test_negative_or_non_finite_rate_is_rejected(rate):
    cfg = TrajectoryConfig(10, 0.1, 1, 1.0)
    with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
        simulate_statistics(PLUS, ((Local("A"), rate),), cfg)


def test_zero_fields_returns_input_exactly():
    rho = projector(GenericPure(0.5, 0.5, 0.5, 0.5))
    cfg = TrajectoryConfig(50, 0.1, 123, 1.0)
    stats = simulate_statistics(rho, (), cfg)
    assert np.array_equal(stats.mean, rho.matrix)
    assert not stats.var_re.any() and not stats.var_im.any()


def test_single_qubit_coherence_decays_to_gamma():
    # |+><+| under a single local field: coherence shrinks by e^(-rate t / 2)
    cfg = TrajectoryConfig(20_000, 0.05, 7, 1.0)
    stats = simulate_statistics(PLUS, ((Local("A"), 1.0),), cfg)
    expected = 0.5 * gamma(1.0, 1.0)  # 0.5 * e^(-1/2)
    se = math.sqrt(stats.var_re[0, 1] / stats.n_trajectories)
    assert abs(stats.mean[0, 1].real - expected) < 4 * se
    assert abs(stats.mean[0, 1].imag) < 4 * math.sqrt(stats.var_im[0, 1] / stats.n_trajectories)


def test_diagonal_is_preserved_exactly():
    rng = np.random.default_rng(3)
    spec = draw_state("generic", rng)
    rho = projector(spec)
    cfg = TrajectoryConfig(200, 0.05, 5, 0.7)
    stats = simulate_statistics(rho, named_scenario("2q-collective", 1.0).channels, cfg)
    assert np.array_equal(np.diag(stats.mean), np.diag(rho.matrix))


def test_same_seed_is_bit_identical():
    spec = Fragile(0.6, 0.5, math.sqrt(1 - 0.61))
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(500, 0.02, 42, 1.0)
    a = simulate_statistics(projector(spec).matrix, fields, cfg)
    b = simulate_statistics(projector(spec).matrix, fields, cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.var_re, b.var_re)
    c = simulate_statistics(projector(spec).matrix, fields, TrajectoryConfig(500, 0.02, 43, 1.0))
    assert not np.array_equal(a.mean, c.mean)


def test_same_seed_is_bit_identical_across_blocks():
    # one trajectory past a block: the last block holds a single trajectory
    rho0 = projector(Fragile(0.6, 0.5, math.sqrt(1 - 0.61))).matrix
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(BLOCK + 1, 0.1, 42, 1.0)
    a = simulate_statistics(rho0, fields, cfg)
    b = simulate_statistics(rho0, fields, cfg)
    assert a.n_trajectories == BLOCK + 1
    for got, again in ((a.mean, b.mean), (a.var_re, b.var_re), (a.var_im, b.var_im)):
        assert np.array_equal(got, again)
    shorter = simulate_statistics(rho0, fields, TrajectoryConfig(BLOCK, 0.1, 42, 1.0))
    assert not np.array_equal(a.mean, shorter.mean)


def test_dt_independence_in_distribution():
    # the walk is exact in distribution, so halving dt only reshuffles noise
    spec = GenericPure(0.5, 0.5, 0.5, 0.5)
    scenario = named_scenario("2q-local-A", 1.0)
    exact = evolve(projector(spec).matrix, scenario, 1.0)
    for dt in (0.25, 0.125):
        cfg = TrajectoryConfig(4000, dt, 11, 1.0)
        stats = simulate_statistics(projector(spec).matrix, scenario.channels, cfg)
        assert frobenius_distance(stats.mean, exact) < 5 / math.sqrt(cfg.n_trajectories)


def test_fragment_pattern_under_pair_collective():
    spec = Fragile(0.6, 0.5, math.sqrt(1 - 0.61))
    rho0 = projector(spec).matrix
    fields = named_scenario("2q-collective", 1.0).channels
    cfg = TrajectoryConfig(20_000, 0.05, 9, 1.0)
    stats = simulate_statistics(rho0, fields, cfg)
    g = gamma(1.0, 1.0)
    for (i, j), power in (((0, 3), 4), ((0, 1), 1), ((1, 3), 1)):
        se = math.sqrt(
            (stats.var_re[i, j] + stats.var_im[i, j]) / stats.n_trajectories
        )
        assert abs(stats.mean[i, j] - rho0[i, j] * g**power) <= 4 * se, (i, j)
    assert stats.mean[1, 2] == 0.0  # robust slot of the projector stays empty


def test_support_outside_register_is_rejected():
    cfg = TrajectoryConfig(10, 0.1, 1, 1.0)
    with pytest.raises(ValueError, match="support"):
        simulate_statistics(PLUS, ((PairCollective("A", "B"), 1.0),), cfg)


def test_compare_local_channel_passes():
    cfg = TrajectoryConfig(10_000, 0.02, 20260810, 1.0)
    cmp_ = compare_to_channel(
        GenericPure(0.5, 0.5, 0.5, 0.5), named_scenario("2q-local-A", 1.0), cfg
    )
    assert cmp_.distance < 5 * cmp_.expected_scale
    assert cmp_.max_z <= 4.0
    assert cmp_.passed and not cmp_.informational


def test_compare_refuses_triple_collective_by_default():
    cfg = TrajectoryConfig(100, 0.05, 1, 1.0)
    with pytest.raises(EquivalenceNotEstablishedError):
        compare_to_channel(
            GHZState(2**-0.5, 2**-0.5), named_scenario("3q-collective", 1.0), cfg
        )


def test_compare_triple_collective_forced_reports_divergence():
    cfg = TrajectoryConfig(2000, 0.05, 4, 1.0)
    cmp_ = compare_to_channel(
        GHZState(2**-0.5, 2**-0.5),
        named_scenario("3q-collective", 1.0),
        cfg,
        force_informational=True,
    )
    assert cmp_.informational
    (entry,) = cmp_.divergence
    assert entry["element"] == "rho_18"
    g = gamma(1.0, 1.0)
    assert abs(entry["stochastic_factor"] - g**9) < 1e-12
    assert abs(entry["channel_factor"] - g**4) < 1e-12
    # at unit rate and time: exp(-9/2) from phase diffusion, exp(-2) from the operators
    assert abs(entry["stochastic_factor"] - math.exp(-4.5)) < 1e-12
    assert abs(entry["channel_factor"] - math.exp(-2.0)) < 1e-12


def test_convergence_scales_as_inverse_sqrt_n():
    spec = GenericPure(0.5, 0.5, 0.5, 0.5)
    scenario = named_scenario("2q-local-A", 1.0)
    scaled = []
    for n in (100, 1000):
        distances = []
        for seed in (101, 202, 303):
            cfg = TrajectoryConfig(n, 0.05, seed, 1.0)
            distances.append(compare_to_channel(spec, scenario, cfg).distance)
        scaled.append(np.mean(distances) * math.sqrt(n))
    assert max(scaled) / min(scaled) < 3.0
