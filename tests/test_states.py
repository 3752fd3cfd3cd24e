import math
from itertools import combinations

import numpy as np
import pytest

from dephasim.channels import Local, NoiseScenario, PairCollective, TripleCollective, evolve, gamma
from dephasim.errors import UnsupportedScenarioError
from dephasim.linalg import QUBITS, frobenius_distance, partial_trace, subspace_index
from dephasim.presets import PAPER_MATRIX, draw_state, named_scenario
from dephasim.states import (
    STATE_TYPES,
    DensityMatrix,
    Fragile,
    GHZState,
    WState,
    analytic_evolved,
    analytic_factors,
    check_density,
    projector,
    pure_matrices,
    reduced_stacks,
    slots,
)

RNG = np.random.default_rng(2024)


def test_state_class_table():
    # slots and the 1-based basis states they sit on, as tabulated in the README
    expected = {
        "fragile": (("a", "b", "d"), (1, 2, 4), 2),
        "fragile2": (("a", "c", "d"), (1, 3, 4), 2),
        "robust": (("a", "b", "c"), (1, 2, 3), 2),
        "robust2": (("b", "c", "d"), (2, 3, 4), 2),
        "generic": (("a", "b", "c", "d"), (1, 2, 3, 4), 2),
        "w": (("a1", "a2", "a4"), (2, 3, 5), 3),
        "ghz": (("a0", "a7"), (1, 8), 3),
    }
    assert list(STATE_TYPES) == list(expected)
    for name, (names, basis, n_qubits) in expected.items():
        cls = STATE_TYPES[name]
        assert cls.name == name and slots(cls) == names
        assert cls.register == ("A", "B", "C")[:n_qubits]
        coeffs = [complex(k + 1, -k) for k in range(len(names))]
        v = cls(*coeffs).amplitudes()
        assert v.shape == (1 << n_qubits,)
        assert [i + 1 for i in np.flatnonzero(v)] == list(basis)
        assert v[[b - 1 for b in basis]].tolist() == coeffs
    assert WState(a1=0.6, a2=0.8, a4=0) == WState(0.6, 0.8, 0)
    with pytest.raises(AttributeError):
        WState(0.6, 0.8, 0).a1 = 1.0  # frozen


def test_draws_take_two_gaussians_per_slot():
    # seeded sweeps and paper-tables draws depend on this count
    counts = {"fragile": 3, "fragile2": 3, "robust": 3, "robust2": 3, "generic": 4, "w": 3, "ghz": 2}
    for name, k in counts.items():
        drawn, reference = np.random.default_rng(9), np.random.default_rng(9)
        spec = draw_state(name, drawn)
        v = reference.normal(size=k) + 1j * reference.normal(size=k)
        assert np.array_equal(spec.amplitudes()[list(spec.support)], v / np.linalg.norm(v))
        assert drawn.normal() == reference.normal()


def test_fragile_projector_layout():
    spec = Fragile(0.6, 0.3j, math.sqrt(1 - 0.36 - 0.09))
    rho = projector(spec).matrix
    # third basis state is unpopulated: its row and column vanish
    assert np.max(np.abs(rho[2, :])) == 0.0
    assert np.max(np.abs(rho[:, 2])) == 0.0
    assert abs(rho[0, 0] - 0.36) < 1e-15
    assert abs(rho[0, 1] - 0.6 * np.conj(0.3j)) < 1e-15
    assert abs(rho[1, 3] - 0.3j * np.conj(spec.d)) < 1e-15


def test_w_projector_support():
    spec = draw_state("w", RNG)
    rho = projector(spec).matrix
    populated = {1, 2, 4}
    for i in range(8):
        for j in range(8):
            if i not in populated or j not in populated:
                assert rho[i, j] == 0.0
    assert abs(rho[1, 1] - abs(spec.a1) ** 2) < 1e-15
    assert abs(rho[2, 4] - spec.a2 * np.conj(spec.a4)) < 1e-15


def test_ghz_projector_corners():
    s = 1 / math.sqrt(2)
    rho = projector(GHZState(s, s)).matrix
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[7, 7] - 0.5) < 1e-15
    assert abs(rho[0, 7] - 0.5) < 1e-15
    assert np.count_nonzero(rho) == 4


def test_projector_is_idempotent():
    for cls in ("fragile", "robust", "generic", "w", "ghz"):
        rho = projector(draw_state(cls, RNG)).matrix
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12


def test_projector_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        projector(Fragile(1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_projector_refuses_a_non_finite_coefficient_before_its_outer_product(bad):
    # inf * 0 in the outer product would warn, an error under this suite's filterwarnings
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        projector(WState(bad, 0.48, 0.64))


def test_pure_matrices_is_each_vector_outer_product_bit_for_bit():
    vectors = np.stack([draw_state(cls, RNG).amplitudes() for cls in ("w", "ghz", "w")])
    stack = pure_matrices(vectors)
    for v, rho in zip(vectors, stack):
        assert np.array_equal(rho, np.outer(v, v.conj()))
    spec = draw_state("w", RNG)
    assert np.array_equal(projector(spec).matrix, pure_matrices(spec.amplitudes()))


def test_analytic_evolved_checks_only_its_result():
    # the closed form's diagonal is the projector's, so its trace names sum |c|^2
    with pytest.raises(ValueError, match=r"^trace is 2\+0j, expected 1$"):
        analytic_evolved(WState(1, 1, 0), named_scenario("3q-local-A", 1.0), 1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4), ("A",))  # dimension mismatch
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]), ("A",))  # trace != 1
    bad = np.array([[0.5, 0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(bad, ("A",))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), ("A",))  # negative eigenvalue


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.eye(4), "trace is 4+0j, expected 1"),  # the dimension-mismatch matrix, on its own register
        (np.diag([0.6, 0.6]), "trace is 1.2+0j, expected 1"),
        (np.array([[0.5, 0.5], [-0.5, 0.5]]), "matrix is not Hermitian within 1e-12"),
        (np.diag([1.5, -0.5]), "matrix has an eigenvalue below -1e-10"),
        (np.array([[math.nan, 0.0], [0.0, 1.0]]), "matrix has a non-finite entry"),
        (np.array([[0.5, math.inf], [math.inf, 0.5]]), "matrix has a non-finite entry"),
    ],
)
def test_check_density_rejects_one_bad_slice_of_a_stack(bad, message):
    dim = len(bad)
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad, QUBITS[: dim.bit_length() - 1])
    stack = np.stack([np.eye(dim) / dim, bad, np.eye(dim) / dim]).astype(complex)
    with pytest.raises(ValueError) as stacked:
        check_density(stack)
    assert str(stacked.value) == str(single.value) == message
    check_density(stack[[0, 2]])


def test_analytic_factors_are_the_closed_form_at_every_oracle_time():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 2.0, 5)
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.0)
        spec = draw_state(cls, rng)
        factors = analytic_factors(scenario, spec.register, times)
        assert factors.shape == (5, *projector(spec).matrix.shape)
        for t, factor in zip(times, factors):
            expected = analytic_evolved(spec, scenario, t).matrix
            assert np.array_equal(projector(spec).matrix * factor, expected), (cls, scen_name, t)


def _two_table_factor(kind, register, g):
    """One channel's closed-form factor with the collective rule written as two tables."""
    if isinstance(kind, Local):
        bits = subspace_index(kind.support, register)
        return np.where(bits[:, None] != bits[None, :], g, 1.0)
    if isinstance(kind, PairCollective):
        g4 = g**4
        table = np.array([[1.0, g, g, g4], [g, 1.0, 1.0, g], [g, 1.0, 1.0, g], [g4, g, g, 1.0]])
        sub = subspace_index(kind.support, register)
        return table[sub[:, None], sub[None, :]]
    corner = (np.arange(8) == 0) | (np.arange(8) == 7)
    factor = np.ones((8, 8))
    factor[corner[:, None] ^ corner[None, :]] = g
    factor[0, 7] = factor[7, 0] = g**4
    return factor


def test_one_collective_rule_is_the_pair_and_triple_tables_bit_for_bit():
    # every layout of disjoint supports on two and three qubits, at random rates and times
    rng = np.random.default_rng(35)
    kinds = {
        2: [Local("A"), Local("B"), PairCollective("A", "B")],
        3: [Local(q) for q in "ABC"]
        + [PairCollective(*p) for p in ("AB", "AC", "BC")]
        + [TripleCollective()],
    }
    layouts = [
        (size, chosen)
        for size, available in kinds.items()
        for n in (1, 2, 3)
        for chosen in combinations(available, n)
        if len({q for kind in chosen for q in kind.support}) == sum(len(k.support) for k in chosen)
    ]
    assert len(layouts) == 18
    for size, chosen in layouts:
        register = QUBITS[:size]
        for _ in range(5):
            scenario = NoiseScenario(size, tuple(zip(chosen, rng.uniform(0.1, 10.0, size=3))))
            times = [0.0, *rng.uniform(0.0, 3.0, size=6)]
            expected = np.ones((len(times), 1 << size, 1 << size))
            for factor, t in zip(expected, times):
                for kind, rate in scenario.channels:
                    factor *= _two_table_factor(kind, register, gamma(rate, t))
            got = analytic_factors(scenario, register, times)
            assert got.tobytes() == expected.tobytes(), scenario.label


def test_analytic_fragile_collective_factors():
    spec = draw_state("fragile", RNG)
    t = 1.3
    g = gamma(1.0, t)
    rho0 = projector(spec).matrix
    out = analytic_evolved(spec, named_scenario("2q-collective", 1.0), t).matrix
    assert abs(out[0, 1] - rho0[0, 1] * g) < 1e-15
    assert abs(out[0, 3] - rho0[0, 3] * g**4) < 1e-15
    assert abs(out[1, 3] - rho0[1, 3] * g) < 1e-15
    assert np.max(np.abs(np.diag(out) - np.diag(rho0))) < 1e-15


def test_analytic_robust_collective_keeps_singlet_coherence():
    spec = draw_state("robust", RNG)
    t = 2.0
    rho0 = projector(spec).matrix
    out = analytic_evolved(spec, named_scenario("2q-collective", 1.0), t).matrix
    assert abs(out[1, 2] - rho0[1, 2]) < 1e-15


def test_analytic_w_triple_collective_is_frozen():
    spec = draw_state("w", RNG)
    rho0 = projector(spec).matrix
    out = analytic_evolved(spec, named_scenario("3q-collective", 1.0), 2.7).matrix
    assert np.max(np.abs(out - rho0)) == 0.0


def test_analytic_ghz_decay_factors_per_scenario():
    spec = draw_state("ghz", RNG)
    rho0 = projector(spec).matrix
    t = 0.9
    g = gamma(1.0, t)
    cases = {
        "3q-local-A": g,
        "3q-pair-AB": g**4,
        "3q-collective": g**4,
        "3q-multi-local": g**3,
        "3q-local-A-pair-BC": g * g**4,
    }
    for name, factor in cases.items():
        out = analytic_evolved(spec, named_scenario(name, 1.0), t).matrix
        assert abs(out[0, 7] - rho0[0, 7] * factor) < 1e-15, name


def test_analytic_matches_kraus_for_all_published_pairs():
    rng = np.random.default_rng(77)
    for cls, scen_name in PAPER_MATRIX:
        scenario = named_scenario(scen_name, 1.7)
        for _ in range(10):
            spec = draw_state(cls, rng)
            rho0 = projector(spec)
            for t in np.linspace(0.0, 2.4, 5):
                reference = analytic_evolved(spec, scenario, t)
                via_kraus = evolve(rho0, scenario, t)
                assert (
                    frobenius_distance(reference.matrix, via_kraus.matrix) <= 1e-12
                ), (cls, scen_name, t)


def test_analytic_matches_kraus_for_second_forms_and_generic():
    rng = np.random.default_rng(78)
    scenario = named_scenario("2q-collective", 0.9)
    for cls in ("fragile2", "robust2", "generic"):
        for _ in range(5):
            spec = draw_state(cls, rng)
            for t in (0.0, 0.6, 1.8):
                reference = analytic_evolved(spec, scenario, t)
                via_kraus = evolve(projector(spec), scenario, t)
                assert frobenius_distance(reference.matrix, via_kraus.matrix) <= 1e-12


def test_analytic_rejects_overlap_scenarios():
    spec = draw_state("w", RNG)
    scenario = NoiseScenario(
        3, ((Local("A"), 1.0), (PairCollective("A", "B"), 1.0)), allow_overlap=True
    )
    with pytest.raises(UnsupportedScenarioError):
        analytic_evolved(spec, scenario, 1.0)


def test_analytic_rejects_register_mismatch():
    spec = draw_state("fragile", RNG)
    with pytest.raises(ValueError):
        analytic_evolved(spec, named_scenario("3q-local-A", 1.0), 1.0)


def test_reduced_fragile_single_qubit():
    spec = draw_state("fragile", RNG)
    t = 1.1
    g = gamma(1.0, t)
    evolved = analytic_evolved(spec, named_scenario("2q-collective", 1.0), t)
    red = reduced_stacks(evolved.matrix, evolved.register)
    a, b, d = spec.a, spec.b, spec.d
    rho_a = red["A"]
    assert abs(rho_a[0, 0] - (abs(a) ** 2 + abs(b) ** 2)) < 1e-14
    assert abs(rho_a[0, 1] - b * np.conj(d) * g) < 1e-14
    assert abs(rho_a[1, 1] - abs(d) ** 2) < 1e-14


def test_reduced_w_under_local_A():
    spec = draw_state("w", RNG)
    t = 0.7
    g = gamma(1.0, t)
    evolved = analytic_evolved(spec, named_scenario("3q-local-A", 1.0), t)
    red = reduced_stacks(evolved.matrix, evolved.register)
    a1, a2, a4 = spec.a1, spec.a2, spec.a4
    # BC keeps its coherence with no decay factor
    rho_bc = red["BC"]
    assert abs(rho_bc[1, 2] - a1 * np.conj(a2)) < 1e-14
    assert abs(rho_bc[0, 0] - abs(a4) ** 2) < 1e-14
    # AB coherence carries the local decay factor
    rho_ab = red["AB"]
    assert abs(rho_ab[1, 2] - a2 * np.conj(a4) * g) < 1e-14
    # single-qubit reductions are diagonal at every time
    for q in ("A", "B", "C"):
        assert abs(red[q][0, 1]) < 1e-15
    rho_a = red["A"]
    assert abs(rho_a[0, 0] - (abs(a1) ** 2 + abs(a2) ** 2)) < 1e-14
    assert abs(rho_a[1, 1] - abs(a4) ** 2) < 1e-14


def test_reduced_ghz_pairwise_diagonal():
    spec = draw_state("ghz", RNG)
    evolved = analytic_evolved(spec, named_scenario("3q-multi-local", 1.0), 1.5)
    red = reduced_stacks(evolved.matrix, evolved.register)
    expected = np.diag([abs(spec.a0) ** 2, 0.0, 0.0, abs(spec.a7) ** 2])
    for pair in ("AB", "AC", "BC"):
        assert np.max(np.abs(red[pair] - expected)) < 1e-14


def test_reduced_all_traces_are_one():
    # every reduced matrix of an evolved state is a density matrix of trace one
    for cls, scenario in (("generic", "2q-multi-local"), ("w", "3q-local-A-pair-BC")):
        evolved = evolve(projector(draw_state(cls, RNG)), named_scenario(scenario, 1.0), 0.4)
        for red in reduced_stacks(evolved.matrix, evolved.register).values():
            check_density(red)
            assert abs(np.trace(red) - 1.0) < 1e-12


def test_reduced_all_subset_count():
    # the register first, then its singles, then the pairs below it
    w = projector(draw_state("w", RNG))
    assert list(reduced_stacks(w.matrix, w.register)) == ["ABC", "A", "B", "C", "AB", "AC", "BC"]
    pair = projector(draw_state("robust", RNG))
    assert list(reduced_stacks(pair.matrix, pair.register)) == ["AB", "A", "B"]


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_reduced_stacks_are_the_direct_partial_traces(n_qubits):
    # singles come from a pair, not from the full stack: the same sums in the same order.
    # Every entry is nonzero, so a trace that summed in another order would show.
    register = QUBITS[:n_qubits]
    shape = (5, 3, 1 << n_qubits, 1 << n_qubits)
    stack = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    reduced = reduced_stacks(stack, register)
    # the register, its singles, then the pairs below it
    keeps = [register, *((q,) for q in register), *combinations(register, 2)]
    keeps = list(dict.fromkeys(keeps))
    assert list(reduced) == ["".join(keep) for keep in keeps]
    for keep in keeps:
        direct = stack if keep == register else partial_trace(stack, keep, register)
        assert np.array_equal(reduced["".join(keep)], direct)
