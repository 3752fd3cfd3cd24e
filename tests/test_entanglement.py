import math
import re

import numpy as np
import pytest

from dephasim.channels import evolve, gamma
from dephasim.entanglement import (
    SPIN_FLIP_MATRIX,
    _sqrt_lambdas,
    concurrence,
    concurrence_curve,
    entanglement_of_formation,
)
from dephasim.linalg import partial_trace
from dephasim.presets import draw_state, named_scenario
from dephasim.states import GenericPure, projector, reduced_stacks

RNG = np.random.default_rng(31)

BELL = projector(GenericPure(1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2))).matrix


def random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spin_flipped(rho):
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return SPIN_FLIP_MATRIX @ np.conj(rho) @ SPIN_FLIP_MATRIX


def test_spin_flip_bell_state_is_fixed_point():
    assert np.max(np.abs(spin_flipped(BELL) - BELL)) < 1e-15
    # rho @ rho_tilde = BELL, a projector: Wootters eigenvalues (1, 0, 0, 0)
    assert np.max(np.abs(np.array(concurrence(BELL).lambdas) - [1.0, 0.0, 0.0, 0.0])) < 1e-15


def test_spin_flip_diagonal_input():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    product = np.diag(p) @ spin_flipped(np.diag(p))
    expected = [p[0] * p[3], p[1] * p[2], p[2] * p[1], p[3] * p[0]]
    assert np.max(np.abs(product - np.diag(expected))) < 1e-15
    lambdas = concurrence(np.diag(p).astype(complex)).lambdas
    assert np.max(np.abs(np.array(lambdas) - sorted(expected, reverse=True))) < 1e-15


def test_spin_flip_product_state_gives_zero_product():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert np.max(np.abs(rho @ spin_flipped(rho))) == 0.0
    assert concurrence(rho).lambdas == (0.0, 0.0, 0.0, 0.0)


def test_spin_flip_matrix_is_antidiagonal():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(SPIN_FLIP_MATRIX, expected)


def test_concurrence_of_bell_state_is_one():
    result = concurrence(BELL)
    assert abs(result.value - 1.0) < 1e-12
    assert np.max(np.abs(np.array(result.lambdas) - [1.0, 0.0, 0.0, 0.0])) < 1e-12


def test_concurrence_of_product_state_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        rho = np.outer(v, v.conj())
        assert concurrence(rho).value < 1e-12


def test_concurrence_of_pure_state_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spec = draw_state("generic", rng)
        expected = 2 * abs(spec.a * spec.d - spec.b * spec.c)
        got = concurrence(projector(spec)).value
        assert abs(got - min(expected, 1.0)) < 1e-12


def test_concurrence_fragile_under_collective_decay():
    rng = np.random.default_rng(7)
    scenario = named_scenario("2q-collective", 1.0)
    for _ in range(10):
        spec = draw_state("fragile", rng)
        for t in (0.0, 0.5, 1.5, 3.0):
            rho = evolve(projector(spec), scenario, t)
            expected = 2 * gamma(1.0, t) ** 4 * abs(spec.a) * abs(spec.d)
            assert abs(concurrence(rho).value - expected) < 1e-12


def test_concurrence_robust_under_collective_is_constant():
    rng = np.random.default_rng(8)
    scenario = named_scenario("2q-collective", 1.0)
    for _ in range(10):
        spec = draw_state("robust", rng)
        expected = 2 * abs(spec.b) * abs(spec.c)
        for t in (0.0, 1.0, 4.0):
            rho = evolve(projector(spec), scenario, t)
            assert abs(concurrence(rho).value - expected) < 1e-12


def test_concurrence_w_reduced_pairs_under_local():
    rng = np.random.default_rng(9)
    scenario = named_scenario("3q-local-A", 1.0)
    for _ in range(5):
        spec = draw_state("w", rng)
        t = 0.8
        g = gamma(1.0, t)
        rho = evolve(projector(spec), scenario, t)
        red_ab = partial_trace(rho.matrix, ("A", "B"), ("A", "B", "C"))
        c_ab = concurrence(red_ab).value
        assert abs(c_ab**2 - 4 * abs(spec.a2) ** 2 * abs(spec.a4) ** 2 * g**2) < 1e-12


def test_lambdas_match_brute_force_eigensolve():
    rng = np.random.default_rng(10)
    scenario = named_scenario("2q-collective", 1.0)
    for _ in range(20):
        spec = draw_state("generic", rng)
        rho = evolve(projector(spec).matrix, scenario, float(rng.uniform(0, 2)))
        lam = np.array(concurrence(rho).lambdas)
        assert np.all(np.diff(lam) <= 1e-12)
        brute = np.sort(np.abs(np.linalg.eigvals(rho @ spin_flipped(rho))))[::-1]
        assert np.max(np.abs(lam - brute)) < 1e-8


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = draw_state("generic", rng)
        rho = evolve(projector(spec).matrix, named_scenario("2q-collective", 1.0), 0.5)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated).value - concurrence(rho).value) < 1e-10


def test_concurrence_never_increases_under_dephasing():
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 3.0, 40)
    for name in ("2q-collective", "2q-local-A", "2q-multi-local"):
        scenario = named_scenario(name, 1.0)
        spec = draw_state("generic", rng)
        rho0 = projector(spec).matrix
        values = np.array(
            [concurrence(evolve(rho0, scenario, t)).value for t in times]
        )
        assert np.all(np.diff(values) <= 1e-12)


def test_concurrence_rejects_non_psd():
    bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(bad)
    nan_diagonal = np.diag([0.5, math.nan, 0.25, 0.25]).astype(complex)
    for x_state in (bad, nan_diagonal):
        # X-shaped, so the closed form makes the check
        for stack in (x_state, np.stack([np.eye(4) / 4, x_state])):
            with pytest.raises(ValueError, match="^density matrix has eigenvalue"):
                concurrence_curve(stack)


def test_concurrence_rejects_wrong_shape():
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8)
    for shape in ((8, 8), (3, 8, 8), (2, 4, 3), (4,), ()):
        message = rf"^concurrence_curve needs .* got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            concurrence_curve(np.zeros(shape))


def _w_pair_stacks():
    """Pair reductions of a seeded W state evolved under local(A) + pair(BC)."""
    spec = draw_state("w", np.random.default_rng(14))
    scenario = named_scenario("3q-local-A-pair-BC", 1.0)
    times = np.linspace(0.0, 4.0, 200)[:, None, None]
    stack = evolve(projector(spec).matrix, scenario, times)
    reduced = reduced_stacks(stack, spec.register)
    return [reduced[label] for label in ("AB", "AC", "BC")]


def test_concurrence_curve_matches_scalar_calls():
    rng = np.random.default_rng(13)
    spec = draw_state("generic", rng)
    scenario = named_scenario("2q-collective", 1.0)
    times = np.linspace(0.0, 2.0, 16)
    generic = np.stack([evolve(projector(spec).matrix, scenario, t) for t in times])
    for stack in (generic, _w_pair_stacks()[0][::10]):
        curve = concurrence_curve(stack)
        singles = np.array([concurrence(stack[k]).value for k in range(len(stack))])
        assert np.max(np.abs(curve - singles)) < 1e-12


def test_w_pair_concurrence_is_twice_its_coherence_bit_for_bit():
    # a W pair is an X-state with rho_14 = rho_44 = 0, so C = 2 |rho_23| exactly
    for red in _w_pair_stacks():
        assert np.array_equal(concurrence_curve(red), np.clip(2 * abs(red[:, 1, 2]), 0, 1))


def _random_x_states(rng, count):
    """Random X-shaped density matrices: PSD 2x2 blocks on {1, 4} and {2, 3} of rank 0 to 2."""
    out = np.zeros((count, 4, 4), dtype=complex)
    for rho in out:
        ranks = rng.permutation([int(rng.integers(1, 3)), int(rng.integers(0, 3))])
        for index, rank in zip(([0, 3], [1, 2]), ranks):
            a = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
            rho[np.ix_(index, index)] = a @ a.conj().T
        rho /= np.trace(rho).real
    return out


def _solved(stack):
    """Concurrence of a stack by the eigensolver path, whatever its shape."""
    roots = _sqrt_lambdas(stack)
    return np.clip(roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3], 0.0, 1.0)


def test_concurrence_curve_of_x_states_matches_the_eigensolver():
    stack = _random_x_states(np.random.default_rng(15), 400)
    curve = concurrence_curve(stack)
    assert 0 < np.count_nonzero(curve) < len(curve)
    assert np.max(np.abs(curve - _solved(stack))) < 1e-13
    assert np.max(np.abs(curve - [concurrence(rho).value for rho in stack])) < 1e-13
    assert np.array_equal(concurrence_curve(stack.reshape(200, 2, 4, 4)), curve.reshape(200, 2))
    # the path is chosen per matrix: one matrix outside the X shape takes the
    # eigensolver and leaves every other entry's bits as they were
    mixed = stack.copy()
    mixed[0] = 0.5 * (mixed[0] + np.full((4, 4), 0.25))
    got = concurrence_curve(mixed)
    assert got[0] == _solved(mixed[:1])[0]
    assert np.array_equal(got[1:], curve[1:])


def test_concurrence_of_a_matrix_does_not_depend_on_its_stack():
    # W pair matrices (X-shaped) shuffled with generic ones (not): every entry is
    # the value of its matrix alone, bit for bit, and the X entries keep their bits
    rng = np.random.default_rng(16)
    w = np.concatenate(_w_pair_stacks())
    rho0 = projector(draw_state("generic", rng)).matrix
    times = np.linspace(0.0, 2.0, 50)[:, None, None]
    generic = evolve(rho0, named_scenario("2q-collective", 1.0), times)
    order = rng.permutation(len(w) + len(generic))
    stack = np.concatenate([w, generic])[order]
    curve = concurrence_curve(stack)
    singles = [concurrence_curve(stack[k : k + 1])[0] for k in range(len(stack))]
    assert np.array_equal(curve, singles)
    assert np.array_equal(curve, [concurrence_curve(rho) for rho in stack])
    assert np.array_equal(curve[np.argsort(order)][: len(w)], concurrence_curve(w))
    assert np.array_equal(concurrence_curve(stack.reshape(10, -1, 4, 4)), curve.reshape(10, -1))


def test_concurrence_curve_of_an_empty_stack_is_empty():
    for shape in ((0, 4, 4), (3, 0, 4, 4)):
        got = concurrence_curve(np.zeros(shape, dtype=complex))
        assert isinstance(got, np.ndarray) and got.shape == shape[:-2]


def test_entanglement_of_formation_endpoints_and_value():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - 1.0) < 1e-12
    # h((1 + sqrt(3)/2) / 2) evaluated in closed form
    assert abs(entanglement_of_formation(0.5) - 0.35457890266527003) < 1e-12


def test_entanglement_of_formation_is_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    values = [entanglement_of_formation(c) for c in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_entanglement_of_formation_rejects_out_of_range():
    with pytest.raises(ValueError):
        entanglement_of_formation(-0.1)
    with pytest.raises(ValueError):
        entanglement_of_formation(1.1)


def _eof_per_value(c: float) -> float:
    """Entanglement of formation of one concurrence in plain float arithmetic."""
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    if x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def test_entanglement_of_formation_of_an_array_is_the_scalar_formula_bit_for_bit():
    edges = np.array([0.0, 5e-324, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0])
    uniform = np.random.default_rng(12).uniform(0.0, 1.0, 10_000)
    for values in (edges, uniform, uniform.reshape(100, 100)):
        got = entanglement_of_formation(values)
        assert got.shape == values.shape
        expected = [_eof_per_value(c) for c in values.ravel().tolist()]
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in expected]
    for c in edges.tolist():
        got = entanglement_of_formation(c)
        assert type(got) is float and got.hex() == _eof_per_value(c).hex()


@pytest.mark.parametrize("bad", [-0.1, 1.1, -5e-324, 1.0 + 2.0**-52, math.nan, math.inf])
def test_entanglement_of_formation_of_an_array_refuses_what_a_scalar_call_refuses(bad):
    with pytest.raises(ValueError) as scalar:
        entanglement_of_formation(bad)
    with pytest.raises(ValueError) as array:
        entanglement_of_formation(np.array([0.25, bad, 0.5]))
    assert str(array.value) == str(scalar.value) == f"concurrence must lie in [0, 1], got {bad}"
