import math

import numpy as np
import pytest

from dephasim.linalg import (
    PAULI_Y,
    frobenius_distance,
    kron,
    partial_trace,
    subspace_index,
)

I2 = np.eye(2)


def random_density(rng, n_qubits):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal_ordering_first_factor_major():
    g = 0.25
    out = kron(np.diag([1.0, g]), I2)
    assert np.array_equal(np.diag(out), [1.0, 1.0, g, g])


def test_kron_pauli_y_pair_is_antidiagonal():
    out = kron(PAULI_Y, PAULI_Y)
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.max(np.abs(out - expected)) == 0.0


def test_kron_associativity_exact_for_operator_patterns():
    a = np.diag([1.0, 0.5])
    b = np.diag([0.25, 1.0])
    c = np.diag([1.0, 0.75])
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_partial_trace_bell_state_is_maximally_mixed():
    v = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = np.outer(v, v.conj())
    reduced = partial_trace(rho, {"A"}, ("A", "B"))
    assert np.max(np.abs(reduced - I2 / 2)) < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        register = ("A", "B", "C")[:n]
        rho = random_density(rng, n)
        for keep in [(q,) for q in register]:
            red = partial_trace(rho, keep, register)
            assert abs(np.trace(red) - 1.0) < 1e-12


def test_partial_trace_sequential_equals_joint():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 3)
    joint = partial_trace(rho, {"A"}, ("A", "B", "C"))
    step1 = partial_trace(rho, {"A", "B"}, ("A", "B", "C"))
    step2 = partial_trace(step1, {"A"}, ("A", "B"))
    assert np.max(np.abs(joint - step2)) < 1e-12


def test_partial_trace_batched_leading_axis():
    rng = np.random.default_rng(13)
    stack = np.stack([random_density(rng, 2) for _ in range(5)])
    red = partial_trace(stack, {"B"}, ("A", "B"))
    assert red.shape == (5, 2, 2)
    single = partial_trace(stack[2], {"B"}, ("A", "B"))
    assert np.array_equal(red[2], single)


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, {"C"}, ("A", "B"))
    with pytest.raises(ValueError):
        partial_trace(rho, set(), ("A", "B"))
    with pytest.raises(ValueError):
        partial_trace(np.eye(8) / 8, {"A"}, ("A", "B"))


def test_subspace_index_reads_support_bits_in_support_order():
    abc = ("A", "B", "C")
    assert subspace_index(("A",), abc).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert subspace_index(("C",), abc).tolist() == [0, 1, 0, 1, 0, 1, 0, 1]
    assert subspace_index(("A", "C"), abc).tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
    assert subspace_index(("C", "A"), abc).tolist() == [0, 2, 0, 2, 1, 3, 1, 3]
    assert subspace_index(abc, abc).tolist() == list(range(8))
    assert subspace_index(("B",), ("A", "B")).tolist() == [0, 1, 0, 1]
    assert subspace_index((), ("A", "B")).tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        subspace_index(("C",), ("A", "B"))


def test_frobenius_distance_values():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert frobenius_distance(m, m) == 0.0
    assert abs(frobenius_distance(I2, np.zeros((2, 2))) - math.sqrt(2)) < 1e-15
    g = math.exp(-0.5)
    got = frobenius_distance(np.diag([1.0, 1.0]), np.diag([1.0, g]))
    assert abs(got - (1.0 - g)) < 1e-15  # 1 - e^(-1/2) = 0.3934693402873666


def test_frobenius_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(4))
