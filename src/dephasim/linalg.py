"""Dense complex matrix arithmetic for registers of up to three qubits.

Tensor-factor convention: qubit A is the leftmost (most significant) factor,
so basis index ``i`` of an n-qubit register carries the bit of qubit A in its
highest bit.  All matrices are plain ``numpy`` arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

QUBITS = ("A", "B", "C")

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def subspace_index(support: Sequence[str], register: Sequence[str]) -> np.ndarray:
    """Index of every basis state of `register` within the subspace of `support`.

    Entry i holds the bits of basis state i on the support qubits, read in
    support order (first support qubit most significant).
    """
    register = tuple(register)
    n = len(register)
    basis = np.arange(1 << n)
    index = np.zeros_like(basis)
    for q in support:
        index = (index << 1) | ((basis >> (n - 1 - register.index(q))) & 1)
    return index


def partial_trace(
    rho: np.ndarray,
    keep: Iterable[str],
    total: Sequence[str],
) -> np.ndarray:
    """Reduced matrix on the `keep` qubits, tracing out the rest of `total`.

    `total` is the ordered register (subset of A < B < C); `keep` must be a
    nonempty subset of it.  The result keeps the surviving factors in their
    original order.  Leading batch axes of `rho` are passed through.
    """
    total = tuple(total)
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must not be empty")
    extra = keep_set - set(total)
    if extra:
        raise ValueError(f"keep contains qubits outside the register: {sorted(extra)}")

    n = len(total)
    dim = 1 << n
    rho = np.asarray(rho)
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(
            f"matrix of shape {rho.shape[-2:]} does not match a {n}-qubit register"
        )

    batch = rho.shape[:-2]
    work = rho.reshape(batch + (2,) * n + (2,) * n)
    offset = len(batch)
    remaining = n
    for pos in reversed(range(n)):
        if total[pos] in keep_set:
            continue
        work = np.trace(work, axis1=offset + pos, axis2=offset + remaining + pos)
        remaining -= 1
    d = 1 << len(keep_set)
    return work.reshape(batch + (d, d))


def _upper(dim: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    rows, cols = np.triu_indices(dim, 1)
    return rows, cols, [f"rho_{i + 1}{j + 1}" for i, j in zip(rows.tolist(), cols.tolist())]


#: per matrix dimension: row and column indices of the upper off-diagonal
#: elements, row-major, and their names numbered from 1 (``rho_12`` for (0, 1))
UPPER = {dim: _upper(dim) for dim in (2, 4, 8)}


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
