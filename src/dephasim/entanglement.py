"""Concurrence and entanglement of formation for two-qubit density matrices.

``concurrence`` solves Wootters' eigenvalue problem with one ``eigh`` and one
SVD.  ``concurrence_curve`` does the same for a stack, except for each matrix
that is an X-state, zero outside the diagonal and the anti-diagonal; that one
takes the closed form
C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))
(Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)), exact up to one abs and
one sqrt.  The path is chosen per matrix, so a matrix's value does not
depend on the stack it comes in.  W and GHZ pair reductions are X-states,
and every channel here is diagonal, so they stay X-states at every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_Y, kron

#: sigma_y tensor sigma_y; real anti-diagonal (-1, 1, 1, -1).
SPIN_FLIP_MATRIX = kron(PAULI_Y, PAULI_Y).real

#: eigenvalues this far below zero are treated as roundoff and clamped.
EIG_CLAMP = 1e-10

#: eigenvalues below this fraction of the largest are numerical-rank noise.
RANK_FLOOR = 1e-14

#: entries of a 4x4 matrix outside its diagonal and anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value together with the four Wootters eigenvalues (descending)."""

    value: float
    lambdas: tuple[float, float, float, float]


def _as_matrix(rho) -> np.ndarray:
    mat = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho)
    return np.asarray(mat, dtype=complex)


def _amplitude_factor(mat: np.ndarray) -> np.ndarray:
    """X with rho = X X^dagger; numerical-rank noise eigenvalues zeroed out."""
    w, v = np.linalg.eigh(mat)
    low = float(np.min(w))
    if low < -EIG_CLAMP:
        raise ValueError(f"density matrix has eigenvalue {low:.3e} below -{EIG_CLAMP:g}")
    w = np.clip(w, 0.0, None)
    top = np.max(w, axis=-1, keepdims=True)
    w = np.where(w < RANK_FLOOR * top, 0.0, w)
    return v * np.sqrt(w)[..., None, :]


def _sqrt_lambdas(rho) -> np.ndarray:
    """Square roots of the eigenvalues of rho @ rho_tilde, descending.

    Equal to the singular values of X^T S X where rho = X X^dagger and S is
    the spin-flip matrix; the SVD keeps the small roots accurate to machine
    precision, which a direct eigensolve of the product would not.
    Supports stacked input of shape (..., 4, 4).
    """
    x = _amplitude_factor(_as_matrix(rho))
    m = np.swapaxes(x, -1, -2) @ SPIN_FLIP_MATRIX @ x
    return np.linalg.svd(m, compute_uv=False)


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix."""
    mat = _as_matrix(rho)
    if mat.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 two-qubit matrix, got shape {mat.shape}")
    roots = _sqrt_lambdas(mat)
    value = max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
    return ConcurrenceResult(min(value, 1.0), tuple(float(x * x) for x in roots))


def _x_concurrence(mat: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of a (..., 4, 4) stack of X-states.

    Refuses the stack as ``_amplitude_factor`` does when a 2x2 block, {1, 4} or
    {2, 3}, has its smaller eigenvalue 1/2 (a + b) - hypot(1/2 (a - b), |c|) below
    -EIG_CLAMP; a NaN fails the test too.
    """
    p = np.diagonal(mat, axis1=-2, axis2=-1).real
    outer, inner = np.abs(mat[..., 0, 3]), np.abs(mat[..., 1, 2])
    for a, b, c in ((p[..., 0], p[..., 3], outer), (p[..., 1], p[..., 2], inner)):
        low = np.min(0.5 * (a + b) - np.hypot(0.5 * (a - b), c))
        if not low >= -EIG_CLAMP:
            raise ValueError(f"density matrix has eigenvalue {low:.3e} below -{EIG_CLAMP:g}")
    outer_value = outer - np.sqrt(np.maximum(p[..., 1] * p[..., 2], 0.0))
    inner_value = inner - np.sqrt(np.maximum(p[..., 0] * p[..., 3], 0.0))
    return np.clip(2.0 * np.maximum(outer_value, inner_value), 0.0, 1.0)


def concurrence_curve(stack: np.ndarray) -> np.ndarray:
    """Concurrence of every matrix of a (..., 4, 4) stack; the closed form for each X-state.

    Each matrix takes its own path, so entry k is the concurrence of matrix k
    alone, bit for bit, whatever else the stack holds.
    """
    mat = _as_matrix(stack)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(
            f"concurrence_curve needs a (..., 4, 4) stack of two-qubit matrices, "
            f"got shape {mat.shape}"
        )
    flat = mat.reshape(-1, 4, 4)
    x_shaped = ~flat[:, _OFF_X].any(axis=-1)
    out = np.empty(len(flat))
    if x_shaped.any():
        out[x_shaped] = _x_concurrence(flat[x_shaped])
    if not x_shaped.all():
        roots = _sqrt_lambdas(flat[~x_shaped])
        out[~x_shaped] = np.clip(roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3], 0.0, 1.0)
    return out.reshape(mat.shape[:-2])[()]  # [()] makes a single matrix's value a scalar


def _log2(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, values.tolist()), float, values.size)


def entanglement_of_formation(c):
    """Entanglement of formation h((1 + sqrt(1 - c^2)) / 2) of a concurrence or an array of them.

    Wootters, PRL 80, 2245 (1998); h is the binary entropy.  A float gives a float
    and an array an array of its shape, entry for entry the same bits: the arithmetic
    is IEEE and the logarithms `math.log2`, not `np.log2`, which differs in the last bit.
    """
    arr = np.asarray(c, dtype=float)
    inside = (0.0 <= arr) & (arr <= 1.0)
    if not inside.all():
        raise ValueError(f"concurrence must lie in [0, 1], got {float(arr[~inside].flat[0])}")
    x = 0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - arr * arr)))
    mixed = x < 1.0  # x >= 1/2 always, and h(1) = 0
    p = x[mixed]
    h = np.zeros_like(x)
    h[mixed] = -p * _log2(p) - (1.0 - p) * _log2(1.0 - p)
    return h if h.ndim else float(h)
