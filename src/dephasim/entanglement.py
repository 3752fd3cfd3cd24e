"""Concurrence and entanglement of formation for two-qubit density matrices."""

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


def concurrence_curve(stack: np.ndarray) -> np.ndarray:
    """Concurrence along the leading axis of a (..., 4, 4) stack."""
    roots = _sqrt_lambdas(stack)
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.clip(value, 0.0, 1.0)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entanglement_of_formation(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - c^2)) / 2) for concurrence c."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    return _binary_entropy(x)
