"""Operator-sum dephasing channels for two- and three-qubit registers.

Every channel is a set of real diagonal decomposition (Kraus) operators
acting at one of three scales: a single qubit, a qubit pair sharing one
noise field, or the whole three-qubit register.  A scenario bundles the
channels acting on a register together with their damping rates.

Because every operator is diagonal, the operator sum multiplies each
coherence (i, j) by its own factor, exp(-E_ij t).  ``decay_exponents``
builds the exponent matrix E of a scenario once from the Kraus diagonals,
and ``evolve`` applies the diagonal operator sum as rho0 * exp(-t E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .linalg import QUBITS, subspace_index

#: apply_kraus refuses sets whose completeness deviation exceeds this.
COMPLETENESS_LIMIT = 1e-9

#: accepted range of every nonzero rate and every horizon; the products the
#: code forms of them (rate * t, their square roots and their ratios) then
#: stay finite
SCALE_RANGE = (1e-100, 1e100)


def gamma(rate: float, t: float) -> float:
    """Coherence decay factor exp(-rate * t / 2); equals 1 when noise is off."""
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.exp(-0.5 * rate * t)


def omega_factors(rate: float, t: float) -> tuple[float, float, float]:
    """The three residual amplitudes of a collective channel at (rate, t).

    With g = gamma(rate, t):
        w1 = sqrt(1 - g^2)
        w2 = -g^2 sqrt(1 - g^2)
        w3 = sqrt((1 - g^2)(1 - g^4))
    """
    g = gamma(rate, t)
    g2 = g * g
    w1 = math.sqrt(1.0 - g2)
    w2 = -g2 * w1
    w3 = math.sqrt((1.0 - g2) * (1.0 - g2 * g2))
    return (w1, w2, w3)


@dataclass(frozen=True)
class Local:
    """Dephasing of a single qubit by its own noise field."""

    qubit: str

    def __post_init__(self):
        if self.qubit not in QUBITS:
            raise ValueError(f"unknown qubit label {self.qubit!r}")

    @property
    def support(self) -> tuple[str, ...]:
        return (self.qubit,)

    @property
    def label(self) -> str:
        return f"local({self.qubit})"


@dataclass(frozen=True)
class PairCollective:
    """Two qubits coupled identically to one shared noise field."""

    first: str
    second: str

    def __post_init__(self):
        if self.first not in QUBITS or self.second not in QUBITS:
            raise ValueError(f"unknown qubit label in pair ({self.first}, {self.second})")
        if self.first == self.second:
            raise ValueError("pair channel needs two distinct qubits")
        # canonical A < B < C order
        lo, hi = sorted((self.first, self.second), key=QUBITS.index)
        object.__setattr__(self, "first", lo)
        object.__setattr__(self, "second", hi)

    @property
    def support(self) -> tuple[str, ...]:
        return (self.first, self.second)

    @property
    def label(self) -> str:
        return f"pair({self.first}{self.second})"


@dataclass(frozen=True)
class TripleCollective:
    """All three qubits coupled identically to one shared noise field."""

    @property
    def support(self) -> tuple[str, ...]:
        return QUBITS

    @property
    def label(self) -> str:
        return "triple(ABC)"


ChannelKind = Union[Local, PairCollective, TripleCollective]


@dataclass(frozen=True)
class NoiseScenario:
    """Which dephasing channels act on the register, and at which rates.

    By default each qubit may sit in the support of at most one channel;
    set allow_overlap=True to lift that restriction for exploratory runs
    (such scenarios are excluded from closed-form reference checks).
    """

    register_size: int
    channels: tuple[tuple[ChannelKind, float], ...]
    allow_overlap: bool = False

    def __post_init__(self):
        if self.register_size not in (2, 3):
            raise ValueError(f"register_size must be 2 or 3, got {self.register_size}")
        object.__setattr__(self, "channels", tuple((k, float(r)) for k, r in self.channels))
        register = set(self.register)
        seen: list[str] = []
        low, high = SCALE_RANGE
        for kind, rate in self.channels:
            if rate != 0 and not low <= rate <= high:
                raise ValueError(f"channel rate must be 0 or in [{low:g}, {high:g}], got {rate!r}")
            outside = set(kind.support) - register
            if outside:
                raise ValueError(
                    f"channel {kind.label} acts outside the {self.register_size}-qubit register"
                )
            seen.extend(kind.support)
        if not self.allow_overlap and len(seen) != len(set(seen)):
            raise ValueError(
                "each qubit may be driven by at most one noise channel "
                "(pass allow_overlap=True to override)"
            )

    @property
    def register(self) -> tuple[str, ...]:
        return QUBITS[: self.register_size]

    @property
    def label(self) -> str:
        if not self.channels:
            return f"{self.register_size}q:none"
        parts = "+".join(f"{k.label}@{r:g}" for k, r in self.channels)
        return f"{self.register_size}q:{parts}"

    @property
    def min_rate(self) -> float:
        rates = [r for _, r in self.channels if r > 0]
        return min(rates) if rates else 0.0


@dataclass(frozen=True)
class KrausSet:
    """Ordered decomposition operators of one trace-preserving channel."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(np.asarray(k) for k in self.operators))
        dims = {k.shape for k in self.operators}
        if len(dims) != 1:
            raise ValueError(f"operators have mixed shapes: {dims}")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _diagonal_set(patterns, support, register_size: int) -> KrausSet:
    """Register-wide operators whose diagonals act on the support subspace as `patterns`."""
    sub = subspace_index(support, QUBITS[:register_size])
    return KrausSet(tuple(np.diag(np.asarray(p, dtype=float)[sub]) for p in patterns))


def build_local_kraus(qubit: str, register_size: int, rate: float, t: float) -> KrausSet:
    """Two operators dephasing one qubit: diag(1, g) and diag(0, w) on it."""
    if qubit not in QUBITS[:register_size]:
        raise ValueError(f"qubit {qubit!r} outside the {register_size}-qubit register")
    g = gamma(rate, t)
    w = math.sqrt(1.0 - g * g)
    return _diagonal_set([(1.0, g), (0.0, w)], (qubit,), register_size)


def build_pair_collective_kraus(
    first: str, second: str, register_size: int, rate: float, t: float
) -> KrausSet:
    """Three operators dephasing a qubit pair collectively.

    On the pair subspace (ordered 00, 01, 10, 11) the diagonals are
    (g, 1, 1, g), (w1, 0, 0, w2) and (0, 0, 0, w3), tensored with identity
    on any remaining qubit.
    """
    kind = PairCollective(first, second)
    if set(kind.support) - set(QUBITS[:register_size]):
        raise ValueError(f"pair {kind.label} outside the {register_size}-qubit register")
    g = gamma(rate, t)
    w1, w2, w3 = omega_factors(rate, t)
    patterns = [
        (g, 1.0, 1.0, g),
        (w1, 0.0, 0.0, w2),
        (0.0, 0.0, 0.0, w3),
    ]
    return _diagonal_set(patterns, kind.support, register_size)


def build_triple_collective_kraus(rate: float, t: float) -> KrausSet:
    """Three 8x8 operators dephasing the whole three-qubit register."""
    g = gamma(rate, t)
    w1, w2, w3 = omega_factors(rate, t)
    patterns = [
        (g, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, g),
        (w1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, w2),
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, w3),
    ]
    return _diagonal_set(patterns, QUBITS, 3)


def kraus_for(kind: ChannelKind, register_size: int, rate: float, t: float) -> KrausSet:
    """KrausSet of a channel kind at the given register size, rate and time."""
    if isinstance(kind, Local):
        return build_local_kraus(kind.qubit, register_size, rate, t)
    if isinstance(kind, PairCollective):
        return build_pair_collective_kraus(kind.first, kind.second, register_size, rate, t)
    if isinstance(kind, TripleCollective):
        if register_size != 3:
            raise ValueError("triple-collective channel needs a three-qubit register")
        return build_triple_collective_kraus(rate, t)
    raise TypeError(f"unknown channel kind: {kind!r}")


def verify_completeness(ks: KrausSet) -> float:
    """Max-norm deviation of sum(K^dagger K) from the identity."""
    acc = np.zeros((ks.dim, ks.dim), dtype=complex)
    for k in ks.operators:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - np.eye(ks.dim))))


def _matrix_of(rho) -> np.ndarray:
    return rho.matrix if hasattr(rho, "matrix") else np.asarray(rho)


def _with_matrix(rho, matrix: np.ndarray):
    if hasattr(rho, "matrix"):
        return replace(rho, matrix=matrix)
    return matrix


def apply_kraus(rho, ks: KrausSet):
    """Operator sum sum_k K rho K^dagger.

    Accepts a DensityMatrix or a bare array and returns the same kind.
    Refuses sets whose completeness deviation exceeds COMPLETENESS_LIMIT.
    """
    mat = _matrix_of(rho)
    if mat.shape != (ks.dim, ks.dim):
        raise ValueError(f"state of shape {mat.shape} does not match operators of dim {ks.dim}")
    deviation = verify_completeness(ks)
    if deviation > COMPLETENESS_LIMIT:
        raise ValueError(f"Kraus set violates completeness by {deviation:.3e}")
    out = np.zeros_like(mat, dtype=complex)
    for k in ks.operators:
        out += k @ mat @ k.conj().T
    return _with_matrix(rho, out)


def decay_exponents(scenario: NoiseScenario) -> np.ndarray:
    """Exponent matrix E of the scenario: coherence (i, j) decays as exp(-E_ij t).

    A diagonal channel multiplies rho elementwise by F = sum_k K J K^dagger,
    its operator sum on the all-ones matrix J, so F_ij = sum_k d_ki d_kj over
    the Kraus diagonals d_k.  Each channel's F is taken at the reference time
    1/rate, where it holds the same powers of g = e^(-1/2) for every rate
    (populations exactly 1, nothing below g^4 = e^(-2)), and adds
    -rate * ln F to E.  Channels with rate 0 add nothing.
    """
    dim = 1 << scenario.register_size
    ones = np.ones((dim, dim))
    exponents = np.zeros((dim, dim))
    for kind, rate in scenario.channels:
        if rate == 0:
            continue
        ks = kraus_for(kind, scenario.register_size, rate, 1.0 / rate)
        exponents -= rate * np.log(apply_kraus(ones, ks).real)
    return exponents


def evolve(rho0, scenario: NoiseScenario, t):
    """State at time t under every channel of the scenario, rho0 * exp(-t E).

    E is ``decay_exponents(scenario)``; the channels commute, so their
    order does not matter.  For a bare array, `t` may also be an array of
    times shaped to broadcast against the matrix, e.g. ``times[:, None, None]``
    for a (T, dim, dim) stack.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"time must be nonnegative, got {t}")
    dim = 1 << scenario.register_size
    mat = _matrix_of(rho0)
    if mat.shape != (dim, dim):
        raise ValueError(
            f"state of shape {mat.shape} does not match a {scenario.register_size}-qubit scenario"
        )
    out = mat.astype(complex) * np.exp(-times * decay_exponents(scenario))
    return _with_matrix(rho0, out)
