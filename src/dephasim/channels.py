"""Operator-sum dephasing channels for two- and three-qubit registers.

Every channel is a set of real diagonal decomposition (Kraus) operators
acting at one of three scales: a single qubit, a qubit pair sharing one
noise field, or the whole three-qubit register.  A scenario bundles the
channels acting on a register together with their damping rates; their
supports may overlap.

Because every operator is diagonal, a ``KrausSet`` stores only the
diagonals, ``kraus_for`` builds the set of every channel kind, and
``apply_kraus`` takes the operator sum elementwise.  The sum multiplies
each coherence (i, j) by its own factor, exp(-E_ij t): ``NoiseScenario.exponents``
is the exponent matrix E, built once per scenario from the Kraus diagonals,
and ``evolve``, the one place rho0 * exp(-t E) is formed, applies it.
Each channel is the average over a white-noise field coupled to a diagonal
charge, ``charges``: +h on the all-0 corner of its support, -h on the all-1
corner and 0 elsewhere, with h = 1/2 for a local field and 1 for a collective
one (Palma, Suominen & Ekert 1996; Duan & Guo 1997), so E_ij = rate
(h_i - h_j)^2 / 2.  This is the one statement of the field model: the closed
form of :mod:`dephasim.states` and the trajectories of
:mod:`dephasim.montecarlo` both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
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


def charges(kind: ChannelKind, register: tuple[str, ...]) -> np.ndarray:
    """Each basis state's charge under a field: +h on its support's all-0 corner, -h on all-1."""
    missing = set(kind.support) - set(register)
    if missing:
        raise ValueError(f"field support {kind.support} outside register {register}")
    index = subspace_index(kind.support, register)
    h = 0.5 if isinstance(kind, Local) else 1.0
    return h * (1.0 * (index == 0) - (index == (1 << len(kind.support)) - 1))


@dataclass(frozen=True)
class NoiseScenario:
    """Which dephasing channels act on the register, and at which rates.

    A qubit may sit in the support of any number of channels.
    """

    register_size: int
    channels: tuple[tuple[ChannelKind, float], ...]

    def __post_init__(self):
        if self.register_size not in (2, 3):
            raise ValueError(f"register_size must be 2 or 3, got {self.register_size}")
        object.__setattr__(self, "channels", tuple((k, float(r)) for k, r in self.channels))
        register = set(self.register)
        low, high = SCALE_RANGE
        for kind, rate in self.channels:
            if rate != 0 and not low <= rate <= high:
                raise ValueError(f"channel rate must be 0 or in [{low:g}, {high:g}], got {rate!r}")
            outside = set(kind.support) - register
            if outside:
                raise ValueError(
                    f"channel {kind.label} acts outside the {self.register_size}-qubit register"
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

    @cached_property
    def exponents(self) -> np.ndarray:
        """Exponent matrix E, built on first read and read-only: rho_ij decays as exp(-E_ij t).

        A diagonal channel multiplies rho elementwise by F = sum_k K J K^dagger,
        its operator sum on the all-ones matrix J, so F_ij = sum_k d_ki d_kj
        over the Kraus diagonals d_k.  Each channel's F is taken at the
        reference time 1/rate, where it holds the same powers of g = e^(-1/2)
        for every rate (populations exactly 1, nothing below g^4 = e^(-2)),
        and adds -rate * ln F to E.  Channels with rate 0 add nothing.
        """
        dim = 1 << self.register_size
        ones = np.ones((dim, dim))
        exponents = np.zeros((dim, dim))
        for kind, rate in self.channels:
            if rate > 0:
                ks = kraus_for(kind, self.register_size, rate, 1.0 / rate)
                exponents -= rate * np.log(apply_kraus(ones, ks).real)
        exponents.flags.writeable = False
        return exponents


@dataclass(frozen=True)
class KrausSet:
    """Ordered decomposition operators of one trace-preserving diagonal channel.

    Row k of `operators`, a (k, dim) float array, is the diagonal d_k of
    the k-th operator K_k = diag(d_k).
    """

    operators: np.ndarray

    def __post_init__(self):
        operators = np.asarray(self.operators, dtype=float)
        if operators.ndim != 2:
            raise ValueError(
                f"operators must be a (k, dim) array of diagonals, got shape {operators.shape}"
            )
        object.__setattr__(self, "operators", operators)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def kraus_for(kind: ChannelKind, register_size: int, rate: float, t: float) -> KrausSet:
    """KrausSet of a channel kind at the given register size, rate and time.

    On its support subspace a local channel has the diagonals (1, g) and
    (0, w) with w = sqrt(1 - g^2); a collective channel on k qubits has
    (g, 1, ..., 1, g), (w1, 0, ..., 0, w2) and (0, ..., 0, w3), the
    ``omega_factors``.  Each is tensored with identity on the other qubits.
    """
    if not isinstance(kind, (Local, PairCollective, TripleCollective)):
        raise TypeError(f"unknown channel kind: {kind!r}")
    register = QUBITS[:register_size]
    if set(kind.support) - set(register):
        raise ValueError(f"channel {kind.label} acts outside the {register_size}-qubit register")
    g = gamma(rate, t)
    if isinstance(kind, Local):
        patterns = np.array([(1.0, g), (0.0, math.sqrt(1.0 - g * g))])
    else:
        patterns = np.zeros((3, 1 << len(kind.support)))
        patterns[0] = 1.0
        patterns[0, [0, -1]] = g
        w1, w2, w3 = omega_factors(rate, t)
        patterns[1, [0, -1]] = w1, w2
        patterns[2, -1] = w3
    return KrausSet(patterns[:, subspace_index(kind.support, register)])


def verify_completeness(ks: KrausSet) -> float:
    """Max deviation of sum_k K_k^dagger K_k = diag(sum_k d_k^2) from the identity."""
    return float(np.max(np.abs(np.sum(ks.operators**2, axis=0) - 1.0)))


def apply_kraus(rho: np.ndarray, ks: KrausSet) -> np.ndarray:
    """Operator sum sum_k K rho K^dagger, elementwise: sum_k d_k[:, None] * rho * d_k[None, :].

    Refuses sets whose completeness deviation exceeds COMPLETENESS_LIMIT or is NaN.
    """
    mat = np.asarray(rho)
    if mat.shape != (ks.dim, ks.dim):
        raise ValueError(f"state of shape {mat.shape} does not match operators of dim {ks.dim}")
    deviation = verify_completeness(ks)
    if not deviation <= COMPLETENESS_LIMIT:  # a NaN deviation is refused too
        raise ValueError(f"Kraus set violates completeness by {deviation:.3e}")
    out = np.zeros(mat.shape, dtype=complex)
    for d in ks.operators:
        out += d[:, None] * mat * d[None, :]
    return out


def evolve(rho0, scenario: NoiseScenario, t):
    """State at time t under every channel of the scenario, rho0 * exp(-t E).

    E is ``scenario.exponents``; the channels commute, so their
    order does not matter.  `rho0` is a ``DensityMatrix`` or a (..., dim, dim)
    stack; for a stack, `t` may be an array of times that broadcasts against
    it, e.g. ``times[:, None, None]`` takes (N, 1, dim, dim) to (N, T, dim, dim).
    """
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    dim = 1 << scenario.register_size
    is_state = hasattr(rho0, "matrix")
    mat = rho0.matrix if is_state else np.asarray(rho0)
    if (mat.shape if is_state else mat.shape[-2:]) != (dim, dim):
        raise ValueError(
            f"state of shape {mat.shape} does not match a {scenario.register_size}-qubit scenario"
        )
    out = mat.astype(complex) * np.exp(-times * scenario.exponents)
    return replace(rho0, matrix=out) if is_state else out
