"""Initial states of the studied entanglement classes and their closed-form evolution.

Two-qubit classes live in the basis |1..4> = |++>, |+->, |-+>, |-->; the
three-qubit classes in |1..8> = |000> .. |111> (A the leftmost factor in
both).  One table below defines the seven classes: each class's coefficient
slots, the basis indices they sit on and its register; ``STATE_TYPES``
indexes it by name.  ``pure_matrices`` is the one outer product |v><v|, of
one amplitude vector or a stack.  ``analytic_factors`` builds the published
elementwise decay factors at many times at once and ``analytic_evolved`` the
state at one, an independent reference for the Kraus evolution in
:mod:`dephasim.channels`.  ``check_density`` validates one density matrix or a
stack of them, so a stack of projectors times its factors is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass
from itertools import combinations
from typing import ClassVar

import numpy as np

from .channels import ChannelKind, Local, NoiseScenario, PairCollective, TripleCollective, gamma
from .errors import UnsupportedScenarioError
from .linalg import QUBITS, partial_trace, subspace_index

#: largest deviation of a density matrix's trace from 1 (and so of a pure
#: state's sum |c|^2) that projector and DensityMatrix accept.
NORMALIZATION_TOL = 1e-12


def check_density(mat: np.ndarray) -> None:
    """Raise ValueError unless each (d, d) slice of a stack is finite, Hermitian, unit-trace, PSD."""
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a non-finite entry")
    if abs(mat - mat.swapaxes(-1, -2).conj()).max() > 1e-12:
        raise ValueError("matrix is not Hermitian within 1e-12")
    trace = np.trace(mat, axis1=-2, axis2=-1)
    bad = (abs(trace.real - 1.0) > NORMALIZATION_TOL) | (abs(trace.imag) > NORMALIZATION_TOL)
    if bad.any():
        raise ValueError(f"trace is {np.asarray(trace)[bad][0]:.15g}, expected 1")
    if np.linalg.eigvalsh(mat).min() < -1e-10:
        raise ValueError("matrix has an eigenvalue below -1e-10")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a qubit register."""

    matrix: np.ndarray
    register: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "register", tuple(self.register))
        if (
            any(q not in QUBITS for q in self.register)
            or len(set(self.register)) != len(self.register)
            or tuple(sorted(self.register, key=QUBITS.index)) != self.register
        ):
            raise ValueError(f"bad register {self.register!r}")
        dim = 1 << len(self.register)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match register {self.register}")
        check_density(mat)


class StateSpec:
    """Pure state of one entanglement class, given by its coefficient slots.

    Each class is a frozen dataclass whose fields are its slots, with the
    class name, the basis indices of the slots and the register attached.
    """

    name: ClassVar[str]
    support: ClassVar[tuple[int, ...]]
    register: ClassVar[tuple[str, ...]]

    def amplitudes(self) -> np.ndarray:
        v = np.zeros(1 << len(self.register), dtype=complex)
        v[list(self.support)] = [getattr(self, f.name) for f in fields(self)]
        return v


def _state_class(
    type_name: str, name: str, slot_names: str, support: tuple[int, ...], n_qubits: int, doc: str
):
    return make_dataclass(
        type_name,
        [(slot, complex) for slot in slot_names.split()],
        bases=(StateSpec,),
        frozen=True,
        namespace={
            "__doc__": doc,
            "__module__": __name__,
            "name": name,
            "support": support,
            "register": QUBITS[:n_qubits],
        },
    )


# The seven classes: slots, the (0-based) basis indices they sit on, register size.
Fragile = _state_class(
    "Fragile", "fragile", "a b d", (0, 1, 3), 2,
    "Two-qubit class losing every coherence under collective dephasing.",
)
Fragile2 = _state_class(
    "Fragile2", "fragile2", "a c d", (0, 2, 3), 2,
    "Mirror form of the fragile class (support on |1>, |3>, |4>).",
)
Robust = _state_class(
    "Robust", "robust", "a b c", (0, 1, 2), 2,
    "Two-qubit class keeping some coherence (and all entanglement) under collective dephasing.",
)
Robust2 = _state_class(
    "Robust2", "robust2", "b c d", (1, 2, 3), 2,
    "Mirror form of the robust class (support on |2>, |3>, |4>).",
)
GenericPure = _state_class(
    "GenericPure", "generic", "a b c d", (0, 1, 2, 3), 2, "Arbitrary two-qubit pure state."
)
WState = _state_class(
    "WState", "w", "a1 a2 a4", (1, 2, 4), 3,
    "Three-qubit W class: support on |001>, |010>, |100>.",
)
GHZState = _state_class(
    "GHZState", "ghz", "a0 a7", (0, 7), 3, "Three-qubit GHZ class: support on |000> and |111>."
)

#: every state class by name, in the order the CLI and presets list them.
STATE_TYPES: dict[str, type[StateSpec]] = {
    cls.name: cls for cls in (Fragile, Fragile2, Robust, Robust2, GenericPure, WState, GHZState)
}


def slots(cls: type[StateSpec]) -> tuple[str, ...]:
    """Coefficient slots of a state class, in constructor order."""
    return tuple(f.name for f in fields(cls))


def pure_matrices(amplitudes: np.ndarray) -> np.ndarray:
    """|v><v| of each amplitude vector on the last axis of `amplitudes`, unchecked."""
    return amplitudes[..., :, None] * amplitudes[..., None, :].conj()


def projector(spec: StateSpec) -> DensityMatrix:
    """Rank-1 density matrix of the pure state described by `spec`."""
    amplitudes = spec.amplitudes()
    if not np.isfinite(amplitudes).all():  # refused before the outer product can warn
        raise ValueError("coefficients must be finite")
    rho = pure_matrices(amplitudes)
    norm_sq = float(np.trace(rho).real)  # the trace DensityMatrix checks
    if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"coefficients are not normalized: sum |c|^2 = {norm_sq:.17g}")
    return DensityMatrix(rho, spec.register)


def _channel_factor(kind: ChannelKind, register: tuple[str, ...], g: float) -> np.ndarray:
    """Elementwise decay factor of one channel at g = gamma(rate, t).

    Row and column are read by their values on the channel's support.  A
    local channel gives g between its qubit's two values.  A collective one
    gives g where exactly one end is a corner of the support (all 0 or all 1)
    and g**4 between the two corners.  Every other factor is 1.
    """
    if not isinstance(kind, (Local, PairCollective, TripleCollective)):
        raise UnsupportedScenarioError(f"no closed-form factors for channel {kind!r}")
    sub = subspace_index(kind.support, register)
    if isinstance(kind, Local):
        return np.where(sub[:, None] != sub[None, :], g, 1.0)
    # the corners at -1 and 1, the rest at 0: a step of 1 takes g, a step of 2 g**4
    end = (sub == (1 << len(kind.support)) - 1).astype(int) - (sub == 0)
    return np.array([1.0, g, g**4])[abs(end[:, None] - end[None, :])]


def analytic_factors(scenario: NoiseScenario, register: tuple[str, ...], times) -> np.ndarray:
    """(T, d, d) published elementwise decay factors of the scenario at each of `times`.

    Coherence (i, j) at time t is multiplied by the product of its per-channel
    factors at gamma(rate, t); populations are untouched.
    """
    if len(register) != scenario.register_size:
        raise ValueError(
            f"state register {register} does not match a {scenario.register_size}-qubit scenario"
        )
    if scenario.allow_overlap:
        raise UnsupportedScenarioError(
            "overlapping-support scenarios have no closed-form reference"
        )
    dim = 1 << len(register)
    factors = np.ones((len(times), dim, dim))
    # scalar gamma per time: np.exp over all times may differ in the last bit
    for factor, t in zip(factors, times):
        for kind, rate in scenario.channels:
            factor *= _channel_factor(kind, register, gamma(rate, t))
    return factors


def analytic_evolved(spec: StateSpec, scenario: NoiseScenario, t: float) -> DensityMatrix:
    """Closed-form state at time t, an independent reference for the operator-sum `evolve`."""
    # checked once, as the result: the factors' diagonal is 1, so its trace is sum |c|^2
    factor = analytic_factors(scenario, spec.register, [t])[0]
    return DensityMatrix(pure_matrices(spec.amplitudes()) * factor, spec.register)


def reduced_stacks(stack: np.ndarray, register: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Every matrix of the register, keyed by kept qubits: "AB" or "ABC", the singles, the pairs.

    The full register comes first, then each single qubit, then, on three
    qubits, each pair in A < B < C order; on two qubits the one pair is the
    register, and its trace, `stack`'s values, keeps the first place.  Leading
    batch axes pass through.  A single qubit is traced from its first pair (A,
    B from AB, C from AC): `partial_trace` removes the highest position first,
    so that adds what a trace of `stack` adds, in order.
    """
    pairs = {"".join(p): partial_trace(stack, p, register) for p in combinations(register, 2)}
    first = {q: next(pair for pair in pairs if q in pair) for q in register}
    singles = {q: partial_trace(pairs[pair], (q,), pair) for q, pair in first.items()}
    return {"".join(register): stack, **singles, **pairs}
