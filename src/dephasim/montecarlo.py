"""Monte Carlo cross-check of the channels by stochastic diagonal unitaries.

A white-noise field of a given rate accumulates a phase distributed exactly
as N(0, rate * t) by time t, so each trajectory draws that phase once per
field and rotates the initial state by the resulting diagonal unitary.
Trajectories are drawn in blocks of BLOCK from one generator seeded by the
run's seed, each block one broadcast.  One charge rule covers every channel
kind: a field puts +h on the all-0 corner of its support, -h on the all-1
corner and 0 elsewhere, with h = 1/2 for a local field and 1 for a
collective one (Palma, Suominen & Ekert 1996; Duan & Guo 1997), so the
average reproduces every channel.  The comparison estimates nothing but the
mean: under the channel the variance of each component follows from the
exponent matrix E, and a Bonferroni threshold gives the verdict the
family-wise false-alarm rate ALPHA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .channels import SCALE_RANGE, ChannelKind, Local, NoiseScenario, evolve
from .linalg import QUBITS, UPPER, frobenius_distance, subspace_index
from .states import StateSpec, projector

#: family-wise false-alarm rate of compare_to_channel's verdict
ALPHA = 1e-3

#: a component whose standard error is at most SE_FLOOR is not live: a mean
#: of n terms carries roundoff of that order, so its z-score would measure
#: roundoff; it is flagged only when it moves by more than ROUNDOFF
SE_FLOOR = 1e-14
ROUNDOFF = 1e-12

#: largest accepted run
MAX_TRAJECTORIES = 10_000_000

#: trajectories drawn and accumulated in one broadcast; bounds a run's memory
BLOCK = 1024


@dataclass(frozen=True)
class TrajectoryConfig:
    """Size, seed and horizon of a Monte Carlo run."""

    n_trajectories: int
    seed: int
    t_final: float

    def __post_init__(self):
        if not 1 <= self.n_trajectories <= MAX_TRAJECTORIES:
            raise ValueError(
                f"n_trajectories must be in [1, {MAX_TRAJECTORIES}], got {self.n_trajectories}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        low, high = SCALE_RANGE
        if not low <= self.t_final <= high:
            raise ValueError(f"t_final must be in [{low:g}, {high:g}], got {self.t_final!r}")


def _charges(kind: ChannelKind, register: tuple[str, ...]) -> np.ndarray:
    """Each basis state's charge under a field: +h on its support's all-0 corner, -h on all-1."""
    missing = set(kind.support) - set(register)
    if missing:
        raise ValueError(f"field support {kind.support} outside register {register}")
    index = subspace_index(kind.support, register)
    h = 0.5 if isinstance(kind, Local) else 1.0
    return h * (1.0 * (index == 0) - (index == (1 << len(kind.support)) - 1))


def simulate_statistics(
    rho0, fields: Sequence[tuple[ChannelKind, float]], cfg: TrajectoryConfig
) -> np.ndarray:
    """Average of U rho0 U^dagger over the trajectory ensemble.

    `fields` are (ChannelKind, rate) pairs, as in `NoiseScenario.channels`.
    Deterministic for a given seed: one generator seeded with cfg.seed draws
    the trajectories in blocks of BLOCK, one (block, fields) array of
    accumulated phases per block, and the blocks accumulate in order.
    """
    mat = np.asarray(rho0.matrix if hasattr(rho0, "matrix") else rho0, dtype=complex)
    dim = mat.shape[0]
    n_qubits = dim.bit_length() - 1
    if mat.shape != (dim, dim) or 1 << n_qubits != dim or n_qubits not in (1, 2, 3):
        raise ValueError(f"state of shape {mat.shape} is not a 1-3 qubit register")
    register = QUBITS[:n_qubits]
    for _, rate in fields:
        if not 0 <= rate < math.inf:
            raise ValueError(f"rate must be finite and nonnegative, got {rate}")

    charges = np.array([_charges(kind, register) for kind, _ in fields]).reshape(-1, dim)
    stds = np.sqrt(np.array([rate for _, rate in fields], dtype=float) * cfg.t_final)
    # coherence (i, j) turns by sum_f phase_f (h_fi - h_fj): summed per field,
    # a weak field's phase survives beside a strong one that cancels on (i, j),
    # where the difference of two per-state sums would round it away
    rows, cols, _ = UPPER[dim]
    gaps = charges[:, rows] - charges[:, cols]
    coherences = mat[rows, cols]

    rng = np.random.default_rng(cfg.seed)
    acc = np.zeros(coherences.shape, dtype=complex)
    for start in range(0, cfg.n_trajectories, BLOCK):
        phases = rng.standard_normal((min(BLOCK, cfg.n_trajectories - start), len(stds))) * stds
        # in place: one block-sized temporary fewer for the allocator to map per block
        contrib = np.exp(1j * (phases @ gaps))
        acc += np.multiply(coherences, contrib, out=contrib).sum(axis=0)

    # every trajectory carries the populations unchanged, so the average does too;
    # rho0 is Hermitian, and so is every trajectory's state and their mean
    mean = np.diag(np.diag(mat))
    mean[rows, cols] = acc / cfg.n_trajectories
    mean[cols, rows] = mean[rows, cols].conj()
    return mean


@dataclass(frozen=True)
class ChannelComparison:
    """Monte Carlo average versus operator-sum evolution at one time.

    `expected_distance` is the root-mean-square distance under the channel;
    `z_limit` is the Bonferroni threshold for ALPHA over the live components.
    """

    state_class: str
    scenario_label: str
    n_trajectories: int
    seed: int
    t_final: float
    distance: float
    expected_distance: float
    z_scores: np.ndarray
    max_z: float
    z_limit: float
    mc_mean: np.ndarray
    channel_matrix: np.ndarray

    @property
    def passed(self) -> bool:
        return self.max_z <= self.z_limit


def compare_to_channel(
    spec: StateSpec, scenario: NoiseScenario, cfg: TrajectoryConfig
) -> ChannelComparison:
    """Distance and per-element z-scores between the two evolution routes."""
    t = cfg.t_final
    exponents = scenario.exponents
    rho0 = projector(spec).matrix
    exact = evolve(rho0, scenario, t)
    mean = simulate_statistics(rho0, scenario.channels, cfg)
    diff = mean - exact
    dev = np.abs(np.stack([diff.real, diff.imag]))

    # one trajectory carries rho_ij e^(i Delta), Delta ~ N(0, 2 t E_ij); with
    # b = 1 - e^(-2tE) its parts have Var Re = b (|rho|^2 - (1 - b) Re rho^2) / 2
    # and Var Im = b (|rho|^2 + (1 - b) Re rho^2) / 2, here as nonnegative terms
    b = -np.expm1(-2.0 * t * exponents)
    re2, im2 = rho0.real**2, rho0.imag**2
    var = np.stack([b * (re2 * b + im2 * (2.0 - b)), b * (re2 * (2.0 - b) + im2 * b)]) / 2.0
    n = cfg.n_trajectories
    se = np.sqrt(var / n)
    live = se > SE_FLOOR
    z = np.where(live, dev / np.where(live, se, 1.0), np.where(dev > ROUNDOFF, np.inf, 0.0))
    rows, cols, _ = UPPER[len(rho0)]
    upper_live = live[:, rows, cols]
    return ChannelComparison(
        state_class=spec.name,
        scenario_label=scenario.label,
        n_trajectories=n,
        seed=cfg.seed,
        t_final=t,
        distance=frobenius_distance(mean, exact),
        # the mean squared distance counts each upper component twice
        expected_distance=math.sqrt(2.0 * float(var[:, rows, cols].sum()) / n),
        z_scores=z.max(axis=0),
        max_z=float(z.max()),
        z_limit=NormalDist().inv_cdf(1.0 - ALPHA / (2 * max(np.count_nonzero(upper_live), 1))),
        mc_mean=mean,
        channel_matrix=exact,
    )
