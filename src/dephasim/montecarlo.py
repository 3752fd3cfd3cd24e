"""Monte Carlo cross-check of the channels by stochastic diagonal unitaries.

Each trajectory draws one white-noise phase per field as a Gaussian random
walk (per-step variance rate * dt, so the distribution of the accumulated
phase is exact for any dt) and rotates the initial state by the resulting
diagonal unitary.  Trajectories are drawn in blocks of BLOCK from one
generator seeded by the run's seed, each block one broadcast; averaging
reproduces the local and pair-collective channels.  The triple-collective
operators are a documented exception and are only compared on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import ChannelKind, Local, NoiseScenario, PairCollective, decay_exponents, evolve
from .errors import EquivalenceNotEstablishedError
from .linalg import QUBITS, element_key, frobenius_distance, subspace_index
from .states import StateSpec, projector

#: acceptance thresholds of compare_to_channel
DISTANCE_FACTOR = 5.0
Z_LIMIT = 4.0

#: largest accepted run: trajectories, and phase-walk steps t_final / dt
MAX_TRAJECTORIES = 10_000_000
MAX_STEPS = 100_000

#: trajectories drawn and accumulated in one broadcast; bounds a run's memory
BLOCK = 1024


@dataclass(frozen=True)
class TrajectoryConfig:
    """Size, step, seed and horizon of a Monte Carlo run."""

    n_trajectories: int
    dt: float
    seed: int
    t_final: float

    def __post_init__(self):
        if not 1 <= self.n_trajectories <= MAX_TRAJECTORIES:
            raise ValueError(
                f"n_trajectories must be in [1, {MAX_TRAJECTORIES}], got {self.n_trajectories}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and positive, got {self.t_final}")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if self.t_final / self.dt > MAX_STEPS:
            raise ValueError(f"dt must be at least t_final / {MAX_STEPS}, got {self.dt}")


def _half_sz_sum(kind: ChannelKind, register: tuple[str, ...]) -> np.ndarray:
    """Half the sigma_z sum eigenvalue of each basis state on the field support."""
    missing = set(kind.support) - set(register)
    if missing:
        raise ValueError(f"field support {kind.support} outside register {register}")
    return 0.5 * sum(1.0 - 2.0 * subspace_index((q,), register) for q in kind.support)


def _step_stds(rates: np.ndarray, dt: float, t_final: float) -> np.ndarray:
    """(steps, fields) standard deviations of the phase walks; a field's variances sum to rate*t."""
    n_full = int(math.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    durations = np.full(n_full + (rem > 1e-12 * t_final), dt)
    durations[n_full:] = rem
    return np.sqrt(np.multiply.outer(durations, rates))


@dataclass(frozen=True)
class MonteCarloStats:
    """Trajectory mean with elementwise variances of its real and imaginary parts."""

    mean: np.ndarray
    var_re: np.ndarray
    var_im: np.ndarray
    n_trajectories: int


def simulate_statistics(
    rho0, fields: Sequence[tuple[ChannelKind, float]], cfg: TrajectoryConfig
) -> MonteCarloStats:
    """Average of U rho0 U^dagger over the trajectory ensemble.

    `fields` are (ChannelKind, rate) pairs, as in `NoiseScenario.channels`.
    Deterministic for a given seed: one generator seeded with cfg.seed draws
    the trajectories in blocks of BLOCK, one (block, fields) array of normals
    per step of the walk, and the blocks accumulate in order.
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

    charges = np.array([_half_sz_sum(kind, register) for kind, _ in fields]).reshape(-1, dim)
    stds = _step_stds(np.array([rate for _, rate in fields], dtype=float), cfg.dt, cfg.t_final)

    rng = np.random.default_rng(cfg.seed)
    acc = np.zeros((dim, dim), dtype=complex)
    acc_re2 = np.zeros((dim, dim))
    acc_im2 = np.zeros((dim, dim))
    for start in range(0, cfg.n_trajectories, BLOCK):
        phases = np.zeros((min(BLOCK, cfg.n_trajectories - start), len(charges)))
        for std in stds:
            phases += rng.standard_normal(phases.shape) * std
        theta = phases @ charges
        contrib = mat * np.exp(1j * (theta[:, :, None] - theta[:, None, :]))
        acc += contrib.sum(axis=0)
        acc_re2 += (contrib.real**2).sum(axis=0)
        acc_im2 += (contrib.imag**2).sum(axis=0)

    n = cfg.n_trajectories
    mean = acc / n
    # every trajectory carries the populations unchanged, so the average does too
    np.fill_diagonal(mean, np.diag(mat))
    # one trajectory leaves both numerators exactly 0
    var_re = np.clip((acc_re2 - n * mean.real**2) / max(n - 1, 1), 0.0, None)
    var_im = np.clip((acc_im2 - n * mean.imag**2) / max(n - 1, 1), 0.0, None)
    return MonteCarloStats(mean, var_re, var_im, n)


#: channel kinds whose operator sums provably equal the stochastic average.
EQUIVALENT_KINDS = (Local, PairCollective)


@dataclass(frozen=True)
class ChannelComparison:
    """Monte Carlo average versus operator-sum evolution at one time."""

    state_class: str
    scenario_label: str
    n_trajectories: int
    seed: int
    dt: float
    t_final: float
    distance: float
    expected_scale: float
    z_scores: np.ndarray
    max_z: float
    informational: bool
    mc_mean: np.ndarray
    channel_matrix: np.ndarray
    divergence: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return (
            self.distance <= DISTANCE_FACTOR * self.expected_scale
            and self.max_z <= Z_LIMIT
        )


def _z_matrix(dev: np.ndarray, var: np.ndarray, n: int) -> np.ndarray:
    se = np.sqrt(var / n)
    z = np.zeros_like(dev)
    live = se > 1e-14
    z[live] = np.abs(dev[live]) / se[live]
    z[~live & (np.abs(dev) > 1e-12)] = np.inf
    return z


def compare_to_channel(
    spec: StateSpec,
    scenario: NoiseScenario,
    cfg: TrajectoryConfig,
    force_informational: bool = False,
) -> ChannelComparison:
    """Distance and per-element z-scores between the two evolution routes.

    Scenarios containing a triple-collective channel are refused unless
    force_informational is set, in which case the known elementwise
    divergence between the stochastic average and the channel operators
    is quantified in the result instead of being treated as a failure.
    """
    informational = any(not isinstance(kind, EQUIVALENT_KINDS) for kind, _ in scenario.channels)
    if informational and not force_informational:
        raise EquivalenceNotEstablishedError(
            "scenario includes a triple-collective channel, for which the "
            "stochastic average and the channel operators are known to differ; "
            "pass force_informational=True to compare anyway"
        )
    rho0 = projector(spec)
    stats = simulate_statistics(rho0.matrix, scenario.channels, cfg)
    exact = evolve(rho0.matrix, scenario, cfg.t_final)
    dev = stats.mean - exact
    z = np.maximum(
        _z_matrix(dev.real, stats.var_re, stats.n_trajectories),
        _z_matrix(dev.imag, stats.var_im, stats.n_trajectories),
    )

    divergence: list[dict] = []
    if informational:
        register = QUBITS[: scenario.register_size]
        # phase diffusion decays coherence (i, j) at rate * (h_i - h_j)^2 / 2
        # per field, h being half the sigma_z sum on the field support
        half = [(rate, _half_sz_sum(kind, register)) for kind, rate in scenario.channels]
        stochastic_exponents = sum(rate * np.subtract.outer(h, h) ** 2 / 2.0 for rate, h in half)
        stochastic = np.exp(-cfg.t_final * stochastic_exponents)
        channel = np.exp(-cfg.t_final * decay_exponents(scenario))
        differs = (np.abs(rho0.matrix) > 1e-15) & (np.abs(stochastic - channel) > 1e-12)
        for i, j in zip(*np.nonzero(np.triu(differs, 1))):
            divergence.append(
                {
                    "element": element_key(i, j),
                    "stochastic_factor": float(stochastic[i, j]),
                    "channel_factor": float(channel[i, j]),
                }
            )

    return ChannelComparison(
        state_class=spec.name,
        scenario_label=scenario.label,
        n_trajectories=cfg.n_trajectories,
        seed=cfg.seed,
        dt=cfg.dt,
        t_final=cfg.t_final,
        distance=frobenius_distance(stats.mean, exact),
        expected_scale=1.0 / math.sqrt(cfg.n_trajectories),
        z_scores=z,
        max_z=float(np.max(z)) if z.size else 0.0,
        informational=informational,
        mc_mean=stats.mean,
        channel_matrix=exact,
        divergence=tuple(divergence),
    )
