"""Exact decay timescales and the disentanglement-vs-decoherence audit.

Every coherence (i, j) decays as exp(-E_ij t), E being the scenario's
exponent matrix, so its e-folding time is read from E.  The concurrence C of
a pair falls toward the concurrence C_inf of rho0 masked to E_ij = 0; its
time is the first t at which C - C_inf = (C0 - C_inf)/e, found on the exact
evolution.  ``build_report`` reduces the sampled evolution, rho0 * [E = 0],
E and a count on rho0's nonzero terms in one pass, reads every matrix's
coherence times from the last two, takes every pair's curve and limit in one
concurrence call, and refines all of its crossings in one batched Illinois
regula falsi.  A report depends on the state and the scenario alone: its
crossings are bracketed on ``default_grid``, and the published values are
looked up and measured in :mod:`dephasim.presets`.  The audit checks, pair
by pair, that entanglement never outlives the slowest decaying coherence at
any scale.  ``fit_exponential`` is kept as an independent cross-check of the
exact values on sampled curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .channels import SCALE_RANGE, NoiseScenario, evolve
from .entanglement import concurrence_curve
from .linalg import UPPER, partial_trace
from .states import StateSpec, projector, reduced_stacks

#: magnitudes at or below this are treated as exact zeros.
ZERO_FLOOR = 1e-13

#: relative slack when comparing exact timescales (handles exact-equality cases).
AUDIT_TOL = 1e-12

#: largest accepted time grid.
MAX_SAMPLES = 100_000

#: samples of the default time grid.
DEFAULT_SAMPLES = 64

#: fit_exponential treats a curve whose relative variation is below this as constant.
FLAT_THRESHOLD = 1e-9

#: a crossing is found once value - level is this fraction of value(0) - level;
#: at most MAX_REFINE_STEPS regula falsi steps refine it.
CROSSING_TOL = 1e-14
MAX_REFINE_STEPS = 100


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [0, t_max]."""

    t_max: float
    n_samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        low, high = SCALE_RANGE
        if not low <= self.t_max <= high:
            raise ValueError(f"t_max must be in [{low:g}, {high:g}], got {self.t_max!r}")
        if self.n_samples < 8:
            raise ValueError(f"n_samples must be at least 8, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {self.n_samples}")

    @cached_property
    def times(self) -> np.ndarray:
        """The sample times, built on first read and shared read-only after."""
        times = np.linspace(0.0, self.t_max, self.n_samples)
        times.flags.writeable = False
        return times


def default_grid(scenario: NoiseScenario) -> TimeGrid:
    """DEFAULT_SAMPLES uniform samples on [0, 3 / min active rate], within SCALE_RANGE."""
    rate = scenario.min_rate
    return TimeGrid(min(3.0 / rate, SCALE_RANGE[1]) if rate > 0 else 3.0, DEFAULT_SAMPLES)


@dataclass(frozen=True)
class Trajectory:
    """Sampled nonnegative magnitude over strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")


@dataclass(frozen=True)
class FitResult:
    """Exponential fit value(t) ~ amplitude * exp(-t / tau).

    For flat trajectories is_constant is set, tau is infinite and the
    residual measures the relative flatness instead of the fit error.
    """

    tau: float
    amplitude: float
    residual: float
    is_constant: bool
    non_monotone: bool = False

    @property
    def decays(self) -> bool:
        return not self.is_constant and math.isfinite(self.tau)


def fit_exponential(traj: Trajectory) -> FitResult:
    """Fit ln(value) against t over the samples above the zero floor.

    A cross-check of the exact timescales; no report depends on it.
    """
    values = traj.values
    if values.size < 8:
        raise ValueError(f"need at least 8 samples, got {values.size}")
    if np.min(values) < 0:
        raise ValueError("values must be nonnegative")
    peak = float(np.max(values))
    if peak <= ZERO_FLOOR:
        return FitResult(math.inf, 0.0, 0.0, True)
    variation = float((peak - np.min(values)) / peak)
    if variation < FLAT_THRESHOLD:
        return FitResult(math.inf, float(np.mean(values)), variation, True)
    rises = np.diff(values)
    non_monotone = bool(np.max(rises, initial=0.0) > 1e-9 * peak)
    usable = values > ZERO_FLOOR
    if int(usable.sum()) < 8:
        raise ValueError("too few usable samples above the zero floor")
    slope, intercept = np.polyfit(traj.times[usable], np.log(values[usable]), 1)
    fitted = slope * traj.times[usable] + intercept
    residual = float(np.sqrt(np.mean((np.log(values[usable]) - fitted) ** 2)))
    tau = -1.0 / slope if slope < 0 else math.inf
    return FitResult(float(tau), float(math.exp(intercept)), residual, False, non_monotone)


@dataclass(frozen=True)
class Timescale:
    """Exact e-folding time of a curve that starts at `amplitude`; inf if it does not decay.

    Concurrence rows also carry `limit`, the value as t -> infinity; their
    tau is the e-folding time of value - limit.
    """

    tau: float
    amplitude: float
    limit: Optional[float] = None

    @property
    def decays(self) -> bool:
        return math.isfinite(self.tau)


@dataclass(frozen=True)
class TimescaleReport:
    """Timescales of every coherence element and concurrence for one run.

    `coherence_taus` holds every matrix of the register, keyed by kept qubits
    as `states.reduced_stacks` orders them (the full register, the singles,
    the pairs below it), each mapping its upper elements ("rho_12", ...) to
    their timescales.  The concurrence maps are keyed by pair.
    """

    state_class: str
    scenario_label: str
    register: tuple[str, ...]
    coherence_taus: dict[str, dict[str, Timescale]]
    concurrence_taus: dict[str, Timescale]
    concurrence_sq_taus: dict[str, Timescale]


def _coherence_taus(rho0: np.ndarray, exponents: np.ndarray) -> dict[str, Timescale]:
    """1 / exponent and |rho0_ij| of every upper off-diagonal element of one matrix."""
    rows, cols, keys = UPPER[len(rho0)]
    amplitude = np.abs(rho0[rows, cols])
    rates = exponents[rows, cols]
    live = (rates > 0) & (amplitude > ZERO_FLOOR)
    tau = np.divide(1.0, rates, out=np.full(rates.shape, math.inf), where=live)
    return {key: Timescale(t, a) for key, t, a in zip(keys, tau.tolist(), amplitude.tolist())}


def _crossings(rho0, scenario, pairs, levels, times, samples) -> np.ndarray:
    """First t at which each pair's C on ``evolve(rho0, scenario, t)`` falls to its level.

    Job k is pairs[k], levels[k] and samples[k], that pair's C over `times`.
    Its first sample at or below the level and the one before it bracket the
    crossing; when no sample is, t doubles past the grid until C(t) is.
    Illinois regula falsi then refines every bracket together, one exact C
    per unconverged job and step; each job's result is its evaluated t
    nearest the level, the same bits as when it is refined alone.
    """
    pairs, levels, register = list(pairs), np.asarray(levels, dtype=float), scenario.register

    def f(t, jobs):
        """C - level of each of `jobs` at its t: one partial trace per pair, one C call."""
        evolved = evolve(rho0, scenario, t[:, None, None])
        by_pair: dict[tuple[str, ...], list[int]] = {}
        for k, job in enumerate(jobs.tolist()):
            by_pair.setdefault(pairs[job], []).append(k)
        reduced = [partial_trace(evolved[ks], pair, register) for pair, ks in by_pair.items()]
        c = np.empty(len(jobs))
        c[[k for ks in by_pair.values() for k in ks]] = concurrence_curve(np.concatenate(reduced))
        return c - levels[jobs]

    f_samples = samples - levels[:, None]
    first = np.argmax(f_samples <= 0, axis=1)  # 0 where no sample is at or below the level
    rows = np.arange(len(levels))
    lo, hi = times[first - 1], times[first]
    f_lo, f_hi = f_samples[rows, first - 1], f_samples[rows, first]
    doubling = np.flatnonzero(first == 0)  # their lo and f_lo are already the last sample
    hi[doubling] = 2.0 * times[-1]
    while doubling.size:
        f_hi[doubling] = f(hi[doubling], doubling)
        doubling = doubling[f_hi[doubling] > 0]
        lo[doubling], f_lo[doubling] = hi[doubling], f_hi[doubling]
        hi[doubling] *= 2.0

    # brackets, best evaluated (|f|, t) and last kept side of the unconverged
    # jobs `live`, compacted as jobs converge; `out` takes each job's best t
    out = np.empty(len(levels))
    live, tol = rows, CROSSING_TOL * f_samples[:, 0]
    best_f, best_t = _nearer(np.abs(f_lo), lo, f_hi, hi)
    side = np.zeros(len(levels))
    for _ in range(MAX_REFINE_STEPS):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        go = ~(best_f <= tol) & (lo < t) & (t < hi)
        if not go.all():
            out[live[~go]] = best_t[~go]
            live, t, lo, hi, f_lo, f_hi = live[go], t[go], lo[go], hi[go], f_lo[go], f_hi[go]
            tol, best_f, best_t, side = tol[go], best_f[go], best_t[go], side[go]
        if not live.size:
            break
        value = f(t, live)
        best_f, best_t = _nearer(best_f, best_t, value, t)
        # Illinois: an end kept twice in a row has its value halved
        rise = value > 0
        f_lo = np.where(rise, value, np.where(side == -1, f_lo / 2.0, f_lo))
        f_hi = np.where(rise, np.where(side == 1, f_hi / 2.0, f_hi), value)
        lo, hi, side = np.where(rise, t, lo), np.where(rise, hi, t), np.where(rise, 1, -1)
    out[live] = best_t
    return out


def _nearer(best_f, best_t, f, t):
    """Elementwise the smaller of (best_f, best_t) and (|f|, t), compared as tuples."""
    f = np.abs(f)
    better = (f < best_f) | ((f == best_f) & (t < best_t))
    return np.where(better, f, best_f), np.where(better, t, best_t)


def sample_evolution(spec: StateSpec, scenario: NoiseScenario, grid: TimeGrid) -> np.ndarray:
    """Evolution of `spec` over the grid, rho0 * exp(-t E) in one broadcast; shape (T, dim, dim)."""
    return evolve(projector(spec).matrix, scenario, grid.times[:, None, None])


def build_report(spec: StateSpec, scenario: NoiseScenario) -> TimescaleReport:
    """Exact timescales of every coherence and concurrence of `spec` under `scenario`.

    Coherence taus are read from E.  Each pair's concurrence taus are found
    on the exact curve, bracketed by the curve sampled over the default grid.
    """
    if len(spec.register) != scenario.register_size:
        raise ValueError(
            f"state register {spec.register} does not match a "
            f"{scenario.register_size}-qubit scenario"
        )
    grid = default_grid(scenario)
    register = spec.register
    stack = sample_evolution(spec, scenario, grid)
    rho0 = stack[0]  # every grid starts at t = 0
    exponents = scenario.exponents
    live = rho0 != 0
    # one reduction pass: the samples, then rho0 masked to E = 0 (the t -> inf
    # limit), and last E and a count over the nonzero terms of rho0, not states
    reduced = reduced_stacks(
        np.concatenate([stack, [rho0 * (exponents == 0), live * exponents, live]]), register
    )
    # an element has at most two nonzero terms and they share one exponent (a
    # test pins this), so their summed E over their count is that E, bit for bit
    coherence_taus = {}
    for label, red in reduced.items():
        summed, terms = red[-2].real, red[-1].real
        rates = np.divide(summed, terms, out=np.zeros_like(summed), where=terms > 0)
        coherence_taus[label] = _coherence_taus(red[0], rates)

    # the C**p tau is the first t at which C falls to the p-th root of
    # C_inf**p + (C0**p - C_inf**p) / e; inf if C0**p - C_inf**p is within the zero floor
    labels = [label for label in reduced if len(label) == 2]
    pairs = [tuple(label) for label in labels]
    curves = concurrence_curve(np.stack([reduced[label][:-2] for label in labels]))
    ends = {
        (p, power): (c0**power, c_inf**power)
        for p, (c0, c_inf) in enumerate(zip(curves[:, 0].tolist(), curves[:, -1].tolist()))
        for power in (1, 2)
    }
    levels = {
        (p, power): (limit + (start - limit) / math.e) ** (1.0 / power)
        for (p, power), (start, limit) in ends.items()
        if start - limit > ZERO_FLOOR
    }
    which = [p for p, _ in levels]
    crossed = _crossings(
        rho0, scenario, [pairs[p] for p in which], list(levels.values()), grid.times,
        curves[which, :-1],
    )
    taus = {**dict.fromkeys(ends, math.inf), **dict(zip(levels, crossed.tolist()))}
    concurrence_taus, concurrence_sq_taus = (
        {label: Timescale(taus[p, power], *ends[p, power]) for p, label in enumerate(labels)}
        for power in (1, 2)
    )

    return TimescaleReport(
        state_class=spec.name,
        scenario_label=scenario.label,
        register=register,
        coherence_taus=coherence_taus,
        concurrence_taus=concurrence_taus,
        concurrence_sq_taus=concurrence_sq_taus,
    )


def _decaying(taus: dict[str, Timescale]) -> list[float]:
    """Taus of the rows that decay."""
    return [row.tau for row in taus.values() if row.decays]


@dataclass(frozen=True)
class PairAudit:
    """Verdict for one qubit pair: PASS, FAIL or VACUOUS (nothing decays)."""

    pair: str
    verdict: str
    tau_dis: Optional[float] = None
    tau_bound: Optional[float] = None
    margin: Optional[float] = None


@dataclass(frozen=True)
class AuditResult:
    state_class: str
    scenario_label: str
    pairs: tuple[PairAudit, ...]

    @property
    def overall(self) -> str:
        verdicts = {p.verdict for p in self.pairs}
        if "FAIL" in verdicts:
            return "FAIL"
        if "PASS" in verdicts:
            return "PASS"
        return "VACUOUS"


def audit_inequality(report: TimescaleReport) -> AuditResult:
    """Check tau_dis <= slowest decaying coherence tau, per pair and per scale.

    The disentanglement time is the e-folding time of the concurrence itself
    toward its limit (the stricter of the two conventions).  For every scale
    that has at least one decaying coherence element (full register, the
    pair's reduced matrix, the pair members' single-qubit reductions), the
    bound is that scale's slowest element; the pair passes if tau_dis stays
    at or below every applicable bound.
    """
    full = "".join(report.register)
    results = []
    for pair, dis in report.concurrence_taus.items():
        if not dis.decays:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        # the register and every matrix inside the pair, one scale per size
        scales: dict[int, list[float]] = {}
        for label, taus in report.coherence_taus.items():
            if label == full or set(label) <= set(pair):
                scales.setdefault(len(label), []).extend(_decaying(taus))
        bounds = [max(taus) for taus in scales.values() if taus]
        if not bounds:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        bound = min(bounds)
        verdict = "PASS" if dis.tau <= bound * (1.0 + AUDIT_TOL) else "FAIL"
        results.append(PairAudit(pair, verdict, dis.tau, bound, bound / dis.tau))
    return AuditResult(report.state_class, report.scenario_label, tuple(results))
