"""Decay-timescale extraction and the disentanglement-vs-decoherence audit.

Trajectories of coherence magnitudes and concurrence are fitted to single
exponentials by log-linear regression; the fitted e-folding times are
compared against the published symbolic values and against each other.
The audit checks, pair by pair, that entanglement never outlives the
slowest decaying coherence at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import NoiseScenario, evolve
from .entanglement import concurrence_curve
from .errors import UnsupportedScenarioError
from .linalg import QUBITS, element_key
from .presets import PAPER_TAUS, scenario_layout
from .states import StateSpec, projector, qubit_pairs, reduced_stacks, reduced_subsets

#: trajectory samples at or below this magnitude are treated as exact zeros.
ZERO_FLOOR = 1e-13

#: relative slack when comparing fitted timescales (handles exact-equality cases).
AUDIT_TOL = 1e-6

#: largest accepted time grid.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [0, t_max]."""

    t_max: float
    n_samples: int = 64

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.n_samples < 8:
            raise ValueError(f"n_samples must be at least 8, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_samples)


def default_grid(scenario: NoiseScenario, n_samples: int = 64) -> TimeGrid:
    """64 uniform samples on [0, 3 / min active rate]."""
    rate = scenario.min_rate
    return TimeGrid(3.0 / rate if rate > 0 else 3.0, n_samples)


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


def fit_exponential(traj: Trajectory, flat_threshold: float = 1e-9) -> FitResult:
    """Fit ln(value) against t over the samples above the zero floor."""
    values = traj.values
    if values.size < 8:
        raise ValueError(f"need at least 8 samples, got {values.size}")
    if np.min(values) < 0:
        raise ValueError("values must be nonnegative")
    peak = float(np.max(values))
    if peak <= ZERO_FLOOR:
        return FitResult(math.inf, 0.0, 0.0, True)
    variation = float((peak - np.min(values)) / peak)
    if variation < flat_threshold:
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
class PaperTau:
    """One published timescale with the e-folding time its decay factors imply.

    `printed` is the transcribed value; `fitted_equiv` is the e-folding time
    of the corresponding decay factor (the two differ where the source quotes
    an additive composition of rates, and for the single-qubit entries).
    `convention` states which fitted quantity reproduces the value:
    "element" for coherence magnitudes, "C" / "C2" for concurrence.
    """

    label: str
    printed: float
    convention: str
    fitted_equiv: float

    @property
    def matches_fit(self) -> bool:
        return abs(self.printed - self.fitted_equiv) <= 1e-12 * max(1.0, self.printed)


def paper_tau_table(state_class: str, scenario: NoiseScenario) -> tuple[PaperTau, ...]:
    """Published timescales for a state class under a recognized scenario."""
    cls = {"fragile2": "fragile", "robust2": "robust"}.get(state_class, state_class)
    layout = scenario_layout(scenario)
    rows = PAPER_TAUS.get((cls, layout[0])) if layout else None
    if rows is None:
        raise UnsupportedScenarioError(
            f"no published timescales for class {state_class!r} under {scenario.label!r}"
        )
    rates = layout[1]
    return tuple(
        PaperTau(
            label,
            sum(a / r for a, r in zip(printed, rates)),
            convention,
            implied / sum(w * r for w, r in zip(weights, rates)),
        )
        for label, convention, printed, implied, weights in rows
    )


@dataclass(frozen=True)
class TimescaleReport:
    """Fits of every coherence element and concurrence for one run."""

    state_class: str
    scenario_label: str
    register: tuple[str, ...]
    element_fits: dict[str, FitResult]
    reduced_fits: dict[str, FitResult]
    concurrence_fits: dict[str, FitResult]
    concurrence_sq_fits: dict[str, FitResult]
    paper_taus: Optional[tuple[PaperTau, ...]]


def _fit_offdiagonals(stack: np.ndarray, times: np.ndarray, prefix: str = "") -> dict[str, FitResult]:
    dim = stack.shape[-1]
    fits: dict[str, FitResult] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            key = prefix + element_key(i, j)
            fits[key] = fit_exponential(Trajectory(times, np.abs(stack[:, i, j])))
    return fits


def sample_evolution(spec: StateSpec, scenario: NoiseScenario, grid: TimeGrid) -> np.ndarray:
    """Evolution of `spec` over the grid, rho0 * exp(-t E) in one broadcast; shape (T, dim, dim)."""
    return evolve(projector(spec).matrix, scenario, grid.times[:, None, None])


def build_report(
    spec: StateSpec, scenario: NoiseScenario, grid: Optional[TimeGrid] = None
) -> TimescaleReport:
    """Evolve, fit every coherence and concurrence trajectory, attach paper values."""
    if len(spec.register) != scenario.register_size:
        raise ValueError(
            f"state register {spec.register} does not match a "
            f"{scenario.register_size}-qubit scenario"
        )
    if grid is None:
        grid = default_grid(scenario)
    times = grid.times
    register = spec.register
    stack = sample_evolution(spec, scenario, grid)

    element_fits = _fit_offdiagonals(stack, times)

    reduced = reduced_stacks(stack, register)
    reduced_fits: dict[str, FitResult] = {}
    for keep in reduced_subsets(register):
        label = "".join(keep)
        reduced_fits.update(_fit_offdiagonals(reduced[label], times, prefix=f"{label}:"))

    concurrence_fits: dict[str, FitResult] = {}
    concurrence_sq_fits: dict[str, FitResult] = {}
    for pair in qubit_pairs(register):
        label = "".join(pair)
        c = concurrence_curve(reduced[label])
        concurrence_fits[label] = fit_exponential(Trajectory(times, c))
        concurrence_sq_fits[label] = fit_exponential(Trajectory(times, c * c))

    try:
        paper = paper_tau_table(spec.name, scenario)
    except UnsupportedScenarioError:
        paper = None

    return TimescaleReport(
        state_class=spec.name,
        scenario_label=scenario.label,
        register=register,
        element_fits=element_fits,
        reduced_fits=reduced_fits,
        concurrence_fits=concurrence_fits,
        concurrence_sq_fits=concurrence_sq_fits,
        paper_taus=paper,
    )


#: the scale each published label is fitted at, as qubits per coherence
#: ("dis": the concurrence in the entry's convention), and which of that
#: scale's decaying taus it quotes.
_PAPER_SCALES = {
    "3-dec": (3, max),
    "2-dec-slow": (2, max),
    "2-dec-fast": (2, min),
    "2-dec": (2, max),
    "1-dec": (1, max),
    "dis": ("dis", max),
}


def _decaying_taus(report: TimescaleReport, size: int, qubits=QUBITS) -> list[float]:
    """Fitted taus of the decaying coherences of every `size`-qubit matrix on `qubits`.

    `size` equal to the register is the full state; smaller sizes are the
    reductions whose kept qubits all lie in `qubits`.
    """
    if size == len(report.register):
        fits = report.element_fits.values()
    else:
        fits = [
            fit
            for key, fit in report.reduced_fits.items()
            if len(kept := key.split(":")[0]) == size and set(kept) <= set(qubits)
        ]
    return [fit.tau for fit in fits if fit.decays]


def measure_paper_taus(report: TimescaleReport) -> dict[str, Optional[float]]:
    """Fitted counterpart of each published timescale label in the report."""
    out: dict[str, Optional[float]] = {}
    for entry in report.paper_taus or ():
        scale, pick = _PAPER_SCALES[entry.label]
        if scale == "dis":
            fits = report.concurrence_fits if entry.convention == "C" else report.concurrence_sq_fits
            taus = [fit.tau for fit in fits.values() if fit.decays]
        else:
            taus = _decaying_taus(report, scale)
        out[entry.label] = pick(taus) if taus else None
    return out


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

    The disentanglement time is the fitted e-folding of the concurrence
    itself (the stricter of the two conventions).  For every scale that has
    at least one decaying coherence element (full register, the pair's
    reduced matrix, the pair members' single-qubit reductions), the bound
    is that scale's slowest element; the pair passes if tau_dis stays at or
    below every applicable bound.
    """
    results = []
    for pair, cfit in report.concurrence_fits.items():
        if not cfit.decays or cfit.amplitude <= ZERO_FLOOR:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        scales = [_decaying_taus(report, size, pair) for size in range(len(report.register), 0, -1)]
        bounds = [max(taus) for taus in scales if taus]
        if not bounds:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        bound = min(bounds)
        verdict = "PASS" if cfit.tau <= bound * (1.0 + AUDIT_TOL) else "FAIL"
        results.append(PairAudit(pair, verdict, cfit.tau, bound, bound / cfit.tau))
    return AuditResult(report.state_class, report.scenario_label, tuple(results))
