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

from .channels import Local, NoiseScenario, PairCollective, TripleCollective, evolve
from .entanglement import concurrence_curve
from .errors import UnsupportedScenarioError
from .linalg import partial_trace
from .states import StateSpec, projector, qubit_pairs

#: trajectory samples at or below this magnitude are treated as exact zeros.
ZERO_FLOOR = 1e-13

#: relative slack when comparing fitted timescales (handles exact-equality cases).
AUDIT_TOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [0, t_max]."""

    t_max: float
    n_samples: int = 64

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_samples < 8:
            raise ValueError(f"need at least 8 samples, got {self.n_samples}")

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


def _scenario_shape(scenario: NoiseScenario):
    if scenario.allow_overlap:
        return None  # overridden scenarios are outside the published tables
    kinds = [k for k, _ in scenario.channels]
    rates = [r for _, r in scenario.channels]
    if any(r <= 0 for r in rates):
        return None
    n = scenario.register_size
    if n == 2 and len(kinds) == 1 and isinstance(kinds[0], PairCollective):
        return ("2q-collective", rates[0])
    if n != 3:
        return None
    if len(kinds) == 1:
        if isinstance(kinds[0], Local):
            return ("local", rates[0])
        if isinstance(kinds[0], PairCollective):
            return ("pair", rates[0])
        if isinstance(kinds[0], TripleCollective):
            return ("triple", rates[0])
    if len(kinds) == 3 and all(isinstance(k, Local) for k in kinds):
        if len({k.qubit for k in kinds}) == 3 and len(set(rates)) == 1:
            return ("multi-local", rates[0])
    if len(kinds) == 2:
        locals_ = [i for i, k in enumerate(kinds) if isinstance(k, Local)]
        pairs = [i for i, k in enumerate(kinds) if isinstance(k, PairCollective)]
        if len(locals_) == 1 and len(pairs) == 1:
            return ("local+pair", rates[locals_[0]], rates[pairs[0]])
    return None


def paper_tau_table(state_class: str, scenario: NoiseScenario) -> tuple[PaperTau, ...]:
    """Published timescales for a state class under a recognized scenario."""
    cls = {"fragile2": "fragile", "robust2": "robust"}.get(state_class, state_class)
    shape = _scenario_shape(scenario)
    if shape is None:
        raise UnsupportedScenarioError(
            f"no published timescales for scenario {scenario.label!r}"
        )
    kind = shape[0]
    if cls in ("fragile", "robust"):
        if kind != "2q-collective":
            raise UnsupportedScenarioError(
                f"no published timescales for class {state_class!r} under {scenario.label!r}"
            )
        g = shape[1]
        if cls == "fragile":
            return (
                PaperTau("2-dec-slow", 2.0 / g, "element", 2.0 / g),
                PaperTau("2-dec-fast", 0.5 / g, "element", 0.5 / g),
                PaperTau("1-dec", 1.0 / g, "element", 2.0 / g),
                PaperTau("dis", 0.5 / g, "C", 0.5 / g),
            )
        return (
            PaperTau("2-dec", 2.0 / g, "element", 2.0 / g),
            PaperTau("1-dec", 1.0 / g, "element", 2.0 / g),
        )
    if cls == "w":
        if kind == "local":
            g = shape[1]
            return (
                PaperTau("3-dec", 2.0 / g, "element", 2.0 / g),
                PaperTau("2-dec", 2.0 / g, "element", 2.0 / g),
                PaperTau("dis", 1.0 / g, "C2", 1.0 / g),
            )
        if kind == "pair":
            g = shape[1]
            return (
                PaperTau("3-dec", 2.0 / g, "element", 2.0 / g),
                PaperTau("2-dec", 2.0 / g, "element", 2.0 / g),
                PaperTau("dis", 1.0 / g, "C2", 1.0 / g),
            )
        if kind == "triple":
            return ()
        if kind == "multi-local":
            g = shape[1]
            return (
                PaperTau("3-dec", 1.0 / g, "element", 1.0 / g),
                PaperTau("2-dec", 1.0 / g, "element", 1.0 / g),
                PaperTau("dis", 0.5 / g, "C2", 0.5 / g),
            )
        if kind == "local+pair":
            g1, g2 = shape[1], shape[2]
            return (
                PaperTau("3-dec", 2.0 / g1 + 2.0 / g2, "element", 2.0 / (g1 + g2)),
                PaperTau("2-dec", 2.0 / g1 + 2.0 / g2, "element", 2.0 / (g1 + g2)),
                PaperTau("dis", 1.0 / g1 + 1.0 / g2, "C2", 1.0 / (g1 + g2)),
            )
    if cls == "ghz":
        if kind == "local":
            g = shape[1]
            return (PaperTau("3-dec", 2.0 / g, "element", 2.0 / g),)
        if kind == "pair":
            g = shape[1]
            return (PaperTau("3-dec", 0.5 / g, "element", 0.5 / g),)
        if kind == "triple":
            g = shape[1]
            return (PaperTau("3-dec", 0.5 / g, "element", 0.5 / g),)
        if kind == "multi-local":
            g = shape[1]
            return (PaperTau("3-dec", (2.0 / 3.0) / g, "element", (2.0 / 3.0) / g),)
        if kind == "local+pair":
            g1, g2 = shape[1], shape[2]
            return (
                PaperTau("3-dec", 2.0 / g1 + 0.5 / g2, "element", 2.0 / (g1 + 4.0 * g2)),
            )
    raise UnsupportedScenarioError(
        f"no published timescales for class {state_class!r} under {scenario.label!r}"
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


def _element_key(i: int, j: int) -> str:
    return f"rho_{i + 1}{j + 1}"


def _fit_offdiagonals(stack: np.ndarray, times: np.ndarray, prefix: str = "") -> dict[str, FitResult]:
    dim = stack.shape[-1]
    fits: dict[str, FitResult] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            key = prefix + _element_key(i, j)
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

    reduced_fits: dict[str, FitResult] = {}
    pair_stacks: dict[str, np.ndarray] = {}
    for q in register:
        red = partial_trace(stack, (q,), register)
        reduced_fits.update(_fit_offdiagonals(red, times, prefix=f"{q}:"))
    for pair in qubit_pairs(register):
        label = "".join(pair)
        red = stack if len(register) == 2 else partial_trace(stack, pair, register)
        pair_stacks[label] = red
        if len(register) == 3:
            reduced_fits.update(_fit_offdiagonals(red, times, prefix=f"{label}:"))

    concurrence_fits: dict[str, FitResult] = {}
    concurrence_sq_fits: dict[str, FitResult] = {}
    for label, red in pair_stacks.items():
        c = concurrence_curve(red)
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


def measure_paper_taus(report: TimescaleReport) -> dict[str, Optional[float]]:
    """Fitted counterpart of each published timescale label in the report."""
    full = [f.tau for f in report.element_fits.values() if f.decays]
    singles = [
        f.tau
        for key, f in report.reduced_fits.items()
        if len(key.split(":")[0]) == 1 and f.decays
    ]
    pair_reduced = [
        f.tau
        for key, f in report.reduced_fits.items()
        if len(key.split(":")[0]) == 2 and f.decays
    ]
    if len(report.register) == 2:
        pair_reduced = full
    dis_c = [f.tau for f in report.concurrence_fits.values() if f.decays]
    dis_c2 = [f.tau for f in report.concurrence_sq_fits.values() if f.decays]

    out: dict[str, Optional[float]] = {}
    if report.paper_taus is None:
        return out
    for entry in report.paper_taus:
        if entry.label in ("3-dec", "2-dec-slow"):
            out[entry.label] = max(full) if full else None
        elif entry.label == "2-dec-fast":
            out[entry.label] = min(full) if full else None
        elif entry.label == "2-dec":
            out[entry.label] = max(pair_reduced) if pair_reduced else None
        elif entry.label == "1-dec":
            out[entry.label] = max(singles) if singles else None
        elif entry.label == "dis":
            taus = dis_c if entry.convention == "C" else dis_c2
            out[entry.label] = max(taus) if taus else None
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
    full = [f.tau for f in report.element_fits.values() if f.decays]
    results = []
    for pair, cfit in report.concurrence_fits.items():
        if not cfit.decays or cfit.amplitude <= ZERO_FLOOR:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        scales: list[list[float]] = [full]
        if len(report.register) == 3:
            scales.append(
                [
                    f.tau
                    for key, f in report.reduced_fits.items()
                    if key.startswith(f"{pair}:") and f.decays
                ]
            )
        scales.append(
            [
                f.tau
                for key, f in report.reduced_fits.items()
                if key.split(":")[0] in pair and len(key.split(":")[0]) == 1 and f.decays
            ]
        )
        bounds = [max(taus) for taus in scales if taus]
        if not bounds:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        bound = min(bounds)
        verdict = "PASS" if cfit.tau <= bound * (1.0 + AUDIT_TOL) else "FAIL"
        results.append(PairAudit(pair, verdict, cfit.tau, bound, bound / cfit.tau))
    return AuditResult(report.state_class, report.scenario_label, tuple(results))
