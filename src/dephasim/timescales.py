"""Exact decay timescales and the disentanglement-vs-decoherence audit.

Every coherence (i, j) decays as exp(-E_ij t), E being the scenario's
exponent matrix, so its e-folding time is read from E.  The concurrence C of
a pair falls toward the concurrence C_inf of rho0 masked to E_ij = 0; its
time is the first t at which C - C_inf = (C0 - C_inf)/e, found on the exact
evolution.  The audit checks, pair by pair, that entanglement never outlives
the slowest decaying coherence at any scale.  ``fit_exponential`` is kept as
an independent cross-check of the exact values on sampled curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import NoiseScenario, decay_exponents, evolve
from .entanglement import concurrence_curve
from .errors import UnsupportedScenarioError
from .linalg import QUBITS, element_key, partial_trace
from .presets import PAPER_TAUS, scenario_layout
from .states import StateSpec, projector, qubit_pairs, reduced_stacks, reduced_subsets

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
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.n_samples < 8:
            raise ValueError(f"n_samples must be at least 8, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_samples)


def default_grid(scenario: NoiseScenario) -> TimeGrid:
    """DEFAULT_SAMPLES uniform samples on [0, 3 / min active rate]."""
    rate = scenario.min_rate
    return TimeGrid(3.0 / rate if rate > 0 else 3.0, DEFAULT_SAMPLES)


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
class PaperTau:
    """One published timescale with the e-folding time its decay factors imply.

    `printed` is the transcribed value; `fitted_equiv` is the e-folding time
    of the corresponding decay factor (the two differ where the source quotes
    an additive composition of rates, and for the single-qubit entries).
    `convention` states which measured quantity reproduces the value:
    "element" for coherence magnitudes, "C" / "C2" for concurrence.
    """

    label: str
    printed: float
    convention: str
    fitted_equiv: float


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
    """Timescales of every coherence element and concurrence for one run."""

    state_class: str
    scenario_label: str
    register: tuple[str, ...]
    element_taus: dict[str, Timescale]
    reduced_taus: dict[str, Timescale]
    concurrence_taus: dict[str, Timescale]
    concurrence_sq_taus: dict[str, Timescale]
    paper_taus: Optional[tuple[PaperTau, ...]]


def _coherence_taus(
    rho0: np.ndarray, exponents: np.ndarray, prefix: str = ""
) -> dict[str, Timescale]:
    """1 / E_ij and |rho0_ij| of every upper off-diagonal element."""
    amplitude = np.abs(rho0)
    live = (exponents > 0) & (amplitude > ZERO_FLOOR)
    tau = np.divide(1.0, exponents, out=np.full(exponents.shape, math.inf), where=live)
    return {
        prefix + element_key(i, j): Timescale(float(tau[i, j]), float(amplitude[i, j]))
        for i, j in zip(*np.triu_indices(len(rho0), 1))
    }


def _crossing(value: Callable[[float], float], level: float, times, samples) -> float:
    """First t at which value(t), sampled as `samples` over `times`, falls to `level`.

    The first sample at or below the level and the one before it bracket the
    crossing; when no sample is, t doubles past the grid until value(t) is.
    Illinois regula falsi on value(t) then refines the bracket; the result is
    the evaluated t nearest the level.
    """
    k = int(np.argmax(samples <= level))
    if k:
        (lo, hi), (f_lo, f_hi) = times[k - 1 : k + 1], samples[k - 1 : k + 1] - level
    else:
        lo, f_lo, hi = times[-1], samples[-1] - level, 2.0 * times[-1]
        while (f_hi := value(hi) - level) > 0:
            lo, f_lo, hi = hi, f_hi, 2.0 * hi
    tol = CROSSING_TOL * (samples[0] - level)
    best = min((abs(f_lo), lo), (abs(f_hi), hi))
    side = 0
    for _ in range(MAX_REFINE_STEPS):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if best[0] <= tol or not lo < t < hi:
            break
        f = value(t) - level
        best = min(best, (abs(f), t))
        # Illinois: an end kept twice in a row has its value halved
        if f > 0:
            lo, f_lo, f_hi = t, f, f_hi / (2.0 if side == 1 else 1.0)
            side = 1
        else:
            hi, f_hi, f_lo = t, f, f_lo / (2.0 if side == -1 else 1.0)
            side = -1
    return float(best[1])


def _disentanglement(rho0, exponents, pair, register, times, samples) -> list[Timescale]:
    """Timescales of a pair's C and C**2 toward their limits; `samples` is C over `times`.

    The C**p tau is the first t at which C falls to the p-th root of
    C_inf**p + (C0**p - C_inf**p) / e; inf if C0**p - C_inf**p is within the zero floor.
    """

    def masked_c(mask) -> float:
        return float(concurrence_curve(partial_trace(rho0 * mask, pair, register)))

    c_inf = masked_c(exponents == 0)
    rows = []
    for power in (1, 2):
        start, limit = float(samples[0]) ** power, c_inf**power
        tau = math.inf
        if start - limit > ZERO_FLOOR:
            level = (limit + (start - limit) / math.e) ** (1.0 / power)
            tau = _crossing(lambda t: masked_c(np.exp(-t * exponents)), level, times, samples)
        rows.append(Timescale(tau, start, limit))
    return rows


def sample_evolution(spec: StateSpec, scenario: NoiseScenario, grid: TimeGrid) -> np.ndarray:
    """Evolution of `spec` over the grid, rho0 * exp(-t E) in one broadcast; shape (T, dim, dim)."""
    return evolve(projector(spec).matrix, scenario, grid.times[:, None, None])


def build_report(
    spec: StateSpec, scenario: NoiseScenario, grid: Optional[TimeGrid] = None
) -> TimescaleReport:
    """Exact timescales of every coherence and concurrence, with the paper's values.

    Coherence taus are read from E.  Each pair's concurrence taus are found
    on the exact curve, bracketed by the curve sampled over `grid`.
    """
    if len(spec.register) != scenario.register_size:
        raise ValueError(
            f"state register {spec.register} does not match a "
            f"{scenario.register_size}-qubit scenario"
        )
    if grid is None:
        grid = default_grid(scenario)
    register = spec.register
    stack = sample_evolution(spec, scenario, grid)
    rho0 = stack[0]  # every grid starts at t = 0
    exponents = decay_exponents(scenario)

    reduced_taus: dict[str, Timescale] = {}
    for keep in reduced_subsets(register):
        # the nonzero terms of a reduced element share one exponent (a test
        # pins this), so reduced rho0 * E over reduced rho0 is that exponent
        reduced = partial_trace(rho0, keep, register)
        weighted = partial_trace(rho0 * exponents, keep, register)
        live = np.abs(reduced) > ZERO_FLOOR
        rates = np.divide(weighted, reduced, out=np.zeros_like(reduced), where=live).real
        reduced_taus.update(_coherence_taus(reduced, rates, "".join(keep) + ":"))

    reduced_stack = reduced_stacks(stack, register)
    concurrence_taus: dict[str, Timescale] = {}
    concurrence_sq_taus: dict[str, Timescale] = {}
    for pair in qubit_pairs(register):
        label = "".join(pair)
        c = concurrence_curve(reduced_stack[label])
        concurrence_taus[label], concurrence_sq_taus[label] = _disentanglement(
            rho0, exponents, pair, register, grid.times, c
        )

    try:
        paper = paper_tau_table(spec.name, scenario)
    except UnsupportedScenarioError:
        paper = None

    return TimescaleReport(
        state_class=spec.name,
        scenario_label=scenario.label,
        register=register,
        element_taus=_coherence_taus(rho0, exponents),
        reduced_taus=reduced_taus,
        concurrence_taus=concurrence_taus,
        concurrence_sq_taus=concurrence_sq_taus,
        paper_taus=paper,
    )


#: the scale each published label is measured at, as qubits per coherence
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
    """Taus of the decaying coherences of every `size`-qubit matrix on `qubits`.

    `size` equal to the register is the full state; smaller sizes are the
    reductions whose kept qubits all lie in `qubits`.
    """
    if size == len(report.register):
        rows = report.element_taus.values()
    else:
        rows = [
            row
            for key, row in report.reduced_taus.items()
            if len(kept := key.split(":")[0]) == size and set(kept) <= set(qubits)
        ]
    return [row.tau for row in rows if row.decays]


def measure_paper_taus(report: TimescaleReport) -> dict[str, Optional[float]]:
    """Measured counterpart of each published timescale label in the report."""
    out: dict[str, Optional[float]] = {}
    for entry in report.paper_taus or ():
        scale, pick = _PAPER_SCALES[entry.label]
        if scale == "dis":
            c = entry.convention == "C"
            rows = (report.concurrence_taus if c else report.concurrence_sq_taus).values()
            taus = [row.tau for row in rows if row.decays]
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

    The disentanglement time is the e-folding time of the concurrence itself
    toward its limit (the stricter of the two conventions).  For every scale
    that has at least one decaying coherence element (full register, the
    pair's reduced matrix, the pair members' single-qubit reductions), the
    bound is that scale's slowest element; the pair passes if tau_dis stays
    at or below every applicable bound.
    """
    results = []
    for pair, dis in report.concurrence_taus.items():
        if not dis.decays:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        scales = [_decaying_taus(report, size, pair) for size in range(len(report.register), 0, -1)]
        bounds = [max(taus) for taus in scales if taus]
        if not bounds:
            results.append(PairAudit(pair, "VACUOUS"))
            continue
        bound = min(bounds)
        verdict = "PASS" if dis.tau <= bound * (1.0 + AUDIT_TOL) else "FAIL"
        results.append(PairAudit(pair, verdict, dis.tau, bound, bound / dis.tau))
    return AuditResult(report.state_class, report.scenario_label, tuple(results))
