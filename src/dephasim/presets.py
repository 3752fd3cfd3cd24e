"""Named noise scenarios, random coefficient draws and the published timescales.

The published values form one table keyed by (state class, scenario layout);
``scenario_layout`` finds the layout any relabelled scenario stands for,
``paper_tau_table`` reads a scenario's rows at its rates, and
``measure_paper_taus`` reads each row's counterpart off a timescale report.
A report itself knows nothing of them: only the commands that print the
published values look them up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import Local, NoiseScenario, PairCollective, TripleCollective
from .states import STATE_TYPES, StateSpec, slots
from .timescales import TimescaleReport

#: channel layout of each named scenario (register size, channel kinds).
SCENARIO_LAYOUTS: dict[str, tuple[int, tuple]] = {
    "2q-collective": (2, (PairCollective("A", "B"),)),
    "2q-local-A": (2, (Local("A"),)),
    "2q-multi-local": (2, (Local("A"), Local("B"))),
    "3q-local-A": (3, (Local("A"),)),
    "3q-pair-AB": (3, (PairCollective("A", "B"),)),
    "3q-collective": (3, (TripleCollective(),)),
    "3q-multi-local": (3, (Local("A"), Local("B"), Local("C"))),
    "3q-local-A-pair-BC": (3, (Local("A"), PairCollective("B", "C"))),
}


def named_scenario(name: str, rates: float | Sequence[float] = 1.0) -> NoiseScenario:
    """Build a scenario from the registry; rates apply per channel in order."""
    if name not in SCENARIO_LAYOUTS:
        known = ", ".join(sorted(SCENARIO_LAYOUTS))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    register_size, kinds = SCENARIO_LAYOUTS[name]
    if isinstance(rates, (int, float)):
        rates = [float(rates)] * len(kinds)
    if len(rates) != len(kinds):
        raise ValueError(f"scenario {name!r} has {len(kinds)} channels, got {len(rates)} rates")
    return NoiseScenario(register_size, tuple(zip(kinds, rates)))


def _unit(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def draw_state(name: str, rng: np.random.Generator) -> StateSpec:
    """Random normalized coefficients for the named state class."""
    if name not in STATE_TYPES:
        known = ", ".join(STATE_TYPES)
        raise ValueError(f"unknown state class {name!r}; known: {known}")
    cls = STATE_TYPES[name]
    return cls(*_unit(rng, len(slots(cls))))


#: The published timescales, keyed by (class, layout) in the paper's order.
#: A row (label, convention, a, c, w) prints sum(a_i / r_i) and implies the
#: e-folding time c / sum(w_i r_i) of its decay factor, where r_i is the rate
#: of the i-th channel kind of the layout, in layout order.
PAPER_TAUS: dict[tuple[str, str], tuple[tuple, ...]] = {
    ("fragile", "2q-collective"): (
        ("2-dec-slow", "element", (2,), 2, (1,)),
        ("2-dec-fast", "element", (0.5,), 0.5, (1,)),
        ("1-dec", "element", (1,), 2, (1,)),
        ("dis", "C", (0.5,), 0.5, (1,)),
    ),
    ("robust", "2q-collective"): (
        ("2-dec", "element", (2,), 2, (1,)),
        ("1-dec", "element", (1,), 2, (1,)),
    ),
    ("w", "3q-local-A"): (
        ("3-dec", "element", (2,), 2, (1,)),
        ("2-dec", "element", (2,), 2, (1,)),
        ("dis", "C2", (1,), 1, (1,)),
    ),
    ("w", "3q-pair-AB"): (
        ("3-dec", "element", (2,), 2, (1,)),
        ("2-dec", "element", (2,), 2, (1,)),
        ("dis", "C2", (1,), 1, (1,)),
    ),
    ("w", "3q-collective"): (),
    ("w", "3q-multi-local"): (
        ("3-dec", "element", (1,), 1, (1,)),
        ("2-dec", "element", (1,), 1, (1,)),
        ("dis", "C2", (0.5,), 0.5, (1,)),
    ),
    ("w", "3q-local-A-pair-BC"): (
        ("3-dec", "element", (2, 2), 2, (1, 1)),
        ("2-dec", "element", (2, 2), 2, (1, 1)),
        ("dis", "C2", (1, 1), 1, (1, 1)),
    ),
    ("ghz", "3q-local-A"): (("3-dec", "element", (2,), 2, (1,)),),
    ("ghz", "3q-pair-AB"): (("3-dec", "element", (0.5,), 0.5, (1,)),),
    ("ghz", "3q-collective"): (("3-dec", "element", (0.5,), 0.5, (1,)),),
    ("ghz", "3q-multi-local"): (("3-dec", "element", (2 / 3,), 2 / 3, (1,)),),
    ("ghz", "3q-local-A-pair-BC"): (("3-dec", "element", (2, 0.5), 2, (1, 4)),),
}

#: the (class, scenario) combinations with published evolved matrices.
PAPER_MATRIX: tuple[tuple[str, str], ...] = tuple(PAPER_TAUS)


def scenario_layout(scenario: NoiseScenario) -> Optional[tuple[str, tuple[float, ...]]]:
    """The named layout a scenario relabels, with one rate per channel kind in layout order.

    A scenario relabels a layout when it has the same register size and the
    same multiset of channel kinds, whatever the qubits and the channel order.
    None when supports overlap, a rate is not positive, channels of one kind
    run at different rates, or no layout matches.
    """
    qubits = [q for kind, _ in scenario.channels for q in kind.support]
    if len(qubits) != len(set(qubits)):
        return None
    rates: dict[type, set[float]] = {}
    for kind, rate in scenario.channels:
        rates.setdefault(type(kind), set()).add(rate)
    if any(len(rs) != 1 or min(rs) <= 0 for rs in rates.values()):
        return None
    kinds = sorted(type(kind).__name__ for kind, _ in scenario.channels)
    for name, (size, layout) in SCENARIO_LAYOUTS.items():
        if size == scenario.register_size and sorted(type(k).__name__ for k in layout) == kinds:
            return name, tuple(min(rates[t]) for t in dict.fromkeys(map(type, layout)))
    return None


@dataclass(frozen=True)
class PaperTau:
    """One published timescale with the e-folding time its decay factors imply.

    `printed` is the transcribed value; `implied` is the e-folding time
    of the corresponding decay factor (the two differ where the source quotes
    an additive composition of rates, and for the single-qubit entries).
    `convention` states which measured quantity reproduces the value:
    "element" for coherence magnitudes, "C" / "C2" for concurrence.
    """

    label: str
    printed: float
    convention: str
    implied: float


def paper_tau_table(state_class: str, scenario: NoiseScenario) -> tuple[PaperTau, ...]:
    """Published timescales for a state class under a scenario; () where none are published."""
    cls = {"fragile2": "fragile", "robust2": "robust"}.get(state_class, state_class)
    layout = scenario_layout(scenario)
    if layout is None:
        return ()
    name, rates = layout
    return tuple(
        PaperTau(
            label,
            sum(a / r for a, r in zip(printed, rates)),
            convention,
            implied / sum(w * r for w, r in zip(weights, rates)),
        )
        for label, convention, printed, implied, weights in PAPER_TAUS.get((cls, name), ())
    )


#: the scale each published label is measured at, as qubits per matrix
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


def measure_paper_taus(
    report: TimescaleReport, entries: Sequence[PaperTau]
) -> dict[str, Optional[float]]:
    """Measured counterpart in the report of each published timescale of `entries`."""
    out: dict[str, Optional[float]] = {}
    for entry in entries:
        scale, pick = _PAPER_SCALES[entry.label]
        if scale == "dis":
            c = entry.convention == "C"
            groups = [report.concurrence_taus if c else report.concurrence_sq_taus]
        else:
            groups = [rows for label, rows in report.coherence_taus.items() if len(label) == scale]
        taus = [row.tau for rows in groups for row in rows.values() if row.decays]
        out[entry.label] = pick(taus) if taus else None
    return out
