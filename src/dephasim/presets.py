"""Named noise scenarios and random coefficient draws for the state classes."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import Local, NoiseScenario, PairCollective, TripleCollective
from .states import STATE_TYPES, StateSpec, slots

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


STATE_CLASSES = tuple(STATE_TYPES)


def draw_state(name: str, rng: np.random.Generator) -> StateSpec:
    """Random normalized coefficients for the named state class."""
    if name not in STATE_TYPES:
        known = ", ".join(STATE_TYPES)
        raise ValueError(f"unknown state class {name!r}; known: {known}")
    cls = STATE_TYPES[name]
    return cls(*_unit(rng, len(slots(cls))))


#: the (class, scenario) combinations with published evolved matrices.
PAPER_MATRIX: tuple[tuple[str, str], ...] = tuple(
    [("fragile", "2q-collective"), ("robust", "2q-collective")]
    + [
        (cls, scen)
        for cls in ("w", "ghz")
        for scen in (
            "3q-local-A",
            "3q-pair-AB",
            "3q-collective",
            "3q-multi-local",
            "3q-local-A-pair-BC",
        )
    ]
)
