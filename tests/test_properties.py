"""Property tests of the exact audit over random classes, layouts, rates and draws."""

from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dephasim.channels import Local, NoiseScenario, PairCollective, TripleCollective  # noqa: E402
from dephasim.presets import draw_state  # noqa: E402
from dephasim.states import STATE_TYPES  # noqa: E402
from dephasim.timescales import ZERO_FLOOR, audit_inequality, build_report  # noqa: E402


def _layouts(size: int) -> list[tuple]:
    """Every nonempty set of channels on `size` qubits whose supports do not overlap."""
    register = "ABC"[:size]
    kinds = [Local(q) for q in register] + [PairCollective(*p) for p in combinations(register, 2)]
    if size == 3:
        kinds.append(TripleCollective())
    return [
        chosen
        for n in range(1, size + 1)
        for chosen in combinations(kinds, n)
        if len({q for kind in chosen for q in kind.support}) == sum(len(k.support) for k in chosen)
    ]


LAYOUTS = {size: _layouts(size) for size in (2, 3)}


@st.composite
def cases(draw):
    cls = draw(st.sampled_from(sorted(STATE_TYPES)))
    size = len(STATE_TYPES[cls].register)
    layout = draw(st.sampled_from(LAYOUTS[size]))
    exponents = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(layout), max_size=len(layout)))
    scenario = NoiseScenario(size, tuple(zip(layout, (10.0**x for x in exponents))))
    seed = draw(st.integers(0, 2**32 - 1))
    return draw_state(cls, np.random.default_rng(seed)), scenario


def test_layouts_cover_every_non_overlapping_placement():
    # 2 qubits: L(A), L(B), L+L, P; 3 qubits: 3 L, 3 L+L, L+L+L, 3 P, 3 P+L, T
    assert (len(LAYOUTS[2]), len(LAYOUTS[3])) == (4, 14)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cases())
def test_exact_audit_never_fails(case):
    spec, scenario = case
    report = build_report(spec, scenario)
    assert audit_inequality(report).overall != "FAIL"
    for group in (report.element_taus, report.reduced_taus, report.concurrence_sq_taus):
        assert all(row.tau >= 0 for row in group.values())
    for row in report.concurrence_taus.values():
        assert row.tau >= 0
        # a frozen pair's C0 and C_inf come from two eigensolves and may differ
        # in the last bits; the report treats a drop within the zero floor as none
        assert 0.0 <= row.limit <= row.amplitude + ZERO_FLOOR and row.amplitude <= 1.0, row
