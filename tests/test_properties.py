"""Property tests of the exact audit and of the CLI over random classes, layouts, rates and draws."""

import contextlib
import io
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dephasim.channels import Local, NoiseScenario, PairCollective, TripleCollective  # noqa: E402
from dephasim.cli import main  # noqa: E402
from dephasim.config import SCALE_RANGE  # noqa: E402
from dephasim.presets import draw_state  # noqa: E402
from dephasim.states import STATE_TYPES, slots  # noqa: E402
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


KIND_NAMES = {Local: "local", PairCollective: "pair_collective", TripleCollective: "triple_collective"}
RUN_FILES = {"trajectory.csv", "timescales.csv", "audit.csv", "elements.svg", "entanglement.svg"}

#: decimal exponents of the drawn rates and horizons: the whole double range,
#: or the accepted range alone, so that both kinds of config are common
scales = st.one_of(st.floats(-320.0, 308.0), st.floats(-100.0, 100.0)).map(lambda x: 10.0**x)


@st.composite
def run_configs(draw):
    """A `run` config text, and every rate and horizon it sets."""
    cls = draw(st.sampled_from(sorted(STATE_TYPES)))
    size = len(STATE_TYPES[cls].register)
    spec = draw_state(cls, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    lines = [f"state.class = {cls}", f"scenario.register = {size}"]
    for slot in slots(type(spec)):
        value = complex(getattr(spec, slot))
        lines.append(f"state.{slot} = {value.real!r}, {value.imag!r}")
    layout = draw(st.sampled_from(LAYOUTS[size]))
    rates = [draw(scales) for _ in layout]
    for index, (kind, rate) in enumerate(zip(layout, rates)):
        prefix = f"scenario.channels[{index}]"
        lines.append(f"{prefix}.kind = {KIND_NAMES[type(kind)]}")
        if not isinstance(kind, TripleCollective):
            lines.append(f"{prefix}.qubits = {', '.join(kind.support)}")
        lines.append(f"{prefix}.rate = {rate!r}")
    t_max = draw(st.none() | scales)
    if t_max is not None:
        lines.append(f"grid.t_max = {t_max!r}")
    return "\n".join(lines) + "\n", rates + [t_max] * (t_max is not None)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(run_configs())
def test_run_writes_all_files_or_none(case):
    text, values = case
    low, high = SCALE_RANGE
    accepted = all(low <= value <= high for value in values)
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "c.conf", Path(tmp) / "out"
        conf.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(conf), "--out", str(out), "--plots"])
        if accepted:
            assert code in (0, 1), text
            assert {path.name for path in out.iterdir()} == RUN_FILES
        else:
            assert code == 3, text
            assert not out.exists()
