"""Property tests of the evolution, the exact audit, the Monte Carlo verdict and the CLI
over random classes, layouts, rates and draws."""

import contextlib
import csv
import io
import math
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dephasim.channels import (  # noqa: E402
    SCALE_RANGE,
    Local,
    NoiseScenario,
    PairCollective,
    TripleCollective,
    evolve,
)
from dephasim.cli import main  # noqa: E402
from dephasim.linalg import frobenius_distance  # noqa: E402
from dephasim.entanglement import _sqrt_lambdas, concurrence_curve  # noqa: E402
from dephasim.montecarlo import ALPHA, TrajectoryConfig, compare_to_channel  # noqa: E402
from dephasim.presets import SCENARIO_LAYOUTS, draw_state  # noqa: E402
from dephasim.states import (  # noqa: E402
    STATE_TYPES,
    DensityMatrix,
    analytic_factors,
    check_density,
    projector,
    reduced_stacks,
    slots,
)
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
    for group in (*report.coherence_taus.values(), report.concurrence_sq_taus):
        assert all(row.tau >= 0 for row in group.values())
    for row in report.concurrence_taus.values():
        assert row.tau >= 0
        # a frozen pair's C0 and C_inf come from two eigensolves and may differ
        # in the last bits; the report treats a drop within the zero floor as none
        assert 0.0 <= row.limit <= row.amplitude + ZERO_FLOOR and row.amplitude <= 1.0, row


@st.composite
def coefficient_cases(draw):
    """Any class with random normalised complex coefficients, a layout, rates in [0.1, 10], times."""
    cls = STATE_TYPES[draw(st.sampled_from(sorted(STATE_TYPES)))]
    parts = st.floats(-1.0, 1.0)
    coefficients = np.array([complex(draw(parts), draw(parts)) for _ in slots(cls)])
    norm = np.linalg.norm(coefficients)
    hypothesis.assume(norm > 1e-3)
    size = len(cls.register)
    layout = draw(st.sampled_from(LAYOUTS[size]))
    rates = [10.0 ** draw(st.floats(-1.0, 1.0)) for _ in layout]
    times = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    return cls(*coefficients / norm), NoiseScenario(size, tuple(zip(layout, rates))), np.array(times)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coefficient_cases())
def test_closed_form_is_a_state_and_matches_evolve(case):
    spec, scenario, times = case
    rho0 = projector(spec).matrix
    expected = rho0 * analytic_factors(scenario, spec.register, times)
    check_density(expected)
    got = evolve(rho0, scenario, times[:, None, None])
    for t, want, have in zip(times, expected, got):
        assert frobenius_distance(want, have) <= 1e-12, t


KIND_NAMES = {Local: "local", PairCollective: "pair_collective", TripleCollective: "triple_collective"}
RUN_FILES = {"trajectory.csv", "timescales.csv", "audit.csv", "elements.svg", "entanglement.svg"}

#: decimal exponents of the drawn rates and horizons: the whole double range,
#: or the accepted range alone, so that both kinds of config are common
scales = st.one_of(st.floats(-320.0, 308.0), st.floats(-100.0, 100.0)).map(lambda x: 10.0**x)


@st.composite
def state_and_scenario_lines(draw, classes=tuple(sorted(STATE_TYPES)), layouts=LAYOUTS):
    """Config lines of a drawn state and layout, and every rate they set."""
    cls = draw(st.sampled_from(classes))
    size = len(STATE_TYPES[cls].register)
    spec = draw_state(cls, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    lines = [f"state.class = {cls}", f"scenario.register = {size}"]
    for slot in slots(type(spec)):
        value = complex(getattr(spec, slot))
        lines.append(f"state.{slot} = {value.real!r}, {value.imag!r}")
    layout = draw(st.sampled_from(layouts[size]))
    rates = [draw(scales) for _ in layout]
    for index, (kind, rate) in enumerate(zip(layout, rates)):
        prefix = f"scenario.channels[{index}]"
        lines.append(f"{prefix}.kind = {KIND_NAMES[type(kind)]}")
        if not isinstance(kind, TripleCollective):
            lines.append(f"{prefix}.qubits = {', '.join(kind.support)}")
        lines.append(f"{prefix}.rate = {rate!r}")
    return lines, rates


@st.composite
def run_configs(draw):
    """A `run` config text, and every rate and horizon it sets."""
    lines, values = draw(state_and_scenario_lines())
    t_max = draw(st.none() | scales)
    if t_max is not None:
        lines.append(f"grid.t_max = {t_max!r}")
    return "\n".join(lines) + "\n", values + [t_max] * (t_max is not None)


@st.composite
def verify_configs(draw):
    """A `verify` config text, and every rate and horizon it sets."""
    # a triple-collective layout is rare among all layouts, so it is drawn on its own too
    triple_only = state_and_scenario_lines(("ghz", "w"), {3: [(TripleCollective(),)]})
    lines, values = draw(st.one_of(state_and_scenario_lines(), triple_only))
    t_final = draw(scales)
    lines += [
        f"mc.t = {t_final!r}",
        f"mc.trajectories = {draw(st.integers(1, 300))}",
        f"mc.seed = {draw(st.integers(0, 2**32 - 1))}",
    ]
    return "\n".join(lines) + "\n", values + [t_final]


def _in_range(values) -> bool:
    low, high = SCALE_RANGE
    return all(low <= value <= high for value in values)


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(run_configs())
def test_run_writes_all_files_or_none(case):
    text, values = case
    accepted = _in_range(values)
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "c.conf", Path(tmp) / "out"
        conf.write_text(text)
        code = _cli("run", "--config", str(conf), "--out", str(out), "--plots")
        if accepted:
            assert code in (0, 1), text
            assert {path.name for path in out.iterdir()} == RUN_FILES
        else:
            assert code == 3, text
            assert not out.exists()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(verify_configs())
def test_verify_writes_its_verdict_or_nothing(case):
    text, values = case
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "c.conf", Path(tmp) / "out"
        conf.write_text(text)
        code = _cli("verify", "--config", str(conf), "--out", str(out))
        if _in_range(values):
            assert code in (0, 1), text
            assert [path.name for path in out.iterdir()] == ["verify.json"]
        else:
            assert code == 3, text
            assert not out.exists()


#: what a drawn `sweep` config gets wrong, if anything: one key out of range or
#: unknown, or a line without "="; a fault-free config whose classes and
#: scenarios share no register size is refused as well
SWEEP_FAULTS = (None,) * 5 + ("class", "scenario", "draws", "seed", "rate", "line")


@st.composite
def sweep_configs(draw):
    """A `sweep` config text, its fault, and the classes, scenarios and draws if it is valid."""
    fault = draw(st.sampled_from(SWEEP_FAULTS))
    classes = draw(st.lists(st.sampled_from(sorted(STATE_TYPES)), min_size=1, max_size=2))
    scenarios = draw(st.lists(st.sampled_from(sorted(SCENARIO_LAYOUTS)), min_size=1, max_size=3))
    draws = draw(st.integers(-1, 0) if fault == "draws" else st.integers(1, 3))
    seed = draw(st.integers(-(2**32), -1) if fault == "seed" else st.integers(0, 2**32 - 1))
    outside = scales.filter(lambda rate: not _in_range([rate]))
    rate = draw(outside if fault == "rate" else st.floats(-100.0, 100.0).map(lambda x: 10.0**x))
    # a valid config has at least one class on the register of one of its scenarios
    sizes = {len(STATE_TYPES[cls].register) for cls in classes}
    matched = any(SCENARIO_LAYOUTS[scen][0] in sizes for scen in scenarios)
    if fault == "class":
        classes.insert(draw(st.integers(0, len(classes))), "bell")
    if fault == "scenario":
        scenarios.insert(draw(st.integers(0, len(scenarios))), "4q-local")
    lines = [
        f"sweep.classes = {', '.join(classes)}",
        f"sweep.scenarios = {', '.join(scenarios)}",
        f"sweep.draws = {draws}",
        f"sweep.seed = {seed}",
        f"sweep.rate = {rate!r}",
    ] + ["sweep.rate"] * (fault == "line")
    valid = fault is None and _in_range([rate]) and matched
    return "\n".join(lines) + "\n", fault, (classes, scenarios, draws) if valid else None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sweep_configs())
def test_sweep_writes_one_row_per_pair_verdict_or_nothing(case):
    text, fault, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "c.conf", Path(tmp) / "out"
        conf.write_text(text)
        code = _cli("sweep", "--config", str(conf), "--out", str(out))
        if expected is None:
            assert code == (2 if fault == "line" else 3), text
            assert not out.exists()
            return
        assert code in (0, 1), text
        assert [path.name for path in out.iterdir()] == ["sweep.csv"]
        with (out / "sweep.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
    classes, scenarios, draws = expected
    keys = [
        (cls, scen, str(k), "".join(pair))
        for cls in classes
        for scen in scenarios
        if SCENARIO_LAYOUTS[scen][0] == len(STATE_TYPES[cls].register)
        for k in range(draws)
        for pair in combinations(STATE_TYPES[cls].register, 2)
    ]
    assert header[:4] == ["class", "scenario", "draw", "pair"]
    assert [tuple(row[:4]) for row in rows] == keys, text
    verdicts = {row[4] for row in rows}
    assert verdicts <= {"PASS", "VACUOUS", "FAIL"} and ("FAIL" in verdicts) == (code == 1)


#: the smoke config of CI: W under local(A) + pair(BC), read by run, verify and sweep
CI_CONF = [
    ("state.class", "w"),
    ("state.a1", "0.6"),
    ("state.a2", "0.48"),
    ("state.a4", "0.64"),
    ("scenario.register", "3"),
    ("scenario.channels[0].kind", "local"),
    ("scenario.channels[0].qubits", "A"),
    ("scenario.channels[0].rate", "1.0"),
    ("scenario.channels[1].kind", "pair_collective"),
    ("scenario.channels[1].qubits", "B, C"),
    ("scenario.channels[1].rate", "0.5"),
    ("grid.samples", "200"),
    ("mc.seed", "7"),
    ("mc.trajectories", "2000"),
    ("sweep.draws", "5"),
    ("sweep.classes", "w, fragile"),
]
#: values a fuzzed key may take: non-finite, signed zero, overflowing, empty,
#: junk and non-ASCII (a Devanagari digit is a digit to int() and float());
#: a size key takes one of these or one of its own small values
FUZZ_TOKENS = ("nan", "inf", "-inf", "-0", "1e400", "", "junk", "0x1", "é", "π", "१", ",", "-1")
SIZE_KEYS = {"grid.samples": ("8", "9"), "mc.trajectories": ("1", "3"), "sweep.draws": ("1",)}
FUZZ_KEYS = ("bogus", "state.a3", "state.", "grid.t_min", "mc.trajectories.n", "ünknown")
FUZZ_EXITS = {"run": {0, 1, 2, 3}, "verify": {0, 1, 2, 3}, "sweep": {0, 1, 2, 3}}


@st.composite
def fuzzed_configs(draw):
    """CI_CONF with small sizes, then lines dropped, duplicated, added or given a fuzzed value.

    A size key is never dropped: its default is large.
    """
    lines = [(key, draw(st.sampled_from(SIZE_KEYS.get(key, (value,))))) for key, value in CI_CONF]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "unknown", "value")))
        index = draw(st.integers(0, len(lines) - 1))
        key, value = lines[index]
        if op == "drop" and key not in SIZE_KEYS:
            del lines[index]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), (key, value))
        elif op == "unknown":
            lines.insert(index, (draw(st.sampled_from(FUZZ_KEYS)), draw(st.sampled_from(FUZZ_TOKENS))))
        elif op == "value":
            lines[index] = (key, draw(st.sampled_from(SIZE_KEYS.get(key, ()) + FUZZ_TOKENS)))
    return "".join(f"{key} = {value}\n" for key, value in lines)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fuzzed_configs())
def test_a_fuzzed_config_ends_in_a_result_or_a_named_error_and_no_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "c.conf"
        conf.write_text(text, encoding="utf-8")
        for command, exits in FUZZ_EXITS.items():
            out = Path(tmp) / command
            code = _cli(command, "--config", str(conf), "--out", str(out))  # raises nothing
            assert code in exits, (command, text)
            if code in (2, 3):
                assert not out.exists(), (command, text)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cases(), st.floats(-100.0, 100.0).map(lambda x: 10.0**x))
def test_evolution_stays_a_state(case, t):
    spec, scenario = case
    exponents = scenario.exponents
    assert np.all(exponents >= 0.0)
    rho = evolve(projector(spec), scenario, t)  # DensityMatrix: Hermitian, trace 1, PSD
    assert isinstance(rho, DensityMatrix)
    pairs = {key: m for key, m in reduced_stacks(rho.matrix, spec.register).items() if len(key) == 2}
    for key, pair in pairs.items():
        assert 0.0 <= concurrence_curve(pair) <= 1.0, key
        # the unclipped Wootters value, not only the clipped one, stays at most 1
        roots = _sqrt_lambdas(pair)
        assert roots[0] - roots[1:].sum() <= 1.0 + 1e-12, key


#: the Monte Carlo census: every proven-equivalent layout, trajectory counts
#: from one to thousands, and one rate per channel and one horizon per config,
#: each log-uniform over SCALE_RANGE, so that fields whose phase spreads differ
#: by far more than 2^53 meet in one ensemble.
CENSUS_LAYOUTS = {
    size: [layout for layout in LAYOUTS[size] if not any(isinstance(k, TripleCollective) for k in layout)]
    for size in (2, 3)
}
CENSUS_TRAJECTORIES = (1, 2, 50, 500, 2000)
CENSUS_SEEDS = 120


def test_verify_census_false_alarms_stay_within_the_binomial_bound():
    low, high = (math.log10(x) for x in SCALE_RANGE)
    classes = sorted(STATE_TYPES)
    failures, trials, seen = [], 0, set()
    for n in CENSUS_TRAJECTORIES:
        for seed in range(CENSUS_SEEDS):
            rng = np.random.default_rng([n, seed])
            cls = classes[rng.integers(len(classes))]
            size = len(STATE_TYPES[cls].register)
            layout = CENSUS_LAYOUTS[size][rng.integers(len(CENSUS_LAYOUTS[size]))]
            *rates, t = 10.0 ** rng.uniform(low, high, len(layout) + 1)
            scenario = NoiseScenario(size, tuple(zip(layout, rates)))
            cmp_ = compare_to_channel(draw_state(cls, rng), scenario, TrajectoryConfig(n, seed, t))
            assert math.isfinite(cmp_.max_z), (n, seed, cls, scenario.label, t)
            trials += 1
            seen.add((size, layout))
            if not cmp_.passed:
                failures.append((n, seed, cls, scenario.label, t, cmp_.max_z))
    # P(more than 4 of 600 fail) < 1e-3 when each fails with probability ALPHA
    assert trials == 600 and ALPHA == 1e-3
    assert len(seen) == sum(len(layouts) for layouts in CENSUS_LAYOUTS.values())
    assert len(failures) <= 4, failures
