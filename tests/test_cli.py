import csv
import io
import json
import math
import re

import numpy as np
import pytest

from dephasim import cli, states, svgplot
from dephasim.cli import _columns, _table, _trajectory_columns, main
from dephasim.config import (
    ConfigParseError,
    ConfigValidationError,
    grid_from,
    load_config,
    mc_from,
    parse_config_text,
    scenario_from,
    state_from,
    sweep_from,
)
from dephasim.channels import PairCollective, TripleCollective, evolve
from dephasim.linalg import frobenius_distance
from dephasim.presets import PAPER_MATRIX, draw_state, named_scenario
from dephasim.states import STATE_TYPES, Fragile, WState, analytic_factors, projector
from dephasim.svgplot import line_chart

FRAGILE_CONF = """
# two-qubit collective dephasing
state.class = fragile
state.a = 0.7071067811865476
state.b = 0, 0
state.d = 0.7071067811865476, 0

scenario.register = 2
scenario.channels[0].kind = pair_collective
scenario.channels[0].qubits = A, B
scenario.channels[0].rate = 1.0

grid.t_max = 3.0
grid.samples = 16
outputs = elements, concurrence, eof, timescales, audit
format = csv

mc.trajectories = 1500
mc.seed = 31
mc.t = 1.0
"""

W_CONF = """
state.class = w
state.a1 = 0.5773502691896258
state.a2 = 0.5773502691896258
state.a4 = 0.5773502691896258
scenario.register = 3
scenario.channels[0].kind = local
scenario.channels[0].qubits = A
scenario.channels[0].rate = 1.0
grid.samples = 16
"""


@pytest.fixture
def fragile_conf(tmp_path):
    path = tmp_path / "fragile.conf"
    path.write_text(FRAGILE_CONF)
    return path


def test_parse_config_text_basics():
    raw = parse_config_text("a.b = 1 # trailing comment\n\n# full line\nc = x, y\n")
    assert raw == {"a.b": "1", "c": "x, y"}


def test_parse_errors():
    with pytest.raises(ConfigParseError):
        parse_config_text("just a line without assignment")
    with pytest.raises(ConfigParseError):
        parse_config_text("a = 1\na = 2")


def test_unknown_key_is_validation_error(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("state.klass = fragile\n")
    with pytest.raises(ConfigValidationError, match="state.klass"):
        load_config(path)


def test_state_from_builds_classes():
    raw = parse_config_text(FRAGILE_CONF)
    spec = state_from(raw)
    assert isinstance(spec, Fragile)
    assert abs(spec.a - 0.7071067811865476) < 1e-15
    w = state_from(parse_config_text(W_CONF))
    assert isinstance(w, WState)


def test_state_from_rejects_foreign_coefficient():
    raw = parse_config_text(FRAGILE_CONF)
    raw["state.c"] = "0.1"
    with pytest.raises(ConfigValidationError, match="state.c"):
        state_from(raw)


def test_state_from_rejects_bad_complex():
    raw = parse_config_text(FRAGILE_CONF)
    raw["state.a"] = "1, 2, 3"
    with pytest.raises(ConfigValidationError, match="state.a"):
        state_from(raw)


def test_scenario_from_channels():
    raw = parse_config_text(FRAGILE_CONF)
    scenario = scenario_from(raw)
    assert scenario.register_size == 2
    kind, rate = scenario.channels[0]
    assert kind == PairCollective("A", "B") and rate == 1.0


def test_scenario_from_rejects_gaps_and_bad_kind():
    raw = parse_config_text(W_CONF)
    raw["scenario.channels[2].kind"] = "local"
    raw["scenario.channels[2].qubits"] = "B"
    raw["scenario.channels[2].rate"] = "1.0"
    with pytest.raises(ConfigValidationError, match="contiguous"):
        scenario_from(raw)
    raw2 = parse_config_text(W_CONF)
    raw2["scenario.channels[0].kind"] = "depolarizing"
    with pytest.raises(ConfigValidationError, match="unknown kind"):
        scenario_from(raw2)


def test_mc_from_defaults_and_override():
    raw = parse_config_text(FRAGILE_CONF)
    cfg = mc_from(raw)
    assert cfg.n_trajectories == 1500 and cfg.seed == 31
    assert mc_from({**raw, "mc.seed": "7"}).seed == 7
    assert mc_from({}) is None


def test_sweep_from_defaults():
    sweep = sweep_from({"sweep.draws": "3", "sweep.seed": "1"})
    assert sweep.draws == 3
    assert "fragile" in sweep.classes
    with pytest.raises(ConfigValidationError):
        sweep_from({"sweep.classes": "nosuch"})


def test_run_writes_expected_files(fragile_conf, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(fragile_conf), "--out", str(out), "--plots"])
    assert code == 0
    for name in ("trajectory.csv", "timescales.csv", "audit.csv", "elements.svg", "entanglement.svg"):
        assert (out / name).exists(), name
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert (
        header
        == "t,abs_rho_12,abs_rho_13,abs_rho_14,abs_rho_23,abs_rho_24,abs_rho_34,C_AB,C2_AB,Ef_AB"
    )
    assert "audit: PASS" in capsys.readouterr().out


def test_run_output_is_deterministic(fragile_conf, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(fragile_conf), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(fragile_conf), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "timescales.csv", "audit.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_elements_only_computes_no_concurrence(fragile_conf, tmp_path, monkeypatch):
    full = tmp_path / "full"
    assert main(["run", "--config", str(fragile_conf), "--out", str(full)]) == 0
    conf = tmp_path / "elements.conf"
    conf.write_text(re.sub(r"(?m)^outputs = .*$", "outputs = elements", FRAGILE_CONF))

    def refuse(stack):
        raise AssertionError("concurrence_curve called for an elements-only run")

    monkeypatch.setattr("dephasim.cli.concurrence_curve", refuse)
    out = tmp_path / "elements"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
    # the element columns of the full run, unchanged
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
    full_rows = [line.split(",") for line in (full / "trajectory.csv").read_text().splitlines()]
    elements = [f"abs_rho_{i}{j}" for i in range(1, 5) for j in range(i + 1, 5)]
    assert rows[0] == ["t", *elements]
    assert rows == [row[:7] for row in full_rows]


#: every (command, flag) pair the command does not read
UNREAD_FLAGS = [
    "run --seed 7",
    "run --force-informational",
    "verify --format json",
    "verify --plots",
    "verify --convention c",
    "verify --force-informational",
    "paper-tables --plots",
    "paper-tables --seed 7",
    "paper-tables --force-informational",
    "paper-tables --convention c",
    "sweep --plots",
    "sweep --force-informational",
    "sweep --convention c",
]


@pytest.mark.parametrize("case", UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_refused(fragile_conf, tmp_path, capsys, case):
    command, *flag = case.split()
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(fragile_conf), "--out", str(out), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_run_register3_schema(tmp_path):
    conf = tmp_path / "w.conf"
    conf.write_text(W_CONF)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    expected_elements = [
        f"abs_rho_{i + 1}{j + 1}" for i in range(8) for j in range(i + 1, 8)
    ]
    assert header == ["t"] + expected_elements + [
        "C2_AB",
        "C2_AC",
        "C2_BC",
        "Ef_AB",
        "Ef_AC",
        "Ef_BC",
    ]


def test_run_json_format(fragile_conf, tmp_path):
    out = tmp_path / "j"
    assert main(["run", "--config", str(fragile_conf), "--out", str(out), "--format", "json"]) == 0
    data = json.loads((out / "trajectory.json").read_text())
    assert data["t"][0] == 0.0
    assert abs(data["C_AB"][0] - 1.0) < 1e-12
    for t, c in zip(data["t"], data["C_AB"]):
        assert abs(c - math.exp(-2.0 * t)) < 1e-12
    assert abs(data["C2_AB"][3] - data["C_AB"][3] ** 2) < 1e-12
    fits = json.loads((out / "timescales.json").read_text())["fits"]
    element = {f["key"]: f for f in fits if f["kind"] == "element"}
    assert abs(element["rho_14"]["tau"] - 0.5) < 1e-12
    assert element["rho_12"]["tau"] == "inf"


def test_run_validation_failure_writes_nothing(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text(FRAGILE_CONF.replace("rate = 1.0", "rate = -2.0"))
    out = tmp_path / "nope"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("run", "rate = 1.0", "rate = nan", "scenario.channels[0].rate"),
        ("run", "rate = 1.0", "rate = inf", "scenario.channels[0].rate"),
        ("run", "grid.t_max = 3.0", "grid.t_max = nan", "grid.t_max"),
        ("sweep", "mc.t = 1.0", "sweep.rate = nan", "sweep.rate"),
        ("verify", "mc.t = 1.0", "mc.t = nan", "mc.t"),
        ("run", "state.b = 0, 0", "state.b = inf", "state.b: must be finite, got 'inf'"),
        ("verify", "state.b = 0, 0", "state.b = 0, -inf", "state.b: must be finite"),
    ],
)
def test_non_finite_numbers_are_validation_errors(tmp_path, capsys, command, old, new, key):
    conf = tmp_path / "c.conf"
    conf.write_text(FRAGILE_CONF.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("excess", [0.4, 1.3e-11])
def test_unnormalised_coefficients_are_validation_errors(tmp_path, capsys, command, excess):
    a = 0.5773502691896258
    conf = tmp_path / "w.conf"
    conf.write_text(
        W_CONF.replace(f"state.a4 = {a}", f"state.a4 = {math.sqrt(a * a + excess)!r}")
        + "mc.trajectories = 10\nmc.seed = 1\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 3
    assert "state.a1, state.a2, state.a4: coefficients are not normalized" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("mc.trajectories", "0"),
        ("mc.t", "0"),
        ("grid.samples", "4"),
        ("grid.t_max", "-1"),
        ("mc.seed", "-1"),
        ("sweep.seed", "-1"),
        ("mc.trajectories", "10000001"),
        ("grid.samples", "100001"),
        # rates and horizons outside SCALE_RANGE
        ("scenario.channels[0].rate", "1e-101"),
        ("scenario.channels[0].rate", "1e101"),
        ("sweep.rate", "1e-101"),
        ("sweep.rate", "1e101"),
        ("grid.t_max", "1e-101"),
        ("grid.t_max", "1e101"),
        ("mc.t", "1e-101"),
        ("mc.t", "1e101"),
    ],
)
def test_validation_errors_name_their_own_key(key, value):
    raw = parse_config_text(FRAGILE_CONF)
    raw[key] = value
    with pytest.raises(ConfigValidationError) as info:
        if key.startswith("mc."):
            mc_from(raw)
        elif key.startswith("sweep."):
            sweep_from(raw)
        else:
            grid_from(raw, scenario_from(raw))
    assert info.value.field == key


@pytest.mark.parametrize(
    "command, edits, key",
    [
        # each of these ended in a traceback or a nan verdict before rates and horizons were bounded
        ("run", {"scenario.channels[0].rate": "1e-308"}, "scenario.channels[0].rate"),
        ("run", {"scenario.channels[0].rate": "1e308"}, "scenario.channels[0].rate"),
        ("sweep", {"sweep.rate": "1e-320"}, "sweep.rate"),
        ("sweep", {"sweep.rate": "1e308"}, "sweep.rate"),
        (
            "verify",
            {"scenario.channels[0].rate": "1e300", "mc.t": "1e10"},
            "scenario.channels[0].rate",
        ),
        # the phase is drawn in one step, so there is no step size to set
        ("verify", {"mc.dt": "0.02"}, "mc.dt: unknown configuration key"),
    ],
    ids=[
        "run-rate-1e-308",
        "run-rate-1e308",
        "sweep-rate-1e-320",
        "sweep-rate-1e308",
        "verify-rate-1e300-t-1e10",
        "verify-mc.dt",
    ],
)
def test_out_of_range_configs_name_their_key(tmp_path, capsys, command, edits, key):
    raw = {**parse_config_text(FRAGILE_CONF), **edits}
    conf = tmp_path / "c.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 3
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_through_unique_temp_files(fragile_conf, tmp_path):
    out = tmp_path / "out"
    blocker = out / "trajectory.csv.tmp"
    blocker.mkdir(parents=True)
    assert main(["run", "--config", str(fragile_conf), "--out", str(out)]) == 0
    assert list(out.glob("*.tmp")) == [blocker]
    plain = tmp_path / "plain"
    plain.write_text("")
    assert (out / "trajectory.csv").stat().st_mode == plain.stat().st_mode
    # a rename that fails leaves no temp file behind, and none of the command's files
    (out / "audit.csv").unlink()
    (out / "audit.csv").mkdir()
    assert main(["run", "--config", str(fragile_conf), "--out", str(out)]) == 4
    assert list(out.glob("*.tmp")) == [blocker]
    assert sorted(p.name for p in out.iterdir()) == ["audit.csv", blocker.name]


@pytest.mark.parametrize("command, key", [("verify", "mc.seed"), ("sweep", "sweep.seed")])
def test_negative_seed_flag_is_validation_error(fragile_conf, tmp_path, capsys, command, key):
    out = tmp_path / "out"
    assert main([command, "--config", str(fragile_conf), "--out", str(out), "--seed", "-1"]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_run_long_horizon_is_exact(tmp_path, capsys):
    # 64 samples over 1000 / rate: the trajectory spans many decay times, and
    # the report, bracketed on the default grid, still finds the exact tau
    conf = tmp_path / "long.conf"
    conf.write_text(
        FRAGILE_CONF.replace("rate = 1.0", "rate = 2.0")
        .replace("grid.t_max = 3.0", "grid.t_max = 1000")
        .replace("grid.samples = 16", "grid.samples = 64")
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert "audit: PASS" in capsys.readouterr().out.splitlines()
    with (out / "timescales.csv").open() as fh:
        rows = {(row["kind"], row["key"]): row for row in csv.DictReader(fh)}
    assert abs(float(rows["concurrence", "AB"]["tau"]) - 0.25) < 1e-12
    assert float(rows["concurrence", "AB"]["limit"]) == 0.0


def test_run_parse_failure_exit_code(tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text("state.class fragile\n")
    assert main(["run", "--config", str(conf)]) == 2
    assert main(["run", "--config", str(tmp_path / "absent.conf")]) == 2


def test_non_utf8_config_is_a_parse_error(fragile_conf, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"state.class = w\xff\n")
    with pytest.raises(ConfigParseError, match="is not UTF-8 text"):
        load_config(conf)
    out = tmp_path / "o"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config parse error: ") and "not UTF-8" in err
    assert not out.exists()


def test_a_byte_order_mark_is_not_part_of_the_first_key(fragile_conf, tmp_path):
    bom = tmp_path / "bom.conf"
    bom.write_bytes(b"\xef\xbb\xbf" + fragile_conf.read_bytes())
    assert load_config(bom) == load_config(fragile_conf)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["run", "--config", str(fragile_conf), "--out", str(plain), "--plots"]) == 0
    assert main(["run", "--config", str(bom), "--out", str(marked), "--plots"]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in marked.iterdir())
    for name in names:
        assert (marked / name).read_bytes() == (plain / name).read_bytes()
    # a mark does not make other bytes UTF-8
    bom.write_bytes(b"\xef\xbb\xbfstate.class = w\xff\n")
    assert main(["run", "--config", str(bom), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["run", "verify"])
def test_register_mismatch_is_validation_error(tmp_path, capsys, command):
    conf = tmp_path / "m.conf"
    conf.write_text(
        W_CONF.replace("scenario.register = 3", "scenario.register = 2")
        + "mc.trajectories = 10\nmc.seed = 1\n"
    )
    out = tmp_path / "o"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 3
    assert "scenario.register: state class 'w' needs a 3-qubit register" in capsys.readouterr().err
    assert not out.exists()


def test_verify_pass_and_byte_identical(fragile_conf, tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", str(fragile_conf), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(fragile_conf), "--out", str(out2)]) == 0
    b1 = (out1 / "verify.json").read_bytes()
    assert b1 == (out2 / "verify.json").read_bytes()
    payload = json.loads(b1)
    assert list(payload) == [
        "state_class",
        "scenario",
        "n_trajectories",
        "seed",
        "t_final",
        "distance",
        "expected_distance",
        "max_z",
        "z_limit",
        "alpha",
        "informational",
        "passed",
        "elements",
    ]
    assert payload["passed"] is True
    assert payload["alpha"] == 1e-3
    assert payload["distance"] <= 5 * payload["expected_distance"]
    assert payload["max_z"] <= payload["z_limit"]
    elements = {e["element"]: e for e in payload["elements"]}
    assert abs(elements["rho_14"]["channel_re"] - 0.5 * math.exp(-2.0)) < 1e-12


def test_verify_seed_flag_changes_output(fragile_conf, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["verify", "--config", str(fragile_conf), "--out", str(out1)])
    main(["verify", "--config", str(fragile_conf), "--out", str(out2), "--seed", "77"])
    a = json.loads((out1 / "verify.json").read_text())
    b = json.loads((out2 / "verify.json").read_text())
    assert a["distance"] != b["distance"]
    assert b["seed"] == 77


def test_verify_triple_collective_exit_codes(tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text(
        "state.class = ghz\n"
        "state.a0 = 0.7071067811865476\n"
        "state.a7 = 0.7071067811865476\n"
        "scenario.register = 3\n"
        "scenario.channels[0].kind = triple_collective\n"
        "scenario.channels[0].rate = 1.0\n"
        "mc.trajectories = 300\n"
        "mc.seed = 3\n"
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["informational"] is False


def test_verify_passes_a_correct_channel_at_a_tiny_rate(tmp_path, capsys):
    # a sample-variance verdict read max_z = inf here: the decay 1e-8 * t leaves
    # too little spread in the trajectories to estimate one
    conf = tmp_path / "tiny.conf"
    conf.write_text(
        "state.class = generic\n"
        "state.a = 0.5\nstate.b = 0, 0.5\nstate.c = 0.5\nstate.d = 0.5\n"
        "scenario.register = 2\n"
        "scenario.channels[0].kind = local\n"
        "scenario.channels[0].qubits = A\n"
        "scenario.channels[0].rate = 1e-8\n"
        "mc.t = 1\nmc.trajectories = 10000\nmc.seed = 1\n"
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("verify: PASS distance=7.71659e-07 ")
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True and math.isfinite(payload["max_z"])


def test_verify_requires_mc_section(tmp_path):
    conf = tmp_path / "nomc.conf"
    conf.write_text(W_CONF)
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")]) == 3


def test_paper_tables_all_green(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["paper-tables", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "0 FAIL" in captured
    payload = json.loads((out / "paper_tables.json").read_text())
    assert payload["failures"] == []
    assert all(row["ok"] for row in payload["oracle_checks"])
    assert all(row["ok"] for row in payload["timescales"])
    # a coherence time is 1 / E bit for bit; the disentanglement rows come
    # from regula falsi and are checked to 1e-12 by the command itself
    elements = [row for row in payload["timescales"] if row["convention"] == "element"]
    assert len(elements) == 18
    assert [row["measured"] for row in elements] == [row["implied"] for row in elements]
    assert (out / "paper_tables.csv").exists()


#: the combination whose oracle check the fault tests break: W under triple collective
FAULTY = PAPER_MATRIX.index(("w", "3q-collective"))


def _paper_tables_with_a_fault(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["paper-tables", "--out", str(out)]) == 1
    payload = json.loads((out / "paper_tables.json").read_text())
    assert [row["ok"] for row in payload["oracle_checks"]] == [
        k != FAULTY for k in range(len(PAPER_MATRIX))
    ]
    mismatches = [f for f in payload["failures"] if f.startswith("oracle mismatch: ")]
    assert len(mismatches) == 1 and mismatches[0].startswith("oracle mismatch: (w, 3q-collective, ")
    assert mismatches[0] in capsys.readouterr().err
    return payload["oracle_checks"][FAULTY]


def test_the_oracle_catches_a_fault_in_one_draw_of_the_evolution(tmp_path, capsys, monkeypatch):
    evolve = cli.evolve
    combination = iter(range(len(PAPER_MATRIX)))  # one evolve call per combination

    def perturbed(rho0, scenario, t):
        out = evolve(rho0, scenario, t)
        if next(combination) == FAULTY:
            out[3, :, 1, 2] += 1e-10  # every time slice of draw 3
        return out

    monkeypatch.setattr(cli, "evolve", perturbed)
    _paper_tables_with_a_fault(tmp_path, capsys)


def test_a_nan_in_one_slice_of_the_evolution_fails_the_oracle(tmp_path, capsys, monkeypatch):
    evolve = cli.evolve
    combination = iter(range(len(PAPER_MATRIX)))

    def poisoned(rho0, scenario, t):
        out = evolve(rho0, scenario, t)
        if next(combination) == FAULTY:
            out[3, 4, 1, 2] = math.nan  # the last time slice of draw 3 only
        return out

    monkeypatch.setattr(cli, "evolve", poisoned)
    assert _paper_tables_with_a_fault(tmp_path, capsys)["max_distance"] == "nan"

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    # the NaN is written as its CSV text, so the file is strict JSON
    json.loads((tmp_path / "tables" / "paper_tables.json").read_text(), parse_constant=refuse)


def _per_slice_oracle(cls, scenario, seed):
    """The oracle written out draw by draw and slice by slice."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 2.0, 5)
    rho0 = np.stack([projector(draw_state(cls, rng)).matrix for _ in range(10)])[:, None]
    expected = rho0 * analytic_factors(scenario, STATE_TYPES[cls].register, times)
    got = evolve(rho0, scenario, times[:, None, None])
    shape = (-1, *rho0.shape[-2:])
    return max(0.0, *map(frobenius_distance, expected.reshape(shape), got.reshape(shape)))


def test_the_stacked_oracle_is_the_per_slice_formula_bit_for_bit():
    for idx, (cls, scen_name) in enumerate(PAPER_MATRIX):
        scenario = named_scenario(scen_name, 1.0)
        seed = 1000 + idx  # the seeds paper-tables uses
        assert cli._oracle_check(cls, scenario, seed) == _per_slice_oracle(cls, scenario, seed)


@pytest.mark.parametrize(
    "a4, message",
    [
        (math.sqrt(0.4096 + 1e-9), "trace is 1.000000001"),  # sum |c|^2 = 1 + 1e-9
        (math.nan, "matrix has a non-finite entry"),
    ],
    ids=["norm-1e-9", "nan"],
)
def test_the_stacked_oracle_refuses_a_draw_that_is_not_a_state(monkeypatch, a4, message):
    draws = iter(range(10))

    def drawn(cls, rng):
        spec = draw_state(cls, rng)
        return WState(0.6, 0.48, a4) if next(draws) == 3 else spec

    monkeypatch.setattr(cli, "draw_state", drawn)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli._oracle_check("w", named_scenario("3q-local-A", 1.0), seed=1000)


def test_the_oracle_catches_a_fault_in_the_closed_form(tmp_path, capsys, monkeypatch):
    channel_factor = states._channel_factor

    def perturbed(kind, register, g):
        factor = channel_factor(kind, register, g).copy()
        if isinstance(kind, TripleCollective):
            # a W coherence; GHZ, the other class under this channel, has none there
            factor[1, 2] += 1e-10
            factor[2, 1] += 1e-10
        return factor

    monkeypatch.setattr(states, "_channel_factor", perturbed)
    _paper_tables_with_a_fault(tmp_path, capsys)


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("paper-tables", "outputs = elements, concurrence, eof, timescales, audit", "outputs = bogus"),
        ("paper-tables", "format = csv", "convention = x"),
        ("verify", "outputs = elements, concurrence, eof, timescales, audit", "outputs = bogus"),
        ("verify", "format = csv", "convention = x"),
        ("verify", "format = csv", "format = bogus"),
    ],
    ids=[
        "paper-tables-outputs",
        "paper-tables-convention",
        "verify-outputs",
        "verify-convention",
        "verify-format",
    ],
)
def test_a_command_ignores_output_keys_it_does_not_read(tmp_path, command, old, new):
    conf = tmp_path / "c.conf"
    conf.write_text(FRAGILE_CONF.replace(old, new))
    assert main([command, "--config", str(conf), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("outputs = elements, concurrence, eof, timescales, audit", "outputs = bogus", "outputs"),
        ("format = csv", "convention = x", "convention"),
        ("format = csv", "format = bogus", "format"),
    ],
    ids=["outputs", "convention", "format"],
)
def test_run_still_validates_its_output_keys(tmp_path, capsys, old, new, key):
    conf = tmp_path / "c.conf"
    conf.write_text(FRAGILE_CONF.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 3
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_small_run(tmp_path, capsys):
    conf = tmp_path / "s.conf"
    conf.write_text(
        "sweep.draws = 2\nsweep.seed = 5\nsweep.classes = fragile, ghz\n"
        "sweep.scenarios = 2q-collective, 3q-collective\n"
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "class,scenario,draw,pair,verdict,tau_dis,tau_bound,margin"
    assert "0 FAIL" in capsys.readouterr().out
    # the classes and scenarios on different registers are skipped, not refused
    pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert pairs == {("fragile", "2q-collective"), ("ghz", "3q-collective")}


def test_sweep_with_no_class_on_a_scenario_register_is_refused(tmp_path, capsys):
    conf = tmp_path / "s.conf"
    conf.write_text("sweep.draws = 2\nsweep.classes = w\nsweep.scenarios = 2q-collective\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: sweep.scenarios: ")
    assert not out.exists()


def test_sweep_zero_floor_draw_passes(tmp_path, capsys):
    # under seed 0 the 51st generic draw's concurrence reaches zero within a few grid samples
    conf = tmp_path / "s.conf"
    conf.write_text(
        "sweep.draws = 51\nsweep.seed = 0\nsweep.classes = generic\n"
        "sweep.scenarios = 2q-collective\n"
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "51 pair verdicts" in summary and "0 FAIL" in summary
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 51 and not any(",FAIL," in row for row in rows)


def test_line_chart_structure():
    xs = np.linspace(0, 1, 10)
    svg = line_chart([("decay", xs, np.exp(-xs))], "title", "t", "y")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg and "decay" in svg
    # log mode drops nonpositive values instead of failing
    svg_log = line_chart([("zero", xs, np.zeros(10))], "t", "x", "y", log_y=True)
    assert "polyline" not in svg_log


def _w_conf(tmp_path, extra: str):
    conf = tmp_path / "w.conf"
    conf.write_text(
        W_CONF.replace("grid.samples = 16\n", "")
        + "scenario.channels[1].kind = pair_collective\n"
        + "scenario.channels[1].qubits = B, C\n"
        + "scenario.channels[1].rate = 0.7\n"
        + extra
    )
    return conf


def test_run_taus_do_not_depend_on_the_output_grid(tmp_path):
    # the report brackets its crossings on the default grid whatever the
    # output grid, so its files are the same to the last bit
    grids = ("", "grid.samples = 64\n", "grid.samples = 2000\n", "grid.t_max = 7.5\n")
    written = []
    for k, extra in enumerate(grids):
        out = tmp_path / f"out{k}"
        conf = _w_conf(tmp_path, extra + "outputs = timescales, audit\n")
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in ("timescales.csv", "audit.csv")])
    assert all(files == written[0] for files in written[1:])
    assert b"concurrence,AB," in written[0][0]


def test_trajectory_cells_round_trip_to_their_columns(tmp_path):
    outputs = "elements, concurrence, eof, reduced"
    conf = _w_conf(tmp_path, f"grid.samples = 300\noutputs = {outputs}\n")
    raw = load_config(conf)
    scenario = scenario_from(raw)
    columns = _trajectory_columns(
        state_from(raw), scenario, grid_from(raw, scenario), tuple(outputs.split(", "))
    )
    assert main(["run", "--config", str(conf), "--out", str(tmp_path / "c")]) == 0
    with (tmp_path / "c" / "trajectory.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(columns)
    for name, cells in zip(header, zip(*rows)):
        assert [float(cell).hex() for cell in cells] == [x.hex() for x in columns[name].tolist()]

    assert main(["run", "--config", str(conf), "--out", str(tmp_path / "j"), "--format", "json"]) == 0
    reference = {
        name: ["inf" if math.isinf(x) else x for x in col.tolist()] for name, col in columns.items()
    }
    text = (tmp_path / "j" / "trajectory.json").read_text()
    assert text == json.dumps(reference, indent=2) + "\n"
    assert _table("json", {}, {"x": np.array([0.5, math.inf])}) == '{\n  "x": [\n    0.5,\n    "inf"\n  ]\n}\n'


def test_row_tables_render_none_bool_and_inf_cells():
    header = ["pair", "verdict", "tau_dis", "tau_bound", "margin", "ok", "note"]
    rows = [
        {"pair": "AB", "verdict": "VACUOUS", "tau_dis": None, "tau_bound": None, "margin": None},
        {
            "pair": "AC",
            "verdict": "PASS",
            "tau_dis": np.float64(0.25),
            "tau_bound": math.inf,
            "margin": 3,
            "ok": True,
            "note": "a, b",
        },
        {"pair": "overall", "verdict": "VACUOUS", "ok": False},
    ]
    assert _table("csv", _columns(header, rows), rows) == (
        "pair,verdict,tau_dis,tau_bound,margin,ok,note\n"
        "AB,VACUOUS,,,,,\n"
        'AC,PASS,0.25,inf,3,true,"a, b"\n'
        "overall,VACUOUS,,,,false,\n"
    )
    assert _table("csv", _columns(header, []), []) == ",".join(header) + "\n"


def _reference_csv(columns: dict) -> str:
    """`columns` written cell by cell through `csv.writer` and `cli._cell`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*([cli._cell(v) for v in col] for col in columns.values())))
    return buf.getvalue()


def test_float_tables_are_the_csv_writer_rendering():
    n = 7
    ramp = np.linspace(0.0, 1.0, n)
    columns = {
        "t": ramp,
        "zero": np.zeros(n),
        "negative_zero": np.full(n, -0.0),
        "zero_then_negative_zero": np.where(np.arange(n) % 2, -0.0, 0.0),
        "negative_zero_first": np.r_[-0.0, np.zeros(n - 1)],
        "constant": np.full(n, 0.1),
        "constant_but_last": np.r_[np.full(n - 1, 0.1), np.nextafter(0.1, 1.0)],
        "inf": np.full(n, math.inf),
        "nan": np.full(n, math.nan),
        "nan_and_values": np.where(ramp > 0.5, math.nan, ramp),
        "tiny": np.full(n, 5e-324),
        # equal to earlier columns in bits, or only in value
        "t_again": ramp.copy(),
        "t_reversed_twice": ramp[::-1][::-1],
        "zero_then_negative_zero_swapped": np.where(np.arange(n) % 2, 0.0, -0.0),
        "nan_again": np.full(n, math.nan),
    }
    tables = [
        columns,
        {"only": ramp},
        {"only": np.full(n, -0.0)},
        {"a": np.zeros(0), "b": np.zeros(0)},
    ]
    for table in tables:
        assert _table("csv", table, table) == _reference_csv(table)
    rows = [line.split(",") for line in _table("csv", columns, columns).splitlines()[1:]]
    assert [row[3] for row in rows] == ["0.0", "-0.0"] * 3 + ["0.0"]  # per cell where bits differ
    assert _table("csv", {"a": np.zeros(0)}, None) == "a\n"


def test_a_table_formats_each_distinct_float_column_once(monkeypatch, tmp_path):
    # the reduced columns repeat full-register ones bit for bit, e.g.
    # abs_AB_rho_23 is abs_rho_35 and abs_AC_rho_23 is abs_rho_25 for a W state
    outputs = ("elements", "concurrence", "eof", "reduced")
    conf = _w_conf(tmp_path, f"grid.samples = 50\noutputs = {', '.join(outputs)}\n")
    raw = load_config(conf)
    scenario = scenario_from(raw)
    columns = _trajectory_columns(state_from(raw), scenario, grid_from(raw, scenario), outputs)
    assert np.array_equal(columns["abs_AB_rho_23"], columns["abs_rho_35"])
    distinct = {col.tobytes() for col in columns.values()}
    assert len(distinct) < len(columns)
    formatted = []

    def cells(values):
        formatted.append(values.tobytes())
        return [cli._cell(v) for v in values]

    monkeypatch.setattr(cli, "_cells", cells)
    assert _table("csv", columns, columns) == _reference_csv(columns)
    assert sorted(formatted) == sorted(distinct)


def _reference_polylines(series, log_y: bool) -> list[str]:
    """`line_chart`'s polyline points, computed one data point at a time."""
    plot_w = svgplot._WIDTH - svgplot._MARGIN_LEFT - svgplot._MARGIN_RIGHT
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_TOP - svgplot._MARGIN_BOTTOM
    kept = []
    for _, xs, ys in series:
        points = [(x, y) for x, y in zip(xs.tolist(), ys.tolist()) if y > 0 or not log_y]
        if points:
            kept.append(points)
    x_lo = min(x for points in kept for x, _ in points)
    x_hi = max(x for points in kept for x, _ in points)
    y_vals = np.array([y for points in kept for _, y in points])
    y_vals = np.log10(y_vals) if log_y else y_vals
    y_lo, y_hi = float(np.min(y_vals)), float(np.max(y_vals))

    def point(x: float, y: float) -> str:
        px = svgplot._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        v = math.log10(y) if log_y else y
        py = svgplot._MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h
        return f"{px:.6g},{py:.6g}"

    return [" ".join(point(x, y) for x, y in points) for points in kept]


@pytest.mark.parametrize("log_y", [False, True])
def test_line_chart_polyline_matches_the_per_point_formula(log_y):
    rng = np.random.default_rng(8)
    xs = np.sort(rng.uniform(-2.0, 5.0, 400))
    series = [
        ("spread", xs, 10.0 ** rng.uniform(-250.0, 3.0, 400)),
        ("signed", xs, rng.normal(size=400)),
        ("negative", xs[:50], -rng.uniform(0.0, 1.0, 50)),
        ("zeros", xs, np.where(rng.random(400) < 0.5, 0.0, rng.uniform(0.0, 1e-3, 400))),
    ]
    # series on an equal copy of xs, and on shifted xs, beside those on xs itself
    series += [("spread-copy", xs.copy(), 2.0 * series[0][2]), ("shifted", xs + 0.5, series[1][2])]
    svg = line_chart(series, "title", "t", "y", log_y=log_y)
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert polylines == _reference_polylines(series, log_y)
    assert len(polylines) == (5 if log_y else 6)
