import csv
import json
import math

import numpy as np
import pytest

from dephasim.cli import main
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
from dephasim.channels import PairCollective
from dephasim.states import Fragile, WState
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
    assert mc_from(raw, seed_override=7).seed == 7
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
    # 64 samples over 1000 / rate: the concurrence is below its level from
    # the second sample on, and only the refinement on the exact curve finds tau
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
        "distance_bound",
        "max_z",
        "z_limit",
        "informational",
        "passed",
        "elements",
        "divergence",
    ]
    assert payload["passed"] is True
    assert payload["distance"] <= payload["distance_bound"]
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
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 5
    assert not (out / "verify.json").exists()
    assert main(["verify", "--config", str(conf), "--out", str(out), "--force-informational"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["informational"] is True
    assert payload["divergence"][0]["element"] == "rho_18"


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
    assert (out / "paper_tables.csv").exists()


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
