import time
import warnings

import pytest

import layered_aloha
from layered_aloha import (
    cli,
    config_from_settings,
    design_config,
    estimate_throughput,
    outage,
    parse_config_text,
    psi_series,
    throughput,
)
from layered_aloha.cli import _settings_from_args, build_parser, main
from layered_aloha.model import _SETTINGS
from layered_aloha.scenarios import CSV_HEADER, SCENARIOS, parse_grid


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == CSV_HEADER
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(
            dict(zip(("scenario", "x_name", "x_value", "layer", "quantity",
                      "value", "stderr", "slots", "seed"), parts))
        )
    return rows


def test_cli_reads_library_names_through_the_package():
    assert cli.outage is layered_aloha.outage
    assert cli.estimate_throughput is layered_aloha.simulate.estimate_throughput
    assert cli.get_scenario is layered_aloha.scenarios.get_scenario
    assert vars(cli)["get_scenario"] is cli.get_scenario  # bound as a global
    with pytest.raises(AttributeError):
        getattr(cli, "no_such_name")
    # only public names: the package's `__path__` would make `cli` read as a package
    assert not hasattr(cli, "__path__") and not hasattr(cli, "__all__")


def test_scenario_list(capsys):
    assert main(["scenario", "--list"]) == 0
    out = capsys.readouterr().out
    assert "throughput-vs-arrival" in out
    assert "outage-vs-copies" in out
    assert "compare-irsa" in out


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "does-not-exist"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_simulate_command_matches_library(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "simulate", "--layers", "1", "--channels", "10", "--arrival", "10",
        "--rate", "1", "--gamma-db", "3.0103", "--slots", "2000", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    rows = _parse_csv(out.read_text())
    cfg = design_config(1, 10, 10.0, 1.0, 10 ** 0.30103)
    ana = [r for r in rows if r["quantity"] == "analytic_throughput" and r["layer"] == "total"][0]
    assert float(ana["value"]) == pytest.approx(throughput(cfg).total_throughput, rel=1e-8)
    sim = [r for r in rows if r["quantity"] == "simulated_throughput" and r["layer"] == "total"][0]
    est = estimate_throughput(cfg, 2000, 7)
    assert float(sim["value"]) == pytest.approx(est.total.value, rel=1e-8)
    assert sim["slots"] == "2000" and sim["seed"] == "7"
    caps = {r["quantity"] for r in rows if r["layer"] == "1"}
    assert {"capture_exact", "capture_bound"} <= caps


def test_simulate_to_stdout(capsys):
    code = main([
        "simulate", "--layers", "2", "--channels", "8", "--arrival", "4",
        "--rate", "1", "--gamma-db", "3", "--slots", "500", "--out", "-",
    ])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert any(r["quantity"] == "simulated_throughput" for r in rows)


def test_outage_command(tmp_path, capsys):
    code = main([
        "outage", "--layers", "3", "--channels", "60", "--arrival", "3",
        "--rate", "1", "--gamma-db", "10", "--copies", "4", "--out", "-",
    ])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    ana = [float(r["value"]) for r in rows if r["quantity"] == "analytic_outage"]
    assert len(ana) == 3
    assert ana == sorted(ana)
    assert not any(r["quantity"] == "simulated_outage" for r in rows)
    # with slots the simulated rows appear
    code = main([
        "outage", "--layers", "3", "--channels", "60", "--arrival", "3",
        "--rate", "1", "--gamma-db", "10", "--copies", "4", "--slots", "500",
        "--out", "-",
    ])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert any(r["quantity"] == "simulated_outage" for r in rows)


def test_a_rate_near_the_cap_decodes_nothing_without_nan_or_warnings(capsys):
    # nu * P_i overflows at rate 1023: the capture term read NaN, `outage`'s
    # series never met its stop rule and `simulate` refused capture_prob = nan
    system = ["--layers", "2", "--channels", "10", "--arrival", "3", "--rate", "1023",
              "--gamma-db", "10", "--out", "-"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["outage", *system]) == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert [r["value"] for r in rows] == ["1", "1"]
        assert main(["simulate", *system, "--slots", "2000"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert {r["value"] for r in rows if r["quantity"] == "capture_exact"} == {"0"}
    assert {r["value"] for r in rows if r["quantity"] == "simulated_throughput"} == {"0"}


@pytest.mark.parametrize("channels, copies", [
    ("1", "1"),  # omega = 0: the alternating form's omega^-j does not exist
    ("2000", "1100"),  # C(B, b) past the float range
])
def test_outage_command_at_the_domain_edges(capsys, channels, copies):
    flags = ["--channels", channels, "--layers", "1", "--arrival", "2", "--rate", "1",
             "--gamma-db", "10", "--copies", copies]
    assert main(["outage", *flags, "--out", "-"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    [value] = [r["value"] for r in rows if r["quantity"] == "analytic_outage"]
    args = build_parser().parse_args(["outage", *flags])
    config = config_from_settings(_settings_from_args(args))
    series = psi_series(1, config)
    assert value == f"{series:.9g}"
    assert outage(config).psi[0] == pytest.approx(series, abs=1e-10)


@pytest.mark.parametrize("command", ["simulate", "outage"])
def test_one_point_header_echoes_the_simulated_config(tmp_path, capsys, command):
    # per-layer lists, noise power, gain mean, B and config-file powers all
    # reach the `# config:` line, not just the first layer's values
    cfg = tmp_path / "system.cfg"
    cfg.write_text("powers = 5, 2.5, 1\n")
    code = main([
        command, "--config", str(cfg), "--layers", "3", "--channels", "12",
        "--arrival", "2,3,4", "--rate", "1.5,1,0.5", "--noise-power", "0.6",
        "--gain-mean", "1.7", "--copies", "2", "--slots", "200", "--out", "-",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    header = [ln for ln in lines if ln.startswith("# config:")]
    assert header == ["# config: layers=3 channels=12 arrival_rate=2,3,4 rate=1.5,1,0.5 "
                      "power=5,2.5,1 noise_power=0.6 gain_mean=1.7 repetition=2"]
    # one configuration is not a sweep over layer 1's arrival rate or B
    assert not any(ln.startswith("# sweep:") for ln in lines)


def test_optimize_rates_command(capsys):
    code = main([
        "optimize-rates", "--layers", "3", "--channels", "10", "--arrival", "10",
        "--gamma-db", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "total throughput:" in out
    total = float(out.rsplit(":", 1)[1])
    assert 4.5 < total < 6.0  # optimized three-layer system at 3 dB


def test_sweep_command(capsys):
    code = main([
        "sweep", "--var", "arrival", "--grid", "2,6,10", "--layers", "2",
        "--channels", "10", "--rate", "1", "--gamma-db", "3",
        "--outputs", "analytic", "--out", "-",
    ])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    xs = sorted({r["x_value"] for r in rows})
    assert xs == ["10", "2", "6"]


def test_sweep_grid_spec(capsys):
    code = main([
        "sweep", "--var", "copies", "--grid", "1:3:1", "--layers", "2",
        "--channels", "20", "--arrival", "3", "--rate", "1", "--gamma-db", "10",
        "--outputs", "analytic", "--out", "-",
    ])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert {r["x_value"] for r in rows} == {"1", "2", "3"}


@pytest.mark.parametrize("var, name", [
    ("arrival", "throughput-vs-arrival"), ("copies", "outage-vs-copies"),
    ("gamma-db", "throughput-vs-gamma"), ("layers", "throughput-vs-layers"),
    ("rate", "throughput-vs-rate"),
])
def test_sweep_writes_the_rows_of_the_registry_scenario_it_restates(capsys, var, name):
    s = SCENARIOS[name]
    flag_of = {key: flag for key, (_, flag, _) in _SETTINGS.items()}
    system = [arg for key, value in s.settings.items() for arg in (flag_of[key], str(value))]
    assert main(["scenario", name, "--slots", "200"]) == 0
    expected = _parse_csv(capsys.readouterr().out)
    assert main(["sweep", "--var", var, "--grid=" + ",".join(map(repr, s.grid)),
                 "--outputs", ",".join(s.outputs), "--slots", "200", "--seed", str(s.seed),
                 *system]) == 0
    got = _parse_csv(capsys.readouterr().out)
    assert len(got) == len(expected) > 0
    assert [r | {"scenario": "sweep"} for r in expected] == got


@pytest.mark.parametrize("spec, points", [
    ("0:1:0.6", (0.0, 0.6)),
    ("1:10:6", (1.0, 7.0)),
    ("0:0.9:0.3", (0.0, 0.3, 0.6, 0.9)),
    ("0.1:6.0:0.1", tuple(k / 10 for k in range(1, 61))),
])
def test_grid_range_stops_at_or_below_stop(spec, points):
    assert parse_grid(spec) == points


def test_sweep_grid_range_never_passes_the_channel_count(capsys):
    # the last point is the largest 1 + 6k <= 10, so B never passes N = 10
    code = main(["sweep", "--var", "copies", "--grid", "1:10:6", "--layers", "1",
                 "--channels", "10", "--arrival", "2", "--gamma-db", "3", "--out", "-"])
    assert code == 0
    assert {r["x_value"] for r in _parse_csv(capsys.readouterr().out)} == {"1", "7"}


@pytest.mark.parametrize("spec", ["1:inf:1", "0:1:inf", "-inf:1:1", "nan:1:1", "0:nan:1"])
def test_sweep_rejects_non_finite_grid_ranges(capsys, spec):
    code = main(["sweep", "--var", "arrival", f"--grid={spec}", "--layers", "1",
                 "--channels", "10", "--gamma-db", "3", "--out", "-"])
    assert code == 2
    assert "bad grid range" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1,1", "1:1.00000000001:1e-12", "1:2:1e-11",
                                  "1e6:1000000.000000005:1e-10"])
def test_sweep_rejects_repeated_grid_points(capsys, grid):
    # the ranges' points round to repeated values at 10 decimals, or at 1e6 to
    # floats a spacing apart; a step below 1e-10 is refused before its 10^11
    # points would be built
    code = main(["sweep", "--var", "arrival", "--grid", grid, "--layers", "2", "--channels",
                 "10", "--gamma-db", "3", "--outputs", "analytic"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "strictly increasing" in captured.err


@pytest.mark.parametrize("grid, outputs, message", [
    ("0:1e9:0.01", "analytic", "more than 100000 points"),  # 10^11 points
    ("1:2:1e-10", "analytic", "more than 100000 points"),  # 10^10 points
    ("1,2", "analytic,analytic", "name an output twice"),
], ids=["wide-range", "fine-step", "repeated-output"])
def test_sweep_refuses_huge_grids_and_repeated_outputs(capsys, grid, outputs, message):
    # refused before any grid point is built
    code = main(["sweep", "--var", "arrival", "--grid", grid, "--layers", "1", "--channels",
                 "10", "--gamma-db", "3", "--outputs", outputs])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("layers = 2\nchannels = 10\narrival_rate = 5\nrate = 1\ngamma_db = 3\n")
    code = main(["simulate", "--config", str(cfg), "--arrival", "8",
                 "--slots", "200", "--out", "-"])
    assert code == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0]["x_value"] == "8"


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["simulate", "--layers", "2", "--channels", "10",
                 "--arrival", "5", "--out", "-"]) == 2  # no gamma or powers
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("layers = x\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # a key set twice used to run with the later value, without a word
    bad.write_text("layers = 2\nchannels = 10\nlayers = 3\narrival_rate = 5\ngamma_db = 3\n")
    assert main(["optimize-rates", "--config", str(bad)]) == 2
    assert "config line 3: layers is already set on line 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, path", [
    ("--config", "missing.cfg"), ("--config", "."), ("--config", "bin.cfg"),
    ("--out", "."), ("--out", "no-dir/out.txt"),
])
def test_unusable_file_paths_exit_2_naming_the_flag(tmp_path, capsys, flag, path):
    # a directory used to pass as a runtime error, exit 1; a config that is not
    # UTF-8 was reported without the flag
    (tmp_path / "bin.cfg").write_bytes(b"layers = 2\n\xff\n")
    argv = ["optimize-rates", *_THREE_LAYERS, "--gamma-db", "10", flag, str(tmp_path / path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")


def test_an_unwritable_out_is_refused_before_any_computation(tmp_path, capsys, monkeypatch):
    # the whole scenario used to run before the path was tried
    def never(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr("layered_aloha.scenarios.outage", never)
    monkeypatch.setattr("layered_aloha.scenarios.estimate_outage", never)
    argv = ["scenario", "outage-vs-copies", "--slots", "20000",
            "--out", str(tmp_path / "no-dir" / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ")


def test_a_bad_grid_point_is_refused_before_any_point_is_computed(capsys, monkeypatch):
    # B = 3 > N = 2 at the last point: the first two points used to be simulated first
    def never(*args, **kwargs):
        raise AssertionError("a point was computed before the grid was checked")

    monkeypatch.setattr("layered_aloha.scenarios.outage", never)
    monkeypatch.setattr("layered_aloha.scenarios.estimate_outage", never)
    code = main(["sweep", "--var", "copies", "--grid", "1:3:1", "--channels", "2", "--layers", "2",
                 "--arrival", "3", "--gamma-db", "3", "--rate", "1",
                 "--outputs", "analytic,simulated", "--slots", "400000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repetition B=3 exceeds num_channels=2\n"


@pytest.mark.parametrize("grid, message", [
    ("1,2,x", "could not convert string to float: 'x'"),
    ("1:2", "grid must be 'start:stop:step' or a comma list"),
    (",", "empty grid"),
    ("2:1:1", "bad grid range"),
    # the scenario's grid rules
    ("1,1", "scenario grid must be strictly increasing, got 1.0 then 1.0"),
    ("1.5", "copies grid points must be whole numbers, got [1.5]"),
])
def test_grid_errors_name_the_flag(capsys, grid, message):
    code = main(["sweep", "--var", "copies", f"--grid={grid}", "--layers", "2",
                 "--channels", "10", "--arrival", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --grid: {message}")


def test_out_check_leaves_an_existing_file_whole_until_the_run_writes(tmp_path, capsys):
    out = tmp_path / "rates.txt"
    out.write_text("kept\n")
    argv = ["optimize-rates", *_THREE_LAYERS, "--gamma-db", "10", "--out", str(out)]
    assert main(argv + ["--rate-max", "0"]) == 2  # refused after the check: nothing truncated
    assert out.read_text() == "kept\n"
    assert main(argv) == 0
    assert out.read_text().startswith("layer  arrival")


@pytest.mark.parametrize("arrival", ["1.6e10", "1e14", "1e19"])
def test_outage_past_the_series_term_budget_is_refused_at_once(capsys, arrival):
    # 1e14 ran for minutes and 1e19 failed with a runtime error, exit 1
    start = time.perf_counter()
    code = main(["outage", "--layers", "1", "--channels", "1", "--arrival", arrival,
                 "--rate", "1", "--gamma-db", "10"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: arrival_rate {float(arrival):g} needs up to ")
    assert "over the budget of 1e+07" in err


def test_reopen_flag_accepted(capsys):
    code = main([
        "simulate", "--layers", "2", "--channels", "8", "--arrival", "4",
        "--rate", "1", "--gamma-db", "3", "--slots", "300",
        "--reopen-cleared-channels", "--out", "-",
    ])
    assert code == 0
    assert _parse_csv(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["simulate", "outage"])
def test_config_line_names_the_sic_semantics_only_when_set(capsys, command):
    argv = [command, "--layers", "2", "--channels", "8", "--arrival", "4", "--rate", "1",
            "--gamma-db", "3", "--copies", "2", "--slots", "300", "--out", "-"]
    config_lines = []
    for extra in ([], ["--reopen-cleared-channels"]):
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        config_lines.append(next(ln for ln in out.splitlines() if ln.startswith("# config:")))
    default, reopen = config_lines
    assert "reopen" not in default
    assert reopen == default + " reopen_cleared_channels=true"


def test_scenario_seed_range_checked_up_front(capsys):
    # grid point i simulates with seed + i; the last one must stay < 2^64
    top = 2 ** 64 - 1
    assert main(["scenario", "outage-vs-copies", "--seed", str(top),
                 "--slots", "1", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(top) in captured.err and "12-point grid" in captured.err
    assert str(top + 1) not in captured.err
    assert main(["scenario", "outage-vs-copies", "--seed", str(top - 11),
                 "--slots", "1", "--out", "-"]) == 0
    seeds = {r["seed"] for r in _parse_csv(capsys.readouterr().out) if r["seed"]}
    assert max(map(int, seeds)) == top


_THREE_LAYERS = ["--layers", "3", "--channels", "10", "--arrival", "10"]


@pytest.mark.parametrize("flag, value", [
    ("--rate-max", "2000"), ("--rate-max", "1024"), ("--rate-max", "nan"), ("--rate-max", "inf"),
    ("--rate-max", "0"),
])
def test_optimize_rates_rejects_unusable_search_settings(capsys, flag, value):
    code = main(["optimize-rates", *_THREE_LAYERS, "--gamma-db", "10", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}:")


def test_optimize_rates_notes_layers_at_the_search_bound(capsys):
    assert main(["optimize-rates", *_THREE_LAYERS, "--gamma-db", "60"]) == 0
    out = capsys.readouterr().out
    notes = [ln for ln in out.splitlines() if ln.startswith("note:")]
    assert notes == [
        "note: layer 2 rate optimum at the search bound --rate-max 16",
        "note: layer 3 rate optimum at the search bound --rate-max 16",
    ]
    assert out.splitlines()[-1].startswith("total throughput:")
    assert main(["optimize-rates", *_THREE_LAYERS, "--gamma-db", "60", "--rate-max", "64"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_sweep_notes_grid_points_at_the_search_bound(capsys):
    sweep = ["sweep", "--var", "gamma-db", *_THREE_LAYERS, "--outputs", "analytic"]
    assert main(sweep + ["--grid", "10,60"]) == 0
    text = capsys.readouterr().out
    assert [ln for ln in text.splitlines() if ln.startswith("# note:")] == [
        "# note: gamma_db=60: optimized rate of layer(s) 2, 3 at the search bound 16"
    ]
    assert main(sweep + ["--grid", "10"]) == 0
    alone = capsys.readouterr().out
    assert "# note:" not in alone
    # the note changes no data row
    rows_10 = [r for r in _parse_csv(text) if r["x_value"] == "10"]
    assert rows_10 == _parse_csv(alone)


_ARRIVAL_SWEEP = ["sweep", "--var", "arrival", "--grid", "5", "--layers", "2", "--channels", "10",
                  "--rate", "1", "--gamma-db", "3", "--out", "-"]


_SYSTEM = ["--layers", "2", "--channels", "10", "--rate", "1", "--gamma-db", "3",
           "--slots", "2000"]


@pytest.mark.parametrize("extra, echo", [
    (["--noise-power", "100", "--gain-mean", "0.2"],
     "rate=1 gamma_db=3 repetition=1 noise_power=100 gain_mean=0.2"),
    (["--rate", "1.5,0.5", "--copies", "2"], "rate=1.5,0.5 gamma_db=3 repetition=2"),
    (["--config", "powers.cfg"], "rate=1 gamma_db=3 repetition=1 powers=50,1"),
], ids=["noise-gain", "per-layer-rate", "powers"])
def test_sweep_applies_every_system_setting(tmp_path, capsys, extra, echo):
    # these used to be rejected; a one-point sweep now gives simulate's rows
    # and echoes the settings
    (tmp_path / "powers.cfg").write_text("powers = 50, 1\n")
    extra = [str(tmp_path / a) if a.endswith(".cfg") else a for a in extra]
    assert main(["sweep", "--var", "arrival", "--grid", "5", "--outputs", "analytic,simulated",
                 "--out", "-"] + _SYSTEM + extra) == 0
    out = capsys.readouterr().out
    assert f"# config: layers=2 channels=10 arrival_rate=sweep {echo}\n" in out
    swept = _parse_csv(out)
    assert main(["simulate", "--arrival", "5", "--out", "-"] + _SYSTEM + extra) == 0
    one = [r for r in _parse_csv(capsys.readouterr().out) if not r["quantity"].startswith("capture")]

    def data(rows):
        return [{k: v for k, v in r.items() if k != "scenario"} for r in rows]

    assert data(swept) == data(one)
    assert any(r["quantity"] == "simulated_throughput" for r in swept)


def test_sweep_rejects_powers_over_a_swept_gamma(tmp_path, capsys):
    # explicit powers would override the power rule at every gamma_db point
    cfg = tmp_path / "powers.cfg"
    cfg.write_text("powers = 50, 1\n")
    assert main(["sweep", "--var", "gamma-db", "--grid", "0,3", "--layers", "2", "--channels",
                 "10", "--arrival", "5", "--config", str(cfg), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "powers" in captured.err


def test_sweep_does_not_need_the_swept_setting(capsys):
    assert main(["sweep", "--var", "layers", "--grid", "1,2", "--channels", "10",
                 "--arrival", "2", "--gamma-db", "3", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert "# config: layers=sweep channels=10 arrival_rate=2 rate=optimized gamma_db=3 " \
           "repetition=1\n" in out
    assert {r["x_value"] for r in _parse_csv(out)} == {"1", "2"}


@pytest.mark.parametrize("var, grid", [("copies", "2.5"), ("layers", "2,2.7")])
def test_sweep_rejects_fractional_points_of_an_integer_variable(capsys, var, grid):
    code = main(["sweep", "--var", var, "--grid", grid, "--layers", "2", "--channels", "20",
                 "--arrival", "3", "--rate", "1", "--gamma-db", "10", "--out", "-"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "whole numbers" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--layers", "2", "--channels", "8", "--arrival", "4", "--rate", "1",
     "--gamma-db", "3"],
    _ARRIVAL_SWEEP,
    ["outage", "--layers", "3", "--channels", "60", "--arrival", "3", "--rate", "1",
     "--gamma-db", "10", "--copies", "4"],
], ids=["simulate", "sweep", "outage"])
def test_zero_slots_exit_2(capsys, argv):
    assert main(argv + ["--slots", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "slots must be >= 1" in captured.err


_PER_LAYER_FLAGS = ["--layers", "3", "--channels", "12", "--arrival", "2,3,4", "--rate", "1.5,1,0.5",
                    "--gamma-db", "6", "--noise-power", "0.6", "--gain-mean", "1.7", "--copies", "2"]
_PER_LAYER_FILE = ("layers = 3\nchannels = 12\narrival_rate = 2,3,4\nrate = 1.5,1,0.5\n"
                   "gamma_db = 6\nnoise_power = 0.6\ngain_mean = 1.7\nrepetition = 2\n")


def test_flags_parse_like_config_keys(tmp_path, capsys):
    for command in (["simulate"], ["outage"], ["optimize-rates"],
                    ["sweep", "--var", "copies", "--grid", "1"]):
        args = build_parser().parse_args(command + _PER_LAYER_FLAGS)
        assert _settings_from_args(args) == parse_config_text(_PER_LAYER_FILE), command
    cfg = tmp_path / "system.cfg"
    cfg.write_text(_PER_LAYER_FILE)
    run = ["simulate", "--slots", "300", "--seed", "3", "--out", "-"]
    assert main(run + _PER_LAYER_FLAGS) == 0
    from_flags = capsys.readouterr().out
    assert main(run + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == from_flags


@pytest.mark.parametrize("flag, value", [("--channels", "abc"), ("--copies", "2.5"),
                                         ("--arrival", "1,x")])
def test_bad_system_flag_values_exit_2(capsys, flag, value):
    argv = ["simulate", "--layers", "2", "--channels", "8", "--arrival", "4", "--gamma-db", "3"]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}:")


_SIMULATE = ["simulate", "--layers", "2", "--channels", "8", "--arrival", "3", "--gamma-db", "3"]


@pytest.mark.parametrize("argv, setting", [
    (_SIMULATE + ["--channels", "0"], "num_channels"),
    (_SIMULATE + ["--channels", "-2"], "num_channels"),
    (_SIMULATE + ["--gain-mean", "0"], "channel_gain_mean"),
    (_SIMULATE + ["--gain-mean", "-1"], "channel_gain_mean"),
    (_SIMULATE + ["--gain-mean", "inf"], "channel_gain_mean"),
    (_SIMULATE + ["--noise-power", "0"], "noise_power"),
    (_SIMULATE + ["--noise-power", "nan"], "noise_power"),
    (["optimize-rates"] + _SIMULATE[1:] + ["--gain-mean", "0"], "channel_gain_mean"),
    ("config", "channel_gain_mean"),
    (_SIMULATE + ["--arrival", "1,-50"], "arrival_rate"),
    (_SIMULATE + ["--arrival", "1,nan"], "arrival_rate"),
])
def test_bad_system_scalars_exit_2_naming_the_setting(tmp_path, capsys, argv, setting):
    # the power rule reads these before the config that checks them exists; a bad
    # arrival rate used to be reported as the negative or NaN power formed from it
    if argv == "config":
        cfg = tmp_path / "system.cfg"
        cfg.write_text("layers = 2\nchannels = 8\narrival_rate = 3\ngamma_db = 3\ngain_mean = 0\n")
        argv = ["simulate", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {setting} must be")
    assert "power" not in captured.err.removeprefix(f"error: {setting}")


@pytest.mark.parametrize("extra, power", [
    (["--noise-power", "1e308"], "inf"),
    (["--gain-mean", "1e-310"], "inf"),
    (["--gamma-db", "-3000", "--noise-power", "1e-30"], "0"),
    (["--noise-power", "1e-320", "--gain-mean", "1e10"], "0"),
], ids=["noise-overflow", "gain-overflow", "gamma-underflow", "noise-underflow"])
def test_a_power_outside_the_doubles_names_the_power_rule_inputs(capsys, extra, power):
    # `power` has no flag: an underflow to 0.0 used to reach SystemConfig as
    # "power must be finite and > 0", and an overflow named only two of the inputs
    assert main(["outage", "--layers", "2", "--channels", "10", "--arrival", "3",
                 "--gamma-db", "10", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the power rule gives layer 2 a power of {power}, not a "
                            "finite double > 0: gamma_db, arrival_rate, noise_power or "
                            "gain_mean is out of range\n")


def test_unknown_config_key_is_reported_once(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("layers = 2\n\nmystery = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config line 3: unknown key 'mystery'\n"


_TINY_SYSTEM = ["--layers", "1", "--channels", "4", "--arrival", "1", "--rate", "1",
                "--gamma-db", "3", "--out", "-"]


@pytest.mark.parametrize("argv, header, quantities", [
    (["simulate"], ["# seed: 1", "# slots: 10000"],
     {"analytic_throughput", "capture_exact", "capture_bound", "simulated_throughput"}),
    (["sweep", "--var", "arrival", "--grid", "1"], ["# seed: 1", "# slots: 10000"],
     {"analytic_throughput"}),
    (["outage"], ["# seed: 1", "# slots: 1", "# outputs: analytic"], {"analytic_outage"}),
], ids=["simulate", "sweep", "outage"])
def test_per_command_defaults(capsys, argv, header, quantities):
    assert main(argv + _TINY_SYSTEM) == 0
    text = capsys.readouterr().out
    assert set(header) <= set(text.splitlines())
    rows = _parse_csv(text)
    assert {r["quantity"] for r in rows} == quantities
    assert {r["seed"] for r in rows if r["seed"]} <= {"1"}
    assert {r["slots"] for r in rows if r["slots"]} <= {"10000"}


@pytest.mark.parametrize("argv", [
    ["outage", "--layers", "2", "--channels", "10", "--arrival", "3", "--gamma-db", "3",
     "--seed", "-1"],
    ["sweep", "--var", "arrival", "--grid", "1,2", "--layers", "2", "--channels", "10",
     "--gamma-db", "3", "--outputs", "analytic", "--seed", "-1"],
    ["scenario", "power-vs-arrival", "--seed", str(2 ** 64 - 1)],
], ids=["outage", "sweep", "scenario"])
def test_a_seed_outside_the_seed_rule_exits_2_without_simulating(capsys, argv):
    # point i of a grid seeds with seed + i, so every command checks the seed,
    # whether or not its outputs simulate; analytic runs used to echo any seed
    assert main(argv + ["--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed of a ")


def test_scenario_keeps_its_registry_seed(capsys):
    assert main(["scenario", "outage-vs-copies", "--slots", "1", "--out", "-"]) == 0
    text = capsys.readouterr().out
    seed = SCENARIOS["outage-vs-copies"].seed
    assert f"# seed: {seed}" in text.splitlines()
    assert min(int(r["seed"]) for r in _parse_csv(text) if r["seed"]) == seed


@pytest.mark.parametrize("var, outputs", [
    ("arrival", "analytic,bound"), ("rate", "baselines"), ("gamma-db", "analytic,bound"),
    ("layers", "bound"), ("copies", "baselines"),
])
def test_sweep_rejects_outputs_its_kind_cannot_make(capsys, var, outputs):
    code = main(["sweep", "--var", var, "--grid", "1,2", "--layers", "2", "--channels", "10",
                 "--arrival", "3", "--rate", "1", "--gamma-db", "3", "--outputs", outputs,
                 "--out", "-"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: outputs ")
    assert "makes only analytic,simulated" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--layers", "2", "--channels", "8", "--arrival", "4", "--gamma-db", "3",
     "--rate", "2000"],
    ["outage", *_THREE_LAYERS, "--rate", "1", "--gamma-db", "4000"],
    ["optimize-rates", *_THREE_LAYERS, "--gamma-db", "4000"],
    ["sweep", "--var", "rate", "--grid", "1,2000", "--layers", "2", "--channels", "10",
     "--arrival", "6", "--gamma-db", "3"],
], ids=["simulate-rate", "outage-gamma", "optimize-rates-gamma", "sweep-rate"])
def test_values_that_overflow_a_double_exit_2(capsys, argv):
    # 2**rate and 10**(dB/10) used to raise OverflowError and exit 1
    assert main(argv + ["--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["scenario", "power-vs-arrival"],
    ["sweep", "--var", "arrival", "--grid", "1,2", "--layers", "2", "--channels", "10",
     "--gamma-db", "3"],
    ["outage", "--layers", "2", "--channels", "10", "--arrival", "2", "--gamma-db", "3"],
    ["simulate", "--layers", "2", "--channels", "10", "--arrival", "2", "--gamma-db", "3",
     "--slots", "10"],
], ids=["scenario", "sweep", "outage", "simulate"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(capsys, argv, workers):
    # analytic-only runs too: the first three simulate nothing; the count rule of
    # `estimate_*`'s workers checks the flag, naming it
    assert main(argv + ["--workers", workers, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --workers must be >= 1 and an integer, got {workers}\n"
