import pytest

from layered_aloha import design_config, estimate_throughput, throughput
from layered_aloha.cli import main
from layered_aloha.scenarios import CSV_HEADER


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


def test_reopen_flag_accepted(capsys):
    code = main([
        "simulate", "--layers", "2", "--channels", "8", "--arrival", "4",
        "--rate", "1", "--gamma-db", "3", "--slots", "300",
        "--reopen-cleared-channels", "--out", "-",
    ])
    assert code == 0
    assert _parse_csv(capsys.readouterr().out)


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
    ("--grid-points", "1"), ("--grid-points", str(2 ** 20 + 1)),
    ("--refine-tol", "0"), ("--refine-tol", "nan"), ("--refine-tol", "inf"),
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


@pytest.mark.parametrize("extra, key", [
    (["--noise-power", "100"], "noise_power"),
    (["--gain-mean", "0.2"], "gain_mean"),
    (["--config", "powers.cfg"], "powers"),
])
def test_sweep_rejects_settings_it_cannot_apply(tmp_path, capsys, extra, key):
    # a sweep builds every point from layers/channels/arrival/rate/gamma_db
    # alone, so these used to be dropped without a word
    (tmp_path / "powers.cfg").write_text("powers = 50, 1\n")
    extra = [str(tmp_path / a) if a.endswith(".cfg") else a for a in extra]
    assert main(_ARRIVAL_SWEEP + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


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
