import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layered_aloha import (
    SCENARIOS,
    Scenario,
    db_to_linear,
    get_scenario,
    run_scenario,
)
from layered_aloha.scenarios import CSV_HEADER, KINDS, QUANTITIES, GridError, Row, parse_grid
from layered_aloha.simulate import SAMPLING_CONTRACT


#: system keyword of `_tiny` -> the setting it gives
_SETTING = {"num_layers": "layers", "num_channels": "channels", "arrival_rate": "arrival_rate",
            "rate": "rate", "gamma_db": "gamma_db", "repetition": "repetition"}


def _tiny(kind="throughput", sweep="arrival_rate", **over):
    system = dict(num_layers=2, num_channels=10, arrival_rate=5.0, rate=1.0, gamma_db=3.0)
    system.update({k: over.pop(k) for k in _SETTING if k in over})
    base = dict(
        name="tiny",
        description="test scenario",
        kind=kind,
        sweep=sweep,
        grid=(2.0, 6.0),
        outputs=("analytic", "simulated"),
        slots=400,
        seed=5,
        # rate=None leaves the rate out: optimized per point
        settings={_SETTING[k]: v for k, v in system.items() if v is not None},
    )
    base.update(over)
    return Scenario(**base)


def test_registry_is_well_formed():
    assert len(SCENARIOS) >= 10
    for name, s in SCENARIOS.items():
        assert s.name == name
        assert s.description
        assert list(s.grid) == sorted(s.grid)


def test_get_scenario_overrides():
    s = get_scenario("outage-vs-copies", slots=123, seed=9)
    assert s.slots == 123
    assert s.seed == 9
    with pytest.raises(ValueError):
        get_scenario("no-such-scenario")
    for slots in (True, 2.5, 0):  # True used to run with `# slots: True` in the CSV header
        with pytest.raises(ValueError, match="slots"):
            get_scenario("outage-vs-copies", slots=slots)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _tiny(grid=())
    with pytest.raises(ValueError):
        _tiny(grid=(3.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        _tiny(grid=(1.0, 2.0, 2.0, 3.0))  # a repeated point would write its rows twice
    with pytest.raises(ValueError):
        _tiny(slots=0)
    with pytest.raises(ValueError):
        _tiny(outputs=("analytic", "bogus"))
    with pytest.raises(ValueError, match="makes only analytic,simulated"):
        _tiny(outputs=("bound",))  # a packet output from a throughput kind
    with pytest.raises(ValueError):
        _tiny(kind="bogus")
    with pytest.raises(ValueError, match="cannot sweep 'arrival'"):
        _tiny(sweep="arrival")  # the CSV name, not the config-file key
    with pytest.raises(ValueError):
        Row(1.0, "1", "bogus_quantity", 0.5)


def test_kinds_are_the_row_producers():
    assert sorted(KINDS) == ["outage", "packets", "power", "simulate", "throughput"]
    assert {s.kind for s in SCENARIOS.values()} == {"outage", "packets", "power", "throughput"}


@pytest.mark.parametrize("kind, sweep", [("throughput", "layers"), ("outage", "repetition"),
                                         ("packets", "channels"), ("packets", "layers")],
                         ids=["layers", "outage_copies", "packets_channels", "packets_layers"])
def test_integer_variables_reject_fractional_grid_points(kind, sweep):
    # layers, channels and copies are set with int(x): 2.5 used to run as 2
    outputs = KINDS[kind].outputs
    with pytest.raises(ValueError, match="whole numbers"):
        _tiny(kind=kind, sweep=sweep, grid=(2.0, 2.5), outputs=outputs)
    assert _tiny(kind=kind, sweep=sweep, grid=(2.0, 3.0), outputs=outputs).grid == (2.0, 3.0)


@pytest.mark.parametrize("sweep, x_name", [("arrival_rate", "arrival"), ("repetition", "copies"),
                                           ("gamma_db", "gamma_db"), ("layers", "layers"),
                                           ("rate", "rate"), ("channels", "channels"),
                                           ("noise_power", "noise_power"),
                                           ("gain_mean", "gain_mean"), ("powers", "powers")])
def test_x_name_follows_the_swept_setting(sweep, x_name):
    assert _tiny(sweep=sweep, grid=(1.0, 2.0)).x_name == x_name


def test_throughput_scenario_rows_and_csv():
    s = _tiny()
    result = run_scenario(s)
    # per grid point: 2 layers + total, analytic and simulated
    assert len(result.rows) == 2 * (3 + 3)
    text = result.to_csv()
    lines = text.splitlines()
    header_at = lines.index(CSV_HEADER)
    assert all(line.startswith("# ") for line in lines[:header_at])
    body = lines[header_at + 1:]
    assert len(body) == len(result.rows)
    for line, row in zip(body, result.rows):
        parts = line.split(",")
        assert len(parts) == 9
        assert parts[0] == "tiny"
        assert parts[1] == "arrival"
        assert parts[3] in {"1", "2", "total"}
        assert parts[4] in QUANTITIES
        if parts[4] == "analytic_throughput":
            assert parts[6] == "" and parts[7] == "" and parts[8] == ""
        else:
            assert float(parts[6]) >= 0.0
            assert int(parts[7]) == 400
    # simulated rows carry per-point seeds seed+index
    sim_seeds = {int(line.split(",")[8]) for line in body if line.split(",")[8]}
    assert sim_seeds == {5, 6}


def test_scenario_rerun_is_byte_identical():
    s = _tiny(kind="outage", sweep="repetition", grid=(1.0, 4.0),
              num_layers=3, num_channels=20, arrival_rate=3.0, gamma_db=10.0)
    a = run_scenario(s).to_csv()
    b = run_scenario(s).to_csv()
    assert a == b
    c = run_scenario(s, workers=4).to_csv()
    assert a == c


def test_rate_scenario_uses_common_rate():
    s = _tiny(sweep="rate", grid=(0.5, 1.0, 2.0),
              outputs=("analytic",), arrival_rate=10.0)
    rows = run_scenario(s).rows
    assert len(rows) == 3 * 3  # 2 layers + total, analytic only
    from layered_aloha import design_config, throughput

    cfg = design_config(2, 10, 10.0, 1.0, db_to_linear(3.0))
    expect = throughput(cfg).total_throughput
    got = [r for r in rows if r.x_value == 1.0 and r.layer == "total"][0]
    assert got.value == pytest.approx(expect, rel=1e-12)


def test_optimized_rates_scenario_beats_fixed_rate():
    fixed = _tiny(sweep="rate", grid=(1.0,), outputs=("analytic",),
                  arrival_rate=10.0)
    best_fixed = run_scenario(fixed).rows[-1].value
    opt = _tiny(grid=(10.0,), outputs=("analytic",), rate=None, arrival_rate=10.0)
    best_opt = [r for r in run_scenario(opt).rows if r.layer == "total"][0].value
    assert best_opt >= best_fixed


def test_packets_scenario_includes_baselines():
    s = get_scenario("compare-irsa")
    rows = run_scenario(s).rows
    aloha = [r.value for r in rows if r.quantity == "baseline_aloha"]
    irsa = [r.value for r in rows if r.quantity == "baseline_irsa"]
    assert all(v == pytest.approx(10 * math.exp(-1)) for v in aloha)
    assert all(v == pytest.approx(9.65) for v in irsa)
    totals = [r.value for r in rows if r.quantity == "bound_throughput" and r.layer == "total"]
    assert len(totals) == 8
    assert all(a < b for a, b in zip(totals, totals[1:]))  # grows with layers


def test_outage_scenario_layer_ordering():
    s = _tiny(kind="outage", sweep="repetition", grid=(4.0,),
              num_layers=3, num_channels=60, arrival_rate=3.0, gamma_db=10.0,
              slots=2000)
    rows = run_scenario(s).rows
    ana = [r.value for r in rows if r.quantity == "analytic_outage"]
    sim = [r.value for r in rows if r.quantity == "simulated_outage"]
    assert len(ana) == 3 and len(sim) == 3
    assert ana == sorted(ana)


def test_power_scenario_rows():
    s = _tiny(kind="power", grid=(0.0, 5.0, 10.0),
              outputs=("analytic",), num_layers=2, gamma_db=None or 3.0)
    rows = run_scenario(s).rows
    assert [r.quantity for r in rows] == ["power_mean"] * 3
    assert rows[0].value <= rows[1].value <= rows[2].value

    def power_means(grid, num_layers):  # target SINR gamma = 2
        s = _tiny(kind="power", grid=grid, outputs=("analytic",),
                  num_layers=num_layers, gamma_db=10 * math.log10(2.0))
        return [r.value for r in run_scenario(s).rows]

    assert power_means((0.0,), 1) == [pytest.approx(2.0)]  # no load: gamma * N0 / s2
    assert power_means((10.0,), 2) == [pytest.approx(4.0)]  # mean of (6, 2)
    means = power_means((1.0, 5.0, 9.0, 13.0), 3)
    assert means == sorted(means)


def test_every_registry_scenario_runs():
    # smoke coverage of every registered sweep at a tiny slot budget
    for name in sorted(SCENARIOS):
        result = run_scenario(get_scenario(name, slots=50))
        assert result.rows, name
        for row in result.rows:
            assert row.quantity in QUANTITIES
            if row.quantity.startswith("simulated"):
                assert row.stderr is not None and row.slots == 50
        text = result.to_csv()
        assert text.startswith(f"# scenario: {name}\n")


def test_float_formatting_nine_significant_digits():
    s = _tiny(kind="power", grid=(10.0,), outputs=("analytic",),
              num_layers=2)
    text = run_scenario(s).to_csv()
    line = [ln for ln in text.splitlines() if ln.startswith("tiny,")][0]
    value = line.split(",")[5]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_csv_header_declares_sampling_contract():
    lines = run_scenario(_tiny(outputs=("analytic",))).to_csv().splitlines()
    assert f"# sampling_contract: {SAMPLING_CONTRACT}" in lines


@pytest.mark.parametrize("kind, sweep", [("outage", "arrival_rate"), ("outage", "repetition"),
                                         ("packets", "channels"), ("packets", "layers")],
                         ids=["outage_arrival", "outage_copies", "packets_channels", "packets_layers"])
def test_kinds_that_read_the_rate_need_one(kind, sweep):
    # a copies sweep without a rate used to run at rate 0 and echo rate=optimized
    with pytest.raises(ValueError, match="tiny needs rate"):
        _tiny(kind=kind, sweep=sweep, rate=None, outputs=KINDS[kind].outputs)


def test_scenario_needs_every_setting_but_the_swept_one():
    system = {"channels": 10, "arrival_rate": 2.0, "gamma_db": 3.0}
    assert _tiny(sweep="layers", grid=(1.0, 2.0), settings=system).settings == system
    assert "rate" not in _tiny(kind="outage", sweep="rate", rate=None, grid=(1.0,)).settings
    with pytest.raises(ValueError, match="tiny needs channels, gamma_db"):
        _tiny(settings={"layers": 2, "arrival_rate": 2.0})


def test_unknown_setting_is_named():
    # a misspelt optional key used to be dropped: this ran with unit noise power
    system = {"layers": 2, "channels": 10, "arrival_rate": 5.0, "rate": 1.0, "gamma_db": 3.0}
    with pytest.raises(ValueError, match="noise_powr"):
        run_scenario(_tiny(settings=system | {"noise_powr": 100.0}))


@pytest.mark.parametrize("outputs, quantities", [
    (("baselines",), {"baseline_aloha", "baseline_irsa"}),
    (("bound",), {"bound_throughput"}),
])
def test_packet_rows_follow_outputs(outputs, quantities):
    s = _tiny(kind="packets", sweep="layers", grid=(1.0, 2.0), outputs=outputs)
    assert {r.quantity for r in run_scenario(s).rows} == quantities


@pytest.mark.parametrize("sweep, grid, fixed", [("gamma_db", (0.0, 10.0, 20.0), 3.0),
                                                ("rate", (0.5, 1.0, 2.0), None)])
def test_packet_rows_read_a_swept_rate_or_gamma(sweep, grid, fixed):
    # the bound rows used to take both from the fixed settings: a gamma_db sweep
    # wrote the rows of the fixed gamma_db at every point, and a rate sweep
    # without a fixed rate raised KeyError
    swept = _tiny(kind="packets", sweep=sweep, grid=grid, outputs=("bound",),
                  **{sweep: fixed})
    rows = run_scenario(swept).rows
    for x in grid:
        # the same system with the value fixed, at a one-point grid over another setting
        one = _tiny(kind="packets", sweep="layers", grid=(2.0,), outputs=("bound",), **{sweep: x})
        want = [(r.layer, r.value) for r in run_scenario(one).rows]
        assert [(r.layer, r.value) for r in rows if r.x_value == x] == want
    totals = [r.value for r in rows if r.layer == "total"]
    assert len(set(totals)) == len(grid)


@pytest.mark.parametrize("seed", [True, -1, 1.0, "1", 2 ** 64 - 11])
def test_run_scenario_seed_follows_the_seed_rule(seed):
    # point i simulates with seed + i, so a 12-point grid needs seed <= 2^64 - 12
    with pytest.raises(ValueError, match="seed"):
        run_scenario(get_scenario("outage-vs-copies", slots=1, seed=seed))


@st.composite
def _grid_ranges(draw):
    """Finite start <= stop and step >= 1e-10 with under 100000 points: stop
    anywhere up to a log-uniform number of steps past start, or on that step."""
    start = draw(st.floats(allow_nan=False, allow_infinity=False))
    step = draw(st.floats(1e-10, 1e300))
    steps = 10.0 ** draw(st.floats(0.0, 5.0)) - 1.0
    last = start + steps * step
    stop = draw(st.one_of(st.floats(start, last if math.isfinite(last) else None,
                                    allow_infinity=False),
                          st.just(start + math.floor(steps) * step)))
    assume(math.isfinite(stop) and start <= stop and (stop - start) / step < 100_000)
    return start, stop, step


@settings(max_examples=100, deadline=None)
@given(_grid_ranges())
@example((-2.2410877196188614e-274, 0.0, 1.0))  # start below 10 decimals: it read 0.0
@example((-1.0, -3.339377532540185e-307, 1.0))  # the last point read 0.0, past stop
@example((1e6, 1000000.000000005, 1e-10))  # a step finer than the floats at 1e6: refused
@example((0.1, 6.0, 0.1))
def test_grid_ranges_are_valid_scenario_grids(grid_range):
    start, stop, step = grid_range
    points = parse_grid(f"{start!r}:{stop!r}:{step!r}")
    assert points[0] == start and points[-1] <= stop
    assert all(a <= b for a, b in zip(points, points[1:]))
    try:
        _tiny(grid=points)  # breaks no grid rule ...
    except GridError as exc:
        # ... unless rounding to 10 decimals merged points: each lies within 5e-11
        # and a few float spacings of start + k step, so only a step about that fine
        assert "strictly increasing" in str(exc)
        assert step <= 1e-10 + 8 * math.ulp(max(abs(start), abs(stop)))
