import math

import pytest

from layered_aloha import (
    SCENARIOS,
    Scenario,
    db_to_linear,
    get_scenario,
    run_scenario,
)
from layered_aloha.scenarios import CSV_HEADER, KINDS, QUANTITIES, Row
from layered_aloha.simulate import SAMPLING_CONTRACT


def _tiny(kind="throughput", **over):
    base = dict(
        name="tiny",
        description="test scenario",
        kind=kind,
        grid=(2.0, 6.0),
        outputs=("analytic", "simulated"),
        slots=400,
        seed=5,
        num_layers=2,
        num_channels=10,
        arrival_rate=5.0,
        rate=1.0,
        gamma_db=3.0,
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


def test_scenario_validation():
    with pytest.raises(ValueError):
        _tiny(grid=())
    with pytest.raises(ValueError):
        _tiny(grid=(3.0, 1.0))
    with pytest.raises(ValueError):
        _tiny(slots=0)
    with pytest.raises(ValueError):
        _tiny(outputs=("analytic", "bogus"))
    with pytest.raises(ValueError):
        _tiny(kind="bogus")
    with pytest.raises(ValueError):
        Row(1.0, "1", "bogus_quantity", 0.5)


@pytest.mark.parametrize("kind", sorted(k for k, v in KINDS.items() if v.integer))
def test_integer_variables_reject_fractional_grid_points(kind):
    # layers, channels and copies are set with int(x): 2.5 used to run as 2
    with pytest.raises(ValueError, match="whole numbers"):
        _tiny(kind=kind, grid=(2.0, 2.5))
    assert _tiny(kind=kind, grid=(2.0, 3.0)).grid == (2.0, 3.0)


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
    s = _tiny(kind="outage_copies", grid=(1.0, 4.0),
              num_layers=3, num_channels=20, arrival_rate=3.0, gamma_db=10.0)
    a = run_scenario(s).to_csv()
    b = run_scenario(s).to_csv()
    assert a == b
    c = run_scenario(s, workers=4).to_csv()
    assert a == c


def test_rate_scenario_uses_common_rate():
    s = _tiny(kind="rate", grid=(0.5, 1.0, 2.0),
              outputs=("analytic",), arrival_rate=10.0)
    rows = run_scenario(s).rows
    assert len(rows) == 3 * 3  # 2 layers + total, analytic only
    from layered_aloha import design_config, throughput

    cfg = design_config(2, 10, 10.0, 1.0, db_to_linear(3.0))
    expect = throughput(cfg).total_throughput
    got = [r for r in rows if r.x_value == 1.0 and r.layer == "total"][0]
    assert got.value == pytest.approx(expect, rel=1e-12)


def test_optimized_rates_scenario_beats_fixed_rate():
    fixed = _tiny(kind="rate", grid=(1.0,), outputs=("analytic",),
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
    s = _tiny(kind="outage_copies", grid=(4.0,),
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
