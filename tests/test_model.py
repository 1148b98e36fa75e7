import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from layered_aloha import (
    SystemConfig,
    allocate_powers,
    baseline_aloha_max,
    baseline_irsa,
    collision_prob,
    conditional_collision_moment,
    config_from_settings,
    db_to_linear,
    design_config,
    estimate_outage,
    estimate_throughput,
    eta,
    interference_variance,
    optimize_arrivals,
    optimize_rates,
    outage,
    parse_config_text,
    psi_series,
    rho,
    sample_slots,
    sla_layer_contributions,
    snr_gap,
)


def test_snr_gap_values():
    assert snr_gap(0.0) == 0.0
    assert snr_gap(1.0) == 1.0
    assert snr_gap(2.0) == 3.0  # 2**2 - 1


def test_snr_gap_rejects_bad_rates():
    with pytest.raises(ValueError):
        snr_gap(-0.1)
    with pytest.raises(ValueError):
        snr_gap(float("inf"))


def test_db_round_trip():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795)
    assert db_to_linear(-10.0) == pytest.approx(0.1)  # a negative gain in dB is valid


def test_collision_prob_values():
    assert collision_prob(1, 10, 1) == 0.0
    assert collision_prob(2, 10, 1) == pytest.approx(0.1)
    assert collision_prob(3, 10, 2) == pytest.approx(1.0 - 0.9 ** 4)  # 0.3439


def test_collision_prob_rejects_bad_args():
    with pytest.raises(ValueError):
        collision_prob(0, 10, 1)
    with pytest.raises(ValueError):
        collision_prob(2, 10, 11)
    with pytest.raises(ValueError):
        collision_prob(2, 10, 0)


def test_collision_prob_monotone_and_zero_iff_single():
    rng = np.random.default_rng(0)
    for _ in range(200):
        N = int(rng.integers(1, 80))
        B = int(rng.integers(1, N + 1))
        m = int(rng.integers(1, 40))
        p = collision_prob(m, N, B)
        assert 0.0 <= p <= 1.0
        assert (p == 0.0) == (m == 1)
        assert collision_prob(m + 1, N, B) >= p
        if B < N:
            assert collision_prob(m, N, B + 1) >= p


def test_collision_prob_full_repetition_no_special_case():
    # B = N is single-channel contention with N-fold diversity; the formula
    # applies unchanged, exact to rounding
    for N in (1, 2, 5, 10):
        for m in (1, 2, 3, 7):
            exact = 1 - (1 - Fraction(1, N)) ** (N * (m - 1))
            assert collision_prob(m, N, N) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m, N, B", [(10 ** 8, 10 ** 8, 1), (10 ** 7, 10 ** 7, 2),
                                     (2, 10 ** 8, 1), (3, 7, 2)])
def test_collision_prob_is_exact_to_rounding_at_any_channel_count(m, N, B):
    # a power of the rounded 1 - 1/N carries its rounding times B(m-1): at
    # N = m = 1e8 that was 2.5e-9 relative
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = float(1 - (1 - mpmath.mpf(1) / N) ** (B * (m - 1)))
    assert collision_prob(m, N, B) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_collision_prob_edges():
    # one channel: a lone user never collides and any other user always hits it
    assert [collision_prob(m, 1) for m in (1, 2, 10 ** 9)] == [0.0, 1.0, 1.0]
    for N, B in ((1, 1), (2, 2), (10 ** 8, 3)):  # m = 1: nobody else, so +0.0 exactly
        p = collision_prob(1, N, B)
        assert p == 0.0 and math.copysign(1.0, p) == 1.0


def _two_layer_config():
    return SystemConfig(num_channels=10, arrival_rates=(5.0, 10.0), powers=(6.0, 2.0),
                        rates=(1.0, 1.0))


def test_interference_variance_values():
    cfg = _two_layer_config()
    assert interference_variance(2, cfg) == cfg.noise_power  # top layer: noise only
    assert interference_variance(1, cfg) == pytest.approx(3.0)  # 1*2*10/10 + 1


def test_interference_variance_non_increasing_in_layer():
    cfg = design_config(5, 16, [3.0, 1.0, 4.0, 2.0, 5.0], 1.0, 4.0)
    vals = [interference_variance(l, cfg) for l in range(1, 6)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == cfg.noise_power


def test_allocate_powers_single_layer():
    assert allocate_powers(2.0, [7.0], 10) == (2.0,)


def test_allocate_powers_two_layer_example():
    powers = allocate_powers(2.0, [5.0, 10.0], 10)
    assert powers[1] == pytest.approx(2.0)
    assert powers[0] == pytest.approx(6.0)  # 2 * (2*10/10 + 1)


def test_allocate_powers_holds_target_sinr_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        L = int(rng.integers(1, 7))
        N = int(rng.integers(1, 50))
        lams = rng.uniform(0.0, 20.0, size=L)
        gamma = float(rng.uniform(0.2, 20.0))
        s2 = float(rng.uniform(0.3, 3.0))
        n0 = float(rng.uniform(0.3, 3.0))
        powers = allocate_powers(gamma, lams, N, s2, n0)
        cfg = SystemConfig(
            num_channels=N,
            arrival_rates=lams,
            powers=powers,
            rates=(1.0,) * L,
            channel_gain_mean=s2,
            noise_power=n0,
        )
        for l in range(1, L + 1):
            sinr = powers[l - 1] * s2 / interference_variance(l, cfg)
            assert sinr == pytest.approx(gamma, abs=1e-12 * gamma)
        # monotone non-increasing, strictly decreasing below loaded layers
        for l in range(L - 1):
            assert powers[l] >= powers[l + 1]
            if any(lams[i] > 0 for i in range(l + 1, L)):
                assert powers[l] > powers[l + 1]


def test_layer_params_validation():
    # each per-layer value is checked under its singular name, at every layer
    for field, name, bad in [(0, "arrival_rate", -1.0), (1, "power", 0.0), (2, "rate", -2.0),
                             (0, "arrival_rate", float("nan"))]:
        values = [[1.0, 1.0] for _ in range(3)]
        values[field][1] = bad
        with pytest.raises(ValueError, match=name):
            SystemConfig(4, *values)
    with pytest.raises(ValueError, match="one value per layer each, got 2, 1 and 2"):
        SystemConfig(4, (1.0, 1.0), 1.0, (1.0, 1.0))
    cfg = SystemConfig(4, [1, 2], np.array([3.0, 1.0]), np.ones(2))
    assert (cfg.arrival_rates, cfg.powers, cfg.rates) == ((1.0, 2.0), (3.0, 1.0), (1.0, 1.0))
    assert all(type(v) is float for v in cfg.arrival_rates + cfg.powers + cfg.rates)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(4, (), (), ())
    with pytest.raises(ValueError):
        SystemConfig(4, 1.0, 1.0, 1.0, repetition=5)
    with pytest.raises(ValueError):
        SystemConfig(4, 1.0, 1.0, 1.0, noise_power=0.0)
    for switch in (1, "yes", None):  # the SIC sweep rule is a bool
        with pytest.raises(ValueError, match="reopen_cleared_channels"):
            SystemConfig(4, 1.0, 1.0, 1.0, reopen_cleared_channels=switch)
    cfg = SystemConfig(4, 1.0, 1.0, 1.0, repetition=4)
    assert cfg.num_layers == 1
    assert cfg.reopen_cleared_channels is False


def test_a_bool_is_not_an_integer_setting():
    # isinstance(True, int) holds, so both used to build a one-channel system
    with pytest.raises(ValueError, match="num_channels"):
        SystemConfig(True, 1.0, 1.0, 1.0, repetition=True)
    with pytest.raises(ValueError, match="repetition"):
        SystemConfig(4, 1.0, 1.0, 1.0, repetition=True)
    with pytest.raises(ValueError, match="num_channels"):
        design_config(2, True, 1.0, 1.0, 2.0, repetition=True)


@pytest.mark.parametrize("layers", [True, 2.0, 0, -1])
def test_design_config_rejects_a_layer_count_that_is_not_a_positive_int(layers):
    # True built a one-layer system and 2.0 failed inside _per_layer with a TypeError
    with pytest.raises(ValueError, match="num_layers"):
        design_config(layers, 10, 1.0, 1.0, 2.0)
    settings = {"layers": layers, "channels": 10, "arrival_rate": 1.0, "gamma_db": 3.0}
    with pytest.raises(ValueError, match="num_layers"):
        config_from_settings(settings)


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_allocate_powers_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        allocate_powers(gamma, [1.0, 2.0], 10)


@pytest.mark.parametrize("num_channels, gain_mean, noise, name", [
    (0, 1.0, 1.0, "num_channels"),
    (2.5, 1.0, 1.0, "num_channels"),
    (10, 0.0, 1.0, "channel_gain_mean"),
    (10, float("inf"), 1.0, "channel_gain_mean"),
    (10, 1.0, -1.0, "noise_power"),
    (10, 1.0, float("nan"), "noise_power"),
])
def test_allocate_powers_rejects_bad_system_scalars(num_channels, gain_mean, noise, name):
    # the system scalars are checked as SystemConfig checks them, not divided by
    with pytest.raises(ValueError, match=name):
        allocate_powers(2.0, [3.0, 3.0], num_channels, gain_mean, noise)


def test_design_config_scalar_and_list_params():
    cfg = design_config(3, 10, 5.0, [0.5, 1.0, 1.5], 2.0)
    assert cfg.arrival_rates == (5.0, 5.0, 5.0)
    assert cfg.rates == (0.5, 1.0, 1.5)
    with pytest.raises(ValueError):
        design_config(3, 10, [1.0, 2.0], 1.0, 2.0)


def test_with_rates_replaces_only_rates():
    cfg = _two_layer_config()
    new = cfg.with_rates([0.25, 4.0])
    assert new.rates == (0.25, 4.0)
    assert new.powers == cfg.powers
    assert new.arrival_rates == cfg.arrival_rates
    with pytest.raises(ValueError):
        cfg.with_rates([1.0])
    # every other field is carried over, the SIC sweep rule included
    other = replace(cfg, noise_power=0.5, channel_gain_mean=2.0, repetition=2,
                    reopen_cleared_channels=True)
    assert other.with_rates([0.25, 4.0]) == replace(other, rates=(0.25, 4.0))


CONFIG_TEXT = """
# example system
layers = 3
channels = 10
arrival_rate = 10
rate = 0.5, 1.0, 1.5
gamma_db = 3
repetition = 1
"""


def test_parse_config_text_and_build():
    settings = parse_config_text(CONFIG_TEXT)
    assert settings["layers"] == 3
    assert settings["rate"] == (0.5, 1.0, 1.5)
    cfg = config_from_settings(settings)
    assert cfg.num_layers == 3
    assert cfg.rates == (0.5, 1.0, 1.5)
    expected = allocate_powers(db_to_linear(3.0), [10.0] * 3, 10)
    assert cfg.powers == pytest.approx(expected)


def test_config_powers_key_overrides_gamma():
    settings = parse_config_text("layers=2\nchannels=8\narrival_rate=4\npowers=9,3\n")
    cfg = config_from_settings(settings)
    assert cfg.powers == (9.0, 3.0)


def test_config_errors():
    with pytest.raises(ValueError):
        parse_config_text("layers: 3\n")
    with pytest.raises(ValueError):
        parse_config_text("mystery = 3\n")
    with pytest.raises(ValueError, match="config line 4: layers is already set on line 1"):
        parse_config_text("layers = 2\nchannels = 8\n# layers = 4\nlayers = 3\n")
    with pytest.raises(ValueError):
        config_from_settings({"layers": 2, "channels": 8})  # no arrival_rate
    with pytest.raises(ValueError):
        config_from_settings({"layers": 2, "channels": 8, "arrival_rate": 1.0})  # no gamma/powers


def test_settings_keys_outside_the_config_file_set_are_named():
    with pytest.raises(ValueError, match="unknown settings keys: gain, powr"):
        config_from_settings({"layers": 2, "channels": 8, "arrival_rate": 1.0, "gamma_db": 3.0,
                              "powr": 2.0, "gain": 1.0})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CONFIG_TEXT)
    from layered_aloha import load_config_file

    cfg = config_from_settings(load_config_file(path))
    assert cfg.num_channels == 10
    assert math.isclose(cfg.powers[-1], db_to_linear(3.0))


def test_config_comments_run_to_the_end_of_the_line():
    # the example in README's "Config files" section
    settings = parse_config_text(
        "layers = 3\narrival_rate = 10        # scalar, or per-layer: 10, 8, 6\n"
        "rate = 1                 # same convention\n"
        "# powers = 18, 6, 2      # optional explicit override of the power rule\n"
    )
    assert settings == {"layers": 3, "arrival_rate": 10.0, "rate": 1.0}


# Each input rule and the values that break it: a count is an int (not a bool) >= 1
# (>= 0 for a moment order), a seed an int in [0, 2^64), a scalar is finite (and
# positive or non-negative where its rule says so), a probability lies in [0, 1], and
# a rate in [0, 1024).  A value
# that is not a number at all (a bool included) fails the scalar rules too, and a
# str is one value, never a sequence of its digits.
_BAD = {
    "count": (True, 2.5, 0, -1),
    "order": (True, 2.5, -1),
    "seed": (True, -1, 2 ** 64, 1.0, "1"),
    "finite": (float("nan"), float("inf"), "3", None, True),
    "positive": (0.0, -1.0, float("nan"), float("inf")),
    "non_negative": (-1.0, float("nan"), float("inf")),
    "probability": (True, -0.1, 1.1, float("nan"), "0.5"),
    "rate": (-1.0, float("nan"), float("inf"), 1024, "1", None, True),
    "number": ("1", None, True),
    "text": ("12", "93"),
    "huge": (1e300, 1e308),  # a large value whose power under the power rule overflows
    "two_values": ((5.0, 5.0), [1.0, 2.0]),  # one value too many for a single layer
}
_CFG = SystemConfig(4, 1.0, 1.0, 1.0)

# (site, rule, setting the message names, call with the bad value)
_SITES = [
    ("SystemConfig", "count", "num_channels", lambda v: SystemConfig(v, 1.0, 1.0, 1.0)),
    ("SystemConfig", "positive", "channel_gain_mean",
     lambda v: SystemConfig(4, 1.0, 1.0, 1.0, channel_gain_mean=v)),
    ("SystemConfig", "positive", "noise_power",
     lambda v: SystemConfig(4, 1.0, 1.0, 1.0, noise_power=v)),
    ("SystemConfig", "count", "repetition", lambda v: SystemConfig(4, 1.0, 1.0, 1.0, repetition=v)),
    ("SystemConfig", "non_negative", "arrival_rate", lambda v: SystemConfig(4, v, 1.0, 1.0)),
    ("SystemConfig", "positive", "power", lambda v: SystemConfig(4, 1.0, v, 1.0)),
    ("SystemConfig", "non_negative", "rate", lambda v: SystemConfig(4, 1.0, 1.0, v)),
    ("collision_prob", "count", "m", lambda v: collision_prob(v, 10, 1)),
    ("collision_prob", "count", "num_channels", lambda v: collision_prob(2, v, 1)),
    ("collision_prob", "count", "copies", lambda v: collision_prob(2, 10, v)),
    ("design_config", "count", "num_layers", lambda v: design_config(v, 10, 1.0, 1.0, 2.0)),
    ("allocate_powers", "positive", "gamma", lambda v: allocate_powers(v, [1.0, 2.0], 10)),
    ("allocate_powers", "non_negative", "arrival_rate",
     lambda v: allocate_powers(2.0, [1.0, v], 10)),
    ("design_config", "non_negative", "arrival_rate",
     lambda v: design_config(2, 10, [1.0, v], 1.0, 2.0)),
    ("optimize_arrivals", "count", "num_layers", lambda v: optimize_arrivals(v, 10, 1.0, 10.0)),
    ("optimize_arrivals", "count", "num_channels", lambda v: optimize_arrivals(2, v, 1.0, 10.0)),
    ("optimize_arrivals", "positive", "gamma", lambda v: optimize_arrivals(2, 10, 1.0, v)),
    ("sla_layer_contributions", "count", "num_channels",
     lambda v: sla_layer_contributions(v, [1.0, 1.0], 1.0, 10.0)),
    ("sla_layer_contributions", "positive", "gamma",
     lambda v: sla_layer_contributions(10, [1.0, 1.0], 1.0, v)),
    ("sla_layer_contributions", "non_negative", "tau",
     lambda v: sla_layer_contributions(10, [v, 1.0], 1.0, 10.0)),
    ("baseline_aloha_max", "count", "num_channels", baseline_aloha_max),
    ("baseline_irsa", "count", "num_channels", baseline_irsa),
    ("conditional_collision_moment", "positive", "arrival_rate",
     lambda v: conditional_collision_moment(1, v, 10, 1)),
    ("conditional_collision_moment", "order", "moment order",
     lambda v: conditional_collision_moment(v, 3.0, 10, 1)),
    ("db_to_linear", "finite", "gamma_db", db_to_linear),
    ("config_from_settings", "finite", "gamma_db",
     lambda v: config_from_settings({"layers": 2, "channels": 10, "arrival_rate": 1.0,
                                     "gamma_db": v})),
    ("SystemConfig", "number", "noise_power",
     lambda v: SystemConfig(4, 1.0, 1.0, 1.0, noise_power=v)),
    ("SystemConfig", "number", "power", lambda v: SystemConfig(4, 1.0, v, 1.0)),
    ("SystemConfig", "text", "arrival_rate", lambda v: SystemConfig(4, v, 1.0, 1.0)),
    # per-layer values: a number, or a sequence of numbers, checked before float()
    ("design_config", "text", "arrival_rate", lambda v: design_config(2, 10, v, 1.0, 3.0)),
    ("design_config", "number", "arrival_rate", lambda v: design_config(2, 10, [1.0, v], 1.0, 3.0)),
    ("design_config", "rate", "rate", lambda v: design_config(2, 10, 1.0, [1.0, v], 3.0)),
    ("design_config", "text", "powers", lambda v: design_config(2, 10, 1.0, 1.0, 3.0, powers=v)),
    ("design_config", "number", "powers",
     lambda v: design_config(2, 10, 1.0, 1.0, 3.0, powers=[9.0, v])),
    ("allocate_powers", "number", "gamma", lambda v: allocate_powers(v, [1.0, 2.0], 10)),
    ("allocate_powers", "number", "arrival_rate", lambda v: allocate_powers(2.0, v, 10)),
    ("with_rates", "rate", "rate", lambda v: _CFG.with_rates([v])),
    ("with_rates", "text", "rate", _CFG.with_rates),
    # the power rule's result: no power was set, so the settings it came from are named
    ("allocate_powers", "huge", "gamma_db", lambda v: allocate_powers(2.0, [v] * 3, 10)),
    ("config_from_settings", "huge", "arrival_rate",
     lambda v: config_from_settings({"layers": 3, "channels": 10, "arrival_rate": v,
                                     "gamma_db": 3.0})),
    ("sla_layer_contributions", "number", "tau",
     lambda v: sla_layer_contributions(10, v, 1.0, 10.0)),
    # a list for one layer: the message says "1 value", not "1 or 1 values"
    ("design_config", "two_values", "^arrival_rate: expected 1 value, got 2$",
     lambda v: design_config(1, 10, v, 1.0, 3.0)),
    ("design_config", "two_values", "^rate: expected 1 value, got 2$",
     lambda v: design_config(1, 10, 1.0, v, 3.0)),
    # run parameters
    ("sample_slots", "count", "num_slots", lambda v: sample_slots(_CFG, v, 1)),
    ("sample_slots", "seed", "seed", lambda v: sample_slots(_CFG, 1, v)),
    ("estimate_throughput", "count", "num_slots", lambda v: estimate_throughput(_CFG, v, 1)),
    ("estimate_throughput", "seed", "seed", lambda v: estimate_throughput(_CFG, 1, v)),
    ("estimate_outage", "count", "workers", lambda v: estimate_outage(_CFG, 1, 1, workers=v)),
    # probabilities and the rate bound
    ("eta", "probability", "capture_prob", lambda v: eta(1, _CFG, v)),
    ("rho", "probability", "capture_prob", lambda v: rho(1, _CFG, v)),
    ("snr_gap", "rate", "rate", snr_gap),
    ("optimize_rates", "rate", "rate_max", lambda v: optimize_rates(_CFG, v)),
    ("optimize_arrivals", "rate", "rate", lambda v: optimize_arrivals(2, 10, v, 10.0)),
    ("sla_layer_contributions", "rate", "rate",
     lambda v: sla_layer_contributions(10, [1.0, 1.0], v, 10.0)),
]


@pytest.mark.parametrize("call, bad, setting", [
    pytest.param(call, bad, setting, id=f"{site}-{setting}-{bad!r}")
    for site, rule, setting, call in _SITES for bad in _BAD[rule]
])
def test_bad_input_raises_naming_its_setting(call, bad, setting):
    # a bool or a fraction used to scale the baselines and the arrival optimum, an
    # infinite tau gave NaN contributions, a negative arrival rate was reported as a
    # power, a NaN or infinite moment arrival rate never returned, "12" built the
    # arrival rates (1.0, 2.0), a rate of 2000 overflowed in 2**rate, a gamma_db of
    # "3" raised TypeError, and one of True read as 1 dB
    with pytest.raises(ValueError, match=setting):
        call(bad)


def test_numpy_and_int_values_build_the_all_float_config():
    # the demos pass ints and np.arange rates; every per-layer field is stored as a float
    floats = design_config(3, 10, [1.0, 2.0, 3.0], 1.0, 2.0)
    for lams, rate, gamma in [([1, 2, 3], 1, 2),
                              (np.array([1.0, 2.0, 3.0]), np.float64(1.0), np.float64(2.0)),
                              (np.arange(1, 4), [np.float64(1.0)], 2)]:
        cfg = design_config(3, 10, lams, rate, gamma)
        assert cfg == floats
        assert all(type(v) is float for v in cfg.arrival_rates + cfg.rates + cfg.powers)
        rates = cfg.with_rates(np.arange(3) * 0.5).rates
        assert rates == (0.0, 0.5, 1.0) and all(type(r) is float for r in rates)
    explicit = design_config(2, 10, 1, 1, 1.0, powers=np.array([9, 3]))
    assert explicit.powers == (9.0, 3.0) and all(type(p) is float for p in explicit.powers)


_EMPTY_LAYER_2 = design_config(3, 10, [2.0, 0.0, 2.0], 1.0, 10.0)


@pytest.mark.parametrize("call", [
    lambda: outage(_EMPTY_LAYER_2),
    lambda: psi_series(2, _EMPTY_LAYER_2),
    lambda: estimate_outage(_EMPTY_LAYER_2, 10, seed=1),
], ids=["outage", "psi_series", "estimate_outage"])
def test_outage_of_an_empty_layer_names_the_layer(call):
    with pytest.raises(ValueError, match="layer 2 has arrival rate 0"):
        call()
