import math

import numpy as np
import pytest

from layered_aloha import (
    LayerParams,
    SystemConfig,
    allocate_powers,
    collision_prob,
    config_from_settings,
    db_to_linear,
    design_config,
    interference_variance,
    parse_config_text,
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
    # applies unchanged.
    for N in (1, 2, 5, 10):
        for m in (1, 2, 3, 7):
            assert collision_prob(m, N, N) == 1.0 - (1.0 - 1.0 / N) ** (N * (m - 1))


def _two_layer_config():
    return SystemConfig(
        num_channels=10,
        layers=(LayerParams(5.0, 6.0, 1.0), LayerParams(10.0, 2.0, 1.0)),
    )


def test_interference_variance_values():
    cfg = _two_layer_config()
    assert interference_variance(2, cfg) == cfg.noise_power  # top layer: noise only
    assert interference_variance(1, cfg) == pytest.approx(3.0)  # 1*2*10/10 + 1
    assert interference_variance(1, cfg, copies=2) == pytest.approx(5.0)


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
            layers=tuple(LayerParams(a, p, 1.0) for a, p in zip(lams, powers)),
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
    with pytest.raises(ValueError):
        LayerParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LayerParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LayerParams(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        LayerParams(float("nan"), 1.0, 1.0)


def test_system_config_validation():
    lp = LayerParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(num_channels=0, layers=(lp,))
    with pytest.raises(ValueError):
        SystemConfig(num_channels=4, layers=())
    with pytest.raises(ValueError):
        SystemConfig(num_channels=4, layers=(lp,), repetition=5)
    with pytest.raises(ValueError):
        SystemConfig(num_channels=4, layers=(lp,), noise_power=0.0)
    cfg = SystemConfig(num_channels=4, layers=(lp,), repetition=4)
    assert cfg.num_layers == 1


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_allocate_powers_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        allocate_powers(gamma, [1.0, 2.0], 10)


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
    with pytest.raises(ValueError):
        config_from_settings({"layers": 2, "channels": 8})  # no arrival_rate
    with pytest.raises(ValueError):
        config_from_settings({"layers": 2, "channels": 8, "arrival_rate": 1.0})  # no gamma/powers


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CONFIG_TEXT)
    from layered_aloha import load_config_file

    cfg = config_from_settings(load_config_file(path))
    assert cfg.num_channels == 10
    assert math.isclose(cfg.powers[-1], db_to_linear(3.0))
