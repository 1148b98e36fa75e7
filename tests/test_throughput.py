import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from layered_aloha import (
    SystemConfig,
    baseline_aloha_max,
    baseline_irsa,
    beta_crrd,
    capture_prob_exact,
    capture_prob_lower_bound,
    design_config,
    eta,
    interference_variance,
    lone_pair_capture,
    psi_series,
    rho,
    sla_layer_contributions,
    sla_lower_bound,
    snr_gap,
    throughput,
)


def _random_config(rng, max_layers=6):
    L = int(rng.integers(1, max_layers + 1))
    N = int(rng.integers(1, 60))
    return design_config(
        num_layers=L,
        num_channels=N,
        arrival_rate=rng.uniform(0.0, 20.0, size=L),
        rate=rng.uniform(0.0, 6.0, size=L),
        gamma=float(rng.uniform(0.2, 20.0)),
        channel_gain_mean=float(rng.uniform(0.3, 3.0)),
        noise_power=float(rng.uniform(0.3, 3.0)),
    )


def test_capture_exact_zero_rate_is_one():
    cfg = design_config(3, 10, 5.0, 0.0, 2.0)
    for l in (1, 2, 3):
        assert capture_prob_exact(l, cfg) == 1.0


def test_capture_exact_single_layer():
    # P * s2 / N0 = 2, R = 1  ->  exp(-1/2)
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    assert capture_prob_exact(1, cfg) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_capture_exact_two_layer_hand_value():
    cfg = SystemConfig(10, (5.0, 10.0), (6.0, 2.0), (1.0, 1.0))
    # exp(-1/6 - (10/10) * 2/(6+2)) = exp(-1/6 - 1/4)
    assert capture_prob_exact(1, cfg) == pytest.approx(0.6592406302004438, rel=1e-12)


def test_capture_bound_two_layer_hand_value():
    cfg = SystemConfig(10, (5.0, 10.0), (6.0, 2.0), (1.0, 1.0))
    # gamma_1 = 6/3 = 2 -> exp(-1/2), below the exact value
    bound = capture_prob_lower_bound(1, cfg)
    assert bound == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert bound <= capture_prob_exact(1, cfg)


def test_capture_bound_below_exact_and_tight_at_top():
    rng = np.random.default_rng(11)
    for _ in range(300):
        cfg = _random_config(rng)
        L = cfg.num_layers
        for l in range(1, L + 1):
            exact = capture_prob_exact(l, cfg)
            bound = capture_prob_lower_bound(l, cfg)
            assert bound <= exact + 1e-15
        assert capture_prob_lower_bound(L, cfg) == pytest.approx(
            capture_prob_exact(L, cfg), abs=1e-12
        )


def test_capture_exact_monotonicity():
    cfg = design_config(3, 10, 8.0, 1.0, 2.0)
    # strictly decreasing in the layer rate
    vals = [capture_prob_exact(1, cfg, rate=r) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # non-increasing in any upper-layer arrival rate
    base = capture_prob_exact(1, cfg)
    for lam2 in (9.0, 12.0, 20.0):
        heavier = replace(cfg, arrival_rates=(cfg.arrival_rates[0], lam2, cfg.arrival_rates[2]))
        assert capture_prob_exact(1, heavier) <= base
        base = capture_prob_exact(1, heavier)


@pytest.mark.parametrize("layers, gain_mean, noise", [
    (((4.0, 6.0), (5.0, 1.5), (1.3, 0.9)), 1.7, 0.6),  # (arrival_rates, powers, rates)
    (((2.0, 3.0), (30.0, 0.8), (2.5, 0.4)), 0.4, 2.2),
])
def test_lone_pair_capture_matches_numeric_integration(layers, gain_mean, noise):
    # integrate over both exponential gains: layer 1 decodes when
    # P1 g1 >= nu1 (P2 g2 + N0), then layer 2 when P2 g2 >= nu2 N0
    cfg = SystemConfig(10, *layers, channel_gain_mean=gain_mean, noise_power=noise)
    (p1, p2), s = cfg.powers, gain_mean
    nu1, nu2 = (snr_gap(r) for r in cfg.rates)

    def density(g1, g2):
        return math.exp(-(g1 + g2) / s) / (s * s)

    def g1_from(g2):
        return nu1 * (p2 * g2 + noise) / p1

    oracle = [integrate.dblquad(density, g2_from, math.inf, g1_from, math.inf,
                                epsabs=0.0, epsrel=1e-13)[0]
              for g2_from in (0.0, nu2 * noise / p2)]
    p_first, p_both = lone_pair_capture(cfg)
    assert p_first == pytest.approx(oracle[0], rel=1e-10)
    assert p_both == pytest.approx(oracle[1], rel=1e-10)
    assert 0.0 < p_both < p_first < 1.0


def test_lone_pair_capture_edge_cases():
    assert lone_pair_capture(design_config(2, 10, 10.0, 0.0, 2.0)) == (1.0, 1.0)
    # a zero-rate layer 2 decodes whenever the sweep reaches it
    p_first, p_both = lone_pair_capture(design_config(2, 10, 10.0, [1.0, 0.0], 2.0))
    assert p_both == p_first
    assert 0.0 < p_first < 1.0


def test_lone_pair_capture_validation():
    for cfg in (design_config(3, 10, 5.0, 1.0, 2.0), design_config(1, 10, 5.0, 1.0, 2.0)):
        with pytest.raises(ValueError, match="exactly 2 layers"):
            lone_pair_capture(cfg)
    with pytest.raises(ValueError, match="repetition"):
        lone_pair_capture(design_config(2, 10, 5.0, 1.0, 2.0, repetition=2))


def test_eta_values():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    assert eta(1, design_config(1, 10, 0.0, 1.0, 2.0), 0.7) == 0.0
    assert eta(1, cfg, 1.0) == pytest.approx(10.0 * math.exp(-1.0), rel=1e-12)
    assert eta(1, cfg, math.exp(-0.5)) == pytest.approx(2.231301601484298, rel=1e-12)


def test_eta_peaks_at_arrival_equal_channels():
    # for fixed capture, lambda * exp(-lambda/N) peaks at lambda = N
    N = 10
    peak = eta(1, design_config(1, N, float(N), 1.0, 2.0), 1.0)
    for lam in (6.0, 8.0, 9.5, 10.5, 12.0, 15.0):
        assert eta(1, design_config(1, N, lam, 1.0, 2.0), 1.0) < peak


def test_rho_values():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    assert rho(1, design_config(1, 10, 0.0, 1.0, 2.0), 0.3) == 1.0
    assert rho(1, cfg, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert rho(1, cfg, math.exp(-0.5)) == pytest.approx(0.5910096013198721, rel=1e-12)


def test_rho_range_and_small_arrival_limit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        cfg = _random_config(rng)
        for l in range(1, cfg.num_layers + 1):
            r = rho(l, cfg, capture_prob_exact(l, cfg))
            assert 0.0 < r <= 1.0
    tiny = design_config(1, 10, 1e-9, 1.0, 2.0)
    assert rho(1, tiny, 0.5) == pytest.approx(1.0, abs=1e-8)


def test_rho_independent_of_other_layers_rates():
    cfg = design_config(3, 10, 8.0, [1.0, 1.0, 1.0], 2.0)
    ref = rho(2, cfg, capture_prob_exact(2, cfg))
    other = cfg.with_rates([3.0, 1.0, 0.2])  # layer-2 rate unchanged
    assert rho(2, other, capture_prob_exact(2, other)) == ref


def test_throughput_zero_rates():
    cfg = design_config(4, 10, 8.0, 0.0, 2.0)
    assert throughput(cfg).total_throughput == 0.0


def test_throughput_single_layer_value():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    rep = throughput(cfg)
    assert rep.total_throughput == pytest.approx(2.231301601484298, rel=1e-12)


def test_throughput_matches_manual_accumulation():
    rng = np.random.default_rng(23)
    for _ in range(100):
        cfg = _random_config(rng)
        rep = throughput(cfg)
        total = 0.0
        clear = 1.0
        for l in range(1, cfg.num_layers + 1):
            cap = capture_prob_exact(l, cfg)
            term = cfg.rates[l - 1] * clear * eta(l, cfg, cap)
            assert rep.layer_throughput[l - 1] == pytest.approx(term, abs=1e-12)
            total += term
            clear *= rho(l, cfg, cap)
        assert rep.total_throughput == pytest.approx(total, abs=1e-12)
        assert rep.total_throughput == pytest.approx(sum(rep.layer_throughput), abs=1e-12)
        for l in range(cfg.num_layers):
            assert 0.0 <= rep.capture_exact[l] <= 1.0
            assert eta(l + 1, cfg, rep.capture_exact[l]) <= cfg.arrival_rates[l] + 1e-15


def test_throughput_empty_top_layer_is_noop():
    rng = np.random.default_rng(5)
    for _ in range(50):
        L = int(rng.integers(2, 6))
        N = int(rng.integers(2, 30))
        lams = list(rng.uniform(0.5, 15.0, size=L - 1)) + [0.0]
        rates = list(rng.uniform(0.1, 4.0, size=L))
        powers = list(rng.uniform(0.5, 50.0, size=L))
        full = SystemConfig(N, lams, powers, rates)
        trunc = SystemConfig(N, lams[:-1], powers[:-1], rates[:-1])
        assert throughput(full).total_throughput == pytest.approx(
            throughput(trunc).total_throughput, rel=1e-12
        )


def test_throughput_bound_flag():
    cfg = design_config(3, 10, 10.0, 1.0, 2.0)
    report = throughput(cfg)
    for exact, bound in zip(report.capture_exact, report.capture_bound):
        assert bound <= exact


def test_sla_lower_bound_single_layer_peak():
    # full capture (rate 0), tau = 1: N * e^-1
    assert sla_lower_bound(10, [1.0], 0.0, 5.0) == pytest.approx(10 * math.exp(-1), rel=1e-12)


def test_sla_lower_bound_linear_in_channels():
    taus = [0.7, 0.9, 1.0]
    for n in (1, 3, 17):
        a = sla_lower_bound(n, taus, 1.0, 10.0)
        b = sla_lower_bound(2 * n, taus, 1.0, 10.0)
        assert b == pytest.approx(2.0 * a, abs=1e-12 * abs(b))


def test_sla_lower_bound_two_layer_value():
    # phi = exp(-0.1); per channel: phi e^-1 (1 + (1 + phi) e^-1)
    val = sla_lower_bound(10, [1.0, 1.0], 1.0, 10.0)
    assert val == pytest.approx(10 * 0.5661306703133954, rel=1e-12)
    contribs = sla_layer_contributions(10, [1.0, 1.0], 1.0, 10.0)
    assert len(contribs) == 2
    assert sum(contribs) == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("gamma, tau", [(float("nan"), [1.0]), (0.0, [1.0]), (10.0, [float("nan")]),
                                        (10.0, [1.0, -0.5]), (10.0, [])])
def test_sla_lower_bound_rejects_bad_inputs(gamma, tau):
    # a NaN fails every comparison, so the checks are written to fail on it
    with pytest.raises(ValueError):
        sla_lower_bound(10, tau, 1.0, gamma)


def test_baselines():
    assert baseline_aloha_max(10) == pytest.approx(3.6787944117144233)
    assert baseline_irsa(10) == pytest.approx(9.65)
    assert baseline_aloha_max(1) == pytest.approx(0.36787944117144233)
    assert baseline_irsa(1) == pytest.approx(0.965)


def test_layer_index_validation():
    cfg = design_config(2, 10, 5.0, 1.0, 2.0, repetition=2)
    for fn in (capture_prob_exact, capture_prob_lower_bound, interference_variance, beta_crrd,
               psi_series, lambda l, c: capture_prob_exact(l, c, rate=1.0),
               lambda l, c: eta(l, c, 0.5), lambda l, c: rho(l, c, 0.5)):
        # a bool used to read layer 1, and a str raised TypeError
        for l in (0, 3, True, "1"):
            with pytest.raises(ValueError, match="layer index must be in 1..2"):
                fn(l, cfg)
    with pytest.raises(ValueError):
        eta(1, cfg, 1.5)
    with pytest.raises(ValueError):
        rho(1, cfg, -0.1)
