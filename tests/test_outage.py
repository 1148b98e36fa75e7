import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layered_aloha import (
    SystemConfig,
    beta_crrd,
    capture_prob_exact,
    conditional_collision_moment,
    design_config,
    outage,
    psi_series,
)
from layered_aloha.outage import _conditional_mean


def _crrd_config(copies=4, arrival=3.0, rate=1.0, num_channels=60, num_layers=3, gamma=10.0):
    return design_config(
        num_layers, num_channels, arrival, rate, gamma, repetition=copies
    )


def finite_form_moments(lam, omega, B, mp=None):
    """g(b) = E[p_c(M)^b | M >= 1] for b = 0..B, as the alternating sums
    sum_j C(b,j) (-1)^j E[omega^(j(M-1)) | M >= 1], in floats or, given `mp`
    (mpmath), in its working precision.  No guard: the sums cancel where g(b)
    is small or omega^-j large.  Each E[omega^(j(M-1)) | M >= 1] = omega^-j
    (e^-lam(1-omega^j) - e^-lam) / (1 - e^-lam) is written lam phi(lam omega^j)
    / expm1(lam), phi(x) = expm1(x) / x, which neither cancels nor divides by
    omega = 0."""
    num, comb, one = (mp, mp.binomial, mp.mpf(1)) if mp else (math, math.comb, 1.0)
    pgf = [lam * (num.expm1(x) / x if x else one) / num.expm1(lam)
           for x in (lam * omega ** j for j in range(B + 1))]
    return [sum(comb(b, j) * (-1) ** j * pgf[j] for j in range(b + 1)) for b in range(B + 1)]


def finite_form_psi(l, cfg, mp=None):
    """Psi_l in the paper's finite form, sum_b C(B,b) (1-beta)^b beta^(B-b) g(b),
    independent of the Poisson series `outage` sums (see `finite_form_moments`)."""
    one = mp.mpf(1) if mp else 1.0
    comb = mp.binomial if mp else math.comb
    lam, beta = one * cfg.arrival_rates[l - 1], one * beta_crrd(l, cfg)
    B = cfg.repetition
    g = finite_form_moments(lam, (1 - one / cfg.num_channels) ** B, B, mp)
    return sum(comb(B, b) * (1 - beta) ** b * beta ** (B - b) * g[b] for b in range(B + 1))


def _random_crrd_config(rng, max_copies=8):
    L = int(rng.integers(1, 5))
    N = int(rng.choice([10, 60]))
    B = int(rng.integers(1, max_copies + 1))
    return design_config(
        num_layers=L,
        num_channels=N,
        arrival_rate=rng.uniform(0.1, 20.0, size=L),
        rate=rng.uniform(0.1, 4.0, size=L),
        gamma=float(rng.uniform(0.5, 20.0)),
        repetition=B,
    )


def test_beta_zero_rate():
    cfg = _crrd_config(rate=0.0)
    assert beta_crrd(1, cfg) == 0.0


def test_beta_reduces_to_capture_complement_for_single_copy():
    rng = np.random.default_rng(4)
    for _ in range(100):
        cfg = _random_crrd_config(rng, max_copies=1)
        for l in range(1, cfg.num_layers + 1):
            assert beta_crrd(l, cfg) == pytest.approx(
                1.0 - capture_prob_exact(l, cfg), abs=1e-15
            )


def test_beta_two_layer_hand_value():
    cfg = SystemConfig(10, (5.0, 10.0), (6.0, 2.0), (1.0, 1.0), repetition=2)
    # 1 - exp(-1/6 - (10*2/10) * 2/8)
    assert beta_crrd(1, cfg) == pytest.approx(0.486582880967408, rel=1e-12)


def test_psi_series_is_one_when_decoding_always_fails():
    cfg = _crrd_config(rate=1000.0)  # nu = 2^1000 - 1: no copy ever decodes
    for l in (1, 2, 3):
        assert beta_crrd(l, cfg) == 1.0
        assert psi_series(l, cfg) == pytest.approx(1.0, abs=1e-12)


def test_psi_series_small_arrival_limit():
    cfg = _crrd_config(arrival=1e-8)
    for l in (1, 2, 3):
        beta = beta_crrd(l, cfg)
        assert psi_series(l, cfg) == pytest.approx(beta ** cfg.repetition, abs=1e-6)


def test_collision_moment_g1_hand_value():
    # E[p_c(M) | M >= 1] at lambda=3, N=60, B=4; omega = (59/60)^4
    val = conditional_collision_moment(1, 3.0, 60, 4)
    assert val == pytest.approx(0.12992503154240365, rel=1e-10)
    # independent route: 1 - omega^-1 E[omega^M | M >= 1]
    om = (1.0 - 1.0 / 60) ** 4
    direct = 1.0 - (math.exp(-3.0) * (math.exp(3.0 * om) - 1.0)) / (om * (1.0 - math.exp(-3.0)))
    assert val == pytest.approx(direct, rel=1e-12)


def test_collision_moment_order_zero_is_one():
    assert conditional_collision_moment(0, 0.5, 10, 2) == 1.0
    assert finite_form_moments(5.0, 0.7, 0)[0] == 1.0


def test_collision_moments_in_unit_interval_and_decreasing_in_order():
    # and the series matches the alternating sums in floats
    rng = np.random.default_rng(9)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 20.0))
        N = int(rng.choice([10, 60]))
        B = int(rng.integers(1, 9))
        omega = (1.0 - 1.0 / N) ** B
        prev = 1.0
        finite = finite_form_moments(lam, omega, B)
        for b in range(0, B + 1):
            series = conditional_collision_moment(b, lam, N, B)
            assert series == pytest.approx(finite[b], rel=1e-12, abs=1e-12)
            assert 0.0 <= series <= prev + 1e-12  # p_c <= 1 so moments decrease in order
            prev = series


def test_closed_form_matches_series_randomized():
    rng = np.random.default_rng(17)
    for _ in range(60):
        cfg = _random_crrd_config(rng)
        for l in range(1, cfg.num_layers + 1):
            a = psi_series(l, cfg)
            b = finite_form_psi(l, cfg)
            assert abs(a - b) < 1e-10


def test_closed_form_fig_config_value():
    cfg = _crrd_config()
    # frozen from the series oracle at B=4, N=60, lambda=3, R=1, gamma=10
    assert psi_series(1, cfg) == pytest.approx(0.008948549608282232, rel=1e-9)
    assert finite_form_psi(1, cfg) == pytest.approx(psi_series(1, cfg), abs=1e-12)


def test_series_is_within_its_tail_bound_of_the_finite_form():
    # the series stops once its tail is at most 1e-12 of the part summed, so it
    # sits that close to the finite form; without its last term it is ~2e-12 off
    mpmath = pytest.importorskip("mpmath")
    cfg = _crrd_config()
    for l in (1, 2, 3):
        with mpmath.workdps(50):
            finite = float(finite_form_psi(l, cfg, mpmath))
        assert psi_series(l, cfg) == pytest.approx(finite, rel=1e-12, abs=0.0)


def test_psi_at_least_full_fading_failure():
    rng = np.random.default_rng(31)
    for _ in range(80):
        cfg = _random_crrd_config(rng)
        for l, psi in enumerate(outage(cfg).psi, start=1):
            beta = beta_crrd(l, cfg)
            assert beta ** cfg.repetition - 1e-12 <= psi <= 1.0 + 1e-12


def test_outage_report_structure():
    cfg = _crrd_config()
    rep = outage(cfg)
    assert rep.outage[0] == rep.psi[0]
    # cascade: P_out,l = 1 - prod_{i<=l}(1 - psi_i), non-decreasing in l
    surv = 1.0
    for psi, out in zip(rep.psi, rep.outage):
        surv *= 1.0 - psi
        assert out == pytest.approx(1.0 - surv, abs=1e-15)
    assert all(a <= b + 1e-15 for a, b in zip(rep.outage, rep.outage[1:]))


def test_outage_single_layer():
    cfg = _crrd_config(num_layers=1)
    rep = outage(cfg)
    assert rep.outage == (rep.psi[0],)


def test_outage_cascade_arithmetic():
    # two layers with psi = 0.1 each give P_out,2 = 1 - 0.9^2 = 0.19
    assert 1.0 - (1.0 - 0.1) * (1.0 - 0.1) == pytest.approx(0.19)
    rng = np.random.default_rng(2)
    cfg = _random_crrd_config(rng)
    rep = outage(cfg)
    expected = 1.0 - math.prod(1.0 - p for p in rep.psi)
    assert rep.outage[-1] == pytest.approx(expected, abs=1e-15)


def test_interior_optimum_in_copies():
    # P_out,1 over B in 1..12 at rate 1, 60 channels, 3 layers, arrival 3,
    # target SINR 10 dB has an interior minimum
    vals = []
    for copies in range(1, 13):
        cfg = _crrd_config(copies=copies)
        vals.append(outage(cfg).outage[0])
    best = vals.index(min(vals))
    assert 0 < best < 11


def test_zero_arrival_is_rejected():
    cfg = design_config(2, 10, [5.0, 0.0], 1.0, 2.0, repetition=2)
    with pytest.raises(ValueError):
        psi_series(2, cfg)
    with pytest.raises(ValueError):
        outage(cfg)
    with pytest.raises(ValueError):
        conditional_collision_moment(1, 0.0, 10, 1)


def test_finite_form_matches_series_at_large_arrivals():
    # large lambda with omega near 1 stresses the alternating sum
    cfg = design_config(2, 60, 20.0, 1.0, 10.0, repetition=8)
    a = psi_series(1, cfg)
    b = finite_form_psi(1, cfg)
    assert abs(a - b) < 1e-10


# 50-digit mpmath values of the series for one layer, P = 1, R = 0.5, N = 4000,
# where lam * e^-lam underflows (lam > 745)
@pytest.mark.parametrize("copies, arrival, psi", [
    (30, 745.0, 0.9265397448),
    (30, 800.0, 0.9506726523),
    (1, 800.0, 0.4587984567),
])
def test_psi_past_the_exp_underflow(copies, arrival, psi):
    cfg = design_config(1, 4000, arrival, 0.5, 1.0, repetition=copies, powers=(1.0,))
    assert psi_series(1, cfg) == pytest.approx(psi, abs=1e-10)
    assert outage(cfg).psi[0] == pytest.approx(psi, abs=1e-10)


def test_psi_deep_in_the_poisson_tail_is_relatively_accurate():
    # layer 3 of a design-closed-form point has psi ~ 2e-10, so stopping once
    # the Poisson mass left is below 1e-12 costs it five digits: the series
    # must stop relative to its own sum (40-digit value)
    cfg = design_config(3, 400, 3.0, 1.0, 10.0, repetition=40)
    exact = 1.92915362636972e-10
    assert psi_series(3, cfg) == pytest.approx(exact, rel=1e-10)
    assert outage(cfg).psi[2] == pytest.approx(exact, rel=1e-10)


def test_closed_form_matches_50_digit_series():
    # B near N: the alternating sum cancels ~8 digits here, so the finite form
    # is summed in 50 digits
    mpmath = pytest.importorskip("mpmath")
    cfg = design_config(1, 28, 4.22, 1.0, 10.0, repetition=24)
    B = cfg.repetition
    with mpmath.workdps(50):
        lam, nu = mpmath.mpf(cfg.arrival_rates[0]), 2 ** mpmath.mpf(cfg.rates[0]) - 1
        beta = -mpmath.expm1(-nu * cfg.noise_power / (cfg.powers[0] * cfg.channel_gain_mean))
        omega = (1 - mpmath.mpf(1) / cfg.num_channels) ** B
        exact = mpmath.nsum(lambda m: (1 - omega ** (m - 1) * (1 - beta)) ** B
                            * lam ** m / mpmath.factorial(m), [1, mpmath.inf]) / mpmath.expm1(lam)
        finite = finite_form_psi(1, cfg, mpmath)
    assert float(exact) == pytest.approx(0.3419811974, abs=1e-10)
    assert float(finite) == pytest.approx(float(exact), abs=1e-10)
    assert psi_series(1, cfg) == pytest.approx(float(exact), abs=1e-10)


@pytest.mark.parametrize("copies", [13, 14])
def test_small_psi_is_relatively_accurate(copies):
    # psi ~ 3e-8 here: an absolute rounding rule on each moment once let the
    # finite form keep an error of ~5e-7 relative (layer 1 at B = 13 read 3.16939143e-08)
    mpmath = pytest.importorskip("mpmath")
    cfg = design_config(3, 400, 3.0, 1.0, 10.0, repetition=copies)
    psi = outage(cfg).psi
    with mpmath.workdps(50):
        lam = mpmath.mpf(3)
        omega = (1 - mpmath.mpf(1) / cfg.num_channels) ** copies
        for l in range(1, 4):
            beta = mpmath.mpf(beta_crrd(l, cfg))
            exact = mpmath.nsum(lambda m: (1 - omega ** (m - 1) * (1 - beta)) ** copies
                                * lam ** m / mpmath.factorial(m), [1, mpmath.inf]) / mpmath.expm1(lam)
            assert psi[l - 1] == pytest.approx(float(exact), rel=1e-11, abs=0.0)
    if copies == 13:
        assert psi[0] == pytest.approx(3.16939127723e-8, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("lam", [1e5, 1e6, 1e7])
def test_single_copy_psi_at_many_channels_matches_its_closed_form(lam):
    # B = 1 is exact: psi = 1 - (1 - beta) (e^{-lam(1-w)} - e^-lam) / (w (1 - e^-lam)),
    # w = 1 - 1/N.  A power of the rounded w in p_c once left 1e-11 .. 3e-10 here
    mpmath = pytest.importorskip("mpmath")
    N = int(lam)
    cfg = design_config(1, N, lam, 1.0, 10.0)
    with mpmath.workdps(50):
        w, lam_mp = 1 - mpmath.mpf(1) / N, mpmath.mpf(lam)
        survive = (mpmath.exp(-lam_mp / N) - mpmath.exp(-lam_mp)) / (w * -mpmath.expm1(-lam_mp))
        exact = float(1 - (1 - mpmath.mpf(beta_crrd(1, cfg))) * survive)
    assert psi_series(1, cfg) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam, copies", [(1e6, 4), (1e7, 2)])
def test_repeated_copies_psi_at_many_channels_matches_the_finite_form(lam, copies):
    mpmath = pytest.importorskip("mpmath")
    cfg = design_config(3, int(lam), lam, 1.0, 10.0, repetition=copies)
    for l in (1, 3):
        with mpmath.workdps(50):
            finite = float(finite_form_psi(l, cfg, mpmath))
        assert psi_series(l, cfg) == pytest.approx(finite, rel=1e-12, abs=0.0)


_ARRIVALS = st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)  # 1e-3 .. 1e4, log-uniform


@st.composite
def _systems(draw, powers=False):
    L = draw(st.integers(1, 4))
    N = draw(st.integers(1, 10_000))
    B = draw(st.integers(1, min(N, 64)))
    arrivals = draw(st.lists(_ARRIVALS, min_size=L, max_size=L))
    rates = draw(st.lists(st.floats(0.0, 6.0), min_size=L, max_size=L))
    pw = draw(st.lists(st.floats(0.1, 100.0), min_size=L, max_size=L)) if powers else None
    return design_config(L, N, arrivals, rates, draw(st.floats(0.5, 20.0)), repetition=B,
                         powers=pw)


@settings(max_examples=40, deadline=None)
@given(_systems())
@example(design_config(1, 1, 2.0, 1.0, 10.0))  # omega = 0
@example(design_config(1, 28, 4.22, 1.0, 10.0, repetition=24))
@example(design_config(2, 10, 3.0, 0.0, 10.0, repetition=3))  # beta = 0
@example(design_config(2, 10, 3.0, 60.0, 10.0, repetition=3))  # beta = 1
@example(design_config(1, 3037, 1.0, 0.0, 10.0, repetition=7))  # psi = g(7) ~ 1e-19
@example(design_config(1, 1, 1e4, 0.0, 10.0))  # psi = P(M >= 2 | M >= 1)
def test_closed_form_matches_series_over_the_domain(cfg):
    # every term of the alternating sums is at most C(64, 32) ~ 2e18, so 50 digits
    # leave the finite form about 30 of them
    mpmath = pytest.importorskip("mpmath")
    for l, psi in enumerate(outage(cfg).psi, start=1):
        with mpmath.workdps(50):
            finite = float(finite_form_psi(l, cfg, mpmath))
        assert psi == pytest.approx(finite, abs=1e-10)
        # sums near 1 may land a few ulps above it; they are not clipped
        assert 0.0 <= psi <= 1.0 + 4 * math.ulp(1.0)


@settings(max_examples=30, deadline=None)
@given(_systems(powers=True), st.data())
def test_psi_grows_with_its_layer_arrival(cfg, data):
    l = data.draw(st.integers(1, cfg.num_layers))
    lo, hi = sorted(data.draw(st.lists(_ARRIVALS, min_size=2, max_size=2)))

    def psi_at(lam):
        lams = list(cfg.arrival_rates)
        lams[l - 1] = lam
        return outage(replace(cfg, arrival_rates=lams)).psi[l - 1]

    # up to the 1e-10 the series is held to: it truncates a tail of about 1e-12,
    # more at large lam
    assert psi_at(lo) <= psi_at(hi) + 1e-10


@settings(max_examples=60, deadline=None)
@given(_ARRIVALS, st.floats(0.0, 1.0))
@example(745.0, 0.999)
@example(800.0, 0.5)
@example(1e4, 0.99999)
@example(1e4, 1.0)
def test_conditional_mean_matches_the_generating_function(lam, x):
    # E[x^M | M >= 1] = (e^{-lam (1 - x)} - e^-lam) / (1 - e^-lam), from the Poisson
    # pgf, with the difference factored so that it does not cancel at small x
    got = _conditional_mean(lam, lambda m: x ** m)
    expected = math.exp(-lam * (1.0 - x)) * -math.expm1(-lam * x) / -math.expm1(-lam)
    # each term rounds exp(m ln lam - lam - ln m!) to a few ulps of the log
    # argument's largest part, once in the weighted sum and once in the mass
    # it is divided by; the terms that carry weight have m < lam + 10 sqrt(lam) + 10
    m = lam + 10 * math.sqrt(lam) + 10
    rel = 1e-12 + 8 * math.ulp(1.0) * (m * abs(math.log(lam)) + lam + math.lgamma(m + 1))
    assert got == pytest.approx(expected, rel=rel, abs=1e-300)
    assert 0.0 <= got <= 1.0


def _unskipped_conditional_mean(lam, weight):
    # the series summed from m = 1, as it was before it skipped the terms that underflow
    log_lam = math.log(lam)
    total = mass = 0.0
    m = 1
    while True:
        p = math.exp(m * log_lam - lam - math.lgamma(m + 1))
        total += weight(m) * p
        mass += p
        q = lam / (m + 1)
        if q < 1.0 and p * q / (1.0 - q) <= 1e-12 * total:
            return total / mass
        m += 1


@pytest.mark.parametrize("lam", [1e4, 1e5, 1e6])
def test_series_work_grows_with_the_root_of_the_arrival_rate(lam):
    # the terms below lam - 40 sqrt(lam) underflow to 0.0; the sum used to start at m = 1
    calls = []

    def weight(m):
        calls.append(m)
        return 1.0 - 0.9 ** (m - 1)

    got = _conditional_mean(lam, weight)
    assert len(calls) <= 50 * math.sqrt(lam) + 50
    if lam <= 1e5:
        assert got == _unskipped_conditional_mean(lam, lambda m: 1.0 - 0.9 ** (m - 1))
