import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layered_aloha import (
    capture_prob_exact,
    db_to_linear,
    design_config,
    optimize_arrivals,
    optimize_rates,
    sla_lower_bound,
    throughput,
)
from layered_aloha import optimize


def _cfg(num_layers, arrival, gamma, num_channels=10):
    return design_config(num_layers, num_channels, arrival, 0.0, gamma)


def test_empty_system_returns_zero_rate():
    plan = optimize_rates(_cfg(1, 0.0, 2.0))
    assert plan.optimal_rates == (0.0,)
    assert plan.achieved_throughput == 0.0


def test_single_layer_matches_dense_grid_oracle():
    # maximize R * exp(-(2^R - 1)/2) * 10 e^-1 by brute force on 1e5 points
    cfg = _cfg(1, 10.0, 2.0)
    grid = np.linspace(0.0, 16.0, 100001)
    vals = grid * np.exp(-(2.0 ** grid - 1.0) / 2.0) * 10.0 * math.exp(-1.0)
    best = int(np.argmax(vals))
    plan = optimize_rates(cfg)
    assert plan.achieved_throughput >= vals[best] - 1e-12
    assert abs(plan.optimal_rates[0] - grid[best]) < 2 * (grid[1] - grid[0])
    assert plan.achieved_throughput == pytest.approx(vals[best], abs=1e-6)


def _brute_force_two_layer(cfg, r_hi=8.0, steps=2001):
    """Exhaustive 2-D scan of T(R1, R2) from the raw formulas."""
    N = cfg.num_channels
    (p1, p2), (lam1, lam2) = cfg.powers, cfg.arrival_rates
    r = np.linspace(0.0, r_hi, steps)
    nu = 2.0 ** r - 1.0
    # layer 1 terms under layer-2 interference
    phi1 = np.exp(
        -nu * cfg.noise_power / (p1 * cfg.channel_gain_mean)
        - (lam2 / N) * nu * p2 / (p1 + nu * p2)
    )
    eta1 = phi1 * lam1 * math.exp(-lam1 / N)
    rho1 = (1.0 + phi1 * lam1 / N) * math.exp(-lam1 / N)
    phi2 = np.exp(-nu * cfg.noise_power / (p2 * cfg.channel_gain_mean))
    eta2 = phi2 * lam2 * math.exp(-lam2 / N)
    t_grid = (r * eta1)[:, None] + rho1[:, None] * (r * eta2)[None, :]
    i, j = np.unravel_index(np.argmax(t_grid), t_grid.shape)
    return float(t_grid[i, j]), float(r[i]), float(r[j])


def test_two_layer_matches_2d_grid_oracle():
    cfg = _cfg(2, 10.0, 10 ** 0.3)
    t_grid, r1, r2 = _brute_force_two_layer(cfg)
    plan = optimize_rates(cfg)
    assert plan.achieved_throughput >= t_grid - 1e-12
    assert plan.achieved_throughput == pytest.approx(t_grid, abs=1e-3)
    assert plan.optimal_rates[0] == pytest.approx(r1, abs=0.02)
    assert plan.optimal_rates[1] == pytest.approx(r2, abs=0.02)


def test_plan_is_consistent_with_throughput():
    cfg = _cfg(3, 10.0, 10 ** 0.3)
    plan = optimize_rates(cfg)
    rep = throughput(cfg.with_rates(plan.optimal_rates))
    assert rep.total_throughput == pytest.approx(plan.achieved_throughput, rel=1e-10)
    assert plan.achieved_throughput == plan.layer_values[0]


def test_dominance_over_sampled_and_uniform_rates():
    cfg = _cfg(3, 10.0, 10 ** 0.3)
    plan = optimize_rates(cfg)
    rng = np.random.default_rng(42)
    for _ in range(300):
        rates = rng.uniform(0.0, 8.0, size=3)
        assert throughput(cfg.with_rates(rates)).total_throughput <= plan.achieved_throughput + 1e-9
    for r in np.arange(0.05, 8.0, 0.05):
        t = throughput(cfg.with_rates([r] * 3)).total_throughput
        assert t <= plan.achieved_throughput + 1e-9


def test_recursion_consistency_when_tail_pinned():
    # re-running with layer L's optimum already fixed reproduces layers 1..L-1
    cfg = _cfg(3, 8.0, 10 ** 0.3)
    plan = optimize_rates(cfg)
    again = optimize_rates(cfg)
    assert again.optimal_rates == plan.optimal_rates  # deterministic search
    # rebuild the layer-2 objective with the pinned layer-3 value and check
    # the reported partial objective is its value at the reported optimum
    N = cfg.num_channels
    for l in (2, 1):
        lam = cfg.arrival_rates[l - 1]
        r = plan.optimal_rates[l - 1]
        phi = capture_prob_exact(l, cfg, rate=r)
        t_here = r * phi * lam * math.exp(-lam / N) + (
            1.0 + phi * lam / N
        ) * math.exp(-lam / N) * plan.layer_values[l]
        assert plan.layer_values[l - 1] == pytest.approx(t_here, rel=1e-12)


def test_layer_values_dominate_scaled_tail():
    cfg = _cfg(3, 10.0, 10 ** 0.3)
    plan = optimize_rates(cfg)
    for l in (1, 2):
        for r in np.linspace(0.0, 8.0, 33):
            phi = capture_prob_exact(l, cfg, rate=r)
            lam = cfg.arrival_rates[l - 1]
            rho_r = (1.0 + phi * lam / cfg.num_channels) * math.exp(-lam / cfg.num_channels)
            assert plan.layer_values[l - 1] >= rho_r * plan.layer_values[l] - 1e-12


def test_zero_arrival_layers_get_zero_rate():
    cfg = design_config(3, 10, [5.0, 0.0, 5.0], 0.0, 2.0)
    plan = optimize_rates(cfg)
    assert plan.optimal_rates[1] == 0.0
    assert plan.layer_values[1] == plan.layer_values[2]


def test_use_bound_flag_changes_objective():
    cfg = _cfg(2, 10.0, 10.0)
    exact_plan = optimize_rates(cfg)
    bound_plan = optimize_rates(cfg, use_bound=True)
    assert bound_plan.achieved_throughput <= exact_plan.achieved_throughput


def test_optimize_rates_rate_max_validation():
    cfg = _cfg(1, 10.0, 2.0)
    for rate_max in (0.0, -1.0, math.nan, math.inf, 1024.0):
        with pytest.raises(ValueError, match="rate_max"):
            optimize_rates(cfg, rate_max)
    # the largest accepted rate bound still has a finite 2**rate_max
    plan = optimize_rates(cfg, rate_max=1023.0)
    assert plan.achieved_throughput == pytest.approx(
        optimize_rates(cfg).achieved_throughput, rel=1e-9)


def test_optimize_arrivals_single_layer():
    # the single-layer term tau e^-tau peaks at tau = 1
    plan = optimize_arrivals(1, 10, 1.0, 10.0)
    assert plan.optimal_tau == (1.0,)
    assert plan.value == pytest.approx(10.0 * math.exp(-0.1) * math.exp(-1.0), rel=1e-9)


def test_optimize_arrivals_two_layers_exactly():
    # the top layer peaks at tau = 1 with value phi/e, so layer 1's
    # f'(tau) = e^-tau [phi (1 - tau)(1 + T) - T] vanishes at 1 - T/(phi (1 + T))
    phi = math.exp(-0.1)
    tau1, tau2 = optimize_arrivals(2, 10, 1.0, 10.0).optimal_tau
    assert tau2 == 1.0
    assert tau1 == pytest.approx(1.0 - math.exp(-1.0) / (1.0 + phi * math.exp(-1.0)), rel=1e-15, abs=0)


def _arrival_objective(t, phi, tail):
    """Layer objective of the arrival recursion, f(tau), as a float or an array."""
    decay = np.exp(-t)
    return phi * t * decay + (1.0 + phi * t) * decay * tail


@settings(max_examples=50, deadline=None)
@given(
    num_layers=st.integers(1, 8),
    rate=st.floats(0.0, 1023.0),
    gamma_db=st.floats(-40.0, 80.0),
)
@example(1, 0.0, 80.0)  # phi = 1: the top layer's optimum is tau = 1 itself
@example(8, 1023.0, -40.0)  # phi = 0: every objective falls from tau = 0
def test_arrival_optimum_is_each_layers_maximum(num_layers, rate, gamma_db):
    gamma = db_to_linear(gamma_db)
    phi = math.exp(-(2.0 ** rate - 1.0) / gamma)
    taus = optimize_arrivals(num_layers, 1, rate, gamma).optimal_tau
    grid = np.linspace(0.0, 4.0, 100001)
    for l, tau in enumerate(taus):
        tail = sla_lower_bound(1, taus[l + 1:], rate, gamma) if l + 1 < num_layers else 0.0
        best = float(_arrival_objective(grid, phi, tail).max())
        # a few ulps for the two exp implementations and the tail's rounding
        assert _arrival_objective(tau, phi, tail) >= best * (1.0 - 1e-14)
        assert 0.0 <= tau <= 1.0
        if tau > 0.0:  # f'(tau) / e^-tau, whose terms are at most 1 + 2T
            assert abs(phi * (1.0 - tau) * (1.0 + tail) - tail) <= 1e-14 * (1.0 + tail)


def test_optimize_arrivals_matches_2d_grid():
    gamma = 10.0
    phi = math.exp(-0.1)
    t = np.linspace(0.0, 3.0, 1501)
    term = phi * t * np.exp(-t)
    rho_t = (1.0 + phi * t) * np.exp(-t)
    grid = term[:, None] + rho_t[:, None] * term[None, :]
    best = float(grid.max()) * 10.0
    plan = optimize_arrivals(2, 10, 1.0, gamma)
    assert plan.value >= best - 1e-9
    assert plan.value == pytest.approx(best, abs=1e-3)


def test_optimize_arrivals_beats_all_ones():
    for L in (1, 2, 4, 6):
        plan = optimize_arrivals(L, 10, 1.0, 10.0)
        assert plan.value >= sla_lower_bound(10, [1.0] * L, 1.0, 10.0) - 1e-12


def test_optimize_arrivals_validation():
    for num_layers in (0, True, 2.0):  # True gave a one-layer plan
        with pytest.raises(ValueError, match="num_layers"):
            optimize_arrivals(num_layers, 10, 1.0, 10.0)
    with pytest.raises(ValueError):
        optimize_arrivals(2, 10, 1.0, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        optimize_arrivals(2, 10, 1.0, float("nan"))


def test_rate_optimum_at_the_search_bound_is_flagged():
    cfg = _cfg(3, 10.0, db_to_linear(60.0))
    plan = optimize_rates(cfg)
    assert plan.optimal_rates[1:] == (16.0, 16.0)
    assert 15.9 < plan.optimal_rates[0] < 16.0
    assert plan.bound_hits == (2, 3)
    wide = optimize_rates(cfg, rate_max=64.0)
    assert wide.bound_hits == ()
    assert wide.achieved_throughput > plan.achieved_throughput
    assert optimize_rates(_cfg(3, 10.0, db_to_linear(10.0))).bound_hits == ()


def _reference_maximize(f, upper):
    """The scalar grid scan the array shortlist replaced: every grid point
    through the scalar objective, strict `>`, then golden refinement."""
    n = optimize._GRID_POINTS
    xs = [upper * k / n for k in range(n + 1)]
    best_i = 0
    best_v = f(xs[0])
    for i in range(1, n + 1):
        v = f(xs[i])
        if v > best_v:
            best_i, best_v = i, v
    lo = xs[best_i - 1] if best_i > 0 else xs[0]
    hi = xs[best_i + 1] if best_i < n else xs[n]
    x = optimize._golden_max(f, lo, hi, optimize._REFINE_TOL)
    v = f(x)
    if v > best_v:
        return x, v, best_i == n
    return xs[best_i], best_v, best_i == n


def _all_plans(cfg, rate_max):
    return optimize_rates(cfg, rate_max), optimize_rates(cfg, rate_max, use_bound=True)


@settings(max_examples=25, deadline=None)
@given(
    num_layers=st.integers(1, 8),
    num_channels=st.integers(1, 1000),
    arrival=st.floats(0.0, 800.0),
    gamma_db=st.floats(-10.0, 60.0),
    grid_points=st.integers(2, 4096),
    rate_max=st.floats(1e-3, 1023.0),
)
@example(3, 10, 10.0, 60.0, 2048, 16.0)  # rate optima at the bound
@example(3, 10, 10.0, 60.0, 2048, 1000.0)  # NaN on the top of the grid
@example(3, 1, 800.0, -10.0, 2048, 16.0)  # every objective flat at 0
def test_grid_shortlist_gives_the_scalar_scan_plans(
    num_layers, num_channels, arrival, gamma_db, grid_points, rate_max
):
    cfg = design_config(num_layers, num_channels, arrival, 0.0, db_to_linear(gamma_db))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_GRID_POINTS", grid_points)
        plans = _all_plans(cfg, rate_max)
        mp.setattr(optimize, "_maximize_scalar", _reference_maximize)
        assert plans == _all_plans(cfg, rate_max)


class _UlpObjective:
    """A grid objective whose array evaluation is off by a few ulps.

    Scalar values are 1 + level * 2**-52 on the grid (NaN where level is
    None) and 0 off it; the array path adds `skew` more ulps per point, as
    a SIMD exp or pow may, so near-ties can order differently in it."""

    def __init__(self, upper, levels, skew):
        self.upper, self.n = upper, len(levels) - 1
        self.scalar = [math.nan if v is None else 1.0 + v * 2.0 ** -52 for v in levels]
        self.array = np.array(self.scalar) + np.array(skew) * 2.0 ** -52

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.array.copy()
        k = round(x * self.n / self.upper)
        return self.scalar[k] if self.upper * k / self.n == x else 0.0


_GRID_LEVELS = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.none() | st.integers(0, 3), min_size=n + 1, max_size=n + 1),
    st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1),
))


@settings(max_examples=200, deadline=None)
@given(_GRID_LEVELS)
@example(([None, 0, 1], [0, 0, 0]))  # NaN at the first point keeps it
@example(([0, 0, 0, 0], [0, 0, 0, 0]))  # all tied: the first point wins
@example(([0, 1, 0, 0], [0, 0, 0, 2]))  # the array top is not the scalar top
def test_scalar_objective_decides_among_the_shortlist(levels_and_skew):
    levels, skew = levels_and_skew
    f = _UlpObjective(2.0, levels, skew)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_GRID_POINTS", len(levels) - 1)
        got = optimize._maximize_scalar(f, 2.0)
        want = _reference_maximize(f, 2.0)
    assert repr(got) == repr(want)
