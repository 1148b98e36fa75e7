"""Recursive per-layer optimization of rates and of normalized arrivals.

The total throughput decomposes as T_l(R_l) = R_l eta_l(R_l) +
rho_l(R_l) T_{l+1}(R*_{l+1}) because the capture probability of a layer
depends only on its own rate once powers and arrivals are fixed.  The
optimal rates therefore come from L scalar maximizations run from the top
layer down, each treating the next layer's optimum as a constant.  The
same backward recursion applies to the normalized-arrival optimization of
the common-rate lower bound, where each layer's optimum has a closed form.

The rate search is a coarse uniform grid followed by golden-section
refinement of the best bracket; the per-layer objective is not known to be
unimodal, so the grid stage guards against local maxima.  The objective
accepts a float or an ndarray and evaluates one formula either way.  The
whole grid is evaluated once in numpy, but only to shortlist candidates:
index 0 and every point within a relative 1e-9 of the largest non-NaN
array value.  The scalar objective (`capture_prob_exact`, `math.exp`)
re-evaluates the shortlist in ascending order and a point wins only by
being strictly greater, so numpy's last-ulp differences from libm never
decide.  Ties break toward the smallest argument; a NaN never wins, and a
NaN at the grid's first point keeps that point.  A layer whose grid rate
optimum is the upper search end is recorded in the plan's `bound_hits`.
numpy is imported by the rate search when it runs, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import RATE_MAX, SystemConfig, _check_count, _check_positive, _check_rate, snr_gap
from .throughput import capture_exponent, capture_prob_exact, capture_prob_lower_bound

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Relative distance below the largest array value of the grid points the
# scalar objective re-evaluates; far above numpy's few-ulp error in exp/pow.
_SHORTLIST_MARGIN = 1e-9

# Uniform grid of the scalar search: _GRID_POINTS + 1 points on [0, upper];
# golden-section refinement stops at a bracket of width _REFINE_TOL.
_GRID_POINTS = 2048
_REFINE_TOL = 1e-9


@dataclass(frozen=True)
class RatePlan:
    """Result of the backward rate recursion.

    `layer_values[i]` is the optimized partial objective covering layers
    i+1..L (1-based), so `layer_values[0]` is the full objective and
    equals `achieved_throughput`.  `bound_hits` lists, in ascending order,
    the 1-based layers whose grid optimum is the upper search end
    `rate_max`: their optimum may lie beyond the searched range.
    """

    optimal_rates: tuple[float, ...]
    layer_values: tuple[float, ...]
    achieved_throughput: float
    bound_hits: tuple[int, ...] = ()


@dataclass(frozen=True)
class ArrivalPlan:
    """Result of the backward normalized-arrival recursion (common rate)."""

    optimal_tau: tuple[float, ...]
    value: float


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of f on [lo, hi] down to bracket width tol."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _maximize_scalar(f, upper: float) -> tuple[float, float, bool]:
    """Grid scan on [0, upper] then golden refinement around the best point.

    `f` takes a float or an ndarray.  Returns (argmax, max, at_upper), with
    `at_upper` set when the grid optimum is `upper` itself.  The grid is
    evaluated as one array only to shortlist candidates; the scalar `f`
    picks among them in ascending order under a strict `>`, so the first
    of equal grid values wins and a NaN never does.
    """
    import numpy as np
    n = _GRID_POINTS
    xs = upper * np.arange(n + 1) / n
    with np.errstate(all="ignore"):
        vs = f(xs)
        top = np.fmax.reduce(vs)  # NaN only if every value is NaN
        near = vs >= top - _SHORTLIST_MARGIN * abs(top)
    near[0] = True
    best_i = 0
    best_v = f(float(xs[0]))
    for i in np.flatnonzero(near)[1:].tolist():
        v = f(float(xs[i]))
        if v > best_v:
            best_i, best_v = i, v
    lo = float(xs[max(best_i - 1, 0)])
    hi = float(xs[min(best_i + 1, n)])
    x = _golden_max(f, lo, hi, _REFINE_TOL)
    v = f(x)
    if v > best_v:
        return x, v, best_i == n
    return float(xs[best_i]), best_v, best_i == n


def optimize_rates(
    config: SystemConfig,
    rate_max: float = RATE_MAX,
    use_bound: bool = False,
) -> RatePlan:
    """Find per-layer rates maximizing the analytic total throughput.

    Rates already present in `config` are ignored.  Layers with zero
    arrivals contribute nothing and get rate 0.  `use_bound` runs the
    recursion on the Jensen lower-bound capture probability instead of the
    exact one.  The search runs on [0, `rate_max`], which must lie in
    (0, 1024) so that 2**rate_max fits a double.
    """
    import numpy as np
    _check_rate("rate_max", rate_max, positive=True)
    capture = capture_prob_lower_bound if use_bound else capture_prob_exact
    N = config.num_channels
    L = config.num_layers
    rates = [0.0] * L
    values = [0.0] * L
    hits = []
    value_above = 0.0
    for l in range(L, 0, -1):
        lam = config.arrival_rates[l - 1]
        if lam == 0.0:
            # empty layer: eta = 0 and rho = 1, objective flat in R
            rates[l - 1] = 0.0
            values[l - 1] = value_above
            continue
        decay = math.exp(-lam / N)

        def objective(r, l=l, lam=lam, decay=decay, tail=value_above):
            if isinstance(r, np.ndarray):
                phi = np.exp(-capture_exponent(l, config, 2.0 ** r - 1.0, bound=use_bound))
            else:
                phi = capture(l, config, rate=r)
            return r * phi * lam * decay + (1.0 + phi * lam / N) * decay * tail

        r_star, v_star, at_upper = _maximize_scalar(objective, rate_max)
        rates[l - 1] = r_star
        values[l - 1] = v_star
        if at_upper:
            hits.insert(0, l)
        value_above = v_star
    return RatePlan(tuple(rates), tuple(values), values[0], tuple(hits))


def optimize_arrivals(
    num_layers: int,
    num_channels: int,
    rate: float,
    gamma: float,
) -> ArrivalPlan:
    """Normalized arrivals maximizing the common-rate decoded-packet bound.

    With phi = exp(-nu(rate)/gamma) fixed, the per-layer term
    phi tau exp(-tau) and clear probability (1 + phi tau) exp(-tau) depend
    only on that layer's tau, so the same backward recursion applies.
    Layer l's objective f(tau) = phi tau e^-tau + (1 + phi tau) e^-tau T,
    with T the value of the layers above, has
    f'(tau) = e^-tau [phi (1 - tau)(1 + T) - T], whose bracket falls
    linearly in tau; so f peaks at tau = 1 - T / (phi (1 + T)), or at 0
    if that is negative or phi = 0.  The returned value is scaled by
    `num_channels`.
    """
    _check_count("num_layers", num_layers)
    _check_count("num_channels", num_channels)
    phi = math.exp(-snr_gap(rate) / _check_positive("gamma", gamma))
    taus = [0.0] * num_layers
    value_above = 0.0
    for l in range(num_layers - 1, -1, -1):
        t = value_above
        tau = max(0.0, 1.0 - t / (phi * (1.0 + t))) if phi > 0.0 else 0.0
        decay = math.exp(-tau)
        taus[l] = tau
        value_above = phi * tau * decay + (1.0 + phi * tau) * decay * t
    return ArrivalPlan(tuple(taus), num_channels * value_above)
