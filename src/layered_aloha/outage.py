"""Outage analysis for repetition transmission (B copies on distinct channels).

A layer-l user fails only if every one of its B copies collides or fades
out.  Conditioning on the number m of users in the layer, a single copy
fails with alpha(m) = p_c(m) + (1 - p_c(m)) beta, and treating the copies
as independent gives the per-layer failure probability

    Psi_l = sum_{m>=1} alpha(m)^B P(m | m >= 1).

This is exact for B = 1 and an approximation otherwise (copies of one user
can share interferers).  :func:`psi_series` sums this series until its tail
is bounded relative to the part summed.  Binomial expansion of alpha(m)^B
gives the same value as a finite sum, with omega = (1 - 1/N)^B,

    Psi_l = sum_{b=0}^B C(B,b) (1-beta)^b beta^{B-b} g(b),
    g(b) = sum_j C(b,j) (-1)^j omega^-j (e^{-lam(1-omega^j)} - e^-lam) / (1 - e^-lam),

g(b) being E[p_c(M)^b | M >= 1]; its alternating sums cancel where psi is
small or B is near N, so the tests keep it as an independent check only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .model import (SystemConfig, _check_count, _check_positive, _occupied_arrival,
                    collision_prob, snr_gap)
from .throughput import capture_exponent

# Largest tail the series may leave, relative to the part summed
_TAIL_TOL = 1e-12
# A Poisson log-term below this exponentiates to exactly 0.0 (past e^-745.2)
_LOG_TERM_MIN = -800.0
# Most terms one series may sum (at lam = 1.5e10, just inside, `outage` took 8 s on a
# 2-vCPU host), and the terms per sqrt(lam) it may span: 40 below the mode from log-term
# _LOG_TERM_MIN, at most 39 above it to where terms underflow (47 measured at lam >= 1e4)
_TERM_BUDGET = 10_000_000
_TERMS_PER_ROOT = 80


@dataclass(frozen=True)
class OutageReport:
    """Per-layer failure probabilities psi and the cascaded outage.

    `outage[l-1]` is 1 - prod_{i<=l}(1 - psi_i): a layer-l user is in outage
    if its own layer fails or any layer below stalls the receiver.
    """

    psi: tuple[float, ...]
    outage: tuple[float, ...]


def beta_crrd(l: int, config: SystemConfig) -> float:
    """Single-copy decoding-error probability of layer l under repetition.

    Same structure as 1 - capture probability, but each upper-layer user now
    loads B copies, so the per-channel occupancy mean is lambda_i B / N:

        1 - exp( -nu N_0 / (P_l s2)
                 - sum_{i>l} (lambda_i B / N) nu P_i / (P_l + nu P_i) ).

    Reduces to 1 - capture_prob_exact(l) when B = 1.
    """
    nu = snr_gap(config.rates[config.layer(l)])
    return 1.0 - math.exp(-capture_exponent(l, config, nu, copies=config.repetition))


def _conditional_mean(lam: float, weight) -> float:
    """E[weight(M) | M >= 1] for M ~ Poisson(lam) and each weight in [0, 1],
    summed over m = 1, 2, ... until the rest of the weighted sum is known to
    be at most `_TAIL_TOL` times the part summed so far.

    Past the mode, q = lam / (m + 1) < 1 bounds the ratio of successive
    terms, so the mass beyond term m is at most P(m) q / (1 - q), and that
    bound is what the stop rule tests.  Terms are formed from logs, as
    lam * e^-lam alone underflows past lam ~ 745.  The weighted sum is
    divided by the Poisson mass summed with it, not by 1 - e^-lam: the log
    argument m ln lam - lam - ln m! rounds (about 1e-11 relative near the
    mode at lam ~ 1e4), and the ratio cancels what the terms share, so a
    weight of 1 from m = 2 on cannot give a mean above 1.

    The log-term rises on [1, floor(lam)]; the sum starts at the first m there
    reaching `_LOG_TERM_MIN`, as the terms before add exactly 0.0 and have q >= 1
    (no stop), so it costs O(sqrt(lam)) terms, not O(lam).  A lam whose series
    could pass `_TERM_BUDGET` terms is refused before any is summed.
    """
    terms = _TERMS_PER_ROOT * math.sqrt(lam)
    if terms > _TERM_BUDGET:
        raise ValueError(f"arrival_rate {lam:g} needs up to {terms:.3g} outage series terms, "
                         f"over the budget of {_TERM_BUDGET:g}")
    log_lam = math.log(lam)

    def log_term(m):
        return m * log_lam - lam - math.lgamma(m + 1)

    start = 1 + bisect.bisect_left(range(1, math.floor(lam) + 1), True,
                                   key=lambda m: log_term(m) >= _LOG_TERM_MIN)
    total = mass = 0.0
    for m in itertools.count(start):
        p = math.exp(log_term(m))
        total += weight(m) * p
        mass += p
        q = lam / (m + 1)
        if q < 1.0 and p * q / (1.0 - q) <= _TAIL_TOL * total:
            return total / mass


def psi_series(l: int, config: SystemConfig) -> float:
    """Per-layer failure probability E[alpha(M)^B | M >= 1], summed until its
    tail is bounded by `_TAIL_TOL` (1e-12) relative to it; :func:`outage`
    calls it for every layer."""
    lam = _occupied_arrival(config, l)
    beta = beta_crrd(l, config)
    N, B = config.num_channels, config.repetition

    def alpha_b(m):
        pc = collision_prob(m, N, B)
        return (pc + (1.0 - pc) * beta) ** B

    return _conditional_mean(lam, alpha_b)


def conditional_collision_moment(b: int, arrival_rate: float, num_channels: int,
                                 copies: int) -> float:
    """E[p_c(M)^b | M >= 1] by conditional-Poisson summation, to `_TAIL_TOL` relative."""
    _check_positive("arrival_rate", arrival_rate)
    if _check_count("moment order b", b, low=0) == 0:
        return 1.0
    return _conditional_mean(arrival_rate, lambda m: collision_prob(m, num_channels, copies) ** b)


def outage(config: SystemConfig) -> OutageReport:
    """Per-layer psi (Poisson series) and the error-propagation cascade.

    The receiver clears layers in order, so a layer-l user is served only
    when layers 1..l all succeed: P_out,l = 1 - prod_{i<=l}(1 - psi_i).
    Requires every layer to have a positive arrival rate (psi conditions on
    at least one user).
    """
    L = config.num_layers
    psis = tuple(psi_series(l, config) for l in range(1, L + 1))
    outs = []
    fail = 0.0  # running 1 - prod(1 - psi_i), accumulated to keep P_out,1 == psi_1 exact
    for p in psis:
        fail = fail + (1.0 - fail) * p
        outs.append(fail)
    return OutageReport(psi=psis, outage=tuple(outs))
