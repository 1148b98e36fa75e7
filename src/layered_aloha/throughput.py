"""Closed-form capture probabilities and throughput of the layered scheme.

All expressions here model single-copy transmission (one copy per user per
slot); the repetition variant is handled by :mod:`layered_aloha.outage`.
The per-layer throughput chains the channel-clear probabilities of the
layers below, which treats decoding events in different layers as
independent -- exact for the first layer and for L = 1, an approximation
for deeper layers (the simulator quantifies the gap; `lone_pair_capture`
gives the dependence exactly for one two-layer channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (SystemConfig, _check_count, _check_non_negative, _check_positive,
                    _check_probability, _layer_values, interference_variance, snr_gap)

# Reference constants for the two classic baselines, in decoded packets per
# slot per channel.  The repetition-slotted-ALOHA figure is the published
# asymptotic value for an optimized degree distribution with repetition
# capped at 16; it is a literature constant, not something computed here.
IRSA_PACKETS_PER_CHANNEL = 0.965
ALOHA_PACKETS_PER_CHANNEL = math.exp(-1.0)


@dataclass(frozen=True)
class AnalyticReport:
    """Per-layer closed-form quantities plus the total throughput.

    `layer_throughput[l]` is R_l * (prod of lower-layer rho) * eta_l using
    `capture_exact`; the total is their sum, in bits per channel use.
    `capture_bound` holds the Jensen lower bounds beside them.
    """

    capture_exact: tuple[float, ...]
    capture_bound: tuple[float, ...]
    layer_throughput: tuple[float, ...]
    total_throughput: float


def capture_exponent(l: int, config: SystemConfig, nu, bound: bool = False, copies: int = 1):
    """Minus the log of layer l's capture probability at SINR threshold nu.

    The exact form is

        nu N_0 / (P_l s2) + sum_{i>l} (lambda_i B/N) nu P_i / (P_l + nu P_i)

    with B = `copies` copies per upper-layer user, and the Jensen bound
    (`bound`) is nu / gamma_l.  `nu` is a float or an ndarray of
    thresholds; the same expression serves the scalar capture
    probabilities below, the optimizer's whole-grid evaluation and
    `outage.beta_crrd`.  ``l`` is 1-based and not checked here.
    """
    lams, powers, p_l = config.arrival_rates, config.powers, config.powers[l - 1]
    if bound:
        gamma_l = p_l * config.channel_gain_mean / interference_variance(l, config)
        return nu / gamma_l
    expo = nu * config.noise_power / (p_l * config.channel_gain_mean)
    for i in range(l, config.num_layers):
        expo += (lams[i] * copies / config.num_channels) * nu * powers[i] / (p_l + nu * powers[i])
    return expo


def capture_prob_exact(l: int, config: SystemConfig, rate: float | None = None) -> float:
    """Probability that a lone layer-l signal survives fading and upper-layer
    interference at its rate.

    Averaging the Rayleigh decoding event over the exponential interferer
    gains and the Poisson per-channel occupancy (mean lambda_i / N) gives

        exp( -nu(R_l) N_0 / (P_l s2)
             - sum_{i>l} (lambda_i/N) nu(R_l) P_i / (P_l + nu(R_l) P_i) )

    with s2 the mean channel gain.  ``l`` is 1-based; `rate` overrides the
    layer's configured rate (handy for rate searches).
    """
    i = config.layer(l)
    nu = snr_gap(config.rates[i] if rate is None else rate)
    return math.exp(-capture_exponent(l, config, nu))


def lone_pair_capture(config: SystemConfig) -> tuple[float, float]:
    """Decode probabilities of a lone pair: (P(layer 1 decodes), P(both decode)).

    A lone pair is a channel holding exactly one layer-1 and one layer-2
    user, in a two-layer single-copy system under the default SIC
    semantics.  With nu_l = nu(R_l), mean gain s and noise N_0, averaging
    over both exponential gains gives

        P(a)   = exp(-nu_1 N_0 / (P_1 s)) / (1 + nu_1 P_2 / P_1)
        P(a,b) = P(a) exp(-(nu_2 N_0 / (P_2 s)) (1 + nu_1 P_2 / P_1))

    Layer 2 is only tried once layer 1 is decoded and cancelled, so
    P(b) = P(a,b), and the covariance of the two decode events is
    P(a,b) (1 - P(a)) >= 0, not the zero a product of marginals assumes.
    Rejects any other layer count or repetition.
    """
    if config.num_layers != 2:
        raise ValueError(f"a lone pair needs exactly 2 layers, got {config.num_layers}")
    if config.repetition != 1:
        raise ValueError("a lone pair needs single-copy transmission (repetition = 1)")
    (p1, p2), s, n0 = config.powers, config.channel_gain_mean, config.noise_power
    nu1, nu2 = (snr_gap(r) for r in config.rates)
    tilt = 1.0 + nu1 * p2 / p1
    p_first = math.exp(-nu1 * n0 / (p1 * s)) / tilt
    return p_first, p_first * math.exp(-(nu2 * n0 / (p2 * s)) * tilt)


def capture_prob_lower_bound(l: int, config: SystemConfig, rate: float | None = None) -> float:
    """Jensen lower bound exp(-nu(R_l)/gamma_l) on the capture probability.

    gamma_l = P_l s2 / sigma_bar_l^2 is the layer's average SINR with the
    interference replaced by its mean.  Tight (equal to the exact value)
    for the top layer, which sees no interference.
    """
    i = config.layer(l)
    nu = snr_gap(config.rates[i] if rate is None else rate)
    return math.exp(-capture_exponent(l, config, nu, bound=True))


def eta(l: int, config: SystemConfig, capture_prob: float) -> float:
    """Expected decoded packets at layer l once all lower layers are clear:
    capture_prob * lambda_l * exp(-lambda_l / N)."""
    lam = config.arrival_rates[config.layer(l)]
    _check_probability("capture_prob", capture_prob)
    return capture_prob * lam * math.exp(-lam / config.num_channels)


def rho(l: int, config: SystemConfig, capture_prob: float) -> float:
    """Probability a given channel is clear after the layer-l pass (empty, or
    a lone decodable signal): (1 + capture_prob * lambda_l / N) * exp(-lambda_l / N)."""
    x = config.arrival_rates[config.layer(l)] / config.num_channels
    _check_probability("capture_prob", capture_prob)
    return (1.0 + capture_prob * x) * math.exp(-x)


def throughput(config: SystemConfig) -> AnalyticReport:
    """Total throughput sum_l R_l (prod_{m<l} rho_m) eta_l and its pieces,
    with the exact capture probabilities."""
    L = config.num_layers
    cap_exact = tuple(capture_prob_exact(l, config) for l in range(1, L + 1))
    cap_bound = tuple(capture_prob_lower_bound(l, config) for l in range(1, L + 1))
    etas = tuple(eta(l, config, cap_exact[l - 1]) for l in range(1, L + 1))
    rhos = tuple(rho(l, config, cap_exact[l - 1]) for l in range(1, L + 1))
    per_layer = []
    clear = 1.0  # probability all lower layers are clear at this channel
    for l in range(L):
        per_layer.append(config.rates[l] * clear * etas[l])
        clear *= rhos[l]
    return AnalyticReport(
        capture_exact=cap_exact,
        capture_bound=cap_bound,
        layer_throughput=tuple(per_layer),
        total_throughput=math.fsum(per_layer),
    )


def sla_layer_contributions(num_channels: int, tau, rate: float, gamma: float) -> tuple[float, ...]:
    """Per-layer terms of the common-rate decoded-packet lower bound.

    Layer l contributes N * (prod_{m<l} rho_m) * phi * tau_l * exp(-tau_l)
    expected decoded packets, with phi = exp(-nu(rate)/gamma) and
    rho_m = (1 + phi tau_m) exp(-tau_m).
    """
    _check_count("num_channels", num_channels)
    taus = _layer_values("tau", tau, _check_non_negative)
    phi = math.exp(-snr_gap(rate) / _check_positive("gamma", gamma))
    contribs = []
    clear = 1.0
    for t in taus:
        contribs.append(num_channels * clear * phi * t * math.exp(-t))
        clear *= (1.0 + phi * t) * math.exp(-t)
    return tuple(contribs)


def sla_lower_bound(num_channels: int, tau, rate: float, gamma: float) -> float:
    """Lower bound on expected decoded packets per slot with a common rate.

    With phi = exp(-nu(rate)/gamma) held fixed and normalized arrivals
    tau_l = lambda_l / N, the bound is
    N * sum_l (prod_{m<l} rho_m) * phi * tau_l * exp(-tau_l) with
    rho_m = (1 + phi tau_m) exp(-tau_m).  Scales linearly in N by
    construction (exactly: every term carries the explicit N factor).
    """
    return math.fsum(sla_layer_contributions(num_channels, tau, rate, gamma))


def baseline_aloha_max(num_channels: int) -> float:
    """Peak expected decoded packets of plain multichannel slotted ALOHA: N/e."""
    return ALOHA_PACKETS_PER_CHANNEL * _check_count("num_channels", num_channels)


def baseline_irsa(num_channels: int) -> float:
    """Asymptotic decoded packets of optimized irregular repetition slotted
    ALOHA (literature value 0.965 per channel, repetition capped at 16)."""
    return IRSA_PACKETS_PER_CHANNEL * _check_count("num_channels", num_channels)
