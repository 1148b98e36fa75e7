"""Two effects the closed forms gloss over, measured directly.

First: for a channel carrying exactly one user in each of two layers (a
lone pair), the two decode events are not independent: the strong layer
must be decoded and cancelled before the weak one is even attempted, and
the weak user's gain appears in both SINRs.  `lone_pair_capture` gives
the joint decode probability exactly; a count of the reference decoder
over simulated slots sits next to it, and both are set against the
product of the marginals.

Second: the sweep semantics at a stalled channel.  By default a channel
that saw a collision or an undecodable lone signal stays stopped for all
deeper layers; the alternative semantics reopens it when every offending
copy was cancelled through a duplicate decoded elsewhere.  The rule is
part of the system: a config's `reopen_cleared_channels` selects it.  The
choice only matters under repetition, and the gap quantifies it.
"""

from dataclasses import replace

import numpy as np

from layered_aloha import (
    DECODED,
    db_to_linear,
    design_config,
    estimate_outage,
    lone_pair_capture,
    optimize_rates,
    sample_slots,
    sic_decode,
)

# -- decode-event dependence on a shared channel ------------------------------

base = design_config(2, 10, 10.0, 0.0, db_to_linear(3.0))
cfg = base.with_rates(optimize_rates(base).optimal_rates)
p_first, p_both = lone_pair_capture(cfg)  # P(layer 2) = P(both)

# the reference decoder over 20 000 of the estimators' slots: lone pairs,
# and of those the channels where layer 1, layer 2 and both decoded
tally = np.zeros(4, dtype=np.int64)
for slot in sample_slots(cfg, 20_000, seed=7):
    outcomes = sic_decode(slot, cfg).outcomes
    occ = [np.bincount(ch[:, 0], minlength=cfg.num_channels) for ch in slot.channels]
    pair = (occ[0] == 1) & (occ[1] == 1)
    a, b = (np.isin(np.arange(cfg.num_channels), ch[out == DECODED, 0]) & pair
            for ch, out in zip(slot.channels, outcomes))
    tally += (pair.sum(), a.sum(), b.sum(), (a & b).sum())
lone = int(tally[0])
f_first, f_second, f_both = tally[1:] / lone


def se(p):
    return np.sqrt(p * (1 - p) / lone)


print("two layers, 10 channels, arrival 10/layer, 3 dB, optimized rates")
print(f"lone pairs (one user in each layer at one channel) in 20 000 slots: {lone}")
print("                          closed form   sic_decode count (se)")
print(f"P(layer 1)                {p_first:11.4f}   {f_first:11.4f} ({se(f_first):.4f})")
print(f"P(both decode)            {p_both:11.4f}   {f_both:11.4f} ({se(f_both):.4f})")
print(f"P(layer 1) * P(layer 2)   {p_first * p_both:11.4f}   {f_first * f_second:11.4f}")
print(f"covariance of the events  {p_both * (1 - p_first):+11.4f}   "
      f"{f_both - f_first * f_second:+11.4f}")
print("layer 2 is only tried once layer 1 is cancelled, so P(layer 2) = P(both);")
print("the closed-form throughput multiplies marginals, so it misses this\n")

# -- stalled-channel semantics under repetition --------------------------------

crrd = design_config(3, 60, 3.0, 1.0, 10.0, repetition=4)
strict = estimate_outage(crrd, 100_000, seed=11)
reopen = estimate_outage(replace(crrd, reopen_cleared_channels=True), 100_000, seed=11)

print("3 layers, 60 channels, arrival 3/layer, rate 1, 10 dB, 4 copies")
print("layer  P_out (stalled stays stopped)  P_out (cancellation reopens)")
for l, (a, b) in enumerate(zip(strict.per_layer, reopen.per_layer), start=1):
    print(f"{l:>5}  {a.value:12.5f} ({a.stderr:.5f})      {b.value:12.5f} ({b.stderr:.5f})")
print("reopening only helps deeper layers; layer 1 never waits on anyone")
