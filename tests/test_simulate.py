import importlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import layered_aloha
from layered_aloha import (
    BLOCKED,
    COLLIDED,
    DECODED,
    SINR_FAILURE,
    SlotRealization,
    SystemConfig,
    conditional_collision_moment,
    db_to_linear,
    design_config,
    estimate_outage,
    estimate_throughput,
    lone_pair_capture,
    optimize_rates,
    sample_slots,
    sic_decode,
    throughput,
)
from layered_aloha import simulate
from layered_aloha.simulate import (
    BATCH_SLOTS,
    _decode_batch,
    _draw_channels,
    _sample_batch,
)


def _slot(counts, channels, gains):
    return SlotRealization(
        counts=np.asarray(counts, dtype=np.int64),
        channels=[np.asarray(c, dtype=np.int64).reshape(len(c), -1) if len(c) else
                  np.zeros((0, 1), dtype=np.int64) for c in channels],
        gains=[np.asarray(g, dtype=np.float64).reshape(len(g), -1) if len(g) else
               np.zeros((0, 1), dtype=np.float64) for g in gains],
    )


def _slot_arrays(slot):
    return [slot.counts, *slot.channels, *slot.gains]


def _same_slot(x, y):
    return all(np.array_equal(p, q) for p, q in zip(_slot_arrays(x), _slot_arrays(y)))


def test_sample_slot_deterministic():
    cfg = design_config(3, 10, 7.0, 1.0, 2.0, repetition=2)
    a = sample_slots(cfg, 7, 99)
    b = sample_slots(cfg, 7, 99)
    assert all(_same_slot(x, y) for x, y in zip(a, b))
    assert not _same_slot(a[5], a[6])
    assert a[0] == a[0] and a[0] != b[0]  # slots compare by identity


_GOOD_SLOT = {"counts": np.array([1, 1]), "channels": [np.array([[0]]), np.array([[1]])],
              "gains": [np.ones((1, 1)), np.full((1, 1), 2.0)]}


@pytest.mark.parametrize("bad, message", [
    ({"channels": [np.array([[0.0]]), np.array([[1.0]])]}, "slot channels of layer 1 "),
    ({"gains": [np.ones((1, 1)), np.ones((1, 2))]}, "slot gains of layer 2 "),
    ({k: v[:1] for k, v in _GOOD_SLOT.items()}, "slot counts has 1 layers"),
], ids=["float-channels", "gain-shape", "layer-short"])
def test_bad_slot_is_refused_naming_its_field(bad, message):
    cfg = SystemConfig(4, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0))
    assert sic_decode(SlotRealization(**_GOOD_SLOT), cfg).decoded_per_layer == (1, 1)
    with pytest.raises(ValueError, match=message):
        sic_decode(SlotRealization(**(_GOOD_SLOT | bad)), cfg)


def test_sample_slot_shapes_and_distinct_channels():
    cfg = design_config(2, 12, 6.0, 1.0, 2.0, repetition=4)
    for slot in sample_slots(cfg, 50, 3):
        for l in range(2):
            m = slot.counts[l]
            assert slot.channels[l].shape == (m, 4)
            assert slot.gains[l].shape == (m, 4)
            for row in slot.channels[l]:
                assert len(set(row.tolist())) == 4  # distinct channels per user
            assert (slot.gains[l] > 0).all()


def test_sample_slot_poisson_moments():
    cfg = design_config(2, 10, [10.0, 3.0], 1.0, 2.0)
    n = 100_000
    totals = np.zeros(2)
    for slot in sample_slots(cfg, n, 12):
        totals += slot.counts
    for lam, tot in zip((10.0, 3.0), totals):
        assert abs(tot / n - lam) < 4.0 * math.sqrt(lam / n)


def test_batch_sampler_poisson_moments_and_gain_mean():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    n = 1_000_000
    total = 0.0
    gain_sum = 0.0
    gain_n = 0
    for bi in range(0, (n + BATCH_SLOTS - 1) // BATCH_SLOTS):
        size = min(BATCH_SLOTS, n - bi * BATCH_SLOTS)
        counts, ch, rng = _sample_batch(cfg, 5, bi, size)
        gains = rng.exponential(scale=cfg.channel_gain_mean, size=ch.shape)
        total += counts.sum()
        gain_sum += gains.sum()
        gain_n += gains.size
    assert abs(total / n - 10.0) < 4.0 * math.sqrt(10.0 / n)
    assert abs(gain_sum / gain_n - 1.0) < 4.0 / math.sqrt(gain_n)


def test_batch_sampler_channel_uniformity():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0, repetition=3)
    counts, ch, _ = _sample_batch(cfg, 8, 0, 4096)
    freq = np.bincount(ch.ravel(), minlength=10)
    expect = ch.size / 10
    assert np.all(np.abs(freq - expect) < 5.0 * math.sqrt(expect))


@pytest.mark.parametrize("copies", [1, 2, 3, 6])
def test_draw_copies_subsets_exactly_uniform(copies):
    # every B-subset of N channels must be equally likely: chi-square
    # goodness of fit over all C(N, B) subsets, scipy as the oracle
    n_channels, users = 6, 60_000
    ch = _draw_channels(np.random.default_rng(17), users, n_channels, copies)
    subsets = list(itertools.combinations(range(n_channels), copies))
    index = {c: i for i, c in enumerate(subsets)}
    freq = np.bincount([index[tuple(row)] for row in np.sort(ch, axis=1).tolist()],
                       minlength=len(subsets))
    if len(subsets) == 1:  # B == N: every row holds all channels
        assert freq.tolist() == [users]
    else:
        assert stats.chisquare(freq).pvalue > 1e-3


def test_draw_copies_single_copy_is_one_integers_draw():
    # B = 1 keeps the contract-1 sample path: one integers(0, N) per user
    drawn = np.random.default_rng(4)
    ch, gains = _draw_channels(drawn, 1000, 60, 1), drawn.exponential(scale=2.0, size=(1000, 1))
    rng = np.random.default_rng(4)
    assert np.array_equal(ch[:, 0], rng.integers(0, 60, size=1000))
    assert np.array_equal(gains, rng.exponential(scale=2.0, size=(1000, 1)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 300),
    st.integers(0, 2 ** 32 - 1),
)
@example((6, 6), 0, 0)
@example((6, 6), 50, 1)
@example((1, 1), 50, 2)
def test_draw_copies_rows_are_distinct_channels(shape, users, seed):
    n_channels, copies = shape
    ch = _draw_channels(np.random.default_rng(seed), users, n_channels, copies)
    assert ch.shape == (users, copies)
    assert ch.dtype == np.int32
    assert ((ch >= 0) & (ch < n_channels)).all()
    assert (np.diff(np.sort(ch, axis=1), axis=1) > 0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 31), st.integers(0, 64), st.integers(0, 2 ** 64 - 1))
@example(2 ** 31, 64, 0)
@example(2 ** 31 - 1, 64, 1)
@example(1, 64, 2)
def test_int32_draw_is_the_int64_draw(high, size, seed):
    # below 2^31 the sampler's int32 draws are the contract's int64 draws,
    # and they leave the Philox stream at the same place
    a, b = simulate._batch_rng(seed, 3), simulate._batch_rng(seed, 3)
    assert np.array_equal(a.integers(0, high, size=size, dtype=np.int32),
                          b.integers(0, high, size=size))
    assert np.array_equal(a.integers(0, 7, size=3), b.integers(0, 7, size=3))
    assert a.random() == b.random()


def test_draw_channels_falls_back_to_int64_past_2_31_channels():
    # an int32 draw cannot take these ranges (numpy rejects the bound)
    n_channels, users, copies = 2 ** 31 + 10, 1000, 3
    ch = simulate._draw_channels(np.random.default_rng(6), users, n_channels, copies)
    assert ch.dtype == np.int64 and ch.shape == (users, copies)
    assert ((ch >= 0) & (ch < n_channels)).all()
    assert (np.diff(np.sort(ch, axis=1), axis=1) > 0).all()


@pytest.mark.parametrize("copies", [1, 4, 12])
def test_draw_channels_peak_is_the_int32_rows_plus_one_column(copies):
    # the (B, T) int32 result, one int32 draw and two boolean buffers: no
    # per-pair temporaries and no second copy-sized array
    users = 20_000
    rng = np.random.default_rng(8)
    tracemalloc.start()
    try:
        ch = simulate._draw_channels(rng, users, 60, copies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ch.shape == (users, copies)
    assert peak <= users * (4 * copies + 8) + 4096


def test_draw_copies_memory_scales_with_copies_not_channels():
    # no N-wide array may be allocated: peak stays a small multiple of the
    # (users, B) output even with a million channels
    users, n_channels, copies = 10_000, 1_000_000, 4
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        _draw_channels(rng, users, n_channels, copies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * users * copies * 8


def _shuffle_copies(slot, rng):
    """The same slot with each user's copies (channel and gain) reordered."""
    channels, gains = [], []
    for ch, g in zip(slot.channels, slot.gains):
        order = np.argsort(rng.random(ch.shape), axis=1)
        channels.append(np.take_along_axis(ch, order, axis=1))
        gains.append(np.take_along_axis(g, order, axis=1))
    return SlotRealization(counts=slot.counts, channels=channels, gains=gains)


def test_decoding_ignores_copy_order():
    # the sampler's column order is not uniform; decoding must not care
    rng = np.random.default_rng(23)
    configs = [
        design_config(3, 8, 4.0, 1.0, 4.0, repetition=3),
        design_config(2, 12, 5.0, 0.8, 10.0, repetition=4),
    ]
    for k, cfg in enumerate(configs):
        slots = sample_slots(cfg, 80, 70 + k)
        shuffled = [_shuffle_copies(s, rng) for s in slots]
        for reopen in (False, True):
            sem = replace(cfg, reopen_cleared_channels=reopen)
            for a, b in zip(slots, shuffled):
                ra, rb = sic_decode(a, sem), sic_decode(b, sem)
                assert all(np.array_equal(x, y) for x, y in zip(ra.outcomes, rb.outcomes))
                assert ra.decoded_per_layer == rb.decoded_per_layer
                assert np.array_equal(ra.residual, rb.residual)
                assert np.array_equal(ra.stop_layer, rb.stop_layer)
            assert np.array_equal(_batch_decode_counts(slots, sem),
                                  _batch_decode_counts(shuffled, sem))


def test_sic_decode_hand_trace():
    # channel 0 carries one user in each layer; the strong layer decodes at
    # SINR 60/3 = 20, is cancelled, then the weak layer decodes at SNR 2.
    cfg = SystemConfig(2, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0))
    slot = _slot([1, 1], [[0], [0]], [[10.0], [1.0]])
    rep = sic_decode(slot, cfg)
    assert rep.decoded_per_layer == (1, 1)
    assert rep.outcomes[0][0] == DECODED
    assert rep.outcomes[1][0] == DECODED
    assert rep.stop_layer.tolist() == [2, 2]
    assert rep.residual.sum() == 0


def test_sic_decode_collision_blocks_channel():
    cfg = SystemConfig(2, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0))
    slot = _slot([2, 1], [[0, 0], [0]], [[10.0, 9.0], [5.0]])
    rep = sic_decode(slot, cfg)
    assert rep.decoded_per_layer == (0, 0)
    assert rep.outcomes[0].tolist() == [COLLIDED, COLLIDED]
    assert rep.outcomes[1][0] == BLOCKED
    assert rep.stop_layer.tolist() == [0, 2]
    assert rep.residual[0, 0] == 2  # colliders keep their copies


def test_sic_decode_sinr_failure_blocks_channel():
    cfg = SystemConfig(2, (1.0, 1.0), (6.0, 2.0), (3.0, 1.0))
    # nu(3) = 7; 6 * 1.0 < 7 * 1.0 so the lone layer-1 signal fails
    slot = _slot([1, 1], [[0], [0]], [[1.0], [50.0]])
    rep = sic_decode(slot, cfg)
    assert rep.outcomes[0][0] == SINR_FAILURE
    assert rep.outcomes[1][0] == BLOCKED
    assert rep.stop_layer.tolist() == [0, 2]


def test_sic_decode_empty_slot():
    cfg = design_config(3, 5, 1.0, 1.0, 2.0)
    slot = _slot([0, 0, 0], [[], [], []], [[], [], []])
    rep = sic_decode(slot, cfg)
    assert rep.decoded_per_layer == (0, 0, 0)
    assert rep.stop_layer.tolist() == [3] * 5
    assert rep.residual.sum() == 0


@pytest.mark.parametrize("reopen", [False, True])
def test_sic_decode_an_empty_middle_layer_stalls_nothing(reopen):
    # layer 1 decodes on channel 0 and collides on channel 1; layer 2 is
    # empty; layer 3 decodes on channel 2 and is blocked on channel 1
    cfg = SystemConfig(4, (1.0,) * 3, (100.0, 10.0, 1.0), (0.0,) * 3,
                       reopen_cleared_channels=reopen)
    slot = _slot([3, 0, 2], [[0, 1, 1], [], [1, 2]], [[1.0] * 3, [], [1.0] * 2])
    rep = sic_decode(slot, cfg)
    assert rep.outcomes[1].dtype == np.int8 and rep.outcomes[1].shape == (0,)
    assert rep.outcomes[2].tolist() == [BLOCKED, DECODED]
    assert rep.decoded_per_layer == (1, 0, 1)
    assert rep.residual.tolist() == [[0, 2, 0, 0], [0] * 4, [0, 1, 0, 0]]
    assert rep.stop_layer.tolist() == [3, 0, 3, 3]


def test_interference_uses_upper_layer_power():
    # one layer-1 user, one layer-2 interferer on the same channel with a
    # known gain: decoding flips exactly at the SINR threshold
    base = SystemConfig(2, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0))
    # interference = 2*g2 + 1; success iff 6*g1 >= 1*(2*g2 + 1)
    ok = _slot([1, 1], [[0], [0]], [[1.0], [2.4]])  # 6 >= 5.8
    rep = sic_decode(ok, base)
    assert rep.outcomes[0][0] == DECODED
    bad = _slot([1, 1], [[0], [0]], [[1.0], [2.6]])  # 6 < 6.2
    rep = sic_decode(bad, base)
    assert rep.outcomes[0][0] == SINR_FAILURE


def test_conservation_and_decoded_implication():
    cfg = design_config(3, 8, 5.0, 0.8, 2.0, repetition=2)
    for slot in sample_slots(cfg, 120, 21):
        rep = sic_decode(slot, cfg)
        for l in range(3):
            out = rep.outcomes[l]
            assert out.shape == (slot.counts[l],)
            assert np.isin(out, [DECODED, COLLIDED, SINR_FAILURE, BLOCKED]).all()
            assert (out == DECODED).sum() == rep.decoded_per_layer[l]
            # a decoded user owns a lone copy on a channel cleared past its layer
            occ = np.bincount(slot.channels[l].ravel(), minlength=8)
            for u in np.nonzero(out == DECODED)[0]:
                chans = slot.channels[l][u]
                assert any(
                    occ[q] == 1 and rep.stop_layer[q] >= l + 1 for q in chans
                )


def _inject_user(slot, layer, num_channels, copies, rng):
    chans = rng.choice(num_channels, size=copies, replace=False)
    gain = rng.exponential(1.0, size=copies)
    channels = [c.copy() for c in slot.channels]
    gains = [g.copy() for g in slot.gains]
    channels[layer] = np.vstack([channels[layer], chans[None, :]])
    gains[layer] = np.vstack([gains[layer], gain[None, :]])
    counts = slot.counts.copy()
    counts[layer] += 1
    return SlotRealization(counts=counts, channels=channels, gains=gains)


def test_monotone_blocking_under_injection():
    # adding one user anywhere never lets any channel survive more layers
    rng = np.random.default_rng(13)
    cfg = design_config(3, 8, 4.0, 1.0, 2.0, repetition=2)
    for slot in sample_slots(cfg, 100, 31):
        before = sic_decode(slot, cfg).stop_layer
        layer = int(rng.integers(0, 3))
        bigger = _inject_user(slot, layer, 8, 2, rng)
        after = sic_decode(bigger, cfg).stop_layer
        assert (after <= before).all()


def test_reopen_semantics_difference():
    # layer-1 user decodes on channel 0 but leaves a failed copy on channel
    # 1; the layer-2 user there is stuck unless cancellation reopens it.
    cfg = SystemConfig(3, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0), repetition=2)
    slot = SlotRealization(
        counts=np.array([1, 1]),
        channels=[np.array([[0, 1]]), np.array([[1, 2]])],
        gains=[np.array([[10.0, 0.01]]), np.array([[10.0, 0.001]])],
    )
    default = sic_decode(slot, cfg)
    assert default.decoded_per_layer == (1, 0)
    assert default.outcomes[1][0] == SINR_FAILURE  # its channel-2 copy failed
    reopened = sic_decode(slot, replace(cfg, reopen_cleared_channels=True))
    assert reopened.decoded_per_layer == (1, 1)


class _StoredGains:
    """Stands in for a batch generator: hands out copies of stored gains, in
    row order, as its standard exponential draws."""

    def __init__(self, gains):
        self.gains, self.next = gains, 0

    def standard_exponential(self, size):
        out = self.gains[self.next: self.next + size[0]].copy()
        assert out.shape == tuple(size)
        self.next += size[0]
        return out


class _GainSpy:
    """Wraps a batch generator and keeps a copy of every standard exponential
    block drawn from it (the decoder scales its blocks in place)."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def standard_exponential(self, size):
        out = self.rng.standard_exponential(size=size)
        self.draws.append(out.copy())
        return out


def _batch_from_slots(slots):
    """Pack sampled slots into the batched-decode layout of `_sample_batch`,
    with a generator stand-in that yields the slots' own gains."""
    L = slots[0].counts.shape[0]
    counts = np.stack([s.counts for s in slots])
    ch_parts, gain_parts = [], []
    for s in slots:
        for l in range(L):
            if s.channels[l].size:
                ch_parts.append(s.channels[l])
                gain_parts.append(s.gains[l])
    B = slots[0].channels[0].shape[1] if slots[0].channels else 1
    ch = np.concatenate(ch_parts) if ch_parts else np.zeros((0, B), dtype=np.int64)
    gains = np.concatenate(gain_parts) if gain_parts else np.zeros((0, B))
    return counts, ch, _StoredGains(gains)


def _batch_decode_counts(slots, cfg):
    # the decoder scales its standard draws by the gain mean, which leaves
    # the slots' gains exact only at mean 1
    assert cfg.channel_gain_mean == 1.0
    return _decode_batch(_batch_from_slots(slots), cfg)


def test_batch_decode_matches_per_slot_decoder():
    # two decoder implementations (readable per-slot vs vectorized batch)
    # must produce identical decoded counts on identical realizations
    configs = [
        design_config(3, 10, 8.0, 1.2, 2.0),
        design_config(3, 20, 3.0, 1.0, 10.0, repetition=4),
        design_config(2, 5, 4.0, 0.8, 4.0, repetition=2),
        design_config(1, 10, 10.0, 1.0, 2.0),
        # at rate 1023 nu times a power overflows: the threshold is inf, with no warning
        design_config(2, 10, 3.0, 1023.0, 10.0),
    ]
    for k, cfg in enumerate(configs):
        slots = sample_slots(cfg, 60, 1000 + k)
        for reopen in (False, True):
            sem = replace(cfg, reopen_cleared_channels=reopen)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                per_slot = np.array(
                    [sic_decode(s, sem).decoded_per_layer for s in slots], dtype=float
                )
                batched = _batch_decode_counts(slots, sem)
            assert np.array_equal(per_slot, batched), (k, reopen)
    assert not per_slot.any()  # the last, rate-1023 system decodes nothing


# an exact SINR tie on channel 0: layer 1 sees 6 * 1.0 == nu(1) * (2 * 2.5 + 1)
_TIE_CONFIG = SystemConfig(2, (1.0, 1.0), (6.0, 2.0), (1.0, 1.0))
_TIE_SLOT = _slot([1, 1], [[0], [0]], [[1.0], [2.5]])


# a one-ulp tie: layer 1's gain equals (noise + g3) + g2, while the
# decoders' (g3 + g2) + noise rounds one ulp higher, so layer 1 fails
_ULP_TIE_CONFIG = SystemConfig(1, (1.0,) * 3, (1.0,) * 3, (1.0,) * 3)
_ULP_TIE_SLOT = _slot([1, 1, 1], [[0], [0], [0]],
                      [[1.9449261518806789], [0.49543508709194095], [0.4494910647887381]])


def test_exact_sinr_tie_decodes():
    for reopen in (False, True):
        sem = replace(_TIE_CONFIG, reopen_cleared_channels=reopen)
        assert sic_decode(_TIE_SLOT, sem).decoded_per_layer == (1, 1)


@st.composite
def _small_batches(draw):
    """A config with L 1-5, N 1-12, B 1..N and a few slots sampled from it."""
    L = draw(st.integers(1, 5))
    N = draw(st.integers(1, 12))
    B = draw(st.integers(1, N))
    arrival = draw(st.one_of(
        st.just(0.0),
        st.floats(20.0, 80.0),
        st.lists(st.floats(0.0, 40.0), min_size=L, max_size=L),
    ))
    rate = draw(st.one_of(st.floats(0.0, 6.0), st.lists(st.floats(0.0, 6.0), min_size=L, max_size=L)))
    cfg = design_config(L, N, arrival, rate, db_to_linear(draw(st.floats(-5.0, 25.0))),
                        repetition=B)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return cfg, sample_slots(cfg, draw(st.integers(1, 12)), seed)


@settings(max_examples=150, deadline=None)
@given(_small_batches(), st.booleans())
@example((_TIE_CONFIG, [_TIE_SLOT]), False)
@example((_TIE_CONFIG, [_TIE_SLOT]), True)
@example((_ULP_TIE_CONFIG, [_ULP_TIE_SLOT]), False)
@example((_ULP_TIE_CONFIG, [_ULP_TIE_SLOT]), True)
def test_batch_decode_matches_per_slot_oracle(case, reopen):
    cfg, slots = case
    cfg = replace(cfg, reopen_cleared_channels=reopen)
    expected = np.array([sic_decode(s, cfg).decoded_per_layer for s in slots], dtype=float)
    assert np.array_equal(_batch_decode_counts(slots, cfg), expected)


@st.composite
def _random_systems(draw):
    """L 1-4, N 1-12, B 1..N, and per-layer arrivals, powers and rates, gain mean and noise."""
    L = draw(st.integers(1, 4))
    N = draw(st.integers(1, 12))

    def per_layer(lo, hi):
        return tuple(draw(st.lists(st.floats(lo, hi), min_size=L, max_size=L)))

    return SystemConfig(N, per_layer(0.0, 30.0), per_layer(0.1, 100.0), per_layer(0.0, 6.0),
                        channel_gain_mean=draw(st.floats(0.1, 10.0)),
                        noise_power=draw(st.floats(0.01, 10.0)),
                        repetition=draw(st.integers(1, N)))


@settings(max_examples=100, deadline=None)
@given(_random_systems(), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_reopen_rule_decodes_everyone_the_default_rule_does(cfg, num_slots, seed):
    # a channel open under the default rule holds only empty cells or decoded
    # lone copies of lower layers; by induction over the layers those users
    # decode under the reopen rule too, so their copies cancel and it is open there
    reopen = replace(cfg, reopen_cleared_channels=True)
    for slot in sample_slots(cfg, num_slots, seed):
        for plain, reopened in zip(sic_decode(slot, cfg).outcomes, sic_decode(slot, reopen).outcomes):
            assert (reopened[plain == DECODED] == DECODED).all()
    plain, reopened = (_decode_batch(_sample_batch(c, seed, 0, 256), c) for c in (cfg, reopen))
    assert (reopened >= plain).all()


def _tile_configs():
    """The outage-vs-copies B = 4 point and the throughput-vs-arrival
    lambda = 14 point (rates optimized as the scenario does)."""
    base = design_config(3, 10, 14.0, 0.0, db_to_linear(3.0))
    return [
        design_config(3, 60, 3.0, 1.0, db_to_linear(10.0), repetition=4),
        base.with_rates(optimize_rates(base).optimal_rates),
    ]


@pytest.mark.parametrize("reopen", [False, True])
def test_batch_decode_independent_of_tile_size(monkeypatch, reopen):
    # slots never share a cell, the gains stream through in row order and
    # every tile sets each of its threshold rows, so tiles of one slot, of 7
    # slots (which leaves a short last tile of one slot) and of the whole
    # batch must agree exactly.  Each budget sets the tile in turn,
    # the other lifted out of the way, at the B = 4 point (180 cells and 36
    # copies per slot) and the lambda = 14 point (30 cells, 42 copies)
    for k, cfg in enumerate(_tile_configs()):
        cfg = replace(cfg, reopen_cleared_channels=reopen)
        per_slot = {
            "_TILE_CELLS": cfg.num_layers * cfg.num_channels,
            "_TILE_COPIES": cfg.repetition * sum(cfg.arrival_rates),
        }
        results = []
        for budget, other in (("_TILE_CELLS", "_TILE_COPIES"), ("_TILE_COPIES", "_TILE_CELLS")):
            monkeypatch.setattr(simulate, other, 10 ** 12)
            for tile_slots in (1, 7, BATCH_SLOTS):
                monkeypatch.setattr(simulate, budget, tile_slots * per_slot[budget])
                counts, ch, rng = _sample_batch(cfg, 40 + k, 0, BATCH_SLOTS)
                spy = _GainSpy(rng)
                results.append(_decode_batch((counts, ch, spy), cfg))
                assert len(spy.draws) == -(-BATCH_SLOTS // tile_slots), (budget, tile_slots)
        assert results[0].sum() > 0
        for other in results[1:]:
            assert np.array_equal(results[0], other)


@pytest.mark.parametrize("copies", [1, 4, 12])
def test_tile_gain_draws_equal_one_shot_draw(copies):
    # the decoder's per-tile standard exponential blocks, concatenated and
    # scaled by the gain mean, are the (T, B) gains drawn in one
    # exponential(scale=mean) call from the same batch substream after the
    # channels
    for mean in (1.0, 1.7):
        cfg = design_config(3, 60, 3.0, 1.0, db_to_linear(10.0), channel_gain_mean=mean,
                            repetition=copies)
        counts, ch, rng = _sample_batch(cfg, 9, 2, BATCH_SLOTS)
        spy = _GainSpy(rng)
        _decode_batch((counts, ch, spy), cfg)
        assert len(spy.draws) > 1

        one_shot = simulate._batch_rng(9, 2)
        assert np.array_equal(one_shot.poisson(cfg.arrival_rates, size=counts.shape), counts)
        ch_ref = _draw_channels(one_shot, int(counts.sum()), 60, copies)
        assert np.array_equal(ch, ch_ref)
        gains_ref = one_shot.exponential(scale=mean, size=ch_ref.shape)
        assert (np.concatenate(spy.draws) * mean).tobytes() == gains_ref.tobytes()
        assert one_shot.random() == rng.random()  # both streams end at the same place


def test_batch_decode_memory_scales_with_tile_not_batch():
    # with N = 200 000 a tile is one slot: the peak is a few (L, N) rows,
    # far below the S x N arrays (77 MB each here) of a batch-wide sweep
    L, N, S = 2, 200_000, 48
    cfg = design_config(L, N, 2.0, 1.0, 10.0, repetition=2)
    batch = _sample_batch(cfg, 3, 0, S)
    copies = batch[1].size
    tracemalloc.start()
    try:
        decoded = _decode_batch(batch, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded.sum() > 0
    assert peak <= 5 * (L * N + copies) * 8


@pytest.mark.parametrize("reopen", [False, True])
def test_batch_worker_holds_one_copy_sized_array(reopen):
    # the (T, B) channel draw is the only array as long as the batch's
    # copies; beside it sit the (S, L) counts and decoded counts, the slot
    # offsets, and a fixed number of tile-sized temporaries.  Points: the
    # lambda = 14 throughput-vs-arrival point and the B = 12
    # outage-vs-copies point
    points = [
        (simulate._throughput_stat, _tile_configs()[1]),
        (simulate._outage_stat, design_config(3, 60, 3.0, 1.0, db_to_linear(10.0), repetition=12)),
    ]
    tile_bytes = simulate._TILE_CELLS * 8
    for stat, cfg in points:
        cfg = replace(cfg, reopen_cleared_channels=reopen)
        channels = _sample_batch(cfg, 5, 0, BATCH_SLOTS)[1]
        batch_bytes = (2 * cfg.num_layers + 1) * BATCH_SLOTS * 8
        tracemalloc.start()
        try:
            simulate._batch_worker((stat, cfg, 5, 0, BATCH_SLOTS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= channels.nbytes + batch_bytes + 16 * tile_bytes, stat.__name__


def test_batch_worker_peak_is_about_four_bytes_per_copy():
    # one 4096-slot batch at N = 400, lambda = 40, B = 30 (14.7M copies):
    # the int32 (B, T) channel draw, 4 bytes per copy, dominates the peak
    cfg = design_config(3, 400, 40.0, 1.0, db_to_linear(10.0), repetition=30)
    copies = _sample_batch(cfg, 5, 0, BATCH_SLOTS)[1].size
    tracemalloc.start()
    try:
        simulate._batch_worker((simulate._outage_stat, cfg, 5, 0, BATCH_SLOTS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * copies


def test_estimators_deterministic_across_workers():
    cfg = design_config(2, 10, 5.0, 1.0, 2.0)
    crrd = design_config(3, 20, 3.0, 1.0, 10.0, repetition=4)
    n = 2 * BATCH_SLOTS + 771
    t1 = estimate_throughput(cfg, n, 50, workers=1)
    t4 = estimate_throughput(cfg, n, 50, workers=4)
    t8 = estimate_throughput(cfg, n, 50, workers=8)
    assert t1 == t4 == t8
    for sem in (crrd, replace(crrd, reopen_cleared_channels=True)):
        o1 = estimate_outage(sem, n, 51, workers=1)
        assert o1 == estimate_outage(sem, n, 51, workers=2) == estimate_outage(sem, n, 51, workers=4)


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    started = []

    class StandInPool:  # records the pool size, runs the tasks here, starts no process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(simulate, "multiprocessing", type("StandIn", (), {"Pool": StandInPool}))
    cfg = design_config(1, 4, 0.5, 1.0, 2.0)
    serial = estimate_throughput(cfg, 3 * BATCH_SLOTS, 3)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    assert estimate_throughput(cfg, 3 * BATCH_SLOTS, 3, workers=10 ** 6) == serial
    assert started == [2]
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)  # unknown: run serially
    assert estimate_throughput(cfg, 3 * BATCH_SLOTS, 3, workers=10 ** 6) == serial
    assert started == [2]
    with pytest.raises(ValueError, match="workers must be >= 1"):
        estimate_throughput(cfg, 3 * BATCH_SLOTS, 3, workers=0)


def test_serial_runs_leave_multiprocessing_unloaded():
    # only the pool branch of `_map_batches` imports it
    code = ("import sys\n"
            "from layered_aloha import cli, design_config, estimate_throughput\n"
            "estimate_throughput(design_config(2, 10, 5.0, 1.0, 2.0), 100, 1)\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n")
    _run_in_a_fresh_interpreter(code)


def _run_in_a_fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_the_package_and_its_analytic_commands_leave_numpy_unloaded():
    # only the simulator and the optimizer's grid import numpy, on first use
    code = textwrap.dedent('''\
        import contextlib, io, sys
        import layered_aloha, layered_aloha.cli
        from layered_aloha.cli import build_parser, main
        system = ["--layers", "3", "--channels", "60", "--arrival", "3", "--gamma-db", "10"]
        build_parser().parse_args(["outage", *system, "--slots", "100"])
        assert "numpy" not in sys.modules, "numpy was imported at start-up"

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return main(argv)

        for argv, code in [(["outage", *system, "--rate", "1", "--copies", "4"], 0),
                           (["sweep", "--var", "copies", "--grid", "1,2", *system], 0),
                           (["scenario", "--list"], 0),
                           (["scenario", "compare-irsa"], 0),
                           (["outage", *system, "--channels", "abc"], 2)]:
            assert run(argv) == code, argv
            assert "numpy" not in sys.modules, argv
        assert run(["outage", *system, "--rate", "1", "--slots", "100"]) == 0
        assert "numpy" in sys.modules, "the simulated outage ran without numpy"
    ''')
    _run_in_a_fresh_interpreter(code)


def test_the_package_and_argv_parsing_leave_the_simulator_and_optimizer_unloaded():
    # the package loads model, throughput and outage; the CLI binds the rest
    # of the library on the first lookup of a name a command calls
    code = textwrap.dedent('''\
        import contextlib, io, sys
        import layered_aloha
        import layered_aloha.cli as cli
        parser = cli.build_parser()
        workloads = [["scenario", name, "--workers", "1", "--slots", "50000", "--seed", "1",
                      "--out", "-"] for name in ("throughput-vs-arrival", "outage-vs-copies")]
        for argv in [*workloads, ["optimize-rates", "--rate-max", "3"]]:
            parser.parse_args(argv)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                parser.parse_args(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
        assert "optimize-rates" in out.getvalue()
        loaded = {f"layered_aloha.{m}" for m in ("scenarios", "simulate", "optimize")} & sys.modules.keys()
        assert not loaded, f"loaded at start-up: {sorted(loaded)}"
        bound = set(vars(cli)) & (set(layered_aloha.__all__) - {"model"})
        assert not bound, f"bound in cli at start-up: {sorted(bound)}"
    ''')
    _run_in_a_fresh_interpreter(code)


#: every name the package exported when it imported all of its submodules
_PUBLIC_NAMES = {
    "model": ("SystemConfig", "allocate_powers", "collision_prob", "config_from_settings",
              "db_to_linear", "design_config", "interference_variance", "load_config_file",
              "parse_config_text", "snr_gap"),
    "optimize": ("ArrivalPlan", "RatePlan", "optimize_arrivals", "optimize_rates"),
    "outage": ("OutageReport", "beta_crrd", "conditional_collision_moment", "outage",
               "psi_series"),
    "scenarios": ("SCENARIOS", "Scenario", "ScenarioResult", "get_scenario", "run_scenario"),
    "simulate": ("BLOCKED", "COLLIDED", "DECODED", "SINR_FAILURE", "DecodeReport",
                 "EstimatorOutput", "OutageEstimate", "SlotRealization", "ThroughputEstimate",
                 "estimate_outage", "estimate_throughput", "sample_slots", "sic_decode"),
    "throughput": ("AnalyticReport", "baseline_aloha_max", "baseline_irsa", "capture_prob_exact",
                   "capture_prob_lower_bound", "eta", "lone_pair_capture", "rho",
                   "sla_layer_contributions", "sla_lower_bound", "throughput"),
}


#: the submodules that `from layered_aloha import *` bound then, the package
#: attributes of their names; `outage` and `throughput` were the functions
_STAR_MODULES = ("model", "optimize", "scenarios", "simulate")


def test_the_package_exports_the_same_names_as_when_it_imported_every_submodule():
    names = {name for names in _PUBLIC_NAMES.values() for name in names}
    assert set(layered_aloha.__all__) == names | set(_STAR_MODULES)
    assert set(layered_aloha.__all__) <= set(dir(layered_aloha))
    for module, module_names in _PUBLIC_NAMES.items():
        mod = importlib.import_module("layered_aloha." + module)
        for name in module_names:
            assert getattr(layered_aloha, name) is getattr(mod, name), name
    star = {}
    exec("from layered_aloha import *", star)
    assert all(star[name] is getattr(layered_aloha, name) for name in names)
    for module in _STAR_MODULES:
        assert star[module] is importlib.import_module("layered_aloha." + module), module


def test_the_package_outage_and_throughput_stay_functions_as_their_modules_load():
    # in a fresh interpreter, so that each step is the one that first loads a module
    code = textwrap.dedent('''\
        import contextlib, importlib, inspect, io
        import layered_aloha
        assert layered_aloha.simulate.SAMPLING_CONTRACT == 2

        def check(step):
            for name in ("outage", "throughput"):
                assert inspect.isfunction(getattr(layered_aloha, name)), (name, step)

        import layered_aloha.outage
        check("import layered_aloha.outage")
        assert inspect.ismodule(importlib.import_module("layered_aloha.outage"))
        check("importlib.import_module")
        from layered_aloha.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "outage-vs-copies", "--slots", "50"]) == 0
        check("scenario outage-vs-copies")
    ''')
    _run_in_a_fresh_interpreter(code)


def _float_count_throughput_stat(counts, decoded, rates):
    """`_throughput_stat` on float decoded counts, in numpy's sum order:
    sequential down the slots; across layers left to right below 8 layers,
    pairwise from 8."""
    bits = decoded * np.asarray(rates)
    tot = bits.sum(axis=1)
    return np.concatenate((bits.sum(axis=0), (bits * bits).sum(axis=0), [tot.sum(), tot @ tot]))


def _float_count_outage_stat(counts, decoded):
    """`_outage_stat` on float decoded counts, summed down the slots."""
    und = counts - decoded
    return np.concatenate((und.sum(axis=0), counts.sum(axis=0), (und * und).sum(axis=0),
                           (und * counts).sum(axis=0), (counts * counts).sum(axis=0)))


@pytest.mark.parametrize("layers", range(1, 10))
def test_batch_stats_equal_the_float_count_oracles(monkeypatch, layers):
    # the decoder returns int64 counts and `_outage_stat` sums layer-major
    # copies; both vectors must be bit for bit those formed from float
    # counts in numpy's order.  8 and 9 layers cross numpy's pairwise edge
    rng = np.random.default_rng(layers)
    cfg = design_config(layers, 10, 3.0, rng.uniform(0.1, 3.0, size=layers).tolist(), 2.0)
    for size in (1, 7, BATCH_SLOTS):
        counts = rng.poisson(3.0, size=(size, layers))
        decoded = rng.binomial(counts, 0.6)
        monkeypatch.setattr(simulate, "_decode_batch", lambda batch, config: decoded)
        batch = (counts, None, None)
        assert (simulate._throughput_stat(batch, cfg).tobytes()
                == _float_count_throughput_stat(counts, decoded.astype(float), cfg.rates).tobytes())
        assert (simulate._outage_stat(batch, cfg).astype(float).tobytes()
                == _float_count_outage_stat(counts, decoded.astype(float)).tobytes())


def test_estimator_reruns_identically():
    cfg = design_config(2, 10, 5.0, 1.0, 2.0)
    a = estimate_throughput(cfg, 3000, 9)
    b = estimate_throughput(cfg, 3000, 9)
    assert a == b


def test_single_layer_throughput_matches_analytic():
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    est = estimate_throughput(cfg, 30000, 424242)
    expected = throughput(cfg).total_throughput  # exact for one layer
    assert abs(est.total.value - expected) < 4.0 * est.total.stderr
    assert est.total.stderr > 0
    assert est.per_layer[0] == est.total


def test_collision_fraction_matches_conditional_moment():
    # rate 0 removes fading failures, so collisions are the only loss; the
    # per-slot collided fraction averaged over non-empty slots estimates
    # E[p_c(M) | M >= 1]
    cfg = design_config(1, 10, 5.0, 0.0, 2.0)
    n = 20000
    fracs = []
    for slot in sample_slots(cfg, n, 7):
        m = int(slot.counts[0])
        if m:
            rep = sic_decode(slot, cfg)
            fracs.append((m - rep.decoded_per_layer[0]) / m)
    fracs = np.asarray(fracs)
    expected = conditional_collision_moment(1, 5.0, 10, 1)
    se = fracs.std(ddof=1) / math.sqrt(len(fracs))
    assert abs(fracs.mean() - expected) < 4.0 * se


def test_pooled_outage_matches_size_biased_closed_form():
    # the pooled ratio estimator weights slots by user count; for a single
    # layer at rate 0 its limit is the per-user collision probability
    # 1 - E[omega^K] over K ~ Poisson(lam) other users, i.e.
    # 1 - exp(-lam (1 - omega))
    lam, N = 5.0, 10
    cfg = design_config(1, N, lam, 0.0, 2.0)
    est = estimate_outage(cfg, 40000, 7)
    expected = 1.0 - math.exp(-lam * (1.0 / N))
    assert abs(est.per_layer[0].value - expected) < 4.0 * est.per_layer[0].stderr


def test_outage_estimator_inputs():
    cfg = design_config(2, 10, [5.0, 0.0], 1.0, 2.0)
    with pytest.raises(ValueError):
        estimate_outage(cfg, 100, 1)
    good = design_config(2, 10, 5.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        estimate_outage(good, 0, 1)
    with pytest.raises(ValueError):
        estimate_outage(good, 100, -3)


def test_huge_rate_forces_full_outage():
    cfg = design_config(2, 10, 5.0, 40.0, 2.0)
    est = estimate_outage(cfg, 2000, 3)
    for out in est.per_layer:
        assert out.value == 1.0


def test_tiny_load_zero_rate_never_fails():
    cfg = design_config(1, 10, 0.05, 0.0, 2.0)
    est = estimate_outage(cfg, 5000, 5)
    assert est.per_layer[0].value == 0.0


def test_zero_arrival_throughput_is_exactly_zero():
    # 1e-310 is subnormal: the decoder's tile-size rule must not overflow
    for arrival in (0.0, 1e-310):
        cfg = design_config(2, 10, arrival, 1.0, 2.0)
        est = estimate_throughput(cfg, 3000, 8)
        assert est.total.value == 0.0
        assert est.total.stderr == 0.0
        assert all(o.value == 0.0 and o.stderr == 0.0 for o in est.per_layer)


def test_channel_clear_fraction_matches_rho():
    # fraction of channels surviving the layer-1 pass (empty, or a lone
    # decodable signal) estimates rho_1; channel events are independent
    # across channels, so a plain binomial band applies
    from layered_aloha import capture_prob_exact, rho

    cfg = design_config(2, 10, 8.0, 1.0, 4.0)
    n = 4000
    cleared = 0
    for slot in sample_slots(cfg, n, 55):
        rep = sic_decode(slot, cfg)
        cleared += int((rep.stop_layer >= 1).sum())
    frac = cleared / (n * 10)
    expected = rho(1, cfg, capture_prob_exact(1, cfg))
    se = math.sqrt(expected * (1 - expected) / (n * 10))
    assert abs(frac - expected) < 4.0 * se


def test_estimates_equal_sic_decode_over_sample_slots():
    # `sample_slots` returns the slots the estimators decode: the per-slot
    # reference decoder over them gives the outage estimate bit for bit,
    # over two full batches and a partial one, under both semantics
    cfg = design_config(3, 20, 3.0, [0.8, 1.0, 1.5], 10.0, repetition=3)
    n = 2 * BATCH_SLOTS + 300
    slots = sample_slots(cfg, n, 3)
    assert len(slots) == n
    users = np.sum([s.counts for s in slots], axis=0)
    for reopen in (False, True):
        sem = replace(cfg, reopen_cleared_channels=reopen)
        decoded = np.sum([sic_decode(s, sem).decoded_per_layer for s in slots], axis=0)
        assert 0 < decoded.sum() < users.sum()
        est = estimate_outage(sem, n, 3)
        assert [o.value for o in est.per_layer] == ((users - decoded) / users).tolist()
        bits = estimate_throughput(sem, n, 3)
        assert bits.total.value == pytest.approx(decoded @ np.asarray(cfg.rates) / n, rel=1e-12)


def test_one_slot_estimates_equal_sic_decode():
    # one slot has no spread to estimate: stderr 0, the value the slot's
    # own count, and NaN outage where the slot holds no user of a layer
    cfg = design_config(3, 10, [6.0, 2.0, 0.1], [1.0, 1.5, 0.5], 10.0, repetition=2)
    empty_layers = 0
    for seed in range(5):
        (slot,) = sample_slots(cfg, 1, seed)
        decoded = sic_decode(slot, cfg).decoded_per_layer
        bits = estimate_throughput(cfg, 1, seed)
        outage = estimate_outage(cfg, 1, seed)
        for l, rate in enumerate(cfg.rates):
            assert bits.per_layer[l] == simulate.EstimatorOutput(decoded[l] * rate, 0.0)
            users = int(slot.counts[l])
            if users:
                assert outage.per_layer[l].value == (users - decoded[l]) / users
                assert outage.per_layer[l].stderr == pytest.approx(0.0, abs=1e-6)
            else:
                empty_layers += 1
                assert math.isnan(outage.per_layer[l].value)
        assert bits.total == simulate.EstimatorOutput(float(np.dot(decoded, cfg.rates)), 0.0)
    assert empty_layers


def _lone_pair_tally(seed):
    # the two-layer system of demos/decoding_dependence.py: count the
    # channels with one user per layer, and which of those users decode
    base = design_config(2, 10, 10.0, 0.0, db_to_linear(3.0))
    cfg = base.with_rates(optimize_rates(base).optimal_rates)
    tally = np.zeros(4, dtype=np.int64)  # lone pairs; of those layer 1, layer 2, both decoded
    for slot in sample_slots(cfg, 2 * BATCH_SLOTS + 500, seed):
        outcomes = sic_decode(slot, cfg).outcomes
        occ = [np.bincount(ch[:, 0], minlength=10) for ch in slot.channels]
        pair = (occ[0] == 1) & (occ[1] == 1)
        a, b = (np.isin(np.arange(10), ch[out == DECODED, 0]) & pair
                for ch, out in zip(slot.channels, outcomes))
        tally += (pair.sum(), a.sum(), b.sum(), (a & b).sum())
    return cfg, tally.tolist()


def test_joint_capture_counts_equal_sic_decode_over_sample_slots():
    cfg, (lone, first, second, both) = _lone_pair_tally(7)
    assert lone > 10_000
    assert second == both  # layer 2 is only tried once layer 1 is cancelled
    # lone pairs sit on distinct channels, and channels are independent
    # (Poisson splitting), so each tally is binomial
    for p_hat, p in zip((first / lone, both / lone), lone_pair_capture(cfg)):
        assert abs(p_hat - p) < 4.0 * math.sqrt(p * (1 - p) / lone)


def test_joint_capture_detects_cross_layer_dependence():
    # the decode events of a lone pair are far from independent: in the
    # closed form, and in a sic_decode tally
    cfg, (lone, first, second, both) = _lone_pair_tally(33)
    p_first, p_both = lone_pair_capture(cfg)
    assert p_both - p_first * p_both > 0.05
    product = (first / lone) * (second / lone)
    assert both / lone - product > 4.0 * math.sqrt(product * (1 - product) / lone)


def test_seed_validation():
    cfg = design_config(1, 10, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        sample_slots(cfg, 1, -1)
    with pytest.raises(ValueError):
        sample_slots(cfg, 1, 2 ** 64)
    with pytest.raises(ValueError):
        estimate_throughput(cfg, 10, 2 ** 64)
