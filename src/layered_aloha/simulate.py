"""Slot-level Monte Carlo simulator for the layered random-access scheme.

One slot: every layer draws a Poisson number of users, each user places B
copies on B distinct uniformly-chosen channels, and each (user, channel)
pair gets an independent exponential power gain.  The receiver sweeps
layers globally in order 1..L; within a layer, a channel with a single
not-yet-cancelled copy is decoded when log2(1 + SINR) clears the layer
rate, a channel with two or more copies is a collision.  Collisions and
failed singletons stop the sweep at that channel for all deeper layers
(single forward pass -- by default a stopped channel never reopens, even
if the offending copies are later cancelled through duplicates decoded
elsewhere; a config's `reopen_cleared_channels` flips that for
sensitivity studies, and this module is the only one that reads it).
After each layer pass, every copy of every user decoded in that layer is
cancelled before the next layer is evaluated.  Cancellation never revisits
same-layer collisions.

Randomness is counter-based (Philox).  The estimators consume fixed-size
batches of slots, each batch keyed by (seed, batch index), so results are
bit-identical for any worker count; `sample_slots` hands out the very
slots they decode.  Every estimator reduces a batch to one flat vector
of sums (its statistic function), adds the batches' vectors column by
column with math.fsum, which is exactly rounded and hence
order-independent, and reads named slices of the total.

The estimators decode a batch in channel space, a tile of slots at a time:
each tile draws its gains from the batch generator, as standard
exponentials times the gain mean, then one bincount counts the copies and
one weighted bincount sums the received power of every (layer, channel)
cell.  Two budgets size the tile, one on its dense cells and one on its
expected copies.  The tile size is not part of the sampling contract, and
the output cannot depend on it: slots never share a cell, and each cell's
sums are formed in the same order whatever the tile.  `sic_decode` is the
per-slot reference.

Sampling contract 2 fixes the sample path.  Each stream draws, in order:
the Poisson user counts of every layer; the channel sets of all users by
Floyd's algorithm (Bentley & Floyd, CACM 1987), one bounded integer per
user and copy, O(B) memory per user; then all exponential gains, in one
draw or tile by tile alike, as standard exponentials scaled by the gain
mean (bit for bit numpy's `exponential(scale=mean)`).  With B = 1 the
channel draw is one `integers(0, N)` call, so single-copy sample paths
are those of contract 1.
Channel indices are drawn as int32 (int64 only past N = 2^31), which
yields the same values and stream position as an int64 draw, into one
(B, T) array with a row per copy: about 4 bytes per copy per batch.  The
sampler hands out its (T, B) transpose view; the batch decoder reads the
rows as they are.

numpy is imported inside the functions that sample, decode or reduce, and
`multiprocessing` on the first pool, so importing this module (and with it
the package and its CLI) loads neither.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .model import SystemConfig, _check_count, _check_seed, _occupied_arrival, snr_gap

# user outcome codes, in increasing report priority
DECODED = 0
COLLIDED = 1
SINR_FAILURE = 2
BLOCKED = 3

#: slots per estimator batch.  Part of the sampling contract: changing it
#: changes which substream a slot draws from, hence the sample path.
BATCH_SLOTS = 4096

#: version of the sample path (draw order and algorithms, see the module
#: docstring); bumped whenever a fixed seed stops reproducing old samples.
SAMPLING_CONTRACT = 2

#: batch-decoder tile budgets: _TILE_CELLS bounds a tile's dense cells
#: (L*N per slot), _TILE_COPIES its expected copies (B*sum(lambda) per
#: slot).  Slots decode independently, so results do not depend on them.
_TILE_CELLS = 24576
_TILE_COPIES = 12288

_KEY_BATCH = 1 << 63


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    import numpy as np
    # the key must be handed over as uint64; a plain int list would be
    # coerced through float64 and silently truncate large stream ids
    key = np.array([seed, _KEY_BATCH + batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(eq=False)
class SlotRealization:
    """Sampled arrivals of one slot.

    `channels[l]` is an (M_l, B) array of distinct int32 channel indices
    per user (int64 past 2^31 channels) and `gains[l]` the matching
    (M_l, B) channel power gains, for 0-based layer position l.
    """

    counts: np.ndarray
    channels: list[np.ndarray]
    gains: list[np.ndarray]

    def __eq__(self, other):
        if not isinstance(other, SlotRealization):
            return NotImplemented
        import numpy as np
        return (
            np.array_equal(self.counts, other.counts)
            and all(np.array_equal(a, b) for a, b in zip(self.channels, other.channels))
            and all(np.array_equal(a, b) for a, b in zip(self.gains, other.gains))
        )


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of the SIC sweep over one slot.

    `outcomes[l]` holds one code per layer-l user; a user is DECODED when
    any copy decodes, else COLLIDED when any copy collided, else
    SINR_FAILURE when any lone copy failed its SINR test, else BLOCKED
    (every copy sat on a channel already stopped by lower layers).
    `residual[l, q]` counts layer-l copies left at channel q after the
    layer-l pass and its cancellations.  `stop_layer[q]` is the number of
    layers cleanly cleared at channel q counting from layer 1 (L means the
    sweep never stalled there).
    """

    outcomes: tuple[np.ndarray, ...]
    decoded_per_layer: tuple[int, ...]
    residual: np.ndarray
    stop_layer: np.ndarray


@dataclass(frozen=True)
class EstimatorOutput:
    """Point estimate with its Monte Carlo standard error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class ThroughputEstimate:
    per_layer: tuple[EstimatorOutput, ...]
    total: EstimatorOutput


@dataclass(frozen=True)
class OutageEstimate:
    per_layer: tuple[EstimatorOutput, ...]


# --- sampling ----------------------------------------------------------------


def _draw_channels(rng, total: int, num_channels: int, copies: int) -> np.ndarray:
    """Distinct channel sets for `total` users: a (T, B) view, one row per
    user, of a C-contiguous (B, T) array with one row per copy.

    A vectorized Floyd sampler: for j = N-B .. N-1 each user draws t
    uniform on [0, j] and keeps t, or j if t is already in its row.  Each
    row is then a uniform B-subset of distinct channels, but the order of
    copies within a row is not uniformly random (late columns favour high
    channel indices); the decoders treat copies symmetrically, so the order
    carries no meaning.  For B = 1 the loop is one plain `integers(0, N)`
    draw.  Indices are int32 up to N = 2^31 (int64 beyond): for ranges
    below 2^31 an int32 `integers` draw returns the int64 draw's values and
    leaves the stream where the int64 draw does.  Each column is drawn into
    its row of the (B, T) array and tested against the earlier rows in two
    preallocated boolean buffers, so the peak is about T*(4B + 6) bytes.
    """
    import numpy as np
    dtype = np.int32 if num_channels <= 2 ** 31 else np.int64
    rows = np.empty((copies, total), dtype=dtype)
    taken, hit = np.empty(total, dtype=bool), np.empty(total, dtype=bool)
    for k, j in enumerate(range(num_channels - copies, num_channels)):
        t = rows[k]
        t[:] = rng.integers(0, j + 1, size=total, dtype=dtype)
        if k:
            np.equal(rows[0], t, out=taken)
            for c in rows[1:k]:
                taken |= np.equal(c, t, out=hit)
            t[taken] = j
    return rows.T


# --- per-slot decoding --------------------------------------------------------


def sic_decode(slot: SlotRealization, config: SystemConfig) -> DecodeReport:
    """Run the layer-by-layer SIC sweep on one slot (see module docstring)."""
    import numpy as np
    N = config.num_channels
    L = config.num_layers
    P = config.powers
    nus = [snr_gap(r) for r in config.rates]

    # seen by layer l: every copy of layers > l summed from L down, then noise
    suffix = []
    acc = np.zeros(N)
    for l in range(L - 1, -1, -1):
        suffix.append(acc + config.noise_power)
        ch, g = slot.channels[l], slot.gains[l]
        if l > 0 and ch.size:
            acc += np.bincount(ch.ravel(), weights=P[l] * g.ravel(), minlength=N)
    suffix.reverse()

    blocked = np.zeros(N, dtype=bool)
    residual_below = np.zeros(N, dtype=np.int64)
    alive = np.ones(N, dtype=bool)  # consecutively cleared from layer 1
    stop_layer = np.zeros(N, dtype=np.int64)
    residual = np.zeros((L, N), dtype=np.int64)
    outcomes = []
    decoded_per_layer = []

    for l in range(L):
        ch, g = slot.channels[l], slot.gains[l]
        m = ch.shape[0]
        open_now = (residual_below == 0) if config.reopen_cleared_channels else ~blocked
        if m == 0:
            outcomes.append(np.zeros(0, dtype=np.int8))
            decoded_per_layer.append(0)
            alive &= open_now  # an empty layer stalls nothing
            stop_layer[alive] = l + 1
            continue
        occ = np.bincount(ch.ravel(), minlength=N)
        copy_open = open_now[ch]
        coll = copy_open & (occ[ch] >= 2)
        single = copy_open & (occ[ch] == 1)
        ok = single & (P[l] * g >= nus[l] * suffix[l][ch])
        user_decoded = ok.any(axis=1)

        out = np.full(m, BLOCKED, dtype=np.int8)
        out[(single & ~ok).any(axis=1)] = SINR_FAILURE
        out[coll.any(axis=1)] = COLLIDED
        out[user_decoded] = DECODED
        outcomes.append(out)
        decoded_per_layer.append(int(user_decoded.sum()))

        stalled = np.zeros(N, dtype=bool)
        stalled[ch[coll]] = True
        stalled[ch[single & ~ok]] = True
        blocked |= stalled
        alive &= open_now & ~stalled
        stop_layer[alive] = l + 1

        res = occ.copy()
        if user_decoded.any():  # cancel every copy of each decoded user
            res -= np.bincount(ch[user_decoded].ravel(), minlength=N)
        residual[l] = res
        residual_below += res

    return DecodeReport(
        outcomes=tuple(outcomes),
        decoded_per_layer=tuple(decoded_per_layer),
        residual=residual,
        stop_layer=stop_layer,
    )


# --- batched sampling + decoding (estimator fast path) -------------------------


def _batch_sizes(num_slots: int, seed: int) -> list[int]:
    """Sizes of the batches holding slots 0..num_slots-1, by batch index:
    full batches of BATCH_SLOTS, then the rest.  Part of the sampling
    contract: it fixes the substream each slot draws from."""
    full, rest = divmod(_check_count("num_slots", num_slots), BATCH_SLOTS)
    _check_seed("seed", seed)
    return [BATCH_SLOTS] * full + ([rest] if rest else [])


def _sample_batch(config: SystemConfig, seed: int, batch_index: int, size: int):
    """Sample `size` slots from the batch substream.

    Returns (counts (S, L), channels (T, B), rng), copy rows slot-major,
    layer-major within a slot.  The channels are the (T, B) view of
    `_draw_channels`' (B, T) int32 array, the batch's only copy-sized array.
    `rng` is positioned at the gains, which `_decode_batch` draws tile by
    tile, so a batch decodes only once.
    """
    rng = _batch_rng(seed, batch_index)
    counts = rng.poisson(lam=config.arrival_rates, size=(size, config.num_layers))
    ch = _draw_channels(rng, int(counts.sum()), config.num_channels, config.repetition)
    return counts, ch, rng


def sample_slots(config: SystemConfig, num_slots: int, seed: int) -> list[SlotRealization]:
    """The first `num_slots` slots that `estimate_*(config, num_slots, seed)`
    decodes, for inspection with `sic_decode`.  `num_slots` is an int >= 1
    and `seed` an int in [0, 2^64), as for the estimators.

    Each batch is sampled by `_sample_batch` and its gains drawn in one
    shot, the very values the batch decoder draws tile by tile; the slots'
    arrays are views into their batch's arrays.
    """
    import numpy as np
    L = config.num_layers
    slots = []
    for bi, size in enumerate(_batch_sizes(num_slots, seed)):
        counts, ch, rng = _sample_batch(config, seed, bi, size)
        gains = rng.standard_exponential(size=ch.shape)
        gains *= config.channel_gain_mean  # bit for bit exponential(scale=mean)
        cuts = np.cumsum(counts.ravel())[:-1]
        ch_parts, gain_parts = np.split(ch, cuts), np.split(gains, cuts)
        slots.extend(SlotRealization(counts[s], ch_parts[s * L: s * L + L], gain_parts[s * L: s * L + L])
                     for s in range(size))
    return slots


def _decode_batch(batch, config: SystemConfig):
    """Vectorized SIC sweep over a batch of slots, in channel space.

    A tile is C slots, a contiguous range of the slot-major copy rows: the
    most (1 to S) with L*C*N at most _TILE_CELLS and C*B*sum(lambda) at
    most _TILE_COPIES.  Each tile draws its (rows, B) gains from the batch
    generator as standard exponentials scaled by the gain mean in place,
    which is bit for bit `exponential(scale=mean)` (numpy forms it as
    scale * standard_exponential) and leaves the stream at the same place.
    The generator fills arrays in row-major order, each value continuing
    the stream, so the tiles' draws are the one-shot (T, B) draw.  One
    `np.repeat` gives each copy row its (slot, layer) group, and gathers
    from per-group tables give its cell offset, layer*(C*N) + (slot in
    tile)*N, and its layer power.  The keys are formed (B, rows) straight
    from the rows of the sampler's (B, T) channel array, then copied once
    row-major for the bincounts.  One bincount gives every cell's
    occupancy and one weighted bincount its received power P_l*g; a
    running sum of the power rows from layer L down gives the interference
    each layer sees.  The sweep then works on tile-wide boolean rows: a
    cell decodes when it is open, holds one copy and clears the SINR test,
    and a user decodes when any of its copies sits on such a cell.  The
    (L, C*N) threshold and boolean rows are written in place (`out=`), and
    a tile frees its arrays before the next tile allocates its own.

    The output does not depend on C.  Slots never share a cell, and the
    floating-point operations are fixed by the data alone: a lone copy's
    cell power is 0.0 + P*g, exactly P*g; each cell adds its copies in row
    order; the interference adds whole layer rows from L down, an empty
    layer adding an exact 0.0, then the noise; and the SINR test is `>=`.

    Returns per-slot decoded counts (S, L), int64.
    """
    import numpy as np
    counts, ch, rng = batch
    S, L = counts.shape
    N, B = config.num_channels, ch.shape[1]
    copy_rows = ch.T  # (B, T); C-contiguous as `_draw_channels` lays it out
    copies = B * sum(config.arrival_rates)
    C = min(S, _TILE_CELLS // (L * N), _TILE_COPIES // copies if copies else S)
    C = max(1, int(C))
    CN = C * N
    nus = np.array([snr_gap(r) for r in config.rates])[:, None]
    # per (slot in tile, layer) group, slot-major: its cell offset and power
    group_cell = (np.arange(C)[:, None] * N + np.arange(L) * CN).ravel()
    group_power = np.tile(np.asarray(config.powers, dtype=np.float64), C)
    groups = np.arange(C * L)
    row_start = [0] + np.cumsum(counts.ravel())[L - 1::L].tolist()
    decoded = np.empty((S, L), dtype=np.int64)

    for s0 in range(0, S, C):
        s1 = min(s0 + C, S)
        users = counts[s0:s1].ravel()
        r0, r1 = row_start[s0], row_start[s1]
        group = np.repeat(groups[: users.size], users)
        # each copy's received power P_l * g, its gain scaled in place
        weights = rng.standard_exponential(size=(r1 - r0, B))
        weights *= config.channel_gain_mean
        weights *= group_power[group][:, None]
        # (B, rows) keys: any-copy reductions run along contiguous rows
        key_t = copy_rows[:, r0:r1] + group_cell[group]
        # row-major (rows, B) order, that of the gains: each cell adds its
        # copies' powers in row order
        flat_key = key_t.T.ravel()
        occ = np.bincount(flat_key, minlength=L * CN).reshape(L, CN)
        power = np.bincount(flat_key, weights=weights.ravel(), minlength=L * CN).reshape(L, CN)
        threshold = np.empty((L, CN))
        ok = np.empty((L, CN), dtype=bool)
        clear = np.empty((L, CN), dtype=bool)
        flat_ok = ok.reshape(-1)
        # SINR threshold: nu_l * (every copy of layers l+1..L, summed from L down, + noise)
        threshold[-1] = 0.0
        for l in range(L - 2, -1, -1):
            np.add(threshold[l + 1], power[l + 1], out=threshold[l])
        threshold += config.noise_power
        threshold *= nus
        np.greater_equal(power, threshold, out=ok)
        ok &= np.equal(occ, 1, out=clear)  # `clear` lends its rows to the lone-copy mask
        if config.reopen_cleared_channels:
            # a channel is open while no copy of a lower layer is left on it
            layer = group % L
            residual_below = np.zeros(CN, dtype=np.int64)
            for l in range(1, L):
                mine = key_t[:, layer == l - 1]
                cancelled = mine[:, flat_ok[mine].any(axis=0)].ravel() - (l - 1) * CN
                residual_below += occ[l - 1] - np.bincount(cancelled, minlength=CN)
                ok[l] &= residual_below == 0
        else:
            # a cell is clear when empty or decoded; a collision or failed
            # lone copy stops its channel for every deeper layer, so the
            # loop turns row l into "clear at every layer up to l"
            np.equal(occ, 0, out=clear)
            clear |= ok
            for l in range(1, L):
                ok[l] &= clear[l - 1]
                clear[l] &= clear[l - 1]
        user_decoded = flat_ok[key_t].any(axis=0)
        decoded[s0:s1] = np.bincount(group[user_decoded], minlength=users.size).reshape(-1, L)
        # free the tile's arrays before the next tile makes its own, so at
        # most one tile's arrays are alive at a time
        del group, weights, key_t, flat_key, occ, power, user_decoded, threshold, ok, clear, flat_ok
    return decoded


# --- estimators ----------------------------------------------------------------


def _throughput_stat(batch, config):
    """[bits per layer (L), their squares (L), total bits, its square]."""
    import numpy as np
    bits = _decode_batch(batch, config) * np.asarray(config.rates)
    tot = bits.sum(axis=1)
    return np.concatenate((bits.sum(axis=0), (bits * bits).sum(axis=0), [tot.sum(), tot @ tot]))


def _outage_stat(batch, config):
    """[undecoded u, users c, u*u, u*c, c*c], each an L-block of per-layer sums.

    The sums are of integers, exact in any order, so each runs along a
    contiguous layer-major (L, S) copy."""
    import numpy as np
    c = batch[0].T.copy()
    u = c - _decode_batch(batch, config).T
    return np.concatenate([x.sum(axis=1) for x in (u, c, u * u, u * c, c * c)])


def _batch_worker(args):
    stat, config, seed, batch_index, size = args
    return stat(_sample_batch(config, seed, batch_index, size), config)


def _map_batches(stat, config, num_slots, seed, workers):
    sizes = _batch_sizes(num_slots, seed)
    tasks = [(stat, config, seed, bi, size) for bi, size in enumerate(sizes)]
    processes = min(_check_count("workers", workers), len(tasks), os.cpu_count() or 1)
    if processes == 1:
        return [_batch_worker(t) for t in tasks]
    pool_module = globals().get("multiprocessing") or __getattr__("multiprocessing")
    with pool_module.Pool(processes=processes) as pool:
        return pool.map(_batch_worker, tasks, chunksize=1)


def __getattr__(name):
    # `multiprocessing` is imported on first use, by the pool branch of
    # `_map_batches` or by a caller that looks it up here to wrap it, so a
    # serial run never loads it
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import multiprocessing
    globals()[name] = multiprocessing
    return multiprocessing


def _fsum(partials) -> list[float]:
    """Column sums of the batch vectors, each exactly rounded, so the total
    does not depend on how batches were spread over workers."""
    return [math.fsum(column) for column in zip(*partials)]


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)


def estimate_throughput(
    config: SystemConfig, num_slots: int, seed: int, workers: int = 1
) -> ThroughputEstimate:
    """Per-layer and total decoded bits per slot, with standard errors.

    One sample per slot: the sum over decoded users of their layer rate.
    Deterministic for fixed (config, num_slots, seed) whatever `workers`;
    `num_slots` and `workers` are ints >= 1, `seed` an int in [0, 2^64).
    """
    s = _fsum(_map_batches(_throughput_stat, config, num_slots, seed, workers))
    L = config.num_layers
    per_layer = []
    for l in range(L):
        mean, se = _mean_se(s[l], s[L + l], num_slots)
        per_layer.append(EstimatorOutput(mean, se))
    mean, se = _mean_se(*s[2 * L:], num_slots)
    return ThroughputEstimate(per_layer=tuple(per_layer), total=EstimatorOutput(mean, se))


def estimate_outage(
    config: SystemConfig, num_slots: int, seed: int, workers: int = 1
) -> OutageEstimate:
    """Per-layer fraction of users not decoded, aggregated over slots.

    Ratio estimator: undecoded users / present users, so slots without
    layer-l arrivals contribute nothing to layer l.  The standard error
    treats slots as iid (delta method for the ratio).  `num_slots`,
    `seed` and `workers` follow the rules of `estimate_throughput`.
    """
    for l in range(1, config.num_layers + 1):
        _occupied_arrival(config, l)
    s = _fsum(_map_batches(_outage_stat, config, num_slots, seed, workers))
    L = config.num_layers
    per_layer = []
    for l in range(L):
        u, c, u2, uc, c2 = s[l::L]
        if c == 0:
            per_layer.append(EstimatorOutput(float("nan"), float("nan")))
            continue
        ratio = u / c
        resid_sq = max(0.0, u2 - 2.0 * ratio * uc + ratio * ratio * c2)
        per_layer.append(EstimatorOutput(ratio, math.sqrt(resid_sq) / c))
    return OutageEstimate(per_layer=tuple(per_layer))

