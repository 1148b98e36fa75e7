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
elsewhere; `reopen_cleared_channels` flips that for sensitivity studies).
After each layer pass, every copy of every user decoded in that layer is
cancelled before the next layer is evaluated.  Cancellation never revisits
same-layer collisions.

Randomness is counter-based (Philox).  Single slots draw from a stream
keyed by (seed, slot index); the estimators consume fixed-size batches of
slots, each batch keyed by (seed, batch index), so results are
bit-identical for any worker count.  Batch reductions go through
math.fsum, which is exactly rounded and hence order-independent.

The estimators decode a batch in channel space, a tile of slots at a time:
each tile draws its gains from the batch generator, then one bincount
counts the copies and one weighted bincount sums the received power of
every (layer, channel) cell.  The tile size bounds the tile's arrays; it
is not part of the sampling contract, and the output cannot depend on it:
slots never share a cell, and each cell's sums are formed in the same
order whatever the tile.  `sic_decode` is the per-slot reference.

Sampling contract 2 fixes the sample path.  Each stream draws, in order:
the Poisson user counts of every layer; the channel sets of all users by
Floyd's algorithm (Bentley & Floyd, CACM 1987), one bounded integer per
user and copy, O(B) memory per user; then all exponential gains, in one
draw or tile by tile alike.  With B = 1 the channel draw is one
`integers(0, N)` call, so single-copy sample paths are those of contract 1.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, snr_gap

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

#: cells (L*N per slot) and expected copies (B*sum(lambda) per slot) per
#: batch-decoder tile: both keep the tile's arrays near 96 KiB, under
#: glibc's 128 KiB mmap threshold, so they are reused, not mapped afresh.
#: Slots decode independently, so results do not depend on them.
_TILE_CELLS = 12288
_TILE_COPIES = 12288

_KEY_SLOT = 0
_KEY_BATCH = 1 << 63


def _check_seed(seed: int):
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _philox(seed: int, stream: int) -> np.random.Generator:
    # the key must be handed over as uint64; a plain int list would be
    # coerced through float64 and silently truncate large stream ids
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def slot_rng(seed: int, slot_index: int) -> np.random.Generator:
    """Independent substream for one slot, keyed by (seed, slot index)."""
    _check_seed(seed)
    if not 0 <= slot_index < _KEY_BATCH:
        raise ValueError(f"slot_index out of range: {slot_index!r}")
    return _philox(seed, _KEY_SLOT + slot_index)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return _philox(seed, _KEY_BATCH + batch_index)


@dataclass(eq=False)
class SlotRealization:
    """Sampled arrivals of one slot.

    `channels[l]` is an (M_l, B) array of distinct channel indices per user
    and `gains[l]` the matching (M_l, B) channel power gains, for 0-based
    layer position l.
    """

    counts: np.ndarray
    channels: list[np.ndarray]
    gains: list[np.ndarray]

    def __eq__(self, other):
        if not isinstance(other, SlotRealization):
            return NotImplemented
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
    slots: int
    seed: int


@dataclass(frozen=True)
class ThroughputEstimate:
    per_layer: tuple[EstimatorOutput, ...]
    total: EstimatorOutput


@dataclass(frozen=True)
class OutageEstimate:
    per_layer: tuple[EstimatorOutput, ...]


@dataclass(frozen=True)
class JointCaptureEstimate:
    """Joint and marginal decode probabilities for isolated two-layer pairs.

    Estimated over channels carrying exactly one user in each of the two
    layers; `covariance` is the sample covariance between the two decode
    indicators (zero would mean the per-layer decode events are
    independent), with `samples` conditioning events observed.
    """

    joint: EstimatorOutput
    marginal_first: EstimatorOutput
    marginal_second: EstimatorOutput
    covariance: float
    covariance_stderr: float
    samples: int


# --- sampling ----------------------------------------------------------------


def _draw_channels(rng, total: int, num_channels: int, copies: int) -> np.ndarray:
    """Distinct channel sets for `total` users, one (B,) row per user.

    A vectorized Floyd sampler: for j = N-B .. N-1 each user draws t
    uniform on [0, j] and keeps t, or j if t is already in its row.  Each
    row is then a uniform B-subset of distinct channels, but the order of
    copies within a row is not uniformly random (late columns favour high
    channel indices); the decoders treat copies symmetrically, so the order
    carries no meaning.  For B = 1 the loop is one plain `integers(0, N)`
    draw, returned as a column view.
    """
    cols = []
    for j in range(num_channels - copies, num_channels):
        t = rng.integers(0, j + 1, size=total)
        if cols:
            taken = cols[0] == t
            for c in cols[1:]:
                taken |= c == t
            t[taken] = j
        cols.append(t)
    return cols[0][:, None] if copies == 1 else np.stack(cols, axis=1)


def _draw_copies(rng, total: int, num_channels: int, copies: int, gain_mean: float):
    """Channel sets, then exponential gains, for `total` users."""
    ch = _draw_channels(rng, total, num_channels, copies)
    return ch, rng.exponential(scale=gain_mean, size=(total, copies))


def sample_slot(config: SystemConfig, rng: np.random.Generator) -> SlotRealization:
    """Draw one slot: Poisson user counts, then channels and gains for all
    users in layer order.  Deterministic given the generator state."""
    counts = rng.poisson(config.arrival_rates)
    total = int(counts.sum())
    ch, gains = _draw_copies(rng, total, config.num_channels, config.repetition, config.channel_gain_mean)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    channels_per_layer = [ch[offsets[l]: offsets[l + 1]] for l in range(config.num_layers)]
    gains_per_layer = [gains[offsets[l]: offsets[l + 1]] for l in range(config.num_layers)]
    return SlotRealization(counts=counts, channels=channels_per_layer, gains=gains_per_layer)


# --- per-slot decoding --------------------------------------------------------


def sic_decode(
    slot: SlotRealization, config: SystemConfig, reopen_cleared_channels: bool = False
) -> DecodeReport:
    """Run the layer-by-layer SIC sweep on one slot (see module docstring)."""
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
        open_now = (residual_below == 0) if reopen_cleared_channels else ~blocked
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


def _sample_batch(config: SystemConfig, seed: int, batch_index: int, size: int):
    """Sample `size` slots from the batch substream.

    Returns (counts (S, L), channels (T, B), rng), copy rows slot-major,
    layer-major within a slot.  `rng` is positioned at the gains, which
    `_decode_batch` draws tile by tile, so a batch decodes only once.
    """
    rng = _batch_rng(seed, batch_index)
    counts = rng.poisson(lam=config.arrival_rates, size=(size, config.num_layers))
    ch = _draw_channels(rng, int(counts.sum()), config.num_channels, config.repetition)
    return counts, ch, rng


def _decode_batch(
    batch,
    config: SystemConfig,
    reopen_cleared_channels: bool = False,
    want_channel_flags: bool = False,
):
    """Vectorized SIC sweep over a batch of slots, in channel space.

    A tile is C slots, a contiguous range of the slot-major copy rows: the
    most (1 to S) with L*C*N <= _TILE_CELLS and C*B*sum(lambda) <=
    _TILE_COPIES.  Each tile draws its (rows, B) gains from the batch
    generator, which fills arrays in row-major order, each value continuing
    the stream, so the tiles' draws are the one-shot (T, B) draw.  Each
    copy's cell key, layer*(C*N) + (slot in tile)*N + channel, comes from a
    per-(slot, layer) table.  One bincount gives every cell's occupancy and
    one weighted bincount its received power P_l*g; a running sum of the
    power rows from layer L down gives the interference each layer sees.
    The sweep then works on tile-wide boolean rows: a cell decodes when it
    is open, holds one copy and clears the SINR test, and a user decodes
    when any of its copies sits on such a cell.

    The output does not depend on C.  Slots never share a cell, and the
    floating-point operations are fixed by the data alone: a lone copy's
    cell power is 0.0 + P*g, exactly P*g; each cell adds its copies in row
    order; the interference adds whole layer rows from L down, an empty
    layer adding an exact 0.0, then the noise; and the SINR test is `>=`.

    Returns per-slot decoded counts (S, L); with `want_channel_flags` also
    the (L, S*N) channel occupancy and singleton-decode flags of the whole
    batch, column slot*N + q (used by the joint-capture estimator).
    """
    counts, ch, rng = batch
    S, L = counts.shape
    N, B = config.num_channels, ch.shape[1]
    copies = B * sum(config.arrival_rates)
    C = min(S, _TILE_CELLS // (L * N), _TILE_COPIES // copies if copies else S)
    C = max(1, int(C))
    CN = C * N
    nus = np.array([snr_gap(r) for r in config.rates])[:, None]
    group_cell = (np.arange(C)[:, None] * N + np.arange(L) * CN).ravel()
    group_power = np.tile(np.asarray(config.powers, dtype=np.float64), C)
    row_start = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    decoded = np.zeros((S, L))
    if want_channel_flags:
        occ_flags = np.zeros((L, S * N), dtype=np.int64)
        dec_flags = np.zeros((L, S * N), dtype=bool)

    for s0 in range(0, S, C):
        s1 = min(s0 + C, S)
        users = counts[s0:s1].ravel()
        r0, r1 = row_start[s0], row_start[s1]
        gains = rng.exponential(scale=config.channel_gain_mean, size=(r1 - r0, B))
        key = ch[r0:r1] + np.repeat(group_cell[: users.size], users)[:, None]
        flat_key = key.ravel()
        group = np.repeat(np.arange(users.size), users)
        # (B, rows) layout: any-copy reductions run along contiguous rows
        key_t = np.ascontiguousarray(key.T)
        occ = np.bincount(flat_key, minlength=L * CN).reshape(L, CN)
        weights = (gains * np.repeat(group_power[: users.size], users)[:, None]).ravel()
        power = np.bincount(flat_key, weights=weights, minlength=L * CN).reshape(L, CN)
        # SINR threshold: nu_l * (every copy of layers l+1..L, summed from L down, + noise)
        threshold = np.zeros((L, CN))
        for l in range(L - 2, -1, -1):
            threshold[l] = threshold[l + 1] + power[l + 1]
        threshold += config.noise_power
        threshold *= nus
        ok = (occ == 1) & (power >= threshold)
        flat_ok = ok.reshape(-1)
        if reopen_cleared_channels:
            # a channel is open while no copy of a lower layer is left on it
            layer = group % L
            residual_below = np.zeros(CN, dtype=np.int64)
            for l in range(1, L):
                mine = key_t[:, layer == l - 1]
                cancelled = mine[:, flat_ok[mine].any(axis=0)].ravel() - (l - 1) * CN
                residual_below += occ[l - 1] - np.bincount(cancelled, minlength=CN)
                ok[l] &= residual_below == 0
        else:
            # a collision or failed lone copy stops the channel for deeper layers
            stalls = (occ > 0) & ~ok
            blocked = np.zeros(CN, dtype=bool)
            for l in range(L):
                ok[l] &= ~blocked
                blocked |= stalls[l]
        user_decoded = flat_ok[key_t].any(axis=0)
        decoded[s0:s1] = np.bincount(group[user_decoded], minlength=users.size).reshape(-1, L)
        if want_channel_flags:
            occ_flags[:, s0 * N: s1 * N] = occ[:, : (s1 - s0) * N]
            dec_flags[:, s0 * N: s1 * N] = ok[:, : (s1 - s0) * N]

    if want_channel_flags:
        return decoded, occ_flags, dec_flags
    return decoded


# --- estimators ----------------------------------------------------------------


def _batch_worker(args):
    mode, config, seed, batch_index, size, reopen = args
    batch = _sample_batch(config, seed, batch_index, size)
    counts = batch[0]
    if mode == "throughput":
        dec = _decode_batch(batch, config, reopen)
        bits = dec * np.asarray(config.rates)
        tot = bits.sum(axis=1)
        return (
            bits.sum(axis=0),
            (bits * bits).sum(axis=0),
            float(tot.sum()),
            float(tot @ tot),
        )
    if mode == "outage":
        dec = _decode_batch(batch, config, reopen)
        und = counts - dec
        return (
            und.sum(axis=0),
            counts.sum(axis=0).astype(np.float64),
            (und * und).sum(axis=0),
            (und * counts).sum(axis=0),
            (counts * counts).sum(axis=0).astype(np.float64),
        )
    if mode == "joint":
        _, occ_flags, dec_flags = _decode_batch(batch, config, reopen, want_channel_flags=True)
        mask = (occ_flags == 1).all(axis=0)
        a, b = dec_flags[:, mask]
        return (
            float(mask.sum()),
            float(a.sum()),
            float(b.sum()),
            float((a & b).sum()),
        )
    raise ValueError(f"unknown estimator mode {mode!r}")


def _map_batches(mode, config, num_slots, seed, workers, reopen):
    if num_slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    _check_seed(seed)
    tasks = []
    for bi in range(0, (num_slots + BATCH_SLOTS - 1) // BATCH_SLOTS):
        size = min(BATCH_SLOTS, num_slots - bi * BATCH_SLOTS)
        tasks.append((mode, config, seed, bi, size, reopen))
    if workers <= 1 or len(tasks) == 1:
        return [_batch_worker(t) for t in tasks]
    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(_batch_worker, tasks, chunksize=1)


def _fsum_field(partials, idx, layer=None):
    if layer is None:
        return math.fsum(p[idx] for p in partials)
    return math.fsum(float(p[idx][layer]) for p in partials)


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)


def estimate_throughput(
    config: SystemConfig,
    num_slots: int,
    seed: int,
    workers: int = 1,
    reopen_cleared_channels: bool = False,
) -> ThroughputEstimate:
    """Per-layer and total decoded bits per slot, with standard errors.

    One sample per slot: the sum over decoded users of their layer rate.
    Deterministic for fixed (config, num_slots, seed) whatever `workers`.
    """
    partials = _map_batches("throughput", config, num_slots, seed, workers, reopen_cleared_channels)
    per_layer = []
    for l in range(config.num_layers):
        mean, se = _mean_se(_fsum_field(partials, 0, l), _fsum_field(partials, 1, l), num_slots)
        per_layer.append(EstimatorOutput(mean, se, num_slots, seed))
    mean, se = _mean_se(_fsum_field(partials, 2), _fsum_field(partials, 3), num_slots)
    return ThroughputEstimate(per_layer=tuple(per_layer), total=EstimatorOutput(mean, se, num_slots, seed))


def estimate_outage(
    config: SystemConfig,
    num_slots: int,
    seed: int,
    workers: int = 1,
    reopen_cleared_channels: bool = False,
) -> OutageEstimate:
    """Per-layer fraction of users not decoded, aggregated over slots.

    Ratio estimator: undecoded users / present users, so slots without
    layer-l arrivals contribute nothing to layer l.  The standard error
    treats slots as iid (delta method for the ratio).
    """
    if any(lam <= 0 for lam in config.arrival_rates):
        raise ValueError("outage estimation needs a positive arrival rate in every layer")
    partials = _map_batches("outage", config, num_slots, seed, workers, reopen_cleared_channels)
    per_layer = []
    for l in range(config.num_layers):
        u = _fsum_field(partials, 0, l)
        c = _fsum_field(partials, 1, l)
        u2 = _fsum_field(partials, 2, l)
        uc = _fsum_field(partials, 3, l)
        c2 = _fsum_field(partials, 4, l)
        if c == 0:
            per_layer.append(EstimatorOutput(float("nan"), float("nan"), num_slots, seed))
            continue
        ratio = u / c
        resid_sq = max(0.0, u2 - 2.0 * ratio * uc + ratio * ratio * c2)
        per_layer.append(EstimatorOutput(ratio, math.sqrt(resid_sq) / c, num_slots, seed))
    return OutageEstimate(per_layer=tuple(per_layer))


def estimate_joint_capture(
    config: SystemConfig, num_slots: int, seed: int, workers: int = 1
) -> JointCaptureEstimate:
    """Decode statistics for channels holding exactly one user per layer.

    Requires a two-layer, single-copy config.  Conditioned on a channel
    with a lone user in each layer, estimates the probability both decode,
    each marginal, and the covariance between the two decode indicators.
    Per-channel user counts are independent across channels (Poisson
    splitting), so the conditioning events are iid samples.
    """
    if config.num_layers != 2:
        raise ValueError(f"joint capture is defined for exactly 2 layers, got {config.num_layers}")
    if config.repetition != 1:
        raise ValueError("joint capture is defined for single-copy transmission (repetition = 1)")
    partials = _map_batches("joint", config, num_slots, seed, workers, False)
    n = _fsum_field(partials, 0)
    sa = _fsum_field(partials, 1)
    sb = _fsum_field(partials, 2)
    sab = _fsum_field(partials, 3)
    if n == 0:
        nan = EstimatorOutput(float("nan"), float("nan"), num_slots, seed)
        return JointCaptureEstimate(nan, nan, nan, float("nan"), float("nan"), 0)
    p1, p2, p11 = sa / n, sb / n, sab / n
    cov = p11 - p1 * p2
    # second moment of (a - p1)(b - p2) over the four cells of the 2x2 table
    p10, p01 = p1 - p11, p2 - p11
    p00 = 1.0 - p1 - p2 + p11
    m2 = (
        p11 * ((1 - p1) * (1 - p2)) ** 2
        + p10 * ((1 - p1) * p2) ** 2
        + p01 * (p1 * (1 - p2)) ** 2
        + p00 * (p1 * p2) ** 2
    )
    cov_se = math.sqrt(max(0.0, m2 - cov * cov) / n)

    def _binom(p):
        return EstimatorOutput(p, math.sqrt(max(0.0, p * (1 - p) / n)), num_slots, seed)

    return JointCaptureEstimate(
        joint=_binom(p11),
        marginal_first=_binom(p1),
        marginal_second=_binom(p2),
        covariance=cov,
        covariance_stderr=cov_se,
        samples=int(n),
    )
