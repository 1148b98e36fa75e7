"""System parameters, validation, and the descending power rule.

All powers, gains and noise are linear-scale quantities; decibels only
appear at the CLI boundary (see :func:`db_to_linear`).  Layer indices in
every public signature are 1-based: layer 1 is the highest-power layer and
is decoded first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LayerParams:
    """Per-layer design parameters.

    arrival_rate: expected number of active users per slot in this layer.
    power: transmit power of the layer (linear scale, > 0).
    rate: transmission (code) rate in bits per channel use (>= 0).
    """

    arrival_rate: float
    power: float
    rate: float

    def __post_init__(self):
        _check_finite("arrival_rate", self.arrival_rate)
        _check_finite("power", self.power)
        _check_finite("rate", self.rate)
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.power <= 0:
            raise ValueError(f"power must be > 0, got {self.power}")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one layered random-access system.

    layers are ordered by decoding position: ``layers[0]`` is layer 1
    (highest power, decoded first).  ``repetition`` is the number of copies
    B each user transmits on distinct channels (B = 1 means plain
    single-copy access).  Validation happens here; downstream code assumes
    a constructed config is consistent.
    """

    num_channels: int
    layers: tuple[LayerParams, ...]
    channel_gain_mean: float = 1.0
    noise_power: float = 1.0
    repetition: int = 1

    def __post_init__(self):
        if not isinstance(self.num_channels, int) or self.num_channels < 1:
            raise ValueError(f"num_channels must be an integer >= 1, got {self.num_channels!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("need at least one layer")
        for lp in self.layers:
            if not isinstance(lp, LayerParams):
                raise ValueError(f"layers must contain LayerParams, got {lp!r}")
        _check_finite("channel_gain_mean", self.channel_gain_mean)
        _check_finite("noise_power", self.noise_power)
        if self.channel_gain_mean <= 0:
            raise ValueError(f"channel_gain_mean must be > 0, got {self.channel_gain_mean}")
        if self.noise_power <= 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        if not isinstance(self.repetition, int) or not 1 <= self.repetition <= self.num_channels:
            raise ValueError(
                f"repetition must satisfy 1 <= B <= num_channels, got B={self.repetition!r} "
                f"with {self.num_channels} channels"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(lp.arrival_rate for lp in self.layers)

    @property
    def powers(self) -> tuple[float, ...]:
        return tuple(lp.power for lp in self.layers)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(lp.rate for lp in self.layers)

    def with_rates(self, rates) -> "SystemConfig":
        """Copy of this config with the per-layer rates replaced."""
        rates = tuple(float(r) for r in rates)
        if len(rates) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} rates, got {len(rates)}")
        layers = tuple(
            LayerParams(lp.arrival_rate, lp.power, r) for lp, r in zip(self.layers, rates)
        )
        return SystemConfig(
            self.num_channels, layers, self.channel_gain_mean, self.noise_power, self.repetition
        )


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def snr_gap(rate: float) -> float:
    """SINR threshold equivalent to a code rate: 2**rate - 1."""
    if rate < 0 or not math.isfinite(rate):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    return 2.0 ** rate - 1.0


def collision_prob(m: int, num_channels: int, copies: int = 1) -> float:
    """Probability that a given user's copy collides, given m users in its layer.

    Each of the other m-1 users places `copies` copies uniformly on distinct
    channels, so a given channel is hit by none of them with probability
    (1 - 1/N)**(B(m-1)).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    if not 1 <= copies <= num_channels:
        raise ValueError(f"copies must satisfy 1 <= B <= N, got B={copies}, N={num_channels}")
    return 1.0 - (1.0 - 1.0 / num_channels) ** (copies * (m - 1))


def interference_variance(l: int, config: SystemConfig, copies: int = 1) -> float:
    """Mean interference-plus-noise power seen by layer l at one channel.

    With `copies` = B, each upper-layer user loads B/N of its power onto a
    given channel on average, so the value is
    sum_{i>l} sigma_h^2 P_i lambda_i B / N + N_0.  The top layer sees only
    noise.  ``l`` is 1-based.
    """
    L = config.num_layers
    if not 1 <= l <= L:
        raise ValueError(f"layer index must be in 1..{L}, got {l}")
    if not 1 <= copies <= config.num_channels:
        raise ValueError(f"copies must satisfy 1 <= B <= N, got B={copies}")
    total = config.noise_power
    for i in range(l, L):  # 0-based layers l..L-1 are the 1-based layers l+1..L
        lp = config.layers[i]
        total += config.channel_gain_mean * lp.power * lp.arrival_rate * copies / config.num_channels
    return total


def allocate_powers(
    gamma: float,
    arrival_rates,
    num_channels: int,
    channel_gain_mean: float = 1.0,
    noise_power: float = 1.0,
) -> tuple[float, ...]:
    """Descending power allocation holding each layer's average SINR at gamma.

    Working from the top layer down, P_l = gamma * sigma_bar_l^2 / sigma_h^2
    where sigma_bar_l^2 = sum_{i>l} sigma_h^2 P_i lambda_i / N + N_0 uses the
    already-fixed upper-layer powers.  By construction
    P_l * sigma_h^2 / sigma_bar_l^2 == gamma for every layer, and the powers
    are non-increasing (strictly decreasing below any loaded layer).
    """
    g = float(gamma)
    if g <= 0 or not math.isfinite(g):
        raise ValueError(f"gamma must be finite and > 0, got {g}")
    lams = [float(x) for x in arrival_rates]
    L = len(lams)
    if L < 1:
        raise ValueError("need at least one layer")
    powers = [0.0] * L
    for l in range(L - 1, -1, -1):
        var = noise_power
        for i in range(l + 1, L):
            var += channel_gain_mean * powers[i] * lams[i] / num_channels
        powers[l] = g * var / channel_gain_mean
    return tuple(powers)


def design_config(
    num_layers: int,
    num_channels: int,
    arrival_rate,
    rate,
    gamma: float,
    channel_gain_mean: float = 1.0,
    noise_power: float = 1.0,
    repetition: int = 1,
    powers=None,
) -> SystemConfig:
    """Build a SystemConfig, deriving powers from gamma unless given explicitly.

    `arrival_rate` and `rate` may be scalars (applied to every layer) or
    per-layer sequences of length `num_layers`.
    """
    lams = _per_layer(arrival_rate, num_layers, "arrival_rate")
    rates = _per_layer(rate, num_layers, "rate")
    if powers is None:
        pw = allocate_powers(gamma, lams, num_channels, channel_gain_mean, noise_power)
    else:
        pw = _per_layer(powers, num_layers, "powers")
    layers = tuple(LayerParams(a, p, r) for a, p, r in zip(lams, pw, rates))
    return SystemConfig(num_channels, layers, channel_gain_mean, noise_power, repetition)


def _per_layer(value, num_layers: int, name: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in value)
    except TypeError:
        return (float(value),) * num_layers
    if len(vals) == 1:
        return vals * num_layers
    if len(vals) != num_layers:
        raise ValueError(f"{name}: expected 1 or {num_layers} values, got {len(vals)}")
    return vals


# --- config file format -----------------------------------------------------
#
# Line-oriented `key = value` text.  Keys: layers, channels, arrival_rate,
# rate (scalar or comma-separated per-layer list), gamma_db, noise_power,
# gain_mean, repetition, powers (optional comma list, overrides gamma_db).
# Blank lines and lines starting with '#' are ignored.

_SCALAR_KEYS = {"gamma_db", "noise_power", "gain_mean"}
_INT_KEYS = {"layers", "channels", "repetition"}
_LIST_KEYS = {"arrival_rate", "rate", "powers"}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` config text into a dict of typed settings."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _INT_KEYS:
                settings[key] = int(value)
            elif key in _SCALAR_KEYS:
                settings[key] = float(value)
            elif key in _LIST_KEYS:
                parts = [p for p in value.split(",") if p.strip()]
                vals = tuple(float(p) for p in parts)
                settings[key] = vals[0] if len(vals) == 1 and key != "powers" else vals
            else:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return settings


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_from_settings(settings: dict) -> SystemConfig:
    """Build a SystemConfig from parsed config-file settings.

    Powers come from the `powers` key when present, otherwise they are
    allocated from `gamma_db` via the descending power rule.
    """
    missing = [k for k in ("layers", "channels", "arrival_rate") if k not in settings]
    if missing:
        raise ValueError(f"config missing required keys: {', '.join(missing)}")
    powers = settings.get("powers")
    gamma_db = settings.get("gamma_db")
    if powers is None and gamma_db is None:
        raise ValueError("config needs either gamma_db or an explicit powers list")
    gamma = db_to_linear(gamma_db) if gamma_db is not None else None
    return design_config(
        num_layers=settings["layers"],
        num_channels=settings["channels"],
        arrival_rate=settings["arrival_rate"],
        rate=settings.get("rate", 1.0),
        gamma=gamma if powers is None else 1.0,
        channel_gain_mean=settings.get("gain_mean", 1.0),
        noise_power=settings.get("noise_power", 1.0),
        repetition=settings.get("repetition", 1),
        powers=powers,
    )
