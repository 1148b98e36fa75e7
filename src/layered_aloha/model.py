"""System parameters, validation, the descending power rule, and the
`key = value` settings format.

All powers, gains and noise are linear-scale quantities; decibels only
appear at the CLI boundary (see :func:`db_to_linear`).  A setting's text
is typed by :func:`parse_setting`, for config-file lines and CLI flag
values alike.  Layer indices in every public signature are 1-based:
layer 1 is the highest-power layer and is decoded first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace


# --- input rules, each written once: every function taking a raw input calls these
# before any other use of it; each returns the value or raises a ValueError naming it

def _check_count(name, value, low=1):
    """An int (not a bool, an int subclass) >= low."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
    return value


def _check_seed(name, value, points=1):
    """An int (not a bool) in [0, 2^64 - points]: value + i keys grid point i's streams."""
    if type(value) is not int or not 0 <= value <= 2 ** 64 - points:
        raise ValueError(f"{name} must be an integer in [0, 2^64 - {points}], got {value!r}")
    return value


def _finite(value):
    """math.isfinite, False for a bool or a value that is not a real number."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except TypeError:
        return False


def _check_finite(name, value):
    """Finite, of any sign; NaN, inf and non-numbers fail."""
    if not _finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_positive(name, value):
    """Finite and > 0; NaN, inf and non-numbers fail."""
    if not (_finite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _check_non_negative(name, value):
    """Finite and >= 0; NaN, inf and non-numbers fail."""
    if not (_finite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _check_probability(name, value):
    """Finite and in [0, 1]."""
    if not (_finite(value) and 0 <= value <= 1):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


#: default upper end of the rate search, in bits per channel use
RATE_MAX = 16.0


def _check_rate(name, value, positive=False):
    """Finite, >= 0 (> 0 if `positive`) and < 1024, so that 2**value fits a double."""
    if not (_finite(value) and (value > 0 if positive else value >= 0) and value < 1024):
        raise ValueError(f"{name} must be finite, {'>' if positive else '>='} 0 and < 1024, "
                         f"got {value!r}")
    return value


def _layer_values(name, value, rule) -> tuple[float, ...]:
    """A per-layer value: a number, or a sequence (not a str) of numbers.  Each
    passes `rule` and is then stored as a float."""
    values = tuple(value) if isinstance(value, Iterable) and not isinstance(value, str) else (value,)
    if not values:
        raise ValueError(f"{name} needs at least one value")
    return tuple(float(rule(name, v)) for v in values)


def _occupied_arrival(config, l):
    """Layer l's arrival rate, which outage needs > 0: it conditions on m >= 1 users."""
    lam = config.arrival_rates[config.layer(l)]
    if not lam > 0:
        raise ValueError(f"layer {l} has arrival rate 0; outage conditions on m >= 1 users")
    return lam


def _check_system(num_channels, channel_gain_mean, noise_power):
    """Validate the system scalars, for `SystemConfig` and for
    `allocate_powers`, which reads them before any config exists."""
    _check_count("num_channels", num_channels)
    _check_positive("channel_gain_mean", channel_gain_mean)
    _check_positive("noise_power", noise_power)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one layered random-access system.

    `arrival_rates` (expected active users per slot), `powers` (linear
    scale, > 0) and `rates` (bits per channel use, >= 0) hold one value per
    layer, ordered by decoding position: index 0 is layer 1 (highest power,
    decoded first).  Each is a number or a sequence of numbers, checked
    and stored as a tuple of floats.  Each layer's mean received power,
    power times `channel_gain_mean`, must be a finite double > 0: the
    closed forms divide by it.  ``repetition`` is the number of
    copies B each user transmits on distinct channels (B = 1 means plain
    single-copy access).  ``reopen_cleared_channels`` is the receiver's SIC
    sweep rule: by default a channel stopped by a collision or a failed
    lone copy stays stopped for every deeper layer; when set, it reopens
    once every copy of the layers above it is cancelled (a sensitivity
    study; only the simulator's decoders act on it, the closed forms model
    the default).  Validation happens here; downstream code assumes a
    constructed config is consistent.
    """

    num_channels: int
    arrival_rates: tuple[float, ...]
    powers: tuple[float, ...]
    rates: tuple[float, ...]
    channel_gain_mean: float = 1.0
    noise_power: float = 1.0
    repetition: int = 1
    reopen_cleared_channels: bool = False

    def __post_init__(self):
        _check_system(self.num_channels, self.channel_gain_mean, self.noise_power)
        for field, name, rule in (("arrival_rates", "arrival_rate", _check_non_negative),
                                  ("powers", "power", _check_positive),
                                  ("rates", "rate", _check_rate)):
            object.__setattr__(self, field, _layer_values(name, getattr(self, field), rule))
        if not len(self.arrival_rates) == len(self.powers) == len(self.rates):
            raise ValueError(f"arrival_rates, powers and rates need one value per layer each, got "
                             f"{len(self.arrival_rates)}, {len(self.powers)} and {len(self.rates)}")
        for l, p in enumerate(self.powers, start=1):  # the mean received power, P_l s
            if not 0.0 < p * self.channel_gain_mean < math.inf:
                raise ValueError(f"layer {l}'s powers * gain_mean = {p:g} * "
                                 f"{self.channel_gain_mean:g} is not a finite double > 0")
        if _check_count("repetition", self.repetition) > self.num_channels:
            raise ValueError(f"repetition B={self.repetition} exceeds num_channels={self.num_channels}")
        if not isinstance(self.reopen_cleared_channels, bool):
            raise ValueError(f"reopen_cleared_channels must be a bool, got "
                             f"{self.reopen_cleared_channels!r}")

    @property
    def num_layers(self) -> int:
        return len(self.arrival_rates)

    def layer(self, l: int) -> int:
        """The tuple index, l - 1, of 1-based layer l; the one check of a layer
        index, an int (not a bool) in 1..num_layers."""
        if type(l) is not int or not 1 <= l <= self.num_layers:
            raise ValueError(f"layer index must be in 1..{self.num_layers} and an integer, "
                             f"got {l!r}")
        return l - 1

    def with_rates(self, rates) -> "SystemConfig":
        """Copy of this config with the per-layer rates replaced."""
        return replace(self, rates=rates)


def db_to_linear(x_db: float) -> float:
    """10^(x_db / 10) for a finite `x_db` of any sign.  The one setting in dB
    is `gamma_db`, so that is the name an error gives."""
    try:
        return 10.0 ** (_check_finite("gamma_db", x_db) / 10.0)
    except OverflowError:
        raise ValueError(f"gamma_db = {x_db} dB overflows a double in linear scale") from None


def snr_gap(rate: float) -> float:
    """SINR threshold equivalent to a code rate: 2**rate - 1."""
    return 2.0 ** _check_rate("rate", rate) - 1.0


def collision_prob(m: int, num_channels: int, copies: int = 1) -> float:
    """Probability that a given user's copy collides, given m users in its layer.

    Each of the other m-1 users places `copies` copies uniformly on distinct
    channels, so a given channel is hit by none of them with probability
    (1 - 1/N)**(B(m-1)), formed as exp(B(m-1) log1p(-1/N)): a power of the
    rounded 1 - 1/N would multiply its rounding by B(m-1).
    """
    _check_count("m", m)
    _check_count("num_channels", num_channels)
    if _check_count("copies", copies) > num_channels:
        raise ValueError(f"copies must satisfy 1 <= B <= N, got B={copies}, N={num_channels}")
    if num_channels == 1:  # then B = 1, and log1p(-1) raises: others always collide
        return float(m > 1)
    return 0.0 - math.expm1(copies * (m - 1) * math.log1p(-1.0 / num_channels))


def interference_variance(l: int, config: SystemConfig) -> float:
    """Mean interference-plus-noise power seen by layer l at one channel.

    Each upper-layer user loads 1/N of its power onto a given channel on
    average, so the value is sum_{i>l} sigma_h^2 P_i lambda_i / N + N_0.
    The top layer sees only noise.  ``l`` is 1-based.
    """
    config.layer(l)  # checks the index
    L = config.num_layers
    total = config.noise_power
    for i in range(l, L):  # 0-based layers l..L-1 are the 1-based layers l+1..L
        total += (config.channel_gain_mean * config.powers[i] * config.arrival_rates[i]
                  / config.num_channels)
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
    g = float(_check_positive("gamma", gamma))
    _check_system(num_channels, channel_gain_mean, noise_power)
    lams = _layer_values("arrival_rate", arrival_rates, _check_non_negative)
    L = len(lams)
    powers = [0.0] * L
    for l in range(L - 1, -1, -1):
        var = noise_power
        for i in range(l + 1, L):
            var += channel_gain_mean * powers[i] * lams[i] / num_channels
        powers[l] = g * var / channel_gain_mean
        if not 0.0 < powers[l] < math.inf:  # no power was set, so name what set it
            raise ValueError(f"the power rule gives layer {l + 1} a power of {powers[l]:g}, "
                             "not a finite double > 0: gamma_db, arrival_rate, noise_power "
                             "or gain_mean is out of range")
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

    `arrival_rate`, `rate` and `powers` are each a number (for every layer)
    or a sequence of `num_layers` numbers; a str is refused, not split.
    """
    _check_count("num_layers", num_layers)
    lams = _per_layer("arrival_rate", arrival_rate, num_layers, _check_non_negative)
    rates = _per_layer("rate", rate, num_layers, _check_rate)
    if powers is None:
        pw = allocate_powers(gamma, lams, num_channels, channel_gain_mean, noise_power)
    else:
        pw = _per_layer("powers", powers, num_layers, _check_positive)
    return SystemConfig(num_channels, lams, pw, rates, channel_gain_mean, noise_power, repetition)


def _per_layer(name, value, num_layers: int, rule) -> tuple[float, ...]:
    vals = _layer_values(name, value, rule)
    if len(vals) not in (1, num_layers):
        expected = "1 value" if num_layers == 1 else f"1 or {num_layers} values"
        raise ValueError(f"{name}: expected {expected}, got {len(vals)}")
    return vals * (num_layers // len(vals))


# --- config file format -----------------------------------------------------
#
# Line-oriented `key = value` text, one line per key of `_SETTINGS`.  A '#'
# starts a comment that runs to the end of the line.

def _list_text(text):
    """A comma list of numbers, as a tuple."""
    return tuple(float(p) for p in text.split(",") if p.strip())


def _per_layer_text(text):
    """A per-layer value: one number for every layer, or a comma list of them."""
    vals = _list_text(text)
    return vals[0] if len(vals) == 1 else vals


#: the one list of settings: config-file key -> (parser of its text, CLI flag
#: or None, the flag's help), in the order a sweep's `# config:` line echoes
#: them.  A setting's CSV name is its flag's, with '_' for '-'; `powers`
#: (overriding gamma_db) has no flag.
_SETTINGS = {
    "layers": (int, "--layers", "number of layers"),
    "channels": (int, "--channels", "number of channels per layer"),
    "arrival_rate": (_per_layer_text, "--arrival", "arrival rate per layer (scalar or comma list)"),
    "rate": (_per_layer_text, "--rate", "code rate per layer (scalar or comma list)"),
    "gamma_db": (float, "--gamma-db", "target SINR in dB for power allocation"),
    "repetition": (int, "--copies", "copies per packet (repetition factor B)"),
    "powers": (_list_text, None, None),
    "noise_power": (float, "--noise-power", "noise power (linear), default 1"),
    "gain_mean": (float, "--gain-mean", "mean channel power gain, default 1"),
}


def parse_setting(key: str, text: str):
    """Typed value of setting `key` from its text, on a config line or in a CLI flag."""
    if key not in _SETTINGS:
        raise ValueError(f"unknown key {key!r}")
    return _SETTINGS[key][0](text)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` config text into a dict of typed settings; a key
    set twice is an error."""
    settings, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise ValueError(f"config line {lineno}: {key} is already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            settings[key] = parse_setting(key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return settings


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def design_args(settings: dict) -> dict:
    """The `design_config` arguments that parsed config-file settings give.

    Powers come from the `powers` key when present, otherwise they are
    allocated from `gamma_db` via the descending power rule.  A key outside
    `_SETTINGS` is an error, however the settings were built.
    """
    unknown = sorted(settings.keys() - _SETTINGS.keys())
    if unknown:
        raise ValueError(f"unknown settings keys: {', '.join(unknown)}")
    missing = [k for k in ("layers", "channels", "arrival_rate") if k not in settings]
    if missing:
        raise ValueError(f"config missing required keys: {', '.join(missing)}")
    powers = settings.get("powers")
    if powers is None and "gamma_db" not in settings:
        raise ValueError("config needs either gamma_db or an explicit powers list")
    return dict(
        num_layers=settings["layers"],
        num_channels=settings["channels"],
        arrival_rate=settings["arrival_rate"],
        rate=settings.get("rate", 1.0),
        gamma=1.0 if powers is not None else db_to_linear(settings["gamma_db"]),
        channel_gain_mean=settings.get("gain_mean", 1.0),
        noise_power=settings.get("noise_power", 1.0),
        repetition=settings.get("repetition", 1),
        powers=powers,
    )


def config_from_settings(settings: dict) -> SystemConfig:
    """Build a SystemConfig from parsed config-file settings (see `design_args`)."""
    return design_config(**design_args(settings))
