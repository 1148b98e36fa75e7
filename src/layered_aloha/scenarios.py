"""Named parameter-sweep scenarios with deterministic CSV output.

Each scenario fixes a system family, sweeps one variable over a grid, and
emits one CSV row per (grid point, layer) plus a total row where the
quantity has a meaningful total.  The system is held as the settings a
config file gives (`layers`, `channels`, `arrival_rate`, `rate`,
`gamma_db`, `repetition`, ...); a grid point sets the swept one.  Output
is fully reproducible: rows carry the per-point seed, the header comments
echo the configuration, and re-running a scenario with the same seed
yields byte-identical text.

CSV schema (column order is part of the format):

    scenario,x_name,x_value,layer,quantity,value,stderr,slots,seed

`layer` is a 1-based index or ``total``; `stderr`, `slots` and `seed` are
empty for closed-form rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from . import __version__
from .model import (_SETTINGS, RATE_MAX, SystemConfig, _check_count, _check_seed, db_to_linear,
                    design_args, design_config)
from .optimize import optimize_arrivals, optimize_rates
from .outage import outage
from .simulate import SAMPLING_CONTRACT, estimate_outage, estimate_throughput
from .throughput import (
    baseline_aloha_max,
    baseline_irsa,
    sla_layer_contributions,
    throughput,
)

VERSION = f"layered-aloha {__version__}"

CSV_HEADER = "scenario,x_name,x_value,layer,quantity,value,stderr,slots,seed"

QUANTITIES = frozenset(
    {
        "analytic_throughput",
        "simulated_throughput",
        "bound_throughput",
        "analytic_outage",
        "simulated_outage",
        "capture_exact",
        "capture_bound",
        "power_mean",
        "baseline_irsa",
        "baseline_aloha",
    }
)


class GridError(ValueError):
    """A scenario grid that breaks a grid rule (the CLI names `--grid` for it)."""


@dataclass(frozen=True)
class Scenario:
    """One sweep: fixed system family, grid over a single variable.

    `kind` names an entry of `KINDS`, which fixes how each grid point
    becomes rows; `sweep` is the config-file key each grid point sets.
    `settings` holds the system as config-file settings (see
    `model.parse_config_text`); without a `rate`, throughput kinds
    optimize the rates at every grid point.  Grid point i simulates with
    `seed + i`, so the seed rule covers the whole grid, whatever the outputs.
    """

    name: str
    description: str
    kind: str
    sweep: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]
    slots: int
    seed: int
    settings: dict
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        # its own copy, so no other scenario (a registry entry, say) shares the dict
        object.__setattr__(self, "settings", dict(self.settings))
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.sweep not in _SETTINGS:
            raise ValueError(f"cannot sweep {self.sweep!r}: not a config-file key")
        kind = KINDS[self.kind]
        power_rule = () if "powers" in self.settings else ("gamma_db",)
        missing = sorted({"layers", "channels", "arrival_rate", *kind.reads, *power_rule}
                         - self.settings.keys() - {self.sweep})
        if missing:
            raise ValueError(f"{self.name} needs {', '.join(missing)} (flags or config file)")
        if self.sweep == "gamma_db" and "powers" in self.settings:
            raise ValueError(f"{self.name}: powers would override the power rule at every "
                             "gamma_db grid point")
        if not self.grid:
            raise GridError("scenario grid must be non-empty")
        for a, b in zip(self.grid, self.grid[1:]):
            if not a < b:  # a repeated point would write its rows twice
                raise GridError(f"scenario grid must be strictly increasing, got {a!r} then {b!r}")
        if self.integer and not all(float(x).is_integer() for x in self.grid):
            raise GridError(f"{self.x_name} grid points must be whole numbers, got {list(self.grid)}")
        _check_count("slots", self.slots)
        _check_seed(f"seed of a {len(self.grid)}-point grid, point i using seed + i", self.seed,
                    len(self.grid))
        made = kind.outputs
        bad = [o for o in self.outputs if o not in made]
        if bad:
            raise ValueError(f"outputs {','.join(bad)}: kind {self.kind} makes only {','.join(made)}")
        if len(set(self.outputs)) < len(self.outputs):  # each output's rows are written once
            raise ValueError(f"outputs {','.join(self.outputs)} name an output twice")

    @property
    def x_name(self) -> str:
        """The swept variable, as named in the CSV: its flag with '_' for '-', or
        its key if it has no flag."""
        flag = _SETTINGS[self.sweep][1]
        return flag[2:].replace("-", "_") if flag else self.sweep

    @property
    def integer(self) -> bool:
        """Whether grid points must be whole numbers: an integer setting is swept."""
        return _SETTINGS[self.sweep][0] is int


@dataclass(frozen=True)
class Row:
    x_value: float
    layer: str
    quantity: str
    value: float
    stderr: float | None = None
    slots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """Rows of a run plus `notes` found while computing them (optimizer
    bound hits), echoed as `# note:` header lines after the scenario's own.

    `config` is the system a one-point run simulated; when set, the
    `# config:` line echoes it in place of the scenario's parameters, and
    there is no `# sweep:` line.
    """

    scenario: Scenario
    rows: tuple[Row, ...]
    notes: tuple[str, ...] = ()
    config: SystemConfig | None = None

    def to_csv(self) -> str:
        s = self.scenario
        sweep = f"# sweep: {s.x_name} over {_fmt(s.grid[0])}..{_fmt(s.grid[-1])} ({len(s.grid)} points)"
        lines = [
            f"# scenario: {s.name}",
            f"# description: {s.description}",
            f"# version: {VERSION}",
            f"# sampling_contract: {SAMPLING_CONTRACT}",
            f"# seed: {s.seed}",
            f"# slots: {s.slots}",
            f"# outputs: {','.join(s.outputs)}",
            *([sweep] if self.config is None else []),
            "# config: " + " ".join(self._config_echo()),
        ]
        lines.extend(f"# note: {n}" for n in s.notes + self.notes)
        lines.append(CSV_HEADER)
        lines.extend(self._data_lines())
        return "\n".join(lines) + "\n"

    def _config_echo(self) -> list[str]:
        c = self.config
        if c is not None:
            # the receiver switch is echoed only when on, so a default run's line
            # stays as it was
            return [f"layers={c.num_layers}", f"channels={c.num_channels}",
                    f"arrival_rate={_fmt_all(c.arrival_rates)}", f"rate={_fmt_all(c.rates)}",
                    f"power={_fmt_all(c.powers)}", f"noise_power={_fmt(c.noise_power)}",
                    f"gain_mean={_fmt(c.channel_gain_mean)}", f"repetition={c.repetition}",
                    *(["reopen_cleared_channels=true"] if c.reopen_cleared_channels else [])]
        s = self.scenario
        shown = ({"rate": "optimized", "repetition": "1"}
                 | {k: _fmt_setting(v) for k, v in s.settings.items()}
                 | {s.sweep: "sweep"})
        return [f"{k}={shown[k]}" for k in _SETTINGS if k in shown]

    def _data_lines(self) -> list[str]:
        s = self.scenario
        lines = []
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        s.name,
                        s.x_name,
                        _fmt(r.x_value),
                        r.layer,
                        r.quantity,
                        _fmt(r.value),
                        "" if r.stderr is None else _fmt(r.stderr),
                        "" if r.slots is None else str(r.slots),
                        "" if r.seed is None else str(r.seed),
                    ]
                )
            )
        return lines


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _fmt_all(values) -> str:
    return ",".join(map(_fmt, values))


def _fmt_setting(v) -> str:
    return _fmt_all(v) if isinstance(v, tuple) else str(v) if isinstance(v, int) else _fmt(v)


# --- row producers ------------------------------------------------------------
#
# Each takes (scenario, the SystemConfig at grid point x, x, seed, workers)
# and returns (rows, 1-based layers whose optimized rate hit the search
# bound).


def _throughput_rows(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int,
                     captures: bool = False):
    hits: tuple[int, ...] = ()
    if "rate" not in s.settings and s.sweep != "rate":  # rates neither fixed nor swept
        plan = optimize_rates(config)
        config, hits = config.with_rates(plan.optimal_rates), plan.bound_hits
    rows = []
    if "analytic" in s.outputs:
        report = throughput(config)
        for l in range(config.num_layers):
            rows.append(Row(x, str(l + 1), "analytic_throughput", report.layer_throughput[l]))
            if captures:
                rows.append(Row(x, str(l + 1), "capture_exact", report.capture_exact[l]))
                rows.append(Row(x, str(l + 1), "capture_bound", report.capture_bound[l]))
        rows.append(Row(x, "total", "analytic_throughput", report.total_throughput))
    if "simulated" in s.outputs:
        est = estimate_throughput(config, s.slots, seed, workers=workers)
        for l, out in enumerate(est.per_layer):
            rows.append(
                Row(x, str(l + 1), "simulated_throughput", out.value, out.stderr, s.slots, seed)
            )
        rows.append(
            Row(x, "total", "simulated_throughput", est.total.value, est.total.stderr, s.slots, seed)
        )
    return rows, hits


def _outage_rows(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int):
    rows = []
    if "analytic" in s.outputs:
        rep = outage(config)
        for l in range(config.num_layers):
            rows.append(Row(x, str(l + 1), "analytic_outage", rep.outage[l]))
    if "simulated" in s.outputs:
        est = estimate_outage(config, s.slots, seed, workers=workers)
        for l, out in enumerate(est.per_layer):
            rows.append(Row(x, str(l + 1), "simulated_outage", out.value, out.stderr, s.slots, seed))
    return rows, ()


def _packet_rows(s: Scenario, config: SystemConfig, x: float, *_):
    rows = []
    if "bound" in s.outputs:
        p = s.settings | {s.sweep: x}  # the rate or gamma_db may be the swept setting
        rate, gamma = p["rate"], db_to_linear(p["gamma_db"])
        plan = optimize_arrivals(config.num_layers, config.num_channels, rate, gamma)
        contribs = sla_layer_contributions(config.num_channels, plan.optimal_tau, rate, gamma)
        rows = [Row(x, str(l + 1), "bound_throughput", c) for l, c in enumerate(contribs)]
        rows.append(Row(x, "total", "bound_throughput", plan.value))
    if "baselines" in s.outputs:
        rows.append(Row(x, "total", "baseline_aloha", baseline_aloha_max(config.num_channels)))
        rows.append(Row(x, "total", "baseline_irsa", baseline_irsa(config.num_channels)))
    return rows, ()


def _power_row(s: Scenario, config: SystemConfig, x: float, *_):
    return [Row(x, "total", "power_mean", sum(config.powers) / config.num_layers)], ()


class Kind(NamedTuple):
    """Which producer turns a grid point into rows, the outputs that
    producer can make, and the settings it reads besides the system's."""

    rows: Callable
    outputs: tuple[str, ...]
    reads: tuple[str, ...] = ()  # e.g. a fixed rate, unless the rate is swept


_SIMULATED = ("analytic", "simulated")

KINDS = {
    "throughput": Kind(_throughput_rows, _SIMULATED),
    # one configuration, as the `simulate` command reports it: the throughput
    # rows with each layer's capture probabilities after its analytic row
    "simulate": Kind(partial(_throughput_rows, captures=True), _SIMULATED),
    "power": Kind(_power_row, ("analytic",)),
    "packets": Kind(_packet_rows, ("bound", "baselines"), ("rate", "gamma_db")),
    "outage": Kind(_outage_rows, _SIMULATED, ("rate",)),
}


def _point_config(s: Scenario, x: float) -> SystemConfig:
    """The system at grid point x: the scenario's settings with the swept one set to x.
    A missing rate takes `design_args`' default until the throughput rows optimize it."""
    p = s.settings | {s.sweep: int(x) if s.integer else x}
    return design_config(**design_args(p))


def _bound_note(s: Scenario, x: float, hits: tuple[int, ...]) -> str:
    """Note for a grid point whose optimized rates hit the search bound."""
    layers = ", ".join(map(str, hits))
    return (f"{s.x_name}={_fmt(x)}: optimized rate of layer(s) {layers} at the search bound "
            f"{_fmt(RATE_MAX)}")


def run_point(s: Scenario, config: SystemConfig, x: float, seed: int,
              workers: int = 1) -> tuple[list[Row], list[str]]:
    """Rows of scenario `s` at grid point x, computed on `config`, and the
    note for the point if its optimized rates hit the search bound.
    Simulations use `seed`."""
    rows, hits = KINDS[s.kind].rows(s, config, x, seed, workers)
    return rows, [_bound_note(s, x, hits)] if hits else []


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioResult:
    """Evaluate every grid point of a scenario and collect the CSV rows.

    Grid point i uses seed `scenario.seed + i` for its simulations, echoed
    in the rows; `Scenario` checks the whole range of per-point seeds, and
    the system at every point is checked up front, so a bad point late in
    the grid costs no computation.  A grid point whose optimized rates hit
    the search bound gets a note in the result.
    """
    s = scenario
    # each point is built again at its turn: holding every point's config
    # would cost memory in the sum of their layer counts
    for x in s.grid:
        _point_config(s, x)
    rows: list[Row] = []
    notes: list[str] = []
    for i, x in enumerate(s.grid):
        point_rows, point_notes = run_point(s, _point_config(s, x), x, s.seed + i, workers)
        rows.extend(point_rows)
        notes.extend(point_notes)
    return ScenarioResult(scenario=s, rows=tuple(rows), notes=tuple(notes))


#: most points a `start:stop:step` grid may have; the registry's largest has 60
_MAX_GRID_POINTS = 100_000


def _float_grid(lo, hi, step):
    """lo, then each lo + k step (k = 1, 2, ...; counted to 1e-9 steps) rounded to 10
    decimals, which cancels the float error of forming it, and held at most hi."""
    n = math.floor((hi - lo) / step + 1e-9)
    return (lo, *(min(round(lo + k * step, 10), hi) for k in range(1, n + 1)))


def parse_grid(text: str) -> tuple[float, ...]:
    """`--grid` text as grid points: a comma list, or a `start:stop:step` range
    of `_float_grid` points. Every refusal is a `GridError`."""
    is_range = ":" in text
    parts = text.split(":") if is_range else [v for v in text.split(",") if v.strip()]
    if is_range and len(parts) != 3:
        raise GridError(f"grid must be 'start:stop:step' or a comma list, got {text!r}")
    try:
        points = tuple(map(float, parts))
    except ValueError as exc:
        raise GridError(str(exc)) from None
    if not points:
        raise GridError("empty grid")
    if not is_range:
        return points
    start, stop, step = points
    if not all(map(math.isfinite, points)) or step <= 0 or stop < start:
        raise GridError(f"bad grid range {text!r}")
    if step < 1e-10:  # points that round to 10 decimals would repeat
        raise GridError(f"grid step {step:g} in {text!r} is below 1e-10, the resolution "
                        "of grid points, so they may not be strictly increasing")
    if (stop - start) / step >= _MAX_GRID_POINTS:  # floor of it, plus 1, is the point count
        raise GridError(f"grid range {text!r} has more than {_MAX_GRID_POINTS} points")
    return _float_grid(start, stop, step)


def build_registry() -> dict[str, Scenario]:
    reg = {}

    def add(s: Scenario):
        reg[s.name] = s

    for suffix, L in (("", 3), ("-l6", 6)):
        add(Scenario(
            name=f"throughput-vs-arrival{suffix}",
            description=f"per-layer and total throughput vs arrival rate; {L} layers, "
                        "10 channels, target SINR 3 dB, rates optimized per point",
            kind="throughput", sweep="arrival_rate", grid=_float_grid(1, 14, 1),
            outputs=("analytic", "simulated"), slots=20000, seed=20230,
            settings=dict(layers=L, channels=10, gamma_db=3.0),
        ))
        add(Scenario(
            name=f"power-vs-arrival{suffix}",
            description=f"average allocated transmit power vs arrival rate; {L} layers, "
                        "10 channels, target SINR 3 dB",
            kind="power", sweep="arrival_rate", grid=_float_grid(1, 14, 1),
            outputs=("analytic",), slots=1, seed=0,
            settings=dict(layers=L, channels=10, gamma_db=3.0),
        ))
        add(Scenario(
            name=f"throughput-vs-rate{suffix}",
            description=f"total throughput vs a common per-layer rate; {L} layers, "
                        "10 channels, arrival 10 per layer, target SINR 3 dB",
            kind="throughput", sweep="rate", grid=_float_grid(0.1, 6.0, 0.1),
            outputs=("analytic",), slots=1, seed=0,
            settings=dict(layers=L, channels=10, arrival_rate=10.0, gamma_db=3.0),
        ))
        add(Scenario(
            name=f"throughput-vs-gamma{suffix}",
            description=f"total throughput vs target SINR; {L} layers, 10 channels, "
                        "arrival 10 per layer, rates optimized per point",
            kind="throughput", sweep="gamma_db", grid=_float_grid(0, 12, 1),
            outputs=("analytic", "simulated"), slots=20000, seed=20600,
            settings=dict(layers=L, channels=10, arrival_rate=10.0),
        ))
    for suffix, lam in (("", 5.0), ("-full", 10.0)):
        add(Scenario(
            name=f"throughput-vs-layers{suffix}",
            description="total throughput vs number of layers; 10 channels, "
                        f"arrival {lam:g} per layer, target SINR 3 dB, optimized rates",
            kind="throughput", sweep="layers", grid=_float_grid(1, 8, 1),
            outputs=("analytic", "simulated"), slots=20000, seed=20700,
            settings=dict(channels=10, arrival_rate=lam, gamma_db=3.0),
        ))
    add(Scenario(
        name="compare-irsa",
        description="decoded-packet lower bound vs number of layers, arrivals "
                    "optimized per layer, against multichannel-ALOHA and IRSA "
                    "reference constants; 10 channels, common rate 1",
        kind="packets", sweep="layers", grid=_float_grid(1, 8, 1),
        outputs=("bound", "baselines"), slots=1, seed=0,
        settings=dict(channels=10, arrival_rate=0.0, rate=1.0, gamma_db=10.0),
        notes=("target SINR 10 dB assumed for the layer sweep",),
    ))
    for suffix, L in (("", 3), ("-l4", 4)):
        add(Scenario(
            name=f"compare-irsa-scaling{suffix}",
            description=f"decoded-packet lower bound vs number of channels; {L} layers, "
                        "common rate 1, target SINR 10 dB, optimized arrivals",
            kind="packets", sweep="channels", grid=_float_grid(10, 100, 10),
            outputs=("bound", "baselines"), slots=1, seed=0,
            settings=dict(layers=L, arrival_rate=0.0, rate=1.0, gamma_db=10.0),
        ))
    add(Scenario(
        name="outage-vs-rate",
        description="per-layer outage vs common rate under 4-copy repetition; "
                    "3 layers, 60 channels, arrival 3 per layer, target SINR 10 dB",
        kind="outage", sweep="rate", grid=_float_grid(0.2, 2.0, 0.2),
        outputs=("analytic", "simulated"), slots=20000, seed=20900,
        settings=dict(layers=3, channels=60, arrival_rate=3.0, gamma_db=10.0, repetition=4),
    ))
    add(Scenario(
        name="outage-vs-copies",
        description="per-layer outage vs repetition factor; 3 layers, 60 channels, "
                    "arrival 3 per layer, common rate 1, target SINR 10 dB",
        kind="outage", sweep="repetition", grid=_float_grid(1, 12, 1),
        outputs=("analytic", "simulated"), slots=20000, seed=21000,
        settings=dict(layers=3, channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0),
    ))
    add(Scenario(
        name="outage-vs-arrival",
        description="per-layer outage vs arrival rate under 4-copy repetition; "
                    "3 layers, 60 channels, common rate 1, target SINR 10 dB",
        kind="outage", sweep="arrival_rate", grid=_float_grid(1, 10, 1),
        outputs=("analytic", "simulated"), slots=20000, seed=21100,
        settings=dict(layers=3, channels=60, rate=1.0, gamma_db=10.0, repetition=4),
    ))
    return reg


SCENARIOS = build_registry()


def get_scenario(name: str, slots: int | None = None, seed: int | None = None) -> Scenario:
    try:
        s = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return replace(s, slots=s.slots if slots is None else slots,
                   seed=s.seed if seed is None else seed)
