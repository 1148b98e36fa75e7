"""Named parameter-sweep scenarios with deterministic CSV output.

Each scenario fixes a system family, sweeps one variable over a grid, and
emits one CSV row per (grid point, layer) plus a total row where the
quantity has a meaningful total.  Output is fully reproducible: rows carry
the per-point seed, the header comments echo the configuration, and
re-running a scenario with the same seed yields byte-identical text.

CSV schema (column order is part of the format):

    scenario,x_name,x_value,layer,quantity,value,stderr,slots,seed

`layer` is a 1-based index or ``total``; `stderr`, `slots` and `seed` are
empty for closed-form rows.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .model import SystemConfig, db_to_linear, design_config
from .optimize import SearchSettings, optimize_arrivals, optimize_rates
from .outage import outage
from .simulate import SAMPLING_CONTRACT, estimate_outage, estimate_throughput
from .throughput import (
    baseline_aloha_max,
    baseline_irsa,
    sla_layer_contributions,
    throughput,
)

VERSION = "layered-aloha 0.1.0"

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

OUTPUT_KINDS = ("analytic", "simulated", "bound", "baselines")


@dataclass(frozen=True)
class Scenario:
    """One sweep: fixed system family, grid over a single variable.

    `kind` names an entry of `KINDS`, which fixes the swept variable and
    how each grid point becomes rows.
    """

    name: str
    description: str
    kind: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]
    slots: int
    seed: int
    num_layers: int
    num_channels: int
    arrival_rate: float
    rate: float | None  # None means rates are optimized at every grid point
    gamma_db: float
    repetition: int = 1
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.grid:
            raise ValueError("scenario grid must be non-empty")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("scenario grid must be sorted")
        if KINDS[self.kind].integer and not all(float(x).is_integer() for x in self.grid):
            raise ValueError(f"{self.x_name} grid points must be whole numbers, got {list(self.grid)}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        bad = set(self.outputs) - set(OUTPUT_KINDS)
        if bad:
            raise ValueError(f"unknown outputs: {sorted(bad)}")

    @property
    def x_name(self) -> str:
        """The swept variable, as named in the CSV."""
        return KINDS[self.kind].x_name


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
    bound hits), echoed as `# note:` header lines after the scenario's own."""

    scenario: Scenario
    rows: tuple[Row, ...]
    notes: tuple[str, ...] = ()

    def to_csv(self) -> str:
        s = self.scenario
        lines = [
            f"# scenario: {s.name}",
            f"# description: {s.description}",
            f"# version: {VERSION}",
            f"# sampling_contract: {SAMPLING_CONTRACT}",
            f"# seed: {s.seed}",
            f"# slots: {s.slots}",
            f"# outputs: {','.join(s.outputs)}",
            f"# sweep: {s.x_name} over {_fmt(s.grid[0])}..{_fmt(s.grid[-1])} ({len(s.grid)} points)",
            "# config: " + " ".join(self._config_echo()),
        ]
        lines.extend(f"# note: {n}" for n in s.notes + self.notes)
        lines.append(CSV_HEADER)
        lines.extend(self._data_lines())
        return "\n".join(lines) + "\n"

    def _config_echo(self) -> list[str]:
        s = self.scenario
        fields = {  # Scenario field: (echoed name, value)
            "num_layers": ("layers", str(s.num_layers)),
            "num_channels": ("channels", str(s.num_channels)),
            "arrival_rate": ("arrival_rate", _fmt(s.arrival_rate)),
            "rate": ("rate", "optimized" if s.rate is None else _fmt(s.rate)),
            "gamma_db": ("gamma_db", _fmt(s.gamma_db)),
            "repetition": ("repetition", str(s.repetition)),
        }
        swept = KINDS[s.kind].field
        return [f"{name}={'sweep' if field == swept else value}"
                for field, (name, value) in fields.items()]

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


# --- row producers ------------------------------------------------------------
#
# Each takes (scenario, the SystemConfig at grid point x, x, seed, workers,
# reopen_cleared_channels) and returns (rows, 1-based layers whose optimized
# rate or arrival hit the search bound).


def _throughput_rows(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int,
                     reopen: bool, captures: bool = False):
    hits: tuple[int, ...] = ()
    if s.rate is None and KINDS[s.kind].field != "rate":  # rates neither fixed nor swept
        plan = optimize_rates(config, SearchSettings())
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
        est = estimate_throughput(config, s.slots, seed, workers=workers,
                                  reopen_cleared_channels=reopen)
        for l, out in enumerate(est.per_layer):
            rows.append(
                Row(x, str(l + 1), "simulated_throughput", out.value, out.stderr, s.slots, seed)
            )
        rows.append(
            Row(x, "total", "simulated_throughput", est.total.value, est.total.stderr, s.slots, seed)
        )
    return rows, hits


def _outage_rows(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int,
                 reopen: bool):
    rows = []
    if "analytic" in s.outputs:
        rep = outage(config)
        for l in range(config.num_layers):
            rows.append(Row(x, str(l + 1), "analytic_outage", rep.outage[l]))
    if "simulated" in s.outputs:
        est = estimate_outage(config, s.slots, seed, workers=workers,
                              reopen_cleared_channels=reopen)
        for l, out in enumerate(est.per_layer):
            rows.append(Row(x, str(l + 1), "simulated_outage", out.value, out.stderr, s.slots, seed))
    return rows, ()


def _packet_rows(s: Scenario, config: SystemConfig, x: float, *_):
    gamma = db_to_linear(s.gamma_db)
    plan = optimize_arrivals(config.num_layers, config.num_channels, s.rate, gamma)
    contribs = sla_layer_contributions(config.num_channels, plan.optimal_tau, s.rate, gamma)
    rows = [Row(x, str(l + 1), "bound_throughput", c) for l, c in enumerate(contribs)]
    rows.append(Row(x, "total", "bound_throughput", plan.value))
    if "baselines" in s.outputs:
        rows.append(Row(x, "total", "baseline_aloha", baseline_aloha_max(config.num_channels)))
        rows.append(Row(x, "total", "baseline_irsa", baseline_irsa(config.num_channels)))
    return rows, plan.bound_hits


def _power_row(s: Scenario, config: SystemConfig, x: float, *_):
    return [Row(x, "total", "power_mean", sum(config.powers) / config.num_layers)], ()


class Kind(NamedTuple):
    """What a scenario kind sweeps and which producer turns a grid point into rows."""

    x_name: str  # swept variable, as named in the CSV
    field: str  # the Scenario field it sets at each grid point
    integer: bool  # grid points must be whole numbers
    rows: Callable


KINDS = {
    "throughput": Kind("arrival", "arrival_rate", False, _throughput_rows),
    "rate": Kind("rate", "rate", False, _throughput_rows),
    "gamma": Kind("gamma_db", "gamma_db", False, _throughput_rows),
    "layers": Kind("layers", "num_layers", True, _throughput_rows),
    "power": Kind("arrival", "arrival_rate", False, _power_row),
    "packets_layers": Kind("layers", "num_layers", True, _packet_rows),
    "packets_channels": Kind("channels", "num_channels", True, _packet_rows),
    "outage_rate": Kind("rate", "rate", False, _outage_rows),
    "outage_copies": Kind("copies", "repetition", True, _outage_rows),
    "outage_arrival": Kind("arrival", "arrival_rate", False, _outage_rows),
    # one configuration, as the `simulate` command reports it: the throughput
    # rows with each layer's capture probabilities after its analytic row
    "simulate": Kind("arrival", "arrival_rate", False, partial(_throughput_rows, captures=True)),
}


def _point_config(s: Scenario, x: float) -> SystemConfig:
    """The system at grid point x: the scenario's parameters with the swept one set to x."""
    kind = KINDS[s.kind]
    p = vars(s) | {kind.field: int(x) if kind.integer else x}
    return design_config(p["num_layers"], p["num_channels"], p["arrival_rate"],
                         0.0 if p["rate"] is None else p["rate"], db_to_linear(p["gamma_db"]),
                         repetition=p["repetition"])


def _bound_note(s: Scenario, x: float, hits: tuple[int, ...]) -> str:
    """Note for a grid point whose optimized rates or arrivals hit the search bound."""
    search = SearchSettings()
    what, bound = (("arrival", search.arrival_max) if KINDS[s.kind].rows is _packet_rows
                   else ("rate", search.rate_max))
    layers = ", ".join(map(str, hits))
    return f"{s.x_name}={_fmt(x)}: optimized {what} of layer(s) {layers} at the search bound {_fmt(bound)}"


def run_point(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int = 1,
              reopen_cleared_channels: bool = False) -> tuple[list[Row], list[str]]:
    """Rows of scenario `s` at grid point x, computed on `config`, and the
    note for the point if its optimized rates or arrivals hit the search
    bound.  Simulations use `seed`; `reopen_cleared_channels` selects the
    alternative SIC semantics of the estimators."""
    rows, hits = KINDS[s.kind].rows(s, config, x, seed, workers, reopen_cleared_channels)
    return rows, [_bound_note(s, x, hits)] if hits else []


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioResult:
    """Evaluate every grid point of a scenario and collect the CSV rows.

    Grid point i uses seed `scenario.seed + i` for its simulations, echoed
    in the rows; the whole range of per-point seeds is checked up front.
    A grid point whose optimized rates or arrivals hit the search bound
    gets a note in the result.
    """
    s = scenario
    if "simulated" in s.outputs and not 0 <= s.seed <= 2 ** 64 - len(s.grid):
        raise ValueError(
            f"seed {s.seed} does not fit a {len(s.grid)}-point grid: point i simulates "
            f"with seed + i, so the seed must lie in [0, 2^64 - {len(s.grid)}]"
        )
    rows: list[Row] = []
    notes: list[str] = []
    for i, x in enumerate(s.grid):
        point_rows, point_notes = run_point(s, _point_config(s, x), x, s.seed + i, workers)
        rows.extend(point_rows)
        notes.extend(point_notes)
    return ScenarioResult(scenario=s, rows=tuple(rows), notes=tuple(notes))


def _scenario(**kw) -> Scenario:
    kw.setdefault("repetition", 1)
    kw.setdefault("notes", ())
    return Scenario(**kw)


def _int_grid(lo, hi, step=1):
    return tuple(float(v) for v in range(lo, hi + 1, step))


def _float_grid(lo, hi, step):
    n = int(round((hi - lo) / step))
    return tuple(round(lo + k * step, 10) for k in range(n + 1))


def build_registry() -> dict[str, Scenario]:
    reg = {}

    def add(s: Scenario):
        reg[s.name] = s

    for suffix, L in (("", 3), ("-l6", 6)):
        add(_scenario(
            name=f"throughput-vs-arrival{suffix}",
            description=f"per-layer and total throughput vs arrival rate; {L} layers, "
                        "10 channels, target SINR 3 dB, rates optimized per point",
            kind="throughput", grid=_int_grid(1, 14),
            outputs=("analytic", "simulated"), slots=20000, seed=20230,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=None, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"power-vs-arrival{suffix}",
            description=f"average allocated transmit power vs arrival rate; {L} layers, "
                        "10 channels, target SINR 3 dB",
            kind="power", grid=_int_grid(1, 14),
            outputs=("analytic",), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=None, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"throughput-vs-rate{suffix}",
            description=f"total throughput vs a common per-layer rate; {L} layers, "
                        "10 channels, arrival 10 per layer, target SINR 3 dB",
            kind="rate", grid=_float_grid(0.1, 6.0, 0.1),
            outputs=("analytic",), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=10.0, rate=1.0, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"throughput-vs-gamma{suffix}",
            description=f"total throughput vs target SINR; {L} layers, 10 channels, "
                        "arrival 10 per layer, rates optimized per point",
            kind="gamma", grid=_int_grid(0, 12),
            outputs=("analytic", "simulated"), slots=20000, seed=20600,
            num_layers=L, num_channels=10, arrival_rate=10.0, rate=None, gamma_db=3.0,
        ))
    for suffix, lam in (("", 5.0), ("-full", 10.0)):
        add(_scenario(
            name=f"throughput-vs-layers{suffix}",
            description="total throughput vs number of layers; 10 channels, "
                        f"arrival {lam:g} per layer, target SINR 3 dB, optimized rates",
            kind="layers", grid=_int_grid(1, 8),
            outputs=("analytic", "simulated"), slots=20000, seed=20700,
            num_layers=1, num_channels=10, arrival_rate=lam, rate=None, gamma_db=3.0,
        ))
    add(_scenario(
        name="compare-irsa",
        description="decoded-packet lower bound vs number of layers, arrivals "
                    "optimized per layer, against multichannel-ALOHA and IRSA "
                    "reference constants; 10 channels, common rate 1",
        kind="packets_layers", grid=_int_grid(1, 8),
        outputs=("bound", "baselines"), slots=1, seed=0,
        num_layers=1, num_channels=10, arrival_rate=0.0, rate=1.0, gamma_db=10.0,
        notes=("target SINR 10 dB assumed for the layer sweep",),
    ))
    for suffix, L in (("", 3), ("-l4", 4)):
        add(_scenario(
            name=f"compare-irsa-scaling{suffix}",
            description=f"decoded-packet lower bound vs number of channels; {L} layers, "
                        "common rate 1, target SINR 10 dB, optimized arrivals",
            kind="packets_channels", grid=_int_grid(10, 100, 10),
            outputs=("bound", "baselines"), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=1.0, gamma_db=10.0,
        ))
    add(_scenario(
        name="outage-vs-rate",
        description="per-layer outage vs common rate under 4-copy repetition; "
                    "3 layers, 60 channels, arrival 3 per layer, target SINR 10 dB",
        kind="outage_rate", grid=_float_grid(0.2, 2.0, 0.2),
        outputs=("analytic", "simulated"), slots=20000, seed=20900,
        num_layers=3, num_channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0,
        repetition=4,
    ))
    add(_scenario(
        name="outage-vs-copies",
        description="per-layer outage vs repetition factor; 3 layers, 60 channels, "
                    "arrival 3 per layer, common rate 1, target SINR 10 dB",
        kind="outage_copies", grid=_int_grid(1, 12),
        outputs=("analytic", "simulated"), slots=20000, seed=21000,
        num_layers=3, num_channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0,
    ))
    add(_scenario(
        name="outage-vs-arrival",
        description="per-layer outage vs arrival rate under 4-copy repetition; "
                    "3 layers, 60 channels, common rate 1, target SINR 10 dB",
        kind="outage_arrival", grid=_int_grid(1, 10),
        outputs=("analytic", "simulated"), slots=20000, seed=21100,
        num_layers=3, num_channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0,
        repetition=4,
    ))
    return reg


SCENARIOS = build_registry()


def get_scenario(name: str, slots: int | None = None, seed: int | None = None) -> Scenario:
    try:
        s = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    if slots is not None:
        s = replace(s, slots=slots)
    if seed is not None:
        s = replace(s, seed=seed)
    return s
