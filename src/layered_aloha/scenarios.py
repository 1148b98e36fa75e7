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

from dataclasses import dataclass, replace

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

_KINDS = (
    "throughput",
    "rate",
    "gamma",
    "layers",
    "power",
    "packets_layers",
    "packets_channels",
    "outage_rate",
    "outage_copies",
    "outage_arrival",
)


@dataclass(frozen=True)
class Scenario:
    """One sweep: fixed system family, grid over a single variable."""

    name: str
    description: str
    kind: str
    x_name: str
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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.grid:
            raise ValueError("scenario grid must be non-empty")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("scenario grid must be sorted")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        bad = set(self.outputs) - set(OUTPUT_KINDS)
        if bad:
            raise ValueError(f"unknown outputs: {sorted(bad)}")


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
        fields = {
            "layers": str(s.num_layers),
            "channels": str(s.num_channels),
            "arrival_rate": _fmt(s.arrival_rate),
            "rate": "optimized" if s.rate is None else _fmt(s.rate),
            "gamma_db": _fmt(s.gamma_db),
            "repetition": str(s.repetition),
        }
        swept = {"arrival": "arrival_rate", "layers": "layers", "channels": "channels",
                 "rate": "rate", "gamma_db": "gamma_db", "copies": "repetition"}.get(s.x_name)
        if swept:
            fields[swept] = "sweep"
        return [f"{k}={v}" for k, v in fields.items()]

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


def _rates_for(config: SystemConfig, common_rate: float | None) -> tuple[SystemConfig, tuple[int, ...]]:
    """The config with optimized rates (unless `common_rate` is fixed) and
    the layers whose rate optimum hit the search bound."""
    if common_rate is not None:
        return config, ()  # already built with the fixed rate
    plan = optimize_rates(config, SearchSettings())
    return config.with_rates(plan.optimal_rates), plan.bound_hits


def _build(s: Scenario, arrival: float, num_layers: int | None = None,
           num_channels: int | None = None, gamma_db: float | None = None,
           repetition: int | None = None) -> SystemConfig:
    return design_config(
        num_layers=num_layers if num_layers is not None else s.num_layers,
        num_channels=num_channels if num_channels is not None else s.num_channels,
        arrival_rate=arrival,
        rate=s.rate if s.rate is not None else 0.0,
        gamma=db_to_linear(gamma_db if gamma_db is not None else s.gamma_db),
        repetition=repetition if repetition is not None else s.repetition,
    )


def _throughput_rows(s: Scenario, config: SystemConfig, x: float, seed: int, workers: int):
    rows = []
    if "analytic" in s.outputs:
        report = throughput(config)
        for l in range(config.num_layers):
            rows.append(Row(x, str(l + 1), "analytic_throughput", report.layer_throughput[l]))
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
    return rows


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
    return rows


def _packet_rows(s: Scenario, num_layers: int, num_channels: int, x: float):
    gamma = db_to_linear(s.gamma_db)
    plan = optimize_arrivals(num_layers, num_channels, s.rate, gamma)
    contribs = sla_layer_contributions(num_channels, plan.optimal_tau, s.rate, gamma)
    rows = [Row(x, str(l + 1), "bound_throughput", c) for l, c in enumerate(contribs)]
    rows.append(Row(x, "total", "bound_throughput", plan.value))
    if "baselines" in s.outputs:
        rows.append(Row(x, "total", "baseline_aloha", baseline_aloha_max(num_channels)))
        rows.append(Row(x, "total", "baseline_irsa", baseline_irsa(num_channels)))
    return rows, plan.bound_hits


def _bound_note(s: Scenario, x: float, hits: tuple[int, ...]) -> str:
    """Note for a grid point whose optimized rates or arrivals hit the search bound."""
    search = SearchSettings()
    what, bound = (("arrival", search.arrival_max) if s.kind.startswith("packets")
                   else ("rate", search.rate_max))
    layers = ", ".join(map(str, hits))
    return f"{s.x_name}={_fmt(x)}: optimized {what} of layer(s) {layers} at the search bound {_fmt(bound)}"


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
        seed = s.seed + i
        hits: tuple[int, ...] = ()
        if s.kind == "throughput":
            config, hits = _rates_for(_build(s, arrival=x), s.rate)
            rows.extend(_throughput_rows(s, config, x, seed, workers))
        elif s.kind == "rate":
            config = _build(s, arrival=s.arrival_rate)
            config = config.with_rates([x] * s.num_layers)
            rows.extend(_throughput_rows(s, config, x, seed, workers))
        elif s.kind == "gamma":
            config, hits = _rates_for(_build(s, arrival=s.arrival_rate, gamma_db=x), s.rate)
            rows.extend(_throughput_rows(s, config, x, seed, workers))
        elif s.kind == "layers":
            config, hits = _rates_for(_build(s, arrival=s.arrival_rate, num_layers=int(x)), s.rate)
            rows.extend(_throughput_rows(s, config, x, seed, workers))
        elif s.kind == "power":
            config = _build(s, arrival=x)
            rows.append(Row(x, "total", "power_mean", sum(config.powers) / config.num_layers))
        elif s.kind == "packets_layers":
            point_rows, hits = _packet_rows(s, int(x), s.num_channels, x)
            rows.extend(point_rows)
        elif s.kind == "packets_channels":
            point_rows, hits = _packet_rows(s, s.num_layers, int(x), x)
            rows.extend(point_rows)
        elif s.kind == "outage_rate":
            config = _build(s, arrival=s.arrival_rate).with_rates([x] * s.num_layers)
            rows.extend(_outage_rows(s, config, x, seed, workers))
        elif s.kind == "outage_copies":
            config = _build(s, arrival=s.arrival_rate, repetition=int(x))
            rows.extend(_outage_rows(s, config, x, seed, workers))
        elif s.kind == "outage_arrival":
            config = _build(s, arrival=x)
            rows.extend(_outage_rows(s, config, x, seed, workers))
        else:  # pragma: no cover - guarded by Scenario validation
            raise ValueError(f"unknown scenario kind {s.kind!r}")
        if hits:
            notes.append(_bound_note(s, x, hits))
    return ScenarioResult(scenario=s, rows=tuple(rows), notes=tuple(notes))


def run_power_report(arrival_grid, num_layers: int, num_channels: int, gamma: float,
                     channel_gain_mean: float = 1.0, noise_power: float = 1.0):
    """Average allocated transmit power over an arrival-rate grid.

    Returns (arrival, mean power) pairs; the mean grows with both the
    arrival rate and the number of layers since lower layers must out-power
    the accumulated upper-layer interference.
    """
    from .model import allocate_powers

    out = []
    for lam in arrival_grid:
        powers = allocate_powers(gamma, [lam] * num_layers, num_channels,
                                 channel_gain_mean, noise_power)
        out.append((float(lam), sum(powers) / num_layers))
    return out


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
            kind="throughput", x_name="arrival", grid=_int_grid(1, 14),
            outputs=("analytic", "simulated"), slots=20000, seed=20230,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=None, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"power-vs-arrival{suffix}",
            description=f"average allocated transmit power vs arrival rate; {L} layers, "
                        "10 channels, target SINR 3 dB",
            kind="power", x_name="arrival", grid=_int_grid(1, 14),
            outputs=("analytic",), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=None, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"throughput-vs-rate{suffix}",
            description=f"total throughput vs a common per-layer rate; {L} layers, "
                        "10 channels, arrival 10 per layer, target SINR 3 dB",
            kind="rate", x_name="rate", grid=_float_grid(0.1, 6.0, 0.1),
            outputs=("analytic",), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=10.0, rate=1.0, gamma_db=3.0,
        ))
        add(_scenario(
            name=f"throughput-vs-gamma{suffix}",
            description=f"total throughput vs target SINR; {L} layers, 10 channels, "
                        "arrival 10 per layer, rates optimized per point",
            kind="gamma", x_name="gamma_db", grid=_int_grid(0, 12),
            outputs=("analytic", "simulated"), slots=20000, seed=20600,
            num_layers=L, num_channels=10, arrival_rate=10.0, rate=None, gamma_db=3.0,
        ))
    for suffix, lam in (("", 5.0), ("-full", 10.0)):
        add(_scenario(
            name=f"throughput-vs-layers{suffix}",
            description="total throughput vs number of layers; 10 channels, "
                        f"arrival {lam:g} per layer, target SINR 3 dB, optimized rates",
            kind="layers", x_name="layers", grid=_int_grid(1, 8),
            outputs=("analytic", "simulated"), slots=20000, seed=20700,
            num_layers=1, num_channels=10, arrival_rate=lam, rate=None, gamma_db=3.0,
        ))
    add(_scenario(
        name="compare-irsa",
        description="decoded-packet lower bound vs number of layers, arrivals "
                    "optimized per layer, against multichannel-ALOHA and IRSA "
                    "reference constants; 10 channels, common rate 1",
        kind="packets_layers", x_name="layers", grid=_int_grid(1, 8),
        outputs=("bound", "baselines"), slots=1, seed=0,
        num_layers=1, num_channels=10, arrival_rate=0.0, rate=1.0, gamma_db=10.0,
        notes=("target SINR 10 dB assumed for the layer sweep",),
    ))
    for suffix, L in (("", 3), ("-l4", 4)):
        add(_scenario(
            name=f"compare-irsa-scaling{suffix}",
            description=f"decoded-packet lower bound vs number of channels; {L} layers, "
                        "common rate 1, target SINR 10 dB, optimized arrivals",
            kind="packets_channels", x_name="channels", grid=_int_grid(10, 100, 10),
            outputs=("bound", "baselines"), slots=1, seed=0,
            num_layers=L, num_channels=10, arrival_rate=0.0, rate=1.0, gamma_db=10.0,
        ))
    add(_scenario(
        name="outage-vs-rate",
        description="per-layer outage vs common rate under 4-copy repetition; "
                    "3 layers, 60 channels, arrival 3 per layer, target SINR 10 dB",
        kind="outage_rate", x_name="rate", grid=_float_grid(0.2, 2.0, 0.2),
        outputs=("analytic", "simulated"), slots=20000, seed=20900,
        num_layers=3, num_channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0,
        repetition=4,
    ))
    add(_scenario(
        name="outage-vs-copies",
        description="per-layer outage vs repetition factor; 3 layers, 60 channels, "
                    "arrival 3 per layer, common rate 1, target SINR 10 dB",
        kind="outage_copies", x_name="copies", grid=_int_grid(1, 12),
        outputs=("analytic", "simulated"), slots=20000, seed=21000,
        num_layers=3, num_channels=60, arrival_rate=3.0, rate=1.0, gamma_db=10.0,
    ))
    add(_scenario(
        name="outage-vs-arrival",
        description="per-layer outage vs arrival rate under 4-copy repetition; "
                    "3 layers, 60 channels, common rate 1, target SINR 10 dB",
        kind="outage_arrival", x_name="arrival", grid=_int_grid(1, 10),
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
