"""Command-line front end.

Subcommands: `scenario` (named sweeps to CSV), `sweep` (free-form single
-variable sweep), `optimize-rates`, `outage`, `simulate`.  System
parameters come from flags, optionally seeded from a `key = value` config
file (flags win).  Exit codes: 0 ok, 2 bad input, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .model import SystemConfig, load_config_file
from .optimize import SearchSettings, optimize_rates
from .outage import outage  # noqa: F401  (unused; bench/tracing.py patches it here)
from .scenarios import (
    KINDS,
    SCENARIOS,
    Scenario,
    ScenarioResult,
    get_scenario,
    run_point,
    run_scenario,
)
from .simulate import estimate_throughput  # noqa: F401  (unused; bench/tracing.py patches it here)
from .throughput import throughput  # noqa: F401  (unused; bench/tracing.py patches it here)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument("--channels", type=int, help="number of channels per layer")
    p.add_argument("--layers", type=int, help="number of layers")
    p.add_argument("--arrival", type=str, help="arrival rate per layer (scalar or comma list)")
    p.add_argument("--rate", type=str, help="code rate per layer (scalar or comma list)")
    p.add_argument("--gamma-db", type=float, help="target SINR in dB for power allocation")
    p.add_argument("--copies", type=int, help="copies per packet (repetition factor B)")
    p.add_argument("--noise-power", type=float, help="noise power (linear), default 1")
    p.add_argument("--gain-mean", type=float, help="mean channel power gain, default 1")


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--slots", type=int, help="Monte Carlo slots")
    p.add_argument("--seed", type=int, default=None,
                   help="base RNG seed (default: the scenario's own, else 1)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    p.add_argument("--out", default="-", metavar="PATH", help="output path, '-' for stdout")


def _parse_comma(text: str):
    vals = [float(v) for v in text.split(",") if v.strip()]
    return vals[0] if len(vals) == 1 else vals


def _settings_from_args(args) -> dict:
    settings = dict(load_config_file(args.config)) if args.config else {}
    if args.layers is not None:
        settings["layers"] = args.layers
    if args.channels is not None:
        settings["channels"] = args.channels
    if args.arrival is not None:
        settings["arrival_rate"] = _parse_comma(args.arrival)
    if args.rate is not None:
        settings["rate"] = _parse_comma(args.rate)
    if getattr(args, "gamma_db", None) is not None:
        settings["gamma_db"] = args.gamma_db
    if args.copies is not None:
        settings["repetition"] = args.copies
    if args.noise_power is not None:
        settings["noise_power"] = args.noise_power
    if args.gain_mean is not None:
        settings["gain_mean"] = args.gain_mean
    return settings


def _config_from_args(args) -> tuple[SystemConfig, float]:
    from .model import config_from_settings

    settings = _settings_from_args(args)
    config = config_from_settings(settings)
    gamma_db = settings.get("gamma_db", 0.0)
    return config, gamma_db


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_grid(spec: str) -> tuple[float, ...]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be 'start:stop:step' or a comma list, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid range {spec!r}")
        n = int(round((stop - start) / step))
        return tuple(round(start + k * step, 10) for k in range(n + 1))
    vals = tuple(float(v) for v in spec.split(",") if v.strip())
    if not vals:
        raise ValueError("empty grid")
    return vals


_SWEEP_KIND = {
    "arrival": "throughput",
    "rate": "rate",
    "gamma-db": "gamma",
    "layers": "layers",
    "copies": "outage_copies",
}


def _cmd_scenario(args) -> int:
    if args.list or args.name is None:
        width = max(len(n) for n in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name].description}")
        return 0
    scenario = get_scenario(args.name, slots=args.slots, seed=args.seed)
    result = run_scenario(scenario, workers=args.workers)
    _write(result.to_csv(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    kind = _SWEEP_KIND[args.var]
    settings = _settings_from_args(args)
    required = {"layers", "channels"}
    if kind != "throughput":
        required.add("arrival_rate")
    missing = sorted(required - settings.keys())
    if missing:
        raise ValueError(f"sweep needs {', '.join(missing)} (flags or config file)")
    unsupported = sorted({"noise_power", "gain_mean", "powers"} & settings.keys())
    if unsupported:
        raise ValueError(f"sweep does not take {', '.join(unsupported)}: a sweep uses unit "
                         "noise power and gain mean and powers allocated from gamma_db")
    arrival = settings.get("arrival_rate", 0.0)
    if isinstance(arrival, (list, tuple)):
        raise ValueError("sweep uses a single per-layer arrival rate")
    rate = settings.get("rate")
    if isinstance(rate, (list, tuple)):
        raise ValueError("sweep uses a single common rate (or none, for optimized rates)")
    outputs = tuple(args.outputs.split(","))
    seed = 1 if args.seed is None else args.seed
    scenario = Scenario(
        name="sweep",
        description=f"ad-hoc sweep over {KINDS[kind].x_name}",
        kind=kind,
        grid=_parse_grid(args.grid),
        outputs=outputs,
        slots=10000 if args.slots is None else args.slots,
        seed=seed,
        num_layers=settings["layers"],
        num_channels=settings["channels"],
        arrival_rate=float(arrival),
        rate=None if rate is None and kind in ("throughput", "gamma", "layers") else
             float(rate if rate is not None else 1.0),
        gamma_db=settings.get("gamma_db", 10.0),
        repetition=settings.get("repetition", 1),
    )
    result = run_scenario(scenario, workers=args.workers)
    _write(result.to_csv(), args.out)
    return 0


def _cmd_optimize_rates(args) -> int:
    config, _ = _config_from_args(args)
    try:
        settings = SearchSettings(
            rate_max=args.rate_max, grid_points=args.grid_points, refine_tol=args.refine_tol
        )
    except ValueError as exc:  # the message starts with the field name
        flag = "--" + str(exc).split()[0].replace("_", "-")
        raise ValueError(f"{flag}: {exc}") from None
    plan = optimize_rates(config, settings, use_bound=args.use_bound)
    lines = ["layer  arrival  power      rate*      partial_value"]
    for l, lp in enumerate(config.layers):
        lines.append(
            f"{l + 1:>5}  {lp.arrival_rate:<7g}  {lp.power:<9.6g}  {plan.optimal_rates[l]:<9.6g}"
            f"  {plan.layer_values[l]:.6g}"
        )
    lines.extend(
        f"note: layer {l} rate optimum at the search bound --rate-max {settings.rate_max:g}"
        for l in plan.bound_hits
    )
    lines.append(f"total throughput: {plan.achieved_throughput:.9g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _run_one_point(args, config: SystemConfig, gamma_db: float, x: float, **fields) -> int:
    """Write the CSV of `config` as the one-point scenario that `fields` describe."""
    seed = 1 if args.seed is None else args.seed
    scenario = Scenario(
        grid=(x,),
        seed=seed,
        num_layers=config.num_layers,
        num_channels=config.num_channels,
        arrival_rate=config.layers[0].arrival_rate,
        rate=config.layers[0].rate,
        gamma_db=gamma_db,
        repetition=config.repetition,
        **fields,
    )
    rows, notes = run_point(scenario, config, x, seed, args.workers, args.reopen_cleared_channels)
    _write(ScenarioResult(scenario, tuple(rows), tuple(notes)).to_csv(), args.out)
    return 0


def _cmd_outage(args) -> int:
    config, gamma_db = _config_from_args(args)
    analytic_only = args.slots is None
    return _run_one_point(
        args, config, gamma_db, float(config.repetition),
        name="outage",
        description="per-layer outage for one configuration",
        kind="outage_copies",
        outputs=("analytic",) if analytic_only else ("analytic", "simulated"),
        slots=1 if analytic_only else args.slots,
    )


def _cmd_simulate(args) -> int:
    config, gamma_db = _config_from_args(args)
    return _run_one_point(
        args, config, gamma_db, config.layers[0].arrival_rate,
        name="simulate",
        description="simulated and analytic throughput for one configuration",
        kind="simulate",
        outputs=("analytic", "simulated"),
        slots=10000 if args.slots is None else args.slots,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layered-aloha",
        description="Layered random-access analysis and simulation, CSV out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="run a named scenario (or --list)")
    p.add_argument("name", nargs="?", help="scenario name")
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="free-form single-variable sweep")
    p.add_argument("--var", required=True, choices=sorted(_SWEEP_KIND))
    p.add_argument("--grid", required=True, help="comma list or start:stop:step")
    p.add_argument("--outputs", default="analytic", help="comma list from: analytic,simulated,bound,baselines")
    _add_config_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize-rates", help="recursively optimized per-layer rates")
    _add_config_flags(p)
    p.add_argument("--rate-max", type=float, default=16.0, help="search upper bound (default 16)")
    p.add_argument("--grid-points", type=int, default=2048, help="coarse grid size (default 2048)")
    p.add_argument("--refine-tol", type=float, default=1e-9, help="refinement tolerance (default 1e-9)")
    p.add_argument("--use-bound", action="store_true", help="optimize the capture lower bound")
    p.add_argument("--out", default="-", metavar="PATH")
    p.set_defaults(func=_cmd_optimize_rates)

    p = sub.add_parser("outage", help="per-layer outage (analytic, plus simulated with --slots)")
    _add_config_flags(p)
    _add_run_flags(p)
    p.add_argument("--reopen-cleared-channels", action="store_true",
                   help="alternative SIC semantics: fully cancelled channels reopen")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("simulate", help="simulated vs analytic throughput for one config")
    _add_config_flags(p)
    _add_run_flags(p)
    p.add_argument("--reopen-cleared-channels", action="store_true",
                   help="alternative SIC semantics: fully cancelled channels reopen")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover
        return 1
    except Exception as exc:  # pragma: no cover - runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
