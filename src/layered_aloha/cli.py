"""Command-line front end.

Subcommands: `scenario` (named sweeps to CSV), `sweep` (free-form single
-variable sweep), `optimize-rates`, `outage`, `simulate`.  System
parameters come from flags, optionally seeded from a `key = value` config
file (flags win); a flag's value parses exactly as its config key's would
(`model.parse_setting`).  Every command passes the resulting settings on
as they are: `sweep` as its scenario's settings, `outage` and `simulate`
as a one-point scenario's.  Exit codes: 0 ok, 2 bad input, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from dataclasses import replace

from . import model
from .outage import outage  # noqa: F401  (unused; bench/tracing.py patches it here)
from .throughput import throughput  # noqa: F401  (unused; bench/tracing.py patches it here)

#: library name -> the module that defines it.  A command reads these through
#: `_lib` as this module's globals when it runs, so a value set here first is
#: the one called (bench/tracing.py wraps get_scenario, run_scenario,
#: optimize_rates and estimate_throughput); each is bound on its first lookup,
#: so importing this module and parsing an argv load none of scenarios,
#: simulate and optimize
_LAZY = {name: module for module, names in (
    ("optimize", ("optimize_rates",)),
    ("scenarios", ("SCENARIOS", "GridError", "Scenario", "ScenarioResult", "_float_grid",
                   "get_scenario", "run_point", "run_scenario")),
    ("simulate", ("estimate_throughput",)),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    return value


def _lib(name):
    """This module's global `name`, bound by `__getattr__` on first lookup."""
    return globals().get(name) or __getattr__(name)


#: system flag -> (config-file key, help); the key is the flag's argparse dest,
#: and the flag's value parses as that key's would in a config file
_SYSTEM_FLAGS = {
    "--channels": ("channels", "number of channels per layer"),
    "--layers": ("layers", "number of layers"),
    "--arrival": ("arrival_rate", "arrival rate per layer (scalar or comma list)"),
    "--rate": ("rate", "code rate per layer (scalar or comma list)"),
    "--gamma-db": ("gamma_db", "target SINR in dB for power allocation"),
    "--copies": ("repetition", "copies per packet (repetition factor B)"),
    "--noise-power": ("noise_power", "noise power (linear), default 1"),
    "--gain-mean": ("gain_mean", "mean channel power gain, default 1"),
}

#: most points a `start:stop:step` grid may have; the registry's largest has 60
_MAX_GRID_POINTS = 100_000


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    for flag, (key, help_) in _SYSTEM_FLAGS.items():
        p.add_argument(flag, dest=key, help=help_)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--slots", type=int, help="Monte Carlo slots")
    p.add_argument("--seed", type=int, help="base RNG seed (default: the scenario's own, else 1)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    p.add_argument("--out", default="-", metavar="PATH", help="output path, '-' for stdout")


def _settings_from_args(args) -> dict:
    """The config file's settings, with the system flags' over them."""
    settings = {}
    if args.config:
        try:
            settings = model.load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"--config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"--config: {args.config}: {exc}") from None
    for flag, (key, _) in _SYSTEM_FLAGS.items():
        text = getattr(args, key)
        if text is not None:
            try:
                settings[key] = model.parse_setting(key, text)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    return settings


def _write(text: str, out: str, mode: str = "w"):
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, mode, encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None


def _parse_grid(spec: str) -> tuple[float, ...]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be 'start:stop:step' or a comma list, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ValueError(f"bad grid range {spec!r}")
        if step < 1e-10:  # _float_grid rounds to 10 decimals; refuse before building the points
            raise ValueError(f"grid step {step:g} in {spec!r} is below 1e-10, the resolution "
                             "of grid points, so they may not be strictly increasing")
        if (stop - start) / step >= _MAX_GRID_POINTS:  # floor of it, plus 1, is the point count
            raise ValueError(f"grid range {spec!r} has more than {_MAX_GRID_POINTS} points")
        return _lib("_float_grid")(start, stop, step)
    vals = tuple(float(v) for v in spec.split(",") if v.strip())
    if not vals:
        raise ValueError("empty grid")
    return vals


def _cmd_scenario(args) -> int:
    if args.list or args.name is None:
        scenarios = _lib("SCENARIOS")
        width = max(len(n) for n in scenarios)
        for name in sorted(scenarios):
            print(f"{name:<{width}}  {scenarios[name].description}")
        return 0
    scenario = _lib("get_scenario")(args.name, slots=args.slots, seed=args.seed)
    result = _lib("run_scenario")(scenario, workers=args.workers)
    _write(result.to_csv(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    key = _SYSTEM_FLAGS["--" + args.var][0]
    kind = "outage" if key == "repetition" else "throughput"
    settings = {"gamma_db": 10.0} | _settings_from_args(args)
    if kind == "outage":  # outage rows read a fixed rate
        settings = {"rate": 1.0} | settings
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        raise ValueError(f"--grid: {exc}") from None
    try:
        scenario = _lib("Scenario")(
            name="sweep",
            # a setting's CSV name is its flag's, with '_' for '-'
            description=f"ad-hoc sweep over {args.var.replace('-', '_')}",
            kind=kind,
            sweep=key,
            grid=grid,
            outputs=tuple(args.outputs.split(",")),
            slots=args.slots,
            seed=args.seed,
            settings=settings,
        )
    except _lib("GridError") as exc:
        raise ValueError(f"--grid: {exc}") from None
    result = _lib("run_scenario")(scenario, workers=args.workers)
    _write(result.to_csv(), args.out)
    return 0


def _cmd_optimize_rates(args) -> int:
    config = model.config_from_settings(_settings_from_args(args))
    try:
        plan = _lib("optimize_rates")(config, args.rate_max, use_bound=args.use_bound)
    except ValueError as exc:  # the one error it raises is for the bound
        raise ValueError(f"--rate-max: {exc}") from None
    lines = ["layer  arrival  power      rate*      partial_value"]
    for l, (lam, power) in enumerate(zip(config.arrival_rates, config.powers)):
        lines.append(
            f"{l + 1:>5}  {lam:<7g}  {power:<9.6g}  {plan.optimal_rates[l]:<9.6g}"
            f"  {plan.layer_values[l]:.6g}"
        )
    lines.extend(
        f"note: layer {l} rate optimum at the search bound --rate-max {args.rate_max:g}"
        for l in plan.bound_hits
    )
    lines.append(f"total throughput: {plan.achieved_throughput:.9g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _run_one_point(args, x_of, **fields) -> int:
    """Write the CSV of the system the flags describe as the one-point
    scenario that `fields` describe, at grid point `x_of(config)`."""
    settings = {"rate": 1.0} | _settings_from_args(args)  # one point never optimizes rates
    config = replace(model.config_from_settings(settings),
                     reopen_cleared_channels=args.reopen_cleared_channels)
    x = x_of(config)
    scenario = _lib("Scenario")(grid=(x,), seed=args.seed, settings=settings, **fields)
    rows, notes = _lib("run_point")(scenario, config, x, args.seed, args.workers)
    _write(_lib("ScenarioResult")(scenario, tuple(rows), tuple(notes), config).to_csv(), args.out)
    return 0


def _cmd_outage(args) -> int:
    simulated = args.slots is not None
    return _run_one_point(
        args, lambda config: float(config.repetition),
        name="outage",
        description="per-layer outage for one configuration",
        kind="outage",
        sweep="repetition",
        outputs=("analytic", "simulated") if simulated else ("analytic",),
        slots=args.slots if simulated else 1,
    )


def _cmd_simulate(args) -> int:
    return _run_one_point(
        args, lambda config: config.arrival_rates[0],
        name="simulate",
        description="simulated and analytic throughput for one configuration",
        kind="simulate",
        sweep="arrival_rate",
        outputs=("analytic", "simulated"),
        slots=args.slots,
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
    p.add_argument("--var", required=True, help="the setting to sweep, named by its flag",
                   choices=("arrival", "copies", "gamma-db", "layers", "rate"))
    p.add_argument("--grid", required=True, help="comma list or start:stop:step")
    p.add_argument("--outputs", default="analytic", help="comma list from: analytic,simulated")
    _add_config_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep, slots=10000, seed=1)

    p = sub.add_parser("optimize-rates", help="recursively optimized per-layer rates")
    _add_config_flags(p)
    p.add_argument("--rate-max", type=float, default=model.RATE_MAX,
                   help=f"rate search upper bound (default {model.RATE_MAX:g})")
    p.add_argument("--use-bound", action="store_true", help="optimize the capture lower bound")
    p.add_argument("--out", default="-", metavar="PATH")
    p.set_defaults(func=_cmd_optimize_rates)

    for name, help_, func, slots in (
        ("outage", "per-layer outage (analytic, plus simulated with --slots)", _cmd_outage, None),
        ("simulate", "simulated vs analytic throughput for one config", _cmd_simulate, 10000),
    ):
        p = sub.add_parser(name, help=help_)
        _add_config_flags(p)
        _add_run_flags(p)
        p.add_argument("--reopen-cleared-channels", action="store_true",
                       help="alternative SIC semantics: fully cancelled channels reopen")
        p.set_defaults(func=func, slots=slots, seed=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model._check_count("--workers", getattr(args, "workers", 1))  # optimize-rates has none
        _write("", args.out, "a")  # tries --out before any computation, truncating nothing
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover
        return 1
    except Exception as exc:  # pragma: no cover - runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
