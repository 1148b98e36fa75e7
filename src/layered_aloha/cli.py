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
import sys
from dataclasses import replace

from . import model


def _lib(name):
    """The package's public attribute `name`, bound as this module's global on
    first lookup, so a value set here first is the one a command calls
    (bench/tracing.py patches names here) and importing this module and
    parsing an argv load none of scenarios, simulate and optimize."""
    if name not in globals():
        if name not in (package := sys.modules[__package__]).__all__:  # not `__path__`, say
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        globals()[name] = getattr(package, name)
    return globals()[name]


__getattr__ = _lib


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    for key, (_, flag, help_) in model._SETTINGS.items():
        if flag:  # the flag's dest is its setting's key
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
    for key, (_, flag, _) in model._SETTINGS.items():
        text = getattr(args, key, None)  # None when the flag is not given or does not exist
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
    key = next(k for k, (_, flag, _) in model._SETTINGS.items() if flag == "--" + args.var)
    kind = "outage" if key == "repetition" else "throughput"
    settings = {"gamma_db": 10.0} | _settings_from_args(args)
    if kind == "outage":  # outage rows read a fixed rate
        settings = {"rate": 1.0} | settings
    try:
        scenario = _lib("Scenario")(
            name="sweep",
            # a setting's CSV name is its flag's, with '_' for '-'
            description=f"ad-hoc sweep over {args.var.replace('-', '_')}",
            kind=kind,
            sweep=key,
            grid=_lib("scenarios").parse_grid(args.grid),
            outputs=tuple(args.outputs.split(",")),
            slots=args.slots,
            seed=args.seed,
            settings=settings,
        )
    except _lib("scenarios").GridError as exc:
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


#: one-point command -> (description, kind, the setting its one grid point
#: sets, that point's value in the config the flags describe)
_ONE_POINT = {
    "outage": ("per-layer outage for one configuration", "outage", "repetition",
               lambda config: float(config.repetition)),
    "simulate": ("simulated and analytic throughput for one configuration", "simulate",
                 "arrival_rate", lambda config: config.arrival_rates[0]),
}


def _cmd_one_point(args) -> int:
    """Write the CSV of the system the flags describe as a one-point scenario
    of the command's `_ONE_POINT` entry; it simulates when `--slots` is set."""
    description, kind, sweep, x_of = _ONE_POINT[args.command]
    settings = {"rate": 1.0} | _settings_from_args(args)  # one point never optimizes rates
    config = replace(model.config_from_settings(settings),
                     reopen_cleared_channels=args.reopen_cleared_channels)
    x = x_of(config)
    simulated = args.slots is not None
    scenario = _lib("Scenario")(
        name=args.command, description=description, kind=kind, sweep=sweep, grid=(x,),
        outputs=("analytic", "simulated") if simulated else ("analytic",),
        slots=args.slots if simulated else 1, seed=args.seed, settings=settings)
    rows, notes = _lib("scenarios").run_point(scenario, config, x, args.seed, args.workers)
    _write(_lib("ScenarioResult")(scenario, tuple(rows), tuple(notes), config).to_csv(), args.out)
    return 0


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

    for name, help_, slots in (
        ("outage", "per-layer outage (analytic, plus simulated with --slots)", None),
        ("simulate", "simulated vs analytic throughput for one config", 10000),
    ):
        p = sub.add_parser(name, help=help_)
        _add_config_flags(p)
        _add_run_flags(p)
        p.add_argument("--reopen-cleared-channels", action="store_true",
                       help="alternative SIC semantics: fully cancelled channels reopen")
        p.set_defaults(func=_cmd_one_point, slots=slots, seed=1)

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
