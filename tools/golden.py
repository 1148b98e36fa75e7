"""Write the simulator's golden CSV outputs into a directory.

Usage: python tools/golden.py OUTDIR

Runs the `layered_aloha` package of the checkout this script sits in
(its `src/` directory) and writes one CSV per invocation:

* every registry scenario at its own seed, with `--workers 2`;
* the `simulate` and `outage` subcommands, each on one scalar
  configuration and on one with per-layer `--arrival`/`--rate` lists,
  `--noise-power` and `--gain-mean`, with and without
  `--reopen-cleared-channels` (the only way to reach the alternative SIC
  semantics from the command line);
* `optimize-rates` for 3 and 8 layers at 10 dB, each with and without
  `--use-bound`, and for 3 layers at 60 dB, where two layers' rate
  optima sit at the search bound and the output carries `note:` lines;
* `sweep --var gamma-db --outputs analytic,bound` for 8 layers, which
  optimizes rates at every grid point;
* `sweep --var copies`, `--var rate` (fixed rates) and `--var layers`
  (optimized rates), each with `--outputs analytic,simulated`;
* `estimate_joint_capture`, which no CLI command reaches, at the
  configuration and seed of `demos/decoding_dependence.py` with fewer
  slots, as the `repr` of its result (floats in full precision).

Every file is deterministic for a given checkout.  Running the script in
two checkouts and comparing with `diff -r DIR_A DIR_B` shows whether a
change altered any output byte.  Exits 1 if any invocation fails.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from layered_aloha import (  # noqa: E402
    db_to_linear,
    design_config,
    estimate_joint_capture,
    optimize_rates,
)
from layered_aloha.cli import main as cli_main  # noqa: E402
from layered_aloha.scenarios import SCENARIOS  # noqa: E402

SIMULATE = ["simulate", "--layers", "2", "--channels", "10", "--arrival", "8",
            "--rate", "1", "--gamma-db", "3", "--copies", "2", "--slots", "50000",
            "--seed", "7"]
OUTAGE = ["outage", "--layers", "3", "--channels", "60", "--arrival", "3",
          "--rate", "1", "--gamma-db", "10", "--copies", "4", "--slots", "20000",
          "--seed", "7"]
PER_LAYER = ["--layers", "3", "--channels", "12", "--arrival", "2,3,4",
             "--rate", "1.5,1,0.5", "--gamma-db", "6", "--noise-power", "0.6",
             "--gain-mean", "1.7", "--slots", "20000", "--seed", "11"]
SIMULATE_LISTS = ["simulate"] + PER_LAYER + ["--copies", "2"]
OUTAGE_LISTS = ["outage"] + PER_LAYER + ["--copies", "3"]
SYSTEM = ["--channels", "10", "--arrival", "10"]
GAMMA_SWEEP = ["sweep", "--var", "gamma-db", "--grid=-10:30:5", "--layers", "8",
               "--outputs", "analytic,bound"] + SYSTEM
SIMULATED_SWEEPS = {
    "copies": ["--grid", "1:4:1", "--layers", "3", "--channels", "20", "--arrival", "3",
               "--rate", "1", "--gamma-db", "10", "--seed", "3"],
    "rate": ["--grid", "0.5:2:0.5", "--layers", "2", "--channels", "10", "--arrival", "6",
             "--gamma-db", "3", "--seed", "4"],
    "layers": ["--grid", "1:4:1", "--layers", "1", "--channels", "10", "--arrival", "5",
               "--gamma-db", "3", "--seed", "5"],
}


def invocations():
    """(file name, CLI argv) of every golden output."""
    for name in sorted(SCENARIOS):
        yield f"scenario-{name}.csv", ["scenario", name, "--workers", "2"]
    for stem, argv in (("simulate", SIMULATE), ("outage", OUTAGE),
                       ("simulate-lists", SIMULATE_LISTS), ("outage-lists", OUTAGE_LISTS)):
        yield f"{stem}.csv", argv + ["--workers", "2"]
        yield f"{stem}-reopen.csv", argv + ["--workers", "2", "--reopen-cleared-channels"]
    for layers in ("3", "8"):
        argv = ["optimize-rates", "--layers", layers, "--gamma-db", "10"] + SYSTEM
        yield f"optimize-rates-l{layers}.txt", argv
        yield f"optimize-rates-l{layers}-bound.txt", argv + ["--use-bound"]
    yield "optimize-rates-60db.txt", ["optimize-rates", "--layers", "3", "--gamma-db", "60"] + SYSTEM
    yield "sweep-gamma-l8.csv", GAMMA_SWEEP
    for var, argv in SIMULATED_SWEEPS.items():
        yield f"sweep-{var}-simulated.csv", ["sweep", "--var", var, "--outputs",
                                             "analytic,simulated", "--slots", "5000"] + argv


def joint_capture() -> str:
    """The joint-capture estimate of the decoding-dependence demo."""
    base = design_config(2, 10, 10.0, 0.0, db_to_linear(3.0))
    cfg = base.with_rates(optimize_rates(base).optimal_rates)
    return repr(estimate_joint_capture(cfg, 50_000, seed=7, workers=2)) + "\n"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    failed = []
    for filename, args in invocations():
        code = cli_main(args + ["--out", os.path.join(outdir, filename)])
        print(f"{filename}: exit {code}", file=sys.stderr)
        if code != 0:
            failed.append(filename)
    with open(os.path.join(outdir, "joint-capture.txt"), "w") as f:
        f.write(joint_capture())
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
