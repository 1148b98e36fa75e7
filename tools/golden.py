"""Write the simulator's golden CSV outputs into a directory.

Usage: python tools/golden.py OUTDIR [MANIFEST]

Runs the `layered_aloha` package of the checkout this script sits in
(its `src/` directory) and writes one CSV per invocation:

* every registry scenario at its own seed, with `--workers 2`;
* the `simulate` and `outage` subcommands, each on one scalar
  configuration and on one with per-layer `--arrival`/`--rate` lists,
  `--noise-power` and `--gain-mean`, with and without
  `--reopen-cleared-channels` (the only way to reach the alternative SIC
  semantics from the command line; it sets the config's
  `reopen_cleared_channels`, which the `# config:` line then names);
* `outage` at the channel sampler's edges: B = N = 6, where every later
  Floyd column takes the replacement path, B = N - 1 = 5, and one large
  point (N = 400, lambda = 40, B = 30) over a full 4096-slot batch;
* `optimize-rates` for 3 and 8 layers at 10 dB, each with and without
  `--use-bound`, and for 3 layers at 60 dB, where two layers' rate
  optima sit at the search bound and the output carries `note:` lines;
* `sweep --var gamma-db --outputs analytic` for 8 layers, which
  optimizes rates at every grid point;
* `sweep --var copies`, `--var rate` (fixed rates) and `--var layers`
  (optimized rates), each with `--outputs analytic,simulated`.

Every output is a CLI invocation; between them they reach both estimator
modes, throughput and outage, under both SIC semantics.

Every file is deterministic for a given checkout and numpy version.
Running the script in two checkouts and comparing with
`diff -r DIR_A DIR_B` shows whether a change altered any output byte.
With MANIFEST, the script also writes the outputs' sha256 manifest
there: one `sha256sum` line per file, after `#` lines naming the numpy
version and sampling contract that made them.  The checked-in
`tools/golden.sha256` is that manifest; `tests/test_golden.py`
regenerates the outputs and compares them with it, and a change that
alters outputs on purpose regenerates it.  Exits 1 if any invocation
fails.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from layered_aloha.cli import main as cli_main  # noqa: E402
from layered_aloha.scenarios import SCENARIOS  # noqa: E402
from layered_aloha.simulate import SAMPLING_CONTRACT  # noqa: E402

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
SAMPLER_EDGES = {  # file stem: outage flags at the channel sampler's edges
    "outage-b-eq-n": ["--channels", "6", "--arrival", "2", "--copies", "6", "--slots", "20000"],
    "outage-b-eq-n-minus-1": ["--channels", "6", "--arrival", "2", "--copies", "5",
                              "--slots", "20000"],
    "outage-large": ["--channels", "400", "--arrival", "40", "--copies", "30", "--slots", "4096"],
}
SYSTEM = ["--channels", "10", "--arrival", "10"]
GAMMA_SWEEP = ["sweep", "--var", "gamma-db", "--grid=-10:30:5", "--layers", "8",
               "--outputs", "analytic"] + SYSTEM
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
    for stem, flags in SAMPLER_EDGES.items():
        yield f"{stem}.csv", ["outage", "--layers", "3", "--rate", "1", "--gamma-db", "10",
                              "--seed", "13"] + flags
    for layers in ("3", "8"):
        argv = ["optimize-rates", "--layers", layers, "--gamma-db", "10"] + SYSTEM
        yield f"optimize-rates-l{layers}.txt", argv
        yield f"optimize-rates-l{layers}-bound.txt", argv + ["--use-bound"]
    yield "optimize-rates-60db.txt", ["optimize-rates", "--layers", "3", "--gamma-db", "60"] + SYSTEM
    yield "sweep-gamma-l8.csv", GAMMA_SWEEP
    for var, argv in SIMULATED_SWEEPS.items():
        yield f"sweep-{var}-simulated.csv", ["sweep", "--var", var, "--outputs",
                                             "analytic,simulated", "--slots", "5000"] + argv


def manifest(outdir) -> str:
    """sha256 manifest of the golden outputs in `outdir`, in file-name order."""
    lines = [f"# numpy {np.__version__}", f"# sampling_contract {SAMPLING_CONTRACT}"]
    for name in sorted(name for name, _ in invocations()):
        with open(os.path.join(outdir, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    if len(argv) not in (1, 2):
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
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if len(argv) == 2:
        with open(argv[1], "w", encoding="utf-8", newline="") as f:
            f.write(manifest(outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
