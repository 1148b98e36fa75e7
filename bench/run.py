"""Benchmark of the `layered-aloha` command line, end to end and per module.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI invocations run in-process through
`layered_aloha.cli.main(argv)`, with the CSV captured in memory and
checked by `gate.py`.  A pass runs the list once; the run repeats passes
until `--seconds` have gone by and reports medians over passes.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s, peak_rss_mb and
setup_s (plus slots_per_s and error_rate as text lines).  --trace 1
alternates untraced and traced passes and reports per-module metrics from
`tracing.Tracer`, plus the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fewest fresh interpreters started per run to time set-up (one follows
#: each pass, so the samples span the run); setup_s is their median
SETUP_REPEATS = 7

#: simulated slots per grid point; SLOTS_TINY serves the self-test
SLOTS = {"sim-throughput": 50_000, "sim-outage-copies": 25_000}
SLOTS_TINY = 2_000


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    points: int  # grid points the output must hold
    slots: int  # simulated slots per point, 0 for closed-form only
    exact: str | None = None  # which exact closed form gate.py compares against


def _with_workers(argv, workers):
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return tuple(argv)


def build_workload(name: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The CLI invocations of one workload.  The seed reaches the program
    only as the CLI's --seed; the shapes are fixed."""
    cli_seed = str(seed % 2 ** 32)
    if name == "sim-throughput":
        # L=3, N=10, B=1, lambda=1..14, rates optimized per point; serial
        slots = SLOTS_TINY if tiny else SLOTS[name]
        argv = ("scenario", "throughput-vs-arrival", "--workers", "1",
                "--slots", str(slots), "--seed", cli_seed, "--out", "-")
        return [Invocation(argv, 14, slots, "throughput_l1")]
    if name == "sim-outage-copies":
        # L=3, N=60, B=1..12.  Timed at workers 1: on 2 vCPUs shared with
        # other tenants, a 2-worker pool's wall time spread 26% between
        # runs.  Traced runs add a workers-2 pass for the pool's metrics.
        slots = SLOTS_TINY if tiny else SLOTS[name]
        argv = ("scenario", "outage-vs-copies", "--workers", "1",
                "--slots", str(slots), "--seed", cli_seed, "--out", "-")
        return [Invocation(argv, 12, slots, "outage_l1_b1")]
    if name == "design-closed-form":
        # Not in BENCHMARK.json: nearly all pure-Python optimizer work, whose
        # speed on a shared host drifts by more than the largest bound the
        # benchmark may set.  Kept for manual runs and its per-layer trace.
        gamma_grid, copies_grid = ("0:20:10", "1:40:13") if tiny else ("0:20:0.5", "1:40:1")
        gamma_points = 3 if tiny else 41
        copies_points = 4 if tiny else 40
        work = []
        for layers in range(1, 9):
            argv = ("sweep", "--var", "gamma-db", "--grid", gamma_grid, "--outputs", "analytic",
                    "--layers", str(layers), "--channels", "10", "--arrival", "10",
                    "--seed", cli_seed, "--out", "-")
            work.append(Invocation(argv, gamma_points, 0))
        for layers in (3, 8):
            for lam in ("3", "30", "300"):
                argv = ("sweep", "--var", "copies", "--grid", copies_grid, "--outputs", "analytic",
                        "--layers", str(layers), "--channels", "400", "--arrival", lam,
                        "--seed", cli_seed, "--out", "-")
                work.append(Invocation(argv, copies_points, 0))
        return work
    raise ValueError(f"unknown workload {name!r}")


#: why each workload was chosen: BENCHMARK.json and README.md; the last is
#: run by hand only
WORKLOADS = ("sim-throughput", "sim-outage-copies", "design-closed-form")


# --- one pass -------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outputs: list[tuple[int, str, str]]  # (exit code, stdout, stderr) per invocation


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(main, work: list[Invocation], tracer=None) -> Pass:
    outputs = []
    cpu0 = _cpu_now()
    t0 = time.perf_counter()
    for inv in work:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(inv.argv)) if tracer is None else tracer.call("cli", main, list(inv.argv))
        outputs.append((rc, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t0
    return Pass(wall, _cpu_now() - cpu0, outputs)


def gate_pass(gate, work: list[Invocation], p: Pass) -> tuple[int, list[str]]:
    """Points failed in one pass, with messages."""
    failed, messages = 0, []
    for inv, (rc, out, err) in zip(work, p.outputs):
        if rc != 0:
            failed += inv.points
            messages.append(f"{' '.join(inv.argv)}: exit code {rc}: {err.strip()}")
            continue
        try:
            bad, msgs = gate.check(out, inv.points, inv.exact)
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            bad, msgs = inv.points, [f"unreadable output: {exc!r}"]
        failed += bad
        messages += [f"{' '.join(inv.argv[:2])}: {m}" for m in msgs]
    return failed, messages


def csv_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for _, out, _ in p.outputs:
        h.update(out.encode())
    return h.hexdigest()


# --- set-up time ------------------------------------------------------------------

_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import layered_aloha
from layered_aloha.cli import build_parser
parser = build_parser()
for argv in json.loads(sys.argv[2]):
    parser.parse_args(argv)
print(repr(time.perf_counter() - t0))
"""


def setup_time(work: list[Invocation]) -> float:
    """A fresh interpreter's `import layered_aloha` plus parsing the
    workload's argv, timed inside that interpreter."""
    argvs = json.dumps([list(inv.argv) for inv in work])
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), argvs], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# --- per-module metrics from one traced pass --------------------------------------

#: workload whose traced runs add a --workers 2 pass, and the metrics that
#: pass supplies; its other metrics stay those of the workers 1 pass, whose
#: spans partition the wall time (pool workers' spans stay in the workers)
POOL_WORKLOAD = "sim-outage-copies"
POOL_METRICS = ("simulate.map_overhead_s", "simulate.pool_starts")

# deterministic for a fixed seed: must repeat exactly between passes
EXACT_UNITS = ("count", "bytes", "ratio", "%")


def _ratio(num, den):
    return num / den if den else 0.0


def _nearest_rank(sorted_values, pct):
    if not sorted_values:
        return 0
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it (50 at least)."""
    return max(50, int(100 - 1000 / n)) if n else 0


def layer_metrics(tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    c = tracer.counts
    total = tracer.total_ns
    own = tracer.self_times_ns()
    s = 1e-9
    batches = sorted(tracer.batch_ns())
    pct = tail_pct(len(batches))
    return {
        "simulate.sample_s": (total("simulate.sample") * s, "s"),
        "simulate.sample_ns_per_user": (_ratio(total("simulate.sample"), c["users_sampled"]), "ns"),
        "simulate.users_sampled": (c["users_sampled"], "count"),
        "simulate.draw_bytes": (c["draw_bytes"], "bytes"),
        "simulate.decode_s": (total("simulate.decode") * s, "s"),
        "simulate.decode_ns_per_copy": (_ratio(total("simulate.decode"), c["copies_sampled"]), "ns"),
        "simulate.decoded_share": (_ratio(c["users_decoded"], c["users_sampled"]), "ratio"),
        "simulate.batch_ms_p50": (_nearest_rank(batches, 50) * 1e-6, "ms"),
        "simulate.batch_ms_ptail": (_nearest_rank(batches, pct) * 1e-6, "ms"),
        "simulate.batch_tail_pct": (pct, "%"),
        "simulate.batch_samples": (len(batches), "count"),
        "simulate.batch_self_s": (own["simulate.batch"] * s, "s"),
        "simulate.map_s": (total("simulate.map") * s, "s"),
        "simulate.map_overhead_s": (tracer.map_overhead_ns() * s, "s"),
        "simulate.pool_starts": (c["pool_starts"], "count"),
        "simulate.reduce_s": (own["simulate.estimate"] * s, "s"),
        "optimize.rates_s": (total("optimize.rates") * s, "s"),
        "optimize.rates_calls": (c["optimize.rates.calls"], "count"),
        "optimize.objective_evals": (c["objective_evals"], "count"),
        "optimize.ns_per_eval": (_ratio(total("optimize.rates"), c["objective_evals"]), "ns"),
        "optimize.arrivals_s": (total("optimize.arrivals") * s, "s"),
        "outage.closed_form_s": (total("outage") * s, "s"),
        "outage.calls": (c["outage.calls"], "count"),
        "outage.series_fallbacks": (c["series_fallbacks"], "count"),
        "throughput.closed_form_s": (total("throughput") * s, "s"),
        "throughput.calls": (c["throughput.calls"], "count"),
        "scenarios.self_s": (own["scenarios"] * s, "s"),
        "scenarios.render_s": (own["scenarios.render"] * s, "s"),
        "scenarios.points": (c["points"], "count"),
        "model.config_s": (own["model.config"] * s, "s"),
        "cli.self_s": (own["cli"] * s, "s"),
        "trace.wall_s": (wall_s, "s"),
        # pass wall time no layer's self time covers: the harness's own
        # redirection between CLI calls; small by construction
        "trace.unattributed_s": (wall_s - sum(own.values()) * s, "s"),
    }


# --- provenance -------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not executed)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(name, seed, work, np_version, passes) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "cli_seed": seed % 2 ** 32,
        "slots_per_point": sorted({inv.slots for inv in work}),
        "grid_points": sum(inv.points for inv in work),
        "invocations": len(work),
        "passes": passes,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
    }


# --- the run ------------------------------------------------------------------------


def _import_program():
    if not (SRC / "layered_aloha" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'layered_aloha'} not found; "
                         "run from the root of a layered-aloha checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    from layered_aloha import cli

    if Path(cli.__file__).resolve().parent != SRC / "layered_aloha":
        raise SystemExit(f"error: imported layered_aloha from {cli.__file__}, not {SRC}")
    return cli.main, numpy.__version__


def _median_metrics(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median over passes for timings; counts must repeat exactly."""
    merged, problems = {}, []
    for key, (value, unit) in per_pass[0].items():
        values = [m[key][0] for m in per_pass]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{key} differs between passes: {values}")
            merged[key] = (value, unit)
        else:
            merged[key] = (statistics.median(values), unit)
    return merged, problems


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object and the text lines."""
    main, np_version = _import_program()
    import gate
    import tracing

    work = build_workload(name, seed, tiny)
    lines: list[str] = []
    problems: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}
    setup: list[float] = []

    plain: list[Pass] = []
    traced: list[tuple[Pass, object]] = []
    pooled: list[tuple[Pass, object]] = []
    pool_work = ([Invocation(_with_workers(inv.argv, 2), inv.points, inv.slots, inv.exact)
                  for inv in work] if name == POOL_WORKLOAD else None)
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        plain.append(run_pass(main, work))
        if not trace:
            setup.append(setup_time(work))
        else:
            for runs, w in ((traced, work), (pooled, pool_work)):
                if w is not None:
                    with tracing.Tracer() as tracer:
                        p = run_pass(main, w, tracer)
                    runs.append((p, tracer))
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:  # the next cycle would overrun
            break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_time(work))

    all_passes = [(work, p) for p in plain] + [(work, p) for p, _ in traced]
    all_passes += [(pool_work, p) for p, _ in pooled]
    attempted = failed = 0
    for w, p in all_passes:
        bad, msgs = gate_pass(gate, w, p)
        attempted += sum(inv.points for inv in w)
        failed += bad
        problems += msgs
    digests = {csv_digest(p) for w, p in all_passes}
    if len(digests) > 1:
        problems.append("CSV output differs between passes of one seed (or across worker counts)")

    if trace:
        per_pass = [layer_metrics(tr, p.wall_s) for p, tr in traced]
        merged, diffs = _median_metrics(per_pass)
        problems += diffs
        if pooled:
            pool_merged, diffs = _median_metrics(
                [layer_metrics(tr, p.wall_s) for p, tr in pooled])
            problems += diffs
            merged.update({k: pool_merged[k] for k in POOL_METRICS})
        untraced = statistics.median(p.wall_s for p in plain)
        merged["trace.untraced_wall_s"] = (untraced, "s")
        merged["trace.overhead_s"] = (merged["trace.wall_s"][0] - untraced, "s")
        metrics = merged
        self_sum = merged["trace.wall_s"][0] - merged["trace.unattributed_s"][0]
        lines.append(f"# self times sum to {self_sum:.4f} s of traced wall "
                     f"{merged['trace.wall_s'][0]:.4f} s; tracing overhead "
                     f"{merged['trace.overhead_s'][0]:.4f} s over untraced {untraced:.4f} s")
        _write_trace(name, seed, traced + pooled)
    else:
        walls = [p.wall_s for p in plain]
        wall = statistics.median(walls)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in plain), "s"),
            "peak_rss_mb": (max(self_rss, kids_rss) / 1024.0, "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        slots = sum(inv.points * inv.slots for inv in work)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall, wall, wall]
        lines.append(f"# wall_s over {len(walls)} passes: median {wall:.4f} s, "
                     f"quartiles {q[0]:.4f} .. {q[2]:.4f} s, max {max(walls):.4f} s")
        if slots:
            lines.append(f"slots_per_s {slots / wall:.1f} 1/s ({slots} simulated slots per pass)")
        lines.append(f"error_rate {_ratio(failed, attempted):.6g} ratio "
                     f"({failed} of {attempted} grid points failed the gate)")

    prov = provenance(name, seed, work, np_version, len(plain) + len(traced) + len(pooled))
    prov["csv_sha256"] = sorted(digests)
    prov["pass_wall_s"] = [p.wall_s for p in plain]
    if setup:
        prov["setup_s_samples"] = setup
    lines += [f"{k} {v:.9g} {unit}" for k, (v, unit) in metrics.items()]
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return {"result": result, "lines": lines, "problems": problems}


def _write_trace(name, seed, runs):
    """Spans and counts of every traced pass, written once at the end."""
    OUT_DIR.mkdir(exist_ok=True)
    payload = [
        {"wall_s": p.wall_s, "counts": dict(tr.counts), "spans": tr.spans,
         "remote": {str(k): v for k, v in tr.remote.items()}}
        for p, tr in runs
    ]
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(payload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in out["problems"]:
        print(f"gate: {msg}", file=sys.stderr)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
