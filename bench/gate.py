"""Correctness gate for the CSV that `layered-aloha` writes.

A grid point passes when all of these hold for its rows:

* every value and standard error is finite;
* outage values lie in [0, 1] and throughput values are >= 0;
* where a closed form is exact, the simulated value agrees with it within
  `K_STDERR` standard errors:
  - layer-1 throughput at B = 1: `analytic_throughput` is exact for layer 1;
  - layer-1 outage at the B = 1 point.  The CSV's `analytic_outage` is
    Psi_1 = 1 - (1 - beta) E[w^(M-1) | M >= 1], conditioned on a busy
    slot, while the simulator reports the pooled per-user fraction,
    1 - (1 - beta) exp(-lam/N), which Palm calculus makes exact at B = 1.
    The gate recovers 1 - beta from Psi_1 and compares the simulation with
    the per-user form.

The gate stores no digest of the CSV bytes, so a change to the sampling
contract, which legitimately changes the sample path, still passes.  It
covers the workloads' operating region only: arrival rates above ~745
underflow the closed-form outage series and are not exercised.
"""

from __future__ import annotations

import math
from collections import defaultdict

K_STDERR = 5.0


def parse_csv(text: str):
    """Return (header config dict, data rows as dicts)."""
    config, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# config:"):
            config = dict(f.split("=", 1) for f in line[len("# config:"):].split())
        elif line.startswith("#") or not line:
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return config, rows


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _point_errors(rows, config, exact):
    errors = []
    by_key = {}
    for r in rows:
        value = _float(r["value"])
        stderr = _float(r["stderr"]) if r["stderr"] else 0.0
        label = f"{r['quantity']} layer {r['layer']}"
        if not (math.isfinite(value) and math.isfinite(stderr)):
            errors.append(f"{label}: not finite")
        elif r["quantity"].endswith("_outage") and not 0.0 <= value <= 1.0:
            errors.append(f"{label}: outage {value} outside [0, 1]")
        elif r["quantity"].endswith("_throughput") and value < 0.0:
            errors.append(f"{label}: negative throughput {value}")
        by_key[(r["quantity"], r["layer"])] = (value, stderr)
    if exact == "throughput_l1":
        errors += _agree(by_key, "throughput", lambda analytic: analytic)
    elif exact == "outage_l1_b1" and _float(rows[0]["x_value"]) == 1.0:
        lam, n = float(config["arrival_rate"]), int(config["channels"])
        w = 1.0 - 1.0 / n
        busy = (math.exp(-lam / n) - math.exp(-lam)) / (w * -math.expm1(-lam))
        errors += _agree(by_key, "outage",
                         lambda psi: 1.0 - (1.0 - psi) / busy * math.exp(-lam / n))
    return errors


def _agree(by_key, quantity, exact_from_analytic):
    try:
        analytic, _ = by_key[(f"analytic_{quantity}", "1")]
        simulated, stderr = by_key[(f"simulated_{quantity}", "1")]
    except KeyError:
        return [f"layer-1 analytic or simulated {quantity} row missing"]
    exact = exact_from_analytic(analytic)
    if not abs(simulated - exact) <= K_STDERR * stderr:
        return [f"layer-1 simulated {quantity} {simulated} vs exact {exact:.9g}: "
                f"off by more than {K_STDERR:g} stderr ({stderr})"]
    return []


def check(text: str, expected_points: int, exact: str | None = None):
    """Gate one CLI output.  Returns (points failed, error messages).

    A point the output lacks counts as failed, so a truncated or empty
    output fails every point it should have had.
    """
    config, rows = parse_csv(text)
    points = defaultdict(list)
    for r in rows:
        points[r["x_value"]].append(r)
    messages = []
    passed = 0
    for x, point_rows in points.items():
        errors = _point_errors(point_rows, config, exact)
        messages += [f"x={x}: {e}" for e in errors]
        passed += not errors
    if len(points) != expected_points:
        messages.append(f"expected {expected_points} grid points, got {len(points)}")
    if len(points) > expected_points:  # not the requested grid: nothing counts
        return expected_points, messages
    return expected_points - passed, messages
