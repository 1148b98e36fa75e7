"""Fast self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

Checks, at tiny slot counts and grids, that every workload emits exactly
the metrics BENCHMARK.json names, each with its unit, and passes the
gate; that the gate fails deliberately corrupted rows; and, once at the
workload's real size, that sim-outage-copies writes the same CSV bytes at
workers 1 and 2.  Exits 1 on the first set of failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import gate
import run

failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run.measure(name, seed=7, seconds=0, trace=trace, tiny=True)
            result = out["result"]
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={int(trace)}: {section} metrics and units")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)}: correct, {result['attempted']} points attempted "
                   f"{out['problems'][:2]}")
            if not trace:
                text = "\n".join(out["lines"])
                expect("error_rate 0 ratio" in text, f"{name}: error_rate line")
                expect(("slots_per_s" in text) == (name != "design-closed-form"),
                       f"{name}: slots_per_s line on simulating workloads only")


def _csv(argv):
    main, _ = run._import_program()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _corrupt(text, quantity, layer, new_value):
    """Replace the value of the first row with this quantity and layer."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        f = line.split(",")
        if len(f) == 9 and f[4] == quantity and f[3] == layer:
            f[5] = new_value(float(f[5]), float(f[6] or 0))
            lines[i] = ",".join(f)
            return "".join(lines)
    raise LookupError(f"no {quantity} layer {layer} row")


def check_gate():
    thr = run.build_workload("sim-throughput", 7, tiny=True)[0]
    out = run.build_workload("sim-outage-copies", 7, tiny=True)[0]
    _, thr_csv = _csv(thr.argv)
    _, out_csv = _csv(out.argv)
    expect(gate.check(thr_csv, 14, thr.exact)[0] == 0, "gate passes real throughput output")
    expect(gate.check(out_csv, 12, out.exact)[0] == 0, "gate passes real outage output")
    cases = [
        (thr_csv, 14, thr.exact, "simulated_throughput", "1",
         lambda v, se: repr(v + 10 * se), "layer-1 throughput 10 stderr off"),
        (thr_csv, 14, thr.exact, "analytic_throughput", "total",
         lambda v, se: "-0.5", "negative throughput"),
        (thr_csv, 14, thr.exact, "simulated_throughput", "2",
         lambda v, se: "nan", "NaN value"),
        (out_csv, 12, out.exact, "simulated_outage", "3",
         lambda v, se: "1.5", "outage above 1"),
        (out_csv, 12, out.exact, "simulated_outage", "1",
         lambda v, se: repr(v + 10 * se), "layer-1 outage at B=1 10 stderr off"),
    ]
    for text, points, exact, quantity, layer, new_value, what in cases:
        failed, messages = gate.check(_corrupt(text, quantity, layer, new_value), points, exact)
        expect(failed == 1, f"gate fails one point on: {what} ({messages[:1]})")
    truncated = "".join(thr_csv.splitlines(keepends=True)[:-4])
    expect(gate.check(truncated, 14, thr.exact)[0] == 1, "gate fails a point whose rows are cut")
    expect(gate.check("", 14, thr.exact)[0] == 14, "gate fails every point of an empty output")


def check_determinism():
    argv = run.build_workload("sim-outage-copies", 7)[0].argv
    rc1, one = _csv(argv)
    rc2, two = _csv(run._with_workers(argv, 2))
    expect(rc1 == rc2 == 0 and one == two,
           "sim-outage-copies CSV identical at workers 1 and 2 (full size)")


if __name__ == "__main__":
    check_metrics()
    check_gate()
    check_determinism()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
