"""Spans and counts recorded around calls into layered_aloha's modules.

A `Tracer` is a context manager.  On entry it replaces module attributes
with recording wrappers, at the place each name is looked up at call time
(``scenarios`` imports ``optimize_rates`` by name, so the wrapper goes on
``layered_aloha.scenarios``); on exit it restores every original.  Nothing
under ``src/`` changes.  Spans (name, start, end, parent) and counts live
in memory until the caller writes them out.

Pool workers are forked while the wrappers are installed, so spans they
record stay in the worker.  The pool proxy instead times each task inside
the worker and hands the interval back with its result; those intervals
are kept apart from the spans (`remote`), because they run concurrently
and would not partition the parent's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

_MOD = "layered_aloha."


def _module(name):
    # layered_aloha.outage (the module) is shadowed by the function of the
    # same name exported from the package, so fetch modules by import path
    return importlib.import_module(_MOD + name)


class Tracer:
    """Install recording wrappers for the duration of a `with` block."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.remote: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self.counts[name + ".calls"] += 1
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own (the harness's entry call)."""
        return self._span(name, fn)(*args)

    # --- result hooks ---------------------------------------------------------

    def _after_sample(self, args, batch):
        config, ch = args[0], batch[1]
        users = ch.shape[0]
        self.counts["users_sampled"] += users
        self.counts["copies_sampled"] += ch.size
        # bytes of the channel-draw array, computed from its shape: the
        # int64 permutation tile is (users, N) for B > 1, the integers
        # draw is (users, 1) for B = 1
        width = config.num_channels if config.repetition > 1 else 1
        self.counts["draw_bytes"] += users * width * 8

    def _after_decode(self, args, result):
        decoded = result[0] if isinstance(result, tuple) else result
        self.counts["users_decoded"] += int(decoded.sum())

    def _after_run_scenario(self, args, result):
        self.counts["points"] += len(args[0].grid)

    # --- install / restore ----------------------------------------------------

    def _patch(self, owner, attr, wrap):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrap(orig))

    def __enter__(self):
        cli, scen, sim = _module("cli"), _module("scenarios"), _module("simulate")
        model, opt, out = _module("model"), _module("optimize"), _module("outage")
        span = self._span
        patches = [
            (cli, "get_scenario", "scenarios", None),
            (cli, "run_scenario", "scenarios", self._after_run_scenario),
            (cli, "optimize_rates", "optimize.rates", None),
            (cli, "throughput", "throughput", None),
            (cli, "outage", "outage", None),
            (cli, "estimate_throughput", "simulate.estimate", None),
            (scen.ScenarioResult, "to_csv", "scenarios.render", None),
            (scen, "design_config", "model.config", None),
            (model, "config_from_settings", "model.config", None),
            (model.SystemConfig, "with_rates", "model.config", None),
            (scen, "optimize_rates", "optimize.rates", None),
            (scen, "optimize_arrivals", "optimize.arrivals", None),
            (scen, "throughput", "throughput", None),
            (scen, "outage", "outage", None),
            (scen, "estimate_throughput", "simulate.estimate", None),
            (scen, "estimate_outage", "simulate.estimate", None),
            (sim, "estimate_outage", "simulate.estimate", None),
            (sim, "_map_batches", "simulate.map", None),
            (sim, "_batch_worker", "simulate.batch", None),
            (sim, "_sample_batch", "simulate.sample", self._after_sample),
            (sim, "_decode_batch", "simulate.decode", self._after_decode),
        ]
        try:
            for owner, attr, name, after in patches:
                self._patch(owner, attr, lambda fn, n=name, a=after: span(n, fn, a))
            self._patch(opt, "capture_prob_exact", lambda fn: self._count("objective_evals", fn))
            self._patch(out, "conditional_collision_moment",
                        lambda fn: self._count("series_fallbacks", fn))
            self._patch(sim, "multiprocessing", lambda mp: _PoolCounter(mp, self))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    # --- derived quantities -----------------------------------------------------

    def self_times_ns(self) -> Counter:
        """Per span name: total duration minus the time its child spans cover.

        Spans in one process nest and never overlap, so a parent's covered
        time is the sum of its children's durations.
        """
        child_ns = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child_ns[i]
        return out

    def total_ns(self, name) -> int:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def batch_ns(self) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == "simulate.batch"]

    def map_overhead_ns(self) -> int:
        """Map time during which no batch ran: task set-up, pool start-up,
        dispatch and teardown.  Batches are the map span's own child spans
        (serial) or the intervals pool workers reported (parallel)."""
        batches = defaultdict(list)
        for name, start, end, parent in self.spans:
            if name == "simulate.batch" and parent >= 0:
                batches[parent].append((start, end))
        total = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == "simulate.map":
                total += end - start - _union_ns(batches[i] + self.remote[i])
        return total


def _union_ns(intervals) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _timed_task(arg):
    """Pool-side shim: run one task and report when it ran."""
    fn, task = arg
    start = time.perf_counter_ns()  # CLOCK_MONOTONIC: comparable across processes
    result = fn(task)
    return result, start, time.perf_counter_ns()


class _PoolCounter:
    """Stand-in for the `multiprocessing` module as seen by `simulate`.

    Counts pool start-ups and times each mapped task in its worker.
    """

    def __init__(self, mp, tracer: Tracer):
        self._mp = mp
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._mp, attr)

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors multiprocessing.Pool
        self._tracer.counts["pool_starts"] += 1
        return _TimedPool(self._mp.Pool(*args, **kwargs), self._tracer)


class _TimedPool:
    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, fn, tasks, chunksize=None):
        timed = self._pool.map(_timed_task, [(fn, t) for t in tasks], chunksize)
        stack = self._tracer._stack
        intervals = self._tracer.remote[stack[-1] if stack else -1]
        intervals.extend((start, end) for _, start, end in timed)
        return [result for result, _, _ in timed]
