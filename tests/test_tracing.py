"""The benchmark's tracer patches names in `layered_aloha`'s modules; a
renamed or deleted one would otherwise show only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    # fetched by import path: the package's `outage` function shadows the module
    mods = {n: importlib.import_module("layered_aloha." + n)
            for n in ("cli", "model", "optimize", "outage", "scenarios", "simulate")}
    # the tracer's lookups bind names as module globals on first use: `cli`
    # binds the library names its commands call, `simulate` binds
    # `multiprocessing`.  One empty run binds them all before any snapshot
    # of the modules' names is taken
    with _load_tracing().Tracer():
        pass
    return {**mods, "SystemConfig": mods["model"].SystemConfig,
            "ScenarioResult": mods["scenarios"].ScenarioResult}


def test_tracer_patches_the_library_names_and_restores_every_original():
    spaces = _namespaces()
    before = {name: dict(vars(ns)) for name, ns in spaces.items()}
    with _load_tracing().Tracer():
        wrapped = {(name, attr) for name, ns in spaces.items()
                   for attr, value in vars(ns).items() if before[name].get(attr) is not value}
    assert {("cli", "optimize_rates"), ("scenarios", "optimize_rates"),
            ("scenarios", "optimize_arrivals"), ("optimize", "capture_prob_exact")} <= wrapped
    for name, ns in spaces.items():
        after = vars(ns)
        assert after.keys() == before[name].keys()
        assert all(after[attr] is value for attr, value in before[name].items()), name
