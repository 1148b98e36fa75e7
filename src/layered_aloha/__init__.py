"""Layered non-orthogonal multichannel random access.

Closed-form throughput and outage analysis of a power-layered slotted
random-access scheme with successive interference cancellation, a
recursive rate/arrival optimizer, and a slot-level Monte Carlo simulator
that serves as the ground truth for the closed forms.

`import layered_aloha` loads `model`, `throughput` and `outage`; every
other public name loads its submodule on first lookup.
"""

import importlib

# The two names that share their submodule's name are bound here, after the
# submodule loads: loading a submodule sets the package attribute of its name
# to the module, so a name bound before that load would be replaced by it.
# `outage` imports `model` and `throughput`, so binding `throughput` loads nothing.
from .outage import outage
from .throughput import throughput

__version__ = "0.1.0"

#: public name -> the submodule that defines it, imported on first lookup
_LAZY = {name: module for module, names in (
    ("model", ("SystemConfig", "allocate_powers", "collision_prob", "config_from_settings",
               "db_to_linear", "design_config", "interference_variance", "load_config_file",
               "parse_config_text", "snr_gap")),
    ("optimize", ("ArrivalPlan", "RatePlan", "optimize_arrivals", "optimize_rates")),
    ("outage", ("OutageReport", "beta_crrd", "conditional_collision_moment", "psi_series")),
    ("scenarios", ("SCENARIOS", "Scenario", "ScenarioResult", "get_scenario", "run_scenario")),
    ("simulate", ("BLOCKED", "COLLIDED", "DECODED", "SINR_FAILURE", "DecodeReport",
                  "EstimatorOutput", "OutageEstimate", "SlotRealization", "ThroughputEstimate",
                  "estimate_outage", "estimate_throughput", "sample_slots", "sic_decode")),
    ("throughput", ("AnalyticReport", "baseline_aloha_max", "baseline_irsa", "capture_prob_exact",
                    "capture_prob_lower_bound", "eta", "lone_pair_capture", "rho",
                    "sla_layer_contributions", "sla_lower_bound")),
) for name in names}

#: submodules that are package attributes, like `layered_aloha.simulate`, and
#: that `from layered_aloha import *` binds, as when the package imported them
_SUBMODULES = ("optimize", "scenarios", "simulate")

__all__ = sorted({"model", "outage", "throughput", *_SUBMODULES, *_LAZY})


def __getattr__(name):
    if name in _SUBMODULES:  # the import sets the attribute, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
