"""Layered non-orthogonal multichannel random access.

Closed-form throughput and outage analysis of a power-layered slotted
random-access scheme with successive interference cancellation, a
recursive rate/arrival optimizer, and a slot-level Monte Carlo simulator
that serves as the ground truth for the closed forms.
"""

from .model import (
    SystemConfig,
    allocate_powers,
    collision_prob,
    config_from_settings,
    db_to_linear,
    design_config,
    interference_variance,
    load_config_file,
    parse_config_text,
    snr_gap,
)
from .optimize import (
    ArrivalPlan,
    RatePlan,
    optimize_arrivals,
    optimize_rates,
)
from .outage import (
    OutageReport,
    beta_crrd,
    conditional_collision_moment,
    outage,
    psi_series,
)
from .scenarios import SCENARIOS, Scenario, ScenarioResult, get_scenario, run_scenario
from .simulate import (
    BLOCKED,
    COLLIDED,
    DECODED,
    SINR_FAILURE,
    DecodeReport,
    EstimatorOutput,
    OutageEstimate,
    SlotRealization,
    ThroughputEstimate,
    estimate_outage,
    estimate_throughput,
    sample_slots,
    sic_decode,
)
from .throughput import (
    AnalyticReport,
    baseline_aloha_max,
    baseline_irsa,
    capture_prob_exact,
    capture_prob_lower_bound,
    eta,
    lone_pair_capture,
    rho,
    sla_layer_contributions,
    sla_lower_bound,
    throughput,
)

__version__ = "0.1.0"
