"""radiosync: deterministic simulation of energy-optimal wireless clock
synchronization under radio duty cycling.

m processors wake at arbitrary offsets within a window of n ticks and must
end up displaying identical logical clocks while turning their radios on as
few ticks as possible.  The package provides the duty-cycle policies, the
per-processor protocol state machines, a deterministic tick engine with
full trace capture and energy accounting, exact-rational trace analysis
(clusters, covering densities, geometry checkers), a sub-unit-offset
extension, lower-bound probes, and a CLI experiment runner.
"""

from .core import (
    ConfigError,
    SimConfig,
    Topology,
    ceil_log2,
    complete_topology,
    compute_k,
    validate_config,
)
from .policy import PolicyString, basic_policy, naive_policy, on_ticks, overlaps, policy_len
from .engine import EnergyReport, Message, SimTrace, World, energy, run
from .protocols import ceil_sqrt, dynamic_next, flatten_next
from .fractional import (
    FracWorld,
    adopt_fractional,
    anchors,
    overlap_fraction,
    q_prime,
    run_fractional,
    timeline_anchor,
)
from .adversary import (
    OffsetWitness,
    budget_curve,
    build_topology,
    l_connected,
    multi_hop_experiment,
    search_non_overlap,
    two_clique,
    unit_disk,
    unit_disk_two_clique,
)
from . import analysis

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "SimConfig", "Topology", "ceil_log2", "complete_topology",
    "compute_k", "validate_config", "PolicyString", "basic_policy",
    "naive_policy", "on_ticks", "overlaps", "policy_len", "EnergyReport",
    "Message", "SimTrace", "World", "energy", "run", "ceil_sqrt",
    "dynamic_next", "flatten_next", "FracWorld",
    "adopt_fractional", "anchors", "overlap_fraction", "q_prime",
    "run_fractional", "timeline_anchor", "OffsetWitness", "budget_curve",
    "build_topology", "l_connected", "multi_hop_experiment",
    "search_non_overlap", "two_clique", "unit_disk", "unit_disk_two_clique",
    "analysis",
]
