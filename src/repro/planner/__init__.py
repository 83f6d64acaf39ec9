"""Observation-driven adaptive campaign planner (the planner plane).

The closed loop the paper's methodology implies: observations steer
which configurations get tried next, instead of exhausting a fixed
grid.  See DESIGN.md §3e.
"""

from repro.planner.frontier import ObservationFrontier, SweepPoint
from repro.planner.loop import (
    AdaptiveOutcome,
    AdaptivePlanner,
    PlanPreview,
    log_rows,
    plan_preview,
)
from repro.planner.policy import (
    BudgetedExplorer,
    Decision,
    GridPolicy,
    KneeBisectionPolicy,
    POLICY_NAMES,
    Policy,
    TieredFidelityPolicy,
    TopologyPromotionPolicy,
    make_policy,
)

__all__ = [
    "AdaptiveOutcome",
    "AdaptivePlanner",
    "BudgetedExplorer",
    "Decision",
    "GridPolicy",
    "KneeBisectionPolicy",
    "ObservationFrontier",
    "POLICY_NAMES",
    "PlanPreview",
    "Policy",
    "SweepPoint",
    "TieredFidelityPolicy",
    "TopologyPromotionPolicy",
    "log_rows",
    "make_policy",
    "plan_preview",
]
