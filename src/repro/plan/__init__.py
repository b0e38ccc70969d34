"""Cost-based query planning: the ``engine="auto"`` subsystem.

See :mod:`repro.plan.model` for the calibrated per-database cost curves
and :mod:`repro.plan.planner` for how a decision is made.  The planner
never changes answers — every candidate engine is exact and shares the
canonical tie-break — it only chooses which one runs.
"""

from .model import (
    CostCurve,
    PlanModel,
    load_plan_model,
    plan_model_path,
    save_plan_model,
)
from .planner import (
    DECISION_CACHE_SIZE,
    FALLBACK_ENGINE,
    PLAN_KINDS,
    QueryPlan,
    QueryPlanner,
)

__all__ = [
    "CostCurve",
    "PlanModel",
    "QueryPlan",
    "QueryPlanner",
    "DECISION_CACHE_SIZE",
    "FALLBACK_ENGINE",
    "PLAN_KINDS",
    "plan_model_path",
    "save_plan_model",
    "load_plan_model",
]
