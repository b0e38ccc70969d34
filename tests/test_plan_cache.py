"""The planner's decision cache is a bounded LRU.

Its key carries client-supplied ``k``, n-range and ``target_recall``, so
an unbounded cache would grow with every distinct request.
"""

import numpy as np

from repro import MatchDatabase
from repro.plan import DECISION_CACHE_SIZE, CostCurve, PlanModel, QueryPlanner


def _planner():
    data = np.round(np.random.default_rng(3).random((240, 6)) * 4) / 4
    # fixed curves: decisions need no probing, so cold plans are cheap
    model = PlanModel(
        {
            "block-ad": CostCurve("block-ad", 1e-7, source="bench"),
            "naive": CostCurve("naive", 2e-7, source="bench"),
        }
    )
    return QueryPlanner(MatchDatabase(data), model=model)


def test_many_keys_stay_bounded_and_recent_plans_survive():
    planner = _planner()
    kept = planner.plan("k_n_match", 5, (3, 3))
    oldest = planner.plan("k_n_match", 1, (1, 1))
    keys = [(k, n) for n in (1, 2) for k in range(1, 240)][1:]
    for k, n in keys[: DECISION_CACHE_SIZE + 40]:
        planner.plan("k_n_match", k, (n, n))
        # touching a key keeps it the most recently used
        assert planner.plan("k_n_match", 5, (3, 3)) is kept
    assert len(planner._decisions) == DECISION_CACHE_SIZE
    replanned = planner.plan("k_n_match", 1, (1, 1))
    assert replanned is not oldest
    assert replanned.engine == oldest.engine


def test_target_recall_keys_are_bounded_too():
    planner = _planner()
    for step in range(DECISION_CACHE_SIZE + 10):
        planner.plan(
            "k_n_match", 5, (3, 3), mode="approx",
            target_recall=0.5 + step / (4 * DECISION_CACHE_SIZE),
        )
    assert len(planner._decisions) == DECISION_CACHE_SIZE
