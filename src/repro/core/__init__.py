"""Core of the reproduction: the k-n-match problem and its engines."""

from .ad import ADEngine
from .ad_block import BlockADEngine
from .distance import (
    chebyshev_distance,
    dpf_distance,
    euclidean_distance,
    manhattan_distance,
    match_count_within,
    match_profile,
    minkowski_distance,
    n_match_difference,
    n_match_differences,
)
from .dynamic import DynamicMatchDatabase
from .engine import ENGINE_NAMES, MatchDatabase, validate_engine_name
from .merge import answer_set_differences, merge_parts, merge_top_k
from .mixed import CATEGORICAL, NUMERIC, MixedMatchDatabase, Schema
from .advisor import (
    CostEstimate,
    EngineAdvice,
    estimate_fraction_retrieved,
    recommend_engine,
)
from .anytime import AnytimeADEngine, AnytimeResult
from .explain import MatchExplanation, explain_match
from .weighted import WeightedMatchDatabase
from .naive import NaiveScanEngine, naive_frequent_k_n_match, naive_k_n_match
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = [
    "ADEngine",
    "BlockADEngine",
    "NaiveScanEngine",
    "MatchDatabase",
    "DynamicMatchDatabase",
    "MixedMatchDatabase",
    "WeightedMatchDatabase",
    "AnytimeADEngine",
    "AnytimeResult",
    "MatchExplanation",
    "explain_match",
    "CostEstimate",
    "EngineAdvice",
    "estimate_fraction_retrieved",
    "recommend_engine",
    "Schema",
    "NUMERIC",
    "CATEGORICAL",
    "ENGINE_NAMES",
    "validate_engine_name",
    "merge_top_k",
    "merge_parts",
    "answer_set_differences",
    "MatchResult",
    "FrequentMatchResult",
    "SearchStats",
    "rank_by_frequency",
    "n_match_difference",
    "n_match_differences",
    "match_profile",
    "match_count_within",
    "minkowski_distance",
    "euclidean_distance",
    "manhattan_distance",
    "chebyshev_distance",
    "dpf_distance",
    "naive_k_n_match",
    "naive_frequent_k_n_match",
]
