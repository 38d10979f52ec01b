"""Sketch-accelerated online weighted bipartite matching.

Offline points are indexed once; online points arrive one at a time and are
matched greedily.  The expensive per-arrival argmax is served either exactly
(linear scan) or through sketch and LSH structures whose estimation error is
absorbed by robustness bounds on the greedy ratio.
"""

from .core import (
    DimensionMismatch,
    NormBoundError,
    ParameterError,
    PointSet,
    SeededRng,
    distance,
    inner_product,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    transform_data,
    transform_query,
)
from .ade import SketchBank, SketchPlan, ade_init, ade_query, ade_update
from .ipe import IpeState, ipe_init, ipe_query, ipe_update
from .maxip import (
    LshIndex,
    LshParams,
    MaxIpResult,
    maxip_exponent,
    maxip_init,
    maxip_lower,
    maxip_query,
    maxip_update,
)
from .matching import (
    MATCHER_KINDS,
    DistanceMatching,
    FasterInnerProductMatching,
    GreedyExact,
    InnerProductMatching,
    IncrementOracle,
    MatchState,
    flagged_steps,
    inject_noise_oracle,
    match_init,
    match_query,
    match_update,
    realized_value,
)
from .oracle import (
    OptimalMatching,
    check_submodular,
    exhaustive_opt,
    matching_set_function,
    optimal_matching,
    welfare_greedy,
)
from .sampler import PrefixTree, sampler_init, sampler_query

__all__ = [
    "DimensionMismatch",
    "NormBoundError",
    "ParameterError",
    "PointSet",
    "SeededRng",
    "distance",
    "inner_product",
    "load_csv",
    "load_jsonl",
    "save_csv",
    "save_jsonl",
    "transform_data",
    "transform_query",
    "SketchBank",
    "SketchPlan",
    "ade_init",
    "ade_query",
    "ade_update",
    "IpeState",
    "ipe_init",
    "ipe_query",
    "ipe_update",
    "LshIndex",
    "LshParams",
    "MaxIpResult",
    "maxip_exponent",
    "maxip_init",
    "maxip_lower",
    "maxip_query",
    "maxip_update",
    "MATCHER_KINDS",
    "DistanceMatching",
    "FasterInnerProductMatching",
    "GreedyExact",
    "InnerProductMatching",
    "IncrementOracle",
    "MatchState",
    "flagged_steps",
    "inject_noise_oracle",
    "match_init",
    "match_query",
    "match_update",
    "realized_value",
    "OptimalMatching",
    "check_submodular",
    "exhaustive_opt",
    "matching_set_function",
    "optimal_matching",
    "welfare_greedy",
    "PrefixTree",
    "sampler_init",
    "sampler_query",
]

__version__ = "0.1.0"
