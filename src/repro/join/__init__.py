"""Fuzzy join algorithms: extended merge-join and block nested loop."""

from .merge_join import JOIN_PHASE, MergeJoin
from .nested_loop import NL_PHASE, NestedLoopJoin
from .predicates import (
    JoinPredicate,
    all_quantifier_degree,
    antijoin_degree,
    join_degree,
)

__all__ = [
    "MergeJoin",
    "JOIN_PHASE",
    "NestedLoopJoin",
    "NL_PHASE",
    "JoinPredicate",
    "join_degree",
    "antijoin_degree",
    "all_quantifier_degree",
]
