"""Query evaluation: the naive nested-semantics engine, fuzzy aggregates,
and the physical executor for unnested flat queries over heap files."""

from .aggregates import AGGREGATE_FUNCS, DegreePolicy, aggregate_degrees, apply_aggregate
from .executor import CompileError, FlatCompiler, execute_unnested_storage
from .operators import ExecutionContext
from .optimizer import JoinEdge, JoinPlan, TableEstimate, optimize_join_order
from .semantics import NaiveEvaluator

__all__ = [
    "NaiveEvaluator",
    "DegreePolicy",
    "apply_aggregate",
    "aggregate_degrees",
    "AGGREGATE_FUNCS",
    "FlatCompiler",
    "CompileError",
    "ExecutionContext",
    "execute_unnested_storage",
    "optimize_join_order",
    "JoinEdge",
    "JoinPlan",
    "TableEstimate",
]
