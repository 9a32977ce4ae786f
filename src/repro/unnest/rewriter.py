"""The unnesting dispatcher: classify, then apply the matching rewrite."""

from __future__ import annotations

from typing import Optional, Union

from ..data.catalog import Catalog
from ..data.relation import FuzzyRelation
from ..engine.semantics import NaiveEvaluator
from ..sql.ast import SelectQuery
from ..sql.classify import NestingType, classify
from ..sql.parser import parse
from .chain import unnest_chain
from .common import UnnestError
from .pipeline import UnnestedPlan
from .type_ja import unnest_aggregate
from .type_jall import unnest_all
from .type_jx import unnest_not_in
from .type_n import unnest_in

_REWRITES = {
    NestingType.TYPE_N: unnest_in,
    NestingType.TYPE_J: unnest_in,
    NestingType.TYPE_SOME: unnest_in,
    NestingType.TYPE_JSOME: unnest_in,
    NestingType.TYPE_XN: unnest_not_in,
    NestingType.TYPE_JX: unnest_not_in,
    NestingType.TYPE_A: unnest_aggregate,
    NestingType.TYPE_JA: unnest_aggregate,
    NestingType.TYPE_ALL: unnest_all,
    NestingType.TYPE_JALL: unnest_all,
    NestingType.CHAIN: unnest_chain,
}


def unnest(
    query: Union[str, SelectQuery],
    catalog: Catalog,
    nesting_type: Optional[NestingType] = None,
) -> UnnestedPlan:
    """Rewrite a nested query into an :class:`UnnestedPlan`.

    Raises :class:`UnnestError` for queries outside the implemented types
    (``GENERAL``); callers should fall back to the naive evaluator then.
    A ``FLAT`` query passes through as a trivial plan.  A caller that has
    already classified ``query`` passes its ``nesting_type``.
    """
    if isinstance(query, str):
        query = parse(query)
    if nesting_type is None:
        nesting_type = classify(query, catalog)
    if nesting_type is NestingType.FLAT:
        return UnnestedPlan(
            final=query, nesting_type="flat", rule="no nesting -> pass through"
        )
    rewrite = _REWRITES.get(nesting_type)
    if rewrite is None:
        raise UnnestError(f"no rewrite for nesting type {nesting_type.value}")
    return rewrite(query, catalog, nesting_type=nesting_type.value)


def execute_unnested(
    query: Union[str, SelectQuery],
    catalog: Catalog,
    **evaluator_kwargs,
) -> FuzzyRelation:
    """Convenience: unnest and execute against in-memory relations.

    Falls back to the naive evaluator when no rewrite applies, so it is
    always safe to call.
    """
    if isinstance(query, str):
        query = parse(query)

    def make_evaluator(cat: Catalog) -> NaiveEvaluator:
        return NaiveEvaluator(cat, **evaluator_kwargs)

    try:
        plan = unnest(query, catalog)
    except UnnestError:
        return make_evaluator(catalog).evaluate(query)
    return plan.execute(catalog, make_evaluator)
