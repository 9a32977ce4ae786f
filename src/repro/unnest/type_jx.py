"""Unnesting types XN and JX — set exclusion, ``NOT IN`` (Section 5).

The rewrite builds the temporary relation

    JXT(R.*, MIN(D)) = SELECT R.A1..An, MIN(D)
                       FROM R, S
                       WHERE p1 AND R.D AND NOT (S.D AND p2 AND R.Y = S.Z)
                       GROUPBY R.A1..An

and projects the original select list from it (Theorem 5.1).  Grouping by
*all* of R's attributes plays the role of the paper's key ``R.K``: a fuzzy
relation merges identically-valued tuples, so per-value groups are
per-tuple groups.

Edge case the flat form cannot see: when the inner relation is empty the
cross product is empty, yet the nested semantics keeps every R-tuple at
degree ``min(mu_R(r), d(p1(r)))`` (``d(r.Y not in {}) = 1``).  The step
falls back to ``SELECT R.* FROM R WHERE p1`` in that case.
"""

from __future__ import annotations

from typing import List

from ..data.catalog import Catalog
from ..fuzzy.compare import Op
from ..sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    DegreePredicate,
    DegreeRef,
    InPredicate,
    NegatedConjunction,
    SelectQuery,
    TableRef,
)
from .common import (
    UnnestError,
    deconflict,
    qualify,
    single_select_column,
    single_table,
    split_nesting_predicate,
    temp_name,
)
from .pipeline import Step, UnnestedPlan

#: The rewrite label EXPLAIN and collectors report for both engines.
RULE = "NOT IN -> grouped anti-join min-fold (Section 5)"


def unnest_not_in(query: SelectQuery, catalog: Catalog, nesting_type: str = "JX") -> UnnestedPlan:
    """Rewrite a NOT IN nesting into the grouped anti-join pipeline."""
    q = qualify(query, catalog)
    nesting, rest = split_nesting_predicate(q)
    if not (isinstance(nesting, InPredicate) and nesting.negated):
        raise UnnestError(f"not a NOT IN nesting: {nesting!r}")
    if not all(isinstance(item, ColumnRef) for item in q.select):
        raise UnnestError("select list must be plain columns")
    outer_table = single_table(q)
    inner = nesting.query
    if inner.group_by or inner.distinct or inner.with_threshold is not None:
        raise UnnestError("inner block must be a plain select")

    taken = [outer_table.binding]
    inner, inner_tables = deconflict(inner, taken)
    z_column = single_select_column(inner)
    negated = NegatedConjunction(
        (DegreePredicate(DegreeRef(inner_tables[0].binding)),)
        + inner.where
        + (Comparison(nesting.column, Op.EQ, z_column),)
    )

    outer_schema = catalog.get(outer_table.name).schema
    group_columns = [ColumnRef(outer_table.binding, a.name) for a in outer_schema]
    jxt_query = SelectQuery(
        select=tuple(group_columns) + (AggregateExpr("MIN", ColumnRef(None, "D")),),
        from_tables=(outer_table,) + tuple(inner_tables),
        where=tuple(rest)
        + (DegreePredicate(DegreeRef(outer_table.binding)), negated),
        group_by=tuple(group_columns),
    )
    fallback_query = SelectQuery(
        select=tuple(group_columns),
        from_tables=(outer_table,),
        where=tuple(rest),
    )
    jxt_name = temp_name("JXT")
    step = _grouped_antijoin_step(
        jxt_name, jxt_query, fallback_query, [t.name for t in inner_tables]
    )
    final = SelectQuery(
        select=tuple(ColumnRef(None, item.attribute) for item in q.select),
        from_tables=(TableRef(jxt_name),),
        where=(),
        with_threshold=q.with_threshold,
        distinct=q.distinct,
    )
    return UnnestedPlan(
        final=final,
        steps=[step],
        nesting_type=nesting_type,
        rule=RULE,
    )


def _grouped_antijoin_step(
    name: str,
    jxt_query: SelectQuery,
    fallback_query: SelectQuery,
    inner_names: List[str],
) -> Step:
    def body(catalog: Catalog, make_evaluator):
        if any(len(catalog.get(n)) == 0 for n in inner_names):
            return make_evaluator(catalog).evaluate(fallback_query)
        return make_evaluator(catalog).evaluate(jxt_query)

    return Step(name, body, description=str(jxt_query))
