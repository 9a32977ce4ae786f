"""Unnesting the ALL quantifier (Section 7).

``R.Y op ALL (SELECT S.Z FROM S WHERE S.V = R.U)`` becomes

    T1(R.*, MIN(D)) = SELECT R.A1..An, MIN(D)
                      FROM R, S
                      WHERE p1 AND R.D AND
                            NOT (S.D AND p2 AND corr AND NOT (R.Y op S.Z))
                      GROUPBY R.A1..An

followed by a projection (Theorem 7.1).  The doubly negated comparison
realizes ``1 - min(mu_S(s), d(join), 1 - d(r.Y op s.Z))`` per pair; the
``MIN(D)`` group aggregate realizes the minimum over S.  As with JX, an
empty inner relation falls back to ``SELECT R.* FROM R WHERE p1``
(``d(v op ALL {}) = 1``).
"""

from __future__ import annotations

from ..data.catalog import Catalog
from ..sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    DegreePredicate,
    DegreeRef,
    NegatedConjunction,
    QuantifiedComparison,
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
from .pipeline import UnnestedPlan
from .type_jx import _grouped_antijoin_step

#: The rewrite label EXPLAIN and collectors report for both engines.
RULE = "op ALL -> doubly-negated grouped fold (Section 7)"


def unnest_all(query: SelectQuery, catalog: Catalog, nesting_type: str = "JALL") -> UnnestedPlan:
    """Rewrite an ``op ALL`` nesting into the grouped double-negation form."""
    q = qualify(query, catalog)
    nesting, rest = split_nesting_predicate(q)
    if not (isinstance(nesting, QuantifiedComparison) and nesting.quantifier == "ALL"):
        raise UnnestError(f"not an ALL nesting: {nesting!r}")
    if not all(isinstance(item, ColumnRef) for item in q.select):
        raise UnnestError("select list must be plain columns")
    outer_table = single_table(q)
    inner = nesting.query
    if inner.group_by or inner.distinct or inner.with_threshold is not None:
        raise UnnestError("inner block must be a plain select")

    taken = [outer_table.binding]
    inner, inner_tables = deconflict(inner, taken)
    z_column = single_select_column(inner)
    comparison = Comparison(nesting.column, nesting.op, z_column)
    negated = NegatedConjunction(
        (DegreePredicate(DegreeRef(inner_tables[0].binding)),)
        + inner.where
        + (NegatedConjunction((comparison,)),)
    )

    outer_schema = catalog.get(outer_table.name).schema
    group_columns = [ColumnRef(outer_table.binding, a.name) for a in outer_schema]
    t1_query = SelectQuery(
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
    t1_name = temp_name("JALLT")
    step = _grouped_antijoin_step(
        t1_name, t1_query, fallback_query, [t.name for t in inner_tables]
    )
    final = SelectQuery(
        select=tuple(ColumnRef(None, item.attribute) for item in q.select),
        from_tables=(TableRef(t1_name),),
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
