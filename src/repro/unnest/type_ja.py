"""Unnesting types A and JA — aggregate subqueries (Section 6).

For the correlated form

    SELECT R.X FROM R
    WHERE p1 AND R.Y op1 (SELECT AGG(S.Z) FROM S WHERE p2 AND S.V op2 R.U)

the rewrite builds two temporaries:

    T1(U)    = SELECT DISTINCT R.U FROM R WHERE p1        (degrees reset to 1)
    T2(U, A) = SELECT T1.U, AGG(S.Z) FROM T1, S
               WHERE p2 AND S.V op2 T1.U GROUPBY T1.U

and then joins back with the *binary* identity predicate ``R.U == T2.U``
(Theorem 6.1).  When AGG is COUNT the final join is a left outer join with
an IF-THEN-ELSE: matched R-tuples compare against the group count,
unmatched ones against the constant 0 (Query COUNT').

The uncorrelated form (type A) needs only one temporary — the inner
aggregate evaluated once — joined back by the comparison alone.
"""

from __future__ import annotations

from typing import List, Tuple

from ..data.catalog import Catalog
from ..data.relation import FuzzyRelation
from ..sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    IdentityComparison,
    Literal,
    ScalarSubqueryComparison,
    SelectQuery,
    TableRef,
)
from .common import (
    UnnestError,
    deconflict,
    qualify,
    single_table,
    split_correlation,
    split_nesting_predicate,
    temp_name,
)
from .pipeline import Step, UnnestedPlan


def unnest_aggregate(query: SelectQuery, catalog: Catalog, nesting_type: str = "JA") -> UnnestedPlan:
    """Dispatch between the correlated (JA) and uncorrelated (A) rewrites."""
    q = qualify(query, catalog)
    nesting, rest = split_nesting_predicate(q)
    if not isinstance(nesting, ScalarSubqueryComparison):
        raise UnnestError(f"not an aggregate nesting: {nesting!r}")
    inner = nesting.query
    if len(inner.select) != 1 or not isinstance(inner.select[0], AggregateExpr):
        raise UnnestError("inner block must select a single aggregate")
    if inner.group_by or inner.distinct or inner.with_threshold is not None:
        raise UnnestError("inner block must be a plain aggregate select")

    correlation, plain = split_correlation(q, inner, catalog)
    if not correlation:
        return _unnest_uncorrelated(q, nesting, rest, plain, nesting_type="A")
    return _unnest_correlated(q, nesting, rest, correlation, plain, catalog, nesting_type)


# ----------------------------------------------------------------------
# Type A: uncorrelated aggregate — evaluate the inner block once
# ----------------------------------------------------------------------

def _unnest_uncorrelated(
    q: SelectQuery, nesting, rest, plain, nesting_type: str
) -> UnnestedPlan:
    inner = nesting.query
    t_name = temp_name("AGG")
    agg = inner.select[0]
    agg_attr = f"{agg.func}_{agg.argument.attribute}"
    step = Step(t_name, inner, description=str(inner))
    final = SelectQuery(
        select=q.select,
        from_tables=q.from_tables + (TableRef(t_name),),
        where=tuple(rest)
        + (Comparison(nesting.column, nesting.op, ColumnRef(t_name, agg_attr)),),
        with_threshold=q.with_threshold,
        distinct=q.distinct,
    )
    return UnnestedPlan(
        final=final,
        steps=[step],
        nesting_type=nesting_type,
        rule="uncorrelated aggregate -> evaluate once, flat compare (Type A)",
    )


# ----------------------------------------------------------------------
# Type JA: correlated aggregate — the T1/T2 pipeline
# ----------------------------------------------------------------------

def _unnest_correlated(
    q: SelectQuery,
    nesting,
    rest,
    correlation: List[Tuple[Comparison, ColumnRef]],
    plain,
    catalog: Catalog,
    nesting_type: str,
) -> UnnestedPlan:
    outer_table = single_table(q)
    inner = nesting.query
    taken = [outer_table.binding]
    # Deconflict the inner table *before* extracting pieces so references
    # stay coherent; correlation predicates were collected pre-rename, so
    # re-split afterwards.
    inner, inner_tables = deconflict(inner, taken)
    correlation, plain = split_correlation(q, inner, catalog)

    outer_columns = [outer_ref for _, outer_ref in correlation]
    t1_name = temp_name("T1")
    t2_name = temp_name("T2")
    agg = inner.select[0]
    agg_attr = f"{agg.func}_{agg.argument.attribute}"

    # ---- T1: distinct outer join-values of p1-satisfying tuples --------
    t1_query = SelectQuery(
        select=tuple(outer_columns),
        from_tables=(outer_table,),
        where=tuple(rest),
    )
    t1_attrs = [c.attribute for c in outer_columns]

    def t1_body(cat: Catalog, make_evaluator) -> FuzzyRelation:
        projected = make_evaluator(cat).evaluate(t1_query)
        # "duplicates removed and all membership degrees set to 1"
        reset = FuzzyRelation(projected.schema)
        for t in projected:
            reset.add(t.with_degree(1.0))
        return reset

    t1_step = Step(t1_name, t1_body, description=f"{t1_query} [degrees := 1]")

    # ---- T2: per-group aggregates over S ------------------------------
    t2_where = list(plain)
    for comparison, outer_ref in correlation:
        t2_where.append(
            _rebind_comparison(comparison, outer_ref, ColumnRef(t1_name, outer_ref.attribute))
        )
    t2_query = SelectQuery(
        select=tuple(ColumnRef(t1_name, a) for a in t1_attrs) + (agg,),
        from_tables=(TableRef(t1_name),) + tuple(inner_tables),
        where=tuple(t2_where),
        group_by=tuple(ColumnRef(t1_name, a) for a in t1_attrs),
    )
    t2_step = Step(t2_name, t2_query, description=str(t2_query))

    if agg.func.upper() == "COUNT":
        final = _count_outer_join(
            q, nesting, rest, outer_table, t2_name, t1_attrs, agg_attr, correlation
        )
        return UnnestedPlan(
            final=final,
            steps=[t1_step, t2_step],
            nesting_type=nesting_type,
            rule="COUNT aggregate -> T1/T2 + left outer join (Section 6)",
        )

    identity = tuple(
        IdentityComparison(outer_ref, ColumnRef(t2_name, outer_ref.attribute))
        for _, outer_ref in correlation
    )
    final_query = SelectQuery(
        select=q.select,
        from_tables=(outer_table, TableRef(t2_name)),
        where=tuple(rest)
        + identity
        + (Comparison(nesting.column, nesting.op, ColumnRef(t2_name, agg_attr)),),
        with_threshold=q.with_threshold,
        distinct=q.distinct,
    )
    return UnnestedPlan(
        final=final_query,
        steps=[t1_step, t2_step],
        nesting_type=nesting_type,
        rule="correlated aggregate -> T1/T2 pipeline (Section 6, Theorem 6.1)",
    )


def _count_outer_join(
    q, nesting, rest, outer_table, t2_name, t1_attrs, agg_attr, correlation
):
    """Query COUNT': left outer join with the [matched : unmatched] branches."""
    identity = tuple(
        IdentityComparison(outer_ref, ColumnRef(t2_name, outer_ref.attribute))
        for _, outer_ref in correlation
    )
    then_query = SelectQuery(
        select=q.select,
        from_tables=(outer_table, TableRef(t2_name)),
        where=tuple(rest)
        + identity
        + (Comparison(nesting.column, nesting.op, ColumnRef(t2_name, agg_attr)),),
    )
    else_comparison = Comparison(nesting.column, nesting.op, Literal(0.0))
    outer_refs = [outer_ref for _, outer_ref in correlation]

    def body(cat: Catalog, make_evaluator) -> FuzzyRelation:
        evaluator = make_evaluator(cat)
        then_part = evaluator.evaluate(then_query)
        # Unmatched R-tuples: their correlation values have no T2 group.
        t2 = cat.get(t2_name)
        t2_keys = {
            tuple(t[t2.schema.index_of(a)].key() for a in t1_attrs) for t in t2
        }
        outer_rel = cat.get(outer_table.name)
        unmatched = FuzzyRelation(outer_rel.schema)
        indices = [outer_rel.schema.index_of(ref.attribute) for ref in outer_refs]
        for t in outer_rel:
            if tuple(t[i].key() for i in indices) not in t2_keys:
                unmatched.add(t)
        scratch = cat.copy()
        unmatched_name = temp_name("UNMATCHED")
        scratch.register(unmatched_name, unmatched)
        # Alias the unmatched temp back to the outer binding so `rest` and
        # the select list resolve unchanged.
        else_query = SelectQuery(
            select=q.select,
            from_tables=(TableRef(unmatched_name, outer_table.binding),),
            where=tuple(rest) + (else_comparison,),
        )
        else_part = make_evaluator(scratch).evaluate(else_query)
        # Union under fuzzy OR (max-degree dedup).
        out = FuzzyRelation(then_part.schema)
        for t in then_part:
            out.add(t)
        for t in else_part:
            out.add(t)
        threshold = q.with_threshold if q.with_threshold is not None else 0.0
        return out.with_threshold(threshold)

    return body


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _rebind_comparison(
    comparison: Comparison, outer_ref: ColumnRef, replacement: ColumnRef
) -> Comparison:
    """Replace the outer column (normalized to the right side) with ``replacement``."""
    assert comparison.right == outer_ref
    return Comparison(comparison.left, comparison.op, replacement)
