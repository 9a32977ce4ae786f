"""Shared AST surgery for the unnesting rewrites.

The rewrites merge inner-block tables and predicates into outer blocks, so
they need column references fully qualified, binding names deconflicted,
and the WHERE clause split around the nesting predicate.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from ..data.catalog import Catalog
from ..sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    DegreePredicate,
    ExistsPredicate,
    IdentityComparison,
    InPredicate,
    NegatedConjunction,
    QuantifiedComparison,
    ScalarSubqueryComparison,
    SelectQuery,
    TableRef,
)
from ..sql.binder import Scope

_temp_counter = itertools.count(1)


class UnnestError(Exception):
    """The query cannot be unnested by the implemented rewrites."""


def temp_name(prefix: str) -> str:
    """A unique name for a pipeline temporary relation."""
    return f"__{prefix}_{next(_temp_counter)}"


# ----------------------------------------------------------------------
# Qualification: make every column reference carry its binding
# ----------------------------------------------------------------------

def qualify(query: SelectQuery, catalog: Catalog, parent: Optional[Scope] = None) -> SelectQuery:
    """Return an equivalent query with all column references qualified."""
    from ..sql.binder import expand_select_stars

    query = expand_select_stars(query, catalog)
    scope = Scope.for_query(query, catalog, parent)

    def fix_column(ref: ColumnRef) -> ColumnRef:
        resolution = scope.resolve(ref)
        return ColumnRef(resolution.binding, ref.attribute)

    def fix_predicate(p):
        if isinstance(p, Comparison):
            left = fix_column(p.left) if isinstance(p.left, ColumnRef) else p.left
            right = fix_column(p.right) if isinstance(p.right, ColumnRef) else p.right
            return Comparison(left, p.op, right)
        if isinstance(p, IdentityComparison):
            return IdentityComparison(fix_column(p.left), fix_column(p.right))
        if isinstance(p, InPredicate):
            return InPredicate(fix_column(p.column), qualify(p.query, catalog, scope), p.negated)
        if isinstance(p, QuantifiedComparison):
            return QuantifiedComparison(
                fix_column(p.column), p.op, p.quantifier, qualify(p.query, catalog, scope)
            )
        if isinstance(p, ScalarSubqueryComparison):
            return ScalarSubqueryComparison(
                fix_column(p.column), p.op, qualify(p.query, catalog, scope)
            )
        if isinstance(p, ExistsPredicate):
            return ExistsPredicate(qualify(p.query, catalog, scope), p.negated)
        if isinstance(p, NegatedConjunction):
            return NegatedConjunction(tuple(fix_predicate(q) for q in p.predicates))
        if isinstance(p, DegreePredicate):
            return p
        raise UnnestError(f"cannot qualify predicate {p!r}")

    def fix_item(item):
        if isinstance(item, AggregateExpr):
            if item.argument.attribute == "D":
                return item
            return AggregateExpr(item.func, fix_column(item.argument))
        return fix_column(item)

    def fix_having(p):
        def side(term):
            if isinstance(term, AggregateExpr):
                return fix_item(term)
            if isinstance(term, ColumnRef):
                return fix_column(term)
            return term

        return Comparison(side(p.left), p.op, side(p.right))

    return SelectQuery(
        select=tuple(fix_item(i) for i in query.select),
        from_tables=query.from_tables,
        where=tuple(fix_predicate(p) for p in query.where),
        with_threshold=query.with_threshold,
        group_by=tuple(fix_column(c) for c in query.group_by),
        distinct=query.distinct,
        having=tuple(fix_having(p) for p in query.having),
    )


# ----------------------------------------------------------------------
# Binding substitution (for deconflicting merged FROM clauses)
# ----------------------------------------------------------------------

def substitute_binding(node, old: str, new: str):
    """Rewrite qualified references ``old.X`` to ``new.X`` throughout."""
    if isinstance(node, ColumnRef):
        return ColumnRef(new, node.attribute) if node.relation == old else node
    if isinstance(node, AggregateExpr):
        return AggregateExpr(node.func, substitute_binding(node.argument, old, new))
    if isinstance(node, Comparison):
        return Comparison(
            substitute_binding(node.left, old, new) if isinstance(node.left, ColumnRef) else node.left,
            node.op,
            substitute_binding(node.right, old, new) if isinstance(node.right, ColumnRef) else node.right,
        )
    if isinstance(node, IdentityComparison):
        return IdentityComparison(
            substitute_binding(node.left, old, new),
            substitute_binding(node.right, old, new),
        )
    if isinstance(node, InPredicate):
        return InPredicate(
            substitute_binding(node.column, old, new),
            substitute_binding(node.query, old, new),
            node.negated,
        )
    if isinstance(node, QuantifiedComparison):
        return QuantifiedComparison(
            substitute_binding(node.column, old, new),
            node.op,
            node.quantifier,
            substitute_binding(node.query, old, new),
        )
    if isinstance(node, ScalarSubqueryComparison):
        return ScalarSubqueryComparison(
            substitute_binding(node.column, old, new),
            node.op,
            substitute_binding(node.query, old, new),
        )
    if isinstance(node, ExistsPredicate):
        return ExistsPredicate(substitute_binding(node.query, old, new), node.negated)
    if isinstance(node, NegatedConjunction):
        return NegatedConjunction(
            tuple(substitute_binding(p, old, new) for p in node.predicates)
        )
    if isinstance(node, DegreePredicate):
        return node
    if isinstance(node, SelectQuery):
        # Only rewrite references; an inner block shadowing `old` in its own
        # FROM clause would stop the substitution, but deconflicted names
        # are fresh so shadowing cannot occur.
        return SelectQuery(
            select=tuple(substitute_binding(i, old, new) for i in node.select),
            from_tables=node.from_tables,
            where=tuple(substitute_binding(p, old, new) for p in node.where),
            with_threshold=node.with_threshold,
            group_by=tuple(substitute_binding(c, old, new) for c in node.group_by),
            distinct=node.distinct,
            having=tuple(substitute_binding(p, old, new) for p in node.having),
        )
    raise UnnestError(f"cannot substitute in {node!r}")


def deconflict(
    inner: SelectQuery, taken: List[str]
) -> Tuple[SelectQuery, List[TableRef]]:
    """Rename the inner block's bindings so they avoid ``taken`` names.

    Returns the rewritten inner query and its (renamed) table refs.
    ``inner`` must already be fully qualified.
    """
    tables: List[TableRef] = []
    for table in inner.from_tables:
        binding = table.binding
        if binding in taken:
            fresh = binding
            suffix = 1
            while fresh in taken:
                fresh = f"{binding}_{suffix}"
                suffix += 1
            inner = substitute_binding(inner, binding, fresh)
            tables.append(TableRef(table.name, fresh))
            taken.append(fresh)
        else:
            tables.append(table)
            taken.append(binding)
    return inner, tables


# ----------------------------------------------------------------------
# WHERE-clause dissection
# ----------------------------------------------------------------------

def split_nesting_predicate(query: SelectQuery):
    """Return ``(nesting_predicate, other_predicates)``.

    Exactly one subquery predicate is expected (checked by the classifier
    before any rewrite runs).
    """
    nesting = None
    rest = []
    for p in query.where:
        if isinstance(p, (InPredicate, QuantifiedComparison, ScalarSubqueryComparison, ExistsPredicate)):
            if nesting is not None:
                raise UnnestError("more than one subquery predicate in the block")
            nesting = p
        else:
            rest.append(p)
    if nesting is None:
        raise UnnestError("no subquery predicate in the block")
    return nesting, rest


def split_correlation(q: SelectQuery, inner: SelectQuery, catalog: Catalog):
    """Partition the inner WHERE into correlation and local predicates.

    A correlation predicate is a :class:`Comparison` with exactly one side
    being a column of the *outer* block; that side is returned normalized
    to the right (``(comparison, outer_ref)`` pairs).
    """
    inner_scope = Scope.for_query(inner, catalog, Scope.for_query(q, catalog))

    def is_outer(term) -> bool:
        return isinstance(term, ColumnRef) and not inner_scope.is_local(term)

    correlation: List[Tuple[Comparison, ColumnRef]] = []
    plain = []
    for p in inner.where:
        if isinstance(p, Comparison):
            left_outer, right_outer = is_outer(p.left), is_outer(p.right)
            if left_outer and right_outer:
                raise UnnestError("correlation predicate references no inner column")
            if right_outer:
                correlation.append((p, p.right))
                continue
            if left_outer:
                correlation.append((Comparison(p.right, p.op.flipped(), p.left), p.left))
                continue
        plain.append(p)
    return correlation, plain


def single_select_column(query: SelectQuery) -> ColumnRef:
    """The inner block's single projected column (S.Z)."""
    if len(query.select) != 1 or not isinstance(query.select[0], ColumnRef):
        raise UnnestError("inner block must select exactly one plain column")
    return query.select[0]


def single_table(query: SelectQuery) -> TableRef:
    """The sole FROM table of a single-table block; raises UnnestError otherwise."""
    if len(query.from_tables) != 1:
        raise UnnestError("this rewrite expects a single-table block")
    return query.from_tables[0]
