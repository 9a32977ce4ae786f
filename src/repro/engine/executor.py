"""Compile flat (unnested) queries into physical plans over heap files.

This is the storage-level execution path for the rewrites that produce a
single flat query — types N, J, SOME, and chain (Theorems 4.1, 4.2, 8.1):

    parse -> unnest -> FlatCompiler.compile -> Operator tree -> answer

The compiler pushes single-relation predicates into the scans (the paper:
"only those tuples in R (respectively, S) that satisfy p1 (respectively,
p2) positively should be sorted"), picks one fuzzy equi-join predicate per
new relation as the merge-join band, folds the remaining predicates into
the pair degree, and falls back to a block nested loop when no equi-join
predicate links a relation in.  A join keeps only the columns read above
it, and is a max-fold when that leaves none of its new relation's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..data.relation import FuzzyRelation
from ..data.schema import Attribute, Schema
from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import Op, possibility
from ..fuzzy.crisp import CrispNumber
from ..fuzzy.linguistic import Vocabulary, lift
from ..fuzzy.trapezoid import TrapezoidalNumber
from ..join.predicates import JoinPredicate, join_degree
from ..sql.ast import ColumnRef, Comparison, Literal, SelectQuery
from ..sql.parser import parse
from ..storage.costs import PAPER_1992
from ..storage.heap import HeapFile
from .operators import (
    ExecutionContext,
    MergeJoinOp,
    NestedLoopJoinOp,
    Operator,
    Project,
    Scan,
    Threshold,
    TuplePredicate,
    cluster,
    unique_names,
)


class CompileError(Exception):
    """The query is outside the flat fragment the compiler supports."""


Column = Tuple[str, str]  # (binding, attribute)


def compile_comparison(
    predicate: Comparison,
    columns: List[Column],
    domains: Dict[Column, Optional[str]],
    vocabulary: Optional[Vocabulary] = None,
) -> TuplePredicate:
    """Compile ``X op Y`` into a degree function over a tuple layout.

    ``columns`` lists the ``(binding, attribute)`` pairs of the tuple the
    predicate will be evaluated against (positionally); literals resolve
    against the vocabulary in the domain of the opposite column.
    """

    def accessor(term, other):
        if isinstance(term, ColumnRef):
            try:
                index = columns.index((term.relation, term.attribute))
            except ValueError:
                raise CompileError(
                    f"column {term} not available at this plan point"
                ) from None
            return lambda t: t[index]
        assert isinstance(term, Literal)
        domain = None
        if isinstance(other, ColumnRef):
            domain = domains.get((other.relation, other.attribute))
        value = lift(term.value, vocabulary, domain)
        return lambda _t: value

    left = accessor(predicate.left, predicate.right)
    right = accessor(predicate.right, predicate.left)
    op = predicate.op

    def degree(t: FuzzyTuple) -> float:
        return possibility(left(t), op, right(t))

    return TuplePredicate(degree, label=str(predicate))


def interval_probe(predicate: Comparison, domains, vocabulary: Optional[Vocabulary] = None):
    """``(column, op, value)`` of a ``column op literal`` comparison whose
    literal lifts to a crisp number or trapezoid (one support interval),
    else None.  A literal on the left flips ``op`` (``10 < X`` is ``X > 10``)."""
    column, op, literal = predicate.left, predicate.op, predicate.right
    if isinstance(literal, ColumnRef):
        column, op, literal = literal, op.flipped(), column
    if not isinstance(column, ColumnRef) or not isinstance(literal, Literal):
        return None
    value = lift(literal.value, vocabulary, domains.get((column.relation, column.attribute)))
    return (column, op, value) if isinstance(value, (CrispNumber, TrapezoidalNumber)) else None


def compile_conjunction(
    predicates,
    columns: List[Column],
    domains: Dict[Column, Optional[str]],
    vocabulary: Optional[Vocabulary] = None,
) -> Callable[[FuzzyTuple], float]:
    """Compile ``p1 AND p2 AND ...`` into one degree function: the min-fold.

    Every conjunct must be a flat :class:`~repro.sql.ast.Comparison`
    (anything else is a :class:`CompileError`); the fold stops at the
    first zero, and an empty conjunction is satisfied with degree 1.
    The single-relation predicates of the grouped / pipelined strategies
    and the WHERE clause of UPDATE / DELETE (through :class:`DmlColumns`)
    all compile here.
    """
    compiled = []
    for predicate in predicates:
        if not isinstance(predicate, Comparison):
            raise CompileError(
                f"only flat comparisons can be compiled here, not {predicate!r}"
            )
        compiled.append(compile_comparison(predicate, columns, domains, vocabulary))

    def degree(t: FuzzyTuple) -> float:
        d = 1.0
        for predicate in compiled:
            if d == 0.0:
                return 0.0
            d = min(d, predicate(t, None))
        return d

    return degree


class DmlColumns:
    """Alias-tolerant column lookup for UPDATE / DELETE predicates.

    Serves :func:`compile_comparison` both as the positional ``columns``
    list (via :meth:`index`) and as the ``domains`` mapping (via
    :meth:`get`): a reference resolves when its binding is one of the
    accepted aliases (``None`` for unqualified columns, or the table name
    as typed / upper-cased) and its attribute exists in the schema.
    """

    def __init__(self, aliases, schema: Schema):
        self._aliases = aliases
        self._schema = schema

    def index(self, key) -> int:
        """Tuple position of ``(binding, attribute)``; ``ValueError`` if absent."""
        binding, attribute = key
        if binding in self._aliases and attribute in self._schema:
            return self._schema.index_of(attribute)
        raise ValueError(key)

    def get(self, key, default=None):
        """The linguistic domain of ``(binding, attribute)`` (domains view)."""
        binding, attribute = key
        if binding in self._aliases and attribute in self._schema:
            return self._schema.attribute(attribute).domain
        return default


class FlatCompiler:
    """Compiles fully-qualified flat SELECT queries to operator trees.

    ``tables`` and ``indexes`` are keyed by *catalog name* — ``TABLE`` and
    ``(TABLE, attribute)`` — and every leaf remembers the name it was
    compiled for, so the plan binds to the live heap and index versions
    at execution (:func:`~repro.engine.operators.live_heap`).  An index
    (``indexes``, the clustered copies) serves two ways: a band join's
    predicate-free base input on the indexed attribute reads the copy
    and skips its sort (:func:`~repro.engine.operators.cluster`), and a
    pushed-down comparison on it may become a fence-pruned
    :class:`~repro.columnar.IndexScan` when that reads fewer pages.
    Either way the answer is the row path's.
    """

    def __init__(
        self,
        tables: Dict[str, HeapFile],
        vocabulary: Optional[Vocabulary] = None,
        indexes: Optional[Dict[Tuple[str, str], "object"]] = None,
    ):
        self.tables = {name.upper(): heap for name, heap in tables.items()}
        self.vocabulary = vocabulary
        self.indexes = dict(indexes) if indexes else {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def compile(
        self,
        query: Union[str, SelectQuery],
        optimize: bool = False,
        fanout: float = 7.0,
    ) -> Operator:
        """Compile to an operator tree.

        With ``optimize=True`` the FROM order is replaced by the Section 8
        dynamic-programming join order (minimizing estimated intermediate
        sizes under a constant fan-out assumption).
        """
        if isinstance(query, str):
            query = parse(query)
        if query.group_by or any(not isinstance(i, ColumnRef) for i in query.select):
            raise CompileError("the flat compiler supports plain column projections")

        bindings, domains = self._bindings(query)
        pushdown, joins = self._partition_predicates(query, bindings)
        if optimize and len(query.from_tables) > 1:
            query = self._reorder(query, joins, fanout)

        plan, columns = self._initial_scan(query.from_tables[0], pushdown, domains)
        # A join predicate names two FROM bindings (one-binding predicates
        # are pushed down), so joining the later of them applies it:
        # nothing is still pending after the last table.
        pending = list(joins)
        selected = {(item.relation, item.attribute) for item in query.select}
        for table in query.from_tables[1:]:
            plan, columns, pending = self._join_in(
                plan, columns, table, pushdown, pending, bindings, domains, selected
            )

        names = self._layout_names(columns)
        selected = [
            names[columns.index((item.relation, item.attribute))]
            for item in query.select
        ]
        plan = Project(plan, selected)
        threshold = query.with_threshold if query.with_threshold is not None else 0.0
        return Threshold(plan, threshold)

    def execute(self, query: Union[str, SelectQuery], ctx: ExecutionContext) -> FuzzyRelation:
        """Compile ``query`` and run it, returning the answer relation."""
        return self.compile(query).to_relation(ctx)

    # ------------------------------------------------------------------
    # Join ordering (Section 8)
    # ------------------------------------------------------------------
    def _reorder(self, query: SelectQuery, joins: List[Comparison], fanout: float):
        from .optimizer import JoinEdge, TableEstimate, optimize_join_order

        by_binding = {table.binding: table for table in query.from_tables}
        estimates = {
            table.binding: TableEstimate(self.tables[table.name.upper()].n_tuples)
            for table in query.from_tables
        }
        edges = []
        for predicate in joins:
            if (
                predicate.op is Op.EQ
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)
            ):
                edges.append(
                    JoinEdge(predicate.left.relation, predicate.right.relation, fanout)
                )
        plan = optimize_join_order(estimates, edges)
        return SelectQuery(
            select=query.select,
            from_tables=tuple(by_binding[b] for b in plan.order),
            where=query.where,
            with_threshold=query.with_threshold,
            group_by=query.group_by,
            distinct=query.distinct,
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _bindings(self, query: SelectQuery):
        bindings: Dict[str, Schema] = {}
        domains: Dict[Column, Optional[str]] = {}
        for table in query.from_tables:
            heap = self.tables.get(table.name.upper())
            if heap is None:
                raise CompileError(f"no heap file registered for {table.name!r}")
            if table.binding in bindings:
                raise CompileError(f"duplicate binding {table.binding!r}")
            bindings[table.binding] = heap.schema
            for attr in heap.schema:
                domains[(table.binding, attr.name)] = attr.domain
        return bindings, domains

    def _partition_predicates(self, query: SelectQuery, bindings: Dict[str, Schema]):
        pushdown: Dict[str, List[Comparison]] = {b: [] for b in bindings}
        joins: List[Comparison] = []
        for predicate in query.where:
            if not isinstance(predicate, Comparison):
                raise CompileError(f"unsupported predicate in flat query: {predicate!r}")
            refs = self._referenced_bindings(predicate, bindings)
            if len(refs) == 0:
                raise CompileError("constant predicates are not supported")
            if len(refs) == 1:
                pushdown[next(iter(refs))].append(predicate)
            else:
                joins.append(predicate)
        return pushdown, joins

    def _referenced_bindings(self, predicate: Comparison, bindings) -> set:
        refs = set()
        for side in (predicate.left, predicate.right):
            if isinstance(side, ColumnRef):
                if side.relation is None or side.relation not in bindings:
                    raise CompileError(
                        f"flat compilation requires fully qualified columns, got {side}"
                    )
                refs.add(side.relation)
        return refs

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _initial_scan(self, table, pushdown, domains) -> Tuple[Operator, List[Column]]:
        name = table.name.upper()
        heap = self.tables[name]
        columns = [(table.binding, a.name) for a in heap.schema]
        predicates_ast = pushdown.get(table.binding, [])
        predicates = [
            self._combined_predicate(p, columns, domains) for p in predicates_ast
        ]
        indexed = self._index_scan_path(name, heap, predicates_ast, predicates, domains)
        if indexed is not None:
            return indexed, columns
        return Scan(heap, predicates, name), columns

    def _index_scan_path(
        self, name, heap, predicates_ast, predicates, domains
    ) -> Optional[Operator]:
        """An :class:`~repro.columnar.IndexScan` when it reads fewer pages.

        Applicable iff the binding's entire pushdown is a single
        ``attribute op literal`` comparison with ``op`` in
        ``{=, <, <=, >, >=}``, the attribute is indexed, and the lifted
        literal has one support interval (:func:`interval_probe`).  It is
        priced by what it reads: the copy pages its fences select.
        """
        if not self.indexes or len(predicates_ast) != 1:
            return None
        probed = interval_probe(predicates_ast[0], domains, self.vocabulary)
        if probed is None:
            return None
        column, op, probe = probed
        copy = self.indexes.get((name, column.attribute))
        if copy is None or op not in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
            return None
        from ..columnar import IndexScan, fenced_pages

        pages = fenced_pages(copy, op, *probe.interval())
        rows = sum(copy.fences[i][2] for i in pages)
        index_cost = PAPER_1992.seq_scan_seconds(len(pages), rows)
        if index_cost >= PAPER_1992.seq_scan_seconds(heap.n_pages, heap.n_tuples):
            return None
        return IndexScan(heap, predicates, name, column.attribute, op, probe, len(pages))

    def _join_in(self, plan, columns, table, pushdown, pending, bindings, domains, selected):
        """Join ``table`` in, keeping the columns read above: ``selected``
        and the predicates still pending (none of ``table``'s: a max-fold)."""
        name = table.name.upper()
        heap = self.tables[name]
        scan_columns = [(table.binding, a.name) for a in heap.schema]
        scan = Scan(
            heap,
            [
                self._combined_predicate(p, scan_columns, domains)
                for p in pushdown.get(table.binding, [])
            ],
            name,
        )
        joined = {binding for binding, _ in columns}
        applicable: List[Comparison] = []
        deferred: List[Comparison] = []
        for predicate in pending:
            refs = self._referenced_bindings(predicate, bindings)
            if table.binding in refs and refs - {table.binding} <= joined:
                applicable.append(predicate)
            else:
                deferred.append(predicate)

        band = None
        for predicate in applicable:
            if (
                predicate.op is Op.EQ
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)
            ):
                band = predicate
                break

        read_above = selected | {
            (side.relation, side.attribute)
            for p in deferred for side in (p.left, p.right) if isinstance(side, ColumnRef)
        }
        layout = columns + scan_columns
        keep = [i for i, column in enumerate(layout) if column in read_above]
        if band is not None:
            applicable.remove(band)
            left_ref, right_ref = band.left, band.right
            if left_ref.relation == table.binding:
                left_ref, right_ref = right_ref, left_ref
            residual = [
                self._residual_predicate(p, columns, table.binding, heap.schema)
                for p in applicable
            ]
            names = self._layout_names(columns)
            left_attr = names[columns.index((left_ref.relation, left_ref.attribute))]
            cluster(plan, left_ref.attribute, self.indexes)
            cluster(scan, right_ref.attribute, self.indexes)
            joined_plan = MergeJoinOp(
                plan, left_attr, scan, right_ref.attribute, residual=residual, keep=keep
            )
        else:
            residual = [
                self._residual_predicate(p, columns, table.binding, heap.schema)
                for p in applicable
            ]
            joined_plan = NestedLoopJoinOp(
                plan, scan, join_degree(residual), label=table.binding, keep=keep
            )
        return joined_plan, [layout[i] for i in keep], deferred

    # ------------------------------------------------------------------
    # Predicate compilation
    # ------------------------------------------------------------------
    def _residual_predicate(
        self,
        predicate: Comparison,
        left_columns: List[Column],
        right_binding: str,
        right_schema: Schema,
    ) -> JoinPredicate:
        """A predicate between the accumulated left side and the new table."""
        left_ref, right_ref = predicate.left, predicate.right
        op = predicate.op
        if isinstance(left_ref, ColumnRef) and left_ref.relation == right_binding:
            left_ref, right_ref = right_ref, left_ref
            op = op.flipped()
        if not (isinstance(left_ref, ColumnRef) and isinstance(right_ref, ColumnRef)):
            raise CompileError(f"join predicates must relate two columns: {predicate}")
        left_schema = self._columns_schema(left_columns)
        names = self._layout_names(left_columns)
        return JoinPredicate(
            left_schema,
            names[left_columns.index((left_ref.relation, left_ref.attribute))],
            op,
            right_schema,
            right_ref.attribute,
        )

    def _combined_predicate(
        self, predicate: Comparison, columns: List[Column], domains
    ) -> TuplePredicate:
        return compile_comparison(predicate, columns, domains, self.vocabulary)

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _layout_names(columns: List[Column]) -> List[str]:
        """The combined-schema names, matching ``concat_schemas``."""
        return unique_names(attr for _binding, attr in columns)

    @classmethod
    def _columns_schema(cls, columns: List[Column]) -> Schema:
        return Schema([Attribute(name) for name in cls._layout_names(columns)])


def execute_unnested_storage(
    query: Union[str, SelectQuery],
    tables: Dict[str, HeapFile],
    ctx: ExecutionContext,
    vocabulary: Optional[Vocabulary] = None,
) -> FuzzyRelation:
    """Unnest a query and run it on the storage engine.

    Only nesting types whose rewrite is a single flat query (FLAT, N, J,
    SOME, chain) are supported here; pipelined types (JX, JA, JALL) run at
    the logical level via :func:`repro.unnest.execute_unnested`.
    """
    from ..data.catalog import Catalog
    from ..unnest.rewriter import unnest

    catalog = Catalog(vocabulary)
    for name, heap in tables.items():
        # Register empty stand-ins carrying the schemas; the rewriter only
        # needs schemas and the vocabulary for name resolution.
        catalog.register(name, FuzzyRelation(heap.schema))
    plan = unnest(query, catalog)
    if plan.steps or not isinstance(plan.final, SelectQuery):
        raise CompileError(
            f"nesting type {plan.nesting_type!r} needs the pipelined executor"
        )
    return FlatCompiler(tables, vocabulary).execute(plan.final, ctx)
