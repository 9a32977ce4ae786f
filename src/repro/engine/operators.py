"""Physical operators over heap files.

These are the building blocks the *unnested* queries run on: scans with
selection pushdown, materialization, external sort, and the two join
algorithms, all charging their events into a shared
:class:`~repro.storage.stats.OperationStats`.  The naive evaluator
(:mod:`repro.engine.semantics`) is the logical-level counterpart; this
module exists so the paper's performance story — flat plans on the
extended merge-join versus nested-loop evaluation — can be measured on
the storage engine, not just on in-memory relations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..data.relation import FuzzyRelation
from ..data.schema import Schema
from ..data.tuples import FuzzyTuple
from ..errors import FuzzyQueryError
from ..join.nested_loop import NestedLoopJoin
from ..join.predicates import MAX_FOLD, PAIRS, JoinPredicate, PairDegree, under_cut
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .context import ExecutionContext


def unique_names(names: Iterable[str]) -> List[str]:
    """Deterministically de-duplicate attribute names with numeric suffixes.

    Shared by schema concatenation and the compiler's layout bookkeeping so
    both always agree on the generated names.
    """
    out: List[str] = []
    taken = set()
    for name in names:
        candidate = name
        suffix = 0
        while candidate in taken:
            suffix += 1
            candidate = f"{name}_{suffix}"
        taken.add(candidate)
        out.append(candidate)
    return out


def concat_schemas(left: Schema, right: Schema, keep: Optional[Sequence[int]] = None) -> Schema:
    """Concatenate schemas (the positions ``keep`` picks, if given), suffixing clashes.

    Compiled plans address columns by position (the executor keeps a
    layout map), so the generated names only need to be unique.
    """
    from ..data.schema import Attribute

    attrs = list(left.attributes) + list(right.attributes)
    if keep is not None:
        attrs = [attrs[i] for i in keep]
    names = unique_names(a.name for a in attrs)
    return Schema(
        [Attribute(name, attr.type, attr.domain) for name, attr in zip(names, attrs)]
    )


class TuplePredicate:
    """A single-relation predicate with its satisfaction-degree function.

    Used for selection pushdown: ``p1``/``p2`` of the paper's query shapes
    are evaluated while scanning, before any join.
    """

    def __init__(self, degree: Callable[[FuzzyTuple], float], label: str = "p"):
        self._degree = degree
        self.label = label

    def __call__(self, t: FuzzyTuple, stats: Optional[OperationStats]) -> float:
        if stats is not None:
            stats.count_fuzzy()
        return self._degree(t)

    def __repr__(self) -> str:
        return f"TuplePredicate({self.label})"


class Operator:
    """Base class: every operator produces a stream of fuzzy tuples."""

    schema: Schema
    #: The ``WITH D >= z`` a :class:`Threshold` above handed down (0: none).
    cut = 0.0

    def tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        """The operator's output stream, instrumented iff a collector is attached."""
        stream = self._tuples(ctx)
        if ctx.metrics is not None:
            stream = ctx.metrics.stream(self, stream)
        return stream

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One line describing this node (no children)."""
        return type(self).__name__

    def children(self) -> List["Operator"]:
        """The operator's input subtrees (empty for leaves)."""
        return []

    def explain(self, depth: int = 0) -> str:
        """Indented multi-line rendering of this operator subtree."""
        pad = "  " * depth
        lines = [pad + self.describe()]
        lines.extend(child.explain(depth + 1) for child in self.children())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Terminal helpers
    # ------------------------------------------------------------------
    def to_relation(self, ctx: ExecutionContext) -> FuzzyRelation:
        """Run the plan and collect the answer with fuzzy-OR dedup.

        Whatever happens — success, a typed storage fault, a timeout —
        the context is released afterwards, deleting scratch heaps.
        """
        try:
            return FuzzyRelation(self.schema, self.tuples(ctx))
        finally:
            ctx.release()


class Scan(Operator):
    """Sequential scan of a heap file, optionally with pushed-down selection.

    Selection rescales the tuple's degree to
    ``min(mu_R(r), d(p1(r)), ...)`` — exactly the reduction the paper
    applies before sorting ("only those tuples that satisfy p1 positively
    should be sorted").
    """

    def __init__(
        self,
        heap: HeapFile,
        predicates: Sequence[TuplePredicate] = (),
        table: Optional[str] = None,
    ):
        self.heap = heap
        self.predicates = list(predicates)
        self.schema = heap.schema
        #: The catalog name this leaf was planned for (``None``: built
        #: directly from ``heap``); :func:`live_heap` binds it per execution.
        self.table = table
        #: The attribute whose clustered copy this leaf reads instead of
        #: the heap (``None``: the heap); set by :func:`cluster`.
        self.clustered: Optional[str] = None

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        om = ctx.metrics.op(self) if ctx.metrics is not None else None
        heap = live_heap(self, ctx.catalog)
        with ctx.disk.use_stats(ctx.stats):
            for page_index in self._pages(heap, ctx.stats):
                page = ctx.disk.read_page(heap.name, page_index)
                for record in page.records():
                    t = heap.serializer.decode(record)
                    if om is not None:
                        om.rows_in += 1
                    degree = t.degree
                    for predicate in self.predicates:
                        if degree == 0.0:
                            break
                        degree = min(degree, predicate(t, ctx.stats))
                    if degree > 0.0:
                        yield t.with_degree(degree)
                    elif om is not None:
                        om.prunes += 1

    def _pages(self, heap: HeapFile, stats: OperationStats) -> Iterable[int]:
        return range(heap.n_pages)

    def describe(self) -> str:
        """One-line label: heap name, pushed-down filters, and the copy read."""
        preds = ", ".join(p.label for p in self.predicates) or "true"
        copy = f", clustered on {self.clustered}" if self.clustered else ""
        return f"Scan({self.heap.name}, filter={preds}{copy})"


def live_heap(leaf: Scan, catalog) -> HeapFile:
    """The heap ``leaf`` reads when executed against ``catalog``.

    The one binding rule: a leaf planned for a catalog name reads that
    table's *current* heap epoch — or, when :func:`cluster` marked it,
    the current epoch's clustered copy — whether its plan is fresh,
    cached or prepared, so a plan that outlived a DML install never scans
    a replaced version; a leaf built directly from a heap (``table`` is
    ``None``), or run without a catalog, reads that heap.
    """
    if catalog is None or leaf.table is None:
        return leaf.heap
    if leaf.clustered is not None:
        key = (leaf.table, leaf.clustered)
        return _live(catalog.indexes, key, f"the index on {leaf.table}.{leaf.clustered}")
    return _live(catalog.tables, leaf.table, leaf.table)


def cluster(leaf: Operator, attribute: str, indexes) -> None:
    """Mark ``leaf`` to read its table's copy clustered on ``attribute``
    when it is a predicate-free base scan and ``indexes`` holds that copy:
    a band join on ``attribute`` then skips sorting it."""
    if type(leaf) is Scan and not leaf.predicates and (leaf.table, attribute) in indexes:
        leaf.clustered = attribute


def _live(mapping, key, what):
    try:
        return mapping[key]
    except KeyError:
        raise FuzzyQueryError(
            f"{what} was dropped after this statement was planned"
        ) from None


def materialize(source: Operator, ctx: ExecutionContext) -> HeapFile:
    """Write ``source``'s tuples into a scratch heap file (needed before
    sorting), charging the I/O; :meth:`ExecutionContext.release` deletes it."""
    name = ctx.scratch_name("rel")
    with ctx.disk.use_stats(ctx.stats):
        heap = HeapFile(name, source.schema, ctx.disk)
        heap.load(source.tuples(ctx))
    return heap


def _as_heap(source: Operator, ctx: ExecutionContext) -> Tuple[HeapFile, Optional[str]]:
    """The heap a join reads for ``source`` and, when that is a base table
    read unchanged, its catalog name (what its shard placement is keyed by)."""
    if isinstance(source, Scan) and not source.predicates:
        return live_heap(source, ctx.catalog), source.table
    return materialize(source, ctx), None


def join_rows(
    folded: Iterable[Tuple[FuzzyTuple, object]],
    outer_keep: Sequence[int],
    inner_keep: Sequence[int] = (),
    om=None,
    stats: Optional[OperationStats] = None,
) -> Iterator[FuzzyTuple]:
    """The one place an operator builds a row: from ``(r, state)`` per outer tuple.

    With no inner column kept, ``state`` is ``r``'s folded degree and
    ``r``'s kept columns are emitted once when it is positive; otherwise
    it lists ``r``'s joining ``(s, degree)`` pairs, each emitted as both
    tuples' kept columns.  ``om`` counts outer tuples in and pruned, and
    the pairs the fold charged to ``stats`` as decided (its inputs are
    materialized before its scan starts: nothing else charges meanwhile).
    """
    before = stats.total.decided_pairs if om and stats else 0
    for r, state in folded:
        if om is not None:
            om.rows_in += 1
        if inner_keep and state:
            kept = tuple(r.values[i] for i in outer_keep)
            for s, degree in state:
                yield FuzzyTuple(kept + tuple(s.values[j] for j in inner_keep), degree)
        elif not inner_keep and state > 0.0:
            yield FuzzyTuple(tuple(r.values[i] for i in outer_keep), state)
        elif om is not None:
            om.prunes += 1
    if om and stats:
        om.decided += stats.total.decided_pairs - before


class JoinOp(Operator):
    """A join emitting the columns ``keep`` picks from (left columns, then right).

    ``None`` keeps all of them.  A join that keeps no right column is a
    **max-fold** (:attr:`folds`): each left tuple is emitted once, at its
    largest pair degree (``docs/possibility_semantics.md``).
    """

    def __init__(self, left: Operator, right: Operator, keep: Optional[Sequence[int]] = None):
        self.left = left
        self.right = right
        width = len(left.schema)
        keep = range(width + len(right.schema)) if keep is None else keep
        self.outer_keep = [i for i in keep if i < width]
        self.inner_keep = [i - width for i in keep if i >= width]
        self.schema = concat_schemas(left.schema, right.schema, keep)
        self.folds = not self.inner_keep

    @property
    def fold_steps(self) -> tuple:
        """The ``(init, step, decided)`` this join hands the band scan."""
        return under_cut(MAX_FOLD if self.folds else PAIRS, self.cut)

    def _rows(self, ctx: ExecutionContext, folded) -> Iterator[FuzzyTuple]:
        """This join's output rows from the band scan's ``(r, state)`` stream."""
        om = ctx.metrics.op(self) if ctx.metrics is not None else None
        return join_rows(folded, self.outer_keep, self.inner_keep, om, ctx.stats)

    def children(self) -> List[Operator]:
        """Both join inputs, outer first."""
        return [self.left, self.right]


class MergeJoinOp(JoinOp):
    """Extended merge-join of two child operators on one equi-attribute pair.

    Residual predicates (further join conditions of type-J/chain queries)
    are folded into the pair degree.
    """

    def __init__(
        self,
        left: Operator,
        left_attr: str,
        right: Operator,
        right_attr: str,
        residual: Sequence[JoinPredicate] = (),
        pair_degree: Optional[PairDegree] = None,
        keep: Optional[Sequence[int]] = None,
    ):
        from ..join.predicates import join_degree
        from ..fuzzy.compare import Op

        super().__init__(left, right, keep)
        self.left_attr = left_attr
        self.right_attr = right_attr
        predicates = [
            JoinPredicate(left.schema, left_attr, Op.EQ, right.schema, right_attr)
        ] + list(residual)
        # Retained so a per-execution comparison kernel can be woven into
        # the degree closure without baking it into (cached) plans.
        self._predicates = predicates if pair_degree is None else None
        self.pair_degree = pair_degree if pair_degree is not None else join_degree(predicates)

    def pair_degree_with(self, kernel) -> PairDegree:
        """The pair degree routed through ``kernel``, when we own the closure.

        A caller-supplied ``pair_degree`` is opaque and returned as-is;
        the default conjunction is rebuilt over the kernel so repeated
        ``(probe, candidate)`` evaluations hit its memo.
        """
        from ..join.predicates import join_degree

        if kernel is None or self._predicates is None:
            return self.pair_degree
        return join_degree(self._predicates, kernel)

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        left_heap, left_table = _as_heap(self.left, ctx)
        right_heap, right_table = _as_heap(self.right, ctx)
        pair_degree = self.pair_degree_with(ctx.kernel)

        with ctx.merge_join(left_table, right_table) as join:
            yield from self._rows(ctx, join.fold(
                left_heap, self.left_attr, right_heap, self.right_attr, pair_degree,
                *self.fold_steps,
            ))

    def describe(self) -> str:
        """One-line label: the band attributes, as a join or a max-fold."""
        kind = "MaxFold" if self.folds else "MergeJoin"
        return f"{kind}({self.left_attr} = {self.right_attr})"


class NestedLoopJoinOp(JoinOp):
    """Block nested-loop join (the baseline every nested query is stuck with)."""

    def __init__(self, left, right, pair_degree: PairDegree, label: str = "", keep=None):
        super().__init__(left, right, keep)
        self.pair_degree = pair_degree
        self.label = label

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        left_heap, _ = _as_heap(self.left, ctx)
        right_heap, _ = _as_heap(self.right, ctx)
        join = NestedLoopJoin(ctx.disk, ctx.buffer_pages, ctx.stats)
        yield from self._rows(ctx, join.fold(
            left_heap, right_heap, self.pair_degree, *self.fold_steps
        ))

    def describe(self) -> str:
        """One-line label: the joined binding, as a join or a max-fold."""
        kind = "NestedLoopMaxFold" if self.folds else "NestedLoopJoin"
        return f"{kind}({self.label})"


class BandFold(Operator):
    """A per-outer-tuple fold over one band join: the JX' / JALL' / JA' shape.

    Sections 5–7 evaluate each of these unnested forms as the *same* scan
    of ``Rng(r)`` on the extended merge-join; the subclasses differ only
    in ``pair_degree`` / ``init`` / ``step`` and in what they make of the
    final state (their ``run(ctx)``).  The children are the two base-table
    scans — given as heap files, or as the planner's name-bound
    :class:`Scan` leaves, which bind to the live heap versions like any
    other tree's; they carry no predicates (``p1`` / ``p2`` are part of
    the fold), so the join reads their heaps directly.  At most one
    projected answer is emitted per outer tuple.
    """

    def __init__(
        self,
        outer: Union[HeapFile, Scan],
        inner: Union[HeapFile, Scan],
        project_attrs: Sequence[str],
    ):
        self.outer = outer if isinstance(outer, Scan) else Scan(outer)
        self.inner = inner if isinstance(inner, Scan) else Scan(inner)
        self.project_attrs = list(project_attrs)
        self.project_indices = [outer.schema.index_of(a) for a in self.project_attrs]
        self.schema = outer.schema.project(self.project_attrs)

    def run(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        """The answer stream of this fold on ``ctx``."""
        raise NotImplementedError

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        return self.run(ctx)

    def _fold(
        self,
        ctx: ExecutionContext,
        band: Optional[Tuple[str, str]],
        pair_degree: PairDegree,
        init: Callable,
        step: Callable,
        decided: Optional[Callable] = None,
    ) -> Iterator[Tuple[FuzzyTuple, object]]:
        """``(r, state)`` per outer tuple: the merge-join over ``band``
        (outer attribute, inner attribute), or every pair on the block
        nested loop when no equality links the two blocks."""
        outer = live_heap(self.outer, ctx.catalog)
        inner = live_heap(self.inner, ctx.catalog)
        if band is None:
            join = NestedLoopJoin(ctx.disk, ctx.buffer_pages, ctx.stats)
            yield from join.fold(outer, inner, pair_degree, init, step, decided)
            return
        with ctx.merge_join(self.outer.table, self.inner.table) as join:
            yield from join.fold(outer, band[0], inner, band[1], pair_degree, init, step, decided)

    def _answers(
        self, ctx: ExecutionContext, degrees: Iterable[Tuple[FuzzyTuple, float]]
    ) -> Iterator[FuzzyTuple]:
        """Project the outer tuples whose folded degree is positive."""
        om = ctx.metrics.op(self) if ctx.metrics is not None else None
        return join_rows(degrees, self.project_indices, om=om, stats=ctx.stats)

    def children(self) -> List[Operator]:
        """The outer and inner base-table scans."""
        return [self.outer, self.inner]


class Project(Operator):
    """Projection; duplicate elimination happens at `to_relation` (fuzzy OR)."""

    def __init__(self, child: Operator, attributes: Sequence[str]):
        self.child = child
        self.attributes = list(attributes)
        self.indices = [child.schema.index_of(a) for a in attributes]
        self.schema = child.schema.project(attributes)

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        for t in self.child.tuples(ctx):
            if ctx.stats is not None:
                ctx.stats.count_move()
            yield t.project(self.indices)

    def describe(self) -> str:
        """One-line label listing the projected columns."""
        return f"Project({', '.join(self.attributes)})"

    def children(self) -> List[Operator]:
        """The single child operator."""
        return [self.child]


class Threshold(Operator):
    """The WITH clause applied to the answer stream, and handed down as the
    ``cut`` of every operator beneath: each is a ``min`` or a ``max`` of
    degrees, so a fold that can no longer meet it yields only dropped rows."""

    def __init__(self, child: Operator, threshold: float):
        self.child = child
        self.threshold = threshold
        self.schema = child.schema
        below = [child]
        while below:
            node = below.pop()
            node.cut = threshold
            below.extend(node.children())

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        from ..fuzzy.logic import meets_threshold

        om = ctx.metrics.op(self) if ctx.metrics is not None else None
        for t in self.child.tuples(ctx):
            if om is not None:
                om.rows_in += 1
            if meets_threshold(t.degree, self.threshold):
                yield t
            elif om is not None:
                om.prunes += 1

    def describe(self) -> str:
        """One-line label showing the ``WITH D >= z`` cut."""
        return f"Threshold(D >= {self.threshold})"

    def children(self) -> List[Operator]:
        """The single child operator."""
        return [self.child]
