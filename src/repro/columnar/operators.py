"""Index-assisted physical operators: range scans and entry merge-joins.

Both operators answer *exactly* the same relation as their row-at-a-time
counterparts (:class:`~repro.engine.operators.Scan` with a pushed-down
equality, and :class:`~repro.engine.operators.MergeJoinOp`); they differ
only in how much work they do to get there:

* :class:`IndexScan` walks the fence-key directory of a
  :class:`~repro.columnar.SupportIntervalIndex` to the index pages whose
  entries can overlap the probe's support, computes every comparison
  degree with one vectorized kernel call per page, and fetches only the
  data pages of qualifying rows;
* :class:`IndexMergeJoinOp` merges the two attributes' *index entry*
  streams with the paper's sliding-window algorithm, pruning pairs whose
  supports are provably disjoint (equality degree 0) or whose degree
  bound ``min(mu_R(r), mu_S(s))`` cannot meet the query's ``WITH D >= z``
  cut, and evaluates the full pair degree — through the ordinary
  predicate machinery, for bit-identical floats — only for survivors.

Neither path sorts anything: the index *is* the interval order, which is
where the page-read savings come from.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterator, List, Optional, Sequence, Tuple

from ..data.tuples import FuzzyTuple
from ..engine.operators import (
    ExecutionContext,
    MergeJoinOp,
    Operator,
    Scan,
    TuplePredicate,
    live_heap,
    live_index,
)
from ..fuzzy.compare import Op
from ..fuzzy.logic import meets_threshold
from ..join.merge_join import JOIN_PHASE
from ..join.predicates import JoinPredicate
from ..storage.heap import HeapFile
from .index import IndexEntry, SupportIntervalIndex, probe_support
from .kernel import batch_eq_possibility, batch_le_possibility, batch_lt_possibility


class _EntryWindowOverflow(Exception):
    """The index entry window outgrew the buffer; private to this module
    (:class:`IndexMergeJoinOp` hands the join to the sort-merge plan)."""


class _PageCache:
    """A tiny LRU of decoded heap pages for row-id fetches.

    Index access paths touch data pages by ``(page, slot)`` rather than
    sequentially; this cache makes repeated hits on the same page cost one
    read, bounded so the budget accounting stays honest (``frames`` plays
    the role of buffer frames dedicated to the fetch side).
    """

    def __init__(self, heap: HeapFile, ctx: ExecutionContext, frames: int):
        self.heap = heap
        self.ctx = ctx
        self.frames = max(1, frames)
        self._pages: "OrderedDict[int, List[FuzzyTuple]]" = OrderedDict()

    def tuple_at(self, page_index: int, slot: int) -> FuzzyTuple:
        """The decoded tuple at ``(page_index, slot)``, reading on miss."""
        tuples = self._pages.get(page_index)
        if tuples is None:
            page = self.ctx.disk.read_page(self.heap.name, page_index)
            tuples = [self.heap.serializer.decode(r) for r in page.records()]
            self._pages[page_index] = tuples
            while len(self._pages) > self.frames:
                self._pages.popitem(last=False)
        else:
            self._pages.move_to_end(page_index)
        return tuples[slot]


class IndexScan(Scan):
    """Index scan replacing a full scan with one ``attr op literal`` filter.

    Subclasses :class:`Scan` so cardinality estimation and plan rendering
    treat it as a (filtered) leaf; ``predicates`` keeps the row-path
    predicate so the answer's provenance stays visible in EXPLAIN.  The
    stream yields the same tuples at the same degrees as the row path,
    minus those that provably cannot meet the query threshold — which the
    downstream :class:`~repro.engine.operators.Threshold` would drop
    anyway, so the query answer is bit-identical.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=`` (with the stored
    attribute on the left); each op has its own page prune
    (:meth:`SupportIntervalIndex.probe_pages`), its own provably-zero
    entry prefilter, and its own vectorized kernel.
    """

    def __init__(
        self,
        heap: HeapFile,
        predicates: Sequence[TuplePredicate],
        index: SupportIntervalIndex,
        probe,
        threshold: float = 0.0,
        op: Op = Op.EQ,
        table: Optional[str] = None,
    ):
        super().__init__(heap, predicates, table)
        self.index = index
        self.probe = probe
        self.threshold = threshold
        self.op = op

    def _zero_entry(self, a: float, d: float, begin: float, end: float) -> bool:
        """Whether the entry's degree is provably 0 on supports alone."""
        if self.op in (Op.LT, Op.LE):
            # Every x in the entry's support exceeds every y in the
            # probe's: the entry is certainly greater.
            return a > end
        if self.op in (Op.GT, Op.GE):
            return d < begin
        return d < begin or end < a

    def _batch_degrees(self, col_a, col_b, col_e, col_d) -> List[float]:
        """The op's kernel over one candidate batch (attribute on the left)."""
        if self.op is Op.EQ:
            return batch_eq_possibility(self.probe, col_a, col_b, col_e, col_d)
        # The scalar library evaluates x > y as y < x, so GT/GE reuse the
        # LT/LE kernels with the probe on the left.
        if self.op in (Op.LT, Op.GT):
            return batch_lt_possibility(
                self.probe, col_a, col_b, col_e, col_d, probe_on_left=(self.op is Op.GT)
            )
        return batch_le_possibility(
            self.probe, col_a, col_b, col_e, col_d, probe_on_left=(self.op is Op.GE)
        )

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        om = ctx.metrics.op(self) if ctx.metrics is not None else None
        stats = ctx.stats
        heap = live_heap(self, ctx.catalog)
        index = live_index(self, self.index, ctx.catalog)
        begin, end = probe_support(self.probe)
        qualifying: List[Tuple[int, int, float]] = []
        with ctx.disk.use_stats(stats):
            for idx_page in index.probe_pages(self.op, begin, end):
                columnar = index.fetch(ctx.disk, idx_page)
                # Crisp prefilter over the (a, d) columns: entries whose
                # support relation to the probe's forces degree 0.
                candidates = []
                for i in range(len(columnar)):
                    stats.count_crisp()
                    if om is not None:
                        om.rows_in += 1
                    if self._zero_entry(columnar.col_a[i], columnar.col_d[i], begin, end):
                        if om is not None:
                            om.prunes += 1
                        continue
                    candidates.append(i)
                if not candidates:
                    continue
                stats.count_kernel_batch()
                stats.count_columns(4)
                stats.count_fuzzy(len(candidates))
                degrees = self._batch_degrees(
                    [columnar.col_a[i] for i in candidates],
                    [columnar.col_b[i] for i in candidates],
                    [columnar.col_e[i] for i in candidates],
                    [columnar.col_d[i] for i in candidates],
                )
                for i, eq in zip(candidates, degrees):
                    degree = min(columnar.degrees[i], eq)
                    if meets_threshold(degree, self.threshold):
                        qualifying.append((columnar.pages[i], columnar.slots[i], degree))
                    elif om is not None:
                        om.prunes += 1
            # Fetch qualifying rows in heap order so each data page is
            # read at most once.
            qualifying.sort()
            current: Optional[int] = None
            tuples: List[FuzzyTuple] = []
            for page_index, slot, degree in qualifying:
                if page_index != current:
                    page = ctx.disk.read_page(heap.name, page_index)
                    tuples = [heap.serializer.decode(r) for r in page.records()]
                    current = page_index
                yield tuples[slot].with_degree(degree)

    def describe(self) -> str:
        """One-line label: index key, operator, and the probed support."""
        begin, end = probe_support(self.probe)
        return (
            f"IndexScan({self.heap.name}, {self.index.attribute} {self.op.value} "
            f"probe[{begin:g}, {end:g}], threshold={self.threshold:g})"
        )


class IndexMergeJoinOp(MergeJoinOp):
    """Merge-join driven by two support-interval indexes instead of sorts.

    The paper's join phase needs both inputs in the interval order; the
    indexes already are, so the sliding-window merge runs directly over
    their entry streams — no external sort, no scratch writes.  Window
    entries carry the full trapezoid and the tuple degree, which enables
    two result-preserving prunes before any data page is touched:

    * support-disjoint pairs (the row path's "dangling" window tuples)
      have equality degree 0 and are dropped on a crisp interval test;
    * pairs whose degree bound ``min(mu_R(r), mu_S(s))`` cannot meet the
      ``WITH D >= z`` cut are dropped — the row path emits them only for
      the Threshold operator to discard.

    Survivor pairs fetch their tuples by row id and run the ordinary
    ``pair_degree`` closure, so every emitted degree is bit-identical to
    the sort-merge path.  Under sharded execution, or if the entry window
    outgrows the buffer (the top rung of the ladder in
    ``docs/robustness.md``), the operator delegates to the parent
    sort-merge plan unchanged.
    """

    def __init__(
        self,
        left: Operator,
        left_attr: str,
        right: Operator,
        right_attr: str,
        left_index: SupportIntervalIndex,
        right_index: SupportIntervalIndex,
        residual: Sequence[JoinPredicate] = (),
        threshold: float = 0.0,
        keep: Optional[Sequence[int]] = None,
    ):
        super().__init__(left, left_attr, right, right_attr, residual=residual, keep=keep)
        self.left_index = left_index
        self.right_index = right_index
        self.threshold = threshold

    def _tuples(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        if ctx.placement is not None:
            # Placed relations join shard-locally; the partitioned band
            # join is already bit-identical and keeps per-shard accounting.
            yield from super()._tuples(ctx)
            return
        try:
            # Materialized before yielding so a window overflow can still
            # fall back to the parent plan without double-emitting.
            with ctx.disk.use_stats(ctx.stats), ctx.stats.enter_phase(JOIN_PHASE):
                folded = list(self._index_fold(ctx, *self.fold_steps))
        except _EntryWindowOverflow:
            ctx.mark_degraded(
                "index merge-join entry window exceeded the buffer; "
                "sort-merge fallback"
            )
            yield from super()._tuples(ctx)
            return
        yield from self._rows(ctx, folded)

    def _index_fold(self, ctx: ExecutionContext, init, step) -> Iterator[Tuple[FuzzyTuple, object]]:
        """The sliding-window merge over the two index entry streams: the
        ``(r, state)`` of every outer tuple with a surviving pair."""
        stats = ctx.stats
        pair_degree = self.pair_degree_with(ctx.kernel)
        fetch_frames = max(1, (ctx.buffer_pages - 1) // 2)
        left_rows = _PageCache(live_heap(self.left, ctx.catalog), ctx, fetch_frames)
        right_rows = _PageCache(live_heap(self.right, ctx.catalog), ctx, fetch_frames)
        left_index = live_index(self.left, self.left_index, ctx.catalog)
        right_index = live_index(self.right, self.right_index, ctx.catalog)

        window: "deque[IndexEntry]" = deque()
        window_pages = 0  # distinct S index pages spanned by the window
        s_stream = right_index.scan_entries(ctx.disk)
        exhausted = False
        budget = ctx.buffer_pages - 1

        for r_entry in left_index.scan_entries(ctx.disk):
            rb, re_ = r_entry.a, r_entry.d

            # Retire S entries that precede every remaining R entry.
            while window:
                stats.count_crisp()
                if window[0].d < rb:
                    retired = window.popleft()
                    if not window or window[0].idx_page != retired.idx_page:
                        window_pages = max(0, window_pages - 1)
                else:
                    break

            # Examine resident entries beginning at or before e(r.X).
            scan_done = False
            found: List[Tuple[FuzzyTuple, FuzzyTuple, float]] = []
            for entry in window:
                stats.count_crisp()
                if entry.a > re_:
                    scan_done = True
                    break
                found += self._examine(r_entry, entry, pair_degree, left_rows, right_rows, stats)

            # Extend the window from the S entry stream.
            while not scan_done and not exhausted:
                entry = next(s_stream, None)
                if entry is None:
                    exhausted = True
                    break
                if not window or window[-1].idx_page != entry.idx_page:
                    window_pages += 1
                    if window_pages > budget:
                        raise _EntryWindowOverflow(
                            f"index entry window spans {window_pages} pages "
                            f"but only {budget} frames are available"
                        )
                window.append(entry)
                stats.count_crisp()
                if entry.a > re_:
                    scan_done = True
                    break
                found += self._examine(r_entry, entry, pair_degree, left_rows, right_rows, stats)

            if found:
                state = init(found[0][0])
                for _r, s, degree in found:
                    state = step(state, s, degree)
                yield found[0][0], state

    def _examine(
        self,
        r_entry: IndexEntry,
        s_entry: IndexEntry,
        pair_degree,
        left_rows: _PageCache,
        right_rows: _PageCache,
        stats,
    ) -> Iterator[Tuple[FuzzyTuple, FuzzyTuple, float]]:
        """Prune one ``(r, s)`` entry pair, or evaluate it fully."""
        # Dangling pair: supports provably disjoint, equality degree 0.
        stats.count_crisp()
        if s_entry.d < r_entry.a or r_entry.d < s_entry.a:
            return
        # The pair degree is a min-fold starting at min(mu_R, mu_S); a
        # bound below the WITH cut can only shrink further, and the row
        # path's Threshold operator would discard it.
        stats.count_crisp()
        bound = min(r_entry.degree, s_entry.degree)
        if not meets_threshold(bound, self.threshold):
            return
        r = left_rows.tuple_at(r_entry.page, r_entry.slot)
        s = right_rows.tuple_at(s_entry.page, s_entry.slot)
        degree = pair_degree(r, s, stats)
        if degree > 0.0:
            yield r, s, degree

    def describe(self) -> str:
        """One-line label: the indexed band attributes and the WITH cut."""
        kind = "IndexMaxFold" if self.folds else "IndexMergeJoin"
        return f"{kind}({self.left_attr} = {self.right_attr}, threshold={self.threshold:g})"
