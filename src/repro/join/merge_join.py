"""The extended merge-join of Section 3.

Both relations are sorted on the join attribute by the interval order
``(b(v), e(v))`` (an index's clustered copy already is, and skips its
sort); the join phase then walks R one page at a time while
sweeping a *window* of S-tuples.  For the current R-tuple ``r``:

* S-tuples at the window front with ``e(s.X) < b(r.X)`` are retired for
  good — R is sorted by ``b``, so no later R-tuple can reach back to them;
* the window extends rightward while ``b(s.X) <= e(r.X)``; the first
  S-tuple beginning after ``e(r.X)`` stops the scan for ``r`` (it stays in
  the window for later R-tuples);
* every window tuple scanned in between is *examined* (one fuzzy predicate
  evaluation), including the "dangling" ones whose supports don't actually
  intersect ``r.X`` — the inefficiency the paper discusses for very wide
  intervals.

Each page of S is read exactly once during the join phase, provided the
buffer can hold one R page plus the pages spanned by the largest window
(the paper assumes the buffer is large enough to hold the largest
``Rng(r)``).

:meth:`MergeJoin.fold` is also the one place a band join steps down — the
fallback ladder of ``docs/robustness.md``.  Both rungs run the caller's
``pair_degree`` / ``init`` / ``step`` / ``decided`` on
:meth:`~repro.join.nested_loop.NestedLoopJoin.fold`, which is sound for
every fold whose out-of-range pairs are neutral (the same condition the
window scan already relies on), keep every event charged so far, and set
:attr:`MergeJoin.fallback_reason`:

* a sort spill that hits :class:`~repro.errors.DiskFullError` — always
  before the first pair — folds over the unsorted inputs instead;
* a window wider than ``buffer_pages - 1`` frames finishes the scan as a
  block nested loop over the sorted remainder, in the same output order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from ..data.tuples import FuzzyTuple
from ..errors import DiskFullError
from ..fuzzy.interval_order import sort_key
from ..sort.external import ExternalSorter
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .nested_loop import NestedLoopJoin
from .predicates import PAIRS, PairDegree

JOIN_PHASE = "join"

#: The reasons the two rungs below the merge scan report.
SPILL_RUNG = (
    "merge-join sort spill hit DiskFullError; "
    "block nested-loop fallback over the inputs"
)
WINDOW_RUNG = (
    "merge window wider than the buffer (largest Rng(r), Section 3); "
    "block nested-loop fallback over the sorted remainder"
)

State = TypeVar("State")


class _WindowEntry:
    __slots__ = ("tuple", "b", "e", "page")

    def __init__(self, t: FuzzyTuple, key, page: int):
        self.tuple = t
        self.b, self.e = key
        self.page = page


def _in_order(sorter: ExternalSorter, heap: HeapFile, attribute: str) -> HeapFile:
    """``heap`` itself when it is stored in ``attribute``'s interval order
    (a clustered copy), else its external sort on ``attribute``."""
    return heap if heap.order == attribute else sorter.sort(heap, attribute)


class MergeJoin:
    """Extended merge-join between two heap files.

    ``buffer_pages`` bounds the pages held during the join phase (1 for the
    current R page + the S window).  The same budget is given to the sort
    phase, mirroring the paper's shared 2 MB buffer.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pages: int,
        stats: OperationStats,
        indicator: bool = False,
        metrics=None,
    ):
        """``indicator=True`` enables the equality-indicator optimization
        in the spirit of Zhang & Wang (TKDE 2000), which the paper cites as
        "a further optimization of the merge-join": window tuples whose
        support interval provably cannot intersect the current R-tuple's
        (the "dangling" tuples) are rejected with a cheap crisp interval
        test instead of a full fuzzy-library evaluation.  This is safe for
        every fold in this codebase because a dangling pair's degree is
        the fold's neutral element (0 for joins, ``mu_R(r)`` for the
        grouped anti-joins)."""
        self.disk = disk
        self.buffer_pages = buffer_pages
        self.stats = stats
        self.indicator = indicator
        self.metrics = metrics
        #: Every rung this join stepped down to, chained in order as
        #: ``"a; then b"`` (``None``: every merge scan ran to the end).
        #: Operators report it through
        #: :meth:`~repro.engine.context.ExecutionContext.merge_join`.
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # High-level API
    # ------------------------------------------------------------------
    def pairs(
        self,
        outer: HeapFile,
        outer_attr: str,
        inner: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
    ) -> Iterator[Tuple[FuzzyTuple, FuzzyTuple, float]]:
        """All joining pairs ``(r, s, degree)`` with positive degree."""
        for r, matches in self.fold(outer, outer_attr, inner, inner_attr, pair_degree, *PAIRS):
            for s, degree in matches:
                yield r, s, degree

    def fold(
        self,
        outer: HeapFile,
        outer_attr: str,
        inner: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
        init: Callable[[FuzzyTuple], State],
        step: Callable[[State, FuzzyTuple, float], State],
        decided: Optional[Callable[[FuzzyTuple, State], bool]] = None,
    ) -> Iterator[Tuple[FuzzyTuple, State]]:
        """Per-R-tuple fold over the examined S-window.

        ``init(r)`` seeds the accumulator (it must already account for the
        S-tuples *outside* ``Rng(r)``, whose predicates are unsatisfiable);
        ``step`` is invoked once per examined pair with its degree.  Once
        ``decided(r, state)`` holds, no step can change what the caller
        makes of the state: ``r``'s window is still walked (same crisp
        counts, reads and rung) but its pairs are charged as
        ``decided_pairs`` instead of evaluated.  Yields
        ``(r, final_state)`` in R's sorted order (file order if the sort
        itself could not spill — see the module docstring's ladder).  An
        input whose :attr:`~repro.storage.heap.HeapFile.order` is its band
        attribute is not sorted: it already is the sort's output.
        """
        from ..observe.trace import maybe_span

        with self.disk.use_stats(self.stats):
            sorter = ExternalSorter(
                self.disk, self.buffer_pages, self.stats, metrics=self.metrics
            )
            sorted_r = sorted_s = None
            # The sorted temporaries are deleted in a finally so a fault
            # during the sort or join phase (or an abandoned generator)
            # cannot strand them on the shared disk; an input already in
            # its band order is read as it is, and never deleted.
            try:
                try:
                    sorted_r = _in_order(sorter, outer, outer_attr)
                    sorted_s = _in_order(sorter, inner, inner_attr)
                except DiskFullError:
                    # Every sort write precedes the first pair and the
                    # nested loop only reads, so nothing is emitted twice.
                    yield from self._nested_loop(SPILL_RUNG).fold(
                        outer, inner, pair_degree, init, step, decided
                    )
                    return
                with self.stats.enter_phase(JOIN_PHASE), maybe_span(
                    self.metrics, f"probe {outer.name} x {inner.name}"
                ):
                    yield from self._join_phase(
                        sorted_r, outer_attr, sorted_s, inner_attr,
                        pair_degree, init, step, decided,
                    )
            finally:
                for heap, source in ((sorted_r, outer), (sorted_s, inner)):
                    if heap is not None and heap is not source:
                        self.disk.delete(heap.name)

    # ------------------------------------------------------------------
    # Join phase
    # ------------------------------------------------------------------
    def _join_phase(
        self,
        sorted_r: HeapFile,
        outer_attr: str,
        sorted_s: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
        init: Callable[[FuzzyTuple], State],
        step: Callable[[State, FuzzyTuple, float], State],
        decided: Optional[Callable[[FuzzyTuple, State], bool]],
    ) -> Iterator[Tuple[FuzzyTuple, State]]:
        r_index = sorted_r.schema.index_of(outer_attr)
        s_index = sorted_s.schema.index_of(inner_attr)
        window: "deque[_WindowEntry]" = deque()
        window_pages = 0  # distinct S pages currently spanned by the window
        page_rows: List[int] = []  # tuples on each S page streamed so far
        s_stream = self._s_tuples(sorted_s, s_index, page_rows)
        exhausted = False

        for r_page in range(sorted_r.n_pages):
            page = self.disk.read_page(sorted_r.name, r_page)
            for r_record, record in enumerate(page.records()):
                r = sorted_r.serializer.decode(record)
                rb, re_ = sort_key(r[r_index])

                # Retire S-tuples that precede every remaining R-tuple.
                while window:
                    self.stats.count_crisp()
                    if window[0].e < rb:
                        retired = window.popleft()
                        if not window or window[0].page != retired.page:
                            window_pages = max(0, window_pages - 1)
                    else:
                        break

                state = init(r)
                live = decided is None or not decided(r, state)
                skipped = 0

                # Examine resident window tuples beginning at or before e(r.X).
                scan_done = False
                for entry in window:
                    self.stats.count_crisp()
                    if entry.b > re_:
                        scan_done = True
                        break
                    if self.indicator and entry.e < rb:
                        self.stats.count_crisp()  # the indicator test
                        continue  # dangling: provably non-intersecting
                    if not live:
                        skipped += 1
                        continue
                    state = step(state, entry.tuple, pair_degree(r, entry.tuple, self.stats))
                    live = decided is None or not decided(r, state)

                # Extend the window from the S stream until past e(r.X).
                while not scan_done and not exhausted:
                    entry = next(s_stream, None)
                    if entry is None:
                        exhausted = True
                        break
                    if not window or window[-1].page != entry.page:
                        window_pages += 1
                        # One frame is reserved for the current R page.
                        if window_pages > self.buffer_pages - 1:
                            # Retired S-tuples end before b(r) and R is
                            # sorted by b, so no remaining R-tuple reaches
                            # a page before the window's first.
                            yield from self._nested_loop(WINDOW_RUNG).fold(
                                sorted_r, sorted_s, pair_degree, init, step, decided,
                                outer_start=(r_page, r_record),
                                inner_start=window[0].page,
                                inner_rows=sorted_s.n_tuples - sum(page_rows[:window[0].page]),
                            )
                            return
                    window.append(entry)
                    self.stats.count_crisp()
                    if entry.b > re_:
                        scan_done = True
                        break
                    if self.indicator and entry.e < rb:
                        self.stats.count_crisp()  # the indicator test
                        continue
                    if not live:
                        skipped += 1
                        continue
                    state = step(state, entry.tuple, pair_degree(r, entry.tuple, self.stats))
                    live = decided is None or not decided(r, state)

                if skipped:
                    self.stats.count_decided(skipped)
                yield r, state

    def _s_tuples(
        self, sorted_s: HeapFile, s_index: int, page_rows: List[int]
    ) -> Iterator[_WindowEntry]:
        for page_index in range(sorted_s.n_pages):
            page = self.disk.read_page(sorted_s.name, page_index)
            page_rows.append(len(page))
            for record in page.records():
                t = sorted_s.serializer.decode(record)
                yield _WindowEntry(t, sort_key(t[s_index]), page_index)

    def _nested_loop(self, rung: str) -> NestedLoopJoin:
        """Step down to the block nested loop, recording which rung it is."""
        self._degrade(rung)
        return NestedLoopJoin(self.disk, self.buffer_pages, self.stats)

    def _degrade(self, reason: str) -> None:
        """Chain ``reason`` onto :attr:`fallback_reason`."""
        earlier = self.fallback_reason
        self.fallback_reason = f"{earlier}; then {reason}" if earlier else reason
