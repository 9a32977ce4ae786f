"""Block nested-loop join — the baseline every nested query is stuck with.

Following Section 9's setup: "one buffer page is allocated to the inner
relation and the rest to the outer relation in order to minimize I/O cost".
With ``M`` buffer pages, R is consumed in blocks of ``M - 1`` pages and S is
scanned once per block, giving the paper's
``b_R + ceil(b_R / (M-1)) * b_S`` page transfers and ``n_R * n_S`` fuzzy
predicate evaluations (fewer for a fold that can tell it is decided).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from ..data.tuples import FuzzyTuple
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .predicates import PAIRS, PairDegree

NL_PHASE = "nested-loop"

State = TypeVar("State")


class NestedLoopJoin:
    """Block nested-loop join between two heap files."""

    def __init__(self, disk: SimulatedDisk, buffer_pages: int, stats: OperationStats):
        if buffer_pages < 2:
            raise ValueError("block nested loop needs at least 2 buffer pages")
        self.disk = disk
        self.buffer_pages = buffer_pages
        self.stats = stats

    # ------------------------------------------------------------------
    # High-level API
    # ------------------------------------------------------------------
    def pairs(
        self, outer: HeapFile, inner: HeapFile, pair_degree: PairDegree
    ) -> Iterator[Tuple[FuzzyTuple, FuzzyTuple, float]]:
        """All joining pairs ``(r, s, degree)`` with positive degree."""
        for r, matches in self.fold(outer, inner, pair_degree, *PAIRS):
            for s, degree in matches:
                yield r, s, degree

    def fold(
        self,
        outer: HeapFile,
        inner: HeapFile,
        pair_degree: PairDegree,
        init: Callable[[FuzzyTuple], State],
        step: Callable[[State, FuzzyTuple, float], State],
        decided: Optional[Callable[[FuzzyTuple, State], bool]] = None,
        outer_start: Tuple[int, int] = (0, 0),
        inner_start: int = 0,
        inner_rows: Optional[int] = None,
    ) -> Iterator[Tuple[FuzzyTuple, State]]:
        """Per-R-tuple fold over *every* S-tuple.

        Unlike the merge-join, the nested loop examines all ``n_R * n_S``
        pairs, so ``init`` needs no out-of-range allowance.  A tuple leaves
        its block once ``decided(r, state)`` holds, and a block with none
        left stops reading S; ``decided_pairs`` counts every pair skipped
        either way, the unread rest of S included, so examined plus
        decided pairs is always the block's size times S's.

        ``outer_start`` (page, record) and ``inner_start`` (page) restrict
        the fold to the tail of both files — how the merge-join finishes a
        scan whose window outgrew the buffer (see ``docs/robustness.md``);
        ``inner_rows`` is the number of S tuples on that tail (default: all
        of S, so pass it whenever ``inner_start`` is not 0).
        """
        first_page, first_record = outer_start
        if inner_rows is None:
            inner_rows = inner.n_tuples
        with self.disk.use_stats(self.stats), self.stats.enter_phase(NL_PHASE):
            block_frames = self.buffer_pages - 1
            for block_start in range(first_page, outer.n_pages, block_frames):
                block_end = min(block_start + block_frames, outer.n_pages)
                block: List[FuzzyTuple] = []
                for page_index in range(block_start, block_end):
                    page = self.disk.read_page(outer.name, page_index)
                    block.extend(outer.serializer.decode(rec) for rec in page.records())
                if block_start == first_page:
                    del block[:first_record]
                states = [init(r) for r in block]
                live = [(i, r) for i, r in enumerate(block)
                        if decided is None or not decided(r, states[i])]
                read = 0  # S tuples this block stepped through
                for s_page in range(inner_start, inner.n_pages):
                    if decided is not None and not live:
                        break
                    page = self.disk.read_page(inner.name, s_page)
                    for record in page.records():
                        read += 1
                        s = inner.serializer.decode(record)
                        if len(live) < len(block):
                            self.stats.count_decided(len(block) - len(live))
                        settled = False
                        for i, r in live:
                            state = states[i] = step(states[i], s, pair_degree(r, s, self.stats))
                            if decided is not None and decided(r, state):
                                settled = True
                        if settled:
                            live = [(i, r) for i, r in live if not decided(r, states[i])]
                            if not live:
                                break
                if read < inner_rows:
                    self.stats.count_decided(len(block) * (inner_rows - read))
                for r, state in zip(block, states):
                    yield r, state

    # ------------------------------------------------------------------
    # Analytical cost (for cross-checking measured I/O)
    # ------------------------------------------------------------------
    def expected_page_ios(self, outer: HeapFile, inner: HeapFile) -> int:
        """Analytic page I/O: outer read once, inner re-read once per outer block."""
        blocks = math.ceil(outer.n_pages / (self.buffer_pages - 1)) if outer.n_pages else 0
        return outer.n_pages + blocks * inner.n_pages
