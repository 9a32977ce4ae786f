"""The index range scan: a fence-pruned page range of the clustered copy.

:class:`IndexScan` answers exactly what :class:`~repro.engine.operators.Scan`
with the same pushed-down predicates answers: it runs the row path's own
filter over the rows it reads.  It reads fewer of them — only the pages of
the table's clustered copy whose fences (:func:`~repro.columnar.index.fenced_pages`)
admit a row of positive degree — and every page it skips holds only rows
the row path would have dropped at degree 0.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..engine.operators import Scan, TuplePredicate, live_heap
from ..fuzzy.compare import Op
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .index import fenced_pages


class IndexScan(Scan):
    """A scan of the copy clustered on ``attribute``, pruned for one
    ``attribute op probe`` predicate and filtered by ``predicates``.

    ``pages`` is the page count the planner priced (EXPLAIN shows it);
    execution prunes the live copy again, so a plan that outlived a write
    reads the pages of the current epoch.
    """

    def __init__(
        self,
        heap: HeapFile,
        predicates: Sequence[TuplePredicate],
        table: str,
        attribute: str,
        op: Op,
        probe,
        pages: int,
    ):
        super().__init__(heap, predicates, table)
        self.clustered = attribute
        self.op = op
        self.probe = probe
        self.pages = pages

    def _pages(self, heap: HeapFile, stats: OperationStats) -> Iterator[int]:
        for page_index in fenced_pages(heap, self.op, *self.probe.interval()):
            stats.count_index_read()
            yield page_index

    def describe(self) -> str:
        """One-line label: the copy's attribute, the probe, the priced pages."""
        begin, end = self.probe.interval()
        preds = ", ".join(p.label for p in self.predicates)
        return (
            f"IndexScan({self.heap.name}, {self.clustered} {self.op.value} "
            f"probe[{begin:g}, {end:g}], pages={self.pages}, filter={preds})"
        )
