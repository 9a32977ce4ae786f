"""The index as a sorted copy, and the trapezoid kernels over column batches.

The paper replaces tuple-at-a-time nested iteration with sort-merge over
the support-interval order ``(b(v), e(v))``; an index keeps that order on
disk.  ``create_index(T, X)`` writes T's records into a clustered copy
sorted on X with per-page fences (:mod:`~repro.columnar.index`): a band
join reads it without sorting, and :class:`~repro.columnar.operators.IndexScan`
reads only the page range a selective comparison can reach.  The batch
kernels of :mod:`~repro.columnar.kernel` compute comparison degrees for a
probe against whole ``(a, b, e, d)`` columns.
"""

from .index import UnsupportedIndexError, clustered_copy, fenced_pages, index_file_name
from .kernel import (
    batch_eq_necessity,
    batch_eq_possibility,
    batch_le_possibility,
    batch_lt_possibility,
)
from .operators import IndexScan

__all__ = [
    "IndexScan",
    "UnsupportedIndexError",
    "batch_eq_necessity",
    "batch_eq_possibility",
    "batch_le_possibility",
    "batch_lt_possibility",
    "clustered_copy",
    "fenced_pages",
    "index_file_name",
]
