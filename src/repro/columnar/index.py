"""The index: a table's records kept in one attribute's interval order.

The merge-join of Section 3 spends its sort phase putting both inputs in
Definition 3.1's order ``(b(v), e(v))``.  An index is that order kept on
disk: ``create_index(T, X)`` writes T's records, stable-sorted on X's
``(b, e)`` read by :meth:`~repro.storage.serializer.TupleSerializer.key_at`,
into an ordinary :class:`~repro.storage.heap.HeapFile` named
``__idx_T_X`` — the *clustered copy*.  That is exactly the record
sequence :class:`~repro.sort.external.ExternalSorter` emits for T on X
(its K-way merge breaks key ties by run index, i.e. by file order), packed
by the same greedy loop, so the copy is byte-identical to the sorter's
output.  The copy records its order (:attr:`HeapFile.order`) and a
per-page fence directory ``(first b, max e, rows)``
(:attr:`HeapFile.fences`):

* a band join over it is the ordinary ``MergeJoin.fold`` minus its sort;
* an ``attr op literal`` scan reads only the pages :func:`fenced_pages`
  selects (:class:`~repro.columnar.operators.IndexScan`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Optional

from ..errors import FuzzyQueryError
from ..fuzzy.compare import Op
from ..storage.heap import HeapFile


class UnsupportedIndexError(FuzzyQueryError):
    """The attribute holds values the interval order cannot index.

    Only numeric crisp and trapezoidal values have the single-interval
    support the ``(b(v), e(v))`` key requires; labels and discrete
    distributions do not.
    """


def index_file_name(table: str, attribute: str) -> str:
    """The disk file holding the clustered copy of ``table`` on ``attribute``."""
    return f"__idx_{table}_{attribute}"


def clustered_copy(
    heap: HeapFile, attribute: str, name: str, records: Optional[Iterable[bytes]] = None
) -> HeapFile:
    """Write ``heap``'s records (or ``records``, its contents) sorted on
    ``attribute`` into the file ``name``; nothing is decoded.

    The one builder: ``create_index``, every write-path install and
    ``checkpoint()`` call it.  Raises :class:`UnsupportedIndexError` —
    leaving no file behind — when a value has no single-interval support.
    """
    column = heap.schema.index_of(attribute)
    key_at = heap.serializer.key_at
    keyed = []
    for record in heap.disk.records(heap.name) if records is None else records:
        key = key_at(record, column, numeric_only=True)
        if key is None:
            raise UnsupportedIndexError(
                f"cannot index {heap.name}.{attribute}: a value has no "
                "single-interval support"
            )
        keyed.append((key, record))
    keyed.sort(key=itemgetter(0))
    heap.disk.delete(name)
    copy = HeapFile(name, heap.schema, heap.disk, heap.serializer.fixed_size)
    rows: List[int] = []
    copy.load_records(map(itemgetter(1), keyed), page_rows=rows)
    copy.order, copy.source, copy.fences = attribute, heap.name, []
    start = 0
    for n in rows:
        keys = [key for key, _ in keyed[start:start + n]]
        copy.fences.append((keys[0][0], max(e for _, e in keys), n))
        start += n
    return copy


def fenced_pages(copy: HeapFile, op: Op, begin: float, end: float) -> List[int]:
    """The pages of ``copy`` an ``attr op probe`` scan must read, where
    ``[begin, end]`` is the probe's support.

    A page is skipped only when every row on it has degree 0: for ``=``
    its supports all miss the probe's, for ``<`` / ``<=`` they all begin
    past it, for ``>`` / ``>=`` they all end before it.  Pages are sorted
    on support begin, so the first page opening past ``end`` ends the
    range for ``=``, ``<`` and ``<=``.
    """
    pages = []
    for i, (first_b, max_e, _rows) in enumerate(copy.fences):
        if op not in (Op.GT, Op.GE) and first_b > end:
            break
        if op not in (Op.LT, Op.LE) and max_e < begin:
            continue
        pages.append(i)
    return pages
