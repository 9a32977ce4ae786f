"""Heap files: relations stored as sequences of slotted pages.

A :class:`HeapFile` is the storage-backed counterpart of
:class:`~repro.data.relation.FuzzyRelation`: the physical operators scan it
page by page through a :class:`~repro.storage.buffer.BufferPool`, which is
what makes the experiments' I/O counts meaningful.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..data.relation import FuzzyRelation
from ..data.schema import Schema
from ..data.tuples import FuzzyTuple
from .buffer import BufferPool
from .disk import SimulatedDisk
from .page import Page, PageFullError
from .serializer import TupleSerializer


class HeapFile:
    """A relation materialized on the simulated disk."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        disk: SimulatedDisk,
        fixed_tuple_size: Optional[int] = None,
    ):
        self.name = name
        self.schema = schema
        self.disk = disk
        self.serializer = TupleSerializer(schema, fixed_tuple_size)
        self.n_tuples = 0
        #: The attribute whose interval order the records are stored in
        #: (``None``: load order); a merge join skips sorting such an input.
        self.order: Optional[str] = None
        #: Per page, ``(first b, max e, rows)`` of :attr:`order` (``None``
        #: when unordered): the fences a range scan prunes pages with.
        self.fences: Optional[List[Tuple[float, float, int]]] = None
        #: The heap whose records this file holds: itself, or the heap a
        #: clustered copy was built from.
        self.source = name
        if not disk.exists(name):
            disk.create(name)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, tuples: Iterable[FuzzyTuple]) -> "HeapFile":
        """Append tuples, packing pages greedily; returns self for chaining."""
        return self.load_records(map(self.serializer.encode, tuples))

    def load_records(
        self, records: Iterable[bytes], page_rows: Optional[List[int]] = None
    ) -> "HeapFile":
        """Append encoded records, packing pages greedily; returns self.

        The one packing loop (:meth:`load` encodes into it).  Pass a list
        as ``page_rows`` to receive the record count of every page written.
        """
        page = Page(self.disk.page_size)
        for record in records:
            if not page.fits(record):
                if len(page) == 0:
                    raise PageFullError(
                        f"a single record of {len(record)} bytes exceeds the page size"
                    )
                self._flush(page, page_rows)
                page = Page(self.disk.page_size)
            page.append(record)
            self.n_tuples += 1
        if len(page):
            self._flush(page, page_rows)
        return self

    def _flush(self, page: Page, page_rows: Optional[List[int]]) -> None:
        self.disk.append_page(self.name, page)
        if page_rows is not None:
            page_rows.append(len(page))

    @classmethod
    def from_relation(
        cls,
        name: str,
        relation: FuzzyRelation,
        disk: SimulatedDisk,
        fixed_tuple_size: Optional[int] = None,
    ) -> "HeapFile":
        """Build a heap file on ``disk`` holding ``relation``'s tuples."""
        return cls(name, relation.schema, disk, fixed_tuple_size).load(relation)

    @classmethod
    def attach(
        cls,
        name: str,
        schema: Schema,
        disk: SimulatedDisk,
        fixed_tuple_size: Optional[int] = None,
    ) -> "HeapFile":
        """Adopt an *existing* file (crash recovery), recounting its tuples.

        The counting scan charges page reads into the active stats
        context; recovery wraps it in a scratch ledger.  Raises
        ``FileNotFoundError`` if the file does not exist — attach never
        silently creates an empty table where data was expected.
        """
        if not disk.exists(name):
            raise FileNotFoundError(f"no heap file {name!r} on the disk")
        heap = cls(name, schema, disk, fixed_tuple_size)
        heap.n_tuples = sum(1 for _ in disk.records(name))
        return heap

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        """Number of disk pages the file occupies."""
        return self.disk.n_pages(self.name)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self, pool: BufferPool) -> Iterator[FuzzyTuple]:
        """Tuple-at-a-time scan through the buffer pool."""
        for _, tuples in self.scan_pages(pool):
            for t in tuples:
                yield t

    def scan_pages(self, pool: BufferPool) -> Iterator[Tuple[int, List[FuzzyTuple]]]:
        """Page-at-a-time scan: yields ``(page_index, tuples)``."""
        for index in range(self.n_pages):
            page = pool.get_page(self.name, index)
            yield index, [self.serializer.decode(r) for r in page.records()]

    def page_tuples(self, pool: BufferPool, index: int, pin: bool = False) -> List[FuzzyTuple]:
        """Decode one page's tuples (optionally pinning the frame)."""
        page = pool.get_page(self.name, index, pin=pin)
        return [self.serializer.decode(r) for r in page.records()]

    def to_relation(self, pool: BufferPool) -> FuzzyRelation:
        """Materialize into an in-memory fuzzy relation (max-merges dups)."""
        return FuzzyRelation(self.schema, self.scan(pool))

    def __repr__(self) -> str:
        return f"HeapFile({self.name!r}, {self.n_tuples} tuples, {self.n_pages} pages)"
