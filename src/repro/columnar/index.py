"""A persistent secondary index on the support-interval order ``(b(v), e(v))``.

The paper's Definition 3.1 orders fuzzy values lexicographically by
support begin and end — the same key every external sort in the engine
uses (``sort_key(value) = value.interval()``).  This module persists that
order once per ``(table, attribute)`` as a file of
:class:`~repro.columnar.pages.ColumnarPage` images, so a selective probe
no longer needs to sort anything: the entries overlapping the probe's
support form a contiguous range of the index, found by fence keys without
touching the rest.

Each entry carries the full trapezoid ``(a, b, e, d)``, the tuple's
membership degree, and the row id ``(heap page, slot)``; an index range
scan can therefore compute the comparison degree *before* fetching a
single data page, and fetch only the pages of qualifying rows.

The index lives on the same :class:`~repro.storage.SimulatedDisk` as the
relation (file ``__idx_{table}_{attribute}``) so its page reads are
charged like any other I/O; :meth:`SupportIntervalIndex.fetch`
additionally tags the read via ``stats.count_index_read`` so EXPLAIN
ANALYZE can split index traffic from data traffic.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple

from ..errors import FuzzyQueryError
from ..fuzzy.crisp import CrispNumber
from ..fuzzy.trapezoid import TrapezoidalNumber
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.page import Page
from .pages import ColumnarPage, KIND_POINT, KIND_TRAPEZOID


class UnsupportedIndexError(FuzzyQueryError):
    """The attribute holds values the interval order cannot index.

    Only numeric crisp and trapezoidal values have the single-interval
    support the ``(b(v), e(v))`` key requires; labels and discrete
    distributions do not.
    """


def index_file_name(table: str, attribute: str) -> str:
    """The disk file holding the index of ``table.attribute``."""
    return f"__idx_{table}_{attribute}"


class IndexEntry(NamedTuple):
    """One index posting, gathered back into row form for the join stream."""

    a: float        # support begin  b(v)
    b: float        # core begin
    e: float        # core end
    d: float        # support end    e(v)
    degree: float   # tuple membership degree mu_R(r)
    page: int       # heap page of the indexed tuple
    slot: int       # record slot within that page
    kind: int       # KIND_POINT or KIND_TRAPEZOID
    idx_page: int   # index page this posting came from


def probe_support(value) -> Tuple[float, float]:
    """The closed support interval ``[b(v), e(v)]`` of a probe value."""
    begin, end = value.interval()
    return begin, end


def _entry_of(value, degree: float, page: int, slot: int):
    """The ``(a, b, e, d, degree, page, slot, kind)`` posting for one value."""
    if isinstance(value, CrispNumber):
        v = value.value
        return (v, v, v, v, degree, page, slot, KIND_POINT)
    if isinstance(value, TrapezoidalNumber):
        kind = KIND_POINT if value.a == value.d else KIND_TRAPEZOID
        return (value.a, value.b, value.c, value.d, degree, page, slot, kind)
    raise UnsupportedIndexError(
        f"cannot index {type(value).__name__} values on the support-interval order"
    )


class SupportIntervalIndex:
    """Columnar postings of one attribute, sorted by ``(b(v), e(v))``.

    Built with :meth:`build` from a heap file, persisted on the disk as
    one :class:`ColumnarPage` per disk page, with an in-memory fence-key
    directory (``first_a``, ``last_a``, ``max_d`` per page) that
    :meth:`overlapping_pages` prunes range scans with.  The directory is
    the analogue of a B-tree's inner levels; at the simulated scale one
    flat level suffices and keeps the page-count accounting honest (only
    leaf pages are charged, as inner nodes would be pinned in any real
    buffer pool).
    """

    def __init__(self, table: str, attribute: str, column: int, file_name: Optional[str] = None):
        self.table = table
        self.attribute = attribute
        #: Position of the indexed attribute in the relation's schema.
        self.column = column
        #: Versioned indexes (the write path) override the default name
        #: with an epoch-suffixed one so in-flight snapshot reads keep a
        #: consistent index while a new version is staged.
        self.file = file_name or index_file_name(table, attribute)
        #: Fence keys per index page: ``(first_a, last_a, max_d, n_entries)``.
        self.directory: List[Tuple[float, float, float, int]] = []
        self.n_entries = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: str,
        attribute: str,
        heap: HeapFile,
        disk: SimulatedDisk,
        file_name: Optional[str] = None,
    ) -> "SupportIntervalIndex":
        """Scan ``heap`` and persist a fresh index of ``attribute``.

        The build reads every data page once and writes the sorted
        postings; its I/O charges into whatever stats context is active
        (sessions wrap builds in a scratch ledger so queries are not
        billed for index maintenance).  Raises
        :class:`UnsupportedIndexError` — leaving no file behind — when
        any value of the attribute lacks a single-interval support.
        """
        column = heap.schema.index_of(attribute)
        index = cls(table, attribute, column, file_name)
        postings = []
        for page_index in range(heap.n_pages):
            page = disk.read_page(heap.name, page_index)
            for slot, record in enumerate(page.records()):
                t = heap.serializer.decode(record)
                postings.append(_entry_of(t.values[column], t.degree, page_index, slot))
        index._persist(postings, disk)
        return index

    def _persist(self, postings: List[tuple], disk: SimulatedDisk) -> None:
        """Sort ``postings`` into interval order and (re)write the file.

        The sort key ends in ``(page, slot)`` — a unique tie-break — so
        the persisted image is a pure function of the posting *set*: a
        staged delta merge and a from-scratch rebuild produce
        bit-identical files (the recovery-idempotence property test
        leans on this).
        """
        # The interval order: support begin, then support end; page/slot
        # break ties deterministically.
        postings.sort(key=lambda p: (p[0], p[3], p[5], p[6]))

        disk.delete(self.file)
        disk.create(self.file)
        capacity = ColumnarPage.capacity(disk.page_size)
        self.directory = []
        for start in range(0, len(postings), capacity):
            columnar = ColumnarPage()
            for posting in postings[start:start + capacity]:
                columnar.append(*posting)
            carrier = Page(disk.page_size)
            carrier.append(columnar.to_bytes())
            disk.append_page(self.file, carrier)
            self.directory.append(
                (columnar.min_a, columnar.max_a, columnar.max_d, len(columnar))
            )
        self.n_entries = len(postings)

    @classmethod
    def from_rows(
        cls,
        table: str,
        attribute: str,
        schema,
        tuples,
        placements: List[Tuple[int, int]],
        disk: SimulatedDisk,
        file_name: Optional[str] = None,
    ) -> "SupportIntervalIndex":
        """Persist an index from in-memory rows and their known row ids.

        The write path already holds the installed version's tuples in
        memory *and* their ``(page, slot)`` placements (recorded by
        :meth:`~repro.storage.heap.HeapFile.load_records`), so small update /
        delete transactions can patch the index image without re-reading
        a single heap page.  :meth:`_persist` sorts deterministically, so
        the result is bit-identical to a full :meth:`build` over the same
        heap — the patch is pure I/O savings, never a different file.
        """
        column = schema.index_of(attribute)
        index = cls(table, attribute, column, file_name)
        postings = [
            _entry_of(t.values[column], t.degree, page, slot)
            for t, (page, slot) in zip(tuples, placements)
        ]
        index._persist(postings, disk)
        return index

    def merged_with_tail(
        self,
        heap: HeapFile,
        disk: SimulatedDisk,
        first_new_page: int,
        skip_slots: int,
        file_name: str,
    ) -> "SupportIntervalIndex":
        """Staged delta + merge for an append-only heap change.

        When a committed transaction only *appended* tuples, every
        existing posting's ``(page, slot)`` row id is still valid — the
        deterministic greedy repack leaves the shared prefix of pages
        untouched.  The delta is the postings of the appended tail:
        heap pages from ``first_new_page`` on, skipping the first
        ``skip_slots`` records of that page (they predate the append).
        Existing postings are read back from this index (charged as
        index reads), merged with the delta, and persisted under
        ``file_name`` as a new index version — no full heap rescan.
        """
        postings = [
            (e.a, e.b, e.e, e.d, e.degree, e.page, e.slot, e.kind)
            for e in self.scan_entries(disk)
        ]
        for page_index in range(first_new_page, heap.n_pages):
            page = disk.read_page(heap.name, page_index)
            for slot, record in enumerate(page.records()):
                if page_index == first_new_page and slot < skip_slots:
                    continue
                t = heap.serializer.decode(record)
                postings.append(_entry_of(t.values[self.column], t.degree, page_index, slot))
        merged = SupportIntervalIndex(self.table, self.attribute, self.column, file_name)
        merged._persist(postings, disk)
        return merged

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        """Number of index pages on disk."""
        return len(self.directory)

    def overlapping_pages(self, begin: float, end: float) -> List[int]:
        """Index pages that may hold entries with support ∩ ``[begin, end]`` ≠ ∅.

        Pages are sorted by first support begin, so the walk stops at the
        first page opening past ``end``; pages whose largest support end
        falls short of ``begin`` cannot overlap and are skipped.
        """
        hits = []
        for i, (first_a, _last_a, max_d, _n) in enumerate(self.directory):
            if first_a > end:
                break
            if max_d < begin:
                continue
            hits.append(i)
        return hits

    def pages_below(self, end: float) -> List[int]:
        """Index pages that may hold entries with support begin ≤ ``end``.

        The page prune for ``attr < probe`` / ``attr <= probe``: a tuple
        whose support starts above the probe's support end is certainly
        greater, degree 0.  Pages are sorted by first support begin, so
        the qualifying pages are a prefix.
        """
        hits = []
        for i, (first_a, _last_a, _max_d, _n) in enumerate(self.directory):
            if first_a > end:
                break
            hits.append(i)
        return hits

    def pages_above(self, begin: float) -> List[int]:
        """Index pages that may hold entries with support end ≥ ``begin``.

        The page prune for ``attr > probe`` / ``attr >= probe``: a tuple
        whose support ends below the probe's support begin is certainly
        smaller, degree 0.  Support *ends* are not sorted, so there is no
        early stop — only the per-page ``max_d`` fence skips pages.
        """
        return [
            i
            for i, (_first_a, _last_a, max_d, _n) in enumerate(self.directory)
            if max_d >= begin
        ]

    def probe_pages(self, op, begin: float, end: float) -> List[int]:
        """The index pages an ``attr op probe[begin, end]`` scan must visit."""
        from ..fuzzy.compare import Op

        if op in (Op.LT, Op.LE):
            return self.pages_below(end)
        if op in (Op.GT, Op.GE):
            return self.pages_above(begin)
        return self.overlapping_pages(begin, end)

    def candidate_entries(self, begin: float, end: float) -> int:
        """Postings on the pages a range scan for ``[begin, end]`` would touch.

        The planner's cardinality input: an upper bound on how many entries
        the vectorized kernel will actually examine.
        """
        return sum(self.directory[i][3] for i in self.overlapping_pages(begin, end))

    def candidate_entries_for(self, op, begin: float, end: float) -> int:
        """Postings on the pages an ``op`` probe scan would touch."""
        return sum(self.directory[i][3] for i in self.probe_pages(op, begin, end))

    def fetch(self, disk: SimulatedDisk, page_index: int) -> ColumnarPage:
        """Read one index page, charging a (tagged) page read."""
        page = disk.read_page(self.file, page_index)
        disk.stats.count_index_read()
        return ColumnarPage.from_bytes(next(page.records()))

    def scan_entries(self, disk: SimulatedDisk) -> Iterator[IndexEntry]:
        """Every posting in interval order, reading index pages lazily."""
        for page_index in range(self.n_pages):
            columnar = self.fetch(disk, page_index)
            for i in range(len(columnar)):
                yield IndexEntry(*columnar.entry(i), page_index)

    def __repr__(self) -> str:
        return (
            f"SupportIntervalIndex({self.table}.{self.attribute}, "
            f"{self.n_entries} entries, {self.n_pages} pages)"
        )
