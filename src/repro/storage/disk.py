"""A simulated disk: named files of pages, with I/O counted per access.

The experiments only care about *how many* page transfers each algorithm
performs under a given buffer budget, so the "disk" is an in-memory store
that charges one read or write per page access into the active
:class:`~repro.storage.stats.OperationStats` phase.

Resilience hooks
----------------
Raw page transfers go through the :meth:`_fetch` / :meth:`_store` hooks,
which :class:`repro.faults.FaultyDisk` overrides to inject faults.  Around
them, :meth:`read_page` runs a bounded exponential-backoff
:class:`~repro.resilience.RetryPolicy` that absorbs short
:class:`~repro.errors.TransientIOError` bursts (counting each re-issued
transfer via ``stats.count_retry``), and both directions consult the
thread's active :class:`~repro.resilience.QueryGuard` — installed with
:meth:`use_guard` — so a cancelled or timed-out query stops within one
page access.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..errors import TransientIOError
from ..resilience import QueryGuard, RetryPolicy
from .page import DEFAULT_PAGE_SIZE, Page
from .stats import OperationStats


class SimulatedDisk:
    """Page-addressed storage with per-access accounting.

    All page accesses charge into :attr:`stats`; an operator measuring its
    own cost temporarily redirects accounting with :meth:`use_stats`::

        with disk.use_stats(my_stats):
            ...  # page reads/writes now count into my_stats

    Accounting, observation and guards are **thread-local**: each worker
    thread charges into its own active stats object and sees only its own
    observers and query guard, so concurrent queries on one disk never
    cross-charge I/O or cancel each other (the ``run_batch`` differential
    test relies on this).  The page store itself is shared; reads are
    wait-free and the dict/list operations it uses are atomic under
    CPython.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, stats: Optional[OperationStats] = None):
        self.page_size = page_size
        self._default_stats = stats if stats is not None else OperationStats()
        self._files: Dict[str, List[bytes]] = {}
        self._local = threading.local()
        #: Retry policy applied to transient read faults; swap in a
        #: different :class:`~repro.resilience.RetryPolicy` to change the
        #: attempt budget or backoff shape.
        self.retry_policy = RetryPolicy()

    @property
    def stats(self) -> OperationStats:
        """The stats object page I/O currently charges into (per thread).

        Threads that never redirected accounting share the disk-lifetime
        default ledger, preserving the single-threaded behaviour.
        """
        return getattr(self._local, "stats", None) or self._default_stats

    @stats.setter
    def stats(self, stats: OperationStats) -> None:
        self._local.stats = stats

    @property
    def _observers(self) -> List:
        observers = getattr(self._local, "observers", None)
        if observers is None:
            observers = []
            self._local.observers = observers
        return observers

    @contextmanager
    def use_stats(self, stats: OperationStats):
        """Temporarily redirect this thread's I/O accounting to ``stats``."""
        previous = getattr(self._local, "stats", None)
        self._local.stats = stats
        try:
            yield stats
        finally:
            self._local.stats = previous

    # ------------------------------------------------------------------
    # Query guards (deadline / cancellation, checked per page access)
    # ------------------------------------------------------------------
    @property
    def guard(self) -> Optional[QueryGuard]:
        """This thread's active query guard, if any."""
        return getattr(self._local, "guard", None)

    @contextmanager
    def use_guard(self, guard: Optional[QueryGuard]):
        """Install ``guard`` as this thread's query guard for the block.

        Every charged page transfer inside the block calls
        ``guard.check()``, raising the typed timeout/cancellation error at
        the next I/O boundary after the limit trips.
        """
        previous = getattr(self._local, "guard", None)
        self._local.guard = guard
        try:
            yield guard
        finally:
            self._local.guard = previous

    def check_guard(self) -> None:
        """Raise this thread's guard error, if one is active and tripped."""
        guard = getattr(self._local, "guard", None)
        if guard is not None:
            guard.check()

    # ------------------------------------------------------------------
    # Observation (page-access tracing; free when no observer is attached)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register ``observer(kind, file, index)`` for every page transfer.

        Used by :meth:`repro.observe.metrics.QueryMetrics.watch_disk`; the
        hot path pays only a falsy check while no observer is attached.
        Observers are per-thread: a collector watching the disk from one
        worker never sees another worker's page traffic.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach a previously added page-access observer (this thread only)."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # File management (not charged as I/O)
    # ------------------------------------------------------------------
    def create(self, name: str) -> None:
        """Create an empty file; raises ``FileExistsError`` on collision."""
        if name in self._files:
            raise FileExistsError(f"disk file {name!r} already exists")
        self._files[name] = []

    def exists(self, name: str) -> bool:
        """Whether a file of that name exists."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Remove a file if present; not charged as I/O."""
        self._files.pop(name, None)

    def n_pages(self, name: str) -> int:
        """Number of pages currently in the file."""
        return len(self._files[name])

    def total_pages(self) -> int:
        """Pages currently stored across every file (capacity accounting)."""
        return sum(len(pages) for pages in self._files.values())

    def files(self) -> List[str]:
        """Names of every file on the disk."""
        return sorted(self._files)

    # ------------------------------------------------------------------
    # Raw transfer hooks (fault injection overrides these)
    # ------------------------------------------------------------------
    def _fetch(self, name: str, index: int) -> bytes:
        """Return the raw bytes of one page (fault-injection hook)."""
        return self._files[name][index]

    def _store(self, name: str, index: int, data: bytes) -> None:
        """Persist the raw bytes of one page (fault-injection hook)."""
        pages = self._files[name]
        if index == len(pages):
            pages.append(data)
        else:
            pages[index] = data

    def _sync(self, name: str) -> None:
        """Durability barrier for one file (fault-injection hook).

        The in-memory disk is always "durable", so the base implementation
        is a no-op; :class:`repro.faults.FaultyDisk` overrides it to track
        which bytes would survive a crash (and to drop fsyncs on a
        schedule).
        """

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self, name: str) -> None:
        """Flush ``name`` through the durability barrier.

        Not charged as page I/O — the transfers being made durable were
        already charged when written.  The write-ahead log calls this
        after every group commit.
        """
        self._sync(name)

    # ------------------------------------------------------------------
    # Charged page I/O
    # ------------------------------------------------------------------
    def read_page(self, name: str, index: int) -> Page:
        """The page at ``(name, index)``, charging one page read.

        Transient fetch faults are retried under :attr:`retry_policy`;
        each re-issued transfer is charged as an ``io_retries`` event.
        The thread's query guard is checked before and after the
        transfer, so a latency spike cannot outlive a deadline by more
        than its own duration.
        """
        guard = getattr(self._local, "guard", None)
        if guard is not None:
            guard.check()
        stats = self.stats
        data = self.retry_policy.run(
            lambda: self._fetch(name, index),
            on_retry=lambda attempt, exc: stats.count_retry(),
            guard=guard,
        )
        stats.count_read()
        if self._observers:
            for observer in self._observers:
                observer("read", name, index)
        if guard is not None:
            guard.check()
        return Page.from_bytes(data, self.page_size)

    def records(self, name: str) -> Iterator[bytes]:
        """A file's records in page order, charging one read per page."""
        for index in range(self.n_pages(name)):
            yield from self.read_page(name, index).records()

    def write_page(self, name: str, index: int, page: Page) -> None:
        """Overwrite the page at ``(name, index)``, charging one page write."""
        guard = getattr(self._local, "guard", None)
        if guard is not None:
            guard.check()
        data = page.to_bytes()
        self._store(name, index, data)
        self.stats.count_write()
        if self._observers:
            for observer in self._observers:
                observer("write", name, index)

    def append_page(self, name: str, page: Page) -> int:
        """Write a new page at the end of the file; returns its index."""
        index = len(self._files[name])
        self.write_page(name, index, page)
        return index

    # ------------------------------------------------------------------
    # Charged blob I/O (variable-length entries, used by the WAL)
    # ------------------------------------------------------------------
    def _blob_transfers(self, data: bytes) -> int:
        """Page transfers charged for a blob of ``len(data)`` bytes."""
        return max(1, -(-len(data) // self.page_size))

    def append_blob(self, name: str, data: bytes) -> int:
        """Append a raw variable-length entry to ``name``; returns its index.

        Blobs share the file store with pages but are *not* page images —
        readers must use :meth:`read_blob`, not :meth:`read_page`.  The
        transfer is charged as one page write per started ``page_size``
        chunk and routes through :meth:`_store`, so fault injection (torn
        writes, scripted crash points, capacity limits) applies to the
        write-ahead log exactly as to data pages.
        """
        guard = getattr(self._local, "guard", None)
        if guard is not None:
            guard.check()
        index = len(self._files[name])
        self._store(name, index, data)
        stats = self.stats
        for _ in range(self._blob_transfers(data)):
            stats.count_write()
        if self._observers:
            for observer in self._observers:
                observer("write", name, index)
        return index

    def read_blob(self, name: str, index: int) -> bytes:
        """The raw bytes of blob ``index`` in ``name``, charged as page I/O.

        Shares the retry/guard machinery of :meth:`read_page` but skips the
        page-image parse: the caller (the WAL scanner) does its own CRC
        framing over the bytes.
        """
        guard = getattr(self._local, "guard", None)
        if guard is not None:
            guard.check()
        stats = self.stats
        data = self.retry_policy.run(
            lambda: self._fetch(name, index),
            on_retry=lambda attempt, exc: stats.count_retry(),
            guard=guard,
        )
        for _ in range(self._blob_transfers(data)):
            stats.count_read()
        if self._observers:
            for observer in self._observers:
                observer("read", name, index)
        return data
