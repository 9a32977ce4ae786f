"""External merge sort on the interval order of Definition 3.1.

Stands in for the Opt-Tech external sort the paper used: run generation
fills the available buffer, runs merge ``K`` ways per pass, and every page
transfer is charged to the "sort" phase so Table 3's sorting-share rows can
be reproduced.  Comparisons follow the paper's two-step rule — left
endpoints first, right endpoints on ties — and each endpoint comparison is
charged as one crisp comparison.

Records move as bytes: each one is keyed by
:meth:`~repro.storage.serializer.TupleSerializer.key_at` and copied from
page to run to output page without ever being decoded into a tuple.
"""

from __future__ import annotations

import heapq
import threading
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional

from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .runs import RunWriter, drop_runs, fresh_run_name

SORT_PHASE = "sort"


class _CountingKey:
    """Sort key that charges interval comparisons to the stats object.

    Comparing two keys costs one crisp comparison for the left endpoints
    and, only on a tie, a second one for the right endpoints — exactly the
    "two comparisons may be needed" accounting in Section 3.
    """

    __slots__ = ("b", "e", "stats")

    def __init__(self, key, stats: OperationStats):
        self.b, self.e = key
        self.stats = stats

    def __lt__(self, other: "_CountingKey") -> bool:
        self.stats.count_crisp()
        if self.b != other.b:
            return self.b < other.b
        self.stats.count_crisp()
        return self.e < other.e

    def __eq__(self, other) -> bool:
        self.stats.count_crisp(2)
        return (self.b, self.e) == (other.b, other.e)


class ExternalSorter:
    """Sorts a heap file by the interval order of one attribute.

    When a :class:`~repro.observe.metrics.QueryMetrics` collector is
    attached, every sort reports its shape (initial run count, merge
    passes) — the raw material for Table 3's sorting-share rows.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pages: int,
        stats: OperationStats,
        metrics=None,
    ):
        if buffer_pages < 3:
            raise ValueError("external sort needs at least 3 buffer pages")
        self.disk = disk
        self.buffer_pages = buffer_pages
        self.stats = stats
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sort(self, source: HeapFile, attribute: str, out_name: Optional[str] = None) -> HeapFile:
        """Produce a new heap file sorted on ``attribute``.

        The default output name is ``{source}__sorted_{attribute}``; worker
        threads get a thread-id suffix so two sessions concurrently sorting
        the same relation never overwrite each other's output file.
        """
        if out_name is None:
            out_name = f"{source.name}__sorted_{attribute}"
            if threading.current_thread() is not threading.main_thread():
                out_name = f"{out_name}__t{threading.get_ident()}"
        key_index = source.schema.index_of(attribute)
        record = None
        if self.metrics is not None:
            from ..observe.metrics import SortMetrics

            record = SortMetrics(
                source=source.name, attribute=attribute, tuples=source.n_tuples
            )
            self.metrics.record_sort(record)
        from ..observe.trace import maybe_span

        # Every scratch run created by this sort is tracked in ``live`` so
        # that a fault mid-sort (torn page, disk full, timeout) never
        # leaks half-written runs onto the shared disk: the except path
        # deletes them all, plus any partial output file, and re-raises.
        live: List[str] = []
        try:
            with maybe_span(self.metrics, f"sort {source.name}", attribute=attribute):
                with self.disk.use_stats(self.stats), self.stats.enter_phase(SORT_PHASE):
                    with maybe_span(self.metrics, "runs"):
                        runs = self._generate_runs(source, key_index, live)
                    if record is not None:
                        record.runs = len(runs)
                    with maybe_span(self.metrics, "merge"):
                        runs = self._merge_until_few(source, runs, key_index, record, live)
                        if record is not None:
                            record.merge_passes += 1  # the final merge that writes the output
                            record.output = out_name
                        return self._final_merge(source, runs, key_index, out_name)
        except BaseException:
            drop_runs(self.disk, live)
            self.disk.delete(out_name)
            raise

    # ------------------------------------------------------------------
    # Pass 1: run generation
    # ------------------------------------------------------------------
    def _generate_runs(self, source: HeapFile, key_index: int, live: List[str]) -> List[str]:
        runs: List[str] = []
        batch: list = []
        batch_pages = 0
        key_at, stats = source.serializer.key_at, self.stats
        for page_index in range(source.n_pages):
            page = self.disk.read_page(source.name, page_index)
            for record in page.records():
                batch.append((_CountingKey(key_at(record, key_index), stats), record))
            batch_pages += 1
            if batch_pages >= self.buffer_pages:
                runs.append(self._write_run(source, batch, live))
                batch, batch_pages = [], 0
        if batch:
            runs.append(self._write_run(source, batch, live))
        return runs

    def _write_run(self, source: HeapFile, batch: list, live: List[str]) -> str:
        # Sort on the key alone: comparing the pairs would charge __eq__.
        batch.sort(key=itemgetter(0))
        name = fresh_run_name(source.name)
        live.append(name)
        self._write(name, self._moved(batch))
        return name

    def _moved(self, batch: list) -> Iterator[bytes]:
        """A sorted batch's records, one charged move each."""
        for _, record in batch:
            self.stats.count_move()
            yield record

    def _write(self, name: str, records: Iterable[bytes]) -> RunWriter:
        """Write ``records`` to the file ``name``; the writer knows the count."""
        writer = RunWriter(self.disk, name)
        ok = False
        try:
            for record in records:
                writer.append(record)
            ok = True
        finally:
            if ok:
                writer.close()
            else:
                # Flushing after a failed append could raise again (e.g. a
                # second DiskFullError) and mask the original fault; drop
                # the buffered page and let the sort-level handler delete
                # the partial file.
                writer.discard()
        return writer

    # ------------------------------------------------------------------
    # Pass 2+: K-way merges
    # ------------------------------------------------------------------
    def _merge_until_few(
        self, source: HeapFile, runs: List[str], key_index: int, record=None,
        live: Optional[List[str]] = None,
    ) -> List[str]:
        fan_in = self.buffer_pages - 1
        if live is None:
            live = []
        while len(runs) > fan_in:
            if record is not None:
                record.merge_passes += 1
            next_runs: List[str] = []
            for i in range(0, len(runs), fan_in):
                group = runs[i:i + fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                name = fresh_run_name(source.name)
                live.append(name)
                self._write(name, self._merged(source, group, key_index))
                drop_runs(self.disk, group)
                next_runs.append(name)
            runs = next_runs
        return runs

    def _final_merge(
        self, source: HeapFile, runs: List[str], key_index: int, out_name: str
    ) -> HeapFile:
        self.disk.delete(out_name)
        writer = self._write(out_name, self._merged(source, runs, key_index))
        # The heap adopts the file just written, as a spilled slice does.
        out = HeapFile(out_name, source.schema, self.disk, source.serializer.fixed_size)
        out.n_tuples = writer.n_tuples
        drop_runs(self.disk, runs)
        return out

    def _merged(self, source: HeapFile, runs: List[str], key_index: int) -> Iterator[bytes]:
        # Heap entries compare as tuples: ``__eq__`` then ``__lt__`` on the
        # keys (docs/cost_model.md records the over-count), then the run
        # index, which is unique, so records are never compared.
        key_at, stats = source.serializer.key_at, self.stats
        readers = [self.disk.records(name) for name in runs]
        heap = []
        for i, reader in enumerate(readers):
            first = next(reader, None)
            if first is not None:
                heap.append((_CountingKey(key_at(first, key_index), stats), i, first))
        heapq.heapify(heap)
        while heap:
            _, i, record = heapq.heappop(heap)
            stats.count_move()
            yield record
            successor = next(readers[i], None)
            if successor is not None:
                heapq.heappush(
                    heap, (_CountingKey(key_at(successor, key_index), stats), i, successor)
                )
