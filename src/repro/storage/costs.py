"""The cost model translating event counts into response time.

The paper reports wall-clock seconds on a 1992 SPARC/IPC; we reproduce the
*shape* of those results by charging calibrated unit costs to the counted
events.  The defaults are back-fitted to the paper's own numbers:

* Table 1 / Table 4: the nested loop performs ``n_R x n_S`` fuzzy predicate
  evaluations and the paper measures 483 s of comparison CPU at
  8,000 x 8,000 (Table 4 text) and 30,879 s total at 64,000 x 64,000
  (Table 1) — both give ~7.5 us per fuzzy evaluation;
* Table 4 text puts the merge-join's comparison CPU at 15 s for 8,000
  tuples; spread over the ~0.8 M interval-endpoint comparisons of two
  external sorts that is ~18 us per crisp comparison (an Opt-Tech library
  call, not a bare CPU instruction);
* per-tuple record handling through the 1992 library (decode/copy during
  sort runs and merges) is charged at 100 us per move;
* one 8 KB page I/O costs 25 ms: nested loop at 8 MB adds 6,144 page
  transfers = 154 s, landing its total at ~30,900 s against 30,879 s.

The same constants are then applied, unchanged, to every experiment.  One
known divergence is documented in EXPERIMENTS.md: the paper's Table 3 CPU
share also absorbs OS memory-management effects ("the jump ... is caused
by the memory management of the operating system"), which an event-count
model deliberately does not simulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import Counters, OperationStats


@dataclass(frozen=True)
class CostModel:
    """Unit costs (seconds per event)."""

    io_time: float = 0.025            # one 8 KB page read or write
    fuzzy_eval_time: float = 7.5e-6   # one d(X theta Y) evaluation
    crisp_compare_time: float = 1.8e-5  # one interval-order comparison
    tuple_move_time: float = 1.0e-4   # one tuple copy through the library

    # ------------------------------------------------------------------
    # Time assembly
    # ------------------------------------------------------------------
    def io_seconds(self, counters: Counters) -> float:
        """Seconds of I/O implied by the page counters.

        Retried page transfers (transient-fault attempts that were
        re-issued) are charged at the full page-I/O rate: the device did
        the work even though the first attempt failed, so the retry path's
        overhead shows up in modelled response time.
        """
        return (counters.page_ios + counters.io_retries) * self.io_time

    def cpu_seconds(self, counters: Counters) -> float:
        """Seconds of CPU implied by the comparison and move counters."""
        return (
            counters.fuzzy_evaluations * self.fuzzy_eval_time
            + counters.crisp_comparisons * self.crisp_compare_time
            + counters.tuple_moves * self.tuple_move_time
        )

    def response_seconds(self, counters: Counters) -> float:
        """I/O plus CPU seconds for one counter set."""
        return self.io_seconds(counters) + self.cpu_seconds(counters)

    # ------------------------------------------------------------------
    # Report helpers (the quantities the paper's tables show)
    # ------------------------------------------------------------------
    def response_time(self, stats: OperationStats) -> float:
        """Modelled response time over all phases of ``stats``."""
        return self.response_seconds(stats.total)

    def cpu_fraction(self, stats: OperationStats) -> float:
        """Table 3 row 1: CPU time as a fraction of response time."""
        total = self.response_seconds(stats.total)
        if total == 0.0:
            return 0.0
        return self.cpu_seconds(stats.total) / total

    def phase_fraction(self, stats: OperationStats, phase: str) -> float:
        """Table 3 row 2: one phase's share (CPU + I/O) of response time."""
        total = self.response_seconds(stats.total)
        if total == 0.0:
            return 0.0
        if phase not in stats.phases:
            return 0.0
        return self.response_seconds(stats.phases[phase]) / total

    # ------------------------------------------------------------------
    # Access-path estimates (planner inputs, same unit costs)
    # ------------------------------------------------------------------
    def seq_scan_seconds(self, n_pages: int, n_tuples: int) -> float:
        """Estimated cost of scanning ``n_pages`` holding ``n_tuples`` with one
        pushed-down fuzzy filter — a full scan, or an index's fenced page range."""
        return n_pages * self.io_time + n_tuples * self.fuzzy_eval_time

    # ------------------------------------------------------------------
    # Intra-query parallelism
    # ------------------------------------------------------------------
    def parallel_response_time(self, stats, partition_stats) -> float:
        """Modelled response time of a partitioned execution — sampled
        partitions or shard tasks alike.

        ``stats`` is the coordinator's merged ledger (its own partitioning
        overhead *plus* every worker's counters, folded in after the
        gather); ``partition_stats`` are the workers' individual ledgers
        (the ``stats`` of each :class:`~repro.observe.metrics.PartitionMetrics`).
        Workers run concurrently, so their modelled time enters as the
        *maximum* over partitions rather than the sum:

            T_parallel = T(total) - sum_i T(worker_i) + max_i T(worker_i)

        i.e. the serial coordinator work (partitioning overhead, sampling,
        scans, splices) plus the slowest partition.  With an empty
        ``partition_stats`` this degrades to plain :meth:`response_time`.
        """
        total = self.response_time(stats)
        if not partition_stats:
            return total
        worker_times = [self.response_time(ws) for ws in partition_stats]
        return total - sum(worker_times) + max(worker_times)


#: The calibrated model used by all paper-reproduction benchmarks.
PAPER_1992 = CostModel()

#: A present-day reference point (NVMe-class I/O, lean comparisons) used by
#: the equality-indicator ablation: unlike the 1992 library — whose record
#: comparisons were as expensive as fuzzy evaluations — a modern system
#: gains from replacing a fuzzy evaluation with a crisp interval test.
MODERN = CostModel(
    io_time=1.0e-4,
    fuzzy_eval_time=2.0e-6,
    crisp_compare_time=5.0e-8,
    tuple_move_time=2.0e-7,
)
