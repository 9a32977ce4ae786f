"""Operation statistics: the events the paper's experiments measure.

The experiments of Section 9 report response time, its CPU/IO split, and
the fraction spent sorting (Table 3).  We therefore count the underlying
events — page reads/writes, crisp comparisons, fuzzy predicate evaluations,
tuple moves — per *phase* (sort / merge / join / scan), and let
:class:`repro.storage.costs.CostModel` turn them into time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass
class Counters:
    """Raw event counts for one phase of an operation."""

    page_reads: int = 0
    page_writes: int = 0
    crisp_comparisons: int = 0
    fuzzy_evaluations: int = 0
    tuple_moves: int = 0
    io_retries: int = 0
    #: Clustered-copy pages read by an index range scan.  Every one
    #: *also* charges :attr:`page_reads` (the device did the same work),
    #: so the cost model is unchanged; this counter only splits out how
    #: much of the I/O was index traffic.
    index_pages_read: int = 0
    #: Pairs a band scan skipped as decided: no work, so the cost model
    #: ignores it; it only says how much the decided folds saved.
    decided_pairs: int = 0

    def merge(self, other: "Counters") -> None:
        """Add another counter set into this one."""
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.crisp_comparisons += other.crisp_comparisons
        self.fuzzy_evaluations += other.fuzzy_evaluations
        self.tuple_moves += other.tuple_moves
        self.io_retries += other.io_retries
        self.index_pages_read += other.index_pages_read
        self.decided_pairs += other.decided_pairs

    @property
    def page_ios(self) -> int:
        """Total page reads plus writes."""
        return self.page_reads + self.page_writes

    def copy(self) -> "Counters":
        """An independent copy of the counters."""
        return Counters(
            self.page_reads,
            self.page_writes,
            self.crisp_comparisons,
            self.fuzzy_evaluations,
            self.tuple_moves,
            self.io_retries,
            self.index_pages_read,
            self.decided_pairs,
        )


class OperationStats:
    """Phase-structured counters for a whole query evaluation.

    ``stats.phase("sort")`` returns the :class:`Counters` for that phase,
    creating it on first use; :attr:`total` aggregates across phases.
    Operators record into whichever phase is *current* (set via
    :meth:`enter_phase`, typically through the context-manager form).
    """

    DEFAULT_PHASE = "work"

    def __init__(self):
        self.phases: Dict[str, Counters] = {}
        self._current = self.DEFAULT_PHASE
        #: The active phase's counters, looked up again after each phase
        #: change; ``None`` until the phase first records something, so
        #: entering a phase does not create it.
        self._active: Optional[Counters] = None

    # ------------------------------------------------------------------
    # Phase management
    # ------------------------------------------------------------------
    def phase(self, name: str) -> Counters:
        """The counter set for phase ``name``, created on first use."""
        if name not in self.phases:
            self.phases[name] = Counters()
        return self.phases[name]

    @property
    def current(self) -> Counters:
        """The counter set of the active phase."""
        return self._active or self._activate()

    def _activate(self) -> Counters:
        self._active = self.phase(self._current)
        return self._active

    def _switch(self, name: str) -> None:
        self._current = name
        self._active = self.phases.get(name)

    @property
    def current_phase(self) -> str:
        """The name of the phase counts are currently routed to."""
        return self._current

    def enter_phase(self, name: str) -> "_PhaseContext":
        """Route subsequent counts to ``name`` (context manager)."""
        return _PhaseContext(self, name)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count_read(self, pages: int = 1) -> None:
        """Charge page read(s) to the active phase."""
        (self._active or self._activate()).page_reads += pages

    def count_write(self, pages: int = 1) -> None:
        """Charge page write(s) to the active phase."""
        (self._active or self._activate()).page_writes += pages

    def count_crisp(self, n: int = 1) -> None:
        """Charge crisp comparison(s) to the active phase."""
        (self._active or self._activate()).crisp_comparisons += n

    def count_fuzzy(self, n: int = 1) -> None:
        """Charge fuzzy evaluation(s) to the active phase."""
        (self._active or self._activate()).fuzzy_evaluations += n

    def count_move(self, n: int = 1) -> None:
        """Charge tuple move(s) to the active phase."""
        (self._active or self._activate()).tuple_moves += n

    def count_retry(self, n: int = 1) -> None:
        """Charge retried page transfer(s) to the active phase."""
        (self._active or self._activate()).io_retries += n

    def count_index_read(self, pages: int = 1) -> None:
        """Note index page read(s) — an overlay on :meth:`count_read`.

        Callers charge the plain read separately (the device transfers the
        same bytes either way); this counter only classifies the traffic.
        """
        (self._active or self._activate()).index_pages_read += pages

    def count_decided(self, pairs: int = 1) -> None:
        """Note pair(s) a fold skipped as decided — charged to nothing else."""
        (self._active or self._activate()).decided_pairs += pairs

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def total(self) -> Counters:
        """All phases merged into one counter set."""
        agg = Counters()
        for counters in self.phases.values():
            agg.merge(counters)
        return agg

    def merge(self, other: "OperationStats") -> None:
        """Fold another stats object into this one, phase by phase."""
        for name, counters in other.phases.items():
            self.phase(name).merge(counters)

    def items(self) -> Iterator:
        """``(phase name, counters)`` pairs in creation order."""
        return iter(self.phases.items())

    def __repr__(self) -> str:
        t = self.total
        return (
            f"OperationStats(reads={t.page_reads}, writes={t.page_writes}, "
            f"crisp={t.crisp_comparisons}, fuzzy={t.fuzzy_evaluations})"
        )


class _PhaseContext:
    def __init__(self, stats: OperationStats, name: str):
        self._stats = stats
        self._name = name
        self._previous: Optional[str] = None

    def __enter__(self) -> OperationStats:
        self._previous = self._stats._current
        self._stats._switch(self._name)
        return self._stats

    def __exit__(self, *exc) -> None:
        self._stats._switch(self._previous)
