"""Sampling-based statistics for fuzzy join planning.

The paper leaves sampling as future work ("More research is needed to
decide the optimal join method (and the way to conduct sampling in fuzzy
databases)").  This module implements the obvious instantiation: sample
tuples from both relations, count support-interval overlaps, and scale up
to estimate the average join fan-out C — the quantity both the cost model
and the Section 8 join-order DP depend on.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..fuzzy.interval_order import overlaps
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats


@dataclass(frozen=True)
class FanoutEstimate:
    """Result of a sampled fan-out estimation."""

    fanout: float          # expected joining S-tuples per R-tuple
    outer_sampled: int
    inner_sampled: int
    pairs_checked: int

    def edge_fanout(self, minimum: float = 1.0) -> float:
        """A conservative value for :class:`repro.engine.optimizer.JoinEdge`."""
        return max(minimum, self.fanout)


class StatisticsVersions:
    """Monotonic per-relation version tokens for plan-cache invalidation.

    A compiled plan is only as good as the statistics it was chosen under:
    the Section 8 join-order DP and the grouped/pipelined strategy picks
    depend on relation cardinalities and sampled fan-outs.  This class
    assigns each relation an integer version that moves whenever either
    input changes, so a :class:`~repro.service.plancache.PlanCache` entry
    can record the versions it was built against and detect staleness with
    one dict comparison.

    Version bumps come from three sources:

    * :meth:`bump` — the relation was (re)registered, re-indexed or
      otherwise changed under every plan;
    * :meth:`observe_cardinality` — a write moved the relation's tuple
      count by more than a quarter of the count at its last bump (the
      one plan-cache rule, see ``docs/query_service.md``);
    * :meth:`record_fanout` — a sampled join fan-out for one of the
      relation's attributes drifted by more than ``tolerance`` (relative),
      meaning join-order and window-size decisions made under the old
      estimate may no longer hold.

    All methods are thread-safe; concurrent sessions share one instance.
    """

    #: A write keeps cached plans while the row count stays within this
    #: fraction of the count at the relation's last version bump.
    GROWTH_TOLERANCE = 0.25

    def __init__(self, fanout_tolerance: float = 0.25):
        self.fanout_tolerance = fanout_tolerance
        self._versions: Dict[str, int] = {}
        self._cardinalities: Dict[str, int] = {}
        self._fanouts: Dict[Tuple[str, str], float] = {}
        self._lock = threading.Lock()

    def bump(self, name: str, n_tuples: Optional[int] = None) -> int:
        """Unconditionally advance ``name``'s version; returns the new one.

        ``n_tuples``, when given, becomes the count the cache rule of
        :meth:`observe_cardinality` measures growth against.
        """
        name = name.upper()
        with self._lock:
            if n_tuples is not None:
                self._cardinalities[name] = n_tuples
            self._versions[name] = self._versions.get(name, 0) + 1
            return self._versions[name]

    def version(self, name: str) -> int:
        """The current version of ``name`` (0 when never observed)."""
        return self._versions.get(name.upper(), 0)

    def snapshot(self, names: Iterable[str]) -> Dict[str, int]:
        """``{name: version}`` for ``names`` — a plan-cache validity token."""
        return {n.upper(): self.version(n) for n in names}

    def observe_cardinality(self, name: str, n_tuples: int) -> bool:
        """The one plan-cache rule for a write: bump and return True when
        ``n_tuples`` moved past :attr:`GROWTH_TOLERANCE` of the count at
        the last bump (any row into an empty table does).

        Smaller moves keep the version, so cached plans stay hits; that
        is safe because every plan leaf binds the live heap version at
        execution (:func:`~repro.engine.operators.live_heap`).
        """
        name = name.upper()
        with self._lock:
            base = self._cardinalities.get(name, 0)
            if abs(n_tuples - base) <= self.GROWTH_TOLERANCE * base:
                return False
            self._cardinalities[name] = n_tuples
            self._versions[name] = self._versions.get(name, 0) + 1
            return True

    def record_fanout(self, name: str, attribute: str, fanout: float) -> bool:
        """Record a sampled fan-out; bump and return True on real drift.

        Drift is relative: a change beyond ``fanout_tolerance`` of the
        previously recorded value (or any change from/to zero) counts.
        """
        key = (name.upper(), attribute)
        with self._lock:
            known = self._fanouts.get(key)
            self._fanouts[key] = fanout
            if known is None:
                return False  # first observation defines the baseline
            reference = max(abs(known), 1e-9)
            if abs(fanout - known) / reference <= self.fanout_tolerance:
                return False
            self._versions[key[0]] = self._versions.get(key[0], 0) + 1
            return True


def sample_tuples(heap: HeapFile, k: int, rng: random.Random, stats: Optional[OperationStats] = None):
    """Page-level sampling: draw ``k`` tuples by sampling pages uniformly.

    Charges one page read per distinct sampled page (cheaper and more
    realistic than row-level sampling on a paged store).
    """
    if heap.n_pages == 0 or k <= 0:
        return []
    out = []
    pages = list(range(heap.n_pages))
    rng.shuffle(pages)
    scratch = OperationStats()
    with heap.disk.use_stats(stats if stats is not None else scratch):
        for page_index in pages:
            page = heap.disk.read_page(heap.name, page_index)
            for record in page.records():
                out.append(heap.serializer.decode(record))
            if len(out) >= k:
                break
    rng.shuffle(out)
    return out[:k]


def estimate_fanout(
    outer: HeapFile,
    inner: HeapFile,
    attribute: str = "X",
    sample_size: int = 64,
    seed: int = 0,
    stats: Optional[OperationStats] = None,
    inner_attribute: Optional[str] = None,
) -> FanoutEstimate:
    """Estimate the average number of inner tuples joining each outer tuple.

    Overlap of support intervals is the (necessary) join criterion the
    merge-join itself uses, and checking it costs a crisp comparison, not
    a fuzzy evaluation.  ``inner_attribute`` names the inner side's join
    column when it differs from the outer's (the usual case for the
    unnested queries, which join ``R.U`` against ``S.V``).
    """
    rng = random.Random(seed)
    outer_index = outer.schema.index_of(attribute)
    inner_index = inner.schema.index_of(
        attribute if inner_attribute is None else inner_attribute
    )
    outer_sample = sample_tuples(outer, sample_size, rng, stats)
    inner_sample = sample_tuples(inner, sample_size, rng, stats)
    if not outer_sample or not inner_sample:
        return FanoutEstimate(0.0, len(outer_sample), len(inner_sample), 0)
    hits = 0
    checked = 0
    for r in outer_sample:
        for s in inner_sample:
            checked += 1
            if stats is not None:
                stats.count_crisp()
            if overlaps(r[outer_index], s[inner_index]):
                hits += 1
    per_pair = hits / checked
    fanout = per_pair * inner.n_tuples
    return FanoutEstimate(fanout, len(outer_sample), len(inner_sample), checked)
