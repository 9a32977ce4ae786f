"""Per-relation statistics versions: the plan cache's one validity rule."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional


class StatisticsVersions:
    """Monotonic per-relation version tokens for plan-cache invalidation.

    Each relation has an integer version, so a
    :class:`~repro.service.plancache.PlanCache` entry can record the
    versions it was built against and detect staleness with one dict
    comparison.  Versions move only on the write and DDL paths:

    * :meth:`bump` — the relation was (re)registered, re-indexed or
      otherwise changed under every plan;
    * :meth:`observe_cardinality` — a write moved the relation's tuple
      count by more than a quarter of the count at its last bump.

    That is the one plan-cache rule (``docs/query_service.md``).
    Reading a relation, EXPLAIN ANALYZE included, never moves a version.
    All methods are thread-safe; concurrent sessions share one instance.
    """

    #: A write keeps cached plans while the row count stays within this
    #: fraction of the count at the relation's last version bump.
    GROWTH_TOLERANCE = 0.25

    def __init__(self):
        self._versions: Dict[str, int] = {}
        self._cardinalities: Dict[str, int] = {}
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
