"""An LRU plan cache keyed on normalized SQL text.

Entries are validated against per-relation statistics versions: each
stored plan records the ``{relation: version}`` snapshot it was built
under, and a lookup re-snapshots those relations — one dict comparison
decides freshness.  A stale entry is evicted and reported as an
*invalidation* (which also counts as a miss), so the three counters obey
``lookups == hits + misses`` and ``invalidations <= misses``.

All operations take the cache lock; the cache may be shared by threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..observe.fingerprint import canonicalize_sql

#: Lookup outcomes, as recorded on a query's collector.
HIT, MISS, INVALIDATED = "hit", "miss", "invalidated"

#: The cache key normalizer — the *shared* statement canonicalizer
#: (:func:`repro.observe.fingerprint.canonicalize_sql`), so the plan
#: cache, the flight recorder, and workload fingerprints never disagree
#: about statement identity.  Literals are preserved: the cache must not
#: conflate ``'very  tall'`` with ``'very tall'`` (different terms) nor
#: two statements differing only in a constant a compiled predicate bakes
#: in; only the literal-folding *fingerprint* conflates those.
normalize_sql = canonicalize_sql


@dataclass
class CacheEntry:
    """One cached plan plus the statistics snapshot it was built under."""

    value: object
    tokens: Dict[str, int]


class PlanCache:
    """A thread-safe LRU cache of prepared queries.

    ``lookup`` takes a *token function* rather than a snapshot: only the
    entry knows which relations its plan reads, so the cache asks the
    caller to re-snapshot exactly those keys.  This avoids parsing the
    SQL just to learn what it touches.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("a plan cache needs at least one slot")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.RLock()

    def lookup(
        self,
        key: str,
        current_tokens: Callable[[Iterable[str]], Dict[str, int]],
    ) -> Tuple[Optional[object], str]:
        """Return ``(value, outcome)``; ``value`` is None unless a hit.

        ``outcome`` is one of ``"hit"``, ``"miss"``, ``"invalidated"`` —
        the last meaning an entry existed but its statistics snapshot no
        longer matches, so it was evicted.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, MISS
            if current_tokens(entry.tokens) != entry.tokens:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None, INVALIDATED
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value, HIT

    def store(self, key: str, value: object, tokens: Dict[str, int]) -> None:
        """Insert (or replace) an entry, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = CacheEntry(value, dict(tokens))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def peek(self, key: str) -> Optional[CacheEntry]:
        """The entry under ``key`` — no counters, no validation, no LRU touch.

        Introspection only (the shell's ``\\explain`` uses it to show the
        statistics tokens a cached plan was costed against); never use it
        to serve a plan.
        """
        with self._lock:
            return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )
