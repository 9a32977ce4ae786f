"""Equi-depth histograms over support intervals ``(b(v), e(v))``.

One :class:`AttributeHistogram` per ``(table, attribute)``, built at
registration time from the attribute's support intervals and kept
current by the WAL apply path: the record of the distribution a cached
plan was costed against.

The histogram is equi-depth on the support *begin* ``b(v)`` — the same
key the interval order, the external sorts, the range partitioner, and
the shard placement all use — and each bucket additionally records the
largest support *end* seen (the widest ``Rng(r)`` window a bucket can
open; shown by the shell's ``\\stats``).

Two derived quantities drive the adaptive layer:

* :meth:`AttributeHistogram.drift` — how far the *live* bucket counts
  (maintained by WAL installs) have moved from the *base* distribution
  the histogram was built on: the total-variation distance between the
  normalized count vectors plus the relative cardinality change.  Small
  ingests leave the drift near zero; a skew shift or bulk load pushes it
  past the session's drift threshold, which triggers a rebuild.
* :attr:`AttributeHistogram.fingerprint` — a CRC32 over the bucket
  boundaries and base counts.  The fingerprint changes **only on
  rebuild**, never on a live-count refresh, so plan-cache entries can
  record the fingerprints they were costed against and stay valid across
  benign ingest while drift-triggered rebuilds evict them.
"""

from __future__ import annotations

import threading
import zlib
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def _intervals_of(values) -> Optional[List[Tuple[float, float]]]:
    """The support intervals of ``values``, or None when any lacks one.

    Only numeric crisp and trapezoidal values carry the single-interval
    support the ``(b(v), e(v))`` order needs; labels and discrete
    distributions make the whole attribute un-histogrammable (exactly the
    values :class:`~repro.columnar.UnsupportedIndexError` rejects).
    """
    out: List[Tuple[float, float]] = []
    for value in values:
        interval = getattr(value, "interval", None)
        if interval is None:
            return None
        try:
            begin, end = interval()
        except (TypeError, ValueError):
            return None
        if not isinstance(begin, (int, float)) or not isinstance(end, (int, float)):
            return None
        out.append((float(begin), float(end)))
    return out


class AttributeHistogram:
    """Equi-depth buckets of one attribute's support intervals.

    ``bounds[i]`` is the lower edge of bucket ``i`` on ``b(v)`` (the last
    bucket is open above); ``base_counts`` / ``base_max_d`` describe the
    distribution at build time and never change until :meth:`rebuild`,
    while ``live_counts`` track the table's current contents through
    :meth:`refresh`.
    """

    def __init__(self, bounds: List[float], counts: List[int], max_ds: List[float]):
        self.bounds = bounds
        self.base_counts = counts
        self.base_max_d = max_ds
        self.live_counts = list(counts)
        self.fingerprint = self._fingerprint()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, intervals: Sequence[Tuple[float, float]], buckets: int = 8) -> "AttributeHistogram":
        """Equi-depth histogram of ``intervals`` with at most ``buckets`` buckets."""
        ordered = sorted(intervals)
        n = len(ordered)
        if n == 0:
            return cls([], [], [])
        k = max(1, min(buckets, n))
        bounds: List[float] = []
        counts: List[int] = []
        max_ds: List[float] = []
        start = 0
        for i in range(k):
            stop = ((i + 1) * n) // k
            if stop <= start:
                continue
            chunk = ordered[start:stop]
            # Equal begins must share a bucket, or refresh-time bucketing
            # (which only sees the begin) would be ambiguous.
            while stop < n and ordered[stop][0] == chunk[-1][0]:
                chunk.append(ordered[stop])
                stop += 1
            bounds.append(chunk[0][0])
            counts.append(len(chunk))
            max_ds.append(max(d for _a, d in chunk))
            start = stop
        return cls(bounds, counts, max_ds)

    def _fingerprint(self) -> int:
        payload = repr((self.bounds, self.base_counts, self.base_max_d)).encode()
        return zlib.crc32(payload)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _bucket_of(self, begin: float) -> int:
        """The bucket whose range covers a support beginning at ``begin``."""
        return max(0, bisect_right(self.bounds, begin) - 1)

    def refresh(self, intervals: Sequence[Tuple[float, float]]) -> None:
        """Recount the live distribution against the *fixed* base buckets.

        Pure CPU over in-memory intervals; the fingerprint (and hence
        every plan-cache token) is untouched.
        """
        counts = [0] * len(self.bounds)
        for begin, _end in intervals:
            if counts:
                counts[self._bucket_of(begin)] += 1
        self.live_counts = counts

    def rebuild(self, intervals: Sequence[Tuple[float, float]], buckets: int = 8) -> "AttributeHistogram":
        """A fresh histogram of the live data (new fingerprint)."""
        return AttributeHistogram.build(intervals, buckets)

    def drift(self) -> float:
        """Distance of the live distribution from the base distribution.

        Total-variation distance between the normalized bucket vectors,
        plus the relative cardinality change — so both a *reshaped* table
        (same size, new skew) and a *regrown* table (same shape, new
        size) register as drift.
        """
        base_total = sum(self.base_counts)
        live_total = sum(self.live_counts)
        if base_total == 0:
            return 1.0 if live_total else 0.0
        tv = 0.5 * sum(
            abs(live / max(1, live_total) - base / base_total)
            for live, base in zip(self.live_counts, self.base_counts)
        )
        growth = abs(live_total - base_total) / base_total
        return tv + growth

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    @property
    def n_base(self) -> int:
        """Tuples the base distribution was built from."""
        return sum(self.base_counts)

    def bucket_ranges(self) -> List[Tuple[float, float, int]]:
        """``(lo, max_d, count)`` per base bucket — the overlap summary."""
        return [
            (lo, max_d, count)
            for lo, max_d, count in zip(self.bounds, self.base_max_d, self.base_counts)
        ]


class HistogramStore:
    """All of a session's attribute histograms, keyed ``(TABLE, attribute)``.

    Built by :meth:`~repro.session.StorageSession.register`, refreshed by
    the WAL apply path, read by the drift check and the plan-cache tokens.
    All methods are thread-safe.
    """

    def __init__(self, buckets: int = 8, drift_threshold: float = 0.25):
        self.buckets = buckets
        #: Past this drift the table's histograms are rebuilt and the new
        #: fingerprints evict every dependent plan-cache entry.
        self.drift_threshold = drift_threshold
        self._tables: Dict[str, Dict[str, AttributeHistogram]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Build / refresh
    # ------------------------------------------------------------------
    def _columns_of(self, schema, tuples) -> Dict[str, List[Tuple[float, float]]]:
        rows = list(tuples)
        columns: Dict[str, List[Tuple[float, float]]] = {}
        for position, attribute in enumerate(schema):
            intervals = _intervals_of(t.values[position] for t in rows)
            if intervals is not None:
                columns[attribute.name] = intervals
        return columns

    def build_table(self, name: str, schema, tuples: Iterable) -> int:
        """(Re)build histograms for every interval-supported attribute.

        Returns the number of histograms built; attributes whose values
        lack single-interval supports are skipped silently (they cannot
        drive interval-overlap estimates anyway).
        """
        name = name.upper()
        columns = self._columns_of(schema, tuples)
        built = {
            attribute: AttributeHistogram.build(intervals, self.buckets)
            for attribute, intervals in columns.items()
        }
        with self._lock:
            if built:
                self._tables[name] = built
            else:
                self._tables.pop(name, None)
        return len(built)

    def refresh_table(self, name: str, schema, tuples: Iterable) -> int:
        """Recount live buckets after a write; fingerprints unchanged.

        Returns the number of histograms refreshed (0 when the table has
        none — e.g. label-only schemas).
        """
        name = name.upper()
        with self._lock:
            table = self._tables.get(name)
        if not table:
            return 0
        columns = self._columns_of(schema, tuples)
        refreshed = 0
        for attribute, histogram in table.items():
            intervals = columns.get(attribute)
            if intervals is not None:
                histogram.refresh(intervals)
                refreshed += 1
        return refreshed

    def forget(self, name: str) -> None:
        """Drop a table's histograms (DROP TABLE)."""
        with self._lock:
            self._tables.pop(name.upper(), None)

    # ------------------------------------------------------------------
    # Drift
    # ------------------------------------------------------------------
    def drift(self, name: str) -> float:
        """The largest per-attribute drift of ``name`` (0.0 when unknown)."""
        with self._lock:
            table = self._tables.get(name.upper())
        if not table:
            return 0.0
        return max(h.drift() for h in table.values())

    def drifted(self, name: str) -> bool:
        """Whether ``name`` has moved past the drift threshold."""
        return self.drift(name) > self.drift_threshold

    # ------------------------------------------------------------------
    # Plan-cache tokens
    # ------------------------------------------------------------------
    def fingerprint(self, name: str) -> int:
        """One CRC folding every attribute fingerprint of ``name``.

        0 for tables without histograms; stable across live refreshes,
        new after any rebuild — the plan-cache drift token.
        """
        with self._lock:
            table = self._tables.get(name.upper())
            if not table:
                return 0
            payload = repr(
                sorted((a, h.fingerprint) for a, h in table.items())
            ).encode()
        return zlib.crc32(payload)

    def histogram(self, name: str, attribute: str) -> Optional[AttributeHistogram]:
        """The histogram of ``name.attribute``, if one exists."""
        with self._lock:
            return self._tables.get(name.upper(), {}).get(attribute)

    # ------------------------------------------------------------------
    # Rendering (the ``\\stats`` shell view)
    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        """Tables with at least one histogram, sorted."""
        with self._lock:
            return sorted(self._tables)

    def render(self) -> str:
        """Per-table histogram dump with drift distances and fingerprints."""
        names = self.table_names()
        if not names:
            return "no histograms (register numeric relations first)"
        lines: List[str] = []
        for name in names:
            with self._lock:
                table = dict(self._tables[name])
            drift = max(h.drift() for h in table.values())
            lines.append(
                f"{name}: drift={drift:.3f} "
                f"(threshold {self.drift_threshold:g}) "
                f"fingerprint=0x{self.fingerprint(name):08x}"
            )
            for attribute in sorted(table):
                h = table[attribute]
                lines.append(
                    f"  {attribute}: {len(h.bounds)} buckets, "
                    f"{h.n_base} base rows, fingerprint=0x{h.fingerprint:08x}"
                )
                for i, (lo, max_d, count) in enumerate(h.bucket_ranges()):
                    live = h.live_counts[i] if i < len(h.live_counts) else 0
                    lines.append(
                        f"    [{lo:g}, d<={max_d:g}] base={count} live={live}"
                    )
        return "\n".join(lines)


__all__ = ["AttributeHistogram", "HistogramStore"]
