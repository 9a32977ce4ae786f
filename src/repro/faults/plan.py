"""Deterministic, seeded fault schedules for the simulated disk.

A :class:`FaultPlan` decides — purely from its seed and its per-access
ordinals — which page transfers fail and how.  Two runs with the same
plan parameters fault the exact same logical accesses, which is what lets
the chaos suite assert bit-identical results between a faulted run whose
faults were absorbed and a fault-free run.

Rate-based faults draw from a private ``random.Random(seed)``; scripted
faults pin an exact read/write ordinal (0-based, counted per disk) so a
test can say "the 7th page read fails twice" or "the 3rd write is torn".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


@dataclass
class FaultCounters:
    """How many faults of each kind a plan has actually injected."""

    transient_reads: int = 0
    torn_writes: int = 0
    disk_full: int = 0
    latency_spikes: int = 0
    lost_syncs: int = 0
    crash_points: int = 0


@dataclass
class FaultPlan:
    """A seeded schedule of storage faults.

    Rate parameters are probabilities per logical page access; scripted
    schedules (:meth:`fail_read`, :meth:`tear_write`, :meth:`spike_read`)
    target exact ordinals.  ``transient_burst`` is the number of
    *consecutive* failed attempts a faulted read produces: a burst
    strictly below the disk retry budget is absorbed invisibly (apart
    from the ``io_retries`` counter), a burst at or above it escapes as a
    typed :class:`~repro.errors.TransientIOError`.
    """

    seed: int = 0
    transient_read_rate: float = 0.0
    transient_burst: int = 1
    torn_write_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 0.0
    #: Probability that an fsync silently fails to make bytes durable
    #: (the write *appears* to succeed; a later crash loses the tail).
    sync_loss_rate: float = 0.0
    #: Hard page budget for the whole disk; appends beyond it raise
    #: :class:`~repro.errors.DiskFullError` (``None`` = unbounded).
    disk_capacity_pages: Optional[int] = None

    injected: FaultCounters = field(default_factory=FaultCounters)
    _rng: random.Random = field(init=False, repr=False)
    _scripted_read_faults: Dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _scripted_spikes: Dict[int, float] = field(default_factory=dict, init=False, repr=False)
    _scripted_torn: Set[int] = field(default_factory=set, init=False, repr=False)
    _scripted_sync_losses: Set[int] = field(default_factory=set, init=False, repr=False)
    _scripted_crashes: Dict[int, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.transient_burst < 1:
            raise ValueError("transient_burst must be at least 1")
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # Scripting exact fault sites
    # ------------------------------------------------------------------
    def fail_read(self, ordinal: int, times: int = 1) -> "FaultPlan":
        """Make logical read number ``ordinal`` fail ``times`` attempts."""
        self._scripted_read_faults[ordinal] = times
        return self

    def spike_read(self, ordinal: int, seconds: float) -> "FaultPlan":
        """Delay logical read number ``ordinal`` by ``seconds``."""
        self._scripted_spikes[ordinal] = seconds
        return self

    def tear_write(self, ordinal: int) -> "FaultPlan":
        """Corrupt the page image of logical write number ``ordinal``."""
        self._scripted_torn.add(ordinal)
        return self

    def lose_sync(self, ordinal: int) -> "FaultPlan":
        """Make fsync number ``ordinal`` silently fail to reach the platter.

        The caller sees success; a subsequent :meth:`FaultyDisk.crash`
        reverts the file to its state at the last *honest* sync, dropping
        the unsynced tail deterministically.
        """
        self._scripted_sync_losses.add(ordinal)
        return self

    def crash_write(self, ordinal: int, keep_bytes: int = 0) -> "FaultPlan":
        """Crash the process at logical write number ``ordinal``.

        Exactly ``keep_bytes`` bytes of that write's payload reach the
        store before :class:`~repro.faults.CrashPointError` aborts the
        transfer — the scripted analogue of losing power mid-``write()``.
        Sweeping ``keep_bytes`` over every offset of a WAL append is how
        the chaos suite proves recovery at every byte boundary.
        """
        if keep_bytes < 0:
            raise ValueError("keep_bytes must be non-negative")
        self._scripted_crashes[ordinal] = keep_bytes
        return self

    # ------------------------------------------------------------------
    # Decisions (called by FaultyDisk, once per logical access)
    # ------------------------------------------------------------------
    def read_fault_attempts(self, ordinal: int) -> int:
        """How many consecutive attempts of this read should fail (0 = none)."""
        scripted = self._scripted_read_faults.get(ordinal)
        if scripted is not None:
            return scripted
        if self.transient_read_rate > 0.0 and self._rng.random() < self.transient_read_rate:
            return self.transient_burst
        return 0

    def read_spike_seconds(self, ordinal: int) -> float:
        """Latency-spike duration for this read (0.0 = no spike)."""
        scripted = self._scripted_spikes.get(ordinal)
        if scripted is not None:
            return scripted
        if self.latency_spike_rate > 0.0 and self._rng.random() < self.latency_spike_rate:
            return self.latency_spike_seconds
        return 0.0

    def write_torn(self, ordinal: int) -> bool:
        """Whether this write should persist a corrupted page image."""
        if ordinal in self._scripted_torn:
            return True
        return self.torn_write_rate > 0.0 and self._rng.random() < self.torn_write_rate

    def write_crash(self, ordinal: int) -> Optional[int]:
        """Bytes to keep before crashing this write (``None`` = no crash)."""
        return self._scripted_crashes.get(ordinal)

    def sync_lost(self, ordinal: int) -> bool:
        """Whether fsync number ``ordinal`` silently loses its bytes."""
        if ordinal in self._scripted_sync_losses:
            return True
        return self.sync_loss_rate > 0.0 and self._rng.random() < self.sync_loss_rate

    def corrupt(self, data: bytes) -> bytes:
        """A deterministically damaged copy of ``data`` (one byte flipped).

        The flip lands past the 6-byte page header so the stored checksum
        stays intact and the mismatch is caught at read time — the
        signature of a torn write rather than a garbage page.
        """
        if len(data) <= 6:
            return bytes(len(data))
        pos = 6 + self._rng.randrange(len(data) - 6)
        return data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]


__all__ = ["FaultPlan", "FaultCounters"]
