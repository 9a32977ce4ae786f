"""A fault-injecting drop-in replacement for :class:`SimulatedDisk`.

:class:`FaultyDisk` overrides the raw transfer hooks (``_fetch`` /
``_store``) underneath the accounting, retry and guard machinery of
:class:`~repro.storage.disk.SimulatedDisk`, so injected faults exercise
exactly the code paths a real device error would:

* transient read faults surface *below* the retry loop — short bursts
  are absorbed and counted as ``io_retries``, long ones escape typed;
* torn writes persist a corrupted page image whose checksum mismatch is
  caught by :meth:`Page.from_bytes` on the next read;
* latency spikes sleep inside the transfer (capped to the active query
  guard's remaining deadline, so a spiked read never oversleeps a
  ``timeout_ms`` by more than scheduling noise);
* a capacity limit makes appends raise
  :class:`~repro.errors.DiskFullError` once the disk holds its budget;
* scripted crash points abort a ``_store`` mid-transfer (persisting only
  a byte prefix) with :class:`CrashPointError`, and the ``_sync`` hook
  tracks per-file durable images — :meth:`FaultyDisk.crash` then reverts
  the disk to what an honest fsync actually made durable, dropping
  unsynced tails and files exactly as a power loss would.

Set :attr:`armed` to ``False`` while loading base tables so only query
execution sees faults, then arm the disk for the chaos run (arming
snapshots the current files as the durable baseline).
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..errors import DiskFullError, StorageFaultError, TransientIOError
from ..storage.disk import SimulatedDisk
from ..storage.page import DEFAULT_PAGE_SIZE
from .plan import FaultPlan


class CrashPointError(StorageFaultError):
    """The process "died" at a scripted crash point mid-write.

    Raised by :meth:`FaultyDisk._store` when the plan scripted a crash at
    that write ordinal; the session that sees it is considered dead, and
    the test follows up with :meth:`FaultyDisk.crash` plus a fresh
    session running recovery.
    """


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` whose transfers fail on a seeded schedule."""

    def __init__(self, plan: FaultPlan, page_size: int = DEFAULT_PAGE_SIZE, armed: bool = True):
        super().__init__(page_size=page_size)
        #: Per-file images as of the last honest fsync (or of arm time);
        #: :meth:`crash` restores exactly these.
        self._durable: Dict[str, List[bytes]] = {}
        self._armed = False
        self.plan = plan
        #: When ``False`` the disk behaves exactly like its parent; flip
        #: to ``True`` after loading fixtures to start injecting faults.
        self.armed = armed
        self._read_ordinal = 0
        self._write_ordinal = 0
        self._sync_ordinal = 0

    def _forget_burst(self) -> None:
        """Drop the burst state of the read being retried: the page key
        it belongs to and how many more attempts must still fail."""
        self._retry_key, self._retry_pending = None, 0

    @property
    def plan(self) -> FaultPlan:
        """The fault schedule; installing one forgets any burst in flight."""
        return self._plan

    @plan.setter
    def plan(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._forget_burst()

    @property
    def armed(self) -> bool:
        """Whether the fault schedule is live."""
        return self._armed

    @armed.setter
    def armed(self, value: bool) -> None:
        """Arm or disarm; arming snapshots all files as durably written.
        Either way a burst left by an escaped fault is forgotten."""
        value = bool(value)
        if value and not self._armed:
            self._durable = {name: list(pages) for name, pages in self._files.items()}
        self._armed = value
        self._forget_burst()

    # ------------------------------------------------------------------
    # Fault-injecting transfer hooks
    # ------------------------------------------------------------------
    def _fetch(self, name: str, index: int) -> bytes:
        if not self.armed:
            return super()._fetch(name, index)
        key = (name, index)
        if self._retry_key == key:
            if self._retry_pending > 0:
                # A retry of a read whose fault burst is still draining.
                self._retry_pending -= 1
                self.plan.injected.transient_reads += 1
                raise TransientIOError(
                    f"injected transient fault reading {name!r} page {index}"
                )
            # The burst drained: this retry succeeds, and it is the *same*
            # logical read — it must not consume a new schedule ordinal,
            # or retries would shift (and re-roll) the fault schedule.
            self._retry_key = None
            return super()._fetch(name, index)
        # A different page while burst state lingers means the faulted
        # read was abandoned (its error escaped the retry budget).
        self._forget_burst()
        ordinal = self._read_ordinal
        self._read_ordinal += 1
        spike = self.plan.read_spike_seconds(ordinal)
        if spike > 0.0:
            self.plan.injected.latency_spikes += 1
            self._sleep_spike(spike)
        attempts = self.plan.read_fault_attempts(ordinal)
        if attempts > 0:
            self._retry_key, self._retry_pending = key, attempts - 1
            self.plan.injected.transient_reads += 1
            raise TransientIOError(
                f"injected transient fault reading {name!r} page {index}"
            )
        return super()._fetch(name, index)

    def _store(self, name: str, index: int, data: bytes) -> None:
        if not self.armed:
            return super()._store(name, index, data)
        ordinal = self._write_ordinal
        self._write_ordinal += 1
        appending = index >= len(self._files.get(name, ()))
        capacity = self.plan.disk_capacity_pages
        if appending and capacity is not None and self.total_pages() >= capacity:
            self.plan.injected.disk_full += 1
            raise DiskFullError(
                f"disk full: {self.total_pages()} pages stored, capacity {capacity}"
            )
        keep = self.plan.write_crash(ordinal)
        if keep is not None:
            self.plan.injected.crash_points += 1
            if keep > 0 and appending:
                super()._store(name, index, data[:keep])
            elif keep > 0:
                old = self._files[name][index]
                super()._store(name, index, data[:keep] + old[keep:])
            raise CrashPointError(
                f"scripted crash writing {name!r} entry {index} "
                f"({keep} of {len(data)} bytes persisted)"
            )
        if self.plan.write_torn(ordinal):
            self.plan.injected.torn_writes += 1
            data = self.plan.corrupt(data)
        super()._store(name, index, data)

    def _sync(self, name: str) -> None:
        if not self.armed:
            return super()._sync(name)
        ordinal = self._sync_ordinal
        self._sync_ordinal += 1
        if self.plan.sync_lost(ordinal):
            # The fsync lies: the caller sees success, but the durable
            # image is not advanced — a later crash() drops the tail.
            self.plan.injected.lost_syncs += 1
            return
        self._durable[name] = list(self._files.get(name, ()))

    # ------------------------------------------------------------------
    # Crash simulation
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate power loss: revert every file to its durable image.

        Files created after arming that were never honestly fsynced
        vanish; synced files revert to the bytes their last honest
        :meth:`_sync` captured.  The disk stays usable afterwards (a new
        session attaches to it and runs recovery), with the fault
        schedule left armed and its ordinals advancing where they were.
        """
        self._files = {name: list(pages) for name, pages in self._durable.items()}
        self._forget_burst()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _sleep_spike(self, seconds: float) -> None:
        """Sleep out a latency spike, but never past the guard's deadline.

        The post-transfer guard check in ``read_page`` then raises the
        typed :class:`~repro.errors.QueryTimeoutError` promptly.
        """
        guard = self.guard
        if guard is not None and guard.deadline is not None:
            seconds = min(seconds, guard.deadline.remaining() + 0.001)
        if seconds > 0:
            time.sleep(seconds)


__all__ = ["CrashPointError", "FaultyDisk"]
