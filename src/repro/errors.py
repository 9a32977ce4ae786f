"""The typed failure taxonomy for resilient query execution.

Every failure the engine can surface to a caller is an instance of
:class:`FuzzyQueryError`; a served system can therefore promise that a
query either returns the bit-identical possibility-measure result or
raises one of the classes below — never a bare ``KeyError`` escaping from
a page parse or a silently wrong answer after a torn write.

The taxonomy splits along two axes:

* **storage faults** (:class:`TransientIOError`, :class:`DiskFullError`,
  :class:`PageCorruptionError`) — raised by the disk layer, possibly
  injected by :mod:`repro.faults`; transient ones are retried at the
  disk boundary, persistent ones propagate or trigger degradation;
* **query-lifecycle faults** (:class:`QueryTimeoutError`,
  :class:`QueryCancelledError`, :class:`ResourceExhaustedError`) —
  raised cooperatively by :class:`repro.resilience.QueryGuard` checks or
  by the buffer pool when every frame is pinned.
"""

from __future__ import annotations


class FuzzyQueryError(Exception):
    """Base class of every typed error the engine raises to callers."""


class DatabaseError(FuzzyQueryError):
    """A :class:`~repro.db.FuzzyDatabase` statement could not be executed
    (unknown table, arity mismatch, unsupported statement, ...)."""


class StorageFaultError(FuzzyQueryError):
    """Base class for faults originating at the storage layer."""


class TransientIOError(StorageFaultError):
    """A page transfer failed but is expected to succeed on retry.

    The disk's bounded exponential-backoff retry loop absorbs bursts
    shorter than its attempt budget; longer bursts escape as this error.
    """


class DiskFullError(StorageFaultError):
    """An append was refused because the disk has no capacity left.

    During an external-sort spill this triggers graceful degradation to
    the nested-loop join path instead of failing the query.
    """


class PageCorruptionError(StorageFaultError):
    """A page image failed its checksum or could not be parsed.

    Torn writes are detected at *read* time: the page checksum written by
    :meth:`repro.storage.page.Page.to_bytes` no longer matches.
    """


class ResourceExhaustedError(FuzzyQueryError):
    """A bounded runtime resource (buffer frames, memory budget) ran out."""


class QueryTimeoutError(FuzzyQueryError):
    """The query exceeded its ``timeout_ms`` deadline."""


class QueryCancelledError(FuzzyQueryError):
    """The query observed its :class:`~repro.resilience.CancelToken` set."""


class WalCorruptionError(StorageFaultError):
    """A write-ahead-log frame failed its CRC32 or structural checks.

    Recovery never *raises* this for a torn tail — a bad frame simply
    ends the committed prefix and the tail is truncated.  It surfaces
    only when a caller strictly decodes a frame it believed durable.
    """


class RecoveryError(FuzzyQueryError):
    """Crash recovery could not restore a consistent table state.

    Raised when replay references a table the session never attached, or
    when the base heap file a committed transaction builds on is missing.
    """


class SnapshotTooOldError(FuzzyQueryError):
    """A snapshot read referenced an epoch the version store already GC'd.

    Snapshots pin their epochs while open; reading through a released
    snapshot whose version files were retired raises this instead of
    silently serving newer data.
    """


__all__ = [
    "FuzzyQueryError",
    "DatabaseError",
    "StorageFaultError",
    "TransientIOError",
    "DiskFullError",
    "PageCorruptionError",
    "ResourceExhaustedError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "WalCorruptionError",
    "RecoveryError",
    "SnapshotTooOldError",
]
