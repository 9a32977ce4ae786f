"""The write path: WAL-logged transactions, versioned installs, recovery.

:class:`WriteManager` is the only component that mutates tables after
registration.  Every statement runs the same discipline:

1. **Log** — one transaction per statement: a BEGIN frame, one INSERT /
   DELETE frame per affected row (an UPDATE is DELETE-old + INSERT-new),
   and a COMMIT frame, all buffered in the
   :class:`~repro.wal.log.WriteAheadLog`;
2. **Sync** — the buffered frames flush as one blob through the disk's
   durability barrier; a sync whose blob carries several COMMITs is a
   group commit;
3. **Apply** — the logged records replay against the table's current
   contents via :func:`replay_record` — the *same* function crash
   recovery uses, so the live state and the recovered state are
   byte-identical by construction — and the result is packed into a
   fresh immutable heap version (``NAME@e<epoch>``), registered with the
   :class:`~repro.wal.snapshot.SnapshotManager`, and swapped in.

Crash recovery (:meth:`WriteManager.recover`) deletes every untrusted
version file, scans the durable WAL image, truncates any torn tail,
replays the committed transactions in commit order from the epoch-0 base
files, and rebuilds secondary indexes.  Because the replay, the greedy
heap packing, and the index sort are all deterministic, running recovery
twice — or crashing in the middle of it and running it again — produces
bit-identical files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..columnar.index import clustered_copy, index_file_name
from ..data.tuples import FuzzyTuple
from ..errors import RecoveryError
from ..observe.trace import maybe_span
from ..storage.heap import HeapFile
from ..storage.serializer import TupleSerializer
from ..storage.stats import OperationStats
from .log import WriteAheadLog
from .record import (
    KIND_BEGIN,
    KIND_COMMIT,
    KIND_DELETE,
    KIND_INSERT,
    WalRecord,
    scan,
)
from .snapshot import SnapshotManager, version_file_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session import StorageSession

_F64 = struct.Struct(">d")  # a record's leading degree


class TableState:
    """Mutable replay state of one table: its records in storage order.

    Both the live apply path and crash recovery mutate a ``TableState``
    with :meth:`insert` / :meth:`delete` and then pack :meth:`records`
    into a heap file — one code path, one deterministic result.  Rows
    are keyed by :meth:`TupleSerializer.identity`; a delete leaves a
    tombstone (``None``), so a multi-row delete is linear.
    """

    def __init__(self, serializer: TupleSerializer, records: Iterable[bytes]):
        self.serializer = serializer
        self._rows: List[Optional[bytes]] = list(records)
        self._positions = {serializer.identity(r): i for i, r in enumerate(self._rows)}

    def insert(self, row: bytes) -> None:
        """Apply one INSERT record (fuzzy-OR: a duplicate's higher degree
        replaces the stored record's 8 degree bytes)."""
        key = self.serializer.identity(row)
        at = self._positions.get(key)
        if at is None:
            self._positions[key] = len(self._rows)
            self._rows.append(row)
        elif _F64.unpack_from(row) > _F64.unpack_from(self._rows[at]):
            self._rows[at] = row[:8] + self._rows[at][8:]

    def delete(self, row: bytes) -> None:
        """Apply one DELETE record (value-identity match; no-op if absent)."""
        at = self._positions.pop(self.serializer.identity(row), None)
        if at is not None:
            self._rows[at] = None

    def records(self) -> List[bytes]:
        """The live records in storage order (tombstones dropped)."""
        return [r for r in self._rows if r is not None]

    @cached_property
    def tuples(self) -> List[FuzzyTuple]:
        """The live rows decoded — built only when a consumer reads values
        (a shard placement)."""
        return [self.serializer.decode(r) for r in self.records()]


def replay_record(state: TableState, record: WalRecord) -> None:
    """Apply one row record to ``state`` — shared by live apply and recovery."""
    if record.kind == KIND_INSERT:
        state.insert(record.row)
    elif record.kind == KIND_DELETE:
        state.delete(record.row)


@dataclass
class RecoveryReport:
    """What one :meth:`WriteManager.recover` run restored."""

    txns_replayed: int = 0
    records_replayed: int = 0
    truncated_bytes: int = 0
    #: Per-table outcome: ``name -> (epoch installed, rows)``.
    tables: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def render(self) -> str:
        """A human-readable summary (the shell prints this)."""
        lines = [
            f"recovery: {self.txns_replayed} txns / {self.records_replayed} "
            f"records replayed, {self.truncated_bytes} torn bytes truncated"
        ]
        for name in sorted(self.tables):
            epoch, rows = self.tables[name]
            lines.append(f"  {name}: epoch {epoch}, {rows} rows")
        return "\n".join(lines)


class WriteManager:
    """Durable fuzzy writes for one :class:`~repro.session.StorageSession`."""

    def __init__(self, session: "StorageSession"):
        self.session = session
        self.wal = WriteAheadLog(session.disk)
        self.snapshots = SnapshotManager(session.disk)
        self.next_txn = 1
        self.statements = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def apply_ops(self, ops: List[Tuple[str, str, list]], tracer=None) -> List[str]:
        """Run DML operations as one group-committed batch.

        ``ops`` is a list of ``(verb, table, payload)``:

        * ``("insert", name, [FuzzyTuple, ...])``
        * ``("delete", name, [FuzzyTuple victims, ...])``
        * ``("update", name, [(old FuzzyTuple, new FuzzyTuple), ...])``

        Each op is one transaction; the whole batch shares a single WAL
        sync (group commit when it covers ≥ 2 commits).  Apply happens
        only after the sync returns, so a crash during the sync loses
        whole transactions, never halves of one.  Returns one status
        string per op.
        """
        session = self.session
        stats = OperationStats()
        with session.disk.use_stats(stats):
            txns = []
            with maybe_span(tracer, "wal-append", ops=len(ops)):
                for verb, name, payload in ops:
                    txn = self.next_txn
                    self.next_txn += 1
                    records = self._records_of(verb, name.upper(), payload, txn)
                    for record in records:
                        self.wal.append(record)
                    txns.append((verb, name.upper(), records))
            with maybe_span(tracer, "wal-sync"):
                synced = self.wal.sync()
            statuses = []
            with maybe_span(tracer, "wal-apply"):
                for verb, name, records in txns:
                    rows = [r for r in records if r.kind in (KIND_INSERT, KIND_DELETE)]
                    epoch = self._apply_rows(name, rows)
                    statuses.append(self._status_of(verb, name, payload_len=len(rows), epoch=epoch))
        self.statements += len(ops)
        session.last_stats = stats
        registry = getattr(session, "registry", None)
        if registry is not None:
            registry.count_wal(
                records=sum(len(records) for _, _, records in txns),
                commits=len(txns),
                syncs=1,
                group_commits=1 if len(txns) >= 2 else 0,
                bytes_synced=synced,
            )
        return statuses

    def _records_of(self, verb: str, name: str, payload: list, txn: int) -> List[WalRecord]:
        """The WAL records of one transaction (BEGIN ... COMMIT)."""
        serializer = self._serializer(name)
        records = [WalRecord(KIND_BEGIN, txn, "", b"")]
        if verb == "insert":
            for t in payload:
                records.append(WalRecord(KIND_INSERT, txn, name, serializer.encode(t)))
        elif verb == "delete":
            for t in payload:
                records.append(WalRecord(KIND_DELETE, txn, name, serializer.encode(t)))
        elif verb == "update":
            for old, new in payload:
                records.append(WalRecord(KIND_DELETE, txn, name, serializer.encode(old)))
                records.append(WalRecord(KIND_INSERT, txn, name, serializer.encode(new)))
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown write verb {verb!r}")
        records.append(WalRecord(KIND_COMMIT, txn, "", b""))
        return records

    @staticmethod
    def _status_of(verb: str, name: str, payload_len: int, epoch: int) -> str:
        """The human-readable outcome line of one applied transaction."""
        if verb == "update":
            n = payload_len // 2
            noun = "tuple" if n == 1 else "tuples"
            return f"{n} {noun} updated in {name} (epoch {epoch})"
        n = payload_len
        noun = "tuple" if n == 1 else "tuples"
        done = "inserted into" if verb == "insert" else "deleted from"
        return f"{n} {noun} {done} {name} (epoch {epoch})"

    def _apply_rows(self, name: str, rows: List[WalRecord]) -> int:
        """Replay ``rows`` onto ``name`` and install the new heap version."""
        session = self.session
        heap = session.tables[name]
        state = TableState(heap.serializer, heap.disk.records(heap.name))
        for record in rows:
            replay_record(state, record)
        epoch = self.snapshots.epoch(name) + 1
        return self._install(name, heap, state, epoch)

    # ------------------------------------------------------------------
    # Version install (shared by live apply and recovery)
    # ------------------------------------------------------------------
    def _install(self, name: str, old_heap: HeapFile, state: TableState, epoch: int) -> int:
        """Pack ``state`` as epoch ``epoch`` of ``name`` and swap it in."""
        session = self.session
        disk = session.disk
        file = version_file_name(name, epoch)
        disk.delete(file)
        records = state.records()
        new_heap = HeapFile(file, old_heap.schema, disk, session.fixed_tuple_size)
        new_heap.load_records(records)
        files = [file]
        # Every index is the new epoch's records, sorted again.
        for table, attr in sorted(session.indexes):
            if table == name:
                copy_file = version_file_name(index_file_name(name, attr), epoch)
                session.indexes[(table, attr)] = clustered_copy(
                    new_heap, attr, copy_file, records
                )
                files.append(copy_file)
        if epoch > 0:
            self.snapshots.publish(name, epoch, files)
        session.tables[name] = new_heap
        # The one plan-cache rule: only a write that moves the row count
        # past a quarter of the count at the last bump invalidates.
        session.stats_versions.observe_cardinality(name, new_heap.n_tuples)
        session._replace_placement(name, lambda: state.tuples)
        registry = getattr(session, "registry", None)
        if registry is not None:
            registry.count_wal(snapshots=1)
        return epoch

    def _serializer(self, name: str) -> TupleSerializer:
        """The serializer of table ``name`` (WAL rows share its layout)."""
        try:
            return self.session.tables[name].serializer
        except KeyError:
            raise RecoveryError(f"no table {name} registered in this session") from None

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self, tracer=None) -> str:
        """Fold every current version into its base file and reset the WAL.

        After a checkpoint the epoch-0 files *are* the committed state,
        so the log can be emptied; the next crash recovers from the new
        bases alone.  Base files are pushed through the durability
        barrier explicitly.
        """
        session = self.session
        disk = session.disk
        stats = OperationStats()
        folded = 0
        with session.disk.use_stats(stats), maybe_span(tracer, "wal-checkpoint"):
            for name in sorted(session.tables):
                heap = session.tables[name]
                if self.snapshots.epoch(name) == 0:
                    disk.sync(name)
                    continue
                contents = list(disk.records(heap.name))
                self.snapshots.forget(name)
                disk.delete(name)
                base = HeapFile(name, heap.schema, disk, session.fixed_tuple_size)
                base.load_records(contents)
                disk.sync(name)
                session.tables[name] = base
                # Placements are named after the heap they were cut from,
                # so the new base gets its own (and the folded epochs' go).
                session._replace_placement(name, lambda: list(map(base.serializer.decode, contents)))
                for table, attr in sorted(session.indexes):
                    if table == name:
                        copy = clustered_copy(base, attr, index_file_name(name, attr), contents)
                        disk.sync(copy.name)
                        session.indexes[(table, attr)] = copy
                session.stats_versions.bump(name, base.n_tuples)
                folded += 1
            self.wal.reset()
            disk.sync(self.wal.file)
        session.last_stats = stats
        return f"checkpoint: {folded} tables folded to base, wal reset"

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self, tracer=None) -> RecoveryReport:
        """Restore the committed state after a crash.

        The session must have :meth:`~repro.session.StorageSession.attach`-ed
        every table (schemas are not self-describing on this disk).  The
        sequence — delete untrusted version files, scan the durable WAL,
        truncate the torn tail, replay committed transactions from the
        bases, rebuild indexes — is deterministic end to end, so running
        it twice yields bit-identical files.
        """
        session = self.session
        disk = session.disk
        stats = OperationStats()
        report = RecoveryReport()
        with session.disk.use_stats(stats), maybe_span(tracer, "recovery"):
            for file in list(disk.files()):
                if "@e" in file:
                    disk.delete(file)
            # Replay starts from the epoch-0 bases: re-point every table
            # and every index at its base file — adopting the base copy a
            # pre-crash ``create_index`` left on the disk — so recovery is
            # restartable: a second run, or one on a session that already
            # holds versioned heaps, sees the same starting state.
            for name in sorted(session.tables):
                heap = session.tables[name]
                if heap.name != name:
                    heap = session.tables[name] = HeapFile.attach(
                        name, heap.schema, disk, session.fixed_tuple_size
                    )
                    session.stats_versions.bump(name)
                for attr in heap.schema.names():
                    base_file = index_file_name(name, attr)
                    copy = session.indexes.get((name, attr))
                    if copy is None:
                        rebuild = disk.exists(base_file)
                    else:
                        rebuild = copy.name != base_file
                    if rebuild:
                        session.indexes[(name, attr)] = clustered_copy(heap, attr, base_file)
            self.snapshots = SnapshotManager(disk, self.snapshots.retain)
            image = self.wal.image()
            result = scan(image)
            torn = len(image) - result.good_length
            if torn:
                with maybe_span(tracer, "wal-truncate", bytes=torn):
                    self.wal.truncate_to(result.good_length, image)
            report.truncated_bytes = torn
            states: Dict[str, TableState] = {}
            touched: Dict[str, int] = {}
            ops_by_txn: Dict[int, List[WalRecord]] = {}
            max_txn = 0
            with maybe_span(tracer, "wal-replay"):
                for entry in result.entries:
                    record = entry.record
                    max_txn = max(max_txn, record.txn)
                    if record.kind == KIND_BEGIN:
                        ops_by_txn[record.txn] = []
                    elif record.kind in (KIND_INSERT, KIND_DELETE):
                        ops_by_txn.setdefault(record.txn, []).append(record)
                    elif record.kind == KIND_COMMIT:
                        rows = ops_by_txn.pop(record.txn, [])
                        for row in rows:
                            replay_record(self._recovery_state(states, row.table), row)
                        for table in sorted({row.table for row in rows}):
                            touched[table] = touched.get(table, 0) + 1
                        report.txns_replayed += 1
                        report.records_replayed += len(rows)
            for name in sorted(touched):
                epoch = touched[name]
                self._install(name, session.tables[name], states[name], epoch)
                report.tables[name] = (epoch, session.tables[name].n_tuples)
            self.next_txn = max(self.next_txn, max_txn + 1)
        self.recoveries += 1
        session.last_stats = stats
        registry = getattr(session, "registry", None)
        if registry is not None:
            registry.count_wal(
                recoveries=1,
                replayed_records=report.records_replayed,
                truncated_bytes=torn,
            )
        return report

    def _recovery_state(self, states: Dict[str, TableState], name: str) -> TableState:
        """The replay state of ``name``, seeded from its base heap file."""
        state = states.get(name)
        if state is None:
            heap = self.session.tables.get(name)
            if heap is None:
                raise RecoveryError(
                    f"WAL references table {name} but the session never attached it"
                )
            states[name] = state = TableState(heap.serializer, heap.disk.records(heap.name))
        return state

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> str:
        """The ``\\wal`` shell view: log, commit, and snapshot health."""
        wal = self.wal
        session = self.session
        durable = wal.synced_bytes
        lines = [
            f"wal: file {wal.file!r}, {durable} durable bytes, "
            f"{wal.pending_frames} pending frames",
            f"records={wal.records_appended} commits={wal.commits_appended} "
            f"syncs={wal.syncs} group_commits={wal.group_commits} "
            f"truncated_bytes={wal.truncated_bytes}",
            f"indexes: {len(session.indexes)}; recoveries={self.recoveries}",
        ]
        versions = ", ".join(
            f"{name}@e{self.snapshots.epoch(name)} ({session.tables[name].n_tuples} rows)"
            for name in sorted(session.tables)
        )
        lines.append(f"tables: {versions or '(none)'}")
        lines.append(
            f"snapshots: retain={self.snapshots.retain} "
            f"pinned={self.snapshots.pinned()} published={self.snapshots.published}"
        )
        return "\n".join(lines)


__all__ = ["RecoveryReport", "TableState", "WriteManager", "replay_record"]
