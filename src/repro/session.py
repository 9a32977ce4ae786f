"""A storage-backed query session: every nesting type on the disk engine.

:class:`StorageSession` is the integration layer that makes the paper's
architecture concrete end to end: relations are materialized as paged heap
files, and every query is planned by :mod:`repro.planner` — which sees the
session only as a catalog view — into a
:class:`~repro.service.prepared.PlanArtifact` naming the disk-level strategy
the one runner (:meth:`StorageSession._run_prepared`) then executes: an
operator tree whose leaves bind to the live table versions, or, for a
statement with no unnested form, the naive engine over relations read back
through the buffer (charged).

All I/O and CPU events of the last query are available in
:attr:`last_stats`; :attr:`last_strategy` names the path taken.  The
stages around the runner (plan-cache lookup, the collector and its
``query`` span, workload sinks) are the shared
:class:`~repro.service.lifecycle.StatementLifecycle`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple, Union

from .data.catalog import Catalog
from .errors import FuzzyQueryError, QueryCancelledError
from .resilience import CancelToken, QueryGuard
from .data.io import parse_value
from .data.relation import FuzzyRelation
from .data.schema import Attribute, Schema
from .data.types import AttributeType
from .data.tuples import FuzzyTuple
from .engine.aggregates import DegreePolicy
from .engine.executor import CompileError, DmlColumns, compile_conjunction, interval_probe
from .engine.operators import ExecutionContext
from .engine.semantics import NaiveEvaluator
from .engine.statistics import StatisticsVersions
from .observe.explain import render_report
from .observe.metrics import QueryMetrics
from .observe.trace import SpanTracer, maybe_span
from .fuzzy.compare import Op
from .fuzzy.linguistic import Vocabulary
from . import planner
from .service.lifecycle import StatementLifecycle
from .service.plancache import PlanCache
from .service.prepared import PlanArtifact, PreparedQuery
from .sql.ast import SelectQuery
from .sql.classify import classify
from .sql.params import count_parameters
from .sql.parser import parse
from .sql.statements import (
    CreateTable,
    DefineTerm,
    DeleteFrom,
    DropTable,
    InsertInto,
    Statement,
    Update,
    parse_statement,
)
from .storage.disk import SimulatedDisk
from .storage.heap import HeapFile
from .storage.stats import OperationStats


def _misses(serializer, record: bytes, band) -> bool:
    """Whether the ``N`` / ``T`` value in column ``at`` of ``band = (at, b, e)`` misses ``[b, e]``."""
    at, b, e = band
    support = serializer.key_at(record, at, numeric_only=True)
    return support is not None and (support[1] < b or e < support[0])


class StorageSession(StatementLifecycle):
    """Heap-file-backed query execution with automatic unnesting.

    ``adaptive`` is accepted and has no effect: every session keeps its
    cached plans across benign writes (:meth:`~repro.engine.statistics.
    StatisticsVersions.observe_cardinality`), which was the one thing an
    adaptive session did better.  The keyword stays only because the
    frozen wall benchmark passes it; the benchmark's own change (ROADMAP
    item 7) drops it.
    """

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        page_size: int = 8 * 1024,
        buffer_pages: int = 64,
        aggregate_policy: DegreePolicy = DegreePolicy.ONE,
        fixed_tuple_size: Optional[int] = None,
        disk: Optional[SimulatedDisk] = None,
        workers: int = 1,
        shards: int = 1,
        shard_on: Optional[str] = None,
        shard_disks: Optional[List[SimulatedDisk]] = None,
        adaptive: bool = False,
    ):
        #: Pass ``disk`` to run the session on a caller-provided device —
        #: e.g. a :class:`~repro.faults.FaultyDisk` for chaos testing.
        self.disk = disk if disk is not None else SimulatedDisk(page_size=page_size)
        self.buffer_pages = buffer_pages
        #: Default intra-query worker budget; ``query(..., workers=N)``
        #: overrides it per call.  With 1 every plan runs serially.
        self.workers = max(1, workers)
        #: Default shard budget; ``query(..., shards=N)`` overrides it per
        #: call.  With ``shards >= 2`` the session additionally places
        #: registered relations across that many independent disk nodes
        #: (:class:`~repro.shard.ShardedStorage`) and merge-joins over
        #: placed base relations scatter-gather across them.  Pass
        #: ``shard_disks`` to run specific nodes on caller-provided
        #: devices (e.g. one :class:`~repro.faults.FaultyDisk` for chaos
        #: testing) and ``shard_on`` as the default placement attribute
        #: for :meth:`register`.
        self.shards = max(1, shards)
        self.shard_on = shard_on
        from .shard import ShardedStorage

        self.sharded: Optional[ShardedStorage] = (
            ShardedStorage(
                self.shards,
                page_size=page_size,
                fixed_tuple_size=fixed_tuple_size,
                disks=shard_disks,
            )
            if self.shards > 1
            else None
        )
        self.aggregate_policy = aggregate_policy
        self.fixed_tuple_size = fixed_tuple_size
        self.tables: Dict[str, HeapFile] = {}
        #: Indexes by ``(TABLE, attribute)``: each the table's clustered
        #: copy on that attribute.  Created via :meth:`create_index`,
        #: rebuilt on re-registration and on every write, and read by
        #: compiled plans in place of sorts and full scans.
        self.indexes: Dict[Tuple[str, str], HeapFile] = {}
        #: In-memory relations retained for re-placement (:meth:`reshard`);
        #: only populated on sharded sessions.
        self._relations: Dict[str, FuzzyRelation] = {}
        #: Schema-only catalog used for classification and rewriting.
        self.schemas = Catalog(vocabulary)
        self.last_stats = OperationStats()
        self.last_strategy: str = ""
        #: Per-relation statistics versions; bumped on (re)registration,
        #: re-indexing, and a write that moves a row count past the cache
        #: rule.  Plan-cache entries validate against these tokens.
        self.stats_versions = StatisticsVersions()
        #: LRU cache of prepared plans for textual ``query()`` calls.
        #: Assign ``None`` to disable caching entirely.
        self.plan_cache: Optional[PlanCache] = PlanCache()
        #: The lazily created :class:`~repro.wal.WriteManager` behind
        #: :attr:`writes`; ``None`` until the first DML / recovery call,
        #: so read-only sessions never create a WAL file.
        self._writes = None

    @property
    def vocabulary(self) -> Vocabulary:
        """The linguistic vocabulary shared by the session's catalog."""
        return self.schemas.vocabulary

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        relation: FuzzyRelation,
        shard_on: Optional[str] = None,
    ) -> HeapFile:
        """Materialize a relation as a heap file (load I/O is not charged).

        On a sharded session the relation is *additionally* placed across
        the shard nodes on ``shard_on`` (default: the session-level
        :attr:`shard_on`, when that attribute exists in the schema) — the
        main-disk heap stays authoritative for every strategy the
        scatter-gather executor does not cover.
        """
        name = name.upper()
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            # Re-registration replaces the relation; without the delete the
            # new tuples would be appended after the old file's pages.
            if self._writes is not None:
                self._writes.snapshots.forget(name)
            self.disk.delete(name)
            heap = HeapFile(name, relation.schema, self.disk, self.fixed_tuple_size)
            heap.load(relation.tuples())
        self.tables[name] = heap
        self.schemas.register(name, FuzzyRelation(relation.schema))
        if self.sharded is not None:
            attribute = shard_on if shard_on is not None else self.shard_on
            names = {a.name for a in relation.schema}
            if attribute is not None and attribute in names:
                self._place(name, relation, attribute)
        # Every (re)registration moves the relation's statistics version:
        # cached plans that read this table must be re-validated.
        self.stats_versions.bump(name, heap.n_tuples)
        # Indexes follow their relation: rebuild any that exist on it so
        # index plans never read postings for replaced tuples.
        for (table, attribute) in [k for k in self.indexes if k[0] == name]:
            self.create_index(table, attribute)
        return heap

    def create_index(self, name: str, attribute: str) -> HeapFile:
        """Build (or rebuild) the index on ``name.attribute``: its clustered copy.

        The index is ``name``'s records kept in ``attribute``'s interval
        order ``(b(v), e(v))`` — the file ``__idx_<name>_<attribute>``
        (:func:`~repro.columnar.clustered_copy`), returned here and held
        in :attr:`indexes`.  Compiled plans then read it where a band join
        would sort ``name`` on ``attribute``, and range-scan it for
        selective comparisons.  Build I/O goes to a scratch ledger (like
        :meth:`register`), and the relation's statistics version is bumped
        so cached plans recompile against it.  Raises
        :class:`~repro.columnar.UnsupportedIndexError` for attributes
        whose values have no single-interval support.
        """
        from .columnar import clustered_copy, index_file_name

        name = name.upper()
        heap = self.tables.get(name)
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {name!r}")
        with self.disk.use_stats(OperationStats()):
            copy = clustered_copy(heap, attribute, index_file_name(name, attribute))
        self.indexes[(name, attribute)] = copy
        self.stats_versions.bump(name)
        return copy

    def reshard(
        self,
        name: str,
        boundaries: Optional[List] = None,
        shard_on: Optional[str] = None,
    ) -> None:
        """Re-place an already registered relation with a new shard layout.

        Changes the placement *only* — the relation's statistics version
        is deliberately left alone, so the layout token in the plan-cache
        validation pair ``(stats version, layout token)`` is what
        invalidates cached plans over this relation (the stale-layout
        regression test drives exactly this path).
        """
        name = name.upper()
        if self.sharded is None:
            raise FuzzyQueryError("reshard() needs a session with shards >= 2")
        relation = self._relations.get(name)
        if relation is None:
            raise FuzzyQueryError(f"relation {name} was never placed on the shards")
        layout = self.sharded.layout(name)
        attribute = shard_on if shard_on is not None else layout.attribute
        self._place(name, relation, attribute, boundaries)

    # ------------------------------------------------------------------
    # Writes: WAL-backed DML, snapshots, recovery
    # ------------------------------------------------------------------
    @property
    def writes(self):
        """The session's :class:`~repro.wal.WriteManager` (created lazily).

        The WAL file itself appears on disk only at the first sync, so
        merely touching this property keeps read-only sessions unchanged.
        """
        if self._writes is None:
            from .wal import WriteManager

            self._writes = WriteManager(self)
        return self._writes

    def _replace_placement(self, name: str, rows: Callable[[], List[FuzzyTuple]]) -> None:
        """Re-place ``name`` from its current heap after a write or checkpoint.

        Tables never placed (unsharded sessions, or relations without the
        shard attribute) stay unplaced — the main-disk heap remains
        authoritative and band joins simply run locally on it — and
        ``rows`` (the decoded contents) is never called for them.
        """
        if self.sharded is None or name not in self._relations:
            return
        relation = FuzzyRelation(self.tables[name].schema, rows())
        self._place(name, relation, self.sharded.layout(name).attribute)

    def _place(self, name: str, relation: FuzzyRelation, attribute: str, boundaries=None) -> None:
        """Place ``name``'s current heap on the shards, and retire the
        placements of the heap epochs the write path has collected."""
        self._relations[name] = relation
        self.sharded.place(name, relation, attribute, self.tables[name].name, boundaries)
        self.sharded.retire(name, self.disk.exists)

    def attach(self, name: str, schema) -> HeapFile:
        """Adopt an existing heap file after a restart (no data load).

        Schemas are not self-describing on the simulated disk, so crash
        recovery starts with ``attach(name, schema)`` for every table and
        then :meth:`recover`.  Raises ``FileNotFoundError`` when the base
        file does not exist.
        """
        name = name.upper()
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        with self.disk.use_stats(OperationStats()):
            heap = HeapFile.attach(name, schema, self.disk, self.fixed_tuple_size)
        self.tables[name] = heap
        self.schemas.register(name, FuzzyRelation(schema))
        self.stats_versions.bump(name, heap.n_tuples)
        return heap

    def snapshot(self):
        """Pin every table's current epoch for consistent reads.

        Returns a :class:`~repro.wal.Snapshot` (usable as a context
        manager); concurrent DML keeps publishing new epochs while the
        snapshot still reads the pinned ones.
        """
        from .wal import Snapshot

        return Snapshot(self.writes.snapshots, self.tables)

    def recover(self, tracer: Optional[SpanTracer] = None):
        """Run crash recovery over the attached tables.

        See :meth:`~repro.wal.WriteManager.recover`; returns its
        :class:`~repro.wal.RecoveryReport`.
        """
        return self.writes.recover(tracer=tracer)

    def checkpoint(self, tracer: Optional[SpanTracer] = None) -> str:
        """Fold every table version into its base file and reset the WAL."""
        return self.writes.checkpoint(tracer=tracer)

    def wal_status(self) -> str:
        """The ``\\wal`` shell view (an idle line before the first write)."""
        if self._writes is None:
            return "wal: idle (no writes this session)"
        return self._writes.status()

    def execute(self, statements, tracer: Optional[SpanTracer] = None):
        """Execute SQL statements: SELECT, DDL, and WAL-logged DML.

        ``statements`` may be one statement (text or parsed) or a list;
        in a list, consecutive INSERT / UPDATE / DELETE statements are
        logged as one group-committed WAL batch.  Returns the single
        result for a single statement (a
        :class:`~repro.data.relation.FuzzyRelation` for SELECT, a status
        string otherwise) or the list of results.

        Victim sets of UPDATE / DELETE are computed against the table
        version current when the statement enters the batch.  An UPDATE /
        DELETE on a table with pending ops flushes them first; every
        flush's ledger is merged into the one :attr:`last_stats`.
        """
        single = not isinstance(statements, (list, tuple))
        items = [statements] if single else list(statements)
        parsed = [parse_statement(s) if isinstance(s, str) else s for s in items]
        results: list = []
        pending: List[Tuple[str, str, list]] = []
        ledger = OperationStats()

        def flush() -> None:
            if pending:
                results.extend(self.writes.apply_ops(list(pending), tracer=tracer))
                ledger.merge(self.last_stats)
                self.last_stats = ledger
                pending.clear()

        for stmt in parsed:
            if isinstance(stmt, SelectQuery):
                flush()
                results.append(self.query(stmt, tracer=tracer))
            elif isinstance(stmt, CreateTable):
                flush()
                results.append(self._execute_create(stmt))
            elif isinstance(stmt, InsertInto):
                pending.append(self._insert_op(stmt))
            elif isinstance(stmt, (Update, DeleteFrom)):
                # Victim scans read the installed table version, so any
                # pending ops on the same table must apply first.
                if any(op[1] == stmt.table.upper() for op in pending):
                    flush()
                build = self._update_op if isinstance(stmt, Update) else self._delete_op
                pending.append(build(stmt))
            elif isinstance(stmt, DefineTerm):
                flush()
                results.append(self._execute_define(stmt))
            elif isinstance(stmt, DropTable):
                flush()
                results.append(self._execute_drop(stmt))
            else:
                raise FuzzyQueryError(f"unsupported statement {stmt!r}")
        flush()
        return results[0] if single else results

    def _execute_create(self, stmt: CreateTable) -> str:
        """CREATE TABLE: register an empty relation from the column defs."""
        attrs = [
            Attribute(
                col.name,
                AttributeType.LABEL if col.type_name == "LABEL" else AttributeType.NUMERIC,
                col.domain,
            )
            for col in stmt.columns
        ]
        self.register(stmt.name, FuzzyRelation(Schema(attrs)))
        return f"table {stmt.name.upper()} created"

    def _execute_define(self, stmt: DefineTerm) -> str:
        """DEFINE: bind a linguistic term and invalidate cached plans."""
        value = parse_value(stmt.shape, self.vocabulary, stmt.domain)
        self.vocabulary.define(stmt.term, value, stmt.domain)
        # Term redefinitions change predicate semantics everywhere.
        for name in self.tables:
            self.stats_versions.bump(name)
        return f"term '{stmt.term}' defined"

    def _execute_drop(self, stmt: DropTable) -> str:
        """DROP TABLE: retire the heap, its versions, and its indexes."""
        from .columnar.index import index_file_name

        name = stmt.name.upper()
        heap = self.tables.pop(name, None)
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {name!r}")
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            if self._writes is not None:
                self._writes.snapshots.forget(name)
            self.disk.delete(heap.name)
            self.disk.delete(name)
            for key in [k for k in self.indexes if k[0] == name]:
                self.disk.delete(self.indexes.pop(key).name)
                self.disk.delete(index_file_name(name, key[1]))
        self.schemas.remove(name)
        self._relations.pop(name, None)
        self.stats_versions.bump(name)
        return f"table {name} dropped"

    def _heap_of(self, table: str) -> HeapFile:
        """The heap of ``table`` for DML, or a typed error."""
        heap = self.tables.get(table.upper())
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {table.upper()!r}")
        return heap

    def _insert_op(self, stmt: InsertInto) -> Tuple[str, str, list]:
        """Build the write-manager op of one INSERT statement."""
        heap = self._heap_of(stmt.table)
        schema = heap.schema
        degree = 1.0 if stmt.degree is None else float(stmt.degree)
        rows = []
        for row in stmt.rows:
            if len(row) != len(schema):
                raise FuzzyQueryError(
                    f"INSERT arity mismatch: {len(row)} values for "
                    f"{len(schema)} columns of {stmt.table.upper()}"
                )
            values = [
                parse_value(raw, self.vocabulary, attr.domain)
                for raw, attr in zip(row, schema)
            ]
            rows.append(FuzzyTuple(values, degree))
        return ("insert", stmt.table.upper(), rows)

    def _delete_op(self, stmt: DeleteFrom) -> Tuple[str, str, list]:
        """Build the write-manager op of one DELETE statement."""
        name = stmt.table.upper()
        victims = self._dml_victims(name, stmt.table, stmt.where, stmt.threshold)
        return ("delete", name, victims)

    def _update_op(self, stmt: Update) -> Tuple[str, str, list]:
        """Build the write-manager op of one UPDATE statement."""
        name = stmt.table.upper()
        heap = self._heap_of(name)
        schema = heap.schema
        victims = self._dml_victims(name, stmt.table, stmt.where, stmt.threshold)
        pairs = []
        for old in victims:
            values = list(old.values)
            for column, raw in stmt.assignments:
                try:
                    at = schema.index_of(column)
                except KeyError as exc:
                    raise FuzzyQueryError(str(exc)) from None
                values[at] = parse_value(
                    raw, self.vocabulary, schema.attributes[at].domain
                )
            pairs.append((old, FuzzyTuple(values, old.degree)))
        return ("update", name, pairs)

    def _dml_victims(self, name, table_as_typed, where, threshold) -> List[FuzzyTuple]:
        """Rows of ``name`` whose match degree passes the DML threshold.

        The match degree of a row is ``min(μ(row), μ(WHERE))``; with no
        threshold any positive match qualifies, with ``WITH D >= z`` the
        degree must reach ``z``.  The scan is charged to a scratch ledger
        (the WAL apply owns the statement's ledger).  A row whose ``N`` /
        ``T`` column support misses a ``col = literal`` conjunct's crisp or
        trapezoid literal has ``Poss(=) = 0`` (Definition 3.1, the merge
        band's test) and is skipped undecoded — unless ``z <= 0``, which
        selects degree-0 rows.
        """
        heap = self._heap_of(name)
        columns = DmlColumns({None, table_as_typed, table_as_typed.upper(), heap.name}, heap.schema)
        try:
            match = compile_conjunction(where or (), columns, columns, self.vocabulary)
        except CompileError as exc:
            raise FuzzyQueryError(f"UPDATE/DELETE WHERE: {exc}") from None
        probes = filter(None, (interval_probe(p, columns, self.vocabulary) for p in where or ()))
        bands = [
            (columns.index((c.relation, c.attribute)), *value.interval())
            for c, op, value in probes if op is Op.EQ and (threshold is None or threshold > 0)
        ]
        victims = []
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            for record in self.disk.records(heap.name):
                if any(_misses(heap.serializer, record, band) for band in bands):
                    continue
                t = heap.serializer.decode(record)
                d = min(t.degree, match(t))
                if (d >= threshold) if threshold is not None else (d > 0.0):
                    victims.append(t)
        return victims

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        sql: Union[str, SelectQuery],
        metrics: Optional[QueryMetrics] = None,
        tracer: Optional[SpanTracer] = None,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> FuzzyRelation:
        """Execute a query; attach a collector and/or tracer to instrument it.

        With ``metrics`` the whole execution is traced: every disk page
        transfer, operator counters, sort shapes, the nesting type, which
        rewrite fired, the strategy taken, and the span tree of the
        parse/bind/rewrite/sort/merge/probe phases and operator streams
        (``metrics.tracer``).  A ``tracer`` becomes that span tree, and a
        query given only a tracer gets a collector.  When a
        :attr:`registry` or :attr:`recorder` is attached, a collector is
        created as needed and both receive the query's one event.  With
        nothing attached, nothing extra runs — operators stream their raw
        generators.

        ``timeout_ms`` sets a per-query deadline and ``cancel`` a
        cooperative :class:`~repro.resilience.CancelToken`; both are
        checked at every page transfer, raising
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.QueryCancelledError`.  Failed queries are
        still handed to the registry and recorder with their typed
        outcome before the error propagates.

        Textual queries go through the :attr:`plan_cache`: the second run
        of the same SQL skips parse/bind/rewrite (and, for flat plans,
        compilation) entirely, and the collector records the lookup
        outcome in ``metrics.plan_cache``.

        ``workers`` sets this query's intra-query parallelism budget
        (default: the session's :attr:`workers`).  With ``workers > 1``
        flat merge-join plans partition both join inputs by ranges of the
        interval order and sort + join the partitions concurrently,
        degrading to the serial path — with bit-identical results —
        whenever usable boundaries cannot be sampled.

        ``shards`` sets this query's scatter-gather budget (default: the
        session's :attr:`shards`).  On a sharded session merge-joins over
        placed base relations run shard-local against the placed slices
        and splice the results — again degrading, bit-identically, when
        the placement does not cover the join.  Pass ``shards=1`` to pin
        one query to local execution.
        """
        guard = QueryGuard.create(timeout_ms, cancel)
        with self.disk.use_guard(guard) if guard is not None else nullcontext():
            return self._run_statement(
                sql, (), metrics, tracer, workers=workers, shards=shards, guard=guard
            )

    def trace(self, sql: Union[str, SelectQuery]) -> SpanTracer:
        """Run a query with a fresh collector and return its span tracer.

        The tracer's tree (``render_tree()``) shows where the time went;
        ``export(path)`` writes Chrome ``trace_event`` JSON for
        ``chrome://tracing`` / Perfetto.
        """
        metrics = QueryMetrics()
        self.query(sql, metrics=metrics)
        return metrics.tracer

    # ------------------------------------------------------------------
    # Prepared statements and the plan cache
    # ------------------------------------------------------------------
    def _prepare(
        self,
        sql: Union[str, SelectQuery],
        metrics: Optional[QueryMetrics] = None,
        text: Optional[str] = None,
    ) -> PreparedQuery:
        with maybe_span(metrics, "parse"):
            template = parse(sql) if isinstance(sql, str) else sql
        with maybe_span(metrics, "bind"):
            nesting = classify(template, self.schemas)
        n_params = count_parameters(template)
        artifact = planner.plan(template, nesting, self, n_params, metrics)
        if text is None:
            text = str(sql)
        return PreparedQuery(self, text, template, nesting, n_params, artifact)

    def _plan_tokens(self, names) -> Dict[str, Tuple[int, int]]:
        """Validation tokens per relation: ``(stats version, layout token)``.

        Plan-cache entries are stale when either component moved — a
        re-registration, an index build or a write past the cache rule
        bumps the statistics version, and :meth:`reshard` advances only
        the layout token (placement changes which physical files a
        scatter-gather join reads, so a cached plan's sharded execution
        must be re-validated even though the data did not change).
        """
        versions = self.stats_versions.snapshot(names)
        return {
            name: (
                version,
                self.sharded.catalog.token(name) if self.sharded is not None else 0,
            )
            for name, version in versions.items()
        }

    def _run_prepared(
        self,
        prepared: PreparedQuery,
        params: tuple,
        metrics: Optional[QueryMetrics],
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        guard: Optional[QueryGuard] = None,
    ) -> FuzzyRelation:
        """The one runner: bind values, finish planning, execute the tree.

        Every SELECT ends here with its artifact — from the plan cache, a
        ``prepare()``, or planned for this run only —
        :func:`repro.planner.finish` completes it for the bound values,
        and every unnested form — flat, grouped, pipelined — is an operator
        tree run by the one ``to_relation(ctx)`` below, its leaves bound to
        this session's live table and index versions through the context.
        The naive evaluator runs the statements *planned* as naive (no
        unnested form) and is nobody's recovery: once an operator has
        started, stepping down is the join's own ladder
        (``docs/robustness.md``).  ``workers`` / ``shards`` default to the
        session's budgets whichever entry point called.
        """
        workers = self.workers if workers is None else max(1, workers)
        shards = self.shards if shards is None else max(1, shards)
        stats = self.last_stats = OperationStats()
        watch = nullcontext()
        if metrics is not None:
            metrics.stats = stats
            watch = metrics.watch_disk(self.disk)
        with watch:
            query, artifact = planner.finish(prepared, params, self, metrics)
            operator = artifact.operator
            if operator is None:
                return self._run_naive(query, artifact, stats, metrics)
            self.last_plan = operator
            self._announce(artifact, metrics)
            return operator.to_relation(
                ExecutionContext(
                    self.disk,
                    self.buffer_pages,
                    stats,
                    metrics=metrics,
                    workers=workers,
                    guard=guard,
                    shards=shards,
                    sharded=self.sharded,
                    catalog=self,
                )
            )

    def _announce(self, artifact: PlanArtifact, metrics: Optional[QueryMetrics]) -> None:
        """Publish the strategy about to run (``last_strategy``, collector)."""
        self.last_strategy = artifact.strategy
        if metrics is not None:
            metrics.rewrite = artifact.rule
            metrics.strategy = artifact.strategy
            metrics.refused = artifact.refused

    def run_batch(
        self,
        queries,
        workers: int = 1,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[FuzzyRelation]:
        """Execute read-only queries, optionally across worker threads.

        Results come back in input order regardless of completion order,
        and with ``workers <= 1`` the loop is plain serial execution —
        the differential tests assert both modes produce bit-identical
        relations.  Each query gets its own stats ledger (disk accounting
        is thread-local), and the shared :attr:`registry` and
        :attr:`recorder` each fold or append under their own lock.

        ``timeout_ms`` applies per query (not to the whole batch); a
        shared ``cancel`` token abandons the batch cooperatively — it is
        checked between queries and, inside each running query, at every
        page transfer.
        """
        from .parallel.executor import run_ordered

        def run_one(q):
            if cancel is not None and cancel.cancelled:
                raise QueryCancelledError("batch cancelled by its CancelToken")
            return self.query(q, timeout_ms=timeout_ms, cancel=cancel)

        return run_ordered(queries, run_one, workers)

    def explain(self, sql: Union[str, SelectQuery]) -> str:
        """Describe the strategy and plan a query would run with.

        Renders the artifact ``query(sql)`` would execute — the
        ``strategy:`` line is what :attr:`last_strategy` will read —
        without touching the data or the plan cache; safe to call on
        large sessions.
        """
        prepared = self._prepare(sql)
        artifact = prepared.artifact
        lines = [f"nesting type: {prepared.nesting.value}"]
        if artifact.rule:
            lines.append(f"rewrite: {artifact.rule}")
        if artifact.refused:
            lines.append(f"refused: {artifact.refused}")
        lines.append(f"strategy: {artifact.strategy}")
        if artifact.operator is not None:
            lines.append(artifact.operator.explain())
        return "\n".join(lines)

    def explain_analyze(
        self,
        sql: Union[str, SelectQuery],
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> str:
        """Run the query fully instrumented and render the analysis.

        The report shows the nesting type, the rewrite that fired, the
        strategy taken, the physical plan with each operator's counted
        rows, prunes and time, sort shapes, buffer behaviour, and
        per-phase I/O and comparison counts.  It runs exactly what
        ``query(sql, metrics=QueryMetrics())`` runs and reads no other
        page, so it moves neither the plan cache nor a fault schedule.  With ``workers > 1``
        the report additionally shows the partition table of the parallel
        merge-join (per-partition rows and pages) and the modelled
        parallel response time.
        """
        metrics = QueryMetrics()
        result = self.query(sql, metrics=metrics, workers=workers, shards=shards)
        return render_report(
            metrics,
            plan=self.last_plan,
            n_answers=len(result),
            buffer_pages=self.buffer_pages,
        )

    # ------------------------------------------------------------------
    # No unnested form: naive evaluation over buffered reads
    # ------------------------------------------------------------------
    def _run_naive(
        self,
        query: SelectQuery,
        artifact: PlanArtifact,
        stats: OperationStats,
        metrics: Optional[QueryMetrics] = None,
    ) -> FuzzyRelation:
        self._announce(artifact, metrics)
        catalog = Catalog(self.vocabulary)
        with maybe_span(metrics, "scan tables"), self.disk.use_stats(stats):
            for name, heap in self.tables.items():
                relation = FuzzyRelation(heap.schema)
                for record in self.disk.records(heap.name):
                    relation.add(heap.serializer.decode(record))
                catalog.register(name, relation)
        evaluator = NaiveEvaluator(
            catalog, aggregate_policy=self.aggregate_policy, stats=stats
        )
        with maybe_span(metrics, "evaluate"):
            return evaluator.evaluate(query)
