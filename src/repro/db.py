"""The user-facing facade: a fuzzy database session.

:class:`FuzzyDatabase` bundles a catalog, a vocabulary, and the query
machinery behind one ``execute()`` method that accepts both DDL/DML and
queries::

    db = FuzzyDatabase()
    db.execute("CREATE TABLE M (ID NUMERIC, NAME LABEL, AGE NUMERIC ON 'AGE')")
    db.execute("DEFINE 'medium young' ON 'AGE' AS '[20, 25, 30, 35]'")
    db.execute("INSERT INTO M VALUES (201, 'Allen', 24)")
    answer = db.execute("SELECT M.NAME FROM M WHERE M.AGE = 'medium young'")

Queries are unnested automatically when a rewrite applies (the point of
the paper); ``db.explain(sql)`` shows what the optimizer would do.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .data.catalog import Catalog
from .data.io import parse_value
from .data.relation import FuzzyRelation
from .data.schema import Attribute, Schema
from .data.tuples import FuzzyTuple
from .data.types import AttributeType
from .engine.aggregates import DegreePolicy
from .engine.executor import CompileError, DmlColumns, compile_conjunction
from .engine.semantics import NaiveEvaluator
from .errors import DatabaseError
from .fuzzy.linguistic import Vocabulary
from .service.lifecycle import StatementLifecycle
from .service.plancache import PlanCache
from .service.prepared import PlanArtifact, PreparedQuery
from .sql.ast import SelectQuery
from .sql.classify import classify
from .sql.params import count_parameters
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
from .unnest.common import UnnestError
from .unnest.rewriter import unnest


class FuzzyDatabase(StatementLifecycle):
    """An in-memory fuzzy relational database session."""

    error = DatabaseError

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        aggregate_policy: DegreePolicy = DegreePolicy.ONE,
        similarity=None,
        auto_unnest: bool = True,
    ):
        self.catalog = Catalog(vocabulary)
        self.aggregate_policy = aggregate_policy
        self.similarity = similarity
        self.auto_unnest = auto_unnest
        #: LRU cache of prepared plans for textual ``query()`` calls;
        #: entries validate against tuple counts and the schema epoch.
        #: Assign ``None`` to disable caching.
        self.plan_cache: Optional[PlanCache] = PlanCache()
        # Bumped by DDL (CREATE/DROP/DEFINE/register): any schema or
        # vocabulary change invalidates every cached plan.
        self._schema_epoch = 0

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Union[FuzzyRelation, str]:
        """Run one statement; queries return relations, DDL returns messages."""
        statement = parse_statement(sql)
        return self.execute_statement(statement, sql_text=sql)

    def execute_statement(
        self, statement: Statement, sql_text: Optional[str] = None
    ) -> Union[FuzzyRelation, str]:
        """Execute a parsed statement: queries return a relation, DDL/DML a status
        string.
        """
        if isinstance(statement, SelectQuery):
            return self.query(statement, sql_text=sql_text)
        if isinstance(statement, CreateTable):
            return self._create(statement)
        if isinstance(statement, InsertInto):
            return self._insert(statement)
        if isinstance(statement, DefineTerm):
            return self._define(statement)
        if isinstance(statement, DropTable):
            return self._drop(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, DeleteFrom):
            return self._delete(statement)
        raise DatabaseError(f"unsupported statement {statement!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[str, SelectQuery],
        metrics=None,
        sql_text: Optional[str] = None,
        shards: Optional[int] = None,
        shard_on: Optional[str] = None,
    ) -> FuzzyRelation:
        """Run one SELECT; textual queries go through the plan cache.

        With ``shards=N`` (N >= 2) the catalog is materialized into a
        scratch *sharded* :class:`~repro.session.StorageSession` — each
        relation placed across N simulated disks on ``shard_on`` — and
        the query executes there via scatter-gather, bypassing this
        database's in-memory plan cache.  Results are bit-identical to
        the in-memory engine.
        """
        if shards is not None and shards > 1:
            session = self._storage_session(shards=shards, shard_on=shard_on)
            return session.query(self._select(query), metrics=metrics)
        return self._run_statement(query, (), metrics, text=sql_text)

    def _select(self, statement: Union[str, Statement]) -> SelectQuery:
        """``statement`` parsed, and checked to be a SELECT."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, SelectQuery):
            raise DatabaseError(f"expected a SELECT statement, not {statement}")
        return statement

    # ------------------------------------------------------------------
    # The lifecycle hooks: prepare, plan tokens, the one runner
    # ------------------------------------------------------------------
    def _prepare(self, sql, metrics=None, text: Optional[str] = None) -> PreparedQuery:
        """Parse, classify and plan (``metrics``: the in-memory engine opens no spans)."""
        template = self._select(sql)
        nesting = classify(template, self.catalog)
        n_params = count_parameters(template)
        # Rewrites are structural, but the in-memory pipeline embeds the
        # query values: a parameterized statement is planned once bound.
        artifact = (
            PlanArtifact("deferred") if n_params else self._plan_template(template)
        )
        if text is None:
            text = str(sql)
        return PreparedQuery(self, text, template, nesting, n_params, artifact)

    def _plan_template(self, query: SelectQuery) -> PlanArtifact:
        """The Theorem 4.1–8.1 rewrite when one applies, else the naive plan."""
        if self.auto_unnest:
            try:
                plan = unnest(query, self.catalog)
                return PlanArtifact(
                    "memory",
                    plan=plan,
                    rule=plan.rule or plan.nesting_type,
                    strategy="memory/unnest: rewritten in-memory plan",
                )
            except UnnestError:
                pass
        return PlanArtifact(
            "naive",
            rule="none (naive fallback)",
            strategy="memory/naive: nested-loop evaluation",
        )

    def _plan_tokens(self, names) -> dict:
        """Current validity tokens: tuple counts plus the schema epoch."""
        tokens = {"__SCHEMA__": self._schema_epoch}
        for name in names:
            if name != "__SCHEMA__":
                tokens[name] = len(self.catalog.get(name)) if name in self.catalog else -1
        return tokens

    def _run_prepared(
        self, prepared: PreparedQuery, params: tuple, collector
    ) -> FuzzyRelation:
        """The one runner: bind values, finish planning, evaluate."""
        query, artifact = prepared.bind(params), prepared.artifact
        if artifact.kind == "deferred":
            artifact = self._plan_template(query)
        if collector is not None:
            collector.rewrite, collector.strategy = artifact.rule, artifact.strategy
        if artifact.kind == "memory":
            return artifact.plan.execute(
                self.catalog, self._make_evaluator, metrics=collector
            )
        return self._make_evaluator(self.catalog).evaluate(query)

    def run_batch(self, queries, workers: int = 1) -> List[FuzzyRelation]:
        """Execute read-only SELECTs, optionally across worker threads.

        Results come back in input order regardless of completion order;
        ``workers <= 1`` degenerates to a serial loop.  Parallel and
        serial runs return bit-identical relations (asserted by the
        differential sweep) because each query is independent and the
        shared registry, recorder and plan cache are internally locked.
        """
        from .parallel.executor import run_ordered

        return run_ordered(queries, self.query, workers)

    def explain(self, sql: Union[str, SelectQuery]) -> str:
        """Describe how a query would be executed."""
        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, SelectQuery):
            return str(query)
        nesting = classify(query, self.catalog)
        artifact = self._plan_template(query)
        body = (
            artifact.plan.explain()
            if artifact.kind == "memory"
            else "naive nested-loop evaluation"
        )
        return f"nesting type: {nesting.value}\n{body}"

    def explain_analyze(
        self,
        sql: Union[str, SelectQuery],
        shards: Optional[int] = None,
        shard_on: Optional[str] = None,
    ) -> str:
        """Run a query fully instrumented on the storage engine.

        The catalog's tables are materialized into a scratch
        :class:`~repro.session.StorageSession` (heap files on a simulated
        disk), the query runs there with a
        :class:`~repro.observe.metrics.QueryMetrics` collector attached,
        and the report shows the fired rewrite, the physical plan with
        each operator's counted rows, sort shapes, buffer behaviour, and
        per-phase I/O counts.  With ``shards=N`` the
        scratch session is sharded (placement on ``shard_on``) and the
        report gains the ``shard i [lo, hi)`` table and failover counts.
        """
        session = self._storage_session(shards=shards, shard_on=shard_on)
        return session.explain_analyze(self._select(sql))

    def _storage_session(
        self, shards: Optional[int] = None, shard_on: Optional[str] = None
    ):
        """A scratch storage session over the catalog's current contents."""
        from .session import StorageSession

        session = StorageSession(
            vocabulary=self.catalog.vocabulary,
            aggregate_policy=self.aggregate_policy,
            shards=shards if shards is not None else 1,
            shard_on=shard_on,
        )
        for name in self.catalog.names():
            session.register(name, self.catalog.get(name))
        return session

    def trace(self, sql: Union[str, SelectQuery]):
        """Run a query on the storage engine and return its span tracer.

        Like :meth:`explain_analyze`, the catalog is materialized into a
        scratch :class:`~repro.session.StorageSession`; the returned
        :class:`~repro.observe.trace.SpanTracer` — the run's collector's —
        holds the span tree
        (``render_tree()``) and exports Chrome ``trace_event`` JSON
        (``export(path)``).
        """
        return self._storage_session().trace(self._select(sql))

    def _make_evaluator(self, catalog: Catalog) -> NaiveEvaluator:
        return NaiveEvaluator(
            catalog,
            aggregate_policy=self.aggregate_policy,
            similarity=self.similarity,
        )

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def _create(self, statement: CreateTable) -> str:
        if statement.name in self.catalog:
            raise DatabaseError(f"table {statement.name!r} already exists")
        attrs = []
        for column in statement.columns:
            attr_type = (
                AttributeType.LABEL if column.type_name == "LABEL" else AttributeType.NUMERIC
            )
            attrs.append(Attribute(column.name, attr_type, column.domain))
        self.catalog.register(statement.name, FuzzyRelation(Schema(attrs)))
        self._schema_epoch += 1
        return f"table {statement.name} created"

    def _insert(self, statement: InsertInto) -> str:
        relation = self._table(statement.table)
        degree = statement.degree if statement.degree is not None else 1.0
        for row in statement.rows:
            if len(row) != len(relation.schema):
                raise DatabaseError(
                    f"row has {len(row)} values but {statement.table} has "
                    f"{len(relation.schema)} attributes"
                )
            values = [
                parse_value(raw, self.catalog.vocabulary, attr.domain)
                for raw, attr in zip(row, relation.schema.attributes)
            ]
            relation.add(FuzzyTuple(values, degree))
        n = len(statement.rows)
        return f"{n} tuple{'s' if n != 1 else ''} inserted into {statement.table}"

    def _update(self, statement: Update) -> str:
        """Rewrite matching rows in place; a DML counts as an epoch bump.

        A row matches when ``min(degree, mu(WHERE))`` clears the ``WITH
        D >= z`` threshold (any positive match without one).  Updated
        rows keep their membership degree.
        """
        relation = self._table(statement.table)
        schema = relation.schema
        match = self._dml_match(statement.table, relation, statement.where)
        threshold = statement.threshold
        fresh = FuzzyRelation(schema)
        changed = 0
        for t in relation:
            d = min(t.degree, match(t))
            hit = (d >= threshold) if threshold is not None else (d > 0.0)
            if not hit:
                fresh.add(t)
                continue
            values = list(t.values)
            for column, raw in statement.assignments:
                try:
                    at = schema.index_of(column)
                except KeyError as exc:
                    raise DatabaseError(str(exc)) from None
                values[at] = parse_value(
                    raw, self.catalog.vocabulary, schema.attributes[at].domain
                )
            fresh.add(FuzzyTuple(values, t.degree))
            changed += 1
        self.catalog.register(statement.table, fresh)
        self._schema_epoch += 1
        return f"{changed} tuple{'s' if changed != 1 else ''} updated in {statement.table}"

    def _delete(self, statement: DeleteFrom) -> str:
        """Remove matching rows; a DML counts as an epoch bump."""
        relation = self._table(statement.table)
        match = self._dml_match(statement.table, relation, statement.where)
        threshold = statement.threshold
        fresh = FuzzyRelation(relation.schema)
        removed = 0
        for t in relation:
            d = min(t.degree, match(t))
            hit = (d >= threshold) if threshold is not None else (d > 0.0)
            if hit:
                removed += 1
            else:
                fresh.add(t)
        self.catalog.register(statement.table, fresh)
        self._schema_epoch += 1
        return f"{removed} tuple{'s' if removed != 1 else ''} deleted from {statement.table}"

    def _dml_match(self, table_as_typed: str, relation: FuzzyRelation, where):
        """Compile the WHERE conjunction of an UPDATE / DELETE.

        Only flat comparisons are accepted; column references may be
        unqualified or qualified by the table name (as typed or upper).
        """
        columns = DmlColumns(
            {None, table_as_typed, table_as_typed.upper()}, relation.schema
        )
        try:
            return compile_conjunction(
                where or (), columns, columns, self.catalog.vocabulary
            )
        except CompileError as exc:
            raise DatabaseError(f"UPDATE/DELETE WHERE: {exc}") from None

    def _define(self, statement: DefineTerm) -> str:
        value = parse_value(statement.shape, self.catalog.vocabulary, statement.domain)
        self.catalog.vocabulary.define(statement.term, value, statement.domain)
        # Redefining a term changes what cached plans would compute.
        self._schema_epoch += 1
        where = f" on {statement.domain}" if statement.domain else ""
        return f"term '{statement.term}' defined{where}"

    def _drop(self, statement: DropTable) -> str:
        self._table(statement.name)  # raises if absent
        self.catalog.remove(statement.name)
        self._schema_epoch += 1
        return f"table {statement.name} dropped"

    # ------------------------------------------------------------------
    # Programmatic access
    # ------------------------------------------------------------------
    def _table(self, name: str) -> FuzzyRelation:
        try:
            return self.catalog.get(name)
        except KeyError:
            raise DatabaseError(f"no table {name!r}") from None

    def register(self, name: str, relation: FuzzyRelation) -> None:
        """Register a programmatically built relation."""
        self.catalog.register(name, relation)
        self._schema_epoch += 1

    def table(self, name: str) -> FuzzyRelation:
        """The relation stored under ``name``."""
        return self._table(name)

    def tables(self) -> List[str]:
        """Sorted names of every stored table."""
        return self.catalog.names()

    def __contains__(self, name: str) -> bool:
        return name in self.catalog

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist tables and vocabulary as JSON under ``path``."""
        from .persist import save_database

        save_database(self, path)

    @classmethod
    def load(cls, path, **kwargs) -> "FuzzyDatabase":
        """Reconstruct a database saved with :meth:`save`."""
        from .persist import load_database

        return load_database(path, **kwargs)
