"""The statement lifecycle both front doors share.

Every SELECT — SQL text, a parsed AST, or a :class:`PreparedQuery` being
executed — goes through the same stages, on
:class:`~repro.session.StorageSession` and :class:`~repro.db.FuzzyDatabase`
alike::

    text -> cache lookup -> prepare -> artifact -> run -> observe

:class:`StatementLifecycle` owns the stages that do not depend on the
engine (lookup, the collector and its ``query`` span — the query's one
clock — the one :class:`~repro.observe.recorder.QueryEvent` handed to the
workload sinks, failure recording, health); a front door supplies three
hooks, which see only the collector (``None``: uninstrumented) and open
their spans in its tree with :func:`~repro.observe.trace.maybe_span`:

``_prepare(statement, metrics, text)``
    parse + classify + plan, returning a :class:`PreparedQuery`;
``_run_prepared(prepared, params, collector, **options)``
    execute the prepared artifact (the door's one runner);
``_plan_tokens(names)``
    the validation tokens plan-cache entries are checked against.
"""

from __future__ import annotations

from typing import Optional

from ..errors import FuzzyQueryError, QueryCancelledError, QueryTimeoutError
from ..observe.health import HealthReport, HealthThresholds, evaluate_health
from ..observe.metrics import QueryMetrics
from ..observe.recorder import build_event
from ..observe.trace import maybe_span
from ..sql.params import ParameterError, referenced_tables
from .plancache import normalize_sql
from .prepared import PreparedQuery


class StatementLifecycle:
    """Plan-cache lookup, instrumentation and observation of one SELECT."""

    #: The typed error this door raises for its own misuse.
    error = FuzzyQueryError
    #: Workload-level sinks: a :class:`~repro.observe.registry.MetricsRegistry`
    #: (lifetime counters) and/or a
    #: :class:`~repro.observe.recorder.FlightRecorder` (the query ring the
    #: slow-query report and :meth:`health` read).  Both receive the same
    #: :class:`~repro.observe.recorder.QueryEvent` for every query.
    registry = None
    recorder = None
    #: LRU cache of prepared plans for textual queries (``None``: off).
    plan_cache = None
    #: The compiled operator tree of the last query, when it had one.
    last_plan = None
    #: The collector of the last instrumented run, if there was one.
    last_metrics: Optional[QueryMetrics] = None

    def prepare(self, sql) -> PreparedQuery:
        """Parse, classify, and plan a SELECT once; execute many times.

        The statement may contain ``?`` placeholders (anywhere a literal
        is legal, and as the ``WITH D >= ?`` threshold); bind one value
        per placeholder at each
        :meth:`~repro.service.prepared.PreparedQuery.execute`.  Statements
        without placeholders also keep their execution plan, so repeated
        executions skip the Theorem 4.1–8.1 rewrite and compilation.
        """
        prepared = self._prepare(sql)
        if self.registry is not None:
            self.registry.count_prepared()
        return prepared

    def _resolve(self, statement, collector, text):
        """``(PreparedQuery, plan-cache outcome)`` for any statement form.

        Text goes through the :attr:`plan_cache`; a parsed AST (or any
        statement on a cache-less door) is prepared for this one run.
        """
        if isinstance(statement, PreparedQuery):
            return statement, None
        prepared = outcome = None
        cached = text is not None and self.plan_cache is not None
        if cached:
            key = normalize_sql(text)
            prepared, outcome = self.plan_cache.lookup(key, self._plan_tokens)
        if prepared is None:
            prepared = self._prepare(statement, collector, text)
            if prepared.param_count:
                raise ParameterError(
                    "query() cannot run a statement with ? placeholders; "
                    "use prepare() and bind values per execution"
                )
            if cached:
                tokens = self._plan_tokens(referenced_tables(prepared.template))
                self.plan_cache.store(key, prepared, tokens)
        return prepared, outcome

    def _run_statement(
        self, statement, params=(), metrics=None, tracer=None, text=None, **options
    ):
        """Run one SELECT through the lifecycle; ``options`` reach the runner.

        A collector is created only when someone will read it (``metrics``,
        ``tracer`` or an attached sink); a ``tracer`` is installed as the
        collector's span tree.  With none of them, nothing beyond the
        lookup and the runner executes.  The ``query`` span opened here is
        the query's one clock: the event's wall time is its duration.
        Failed queries are folded into the sinks with their typed outcome
        before the error propagates.
        """
        if text is None and isinstance(statement, str):
            text = statement
        collector = metrics
        if collector is None and (
            tracer is not None or self.registry is not None or self.recorder is not None
        ):
            collector = QueryMetrics()
        if tracer is not None:
            collector.tracer = tracer
        self.last_metrics = collector
        self.last_plan = None
        prepared = span = None
        try:
            with maybe_span(collector, "query") as span:
                prepared, outcome = self._resolve(statement, collector, text)
                if collector is not None:
                    collector.nesting_type = prepared.nesting.value
                    # Only explicit PreparedQuery.execute calls count as
                    # prepared executions, not plan-cache hits of query().
                    collector.prepared = prepared is statement
                    collector.plan_cache = outcome
                result = self._run_prepared(prepared, params, collector, **options)
        except FuzzyQueryError as exc:
            label = prepared.sql_text if prepared is not None else text or str(statement)
            self._record_failure(label, collector, span, exc)
            raise
        prepared.executions += 1
        self._observe_query(prepared.sql_text, collector, span, len(result))
        return result

    def _observe_query(self, sql_text, collector, span, rows, error="") -> None:
        """Hand one finished query to every attached workload sink.

        The single funnel: one :class:`~repro.observe.recorder.QueryEvent`
        is built from the collector, its wall time read from the query's
        ``span``, and both the registry and the flight recorder receive
        that same event, so they agree on query counts, statement identity
        and every total.  No event is built when no sink is attached.
        """
        if collector is None or (self.registry is None and self.recorder is None):
            return
        event = build_event(sql_text, collector, span.seconds, rows, error)
        if self.registry is not None:
            self.registry.observe(event)
        if self.recorder is not None:
            self.recorder.record(event)

    def _record_failure(self, sql_text, collector, span, exc) -> None:
        """Fold a failed query into the sinks with its typed outcome."""
        if self.registry is not None:
            self.registry.count_error(type(exc).__name__)
        if collector is None:
            return
        if isinstance(exc, QueryTimeoutError):
            collector.outcome = "timeout"
        elif isinstance(exc, QueryCancelledError):
            collector.outcome = "cancelled"
        else:
            collector.outcome = "error"
        self._observe_query(sql_text, collector, span, 0, error=type(exc).__name__)

    def health(
        self,
        thresholds: Optional[HealthThresholds] = None,
        last: Optional[int] = None,
    ) -> HealthReport:
        """Evaluate the health rules over this door's recorded queries.

        The report covers the :attr:`recorder`'s retained events, or the
        ``last`` N of them.  Raises the door's typed :attr:`error` when no
        recorder is attached — there is nothing to judge.
        """
        if self.recorder is None:
            raise self.error(
                "health() needs a flight recorder attached "
                "(assign .recorder = FlightRecorder())"
            )
        return evaluate_health(self.recorder.events(last), thresholds)
