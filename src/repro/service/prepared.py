"""Prepared queries: the front-end pipeline run once, executed many times.

A :class:`PreparedQuery` is what every SELECT becomes before it runs —
``StorageSession.prepare(sql)`` / ``FuzzyDatabase.prepare(sql)`` hand one
to the caller, a plan-cache entry holds one, and a parsed AST or a
cache-less ``query()`` builds one for that single run (see
:mod:`repro.service.lifecycle`).  It owns the parsed template (which may
contain ``?`` placeholders, including ``WITH D >= ?``), the nesting
classification, and a :class:`PlanArtifact` describing how far the
planner got ahead of time; the owning door's one runner executes it:

============ ========================================================
kind         what is kept / what happens per execution
============ ========================================================
``flat``     the unnested single-block query (and, when the statement
             has no placeholders, the compiled merge-join operator
             tree); executions with placeholders bind values then
             recompile the predicate closures only.
``grouped``  the operator tree of the Sections 5/7 fold: a
             :class:`~repro.engine.grouped.GroupedAntiJoin` over two
             scans, under a ``Threshold`` when the statement has an
             outer ``WITH D >= z``; placeholder-free statements only.
``ja``       the operator tree of the Section 6 pipeline
             (:class:`~repro.engine.pipelined.JAPipeline`), same shape;
             placeholder-free statements only.
``memory``   an :class:`~repro.unnest.pipeline.UnnestedPlan` for the
             in-memory :class:`~repro.db.FuzzyDatabase` engine.
``deferred`` nothing beyond parse + classification: bind, plan, run —
             the runner plans the bound query for that execution only
             (used when predicate closures would bake placeholder
             values in).
``naive``    parse + classification only; executions bind and run the
             naive nested-loop evaluator — the statement has no
             unnested form (GENERAL, type A, multi-correlation JA).
============ ========================================================

``flat``, ``grouped`` and ``ja`` artifacts all run the same way: the
runner calls ``operator.to_relation(ctx)``.

Executing a prepared query never re-enters the lexer, parser, or binder
(nor, except for ``deferred``, the rewriter) — the acceptance test
asserts exactly that via tracer spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..sql.ast import SelectQuery
from ..sql.params import ParameterError, bind_parameters


@dataclass
class PlanArtifact:
    """What the planner pre-computed for one prepared statement."""

    kind: str
    #: ``flat``: the unnested single-block template (placeholders intact).
    flat: Optional[SelectQuery] = None
    #: Which rewrite fired (EXPLAIN/metrics label).
    rule: str = ""
    #: ``flat`` with no placeholders, ``grouped``, ``ja``: the operator tree.
    operator: object = None
    #: The strategy string the run will report (``last_strategy``, EXPLAIN).
    strategy: str = ""
    #: ``memory``: the :class:`UnnestedPlan` for the in-memory engine.
    plan: object = None
    #: ``naive``: why the planner refused every unnested form (EXPLAIN's
    #: ``refused:`` line; empty when no rewrite was tried).
    refused: str = ""


class PreparedQuery:
    """A statement prepared once and run many times.

    Obtained from ``session.prepare(sql)``; call :meth:`execute` with one
    positional value per ``?`` placeholder (numbered left to right in
    text order, the ``WITH D >= ?`` threshold included)::

        stmt = session.prepare(
            "SELECT R.K FROM R WHERE R.V = ? WITH D >= ?")
        strict = stmt.execute(["tall", 0.8])
        lenient = stmt.execute(["tall", 0.2])

    A prepared query is bound to the session that created it and remains
    valid across data changes — unlike a plan-cache entry it is *not*
    invalidated when statistics move, because its rewrite is structural
    and the leaves of its operator tree bind to the live table and index
    versions at each execution: after any INSERT / UPDATE / DELETE it
    returns what a fresh ``query()`` returns (only the plan's shape dates
    from ``prepare()``).  Executing it after its table was dropped raises
    :class:`~repro.errors.FuzzyQueryError`.
    Concurrent ``execute`` calls on one instance are safe under the
    session's thread-safety contract (see ``docs/query_service.md``).
    """

    def __init__(
        self,
        owner: object,
        sql_text: str,
        template: SelectQuery,
        nesting: object,
        param_count: int,
        artifact: PlanArtifact,
    ):
        self._owner = owner
        self.sql_text = sql_text
        self.template = template
        self.nesting = nesting
        self.param_count = param_count
        self.artifact = artifact
        #: How many times this statement has been executed.
        self.executions = 0

    def bind(self, params: Sequence = ()) -> SelectQuery:
        """The template with ``params`` substituted for its placeholders.

        Raises :class:`~repro.sql.params.ParameterError` unless exactly
        ``param_count`` values are supplied.
        """
        self.check_arity(params)
        if not self.param_count:
            return self.template
        return bind_parameters(self.template, params)

    def check_arity(self, params: Sequence) -> None:
        """Fail loudly on a placeholder/value count mismatch."""
        if len(params) != self.param_count:
            raise ParameterError(
                f"statement has {self.param_count} placeholder(s) "
                f"but {len(params)} value(s) were bound"
            )

    def execute(self, params: Sequence = (), metrics=None, tracer=None):
        """Run the prepared statement with ``params`` bound.

        Returns a :class:`~repro.data.relation.FuzzyRelation`, exactly as
        the owning session's ``query()`` would — but without re-parsing,
        re-binding, or re-rewriting the statement.
        """
        self.check_arity(params)
        return self._owner._run_statement(
            self, tuple(params), metrics=metrics, tracer=tracer
        )

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.sql_text!r}, params={self.param_count}, "
            f"kind={self.artifact.kind!r}, executions={self.executions})"
        )
