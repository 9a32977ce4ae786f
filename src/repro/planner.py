"""The planner: statement + nesting type + catalog view -> plan artifact.

The paper gives every nesting type exactly one unnested form (Theorems
4.1–8.1) and one evaluation (the ``Rng(r)`` band scan), so which plan runs
is a pure function of the statement and the catalog.  This module is that
function, and the only place on the storage door that knows nesting types:

* flat / type N / J / SOME / chain  → :func:`~repro.unnest.rewriter.unnest`
  to one flat query, compiled by :class:`~repro.engine.executor.FlatCompiler`
  (merge joins with selection pushdown, index access paths);
* type XN / JX (NOT IN), ALL / JALL → the Section 5 / 7 grouped fold
  (:class:`~repro.engine.grouped.GroupedAntiJoin`);
* type JA with one equality correlation → the Section 6 pipelined
  T1/T2/JA' merge pass (:class:`~repro.engine.pipelined.JAPipeline`);
* everything else (GENERAL, type A, exotic JA shapes) → a ``naive``
  artifact: the statement has no unnested form, and the artifact says
  which rule refused it (``refused``, EXPLAIN's ``refused:`` line).

Planning does no disk I/O and needs no session.  The *catalog view* is any
object with ``schemas`` (the schema-only :class:`~repro.data.catalog.Catalog`,
vocabulary included), ``tables`` and ``indexes`` (heap files by ``TABLE``,
clustered copies by ``(TABLE, attribute)``) and
``aggregate_policy`` — :class:`~repro.session.StorageSession` passes
itself, a unit test a stub.  Every leaf built here remembers the catalog
name it was planned for and binds to that table's live heap — or, for a
band-join leaf whose table is indexed on its band attribute, the live
clustered copy — at execution (:func:`~repro.engine.operators.live_heap`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from .engine.executor import CompileError, FlatCompiler, compile_conjunction
from .engine.grouped import CrossSpec, GroupedAntiJoin, GroupMode
from .engine.operators import BandFold, Operator, Scan, Threshold, cluster
from .engine.pipelined import JAPipeline
from .fuzzy.compare import Op
from .observe.trace import maybe_span
from .service.prepared import PlanArtifact, PreparedQuery
from .sql.ast import ColumnRef, SelectQuery, TableRef
from .sql.classify import NestingType
from .sql.params import bind_parameters
from .unnest import type_jall, type_jx
from .unnest.common import (
    UnnestError,
    qualify,
    single_select_column,
    single_table,
    split_correlation,
    split_nesting_predicate,
)
from .unnest.rewriter import unnest

#: Nesting types whose rewrite is one flat query (Theorems 4.1, 4.2, 8.1).
FLAT_TYPES = {
    NestingType.FLAT,
    NestingType.TYPE_N,
    NestingType.TYPE_J,
    NestingType.TYPE_SOME,
    NestingType.TYPE_JSOME,
    NestingType.CHAIN,
}

#: Why the types with neither a flat nor a fold form are refused.
REFUSED = {
    NestingType.TYPE_A: "the Type A rewrite has a step: not a single flat query",
    NestingType.GENERAL: "no rewrite for nesting type general",
}

#: Nesting types answered by the Section 5 / 7 grouped fold: its mode and
#: the rewrite label, which the in-memory rewrite of the same type owns.
GROUPED = {
    NestingType.TYPE_XN: (GroupMode.NOT_IN, type_jx.RULE),
    NestingType.TYPE_JX: (GroupMode.NOT_IN, type_jx.RULE),
    NestingType.TYPE_ALL: (GroupMode.ALL, type_jall.RULE),
    NestingType.TYPE_JALL: (GroupMode.ALL, type_jall.RULE),
}

JA_RULE = "correlated aggregate -> pipelined T1/T2 merge pass (Section 6)"


def plan(
    query: SelectQuery,
    nesting: NestingType,
    catalog,
    n_params: int = 0,
    metrics=None,
) -> PlanArtifact:
    """Plan one statement as far as it allows: rewrite, build, compile.

    The artifact names the strategy the runner will take and carries the
    operator tree built for it.  Strategies whose predicate compilation
    bakes literal values in (the grouped and pipelined folds) cannot be
    pre-built for parameterized statements; those are ``deferred`` and
    planned by :func:`finish` once the values are bound.
    """
    try:
        if nesting in FLAT_TYPES:
            with maybe_span(metrics, "rewrite"):
                unnested = unnest(query, catalog.schemas, nesting)
                if unnested.steps or not isinstance(unnested.final, SelectQuery):
                    raise UnnestError("not a single flat query")
            operator = None
            if n_params == 0:
                with maybe_span(metrics, "compile"):
                    operator = _compile(unnested.final, catalog)
            return PlanArtifact(
                "flat",
                flat=unnested.final,
                rule=unnested.rule or unnested.nesting_type,
                strategy=f"flat/{nesting.value}: merge-join plan",
                operator=operator,
            )
        if nesting in GROUPED or nesting is NestingType.TYPE_JA:
            if n_params:
                return PlanArtifact(
                    "deferred",
                    strategy="planned per execution, once the placeholders are bound",
                )
            with maybe_span(metrics, "rewrite"):
                if nesting is NestingType.TYPE_JA:
                    return _plan_ja(query, nesting, catalog)
                return _plan_grouped(query, nesting, catalog)
    except (UnnestError, CompileError) as refusal:
        return naive(nesting, str(refusal))
    return naive(nesting, REFUSED[nesting])


def naive(nesting: NestingType, reason: str = "") -> PlanArtifact:
    """The artifact of a statement with no unnested form; ``reason`` says
    which rule refused it."""
    return PlanArtifact(
        "naive",
        rule="none (naive fallback)",
        strategy=f"naive/{nesting.value}: in-memory nested evaluation",
        refused=reason,
    )


def finish(
    prepared: PreparedQuery,
    params: tuple,
    catalog,
    metrics=None,
) -> Tuple[SelectQuery, PlanArtifact]:
    """Bind ``params`` and complete what :func:`plan` had to leave open.

    Returns the bound query and the artifact to run: its ``operator`` is
    the tree to execute, or it is ``naive``.  A prepared artifact never
    re-enters the parser or binder; only the value substitution and, for
    parameterized statements, predicate compilation (flat) or the fold
    construction (``deferred``) happen per execution.
    """
    query, artifact = prepared.template, prepared.artifact
    if not prepared.param_count:
        return query, artifact
    with maybe_span(metrics, "bind-params"):
        query = prepared.bind(params)
        flat = artifact.flat
        if flat is not None:
            flat = bind_parameters(flat, params)
    if artifact.kind == "deferred":
        return query, plan(query, prepared.nesting, catalog, 0, metrics)
    if artifact.kind == "flat":
        try:
            with maybe_span(metrics, "compile"):
                return query, replace(artifact, operator=_compile(flat, catalog))
        except CompileError as refusal:
            # The bound values left the unnested fragment.
            return query, naive(prepared.nesting, str(refusal))
    return query, artifact


def _compile(flat: SelectQuery, catalog) -> Operator:
    compiler = FlatCompiler(catalog.tables, catalog.schemas.vocabulary, catalog.indexes)
    return compiler.compile(flat)


# ----------------------------------------------------------------------
# The Section 5–7 folds: one outer block, one inner block
# ----------------------------------------------------------------------
def _plan_grouped(query: SelectQuery, nesting: NestingType, catalog) -> PlanArtifact:
    """The Section 5 / 7 fold tree of a NOT IN / op ALL statement."""
    mode, rule = GROUPED[nesting]
    outer, inner, p1, p2, cross, predicate, project_attrs = _dissect(query, catalog)
    z_attr = single_select_column(predicate.query).attribute
    op = Op.EQ if mode is GroupMode.NOT_IN else predicate.op
    fold = GroupedAntiJoin(
        outer,
        inner,
        mode,
        (predicate.column.attribute, op, z_attr),
        cross=cross,
        p1=p1,
        p2=p2,
        project_attrs=project_attrs,
    )
    band = "merge-join" if fold.band else "nested-loop"
    return PlanArtifact(
        "grouped",
        operator=_with_cut(_clustered(fold, fold.band, catalog), query),
        strategy=f"grouped/{nesting.value}: {band} min-fold",
        rule=rule,
    )


def _plan_ja(query: SelectQuery, nesting: NestingType, catalog) -> PlanArtifact:
    """The Section 6 pipeline tree of a correlated-aggregate statement."""
    outer, inner, p1, p2, cross, predicate, project_attrs = _dissect(query, catalog)
    if len(cross) != 1 or cross[0][1] is not Op.EQ:
        raise CompileError("the pipeline needs exactly one equality correlation")
    u_attr, _, v_attr = cross[0]
    aggregate = predicate.query.select[0]
    pipeline = JAPipeline(
        outer,
        inner,
        u_attr=u_attr,
        v_attr=v_attr,
        y_attr=predicate.column.attribute,
        op1=predicate.op,
        agg_func=aggregate.func,
        z_attr=aggregate.argument.attribute,
        project_attrs=project_attrs,
        p1=p1,
        p2=p2,
        policy=catalog.aggregate_policy,
    )
    return PlanArtifact(
        "ja",
        operator=_with_cut(_clustered(pipeline, (u_attr, v_attr), catalog), query),
        strategy=f"pipelined/{nesting.value}: T1/T2 merge pass",
        rule=JA_RULE,
    )


def _clustered(fold: BandFold, band: Optional[Tuple[str, str]], catalog) -> BandFold:
    """``fold`` with each leaf reading its table's copy clustered on its
    ``band`` attribute, where one exists: the merge-join skips that sort."""
    if band is not None:
        cluster(fold.outer, band[0], catalog.indexes)
        cluster(fold.inner, band[1], catalog.indexes)
    return fold


def _with_cut(fold: Operator, query: SelectQuery) -> Operator:
    """The outer ``WITH D >= z`` of ``query`` on top of its fold node."""
    z = query.with_threshold
    return fold if z in (None, 0.0) else Threshold(fold, z)


def _dissect(query: SelectQuery, catalog):
    """The pieces of a one-outer / one-inner nesting the folds evaluate.

    Returns the two name-bound leaves, ``p1`` / ``p2`` (the blocks' own
    predicates, compiled; ``None`` — not an always-1 closure — lets the
    folds skip the call), the correlation predicates as
    ``(outer attribute, op, inner attribute)``, the nesting predicate and
    the projected outer attributes.
    """
    schemas = catalog.schemas
    q = qualify(query, schemas)
    predicate, rest = split_nesting_predicate(q)
    block = predicate.query
    if block.group_by or block.distinct or block.with_threshold is not None:
        raise CompileError("inner block must be a plain select")
    if not all(isinstance(item, ColumnRef) for item in q.select):
        raise CompileError("select list must be plain columns")
    outer, inner = _leaf(single_table(q), catalog), _leaf(single_table(block), catalog)

    correlation, local = split_correlation(q, block, schemas)
    cross: List[CrossSpec] = []
    for comparison, outer_ref in correlation:
        # ``split_correlation`` normalizes to ``inner op outer``.
        if not isinstance(comparison.left, ColumnRef):
            raise CompileError("correlation must compare two columns")
        cross.append(
            (outer_ref.attribute, comparison.op.flipped(), comparison.left.attribute)
        )

    def conjunction(predicates, table: TableRef, leaf: Scan):
        if not predicates:
            return None
        columns = [(table.binding, a.name) for a in leaf.schema]
        domains = {(table.binding, a.name): a.domain for a in leaf.schema}
        return compile_conjunction(predicates, columns, domains, schemas.vocabulary)

    p1 = conjunction(rest, q.from_tables[0], outer)
    p2 = conjunction(local, block.from_tables[0], inner)
    return outer, inner, p1, p2, cross, predicate, [i.attribute for i in q.select]


def _leaf(table: TableRef, catalog) -> Scan:
    name = table.name.upper()
    return Scan(catalog.tables[name], table=name)
