"""The planner as a module: no session, no I/O, one dissection per statement.

``repro.planner.plan`` is a pure function of (statement, nesting type,
catalog view).  These tests plan every nesting type — and a
``?``-parameterised form of each family — against heap files on a bare
disk, through a stub catalog, with the disk's ledger attached: planning
must not transfer a page.  Kind, rule and strategy are pinned literally,
and the rendered artifact must be exactly what ``session.explain()``
prints for the same statement.
"""

import random
from types import SimpleNamespace

import pytest

import repro.planner
import repro.session
from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine.aggregates import DegreePolicy
from repro.fuzzy import CrispNumber as N
from repro.planner import plan
from repro.session import StorageSession
from repro.sql.classify import classify
from repro.sql.params import count_parameters
from repro.sql.parser import parse
from repro.storage import HeapFile, OperationStats, SimulatedDisk
from repro.unnest import rewriter

SCHEMA = Schema(["K", "U", "V"])

IN_RULE = "IN -> flat equi-join (Theorems 4.1/4.2)"
JX_RULE = "NOT IN -> grouped anti-join min-fold (Section 5)"
JALL_RULE = "op ALL -> doubly-negated grouped fold (Section 7)"
JA_RULE = "correlated aggregate -> pipelined T1/T2 merge pass (Section 6)"
NAIVE_RULE = "none (naive fallback)"
DEFERRED = "planned per execution, once the placeholders are bound"

#: label -> (sql, kind, rule, strategy, root of the operator tree or None)
CASES = {
    "N": (
        "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
        "flat", IN_RULE, "flat/N: merge-join plan", "Threshold",
    ),
    "J": (
        "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
        "flat", IN_RULE, "flat/J: merge-join plan", "Threshold",
    ),
    "SOME": (
        "SELECT R.K FROM R WHERE R.V < SOME (SELECT S.V FROM S)",
        "flat", "SOME -> flat <-join (Section 4)", "flat/SOME: merge-join plan", "Threshold",
    ),
    "JX": (
        "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
        "grouped", JX_RULE, "grouped/JX: merge-join min-fold", "GroupedAntiJoin",
    ),
    "JALL": (
        "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U) WITH D >= 0.5",
        "grouped", JALL_RULE, "grouped/JALL: merge-join min-fold", "Threshold",
    ),
    "JA": (
        "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
        "ja", JA_RULE, "pipelined/JA: T1/T2 merge pass", "JAPipeline",
    ),
    "chain": (
        "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U IN "
        "(SELECT W.U FROM W WHERE W.V = R.V))",
        "flat", "K-level chain -> single flat join (Theorem 8.1)",
        "flat/chain: merge-join plan", "Threshold",
    ),
    "A": (
        "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S)",
        "naive", NAIVE_RULE, "naive/A: in-memory nested evaluation", None,
    ),
    "general": (
        "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)",
        "naive", NAIVE_RULE, "naive/general: in-memory nested evaluation", None,
    ),
    "flat?": (
        "SELECT R.K FROM R WHERE R.U > ? AND R.V IN "
        "(SELECT S.V FROM S WHERE S.U = R.U) WITH D >= ?",
        "flat", IN_RULE, "flat/J: merge-join plan", None,
    ),
    "grouped?": (
        "SELECT R.K FROM R WHERE R.U > ? AND R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
        "deferred", "", DEFERRED, None,
    ),
    "ja?": (
        "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U AND S.K < ?)",
        "deferred", "", DEFERRED, None,
    ),
    "general?": (
        "SELECT R.K FROM R WHERE R.U > ? AND EXISTS (SELECT S.K FROM S WHERE S.U = R.U)",
        "naive", NAIVE_RULE, "naive/general: in-memory nested evaluation", None,
    ),
}


def relations():
    rng = random.Random(5)
    return {
        name: FuzzyRelation(
            SCHEMA,
            [
                FuzzyTuple([N(i), N(rng.randrange(4)), N(rng.randrange(6))], 1.0)
                for i in range(12)
            ],
        )
        for name in "RSW"
    }


@pytest.fixture(scope="module")
def stub():
    """A catalog view over heap files on a bare disk: no session anywhere."""
    disk = SimulatedDisk(page_size=512)
    schemas = Catalog()
    tables = {}
    for name, relation in relations().items():
        tables[name] = HeapFile.from_relation(name, relation, disk)
        schemas.register(name, FuzzyRelation(relation.schema))
    catalog = SimpleNamespace(
        schemas=schemas, tables=tables, indexes={}, aggregate_policy=DegreePolicy.ONE
    )
    return disk, catalog


@pytest.fixture(scope="module")
def session():
    session = StorageSession(page_size=512)
    for name, relation in relations().items():
        session.register(name, relation)
    return session


def explain_text(nesting, artifact) -> str:
    """What ``StorageSession.explain`` prints for ``artifact``."""
    lines = [f"nesting type: {nesting.value}"]
    if artifact.rule:
        lines.append(f"rewrite: {artifact.rule}")
    if artifact.refused:
        lines.append(f"refused: {artifact.refused}")
    lines.append(f"strategy: {artifact.strategy}")
    if artifact.operator is not None:
        lines.append(artifact.operator.explain())
    return "\n".join(lines)


@pytest.mark.parametrize("label", sorted(CASES))
def test_plans_on_a_stub_catalog_with_zero_io(label, stub, request):
    sql, kind, rule, strategy, root = CASES[label]
    disk, catalog = stub
    ledger = OperationStats()
    with disk.use_stats(ledger):
        query = parse(sql)
        nesting = classify(query, catalog.schemas)
        artifact = plan(query, nesting, catalog, count_parameters(query))
    assert ledger.total.page_reads == 0 and ledger.total.page_writes == 0
    assert (artifact.kind, artifact.rule, artifact.strategy) == (kind, rule, strategy)
    if root is None:
        assert artifact.operator is None
    else:
        assert type(artifact.operator).__name__ == root
    # Only now is a session built (or fetched): planning never saw one.
    session = request.getfixturevalue("session")
    assert explain_text(nesting, artifact) == session.explain(sql)


#: The flat plans: a join that keeps no column of its new relation is a
#: max-fold, so N, J and SOME fold and the chain joins R-S, then folds W.
FLAT_PLANS = {
    "N": ["MaxFold(V = V)", "Scan(R, filter=true)", "Scan(S, filter=true)"],
    "J": ["MaxFold(V = V)", "Scan(R, filter=true)", "Scan(S, filter=true)"],
    "SOME": ["NestedLoopMaxFold(S)", "Scan(R, filter=true)", "Scan(S, filter=true)"],
    "chain": [
        "MaxFold(U = U)", "MergeJoin(V = V)", "Scan(R, filter=true)",
        "Scan(S, filter=true)", "Scan(W, filter=true)",
    ],
}


@pytest.mark.parametrize("label", sorted(FLAT_PLANS))
def test_flat_plans_fold_the_relations_nobody_reads(label, stub):
    _disk, catalog = stub
    query = parse(CASES[label][0])
    artifact = plan(query, classify(query, catalog.schemas), catalog)
    lines = [line.strip() for line in artifact.operator.explain().splitlines()]
    assert lines == ["Threshold(D >= 0.0)", "Project(K)"] + FLAT_PLANS[label]
    if label == "chain":
        # R-S carries only what is read above it: R.K, R.V and S.U.
        pairs = artifact.operator.child.child.left
        assert [a.name for a in pairs.schema] == ["K", "V", "U"]


def test_planned_leaves_remember_their_catalog_name(stub):
    _disk, catalog = stub
    for label in ("J", "JX", "JA", "chain"):
        query = parse(CASES[label][0])
        artifact = plan(query, classify(query, catalog.schemas), catalog)
        stack, leaves = [artifact.operator], []
        while stack:
            op = stack.pop()
            stack.extend(op.children())
            if not op.children():
                leaves.append(op)
        assert leaves and all(
            leaf.heap is catalog.tables[leaf.table] for leaf in leaves
        ), label


@pytest.mark.parametrize("label", sorted(CASES))
def test_one_classify_and_at_most_one_unnest_per_statement(label, session, monkeypatch):
    """Each planned statement is classified once and rewritten at most once."""
    calls = {"classify": 0, "unnest": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_classify = counting("classify", classify)
    monkeypatch.setattr(repro.session, "classify", counted_classify)
    monkeypatch.setattr(rewriter, "classify", counted_classify)
    monkeypatch.setattr(repro.planner, "unnest", counting("unnest", rewriter.unnest))
    sql, kind = CASES[label][:2]
    expected = {"classify": 1, "unnest": 1 if kind == "flat" else 0}
    session.explain(sql)
    assert calls == expected
    if "?" not in sql:
        # Plan *and* run: a parsed statement bypasses the plan cache.
        calls.update(classify=0, unnest=0)
        session.query(parse(sql))
        assert calls == expected
