"""Existential relations are max-folds: the keep / fold rule never changes an answer.

The flat plans of N, J, SOME and the chain read only ``R`` above their
last join, so that join keeps no column of its inner relation and runs as
a max-fold over the band scan (``docs/possibility_semantics.md``).  The
property below draws statements, values and session geometries and holds
every answer to :class:`~repro.engine.semantics.NaiveEvaluator`'s, tuple
for tuple; the deterministic tests pin what the fold no longer does.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.index import UnsupportedIndexError
from repro.data import Attribute, AttributeType, Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.data.tuples import FuzzyTuple as TupleClass
from repro.engine import NaiveEvaluator
from repro.engine.operators import JoinOp
from repro.join.merge_join import WINDOW_RUNG
from repro.join.nested_loop import NestedLoopJoin
from repro.join.predicates import MAX_FOLD
from repro.fuzzy import CrispLabel, CrispNumber, DiscreteDistribution, Op, TrapezoidalNumber
from repro.fuzzy import possibility
from repro.observe import QueryMetrics
from repro.session import StorageSession

N, T, D, L = CrispNumber, TrapezoidalNumber, DiscreteDistribution, CrispLabel

SHAPES = {
    "N": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S)",
    "J": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "SOME": "SELECT R.K FROM R WHERE {p}R.V < SOME (SELECT S.V FROM S)",
    "chain": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S WHERE S.U IN "
             "(SELECT W.U FROM W WHERE W.V = R.V))",
}

#: Small pools, so values repeat and join partially, fully or not at all.
POOLS = {
    "crisp": [N(0), N(1), N(2), N(4)],
    "trapezoid": [T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(6, 7, 8, 9)],
    "discrete": [D({0.0: 1.0, 2.0: 0.5}), D({2.0: 0.7}), D({4.0: 1.0, 5.0: 0.3}), N(2)],
    "label": [L("a"), L("b"), L("c")],
}

#: Session geometries: the window rung, sampled slices, a placement, the
#: ``adaptive=True`` keyword (accepted and inert) and the index access paths.
SESSIONS = ["plain", "window", "workers", "shards", "adaptive", "indexed"]


def schema(pool: str) -> Schema:
    kind = AttributeType.LABEL if pool == "label" else AttributeType.NUMERIC
    return Schema([Attribute("K"), Attribute("U", kind), Attribute("V", kind)])


@st.composite
def cases(draw, min_rows=0):
    """One statement and three relations of ``min_rows`` to 24 rows."""
    pool = draw(st.sampled_from(sorted(POOLS)))
    values = st.sampled_from(POOLS[pool])
    relations = {}
    for name in "RSW":
        relation = FuzzyRelation(schema(pool))
        # Keys from a small range: distinct rows that project to one answer.
        for _ in range(draw(st.integers(min_rows, 24))):
            relation.add(FuzzyTuple(
                [N(draw(st.integers(0, 5))), draw(values), draw(values)],
                draw(st.sampled_from([0.3, 0.6, 1.0])),
            ))
        relations[name] = relation
    k = draw(st.none() | st.integers(0, 5))
    z = draw(st.none() | st.sampled_from([0.3, 0.5, 0.8]))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    sql = SHAPES[shape].format(p="" if k is None else f"R.K >= {k} AND ")
    if z is not None:
        sql += f" WITH D >= {z}"
    return sql, relations


def session_for(geometry: str, relations) -> StorageSession:
    options = {
        "window": {"buffer_pages": 3, "page_size": 128},
        "shards": {"shards": 2, "shard_on": "V"},
        "adaptive": {"adaptive": True},
    }.get(geometry, {})
    session = StorageSession(**{"buffer_pages": 16, "page_size": 512, **options})
    for name, relation in relations.items():
        session.register(name, relation)
        if geometry == "indexed":
            for attribute in ("K", "U", "V"):
                try:
                    session.create_index(name, attribute)
                except UnsupportedIndexError:
                    pass  # discrete and label values have no support interval
    return session


@pytest.mark.parametrize("geometry", SESSIONS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_fold_answers_what_the_nested_statement_means(geometry, data):
    # Slices need rows enough to cut into two non-empty ones.
    sql, relations = data.draw(cases(12 if geometry in ("workers", "shards") else 0))
    catalog = Catalog()
    for name, relation in relations.items():
        catalog.register(name, relation)
    session = session_for(geometry, relations)
    got = session.query(sql, workers=2 if geometry == "workers" else None)
    assert session.last_strategy.startswith("flat/"), session.last_strategy
    expected = NaiveEvaluator(catalog).evaluate(sql)
    assert expected.same_as(got, 1e-9), (
        f"{sql} [{geometry}]\noracle:\n{expected.pretty()}\nsession:\n{got.pretty()}"
    )


# ----------------------------------------------------------------------
# What a fold no longer does
# ----------------------------------------------------------------------
def seeded(n=40, seed=3):
    rng = random.Random(seed)
    pool = POOLS["trapezoid"] + POOLS["crisp"]
    return {
        name: FuzzyRelation(schema("trapezoid"), [
            FuzzyTuple([N(i), rng.choice(pool), rng.choice(pool)], rng.choice([0.4, 1.0]))
            for i in range(n)
        ])
        for name in "RS"
    }


def joins(plan):
    stack, out = [plan], []
    while stack:
        op = stack.pop()
        stack.extend(op.children())
        if isinstance(op, JoinOp):
            out.append(op)
    return out


def test_n_and_j_build_no_pair(monkeypatch):
    relations = seeded()
    session = StorageSession(page_size=512)
    for name, relation in relations.items():
        session.register(name, relation)
    calls = []
    concat = TupleClass.concat
    monkeypatch.setattr(
        TupleClass, "concat", lambda self, *args: calls.append(1) or concat(self, *args)
    )
    r, s = list(relations["R"]), list(relations["S"])
    for shape in ("N", "J"):
        metrics = QueryMetrics()
        session.query(SHAPES[shape].format(p=""), metrics=metrics)
        (fold,) = joins(session.last_plan)
        assert fold.folds and calls == []

        def joins_at_all(t):
            return any(
                min(t.degree, u.degree, possibility(t[2], Op.EQ, u[2]))
                and (shape == "N" or possibility(u[1], Op.EQ, t[1]))
                for u in s
            )

        om = metrics.for_node(fold)
        assert om.rows_in == len(r)
        assert om.rows_out == sum(map(joins_at_all, r)) > 0


def test_the_chain_carries_three_columns_and_folds_w():
    relations = seeded()
    relations["W"] = seeded(seed=4)["R"]
    session = StorageSession(page_size=512)
    for name, relation in relations.items():
        session.register(name, relation)
    session.query(SHAPES["chain"].format(p=""))
    fold, pairs = sorted(joins(session.last_plan), key=lambda op: not op.folds)
    assert fold.folds and fold.left is pairs and not pairs.folds
    assert len(pairs.schema) == 3 and len(fold.schema) == 1


def test_the_window_rung_runs_the_max_fold_on_the_nested_loop(monkeypatch):
    """A session reaches ``NestedLoopJoin.fold`` with the max-fold: a band
    scan whose window outgrew the buffer finishes on the nested loop."""
    relations = seeded()
    session = StorageSession(buffer_pages=3, page_size=128)
    catalog = Catalog()
    for name, relation in relations.items():
        session.register(name, relation)
        catalog.register(name, relation)
    steps = []
    fold = NestedLoopJoin.fold
    monkeypatch.setattr(
        NestedLoopJoin, "fold",
        lambda self, outer, inner, pair_degree, init, step, *rest, **kw:
            steps.append(step) or fold(self, outer, inner, pair_degree, init, step, *rest, **kw),
    )
    sql = SHAPES["N"].format(p="")
    metrics = QueryMetrics()
    got = session.query(sql, metrics=metrics)
    (join,) = joins(session.last_plan)
    assert join.folds and steps == [MAX_FOLD[1]]
    assert WINDOW_RUNG in metrics.degraded_reason
    assert NaiveEvaluator(catalog).evaluate(sql).same_as(got, 1e-9)
