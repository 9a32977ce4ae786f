"""Tests for the Section 6 pipelined JA evaluation over heap files."""

import pytest

from repro.data import Catalog
from repro.engine.operators import ExecutionContext
from repro.engine.pipelined import JAPipeline
from repro.engine.semantics import NaiveEvaluator
from repro.fuzzy import Op, possibility, CrispNumber
from repro.storage import BufferPool, OperationStats
from repro.workload.generator import WorkloadSpec, build_workload

N = CrispNumber


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(n_outer=50, n_inner=50, join_fanout=5, tuple_size=128, seed=31)
    return build_workload(spec, page_size=1024)


@pytest.fixture(scope="module")
def catalog(workload):
    pool = BufferPool(workload.disk, 16)
    cat = Catalog()
    cat.register("R", workload.outer.to_relation(pool))
    cat.register("S", workload.inner.to_relation(pool))
    return cat


def oracle(catalog, func, op_symbol):
    return NaiveEvaluator(catalog).evaluate(
        f"SELECT R.ID FROM R WHERE R.ID {op_symbol} "
        f"(SELECT {func}(S.ID) FROM S WHERE S.X = R.X)"
    )


def run(node, disk, buffer_pages, stats=None):
    """The node's answer relation on a fresh execution context."""
    return node.to_relation(ExecutionContext(disk, buffer_pages, stats))


def pipeline(workload, func, op, **kwargs):
    return JAPipeline(
        workload.outer,
        workload.inner,
        u_attr="X",
        v_attr="X",
        y_attr="ID",
        op1=op,
        agg_func=func,
        z_attr="ID",
        project_attr="ID",
        **kwargs,
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "func,op,symbol",
        [
            ("MAX", Op.LT, "<"),
            ("MIN", Op.GT, ">"),
            ("AVG", Op.GE, ">="),
            ("SUM", Op.LE, "<="),
            ("COUNT", Op.GT, ">"),
        ],
    )
    def test_matches_naive_oracle(self, workload, catalog, func, op, symbol):
        expected = oracle(catalog, func, symbol)
        answer = run(pipeline(workload, func, op), workload.disk, 16)
        assert expected.same_as(answer, 1e-9), (
            f"oracle:\n{expected.pretty()}\npipeline:\n{answer.pretty()}"
        )

    def test_count_outer_join_branch(self, workload, catalog):
        """R-tuples without any joining S-tuple compare against 0."""
        expected = oracle(catalog, "COUNT", ">")
        answer = run(pipeline(workload, "COUNT", Op.GT), workload.disk, 16)
        # Every R ID is positive, so COUNT-empty tuples pass `ID > 0`:
        # the answer must include tuples with no partner.
        assert expected.same_as(answer, 1e-9)

    def test_with_p1_p2(self, workload, catalog):
        expected = NaiveEvaluator(catalog).evaluate(
            "SELECT R.ID FROM R WHERE R.ID > 10 AND R.ID < "
            "(SELECT MAX(S.ID) FROM S WHERE S.ID > 1000010 AND S.X = R.X)"
        )
        p1 = lambda t: possibility(t[0], Op.GT, N(10))
        p2 = lambda t: possibility(t[0], Op.GT, N(1000010))
        answer = run(pipeline(workload, "MAX", Op.LT, p1=p1, p2=p2), workload.disk, 16)
        assert expected.same_as(answer, 1e-9)


class TestPipelining:
    def test_groups_aggregated_once(self):
        """Repeated u-values must not rescan S: fuzzy evals track distinct
        values, not R-tuples.  A fully crisp workload has ~n/C distinct
        anchor values shared by many tuples."""
        spec = WorkloadSpec(
            n_outer=100, n_inner=100, join_fanout=10, tuple_size=128,
            fuzzy_fraction=0.0, seed=7,
        )
        crisp = build_workload(spec, page_size=1024)
        stats = OperationStats()
        run(pipeline(crisp, "MAX", Op.LT), crisp.disk, 16, stats)
        # ~10 anchors x ~10 members + 100 outer-degree evals; without
        # memoization it would be ~100 x 11 + 100 = 1200.
        assert stats.total.fuzzy_evaluations < 400

    def test_single_pass_io(self, workload):
        stats = OperationStats()
        run(pipeline(workload, "MAX", Op.LT), workload.disk, 16, stats)
        from repro.join.merge_join import JOIN_PHASE

        join_reads = stats.phase(JOIN_PHASE).page_reads
        assert join_reads == workload.outer.n_pages + workload.inner.n_pages

    def test_empty_inner(self):
        spec = WorkloadSpec(n_outer=10, n_inner=0, join_fanout=1, tuple_size=128, seed=1)
        workload = build_workload(spec, page_size=1024)
        count_answer = run(pipeline(workload, "COUNT", Op.GT), workload.disk, 16)
        # IDs are 0..9; all but ID=0 satisfy `ID > 0` against the empty COUNT.
        assert len(count_answer) == 9
        max_answer = run(pipeline(workload, "MAX", Op.GT), workload.disk, 16)
        assert len(max_answer) == 0  # NULL comparison fails
