"""Full-stack benchmark: the storage session vs naive evaluation, per type.

Everything above runs one algorithm at a time; this benchmark exercises
the whole system the way a user would — SQL text into
:class:`repro.session.StorageSession` — and compares each nesting type's
automatic strategy against the forced naive fallback on the same data.
"""

from conftest import emit

from repro.bench.experiments import ExperimentResult, PAGE_SIZE, _buffer_pages, _scaled
from repro import planner
from repro.session import StorageSession
from repro.sql import classify, parse
from repro.storage import BufferPool, PAPER_1992
from repro.workload.generator import WorkloadSpec, build_workload

QUERIES = {
    "J": "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)",
    "JX": "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
    "JALL": "SELECT R.ID FROM R WHERE R.ID < ALL (SELECT S.ID FROM S WHERE S.X = R.X)",
    "JA": "SELECT R.ID FROM R WHERE R.ID > (SELECT MAX(S.ID) FROM S WHERE S.X = R.X)",
}


def session_sweep(scale):
    # Below ~800 tuples the naive path's quadratic term hasn't overtaken
    # the merge sort's I/O yet; above ~4000 the 4-query naive baseline
    # dominates the whole benchmark run.
    n = min(4000, max(768, _scaled(4 * 8000, scale)))
    spec = WorkloadSpec(n_outer=n, n_inner=n, join_fanout=7, tuple_size=128, seed=23)
    workload = build_workload(spec, page_size=PAGE_SIZE)
    pool = BufferPool(workload.disk, 16)
    r = workload.outer.to_relation(pool)
    s = workload.inner.to_relation(pool)

    def fresh_session():
        session = StorageSession(buffer_pages=_buffer_pages(scale), page_size=PAGE_SIZE)
        session.register("R", r)
        session.register("S", s)
        return session

    rows = []
    for label, sql in QUERIES.items():
        auto = fresh_session()
        answer_auto = auto.query(sql)
        auto_seconds = PAPER_1992.response_time(auto.last_stats)
        auto_strategy = auto.last_strategy

        naive = fresh_session()
        query = parse(sql)
        answer_naive = naive._run_naive(
            query, planner.naive(classify(query, naive.schemas)), naive.last_stats
        )
        naive_seconds = PAPER_1992.response_time(naive.last_stats)
        if not answer_auto.same_as(answer_naive, 1e-9):
            raise AssertionError(f"{label}: strategies disagree")
        rows.append(
            {
                "type": label,
                "strategy": auto_strategy.split(":")[0],
                "auto_s": auto_seconds,
                "naive_s": naive_seconds,
                "speedup": naive_seconds / auto_seconds,
            }
        )
    return ExperimentResult(
        name="Extension: full-stack session, automatic strategy vs naive fallback",
        headers=["type", "strategy", "auto_s", "naive_s", "speedup"],
        rows=rows,
        notes="same SQL text, same data; only the execution strategy differs",
    )


def test_session(benchmark, scale):
    result = benchmark.pedantic(lambda: session_sweep(scale), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        assert row["speedup"] > 1.0, row
