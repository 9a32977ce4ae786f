"""Seeded generators and the seven workloads of the wall-clock benchmark.

The seed reaches only the generators in this file; the program under test
receives the generated relations and SQL text.  A workload is a ``build``
(process entry to "ready for the first statement") plus a ``rep`` that runs
its timed statements once and returns one :class:`Sample` per timed call.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.join import JoinPredicate, MergeJoin, NestedLoopJoin, join_degree
from repro.session import StorageSession
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.stats import OperationStats

SCHEMA = Schema(["K", "U", "V"])
#: Anchor spacing and support widths of ``repro.workload.generator._join_value``.
SPACING, MAX_WIDTH = 100.0, 4.0

TEMPLATES = {
    "N": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S)",
    "J": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JX": "SELECT R.K FROM R WHERE {p}R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JALL": "SELECT R.K FROM R WHERE {p}R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "JA": "SELECT R.K FROM R WHERE {p}R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "chain": "SELECT R.K FROM R WHERE {p}R.V IN (SELECT S.V FROM S WHERE S.U IN "
             "(SELECT W.U FROM W WHERE W.V = R.V))",
}


def sql_of(kind: str, k: Optional[float] = None, z: Optional[float] = None) -> str:
    """The statement text of one template, optionally with ``R.K >= k`` and ``WITH D >= z``."""
    text = TEMPLATES[kind].format(p="" if k is None else f"R.K >= {k} AND ")
    return text if z is None else f"{text} WITH D >= {z}"


# ----------------------------------------------------------------------
# Data generator
# ----------------------------------------------------------------------
def _balanced(rng: random.Random, n: int, choices) -> list:
    """``n`` draws in seeded order with every choice equally often (within one).

    Stratified, not independent, draws: the seed still decides every row,
    but two seeds give the same amount of work, so run-to-run spread
    measures the program and not the sampling noise of its input.
    """
    draws = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(draws)
    return draws


def _value(rng: random.Random, anchor: int, crisp: bool):
    """Crisp on the anchor, or a narrow trapezoid around it."""
    center = anchor * SPACING
    if crisp:
        return CrispNumber(center)
    point = center + rng.uniform(-1.0, 1.0)
    support = rng.uniform(2.0, MAX_WIDTH)
    core = rng.uniform(0.0, support / 2.0)
    return TrapezoidalNumber(point - support, point - core, point + core, point + support)


def _rows(rng: random.Random, first_key: int, n: int, anchors: int):
    """``n`` rows: U and V around balanced anchors, V's equal to U's for half of them."""
    u, other = (_balanced(rng, n, range(anchors)) for _ in range(2))
    same, crisp_u, crisp_v = (_balanced(rng, n, (True, False)) for _ in range(3))
    for i in range(n):
        yield FuzzyTuple(
            [
                CrispNumber(first_key + i),
                _value(rng, u[i], crisp_u[i]),
                _value(rng, u[i] if same[i] else other[i], crisp_v[i]),
            ],
            1.0 - 0.5 * rng.random(),
        )


def relations(rng: random.Random, names: str, n: int, fanout: int) -> Dict[str, FuzzyRelation]:
    """``R``/``S``/``W`` with ``n`` rows each and ``fanout`` partners per join value."""
    anchors = max(1, n // fanout)
    return {
        name: FuzzyRelation(SCHEMA, _rows(rng, base * 1_000_000, n, anchors))
        for base, name in enumerate(names)
    }


def pool_relations(rng: random.Random, n: int) -> Dict[str, FuzzyRelation]:
    """The duplicate-heavy five-value pool of ``run_bench.build_session`` (re-created)."""
    N, T = CrispNumber, TrapezoidalNumber
    pool = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]
    out = {}
    for base, name in enumerate("RSW"):
        u, v = _balanced(rng, n, pool), _balanced(rng, n, pool)
        degrees = _balanced(rng, n, (0.3, 0.6, 1.0))
        out[name] = FuzzyRelation(
            SCHEMA,
            (FuzzyTuple([N(base * 1000 + i), u[i], v[i]], degrees[i]) for i in range(n)),
        )
    return out


def literal(value) -> str:
    """A distribution as the SQL literal ``INSERT``/``UPDATE`` accept."""
    if isinstance(value, CrispNumber):
        return repr(value.value)
    return "'[" + ", ".join(repr(x) for x in (value.a, value.b, value.c, value.d)) + "]'"


def dml_batches(rng: random.Random, tables: Dict[str, FuzzyRelation], batches: int, size: int):
    """``batches`` lists of ``size`` DML texts (6:1:1 INSERT/UPDATE/DELETE) over R and S.

    Also returns the rows each table must hold afterwards, so the table
    state the statements produce can be checked against this model.
    """
    live = {name: {t[0].value: t for t in rel} for name, rel in tables.items()}
    anchors = max(1, len(tables["R"]) // 7)
    fresh = 5_000_000
    out = []
    for _ in range(batches):
        batch = []
        for i in range(size):
            name = "RS"[i % 2]
            rows = live[name]
            verb = {3: "update", 7: "delete"}.get(i % 8, "insert")
            if verb == "insert":
                fresh += 1
                (t,) = _rows(rng, fresh, 1, anchors)
                rows[t[0].value] = t
                batch.append(
                    f"INSERT INTO {name} VALUES ({fresh}, {literal(t[1])}, "
                    f"{literal(t[2])}) WITH D {t.degree!r}"
                )
                continue
            key = rng.choice(sorted(rows))
            if verb == "delete":
                del rows[key]
                batch.append(f"DELETE FROM {name} WHERE K = {key!r}")
            else:
                new_v = _value(rng, rng.randrange(anchors), rng.random() < 0.5)
                old = rows[key]
                rows[key] = FuzzyTuple([old[0], old[1], new_v], old.degree)
                batch.append(f"UPDATE {name} SET V = {literal(new_v)} WHERE K = {key!r}")
        out.append(batch)
    return out, {name: rows_of(rows.values()) for name, rows in live.items()}


# ----------------------------------------------------------------------
# Answers: digests, table contents, the oracle
# ----------------------------------------------------------------------
def rows_of(tuples) -> list:
    """Sorted ``(values, round(degree, 9))`` — the comparable form of an answer."""
    return sorted((t.value_key(), round(t.degree, 9)) for t in tuples)


def digest(tuples) -> str:
    return hashlib.sha256(repr(rows_of(tuples)).encode()).hexdigest()


def heap_records(heap):
    """Every encoded record of a heap file (I/O charged to a scratch ledger)."""
    with heap.disk.use_stats(OperationStats()):
        for index in range(heap.n_pages):
            yield from heap.disk.read_page(heap.name, index).records()


def heap_tuples(heap) -> List[FuzzyTuple]:
    return [heap.serializer.decode(record) for record in heap_records(heap)]


def space_amp(disk, heaps) -> float:
    """Bytes in every file of ``disk`` per encoded byte of the live user tuples."""
    with disk.use_stats(OperationStats()):
        stored = sum(
            len(disk.read_blob(name, index))
            for name in disk.files()
            for index in range(disk.n_pages(name))
        )
    return stored / sum(len(record) for heap in heaps for record in heap_records(heap))


def oracle(heaps: dict, sql: str) -> FuzzyRelation:
    """``NaiveEvaluator`` over the current contents of ``heaps`` (the differential oracle)."""
    catalog = Catalog()
    for name, heap in heaps.items():
        catalog.register(name, FuzzyRelation(heap.schema, heap_tuples(heap)))
    return NaiveEvaluator(catalog).evaluate(sql)


# ----------------------------------------------------------------------
# Samples and repetitions
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One timed call: a SELECT, one ``execute(list)`` of ``stmts`` DML statements, or a recovery."""

    kind: str
    sql: str
    secs: float
    stmts: int = 1
    digest: Optional[str] = None
    rows: int = 0
    strategy: str = ""
    stats: Optional[OperationStats] = None
    #: What the call returned when that is not an answer (the recovery report);
    #: answers are digested and dropped, so they do not count in ``peak_rss_mb``.
    result: object = None
    error: str = ""


class State:
    """What ``build`` hands to ``rep``: the program's session, its statements, check results."""

    def __init__(self, spec, statements, session=None, disk=None, heaps=None):
        self.spec, self.statements, self.session = spec, statements, session
        self.disk = disk if disk is not None else session.disk
        self.heaps = heaps if heaps is not None else (lambda: dict(self.session.tables))
        self.failures: List[str] = []
        #: Set at ``--scale check``: every answer is compared with the oracle,
        #: once per statement text and table versions (later runs of the same
        #: statement must reproduce the verified digest).
        self.verify = False
        self.verified = set()
        #: Set during warm-up: a long repetition may shorten itself.
        self.warming = False
        self.cursor = 0
        #: First digest seen per statement; later repetitions must reproduce it.
        self.reference: Dict[str, str] = {}
        #: Set by a repetition that must measure these before it ends (ingest).
        self.amp: Optional[float] = None
        self.bytes_logged = 0

    def space_amp(self) -> float:
        return self.amp or space_amp(self.disk, self.heaps().values())


def timed(
    state: State, kind: str, sql: str, call: Callable[[], object], stmts: int = 1, heaps=None
) -> Sample:
    """Time ``call``; an exception becomes a failed sample, not a crash.

    ``heaps`` are the tables the oracle reads when the state verifies
    answers (default: the state's current ones).
    """
    started = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # statement boundary: record, report as failed, go on
        traceback.print_exc(file=sys.stderr)
        return Sample(kind, sql, time.perf_counter() - started, stmts, error=repr(exc))
    sample = Sample(kind, sql, time.perf_counter() - started, stmts)
    if not isinstance(result, FuzzyRelation):
        sample.result = result
    else:
        sample.rows, sample.digest = len(result), digest(result)
        if state.verify:
            heaps = heaps if heaps is not None else state.heaps()
            key = (sql, tuple(sorted(heap.name for heap in heaps.values())))
            if key not in state.verified and not oracle(heaps, sql).same_as(result, 1e-9):
                state.failures.append(f"{kind}: answer differs from NaiveEvaluator's: {sql}")
            state.verified.add(key)
    return sample


def run_query(state: State, kind: str, sql: str, session=None, **options) -> Sample:
    heaps = session.tables if session is not None else None
    session = session if session is not None else state.session
    sample = timed(state, kind, sql, lambda: session.query(sql, **options), heaps=heaps)
    sample.strategy, sample.stats = session.last_strategy, session.last_stats
    return sample


def query_rep(state: State) -> List[Sample]:
    """Run every statement of the workload once, in order (closed loop, one client)."""
    return [run_query(state, kind, sql) for kind, sql in state.statements]


def session_of(spec, tables: Dict[str, FuzzyRelation], **options) -> StorageSession:
    session = StorageSession(**spec.session, **options)
    for name, relation in tables.items():
        session.register(name, relation)
    return session


# ----------------------------------------------------------------------
# Builders and repetitions (one pair per workload shape)
# ----------------------------------------------------------------------
def build_queries(spec, seed: int, n: int) -> State:
    tables = relations(random.Random(seed), spec.tables, n, spec.fanout)
    return State(spec, [(kind, sql_of(kind)) for kind in spec.kinds], session_of(spec, tables))


def build_overflow(spec, seed: int, n: int) -> State:
    tables = pool_relations(random.Random(seed), n)
    return State(spec, [("J", sql_of("J"))], session_of(spec, tables))


def build_short_mix(spec, seed: int, n: int) -> State:
    """Distinct texts: every template bare and ``WITH D >= z``, each with a seeded ``R.K >= k``.

    Rounds rotate over ``spec.groups`` independent sets of tables, which
    averages out what one draw of 60 rows does to the chain's fan-out.
    """
    rng = random.Random(seed)
    sessions = [
        session_of(spec, relations(rng, spec.tables, n, spec.fanout)) for _ in range(spec.groups)
    ]
    statements, texts = [], set()
    for _ in range(spec.rounds):
        for kind in spec.kinds:
            for with_d in (False, True):
                # Redrawn until new: a text seen in an earlier round would hit the
                # plan cache, and on another group's tables it has another answer.
                while True:
                    k = round(rng.uniform(0.0, n / 4.0), 4)
                    z = round(rng.uniform(0.5, 0.7), 4) if with_d else None
                    text = sql_of(kind, k, z)
                    if text not in texts:
                        break
                texts.add(text)
                statements.append((kind + ("+D" if with_d else ""), text))
    state = State(spec, statements, sessions[0])
    state.sessions = sessions
    return state


def short_mix_rep(state: State) -> List[Sample]:
    """The next round of statements: each template once bare and once ``WITH D``."""
    per_round = 2 * len(state.spec.kinds)
    start = state.cursor % len(state.statements)
    state.cursor += per_round
    session = state.sessions[(start // per_round) % len(state.sessions)]
    return [
        run_query(state, kind, sql, session)
        for kind, sql in state.statements[start:start + per_round]
    ]


def build_ingest(spec, seed: int, n: int) -> State:
    rng = random.Random(seed)
    tables = relations(rng, "RS", n, spec.fanout)
    state = State(spec, [("J", sql_of("J"))], session_of(spec, tables))
    state.tables = tables
    state.batches, state.expected = dml_batches(rng, state.tables, spec.rounds, spec.batch)
    return state


def ingest_rep(state: State) -> List[Sample]:
    """A fresh session: ``register``, batches of DML each followed by a read, then recovery."""
    session = state.session = session_of(state.spec, state.tables)
    state.disk = session.disk
    samples = []
    for batch in state.batches[:2] if state.warming else state.batches:
        dml = timed(state, "dml", batch[0], lambda: session.execute(batch), stmts=len(batch))
        dml.stats = session.last_stats
        samples += [dml, run_query(state, "J", state.statements[0][1])]
    # Recovery deletes the live session's epoch files, so the rows a restart
    # must reproduce, and the space the run left behind, are taken first.
    state.live = {name: rows_of(heap_tuples(heap)) for name, heap in session.tables.items()}
    state.amp = space_amp(session.disk, session.tables.values())
    state.bytes_logged = session.writes.wal.synced_bytes
    survivor = StorageSession(disk=session.disk, **state.spec.session)
    for name in state.live:
        survivor.attach(name, SCHEMA)
    samples.append(timed(state, "recover", "recover()", survivor.recover))
    state.recovered = {n: rows_of(heap_tuples(h)) for n, h in survivor.tables.items()}
    return samples


def check_ingest(state: State) -> None:
    """Tables equal the generator's model; the restarted session recovered them row for row."""
    if state.live != state.expected:
        state.failures.append("ingest: table contents differ from the statements' model")
    if state.recovered != state.live:
        state.failures.append("ingest: recovered tables differ from the live session's")


def build_nested_loop(spec, seed: int, n: int) -> State:
    disk = SimulatedDisk(page_size=spec.session["page_size"])
    with disk.use_stats(OperationStats()):  # loading is not the join's I/O
        heaps = {
            name: HeapFile.from_relation(name, relation, disk, spec.session["fixed_tuple_size"])
            for name, relation in relations(random.Random(seed), "RS", n, spec.fanout).items()
        }
    return State(spec, [("NL", sql_of("N"))], disk=disk, heaps=lambda: heaps)


def fold_answer(state: State, join_class) -> FuzzyRelation:
    """Per R-tuple ``max`` over the pair degrees of ``join_class``'s fold: the type-N answer."""
    heaps = state.heaps()
    outer, inner = heaps["R"], heaps["S"]
    pair = join_degree([JoinPredicate(outer.schema, "V", Op.EQ, inner.schema, "V")])
    state.stats = OperationStats()
    join = join_class(state.disk, state.spec.session["buffer_pages"], state.stats)
    attrs = () if join_class is NestedLoopJoin else ("V",)
    folded = join.fold(
        outer, *attrs, inner, *attrs, pair, lambda r: 0.0, lambda best, s, d: max(best, d)
    )
    return FuzzyRelation(
        outer.schema.project(["K"]), (FuzzyTuple([r[0]], degree) for r, degree in folded)
    )


def nested_loop_rep(state: State) -> List[Sample]:
    kind, sql = state.statements[0]
    sample = timed(state, kind, sql, lambda: fold_answer(state, NestedLoopJoin))
    sample.strategy, sample.stats = "NestedLoopJoin.fold", state.stats
    return [sample]


def check_nested_loop(state: State) -> None:
    """The nested loop's answer must equal the merge-join's on the same data."""
    kind, sql = state.statements[0]
    merged = timed(state, "merge", sql, lambda: fold_answer(state, MergeJoin))
    if merged.error or merged.digest != state.reference.get(sql):
        state.failures.append("j_nested_loop: answer differs from merge-join's")


def merge_extras(state: State, seed: int, n_small: int, p50_large: float) -> Dict[str, float]:
    """Same-process ratios on the type-J statement at ``n_small``: every optional path / serial.

    Min of three runs each; the five paths' digests must be equal.
    """
    from repro.observe.metrics import QueryMetrics
    from repro.observe.trace import SpanTracer

    spec, (kind, sql) = state.spec, state.statements[0]
    tables = relations(random.Random(seed + 1), spec.tables, n_small, spec.fanout)
    plain = session_of(spec, tables)
    indexed = session_of(spec, tables)
    started = time.perf_counter()
    for name in tables:
        indexed.create_index(name, "V")
    index_build_s = time.perf_counter() - started
    paths = {
        "serial": (plain, {}),
        "w2": (plain, {"workers": 2}),
        "s2": (session_of(spec, tables, shards=2, shard_on="V"), {}),
        "indexed": (indexed, {}),
        "adaptive": (session_of(spec, tables, adaptive=True), {}),
    }
    runs = {
        path: [run_query(state, kind, sql, session, **options) for _ in range(3)]
        for path, (session, options) in paths.items()
    }
    runs["collector"] = [
        run_query(state, kind, sql, plain, metrics=QueryMetrics(), tracer=SpanTracer())
        for _ in range(3)
    ]
    if len({s.digest for samples in runs.values() for s in samples}) != 1:
        state.failures.append("j_merge: serial/workers/shards/indexed/adaptive digests differ")
    best = {path: min(s.secs for s in samples) for path, samples in runs.items()}
    p50_small = sorted(s.secs for s in runs["serial"])[1]
    n_large = state.heaps()["R"].n_tuples
    return {
        "join.wall_growth_exp": math.log(p50_large / p50_small) / math.log(n_large / n_small),
        "parallel.wall_ratio_w2": best["w2"] / best["serial"],
        "shard.wall_ratio_s2": best["s2"] / best["serial"],
        "columnar.index_build_s": index_build_s,
        "columnar.index_wall_ratio": best["indexed"] / best["serial"],
        "engine.adaptive_wall_ratio": best["adaptive"] / best["serial"],
        "observe.collector_wall_ratio": best["collector"] / best["serial"],
    }


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
_PAGED = dict(page_size=8 * 1024, buffer_pages=64, fixed_tuple_size=128)


@dataclass
class Spec:
    """One workload: why it exists, its sizes, and how to build, repeat and check it.

    ``check_*`` are the ``--scale check`` values (n <= 150, so the naive
    oracle is affordable); ``trace_reps`` is how many repetitions the traced
    run and its untraced reference make.
    """

    why: str
    n: int
    check_n: int
    session: dict = field(default_factory=lambda: dict(_PAGED))
    check_session: Optional[dict] = None
    fanout: int = 7
    tables: str = "RS"
    kinds: tuple = ("J",)
    rounds: int = 1
    groups: int = 1
    batch: int = 0
    small_n: int = 0
    trace_reps: int = 1
    build: Callable = build_queries
    rep: Callable = query_rep
    check: Optional[Callable] = None
    extras: Optional[Callable] = None

    def at_check_scale(self) -> "Spec":
        return replace(
            self, n=self.check_n, session=self.check_session or self.session,
            rounds=min(self.rounds, 4), batch=min(self.batch, 16),
            small_n=min(self.small_n, 60), trace_reps=min(self.trace_reps, 1),
        )


WORKLOADS: Dict[str, Spec] = {
    "j_merge": Spec(
        "the paper's headline path: type J through the extended merge-join; fuzzy and join do most of the work",
        n=8000, check_n=150, small_n=2000, extras=merge_extras,
    ),
    "types_large": Spec(
        "JX, JALL, JA and a chain: the grouped fold, the T1/T2 pipeline and the multi-join plan j_merge never enters",
        n=2000, check_n=40, tables="RSW", kinds=("JX", "JALL", "JA", "chain"),
    ),
    "wide_sort": Spec(
        "type N over 2 KiB rows with a 16-page buffer (Table 4's shape): serializer, pages and sort dominate, not fuzzy",
        n=8000, check_n=100, fanout=1, kinds=("N",),
        session=dict(page_size=8 * 1024, buffer_pages=16, fixed_tuple_size=2048),
    ),
    "short_mix": Spec(
        "n=60 tables and distinct statement texts: per-statement fixed cost, plan-cache misses and silent naive fallbacks",
        n=60, check_n=30, tables="RSW", kinds=tuple(TEMPLATES), rounds=50, groups=5, trace_reps=10,
        build=build_short_mix, rep=short_mix_rep,
    ),
    "ingest_query": Spec(
        "batched INSERT/UPDATE/DELETE beside type-J reads, then recovery: writes and reads share the storage layer",
        n=1000, check_n=100, rounds=10, batch=40,
        build=build_ingest, rep=ingest_rep, check=check_ingest,
    ),
    "j_overflow": Spec(
        "type J on a five-value pool: the merge window overflows and the session restarts on the naive evaluator",
        n=400, check_n=100, tables="RSW", build=build_overflow,
        session=dict(page_size=1024, buffer_pages=16),
        check_session=dict(page_size=1024, buffer_pages=4),
    ),
    "j_nested_loop": Spec(
        "the paper's baseline, NestedLoopJoin.fold over all pairs: fuzzy calls with almost no sort",
        n=600, check_n=120, build=build_nested_loop, rep=nested_loop_rep, check=check_nested_loop,
    ),
}
