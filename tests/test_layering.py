"""Import-layering lint: the session does not plan, the planner does not
serve, and the operators do not partition.

``repro/planner.py`` is the only place on the storage door that knows
nesting types; ``repro/session.py`` composes catalog, writes and the
runner around it.  This lint keeps the split from eroding: it parses the
modules and fails when the session reaches for the rewrites, the fold
nodes, the join-order DP, the flat compiler or the nesting taxonomy, or
when the planner reaches for a session or the write path.  Likewise the
operator modules never import the parallel or shard layers — every band
join they run comes from ``ExecutionContext.merge_join()`` — and exactly
one module constructs the partitioned band join, and one function builds
a join's output rows (``join_rows``).  Inside the engine the block nested
loop is chosen in two places only — a join no equality links
(``NestedLoopJoinOp``) and a fold with no band (``BandFold``) — so no
second join-method chooser can grow beside ``ExecutionContext.merge_join()``;
and ``StorageSession``'s constructor keywords are pinned, so a new knob
is an edit here, made on purpose.  The modules that move
records as bytes — the external sort and the band join's slice spills —
never parse or build a record: they key it with
``TupleSerializer.key_at``, so the record format stays behind
``storage/serializer.py``.  Every query's
:class:`~repro.observe.recorder.QueryEvent` is built in one function and
handed to the registry and the flight recorder in one place, so the two
workload sinks cannot drift apart.  Observing is free: only the write and
DDL paths move a statistics version, and EXPLAIN, EXPLAIN ANALYZE and the
health report move none, so looking at a query never invalidates a
cached plan.  A query has one instrument: the collector, which owns the
span tree — no function of the engine, join, sort or parallel layers or
of the planner takes a ``tracer``, and only ``QueryMetrics`` builds a
``SpanTracer``.  Runs in the suite and as a standalone CI lint step::

    python -m pytest -q tests/test_layering.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: module file -> (packages it must not import from, names it must not mention)
RULES = {
    "session.py": (
        (
            "repro.unnest",
            "repro.engine.grouped",
            "repro.engine.pipelined",
            "repro.engine.optimizer",
        ),
        ("FlatCompiler", "NestingType"),
    ),
    "planner.py": (("repro.session", "repro.wal"), ()),
}
RULES.update(
    (module, (("repro.parallel", "repro.shard"), ()))
    for module in (
        "engine/operators.py",
        "engine/grouped.py",
        "engine/pipelined.py",
        "columnar/operators.py",
    )
)

#: The record movers: no ``struct``, no value codec, no ``.decode`` /
#: ``.encode`` call (a serializer's, or anything else's).
BYTE_RULES = {
    module: (
        ("struct", "repro.storage.serializer.decode_value", "repro.storage.serializer.encode_value"),
        ("decode", "encode", "decode_value", "encode_value"),
    )
    for module in [
        *sorted(path.relative_to(SRC).as_posix() for path in (SRC / "sort").glob("*.py")),
        "parallel/join.py",
    ]
}


def imported_modules(tree, package="repro"):
    """Absolute dotted names of everything a module of ``package`` imports.

    ``from . import planner`` yields ``repro.planner``; ``from .x import y``
    yields both ``repro.x`` and ``repro.x.y`` (``y`` may be a submodule);
    each further leading dot climbs one package.  Function-local imports
    count: the walk covers the whole tree.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def tree_violations(tree, home, packages, names):
    """The forbidden imports and names of one parsed module of ``home``."""
    out = []
    for module in sorted(imported_modules(tree, home)):
        for package in packages:
            if module == package or module.startswith(package + "."):
                out.append(f"imports {module}")
    mentioned = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    mentioned |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    out.extend(f"names {name}" for name in names if name in mentioned)
    return out


def violations(rules=RULES):
    """Every forbidden import or name, as ``file: what`` strings."""
    out = []
    for file, (packages, names) in rules.items():
        tree = ast.parse((SRC / file).read_text())
        home = ".".join(["repro", *Path(file).parent.parts])
        out.extend(f"{file}: {what}" for what in tree_violations(tree, home, packages, names))
    return out


def test_session_and_planner_keep_their_layers():
    found = violations()
    assert not found, "layering violations:\n" + "\n".join(found)


def test_record_movers_never_box_a_tuple():
    assert "sort/external.py" in BYTE_RULES and "sort/runs.py" in BYTE_RULES
    found = violations(BYTE_RULES)
    assert not found, "record-format leaks:\n" + "\n".join(found)


def test_the_byte_rule_sees_codecs_and_struct():
    tree = ast.parse(
        "import struct\n"
        "from ..storage.serializer import decode_value\n"
        "from ..storage import serializer\n"
        "def f(heap, record):\n"
        "    return heap.serializer.decode(record), serializer.encode_value(record)\n"
    )
    packages, names = BYTE_RULES["sort/external.py"]
    assert tree_violations(tree, "repro.sort", packages, names) == [
        "imports repro.storage.serializer.decode_value", "imports struct",
        "names decode", "names encode_value",
    ]


def constructors(name):
    """The ``src/repro`` modules that call ``name(...)``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            for node in ast.walk(tree)
        ):
            found.append(path.relative_to(SRC).as_posix())
    return found


def test_one_module_constructs_the_partitioned_band_join():
    assert constructors("PartitionedBandJoin") == ["engine/context.py"]


def call_sites(package, matches):
    """``module::Class.method`` of every call under ``package`` (every
    module of ``src/repro`` for ``""``) whose ``ast.Call`` ``matches``."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, [*where, child.name])
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(f"{path.relative_to(SRC).as_posix()}::{'.'.join(where)}")
            walk(child, where)

    for path in sorted((SRC / package).rglob("*.py")):
        walk(ast.parse(path.read_text()), [])
    return found


def construction_sites(package, name):
    """``module::Class.method`` of every ``name(...)`` call under ``package``."""
    return call_sites(package, lambda call: getattr(call.func, "id", None) == name)


def feeds_a_sink(call) -> bool:
    """A ``….registry.observe(…)`` or ``….recorder.record(…)`` call."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = getattr(func.value, "attr", None) or getattr(func.value, "id", None)
    return (receiver, func.attr) in {("registry", "observe"), ("recorder", "record")}


def test_the_engine_builds_the_nested_loop_in_two_places():
    assert construction_sites("engine", "NestedLoopJoin") == [
        "engine/operators.py::NestedLoopJoinOp._tuples",
        "engine/operators.py::BandFold._fold",
    ]


def test_one_query_event_feeds_both_sinks():
    """The registry and the flight recorder agree by construction: one
    function builds the per-query event, and one hands it to the sinks."""
    assert construction_sites("", "QueryEvent") == ["observe/recorder.py::build_event"]
    assert call_sites("", feeds_a_sink) == [
        "service/lifecycle.py::StatementLifecycle._observe_query",
        "service/lifecycle.py::StatementLifecycle._observe_query",
    ]


def functions_taking_a_tracer(tree):
    """The functions of ``tree`` with a ``tracer`` parameter."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            arg.arg == "tracer"
            for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        )
    ]


def test_one_instrument_below_the_door():
    """Below the front door only the collector is threaded: its spans go
    into the tree it owns (``metrics.tracer``), and nothing else builds
    one."""
    found = [
        f"{path.relative_to(SRC).as_posix()}::{name}"
        for package in ("engine", "join", "sort", "parallel")
        for path in sorted((SRC / package).rglob("*.py"))
        for name in functions_taking_a_tracer(ast.parse(path.read_text()))
    ]
    found += functions_taking_a_tracer(ast.parse((SRC / "planner.py").read_text()))
    assert found == []
    assert construction_sites("", "SpanTracer") == ["observe/metrics.py::QueryMetrics.__init__"]


def test_the_tracer_rule_sees_every_parameter_kind():
    tree = ast.parse(
        "def a(x, tracer=None): pass\n"
        "def b(x, *, tracer): pass\n"
        "class C:\n    def c(self, metrics=None): pass\n"
    )
    assert functions_taking_a_tracer(tree) == ["a", "b"]


def moves_a_version(call) -> bool:
    """A ``….stats_versions.bump(…)`` or ``….stats_versions.observe_cardinality(…)`` call."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("bump", "observe_cardinality")
        and getattr(func.value, "attr", None) == "stats_versions"
    )


def test_only_writes_and_ddl_move_a_statistics_version():
    assert call_sites("", moves_a_version) == [
        "session.py::StorageSession.register",
        "session.py::StorageSession.create_index",
        "session.py::StorageSession.attach",
        "session.py::StorageSession._execute_define",
        "session.py::StorageSession._execute_drop",
        "wal/manager.py::WriteManager._install",
        "wal/manager.py::WriteManager.checkpoint",
        "wal/manager.py::WriteManager.recover",
    ]


def test_observing_a_query_moves_no_statistics_version():
    import random

    from repro.data import FuzzyRelation, Schema
    from repro.observe import FlightRecorder
    from repro.session import StorageSession

    rng = random.Random(5)
    session = StorageSession(buffer_pages=16, page_size=512)
    for name, base in (("R", 0), ("S", 100)):
        rows = [(base + i, rng.randint(0, 4), rng.randint(0, 4)) for i in range(20)]
        session.register(name, FuzzyRelation.from_rows(Schema(["K", "U", "V"]), rows))
    session.recorder = FlightRecorder()
    moved = []
    versions = session.stats_versions
    before = versions.snapshot(["R", "S"])
    versions.bump = lambda *args, **kwargs: moved.append(("bump", args))
    versions.observe_cardinality = lambda *args, **kwargs: moved.append(("observe", args))
    sql = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"
    session.explain(sql)
    session.explain_analyze(sql)
    session.health()
    assert moved == []
    assert versions.snapshot(["R", "S"]) == before


#: ``StorageSession.__init__``'s keywords.  ``adaptive`` is accepted and
#: inert (the frozen wall benchmark passes it).
SESSION_KEYWORDS = [
    "vocabulary", "page_size", "buffer_pages", "aggregate_policy", "fixed_tuple_size",
    "disk", "workers", "shards", "shard_on", "shard_disks", "adaptive",
]


def test_the_session_constructor_grows_no_knob_unnoticed():
    tree = ast.parse((SRC / "session.py").read_text())
    [init] = [
        node
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "StorageSession"
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    arguments = init.args
    names = [a.arg for a in [*arguments.args, *arguments.kwonlyargs]]
    assert names[0] == "self" and arguments.vararg is None and arguments.kwarg is None
    assert names[1:] == SESSION_KEYWORDS


def builds_a_row(node) -> bool:
    """A ``.concat(...)`` call, or ``FuzzyTuple(...)`` over a kept-column
    tuple (its values assembled by a comprehension)."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr == "concat":
        return True
    return getattr(node.func, "id", None) == "FuzzyTuple" and bool(node.args) and any(
        isinstance(n, (ast.GeneratorExp, ast.ListComp)) for n in ast.walk(node.args[0])
    )


def functions_building_rows(tree):
    """The functions of ``tree`` (a nested one, and its enclosing one) that build a row."""
    return [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and any(map(builds_a_row, ast.walk(function)))
    ]


def test_join_rows_are_built_in_one_function():
    """Every join, fold and rung emits through ``join_rows``, so none can
    bypass the keep / max-fold rule of ``FlatCompiler._join_in``."""
    found = [
        f"{path.relative_to(SRC).as_posix()}::{name}"
        for package in ("engine", "columnar")
        for path in sorted((SRC / package).glob("*.py"))
        for name in functions_building_rows(ast.parse(path.read_text()))
    ]
    assert found == ["engine/operators.py::join_rows"]


def test_the_row_rule_sees_concat_and_kept_columns():
    tree = ast.parse(
        "def a(r, s, d):\n    return r.concat(s, d)\n"
        "def b(r, keep, d):\n    return FuzzyTuple(tuple(r[i] for i in keep), d)\n"
        "def c(values, d):\n    return FuzzyTuple(values, d)\n"
    )
    assert functions_building_rows(tree) == ["a", "b"]


def test_the_lint_sees_relative_and_local_imports():
    tree = ast.parse(
        "from . import planner\n"
        "from .engine.grouped import GroupedAntiJoin\n"
        "def f():\n"
        "    from .wal import WriteManager\n"
    )
    assert {
        "repro.planner", "repro.engine.grouped", "repro.wal", "repro.wal.WriteManager",
    } <= imported_modules(tree)
    nested = ast.parse("from ..parallel.join import PartitionedBandJoin\nfrom .context import C\n")
    assert {"repro.parallel.join", "repro.engine.context"} <= imported_modules(
        nested, "repro.engine"
    )
