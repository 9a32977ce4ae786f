"""An interactive Fuzzy SQL shell.

Starts with the paper's dating-service relations F and M loaded; supports
the full statement surface (terminate statements with a semicolon or a
blank line):

    SELECT ... FROM ... WHERE ... [WITH D >= z] [GROUPBY ...] [HAVING ...]
    CREATE TABLE name (col NUMERIC|LABEL [ON 'domain'], ...)
    INSERT INTO name VALUES (v, ...) [, (...)] [WITH D z]
    UPDATE name SET col = v, ... [WHERE ...] [WITH D >= z]
    DELETE FROM name [WHERE ...] [WITH D >= z]
    DEFINE 'term' [ON 'domain'] AS '[a, b, c, d]'
    DROP TABLE name

Meta commands:

    \\tables            list relations
    \\show <name>       print a relation
    \\terms             list linguistic terms
    \\plan <query>      show the unnesting rewrite without executing
    \\analyze <query>   run instrumented on the storage engine (EXPLAIN ANALYZE)
    \\trace <query>     run with span tracing; prints the span tree and
                       writes Chrome trace_event JSON to fuzzy_trace.json
    \\metrics [prefix]  dump cumulative session counters (Prometheus format,
                       optionally filtered to names starting with prefix)
    \\log               summarize the recorded queries (slow queries first)
    \\top [k]           top K statement templates from the flight recorder
    \\health            the health report (ok / warn / critical)
    \\events [n]        last N flight-recorder events as JSON Lines
    \\quit              leave

Also usable non-interactively:
    echo "SELECT F.NAME FROM F;" | python examples/fuzzy_shell.py
"""

import sys

from repro import DatabaseError, FuzzyDatabase
from repro.sql import FuzzySQLError
from repro.workload.paper_data import dating_catalog


def print_relation(relation):
    from repro.fuzzy import CrispLabel, CrispNumber, TrapezoidalNumber

    def short(value):
        if isinstance(value, CrispLabel):
            return value.value
        if isinstance(value, CrispNumber):
            return f"{value.value:g}"
        if isinstance(value, TrapezoidalNumber):
            return f"trap({value.a:g},{value.b:g},{value.c:g},{value.d:g})"
        return repr(value)

    print(relation.pretty(value_format=short))


#: Where ``\trace`` writes its Chrome trace_event JSON.
TRACE_PATH = "fuzzy_trace.json"


def make_database() -> FuzzyDatabase:
    from repro.observe import FlightRecorder, MetricsRegistry

    catalog = dating_catalog()
    db = FuzzyDatabase(catalog.vocabulary)
    for name in catalog.names():
        db.register(name, catalog.get(name))
    db.registry = MetricsRegistry()
    db.recorder = FlightRecorder()
    return db


def handle_meta(command: str, db: FuzzyDatabase) -> bool:
    """Process a backslash command; returns False to exit the shell."""
    parts = command.split(None, 1)
    head = parts[0].lower()
    if head in ("\\quit", "\\q", "\\exit"):
        return False
    if head == "\\tables":
        for name in db.tables():
            print(f"  {name} ({len(db.table(name))} tuples)")
    elif head == "\\show" and len(parts) > 1:
        try:
            print_relation(db.table(parts[1].strip()))
        except DatabaseError as exc:
            print(exc)
    elif head == "\\terms":
        for name, domain, dist in db.catalog.vocabulary.export():
            scope = f" [on {domain}]" if domain else ""
            print(f"  {name}{scope}: {dist}")
    elif head == "\\plan" and len(parts) > 1:
        try:
            print(db.explain(parts[1]))
        except (FuzzySQLError, DatabaseError) as exc:
            print(f"cannot plan: {exc}")
    elif head == "\\analyze" and len(parts) > 1:
        try:
            print(db.explain_analyze(parts[1]))
        except (FuzzySQLError, DatabaseError) as exc:
            print(f"cannot analyze: {exc}")
    elif head == "\\trace" and len(parts) > 1:
        try:
            tracer = db.trace(parts[1])
        except (FuzzySQLError, DatabaseError) as exc:
            print(f"cannot trace: {exc}")
        else:
            print(tracer.render_tree())
            tracer.export(TRACE_PATH)
            print(f"(chrome trace written to {TRACE_PATH})")
    elif head == "\\metrics":
        if db.registry is None or db.registry.queries_total == 0:
            print("no queries observed yet")
        else:
            prefix = parts[1].strip() if len(parts) > 1 else None
            print(db.registry.render_prometheus(name_prefix=prefix), end="")
    elif head == "\\log":
        if db.recorder is None or len(db.recorder) == 0:
            print("query log is empty")
        else:
            print(db.recorder.summarize(slow_threshold=0.05))
    elif head == "\\top":
        if db.recorder is None or db.recorder.recorded_total == 0:
            print("no queries recorded yet")
        else:
            k = int(parts[1]) if len(parts) > 1 else 5
            print(db.recorder.render_top(k))
    elif head == "\\health":
        if db.recorder is None or len(db.recorder) == 0:
            print("no queries observed yet")
        else:
            print(db.health().render())
    elif head == "\\events":
        if db.recorder is None or len(db.recorder) == 0:
            print("no events recorded yet")
        else:
            n = int(parts[1]) if len(parts) > 1 else 10
            print(db.recorder.to_jsonl(last=n), end="")
    else:
        print(
            "commands: \\tables  \\show <name>  \\terms  \\plan <query>  "
            "\\analyze <query>  \\trace <query>  \\metrics [prefix]  \\log  "
            "\\top [k]  \\health  \\events [n]  \\quit"
        )
    return True


def run_statement(sql: str, db: FuzzyDatabase) -> None:
    try:
        result = db.execute(sql)
    except (FuzzySQLError, DatabaseError) as exc:
        print(f"error: {exc}")
        return
    if isinstance(result, str):
        print(result)
    else:
        print_relation(result)
        print(f"({len(result)} tuples)")


def main():
    db = make_database()
    interactive = sys.stdin.isatty()
    if interactive:
        print("Fuzzy SQL shell — relations F and M loaded; \\quit to exit.")
    buffer = []
    while True:
        if interactive:
            sys.stdout.write("...> " if buffer else "fsql> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            if not handle_meta(stripped, db):
                break
            continue
        if stripped.endswith(";"):
            buffer.append(stripped[:-1])
            run_statement(" ".join(buffer), db)
            buffer = []
        elif stripped == "" and buffer:
            run_statement(" ".join(buffer), db)
            buffer = []
        elif stripped:
            buffer.append(stripped)
    if buffer:
        run_statement(" ".join(buffer), db)


if __name__ == "__main__":
    main()
