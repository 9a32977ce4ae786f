"""Outside-in tracing: timing wrappers around each layer's public entry points.

``install`` replaces the entry points of :data:`PROBES` by wrappers that
keep one open-span stack per thread, so every span has a name, start, end
and parent, and all spans of one statement share its id.  A layer's self
time is its spans' duration minus the part their child spans cover; every
instant inside a root span is charged to exactly one open span, so the
self times sum to the root spans by construction.  ``remove`` puts the
originals back.  End-to-end numbers must not be taken in a process where
probes were ever installed.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: ``(metric, "module[:Class]", attributes, hook)`` — the time of each entry
#: point is summed into ``metric``; hooks derive counts from its result.
PROBES = [
    ("session.self_s", "repro.session:StorageSession", "query execute recover", None),
    ("sql.parse_s", "repro.sql.lexer", "tokenize", None),
    ("sql.parse_s", "repro.sql.parser", "parse", None),
    ("sql.parse_s", "repro.sql.statements", "parse_statement", None),
    ("sql.parse_s", "repro.sql.classify", "classify", None),
    ("sql.parse_s", "repro.sql.params", "bind_parameters", None),
    ("unnest.rewrite_s", "repro.unnest.rewriter", "unnest", None),
    ("service.lookup_s", "repro.service.plancache:PlanCache", "lookup", "plan_cache"),
    ("engine.compile_s", "repro.engine.executor:FlatCompiler", "compile", None),
    ("engine.compile_s", "repro.engine.optimizer", "optimize_join_order", None),
    ("engine.grouped_s", "repro.engine.grouped:GroupedAntiJoin", "run", None),
    ("engine.pipelined_s", "repro.engine.pipelined:JAPipeline", "run", None),
    ("engine.naive_eval_s", "repro.engine.semantics:NaiveEvaluator", "evaluate", None),
    ("sort.self_s", "repro.sort.external:ExternalSorter", "sort", None),
    ("join.merge_s", "repro.join.merge_join:MergeJoin", "fold pairs", "pairs"),
    ("join.nested_loop_s", "repro.join.nested_loop:NestedLoopJoin", "fold pairs", "pairs"),
    ("fuzzy.self_s", "repro.fuzzy.compare:ComparisonKernel", "possibility batch", "kernel"),
    ("fuzzy.self_s", "repro.fuzzy.compare", "possibility necessity", "fuzzy"),
    ("columnar.kernel_s", "repro.columnar.kernel",
     "batch_eq_possibility batch_lt_possibility batch_le_possibility batch_eq_necessity", None),
    ("storage.serializer_s", "repro.storage.serializer:TupleSerializer", "encode decode", None),
    ("storage.buffer_s", "repro.storage.buffer:BufferPool", "get_page", "pool"),
    ("storage.heap_s", "repro.storage.heap:HeapFile", "load scan_pages page_tuples", None),
    ("storage.disk_s", "repro.storage.disk:SimulatedDisk",
     "read_page write_page read_blob append_blob", None),
    ("wal.append_s", "repro.wal.log:WriteAheadLog", "append", None),
    ("wal.sync_s", "repro.wal.log:WriteAheadLog", "sync", None),
    ("wal.apply_s", "repro.wal.manager:WriteManager", "apply_ops", None),
    ("wal.recover_s", "repro.wal.manager:WriteManager", "recover", None),
]

#: Hot leaves: aggregated as ``(calls, total_s)`` per parent span instead of
#: one stored span per call.
HOT = {
    "fuzzy.self_s", "columnar.kernel_s", "storage.serializer_s",
    "storage.buffer_s", "storage.disk_s", "wal.append_s",
}


class _Frame:
    __slots__ = ("sid", "stmt", "metric", "start", "child_s")

    def __init__(self, sid, stmt, metric, start):
        self.sid, self.stmt, self.metric, self.start, self.child_s = sid, stmt, metric, start, 0.0


class Tracer:
    """Spans, leaf aggregates and counts collected by the installed wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: ``[sid, parent sid, statement id, name, metric, start, end, busy_s, self_s]``
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent sid, name) -> [calls, total_s]
        self.self_s = defaultdict(float)             # metric -> summed self time
        self.calls = defaultdict(int)                # "Owner.attr" -> calls
        self.counts = defaultdict(int)               # hook counters
        self.seen = {}                               # id -> object whose public counters are read later

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self) -> bool:
        """Whether this thread is inside a traced span."""
        return bool(getattr(self._local, "stack", None))

    def enter(self, metric: str, hot: bool, span=None):
        """Open a frame on this thread's stack; returns ``(stack, parent, frame)``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if span:
            sid, stmt = span[0], span[2]
        elif hot and parent is not None:
            sid, stmt = parent.sid, parent.stmt
        else:
            sid = next(self._ids)
            stmt = parent.stmt if parent is not None else sid
        frame = _Frame(sid, stmt, metric, time.perf_counter())
        stack.append(frame)
        return stack, parent, frame

    def leave(self, stack, parent, frame) -> float:
        """Close ``frame``: charge its self time, and its duration to the parent."""
        now = time.perf_counter()
        stack.pop()
        duration = now - frame.start
        self.self_s[frame.metric] += duration - frame.child_s
        if parent is not None:
            parent.child_s += duration
        return now

    # ------------------------------------------------------------------
    # Hooks: counts taken at the same boundaries as the times
    # ------------------------------------------------------------------
    def hook_fuzzy(self, parent, args, result) -> None:
        if parent is not None and parent.metric == "fuzzy.self_s":
            return  # an inner call of one evaluation already counted
        degrees = result if isinstance(result, list) else (result,)
        self.counts["fuzzy.evals"] += len(degrees)
        self.counts["fuzzy.nonzero"] += sum(1 for d in degrees if d > 0.0)

    def hook_kernel(self, parent, args, result) -> None:
        self.seen[id(args[0])] = args[0]
        self.hook_fuzzy(parent, args, result)

    def hook_pool(self, parent, args, result) -> None:
        self.seen[id(args[0])] = args[0]

    def hook_plan_cache(self, parent, args, result) -> None:
        self.counts["plan_cache." + result[1]] += 1

    def counting(self, pair_degree):
        """``pair_degree`` with every call counted (the pairs a fold examines)."""
        counts = self.counts

        def counted(r, s, stats=None):
            counts["join.pairs_examined"] += 1
            return pair_degree(r, s, stats)

        return counted

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def hit_ratio(self, kind: str) -> float:
        """``hits / (hits + misses)`` over every ``kind`` object a hook saw (0 if none looked up)."""
        seen = [o for o in self.seen.values() if type(o).__name__ == kind]
        hits, misses = sum(o.hits for o in seen), sum(o.misses for o in seen)
        return hits / (hits + misses) if hits + misses else 0.0

    def root_s(self) -> float:
        return sum(span[7] for span in self.spans if span[1] is None)

    def leaf_calls_under(self, root_name: str, leaf_names) -> int:
        """Calls of the named hot leaves inside statements whose root span is ``root_name``."""
        roots = {span[2] for span in self.spans if span[1] is None and span[3] == root_name}
        statement = {span[0]: span[2] for span in self.spans}
        return sum(
            calls for (sid, name), (calls, _) in self.leaves.items()
            if name in leaf_names and statement.get(sid) in roots
        )

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON; leaf aggregates ride along under ``leaves``."""
        origin = min((span[5] for span in self.spans), default=0.0)
        events = [
            {
                "name": name, "cat": metric.split(".")[0], "ph": "X", "pid": 1, "tid": stmt,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, "busy_s": busy, "self_s": self_s},
            }
            for sid, parent, stmt, name, metric, start, end, busy, self_s in self.spans
        ]
        leaves = [
            {"parent": sid, "name": name, "calls": calls, "total_s": total}
            for (sid, name), (calls, total) in sorted(self.leaves.items())
        ]
        return {"traceEvents": events, "leaves": leaves}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _wrap(tracer: Tracer, fn, metric: str, name: str, hook):
    """A timing wrapper around ``fn`` (a function or a generator function)."""
    hot = metric in HOT
    on_result = getattr(tracer, f"hook_{hook}", None)
    signature = inspect.signature(fn) if hook == "pairs" and fn.__name__ == "fold" else None

    def count_pairs(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["pair_degree"] = tracer.counting(bound.arguments["pair_degree"])
        return bound.args, bound.kwargs

    def call(*args, **kwargs):
        if hot and not tracer.open():
            return fn(*args, **kwargs)  # a leaf outside any statement is the benchmark's own work
        tracer.calls[name] += 1
        stack, parent, frame = tracer.enter(metric, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.leave(stack, parent, frame)
            busy = end - frame.start
            if hot:
                leaf = tracer.leaves[(frame.sid, name)]
                leaf[0] += 1
                leaf[1] += busy
            else:
                tracer.spans.append([
                    frame.sid, parent.sid if parent is not None else None, frame.stmt,
                    name, metric, frame.start, end, busy, busy - frame.child_s,
                ])
        if on_result is not None:
            on_result(parent, args, result)
        return result

    def generate(*args, **kwargs):
        # A generator works inside each next(): charge those slices, and
        # store one span from the first resume to the last.
        tracer.calls[name] += 1
        if signature is not None:
            args, kwargs = count_pairs(args, kwargs)
        inner = fn(*args, **kwargs)
        span = []  # filled in by the first slice

        def end_slice(stack, parent, frame) -> None:
            end = tracer.leave(stack, parent, frame)
            if not span:
                span.extend([frame.sid, parent.sid if parent is not None else None,
                             frame.stmt, name, metric, frame.start, end, 0.0, 0.0])
            span[6] = end
            span[7] += end - frame.start
            span[8] += end - frame.start - frame.child_s

        try:
            while True:
                opened = tracer.enter(metric, hot, span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end_slice(*opened)
                yield item
        finally:
            opened = tracer.enter(metric, hot, span)
            try:
                inner.close()
            finally:
                end_slice(*opened)
                tracer.spans.append(span)

    wrapper = generate if inspect.isgeneratorfunction(fn) else call
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> list:
    """Patch every probe; returns the ``(owner, attribute, original)`` list for ``remove``."""
    patches = []
    for metric, target, attributes, hook in PROBES:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attribute in attributes.split():
            original = vars(owner)[attribute]
            label = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attribute}"
            wrapped = _wrap(tracer, original, metric, label, hook)
            # Classes are patched in place; a module-level function is
            # rebound in every imported repro module whose global is the
            # original (``from .sql.parser import parse`` otherwise escapes).
            owners = [owner] if class_name else [
                mod for name, mod in list(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and vars(mod).get(attribute) is original
            ]
            for each in owners:
                setattr(each, attribute, wrapped)
                patches.append((each, attribute, original))
    return patches


def remove(patches: list) -> None:
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
