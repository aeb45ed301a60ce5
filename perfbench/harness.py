"""Measurement machinery shared by the perfbench workloads.

* :func:`percentile` — nearest-rank percentiles that refuse a tail
  percentile with fewer than ten samples beyond it (so a p90 needs at
  least 100 samples).
* :class:`Tracer` — in-memory span recorder: each span is (name, start,
  end, parent), kept per thread in flat arrays and written out once
  when the run ends.  Self time is a span's duration minus the
  durations of its direct children.
* :func:`install` — wraps the public entry points of each layer of the
  ``repro`` package so their calls become spans and counters.  Nothing
  under ``src/`` changes; :func:`install` patches attributes at run
  time and returns a function that restores them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Samples that must lie beyond a percentile's rank before it is reported.
MIN_TAIL_SAMPLES = 10


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``.

    Raises :class:`ValueError` unless at least :data:`MIN_TAIL_SAMPLES`
    samples rank above it: p50 needs 20 samples, p90 needs 100.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(samples)
    rank = math.ceil(q / 100 * n)  # 1-based nearest rank
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} over {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def table_digest(table, ordered: bool = True) -> str:
    """SHA-256 over a c-table's rows (values and condition reprs).

    ``ordered=False`` sorts the rows first, for comparing evaluation
    paths that promise the same rows but not the same insertion order.
    """
    rows = [
        "|".join(repr(v) for v in tup.values) + "#" + repr(tup.condition)
        for tup in table
    ]
    if not ordered:
        rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# -- spans ---------------------------------------------------------------------


class _ThreadSpans:
    """One thread's spans as parallel flat arrays plus its open-span stack."""

    __slots__ = ("name", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[int] = []


class Tracer:
    """Records nested spans and named counters in memory.

    Spans nest per thread: a span's parent is the innermost span open on
    the same thread when it began.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: (solver, stats when first watched, memo evictions then)
        self.solvers: List[Tuple[Any, Any, int]] = []
        self._threads: List[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        spans = self._spans()
        index = len(spans.name)
        spans.name.append(self._name_id(name))
        spans.parent.append(spans.stack[-1] if spans.stack else -1)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(self.clock())
        return index

    def end(self, index: int) -> None:
        spans = self._local.spans
        spans.end[index] = self.clock()
        spans.stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def watch_solver(self, solver: Any) -> None:
        """Count ``solver``'s decisions from now on (see :func:`solver_counters`)."""
        memo = solver.memo
        self.solvers.append(
            (solver, dataclasses.replace(solver.stats), memo.evictions if memo else 0)
        )

    def data(self) -> "TraceData":
        """All threads' spans, concatenated with parents re-indexed."""
        name, start, end, parent = array("i"), array("d"), array("d"), array("i")
        for spans in list(self._threads):
            offset = len(name)
            name.extend(spans.name)
            start.extend(spans.start)
            end.extend(spans.end)
            parent.extend(p + offset if p >= 0 else -1 for p in spans.parent)
        return TraceData(list(self.names), name, start, end, parent, dict(self.counters))

    def dump(self, path: str) -> None:
        """Write spans and counters: one JSON header line, then raw arrays."""
        self.data().dump(path)


class TraceData:
    """A finished trace: span arrays, the span-name table and counters."""

    def __init__(self, names, name, start, end, parent, counters):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counters = counters

    def dump(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.name), "counters": self.counters}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(handle)

    @classmethod
    def load(cls, path: str) -> "TraceData":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["spans"]
            arrays = []
            for code in ("i", "d", "d", "i"):
                arr = array(code)
                arr.fromfile(handle, n)
                arrays.append(arr)
        return cls(header["names"], *arrays, header["counters"])

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``total`` and ``self`` seconds."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(
                self.names[self.name[i]], {"count": 0, "total": 0.0, "self": 0.0}
            )
            row["count"] += 1
            row["total"] += dur
            row["self"] += dur - child[i]
        return out

    def total_under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans that have an ``ancestor`` span."""
        if name not in self.names or ancestor not in self.names:
            return 0.0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        total = 0.0
        for i in range(len(self.name)):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i]
        return total


# -- wrappers --------------------------------------------------------------------


def span_wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` with every call recorded as one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def generator_wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` (returning an iterator) with each ``next()`` recorded as a span.

    Creating the iterator is not timed; every step of iterating it is,
    including the final step that finds it exhausted.  Each item yielded
    counts under ``<name>.items``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            index = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            tracer.count(name + ".items")
            yield item

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns the undo function."""
    from repro.ctable.table import CTable
    from repro.engine.storage import IndexedTable
    from repro.faurelog import evaluation, incremental, valuation
    from repro.faurelog.evaluation import FaureEvaluator
    from repro.faurelog.incremental import IncrementalEvaluator
    from repro.network import reachability
    from repro.network.reachability import ReachabilityAnalyzer
    from repro.robustness.checkpoint import CheckpointJournal
    from repro.serve import server, state
    from repro.serve.epochs import EpochManager, Snapshot
    from repro.serve.state import ServeState
    from repro.serve.wal import WriteAheadLog
    from repro.solver.interface import ConditionSolver

    saved: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def spans(owner: Any, attr: str, name: str) -> None:
        patch(owner, attr, span_wrap(tracer, name, owner.__dict__[attr]))

    # network: the q4-q5 fixpoint and one q6-q8 pattern query
    spans(ReachabilityAnalyzer, "compute", "network.compute")
    spans(reachability, "run_pattern_query", "network.pattern")

    # faurelog: join search (per next()), whole evaluations, incremental applies
    derive = generator_wrap(tracer, "faurelog.derive", valuation.derive)
    patch(evaluation, "derive", derive)
    patch(incremental, "derive", derive)

    evaluate = FaureEvaluator.__dict__["evaluate"]

    def traced_evaluate(self, program):
        before = self.stats.tuples_generated
        index = tracer.begin("faurelog.evaluate")
        try:
            return evaluate(self, program)
        finally:
            tracer.end(index)
            tracer.count("faurelog.kept", self.stats.tuples_generated - before)

    patch(FaureEvaluator, "evaluate", traced_evaluate)

    apply = IncrementalEvaluator.__dict__["apply"]

    def traced_apply(self, *args, **kwargs):
        before = self.stats.tuples_generated
        index = tracer.begin("faurelog.apply")
        try:
            return apply(self, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count("faurelog.kept", self.stats.tuples_generated - before)

    patch(IncrementalEvaluator, "apply", traced_apply)

    # engine: index probes and the rows they hand to join search
    candidates = IndexedTable.__dict__["candidates"]

    def counted_rows(rows):
        counters = tracer.counters
        for row in rows:
            counters["engine.rows_examined"] = counters.get("engine.rows_examined", 0) + 1
            yield row

    def traced_candidates(self, pattern):
        tracer.count("engine.candidates.calls")
        return counted_rows(candidates(self, pattern))

    patch(IndexedTable, "candidates", traced_candidates)

    def counted(owner: Any, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        patch(owner, attr, wrapper)

    counted(IndexedTable, "add", "engine.index_add.calls")
    counted(CTable, "add", "ctable.add.calls")

    # solver: the two three-valued decision entry points, plus a registry
    # of every solver so its stats can be read at the end
    spans(ConditionSolver, "sat_verdict", "solver.sat")
    spans(ConditionSolver, "implies_verdict", "solver.implies")
    solver_init = ConditionSolver.__dict__["__init__"]

    def registering_init(self, *args, **kwargs):
        solver_init(self, *args, **kwargs)
        tracer.watch_solver(self)

    patch(ConditionSolver, "__init__", registering_init)

    # serve: wire codec, query, update path, publish, compaction
    spans(server, "decode_request", "serve.decode")
    spans(server, "encode", "serve.encode")
    query = ServeState.__dict__["query"]

    def traced_query(self, *args, **kwargs):
        index = tracer.begin("serve.query")
        try:
            response = query(self, *args, **kwargs)
        finally:
            tracer.end(index)
        tracer.count("serve.rows_returned", len(response["rows"]))
        return response

    patch(ServeState, "query", traced_query)
    counted(state, "row_to_obj", "serve.rows_converted")
    spans(ServeState, "submit", "serve.submit")
    capture = Snapshot.__dict__["capture"]
    patch(Snapshot, "capture", classmethod(span_wrap(tracer, "serve.publish", capture.__func__)))
    spans(EpochManager, "publish", "serve.publish")
    spans(state, "write_snapshot", "serve.compact")
    spans(WriteAheadLog, "rewrite", "serve.compact")
    counted(WriteAheadLog, "rewrite", "serve.compact.calls")

    # robustness: the fsync'd journal append under every WAL record
    record = CheckpointJournal.__dict__["record"]

    def traced_record(self, *args, **kwargs):
        before = os.path.getsize(self.path)
        index = tracer.begin("robustness.journal_record")
        try:
            return record(self, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count("robustness.journal_bytes", os.path.getsize(self.path) - before)

    patch(CheckpointJournal, "record", traced_record)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return uninstall


def solver_counters(tracer: Tracer) -> Dict[str, float]:
    """Summed stats of every solver the tracer saw, plus memo evictions."""
    fields = (
        "sat_calls", "implication_calls", "cache_hits", "memo_hits",
        "memo_misses", "fast_path_hits", "fast_path_misses",
    )
    out: Dict[str, float] = {f: 0 for f in fields}
    out["decisions"] = 0
    memos: Dict[int, Tuple[Any, int]] = {}
    for solver, base, evictions in tracer.solvers:
        for f in fields:
            out[f] += getattr(solver.stats, f) - getattr(base, f)
        out["decisions"] += solver.stats.decisions - base.decisions
        if solver.memo is not None:
            memos.setdefault(id(solver.memo), (solver.memo, evictions))
    out["memo_evictions"] = sum(m.evictions - before for m, before in memos.values())
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def dump_solver_counters(tracer: Tracer) -> None:
    """Fold the solver registry into the counters (before :meth:`Tracer.dump`)."""
    for key, value in solver_counters(tracer).items():
        tracer.counters["solver." + key] = value
    tracer.solvers.clear()


def merged_counters(datasets: Iterable[TraceData]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for data in datasets:
        for key, value in data.counters.items():
            out[key] = out.get(key, 0) + value
    return out


def layer_metrics(
    datasets: List[TraceData], extra: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from its trace(s).

    ``extra`` carries workload-side figures that are not spans: client
    write time, updates acked, WAL entries replayed and traced
    throughput.
    """
    extra = extra or {}
    summary: Dict[str, Dict[str, float]] = {}
    for data in datasets:
        for name, row in data.summary().items():
            acc = summary.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += row[key]
    counters = merged_counters(datasets)

    def total(name: str) -> float:
        return summary.get(name, {}).get("total", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("count", 0)

    derivations = counters.get("faurelog.derive.items", 0)
    rows = counters.get("engine.rows_examined", 0)
    submit_s = total("serve.submit")
    sat_calls = counters.get("solver.sat_calls", 0)
    implies_calls = counters.get("solver.implication_calls", 0)
    fast = counters.get("solver.fast_path_hits", 0)
    memo = counters.get("solver.memo_hits", 0)
    updates = extra.get("updates_acked", 0)
    return {
        "network.compute_s": total("network.compute"),
        "network.pattern_s": total("network.pattern"),
        "faurelog.derive.calls": calls("faurelog.derive"),
        "faurelog.derive_s": total("faurelog.derive"),
        "faurelog.derive.self_s": summary.get("faurelog.derive", {}).get("self", 0.0),
        "faurelog.derivations": derivations,
        "faurelog.kept_per_derivation": ratio(counters.get("faurelog.kept", 0), derivations),
        "faurelog.evaluate_s": total("faurelog.evaluate"),
        "faurelog.apply_s": total("faurelog.apply"),
        "engine.candidates.calls": counters.get("engine.candidates.calls", 0),
        "engine.rows_examined": rows,
        "engine.rows_examined_per_derivation": ratio(rows, derivations),
        "ctable.add.calls": counters.get("ctable.add.calls", 0),
        "engine.index_add.calls": counters.get("engine.index_add.calls", 0),
        "solver.sat.calls": calls("solver.sat"),
        "solver.sat.s": total("solver.sat"),
        "solver.implies.calls": calls("solver.implies"),
        "solver.implies.s": total("solver.implies"),
        "solver.cache_hit_ratio": ratio(
            counters.get("solver.cache_hits", 0), sat_calls + implies_calls
        ),
        "solver.memo_hit_ratio": ratio(memo, memo + counters.get("solver.memo_misses", 0)),
        "solver.fast_path_ratio": ratio(
            fast, fast + counters.get("solver.fast_path_misses", 0)
        ),
        "solver.decisions": counters.get("solver.decisions", 0),
        "solver.memo_evictions": counters.get("solver.memo_evictions", 0),
        "serve.decode_s": total("serve.decode"),
        "serve.encode_s": total("serve.encode"),
        "serve.query_s": total("serve.query"),
        "serve.rows_converted_per_row_returned": ratio(
            counters.get("serve.rows_converted", 0), counters.get("serve.rows_returned", 0)
        ),
        "serve.submit_s": submit_s,
        "serve.apply_s": sum(d.total_under("faurelog.apply", "serve.submit") for d in datasets),
        "serve.publish_s": total("serve.publish"),
        "robustness.journal_record.calls": calls("robustness.journal_record"),
        "robustness.journal_record_s": total("robustness.journal_record"),
        "serve.ingest_wait_s": extra.get("client_write_s", 0.0) - submit_s,
        "serve.compact.calls": counters.get("serve.compact.calls", 0),
        "serve.compact_s": total("serve.compact"),
        "serve.wal_bytes_per_update": ratio(counters.get("robustness.journal_bytes", 0), updates),
        "serve.replay_entries": extra.get("replay_entries", 0),
        "workloads.generate_rib_s": total("workloads.generate_rib"),
        "network.compile_forwarding_s": total("network.compile_forwarding"),
        "trace.ops_per_s": extra.get("ops_per_s", 0.0),
    }
