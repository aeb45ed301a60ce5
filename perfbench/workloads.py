"""The three perfbench workloads.

Each is a single-threaded closed loop over a fixed, seeded operation
sequence: every loop runs a fixed number of operations (the count is a
function of ``--seconds``, never of elapsed time), warm-up operations
are not timed, ``gc.collect()`` runs before each timed phase, and every
repetition of the q4-q8 analysis gets its own ``MemoTable`` (the
process-wide memo would turn repetitions 2+ into cache hits).

A workload returns a :class:`Outcome`: the end-to-end figures, the
same figures under the names of the per-workload table in README.md,
the correctness checks that failed, and, for a traced run, the traces.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from harness import TraceData, Tracer, install, median, percentile, table_digest

clock = time.perf_counter

#: The RIB generator seed of the paper-shaped Table-4 runs (BENCH_table4.json).
RIB_SEED = 20210610

PROGRAM_TEXT = (
    "R(f, n1, n2) :- F(f, n1, n2).\n"
    "R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).\n"
)


@dataclass
class Context:
    """What a workload is given: its seed, its size and where to write."""

    root: str
    workdir: str
    seed: int
    seconds: int
    tracer: Optional[Tracer] = None

    def span(self, name: str):
        """A harness-level span (set-up steps); a no-op when not tracing."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    @contextlib.contextmanager
    def traced_calls(self) -> Iterator[None]:
        """Wrap the layers' entry points for the duration of a ``with``."""
        undo = install(self.tracer) if self.tracer is not None else None
        try:
            yield
        finally:
            if undo is not None:
                undo()


@dataclass
class Outcome:
    """One run's results."""

    #: the bounded JSON metrics: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]]
    #: the same run under per-workload names: name -> (value, unit, samples)
    named: List[Tuple[str, float, str, int]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: traced runs: extra non-span figures and traces read from children
    layer_extra: Dict[str, float] = field(default_factory=dict)
    child_traces: List[TraceData] = field(default_factory=list)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _latencies(prefix: str, samples_s: List[float]) -> List[Tuple[str, float, str, int]]:
    """p10, p50 and p90 of one latency series, as named lines."""
    ms = [s * 1e3 for s in samples_s]
    return [(f"{prefix}_p{q}_ms", percentile(ms, q), "ms", len(ms)) for q in (10, 50, 90)]


def _outcome(
    setups: List[float],
    phase: Tuple[str, List[float]],
    op: Tuple[str, List[float]],
    ops: int,
    busy: float,
    peak: float,
    attempted: int,
    failed: int,
    problems: List[str],
) -> Outcome:
    """The bounded JSON metrics plus the workload's figures under its own names.

    Only figures that stay steady from run to run on a shared host are
    bounded (see README.md): the p95 latency, set-up time and memory.
    Per-op times there are bimodal (a fast state and one about 1.8x
    slower, mixed in proportions that drift between runs), so the lower
    percentiles and throughput move with the mix; they are printed, as
    is the median of the workload's few multi-second ``phase`` operations.
    """
    phase_name, phase_times = phase
    op_name, op_latencies = op
    p95 = percentile([s * 1e3 for s in op_latencies], 95)
    figures = {
        "setup_s": (median(setups), "s"),
        "op_p95_ms": (p95, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    named = [
        ("setup_s", figures["setup_s"][0], "s", len(setups)),
        (f"{phase_name}_s", median(phase_times), "s", len(phase_times)),
        *_latencies(op_name, op_latencies),
        (f"{op_name}_p95_ms", p95, "ms", len(op_latencies)),
        ("ops_per_s", ops / busy, "1/s", ops),
        ("peak_rss_mb", peak, "MB", 1),
    ]
    return Outcome(
        metrics=figures,
        named=named,
        attempted=attempted,
        failed=failed,
        problems=problems,
        layer_extra={"ops_per_s": ops / busy},
    )


def _build_rib(ctx: Context, prefixes: int):
    from repro.network.forwarding import compile_forwarding
    from repro.workloads.ribgen import RibConfig, generate_rib

    with ctx.span("workloads.generate_rib"):
        routes = generate_rib(
            RibConfig(prefixes=prefixes, as_count=max(60, prefixes // 4), seed=RIB_SEED)
        )
    with ctx.span("network.compile_forwarding"):
        compiled = compile_forwarding(routes)
    return routes, compiled


def _timed_setups(reps: int, build: Callable[[], Any]) -> Tuple[List[float], Any]:
    """Run ``build`` ``reps`` times; returns the times and the last result."""
    times, built = [], None
    for _ in range(reps):
        built = None  # let the previous copy go before timing the next
        gc.collect()
        start = clock()
        built = build()
        times.append(clock() - start)
    return times, built


# -- rib-batch ---------------------------------------------------------------------

BATCH_PREFIXES = 200
#: Set-ups timed before each repetition, warm-up included: the set-up
#: samples spread over the whole run instead of its first seconds, so
#: one slow or fast stretch of a shared host does not decide their median.
BATCH_SETUPS_PER_REP = 3
#: Seconds budgeted per repetition (fixpoint + 600 pattern queries) when
#: sizing the repetition count from ``--seconds``; below a repetition's
#: cost on a loaded 2-CPU host (3.5-5 s), so a run pools more of them.
BATCH_REP_SECONDS = 2.9
EXPECT_R_ROWS = 8431
EXPECT_Q7_ROWS = 998


def _pattern_queries(routes, compiled) -> list:
    """Per prefix: the q6, q7 and q8 queries of the Table-4 benchmark."""
    from benchmarks.bench_table4 import _pattern_queries as table4_queries

    return [q for kind in ("q6", "q7", "q8") for q in table4_queries(compiled, routes, kind)]


def rib_batch(ctx: Context) -> Outcome:
    from repro.network.reachability import ReachabilityAnalyzer
    from repro.solver.interface import ConditionSolver
    from repro.solver.memo import MemoTable

    def build():
        return _build_rib(ctx, BATCH_PREFIXES)

    setups, (routes, compiled) = _timed_setups(BATCH_SETUPS_PER_REP, build)
    queries = _pattern_queries(routes, compiled)
    reps = max(2, round(ctx.seconds / BATCH_REP_SECONDS))
    rng = random.Random(ctx.seed)
    fixpoints: List[float] = []
    latencies: List[float] = []
    busy = 0.0
    attempted = failed = 0
    problems: List[str] = []
    digests = set()
    for rep in range(reps + 1):  # repetition 0 is the untimed warm-up
        if rep:
            setups += _timed_setups(BATCH_SETUPS_PER_REP, build)[0]
        order = list(queries)
        rng.shuffle(order)
        results: Dict[tuple, Any] = {}
        rep_latencies: List[float] = []
        with ctx.traced_calls():  # the solver registers itself with the tracer
            solver = ConditionSolver(compiled.domains, memo=MemoTable())
            analyzer = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
            gc.collect()
            start = clock()
            try:
                reach = analyzer.compute()
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                problems.append(f"compute failed: {exc!r}")
                failed += 1 + len(order)
                attempted += 1 + len(order)
                continue
            fixpoint = clock() - start
            for query in order:
                op_start = clock()
                try:
                    table, _ = analyzer.under_pattern(
                        query.pattern,
                        name=query.name,
                        source=query.source,
                        dest=query.dest,
                        flow=query.flow,
                    )
                except Exception as exc:  # noqa: BLE001
                    failed += 1
                    problems.append(f"pattern query failed: {exc!r}")
                    continue
                rep_latencies.append(clock() - op_start)
                results[(query.name, query.flow)] = table
            elapsed = clock() - start
        attempted += 1 + len(order)
        q7_rows = sum(len(t) for (name, _), t in results.items() if name == "T2")
        if len(reach) != EXPECT_R_ROWS:
            problems.append(f"R has {len(reach)} rows, expected {EXPECT_R_ROWS}")
        if q7_rows != EXPECT_Q7_ROWS:
            problems.append(f"q7 has {q7_rows} rows, expected {EXPECT_Q7_ROWS}")
        digests.add(
            table_digest(reach)
            + "".join(table_digest(results[key]) for key in sorted(results))
        )
        if rep == 0:
            continue
        fixpoints.append(fixpoint)
        latencies.extend(rep_latencies)
        busy += elapsed
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    if len(digests) > 1:
        problems.append(f"row digests differ across repetitions ({len(digests)} distinct)")
    return _outcome(
        setups,
        ("fixpoint", fixpoints),
        ("pattern", latencies),
        reps * (1 + len(queries)),
        busy,
        peak,
        attempted,
        failed,
        problems,
    )


# -- rib-stream --------------------------------------------------------------------

STREAM_PREFIXES = 200
STREAM_SETUPS = 3
STREAM_WARMUP = 20
#: Approximate seconds of one announcement per prefix on a loaded 2-CPU host.
STREAM_CYCLE_SECONDS = 10.0


def _announcements(routes, rng: random.Random, count: int, tag: str) -> list:
    """``count`` new F edges: a fresh node forwarding into the head of one
    of a prefix's paths, cycling over every prefix in seeded order."""
    events = []
    order: List[int] = []
    for i in range(count):
        if not order:
            order = list(range(len(routes)))
            rng.shuffle(order)
        route = routes[order.pop()]
        head = rng.choice(route.paths)[0]
        events.append([route.prefix, f"{tag}{i}", head])
    return events


def rib_stream(ctx: Context) -> Outcome:
    from repro.faurelog.evaluation import evaluate
    from repro.faurelog.incremental import IncrementalEvaluator
    from repro.faurelog.parser import parse_program
    from repro.solver.interface import ConditionSolver
    from repro.solver.memo import MemoTable

    program = parse_program(PROGRAM_TEXT)
    initial_evals: List[float] = []

    def build():
        routes, compiled = _build_rib(ctx, STREAM_PREFIXES)
        database = compiled.database()
        solver = ConditionSolver(compiled.domains, memo=MemoTable())
        start = clock()
        evaluator = IncrementalEvaluator(program, database, solver=solver)
        initial_evals.append(clock() - start)
        return routes, compiled, database, evaluator

    setups, (routes, compiled, database, evaluator) = _timed_setups(1, build)
    rng = random.Random(ctx.seed)
    warmup = _announcements(routes, rng, STREAM_WARMUP, "W")
    count = len(routes) * max(1, round(ctx.seconds / STREAM_CYCLE_SECONDS))
    events = _announcements(routes, rng, count, "N")
    # The other set-ups are timed between equal parts of the stream, so
    # the set-up samples spread over the run.
    part = -(-count // STREAM_SETUPS)
    parts = [events[i : i + part] for i in range(0, count, part)]
    latencies: List[float] = []
    derived = failed = 0
    busy = 0.0
    problems: List[str] = []
    if ctx.tracer is not None:
        ctx.tracer.watch_solver(evaluator.solver)
    with ctx.traced_calls():
        for values in warmup:
            evaluator.apply("insert", "F", values)
    for index, chunk in enumerate(parts):
        if index:
            setups += _timed_setups(1, build)[0]
        gc.collect()
        with ctx.traced_calls():
            start = clock()
            for values in chunk:
                op_start = clock()
                try:
                    derived += evaluator.apply("insert", "F", values)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    failed += 1
                    problems.append(f"apply failed: {exc!r}")
                    continue
                latencies.append(clock() - op_start)
            busy += clock() - start
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    # Outside the timed phase: a from-scratch evaluation of the final EDB
    # must give the same R rows (insertion order may differ).
    start = clock()
    scratch = evaluate(
        program, database, solver=ConditionSolver(compiled.domains, memo=MemoTable())
    )
    recompute_s = clock() - start
    if table_digest(evaluator.table("R"), ordered=False) != table_digest(
        scratch.table("R"), ordered=False
    ):
        problems.append("incremental R differs from a from-scratch evaluation")
    if derived == 0:
        problems.append("the announcement stream derived nothing")
    outcome = _outcome(
        setups,
        ("initial_eval", initial_evals),
        ("update", latencies),
        len(latencies),
        busy,
        peak,
        len(events),
        failed,
        problems,
    )
    outcome.named += [
        ("recompute_s", recompute_s, "s", 1),
        ("derivations_per_update", derived / max(1, len(latencies)), "count", len(latencies)),
    ]
    return outcome


# -- serve-mixed -------------------------------------------------------------------

SERVE_PREFIXES = 40
SERVE_SETUPS = 5
SERVE_RECOVERS = 5
#: Compaction threshold (WAL entries); fires every 25 writes.
COMPACT_EVERY = 25
#: One block of the seeded mix; blocks are shuffled op by op.  Queries
#: are 70% of the ops, the read share of the serve probe this workload
#: was specified from.  The writes follow the ingest stream of
#: benchmarks/bench_serve.py (every 5th update removable, every 7th
#: conditional, half of the removable facts withdrawn): 11 updates, of
#: which 2 removable and 2 conditional, plus 1 withdrawal.  The two
#: query shapes split evenly.
BLOCK = (
    ["insert"] * 7
    + ["conditional"] * 2
    + ["removable"] * 2
    + ["withdraw"]
    + ["query_limit"] * 14
    + ["query_where"] * 14
)
WRITES = ("insert", "conditional", "removable", "withdraw")


def _rows_only(answer: Dict[str, Any]) -> str:
    keep = ("relation", "schema", "status", "rows", "total")
    return json.dumps({k: answer[k] for k in keep}, sort_keys=True)


class _Daemon:
    """``repro serve`` as a child process on a fresh WAL."""

    def __init__(self, ctx: Context, db_path: str, trace_out: Optional[str]):
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=ctx.workdir)
        self.wal = os.path.join(self.dir, "serve.wal")
        if trace_out is None:
            head = [sys.executable, "-m", "repro"]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launch.py")
            head = [sys.executable, launcher, trace_out]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ctx.root, "src")
        self.log = open(os.path.join(self.dir, "stderr.log"), "wb")
        self.proc = subprocess.Popen(
            head
            + [
                "serve",
                "--db", db_path,
                "--program", PROGRAM_TEXT,
                "--wal", self.wal,
                "--compact-every", str(COMPACT_EVERY),
            ],
            cwd=ctx.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("serve daemon exited before its ready line")
        self.port = json.loads(line)["serving"]["port"]

    def stop(self, client=None) -> int:
        """Graceful shutdown (through ``client`` when given); waits for exit."""
        try:
            if client is not None:
                try:
                    client.shutdown()
                except ConnectionError:
                    pass  # the daemon may exit before it writes the reply; its exit code counts
                client.close()
            else:
                self.proc.terminate()
            return self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def serve_mixed(ctx: Context) -> Outcome:
    from repro.ctable.io import dump_database
    from repro.serve.client import ServeClient
    from repro.serve.state import ServeState

    traced = ctx.tracer is not None
    trace_paths: List[str] = []
    daemons: List[_Daemon] = []

    def launch():
        routes, compiled = _build_rib(ctx, SERVE_PREFIXES)
        db_text = dump_database(compiled.database(), compiled.domains)
        db_path = os.path.join(tempfile.mkdtemp(prefix="db-", dir=ctx.workdir), "db.json")
        with open(db_path, "w") as handle:
            handle.write(db_text)
        trace_out = None
        if traced:
            trace_out = os.path.join(ctx.workdir, f"serve-trace-{len(trace_paths)}.bin")
            trace_paths.append(trace_out)
        daemons.append(_Daemon(ctx, db_path, trace_out))
        return routes, compiled, db_text

    def timed_start():
        gc.collect()
        begin = clock()
        launched = launch()
        return clock() - begin, launched

    try:
        first, (routes, compiled, db_text) = timed_start()
        setups = [first]
        daemon = daemons[0]
        client = ServeClient("127.0.0.1", daemon.port, timeout=120).connect()
        rng = random.Random(ctx.seed)
        guards: List[str] = []
        counter = [0]
        inserted = [0]
        write_s: List[float] = []  # every write, warm-up included
        problems: List[str] = []

        def path_var(n: int) -> Tuple[Any, int, str]:
            """The ``n``-th (route, path index, link c-variable) of a cycle
            over every prefix, then over each prefix's paths."""
            route = routes[n % len(routes)]
            k = (n // len(routes)) % len(route.paths)
            return route, k, compiled.variables_of(route.prefix)[k].name

        def run_op(kind: str) -> bool:
            counter[0] += 1
            i = counter[0]
            if kind.startswith("query"):
                limit = rng.randint(10, 50)
                if kind == "query_where":
                    route = rng.choice(routes)
                    var = compiled.variables_of(route.prefix)[rng.randrange(len(route.paths))]
                    where = f"${var.name} == {rng.randint(0, 1)}"
                    answer = client.query("R", where=where, limit=limit)
                else:
                    answer = client.query("R", limit=limit)
                return bool(answer.get("ok")) and answer.get("status") == "OK"
            start = clock()
            if kind == "withdraw":
                guard = guards.pop(0)
                answer = client.withdraw(guard, txid=f"w{i}")
            else:
                # The facts, and so the growth of R that every query's
                # cost follows, are the same for every seed.
                route, k, var = path_var(inserted[0])
                inserted[0] += 1
                values = [route.prefix, f"S{i}", route.paths[k][0]]
                answer = client.update(
                    "F",
                    values,
                    condition=f"${var} == 1" if kind == "conditional" else None,
                    removable=kind == "removable",
                    txid=f"u{i}",
                )
                if answer.get("ok") and kind == "removable":
                    guards.append(answer["guard"])
            write_s.append(clock() - start)
            return bool(answer.get("ok"))

        # Warm-up (untimed): two removable facts first, so every block's
        # withdrawal has a guard to take, then half a block of the mix.
        warm = ["removable", "removable"] + rng.sample(BLOCK, len(BLOCK) // 2)
        failed = sum(not run_op(kind) for kind in warm)
        blocks = max(9, round(0.45 * ctx.seconds))
        ops = [kind for _ in range(blocks) for kind in rng.sample(BLOCK, len(BLOCK))]
        latencies: Dict[str, List[float]] = {"write": [], "query": []}
        busy = 0.0
        # The other set-ups (a second daemon, stopped once ready) are
        # timed between equal parts of the loop, so they spread over the run.
        part = -(-len(ops) // SERVE_SETUPS)
        for index in range(0, len(ops), part):
            if index:
                took, _ = timed_start()
                setups.append(took)
                daemons[-1].stop()
            gc.collect()
            busy_start = clock()
            for kind in ops[index : index + part]:
                start = clock()
                ok = run_op(kind)
                if not ok:
                    failed += 1
                    continue
                latencies["write" if kind in WRITES else "query"].append(clock() - start)
            busy += clock() - busy_start
        live = _rows_only(client.request({"op": "query", "relation": "R"}, bulk=True))
        code = daemon.stop(client)
        if code != 0:
            problems.append(f"serve daemon exited with {code}")
        peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)

        # Cold restarts on the same WAL: newest snapshot plus log suffix,
        # until the first answer.
        recovers: List[float] = []
        replayed = 0
        restarted = ""
        for rep in range(SERVE_RECOVERS):
            gc.collect()
            start = clock()
            state = ServeState(PROGRAM_TEXT, db_text, daemon.wal, compact_every=COMPACT_EVERY)
            state.query("R", limit=10)
            recovers.append(clock() - start)
            replayed = sum(1 for e in state.wal.entries() if e.seq > state.wal.base_seq)
            if rep == SERVE_RECOVERS - 1:
                restarted = _rows_only(state.query("R"))
            state.close()
        if restarted != live:
            problems.append("rows after a cold restart differ from the live answer")
        if failed:
            problems.append(f"{failed} serve operation(s) not acked")
    finally:
        for d in daemons:
            if d.proc.poll() is None:
                d.stop()

    everything = latencies["write"] + latencies["query"]
    outcome = _outcome(
        setups,
        ("recover", recovers),
        ("op", everything),
        len(everything),
        busy,
        peak,
        len(warm) + len(ops),
        failed,
        problems,
    )
    outcome.named += _latencies("update", latencies["write"])
    outcome.named += _latencies("query", latencies["query"])
    outcome.named.append(("replayed_entries", replayed, "count", 1))
    outcome.layer_extra.update(
        client_write_s=sum(write_s), updates_acked=len(write_s), replay_entries=replayed
    )
    if traced:
        outcome.child_traces = [TraceData.load(trace_paths[0])]
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "rib-batch": rib_batch,
    "rib-stream": rib_stream,
    "serve-mixed": serve_mixed,
}
