"""Per-layer metrics: the traced pass, the stage replays, the counter ratios.

Layer names are the packages under ``src/repro``.  Exact counts (statements
and round trips per operation, route shares, WAL bytes per transaction) come
from the traced pass, where one client replays a fixed operation list and so
the counts repeat; rates that need concurrency (plan-cache hit ratio,
conflicts, fsyncs per transaction) come from counter deltas over the
capacity phase.  README.md has the table of which end-to-end metric each
layer metric should move.
"""

from __future__ import annotations

import re
import statistics
import time
from typing import Callable, Sequence

from repro.core.pipeline import QueryllPipeline
from repro.jvm import method_to_tac
from repro.minijava import compile_source
from repro.netclient import RemoteDatabase
from repro.pyfrontend.decorator import QueryFunction
from repro.server import protocol
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse_statement
from repro.testing import OFFICE_QUERY_SOURCE, make_bank_mapping
from repro.tpcw import queries_queryll
from repro.tpcw.schema import tpcw_mapping

from nodes import OUT_DIR
from spans import Span, TracedDatabase, Tracer, self_time
from workloads import check_samples

#: Every Nth read of the traced pass is checked against the oracle.
TRACE_ORACLE_EVERY = 10
_REPLAY_REPEATS = 3
_ROUTES = ("single", "any", "fanout", "gather", "broadcast", "split")
_OPS = (
    "getName", "getCustomer", "doSubjectSearch", "doGetRelated", "adhocLookup",
    "transfer", "agg_full", "scan_filtered", "agg_filtered", "join2", "join3", "update",
)

#: Every per-layer metric and its unit; a workload a metric does not apply
#: to reports 0 for it, so each run prints the same names.
UNITS: dict[str, str] = {
    "loaded_p50_ms": "ms",
    "paced_mean_ms": "ms",
    "paced_p50_ms": "ms",
    "paced_p95_ms": "ms",
    "paced_within_slo_share": "ratio",
    "error_share": "ratio",
    "core.rewrite_cold_ms": "ms",
    "core.rewritten_share": "ratio",
    "orm.self_ms_per_op": "ms",
    "orm.stmts_per_op": "count",
    "dbapi.self_ms_per_op": "ms",
    "sqlengine.lex_ms_per_stmt": "ms",
    "sqlengine.parse_ms_per_stmt": "ms",
    "sqlengine.plan_ms_per_stmt": "ms",
    "sqlengine.exec_ms_per_stmt": "ms",
    "sqlengine.plan_cache_hit_ratio": "ratio",
    "sqlengine.rows_examined_per_result": "count",
    "sqlengine.scan_rows_per_s": "1/s",
    "sqlengine.columnar_fast_path_share": "ratio",
    "sqlengine.column_patches": "count",
    "sqlengine.column_rebuilds": "count",
    "sqlengine.batches_per_query": "count",
    **{f"sqlengine.op_{name}_p50_ms": "ms" for name in _OPS},
    "sqlengine.mvcc_conflicts_per_ktxn": "count",
    "sqlengine.mvcc_retries_per_ktxn": "count",
    "sqlengine.versions_gced": "count",
    "durability.commit_ms_p50": "ms",
    "durability.wal_bytes_per_txn": "bytes",
    "durability.fsyncs_per_txn": "count",
    "durability.recovery_s": "s",
    "durability.log_bytes_at_kill": "bytes",
    "server.wire_ms_per_stmt": "ms",
    "server.codec_us_per_frame": "us",
    "server.bytes_in_per_op": "bytes",
    "server.bytes_out_per_op": "bytes",
    "server.rows_shipped_per_op": "count",
    "server.connections_rejected": "count",
    "netclient.round_trips_per_op": "count",
    "netclient.checkout_wait_ms_p50": "ms",
    "netclient.checkout_timeouts": "count",
    "netclient.replacements": "count",
    **{f"sharding.route_share_{route}": "ratio" for route in _ROUTES},
    "sharding.twopc_per_ktxn": "count",
    "sharding.in_doubt": "count",
    "sharding.coordinator_ms_per_stmt": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "driver.paced_tail_ms": "ms",
    "driver.paced_tail_percentile": "%",
    "driver.late_share": "ratio",
    "driver.backlog_share": "ratio",
    "driver.max_lag_ms": "ms",
}


def metric(value: float, name: str, samples: int) -> dict:
    """One per-layer reading, with the unit :data:`UNITS` gives its name."""
    return {"value": float(value), "unit": UNITS[name], "samples": int(samples)}


class Readings(dict):
    """Per-layer readings by metric name."""

    def put(self, name: str, value: float, samples: int) -> None:
        self[name] = metric(value, name, samples)


def complete(metrics: dict[str, dict]) -> dict[str, dict]:
    """``metrics`` in the fixed order, with 0 for what does not apply."""
    unknown = set(metrics) - set(UNITS)
    if unknown:
        raise KeyError(f"per-layer metrics missing from UNITS: {sorted(unknown)}")
    return {name: metrics.get(name, metric(0.0, name, 0)) for name in UNITS}


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Counter changes between two snapshots."""
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median_time(function: Callable[[], object]) -> float:
    """Median wall time of a few calls, in seconds."""
    times = []
    for _ in range(_REPLAY_REPEATS):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# -- the traced pass ----------------------------------------------------------------


def traced_pass(workload, seed: int, lane: int) -> dict:
    """Replay a fixed operation list plain and then traced; derive the
    layer metrics and write ``out/trace-<workload>.jsonl``."""
    ops = workload.stream(seed, lane).take(workload.trace_ops)
    plain = workload.client(workload.database())
    started = time.perf_counter()
    for op in ops:
        plain(op)
    plain_s = time.perf_counter() - started

    tracer = Tracer()
    client = workload.client(TracedDatabase(workload.database(), tracer))
    counters_before = workload.counters()
    transactions_before = workload.transactions()
    samples, failures = [], []
    reads = 0
    started = time.perf_counter()
    for op in ops:
        with tracer.span("interaction", op=op[0]):
            try:
                value = client(op)
            except Exception as error:
                failures.append(f"{op!r} raised {error!r}")
                continue
        if op[0] not in ("transfer", "update"):
            reads += 1
            if reads % TRACE_ORACLE_EVERY == 0:
                samples.append((op, value))
    traced_s = time.perf_counter() - started
    counters = delta(workload.counters(), counters_before)
    transactions = workload.transactions() - transactions_before
    problems = failures + check_samples(workload, samples)
    tracer.write_jsonl(OUT_DIR / f"trace-{workload.name}.jsonl")

    metrics = _span_metrics(workload, tracer, len(ops))
    metrics.update(_count_metrics(workload, counters, len(ops), transactions))
    metrics.update(_stage_replays(workload, tracer))
    metrics.put("obs.trace_overhead_ratio", traced_s / plain_s if plain_s > 0 else 0.0, len(ops))
    if workload.upper_layer == "orm":
        metrics.update(_rewrite_metrics(workload))
    return {
        "metrics": metrics,
        "attempted": 2 * len(ops),
        "failed": len(problems),
        "problems": problems,
    }


def _span_metrics(workload, tracer: Tracer, ops: int) -> Readings:
    children = tracer.children()
    roots = children.get(None, [])
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    executes = by_name.get("execute", [])
    out = Readings()
    put = out.put

    self_ms = [self_time(root, children.get(root.span_id, [])) * 1000.0 for root in roots]
    put(f"{workload.upper_layer}.self_ms_per_op", _mean(self_ms), len(self_ms))
    if workload.upper_layer == "orm":
        put("orm.stmts_per_op", len(executes) / max(1, ops), ops)

    per_op: dict[str, list[float]] = {}
    for root in roots:
        per_op.setdefault(root.tags["op"], []).append(root.duration * 1000.0)
    for name, durations in per_op.items():
        put(f"sqlengine.op_{name}_p50_ms", statistics.median(durations), len(durations))

    if not workload.remote:
        put(
            "sqlengine.exec_ms_per_stmt",
            _mean([span.duration * 1000.0 for span in executes]),
            len(executes),
        )
    commits = [span.duration * 1000.0 for span in by_name.get("commit", [])]
    if commits:
        put("durability.commit_ms_p50", statistics.median(commits), len(commits))
    if workload.remote:
        checkouts = [span.duration * 1000.0 for span in by_name.get("checkout", [])]
        put("netclient.checkout_wait_ms_p50", statistics.median(checkouts), len(checkouts))
    fact_rows = getattr(workload, "fact_rows", None)
    if fact_rows:  # every analytics query scans the fact table once
        queries = [root for root in roots if root.tags["op"] != "update"]
        busy = sum(root.duration for root in queries)
        put("sqlengine.scan_rows_per_s", fact_rows * len(queries) / busy if busy > 0 else 0.0, len(queries))
    return out


def _count_metrics(workload, counters: dict, ops: int, transactions: int) -> Readings:
    """Exact per-operation counts over the traced pass (one client)."""
    out = Readings()
    put = out.put

    if workload.remote:
        put("netclient.round_trips_per_op", counters["pool.round_trips"] / ops, ops)
        put("server.bytes_in_per_op", counters["server.bytes_in"] / ops, ops)
        put("server.bytes_out_per_op", counters["server.bytes_out"] / ops, ops)
        put("server.rows_shipped_per_op", counters["server.rows_shipped"] / ops, ops)
        if transactions:
            put("durability.wal_bytes_per_txn", counters["wal.log_bytes"] / transactions, transactions)
    statements = counters.get("coordinator.statements", 0)
    if statements:
        for route in _ROUTES:
            put(f"sharding.route_share_{route}", counters[f"route.{route}"] / statements, statements)
        put(
            "sharding.twopc_per_ktxn",
            counters["coordinator.twopc"] / max(1, transactions) * 1000.0,
            transactions,
        )
    scans = counters["columnar.fast_path_scans"] + counters["columnar.fallback_scans"]
    if scans:
        put("sqlengine.columnar_fast_path_share", counters["columnar.fast_path_scans"] / scans, scans)
        put("sqlengine.column_patches", counters["columnar.column_patches"], ops)
        put("sqlengine.column_rebuilds", counters["columnar.column_rebuilds"], ops)
        put("sqlengine.batches_per_query", counters["columnar.batches_produced"] / ops, ops)
    return out


# -- stage replays ----------------------------------------------------------------------


def _is_select(sql: str) -> bool:
    return sql.lstrip().upper().startswith("SELECT")


def _stage_replays(workload, tracer: Tracer) -> Readings:
    """Time single stages on the statements the traced pass captured."""
    executes = [span for span in tracer.spans if span.name == "execute" and span.tags["sql"]]
    engine = workload.replay_engine()
    out = Readings()
    put = out.put

    # Lexer, parser and planner on each distinct statement text.
    texts = list(dict.fromkeys(span.tags["sql"] for span in executes))
    lex, parse, plan = [], [], []
    for sql in texts:
        lex_s = _median_time(lambda: tokenize(sql))
        parse_s = _median_time(lambda: parse_statement(sql))
        lex.append(lex_s * 1000.0)
        parse.append(max(0.0, parse_s - lex_s) * 1000.0)
        if _is_select(sql):
            plan_s = _median_time(lambda: engine.plan(sql))
            plan.append(max(0.0, plan_s - parse_s) * 1000.0)
    put("sqlengine.lex_ms_per_stmt", _mean(lex), len(lex))
    put("sqlengine.parse_ms_per_stmt", _mean(parse), len(parse))
    put("sqlengine.plan_ms_per_stmt", _mean(plan), len(plan))

    # Rows examined per row returned: EXPLAIN ANALYZE once per statement
    # shape (the first capture of each operation type's SELECT).
    children = tracer.children()
    shapes: dict[str, Span] = {}
    for root in children.get(None, []):
        for span in children.get(root.span_id, []):
            if span.name == "execute" and _is_select(span.tags["sql"]):
                shapes.setdefault(f"{root.tags['op']}:{span.tags['sql'][:40]}", span)
    ratios = []
    session = engine.session()
    try:
        for span in shapes.values():
            rows = session.execute("EXPLAIN ANALYZE " + span.tags["sql"], span.tags["params"]).rows
            ratios.append(_rows_examined_per_result([row[0] for row in rows]))
    finally:
        session.close()
    put("sqlengine.rows_examined_per_result", _mean(ratios), len(ratios))

    if workload.remote:
        selects = [span for span in executes if _is_select(span.tags["sql"])]
        # The same SELECTs in-process, against the oracle's engine: what the
        # statement costs without the wire.
        session = engine.session()
        try:
            local_ms = []
            for span in selects:
                started = time.perf_counter()
                session.execute(span.tags["sql"], span.tags["params"])
                local_ms.append((time.perf_counter() - started) * 1000.0)
        finally:
            session.close()
        remote_ms = _mean([span.duration * 1000.0 for span in selects])
        put("sqlengine.exec_ms_per_stmt", _mean(local_ms), len(local_ms))
        put("server.wire_ms_per_stmt", remote_ms - _mean(local_ms), len(selects))
        put("server.codec_us_per_frame", _codec_us_per_frame(executes), 2 * len(executes))
    if hasattr(workload, "owning_shard"):
        put(*_coordinator_overhead(workload, tracer))
    return out


def _rows_examined_per_result(plan_lines: list[str]) -> float:
    """Sum of the leaf operators' actual rows over the rows returned."""
    operators = []
    returned = 0
    for line in plan_lines:
        actual = re.search(r"\[actual rows=(\d+)", line)
        if actual:
            operators.append((len(line) - len(line.lstrip()), int(actual.group(1))))
        final = re.match(r"Execution: rows=(\d+)", line)
        if final:
            returned = int(final.group(1))
    examined = 0
    for index, (indent, rows) in enumerate(operators):
        is_leaf = index + 1 == len(operators) or operators[index + 1][0] <= indent
        if is_leaf:
            examined += rows
    return examined / max(1, returned)


def _codec_us_per_frame(executes: list[Span]) -> float:
    """Encode and decode one request and one response frame per captured
    statement, through the wire protocol's public codec functions."""
    frames = 0
    started = time.perf_counter()
    for span in executes:
        result = span.result
        request = protocol.encode_execute(span.tags["sql"], span.tags["params"])
        protocol.decode_client_message(request)
        response = protocol.encode_result(
            result.columns, result.rows, result.rowcount, 0, False, True
        )
        protocol.decode_server_message(response)
        frames += 2
    return (time.perf_counter() - started) / max(1, frames) * 1e6


def _coordinator_overhead(workload, tracer: Tracer) -> tuple[str, float, int]:
    """Client-observed getName statement time through the coordinator minus
    the same statement sent straight to the shard that owns the customer."""
    children = tracer.children()
    through, direct = [], []
    sessions = {}
    try:
        for root in children.get(None, []):
            if root.tags["op"] != "getName":
                continue
            for span in children.get(root.span_id, []):
                if span.name != "execute":
                    continue
                address = workload.owning_shard(span.tags["params"][0])
                if address not in sessions:
                    sessions[address] = RemoteDatabase(address).session()
                    sessions[address].execute(span.tags["sql"], span.tags["params"])  # warm
                started = time.perf_counter()
                sessions[address].execute(span.tags["sql"], span.tags["params"]).rows
                direct.append((time.perf_counter() - started) * 1000.0)
                through.append(span.duration * 1000.0)
    finally:
        for session in sessions.values():
            session.close()
    return ("sharding.coordinator_ms_per_stmt", _mean(through) - _mean(direct), len(through))


def _rewrite_metrics(workload) -> Readings:
    """Cold cost of the rewrite: the four TPC-W ``@query`` functions from
    bytecode to SQL, plus the paper's Fig. 10 MiniJava method."""
    started = time.perf_counter()
    mapping = tpcw_mapping()
    for function in queries_queryll.QUERY_FUNCTIONS.values():
        QueryFunction(function.original).analysis(mapping)
    method = method_to_tac(compile_source(OFFICE_QUERY_SOURCE).method("westCoast"))
    QueryllPipeline(make_bank_mapping()).analyze_method(method)
    cold_ms = (time.perf_counter() - started) * 1000.0
    done, total = workload.rewritten
    out = Readings()
    out.put("core.rewrite_cold_ms", cold_ms, total + 1)
    out.put("core.rewritten_share", done / max(1, total), total)
    return out


# -- counter ratios over the capacity phase ----------------------------------------------------


def capacity_metrics(workload, timing: dict) -> Readings:
    """Rates that need concurrent clients, from counter deltas taken at the
    boundaries of the capacity phase."""
    counters = timing["capacity_counters"]
    ops = max(1, timing["capacity_ops"])
    transactions = timing["capacity_transactions"]
    conflicts, retries = timing["capacity_conflicts"]
    out = Readings()
    put = out.put

    lookups = counters["cache.hits"] + counters["cache.misses"]
    put("sqlengine.plan_cache_hit_ratio", counters["cache.hits"] / max(1, lookups), lookups)
    put("sqlengine.versions_gced", counters["mvcc.versions_gced"], ops)
    put("durability.fsyncs_per_txn", counters["wal.syncs"] / max(1, transactions), transactions)
    if transactions:
        put("sqlengine.mvcc_conflicts_per_ktxn", conflicts / transactions * 1000.0, transactions)
        put("sqlengine.mvcc_retries_per_ktxn", retries / transactions * 1000.0, transactions)
    if workload.remote:
        put("server.connections_rejected", counters["server.connections_rejected"], ops)
        put("netclient.checkout_timeouts", counters["pool.checkout_timeouts"], ops)
        put("netclient.replacements", counters["pool.replacements"], ops)
    if "coordinator.in_doubt" in counters:
        put("sharding.in_doubt", counters["coordinator.in_doubt"], ops)
    return out
