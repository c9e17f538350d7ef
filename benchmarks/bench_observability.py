"""Measure the cost of the observability layer on the statement hot path.

The contract the engine makes (ROADMAP: observability) is that a node with
tracing and the slow-query log disabled pays only one gate check per
statement — ``trace is None and not session._obs.active`` — before falling
into the exact pre-observability code path.  This benchmark pins that
promise to a number: it times the same point-query workload four ways and
reports each variant's throughput relative to the ungated baseline.

Variants::

    baseline    session._execute_statement(...)  (the code behind the gate)
    gated_off   session.execute(...) with tracing + slow log disabled
    tracing_on  session.execute(...) with every statement traced
    slowlog_on  session.execute(...) with a high slow-query threshold

``gated_off`` is the gated number: the report's ``gate`` block fails when
its overhead ratio (baseline time / gated time, inverted to >= 1.0 means
slower) exceeds 1.05.  ``tracing_on`` and ``slowlog_on`` are informational
— tracing every statement is *supposed* to cost something; the contract is
only that you don't pay for it while it's off.

Each variant runs ``repeats`` times in interleaved rounds (so drift in
machine load hits every variant equally) and the best round is kept —
minimum time is the standard noise-robust estimator for microbenchmarks.
"""

from __future__ import annotations

import time

from _cli import emit_report, parse_bench_args

from repro.obs.trace import TracingOptions
from repro.sqlengine.engine import Database

GATE_THRESHOLD = 1.05


def _build_database(**obs_kwargs) -> Database:
    database = Database(**obs_kwargs)
    database.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
    for index in range(100):
        database.execute(f"INSERT INTO kv VALUES ({index}, {index})")
    return database


def _time_round(session, iterations: int, *, gated: bool) -> float:
    sql = "SELECT v FROM kv WHERE id = 7"
    if gated:
        run = session.execute
    else:
        # The exact call the hot-path gate dispatches to when nothing is
        # observed: this is the pre-observability statement path.
        run = lambda s: session._execute_statement(s, (), None)  # noqa: E731
    start = time.perf_counter()
    for _ in range(iterations):
        run(sql)
    return time.perf_counter() - start


def run_experiment(iterations: int, repeats: int) -> dict:
    variants = {
        "baseline": (_build_database(), False),
        "gated_off": (_build_database(), True),
        "tracing_on": (
            _build_database(tracing=TracingOptions(enabled=True)),
            True,
        ),
        "slowlog_on": (_build_database(slow_query_ms=10_000.0), True),
    }
    sessions = {
        name: database.session() for name, (database, _) in variants.items()
    }
    best: dict[str, float] = {}
    for _ in range(repeats + 1):  # one extra interleaved round as warm-up
        for name, (_, gated) in variants.items():
            elapsed = _time_round(sessions[name], iterations, gated=gated)
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    for name, (database, _) in variants.items():
        sessions[name].close()
        database.close()

    throughput = {
        name: round(iterations / elapsed, 1) for name, elapsed in best.items()
    }
    overhead = {
        name: round(best[name] / best["baseline"], 4)
        for name in ("gated_off", "tracing_on", "slowlog_on")
    }
    return {
        "benchmark": "observability_overhead",
        "iterations": iterations,
        "repeats": repeats,
        "statements_per_second": throughput,
        "overhead_ratio": overhead,
        "gate": {
            "metric": "overhead_ratio.gated_off",
            "threshold": GATE_THRESHOLD,
            "value": overhead["gated_off"],
            "passed": overhead["gated_off"] <= GATE_THRESHOLD,
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_bench_args(__doc__, "BENCH_observability.json", argv)
    iterations = 2_000 if args.smoke else 20_000
    repeats = 3 if args.smoke else 5
    report = run_experiment(iterations, repeats)
    report["smoke"] = args.smoke
    emit_report(report, args.output)
    return 0 if report["gate"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
