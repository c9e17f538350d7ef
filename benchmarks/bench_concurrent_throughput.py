"""Concurrent TPC-W throughput: interactions/sec vs driver thread count.

This experiment goes beyond the paper's single-threaded latency protocol
(Tables 4/5): it drives the paper's four interactions from N emulated
browsers at once and reports throughput per variant.  Under the engine's
MVCC snapshot isolation, read-only interactions never block — there is no
reader/writer lock handoff at any thread count — and the write mix
exercises the transactional stock-transfer path including write-write
conflicts and client retries (reported per run, along with the engine's
concurrency counters).

The report carries two scaling curves: the read-only interaction mix and
the write mix, each across the full thread ladder, so regressions in
either path show up as a bend in its own curve.

Two ways to run it:

* ``python benchmarks/bench_concurrent_throughput.py [--smoke] [--output PATH]``
  — standalone: emits the machine-readable JSON document (written to
  ``BENCH_concurrent.json`` by default) so the throughput trajectory
  accumulates across PRs.  ``--smoke`` shrinks the workload for CI.
* ``python -m pytest benchmarks/bench_concurrent_throughput.py -s`` — as a
  test, printing the throughput table.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without pytest
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.tpcw.workload import ConcurrentDriver


@pytest.mark.parametrize("threads", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("variant", ["queryll", "handwritten"])
def test_throughput_scaling(tpcw_benchmark, capsys, threads, variant) -> None:
    driver = ConcurrentDriver(
        tpcw_benchmark.database,
        variant=variant,
        threads=threads,
        interactions_per_thread=max(
            1, tpcw_benchmark.config.measured_executions // threads
        ),
    )
    result = driver.run()
    assert result.interactions == driver.interactions_per_thread * threads
    with capsys.disabled():
        print(
            f"\n{variant:12s} threads={threads}: "
            f"{result.interactions_per_sec:10.0f} interactions/s "
            f"({result.interactions} interactions in {result.elapsed_s:.3f}s)"
        )


def run_experiment(
    thread_counts: list[int], interactions: int, write_fraction: float = 0.2
) -> dict:
    """Thread-scaling (read mix + write mix) as a JSON-serialisable dict."""
    from repro.tpcw import BenchmarkConfig, TpcwBenchmark

    benchmark = TpcwBenchmark(BenchmarkConfig.from_environment())
    scaling = []
    for variant in ("queryll", "handwritten"):
        for threads in thread_counts:
            driver = ConcurrentDriver(
                benchmark.database,
                variant=variant,
                threads=threads,
                interactions_per_thread=max(1, interactions // threads),
                shared_workload=True,
            )
            scaling.append(driver.run().as_dict())
    # Write mix as its own scaling curve: every point checks the stock-sum
    # invariant, so a lost update under conflict retries fails the run.
    database = benchmark.database.database
    write_scaling = []
    for threads in thread_counts:
        before = sum(
            row[0] for row in database.execute("SELECT i_stock FROM item").rows
        )
        write_result = ConcurrentDriver(
            benchmark.database,
            variant="handwritten",
            threads=threads,
            interactions_per_thread=max(1, interactions // threads),
            write_fraction=write_fraction,
            shared_workload=True,
        ).run()
        after = sum(
            row[0] for row in database.execute("SELECT i_stock FROM item").rows
        )
        write_scaling.append(
            {**write_result.as_dict(), "stock_conserved": after == before}
        )
    return {
        "benchmark": "concurrent_throughput",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "thread_counts": thread_counts,
            "interactions": interactions,
            "write_fraction": write_fraction,
            "items": benchmark.config.scale.num_items,
            "customers": benchmark.config.scale.num_customers,
            # Interpreting the curves needs the core count: on a single
            # CPU (or under the GIL for CPU-bound work) the honest
            # expectation is flat-with-noise, not linear speedup.
            "cpus": os.cpu_count(),
        },
        "scaling": scaling,
        "write_scaling": write_scaling,
        # Kept for cross-PR continuity: the max-thread-count write-mix point.
        "write_mix": write_scaling[-1],
        "mvcc": database.stats()["mvcc"],
    }


def test_write_mix_is_consistent(tpcw_benchmark, capsys) -> None:
    database = tpcw_benchmark.database.database
    before = sum(row[0] for row in database.execute("SELECT i_stock FROM item").rows)
    result = ConcurrentDriver(
        tpcw_benchmark.database,
        variant="handwritten",
        threads=4,
        interactions_per_thread=100,
        write_fraction=0.2,
    ).run()
    after = sum(row[0] for row in database.execute("SELECT i_stock FROM item").rows)
    assert after == before
    with capsys.disabled():
        print(
            f"\nwrite mix    threads=4: {result.interactions_per_sec:10.0f} "
            f"interactions/s ({result.writes} writes, "
            f"{result.rollbacks} rollbacks, stock conserved)"
        )


# -- standalone entry point --------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from _cli import emit_report, parse_bench_args

    args = parse_bench_args(__doc__, "BENCH_concurrent.json", argv)
    if args.smoke:
        # Same 1 -> 16 ladder as the full run, tiny interaction budget: CI
        # still sees the whole curve (and the conflict-retry path) cheaply.
        report = run_experiment(thread_counts=[1, 2, 4, 8, 16], interactions=320)
    else:
        # 8000 interactions per point: enough for each browser thread's
        # EntityManager identity map to warm up even at 16 threads, so the
        # queryll curve measures the engine rather than per-thread cache
        # warm-up (which at 2000 interactions still costs ~10% at 4
        # threads).
        report = run_experiment(thread_counts=[1, 2, 4, 8, 16], interactions=8000)
    emit_report(report, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
