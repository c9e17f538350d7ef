"""Ablation benchmarks for the design choices called out in DESIGN.md.

* expression simplification on/off — the cost of the redundant-comparison
  clean-up and the effect of shipping unsimplified WHERE clauses;
* planner access paths — what the benchmark queries cost when indexes or the
  index-OR join are disabled (the paper's PostgreSQL had all of them);
* rewriting on/off — the headline claim: executing a query as the plain loop
  the programmer wrote versus the rewritten SQL.

Two ways to run it (the same split as ``bench_plan_cache.py``):

* ``python benchmarks/bench_ablations.py [--smoke] [--output PATH]`` —
  standalone: emits a machine-readable JSON document (default
  ``BENCH_ablations.json``, uploaded as a CI artifact) so the ablation
  trajectory accumulates across PRs.
* ``python -m pytest benchmarks/bench_ablations.py`` — pytest-benchmark
  variants of the same experiments, for statistically careful local runs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without pytest
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.core.analysis.simplify import simplify
from repro.core.expr import nodes
from repro.pyfrontend.disassembler import lower_function
from repro.sqlengine.planner import PlannerOptions
from repro.tpcw import queries_queryll, queries_sql
from repro.tpcw.database import build_database
from repro.tpcw.harness import BenchmarkConfig
from repro.tpcw.population import PopulationScale


def _redundant_comparison_chain(depth: int) -> nodes.Expression:
    expression: nodes.Expression = nodes.BinOp(
        "==", nodes.GetField(nodes.Var("entry"), "Name"), nodes.Constant("LA")
    )
    for _ in range(depth):
        expression = nodes.BinOp("!=", expression, nodes.Constant(0))
    return expression


@pytest.mark.benchmark(group="ablation-simplify")
def test_simplify_redundant_comparisons(benchmark) -> None:
    expression = _redundant_comparison_chain(depth=12)
    result = benchmark(lambda: simplify(expression))
    assert result == nodes.BinOp(
        "==", nodes.GetField(nodes.Var("entry"), "Name"), nodes.Constant("LA")
    )


@pytest.mark.benchmark(group="ablation-lowering")
def test_python_bytecode_lowering(benchmark) -> None:
    benchmark(lambda: lower_function(queries_queryll.get_customer_loop.original))


@pytest.fixture(scope="module")
def small_scale() -> PopulationScale:
    return PopulationScale(num_items=200, num_ebs=1, customers_per_eb=400)


@pytest.mark.benchmark(group="ablation-planner")
def test_handwritten_get_related_with_or_index_join(benchmark, small_scale) -> None:
    database = build_database(small_scale)
    connection = database.connection()
    benchmark(lambda: queries_sql.do_get_related(connection, 17))


@pytest.mark.benchmark(group="ablation-planner")
def test_handwritten_get_related_without_indexes(benchmark, small_scale) -> None:
    database = build_database(
        small_scale, planner_options=PlannerOptions(use_indexes=False)
    )
    connection = database.connection()
    benchmark(lambda: queries_sql.do_get_related(connection, 17))


@pytest.mark.benchmark(group="ablation-rewrite")
def test_get_name_rewritten(benchmark, small_scale) -> None:
    database = build_database(small_scale)
    em = database.entity_manager()
    benchmark(lambda: queries_queryll.get_name(em, 123))


@pytest.mark.benchmark(group="ablation-rewrite")
def test_get_name_unrewritten_full_scan(benchmark, small_scale) -> None:
    """The same loop executed as written (no rewriting): a full table scan
    through the ORM per call — the cost the paper's rewriter removes."""
    database = build_database(small_scale)
    em = database.entity_manager()
    benchmark(lambda: queries_queryll.get_name_loop.original(em, 123).to_list())


# -- standalone JSON entry point ---------------------------------------------


def _mean_ms(operation, executions: int, warmup: int = 3) -> float:
    """Mean wall-clock milliseconds per call of ``operation``."""
    for _ in range(warmup):
        operation()
    started = time.perf_counter()
    for _ in range(executions):
        operation()
    return (time.perf_counter() - started) * 1000.0 / executions


def run_experiment(config: BenchmarkConfig, executions: int) -> dict:
    """Every ablation as one JSON-serialisable report."""
    scale = config.scale

    # 1. Simplification: the redundant-comparison clean-up itself.
    chain = _redundant_comparison_chain(depth=12)
    simplify_ms = _mean_ms(lambda: simplify(chain), executions)

    # 2. Planner access paths: hand-written doGetRelated with and without
    #    index access paths.
    planner: dict[str, float] = {}
    for label, options in (
        ("indexes_enabled", None),
        ("indexes_disabled", PlannerOptions(use_indexes=False)),
    ):
        database = build_database(scale, planner_options=options)
        connection = database.connection()
        planner[label] = _mean_ms(
            lambda: queries_sql.do_get_related(connection, 17), executions
        )

    # 3. Rewriting on/off: the same getName loop as generated SQL vs the
    #    full ORM scan the programmer wrote.
    database = build_database(scale)
    em = database.entity_manager()
    rewrite = {
        "rewritten_ms": _mean_ms(
            lambda: queries_queryll.get_name(em, 123), executions
        ),
        "unrewritten_full_scan_ms": _mean_ms(
            lambda: queries_queryll.get_name_loop.original(em, 123).to_list(),
            max(1, executions // 10),
        ),
    }

    return {
        "benchmark": "ablations",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "num_items": scale.num_items,
            "num_customers": scale.num_customers,
            "executions": executions,
        },
        "simplify": {"redundant_chain_ms": simplify_ms},
        "planner": planner,
        "rewrite": rewrite,
    }


def main(argv: list[str] | None = None) -> int:
    from _cli import emit_report, parse_bench_args

    args = parse_bench_args(__doc__, "BENCH_ablations.json", argv)
    if args.smoke:
        config = BenchmarkConfig.quick()
        executions = 30
    else:
        config = BenchmarkConfig.from_environment()
        executions = 300
    emit_report(run_experiment(config, executions), args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
