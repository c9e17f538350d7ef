"""The benchmark harness reproducing the paper's Table 4 and Table 5.

For each of the four queries the harness measures:

* the Queryll version (loop rewritten to SQL through the bytecode pipeline),
* the hand-written JDBC-style version,
* where the paper reports them, the extra variants ("with extra processing"
  for getName, "with modified query" for doSubjectSearch),
* and, optionally, the *unrewritten* Queryll loop (full table scan through
  the ORM) to show what the rewrite buys — the paper does not time this
  configuration because it is obviously impractical, and it is therefore off
  by default here too.

Scale and repetition counts default to values that finish quickly on the
in-memory engine; ``BenchmarkConfig.paper()`` selects the paper's parameters
(10 000 items, 100 EBs, 100 warm-up + 2000 measured executions).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bench.reporting import format_table
from repro.bench.timing import Measurement, measure
from repro.tpcw import queries_queryll, queries_sql
from repro.tpcw.database import TpcwDatabase, build_database
from repro.tpcw.population import PopulationScale
from repro.tpcw.workload import ConcurrentDriver, ParameterGenerator, ThroughputResult


@dataclass
class BenchmarkConfig:
    """Knobs of the benchmark protocol."""

    scale: PopulationScale = field(default_factory=PopulationScale)
    warmup_executions: int = 20
    measured_executions: int = 200
    runs: int = 3
    discard_runs: int = 1
    include_unrewritten: bool = False

    @classmethod
    def paper(cls) -> "BenchmarkConfig":
        """The paper's configuration (slow on the in-memory engine)."""
        return cls(
            scale=PopulationScale.paper(),
            warmup_executions=100,
            measured_executions=2000,
            runs=3,
            discard_runs=1,
        )

    @classmethod
    def quick(cls) -> "BenchmarkConfig":
        """A fast configuration for CI and pytest-benchmark runs."""
        return cls(
            scale=PopulationScale(num_items=300, num_ebs=1, customers_per_eb=600),
            warmup_executions=5,
            measured_executions=30,
            runs=2,
            discard_runs=0,
        )

    @classmethod
    def from_environment(cls) -> "BenchmarkConfig":
        """``REPRO_TPCW_PROFILE`` selects quick (default), default or paper."""
        profile = os.environ.get("REPRO_TPCW_PROFILE", "quick").lower()
        if profile == "paper":
            return cls.paper()
        if profile == "default":
            return cls()
        return cls.quick()


@dataclass
class BenchmarkResult:
    """Measurements for one query, in the paper's Table 4 layout."""

    query: str
    queryll: Measurement
    handwritten: Measurement
    extra_variant: Optional[Measurement] = None
    extra_variant_label: str = ""
    unrewritten: Optional[Measurement] = None

    @property
    def difference_ms(self) -> float:
        """Queryll minus hand-written (positive = Queryll slower)."""
        return self.queryll.mean_ms - self.handwritten.mean_ms

    @property
    def ratio(self) -> float:
        """Queryll time divided by hand-written time."""
        if self.handwritten.mean_ms == 0:
            return float("inf")
        return self.queryll.mean_ms / self.handwritten.mean_ms


class TpcwBenchmark:
    """Builds the database once and measures every Table 4 configuration."""

    def __init__(
        self,
        config: Optional[BenchmarkConfig] = None,
        database: Optional[TpcwDatabase] = None,
    ) -> None:
        self.config = config or BenchmarkConfig.from_environment()
        self.database = database or build_database(self.config.scale)
        self._connection = self.database.connection()
        self._entity_manager = self.database.entity_manager()
        self._parameters = ParameterGenerator(self.config.scale)

    # -- single-variant helpers ----------------------------------------------------------

    def measure_variant(self, name: str, operation: Callable[[], None]) -> Measurement:
        """Measure one query variant with the configured protocol."""
        self._parameters.reset()
        return measure(
            name,
            operation,
            executions_per_run=self.config.measured_executions,
            warmup_executions=self.config.warmup_executions,
            runs=self.config.runs,
            discard_runs=self.config.discard_runs,
        )

    # -- per-query operations --------------------------------------------------------------

    def run_get_name_queryll(self) -> None:
        """One Queryll getName execution with random parameters."""
        queries_queryll.get_name(self._entity_manager, self._parameters.customer_id())

    def run_get_name_handwritten(self) -> None:
        """One hand-written getName execution."""
        queries_sql.get_name(self._connection, self._parameters.customer_id())

    def run_get_name_extra(self) -> None:
        """Hand-written getName with generated-code-style overheads."""
        queries_sql.get_name_with_extra_processing(
            self._connection, self._parameters.customer_id()
        )

    def run_get_name_unrewritten(self) -> None:
        """The getName loop executed without rewriting (full scan)."""
        queries_queryll.get_name_loop.original(
            self._entity_manager, self._parameters.customer_id()
        ).to_list()

    def run_get_customer_queryll(self) -> None:
        """One Queryll getCustomer execution."""
        queries_queryll.get_customer(
            self._entity_manager, self._parameters.customer_username()
        )

    def run_get_customer_handwritten(self) -> None:
        """One hand-written getCustomer execution."""
        queries_sql.get_customer(self._connection, self._parameters.customer_username())

    def run_do_subject_search_queryll(self) -> None:
        """One Queryll doSubjectSearch execution."""
        queries_queryll.do_subject_search(self._entity_manager, self._parameters.subject())

    def run_do_subject_search_handwritten(self) -> None:
        """One hand-written doSubjectSearch execution."""
        queries_sql.do_subject_search(self._connection, self._parameters.subject())

    def run_do_subject_search_modified(self) -> None:
        """Hand-written doSubjectSearch with the generated column order."""
        queries_sql.do_subject_search_modified(self._connection, self._parameters.subject())

    def run_do_get_related_queryll(self) -> None:
        """One Queryll doGetRelated execution."""
        queries_queryll.do_get_related(self._entity_manager, self._parameters.item_id())

    def run_do_get_related_handwritten(self) -> None:
        """One hand-written doGetRelated execution."""
        queries_sql.do_get_related(self._connection, self._parameters.item_id())

    # -- Table 4 -------------------------------------------------------------------------------

    def run_table4(self) -> list[BenchmarkResult]:
        """Measure every Table 4 row."""
        results = [
            BenchmarkResult(
                query="getName",
                queryll=self.measure_variant("getName/queryll", self.run_get_name_queryll),
                handwritten=self.measure_variant(
                    "getName/hand-written", self.run_get_name_handwritten
                ),
                extra_variant=self.measure_variant(
                    "getName/with extra processing", self.run_get_name_extra
                ),
                extra_variant_label="with extra processing",
            ),
            BenchmarkResult(
                query="getCustomer",
                queryll=self.measure_variant(
                    "getCustomer/queryll", self.run_get_customer_queryll
                ),
                handwritten=self.measure_variant(
                    "getCustomer/hand-written", self.run_get_customer_handwritten
                ),
            ),
            BenchmarkResult(
                query="doSubjectSearch",
                queryll=self.measure_variant(
                    "doSubjectSearch/queryll", self.run_do_subject_search_queryll
                ),
                handwritten=self.measure_variant(
                    "doSubjectSearch/hand-written", self.run_do_subject_search_handwritten
                ),
                extra_variant=self.measure_variant(
                    "doSubjectSearch/with modified query", self.run_do_subject_search_modified
                ),
                extra_variant_label="with modified query",
            ),
            BenchmarkResult(
                query="doGetRelated",
                queryll=self.measure_variant(
                    "doGetRelated/queryll", self.run_do_get_related_queryll
                ),
                handwritten=self.measure_variant(
                    "doGetRelated/hand-written", self.run_do_get_related_handwritten
                ),
            ),
        ]
        if self.config.include_unrewritten:
            results[0].unrewritten = self.measure_variant(
                "getName/unrewritten loop", self.run_get_name_unrewritten
            )
        return results

    def format_table4(self, results: list[BenchmarkResult]) -> str:
        """Render the results in the paper's Table 4 layout."""
        headers = [
            "Query",
            "Queryll (ms)",
            "Std Dev",
            "Hand-Written SQL (ms)",
            "Std Dev",
            "Difference (ms)",
        ]
        rows: list[list[object]] = []
        for result in results:
            rows.append(
                [
                    result.query,
                    result.queryll.mean_ms,
                    result.queryll.stdev_ms,
                    result.handwritten.mean_ms,
                    result.handwritten.stdev_ms,
                    result.difference_ms,
                ]
            )
            if result.extra_variant is not None:
                rows.append(
                    [
                        f"  {result.extra_variant_label}",
                        "",
                        "",
                        result.extra_variant.mean_ms,
                        result.extra_variant.stdev_ms,
                        result.queryll.mean_ms - result.extra_variant.mean_ms,
                    ]
                )
            if result.unrewritten is not None:
                rows.append(
                    [
                        "  unrewritten loop",
                        result.unrewritten.mean_ms,
                        result.unrewritten.stdev_ms,
                        "",
                        "",
                        "",
                    ]
                )
        title = (
            "Table 4: benchmark results "
            f"(items={self.config.scale.num_items}, "
            f"customers={self.config.scale.num_customers}, "
            f"{self.config.measured_executions} executions per run)"
        )
        return format_table(headers, rows, title=title)

    # -- plan-cache split ----------------------------------------------------------------------

    #: The four hand-written statements, with their parameter generators.
    PLAN_CACHE_QUERIES: tuple[tuple[str, str, str], ...] = (
        ("getName", queries_sql.GET_NAME_SQL, "customer_id"),
        ("getCustomer", queries_sql.GET_CUSTOMER_SQL, "customer_username"),
        ("doSubjectSearch", queries_sql.DO_SUBJECT_SEARCH_SQL, "subject"),
        ("doGetRelated", queries_sql.DO_GET_RELATED_SQL, "item_id"),
    )

    def run_plan_cache_split(
        self, executions: Optional[int] = None
    ) -> dict[str, dict[str, float]]:
        """Per-query latency split: parse+plan vs execute, cached vs not.

        For each of the paper's four hand-written statements this measures

        * ``plan_ms`` — parse + cost-based planning alone
          (:meth:`Database.plan`, which bypasses the statement cache),
        * ``execute_warm_ms`` — a full round trip with the shared plan
          cache hot (what repeated prepared-statement executions pay),
        * ``execute_cold_ms`` — a full round trip with the statement cache
          disabled, i.e. paying parse+plan on every execution.

        All values are mean milliseconds per execution.
        """
        executions = executions or self.config.measured_executions
        database = self.database.database
        session = database.session()
        results: dict[str, dict[str, float]] = {}
        for name, sql, parameter in self.PLAN_CACHE_QUERIES:
            self._parameters.reset()
            draw = getattr(self._parameters, parameter)
            params = [(draw(),) for _ in range(executions)]
            database.plan(sql)  # warm up code paths
            started = time.perf_counter()
            for _ in range(executions):
                database.plan(sql)
            plan_s = time.perf_counter() - started
            session.execute(sql, params[0])  # populate the cache
            started = time.perf_counter()
            for values in params:
                session.execute(sql, values)
            warm_s = time.perf_counter() - started
            cache_size = database.statement_cache_info()["size"]
            database.set_statement_cache_size(0)
            try:
                started = time.perf_counter()
                for values in params:
                    session.execute(sql, values)
                cold_s = time.perf_counter() - started
            finally:
                database.set_statement_cache_size(cache_size)
            results[name] = {
                "plan_ms": plan_s * 1000.0 / executions,
                "execute_warm_ms": warm_s * 1000.0 / executions,
                "execute_cold_ms": cold_s * 1000.0 / executions,
            }
        return results

    # -- concurrent throughput -----------------------------------------------------------------

    def run_throughput(
        self,
        threads: int = 4,
        interactions_per_thread: Optional[int] = None,
        write_fraction: float = 0.0,
        variants: tuple[str, ...] = ("queryll", "handwritten"),
    ) -> list[ThroughputResult]:
        """Run the multi-threaded emulated-browser driver per variant.

        This goes beyond the paper's single-threaded protocol: ``threads``
        workers issue the paper's interactions concurrently (optionally with
        a fraction of transactional write interactions) and the result
        reports throughput in interactions/sec alongside the latency numbers
        of :meth:`run_table4`.
        """
        per_thread = interactions_per_thread
        if per_thread is None:
            per_thread = max(1, self.config.measured_executions // max(1, threads))
        results = []
        for variant in variants:
            driver = ConcurrentDriver(
                self.database,
                variant=variant,
                threads=threads,
                interactions_per_thread=per_thread,
                write_fraction=write_fraction,
            )
            results.append(driver.run())
        return results

    def format_throughput(self, results: list[ThroughputResult]) -> str:
        """Render throughput results as a table."""
        headers = [
            "Variant",
            "Threads",
            "Interactions",
            "Writes",
            "Rollbacks",
            "Elapsed (s)",
            "Interactions/s",
        ]
        rows: list[list[object]] = [
            [
                result.variant,
                result.threads,
                result.interactions,
                result.writes,
                result.rollbacks,
                result.elapsed_s,
                result.interactions_per_sec,
            ]
            for result in results
        ]
        title = (
            "Concurrent TPC-W throughput "
            f"(items={self.config.scale.num_items}, "
            f"customers={self.config.scale.num_customers})"
        )
        return format_table(headers, rows, title=title)

    # -- Table 5 ----------------------------------------------------------------------------------

    def generated_sql(self) -> dict[str, str]:
        """SQL generated by Queryll for each query (the paper's Table 5)."""
        mapping = self.database.orm.mapping
        generated: dict[str, str] = {}
        for name, function in queries_queryll.QUERY_FUNCTIONS.items():
            sql = function.generated_sql(mapping)
            generated[name] = sql if sql is not None else "(not rewritten)"
        return generated

    def handwritten_sql(self) -> dict[str, str]:
        """The hand-written SQL of each query (the paper's Table 3)."""
        return {
            "getName": queries_sql.GET_NAME_SQL,
            "getCustomer": queries_sql.GET_CUSTOMER_SQL,
            "doSubjectSearch": queries_sql.DO_SUBJECT_SEARCH_SQL,
            "doGetRelated": queries_sql.DO_GET_RELATED_SQL,
        }

    def format_table5(self) -> str:
        """Render the generated SQL next to the hand-written SQL."""
        lines = ["Table 5: SQL generated by Queryll (vs. hand-written Table 3)"]
        handwritten = self.handwritten_sql()
        for name, sql in self.generated_sql().items():
            lines.append("")
            lines.append(f"{name}")
            lines.append(f"  hand-written: {handwritten[name]}")
            lines.append(f"  generated:    {sql}")
        return "\n".join(lines)
