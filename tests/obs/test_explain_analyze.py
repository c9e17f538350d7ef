"""EXPLAIN ANALYZE: actual row counts and wall time per operator."""

from __future__ import annotations

import re

import pytest

from repro.sqlengine.engine import Database
from repro.sqlengine.planner import PlannerOptions

_ANNOTATION = re.compile(
    r"\[actual rows=(\d+) time=(\d+\.\d+)ms loops=(\d+)\]"
)
_FOOTER = re.compile(r"Execution: rows=(\d+) time=(\d+\.\d+)ms")


def _build(mode: str) -> Database:
    database = Database(
        planner_options=PlannerOptions(execution_mode=mode)
    )
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for index in range(50):
        database.execute(f"INSERT INTO t VALUES ({index}, {index})")
    return database


def _plan_lines(database: Database, sql: str) -> list[str]:
    return [row[0] for row in database.execute(sql).rows]


class TestExplainAnalyze:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_every_operator_line_is_annotated(self, mode: str) -> None:
        database = _build(mode)
        lines = _plan_lines(
            database,
            "EXPLAIN ANALYZE SELECT v FROM t WHERE v < 10 ORDER BY v",
        )
        assert lines[0].startswith(f"mode={mode}")
        operator_lines = lines[1:-1]
        assert operator_lines, lines
        for line in operator_lines:
            assert _ANNOTATION.search(line), line

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_actual_rows_match_the_query(self, mode: str) -> None:
        database = _build(mode)
        lines = _plan_lines(
            database, "EXPLAIN ANALYZE SELECT v FROM t WHERE v < 10"
        )
        footer = _FOOTER.search(lines[-1])
        assert footer is not None, lines[-1]
        assert int(footer.group(1)) == 10
        # The top operator produced exactly the result rows.
        top = _ANNOTATION.search(lines[1])
        assert top is not None
        assert int(top.group(1)) == 10

    def test_row_mode_scan_sees_all_rows_filter_narrows(self) -> None:
        database = _build("row")
        lines = _plan_lines(
            database, "EXPLAIN ANALYZE SELECT v FROM t WHERE v < 10"
        )
        scan = next(line for line in lines if "SeqScan" in line)
        assert "actual rows=50" in scan
        narrowed = next(line for line in lines if "Filter" in line)
        assert "actual rows=10" in narrowed

    def test_plain_explain_has_no_actuals(self) -> None:
        database = _build("row")
        lines = _plan_lines(database, "EXPLAIN SELECT v FROM t")
        assert not any("actual rows" in line for line in lines)
        assert not any(_FOOTER.search(line) for line in lines)

    def test_analyze_executes_for_real_but_returns_the_plan(self) -> None:
        database = _build("row")
        result = database.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t")
        assert result.columns == ["query plan"]
        assert all(len(row) == 1 for row in result.rows)

    def test_analyze_does_not_poison_the_plan_cache(self) -> None:
        """Instrumented operators must never leak into cached plans: the
        same statement re-run without ANALYZE has no annotations."""
        database = _build("row")
        database.execute("EXPLAIN ANALYZE SELECT v FROM t WHERE v < 10")
        lines = _plan_lines(database, "EXPLAIN SELECT v FROM t WHERE v < 10")
        assert not any("actual rows" in line for line in lines)
        result = database.execute("SELECT v FROM t WHERE v < 10")
        assert result.rowcount == 10

    def test_semi_join_reports_the_probe_rows_it_kept(self) -> None:
        """A star join whose dim is a key set: the BatchSemiJoin's actual
        rows are the fact rows that found a key, below the fact scan's."""
        database = _build("batch")
        database.execute("CREATE TABLE d (k INT PRIMARY KEY, tag INT)")
        database.insert_rows("d", [(k, k % 2) for k in range(20)])
        lines = _plan_lines(
            database,
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM t, d "
            "WHERE t.v = d.k AND d.tag = 0",
        )
        semi_join = next(line for line in lines if "BatchSemiJoin" in line)
        assert "actual rows=10 " in semi_join
        fact_scan = next(line for line in lines if "BatchScan(t AS t" in line)
        assert "actual rows=50 " in fact_scan
        key_scan = next(line for line in lines if "BatchScan(d AS d" in line)
        assert "actual rows=10 " in key_scan
        footer = _FOOTER.search(lines[-1])
        assert footer is not None and int(footer.group(1)) == 1
