"""Hypothesis equivalence properties for the columnar engine: batch and
row execution must return identical result multisets and identical EXPLAIN
cardinality estimates on randomized scan/filter/join/aggregate queries —
including under concurrent MVCC writers, where batch scans exercise the
per-row visibility fallback.

Values are integers (and NULLs) throughout: float SUM folds in a
different order per mode, which is rounding noise, not a planner bug.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.planner import PlannerOptions

_BATCH = PlannerOptions(execution_mode="batch", batch_size=97)
_ROW = PlannerOptions(execution_mode="row")

_rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2000),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
        st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000)),
    ),
    min_size=0,
    max_size=400,
)

_SCAN_QUERIES = [
    "SELECT a, b, c FROM t",
    "SELECT a FROM t WHERE b = ?",
    "SELECT a, c FROM t WHERE b != ? AND c IS NOT NULL",
    "SELECT a FROM t WHERE c > ? ORDER BY a, c DESC",
    "SELECT a FROM t WHERE b IS NULL",
    "SELECT a FROM t WHERE b IN (?, 0, 7)",
    "SELECT a FROM t WHERE b < c",
    "SELECT a FROM t WHERE a + c > ?",
    "SELECT DISTINCT b FROM t WHERE c >= ?",
    "SELECT COUNT(*), COUNT(b), SUM(c), MIN(c), MAX(b) FROM t",
    "SELECT SUM(c) FROM t WHERE b > ?",
    "SELECT a, b FROM t ORDER BY b, a LIMIT 11 OFFSET 3",
]


def _build(rows: list[tuple]) -> Database:
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)")
    database.insert_rows("t", rows)
    return database


def _run_both(
    database: Database, sql: str, params: tuple = ()
) -> None:
    """Execute under both modes; assert identical multisets and identical
    root cardinality estimates."""
    database.set_planner_options(_BATCH)
    batch_rows = database.execute(sql, params).rows
    batch_root = database.explain(sql).splitlines()[1]
    database.set_planner_options(_ROW)
    row_rows = database.execute(sql, params).rows
    row_root = database.explain(sql).splitlines()[1]
    if "ORDER BY" in sql:
        assert batch_rows == row_rows
    else:
        assert sorted(batch_rows, key=repr) == sorted(row_rows, key=repr)
    assert batch_root.rsplit("(rows=", 1)[-1] == row_root.rsplit("(rows=", 1)[-1], (
        batch_root,
        row_root,
    )


class TestScanEquivalence:
    @given(
        rows=_rows_strategy,
        sql=st.sampled_from(_SCAN_QUERIES),
        value=st.integers(min_value=-60, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_row(
        self, rows: list[tuple], sql: str, value: int
    ) -> None:
        database = _build(rows)
        params = (value,) if "?" in sql else ()
        _run_both(database, sql, params)


class TestJoinEquivalence:
    @given(
        rows=_rows_strategy,
        dimension=st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=0,
            max_size=40,
        ),
        threshold=st.integers(min_value=-500, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_hash_join_and_aggregate_match(
        self,
        rows: list[tuple],
        dimension: list[tuple[int, int]],
        threshold: int,
    ) -> None:
        database = _build(rows)
        database.execute("CREATE TABLE d (k INTEGER, tag INTEGER)")
        database.insert_rows("d", dimension)
        _run_both(
            database,
            "SELECT t.a, d.tag FROM t, d WHERE t.b = d.k AND t.c > ?",
            (threshold,),
        )
        _run_both(
            database,
            "SELECT COUNT(*), SUM(t.c) FROM t, d WHERE t.b = d.k",
        )

    @given(
        rows=_rows_strategy,
        dimension=st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=0,
            max_size=20,
        ),
        outer=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.one_of(st.none(), st.integers(min_value=-100, max_value=100)),
            ),
            min_size=0,
            max_size=10,
            unique_by=lambda row: row[0],
        ),
        threshold=st.integers(min_value=-500, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_three_table_join_matches(
        self,
        rows: list[tuple],
        dimension: list[tuple[int, int]],
        outer: list[tuple],
        threshold: int,
    ) -> None:
        """A connected three-table equi-join chain: both back-ends lower
        the same join order, so results and estimates agree."""
        database = _build(rows)
        database.execute("CREATE TABLE d (k INTEGER, tag INTEGER)")
        database.insert_rows("d", dimension)
        database.execute("CREATE TABLE e (g INTEGER, w INTEGER)")
        database.insert_rows("e", outer)
        _run_both(
            database,
            "SELECT t.a, d.tag, e.w FROM e, t, d "
            "WHERE t.b = d.k AND d.tag = e.g AND t.c > ?",
            (threshold,),
        )
        _run_both(
            database,
            "SELECT COUNT(*), SUM(e.w), MAX(t.a) FROM t, d, e "
            "WHERE d.tag = e.g AND t.b = d.k AND e.w IS NOT NULL",
        )


class TestConcurrentWriters:
    @given(
        rows=_rows_strategy.filter(lambda r: len(r) >= 50),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_snapshot_reads_agree_across_modes_under_writes(
        self, rows: list[tuple], seed: int
    ) -> None:
        """A pinned snapshot must read the same rows in both modes while a
        concurrent writer churns the table (forcing the MVCC fallback scan
        path on the batch side)."""
        database = _build(rows)
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            step = seed
            try:
                while not stop.is_set():
                    database.execute(
                        "UPDATE t SET c = ? WHERE a = ?",
                        (step, step % 2000),
                    )
                    database.execute("DELETE FROM t WHERE a = ?", ((step * 7) % 2000,))
                    database.execute(
                        "INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
                        (step % 2000, step % 50, step),
                    )
                    step += 1
            except BaseException as error:  # pragma: no cover - test plumbing
                errors.append(error)

        reader = database.session()
        reader.begin()
        # Pin the reader's snapshot before the writer starts.
        baseline = sorted(
            reader.execute("SELECT a, b, c FROM t").rows, key=repr
        )
        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(4):
                database.set_planner_options(_BATCH)
                batch_rows = sorted(
                    reader.execute("SELECT a, b, c FROM t").rows, key=repr
                )
                batch_sum = reader.execute("SELECT SUM(c), COUNT(*) FROM t").rows
                database.set_planner_options(_ROW)
                row_rows = sorted(
                    reader.execute("SELECT a, b, c FROM t").rows, key=repr
                )
                row_sum = reader.execute("SELECT SUM(c), COUNT(*) FROM t").rows
                assert batch_rows == baseline
                assert row_rows == baseline
                assert batch_sum == row_sum
        finally:
            stop.set()
            writer.join()
            reader.rollback()
            reader.close()
        assert not errors
        # With the writer stopped and the snapshot released, both modes see
        # the (new) committed state identically.
        _run_both(database, "SELECT a, b, c FROM t")
        assert database.stats()["columnar"]["fallback_scans"] >= 1
