"""Hypothesis equivalence properties for the columnar engine: batch and
row execution must return identical result multisets and identical EXPLAIN
cardinality estimates on randomized scan/filter/join/aggregate queries —
including under concurrent MVCC writers, where batch scans exercise the
per-row visibility fallback.  Joins against unique-keyed dimensions cover
the batch semi-join lowering (``BatchSemiJoin``) and the shapes that must
stay ``BatchHashJoin``.

Values are integers (and NULLs) throughout: float SUM folds in a
different order per mode, which is rounding noise, not a planner bug.
"""

from __future__ import annotations

import threading

import pytest
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
    "SELECT MIN(c), MAX(c), AVG(c), COUNT(c) FROM t WHERE b > ?",
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


#: Dimension rows with distinct keys, for tables keyed on their first column.
_keyed_dimension = st.lists(
    st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=0,
    max_size=40,
    unique_by=lambda row: row[0],
)


def _build_star(
    rows: list[tuple],
    dimension: list[tuple[int, int]],
    deleted: list[int] = (),
    outer: list[tuple] = (),
) -> Database:
    """``t`` joined to dims keyed by their PRIMARY KEY: ``d`` (k, tag),
    with the ``deleted`` keys tombstoned, and ``e`` (g, w)."""
    database = _build(rows)
    database.execute("CREATE TABLE d (k INTEGER PRIMARY KEY, tag INTEGER)")
    database.insert_rows("d", dimension)
    for key in deleted:
        database.execute("DELETE FROM d WHERE k = ?", (key,))
    database.execute("CREATE TABLE e (g INTEGER PRIMARY KEY, w INTEGER)")
    database.insert_rows("e", list(outer))
    return database


def _join_operators(database: Database, sql: str) -> list[str]:
    """The join operators of ``sql``'s batch plan, in EXPLAIN order."""
    database.set_planner_options(_BATCH)
    return [
        line.split("(")[0].strip()
        for line in database.explain(sql).splitlines()
        if "Join(" in line
    ]


class TestSemiJoinEquivalence:
    """Star joins over unique-keyed dims lower to semi-joins; results and
    root estimates must still equal row mode's, NULL probe keys and
    tombstoned dim rows included.  Each dim carries a filter, as in the
    analytics star joins: an unfiltered indexed dim would be probed by an
    index nested-loop join in row mode, which batch mode does not have, and
    the root estimates would differ by design."""

    @given(
        rows=_rows_strategy,
        dimension=_keyed_dimension,
        deleted=st.lists(st.integers(min_value=-50, max_value=50), max_size=10),
        tag=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_table_semi_join_matches(
        self,
        rows: list[tuple],
        dimension: list[tuple[int, int]],
        deleted: list[int],
        tag: int,
    ) -> None:
        database = _build_star(rows, dimension, deleted)
        for sql in (
            "SELECT COUNT(*), SUM(t.c) FROM t, d WHERE t.b = d.k AND d.tag != ?",
            "SELECT t.a, t.c FROM t, d WHERE t.b = d.k AND d.tag < ?",
            "SELECT t.a FROM d, t WHERE d.k = t.b AND d.tag <= ? ORDER BY t.a",
        ):
            assert _join_operators(database, sql) == ["BatchSemiJoin"]
            _run_both(database, sql, (tag,))

    @given(
        rows=_rows_strategy,
        dimension=_keyed_dimension,
        deleted=st.lists(st.integers(min_value=-50, max_value=50), max_size=10),
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
    def test_three_table_chain_matches(
        self,
        rows: list[tuple],
        dimension: list[tuple[int, int]],
        deleted: list[int],
        outer: list[tuple],
        threshold: int,
    ) -> None:
        """``t -> d -> e``: whichever order the estimates pick, e is a key
        side at its step, and semi-joins chain where d is one too."""
        database = _build_star(rows, dimension, deleted, outer)
        for sql, params in (
            (
                "SELECT COUNT(*), MAX(t.a) FROM t, d, e "
                "WHERE t.b = d.k AND d.tag = e.g AND e.w IS NOT NULL "
                "AND d.tag != 4",
                (),
            ),
            (
                "SELECT t.a, t.c FROM e, t, d "
                "WHERE t.b = d.k AND d.tag = e.g AND t.c > ? "
                "AND d.tag >= 1 AND e.w > -90",
                (threshold,),
            ),
        ):
            assert "BatchSemiJoin" in _join_operators(database, sql)
            _run_both(database, sql, params)

    @given(
        facts=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
                st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
                st.integers(min_value=-100, max_value=100),
            ),
            max_size=300,
        ),
        keys=st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=60,
            unique_by=lambda row: row[:2],
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_two_column_key_matches(
        self, facts: list[tuple], keys: list[tuple]
    ) -> None:
        database = Database()
        database.execute("CREATE TABLE f (x INTEGER, y INTEGER, v INTEGER)")
        database.insert_rows("f", facts)
        database.execute("CREATE TABLE m (k1 INTEGER, k2 INTEGER, w INTEGER)")
        database.execute("CREATE UNIQUE INDEX m_key ON m (k2, k1)")
        database.insert_rows("m", keys)
        sql = (
            "SELECT COUNT(*), SUM(f.v) FROM f, m "
            "WHERE f.x = m.k1 AND m.k2 = f.y AND m.w < 5"
        )
        assert _join_operators(database, sql) == ["BatchSemiJoin"]
        _run_both(database, sql)


class TestHashJoinKept:
    """Shapes where a semi-join would be wrong stay ``BatchHashJoin`` and
    keep every duplicate match."""

    @given(
        rows=_rows_strategy,
        dimension=_keyed_dimension,
        duplicates=st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=10, max_value=19),
            ),
            min_size=0,
            max_size=20,
            unique_by=lambda row: row[0],
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_duplicate_matches_are_counted(
        self,
        rows: list[tuple],
        dimension: list[tuple[int, int]],
        duplicates: list[tuple[int, int]],
    ) -> None:
        """``d`` keys repeat (each ``(k, tag)`` pair is unique), so every
        join on ``k`` alone must count each match."""
        database = _build(rows)
        database.execute("CREATE TABLE keyed (k INTEGER PRIMARY KEY, tag INTEGER)")
        database.insert_rows("keyed", dimension)
        database.execute("CREATE TABLE plain (k INTEGER, tag INTEGER)")
        database.execute("CREATE INDEX plain_k ON plain (k)")
        database.insert_rows("plain", dimension + duplicates)
        database.execute("CREATE TABLE paired (k INTEGER, tag INTEGER)")
        database.execute("CREATE UNIQUE INDEX paired_key ON paired (k, tag)")
        database.insert_rows("paired", dimension + duplicates)
        for sql in (
            # A dim column read above the join.
            "SELECT t.a, keyed.tag FROM t, keyed "
            "WHERE t.b = keyed.k AND keyed.tag != 3",
            # A dim with no unique index.
            "SELECT COUNT(*), SUM(t.c) FROM t, plain "
            "WHERE t.b = plain.k AND plain.tag != 3",
            # A unique index on a different column set.
            "SELECT COUNT(*), SUM(t.c) FROM t, paired WHERE t.b = paired.k",
        ):
            assert _join_operators(database, sql) == ["BatchHashJoin"]
            _run_both(database, sql)


class TestSemiJoinLowering:
    """Which batch join operator each shape gets."""

    SHAPES = {
        "dim keyed on its primary key": (
            "SELECT COUNT(*) FROM t, d WHERE t.b = d.k AND d.tag > 2",
            ["BatchSemiJoin"],
        ),
        "chain of keyed dims": (
            "SELECT SUM(t.c) FROM t, d, e "
            "WHERE t.b = d.k AND d.tag = e.g AND d.tag < 8 AND e.w > 0",
            ["BatchSemiJoin", "BatchSemiJoin"],
        ),
        # t starts (the fewest estimated rows); d's tag is read by the
        # later join with e, so only e is a key side.
        "dim read by a later join": (
            "SELECT COUNT(*) FROM t, d, e WHERE t.b = d.k AND d.tag = e.g "
            "AND t.a = 7 AND t.c = 7 AND d.tag != 11 AND e.w != 1000",
            ["BatchSemiJoin", "BatchHashJoin"],
        ),
        "two-column unique key": (
            "SELECT COUNT(*) FROM t, m WHERE t.b = m.k1 AND t.a = m.k2 AND m.w > 5",
            ["BatchSemiJoin"],
        ),
        "dim column selected": (
            "SELECT t.a, d.tag FROM t, d WHERE t.b = d.k AND d.tag > 2",
            ["BatchHashJoin"],
        ),
        "dim column in a residual": (
            "SELECT COUNT(*) FROM t, d WHERE t.b = d.k AND t.c > d.tag AND d.tag > 2",
            ["BatchHashJoin"],
        ),
        "dim column in ORDER BY": (
            "SELECT t.a FROM t, d WHERE t.b = d.k AND d.tag > 2 ORDER BY d.tag, t.a",
            ["BatchHashJoin"],
        ),
        "SELECT *": (
            "SELECT * FROM t, d WHERE t.b = d.k AND d.tag > 2",
            ["BatchHashJoin"],
        ),
        "dim with no unique index": (
            "SELECT COUNT(*) FROM t, plain WHERE t.b = plain.k AND plain.tag > 2",
            ["BatchHashJoin"],
        ),
        "unique index on a different column set": (
            "SELECT COUNT(*) FROM t, m WHERE t.b = m.k1 AND m.w > 5",
            ["BatchHashJoin"],
        ),
    }

    @pytest.fixture(scope="class")
    def database(self) -> Database:
        database = _build_star(
            [(i, i % 40 - 20, i % 17) for i in range(300)],
            [(k, k % 10) for k in range(-20, 20)],
            outer=[(g, g * 3) for g in range(10)],
        )
        database.execute("CREATE TABLE plain (k INTEGER, tag INTEGER)")
        database.execute("CREATE INDEX plain_k ON plain (k)")
        database.insert_rows("plain", [(k % 20, k) for k in range(40)])
        database.execute("CREATE TABLE m (k1 INTEGER, k2 INTEGER, w INTEGER)")
        database.execute("CREATE UNIQUE INDEX m_key ON m (k1, k2)")
        database.insert_rows("m", [(k % 20, k, k) for k in range(60)])
        return database

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_join_operator(self, database: Database, shape: str) -> None:
        sql, expected = self.SHAPES[shape]
        assert _join_operators(database, sql) == expected
        _run_both(database, sql)


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

    @given(
        rows=_rows_strategy,
        dimension=_keyed_dimension.filter(lambda d: len(d) >= 10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_semi_join_key_side_under_dim_writes(
        self, rows: list[tuple], dimension: list[tuple[int, int]], seed: int
    ) -> None:
        """A pinned snapshot reads the same star-join results in both modes
        while a writer updates, deletes, re-inserts and re-keys dim rows —
        the semi-join's key side then scans through the MVCC fallback."""
        database = _build_star(rows, dimension)
        queries = (
            "SELECT COUNT(*), SUM(t.c) FROM t, d WHERE t.b = d.k AND d.tag != 3",
            "SELECT t.a, t.c FROM t, d WHERE t.b = d.k AND d.tag < 5",
        )
        assert all(
            _join_operators(database, sql) == ["BatchSemiJoin"] for sql in queries
        )
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            step = seed
            try:
                while not stop.is_set():
                    key = step % 101 - 50
                    database.execute(
                        "UPDATE d SET tag = ? WHERE k = ?", (step % 10, key)
                    )
                    database.execute("DELETE FROM d WHERE k = ?", ((key + 7) % 101 - 50,))
                    database.execute(
                        "INSERT INTO d (k, tag) VALUES (?, ?)",
                        ((key + 7) % 101 - 50, step % 10),
                    )
                    database.execute(
                        "UPDATE d SET k = ? WHERE k = ?", (1000 + step, key + 1)
                    )
                    step += 1
            except BaseException as error:  # pragma: no cover - test plumbing
                errors.append(error)

        reader = database.session()
        reader.begin()
        database.set_planner_options(_ROW)
        # Pin the reader's snapshot before the writer starts.
        baseline = [
            sorted(reader.execute(sql).rows, key=repr) for sql in queries
        ]
        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(4):
                for options in (_BATCH, _ROW):
                    database.set_planner_options(options)
                    assert [
                        sorted(reader.execute(sql).rows, key=repr) for sql in queries
                    ] == baseline
        finally:
            stop.set()
            writer.join()
            reader.rollback()
            reader.close()
        assert not errors
        for sql in queries:
            _run_both(database, sql)
        assert database.stats()["columnar"]["fallback_scans"] >= 1
