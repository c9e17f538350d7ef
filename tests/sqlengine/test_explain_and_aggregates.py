"""Tests for ``EXPLAIN SELECT`` surfaced through SQL/dbapi and for the
extended ungrouped aggregates (COUNT/SUM/MIN/MAX/AVG)."""

from __future__ import annotations

import pytest

from repro.dbapi.connection import connect
from repro.sqlengine import Database
from repro.sqlengine.errors import SqlExecutionError, SqlParseError


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_subject VARCHAR(20),
                           i_cost INTEGER, i_stock INTEGER);
        CREATE TABLE author (a_id INTEGER PRIMARY KEY, a_name VARCHAR(20));
        """
    )
    database.insert_rows(
        "item",
        [(i, f"subject{i % 3}", i * 10, None if i == 5 else i) for i in range(1, 11)],
    )
    database.insert_rows("author", [(i, f"author{i}") for i in range(1, 4)])
    return database


class TestExplainStatement:
    def test_explain_select_returns_plan_rows(self, db: Database) -> None:
        result = db.execute("EXPLAIN SELECT i_cost FROM item WHERE i_id = ?")
        assert result.columns == ["query plan"]
        text = "\n".join(str(row[0]) for row in result.rows)
        assert "IndexLookup" in text
        assert "Project" in text

    def test_explain_shows_estimated_rows_and_cost(self, db: Database) -> None:
        result = db.execute("EXPLAIN SELECT i_cost FROM item WHERE i_id = 3")
        text = "\n".join(str(row[0]) for row in result.rows)
        assert "rows=" in text and "cost=" in text

    def test_explain_join_shows_per_node_estimates(self, db: Database) -> None:
        result = db.execute(
            "EXPLAIN SELECT i_id, a_name FROM item, author "
            "WHERE i_cost = a_id AND i_id = 1"
        )
        annotated = [row[0] for row in result.rows if "rows=" in str(row[0])]
        assert len(annotated) >= 2  # every operator node carries estimates

    def test_explain_non_select_is_a_parse_error(self, db: Database) -> None:
        with pytest.raises(SqlParseError):
            db.execute("EXPLAIN INSERT INTO item (i_id) VALUES (99)")

    def test_explain_update_and_delete_plan_without_writing(
        self, db: Database
    ) -> None:
        update = db.execute("EXPLAIN UPDATE item SET i_cost = 0 WHERE i_id = 3")
        delete = db.execute("EXPLAIN DELETE FROM item WHERE i_subject = ?")
        assert [row[0] for row in update.rows][:3] == [
            "mode=row",
            "Update(item)  (rows=1.0, cost=1.0)",
            "  IndexLookup(item AS item USING pk_item)  (rows=1.0, cost=1.0)",
        ]
        assert [row[0].split("  (")[0] for row in delete.rows] == [
            "mode=row",
            "Delete(item)",
            "  Filter(item)",
            "    SeqScan(item AS item)",
        ]
        assert db.execute("SELECT i_cost FROM item WHERE i_id = 3").rows == [(30,)]
        assert db.row_count("item") == 10

    @pytest.mark.parametrize(
        "sql",
        [
            "EXPLAIN ANALYZE UPDATE item SET i_cost = 0 WHERE i_id = 3",
            "EXPLAIN ANALYZE DELETE FROM item WHERE i_id = 3",
        ],
    )
    def test_explain_analyze_of_a_write_is_a_parse_error(
        self, db: Database, sql: str
    ) -> None:
        # ANALYZE executes the statement, so on DML it would write.
        with pytest.raises(SqlParseError, match="ANALYZE"):
            db.execute(sql)
        assert db.execute("SELECT i_cost FROM item WHERE i_id = 3").rows == [(30,)]

    def test_explain_through_dbapi_statement(self, db: Database) -> None:
        connection = connect(db)
        result = connection.create_statement().execute(
            "EXPLAIN SELECT i_id FROM item WHERE i_id = 1"
        )
        assert result is not None
        lines = []
        while result.next():
            lines.append(result.get_string(1))
        assert any("IndexLookup" in str(line) for line in lines)

    def test_prepared_statement_explain_helper(self, db: Database) -> None:
        connection = connect(db)
        statement = connection.prepare_statement(
            "SELECT i_cost FROM item WHERE i_id = ?"
        )
        plan = statement.explain()
        assert "IndexLookup" in plan and "rows=" in plan


class TestAggregates:
    def test_sum_min_max_avg(self, db: Database) -> None:
        result = db.execute(
            "SELECT COUNT(*) AS n, SUM(i_cost) AS total, MIN(i_cost) AS lo, "
            "MAX(i_cost) AS hi, AVG(i_cost) AS mean FROM item"
        )
        assert result.columns == ["n", "total", "lo", "hi", "mean"]
        assert result.rows == [(10, 550, 10, 100, 55.0)]

    def test_aggregates_skip_nulls(self, db: Database) -> None:
        # i_stock is NULL for i_id = 5: COUNT(col) and AVG must skip it.
        result = db.execute(
            "SELECT COUNT(i_stock), SUM(i_stock), AVG(i_stock) FROM item"
        )
        count, total, mean = result.rows[0]
        assert count == 9
        assert total == sum(i for i in range(1, 11) if i != 5)
        assert mean == total / 9

    def test_aggregates_over_empty_input_yield_null(self, db: Database) -> None:
        result = db.execute(
            "SELECT COUNT(*), SUM(i_cost), MIN(i_cost), MAX(i_cost), AVG(i_cost) "
            "FROM item WHERE i_id > 1000"
        )
        assert result.rows == [(0, None, None, None, None)]

    def test_aggregate_with_filter_and_expression(self, db: Database) -> None:
        result = db.execute(
            "SELECT SUM(i_cost * 2) AS doubled FROM item WHERE i_id <= 3"
        )
        assert result.rows == [(120,)]

    def test_unsupported_aggregate_names_the_function(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError, match="MEDIAN"):
            db.execute("SELECT MEDIAN(i_cost) FROM item")

    def test_sum_star_is_rejected(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT SUM(*) FROM item")

    def test_mixing_aggregate_and_column_is_rejected(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError, match="GROUP BY"):
            db.execute("SELECT i_id, SUM(i_cost) FROM item")
