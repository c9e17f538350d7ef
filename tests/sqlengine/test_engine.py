"""Tests for the Database facade: DDL, DML, SELECT planning and execution."""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.planner import PlannerOptions


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE customer (c_id INTEGER PRIMARY KEY, c_uname VARCHAR(20),
                               c_fname VARCHAR(20), c_lname VARCHAR(20), c_addr_id INTEGER);
        CREATE TABLE address (addr_id INTEGER PRIMARY KEY, addr_city VARCHAR(30), addr_co_id INTEGER);
        CREATE TABLE country (co_id INTEGER PRIMARY KEY, co_name VARCHAR(50));
        """
    )
    database.insert_rows("country", [(1, "Canada"), (2, "Switzerland"), (3, "Japan")])
    database.insert_rows(
        "address",
        [(10, "Ottawa", 1), (11, "Lausanne", 2), (12, "Tokyo", 3), (13, "Geneva", 2)],
    )
    database.insert_rows(
        "customer",
        [
            (100, "alice", "Alice", "Smith", 10),
            (101, "bob", "Bob", "Jones", 11),
            (102, "carol", "Carol", "Kim", 12),
            (103, "dan", "Dan", "Muller", 13),
        ],
    )
    return database


class TestSelect:
    def test_point_query_by_primary_key(self, db: Database) -> None:
        result = db.execute("SELECT c_fname, c_lname FROM customer WHERE c_id = ?", (101,))
        assert result.rows == [("Bob", "Jones")]
        assert result.columns == ["c_fname", "c_lname"]

    def test_point_query_uses_index(self, db: Database) -> None:
        plan = db.explain("SELECT c_fname FROM customer WHERE c_id = ?")
        assert "IndexLookup" in plan

    def test_three_way_join(self, db: Database) -> None:
        result = db.execute(
            "SELECT customer.c_fname, country.co_name FROM customer, address, country "
            "WHERE customer.c_addr_id = address.addr_id "
            "AND address.addr_co_id = country.co_id AND customer.c_uname = ?",
            ("dan",),
        )
        assert result.rows == [("Dan", "Switzerland")]

    def test_join_without_alias_qualification(self, db: Database) -> None:
        result = db.execute(
            "SELECT c_uname, co_name FROM customer, address, country "
            "WHERE c_addr_id = addr_id AND addr_co_id = co_id ORDER BY c_uname"
        )
        assert [row[0] for row in result.rows] == ["alice", "bob", "carol", "dan"]

    def test_order_by_descending_and_limit(self, db: Database) -> None:
        result = db.execute("SELECT c_uname FROM customer ORDER BY c_uname DESC LIMIT 2")
        assert result.rows == [("dan",), ("carol",)]

    def test_limit_offset(self, db: Database) -> None:
        result = db.execute("SELECT c_id FROM customer ORDER BY c_id LIMIT 2 OFFSET 1")
        assert result.rows == [(101,), (102,)]

    def test_distinct(self, db: Database) -> None:
        result = db.execute("SELECT DISTINCT addr_co_id FROM address ORDER BY addr_co_id")
        assert result.rows == [(1,), (2,), (3,)]

    def test_count_star(self, db: Database) -> None:
        result = db.execute("SELECT COUNT(*) AS n FROM customer")
        assert result.rows == [(4,)]

    def test_or_predicate(self, db: Database) -> None:
        result = db.execute(
            "SELECT c_uname FROM customer WHERE c_uname = 'alice' OR c_uname = 'bob' "
            "ORDER BY c_uname"
        )
        assert result.rows == [("alice",), ("bob",)]

    def test_arithmetic_projection(self, db: Database) -> None:
        result = db.execute("SELECT c_id * 2 + 1 FROM customer WHERE c_id = 100")
        assert result.rows == [(201,)]

    def test_table_star_expansion(self, db: Database) -> None:
        result = db.execute("SELECT A.* FROM country AS A WHERE A.co_id = 2")
        assert result.columns == ["co_id", "co_name"]
        assert result.rows == [(2, "Switzerland")]

    def test_select_star_over_join_contains_all_columns(self, db: Database) -> None:
        result = db.execute(
            "SELECT * FROM address, country WHERE addr_co_id = co_id AND addr_id = 10"
        )
        assert len(result.columns) == 5

    def test_null_key_matches_no_row_through_an_index(self, db: Database) -> None:
        # The index files NULL columns under a key, but `col = NULL` is
        # never true: the probe must agree with the scan.
        db.execute("CREATE INDEX idx_addr ON customer (c_addr_id)")
        db.execute("UPDATE customer SET c_addr_id = NULL WHERE c_id = 100")
        sql = "SELECT c_id FROM customer WHERE c_addr_id = ?"
        assert "USING idx_addr" in db.explain(sql)
        assert db.execute(sql, (None,)).rows == []
        assert db.execute(
            "SELECT c_id FROM customer WHERE c_addr_id IS NULL"
        ).rows == [(100,)]

    def test_unknown_column_raises(self, db: Database) -> None:
        with pytest.raises(SqlCatalogError):
            db.execute("SELECT nonexistent FROM customer")

    def test_unknown_table_raises(self, db: Database) -> None:
        with pytest.raises(SqlCatalogError):
            db.execute("SELECT 1 FROM missing_table")

    def test_missing_parameter_raises(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT c_id FROM customer WHERE c_id = ?")

    def test_result_set_value_by_name(self, db: Database) -> None:
        result = db.execute("SELECT c_fname, c_lname FROM customer WHERE c_id = 100")
        assert result.value(0, "C_LNAME") == "Smith"
        with pytest.raises(KeyError):
            result.column_index("nope")


class TestDml:
    def test_insert_via_sql(self, db: Database) -> None:
        db.execute("INSERT INTO country (co_id, co_name) VALUES (?, ?)", (4, "Peru"))
        assert db.row_count("country") == 4

    def test_update(self, db: Database) -> None:
        db.execute("UPDATE customer SET c_fname = ? WHERE c_id = ?", ("Robert", 101))
        result = db.execute("SELECT c_fname FROM customer WHERE c_id = 101")
        assert result.rows == [("Robert",)]

    def test_update_multiple_rows(self, db: Database) -> None:
        db.execute("UPDATE address SET addr_co_id = 1 WHERE addr_co_id = 2")
        result = db.execute("SELECT COUNT(*) AS n FROM address WHERE addr_co_id = 1")
        assert result.rows == [(3,)]

    def test_delete(self, db: Database) -> None:
        db.execute("DELETE FROM customer WHERE c_id = 103")
        assert db.row_count("customer") == 3

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE customer SET nope = 1 WHERE c_id = 100",
            "UPDATE customer SET c_fname = 'x' WHERE nope = 1",
            "DELETE FROM customer WHERE other.c_id = 100",
        ],
    )
    def test_dml_with_unknown_column_raises(self, db: Database, sql: str) -> None:
        with pytest.raises(SqlCatalogError):
            db.execute(sql)
        assert db.row_count("customer") == 4

    def test_ordered_index_probe_with_an_incomparable_key(self, db: Database) -> None:
        db.create_index("customer", ["c_addr_id"], name="idx_addr", ordered=True)
        sql = "UPDATE customer SET c_fname = 'x' WHERE c_addr_id = ?"
        assert "USING idx_addr" in db.explain(sql)
        assert db.execute(sql, ("10",)).rowcount == 0
        assert db.execute(sql, (10.0,)).rowcount == 1

    def test_primary_key_violation_via_sql(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError):
            db.execute("INSERT INTO country (co_id, co_name) VALUES (1, 'Dup')")

    def test_transaction_statements_are_accepted(self, db: Database) -> None:
        db.execute("BEGIN")
        db.execute("COMMIT")
        db.execute("ROLLBACK")


class TestPlannerOptions:
    def test_disabling_indexes_switches_to_seq_scan(self, db: Database) -> None:
        db.set_planner_options(PlannerOptions(use_indexes=False))
        plan = db.explain("SELECT c_fname FROM customer WHERE c_id = ?")
        assert "SeqScan" in plan and "IndexLookup" not in plan

    def test_hash_join_used_when_index_join_disabled(self, db: Database) -> None:
        db.set_planner_options(PlannerOptions(use_index_nested_loop_join=False))
        plan = db.explain(
            "SELECT c_uname, co_name FROM customer, address, country "
            "WHERE c_addr_id = addr_id AND addr_co_id = co_id"
        )
        assert "HashJoin" in plan

    def test_results_identical_across_planner_options(self, db: Database) -> None:
        sql = (
            "SELECT c_uname, co_name FROM customer, address, country "
            "WHERE c_addr_id = addr_id AND addr_co_id = co_id ORDER BY c_uname"
        )
        baseline = db.execute(sql).rows
        for options in (
            PlannerOptions(use_indexes=False),
            PlannerOptions(use_index_nested_loop_join=False),
            PlannerOptions(use_hash_join=False),
            PlannerOptions(use_indexes=False, use_hash_join=False),
        ):
            db.set_planner_options(options)
            assert db.execute(sql).rows == baseline
        db.set_planner_options(PlannerOptions())

    def test_statement_cache_counts_executions(self, db: Database) -> None:
        before = db.statements_executed
        db.execute("SELECT c_id FROM customer WHERE c_id = ?", (100,))
        db.execute("SELECT c_id FROM customer WHERE c_id = ?", (101,))
        assert db.statements_executed == before + 2
