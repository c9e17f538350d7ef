"""Tests for the shared LRU statement/plan cache: hits, LRU eviction,
DDL invalidation, statistics-drift replanning and cross-layer reuse."""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.planner import PlannerOptions
from repro.testing import make_bank_db


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_subject VARCHAR(20), i_cost INTEGER);
        CREATE TABLE author (a_id INTEGER PRIMARY KEY, a_name VARCHAR(20));
        """
    )
    database.insert_rows(
        "item", [(i, f"subject{i % 5}", i * 10) for i in range(1, 41)]
    )
    database.insert_rows("author", [(i, f"author{i}") for i in range(1, 11)])
    return database


class TestCacheHits:
    def test_repeated_select_hits_cache_and_plans_once(self, db: Database) -> None:
        info = db.statement_cache_info()
        sql = "SELECT i_cost FROM item WHERE i_id = ?"
        for item_id in (1, 2, 3, 4):
            db.execute(sql, (item_id,))
        after = db.statement_cache_info()
        assert after["hits"] >= info["hits"] + 3
        assert after["plans_computed"] == info["plans_computed"] + 1

    def test_cache_disabled_never_hits(self, db: Database) -> None:
        db.set_statement_cache_size(0)
        before = db.statement_cache_info()
        sql = "SELECT i_cost FROM item WHERE i_id = ?"
        db.execute(sql, (1,))
        db.execute(sql, (2,))
        after = db.statement_cache_info()
        assert after["hits"] == before["hits"]
        assert after["plans_computed"] >= before["plans_computed"] + 2

    def test_lru_eviction_bounds_entries(self, db: Database) -> None:
        db.set_statement_cache_size(2)
        db.execute("SELECT i_id FROM item WHERE i_id = 1")
        db.execute("SELECT i_id FROM item WHERE i_id = 2")
        db.execute("SELECT i_id FROM item WHERE i_id = 3")
        assert db.statement_cache_info()["entries"] <= 2

    def test_planner_options_key_separates_entries(self, db: Database) -> None:
        sql = "SELECT i_cost FROM item WHERE i_id = ?"
        db.execute(sql, (1,))
        plans_before = db.statement_cache_info()["plans_computed"]
        db.set_planner_options(PlannerOptions(use_indexes=False))
        db.execute(sql, (1,))
        assert db.statement_cache_info()["plans_computed"] == plans_before + 1
        assert "SeqScan" in db.explain(sql)


class TestInvalidation:
    def test_ddl_clears_cache(self, db: Database) -> None:
        db.execute("SELECT i_id FROM item WHERE i_id = 1")
        assert db.statement_cache_info()["entries"] > 0
        db.execute("CREATE INDEX idx_subject ON item (i_subject)")
        assert db.statement_cache_info()["entries"] == 0

    def test_replan_after_ddl_uses_new_index(self, db: Database) -> None:
        sql = "SELECT i_id FROM item WHERE i_subject = ?"
        db.execute(sql, ("subject1",))
        assert "SeqScan" in db.explain(sql)
        db.execute("CREATE INDEX idx_subject ON item (i_subject)")
        rows = db.execute(sql, ("subject1",)).rows
        plan = db.explain(sql)
        assert "idx_subject" in plan and "IndexLookup" in plan
        assert sorted(rows) == sorted(
            db.execute(
                "SELECT i_id FROM item WHERE i_subject = 'subject1'"
            ).rows
        )

    def test_statistics_drift_triggers_replan(self, db: Database) -> None:
        db.execute("CREATE TABLE tiny (t_id INTEGER PRIMARY KEY, t_val INTEGER)")
        db.insert_rows("tiny", [(1, 10)])
        sql = "SELECT t_val FROM tiny WHERE t_val > 0"
        db.execute(sql)
        plans_before = db.statement_cache_info()["plans_computed"]
        db.execute(sql)  # no drift yet: cached plan reused
        assert db.statement_cache_info()["plans_computed"] == plans_before
        db.insert_rows("tiny", [(i, i) for i in range(2, 200)])
        result = db.execute(sql)
        assert db.statement_cache_info()["plans_computed"] == plans_before + 1
        assert len(result.rows) == 199

    def test_execution_mode_change_never_serves_stale_plan(self, db: Database) -> None:
        """execution_mode and batch_size are part of the cache key: toggling
        them replans instead of serving the other mode's plan."""
        sql = "SELECT i_cost FROM item WHERE i_cost > ?"
        db.execute(sql, (100,))
        plans_before = db.statement_cache_info()["plans_computed"]
        db.set_planner_options(PlannerOptions(execution_mode="batch"))
        rows_batch = db.execute(sql, (100,)).rows
        assert db.statement_cache_info()["plans_computed"] == plans_before + 1
        assert db.explain(sql).startswith("mode=batch (batch_size=1024)")
        db.set_planner_options(
            PlannerOptions(execution_mode="batch", batch_size=64)
        )
        db.execute(sql, (100,))
        assert db.statement_cache_info()["plans_computed"] == plans_before + 2
        assert db.explain(sql).startswith("mode=batch (batch_size=64)")
        db.set_planner_options(PlannerOptions(execution_mode="row"))
        rows_row = db.execute(sql, (100,)).rows
        assert db.statement_cache_info()["plans_computed"] == plans_before + 3
        assert db.explain(sql).startswith("mode=row")
        assert sorted(rows_batch) == sorted(rows_row)

    def test_dropped_table_does_not_leave_stale_plan(self, db: Database) -> None:
        db.execute("CREATE TABLE temp_t (x INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO temp_t (x) VALUES (1)")
        db.execute("SELECT x FROM temp_t")
        db.execute("DROP TABLE temp_t")
        with pytest.raises(Exception):
            db.execute("SELECT x FROM temp_t")


class TestCrossLayerReuse:
    def test_orm_find_reuses_cached_plan(self) -> None:
        bank = make_bank_db()
        database = bank.database
        em = bank.begin_transaction()
        em.find("Client", 1000)
        info = database.statement_cache_info()
        # A different EntityManager issues byte-identical SQL, so the second
        # lookup is a pure cache hit with no replanning.
        other = bank.begin_transaction()
        other.find("Client", 1001)
        after = database.statement_cache_info()
        assert after["hits"] >= info["hits"] + 1
        assert after["plans_computed"] == info["plans_computed"]

    def test_prepared_statement_reuses_cached_plan(self, db: Database) -> None:
        from repro.dbapi.connection import connect

        connection = connect(db)
        statement = connection.prepare_statement(
            "SELECT i_cost FROM item WHERE i_id = ?"
        )
        statement.set_int(1, 1)
        statement.execute_query()
        info = db.statement_cache_info()
        for item_id in (2, 3, 4):
            statement.set_int(1, item_id)
            statement.execute_query()
        after = db.statement_cache_info()
        assert after["hits"] >= info["hits"] + 3
        assert after["plans_computed"] == info["plans_computed"]


class TestDmlPlans:
    """UPDATE and DELETE plans live in the same cache as SELECT plans."""

    def test_reexecuted_update_reuses_its_cached_plan(self, db: Database) -> None:
        sql = "UPDATE item SET i_cost = i_cost + ? WHERE i_id = ?"
        db.execute(sql, (1, 1))
        plans_before = db.statement_cache_info()["plans_computed"]
        for item_id in (2, 3, 4):
            assert db.execute(sql, (1, item_id)).rowcount == 1
        assert db.statement_cache_info()["plans_computed"] == plans_before
        assert db.execute("SELECT i_cost FROM item WHERE i_id = 4").rows == [(41,)]

    def test_create_index_switches_update_to_an_index_lookup(
        self, db: Database
    ) -> None:
        sql = "UPDATE item SET i_cost = ? WHERE i_subject = ?"
        db.execute(sql, (0, "subject1"))
        assert "SeqScan(item AS item)" in db.explain(f"EXPLAIN {sql}")
        db.execute("CREATE INDEX idx_subject ON item (i_subject)")
        plan = db.explain(f"EXPLAIN {sql}")
        assert "IndexLookup(item AS item USING idx_subject)" in plan
        assert "SeqScan" not in plan
        assert db.execute(sql, (7, "subject2")).rowcount == 8

    def test_use_indexes_false_keeps_dml_on_a_scan(self, db: Database) -> None:
        db.set_planner_options(PlannerOptions(use_indexes=False))
        for sql in (
            "UPDATE item SET i_cost = ? WHERE i_id = ?",
            "DELETE FROM item WHERE i_id = ?",
        ):
            plan = db.explain(sql)
            assert "SeqScan(item AS item)" in plan and "IndexLookup" not in plan
        assert db.execute("DELETE FROM item WHERE i_id = ?", (3,)).rowcount == 1

    def test_reopened_durable_database_explains_update_identically(
        self, tmp_path
    ) -> None:
        from repro.sqlengine.durability import DurabilityOptions

        def open_db() -> Database:
            return Database(
                data_dir=str(tmp_path), durability=DurabilityOptions(fsync="off")
            )

        database = open_db()
        database.executescript(
            """
            CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_subject VARCHAR(20),
                               i_stock INTEGER);
            CREATE INDEX idx_subject ON item (i_subject);
            """
        )
        database.execute_many(
            "INSERT INTO item (i_id, i_subject, i_stock) VALUES (?, ?, ?)",
            [(i, f"subject{i % 5}", 100) for i in range(1, 41)],
        )
        database.execute("DELETE FROM item WHERE i_subject = ?", ("subject4",))
        sqls = [
            "EXPLAIN UPDATE item SET i_stock = i_stock - ? "
            "WHERE i_id = ? AND i_stock >= ?",
            "EXPLAIN UPDATE item SET i_stock = 0 WHERE i_subject = ?",
            "EXPLAIN DELETE FROM item WHERE i_stock < ?",
        ]
        before = [database.explain(sql) for sql in sqls]
        database.close()
        recovered = open_db()
        assert [recovered.explain(sql) for sql in sqls] == before
        recovered.close()
