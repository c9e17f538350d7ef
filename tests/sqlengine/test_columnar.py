"""Unit tests for the vectorized columnar execution engine: mode
selection, projection/selection pushdown into storage, MVCC fast-path vs
fallback scans, incremental column-cache maintenance and the stats
surface."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.planner import PlannerOptions

ROWS = 1000


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE item (i_id INTEGER, i_grp INTEGER, i_cost INTEGER,
                           i_subject VARCHAR(20), i_note VARCHAR(40));
        CREATE TABLE grp (g_id INTEGER, g_label VARCHAR(20));
        """
    )
    database.insert_rows(
        "item",
        [
            (
                i,
                i % 10,
                i * 3 if i % 7 else None,
                f"subject{i % 5}",
                f"note-{i}",
            )
            for i in range(ROWS)
        ],
    )
    database.insert_rows("grp", [(i, f"group{i}") for i in range(10)])
    return database


def both_modes(db: Database, sql: str, params=()) -> None:
    """Assert batch and row mode agree on rows (as multisets for unordered
    queries, exactly for ordered ones) and on root cardinality estimates."""
    db.set_planner_options(PlannerOptions(execution_mode="batch"))
    batch = db.execute(sql, params)
    batch_explain = db.explain(sql)
    db.set_planner_options(PlannerOptions(execution_mode="row"))
    row = db.execute(sql, params)
    row_explain = db.explain(sql)
    assert batch.columns == row.columns
    if "ORDER BY" in sql.upper():
        assert batch.rows == row.rows
    else:
        assert sorted(batch.rows, key=repr) == sorted(row.rows, key=repr)
    # Root estimates match across modes (headers and operator names differ).
    batch_root = batch_explain.splitlines()[1]
    row_root = row_explain.splitlines()[1]
    assert batch_root.split("(rows=")[-1] == row_root.split("(rows=")[-1], (
        batch_explain,
        row_explain,
    )


class TestModeSelection:
    def test_auto_picks_batch_for_full_scans(self, db: Database) -> None:
        plan = db.explain("SELECT SUM(i_cost) FROM item")
        assert plan.startswith("mode=batch (batch_size=1024)")
        assert "BatchAggregate(SUM)" in plan
        assert "BatchScan(item AS item" in plan

    def test_auto_keeps_point_lookups_row_mode(self, db: Database) -> None:
        db.execute("CREATE INDEX idx_item_id ON item (i_id)")
        plan = db.explain("SELECT i_cost FROM item WHERE i_id = 7")
        assert plan.startswith("mode=row")
        assert "IndexLookup" in plan

    def test_auto_keeps_small_tables_row_mode(self, db: Database) -> None:
        plan = db.explain("SELECT g_label FROM grp")
        assert plan.startswith("mode=row")

    def test_forced_batch_and_row_modes(self, db: Database) -> None:
        db.set_planner_options(
            PlannerOptions(execution_mode="batch", batch_size=128)
        )
        assert db.explain("SELECT g_label FROM grp").startswith(
            "mode=batch (batch_size=128)"
        )
        db.set_planner_options(PlannerOptions(execution_mode="row"))
        assert db.explain("SELECT SUM(i_cost) FROM item").startswith("mode=row")

    def test_unknown_mode_raises(self, db: Database) -> None:
        with pytest.raises(SqlExecutionError, match="execution_mode"):
            PlannerOptions(execution_mode="warp")
        # Options are frozen, so a validated mode cannot be swapped later.
        options = PlannerOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.execution_mode = "warp"  # type: ignore[misc]
        # The database keeps its previous, valid options.
        assert db.execute("SELECT COUNT(*) FROM grp").rows == [(10,)]

    def test_unsupported_shapes_fall_back_to_row(self, db: Database) -> None:
        db.set_planner_options(PlannerOptions(execution_mode="batch"))
        # A cross join leaves the join graph disconnected, and only the row
        # back-end has cross joins: the planner lowers to row operators.
        plan = db.explain("SELECT COUNT(*) FROM item, grp")
        assert plan.startswith("mode=row")
        result = db.execute("SELECT COUNT(*) FROM item, grp")
        assert result.rows == [(ROWS * 10,)]


class TestEquivalence:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT i_id, i_cost FROM item",
            "SELECT * FROM item WHERE i_grp = 3",
            "SELECT i_id FROM item WHERE i_cost > 500 AND i_cost <= 900",
            "SELECT i_id FROM item WHERE i_cost IS NULL",
            "SELECT i_id FROM item WHERE i_cost IS NOT NULL AND i_grp != 2",
            "SELECT i_id FROM item WHERE i_grp IN (1, 3, 5)",
            "SELECT i_id FROM item WHERE i_grp NOT IN (1, 3, 5)",
            "SELECT i_id FROM item WHERE i_subject LIKE 'subject1%'",
            "SELECT i_id FROM item WHERE i_grp < i_cost",
            "SELECT i_id FROM item WHERE i_id + i_grp > 990",
            "SELECT COUNT(*), COUNT(i_cost), SUM(i_cost), MIN(i_cost), "
            "MAX(i_cost), AVG(i_cost) FROM item",
            "SELECT SUM(i_cost + i_grp) FROM item WHERE i_grp > 4",
            "SELECT COUNT(*) FROM item WHERE i_grp = 99",
            "SELECT DISTINCT i_grp FROM item WHERE i_cost > 100",
            "SELECT i_id, i_cost FROM item WHERE i_grp = 1 "
            "ORDER BY i_cost DESC, i_id LIMIT 7",
            "SELECT i_grp, i_id FROM item ORDER BY i_grp, i_id DESC "
            "LIMIT 20 OFFSET 5",
            "SELECT item.i_id, grp.g_label FROM item, grp "
            "WHERE item.i_grp = grp.g_id AND item.i_cost < 300 "
            "ORDER BY item.i_id",
            "SELECT COUNT(*) FROM item, grp "
            "WHERE item.i_grp = grp.g_id AND grp.g_label != 'group3'",
        ],
    )
    def test_batch_matches_row(self, db: Database, sql: str) -> None:
        both_modes(db, sql)

    def test_parameters(self, db: Database) -> None:
        both_modes(
            db,
            "SELECT i_id FROM item WHERE i_cost > ? AND i_subject = ?",
            (250, "subject2"),
        )

    def test_empty_table_aggregates(self, db: Database) -> None:
        db.execute("CREATE TABLE empty_t (x INTEGER)")
        db.set_planner_options(PlannerOptions(execution_mode="batch"))
        result = db.execute(
            "SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) FROM empty_t"
        )
        assert result.rows == [(0, None, None, None, None)]

    def test_null_join_keys_match_nothing(self, db: Database) -> None:
        db.execute("CREATE TABLE l (k INTEGER, v INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER, w INTEGER)")
        db.insert_rows("l", [(None, 1), (1, 2), (2, 3)] * 200)
        db.insert_rows("r", [(None, 10), (1, 20)] * 200)
        both_modes(
            db, "SELECT l.v, r.w FROM l, r WHERE l.k = r.k"
        )

    def test_aggregate_ignores_order_by_in_every_mode(self, db: Database) -> None:
        # An ungrouped aggregate yields one row, so ORDER BY is ignored —
        # even one naming an output alias rather than a table column.
        sql = "SELECT COUNT(*) AS n FROM item ORDER BY n"
        for mode in ("auto", "batch", "row"):
            db.set_planner_options(PlannerOptions(execution_mode=mode))
            assert db.execute(sql).rows == [(ROWS,)]
        assert db.explain(sql).startswith("mode=row")
        db.set_planner_options(PlannerOptions(execution_mode="batch"))
        assert db.explain(sql).startswith("mode=batch")

    def test_incomparable_types_raise_in_both_modes(self, db: Database) -> None:
        for mode in ("batch", "row"):
            db.set_planner_options(PlannerOptions(execution_mode=mode))
            with pytest.raises(SqlExecutionError):
                db.execute("SELECT i_id FROM item WHERE i_subject < 5")


class TestPushdown:
    def test_projection_pushdown_skips_unreferenced_columns(
        self, db: Database
    ) -> None:
        db.execute("SELECT i_id, i_cost FROM item WHERE i_grp = 2")
        table = db._tables["item"]
        # Columns 0 (i_id), 1 (i_grp), 2 (i_cost) were materialised;
        # i_subject and i_note were never touched.
        assert sorted(table._col_cache) == [0, 1, 2]

    def test_selection_pushdown_filters_inside_the_scan(
        self, db: Database
    ) -> None:
        before = db.stats()["columnar"]["rows_filtered_by_pushdown"]
        result = db.execute("SELECT i_id FROM item WHERE i_grp = 4")
        kept = len(result.rows)
        after = db.stats()["columnar"]["rows_filtered_by_pushdown"]
        assert after - before == ROWS - kept
        plan = db.explain("SELECT i_id FROM item WHERE i_grp = 4")
        assert "pushdown=1" in plan
        assert "BatchFilter" not in plan

    def test_non_vectorisable_predicates_stay_rowwise(
        self, db: Database
    ) -> None:
        plan = db.explain(
            "SELECT i_id FROM item WHERE i_grp = 4 AND i_id + i_grp > 10"
        )
        assert "pushdown=1" in plan
        assert "BatchFilter(item)" in plan


class TestMvccScans:
    def test_fast_path_when_no_versions(self, db: Database) -> None:
        before = db.stats()["columnar"]
        db.execute("SELECT COUNT(*) FROM item")
        after = db.stats()["columnar"]
        assert after["fast_path_scans"] == before["fast_path_scans"] + 1
        assert after["fallback_scans"] == before["fallback_scans"]

    def test_fallback_hides_uncommitted_writes(self, db: Database) -> None:
        writer = db.session()
        reader = db.session()
        writer.begin()
        writer.execute("UPDATE item SET i_cost = 0 WHERE i_id = 15")
        before = db.stats()["columnar"]["fallback_scans"]
        rows = reader.execute(
            "SELECT i_cost FROM item WHERE i_id = 15"
        ).rows
        assert rows == [(45,)]  # uncommitted update invisible
        assert db.stats()["columnar"]["fallback_scans"] > before
        writer.rollback()
        writer.close()
        reader.close()

    def test_fallback_resurrects_rows_deleted_after_snapshot(
        self, db: Database
    ) -> None:
        reader = db.session()
        reader.begin()
        # Pin the reader's snapshot before the delete commits.
        assert reader.execute(
            "SELECT COUNT(*) FROM item WHERE i_grp = 5"
        ).rows == [(100,)]
        db.execute("DELETE FROM item WHERE i_grp = 5")
        # The deleting transaction committed, but this snapshot predates
        # it: the batch scan must resurrect the deleted rows.
        assert reader.execute(
            "SELECT COUNT(*) FROM item WHERE i_grp = 5"
        ).rows == [(100,)]
        reader.commit()
        reader.close()
        assert db.execute(
            "SELECT COUNT(*) FROM item WHERE i_grp = 5"
        ).rows == [(0,)]

    def test_dml_between_scans_is_visible(self, db: Database) -> None:
        assert db.execute("SELECT MAX(i_id) FROM item").rows == [(ROWS - 1,)]
        db.execute(
            "INSERT INTO item (i_id, i_grp, i_cost, i_subject, i_note) "
            "VALUES (?, ?, ?, ?, ?)",
            (5000, 1, 1, "subject1", "new"),
        )
        assert db.execute("SELECT MAX(i_id) FROM item").rows == [(5000,)]
        db.execute("UPDATE item SET i_id = 6000 WHERE i_id = 5000")
        assert db.execute("SELECT MAX(i_id) FROM item").rows == [(6000,)]
        db.execute("DELETE FROM item WHERE i_id = 6000")
        assert db.execute("SELECT MAX(i_id) FROM item").rows == [(ROWS - 1,)]


class TestColumnCacheMaintenance:
    def test_small_dml_patches_instead_of_rebuilding(self, db: Database) -> None:
        db.execute("SELECT SUM(i_cost) FROM item")  # build the arrays
        table = db._tables["item"]
        rebuilds = table.column_rebuilds
        db.execute("UPDATE item SET i_cost = 1 WHERE i_id = 3")
        db.execute("SELECT SUM(i_cost) FROM item")
        assert table.column_patches >= 1
        assert table.column_rebuilds == rebuilds

    def test_bulk_churn_rebuilds(self, db: Database) -> None:
        db.execute("SELECT SUM(i_cost) FROM item")
        table = db._tables["item"]
        rebuilds = table.column_rebuilds
        db.execute("UPDATE item SET i_cost = 1")  # dirty every row
        db.execute("SELECT SUM(i_cost) FROM item")
        assert table.column_rebuilds > rebuilds

    def test_published_arrays_are_never_mutated(self, db: Database) -> None:
        """Copy-on-write: a scan's captured arrays must not change under
        later DML (a concurrent reader may still hold them)."""
        table = db._tables["item"]
        by_position, _, _, _ = table.columnar_scan_state([2])
        captured = by_position[2]
        snapshot = list(captured)
        db.execute("UPDATE item SET i_cost = 777 WHERE i_id = 1")
        db.execute("SELECT SUM(i_cost) FROM item")
        assert captured == snapshot


class TestStats:
    def test_stats_columnar_section(self, db: Database) -> None:
        db.execute("SELECT SUM(i_cost) FROM item WHERE i_grp = 1")
        stats = db.stats()["columnar"]
        assert set(stats) == {
            "batches_produced",
            "rows_filtered_by_pushdown",
            "fast_path_scans",
            "fallback_scans",
            "column_rebuilds",
            "column_patches",
        }
        assert stats["batches_produced"] >= 1
        assert stats["fast_path_scans"] >= 1

    def test_server_stats_ship_columnar_section(self, db: Database) -> None:
        from repro.netclient import RemoteDatabase
        from repro.server import SqlServer

        with SqlServer(db, host="127.0.0.1", port=0) as server:
            remote = RemoteDatabase(server.address).connect()
            db.execute("SELECT SUM(i_cost) FROM item")
            stats = remote.session.server_stats()
            assert stats["engine"]["columnar"]["batches_produced"] >= 1
            remote.close()
