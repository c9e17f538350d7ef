"""The sharding coordinator against a single-node oracle.

Every test builds the same population twice — once in a plain engine,
once spread over embedded shard engines behind a
:class:`~repro.sharding.coordinator.ShardedDatabase` — and requires the
coordinator's answers to be byte-identical to the oracle's.
"""

from __future__ import annotations

import pytest

from repro.sharding import ShardMap, ShardedDatabase
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import ShardError, SqlExecutionError

DDL = (
    "CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR, "
    "i_stock INT, i_cost DOUBLE)",
    "CREATE TABLE customer (c_id INT PRIMARY KEY, c_uname VARCHAR UNIQUE, "
    "c_balance DOUBLE)",
    "CREATE TABLE country (co_id INT PRIMARY KEY, co_name VARCHAR)",
)

ITEMS = [(i, f"title-{i % 7}", 10 + i % 13, float(i % 5) + 0.5) for i in range(40)]
CUSTOMERS = [(i, f"user{i}", 100.0 + i) for i in range(20)]
COUNTRIES = [(1, "GBR"), (2, "USA"), (3, "JPN")]


def _populate(database) -> None:
    for sql in DDL:
        database.execute(sql)
    for i_id, title, stock, cost in ITEMS:
        database.execute(
            "INSERT INTO item VALUES (?, ?, ?, ?)", (i_id, title, stock, cost)
        )
    for c_id, uname, balance in CUSTOMERS:
        database.execute(
            "INSERT INTO customer VALUES (?, ?, ?)", (c_id, uname, balance)
        )
    for co_id, name in COUNTRIES:
        database.execute("INSERT INTO country VALUES (?, ?)", (co_id, name))


@pytest.fixture()
def oracle():
    database = Database()
    _populate(database)
    yield database
    database.close()


@pytest.fixture(params=[2, 3])
def cluster(request):
    shard_map = ShardMap(
        version=1,
        num_shards=request.param,
        tables={"item": "i_id", "customer": "c_id"},
    )
    shards = [Database() for _ in range(request.param)]
    coordinator = ShardedDatabase(shard_map, shards, name="test")
    _populate(coordinator)  # DDL broadcasts, rows route by key
    yield coordinator
    coordinator.close()
    for shard in shards:
        shard.close()


class TestReadEquivalence:
    QUERIES = [
        "SELECT i_title FROM item WHERE i_id = 7",
        "SELECT i_title, i_stock FROM item WHERE i_id = ?",
        "SELECT COUNT(*) FROM item",
        "SELECT COUNT(*), SUM(i_stock), MIN(i_cost), MAX(i_cost), AVG(i_cost) "
        "FROM item",
        "SELECT SUM(i_stock) AS total FROM item WHERE i_cost > 1.0",
        "SELECT AVG(i_cost) FROM item WHERE i_id > 1000",  # empty: NULL
        "SELECT COUNT(i_title) FROM item WHERE i_id < 0",  # empty: 0
        "SELECT i_id, i_title FROM item ORDER BY i_title, i_id DESC LIMIT 9",
        "SELECT i_id FROM item ORDER BY i_cost DESC, i_id LIMIT 5 OFFSET 3",
        "SELECT * FROM item ORDER BY i_id LIMIT 4",
        "SELECT DISTINCT i_title FROM item",
        "SELECT i_stock FROM item WHERE i_title = 'title-3'",
        "SELECT co_name FROM country WHERE co_id = 2",
        "SELECT i_title, co_name FROM item, country "
        "WHERE i_id = co_id ORDER BY i_id",
        "SELECT item.i_title, customer.c_uname FROM item, customer "
        "WHERE item.i_id = customer.c_id ORDER BY item.i_id LIMIT 6",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_byte_identical_to_single_node(self, oracle, cluster, sql) -> None:
        params = (11,) if "?" in sql else ()
        want = oracle.execute(sql, params)
        got = cluster.execute(sql, params)
        assert got.columns == want.columns
        assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows))
        if "ORDER BY" in sql:
            assert got.rows == want.rows  # order must match exactly


class TestWriteEquivalence:
    def test_keyed_update_and_delete(self, oracle, cluster) -> None:
        for database in (oracle, cluster):
            assert (
                database.execute(
                    "UPDATE item SET i_stock = i_stock + 5 WHERE i_id = 6"
                ).rowcount
                == 1
            )
            assert database.execute("DELETE FROM item WHERE i_id = 13").rowcount == 1
        assert (
            cluster.execute("SELECT SUM(i_stock) FROM item").rows
            == oracle.execute("SELECT SUM(i_stock) FROM item").rows
        )

    def test_broadcast_update_rowcount_sums_across_shards(
        self, oracle, cluster
    ) -> None:
        sql = "UPDATE item SET i_stock = i_stock + 1 WHERE i_cost > 2.0"
        assert cluster.execute(sql).rowcount == oracle.execute(sql).rowcount

    def test_global_broadcast_rowcount_not_multiplied(self, cluster) -> None:
        # The same row changes on every shard; one logical update.
        assert (
            cluster.execute("UPDATE country SET co_name = 'UK' WHERE co_id = 1")
            .rowcount
            == 1
        )
        assert cluster.execute(
            "SELECT co_name FROM country WHERE co_id = 1"
        ).rows == [("UK",)]

    def test_split_insert_places_every_row(self, cluster) -> None:
        result = cluster.execute(
            "INSERT INTO item (i_id, i_title, i_stock, i_cost) "
            "VALUES (100, 'a', 1, 1.0), (101, 'b', 2, 2.0), (102, 'c', 3, 3.0)"
        )
        assert result.rowcount == 3
        for i_id in (100, 101, 102):
            route = cluster.explain(f"SELECT * FROM item WHERE i_id = {i_id}")
            assert "shards=1" in route
            assert cluster.execute(
                "SELECT i_id FROM item WHERE i_id = ?", (i_id,)
            ).rows == [(i_id,)]


class TestTransactions:
    def test_cross_shard_transfer_commits_atomically(self, cluster) -> None:
        before = cluster.execute("SELECT SUM(c_balance) FROM customer").rows
        with cluster.session(autocommit=False) as session:
            session.execute(
                "UPDATE customer SET c_balance = c_balance - 25.0 WHERE c_id = 2"
            )
            session.execute(
                "UPDATE customer SET c_balance = c_balance + 25.0 WHERE c_id = 3"
            )
            session.commit()
        assert cluster.execute("SELECT SUM(c_balance) FROM customer").rows == before
        assert cluster.stats()["transactions_2pc"] >= 1

    def test_rollback_undoes_every_shard(self, cluster) -> None:
        before = cluster.execute(
            "SELECT c_id, c_balance FROM customer ORDER BY c_id"
        ).rows
        with cluster.session(autocommit=False) as session:
            session.execute("UPDATE customer SET c_balance = 0.0 WHERE c_id = 2")
            session.execute("UPDATE customer SET c_balance = 0.0 WHERE c_id = 3")
            session.rollback()
        assert (
            cluster.execute(
                "SELECT c_id, c_balance FROM customer ORDER BY c_id"
            ).rows
            == before
        )

    def test_read_your_writes_inside_transaction(self, cluster) -> None:
        with cluster.session(autocommit=False) as session:
            session.execute(
                "UPDATE customer SET c_balance = 1.25 WHERE c_id = 5"
            )
            assert session.execute(
                "SELECT c_balance FROM customer WHERE c_id = 5"
            ).rows == [(1.25,)]
            session.rollback()

    def test_nested_begin_rejected(self, cluster) -> None:
        with cluster.session(autocommit=False) as session:
            session.execute("BEGIN")
            with pytest.raises(SqlExecutionError, match="already in progress"):
                session.execute("BEGIN")
            session.rollback()

    def test_savepoints_rejected(self, cluster) -> None:
        with cluster.session(autocommit=False) as session:
            session.execute("UPDATE customer SET c_balance = 0.0 WHERE c_id = 2")
            with pytest.raises(ShardError, match="savepoint"):
                session.execute("SAVEPOINT sp1")
            session.rollback()

    def test_prepare_transaction_verb_rejected(self, cluster) -> None:
        session = cluster.session(autocommit=False)
        try:
            with pytest.raises(ShardError, match="not supported on a sharding"):
                session.prepare_txn("gid-1")
        finally:
            session.close()


class TestExplain:
    def test_single_shard_route_shows_key(self, cluster) -> None:
        plan = cluster.explain("SELECT i_title FROM item WHERE i_id = 7")
        shard = cluster.shard_map.shard_of("item", 7)
        assert f"shards=1 (key=item.i_id=7 -> shard {shard})" in plan
        assert "shard" in plan and "plan:" in plan

    def test_fanout_route_shows_merge(self, cluster) -> None:
        plan = cluster.explain("SELECT SUM(i_stock) FROM item")
        assert f"shards={cluster.num_shards} (fanout+merge" in plan
        assert "re-aggregate partials on coordinator" in plan

    def test_ordered_fanout_shows_kway_merge(self, cluster) -> None:
        plan = cluster.explain("SELECT i_id FROM item ORDER BY i_id LIMIT 3")
        assert "ordered k-way merge" in plan

    def test_explain_statement_flows_through_execute(self, cluster) -> None:
        result = cluster.execute("EXPLAIN SELECT i_title FROM item WHERE i_id = 7")
        assert result.columns == ["query plan"]
        assert any("shards=1" in row[0] for row in result.rows)

    def test_parameterized_explain_reports_fanout(self, cluster) -> None:
        # EXPLAIN carries no bindings; a parameter key cannot pin a shard.
        plan = cluster.explain("SELECT i_title FROM item WHERE i_id = ?")
        assert "fanout" in plan


class TestStats:
    def test_route_and_statement_counters(self, cluster) -> None:
        baseline = cluster.stats()["statements_executed"]
        cluster.execute("SELECT i_title FROM item WHERE i_id = 7")
        cluster.execute("SELECT COUNT(*) FROM item")
        stats = cluster.stats()
        assert stats["statements_executed"] == baseline + 2
        assert stats["routes"]["single"] >= 1
        assert stats["routes"]["fanout"] >= 1
        assert stats["shard_map_version"] == 1
        assert stats["num_shards"] == cluster.num_shards
        assert stats["tables"] == 3
