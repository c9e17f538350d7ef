"""Every session honours the one contract, :class:`repro.session.SqlSession`.

The same checks run against the engine ``Session``, a ``RemoteSession``
over a server, a ``RoutedSession`` over a primary with one replica, and a
``ShardedSession`` over two shards: transaction control, the ``trace``
keyword reaching the node that did the work, the two-phase-commit verbs,
and the error class of a bad statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.netclient.client import RemoteDatabase
from repro.obs.trace import new_root_context
from repro.server import SqlServer
from repro.session import SqlSession
from repro.sharding import ShardMap, ShardedDatabase
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import SqlCatalogError, SqlExecutionError, ShardError

from tests.replication.harness import ReplicationCluster

DDL = "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"


@dataclass
class Deployment:
    """One way to get sessions, plus the spans of the node doing the work."""

    session: Callable[[], SqlSession]
    traces: Callable[[str], list[dict]]
    #: Whether sessions can join a two-phase commit as a participant (the
    #: sharding coordinator drives 2PC and refuses to join one).
    participant: bool = True

    def value(self, key: int) -> list[tuple]:
        session = self.session()
        try:
            return list(session.execute("SELECT v FROM kv WHERE id = ?", (key,)).rows)
        finally:
            session.close()


@pytest.fixture(params=["engine", "remote", "routed", "sharded"])
def deployment(request, tmp_path):
    kind = request.param
    if kind == "engine":
        database = Database()
        database.execute(DDL)
        yield Deployment(database.session, database.traces)
        database.close()
    elif kind == "remote":
        database = Database()
        database.execute(DDL)
        with SqlServer(database=database) as server:
            yield Deployment(RemoteDatabase(server.address).session, database.traces)
        database.close()
    elif kind == "routed":
        with ReplicationCluster(str(tmp_path), replicas=1) as cluster:
            cluster.database.execute(DDL)
            cluster.wait_sync()
            # Writes and commits land on the primary.
            yield Deployment(cluster.pool().session, cluster.database.traces)
    else:
        shards = [Database(), Database()]
        coordinator = ShardedDatabase(
            ShardMap(version=1, num_shards=2, tables={"kv": "id"}), shards
        )
        coordinator.execute(DDL)
        yield Deployment(coordinator.session, coordinator.traces, participant=False)
        coordinator.close()


def test_every_session_satisfies_the_protocol(deployment) -> None:
    session = deployment.session()
    try:
        assert isinstance(session, SqlSession)
    finally:
        session.close()


def test_begin_commit_rollback(deployment) -> None:
    session = deployment.session()
    try:
        assert not session.in_transaction
        session.begin()
        assert session.in_transaction
        with pytest.raises(SqlExecutionError):
            session.begin()
        session.execute("INSERT INTO kv VALUES (1, 10)")
        session.commit()
        assert not session.in_transaction
        session.begin()
        session.execute("INSERT INTO kv VALUES (2, 20)")
        session.rollback()
        assert not session.in_transaction
        # Without an open transaction both are no-ops.
        session.commit()
        session.rollback()
    finally:
        session.close()
    assert deployment.value(1) == [(10,)]
    assert deployment.value(2) == []


def test_trace_keyword_reaches_the_working_node(deployment) -> None:
    session = deployment.session()
    try:
        statement = new_root_context()
        session.execute("INSERT INTO kv VALUES (3, 30)", trace=statement)
        session.begin()
        session.execute("INSERT INTO kv VALUES (4, 40)")
        commit = new_root_context()
        session.commit(trace=commit)
    finally:
        session.close()
    for context in (statement, commit):
        spans = deployment.traces(context.trace_id)
        assert context.trace_id in {span["trace_id"] for span in spans}
    assert "commit" in {span["name"] for span in deployment.traces(commit.trace_id)}
    assert deployment.value(4) == [(40,)]


def test_two_phase_commit_round_trips(deployment) -> None:
    session = deployment.session()
    try:
        if not deployment.participant:
            session.begin()
            session.execute("INSERT INTO kv VALUES (5, 50)")
            for verb in (
                session.prepare_txn, session.commit_prepared, session.abort_prepared
            ):
                with pytest.raises(ShardError, match="does not join one"):
                    verb("contract-gid", trace=new_root_context())
            assert session.in_transaction
            session.rollback()
            assert deployment.value(5) == []
            return
        session.begin()
        session.execute("INSERT INTO kv VALUES (5, 50)")
        session.prepare_txn("contract-commit", trace=new_root_context())
        assert not session.in_transaction
        session.commit_prepared("contract-commit", trace=new_root_context())
        session.begin()
        session.execute("INSERT INTO kv VALUES (6, 60)")
        session.prepare_txn("contract-abort")
        session.abort_prepared("contract-abort")
    finally:
        session.close()
    assert deployment.value(5) == [(50,)]
    assert deployment.value(6) == []


def test_unknown_column_raises_the_catalog_error(deployment) -> None:
    session = deployment.session()
    try:
        with pytest.raises(SqlCatalogError):
            session.execute("SELECT nope FROM kv")
        with pytest.raises(SqlCatalogError):
            session.execute("SELECT nope FROM kv WHERE id = 1")
    finally:
        session.close()
