"""A traced wire COMMIT, on one engine node and through a coordinator.

The client sends ``COMMIT`` with a sampled trace context; the node that
commits records a ``commit`` span under it.  On a durable engine the span
carries the WAL wait as ``wal_fsync``; on a sharding coordinator it
carries the two-phase-commit phases and the gid, and every participating
shard records its ``2pc_prepare`` and ``2pc_commit`` spans as children.
"""

from __future__ import annotations

import pytest

from repro.netclient.client import RemoteDatabase
from repro.obs.trace import new_root_context
from repro.server import SqlServer
from repro.sqlengine.engine import Database
from repro.tpcw.sharded import build_sharded_cluster


def test_traced_commit_on_durable_engine_records_wal_fsync(tmp_path) -> None:
    database = Database(data_dir=str(tmp_path))
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    try:
        with SqlServer(database=database) as server:
            session = RemoteDatabase(server.address).session()
            session.begin()
            session.execute("INSERT INTO t VALUES (1, 10)")
            context = new_root_context()
            session.commit(trace=context)
            session.close()
        (span,) = database.traces(context.trace_id)
        assert span["name"] == "commit"
        assert span["status"] == "ok"
        assert "wal_fsync" in span["phases"], span["phases"]
        assert database.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]
    finally:
        database.close()


@pytest.fixture(scope="module")
def cluster():
    built = build_sharded_cluster(num_shards=2, replicas_per_shard=1)
    try:
        yield built
    finally:
        built.stop()


def _customer_on_each_shard(cluster) -> tuple[int, int]:
    shard_map = cluster.coordinator.shard_map
    first: dict[int, int] = {}
    for c_id in range(1, 100):
        first.setdefault(shard_map.shard_of("customer", c_id), c_id)
    return first[0], first[1]


def test_traced_cross_shard_commit_records_2pc_tree(cluster) -> None:
    source, target = _customer_on_each_shard(cluster)
    remote = RemoteDatabase(cluster.address)
    session = remote.session()
    session.begin()
    session.execute(
        "UPDATE customer SET c_balance = c_balance - 5.0 WHERE c_id = ?", (source,)
    )
    session.execute(
        "UPDATE customer SET c_balance = c_balance + 5.0 WHERE c_id = ?", (target,)
    )
    context = new_root_context()
    session.commit(trace=context)
    session.close()

    spans = remote.traces(context.trace_id)
    (commit,) = [span for span in spans if span["name"] == "commit"]
    assert commit["node"] == "tpcw-coordinator"
    assert {"2pc_prepare", "2pc_decision", "2pc_commit"} <= set(commit["phases"])
    gid = commit["tags"]["gid"]
    assert gid
    for name in ("2pc_prepare", "2pc_commit"):
        shard_spans = [span for span in spans if span["name"] == name]
        assert {span["node"] for span in shard_spans} == {"shard0", "shard1"}
        for span in shard_spans:
            assert span["parent_span_id"] == commit["span_id"]
            assert span["tags"]["gid"] == gid
