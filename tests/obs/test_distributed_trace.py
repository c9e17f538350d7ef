"""Trace propagation across the full distributed stack.

The satellite property: a traced statement through a 2-shard cluster with
one replica per shard yields a **single rooted tree** whose spans cover
the client edge, the coordinator, and the shard nodes that did the work —
assembled purely by pulling each node's buffer and joining on ids.
"""

from __future__ import annotations

import pytest

from repro.netclient.client import RemoteDatabase
from repro.obs.trace import TracingOptions, span_tree
from repro.sqlengine.errors import SqlError
from repro.tpcw.sharded import build_sharded_cluster


@pytest.fixture(scope="module")
def cluster():
    with_cluster = build_sharded_cluster(num_shards=2, replicas_per_shard=1)
    try:
        yield with_cluster
    finally:
        with_cluster.stop()


@pytest.fixture()
def remote(cluster) -> RemoteDatabase:
    host, port = cluster.server.address
    return RemoteDatabase(host, port, tracing=TracingOptions(enabled=True))


def _single_trace(remote: RemoteDatabase) -> list[dict]:
    """The spans of the statement this remote just traced: its id comes
    from the client edge's own buffer (fresh per test), the spans from
    the pull-merge across every node."""
    client_spans = remote.obs.trace_buffer.spans()
    assert client_spans, "the client recorded no span"
    latest = client_spans[-1]["trace_id"]
    return remote.traces(latest)


class TestRootedTree:
    def test_fanout_read_spans_client_coordinator_and_both_shards(
        self, remote
    ) -> None:
        with remote.session() as session:
            session.execute("SELECT COUNT(*) FROM customer")
        spans = _single_trace(remote)
        tree = span_tree(spans)
        roots = tree[None]
        assert len(roots) == 1, [s["name"] for s in spans]
        assert roots[0]["name"] == "client"
        nodes = {span["node"] for span in spans}
        assert "client" in nodes
        assert "tpcw-coordinator" in nodes
        # The fan-out touched one node per shard (replicas answer
        # autocommit reads through the replicated pools).
        shard_nodes = nodes - {"client", "tpcw-coordinator"}
        assert len(shard_nodes) == 2, nodes
        # Parent/child chain: client -> coordinator -> shard statements.
        (client,) = [s for s in spans if s["name"] == "client"]
        (coordinator,) = [s for s in spans if s["name"] == "coordinator"]
        assert coordinator["parent_span_id"] == client["span_id"]
        for leaf in tree.get(coordinator["span_id"], []):
            assert leaf["trace_id"] == client["trace_id"]
        assert len(tree.get(coordinator["span_id"], [])) == 2

    def test_keyed_write_routes_one_shard_primary(self, remote) -> None:
        with remote.session() as session:
            session.execute("UPDATE customer SET c_fname = 'T' WHERE c_id = 7")
        spans = _single_trace(remote)
        tree = span_tree(spans)
        assert len(tree[None]) == 1
        (coordinator,) = [s for s in spans if s["name"] == "coordinator"]
        assert coordinator["tags"].get("route") == "single"
        leaves = [s for s in spans if s["name"] == "statement"]
        assert len(leaves) == 1
        assert leaves[0]["node"].startswith("shard")

    def test_coordinator_span_carries_route_and_sql(self, remote) -> None:
        with remote.session() as session:
            session.execute("SELECT COUNT(*) FROM customer")
        spans = _single_trace(remote)
        (coordinator,) = [s for s in spans if s["name"] == "coordinator"]
        assert coordinator["tags"]["route"] == "fanout"
        assert "customer" in coordinator["tags"]["sql"]


class TestErrorPropagation:
    def test_error_frames_keep_the_trace_id(self, remote) -> None:
        with remote.session() as session:
            with pytest.raises(SqlError):
                session.execute("SELECT no_such_column FROM customer")
        spans = _single_trace(remote)
        tree = span_tree(spans)
        assert len(tree[None]) == 1
        (client,) = [s for s in spans if s["name"] == "client"]
        (coordinator,) = [s for s in spans if s["name"] == "coordinator"]
        assert client["trace_id"] == coordinator["trace_id"]
        assert client["status"] == "error"
        assert coordinator["status"] == "error"
        assert "no_such_column" in coordinator["error"]


class TestWireSurfaces:
    def test_metrics_verb_merges_the_whole_registry(self, remote) -> None:
        with remote.session() as session:
            session.execute("SELECT COUNT(*) FROM item")
        text = remote.metrics()
        assert "repro_coordinator_statements_executed" in text
        assert "repro_server_statements" in text
        assert "repro_coordinator_statement_latency_seconds_count" in text

    def test_traces_queryable_by_id_over_the_wire(self, remote) -> None:
        with remote.session() as session:
            session.execute("SELECT COUNT(*) FROM item")
        spans = remote.traces()
        trace_id = spans[-1]["trace_id"]
        filtered = remote.traces(trace_id)
        assert filtered
        assert {span["trace_id"] for span in filtered} == {trace_id}
