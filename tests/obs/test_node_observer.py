"""One observer per node: its scrape follows runtime switches, and its
sampling counter is shared by every session of the node."""

from __future__ import annotations

import sys
import threading

from repro.netclient.client import RemoteDatabase
from repro.obs.observer import NodeObserver
from repro.obs.trace import TracingOptions
from repro.server import SqlServer
from repro.sharding import ShardMap, ShardedDatabase
from repro.sqlengine.engine import Database


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} not in the scrape")


class TestScrapeFollowsSetTracing:
    def test_engine_scrape_reads_the_resized_buffer(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        database.obs.set_tracing(TracingOptions(enabled=True, buffer_size=64))
        for index in range(5):
            database.execute(f"INSERT INTO t VALUES ({index})")
        assert database.stats()["tracing"]["capacity"] == 64
        assert database.stats()["tracing"]["recorded"] == 5
        text = database.metrics.render_prometheus()
        assert _metric(text, "repro_trace_buffer_capacity") == 64
        assert _metric(text, "repro_trace_buffer_recorded") == 5

    def test_coordinator_stats_carry_the_enabled_flag(self) -> None:
        shard_map = ShardMap(version=1, num_shards=2, tables={"t": "id"})
        shards = [Database() for _ in range(2)]
        coordinator = ShardedDatabase(shard_map, shards)
        try:
            assert coordinator.stats()["tracing"]["enabled"] is False
            coordinator.obs.set_tracing(TracingOptions(enabled=True, buffer_size=32))
            coordinator.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            tracing = coordinator.stats()["tracing"]
            assert tracing["enabled"] is True
            assert tracing["capacity"] == 32
            assert tracing["recorded"] == 1
            text = coordinator.metrics.render_prometheus()
            assert _metric(text, "repro_trace_buffer_capacity") == 32
        finally:
            coordinator.close()


class TestClientEdgeSamplingIsPerNode:
    def test_one_statement_sessions_sample_one_in_two(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with SqlServer(database=database) as server:
            remote = RemoteDatabase(
                server.address,
                tracing=TracingOptions(enabled=True, sample_rate=0.5),
            )
            for index in range(20):
                with remote.session() as session:
                    session.execute(f"INSERT INTO t VALUES ({index})")
            client_spans = [
                span
                for span in remote.obs.trace_buffer.spans()
                if span["name"] == "client"
            ]
            assert len(client_spans) == 10
            # Each sampled client span parented the server's statement span.
            for span in client_spans:
                (child,) = database.traces(span["trace_id"])
                assert child["parent_span_id"] == span["span_id"]
                assert span["tags"]["rows"] == 1
                assert "request" in span["phases"]
        database.close()

    def test_threads_share_the_counter_without_losing_counts(self) -> None:
        """Eight threads, 400 requests each, at 1-in-2: exactly half are
        sampled — a lost counter update would shift the spacing."""
        observer = NodeObserver(
            "edge", tracing=TracingOptions(enabled=True, sample_rate=0.5)
        )

        class Result:
            rowcount = 0

        def work() -> None:
            for _ in range(400):
                observer.edge("SELECT 1", lambda context: Result())

        threads = [threading.Thread(target=work) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert observer.trace_buffer.stats()["recorded"] == 8 * 400 // 2
