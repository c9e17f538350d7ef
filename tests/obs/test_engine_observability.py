"""Engine-level observability: spans, slow log, metrics, runtime toggles."""

from __future__ import annotations

import threading
import time

from repro.obs.trace import TracingOptions, new_root_context, span_tree
from repro.sqlengine.engine import Database


def _traced_db(**kwargs) -> Database:
    database = Database(tracing=TracingOptions(enabled=True), **kwargs)
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    database.execute("INSERT INTO t VALUES (1, 10)")
    return database


class TestStatementSpans:
    def test_tracing_off_records_nothing(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1)")
        assert database.traces() == []

    def test_statement_span_has_phase_timings(self) -> None:
        database = _traced_db()
        database.execute("SELECT v FROM t WHERE id = 1")
        span = database.traces()[-1]
        assert span["name"] == "statement"
        assert span["node"] == "engine"
        assert span["tags"]["sql"] == "SELECT v FROM t WHERE id = 1"
        for phase in ("parse", "plan", "execute"):
            assert phase in span["phases"], span["phases"]
        assert span["duration_ms"] >= span["phases"]["execute"]

    def test_wal_fsync_phase_on_durable_commit(self, tmp_path) -> None:
        database = _traced_db(data_dir=str(tmp_path))
        database.execute("INSERT INTO t VALUES (2, 20)")
        spans = [
            s
            for s in database.traces()
            if s["tags"].get("sql", "").startswith("INSERT INTO t VALUES (2")
        ]
        assert spans and "wal_fsync" in spans[0]["phases"]

    def test_inbound_context_is_honoured_with_tracing_off(self) -> None:
        """A sampled context from a remote caller is traced even on a node
        whose own tracing is disabled — tracing from the edge."""
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        context = new_root_context()
        session = database.session()
        session.execute("INSERT INTO t VALUES (1)", trace=context)
        session.close()
        (span,) = database.traces(context.trace_id)
        assert span["trace_id"] == context.trace_id

    def test_error_keeps_the_trace_id(self) -> None:
        database = _traced_db()
        context = new_root_context()
        session = database.session()
        try:
            session.execute("SELECT nope FROM t", trace=context)
        except Exception:
            pass
        finally:
            session.close()
        (span,) = database.traces(context.trace_id)
        assert span["status"] == "error"
        assert "nope" in span["error"]

    def test_conflict_retry_stays_in_one_trace(self) -> None:
        """An autocommit statement that loses a write-write conflict and
        retries internally produces ONE span (same trace id) carrying a
        ``conflict_retry`` event — not a fresh trace per attempt."""
        database = _traced_db()
        blocker = database.session()
        blocker.begin()
        blocker.execute("UPDATE t SET v = 100 WHERE id = 1")

        def release() -> None:
            time.sleep(0.05)
            blocker.commit()
            blocker.close()

        thread = threading.Thread(target=release)
        thread.start()
        before = {span["span_id"] for span in database.traces()}
        database.execute("UPDATE t SET v = 200 WHERE id = 1")
        thread.join()
        new = [
            span
            for span in database.traces()
            if span["span_id"] not in before
            and span["tags"].get("sql") == "UPDATE t SET v = 200 WHERE id = 1"
        ]
        assert len(new) == 1
        assert new[0]["events"].get("conflict_retry", 0) >= 1
        assert new[0]["status"] == "ok"


class TestSlowQueryLog:
    def test_threshold_zero_logs_everything_with_trace_ids(self) -> None:
        database = _traced_db(slow_query_ms=0.0)
        database.execute("SELECT v FROM t WHERE id = 1")
        record = database.obs.slow_queries()[-1]
        assert record["sql"] == "SELECT v FROM t WHERE id = 1"
        assert record["trace_id"] is not None
        assert record["rows"] == 1
        span = database.traces(record["trace_id"])[-1]
        assert span["trace_id"] == record["trace_id"]

    def test_runtime_threshold_toggle(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        assert database.obs.slow_queries() == []
        database.obs.set_slow_query_threshold(0.0)
        database.execute("INSERT INTO t VALUES (1)")
        assert len(database.obs.slow_queries()) == 1
        database.obs.set_slow_query_threshold(None)
        database.execute("INSERT INTO t VALUES (2)")
        assert len(database.obs.slow_queries()) == 1


class TestMetricsSurface:
    def test_render_includes_engine_and_mvcc_counters(self) -> None:
        database = _traced_db()
        database.execute("SELECT v FROM t WHERE id = 1")
        text = database.metrics.render_prometheus()
        assert "repro_engine_statements_executed" in text
        assert "repro_mvcc_" in text
        assert "repro_statement_latency_seconds_count" in text

    def test_set_tracing_toggles_at_runtime(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1)")
        assert database.traces() == []
        database.obs.set_tracing(TracingOptions(enabled=True))
        database.execute("INSERT INTO t VALUES (2)")
        assert len(database.traces()) == 1
        database.obs.set_tracing(TracingOptions(enabled=False))
        database.execute("INSERT INTO t VALUES (3)")
        assert len(database.traces()) == 1

    def test_sampling_traces_one_in_n(self) -> None:
        database = Database(
            tracing=TracingOptions(enabled=True, sample_rate=0.5)
        )
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        before = len(database.traces())
        for index in range(10):
            database.execute(f"INSERT INTO t VALUES ({index})")
        assert len(database.traces()) - before == 5


class TestTraceAssembly:
    def test_session_spans_form_one_rooted_tree(self) -> None:
        database = _traced_db()
        context = new_root_context()
        session = database.session()
        session.execute("SELECT v FROM t WHERE id = 1", trace=context)
        session.close()
        tree = span_tree(database.traces(context.trace_id))
        assert len(tree[None]) == 1
