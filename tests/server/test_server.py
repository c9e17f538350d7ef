"""Server behaviour: handshake, sessions, cursors, admission control,
idle reaping, stats, shutdown and crash recovery over the network."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.netclient import (
    ConnectionPool,
    RemoteDatabase,
    WireClient,
    connect,
)
from repro.server import SqlServer, protocol
from repro.sqlengine.durability import DurabilityOptions
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import SqlCatalogError, SqlExecutionError


def make_database(rows: int = 40) -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR(60))"
    )
    database.execute_many(
        "INSERT INTO item (i_id, i_title) VALUES (?, ?)",
        [(index, f"title-{index}") for index in range(1, rows + 1)],
    )
    return database


@pytest.fixture()
def server():
    with SqlServer(database=make_database()) as running:
        yield running


class TestHandshake:
    def test_hello_hello_ok(self, server) -> None:
        client = WireClient(*server.address)
        assert client.server_banner == "repro-sql-server"
        client.close()

    def test_protocol_version_mismatch_is_rejected(self, server) -> None:
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(protocol.frame(protocol.encode_hello(version=999)))
            message = protocol.decode_server_message(
                protocol.read_frame(sock.makefile("rb"))
            )
            assert message.op == protocol.ERROR
            assert message.error_class == "ProtocolError"
            assert "version" in message.message
        finally:
            sock.close()

    def test_first_frame_must_be_hello(self, server) -> None:
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(protocol.frame(protocol.encode_simple(protocol.PING)))
            message = protocol.decode_server_message(
                protocol.read_frame(sock.makefile("rb"))
            )
            assert message.op == protocol.ERROR
            assert "HELLO" in message.message
        finally:
            sock.close()


class TestStatementsAndCursors:
    def test_execute_inline_result(self, server) -> None:
        client = WireClient(*server.address)
        message = client.execute("SELECT i_id, i_title FROM item WHERE i_id = ?", (3,))
        assert message.columns == ("i_id", "i_title")
        assert message.rows == ((3, "title-3"),)
        assert message.exhausted and message.cursor_id == 0
        client.close()

    def test_prepared_statement_lifecycle(self, server) -> None:
        client = WireClient(*server.address)
        stmt_id = client.prepare("SELECT i_title FROM item WHERE i_id = ?")
        for index in (1, 2, 3):
            message = client.execute_prepared(stmt_id, (index,))
            assert message.rows == ((f"title-{index}",),)
        client.close_statement(stmt_id)
        with pytest.raises(SqlExecutionError, match="unknown prepared statement"):
            client.execute_prepared(stmt_id, (1,))
        client.close()

    def test_fetch_streams_in_batches(self, server) -> None:
        client = WireClient(*server.address)
        message = client.execute("SELECT i_id FROM item", (), max_rows=10)
        assert len(message.rows) == 10 and not message.exhausted
        cursor_id = message.cursor_id
        total = list(message.rows)
        while True:
            batch = client.fetch(cursor_id, 10)
            total.extend(batch.rows)
            if batch.exhausted:
                break
        assert [row[0] for row in total] == list(range(1, 41))
        # The cursor is gone once drained.
        with pytest.raises(SqlExecutionError, match="unknown cursor"):
            client.fetch(cursor_id, 10)
        client.close()

    def test_close_cursor_discards(self, server) -> None:
        client = WireClient(*server.address)
        message = client.execute("SELECT i_id FROM item", (), max_rows=5)
        client.close_cursor(message.cursor_id)
        with pytest.raises(SqlExecutionError, match="unknown cursor"):
            client.fetch(message.cursor_id, 5)
        client.close()

    def test_error_keeps_connection_usable(self, server) -> None:
        client = WireClient(*server.address)
        with pytest.raises(SqlCatalogError):
            client.execute("SELECT nope FROM item")
        assert client.execute("SELECT COUNT(*) FROM item").rows[0][0] == 40
        client.close()

    def test_undecodable_frame_gets_structured_error(self, server) -> None:
        """A CRC-valid frame with an unknown opcode (or truncated fields)
        is answered with a ProtocolError frame, not a silent hangup."""
        sock = socket.create_connection(server.address, timeout=5)
        try:
            rfile = sock.makefile("rb")
            sock.sendall(protocol.frame(protocol.encode_hello()))
            hello = protocol.decode_server_message(protocol.read_frame(rfile))
            assert hello.op == protocol.HELLO_OK
            sock.sendall(protocol.frame(b"\x7e"))  # unknown opcode, valid CRC
            message = protocol.decode_server_message(protocol.read_frame(rfile))
            assert message.op == protocol.ERROR
            assert message.error_class == "ProtocolError"
        finally:
            sock.close()

    def test_garbage_on_connect_gets_structured_error(self, server) -> None:
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 64)
            message = protocol.decode_server_message(
                protocol.read_frame(sock.makefile("rb"))
            )
            assert message.op == protocol.ERROR
            assert message.error_class == "ProtocolError"
        finally:
            sock.close()

    def test_oversized_batches_are_split_to_fit_the_frame_limit(
        self, monkeypatch
    ) -> None:
        """Wide rows that would overflow MAX_MESSAGE in one batch are
        halved into smaller FETCH batches instead of producing a frame the
        client must reject."""
        database = Database()
        database.execute("CREATE TABLE wide (id INTEGER PRIMARY KEY, blob VARCHAR(2000))")
        database.execute_many(
            "INSERT INTO wide (id, blob) VALUES (?, ?)",
            [(index, "x" * 600) for index in range(20)],
        )
        monkeypatch.setattr(protocol, "MAX_MESSAGE", 4096)
        with SqlServer(database=database) as server:
            remote = RemoteDatabase(server.address, batch_rows=0)  # "everything"
            session = remote.session()
            rows = session.execute("SELECT id, blob FROM wide").rows
            assert sorted(row[0] for row in rows) == list(range(20))
            assert all(len(row[1]) == 600 for row in rows)
            assert session.client.round_trips > 2  # split into several frames
            session.close()

    def test_cursor_eviction_is_lru_not_fifo(self, server) -> None:
        """An actively FETCHed cursor survives MAX_CURSORS newer abandoned
        cursors; only stale ones are evicted."""
        from repro.server.server import _ClientHandler

        client = WireClient(*server.address)
        active = client.execute("SELECT i_id FROM item", (), max_rows=2)
        collected = list(active.rows)
        cursor_id = active.cursor_id
        for round_number in range(4):
            for _ in range(_ClientHandler.MAX_CURSORS // 2):
                client.execute("SELECT i_id FROM item", (), max_rows=5)
            batch = client.fetch(cursor_id, 2)  # refreshes LRU position
            collected.extend(batch.rows)
            assert not batch.exhausted
        while True:
            batch = client.fetch(cursor_id, 10)
            collected.extend(batch.rows)
            if batch.exhausted:
                break
        assert sorted(row[0] for row in collected) == list(range(1, 41))
        client.close()

    def test_abandoned_cursors_are_bounded_server_side(self, server) -> None:
        """A client that opens cursors and never drains or closes them
        cannot grow the handler's cursor table past MAX_CURSORS."""
        from repro.server.server import _ClientHandler

        client = WireClient(*server.address)
        for _ in range(_ClientHandler.MAX_CURSORS + 10):
            message = client.execute("SELECT i_id FROM item", (), max_rows=5)
            assert message.cursor_id  # left open deliberately
        handler = next(iter(server._handlers))
        assert len(handler._cursors) <= _ClientHandler.MAX_CURSORS
        client.close()

    def test_explain_over_the_wire(self, server) -> None:
        client = WireClient(*server.address)
        plan = client.explain("SELECT i_title FROM item WHERE i_id = 7")
        assert plan == server.database.explain(
            "SELECT i_title FROM item WHERE i_id = 7"
        )
        client.close()

    def test_explain_dml_over_the_wire(self, server) -> None:
        client = WireClient(*server.address)
        sql = "UPDATE item SET i_title = ? WHERE i_id = ?"
        plan = client.explain(sql)
        assert plan == server.database.explain(sql)
        assert plan.splitlines()[1:] == [
            "Update(item)  (rows=1.0, cost=1.0)",
            "  IndexLookup(item AS item USING pk_item)  (rows=1.0, cost=1.0)",
        ]
        assert client.explain("EXPLAIN DELETE FROM item WHERE i_id = 7") == (
            server.database.explain("DELETE FROM item WHERE i_id = 7")
        )
        client.close()


class TestTransactionsOverTheWire:
    def test_explicit_transaction_commit(self, server) -> None:
        client = WireClient(*server.address)
        client.begin()
        assert client.in_transaction
        client.execute("UPDATE item SET i_title = ? WHERE i_id = ?", ("x", 1))
        client.commit()
        assert not client.in_transaction
        assert server.database.execute(
            "SELECT i_title FROM item WHERE i_id = 1"
        ).rows == [("x",)]
        client.close()

    def test_rollback_undoes(self, server) -> None:
        client = WireClient(*server.address)
        client.begin()
        client.execute("DELETE FROM item WHERE i_id = 2")
        client.rollback()
        assert server.database.row_count("item") == 40
        client.close()

    def test_disconnect_rolls_back_open_transaction(self, server) -> None:
        client = WireClient(*server.address)
        client.set_autocommit(False)
        client.execute("DELETE FROM item WHERE i_id = 2")
        assert client.in_transaction
        client._teardown()  # vanish without GOODBYE/ROLLBACK
        deadline = time.monotonic() + 5
        while server.database.row_count("item") != 40:
            assert time.monotonic() < deadline, "server never rolled back"
            time.sleep(0.01)

    def test_checkpoint_rejected_inside_transaction(self, server) -> None:
        client = WireClient(*server.address)
        client.begin()
        with pytest.raises(SqlExecutionError, match="CHECKPOINT"):
            client.checkpoint()
        client.rollback()
        client.close()


class TestAdmissionControlAndIdle:
    def test_connections_over_the_limit_are_rejected(self) -> None:
        with SqlServer(database=make_database(), max_connections=1) as server:
            first = WireClient(*server.address)
            with pytest.raises(SqlExecutionError, match="capacity"):
                WireClient(*server.address)
            assert server.stats.snapshot()["connections_rejected"] == 1
            first.close()
            # The slot frees up once the first client leaves.
            deadline = time.monotonic() + 5
            while True:
                try:
                    second = WireClient(*server.address)
                    break
                except SqlExecutionError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            second.close()

    def test_idle_connections_are_reaped(self) -> None:
        with SqlServer(database=make_database(), idle_timeout=0.2) as server:
            client = WireClient(*server.address)
            assert client.ping()
            time.sleep(0.6)
            with pytest.raises(SqlExecutionError):
                client.execute("SELECT COUNT(*) FROM item")


class TestStats:
    def test_server_stats_counters(self, server) -> None:
        client = WireClient(*server.address)
        client.execute("SELECT i_id FROM item")
        stats = client.server_stats()
        server_counters = stats["server"]
        assert server_counters["connections_accepted"] >= 1
        assert server_counters["connections_active"] >= 1
        assert server_counters["statements"] >= 1
        assert server_counters["rows_shipped"] >= 40
        assert server_counters["bytes_in"] > 0
        assert server_counters["bytes_out"] > 0
        assert stats["engine"]["tables"]["item"] == 40
        assert stats["engine"]["statement_cache"]["size"] > 0
        client.close()


class TestShutdown:
    def test_graceful_shutdown_refuses_new_connections(self) -> None:
        server = SqlServer(database=make_database()).start()
        client = WireClient(*server.address)
        server.shutdown()
        with pytest.raises((OSError, SqlExecutionError)):
            WireClient(*server.address)
        with pytest.raises(SqlExecutionError):
            client.execute("SELECT COUNT(*) FROM item")

    def test_shutdown_closes_an_owned_durable_database(self, tmp_path) -> None:
        server = SqlServer(
            data_dir=str(tmp_path),
            durability=DurabilityOptions(fsync="off"),
        ).start()
        client = connect(*server.address)
        statement = client.create_statement()
        statement.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        statement.execute("INSERT INTO t (id) VALUES (1)")
        server.shutdown()
        with Database(data_dir=str(tmp_path)) as reopened:
            assert reopened.row_count("t") == 1

    def test_shutdown_keeps_a_caller_owned_database_open(self) -> None:
        database = make_database()
        server = SqlServer(database=database).start()
        server.shutdown()
        assert database.row_count("item") == 40  # still usable in-process


class TestCrashRecovery:
    def test_kill_mid_transaction_recovers_committed_prefix(self, tmp_path) -> None:
        """The WAL contract over the network: a server killed with a
        transaction in flight recovers every committed transaction and
        nothing of the uncommitted one."""
        server = SqlServer(
            data_dir=str(tmp_path),
            durability=DurabilityOptions(fsync="off"),
        ).start()
        setup = connect(*server.address)
        setup.create_statement().execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        committer = connect(*server.address, auto_commit=False)
        insert = committer.prepare_statement("INSERT INTO t (id, v) VALUES (?, ?)")
        for index in range(10):
            insert.set_int(1, index)
            insert.set_int(2, index * 10)
            insert.execute_update()
            committer.commit()
        # An eleventh, never-committed transaction in flight at the crash.
        insert.set_int(1, 100)
        insert.set_int(2, 1000)
        insert.execute_update()
        assert committer.in_transaction
        server.kill()  # simulated crash: no drain, no database close
        with Database(data_dir=str(tmp_path)) as recovered:
            assert recovered.row_count("t") == 10
            rows = recovered.execute("SELECT id FROM t").rows
            assert (100,) not in rows
            assert sorted(row[0] for row in rows) == list(range(10))

    def test_concurrent_remote_commits_survive_kill(self, tmp_path) -> None:
        server = SqlServer(
            data_dir=str(tmp_path),
            durability=DurabilityOptions(fsync="off"),
        ).start()
        connect(*server.address).create_statement().execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, thread INTEGER)"
        )
        pool = ConnectionPool(server.address, max_size=4)
        errors: list[BaseException] = []

        def worker(thread_index: int) -> None:
            try:
                for i in range(20):
                    with pool.connection(auto_commit=False) as connection:
                        statement = connection.prepare_statement(
                            "INSERT INTO t (id, thread) VALUES (?, ?)"
                        )
                        statement.set_int(1, thread_index * 1000 + i)
                        statement.set_int(2, thread_index)
                        statement.execute_update()
                        connection.commit()
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        server.kill()
        with Database(data_dir=str(tmp_path)) as recovered:
            assert recovered.row_count("t") == 80
        pool.close()


class TestRemoteDatabaseFacade:
    def test_session_factory_and_stats(self, server) -> None:
        remote = RemoteDatabase(server.address)
        session = remote.session()
        assert session.execute("SELECT COUNT(*) FROM item").rows == [(40,)]
        stats = remote.server_stats()
        assert stats["engine"]["tables"]["item"] == 40
        session.close()
