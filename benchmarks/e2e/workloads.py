"""The seven workloads: what each sets up, issues and checks.

A workload object lives for one benchmark run.  ``build_oracle`` (untimed)
builds the independent in-process database the results are checked against;
``setup`` (timed as ``setup_s``) brings the system under test to the point
where the first operation can be issued; ``client`` returns the callable one
load-generator client uses to run an operation — it checks a connection or
``EntityManager`` out **per interaction** and closes it afterwards, the
middleware request pattern; ``finish`` verifies the end-of-run invariants.

Every layer is reached through its public functions only.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from repro import dbapi, netclient
from repro.netclient import ConnectionPool, RemoteDatabase
from repro.orm.entity_manager import EntityManager
from repro.sharding import ShardMap
from repro.sqlengine import Database
from repro.sqlengine.durability import DurabilityOptions
from repro.sqlengine.errors import TransactionConflictError
from repro.sqlengine.planner import PlannerOptions
from repro.tpcw import PopulationScale, build_database, queries_queryll, queries_sql
from repro.tpcw.schema import TPCW_SUBJECTS
from repro.tpcw.sharded import SHARDED_TABLES, table_ddl

from loadgen import AnalyticsOps, Op, TpcwOps
from nodes import Fleet

#: Flush policy of every write-ahead log in the suite.
FSYNC = "group"
#: Single-node TPC-W population: 14 400 customers, 15 840 addresses, 1 250
#: authors (about 3.5 MB of snapshot).  Half the issue's 10 000/10, so that
#: three set-ups and the measured windows fit the per-run time cap.
TPCW_SCALE = PopulationScale(num_items=5_000, num_ebs=5)
#: The cluster is loaded over the wire through the coordinator (about 5 000
#: rows/s), so it gets a smaller population.
CLUSTER_SCALE = PopulationScale(num_items=2_000, num_ebs=1)
SMOKE_SCALE = PopulationScale.tiny()
FACT_ROWS = 50_000
SMOKE_FACT_ROWS = 2_000
#: Times a transfer that lost a write-write conflict is retried.
CONFLICT_RETRY_LIMIT = 50
_LOAD_BATCH_ROWS = 200

#: Paced-phase rate (about a quarter of the capacity measured on the 2-core
#: reference box, 2 significant digits) and latency limit (5 x the paced p50
#: measured at that rate).  Frozen: change them only in a PR that redefines
#: the benchmark.
FROZEN = {
    "queryll_inproc": {"rate_ops_s": 190.0, "slo_ms": 1.9},
    "sql_inproc": {"rate_ops_s": 1300.0, "slo_ms": 0.52},
    "sql_remote_read": {"rate_ops_s": 570.0, "slo_ms": 4.3},
    "queryll_remote": {"rate_ops_s": 59.0, "slo_ms": 6.5},
    "sql_remote_order": {"rate_ops_s": 59.0, "slo_ms": 36.0},
    "analytics_scan": {"rate_ops_s": 23.0, "slo_ms": 67.0},
    "cluster_mix": {"rate_ops_s": 26.0, "slo_ms": 25.0},
}

TAKE_SQL = "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ? AND i_stock >= ?"
GIVE_SQL = "UPDATE item SET i_stock = i_stock + ? WHERE i_id = ?"
ADHOC_SQL = "SELECT c_fname, c_lname FROM customer WHERE c_id = {}"

_SQL_READS = {
    "getName": queries_sql.get_name,
    "getCustomer": queries_sql.get_customer,
    "doSubjectSearch": queries_sql.do_subject_search,
    "doGetRelated": queries_sql.do_get_related,
}
_QUERYLL_READS = {
    "getName": queries_queryll.get_name,
    "getCustomer": queries_queryll.get_customer,
    "doSubjectSearch": queries_queryll.do_subject_search,
    "doGetRelated": queries_queryll.do_get_related,
}


def canonical(op: Op, value: object) -> object:
    """A result in the form the oracle comparison uses (doGetRelated and the
    row-returning scan come back in plan order, so they compare sorted)."""
    if op[0] in ("doGetRelated", "scan_filtered"):
        return sorted(value)  # type: ignore[type-var]
    return value


def check_samples(workload: "Workload", samples: list) -> list[str]:
    """Compare kept reads with the oracle; a mismatch is a failed operation."""
    problems = []
    for op, value in samples:
        expected = canonical(op, workload.expected(op))
        if canonical(op, value) != expected:
            problems.append(f"oracle mismatch on {op!r}: got {value!r}, expected {expected!r}")
    return problems


def engine_counters(stats: dict) -> dict[str, float]:
    """The counters of one ``Database.stats()`` document the suite uses."""
    cache = stats["statement_cache"]
    mvcc = stats["mvcc"]
    durability = stats.get("durability") or {}
    out = {
        "engine.statements": stats["statements_executed"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "mvcc.commits": mvcc["commits"],
        "mvcc.conflicts": mvcc["conflicts"],
        "mvcc.retries": mvcc["retries"],
        "mvcc.versions_gced": mvcc["versions_gced"],
        "wal.log_bytes": durability.get("log_bytes", 0),
        "wal.syncs": durability.get("syncs_issued", 0),
    }
    for name, value in stats["columnar"].items():
        out[f"columnar.{name}"] = value
    return out


def _sum_counters(documents: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for document in documents:
        for name, value in document.items():
            total[name] = total.get(name, 0) + value
    return total


class Workload:
    """Base class: the hooks the runner calls, with in-process defaults."""

    name = ""
    #: Load-generator clients (threads): 1 in-process, 2 against nodes.
    clients = 1
    #: Operations of the traced pass.
    trace_ops = 400
    #: Whether sessions cross the wire.
    remote = False
    #: Client-side layer above the session: ``orm`` or ``dbapi``.
    upper_layer = "dbapi"

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        self.fleet: Optional[Fleet] = None
        self.rewritten = (0, 0)

    # -- lifecycle ---------------------------------------------------------------

    def build_oracle(self) -> None:
        raise NotImplementedError

    def setup(self, fleet: Fleet) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release client-side resources (the fleet stops the nodes)."""

    def describe(self) -> dict:
        """Scale and policy facts recorded in the result file."""
        return {}

    # -- load ----------------------------------------------------------------------

    def stream(self, seed: int, lane: int):
        raise NotImplementedError

    def database(self):
        """The object the upper layers take their sessions from."""
        raise NotImplementedError

    def client(self, database) -> Callable[[Op], object]:
        raise NotImplementedError

    def expected(self, op: Op) -> object:
        """The oracle's answer to a read operation."""
        raise NotImplementedError

    def replay_engine(self) -> Database:
        """An in-process engine holding this workload's schema and data, for
        the lex/parse/plan/execute stage replays."""
        raise NotImplementedError

    # -- counters -------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        raise NotImplementedError

    def pids(self) -> list[int]:
        return self.fleet.pids() if self.fleet is not None else []

    def transactions(self) -> int:
        """Write transactions acknowledged so far."""
        return 0

    def conflicts(self) -> tuple[int, int]:
        """``(conflicts, retries)`` the clients saw so far."""
        return (0, 0)

    def finish(self) -> tuple[list[str], dict[str, float]]:
        """End-of-run invariants: problems found, extra layer metrics."""
        return [], {}


# -- TPC-W ---------------------------------------------------------------------------


class _Ledger:
    """Client-side record of acknowledged stock transfers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.delta: dict[int, int] = {}
        self.commits = 0
        self.rollbacks = 0
        self.conflicts = 0
        self.retries = 0

    def committed(self, source: int, destination: int, quantity: int) -> None:
        with self._lock:
            self.delta[source] = self.delta.get(source, 0) - quantity
            self.delta[destination] = self.delta.get(destination, 0) + quantity
            self.commits += 1

    def count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)


class TpcwWorkload(Workload):
    """TPC-W against one engine, in-process or behind one durable node."""

    def __init__(
        self,
        name: str,
        smoke: bool,
        *,
        variant: str,
        remote: bool = False,
        clients: int = 1,
        zipf: bool = False,
        adhoc_share: float = 0.0,
        transfer_share: float = 0.0,
    ) -> None:
        super().__init__(smoke)
        self.name = name
        self.variant = variant
        self.remote = remote
        self.upper_layer = "orm" if variant == "queryll" else "dbapi"
        self.clients = clients
        self.zipf = zipf
        self.adhoc_share = adhoc_share
        self.transfer_share = transfer_share
        self.scale = SMOKE_SCALE if smoke else TPCW_SCALE
        self.ledger = _Ledger()
        self.oracle = None
        self.engine: Optional[Database] = None
        self.pool: Optional[ConnectionPool] = None
        self._database = None
        self._stats_session = None
        self.data_dir: Optional[str] = None
        self.node = None

    def describe(self) -> dict:
        return {
            "scale": {"num_items": self.scale.num_items, "customers": self.scale.num_customers},
            "keys": "zipf(1.1)" if self.zipf else "uniform",
            "fsync": FSYNC if self.remote else "none (in-memory)",
            "clients": self.clients,
        }

    # -- lifecycle ---------------------------------------------------------------

    def build_oracle(self) -> None:
        self.oracle = build_database(self.scale)
        self._oracle_connection = self.oracle.connection()

    def setup(self, fleet: Fleet) -> None:
        self.fleet = fleet
        if not self.remote:
            built = build_database(self.scale)
            self.engine = built.database
            self._database = built.database
        else:
            self.data_dir = fleet.directory("primary")
            built = build_database(
                self.scale,
                data_dir=self.data_dir,
                durability=DurabilityOptions(fsync=FSYNC, checkpoint_log_bytes=None),
            )
            built.checkpoint()
            built.close()
            self.node = fleet.spawn("primary", "--data-dir", self.data_dir, "--fsync", FSYNC)
            self._connect(self.node.address)
        self._orm = built.orm
        if self.variant == "queryll":
            self._rewrite_queries()

    def _connect(self, address: tuple[str, int]) -> None:
        """A pool of as many connections as clients, plus a side channel
        for SERVER_STATS that stays out of the pool's counters."""
        self.pool = ConnectionPool(
            address, min_size=self.clients, max_size=self.clients, checkout_timeout=30.0
        )
        self._database = RemoteDatabase(address, pool=self.pool)
        self._stats_session = RemoteDatabase(address).session()

    def _rewrite_queries(self) -> None:
        mapping = self._orm.mapping
        functions = queries_queryll.QUERY_FUNCTIONS.values()
        done = sum(fn.analysis(mapping).rewritten is not None for fn in functions)
        self.rewritten = (done, len(functions))

    def teardown(self) -> None:
        if self._stats_session is not None:
            self._stats_session.close()
            self._stats_session = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    # -- load ----------------------------------------------------------------------

    def stream(self, seed: int, lane: int) -> TpcwOps:
        return TpcwOps(
            seed,
            lane,
            customers=self.scale.num_customers,
            items=self.scale.num_items,
            subjects=TPCW_SUBJECTS,
            zipf=self.zipf,
            adhoc_share=self.adhoc_share,
            transfer_share=self.transfer_share,
        )

    def database(self):
        return self._database

    def client(self, database) -> Callable[[Op], object]:
        if self.variant == "queryll":
            mapping, classes = self._orm.mapping, self._orm.entity_classes

            def run_queryll(op: Op) -> object:
                entity_manager = EntityManager(database, mapping, classes)
                try:
                    return _QUERYLL_READS[op[0]](entity_manager, op[1])
                finally:
                    entity_manager.close()

            return run_queryll

        connection_class = netclient.Connection if self.remote else dbapi.Connection

        def run_sql(op: Op) -> object:
            connection = connection_class(database, auto_commit=op[0] != "transfer")
            try:
                return self._sql_op(connection, op)
            finally:
                connection.close()

        return run_sql

    def _sql_op(self, connection, op: Op) -> object:
        kind = op[0]
        if kind == "transfer":
            return self._transfer(connection, op[1], op[2], op[3])
        if kind == "adhocLookup":
            results = connection.create_statement().execute(ADHOC_SQL.format(op[1]))
            results.next()
            return results.get_string(1), results.get_string(2)
        return _SQL_READS[kind](connection, op[1])

    def _transfer(self, connection, source: int, destination: int, quantity: int) -> str:
        """Move stock between two items in one transaction (two guarded
        UPDATEs and a COMMIT); a transfer that would drive stock negative
        rolls back, one that loses a write-write conflict is retried."""
        for attempt in range(CONFLICT_RETRY_LIMIT + 1):
            try:
                take = connection.prepare_statement(TAKE_SQL)
                take.set_int(1, quantity)
                take.set_int(2, source)
                take.set_int(3, quantity)
                if take.execute_update() == 0:
                    connection.rollback()
                    self.ledger.count("rollbacks")
                    return "rolled back"
                give = connection.prepare_statement(GIVE_SQL)
                give.set_int(1, quantity)
                give.set_int(2, destination)
                give.execute_update()
                connection.commit()
                self.ledger.committed(source, destination, quantity)
                return "committed"
            except TransactionConflictError:
                connection.rollback()
                self.ledger.count("conflicts")
                if attempt >= CONFLICT_RETRY_LIMIT:
                    raise
                self.ledger.count("retries")
                # Randomised backoff, so crossing transfers do not abort
                # each other in lockstep.
                time.sleep(random.random() * 0.0005 * min(2**attempt, 64))
        raise AssertionError("unreachable")

    def expected(self, op: Op) -> object:
        kind = "getName" if op[0] == "adhocLookup" else op[0]
        return _SQL_READS[kind](self._oracle_connection, op[1])

    def replay_engine(self) -> Database:
        return self.oracle.database

    # -- counters -------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        if not self.remote:
            return engine_counters(self.engine.stats())
        document = self._stats_session.server_stats()
        out = self._engine_counters(document)
        for name in ("bytes_in", "bytes_out", "rows_shipped", "connections_rejected"):
            out[f"server.{name}"] = document["server"][name]
        pool = self.pool.stats()
        for name in ("round_trips", "checkouts", "checkout_timeouts", "replacements"):
            out[f"pool.{name}"] = pool[name]
        return out

    def _engine_counters(self, document: dict) -> dict[str, float]:
        return engine_counters(document["engine"])

    def transactions(self) -> int:
        return self.ledger.commits

    def conflicts(self) -> tuple[int, int]:
        return (self.ledger.conflicts, self.ledger.retries)

    # -- invariants -------------------------------------------------------------------

    def _stock_problems(self, rows, where: str) -> list[str]:
        """Per-item stock must equal the initial stock plus the ledger."""
        initial = dict(self.oracle.database.execute("SELECT i_id, i_stock FROM item").rows)
        actual = dict(rows)
        problems = []
        if sum(actual.values()) != sum(initial.values()):
            problems.append(
                f"{where}: SUM(i_stock) is {sum(actual.values())}, expected {sum(initial.values())}"
            )
        wrong = [
            item
            for item, stock in initial.items()
            if actual.get(item) != stock + self.ledger.delta.get(item, 0)
        ]
        if wrong:
            problems.append(f"{where}: {len(wrong)} items differ from the ledger, first {wrong[:5]}")
        return problems

    def finish(self) -> tuple[list[str], dict[str, float]]:
        if self.transfer_share <= 0:
            return [], {}
        session = self._database.session()
        try:
            rows = list(session.execute("SELECT i_id, i_stock FROM item").rows)
        finally:
            session.close()
        problems = self._stock_problems(rows, "live")
        extra = {}
        if self.remote and self.node is not None:
            # Crash the node and recover from only its directory.  kill -9
            # leaves the OS page cache intact, so this checks that nothing
            # was acknowledged before it was written, not device loss.
            log_bytes = self._stats_session.server_stats()["engine"]["durability"]["log_bytes"]
            self.teardown()
            self.node.kill9()
            started = time.perf_counter()
            recovered = Database(
                data_dir=self.data_dir,
                durability=DurabilityOptions(fsync=FSYNC, checkpoint_log_bytes=None),
            )
            extra["durability.recovery_s"] = time.perf_counter() - started
            extra["durability.log_bytes_at_kill"] = float(log_bytes)
            try:
                rows = list(recovered.execute("SELECT i_id, i_stock FROM item").rows)
            finally:
                recovered.close()
            problems += self._stock_problems(rows, "after kill -9 and recovery")
        return problems, extra


class ClusterWorkload(TpcwWorkload):
    """TPC-W through a coordinator process over two durable shard processes."""

    NUM_SHARDS = 2
    _TABLES = ("country", "address", "author", "customer", "item")
    _INDEX_DDL = (
        "CREATE UNIQUE INDEX tpcw_customer_uname ON customer (c_uname)",
        "CREATE INDEX tpcw_item_subject ON item (i_subject)",
    )

    def __init__(self, smoke: bool) -> None:
        super().__init__(
            "cluster_mix", smoke, variant="sql", remote=True, clients=2, transfer_share=0.2
        )
        self.scale = SMOKE_SCALE if smoke else CLUSTER_SCALE
        self.shards: list = []
        self._shard_stats: list = []
        self.shard_map = ShardMap(version=1, num_shards=self.NUM_SHARDS, tables=dict(SHARDED_TABLES))

    def describe(self) -> dict:
        return {**super().describe(), "shards": self.NUM_SHARDS, "processes": self.NUM_SHARDS + 1}

    def setup(self, fleet: Fleet) -> None:
        self.fleet = fleet
        self.shards = [
            fleet.spawn("primary", "--data-dir", fleet.directory(f"shard{index}"), "--fsync", FSYNC)
            for index in range(self.NUM_SHARDS)
        ]
        arguments = []
        for shard in self.shards:
            arguments += ["--shard", f"{shard.address[0]}:{shard.address[1]}"]
        for table, key in SHARDED_TABLES.items():
            arguments += ["--table", f"{table}={key}"]
        self.node = fleet.spawn(
            "coordinator", *arguments, "--data-dir", fleet.directory("coordinator"),
            "--pool-size", "4",
        )
        self._connect(self.node.address)
        self._shard_stats = [RemoteDatabase(shard.address).session() for shard in self.shards]
        self._load()

    def _load(self) -> None:
        """Create and fill the tables over the wire, through the coordinator
        (multi-row INSERTs, split per shard or broadcast by the router)."""
        source = self.oracle.database
        session = self._database.session()
        try:
            for table in self._TABLES:
                schema = source.catalog.table(table)
                session.execute(table_ddl(schema))
                rows = source.execute(f"SELECT * FROM {table}").rows
                row_sql = "(" + ", ".join("?" * len(schema.column_names)) + ")"
                for begin in range(0, len(rows), _LOAD_BATCH_ROWS):
                    chunk = rows[begin : begin + _LOAD_BATCH_ROWS]
                    session.execute(
                        f"INSERT INTO {table} VALUES " + ", ".join([row_sql] * len(chunk)),
                        [value for row in chunk for value in row],
                    )
            for statement in self._INDEX_DDL:
                session.execute(statement)
        finally:
            session.close()

    def teardown(self) -> None:
        for session in self._shard_stats:
            session.close()
        self._shard_stats = []
        super().teardown()

    def _engine_counters(self, document: dict) -> dict[str, float]:
        out = _sum_counters(
            [engine_counters(s.server_stats()["engine"]) for s in self._shard_stats]
        )
        coordinator = document["engine"]
        for route, count in coordinator["routes"].items():
            out[f"route.{route}"] = count
        out["coordinator.statements"] = coordinator["statements_executed"]
        out["coordinator.twopc"] = coordinator["transactions_2pc"]
        out["coordinator.in_doubt"] = (
            coordinator["in_doubt_committed"] + coordinator["in_doubt_aborted"]
        )
        return out

    def owning_shard(self, customer_id: int) -> tuple[str, int]:
        """The address of the shard holding a customer (for timing a
        statement directly against it)."""
        return self.shards[self.shard_map.shard_of("customer", customer_id)].address

    def finish(self) -> tuple[list[str], dict[str, float]]:
        session = self._database.session()
        try:
            rows = list(session.execute("SELECT i_id, i_stock FROM item").rows)
        finally:
            session.close()
        return self._stock_problems(rows, "live"), {}


# -- analytics ---------------------------------------------------------------------------


class AnalyticsWorkload(Workload):
    """Scans, aggregates and joins over a star schema, with a primary-key
    UPDATE after every eighth query."""

    name = "analytics_scan"
    trace_ops = 45

    SCHEMA = """
        CREATE TABLE fact (id INTEGER PRIMARY KEY, a_id INTEGER, b_id INTEGER,
                           value INTEGER, qty INTEGER, note INTEGER);
        CREATE TABLE dim_a (a_id INTEGER PRIMARY KEY, tag INTEGER, region VARCHAR(10));
        CREATE TABLE dim_b (b_id INTEGER PRIMARY KEY, grp INTEGER, a_ref INTEGER);
    """
    QUERIES = {
        "agg_full": "SELECT SUM(value), COUNT(*) FROM fact",
        "scan_filtered": "SELECT id, value FROM fact WHERE a_id = ? AND value > ?",
        "agg_filtered": "SELECT MIN(value), MAX(value), AVG(value) FROM fact WHERE value >= ?",
        "join2": (
            "SELECT COUNT(*), SUM(fact.value) FROM fact, dim_a "
            "WHERE fact.a_id = dim_a.a_id AND dim_a.tag != ?"
        ),
        "join3": (
            "SELECT COUNT(*), SUM(fact.qty) FROM fact, dim_b, dim_a "
            "WHERE fact.b_id = dim_b.b_id AND dim_b.a_ref = dim_a.a_id "
            "AND dim_a.tag = ? AND dim_b.grp < ?"
        ),
        # ``note`` is read by no query, so results stay comparable with the
        # oracle while the write still patches the table's column arrays.
        "update": "UPDATE fact SET note = ? WHERE id = ?",
    }

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.fact_rows = SMOKE_FACT_ROWS if smoke else FACT_ROWS
        self.engine: Optional[Database] = None
        self.oracle: Optional[Database] = None

    def describe(self) -> dict:
        return {
            "scale": {"fact": self.fact_rows, "dim_a": 100, "dim_b": 1000},
            "keys": "uniform",
            "fsync": "none (in-memory)",
            "clients": self.clients,
        }

    def _build(self, planner_options: Optional[PlannerOptions] = None) -> Database:
        database = Database(planner_options=planner_options)
        database.executescript(self.SCHEMA)
        database.insert_rows(
            "fact",
            [
                (i, i % 100, (i * 7) % 1000, (i * 37) % 10_000, i % 13, 0)
                for i in range(self.fact_rows)
            ],
        )
        database.insert_rows("dim_a", [(a, a % 7, f"r{a % 5}") for a in range(100)])
        database.insert_rows("dim_b", [(b, b % 20, b % 100) for b in range(1000)])
        return database

    def build_oracle(self) -> None:
        # The row-at-a-time executor: same data, a different execution path.
        self.oracle = self._build(PlannerOptions(execution_mode="row"))

    def setup(self, fleet: Fleet) -> None:
        self.fleet = fleet
        self.engine = self._build()

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def stream(self, seed: int, lane: int) -> AnalyticsOps:
        return AnalyticsOps(seed, lane, fact_rows=self.fact_rows)

    def database(self):
        return self.engine

    def client(self, database) -> Callable[[Op], object]:
        def run(op: Op) -> object:
            connection = dbapi.Connection(database)
            try:
                statement = connection.prepare_statement(self.QUERIES[op[0]])
                if op[0] == "update":
                    statement.set_int(1, op[2])
                    statement.set_int(2, op[1])
                    return statement.execute_update()
                for index, value in enumerate(op[1:], start=1):
                    statement.set_int(index, value)
                return statement.execute_query().fetch_all()
            finally:
                connection.close()

        return run

    def expected(self, op: Op) -> object:
        return list(self.oracle.execute(self.QUERIES[op[0]], op[1:]).rows)

    def replay_engine(self) -> Database:
        return self.engine

    def counters(self) -> dict[str, float]:
        return engine_counters(self.engine.stats())


#: Name -> factory taking ``smoke``, in the order the suite runs them.
WORKLOADS: dict[str, Callable[[bool], Workload]] = {
    "queryll_inproc": lambda smoke: TpcwWorkload("queryll_inproc", smoke, variant="queryll"),
    "sql_inproc": lambda smoke: TpcwWorkload("sql_inproc", smoke, variant="sql", adhoc_share=0.1),
    "sql_remote_read": lambda smoke: TpcwWorkload(
        "sql_remote_read", smoke, variant="sql", remote=True, clients=2, zipf=True
    ),
    # One client: two threads materialising entities in one process contend
    # for the GIL and throughput swings by 45 % between runs.
    "queryll_remote": lambda smoke: TpcwWorkload(
        "queryll_remote", smoke, variant="queryll", remote=True, zipf=True
    ),
    "sql_remote_order": lambda smoke: TpcwWorkload(
        "sql_remote_order", smoke, variant="sql", remote=True, clients=2, transfer_share=0.5
    ),
    "analytics_scan": AnalyticsWorkload,
    "cluster_mix": ClusterWorkload,
}
