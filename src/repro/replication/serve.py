"""Launch replication nodes as standalone processes.

The in-process :class:`~repro.replication.replica.ReplicaServer` is what
the tests use, but an interpreter-based engine shares one GIL across every
in-process node — a read-scaling measurement over in-process replicas
would only measure lock contention.  This module is the subprocess face of
the same components: each invocation starts exactly one node, prints
``PORT <n>`` on stdout once it is accepting connections, and serves until
the process is terminated.

Four node kinds::

    python -m repro.replication.serve primary --data-dir DIR
    python -m repro.replication.serve tpcw-primary --data-dir DIR --scale tiny
    python -m repro.replication.serve replica --primary HOST:PORT
    python -m repro.replication.serve coordinator \
        --shard HOST:PORT[,HOST:PORT...] --shard ... --table item=i_id

``primary`` serves an existing (or empty) durable database directory;
``tpcw-primary`` first populates the directory with the TPC-W dataset so a
benchmark can spawn a loaded primary in one step; ``replica`` bootstraps
over the REPLICATE stream and serves reads; ``coordinator`` fronts a fleet
of shard processes with a :class:`~repro.sharding.ShardedDatabase` —
each ``--shard`` names one shard's primary (and optionally its replicas,
comma-separated), each ``--table`` declares a hash-partitioned table, and
``--data-dir`` keeps the two-phase-commit decision journal.  Every fault a
test can inject in-process (kill -9, severed stream) works on these
processes too.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Optional


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return (host, int(port))


def _durability(fsync: str):
    from repro.sqlengine.durability import DurabilityOptions

    # No automatic checkpoints: replicas bootstrap from the log alone, and
    # a checkpoint would truncate the history they need.
    return DurabilityOptions(fsync=fsync, checkpoint_log_bytes=None)


def _announce(address: tuple[str, int]) -> None:
    """The machine-readable readiness line the spawner waits for."""
    print(f"PORT {address[1]}", flush=True)


def _maybe_metrics(args: argparse.Namespace, render):
    """Start the Prometheus scrape endpoint when ``--metrics-port`` asks
    for one; announce its port the same way the SQL port is announced."""
    if args.metrics_port is None:
        return None
    from repro.obs.metrics import start_metrics_http_server

    server = start_metrics_http_server(
        render, host=args.host, port=args.metrics_port
    )
    print(f"METRICS_PORT {server.server_address[1]}", flush=True)
    return server


def _serve_forever() -> None:
    # All the work happens on the server's own threads; park the main
    # thread until SIGTERM/SIGINT tears the process down.
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def _run_primary(args: argparse.Namespace) -> int:
    from repro.server.server import SqlServer
    from repro.sqlengine.engine import Database

    database = Database(
        data_dir=args.data_dir, durability=_durability(args.fsync)
    )
    server = SqlServer(
        database=database,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        replication_chunk_bytes=args.chunk_bytes,
    ).start()
    _announce(server.address)
    metrics = _maybe_metrics(args, database.metrics.render_prometheus)
    _serve_forever()
    if metrics is not None:
        metrics.shutdown()
    server.kill()
    database.close()
    return 0


def _run_tpcw_primary(args: argparse.Namespace) -> int:
    from repro.server.server import SqlServer
    from repro.tpcw.database import build_database
    from repro.tpcw.population import PopulationScale

    scales = {
        "tiny": PopulationScale.tiny,
        "default": PopulationScale,
        "paper": PopulationScale.paper,
    }
    tpcw = build_database(
        scales[args.scale](),
        data_dir=args.data_dir,
        durability=_durability(args.fsync),
    )
    server = SqlServer(
        database=tpcw.database,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        replication_chunk_bytes=args.chunk_bytes,
    ).start()
    _announce(server.address)
    metrics = _maybe_metrics(args, tpcw.database.metrics.render_prometheus)
    _serve_forever()
    if metrics is not None:
        metrics.shutdown()
    server.kill()
    tpcw.close()
    return 0


def _run_replica(args: argparse.Namespace) -> int:
    from repro.replication.replica import ReplicaServer

    replica = ReplicaServer(
        args.primary,
        host=args.host,
        port=args.port,
        name=args.name,
        max_connections=args.max_connections,
    ).start()
    _announce(replica.address)
    metrics = _maybe_metrics(args, replica.database.metrics.render_prometheus)
    _serve_forever()
    if metrics is not None:
        metrics.shutdown()
    replica.kill()
    return 0


def _shard_spec(text: str) -> list[tuple[str, int]]:
    """One shard: ``primary[,replica...]`` as HOST:PORT addresses."""
    return [_address(part) for part in text.split(",") if part]


def _table_spec(text: str) -> tuple[str, str]:
    table, sep, key = text.partition("=")
    if not sep or not table or not key:
        raise argparse.ArgumentTypeError(
            f"expected TABLE=PARTITION_KEY, got {text!r}"
        )
    return (table, key)


def _run_coordinator(args: argparse.Namespace) -> int:
    from repro.netclient.pool import ConnectionPool, ReplicatedConnectionPool
    from repro.server.server import SqlServer
    from repro.sharding import ShardMap, ShardedDatabase

    pools = []
    for spec in args.shard:
        primary, replicas = spec[0], spec[1:]
        if replicas:
            pools.append(ReplicatedConnectionPool(primary, replicas))
        else:
            pools.append(
                ConnectionPool(primary[0], primary[1], max_size=args.pool_size)
            )
    shard_map = ShardMap(
        version=args.map_version,
        num_shards=len(pools),
        tables=dict(args.table or ()),
    )
    coordinator = ShardedDatabase(
        shard_map, pools, data_dir=args.data_dir, name=args.name
    )
    server = SqlServer(
        database=coordinator,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
    ).start()
    _announce(server.address)
    metrics = _maybe_metrics(args, coordinator.metrics.render_prometheus)
    _serve_forever()
    if metrics is not None:
        metrics.shutdown()
    server.kill()
    coordinator.close()
    return 0


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--max-connections", type=int, default=128)
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus metrics over HTTP (0 picks a free port, "
        "announced as 'METRICS_PORT <n>')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.replication.serve", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    primary = commands.add_parser(
        "primary", help="serve a durable database directory"
    )
    primary.add_argument("--data-dir", required=True)
    primary.add_argument("--fsync", default="off", choices=["off", "group", "always"])
    primary.add_argument("--chunk-bytes", type=int, default=None)
    _common(primary)
    primary.set_defaults(run=_run_primary)

    tpcw = commands.add_parser(
        "tpcw-primary", help="populate a TPC-W dataset, then serve it"
    )
    tpcw.add_argument("--data-dir", required=True)
    tpcw.add_argument("--scale", default="tiny", choices=["tiny", "default", "paper"])
    tpcw.add_argument("--fsync", default="off", choices=["off", "group", "always"])
    tpcw.add_argument("--chunk-bytes", type=int, default=None)
    _common(tpcw)
    tpcw.set_defaults(run=_run_tpcw_primary)

    replica = commands.add_parser(
        "replica", help="follow a primary's REPLICATE stream, serve reads"
    )
    replica.add_argument("--primary", type=_address, required=True)
    replica.add_argument("--name", default="replica")
    _common(replica)
    replica.set_defaults(run=_run_replica)

    coordinator = commands.add_parser(
        "coordinator", help="route a sharded fleet behind one wire endpoint"
    )
    coordinator.add_argument(
        "--shard",
        type=_shard_spec,
        action="append",
        required=True,
        metavar="PRIMARY[,REPLICA...]",
        help="one shard's primary (and optional replicas), repeatable",
    )
    coordinator.add_argument(
        "--table",
        type=_table_spec,
        action="append",
        metavar="TABLE=KEY",
        help="hash-partitioned table and its partition key, repeatable",
    )
    coordinator.add_argument("--data-dir", default=None)
    coordinator.add_argument("--map-version", type=int, default=1)
    coordinator.add_argument("--pool-size", type=int, default=8)
    coordinator.add_argument("--name", default="coordinator")
    _common(coordinator)
    coordinator.set_defaults(run=_run_coordinator)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
