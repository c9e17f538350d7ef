"""Statement classification: which shards must a statement touch?

The router reuses the engine's expression helpers — WHERE clauses are
split into top-level AND conjuncts (:func:`split_conjuncts`) and scanned
for ``partition_column = <literal or parameter>`` equality conjuncts, the
same pattern the planner uses to pick index lookups.  From the bound (or
unbound) partition keys it derives one of six routes:

``any``
    Only global tables are referenced; any single shard can answer
    (every shard holds a full copy).  The coordinator round-robins.
``single``
    Every sharded table's partition key is bound by an equality conjunct
    and they all hash to the same shard.
``fanout``
    One sharded table with an unbound key: run the (rewritten) statement
    on every shard and merge — union for scans, re-aggregation for
    aggregates, k-way merge for ORDER BY.
``gather``
    Two or more sharded tables that do not collapse onto one shard (a
    cross-shard join): pull the referenced slices to the coordinator and
    execute locally.
``broadcast``
    A write or DDL that must reach every shard: global-table writes,
    unkeyed UPDATE/DELETE on a sharded table, CREATE/DROP statements.
``split``
    A multi-row INSERT into a sharded table whose rows hash to different
    shards: the VALUES list is partitioned per owning shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import ShardError
from repro.sqlengine.expressions import collect_column_refs, split_conjuncts
from repro.sharding.shardmap import ShardMap
from repro.sharding.sqlgen import render_value

ANY = "any"
SINGLE = "single"
FANOUT = "fanout"
GATHER = "gather"
BROADCAST = "broadcast"
SPLIT = "split"


@dataclass
class Route:
    """The routing decision for one statement."""

    kind: str
    #: Shard indices the statement touches, in execution order.
    shards: tuple[int, ...]
    #: Human-readable routing note, surfaced through EXPLAIN.
    description: str
    #: For ``single`` routes keyed by a partition column:
    #: (table, column, value).
    key: Optional[tuple[str, str, object]] = None
    #: For ``split`` inserts: shard index -> VALUES-row indices.
    insert_groups: dict[int, list[int]] = field(default_factory=dict)


def _evaluate_constant(
    expr: ast.Expression, params: Sequence[object]
) -> tuple[bool, object]:
    """Evaluate a Literal or Parameter; (False, None) for anything else."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Parameter):
        if params is None:
            # Routing without bindings (EXPLAIN): the key is unknowable.
            return False, None
        if expr.index >= len(params):
            raise ShardError(
                f"statement references parameter {expr.index + 1} but only "
                f"{len(params)} values were bound"
            )
        return True, params[expr.index]
    return False, None


class Router:
    """Classifies parsed statements against a :class:`ShardMap`.

    ``schemas`` maps lower-cased table name to its column order, captured
    by the coordinator when CREATE TABLE broadcasts through it; it
    resolves the partition-key position for inserts that omit the column
    list.
    """

    def __init__(self, shard_map: ShardMap, schemas: dict[str, tuple[str, ...]]):
        self.shard_map = shard_map
        self.schemas = schemas

    def _all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.shard_map.num_shards))

    # -- SELECT ---------------------------------------------------------------

    def route_select(
        self, statement: ast.SelectStatement, params: Sequence[object]
    ) -> Route:
        sharded = [
            ref for ref in statement.tables if self.shard_map.is_sharded(ref.table)
        ]
        if not sharded:
            return Route(ANY, self._all_shards(), "global tables only")
        conjuncts = split_conjuncts(statement.where)
        bound: dict[str, tuple[str, object, int]] = {}
        for ref in sharded:
            key = self._bind_partition_key(ref, statement, conjuncts, params)
            if key is not None:
                column, value = key
                bound[ref.binding.lower()] = (
                    column,
                    value,
                    self.shard_map.shard_of(ref.table, value),
                )
        if len(bound) == len(sharded):
            shards = {entry[2] for entry in bound.values()}
            if len(shards) == 1:
                ref = sharded[0]
                column, value, shard = bound[ref.binding.lower()]
                return Route(
                    SINGLE,
                    (shard,),
                    f"key={ref.table}.{column}={render_value(value)} -> shard {shard}",
                    key=(ref.table, column, value),
                )
            return Route(
                GATHER,
                self._all_shards(),
                "sharded tables pinned to different shards",
            )
        if len(sharded) == 1:
            ref = sharded[0]
            key = self.shard_map.key_for(ref.table)
            return Route(
                FANOUT,
                self._all_shards(),
                f"{ref.table}.{key} unbound -> fanout+merge",
            )
        return Route(
            GATHER,
            self._all_shards(),
            "cross-shard join over multiple sharded tables",
        )

    def _bind_partition_key(
        self,
        ref: ast.TableRef,
        statement: ast.SelectStatement,
        conjuncts: list[ast.Expression],
        params: Sequence[object],
    ) -> Optional[tuple[str, object]]:
        """(column, value) if an equality conjunct pins ``ref``'s key."""
        partition_column = self.shard_map.key_for(ref.table)
        assert partition_column is not None
        binding = ref.binding.lower()
        sole_table = len(statement.tables) == 1
        for conjunct in conjuncts:
            if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
                continue
            left, right = conjunct.left, conjunct.right
            for column_side, value_side in ((left, right), (right, left)):
                if not isinstance(column_side, ast.ColumnRef):
                    continue
                if column_side.column.lower() != partition_column:
                    continue
                if column_side.table is None:
                    # An unqualified reference is only unambiguous when
                    # there is a single table in scope.
                    if not sole_table:
                        continue
                elif column_side.table.lower() != binding:
                    continue
                if collect_column_refs(value_side):
                    continue
                known, value = _evaluate_constant(value_side, params)
                if known:
                    return column_side.column.lower(), value
        return None

    # -- writes ---------------------------------------------------------------

    def route_insert(
        self, statement: ast.InsertStatement, params: Sequence[object]
    ) -> Route:
        table = statement.table.lower()
        if not self.shard_map.is_sharded(table):
            return Route(BROADCAST, self._all_shards(), "insert into global table")
        partition_column = self.shard_map.key_for(table)
        columns = statement.columns or self.schemas.get(table, ())
        if not columns:
            raise ShardError(
                f"cannot place rows for sharded table {table!r}: unknown "
                "column order (create the table through the coordinator or "
                "name the columns in the INSERT)"
            )
        lowered = [column.lower() for column in columns]
        if partition_column not in lowered:
            raise ShardError(
                f"INSERT into sharded table {table!r} must supply the "
                f"partition key column {partition_column!r}"
            )
        position = lowered.index(partition_column)
        groups: dict[int, list[int]] = {}
        key_value: object = None
        for index, row in enumerate(statement.rows):
            if position >= len(row):
                raise ShardError(
                    f"INSERT row {index + 1} has no value for partition key "
                    f"{partition_column!r}"
                )
            known, value = _evaluate_constant(row[position], params)
            if not known:
                raise ShardError(
                    f"partition key {partition_column!r} must be a literal or "
                    "parameter in INSERT (computed keys cannot be placed)"
                )
            shard = self.shard_map.shard_of(table, value)
            groups.setdefault(shard, []).append(index)
            key_value = value
        if len(groups) == 1:
            shard = next(iter(groups))
            return Route(
                SINGLE,
                (shard,),
                f"key={table}.{partition_column}="
                f"{render_value(key_value)} -> shard {shard}"
                if len(statement.rows) == 1
                else f"all rows -> shard {shard}",
                key=(table, partition_column, key_value)
                if len(statement.rows) == 1
                else None,
                insert_groups=groups,
            )
        return Route(
            SPLIT,
            tuple(sorted(groups)),
            f"rows split across {len(groups)} shards",
            insert_groups=groups,
        )

    def route_update(
        self, statement: ast.UpdateStatement, params: Sequence[object]
    ) -> Route:
        table = statement.table.lower()
        if not self.shard_map.is_sharded(table):
            return Route(BROADCAST, self._all_shards(), "update on global table")
        partition_column = self.shard_map.key_for(table)
        for column, _expr in statement.assignments:
            if column.lower() == partition_column:
                raise ShardError(
                    f"UPDATE may not assign the partition key "
                    f"{table}.{partition_column} (a row cannot move between "
                    "shards in place; DELETE and re-INSERT instead)"
                )
        return self._route_keyed_write(
            table, partition_column, statement.where, params, "update"
        )

    def route_delete(
        self, statement: ast.DeleteStatement, params: Sequence[object]
    ) -> Route:
        table = statement.table.lower()
        if not self.shard_map.is_sharded(table):
            return Route(BROADCAST, self._all_shards(), "delete on global table")
        partition_column = self.shard_map.key_for(table)
        return self._route_keyed_write(
            table, partition_column, statement.where, params, "delete"
        )

    def _route_keyed_write(
        self,
        table: str,
        partition_column: str,
        where: Optional[ast.Expression],
        params: Sequence[object],
        verb: str,
    ) -> Route:
        ref = ast.TableRef(table=table)
        statement = ast.SelectStatement(items=(), tables=(ref,), where=where)
        key = self._bind_partition_key(
            ref, statement, split_conjuncts(where), params
        )
        if key is not None:
            column, value = key
            shard = self.shard_map.shard_of(table, value)
            return Route(
                SINGLE,
                (shard,),
                f"key={table}.{column}={render_value(value)} -> shard {shard}",
                key=(table, column, value),
            )
        return Route(
            BROADCAST,
            self._all_shards(),
            f"unkeyed {verb} on sharded table -> all shards",
        )
