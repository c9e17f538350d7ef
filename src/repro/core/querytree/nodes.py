"""Query tree node definitions.

The query tree is the paper's intermediate form between path analysis and SQL
generation: a relational description (bindings, join conditions, selection
predicate, projection outputs, ordering, limit) that the SQL generator can
print as a ``SELECT .. FROM .. WHERE ..`` statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- scalar SQL expressions ------------------------------------------------------


@dataclass(frozen=True)
class SqlColumn:
    """A column of one of the query's entity bindings."""

    binding: str
    column: str


@dataclass(frozen=True)
class SqlLiteral:
    """A literal constant."""

    value: Union[int, float, str, bool, None]


@dataclass(frozen=True)
class SqlParam:
    """A runtime parameter (``?``); ``source`` names the outer variable the
    frontend must bind when executing the query."""

    index: int
    source: str


@dataclass(frozen=True)
class SqlBinary:
    """Binary SQL operation (comparison, arithmetic, AND/OR)."""

    op: str
    left: "SqlExpr"
    right: "SqlExpr"


@dataclass(frozen=True)
class SqlNot:
    """Logical negation."""

    operand: "SqlExpr"


SqlExpr = Union[SqlColumn, SqlLiteral, SqlParam, SqlBinary, SqlNot]


# -- output (projection) shapes ----------------------------------------------------


@dataclass(frozen=True)
class EntityOutput:
    """The query returns whole entities of the given binding."""

    binding: str
    entity_name: str


@dataclass(frozen=True)
class ColumnOutput:
    """The query returns a computed scalar column."""

    expression: SqlExpr


@dataclass(frozen=True)
class PairOutput:
    """The query returns :class:`~repro.orm.pair.Pair` objects."""

    first: "Output"
    second: "Output"


@dataclass(frozen=True)
class TupleOutput:
    """The query returns plain tuples (Python-frontend projection)."""

    items: tuple["Output", ...]


Output = Union[EntityOutput, ColumnOutput, PairOutput, TupleOutput]


# -- bindings and the tree -----------------------------------------------------------


@dataclass(frozen=True)
class EntityBinding:
    """One entity participating in the query (one FROM-clause table)."""

    alias: str
    entity_name: str
    table: str


@dataclass
class QueryTree:
    """A complete relational query."""

    bindings: list[EntityBinding] = field(default_factory=list)
    where: Optional[SqlExpr] = None
    join_conditions: list[SqlBinary] = field(default_factory=list)
    output: Optional[Output] = None
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    parameter_sources: list[str] = field(default_factory=list)

    # -- helpers ------------------------------------------------------------------

    def binding(self, alias: str) -> EntityBinding:
        """Look up a binding by alias."""
        for binding in self.bindings:
            if binding.alias == alias:
                return binding
        raise KeyError(f"no binding with alias {alias!r}")

    def add_binding(self, entity_name: str, table: str) -> EntityBinding:
        """Add a new binding with the next free alias (A, B, C, ...)."""
        alias = _alias_for(len(self.bindings))
        binding = EntityBinding(alias=alias, entity_name=entity_name, table=table)
        self.bindings.append(binding)
        return binding

    def add_join_condition(self, condition: SqlBinary) -> None:
        """Record an equi-join condition between two bindings."""
        if condition not in self.join_conditions:
            self.join_conditions.append(condition)

    def output_columns(self) -> list[SqlExpr]:
        """Flatten the output shape into the list of projected expressions
        (entity outputs are excluded: they expand to all columns later)."""
        expressions: list[SqlExpr] = []

        def walk(output: Output) -> None:
            if isinstance(output, ColumnOutput):
                expressions.append(output.expression)
            elif isinstance(output, PairOutput):
                walk(output.first)
                walk(output.second)
            elif isinstance(output, TupleOutput):
                for item in output.items:
                    walk(item)

        if self.output is not None:
            walk(self.output)
        return expressions


def _alias_for(position: int) -> str:
    """A, B, ..., Z, A1, B1, ... — the paper uses single letters."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if position < len(letters):
        return letters[position]
    return letters[position % len(letters)] + str(position // len(letters))


def sql_expr_references(expression: SqlExpr) -> set[str]:
    """Aliases referenced by a SQL expression."""
    return {column.binding for column in sql_expr_columns(expression)}


def sql_expr_columns(expression: SqlExpr) -> set[SqlColumn]:
    """Every column reference occurring in a SQL expression."""
    columns: set[SqlColumn] = set()

    def walk(node: SqlExpr) -> None:
        if isinstance(node, SqlColumn):
            columns.add(node)
        elif isinstance(node, SqlBinary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, SqlNot):
            walk(node.operand)

    walk(expression)
    return columns


def clone_tree(tree: QueryTree) -> QueryTree:
    """Shallow-copy a query tree so a rewrite rule can return a modified
    tree without mutating its input (expressions are immutable, so sharing
    them between the copies is safe)."""
    return QueryTree(
        bindings=list(tree.bindings),
        where=tree.where,
        join_conditions=list(tree.join_conditions),
        output=tree.output,
        order_by=list(tree.order_by),
        limit=tree.limit,
        offset=tree.offset,
        parameter_sources=list(tree.parameter_sources),
    )
