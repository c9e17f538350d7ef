"""AST node definitions for the SQL subset.

Expression nodes and statement nodes are plain dataclasses; the parser builds
them and the planner/executor consume them.  Nothing here knows about storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A constant value: integer, float, string, boolean or NULL (None)."""

    value: Union[int, float, str, bool, None]


@dataclass(frozen=True)
class Parameter:
    """A positional ``?`` parameter; ``index`` is its 0-based position."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column, optionally qualified by a table alias."""

    table: Optional[str]
    column: str

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class UnaryOp:
    """Unary operation: ``-`` (negation) or ``NOT``."""

    op: str
    operand: "Expression"


@dataclass(frozen=True)
class BinaryOp:
    """Binary operation: arithmetic, comparison, AND/OR or LIKE."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class IsNull:
    """``expr IS NULL`` / ``expr IS NOT NULL``."""

    operand: "Expression"
    negated: bool


@dataclass(frozen=True)
class InList:
    """``expr IN (e1, e2, ...)``."""

    operand: "Expression"
    items: tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall:
    """A scalar or aggregate function call such as ``COUNT(*)``."""

    name: str
    args: tuple["Expression", ...]
    star: bool = False


Expression = Union[
    Literal, Parameter, ColumnRef, UnaryOp, BinaryOp, IsNull, InList, FunctionCall
]


# ---------------------------------------------------------------------------
# SELECT statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list: an expression with an optional alias.

    ``star`` marks ``*`` and ``table_star`` marks ``alias.*``.
    """

    expression: Optional[Expression] = None
    alias: Optional[str] = None
    star: bool = False
    table_star: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause with an optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name under which this table's columns are visible."""
        return self.alias if self.alias is not None else self.table


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: an expression plus direction."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A parsed ``SELECT`` statement."""

    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# DML statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table (cols) VALUES (...), (...)``."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET col = expr, ... WHERE expr``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table WHERE expr``."""

    table: str
    where: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DDL statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDefinition:
    """One column of a CREATE TABLE statement."""

    name: str
    type_name: str
    primary_key: bool = False
    unique: bool = False
    nullable: bool = True
    length: Optional[int] = None


@dataclass(frozen=True)
class CreateTableStatement:
    """``CREATE TABLE name (col type [PRIMARY KEY], ...)``."""

    table: str
    columns: tuple[ColumnDefinition, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CreateIndexStatement:
    """``CREATE [UNIQUE] INDEX name ON table (col, ...)``."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropTableStatement:
    """``DROP TABLE name``."""

    table: str


#: The statements the planner plans (and EXPLAIN can show).
PlannedStatement = Union[SelectStatement, UpdateStatement, DeleteStatement]


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN SELECT | UPDATE | DELETE ...``: plan the statement and
    return the cost-annotated operator tree as rows.  ``EXPLAIN ANALYZE``
    (SELECT only) actually executes the query and annotates every operator
    with the rows it produced and the wall time it spent (inclusive of its
    children)."""

    statement: PlannedStatement
    analyze: bool = False


@dataclass(frozen=True)
class TransactionStatement:
    """A transaction-control statement.

    ``action`` is one of ``BEGIN``, ``COMMIT``, ``ROLLBACK``, ``SAVEPOINT``,
    ``ROLLBACK TO`` or ``RELEASE``; the latter three carry the savepoint
    name in ``savepoint``.  Sessions interpret these against their own
    transaction context (see :class:`repro.sqlengine.engine.Session`).
    """

    action: str
    savepoint: Optional[str] = None


@dataclass(frozen=True)
class CheckpointStatement:
    """``CHECKPOINT``: snapshot the database and truncate the write-ahead
    log.  A no-op on an in-memory (non-durable) database."""


Statement = Union[
    SelectStatement,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    CreateTableStatement,
    CreateIndexStatement,
    DropTableStatement,
    ExplainStatement,
    TransactionStatement,
    CheckpointStatement,
]
