"""Formatting helpers for the generated SQL.

The generated text intentionally mimics the style shown in the paper's
Table 5: parenthesised column references, ``AS COLn`` aliases, the selection
predicate wrapped in redundant parentheses, and join conditions appended with
``AND`` after the WHERE clause.
"""

from __future__ import annotations

from repro.core.querytree.nodes import (
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlLiteral,
    SqlNot,
    SqlParam,
)


def render_literal(value: object) -> str:
    """Render a Python literal as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def render_column(column: SqlColumn) -> str:
    """Render a column reference as ``ALIAS.COLUMN``."""
    return f"{column.binding}.{column.column.upper()}"


class ExpressionRenderer:
    """Renders SQL expressions, recording parameter order as it goes.

    Parameters are emitted as ``?`` in textual order; ``parameter_sources``
    afterwards lists, for each ``?``, the outer variable the runtime must
    bind.
    """

    def __init__(self) -> None:
        self.parameter_sources: list[str] = []

    def render(self, expression: SqlExpr) -> str:
        if isinstance(expression, SqlLiteral):
            return render_literal(expression.value)
        if isinstance(expression, SqlColumn):
            return f"({render_column(expression)})"
        if isinstance(expression, SqlParam):
            self.parameter_sources.append(expression.source)
            return "?"
        if isinstance(expression, SqlNot):
            return f"(NOT {self.render(expression.operand)})"
        if isinstance(expression, SqlBinary):
            left = self.render(expression.left)
            right = self.render(expression.right)
            return f"({left} {expression.op} {right})"
        raise TypeError(f"unknown SQL expression {expression!r}")
