"""Expression compilation and evaluation for the SQL engine.

Expressions are compiled once per statement into Python closures that take a
*row* and the positional parameter list, and return the value of the
expression.  Two row representations are supported, selected by what the
resolver returns for a column reference:

* **slot mode** (the planner and executor hot paths): the resolver maps a
  :class:`~repro.sqlengine.ast_nodes.ColumnRef` to an integer slot index and
  rows are positional tuples — a column read compiles to ``row[slot]``;
* **environment mode** (the default, kept for ad-hoc evaluation): the
  resolver returns a string key and rows are dictionaries mapping
  qualified/unqualified column names to values.

NULL handling follows a simplified SQL model: any comparison or arithmetic
involving NULL yields NULL, and NULL in a filter position is treated as
false.  ``IS NULL`` / ``IS NOT NULL`` test NULL explicitly.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping, Sequence, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlExecutionError

RowEnv = Mapping[str, object]
#: A positional row (slot mode) — what every plan operator passes around.
Row = Sequence[object]
Params = Sequence[object]
Evaluator = Callable[[Union[RowEnv, Row], Params], object]

_ARITHMETIC_OPS: dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
}

_COMPARISON_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def is_truthy(value: object) -> bool:
    """SQL filter semantics: NULL and false are filtered out."""
    return bool(value) and value is not None


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


def column_key(table: str | None, column: str) -> str:
    """Canonical environment key for a column reference."""
    if table:
        return f"{table.lower()}.{column.lower()}"
    return column.lower()


class ExpressionCompiler:
    """Compiles AST expressions into evaluator closures.

    ``resolver`` maps a :class:`~repro.sqlengine.ast_nodes.ColumnRef` to
    either an integer slot index (slot mode: rows are positional tuples and
    the reference compiles to ``row[slot]``) or an environment key (rows are
    dictionaries).  The planner supplies a slot resolver that also validates
    the reference against the catalog.
    """

    def __init__(
        self, resolver: Callable[[ast.ColumnRef], Union[str, int]] | None = None
    ) -> None:
        self._resolver = resolver or (
            lambda ref: column_key(ref.table, ref.column)
        )

    def compile(self, expression: ast.Expression) -> Evaluator:
        """Compile ``expression`` into an evaluator closure."""
        if isinstance(expression, ast.Literal):
            value = expression.value
            return lambda env, params: value
        if isinstance(expression, ast.Parameter):
            index = expression.index
            def eval_parameter(env: RowEnv, params: Params) -> object:
                if index >= len(params):
                    raise SqlExecutionError(
                        f"missing value for parameter {index + 1}"
                    )
                return params[index]
            return eval_parameter
        if isinstance(expression, ast.ColumnRef):
            target = self._resolver(expression)
            if isinstance(target, int):
                slot = target
                def eval_slot(row: Row, params: Params) -> object:
                    return row[slot]
                return eval_slot
            key = target
            def eval_column(env: RowEnv, params: Params) -> object:
                try:
                    return env[key]
                except KeyError as exc:
                    raise SqlExecutionError(f"unknown column {key!r}") from exc
            return eval_column
        if isinstance(expression, ast.UnaryOp):
            return self._compile_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._compile_binary(expression)
        if isinstance(expression, ast.IsNull):
            inner = self.compile(expression.operand)
            negated = expression.negated
            def eval_isnull(env: RowEnv, params: Params) -> object:
                value = inner(env, params)
                return (value is not None) if negated else (value is None)
            return eval_isnull
        if isinstance(expression, ast.InList):
            return self._compile_in(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._compile_function(expression)
        raise SqlExecutionError(f"cannot compile expression {expression!r}")

    # -- helpers -------------------------------------------------------------

    def _compile_unary(self, expression: ast.UnaryOp) -> Evaluator:
        inner = self.compile(expression.operand)
        if expression.op == "-":
            def eval_negate(env: RowEnv, params: Params) -> object:
                value = inner(env, params)
                if value is None:
                    return None
                return -value  # type: ignore[operator]
            return eval_negate
        if expression.op == "NOT":
            def eval_not(env: RowEnv, params: Params) -> object:
                value = inner(env, params)
                if value is None:
                    return None
                return not is_truthy(value)
            return eval_not
        raise SqlExecutionError(f"unknown unary operator {expression.op!r}")

    def _compile_binary(self, expression: ast.BinaryOp) -> Evaluator:
        op = expression.op
        left = self.compile(expression.left)
        right = self.compile(expression.right)

        if op == "AND":
            def eval_and(env: RowEnv, params: Params) -> object:
                left_value = left(env, params)
                if left_value is not None and not is_truthy(left_value):
                    return False
                right_value = right(env, params)
                if right_value is None:
                    return None
                if not is_truthy(right_value):
                    return False  # NULL AND FALSE is FALSE, not NULL
                return None if left_value is None else True
            return eval_and
        if op == "OR":
            def eval_or(env: RowEnv, params: Params) -> object:
                left_value = left(env, params)
                if left_value is not None and is_truthy(left_value):
                    return True
                right_value = right(env, params)
                if right_value is not None and is_truthy(right_value):
                    return True
                if left_value is None or right_value is None:
                    return None
                return False
            return eval_or
        if op == "LIKE":
            def eval_like(env: RowEnv, params: Params) -> object:
                value = left(env, params)
                pattern = right(env, params)
                if value is None or pattern is None:
                    return None
                return _like_to_regex(str(pattern)).match(str(value)) is not None
            return eval_like
        if op == "/":
            def eval_divide(env: RowEnv, params: Params) -> object:
                left_value = left(env, params)
                right_value = right(env, params)
                if left_value is None or right_value is None:
                    return None
                if right_value == 0:
                    raise SqlExecutionError("division by zero")
                return left_value / right_value  # type: ignore[operator]
            return eval_divide
        if op in _ARITHMETIC_OPS:
            func = _ARITHMETIC_OPS[op]
            def eval_arith(env: RowEnv, params: Params) -> object:
                left_value = left(env, params)
                right_value = right(env, params)
                if left_value is None or right_value is None:
                    return None
                return func(left_value, right_value)
            return eval_arith
        if op in _COMPARISON_OPS:
            func = _COMPARISON_OPS[op]
            def eval_compare(env: RowEnv, params: Params) -> object:
                left_value = left(env, params)
                right_value = right(env, params)
                if left_value is None or right_value is None:
                    return None
                left_value, right_value = _normalise_pair(left_value, right_value)
                try:
                    return func(left_value, right_value)
                except TypeError as exc:
                    raise SqlExecutionError(
                        f"cannot compare {left_value!r} and {right_value!r}"
                    ) from exc
            return eval_compare
        raise SqlExecutionError(f"unknown binary operator {op!r}")

    def _compile_in(self, expression: ast.InList) -> Evaluator:
        operand = self.compile(expression.operand)
        items = [self.compile(item) for item in expression.items]
        negated = expression.negated
        def eval_in(env: RowEnv, params: Params) -> object:
            value = operand(env, params)
            if value is None:
                return None
            values = [item(env, params) for item in items]
            found = any(
                value == other
                for other in values
                if other is not None
            )
            return (not found) if negated else found
        return eval_in

    def _compile_function(self, expression: ast.FunctionCall) -> Evaluator:
        name = expression.name.upper()
        args = [self.compile(arg) for arg in expression.args]
        if name == "LOWER" and len(args) == 1:
            return lambda env, params: _maybe_str(args[0](env, params), str.lower)
        if name == "UPPER" and len(args) == 1:
            return lambda env, params: _maybe_str(args[0](env, params), str.upper)
        if name == "LENGTH" and len(args) == 1:
            def eval_length(env: RowEnv, params: Params) -> object:
                value = args[0](env, params)
                return None if value is None else len(str(value))
            return eval_length
        if name == "ABS" and len(args) == 1:
            def eval_abs(env: RowEnv, params: Params) -> object:
                value = args[0](env, params)
                return None if value is None else abs(value)  # type: ignore[arg-type]
            return eval_abs
        raise SqlExecutionError(f"unsupported function {expression.name!r}")


def _maybe_str(value: object, func: Callable[[str], str]) -> object:
    return None if value is None else func(str(value))


def _normalise_pair(left: object, right: object) -> tuple[object, object]:
    """Allow comparisons between ints and floats and between bools and ints;
    otherwise require matching types (string/number comparisons raise)."""
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, (bool, int)) and isinstance(right, (bool, int)):
            return int(left), int(right)  # type: ignore[arg-type]
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    return left, right


def collect_column_refs(expression: ast.Expression) -> list[ast.ColumnRef]:
    """Return every column reference appearing in ``expression``."""
    found: list[ast.ColumnRef] = []

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            found.append(node)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expression)
    return found


def split_conjuncts(expression: ast.Expression | None) -> list[ast.Expression]:
    """Split an expression on top-level ANDs into a list of conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]
