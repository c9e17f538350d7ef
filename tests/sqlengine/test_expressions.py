"""Tests for SQL expression compilation/evaluation, including property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.expressions import (
    ExpressionCompiler,
    collect_column_refs,
    is_truthy,
    split_conjuncts,
)


def evaluate(expression: ast.Expression, env=None, params=()):
    return ExpressionCompiler().compile(expression)(env or {}, params)


class TestBasicEvaluation:
    def test_literal_and_parameter(self) -> None:
        assert evaluate(ast.Literal(5)) == 5
        assert evaluate(ast.Parameter(0), params=(42,)) == 42

    def test_missing_parameter_raises(self) -> None:
        with pytest.raises(SqlExecutionError):
            evaluate(ast.Parameter(1), params=(42,))

    def test_column_lookup(self) -> None:
        expression = ast.ColumnRef("a", "c_id")
        assert evaluate(expression, {"a.c_id": 7}) == 7

    def test_unknown_column_raises(self) -> None:
        with pytest.raises(SqlExecutionError):
            evaluate(ast.ColumnRef(None, "missing"), {})

    def test_arithmetic(self) -> None:
        expression = ast.BinaryOp(
            "*",
            ast.BinaryOp("-", ast.Literal(10), ast.Literal(4)),
            ast.Literal(0.5),
        )
        assert evaluate(expression) == 3.0

    def test_division_by_zero_raises(self) -> None:
        with pytest.raises(SqlExecutionError):
            evaluate(ast.BinaryOp("/", ast.Literal(1), ast.Literal(0)))

    def test_comparisons(self) -> None:
        assert evaluate(ast.BinaryOp("<", ast.Literal(1), ast.Literal(2))) is True
        assert evaluate(ast.BinaryOp(">=", ast.Literal(1), ast.Literal(2))) is False
        assert evaluate(ast.BinaryOp("=", ast.Literal("x"), ast.Literal("x"))) is True

    def test_null_propagates_through_comparison(self) -> None:
        assert evaluate(ast.BinaryOp("=", ast.Literal(None), ast.Literal(1))) is None

    def test_and_or_with_null(self) -> None:
        false_and_null = ast.BinaryOp("AND", ast.Literal(False), ast.Literal(None))
        assert evaluate(false_and_null) is False
        true_or_null = ast.BinaryOp("OR", ast.Literal(True), ast.Literal(None))
        assert evaluate(true_or_null) is True
        null_and_true = ast.BinaryOp("AND", ast.Literal(None), ast.Literal(True))
        assert evaluate(null_and_true) is None

    @pytest.mark.parametrize("left", [True, False, None])
    @pytest.mark.parametrize("right", [True, False, None])
    def test_and_or_truth_tables_are_three_valued(self, left, right) -> None:
        """Both operand orders: FALSE dominates AND, TRUE dominates OR."""
        if left is False or right is False:
            expected_and = False
        elif left is None or right is None:
            expected_and = None
        else:
            expected_and = True
        if left is True or right is True:
            expected_or = True
        elif left is None or right is None:
            expected_or = None
        else:
            expected_or = False
        operands = (ast.Literal(left), ast.Literal(right))
        assert evaluate(ast.BinaryOp("AND", *operands)) is expected_and
        assert evaluate(ast.BinaryOp("OR", *operands)) is expected_or

    def test_not(self) -> None:
        assert evaluate(ast.UnaryOp("NOT", ast.Literal(False))) is True
        assert evaluate(ast.UnaryOp("NOT", ast.Literal(None))) is None

    def test_is_null(self) -> None:
        assert evaluate(ast.IsNull(ast.Literal(None), negated=False)) is True
        assert evaluate(ast.IsNull(ast.Literal(3), negated=True)) is True

    def test_in_list(self) -> None:
        expression = ast.InList(ast.Literal(2), (ast.Literal(1), ast.Literal(2)))
        assert evaluate(expression) is True
        negated = ast.InList(ast.Literal(5), (ast.Literal(1),), negated=True)
        assert evaluate(negated) is True

    def test_like(self) -> None:
        expression = ast.BinaryOp("LIKE", ast.Literal("Widget"), ast.Literal("wid%"))
        assert evaluate(expression) is True
        expression = ast.BinaryOp("LIKE", ast.Literal("Widget"), ast.Literal("w_dget"))
        assert evaluate(expression) is True
        expression = ast.BinaryOp("LIKE", ast.Literal("Widget"), ast.Literal("x%"))
        assert evaluate(expression) is False

    def test_functions(self) -> None:
        assert evaluate(ast.FunctionCall("LOWER", (ast.Literal("AbC"),))) == "abc"
        assert evaluate(ast.FunctionCall("LENGTH", (ast.Literal("abc"),))) == 3
        assert evaluate(ast.FunctionCall("ABS", (ast.Literal(-2),))) == 2
        with pytest.raises(SqlExecutionError):
            evaluate(ast.FunctionCall("NO_SUCH_FN", (ast.Literal(1),)))

    def test_is_truthy(self) -> None:
        assert is_truthy(True) and is_truthy(1) and is_truthy("x")
        assert not is_truthy(None) and not is_truthy(0) and not is_truthy(False)


class TestHelpers:
    def test_collect_column_refs(self) -> None:
        expression = ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.ColumnRef("a", "x"), ast.Literal(1)),
            ast.BinaryOp("=", ast.ColumnRef("b", "y"), ast.ColumnRef(None, "z")),
        )
        refs = collect_column_refs(expression)
        assert {(ref.table, ref.column) for ref in refs} == {("a", "x"), ("b", "y"), (None, "z")}

    def test_split_conjuncts(self) -> None:
        expression = ast.BinaryOp(
            "AND",
            ast.BinaryOp("AND", ast.Literal(1), ast.Literal(2)),
            ast.Literal(3),
        )
        assert len(split_conjuncts(expression)) == 3
        assert split_conjuncts(None) == []


# -- property-based tests -----------------------------------------------------------------

_numbers = st.integers(min_value=-50, max_value=50)


def _literal(draw_value: int) -> ast.Literal:
    return ast.Literal(draw_value)


_arith_expr = st.recursive(
    _numbers.map(_literal),
    lambda children: st.builds(
        ast.BinaryOp,
        st.sampled_from(["+", "-", "*"]),
        children,
        children,
    ),
    max_leaves=8,
)


class TestExpressionProperties:
    @given(expression=_arith_expr)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_python_semantics(self, expression) -> None:
        """Compiled arithmetic on integer literals agrees with direct
        evaluation of the same tree in Python."""

        def reference(node: ast.Expression) -> int:
            if isinstance(node, ast.Literal):
                return node.value  # type: ignore[return-value]
            assert isinstance(node, ast.BinaryOp)
            left, right = reference(node.left), reference(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return left * right

        assert evaluate(expression) == reference(expression)

    @given(left=_numbers, right=_numbers, op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    @settings(max_examples=60, deadline=None)
    def test_comparisons_match_python(self, left: int, right: int, op: str) -> None:
        expression = ast.BinaryOp(op, ast.Literal(left), ast.Literal(right))
        python_ops = {
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }
        assert evaluate(expression) == python_ops[op]
