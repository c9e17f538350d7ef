"""Property test: the generated SQL means what the query tree says.

Hypothesis generates random query trees over the bank schema — one or two
bindings, randomly shaped predicates (comparisons, AND/OR/NOT, constants,
NULL operands, equi-joins in the WHERE clause) and entity/column/pair
outputs.  Each tree is printed by :class:`SqlGenerator` and run through the
real SQL engine, and separately evaluated in Python straight over the bank
rows: a nested loop over the bindings, the predicate under SQL three-valued
logic (a row qualifies only when it is TRUE, not FALSE or UNKNOWN).  The
two answers must be identical as multisets, with entities compared by
primary key.
"""

from __future__ import annotations

import itertools
import operator

from hypothesis import given, settings, strategies as st

from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    PairOutput,
    QueryTree,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlLiteral,
    SqlNot,
    TupleOutput,
)
from repro.core.runtime import execute_generated_query
from repro.core.sqlgen.generator import SqlGenerator
from repro.orm.entity import Entity
from repro.orm.pair import Pair
from repro.testing import (
    BANK_ACCOUNTS,
    BANK_CLIENTS,
    make_bank_db,
    make_bank_mapping,
)

#: (column, kind) pools per binding alias of the generated trees.
_CLIENT_COLUMNS = [
    ("ClientID", "int"),
    ("Name", "text"),
    ("Country", "text"),
    ("PostalCode", "text"),
]
_ACCOUNT_COLUMNS = [
    ("AccountID", "int"),
    ("ClientID", "int"),
    ("Balance", "num"),
    ("MinBalance", "num"),
]
#: Column names of the bank rows, in ``BANK_CLIENTS`` / ``BANK_ACCOUNTS`` order.
_ROW_COLUMNS = {
    "Client": ("ClientID", "Name", "Address", "Country", "PostalCode"),
    "Account": ("AccountID", "ClientID", "Balance", "MinBalance"),
}
_ROWS = {"Client": BANK_CLIENTS, "Account": BANK_ACCOUNTS}

_TEXT_LITERALS = ["Canada", "Switzerland", "Peru", "Alice", "LA", ""]
_COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]


def _columns_for(alias: str) -> list[tuple[str, str]]:
    return _CLIENT_COLUMNS if alias == "A" else _ACCOUNT_COLUMNS


def _leaf_strategy(aliases: list[str]) -> st.SearchStrategy[SqlExpr]:
    def make_comparison(draw_tuple):
        alias, (column, kind), op, number, text, null = draw_tuple
        column_ref = SqlColumn(alias, column)
        if kind == "text":
            literal = SqlLiteral(text)
            op = op if op in ("=", "!=") else "="
        else:
            literal = SqlLiteral(number)
        if null:
            literal = SqlLiteral(None)
        return SqlBinary(op, column_ref, literal)

    comparison = st.tuples(
        st.sampled_from(aliases),
        st.sampled_from(_CLIENT_COLUMNS + _ACCOUNT_COLUMNS),
        st.sampled_from(_COMPARISONS),
        st.integers(min_value=-5, max_value=1005) | st.sampled_from([0, 1000, 1001, 1002]),
        st.sampled_from(_TEXT_LITERALS),
        st.sampled_from([False] * 7 + [True]),
    ).map(
        lambda t: make_comparison(
            (t[0], t[1] if t[1] in _columns_for(t[0]) else _columns_for(t[0])[0], *t[2:])
        )
    )
    constant = st.sampled_from([SqlLiteral(True), SqlLiteral(False)])
    return comparison | constant


def _predicate_strategy(aliases: list[str]) -> st.SearchStrategy[SqlExpr]:
    leaf = _leaf_strategy(aliases)
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["AND", "OR"]), children, children).map(
                lambda t: SqlBinary(t[0], t[1], t[2])
            ),
            children.map(SqlNot),
        ),
        max_leaves=6,
    )


@st.composite
def query_trees(draw) -> QueryTree:
    tree = QueryTree()
    tree.add_binding("Client", "Client")
    two_bindings = draw(st.booleans())
    if two_bindings:
        tree.add_binding("Account", "Account")
        # The equi-join lives in WHERE, conjoined with the random predicate.
        join = SqlBinary("=", SqlColumn("A", "ClientID"), SqlColumn("B", "ClientID"))
        predicate = draw(_predicate_strategy(["A", "B"]))
        tree.where = SqlBinary("AND", join, predicate)
        output_pool = [
            EntityOutput("A", "Client"),
            EntityOutput("B", "Account"),
            ColumnOutput(SqlColumn("B", "Balance")),
            ColumnOutput(SqlColumn("A", "Name")),
        ]
    else:
        tree.where = draw(_predicate_strategy(["A"]))
        output_pool = [
            EntityOutput("A", "Client"),
            ColumnOutput(SqlColumn("A", "Name")),
            ColumnOutput(SqlColumn("A", "ClientID")),
        ]
    first = draw(st.sampled_from(output_pool))
    shape = draw(st.sampled_from(["single", "pair", "tuple"]))
    if shape == "single":
        tree.output = first
    elif shape == "pair":
        tree.output = PairOutput(first=first, second=draw(st.sampled_from(output_pool)))
    else:
        tree.output = TupleOutput(
            items=(first, draw(st.sampled_from(output_pool)))
        )
    return tree


def _normalise(value: object) -> object:
    """Entities compare by (class, pk); Pairs/tuples recurse."""
    if isinstance(value, Entity):
        return (type(value).__name__, value.primary_key_value)
    if isinstance(value, Pair):
        return ("pair", _normalise(value.getFirst()), _normalise(value.getSecond()))
    if isinstance(value, tuple):
        return tuple(_normalise(item) for item in value)
    return value


def _run(tree: QueryTree) -> list[str]:
    """The rows the engine returns for the generated SQL."""
    database = make_bank_db()
    generated = SqlGenerator(make_bank_mapping()).generate(tree)
    result = execute_generated_query(
        database.begin_transaction(), generated, {}, None
    )
    return sorted(repr(_normalise(item)) for item in result.to_list())


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _truth(expression: SqlExpr, row: dict[str, dict[str, object]]) -> object:
    """SQL three-valued logic: True, False or None for UNKNOWN."""
    if isinstance(expression, SqlLiteral):
        return expression.value
    if isinstance(expression, SqlColumn):
        return row[expression.binding][expression.column]
    if isinstance(expression, SqlNot):
        operand = _truth(expression.operand, row)
        return None if operand is None else not operand
    assert isinstance(expression, SqlBinary)
    left = _truth(expression.left, row)
    right = _truth(expression.right, row)
    if expression.op == "AND":
        if left is False or right is False:
            return False
        return None if left is None or right is None else True
    if expression.op == "OR":
        if left is True or right is True:
            return True
        return None if left is None or right is None else False
    if left is None or right is None:
        return None
    return _COMPARE[expression.op](left, right)


def _project(output: object, row: dict[str, dict[str, object]], tree: QueryTree) -> object:
    """The normalised value one output shape takes on a qualifying row."""
    if isinstance(output, EntityOutput):
        entity = tree.binding(output.binding).entity_name
        return (entity, row[output.binding][_ROW_COLUMNS[entity][0]])
    if isinstance(output, ColumnOutput):
        return _truth(output.expression, row)
    if isinstance(output, PairOutput):
        return ("pair", _project(output.first, row, tree), _project(output.second, row, tree))
    assert isinstance(output, TupleOutput)
    return tuple(_project(item, row, tree) for item in output.items)


def _evaluate(tree: QueryTree) -> list[str]:
    """The rows the tree means, computed in Python over the bank rows."""
    tables = [
        [
            dict(zip(_ROW_COLUMNS[binding.entity_name], values))
            for values in _ROWS[binding.entity_name]
        ]
        for binding in tree.bindings
    ]
    predicates = [tree.where, *tree.join_conditions]
    rows = []
    for combination in itertools.product(*tables):
        row = {binding.alias: values for binding, values in zip(tree.bindings, combination)}
        if all(p is None or _truth(p, row) is True for p in predicates):
            rows.append(repr(_project(tree.output, row, tree)))
    return sorted(rows)


@settings(max_examples=80, deadline=None)
@given(tree=query_trees())
def test_generated_sql_returns_the_trees_rows(tree: QueryTree) -> None:
    assert _run(tree) == _evaluate(tree)
