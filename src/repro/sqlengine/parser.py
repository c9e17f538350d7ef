"""Recursive-descent parser for the SQL subset.

Grammar (roughly)::

    statement      := select | insert | update | delete | create_table
                    | create_index | drop_table | transaction
    transaction    := (BEGIN | COMMIT | ROLLBACK) [TRANSACTION | WORK]
                    | ROLLBACK [TRANSACTION | WORK] TO [SAVEPOINT] name
                    | SAVEPOINT name | RELEASE [SAVEPOINT] name
    select         := SELECT [DISTINCT] select_list FROM table_list
                      [WHERE expr] [ORDER BY order_list]
                      [LIMIT n [OFFSET m] | LIMIT m ',' n]
    expr           := or_expr
    or_expr        := and_expr (OR and_expr)*
    and_expr       := not_expr (AND not_expr)*
    not_expr       := NOT not_expr | comparison
    comparison     := additive (cmp_op additive | IS [NOT] NULL
                      | [NOT] IN '(' expr_list ')' | [NOT] LIKE additive)?
    additive       := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary          := '-' unary | primary
    primary        := literal | '?' | column_ref | function_call | '(' expr ')'
"""

from __future__ import annotations

from typing import Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.lexer import Token, TokenType, tokenize

_COMPARISON_OPERATORS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}


class SqlParser:
    """Parses a single SQL statement from text."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._index = 0
        self._param_count = 0

    # -- public API ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse one statement and require the input to be fully consumed."""
        statement = self._parse_statement()
        if self._check_punct(";"):
            self._advance()
        if not self._at_end():
            token = self._peek()
            raise SqlParseError(
                f"unexpected trailing token {token.value!r}", token.position
            )
        return statement

    @property
    def parameter_count(self) -> int:
        """Number of ``?`` placeholders seen while parsing."""
        return self._param_count

    # -- statements ---------------------------------------------------------

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            analyze = False
            if self._peek().is_keyword("ANALYZE"):
                self._advance()
                analyze = True
            inner = self._parse_statement()
            if analyze and not isinstance(inner, ast.SelectStatement):
                raise SqlParseError(
                    "EXPLAIN ANALYZE supports only SELECT statements "
                    "(it executes the statement)",
                    token.position,
                )
            if not isinstance(inner, ast.PlannedStatement):
                raise SqlParseError(
                    "EXPLAIN supports only SELECT, UPDATE and DELETE statements",
                    token.position,
                )
            return ast.ExplainStatement(statement=inner, analyze=analyze)
        if token.is_keyword("SELECT"):
            return self._parse_select()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("BEGIN", "COMMIT", "ROLLBACK"):
            self._advance()
            if self._peek().is_keyword("TRANSACTION", "WORK"):
                self._advance()
            if token.value == "ROLLBACK" and self._peek().is_keyword("TO"):
                self._advance()
                if self._peek().is_keyword("SAVEPOINT"):
                    self._advance()
                return ast.TransactionStatement(
                    action="ROLLBACK TO", savepoint=self._expect_name()
                )
            return ast.TransactionStatement(action=token.value)
        if token.is_keyword("SAVEPOINT"):
            self._advance()
            return ast.TransactionStatement(
                action="SAVEPOINT", savepoint=self._expect_name()
            )
        if token.is_keyword("CHECKPOINT"):
            self._advance()
            return ast.CheckpointStatement()
        if token.is_keyword("RELEASE"):
            self._advance()
            if self._peek().is_keyword("SAVEPOINT"):
                self._advance()
            return ast.TransactionStatement(
                action="RELEASE", savepoint=self._expect_name()
            )
        raise SqlParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = False
        if self._peek().is_keyword("DISTINCT"):
            distinct = True
            self._advance()

        items = [self._parse_select_item()]
        while self._check_punct(","):
            self._advance()
            items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        while self._check_punct(","):
            self._advance()
            tables.append(self._parse_table_ref())

        where = None
        if self._peek().is_keyword("WHERE"):
            self._advance()
            where = self._parse_expression()

        order_by: list[ast.OrderItem] = []
        if self._peek().is_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._check_punct(","):
                self._advance()
                order_by.append(self._parse_order_item())

        limit = None
        offset = None
        if self._peek().is_keyword("LIMIT"):
            self._advance()
            first = self._parse_expression()
            if self._check_punct(","):
                # MySQL-style "LIMIT offset, count" as used by TPC-W.
                self._advance()
                offset = first
                limit = self._parse_expression()
            else:
                limit = first
                if self._peek().is_keyword("OFFSET"):
                    self._advance()
                    offset = self._parse_expression()

        return ast.SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.SelectItem(star=True)
        # "alias.*"
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCTUATION
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(table_star=token.value)
        expression = self._parse_expression()
        alias = None
        if self._peek().is_keyword("AS"):
            self._advance()
            alias = self._expect_name()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_name()
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_table_ref(self) -> ast.TableRef:
        table = self._expect_name()
        alias = None
        if self._peek().is_keyword("AS"):
            self._advance()
            alias = self._expect_name()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_name()
        return ast.TableRef(table=table, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._peek().is_keyword("ASC"):
            self._advance()
        elif self._peek().is_keyword("DESC"):
            descending = True
            self._advance()
        return ast.OrderItem(expression=expression, descending=descending)

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_name()
        columns: list[str] = []
        if self._check_punct("("):
            self._advance()
            columns.append(self._expect_name())
            while self._check_punct(","):
                self._advance()
                columns.append(self._expect_name())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._check_punct(","):
            self._advance()
            rows.append(self._parse_value_row())
        return ast.InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self._expect_punct("(")
        values = [self._parse_expression()]
        while self._check_punct(","):
            self._advance()
            values.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(values)

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect_name()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._check_punct(","):
            self._advance()
            assignments.append(self._parse_assignment())
        where = None
        if self._peek().is_keyword("WHERE"):
            self._advance()
            where = self._parse_expression()
        return ast.UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        column = self._expect_name()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in {"=", "=="}:
            self._advance()
        else:
            raise SqlParseError("expected '=' in assignment", token.position)
        return column, self._parse_expression()

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_name()
        where = None
        if self._peek().is_keyword("WHERE"):
            self._advance()
            where = self._parse_expression()
        return ast.DeleteStatement(table=table, where=where)

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = False
        if self._peek().is_keyword("UNIQUE"):
            unique = True
            self._advance()
        if self._peek().is_keyword("TABLE"):
            self._advance()
            return self._parse_create_table()
        if self._peek().is_keyword("INDEX"):
            self._advance()
            return self._parse_create_index(unique)
        token = self._peek()
        raise SqlParseError(
            f"expected TABLE or INDEX after CREATE, got {token.value!r}",
            token.position,
        )

    def _parse_create_table(self) -> ast.CreateTableStatement:
        table = self._expect_name()
        self._expect_punct("(")
        columns = [self._parse_column_definition()]
        while self._check_punct(","):
            self._advance()
            columns.append(self._parse_column_definition())
        self._expect_punct(")")
        return ast.CreateTableStatement(table=table, columns=tuple(columns))

    def _parse_column_definition(self) -> ast.ColumnDefinition:
        name = self._expect_name()
        type_token = self._peek()
        if type_token.type not in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            raise SqlParseError(
                f"expected column type, got {type_token.value!r}", type_token.position
            )
        self._advance()
        type_name = type_token.value.upper()
        length: Optional[int] = None
        if self._check_punct("("):
            self._advance()
            length_token = self._peek()
            if length_token.type is not TokenType.INTEGER:
                raise SqlParseError("expected integer length", length_token.position)
            length = int(length_token.value)
            self._advance()
            self._expect_punct(")")
        primary_key = False
        unique = False
        nullable = True
        while True:
            token = self._peek()
            if token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                primary_key = True
                nullable = False
            elif token.is_keyword("UNIQUE"):
                self._advance()
                unique = True
            elif token.is_keyword("NOT"):
                self._advance()
                self._expect_keyword("NULL")
                nullable = False
            elif token.is_keyword("NULL"):
                self._advance()
                nullable = True
            else:
                break
        return ast.ColumnDefinition(
            name=name,
            type_name=type_name,
            primary_key=primary_key,
            unique=unique,
            nullable=nullable,
            length=length,
        )

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self._expect_name()
        self._expect_keyword("ON")
        table = self._expect_name()
        self._expect_punct("(")
        columns = [self._expect_name()]
        while self._check_punct(","):
            self._advance()
            columns.append(self._expect_name())
        self._expect_punct(")")
        return ast.CreateIndexStatement(
            name=name, table=table, columns=tuple(columns), unique=unique
        )

    def _parse_drop(self) -> ast.DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        return ast.DropTableStatement(table=self._expect_name())

    # -- expressions --------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._peek().is_keyword("OR"):
            self._advance()
            right = self._parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._peek().is_keyword("AND"):
            self._advance()
            right = self._parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._peek().is_keyword("NOT"):
            self._advance()
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPERATORS:
            self._advance()
            right = self._parse_additive()
            op = token.value
            if op == "==":
                op = "="
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, right)
        if token.is_keyword("IS"):
            self._advance()
            negated = False
            if self._peek().is_keyword("NOT"):
                negated = True
                self._advance()
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN", "LIKE"):
            negated = True
            self._advance()
            token = self._peek()
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            items = [self._parse_expression()]
            while self._check_punct(","):
                self._advance()
                items.append(self._parse_expression())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if token.is_keyword("LIKE"):
            self._advance()
            right = self._parse_additive()
            expr: ast.Expression = ast.BinaryOp("LIKE", left, right)
            if negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in {"+", "-"}:
                self._advance()
                right = self._parse_multiplicative()
                left = ast.BinaryOp(token.value, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in {"*", "/", "%"}:
                self._advance()
                right = self._parse_unary()
                left = ast.BinaryOp(token.value, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.INTEGER:
            self._advance()
            return ast.Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return ast.Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAMETER:
            self._advance()
            parameter = ast.Parameter(self._param_count)
            self._param_count += 1
            return parameter
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("COUNT") or (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCTUATION
            and self._peek(1).value == "("
        ):
            return self._parse_function_call()
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.type is TokenType.IDENTIFIER or token.type is TokenType.KEYWORD:
            return self._parse_column_ref()
        raise SqlParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_function_call(self) -> ast.Expression:
        name_token = self._peek()
        self._advance()
        self._expect_punct("(")
        star = False
        args: list[ast.Expression] = []
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            star = True
            self._advance()
        elif not self._check_punct(")"):
            args.append(self._parse_expression())
            while self._check_punct(","):
                self._advance()
                args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(
            name=name_token.value.upper(), args=tuple(args), star=star
        )

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = self._expect_name()
        if self._check_punct("."):
            self._advance()
            second = self._expect_name()
            return ast.ColumnRef(table=first, column=second)
        return ast.ColumnRef(table=None, column=first)

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _at_end(self) -> bool:
        return self._peek().type is TokenType.EOF

    def _check_punct(self, value: str) -> bool:
        token = self._peek()
        return token.type is TokenType.PUNCTUATION and token.value == value

    def _expect_punct(self, value: str) -> None:
        if not self._check_punct(value):
            token = self._peek()
            raise SqlParseError(
                f"expected {value!r}, got {token.value!r}", token.position
            )
        self._advance()

    def _expect_keyword(self, keyword: str) -> None:
        token = self._peek()
        if not token.is_keyword(keyword):
            raise SqlParseError(
                f"expected {keyword}, got {token.value!r}", token.position
            )
        self._advance()

    def _expect_name(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # Allow non-reserved keywords (e.g. a column named "date") as names.
        if token.type is TokenType.KEYWORD and token.value not in {
            "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "ORDER", "LIMIT",
            "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "VALUES", "SET",
        }:
            self._advance()
            return token.value
        raise SqlParseError(f"expected identifier, got {token.value!r}", token.position)


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement from ``text``."""
    return SqlParser(text).parse_statement()


def count_parameters(text: str) -> int:
    """Return how many ``?`` placeholders appear in ``text``."""
    parser = SqlParser(text)
    parser.parse_statement()
    return parser.parameter_count
