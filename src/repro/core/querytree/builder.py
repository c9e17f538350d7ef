"""Interpretation of analysed paths into a relational query tree.

The symbolic expressions produced by backward substitution talk about entity
getters, relationship navigation, outer variables and constants.  This module
maps them onto the ORM mapping: getters become columns, navigation becomes
joins, outer variables become SQL parameters, ``Pair`` construction becomes a
projection — producing a :class:`~repro.core.querytree.nodes.QueryTree` ready
for SQL generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.analysis.substitution import PathAnalysis
from repro.core.expr import nodes
from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    Output,
    PairOutput,
    QueryTree,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlLiteral,
    SqlNot,
    SqlParam,
    TupleOutput,
)
from repro.orm.mapping import OrmMapping
from repro.errors import UnsupportedQueryError

_COMPARISON_MAP = {
    "==": "=",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})


@dataclass(frozen=True)
class _EntityValue:
    """An intermediate interpretation result denoting a whole entity."""

    alias: str
    entity_name: str


_Interpreted = Union[_EntityValue, SqlColumn, SqlLiteral, SqlParam, SqlBinary, SqlNot]


class QueryTreeBuilder:
    """Builds query trees from analysed paths, given an ORM mapping."""

    def __init__(self, mapping: OrmMapping) -> None:
        self._mapping = mapping

    # -- public API -----------------------------------------------------------------

    def build(
        self,
        source_expression: nodes.Expression,
        path_analyses: Sequence[PathAnalysis],
    ) -> QueryTree:
        """Build the query tree for a loop given its per-path analyses."""
        if not path_analyses:
            raise UnsupportedQueryError("a query needs at least one path")
        entity_name = self.resolve_source_entity(source_expression)
        entity_mapping = self._mapping.entity(entity_name)

        tree = QueryTree()
        tree.add_binding(entity_name, entity_mapping.table)
        state = _BuildState(tree=tree)

        conditions: list[Optional[SqlExpr]] = []
        outputs: list[Output] = []
        for analysis in path_analyses:
            conditions.append(self._build_condition(state, analysis.condition))
            outputs.append(
                self._build_output(state, analysis.value, analysis.add_method)
            )

        first_output = outputs[0]
        for other in outputs[1:]:
            if other != first_output:
                raise UnsupportedQueryError(
                    "every path of a query must add the same kind of value "
                    "to the destination collection"
                )
        tree.output = first_output

        tree.where = _or_conditions(conditions)
        tree.parameter_sources = list(state.parameter_sources)
        return tree

    def resolve_source_entity(self, source_expression: nodes.Expression) -> str:
        """Determine which entity the source collection ranges over.

        Supported shapes: ``em.allClient()`` (Java-style generated accessor)
        and ``em.all(Client)`` / ``em.all('Client')`` (Python-style).
        """
        if isinstance(source_expression, nodes.Call):
            method = source_expression.method
            if method.startswith("all") and len(method) > 3 and not source_expression.args:
                entity_name = method[3:]
                if self._mapping.has_entity(entity_name):
                    return entity_name
            if method == "all" and len(source_expression.args) == 1:
                argument = source_expression.args[0]
                if isinstance(argument, nodes.Var) and self._mapping.has_entity(
                    argument.name
                ):
                    return argument.name
                if isinstance(argument, nodes.Constant) and isinstance(
                    argument.value, str
                ) and self._mapping.has_entity(argument.value):
                    return argument.value
        raise UnsupportedQueryError(
            "cannot determine which entity the source collection iterates over "
            f"(source expression: {source_expression!r})"
        )

    # -- conditions ---------------------------------------------------------------------

    def _build_condition(
        self, state: "_BuildState", condition: nodes.Expression
    ) -> Optional[SqlExpr]:
        """Interpret one path condition into a SQL predicate.

        Returns ``None`` for the always-true condition (an unconditional
        ``add``); the logical optimizer later normalises and prunes the
        combined predicate, so no simplification happens here.
        """
        if isinstance(condition, nodes.Constant) and condition.value is True:
            return None
        interpreted = self._interpret(state, condition)
        if isinstance(interpreted, _EntityValue):
            raise UnsupportedQueryError("a path condition cannot be a whole entity")
        return interpreted

    # -- outputs -------------------------------------------------------------------------

    def _build_output(
        self, state: "_BuildState", value: nodes.Expression, add_method: str
    ) -> Output:
        """Interpret the value a path adds to the destination collection.

        The resulting :class:`Output` shape drives SQL generation: entity
        outputs expand to every mapped column, column outputs to single
        ``AS COLn`` items.
        """
        if add_method == "addAll":
            return self._build_addall_output(state, value)
        return self._output_of(state, value)

    def _output_of(self, state: "_BuildState", value: nodes.Expression) -> Output:
        """Map an added value onto an output shape (entity, column, Pair,
        tuple), recursing through ``Pair``/tuple construction."""
        if isinstance(value, nodes.New) and value.class_name == "Pair":
            if len(value.args) != 2:
                raise UnsupportedQueryError("Pair construction needs two arguments")
            return PairOutput(
                first=self._output_of(state, value.args[0]),
                second=self._output_of(state, value.args[1]),
            )
        if isinstance(value, nodes.New) and value.class_name == "tuple":
            return TupleOutput(
                items=tuple(self._output_of(state, arg) for arg in value.args)
            )
        interpreted = self._interpret(state, value)
        if isinstance(interpreted, _EntityValue):
            return EntityOutput(
                binding=interpreted.alias, entity_name=interpreted.entity_name
            )
        return ColumnOutput(expression=interpreted)

    def _build_addall_output(
        self, state: "_BuildState", value: nodes.Expression
    ) -> Output:
        """Interpret an ``addAll`` value: a to-many navigation (which joins
        the target entity in) or ``Pair.pairCollection(...)``."""
        # Pair.pairCollection(x, entity.getAccounts()) -> Pair(x, joined entity)
        if isinstance(value, nodes.Call) and value.method.split(".")[-1] in (
            "pairCollection",
            "PairCollection",
            "pair_collection",
        ):
            if len(value.args) != 2:
                raise UnsupportedQueryError("pairCollection needs two arguments")
            first_output = self._output_of(state, value.args[0])
            second_output = self._to_many_output(state, value.args[1])
            return PairOutput(first=first_output, second=second_output)
        # addAll of a to-many navigation directly.
        return self._to_many_output(state, value)

    def _to_many_output(self, state: "_BuildState", value: nodes.Expression) -> Output:
        """Resolve a to-many relationship navigation into a joined entity
        output (``client.getAccounts()`` becomes a binding on Account)."""
        accessor = None
        receiver: Optional[nodes.Expression] = None
        if isinstance(value, nodes.Call) and value.receiver is not None and not value.args:
            accessor = value.method
            receiver = value.receiver
        elif isinstance(value, nodes.GetField):
            accessor = value.field
            receiver = value.receiver
        if accessor is None or receiver is None:
            raise UnsupportedQueryError(
                "addAll can only be used with a to-many relationship navigation "
                "or Pair.pairCollection(...)"
            )
        entity = self._interpret(state, receiver)
        if not isinstance(entity, _EntityValue):
            raise UnsupportedQueryError("to-many navigation requires an entity receiver")
        entity_mapping = self._mapping.entity(entity.entity_name)
        relationship = entity_mapping.relationship_by_accessor(accessor)
        if relationship is None or relationship.kind != "to_many":
            raise UnsupportedQueryError(
                f"{entity.entity_name}.{accessor} is not a to-many relationship"
            )
        joined = state.join(self._mapping, entity, relationship.name, relationship)
        return EntityOutput(binding=joined.alias, entity_name=joined.entity_name)

    # -- expression interpretation ----------------------------------------------------------

    def _interpret(self, state: "_BuildState", expression: nodes.Expression) -> _Interpreted:
        """Translate one symbolic expression into SQL terms.

        Constants become literals, outer variables become parameters,
        getters become columns, to-one navigation adds joins; whole-entity
        values surface as :class:`_EntityValue` so callers can decide
        whether an entity is legal in that position.
        """
        if isinstance(expression, nodes.Constant):
            return SqlLiteral(expression.value)
        if isinstance(expression, nodes.Var):
            return state.parameter(expression.name)
        if isinstance(expression, nodes.SourceEntity):
            binding = state.tree.bindings[0]
            return _EntityValue(alias=binding.alias, entity_name=binding.entity_name)
        if isinstance(expression, nodes.Cast):
            return self._interpret(state, expression.operand)
        if isinstance(expression, nodes.UnaryOp):
            return self._interpret_unary(state, expression)
        if isinstance(expression, nodes.BinOp):
            return self._interpret_binop(state, expression)
        if isinstance(expression, nodes.Call):
            return self._interpret_access(state, expression.receiver, expression.method,
                                          expression.args)
        if isinstance(expression, nodes.GetField):
            return self._interpret_access(state, expression.receiver, expression.field, ())
        if isinstance(expression, nodes.New):
            raise UnsupportedQueryError(
                f"object construction of {expression.class_name!r} is only "
                "supported as the value added to the destination collection"
            )
        raise UnsupportedQueryError(f"cannot translate expression {expression!r} to SQL")

    def _interpret_unary(
        self, state: "_BuildState", expression: nodes.UnaryOp
    ) -> _Interpreted:
        """``!`` becomes ``NOT``; arithmetic negation becomes ``0 - x``."""
        operand = self._interpret(state, expression.operand)
        if isinstance(operand, _EntityValue):
            raise UnsupportedQueryError("cannot apply an operator to a whole entity")
        if expression.op == "!":
            return SqlNot(operand)
        if expression.op == "neg":
            return SqlBinary("-", SqlLiteral(0), operand)
        raise UnsupportedQueryError(f"unsupported unary operator {expression.op!r}")

    def _interpret_binop(
        self, state: "_BuildState", expression: nodes.BinOp
    ) -> _Interpreted:
        """Comparisons, logic and arithmetic; comparing two entities with
        ``==``/``!=`` compares their primary-key columns."""
        left = self._interpret(state, expression.left)
        right = self._interpret(state, expression.right)
        op = expression.op

        if isinstance(left, _EntityValue) or isinstance(right, _EntityValue):
            if (
                op in ("==", "!=")
                and isinstance(left, _EntityValue)
                and isinstance(right, _EntityValue)
            ):
                # Comparing two entities compares their primary keys.
                left_column = self._primary_key_column(left)
                right_column = self._primary_key_column(right)
                return SqlBinary(_COMPARISON_MAP[op], left_column, right_column)
            raise UnsupportedQueryError(
                "entities can only be compared to other entities with == or !="
            )

        if op in ("&&", "||"):
            return SqlBinary("AND" if op == "&&" else "OR", left, right)
        if op in _COMPARISON_MAP:
            return SqlBinary(_COMPARISON_MAP[op], left, right)
        if op in _ARITHMETIC_OPS:
            return SqlBinary(op, left, right)
        raise UnsupportedQueryError(f"unsupported operator {op!r}")

    def _interpret_access(
        self,
        state: "_BuildState",
        receiver: Optional[nodes.Expression],
        accessor: str,
        args: tuple[nodes.Expression, ...],
    ) -> _Interpreted:
        """Resolve a getter/field access against the ORM mapping: a mapped
        field reads as its column, a to-one relationship joins its target
        entity in (reusing the binding on repeated navigation)."""
        if receiver is None:
            raise UnsupportedQueryError(
                f"static call {accessor!r} cannot be translated to SQL"
            )
        if accessor == "equals" and len(args) == 1:
            comparison = nodes.BinOp("==", receiver, args[0])
            return self._interpret_binop(state, comparison)
        if args:
            raise UnsupportedQueryError(
                f"method {accessor!r} with arguments cannot be translated to SQL"
            )
        target = self._interpret(state, receiver)
        if not isinstance(target, _EntityValue):
            raise UnsupportedQueryError(
                f"cannot read {accessor!r} of a non-entity value"
            )
        entity_mapping = self._mapping.entity(target.entity_name)
        field = entity_mapping.field_by_accessor(accessor)
        if field is not None:
            return SqlColumn(binding=target.alias, column=field.column)
        relationship = entity_mapping.relationship_by_accessor(accessor)
        if relationship is not None:
            if relationship.kind != "to_one":
                raise UnsupportedQueryError(
                    f"to-many relationship {accessor!r} can only be used with addAll"
                )
            joined = state.join(self._mapping, target, relationship.name, relationship)
            return _EntityValue(alias=joined.alias, entity_name=joined.entity_name)
        raise UnsupportedQueryError(
            f"{target.entity_name} has no field or relationship {accessor!r}"
        )

    def _primary_key_column(self, entity: _EntityValue) -> SqlColumn:
        """The primary-key column reference of an entity binding."""
        mapping = self._mapping.entity(entity.entity_name)
        return SqlColumn(binding=entity.alias, column=mapping.primary_key.column)


# -- build state -----------------------------------------------------------------------


class _BuildState:
    """Mutable state shared across the paths of one query."""

    def __init__(self, tree: QueryTree) -> None:
        self.tree = tree
        self.parameter_sources: list[str] = []
        self._parameters: dict[str, SqlParam] = {}
        self._joins: dict[tuple[str, str], _EntityValue] = {}

    def parameter(self, name: str) -> SqlParam:
        """Get or create the SQL parameter bound from outer variable ``name``."""
        if name not in self._parameters:
            parameter = SqlParam(index=len(self.parameter_sources), source=name)
            self._parameters[name] = parameter
            self.parameter_sources.append(name)
        return self._parameters[name]

    def join(
        self,
        mapping: OrmMapping,
        source: _EntityValue,
        relationship_name: str,
        relationship,
    ) -> _EntityValue:
        """Get or create the binding for navigating ``relationship`` from
        ``source``, adding the equi-join condition to the tree."""
        key = (source.alias, relationship_name)
        if key in self._joins:
            return self._joins[key]
        target_mapping = mapping.entity(relationship.target_entity)
        binding = self.tree.add_binding(relationship.target_entity, target_mapping.table)
        join_condition = SqlBinary(
            "=",
            SqlColumn(binding=source.alias, column=relationship.local_column),
            SqlColumn(binding=binding.alias, column=relationship.remote_column),
        )
        self.tree.add_join_condition(join_condition)
        joined = _EntityValue(alias=binding.alias, entity_name=binding.entity_name)
        self._joins[key] = joined
        return joined


def _or_conditions(conditions: Sequence[Optional[SqlExpr]]) -> Optional[SqlExpr]:
    """OR together per-path conditions (None meaning "always true")."""
    if any(condition is None for condition in conditions):
        return None
    result: Optional[SqlExpr] = None
    for condition in conditions:
        assert condition is not None
        result = condition if result is None else SqlBinary("OR", result, condition)
    return result
