"""SQL text generation from query trees.

The generator turns a :class:`~repro.core.querytree.nodes.QueryTree` into

* the SQL text (SELECT/FROM/WHERE and optional ORDER BY / LIMIT),
* the ordered list of outer variables to bind to the ``?`` parameters, and
* an *output plan* describing how result rows map back to entities, Pairs or
  scalar values, compiled once into the result mapper
  :mod:`repro.core.runtime` executes with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    Output,
    PairOutput,
    QueryTree,
    TupleOutput,
)
from repro.core.sqlgen.dialect import ExpressionRenderer, render_column
from repro.orm.entity_manager import EntityManager, ResultMapper
from repro.orm.mapping import OrmMapping
from repro.orm.pair import Pair
from repro.errors import RewriteError


@dataclass(frozen=True)
class EntityOutputPlan:
    """Result rows carry every mapped column of one entity binding.

    ``columns`` holds a ``(select-list position, column key)`` pair per
    mapped column; the key is the lower-case column name the entity stores
    its row data under.
    """

    entity_name: str
    binding: str
    columns: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class ColumnOutputPlan:
    """Result rows carry one computed column at select-list ``position``."""

    position: int


@dataclass(frozen=True)
class PairOutputPlan:
    """Result rows are mapped into :class:`~repro.orm.pair.Pair` objects."""

    first: "OutputPlan"
    second: "OutputPlan"


@dataclass(frozen=True)
class TupleOutputPlan:
    """Result rows are mapped into plain tuples."""

    items: tuple["OutputPlan", ...]


OutputPlan = Union[
    EntityOutputPlan, ColumnOutputPlan, PairOutputPlan, TupleOutputPlan
]


@dataclass
class GeneratedSql:
    """The outcome of SQL generation for one query loop.

    ``result_mapper`` is ``output_plan`` compiled once, when the SQL is
    generated; every execution of the query maps its rows through it.
    """

    sql: str
    parameter_sources: list[str]
    output_plan: OutputPlan
    source_entity: str
    select_items: list[str] = field(default_factory=list)
    result_mapper: ResultMapper = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.result_mapper = compile_result_mapper(self.output_plan)

    def describe(self) -> str:
        """Readable multi-line description (used by docs and benches)."""
        lines = [self.sql]
        if self.parameter_sources:
            lines.append(f"-- parameters: {', '.join(self.parameter_sources)}")
        return "\n".join(lines)


class SqlGenerator:
    """Generates SQL text in the paper's style from query trees."""

    def __init__(self, mapping: OrmMapping) -> None:
        self._mapping = mapping

    def generate(self, tree: QueryTree) -> GeneratedSql:
        """Generate the SELECT statement for ``tree``.

        An entity output escapes the query to code the rewriter cannot see,
        so it expands to every mapped column of its binding; identical
        projected expressions and repeated entity outputs are emitted once
        (redundant-projection elimination).
        """
        if tree.output is None:
            raise RewriteError("query tree has no output")
        renderer = ExpressionRenderer()

        select_items: list[str] = []
        state = _SelectState()
        output_plan = self._plan_output(tree.output, select_items, renderer, state)

        from_clause = ", ".join(
            f"{binding.table} AS {binding.alias}" for binding in tree.bindings
        )

        where_parts: list[str] = []
        if tree.where is not None:
            where_parts.append(f"( {renderer.render(tree.where)} )")
        for join_condition in tree.join_conditions:
            where_parts.append(
                f"{render_column(join_condition.left)} = "  # type: ignore[arg-type]
                f"{render_column(join_condition.right)}"  # type: ignore[arg-type]
            )

        sql = f"SELECT {', '.join(select_items)} FROM {from_clause}"
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)

        if tree.order_by:
            order_items = []
            for expression, descending in tree.order_by:
                rendered = renderer.render(expression)
                order_items.append(rendered + (" DESC" if descending else ""))
            sql += " ORDER BY " + ", ".join(order_items)
        if tree.limit is not None:
            sql += f" LIMIT {tree.limit}"
        if tree.offset is not None:
            sql += f" OFFSET {tree.offset}"

        return GeneratedSql(
            sql=sql,
            parameter_sources=list(renderer.parameter_sources),
            output_plan=output_plan,
            source_entity=tree.bindings[0].entity_name,
            select_items=select_items,
        )

    # -- internals --------------------------------------------------------------------

    def _plan_output(
        self,
        output: Output,
        select_items: list[str],
        renderer: ExpressionRenderer,
        state: "_SelectState",
    ) -> OutputPlan:
        if isinstance(output, ColumnOutput):
            # Deduplicate on the expression *node*, not its rendered text:
            # rendering has a side effect (parameters are recorded in
            # textual order) and distinct parameters all render as "?".
            position = state.column_positions.get(output.expression)
            if position is None:
                position = len(select_items)
                label = f"COL{len(state.column_positions)}"
                state.column_positions[output.expression] = position
                select_items.append(
                    f"({renderer.render(output.expression)}) AS {label}"
                )
            return ColumnOutputPlan(position=position)
        if isinstance(output, EntityOutput):
            return self._plan_entity_output(output, select_items, state)
        if isinstance(output, PairOutput):
            first = self._plan_output(output.first, select_items, renderer, state)
            second = self._plan_output(output.second, select_items, renderer, state)
            return PairOutputPlan(first=first, second=second)
        if isinstance(output, TupleOutput):
            return TupleOutputPlan(
                items=tuple(
                    self._plan_output(item, select_items, renderer, state)
                    for item in output.items
                )
            )
        raise RewriteError(f"unknown output shape {output!r}")

    def _plan_entity_output(
        self,
        output: EntityOutput,
        select_items: list[str],
        state: "_SelectState",
    ) -> EntityOutputPlan:
        cached = state.entity_plans.get(output.binding)
        if cached is not None:
            return cached
        entity_mapping = self._mapping.entity(output.entity_name)
        columns: list[tuple[int, str]] = []
        for column_field in entity_mapping.fields:
            alias = f"{output.binding}_{column_field.column}".upper()
            columns.append((len(select_items), column_field.column.lower()))
            select_items.append(
                f"({output.binding}.{column_field.column.upper()}) AS {alias}"
            )
        plan = EntityOutputPlan(
            entity_name=output.entity_name,
            binding=output.binding,
            columns=tuple(columns),
        )
        state.entity_plans[output.binding] = plan
        return plan


@dataclass
class _SelectState:
    """Per-generation bookkeeping for select-item deduplication."""

    #: Projected expression node -> its select-list position.
    column_positions: dict[object, int] = field(default_factory=dict)
    #: Binding alias -> already-emitted entity output plan.
    entity_plans: dict[str, "EntityOutputPlan"] = field(default_factory=dict)


#: Reads one output value from a result row, given the EntityManager's
#: ``materialise_entity``.
_ValueReader = Callable[[Callable[[str, dict], object], tuple], object]


def compile_result_mapper(plan: OutputPlan) -> ResultMapper:
    """Compile an output plan into one function that maps a result's rows.

    Every value's select-list position is fixed when the SQL is generated,
    so the mapper reads rows by position and never looks at column names.
    """
    read = _value_reader(plan)

    def map_rows(
        entity_manager: EntityManager,
        columns: Sequence[str],
        rows: Sequence[tuple[object, ...]],
    ) -> list[object]:
        materialise = entity_manager.materialise_entity
        return [read(materialise, row) for row in rows]

    return map_rows


def _value_reader(plan: OutputPlan) -> _ValueReader:
    if isinstance(plan, ColumnOutputPlan):
        position = plan.position
        return lambda materialise, row: row[position]
    if isinstance(plan, EntityOutputPlan):
        entity_name, layout = plan.entity_name, plan.columns
        return lambda materialise, row: materialise(
            entity_name, {key: row[position] for position, key in layout}
        )
    if isinstance(plan, PairOutputPlan):
        first, second = _value_reader(plan.first), _value_reader(plan.second)
        return lambda materialise, row: Pair(
            first(materialise, row), second(materialise, row)
        )
    if isinstance(plan, TupleOutputPlan):
        items = tuple(_value_reader(item) for item in plan.items)
        return lambda materialise, row: tuple(
            [item(materialise, row) for item in items]
        )
    raise RewriteError(f"unknown output plan {plan!r}")
