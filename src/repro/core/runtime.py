"""Runtime support for rewritten queries.

A rewritten query method no longer iterates the whole database; instead it
calls :func:`execute_generated_query` with the generated SQL, the values of
its outer variables and the destination QuerySet.  Result rows turn back
into entities, Pairs and scalars through the result mapper compiled from the
:class:`~repro.core.sqlgen.generator.OutputPlan` when the SQL was generated.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.sqlgen.generator import (
    EntityOutputPlan,
    GeneratedSql,
    OutputPlan,
    PairOutputPlan,
)
from repro.orm.entity_manager import EntityManager, SqlBackedQuery
from repro.orm.queryset import QuerySet
from repro.errors import RewriteError


def bind_parameters(
    generated: GeneratedSql, variable_values: Mapping[str, object]
) -> tuple[object, ...]:
    """Bind the generated query's ``?`` parameters from outer variables."""
    values: list[object] = []
    for source in generated.parameter_sources:
        if source not in variable_values:
            raise RewriteError(
                f"no value supplied for outer variable {source!r} "
                f"(needed by the generated query)"
            )
        values.append(variable_values[source])
    return tuple(values)


def execute_generated_query(
    entity_manager: EntityManager,
    generated: GeneratedSql,
    variable_values: Mapping[str, object],
    destination: QuerySet | None = None,
) -> QuerySet:
    """Execute a generated query and fill the destination QuerySet."""
    params = bind_parameters(generated, variable_values)
    return entity_manager.execute_sql_query(
        generated.sql, params, generated.result_mapper, destination
    )


def lazy_generated_query(
    entity_manager: EntityManager,
    generated: GeneratedSql,
    variable_values: Mapping[str, object],
) -> QuerySet:
    """Build a *lazy* QuerySet for a generated query.

    The query only hits the database when the QuerySet is first iterated,
    which lets ordering and limit operations applied afterwards (the paper's
    ``sortedByDoubleDescending`` / ``firstN``) be folded into the SQL.
    """
    params = bind_parameters(generated, variable_values)
    entity_name = (
        generated.output_plan.entity_name
        if isinstance(generated.output_plan, EntityOutputPlan)
        else None
    )
    query = SqlBackedQuery(
        entity_manager,
        generated.sql,
        params,
        generated.result_mapper,
        entity_name=entity_name,
        order_resolver=make_order_resolver(entity_manager, generated.output_plan),
    )
    return QuerySet.lazy(query)


def make_order_resolver(entity_manager: EntityManager, plan: OutputPlan):
    """Build a resolver mapping sorter accessor chains to ORDER BY columns.

    The resolver walks the output plan: Pair accessors (``first``/``second``
    or their getters) descend into the pair structure, and the final accessor
    must name a field of the entity reached — yielding e.g. ``A.I_TITLE`` for
    a ``Pair<Item, Author>`` sorted by ``pair.getFirst().getTitle()``.
    """

    def resolve(accessors: tuple[str, ...]) -> str | None:
        current: OutputPlan = plan
        remaining = list(accessors)
        while remaining:
            accessor = remaining.pop(0)
            if isinstance(current, PairOutputPlan):
                if accessor in ("first", "getFirst"):
                    current = current.first
                    continue
                if accessor in ("second", "getSecond"):
                    current = current.second
                    continue
                return None
            if isinstance(current, EntityOutputPlan):
                if remaining:
                    return None
                mapping = entity_manager.mapping.entity(current.entity_name)
                field = mapping.field_by_accessor(accessor)
                if field is None:
                    return None
                return f"{current.binding}.{field.column}"
            return None
        return None

    return resolve
