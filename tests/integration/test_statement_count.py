"""A rewritten TPC-W query is one SQL statement: the entities it returns
escape to the caller whole, so the caller's field reads issue nothing more,
and the identity map still wins over a re-read row."""

from __future__ import annotations

import re

import pytest

from repro.core.sqlgen.generator import (
    EntityOutputPlan,
    PairOutputPlan,
    TupleOutputPlan,
)
from repro.orm.entity import Entity
from repro.orm.pair import Pair
from repro.tpcw import queries_queryll, queries_sql
from repro.tpcw.population import customer_uname

#: Paper query -> (Queryll wrapper, hand-written wrapper, argument).
WRAPPERS = {
    "getName": (queries_queryll.get_name, queries_sql.get_name, 7),
    "getCustomer": (
        queries_queryll.get_customer,
        queries_sql.get_customer,
        customer_uname(3),
    ),
    "doSubjectSearch": (
        queries_queryll.do_subject_search,
        queries_sql.do_subject_search,
        "ARTS",
    ),
    "doGetRelated": (queries_queryll.do_get_related, queries_sql.do_get_related, 9),
}

#: Entity outputs each paper query returns to its caller.
ESCAPING_ENTITIES = {
    "getName": 0,
    "getCustomer": 3,
    "doSubjectSearch": 2,
    "doGetRelated": 5,
}


def _entity_plans(plan) -> list[EntityOutputPlan]:
    if isinstance(plan, EntityOutputPlan):
        return [plan]
    if isinstance(plan, PairOutputPlan):
        return _entity_plans(plan.first) + _entity_plans(plan.second)
    if isinstance(plan, TupleOutputPlan):
        return [entity for item in plan.items for entity in _entity_plans(item)]
    return []


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_wrapper_and_field_reads_issue_one_statement(tpcw_db, name) -> None:
    rewritten, handwritten, argument = WRAPPERS[name]
    function = queries_queryll.QUERY_FUNCTIONS[name]
    em = tpcw_db.entity_manager()
    rewritten_calls = function.rewritten_calls
    result = rewritten(em, argument)
    assert function.rewritten_calls == rewritten_calls + 1
    assert em.queries_executed == 1
    expected = handwritten(tpcw_db.connection(), argument)
    if name == "doGetRelated":  # both come back in plan order
        result, expected = sorted(result), sorted(expected)
    assert result == expected


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_escaping_entities_select_every_mapped_column(tpcw_db, name) -> None:
    mapping = tpcw_db.orm.mapping
    generated = queries_queryll.QUERY_FUNCTIONS[name].analysis(mapping).rewritten.generated
    select_list = generated.sql.split(" FROM ")[0]
    selected = set(re.findall(r"\(([A-Z]\d?\.[A-Z0-9_]+)\)", select_list))
    entities = _entity_plans(generated.output_plan)
    assert len(entities) == ESCAPING_ENTITIES[name]
    for entity in entities:
        columns = [field.column for field in mapping.entity(entity.entity_name).fields]
        assert [key for _, key in entity.columns] == [c.lower() for c in columns]
        for column in columns:
            assert f"{entity.binding}.{column.upper()}" in selected


def _entity_rows(value: object) -> object:
    """Entities as (entity, every mapped column value); Pairs/tuples recurse."""
    if isinstance(value, Entity):
        mapping = type(value)._mapping
        return (
            mapping.entity_name,
            tuple(value._column_value(field.column) for field in mapping.fields),
        )
    if isinstance(value, Pair):
        return ("pair", _entity_rows(value.getFirst()), _entity_rows(value.getSecond()))
    if isinstance(value, tuple):
        return tuple(_entity_rows(item) for item in value)
    return value


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_rewritten_entities_carry_the_unrewritten_columns(tpcw_db, name) -> None:
    function = queries_queryll.QUERY_FUNCTIONS[name]
    argument = WRAPPERS[name][2]
    rewritten = function(tpcw_db.entity_manager(), argument).to_list()
    unrewritten = function.original(tpcw_db.entity_manager(), argument).to_list()
    assert rewritten
    assert sorted(map(repr, map(_entity_rows, rewritten))) == sorted(
        map(repr, map(_entity_rows, unrewritten))
    )


def test_wrappers_agree_with_unrewritten_loop(tpcw_db) -> None:
    username = customer_uname(3)
    rewritten = queries_queryll.get_customer(tpcw_db.entity_manager(), username)
    unrewritten_pairs = queries_queryll.get_customer_loop.original(
        tpcw_db.entity_manager(), username
    ).to_list()
    assert len(unrewritten_pairs) == 1
    pair = unrewritten_pairs[0]
    assert rewritten["c_uname"] == pair.getFirst().uname
    assert rewritten["c_fname"] == pair.getFirst().firstName
    assert rewritten["co_name"] == pair.getSecond().getSecond().name


class TestIdentityMap:
    def test_rewritten_row_for_a_cached_key_yields_the_found_instance(
        self, tpcw_db
    ) -> None:
        em = tpcw_db.entity_manager()
        related = em.find("Item", 1)._column_value("i_related1")
        found = em.find("Item", related)
        before = em.queries_executed
        row = queries_queryll.do_get_related_loop(em, 1).to_list()[0]
        assert any(item is found for item in row)
        # An instance the query built is what find returns, from memory.
        assert em.find("Item", row[1].itemId) is row[1]
        assert em.queries_executed == before + 1

    def test_reread_row_keeps_a_locally_modified_field(self, tpcw_db) -> None:
        em = tpcw_db.entity_manager()
        item = queries_queryll.do_get_related_loop(em, 3).to_list()[0][1]
        item.stock = 123456
        again = queries_queryll.do_get_related_loop(em, 3).to_list()[0][1]
        assert again is item
        assert item.stock == 123456
        assert item in em.dirty_entities
