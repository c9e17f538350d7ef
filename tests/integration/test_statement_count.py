"""A rewritten TPC-W query is one SQL statement: the entities it returns
escape to the caller whole, so the caller's field reads issue nothing more,
and the identity map still wins over a re-read row."""

from __future__ import annotations

import re

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryllPipeline
from repro.core.sqlgen.generator import (
    EntityOutputPlan,
    PairOutputPlan,
    TupleOutputPlan,
)
from repro.pyfrontend.decorator import query
from repro.pyfrontend.disassembler import lower_function
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


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_ablation_selects_the_same_entity_columns(tpcw_db, name) -> None:
    mapping = tpcw_db.orm.mapping
    function = queries_queryll.QUERY_FUNCTIONS[name]
    optimized = function.analysis(mapping).rewritten.generated
    pipeline = QueryllPipeline(mapping, optimizer_options=OptimizerOptions(optimize=False))
    report = pipeline.analyze_method(lower_function(function.original))
    unoptimized = report.queries[0].generated

    def entity_columns(generated) -> list[tuple[str, list[str]]]:
        return [
            (entity.entity_name, [key for _, key in entity.columns])
            for entity in _entity_plans(generated.output_plan)
        ]

    assert entity_columns(unoptimized) == entity_columns(optimized)


def test_wrappers_agree_with_unoptimized_pipeline(tpcw_db) -> None:
    @query(optimize=False)
    def get_customer_unoptimized(em, username):
        from repro.orm.pair import Pair
        from repro.orm.queryset import QuerySet
        result = QuerySet()
        for c in em.all('Customer'):
            if c.uname == username:
                result.add(Pair(c, Pair(c.address, c.address.country)))
        return result

    username = customer_uname(3)
    optimized = queries_queryll.get_customer(tpcw_db.entity_manager(), username)
    unoptimized_pairs = get_customer_unoptimized(
        tpcw_db.entity_manager(), username
    ).to_list()
    assert len(unoptimized_pairs) == 1
    pair = unoptimized_pairs[0]
    assert optimized["c_uname"] == pair.getFirst().uname
    assert optimized["c_fname"] == pair.getFirst().firstName
    assert optimized["co_name"] == pair.getSecond().getSecond().name


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
