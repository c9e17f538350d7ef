"""Select-item deduplication must keep ``?`` placeholders and the bound
parameter list in lockstep (regression: dedup used to key on rendered text,
where every parameter renders as ``?``)."""

from __future__ import annotations

from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    PairOutput,
    QueryTree,
    SqlBinary,
    SqlColumn,
    SqlLiteral,
    SqlParam,
    TupleOutput,
)
from repro.core.sqlgen.generator import SqlGenerator
from repro.testing import make_bank_db, make_bank_mapping


def _tree(output, where=None) -> QueryTree:
    tree = QueryTree()
    tree.add_binding("Client", "Client")
    tree.output = output
    tree.where = where
    return tree


class TestSelectItemDedup:
    def test_distinct_parameters_are_not_collapsed(self) -> None:
        generated = SqlGenerator(make_bank_mapping()).generate(
            _tree(
                TupleOutput(
                    items=(
                        ColumnOutput(SqlParam(0, "x")),
                        ColumnOutput(SqlParam(1, "y")),
                    )
                ),
                where=SqlBinary(
                    "=", SqlColumn("A", "ClientID"), SqlParam(2, "cid")
                ),
            )
        )
        assert len(generated.select_items) == 2
        # One bound value per placeholder, in textual order.
        assert generated.sql.count("?") == len(generated.parameter_sources) == 3
        assert generated.parameter_sources == ["x", "y", "cid"]

    def test_identical_expressions_share_one_select_item(self) -> None:
        column = ColumnOutput(SqlColumn("A", "Name"))
        generated = SqlGenerator(make_bank_mapping()).generate(
            _tree(TupleOutput(items=(column, column)))
        )
        assert len(generated.select_items) == 1
        plan = generated.output_plan
        assert plan.items[0] == plan.items[1]

    def test_repeated_identical_parameter_binds_once(self) -> None:
        parameter = ColumnOutput(SqlParam(0, "x"))
        generated = SqlGenerator(make_bank_mapping()).generate(
            _tree(TupleOutput(items=(parameter, parameter)))
        )
        assert len(generated.select_items) == 1
        assert generated.sql.count("?") == len(generated.parameter_sources) == 1

    def test_repeated_entity_output_is_emitted_once_and_executes(self) -> None:
        entity = EntityOutput("A", "Client")
        generated = SqlGenerator(make_bank_mapping()).generate(
            _tree(
                PairOutput(first=entity, second=entity),
                where=SqlBinary("=", SqlColumn("A", "ClientID"), SqlLiteral(1000)),
            )
        )
        aliases = [item.split(" AS ")[1] for item in generated.select_items]
        assert len(aliases) == len(set(aliases))

        from repro.core.runtime import execute_generated_query

        em = make_bank_db().begin_transaction()
        pair = execute_generated_query(em, generated, {}, None).to_list()[0]
        assert pair.getFirst() is pair.getSecond()
        assert pair.getFirst().clientId == 1000


class TestPositionalResultMapper:
    def test_plans_carry_their_select_list_positions(self) -> None:
        mapping = make_bank_mapping()
        generated = SqlGenerator(mapping).generate(
            _tree(
                TupleOutput(
                    items=(
                        ColumnOutput(SqlColumn("A", "Name")),
                        EntityOutput("A", "Client"),
                    )
                )
            )
        )
        column_plan, entity_plan = generated.output_plan.items
        assert column_plan.position == 0
        fields = mapping.entity("Client").fields
        assert entity_plan.columns == tuple(
            (position, field.column.lower())
            for position, field in enumerate(fields, start=1)
        )
        for position, key in entity_plan.columns:
            alias = generated.select_items[position].split(" AS ")[1]
            assert alias == f"A_{key}".upper()

    def test_mapper_reads_rows_by_position_not_column_name(self) -> None:
        generated = SqlGenerator(make_bank_mapping()).generate(
            _tree(
                PairOutput(
                    first=ColumnOutput(SqlColumn("A", "Country")),
                    second=EntityOutput("A", "Client"),
                )
            )
        )
        em = make_bank_db().begin_transaction()
        row = (
            "Narnia", 4242, "Zed", "2 Side Street", "Narnia", "N1",
        )
        # The column names are never consulted: rename them all.
        [pair] = generated.result_mapper(em, ["?"] * len(row), [row])
        assert pair.getFirst() == "Narnia"
        client = pair.getSecond()
        assert (client.clientId, client.name, client.postalCode) == (4242, "Zed", "N1")
        assert em.find("Client", 4242) is client
        assert em.queries_executed == 0
