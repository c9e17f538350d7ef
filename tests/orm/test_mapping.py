"""Tests for ORM mapping descriptions and validation."""

from __future__ import annotations

import pytest

from repro.errors import OrmError
from repro.orm import EntityMapping, FieldMapping, OrmMapping, RelationshipMapping
from repro.sqlengine.catalog import SqlType


def client_mapping() -> EntityMapping:
    return EntityMapping(
        "Client",
        "Client",
        fields=[
            FieldMapping("clientId", "ClientID", SqlType.INTEGER, primary_key=True),
            FieldMapping("name", "Name", SqlType.TEXT),
        ],
    )


class TestFieldMapping:
    def test_getter_name(self) -> None:
        assert FieldMapping("minBalance", "MinBalance").getter == "getMinBalance"
        assert FieldMapping("name", "Name").getter == "getName"


class TestEntityMapping:
    def test_lookup_by_name_getter_and_column(self) -> None:
        mapping = client_mapping()
        assert mapping.field_by_name("name").column == "Name"
        assert mapping.field_by_accessor("getName").name == "name"
        assert mapping.field_by_column("NAME").name == "name"
        assert mapping.field_by_name("missing") is None

    def test_relationship_lookup_by_name_and_getter(self) -> None:
        mapping = EntityMapping(
            "Account",
            "Account",
            fields=[FieldMapping("accountId", "AccountID", SqlType.INTEGER, primary_key=True)],
            relationships=[RelationshipMapping("holder", "Client", "ClientID", "ClientID")],
        )
        holder = mapping.relationship_by_accessor("holder")
        assert holder is not None and holder.target_entity == "Client"
        assert mapping.relationship_by_accessor("getHolder") is holder
        assert mapping.relationship_by_accessor("accountId") is None
        assert mapping.field_by_accessor("holder") is None

    def test_column_layout_keeps_mapped_columns_in_result_order(self) -> None:
        layout = client_mapping().column_layout(["NAME", "Unmapped", "clientid"])
        # Positions are into the result row; keys are lower-case column names.
        assert layout == ((0, "name"), (2, "clientid"))
        assert client_mapping().column_layout([]) == ()

    def test_primary_key(self) -> None:
        assert client_mapping().primary_key.name == "clientId"

    def test_missing_primary_key_raises(self) -> None:
        mapping = EntityMapping("X", "X", fields=[FieldMapping("a", "A")])
        with pytest.raises(OrmError):
            mapping.primary_key

    def test_duplicate_field_rejected(self) -> None:
        with pytest.raises(OrmError):
            EntityMapping(
                "X", "X", fields=[FieldMapping("a", "A"), FieldMapping("a", "B")]
            )

    def test_relationship_field_name_clash_rejected(self) -> None:
        with pytest.raises(OrmError):
            EntityMapping(
                "X",
                "X",
                fields=[FieldMapping("a", "A", primary_key=True)],
                relationships=[RelationshipMapping("a", "Y", "A", "B")],
            )

    def test_to_table_schema(self) -> None:
        schema = client_mapping().to_table_schema()
        assert schema.name == "Client"
        assert schema.primary_key_columns == ["ClientID"]
        assert schema.column("Name").nullable is True

    def test_invalid_relationship_kind(self) -> None:
        with pytest.raises(OrmError):
            RelationshipMapping("x", "Y", "A", "B", kind="many_to_many")


class TestOrmMapping:
    def test_duplicate_entity_rejected(self) -> None:
        mapping = OrmMapping([client_mapping()])
        with pytest.raises(OrmError):
            mapping.add_entity(client_mapping())

    def test_unknown_entity_lookup_raises(self) -> None:
        with pytest.raises(OrmError):
            OrmMapping().entity("Nope")

    def test_entity_for_table(self) -> None:
        mapping = OrmMapping([client_mapping()])
        assert mapping.entity_for_table("client").entity_name == "Client"
        assert mapping.entity_for_table("other") is None

    def test_validate_detects_dangling_relationship(self) -> None:
        entity = EntityMapping(
            "Account",
            "Account",
            fields=[FieldMapping("accountId", "AccountID", SqlType.INTEGER, primary_key=True)],
            relationships=[RelationshipMapping("holder", "Client", "ClientID", "ClientID")],
        )
        mapping = OrmMapping([entity])
        with pytest.raises(OrmError):
            mapping.validate()

    def test_validate_detects_unmapped_fk_column(self) -> None:
        client = client_mapping()
        account = EntityMapping(
            "Account",
            "Account",
            fields=[FieldMapping("accountId", "AccountID", SqlType.INTEGER, primary_key=True)],
            relationships=[
                RelationshipMapping("holder", "Client", "ClientID", "ClientID", "to_one")
            ],
        )
        mapping = OrmMapping([client, account])
        with pytest.raises(OrmError):
            mapping.validate()

    def test_valid_bank_mapping_passes(self, bank_mapping) -> None:
        bank_mapping.validate()
        assert set(bank_mapping.entity_names()) == {"Client", "Account", "Office"}
        assert len(bank_mapping.table_schemas()) == 3
