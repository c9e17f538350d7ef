"""Object-relational mapping descriptions.

A mapping describes, for each entity: the table it is stored in, the mapping
from object fields to table columns, and its relationships to other entities.
It is consumed both by the runtime ORM (EntityManager / entity classes) and
by the Queryll query-tree builder, which needs to know which getter reads
which column and which getter navigates which relationship.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import OrmError
from repro.sqlengine.catalog import ColumnSchema, SqlType, TableSchema


@dataclass(frozen=True)
class FieldMapping:
    """One scalar field of an entity mapped to a table column."""

    name: str
    column: str
    sql_type: SqlType = SqlType.TEXT
    primary_key: bool = False

    @property
    def getter(self) -> str:
        """Java-style getter name (``name`` -> ``getName``)."""
        return "get" + self.name[0].upper() + self.name[1:]


@dataclass(frozen=True)
class RelationshipMapping:
    """A relationship between two entities.

    ``to_one`` relationships (e.g. ``Account.holder``) store the foreign key
    in ``local_column`` of this entity's table and point at ``remote_column``
    (usually the primary key) of the target.  ``to_many`` relationships (e.g.
    ``Client.accounts``) are the reverse: the target table's
    ``remote_column`` refers back to this entity's ``local_column``.
    """

    name: str
    target_entity: str
    local_column: str
    remote_column: str
    kind: str = "to_one"  # "to_one" | "to_many"

    def __post_init__(self) -> None:
        if self.kind not in ("to_one", "to_many"):
            raise OrmError(f"unknown relationship kind {self.kind!r}")

    @property
    def getter(self) -> str:
        """Java-style getter name."""
        return "get" + self.name[0].upper() + self.name[1:]


@dataclass
class EntityMapping:
    """Mapping of one entity class to one table.

    ``fields`` and ``relationships`` are fixed once the mapping is built: the
    lookup indexes below are computed from them in ``__post_init__``.
    """

    entity_name: str
    table: str
    fields: list[FieldMapping] = field(default_factory=list)
    relationships: list[RelationshipMapping] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for mapping in self.fields:
            if mapping.name in seen:
                raise OrmError(
                    f"duplicate field {mapping.name!r} in entity {self.entity_name!r}"
                )
            seen.add(mapping.name)
        for relationship in self.relationships:
            if relationship.name in seen:
                raise OrmError(
                    f"relationship {relationship.name!r} clashes with a field "
                    f"in entity {self.entity_name!r}"
                )
            seen.add(relationship.name)
        # setdefault keeps the first match, as a scan of the lists would.
        self._fields_by_name: dict[str, FieldMapping] = {}
        self._fields_by_accessor: dict[str, FieldMapping] = {}
        self._fields_by_column: dict[str, FieldMapping] = {}
        for mapping in self.fields:
            self._fields_by_name.setdefault(mapping.name, mapping)
            self._fields_by_accessor.setdefault(mapping.name, mapping)
            self._fields_by_accessor.setdefault(mapping.getter, mapping)
            self._fields_by_column.setdefault(mapping.column.lower(), mapping)
        self._relationships_by_accessor: dict[str, RelationshipMapping] = {}
        for relationship in self.relationships:
            self._relationships_by_accessor.setdefault(relationship.name, relationship)
            self._relationships_by_accessor.setdefault(relationship.getter, relationship)
        self._primary_keys = [mapping for mapping in self.fields if mapping.primary_key]

    # -- lookups ---------------------------------------------------------------

    @property
    def primary_key(self) -> FieldMapping:
        """The primary key field (exactly one is required)."""
        if len(self._primary_keys) != 1:
            raise OrmError(
                f"entity {self.entity_name!r} must have exactly one primary key field"
            )
        return self._primary_keys[0]

    def field_by_name(self, name: str) -> Optional[FieldMapping]:
        """Field mapping by attribute name (``country``)."""
        return self._fields_by_name.get(name)

    def field_by_accessor(self, accessor: str) -> Optional[FieldMapping]:
        """Field mapping by attribute name or Java-style getter name."""
        return self._fields_by_accessor.get(accessor)

    def field_by_column(self, column: str) -> Optional[FieldMapping]:
        """Field mapping by table column name (case-insensitive)."""
        return self._fields_by_column.get(column.lower())

    def relationship_by_accessor(self, accessor: str) -> Optional[RelationshipMapping]:
        """Relationship mapping by attribute name or getter name."""
        return self._relationships_by_accessor.get(accessor)

    def column_layout(self, columns: Sequence[str]) -> tuple[tuple[int, str], ...]:
        """``(position, column key)`` of each mapped column among a result's
        column names; the key is the lower-case column name entities store
        their row data under."""
        return tuple(
            (position, name.lower())
            for position, name in enumerate(columns)
            if name.lower() in self._fields_by_column
        )

    # -- schema generation -------------------------------------------------------

    def to_table_schema(self) -> TableSchema:
        """Derive the SQL table schema implied by this mapping."""
        columns = tuple(
            ColumnSchema(
                name=mapping.column,
                sql_type=mapping.sql_type,
                primary_key=mapping.primary_key,
                nullable=not mapping.primary_key,
            )
            for mapping in self.fields
        )
        return TableSchema(name=self.table, columns=columns)


class OrmMapping:
    """The full mapping: a set of entity mappings, validated as a whole."""

    def __init__(self, entities: Iterable[EntityMapping] = ()) -> None:
        self._entities: dict[str, EntityMapping] = {}
        for entity in entities:
            self.add_entity(entity)

    def add_entity(self, entity: EntityMapping) -> None:
        """Register an entity mapping."""
        if entity.entity_name in self._entities:
            raise OrmError(f"entity {entity.entity_name!r} is already mapped")
        self._entities[entity.entity_name] = entity

    def entity(self, name: str) -> EntityMapping:
        """Entity mapping by entity name."""
        if name not in self._entities:
            raise OrmError(f"no mapping for entity {name!r}")
        return self._entities[name]

    def has_entity(self, name: str) -> bool:
        """True if an entity with this name is mapped."""
        return name in self._entities

    def entity_names(self) -> list[str]:
        """All mapped entity names."""
        return list(self._entities)

    def entity_for_table(self, table: str) -> Optional[EntityMapping]:
        """Entity mapping whose table matches ``table`` (case-insensitive)."""
        for entity in self._entities.values():
            if entity.table.lower() == table.lower():
                return entity
        return None

    def validate(self) -> None:
        """Check cross-entity consistency of relationships."""
        for entity in self._entities.values():
            entity.primary_key  # noqa: B018 - raises if missing
            for relationship in entity.relationships:
                if relationship.target_entity not in self._entities:
                    raise OrmError(
                        f"entity {entity.entity_name!r} has a relationship to "
                        f"unmapped entity {relationship.target_entity!r}"
                    )
                target = self._entities[relationship.target_entity]
                if relationship.kind == "to_one":
                    local, remote = entity, target
                else:
                    local, remote = target, entity
                if local.field_by_column(relationship.local_column) is None and (
                    relationship.kind == "to_one"
                ):
                    raise OrmError(
                        f"relationship {entity.entity_name}.{relationship.name}: "
                        f"column {relationship.local_column!r} is not mapped on "
                        f"{entity.entity_name!r}"
                    )
                if relationship.kind == "to_one" and remote.field_by_column(
                    relationship.remote_column
                ) is None:
                    raise OrmError(
                        f"relationship {entity.entity_name}.{relationship.name}: "
                        f"column {relationship.remote_column!r} is not mapped on "
                        f"{relationship.target_entity!r}"
                    )

    def table_schemas(self) -> list[TableSchema]:
        """SQL schemas for every mapped entity."""
        return [entity.to_table_schema() for entity in self._entities.values()]
