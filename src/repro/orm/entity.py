"""Entity base class and dynamic attribute behaviour.

Generated entity classes (see :mod:`repro.orm.generator`) derive from
:class:`Entity`.  An entity instance holds its row data in a column-keyed
dictionary, tracks which fields have been modified (for transaction
write-back), and resolves relationship accessors through its EntityManager —
matching the paper's description of entities as "a cache of database data ...
all lazily instantiated".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import OrmError
from repro.orm.mapping import EntityMapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.orm.entity_manager import EntityManager


class Entity:
    """Base class for all mapped entities."""

    #: Set on generated subclasses by the ORM tool.
    _mapping: EntityMapping

    def __init__(self, **field_values: object) -> None:
        object.__setattr__(self, "_data", {})
        object.__setattr__(self, "_dirty_fields", set())
        object.__setattr__(self, "_entity_manager", None)
        for name, value in field_values.items():
            setattr(self, name, value)

    # -- wiring --------------------------------------------------------------------

    @classmethod
    def _from_row(
        cls,
        entity_manager: "EntityManager",
        values_by_column: dict[str, object],
    ) -> "Entity":
        """Build an entity from a database row without marking it dirty.

        The instance takes ownership of ``values_by_column`` (keyed by
        lower-case column name) as its row data.
        """
        instance = cls.__new__(cls)
        object.__setattr__(instance, "_data", values_by_column)
        object.__setattr__(instance, "_dirty_fields", set())
        object.__setattr__(instance, "_entity_manager", entity_manager)
        return instance

    def _bind(self, entity_manager: "EntityManager") -> None:
        object.__setattr__(self, "_entity_manager", entity_manager)

    @property
    def entity_manager(self) -> Optional["EntityManager"]:
        """The EntityManager this entity is attached to (None if detached)."""
        return self._entity_manager

    # -- field access ----------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails; resolves mapped
        # fields, relationships and Java-style getters.
        mapping = type(self)._mapping
        field = mapping.field_by_accessor(name)
        if field is not None:
            if name != field.name:  # the Java-style getter
                return lambda: self._column_value(field.column)
            return self._column_value(field.column)
        relationship = mapping.relationship_by_accessor(name)
        if relationship is not None:
            if name != relationship.name:  # the Java-style getter
                return lambda: self._navigate(relationship.name)
            return self._navigate(name)
        # Java-style setter.
        if name.startswith("set") and len(name) > 3:
            attribute = name[3].lower() + name[4:]
            if mapping.field_by_name(attribute) is not None:
                return lambda value: setattr(self, attribute, value)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value: object) -> None:
        mapping = type(self)._mapping
        field = mapping.field_by_name(name)
        if field is None:
            if mapping.relationship_by_accessor(name) is not None:
                raise OrmError(
                    f"relationship {name!r} cannot be assigned directly; "
                    "assign the foreign-key field instead"
                )
            object.__setattr__(self, name, value)
            return
        self._data[field.column.lower()] = value
        self._dirty_fields.add(field.name)
        manager = self._entity_manager
        if manager is not None:
            manager._mark_dirty(self)

    def _column_value(self, column: str) -> object:
        """Value of a table column (None when the row did not carry it)."""
        return self._data.get(column.lower())

    def _navigate(self, relationship_name: str):
        manager = self._entity_manager
        if manager is None:
            raise OrmError(
                f"entity {type(self).__name__} is not attached to an "
                "EntityManager; relationships cannot be navigated"
            )
        return manager._navigate(self, relationship_name)

    # -- persistence support ------------------------------------------------------------

    @property
    def primary_key_value(self) -> object:
        """Value of the primary-key field."""
        mapping = type(self)._mapping
        return self._data.get(mapping.primary_key.column.lower())

    @property
    def dirty_fields(self) -> set[str]:
        """Names of the fields modified since the last commit."""
        return set(self._dirty_fields)

    def _clear_dirty(self) -> None:
        self._dirty_fields.clear()

    def row_values(self) -> dict[str, object]:
        """Column-keyed snapshot of the entity's data."""
        return dict(self._data)

    # -- value semantics -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, Entity)
        my_key = self.primary_key_value
        other_key = other.primary_key_value
        if my_key is None or other_key is None:
            return self is other
        return my_key == other_key

    def __hash__(self) -> int:
        key = self.primary_key_value
        if key is None:
            return object.__hash__(self)
        return hash((type(self).__name__, key))

    def __repr__(self) -> str:
        mapping = type(self)._mapping
        key = self.primary_key_value
        return f"{mapping.entity_name}(pk={key!r})"
