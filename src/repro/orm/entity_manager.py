"""EntityManager: identity map, lazy loading, navigation and write-back.

The paper: *"Queryll also creates a special class named EntityManager that is
responsible for ensuring that the database data and their in-memory object
representations remain consistent."*

The EntityManager is also the place where the Queryll runtime executes
generated SQL: rewritten queries call :meth:`EntityManager.execute_sql_query`
with the SQL text, parameter values and a result mapper describing how to
turn result rows back into entities / Pairs / scalars.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import OrmError
from repro.orm.entity import Entity
from repro.orm.mapping import EntityMapping, OrmMapping, RelationshipMapping
from repro.orm.queryset import LazyQuery, QuerySet
from repro.sqlengine.engine import Database

#: A result mapper turns the rows of one result (with the result's column
#: names) into result items, given the EntityManager for entity
#: materialisation.
ResultMapper = Callable[
    ["EntityManager", Sequence[str], Sequence[tuple[object, ...]]], list[object]
]


#: Maps an accessor chain (e.g. ``("getFirst", "getTitle")``) to a SQL column
#: reference usable in an ORDER BY clause, or None if it cannot be expressed.
OrderResolver = Callable[[tuple[str, ...]], Optional[str]]


class SqlBackedQuery(LazyQuery):
    """A pending SQL query (SELECT text + parameters + result mapper)."""

    def __init__(
        self,
        entity_manager: "EntityManager",
        sql: str,
        params: tuple[object, ...],
        result_mapper: ResultMapper,
        order_by_sql: list[tuple[str, bool]] | None = None,
        limit: Optional[int] = None,
        entity_name: Optional[str] = None,
        order_resolver: Optional[OrderResolver] = None,
        binding_alias: str = "A",
    ) -> None:
        self._em = entity_manager
        self._sql = sql
        self._params = params
        self._result_mapper = result_mapper
        self._order_by = list(order_by_sql or [])
        self._limit = limit
        self._entity_name = entity_name
        self._order_resolver = order_resolver
        self._binding_alias = binding_alias

    # -- LazyQuery interface ------------------------------------------------------

    def load(self) -> list[object]:
        result = self._em.execute_sql(self.final_sql(), self._params)
        return self._result_mapper(self._em, result.columns, result.rows)

    def ordered_by(
        self, accessors: tuple[str, ...], descending: bool
    ) -> Optional["SqlBackedQuery"]:
        column = self._order_column(accessors)
        if column is None:
            return None
        return self._copy_with(order_by=self._order_by + [(column, descending)])

    def limited(self, count: int) -> Optional["SqlBackedQuery"]:
        new_limit = count if self._limit is None else min(self._limit, count)
        return self._copy_with(limit=new_limit)

    def describe_sql(self) -> Optional[str]:
        return self.final_sql()

    # -- helpers ---------------------------------------------------------------------

    def final_sql(self) -> str:
        """The SQL including any folded-in ORDER BY / LIMIT clauses."""
        sql = self._sql
        if self._order_by:
            clauses = ", ".join(
                f"({column}){' DESC' if descending else ''}"
                for column, descending in self._order_by
            )
            sql = f"{sql} ORDER BY {clauses}"
        if self._limit is not None:
            sql = f"{sql} LIMIT {self._limit}"
        return sql

    def _copy_with(
        self,
        order_by: list[tuple[str, bool]] | None = None,
        limit: Optional[int] = None,
    ) -> "SqlBackedQuery":
        return SqlBackedQuery(
            self._em,
            self._sql,
            self._params,
            self._result_mapper,
            order_by if order_by is not None else self._order_by,
            limit if limit is not None else self._limit,
            self._entity_name,
            self._order_resolver,
            self._binding_alias,
        )

    def _order_column(self, accessors: tuple[str, ...]) -> Optional[str]:
        """Map an accessor chain to a SQL column reference."""
        if self._order_resolver is not None:
            return self._order_resolver(accessors)
        if self._entity_name is None or len(accessors) != 1:
            return None
        mapping = self._em.mapping.entity(self._entity_name)
        field = mapping.field_by_accessor(accessors[0])
        if field is None:
            return None
        return f"{self._binding_alias}.{field.column}"


class EntityManager:
    """Per-transaction manager of entity objects.

    One EntityManager corresponds to one unit of work: it caches entity
    instances (identity map), tracks modified entities, and writes changes
    back to the database when the transaction commits.
    """

    def __init__(
        self,
        database: Database,
        mapping: OrmMapping,
        entity_classes: dict[str, type[Entity]],
    ) -> None:
        self._database = database
        #: The EntityManager's own engine session: queries and single-object
        #: writes run in auto-commit mode; :meth:`commit` flushes dirty
        #: entities inside one transaction so a failed flush rolls back.
        self._session = database.session(autocommit=True)
        self._mapping = mapping
        self._entity_classes = dict(entity_classes)
        self._identity_map: dict[tuple[str, object], Entity] = {}
        self._dirty: list[Entity] = []
        self._closed = False
        # Generated SQL text per entity, built once: reusing the identical
        # string across executions keeps the engine's shared plan cache hot
        # (the cache is keyed by SQL text).
        self._all_sql: dict[str, str] = {}
        self._find_sql: dict[str, str] = {}
        #: Number of SQL statements issued through this EntityManager.
        self.queries_executed = 0

    # -- properties -----------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The underlying SQL database."""
        return self._database

    @property
    def mapping(self) -> OrmMapping:
        """The ORM mapping."""
        return self._mapping

    def entity_class(self, entity_name: str) -> type[Entity]:
        """The generated class for an entity name."""
        if entity_name not in self._entity_classes:
            raise OrmError(f"no entity class registered for {entity_name!r}")
        return self._entity_classes[entity_name]

    # -- query entry points ------------------------------------------------------------

    def all(self, entity: str | type[Entity]) -> QuerySet:
        """A lazy QuerySet of every instance of ``entity``.

        This is the starting point of every Queryll query: the paper's
        ``em.allClient()`` / ``em.allOffice()`` methods.
        """
        entity_name = self._entity_name(entity)
        sql = self._all_sql.get(entity_name)
        if sql is None:
            mapping = self._mapping.entity(entity_name)
            sql = self._all_sql[entity_name] = (
                f"SELECT A.* FROM {mapping.table} AS A"
            )
        query = SqlBackedQuery(
            self,
            sql,
            (),
            entity_result_mapper(entity_name),
            entity_name=entity_name,
        )
        return QuerySet.lazy(query)

    def find(self, entity: str | type[Entity], primary_key: object) -> Optional[Entity]:
        """Look up a single entity by primary key (identity-map aware)."""
        entity_name = self._entity_name(entity)
        cached = self._identity_map.get((entity_name, primary_key))
        if cached is not None:
            return cached
        sql = self._find_sql.get(entity_name)
        if sql is None:
            mapping = self._mapping.entity(entity_name)
            sql = self._find_sql[entity_name] = (
                f"SELECT A.* FROM {mapping.table} AS A "
                f"WHERE A.{mapping.primary_key.column} = ?"
            )
        return self._first_entity(entity_name, sql, primary_key)

    def __getattr__(self, name: str):
        # Java-style em.allClient(), em.allAccount() ... accessors.
        if name.startswith("all") and len(name) > 3:
            entity_name = name[3:]
            if self._mapping.has_entity(entity_name):
                return lambda: self.all(entity_name)
        if name.startswith("find") and len(name) > 4:
            entity_name = name[4:]
            if self._mapping.has_entity(entity_name):
                return lambda primary_key: self.find(entity_name, primary_key)
        raise AttributeError(f"EntityManager has no attribute {name!r}")

    # -- SQL execution ---------------------------------------------------------------------

    def execute_sql(self, sql: str, params: Sequence[object] = ()):
        """Execute SQL through this manager's session (counts statements)."""
        self._check_open()
        self.queries_executed += 1
        return self._session.execute(sql, tuple(params))

    def execute_sql_query(
        self,
        sql: str,
        params: Sequence[object],
        result_mapper: ResultMapper,
        destination: QuerySet | None = None,
    ) -> QuerySet:
        """Run generated SQL and fill ``destination`` with mapped results.

        This is the runtime entry point used by rewritten query methods.
        """
        result = self.execute_sql(sql, params)
        items = result_mapper(self, result.columns, result.rows)
        if destination is None:
            destination = QuerySet()
        destination.add_all(items)
        return destination

    # -- entity materialisation ---------------------------------------------------------------

    def materialise_entity(self, entity_name: str, values: dict[str, object]) -> Entity:
        """Turn one row's values into an entity instance (identity-map aware).

        ``values`` maps lower-case column names to the row's values and
        becomes the new instance's row data.  When the primary key is
        already cached, the cached instance wins: its loaded and locally
        modified data are kept and the re-read row is dropped.
        """
        mapping = self._mapping.entity(entity_name)
        primary_key = values.get(mapping.primary_key.column.lower())
        identity_key = (entity_name, primary_key)
        cached = self._identity_map.get(identity_key)
        if cached is not None:
            return cached
        instance = self.entity_class(entity_name)._from_row(self, values)
        if primary_key is not None:
            self._identity_map[identity_key] = instance
        return instance

    def _first_entity(self, entity_name: str, sql: str, key: object) -> Optional[Entity]:
        """Run a one-parameter ``SELECT A.*`` query and materialise its first
        row (None when it returns no rows)."""
        result = self.execute_sql(sql, (key,))
        entities = entity_result_mapper(entity_name)(
            self, result.columns, result.rows[:1]
        )
        return entities[0] if entities else None

    # -- relationship navigation -------------------------------------------------------------------

    def _navigate(self, entity: Entity, relationship_name: str):
        mapping = type(entity)._mapping
        relationship = mapping.relationship_by_accessor(relationship_name)
        if relationship is None:
            raise OrmError(
                f"{mapping.entity_name} has no relationship {relationship_name!r}"
            )
        if relationship.kind == "to_one":
            return self._navigate_to_one(entity, relationship)
        return self._navigate_to_many(entity, mapping, relationship)

    def _navigate_to_one(
        self, entity: Entity, relationship: RelationshipMapping
    ) -> Optional[Entity]:
        foreign_key = entity._column_value(relationship.local_column)
        if foreign_key is None:
            return None
        target_mapping = self._mapping.entity(relationship.target_entity)
        if relationship.remote_column.lower() == target_mapping.primary_key.column.lower():
            return self.find(relationship.target_entity, foreign_key)
        sql = (
            f"SELECT A.* FROM {target_mapping.table} AS A "
            f"WHERE A.{relationship.remote_column} = ?"
        )
        return self._first_entity(relationship.target_entity, sql, foreign_key)

    def _navigate_to_many(
        self,
        entity: Entity,
        mapping: EntityMapping,
        relationship: RelationshipMapping,
    ) -> QuerySet:
        local_value = entity._column_value(relationship.local_column)
        target_mapping = self._mapping.entity(relationship.target_entity)
        sql = (
            f"SELECT A.* FROM {target_mapping.table} AS A "
            f"WHERE A.{relationship.remote_column} = ?"
        )
        query = SqlBackedQuery(
            self,
            sql,
            (local_value,),
            entity_result_mapper(relationship.target_entity),
            entity_name=relationship.target_entity,
        )
        return QuerySet.lazy(query)

    # -- persistence ---------------------------------------------------------------------------------

    def persist(self, entity: Entity) -> None:
        """Insert a new entity into the database."""
        self._check_open()
        entity._bind(self)
        mapping = type(entity)._mapping
        values = entity.row_values()
        columns = [field.column for field in mapping.fields]
        placeholders = ", ".join("?" for _ in columns)
        sql = (
            f"INSERT INTO {mapping.table} ({', '.join(columns)}) "
            f"VALUES ({placeholders})"
        )
        params = tuple(values.get(column.lower()) for column in columns)
        self.execute_sql(sql, params)
        entity._clear_dirty()
        key = entity.primary_key_value
        if key is not None:
            self._identity_map[(mapping.entity_name, key)] = entity

    def remove(self, entity: Entity) -> None:
        """Delete an entity from the database."""
        self._check_open()
        mapping = type(entity)._mapping
        key = entity.primary_key_value
        if key is None:
            raise OrmError("cannot remove an entity without a primary key")
        sql = f"DELETE FROM {mapping.table} WHERE {mapping.primary_key.column} = ?"
        self.execute_sql(sql, (key,))
        self._identity_map.pop((mapping.entity_name, key), None)

    def _mark_dirty(self, entity: Entity) -> None:
        if entity not in self._dirty:
            self._dirty.append(entity)

    @property
    def dirty_entities(self) -> list[Entity]:
        """Entities with unsaved modifications."""
        return list(self._dirty)

    def commit(self) -> int:
        """Write every dirty entity back to its table row, atomically.

        Returns the number of UPDATE statements issued.  This is the
        standard ORM write-back the paper describes ("the ORM tool will
        write the objects' data back to individual table rows before a
        transaction completes").  The write-back runs inside one engine
        transaction: if any UPDATE fails, every already-applied UPDATE of
        this flush is rolled back before the error propagates.
        """
        self._check_open()
        own_transaction = bool(self._dirty) and not self._session.in_transaction
        if own_transaction:
            self._session.begin()
        flushed: list[Entity] = []
        try:
            for entity in self._dirty:
                mapping = type(entity)._mapping
                dirty_fields = sorted(entity.dirty_fields)
                if not dirty_fields:
                    continue
                key = entity.primary_key_value
                if key is None:
                    raise OrmError("cannot update an entity without a primary key")
                assignments = []
                params: list[object] = []
                for field_name in dirty_fields:
                    field = mapping.field_by_name(field_name)
                    assert field is not None
                    assignments.append(f"{field.column} = ?")
                    params.append(entity.row_values().get(field.column.lower()))
                params.append(key)
                sql = (
                    f"UPDATE {mapping.table} SET {', '.join(assignments)} "
                    f"WHERE {mapping.primary_key.column} = ?"
                )
                self.execute_sql(sql, tuple(params))
                flushed.append(entity)
        except BaseException:
            # Failed flush: abort the transaction and discard this manager's
            # stale state.  Entities keep their dirty flags — their UPDATEs
            # were rolled back, so they are genuinely not persisted.
            if own_transaction:
                self._session.rollback()
            self._dirty.clear()
            self._identity_map.clear()
            raise
        # Dirty flags are cleared only once every UPDATE of the unit of work
        # succeeded; clearing inside the loop would mark rolled-back
        # entities as persisted when a later UPDATE fails.
        for entity in flushed:
            entity._clear_dirty()
        self._dirty.clear()
        self.execute_sql("COMMIT")
        return len(flushed)

    def rollback(self) -> None:
        """Discard pending modifications and cached entities, aborting any
        open engine transaction."""
        self._check_open()
        self._dirty.clear()
        self._identity_map.clear()
        self.execute_sql("ROLLBACK")

    def close(self) -> None:
        """Close the EntityManager; further use raises.  Any transaction
        left open by a failed flush is rolled back."""
        if not self._closed:
            self._session.close()
        self._closed = True

    # -- internals ----------------------------------------------------------------------------------------

    def _entity_name(self, entity: str | type[Entity]) -> str:
        if isinstance(entity, str):
            name = entity
        elif isinstance(entity, type) and issubclass(entity, Entity):
            name = entity._mapping.entity_name
        else:
            raise OrmError(f"expected an entity name or class, got {entity!r}")
        if not self._mapping.has_entity(name):
            raise OrmError(f"unknown entity {name!r}")
        return name

    def _check_open(self) -> None:
        if self._closed:
            raise OrmError("this EntityManager has been closed")


def entity_result_mapper(entity_name: str) -> ResultMapper:
    """Result mapper for ``SELECT A.*`` rows of one entity: the positions of
    its mapped columns are resolved once per result, from the column names."""

    def map_rows(
        entity_manager: EntityManager,
        columns: Sequence[str],
        rows: Sequence[tuple[object, ...]],
    ) -> list[object]:
        layout = entity_manager.mapping.entity(entity_name).column_layout(columns)
        materialise = entity_manager.materialise_entity
        return [
            materialise(entity_name, {key: row[position] for position, key in layout})
            for row in rows
        ]

    return map_rows
