"""Tests for entity classes, the EntityManager and transactions (Figs. 3-4)."""

from __future__ import annotations

import pytest

from repro.errors import OrmError
from repro.orm import QueryllDatabase


class TestEntityAccess:
    def test_find_by_primary_key(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        assert client is not None
        assert client.name == "Alice"
        assert client.getAddress() == "1 Main Street"

    def test_find_missing_returns_none(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        assert em.find("Client", 999999) is None

    def test_identity_map_returns_same_object(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        assert em.find("Client", 1000) is em.find("Client", 1000)

    def test_java_style_finder_and_all(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.findClient(1001)
        assert client.country == "Switzerland"
        names = sorted(c.name for c in em.allClient())
        assert names == ["Alice", "Bob", "Carol", "Dave"]

    def test_unknown_dynamic_accessor_raises(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        with pytest.raises(AttributeError):
            em.allUnicorn()

    def test_paper_figure4_usage(self, bank_db: QueryllDatabase) -> None:
        """EntityManager em = db.beginTransaction(); ... db.endTransaction(em, true)"""
        em = bank_db.beginTransaction()
        client = em.find("Client", 1000)
        assert client.getAccounts().size() == 2
        bank_db.endTransaction(em, True)

    def test_cached_instance_wins_over_a_reread_row(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        client.name = "Alicia"
        again = em.materialise_entity("Client", {"clientid": 1000, "name": "Alice"})
        assert again is client
        assert client.name == "Alicia"
        assert client in em.dirty_entities
        # A SELECT A.* result re-reading the row keeps the instance too.
        assert any(c is client for c in em.all("Client"))
        assert client.name == "Alicia"

    def test_entity_equality_and_hash_by_primary_key(self, bank_db: QueryllDatabase) -> None:
        em1 = bank_db.begin_transaction()
        em2 = bank_db.begin_transaction()
        a = em1.find("Client", 1000)
        b = em2.find("Client", 1000)
        assert a == b and hash(a) == hash(b)
        assert a != em1.find("Client", 1001)

    def test_unknown_field_raises(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        with pytest.raises(AttributeError):
            client.favourite_colour


class TestRelationships:
    def test_to_one_navigation(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        account = em.find("Account", 3)
        assert account.holder.name == "Bob"
        assert account.getHolder().getCountry() == "Switzerland"

    def test_to_many_navigation_is_lazy(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        accounts = client.accounts
        assert accounts.is_lazy
        assert sorted(a.accountId for a in accounts) == [1, 2]

    def test_assigning_relationship_directly_is_rejected(self, bank_db) -> None:
        em = bank_db.begin_transaction()
        account = em.find("Account", 1)
        with pytest.raises(OrmError):
            account.holder = em.find("Client", 1001)


class TestQueries:
    def test_all_returns_lazy_queryset_with_sql(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        clients = em.all("Client")
        assert clients.is_lazy
        assert "FROM Client" in clients.describe_sql()
        assert len(clients) == 4
        assert not clients.is_lazy

    def test_all_accepts_entity_class(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        Client = bank_db.entity_class("Client")
        assert len(em.all(Client)) == 4

    def test_all_rejects_unknown_entity(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        with pytest.raises(OrmError):
            em.all("Unicorn")

    def test_queries_executed_counter(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        before = em.queries_executed
        em.find("Client", 1000)
        em.find("Client", 1000)  # identity map: no second query
        assert em.queries_executed == before + 1


class TestPersistence:
    def test_dirty_tracking_and_commit_writes_back(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        client.name = "Alicia"
        client.country = "Portugal"
        assert client in em.dirty_entities
        updates = em.commit()
        assert updates == 1
        rows = bank_db.database.execute(
            "SELECT Name, Country FROM Client WHERE ClientID = 1000"
        ).rows
        assert rows == [("Alicia", "Portugal")]

    def test_java_style_setter(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1002)
        client.setName("Caroline")
        em.commit()
        assert bank_db.database.execute(
            "SELECT Name FROM Client WHERE ClientID = 1002"
        ).rows == [("Caroline",)]

    def test_rollback_discards_pending_changes(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        client = em.find("Client", 1000)
        client.name = "Changed"
        em.rollback()
        assert em.dirty_entities == []
        em2 = bank_db.begin_transaction()
        assert em2.find("Client", 1000).name == "Alice"

    def test_persist_inserts_new_entity(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        Client = bank_db.entity_class("Client")
        new_client = Client(clientId=2000, name="Eve", address="5", country="Japan", postalCode="1")
        em.persist(new_client)
        assert bank_db.database.row_count("Client") == 5
        assert em.find("Client", 2000) is new_client

    def test_remove_deletes_row(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        account = em.find("Account", 6)
        em.remove(account)
        assert bank_db.database.row_count("Account") == 5

    def test_transaction_context_manager_commits(self, bank_db: QueryllDatabase) -> None:
        with bank_db.transaction() as em:
            client = em.find("Client", 1003)
            client.postalCode = "NEW"
        assert bank_db.database.execute(
            "SELECT PostalCode FROM Client WHERE ClientID = 1003"
        ).rows == [("NEW",)]

    def test_transaction_context_manager_rolls_back_on_error(self, bank_db) -> None:
        with pytest.raises(ValueError):
            with bank_db.transaction() as em:
                client = em.find("Client", 1003)
                client.postalCode = "SHOULD NOT PERSIST"
                raise ValueError("boom")
        assert bank_db.database.execute(
            "SELECT PostalCode FROM Client WHERE ClientID = 1003"
        ).rows == [("SW1A",)]

    def test_closed_entity_manager_rejects_use(self, bank_db: QueryllDatabase) -> None:
        em = bank_db.begin_transaction()
        em.close()
        with pytest.raises(OrmError):
            em.find("Client", 1000)


class TestOrmTool:
    def test_generated_classes_have_docs_and_mapping(self, bank_db: QueryllDatabase) -> None:
        Client = bank_db.entity_class("Client")
        assert "Generated entity" in (Client.__doc__ or "")
        assert Client._mapping.table == "Client"

    def test_schema_contains_foreign_key_indexes(self, bank_db: QueryllDatabase) -> None:
        data = bank_db.database.table_data("Account")
        index_columns = {tuple(index.columns) for index in data.indexes().values()}
        assert ("ClientID",) in index_columns
