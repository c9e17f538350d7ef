"""Tests for the CPython-bytecode frontend (lowering and @query decorator),
covering the paper's Figs. 5-7 written as plain Python."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.tac.instructions import Assign, IfGoto, Return
from repro.errors import UnsupportedQueryError
from repro.orm import (
    EntityMapping,
    FieldMapping,
    OrmMapping,
    Pair,
    QueryllDatabase,
    QuerySet,
)
from repro.pyfrontend import lower_function, query
from repro.sqlengine.catalog import SqlType


# -- lowering -------------------------------------------------------------------------------


class TestLowering:
    def test_simple_loop_lowering_shape(self) -> None:
        def canadians(em, country):
            result = QuerySet()
            for c in em.all("Client"):
                if c.country == country:
                    result.add(c.name)
            return result

        method = lower_function(canadians)
        assert method.parameters == ["em", "country"]
        kinds = [type(instruction) for instruction in method.instructions]
        assert Return in kinds and IfGoto in kinds and Assign in kinds
        text = " ".join(repr(instruction) for instruction in method.instructions)
        assert "hasNext" in text and "next" in text and "iterator" in text
        method.validate()

    def test_arithmetic_and_tuple_lowering(self) -> None:
        def overdrawn(em):
            result = QuerySet()
            for a in em.all("Account"):
                if a.balance < a.minBalance:
                    result.add((a, (a.minBalance - a.balance) * 0.001))
            return result

        method = lower_function(overdrawn)
        method.validate()

    def test_unsupported_construct_raises(self) -> None:
        def uses_subscript(em):
            result = QuerySet()
            for c in em.all("Client"):
                result.add(c.name[0])
            return result

        with pytest.raises(UnsupportedQueryError):
            lower_function(uses_subscript)

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_inclusive_comparisons_survive_any_hash_seed(self, seed: str) -> None:
        """``<=`` / ``>=`` must not lower to ``<`` / ``>`` under any string
        hash seed (it used to depend on set iteration order)."""
        script = (
            "from repro.orm import QuerySet\n"
            "from repro.pyfrontend import lower_function\n"
            "def between(em, lo, hi):\n"
            "    result = QuerySet()\n"
            "    for a in em.all('Account'):\n"
            "        if a.balance >= lo and a.balance <= hi:\n"
            "            result.add(a)\n"
            "    return result\n"
            "print(repr(lower_function(between).instructions))\n"
        )
        source_root = Path(__file__).resolve().parents[2] / "src"
        lowered = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(source_root)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert "op='>='" in lowered and "op='<='" in lowered
        assert "op='>'" not in lowered and "op='<'" not in lowered

    def test_keyword_arguments_unsupported(self) -> None:
        def with_kwargs(em):
            return em.all(entity="Client")

        with pytest.raises(UnsupportedQueryError):
            lower_function(with_kwargs)


# -- decorator ------------------------------------------------------------------------------


@pytest.fixture()
def bank(bank_db: QueryllDatabase):
    return bank_db


class TestQueryDecorator:
    def test_fig5_selection_is_rewritten(self, bank) -> None:
        @query
        def canadians(em, country):
            result = QuerySet()
            for c in em.all("Client"):
                if c.country == country:
                    result.add(c.name)
            return result

        em = bank.begin_transaction()
        assert canadians.is_rewritable(em)
        sql = canadians.generated_sql(em)
        assert "FROM Client AS A" in sql and "?" in sql
        values = sorted(canadians(em, "Canada").to_list())
        assert values == ["Alice", "Carol"]
        assert canadians.rewritten_calls == 1
        assert canadians.fallback_calls == 0

    def test_rewritten_results_equal_unrewritten(self, bank) -> None:
        @query
        def canadians(em, country):
            result = QuerySet()
            for c in em.all("Client"):
                if c.country == country:
                    result.add(c.name)
            return result

        em = bank.begin_transaction()
        fast = sorted(canadians(em, "Canada").to_list())
        slow = sorted(canadians.original(em, "Canada").to_list())
        assert fast == slow

    def test_rewrite_issues_single_sql_statement(self, bank) -> None:
        @query
        def swiss(em):
            result = QuerySet()
            for c in em.all("Client"):
                if c.country == "Switzerland":
                    result.add(c)
            return result

        em = bank.begin_transaction()
        before = bank.database.statements_executed
        clients = swiss(em).to_list()
        assert len(clients) == 1
        assert bank.database.statements_executed == before + 1

    def test_fig6_projection_with_pair(self, bank) -> None:
        @query
        def overdrawn(em):
            result = QuerySet()
            for a in em.all("Account"):
                if a.balance < a.minBalance:
                    result.add(Pair(a, (a.minBalance - a.balance) * 0.001))
            return result

        em = bank.begin_transaction()
        assert overdrawn.is_rewritable(em)
        penalties = {pair.first.accountId: round(pair.second, 4) for pair in overdrawn(em)}
        assert penalties == {2: 0.05, 4: 0.075, 5: 0.01}

    def test_fig7_join_through_navigation(self, bank) -> None:
        @query
        def swiss_accounts(em):
            result = QuerySet()
            for a in em.all("Account"):
                if a.holder.country == "Switzerland":
                    result.add(Pair(a.holder, a))
            return result

        em = bank.begin_transaction()
        sql = swiss_accounts.generated_sql(em)
        assert "FROM Account AS A, Client AS B" in sql
        pairs = [(p.first.name, p.second.accountId) for p in swiss_accounts(em)]
        assert sorted(pairs) == [("Bob", 3), ("Bob", 4)]

    def test_multiple_conditions_or_paths(self, bank) -> None:
        @query
        def seattle_or_la(em):
            result = QuerySet()
            for office in em.all("Office"):
                if office.name == "Seattle":
                    result.add(office)
                elif office.name == "LA":
                    result.add(office)
            return result

        em = bank.begin_transaction()
        sql = seattle_or_la.generated_sql(em)
        assert " OR " in sql
        assert sorted(o.name for o in seattle_or_la(em)) == ["LA", "Seattle"]

    def test_and_condition(self, bank) -> None:
        @query
        def rich_canadians(em, threshold):
            result = QuerySet()
            for a in em.all("Account"):
                if a.holder.country == "Canada" and a.balance > threshold:
                    result.add(a)
            return result

        em = bank.begin_transaction()
        assert [a.accountId for a in rich_canadians(em, 100.0)] == [1]

    def test_unrewritable_function_falls_back(self, bank) -> None:
        external = []

        @query
        def leaky(em):
            result = QuerySet()
            for c in em.all("Client"):
                external.append(c.name)  # side effect: not translatable
                result.add(c)
            return result

        em = bank.begin_transaction()
        assert not leaky.is_rewritable(em)
        assert leaky.rewrite_reason(em)
        clients = leaky(em)
        assert len(clients) == 4
        assert leaky.fallback_calls == 1
        assert len(external) == 4

    def test_fallback_disabled_raises(self, bank) -> None:
        @query(fallback=False)
        def leaky(em):
            result = QuerySet()
            for c in em.all("Client"):
                print(c)
                result.add(c)
            return result

        em = bank.begin_transaction()
        with pytest.raises(UnsupportedQueryError):
            leaky(em)

    def test_lazy_result_supports_order_and_limit(self, bank) -> None:
        @query
        def all_accounts(em):
            result = QuerySet()
            for a in em.all("Account"):
                if a.balance >= 0.0:
                    result.add(a)
            return result

        em = bank.begin_transaction()
        top = all_accounts(em).sorted_by("balance", descending=True).first_n(2)
        assert [a.accountId for a in top] == [6, 3]

    def test_decorator_rejects_non_functions(self) -> None:
        with pytest.raises(TypeError):
            query(42)  # type: ignore[arg-type]

    def test_call_without_entity_manager_falls_back(self, bank) -> None:
        @query
        def identity(em, country):
            result = QuerySet()
            for c in em.all("Client"):
                if c.country == country:
                    result.add(c)
            return result

        class FakeManager:
            def all(self, name):
                return QuerySet([])

        result = identity(FakeManager(), "Canada")
        assert result.to_list() == []
        assert identity.fallback_calls == 1

    def test_analysis_cache_never_serves_a_collected_mappings_sql(self) -> None:
        """A mapping that was garbage-collected must not leave its SQL behind
        for a new mapping that happens to reuse its address."""
        @query
        def names(em):
            result = QuerySet()
            for c in em.all("Client"):
                result.add(c.name)
            return result

        for version in range(50):
            mapping = OrmMapping(
                [
                    EntityMapping(
                        "Client",
                        f"clients_v{version}",
                        fields=[
                            FieldMapping(
                                "clientId", "ClientID", SqlType.INTEGER, primary_key=True
                            ),
                            FieldMapping("name", f"Name_v{version}", SqlType.TEXT),
                        ],
                    )
                ]
            )
            sql = names.generated_sql(mapping)
            assert f"FROM clients_v{version} AS A" in sql, (version, sql)
            del mapping
            gc.collect()
