"""Planner correctness: every access path must return the same rows.

These tests build a small random database with Hypothesis and check that
queries return identical results whether they run through index lookups,
hash joins, index nested-loop joins or plain nested-loop scans — the core
soundness property of the planner.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.planner import PlannerOptions

_ALL_OPTIONS = [
    PlannerOptions(),
    PlannerOptions(use_indexes=False),
    PlannerOptions(use_index_nested_loop_join=False),
    PlannerOptions(use_hash_join=False),
    PlannerOptions(use_indexes=False, use_index_nested_loop_join=False, use_hash_join=False),
]


def _build_database(orders: list[tuple[int, int, int]], customers: int) -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE customer (id INTEGER PRIMARY KEY, region INTEGER);
        CREATE TABLE orders (id INTEGER PRIMARY KEY, customer_id INTEGER, amount INTEGER);
        """
    )
    database.insert_rows(
        "customer", [(identifier, identifier % 3) for identifier in range(1, customers + 1)]
    )
    database.insert_rows("orders", orders)
    return database


_orders_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-100, max_value=100),
    ),
    max_size=30,
    unique_by=lambda row: row[0],
)


class TestPlannerEquivalence:
    @given(orders=_orders_strategy, threshold=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_join_results_identical_across_access_paths(
        self, orders: list[tuple[int, int, int]], threshold: int
    ) -> None:
        database = _build_database(orders, customers=8)
        sql = (
            "SELECT orders.id, customer.region FROM orders, customer "
            "WHERE orders.customer_id = customer.id AND orders.amount >= ? "
            "ORDER BY orders.id"
        )
        results = []
        for options in _ALL_OPTIONS:
            database.set_planner_options(options)
            results.append(database.execute(sql, (threshold,)).rows)
        assert all(rows == results[0] for rows in results)

    @given(orders=_orders_strategy, wanted=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_point_lookup_matches_full_scan(
        self, orders: list[tuple[int, int, int]], wanted: int
    ) -> None:
        database = _build_database(orders, customers=8)
        sql = "SELECT id, amount FROM orders WHERE id = ?"
        database.set_planner_options(PlannerOptions())
        with_index = database.execute(sql, (wanted,)).rows
        database.set_planner_options(PlannerOptions(use_indexes=False))
        without_index = database.execute(sql, (wanted,)).rows
        assert with_index == without_index

    @given(orders=_orders_strategy)
    @settings(max_examples=20, deadline=None)
    def test_or_of_indexed_equalities_matches_naive_plan(
        self, orders: list[tuple[int, int, int]]
    ) -> None:
        """The IndexOrLookupJoin path must agree with the nested-loop plan
        (this is the access path behind the hand-written doGetRelated)."""
        database = _build_database(orders, customers=8)
        sql = (
            "SELECT orders.id FROM customer, orders "
            "WHERE (customer.id = orders.customer_id OR customer.region = orders.amount) "
            "AND customer.id = ? ORDER BY orders.id"
        )
        database.set_planner_options(PlannerOptions())
        fast = database.execute(sql, (3,)).rows
        database.set_planner_options(PlannerOptions(use_indexes=False))
        naive = database.execute(sql, (3,)).rows
        assert fast == naive
