"""Unit tests for the logical optimizer: one class per rule, plus the
fixed-point driver (termination, pass cap, fire counters, trace mode)."""

from __future__ import annotations

import pytest

from repro.core.optimizer import (
    Optimizer,
    OptimizerOptions,
    Rule,
    RuleContext,
    classify_conjuncts,
)
from repro.core.optimizer import bridge
from repro.core.optimizer.rules import (
    decompose_selection,
    eliminate_duplicates,
    merge_ranges,
    push_join_conditions,
    simplify_predicate,
    split_conjuncts,
)
from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    PairOutput,
    QueryTree,
    SqlBinary,
    SqlColumn,
    SqlLiteral,
    SqlNot,
    SqlParam,
    clone_tree,
)
from repro.testing import make_bank_mapping


def col(binding: str, column: str) -> SqlColumn:
    return SqlColumn(binding, column)


def eq(left, right) -> SqlBinary:
    return SqlBinary("=", left, right)


def conj(*conjuncts) -> SqlBinary:
    result = conjuncts[0]
    for item in conjuncts[1:]:
        result = SqlBinary("AND", result, item)
    return result


@pytest.fixture()
def context() -> RuleContext:
    return RuleContext(mapping=make_bank_mapping(), options=OptimizerOptions())


@pytest.fixture()
def account_client_tree() -> QueryTree:
    """``FROM Account A, Client B`` with an entity output on both."""
    tree = QueryTree()
    tree.add_binding("Account", "Account")
    tree.add_binding("Client", "Client")
    tree.output = PairOutput(
        EntityOutput("B", "Client"), ColumnOutput(col("A", "Balance"))
    )
    return tree


class TestDecomposeSelection:
    def test_flattens_and_orders_selections_before_residual(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        residual = SqlBinary(">", col("A", "Balance"), col("B", "ClientID"))
        tree.where = conj(
            residual,
            eq(col("B", "Country"), SqlLiteral("Canada")),
            eq(col("A", "Balance"), SqlLiteral(7)),
        )
        result = decompose_selection(tree, context)
        assert result is not None
        conjuncts = split_conjuncts(result.where)
        assert conjuncts == [
            eq(col("A", "Balance"), SqlLiteral(7)),
            eq(col("B", "Country"), SqlLiteral("Canada")),
            residual,
        ]

    def test_is_idempotent(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            eq(col("B", "Country"), SqlLiteral("Canada")),
            eq(col("A", "Balance"), SqlLiteral(7)),
        )
        once = decompose_selection(tree, context)
        assert once is not None
        assert decompose_selection(once, context) is None

    def test_does_not_reorder_inside_or(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = SqlBinary(
            "OR",
            eq(col("B", "Country"), SqlLiteral("Canada")),
            eq(col("A", "Balance"), SqlLiteral(7)),
        )
        assert decompose_selection(tree, context) is None


class TestClassifyConjuncts:
    def test_three_classes(self) -> None:
        where = conj(
            eq(col("A", "ClientID"), col("B", "ClientID")),
            eq(col("B", "Country"), SqlLiteral("Canada")),
            SqlBinary(">", col("A", "Balance"), col("B", "ClientID")),
        )
        classes = classify_conjuncts(where)
        assert classes.join_conditions == [eq(col("A", "ClientID"), col("B", "ClientID"))]
        assert classes.selections == {
            "B": [eq(col("B", "Country"), SqlLiteral("Canada"))]
        }
        assert classes.residual == [SqlBinary(">", col("A", "Balance"), col("B", "ClientID"))]


class TestPushJoinConditions:
    def test_moves_equi_join_out_of_where(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            eq(col("A", "ClientID"), col("B", "ClientID")),
            eq(col("B", "Country"), SqlLiteral("Canada")),
        )
        result = push_join_conditions(tree, context)
        assert result is not None
        assert result.join_conditions == [eq(col("A", "ClientID"), col("B", "ClientID"))]
        assert result.where == eq(col("B", "Country"), SqlLiteral("Canada"))

    def test_mirrored_duplicate_not_added_twice(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.join_conditions = [eq(col("B", "ClientID"), col("A", "ClientID"))]
        tree.where = eq(col("A", "ClientID"), col("B", "ClientID"))
        result = push_join_conditions(tree, context)
        assert result is not None
        assert result.join_conditions == [eq(col("B", "ClientID"), col("A", "ClientID"))]
        assert result.where is None

    def test_same_binding_equality_stays(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = eq(col("A", "Balance"), col("A", "MinBalance"))
        assert push_join_conditions(tree, context) is None


class TestSimplifyPredicate:
    def test_folds_constants_and_boolean_identities(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        # (Balance > (2 + 3)) AND TRUE
        tree.where = SqlBinary(
            "AND",
            SqlBinary(
                ">", col("A", "Balance"), SqlBinary("+", SqlLiteral(2), SqlLiteral(3))
            ),
            SqlLiteral(True),
        )
        result = simplify_predicate(tree, context)
        assert result is not None
        assert result.where == SqlBinary(">", col("A", "Balance"), SqlLiteral(5))

    def test_pushes_negation_through_comparison(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        tree.where = SqlNot(eq(col("B", "Country"), SqlLiteral("Canada")))
        result = simplify_predicate(tree, context)
        assert result is not None
        assert result.where == SqlBinary(
            "!=", col("B", "Country"), SqlLiteral("Canada")
        )

    def test_true_predicate_becomes_no_where(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = SqlBinary("OR", SqlLiteral(True), eq(col("A", "Balance"), SqlLiteral(1)))
        result = simplify_predicate(tree, context)
        assert result is not None
        assert result.where is None

    def test_round_trip_preserves_parameters(self) -> None:
        expression = eq(col("A", "Balance"), SqlParam(0, "threshold"))
        assert bridge.to_sql(bridge.to_symbolic(expression)) == expression


class TestMergeRanges:
    def test_tightens_redundant_lower_bounds(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            SqlBinary(">", col("A", "Balance"), SqlLiteral(3)),
            SqlBinary(">", col("A", "Balance"), SqlLiteral(5)),
        )
        result = merge_ranges(tree, context)
        assert result is not None
        assert result.where == SqlBinary(">", col("A", "Balance"), SqlLiteral(5))

    def test_equality_subsumes_compatible_bounds(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            SqlBinary(">=", col("A", "Balance"), SqlLiteral(0)),
            eq(col("A", "Balance"), SqlLiteral(10)),
        )
        result = merge_ranges(tree, context)
        assert result is not None
        assert result.where == eq(col("A", "Balance"), SqlLiteral(10))

    def test_contradictory_equalities_collapse_to_false(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        tree.where = conj(
            eq(col("B", "Country"), SqlLiteral("Canada")),
            eq(col("B", "Country"), SqlLiteral("Peru")),
        )
        result = merge_ranges(tree, context)
        assert result is not None
        assert result.where == SqlLiteral(False)

    def test_empty_numeric_range_collapses_to_false(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        tree.where = conj(
            SqlBinary(">", col("A", "Balance"), SqlLiteral(10)),
            SqlBinary("<", col("A", "Balance"), SqlLiteral(5)),
        )
        result = merge_ranges(tree, context)
        assert result is not None
        assert result.where == SqlLiteral(False)

    def test_parameters_are_left_alone(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            SqlBinary(">", col("A", "Balance"), SqlParam(0, "low")),
            SqlBinary(">", col("A", "Balance"), SqlParam(1, "high")),
        )
        assert merge_ranges(tree, context) is None


class TestEliminateDuplicates:
    def test_drops_duplicate_conjuncts(self, account_client_tree, context) -> None:
        tree = account_client_tree
        predicate = eq(col("B", "Country"), SqlLiteral("Canada"))
        tree.where = conj(predicate, predicate)
        result = eliminate_duplicates(tree, context)
        assert result is not None
        assert result.where == predicate

    def test_false_conjunct_absorbs_predicate(self, account_client_tree, context) -> None:
        tree = account_client_tree
        tree.where = conj(
            eq(col("B", "Country"), SqlLiteral("Canada")), SqlLiteral(False)
        )
        result = eliminate_duplicates(tree, context)
        assert result is not None
        assert result.where == SqlLiteral(False)

    def test_deduplicates_mirrored_join_conditions(
        self, account_client_tree, context
    ) -> None:
        tree = account_client_tree
        tree.join_conditions = [
            eq(col("A", "ClientID"), col("B", "ClientID")),
            eq(col("B", "ClientID"), col("A", "ClientID")),
        ]
        result = eliminate_duplicates(tree, context)
        assert result is not None
        assert result.join_conditions == [eq(col("A", "ClientID"), col("B", "ClientID"))]


class TestFixedPointDriver:
    def make_tree(self) -> QueryTree:
        tree = QueryTree()
        tree.add_binding("Account", "Account")
        tree.add_binding("Client", "Client")
        tree.output = EntityOutput("B", "Client")
        tree.where = conj(
            eq(col("A", "ClientID"), col("B", "ClientID")),
            SqlBinary(">", col("A", "Balance"), SqlLiteral(3)),
            SqlBinary(">", col("A", "Balance"), SqlLiteral(5)),
            SqlBinary("AND", SqlLiteral(True), eq(col("B", "Country"), SqlLiteral("Canada"))),
        )
        return tree

    def test_reaches_fixed_point_and_counts_fires(self) -> None:
        optimizer = Optimizer(make_bank_mapping(), OptimizerOptions())
        result = optimizer.optimize(self.make_tree())
        assert result.fired
        assert result.passes <= OptimizerOptions().max_passes
        assert result.fire_counts["push-join-conditions"] >= 1
        assert result.fire_counts["merge-ranges"] >= 1
        assert result.fire_counts["simplify-predicate"] >= 1
        # Fixed point: a second run over the result changes nothing.
        again = optimizer.optimize(result.tree)
        assert not again.fired
        assert again.tree == result.tree

    def test_input_tree_is_not_mutated(self) -> None:
        tree = self.make_tree()
        snapshot = clone_tree(tree)
        Optimizer(make_bank_mapping()).optimize(tree)
        assert tree == snapshot

    def test_optimize_false_is_identity(self) -> None:
        tree = self.make_tree()
        result = Optimizer(
            make_bank_mapping(), OptimizerOptions(optimize=False)
        ).optimize(tree)
        assert result.tree is tree
        assert not result.fired
        assert result.passes == 0

    def test_trace_records_every_firing(self) -> None:
        optimizer = Optimizer(make_bank_mapping(), OptimizerOptions(trace=True))
        result = optimizer.optimize(self.make_tree())
        assert len(result.trace) == sum(result.fire_counts.values())
        assert any(app.rule == "push-join-conditions" for app in result.trace)
        for application in result.trace:
            assert application.before != application.after
        assert "push-join-conditions" in result.describe_trace()

    def test_pass_cap_stops_a_non_converging_rule(self) -> None:
        """A (buggy) rule that always fires must be stopped by the cap."""
        flips = []

        def flip_limit(tree, context):
            flipped = clone_tree(tree)
            flipped.limit = (tree.limit or 0) + 1
            flips.append(1)
            return flipped

        rule = Rule("flip-limit", "never converges", flip_limit)
        optimizer = Optimizer(
            make_bank_mapping(), OptimizerOptions(max_passes=7), rules=[rule]
        )
        result = optimizer.optimize(self.make_tree())
        assert result.passes == 7
        assert result.fire_counts["flip-limit"] == 7

    def test_rule_subset_selection(self) -> None:
        optimizer = Optimizer(
            make_bank_mapping(),
            OptimizerOptions(rules=("push-join-conditions",)),
        )
        assert [rule.name for rule in optimizer.rules] == ["push-join-conditions"]
        result = optimizer.optimize(self.make_tree())
        assert result.fire_counts == {"push-join-conditions": 1}
        # Only the join moved; the redundant bound survived.
        assert SqlBinary(">", col("A", "Balance"), SqlLiteral(3)) in split_conjuncts(
            result.tree.where
        )
