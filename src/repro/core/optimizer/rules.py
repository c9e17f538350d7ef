"""The default rule catalog of the logical optimizer.

Every rule is a pure function ``QueryTree -> QueryTree | None`` registered
under a stable name (the names appear in fire counters, traces, EXPLAIN
docs and the ``OptimizerOptions.rules`` subset switch):

* ``decompose-selection`` — flatten the WHERE conjunction into a canonical
  conjunct list and order it by classification: single-binding selections
  (grouped per binding, most selective layer for the physical planner)
  before residual multi-binding predicates.
* ``push-join-conditions`` — move equi-join conjuncts (``A.x = B.y``) out
  of the selection predicate into the tree's join-condition list, where the
  physical planner reads join edges from.
* ``simplify-predicate`` — constant propagation, constant folding, boolean
  identities and comparison-negation push-through, by round-tripping the
  predicate through :mod:`repro.core.analysis.simplify` (see
  :mod:`repro.core.optimizer.bridge`).
* ``merge-ranges`` — merge comparisons of one column against literals:
  redundant bounds are dropped (``x > 3 AND x > 5`` → ``x > 5``) and
  incompatible ones collapse the predicate to ``FALSE``
  (``x = 5 AND x = 6``).
* ``eliminate-duplicates`` — drop duplicate conjuncts and duplicate
  (including mirrored) join conditions; a ``FALSE`` conjunct absorbs the
  whole predicate.

No rule touches a query's outputs: an entity output escapes the query
function to code the rewriter cannot see, so SQL generation always selects
all of its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.analysis.simplify import simplify
from repro.core.optimizer import bridge
from repro.core.optimizer.framework import Rule, RuleContext
from repro.core.querytree.nodes import (
    QueryTree,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlLiteral,
    clone_tree,
    sql_expr_references,
)


# -- conjunction helpers ----------------------------------------------------------------


def split_conjuncts(expression: Optional[SqlExpr]) -> list[SqlExpr]:
    """Flatten a (possibly nested) AND chain into its conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, SqlBinary) and expression.op == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def and_conjuncts(conjuncts: Sequence[SqlExpr]) -> Optional[SqlExpr]:
    """Rebuild a left-leaning AND chain (``None`` for the empty conjunction)."""
    result: Optional[SqlExpr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else SqlBinary("AND", result, conjunct)
    return result


# -- conjunct classification ------------------------------------------------------------


@dataclass
class PredicateClassification:
    """WHERE conjuncts sorted into the three classes the optimizer uses."""

    #: Equi-join conjuncts ``A.x = B.y`` between two different bindings.
    join_conditions: list[SqlBinary] = field(default_factory=list)
    #: Conjuncts referencing exactly one binding, keyed by its alias.
    selections: dict[str, list[SqlExpr]] = field(default_factory=dict)
    #: Everything else: multi-binding or binding-free conjuncts.
    residual: list[SqlExpr] = field(default_factory=list)


def is_join_condition(conjunct: SqlExpr) -> bool:
    """``A.x = B.y`` with two *different* binding aliases?"""
    return (
        isinstance(conjunct, SqlBinary)
        and conjunct.op == "="
        and isinstance(conjunct.left, SqlColumn)
        and isinstance(conjunct.right, SqlColumn)
        and conjunct.left.binding != conjunct.right.binding
    )


def classify_conjuncts(where: Optional[SqlExpr]) -> PredicateClassification:
    """Classify the top-level conjuncts of a selection predicate."""
    classification = PredicateClassification()
    for conjunct in split_conjuncts(where):
        if is_join_condition(conjunct):
            assert isinstance(conjunct, SqlBinary)
            classification.join_conditions.append(conjunct)
            continue
        aliases = sql_expr_references(conjunct)
        if len(aliases) == 1:
            alias = next(iter(aliases))
            classification.selections.setdefault(alias, []).append(conjunct)
        else:
            classification.residual.append(conjunct)
    return classification


# -- the rules ---------------------------------------------------------------------------


def decompose_selection(tree: QueryTree, context: RuleContext) -> Optional[QueryTree]:
    """Normalise WHERE into classified conjunct order (selections first)."""
    if tree.where is None:
        return None
    classification = classify_conjuncts(tree.where)
    ordered: list[SqlExpr] = []
    for binding in tree.bindings:
        ordered.extend(classification.selections.get(binding.alias, []))
    # Selections on aliases not in the binding list (defensive) and joins
    # stay in place; push-join-conditions moves the joins out afterwards.
    for alias in classification.selections:
        if not any(binding.alias == alias for binding in tree.bindings):
            ordered.extend(classification.selections[alias])
    ordered.extend(classification.join_conditions)
    ordered.extend(classification.residual)
    rebuilt = and_conjuncts(ordered)
    if rebuilt == tree.where:
        return None
    result = clone_tree(tree)
    result.where = rebuilt
    return result


def push_join_conditions(tree: QueryTree, context: RuleContext) -> Optional[QueryTree]:
    """Move equi-join conjuncts from WHERE into the join-condition list."""
    conjuncts = split_conjuncts(tree.where)
    kept: list[SqlExpr] = []
    moved: list[SqlBinary] = []
    for conjunct in conjuncts:
        if is_join_condition(conjunct):
            assert isinstance(conjunct, SqlBinary)
            moved.append(conjunct)
        else:
            kept.append(conjunct)
    if not moved:
        return None
    result = clone_tree(tree)
    result.where = and_conjuncts(kept)
    for condition in moved:
        if not _join_condition_known(result.join_conditions, condition):
            result.join_conditions.append(condition)
    return result


def simplify_predicate(tree: QueryTree, context: RuleContext) -> Optional[QueryTree]:
    """Constant propagation / folding via :mod:`repro.core.analysis.simplify`."""
    if tree.where is None:
        return None
    try:
        simplified = bridge.to_sql(simplify(bridge.to_symbolic(tree.where)))
    except bridge.UnconvertibleExpression:
        return None
    if simplified == tree.where:
        return None
    result = clone_tree(tree)
    result.where = None if simplified == SqlLiteral(True) else simplified
    return result


def merge_ranges(tree: QueryTree, context: RuleContext) -> Optional[QueryTree]:
    """Merge literal comparisons against the same column across conjuncts.

    Only *top-level* conjuncts participate — predicates inside OR branches
    are per-path conditions whose shape the paper's Fig. 12 preserves.
    """
    conjuncts = split_conjuncts(tree.where)
    if len(conjuncts) < 2:
        return None
    merged = _merge_comparison_conjuncts(conjuncts)
    if merged == conjuncts:
        return None
    result = clone_tree(tree)
    result.where = and_conjuncts(merged)
    return result


def eliminate_duplicates(tree: QueryTree, context: RuleContext) -> Optional[QueryTree]:
    """Drop duplicate/true conjuncts, absorb FALSE, dedupe join conditions."""
    changed = False

    conjuncts = split_conjuncts(tree.where)
    deduped: list[SqlExpr] = []
    for conjunct in conjuncts:
        if conjunct == SqlLiteral(True):
            changed = True
            continue
        if conjunct in deduped:
            changed = True
            continue
        deduped.append(conjunct)
    if any(conjunct == SqlLiteral(False) for conjunct in deduped) and deduped != [
        SqlLiteral(False)
    ]:
        deduped = [SqlLiteral(False)]
        changed = True

    join_conditions: list[SqlBinary] = []
    for condition in tree.join_conditions:
        if _join_condition_known(join_conditions, condition):
            changed = True
            continue
        join_conditions.append(condition)

    if not changed:
        return None
    result = clone_tree(tree)
    result.where = and_conjuncts(deduped)
    result.join_conditions = join_conditions
    return result


def default_rules(options) -> list[Rule]:
    """The default rule set, in application order."""
    return [
        Rule(
            "decompose-selection",
            "flatten WHERE into classified conjuncts (selections first)",
            decompose_selection,
        ),
        Rule(
            "push-join-conditions",
            "move equi-join conjuncts into the join-condition list",
            push_join_conditions,
        ),
        Rule(
            "simplify-predicate",
            "constant folding and boolean identities (reuses analysis/simplify)",
            simplify_predicate,
        ),
        Rule(
            "merge-ranges",
            "merge literal comparisons on one column; detect contradictions",
            merge_ranges,
        ),
        Rule(
            "eliminate-duplicates",
            "drop duplicate/true conjuncts and duplicate join conditions",
            eliminate_duplicates,
        ),
    ]


# -- range-merge internals ---------------------------------------------------------------


@dataclass
class _ColumnBounds:
    """Accumulated literal constraints on one column."""

    equality: Optional[SqlLiteral] = None
    lower: Optional[tuple[object, bool]] = None  # (value, inclusive)
    upper: Optional[tuple[object, bool]] = None
    not_equal: list[SqlLiteral] = field(default_factory=list)
    contradiction: bool = False


def _comparison_parts(
    conjunct: SqlExpr,
) -> Optional[tuple[SqlColumn, str, SqlLiteral]]:
    """Decompose ``column <op> literal`` / ``literal <op> column`` conjuncts."""
    if not isinstance(conjunct, SqlBinary):
        return None
    op = conjunct.op
    if op not in ("=", "!=", "<", "<=", ">", ">="):
        return None
    if isinstance(conjunct.left, SqlColumn) and isinstance(conjunct.right, SqlLiteral):
        return conjunct.left, op, conjunct.right
    if isinstance(conjunct.left, SqlLiteral) and isinstance(conjunct.right, SqlColumn):
        mirrored = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return conjunct.right, mirrored[op], conjunct.left
    return None


def _comparable(left: object, right: object) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return isinstance(left, str) and isinstance(right, str)


def _merge_comparison_conjuncts(conjuncts: list[SqlExpr]) -> list[SqlExpr]:
    bounds: dict[SqlColumn, _ColumnBounds] = {}
    order: list[SqlColumn] = []
    passthrough: list[tuple[int, SqlExpr]] = []
    mergeable_position: dict[SqlColumn, int] = {}

    for position, conjunct in enumerate(conjuncts):
        parts = _comparison_parts(conjunct)
        if parts is None:
            passthrough.append((position, conjunct))
            continue
        column, op, literal = parts
        if column not in bounds:
            bounds[column] = _ColumnBounds()
            order.append(column)
            mergeable_position[column] = position
        _absorb(bounds[column], op, literal)

    if any(b.contradiction for b in bounds.values()):
        return [SqlLiteral(False)]

    rebuilt: list[tuple[int, SqlExpr]] = list(passthrough)
    for column in order:
        position = mergeable_position[column]
        for offset, conjunct in enumerate(_render_bounds(column, bounds[column])):
            rebuilt.append((position, conjunct))
    rebuilt.sort(key=lambda pair: pair[0])
    return [conjunct for _, conjunct in rebuilt]


def _absorb(bounds: _ColumnBounds, op: str, literal: SqlLiteral) -> None:
    value = literal.value
    if op == "=":
        if bounds.equality is not None and bounds.equality != literal:
            bounds.contradiction = True
        bounds.equality = literal
    elif op == "!=":
        if literal not in bounds.not_equal:
            bounds.not_equal.append(literal)
    elif op in (">", ">="):
        candidate = (value, op == ">=")
        if bounds.lower is None or _tighter_lower(candidate, bounds.lower):
            bounds.lower = candidate
    elif op in ("<", "<="):
        candidate = (value, op == "<=")
        if bounds.upper is None or _tighter_upper(candidate, bounds.upper):
            bounds.upper = candidate
    _check_consistency(bounds)


def _tighter_lower(candidate: tuple[object, bool], current: tuple[object, bool]) -> bool:
    if not _comparable(candidate[0], current[0]):
        return False
    if candidate[0] != current[0]:
        return candidate[0] > current[0]  # type: ignore[operator]
    return current[1] and not candidate[1]  # strict beats inclusive


def _tighter_upper(candidate: tuple[object, bool], current: tuple[object, bool]) -> bool:
    if not _comparable(candidate[0], current[0]):
        return False
    if candidate[0] != current[0]:
        return candidate[0] < current[0]  # type: ignore[operator]
    return current[1] and not candidate[1]


def _check_consistency(bounds: _ColumnBounds) -> None:
    equality = bounds.equality
    if equality is not None:
        value = equality.value
        if any(
            not_equal.value == value for not_equal in bounds.not_equal
        ):
            bounds.contradiction = True
        if bounds.lower is not None and _comparable(value, bounds.lower[0]):
            low, inclusive = bounds.lower
            if value < low or (value == low and not inclusive):  # type: ignore[operator]
                bounds.contradiction = True
        if bounds.upper is not None and _comparable(value, bounds.upper[0]):
            high, inclusive = bounds.upper
            if value > high or (value == high and not inclusive):  # type: ignore[operator]
                bounds.contradiction = True
    if (
        bounds.lower is not None
        and bounds.upper is not None
        and _comparable(bounds.lower[0], bounds.upper[0])
    ):
        low, low_inclusive = bounds.lower
        high, high_inclusive = bounds.upper
        if low > high or (  # type: ignore[operator]
            low == high and not (low_inclusive and high_inclusive)
        ):
            bounds.contradiction = True


def _render_bounds(column: SqlColumn, bounds: _ColumnBounds) -> list[SqlExpr]:
    conjuncts: list[SqlExpr] = []
    if bounds.equality is not None:
        # Equality subsumes every satisfiable bound (consistency already
        # checked); the not-equal conjuncts are subsumed too.
        conjuncts.append(SqlBinary("=", column, bounds.equality))
        return conjuncts
    if bounds.lower is not None:
        value, inclusive = bounds.lower
        conjuncts.append(
            SqlBinary(">=" if inclusive else ">", column, SqlLiteral(value))  # type: ignore[arg-type]
        )
    if bounds.upper is not None:
        value, inclusive = bounds.upper
        conjuncts.append(
            SqlBinary("<=" if inclusive else "<", column, SqlLiteral(value))  # type: ignore[arg-type]
        )
    for literal in bounds.not_equal:
        conjuncts.append(SqlBinary("!=", column, literal))
    return conjuncts


def _join_condition_known(
    conditions: Sequence[SqlBinary], candidate: SqlBinary
) -> bool:
    """Is ``candidate`` (or its mirror image) already in ``conditions``?"""
    mirrored = SqlBinary(candidate.op, candidate.right, candidate.left)
    return candidate in conditions or mirrored in conditions
