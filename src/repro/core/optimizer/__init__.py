"""Rule-based logical optimization of query trees.

This package is the missing stage between query-tree construction
(:mod:`repro.core.querytree`) and SQL generation (:mod:`repro.core.sqlgen`):
a rewrite framework over :class:`~repro.core.querytree.nodes.QueryTree`
(rules as ``QueryTree -> QueryTree | None`` functions, a fixed-point driver
with a pass cap, per-rule fire counters and a trace mode) plus the default
rule catalog — conjunct decomposition and classification, selection pushdown
into join conditions, constant propagation (reusing
:mod:`repro.core.analysis.simplify`), range merging and
duplicate/contradiction elimination.

See ``docs/optimizer.md`` for the rule catalog with before/after examples
and ``OptimizerOptions(optimize=False)`` for the ablation switch.
"""

from __future__ import annotations

from repro.core.optimizer.framework import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
    Rule,
    RuleApplication,
    RuleContext,
    describe_tree,
)
from repro.core.optimizer.rules import (
    PredicateClassification,
    classify_conjuncts,
    default_rules,
)

__all__ = [
    "OptimizationResult",
    "Optimizer",
    "OptimizerOptions",
    "PredicateClassification",
    "Rule",
    "RuleApplication",
    "RuleContext",
    "classify_conjuncts",
    "default_rules",
    "describe_tree",
]
