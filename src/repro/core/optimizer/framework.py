"""The rewrite framework: rules, the fixed-point driver and tracing.

A *rule* is a function from :class:`~repro.core.querytree.nodes.QueryTree`
to ``QueryTree | None``: it returns a **new** tree when it fired (the input
tree is never mutated) and ``None`` when it has nothing to do.  The
:class:`Optimizer` applies the registered rules round-robin until a whole
pass fires nothing — a fixed point — or the pass cap is hit.  Per-rule fire
counters and an optional trace (one :class:`RuleApplication` record per
firing, with the tree printed before and after) make every optimization
decision observable; ``docs/optimizer.md`` is generated from exactly this
trace output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    Output,
    PairOutput,
    QueryTree,
    TupleOutput,
)
from repro.core.sqlgen.dialect import ExpressionRenderer
from repro.orm.mapping import OrmMapping

#: A rewrite rule: new tree when it fired, ``None`` when nothing changed.
RuleFunction = Callable[[QueryTree, "RuleContext"], Optional[QueryTree]]


@dataclass(frozen=True)
class Rule:
    """A named rewrite rule."""

    name: str
    description: str
    transform: RuleFunction


@dataclass
class RuleContext:
    """Everything a rule may consult besides the tree itself."""

    mapping: OrmMapping
    options: "OptimizerOptions"


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the logical optimizer.

    ``optimize=False`` is the ablation switch: the pipeline then emits
    exactly the SQL the unoptimized rewriter always produced — the same
    SELECT lists with un-normalized predicates.
    """

    #: Master switch: ``False`` skips the optimizer entirely (ablation mode).
    optimize: bool = True
    #: Upper bound on fixed-point passes; each rule must shrink or preserve
    #: the tree, so this is a defensive cap rather than a tuning knob.
    max_passes: int = 10
    #: Record a :class:`RuleApplication` for every rule firing.
    trace: bool = False
    #: Restrict the rule set to these names (``None`` = every default rule).
    rules: Optional[tuple[str, ...]] = None


@dataclass
class RuleApplication:
    """One rule firing, for ``trace`` mode and EXPLAIN-style docs."""

    pass_number: int
    rule: str
    before: str
    after: str


@dataclass
class OptimizationResult:
    """The outcome of optimizing one query tree."""

    tree: QueryTree
    original: QueryTree
    passes: int = 0
    fire_counts: dict[str, int] = field(default_factory=dict)
    trace: list[RuleApplication] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        """True when at least one rule changed the tree."""
        return any(self.fire_counts.values())

    def describe_trace(self) -> str:
        """Readable multi-line rendering of the recorded rule applications."""
        lines: list[str] = []
        for application in self.trace:
            lines.append(
                f"pass {application.pass_number}: {application.rule}"
            )
            lines.append("  before: " + application.before.replace("\n", "\n          "))
            lines.append("  after:  " + application.after.replace("\n", "\n          "))
        return "\n".join(lines)


class Optimizer:
    """Fixed-point driver applying a rule set to query trees."""

    def __init__(
        self,
        mapping: OrmMapping,
        options: Optional[OptimizerOptions] = None,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        from repro.core.optimizer.rules import default_rules

        self._mapping = mapping
        self._options = options or OptimizerOptions()
        selected = list(rules) if rules is not None else default_rules(self._options)
        if self._options.rules is not None:
            wanted = set(self._options.rules)
            selected = [rule for rule in selected if rule.name in wanted]
        self._rules = selected
        self._context = RuleContext(mapping=mapping, options=self._options)

    @property
    def rules(self) -> list[Rule]:
        """The active rule set, in application order."""
        return list(self._rules)

    def optimize(self, tree: QueryTree) -> OptimizationResult:
        """Rewrite ``tree`` to a fixed point of the rule set.

        The input tree is left untouched; the result holds the rewritten
        tree, the original, per-rule fire counters and (in ``trace`` mode)
        one record per rule application.
        """
        result = OptimizationResult(
            tree=tree,
            original=tree,
            fire_counts={rule.name: 0 for rule in self._rules},
        )
        if not self._options.optimize:
            return result

        current = tree
        for pass_number in range(1, self._options.max_passes + 1):
            fired_this_pass = False
            for rule in self._rules:
                rewritten = rule.transform(current, self._context)
                if rewritten is None or rewritten == current:
                    continue
                fired_this_pass = True
                result.fire_counts[rule.name] += 1
                if self._options.trace:
                    result.trace.append(
                        RuleApplication(
                            pass_number=pass_number,
                            rule=rule.name,
                            before=describe_tree(current),
                            after=describe_tree(rewritten),
                        )
                    )
                current = rewritten
            result.passes = pass_number
            if not fired_this_pass:
                break
        result.tree = current
        return result


def describe_tree(tree: QueryTree) -> str:
    """Render a query tree as readable text (used by traces and docs)."""
    renderer = ExpressionRenderer()
    lines = [
        "bindings: "
        + ", ".join(f"{b.alias}={b.entity_name}({b.table})" for b in tree.bindings)
    ]
    lines.append("output: " + (_describe_output(tree.output, renderer) or "-"))
    if tree.where is not None:
        lines.append("where: " + renderer.render(tree.where))
    if tree.join_conditions:
        lines.append(
            "joins: " + " AND ".join(renderer.render(j) for j in tree.join_conditions)
        )
    if tree.order_by:
        parts = [
            renderer.render(expression) + (" DESC" if descending else "")
            for expression, descending in tree.order_by
        ]
        lines.append("order by: " + ", ".join(parts))
    if tree.limit is not None:
        lines.append(f"limit: {tree.limit}")
    return "\n".join(lines)


def _describe_output(output: Optional[Output], renderer: ExpressionRenderer) -> str:
    if output is None:
        return ""
    if isinstance(output, EntityOutput):
        return f"{output.entity_name}@{output.binding}"
    if isinstance(output, ColumnOutput):
        return renderer.render(output.expression)
    if isinstance(output, PairOutput):
        first = _describe_output(output.first, renderer)
        second = _describe_output(output.second, renderer)
        return f"Pair({first}, {second})"
    if isinstance(output, TupleOutput):
        return "(" + ", ".join(_describe_output(i, renderer) for i in output.items) + ")"
    return repr(output)
