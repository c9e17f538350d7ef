"""End-to-end analysis pipeline: TAC method in, generated SQL out.

This is the driver that ties the stages of the paper's Fig. 9 together for a
single method body: loop detection, for-each recognition, side-effect
checking, path enumeration, backward substitution, simplification, query-tree
construction and SQL generation.  Frontends (the mini-JVM rewriter and the
Python ``@query`` decorator) feed TAC into :func:`analyze_method` and decide
what to do with the resulting :class:`RewrittenQuery` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis.foreach import ForEachQuery, find_foreach_queries
from repro.core.analysis.paths import LoopPath, enumerate_paths
from repro.core.analysis.sideeffects import check_side_effects
from repro.core.analysis.simplify import simplify
from repro.core.analysis.substitution import PathAnalysis, analyze_path
from repro.core.cfg.graph import build_cfg
from repro.core.expr import nodes
from repro.core.querytree.builder import QueryTreeBuilder
from repro.core.querytree.nodes import QueryTree
from repro.core.sqlgen.generator import GeneratedSql, SqlGenerator
from repro.core.tac.instructions import Assign
from repro.core.tac.method import TacMethod
from repro.orm.mapping import OrmMapping
from repro.errors import UnsupportedQueryError


@dataclass
class RewrittenQuery:
    """Everything the pipeline learned about one query loop.

    ``tree`` is the query tree the builder produced and the SQL was
    generated from; planning the SQL is left to the database.
    """

    method: TacMethod
    query: ForEachQuery
    paths: list[LoopPath]
    path_analyses: list[PathAnalysis]
    tree: QueryTree
    generated: GeneratedSql

    @property
    def sql(self) -> str:
        """The generated SQL text."""
        return self.generated.sql

    @property
    def parameter_sources(self) -> list[str]:
        """Outer variables whose values must be bound at run time."""
        return list(self.generated.parameter_sources)


@dataclass
class AnalysisReport:
    """Outcome of analysing a whole method: queries found plus any loops
    that were skipped and why (useful for diagnostics and tests)."""

    queries: list[RewrittenQuery] = field(default_factory=list)
    skipped: list[tuple[ForEachQuery, str]] = field(default_factory=list)


class QueryllPipeline:
    """The Queryll analysis pipeline bound to one ORM mapping."""

    def __init__(self, mapping: OrmMapping, record_trace: bool = False) -> None:
        self._mapping = mapping
        self._builder = QueryTreeBuilder(mapping)
        self._generator = SqlGenerator(mapping)
        self._record_trace = record_trace

    @property
    def mapping(self) -> OrmMapping:
        """The ORM mapping used for interpretation."""
        return self._mapping

    # -- analysis ---------------------------------------------------------------------

    def analyze_method(self, method: TacMethod) -> AnalysisReport:
        """Analyse every candidate query loop of ``method``.

        Loops that match the for-each pattern but cannot be translated are
        reported in :attr:`AnalysisReport.skipped` rather than failing the
        whole method — the untranslated loop still executes correctly, just
        inefficiently, exactly as the paper describes.
        """
        method.validate()
        report = AnalysisReport()
        for query in find_foreach_queries(method):
            try:
                report.queries.append(self.analyze_query(method, query))
            except UnsupportedQueryError as error:
                report.skipped.append((query, str(error)))
        return report

    def analyze_query(self, method: TacMethod, query: ForEachQuery) -> RewrittenQuery:
        """Analyse one identified for-each loop into a rewritten query."""
        check_side_effects(method, query)
        cfg = build_cfg(method)
        paths = enumerate_paths(method, cfg, query)
        analyses = []
        for path in paths:
            analysis = analyze_path(method, query, path, record_trace=self._record_trace)
            analysis = PathAnalysis(
                condition=simplify(
                    _inline_constant_locals(method, query, analysis.condition)
                ),
                value=simplify(_inline_constant_locals(method, query, analysis.value)),
                add_method=analysis.add_method,
                trace=analysis.trace,
            )
            analyses.append(analysis)
        tree = self._builder.build(query.source_expression, analyses)
        return RewrittenQuery(
            method=method,
            query=query,
            paths=paths,
            path_analyses=analyses,
            tree=tree,
            generated=self._generator.generate(tree),
        )


def analyze_method(
    method: TacMethod, mapping: OrmMapping, record_trace: bool = False
) -> list[RewrittenQuery]:
    """Convenience wrapper: analyse ``method`` and return its queries."""
    pipeline = QueryllPipeline(mapping, record_trace=record_trace)
    return pipeline.analyze_method(method).queries


# -- helpers ---------------------------------------------------------------------------


def _inline_constant_locals(
    method: TacMethod, query: ForEachQuery, expression: nodes.Expression
) -> nodes.Expression:
    """Inline pre-loop locals whose unique definition is a constant expression.

    The paper's Fig. 5 assigns ``String country = "Canada"`` before the loop;
    after inlining, the generated WHERE clause can embed the constant (or the
    simplifier folds it), and only genuine method parameters remain as SQL
    ``?`` parameters.
    """
    loop = query.loop
    for _ in range(16):
        replacements: dict[str, nodes.Expression] = {}
        for name in sorted(nodes.expression_variables(expression)):
            if name in method.parameters:
                continue
            definitions = method.definitions_of(name)
            outside = [index for index in definitions if index not in loop.instructions]
            if len(definitions) != 1 or len(outside) != 1:
                continue
            definition = method.instructions[outside[0]]
            assert isinstance(definition, Assign)
            if _is_constant_expression(definition.value):
                replacements[name] = definition.value
        if not replacements:
            return expression
        expression = nodes.substitute(expression, replacements)
    return expression


def _is_constant_expression(expression: nodes.Expression) -> bool:
    if isinstance(expression, nodes.Constant):
        return True
    if isinstance(expression, nodes.BinOp):
        return _is_constant_expression(expression.left) and _is_constant_expression(
            expression.right
        )
    if isinstance(expression, (nodes.UnaryOp, nodes.Cast)):
        return _is_constant_expression(expression.operand)
    return False
