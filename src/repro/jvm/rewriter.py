"""The Queryll bytecode rewriter for mini-JVM classfiles.

This is the second of the paper's two programs (Fig. 9): it takes compiled
classfiles, finds methods annotated ``@Query``, converts their bytecode to
three-address code, runs the analysis pipeline, splices in the generated SQL
runtime calls and re-emits bytecode.  Methods (or individual loops) that
cannot be translated are left untouched — they still run, just inefficiently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import QueryllPipeline, RewrittenQuery
from repro.core.rewriter import DEFAULT_REGISTRY, QueryRegistry, splice_rewritten_queries
from repro.jvm.classfile import ClassFile, MethodInfo
from repro.jvm.stack_to_tac import method_to_tac
from repro.jvm.tac_to_bytecode import tac_to_instructions
from repro.jvm.verifier import verify_method
from repro.orm.mapping import OrmMapping
from repro.errors import UnsupportedQueryError


@dataclass
class MethodRewriteInfo:
    """What happened to one ``@Query`` method."""

    method_name: str
    rewritten_queries: list[RewrittenQuery] = field(default_factory=list)
    skipped_reasons: list[str] = field(default_factory=list)

    @property
    def was_rewritten(self) -> bool:
        """True if at least one loop was replaced by SQL."""
        return bool(self.rewritten_queries)


@dataclass
class RewriteResult:
    """Outcome of rewriting a whole classfile."""

    classfile: ClassFile
    methods: dict[str, MethodRewriteInfo] = field(default_factory=dict)

    @property
    def rewritten_method_names(self) -> list[str]:
        """Names of methods in which at least one query was rewritten."""
        return [name for name, info in self.methods.items() if info.was_rewritten]

    def generated_sql(self, method_name: str) -> list[str]:
        """SQL statements generated for a given method."""
        info = self.methods.get(method_name)
        if info is None:
            return []
        return [query.sql for query in info.rewritten_queries]


class BytecodeRewriter:
    """Rewrites ``@Query`` methods of classfiles to use SQL."""

    def __init__(
        self,
        mapping: OrmMapping,
        registry: Optional[QueryRegistry] = None,
        verify: bool = True,
    ) -> None:
        self._pipeline = QueryllPipeline(mapping)
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._verify = verify

    @property
    def registry(self) -> QueryRegistry:
        """The registry rewritten bytecode refers to."""
        return self._registry

    # -- classfile level ------------------------------------------------------------------

    def rewrite_classfile(self, classfile: ClassFile) -> RewriteResult:
        """Rewrite every ``@Query`` method of a classfile (copy-on-write)."""
        output = classfile.copy()
        result = RewriteResult(classfile=output)
        for method in output.query_methods():
            info = self.rewrite_method(method)
            result.methods[method.name] = info
        return result

    def rewrite_classfile_bytes(self, data: bytes) -> tuple[bytes, RewriteResult]:
        """Rewrite a serialised classfile, returning new bytes plus the report."""
        classfile = ClassFile.from_bytes(data)
        result = self.rewrite_classfile(classfile)
        return result.classfile.to_bytes(), result

    # -- method level -----------------------------------------------------------------------

    def rewrite_method(self, method: MethodInfo) -> MethodRewriteInfo:
        """Rewrite one method in place (its instruction list is replaced)."""
        info = MethodRewriteInfo(method_name=method.name)
        if self._verify:
            verify_method(method)
        try:
            tac = method_to_tac(method)
        except Exception as error:  # noqa: BLE001 - any failure means "leave as is"
            info.skipped_reasons.append(f"could not convert to three-address code: {error}")
            return info

        report = self._pipeline.analyze_method(tac)
        info.skipped_reasons.extend(reason for _, reason in report.skipped)
        if not report.queries:
            return info

        try:
            splice = splice_rewritten_queries(tac, report.queries, self._registry)
        except UnsupportedQueryError as error:
            info.skipped_reasons.append(str(error))
            return info
        info.skipped_reasons.extend(reason for _, reason in splice.skipped)
        if not splice.replaced:
            return info

        new_instructions = tac_to_instructions(splice.method)
        method.instructions = new_instructions
        if self._verify:
            verify_method(method)
        info.rewritten_queries = splice.replaced
        return info
