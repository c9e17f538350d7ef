"""The ``@query`` decorator: transparent rewriting of Python query functions.

A ``@query`` function is ordinary Python::

    @query
    def canadians(em, country):
        result = QuerySet()
        for c in em.all(Client):
            if c.country == country:
                result.add(c.name)
        return result

Calling it without the decorator (or when the rewrite does not apply) scans
the whole table through the ORM — correct but slow, exactly the behaviour the
paper requires of un-rewritten queries.  With the decorator, the first call
analyses the function's compiled bytecode through the Queryll pipeline; when
the analysis succeeds the call executes the generated SQL instead and the
loop never runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable, Optional

from repro.core.expr import nodes
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryllPipeline, RewrittenQuery
from repro.core.runtime import execute_generated_query, lazy_generated_query
from repro.core.tac.instructions import Assign, Goto, Instruction, Nop, Return
from repro.core.tac.method import TacMethod
from repro.orm.entity_manager import EntityManager
from repro.orm.mapping import OrmMapping
from repro.orm.queryset import QuerySet
from repro.pyfrontend.disassembler import lower_function
from repro.errors import UnsupportedQueryError


@dataclass
class _CachedAnalysis:
    """Per-mapping analysis result for one decorated function."""

    rewritten: Optional[RewrittenQuery]
    reason: Optional[str]
    dest_is_parameter: bool = False
    returns_destination: bool = False


class QueryFunction:
    """Callable wrapper installed by :func:`query`."""

    def __init__(
        self,
        function: FunctionType,
        fallback: bool = True,
        optimizer_options: Optional[OptimizerOptions] = None,
    ) -> None:
        self._function = function
        self._fallback = fallback
        self._optimizer_options = optimizer_options or OptimizerOptions()
        self._signature = inspect.signature(function)
        self._tac: Optional[TacMethod] = None
        self._tac_error: Optional[str] = None
        self._analyses: dict[int, _CachedAnalysis] = {}
        #: Statistics observable by tests and benchmarks.
        self.rewritten_calls = 0
        self.fallback_calls = 0
        # Preserve introspection metadata.
        self.__name__ = function.__name__
        self.__doc__ = function.__doc__
        self.__wrapped__ = function

    # -- public helpers ----------------------------------------------------------------

    @property
    def original(self) -> FunctionType:
        """The undecorated function."""
        return self._function

    def tac(self) -> TacMethod:
        """The function's bytecode lowered to three-address code."""
        if self._tac is None and self._tac_error is None:
            try:
                self._tac = lower_function(self._function)
            except UnsupportedQueryError as error:
                self._tac_error = str(error)
        if self._tac is None:
            raise UnsupportedQueryError(self._tac_error or "lowering failed")
        return self._tac

    def analysis(self, mapping: OrmMapping) -> _CachedAnalysis:
        """Analyse (and cache) the function against an ORM mapping."""
        key = id(mapping)
        if key in self._analyses:
            return self._analyses[key]
        cached = self._analyse(mapping)
        self._analyses[key] = cached
        return cached

    def generated_sql(self, mapping_or_em: OrmMapping | EntityManager) -> Optional[str]:
        """The SQL this function rewrites to (None when not rewritable)."""
        mapping = (
            mapping_or_em.mapping
            if isinstance(mapping_or_em, EntityManager)
            else mapping_or_em
        )
        cached = self.analysis(mapping)
        return cached.rewritten.sql if cached.rewritten is not None else None

    def rewrite_reason(self, mapping_or_em: OrmMapping | EntityManager) -> Optional[str]:
        """Why the function is not rewritable (None when it is)."""
        mapping = (
            mapping_or_em.mapping
            if isinstance(mapping_or_em, EntityManager)
            else mapping_or_em
        )
        return self.analysis(mapping).reason

    def is_rewritable(self, mapping_or_em: OrmMapping | EntityManager) -> bool:
        """True if calls will execute generated SQL instead of the loop."""
        return self.generated_sql(mapping_or_em) is not None

    # -- the call ----------------------------------------------------------------------

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        entity_manager = self._find_entity_manager(bound.arguments)
        if entity_manager is None:
            return self._call_original(args, kwargs)

        cached = self.analysis(entity_manager.mapping)
        if cached.rewritten is None:
            return self._call_original(args, kwargs)

        variable_values = self._bind_outer_variables(
            cached.rewritten, bound.arguments
        )
        if variable_values is None:
            return self._call_original(args, kwargs)

        self.rewritten_calls += 1
        if cached.dest_is_parameter:
            destination = bound.arguments[cached.rewritten.query.dest_var]
            execute_generated_query(
                entity_manager, cached.rewritten.generated, variable_values, destination
            )
            return destination if cached.returns_destination else None
        return lazy_generated_query(
            entity_manager, cached.rewritten.generated, variable_values
        )

    # -- internals ----------------------------------------------------------------------

    def _call_original(self, args: tuple, kwargs: dict) -> Any:
        if not self._fallback:
            raise UnsupportedQueryError(
                f"{self._function.__qualname__} could not be rewritten and "
                "fallback execution is disabled"
            )
        self.fallback_calls += 1
        return self._function(*args, **kwargs)

    def _find_entity_manager(self, arguments: dict[str, Any]) -> Optional[EntityManager]:
        for value in arguments.values():
            if isinstance(value, EntityManager):
                return value
        return None

    def _analyse(self, mapping: OrmMapping) -> _CachedAnalysis:
        try:
            method = self.tac()
        except UnsupportedQueryError as error:
            return _CachedAnalysis(rewritten=None, reason=str(error))
        pipeline = QueryllPipeline(mapping, optimizer_options=self._optimizer_options)
        report = pipeline.analyze_method(method)
        if not report.queries:
            reason = report.skipped[0][1] if report.skipped else "no query loop found"
            return _CachedAnalysis(rewritten=None, reason=reason)
        if len(report.queries) != 1:
            return _CachedAnalysis(
                rewritten=None,
                reason="functions with several query loops are executed unrewritten",
            )
        rewritten = report.queries[0]
        shape = _check_simple_shape(method, rewritten)
        if shape is None:
            return _CachedAnalysis(
                rewritten=None,
                reason="the function does more than build and return one QuerySet",
            )
        dest_is_parameter, returns_destination = shape
        return _CachedAnalysis(
            rewritten=rewritten,
            reason=None,
            dest_is_parameter=dest_is_parameter,
            returns_destination=returns_destination,
        )

    def _bind_outer_variables(
        self, rewritten: RewrittenQuery, arguments: dict[str, Any]
    ) -> Optional[dict[str, Any]]:
        values: dict[str, Any] = {}
        closure_values = self._closure_values()
        for source in rewritten.parameter_sources:
            if source in arguments:
                values[source] = arguments[source]
            elif source in closure_values:
                values[source] = closure_values[source]
            elif source in self._function.__globals__:
                values[source] = self._function.__globals__[source]
            else:
                return None
        return values

    def _closure_values(self) -> dict[str, Any]:
        code = self._function.__code__
        closure = self._function.__closure__ or ()
        values: dict[str, Any] = {}
        for name, cell in zip(code.co_freevars, closure):
            try:
                values[name] = cell.cell_contents
            except ValueError:
                continue
        return values


def _check_simple_shape(
    method: TacMethod, rewritten: RewrittenQuery
) -> Optional[tuple[bool, bool]]:
    """Check that the whole function is "build one QuerySet and return it".

    Returns (dest_is_parameter, returns_destination) when the shape matches,
    or None when the function does extra work outside the loop (in which case
    the decorator falls back to executing it unmodified).
    """
    query = rewritten.query
    dest = query.dest_var
    dest_is_parameter = dest in method.parameters
    returns_destination = False

    for index, instruction in enumerate(method.instructions):
        if index in query.loop.instructions:
            continue
        if isinstance(instruction, (Goto, Nop)):
            continue
        if isinstance(instruction, Return):
            value = instruction.value
            if isinstance(value, nodes.Var) and value.name == dest:
                returns_destination = True
                continue
            if value is None or value == nodes.Constant(None):
                continue
            return None
        if isinstance(instruction, Assign):
            if _is_setup_assignment(instruction, dest):
                continue
            return None
        return None
    return dest_is_parameter, returns_destination


def _is_setup_assignment(instruction: Assign, dest: str) -> bool:
    value = instruction.value
    if instruction.target == dest:
        return isinstance(value, nodes.New) and value.class_name in (
            "QuerySet",
            "tuple",
            "list",
        ) and not value.args
    if isinstance(value, nodes.Call) and value.method == "iterator":
        return True
    if isinstance(value, nodes.Constant):
        return True
    if isinstance(value, (nodes.BinOp, nodes.UnaryOp)):
        return _only_constants(value)
    return False


def _only_constants(expression: nodes.Expression) -> bool:
    if isinstance(expression, nodes.Constant):
        return True
    if isinstance(expression, nodes.BinOp):
        return _only_constants(expression.left) and _only_constants(expression.right)
    if isinstance(expression, nodes.UnaryOp):
        return _only_constants(expression.operand)
    return False


def query(
    function: Optional[Callable] = None,
    *,
    fallback: bool = True,
    optimize: bool = True,
    optimizer_options: Optional[OptimizerOptions] = None,
) -> QueryFunction | Callable[[Callable], QueryFunction]:
    """Mark a function as a Queryll query (the paper's ``@Query`` annotation).

    ``fallback=False`` turns failed rewrites into errors instead of silently
    executing the original loop — useful in tests that must assert a query is
    actually translated to SQL.

    ``optimize=False`` disables the logical query-tree optimizer for this
    function (the ablation the benchmarks measure: the same SELECT lists
    with un-normalized predicates, as the bare paper pipeline emits).
    ``optimizer_options`` passes a full
    :class:`~repro.core.optimizer.OptimizerOptions` instead, for rule
    subsets or trace mode.
    """

    def wrap(func: Callable) -> QueryFunction:
        if not isinstance(func, FunctionType):
            raise TypeError("@query can only decorate plain functions")
        options = optimizer_options
        if options is None:
            options = OptimizerOptions(optimize=optimize)
        return QueryFunction(func, fallback=fallback, optimizer_options=options)

    if function is not None:
        return wrap(function)
    return wrap
