"""Query planner: turns a parsed SELECT statement into an operator tree,
and an UPDATE or DELETE into a :class:`DmlPlan` over the same access paths.

The planner performs the optimisations a relational engine needs for the
paper's workload:

* **slot assignment**: every published column gets a positional slot (one
  contiguous range per FROM-clause binding); expressions compile to slot
  reads and operators pass positional rows — no per-row dictionaries,
* predicate pushdown of single-table conjuncts onto their scans,
* index selection for equality predicates on indexed columns,
* equi-join detection with a choice of index nested-loop join or hash join
  (and, in batch plans, a semi-join when one side is a unique-keyed binding
  that nothing above the join reads),
* **cost-based join ordering** driven by table statistics (live row counts
  and incremental per-index distinct-key counts from
  :meth:`repro.sqlengine.storage.TableData.statistics`): the planner
  estimates access-path and join cardinalities, orders joins by estimated
  cost and picks the physical join operator the estimates favour,
* sort / limit / distinct handling and ungrouped aggregates
  (COUNT/SUM/MIN/MAX/AVG).

Planning runs in three steps: *decompose* the statement once (bindings,
slots, conjunct classes, validated outputs), *order* its joins once, then
*lower* that order to either the row operators or the columnar batch
operators.  Both lowerings annotate from the same step estimates, so every
operator carries the same estimated row count and cumulative cost in
either mode; ``EXPLAIN`` (and :meth:`SelectPlan.explain`) print them per
node.  ``UPDATE`` and ``DELETE`` are a third lowering of a single binding:
the access path a SELECT with the same ``WHERE`` would use, chosen by the
same selector (:meth:`Planner._estimate_access`).  Planner behaviour can
be tuned via :class:`PlannerOptions`; the ablation benchmarks and the
planner equivalence property tests exercise those switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, TableSchema
from repro.sqlengine.columnar import (
    DEFAULT_BATCH_SIZE,
    BatchAggregate,
    BatchFilter,
    BatchHashJoin,
    BatchOperator,
    BatchOutput,
    BatchScan,
    BatchSemiJoin,
    BatchSort,
    ColumnarMetrics,
    compile_columnwise,
)
from repro.sqlengine.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.expressions import (
    Evaluator,
    ExpressionCompiler,
    Params,
    Row,
    collect_column_refs,
    is_truthy,
    split_conjuncts,
)
from repro.sqlengine.indexes import Index
from repro.sqlengine.operators import (
    Aggregate,
    Distinct,
    DmlTarget,
    Filter,
    HashJoin,
    IndexLookupScan,
    IndexNestedLoopJoin,
    IndexOrLookupJoin,
    Limit,
    NestedLoopJoin,
    PlanOperator,
    Project,
    SeqScan,
    Sort,
    probe_key,
)
from repro.sqlengine.storage import TableData

#: Aggregate functions the ungrouped-aggregate path supports.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})

# Default selectivities for predicates the statistics cannot estimate.
_EQUALITY_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 1.0 / 3.0
_LIKE_SELECTIVITY = 0.25
_NOT_EQUAL_SELECTIVITY = 0.9
_DEFAULT_SELECTIVITY = 0.5

#: In ``execution_mode="auto"`` a query only goes columnar when the tables
#: it scans hold at least this many rows combined — below it, per-batch
#: setup costs more than row-at-a-time saves.
_BATCH_ROW_THRESHOLD = 256

#: Valid values of :attr:`PlannerOptions.execution_mode`.
_EXECUTION_MODES = ("auto", "row", "batch")


@dataclass(frozen=True)
class PlannerOptions:
    """Switches controlling which access paths the planner may use.
    Frozen so the mode validated at construction cannot change later."""

    use_indexes: bool = True
    use_index_nested_loop_join: bool = True
    use_hash_join: bool = True
    #: Vectorized execution: ``auto`` lets a cost/shape heuristic pick
    #: batch or row execution per query, ``batch`` forces batch whenever
    #: the join graph supports it (ablation), ``row`` disables it.
    execution_mode: str = "auto"
    #: Row slots per column batch in batch execution.
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.execution_mode not in _EXECUTION_MODES:
            raise SqlExecutionError(
                f"unknown execution_mode {self.execution_mode!r} "
                f"(expected one of {', '.join(_EXECUTION_MODES)})"
            )

    def cache_key(self) -> tuple:
        """Hashable identity of these options for the plan cache."""
        return (
            self.use_indexes,
            self.use_index_nested_loop_join,
            self.use_hash_join,
            self.execution_mode,
            self.batch_size,
        )


@dataclass
class SelectPlan:
    """A planned SELECT: the operator tree plus its output column names.

    ``stats_snapshot`` records each referenced table's live row count at
    planning time; the engine's plan cache compares it against current
    counts and replans when the statistics have drifted too far.
    """

    root: PlanOperator
    column_names: list[str]
    stats_snapshot: dict[str, int] = field(default_factory=dict)
    #: Chosen execution mode (``row`` or ``batch``) and, for batch plans,
    #: the batch size; EXPLAIN reports both.
    mode: str = "row"
    batch_size: Optional[int] = None

    def explain(self, annotate=None) -> str:
        """Human-readable plan tree with per-node estimated rows/cost.
        ``annotate`` is forwarded to the operators (EXPLAIN ANALYZE)."""
        if self.mode == "batch":
            header = f"mode=batch (batch_size={self.batch_size})"
        else:
            header = "mode=row"
        return header + "\n" + self.root.explain(annotate=annotate)


@dataclass
class DmlPlan:
    """A planned UPDATE or DELETE of one table.

    ``index`` is the index the selector chose, probed with the key that
    ``key_evaluators`` produce (in index column order); None means the plan
    falls back to a scan.  ``residual`` holds the conjuncts the probe does
    not answer, ``assignments`` the ``(column position, value)`` pairs of
    an UPDATE.  Everything is compiled against the stored-tuple layout, so
    the executor evaluates it on storage rows directly.
    """

    data: TableData
    index: Optional[Index]
    key_evaluators: list[Evaluator]
    residual: Optional[Evaluator]
    assignments: list[tuple[int, Evaluator]]
    #: ``Update``/``Delete`` over the row lowering's access path (EXPLAIN).
    root: PlanOperator
    stats_snapshot: dict[str, int] = field(default_factory=dict)
    #: DML always lowers to row operators.
    mode = "row"

    def matching_rows(self, params: Params) -> list[tuple[int, Row]]:
        """The ``(row id, row)`` pairs the statement writes, resolved
        against the caller's snapshot and materialised before the first
        write, so index maintenance cannot disturb the probe or scan."""
        data = self.data
        if self.index is None:
            candidates = data.scan()
        else:
            key = probe_key(self.key_evaluators, params)
            if key is None:
                return []
            candidates = data.lookup_rows(self.index, key)
        residual = self.residual
        if residual is None:
            return list(candidates)
        return [
            (row_id, row)
            for row_id, row in candidates
            if is_truthy(residual(row, params))
        ]

    def explain(self) -> str:
        """``mode=row``, the written table, then the access path with the
        same per-node estimates the row lowering prints for a SELECT."""
        return "mode=row\n" + self.root.explain()


@dataclass
class _Binding:
    """One FROM-clause entry resolved against the catalog."""

    name: str
    schema: TableSchema
    data: TableData
    conjuncts: list[ast.Expression] = field(default_factory=list)
    #: First slot of this binding's columns in the query's row layout.
    slot_start: int = 0
    #: Memoised access-path estimate: bindings, conjuncts and statistics
    #: are fixed for the duration of one plan_select pass, and the estimate
    #: is consulted once per candidate per join round.
    access_estimate: Optional["_AccessEstimate"] = None

    @property
    def slot_range(self) -> tuple[int, int]:
        return self.slot_start, self.slot_start + len(self.schema.columns)


@dataclass
class _AccessEstimate:
    """Estimated behaviour of the best single-table access path."""

    index: Optional[Index]
    consumed: list[ast.Expression]
    rows_scan: float
    cost: float
    rows_out: float
    #: The equality conjuncts backing ``index`` (column → (conjunct, value
    #: expression)); _plan_scan compiles the key expressions from these.
    equalities: dict[str, tuple[ast.Expression, ast.Expression]] = field(
        default_factory=dict
    )


@dataclass
class _JoinCandidate:
    """One joinable binding with the equi-join predicates connecting it."""

    build: str
    conjuncts: list[ast.Expression]
    probe_refs: list[ast.ColumnRef]
    build_refs: list[ast.ColumnRef]


@dataclass
class _JoinStep:
    """One binding brought into the join tree, with the estimated rows and
    cumulative cost of the tree once it has joined."""

    binding: _Binding
    #: The equi-join it joins on; None for an index-OR or cross join.
    candidate: Optional[_JoinCandidate]
    rows: float
    cost: float
    #: Row back-end only: probe the binding's index (IndexNestedLoopJoin).
    index_join: bool = False
    #: Index-OR join: the consumed disjunction and its (index name, key
    #: expression) probes.
    or_join: Optional[tuple[ast.Expression, list[tuple[str, ast.Expression]]]] = None


@dataclass
class _Query:
    """A SELECT decomposed once, before join ordering and lowering."""

    statement: ast.SelectStatement
    bindings: dict[str, _Binding]
    slot_map: dict[str, int]
    width: int
    resolve_slot: Callable[[ast.ColumnRef], int]
    compiler: ExpressionCompiler
    #: Two-binding ``column = column`` conjuncts: the equi-join graph.
    join_conjuncts: list[ast.Expression]
    #: The pair of binding names each join conjunct connects.
    join_edges: list[set[str]]
    #: Conjuncts filtered above the join tree.  Ordering appends the join
    #: conjuncts that close a cycle and removes one an index-OR join consumes.
    residual: list[ast.Expression]
    #: Ungrouped-aggregate specs (see Planner._aggregate_specs), or None.
    aggregates: Optional[list[tuple[str, str, Optional[ast.Expression]]]]
    #: Select-list outputs and projection slots (non-aggregate queries).
    columns: list[tuple[str, Evaluator]]
    output_slots: Optional[list[int]]
    column_names: list[str]


class Planner:
    """Plans SELECT, UPDATE and DELETE statements against a catalog and its
    table data."""

    def __init__(
        self,
        catalog: Catalog,
        tables: dict[str, TableData],
        options: PlannerOptions | None = None,
        metrics: ColumnarMetrics | None = None,
    ) -> None:
        self._catalog = catalog
        self._tables = tables
        self._options = options or PlannerOptions()
        self._metrics = metrics if metrics is not None else ColumnarMetrics()

    # -- public API ----------------------------------------------------------

    def plan_select(self, statement: ast.SelectStatement) -> SelectPlan:
        """Build an executable plan for ``statement``: decompose it, order
        its joins, then lower the order to row or batch operators."""
        query = self._decompose(statement)
        snapshot = {
            binding.schema.name.lower(): len(binding.data)
            for binding in query.bindings.values()
        }
        batch = self._use_batch(query)
        start, steps = self._order_joins(query, batch)
        if batch:
            root = self._lower_batch(query, start, steps)
        else:
            root = self._lower_row(query, start, steps)
        if query.aggregates is None:
            root = self._distinct_and_limit(root, query)
        return SelectPlan(
            root=root,
            column_names=query.column_names,
            stats_snapshot=snapshot,
            mode="batch" if batch else "row",
            batch_size=self._options.batch_size if batch else None,
        )

    def plan_dml(
        self, statement: ast.UpdateStatement | ast.DeleteStatement
    ) -> DmlPlan:
        """Plan an UPDATE or DELETE: one binding for the target table
        carrying every ``WHERE`` conjunct, the access path SELECT would
        choose for it, and the conjuncts that path leaves as the residual."""
        schema = self._catalog.table(statement.table)
        data = self._tables[schema.name.lower()]
        binding = _Binding(
            name=statement.table.lower(),
            schema=schema,
            data=data,
            conjuncts=split_conjuncts(statement.where),
        )
        bindings = {binding.name: binding}
        slot_map, width = self._assign_slots(bindings)
        compiler = ExpressionCompiler(self._make_resolver(bindings, slot_map))
        access = self._estimate_access(binding)
        remaining = [c for c in binding.conjuncts if c not in access.consumed]
        residual = compiler.compile(_conjoin(remaining)) if remaining else None
        assignments: list[tuple[int, Evaluator]] = []
        if isinstance(statement, ast.UpdateStatement):
            kind = "Update"
            assignments = [
                (schema.column_index(column), compiler.compile(expression))
                for column, expression in statement.assignments
            ]
        else:
            kind = "Delete"
        chain = self._plan_scan(binding, compiler, width)
        root = self._annotated(
            DmlTarget(kind, data, chain), chain.estimated_rows, chain.estimated_cost
        )
        return DmlPlan(
            data=data,
            index=access.index,
            key_evaluators=self._key_evaluators(access, compiler),
            residual=residual,
            assignments=assignments,
            root=root,
            stats_snapshot={schema.name.lower(): len(data)},
        )

    # -- decomposition ---------------------------------------------------------

    def _decompose(self, statement: ast.SelectStatement) -> _Query:
        """Resolve bindings and slots, push single-binding conjuncts onto
        their bindings, separate equi-joins from residual predicates and
        validate the select list — so both back-ends raise the same
        errors."""
        bindings = self._resolve_bindings(statement)
        slot_map, width = self._assign_slots(bindings)
        resolve_slot = self._make_resolver(bindings, slot_map)
        compiler = ExpressionCompiler(resolve_slot)

        join_conjuncts: list[ast.Expression] = []
        join_edges: list[set[str]] = []
        residual: list[ast.Expression] = []
        for conjunct in split_conjuncts(statement.where):
            used = self._bindings_used(conjunct, bindings)
            if len(used) <= 1:
                if used:
                    bindings[next(iter(used))].conjuncts.append(conjunct)
                else:
                    residual.append(conjunct)
            elif len(used) == 2 and self._is_equi_join(conjunct, bindings):
                join_conjuncts.append(conjunct)
                join_edges.append(used)
            else:
                residual.append(conjunct)

        aggregates = self._aggregate_specs(statement)
        columns: list[tuple[str, Evaluator]] = []
        output_slots: Optional[list[int]] = None
        if aggregates is None:
            columns, output_slots = self._output_columns(
                statement, bindings, compiler, slot_map
            )
            column_names = [name for name, _ in columns]
        else:
            column_names = [name for name, _, _ in aggregates]
        return _Query(
            statement=statement,
            bindings=bindings,
            slot_map=slot_map,
            width=width,
            resolve_slot=resolve_slot,
            compiler=compiler,
            join_conjuncts=join_conjuncts,
            join_edges=join_edges,
            residual=residual,
            aggregates=aggregates,
            columns=columns,
            output_slots=output_slots,
            column_names=column_names,
        )

    # -- binding resolution ---------------------------------------------------

    def _resolve_bindings(
        self, statement: ast.SelectStatement
    ) -> dict[str, _Binding]:
        bindings: dict[str, _Binding] = {}
        for table_ref in statement.tables:
            schema = self._catalog.table(table_ref.table)
            data = self._tables[schema.name.lower()]
            name = table_ref.binding.lower()
            if name in bindings:
                raise SqlCatalogError(f"duplicate table alias {table_ref.binding!r}")
            bindings[name] = _Binding(name=name, schema=schema, data=data)
        return bindings

    def _assign_slots(
        self, bindings: dict[str, _Binding]
    ) -> tuple[dict[str, int], int]:
        """Give every published column a positional slot.

        Each binding's columns occupy a contiguous slot range (so scans and
        joins can write whole stored rows with one slice assignment); bare
        column names that are unambiguous across the FROM clause alias the
        same slot as their qualified form.
        """
        counts: dict[str, int] = {}
        for binding in bindings.values():
            for column in binding.schema.column_names:
                key = column.lower()
                counts[key] = counts.get(key, 0) + 1
        slot_map: dict[str, int] = {}
        width = 0
        for binding in bindings.values():
            binding.slot_start = width
            for position, column in enumerate(binding.schema.column_names):
                lowered = column.lower()
                slot = width + position
                slot_map[f"{binding.name}.{lowered}"] = slot
                if counts[lowered] == 1:
                    slot_map[lowered] = slot
            width += len(binding.schema.columns)
        return slot_map, width

    def _make_resolver(
        self, bindings: dict[str, _Binding], slot_map: dict[str, int]
    ):
        def resolve(ref: ast.ColumnRef) -> int:
            key, _ = self._resolve_column(ref, bindings)
            return slot_map[key]

        return resolve

    def _resolve_column(
        self, ref: ast.ColumnRef, bindings: dict[str, _Binding]
    ) -> tuple[str, str]:
        """Resolve a column reference to (canonical key, binding name)."""
        if ref.table is not None:
            name = ref.table.lower()
            if name not in bindings:
                raise SqlCatalogError(f"unknown table alias {ref.table!r}")
            binding = bindings[name]
            if not binding.schema.has_column(ref.column):
                raise SqlCatalogError(
                    f"table {binding.schema.name!r} has no column {ref.column!r}"
                )
            return f"{name}.{ref.column.lower()}", name
        matches = [
            name
            for name, binding in bindings.items()
            if binding.schema.has_column(ref.column)
        ]
        if not matches:
            raise SqlCatalogError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise SqlCatalogError(f"ambiguous column {ref.column!r}")
        return f"{matches[0]}.{ref.column.lower()}", matches[0]

    def _bindings_used(
        self, expression: ast.Expression, bindings: dict[str, _Binding]
    ) -> set[str]:
        used: set[str] = set()
        for ref in collect_column_refs(expression):
            _, binding = self._resolve_column(ref, bindings)
            used.add(binding)
        return used

    @staticmethod
    def _is_equi_join(
        expression: ast.Expression, bindings: dict[str, _Binding]
    ) -> bool:
        return (
            isinstance(expression, ast.BinaryOp)
            and expression.op == "="
            and isinstance(expression.left, ast.ColumnRef)
            and isinstance(expression.right, ast.ColumnRef)
        )

    # -- statistics and cost estimation ---------------------------------------

    def _collect_equalities(
        self, binding: _Binding
    ) -> dict[str, tuple[ast.Expression, ast.Expression]]:
        """Equality conjuncts of the form ``binding.column = <const/param>``,
        keyed by lower-cased column name."""
        equalities: dict[str, tuple[ast.Expression, ast.Expression]] = {}
        for conjunct in binding.conjuncts:
            column_and_value = self._extract_column_equality(conjunct, binding)
            if column_and_value is not None:
                column, value_expr = column_and_value
                equalities.setdefault(column.lower(), (conjunct, value_expr))
        return equalities

    @staticmethod
    def _matching_index(
        binding: _Binding,
        equalities: dict[str, tuple[ast.Expression, ast.Expression]],
    ) -> Optional[Index]:
        """The first index whose columns are fully covered by equalities."""
        for index in binding.data.indexes().values():
            if all(column.lower() in equalities for column in index.columns):
                return index
        return None

    def _estimate_access(self, binding: _Binding) -> _AccessEstimate:
        """Choose and estimate a binding's access path: the one selector
        behind SELECT scans and DML alike (memoised on the binding for the
        current planning pass)."""
        if binding.access_estimate is not None:
            return binding.access_estimate
        rows = float(len(binding.data))
        index: Optional[Index] = None
        consumed: list[ast.Expression] = []
        equalities: dict[str, tuple[ast.Expression, ast.Expression]] = {}
        if self._options.use_indexes:
            equalities = self._collect_equalities(binding)
            if equalities:
                index = self._matching_index(binding, equalities)
        if index is not None:
            distinct = binding.data.index_distinct(index.name) or 1
            rows_scan = rows / max(1.0, float(distinct))
            cost = max(1.0, rows_scan)
            consumed = [
                equalities[column.lower()][0] for column in index.columns
            ]
        else:
            rows_scan = rows
            cost = max(1.0, rows)
        rows_out = rows_scan
        for conjunct in binding.conjuncts:
            if conjunct in consumed:
                continue
            rows_out *= self._selectivity(binding, conjunct)
        binding.access_estimate = _AccessEstimate(
            index=index,
            consumed=consumed,
            rows_scan=rows_scan,
            cost=cost,
            rows_out=rows_out,
            equalities=equalities,
        )
        return binding.access_estimate

    def _selectivity(self, binding: _Binding, conjunct: ast.Expression) -> float:
        """Fraction of rows a pushed-down predicate is estimated to keep."""
        if isinstance(conjunct, ast.BinaryOp):
            op = conjunct.op
            if op == "=":
                column_and_value = self._extract_column_equality(conjunct, binding)
                if column_and_value is not None:
                    distinct = binding.data.column_distinct(column_and_value[0])
                    if distinct:
                        return 1.0 / float(distinct)
                return _EQUALITY_SELECTIVITY
            if op in ("<", "<=", ">", ">="):
                return _RANGE_SELECTIVITY
            if op == "LIKE":
                return _LIKE_SELECTIVITY
            if op in ("!=", "<>"):
                return _NOT_EQUAL_SELECTIVITY
        if isinstance(conjunct, ast.IsNull):
            if conjunct.negated:
                return 1.0 - _EQUALITY_SELECTIVITY
            return _EQUALITY_SELECTIVITY
        if isinstance(conjunct, ast.InList):
            kept = min(1.0, len(conjunct.items) * _EQUALITY_SELECTIVITY)
            return 1.0 - kept if conjunct.negated else kept
        return _DEFAULT_SELECTIVITY

    def _estimate_join(
        self,
        left_rows: float,
        left_cost: float,
        binding: _Binding,
        build_refs: list[ast.ColumnRef],
    ) -> tuple[float, Optional[float], Optional[float], float]:
        """Estimate (output rows, index-NL cost, hash cost, NL cost) for
        joining the current tree with ``binding`` on ``build_refs``."""
        access = self._estimate_access(binding)
        rows = float(len(binding.data))
        build_columns = tuple(ref.column for ref in build_refs)
        index = binding.data.find_equality_index(build_columns)
        distinct: Optional[int] = None
        if index is not None:
            distinct = binding.data.index_distinct(index.name)
        elif len(build_columns) == 1:
            distinct = binding.data.column_distinct(build_columns[0])
        distinct_f = float(distinct) if distinct else max(1.0, access.rows_out)
        join_rows = left_rows * access.rows_out / max(1.0, distinct_f)
        cost_index_join: Optional[float] = None
        if (
            index is not None
            and not binding.conjuncts
            and self._options.use_indexes
            and self._options.use_index_nested_loop_join
        ):
            matches_per_probe = rows / max(1.0, distinct_f)
            cost_index_join = left_cost + left_rows * (1.0 + matches_per_probe)
        cost_hash: Optional[float] = None
        if self._options.use_hash_join:
            cost_hash = left_cost + access.cost + access.rows_out + left_rows
        cost_nested = left_cost + access.cost + left_rows * max(1.0, access.rows_out)
        return join_rows, cost_index_join, cost_hash, cost_nested

    @staticmethod
    def _annotated(
        operator: PlanOperator, rows: Optional[float], cost: Optional[float]
    ) -> PlanOperator:
        operator.estimated_rows = rows
        operator.estimated_cost = cost
        return operator

    # -- scans ---------------------------------------------------------------

    def _plan_scan(
        self,
        binding: _Binding,
        compiler: ExpressionCompiler,
        width: int,
    ) -> PlanOperator:
        """Plan the access path for a single table, honouring its pushed-down
        conjuncts (index lookup when possible, otherwise scan + filter)."""
        access = self._estimate_access(binding)
        scan: PlanOperator
        if access.index is not None:
            scan = IndexLookupScan(
                binding.data,
                binding.name,
                width,
                binding.slot_start,
                access.index.name,
                self._key_evaluators(access, compiler),
            )
        else:
            scan = SeqScan(binding.data, binding.name, width, binding.slot_start)
        remaining = [c for c in binding.conjuncts if c not in access.consumed]
        return self._filter_chain(
            self._annotated(scan, access.rows_scan, access.cost),
            binding,
            access,
            remaining,
            Filter,
            compiler,
        )

    @staticmethod
    def _key_evaluators(
        access: _AccessEstimate, compiler: ExpressionCompiler
    ) -> list[Evaluator]:
        """The chosen index's probe key, one evaluator per index column in
        index order (empty when the access path is a scan)."""
        if access.index is None:
            return []
        return [
            compiler.compile(access.equalities[column.lower()][1])
            for column in access.index.columns
        ]

    def _filter_chain(
        self,
        scan: PlanOperator,
        binding: _Binding,
        access: _AccessEstimate,
        conjuncts: list[ast.Expression],
        filter_class: type,
        compiler: ExpressionCompiler,
    ) -> PlanOperator:
        """Stack ``conjuncts`` as ``filter_class`` operators over the
        annotated ``scan``.  The chain's output carries the binding's
        access-path estimate — the numbers join ordering used — in both
        back-ends."""
        current = scan
        rows = scan.estimated_rows or 0.0
        for conjunct in conjuncts:
            rows *= self._selectivity(binding, conjunct)
            current = self._annotated(
                filter_class(current, compiler.compile(conjunct), label=binding.name),
                rows,
                access.cost,
            )
        # The running product above multiplies in scan order; the batch
        # scan applies its pushed conjuncts first, so end on the access
        # estimate itself to keep both back-ends' chains bit-identical.
        return self._annotated(current, access.rows_out, access.cost)

    def _extract_column_equality(
        self, conjunct: ast.Expression, binding: _Binding
    ) -> Optional[tuple[str, ast.Expression]]:
        """If ``conjunct`` is ``binding.column = <constant or parameter>``,
        return (column, value expression)."""
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            return None
        left, right = conjunct.left, conjunct.right
        for column_side, value_side in ((left, right), (right, left)):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if collect_column_refs(value_side):
                continue
            if column_side.table is not None and column_side.table.lower() != binding.name:
                continue
            if not binding.schema.has_column(column_side.column):
                continue
            return column_side.column, value_side
        return None

    # -- join ordering ----------------------------------------------------------

    def _use_batch(self, query: _Query) -> bool:
        """Whether to lower to the columnar batch operators: the options or
        the cost/shape heuristic must say batch, and the equi-join graph must
        be connected (cross joins and index-OR joins exist only as row
        operators)."""
        mode = self._options.execution_mode
        if mode == "row":
            return False
        bindings = query.bindings
        if mode == "auto":
            # Heuristic: batch execution pays off on scans, not point
            # lookups — any usable index lookup keeps the query row-mode,
            # as do small tables (batch setup costs more than it saves).
            total_rows = 0
            for binding in bindings.values():
                access = self._estimate_access(binding)
                if access.index is not None:
                    return False
                total_rows += len(binding.data)
            if total_rows < _BATCH_ROW_THRESHOLD:
                return False
        reached = {next(iter(bindings))}
        grown = True
        while grown:
            grown = False
            for edge in query.join_edges:
                if edge & reached and not edge <= reached:
                    reached |= edge
                    grown = True
        return len(reached) == len(bindings)

    def _order_joins(
        self, query: _Query, batch: bool
    ) -> tuple[_Binding, list[_JoinStep]]:
        """Choose the join order: the start binding plus one step per
        further binding, each with its estimated rows and cumulative cost.

        Starts from the binding with the fewest estimated output rows, then
        repeatedly joins the connected candidate with the cheapest estimated
        join (ties broken by FROM-clause order).  When no equi-join connects
        the remaining bindings, the next one in FROM order comes in through
        an index-OR join or a cross join (row back-end only: batch plans
        require a connected equi-join graph).
        """
        bindings = query.bindings
        order = list(bindings)

        def start_rank(name: str):
            return (self._estimate_access(bindings[name]).rows_out, order.index(name))

        start = min(order, key=start_rank)
        access = self._estimate_access(bindings[start])
        rows, cost = access.rows_out, access.cost
        joined = {start}
        pending = list(query.join_conjuncts)
        steps: list[_JoinStep] = []

        while len(joined) < len(bindings):
            left_rows = rows or 1.0
            candidates = self._join_candidates(
                pending, bindings, joined, query.residual
            )
            if candidates:
                estimates = {
                    candidate.build: self._estimate_join(
                        left_rows, cost,
                        bindings[candidate.build], candidate.build_refs,
                    )
                    for candidate in candidates
                }

                def candidate_cost(candidate: _JoinCandidate):
                    costs = [
                        c for c in estimates[candidate.build][1:] if c is not None
                    ]
                    return (min(costs), order.index(candidate.build))

                best = min(candidates, key=candidate_cost)
                for conjunct in best.conjuncts:
                    pending.remove(conjunct)
                rows, cost_index, cost_hash, cost_nested = estimates[best.build]
                index_join, cost = self._join_method(
                    cost_index, cost_hash, cost_nested, batch
                )
                step = _JoinStep(bindings[best.build], best, rows, cost, index_join)
            else:
                assert not batch, "batch plans need a connected join graph"
                binding = next(
                    bindings[name] for name in order if name not in joined
                )
                or_join = self._index_or_join(
                    binding, bindings, joined, query.residual
                )
                if or_join is not None:
                    probes = len(or_join[1])
                    rows = left_rows * probes
                    cost = cost + left_rows * probes
                else:
                    right = self._estimate_access(binding)
                    rows = left_rows * (right.rows_out or 1.0)
                    cost = cost + right.cost + rows
                step = _JoinStep(binding, None, rows, cost, or_join=or_join)
            steps.append(step)
            joined.add(step.binding.name)
        return bindings[start], steps

    @staticmethod
    def _join_method(
        cost_index: Optional[float],
        cost_hash: Optional[float],
        cost_nested: float,
        batch: bool,
    ) -> tuple[bool, float]:
        """(index nested-loop join?, cost) of the physical operator a
        back-end builds for an equi-join step.  Only the row back-end has an
        index nested-loop join; it wins unless hashing is estimated
        cheaper.  Otherwise a hash join, costed as a nested loop when hash
        joins are disabled (the row back-end then builds one)."""
        if not batch and cost_index is not None and (
            cost_hash is None or cost_index <= cost_hash
        ):
            return True, cost_index
        return False, cost_hash if cost_hash is not None else cost_nested

    def _join_candidates(
        self,
        pending: list[ast.Expression],
        bindings: dict[str, _Binding],
        joined: set[str],
        residual_conjuncts: list[ast.Expression],
    ) -> list[_JoinCandidate]:
        """Group pending equi-join predicates by the unjoined binding they
        would bring in (in first-connecting order).  Predicates whose sides
        are both already joined are moved to the residual list."""
        candidates: dict[str, _JoinCandidate] = {}
        for conjunct in list(pending):
            assert isinstance(conjunct, ast.BinaryOp)
            left_ref = conjunct.left
            right_ref = conjunct.right
            assert isinstance(left_ref, ast.ColumnRef)
            assert isinstance(right_ref, ast.ColumnRef)
            _, left_binding = self._resolve_column(left_ref, bindings)
            _, right_binding = self._resolve_column(right_ref, bindings)
            if left_binding in joined and right_binding in joined:
                pending.remove(conjunct)
                residual_conjuncts.append(conjunct)
                continue
            if left_binding in joined and right_binding not in joined:
                probe_ref, build_ref, build = left_ref, right_ref, right_binding
            elif right_binding in joined and left_binding not in joined:
                probe_ref, build_ref, build = right_ref, left_ref, left_binding
            else:
                continue
            candidate = candidates.get(build)
            if candidate is None:
                candidate = candidates[build] = _JoinCandidate(
                    build=build, conjuncts=[], probe_refs=[], build_refs=[]
                )
            candidate.conjuncts.append(conjunct)
            candidate.probe_refs.append(probe_ref)
            candidate.build_refs.append(build_ref)
        return list(candidates.values())

    def _index_or_join(
        self,
        binding: _Binding,
        bindings: dict[str, _Binding],
        joined: set[str],
        residual_conjuncts: list[ast.Expression],
    ) -> Optional[tuple[ast.Expression, list[tuple[str, ast.Expression]]]]:
        """Join ``binding`` through a disjunction of indexed equalities.

        Looks for a residual conjunct of the form ``a1 = B.c1 OR a2 = B.c2
        OR ...`` where every ``ai`` only references already-joined bindings
        (or parameters) and every ``B.ci`` has an index.  The conjunct is
        consumed (removed from the residual list) and returned with its
        per-disjunct index probes; the join re-checks it per match.
        """
        if not (self._options.use_indexes and self._options.use_index_nested_loop_join):
            return None
        if binding.conjuncts:
            return None
        for conjunct in residual_conjuncts:
            disjuncts = _split_disjuncts(conjunct)
            if len(disjuncts) < 2:
                continue
            probes: list[tuple[str, ast.Expression]] = []
            for disjunct in disjuncts:
                probe = self._or_probe(disjunct, binding, joined, bindings)
                if probe is None:
                    break
                probes.append(probe)
            else:
                residual_conjuncts.remove(conjunct)
                return conjunct, probes
        return None

    def _or_probe(
        self,
        disjunct: ast.Expression,
        binding: _Binding,
        joined: set[str],
        bindings: dict[str, _Binding],
    ) -> Optional[tuple[str, ast.Expression]]:
        """If ``disjunct`` is ``<outer expr> = binding.column`` with an index
        on ``column``, return (index name, key expression over the left
        row)."""
        if not isinstance(disjunct, ast.BinaryOp) or disjunct.op != "=":
            return None
        for column_side, value_side in (
            (disjunct.left, disjunct.right),
            (disjunct.right, disjunct.left),
        ):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            _, column_binding = self._resolve_column(column_side, bindings)
            if column_binding != binding.name:
                continue
            value_bindings = {
                self._resolve_column(ref, bindings)[1]
                for ref in collect_column_refs(value_side)
            }
            if not value_bindings <= joined:
                continue
            index = binding.data.find_equality_index((column_side.column,))
            if index is None:
                continue
            return index.name, value_side
        return None

    # -- lowering ---------------------------------------------------------------

    def _lower_row(
        self, query: _Query, start: _Binding, steps: list[_JoinStep]
    ) -> PlanOperator:
        """Row operators for the chosen join order, then the residual
        filters and the aggregate or sort + projection."""
        compiler, width = query.compiler, query.width
        current = self._plan_scan(start, compiler, width)
        for step in steps:
            binding = step.binding
            operator: PlanOperator
            if step.candidate is not None:
                operator = self._row_join(current, step, compiler, width)
            elif step.or_join is not None:
                conjunct, probes = step.or_join
                operator = IndexOrLookupJoin(
                    current,
                    binding.data,
                    binding.name,
                    binding.slot_start,
                    [(index, compiler.compile(key)) for index, key in probes],
                    compiler.compile(conjunct),
                )
            else:
                right = self._plan_scan(binding, compiler, width)
                operator = NestedLoopJoin(current, right, binding.slot_range)
            current = self._annotated(operator, step.rows, step.cost)
        current = self._residual_filters(current, query, Filter)

        statement = query.statement
        if query.aggregates is not None:
            columns: list[tuple[str, str, Optional[Evaluator]]] = [
                (name, function, compiler.compile(arg) if arg is not None else None)
                for name, function, arg in query.aggregates
            ]
            return self._annotated(
                Aggregate(current, columns), 1.0, current.estimated_cost
            )
        if statement.order_by:
            keys = [
                (compiler.compile(item.expression), item.descending)
                for item in statement.order_by
            ]
            current = self._annotated(
                Sort(current, keys), current.estimated_rows, _sort_cost(current)
            )
        return self._annotated(
            Project(current, query.columns, query.output_slots),
            current.estimated_rows,
            current.estimated_cost,
        )

    def _row_join(
        self,
        left: PlanOperator,
        step: _JoinStep,
        compiler: ExpressionCompiler,
        width: int,
    ) -> PlanOperator:
        """The physical row operator for an equi-join step: index
        nested-loop, hash or nested-loop join."""
        binding, candidate = step.binding, step.candidate
        assert candidate is not None
        probe_evaluators = [compiler.compile(ref) for ref in candidate.probe_refs]
        if step.index_join:
            build_columns = [ref.column.lower() for ref in candidate.build_refs]
            index = binding.data.find_equality_index(tuple(build_columns))
            assert index is not None
            # Reorder probe keys to match the index column order.
            ordered_probe = [
                probe_evaluators[build_columns.index(column.lower())]
                for column in index.columns
            ]
            return IndexNestedLoopJoin(
                left,
                binding.data,
                binding.name,
                binding.slot_start,
                index.name,
                ordered_probe,
            )
        right = self._plan_scan(binding, compiler, width)
        if self._options.use_hash_join:
            build_evaluators = [compiler.compile(ref) for ref in candidate.build_refs]
            return HashJoin(
                left, right, probe_evaluators, build_evaluators, binding.slot_range
            )
        return NestedLoopJoin(
            left,
            right,
            binding.slot_range,
            compiler.compile(_conjoin(candidate.conjuncts)),
        )

    def _lower_batch(
        self, query: _Query, start: _Binding, steps: list[_JoinStep]
    ) -> PlanOperator:
        """Batch operators for the chosen join order: column scans with
        projection/selection pushdown and batch semi- or hash joins, then
        the residual filters and the batch aggregate or sort + output.

        A step becomes a :class:`BatchSemiJoin` when one side is a key side
        (see :meth:`_is_key_side`): the new binding, or the current tree
        while it still holds the distinct rows of one binding.  A semi-join
        outputs the distinct rows of its probe binding, so semi-joins chain;
        every other step is a :class:`BatchHashJoin`."""
        resolve_slot, compiler = query.resolve_slot, query.compiler
        required = self._required_slots(query)
        read_above = self._read_above_steps(query, steps)
        current: PlanOperator = self._batch_scan(start, query, required)
        current_slots = set(required[start.name])
        #: The binding whose distinct rows the current tree holds; None once
        #: a hash join has combined bindings.
        distinct: Optional[_Binding] = start
        for step, above in zip(steps, read_above):
            candidate = step.candidate
            assert candidate is not None
            binding = step.binding
            scan = self._batch_scan(binding, query, required)
            probe_slots = [resolve_slot(ref) for ref in candidate.probe_refs]
            build_slots = [resolve_slot(ref) for ref in candidate.build_refs]
            operator: BatchOperator
            if self._is_key_side(binding, build_slots, above):
                operator = BatchSemiJoin(
                    current, scan, probe_slots, build_slots  # type: ignore[arg-type]
                )
            elif distinct is not None and self._is_key_side(
                distinct, probe_slots, above
            ):
                operator = BatchSemiJoin(
                    scan, current, build_slots, probe_slots  # type: ignore[arg-type]
                )
                current_slots = set(required[binding.name])
                distinct = binding
            else:
                operator = BatchHashJoin(
                    current,  # type: ignore[arg-type]
                    scan,
                    probe_slots,
                    build_slots,
                    sorted(current_slots),
                    sorted(required[binding.name]),
                )
                current_slots |= required[binding.name]
                distinct = None
            current = self._annotated(operator, step.rows, step.cost)
        current = self._residual_filters(current, query, BatchFilter)

        statement = query.statement
        if query.aggregates is not None:
            specs: list[tuple[str, str, Optional[int], Optional[Evaluator]]] = []
            for name, function, arg in query.aggregates:
                if arg is None:
                    specs.append((name, function, None, None))
                elif isinstance(arg, ast.ColumnRef):
                    specs.append((name, function, resolve_slot(arg), None))
                else:
                    specs.append((name, function, None, compiler.compile(arg)))
            return self._annotated(
                BatchAggregate(current, specs), 1.0, current.estimated_cost
            )
        if statement.order_by:
            keys: list[tuple[Optional[int], Optional[Evaluator], bool]] = []
            for item in statement.order_by:
                if isinstance(item.expression, ast.ColumnRef):
                    keys.append(
                        (resolve_slot(item.expression), None, item.descending)
                    )
                else:
                    keys.append(
                        (None, compiler.compile(item.expression), item.descending)
                    )
            current = self._annotated(
                BatchSort(current, keys),  # type: ignore[arg-type]
                current.estimated_rows,
                _sort_cost(current),
            )
        return self._annotated(
            BatchOutput(current, query.columns, query.output_slots),
            current.estimated_rows,
            current.estimated_cost,
        )

    def _required_slots(self, query: _Query) -> dict[str, set[int]]:
        """Per-binding slot sets the batch plan reads (projection pushdown):
        the columns read above the joins plus those the pushed and join
        predicates reference."""
        read = self._read_above_joins(query) | self._slots_read(
            query,
            query.join_conjuncts
            + [c for binding in query.bindings.values() for c in binding.conjuncts],
        )
        required: dict[str, set[int]] = {}
        for name, binding in query.bindings.items():
            low, high = binding.slot_range
            required[name] = {slot for slot in read if low <= slot < high}
        return required

    def _read_above_joins(self, query: _Query) -> set[int]:
        """The slots read above the join tree: the select list (aggregate
        arguments included), ORDER BY and the residual conjuncts.  An
        ungrouped aggregate ignores ORDER BY, as in the row lowering."""
        statement = query.statement
        read: set[int] = set()
        expressions = list(query.residual)
        for item in statement.items:
            if item.star:
                read.update(range(query.width))
            elif item.table_star is not None:
                binding = query.bindings[item.table_star.lower()]
                read.update(range(*binding.slot_range))
            else:
                assert item.expression is not None
                expressions.append(item.expression)
        if query.aggregates is None:
            expressions.extend(item.expression for item in statement.order_by or ())
        return read | self._slots_read(query, expressions)

    def _read_above_steps(
        self, query: _Query, steps: list[_JoinStep]
    ) -> list[set[int]]:
        """Per join step, the slots read above it: those read above the
        join tree plus the join conjuncts of every later step."""
        read = self._read_above_joins(query)
        above: list[set[int]] = []
        for step in reversed(steps):
            above.append(set(read))
            if step.candidate is not None:
                read |= self._slots_read(query, step.candidate.conjuncts)
        above.reverse()
        return above

    @staticmethod
    def _slots_read(query: _Query, expressions: list[ast.Expression]) -> set[int]:
        return {
            query.resolve_slot(ref)
            for expression in expressions
            for ref in collect_column_refs(expression)
        }

    @staticmethod
    def _is_key_side(
        binding: _Binding, key_slots: list[int], read_above: set[int]
    ) -> bool:
        """Whether a join side holding distinct rows of ``binding`` can be
        a semi-join's key set on ``key_slots``: they are columns of
        ``binding``, exactly the columns of one of its unique indexes, and
        no slot of ``binding`` is read above the join.  Each row of the
        other side then matches at most one row of this one, whose values
        nothing needs."""
        low, high = binding.slot_range
        if not all(low <= slot < high for slot in key_slots) or any(
            low <= slot < high for slot in read_above
        ):
            return False
        names = binding.schema.column_names
        columns = {names[slot - low].lower() for slot in key_slots}
        return any(
            index.unique and {column.lower() for column in index.columns} == columns
            for index in binding.data.indexes().values()
        )

    def _batch_scan(
        self, binding: _Binding, query: _Query, required: dict[str, set[int]]
    ) -> BatchOperator:
        """Scan one binding's required columns: columnwise-compilable
        conjuncts filter inside the BatchScan, the rest in BatchFilters."""
        pushed: list[ast.Expression] = []
        predicates = []
        rowwise: list[ast.Expression] = []
        for conjunct in binding.conjuncts:
            predicate = compile_columnwise(conjunct, query.resolve_slot, query.compiler)
            if predicate is None:
                rowwise.append(conjunct)
            else:
                pushed.append(conjunct)
                predicates.append(predicate)
        access = self._estimate_access(binding)
        rows = float(len(binding.data))
        for conjunct in pushed:
            rows *= self._selectivity(binding, conjunct)
        slots = sorted(required[binding.name])
        scan = BatchScan(
            binding.data,
            binding.name,
            [slot - binding.slot_start for slot in slots],
            slots,
            self._options.batch_size,
            predicates,
            self._metrics,
        )
        return self._filter_chain(  # type: ignore[return-value]
            self._annotated(scan, rows, access.cost),
            binding,
            access,
            rowwise,
            BatchFilter,
            query.compiler,
        )

    def _residual_filters(
        self, current: PlanOperator, query: _Query, filter_class: type
    ) -> PlanOperator:
        """Filter the join tree by the residual conjuncts, each estimated to
        keep the default fraction of rows."""
        for conjunct in query.residual:
            current = self._annotated(
                filter_class(current, query.compiler.compile(conjunct), label="residual"),
                (current.estimated_rows or 1.0) * _DEFAULT_SELECTIVITY,
                current.estimated_cost,
            )
        return current

    def _distinct_and_limit(self, root: PlanOperator, query: _Query) -> PlanOperator:
        """DISTINCT and LIMIT/OFFSET above either back-end's output."""
        statement, compiler = query.statement, query.compiler
        if statement.distinct:
            root = self._annotated(
                Distinct(root), root.estimated_rows, root.estimated_cost
            )
        if statement.limit is not None or statement.offset is not None:
            limit = compiler.compile(statement.limit) if statement.limit else None
            offset = compiler.compile(statement.offset) if statement.offset else None
            root = self._annotated(
                Limit(root, limit, offset), root.estimated_rows, root.estimated_cost
            )
        return root

    # -- output columns -------------------------------------------------------

    def _aggregate_specs(
        self, statement: ast.SelectStatement
    ) -> Optional[list[tuple[str, str, Optional[ast.Expression]]]]:
        """Validate an ungrouped-aggregate select list and return one
        ``(output name, function, argument expression)`` spec per item
        (argument None for ``COUNT(*)``), or None when the statement has no
        aggregates.  Shared by the row and batch aggregate planners so both
        raise identical validation errors."""
        has_aggregate = any(
            isinstance(item.expression, ast.FunctionCall)
            and item.expression.name.upper() in AGGREGATE_FUNCTIONS
            for item in statement.items
        )
        if not has_aggregate:
            return None
        specs: list[tuple[str, str, Optional[ast.Expression]]] = []
        for position, item in enumerate(statement.items):
            expression = item.expression
            if not isinstance(expression, ast.FunctionCall):
                raise SqlExecutionError(
                    "mixing aggregate and non-aggregate select items "
                    "requires GROUP BY, which is not supported"
                )
            function = expression.name.upper()
            if function not in AGGREGATE_FUNCTIONS:
                raise SqlExecutionError(
                    f"aggregate function {expression.name!r} is not supported "
                    f"(supported: {', '.join(sorted(AGGREGATE_FUNCTIONS))})"
                )
            if expression.star and function != "COUNT":
                raise SqlExecutionError(f"{function}(*) is not valid SQL")
            name = (item.alias or f"{function.lower()}{position}").lower()
            arg: Optional[ast.Expression] = None
            if not expression.star and expression.args:
                if len(expression.args) != 1:
                    raise SqlExecutionError(
                        f"{function} takes exactly one argument"
                    )
                arg = expression.args[0]
            elif function != "COUNT":
                raise SqlExecutionError(
                    f"{function} requires an argument"
                )
            specs.append((name, function, arg))
        return specs

    def _output_columns(
        self,
        statement: ast.SelectStatement,
        bindings: dict[str, _Binding],
        compiler: ExpressionCompiler,
        slot_map: dict[str, int],
    ) -> tuple[list[tuple[str, Evaluator]], Optional[list[int]]]:
        """The select-list outputs: (name, evaluator) pairs plus, when every
        output is a plain column reference, the slot list for the projection
        fast path."""
        columns: list[tuple[str, Evaluator]] = []
        slots: list[Optional[int]] = []
        counts: dict[str, int] = {}
        for binding in bindings.values():
            for column in binding.schema.column_names:
                key = column.lower()
                counts[key] = counts.get(key, 0) + 1

        def add_table_columns(binding: _Binding) -> None:
            for position, column in enumerate(binding.schema.column_names):
                lowered = column.lower()
                key = f"{binding.name}.{lowered}"
                output_name = lowered if counts[lowered] == 1 else key
                slot = binding.slot_start + position
                columns.append((output_name, _slot_getter(slot)))
                slots.append(slot)

        generated_index = 0
        for item in statement.items:
            if item.star:
                for binding in bindings.values():
                    add_table_columns(binding)
            elif item.table_star is not None:
                name = item.table_star.lower()
                if name not in bindings:
                    raise SqlCatalogError(f"unknown table alias {item.table_star!r}")
                add_table_columns(bindings[name])
            else:
                assert item.expression is not None
                evaluator = compiler.compile(item.expression)
                if item.alias:
                    output_name = item.alias.lower()
                elif isinstance(item.expression, ast.ColumnRef):
                    output_name = item.expression.column.lower()
                else:
                    output_name = f"col{generated_index}"
                generated_index += 1
                columns.append((output_name, evaluator))
                if isinstance(item.expression, ast.ColumnRef):
                    key, _ = self._resolve_column(item.expression, bindings)
                    slots.append(slot_map[key])
                else:
                    slots.append(None)
        if all(slot is not None for slot in slots):
            return columns, [slot for slot in slots if slot is not None]
        return columns, None


def _conjoin(conjuncts: list[ast.Expression]) -> ast.Expression:
    """AND a non-empty list of conjuncts back into one expression."""
    predicate, *rest = conjuncts
    for conjunct in rest:
        predicate = ast.BinaryOp("AND", predicate, conjunct)
    return predicate


def _split_disjuncts(expression: ast.Expression) -> list[ast.Expression]:
    """Split an expression on top-level ORs."""
    if isinstance(expression, ast.BinaryOp) and expression.op == "OR":
        return _split_disjuncts(expression.left) + _split_disjuncts(expression.right)
    return [expression]


def _slot_getter(slot: int) -> Evaluator:
    def get(row, params):  # type: ignore[no-untyped-def]
        return row[slot]

    return get


def _sort_cost(child: PlanOperator) -> Optional[float]:
    if child.estimated_cost is None:
        return None
    rows = max(1.0, child.estimated_rows or 1.0)
    return child.estimated_cost + rows * max(1.0, math.log2(rows))
