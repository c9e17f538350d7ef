"""Vectorized (columnar) batch operators for the SQL engine.

The row engine in :mod:`repro.sqlengine.operators` is an iterator over
positional tuples: every row crosses every operator as one Python-level
step, which is the dominant cost on scan- and aggregate-heavy queries.
The operators here process **column batches** instead: a batch carries
whole column value arrays (shared, immutable — captured from the storage
column cache) plus a *selection vector* of row indices that survived the
predicates so far.  Hot loops become list comprehensions and C-level
built-ins (``sum``/``min``/``max``/``zip``/``list.count``) over columns,
amortising the interpreter overhead across the batch.

Layout contract: batch columns are keyed by the planner's global *slot*
numbers, the same slots compiled expressions read — so the row engine's
evaluators run unchanged against a batch through :class:`_RowView` when a
predicate or output expression is too complex to vectorise.

Pushdown contract (with :meth:`repro.sqlengine.storage.TableData.
columnar_scan_state`): the scan receives only the column positions the
query references (projection pushdown — unreferenced columns are never
materialised) and evaluates simple comparison/range/IN/LIKE/IS NULL
predicates as whole-column selection passes before any operator sees a
batch (selection pushdown).  MVCC: the scan takes a zero-copy fast path
when the table has no version entries at capture time (see the storage
module docstring for why that proves universal visibility), and otherwise
patches a private copy of the arrays, resolving exactly the versioned rows
through per-row visibility checks.

The plan roots (:class:`BatchOutput`, :class:`BatchAggregate`) are regular
:class:`~repro.sqlengine.operators.PlanOperator` instances yielding output
tuples, so ``materialise``, the executor, EXPLAIN and result streaming all
work unchanged above a batch plan.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.expressions import (
    Evaluator,
    ExpressionCompiler,
    Params,
    _like_to_regex,
    collect_column_refs,
    is_truthy,
)
from repro.sqlengine.operators import PlanOperator, _sort_key
from repro.sqlengine.storage import TableData

#: Default number of row slots per scan batch.
DEFAULT_BATCH_SIZE = 1024

#: A columnwise selection pass: (columns, selection, params) -> selection.
ColumnPredicate = Callable[[dict, Sequence[int], Params], list]


class ColumnarMetrics:
    """Engine-wide counters for the columnar subsystem (thread-safe).

    Surfaced as the ``columnar`` section of ``Database.stats()`` /
    SERVER_STATS; per-table column-array rebuild counters live on
    :class:`~repro.sqlengine.storage.TableData` and are merged in there.

    The values live in :class:`repro.obs.metrics.Counter` instruments —
    pass the engine's :class:`~repro.obs.metrics.MetricsRegistry` to share
    them with the unified export (``METRICS`` verb, Prometheus render);
    without one a private registry keeps the historical standalone
    behaviour.  ``snapshot()`` keys are unchanged.
    """

    _FIELDS = (
        "batches_produced",
        "rows_filtered_by_pushdown",
        "fast_path_scans",
        "fallback_scans",
    )

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self._counters = {
            name: registry.counter(
                f"columnar_{name}", "columnar execution counter"
            )
            for name in self._FIELDS
        }

    def count(self, field: str, amount: int = 1) -> None:
        self._counters[field].inc(amount)

    def snapshot(self) -> dict[str, int]:
        return {name: counter.value for name, counter in self._counters.items()}


class Batch:
    """One unit of columnar data flow.

    ``cols`` maps slot -> value array; ``sel`` is the selection vector:
    the indices into those arrays (in row order) that are part of the
    batch.  Arrays may be shared between batches (scans hand out the same
    captured column arrays with per-chunk selections) and are immutable by
    contract.  ``n`` is ``len(sel)``.
    """

    __slots__ = ("cols", "sel", "n")

    def __init__(self, cols: dict, sel, n: int) -> None:
        self.cols = cols
        self.sel = sel
        self.n = n


class _RowView:
    """Adapter presenting one batch row to slot-mode evaluators.

    Compiled expressions read ``row[slot]``; this resolves that against the
    batch columns at the current index, so arbitrary row-engine evaluators
    run on batches without materialising tuples.  One instance is reused
    per batch with ``i`` advanced between calls.
    """

    __slots__ = ("cols", "i")

    def __init__(self, cols: dict) -> None:
        self.cols = cols
        self.i = 0

    def __getitem__(self, slot: int):
        return self.cols[slot][self.i]


class BatchOperator(PlanOperator):
    """Base for operators that produce column batches.

    Inherits the EXPLAIN machinery from :class:`PlanOperator`; only plan
    roots implement row-wise ``execute``.
    """

    def batches(self, params: Params) -> Iterator[Batch]:
        raise NotImplementedError

    def execute(self, params: Params):
        raise SqlExecutionError(
            f"{type(self).__name__} produces batches, not rows"
        )


class BatchScan(BatchOperator):
    """Columnar table scan with projection and selection pushdown.

    Captures the required column arrays from the table's column cache and
    emits fixed-size batches whose selection vectors already exclude rows
    rejected by the pushed-down predicates.  MVCC fast path / fallback is
    decided per scan from the captured version-entry set (see the module
    docstring).
    """

    def __init__(
        self,
        table: TableData,
        binding: str,
        positions: Sequence[int],
        slots: Sequence[int],
        batch_size: int,
        pushdown: Sequence[ColumnPredicate],
        metrics: ColumnarMetrics,
    ) -> None:
        self._table = table
        self._binding = binding
        self._positions = list(positions)
        self._slots = list(slots)
        self._batch_size = max(1, batch_size)
        self._pushdown = list(pushdown)
        self._metrics = metrics

    def batches(self, params: Params) -> Iterator[Batch]:
        table = self._table
        metrics = self._metrics
        by_position, live, count, versioned = table.columnar_scan_state(
            self._positions
        )
        if versioned:
            # Fallback: some rows have version entries — their array values
            # are the *newest* content, not necessarily what this snapshot
            # reads.  Patch private copies, resolving exactly those rows.
            metrics.count("fallback_scans")
            controller = table._controller
            assert controller is not None
            snapshot, txn = controller.read_context()
            by_position = {
                position: list(array) for position, array in by_position.items()
            }
            live = list(live)
            for row_id in versioned:
                if row_id >= count:
                    continue
                visible = table._visible_row(row_id, snapshot, txn)
                if visible is None:
                    live[row_id] = False
                else:
                    live[row_id] = True
                    for position, array in by_position.items():
                        array[row_id] = visible[position]
        else:
            metrics.count("fast_path_scans")
        cols = {
            slot: by_position[position]
            for slot, position in zip(self._slots, self._positions)
        }
        pushdown = self._pushdown
        batch_size = self._batch_size
        produced = 0
        filtered = 0
        for low in range(0, count, batch_size):
            high = min(low + batch_size, count)
            sel: Sequence[int] = [i for i in range(low, high) if live[i]]
            if pushdown:
                before = len(sel)
                for predicate in pushdown:
                    if not sel:
                        break
                    sel = predicate(cols, sel, params)
                filtered += before - len(sel)
            if not sel:
                continue
            produced += 1
            yield Batch(cols, sel, len(sel))
        if produced:
            metrics.count("batches_produced", produced)
        if filtered:
            metrics.count("rows_filtered_by_pushdown", filtered)

    def describe(self) -> str:
        total = len(self._table.schema.columns)
        text = (
            f"BatchScan({self._table.schema.name} AS {self._binding}, "
            f"cols={len(self._slots)}/{total}"
        )
        if self._pushdown:
            text += f", pushdown={len(self._pushdown)}"
        return text + ")"


class BatchFilter(BatchOperator):
    """Row-at-a-time predicate over batches (the non-vectorisable rest).

    Predicates the columnwise compiler cannot handle (ORs, arithmetic,
    functions) evaluate through :class:`_RowView` — still cheaper than row
    mode because rows below the filter never materialise as tuples.
    """

    def __init__(
        self, child: BatchOperator, predicate: Evaluator, label: str = ""
    ) -> None:
        self._child = child
        self._predicate = predicate
        self._label = label

    def batches(self, params: Params) -> Iterator[Batch]:
        predicate = self._predicate
        for batch in self._child.batches(params):
            view = _RowView(batch.cols)
            sel = []
            append = sel.append
            for i in batch.sel:
                view.i = i
                if is_truthy(predicate(view, params)):
                    append(i)
            if sel:
                yield Batch(batch.cols, sel, len(sel))

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"BatchFilter({self._label})" if self._label else "BatchFilter"


class BatchHashJoin(BatchOperator):
    """Equi-join over batches: build on the right child, probe with the left.

    The build side is consolidated into compact column arrays keyed by join
    key; probing gathers matched left/right indices first and then builds
    each output column with one list comprehension (columnar: per-column
    gathers instead of per-row tuple surgery).  NULL join keys match
    nothing, as in the row engine's :class:`HashJoin`.
    """

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        probe_slots: Sequence[int],
        build_slots: Sequence[int],
        left_out_slots: Sequence[int],
        right_out_slots: Sequence[int],
    ) -> None:
        self._left = left
        self._right = right
        self._probe_slots = list(probe_slots)
        self._build_slots = list(build_slots)
        self._left_out_slots = list(left_out_slots)
        self._right_out_slots = list(right_out_slots)

    def batches(self, params: Params) -> Iterator[Batch]:
        build_slots = self._build_slots
        right_out = self._right_out_slots
        build_cols: dict[int, list] = {slot: [] for slot in right_out}
        matches: dict[object, list[int]] = {}
        single_build = build_slots[0] if len(build_slots) == 1 else None
        size = 0
        for batch in self._right.batches(params):
            cols = batch.cols
            out_pairs = [(build_cols[slot].append, cols[slot]) for slot in right_out]
            if single_build is not None:
                key_col = cols[single_build]
                for i in batch.sel:
                    key = key_col[i]
                    if key is None:
                        continue
                    matches.setdefault(key, []).append(size)
                    for append, col in out_pairs:
                        append(col[i])
                    size += 1
            else:
                key_cols = [cols[slot] for slot in build_slots]
                for i in batch.sel:
                    key = tuple(col[i] for col in key_cols)
                    if any(value is None for value in key):
                        continue
                    matches.setdefault(key, []).append(size)
                    for append, col in out_pairs:
                        append(col[i])
                    size += 1
        if not matches:
            return
        probe_slots = self._probe_slots
        single_probe = probe_slots[0] if len(probe_slots) == 1 else None
        left_out = self._left_out_slots
        get = matches.get
        for batch in self._left.batches(params):
            cols = batch.cols
            matched_left: list[int] = []
            matched_right: list[int] = []
            if single_probe is not None:
                key_col = cols[single_probe]
                for i in batch.sel:
                    key = key_col[i]
                    if key is None:
                        continue
                    hits = get(key)
                    if hits:
                        for j in hits:
                            matched_left.append(i)
                            matched_right.append(j)
            else:
                key_cols = [cols[slot] for slot in probe_slots]
                for i in batch.sel:
                    key = tuple(col[i] for col in key_cols)
                    if any(value is None for value in key):
                        continue
                    hits = get(key)
                    if hits:
                        for j in hits:
                            matched_left.append(i)
                            matched_right.append(j)
            if not matched_left:
                continue
            out = {
                slot: [cols[slot][i] for i in matched_left] for slot in left_out
            }
            for slot in right_out:
                col = build_cols[slot]
                out[slot] = [col[j] for j in matched_right]
            total = len(matched_left)
            yield Batch(out, range(total), total)

    def children(self) -> Sequence[PlanOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"BatchHashJoin(keys={len(self._probe_slots)})"


class BatchSemiJoin(BatchOperator):
    """Semi-join over batches: keep the probe rows whose join key is in the
    key side's set of keys.

    The planner lowers an equi-join step to this when one side holds
    distinct rows of one binding, joins on exactly the columns of a unique
    index of it, and has no column read above the step: each probe row then
    matches at most one key row and nothing needs the key row's values, so
    the join is a membership test.  Probe batches keep their own column
    arrays; only the selection vector narrows.  NULL keys match nothing, and
    keys compare with Python hash equality, as in :class:`BatchHashJoin`.
    """

    def __init__(
        self,
        probe: BatchOperator,
        keys: BatchOperator,
        probe_slots: Sequence[int],
        key_slots: Sequence[int],
    ) -> None:
        self._probe = probe
        self._keys = keys
        self._probe_slots = list(probe_slots)
        self._key_slots = list(key_slots)

    def batches(self, params: Params) -> Iterator[Batch]:
        keys: set = set()
        for batch in self._keys.batches(params):
            keys.update(_batch_keys(batch, self._key_slots))
        if len(self._key_slots) == 1:
            keys.discard(None)
        else:
            keys = {key for key in keys if None not in key}
        if not keys:
            return
        probe_slots = self._probe_slots
        for batch in self._probe.batches(params):
            if len(probe_slots) == 1:
                col = batch.cols[probe_slots[0]]
                sel = [i for i in batch.sel if col[i] in keys]
            else:
                sel = [
                    i
                    for i, key in zip(batch.sel, _batch_keys(batch, probe_slots))
                    if key in keys
                ]
            if sel:
                yield Batch(batch.cols, sel, len(sel))

    def children(self) -> Sequence[PlanOperator]:
        return (self._probe, self._keys)

    def describe(self) -> str:
        return f"BatchSemiJoin(keys={len(self._probe_slots)})"


def _batch_keys(batch: Batch, slots: Sequence[int]) -> list:
    """The join key of every selected row: values for one slot, tuples
    for several."""
    sel = batch.sel
    if len(slots) == 1:
        col = batch.cols[slots[0]]
        return [col[i] for i in sel]
    return list(zip(*([batch.cols[slot][i] for i in sel] for slot in slots)))


class BatchSort(BatchOperator):
    """Sort: consolidate every batch, order a permutation vector, emit one
    batch whose selection vector *is* the sort order.

    Stable multi-key semantics match the row engine's :class:`Sort`
    (repeated stable sorts from the least significant key, NULLs first
    ascending) via the shared ``_sort_key`` normaliser.
    """

    def __init__(
        self,
        child: BatchOperator,
        keys: Sequence[tuple[Optional[int], Optional[Evaluator], bool]],
    ) -> None:
        self._child = child
        self._keys = list(keys)

    def batches(self, params: Params) -> Iterator[Batch]:
        consolidated: Optional[dict[int, list]] = None
        for batch in self._child.batches(params):
            if consolidated is None:
                consolidated = {slot: [] for slot in batch.cols}
            sel = batch.sel
            for slot, out in consolidated.items():
                col = batch.cols[slot]
                out.extend([col[i] for i in sel])
        if not consolidated:
            return
        total = len(next(iter(consolidated.values())))
        if not total:
            return
        order = list(range(total))
        for slot, evaluator, descending in reversed(self._keys):
            if slot is not None:
                values = consolidated[slot]
            else:
                assert evaluator is not None
                view = _RowView(consolidated)
                values = []
                for i in range(total):
                    view.i = i
                    values.append(evaluator(view, params))
            keyed = [_sort_key(value) for value in values]
            order.sort(key=keyed.__getitem__, reverse=descending)
        yield Batch(consolidated, order, total)

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"BatchSort(keys={len(self._keys)})"


class BatchOutput(PlanOperator):
    """Plan root adapting batches to output tuples.

    Mirrors the row engine's :class:`Project`: a pure slot gather when every
    select item is a plain column (``zip`` builds the tuples at C speed),
    falling back to per-row evaluators through :class:`_RowView` otherwise.
    """

    def __init__(
        self,
        child: BatchOperator,
        columns: Sequence[tuple[str, Evaluator]],
        slots: Sequence[int] | None,
    ) -> None:
        self._child = child
        self._columns = list(columns)
        self._slots = list(slots) if slots is not None else None

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self._columns]

    def execute(self, params: Params):
        if self._slots is not None:
            out_slots = self._slots
            if len(out_slots) == 1:
                only = out_slots[0]
                for batch in self._child.batches(params):
                    col = batch.cols[only]
                    sel = batch.sel
                    yield from zip([col[i] for i in sel])
                return
            for batch in self._child.batches(params):
                cols = batch.cols
                sel = batch.sel
                yield from zip(*([cols[slot][i] for i in sel] for slot in out_slots))
            return
        evaluators = [evaluate for _, evaluate in self._columns]
        for batch in self._child.batches(params):
            view = _RowView(batch.cols)
            for i in batch.sel:
                view.i = i
                yield tuple(evaluate(view, params) for evaluate in evaluators)

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"BatchOutput({', '.join(self.column_names)})"


class BatchAggregate(PlanOperator):
    """Plan root for ungrouped aggregates over batches.

    Each spec is ``(name, function, slot, evaluator)``: ``slot`` set means
    the argument is a plain column (vectorised: one gather comprehension
    per column per batch, shared by every spec on that column, then
    C-level ``sum``/``min``/``max``); ``evaluator`` set
    means an expression argument (evaluated through :class:`_RowView`);
    both ``None`` means ``COUNT(*)``.  NULL handling and empty-input
    results match the row engine's :class:`Aggregate` exactly.
    """

    def __init__(
        self,
        child: BatchOperator,
        specs: Sequence[tuple[str, str, Optional[int], Optional[Evaluator]]],
    ) -> None:
        self._child = child
        self._specs = list(specs)

    @property
    def column_names(self) -> list[str]:
        return [name for name, _, _, _ in self._specs]

    def execute(self, params: Params):
        specs = self._specs
        counts = [0] * len(specs)
        sums: list[object] = [None] * len(specs)
        minima: list[object] = [None] * len(specs)
        maxima: list[object] = [None] * len(specs)
        for batch in self._child.batches(params):
            sel = batch.sel
            cols = batch.cols
            # Specs over the same column share one non-NULL value list.
            by_slot: dict[int, list] = {}
            for position, (_, function, slot, evaluator) in enumerate(specs):
                if slot is None and evaluator is None:  # COUNT(*)
                    counts[position] += batch.n
                    continue
                if slot is not None:
                    values = by_slot.get(slot)
                    if values is None:
                        col = cols[slot]
                        values = by_slot[slot] = [
                            col[i] for i in sel if col[i] is not None
                        ]
                else:
                    assert evaluator is not None
                    view = _RowView(cols)
                    values = []
                    for i in sel:
                        view.i = i
                        value = evaluator(view, params)
                        if value is not None:
                            values.append(value)
                if not values:
                    continue
                counts[position] += len(values)
                if function in ("SUM", "AVG"):
                    try:
                        subtotal = sum(values)
                    except TypeError:
                        # Non-numeric addition (the row engine folds with
                        # ``+`` whatever the type): fold explicitly.
                        subtotal = values[0]
                        for value in values[1:]:
                            subtotal = subtotal + value  # type: ignore[operator]
                    current = sums[position]
                    sums[position] = (
                        subtotal if current is None else current + subtotal  # type: ignore[operator]
                    )
                elif function == "MIN":
                    lowest = min(values)
                    current = minima[position]
                    if current is None or lowest < current:  # type: ignore[operator]
                        minima[position] = lowest
                elif function == "MAX":
                    highest = max(values)
                    current = maxima[position]
                    if current is None or highest > current:  # type: ignore[operator]
                        maxima[position] = highest
        out: list[object] = []
        for position, (_, function, _, _) in enumerate(specs):
            if function == "COUNT":
                out.append(counts[position])
            elif function == "SUM":
                out.append(sums[position])
            elif function == "AVG":
                total = sums[position]
                out.append(None if total is None else total / counts[position])  # type: ignore[operator]
            elif function == "MIN":
                out.append(minima[position])
            else:  # MAX
                out.append(maxima[position])
        yield tuple(out)

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        functions = ", ".join(function for _, function, _, _ in self._specs)
        return f"BatchAggregate({functions})"


# -- columnwise predicate compilation ---------------------------------------


def compile_columnwise(
    conjunct: ast.Expression,
    resolve_slot: Callable[[ast.ColumnRef], int],
    compiler: ExpressionCompiler,
) -> Optional[ColumnPredicate]:
    """Compile a pushed-down conjunct into a whole-column selection pass.

    Supported shapes (everything else returns None and stays row-wise in a
    :class:`BatchFilter`): column-vs-constant/parameter comparisons and
    ranges, column-vs-column comparisons, ``IS [NOT] NULL``, ``IN`` over
    constant/parameter lists, and ``LIKE`` with a constant/parameter
    pattern.  Semantics mirror the row engine's compiled evaluators under
    ``is_truthy`` — NULL operands never satisfy a predicate — so batch and
    row plans select identical rows.
    """
    if isinstance(conjunct, ast.IsNull):
        if not isinstance(conjunct.operand, ast.ColumnRef):
            return None
        slot = resolve_slot(conjunct.operand)
        if conjunct.negated:
            def not_null(cols: dict, sel, params: Params) -> list:
                col = cols[slot]
                return [i for i in sel if col[i] is not None]
            return not_null

        def null(cols: dict, sel, params: Params) -> list:
            col = cols[slot]
            return [i for i in sel if col[i] is None]
        return null

    if isinstance(conjunct, ast.InList):
        if not isinstance(conjunct.operand, ast.ColumnRef):
            return None
        if any(collect_column_refs(item) for item in conjunct.items):
            return None
        slot = resolve_slot(conjunct.operand)
        item_evaluators = [compiler.compile(item) for item in conjunct.items]
        negated = conjunct.negated

        def in_list(cols: dict, sel, params: Params) -> list:
            options = tuple(
                value
                for value in (
                    evaluate((), params) for evaluate in item_evaluators
                )
                if value is not None
            )
            col = cols[slot]
            if negated:
                return [
                    i for i in sel if col[i] is not None and col[i] not in options
                ]
            return [i for i in sel if col[i] is not None and col[i] in options]
        return in_list

    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op

    if op == "LIKE":
        if not isinstance(conjunct.left, ast.ColumnRef):
            return None
        if collect_column_refs(conjunct.right):
            return None
        slot = resolve_slot(conjunct.left)
        pattern_evaluator = compiler.compile(conjunct.right)

        def like(cols: dict, sel, params: Params) -> list:
            pattern = pattern_evaluator((), params)
            if pattern is None:
                return []
            match = _like_to_regex(str(pattern)).match
            col = cols[slot]
            return [
                i
                for i in sel
                if col[i] is not None and match(str(col[i])) is not None
            ]
        return like

    if op not in ("=", "!=", "<", "<=", ">", ">="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
        return _column_column_compare(
            resolve_slot(left), op, resolve_slot(right)
        )
    for column_side, value_side, flipped in (
        (left, right, False),
        (right, left, True),
    ):
        if not isinstance(column_side, ast.ColumnRef):
            continue
        if collect_column_refs(value_side):
            continue
        effective = _FLIPPED_OPS[op] if flipped else op
        return _column_value_compare(
            resolve_slot(column_side), effective, compiler.compile(value_side)
        )
    return None


#: ``value OP column`` rewritten as ``column OP' value``.
_FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _column_value_compare(
    slot: int, op: str, value_evaluator: Evaluator
) -> ColumnPredicate:
    def compare(cols: dict, sel, params: Params) -> list:
        value = value_evaluator((), params)
        if value is None:
            return []
        col = cols[slot]
        try:
            if op == "=":
                return [i for i in sel if col[i] is not None and col[i] == value]
            if op == "!=":
                return [i for i in sel if col[i] is not None and col[i] != value]
            if op == "<":
                return [i for i in sel if col[i] is not None and col[i] < value]
            if op == "<=":
                return [i for i in sel if col[i] is not None and col[i] <= value]
            if op == ">":
                return [i for i in sel if col[i] is not None and col[i] > value]
            return [i for i in sel if col[i] is not None and col[i] >= value]
        except TypeError as exc:
            raise SqlExecutionError(
                f"cannot compare column values and {value!r}"
            ) from exc
    return compare


def _column_column_compare(
    left_slot: int, op: str, right_slot: int
) -> ColumnPredicate:
    def compare(cols: dict, sel, params: Params) -> list:
        a = cols[left_slot]
        b = cols[right_slot]
        try:
            if op == "=":
                return [
                    i for i in sel
                    if a[i] is not None and b[i] is not None and a[i] == b[i]
                ]
            if op == "!=":
                return [
                    i for i in sel
                    if a[i] is not None and b[i] is not None and a[i] != b[i]
                ]
            if op == "<":
                return [
                    i for i in sel
                    if a[i] is not None and b[i] is not None and a[i] < b[i]
                ]
            if op == "<=":
                return [
                    i for i in sel
                    if a[i] is not None and b[i] is not None and a[i] <= b[i]
                ]
            if op == ">":
                return [
                    i for i in sel
                    if a[i] is not None and b[i] is not None and a[i] > b[i]
                ]
            return [
                i for i in sel
                if a[i] is not None and b[i] is not None and a[i] >= b[i]
            ]
        except TypeError as exc:
            raise SqlExecutionError(
                "cannot compare values of the two columns"
            ) from exc
    return compare
