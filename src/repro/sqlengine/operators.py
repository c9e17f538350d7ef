"""Iterator-model plan operators for the in-memory SQL engine.

Every operator yields *positional rows*: sequences whose slots are assigned
by the planner (one slot per published column, contiguous per FROM-clause
binding).  Scans write a base table's stored tuple into its binding's slot
range; joins copy the build side's slot range into the probe row; compiled
expressions read ``row[slot]`` directly.  Compared to the previous
dict-environment model this removes all per-row dictionary construction and
double-key publishing from the hot loops.

Single-binding scans are zero-copy: when the output width equals the table
width, the stored row tuples are yielded as-is.

Operators also carry the planner's cost-model annotations
(:attr:`PlanOperator.estimated_rows` / :attr:`~PlanOperator.estimated_cost`),
which ``EXPLAIN`` renders per node.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.sqlengine.expressions import Evaluator, Params, Row, is_truthy
from repro.sqlengine.storage import TableData


class PlanOperator:
    """Base class for plan operators (iterator model)."""

    #: Cost-model annotations, set by the planner (None when not estimated).
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None

    def execute(self, params: Params) -> Iterator[Row]:
        """Yield positional rows for the given statement parameters."""
        raise NotImplementedError

    def children(self) -> Sequence["PlanOperator"]:
        """Child operators, used for plan explanation."""
        return ()

    def describe(self) -> str:
        """One-line description used by ``EXPLAIN``-style output."""
        return type(self).__name__

    def explain(self, indent: int = 0, annotate=None) -> str:
        """Multi-line textual plan (operator tree with cost annotations).

        ``annotate``, when given, maps an operator to an extra suffix for
        its line — EXPLAIN ANALYZE appends actual rows and wall time."""
        line = "  " * indent + self.describe()
        if self.estimated_rows is not None:
            line += f"  (rows={self.estimated_rows:.1f}"
            if self.estimated_cost is not None:
                line += f", cost={self.estimated_cost:.1f}"
            line += ")"
        if annotate is not None:
            extra = annotate(self)
            if extra:
                line += "  " + extra
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1, annotate))
        return "\n".join(lines)


class SeqScan(PlanOperator):
    """Full scan over a table, writing rows into the binding's slot range."""

    def __init__(
        self,
        table: TableData,
        binding: str,
        width: int,
        offset: int,
    ) -> None:
        self._table = table
        self._binding = binding
        self._width = width
        self._offset = offset
        self._columns = len(table.schema.columns)

    def execute(self, params: Params) -> Iterator[Row]:
        if self._offset == 0 and self._width == self._columns:
            # Single-binding query: the stored tuples already have the
            # output layout, so yield them without copying.
            yield from self._table.rows()
            return
        width, start, end = self._width, self._offset, self._offset + self._columns
        for row in self._table.rows():
            out = [None] * width
            out[start:end] = row
            yield out

    def describe(self) -> str:
        return f"SeqScan({self._table.schema.name} AS {self._binding})"


class IndexLookupScan(PlanOperator):
    """Equality lookup through an index; keys may reference parameters."""

    def __init__(
        self,
        table: TableData,
        binding: str,
        width: int,
        offset: int,
        index_name: str,
        key_evaluators: Sequence[Evaluator],
    ) -> None:
        self._table = table
        self._binding = binding
        self._width = width
        self._offset = offset
        self._columns = len(table.schema.columns)
        self._index_name = index_name
        self._key_evaluators = list(key_evaluators)

    def execute(self, params: Params) -> Iterator[Row]:
        index = self._table.indexes()[self._index_name]
        key = probe_key(self._key_evaluators, params)
        if key is None:
            return
        if self._offset == 0 and self._width == self._columns:
            for _, row in self._table.lookup_rows(index, key):
                yield row
            return
        width, start, end = self._width, self._offset, self._offset + self._columns
        for _, row in self._table.lookup_rows(index, key):
            out = [None] * width
            out[start:end] = row
            yield out

    def describe(self) -> str:
        return (
            f"IndexLookup({self._table.schema.name} AS {self._binding} "
            f"USING {self._index_name})"
        )


def probe_key(key_evaluators: Sequence[Evaluator], params: Params) -> object:
    """The index key that row-independent ``key_evaluators`` produce, in
    index column order, or None when any part is NULL: ``column = NULL``
    holds for no row, although the index files NULL columns under a key."""
    empty_row: Row = ()
    values = [evaluate(empty_row, params) for evaluate in key_evaluators]
    if None in values:
        return None
    return values[0] if len(values) == 1 else tuple(values)


class DmlTarget(PlanOperator):
    """EXPLAIN's root for an UPDATE or DELETE: the table written, over the
    access path that yields the rows written.  Describes a plan; the
    executor runs the write itself."""

    def __init__(self, kind: str, table: TableData, child: PlanOperator) -> None:
        self._kind = kind
        self._table = table
        self._child = child

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"{self._kind}({self._table.schema.name})"


class Filter(PlanOperator):
    """Filter rows by a compiled predicate."""

    def __init__(self, child: PlanOperator, predicate: Evaluator, label: str = "") -> None:
        self._child = child
        self._predicate = predicate
        self._label = label

    def execute(self, params: Params) -> Iterator[Row]:
        predicate = self._predicate
        for row in self._child.execute(params):
            if is_truthy(predicate(row, params)):
                yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Filter({self._label})" if self._label else "Filter"


class NestedLoopJoin(PlanOperator):
    """Cartesian product of two children with an optional join predicate.

    The right child covers the slot range ``right_range``; joining copies
    that range of the right row into a copy of the left row.
    """

    def __init__(
        self,
        left: PlanOperator,
        right: PlanOperator,
        right_range: tuple[int, int],
        predicate: Evaluator | None = None,
    ) -> None:
        self._left = left
        self._right = right
        self._right_range = right_range
        self._predicate = predicate

    def execute(self, params: Params) -> Iterator[Row]:
        start, end = self._right_range
        right_rows = [row[start:end] for row in self._right.execute(params)]
        predicate = self._predicate
        for left_row in self._left.execute(params):
            for right_slice in right_rows:
                row = list(left_row)
                row[start:end] = right_slice
                if predicate is None or is_truthy(predicate(row, params)):
                    yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return "NestedLoopJoin" + ("(filtered)" if self._predicate else "(cross)")


class HashJoin(PlanOperator):
    """Equi-join: build a hash table on the right child, probe with the left."""

    def __init__(
        self,
        left: PlanOperator,
        right: PlanOperator,
        left_keys: Sequence[Evaluator],
        right_keys: Sequence[Evaluator],
        right_range: tuple[int, int],
    ) -> None:
        self._left = left
        self._right = right
        self._left_keys = list(left_keys)
        self._right_keys = list(right_keys)
        self._right_range = right_range

    def execute(self, params: Params) -> Iterator[Row]:
        start, end = self._right_range
        table: dict[object, list[Row]] = {}
        for right_row in self._right.execute(params):
            key = tuple(evaluate(right_row, params) for evaluate in self._right_keys)
            if any(value is None for value in key):
                continue
            table.setdefault(key, []).append(right_row[start:end])
        left_keys = self._left_keys
        for left_row in self._left.execute(params):
            key = tuple(evaluate(left_row, params) for evaluate in left_keys)
            if any(value is None for value in key):
                continue
            for right_slice in table.get(key, ()):
                row = list(left_row)
                row[start:end] = right_slice
                yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"HashJoin(keys={len(self._left_keys)})"


class Project(PlanOperator):
    """Compute the output columns of the select list.

    When every output is a plain column reference the projection is a pure
    slot gather (no evaluator calls per column).
    """

    def __init__(
        self,
        child: PlanOperator,
        columns: Sequence[tuple[str, Evaluator]],
        slots: Sequence[int] | None = None,
    ) -> None:
        self._child = child
        self._columns = list(columns)
        self._slots = list(slots) if slots is not None else None

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self._columns]

    def execute(self, params: Params) -> Iterator[Row]:
        if self._slots is not None:
            slots = self._slots
            for row in self._child.execute(params):
                yield tuple(row[slot] for slot in slots)
            return
        evaluators = [evaluate for _, evaluate in self._columns]
        for row in self._child.execute(params):
            yield tuple(evaluate(row, params) for evaluate in evaluators)

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.column_names)})"


class Sort(PlanOperator):
    """Sort rows by one or more keys.

    The sort is stable and handles mixed ascending/descending keys by sorting
    repeatedly from the least-significant key to the most-significant one.
    NULL values sort first in ascending order (last in descending).
    """

    def __init__(
        self,
        child: PlanOperator,
        keys: Sequence[tuple[Evaluator, bool]],
    ) -> None:
        self._child = child
        self._keys = list(keys)

    def execute(self, params: Params) -> Iterator[Row]:
        rows = list(self._child.execute(params))
        for evaluate, descending in reversed(self._keys):
            rows.sort(
                key=lambda row: _sort_key(evaluate(row, params)),
                reverse=descending,
            )
        return iter(rows)

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Sort(keys={len(self._keys)})"


class Limit(PlanOperator):
    """Apply OFFSET/LIMIT to the child's rows."""

    def __init__(
        self,
        child: PlanOperator,
        limit: Evaluator | None,
        offset: Evaluator | None,
    ) -> None:
        self._child = child
        self._limit = limit
        self._offset = offset

    def execute(self, params: Params) -> Iterator[Row]:
        empty_row: Row = ()
        offset = int(self._offset(empty_row, params)) if self._offset else 0  # type: ignore[arg-type]
        limit = int(self._limit(empty_row, params)) if self._limit else None  # type: ignore[arg-type]
        produced = 0
        skipped = 0
        for row in self._child.execute(params):
            if skipped < offset:
                skipped += 1
                continue
            if limit is not None and produced >= limit:
                return
            produced += 1
            yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Limit"


class Distinct(PlanOperator):
    """Remove duplicate output rows (by value of every column).

    Runs above :class:`Project`, whose rows are already tuples in output
    order, so the row itself is the deduplication key.
    """

    def __init__(self, child: PlanOperator) -> None:
        self._child = child

    def execute(self, params: Params) -> Iterator[Row]:
        seen: set[tuple[object, ...]] = set()
        for row in self._child.execute(params):
            key = tuple(row)
            if key in seen:
                continue
            seen.add(key)
            yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Distinct"


class Aggregate(PlanOperator):
    """Ungrouped aggregation: COUNT / SUM / MIN / MAX / AVG without GROUP BY.

    Each output column is ``(name, function, evaluator)``; a ``None``
    evaluator means ``COUNT(*)``.  NULL inputs are skipped (SQL semantics);
    SUM/MIN/MAX/AVG over zero non-NULL inputs yield NULL, COUNT yields 0.
    """

    def __init__(
        self,
        child: PlanOperator,
        columns: Sequence[tuple[str, str, Evaluator | None]],
    ) -> None:
        self._child = child
        self._columns = list(columns)

    @property
    def column_names(self) -> list[str]:
        return [name for name, _, _ in self._columns]

    def execute(self, params: Params) -> Iterator[Row]:
        counts = [0] * len(self._columns)
        sums: list[object] = [None] * len(self._columns)
        minima: list[object] = [None] * len(self._columns)
        maxima: list[object] = [None] * len(self._columns)
        specs = self._columns
        for row in self._child.execute(params):
            for position, (_, function, evaluate) in enumerate(specs):
                if evaluate is None:
                    counts[position] += 1
                    continue
                value = evaluate(row, params)
                if value is None:
                    continue
                counts[position] += 1
                if function in ("SUM", "AVG"):
                    current = sums[position]
                    sums[position] = value if current is None else current + value  # type: ignore[operator]
                elif function == "MIN":
                    current = minima[position]
                    if current is None or value < current:  # type: ignore[operator]
                        minima[position] = value
                elif function == "MAX":
                    current = maxima[position]
                    if current is None or value > current:  # type: ignore[operator]
                        maxima[position] = value
        out: list[object] = []
        for position, (_, function, _) in enumerate(specs):
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
        functions = ", ".join(function for _, function, _ in self._columns)
        return f"Aggregate({functions})"


def _sort_key(value: object) -> tuple[int, object]:
    """Make values totally ordered: NULLs first, then by value."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def materialise(operator: PlanOperator, params: Params) -> list[tuple[object, ...]]:
    """Run a plan and return its rows as tuples.

    The plan root (Project / Aggregate, possibly under Distinct/Limit)
    already yields tuples in output-column order, so this is a plain drain;
    ``tuple(row)`` is the identity for rows that are already tuples.
    """
    return [tuple(row) for row in operator.execute(params)]


class IndexNestedLoopJoin(PlanOperator):
    """Join in which each left row probes an index on the right base table.

    This is the access path a production optimizer picks for point joins
    (e.g. ``A.C_ADDR_ID = B.ADDR_ID`` where ``ADDR_ID`` is the primary key of
    ``B``); without it, every query execution would rebuild a hash table over
    the whole right table.
    """

    def __init__(
        self,
        left: PlanOperator,
        table: TableData,
        binding: str,
        offset: int,
        index_name: str,
        left_key_evaluators: Sequence[Evaluator],
        residual: Evaluator | None = None,
    ) -> None:
        self._left = left
        self._table = table
        self._binding = binding
        self._offset = offset
        self._columns = len(table.schema.columns)
        self._index_name = index_name
        self._left_key_evaluators = list(left_key_evaluators)
        self._residual = residual

    def execute(self, params: Params) -> Iterator[Row]:
        index = self._table.indexes()[self._index_name]
        start, end = self._offset, self._offset + self._columns
        residual = self._residual
        evaluators = self._left_key_evaluators
        single_key = evaluators[0] if len(evaluators) == 1 else None
        table = self._table
        for left_row in self._left.execute(params):
            if single_key is not None:
                key = single_key(left_row, params)
                if key is None:
                    continue
            else:
                key_values = [evaluate(left_row, params) for evaluate in evaluators]
                if any(value is None for value in key_values):
                    continue
                key = tuple(key_values)
            for _, stored in table.lookup_rows(index, key):
                row = list(left_row)
                row[start:end] = stored
                if residual is None or is_truthy(residual(row, params)):
                    yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._left,)

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin({self._table.schema.name} AS {self._binding} "
            f"USING {self._index_name})"
        )


class IndexOrLookupJoin(PlanOperator):
    """Join driven by a disjunction of indexed equality predicates.

    This is the access path a production optimizer (e.g. PostgreSQL's bitmap
    index OR) uses for queries such as TPC-W's doGetRelated::

        ... FROM item I, item J
        WHERE (I.i_related1 = J.i_id OR ... OR I.i_related5 = J.i_id)
          AND I.i_id = ?

    For each left row, every disjunct probes an index on the right table;
    matching rows are combined (each right row at most once per left row) and
    the original disjunction is re-checked as a residual predicate.
    """

    def __init__(
        self,
        left: PlanOperator,
        table: TableData,
        binding: str,
        offset: int,
        probes: Sequence[tuple[str, Evaluator]],
        residual: Evaluator | None = None,
    ) -> None:
        self._left = left
        self._table = table
        self._binding = binding
        self._offset = offset
        self._columns = len(table.schema.columns)
        self._probes = list(probes)
        self._residual = residual

    def execute(self, params: Params) -> Iterator[Row]:
        indexes = self._table.indexes()
        start, end = self._offset, self._offset + self._columns
        residual = self._residual
        table = self._table
        for left_row in self._left.execute(params):
            seen_rows: set[int] = set()
            for index_name, key_evaluator in self._probes:
                key = key_evaluator(left_row, params)
                if key is None:
                    continue
                for row_id, stored in table.lookup_rows(indexes[index_name], key):
                    if row_id in seen_rows:
                        continue
                    seen_rows.add(row_id)
                    row = list(left_row)
                    row[start:end] = stored
                    if residual is None or is_truthy(residual(row, params)):
                        yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self._left,)

    def describe(self) -> str:
        return (
            f"IndexOrLookupJoin({self._table.schema.name} AS {self._binding}, "
            f"{len(self._probes)} probes)"
        )
