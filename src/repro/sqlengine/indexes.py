"""Secondary index structures for the in-memory SQL engine.

Two index kinds are provided:

* :class:`HashIndex` — equality lookups (used automatically for primary keys
  and explicitly created unique/secondary indexes).
* :class:`OrderedIndex` — a sorted structure supporting range scans, useful
  for ORDER BY acceleration experiments in the ablation benchmarks.

Indexes map a key (a tuple of column values) to the set of row identifiers
holding that key.  Row identifiers are assigned by
:class:`repro.sqlengine.storage.TableData`.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable, Iterator

from repro.sqlengine.errors import UniqueViolationError


class Index:
    """Common interface for index implementations."""

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.name = name
        self.columns = columns
        self.unique = unique

    def insert(self, key: Hashable, row_id: int, enforce_unique: bool = True) -> None:
        """Add ``row_id`` under ``key``.

        ``enforce_unique=False`` skips the duplicate check on a unique
        index: the MVCC storage layer uses it when a key is only a
        *transient* duplicate — the other row id under the key is a dead
        version kept for older snapshots (see ``TableData``), which plain
        uniqueness cannot distinguish from a live row.
        """
        raise NotImplementedError

    def delete(self, key: Hashable, row_id: int) -> None:
        raise NotImplementedError

    def lookup(self, key: Hashable) -> list[int]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def distinct_keys(self) -> int:
        """Number of distinct keys currently in the index.

        Maintained incrementally, so it is exact and O(1) to read; the
        planner's cost model uses it as the NDV (number of distinct values)
        statistic for the indexed column(s).  Because transaction rollback
        replays inverse operations through :meth:`insert`/:meth:`delete`,
        the estimate stays correct across ROLLBACK as well.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HashIndex(Index):
    """Dictionary-backed equality index."""

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        super().__init__(name, columns, unique)
        self._entries: dict[Hashable, list[int]] = {}
        self._size = 0

    def insert(self, key: Hashable, row_id: int, enforce_unique: bool = True) -> None:
        bucket = self._entries.setdefault(key, [])
        if self.unique and bucket and enforce_unique:
            raise UniqueViolationError(
                f"unique index {self.name!r} violated for key {key!r}",
                index=self.name,
                key=key,
            )
        bucket.append(row_id)
        self._size += 1

    def delete(self, key: Hashable, row_id: int) -> None:
        bucket = self._entries.get(key)
        if not bucket or row_id not in bucket:
            return
        bucket.remove(row_id)
        self._size -= 1
        if not bucket:
            del self._entries[key]

    def lookup(self, key: Hashable) -> list[int]:
        return list(self._entries.get(key, ()))

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._size = 0

    def distinct_keys(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return self._size


class OrderedIndex(Index):
    """Sorted-list index supporting equality and range lookups.

    Keys must be mutually comparable (the engine only builds ordered indexes
    over single columns of one type, so this holds in practice).
    """

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        super().__init__(name, columns, unique)
        self._keys: list[Hashable] = []
        self._row_ids: list[int] = []
        self._distinct = 0

    def insert(self, key: Hashable, row_id: int, enforce_unique: bool = True) -> None:
        left = bisect.bisect_left(self._keys, key)  # type: ignore[arg-type]
        position = bisect.bisect_right(self._keys, key)  # type: ignore[arg-type]
        if self.unique and left != position and enforce_unique:
            raise UniqueViolationError(
                f"unique index {self.name!r} violated for key {key!r}",
                index=self.name,
                key=key,
            )
        if left == position:
            self._distinct += 1
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def delete(self, key: Hashable, row_id: int) -> None:
        left = bisect.bisect_left(self._keys, key)  # type: ignore[arg-type]
        right = bisect.bisect_right(self._keys, key)  # type: ignore[arg-type]
        for position in range(left, right):
            if self._row_ids[position] == row_id:
                del self._keys[position]
                del self._row_ids[position]
                if right - left == 1:
                    self._distinct -= 1
                return

    def lookup(self, key: Hashable) -> list[int]:
        try:
            left = bisect.bisect_left(self._keys, key)  # type: ignore[arg-type]
            right = bisect.bisect_right(self._keys, key)  # type: ignore[arg-type]
        except TypeError:
            # A key that does not compare with the stored keys (``'5'``
            # against integers) equals none of them, as a scan would find.
            return []
        return self._row_ids[left:right]

    def range(
        self,
        low: Hashable | None = None,
        high: Hashable | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Row ids whose keys fall in the [low, high] interval."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)  # type: ignore[arg-type]
        else:
            start = bisect.bisect_right(self._keys, low)  # type: ignore[arg-type]
        if high is None:
            end = len(self._keys)
        elif include_high:
            end = bisect.bisect_right(self._keys, high)  # type: ignore[arg-type]
        else:
            end = bisect.bisect_left(self._keys, high)  # type: ignore[arg-type]
        return self._row_ids[start:end]

    def ordered_row_ids(self, descending: bool = False) -> list[int]:
        """All row ids in key order."""
        if descending:
            return list(reversed(self._row_ids))
        return list(self._row_ids)

    def clear(self) -> None:
        self._keys.clear()
        self._row_ids.clear()
        self._distinct = 0

    def distinct_keys(self) -> int:
        return self._distinct

    def __len__(self) -> int:
        return len(self._row_ids)


def make_key(values: Iterable[object]) -> Hashable:
    """Build an index key from column values.

    Single-column keys are stored unwrapped so that lookups with a scalar
    value work; multi-column keys become tuples.
    """
    values = tuple(values)
    if len(values) == 1:
        return values[0]
    return values
