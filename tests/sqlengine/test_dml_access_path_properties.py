"""Property: UPDATE and DELETE through an index probe behave exactly like
UPDATE and DELETE through a scan.

Every generated statement sequence runs on two engines: the default one,
whose planner probes the primary key or the secondary hash index when the
``WHERE`` clause binds it, and one with ``PlannerOptions(use_indexes=False)``,
which scans.  Rowcounts, error types, conflict outcomes, the final table
contents and every index's distinct-key count must agree — including for
keys that match nothing, NULL keys and keys of another type (``'5'``,
``5.0``, ``True``), on which SQL equality and the index's dictionary lookup
must not part ways.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, TransactionConflictError
from repro.sqlengine.planner import PlannerOptions

ROW_IDS = list(range(1, 9))

#: Key values for an equality predicate: in range, missing, NULL and
#: mixed-type (a string never equals an integer; ``5.0`` and ``True`` do).
_keys = st.one_of(
    st.integers(min_value=-1, max_value=9),
    st.none(),
    st.sampled_from(["5", "1", 5.0, 2.0, 2.5, True]),
)

#: ``WHERE`` shapes: equality on the PK, the indexed column and the
#: unindexed column, alone or with a residual conjunct.  Residual
#: parameters stay integers: a residual that cannot compare raises, and
#: only rows the equality admits may reach it.
_WHERES = [
    "id = ?",
    "grp = ?",
    "note = ?",
    "id = ? AND note > ?",
    "grp = ? AND note <> ?",
    "note = ? AND grp > ?",
    "grp = ? AND id = ?",
]

_statement = st.tuples(
    st.sampled_from(["add_note", "set_grp", "delete"]),
    st.sampled_from(_WHERES),
    _keys,
    st.integers(min_value=-1, max_value=6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)

_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=len(ROW_IDS),
    max_size=len(ROW_IDS),
)


def make_db(rows, use_indexes: bool) -> Database:
    db = Database(planner_options=PlannerOptions(use_indexes=use_indexes))
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, note INTEGER)")
    db.execute("CREATE INDEX idx_grp ON t (grp)")
    db.execute_many(
        "INSERT INTO t (id, grp, note) VALUES (?, ?, ?)",
        [(row_id, grp, note) for row_id, (grp, note) in zip(ROW_IDS, rows)],
    )
    return db


def render(statement) -> tuple[str, tuple]:
    kind, where, key, residual, value = statement
    params: tuple = (key, residual) if "AND" in where else (key,)
    if kind == "add_note":
        return f"UPDATE t SET note = note + 1 WHERE {where}", params
    if kind == "set_grp":
        return f"UPDATE t SET grp = ? WHERE {where}", (value, *params)
    return f"DELETE FROM t WHERE {where}", params


def run(session, statement) -> object:
    """The statement's rowcount, or the type of error it raised."""
    sql, params = render(statement)
    try:
        return session.execute(sql, params).rowcount
    except Exception as error:  # noqa: BLE001 - the error type is the outcome
        return type(error).__name__


def final_state(db: Database) -> tuple:
    db._mvcc.collect_garbage(limit=10_000)
    data = db.table_data("t")
    return (
        db.execute("SELECT * FROM t ORDER BY id").rows,
        len(data),
        {name: data.index_distinct(name) for name in sorted(data.indexes())},
    )


def test_the_two_engines_really_take_different_access_paths() -> None:
    rows = [(row_id % 3, row_id) for row_id in ROW_IDS]
    for where in ("id = ?", "grp = ? AND note > ?"):
        sql = f"UPDATE t SET note = 0 WHERE {where}"
        assert "IndexLookup" in make_db(rows, True).explain(sql)
        assert "IndexLookup" not in make_db(rows, False).explain(sql)


@given(rows=_rows, statements=st.lists(_statement, max_size=12))
@settings(max_examples=60, deadline=None)
def test_indexed_dml_matches_scan_dml(rows, statements) -> None:
    outcomes, states = [], []
    for use_indexes in (True, False):
        db = make_db(rows, use_indexes)
        outcomes.append([run(db, statement) for statement in statements])
        states.append(final_state(db))
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]


@given(
    rows=_rows,
    first=st.lists(_statement, min_size=1, max_size=3),
    second=st.lists(_statement, min_size=1, max_size=3),
    first_commits=st.booleans(),
    second_commits=st.booleans(),
    second_ends_first=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_interleaved_transactions_conflict_identically(
    rows, first, second, first_commits, second_commits, second_ends_first
) -> None:
    """Two open transactions alternate statements; a session stops at its
    first conflict and rolls back.  Which statement conflicts, every
    rowcount and the state after both end must not depend on whether the
    writers found their rows by probe or by scan."""
    results = []
    for use_indexes in (True, False):
        db = make_db(rows, use_indexes)
        sessions = [db.session(), db.session()]
        scripts = [list(first), list(second)]
        conflicted = [False, False]
        trace = []
        for session in sessions:
            session.execute("BEGIN")
        for step in range(max(len(first), len(second))):
            for who in (0, 1):
                if conflicted[who] or step >= len(scripts[who]):
                    continue
                outcome = run(sessions[who], scripts[who][step])
                trace.append((who, outcome))
                conflicted[who] = outcome == TransactionConflictError.__name__
        commits = [first_commits, second_commits]
        for who in ((1, 0) if second_ends_first else (0, 1)):
            if commits[who] and not conflicted[who]:
                sessions[who].execute("COMMIT")
            else:
                sessions[who].execute("ROLLBACK")
        results.append((trace, final_state(db)))
    assert results[0] == results[1]
