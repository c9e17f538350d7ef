"""Span self-time arithmetic and the transparency of the session proxy."""

import pytest

from repro import dbapi
from repro.errors import SqlError
from repro.testing import make_bank_db
from spans import Span, TracedDatabase, Tracer, self_time


def span(start, end):
    made = Span(0, None, 1, "x", start, {})
    made.end = end
    return made


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = span(0.0, 10.0)
    # 1-4 and 3-6 overlap (union 1-6), 8-9 is separate: 6 covered, 4 left.
    assert self_time(parent, [span(3.0, 6.0), span(1.0, 4.0), span(8.0, 9.0)]) == pytest.approx(4.0)
    # A child nested inside another adds nothing.
    assert self_time(parent, [span(1.0, 6.0), span(2.0, 3.0)]) == pytest.approx(5.0)
    # Children are clipped to the parent's interval.
    assert self_time(parent, [span(-2.0, 1.0), span(9.0, 12.0)]) == pytest.approx(8.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_spans_of_one_interaction_share_its_id_and_nest():
    tracer = Tracer()
    with tracer.span("interaction", op="a") as first:
        with tracer.span("execute", sql="SELECT 1") as child:
            pass
    with tracer.span("interaction", op="b") as second:
        pass
    assert child.parent_id == first.span_id and child.interaction == first.interaction
    assert second.interaction != first.interaction and second.parent_id is None
    assert first.start <= child.start <= child.end <= first.end
    assert [s.span_id for s in tracer.children()[None]] == [first.span_id, second.span_id]


def test_proxy_session_is_transparent():
    bank = make_bank_db()
    tracer = Tracer()
    plain = bank.database.session(autocommit=False)
    traced = TracedDatabase(bank.database, tracer).session(autocommit=False)

    sql = "SELECT * FROM Client ORDER BY 1"
    expected, got = plain.execute(sql), traced.execute(sql)
    assert got.columns == expected.columns and got.rows == expected.rows
    assert got.rowcount == expected.rowcount

    # Same transaction state after the same statements ...
    assert traced.in_transaction == plain.in_transaction
    traced.commit()
    plain.commit()
    assert traced.in_transaction == plain.in_transaction is False
    assert traced.autocommit == plain.autocommit is False

    # ... and the same exception for the same mistake.
    with pytest.raises(SqlError) as plain_error:
        plain.execute("SELECT nope FROM Client")
    with pytest.raises(SqlError) as traced_error:
        traced.execute("SELECT nope FROM Client")
    assert type(traced_error.value) is type(plain_error.value)
    assert str(traced_error.value) == str(plain_error.value)
    traced.close()
    plain.close()

    names = [recorded.name for recorded in tracer.spans]
    assert names == ["checkout", "execute", "commit", "execute", "close"]
    assert tracer.spans[1].tags["sql"] == sql


def test_upper_layers_accept_the_proxy():
    bank = make_bank_db()
    tracer = Tracer()
    connection = dbapi.Connection(TracedDatabase(bank.database, tracer))
    statement = connection.prepare_statement("SELECT COUNT(*) FROM Client WHERE 1 = ?")
    statement.set_int(1, 1)
    direct = bank.database.execute("SELECT COUNT(*) FROM Client").rows
    assert statement.execute_query().fetch_all() == direct
    connection.close()
    assert [s.name for s in tracer.spans] == ["checkout", "execute", "close"]
    assert tracer.spans[1].tags["params"] == [1]
