"""Golden EXPLAIN output for the star-schema join shapes of the
``analytics_scan`` workload, in both execution modes, and for the point
writes of ``sql_remote_order`` and ``analytics_scan``.

The equivalence tests only compare root cardinalities across modes; these
pin the full plan — join order, physical operators, pushdown and every
per-node estimate — so a planner change that moves any of them shows up as
a diff here.
"""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.planner import PlannerOptions

QUERIES = {
    "join2": (
        "SELECT COUNT(*), SUM(fact.value) FROM fact, dim_a "
        "WHERE fact.a_id = dim_a.a_id AND dim_a.tag != ?"
    ),
    "join3": (
        "SELECT COUNT(*), SUM(fact.qty) FROM fact, dim_b, dim_a "
        "WHERE fact.b_id = dim_b.b_id AND dim_b.a_ref = dim_a.a_id "
        "AND dim_a.tag = ? AND dim_b.grp < ?"
    ),
    "point_join": (
        "SELECT fact.id, dim_a.region FROM fact, dim_a "
        "WHERE fact.a_id = dim_a.a_id AND fact.id = ?"
    ),
}

GOLDEN = {
    ("row", "join2"): """\
mode=row
Aggregate(COUNT, SUM)  (rows=1.0, cost=1238.0)
  HashJoin(keys=1)  (rows=18.0, cost=1238.0)
    Filter(dim_a)  (rows=18.0, cost=20.0)
      SeqScan(dim_a AS dim_a)  (rows=20.0, cost=20.0)
    SeqScan(fact AS fact)  (rows=600.0, cost=600.0)""",
    ("row", "join3"): """\
mode=row
Aggregate(COUNT, SUM)  (rows=1.0, cost=1357.3)
  HashJoin(keys=1)  (rows=2.0, cost=1357.3)
    HashJoin(keys=1)  (rows=2.0, cost=155.3)
      Filter(dim_a)  (rows=2.0, cost=20.0)
        SeqScan(dim_a AS dim_a)  (rows=20.0, cost=20.0)
      Filter(dim_b)  (rows=33.3, cost=100.0)
        SeqScan(dim_b AS dim_b)  (rows=100.0, cost=100.0)
    SeqScan(fact AS fact)  (rows=600.0, cost=600.0)""",
    ("row", "point_join"): """\
mode=row
Project(id, region)  (rows=1.0, cost=3.0)
  IndexNestedLoopJoin(dim_a AS dim_a USING pk_dim_a)  (rows=1.0, cost=3.0)
    IndexLookup(fact AS fact USING pk_fact)  (rows=1.0, cost=1.0)""",
    # Every dim joins on its primary key and no dim column is read above
    # its join, so both star joins are semi-joins: the dims become key
    # sets and fact streams (join3 is fact ⋉ (dim_b ⋉ dim_a)).  The join
    # order and every estimate are the row plan's.
    ("batch", "join2"): """\
mode=batch (batch_size=1024)
BatchAggregate(COUNT, SUM)  (rows=1.0, cost=1238.0)
  BatchSemiJoin(keys=1)  (rows=18.0, cost=1238.0)
    BatchScan(fact AS fact, cols=2/6)  (rows=600.0, cost=600.0)
    BatchScan(dim_a AS dim_a, cols=2/3, pushdown=1)  (rows=18.0, cost=20.0)""",
    ("batch", "join3"): """\
mode=batch (batch_size=1024)
BatchAggregate(COUNT, SUM)  (rows=1.0, cost=1357.3)
  BatchSemiJoin(keys=1)  (rows=2.0, cost=1357.3)
    BatchScan(fact AS fact, cols=2/6)  (rows=600.0, cost=600.0)
    BatchSemiJoin(keys=1)  (rows=2.0, cost=155.3)
      BatchScan(dim_b AS dim_b, cols=3/3, pushdown=1)  (rows=33.3, cost=100.0)
      BatchScan(dim_a AS dim_a, cols=2/3, pushdown=1)  (rows=2.0, cost=20.0)""",
    # Forced batch mode has no index nested-loop join; the scan keeps the
    # index lookup's cost so join ordering matches row mode.
    ("batch", "point_join"): """\
mode=batch (batch_size=1024)
BatchOutput(id, region)  (rows=1.0, cost=42.0)
  BatchHashJoin(keys=1)  (rows=1.0, cost=42.0)
    BatchScan(fact AS fact, cols=2/6, pushdown=1)  (rows=1.0, cost=1.0)
    BatchScan(dim_a AS dim_a, cols=2/3)  (rows=20.0, cost=20.0)""",
}


#: DML always lowers to row operators: the access path is the one the row
#: lowering prints for a SELECT with the same WHERE clause.
DML_QUERIES = {
    "transfer": (
        "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ? AND i_stock >= ?"
    ),
    "point_update": "UPDATE fact SET note = ? WHERE id = ?",
    "scan_delete": "DELETE FROM fact WHERE note = ? AND qty < ?",
}

DML_GOLDEN = {
    "transfer": """\
mode=row
Update(item)  (rows=0.3, cost=1.0)
  Filter(item)  (rows=0.3, cost=1.0)
    IndexLookup(item AS item USING pk_item)  (rows=1.0, cost=1.0)""",
    "point_update": """\
mode=row
Update(fact)  (rows=1.0, cost=1.0)
  IndexLookup(fact AS fact USING pk_fact)  (rows=1.0, cost=1.0)""",
    "scan_delete": """\
mode=row
Delete(fact)  (rows=20.0, cost=600.0)
  Filter(fact)  (rows=20.0, cost=600.0)
    Filter(fact)  (rows=60.0, cost=600.0)
      SeqScan(fact AS fact)  (rows=600.0, cost=600.0)""",
}


@pytest.fixture(scope="module")
def star() -> Database:
    database = Database()
    database.executescript(
        """
        CREATE TABLE fact (id INTEGER PRIMARY KEY, a_id INTEGER, b_id INTEGER,
                           value INTEGER, qty INTEGER, note INTEGER);
        CREATE TABLE dim_a (a_id INTEGER PRIMARY KEY, tag INTEGER, region VARCHAR(10));
        CREATE TABLE dim_b (b_id INTEGER PRIMARY KEY, grp INTEGER, a_ref INTEGER);
        CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR(20),
                           i_stock INTEGER);
        """
    )
    database.insert_rows(
        "fact",
        [
            (i, i % 20, (i * 7) % 100, (i * 37) % 1000, i % 13, 0)
            for i in range(600)
        ],
    )
    database.insert_rows("dim_a", [(a, a % 7, f"r{a % 5}") for a in range(20)])
    database.insert_rows("dim_b", [(b, b % 20, b % 20) for b in range(100)])
    database.insert_rows("item", [(i, f"title{i}", 100) for i in range(1, 51)])
    return database


@pytest.mark.parametrize(
    ("mode", "query"), list(GOLDEN), ids=[f"{m}-{q}" for m, q in GOLDEN]
)
def test_explain_matches_golden(star: Database, mode: str, query: str) -> None:
    star.set_planner_options(PlannerOptions(execution_mode=mode))
    assert star.explain(QUERIES[query]) == GOLDEN[(mode, query)]


def test_auto_mode_picks_the_batch_plan_for_star_joins(star: Database) -> None:
    star.set_planner_options(PlannerOptions())
    for query in ("join2", "join3"):
        assert star.explain(QUERIES[query]) == GOLDEN[("batch", query)]


@pytest.mark.parametrize("mode", ["auto", "row", "batch"])
@pytest.mark.parametrize("query", list(DML_GOLDEN))
def test_dml_explain_matches_golden(star: Database, query: str, mode: str) -> None:
    star.set_planner_options(PlannerOptions(execution_mode=mode))
    sql = DML_QUERIES[query]
    assert star.explain(sql) == DML_GOLDEN[query]
    # The EXPLAIN statement renders the same plan as Database.explain.
    rows = star.execute("EXPLAIN " + sql).rows
    assert "\n".join(row[0] for row in rows) == DML_GOLDEN[query]
