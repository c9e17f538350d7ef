"""Reproduction of Tables 3 and 5: the four TPC-W queries, hand-written SQL
next to the SQL generated by the Queryll rewriter.

The benchmark times the whole analysis pipeline (bytecode lowering, loop and
path analysis, query-tree construction, SQL generation) per query, and
checks the structural properties the paper highlights — in particular that
doGetRelated becomes a five-way self-join while the hand-written query uses
a single OR-join.
"""

from __future__ import annotations

from repro.core.pipeline import QueryllPipeline
from repro.pyfrontend.disassembler import lower_function
from repro.tpcw import queries_queryll, queries_sql
from repro.tpcw.schema import tpcw_mapping

_printed = False


def _generate_all() -> dict[str, str]:
    pipeline = QueryllPipeline(tpcw_mapping())
    generated: dict[str, str] = {}
    for name, function in queries_queryll.QUERY_FUNCTIONS.items():
        method = lower_function(function.original)
        report = pipeline.analyze_method(method)
        generated[name] = report.queries[0].sql
    return generated


def test_table5_generated_sql(benchmark) -> None:
    generated = benchmark(_generate_all)

    assert "(A.C_ID) = ?" in generated["getName"]
    assert "FROM customer AS A, address AS B, country AS C" in generated["getCustomer"]
    assert "A.I_A_ID = B.A_ID" in generated["doSubjectSearch"]
    assert generated["doGetRelated"].count("item AS") == 6

    global _printed
    if not _printed:
        _printed = True
        handwritten = {
            "getName": queries_sql.GET_NAME_SQL,
            "getCustomer": queries_sql.GET_CUSTOMER_SQL,
            "doSubjectSearch": queries_sql.DO_SUBJECT_SEARCH_SQL,
            "doGetRelated": queries_sql.DO_GET_RELATED_SQL,
        }
        print("\n===== Table 3 / Table 5 (hand-written vs generated SQL) =====")
        for name, sql in generated.items():
            print(f"\n{name}")
            print(f"  hand-written: {handwritten[name]}")
            print(f"  generated:    {sql}")
