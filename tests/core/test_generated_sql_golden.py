"""Golden SQL: the exact text the rewriter emits for the paper's queries.

The four TPC-W queries of Table 5 (through the ``@query`` frontend) and the
Fig. 10 office query (through the mini-JVM ``BytecodeRewriter``) are pinned
byte for byte, so any change to what the rewriter emits shows up here as a
diff of SQL text rather than as a silent plan change further down.  A few
bank-schema queries pin the shapes those leave out: conjuncts kept in source
order, inclusive comparisons, a navigation join under a ``Pair`` projection,
and an ``else`` branch's path condition.
"""

from __future__ import annotations

import pytest

from repro.jvm.rewriter import BytecodeRewriter
from repro.minijava import compile_source
from repro.orm import Pair, QuerySet
from repro.pyfrontend import query
from repro.testing import OFFICE_QUERY_SOURCE, make_bank_mapping
from repro.tpcw import queries_queryll
from repro.tpcw.schema import tpcw_mapping

CUSTOMER = (
    "C_ID", "C_UNAME", "C_FNAME", "C_LNAME", "C_ADDR_ID", "C_PHONE", "C_EMAIL",
    "C_SINCE", "C_DISCOUNT", "C_BALANCE", "C_YTD_PMT",
)
ADDRESS = (
    "ADDR_ID", "ADDR_STREET1", "ADDR_STREET2", "ADDR_CITY", "ADDR_STATE",
    "ADDR_ZIP", "ADDR_CO_ID",
)
COUNTRY = ("CO_ID", "CO_NAME", "CO_CURRENCY", "CO_EXCHANGE")
AUTHOR = ("A_ID", "A_FNAME", "A_MNAME", "A_LNAME", "A_BIO")
ITEM = (
    "I_ID", "I_TITLE", "I_A_ID", "I_PUB_DATE", "I_PUBLISHER", "I_SUBJECT",
    "I_DESC", "I_RELATED1", "I_RELATED2", "I_RELATED3", "I_RELATED4",
    "I_RELATED5", "I_THUMBNAIL", "I_IMAGE", "I_SRP", "I_COST", "I_AVAIL",
    "I_STOCK", "I_ISBN", "I_PAGE", "I_BACKING", "I_DIMENSIONS",
)


def _entity(alias: str, columns: tuple[str, ...]) -> str:
    """The select items of one whole-entity output."""
    return ", ".join(f"({alias}.{column}) AS {alias}_{column}" for column in columns)


TABLE5_SQL = {
    "getName": (
        "SELECT ((A.C_FNAME)) AS COL0, ((A.C_LNAME)) AS COL1 "
        "FROM customer AS A WHERE ( ((A.C_ID) = ?) )"
    ),
    "getCustomer": (
        "SELECT "
        + ", ".join([_entity("A", CUSTOMER), _entity("B", ADDRESS), _entity("C", COUNTRY)])
        + " FROM customer AS A, address AS B, country AS C"
        " WHERE ( ((A.C_UNAME) = ?) )"
        " AND A.C_ADDR_ID = B.ADDR_ID AND B.ADDR_CO_ID = C.CO_ID"
    ),
    "doSubjectSearch": (
        "SELECT "
        + ", ".join([_entity("A", ITEM), _entity("B", AUTHOR)])
        + " FROM item AS A, author AS B"
        " WHERE ( ((A.I_SUBJECT) = ?) ) AND A.I_A_ID = B.A_ID"
    ),
    "doGetRelated": (
        "SELECT "
        + ", ".join(_entity(alias, ITEM) for alias in "BCDEF")
        + " FROM item AS A, item AS B, item AS C, item AS D, item AS E, item AS F"
        " WHERE ( ((A.I_ID) = ?) )"
        " AND A.I_RELATED1 = B.I_ID AND A.I_RELATED2 = C.I_ID"
        " AND A.I_RELATED3 = D.I_ID AND A.I_RELATED4 = E.I_ID"
        " AND A.I_RELATED5 = F.I_ID"
    ),
}

FIG10_SQL = (
    "SELECT (A.OFFICEID) AS A_OFFICEID, (A.NAME) AS A_NAME, (A.COUNTRY) AS A_COUNTRY"
    " FROM Office AS A"
    " WHERE ( (((A.NAME) = 'Seattle') OR (((A.NAME) != 'Seattle') AND ((A.NAME) = 'LA'))) )"
)


@query
def rich_canadians(em, threshold):
    result = QuerySet()
    for a in em.all("Account"):
        if a.holder.country == "Canada" and a.balance > threshold:
            result.add(a)
    return result


@query
def balances_between(em, lo, hi):
    result = QuerySet()
    for a in em.all("Account"):
        if a.balance >= lo and a.balance <= hi:
            result.add(a.accountId)
    return result


@query
def account_holders(em):
    result = QuerySet()
    for a in em.all("Account"):
        result.add(Pair(a.accountId, a.holder.name))
    return result


@query
def below_minimum_or_abroad(em, country):
    result = QuerySet()
    for a in em.all("Account"):
        if not a.balance >= a.minBalance or a.holder.country != country:
            result.add(a.accountId)
    return result


BANK_QUERIES = {
    "rich_canadians": (
        rich_canadians,
        "SELECT (A.ACCOUNTID) AS A_ACCOUNTID, (A.CLIENTID) AS A_CLIENTID,"
        " (A.BALANCE) AS A_BALANCE, (A.MINBALANCE) AS A_MINBALANCE"
        " FROM Account AS A, Client AS B"
        " WHERE ( (((B.COUNTRY) = 'Canada') AND ((A.BALANCE) > ?)) )"
        " AND A.CLIENTID = B.CLIENTID",
    ),
    "balances_between": (
        balances_between,
        "SELECT ((A.ACCOUNTID)) AS COL0 FROM Account AS A"
        " WHERE ( (((A.BALANCE) >= ?) AND ((A.BALANCE) <= ?)) )",
    ),
    "account_holders": (
        account_holders,
        "SELECT ((A.ACCOUNTID)) AS COL0, ((B.NAME)) AS COL1"
        " FROM Account AS A, Client AS B WHERE A.CLIENTID = B.CLIENTID",
    ),
    "below_minimum_or_abroad": (
        below_minimum_or_abroad,
        "SELECT ((A.ACCOUNTID)) AS COL0 FROM Account AS A, Client AS B"
        " WHERE ( (((A.BALANCE) < (A.MINBALANCE))"
        " OR (((A.BALANCE) >= (A.MINBALANCE)) AND ((B.COUNTRY) != ?))) )"
        " AND A.CLIENTID = B.CLIENTID",
    ),
}


def test_table5_queries_cover_every_query_function() -> None:
    assert set(TABLE5_SQL) == set(queries_queryll.QUERY_FUNCTIONS)


@pytest.mark.parametrize("name", sorted(TABLE5_SQL))
def test_table5_generated_sql_is_pinned(name: str) -> None:
    function = queries_queryll.QUERY_FUNCTIONS[name]
    assert function.generated_sql(tpcw_mapping()) == TABLE5_SQL[name]


def test_fig10_bytecode_rewriter_sql_is_pinned() -> None:
    rewriter = BytecodeRewriter(make_bank_mapping())
    result = rewriter.rewrite_classfile(compile_source(OFFICE_QUERY_SOURCE))
    assert result.generated_sql("westCoast") == [FIG10_SQL]


@pytest.mark.parametrize("name", sorted(BANK_QUERIES))
def test_bank_query_sql_is_pinned(name: str) -> None:
    function, sql = BANK_QUERIES[name]
    assert function.generated_sql(make_bank_mapping()) == sql
