"""ServeState.query against the straightforward row loop it replaced.

The oracle below substitutes the withdrawn-guard assignments into every
row, conjoins every row with the filter, decides each conjunction with
``sat_verdict``, converts every surviving row, and only then slices the
page.  The served query must give the same response on every filter and
limit; under a zero solver budget it may only flag rows, never drop one
the oracle returns.
"""

from __future__ import annotations

import json

import pytest

from repro.ctable.condition import FALSE, conjoin
from repro.robustness.verdict import Verdict
from repro.serve.protocol import parse_where
from repro.serve.state import ServeBudgets, row_to_obj
from repro.serve.wal import UpdateEntry
from repro.solver.interface import ConditionSolver


def oracle_query(state, relation, where=None, limit=None):
    snapshot = state.epochs.current()
    view = snapshot.relation(relation)
    condition = parse_where(where)
    assignments = snapshot.assignments
    if condition is not None and assignments:
        condition = condition.substitute(assignments)
    rows = []
    status = "OK"
    solver = ConditionSolver(state.domains, memo=None)
    for tup in view.tuples:
        effective = tup.condition.substitute(assignments) if assignments else tup.condition
        if effective is FALSE:
            continue
        if condition is None:
            rows.append(row_to_obj(tup, condition=effective))
            continue
        if condition is FALSE:
            continue
        verdict = solver.sat_verdict(conjoin([effective, condition]))
        if verdict is Verdict.UNSAT:
            continue
        unknown = verdict is Verdict.UNKNOWN
        if unknown:
            status = "INCONCLUSIVE"
        rows.append(row_to_obj(tup, unknown=unknown, condition=effective))
    total = len(rows)
    truncated = limit is not None and total > limit
    if truncated:
        rows = rows[:limit]
    response = {
        "ok": True,
        "epoch": snapshot.epoch,
        "seq": snapshot.seq,
        "relation": relation,
        "schema": list(view.schema),
        "status": status,
        "rows": rows,
        "total": total,
    }
    if truncated:
        response["truncated"] = True
    return response


def update(values, condition=None, removable=False):
    return UpdateEntry(
        kind="insert",
        relation="F",
        values=tuple(values),
        condition=condition,
        guard="" if removable else None,
    )


def withdraw(guard):
    return UpdateEntry(kind="withdraw", relation="", values=(), guard=guard)


#: Plain, conditional and removable inserts plus withdrawals; the
#: sequence numbers fix the guard names (``__g3``, ``__g5``, ``__g7``).
STREAM = [
    update(("p1", "C", "D")),
    update(("p2", "E", "G"), condition="$up == 1"),
    update(("p1", "D", "E"), removable=True),
    update(("p3", "A", "B"), condition="$v == 1"),
    update(("p2", "G", "H"), removable=True),
    update(("p3", "B", "C")),
    update(("p3", "C", "D"), condition="$v == 0", removable=True),
    withdraw("__g3"),
    update(("p1", "E", "F"), condition="$up == 0"),
    withdraw("__g7"),
    update(("p2", "H", "A"), condition="$up != 0"),
    # An EDB row is stored as given: this one holds in no world.
    update(("p4", "X", "Y"), condition="$up != 0 AND $up != 1"),
]

FILTERS = [
    None,
    "$v == 1",  # a variable absent from most rows
    "$v == 2",
    "$up == 1",  # a variable present in some rows
    "$up == 0",
    "$up == 1 AND $v == 1",
    "$__g3 == 1",  # a withdrawn guard: folds to FALSE
    "$__g3 == 0",  # ... or to TRUE
    "$__g5 == 1",  # a live guard
    "$__g5 == 0",
    "$up == 1 AND $up == 0",  # contradictory
    "$up != 0 AND $up != 1",  # contradictory only over the boolean domain
]

LIMITS = [None, 0, 1, 1000]


def built(make_state, budgets=None):
    state = make_state(budgets=budgets)
    for entry in STREAM:
        assert state.submit(entry)["ok"]
    assert state.epochs.current().assignments  # withdrawals recorded
    return state


@pytest.mark.parametrize("where", FILTERS)
def test_query_matches_the_row_loop_oracle(make_state, where):
    state = built(make_state)
    for relation in ("R", "F"):
        for limit in LIMITS:
            expected = oracle_query(state, relation, where, limit)
            # Twice: the second answer comes off a warm query memo.
            assert state.query(relation, where=where, limit=limit) == expected
            assert state.query(relation, where=where, limit=limit) == expected


def test_oracle_stream_covers_every_kind_of_row(make_state):
    """The stream leaves rows for each case the filters distinguish."""
    state = built(make_state)
    rendered = json.dumps(state.query("R")["rows"])
    assert '"up"' in rendered and '"v"' in rendered and '"__g5"' in rendered
    assert '"__g3"' not in rendered  # withdrawn guards are substituted away
    assert any("condition" not in row for row in state.query("R")["rows"])
    assert state.query("R", where="$up == 1 AND $up == 0")["total"] == 0
    assert state.query("R", limit=1)["total"] > 1


def unflagged(row):
    return json.dumps({k: v for k, v in row.items() if k != "unknown"}, sort_keys=True)


@pytest.mark.parametrize("where", [w for w in FILTERS if w is not None])
def test_zero_budget_query_is_sound(make_state, where):
    state = built(make_state, budgets=ServeBudgets(solver_call_budget=0))
    for relation in ("R", "F"):
        expected = oracle_query(state, relation, where)
        answer = state.query(relation, where=where)
        assert answer["total"] == len(answer["rows"])
        returned = {unflagged(row): row for row in answer["rows"]}
        oracle_rows = {unflagged(row) for row in expected["rows"]}
        assert oracle_rows <= set(returned)  # no row of the oracle dropped
        for key, row in returned.items():
            if key not in oracle_rows:
                assert row.get("unknown") is True  # undecided, so flagged
        flagged = any(row.get("unknown") for row in answer["rows"])
        assert answer["status"] == ("INCONCLUSIVE" if flagged else "OK")
