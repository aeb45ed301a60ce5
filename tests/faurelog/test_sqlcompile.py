"""The fauré-log → SQL compilation path (the paper's §6 architecture)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctable.condition import TRUE, conjoin, disjoin, eq, ne
from repro.ctable.table import CTable, Database
from repro.ctable.terms import Constant, CVariable
from repro.faurelog.ast import ProgramError
from repro.faurelog.evaluation import FaureEvaluator, evaluate
from repro.faurelog.parser import parse_program
from repro.faurelog.sqlcompile import SqlProgramEvaluator, compile_rule
from repro.solver.domains import DomainMap, FiniteDomain
from repro.solver.interface import ConditionSolver

X, Y = CVariable("x"), CVariable("y")
DOMAINS = DomainMap({X: FiniteDomain([0, 1]), Y: FiniteDomain([0, 1, 2])})


@pytest.fixture
def solver():
    return ConditionSolver(DOMAINS)


@pytest.fixture
def db():
    database = Database()
    e = database.create_table("E", ["a", "b"])
    e.add([1, 2])
    e.add([2, 3], eq(X, 1))
    e.add([Y, 4])
    a = database.create_table("A", ["k"])
    a.add([2])
    a.add([4])
    return database


def data_and_worlds(table, solver):
    """Semantic fingerprint: per data part, the satisfying world set."""
    from repro.solver.enumerate import iter_models
    from repro.ctable.condition import disjoin as dj

    grouped = {}
    for tup in table:
        grouped.setdefault(tup.data_key(), []).append(tup.condition)
    out = {}
    for key, conds in grouped.items():
        combined = dj(conds)
        cvars = sorted(set().union(*[c.cvariables() for c in conds]) | {X, Y},
                       key=lambda v: v.name)
        worlds = frozenset(
            tuple(sorted((v.name, m[v].value) for v in cvars))
            for m in iter_models(combined, DOMAINS, variables=cvars)
        )
        out[key] = worlds
    return out


PROGRAMS = [
    "Out(a, b) :- E(a, b).",
    "Out(b) :- E(1, b).",
    "Out(a, b) :- E(a, b), A(b).",
    "Out(a, b) :- E(a, b), a != 1.",
    "Out(a, c) :- E(a, b), E(b, c).",
    "Out($u, $v) :- E($u, $v), $u != 2.",
    "Out(a, b) :- E(a, b). Out(a, b) :- E(a, c), Out(c, b).",
    "Out(k, k) :- A(k).",
    "Mid(b) :- E(1, b). Out(c) :- Mid(b), E(b, c).",
    # stratified negation through the AntiJoin operator
    "Out(a, b) :- E(a, b), not A(b).",
    "Out(a) :- A(a), not E(a, 4).",
    "Out(a) :- A(a), not Mid(a). Mid(b) :- E(1, b).",
]


@pytest.mark.parametrize("text", PROGRAMS)
def test_sql_path_matches_native(db, solver, text):
    program = parse_program(text)
    native = evaluate(program, db, solver=solver).table("Out")
    sql_result = SqlProgramEvaluator(db, solver=solver).evaluate(program).table("Out")
    assert data_and_worlds(sql_result, solver) == data_and_worlds(native, solver)


class TestCompileRule:
    def test_plan_is_explainable(self, db):
        from repro.engine.explain import explain

        program = parse_program("Out(a, c) :- E(a, b), E(b, c), a != 3.")
        plan = compile_rule(program.rules[0], db)
        text = explain(plan, db)
        assert "Scan E" in text and "SelectWhere" in text and "Project" in text

    def test_negation_compiles_to_antijoin(self, db):
        from repro.engine.explain import explain

        program = parse_program("Out(a) :- A(a), not E(a, a).")
        plan = compile_rule(program.rules[0], db)
        assert "AntiJoin" in explain(plan, db)

    def test_annotated_negation_rejected(self, db):
        program = parse_program("Out(a) :- A(a), not E(a, a)[a != 1].")
        with pytest.raises(ProgramError):
            compile_rule(program.rules[0], db)

    def test_fact_rejected(self, db):
        program = parse_program("Out(1).")
        with pytest.raises(ProgramError):
            compile_rule(program.rules[0], db)


class TestProgramEvaluator:
    def test_facts_materialize(self, db, solver):
        program = parse_program("Out(9, 9). Out(a, b) :- E(a, b).")
        result = SqlProgramEvaluator(db, solver=solver).evaluate(program)
        assert (Constant(9), Constant(9)) in result.table("Out").data_parts()

    def test_global_cvariable_in_head(self, db, solver):
        program = parse_program("Out(k, $g) :- A(k).")
        result = SqlProgramEvaluator(db, solver=solver).evaluate(program)
        assert all(t.values[1] == CVariable("g") for t in result.table("Out"))

    def test_shadowing_rejected(self, db, solver):
        program = parse_program("E(a, b) :- A(a), A(b).")
        with pytest.raises(ProgramError):
            SqlProgramEvaluator(db, solver=solver).evaluate(program)

    def test_max_iterations(self, db, solver):
        """One meaning on both paths: the semi-naive rounds allowed after
        the round that fires every rule on the full database."""
        program = parse_program(
            "Out(a, b) :- E(a, b). Out(a, b) :- E(a, c), Out(c, b)."
        )
        for evaluator in (FaureEvaluator, SqlProgramEvaluator):
            with pytest.raises(ProgramError):
                evaluator(db, solver=solver, max_iterations=0).evaluate(program)
            evaluator(db, solver=solver, max_iterations=1).evaluate(program)

    def test_stats_collected(self, db, solver):
        program = parse_program("Out(a, b) :- E(a, b).")
        evaluator = SqlProgramEvaluator(db, solver=solver)
        evaluator.evaluate(program)
        assert evaluator.stats.tuples_generated >= 3
