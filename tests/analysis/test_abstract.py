"""The sound interval+equality abstract domain."""

import pytest

from repro.ctable.condition import (
    FALSE,
    TRUE,
    Comparison,
    LinearAtom,
    conjoin,
    disjoin,
    eq,
    le,
    lt,
    ne,
)
from repro.ctable.terms import Constant, CVariable, Variable, cvar
from repro.solver.atoms import (
    AbstractResult,
    abstract_sat,
    prove_unsat,
    prove_valid,
)

x, y, z = cvar("x"), cvar("y"), cvar("z")


def gt(a, b):
    return Comparison(a, ">", b).constant_fold()


def ge(a, b):
    return Comparison(a, ">=", b).constant_fold()


class TestProveUnsat:
    def test_empty_interval(self):
        assert prove_unsat(conjoin([lt(x, 5), gt(x, 10)]))

    def test_eq_neq_same_constant(self):
        assert prove_unsat(conjoin([eq(x, 1), ne(x, 1)]))

    def test_two_different_pins(self):
        assert prove_unsat(conjoin([eq(x, 1), eq(x, 2)]))

    def test_equality_chain_with_disequality(self):
        assert prove_unsat(conjoin([eq(x, y), eq(y, z), ne(x, z)]))

    def test_pinned_classes_merged_unequal(self):
        assert prove_unsat(conjoin([eq(x, 1), eq(y, 2), eq(x, y)]))

    def test_pinned_classes_order_violation(self):
        assert prove_unsat(conjoin([eq(x, 5), eq(y, 3), lt(x, y)]))

    def test_strict_cycle(self):
        assert prove_unsat(conjoin([lt(x, y), lt(y, z), lt(z, x)]))

    def test_strict_cycle_with_weak_edges(self):
        assert prove_unsat(conjoin([lt(x, y), le(y, z), le(z, x)]))

    def test_strict_self_after_merge(self):
        assert prove_unsat(conjoin([eq(x, y), lt(x, y)]))

    def test_linear_pooled(self):
        a = LinearAtom([x, y], "=", 1)
        b = LinearAtom([x, y], "=", 2)
        assert prove_unsat(conjoin([a, b]))

    def test_linear_interval(self):
        a = LinearAtom([x, y], "<", 1)
        b = LinearAtom([x, y], ">", 2)
        assert prove_unsat(conjoin([a, b]))

    def test_case_split_over_disjunction(self):
        cond = conjoin([disjoin([lt(x, 0), gt(x, 10)]), eq(x, 5)])
        assert prove_unsat(cond)

    def test_disjunction_all_arms_unsat(self):
        arm1 = conjoin([lt(x, 0), gt(x, 1)])
        arm2 = conjoin([eq(y, 1), ne(y, 1)])
        assert prove_unsat(disjoin([arm1, arm2]))

    def test_program_variables_count_too(self):
        v = Variable("n")
        assert prove_unsat(conjoin([eq(v, 1), ne(v, 1)]))

    def test_constant_left_orientation(self):
        # Both construction orders must land in the same abstract facts.
        a = Comparison(Constant(1), "=", Variable("n"))
        b = Comparison(Variable("n"), "!=", Constant(1))
        assert prove_unsat(conjoin([a, b]))

    def test_false_literal(self):
        assert prove_unsat(FALSE)


class TestProveUnsatNegative:
    """Satisfiable (or undecided) conditions must never be reported."""

    def test_satisfiable_interval(self):
        assert not prove_unsat(conjoin([gt(x, 1), lt(x, 5)]))

    def test_plain_disequality(self):
        assert not prove_unsat(ne(x, y))

    def test_tight_but_nonempty(self):
        assert not prove_unsat(conjoin([ge(x, 5), le(x, 5)]))

    def test_order_chain_without_cycle(self):
        assert not prove_unsat(conjoin([lt(x, y), lt(y, z)]))

    def test_sat_disjunction_arm(self):
        cond = conjoin([disjoin([lt(x, 0), gt(x, 10)]), eq(x, 20)])
        assert not prove_unsat(cond)

    def test_true_literal(self):
        assert not prove_unsat(TRUE)


class TestProveValid:
    def test_excluded_middle(self):
        assert prove_valid(disjoin([lt(x, 5), ge(x, 5)]))

    def test_eq_or_neq(self):
        assert prove_valid(disjoin([eq(x, y), ne(x, y)]))

    def test_reflexive_equality(self):
        assert prove_valid(eq(x, x))

    def test_not_valid_single_bound(self):
        assert not prove_valid(lt(x, 5))

    def test_not_valid_disjunction_with_gap(self):
        # x < 5 ∨ x > 5 misses x = 5.
        assert not prove_valid(disjoin([lt(x, 5), gt(x, 5)]))

    def test_true_literal(self):
        assert prove_valid(TRUE)


class TestAbstractSat:
    def test_classification(self):
        assert abstract_sat(conjoin([eq(x, 1), ne(x, 1)])) is AbstractResult.UNSAT
        assert abstract_sat(disjoin([eq(x, 1), ne(x, 1)])) is AbstractResult.VALID
        assert abstract_sat(eq(x, 1)) is AbstractResult.UNKNOWN

    def test_budget_degrades_to_unknown_not_crash(self):
        # 2^10 case splits blow the budget; the verdict must degrade.
        arms = [
            disjoin([eq(cvar(f"v{i}"), 0), eq(cvar(f"v{i}"), 1)]) for i in range(10)
        ]
        contradiction = conjoin([eq(x, 1), ne(x, 1)])
        cond = conjoin(arms + [contradiction])
        # Still UNSAT: the flat contradiction is found without splitting.
        assert prove_unsat(cond)
        # A contradiction hidden behind the splits is abandoned soundly.
        hidden = conjoin(
            [disjoin([conjoin([eq(cvar(f"w{i}"), 0), ne(cvar(f"w{i}"), 0)])] * 2)
             for i in range(10)]
        )
        assert isinstance(prove_unsat(hidden), bool)
