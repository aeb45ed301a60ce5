"""Differential soundness: the abstract domain vs the real solver.

The abstraction's contract is one-sided — it may say UNKNOWN wherever
it likes, but whenever it *claims* a proof the NP-complete solver must
agree:

* ``prove_unsat(c)``  ⇒  ``not solver.is_satisfiable(c)``
* ``prove_valid(c)``  ⇒  ``solver.is_valid(c)``

Checked over a seeded generator of structured random conditions and
over every condition produced by the §6 RIB forwarding workload.
Zero false positives, by assertion.
"""

import random

import pytest

from repro.solver.atoms import prove_unsat, prove_valid
from repro.ctable.condition import (
    Comparison,
    LinearAtom,
    Not,
    conjoin,
    disjoin,
)
from repro.ctable.terms import Constant, cvar
from repro.solver.domains import DomainMap, Unbounded
from repro.solver.interface import ConditionSolver


def make_solver():
    return DomainMap(default=Unbounded("any")), ConditionSolver(
        DomainMap(default=Unbounded("any"))
    )


VARS = [cvar(n) for n in "abcd"]
CONSTS = [Constant(v) for v in (0, 1, 2, 5, 10)]
OPS = ["=", "!=", "<", "<=", ">", ">="]


def random_atom(rng):
    kind = rng.random()
    if kind < 0.6:
        return Comparison(rng.choice(VARS), rng.choice(OPS), rng.choice(CONSTS))
    if kind < 0.85:
        a, b = rng.sample(VARS, 2)
        return Comparison(a, rng.choice(OPS), b)
    coeffs = rng.sample(VARS, rng.randint(1, 3))
    return LinearAtom(coeffs, rng.choice(OPS), rng.randint(0, 5))


def random_condition(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return random_atom(rng)
    combine = conjoin if rng.random() < 0.6 else disjoin
    children = [random_condition(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    cond = combine(children)
    if rng.random() < 0.2:
        cond = Not(cond) if not isinstance(cond, (Comparison, LinearAtom)) else cond.negate()
    return cond


class TestGeneratedConditions:
    def test_no_false_positives(self):
        rng = random.Random(20210610)
        _, solver = make_solver()
        proved_unsat = proved_valid = 0
        for _ in range(400):
            cond = random_condition(rng)
            if prove_unsat(cond):
                proved_unsat += 1
                assert not solver.is_satisfiable(cond), f"false UNSAT: {cond}"
            if prove_valid(cond):
                proved_valid += 1
                assert solver.is_valid(cond), f"false VALID: {cond}"
        # The generator must actually exercise both claims.
        assert proved_unsat > 0, "generator produced no provable contradictions"
        assert proved_valid > 0, "generator produced no provable tautologies"

    def test_seeded_contradictions_all_proved_and_agreed(self):
        rng = random.Random(7)
        _, solver = make_solver()
        for _ in range(50):
            base = random_atom(rng)
            cond = conjoin([base, base.negate()])
            assert prove_unsat(cond), f"missed planted contradiction: {cond}"
            assert not solver.is_satisfiable(cond)

    def test_seeded_tautologies_all_proved_and_agreed(self):
        rng = random.Random(11)
        _, solver = make_solver()
        for _ in range(50):
            base = random_atom(rng)
            cond = disjoin([base, base.negate()])
            assert prove_valid(cond), f"missed planted tautology: {cond}"
            assert solver.is_valid(cond)


class TestRibWorkloadConditions:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.network.forwarding import compile_forwarding
        from repro.workloads.ribgen import RibConfig, generate_rib

        routes = generate_rib(
            RibConfig(prefixes=15, paths_per_prefix=4, as_count=40, seed=20210610)
        )
        return compile_forwarding(routes)

    def test_no_false_positives_on_rib_conditions(self, compiled):
        solver = ConditionSolver(compiled.domains)
        conditions = [row.condition for row in compiled.table]
        assert conditions, "workload produced no conditional tuples"
        checked = 0
        for cond in conditions:
            if prove_unsat(cond):
                assert not solver.is_satisfiable(cond), f"false UNSAT: {cond}"
            if prove_valid(cond):
                assert solver.is_valid(cond), f"false VALID: {cond}"
            checked += 1
        assert checked == len(conditions)

    def test_pairwise_conjunctions(self, compiled):
        # Conjunctions of per-prefix route conditions are exactly what
        # the reachability join builds; excluded routes of the same
        # prefix contradict, and the abstraction's claims must agree
        # with the solver on every pair.
        solver = ConditionSolver(compiled.domains)
        conditions = [row.condition for row in compiled.table][:20]
        for i, a in enumerate(conditions):
            for b in conditions[i + 1:]:
                cond = conjoin([a, b])
                if prove_unsat(cond):
                    assert not solver.is_satisfiable(cond)
