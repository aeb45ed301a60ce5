"""Differential tests: fauré answers vs. the world-enumeration oracle.

Three regimes per representative program, on the native evaluator; the
SQL-compiled and incremental paths run the first regime too, and the
incremental path the fault-injection one:

* **memo on** (a fresh shared table) — the default pipeline setup;
* **memo off** (``memo=None``) — the ``--no-memo`` escape hatch; the
  rendered answers must be *byte-identical* to the memoized run;
* **fault injection** — ≥30% of governed solver calls raise, the
  governor degrades them to UNKNOWN, and the (less simplified) answer
  must still match ground truth in every world, with memoization both
  on and off.
"""

import pytest

from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.solver.memo import MemoTable

from .oracle import (
    CASES,
    PATHS,
    assert_matches_worlds,
    render_result,
    run_faure,
    run_incremental,
)


@pytest.fixture(params=CASES, ids=[c.name for c in CASES])
def case(request):
    return request.param


def test_memo_on_matches_every_world(case):
    result = run_faure(case, memo=MemoTable())
    worlds = assert_matches_worlds(case, result)
    assert worlds > 1  # the database really is uncertain


@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_matches_every_world(case, path):
    result = PATHS[path](case, memo=MemoTable())
    assert_matches_worlds(case, result)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_insertion_order_matches_every_world(case, seed):
    """Only world-equivalence is promised across insertion orders."""
    assert_matches_worlds(case, run_incremental(case, memo=None, seed=seed))


def test_memo_off_matches_every_world(case):
    result = run_faure(case, memo=None)
    assert_matches_worlds(case, result)


def test_memo_on_off_byte_identical(case):
    with_memo = run_faure(case, memo=MemoTable())
    without = run_faure(case, memo=None)
    assert render_result(with_memo, case.outputs) == render_result(
        without, case.outputs
    )


MEMO_FACTORIES = pytest.mark.parametrize(
    "memo_factory", [MemoTable, lambda: None], ids=["memo", "no-memo"]
)


def _assert_fault_regime_matches_every_world(run, case, memo):
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector)
    governor.start()
    result = run(case, memo=memo, governor=governor)
    assert_matches_worlds(case, result)
    assert injector.calls > 0, "fault plan never exercised"
    ratio = injector.total_injected / injector.calls
    assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"


@MEMO_FACTORIES
def test_fault_injection_matches_every_world(case, memo_factory):
    """≥30% injected faults: degraded answers keep per-world semantics."""
    _assert_fault_regime_matches_every_world(run_faure, case, memo_factory())


@MEMO_FACTORIES
def test_incremental_fault_injection_matches_every_world(case, memo_factory):
    """The incremental path under the same fault plan: a maintained state
    degrades to UNKNOWN (kept rows), never stops part-way."""
    _assert_fault_regime_matches_every_world(run_incremental, case, memo_factory())


def _run_optimized(case, governor=None):
    """Evaluate with the ``--optimize`` pipeline: narrowed solver,
    precheck, deactivated rules (no slicing — every output is compared)."""
    from repro.analysis.optimize import optimize_program
    from repro.faurelog.evaluation import FaureEvaluator
    from repro.solver.interface import ConditionSolver

    opt = optimize_program(case.program, case.database, case.domains)
    solver = ConditionSolver(opt.narrowed, governor=governor, memo=None)
    evaluator = FaureEvaluator(
        case.database,
        solver=solver,
        governor=governor,
        precheck=opt.precheck_for(governor),
        inactive_rules=opt.inactive_for(governor),
    )
    return evaluator.evaluate(opt.sliced)


def test_optimizer_on_off_byte_identical(case):
    baseline = run_faure(case, memo=None)
    optimized = _run_optimized(case)
    assert render_result(optimized, case.outputs) == render_result(
        baseline, case.outputs
    )


def test_optimizer_fault_injection_byte_identical(case):
    """Under ≥30% injected faults the optimizer's sequence-changing
    transformations stand down and the rendered bytes still match."""

    def faulted():
        injector = FaultInjector(FaultPlan(timeout_every=2))
        governor = Governor(on_budget="degrade", injector=injector)
        governor.start()
        return governor, injector

    gov_plain, _ = faulted()
    baseline = run_faure(case, memo=None, governor=gov_plain)
    gov_opt, injector = faulted()
    optimized = _run_optimized(case, governor=gov_opt)
    assert render_result(optimized, case.outputs) == render_result(
        baseline, case.outputs
    )
    assert injector.calls > 0, "fault plan never exercised"
    ratio = injector.total_injected / injector.calls
    assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"
