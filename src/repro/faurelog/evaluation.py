"""Stratified (semi-naive) fixpoint evaluation of fauré-log programs.

Evaluation follows the paper's recipe: the classic datalog fixpoint, with
the c-valuation of :mod:`repro.faurelog.valuation` in place of plain
variable valuation, stratification for negation, and the solver in two
roles —

* **pruning** (the paper's step 3): derived tuples whose conditions are
  unsatisfiable are dropped;
* **condition-aware dedup**: a derived tuple is *new* only when its
  condition is not implied by the disjunction of the conditions already
  recorded for the same data part.  This is what makes recursion over
  c-tables terminate: once the recorded conditions cover all worlds in
  which a fact holds, further derivations stop contributing.

:class:`FaureEvaluator` holds the project's one fixpoint loop: one
semi-naive round loop and one insert policy (:class:`_ConditionIndex`)
behind every evaluation path.  Only the rule-firing step varies — the
c-valuation join search here, or the SQL-compiled plans of
:class:`~repro.faurelog.sqlcompile.SqlProgramEvaluator` — and
incremental maintenance (:class:`~repro.faurelog.incremental.
IncrementalEvaluator`) is the same round loop seeded with a delta
(:meth:`FaureEvaluator.propagate`).

Time spent in the solver is charged to ``stats.solver_seconds``; the
remainder of the evaluation wall time is the "sql" bucket, giving the
same split Table 4 reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis imports ast)
    from ..analysis.optimize import ConditionPrecheck

from ..ctable.condition import Condition, FalseCond, TRUE, disjoin
from ..ctable.table import CTable, Database
from ..ctable.terms import Term
from ..engine.stats import EvalStats, phase_clock
from ..engine.storage import IndexedTable, Storage
from ..robustness.errors import BudgetExceeded
from ..robustness.governor import Governor
from ..robustness.verdict import Trivalent, Verdict
from ..solver.interface import ConditionSolver
from .ast import Program, ProgramError, Rule
from .stratify import stratify
from .valuation import build_head, derive

__all__ = ["FaureEvaluator", "evaluate"]


class _ConditionIndex:
    """Per-relation map: data part → conditions recorded so far.

    The dedup half of the one insert policy (:meth:`FaureEvaluator.
    _insert`) that every evaluation path shares.  Alongside each
    recorded (original) condition, the *canonical* form is kept (when
    the solver memoizes), so a re-derived condition that is semantically
    equal but syntactically different — reordered conjuncts, un-folded
    constants — is recognised by a lookup instead of a solver
    implication call.  Recorded originals are what end up in the result
    table, so output stays byte-identical with memoization on or off.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Tuple[Term, ...], List[Condition]] = {}
        self._canon_by_key: Dict[Tuple[Term, ...], List[Condition]] = {}
        # Cache of disjoin(existing) per key, invalidated on record():
        # is_new is called once per derived tuple, so rebuilding the
        # disjunction each time dominates dedup cost on wide keys.
        self._disjoined: Dict[Tuple[Term, ...], Condition] = {}

    def is_new(
        self,
        key: Tuple[Term, ...],
        condition: Condition,
        solver: Optional[ConditionSolver],
        precheck: Optional["ConditionPrecheck"] = None,
        stats: Optional[EvalStats] = None,
    ) -> bool:
        existing = self._by_key.get(key)
        if existing is None:
            return True
        if condition in existing:
            return False
        if any(e is TRUE for e in existing):
            return False
        if solver is None:
            return True
        # Canonical membership: equivalent-by-rewriting conditions skip
        # the implication solver entirely (sound — the solver's verdict
        # for them is necessarily TRUE).
        if solver.memo is not None and solver.canonical(condition) in self._canon_by_key.get(key, ()):
            return False
        # Three-valued dedup: only a *definite* "implied by what's
        # recorded" may skip the insert.  UNKNOWN (budget exhausted)
        # treats the tuple as new — recording a redundant condition is
        # sound (possible worlds are unchanged), dropping a novel one
        # would lose worlds.
        disjoined = self._disjoined.get(key)
        if disjoined is None:
            disjoined = disjoin(existing)
            self._disjoined[key] = disjoined
        if precheck is not None:
            # The static classifier's entailment semi-decision is one-sided
            # and provably agrees with the solver: True ⇒ the solver's
            # verdict is TRUE (drop), False ⇒ it is FALSE (record).  Only
            # None falls through to a (budgeted, counted) solver call.
            hint = precheck.implies_hint(condition, disjoined)
            if hint is not None:
                if stats is not None:
                    stats.extra["static_implies_hits"] = (
                        stats.extra.get("static_implies_hits", 0) + 1
                    )
                return not hint
        return solver.implies_verdict(condition, disjoined) is not Trivalent.TRUE

    def record(
        self,
        key: Tuple[Term, ...],
        condition: Condition,
        solver: Optional[ConditionSolver] = None,
    ) -> None:
        self._by_key.setdefault(key, []).append(condition)
        self._disjoined.pop(key, None)
        if solver is not None and solver.memo is not None:
            # A list, not a set: most keys hold one condition, and the
            # scan is no longer than the ``condition in existing`` one.
            self._canon_by_key.setdefault(key, []).append(solver.canonical(condition))


class FaureEvaluator:
    """Evaluates fauré-log programs over a c-table database.

    Parameters
    ----------
    database:
        The EDB: stored c-tables the program's body may reference.
    solver:
        Condition solver used for pruning and dedup.  ``None`` disables
        both (an ablation mode; recursion may then fail to terminate on
        cyclic inputs).
    max_iterations:
        Safety valve for the fixpoint loop: the number of semi-naive
        rounds allowed per stratum after the round that fires every rule
        on the full database; exceeding it raises :class:`ProgramError`.
        ``None`` means unbounded.
    prune:
        When False, unsatisfiable-condition tuples are kept (ablation of
        the paper's step 3); dedup still uses the solver if present.
    governor:
        Resource governor for the fixpoint loop; defaults to the
        solver's own governor.  Under ``degrade`` policy a mid-iteration
        :class:`BudgetExceeded` stops the loop cleanly: the evaluator
        returns what was derived so far, sets :attr:`partial`, and
        counts the event in ``stats.partial_results`` (a partial
        fixpoint under-approximates, so downstream verdicts report
        inconclusive rather than "holds").  Clear :attr:`interruptible`
        to rule that out: an evaluator that maintains a resident state must
        never stop part-way, so a budget may then only turn verdicts
        into UNKNOWN, and those tuples are kept.
    """

    def __init__(
        self,
        database: Database,
        solver: Optional[ConditionSolver] = None,
        max_iterations: Optional[int] = None,
        prune: bool = True,
        storage: Optional[Storage] = None,
        record_provenance: bool = False,
        governor: Optional[Governor] = None,
        precheck: Optional["ConditionPrecheck"] = None,
        inactive_rules: Optional[Iterable[int]] = None,
    ):
        self.database = database
        self.solver = solver
        self.max_iterations = max_iterations
        self.prune = prune and solver is not None
        self.stats = EvalStats()
        self.record_provenance = record_provenance
        self.governor = governor if governor is not None else (
            solver.governor if solver is not None else None
        )
        #: Static optimizer hooks (``--optimize``): a solver-free
        #: precheck for per-tuple sat/entailment, and rule indices the
        #: optimizer proved can never contribute (kept in the program so
        #: their head tables still materialize empty).  Both change the
        #: solver *call sequence*, so they stand down when the governor
        #: carries an armed fault injector — deterministic chaos
        #: schedules are call-indexed and must see the original sequence.
        self.precheck = precheck
        self.inactive_rules: FrozenSet[int] = frozenset(inactive_rules or ())
        if self.governor is not None and self.governor.injector is not None:
            self.precheck = None
            self.inactive_rules = frozenset()
        #: True when the last evaluation was cut short by a budget.
        self.partial = False
        #: False: never stop the fixpoint at a blown deadline.
        self.interruptible = True
        #: Per-IDB-predicate subsumption index of the last evaluation.
        self._indexes: Dict[str, _ConditionIndex] = {}
        #: (predicate, data part, condition, rule label) per derived tuple,
        #: in derivation order — populated when record_provenance is set.
        self.provenance: List[Tuple[str, Tuple[Term, ...], Condition, Optional[str]]] = []
        if storage is not None and storage.db is not database:
            raise ValueError("storage must wrap the same database")
        self._storage = storage

    # -- solver accounting ---------------------------------------------------

    def _timed_sat_verdict(self, condition: Condition) -> Verdict:
        start = phase_clock()
        try:
            return self.solver.sat_verdict(condition)
        finally:
            self.stats.solver_seconds += phase_clock() - start

    def _keep(self, condition: Condition) -> bool:
        if isinstance(condition, FalseCond):
            self.stats.tuples_pruned += 1
            return False
        if not self.prune:
            return True
        if self.precheck is not None:
            # Statically classified conditions skip the solver: True ⇒
            # the solver would answer SAT (keep), False ⇒ UNSAT (prune).
            hint = self.precheck.sat_hint(condition)
            if hint is False:
                self.stats.tuples_pruned += 1
                self.stats.extra["static_unsat_hits"] = (
                    self.stats.extra.get("static_unsat_hits", 0) + 1
                )
                return False
            if hint is True:
                self.stats.extra["static_sat_hits"] = (
                    self.stats.extra.get("static_sat_hits", 0) + 1
                )
                return True
        verdict = self._timed_sat_verdict(condition)
        if verdict is Verdict.UNSAT:
            self.stats.tuples_pruned += 1
            return False
        if verdict is Verdict.UNKNOWN:
            # Keep-on-UNKNOWN: sound, the table is merely less simplified.
            self.stats.unknown_kept += 1
        return True

    # -- main entry ---------------------------------------------------------------

    def evaluate(self, program: Program) -> Database:
        """Run the program to fixpoint; returns the IDB as a database.

        The result database contains one c-table per IDB predicate
        (empty predicates yield empty tables when their arity is known).
        """
        wall_start = phase_clock()
        solver_before = self.stats.solver_seconds
        self.partial = False
        if self.governor is not None:
            self.governor.ensure_started()
        try:
            result = self._evaluate_inner(program)
        finally:
            wall = phase_clock() - wall_start
            solver_delta = self.stats.solver_seconds - solver_before
            self.stats.sql_seconds += max(0.0, wall - solver_delta)
        return result

    def _evaluate_inner(self, program: Program) -> Database:
        edb_names = set(self.database.names())
        idb = program.idb_predicates()
        clash = idb & edb_names
        if clash:
            raise ProgramError(
                f"IDB predicates shadow stored tables: {sorted(clash)}"
            )

        # Working storage: EDB tables plus IDB tables as they are built.
        # A caller-supplied storage lets repeated evaluations over the
        # same database reuse its (lazily built) indexes.
        working = self._storage if self._storage is not None else Storage(self.database)
        self._indexes = {}
        tables: Dict[str, CTable] = {}
        try:
            for predicate in idb:
                arity = program.arity_of(predicate)
                if arity is not None:
                    table = CTable(predicate, [f"c{i}" for i in range(arity)])
                    tables[predicate] = table
                    self._indexes[predicate] = _ConditionIndex()
                    self.database.add_table(table)  # visible to body matching

            for stratum in stratify(program):
                self._run_stratum(program, stratum, working)
        except BudgetExceeded:
            # Mid-iteration exhaustion: in degrade mode terminate with a
            # flagged partial result (the finally below restores the EDB
            # either way, so no state is corrupted); otherwise propagate.
            if self.governor is None or not self.governor.degrade:
                raise
            self.partial = True
            self.stats.partial_results += 1
        finally:
            for name in tables:
                self.database.drop_table(name)
                working.invalidate(name)
        return Database(tables.values())

    def adopt(self, idb: Database) -> None:
        """Index an IDB this evaluator did not derive (a restored snapshot).

        Rows are recorded in table order, which is the order an
        :meth:`evaluate` run recorded them in, so later
        :meth:`propagate` calls make the same decisions they would
        have made on the original state.
        """
        self._indexes = {}
        for table in idb:
            index = self._indexes[table.name] = _ConditionIndex()
            for tup in table:
                index.record(tup.values, tup.condition, self.solver)

    def propagate(
        self, program: Program, working: Storage, delta: Dict[str, CTable]
    ) -> int:
        """Semi-naive rounds over ``working`` seeded with ``delta``.

        The incremental entry point: ``working`` holds the EDB and the
        IDB this evaluator last produced (via :meth:`evaluate` or
        :meth:`adopt`), the delta rows are already stored in it, and
        every rule of the program that reads a delta predicate fires
        until nothing new is derived.  Returns the number of new IDB
        tuples.
        """
        before = self.stats.tuples_generated
        self._rounds(self._active_rules(program), working, delta)
        return self.stats.tuples_generated - before

    # -- stratum fixpoint -------------------------------------------------------

    def _active_rules(
        self, program: Program, stratum: Optional[FrozenSet[str]] = None
    ) -> List[Rule]:
        return [
            rule
            for index, rule in enumerate(program)
            if (stratum is None or rule.head.predicate in stratum)
            and index not in self.inactive_rules
        ]

    def _check_deadline(self) -> None:
        # Cooperative cancellation point: a blown deadline stops the
        # fixpoint between rules or rounds, never mid-insert, so tables
        # stay internally consistent.
        if self.interruptible and self.governor is not None:
            self.governor.check_deadline()

    def _run_stratum(
        self, program: Program, stratum: FrozenSet[str], working: Storage
    ) -> None:
        rules = self._active_rules(program, stratum)
        # Round 0: fire every rule on the full database.
        delta: Dict[str, CTable] = {}
        for rule in rules:
            self._check_deadline()
            for values, condition in self._fire(rule, working):
                self._insert(rule, values, condition, working, delta)
        self.stats.iterations += 1
        self._rounds(rules, working, delta)

    def _rounds(
        self, rules: List[Rule], working: Storage, delta: Dict[str, CTable]
    ) -> None:
        """Semi-naive rounds: re-fire only the rules that read a delta
        predicate, once per positive literal bound to the delta.

        ``max_iterations`` bounds the number of these rounds (the round
        that fires every rule on the full database is not counted).
        """
        readers = [
            (rule, [literal.predicate for literal in rule.positive_literals()])
            for rule in rules
        ]
        iteration = 1
        while delta:
            self._check_deadline()
            if self.max_iterations is not None and iteration > self.max_iterations:
                raise ProgramError(
                    f"fixpoint exceeded {self.max_iterations} iterations"
                )
            delta_indexed = {name: IndexedTable(table) for name, table in delta.items()}
            next_delta: Dict[str, CTable] = {}
            for rule, predicates in readers:
                for position, predicate in enumerate(predicates):
                    if predicate not in delta_indexed:
                        continue
                    for values, condition in self._fire(
                        rule, working, delta_indexed, position
                    ):
                        self._insert(rule, values, condition, working, next_delta)
            delta = next_delta
            iteration += 1
            self.stats.iterations += 1

    def _fire(
        self,
        rule: Rule,
        working: Storage,
        delta: Optional[Dict[str, IndexedTable]] = None,
        position: Optional[int] = None,
    ) -> Iterator[Tuple[Tuple[Term, ...], Condition]]:
        """The rule-firing step: (head values, condition) per derivation.

        With ``delta``, the positive literal at ``position`` reads the
        delta relation and the others read the full ones.  This step is
        c-valuation join search; :class:`~repro.faurelog.sqlcompile.
        SqlProgramEvaluator` overrides it with SQL-compiled plans.
        """
        for bindings, condition in derive(
            rule, working, delta_override=delta, delta_position=position
        ):
            yield build_head(rule, bindings), condition

    def _insert(
        self,
        rule: Rule,
        values: Tuple[Term, ...],
        condition: Condition,
        working: Storage,
        delta: Dict[str, CTable],
    ) -> None:
        """The one insert policy: prune, dedup by subsumption, store."""
        if not self._keep(condition):
            return
        predicate = rule.head.predicate
        index = self._indexes[predicate]
        start = phase_clock()
        try:
            new = index.is_new(
                values, condition, self.solver,
                precheck=self.precheck, stats=self.stats,
            )
        finally:
            self.stats.solver_seconds += phase_clock() - start
        if not new:
            return
        index.record(values, condition, self.solver)
        stored = working.indexed(predicate)
        stored.add(list(values), condition)
        bucket = delta.get(predicate)
        if bucket is None:
            bucket = delta[predicate] = CTable(predicate, stored.schema)
        bucket.add(list(values), condition)
        self.stats.tuples_generated += 1
        if self.record_provenance:
            self.provenance.append((predicate, values, condition, rule.label))


def evaluate(
    program: Program,
    database: Database,
    solver: Optional[ConditionSolver] = None,
    stats: Optional[EvalStats] = None,
    max_iterations: Optional[int] = None,
    prune: bool = True,
    governor: Optional[Governor] = None,
    precheck: Optional["ConditionPrecheck"] = None,
    inactive_rules: Optional[Iterable[int]] = None,
) -> Database:
    """One-shot convenience wrapper around :class:`FaureEvaluator`.

    Partial-result status (budget-interrupted fixpoint) is surfaced via
    ``stats.partial_results`` when a ``stats`` object is supplied.
    """
    evaluator = FaureEvaluator(
        database,
        solver=solver,
        max_iterations=max_iterations,
        prune=prune,
        governor=governor,
        precheck=precheck,
        inactive_rules=inactive_rules,
    )
    result = evaluator.evaluate(program)
    if stats is not None:
        stats.add(evaluator.stats)
    return result
