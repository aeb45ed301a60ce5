"""Compiling fauré-log onto the SQL engine — the paper's §6 architecture.

The paper does *not* run a bespoke datalog engine: it rewrites fauré-log
onto PostgreSQL in three steps (generate data parts in pure SQL, attach
conditions, prune with Z3), driving recursion by stratified iteration
outside the database.  This module reproduces that architecture on our
mini-SQL engine, giving the project the same two-engine structure:

* :class:`SqlRuleCompiler` — one rule body becomes one SELECT over the
  engine's extended relational algebra (scans, products, condition
  selections), with the head as the projection;
* :class:`SqlProgramEvaluator` — the rule-firing step of the one
  fixpoint loop (:class:`~repro.faurelog.evaluation.FaureEvaluator`):
  per stratum and semi-naive round, run each rule's SELECT — with the
  literal at the delta position scanning the delta table — and hand the
  derived (data, condition) pairs to its shared prune-and-subsume
  insert policy, until no tuple with a non-subsumed condition
  appears.

Full language coverage: joins, comparisons, implicit pattern matching,
and stratified negation (compiled to :class:`AntiJoin` — NOT EXISTS with
the c-table complement condition).  Equivalence with the native
evaluator is property-tested.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..ctable.condition import Comparison, Condition, TRUE, conjoin
from ..ctable.table import CTable, Database
from ..ctable.terms import CVariable, Term, Variable
from ..engine.algebra import (
    AntiJoin,
    ColumnRef,
    ConditionSelection,
    PlanNode,
    Product,
    Projection,
    Rename,
    Scan,
    evaluate_plan,
)
from ..engine.storage import IndexedTable, Storage
from ..solver.interface import ConditionSolver
from .ast import ProgramError, Rule
from .evaluation import FaureEvaluator

__all__ = ["SqlRuleCompiler", "SqlProgramEvaluator", "compile_rule"]


def delta_table_name(predicate: str) -> str:
    """The name a semi-naive delta relation is scanned under."""
    return f"delta:{predicate}"


class SqlRuleCompiler:
    """Translate one positive rule body into an algebra plan.

    Every positive literal becomes an aliased scan; repeated symbols and
    constants become WHERE conditions over qualified columns (constants
    compare against the column — the engine turns that into implicit
    pattern matching on c-variable entries); rule comparisons translate
    with bindable symbols replaced by their first column occurrence.
    """

    def __init__(self, rule: Rule, db: Database):
        self.rule = rule
        self.db = db

    def compile(self, delta_position: Optional[int] = None) -> Tuple[PlanNode, List[str]]:
        """Returns (plan, head column template).

        ``delta_position`` (an index among the rule's positive literals)
        makes that literal scan the semi-naive delta relation
        (:func:`delta_table_name`) instead of the full one.

        The head template lists, per head term, either a qualified
        column name (for bound symbols) or ``None`` (for constant /
        global-c-variable head terms, filled in afterwards).
        """
        rule = self.rule
        positives = list(rule.positive_literals())
        if not positives:
            raise ProgramError(f"cannot compile a fact via SQL: {rule}")

        # one aliased, column-qualified scan per literal
        plans: List[PlanNode] = []
        first_column: Dict[Term, str] = {}
        where: List[Condition] = []
        for index, literal in enumerate(positives):
            table = self.db.table(literal.predicate)
            alias = f"t{index}"
            mapping = {c: f"{alias}.{c}" for c in table.schema}
            source = (
                delta_table_name(literal.predicate)
                if index == delta_position
                else literal.predicate
            )
            plans.append(Rename(Scan(source, alias), mapping, name=alias))
            for position, term in enumerate(literal.atom.terms):
                column = f"{alias}.{table.schema[position]}"
                if isinstance(term, (Variable, CVariable)):
                    bound = first_column.get(term)
                    if bound is None:
                        first_column[term] = column
                    else:
                        where.append(
                            Comparison(ColumnRef(bound), "=", ColumnRef(column))
                        )
                else:  # constant pattern: implicit matching via comparison
                    where.append(Comparison(ColumnRef(column), "=", term))
            if literal.annotation is not TRUE:
                where.append(self._columnize(literal.annotation, first_column))

        plan: PlanNode = plans[0]
        for nxt in plans[1:]:
            plan = Product(plan, nxt)
        for comparison in rule.comparisons():
            where.append(self._columnize(comparison, first_column))
        if where:
            plan = ConditionSelection(plan, conjoin(where))

        # negated literals: one anti-join each (NOT EXISTS with the
        # c-table complement condition).  Safety guarantees all their
        # program variables are bound; constants anti-join against a
        # filtered scan of the negated relation.
        for neg_index, literal in enumerate(rule.negative_literals()):
            table = self.db.table(literal.predicate)
            alias = f"n{neg_index}"
            mapping = {c: f"{alias}.{c}" for c in table.schema}
            right: PlanNode = Rename(
                Scan(literal.predicate, alias), mapping, name=alias
            )
            on: List[Tuple[str, str]] = []
            right_filters: List[Condition] = []
            for position, term in enumerate(literal.atom.terms):
                column = f"{alias}.{table.schema[position]}"
                if isinstance(term, (Variable, CVariable)) and term in first_column:
                    on.append((first_column[term], column))
                elif isinstance(term, Variable):
                    raise ProgramError(
                        f"unbound variable {term} under negation in {rule}"
                    )
                else:
                    # constant or global c-variable: restrict the right side
                    right_filters.append(
                        Comparison(ColumnRef(column), "=", term)
                    )
            if literal.annotation is not TRUE:
                raise ProgramError(
                    f"annotated negated literal {literal} is not SQL-compilable"
                )
            if right_filters:
                right = ConditionSelection(right, conjoin(right_filters))
            plan = AntiJoin(plan, right, on=on)

        # head projection template
        head_columns: List[Optional[str]] = []
        for term in rule.head.terms:
            if isinstance(term, (Variable, CVariable)) and term in first_column:
                head_columns.append(first_column[term])
            elif isinstance(term, Variable):
                raise ProgramError(f"unsafe head variable {term} in {rule}")
            else:
                head_columns.append(None)  # constant or global c-variable
        projected: List[str] = []
        for column in head_columns:
            if column is not None and column not in projected:
                projected.append(column)
        plan = Projection(plan, projected, merge=False)
        self._head_columns = head_columns
        self._projected = projected
        return plan, projected

    def _columnize(self, condition: Condition, first_column: Dict[Term, str]) -> Condition:
        """Replace bindable symbols in a condition by their columns."""
        mapping = {
            term: ColumnRef(column) for term, column in first_column.items()
        }
        return condition.substitute(mapping)

    def head_rows(self, result: CTable) -> List[Tuple[Tuple[Term, ...], Condition]]:
        """Assemble full head tuples from the projected result."""
        rows: List[Tuple[Tuple[Term, ...], Condition]] = []
        index_of = {column: i for i, column in enumerate(self._projected)}
        for tup in result:
            values: List[Term] = []
            for term, column in zip(self.rule.head.terms, self._head_columns):
                if column is None:
                    values.append(term)
                else:
                    values.append(tup.values[index_of[column]])
            rows.append((tuple(values), tup.condition))
        return rows


def compile_rule(rule: Rule, db: Database) -> PlanNode:
    """Convenience: the algebra plan of one rule (for EXPLAIN)."""
    compiler = SqlRuleCompiler(rule, db)
    plan, _ = compiler.compile()
    return plan


class SqlProgramEvaluator(FaureEvaluator):
    """Stratified iteration of SQL-compiled rules (the paper's §6 loop).

    The fixpoint loop, insert policy and ``max_iterations`` meaning are
    :class:`~repro.faurelog.evaluation.FaureEvaluator`'s; only the
    rule-firing step differs: each firing runs the rule's compiled plan.
    """

    def __init__(
        self,
        database: Database,
        solver: Optional[ConditionSolver] = None,
        max_iterations: Optional[int] = None,
    ):
        super().__init__(database, solver=solver, max_iterations=max_iterations)

    def _fire(
        self,
        rule: Rule,
        working: Storage,
        delta: Optional[Dict[str, IndexedTable]] = None,
        position: Optional[int] = None,
    ) -> Iterator[Tuple[Tuple[Term, ...], Condition]]:
        if rule.is_fact:
            yield tuple(rule.head.terms), TRUE
            return
        compiler = SqlRuleCompiler(rule, working.db)
        plan, _ = compiler.compile(delta_position=position)
        db = working.db
        if delta is not None:
            # The delta relation is visible to the plan under its own
            # name, next to the full relations.
            predicate = list(rule.positive_literals())[position].predicate
            db = Database(working.db)
            db.add_table(delta[predicate].table.copy(delta_table_name(predicate)))
        result = evaluate_plan(plan, db, solver=self.solver, prune=True, stats=self.stats)
        yield from compiler.head_rows(result)
