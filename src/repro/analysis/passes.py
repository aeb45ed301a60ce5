"""The analysis passes.

Each pass is a function ``(AnalysisContext) -> Iterable[Diagnostic]``
over a parsed (possibly *relaxed*: unsafe / arity-inconsistent)
program.  Passes are pure — they share the context's caches but never
mutate the program — so the manager can run them in any order; the
default order in :mod:`repro.analysis.manager` goes cheap-and-fatal
first (safety, arities) and estimate-grade last (costs), mirroring the
lattice-framework habit of running coarse abstract domains before
precise ones.

No pass ever calls the condition solver.  Contradiction and tautology
detection go through the sound abstract domain of
:mod:`repro.solver.atoms`, so the whole pipeline runs in low
polynomial time even on programs whose conditions would choke Z3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from ..ctable.condition import (
    Condition,
    FalseCond,
    TrueCond,
    conjoin,
)
from ..ctable.parse import Span
from ..ctable.terms import Constant, CVariable, Variable
from ..faurelog.ast import Literal, Program, Rule
from ..faurelog.stratify import dependency_graph
from ..solver.atoms import prove_unsat, prove_valid
from ..solver.canonical import canonicalize
from .cost import DEFAULT_RELATION_SIZE, estimate_rule_cost
from .diagnostics import Diagnostic
from .sorts import ORDERED_SORTS, SortInference, infer_sorts

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "safety_pass",
    "arity_pass",
    "undefined_predicate_pass",
    "stratification_pass",
    "singleton_variable_pass",
    "duplicate_rule_pass",
    "condition_pass",
    "sort_pass",
    "reachability_pass",
    "cross_product_pass",
    "cost_pass",
]


@dataclass
class AnalysisContext:
    """Shared state for one analysis run."""

    program: Program
    edb: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    file: Optional[str] = None
    #: Optional relation row counts for the cost pass.
    sizes: Dict[str, int] = field(default_factory=dict)
    _sort_inference: Optional[SortInference] = None
    _graph: Optional["nx.DiGraph"] = None

    @property
    def sort_inference(self) -> SortInference:
        if self._sort_inference is None:
            self._sort_inference = infer_sorts(self.program)
        return self._sort_inference

    @property
    def graph(self) -> "nx.DiGraph":
        if self._graph is None:
            self._graph = dependency_graph(self.program)
        return self._graph

    def diag(
        self,
        code: str,
        message: str,
        span: Optional[Span] = None,
        rule: Optional[Rule] = None,
    ) -> Diagnostic:
        return Diagnostic.make(
            code,
            message,
            span=span if span is not None else (rule.span if rule else None),
            rule=rule_name(rule) if rule is not None else None,
            file=self.file,
        )


#: The pass signature.
AnalysisPass = Callable[[AnalysisContext], Iterable[Diagnostic]]


def rule_name(rule: Rule) -> str:
    return rule.label or str(rule.head)


def _rule_condition(rule: Rule) -> Condition:
    """The static part of the rule's derived condition (eq. 3): explicit
    comparisons plus annotation filters.  Matched tuple conditions are
    runtime data and cannot be folded in statically."""
    parts: List[Condition] = list(rule.comparisons())
    parts.extend(lit.annotation for lit in rule.literals())
    return conjoin(parts)


# -- safety / range restriction (F001-F003) ---------------------------------


def safety_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    codes = {"head": "F001", "negation": "F002", "comparison": "F003"}
    messages = {
        "head": "head variable {v} is not bound by any positive body atom",
        "negation": "variable {v} occurs only under negation",
        "comparison": "comparison variable {v} is not bound by any positive body atom",
    }
    for rule in ctx.program:
        for kind, term, span in rule.safety_violations():
            yield ctx.diag(
                codes[kind],
                messages[kind].format(v=term),
                span=span if span is not None else rule.span,
                rule=rule,
            )


# -- arity consistency (F004) ------------------------------------------------


def arity_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for atom, expected in ctx.program.arity_clashes():
        yield ctx.diag(
            "F004",
            f"predicate {atom.predicate} used with arity {atom.arity}, "
            f"but first use has arity {expected}",
            span=atom.span,
        )


# -- undefined predicates (F005) ---------------------------------------------


def undefined_predicate_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Only meaningful when stored relations were declared — without an
    EDB declaration every unknown predicate might be a stored c-table."""
    if not ctx.edb:
        return
    idb = ctx.program.idb_predicates()
    for rule in ctx.program:
        for lit in rule.literals():
            pred = lit.predicate
            if pred not in idb and pred not in ctx.edb:
                yield ctx.diag(
                    "F005",
                    f"predicate {pred} is neither defined nor a declared relation",
                    span=lit.span,
                    rule=rule,
                )


# -- stratification (F006) ---------------------------------------------------


def _negative_edge_witness(
    graph: "nx.DiGraph", source: str, target: str
) -> List[str]:
    """A cycle witnessing the negative edge ``source -> target``.

    Returns predicates in order ``[source, target, ..., source]``: the
    negated dependency followed by the positive path closing the loop.
    """
    try:
        back = nx.shortest_path(graph, target, source)
    except nx.NetworkXNoPath:  # pragma: no cover - caller checks the SCC
        return [source, target]
    return [source] + list(back)


def stratification_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    component_of: Dict[str, int] = {}
    for i, scc in enumerate(nx.strongly_connected_components(graph)):
        for pred in scc:
            component_of[pred] = i
    for u, v, data in graph.edges(data=True):
        if not data.get("negative") or component_of[u] != component_of[v]:
            continue
        cycle = _negative_edge_witness(graph, u, v)
        witness = " -> ".join(cycle)
        # Locate the offending negated literal for the span.
        span: Optional[Span] = None
        offender: Optional[Rule] = None
        for rule in ctx.program:
            if rule.head.predicate != v:
                continue
            for lit in rule.negative_literals():
                if lit.predicate == u:
                    span, offender = lit.span, rule
                    break
            if offender is not None:
                break
        yield ctx.diag(
            "F006",
            f"program is not stratifiable: negation of {u} occurs in a "
            f"recursive cycle (witness: {witness}, where {u} -> {v} is negated)",
            span=span,
            rule=offender,
        )


# -- singleton variables (F007) ----------------------------------------------


def _variable_occurrences(rule: Rule) -> Dict[Variable, int]:
    counts: Dict[Variable, int] = {}

    def bump(term: object) -> None:
        if isinstance(term, Variable):
            counts[term] = counts.get(term, 0) + 1

    for atom in [rule.head] + [lit.atom for lit in rule.literals()]:
        for term in atom.terms:
            bump(term)
    conditions = list(rule.comparisons()) + [l.annotation for l in rule.literals()]
    for cond in conditions:
        for atom in cond.atoms():
            bump(getattr(atom, "lhs", None))
            bump(getattr(atom, "rhs", None))
    return counts


def singleton_variable_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in ctx.program:
        for var, n in _variable_occurrences(rule).items():
            if n == 1:
                yield ctx.diag(
                    "F007",
                    f"variable {var} occurs only once (matches anything)",
                    rule=rule,
                )


# -- duplicate rules (F008) --------------------------------------------------


def _duplicate_key(rule: Rule) -> Tuple:
    """A key equal for rules that differ only in body order, condition
    atom order, or double negation — via the canonical condition form."""
    literal_keys = sorted(
        (
            lit.atom.predicate,
            tuple(repr(t) for t in lit.atom.terms),
            lit.negated,
            repr(canonicalize(lit.annotation)),
        )
        for lit in rule.literals()
    )
    comparisons = canonicalize(conjoin(rule.comparisons()))
    return (rule.head, tuple(literal_keys), repr(comparisons))


def duplicate_rule_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    seen: Dict[Tuple, Rule] = {}
    for rule in ctx.program:
        key = _duplicate_key(rule)
        first = seen.get(key)
        if first is not None:
            yield ctx.diag(
                "F008",
                f"rule duplicates {rule_name(first)} "
                "(conditions compared up to canonical equivalence)",
                rule=rule,
            )
        else:
            seen[key] = rule


# -- contradiction / tautology via the abstract domain (F010, F011) ----------


def condition_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Solver-free vacuity checks.

    *Per rule*: the conjunction of all explicit comparisons and
    annotation filters proven UNSAT means the derived condition of
    every tuple is UNSAT — the rule can never fire (``F011``).

    *Per atom*: a comparison proven VALID adds nothing to the derived
    condition (``F010``).

    Both proofs come from :mod:`repro.solver.atoms`, which is
    sound (no false positives) by construction — see the differential
    test against :class:`~repro.solver.interface.ConditionSolver`.
    """
    for rule in ctx.program:
        static_condition = _rule_condition(rule)
        if prove_unsat(static_condition):
            yield ctx.diag(
                "F011",
                "rule conditions are contradictory: rule can never fire",
                rule=rule,
            )
            continue  # per-atom reports would be noise below a dead rule
        for i, item in enumerate(rule.body):
            if not isinstance(item, Condition):
                continue
            span = rule.body_spans[i] or rule.span
            if isinstance(item, TrueCond) or (
                not isinstance(item, FalseCond) and prove_valid(item)
            ):
                yield ctx.diag(
                    "F010",
                    f"comparison is always true (tautology): {item}",
                    span=span,
                    rule=rule,
                )


# -- sort checking (F012, F013) ----------------------------------------------


def sort_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    inference = ctx.sort_inference
    for rule_index, rule in enumerate(ctx.program):
        for i, item in enumerate(rule.body):
            conditions: List[Tuple[Condition, Optional[Span]]] = []
            if isinstance(item, Condition):
                conditions.append((item, rule.body_spans[i]))
            elif isinstance(item, Literal) and not isinstance(
                item.annotation, TrueCond
            ):
                conditions.append((item.annotation, item.span))
            for cond, span in conditions:
                for atom in cond.atoms():
                    lhs = getattr(atom, "lhs", None)
                    rhs = getattr(atom, "rhs", None)
                    if lhs is None or rhs is None:
                        continue
                    sorts_l = inference.sorts_of_term(lhs, rule_index)
                    sorts_r = inference.sorts_of_term(rhs, rule_index)
                    if sorts_l and sorts_r and not (sorts_l & sorts_r):
                        yield ctx.diag(
                            "F012",
                            f"comparison {atom} mixes c-domain sorts: "
                            f"{lhs} is {_fmt_sorts(sorts_l)} but {rhs} is "
                            f"{_fmt_sorts(sorts_r)}",
                            span=span,
                            rule=rule,
                        )
                    elif atom.op in ("<", "<=", ">", ">="):
                        evidence = sorts_l | sorts_r
                        if evidence and not (evidence & ORDERED_SORTS):
                            yield ctx.diag(
                                "F013",
                                f"order comparison {atom} over non-numeric "
                                f"sort {_fmt_sorts(evidence)} "
                                "(strings order lexicographically)",
                                span=span,
                                rule=rule,
                            )


def _fmt_sorts(sorts: Iterable[str]) -> str:
    return "/".join(sorted(sorts))


# -- output reachability (F009) ----------------------------------------------


def reachability_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Rules whose head cannot reach any output predicate are dead code.

    Outputs default to the *sinks*: IDB predicates no rule consumes.
    """
    program = ctx.program
    idb = program.idb_predicates()
    graph = ctx.graph
    consumed: Set[str] = set()
    for rule in program:
        consumed |= rule.body_predicates()
    sinks = set(ctx.outputs) or (idb - consumed)
    reachable: Set[str] = set()
    frontier = list(sinks)
    while frontier:
        pred = frontier.pop()
        if pred in reachable:
            continue
        reachable.add(pred)
        for src, _dst in graph.in_edges(pred):
            frontier.append(src)
    for pred in sorted(idb - reachable):
        rules = program.rules_for(pred)
        span = rules[0].head.span if rules else None
        yield ctx.diag(
            "F009",
            f"predicate {pred} is never used by any output "
            "(its rules are dead code)",
            span=span,
            rule=rules[0] if rules else None,
        )


# -- cross products and cost estimates (F014, F015) --------------------------


def _join_components(rule: Rule) -> List[List[Literal]]:
    """Connected components of the positive literals under shared
    variables (constant-only and 0-ary literals are filters, not joins)."""
    positives = [
        lit
        for lit in rule.positive_literals()
        if lit.atom.variables() or lit.atom.cvariables()
    ]
    parent = list(range(len(positives)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    owner: Dict[object, int] = {}
    for i, lit in enumerate(positives):
        for term in set(lit.atom.variables()) | set(lit.atom.cvariables()):
            if term in owner:
                union(i, owner[term])
            else:
                owner[term] = i
    # Comparisons chaining variables across literals also connect them.
    for cond in rule.comparisons():
        touched = [
            owner[t]
            for atom in cond.atoms()
            for t in (getattr(atom, "lhs", None), getattr(atom, "rhs", None))
            if t in owner
        ]
        for i, j in zip(touched, touched[1:]):
            union(i, j)
    components: Dict[int, List[Literal]] = {}
    for i, lit in enumerate(positives):
        components.setdefault(find(i), []).append(lit)
    return list(components.values())


def cross_product_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in ctx.program:
        components = _join_components(rule)
        if len(components) > 1:
            names = ", ".join(
                "{" + ", ".join(lit.predicate for lit in comp) + "}"
                for comp in components
            )
            yield ctx.diag(
                "F014",
                f"rule joins {len(components)} variable-disjoint literal "
                f"groups ({names}): the join degenerates to a cross product",
                rule=rule,
            )


def cost_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Advisory cost estimates for rules that perform joins."""
    for rule in ctx.program:
        positives = list(rule.positive_literals())
        if len(positives) < 2:
            continue
        estimate = estimate_rule_cost(rule, ctx.sizes)
        assumed = "" if ctx.sizes else (
            f" (assuming {DEFAULT_RELATION_SIZE} rows per relation)"
        )
        yield ctx.diag(
            "F015",
            f"rule joins {len(positives)} relations; estimated intermediate "
            f"cardinality ~{estimate:.0f} rows{assumed}",
            rule=rule,
        )
