"""Incremental maintenance for the chase engine.

The paper's production pipeline rematerializes the whole KG on every
registry refresh (Section 6).  This module maintains a saturated chase
result under extensional *deltas* instead, in time proportional to the
change:

- **Insertions** propagate stratum-by-stratum through the delta join
  the engine's recursive rounds use
  (:func:`~repro.vadalog.plan.delta_matches`), over the *changed*
  predicates instead of a round's new facts: for the k-th changed body
  occurrence chosen as the delta atom, earlier changed occurrences are
  restricted to old facts and later ones see the full relation — an
  exact partition of the new matches.  Monotone aggregate rules
  continue the **accumulator the base run built**
  (:meth:`~repro.vadalog.plan.AggregatePlan.evaluate`): new
  contributions are delta-joined into it and only touched groups are
  re-emitted, so a single new stake updates ``msum`` in O(|delta|).

- **Deletions** run DRed (delete/re-derive): the downward closure of
  the retracted facts is over-deleted with the same join plans (the
  closure joins see the *old* world: the rows the removed facts left
  tombstoned are live for their duration — a byte set and cleared per
  fact, no new row), then each over-deleted fact gets a goal-directed
  re-derivation attempt through :meth:`RulePlans.rederive_plan` — by
  every rule that writes its predicate — and survivors cascade through
  the normal insertion pass.  A **monotone aggregate** takes part
  through its retained accumulator: the frontier is delta-joined
  through the contribution body, every group a match names is
  *touched*, its emitted head fact is over-deleted whatever value would
  remain (on a cycle the remaining contributors may hang on that very
  fact: the accumulator is no support count), the touched buckets are
  rebuilt from the surviving matches by a join with the group bound,
  and a group that still passes its post-conditions re-derives its
  head.  An **existential head** is looked up, never instantiated: the
  facts ``NullFactory.minted`` remembers for the resolved pattern are
  what a lost firing over-deletes and what a surviving writer of that
  pattern puts back — the same facts, nulls included.

- **Negation** over a changed predicate, in a non-recursive stratum,
  is maintained **by key**: a fact the negated predicate gained is a
  deletion seed and one it lost an insertion seed, each bound through
  a :class:`DeltaBinder` on the negated atom.  Deletion candidates come
  from the positive part of the body; the body evaluated on the new
  database is the arbiter in both directions, so ``not p(X, _)`` stays
  false while another ``p(x, _)`` is left.

- **Non-maintainable strata** — negation inside a recursive stratum or
  beside an aggregate or existential head, non-monotone aggregates,
  an aggregate target in the head, post-conditions that are not lower
  bounds, existential heads whose writers fail the safety gate —
  **recompute from their stratum boundary**: the stratum's derived
  predicates reset to the post-update extensional baseline and the
  engine's own ``_evaluate_stratum`` re-runs.  The before/after diff
  then feeds downstream strata as an ordinary delta.  Every recompute
  is reported with the rule and the reason that forced it
  (``DeltaResult.recompute_reasons``, :data:`RECOMPUTE_REASONS`,
  counter ``incr.strata_recomputed``).  So is a maintainable stratum
  whose DRed over-deletion passes half of its facts
  (:data:`DEGENERATE_FLOOR`): rederiving them costs more than a
  recompute.

Labeled nulls minted during maintenance continue the retained
:class:`NullFactory` counter, so incremental ordinals differ from a
from-scratch run; results are equal **up to null renaming** (the
differential battery canonicalizes nulls before comparing).  An
existential head that is derived again — by a recomputed stratum, or by
the cascade after DRed over-deleted it — takes back the nulls that head
had: the net change of the stratum is then what changed (not the whole
stratum under new names), derived ids survive updates, and the value
dictionary stops growing with churn.  The renaming stays injective
because a remembered assignment belongs to one firing (rule head
pattern) of this state, is taken back by at most one firing of the same
pattern per update, and is forgotten when none does; every other null
is fresh.  Delta facts are joined in row order — a new fact where its
relation appended it, a removed one where it was buried — so that the
ordinals do not depend on the hash seed, and no delta is sorted by
value; only a caller's ``set``, which has no order to give, is taken in
``fact_sort_key`` order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EvaluationError, ResourceLimitError
from repro.vadalog.engine import EvaluationStats, _BudgetStop
from repro.vadalog.aggregates import is_monotonic
from repro.vadalog.ast import (
    Condition,
    NegatedAtom,
    Program,
    Rule,
    TermExpr,
)
from repro.vadalog.database import Database, Fact
from repro.vadalog.plan import (
    _K_CONST,
    _K_EXIST,
    _K_SKOLEM,
    _K_VAR,
    AggregateState,
    Changes,
    RulePlans,
    execute_plan,
    expression_vars_outside_aggregate,
    values_equal,
)
from repro.vadalog.stratify import Stratum
from repro.vadalog.terms import SkolemValue, Variable, fact_sort_key

Substitution = Dict[Variable, Any]


# ---------------------------------------------------------------------------
# Retained state
# ---------------------------------------------------------------------------


class MaterializedState:
    """Everything :func:`apply_delta` needs to maintain a chase result.

    Built by :meth:`Engine.run` when ``retain_state=True``: the live
    database, the stratification, the extensional snapshot, saturated
    aggregate accumulators, and the null/Skolem factories (so
    maintenance continues their counters), and, from the first update
    on, the :class:`StratumPlan` of every stratum.
    """

    __slots__ = (
        "program", "working", "strata", "database", "nulls", "skolems",
        "edb", "aggregates", "plans",
    )

    def __init__(
        self,
        program: Program,
        working: Program,
        strata: Sequence[Stratum],
        database: Database,
        nulls: Any,
        skolems: Dict[str, Any],
    ) -> None:
        self.program = program
        self.working = working
        self.strata = list(strata)
        self.database = database
        self.nulls = nulls
        self.skolems = skolems
        self.edb: Dict[str, Set[Fact]] = {}
        #: The state of every aggregate rule, as the run (or the last
        #: recompute of its stratum) left it; maintained in place.
        self.aggregates: Dict[Rule, AggregateState] = {}
        self.plans: Optional[List[StratumPlan]] = None

    def stratum_plans(self, engine: Any) -> "List[StratumPlan]":
        """Every stratum's maintenance plan, compiled by the first update."""
        if self.plans is None:
            plans_for = partial(engine._plans_for, stats=EvaluationStats())
            self.plans = [StratumPlan(self, s, plans_for) for s in self.strata]
        return self.plans


# ---------------------------------------------------------------------------
# Delta results
# ---------------------------------------------------------------------------


@dataclass
class DeltaResult:
    """Net per-predicate changes produced by one :func:`apply_delta` call.

    ``added``/``removed`` include the applied extensional changes, so a
    caller chaining materialized states (the SSST materializer runs
    three) can feed one state's net changes directly into the next.
    Each is an ordered set (a ``dict``'s keys) in row order, the order
    the next state then appends and joins them in.
    """

    added: Dict[str, KeysView[Fact]] = field(default_factory=dict)
    removed: Dict[str, KeysView[Fact]] = field(default_factory=dict)
    strata_skipped: int = 0
    strata_incremental: int = 0
    #: One ``(stratum index, rule label, reason)`` per recomputed
    #: stratum: the rule that forced it, and why, from
    #: :data:`RECOMPUTE_REASONS` — or a DRed cascade through half of it.
    recompute_reasons: List[Tuple[int, str, str]] = field(default_factory=list)
    overdeleted: int = 0
    rederived: int = 0
    skipped_removals: int = 0
    elapsed_seconds: float = 0.0

    @property
    def strata_recomputed(self) -> int:
        return len(self.recompute_reasons)

    @property
    def total_added(self) -> int:
        return sum(len(facts) for facts in self.added.values())

    @property
    def total_removed(self) -> int:
        return sum(len(facts) for facts in self.removed.values())

    def changed(self) -> bool:
        return bool(self.added) or bool(self.removed)


# ---------------------------------------------------------------------------
# Safety classification
# ---------------------------------------------------------------------------

_INCREMENTAL = "incremental"
_RECOMPUTE = "recompute"

#: Why a stratum is recomputed from its boundary instead of maintained.
RECOMPUTE_REASONS = (
    _NEGATION_IN_RECURSION,
    _NEGATION_BESIDE_INVENTION,
    _NO_ACCUMULATOR,
    _NON_MONOTONE,
    _TARGET_IN_HEAD,
    _NOT_A_LOWER_BOUND,
    _PARTIAL_GROUP_HEAD,
    _EXISTENTIAL_GATE,
) = (
    "negation in a recursive stratum",
    "negation beside an aggregate or an existential head",
    "no retained accumulator",
    "non-monotone aggregate",
    "aggregate target in the head",
    "post-condition is not a lower bound",
    "removal through a head atom that does not name the whole group",
    "existential writer refused by the gate",
)
_DEGENERATE = "over-deletion reached half of the stratum"

#: DRed gives a stratum up for a recompute once it over-deletes half of
#: its facts, and this many: per fact it costs several recomputes (11.7 s
#: through 42,586 facts of control; 2.6 s to derive 31,826 afresh), and
#: below a few thousand either is milliseconds and DRed stays local.
DEGENERATE_FLOOR = 4096


class _Degenerate(Exception):
    """Raised out of the over-deletion closure past the limit above."""


class RulePlan:
    """One rule as maintenance reads it, compiled once per retained state
    (an update hashes no :class:`Rule`), with what the rules alone decide
    of its refusals, without and with a deletion pass."""

    __slots__ = (
        "plans", "label", "reads", "negated", "heads", "existential",
        "aggregate", "refusals", "gates", "written",
    )

    def __init__(self, state: MaterializedState, stratum: Stratum, index: int,
                 rule: Rule, plans_for: Any):
        plans = self.plans = plans_for(rule)
        self.label = rule.label or f"r{index}"
        self.reads = frozenset(atom.predicate for atom in rule.body_atoms())
        self.negated = frozenset(n.atom.predicate for n in rule.negated_atoms())
        self.heads = frozenset(rule.head_predicates())
        self.existential = bool(rule.existential_variables())
        self.aggregate: Optional[AggregateState] = state.aggregates.get(rule)
        self.refusals = [
            _aggregate_refusal(plans_for, state, rule, removals)
            for removals in (False, True)
        ] if plans.is_aggregate else None
        self.written = {
            p for p, slots in plans.head_ops if any(k == _K_EXIST for k, _ in slots)
        }
        self.gates = [
            not self.existential
            or _existential_gate(plans_for, state, stratum, rule, removals)
            for removals in (False, True)
        ]


class StratumPlan:
    """One stratum as maintenance reads it: its rules, the writers of each
    head predicate, and its read and head sets, whose union ``reach`` a
    change must meet for the stratum to be classified at all."""

    __slots__ = (
        "stratum", "rules", "reads", "negated", "heads", "retracts", "reach", "writers",
    )

    def __init__(self, state: MaterializedState, stratum: Stratum, plans_for: Any):
        self.stratum = stratum
        self.rules = [
            RulePlan(state, stratum, index, rule, plans_for)
            for index, rule in enumerate(stratum.rules)
        ]
        self.reads, self.negated, self.heads = (
            frozenset().union(*(getattr(rule, name) for rule in self.rules))
            for name in ("reads", "negated", "heads")
        )
        self.retracts = self.reads | self.heads  # what a removal seeds DRed by
        self.reach = self.retracts | self.negated | stratum.predicates
        self.writers: Dict[str, List[Tuple[RulePlan, int]]] = {}
        for rule in self.rules:
            for head_index, (predicate, _) in enumerate(rule.plans.head_ops):
                self.writers.setdefault(predicate, []).append((rule, head_index))


def _post_condition_is_lower_bound(
    condition: Condition, target: Variable, group_vars: Set[Variable]
) -> bool:
    """True when growing the target can only turn the condition on.

    Monotone-aggregate emissions stay valid under insertions exactly
    when every post condition is a lower-bound gate on the bare target
    (``v > rhs`` / ``v >= rhs`` or mirrored) with the other side fixed
    by group variables.
    """
    left_vars = set(condition.left.variables())
    right_vars = set(condition.right.variables())
    if target in left_vars and target in right_vars:
        return False
    if target in left_vars:
        if not isinstance(condition.left, TermExpr) or condition.left.term != target:
            return False
        if not right_vars <= group_vars:
            return False
        return condition.op in (">", ">=")
    if target in right_vars:
        if not isinstance(condition.right, TermExpr) or condition.right.term != target:
            return False
        if not left_vars <= group_vars:
            return False
        return condition.op in ("<", "<=")
    return (left_vars | right_vars) <= group_vars


def _aggregate_refusal(
    plans_for: Any, state: MaterializedState, rule: Rule, removals: bool
) -> Optional[str]:
    """Why this aggregate rule cannot be maintained through its retained
    accumulator (``None``: it can).

    Requirements: a monotone function; the target confined to post
    conditions that are lower-bound gates; head variables, Skolem
    arguments and the assignment covered by the group variables (so a
    group's witness is its group binding, whichever match gave it); and
    a retained saturated accumulator from the base run.  ``removals``
    further needs every head atom to name the whole group, so that an
    over-deleted head fact finds the bucket that may re-derive it.
    """
    if rule not in state.aggregates:
        return _NO_ACCUMULATOR
    plans = plans_for(rule)
    plan = plans.aggregate_plan()
    if not is_monotonic(plan.call.function):
        return _NON_MONOTONE
    group_vars = set(plan.group_vars)
    target = plan.target
    for _, slots in plans.head_ops:
        for kind, payload in slots:
            if kind == _K_VAR and payload == target:
                return _TARGET_IN_HEAD
    for _, _, arg_ops in plans.placeholders:
        for is_var, argument in arg_ops:
            if is_var and (argument == target or argument not in group_vars):
                return _TARGET_IN_HEAD
    if not expression_vars_outside_aggregate(plan.assignment.expression) <= group_vars:
        return _TARGET_IN_HEAD
    for condition in plan.post:
        if not _post_condition_is_lower_bound(condition, target, group_vars):
            return _NOT_A_LOWER_BOUND
    if removals and any(
        group_vars - set(plans.rederive_bound_vars(index))
        for index in range(len(plans.head_ops))
    ):
        return _PARTIAL_GROUP_HEAD
    return None


def _existential_signature(plans: RulePlans) -> Tuple[Any, ...]:
    """Head predicates and the existential variable at each position:
    what two writers must share for their firings to file under the
    same ``NullFactory`` pattern."""
    return tuple(
        (predicate, tuple(
            payload if kind == _K_EXIST else None for kind, payload in slots
        ))
        for predicate, slots in plans.head_ops
    )


def _existential_gate(
    plans_for: Any, state: MaterializedState, stratum: Stratum, rule: Rule,
    removals: bool,
) -> bool:
    """The half of the existential gate the rules decide: conditions
    (2)-(5) of :func:`_existential_safe`."""
    plans = plans_for(rule)
    signature = _existential_signature(plans)
    existential_preds: Dict[str, Set[int]] = {}
    for predicate, slots in plans.head_ops:
        positions = {
            position for position, (kind, _) in enumerate(slots) if kind == _K_EXIST
        }
        if positions:
            existential_preds.setdefault(predicate, set()).update(positions)
    for predicate, positions in existential_preds.items():
        round_zero = 0
        recursive_writers = 0
        for writer in state.working.rules:
            if predicate not in writer.head_predicates():
                continue
            writer_plans = plans_for(writer)
            for w_predicate, slots in writer_plans.head_ops:
                if w_predicate != predicate:
                    continue
                for position in positions:
                    if position >= len(slots) or slots[position][0] != _K_EXIST:
                        return False
            if removals and _existential_signature(writer_plans) != signature:
                return False
            if writer.has_aggregate():
                if _aggregate_refusal(plans_for, state, writer, removals):
                    return False
            else:
                named_body = {
                    v for v in writer.body_variables() if v.name != "_"
                }
                if not named_body <= set(writer_plans.rederive_bound_vars()):
                    return False
            if any(a.predicate in stratum.predicates for a in writer.body_atoms()):
                recursive_writers += 1
            else:
                round_zero += 1
        if round_zero > 1 or recursive_writers > 1:
            return False
    return True


def _existential_safe(
    state: MaterializedState, rule: RulePlan, changed: Set[str], removals: bool
) -> bool:
    """Gate for propagating changes through an existential head.

    The restricted chase suppresses a firing whenever the head pattern
    is already satisfied, so incremental insertion is order-faithful
    (up to null renaming) only when same-pattern firings cannot race:
    for every predicate this rule writes existentially, (1) the
    predicate holds no extensional facts and receives no direct
    extensional delta, (2) no writer grounds the existential positions,
    (3) every writer is either an aggregate rule (one emission per
    group) or has a full named frontier (distinct matches yield
    distinct head patterns), and (4) at most one writer reads no
    stratum predicate and at most one does — so the relative firing
    order of competing writers is the same in every evaluation order.

    Under (1)-(3) a pattern holds one fact exactly while some writer
    has a firing for it, which is what DRed needs of a removal; it
    looks the fact up by the pattern, so ``removals`` also needs (5)
    all writers to share one existential signature.  (2)-(5) are the
    rules' to decide, once (``RulePlan.gates``); (1) is the update's.
    """
    return rule.gates[removals] and not any(
        state.edb.get(predicate) or predicate in changed
        for predicate in rule.written
    )


def _classify_stratum(
    state: MaterializedState,
    plan: StratumPlan,
    add_keys: Set[str],
    rm_keys: Set[str],
) -> Tuple[str, Optional[Tuple[str, str]]]:
    """How to bring a stratum the changed predicates reach up to date:
    the mode and, for a recompute, the ``(rule label, reason)`` that
    forced it.  What the rules alone decide is read off ``plan``."""
    changed = add_keys | rm_keys
    stratum = plan.stratum

    # Once anything enters a recursive stratum, its own predicates count
    # as changed for gating (the delta cascades through them).
    effective = changed | stratum.predicates if stratum.recursive else changed

    # Will a deletion pass run?  It cascades through a recursive stratum,
    # and its re-derivation tries every writer of an over-deleted
    # predicate (an aggregate rule through its buckets), so every rule
    # it could reach has to take removals.
    deletes = bool(rm_keys & plan.retracts or add_keys & plan.negated)

    for rule in plan.rules:
        if not rule.negated.isdisjoint(effective):
            # Maintained by key (the changed facts of the negated
            # predicate seed the passes) where nothing cascades and a
            # head fact is its own identity.
            if stratum.recursive:
                return _RECOMPUTE, (rule.label, _NEGATION_IN_RECURSION)
            if rule.plans.is_aggregate or rule.existential:
                return _RECOMPUTE, (rule.label, _NEGATION_BESIDE_INVENTION)
        affected = bool(rule.reads & effective or rule.heads & changed)
        if rule.plans.is_aggregate and (affected or deletes):
            refusal = rule.refusals[deletes]
            if refusal:
                return _RECOMPUTE, (rule.label, refusal)
        if (
            affected
            and rule.existential
            and not _existential_safe(state, rule, changed, deletes)
        ):
            return _RECOMPUTE, (rule.label, _EXISTENTIAL_GATE)
    return _INCREMENTAL, None


# ---------------------------------------------------------------------------
# Insertion propagation
# ---------------------------------------------------------------------------


def _negation_matches(
    plans: RulePlans, db: Database, changes: Changes, whole: bool
) -> Iterator[Substitution]:
    """Body matches for the keys that changed facts of a negated
    predicate name (see :meth:`RulePlans.negation_plan` for ``whole``)."""
    for index, literal in enumerate(plans.rule.body):
        if not isinstance(literal, NegatedAtom):
            continue
        facts = changes.get(literal.atom.predicate)
        if not facts:
            continue
        binder = plans.delta_binder(index)
        plan = plans.negation_plan(index, whole)
        for fact in facts:
            base = binder.match(fact)
            if base is not None:
                yield from execute_plan(plan, db, base)


def _insertion_pass(
    engine: Any,
    state: MaterializedState,
    stratum: StratumPlan,
    db: Database,
    seeds: Changes,
    negated_losses: Changes,
    stats: Any,
    added_now: Changes,
) -> None:
    """Semi-naive rounds seeded from ``seeds`` until no new facts appear.

    ``negated_losses`` are facts a negated predicate lost: in the first
    round each also tries the whole body for the key it names.
    """
    delta = seeds
    rounds = 0
    while delta or negated_losses:
        rounds += 1
        if rounds > engine.max_iterations:
            raise ResourceLimitError(
                f"incremental pass over {sorted(stratum.stratum.predicates)} "
                f"did not reach a fixpoint within {engine.max_iterations} rounds",
                resource="iterations",
                limit=engine.max_iterations,
                stats=stats,
            )
        stats.iterations += 1
        pending: List[Tuple[str, Fact]] = []
        for rule in stratum.rules:
            if rule.reads.isdisjoint(delta) and rule.negated.isdisjoint(negated_losses):
                continue
            plans = rule.plans
            if plans.is_aggregate:
                plan = plans.aggregate_plan()
                matches = plan.evaluate(rule.aggregate, plan.delta_matches(db, delta))
            else:
                matches = plans.delta_matches(db, delta)
                if negated_losses:
                    matches = chain(matches, _negation_matches(
                        plans, db, negated_losses, whole=True
                    ))
            for substitution in matches:
                stats.rule_firings += 1
                for predicate, fact in plans.instantiate_head(
                    substitution, db, stats, state.nulls, state.skolems,
                    engine.max_nulls,
                ):
                    pending.append((predicate, fact))
        negated_losses = {}
        delta = {}
        for predicate, fact in pending:
            if db.add(predicate, fact):
                stats.facts_derived += 1
                delta.setdefault(predicate, {})[fact] = None
                added_now.setdefault(predicate, {})[fact] = None


# ---------------------------------------------------------------------------
# Deletion (DRed)
# ---------------------------------------------------------------------------

#: One firing of an existential head as ``NullFactory`` files it.
Firing = Tuple[str, Tuple[Tuple[Any, ...], ...]]


def _firing_facts(
    firing: Firing, assignments: Iterable[Dict[Any, Any]]
) -> List[Tuple[str, Fact]]:
    """The head facts of a firing under each null assignment it got."""
    return [
        (name, tuple(
            assignment.get(t, t) if isinstance(t, Variable) else t
            for t in terms
        ))
        for assignment in assignments
        for name, *terms in firing[1]
    ]


def _held_heads(
    plans: RulePlans,
    substitution: Substitution,
    state: MaterializedState,
    firings: Dict[Firing, None],
) -> List[Tuple[str, Fact]]:
    """The head facts the state holds for one match of a rule.

    A head without existentials is its instantiation.  An existential
    one is looked up, never instantiated: the facts of the assignments
    ``NullFactory.minted`` remembers for the resolved pattern (none when
    the firing was suppressed and no writer ever had to mint), and the
    pattern is noted in ``firings``.
    """
    resolved, _ = plans.resolve_head(substitution, state.skolems)
    if not plans.existentials:
        return [(predicate, tuple(terms)) for predicate, terms in resolved]
    firing = state.nulls.pattern(resolved)
    assignments = state.nulls.minted.get(firing[0], {}).get(firing[1])
    if not assignments:
        return []
    firings[firing] = None
    return _firing_facts(firing, assignments)


def _unify_head_fact(
    plans: RulePlans,
    head_index: int,
    fact: Sequence[Any],
    substitution: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """Match a ground fact against one head atom, recovering bindings
    (on top of ``substitution``, which is extended in place).

    Skolem values decompose structurally (functor + arguments) against
    the head's Skolem template, so goal-directed re-derivation works
    through value-invention heads too.  An existential slot matches
    only its own variable — the place it has in a firing's pattern,
    never a ground fact: nulls are not goal-directed re-derivable.
    """
    _, slots = plans.head_ops[head_index]
    if len(fact) != len(slots):
        return None
    placeholders = {
        placeholder: (functor, arg_ops)
        for placeholder, functor, arg_ops in plans.placeholders
    }
    if substitution is None:
        substitution = {}
    for (kind, payload), value in zip(slots, fact):
        if kind == _K_CONST:
            if not values_equal(payload, value):
                return None
        elif kind == _K_VAR:
            if payload in substitution:
                if not values_equal(substitution[payload], value):
                    return None
            else:
                substitution[payload] = value
        elif kind == _K_SKOLEM:
            functor, arg_ops = placeholders[payload]
            if not isinstance(value, SkolemValue) or value.functor != functor:
                return None
            if len(value.arguments) != len(arg_ops):
                return None
            for (is_var, argument), argument_value in zip(arg_ops, value.arguments):
                if is_var:
                    if argument.name == "_":
                        continue
                    if argument in substitution:
                        if not values_equal(substitution[argument], argument_value):
                            return None
                    else:
                        substitution[argument] = argument_value
                elif not values_equal(argument, argument_value):
                    return None
        elif value != payload:  # _K_EXIST
            return None
    return substitution


def _unify_firing(plans: RulePlans, firing: Firing) -> Optional[Substitution]:
    """Match a firing's pattern against a rule's whole head."""
    pattern = firing[1]
    if len(pattern) != len(plans.head_ops):
        return None
    substitution: Optional[Substitution] = {}
    for head_index, (name, *terms) in enumerate(pattern):
        if name != plans.head_ops[head_index][0]:
            return None
        substitution = _unify_head_fact(plans, head_index, terms, substitution)
        if substitution is None:
            return None
    return substitution


def _derives(
    db: Database,
    rule: RulePlan,
    head_index: Optional[int],
    base: Optional[Substitution],
) -> bool:
    """Does the rule still derive the head that unified to ``base`` —
    one head fact, or (``head_index`` None) one whole firing?

    An aggregate rule answers from the bucket of the group the head
    names; any other by a goal-directed join of its body.
    """
    if base is None:
        return False
    plans = rule.plans
    if plans.is_aggregate:
        plan = plans.aggregate_plan()
        return plan.emission(rule.aggregate, plan.group_of(base)) is not None
    for _ in execute_plan(plans.rederive_plan(head_index), db, base):
        return True
    return False


def _overdelete_joins(
    engine: Any,
    state: MaterializedState,
    stratum: StratumPlan,
    db: Database,
    removed_seeds: Changes,
    negated_gains: Changes,
    stats: Any,
) -> Tuple[Changes, Dict[Firing, None], Dict[RulePlan, Dict[Tuple[Any, ...], None]]]:
    """Downward closure of the removed facts through this stratum's rules.

    The closure joins see the *old* world (a derivation needing two
    removed facts must still find both): while they run the removed
    seeds are live again, by ``unbury`` of the row each left — re-added
    and buried anew only where the relation forgot the row.  No seed is
    in its relation (the net cancels a fact derived again), so none
    shows twice.  New facts already inserted this update can only add
    matches, i.e. extra over-deletion that re-derivation corrects.
    Facts a negated predicate gained (``negated_gains``) retract, like a
    removal, the matches of the keys they name.

    An aggregate rule joins the frontier through its contribution body:
    every group a match names is *touched*, and the head fact it emitted
    is over-deleted whatever value would remain — on a cycle the rest of
    the bucket may hang on that very fact, so the accumulator is no
    support count.  Returns the marked facts, the existential firings
    among them, and the touched groups per aggregate rule.
    """
    shown: List[Tuple[Any, Dict[Fact, Any], Fact, Any]] = []
    for predicate, graves in removed_seeds.items():
        if predicate not in stratum.reads:
            continue  # a head-only seed: a candidate, joined by nothing
        relation = db.relation(predicate)
        for fact, grave in graves.items():
            if grave is not None and relation.unbury(grave):
                shown.append((relation, graves, fact, grave))
            elif relation.add(fact):
                shown.append((relation, graves, fact, None))
    marked: Changes = {}
    firings: Dict[Firing, None] = {}
    touched: Dict[RulePlan, Dict[Tuple[Any, ...], None]] = {}
    limit = max(DEGENERATE_FLOOR, sum(db.count(p) for p in stratum.heads) // 2)
    try:
        frontier = removed_seeds
        while frontier or negated_gains:
            found: Changes = {}
            for rule in stratum.rules:
                if rule.reads.isdisjoint(frontier) and rule.negated.isdisjoint(
                    negated_gains
                ):
                    continue
                plans = rule.plans
                heads: List[Tuple[str, Fact]] = []
                if plans.is_aggregate:
                    plan = plans.aggregate_plan()
                    groups = touched.setdefault(rule, {})
                    for substitution in plan.delta_matches(db, frontier):
                        group = plan.group_of(substitution)
                        if group in groups:
                            continue
                        groups[group] = None
                        emitted = plan.emission(rule.aggregate, group)
                        if emitted is not None:
                            heads += _held_heads(plans, emitted, state, firings)
                else:
                    matches = plans.delta_matches(db, frontier)
                    if negated_gains:
                        matches = chain(matches, _negation_matches(
                            plans, db, negated_gains, whole=False
                        ))
                    for substitution in matches:
                        heads += _held_heads(plans, substitution, state, firings)
                for predicate, fact in heads:
                    if fact in state.edb.get(predicate, ()):
                        continue
                    if not db.has(predicate, fact):
                        continue
                    if fact in marked.get(predicate, ()):
                        continue
                    if fact in removed_seeds.get(predicate, ()):
                        continue
                    found.setdefault(predicate, {})[fact] = None
            negated_gains = {}
            for predicate, facts in found.items():
                marked.setdefault(predicate, {}).update(facts)
            if sum(map(len, marked.values())) > limit:
                raise _Degenerate
            frontier = found
    finally:
        for relation, graves, fact, grave in shown:
            if grave is None:
                graves[fact] = relation.bury(fact)  # later strata flip it
            else:
                relation.rebury(grave)
    return marked, firings, touched


def _rebuild_groups(
    rule: RulePlan, db: Database, groups: Iterable[Tuple[Any, ...]]
) -> None:
    """Refill the buckets of ``groups`` from the matches that survive,
    by the contribution body joined with the group bound; a group
    nothing contributes to any more leaves the state."""
    plan = rule.plans.aggregate_plan()
    retained = rule.aggregate
    buckets = retained.accumulator.state()
    for group in groups:
        witness = retained.witnesses.get(group)
        if witness is None:
            continue  # only ever matched through a fact of this update
        buckets.pop(group, None)
        for substitution in execute_plan(plan.group_plan(), db, witness):
            retained.accumulator.contribute(*plan.contribution(substitution))
        if group not in buckets:
            del retained.witnesses[group]


def _deletion_pass(
    engine: Any,
    state: MaterializedState,
    stratum: StratumPlan,
    db: Database,
    removed_seeds: Changes,
    negated_gains: Changes,
    stats: Any,
    added_now: Changes,
    removed_now: Changes,
    result: DeltaResult,
) -> Changes:
    """DRed one stratum; returns the re-derived facts (insertion seeds).

    An over-deleted existential firing that some writer still derives
    gets *the same facts* back, nulls included; one that none does
    waits in ``NullFactory.reclaim`` (the caller empties it after the
    insertion pass) in case the cascade derives its pattern again.
    """
    marked, firings, touched = _overdelete_joins(
        engine, state, stratum, db, removed_seeds, negated_gains, stats
    )
    for predicate, facts in marked.items():
        relation = db.relation(predicate)
        removed_now.setdefault(predicate, {}).update(map(relation.retract, facts))
    result.overdeleted += sum(len(facts) for facts in marked.values())
    nulls = state.nulls
    held = {
        firing: nulls.minted[firing[0]].pop(firing[1]) for firing in firings
    }
    for rule, groups in touched.items():
        _rebuild_groups(rule, db, groups)

    # Re-derivation candidates: every over-deleted fact, plus incoming
    # removed facts this stratum's rules could still derive (an upstream
    # retraction does not retract an independently derivable fact).
    # Every writer of the predicate is tried.
    writers = stratum.writers
    candidates: Changes = {}
    for predicate, facts in marked.items():
        candidates.setdefault(predicate, {}).update(facts)
    for predicate, facts in removed_seeds.items():
        if predicate in writers:
            candidates.setdefault(predicate, {}).update(facts)

    rederived: Changes = {}

    def put_back(predicate: str, fact: Fact) -> None:
        if db.add(predicate, fact):
            stats.facts_derived += 1
            result.rederived += 1
            rederived.setdefault(predicate, {})[fact] = None
            added_now.setdefault(predicate, {})[fact] = None

    for firing, assignments in held.items():
        if any(
            _derives(db, rule, None, _unify_firing(rule.plans, firing))
            for rule, head_index in writers[firing[0]]
            if head_index == 0 and rule.plans.existentials
        ):
            nulls.minted[firing[0]][firing[1]] = assignments
            for predicate, fact in _firing_facts(firing, assignments):
                put_back(predicate, fact)
        else:
            nulls.reclaim.setdefault(firing[0], {})[firing[1]] = assignments
    for predicate, facts in candidates.items():
        for fact in facts:
            if not db.has(predicate, fact) and any(
                _derives(
                    db, rule, head_index,
                    _unify_head_fact(rule.plans, head_index, fact),
                )
                for rule, head_index in writers.get(predicate, ())
            ):
                put_back(predicate, fact)
    return rederived


# ---------------------------------------------------------------------------
# Boundary recompute
# ---------------------------------------------------------------------------


def _recompute_stratum(
    engine: Any,
    state: MaterializedState,
    stratum: StratumPlan,
    index: int,
    db: Database,
    stats: Any,
    added_now: Changes,
    removed_now: Changes,
) -> None:
    """Re-run one stratum from its boundary (the non-monotone fallback).

    Every predicate this stratum's rules write resets to the
    post-update extensional baseline, then the engine's own stratum
    evaluator re-runs against the already-updated upstream state.  An
    existential head that is derived again takes back the nulls it had
    (:class:`~repro.vadalog.terms.NullFactory`), so the before/after
    diff — each side in its rows' order — is the net change and becomes
    the downstream delta.
    """
    before = {
        predicate: dict.fromkeys(db.relation(predicate))
        for predicate in stratum.heads
    }
    nulls = state.nulls
    for predicate in stratum.heads:
        db.reset(predicate, state.edb.get(predicate, set()))
        if predicate in nulls.minted:
            nulls.reclaim[predicate] = nulls.minted.pop(predicate)
    try:
        engine._evaluate_stratum(
            stratum.stratum, index, db, stats, nulls, state.skolems,
            state.aggregates,
        )
    finally:
        nulls.reclaim = {}  # unclaimed: the firing is gone, so are its nulls
        for rule in stratum.rules:
            if rule.plans.is_aggregate:
                rule.aggregate = state.aggregates.get(rule.plans.rule)
    for predicate in stratum.heads:
        after = dict.fromkeys(db.relation(predicate))
        gained = {fact: None for fact in after if fact not in before[predicate]}
        lost = {fact: None for fact in before[predicate] if fact not in after}
        if gained:
            added_now.setdefault(predicate, {}).update(gained)
        if lost:
            removed_now.setdefault(predicate, {}).update(lost)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _normalize(
    delta: Optional[Dict[str, Iterable[Sequence[Any]]]]
) -> Dict[str, Dict[Fact, None]]:
    """The requested facts per predicate, deduplicated in the order
    given (a ``dict`` as an ordered set); a ``set``, which has no order
    to give and whose facts have no row yet, in ``fact_sort_key`` order."""
    return {
        predicate: dict.fromkeys(
            sorted(map(tuple, facts), key=fact_sort_key)
            if isinstance(facts, (set, frozenset)) else map(tuple, facts)
        )
        for predicate, facts in (delta or {}).items()
    }


def _restrict(changes: Changes, predicates: Set[str]) -> Changes:
    """The non-empty buckets of ``predicates`` — the objects, in the
    order they are in: a stratum joins them as they are."""
    return {p: facts for p, facts in changes.items() if facts and p in predicates}


def _merge_net(
    pending_add: Changes,
    pending_remove: Changes,
    gained: Changes,
    lost: Changes,
) -> None:
    """Fold one stratum's net changes into the running per-update net,
    each bucket growing in the order its facts came.

    A fact that reappears after being removed (or vanishes after being
    added) earlier in the same update cancels out — downstream strata
    and the caller only ever see net changes relative to the pre-update
    state.
    """
    for mine, theirs, changes in (
        (pending_remove, pending_add, lost),
        (pending_add, pending_remove, gained),
    ):
        for predicate, facts in changes.items():
            cancelled = theirs.get(predicate, {})
            bucket = mine.setdefault(predicate, {})
            for fact, grave in facts.items():
                if fact in cancelled:
                    del cancelled[fact]
                else:
                    bucket[fact] = grave


def apply_delta(
    engine: Any,
    result: Any,
    added: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
    removed: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
) -> DeltaResult:
    """Maintain a retained chase result under extensional changes.

    ``result`` is an :class:`~repro.vadalog.engine.EvaluationResult`
    produced with ``retain_state=True`` (or its ``.state``).  The
    retained database is updated **in place**; the returned
    :class:`DeltaResult` lists every net per-predicate change,
    extensional changes included.

    Removals of facts that are not part of the extensional snapshot are
    ignored (counted in ``skipped_removals``): derived facts cannot be
    retracted, only their extensional premises can.

    New extensional facts enter their relation in the order ``added``
    lists them, so a caller that passes a sequence decides the row order
    (a set leaves it to the hash seed).
    """
    state = getattr(result, "state", result)
    if not isinstance(state, MaterializedState):
        raise EvaluationError(
            "apply_delta needs a result produced with retain_state=True "
            "(truncated runs retain no state)"
        )
    start = time.perf_counter()
    db = state.database
    tracer = engine.tracer
    governor = engine.governor
    if governor is not None:
        governor.begin()
    stats = result.stats if hasattr(result, "stats") else None
    local = EvaluationStats()
    delta_result = DeltaResult()

    add_request = _normalize(added)
    remove_request = _normalize(removed)

    span = (
        tracer.span(
            "incr.apply_delta",
            added=sum(len(f) for f in add_request.values()),
            removed=sum(len(f) for f in remove_request.values()),
        )
        if tracer is not None
        else None
    )
    try:
        # ---- extensional changes -------------------------------------
        requested_add: Dict[str, List[Fact]] = {}
        requested_remove: Changes = {}
        for predicate, facts in remove_request.items():
            edb_facts = state.edb.get(predicate, ())
            held = requested_remove[predicate] = {
                f: None for f in facts if f in edb_facts
            }
            delta_result.skipped_removals += len(facts) - len(held)
        for predicate, facts in add_request.items():
            removed_bucket = requested_remove.get(predicate)
            for fact in facts:
                if removed_bucket and fact in removed_bucket:
                    # Removed and re-added in one delta: a net no-op.
                    del removed_bucket[fact]
                elif fact not in state.edb.get(predicate, ()):
                    requested_add.setdefault(predicate, []).append(fact)

        # The running net, in row order: the removals as they are
        # buried, the additions as their relations append them.
        plans = state.stratum_plans(engine)
        # A removed fact is reported as its row held it (``1`` where the
        # request or a derivation says ``True``).
        pending_remove: Changes = {}
        for predicate, facts in requested_remove.items():
            if facts:
                relation = db.relation(predicate)
                pending_remove[predicate] = dict(map(relation.retract, facts))
                state.edb[predicate].difference_update(facts)
        pending_add: Changes = {}
        for predicate, facts in requested_add.items():
            state.edb.setdefault(predicate, set()).update(facts)
            # Facts already derivable need no propagation, but still
            # count as extensional now; only genuinely-new facts seed
            # the chase.
            new = {f: None for f in facts if db.add(predicate, f)}
            if new:
                pending_add[predicate] = new

        if not pending_add and not pending_remove:
            delta_result.strata_skipped = len(plans)
            return delta_result

        # ---- stratum-by-stratum maintenance --------------------------
        add_keys = {p for p, facts in pending_add.items() if facts}
        rm_keys = {p for p, facts in pending_remove.items() if facts}
        changed = add_keys | rm_keys
        for index, stratum in enumerate(plans):
            if stratum.reach.isdisjoint(changed):
                delta_result.strata_skipped += 1
                continue
            mode, refusal = _classify_stratum(state, stratum, add_keys, rm_keys)
            added_now: Changes = {}
            removed_now: Changes = {}
            if mode != _RECOMPUTE:
                # A fact a negated predicate gained retracts like a
                # removal, one it lost derives like an addition.
                removal_seeds = _restrict(pending_remove, stratum.retracts)
                negated_gains = _restrict(pending_add, stratum.negated)
                rederived: Changes = {}
                try:
                    if removal_seeds or negated_gains:
                        before = delta_result.overdeleted, delta_result.rederived
                        dred_span = (
                            tracer.span("incr.dred", stratum=index)
                            if tracer is not None
                            else None
                        )
                        try:
                            rederived = _deletion_pass(
                                engine, state, stratum, db, removal_seeds,
                                negated_gains, local, added_now, removed_now,
                                delta_result,
                            )
                        finally:
                            if dred_span is not None:
                                dred_span.set(
                                    overdeleted=delta_result.overdeleted - before[0],
                                    rederived=delta_result.rederived - before[1],
                                )
                                dred_span.__exit__(None, None, None)
                    seeds = _restrict(pending_add, stratum.reads)
                    for predicate, facts in rederived.items():
                        seeds[predicate] = {**seeds.get(predicate, {}), **facts}
                    _insertion_pass(
                        engine, state, stratum, db, seeds,
                        _restrict(pending_remove, stratum.negated),
                        local, added_now,
                    )
                    delta_result.strata_incremental += 1
                except _Degenerate:
                    mode, refusal = _RECOMPUTE, (stratum.rules[0].label, _DEGENERATE)
                finally:
                    # Firings nothing derived again: their nulls go.
                    state.nulls.reclaim = {}
            if mode == _RECOMPUTE:
                try:
                    _recompute_stratum(
                        engine, state, stratum, index, db, local,
                        added_now, removed_now,
                    )
                except _BudgetStop as stop:
                    raise ResourceLimitError(
                        f"governor budget exceeded during incremental "
                        f"recompute of stratum {index}: {stop.violation}",
                        resource=stop.violation.resource,
                        limit=stop.violation.limit,
                        stats=local,
                    ) from stop
                delta_result.recompute_reasons.append((index, *refusal))
            if added_now or removed_now:
                _merge_net(pending_add, pending_remove, added_now, removed_now)
                add_keys = {p for p, facts in pending_add.items() if facts}
                rm_keys = {p for p, facts in pending_remove.items() if facts}
                changed = add_keys | rm_keys
            if governor is not None:
                violation = governor.check(local)
                if violation is not None:
                    raise ResourceLimitError(
                        str(violation),
                        resource=violation.resource,
                        limit=violation.limit,
                        stats=local,
                    )

        delta_result.added = {p: f.keys() for p, f in pending_add.items() if f}
        delta_result.removed = {p: f.keys() for p, f in pending_remove.items() if f}
        return delta_result
    finally:
        delta_result.elapsed_seconds = time.perf_counter() - start
        if stats is not None:
            stats.rule_firings += local.rule_firings
            stats.columnar_firings += local.columnar_firings
            stats.facts_derived += local.facts_derived
            stats.iterations += local.iterations
            stats.nulls_created += local.nulls_created
        if tracer is not None:
            if delta_result.strata_recomputed:
                tracer.count(
                    "incr.strata_recomputed", delta_result.strata_recomputed
                )
            if delta_result.overdeleted:
                tracer.count("incr.overdeleted", delta_result.overdeleted)
            if delta_result.rederived:
                tracer.count("incr.rederived", delta_result.rederived)
        if span is not None:
            span.set(
                strata_skipped=delta_result.strata_skipped,
                strata_incremental=delta_result.strata_incremental,
                strata_recomputed=delta_result.strata_recomputed,
                net_added=delta_result.total_added,
                net_removed=delta_result.total_removed,
            )
            span.__exit__(None, None, None)
