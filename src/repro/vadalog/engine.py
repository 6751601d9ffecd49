"""Chase-based evaluation engine for the Vadalog substitute.

The engine implements the reasoning semantics of Section 4:

- **Existential rules / restricted chase.** "The chase alters D by adding
  new facts, possibly with fresh labeled nulls for existentially
  quantified variables, until Sigma(D) satisfies all the existential
  rules."  We implement the *restricted* chase: a rule with existential
  head variables fires for a body match only when no extension of the
  match already satisfies the head conjunction, which is what makes warded
  programs terminate in practice.
- **Linker Skolem functors.** Head terms ``#sk(x, y)`` produce interned
  :class:`~repro.vadalog.terms.SkolemValue` objects — injective,
  deterministic, range-disjoint, exactly the Section 4 requirements.
- **Stratified negation** and **monotonic aggregation** (see
  :mod:`repro.vadalog.aggregates`).
- **Semi-naive evaluation** of recursive strata: after the first round,
  a rule joins only the previous round's new facts, taken in the order
  their relations appended them, and an aggregate rule contributes only their
  matches into the accumulator its first round built, re-emitting the
  groups they touch.

Rule bodies are evaluated through compiled join plans
(:mod:`repro.vadalog.plan`): the join order, index probes, and binding
slots are computed once per rule and cached on the engine, and the
executor backtracks over one mutable substitution instead of copying
dicts per candidate.  The plans read one fact store — every relation of
a :class:`~repro.vadalog.database.Database` holds dictionary codes over
one value interner — join its code columns, and fire a rule on them
where its shape allows.

This is the one execution path: no constructor argument selects another.
The tests hold it to the interpreted matcher and the naive (every round
whole) chase, kept as ``InterpretedEngine`` and ``NaiveEngine`` in
``tests/reference.py``.

Typical use::

    engine = Engine()
    result = engine.run(program, inputs={"own": [(a, b, 0.6), ...]})
    result.facts("controls")
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ResourceLimitError, VadalogError
from repro.obs.governor import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_FIXPOINT,
    BudgetExceeded,
    ResourceGovernor,
)
from repro.obs.tracer import Tracer
from repro.vadalog.ast import Program, Rule
from repro.vadalog.database import Database, Fact
from repro.vadalog.plan import (
    AggregateState,
    Changes,
    RulePlans,
    body_columns,
    execute_plan,
)
from repro.vadalog.stratify import Stratum, stratify
from repro.vadalog.terms import NullFactory, SkolemFunctor
from repro.vadalog.warded import check_warded


@dataclass
class EvaluationStats:
    """Counters describing one engine run."""

    iterations: int = 0
    rule_firings: int = 0
    #: The firings instantiated on code columns (a subset of
    #: ``rule_firings``), not one substitution at a time.
    columnar_firings: int = 0
    facts_derived: int = 0
    nulls_created: int = 0
    elapsed_seconds: float = 0.0
    strata: int = 0
    plans_compiled: int = 0


class _BudgetStop(Exception):
    """Internal: a graceful governor cutoff; never escapes ``Engine.run``."""

    def __init__(self, violation: BudgetExceeded):
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class EvaluationResult:
    """Outcome of :meth:`Engine.run`: the saturated database + statistics.

    ``status`` is :data:`~repro.obs.governor.STATUS_FIXPOINT` when the
    chase saturated, or :data:`~repro.obs.governor.STATUS_BUDGET_EXCEEDED`
    when a graceful :class:`~repro.obs.governor.ResourceGovernor` cut the
    run short — then ``violation`` says which budget tripped and the
    database holds every fact derived up to the cutoff.

    **Snapshot semantics.** :meth:`facts`, :meth:`outputs` and
    :meth:`per_stratum_facts` return snapshots that later engine activity
    cannot mutate.  ``database`` itself, by contrast, is a *live* view:
    when the result was produced with ``retain_state=True`` it is the very
    database that :meth:`Engine.apply_delta` updates in place.  Callers
    that need a stable copy of the whole database should call
    ``result.database.copy()`` (or use the snapshot methods).
    """

    database: Database
    stats: EvaluationStats
    program: Program
    status: str = STATUS_FIXPOINT
    violation: Optional[BudgetExceeded] = None
    #: Retained evaluation state (``run(retain_state=True)`` only); the
    #: handle :meth:`Engine.apply_delta` propagates incremental updates
    #: through.  ``None`` for ordinary runs and for truncated runs, whose
    #: unsaturated strata would be unsound to update.
    state: Optional[Any] = None

    @property
    def truncated(self) -> bool:
        """True when the result is partial (a budget stopped the chase)."""
        return self.status == STATUS_BUDGET_EXCEEDED

    def facts(self, predicate: str) -> Set[Fact]:
        """A snapshot set of the facts of ``predicate`` after the chase."""
        return self.database.facts(predicate)

    def outputs(self) -> Dict[str, Set[Fact]]:
        """Facts of each ``@output`` predicate."""
        return {p: self.database.facts(p) for p in self.program.output_predicates()}

    def per_stratum_facts(self) -> Dict[int, Dict[str, FrozenSet[Fact]]]:
        """Stable per-stratum snapshot of the database.

        Returns ``{stratum index: {predicate: frozenset of facts}}`` where
        stratum indexes follow the stratification of ``program`` and the
        key ``-1`` collects predicates no stratum owns (extensional-only
        relations).  Every set is frozen at call time, so the snapshot is
        immune to later ``apply_delta`` activity — this is the supported
        way to observe the engine's stratum partition, replacing any need
        to reach into engine internals.
        """
        if self.state is not None:
            strata = self.state.strata
        else:
            rules = [rule for rule in self.program.rules if rule.body]
            strata = stratify(Program(
                rules=rules, annotations=list(self.program.annotations)
            ))
        snapshot: Dict[int, Dict[str, FrozenSet[Fact]]] = {}
        owned: Set[str] = set()
        for index, stratum in enumerate(strata):
            snapshot[index] = {
                predicate: frozenset(self.database.relation(predicate))
                for predicate in sorted(stratum.predicates)
            }
            owned |= stratum.predicates
        snapshot[-1] = {
            predicate: frozenset(self.database.relation(predicate))
            for predicate in self.database.predicates()
            if predicate not in owned
        }
        return snapshot


class Engine:
    """The chase engine: compiled plans, semi-naive rounds.

    No parameter selects another execution path; the interpreted and
    naive reference chases override :meth:`_fire_rules` in subclasses
    the tests keep.

    Parameters
    ----------
    max_iterations:
        Fixpoint-iteration cap per stratum (termination guard).
    max_nulls:
        Cap on invented labeled nulls across the whole run.
    check_wardedness:
        When True (default) the program is statically analyzed and a
        :class:`~repro.errors.WardednessError` is raised for non-warded
        programs, mirroring the Vadalog System's admission control.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When set, every run
        emits a root span, one span per stratum, one span per rule
        invocation (with firing counts), and derivation/dedup/null
        counters.  A tracer observes the run; it never changes which
        executor a rule takes.
    governor:
        Optional :class:`~repro.obs.governor.ResourceGovernor`.  In
        graceful mode a tripped budget ends the run early with a partial
        database and ``status == "budget_exceeded"``; in strict mode it
        raises :class:`~repro.errors.ResourceLimitError`.
    """

    def __init__(
        self,
        max_iterations: int = 100_000,
        max_nulls: int = 1_000_000,
        check_wardedness: bool = True,
        tracer: Optional[Tracer] = None,
        governor: Optional[ResourceGovernor] = None,
    ):
        self.max_iterations = max_iterations
        self.max_nulls = max_nulls
        self.check_wardedness = check_wardedness
        self.tracer = tracer
        self.governor = governor
        # Rule -> RulePlans; rules are frozen dataclasses, so structurally
        # equal rules (across programs) share one compiled plan bundle.
        self._plan_cache: Dict[Any, RulePlans] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        database: Optional[Database] = None,
        inputs: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
        retain_state: bool = False,
        copy_database: bool = True,
        strata: Optional[List[Stratum]] = None,
    ) -> EvaluationResult:
        """Saturate ``database`` (copied) with ``program`` and return it.

        ``copy_database=False`` evaluates in place, mutating the caller's
        ``database`` — for pipeline stages that own their staging database
        and would otherwise pay a full-extension copy per phase.

        ``retain_state`` keeps the evaluation state — the stratification,
        saturated aggregate accumulators, null/Skolem factories — on
        ``result.state`` so :meth:`apply_delta` can propagate later
        insertions and deletions without re-running the chase.  The
        extension stays in the database's relations; only facts supplied
        for a predicate the rules also derive are copied aside.

        ``strata`` is ``stratify`` of ``program``'s rules that have a
        body, from a caller that runs one program many times (a cached
        query rewrite); a run only reads it.
        """
        start = time.perf_counter()
        tracer = self.tracer
        governor = self.governor
        self._validate(program)
        if self.check_wardedness:
            check_warded(program).raise_if_violated()

        if database is None:
            db = Database()
        elif copy_database:
            db = database.copy()
        else:
            db = database
        if inputs:
            for predicate, facts in inputs.items():
                db.add_all(predicate, facts)

        stats = EvaluationStats()
        nulls = NullFactory()
        skolems: Dict[str, SkolemFunctor] = {}

        # Facts written as empty-body rules.
        rules: List[Rule] = []
        for rule in program.rules:
            if not rule.body:
                for atom in rule.head:
                    if atom.variables():
                        raise VadalogError(f"non-ground fact: {atom}")
                    db.add(atom.predicate, atom.terms)
            else:
                rules.append(rule)

        working = Program(rules=rules, annotations=list(program.annotations))
        if strata is None:
            strata = stratify(working)
        stats.strata = len(strata)

        state = None
        aggregates: Dict[Rule, AggregateState] = {}
        if retain_state:
            from repro.vadalog.incremental import MaterializedState

            state = MaterializedState(
                program=program,
                working=working,
                strata=strata,
                database=db,
                nulls=nulls,
                skolems=skolems,
            )
            aggregates = state.aggregates
            nulls.minted = {}  # remembered for null-stable recomputes

        if governor is not None:
            governor.begin()
        status = STATUS_FIXPOINT
        violation: Optional[BudgetExceeded] = None
        root = (
            tracer.span(
                "engine.run",
                rules=len(program.rules),
                strata=len(strata),
            )
            if tracer is not None
            else None
        )
        try:
            for index, stratum in enumerate(strata):
                self._evaluate_stratum(
                    stratum, index, db, stats, nulls, skolems, aggregates
                )
        except _BudgetStop as stop:
            status = STATUS_BUDGET_EXCEEDED
            violation = stop.violation
            # A truncated run retains nothing: its unsaturated strata
            # would be unsound to update incrementally.
            state = None
            if tracer is not None:
                tracer.event(
                    "engine.budget_exceeded",
                    resource=stop.violation.resource,
                    detail=str(stop.violation),
                )
        finally:
            stats.elapsed_seconds = time.perf_counter() - start
            if root is not None:
                root.set(
                    status=status,
                    iterations=stats.iterations,
                    rule_firings=stats.rule_firings,
                    facts_derived=stats.facts_derived,
                    nulls_created=stats.nulls_created,
                )
                root.__exit__(None, None, None)
        result = EvaluationResult(
            database=db,
            stats=stats,
            program=program,
            status=status,
            violation=violation,
            state=state,
        )
        return result

    # ------------------------------------------------------------------
    def apply_delta(
        self,
        result: Any,
        added: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
        removed: Optional[Dict[str, Iterable[Sequence[Any]]]] = None,
    ) -> "Any":
        """Propagate extensional insertions/deletions through a retained run.

        ``result`` is an :class:`EvaluationResult` produced with
        ``retain_state=True`` (or its ``.state`` directly).  Returns a
        :class:`~repro.vadalog.incremental.DeltaResult` describing every
        per-predicate change; the retained database is updated in place.
        See :mod:`repro.vadalog.incremental` for the maintenance strategy
        (semi-naive insertion deltas, DRed deletion, per-stratum safety
        fallbacks).
        """
        from repro.vadalog.incremental import apply_delta

        return apply_delta(self, result, added=added, removed=removed)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self, program: Program) -> None:
        for rule in program.rules:
            if not rule.head:
                raise VadalogError(f"rule with empty head: {rule}")
            if not rule.body:
                continue
            positive = rule.positive_variables()
            reachable = set(positive)
            for assignment in rule.assignments():
                reachable.add(assignment.target)
            for negated in rule.negated_atoms():
                unbound = {
                    v for v in negated.variables()
                    if v not in reachable and v.name != "_"
                }
                if unbound:
                    raise VadalogError(
                        f"unsafe negation in {rule}: variables "
                        f"{sorted(v.name for v in unbound)} not bound positively"
                    )
            aggregates = [a for a in rule.assignments() if a.is_aggregate]
            if len(aggregates) > 1:
                raise VadalogError(
                    f"at most one aggregate assignment per rule: {rule}"
                )

    # ------------------------------------------------------------------
    # Stratum evaluation
    # ------------------------------------------------------------------
    def _evaluate_stratum(
        self,
        stratum: Stratum,
        index: int,
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
        aggregates: Dict[Rule, AggregateState],
    ) -> None:
        """Saturate one stratum; ``aggregates`` receives the state of
        every aggregate rule it evaluates (the one the run used, for a
        retaining caller to keep)."""
        tracer = self.tracer
        governor = self.governor
        span = (
            tracer.span(
                "engine.stratum",
                index=index,
                recursive=stratum.recursive,
                predicates=sorted(stratum.predicates),
            )
            if tracer is not None
            else None
        )
        iterations = 0
        try:
            if not stratum.recursive:
                self._fire_rules(
                    stratum.rules, db, stats, nulls, skolems, aggregates, None
                )
                # A non-recursive stratum still needs a second pass when a
                # rule both reads and writes predicates local to the stratum
                # (this cannot happen by construction, but the invariant is
                # cheap to keep if stratification ever coarsens).
                if governor is not None:
                    violation = governor.check(stats)
                    if violation is not None:
                        self._trip(violation, stats)
                return

            # Recursive stratum: iterate to fixpoint.
            recursive_predicates = stratum.predicates
            delta: Optional[Changes] = None
            for iteration in range(self.max_iterations):
                stats.iterations += 1
                iterations = iteration + 1
                new_delta = self._fire_rules(
                    stratum.rules, db, stats, nulls, skolems, aggregates,
                    delta, recursive_predicates=recursive_predicates,
                )
                if not any(new_delta.values()):
                    return
                delta = new_delta
                if governor is not None:
                    violation = governor.check(stats)
                    if violation is None and (
                        governor.max_stratum_iterations is not None
                        and iterations >= governor.max_stratum_iterations
                    ):
                        # More work remains but the next iteration would
                        # bust the cap: stop now, cleanly.
                        violation = BudgetExceeded(
                            "iterations",
                            governor.max_stratum_iterations,
                            iterations,
                            f"stratum {index}",
                        )
                    if violation is not None:
                        self._trip(violation, stats)
            raise ResourceLimitError(
                f"stratum over {sorted(stratum.predicates)} did not reach a "
                f"fixpoint within {self.max_iterations} iterations",
                resource="iterations",
                limit=self.max_iterations,
                stats=stats,
            )
        finally:
            if span is not None:
                span.set(iterations=iterations)
                span.__exit__(None, None, None)

    def _trip(self, violation: BudgetExceeded, stats: EvaluationStats) -> None:
        """Stop the run on a governor violation (graceful or strict)."""
        if self.governor is not None and self.governor.graceful:
            raise _BudgetStop(violation)
        raise ResourceLimitError(
            str(violation),
            resource=violation.resource,
            limit=violation.limit,
            stats=stats,
        )

    def _fire_rules(
        self,
        rules: List[Rule],
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
        aggregates: Dict[Rule, AggregateState],
        delta: Optional[Changes],
        recursive_predicates: Optional[Set[str]] = None,
    ) -> Changes:
        """Fire every rule once; returns the per-predicate new facts, in
        the order their relations appended them.

        ``delta`` is ``None`` in a stratum's first round: each rule then
        joins its whole body and an aggregate rule starts a fresh state in
        ``aggregates``.  Otherwise it holds the previous round's new
        facts, and only matches using one of them fire.
        """
        tracer = self.tracer
        new_facts: Changes = {}
        pending: List[Tuple[str, Fact]] = []
        for rule_index, rule in enumerate(rules):
            span = None
            path = "matches"
            before_firings = stats.rule_firings
            before_pending = len(pending)
            before_nulls = stats.nulls_created
            if tracer is not None:
                span = tracer.span(
                    "engine.rule",
                    label=rule.label or f"r{rule_index}",
                    rule=str(rule),
                )
            try:
                plans = self._plans_for(rule, stats)
                in_recursion = bool(
                    recursive_predicates
                    and rule.body_predicates() & recursive_predicates
                )
                if plans.is_aggregate and delta is None:
                    aggregates[rule] = AggregateState(
                        plans.aggregate_plan().call.function,
                        recursive=in_recursion,
                    )
                state = aggregates.get(rule)
                columns = plans.columns(db, delta, state)
                fired = columns and plans.fire_columns(
                    columns, db, stats, nulls, self.max_nulls
                )
                if fired is not None:
                    path = "columns"
                    pending.extend(fired)
                    matches = ()
                elif columns is not None:
                    matches = columns.substitutions()
                elif plans.is_aggregate:
                    plan = plans.aggregate_plan()
                    if delta is not None:
                        contributions = plan.delta_matches(db, delta)
                    else:
                        contributions = execute_plan(plan.pre_plan, db)
                    matches = plan.evaluate(state, contributions)
                elif delta is not None:
                    matches = plans.delta_matches(db, delta)
                else:
                    # A Skolem head fires per match, but the join
                    # itself can still run vectorized.
                    body = body_columns(plans.body_plan(), db)
                    matches = (
                        body.substitutions() if body is not None
                        else execute_plan(plans.body_plan(), db)
                    )
                for substitution in matches:
                    stats.rule_firings += 1
                    for predicate, fact in plans.instantiate_head(
                        substitution, db, stats, nulls, skolems, self.max_nulls
                    ):
                        pending.append((predicate, fact))
            finally:
                if span is not None:
                    firings = stats.rule_firings - before_firings
                    produced = len(pending) - before_pending
                    invented = stats.nulls_created - before_nulls
                    span.set(
                        firings=firings, produced=produced, nulls=invented,
                        path=path,
                    )
                    tracer.count("engine.rule_firings", firings)
                    if invented:
                        tracer.count("engine.nulls_created", invented)
                    span.__exit__(None, None, None)
            self._check_rule_budget(pending, db, stats, new_facts)
        self._commit_pending(pending, db, stats, new_facts)
        return new_facts

    def _check_rule_budget(
        self,
        pending: List[Tuple[str, Fact]],
        db: Database,
        stats: EvaluationStats,
        new_facts: Changes,
    ) -> None:
        """The governor's check after each rule: time and nulls."""
        governor = self.governor
        if governor is not None:
            violation = governor.check_time() or governor.check_nulls(
                stats.nulls_created
            )
            if violation is not None:
                # Keep the work done so far: commit before stopping.
                self._commit_pending(pending, db, stats, new_facts)
                self._trip(violation, stats)

    def _commit_pending(
        self,
        pending: List[Tuple[str, Fact]],
        db: Database,
        stats: EvaluationStats,
        new_facts: Changes,
    ) -> None:
        """Deduplicating insert of the derived facts into the database."""
        added = 0
        if len(pending) >= 256:
            # Bulk path: group by predicate (facts of different
            # predicates dedup independently, so grouping preserves
            # sequential-add semantics) and insert each group in one
            # vectorized call.
            grouped: Dict[str, List[Fact]] = {}
            for predicate, fact in pending:
                bucket = grouped.get(predicate)
                if bucket is None:
                    grouped[predicate] = [fact]
                else:
                    bucket.append(fact)
            for predicate, facts in grouped.items():
                new = db.add_all_report(predicate, facts)
                if new:
                    added += len(new)
                    new_facts.setdefault(predicate, {}).update(dict.fromkeys(new))
        else:
            for predicate, fact in pending:
                if db.add(predicate, fact):
                    added += 1
                    new_facts.setdefault(predicate, {})[fact] = None
        stats.facts_derived += added
        if self.tracer is not None and pending:
            self.tracer.count("engine.facts_derived", added)
            self.tracer.count("engine.dedup_hits", len(pending) - added)
        pending.clear()

    # ------------------------------------------------------------------
    # Compiled plans
    # ------------------------------------------------------------------
    def _plans_for(self, rule: Rule, stats: EvaluationStats) -> RulePlans:
        plans = self._plan_cache.get(rule)
        if plans is None:
            plans = RulePlans(rule)
            self._plan_cache[rule] = plans
            stats.plans_compiled += 1
        return plans
