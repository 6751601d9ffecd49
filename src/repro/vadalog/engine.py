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
- **Stratified negation** and **aggregation** with monotonic in-stratum
  recomputation (see :mod:`repro.vadalog.aggregates`).
- **Semi-naive evaluation** for pure positive recursive rules, with naive
  recomputation for aggregate rules.

Rule bodies are evaluated through compiled join plans
(:mod:`repro.vadalog.plan`): the join order, index probes, and binding
slots are computed once per rule and cached on the engine, and the
executor backtracks over one mutable substitution instead of copying
dicts per candidate.  ``Engine(use_plans=False)`` selects the original
interpreted matcher — kept as the differential-testing oracle and the
ablation baseline.

Typical use::

    engine = Engine()
    result = engine.run(program, inputs={"own": [(a, b, 0.6), ...]})
    result.facts("controls")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, ResourceLimitError, VadalogError
from repro.obs.governor import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_FIXPOINT,
    BudgetExceeded,
    ResourceGovernor,
)
from repro.obs.tracer import Tracer
from repro.vadalog.aggregates import CANONICAL, GroupAccumulator, is_monotonic
from repro.vadalog.ast import (
    AggregateCall,
    Assignment,
    Atom,
    BinOp,
    Condition,
    Expression,
    FunctionCall,
    NegatedAtom,
    Program,
    Rule,
    SkolemTerm,
    TermExpr,
)
from repro.vadalog.database import Database, Fact
from repro.vadalog.plan import (
    BUILTIN_FUNCTIONS,
    RulePlans,
    apply_binop as _apply_binop,
    check_condition as _plan_check_condition,
    evaluate_expression as _plan_evaluate,
    execute_plan,
    execute_plan_batch,
    find_aggregate as _find_aggregate,
    vectorized_body_substitutions,
    vectorized_rule_matches,
    values_equal as _values_equal,
)
from repro.vadalog.stratify import Stratum, stratify
from repro.vadalog.terms import (
    NullFactory,
    SkolemFunctor,
    Variable,
    is_variable,
)
from repro.vadalog.warded import check_warded

Substitution = Dict[Variable, Any]


@dataclass
class EvaluationStats:
    """Counters describing one engine run."""

    iterations: int = 0
    rule_firings: int = 0
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
    """The chase engine.

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
    use_plans:
        When True (default) rule bodies run through compiled join plans
        (:mod:`repro.vadalog.plan`), cached across runs of this engine.
        When False the original interpreted matcher is used — the
        differential-testing oracle and ablation baseline.
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
        semi_naive: bool = True,
        use_plans: bool = True,
        tracer: Optional[Tracer] = None,
        governor: Optional[ResourceGovernor] = None,
        columnar: bool = True,
    ):
        self.max_iterations = max_iterations
        self.max_nulls = max_nulls
        self.check_wardedness = check_wardedness
        self.semi_naive = semi_naive
        self.use_plans = use_plans
        self.tracer = tracer
        self.governor = governor
        # Columnar (dictionary-encoded) fact storage with batch-at-a-time
        # plan execution; ``columnar=False`` keeps the original tuple-set
        # backend and tuple-at-a-time executor as a differential oracle.
        self.columnar = columnar
        # Rule -> RulePlans; rules are frozen dataclasses, so structurally
        # equal rules (across programs) share one compiled plan bundle.
        self._plan_cache: Dict[Any, RulePlans] = {}
        # Transient sink, set only while a retaining run (or an
        # incremental boundary recompute) is in flight; None keeps the
        # default hot path branchless beyond one cheap comparison.
        self._retain_sink: Optional[Any] = None

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
        and would otherwise pay a full-extension copy per phase.  A
        backend mismatch still converts (the conversion is itself a fresh
        database).

        ``retain_state`` keeps the evaluation state — the stratification,
        the extensional snapshot, saturated aggregate accumulators,
        null/Skolem factories — on ``result.state`` so
        :meth:`apply_delta` can propagate later insertions and deletions
        without re-running the chase.

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
            db = Database(columnar=self.columnar)
        elif database.columnar != self.columnar:
            db = database.to_backend(self.columnar)
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
            state.edb = {
                predicate: set(db.relation(predicate))
                for predicate in db.predicates()
            }
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
            if state is not None:
                self._retain_sink = state
            for index, stratum in enumerate(strata):
                self._evaluate_stratum(stratum, index, db, stats, nulls, skolems)
                if (
                    governor is not None
                    and governor.max_resident_facts is not None
                    and state is None
                    and db.columnar
                ):
                    # Stratum boundaries are safe points: no in-flight
                    # index iteration, so tombstones can be reclaimed and
                    # relations the remaining strata never read can move
                    # to cold column pages.
                    needed: Set[str] = set()
                    for later in strata[index + 1:]:
                        needed |= later.predicates
                        for later_rule in later.rules:
                            needed |= later_rule.body_predicates()
                    db.compact()
                    spilled = db.spill_over_budget(
                        governor.max_resident_facts, keep=needed
                    )
                    if spilled and tracer is not None:
                        tracer.event(
                            "engine.spilled",
                            relations=sorted(spilled),
                            resident=db.total_resident_facts(),
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
            self._retain_sink = None
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
        if state is not None:
            state.engine = self
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
    ) -> None:
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
                self._fire_rules(stratum.rules, db, stats, nulls, skolems, None)
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
            delta: Optional[Dict[str, Set[Fact]]] = None
            for iteration in range(self.max_iterations):
                stats.iterations += 1
                iterations = iteration + 1
                new_delta = self._fire_rules(
                    stratum.rules, db, stats, nulls, skolems,
                    delta if (self.semi_naive and iteration > 0) else None,
                    recursive_predicates=recursive_predicates,
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
        delta: Optional[Dict[str, Set[Fact]]],
        recursive_predicates: Optional[Set[str]] = None,
    ) -> Dict[str, Set[Fact]]:
        """Fire every rule once; returns the per-predicate new facts."""
        tracer = self.tracer
        governor = self.governor
        new_facts: Dict[str, Set[Fact]] = {}
        pending: List[Tuple[str, Fact]] = []
        for rule_index, rule in enumerate(rules):
            span = None
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
                plans: Optional[RulePlans] = None
                if self.use_plans:
                    plans = self._plans_for(rule, stats)
                in_recursion = bool(
                    recursive_predicates
                    and rule.body_predicates() & recursive_predicates
                )
                if plans is not None:
                    if plans.is_aggregate:
                        matches = self._aggregate_matches_plan(
                            plans, db, recursive=in_recursion
                        )
                    elif delta is not None and recursive_predicates:
                        matches = self._semi_naive_matches_plan(
                            plans, db, delta, recursive_predicates
                        )
                    elif db.columnar:
                        # Full evaluation of a simple rule: try the
                        # whole-plan vectorized join first.
                        vectorized = vectorized_rule_matches(plans, db)
                        if vectorized is not None:
                            firings, head_facts = vectorized
                            stats.rule_firings += firings
                            pending.extend(head_facts)
                            matches = ()
                        else:
                            # Complex heads (Skolems, existentials) need
                            # per-match work, but the join itself can
                            # still run vectorized.
                            matches = vectorized_body_substitutions(
                                plans.body_plan(), db
                            )
                            if matches is None:
                                matches = execute_plan_batch(plans.body_plan(), db)
                    else:
                        matches = execute_plan(plans.body_plan(), db)
                    for substitution in matches:
                        stats.rule_firings += 1
                        for predicate, fact in plans.instantiate_head(
                            substitution, db, stats, nulls, skolems, self.max_nulls
                        ):
                            pending.append((predicate, fact))
                else:
                    if rule.has_aggregate():
                        matches = self._aggregate_matches(
                            rule, db, recursive=in_recursion
                        )
                    elif delta is not None and recursive_predicates:
                        matches = self._semi_naive_matches(
                            rule, db, delta, recursive_predicates
                        )
                    else:
                        matches = self._match_body(list(rule.body), db, {})
                    for substitution in matches:
                        stats.rule_firings += 1
                        for predicate, fact in self._instantiate_head(
                            rule, substitution, db, stats, nulls, skolems
                        ):
                            pending.append((predicate, fact))
            finally:
                if span is not None:
                    firings = stats.rule_firings - before_firings
                    produced = len(pending) - before_pending
                    invented = stats.nulls_created - before_nulls
                    span.set(firings=firings, produced=produced, nulls=invented)
                    tracer.count("engine.rule_firings", firings)
                    if invented:
                        tracer.count("engine.nulls_created", invented)
                    span.__exit__(None, None, None)
            if governor is not None:
                violation = governor.check_time() or governor.check_nulls(
                    stats.nulls_created
                )
                if violation is not None:
                    # Keep the work done so far: commit before stopping.
                    self._commit_pending(pending, db, stats, new_facts)
                    self._trip(violation, stats)
        self._commit_pending(pending, db, stats, new_facts)
        return new_facts

    def _commit_pending(
        self,
        pending: List[Tuple[str, Fact]],
        db: Database,
        stats: EvaluationStats,
        new_facts: Dict[str, Set[Fact]],
    ) -> None:
        """Deduplicating insert of the derived facts into the database."""
        added = 0
        if db.columnar and len(pending) >= 256:
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
                    new_facts.setdefault(predicate, set()).update(new)
        else:
            for predicate, fact in pending:
                if db.add(predicate, fact):
                    added += 1
                    new_facts.setdefault(predicate, set()).add(fact)
        stats.facts_derived += added
        if self.tracer is not None and pending:
            self.tracer.count("engine.facts_derived", added)
            self.tracer.count("engine.dedup_hits", len(pending) - added)
        pending.clear()

    # ------------------------------------------------------------------
    # Compiled-plan evaluation paths
    # ------------------------------------------------------------------
    def _plans_for(self, rule: Rule, stats: EvaluationStats) -> RulePlans:
        plans = self._plan_cache.get(rule)
        if plans is None:
            plans = RulePlans(rule)
            self._plan_cache[rule] = plans
            stats.plans_compiled += 1
        return plans

    def _semi_naive_matches_plan(
        self,
        plans: RulePlans,
        db: Database,
        delta: Dict[str, Set[Fact]],
        recursive_predicates: Set[str],
    ) -> Iterator[Substitution]:
        """Semi-naive matching via the old/delta/full occurrence partition.

        For the k-th recursive occurrence chosen as the delta atom, every
        earlier recursive occurrence is restricted to pre-delta ("old")
        facts and every later one sees the full relation — an exact
        partition of the new matches, with no dedup bookkeeping.
        """
        body = plans.rule.body
        recursive_indexes = [
            i
            for i, literal in enumerate(body)
            if isinstance(literal, Atom) and literal.predicate in recursive_predicates
        ]
        if not recursive_indexes:
            # The rule does not read the stratum's own predicates: firing it
            # once in the first round was enough; nothing new can match.
            return
        for k, index in enumerate(recursive_indexes):
            delta_facts = delta.get(body[index].predicate)
            if not delta_facts:
                continue
            binder = plans.delta_binder(index)
            rest_plan = plans.delta_plan(index)
            excludes: Dict[int, Set[Fact]] = {}
            for earlier in recursive_indexes[:k]:
                earlier_delta = delta.get(body[earlier].predicate)
                if earlier_delta:
                    excludes[earlier] = earlier_delta
            if db.columnar:
                # Batch-at-a-time: bind the whole delta partition up
                # front and run the rest plan once over all the bases.
                bases = [
                    base
                    for base in (binder.match(fact) for fact in delta_facts)
                    if base is not None
                ]
                if bases:
                    yield from execute_plan_batch(
                        rest_plan,
                        db,
                        bases=bases,
                        base_vars=tuple(var for _, var in binder.bind),
                        excludes=excludes if excludes else None,
                    )
                continue
            for fact in delta_facts:
                base = binder.match(fact)
                if base is None:
                    continue
                yield from execute_plan(
                    rest_plan, db, base, excludes if excludes else None
                )

    def _aggregate_matches_plan(
        self,
        plans: RulePlans,
        db: Database,
        recursive: bool = False,
    ) -> Iterator[Substitution]:
        aggregate = plans.aggregate_plan()
        call = aggregate.call
        target = aggregate.target
        group_vars = aggregate.group_vars
        accumulator = GroupAccumulator(call.function, recursive=recursive)
        # Remember one full substitution per group so non-head variables
        # used by Skolem terms keep a witness binding.
        witnesses: Dict[Tuple[Any, ...], Substitution] = {}
        if db.columnar:
            pre_matches: Iterator[Substitution] = execute_plan_batch(
                aggregate.pre_plan, db
            )
        else:
            pre_matches = execute_plan(aggregate.pre_plan, db)
        for substitution in pre_matches:
            group = tuple(
                _hashable(substitution.get(v)) for v in group_vars
            )
            if call.contributors:
                contributor = tuple(
                    _hashable(substitution.get(v)) for v in call.contributors
                )
            else:
                contributor = tuple(
                    sorted(
                        ((v.name, _hashable(val)) for v, val in substitution.items()),
                        key=lambda item: item[0],
                    )
                )
            value = self._evaluate(call.value, substitution)
            accumulator.contribute(group, contributor, value)
            witnesses.setdefault(group, substitution)

        if self._retain_sink is not None:
            # Each fixpoint iteration overwrites the entry, so the final
            # (saturated) accumulator is what the retained state keeps —
            # captured for free from the naive in-stratum recomputation.
            self._retain_sink.store_aggregate(
                plans.rule, accumulator, witnesses, group_vars
            )

        for group, value in accumulator.results():
            base = witnesses[group]
            substitution = {v: base[v] for v in group_vars if v in base}
            substitution[target] = self._evaluate(
                aggregate.assignment.expression, base, aggregate_value=value
            )
            if all(self._check_condition(c, substitution) for c in aggregate.post):
                yield substitution

    def _semi_naive_matches(
        self,
        rule: Rule,
        db: Database,
        delta: Dict[str, Set[Fact]],
        recursive_predicates: Set[str],
    ) -> Iterator[Substitution]:
        """Require at least one recursive body atom to match a delta fact."""
        body = list(rule.body)
        recursive_atom_indexes = [
            i
            for i, literal in enumerate(body)
            if isinstance(literal, Atom) and literal.predicate in recursive_predicates
        ]
        if not recursive_atom_indexes:
            # The rule does not read the stratum's own predicates: firing it
            # once in the first round was enough; nothing new can match.
            return
        seen: Set[Tuple[Tuple[Variable, Any], ...]] = set()
        for delta_index in recursive_atom_indexes:
            atom = body[delta_index]
            delta_facts = delta.get(atom.predicate)
            if not delta_facts:
                continue
            for fact in delta_facts:
                base = self._unify_atom(atom, fact, {})
                if base is None:
                    continue
                rest = body[:delta_index] + body[delta_index + 1:]
                for substitution in self._match_body(rest, db, base):
                    key = tuple(sorted(
                        ((v, _hashable(substitution[v])) for v in substitution),
                        key=lambda item: item[0].name,
                    ))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield substitution

    # ------------------------------------------------------------------
    # Body matching
    # ------------------------------------------------------------------
    def _match_body(
        self,
        literals: List[Any],
        db: Database,
        substitution: Substitution,
    ) -> Iterator[Substitution]:
        """Yield all substitutions satisfying the body conjunction.

        Literals are scheduled greedily: ready assignments and conditions
        run as soon as their variables are bound; otherwise the atom with
        the most bound positions is joined next.
        """
        remaining = list(literals)
        return self._match_rec(remaining, db, dict(substitution))

    def _match_rec(
        self, remaining: List[Any], db: Database, substitution: Substitution
    ) -> Iterator[Substitution]:
        if not remaining:
            yield substitution
            return
        index = self._pick_next(remaining, substitution)
        literal = remaining[index]
        rest = remaining[:index] + remaining[index + 1:]

        if isinstance(literal, Atom):
            relation = db.relation(literal.predicate)
            bound: List[Tuple[int, Any]] = []
            for i, term in enumerate(literal.terms):
                if not is_variable(term):
                    bound.append((i, term))
                elif term.name != "_" and term in substitution:
                    bound.append((i, substitution[term]))
            for fact in list(relation.lookup(bound)):
                extended = self._unify_atom(literal, fact, substitution)
                if extended is not None:
                    yield from self._match_rec(rest, db, extended)
            return

        if isinstance(literal, NegatedAtom):
            if self._atom_has_match(literal.atom, db, substitution):
                return
            yield from self._match_rec(rest, db, substitution)
            return

        if isinstance(literal, Condition):
            if self._check_condition(literal, substitution):
                yield from self._match_rec(rest, db, substitution)
            return

        if isinstance(literal, Assignment):
            value = self._evaluate(literal.expression, substitution)
            current = substitution.get(literal.target)
            if literal.target in substitution:
                if _values_equal(current, value):
                    yield from self._match_rec(rest, db, substitution)
                return
            extended = dict(substitution)
            extended[literal.target] = value
            yield from self._match_rec(rest, db, extended)
            return

        raise EvaluationError(f"unsupported body literal: {literal!r}")

    def _pick_next(self, remaining: List[Any], substitution: Substitution) -> int:
        """Greedy scheduling: ready non-atoms first, then best-bound atom."""
        best_atom = None
        best_score = -1
        for i, literal in enumerate(remaining):
            if isinstance(literal, Assignment):
                needed = literal.expression.variables()
                if all(v in substitution for v in needed):
                    return i
            elif isinstance(literal, Condition):
                if all(v in substitution for v in literal.variables()):
                    return i
            elif isinstance(literal, NegatedAtom):
                if all(
                    v in substitution or v.name == "_"
                    for v in literal.variables()
                ):
                    return i
            elif isinstance(literal, Atom):
                score = sum(
                    1
                    for term in literal.terms
                    if not is_variable(term) or term in substitution
                )
                if score > best_score:
                    best_score = score
                    best_atom = i
        if best_atom is not None:
            return best_atom
        # Nothing ready: fall back to the first literal; matching will fail
        # with a clear error if variables stay unbound.
        return 0

    def _unify_atom(
        self, atom: Atom, fact: Fact, substitution: Substitution
    ) -> Optional[Substitution]:
        if len(fact) != len(atom.terms):
            return None
        extended = dict(substitution)
        for term, value in zip(atom.terms, fact):
            if is_variable(term):
                if term.name == "_":
                    continue
                current = extended.get(term, _UNBOUND)
                if current is _UNBOUND:
                    extended[term] = value
                elif not _values_equal(current, value):
                    return None
            elif not _values_equal(term, value):
                return None
        return extended

    def _atom_has_match(
        self, atom: Atom, db: Database, substitution: Substitution
    ) -> bool:
        relation = db.relation(atom.predicate)
        bound: List[Tuple[int, Any]] = []
        for i, term in enumerate(atom.terms):
            if not is_variable(term):
                bound.append((i, term))
            elif term.name != "_" and term in substitution:
                bound.append((i, substitution[term]))
        for fact in relation.lookup(bound):
            if self._unify_atom(atom, fact, substitution) is not None:
                return True
        return False

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _aggregate_matches(
        self, rule: Rule, db: Database, recursive: bool = False
    ) -> Iterator[Substitution]:
        aggregate_assignment = next(a for a in rule.assignments() if a.is_aggregate)
        call = _find_aggregate(aggregate_assignment.expression)
        target = aggregate_assignment.target

        pre: List[Any] = []
        post: List[Condition] = []
        for literal in rule.body:
            if literal is aggregate_assignment:
                continue
            if isinstance(literal, Condition) and target in literal.variables():
                post.append(literal)
            elif isinstance(literal, Assignment) and target in literal.expression.variables():
                raise EvaluationError(
                    f"assignment depending on aggregate target in {rule}"
                )
            else:
                pre.append(literal)

        group_vars = sorted(
            (v for v in rule.head_variables()
             if v != target and v.name != "_" and v not in rule.existential_variables()),
            key=lambda v: v.name,
        )
        accumulator = GroupAccumulator(call.function, recursive=recursive)
        # Remember one full substitution per group so non-head variables
        # used by Skolem terms keep a witness binding.
        witnesses: Dict[Tuple[Any, ...], Substitution] = {}
        for substitution in self._match_body(pre, db, {}):
            group = tuple(
                _hashable(substitution.get(v)) for v in group_vars
            )
            if call.contributors:
                contributor = tuple(
                    _hashable(substitution.get(v)) for v in call.contributors
                )
            else:
                contributor = tuple(
                    sorted(
                        ((v.name, _hashable(val)) for v, val in substitution.items()),
                        key=lambda item: item[0],
                    )
                )
            value = self._evaluate(call.value, substitution)
            accumulator.contribute(group, contributor, value)
            witnesses.setdefault(group, substitution)

        if self._retain_sink is not None:
            self._retain_sink.store_aggregate(
                rule, accumulator, witnesses, tuple(group_vars)
            )

        for group, value in accumulator.results():
            base = dict(witnesses[group])
            substitution = {v: base[v] for v in group_vars if v in base}
            # Evaluate the full assignment expression with the aggregate
            # replaced by its computed value (supports e.g. V = msum(W,<Z>)
            # wrapped in arithmetic).
            substitution[target] = self._evaluate(
                aggregate_assignment.expression, base, aggregate_value=value
            )
            if all(self._check_condition(c, substitution) for c in post):
                yield substitution

    # ------------------------------------------------------------------
    # Head instantiation (the chase step)
    # ------------------------------------------------------------------
    def _instantiate_head(
        self,
        rule: Rule,
        substitution: Substitution,
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
    ) -> Iterator[Tuple[str, Fact]]:
        existential = {
            v for v in rule.existential_variables() if v not in substitution
        }
        # Resolve Skolem terms first: they are deterministic, so they never
        # trigger the restricted-chase check.
        resolved_heads: List[Tuple[str, List[Any]]] = []
        for atom in rule.head:
            terms: List[Any] = []
            for term in atom.terms:
                if isinstance(term, SkolemTerm):
                    functor = skolems.get(term.functor)
                    if functor is None:
                        functor = SkolemFunctor(term.functor)
                        skolems[term.functor] = functor
                    arguments = []
                    for argument in term.arguments:
                        if is_variable(argument):
                            if argument not in substitution:
                                raise EvaluationError(
                                    f"Skolem argument {argument!r} unbound in {rule}"
                                )
                            arguments.append(substitution[argument])
                        else:
                            arguments.append(argument)
                    terms.append(functor(*arguments))
                elif is_variable(term):
                    if term in substitution:
                        terms.append(substitution[term])
                    else:
                        terms.append(term)  # existential, resolved below
                else:
                    terms.append(term)
            resolved_heads.append((atom.predicate, terms))

        remaining_existential = {
            term
            for _, terms in resolved_heads
            for term in terms
            if is_variable(term)
        }
        if remaining_existential:
            # Restricted chase: skip when the head conjunction is already
            # satisfied by some assignment of the existential variables.
            if self._head_satisfied(resolved_heads, db):
                return
            if stats.nulls_created + len(remaining_existential) > self.max_nulls:
                raise ResourceLimitError(
                    f"null budget exceeded ({self.max_nulls}); the program "
                    "likely falls outside the terminating fragment",
                    resource="nulls",
                    limit=self.max_nulls,
                    stats=stats,
                )
            assignment = nulls.assign(resolved_heads, remaining_existential)
            stats.nulls_created += len(assignment)
            for predicate, terms in resolved_heads:
                yield predicate, tuple(
                    assignment.get(t, t) if is_variable(t) else t for t in terms
                )
            return

        for predicate, terms in resolved_heads:
            yield predicate, tuple(terms)

    def _head_satisfied(
        self, resolved_heads: List[Tuple[str, List[Any]]], db: Database
    ) -> bool:
        """Conjunctive-match check used by the restricted chase."""
        atoms = [
            Atom(predicate, tuple(terms)) for predicate, terms in resolved_heads
        ]
        for _ in self._match_body(list(atoms), db, {}):
            return True
        return False

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        expression: Expression,
        substitution: Substitution,
        aggregate_value: Any = None,
    ) -> Any:
        return _plan_evaluate(expression, substitution, aggregate_value)

    def _check_condition(self, condition: Condition, substitution: Substitution) -> bool:
        return _plan_check_condition(condition, substitution)


_UNBOUND = object()


def _hashable(value: Any) -> Any:
    """Make lists/dicts usable in group keys (rare, but defensive)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value
