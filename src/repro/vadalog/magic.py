"""Magic sets: goal-directed (demand-driven) evaluation of point queries.

A point query such as ``controls(a, B)?`` binds some arguments of a
single predicate.  Evaluating it through :meth:`Engine.run` computes the
*whole* model and then filters — fine for batch materialization, hopeless
for a query service.  This module implements the classical magic-sets /
demand transformation (Bancilhon et al., Beeri & Ramakrishnan): the
stratified program is rewritten so that *magic predicates* carry the set
of demanded bindings and every rewritten rule is guarded by the demand
for its head, with bindings pushed sideways through rule bodies
(left-to-right SIPS).  The engine then derives only the slice of the
model relevant to the query, reusing the compiled-plan machinery of
:mod:`repro.vadalog.plan` unchanged — magic predicates are ordinary
predicates to the planner.

Soundness boundary
------------------

The rewrite is *not* applied to every predicate.  A predicate is
evaluated in full (its original rules kept verbatim, no demand
restriction) when restricting it to the demanded slice could change
answers:

- predicates appearing under ``not``: stratified negation needs the
  complete extension of the negated predicate;
- head predicates of rules with existential variables chased as labeled
  nulls: restricting their support can change which nulls are invented
  and how they propagate (witness dependencies);
- everything such a predicate transitively reads (its dependency cone),
  so that "full" predicates never depend on demand-restricted ones.

Aggregations are demand-safe only through their *group* variables: a
bound head position holding the aggregate result degrades to free during
adornment normalization, so a demanded group always sees its complete
contributor set.  Skolem-functor head terms likewise degrade to free
(a demanded Skolem value cannot be decomposed by a join).

Finally, the rewritten program is re-stratified before use; in the rare
case the magic predicates introduce a stratification conflict the
evaluator falls back to *cone evaluation* — the original rules of the
query predicate's reachable cone, still usually smaller than the whole
program.  The full chase remains available as the differential oracle
(:meth:`GoalDirectedEvaluator.full_answer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import KGModelError, VadalogError
from repro.vadalog.ast import (
    Assignment,
    Atom,
    Condition,
    NegatedAtom,
    Program,
    Rule,
    SkolemTerm,
)
from repro.vadalog.database import Database, Fact
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats
from repro.vadalog.parser import parse_atom
from repro.vadalog.stratify import Stratum, stratify
from repro.vadalog.terms import (
    ANONYMOUS,
    Variable,
    fact_sort_key,
    is_variable,
    values_equal,
)

__all__ = [
    "Query",
    "parse_query",
    "MagicProgram",
    "magic_rewrite",
    "QueryAnswer",
    "GoalDirectedEvaluator",
]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A point query: one predicate with constants at bound positions.

    ``terms`` mixes constants (bound) and :class:`Variable` (free).
    ``controls(a, B)?`` parses to ``Query("controls", ("a", ?B))`` with
    adornment ``"bf"``.
    """

    predicate: str
    terms: Tuple[Any, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    def adornment(self) -> str:
        return "".join(
            "f" if is_variable(term) else "b" for term in self.terms
        )

    def bound_constants(self) -> Tuple[Any, ...]:
        return tuple(t for t in self.terms if not is_variable(t))

    def matches(self, fact: Fact) -> bool:
        """Does a fact of the query predicate satisfy the pattern?

        Bound positions must equal the query constant; repeated free
        variables must carry equal values.
        """
        if len(fact) != len(self.terms):
            return False
        seen: Dict[Variable, Any] = {}
        for term, value in zip(self.terms, fact):
            if not is_variable(term):
                if not values_equal(term, value):
                    return False
            elif term != ANONYMOUS:
                if term in seen:
                    if not values_equal(seen[term], value):
                        return False
                else:
                    seen[term] = value
        return True

    def __str__(self) -> str:
        parts = []
        for term in self.terms:
            if is_variable(term):
                parts.append(term.name)
            elif isinstance(term, str):
                parts.append(f'"{term}"')
            elif isinstance(term, bool):
                parts.append("true" if term else "false")
            else:
                parts.append(repr(term))
        return f"{self.predicate}({', '.join(parts)})?"


def parse_query(text: str) -> Query:
    """Parse ``pred(t1, ..., tn)?`` into a :class:`Query`.

    Uses the program parser's term syntax: leading-uppercase identifiers
    are free variables, anything else is a bound constant.
    """
    stripped = text.strip()
    if stripped.endswith("?"):
        stripped = stripped[:-1].rstrip()
    if stripped.endswith("."):
        raise VadalogError(f"not a query (trailing '.'): {text!r}")
    try:
        atom = parse_atom(stripped)
    except KGModelError as exc:
        raise VadalogError(f"cannot parse query {text!r}: {exc}") from exc
    return Query(atom.predicate, atom.terms)


# ---------------------------------------------------------------------------
# The rewrite
# ---------------------------------------------------------------------------


def _magic_name(predicate: str, adornment: str) -> str:
    return f"magic__{predicate}@{adornment}"


def _adorned_name(predicate: str, adornment: str) -> str:
    return f"{predicate}@{adornment}"


@dataclass
class MagicProgram:
    """The output of :func:`magic_rewrite`.

    ``rules`` does *not* include the magic seed fact — the seed depends
    on the query constants while the rules depend only on the adornment,
    so rewrites are cached per ``(predicate, adornment)`` and the seed is
    appended per query (see :meth:`program_for`).
    """

    query: Query
    rules: List[Rule]
    answer_predicate: str
    seed_predicate: Optional[str]  # None => no demand restriction applies
    rewritten: bool
    full_predicates: FrozenSet[str] = frozenset()
    fallback_reasons: Tuple[str, ...] = ()
    #: Predicates whose original rules were kept verbatim (the full cone).
    cone_predicates: FrozenSet[str] = frozenset()
    #: The *normalized* adornment (bound positions may have degraded to
    #: free, e.g. aggregate results); the seed projects onto its ``b``s.
    seed_adornment: Optional[str] = None
    #: Per adorned predicate, its source predicate and the rule that
    #: brings *supplied* facts of it under the adorned name: part of the
    #: program only where there are such facts (:meth:`program_for`).
    bridges: Tuple[Tuple[str, Rule], ...] = ()
    #: :meth:`strata_for`'s results, per set of bridged predicates.
    _strata: Dict[FrozenSet[str], List[Stratum]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def seed_rule(self, query: Query) -> Optional[Rule]:
        """The magic seed fact for a concrete query's constants.

        Only constants at positions still bound after normalization are
        seeded — a degraded position's constant is enforced by the final
        :meth:`Query.matches` filter instead.
        """
        if self.seed_predicate is None:
            return None
        adornment = self.seed_adornment or ""
        terms = tuple(
            term
            for term, flag in zip(query.terms, adornment)
            if flag == "b"
        )
        return Rule(body=(), head=(Atom(self.seed_predicate, terms),))

    def program_for(self, query: Query, supplied: Container[str]) -> Program:
        """The evaluable program for a query sharing this adornment.

        ``supplied`` names the derived predicates the caller holds facts
        for: only those are bridged.
        """
        if query.predicate != self.query.predicate or (
            query.adornment() != self.query.adornment()
        ):
            raise VadalogError(
                f"rewrite for {self.query} cannot answer {query}"
            )
        rules = list(self.rules)
        rules.extend(
            rule for predicate, rule in self.bridges if predicate in supplied
        )
        seed = self.seed_rule(query)
        if seed is not None:
            rules.append(seed)
        return Program(rules=rules)

    def strata_for(self, program: Program, supplied: Container[str]) -> List[Stratum]:
        """The stratification of ``program = program_for(query,
        supplied)``, computed once: it depends on the rules and bridges,
        not on the seed fact, which is all that differs between two
        queries of one adornment."""
        key = frozenset(p for p, _ in self.bridges if p in supplied)
        strata = self._strata.get(key)
        if strata is None:
            strata = self._strata[key] = stratify(
                Program(rules=[rule for rule in program.rules if rule.body])
            )
        return strata


def _full_predicates(program: Program) -> Tuple[Set[str], List[str]]:
    """Predicates that must be computed without demand restriction.

    Returns the set plus human-readable reasons for the roots.
    """
    idb = program.idb_predicates()
    reasons: List[str] = []
    roots: Set[str] = set()
    for rule in program.rules:
        if rule.existential_variables():
            for pred in sorted(rule.head_predicates()):
                if pred not in roots:
                    roots.add(pred)
                    reasons.append(f"{pred}: existential head (labeled nulls)")
        for negated in rule.negated_atoms():
            pred = negated.atom.predicate
            if pred in idb and pred not in roots:
                roots.add(pred)
                reasons.append(f"{pred}: appears under negation")
    # Close under "everything a full predicate's rules read".
    defs: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        for pred in rule.head_predicates():
            defs.setdefault(pred, []).append(rule)
    full = set(roots)
    queue = list(roots)
    while queue:
        pred = queue.pop()
        for rule in defs.get(pred, ()):
            for read in rule.body_predicates() | rule.head_predicates():
                if read in idb and read not in full:
                    full.add(read)
                    queue.append(read)
    return full, reasons


def _split_heads(program: Program) -> List[Rule]:
    """One rule per head atom, for rules without existential variables.

    Multi-head existential rules stay whole (their head predicates are
    all in the full set anyway, and splitting them would invent one null
    per head instead of a shared one).
    """
    rules: List[Rule] = []
    for rule in program.rules:
        if len(rule.head) <= 1 or rule.existential_variables():
            rules.append(rule)
        else:
            for index, atom in enumerate(rule.head):
                label = f"{rule.label}#{index}" if rule.label else None
                rules.append(Rule(body=rule.body, head=(atom,), label=label))
    return rules


def _aggregate_targets(rule: Rule) -> Set[Variable]:
    return {a.target for a in rule.assignments() if a.is_aggregate}


class _Rewriter:
    """One magic rewrite: state for the adornment worklist."""

    def __init__(self, program: Program, query: Query):
        self.query = query
        rules = _split_heads(program)
        idb = {p for r in rules for p in r.head_predicates()}
        defs: Dict[str, List[Rule]] = {}
        for rule in rules:
            for pred in rule.head_predicates():
                defs.setdefault(pred, []).append(rule)
        # Restrict to the query predicate's reachable cone before the
        # soundness analysis: negation or existentials in rules the query
        # can never demand must not poison the rewrite.
        reachable: Set[str] = set()
        queue = [query.predicate]
        while queue:
            pred = queue.pop()
            if pred in reachable or pred not in idb:
                continue
            reachable.add(pred)
            for rule in defs[pred]:
                queue.extend(rule.body_predicates())
                # Multi-head existential rules are kept whole; their
                # other head predicates ride along.
                queue.extend(rule.head_predicates())
        kept: List[Rule] = []
        seen_ids: Set[int] = set()
        for pred in reachable:
            for rule in defs[pred]:
                if id(rule) not in seen_ids:
                    seen_ids.add(id(rule))
                    kept.append(rule)
        self.rules = kept
        self.idb = {p for r in kept for p in r.head_predicates()}
        self.defs = {}
        for rule in kept:
            for pred in rule.head_predicates():
                self.defs.setdefault(pred, []).append(rule)
        whole = Program(rules=self.rules)
        self.full, self.full_reasons = _full_predicates(whole)
        self.adorned: List[Rule] = []
        self.bridges: List[Tuple[str, Rule]] = []
        self.magic: List[Rule] = []
        self.cone: Set[str] = set()
        self._cone_rules: List[Rule] = []
        self._seen: Set[Tuple[str, str]] = set()
        self._queue: List[Tuple[str, str]] = []

    # -- adornment normalization ------------------------------------

    def normalize(self, predicate: str, adornment: str) -> str:
        """Degrade bound positions no defining rule can receive demand on.

        A position is demand-passable for a rule when the head term there
        is a constant or a plain universal variable that is not the
        target of an aggregate assignment.  Skolem terms and aggregate
        results degrade to free: the former cannot be decomposed by a
        join, the latter would constrain the aggregate's *result* before
        it is computed.
        """
        chars = list(adornment)
        for rule in self.defs.get(predicate, ()):
            head_atom = next(
                a for a in rule.head if a.predicate == predicate
            )
            targets = _aggregate_targets(rule)
            for index, char in enumerate(chars):
                if char != "b":
                    continue
                term = head_atom.terms[index]
                if isinstance(term, SkolemTerm):
                    chars[index] = "f"
                elif is_variable(term) and (
                    term == ANONYMOUS or term in targets
                ):
                    chars[index] = "f"
        return "".join(chars)

    # -- demand bookkeeping ------------------------------------------

    def demand(self, predicate: str, adornment: str) -> Optional[str]:
        """Register demand; returns the adorned name, or None when the
        predicate must keep its original name (EDB / full / no binding)."""
        if predicate not in self.idb:
            return None
        if predicate in self.full:
            self.ensure_cone(predicate)
            return None
        normalized = self.normalize(predicate, adornment)
        if "b" not in normalized:
            self.ensure_cone(predicate)
            return None
        key = (predicate, normalized)
        if key not in self._seen:
            self._seen.add(key)
            self._queue.append(key)
        return normalized

    def ensure_cone(self, predicate: str) -> None:
        """Include a predicate's original rules (and their IDB cone)."""
        if predicate in self.cone or predicate not in self.idb:
            return
        queue = [predicate]
        while queue:
            pred = queue.pop()
            if pred in self.cone:
                continue
            self.cone.add(pred)
            for rule in self.defs.get(pred, ()):
                self._cone_rules.append(rule)
                for read in rule.body_predicates():
                    if read in self.idb and read not in self.cone:
                        queue.append(read)
        # Rules can appear once per head predicate; dedup by identity.
        seen: Set[int] = set()
        unique: List[Rule] = []
        for rule in self._cone_rules:
            if id(rule) not in seen:
                seen.add(id(rule))
                unique.append(rule)
        self._cone_rules = unique

    # -- rule rewriting ----------------------------------------------

    def rewrite_rule(self, rule: Rule, predicate: str, adornment: str) -> None:
        head_atom = next(a for a in rule.head if a.predicate == predicate)
        magic_args = tuple(
            head_atom.terms[i]
            for i, char in enumerate(adornment)
            if char == "b"
        )
        magic_atom = Atom(_magic_name(predicate, adornment), magic_args)
        bound: Set[Variable] = {
            t for t in magic_args if is_variable(t) and t != ANONYMOUS
        }
        targets = _aggregate_targets(rule)

        new_body: List[Any] = [magic_atom]
        # The demand prefix: literals safe to place in a magic rule's
        # body.  Aggregate assignments (and anything referencing their
        # targets) are excluded — dropping a filter only widens demand,
        # which is sound.
        prefix: List[Any] = [magic_atom]

        for literal in rule.body:
            if isinstance(literal, Atom):
                raw = "".join(
                    "b"
                    if (
                        not is_variable(term)
                        and not isinstance(term, SkolemTerm)
                    )
                    or (
                        is_variable(term)
                        and term != ANONYMOUS
                        and term in bound
                    )
                    else "f"
                    for term in literal.terms
                )
                adorned = self.demand(literal.predicate, raw)
                if adorned is None:
                    new_body.append(literal)
                    prefix.append(literal)
                else:
                    occurrence = Atom(
                        _adorned_name(literal.predicate, adorned),
                        literal.terms,
                    )
                    magic_head = Atom(
                        _magic_name(literal.predicate, adorned),
                        tuple(
                            literal.terms[i]
                            for i, char in enumerate(adorned)
                            if char == "b"
                        ),
                    )
                    if not (
                        len(prefix) == 1 and prefix[0] == magic_head
                    ):  # skip tautological self-demand rules
                        self.magic.append(
                            Rule(body=tuple(prefix), head=(magic_head,))
                        )
                    new_body.append(occurrence)
                    prefix.append(occurrence)
                for term in literal.terms:
                    if is_variable(term) and term != ANONYMOUS:
                        bound.add(term)
            elif isinstance(literal, NegatedAtom):
                if literal.atom.predicate in self.idb:
                    self.ensure_cone(literal.atom.predicate)
                new_body.append(literal)
                # Negation filters demand soundly only when its variables
                # are already bound; it binds nothing either way.
                if all(
                    v in bound or v == ANONYMOUS
                    for v in literal.variables()
                ):
                    prefix.append(literal)
            elif isinstance(literal, Assignment):
                new_body.append(literal)
                if literal.is_aggregate:
                    continue  # targets never carry demand
                if literal.expression.variables() <= bound:
                    prefix.append(literal)
                    if literal.target != ANONYMOUS:
                        bound.add(literal.target)
            else:  # Condition
                new_body.append(literal)
                if not (literal.variables() & targets) and (
                    literal.variables() <= bound
                ):
                    prefix.append(literal)

        adorned_head = Atom(
            _adorned_name(predicate, adornment), head_atom.terms
        )
        label = f"{rule.label}@{adornment}" if rule.label else None
        self.adorned.append(
            Rule(body=tuple(new_body), head=(adorned_head,), label=label)
        )

    def bridge_rule(self, predicate: str, adornment: str) -> Rule:
        """``magic__p@ad(bound...), p(V...) -> p@ad(V...)``: the demanded
        facts a caller *supplied* for a derived predicate, which sit
        under its own name and which no rewritten rule reads."""
        head_atom = next(
            a for a in self.defs[predicate][0].head if a.predicate == predicate
        )
        variables = tuple(
            Variable(f"V{index}") for index in range(len(head_atom.terms))
        )
        magic_atom = Atom(
            _magic_name(predicate, adornment),
            tuple(v for v, char in zip(variables, adornment) if char == "b"),
        )
        return Rule(
            body=(magic_atom, Atom(predicate, variables)),
            head=(Atom(_adorned_name(predicate, adornment), variables),),
        )

    # -- driver -------------------------------------------------------

    def run(self) -> MagicProgram:
        query = self.query
        fallback_reasons = list(self.full_reasons)

        def cone_fallback(reason: Optional[str] = None) -> MagicProgram:
            reasons = list(fallback_reasons)
            if reason:
                reasons.append(reason)
            self.ensure_cone(query.predicate)
            return MagicProgram(
                query=query,
                rules=list(self._cone_rules),
                answer_predicate=query.predicate,
                seed_predicate=None,
                rewritten=False,
                full_predicates=frozenset(self.full),
                fallback_reasons=tuple(reasons),
                cone_predicates=frozenset(self.cone),
            )

        if query.predicate not in self.idb:
            # Extensional query: nothing to derive, filter the EDB.
            return MagicProgram(
                query=query,
                rules=[],
                answer_predicate=query.predicate,
                seed_predicate=None,
                rewritten=False,
                full_predicates=frozenset(self.full),
                fallback_reasons=(f"{query.predicate}: extensional",),
            )

        adorned = self.demand(query.predicate, query.adornment())
        if adorned is None:
            reason = (
                f"{query.predicate}: in the full set"
                if query.predicate in self.full
                else f"{query.predicate}: no demand-passable binding"
            )
            return cone_fallback(reason)

        while self._queue:
            predicate, adornment = self._queue.pop()
            for rule in self.defs.get(predicate, ()):
                self.rewrite_rule(rule, predicate, adornment)
            self.bridges.append(
                (predicate, self.bridge_rule(predicate, adornment))
            )

        rules = self.adorned + self.magic + self._cone_rules
        seed_predicate = _magic_name(query.predicate, adorned)
        answer_predicate = _adorned_name(query.predicate, adorned)
        candidate = MagicProgram(
            query=query,
            rules=rules,
            answer_predicate=answer_predicate,
            seed_predicate=seed_predicate,
            rewritten=True,
            full_predicates=frozenset(self.full),
            fallback_reasons=tuple(fallback_reasons),
            cone_predicates=frozenset(self.cone),
            seed_adornment=adorned,
            bridges=tuple(self.bridges),
        )
        # Magic predicates can, in corner cases, entangle strata the
        # original program kept apart; re-stratify and fall back rather
        # than trust an unstratifiable rewrite (every bridge in).
        try:
            probe = candidate.program_for(query, self.defs)
            probe = Program(rules=[r for r in probe.rules if r.body])
            stratify(probe)
        except VadalogError as exc:
            return cone_fallback(f"rewrite not stratifiable: {exc}")
        return candidate


def magic_rewrite(program: Program, query: Query) -> MagicProgram:
    """Rewrite ``program`` for goal-directed evaluation of ``query``."""
    if query.arity == 0:
        raise VadalogError(f"nullary queries are not supported: {query}")
    return _Rewriter(program, query).run()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class QueryAnswer:
    """Answers plus provenance of how they were computed."""

    query: Query
    facts: FrozenSet[Fact]
    mode: str  # "magic" | "cone" | "edb" | "full"
    status: str
    stats: EvaluationStats
    rewrite: Optional[MagicProgram] = None

    @property
    def truncated(self) -> bool:
        return self.status != "fixpoint"

    def bindings(self) -> List[Dict[str, Any]]:
        """One mapping per answer, free variable name -> value."""
        out: List[Dict[str, Any]] = []
        for fact in sorted(self.facts, key=fact_sort_key):
            row: Dict[str, Any] = {}
            for term, value in zip(self.query.terms, fact):
                if is_variable(term) and term != ANONYMOUS:
                    row[term.name] = value
            out.append(row)
        return out


class GoalDirectedEvaluator:
    """Answers point queries over a fixed program, caching rewrites.

    Rewrites are cached per ``(predicate, adornment)``; compiled rule
    plans are shared across requests through a common plan cache, so the
    steady-state cost of a query is just the demanded slice of the
    chase.  Instances are cheap; each :meth:`answer` call builds a fresh
    :class:`Engine` around the shared caches so per-request governors
    and tracers never race across threads.
    """

    def __init__(
        self,
        program: Program,
        *,
        columnar: bool = True,
        max_iterations: int = 10_000,
        max_nulls: int = 1_000_000,
    ):
        self.program = program
        self.columnar = columnar
        self.max_iterations = max_iterations
        self.max_nulls = max_nulls
        self._rewrites: Dict[Tuple[str, str], MagicProgram] = {}
        self._plan_cache: Dict[Rule, Any] = {}

    # -- internals ----------------------------------------------------

    def _engine(self, governor=None, tracer=None) -> Engine:
        engine = Engine(
            max_iterations=self.max_iterations,
            max_nulls=self.max_nulls,
            check_wardedness=False,
            governor=governor,
            tracer=tracer,
            columnar=self.columnar,
        )
        # Share compiled plans across requests: dict get/set are atomic
        # under the GIL and plans for structurally-equal rules are
        # interchangeable, so the worst concurrent case is a duplicate
        # compile.
        engine._plan_cache = self._plan_cache
        return engine

    def rewrite(self, query: Query) -> MagicProgram:
        key = (query.predicate, query.adornment())
        cached = self._rewrites.get(key)
        if cached is None:
            cached = magic_rewrite(self.program, query)
            self._rewrites[key] = cached
        return cached

    @staticmethod
    def _coerce(query) -> Query:
        return parse_query(query) if isinstance(query, str) else query

    def _run(
        self,
        program: Program,
        *,
        database: Optional[Database],
        inputs: Optional[Mapping[str, Iterable[Fact]]],
        governor,
        tracer,
        strata: Optional[List[Stratum]] = None,
    ) -> EvaluationResult:
        """The one way a program runs here: in place, over a layer of
        ``database`` — private copies of just the predicates the run can
        write (every rule head, fact rules and the magic seed included,
        plus the ``inputs`` keys), the caller's own relation objects for
        the rest — so the cost follows what is derived, not what is read.
        """
        engine = self._engine(governor=governor, tracer=tracer)
        if database is not None:
            database = database.layer(
                program.idb_predicates() | set(inputs or ())
            )
        return engine.run(
            program,
            database=database,
            inputs=dict(inputs) if inputs else None,
            copy_database=False,
            strata=strata,
        )

    # -- public API ---------------------------------------------------

    def answer(
        self,
        query,
        *,
        database: Optional[Database] = None,
        inputs: Optional[Mapping[str, Iterable[Fact]]] = None,
        governor=None,
        tracer=None,
    ) -> QueryAnswer:
        """Goal-directed answers for ``query`` over an extensional DB.

        ``database``/``inputs`` must hold extensional facts only (the
        same contract as :meth:`Engine.run`); the database is never
        mutated, and may be shared by concurrent callers as long as
        nobody writes it meanwhile (see :meth:`_run`).  ``inputs`` are
        added to that run's private layer.
        """
        query = self._coerce(query)
        rewrite = self.rewrite(query)

        if not rewrite.rules and rewrite.seed_predicate is None:
            # Pure EDB query: probe the bound positions (``lookup`` is
            # as strict as ``matches``), without running the engine.
            facts: Set[Fact] = set()
            if database is not None and database.count(query.predicate):
                relation = database.relation(query.predicate)
                if relation.arity == query.arity:
                    facts.update(relation.lookup([
                        (i, t) for i, t in enumerate(query.terms)
                        if not is_variable(t)
                    ]))
            if inputs:
                facts |= {
                    tuple(f) for f in inputs.get(query.predicate, ())
                }
            return QueryAnswer(
                query=query,
                facts=frozenset(f for f in facts if query.matches(f)),
                mode="edb",
                status="fixpoint",
                stats=EvaluationStats(),
                rewrite=rewrite,
            )

        supplied = {
            predicate
            for predicate, _ in rewrite.bridges
            if (database is not None and database.count(predicate))
            or (inputs and predicate in inputs)
        }
        program = rewrite.program_for(query, supplied)
        result = self._run(
            program,
            database=database,
            inputs=inputs,
            governor=governor,
            tracer=tracer,
            strata=rewrite.strata_for(program, supplied),
        )
        answers = frozenset(
            fact
            for fact in result.facts(rewrite.answer_predicate)
            if query.matches(fact)
        )
        return QueryAnswer(
            query=query,
            facts=answers,
            mode="magic" if rewrite.rewritten else "cone",
            status=result.status,
            stats=result.stats,
            rewrite=rewrite,
        )

    def full_answer(
        self,
        query,
        *,
        database: Optional[Database] = None,
        inputs: Optional[Mapping[str, Iterable[Fact]]] = None,
        governor=None,
        tracer=None,
    ) -> QueryAnswer:
        """The differential oracle: full chase, then filter."""
        query = self._coerce(query)
        result = self._run(
            self.program,
            database=database,
            inputs=inputs,
            governor=governor,
            tracer=tracer,
        )
        answers = frozenset(
            fact
            for fact in result.facts(query.predicate)
            if query.matches(fact)
        )
        return QueryAnswer(
            query=query,
            facts=answers,
            mode="full",
            status=result.status,
            stats=result.stats,
        )
