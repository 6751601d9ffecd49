"""Incremental materialization: delta-chase differential battery,
DRed edge cases, materializer updates, and store delta-flush appliers."""

import random

import pytest

from repro.deploy import FlushDelta, GraphStore, RelationalEngine, TripleStore
from repro.errors import EvaluationError, IntegrityError, SchemaError
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
from repro.ssst import SSST, IntensionalMaterializer, RegistryDelta
from repro.obs import RecordingTracer
from repro.vadalog import Engine, parse_program
from repro.vadalog.incremental import RECOMPUTE_REASONS
from repro.vadalog.terms import Null

from tests.conftest import diff_is_the_oracle
from tests.test_engine_plans import (
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
)

KINDS = ("insert", "delete", "mixed")


# ---------------------------------------------------------------------------
# Engine-level differential battery: apply_delta vs from-scratch oracle
# ---------------------------------------------------------------------------


def _mutation(rng, inputs, templates, kind):
    """A random extensional delta over one of the case's input relations.

    ``templates`` holds one original fact per predicate, so fresh facts
    keep the right arity/value shapes even after a relation was emptied
    by an earlier round's deletions.
    """
    added, removed = {}, {}
    candidates = [p for p in sorted(inputs) if p in templates]
    predicate = rng.choice(candidates)
    facts = sorted(inputs[predicate], key=repr)

    def fresh_value(value):
        if isinstance(value, float):
            return round(rng.random(), 3)
        return f"x{rng.randrange(12)}"

    if kind in ("insert", "mixed") or not facts:
        added[predicate] = [
            tuple(fresh_value(v) for v in templates[predicate])
            for _ in range(rng.randrange(1, 4))
        ]
    if kind in ("delete", "mixed") and facts:
        removed[predicate] = rng.sample(
            facts, min(len(facts), rng.randrange(1, 3))
        )
    return added, removed


def _mutated_inputs(inputs, added, removed):
    mutated = {p: set(facts) for p, facts in inputs.items()}
    for predicate, facts in removed.items():
        mutated[predicate] -= set(facts)
    for predicate, facts in added.items():
        mutated.setdefault(predicate, set()).update(facts)
    return {p: sorted(facts, key=repr) for p, facts in mutated.items()}


def _null_occurrences(result, predicates):
    """Per labeled null, every place it occurs in (itself marked, other
    nulls blanked), as a sorted list over the nulls.  Two runs agree on
    it exactly when one renames into the other null by null — a null
    standing in for two of the other run's would show both their places.
    """
    places = {}
    for predicate in predicates:
        for fact in result.facts(predicate):
            for null in {t for t in fact if isinstance(t, Null)}:
                places.setdefault(null, []).append(repr((predicate, tuple(
                    ("<self>" if t == null else "<null>")
                    if isinstance(t, Null) else t
                    for t in fact
                ))))
    return sorted(sorted(occurrences) for occurrences in places.values())


def delta_differential(
    text, predicates, inputs, rng, kind, use_plans=True, maintained=False
):
    """Retained run + apply_delta must equal a from-scratch oracle, up to
    labeled-null renaming, after each of six chained updates;
    ``maintained`` programs without recomputing a stratum."""
    program = parse_program(text)
    engine = Engine(use_plans=use_plans)
    result = engine.run(program, inputs=inputs, retain_state=True)
    templates = {
        p: sorted(facts, key=repr)[0] for p, facts in inputs.items() if facts
    }
    current = inputs
    for _round in range(6):
        added, removed = _mutation(rng, current, templates, kind)
        delta = engine.apply_delta(result, added=added, removed=removed)
        if maintained:
            assert not delta.recompute_reasons
        current = _mutated_inputs(current, added, removed)
        oracle = Engine(use_plans=False).run(program, inputs=current)
        for predicate in predicates:
            assert _canon(result.facts(predicate)) == _canon(
                oracle.facts(predicate)
            ), f"{kind} mismatch on {predicate} (round {_round})"
        assert _null_occurrences(result, predicates) == _null_occurrences(
            oracle, predicates
        ), f"{kind}: the null renaming is not injective (round {_round})"


class TestEngineDeltaDifferential:
    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize(
        "base,seed",
        [(5000, s) for s in range(14)] + [(8000, s) for s in range(6)],
    )
    def test_recursion(self, base, seed, use_plans):
        rng = random.Random(base + seed)
        text, predicates, inputs = _recursion_case(rng)
        delta_differential(
            text, predicates, inputs, rng, KINDS[seed % 3], use_plans=use_plans
        )

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("seed", range(14))
    def test_aggregates(self, seed, use_plans):
        rng = random.Random(6000 + seed)
        text, predicates, inputs = _aggregate_case(rng)
        delta_differential(
            text, predicates, inputs, rng, KINDS[seed % 3], use_plans=use_plans,
            # msum control and mcount; mmax has its target in the head.
            maintained=predicates != ["strong"],
        )

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("seed", range(14))
    def test_existentials(self, seed, use_plans):
        rng = random.Random(7000 + seed)
        text, predicates, inputs = _existential_case(rng)
        delta_differential(
            text, predicates, inputs, rng, KINDS[seed % 3], use_plans=use_plans
        )


# ---------------------------------------------------------------------------
# DRed edge cases
# ---------------------------------------------------------------------------


class TestDRedEdgeCases:
    def test_alternative_derivation_survives(self):
        """A fact with two derivations loses one premise and is
        re-derived through the other."""
        program = parse_program("e(X, Y) -> p(X, Y).\nf(X, Y) -> p(X, Y).")
        engine = Engine()
        result = engine.run(
            program,
            inputs={"e": [("a", "b")], "f": [("a", "b")]},
            retain_state=True,
        )
        delta = engine.apply_delta(result, removed={"e": [("a", "b")]})
        assert result.facts("p") == {("a", "b")}
        assert delta.overdeleted >= 1
        assert delta.rederived >= 1
        assert "p" not in {p for p, facts in delta.removed.items() if facts}

    def test_cyclic_support_does_not_keep_ghosts(self):
        """Facts supporting each other through a cycle must not survive
        on mutual support once the external premise is gone."""
        program = parse_program(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        )
        engine = Engine()
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        result = engine.run(program, inputs={"e": edges}, retain_state=True)
        engine.apply_delta(result, removed={"e": [("c", "a")]})
        oracle = Engine().run(
            program, inputs={"e": [("a", "b"), ("b", "c")]}
        )
        assert result.facts("tc") == oracle.facts("tc")

    def test_delete_then_readd_round_trips(self):
        program = parse_program(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        )
        engine = Engine()
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        result = engine.run(program, inputs={"e": edges}, retain_state=True)
        before = set(result.facts("tc"))
        engine.apply_delta(result, removed={"e": [("b", "c")]})
        assert set(result.facts("tc")) != before
        engine.apply_delta(result, added={"e": [("b", "c")]})
        assert set(result.facts("tc")) == before

    def test_removing_derived_fact_is_skipped(self):
        program = parse_program("e(X, Y) -> p(X, Y).")
        engine = Engine()
        result = engine.run(
            program, inputs={"e": [("a", "b")]}, retain_state=True
        )
        delta = engine.apply_delta(result, removed={"p": [("a", "b")]})
        assert delta.skipped_removals == 1
        assert not delta.changed()
        assert result.facts("p") == {("a", "b")}

    def test_apply_delta_requires_retained_state(self):
        program = parse_program("e(X, Y) -> p(X, Y).")
        engine = Engine()
        result = engine.run(program, inputs={"e": [("a", "b")]})
        with pytest.raises(EvaluationError, match="retain_state"):
            engine.apply_delta(result, added={"e": [("b", "c")]})


# ---------------------------------------------------------------------------
# Removals through a monotone aggregate and its existential head
# ---------------------------------------------------------------------------

ENGINES = pytest.mark.parametrize(
    "use_plans,columnar",
    [(True, True), (True, False), (False, True), (False, False)],
)

CONTROL = (
    "company(X) -> controls(X, X).\n"
    "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y)."
)
#: The same program as MTV compiles it: an existential edge id.
CONTROL_IDS = (
    "company(X) -> controls(C, X, X).\n"
    "controls(_, X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
    " -> controls(C, X, Y)."
)


def _live_patterns(result):
    minted = result.state.nulls.minted
    return {
        (predicate, pattern): len(assignments)
        for predicate, patterns in minted.items()
        for pattern, assignments in patterns.items()
    }


class _Maintained:
    """A retained run that is held, after every delta, against a
    from-scratch retained run of the same engine: facts up to nulls, an
    injective renaming, the accumulators, the remembered firings — and
    no stratum recomputed."""

    def __init__(self, text, use_plans, columnar, **inputs):
        self.program = parse_program(text)
        self.backend = dict(use_plans=use_plans, columnar=columnar)
        self.inputs = {p: list(facts) for p, facts in inputs.items()}
        self.engine = Engine(**self.backend)
        self.result = self.engine.run(
            self.program, inputs=self.inputs, retain_state=True
        )
        self.predicates = sorted(self.program.idb_predicates())

    def facts(self, predicate="controls"):
        return set(self.result.facts(predicate))

    def pairs(self):
        return {fact[-2:] for fact in self.facts() if fact[-2] != fact[-1]}

    def step(self, added=None, removed=None):
        delta = self.engine.apply_delta(self.result, added=added, removed=removed)
        assert delta.strata_recomputed == 0, delta.recompute_reasons
        self.inputs = _mutated_inputs(self.inputs, added or {}, removed or {})
        oracle = Engine(**self.backend).run(
            self.program, inputs=self.inputs, retain_state=True
        )
        for predicate in self.predicates:
            assert _canon(self.result.facts(predicate)) == _canon(
                oracle.facts(predicate)
            )
        assert _null_occurrences(self.result, self.predicates) == (
            _null_occurrences(oracle, self.predicates)
        )
        state = self.result.state
        assert set(state.aggregates) == set(oracle.state.aggregates)
        for rule, expected in oracle.state.aggregates.items():
            held = state.aggregates[rule]
            assert held.accumulator.state() == expected.accumulator.state()
            assert set(held.witnesses) == set(expected.witnesses)
        # One remembered assignment per live pattern, nothing else.
        assert _live_patterns(self.result) == _live_patterns(oracle)
        assert set(_live_patterns(self.result).values()) <= {1}
        assert not state.nulls.reclaim
        return delta


@ENGINES
@pytest.mark.parametrize("text", [CONTROL, CONTROL_IDS])
class TestAggregateRetraction:
    def test_cyclic_ghost(self, text, use_plans, columnar):
        """Group (x, a) still sums 0.6 through b once x's own stake is
        gone — but b is only x's through a: the accumulator is no
        support count, the head goes whatever value remains."""
        run = _Maintained(
            text, use_plans, columnar,
            company=[("x",), ("a",), ("b",)],
            own=[("x", "a", 0.6), ("a", "b", 0.6), ("b", "a", 0.6)],
        )
        assert run.pairs() == {("x", "a"), ("x", "b"), ("a", "b"), ("b", "a")}
        delta = run.step(removed={"own": [("x", "a", 0.6)]})
        assert run.pairs() == {("a", "b"), ("b", "a")}
        assert delta.overdeleted == 2 and delta.rederived == 0

    def test_parallel_stakes(self, text, use_plans, columnar):
        """Two stakes of z in y collide on contributor z; the smaller
        takes the place of the larger when that one is removed."""
        run = _Maintained(
            text, use_plans, columnar,
            company=[("z",), ("w",), ("y",)],
            own=[("z", "y", 0.7), ("z", "y", 0.2), ("z", "w", 0.6),
                 ("w", "y", 0.35)],
        )
        (rule,) = run.result.state.aggregates
        buckets = run.result.state.aggregates[rule].accumulator.state()
        assert buckets[("z", "y")] == {("z",): 0.7, ("w",): 0.35}
        before = run.facts()
        delta = run.step(removed={"own": [("z", "y", 0.7)]})
        assert buckets[("z", "y")] == {("z",): 0.2, ("w",): 0.35}
        assert run.facts() == before  # 0.55: put back, the same fact
        assert delta.rederived >= 1 and "controls" not in delta.removed
        run.step(removed={"own": [("w", "y", 0.35)]})
        assert ("z", "y") not in run.pairs()
        assert buckets[("z", "y")] == {("z",): 0.2}

    def test_remove_then_re_add(self, text, use_plans, columnar):
        """What a removal spares keeps its facts, nulls included — the
        re-derived ones too; what it takes comes back on re-adding,
        under fresh nulls, and nothing of it is remembered meanwhile."""
        run = _Maintained(
            text, use_plans, columnar,
            company=[("a",), ("b",), ("c",), ("d",)],
            own=[("a", "b", 0.6), ("b", "c", 0.3), ("a", "c", 0.3),
                 ("a", "c", 0.25), ("c", "d", 0.9)],
        )
        before = run.facts()
        # a holds c by 0.3 + 0.3 and, without the larger direct stake,
        # still by 0.25 + 0.3: over-deleted and put back, and (a, d)
        # comes back with it through the cascade, under its old null.
        delta = run.step(removed={"own": [("a", "c", 0.3)]})
        assert run.facts() == before
        assert delta.overdeleted == 2 and delta.rederived == 1
        assert delta.removed == {"own": {("a", "c", 0.3)}} and not delta.added
        delta = run.step(removed={"own": [("b", "c", 0.3)]})
        spared = run.facts()
        assert spared < before
        assert {f[-2:] for f in before - spared} == {("a", "c"), ("a", "d")}
        run.step(added={"own": [("b", "c", 0.3), ("a", "c", 0.3)]})
        assert spared < run.facts()
        assert _canon(run.facts()) == _canon(before)
        known = {t for fact in before for t in fact if isinstance(t, Null)}
        back = {t for fact in run.facts() - spared for t in fact
                if isinstance(t, Null)}
        assert not back & known

    def test_removing_a_seed(self, text, use_plans, columnar):
        """controls(a, a) is the seed's; the cycle through b re-derives
        it only from itself."""
        run = _Maintained(
            text, use_plans, columnar,
            company=[("x",), ("a",), ("b",)],
            own=[("x", "a", 0.6), ("a", "b", 0.6), ("b", "a", 0.6)],
        )
        run.step(removed={"company": [("a",)]})
        assert {f[-2:] for f in run.facts()} == {
            ("x", "x"), ("x", "a"), ("x", "b"),
            ("b", "b"), ("b", "a"), ("b", "b")}
        run.step(added={"company": [("a",)]}, removed={"company": [("x",)]})
        assert run.pairs() == {("a", "b"), ("b", "a")}

    def test_one_delta_adds_to_and_removes_from_a_group(
        self, text, use_plans, columnar
    ):
        run = _Maintained(
            text, use_plans, columnar,
            company=[("a",), ("b",), ("c",), ("d",)],
            own=[("a", "b", 0.6), ("a", "c", 0.3), ("b", "c", 0.3),
                 ("c", "d", 0.7)],
        )
        before = run.facts()
        # (a, c) loses b's 0.3 and gains a direct 0.25: 0.55, still held.
        run.step(
            added={"own": [("a", "c", 0.25), ("a", "c", 0.1)]},
            removed={"own": [("a", "c", 0.3)]},
        )
        assert run.facts() == before
        # ... loses that and gains too little: gone, and (a, d) with it.
        run.step(
            added={"own": [("a", "c", 0.15)]},
            removed={"own": [("a", "c", 0.25)]},
        )
        assert {f[-2:] for f in before - run.facts()} == {("a", "c"), ("a", "d")}


# ---------------------------------------------------------------------------
# Negation maintained by key
# ---------------------------------------------------------------------------

#: (program, arity of each extensional predicate, derived predicates)
NEGATION_PROGRAMS = {
    # The default-value pair of V_I (ssst/views.py).
    "default-pair": (
        "base(K), attr(K, V) -> val(K, V).\n"
        "base(K), attr(K, V) -> has(K).\n"
        'base(K), not has(K) -> val(K, "none").',
        {"base": 1, "attr": 2}, ["val", "has"]),
    "anonymous-in-negation": (
        "a(X), not p(X, _) -> q(X).", {"a": 1, "p": 2}, ["q"]),
    "two-negated-atoms": (
        "a(X), b(Y), not p(X, Y), not q(Y, _) -> r(X, Y).\n"
        "r(X, Y), not a(Y) -> w(X).",
        {"a": 1, "b": 1, "p": 2, "q": 2}, ["r", "w"]),
    "second-rule-same-head": (
        "a(X), not p(X) -> r(X).\nb(X) -> r(X).",
        {"a": 1, "p": 1, "b": 1}, ["r"]),
    "constants-and-repeats": (
        "e(X, Y), not f(X, X) -> r(X, Y).\n"
        'e(X, Y), not f(Y, "n1") -> s(X, Y).',
        {"e": 2, "f": 2}, ["r", "s"]),
    "skolem-head": (
        "a(X), not p(X) -> r(#f(X), X).\nr(F, X) -> via(F).",
        {"a": 1, "p": 1}, ["r", "via"]),
    "negated-closure": (
        "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).\n"
        "node(X), node(Y), not tc(X, Y) -> unreach(X, Y).",
        {"e": 2, "node": 1}, ["tc", "unreach"]),
    "chain-of-defaults": (
        "a(X), not p(X) -> r(X).\nr(X), not q(X) -> s(X).\n"
        "s(X), not b(X) -> t(X).",
        {"a": 1, "p": 1, "q": 1, "b": 1}, ["r", "s", "t"]),
}


class TestNegationByKey:
    @ENGINES
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(NEGATION_PROGRAMS))
    def test_battery(self, name, seed, use_plans, columnar):
        """Every extensional predicate, the negated ones included, gains
        and loses facts in one delta; six chained deltas."""
        text, arities, predicates = NEGATION_PROGRAMS[name]
        rng = random.Random(9000 + seed)
        names = [f"n{i}" for i in range(rng.randrange(2, 6))]

        def fact(arity):
            return tuple(rng.choice(names) for _ in range(arity))

        current = {
            p: {fact(arity) for _ in range(rng.randrange(0, 8))}
            for p, arity in arities.items()
        }
        program = parse_program(text)
        engine = Engine(use_plans=use_plans, columnar=columnar)
        result = engine.run(
            program, retain_state=True,
            inputs={p: sorted(facts) for p, facts in current.items()},
        )
        for _round in range(6):
            added, removed = {}, {}
            for p, arity in arities.items():
                if rng.random() < 0.6:
                    fresh = {fact(arity) for _ in range(rng.randrange(1, 3))}
                    if fresh - current[p]:
                        added[p] = sorted(fresh - current[p])
                if rng.random() < 0.6 and current[p]:
                    removed[p] = rng.sample(
                        sorted(current[p]), min(len(current[p]), 2))
            delta = engine.apply_delta(result, added=added, removed=removed)
            assert delta.strata_recomputed == 0, delta.recompute_reasons
            for p in arities:
                current[p] = (current[p] - set(removed.get(p, ()))) | set(
                    added.get(p, ()))
            oracle = Engine(use_plans=False, columnar=columnar).run(
                program, inputs={p: sorted(f) for p, f in current.items()})
            for predicate in predicates:
                assert _canon(result.facts(predicate)) == _canon(
                    oracle.facts(predicate)), (name, predicate, _round)

    def test_another_fact_keeps_the_negation_false(self):
        """``not p(X, _)``: losing p(a, 1) derives nothing while p(a, 2)
        is there — the body on the new database is the arbiter."""
        engine = Engine()
        result = engine.run(
            parse_program("a(X), not p(X, _) -> q(X)."), retain_state=True,
            inputs={"a": [("a",), ("b",)], "p": [("a", 1), ("a", 2)]},
        )
        assert result.facts("q") == {("b",)}
        delta = engine.apply_delta(result, removed={"p": [("a", 1)]})
        assert result.facts("q") == {("b",)} and "q" not in delta.added
        delta = engine.apply_delta(result, removed={"p": [("a", 2)]})
        assert delta.added["q"] == {("a",)} and delta.strata_recomputed == 0
        delta = engine.apply_delta(
            result, added={"p": [("b", 7), ("a", 3)]}, removed={"a": [("b",)]}
        )
        assert not result.facts("q") and delta.strata_recomputed == 0


# ---------------------------------------------------------------------------
# What is still recomputed says so
# ---------------------------------------------------------------------------


class TestRecomputeReasons:
    @pytest.mark.parametrize("text,inputs,delta,reason", [
        ("own(Z, Y, W), V = mmax(W, <Z>), V > 0.4 -> strong(Y, V).",
         {"own": [("a", "b", 0.6)]}, {"removed": {"own": [("a", "b", 0.6)]}},
         "aggregate target in the head"),
        ("own(Z, Y, W), C = mcount(W, <Z>), C < 3 -> few(Y).",
         {"own": [("a", "b", 0.6)]}, {"added": {"own": [("c", "b", 0.1)]}},
         "post-condition is not a lower bound"),
        ("own(Z, Y, W), V = min(W, <Z>), V > 0.1 -> low(Y).",
         {"own": [("a", "b", 0.6)]}, {"added": {"own": [("c", "b", 0.3)]}},
         "non-monotone aggregate"),
        ("e(X, Y), not blocked(Y) -> r(X, Y).\n"
         "r(X, Y), e(Y, Z), not blocked(Z) -> r(X, Z).",
         {"e": [("a", "b"), ("b", "c")], "blocked": [("z",)]},
         {"added": {"blocked": [("c",)]}}, "negation in a recursive stratum"),
        ("a(X), not p(X) -> q(X, Z).",
         {"a": [("a",)], "p": [("b",)]}, {"added": {"p": [("a",)]}},
         "negation beside an aggregate or an existential head"),
        # A writer without a full named frontier (TestNullStableRecompute).
        ("r(X, Y) -> q(X, Z).\nq(X, Z) -> s(Z).",
         {"r": [("a", 1), ("a", 2)]}, {"removed": {"r": [("a", 1)]}},
         "existential writer refused by the gate"),
    ])
    def test_reason_names_the_rule(self, text, inputs, delta, reason):
        tracer = RecordingTracer()
        engine = Engine(tracer=tracer)
        program = parse_program(text)
        result = engine.run(program, inputs=inputs, retain_state=True)
        outcome = engine.apply_delta(result, **delta)
        assert reason in RECOMPUTE_REASONS
        assert [entry[1:] for entry in outcome.recompute_reasons] == [
            ("r0", reason)]
        assert outcome.strata_recomputed == 1
        assert tracer.metrics.counters()["incr.strata_recomputed"] == 1
        current = _mutated_inputs(
            inputs, delta.get("added", {}), delta.get("removed", {}))
        oracle = Engine().run(program, inputs=current)
        for predicate in program.idb_predicates():
            assert _canon(result.facts(predicate)) == _canon(
                oracle.facts(predicate))

    def test_dred_span_counts_its_own_stratum(self):
        """Two strata over-delete in one update; each span reports what
        its stratum did, not the running total."""
        tracer = RecordingTracer()
        engine = Engine(tracer=tracer)
        result = engine.run(
            parse_program("e(X, Y) -> p(X, Y).\np(X, Y) -> q(X).\nf(X) -> q(X)."),
            inputs={"e": [("a", "b"), ("a", "c")], "f": [("a",)]},
            retain_state=True,
        )
        tracer.clear()
        delta = engine.apply_delta(
            result, removed={"e": [("a", "b"), ("a", "c")]})
        spans = tracer.find_spans("incr.dred")
        assert [
            (s.attrs["overdeleted"], s.attrs["rederived"]) for s in spans
        ] == [(2, 0), (1, 1)]
        assert (delta.overdeleted, delta.rederived) == (3, 1)


# ---------------------------------------------------------------------------
# A recomputed stratum keeps the nulls of the heads it derives again
# ---------------------------------------------------------------------------


class TestNullStableRecompute:
    PROGRAM = "r(X, Y) -> q(X, Z).\nq(X, Z) -> s(Z)."

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("columnar", [True, False])
    def test_net_delta_and_one_firing_per_assignment(self, use_plans, columnar):
        engine = Engine(use_plans=use_plans, columnar=columnar)
        result = engine.run(
            parse_program(self.PROGRAM),
            inputs={"r": [("a", 1), ("a", 2), ("b", 1), ("c", 1)]},
            retain_state=True,
        )
        # Both r(a, _) fire in one round: the pattern q(a, Z) holds twice.
        first = set(result.facts("q"))
        assert len(first) == 4
        (gone,) = (fact for fact in first if fact[0] == "b")
        delta = engine.apply_delta(result, removed={"r": [("b", 1)]})
        assert delta.strata_recomputed >= 1
        assert set(result.facts("q")) == first - {gone}  # same nulls
        assert delta.removed == {
            "r": {("b", 1)}, "q": {gone}, "s": {(gone[1],)}}
        assert not delta.added
        # One of the two q(a, Z) firings goes: one of their nulls stays,
        # the other is forgotten; what is new is a fresh ordinal.
        delta = engine.apply_delta(
            result, added={"r": [("d", 1)]}, removed={"r": [("a", 1)]}
        )
        now = set(result.facts("q"))
        assert len(now & first) == 2 and len(now) == 3
        assert {fact[0] for fact in delta.removed["q"]} == {"a"}
        ((_, fresh),) = delta.added["q"]
        assert fresh.ordinal == 5
        remembered = [
            null
            for assignments in result.state.nulls.minted["q"].values()
            for assignment in assignments
            for null in assignment.values()
        ]
        assert sorted(remembered, key=repr) == sorted(
            (fact[1] for fact in now), key=repr)
        assert not result.state.nulls.reclaim


# ---------------------------------------------------------------------------
# EvaluationResult.per_stratum_facts
# ---------------------------------------------------------------------------


class TestPerStratumFacts:
    PROGRAM = (
        "e(X, Y) -> r(X, Y).\n"
        "r(X, Y), not blocked(X) -> ok(X, Y)."
    )

    def test_partition_covers_derived_predicates(self):
        result = Engine().run(
            parse_program(self.PROGRAM),
            inputs={"e": [("a", "b")], "blocked": [("z",)]},
        )
        snapshot = result.per_stratum_facts()
        owners = {
            predicate: index
            for index, relations in snapshot.items()
            for predicate in relations
        }
        assert owners["r"] < owners["ok"]  # negation forces a later stratum
        assert snapshot[owners["ok"]]["ok"] == frozenset({("a", "b")})
        assert "e" in snapshot[-1] or "e" in snapshot[owners["r"]]

    def test_snapshot_is_stable_under_updates(self):
        engine = Engine()
        result = engine.run(
            parse_program(self.PROGRAM),
            inputs={"e": [("a", "b")], "blocked": [("z",)]},
            retain_state=True,
        )
        snapshot = result.per_stratum_facts()
        frozen = {
            index: {p: set(facts) for p, facts in relations.items()}
            for index, relations in snapshot.items()
        }
        engine.apply_delta(result, added={"e": [("b", "c")]})
        assert {
            index: {p: set(facts) for p, facts in relations.items()}
            for index, relations in snapshot.items()
        } == frozen
        assert result.facts("ok") == {("a", "b"), ("b", "c")}


# ---------------------------------------------------------------------------
# Materializer update (registry delta through the retained pipeline)
# ---------------------------------------------------------------------------


def _canon_graph(graph):
    def can(value):
        return value if isinstance(value, (str, int, float, bool)) else "<derived>"

    nodes = {
        (can(n.id), n.label,
         tuple(sorted((k, can(v)) for k, v in n.properties.items())))
        for n in graph.nodes()
    }
    edges = {
        (can(e.source), can(e.target), e.label,
         tuple(sorted((k, can(v)) for k, v in e.properties.items())))
        for e in graph.edges()
    }
    return nodes, edges


def _control_sigma():
    return parse_metalog(programs.CONTROL_PROGRAM)


@pytest.fixture()
def retained(company_schema, owns_instance):
    materializer = diff_is_the_oracle(IntensionalMaterializer())
    report = materializer.materialize(
        company_schema, owns_instance, _control_sigma(),
        instance_oid=9, retain=True,
    )
    return materializer, report


def _owns_graph():
    """A fresh copy of the conftest ``owns_instance`` shape, for building
    expected registries (``update`` maintains the caller's graph in
    place, so the fixture object itself reflects the delta afterwards)."""
    data = PropertyGraph("owns")
    for business in ("B1", "B2", "B3"):
        data.add_node(
            business, "Business",
            fiscalCode=f"FC{business}", businessName=f"{business} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    data.add_edge("B1", "B2", "OWNS", percentage=0.6)
    data.add_edge("B2", "B3", "OWNS", percentage=0.3)
    data.add_edge("B1", "B3", "OWNS", percentage=0.3)
    return data


def _reference(data):
    return IntensionalMaterializer().materialize(
        company_super_schema(), data, _control_sigma(), instance_oid=9
    )


class TestMaterializerUpdate:
    def test_insert_differential(self, retained, owns_instance):
        materializer, _report = retained
        delta = RegistryDelta(
            add_nodes=[("B4", "Business", {
                "fiscalCode": "FCB4", "businessName": "B4 SpA",
                "legalNature": "spa", "shareholdingCapital": 500.0})],
            add_edges=[("o4", "B3", "B4", "OWNS", {"percentage": 0.9})],
        )
        outcome = materializer.update(delta)
        expected = _owns_graph()
        expected.add_node(
            "B4", "Business", fiscalCode="FCB4", businessName="B4 SpA",
            legalNature="spa", shareholdingCapital=500.0,
        )
        expected.add_edge("B3", "B4", "OWNS", percentage=0.9, edge_id="o4")
        assert _canon_graph(outcome.instance.data) == _canon_graph(
            _reference(expected).instance.data
        )
        # The registry graph passed to materialize() is maintained in place.
        assert owns_instance.has_node("B4")
        assert outcome.flush_delta.changed()
        assert outcome.engine_seconds > 0

    def test_delete_differential(self, retained, owns_instance):
        materializer, _report = retained
        edge = min(owns_instance.edges("OWNS"),
                   key=lambda e: (e.source, e.target))
        outcome = materializer.update(RegistryDelta(remove_edges=[edge.id]))
        expected = _owns_graph()
        match = min(
            (e for e in expected.edges("OWNS")
             if (e.source, e.target) == (edge.source, edge.target)),
            key=lambda e: str(e.id),
        )
        expected.remove_edge(match.id)
        assert _canon_graph(outcome.instance.data) == _canon_graph(
            _reference(expected).instance.data
        )

    def test_node_removal_cascades_incident_edges(self, retained):
        materializer, _report = retained
        outcome = materializer.update(RegistryDelta(remove_nodes=["B3"]))
        expected = _owns_graph()
        expected.remove_node("B3")
        assert _canon_graph(outcome.instance.data) == _canon_graph(
            _reference(expected).instance.data
        )
        assert not outcome.instance.data.has_node("B3")

    def test_chained_updates(self, retained):
        materializer, _report = retained
        materializer.update(RegistryDelta(
            add_nodes=[("B4", "Business", {"fiscalCode": "FCB4",
                                           "businessName": "B4 SpA"})],
            add_edges=[("o4", "B1", "B4", "OWNS", {"percentage": 0.8})],
        ))
        outcome = materializer.update(RegistryDelta(remove_nodes=["B4"]))
        assert _canon_graph(outcome.instance.data) == _canon_graph(
            _reference(_owns_graph()).instance.data
        )
        assert materializer.retained.updates_applied == 2

    def test_views_and_control_are_maintained_not_recomputed(self, retained):
        """V_I's negation defaults by key, the control stratum by DRed:
        no stratum of the three chase states is recomputed, and the
        result is a from-scratch materialize up to nulls."""
        materializer, _report = retained
        expected = _owns_graph()

        def stake(graph, source, target):
            (edge,) = (e for e in graph.edges("OWNS")
                       if (e.source, e.target) == (source, target))
            return edge.id

        steps = [
            # One OWNS edge: B3 now holds B1, closing a cycle.
            (RegistryDelta(add_edges=[
                ("o9", "B3", "B1", "OWNS", {"percentage": 0.7})]),
             lambda: expected.add_edge(
                 "B3", "B1", "OWNS", percentage=0.7, edge_id="o9")),
            # One removal: B1 loses B2, and B3 with it.
            (RegistryDelta(remove_edges=[
                stake(materializer.retained.data, "B1", "B2")]),
             lambda: expected.remove_edge(stake(expected, "B1", "B2"))),
            # One Business with three of its six attributes missing.
            (RegistryDelta(add_nodes=[("B4", "Business", {
                "fiscalCode": "FCB4", "businessName": "B4 SpA",
                "legalNature": "spa"})]),
             lambda: expected.add_node(
                 "B4", "Business", fiscalCode="FCB4", businessName="B4 SpA",
                 legalNature="spa")),
        ]
        for delta, mutate in steps:
            outcome = materializer.update(delta)
            assert outcome.strata_recomputed == 0, outcome.recompute_reasons
            mutate()
            assert _canon_graph(outcome.instance.data) == _canon_graph(
                _reference(expected).instance.data
            )

    def test_the_old_world_appends_no_row(self, retained, monkeypatch):
        """40 chained remove / re-add / replace deltas, by count: every
        row the three retained databases grow by is a fact the net delta
        added or an over-deleted one that came back — the old world of
        the over-deletion joins costs a byte per seed, no row and no
        tombstone — and the result is a from-scratch materialize."""
        from repro.vadalog import incremental

        materializer, _report = retained
        kept = materializer.retained
        results = (kept.result_load, kept.result_reason, kept.result_flush)

        def rows(database):
            return sum(r._nrows for r in database._relations.values())

        real_joins = incremental._overdelete_joins

        def joins(engine, state, stratum, db, *rest):
            before = rows(db), db.dead_rows()
            try:
                return real_joins(engine, state, stratum, db, *rest)
            finally:
                assert (rows(db), db.dead_rows()) == before

        monkeypatch.setattr(incremental, "_overdelete_joins", joins)

        expected = _owns_graph()
        rng = random.Random(7)
        names = ("B1", "B2", "B3")
        pairs = [(a, b) for a in names for b in names if a != b]
        revived = 0
        for step in range(40):
            pair = rng.choice(pairs)
            held = [e.id for e in expected.edges("OWNS")
                    if (e.source, e.target) == pair]
            remove = [e.id for e in kept.data.edges("OWNS")
                      if (e.source, e.target) == pair]
            add = []
            if not held or step % 3:  # re-add, or replace in one delta
                share = rng.choice((0.2, 0.35, 0.55, 0.7))
                add = [(f"s{step}", *pair, "OWNS", {"percentage": share})]
            starts = [rows(result.database) for result in results]
            outcome = materializer.update(
                RegistryDelta(add_edges=add, remove_edges=remove)
            )
            assert outcome.strata_recomputed == 0, outcome.recompute_reasons
            deltas = (
                outcome.delta_load, outcome.delta_reason, outcome.delta_flush
            )
            for result, start, delta in zip(results, starts, deltas):
                grown = rows(result.database) - start
                # (An over-deleted fact that comes back takes a new row.)
                assert 0 <= grown - delta.total_added <= delta.overdeleted
            revived += sum(delta.overdeleted for delta in deltas)
            for edge_id in held:
                expected.remove_edge(edge_id)
            for edge_id, source, target, label, properties in add:
                expected.add_edge(
                    source, target, label, edge_id=edge_id, **properties
                )
            if step % 8 == 7:
                assert _canon_graph(outcome.instance.data) == _canon_graph(
                    _reference(expected).instance.data
                )
        assert revived  # the deltas did over-delete: the joins ran

    def test_update_requires_retained_run(self, company_schema, owns_instance):
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, owns_instance, _control_sigma(), instance_oid=9
        )
        with pytest.raises(EvaluationError, match="retain=True"):
            materializer.update(RegistryDelta(remove_nodes=["B1"]))

    def test_unknown_type_rejected(self, retained):
        materializer, _report = retained
        with pytest.raises(SchemaError):
            materializer.update(RegistryDelta(
                add_nodes=[("X1", "NotAType", {})]
            ))

    def test_duplicate_node_rejected(self, retained):
        materializer, _report = retained
        with pytest.raises(SchemaError, match="already"):
            materializer.update(RegistryDelta(
                add_nodes=[("B1", "Business", {})]
            ))

    def test_missing_endpoint_rejected(self, retained):
        materializer, _report = retained
        with pytest.raises(SchemaError, match="missing node"):
            materializer.update(RegistryDelta(
                add_edges=[("oX", "B1", "ghost", "OWNS", {"percentage": 0.5})]
            ))

    def test_remove_unknown_element_rejected(self, retained):
        materializer, _report = retained
        with pytest.raises(SchemaError, match="unknown"):
            materializer.update(RegistryDelta(remove_nodes=["ghost"]))

    def test_compile_cache_reused(self, company_schema, owns_instance):
        materializer = IntensionalMaterializer()
        sigma = _control_sigma()
        materializer.materialize(
            company_schema, owns_instance, sigma, instance_oid=9
        )
        first = dict(materializer._compile_cache)
        materializer.materialize(
            company_schema, owns_instance, sigma, instance_oid=9
        )
        assert len(materializer._compile_cache) == 1
        key, entry = next(iter(materializer._compile_cache.items()))
        assert first[key] is entry  # second run reused the compiled views


class TestRegistryDelta:
    def test_from_json_dict(self):
        delta = RegistryDelta.from_json_dict({
            "add_nodes": [{"id": "c9", "type": "Business",
                           "properties": {"businessName": "NewCo"}}],
            "add_edges": [{"id": "o9", "source": "c1", "target": "c9",
                           "type": "OWNS",
                           "properties": {"percentage": 0.6}}],
            "remove_nodes": ["c3"],
            "remove_edges": ["o7"],
        })
        assert delta.add_nodes == [
            ("c9", "Business", {"businessName": "NewCo"})
        ]
        assert delta.add_edges == [
            ("o9", "c1", "c9", "OWNS", {"percentage": 0.6})
        ]
        assert delta.remove_nodes == ["c3"] and delta.remove_edges == ["o7"]
        assert not delta.is_empty()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="unknown change keys"):
            RegistryDelta.from_json_dict({"nodes": []})

    def test_bad_entry_rejected(self):
        with pytest.raises(SchemaError, match="add_edges"):
            RegistryDelta.from_json_dict({
                "add_edges": [{"id": "o9", "source": "c1"}]
            })


# ---------------------------------------------------------------------------
# FlushDelta.diff and the store appliers
# ---------------------------------------------------------------------------


class TestFlushDeltaDiff:
    def test_categories(self):
        old = PropertyGraph("old")
        old.add_node("a", "A", x=1)
        old.add_node("b", "A", x=2)
        old.add_node("c", "A", x=3)
        old.add_edge("a", "b", "R", edge_id="e1")
        old.add_edge("b", "c", "R", edge_id="e2", w=1)
        new = PropertyGraph("new")
        new.add_node("a", "A", x=1)        # unchanged
        new.add_node("b", "B", x=2)        # label change -> remove + add
        new.add_node("d", "A", x=4)        # added; c removed
        new.add_edge("a", "b", "R", edge_id="e1")        # unchanged
        new.add_edge("a", "d", "R", edge_id="e3")        # added; e2 removed
        delta = FlushDelta.diff(old, new)
        assert {n[0] for n in delta.added_nodes} == {"b", "d"}
        assert {n[0] for n in delta.removed_nodes} == {"b", "c"}
        assert not delta.updated_nodes
        assert {e[0] for e in delta.added_edges} == {"e3"}
        assert {e[0] for e in delta.removed_edges} == {"e2"}
        assert delta.changed() and delta.total_changes == 6
        assert "+2" in delta.summary()

    def test_property_change_is_update(self):
        old = PropertyGraph("old")
        old.add_node("a", "A", x=1)
        new = PropertyGraph("new")
        new.add_node("a", "A", x=2)
        delta = FlushDelta.diff(old, new)
        assert delta.updated_nodes == [("a", "A", {"x": 2}, {"x": 1})]
        assert not delta.added_nodes and not delta.removed_nodes


def _business_props(fiscal_code, name):
    return {
        "fiscalCode": fiscal_code, "businessName": name,
        "legalNature": "spa", "shareholdingCapital": 1000.0,
    }


@pytest.fixture()
def pg_store(company_schema):
    store = GraphStore()
    store.deploy(
        SSST().translate(company_schema, "property-graph").target_schema
    )
    store.create_node("B1", ["Business", "LegalPerson"],
                      **_business_props("FC1", "One SpA"))
    store.create_node("B2", ["Business", "LegalPerson"],
                      **_business_props("FC2", "Two SpA"))
    store.create_relationship("B1", "B2", "OWNS", percentage=0.6)
    return store


class TestGraphStoreDelta:
    def test_apply_delta(self, pg_store, company_schema):
        delta = FlushDelta(
            added_nodes=[("B3", "Business", _business_props("FC3", "Three SpA"))],
            added_edges=[("x", "B2", "B3", "OWNS", {"percentage": 0.9})],
            updated_nodes=[("B1", "Business",
                            _business_props("FC1", "One"),
                            _business_props("FC1", "One SpA"))],
        )
        report = pg_store.apply_flush_delta(delta, schema=company_schema)
        assert report.nodes_added == 1 and report.edges_added == 1
        assert report.nodes_updated == 1 and report.skipped == 0
        assert pg_store.graph.node("B1").get("businessName") == "One"
        # Multi-label tagging follows the schema's generalizations.
        assert "LegalPerson" in pg_store.labels_of("B3")

    def test_removals_and_skips(self, pg_store):
        delta = FlushDelta(
            removed_edges=[("x", "B1", "B2", "OWNS", {"percentage": 0.6})],
            removed_nodes=[("B2", "Business", {}), ("ghost", "Business", {})],
        )
        report = pg_store.apply_flush_delta(delta)
        assert report.edges_removed == 1 and report.nodes_removed == 1
        assert report.skipped == 1  # the ghost removal is counted, not fatal
        assert not pg_store.graph.has_node("B2")

    def test_failed_insert_batch_rolls_back(self, pg_store, company_schema):
        delta = FlushDelta(
            added_nodes=[("B9", "Business", _business_props("FC9", "Nine SpA"))],
            added_edges=[("x", "B9", "nowhere", "OWNS", {"percentage": 0.1})],
        )
        with pytest.raises(Exception):
            pg_store.apply_flush_delta(delta, schema=company_schema)
        assert not pg_store.graph.has_node("B9")  # insert batch rolled back


@pytest.fixture()
def rel_engine():
    schema = RelationalSchema("mini")
    schema.tables["person"] = Table("person", [
        Column("pid", "string", is_pk=True),
        Column("name", "string"),
    ])
    schema.tables["pet"] = Table("pet", [
        Column("tag", "string", is_pk=True),
        Column("owner_pid", "string"),
    ])
    schema.foreign_keys.append(
        ForeignKey("fk_owner", "pet", ["owner_pid"], "person", ["pid"])
    )
    engine = RelationalEngine()
    engine.deploy(schema)
    engine.insert("person", pid="p1", name="Ada")
    engine.insert("person", pid="p2", name="Bob")
    engine.insert("pet", tag="t1", owner_pid="p1")
    return engine


class TestRelationalDelta:
    def test_apply_delta(self, rel_engine):
        counts = rel_engine.apply_flush_delta(
            added={"person": [{"pid": "p3", "name": "Cyd"}]},
            removed={"pet": [{"tag": "t1"}]},
        )
        assert counts == {"inserted": 1, "deleted": 1}
        assert rel_engine.count("person") == 3
        assert rel_engine.count("pet") == 0

    def test_fk_restrict_on_delete(self, rel_engine):
        with pytest.raises(IntegrityError):
            rel_engine.delete("person", pid="p1")  # referenced by pet t1
        assert rel_engine.count("person") == 2

    def test_failed_delta_rolls_back_everything(self, rel_engine):
        with pytest.raises(IntegrityError):
            rel_engine.apply_flush_delta(
                added={
                    "person": [{"pid": "p3", "name": "Cyd"}],
                    "pet": [{"tag": "t2", "owner_pid": "ghost"}],  # bad FK
                },
            )
        assert rel_engine.count("person") == 2  # p3 rolled back
        assert rel_engine.count("pet") == 1

    def test_delete_rebuilds_pk_index(self, rel_engine):
        rel_engine.apply_flush_delta(removed={"pet": [{"tag": "t1"}]})
        assert rel_engine.delete("person", pid="p1") == 1
        assert list(rel_engine.select("person", pid="p2"))[0]["name"] == "Bob"


class TestTripleStoreDelta:
    @pytest.fixture()
    def store(self, company_schema):
        store = TripleStore()
        store.deploy(SSST().translate(company_schema, "rdf").target_schema)
        store.add("B1", "rdf:type", "Business")
        store.add("B1", "fiscalCode", "FC1")
        store.add("B2", "rdf:type", "Business")
        store.add("B1", "OWNS", "B2")
        return store

    def test_apply_delta(self, store, company_schema):
        report = store.apply_flush_delta(FlushDelta(
            added_nodes=[("B3", "Business", {"fiscalCode": "FC3",
                                             "notDeclared": 1})],
            added_edges=[("x", "B2", "B3", "OWNS", {})],
            removed_edges=[("y", "B1", "B2", "OWNS", {})],
        ), schema=company_schema)
        assert report.nodes_added == 1
        assert report.edges_added == 1 and report.edges_removed == 1
        assert store.has("B3", "fiscalCode", "FC3")
        assert not store.has("B3", "notDeclared", 1)  # schema-filtered
        assert not store.has("B1", "OWNS", "B2")
        assert store.has("B2", "OWNS", "B3")

    def test_node_removal_retracts_attributes(self, store, company_schema):
        report = store.apply_flush_delta(FlushDelta(
            removed_nodes=[("B1", "Business", {"fiscalCode": "FC1"})],
        ), schema=company_schema)
        assert report.nodes_removed == 1
        assert not store.has("B1", "rdf:type", "Business")
        assert not store.has("B1", "fiscalCode", "FC1")

    def test_retract_is_undo_logged(self, store):
        savepoint = store.savepoint()
        assert store.retract("B1", "OWNS", "B2")
        assert not store.has("B1", "OWNS", "B2")
        store.rollback_to(savepoint)
        assert store.has("B1", "OWNS", "B2")
