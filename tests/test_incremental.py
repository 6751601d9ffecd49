"""Incremental materialization: delta-chase differential battery,
DRed edge cases, materializer updates, and store delta-flush appliers."""

import gc
import random
import re
import sys
import types
from functools import partial
from pathlib import Path

import pytest

from repro.deploy import (
    FlushDelta,
    GraphStore,
    RelationalEngine,
    TripleStore,
    graph_store_state,
    load_graph_store,
    load_triple_store,
)
import repro
from repro.cli import demo_serve_inputs
from repro.errors import EvaluationError, IntegrityError, SchemaError
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
from repro.ssst import SSST, IntensionalMaterializer, RegistryDelta
from repro.serve import ServeState
from repro.ssst.inverse import graph_instance_to_relational
from repro.stream import FlushDeltaTarget
from repro.obs import RecordingTracer
from repro.vadalog import Engine, incremental, parse_program, terms
from repro.vadalog.ast import Rule
from repro.vadalog.columnar import ColumnarRelation
from repro.vadalog.engine import EvaluationStats
from repro.vadalog.incremental import (
    RECOMPUTE_REASONS,
    _aggregate_refusal,
    _classify_stratum,
    _existential_signature,
)
from repro.vadalog.plan import _K_EXIST
from repro.vadalog.terms import Null

from tests.conftest import diff_is_the_oracle, reads_as_written
from tests.test_engine_plans import (
    CHASE_OF,
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
)
from tests.test_materializer import (
    arbitration_deltas,
    arbitration_registry,
    kgbench_registry,
)
from tests.reference import ImageDiffRelationalTarget, InterpretedEngine

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
    engine = CHASE_OF[use_plans, True]()
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
        oracle = InterpretedEngine().run(program, inputs=current)
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

    def test_a_removal_is_reported_as_its_row_held_it(self, company_schema):
        """A retracted fact is reported by the values its row held, not
        in the ``==`` form of the derivation or request that removed it:
        ``Family(skFamily(1), 1, 1)``, derived again by the person whose
        surname is ``True``, goes as ``1``, and so does a stake to
        ``1.0``."""
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, arbitration_registry(),
            parse_metalog(programs.FAMILY_PROGRAM), instance_oid=9, retain=True,
        )
        reported = []
        for what, delta in arbitration_deltas():
            database = materializer.retained.result.database
            held = {p: {repr(fact) for fact in database.relation(p)}
                    for p in database.predicates()}
            removed = materializer.update(delta).delta_reason.removed
            for predicate, facts in removed.items():
                for fact in facts:
                    assert repr(fact) in held[predicate], (what, predicate, fact)
                    reported.append((predicate, repr(fact)))
        family = terms.SkolemValue("skFamily", (1,))
        assert ("Family", repr((family, 1, 1))) in reported

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
# What is extensional: the supplied facts, for a predicate no rule writes
# and for one that rules derive too
# ---------------------------------------------------------------------------

#: ``e`` / ``own`` / ``p`` are read only; ``tc`` is maintained by DRed,
#: ``low`` (a non-monotone aggregate) recomputed from its boundary, and
#: ``q`` derived from ``p``.
EXTENSION = (
    "e(X, Y) -> tc(X, Y).\n"
    "tc(X, Y), e(Y, Z) -> tc(X, Z).\n"
    "own(Z, Y, W), V = min(W, <Z>), V > 0.1 -> low(Y).\n"
    "p(X) -> q(X)."
)


def _against_a_fresh_run(inputs, deltas, extension):
    """Apply ``deltas`` to a retained run of :data:`EXTENSION` over
    ``inputs``; every relation then equals a from-scratch run over
    ``extension``.  Returns each delta's :class:`DeltaResult`."""
    program = parse_program(EXTENSION)
    engine = Engine()
    result = engine.run(program, inputs=inputs, retain_state=True)
    outcomes = [engine.apply_delta(result, **delta) for delta in deltas]
    fresh = Engine().run(program, inputs=extension)
    for predicate in program.predicates():
        assert result.facts(predicate) == fresh.facts(predicate), predicate
    return outcomes


class TestExtensionSemantics:
    """Each case on a predicate no rule writes (``p``, ``e``, ``own``)
    and on one that rules write (``q``, ``tc``, ``low``), against a
    from-scratch run over the extension it should leave."""

    @pytest.mark.parametrize("predicate", ["p", "q"])
    def test_removing_1_takes_the_supplied_true(self, predicate):
        """``(1,)`` removes ``(True,)``, and a second time finds nothing."""
        outcome, again = _against_a_fresh_run(
            {predicate: [(True,)]}, [{"removed": {predicate: [(1,)]}}] * 2, {})
        assert (outcome.skipped_removals, again.skipped_removals) == (0, 1)
        assert [(f, type(f[0])) for f in outcome.removed[predicate]] == [
            ((True,), bool)]

    @pytest.mark.parametrize("predicate", ["p", "q"])
    def test_a_fact_never_supplied_is_skipped(self, predicate):
        """``q("a")`` is derived, ``p("b")`` absent: neither was supplied."""
        fact = ("a",) if predicate == "q" else ("b",)
        (outcome,) = _against_a_fresh_run(
            {"p": [("a",)]}, [{"removed": {predicate: [fact]}}],
            {"p": [("a",)]})
        assert outcome.skipped_removals == 1 and not outcome.changed()

    @pytest.mark.parametrize("predicate", ["p", "q"])
    def test_a_fact_added_again_is_extensional_once(self, predicate):
        """Adding ``q("a")``, derived from ``p("a")``, makes it
        extensional: it outlives its support.  Adding ``p("a")`` again
        changes nothing: one removal takes it."""
        added, removed = _against_a_fresh_run(
            {"p": [("a",)]},
            [{"added": {predicate: [("a",)]}}, {"removed": {"p": [("a",)]}}],
            {"q": [("a",)]} if predicate == "q" else {})
        assert not added.changed()
        assert removed.skipped_removals == 0
        assert ("q" in removed.removed) == (predicate == "p")

    @pytest.mark.parametrize("written", [False, True])
    def test_supplied_facts_outlive_a_recompute_and_a_dred_pass(self, written):
        """``own(a, b, 0.6)`` and ``e(a, b)`` — and, where rules write
        them too, ``low(s)``, ``tc(a, c)`` (derived as well) and
        ``tc(z, w)`` — stay through a recompute of ``low``'s stratum and
        a DRed pass over ``tc``'s."""
        inputs = {"own": [("a", "b", 0.6)], "e": [("a", "b"), ("b", "c")]}
        if written:
            inputs.update(low=[("s",)], tc=[("a", "c"), ("z", "w")])
        extension = {
            **inputs, "own": [("a", "b", 0.6), ("c", "b", 0.3)], "e": [("a", "b")]}
        recomputed, dred = _against_a_fresh_run(
            inputs,
            [{"added": {"own": [("c", "b", 0.3)]}},
             {"removed": {"e": [("b", "c")]}}],
            extension)
        assert [entry[2] for entry in recomputed.recompute_reasons] == [
            "non-monotone aggregate"]
        assert dred.overdeleted >= 1 and not dred.recompute_reasons
        assert (("a", "c") in dred.removed.get("tc", ())) is not written


def set_copies(state):
    """The predicates no rule writes whose facts a set reachable from the
    retained ``state`` holds, the relations themselves aside."""
    db = state.database
    written = state.working.idb_predicates()
    unwritten = {p: db.relation(p) for p in db.predicates() if p not in written}
    skipped = (type, types.ModuleType, types.FunctionType, types.CodeType,
               types.BuiltinFunctionType, ColumnarRelation)
    seen, stack, found = set(), [state], set()
    while stack:
        held = stack.pop()
        if id(held) in seen or isinstance(held, skipped):
            continue
        seen.add(id(held))
        if isinstance(held, (set, frozenset)):
            found |= {p for p, relation in unwritten.items() for fact in held
                      if isinstance(fact, tuple) and fact in relation}
        else:
            stack.extend(gc.get_referents(held))
    return found


class TestExtensionHeldOnce:
    """A retained chase holds its extension once: a predicate no rule
    writes has its relation, and no set copy of it."""

    def test_no_set_copies_an_unwritten_relation(self, company_schema):
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, kgbench_registry(1000, 42)[1],
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=7, retain=True,
        )
        serve = ServeState(*demo_serve_inputs(1000, 42))
        for state, unwritten in (
            (materializer.retained.result.state, {"Business", "OWNS"}),
            (serve._result.state, {"company", "own"}),
        ):
            assert set_copies(state) == set()
            for predicate in unwritten:
                assert state.extension(predicate) is state.database.relation(
                    predicate)

    def test_only_the_maintenance_module_reads_the_representation(self):
        """Elsewhere a retained state's extension is read through
        ``MaterializedState.extension``: no module names its sets
        (``state.edb``, or the supplied facts' ``_supplied``)."""
        root = Path(repro.__file__).parent
        readers = [
            f"{path.relative_to(root)}: {match.group()}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).as_posix() != "vadalog/incremental.py"
            for match in re.finditer(r"\bstate\.edb\b|\b_supplied\b", path.read_text())
        ]
        assert readers == []


# ---------------------------------------------------------------------------
# Removals through a monotone aggregate and its existential head
# ---------------------------------------------------------------------------

#: Planned or interpreted, over a retained state whose base run was
#: semi-naive or naive.
ENGINES = pytest.mark.parametrize(
    "use_plans,semi_naive",
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

    def __init__(self, text, use_plans, semi_naive, **inputs):
        self.program = parse_program(text)
        self.chase = CHASE_OF[use_plans, semi_naive]
        self.inputs = {p: list(facts) for p, facts in inputs.items()}
        self.engine = self.chase()
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
        oracle = self.chase().run(
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
    def test_cyclic_ghost(self, text, use_plans, semi_naive):
        """Group (x, a) still sums 0.6 through b once x's own stake is
        gone — but b is only x's through a: the accumulator is no
        support count, the head goes whatever value remains."""
        run = _Maintained(
            text, use_plans, semi_naive,
            company=[("x",), ("a",), ("b",)],
            own=[("x", "a", 0.6), ("a", "b", 0.6), ("b", "a", 0.6)],
        )
        assert run.pairs() == {("x", "a"), ("x", "b"), ("a", "b"), ("b", "a")}
        delta = run.step(removed={"own": [("x", "a", 0.6)]})
        assert run.pairs() == {("a", "b"), ("b", "a")}
        assert delta.overdeleted == 2 and delta.rederived == 0

    def test_parallel_stakes(self, text, use_plans, semi_naive):
        """Two stakes of z in y collide on contributor z; the smaller
        takes the place of the larger when that one is removed."""
        run = _Maintained(
            text, use_plans, semi_naive,
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

    def test_remove_then_re_add(self, text, use_plans, semi_naive):
        """What a removal spares keeps its facts, nulls included — the
        re-derived ones too; what it takes comes back on re-adding,
        under fresh nulls, and nothing of it is remembered meanwhile."""
        run = _Maintained(
            text, use_plans, semi_naive,
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

    def test_removing_a_seed(self, text, use_plans, semi_naive):
        """controls(a, a) is the seed's; the cycle through b re-derives
        it only from itself."""
        run = _Maintained(
            text, use_plans, semi_naive,
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
        self, text, use_plans, semi_naive
    ):
        run = _Maintained(
            text, use_plans, semi_naive,
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
    def test_battery(self, name, seed, use_plans, semi_naive):
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
        engine = CHASE_OF[use_plans, semi_naive]()
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
            oracle = CHASE_OF[False, semi_naive]().run(
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
# The compiled maintenance plan decides what the rule text decides
# ---------------------------------------------------------------------------

# The reference: the classification as it was re-derived from the rule
# text on every update before each retained state compiled its plan.


def _reads(rule):
    return {atom.predicate for atom in rule.body_atoms()}


def _negated(rule):
    return {negated.atom.predicate for negated in rule.negated_atoms()}


def _reference_existential_safe(engine, state, stratum, rule, changed,
                                removals, stats):
    plans_for = partial(engine._plans_for, stats=stats)
    plans = plans_for(rule)
    signature = _existential_signature(plans)
    existential_preds = {}
    for predicate, slots in plans.head_ops:
        positions = {
            position for position, (kind, _) in enumerate(slots)
            if kind == _K_EXIST
        }
        if positions:
            existential_preds.setdefault(predicate, set()).update(positions)
    for predicate, positions in existential_preds.items():
        if state.extension(predicate) or predicate in changed:
            return False
        writers = [
            other for other in state.working.rules
            if any(atom.predicate == predicate for atom in other.head)
        ]
        round_zero = recursive_writers = 0
        for writer in writers:
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
                named_body = {v for v in writer.body_variables() if v.name != "_"}
                if not named_body <= set(writer_plans.rederive_bound_vars()):
                    return False
            if _reads(writer) & stratum.predicates:
                recursive_writers += 1
            else:
                round_zero += 1
        if round_zero > 1 or recursive_writers > 1:
            return False
    return True


def reference_classification(engine, state, stratum, add_keys, rm_keys):
    stats = EvaluationStats()
    changed = add_keys | rm_keys
    heads = {atom.predicate for rule in stratum.rules for atom in rule.head}
    pos_reads = set().union(*map(_reads, stratum.rules))
    neg_reads = set().union(*map(_negated, stratum.rules))
    if not (pos_reads | neg_reads | heads | stratum.predicates) & changed:
        return "skip", None
    effective = set(changed)
    if stratum.recursive:
        effective |= stratum.predicates
    deletes = bool(rm_keys & (pos_reads | heads) or add_keys & neg_reads)
    for rule_index, rule in enumerate(stratum.rules):
        label = rule.label or f"r{rule_index}"
        if _negated(rule) & effective:
            if stratum.recursive:
                return "recompute", (label, "negation in a recursive stratum")
            if rule.has_aggregate() or rule.existential_variables():
                return "recompute", (
                    label, "negation beside an aggregate or an existential head")
        affected = bool(_reads(rule) & effective) or bool(
            {atom.predicate for atom in rule.head} & changed)
        if rule.has_aggregate() and (affected or deletes):
            refusal = _aggregate_refusal(
                partial(engine._plans_for, stats=stats), state, rule, deletes)
            if refusal:
                return "recompute", (label, refusal)
        if affected and rule.existential_variables() and not (
            _reference_existential_safe(
                engine, state, stratum, rule, changed, deletes, stats)
        ):
            return "recompute", (label, "existential writer refused by the gate")
    return "incremental", None


def planned_classification(state, plan, add_keys, rm_keys):
    """What ``apply_delta`` does with one stratum: skip it unclassified
    when the change misses its reach, else read the plan."""
    if plan.reach.isdisjoint(add_keys | rm_keys):
        return "skip", None
    return _classify_stratum(state, plan, add_keys, rm_keys)


#: The 52 seeded programs of ``tests.test_engine_plans``.
SEEDED_PROGRAMS = (
    [(_recursion_case, 1000 + seed) for seed in range(20)]
    + [(_aggregate_case, 2000 + seed) for seed in range(16)]
    + [(_existential_case, 3000 + seed) for seed in range(16)]
)
#: The control and negation-by-key shapes, and a program for each
#: recompute reason the seeded programs never give.
REFUSED_PROGRAMS = [
    CONTROL, CONTROL_IDS,
    "r(X, Y) -> q(X, Z).\nq(X, Z) -> s(Z).",
    "own(Z, Y, W), C = mcount(W, <Z>), C < 3 -> few(Y).",
    "own(Z, Y, W), V = min(W, <Z>), V > 0.1 -> low(Y).",
    "e(X, Y), not blocked(Y) -> r(X, Y).\n"
    "r(X, Y), e(Y, Z), not blocked(Z) -> r(X, Z).",
    "a(X), not p(X) -> q(X, Z).",
    "own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> major(Y, C), tag(C).",
] + [text for text, _, _ in NEGATION_PROGRAMS.values()]


def _chained_counters(text, inputs, rng):
    """The counters six chained random deltas report."""
    engine = Engine()
    result = engine.run(parse_program(text), inputs=inputs, retain_state=True)
    templates = {
        p: sorted(facts, key=repr)[0] for p, facts in inputs.items() if facts
    }
    current, counters = inputs, []
    for round_ in range(6):
        added, removed = _mutation(rng, current, templates, KINDS[round_ % 3])
        delta = engine.apply_delta(result, added=added, removed=removed)
        counters.append((
            delta.strata_skipped, delta.strata_incremental,
            delta.recompute_reasons,
        ))
        current = _mutated_inputs(current, added, removed)
    return counters


class TestCompiledMaintenancePlan:
    def test_the_plan_classifies_as_the_rule_text_does(self):
        seen = set()
        programs = [
            (text, inputs)
            for case, seed in SEEDED_PROGRAMS
            for text, _, inputs in [case(random.Random(seed))]
        ] + [(text, {}) for text in REFUSED_PROGRAMS]
        rng = random.Random(26)
        for text, inputs in programs:
            program = parse_program(text)
            engine = Engine()
            state = engine.run(program, inputs=inputs, retain_state=True).state
            plans = state.stratum_plans(engine)
            predicates = sorted(program.predicates())
            for _ in range(40):
                add_keys = {p for p in predicates if rng.random() < 0.3}
                rm_keys = {p for p in predicates if rng.random() < 0.3}
                for plan in plans:
                    planned = planned_classification(
                        state, plan, add_keys, rm_keys)
                    assert planned == reference_classification(
                        engine, state, plan.stratum, add_keys, rm_keys
                    ), (text, add_keys, rm_keys)
                    seen.add(planned[0] if planned[1] is None else planned[1][1])
        # Every mode, and every reason but the one no complete run can
        # give (every aggregate rule it evaluated has an accumulator).
        reasons = set(RECOMPUTE_REASONS) - {"no retained accumulator"}
        assert seen >= {"skip", "incremental"} | reasons

    @pytest.mark.parametrize("case,seed", SEEDED_PROGRAMS)
    def test_the_batteries_count_as_the_rule_text_does(
        self, case, seed, monkeypatch
    ):
        text, _, inputs = case(random.Random(seed))
        planned = _chained_counters(text, inputs, random.Random(seed))

        engine = Engine()  # compiles the rules' plans for the reference

        def reference(state, plan, add_keys, rm_keys):
            mode, refusal = reference_classification(
                engine, state, plan.stratum, add_keys, rm_keys)
            assert mode != "skip"  # apply_delta skips by reach first
            return mode, refusal

        monkeypatch.setattr(incremental, "_classify_stratum", reference)
        assert planned == _chained_counters(text, inputs, random.Random(seed))

    def test_an_update_hashes_no_rule(self, company_schema, monkeypatch):
        """After the first update has compiled the three plans, twenty
        single-stake updates of the paper's program hash no ``Rule`` and
        sort no fact by value: every delta is joined in row order."""
        data, registry = kgbench_registry(150, 42)
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, registry, _control_sigma(), instance_oid=9,
            retain=True,
        )
        rng = random.Random(5)
        businesses = sorted(data.companies)
        taken = {(s.owner, s.company) for s in data.stakes}

        def stake(index):
            while True:
                owner, target = rng.sample(businesses, 2)
                if (owner, target) not in taken:
                    taken.add((owner, target))
                    return RegistryDelta(add_edges=[(
                        f"h{index}", owner, target, "OWNS", {"percentage": 0.6}
                    )])

        materializer.update(stake(0))  # warm-up
        hashed = []
        real_hash = Rule.__hash__

        def counting(rule):
            hashed.append(rule)
            return real_hash(rule)

        monkeypatch.setattr(Rule, "__hash__", counting)
        sorted_facts = []
        real_key = terms.fact_sort_key

        def counting_key(fact):
            sorted_facts.append(fact)
            return real_key(fact)

        for module in list(sys.modules.values()):  # every binding of it
            if getattr(module, "__dict__", {}).get("fact_sort_key") is real_key:
                monkeypatch.setattr(module, "fact_sort_key", counting_key)
        for index in range(1, 21):
            report = materializer.update(
                stake(index) if index % 2
                else RegistryDelta(remove_edges=[f"h{index - 1}"])
            )
            assert report.strata_recomputed == 0
        assert not hashed and not sorted_facts
        assert len({*materializer.retained.result.program.rules}) == 2
        assert sorted([("b",), ("a",)], key=terms.fact_sort_key)
        assert hashed and sorted_facts  # the counts are live


# ---------------------------------------------------------------------------
# A recomputed stratum keeps the nulls of the heads it derives again
# ---------------------------------------------------------------------------


class TestNullStableRecompute:
    PROGRAM = "r(X, Y) -> q(X, Z).\nq(X, Z) -> s(Z)."

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("compacted", [True, False])
    def test_net_delta_and_one_firing_per_assignment(self, use_plans, compacted):
        """``compacted``: the retained database reclaims its tombstones
        between the two deltas, as the materializer and the serve writer
        do; the remembered nulls are the same."""
        engine = CHASE_OF[use_plans, True]()
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
        if compacted:
            assert result.database.dead_rows()
            result.database.compact()
            assert not result.database.dead_rows()
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
    @pytest.mark.parametrize("companies,recomputed", [(100, 1), (30, 0)])
    def test_a_cascade_through_half_the_stratum_is_a_recompute(
        self, company_schema, companies, recomputed
    ):
        """A majority ring: everyone controls everyone through it, so one
        removed stake over-deletes the whole CONTROLS stratum.  Past
        ``DEGENERATE_FLOOR`` facts that is a recompute, with its reason;
        below it DRed.  Either way the result is a fresh run's, and the
        control edges that stay keep their ids."""
        ring = PropertyGraph("ring")
        names = [f"R{i}" for i in range(companies)]
        for name in names:
            ring.add_node(name, "Business", fiscalCode=f"FC{name}", businessName=name,
                          legalNature="spa", shareholdingCapital=1.0)
        for i, name in enumerate(names):
            ring.add_edge(name, names[(i + 1) % companies], "OWNS",
                          edge_id=f"o{i}", percentage=0.6)
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        materializer.materialize(
            company_schema, ring, _control_sigma(), instance_oid=9, retain=True,
        )
        enriched = materializer.retained.instance().data
        ids = {(e.source, e.target): e.id for e in enriched.edges("CONTROLS")}
        assert len(ids) == companies ** 2
        outcome = materializer.update(RegistryDelta(remove_edges=["o0"]))
        assert [entry[-1] for entry in outcome.recompute_reasons] == (
            ["over-deletion reached half of the stratum"] * recomputed
        )
        assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
            _reference(ring.copy()).instance.data
        )
        enriched = materializer.retained.instance().data
        kept = {(e.source, e.target): e.id for e in enriched.edges("CONTROLS")}
        assert len(kept) == companies * (companies + 1) // 2
        assert all(ids[pair] == edge_id for pair, edge_id in kept.items())

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
        assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
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
        assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
            _reference(expected).instance.data
        )

    def test_node_removal_cascades_incident_edges(self, retained):
        materializer, _report = retained
        outcome = materializer.update(RegistryDelta(remove_nodes=["B3"]))
        expected = _owns_graph()
        expected.remove_node("B3")
        assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
            _reference(expected).instance.data
        )
        assert not materializer.retained.instance().data.has_node("B3")

    def test_chained_updates(self, retained):
        materializer, _report = retained
        materializer.update(RegistryDelta(
            add_nodes=[("B4", "Business", {"fiscalCode": "FCB4",
                                           "businessName": "B4 SpA"})],
            add_edges=[("o4", "B1", "B4", "OWNS", {"percentage": 0.8})],
        ))
        outcome = materializer.update(RegistryDelta(remove_nodes=["B4"]))
        assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
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
            assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
                _reference(expected).instance.data
            )

    def test_the_old_world_appends_no_row(self, retained, monkeypatch):
        """40 chained remove / re-add / replace deltas, by count: every
        row the retained database grows by is a fact the net delta added
        or an over-deleted one that came back — the old world of the
        over-deletion joins costs a byte per seed, no row and no
        tombstone — and the result is a from-scratch materialize.  The
        tombstones a compaction reclaims count as rows still held."""
        from repro.vadalog import incremental

        materializer, _report = retained
        kept = materializer.retained
        results = (kept.result,)
        database, reclaimed = kept.result.database, [0]
        real_compact = database.compact

        def compact():
            reclaimed[0] += database.dead_rows()
            real_compact()

        monkeypatch.setattr(database, "compact", compact)

        def rows(database):
            return reclaimed[0] + sum(
                r._nrows for r in database._relations.values()
            )

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
            deltas = (outcome.delta_reason,)
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
                assert _canon_graph(materializer.retained.instance().data) == _canon_graph(
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
        # The re-typed b takes e1 along: listed out, and in again.
        assert {e[0] for e in delta.added_edges} == {"e1", "e3"}
        assert {e[0] for e in delta.removed_edges} == {"e1", "e2"}
        assert delta.changed() and delta.total_changes == 8
        assert "+2" in delta.summary()
        patched = old.copy()
        delta.apply_to(patched)
        assert FlushDelta.diff(patched, new).total_changes == 0

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


def relational_engine(schema, instance=None, translated=None):
    """An engine with the schema's relational translation (``translated``
    when given) deployed, and ``instance`` loaded in full."""
    engine = RelationalEngine()
    engine.deploy(
        translated or SSST().translate(schema, "relational").target_schema
    )
    if instance is not None:
        graph_instance_to_relational(schema, instance, engine)
    return engine


def engine_rows(engine):
    """Every table's rows, as a multiset."""
    return {
        table: sorted(repr(sorted(row.items())) for row in engine.rows(table))
        for table in engine.tables()
    }


def _two_businesses():
    data = make_graph("owns")
    for code in ("FC1", "FC2"):
        data.add_node(code, "Business", **_business_props(code, f"{code} SpA"))
    data.add_edge("FC1", "FC2", "OWNS", edge_id="x", percentage=0.6)
    return data


class TestRelationalDelta:
    def test_apply_delta(self, company_schema):
        """A bridge row out, a node's member rows in, a renamed node's
        rows updated by key: the rows a fresh load of the new instance
        holds."""
        before, after = _two_businesses(), _two_businesses()
        engine = relational_engine(company_schema, before)
        after.remove_edge("x")
        after.add_node("FC3", "Business", **_business_props("FC3", "Three SpA"))
        after.node("FC1").properties["businessName"] = "One"
        report = engine.apply_flush_delta(
            FlushDelta.diff(before, after), company_schema, after
        )
        assert (report.edges_removed, report.nodes_added,
                report.nodes_updated) == (1, 1, 1)
        assert engine_rows(engine) == engine_rows(
            relational_engine(company_schema, after)
        )
        assert engine.count("OWNS") == 0 and engine.count("Person") == 3

    def test_fk_restrict_on_delete(self, rel_engine):
        with pytest.raises(IntegrityError):
            rel_engine.delete("person", pid="p1")  # referenced by pet t1
        assert rel_engine.count("person") == 2

    def test_failed_delta_rolls_back_everything(self, company_schema):
        before = _two_businesses()
        engine = relational_engine(company_schema, before)
        rows = engine_rows(engine)
        after = _two_businesses()
        after.add_node("FC3", "Business", **_business_props("FC3", "Three SpA"))
        after.add_edge("FC1", "FC3", "OWNS", edge_id="y", percentage="most")
        with pytest.raises(IntegrityError, match="domain"):  # the last insert
            engine.apply_flush_delta(
                FlushDelta.diff(before, after), company_schema, after
            )
        assert engine_rows(engine) == rows  # FC3's rows rolled back

        # A place removed that a residence the delta does not list still
        # reaches: RESTRICT, at the end of the block, after the stake's
        # bridge row went and FC1 was renamed.
        before.add_node("pl", "Place", **_place(0))
        before.add_node("p", "PhysicalPerson", **_person("FC-P"))
        before.add_edge("p", "pl", "RESIDES", edge_id="home")
        tracer = RecordingTracer()
        engine = relational_engine(company_schema, before)
        engine.tracer = tracer
        rows = engine_rows(engine)
        fc1 = before.node("FC1")
        refused = FlushDelta(
            removed_edges=[("x", "FC1", "FC2", "OWNS", {"percentage": 0.6})],
            updated_nodes=[("FC1", "Business",
                            {**fc1.properties, "businessName": "One"},
                            dict(fc1.properties))],
            removed_nodes=[("pl", "Place", _place(0))],
        )
        after = before.copy()
        after.remove_edge("x")
        after.set_node_property("FC1", "businessName", "One")
        after.remove_node("pl")
        with pytest.raises(IntegrityError, match="no match"):
            engine.apply_flush_delta(refused, company_schema, after)
        assert engine_rows(engine) == rows
        assert tracer.metrics.counters()["deploy.rollbacks"] == 1

    def test_delete_rebuilds_pk_index(self, rel_engine):
        rel_engine.delete("pet", tag="t1")
        assert rel_engine.delete("person", pid="p1") == 1
        assert list(rel_engine.select("person", pid="p2"))[0]["name"] == "Bob"

    def test_delete_row_takes_one_copy(self, company_schema):
        data = _two_businesses()
        data.add_edge("FC1", "FC2", "OWNS", edge_id="twin", percentage=0.6)
        engine = relational_engine(company_schema, data)
        (row,) = {repr(r): r for r in engine.rows("OWNS")}.values()
        engine.delete_row("OWNS", row)
        assert engine.rows("OWNS") == [row]
        engine.delete_row("OWNS", row)
        with pytest.raises(IntegrityError, match="no row"):
            engine.delete_row("OWNS", row)
        assert engine.count("OWNS") == 0

    def test_update_by_key(self, rel_engine):
        rel_engine.update("pet", ("t1",), {"owner_pid": "p2"})
        rel_engine.update("person", ("p1",), {"name": "Ada L."})
        assert rel_engine.delete("person", pid="p1") == 1  # no pet left on p1
        for key, values, refusal in [
            (("t1",), {"owner_pid": "ghost"}, "no match"),
            (("t1",), {"tag": "t9"}, "cannot change the key"),
            (("t9",), {"owner_pid": "p2"}, "no row"),
            (("t1",), {"owner_pid": 7}, "domain"),
        ]:
            with pytest.raises(IntegrityError, match=refusal):
                rel_engine.update("pet", key, values)
        assert rel_engine.rows("pet") == [{"tag": "t1", "owner_pid": "p2"}]


# ---------------------------------------------------------------------------
# The relational flush, record by record, against the image diff
# ---------------------------------------------------------------------------
def _place(number):
    return {"placeId": f"PL{number}", "street": "Via Roma", "city": "Rome",
            "postalCode": "00100"}


def _person(code):
    return {"fiscalCode": code, "name": f"N {code}", "gender": "female"}


def _battery_registry(rng, businesses=6):
    """Places, persons and ``businesses`` businesses; stakes (some
    parallel and equal) and residences."""
    data = make_graph("registry")
    for number in range(3):
        data.add_node(f"pl{number}", "Place", **_place(number))
    for number in range(5):
        data.add_node(f"p{number}", "PhysicalPerson", **_person(f"FC-P{number}"))
        if rng.random() < 0.6:
            data.add_edge(f"p{number}", f"pl{rng.randrange(3)}", "RESIDES",
                          edge_id=f"home-{number}")
    for number in range(businesses):
        data.add_node(f"b{number}", "Business",
                      **_business_props(f"FC-B{number}", f"B{number} SpA"))
    owners = [f"p{n}" for n in range(5)] + [f"b{n}" for n in range(businesses)]
    for number in range(14 * businesses // 6):
        owner = rng.choice(owners)
        target = rng.choice([f"b{n}" for n in range(businesses) if f"b{n}" != owner])
        data.add_edge(owner, target, "OWNS", edge_id=f"s{number}",
                      percentage=rng.choice((0.3, 0.6)))
    return data


class _Batches:
    """Random registry deltas over the live registry: stake additions
    (a third of them parallel to, and equal with, a live stake) and
    removals, a node removed with its edges, a node replaced under
    another type or with another key (its edges re-added unchanged), and
    a residence added (a second one among them), removed (one of several
    among them) or moved."""

    def __init__(self, rng, data):
        self.rng, self.data, self.fresh = rng, data, 0

    def new(self, prefix):
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def labelled(self, *labels):
        return sorted(n.id for n in self.data.nodes() if n.label in labels)

    def edges(self, label):
        return sorted((e for e in self.data.edges() if e.label == label),
                      key=lambda e: e.id)

    def stake_added(self, delta):
        stakes = self.edges("OWNS")
        if stakes and self.rng.random() < 0.35:
            twin = self.rng.choice(stakes)
            source, target, share = twin.source, twin.target, twin.get("percentage")
        else:
            source = self.rng.choice(self.labelled(
                "PhysicalPerson", "Business", "PublicListedCompany"))
            target = self.rng.choice(self.labelled("Business", "PublicListedCompany"))
            share = self.rng.choice((0.3, 0.6))
        delta.add_edges.append((self.new("s-"), source, target, "OWNS",
                                {"percentage": share}))

    def stake_removed(self, delta):
        stakes = self.edges("OWNS")
        if stakes:
            delta.remove_edges.append(self.rng.choice(stakes).id)

    def node_removed(self, delta):
        delta.remove_nodes.append(self.rng.choice(self.labelled(
            "Place", "PhysicalPerson", "Business", "PublicListedCompany")))

    def node_replaced(self, delta):
        node = self.data.node(self.rng.choice(self.labelled(
            "PhysicalPerson", "Business", "PublicListedCompany")))
        properties = dict(node.properties)
        if node.label == "PhysicalPerson":
            label = "PhysicalPerson"
            properties["name"] = self.new("renamed ")
        elif self.rng.random() < 0.7:  # re-typed
            label = ("Business" if node.label == "PublicListedCompany"
                     else "PublicListedCompany")
            properties.pop("stockExchange", None)
            if label == "PublicListedCompany":
                properties["stockExchange"] = "MTA"
        else:
            label = node.label
            properties["businessName"] = self.new("renamed ")
        if self.rng.random() < 0.5:  # re-keyed
            properties["fiscalCode"] = self.new("FC-R")
        delta.remove_nodes.append(node.id)
        delta.add_nodes.append((node.id, label, properties))
        edges = {e.id: e for e in (*self.data.out_edges(node.id),
                                   *self.data.in_edges(node.id))}
        for edge in edges.values():
            delta.add_edges.append((edge.id, edge.source, edge.target,
                                    edge.label, dict(edge.properties)))

    def residence_changed(self, delta):
        """One of several residences out, a second one in, or a move
        (every residence out, perhaps one in)."""
        person = self.rng.choice(self.labelled("PhysicalPerson"))
        homes = [e for e in self.edges("RESIDES") if e.source == person]
        places = self.labelled("Place")
        kind = self.rng.random()
        if len(homes) > 1 and kind < 0.6:
            delta.remove_edges.append(self.rng.choice(homes).id)
            return
        if homes and places and kind < 0.6:
            delta.add_edges.append((self.new("second-"), person,
                                    self.rng.choice(places), "RESIDES", {}))
            return
        for home in homes:
            delta.remove_edges.append(home.id)
        if places and (not homes or self.rng.random() < 0.5):
            delta.add_edges.append((self.new("moved-"), person,
                                    self.rng.choice(places), "RESIDES", {}))

    def next(self):
        delta = RegistryDelta()
        kinds = [self.stake_added, self.stake_removed, self.node_removed,
                 self.node_replaced, self.residence_changed]
        self.rng.choices(kinds, weights=(4, 3, 1, 2, 2))[0](delta)
        return delta


def _with_undeclared(delta):
    """``delta`` with an attribute no type declares on every node record."""
    noisy = lambda properties: {**properties, "undeclared": 1}  # noqa: E731
    return FlushDelta(
        added_nodes=[(i, label, noisy(p)) for i, label, p in delta.added_nodes],
        added_edges=delta.added_edges,
        updated_nodes=[(i, label, noisy(new), noisy(old))
                       for i, label, new, old in delta.updated_nodes],
        removed_nodes=[(i, label, noisy(p)) for i, label, p in delta.removed_nodes],
        removed_edges=delta.removed_edges,
    )


def _count_row_reads(engine):
    """Make every table of ``engine`` count the rows a scan reads off
    it; returns the one-element counter."""
    reads = [0]

    class Counted(dict):
        def keys(self):
            for key in dict.keys(self):
                reads[0] += 1
                yield key

        def values(self):
            for row in dict.values(self):
                reads[0] += 1
                yield row

        def items(self):
            for item in dict.items(self):
                reads[0] += 1
                yield item

    for stored in engine._tables.values():
        stored.rows = Counted(stored.rows)
    return reads


class TestRelationalFlushBattery:
    """After every batch each store maintained by its ``apply_flush_delta``
    through a :class:`FlushDeltaTarget` — relational engine, graph store,
    triple store — holds what a fresh load of the enriched instance
    holds, and the relational engine the rows of the image diff too.  A
    triple store whose load and deltas carry an attribute no type
    declares on every node holds the same triples: one element mapping
    drops it on both paths (the enriched instance itself never carries
    one)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_chained_batches(self, company_schema, seed):
        rng = random.Random(seed)
        materializer = IntensionalMaterializer()
        report = materializer.materialize(
            company_schema, _battery_registry(rng), _control_sigma(),
            instance_oid=7, retain=True,
        )
        translated = {
            model: SSST().translate(company_schema, model).target_schema
            for model in ("relational", "property-graph", "rdf")
        }

        def store(model):
            made = {"property-graph": GraphStore, "rdf": TripleStore}[model]()
            made.deploy(translated[model])
            return made

        loaders = {"property-graph": load_graph_store, "rdf": load_triple_store}
        states = {"property-graph": graph_store_state,
                  "rdf": lambda held: frozenset(held.triples())}
        maintained = {
            model: FlushDeltaTarget(store(model), company_schema, loaders[model])
            for model in states
        }
        maintained["relational"] = FlushDeltaTarget(
            relational_engine(company_schema, translated=translated["relational"]),
            company_schema, graph_instance_to_relational,
        )
        states["relational"] = engine_rows
        reference = ImageDiffRelationalTarget(
            relational_engine(company_schema, translated=translated["relational"]),
            company_schema, lambda: materializer.retained.instance().data,
        )
        for target in (*maintained.values(), reference):
            target.load_full(report.instance.data)
        noisy = store("rdf")
        noisy_instance = report.instance.data.copy()
        for node in report.instance.data.nodes():
            noisy_instance.set_node_property(node.id, "undeclared", 1)
        load_triple_store(company_schema, noisy_instance, noisy)
        batches = _Batches(rng, materializer.retained.data)
        kinds = set()
        for _ in range(60):
            delta = batches.next()
            update = materializer.update(delta)
            instance = materializer.retained.instance().data
            reads_as_written(update.instance, instance, [
                *(n.id for n in instance.nodes()),
                *(r[0] for r in update.flush_delta.removed_nodes)])
            for target in (*maintained.values(), reference):
                target.apply(update)
            noisy.apply_flush_delta(
                _with_undeclared(update.flush_delta), company_schema, update.instance)
            rows = engine_rows(maintained["relational"].store)
            assert rows == engine_rows(reference.engine)
            fresh = {"relational": relational_engine(
                company_schema, instance, translated["relational"])}
            for model, loader in loaders.items():
                fresh[model] = store(model)
                loader(company_schema, instance, fresh[model])
            for model, state in states.items():
                assert state(maintained[model].store) == state(fresh[model]), model
            assert states["rdf"](noisy) == states["rdf"](fresh["rdf"])
            flush = update.flush_delta
            old_labels = {r[0]: r[1] for r in flush.removed_nodes}
            kinds.update(
                kind for kind, records in (
                    ("updated", flush.updated_nodes),
                    ("re-keyed", [r for r in flush.updated_nodes
                                  if r[2]["fiscalCode"] != r[3]["fiscalCode"]]),
                    ("replaced", {r[0] for r in flush.removed_nodes}
                     & {r[0] for r in flush.added_nodes}),
                    ("re-typed", [r for r in flush.added_nodes
                                  if old_labels.get(r[0], r[1]) != r[1]]),
                    ("equal stakes", len(rows["OWNS"]) > len(set(rows["OWNS"]))),
                    ("residence", [r for r in (*flush.added_edges,
                                               *flush.removed_edges)
                                   if r[3] == "RESIDES"]),
                    ("residence left", [
                        r for r in flush.removed_edges if r[3] == "RESIDES"
                        and any(instance.out_edges(r[1], "RESIDES"))
                    ]),
                ) if records
            )
        assert kinds == {"updated", "re-keyed", "replaced", "re-typed",
                         "equal stakes", "residence", "residence left"}

    def test_retyping_a_node_and_back_reads_what_it_changes(self, company_schema):
        """A business re-typed as a PublicListedCompany and back, its
        stakes listed: the rows the engine reads do not grow with the
        registry — a delete finds its row by the primary key, and no
        row is checked for a key that is back by the end of the delta."""
        per_size = []
        for businesses in (6, 60):
            materializer = IntensionalMaterializer()
            report = materializer.materialize(
                company_schema, _battery_registry(random.Random(0), businesses),
                _control_sigma(), instance_oid=7, retain=True,
            )
            engine = relational_engine(company_schema, report.instance.data)
            reads = _count_row_reads(engine)
            data = materializer.retained.data
            for label, extra in (("PublicListedCompany", {"stockExchange": "MIL"}),
                                 ("Business", {})):
                node = data.node("b0")
                properties = {k: v for k, v in node.properties.items()
                              if k != "stockExchange"}
                update = materializer.update(RegistryDelta(
                    remove_nodes=["b0"],
                    add_nodes=[("b0", label, {**properties, **extra})],
                    add_edges=[(e.id, e.source, e.target, e.label, dict(e.properties))
                               for e in (*data.out_edges("b0"), *data.in_edges("b0"))],
                ))
                assert [n[:2] for n in update.flush_delta.added_nodes] == [("b0", label)]
                engine.apply_flush_delta(update.flush_delta, company_schema,
                                         update.instance)
            per_size.append(reads[0])
            assert engine_rows(engine) == engine_rows(
                relational_engine(company_schema, materializer.retained.instance().data))
        assert per_size[0] == per_size[1], per_size

    def test_removing_a_business_reads_what_it_changes(self, company_schema):
        """A business removed with its stakes: its key is gone for good,
        and RESTRICT reads only the rows that pointed at it (none are
        left), so the rows the engine reads do not grow with the
        registry."""
        per_size = []
        for businesses in (6, 60):
            materializer = IntensionalMaterializer()
            report = materializer.materialize(
                company_schema, _battery_registry(random.Random(0), businesses),
                _control_sigma(), instance_oid=7, retain=True,
            )
            engine = relational_engine(company_schema, report.instance.data)
            reads = _count_row_reads(engine)
            data = materializer.retained.data
            stakes = [e.id for e in (*data.out_edges("b1"), *data.in_edges("b1"))]
            assert stakes
            update = materializer.update(
                RegistryDelta(remove_nodes=["b1"], remove_edges=stakes))
            assert [n[0] for n in update.flush_delta.removed_nodes] == ["b1"]
            engine.apply_flush_delta(update.flush_delta, company_schema,
                                     update.instance)
            per_size.append(reads[0])
            assert engine_rows(engine) == engine_rows(
                relational_engine(company_schema, materializer.retained.instance().data))
        assert per_size[0] == per_size[1], per_size

    @pytest.mark.parametrize("refusal", ["domain", "no match"])
    def test_a_refused_delta_leaves_the_engine_unchanged(
        self, company_schema, refusal
    ):
        """A bridge row out, a residence moved and a node renamed, then a
        refusal: a stake whose share the domain refuses (the last write),
        or a place removed that an unlisted residence still reaches
        (RESTRICT, at the end of the block)."""
        report = IntensionalMaterializer().materialize(
            company_schema, _battery_registry(random.Random(0)),
            _control_sigma(), instance_oid=7,
        )
        instance = report.instance.data
        tracer = RecordingTracer()
        engine = relational_engine(company_schema, instance)
        engine.tracer = tracer
        rows = engine_rows(engine)
        stake = next(e for e in instance.edges() if e.label == "OWNS")
        home, other = [e for e in instance.edges() if e.label == "RESIDES"][:2]
        assert other.source != home.source and other.target != "pl2"
        business = instance.node("b0")
        renamed = {**business.properties, "businessName": "Renamed SpA"}
        refused = FlushDelta(
            removed_edges=[(stake.id, stake.source, stake.target, "OWNS",
                            dict(stake.properties)),
                           (home.id, home.source, home.target, "RESIDES", {})],
            updated_nodes=[("b0", "Business", renamed, dict(business.properties))],
            added_edges=[("moved", home.source, "pl2", "RESIDES", {})],
        )
        after = instance.copy()  # what the refused delta leads to
        after.remove_edge(stake.id)
        after.remove_edge(home.id)
        after.set_node_property("b0", "businessName", "Renamed SpA")
        after.add_edge(home.source, "pl2", "RESIDES", edge_id="moved")
        if refusal == "domain":
            refused.added_edges.append(
                ("bad", "b1", "b0", "OWNS", {"percentage": "most"}))
            after.add_edge("b1", "b0", "OWNS", edge_id="bad", percentage="most")
        else:
            place = instance.node(other.target)
            refused.removed_nodes.append(
                (place.id, "Place", dict(place.properties)))
            after.remove_node(place.id)  # and the residence, unlisted
        with pytest.raises(IntegrityError, match=refusal):
            engine.apply_flush_delta(refused, company_schema, after)
        assert engine_rows(engine) == rows
        assert tracer.metrics.counters()["deploy.rollbacks"] == 1


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

    @staticmethod
    def after(*owns):
        """The graph a delta leads to: B1, B2, B3 and the stakes ``owns``."""
        graph = make_graph("after")
        for node_id in ("B1", "B2", "B3"):
            graph.add_node(node_id, "Business")
        for source, target in owns:
            graph.add_edge(source, target, "OWNS")
        return graph

    def test_apply_delta(self, store, company_schema):
        report = store.apply_flush_delta(FlushDelta(
            added_nodes=[("B3", "Business", {"fiscalCode": "FC3",
                                             "notDeclared": 1})],
            added_edges=[("x", "B2", "B3", "OWNS", {})],
            removed_edges=[("y", "B1", "B2", "OWNS", {})],
        ), company_schema, self.after(("B2", "B3")))
        assert report.nodes_added == 1
        assert report.edges_added == 1 and report.edges_removed == 1
        assert store.has("B3", "fiscalCode", "FC3")
        assert not store.has("B3", "notDeclared", 1)  # schema-filtered
        assert not store.has("B1", "OWNS", "B2")
        assert store.has("B2", "OWNS", "B3")

    def test_a_parallel_edge_keeps_the_triple(self, store, company_schema):
        store.apply_flush_delta(FlushDelta(
            removed_edges=[("y", "B1", "B2", "OWNS", {"percentage": 0.3})],
        ), company_schema, self.after(("B1", "B2")))
        assert store.has("B1", "OWNS", "B2")  # its twin still holds it

    def test_node_removal_retracts_attributes(self, store, company_schema):
        report = store.apply_flush_delta(FlushDelta(
            removed_nodes=[("B1", "Business", {"fiscalCode": "FC1"})],
            removed_edges=[("y", "B1", "B2", "OWNS", {})],
        ), company_schema, self.after())
        assert report.nodes_removed == 1
        assert not store.has("B1", "rdf:type", "Business")
        assert not store.has("B1", "fiscalCode", "FC1")

    def test_retract_is_undo_logged(self, store):
        savepoint = store.savepoint()
        assert store.retract("B1", "OWNS", "B2")
        assert not store.has("B1", "OWNS", "B2")
        store.rollback_to(savepoint)
        assert store.has("B1", "OWNS", "B2")
