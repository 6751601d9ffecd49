"""Magic-sets demand transformation: adornment/SIPS unit tests, the
52-program differential battery with randomly chosen bound queries
(goal-directed vs full chase, both storage backends), and the explicit
unsound-stratum fallback cases."""

import random
import threading

import pytest

from repro.errors import KGModelError, VadalogError
from repro.vadalog import parse_program
from repro.vadalog.database import Database
from repro.vadalog.magic import (
    GoalDirectedEvaluator,
    Query,
    magic_rewrite,
    parse_query,
)
from repro.vadalog.terms import Null, Variable

from tests.test_engine_plans import (
    CHASE_OF,
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
)


# ---------------------------------------------------------------------------
# Query parsing and matching
# ---------------------------------------------------------------------------


class TestParseQuery:
    def test_bound_and_free(self):
        query = parse_query('controls("a", B)?')
        assert query.predicate == "controls"
        assert query.terms == ("a", Variable("B"))
        assert query.adornment() == "bf"
        assert query.bound_constants() == ("a",)

    def test_all_free(self):
        assert parse_query("p(X, Y)?").adornment() == "ff"

    def test_numeric_and_bool_constants(self):
        query = parse_query("p(1, 0.5, true, X)?")
        assert query.adornment() == "bbbf"
        assert query.terms[:3] == (1, 0.5, True)

    def test_question_mark_optional(self):
        assert parse_query('p("a")').terms == ("a",)

    def test_rejects_non_atoms(self):
        with pytest.raises(KGModelError):
            parse_query("p(X), q(X)?")
        with pytest.raises(KGModelError):
            parse_query("p(X) -> q(X)?")
        with pytest.raises(KGModelError):
            parse_query("p(#h(X))?")

    def test_matches_bound_positions(self):
        query = parse_query('p("a", X)?')
        assert query.matches(("a", 1))
        assert not query.matches(("b", 1))
        assert not query.matches(("a",))

    def test_matches_repeated_variables(self):
        query = parse_query("p(X, X)?")
        assert query.matches((3, 3))
        assert not query.matches((3, 4))

    def test_matches_numeric_tolerance(self):
        # values_equal semantics: 1 == 1.0 but True != 1.
        assert parse_query("p(1)?").matches((1.0,))
        assert not parse_query("p(true)?").matches((1,))


# ---------------------------------------------------------------------------
# Rewrite structure: adornments, SIPS, magic rules
# ---------------------------------------------------------------------------


TC = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
SG = "f(X, Y) -> sg(X, Y).\nup(X, U), sg(U, V), down(V, Y) -> sg(X, Y)."
CONTROL = (
    "company(X) -> controls(X, X).\n"
    "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
    " -> controls(X, Y)."
)


class TestRewriteStructure:
    def test_tc_bound_first(self):
        rewrite = magic_rewrite(parse_program(TC), parse_query('tc("a", Y)?'))
        assert rewrite.rewritten
        assert rewrite.answer_predicate == "tc@bf"
        assert rewrite.seed_predicate == "magic__tc@bf"
        texts = {str(rule) for rule in rewrite.rules}
        assert "magic__tc@bf(X), e(X, Y) -> tc@bf(X, Y)." in texts
        assert "magic__tc@bf(X), tc@bf(X, Y), e(Y, Z) -> tc@bf(X, Z)." in texts

    def test_seed_rule_carries_query_constants(self):
        rewrite = magic_rewrite(parse_program(TC), parse_query('tc("a", Y)?'))
        seed = rewrite.seed_rule(parse_query('tc("zz", Y)?'))
        assert not seed.body
        assert seed.head[0].predicate == "magic__tc@bf"
        assert seed.head[0].terms == ("zz",)

    def test_sips_passes_bindings_left_to_right(self):
        # The recursive sg occurrence sits after up(X, U): the magic rule
        # must push the demand through that join.
        rewrite = magic_rewrite(parse_program(SG), parse_query('sg("a", Y)?'))
        texts = {str(rule) for rule in rewrite.rules}
        assert "magic__sg@bf(X), up(X, U) -> magic__sg@bf(U)." in texts

    def test_tautological_magic_rules_dropped(self):
        rewrite = magic_rewrite(
            parse_program(CONTROL), parse_query('controls("a", Y)?')
        )
        for rule in rewrite.rules:
            if not rule.body:
                continue
            assert [str(l) for l in rule.body] != [str(a) for a in rule.head]

    def test_aggregate_group_variable_is_demand_passable(self):
        rewrite = magic_rewrite(
            parse_program(CONTROL), parse_query('controls("a", Y)?')
        )
        assert rewrite.rewritten
        assert rewrite.answer_predicate == "controls@bf"

    def test_aggregate_target_position_degrades_to_free(self):
        text = "own(Z, Y, W), V = mmax(W, <Z>), V > 0.4 -> strong(Y, V)."
        # Binding the result position V cannot restrict the aggregate:
        # the adornment degrades to all-free and the rewrite falls back.
        rewrite = magic_rewrite(
            parse_program(text), parse_query("strong(Y, 0.7)?")
        )
        assert not rewrite.rewritten
        assert any("no demand-passable" in r for r in rewrite.fallback_reasons)
        # ... while binding the group position Y stays goal-directed.
        rewrite = magic_rewrite(
            parse_program(text), parse_query('strong("b", V)?')
        )
        assert rewrite.rewritten

    def test_skolem_head_position_degrades_to_free(self):
        text = "own(X, Y, W) -> holding(#h(X, Y), X, Y, W)."
        query = Query("holding", (Variable("H"), "a", Variable("Y"), Variable("W")))
        rewrite = magic_rewrite(parse_program(text), query)
        assert rewrite.rewritten
        assert rewrite.answer_predicate == "holding@fbff"

    def test_all_free_query_falls_back_to_cone(self):
        rewrite = magic_rewrite(parse_program(TC), parse_query("tc(X, Y)?"))
        assert not rewrite.rewritten
        assert rewrite.answer_predicate == "tc"
        assert {str(r) for r in rewrite.rules} == {
            str(r) for r in parse_program(TC).rules
        }

    def test_edb_query_needs_no_program(self):
        rewrite = magic_rewrite(parse_program(TC), parse_query('e("a", Y)?'))
        assert not rewrite.rewritten
        assert rewrite.rules == []

    def test_unrelated_rules_are_dropped(self):
        text = TC + '\nnode(X), not tc("a", X) -> unreachable(X).'
        rewrite = magic_rewrite(parse_program(text), parse_query('tc("a", Y)?'))
        # tc is negated only by a rule tc itself never demands: the
        # reachable-cone restriction keeps tc adornable.
        assert rewrite.rewritten
        predicates = {p for r in rewrite.rules for p in r.head_predicates()}
        assert "unreachable" not in predicates


class TestSoundnessFallbacks:
    def test_negated_predicate_in_cone_goes_full(self):
        text = (
            "node(X), not bad(X) -> good(X).\n"
            "edge(X, Y), bad(X) -> bad(Y)."
        )
        rewrite = magic_rewrite(
            parse_program(text), parse_query('good("n1")?')
        )
        assert "bad" in rewrite.full_predicates
        assert any("negation" in r for r in rewrite.fallback_reasons)
        # bad's original rules ride along unrestricted.
        assert "bad" in rewrite.cone_predicates

    def test_existential_head_goes_full(self):
        text = "person(X) -> hasid(X, Y).\nhasid(X, Y) -> owner(Y, X)."
        rewrite = magic_rewrite(
            parse_program(text), parse_query('owner(Y, "p")?')
        )
        assert "hasid" in rewrite.full_predicates
        assert any("existential" in r for r in rewrite.fallback_reasons)

    def test_query_on_full_predicate_is_cone_evaluation(self):
        text = "person(X) -> hasid(X, Y)."
        rewrite = magic_rewrite(
            parse_program(text), parse_query('hasid("p", Y)?')
        )
        assert not rewrite.rewritten
        assert rewrite.answer_predicate == "hasid"

    def test_full_closure_covers_dependencies(self):
        # reach feeds the existential rule: computing meet demands the
        # complete reach, which demands the complete edge closure.
        text = (
            "edge(X, Y) -> reach(X, Y).\n"
            "reach(X, Z), edge(Z, Y) -> reach(X, Y).\n"
            "reach(X, Y) -> meet(X, Y, Z).\n"
            "meet(X, Y, Z) -> venue(Z)."
        )
        rewrite = magic_rewrite(
            parse_program(text), parse_query('venue("v")?')
        )
        assert {"meet", "reach"} <= rewrite.full_predicates


# ---------------------------------------------------------------------------
# Differential battery: magic vs full chase on the 52 seeded programs
# ---------------------------------------------------------------------------


def _bound_queries(rng, predicate, answers, arity):
    """One hit query (positions bound from a real answer) and one miss."""
    queries = []
    if answers and arity:
        sample = list(rng.choice(sorted(answers, key=repr)))
        bindable = [
            i for i, v in enumerate(sample) if not isinstance(v, Null)
        ]
        if bindable:
            chosen = rng.sample(
                bindable, rng.randrange(1, len(bindable) + 1)
            )
            terms = tuple(
                sample[i] if i in chosen else Variable(f"Q{i}")
                for i in range(arity)
            )
            queries.append(Query(predicate, terms))
    if arity:
        terms = ("@@miss@@",) + tuple(
            Variable(f"Q{i}") for i in range(1, arity)
        )
        queries.append(Query(predicate, terms))
    return queries


def goal_differential(text, predicates, use_plans, rng, **inputs):
    """Magic answers against a full chase: production's, or the
    interpreter's (``InterpretedEngine``)."""
    program = parse_program(text)
    evaluator = GoalDirectedEvaluator(program)
    full = CHASE_OF[use_plans, True]().run(program, inputs=inputs)
    cases = []
    for predicate in predicates:
        answers = full.facts(predicate)
        arity = len(next(iter(answers))) if answers else 2
        for query in _bound_queries(rng, predicate, answers, arity):
            expected = {f for f in answers if query.matches(f)}
            got = evaluator.answer(query, inputs=inputs)
            assert _canon(got.facts) == _canon(expected), (
                f"{query} [{got.mode}]"
            )
            cases.append((query, expected))
    assert cases
    # Second pass: every query of the program against one shared
    # database, read in place by two threads at once.
    shared = Database()
    for predicate, facts in inputs.items():
        shared.add_all(predicate, facts)
    before = {p: shared.facts(p) for p in shared.predicates()}
    failures = []

    def ask_all():
        try:
            for query, expected in cases:
                for ask in (evaluator.answer, evaluator.full_answer):
                    got = ask(query, database=shared)
                    if _canon(got.facts) != _canon(expected):
                        failures.append(f"{query} [{got.mode}]")
        except Exception as exc:
            failures.append(repr(exc))

    threads = [threading.Thread(target=ask_all, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert {p: shared.facts(p) for p in shared.predicates()} == before
    return evaluator


class TestRandomizedGoalDifferential:
    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_negation_free_recursion(self, seed, use_plans):
        rng = random.Random(1000 + seed)
        text, predicates, inputs = _recursion_case(rng)
        goal_differential(text, predicates, use_plans, rng, **inputs)

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("seed", range(16))
    def test_monotonic_aggregates(self, seed, use_plans):
        rng = random.Random(2000 + seed)
        text, predicates, inputs = _aggregate_case(rng)
        goal_differential(text, predicates, use_plans, rng, **inputs)

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("seed", range(16))
    def test_existential_skolem(self, seed, use_plans):
        rng = random.Random(3000 + seed)
        text, predicates, inputs = _existential_case(rng)
        goal_differential(text, predicates, use_plans, rng, **inputs)


# ---------------------------------------------------------------------------
# The point of it all: demand restriction actually restricts
# ---------------------------------------------------------------------------


class TestDemandRestriction:
    def test_magic_derives_fewer_facts_than_full(self):
        # Two disconnected 40-node chains; demand on one endpoint must
        # not compute the other component's closure.
        edges = [(f"a{i}", f"a{i+1}") for i in range(40)]
        edges += [(f"b{i}", f"b{i+1}") for i in range(40)]
        program = parse_program(TC)
        evaluator = GoalDirectedEvaluator(program)
        answer = evaluator.answer('tc("a0", Y)?', inputs={"e": edges})
        full = evaluator.full_answer('tc("a0", Y)?', inputs={"e": edges})
        assert answer.facts == full.facts
        assert len(answer.facts) == 40
        assert answer.stats.facts_derived < full.stats.facts_derived / 4

    def test_rewrite_cache_reused_across_constants(self):
        program = parse_program(TC)
        evaluator = GoalDirectedEvaluator(program)
        first = evaluator.rewrite(parse_query('tc("a", Y)?'))
        second = evaluator.rewrite(parse_query('tc("b", Y)?'))
        assert first is second

    def test_repeated_query_variable(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c")]
        program = parse_program(TC)
        evaluator = GoalDirectedEvaluator(program)
        query = parse_query("tc(X, X)?")
        got = evaluator.answer(query, inputs={"e": edges})
        full = evaluator.full_answer(query, inputs={"e": edges})
        assert got.facts == full.facts
        assert got.facts == {("a", "a"), ("b", "b")}

    def test_bindings_report_free_variables(self):
        program = parse_program(TC)
        evaluator = GoalDirectedEvaluator(program)
        answer = evaluator.answer(
            'tc("a", Y)?', inputs={"e": [("a", "b"), ("b", "c")]}
        )
        assert {"Y": "b"} in answer.bindings()
        assert {"Y": "c"} in answer.bindings()

    @pytest.mark.parametrize("inputs,expected", [
        # e has a fact rule besides its supplied facts ...
        ({"e": [("a", "b")]}, {("k", "a"), ("k", "b")}),
        # ... and tc is supplied facts although rules derive it.
        ({"tc": [("k", "z")], "e": [("z", "q")]},
         {("k", "a"), ("k", "z"), ("k", "q")}),
    ])
    def test_facts_supplied_for_a_derived_predicate_count(self, inputs, expected):
        program = parse_program('e("k", "a").\n' + TC)
        evaluator = GoalDirectedEvaluator(program)
        for text in ('tc("k", Y)?', 'tc(X, "q")?', 'e("k", Y)?', 'tc("z", Y)?'):
            answer = evaluator.answer(text, inputs=inputs)
            assert answer.mode == "magic"
            assert answer.facts == evaluator.full_answer(text, inputs=inputs).facts
        assert evaluator.answer('tc("k", Y)?', inputs=inputs).facts == expected
        # One bridging rule per adorned predicate, in the program only
        # where the caller holds facts for its source.
        query = parse_query('tc("k", Y)?')
        rewrite = evaluator.rewrite(query)
        assert {p: str(rule) for p, rule in rewrite.bridges} == {
            "tc": "magic__tc@bf(V0), tc(V0, V1) -> tc@bf(V0, V1).",
            "e": "magic__e@bf(V0), e(V0, V1) -> e@bf(V0, V1).",
        }
        bridged = {rule for _, rule in rewrite.bridges}
        assert bridged & set(rewrite.program_for(query, {"e"}).rules) == {
            rule for p, rule in rewrite.bridges if p == "e"}
        assert not bridged & set(rewrite.program_for(query, set()).rules)
        plain = evaluator.answer(query, inputs={"up": [("a", "b")]})
        assert plain.facts == {("k", "a")}

    def test_database_not_mutated(self):
        from repro.vadalog import Database

        db = Database()
        db.add_all("e", [("a", "b"), ("b", "c")])
        evaluator = GoalDirectedEvaluator(parse_program(TC))
        evaluator.answer('tc("a", Y)?', database=db)
        assert set(db.predicates()) == {"e"}
        assert db.count("e") == 2

    @pytest.mark.parametrize("frozen", [True, False])
    def test_a_pure_edb_query_probes_and_answers_as_the_scan(
        self, frozen, monkeypatch
    ):
        """Over a live relation or a frozen one (a served epoch's EDB)."""
        nan = float("nan")
        facts = [("a", 1), ("a", 1.0), ("a", True), ("b", 2), ("b", nan),
                 (1, "a"), (True, "a"), ("c", "c")] + [
            (f"n{i}", i) for i in range(200)
        ]
        db = Database()
        db.add_all("e", facts)
        db.add_all("wide", [("a", "b", "c")])
        if frozen:
            db.relation("e").freeze()
        stored = sorted(db.facts("e"), key=repr)
        evaluator = GoalDirectedEvaluator(parse_program(TC))
        # A probe, not a copy of the relation.
        monkeypatch.setattr(
            Database, "facts",
            lambda self, predicate: pytest.fail("scanned " + predicate),
        )
        for text in ('e("a", Y)?', 'e("a", 1)?', 'e("a", true)?', 'e(1, Y)?',
                     'e(true, Y)?', 'e(X, 2)?', 'e("n7", 7)?', 'e("n7", 8)?',
                     'e("ghost", Y)?', 'e(X, X)?', 'e(X, Y)?', 'e("a", Y, Z)?',
                     'wide("a", Y)?', 'nothing("a", Y)?'):
            query = parse_query(text)
            answer = evaluator.answer(query, database=db)
            assert answer.mode == "edb"
            source = stored if query.predicate == "e" else [("a", "b", "c")]
            assert sorted(answer.facts, key=repr) == [
                f for f in source
                if query.predicate != "nothing" and query.matches(f)
            ], text
        assert set(db.predicates()) == {"e", "wide"}  # none created by asking
        extra = evaluator.answer(
            'e("a", Y)?', database=db, inputs={"e": [("a", "late")]}
        )
        assert ("a", "late") in extra.facts and len(extra.facts) >= 2

    def test_a_cached_rewrite_is_stratified_once(self, monkeypatch):
        from repro.vadalog import engine, magic

        calls = []
        for module in (engine, magic):
            monkeypatch.setattr(
                module, "stratify",
                lambda program, _real=module.stratify: (
                    calls.append(len(program.rules)), _real(program)
                )[1],
            )
        evaluator = GoalDirectedEvaluator(parse_program(TC))
        edges = {"e": [(f"n{i}", f"n{i + 1}") for i in range(12)]}
        first = evaluator.answer('tc("n0", Y)?', inputs=edges)
        assert len(first.facts) == 12
        assert evaluator.answer('tc("n9", Y)?', inputs=edges).facts == {
            ("n9", "n10"), ("n9", "n11"), ("n9", "n12")
        }
        stratified = len(calls)
        for i in range(12):  # same adornment, other constants
            evaluator.answer(f'tc("n{i}", Y)?', inputs=edges)
        assert len(calls) == stratified
        # Facts supplied for the derived predicate add its bridge: other
        # rules, stratified once more, and cached beside the first.
        supplied = dict(edges, tc=[("n0", "zz")])
        assert ("n0", "zz") in evaluator.answer('tc("n0", Y)?', inputs=supplied).facts
        assert len(calls) == stratified + 1
        evaluator.answer('tc("n3", Y)?', inputs=supplied)
        evaluator.answer('tc("n3", Y)?', inputs=edges)
        assert len(calls) == stratified + 1
