"""Chase-engine tests: joins, recursion, negation, aggregation,
existentials, Skolem functors, the restricted chase, and guards."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    EvaluationError,
    ResourceLimitError,
    VadalogError,
    WardednessError,
)
from repro.obs import RecordingTracer, ResourceGovernor
from repro.vadalog import Database, Engine, parse_program
from repro.vadalog.terms import Null, SkolemValue
from tests.reference import NaiveEngine


def run(text, **inputs):
    return Engine().run(parse_program(text), inputs=inputs)


class TestBasics:
    def test_projection(self):
        result = run("p(X, Y) -> q(Y).", p=[(1, 2), (3, 4)])
        assert result.facts("q") == {(2,), (4,)}

    def test_join(self):
        result = run(
            "e(X, Y), e(Y, Z) -> two(X, Z).",
            e=[(1, 2), (2, 3), (3, 4)],
        )
        assert result.facts("two") == {(1, 3), (2, 4)}

    def test_constants_filter(self):
        result = run('p(X, "a") -> q(X).', p=[(1, "a"), (2, "b")])
        assert result.facts("q") == {(1,)}

    def test_facts_in_program(self):
        result = run('base(1).\nbase(2).\nbase(X) -> out(X).')
        assert result.facts("out") == {(1,), (2,)}

    def test_anonymous_variables_bind_nothing(self):
        result = run("p(X, _, _) -> q(X).", p=[(1, 2, 3), (1, 4, 5)])
        assert result.facts("q") == {(1,)}

    def test_multi_head(self):
        result = run("p(X) -> q(X), r(X).", p=[(1,)])
        assert result.facts("q") == {(1,)} and result.facts("r") == {(1,)}

    def test_input_database_is_not_mutated(self):
        db = Database()
        db.add("p", (1,))
        Engine().run(parse_program("p(X) -> q(X)."), database=db)
        assert db.facts("q") == set()


class TestRecursion:
    def test_transitive_closure(self):
        result = run(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).",
            e=[(1, 2), (2, 3), (3, 4)],
        )
        assert result.facts("tc") == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        }

    def test_cyclic_closure_terminates(self):
        result = run(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).",
            e=[(1, 2), (2, 1)],
        )
        assert result.facts("tc") == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_mutual_recursion(self):
        result = run(
            "start(X) -> even(X).\n"
            "even(X), succ(X, Y) -> odd(Y).\n"
            "odd(X), succ(X, Y) -> even(Y).",
            start=[(0,)],
            succ=[(i, i + 1) for i in range(5)],
        )
        assert result.facts("even") == {(0,), (2,), (4,)}
        assert result.facts("odd") == {(1,), (3,), (5,)}

    def test_semi_naive_equals_naive(self):
        edges = [(i, (i * 7 + 3) % 20) for i in range(20)]
        text = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        fast = Engine().run(parse_program(text), inputs={"e": edges})
        slow = NaiveEngine().run(parse_program(text), inputs={"e": edges})
        assert fast.facts("tc") == slow.facts("tc")


class TestNegation:
    def test_stratified_negation(self):
        result = run(
            "n(X), not hidden(X) -> visible(X).",
            n=[(1,), (2,), (3,)],
            hidden=[(2,)],
        )
        assert result.facts("visible") == {(1,), (3,)}

    def test_negation_after_recursion(self):
        result = run(
            "e(X, Y) -> path(X, Y).\n"
            "path(X, Y), e(Y, Z) -> path(X, Z).\n"
            "n(X), not path(X, X) -> acyclic(X).",
            e=[(1, 2), (2, 1), (3, 4)],
            n=[(1,), (2,), (3,), (4,)],
        )
        assert result.facts("acyclic") == {(3,), (4,)}

    def test_negation_in_cycle_rejected(self):
        with pytest.raises(VadalogError):
            run("p(X), not q(X) -> q(X).", p=[(1,)])

    def test_unsafe_negation_rejected(self):
        with pytest.raises(VadalogError):
            run("p(X), not q(Y) -> r(X).", p=[(1,)])


class TestConditionsAndExpressions:
    def test_arithmetic(self):
        result = run("p(X), Y = X * 2 + 1 -> q(Y).", p=[(3,), (5,)])
        assert result.facts("q") == {(7,), (11,)}

    def test_comparison_filters(self):
        result = run("p(X), X > 2, X <= 4 -> q(X).", p=[(1,), (3,), (4,), (5,)])
        assert result.facts("q") == {(3,), (4,)}

    def test_string_functions(self):
        result = run(
            'p(X), Y = concat(upper(X), "!") -> q(Y).', p=[("hi",)]
        )
        assert result.facts("q") == {("HI!",)}

    def test_assignment_to_bound_variable_checks_equality(self):
        result = run("p(X, Y), Y = X + 1 -> q(X).", p=[(1, 2), (1, 5)])
        assert result.facts("q") == {(1,)}

    def test_incomparable_condition_is_false(self):
        result = run('p(X), X < "z" -> q(X).', p=[(1,), ("a",)])
        assert result.facts("q") == {("a",)}

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            run("p(X), Y = 1 / X -> q(Y).", p=[(0,)])

    def test_unknown_function_raises(self):
        with pytest.raises(EvaluationError):
            run("p(X), Y = nosuch(X) -> q(Y).", p=[(1,)])


class TestAggregation:
    def test_sum_with_contributors(self):
        result = run(
            "own(Z, Y, W), V = msum(W, <Z>) -> total(Y, V).",
            own=[("a", "c", 0.3), ("b", "c", 0.4), ("a", "d", 0.5)],
        )
        assert result.facts("total") == {("c", 0.7), ("d", 0.5)}

    def test_duplicate_contributor_counts_once(self):
        # Same contributor with two values: the maximum is used.
        result = run(
            "own(Z, Y, W), V = msum(W, <Z>) -> total(Y, V).",
            own=[("a", "c", 0.3), ("a", "c", 0.5)],
        )
        assert result.facts("total") == {("c", 0.5)}

    def test_count_min_max_avg(self):
        inputs = {"val": [("g", 1), ("g", 2), ("g", 3), ("h", 9)]}
        for func, expected in [
            ("mcount", {("g", 3), ("h", 1)}),
            ("mmax", {("g", 3), ("h", 9)}),
            ("min", {("g", 1), ("h", 9)}),
            ("avg", {("g", 2.0), ("h", 9.0)}),
        ]:
            result = run(
                f"val(G, W), V = {func}(W, <W>) -> out(G, V).", **inputs
            )
            assert result.facts("out") == expected, func

    def test_company_control_example_4_2(self):
        # The paper's running example: joint control through subsidiaries.
        result = run(
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> controls(X, Y).",
            company=[("a",), ("b",), ("c",), ("d",)],
            own=[
                ("a", "b", 0.6),   # a controls b directly
                ("b", "c", 0.4),   # jointly with a's direct 0.2 -> control
                ("a", "c", 0.2),
                ("c", "d", 0.51),  # and transitively d through c
            ],
        )
        controls = {p for p in result.facts("controls") if p[0] != p[1]}
        # b alone holds only 40% of c, so control of c (and hence d) is
        # exclusively a's, jointly through b; c controls d directly.
        assert controls == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("c", "d"),
        }

    def test_aggregate_filter_after(self):
        result = run(
            "own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> major(Y).",
            own=[("a", "c", 0.3), ("b", "c", 0.3), ("a", "d", 0.2)],
        )
        assert result.facts("major") == {("c",)}

    def test_two_aggregates_rejected(self):
        with pytest.raises(VadalogError):
            run(
                "p(X, W), V = msum(W, <X>), U = mcount(W, <X>) -> q(V, U).",
                p=[(1, 2)],
            )

    def test_aggregate_in_arithmetic(self):
        result = run(
            "own(Z, Y, W), V = msum(W, <Z>) * 100 -> pct(Y, V).",
            own=[("a", "c", 0.3), ("b", "c", 0.4)],
        )
        ((company, value),) = result.facts("pct")
        assert company == "c" and value == pytest.approx(70.0)


class TestExistentialsAndSkolems:
    def test_fresh_nulls_per_body_match(self):
        result = run("p(X) -> q(X, Y).", p=[(1,), (2,)])
        facts = result.facts("q")
        assert len(facts) == 2
        nulls = {f[1] for f in facts}
        assert all(isinstance(n, Null) for n in nulls)
        assert len(nulls) == 2  # distinct nulls per match

    def test_restricted_chase_skips_satisfied_heads(self):
        result = run(
            "p(X) -> q(X, Y).",
            p=[(1,)],
            q=[(1, "known")],
        )
        assert result.facts("q") == {(1, "known")}
        assert result.stats.nulls_created == 0

    def test_skolem_determinism_and_injectivity(self):
        result = run("p(X) -> q(X, #mk(X)).", p=[(1,), (2,)])
        facts = dict(result.facts("q"))
        assert facts[1] == SkolemValue("mk", (1,))
        assert facts[1] != facts[2]
        # A second run produces the same values.
        again = run("p(X) -> q(X, #mk(X)).", p=[(1,), (2,)])
        assert again.facts("q") == result.facts("q")

    def test_skolem_range_disjointness(self):
        result = run("p(X) -> q(#f(X), #g(X)).", p=[(1,)])
        fact = next(iter(result.facts("q")))
        assert fact[0] != fact[1]

    def test_shared_existential_across_head_atoms(self):
        result = run("p(X) -> q(X, Y), r(Y).", p=[(1,)])
        q_fact = next(iter(result.facts("q")))
        r_fact = next(iter(result.facts("r")))
        assert q_fact[1] == r_fact[0]

    def test_non_warded_program_rejected(self):
        text = (
            "p(X) -> r(X, Y).\n"
            "r(X, Y) -> q(Y, X).\n"
            "q(Y, X), r(X, Z) -> t(Y, Z)."
        )
        with pytest.raises(WardednessError):
            Engine().run(parse_program(text), inputs={"p": [(1,)]})
        # ... but runs with the check disabled.
        result = Engine(check_wardedness=False).run(
            parse_program(text), inputs={"p": [(1,)]}
        )
        assert len(result.facts("t")) == 1

    def test_null_budget_guard(self):
        # A warded but chase-diverging ping-pong: each fresh null seeds a
        # new one.  The budget guard must stop it.
        engine = Engine(max_nulls=5)
        with pytest.raises(EvaluationError):
            engine.run(
                parse_program("p(X) -> q(X, Y).\nq(X, Y) -> p(Y)."),
                inputs={"p": [(1,)]},
            )


class TestMultiHeadStratification:
    """Regression: every head of a multi-head rule must land in the same
    stratum, or consumers of the earlier head evaluate too soon."""

    def test_co_heads_share_a_stratum(self):
        from repro.vadalog.stratify import stratify

        text = (
            "base(X) -> p(X).\n"
            "q0(X) -> q(X).\n"
            "q(X) -> q2(X), p(X).\n"
            "q2(X), q2(Y) -> q3(X, Y).\n"
            "p(X), p(Y) -> pp(X, Y)."
        )
        strata = stratify(parse_program(text))
        of = {
            p: i
            for i, s in enumerate(strata)
            for r in s.rules
            for p in r.head_predicates()
        }
        assert of["p"] == of["q2"]
        assert of["q3"] > of["q2"]

    def test_consumer_of_co_head_sees_all_facts(self):
        # Before the co-head fix, the q(X) -> q2(X), p(X) rule was
        # scheduled with p's (later) stratum while q3 read q2 from an
        # earlier one, silently yielding q3 = {}.
        result = run(
            "base(X) -> p(X).\n"
            "q0(X) -> q(X).\n"
            "q(X) -> q2(X), p(X).\n"
            "q2(X), q2(Y) -> q3(X, Y).\n"
            "p(X), p(Y) -> pp(X, Y).",
            base=[("a",)],
            q0=[("b",)],
        )
        assert result.facts("q3") == {("b", "b")}
        assert result.facts("pp") == {
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
        }

    def test_pseudo_edges_do_not_mark_recursion(self):
        from repro.vadalog.stratify import stratify

        strata = stratify(parse_program("a(X) -> b(X), c(X)."))
        assert all(not stratum.recursive for stratum in strata)


class TestValidation:
    def test_empty_head_rejected(self):
        from repro.vadalog.ast import Program, Rule, Atom
        from repro.vadalog.terms import Variable

        program = Program(rules=[Rule((Atom("p", (Variable("X"),)),), ())])
        with pytest.raises(VadalogError):
            Engine().run(program)

    def test_non_ground_program_fact_rejected(self):
        with pytest.raises(VadalogError):
            run("p(X).")


# ---------------------------------------------------------------------------
# Rejection fuzz: random programs with one defect each
# ---------------------------------------------------------------------------

NODES = [f"n{i}" for i in range(6)]
FUZZ_INPUTS = {
    "e": [(a, b) for a in NODES for b in NODES if (a < b) != (a == "n3")],
    "node": [(n,) for n in NODES],
    "p": [(n,) for n in NODES[:3]],
    "q": [(n,) for n in NODES[3:]],
}

#: Warded, stratified rules over the inputs: an existential whose ward
#: joins a harmless variable, and negation of a lower stratum.
DECOYS = [
    "p(X) -> own(X, Z).",
    "own(X, Z) -> held(Z).",
    "own(X, Z), node(X) -> kept(X, Z).",
    "e(X, Y) -> reach(X, Y).",
    "reach(X, Y), e(Y, Z) -> reach(X, Z).",
    "node(X), not reach(X, X) -> acyclic(X).",
]


def _program(rng, rules, defect):
    """The rules, a few decoys and the defect, in a random order."""
    rules = rules + rng.sample(DECOYS, rng.randint(0, len(DECOYS))) + [defect]
    rng.shuffle(rules)
    return "\n".join(rules), defect


def unstratifiable_program(rng):
    """A recursive component over ``c*`` (and maybe a helper ``h`` inside
    it) with a negated dependency between two of its predicates."""
    cycle = [f"c{i}" for i in range(rng.randint(1, 4))]
    rules = [f"e(X, Y) -> {cycle[0]}(X, Y)."]
    for i, predicate in enumerate(cycle):
        rules.append(
            f"{predicate}(X, Y), e(Y, Z) -> {cycle[(i + 1) % len(cycle)]}(X, Z)."
        )
    for _ in range(rng.randint(0, 2)):
        rules.append(f"{rng.choice(cycle)}(X, Y) -> {rng.choice(cycle)}(Y, X).")
    negated = rng.choice(cycle)
    if rng.random() < 0.5:
        rules.append(f"{rng.choice(cycle)}(X, Y) -> h(X, Y).")
        rules.append(f"h(X, Y), node(X) -> {rng.choice(cycle)}(X, Y).")
        negated = "h"
    terms = rng.choice(["Y, X", "X, _", "Y, Y", "X, Y"])
    defect = (
        f"{rng.choice(cycle)}(X, Y), not {negated}({terms}) -> "
        f"{rng.choice(cycle)}(X, Y)."
    )
    return _program(rng, rules, defect)


def _copies(rng, prefix, variables, steps):
    """Rules copying ``prefix0`` through ``steps`` predicates, each with
    its own argument order; returns them and the last atom."""
    order = list(variables)
    rules = []
    for i in range(steps):
        nxt = rng.sample(order, len(order))
        rules.append(
            f"{prefix}{i}({', '.join(order)}) -> {prefix}{i + 1}({', '.join(nxt)})."
        )
        order = nxt
    return rules, f"{prefix}{steps}({', '.join(order)})"


def non_warded_program(rng):
    """Existential heads make ``a*`` positions of D and H and the ``b*``
    position of H affected; the defect joins ``a*`` and ``b*`` on the
    harmful H, exporting a dangerous variable: no atom can be its ward."""
    rules = ["p(X) -> a0(X, D, H).", "q(Y) -> b0(H, Y)."]
    a_rules, a_atom = _copies(rng, "a", ["X", "D", "H"], rng.randint(0, 3))
    b_rules, b_atom = _copies(rng, "b", ["H", "Y"], rng.randint(0, 3))
    exported = rng.choice(["X, H", "X, D", "D, Y", "H"])
    return _program(
        rng, rules + a_rules + b_rules,
        f"{a_atom}, {b_atom} -> t({exported}).",
    )


def rejected(text):
    """The error a guarded run of ``text`` raises, with no span of the
    engine opened: the program was refused before any stratum ran."""
    tracer = RecordingTracer()
    engine = Engine(
        max_iterations=50, tracer=tracer,
        governor=ResourceGovernor(
            budget_seconds=10.0, max_stratum_iterations=50, graceful=False
        ),
    )
    with pytest.raises(VadalogError) as caught:
        engine.run(parse_program(text), inputs=FUZZ_INPUTS)
    assert not isinstance(caught.value, ResourceLimitError), caught.value
    assert not [s.name for s in tracer.spans if s.name.startswith("engine.")]
    return caught.value


def runs_without(text, defect):
    """Without its defect the program is admitted and saturates."""
    rules = [rule for rule in text.split("\n") if rule != defect]
    result = Engine(max_iterations=50).run(
        parse_program("\n".join(rules)), inputs=FUZZ_INPUTS
    )
    assert result.status == "fixpoint"


class TestRejectionFuzz:
    """Seeded random programs with one defect each are refused by the
    static analyses (stratification, wardedness), never run until an
    iteration cap or a governor stops them."""

    @pytest.mark.parametrize("seed", range(40))
    def test_negation_inside_recursion(self, seed):
        text, defect = unstratifiable_program(random.Random(seed))
        error = rejected(text)
        assert not isinstance(error, WardednessError), error
        assert "not stratifiable" in str(error), error
        runs_without(text, defect)

    @pytest.mark.parametrize("seed", range(40))
    def test_join_of_harmful_variables(self, seed):
        text, defect = non_warded_program(random.Random(seed))
        error = rejected(text)
        assert isinstance(error, WardednessError), error
        assert "no ward" in str(error), error
        runs_without(text, defect)


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=25,
    )
)
@settings(max_examples=40, deadline=None)
def test_transitive_closure_matches_networkx(edges):
    result = run(
        "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).",
        e=edges,
    )
    nxg = nx.DiGraph(edges)
    closure = nx.transitive_closure(nxg, reflexive=False)
    assert result.facts("tc") == set(closure.edges())
