"""Compiled join plans: differential battery against the interpreted
matcher, plan-compilation unit tests, composite-index tests, and the
graph fast paths that ride along in the same change."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from repro.finkg import (
    ShareholdingConfig,
    generate_shareholding_graph,
    run_control_metalog,
)
from repro.finkg.programs import (
    GROUP_PROGRAM,
    close_links_program,
    integrated_ownership_program,
)
from repro.graph.algorithms import strongly_connected_components, topological_order
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog, run_on_graph
from repro.vadalog import Engine, parse_program
from repro.vadalog.ast import Condition
from repro.vadalog.columnar import ColumnarRelation, ValueInterner
from repro.vadalog.plan import (
    AssignFilter,
    CondFilter,
    NegFilter,
    compile_body,
    execute_plan,
)
from repro.vadalog.terms import Null, Variable
from tests.reference import (
    InterpretedEngine,
    NaiveEngine,
    NaiveInterpretedEngine,
)


# ---------------------------------------------------------------------------
# Differential battery: the compiled plans vs the interpreted matcher
# ---------------------------------------------------------------------------


def _canon(facts):
    """Null ordinals are run-dependent; compare up to null identity."""
    multiset = {}
    distinct_nulls = set()
    for fact in facts:
        key = tuple(
            ("<null>", t.label) if isinstance(t, Null) else t for t in fact
        )
        multiset[key] = multiset.get(key, 0) + 1
        distinct_nulls.update(t for t in fact if isinstance(t, Null))
    return multiset, len(distinct_nulls)


#: The chase class of each ``(use_plans, semi_naive)`` pair: the
#: production engine or one of its references.
CHASE_OF = {
    (True, True): Engine,
    (True, False): NaiveEngine,
    (False, True): InterpretedEngine,
    (False, False): NaiveInterpretedEngine,
}


def chases(semi_naive):
    """The planned chase and its interpreted reference: semi-naive, or
    both of them naive."""
    return CHASE_OF[True, semi_naive](), CHASE_OF[False, semi_naive]()


def differential(text, predicates, semi_naive=True, **inputs):
    """Run with plans and interpreted; assert identical output per
    predicate."""
    program = parse_program(text)
    fast, slow = (
        engine.run(program, inputs=inputs) for engine in chases(semi_naive)
    )
    assert fast.stats.plans_compiled > 0
    assert slow.stats.plans_compiled == 0
    for predicate in predicates:
        assert _canon(fast.facts(predicate)) == _canon(slow.facts(predicate)), predicate
    return fast, slow


class TestDifferential:
    @pytest.mark.parametrize("semi_naive", [True, False])
    def test_transitive_closure(self, semi_naive):
        edges = [(i, (i * 7 + 3) % 25) for i in range(25)] + [(3, 3), (0, 7)]
        differential(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).",
            ["tc"],
            semi_naive=semi_naive,
            e=edges,
        )

    def test_mutual_recursion(self):
        differential(
            "start(X) -> even(X).\n"
            "even(X), succ(X, Y) -> odd(Y).\n"
            "odd(X), succ(X, Y) -> even(Y).",
            ["even", "odd"],
            start=[(0,)],
            succ=[(i, i + 1) for i in range(8)],
        )

    def test_stratified_negation(self):
        differential(
            "node(X), not bad(X) -> good(X).\n"
            "edge(X, Y), bad(X) -> bad(Y).",
            ["good", "bad"],
            node=[(i,) for i in range(6)],
            edge=[(0, 1), (1, 2), (4, 5)],
            bad=[(0,)],
        )

    def test_assignments_conditions_functions(self):
        differential(
            'p(X, Y), Z = X + Y, Z > 3, S = concat("v", tostring(Z)) -> q(X, S).',
            ["q"],
            p=[(1, 1), (2, 2), (3, 3)],
        )

    def test_constants_and_repeated_variables(self):
        differential(
            'p(X, X, "k") -> q(X).\np(X, Y, _), q(Y) -> r(X, Y).',
            ["q", "r"],
            p=[(1, 1, "k"), (2, 2, "other"), (3, 1, "z"), (1, 1, "z")],
        )

    def test_bool_int_distinction(self):
        # Hash buckets equate True/1/1.0; the chase must not.
        differential(
            "p(X), q(X) -> r(X).",
            ["r"],
            p=[(True,), (1,), (0,)],
            q=[(1,), (False,)],
        )

    def test_existential_restricted_chase(self):
        # The second rule is satisfied by existing facts for some tuples:
        # the restricted chase must invent nulls only for the others.
        differential(
            "person(X) -> hasid(X, Y).\n",
            ["hasid"],
            person=[("a",), ("b",), ("c",)],
            hasid=[("a", "id-a")],
        )

    def test_skolem_oids(self):
        differential(
            "own(X, Y, W) -> holding(#h(X, Y), X, Y, W).",
            ["holding"],
            own=[("a", "b", 0.4), ("b", "c", 0.6)],
        )

    def test_multi_head_shared_existential(self):
        differential(
            "c(X) -> officer(X, P), person(P).",
            ["officer", "person"],
            c=[("acme",), ("globex",)],
        )

    def test_monotonic_aggregation_control(self):
        differential(
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> controls(X, Y).",
            ["controls"],
            company=[("a",), ("b",), ("c",), ("d",)],
            own=[
                ("a", "b", 0.6),
                ("b", "c", 0.4),
                ("a", "c", 0.2),
                ("c", "d", 0.51),
                ("b", "d", 0.2),
            ],
        )

    def test_aggregate_post_condition_and_projection(self):
        differential(
            "own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> major(Y).",
            ["major"],
            own=[("a", "c", 0.3), ("b", "c", 0.3), ("a", "d", 0.2)],
        )


# ---------------------------------------------------------------------------
# Randomized differential battery
#
# Seeded program generators over three terminating-by-construction
# families; every generated program must evaluate identically with
# plans on and off.  52 programs total, deterministic per seed.
# ---------------------------------------------------------------------------


def _rand_pairs(rng, size, count):
    pairs = set()
    for _ in range(count):
        pairs.add((f"n{rng.randrange(size)}", f"n{rng.randrange(size)}"))
    return sorted(pairs)


def _rand_weighted(rng, size, count):
    triples = set()
    for _ in range(count):
        triples.add((
            f"n{rng.randrange(size)}",
            f"n{rng.randrange(size)}",
            round(rng.uniform(0.05, 0.95), 2),
        ))
    return sorted(triples)


def _recursion_case(rng):
    """Negation-free recursion over a finite domain (no value invention)."""
    size = rng.randrange(4, 9)
    edges = _rand_pairs(rng, size, rng.randrange(6, 18))
    variant = rng.randrange(4)
    if variant == 0:
        text = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        return text, ["tc"], {"e": edges}
    if variant == 1:
        text = "e(X, Y) -> tc(X, Y).\ntc(X, Y), tc(Y, Z) -> tc(X, Z)."
        return text, ["tc"], {"e": edges}
    if variant == 2:
        text = (
            "seed(X) -> even(X).\n"
            "even(X), e(X, Y) -> odd(Y).\n"
            "odd(X), e(X, Y) -> even(Y)."
        )
        return text, ["even", "odd"], {
            "seed": [(f"n{rng.randrange(size)}",)], "e": edges,
        }
    text = (
        "f(X, Y) -> sg(X, Y).\n"
        "up(X, U), sg(U, V), up(Y, V) -> sg(X, Y)."
    )
    ups = _rand_pairs(rng, size, rng.randrange(6, 14))
    return text, ["sg"], {"f": edges, "up": ups}


def _aggregate_case(rng):
    """Monotonic aggregates (msum / mcount / mmax), some recursive."""
    size = rng.randrange(4, 8)
    triples = _rand_weighted(rng, size, rng.randrange(6, 16))
    variant = rng.randrange(3)
    if variant == 0:
        text = (
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> controls(X, Y)."
        )
        companies = sorted(
            {(a,) for a, _, _ in triples} | {(b,) for _, b, _ in triples}
        )
        return text, ["controls"], {"company": companies, "own": triples}
    if variant == 1:
        text = "own(Z, Y, W), C = mcount(W, <Z>), C > 1 -> popular(Y)."
        return text, ["popular"], {"own": triples}
    text = "own(Z, Y, W), V = mmax(W, <Z>), V > 0.4 -> strong(Y, V)."
    return text, ["strong"], {"own": triples}


def _existential_case(rng):
    """Existential heads: restricted-chase nulls and Skolem linkers."""
    size = rng.randrange(3, 7)
    names = [f"n{i}" for i in range(size)]
    variant = rng.randrange(3)
    if variant == 0:
        # Some tuples pre-satisfied: nulls only for the rest.
        people = [(n,) for n in rng.sample(names, rng.randrange(2, size + 1))]
        known = [(n, f"id-{n}") for n in rng.sample(names, rng.randrange(1, size))]
        text = "person(X) -> hasid(X, Y)."
        return text, ["hasid"], {"person": people, "hasid": known}
    if variant == 1:
        weighted = _rand_weighted(rng, size, rng.randrange(4, 10))
        text = (
            "own(X, Y, W) -> holding(#h(X, Y), X, Y, W).\n"
            "holding(H, X, Y, W) -> via(H, Y)."
        )
        return text, ["holding", "via"], {"own": weighted}
    companies = [(n,) for n in rng.sample(names, rng.randrange(2, size + 1))]
    text = (
        "c(X) -> officer(X, P), person(P).\n"
        "officer(X, P) -> rep(P, X)."
    )
    return text, ["officer", "person", "rep"], {"c": companies}


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_negation_free_recursion(self, seed):
        text, predicates, inputs = _recursion_case(random.Random(1000 + seed))
        differential(text, predicates, semi_naive=bool(seed % 2), **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_monotonic_aggregates(self, seed):
        text, predicates, inputs = _aggregate_case(random.Random(2000 + seed))
        differential(text, predicates, **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_existential_skolem(self, seed):
        text, predicates, inputs = _existential_case(random.Random(3000 + seed))
        differential(text, predicates, **inputs)


#: A recursive stratum with an existential head: which firing of a
#: ``(X, Z)`` pattern mints its null, and with which ordinal, is decided
#: by the order the rounds join their new facts in.
SEEN = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z), seen(X, Z, N)."


def seen_nulls(use_plans):
    """The ``seen`` facts of one batch run over a 12-node graph, in the
    relation's order, with the ordinal of each null."""
    edges = [(f"n{i}", f"n{(i * 5 + 3) % 12}") for i in range(12)]
    edges += [(f"n{i}", f"n{(i + 1) % 12}") for i in range(12)]
    engine = Engine() if use_plans else InterpretedEngine()
    result = engine.run(
        parse_program(SEEN), inputs={"e": edges}
    )
    return [(x, z, null.ordinal) for x, z, null in result.database.relation("seen")]


def test_batch_nulls_are_hash_seed_independent():
    """A batch run's labeled nulls must not depend on ``set`` iteration
    order: the same ``seen`` facts, nulls and row order under every
    ``PYTHONHASHSEED``, planned and interpreted."""
    script = (
        "from tests.test_engine_plans import seen_nulls\n"
        "print(seen_nulls(True))\n"
        "print(seen_nulls(False))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout.split("\n")[:2])
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0] == [repr(seen_nulls(True)), repr(seen_nulls(False))]
    assert seen_nulls(True)


def _unlabeled(text):
    """A finkg program over the flat shareholding graph's labels."""
    for atom in ("(x: Person)", "(y: Business)", "(z: Business)"):
        text = text.replace(atom, atom.split(":")[0] + ")")
    return text


def _row_digests(outcome):
    """(row count, sha256 of the rows in row order, nulls by ordinal)
    per derived relation of one MetaLog run."""
    database = outcome.result.database
    return {
        predicate: (
            database.count(predicate),
            hashlib.sha256(
                repr(list(database.relation(predicate))).encode()
            ).hexdigest(),
        )
        for predicate in sorted(outcome.compiled.program.idb_predicates())
    }


_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

#: Recorded before the register-file join loop was removed: the full
#: evaluations these programs run per match (IOWN's aggregate pre-body
#: with its assignment, close links' and groups' conditions, the group
#: Skolem head) must keep their row order, null ordinals and sums.
GOLDEN_PER_MATCH_ROWS = {
    "iown": {
        "IOWN": (177, "863e60c024a9409aaa24a1dbc817a0755c74f106aaaa9f8e5ca66db095f918d4"),
        "iown1": (155, "64fef306915afbd9977b7f7180a267c37b20624ebc67007ecf6757284d1a7038"),
        "iown2": (40, "e36289c471fa24e46e27e9a7031891733eefd86e29ea0f537f5e748575e8355c"),
        "iown3": (8, "7c80c7299fa3f7e833299fef4fcd66f3dbceea83503db294510b1b12ee4d95f5"),
        "iown4": (0, _EMPTY),
        "iown5": (0, _EMPTY),
        "iown6": (0, _EMPTY),
        "iownLevel": (203, "7066d13cb19b06447d7ab230117b666e45dafb84618cb0a3f2ca989c263d28f1"),
    },
    "close_links": {
        "CLOSE_LINK": (406, "a92be6dc11ce91b78c777b6a0ba2166ff7dd7acb9105b251892d400192f4777c"),
    },
    "groups": {
        "Group": (6, "4a544d71405e6579ac1c56aba8feb711aade695cf99f028cbd84c3fa47fa7785"),
        "IN_GROUP": (9, "338bb12943a7306c29fddca887c8c2a734e4051bf257896bcb8b11584cf3b10f"),
    },
}


def test_per_match_rows_keep_their_golden_order():
    """IOWN (depth 6) plus close links on the 60-company graph of
    ``tests/test_finkg.py``, and company groups (a Skolem head behind a
    condition) over its control output: every derived relation's rows,
    in row order with null ordinals, equal the recorded digests."""
    graph = generate_shareholding_graph(
        ShareholdingConfig(companies=60, seed=29, cycle_probability=0.0)
    )
    iown = run_on_graph(
        parse_metalog(_unlabeled(integrated_ownership_program(depth=6))), graph
    )
    links = run_on_graph(parse_metalog(close_links_program()), iown.graph)
    control = run_control_metalog(graph, node_label="Company")
    groups = run_on_graph(parse_metalog(_unlabeled(GROUP_PROGRAM)), control.graph)
    assert {
        "iown": _row_digests(iown),
        "close_links": _row_digests(links),
        "groups": _row_digests(groups),
    } == GOLDEN_PER_MATCH_ROWS


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def _body(text):
    return parse_program(text).rules[0].body


class TestCompilation:
    def test_static_join_order_follows_bound_atoms(self):
        # q(Y, Z) has one bound position once p binds X, Y; r(W) has none:
        # the greedy order must visit p, then q, then r.
        body = _body("p(X, Y), r(W), q(Y, Z) -> out(X, W).")
        plan = compile_body(body)
        assert [s.predicate for s in plan.steps] == ["p", "q", "r"]

    def test_initially_bound_variables_steer_the_order(self):
        body = _body("p(X, Y), q(Y, Z) -> out(X, Z).")
        plan = compile_body(body, bound=[Variable("Z")])
        assert [s.predicate for s in plan.steps] == ["q", "p"]

    def test_bind_check_and_key_slots(self):
        body = _body('p(X, X, "k", _, Y) -> out(X, Y).')
        plan = compile_body(body)
        (step,) = plan.steps
        assert step.positions == (2,)          # only the constant probes
        assert step.key_parts == ((False, "k"),)
        assert step.bind == ((0, Variable("X")), (4, Variable("Y")))
        assert step.check == ((1, Variable("X")),)

    def test_second_step_probes_on_bound_variable(self):
        body = _body("tc(X, Y), e(Y, Z) -> tc(X, Z).")
        plan = compile_body(body)
        first, second = plan.steps
        assert first.positions == ()
        assert second.predicate == "e"
        assert second.positions == (0,)
        assert second.key_parts == ((True, Variable("Y")),)

    def test_filters_attach_to_earliest_ready_step(self):
        body = _body("p(X), X > 1, q(X, Y), Y = X + 1 -> out(Y).")
        plan = compile_body(body)
        assert not plan.prefix
        first, second = plan.steps
        assert [type(f) for f in first.filters] == [CondFilter, AssignFilter]
        assert [type(f) for f in second.filters] == []
        # The ready assignment ran right after p bound X, so q's Y slot is
        # a bound probe rather than a novel binding.
        assert second.positions == (0, 1)

    def test_ready_filters_with_no_prior_atom_go_to_prefix(self):
        body = _body("X = 1 + 1, p(X) -> out(X).")
        plan = compile_body(body)
        assert [type(f) for f in plan.prefix] == [AssignFilter]
        assert plan.prefix[0].binds
        (step,) = plan.steps
        assert step.positions == (0,)

    def test_negation_becomes_a_filter(self):
        body = _body("p(X), not q(X) -> out(X).")
        plan = compile_body(body)
        (step,) = plan.steps
        assert [type(f) for f in step.filters] == [NegFilter]

    def test_execute_plan_yields_fresh_dicts(self):
        from repro.vadalog.database import Database

        body = _body("e(X, Y), e(Y, Z) -> out(X, Z).")
        plan = compile_body(body)
        db = Database()
        db.add_all("e", [(1, 2), (2, 3), (3, 4)])
        results = list(execute_plan(plan, db))
        as_tuples = {
            (s[Variable("X")], s[Variable("Y")], s[Variable("Z")]) for s in results
        }
        assert as_tuples == {(1, 2, 3), (2, 3, 4)}
        assert len({id(s) for s in results}) == len(results)

    def test_plan_cache_is_shared_across_runs(self):
        engine = Engine()
        program = parse_program("e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).")
        first = engine.run(program, inputs={"e": [(1, 2)]})
        second = engine.run(program, inputs={"e": [(1, 2), (2, 3)]})
        assert first.stats.plans_compiled == 2
        assert second.stats.plans_compiled == 0


# ---------------------------------------------------------------------------
# Composite indexes
# ---------------------------------------------------------------------------


def _relation():
    return ColumnarRelation("r", interner=ValueInterner())


class TestCompositeIndex:
    def test_lookup_key_exact_match(self):
        rel = _relation()
        rel.add_many([(1, "a", 10), (1, "b", 20), (2, "a", 30), (1, "a", 40)])
        facts = set(rel.lookup_key((0, 1), (1, "a")))
        assert facts == {(1, "a", 10), (1, "a", 40)}
        assert set(rel.lookup_key((0, 1), (9, "a"))) == set()

    def test_single_position_delegates_to_plain_index(self):
        rel = _relation()
        rel.add_many([(1, "a"), (2, "b")])
        assert set(rel.lookup_key((1,), ("b",))) == {(2, "b")}

    def test_incremental_maintenance_after_build(self):
        rel = _relation()
        rel.add((1, "a"))
        assert set(rel.lookup_key((0, 1), (1, "a"))) == {(1, "a")}
        rel.add((1, "a"))  # duplicate: no double-count
        rel.add((1, "b"))
        assert list(rel.lookup_key((0, 1), (1, "a"))) == [(1, "a")]
        assert set(rel.lookup_key((0, 1), (1, "b"))) == {(1, "b")}

    def test_add_many_falls_back_once_indexed(self):
        rel = _relation()
        rel.add_many([(1, "a")])
        rel.lookup_key((0,), (1,))  # force an index
        added = rel.add_many([(1, "a"), (2, "b")])
        assert added == 1
        assert set(rel.lookup_key((0,), (2,))) == {(2, "b")}

    def test_copy_is_independent(self):
        rel = _relation()
        rel.add_many([(1, "a")])
        rel.lookup_key((0, 1), (1, "a"))
        clone = rel.copy()
        clone.add((2, "b"))
        assert (2, "b") not in rel
        assert set(clone.lookup_key((0, 1), (2, "b"))) == {(2, "b")}

    def test_arity_guard_in_bulk_path(self):
        from repro.errors import EvaluationError

        rel = _relation()
        with pytest.raises(EvaluationError):
            rel.add_many([(1, 2), (1, 2, 3)])


# ---------------------------------------------------------------------------
# PropertyGraph fast paths
# ---------------------------------------------------------------------------


def _sample_graph():
    g = PropertyGraph("sample")
    g.add_node("a", "Company", name="A")
    g.add_node("b", "Company", name="B")
    g.add_node("p", "Person")
    g.add_edge("a", "b", "OWNS", w=0.6)
    g.add_edge("p", "a", "OWNS", w=1.0)
    g.add_edge("a", "b", "SUPPLIES")
    g.add_node(label="Company")  # auto-id node
    return g


class TestPropertyGraphFastPaths:
    def test_copy_preserves_everything(self):
        g = _sample_graph()
        c = g.copy()
        assert c.node_count == g.node_count and c.edge_count == g.edge_count
        assert c.node_labels() == g.node_labels()
        assert c.edge_labels() == g.edge_labels()
        assert c.adjacency() == g.adjacency()
        assert c.degrees() == g.degrees()
        assert {e.id for e in c.edges("OWNS")} == {e.id for e in g.edges("OWNS")}
        assert c.node("a").properties == g.node("a").properties

    def test_copy_is_deep_enough(self):
        g = _sample_graph()
        c = g.copy()
        c.set_node_property("a", "name", "mutated")
        c.add_edge("b", "a", "OWNS")
        assert g.node("a")["name"] == "A"
        assert g.edge_count == 3

    def test_auto_id_counter_survives_copy(self):
        g = _sample_graph()
        c = g.copy()
        fresh = c.add_node(label="Company")
        assert fresh.id not in g  # no collision with ids minted before copy
        assert not g.has_node(fresh.id)

    def test_degrees_matches_per_node_queries(self):
        g = _sample_graph()
        for node in g.nodes():
            in_deg, out_deg = g.degrees()[node.id]
            assert in_deg == g.in_degree(node.id)
            assert out_deg == g.out_degree(node.id)

    def test_adjacency_with_label_filter(self):
        g = _sample_graph()
        adj = g.adjacency("OWNS")
        assert sorted(adj["a"]) == ["b"]
        assert adj["p"] == ["a"]
        assert adj["b"] == []
        full = g.adjacency()
        assert sorted(full["a"]) == ["b", "b"]

    def test_algorithms_still_correct_on_new_paths(self):
        g = PropertyGraph()
        for i in range(6):
            g.add_node(i)
        for s, t in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]:
            g.add_edge(s, t)
        sccs = {frozenset(c) for c in strongly_connected_components(g)}
        assert frozenset({0, 1, 2}) in sccs
        assert len(sccs) == 4

        dag = PropertyGraph()
        for i in range(5):
            dag.add_node(i)
        for s, t in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]:
            dag.add_edge(s, t)
        order = topological_order(dag)
        position = {n: i for i, n in enumerate(order)}
        assert all(position[s] < position[t]
                   for s, t in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(ValueError):
            topological_order(g)
