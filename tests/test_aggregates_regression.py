"""Regression tests for the aggregate-semantics bug fixes.

Each test here encodes a behavior that was wrong (or crashed) before the
fix it names; together they pin the corrected semantics:

- per-function collision resolution in :class:`GroupAccumulator`
  (``min`` must keep the *smaller* value when a contributor re-appears);
- mixed-type contributions resolve deterministically instead of raising
  ``TypeError`` out of the chase;
- ``prod`` is no longer treated as monotonic in recursive strata, while
  ``mprod`` asserts validated non-decreasing use (every factor >= 1);
- a recursive aggregate is evaluated semi-naively — one firing per new
  contribution, not a rebuild of every group per round — and its
  facts and retained buckets equal the naive references';
- aggregate contributor lists must name variables, in both surface
  syntaxes.
"""

import random

import pytest

from repro.errors import (
    EvaluationError,
    ParseError,
    VadalogError,
)
from repro.metalog.parser import parse_metalog_rule
from repro.vadalog import Engine, parse_program
from repro.vadalog.aggregates import (
    GroupAccumulator,
    aggregate,
    is_monotonic,
    is_recursion_safe,
)
from repro.vadalog.terms import Null
from tests.reference import InterpretedEngine, NaiveEngine


def run(text, **inputs):
    return Engine().run(parse_program(text), inputs=inputs)


class TestCollisionResolution:
    """A contributor seen twice must resolve per aggregate function."""

    def test_min_keeps_smaller_duplicate(self):
        # Before the fix every function kept the larger value, so a
        # duplicated contributor silently inflated minima.
        result = run(
            "val(C, W), V = mmin(W, <C>) -> low(V).",
            val=[("a", 5), ("a", 3), ("b", 7)],
        )
        assert result.facts("low") == {(3,)}

    def test_max_keeps_larger_duplicate(self):
        result = run(
            "val(C, W), V = mmax(W, <C>) -> high(V).",
            val=[("a", 5), ("a", 3)],
        )
        assert result.facts("high") == {(5,)}

    def test_sum_keeps_monotone_witness(self):
        result = run(
            "own(Z, Y, W), V = msum(W, <Z>) -> total(Y, V).",
            own=[("a", "c", 0.3), ("a", "c", 0.5)],
        )
        assert result.facts("total") == {("c", 0.5)}

    def test_unit_level_resolution_is_per_function(self):
        for function, expected in [("min", 3), ("max", 5), ("sum", 5)]:
            acc = GroupAccumulator(function)
            acc.contribute(("g",), ("a",), 5)
            acc.contribute(("g",), ("a",), 3)
            assert dict(acc.results()) == {("g",): expected}, function

    def test_none_contribution_is_replaced(self):
        acc = GroupAccumulator("min")
        acc.contribute(("g",), ("a",), None)
        acc.contribute(("g",), ("a",), 4)
        assert dict(acc.results()) == {("g",): 4}


class TestMixedTypeContributions:
    """Unorderable values must not crash the chase."""

    def test_mixed_types_resolve_deterministically(self):
        # Before the fix this raised TypeError ('<' between str and int)
        # straight out of Engine.run.
        acc = GroupAccumulator("max")
        acc.contribute(("g",), ("a",), 2)
        acc.contribute(("g",), ("a",), "x")
        forward = dict(acc.results())
        acc = GroupAccumulator("max")
        acc.contribute(("g",), ("a",), "x")
        acc.contribute(("g",), ("a",), 2)
        assert forward == dict(acc.results())

    def test_engine_level_mixed_types(self):
        result = run(
            "val(C, W), V = mmax(W, <C>) -> out(V).",
            val=[("a", 2), ("a", "x")],
        )
        assert len(result.facts("out")) == 1


class TestProductMonotonicity:
    def test_prod_is_not_monotonic(self):
        assert not is_monotonic("prod")
        assert not is_monotonic("mprod")
        assert is_recursion_safe("mprod")
        assert not is_recursion_safe("prod")

    def test_non_recursive_prod_still_works(self):
        result = run(
            "val(C, W), V = prod(W, <C>) -> out(V).",
            val=[("a", 2), ("b", 3), ("c", 4)],
        )
        assert result.facts("out") == {(24,)}
        assert aggregate("prod", {("a",): 2, ("b",): 3, ("c",): 4}) == 24

    def test_recursive_prod_rejected_with_hint(self):
        text = (
            "base(X, W) -> acc(X, W).\n"
            "acc(X, W), step(X, Y, U), V = prod(U, <Y>) -> acc(Y, V).\n"
        )
        with pytest.raises(VadalogError, match="mprod"):
            run(text, base=[("a", 2)], step=[("a", "b", 3)])

    def test_recursive_mprod_nondecreasing_accepted(self):
        text = (
            "base(X, W) -> acc(X, W).\n"
            "acc(X, W), step(X, Y, U), V = mprod(U, <Y>) -> acc(Y, V).\n"
        )
        result = run(text, base=[("a", 2)], step=[("a", "b", 3), ("b", "c", 4)])
        assert ("b", 3) in result.facts("acc")

    def test_recursive_mprod_shrinking_factor_raises(self):
        acc = GroupAccumulator("mprod", recursive=True)
        acc.contribute(("g",), ("a",), 2)  # factor >= 1: fine
        with pytest.raises(EvaluationError, match="non-decreasing"):
            acc.contribute(("g",), ("b",), 0.5)

    def test_non_recursive_mprod_allows_shrinking(self):
        acc = GroupAccumulator("mprod")
        acc.contribute(("g",), ("a",), 0.5)
        acc.contribute(("g",), ("b",), 4)
        assert dict(acc.results()) == {("g",): 2.0}


CONTROL = (
    "company(X) -> controls(X, X).\n"
    "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y)."
)
#: The contribution body reads the stratum's own predicate twice: a
#: group's bucket holds every midpoint of a two-step path, and one whose
#: second step is new only the old/new partition finds.
MIDPOINTS = (
    "own(X, Y, _) -> linked(X, Y).\n"
    "linked(X, Z), linked(Z, Y), C = mcount(Z, <Z>), C > 0 -> linked(X, Y)."
)
#: The assignment needs ``K``, bound by the body but no group variable;
#: the head has an existential id.
CONTROL_SCALED = (
    "company(X) -> controls(C, X, X).\n"
    "controls(_, X, Z), own(Z, Y, W), factor(X, K), V = msum(W, <Z>) * K,"
    " V > 0.5 -> controls(C, X, Y)."
)
PROGRAMS = pytest.mark.parametrize(
    "text,predicate",
    [(CONTROL, "controls"), (MIDPOINTS, "linked"), (CONTROL_SCALED, "controls")],
    ids=["control", "midpoints", "scaled"],
)


def chain(n):
    """A majority-ownership chain: a quadratic control closure."""
    return {
        "company": [(f"C{i}",) for i in range(n)],
        "own": [(f"C{i}", f"C{i + 1}", 0.6) for i in range(n - 1)],
    }


def registry(seed, size=24):
    """Joint stakes below the threshold that add up through control."""
    rng = random.Random(seed)
    companies = [f"C{i}" for i in range(size)]
    stakes = {
        (rng.choice(companies), rng.choice(companies)): rng.choice(
            (0.1, 0.2, 0.26, 0.3, 0.55)
        )
        for _ in range(3 * size)
    }
    return {
        "company": [(c,) for c in companies],
        "own": [(z, y, w) for (z, y), w in sorted(stakes.items())],
        "factor": [(c, rng.choice((0.9, 1.0, 1.5))) for c in companies],
    }


def canon(facts):
    """Facts with every labeled null blanked, as a sorted list."""
    return sorted(
        tuple("<null>" if isinstance(t, Null) else t for t in fact)
        for fact in facts
    )


class TestSemiNaiveAggregate:
    """After its first round an aggregate rule contributes only the
    matches of the round's new facts into the state that round built:
    the buckets and the facts are the naive recomputation's, for one
    firing per new contribution."""

    def test_one_firing_per_derived_fact_on_a_chain(self):
        result = Engine().run(
            parse_program(CONTROL), inputs=chain(80)
        )
        stats = result.stats
        assert len(result.facts("controls")) == stats.facts_derived == 80 * 81 // 2
        assert stats.rule_firings <= 3 * stats.facts_derived

    @pytest.mark.parametrize("retain", [True, False])
    @PROGRAMS
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_naive_references(self, text, predicate, seed, retain):
        """With and without the state a retaining run keeps."""
        program = parse_program(text)
        inputs = registry(seed)
        runs = [
            engine().run(program, inputs=inputs, retain_state=retain)
            for engine in (Engine, NaiveEngine, InterpretedEngine)
        ]
        semi_naive, naive, interpreted = (
            canon(run.facts(predicate)) for run in runs
        )
        assert semi_naive == naive == interpreted
        assert len(semi_naive) > len(inputs["company"])  # something cascades
        assert runs[0].stats.rule_firings < runs[1].stats.rule_firings

    @PROGRAMS
    def test_retained_accumulator_is_the_naive_one(self, text, predicate):
        """The retained state is the one the run used; the naive engines
        rebuild theirs from the final database in their last round."""
        program = parse_program(text)
        inputs = registry(7)
        kept, *references = (
            engine().run(
                program, inputs=inputs, retain_state=True
            ).state.aggregates
            for engine in (Engine, NaiveEngine, InterpretedEngine)
        )
        (rule,) = kept
        for reference in references:
            assert kept[rule].accumulator.state() == (
                reference[rule].accumulator.state()
            )
            assert kept[rule].witnesses.keys() == reference[rule].witnesses.keys()


class TestContributorValidation:
    def test_vadalog_constant_contributor_rejected(self):
        with pytest.raises(ParseError, match="not a variable"):
            parse_program("own(Z, Y, W), V = msum(W, <z>) -> total(Y, V).")

    def test_vadalog_variable_contributors_accepted(self):
        program = parse_program(
            "own(Z, Y, W), V = msum(W, <Z, _Aux>) -> total(Y, V)."
        )
        assert len(program.rules) == 1

    def test_metalog_boolean_contributor_rejected(self):
        with pytest.raises(ParseError):
            parse_metalog_rule(
                "(x: B)[:OWNS; percentage: w](y: B), v = msum(w, <true>)"
                " -> (y: B; total: v)."
            )

    def test_metalog_variable_contributor_accepted(self):
        rule = parse_metalog_rule(
            "(x: B)[:OWNS; percentage: w](y: B), v = msum(w, <x>), v > 0.5"
            " -> exists c : (x)[c: CONTROLS](y)."
        )
        assert rule is not None
