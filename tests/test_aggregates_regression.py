"""Regression tests for the aggregate-semantics and savepoint bug fixes.

Each test here encodes a behavior that was wrong (or crashed) before the
fix it names; together they pin the corrected semantics:

- per-function collision resolution in :class:`GroupAccumulator`
  (``min`` must keep the *smaller* value when a contributor re-appears);
- mixed-type contributions resolve deterministically instead of raising
  ``TypeError`` out of the chase;
- ``prod`` is no longer treated as monotonic in recursive strata, while
  ``mprod`` asserts validated non-decreasing use (every factor >= 1);
- aggregate contributor lists must name variables, in both surface
  syntaxes;
- structural savepoint rollback detects interleaved deletions via the
  graph's mutation epoch instead of silently removing wrong elements.
"""

import pytest

from repro.errors import (
    DeploymentError,
    EvaluationError,
    ParseError,
    VadalogError,
)
from repro.graph.property_graph import PropertyGraph
from repro.metalog.parser import parse_metalog_rule
from repro.vadalog import Engine, parse_program
from repro.vadalog.aggregates import (
    GroupAccumulator,
    aggregate,
    is_monotonic,
    is_recursion_safe,
)


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


class TestStaleSavepointMark:
    def _graph(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "N")
        graph.add_node(2, "N")
        graph.add_edge(1, 2, "R")
        return graph

    def test_rollback_after_deletion_raises(self):
        graph = self._graph()
        mark = graph.insertion_mark()
        graph.add_node(3, "N")
        edge = graph.add_edge(2, 3, "R")
        graph.remove_edge(edge.id)
        # Before the fix this popped whichever edge happened to be last
        # in insertion order — corrupting the pre-savepoint graph.
        with pytest.raises(DeploymentError, match="stale insertion mark"):
            graph.rollback_to_mark(mark)

    def test_rollback_after_node_removal_raises(self):
        graph = self._graph()
        mark = graph.insertion_mark()
        graph.add_node(3, "N")
        graph.remove_node(3)
        with pytest.raises(DeploymentError, match="stale insertion mark"):
            graph.rollback_to_mark(mark)

    def test_insert_only_rollback_still_works(self):
        graph = self._graph()
        mark = graph.insertion_mark()
        graph.add_node(3, "N")
        graph.add_edge(1, 3, "R")
        graph.rollback_to_mark(mark)
        assert graph.node_count == 2 and graph.edge_count == 1

    def test_nested_savepoints_stay_valid_after_inner_rollback(self):
        graph = self._graph()
        outer = graph.insertion_mark()
        graph.add_node(3, "N")
        inner = graph.insertion_mark()
        graph.add_node(4, "N")
        graph.rollback_to_mark(inner)  # rollback itself must not bump epoch
        graph.rollback_to_mark(outer)
        assert graph.node_count == 2

    def test_copy_carries_epoch(self):
        graph = self._graph()
        edge = next(iter(graph.edges()))
        graph.remove_edge(edge.id)
        clone = graph.copy()
        mark = clone.insertion_mark()
        clone.add_node(99, "N")
        clone.rollback_to_mark(mark)
        assert clone.node_count == graph.node_count
