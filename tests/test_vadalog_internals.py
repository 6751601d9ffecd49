"""Database, stratification, wardedness, aggregates, annotations."""

import pytest

from repro.errors import EvaluationError, VadalogError
from repro.vadalog import Database, check_piecewise_linear, check_warded, parse_program, stratify
from repro.vadalog.aggregates import GroupAccumulator, aggregate, is_monotonic
from repro.vadalog.annotations import resolve_inputs
from repro.vadalog.warded import affected_positions, dangerous_variables, harmful_variables
from repro.vadalog.terms import Variable


class TestDatabase:
    def test_add_and_dedup(self):
        db = Database()
        assert db.add("p", (1, 2))
        assert not db.add("p", (1, 2))
        assert db.count("p") == 1

    def test_arity_enforced(self):
        db = Database()
        db.add("p", (1, 2))
        with pytest.raises(EvaluationError):
            db.add("p", (1,))

    def test_indexed_lookup(self):
        relation = Database().relation("p")
        for i in range(100):
            relation.add((i % 10, i))
        hits = list(relation.lookup([(0, 3)]))
        assert len(hits) == 10
        assert all(f[0] == 3 for f in hits)
        # Multi-position constraint picks the most selective index.
        assert list(relation.lookup([(0, 3), (1, 13)])) == [(3, 13)]
        assert list(relation.lookup([(0, 3), (1, 14)])) == []

    def test_index_stays_fresh_after_adds(self):
        relation = Database().relation("p")
        relation.add((1, "a"))
        list(relation.lookup([(0, 1)]))  # builds the index
        relation.add((1, "b"))
        assert len(list(relation.lookup([(0, 1)]))) == 2

    def test_copy_and_merge(self):
        db = Database()
        db.add("p", (1,))
        clone = db.copy()
        clone.add("p", (2,))
        assert db.count("p") == 1
        other = Database()
        other.add("q", (9,))
        assert db.merge(other) == 1
        assert db.count("q") == 1


class TestStratify:
    def test_single_stratum_for_mutual_recursion(self):
        program = parse_program(
            "a(X) -> b(X).\nb(X) -> a(X).\nseed(X) -> a(X)."
        )
        strata = stratify(program)
        joint = [s for s in strata if {"a", "b"} <= s.predicates]
        assert len(joint) == 1
        assert joint[0].recursive

    def test_dependencies_evaluated_first(self):
        program = parse_program(
            "base(X) -> mid(X).\nmid(X) -> top(X)."
        )
        strata = stratify(program)
        order = {p: s.index for s in strata for p in s.predicates if p in ("mid", "top")}
        assert order["mid"] < order["top"]

    def test_negative_cycle_rejected(self):
        program = parse_program("p(X), not q(X) -> q(X).")
        with pytest.raises(VadalogError):
            stratify(program)

    def test_self_loop_marks_recursive(self):
        program = parse_program("e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).")
        strata = stratify(program)
        tc_stratum = next(s for s in strata if "tc" in s.predicates)
        assert tc_stratum.recursive


class TestWardedness:
    def test_affected_positions_propagate(self):
        program = parse_program(
            "p(X) -> r(X, Y).\nr(X, Y) -> s(Y)."
        )
        affected = affected_positions(program)
        assert ("r", 1) in affected
        assert ("s", 0) in affected
        assert ("r", 0) not in affected

    def test_harmful_and_dangerous(self):
        program = parse_program(
            "p(X) -> r(X, Y).\nr(X, Y) -> q(Y, X)."
        )
        affected = affected_positions(program)
        rule = program.rules[1]
        assert harmful_variables(rule, affected) == {Variable("Y")}
        assert dangerous_variables(rule, affected) == {Variable("Y")}

    def test_warded_program_accepted(self):
        program = parse_program(
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y)."
        )
        assert check_warded(program).is_warded

    def test_ward_is_identified(self):
        program = parse_program(
            "p(X) -> r(X, Y).\nr(X, Y), s(X, Z) -> t(Y, Z)."
        )
        report = check_warded(program)
        assert report.is_warded
        assert report.wards[1].predicate == "r"

    def test_non_warded_detected(self):
        program = parse_program(
            "p(X) -> r(X, Y).\n"
            "r(X, Y) -> q(Y, X).\n"
            "q(Y, X), r(X, Z) -> t(Y, Z)."
        )
        report = check_warded(program)
        assert not report.is_warded
        assert "no ward" in report.violations[0]

    def test_skolem_heads_are_not_affected(self):
        # Linker Skolem functors range over I, not over the nulls N, so
        # they never create affected positions (Section 4).
        program = parse_program("p(X) -> r(#mk(X), X).\nr(K, X) -> s(K).")
        assert affected_positions(program) == set()

    def test_piecewise_linear(self):
        linear = parse_program(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        )
        assert check_piecewise_linear(linear)
        nonlinear = parse_program(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), tc(Y, Z) -> tc(X, Z)."
        )
        assert not check_piecewise_linear(nonlinear)


class TestAggregatesModule:
    def test_canonicalization(self):
        assert is_monotonic("msum") and is_monotonic("count")
        assert not is_monotonic("min") and not is_monotonic("avg")

    def test_aggregate_functions(self):
        contributions = {("a",): 1, ("b",): 2, ("c",): 3}
        assert aggregate("sum", contributions) == 6
        assert aggregate("count", contributions) == 3
        assert aggregate("min", contributions) == 1
        assert aggregate("max", contributions) == 3
        assert aggregate("avg", contributions) == 2.0
        assert aggregate("prod", contributions) == 6

    def test_unknown_function(self):
        with pytest.raises(EvaluationError):
            aggregate("median", {})

    def test_accumulator_max_on_collision(self):
        accumulator = GroupAccumulator("sum")
        accumulator.contribute(("g",), ("z",), 1)
        accumulator.contribute(("g",), ("z",), 5)
        accumulator.contribute(("g",), ("w",), 2)
        assert dict(accumulator.results()) == {("g",): 7}


class _ListSource:
    def __init__(self, rows):
        self.rows = rows
        self.queries = []

    def extract(self, query):
        self.queries.append(query)
        return self.rows


class TestAnnotations:
    def test_resolve_inputs_single_source(self):
        program = parse_program('@input("own", "scan-own").\np(X) -> q(X).')
        source = _ListSource([(1, 2)])
        db = resolve_inputs(program, {"main": source})
        assert db.facts("own") == {(1, 2)}
        assert source.queries == ["scan-own"]

    def test_named_source(self):
        program = parse_program('@input("own", "q", "neo").')
        neo = _ListSource([(1,)])
        other = _ListSource([(2,)])
        db = resolve_inputs(program, {"neo": neo, "other": other})
        assert db.facts("own") == {(1,)}

    def test_ambiguous_source_rejected(self):
        program = parse_program('@input("own").')
        with pytest.raises(EvaluationError):
            resolve_inputs(program, {"a": _ListSource([]), "b": _ListSource([])})

    def test_unknown_source_rejected(self):
        program = parse_program('@input("own", "q", "ghost").')
        with pytest.raises(EvaluationError):
            resolve_inputs(program, {"real": _ListSource([])})
