"""Additional engine coverage: builtins, stats, outputs, guards."""

import pytest

from repro.errors import EvaluationError, VadalogError
from repro.vadalog import Engine, parse_program


def run(text, **inputs):
    return Engine().run(parse_program(text), inputs=inputs)


class TestBuiltins:
    @pytest.mark.parametrize("expr,value,expected", [
        ("abs(X)", -3, 3),
        ("round(X)", 2.6, 3),
        ("floor(X)", 2.7, 2),
        ("floor(X)", -2.3, -3),
        ("ceil(X)", 2.1, 3),
        ("ceil(X)", -2.7, -2),
        ("min2(X, 5)", 7, 5),
        ("max2(X, 5)", 7, 7),
        ("strlen(X)", "hello", 5),
        ("lower(X)", "ABC", "abc"),
        ("tostring(X)", 12, "12"),
        ("tonumber(X)", "2.5", 2.5),
    ])
    def test_function(self, expr, value, expected):
        result = run(f"p(X), Y = {expr} -> q(Y).", p=[(value,)])
        assert result.facts("q") == {(expected,)}

    #: One bad call per builtin (``concat`` takes any values): a wrong
    #: type, a wrong value, a zero divisor or a wrong argument count.
    @pytest.mark.parametrize("expr,value", [
        ("upper(X, X)", "a"),
        ("lower(X, X)", "a"),
        ("strlen(X, X)", "a"),
        ("abs(X)", "abc"),
        ("round(X)", "abc"),
        ("round(2.5, X)", "abc"),
        ("floor(X)", "abc"),
        ("floor(X)", float("inf")),
        ("ceil(X)", "abc"),
        ("mod(X, 0)", 1),
        ("min2(X, 1)", "a"),
        ("max2(X, 1)", "a"),
        ("tostring(X, X)", "a"),
        ("tonumber(X)", "abc"),
    ])
    def test_bad_argument_is_an_evaluation_error(self, expr, value):
        name = expr.split("(")[0]
        with pytest.raises(EvaluationError, match=rf"function error: {name}\("):
            run(f"p(X), Y = {expr} -> q(X, Y).", p=[(value,)])

    def test_string_plus_concatenates(self):
        result = run('p(X), Y = X + "!" -> q(Y).', p=[("hi",)])
        assert result.facts("q") == {("hi!",)}

    def test_modulo_builtin(self):
        # "%" is the comment marker in the concrete syntax; mod() is the
        # textual form (the BinOp "%" remains available to generated ASTs).
        result = run("p(X), Y = mod(X, 3) -> q(X, Y).", p=[(7,), (9,)])
        assert result.facts("q") == {(7, 1), (9, 0)}


class TestStatsAndOutputs:
    def test_stats_counters(self):
        result = run(
            "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).",
            e=[(1, 2), (2, 3)],
        )
        stats = result.stats
        assert stats.facts_derived == 3
        assert stats.rule_firings >= 3
        assert stats.strata >= 1
        assert stats.elapsed_seconds > 0
        assert stats.nulls_created == 0

    def test_outputs_follow_annotations(self):
        result = run(
            'p(X) -> q(X).\np(X) -> r(X).\n@output("q").',
            p=[(1,)],
        )
        assert set(result.outputs()) == {"q"}
        assert result.outputs()["q"] == {(1,)}

    def test_prod_aggregate(self):
        result = run(
            "f(G, W), V = mprod(W, <W>) -> out(G, V).",
            f=[("g", 2), ("g", 3), ("g", 4)],
        )
        assert result.facts("out") == {("g", 24)}


class TestMonotonicityGuard:
    def test_min_in_recursion_rejected(self):
        program = parse_program(
            "seed(X, W) -> best(X, W).\n"
            "best(X, W), e(X, Y), V = mmin(W, <X>) -> best(Y, V)."
        )
        with pytest.raises(VadalogError):
            Engine().run(program, inputs={"seed": [(1, 5)], "e": [(1, 2)]})

    def test_avg_in_recursion_rejected(self):
        program = parse_program(
            "seed(X, W) -> r(X, W).\n"
            "r(X, W), e(X, Y), V = avg(W, <X>) -> r(Y, V)."
        )
        with pytest.raises(VadalogError):
            Engine().run(program, inputs={"seed": [], "e": []})

    def test_min_outside_recursion_allowed(self):
        result = run(
            "val(G, W), V = min(W, <W>) -> lo(G, V).",
            val=[("g", 3), ("g", 1)],
        )
        assert result.facts("lo") == {("g", 1)}

    def test_msum_in_recursion_allowed(self):
        result = run(
            "company(X) -> c(X, X).\n"
            "c(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> c(X, Y).",
            company=[("a",)],
            own=[("a", "b", 0.9)],
        )
        assert ("a", "b") in result.facts("c")


class TestGuards:
    def test_iteration_cap(self):
        # Growing integers: never reaches a fixpoint (fresh constants).
        engine = Engine(max_iterations=10, check_wardedness=False)
        program = parse_program("n(X), Y = X + 1 -> n(Y).")
        with pytest.raises(EvaluationError):
            engine.run(program, inputs={"n": [(0,)]})

    def test_zero_iterations_ok_for_empty_input(self):
        result = run("e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).", e=[])
        assert result.facts("tc") == set()

    def test_condition_only_body_with_atom(self):
        result = run("p(X), 1 < 2 -> q(X).", p=[(1,)])
        assert result.facts("q") == {(1,)}
