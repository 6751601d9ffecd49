"""Columnar fact storage: interner/relation units, the storage-level
randomized differential against the tuple reference relation, the
52-program production-vs-interpreter battery (plus the incremental
chained-delta battery), borrowed relations, and the semantic-equality
regression for ``lookup``."""

import dataclasses
import random

import pytest

from repro.errors import EvaluationError, ResourceLimitError
from repro.finkg import programs
from repro.metalog import parse_metalog
from repro.ssst import IntensionalMaterializer, RegistryDelta
from repro.obs import RecordingTracer
from repro.vadalog import Engine, parse_program
from repro.vadalog import plan as plan_module
from repro.vadalog.columnar import ColumnarRelation, ValueInterner
from repro.vadalog.database import Database

from tests.test_engine_plans import (
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
    chases,
)
from tests.test_incremental import (
    _mutated_inputs,
    _mutation,
    _null_occurrences,
)
from tests.test_materializer import (
    kgbench_registry,
    odd_registry,
    order_sensitive_digest,
)
from tests.reference import InterpretedEngine, Relation

# ---------------------------------------------------------------------------
# Value interner
# ---------------------------------------------------------------------------


class TestValueInterner:
    def test_bool_gets_its_own_exact_code(self):
        itn = ValueInterner()
        c_one = itn.encode(1)
        c_true = itn.encode(True)
        c_float = itn.encode(1.0)
        assert c_one != c_true
        assert c_float == c_one  # 1 and 1.0 are values_equal: one code
        # ... but all three share one ==-equivalence class.
        assert itn.eq[c_one] == itn.eq[c_true]

    def test_zero_family(self):
        itn = ValueInterner()
        c_false = itn.encode(False)
        c_zero = itn.encode(0)
        assert c_false != c_zero
        assert itn.eq[c_false] == itn.eq[c_zero]
        # The 0-family and 1-family never mix.
        c_one = itn.encode(1)
        assert itn.eq[c_zero] != itn.eq[c_one]

    def test_probe_without_insert(self):
        itn = ValueInterner()
        itn.encode("a")
        assert itn.probe("a") is not None
        assert itn.probe("b") is None
        assert len(itn) == 1

    def test_probe_eq_cross_type(self):
        itn = ValueInterner()
        c_one = itn.encode(1)
        # True was never interned exactly, but its ==-class was.
        assert itn.probe(True) is None
        assert itn.probe_eq(True) == itn.eq[c_one]
        assert itn.probe_eq(2) is None

    def test_decode_is_first_seen_representative(self):
        itn = ValueInterner()
        code = itn.encode(1)
        assert itn.encode(1.0) == code
        assert itn.values[code] == 1

    def test_ordinary_values_are_distinct(self):
        itn = ValueInterner()
        codes = [itn.encode(v) for v in ("a", "b", 2, 2.5, None)]
        assert len(set(codes)) == 5
        for code in codes:
            assert itn.eq[code] == code

    def test_concurrent_misses_hand_out_one_code_per_value(self):
        """Eight threads interning overlapping values (singly and by
        column): one code per value, and a code indexes ``values`` and
        ``eq`` the moment any thread holds it."""
        import sys
        import threading

        itn = ValueInterner()
        errors = []
        results = [None] * 8

        def worker(index):
            rng = random.Random(index)
            seen = {}
            try:
                for step in range(400):
                    batch = [
                        rng.choice([f"v{rng.randrange(6000)}",
                                    rng.randrange(300), True, 1.0, None])
                        for _ in range(50)
                    ]
                    if step % 2:
                        raw = [itn._codes.get(itn._key(v)) for v in batch]
                        codes = itn.encode_fill(batch, raw)
                    else:
                        codes = [itn.encode(v) for v in batch]
                    for value, code in zip(batch, codes):
                        held = itn.values[code]
                        if held != value or (held is True) != (value is True):
                            errors.append((value, code, held))
                        if itn.eq[code] > code:
                            errors.append(("eq", value, code))
                        seen[itn._key(value)] = code
                    itn.eq_array()  # mirrors while others append
            except Exception as exc:  # a BufferError, an IndexError...
                errors.append(repr(exc))
            results[index] = seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [], errors[:3]
        merged = {}
        for seen in results:
            for key, code in seen.items():
                assert merged.setdefault(key, code) == code, key
        assert len(itn.values) == len(itn.eq) == len(itn._codes)
        assert sorted(merged.values()) == list(range(len(itn)))


# ---------------------------------------------------------------------------
# Relation facade parity + units
# ---------------------------------------------------------------------------


class TestCodeCeiling:
    """Every path that mints a code refuses one past the int32 ceiling
    instead of letting a cast wrap it."""

    @pytest.fixture()
    def full(self, monkeypatch):
        from repro.vadalog import columnar

        interner = ValueInterner()
        interner.encode_column(["a", "b"])
        monkeypatch.setattr(columnar, "CODE_CEILING", 3)
        return interner

    def test_one_value(self, full):
        assert full.encode(3.5) == 2
        with pytest.raises(ResourceLimitError, match="int32"):
            full.encode("d")
        assert full.encode("a") == 0 and len(full) == 3  # a hit mints nothing

    @pytest.mark.parametrize("column", [["c", "d"], ["c", 4.5]])
    def test_a_column(self, full, column):
        with pytest.raises(ResourceLimitError) as raised:
            full.encode_column(column)
        assert raised.value.resource == "codes" and len(full) <= 3

    def test_a_relation_insert(self, full):
        relation = ColumnarRelation("r", interner=full)
        with pytest.raises(ResourceLimitError):
            relation.add_many([(f"v{i}",) for i in range(80)])


def _both_backends():
    return [Relation("r"), ColumnarRelation("r", interner=ValueInterner())]


class TestColumnarRelationFacade:
    def test_add_dedups_like_a_python_set(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        assert rel.add((True,)) is True
        assert rel.add((1,)) is False  # == the stored (True,)
        assert rel.add((0,)) is True
        assert len(rel) == 2

    def test_contains_and_remove_are_eq_level(self):
        # Dedup/containment is ``==``-level (Python set semantics) in BOTH
        # backends; only ``lookup`` filters at values_equal granularity.
        for rel in _both_backends():
            rel.add((1, "a"))
            assert (1.0, "a") in rel
            assert (True, "a") in rel  # True == 1, set semantics
            assert rel.remove((1.0, "a")) is True
            assert len(rel) == 0

    def test_arity_enforced(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add(("a", "b"))
        with pytest.raises(Exception):
            rel.add(("a",))

    def test_lookup_key_matches_tuple_backend(self):
        facts = [("a", 1), ("a", 2), ("b", 1), ("a", 1)]
        results = []
        for rel in _both_backends():
            rel.add_many(facts)
            results.append(
                (
                    sorted(map(repr, rel.lookup_key((0,), ("a",)))),
                    sorted(map(repr, rel.lookup_key((0, 1), ("a", 1)))),
                    sorted(map(repr, rel.lookup_key((0,), ("zzz",)))),
                )
            )
        assert results[0] == results[1]

    def test_copy_is_independent(self):
        for rel in _both_backends():
            rel.add(("a", "b"))
            clone = rel.copy()
            clone.add(("c", "d"))
            assert len(rel) == 1 and len(clone) == 2
            assert sorted(clone.lookup_key((0,), ("a",))) == [("a", "b")]

    def test_reset_replaces_extension(self):
        for rel in _both_backends():
            rel.add_many([("a", "b"), ("c", "d")])
            list(rel.lookup_key((0,), ("a",)))  # force an index
            rel.reset([("x", "y")])
            assert sorted(rel) == [("x", "y")]
            assert list(rel.lookup_key((0,), ("a",))) == []

    def test_tombstones_then_compact(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(i, i + 1) for i in range(50)])
        for i in range(0, 50, 2):
            assert rel.remove((i, i + 1))
        assert len(rel) == 25
        assert rel.dead_rows
        assert sorted(rel) == [(i, i + 1) for i in range(1, 50, 2)]
        rel.compact()
        assert not rel.dead_rows
        assert len(rel) == 25
        assert sorted(rel.lookup_key((0,), (3,))) == [(3, 4)]

    def test_readd_after_remove(self):
        # The DRed passes remove and re-add the same facts repeatedly;
        # the dedup table and index buckets must stay consistent.
        rel = ColumnarRelation("p", interner=ValueInterner())
        for _ in range(3):
            assert rel.add(("a", "b")) is True
            assert sorted(rel.lookup_key((0,), ("a",))) == [("a", "b")]
            assert rel.remove(("a", "b")) is True
            assert list(rel.lookup_key((0,), ("a",))) == []
        assert len(rel) == 0


class TestUnbury:
    """DRed's old world: ``bury`` leaves a grave, ``unbury`` sets the
    row's live byte again instead of re-inserting the fact."""

    @staticmethod
    def relation():
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(f"a{i}", f"b{i % 3}", i) for i in range(9)])
        return rel

    def test_a_row_buried_before_its_indexes_were_built_is_seen_once(self):
        rel = self.relation()
        fact = ("a4", "b1", 4)
        grave = rel.bury(fact)
        assert grave is not None and fact not in rel and len(rel) == 8
        # Both indexes are built while the row is dead: neither names it.
        assert list(rel.lookup([(1, "b1")])) == [("a1", "b1", 1), ("a7", "b1", 7)]
        assert list(rel.lookup_key((0, 1), ("a4", "b1"))) == []
        rows = rel._nrows
        assert rel.unbury(grave)
        assert rel._nrows == rows and len(rel) == 9 and fact in rel
        assert list(rel).count(fact) == 1
        assert list(rel.lookup([(1, "b1")])) == [
            ("a1", "b1", 1), fact, ("a7", "b1", 7)
        ]
        assert list(rel.lookup_key((0, 1), ("a4", "b1"))) == [fact]
        assert list(rel.lookup_key((0,), ("a4",))) == [fact]  # built live
        # What a from-scratch build holds, bucket for bucket.
        for positions in ((1,), (0, 1), (0,)):
            assert _live_index(rel, positions) == _scratch_index(rel, positions)
        rel.unbury(grave)  # idempotent: the row is live
        assert list(rel).count(fact) == 1
        rel.rebury(grave)
        assert fact not in rel and len(rel) == 8
        assert list(rel.lookup_key((0, 1), ("a4", "b1"))) == []

    def test_row_order_survives_unbury_and_rebury(self):
        rel = self.relation()
        before = list(rel)
        graves = [rel.bury(fact) for fact in before[2:5]]
        assert all(rel.unbury(grave) for grave in graves)
        assert list(rel) == before and rel._nrows == 9
        for grave in graves:
            rel.rebury(grave)
        assert list(rel) == before[:2] + before[5:]
        assert rel.dead_rows == 3

    @pytest.mark.parametrize("forget", ["compact", "_rebuild_table", "reset"])
    def test_a_forgotten_row_is_refused_and_a_plain_add_takes_over(self, forget):
        rel = self.relation()
        fact = ("a4", "b1", 4)
        grave = rel.bury(fact)
        if forget == "reset":
            rel.reset([f for f in self.relation() if f != fact])
        else:
            getattr(rel, forget)()
        assert not rel.unbury(grave)
        assert fact not in rel
        assert rel.add(fact) and list(rel).count(fact) == 1
        # The new row has a grave of its own.
        assert rel.unbury(rel.bury(fact)) and fact in rel

    def test_members_of_one_eq_class_are_not_revived_into_each_other(self):
        for stored, asked in ((True, 1), (1, True), (True, 1.0), (1.0, True)):
            rel = ColumnarRelation("p", interner=ValueInterner())
            rel.add(("x", stored))
            rel._interner.encode(asked)
            assert rel.bury(("x", asked)) is None  # removed, no grave
            assert len(rel) == 0
            assert rel.add(("x", asked))
            (fact,) = rel
            assert fact[1] is asked or type(fact[1]) is type(asked)
        # 1 and 1.0 are one value to the chase (one exact code).
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add(("x", 1))
        assert rel.unbury(rel.bury(("x", 1.0)))
        assert rel.bury(("x", 2)) is None  # absent

    def test_the_tuple_backend_keeps_no_grave(self):
        rel = Relation("p")
        rel.add(("a", "b"))
        assert rel.bury(("a", "b")) is None and len(rel) == 0

    def test_a_frozen_relation_refuses(self):
        rel = self.relation()
        grave = rel.bury(("a4", "b1", 4))
        rel.freeze()
        for call in (lambda: rel.unbury(grave), lambda: rel.rebury(grave),
                     lambda: rel.bury(("a1", "b1", 1))):
            with pytest.raises(EvaluationError):
                call()


class TestLookupSemanticEquality:
    """Regression (satellite): ``lookup`` must not equate 1/1.0/True."""

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_mixed_int_float_bool(self, backend):
        rel = (
            Relation("p")
            if backend == "tuple"
            else ColumnarRelation("p", interner=ValueInterner())
        )
        rel.add_many([(1, "int"), (True, "bool"), (0, "zero"), (False, "false")])
        assert sorted(rel.lookup([(0, 1)])) == [(1, "int")]
        assert sorted(rel.lookup([(0, 1.0)])) == [(1, "int")]
        assert sorted(rel.lookup([(0, True)])) == [(True, "bool")]
        assert sorted(rel.lookup([(0, 0)])) == [(0, "zero")]
        assert sorted(rel.lookup([(0, False)])) == [(False, "false")]
        # Multi-constraint path goes through the same verification.
        assert sorted(rel.lookup([(0, 1), (1, "int")])) == [(1, "int")]
        assert list(rel.lookup([(0, 1), (1, "bool")])) == []


# ---------------------------------------------------------------------------
# Storage-level randomized differential
# ---------------------------------------------------------------------------


def _semantic_key(fact):
    """values_equal-classes of a fact (bools tagged, numerics unified)."""
    out = []
    for v in fact:
        if isinstance(v, bool):
            out.append(("B", v))
        elif isinstance(v, (int, float)):
            out.append(("N", float(v)))
        else:
            out.append(v)
    return tuple(out)


class TestRandomizedStorageDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_mutations_and_probes(self, seed):
        rng = random.Random(9000 + seed)
        tup = Relation("r")
        col = ColumnarRelation("r", interner=ValueInterner())
        vals = ["a", "b", "c", 1, 2, True, False, 0, 1.0, 2.5]
        for op in range(300):
            action = rng.random()
            fact = (rng.choice(vals), rng.choice(vals))
            if action < 0.5:
                assert tup.add(fact) == col.add(fact), (seed, op, fact)
            elif action < 0.68:
                assert tup.remove(fact) == col.remove(fact), (seed, op, fact)
            elif action < 0.72:
                col.compact()
            else:
                if action < 0.85:
                    positions, key = (rng.randrange(2),), (rng.choice(vals),)
                    positions = (positions[0],)
                    a = tup.lookup_key(positions, key)
                    b = col.lookup_key(positions, key)
                elif action < 0.95:
                    key = (rng.choice(vals), rng.choice(vals))
                    a = tup.lookup_key((0, 1), key)
                    b = col.lookup_key((0, 1), key)
                else:
                    a, b = tup, col
                left = sorted(map(repr, map(_semantic_key, a)))
                right = sorted(map(repr, map(_semantic_key, b)))
                assert left == right, (seed, op, fact)
        assert sorted(map(repr, map(_semantic_key, tup))) == sorted(
            map(repr, map(_semantic_key, col))
        )


# ---------------------------------------------------------------------------
# Engine battery: the production chase vs the interpreter, one store
# ---------------------------------------------------------------------------


def columnar_differential(text, predicates, semi_naive=True, **inputs):
    """The production chase (compiled plans over code columns) vs the
    interpreted matcher over the same store: facts equal up to nulls,
    and the run's statistics.  Firings agree too, except where a
    semi-naive run folds aggregates: the interpreter rebuilds an
    aggregate from its whole body every round."""
    program = parse_program(text)
    fast, oracle = (
        engine.run(program, inputs=inputs) for engine in chases(semi_naive)
    )
    for predicate in predicates:
        assert _canon(fast.facts(predicate)) == _canon(
            oracle.facts(predicate)
        ), predicate
    assert fast.stats.iterations == oracle.stats.iterations
    assert fast.stats.facts_derived == oracle.stats.facts_derived
    assert fast.stats.nulls_created == oracle.stats.nulls_created
    assert fast.stats.strata == oracle.stats.strata
    if not (semi_naive and any(rule.has_aggregate() for rule in program.rules)):
        assert fast.stats.rule_firings == oracle.stats.rule_firings
    return fast, oracle


class TestColumnarBattery:
    """The 52-program randomized battery: production vs the interpreter."""

    @pytest.mark.parametrize("seed", range(20))
    def test_negation_free_recursion(self, seed):
        text, predicates, inputs = _recursion_case(random.Random(1000 + seed))
        columnar_differential(text, predicates, semi_naive=bool(seed % 2), **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_monotonic_aggregates(self, seed):
        text, predicates, inputs = _aggregate_case(random.Random(2000 + seed))
        columnar_differential(text, predicates, **inputs)

    @pytest.mark.parametrize("seed", range(16))
    def test_existential_skolem(self, seed):
        text, predicates, inputs = _existential_case(random.Random(3000 + seed))
        columnar_differential(text, predicates, **inputs)

    def test_bool_int_distinction_columnar(self):
        # The storage-semantics fixture: p dedups (True,)/(1,) at ==
        # level, the join must still distinguish True from 1.
        columnar_differential(
            "p(X), q(X) -> r(X).",
            ["r"],
            p=[(True,), (1,), (0,)],
            q=[(1,), (False,)],
        )

    def test_stratified_negation_columnar(self):
        columnar_differential(
            "e(X, Y) -> reach(Y).\nnode(X), not reach(X) -> root(X).",
            ["root", "reach"],
            e=[("a", "b"), ("b", "c"), ("d", "c")],
            node=[("a",), ("b",), ("c",), ("d",)],
        )

    def test_vectorized_negation_multi_key(self):
        # Two bound positions in the negated atom: the anti-join folds
        # an FNV key and must exact-verify candidates.
        columnar_differential(
            "a(X, Y), b(Y, Z), not c(X, Z) -> d(X, Z).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4), (4, 4)],
            b=[(2, 5), (3, 6), (4, 7)],
            c=[(1, 5), (3, 3), (2, 99)],
        )

    def test_vectorized_negation_constant_and_wildcard(self):
        columnar_differential(
            "a(X, Y), not c(X, 5, _) -> d(X, Y).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4)],
            c=[(1, 5, "w"), (2, 6, "w"), (9, 5, "w")],
        )

    def test_vectorized_negation_bound_var_repeat(self):
        # The same bound variable at two positions of the negated atom
        # (safety rejects *free* repeats, so both slots join the key).
        columnar_differential(
            "a(X, Y), not c(X, X) -> d(X, Y).",
            ["d"],
            a=[(1, 2), (2, 3), (3, 4), (1.0, 9)],
            c=[(1, 1), (2, 3), (3, 3.0)],
        )

    def test_vectorized_negation_mixed_types_and_nan(self):
        nan = float("nan")
        columnar_differential(
            "p(X), not q(X) -> r(X).",
            ["r"],
            p=[(True,), (1,), (0,), (nan,), ("s",)],
            q=[(1.0,), (False,), (nan,)],
        )


# ---------------------------------------------------------------------------
# Incremental chained-delta battery in columnar mode
# ---------------------------------------------------------------------------


def columnar_delta_differential(text, predicates, inputs, rng, kind):
    """Chained deltas: the retained state vs a from-scratch run of the
    interpreter, after each of two updates."""
    program = parse_program(text)
    engine = Engine()
    col = engine.run(program, inputs=inputs, retain_state=True)
    templates = {
        p: sorted(facts, key=repr)[0] for p, facts in inputs.items() if facts
    }
    current = inputs
    for round_no in range(2):
        added, removed = _mutation(rng, current, templates, kind)
        engine.apply_delta(col, added=added, removed=removed)
        current = _mutated_inputs(current, added, removed)
        oracle = InterpretedEngine().run(program, inputs=current)
        for predicate in predicates:
            assert _canon(col.facts(predicate)) == _canon(oracle.facts(predicate)), (
                f"delta vs oracle mismatch on {predicate} (round {round_no})"
            )
        assert _null_occurrences(col, predicates) == (
            _null_occurrences(oracle, predicates)
        ), f"the null renaming is not injective (round {round_no})"


KINDS = ("insert", "delete", "mixed")


class TestColumnarIncrementalBattery:
    @pytest.mark.parametrize("seed", range(9))
    def test_recursion_deltas(self, seed):
        rng = random.Random(5000 + seed)
        text, predicates, inputs = _recursion_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_aggregate_deltas(self, seed):
        rng = random.Random(6000 + seed)
        text, predicates, inputs = _aggregate_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_existential_deltas(self, seed):
        rng = random.Random(7000 + seed)
        text, predicates, inputs = _existential_case(rng)
        columnar_delta_differential(text, predicates, inputs, rng, KINDS[seed % 3])


# ---------------------------------------------------------------------------
# Borrowed relations
# ---------------------------------------------------------------------------


class TestBorrowedRelations:
    def test_a_layer_never_compacts_what_it_borrows(self):
        from repro.vadalog.magic import GoalDirectedEvaluator

        text = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        edges = [(f"n{i}", f"n{i + 1}") for i in range(200)]
        shared = Database()
        shared.add_all("e", edges + [("dead", "row")])
        shared.remove("e", ("dead", "row"))  # a tombstone to compact away
        relation = shared.relation("e")
        version = relation._version
        evaluator = GoalDirectedEvaluator(parse_program(text))
        for ask in (evaluator.answer, evaluator.full_answer):
            answer = ask('tc("n190", Y)?', database=shared)
            assert len(answer.facts) == 10
        layer = shared.layer({"tc"})
        built = relation._indexes
        layer.compact()
        layer.release(["e"])
        assert relation.dead_rows and relation._indexes is built
        assert relation._version == version
        assert shared.relation("e") is relation and shared.count("tc") == 0
        # Frozen, it is shared the same way and refuses the write paths.
        relation.freeze()
        assert len(evaluator.answer('tc("n190", Y)?', database=shared).facts) == 10
        with pytest.raises(EvaluationError):
            shared.add("e", ("late", "row"))
        # ``inputs=`` for a shared predicate land in a private copy.
        extended = evaluator.answer(
            'tc("n190", Y)?', database=shared, inputs={"e": [("n200", "z")]}
        )
        assert len(extended.facts) == 11 and len(relation) == 200


# ---------------------------------------------------------------------------
# Copies that share structure: copy-on-write overlay, carried indexes
# ---------------------------------------------------------------------------


def _live_index(relation, positions):
    """``relation``'s index over ``positions`` as it stands, restricted
    to live rows (a carried index may name tombstoned ones)."""
    single = len(positions) == 1
    index = (
        relation._indexes[positions[0]] if single
        else relation._composite[positions]
    )
    live = relation._live
    kept = {key: [r for r in rows if live[r]] for key, rows in index.items()}
    return {key: rows for key, rows in kept.items() if rows}


def _scratch_index(relation, positions):
    return relation._build_index(positions, tuple_keys=len(positions) > 1)


def _index_contents(relation):
    """Every built index of ``relation``, buckets as tuples."""
    return {
        shape: {key: tuple(rows) for key, rows in index.items()}
        for store in (relation._indexes, relation._composite)
        for shape, index in store.items()
    }


class TestSharedStructureCopies:
    def test_copy_never_sees_a_later_overlay_row(self, monkeypatch):
        from repro.vadalog import columnar

        # Every row hashes alike: one overlay bucket holds them all.
        monkeypatch.setattr(columnar, "_FNV_PRIME", 0)
        rel = ColumnarRelation("p", interner=ValueInterner())
        for i in range(3):
            rel.add((f"a{i}", i))
        assert len(rel._overlay) == 1
        clone = rel.copy()
        bucket = next(iter(clone._overlay.values()))
        rel.add(("late", 9))  # collides into the bucket the copy shares
        assert ("late", 9) in rel and ("late", 9) not in clone
        assert clone._find(0, clone._probe_eqrow(("late", 9))) == -1
        assert bucket == [0, 1, 2] and sorted(clone) == sorted(
            (f"a{i}", i) for i in range(3)
        )
        # Remove + re-add on the original: the copy keeps its own row,
        # a copy cut in between never sees the re-added one.
        rel.remove(("a1", 1))
        between = rel.copy()
        rel.add(("a1", 1))
        assert ("a1", 1) in rel and ("a1", 1) in clone
        assert ("a1", 1) not in between
        assert between._find(0, between._probe_eqrow(("a1", 1))) == -1
        with pytest.raises(EvaluationError):
            between.freeze().add(("a1", 1))

    def test_copy_never_sees_a_later_bulk_row(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(i, i + 1) for i in range(5000)])
        rel.add_many([(i, -i) for i in range(100)])  # lands in the overlay
        assert rel._overlay_count == 100
        clone = rel.copy()
        shared = dict(clone._overlay)
        rel.add_many([(i, -i - 1) for i in range(100)])
        assert rel._overlay_count == 200 and clone._overlay_count == 100
        assert clone._overlay == shared and len(clone) == 5100
        assert (7, -8) in rel and (7, -8) not in clone and (7, -7) in clone

    def test_copy_walks_no_overlay_bucket(self):
        import sys

        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(i, i + 1) for i in range(5000)])
        for i in range(800):
            rel.add((i, -i))
        assert len(rel._overlay) >= 700
        events = []

        def count(frame, event, arg):
            events.append(event)
            return count

        sys.settrace(count)
        try:
            clone = rel.copy()
        finally:
            sys.settrace(None)
        # Lines run are a count, not a time: a Python loop over the
        # overlay runs one or more per bucket (each jump back is one).
        assert len(events) < 100, len(events)
        assert clone._overlay == rel._overlay and sorted(clone) == sorted(rel)

    def test_carry_reads_the_older_view_in_one_step(self):
        """A reader may publish a lazily built position into the older
        view's index dict while the writer hands its indexes on."""
        from array import array

        from repro.vadalog.columnar import carry_indexes

        source, target = {}, {}

        class Published(dict):
            def __iter__(self):  # takes ``dict(index)`` off its C fast path
                return super().__iter__()

            def keys(self):  # runs inside ``dict(index)``, mid-carry
                source[1] = {7: [0]}
                return super().keys()

        source[0] = Published({5: [0]})
        cols = [array("i", [5, 5]), array("i", [7, 7])]
        assert carry_indexes(source, target, cols, array("i", range(8)), 1, 2) == 1
        assert target == {0: {5: [0, 1]}} and source[0] == {5: [0]}

    @pytest.mark.parametrize("seed", range(4))
    def test_carried_indexes_equal_indexes_built_from_scratch(self, seed):
        """A chain of frozen copies of one live relation, each taking its
        predecessor's indexes along: restricted to live rows a carried
        index is the one built from scratch, the predecessor's is left
        as it was, and whatever renumbers the rows breaks the chain."""
        rng = random.Random(seed)
        db = Database()
        live = db.relation("own")
        # Past 4096 rows: the vectorized build is the reference.
        live.add_many([
            (f"c{rng.randrange(900)}", f"c{i}", rng.random())
            for i in range(4500)
        ])
        shapes = [(0,), (1,), (0, 1)]
        previous = live.copy().freeze()
        carried_total = 0
        removed = []
        for step in range(40):
            for positions in shapes:
                if rng.random() < 0.4:  # a first reader of ``previous``
                    list(previous.lookup_key(
                        positions, tuple("c1" for _ in positions)
                    ))
            kind = rng.choice(["add", "add", "remove", "readd", "compact"])
            renumbered = False
            if kind == "add":
                for _ in range(rng.randrange(1, 4)):
                    live.add((f"c{rng.randrange(900)}", f"n{step}", rng.random()))
            elif kind == "remove":
                fact = rng.choice(list(live))
                assert live.remove(fact)
                removed.append(fact)
            elif kind == "readd" and removed:
                live.add(removed.pop())
            elif kind == "compact":
                renumbered = bool(live.dead_rows)
                live.compact()
            before = _index_contents(previous)
            held = (dict(previous._indexes), dict(previous._composite))
            clone = live.copy()
            carried = clone.carry_indexes(previous)
            clone.freeze()
            if renumbered:
                assert carried == 0 and not clone._indexes and not clone._composite
            else:
                assert carried == len(held[0]) + len(held[1])
                carried_total += carried
            for positions in shapes:
                built = (
                    positions[0] in clone._indexes if len(positions) == 1
                    else positions in clone._composite
                )
                if built:
                    assert _live_index(clone, positions) == _scratch_index(
                        clone, positions
                    ), (step, kind, positions)
            # The predecessor — a published view — is as it was.
            assert _index_contents(previous) == before
            for old, now in zip(held, (previous._indexes, previous._composite)):
                assert all(now[key] is index for key, index in old.items())
            if step % 8 == 0:
                assert sorted(clone, key=repr) == sorted(live, key=repr)
            previous = clone
        assert carried_total > 0


class TestRowTableMerge:
    """A bulk insert merges its rows (and the overlay's) into the sorted
    row table: the table a from-scratch ``_rebuild_table`` gives, live
    rows sorted by hash, ties in row order."""

    @staticmethod
    def checked(monkeypatch):
        """Hold every merge against a rebuild of a copy; count them."""
        merges = []
        real = ColumnarRelation._merge_table

        def merge(self):
            real(self)
            scratch = self.copy()
            scratch._rebuild_table()
            assert self._ht_sorted == scratch._ht_sorted
            assert self._ht_sorted_rows == scratch._ht_sorted_rows
            assert not self._overlay and not self._overlay_count
            merges.append(len(self._ht_sorted))

        monkeypatch.setattr(ColumnarRelation, "_merge_table", merge)
        return merges

    @pytest.mark.parametrize("collide", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_inserts_removals_and_overlay(
        self, monkeypatch, collide, seed
    ):
        from repro.vadalog import columnar

        if collide:  # every row hashes alike: ties decide the order
            monkeypatch.setattr(columnar, "_FNV_PRIME", 0)
        merges = self.checked(monkeypatch)
        rng = random.Random(seed)
        small, big = (40, 300) if collide else (400, 3000)
        rel = ColumnarRelation("p", interner=ValueInterner())
        oracle = set()
        for _step in range(14):
            kind = rng.random()
            if kind < 0.35:  # bulk, on both sides of the overlay limit
                size = rng.choice([64, 100, small, big])
                batch = [
                    (f"v{rng.randrange(4 * big)}", rng.choice([1, 1.0, True, 2]))
                    for _ in range(size)
                ]
                rel.add_many(batch)
                oracle.update(batch)
            elif kind < 0.6:  # per fact, enough to fill the overlay
                for _ in range(rng.choice([5, small])):
                    fact = (f"v{rng.randrange(4 * big)}", rng.randrange(3))
                    rel.add(fact)
                    oracle.add(fact)
            else:  # dead rows, some added back
                gone = rng.sample(sorted(oracle, key=repr), min(len(oracle), small // 2))
                for fact in gone:
                    assert rel.remove(fact)
                    oracle.discard(fact)
                for fact in gone[::3]:
                    rel.add(fact)
                    oracle.add(fact)
        assert merges and set(rel) == oracle and len(rel) == len(oracle)
        # The overlay left over files only rows since the last merge.
        assert sorted(
            row for bucket in rel._overlay.values() for row in bucket
        ) == list(range(rel._nrows - rel._overlay_count, rel._nrows))

    def test_a_grave_before_a_big_bulk_insert_is_void_after_it(self):
        rel = ColumnarRelation("p", interner=ValueInterner())
        rel.add_many([(f"a{i}", i) for i in range(3000)])
        grave = rel.bury(("a7", 7))
        rel.add_many([(f"b{i}", i) for i in range(100)])  # the overlay
        assert rel.unbury(grave)
        grave = rel.bury(("a7", 7))
        rel.add_many([(f"c{i}", i) for i in range(2000)])  # a merge
        assert not rel.unbury(grave)
        assert ("a7", 7) not in rel and len(rel) == 5099
        assert rel.add(("a7", 7)) and list(rel).count(("a7", 7)) == 1

    def test_materialize_never_rebuilds_a_row_table(
        self, monkeypatch, company_schema
    ):
        from repro.finkg import programs
        from repro.metalog import parse_metalog
        from repro.ssst.materializer import IntensionalMaterializer
        from tests.test_materializer import kgbench_registry

        _data, registry = kgbench_registry(200, 42)
        rebuilds = []
        real = ColumnarRelation._rebuild_table
        monkeypatch.setattr(
            ColumnarRelation, "_rebuild_table",
            lambda self: (rebuilds.append(self.name), real(self))[1],
        )
        report = IntensionalMaterializer().materialize(
            company_schema, registry,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        assert report.instance.data.edge_count > registry.edge_count
        assert rebuilds == []


# ---------------------------------------------------------------------------
# Columnar firing vs per-match firing: the same run, bit for bit
# ---------------------------------------------------------------------------


def _kept_state(state):
    """A retained state's aggregate buckets and witnesses, and the nulls
    its factory filed, in insertion order (``repr`` keeps NaN equal to
    itself and ``1`` apart from ``1.0`` and ``True``)."""
    if state is None:
        return None
    return repr((
        [
            (str(rule), kept.accumulator.state(), kept.witnesses)
            for rule, kept in state.aggregates.items()
        ],
        state.nulls.minted,
    ))


def _stats(stats):
    observed = dataclasses.asdict(stats)
    del observed["elapsed_seconds"], observed["columnar_firings"]
    return observed


def _chase_outcome(run):
    """Every relation in row order (nulls by number), the statistics and
    the retained state of one run — or the error it raised."""
    try:
        result = run()
    except EvaluationError as exc:
        stats = getattr(exc, "stats", None)
        return ("raised", type(exc).__name__, str(exc),
                getattr(exc, "resource", None), getattr(exc, "limit", None),
                None if stats is None else _stats(stats))
    db = result.database
    return (
        {p: repr(list(db.relation(p))) for p in sorted(db.predicates())},
        _stats(result.stats),
        _kept_state(result.state),
    ), result.stats


def _per_match(patch):
    """Force every rule onto the per-match chase step."""
    patch.setattr(
        plan_module.RulePlans, "columns",
        lambda plans, db, delta, state=None: None,
    )


def firing_differential(monkeypatch, text, inputs, **engine_options):
    """Columnar firing — at the production threshold and with every
    delta on columns — against per-match firing, fresh and retained.
    Returns the statistics of the runs with every delta on columns."""
    program = parse_program(text)
    observed = {}
    for mode in ("columns", "every-delta", "matches"):
        with monkeypatch.context() as patch:
            if mode == "every-delta":
                patch.setattr(plan_module, "COLUMNAR_MIN_BASES", 1)
            if mode == "matches":
                _per_match(patch)
            for retain in (False, True):
                observed[mode, retain] = _chase_outcome(
                    lambda: Engine(**engine_options).run(
                        program, inputs=inputs, retain_state=retain
                    )
                )
    stats = []
    for retain in (False, True):
        expected = observed["matches", retain]
        for mode in ("columns", "every-delta"):
            outcome = observed[mode, retain]
            if expected[0] == "raised":
                assert outcome == expected, (mode, retain)
            else:
                assert outcome[0] == expected[0], (mode, retain)
                if mode == "every-delta":
                    stats.append(outcome[1])
    return stats


def _odd_triples(rng, count):
    nodes = ["a", "b", "c", 1, 1.0, True, float("nan")]
    weights = [0.2, 0.3, 0.6, 1, 1.0, float("nan")]
    return [
        (rng.choice(nodes), rng.choice(nodes), rng.choice(weights))
        for _ in range(count)
    ]


class TestColumnarFiringBattery:
    """One engine, two chase steps: firing on code columns must give the
    per-match step's relations row for row, its null numbers, its
    aggregate buckets, witnesses and filed nulls, and its errors."""

    @pytest.mark.parametrize("seed", range(20))
    def test_negation_free_recursion(self, monkeypatch, seed):
        text, _predicates, inputs = _recursion_case(random.Random(1000 + seed))
        for stats in firing_differential(monkeypatch, text, inputs):
            if "tc(X, Y), tc(Y, Z)" in text:  # two atoms read each delta
                assert 0 < stats.columnar_firings < stats.rule_firings
            else:
                assert stats.columnar_firings == stats.rule_firings

    @pytest.mark.parametrize("seed", range(16))
    def test_monotonic_aggregates(self, monkeypatch, seed):
        text, _predicates, inputs = _aggregate_case(random.Random(2000 + seed))
        for stats in firing_differential(monkeypatch, text, inputs):
            assert stats.columnar_firings == stats.rule_firings

    @pytest.mark.parametrize("seed", range(16))
    def test_existential_skolem(self, monkeypatch, seed):
        text, _predicates, inputs = _existential_case(random.Random(3000 + seed))
        for stats in firing_differential(monkeypatch, text, inputs):
            if "#" in text:  # a Skolem head fires per match
                assert stats.columnar_firings < stats.rule_firings
            else:
                assert stats.columnar_firings == stats.rule_firings

    @pytest.mark.parametrize("function", ["msum", "mmin", "mmax", "mcount"])
    @pytest.mark.parametrize("seed", range(3))
    def test_odd_groups_contributors_and_values(self, monkeypatch, function, seed):
        """``1`` / ``1.0`` / ``True`` share one group or contributor
        (Python equality) while joins keep ``True`` apart; NaN joins
        nothing; colliding contributors keep the larger value, the
        smaller for ``mmin``."""
        rng = random.Random(seed)
        inputs = {
            "own": _odd_triples(rng, 40),
            "company": [(v,) for v in ("a", "b", "c", 1, True, float("nan"))],
        }
        firing_differential(monkeypatch, (
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> controls(X, Y).\n"
            f"own(Z, Y, W), V = {function}(W, <Y>) -> total(Z, V).\n"
            f"controls(X, Z), own(Z, Y, W), V = {function}(W, <Z>) -> by(X, V)."
        ), inputs)

    def test_colliding_contributors(self, monkeypatch):
        inputs = {"own": [("z", "y", 0.3), ("z", "y", 0.5), ("q", "y", 0.1)]}
        for function in ("msum", "mmin"):
            firing_differential(
                monkeypatch,
                f"own(Z, Y, W), V = {function}(W, <Z>) -> total(Y, V).",
                inputs,
            )
        total = lambda function: set(Engine().run(parse_program(
            f"own(Z, Y, W), V = {function}(W, <Z>) -> total(Y, V)."
        ), inputs=inputs).facts("total"))
        assert total("msum") == {("y", 0.6)}
        assert total("mmin") == {("y", 0.1)}

    def test_existential_rounds_with_odd_values(self, monkeypatch):
        rng = random.Random(7)
        inputs = {
            "own": _odd_triples(rng, 60),
            "company": [(v,) for v in ("a", "b", "c", 1, True, float("nan"))],
        }
        stats = firing_differential(monkeypatch, (
            "company(X) -> c(C, X, X).\n"
            "c(C0, X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> c(C, X, Y)."
        ), inputs)
        assert all(s.columnar_firings == s.rule_firings > 0 for s in stats)

    def test_the_rule_span_names_the_path(self):
        tracer = RecordingTracer()
        result = Engine(tracer=tracer).run(
            parse_program("p(X) -> q(X).\np(X) -> s(#f(X))."),
            inputs={"p": [(1,), (2,)]},
        )
        paths = {
            span.attrs["rule"]: (span.attrs["path"], span.attrs["firings"])
            for span in tracer.find_spans("engine.rule")
        }
        assert sorted(paths.values()) == [("columns", 2), ("matches", 2)]
        assert result.stats.columnar_firings == 2
        assert result.stats.rule_firings == 4

    def test_a_delta_fact_keeps_its_own_value(self, monkeypatch):
        """``r(c, 2.0)`` is stored under the code of ``2`` (an input):
        the next round's bucket must hold the ``2.0`` the delta fact
        carries, as the per-match path binds it, not the code's ``2``."""
        stats = firing_differential(monkeypatch, (
            "s(X, W) -> r(X, W).\n"
            "r(X, W), f(X, Y), V = msum(W, <X>) -> r(Y, V)."
        ), {
            "z": [(2,)],
            "s": [("a", 1.5), ("b", 0.5)],
            "f": [("a", "c"), ("b", "c"), ("c", "d")],
        })
        assert all(s.columnar_firings == s.rule_firings for s in stats)

    def test_mprod_below_one_in_recursion_raises(self, monkeypatch):
        inputs = {
            "company": [(c,) for c in "abcdefghijklmnopqrst"],
            "own": [(a, b, 0.9) for a, b in zip("abcdefghijklmnopqrs", "bcdefghijklmnopqrst")],
        }
        with pytest.raises(EvaluationError, match="mprod"):
            Engine().run(parse_program(
                "company(X) -> controls(X, X).\n"
                "controls(X, Z), own(Z, Y, W), V = mprod(W, <Z>), V > 0.5"
                " -> controls(X, Y)."
            ), inputs=inputs)
        firing_differential(monkeypatch, (
            "company(X) -> controls(X, X).\n"
            "controls(X, Z), own(Z, Y, W), V = mprod(W, <Z>), V > 0.5"
            " -> controls(X, Y)."
        ), inputs)

    def test_null_budget_one_below_the_need(self, monkeypatch):
        text = (
            "company(X) -> c(C, X, X).\n"
            "c(C0, X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
            " -> c(C, X, Y)."
        )
        companies = [f"n{i}" for i in range(30)]
        inputs = {
            "company": [(c,) for c in companies],
            "own": [(a, b, 0.6) for a, b in zip(companies, companies[1:])],
        }
        need = Engine().run(parse_program(text), inputs=inputs).stats.nulls_created
        for budget in (need - 1, 29, 0):
            with pytest.raises(ResourceLimitError) as raised:
                Engine(max_nulls=budget).run(parse_program(text), inputs=inputs)
            assert raised.value.resource == "nulls"
            firing_differential(monkeypatch, text, inputs, max_nulls=budget)
        firing_differential(monkeypatch, text, inputs, max_nulls=need)


def _materialize_outcome(schema, data, program, retain):
    materializer = IntensionalMaterializer()
    report = materializer.materialize(
        schema, data.copy(), parse_metalog(program), 9, retain=retain,
    )
    kept = materializer.retained.result.state if retain else None
    return (
        order_sensitive_digest(report.instance.data),
        _stats(report.reason_stats),
        _kept_state(kept),
    ), report.reason_stats


class TestColumnarFiringOnThePaperPrograms:
    """Algorithm 2 with the paper's programs, both chase steps."""

    @pytest.mark.parametrize("program", [
        "CONTROL_PROGRAM", "PERSON_CONTROL_PROGRAM", "STAKEHOLDERS_PROGRAM",
        "FAMILY_PROGRAM", "GROUP_PROGRAM",
    ])
    def test_columns_equal_matches(self, company_schema, monkeypatch, program):
        _businesses, registry = odd_registry(0)
        if program == "GROUP_PROGRAM":
            registry = IntensionalMaterializer().materialize(
                company_schema, registry,
                parse_metalog(programs.CONTROL_PROGRAM), 9,
            ).instance.data
        text = getattr(programs, program)
        for retain in (False, True):
            outcomes = {}
            for mode in ("columns", "every-delta", "matches"):
                with monkeypatch.context() as patch:
                    if mode == "every-delta":
                        patch.setattr(plan_module, "COLUMNAR_MIN_BASES", 1)
                    if mode == "matches":
                        _per_match(patch)
                    outcomes[mode] = _materialize_outcome(
                        company_schema, registry, text, retain
                    )
            expected, oracle = outcomes["matches"]
            assert outcomes["columns"][0] == expected
            assert outcomes["every-delta"][0] == expected
            assert oracle.columnar_firings == 0
            stats = outcomes["every-delta"][1]
            if program == "GROUP_PROGRAM":  # a Skolem head
                assert stats.columnar_firings == 0 < stats.rule_firings
            elif program == "FAMILY_PROGRAM":  # + a condition, a Skolem head
                assert 0 < stats.columnar_firings < stats.rule_firings
            else:
                assert stats.columnar_firings == stats.rule_firings > 0

    def test_an_update_fires_per_match(self, company_schema):
        """A fresh control materialization fires on columns only; a
        one-stake update's firings are per match."""
        data, registry = kgbench_registry(200, 42)
        materializer = IntensionalMaterializer()
        report = materializer.materialize(
            company_schema, registry, parse_metalog(programs.CONTROL_PROGRAM),
            9, retain=True,
        )
        stats = report.reason_stats
        assert stats.columnar_firings == stats.rule_firings > 0
        stats = materializer.retained.result.stats
        before = dataclasses.replace(stats)
        owner, target = data.companies[0], data.companies[-1]
        materializer.update(RegistryDelta(add_edges=[
            ("x1", owner, target, "OWNS", {"percentage": 0.9}),
        ]))
        assert stats.rule_firings > before.rule_firings
        assert stats.columnar_firings == before.columnar_firings


class TestNonNumericContribution:
    """A contribution an aggregate cannot fold is an EvaluationError that
    names the function, the group and the value — on every path."""

    TEXT = "own(X, Y, W), V = msum(W, <X>) -> total(Y, V)."

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("bad", [None, "ten"])
    def test_fresh_run(self, use_plans, bad):
        inputs = {"own": [("a", "y", 0.5)] + [(f"n{i}", "y", bad) for i in range(20)]}
        message = rf"msum over group \('y',\): contribution {bad!r} is not a number"
        with pytest.raises(EvaluationError, match=message):
            engine = Engine() if use_plans else InterpretedEngine()
            engine.run(parse_program(self.TEXT), inputs=inputs)

    def test_per_match_path(self, monkeypatch):
        _per_match(monkeypatch)
        with pytest.raises(EvaluationError, match="contribution None is not a number"):
            Engine().run(parse_program(self.TEXT), inputs={"own": [("a", "y", None)]})

    @pytest.mark.parametrize("use_plans", [True, False])
    def test_apply_delta(self, use_plans):
        engine = Engine() if use_plans else InterpretedEngine()
        result = engine.run(
            parse_program(self.TEXT), inputs={"own": [("a", "y", 0.5)]},
            retain_state=True,
        )
        message = r"msum over group \('y',\): contribution 'x' is not a number"
        with pytest.raises(EvaluationError, match=message):
            engine.apply_delta(result, added={"own": [("b", "y", "x")]})

    def test_registry_stake_without_percentage(self, company_schema, owns_instance):
        owns_instance.add_edge("B2", "B1", "OWNS")
        message = "msum over group .*contribution None is not a number"
        with pytest.raises(EvaluationError, match=message):
            IntensionalMaterializer().materialize(
                company_schema, owns_instance,
                parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            )
