"""Columnar fact storage: interner/relation units, the storage-level
randomized differential, the 52-program columnar-vs-tuple battery (plus
the incremental chained-delta battery), spill-to-disk, and the
semantic-equality regression for ``Relation.lookup``."""

import random

import pytest

from repro.errors import EvaluationError
from repro.obs import RecordingTracer, ResourceGovernor
from repro.vadalog import Engine, parse_program
from repro.vadalog.columnar import ColumnarRelation, SpillStore, ValueInterner
from repro.vadalog.database import Database, Relation

from tests.test_engine_plans import (
    _aggregate_case,
    _canon,
    _existential_case,
    _recursion_case,
)
from tests.test_incremental import (
    _mutated_inputs,
    _mutation,
    _null_occurrences,
)

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
        assert rel.has_dead_rows
        assert sorted(rel) == [(i, i + 1) for i in range(1, 50, 2)]
        rel.compact()
        assert not rel.has_dead_rows
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
# Engine battery: columnar vs tuple backend, bit-identical facts + stats
# ---------------------------------------------------------------------------


def columnar_differential(text, predicates, semi_naive=True, **inputs):
    """Columnar batch execution vs the tuple-at-a-time oracle."""
    program = parse_program(text)
    fast = Engine(semi_naive=semi_naive, columnar=True).run(program, inputs=inputs)
    oracle = Engine(semi_naive=semi_naive, columnar=False).run(program, inputs=inputs)
    assert fast.database.columnar
    assert not oracle.database.columnar
    for predicate in predicates:
        assert _canon(fast.facts(predicate)) == _canon(
            oracle.facts(predicate)
        ), predicate
    assert fast.stats.iterations == oracle.stats.iterations
    assert fast.stats.rule_firings == oracle.stats.rule_firings
    assert fast.stats.facts_derived == oracle.stats.facts_derived
    assert fast.stats.nulls_created == oracle.stats.nulls_created
    assert fast.stats.strata == oracle.stats.strata
    return fast, oracle


class TestColumnarBattery:
    """The 52-program randomized battery, columnar vs tuple backend."""

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
    """Chained deltas: columnar retained state vs tuple retained state vs
    a from-scratch tuple oracle, after each of two updates."""
    program = parse_program(text)
    col_engine = Engine(columnar=True)
    tup_engine = Engine(columnar=False)
    col = col_engine.run(program, inputs=inputs, retain_state=True)
    tup = tup_engine.run(program, inputs=inputs, retain_state=True)
    templates = {
        p: sorted(facts, key=repr)[0] for p, facts in inputs.items() if facts
    }
    current = inputs
    for round_no in range(2):
        added, removed = _mutation(rng, current, templates, kind)
        col_engine.apply_delta(col, added=added, removed=removed)
        tup_engine.apply_delta(tup, added=added, removed=removed)
        current = _mutated_inputs(current, added, removed)
        oracle = Engine(use_plans=False, columnar=False).run(
            program, inputs=current
        )
        for predicate in predicates:
            canon_col = _canon(col.facts(predicate))
            assert canon_col == _canon(tup.facts(predicate)), (
                f"columnar vs tuple delta mismatch on {predicate} "
                f"(round {round_no})"
            )
            assert canon_col == _canon(oracle.facts(predicate)), (
                f"columnar delta vs oracle mismatch on {predicate} "
                f"(round {round_no})"
            )
        for retained in (col, tup):
            assert _null_occurrences(retained, predicates) == (
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
# Backend conversion + spill-to-disk
# ---------------------------------------------------------------------------


class TestBackendConversion:
    def test_round_trip_preserves_facts(self):
        db = Database()
        db.add_all("e", [("a", "b"), ("b", "c"), (1, 2.5)])
        db.add_all("p", [(True,), (0,)])
        col = db.to_backend(True)
        back = col.to_backend(False)
        for predicate in ("e", "p"):
            assert db.facts(predicate) == col.facts(predicate)
            assert db.facts(predicate) == back.facts(predicate)

    def test_engine_converts_mismatched_database(self):
        db = Database()  # tuple backend
        db.add_all("e", [("a", "b"), ("b", "c")])
        program = parse_program("e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).")
        result = Engine(columnar=True).run(program, database=db)
        assert result.database.columnar
        assert not db.columnar  # the input is untouched
        assert ("a", "c") in result.facts("tc")


class TestSpill:
    def test_spill_and_rehydrate_round_trip(self):
        db = Database(columnar=True)
        facts = [(f"n{i}", f"n{i + 1}", float(i)) for i in range(500)]
        db.add_all("e", facts)
        spilled = db.spill_over_budget(0)
        assert spilled == ["e"]
        assert db.total_resident_facts() == 0
        assert db.count("e") == 500  # len() needs no rehydration
        # Any access rehydrates transparently.
        assert sorted(db.relation("e").lookup_key((0,), ("n7",))) == [
            ("n7", "n8", 7.0)
        ]
        assert db.total_resident_facts() == 500
        db.close()

    def test_keep_set_is_never_spilled(self):
        db = Database(columnar=True)
        db.add_all("big", [(i,) for i in range(100)])
        db.add_all("hot", [(i,) for i in range(50)])
        spilled = db.spill_over_budget(0, keep=["hot"])
        assert spilled == ["big"]
        assert not db.relation("hot").spilled
        db.close()

    def test_budget_spills_largest_first_until_under(self):
        db = Database(columnar=True)
        db.add_all("a", [(i,) for i in range(100)])
        db.add_all("b", [(i,) for i in range(10)])
        spilled = db.spill_over_budget(50)
        assert spilled == ["a"]
        assert db.total_resident_facts() == 10
        db.close()

    def test_tuple_backend_is_a_noop(self):
        db = Database()
        db.add_all("a", [(i,) for i in range(100)])
        assert db.spill_over_budget(0) == []

    def test_governor_driven_spill_during_run(self):
        edges = [(f"n{i}", f"n{(i * 7 + 3) % 40}") for i in range(40)]
        text = (
            "e(X, Y) -> tc(X, Y).\n"
            "tc(X, Y), e(Y, Z) -> tc(X, Z).\n"
            "tc(X, Y) -> reach(Y).\n"
        )
        program = parse_program(text)
        tracer = RecordingTracer()
        governor = ResourceGovernor(max_resident_facts=10)
        spilling = Engine(governor=governor, tracer=tracer).run(
            program, inputs={"e": edges}
        )
        plain = Engine(columnar=False).run(program, inputs={"e": edges})
        assert spilling.status == "fixpoint"
        for predicate in ("tc", "reach"):
            assert spilling.facts(predicate) == plain.facts(predicate)
        events = [
            e for e in tracer.events if e.get("name") == "engine.spilled"
        ]
        assert events, "expected at least one spill event"
        spilling.database.close()

    def test_a_layer_never_compacts_or_spills_what_it_borrows(self):
        from repro.vadalog.magic import GoalDirectedEvaluator

        text = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
        edges = [(f"n{i}", f"n{i + 1}") for i in range(200)]
        shared = Database(columnar=True)
        shared.add_all("e", edges + [("dead", "row")])
        shared.remove("e", ("dead", "row"))  # a tombstone to compact away
        relation = shared.relation("e")
        version = relation._version
        evaluator = GoalDirectedEvaluator(parse_program(text))
        for ask in (evaluator.answer, evaluator.full_answer):
            answer = ask(
                'tc("n190", Y)?', database=shared,
                governor=ResourceGovernor(max_resident_facts=10),
            )
            assert len(answer.facts) == 10
        assert not relation.spilled and relation.has_dead_rows
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

    def test_spill_store_page_round_trip(self):
        store = SpillStore()
        cols = [list(range(20000)), [i * 3 for i in range(20000)]]
        store.write("r", 2, cols)
        assert [list(col) for col in store.read("r", 2)] == cols
        store.close()


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
    live = relation.live_rows
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
        db = Database(columnar=True)
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
            kind = rng.choice(["add", "add", "remove", "readd", "compact", "spill"])
            renumbered = False
            if kind == "add":
                for _ in range(rng.randrange(1, 4)):
                    live.add((f"c{rng.randrange(900)}", f"n{step}", rng.random()))
            elif kind == "remove":
                fact = live.decode_row(rng.choice(list(live.all_rows())))
                assert live.remove(fact)
                removed.append(fact)
            elif kind == "readd" and removed:
                live.add(removed.pop())
            elif kind == "compact":
                renumbered = live.has_dead_rows
                live.compact()
            elif kind == "spill":
                live.attach_store(db._ensure_store())
                renumbered = bool(live.spill())
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
        db.close()
