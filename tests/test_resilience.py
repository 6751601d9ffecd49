"""Failure-path tests: transactions, retry/backoff, fault injection,
quarantine, and checkpointed materialization.

Every scenario is deterministic — faults come from seeded
:class:`~repro.deploy.resilience.FaultInjector` streams and backoff goes
through fake sleeps, so nothing here ever waits on a real clock.
"""

import json
import os
import shutil
import stat

import pytest

from repro.deploy import (
    GRACEFUL,
    STRICT,
    CrashFault,
    FaultInjector,
    GraphStore,
    QuarantineReport,
    RelationalEngine,
    RetryPolicy,
    TripleStore,
    UndoLog,
    graph_store_state,
    load_graph_store,
    load_triple_store,
    no_retry,
    transaction,
)
from repro.errors import (
    IntegrityError,
    RetryExhaustedError,
    TransientDeploymentError,
)
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.obs import RecordingTracer, ResourceGovernor
from repro.ssst import (
    SSST,
    IntensionalMaterializer,
    MaterializationCheckpoint,
    graph_instance_to_relational,
    reason_over_relational,
)
from repro.vadalog.engine import Engine
from repro.vadalog.terms import Null, SkolemValue
from tests.reference import object_graph


def fake_sleep(record):
    def _sleep(seconds):
        record.append(seconds)
    return _sleep


def columnar_copy(graph):
    """``graph`` replayed into the columnar graph, edge ids kept."""
    copy = make_graph(graph.name)
    for node in graph.nodes():
        copy.add_node(node.id, node.label, **node.properties)
    for edge in graph.edges():
        copy.add_edge(edge.source, edge.target, edge.label,
                      edge_id=edge.id, **edge.properties)
    return copy


def deployed_graph_store(**kwargs):
    store = GraphStore(**kwargs)
    store.deploy(SSST().translate(company_super_schema(), "property-graph").target_schema)
    return store


def deployed_triple_store(**kwargs):
    store = TripleStore(**kwargs)
    store.deploy(SSST().translate(company_super_schema(), "rdf").target_schema)
    return store


def triple_state(store):
    return frozenset(store.triples())


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        a = RetryPolicy(seed=7, sleep=lambda _s: None)
        b = RetryPolicy(seed=7, sleep=lambda _s: None)
        assert a.schedule() == b.schedule()
        assert RetryPolicy(seed=8).schedule() != a.schedule()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=0.4,
            jitter=0.0, sleep=lambda _s: None,
        )
        schedule = policy.schedule()
        assert schedule[0] == pytest.approx(0.1)
        assert schedule[1] == pytest.approx(0.2)
        assert schedule[2] == pytest.approx(0.4)
        assert all(d == pytest.approx(0.4) for d in schedule[2:])

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(jitter=0.25, sleep=lambda _s: None)
        for attempt in range(1, policy.max_attempts):
            bare = min(
                policy.base_delay * policy.multiplier ** (attempt - 1),
                policy.max_delay,
            )
            assert bare <= policy.delay(attempt) <= bare * 1.25

    def test_succeeds_after_transients(self):
        slept = []
        policy = RetryPolicy(max_attempts=5, sleep=fake_sleep(slept), seed=3)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientDeploymentError("blip")
            return "done"

        assert policy.call(flaky) == "done"
        assert calls["n"] == 3
        assert slept == [policy.delay(1), policy.delay(2)]

    def test_exhaustion_carries_attempts_and_cause(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=fake_sleep(slept))
        cause = TransientDeploymentError("always down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(lambda: (_ for _ in ()).throw(cause))
        assert excinfo.value.attempts == 3
        assert excinfo.value.last_error is cause
        assert excinfo.value.__cause__ is cause
        assert len(slept) == 2  # two backoffs for three attempts

    def test_non_retryable_errors_pass_through(self):
        policy = RetryPolicy(sleep=lambda _s: None)
        with pytest.raises(ValueError):
            policy.call(lambda: (_ for _ in ()).throw(ValueError("fatal")))

    def test_no_retry_is_single_shot(self):
        with pytest.raises(RetryExhaustedError) as excinfo:
            no_retry().call(
                lambda: (_ for _ in ()).throw(TransientDeploymentError("x"))
            )
        assert excinfo.value.attempts == 1

    def test_retry_counter_reaches_tracer(self):
        tracer = RecordingTracer()
        policy = RetryPolicy(max_attempts=4, sleep=lambda _s: None)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise TransientDeploymentError("blip")
            return True

        assert policy.call(flaky, tracer=tracer)
        assert tracer.metrics.counters()["deploy.retries"] == 3


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_fault_stream_is_deterministic(self, company_schema, tiny_instance):
        def positions(seed):
            store = deployed_graph_store()
            injector = FaultInjector(store, fault_rate=0.4, seed=seed)
            hit = []
            for i, node in enumerate(tiny_instance.nodes()):
                try:
                    injector.create_node(node.id, [node.label], **node.properties)
                except TransientDeploymentError:
                    hit.append(i)
            return hit

        assert positions(11) == positions(11)
        assert positions(11) != positions(12)

    def test_crash_after_budget(self):
        store = deployed_graph_store()
        injector = FaultInjector(store, crash_after=2)
        injector.create_node("B1", ["Business", "LegalPerson", "Person"],
                             fiscalCode="F1", businessName="B1",
                             legalNature="spa", shareholdingCapital=1.0)
        injector.create_node("B2", ["Business", "LegalPerson", "Person"],
                             fiscalCode="F2", businessName="B2",
                             legalNature="spa", shareholdingCapital=1.0)
        with pytest.raises(CrashFault):
            injector.create_node("B3", ["Business"], fiscalCode="F3",
                                 businessName="B3", legalNature="spa",
                                 shareholdingCapital=1.0)
        assert injector.mutations_applied == 2

    def test_reads_and_savepoints_pass_through(self):
        store = deployed_graph_store()
        injector = FaultInjector(store, fault_rate=0.9, seed=1)
        # Reads and the savepoint protocol are not intercepted.
        assert injector.name == store.name
        savepoint = injector.savepoint()
        injector.release(savepoint)
        assert injector.graph is store.graph

    def test_faults_raised_before_mutation_applies(self):
        store = deployed_graph_store()
        injector = FaultInjector(store, fault_rate=0.999, seed=2)
        with pytest.raises(TransientDeploymentError):
            injector.create_node("B1", ["Business"], fiscalCode="F1",
                                 businessName="B1", legalNature="spa",
                                 shareholdingCapital=1.0)
        assert store.graph.node_count == 0  # nothing half-written


# ----------------------------------------------------------------------
# Savepoints and rollback
# ----------------------------------------------------------------------
class TestSavepoints:
    def test_undo_log_is_inert_without_savepoint(self):
        log = UndoLog()
        log.record(lambda: (_ for _ in ()).throw(AssertionError("ran")))
        assert not log.active  # nothing recorded outside a savepoint

    def test_graph_store_rollback_restores_unique_index(self):
        store = deployed_graph_store()
        savepoint = store.savepoint()
        store.create_node("B1", ["Business", "LegalPerson", "Person"],
                          fiscalCode="FC1", businessName="B1",
                          legalNature="spa", shareholdingCapital=1.0)
        store.rollback_to(savepoint)
        store.release(savepoint)
        assert store.graph.node_count == 0
        # The unique index entry is gone too: the same value loads again.
        store.create_node("B9", ["Business", "LegalPerson", "Person"],
                          fiscalCode="FC1", businessName="B9",
                          legalNature="spa", shareholdingCapital=1.0)

    def test_graph_store_rollback_removes_edges(self):
        store = deployed_graph_store()
        for oid in ("B1", "B2"):
            store.create_node(oid, ["Business", "LegalPerson", "Person"],
                              fiscalCode=f"F{oid}", businessName=oid,
                              legalNature="spa", shareholdingCapital=1.0)
        clean = graph_store_state(store)
        savepoint = store.savepoint()
        store.create_relationship("B1", "B2", "OWNS", percentage=0.5)
        store.rollback_to(savepoint)
        store.release(savepoint)
        assert graph_store_state(store) == clean

    def test_nested_savepoints_roll_back_independently(self):
        store = deployed_triple_store()
        outer = store.savepoint()
        store.add("B1", "rdf:type", "Business")
        inner = store.savepoint()
        store.add("B2", "rdf:type", "Business")
        store.rollback_to(inner)
        store.release(inner)
        assert "B1" in store.instances_of("Business")
        assert "B2" not in store.instances_of("Business")
        store.rollback_to(outer)
        store.release(outer)
        assert store.count() == 0 or "B1" not in store.instances_of("Business")

    def test_triple_store_rollback_undoes_entailments(self):
        store = deployed_triple_store()
        clean = triple_state(store)
        savepoint = store.savepoint()
        store.add("B1", "rdf:type", "Business")  # entails supertypes too
        assert triple_state(store) != clean
        store.rollback_to(savepoint)
        store.release(savepoint)
        assert triple_state(store) == clean

    def test_relational_engine_rollback_restores_pk_index(self):
        engine = RelationalEngine()
        engine.deploy(SSST().translate(company_super_schema(), "relational").target_schema)
        savepoint = engine.savepoint()
        engine.insert("Person", fiscalCode="FC1")
        engine.rollback_to(savepoint)
        engine.release(savepoint)
        assert engine.rows("Person") == []
        engine.insert("Person", fiscalCode="FC1")  # pk slot free again

    def test_transaction_context_manager(self):
        store = deployed_triple_store()
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.add("B1", "rdf:type", "Business")
                raise RuntimeError("abort")
        assert store.count() == 0 or "B1" not in store.instances_of("Business")
        with transaction(store):
            store.add("B1", "rdf:type", "Business")
        assert "B1" in store.instances_of("Business")


# ----------------------------------------------------------------------
# Strict mode: fail fast, leave the store untouched
# ----------------------------------------------------------------------
class TestStrictMode:
    def test_mid_load_violation_rolls_back_everything(self, company_schema,
                                                      tiny_instance):
        dirty = tiny_instance.copy()
        # Same fiscalCode as B1: trips the unique constraint mid-load.
        dirty.add_node("B4", "Business", fiscalCode="FCB1",
                       businessName="Eve SpA", legalNature="spa",
                       shareholdingCapital=1.0)
        store = deployed_graph_store()
        empty = graph_store_state(store)
        with pytest.raises(IntegrityError):
            load_graph_store(company_schema, dirty, store, batch_size=2)
        # Committed batches were rolled back too: the store is pristine.
        assert graph_store_state(store) == empty

    def test_clean_strict_load_still_succeeds(self, company_schema, tiny_instance):
        store = deployed_graph_store()
        report = load_graph_store(company_schema, tiny_instance, store)
        nodes, edges = report  # historical unpacking
        assert nodes == tiny_instance.node_count
        assert edges == tiny_instance.edge_count
        assert report.mode == STRICT
        assert report.quarantined == 0


# ----------------------------------------------------------------------
# Graceful mode: quarantine and carry on
# ----------------------------------------------------------------------
class TestGracefulMode:
    @pytest.fixture()
    def dirty_instance(self, tiny_instance):
        dirty = tiny_instance.copy()
        dirty.add_node("M1", "Martian", antenna=2)  # unknown label
        dirty.add_node("B4", "Business", fiscalCode="FCB1",  # dup unique
                       businessName="Eve SpA", legalNature="spa",
                       shareholdingCapital=1.0)
        dirty.add_edge("B1", "M1", "WARPS")  # unknown edge label
        return dirty

    def test_clean_subset_loads(self, company_schema, tiny_instance,
                                dirty_instance):
        store = deployed_graph_store()
        quarantine = QuarantineReport()
        report = load_graph_store(
            company_schema, dirty_instance, store,
            mode=GRACEFUL, quarantine=quarantine,
        )
        assert report.nodes == tiny_instance.node_count
        assert report.edges == tiny_instance.edge_count
        # Unknown labels are counted as skips AND quarantined; the
        # integrity violation is quarantined by the batch runner.
        assert report.skipped_nodes == 1 and report.skipped_edges == 1
        assert quarantine.by_kind() == {"node": 2, "edge": 1}
        reasons = " ".join(r.reason for r in quarantine.rejections)
        assert "Martian" in reasons and "unique constraint" in reasons
        # The clean subset matches a clean load exactly.
        clean_store = deployed_graph_store()
        load_graph_store(company_schema, tiny_instance, clean_store)
        assert graph_store_state(store) == graph_store_state(clean_store)

    def test_quarantine_report_serializes(self, company_schema, dirty_instance,
                                          tmp_path):
        store = deployed_graph_store()
        quarantine = QuarantineReport()
        load_graph_store(company_schema, dirty_instance, store,
                         mode=GRACEFUL, quarantine=quarantine)
        path = tmp_path / "quarantine.json"
        quarantine.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["quarantined"] == len(quarantine)
        assert {r["kind"] for r in payload["rejections"]} == {"node", "edge"}

    def test_strict_is_still_the_default(self, company_schema, dirty_instance):
        store = deployed_graph_store()
        with pytest.raises(IntegrityError):
            load_graph_store(company_schema, dirty_instance, store)


# ----------------------------------------------------------------------
# Transient faults + retry: loads converge on the clean state
# ----------------------------------------------------------------------
class TestTransientFaults:
    def test_faulty_graph_load_matches_clean_load(self, company_schema, small_kg):
        clean_store = deployed_graph_store()
        load_graph_store(company_schema, small_kg, clean_store)

        store = deployed_graph_store()
        injector = FaultInjector(store, fault_rate=0.1, seed=42)
        report = load_graph_store(
            company_schema, small_kg, injector,
            policy=RetryPolicy(sleep=lambda _s: None),
        )
        assert report.retries > 0
        assert injector.faults_injected == report.retries
        assert graph_store_state(store) == graph_store_state(clean_store)

    def test_faulty_triple_load_matches_clean_load(self, company_schema,
                                                   tiny_instance):
        clean_store = deployed_triple_store()
        load_triple_store(company_schema, tiny_instance, clean_store)

        store = deployed_triple_store()
        injector = FaultInjector(store, fault_rate=0.15, seed=9)
        report = load_triple_store(
            company_schema, tiny_instance, injector,
            policy=RetryPolicy(sleep=lambda _s: None),
        )
        assert report.retries > 0
        assert triple_state(store) == triple_state(clean_store)

    def test_transients_surface_without_policy(self, company_schema, small_kg):
        store = deployed_graph_store()
        injector = FaultInjector(store, fault_rate=0.3, seed=1)
        # The default policy is single-shot: the raw transient propagates
        # (and the open batch is rolled back on the way out).
        with pytest.raises(TransientDeploymentError):
            load_graph_store(company_schema, small_kg, injector)


# ----------------------------------------------------------------------
# Crash + idempotent replay
# ----------------------------------------------------------------------
class TestCrashReplay:
    def test_replay_after_crash_is_byte_identical(self, company_schema, small_kg):
        clean_store = deployed_graph_store()
        load_graph_store(company_schema, small_kg, clean_store)

        store = deployed_graph_store()
        injector = FaultInjector(store, crash_after=50)
        with pytest.raises(CrashFault):
            load_graph_store(company_schema, small_kg, injector, batch_size=20)
        partial = graph_store_state(store)
        assert partial != graph_store_state(clean_store)
        # Only whole batches survive the crash.
        assert store.graph.node_count % 20 == 0

        report = load_graph_store(company_schema, small_kg, store)
        assert report.replayed == store.graph.node_count - report.nodes or report.replayed > 0
        assert graph_store_state(store) == graph_store_state(clean_store)

    def test_triple_replay_after_crash(self, company_schema, tiny_instance):
        clean_store = deployed_triple_store()
        load_triple_store(company_schema, tiny_instance, clean_store)

        store = deployed_triple_store()
        injector = FaultInjector(store, crash_after=12)
        with pytest.raises(CrashFault):
            load_triple_store(company_schema, tiny_instance, injector,
                              batch_size=2)
        partial = triple_state(store)
        assert partial and partial != triple_state(clean_store)
        report = load_triple_store(company_schema, tiny_instance, store)
        assert report.replayed > 0
        assert triple_state(store) == triple_state(clean_store)

    def test_replaying_a_complete_load_is_a_no_op(self, company_schema,
                                                  tiny_instance):
        store = deployed_graph_store()
        load_graph_store(company_schema, tiny_instance, store)
        state = graph_store_state(store)
        report = load_graph_store(company_schema, tiny_instance, store)
        assert report.nodes == 0 and report.edges == 0
        assert report.replayed == tiny_instance.node_count + tiny_instance.edge_count
        assert graph_store_state(store) == state


# ----------------------------------------------------------------------
# Which load path ran, and why (bulk -> per-record is a counted seam)
# ----------------------------------------------------------------------
class TestLoadPathIsReported:
    def counters(self, store):
        return store.tracer.metrics.counters()

    def flush_span(self, store):
        [span] = [s for s in store.tracer.spans if s.name == "deploy.flush"]
        return span

    def test_loads_that_cannot_adopt_go_per_record_with_their_reason(
        self, company_schema, small_kg
    ):
        """A fresh load of object-graph data, and a graceful load whose
        adoption is refused, each write what the per-record reference
        writes and say why."""
        total = small_kg.node_count + small_kg.edge_count
        reference = FaultInjector(deployed_graph_store())
        load_graph_store(company_schema, small_kg, reference)
        store = deployed_graph_store(tracer=RecordingTracer())
        report = load_graph_store(company_schema, object_graph(small_kg), store)
        assert report.per_record == {"not-adoptable": total}
        assert not report.adopted_rows and report.nodes + report.edges == total
        counters = self.counters(store)
        assert counters["deploy.load_per_record"] == total
        assert counters["deploy.nodes_written"] == small_kg.node_count
        assert counters["deploy.relationships_written"] == small_kg.edge_count
        assert "adopted=0 per-record=%d" % total in report.summary()
        assert self.flush_span(store).attrs["path"] == "written"
        assert graph_store_state(store) == graph_store_state(reference)

        dirty = columnar_copy(small_kg)
        twin = next(dirty.nodes("Business")).properties
        dirty.add_node("twin", "Business", **twin)  # a duplicate unique value
        reference = FaultInjector(deployed_graph_store())
        expected = load_graph_store(company_schema, dirty, reference, mode=GRACEFUL)
        store = deployed_graph_store()
        report = load_graph_store(company_schema, dirty, store, mode=GRACEFUL)
        assert report.per_record == {"integrity-fallback": total + 1}
        assert report.quarantined == expected.quarantined == 1
        assert graph_store_state(store) == graph_store_state(reference)

    def test_fresh_load_into_an_empty_store_is_adopted(
        self, company_schema, small_kg
    ):
        store = deployed_graph_store(tracer=RecordingTracer())
        report = load_graph_store(company_schema, small_kg, store)
        total = small_kg.node_count + small_kg.edge_count
        assert report.adopted_rows == total == report.nodes + report.edges
        assert report.per_record == {} and report.batches == 1
        counters = self.counters(store)
        assert counters["deploy.load_adopted_rows"] == total
        assert counters.get("deploy.load_per_record", 0) == 0
        assert "deploy.nodes_written" not in counters  # nothing written
        assert "adopted=%d per-record=0" % total in report.summary()
        span = self.flush_span(store)
        assert span.attrs["path"] == "adopted"
        assert span.attrs["adopted_rows"] == total

    def test_replay_goes_per_record(self, company_schema, tiny_instance):
        store = deployed_graph_store(tracer=RecordingTracer())
        businesses = columnar_copy(tiny_instance)
        for node in list(businesses.nodes()):
            if node.label != "Business":
                businesses.remove_node(node.id)
        assert load_graph_store(company_schema, businesses, store).adopted_rows
        report = load_graph_store(company_schema, tiny_instance, store)
        # The store held the businesses: every record is matched against
        # it, and only the businesses are found.
        total = tiny_instance.node_count + tiny_instance.edge_count
        assert report.per_record == {"replay": total}
        assert report.replayed == businesses.node_count
        assert report.nodes + report.edges == total - businesses.node_count
        assert self.counters(store)["deploy.load_per_record"] == total
        again = load_graph_store(company_schema, tiny_instance, store)
        assert again.per_record == {"replay": total}
        assert again.nodes == again.edges == 0

    def test_fault_injection_and_retrying_policies_go_per_record(
        self, company_schema, tiny_instance
    ):
        """A store without ``adopt`` goes per record, whatever the
        policy; a retrying policy over a plain store adopts a columnar
        instance."""
        total = tiny_instance.node_count + tiny_instance.edge_count
        injector = FaultInjector(deployed_graph_store())
        assert not hasattr(injector, "adopt")
        retrying = RetryPolicy(sleep=lambda _s: None)
        report = load_graph_store(
            company_schema, tiny_instance, injector, policy=retrying
        )
        assert report.per_record == {"no-bulk-writer": total}
        assert not report.adopted_rows
        assert injector.mutations_applied == total  # one fault point each
        store = deployed_graph_store()
        report = load_graph_store(
            company_schema, columnar_copy(tiny_instance), store, policy=retrying
        )
        assert report.adopted_rows == total and not report.per_record
        assert graph_store_state(store) == graph_store_state(injector)

    def test_integrity_fallback_is_counted(self, company_schema, tiny_instance):
        dirty = columnar_copy(tiny_instance)
        dirty.add_node("B4", "Business", fiscalCode="FCB1",  # dup unique
                       businessName="Eve SpA", legalNature="spa",
                       shareholdingCapital=1.0)
        store = deployed_graph_store()
        report = load_graph_store(company_schema, dirty, store, mode=GRACEFUL)
        assert report.per_record == {
            "integrity-fallback": dirty.node_count + dirty.edge_count
        }
        assert report.quarantined == 1
        assert not report.adopted_rows


# ----------------------------------------------------------------------
# Transactional relational write-back
# ----------------------------------------------------------------------
class TestRelationalSigma:
    @pytest.fixture()
    def deployed_relational(self, company_schema, tiny_instance):
        engine = RelationalEngine()
        engine.deploy(SSST().translate(company_super_schema(), "relational").target_schema)
        graph_instance_to_relational(company_schema, tiny_instance, engine)
        return engine

    def test_faulty_write_back_matches_clean(self, company_schema,
                                             deployed_relational):
        relational = SSST().translate(company_super_schema(), "relational").target_schema
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        baseline = reason_over_relational(
            sigma, company_schema, relational, deployed_relational, insert=False
        )
        assert baseline["CONTROLS"]  # the program does derive rows

        injector = FaultInjector(deployed_relational, fault_rate=0.6, seed=0)
        derived = reason_over_relational(
            sigma, company_schema, relational, injector,
            policy=RetryPolicy(sleep=lambda _s: None),
        )
        assert injector.faults_injected > 0
        kept = {tuple(sorted(r.items())) for r in derived["CONTROLS"]}
        # Every derived row survived the faults and was written back.
        stored = deployed_relational.rows("CONTROLS")
        assert len(stored) == len(kept) == len(baseline["CONTROLS"])

    def test_constraint_violations_are_quarantined(self, company_schema,
                                                   deployed_relational):
        relational = SSST().translate(company_super_schema(), "relational").target_schema
        quarantine = QuarantineReport()
        derived = reason_over_relational(
            parse_metalog(programs.PERSON_CONTROL_PROGRAM), company_schema,
            relational, deployed_relational, quarantine=quarantine,
        )
        # The self-seed CONTROLS(p1, p1) fails the Business-side FK; the
        # three Business self-seeds insert fine.
        assert len(quarantine) == 1
        (rejection,) = quarantine.rejections
        assert rejection.kind == "row" and "foreign key" in rejection.reason
        assert len(derived["CONTROLS"]) == 3


# ----------------------------------------------------------------------
# Checkpoint codec
# ----------------------------------------------------------------------
class TestCheckpointCodec:
    def test_value_round_trip(self):
        from repro.ssst.checkpoint import decode_value, encode_value

        values = [
            None, True, 0, 1.5, "x",
            Null("z", 3),
            SkolemValue("skF", ("a", 1)),
            SkolemValue("skNest", (Null("y", 1), SkolemValue("skI", (2,)))),
            ("tuple", Null("t", 9)),
            [1, Null("l", 2)],
        ]
        for value in values:
            encoded = json.loads(json.dumps(encode_value(value)))
            assert decode_value(encoded) == value

    def test_database_round_trip(self):
        from repro.ssst.checkpoint import database_payload, restore_database
        from repro.vadalog.database import Database

        database = Database()
        database.add("P", ("a", 1, Null("z", 1)))
        database.add("P", ("b", 2, SkolemValue("sk", ("b",))))
        database.add("Q", (None,))
        payload = json.loads(json.dumps(database_payload(database)))
        back = restore_database(payload)
        assert back.facts("P") == database.facts("P")
        assert back.facts("Q") == database.facts("Q")
        assert back.relation("P").arity == 3

    def test_graph_round_trip(self):
        from repro.ssst.checkpoint import graph_payload, restore_graph

        graph = PropertyGraph("g")
        graph.add_node("n1", "L", x=1)
        graph.add_node(Null("oid", 1), "L", value="held")
        graph.add_edge("n1", Null("oid", 1), "E", edge_id="e1", w=0.5)
        back = restore_graph(json.loads(json.dumps(graph_payload(graph))))
        assert back.has_node(Null("oid", 1))
        assert back.node("n1").get("x") == 1
        assert back.edge("e1").get("w") == 0.5
        assert back.edge("e1").target == Null("oid", 1)

    def test_unserializable_value_raises(self):
        from repro.errors import CheckpointError
        from repro.ssst.checkpoint import encode_value

        with pytest.raises(CheckpointError):
            encode_value(object())

    def test_a_saved_phase_is_durable(self, tmp_path, monkeypatch):
        """The snapshot file is synced before its rename and the
        directory after it."""
        from repro.vadalog.database import Database

        checkpoint = MaterializationCheckpoint(str(tmp_path))
        checkpoint.begin("fp")
        synced = []
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        )
        checkpoint.save(Database(), [], {})
        assert synced == [False, True]


# ----------------------------------------------------------------------
# Checkpointed materialization
# ----------------------------------------------------------------------
class TestCheckpointedMaterialization:
    def run(self, schema, data, tmp_path=None, engine=None, directory=None):
        checkpoint = None
        if directory is not None:
            checkpoint = MaterializationCheckpoint(str(directory))
        return IntensionalMaterializer(engine=engine).materialize(
            schema, data, parse_metalog(programs.CONTROL_PROGRAM),
            instance_oid=9, checkpoint=checkpoint,
        )

    @staticmethod
    def canon(report):
        graph = report.instance.data
        nodes = sorted(
            (str(n.id), n.label,
             tuple(sorted((k, str(v)) for k, v in n.properties.items())))
            for n in graph.nodes()
        )
        edges = sorted(
            (str(e.source), str(e.target), e.label,
             tuple(sorted((k, str(v)) for k, v in e.properties.items())))
            for e in graph.edges()
        )
        return nodes, edges

    def test_resume_skips_completed_phases(self, company_schema, owns_instance,
                                           tmp_path):
        baseline = self.run(company_super_schema(), owns_instance)
        first = self.run(company_schema, owns_instance,
                         directory=tmp_path / "ckpt")
        assert first.resumed_from is None

        # Resume: Sigma's chase, the only one, does not run again.
        calls = []
        engine = Engine()
        original = engine.run

        def counting_run(program, **kwargs):
            calls.append(program)
            return original(program, **kwargs)

        engine.run = counting_run
        resumed = IntensionalMaterializer(engine=engine).materialize(
            company_super_schema(), owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            checkpoint=MaterializationCheckpoint(str(tmp_path / "ckpt")),
        )
        assert resumed.resumed_from == "reason"
        assert not calls
        assert self.canon(resumed) == self.canon(baseline)
        assert resumed.derived_counts == baseline.derived_counts

    def test_interrupted_run_resumes_from_the_last_saved_phase(
        self, company_schema, tmp_path, monkeypatch
    ):
        """A budget trip in Sigma's chase saves nothing, so the next run
        reasons from scratch; a crash in the flush, after the reason
        phase is saved, resumes from it.  Both end at the unbudgeted
        result."""
        import repro.ssst.materializer as materializer_module

        chain = PropertyGraph("chain")
        for i in range(45):
            chain.add_node(f"C{i}", "Business", fiscalCode=f"F{i}",
                           businessName=f"C{i}", legalNature="spa",
                           shareholdingCapital=1.0)
        for i in range(44):
            chain.add_edge(f"C{i}", f"C{i+1}", "OWNS", percentage=0.8)
        baseline = self.run(company_super_schema(), chain)

        directory = tmp_path / "ckpt"
        engine = Engine(governor=ResourceGovernor(max_facts=800, graceful=True))
        interrupted = self.run(company_super_schema(), chain, engine=engine,
                               directory=directory)
        checkpoint = MaterializationCheckpoint(str(directory))
        checkpoint.begin(self.fingerprint(chain))
        assert interrupted.truncated and not checkpoint.has_snapshot()
        rerun = self.run(company_super_schema(), chain, directory=directory)
        assert rerun.resumed_from is None and not rerun.truncated

        def crash(*_args, **_kwargs):
            raise RuntimeError("killed in the flush")

        shutil.rmtree(directory)
        with monkeypatch.context() as patch:
            patch.setattr(materializer_module, "write_instance", crash)
            with pytest.raises(RuntimeError, match="flush"):
                self.run(company_super_schema(), chain, directory=directory)
        resumed = self.run(company_super_schema(), chain, directory=directory)
        assert resumed.resumed_from == "reason"
        for report in (rerun, resumed):
            assert self.canon(report) == self.canon(baseline)
            assert report.derived_counts == baseline.derived_counts

    def fingerprint(self, data):
        from repro.ssst import run_fingerprint

        return run_fingerprint(
            company_super_schema(), data,
            parse_metalog(programs.CONTROL_PROGRAM), 9,
        )

    def test_fingerprints_are_pinned(self):
        """The run and stream fingerprints, recorded when the schema's
        dictionary was serialized through the object graph: the columnar
        graph gives the same payload, byte for byte."""
        import hashlib

        from repro.graph import make_graph
        from repro.stream import MaterializerSink

        registry = make_graph("registry")
        for i in range(3):
            registry.add_node(f"p{i}", "PhysicalPerson", fiscalCode=f"FC-P{i}",
                              name=f"N{i}", gender="female")
            registry.add_node(f"c{i}", "Business", fiscalCode=f"FC-C{i}",
                              businessName=f"C{i} SpA", legalNature="spa",
                              shareholdingCapital=1000.0)
            registry.add_edge(f"p{i}", f"c{i}", "OWNS", edge_id=f"stake-{i}",
                              percentage=0.6)
        sink = MaterializerSink(
            company_super_schema(), parse_metalog(programs.CONTROL_PROGRAM),
            registry, instance_oid=9,
        )
        stream = hashlib.sha256(sink.fingerprint_material().encode()).hexdigest()
        assert stream == (
            "59be575de91784a6edc61548d76cbfca5b422caf5e143ff157c5a08113cc015d"
        )
        assert self.fingerprint(registry) == (
            "36df3a2335abfd2939038a58ac45e5f15f3a70f4f0c93a441cb592329dacdf73"
        )

    def test_stale_checkpoint_is_discarded(self, company_schema, owns_instance,
                                           tiny_instance, tmp_path):
        self.run(company_super_schema(), owns_instance,
                 directory=tmp_path / "ckpt")
        report = self.run(company_super_schema(), tiny_instance,
                          directory=tmp_path / "ckpt")
        assert report.resumed_from is None  # different data: no resume

    def test_a_stale_snapshot_is_counted_and_an_unreadable_one_raises(
        self, owns_instance, tiny_instance, tmp_path
    ):
        from repro.errors import CheckpointError
        from repro.obs import RecordingTracer

        directory = tmp_path / "ckpt"
        self.run(company_super_schema(), owns_instance, directory=directory)
        tracer = RecordingTracer()
        checkpoint = MaterializationCheckpoint(str(directory), tracer=tracer)
        assert os.path.exists(checkpoint.path)
        checkpoint.begin(self.fingerprint(tiny_instance))
        assert not checkpoint.has_snapshot() and not os.path.exists(checkpoint.path)
        assert tracer.metrics.counter("deploy.checkpoint_stale").value == 1
        self.run(company_super_schema(), owns_instance, directory=directory)
        with open(checkpoint.path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        with pytest.raises(CheckpointError, match="unreadable"):
            self.run(company_super_schema(), owns_instance, directory=directory)

    def test_truncated_phase_is_not_checkpointed(self, company_schema,
                                                 owns_instance, tmp_path):
        engine = Engine(governor=ResourceGovernor(max_facts=1, graceful=True))
        self.run(company_super_schema(), owns_instance, engine=engine,
                 directory=tmp_path / "ckpt")
        checkpoint = MaterializationCheckpoint(str(tmp_path / "ckpt"))
        checkpoint.begin(self.fingerprint(owns_instance))
        assert not checkpoint.has_snapshot()


# ----------------------------------------------------------------------
# Flush accounting (dropped derived edges are surfaced, not silent)
# ----------------------------------------------------------------------
class TestFlushAccounting:
    def test_dropped_edges_are_counted(self):
        from tests.reference import instance_facts
        from repro.vadalog.database import Database

        database = Database()
        database.add("I_SM_Node", ("n1", 1, None))
        database.add("I_SM_FROM", ("e1", "n1", "missing-endpoint", 1))
        held, added, dropped = instance_facts(
            database.columns, {}, company_super_schema()
        )
        assert added == 1 and dropped == 1
        assert held["I_SM_Node"][0] == ["n1"] and "I_SM_FROM" not in held

    def test_report_surfaces_drop_count(self, company_schema, owns_instance):
        report = IntensionalMaterializer().materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        assert report.flush_dropped_edges == 0  # healthy program drops nothing

    def test_update_counts_the_drops_of_what_it_touched(
        self, company_schema, owns_instance
    ):
        """A stake in an untyped node has no target construct: its
        ``I_SM_TO`` link is dropped, the edge with it, and the update
        that brought it says so — later updates answer for their own
        constructs only."""
        from repro.ssst import RegistryDelta
        from tests.conftest import diff_is_the_oracle

        materializer = diff_is_the_oracle(IntensionalMaterializer())
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        update = materializer.update(RegistryDelta(
            add_nodes=[("ghost", None, {})],
            add_edges=[("og", "B1", "ghost", "OWNS", {"percentage": 0.9})],
        ))
        assert update.flush_dropped_edges == 1
        assert not update.flush_delta.changed()
        assert not materializer.retained.instance().data.has_edge("og")
        update = materializer.update(RegistryDelta(
            add_edges=[("o9", "B3", "B1", "OWNS", {"percentage": 0.1})],
        ))
        assert update.flush_dropped_edges == 0
        assert materializer.retained.instance().data.has_edge("o9")
        # The node gets a type while the stake's own facts stay as they
        # are (removed and put back in one delta): the node's row
        # appearing is what brings the edge in.
        update = materializer.update(RegistryDelta(
            remove_nodes=["ghost"],
            add_nodes=[("ghost", "Business", {
                "fiscalCode": "FCG", "businessName": "Ghost SpA",
                "legalNature": "spa", "shareholdingCapital": 1.0})],
            add_edges=[("og", "B1", "ghost", "OWNS", {"percentage": 0.9})],
        ))
        assert update.flush_dropped_edges == 0
        assert ("og", "B1", "ghost", "OWNS", {"percentage": 0.9}) in (
            update.flush_delta.added_edges)
        assert ("B1", "ghost") in {
            (e.source, e.target) for e in materializer.retained.instance().data.edges("CONTROLS")}


# ----------------------------------------------------------------------
# Observability: the resilience layer reports what it did
# ----------------------------------------------------------------------
class TestResilienceObservability:
    def test_load_span_carries_resilience_attrs(self, company_schema,
                                                tiny_instance):
        tracer = RecordingTracer()
        store = deployed_graph_store(tracer=tracer)
        dirty = tiny_instance.copy()
        dirty.add_node("M1", "Martian")
        load_graph_store(company_schema, dirty, store, mode=GRACEFUL)
        (span,) = tracer.find_spans("deploy.flush")
        assert span.attrs["skipped"] == 1
        assert span.attrs["quarantined"] == 1
        assert span.attrs["nodes"] == tiny_instance.node_count

    def test_fault_and_retry_counters(self, company_schema, tiny_instance):
        tracer = RecordingTracer()
        store = deployed_graph_store(tracer=tracer)
        injector = FaultInjector(store, fault_rate=0.3, seed=4)
        load_graph_store(
            company_schema, tiny_instance, injector,
            policy=RetryPolicy(sleep=lambda _s: None),
        )
        counters = tracer.metrics.counters()
        assert counters["deploy.faults_injected"] > 0
        assert counters["deploy.retries"] == counters["deploy.faults_injected"]


# ----------------------------------------------------------------------
# Jitter sequencing + crash-after reproducibility (the streaming pipeline
# leans on both: retried flushes and chaos crash points must replay
# identically under the same seed)
# ----------------------------------------------------------------------
class TestRetryJitterSequencing:
    def test_per_attempt_jitter_differs_but_replays(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.05, multiplier=2.0,
            max_delay=10.0, jitter=0.25, seed=11, sleep=lambda _s: None,
        )
        first = [policy.delay(n) for n in range(1, 6)]
        second = [policy.delay(n) for n in range(1, 6)]
        assert first == second  # delay() is a pure function of (seed, n)
        # Jitter fractions differ across attempts (no lockstep retries).
        fractions = [
            d / min(0.05 * 2.0 ** (n - 1), 10.0)
            for n, d in enumerate(first, start=1)
        ]
        assert len(set(round(f, 9) for f in fractions)) > 1

    def test_jitter_stays_within_declared_band(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0,
            max_delay=1.0, jitter=0.5, seed=3, sleep=lambda _s: None,
        )
        for n, delay in enumerate(policy.schedule(), start=1):
            backoff = min(0.1 * 2.0 ** (n - 1), 1.0)
            assert backoff <= delay <= backoff * 1.5

    def test_different_seeds_give_different_sequences(self):
        kwargs = dict(
            max_attempts=6, base_delay=0.05, jitter=0.25,
            sleep=lambda _s: None,
        )
        assert (
            RetryPolicy(seed=1, **kwargs).schedule()
            != RetryPolicy(seed=2, **kwargs).schedule()
        )

    def test_call_sleeps_exactly_the_schedule(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.05, jitter=0.25, seed=5,
            sleep=fake_sleep(slept),
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 4:
                raise TransientDeploymentError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert slept == policy.schedule()


class TestCrashAfterReproducibility:
    def crash_run(self, seed):
        """Load until the injected crash; returns (mutations, state)."""
        store = deployed_graph_store()
        injector = FaultInjector(store, crash_after=17, seed=seed)
        graph = PropertyGraph("data")
        for i in range(40):
            graph.add_node(
                f"p{i}", "PhysicalPerson",
                fiscalCode=f"FC-{i}", name=f"N{i}", gender="female",
            )
        with pytest.raises(CrashFault):
            load_graph_store(
                company_super_schema(), graph, injector, batch_size=1,
            )
        return injector.mutations_applied, graph_store_state(store)

    def test_same_seed_crashes_at_the_same_point(self):
        first = self.crash_run(seed=42)
        second = self.crash_run(seed=42)
        assert first == second
        assert first[0] == 17

    def test_arm_reseeds_the_transient_stream(self):
        def fault_pattern(injector):
            pattern = []
            for _ in range(50):
                try:
                    injector._inject("probe")
                    pattern.append(False)
                    injector.mutations_applied += 1
                except TransientDeploymentError:
                    pattern.append(True)
            return pattern

        a = FaultInjector(deployed_graph_store(), fault_rate=0.3, seed=9)
        b = FaultInjector(deployed_graph_store(), fault_rate=0.3, seed=1234)
        b.arm(9)
        assert fault_pattern(a) == fault_pattern(b)
