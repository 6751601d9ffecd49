"""CI fault-injection smoke: a seeded chaos battery over the deploy stack.

Every scenario drives the resilient loaders through injected faults —
transient errors, crashes, dirty records — and asserts the recovery
invariant that matters for each: faulty loads converge on the clean
state, crash replays are byte-identical, strict violations leave the
store pristine, graceful loads quarantine exactly the dirty records, a
flush delta a store refuses leaves no part of itself behind, and an
interrupted materialization resumes from its checkpoint to the
unbudgeted result.

Standalone on purpose — no pytest-benchmark — so the CI job stays a
plain ``python benchmarks/chaos_battery.py``.  All faults come from
seeded :class:`~repro.deploy.FaultInjector` streams and every retry
backoff goes through a no-op sleep: the battery is deterministic and
never waits on a real clock.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

try:
    import repro  # noqa: F401 — installed package (CI) or PYTHONPATH=src
except ImportError:
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.deploy import (
    GRACEFUL,
    CrashFault,
    FaultInjector,
    FlushDelta,
    GraphStore,
    QuarantineReport,
    RetryPolicy,
    TripleStore,
    graph_store_state,
    load_graph_store,
    load_triple_store,
)
from repro.errors import IntegrityError
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.finkg.generator import ShareholdingConfig, generate_company_kg
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.obs import ResourceGovernor
import repro.ssst.materializer as materializer_module
from repro.ssst import (
    SSST, IntensionalMaterializer, MaterializationCheckpoint, run_fingerprint,
)
from repro.stream import (
    DeltaStream,
    FeedFaultInjector,
    GeneratorFeed,
    MaterializerSink,
    ServeStateSink,
)
from repro.vadalog.engine import Engine

COMPANIES = 1000
FAULT_RATE = 0.10
SEED = 42

_failures: list[str] = []


def check(name: str, condition: bool, detail: str = "") -> None:
    status = "ok" if condition else "FAIL"
    print(f"chaos: {name}: {status}" + (f" ({detail})" if detail else ""))
    if not condition:
        _failures.append(name)


def fresh_graph_store() -> GraphStore:
    store = GraphStore()
    store.deploy(
        SSST().translate(company_super_schema(), "property-graph").target_schema
    )
    return store


def fresh_triple_store() -> TripleStore:
    store = TripleStore()
    store.deploy(SSST().translate(company_super_schema(), "rdf").target_schema)
    return store


def quiet_policy(**kwargs) -> RetryPolicy:
    return RetryPolicy(sleep=lambda _s: None, **kwargs)


def main() -> int:
    schema = company_super_schema()
    data = generate_company_kg(ShareholdingConfig(companies=COMPANIES, seed=SEED))
    print(
        f"chaos: battery over {data.node_count} nodes / {data.edge_count} edges "
        f"({COMPANIES} companies, seed {SEED})"
    )

    # -- baseline: a clean load, also the wall-clock reference ----------
    clean_store = fresh_graph_store()
    t0 = time.perf_counter()
    clean_report = load_graph_store(schema, data, clean_store)
    clean_seconds = time.perf_counter() - t0
    clean_state = graph_store_state(clean_store)
    check(
        "clean load",
        clean_report.nodes == data.node_count
        and clean_report.edges == data.edge_count,
        f"{clean_report.summary()}, {clean_seconds:.2f}s",
    )

    # -- transient faults at 10%: the default policy rides them out ----
    store = fresh_graph_store()
    injector = FaultInjector(store, fault_rate=FAULT_RATE, seed=SEED)
    t0 = time.perf_counter()
    report = load_graph_store(schema, data, injector, policy=quiet_policy())
    faulty_seconds = time.perf_counter() - t0
    check(
        "10% transient faults converge on the clean state",
        report.retries > 0 and graph_store_state(store) == clean_state,
        f"{report.retries} retries, overhead "
        f"{faulty_seconds / max(clean_seconds, 1e-9):.2f}x",
    )

    # -- crash mid-load, then idempotent replay ------------------------
    store = fresh_graph_store()
    injector = FaultInjector(store, crash_after=data.node_count // 2)
    crashed = False
    try:
        load_graph_store(schema, data, injector, batch_size=100)
    except CrashFault:
        crashed = True
    partial = store.graph.node_count
    replay = load_graph_store(schema, data, store)
    check(
        "crash + replay is byte-identical to the clean load",
        crashed
        and 0 < partial < data.node_count
        and replay.replayed > 0
        and graph_store_state(store) == clean_state,
        f"crashed at {partial} nodes, replayed {replay.replayed} records",
    )

    # -- strict mode: a dirty record rolls the whole load back ---------
    dirty = data.copy()
    victim = next(n for n in data.nodes() if n.label == "Business")
    dirty.add_node(
        "chaos-dup", "Business",
        fiscalCode=victim.properties["fiscalCode"],
        businessName="Chaos SpA", legalNature="spa", shareholdingCapital=1.0,
    )
    store = fresh_graph_store()
    pristine = graph_store_state(store)
    strict_raised = False
    try:
        load_graph_store(schema, dirty, store)
    except IntegrityError:
        strict_raised = True
    check(
        "strict mode leaves the store pristine on violation",
        strict_raised and graph_store_state(store) == pristine,
        "duplicate fiscalCode rejected",
    )

    # -- graceful mode: quarantine the dirty record, load the rest -----
    store = fresh_graph_store()
    quarantine = QuarantineReport()
    report = load_graph_store(
        schema, dirty, store, mode=GRACEFUL, quarantine=quarantine
    )
    check(
        "graceful mode quarantines exactly the dirty record",
        len(quarantine) == 1
        and report.nodes == data.node_count
        and graph_store_state(store) == clean_state,
        f"{report.summary()}",
    )

    # -- triple store: same convergence under faults -------------------
    small = generate_company_kg(ShareholdingConfig(companies=60, seed=SEED))
    clean_triples = fresh_triple_store()
    load_triple_store(schema, small, clean_triples)
    store = fresh_triple_store()
    injector = FaultInjector(store, fault_rate=FAULT_RATE, seed=SEED)
    report = load_triple_store(schema, small, injector, policy=quiet_policy())
    check(
        "triple-store faulty load converges on the clean state",
        report.retries > 0
        and frozenset(store.triples()) == frozenset(clean_triples.triples()),
        f"{report.summary()}",
    )

    # -- a refused flush delta: removal and update undone too ----------
    stake = next(iter(small.edges("HOLDS")))
    renamed = next(n for n in small.nodes() if n.label == "Business")
    refused = FlushDelta(
        removed_edges=[(stake.id, stake.source, stake.target, stake.label,
                        dict(stake.properties))],
        updated_nodes=[(renamed.id, renamed.label,
                        {**renamed.properties, "businessName": "Chaos SpA"},
                        dict(renamed.properties))],
        added_nodes=[("chaos-new", "Business", {
            "fiscalCode": "FC-CHAOS", "businessName": "Chaos New SpA",
            "legalNature": "spa", "shareholdingCapital": 1.0,
        })],
        # Undeclared in both schemas: the last insert is refused.
        added_edges=[("chaos-warp", stake.source, "chaos-new", "WARPS", {})],
    )
    graph_target, triple_target = fresh_graph_store(), fresh_triple_store()
    load_graph_store(schema, small, graph_target)
    load_triple_store(schema, small, triple_target)

    def target_states():
        return graph_store_state(graph_target), frozenset(triple_target.triples())

    before = target_states()
    refusals = 0
    after = small.copy()  # what the refused delta leads to
    refused.apply_to(after)
    for target in (graph_target, triple_target):
        try:
            target.apply_flush_delta(refused, schema, after)
        except IntegrityError:
            refusals += 1
    check(
        "a flush delta refused on its last insert leaves every store as it was",
        refusals == 2 and target_states() == before,
        "edge removal + update + insert, then an undeclared relationship; "
        "graph and triple stores",
    )

    # -- checkpointed materialization: interrupt, then resume ----------
    chain = PropertyGraph("chain")
    for i in range(45):
        chain.add_node(f"C{i}", "Business", fiscalCode=f"F{i}",
                       businessName=f"C{i}", legalNature="spa",
                       shareholdingCapital=1.0)
    for i in range(44):
        chain.add_edge(f"C{i}", f"C{i+1}", "OWNS", percentage=0.8)
    sigma = parse_metalog(programs.CONTROL_PROGRAM)
    baseline = IntensionalMaterializer().materialize(
        company_super_schema(), chain, sigma, instance_oid=9
    )
    directory = tempfile.mkdtemp(prefix="chaos_ckpt_")
    # A budget trip in Sigma's chase saves nothing; a crash in the flush
    # comes after the reason phase is saved, so the next run resumes.
    interrupted = IntensionalMaterializer(
        engine=Engine(governor=ResourceGovernor(max_facts=800, graceful=True))
    ).materialize(
        company_super_schema(), chain, sigma, instance_oid=9,
        checkpoint=MaterializationCheckpoint(directory),
    )
    saved = MaterializationCheckpoint(directory)
    saved.begin(run_fingerprint(company_super_schema(), chain, sigma, 9))
    nothing_saved = not saved.has_snapshot()
    real_write = materializer_module.write_instance

    def crash(*_args, **_kwargs):
        raise RuntimeError("killed in the flush")

    materializer_module.write_instance = crash
    try:
        IntensionalMaterializer().materialize(
            company_super_schema(), chain, sigma, instance_oid=9,
            checkpoint=MaterializationCheckpoint(directory),
        )
        crashed = False
    except RuntimeError:
        crashed = True
    finally:
        materializer_module.write_instance = real_write
    resumed = IntensionalMaterializer().materialize(
        company_super_schema(), chain, sigma, instance_oid=9,
        checkpoint=MaterializationCheckpoint(directory),
    )

    def canon(report):
        graph = report.instance.data
        return (
            sorted((str(n.id), n.label) for n in graph.nodes()),
            sorted((str(e.source), str(e.target), e.label)
                   for e in graph.edges()),
        )

    check(
        "interrupted materialization resumes to the unbudgeted result",
        interrupted.truncated and nothing_saved and crashed
        and resumed.resumed_from == "reason"
        and not resumed.truncated
        and canon(resumed) == canon(baseline)
        and resumed.derived_counts == baseline.derived_counts,
        f"resumed from {resumed.resumed_from!r}, "
        f"derived {resumed.derived_counts}",
    )

    # -- streaming: store crash mid-flush, resume from the delta log ---
    registry = PropertyGraph("registry")
    for i in range(30):
        registry.add_node(
            f"p{i}", "PhysicalPerson",
            fiscalCode=f"FC-P{i}", name=f"P{i}", gender="female",
        )
        registry.add_node(
            f"c{i}", "Business",
            fiscalCode=f"FC-C{i}", businessName=f"C{i} SpA",
            legalNature="spa", shareholdingCapital=1.0,
        )
        registry.add_edge(
            f"p{i}", f"c{i}", "OWNS", edge_id=f"stake-{i}", percentage=0.8,
        )
    changes = []
    for i in range(12):
        changes.append({
            "seq": 2 * i + 1, "op": "add_edge", "id": f"chaos-stake-{i}",
            "source": f"p{i}", "target": f"c{(i + 7) % 30}", "type": "OWNS",
            "properties": {"percentage": 0.55},
        })
        changes.append({"seq": 2 * i + 2, "op": "remove_edge", "id": f"stake-{i}"})
    final = registry.copy()
    for i in range(12):
        final.add_edge(
            f"p{i}", f"c{(i + 7) % 30}", "OWNS",
            edge_id=f"chaos-stake-{i}", percentage=0.55,
        )
        final.remove_edge(f"stake-{i}")
    reference = IntensionalMaterializer().materialize(
        company_super_schema(), final, sigma, instance_oid=9
    )
    reference_store = fresh_graph_store()
    load_graph_store(company_super_schema(), reference.instance.data,
                     reference_store)
    reference_state = graph_store_state(reference_store)

    def stream_sink(store):
        sink = MaterializerSink(
            company_super_schema(), sigma, registry.copy(), instance_oid=9,
            retry=quiet_policy(),
        )
        sink.attach_graph_store(store)
        return sink

    log_dir = tempfile.mkdtemp(prefix="chaos_stream_")
    store = fresh_graph_store()
    injector = FaultInjector(store)
    sink = stream_sink(injector)
    original_apply = sink.apply

    def crashing_apply(batch, quarantine):
        # Arm only after bootstrap: crash the very next store mutation.
        injector.crash_after = injector.mutations_applied
        return original_apply(batch, quarantine)

    sink.apply = crashing_apply
    crashed = False
    try:
        DeltaStream(
            GeneratorFeed(changes), sink, log_dir, batch_window=4,
            fsync=False, checkpoint_every=1,
        ).run()
    except CrashFault:
        crashed = True
    store = fresh_graph_store()
    report = DeltaStream(
        GeneratorFeed(changes), stream_sink(store), log_dir, batch_window=4,
        fsync=False,
    ).run(resume=True)
    check(
        "stream crash mid-flush resumes bit-identical to the batch run",
        crashed
        and report.replayed_records > 0
        and graph_store_state(store) == reference_state,
        f"replayed {report.replayed_records} records, "
        f"{report.batches_applied} batches",
    )

    # -- streaming: torn/duplicated/reordered feed converges -----------
    entries = [
        {"seq": i, "op": "assert", "predicate": "e",
         "fact": [f"n{i}", f"n{i + 1}"]}
        for i in range(60)
    ]
    faulty = FeedFaultInjector(
        GeneratorFeed(entries), seed=SEED,
        torn_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1,
    )
    program = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
    sink = ServeStateSink(program=program, inputs={"e": [("a", "b")]})
    report = DeltaStream(
        faulty, sink, tempfile.mkdtemp(prefix="chaos_stream_"),
        batch_window=8, fsync=False,
    ).run()
    accounted = (
        report.records_quarantined + report.duplicates_skipped
        == faulty.torn + faulty.duplicated
    )
    check(
        "torn/duplicated/reordered feed converges with exact accounting",
        faulty.torn > 0 and faulty.duplicated > 0 and faulty.reordered > 0
        and accounted
        and sink.state.snapshot.count("e") == 61 - faulty.torn,
        f"{faulty.torn} torn, {faulty.duplicated} duplicated, "
        f"{faulty.reordered} reordered; "
        f"{report.records_quarantined} quarantined, "
        f"{report.duplicates_skipped} deduplicated",
    )

    if _failures:
        print(f"chaos: {len(_failures)} scenario(s) failed: {_failures}",
              file=sys.stderr)
        return 1
    print("chaos: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
