"""Intensional-component materialization — Algorithm 2 of the paper.

.. code-block:: none

    Input: instance D of schema S of a model M, an intensional
    component Sigma;  Output: materializes the intensional component.
    1: M      <- select candidate mappings to M from REPO
    2: M(M)   <- prompt for implementation strategy
    3: V(M)   <- MTV.translateToVadalog(M(M).instance)
    4: I      <- Reason(D, V(M)^-1)          (import D into the super-model)
    5: V_I    <- build high-level input views
    6: V_O    <- build high-level output views
    7: V(Sig) <- MTV.translateToVadalog(Sigma u V_I u V_O)
    8: I'     <- Reason(I, V(Sigma))
    9: D      <- Reason(I', V(M))            (materialize into D)

Following the performance note of Section 6 ("we can build the instance
I' incrementally, in a stratified way, by first applying V_I, and
materializing the temporary result as a database instance in a staging
area; then, the standard reasoning process can take place; finally, I'
is stored back"), the three phases run as separate chase invocations and
are timed individually — the load / reason / flush breakdown the paper
reports (~160 min reasoning vs ~15 min load+flush for the Bank of Italy
KG) is reproduced by the E-PERF benchmark on synthetic data.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dictionary import GraphDictionary
from repro.core.instances import (
    INSTANCE_LABELS,
    LoadedMark,
    SuperInstance,
    decode_relations,
    delta_source,
    encode_instance,
    encode_records,
)
from repro.core.schema import SuperSchema
from repro.deploy.delta import FlushDelta, edge_record, node_record
from repro.errors import EvaluationError, SchemaError
from repro.graph.property_graph import PropertyGraph
from repro.metalog.ast import MetaProgram
# graph_to_database: unused here, but kgbench/trace.py wraps this binding.
from repro.metalog.mtv import compile_metalog, graph_to_database
from repro.obs.governor import STATUS_FIXPOINT, BudgetExceeded
from repro.obs.tracer import NullTracer, Tracer
from repro.ssst.incremental import RegistryDelta, UpdateReport
from repro.ssst.views import catalog_from_super_schema, input_views, output_views
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats


@dataclass
class MaterializationReport:
    """Outcome of one Algorithm 2 run.

    The per-phase timings come from the materializer's tracer spans
    (``materialize.load`` / ``materialize.reason`` / ``materialize.flush``)
    — the report keeps its flat ``*_seconds`` fields for callers, but the
    spans are the source of truth and land in any exported trace.
    ``status``/``violation`` carry the first budget trip from any of the
    three chase invocations, so a governed run can be recognized as
    truncated no matter which phase hit the limit.
    """

    instance: SuperInstance  # the enriched instance (derived parts included)
    derived_counts: Dict[str, int] = field(default_factory=dict)
    load_seconds: float = 0.0
    reason_seconds: float = 0.0
    flush_seconds: float = 0.0
    reason_stats: Optional[EvaluationStats] = None
    status: str = STATUS_FIXPOINT
    violation: Optional[BudgetExceeded] = None
    #: I_SM_* link facts dropped at flush because their source or target
    #: is no construct of the instance (a lossy program, not a bug in
    #: the flush) — surfaced instead of silently discarded.
    flush_dropped_edges: int = 0
    #: Name of the checkpointed phase this run resumed from, if any.
    resumed_from: Optional[str] = None

    @property
    def truncated(self) -> bool:
        return self.status != STATUS_FIXPOINT

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.reason_seconds + self.flush_seconds

    def phase_breakdown(self) -> Dict[str, float]:
        return {
            "load": self.load_seconds,
            "reason": self.reason_seconds,
            "flush": self.flush_seconds,
        }


@dataclass
class _CompiledViews:
    """One MTV compilation: the translated program plus both view sets.

    Cached per (program text, schema identity, instance OID) — repeated
    ``materialize()``/``update()`` calls over the same inputs skip the
    MetaLog-to-Vadalog translation and the view synthesis entirely.  The
    entry keeps a strong reference to the schema so the identity key can
    never alias a collected object.
    """

    schema: SuperSchema
    sigma_catalog: Any
    compiled: Any
    v_in: Any
    v_out: Any


@dataclass
class RetainedMaterialization:
    """Everything ``update()`` needs to maintain a materialization.

    Built by ``materialize(..., retain=True)``: the three chase results
    (each carrying a retained
    :class:`~repro.vadalog.incremental.MaterializedState`), the source
    graph they were loaded from, and the enriched plain graph, which
    every ``update()`` patches in place (new elements come last, not in
    ``str(oid)`` order).
    """

    schema: SuperSchema
    sigma: MetaProgram
    instance_oid: Any
    data: PropertyGraph
    result_load: EvaluationResult
    result_reason: EvaluationResult
    result_flush: EvaluationResult
    enriched: PropertyGraph
    updates_applied: int = 0


#: Compile-cache entries kept per materializer (oldest evicted first).
_COMPILE_CACHE_LIMIT = 8


@contextmanager
def _deferred_full_gc():
    """Defer full (gen-2) garbage collections for a registry-scale run.

    A from-scratch materialization allocates millions of long-lived
    containers (the chase extension, the enriched graph); with the
    default thresholds CPython re-scans that whole heap every few
    thousand surviving allocations, which measures as multiple seconds
    of pause time per 50k-company run.  Almost everything the chase
    frees is acyclic and dies by refcount, so full cycles are deferred
    — not disabled — while young-generation collection keeps running.
    One full collection on exit picks up whatever cyclic garbage the
    run produced; thresholds are always restored.
    """
    if not gc.isenabled():  # caller manages GC — stay out of the way
        yield
        return
    gen0, gen1, gen2 = gc.get_threshold()
    gc.set_threshold(gen0, gen1, max(gen2, 1) * 50)
    try:
        yield
    finally:
        gc.set_threshold(gen0, gen1, gen2)
        gc.collect()


class IntensionalMaterializer:
    """Runs Algorithm 2 over a super-schema instance."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        tracer: Optional[Tracer] = None,
    ):
        # A caller-supplied engine keeps its own tracer; an implicit one
        # joins the materializer's trace so engine spans nest under the
        # phase spans.
        self.tracer = tracer or NullTracer()
        self.engine = engine or Engine(tracer=tracer)
        self._compile_cache: Dict[Tuple[str, int, Any], _CompiledViews] = {}
        self._retained: Optional[RetainedMaterialization] = None

    @property
    def retained(self) -> Optional[RetainedMaterialization]:
        """The state kept by the last ``materialize(..., retain=True)``."""
        return self._retained

    def _compiled_views(
        self, schema: SuperSchema, sigma: MetaProgram, instance_oid: Any
    ) -> _CompiledViews:
        """MTV compilation + view synthesis, memoized.

        The key uses the program's text and the schema's object identity:
        re-parsing either yields a fresh object and a clean miss, while
        repeated calls with the same objects (the update loop, benchmark
        reruns) hit.  A mutated-in-place schema under the same identity
        is the caller's responsibility, as everywhere else in the SSST.
        """
        key = (str(sigma), id(schema), instance_oid)
        entry = self._compile_cache.get(key)
        if entry is not None and entry.schema is schema:
            return entry
        schema.ensure_attribute_oids()
        sigma_catalog = catalog_from_super_schema(schema)
        compiled = compile_metalog(sigma, sigma_catalog)
        v_in = input_views(
            schema,
            compiled.input_node_labels,
            compiled.input_edge_labels,
            instance_oid,
            sigma_catalog,
        )
        v_out = output_views(
            schema,
            compiled.derived_node_labels,
            compiled.derived_edge_labels,
            instance_oid,
            sigma_catalog,
        )
        entry = _CompiledViews(schema, sigma_catalog, compiled, v_in, v_out)
        while len(self._compile_cache) >= _COMPILE_CACHE_LIMIT:
            self._compile_cache.pop(next(iter(self._compile_cache)))
        self._compile_cache[key] = entry
        return entry

    @_deferred_full_gc()
    def materialize(
        self,
        schema: SuperSchema,
        data: PropertyGraph,
        sigma: MetaProgram,
        instance_oid: Any = 1,
        dictionary: Optional[GraphDictionary] = None,
        strict: bool = False,
        checkpoint=None,
        retain: bool = False,
    ) -> MaterializationReport:
        """Materialize the intensional component ``sigma`` over ``data``.

        ``data`` is a plain typed property graph conforming to
        ``schema`` (node labels are type names).  The result's
        ``instance`` holds the enriched plain graph, including the
        derived nodes and edges.

        ``checkpoint`` (a
        :class:`~repro.ssst.checkpoint.MaterializationCheckpoint`)
        persists each phase that reaches fixpoint; passing the same
        checkpoint again resumes from the last completed phase instead
        of repeating it.  A checkpoint written for different inputs is
        discarded, not resumed.

        ``retain=True`` keeps the three chase states alive so later
        registry changes can be applied with :meth:`update` instead of
        re-running from scratch (off by default — the from-scratch path
        pays nothing).
        """
        report = MaterializationReport(instance=None)  # filled below
        tracer = self.tracer

        resume_from: Optional[str] = None
        if checkpoint is not None:
            from repro.ssst.checkpoint import run_fingerprint

            checkpoint.begin(run_fingerprint(schema, data, sigma, instance_oid))
            resume_from = checkpoint.resume_phase()

        # ---------------- Phase 1: LOAD (lines 1-4) ----------------
        with tracer.span("materialize.load") as load_span:
            # Lines 3, 5-6: MTV compilation and the views, memoized per
            # (program text, schema, instance OID) — the update loop and
            # repeated runs skip the translation entirely.
            views = self._compiled_views(schema, sigma, instance_oid)
            compiled, v_in, v_out = views.compiled, views.v_in, views.v_out

            # Algorithm 2 reads the schema object, not the dictionary.
            if (
                dictionary is not None
                and schema.schema_oid not in dictionary.schema_oids()
            ):
                dictionary.store(schema)
            if resume_from is not None:
                if retain:
                    raise EvaluationError(
                        "retain=True cannot resume from a checkpoint: the "
                        "skipped phases leave no state to maintain — rerun "
                        "without --resume or without retain"
                    )
                staged_db, phase_meta = checkpoint.load_phase(resume_from)
                report.resumed_from = resume_from
                load_span.set(resumed=True, phase=resume_from)
                tracer.count("deploy.replay_skipped", 1)
            else:
                instance = SuperInstance.from_plain_graph(
                    schema, data, instance_oid, strict=strict
                )
                # The staging relations are the instance level of the
                # dictionary: the registry is encoded straight into
                # them, over the registry graph's value dictionary when
                # it has one, so ids and values are interned once.
                staging = Database(
                    columnar=self.engine.columnar,
                    interner=getattr(data, "interner", None),
                )
                encode_instance(
                    schema, instance_oid, instance.data, staging.add_columns
                )
                # Materialize V_I into the staging area (Section 6
                # optimization).
                # The staging database is materializer-owned: let
                # every phase evaluate in place instead of copying the
                # full extension per run.  With ``retain=True`` the
                # three phase results must stay distinct snapshots (the
                # delta-chase baselines), so copies are kept.
                result_in = self.engine.run(
                    v_in, database=staging, retain_state=retain,
                    copy_database=retain,
                )
                self._merge_status(report, result_in)
                staged_db = result_in.database
                if checkpoint is not None and not report.truncated:
                    checkpoint.save_phase("load", database=staged_db)
        report.load_seconds = load_span.duration

        # ---------------- Phase 2: REASON (lines 7-8) ----------------
        with tracer.span("materialize.reason") as reason_span:
            if resume_from == "reason":
                report.derived_counts = dict(phase_meta.get("derived_counts", {}))
                result_db = staged_db
                reason_span.set(resumed=True)
                tracer.count("deploy.replay_skipped", 1)
            else:
                before = {
                    label: staged_db.count(label)
                    for label in sorted(
                        compiled.derived_node_labels | compiled.derived_edge_labels
                    )
                }
                result_sigma = self.engine.run(
                    compiled.program, database=staged_db,
                    retain_state=retain, copy_database=retain,
                )
                report.reason_stats = result_sigma.stats
                self._merge_status(report, result_sigma)
                report.derived_counts = {
                    label: result_sigma.database.count(label) - before.get(label, 0)
                    for label in before
                }
                reason_span.set(
                    status=result_sigma.status,
                    facts_derived=result_sigma.stats.facts_derived,
                )
                result_db = result_sigma.database
                if checkpoint is not None and not report.truncated:
                    checkpoint.save_phase(
                        "reason",
                        database=result_db,
                        meta={"derived_counts": report.derived_counts},
                    )
        report.reason_seconds = reason_span.duration

        # ---------------- Phase 3: FLUSH (line 9) ----------------
        # Never checkpointed: it only reads the reason phase's result,
        # so re-running it always yields the complete instance.
        with tracer.span("materialize.flush") as flush_span:
            # V_O only appends, and a columnar relation keeps row order:
            # the rows each I_SM_* relation holds now are the loaded
            # ones.  (The tuple backend has no row order to count in.)
            loaded: Dict[str, LoadedMark] = {
                label: result_db.count(label) if self.engine.columnar
                else result_db.facts(label)
                for label in INSTANCE_LABELS
            }
            result_out = self.engine.run(
                v_out, database=result_db, retain_state=retain,
                copy_database=retain,
            )
            self._merge_status(report, result_out)
            report.instance, added, dropped = decode_relations(
                schema, instance_oid, result_out.database.columns, loaded,
                f"{data.name}+derived",
            )
            report.flush_dropped_edges = dropped
            flush_span.set(added=added, dropped_edges=dropped)
        report.flush_seconds = flush_span.duration
        if retain:
            # A budget-tripped run discards its engine state; there is
            # nothing consistent to maintain, so retention is dropped.
            self._retained = None
            if not report.truncated:
                self._retained = RetainedMaterialization(
                    schema=schema,
                    sigma=sigma,
                    instance_oid=instance_oid,
                    data=data,
                    result_load=result_in,
                    result_reason=result_sigma,
                    result_flush=result_out,
                    enriched=report.instance.data,
                )
        return report

    # ------------------------------------------------------------------
    # Incremental maintenance (delta-chase instead of re-running Alg. 2)
    # ------------------------------------------------------------------
    def update(self, delta: RegistryDelta) -> UpdateReport:
        """Apply a registry delta to a retained materialization.

        Requires a prior ``materialize(..., retain=True)``.  The plain
        data graph is mutated in place; the three retained chase states
        are maintained with
        :meth:`~repro.vadalog.engine.Engine.apply_delta` (each state's
        net changes feed the next, exactly as the full phases chain).
        Of the flush state's ``I_SM_*`` relations only the rows of the
        constructs its net changes reach are decoded; what differs from
        the enriched graph is the :class:`~repro.deploy.delta.FlushDelta`
        (for bringing deployed stores up to date without a reload), and
        the enriched graph is patched with it in place — the report's
        ``instance`` wraps that one live graph.

        The result is fact-set-identical (up to labeled-null renaming)
        to re-running :meth:`materialize` from scratch on the mutated
        registry — the differential tests pin this down; strata the
        safety analysis cannot maintain incrementally are recomputed
        from their boundary, never approximated.

        A delta the registry rejects raises
        :class:`~repro.errors.SchemaError` with nothing changed.  An
        error after that point (a governor trip in the chase, say)
        leaves the registry and the chase states half-updated, so the
        retained materialization is dropped and the error re-raised:
        the next ``update()`` asks for a fresh ``materialize()`` instead
        of silently diverging from one.
        """
        retained = self._retained
        if retained is None:
            raise EvaluationError(
                "update() needs a prior materialize(..., retain=True)"
            )
        start = perf_counter()
        tracer = self.tracer
        with tracer.span(
            "materialize.update",
            added=len(delta.add_nodes) + len(delta.add_edges),
            removed=len(delta.remove_nodes) + len(delta.remove_edges),
        ) as span:
            schema = retained.schema
            data = retained.data
            ioid = retained.instance_oid

            removed_nodes, removed_edges = self._resolve_removals(data, delta)
            self._validate_additions(
                data,
                delta,
                {r[0] for r in removed_nodes},
                {r[0] for r in removed_edges},
            )

            # Encode both sides as the I_SM_* facts the load phase would
            # have produced (the OIDs are deterministic functions of the
            # element ids, so no chase run is needed to compute them).
            removal = encode_records(schema, ioid, removed_nodes, removed_edges)
            addition = encode_records(
                schema, ioid, delta.add_nodes, delta.add_edges
            )

            try:
                # Mutate the registry graph: the delta's records are a
                # plain-graph patch themselves.
                FlushDelta(
                    added_nodes=delta.add_nodes, added_edges=delta.add_edges,
                    removed_nodes=removed_nodes, removed_edges=removed_edges,
                ).apply_to(data)

                # Chase maintenance: each state's net changes are the
                # next state's extensional delta (load -> reason ->
                # flush views).  Net changes are sets; the encoded
                # facts ride along as lists (those a state already
                # holds are ignored) so that all three states append
                # them in encoder order, the order a from-scratch load
                # gives them and the decoder reads attributes in.
                engine = self.engine
                delta_load = engine.apply_delta(
                    retained.result_load, added=addition, removed=removal,
                )
                delta_reason = engine.apply_delta(
                    retained.result_reason,
                    added={**delta_load.added, **addition},
                    removed=delta_load.removed,
                )
                delta_flush = engine.apply_delta(
                    retained.result_flush,
                    added={**delta_reason.added, **addition},
                    removed=delta_reason.removed,
                )

                # Decode what the flush state's net changes can reach,
                # and no more: those constructs' rows through the one
                # decoder, set against the same elements of the enriched
                # graph, which is then patched in place.  The flush
                # state's extensional I_SM_* facts are the loaded ones:
                # only V_O derives into those relations.
                flush = retained.result_flush
                source, node_ids, edge_ids = delta_source(
                    (delta_flush.added, delta_flush.removed),
                    flush.database.matching,
                )
                touched, _, dropped = decode_relations(
                    schema, ioid, source, flush.state.edb, "touched"
                )
                flush_delta = FlushDelta.between(
                    retained.enriched, touched.data, node_ids, edge_ids
                )
                flush_delta.apply_to(retained.enriched)
            except BaseException:
                self._retained = None
                raise
            flushed = sum(
                len(changes.get(label, ()))
                for changes in (delta_flush.added, delta_flush.removed)
                for label in INSTANCE_LABELS
            )
            tracer.count("incr.flushed_delta", flushed)
            retained.updates_applied += 1
            deltas = (delta_load, delta_reason, delta_flush)
            span.set(
                flushed=flushed,
                dropped_edges=dropped,
                strata_recomputed=sum(d.strata_recomputed for d in deltas),
            )
        return UpdateReport(
            instance=SuperInstance(schema, ioid, retained.enriched),
            delta_load=delta_load,
            delta_reason=delta_reason,
            delta_flush=delta_flush,
            flush_delta=flush_delta,
            flushed=flushed,
            flush_dropped_edges=dropped,
            engine_seconds=sum(d.elapsed_seconds for d in deltas),
            update_seconds=perf_counter() - start,
        )

    @staticmethod
    def _resolve_removals(
        data: PropertyGraph, delta: RegistryDelta
    ) -> "Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]":
        """Full records of every element the delta removes.

        Removing a node implies removing its incident edges (the
        registry cannot hold dangling stakes), so those are folded in.
        Records capture the *current* labels and properties — the same
        values the load phase encoded — before anything is mutated.
        """
        edge_ids = dict.fromkeys(delta.remove_edges)
        for edge_id in edge_ids:
            if not data.has_edge(edge_id):
                raise SchemaError(f"cannot remove unknown edge {edge_id!r}")
        node_ids = dict.fromkeys(delta.remove_nodes)
        for node_id in node_ids:
            if not data.has_node(node_id):
                raise SchemaError(f"cannot remove unknown node {node_id!r}")
            edge_ids.update(dict.fromkeys(
                edge.id
                for edge in (*data.out_edges(node_id), *data.in_edges(node_id))
            ))
        return (
            [node_record(data, node_id) for node_id in node_ids],
            [edge_record(data, edge_id) for edge_id in edge_ids],
        )

    @staticmethod
    def _validate_additions(
        data: PropertyGraph,
        delta: RegistryDelta,
        removed_node_ids: set,
        removed_edge_ids: set,
    ) -> None:
        added: Dict[str, set] = {"node": set(), "edge": set()}
        for kind, records, exists, removed in (
            ("node", delta.add_nodes, data.has_node, removed_node_ids),
            ("edge", delta.add_edges, data.has_edge, removed_edge_ids),
        ):
            for new_id, *_rest in records:
                if new_id in added[kind]:
                    raise SchemaError(
                        f"{kind} {new_id!r} is added twice in one delta"
                    )
                added[kind].add(new_id)
                if exists(new_id) and new_id not in removed:
                    raise SchemaError(
                        f"cannot add {kind} {new_id!r}: it already exists "
                        "(remove it in the same delta to replace it)"
                    )
        for edge_id, source, target, _type_name, _properties in delta.add_edges:
            for endpoint in (source, target):
                if endpoint not in added["node"] and (
                    endpoint in removed_node_ids or not data.has_node(endpoint)
                ):
                    raise SchemaError(
                        f"edge {edge_id!r} references missing node "
                        f"{endpoint!r}"
                    )

    @staticmethod
    def _merge_status(report: MaterializationReport, result) -> None:
        """Fold one phase's engine status into the report (first trip wins)."""
        if result.status != STATUS_FIXPOINT and not report.truncated:
            report.status = result.status
            report.violation = result.violation
