"""Sinks: where coalesced delta batches land.

Two levels, matching the two feed-record shapes:

- :class:`MaterializerSink` — the SSST path.  Registry-level changes
  (nodes/edges of the plain data graph) drive
  :meth:`~repro.ssst.materializer.IntensionalMaterializer.update` over a
  retained materialization, and the resulting
  :class:`~repro.deploy.delta.FlushDelta` is pushed to any attached
  deployment targets (graph store, triple store, relational engine)
  through a :class:`~repro.deploy.resilience.RetryPolicy`.
- :class:`ServeStateSink` — the serve path.  Fact-level changes
  (extensional Vadalog facts) drive
  :meth:`~repro.serve.state.ServeState.apply_delta`; every applied
  batch publishes a new snapshot epoch.

Both expose the same protocol to :class:`~repro.stream.pipeline.DeltaStream`:

``mode``
    ``"registry"`` or ``"fact"`` — selects strict vs tolerant
    coalescing.
``fingerprint_material()``
    A stable string binding the sink to its *inputs* (schema, program,
    instance OID — never the mutable data), hashed into the stream
    checkpoint fingerprint.
``validate(record)``
    Per-record admission check; a non-None reason quarantines the
    record before it reaches the coalescer.
``exists(key)``
    Membership oracle for the coalescer's base state.
``apply(batch, quarantine)``
    Apply one coalesced batch; per-operation constraint violations are
    quarantined, sink-level failures raise.
``state_payload()`` / ``restore(payload)`` / ``bootstrap()``
    Crash-safe resume: the payload captures the durable inputs (the
    registry graph / the extensional facts) with the
    :mod:`repro.ssst.checkpoint` codec; ``restore`` swaps them in
    before ``bootstrap`` rebuilds the derived state from scratch.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.loaders import load_graph_store, load_triple_store
from repro.deploy.resilience import QuarantineReport, RetryPolicy, no_retry
from repro.errors import SchemaError, StreamError
from repro.graph.property_graph import PropertyGraph
from repro.obs.tracer import NullTracer, Tracer
from repro.ssst.checkpoint import (
    decode_value,
    encode_value,
    graph_payload,
    restore_graph,
)
from repro.ssst.incremental import RegistryDelta
from repro.ssst.inverse import collect_relational_rows
from repro.ssst.materializer import IntensionalMaterializer
from repro.stream.coalesce import CoalescedBatch
from repro.stream.feed import FACT_OPS, REGISTRY_OPS, FeedRecord
from repro.vadalog.terms import fact_sort_key

__all__ = [
    "ApplyResult",
    "MaterializerSink",
    "ServeStateSink",
    "GraphStoreTarget",
    "TripleStoreTarget",
    "RelationalEngineTarget",
]


@dataclass
class ApplyResult:
    """What one batch did to the sink."""

    operations: int = 0  # net operations applied
    dropped: int = 0  # operations quarantined at apply time
    engine_seconds: float = 0.0
    facts_added: int = 0
    facts_removed: int = 0
    #: Serve sink: the snapshot epoch the batch published.
    epoch: Optional[int] = None
    #: Registry sink: plain-graph changes pushed to deployed targets.
    flush_changes: int = 0


# ----------------------------------------------------------------------
# Deployment targets for the registry sink
# ----------------------------------------------------------------------
class GraphStoreTarget:
    """A deployed property-graph store kept current per batch."""

    def __init__(self, store: Any, schema: Any):
        self.store = store
        self.schema = schema

    @property
    def name(self) -> str:
        return getattr(self.store, "name", "graph-store")

    def load_full(self, enriched: PropertyGraph) -> None:
        load_graph_store(self.schema, enriched, self.store)

    def apply(self, update: Any) -> None:
        if update.flush_delta is not None and update.flush_delta.changed():
            self.store.apply_flush_delta(update.flush_delta, schema=self.schema)


class TripleStoreTarget:
    """A deployed RDF triple store kept current per batch."""

    def __init__(self, store: Any, schema: Any):
        self.store = store
        self.schema = schema

    @property
    def name(self) -> str:
        return getattr(self.store, "name", "triple-store")

    def load_full(self, enriched: PropertyGraph) -> None:
        load_triple_store(self.schema, enriched, self.store)

    def apply(self, update: Any) -> None:
        if update.flush_delta is not None and update.flush_delta.changed():
            self.store.apply_flush_delta(update.flush_delta, schema=self.schema)


class RelationalEngineTarget:
    """A deployed relational engine maintained by row-image diffing.

    The relational layout is *not* element-local — one graph node fans
    out to one row per hierarchy member, edge FKs merge into entity
    rows, M:N edges become bridge rows — so a :class:`FlushDelta` cannot
    be applied record-by-record.  Instead the target caches the full row
    image of the enriched instance (as per-table row multisets) and per
    batch diffs it against the next image; the delta applies through one
    ``apply_flush_delta`` call under a savepoint, so transient faults
    and retries see all-or-nothing batches.

    Two relational-only wrinkles the diff resolves:

    - ``delete`` removes *every* matching row, so a multiset count
      change ``n -> m`` with ``m > 0`` becomes one delete plus ``m``
      re-inserts;
    - per-delete FK RESTRICT checks mean a referenced row cannot be
      replaced while its referencing rows exist, so removals cascade to
      the (unchanged, re-inserted) referencing rows, tables are deleted
      referencing-first, and the inserts run under deferred constraints.
    """

    def __init__(self, engine: Any, schema: Any):
        self.engine = engine
        self.schema = schema
        #: table -> Counter of canonical row keys (the current image).
        self._image: Dict[str, Counter] = {}
        #: (table, key) -> full row dict (every column, None default).
        self._row_of: Dict[Tuple[str, Tuple[Any, ...]], Dict[str, Any]] = {}

    @property
    def name(self) -> str:
        return getattr(self.engine, "name", "rdbms")

    # -- row canonicalization ------------------------------------------
    def _columns(self, table: str) -> List[str]:
        return [c.name for c in self.engine.table_schema(table).columns]

    def _compute_image(self, enriched: PropertyGraph):
        rows = collect_relational_rows(self.schema, enriched)
        image: Dict[str, Counter] = {}
        row_of: Dict[Tuple[str, Tuple[Any, ...]], Dict[str, Any]] = {}
        for table, table_rows in rows.items():
            columns = self._columns(table)
            counter = image.setdefault(table, Counter())
            for row in table_rows:
                full = {name: row.get(name) for name in columns}
                key = tuple(full[name] for name in columns)
                counter[key] += 1
                row_of[(table, key)] = full
        return image, row_of

    def _delete_order(self) -> List[str]:
        """Tables ordered so FK sources come before their targets."""
        tables = self.engine.tables()
        dependents: Dict[str, set] = {t: set() for t in tables}
        indegree: Dict[str, int] = {t: 0 for t in tables}
        for fk in self.engine.foreign_keys():
            if fk.source_table == fk.target_table:
                continue
            if fk.target_table not in dependents[fk.source_table]:
                dependents[fk.source_table].add(fk.target_table)
                indegree[fk.target_table] += 1
        order: List[str] = []
        ready = sorted(t for t in tables if indegree[t] == 0)
        while ready:
            table = ready.pop(0)
            order.append(table)
            for downstream in sorted(dependents[table]):
                indegree[downstream] -= 1
                if indegree[downstream] == 0:
                    ready.append(downstream)
            ready.sort()
        for table in tables:  # FK cycles: fall back to name order
            if table not in order:
                order.append(table)
        return order

    # -- protocol ------------------------------------------------------
    def load_full(self, enriched: PropertyGraph) -> None:
        image, row_of = self._compute_image(enriched)
        with self.engine.deferred():
            for table in sorted(image):
                counter = image[table]
                batch = []
                for key, count in counter.items():
                    batch.extend([dict(row_of[(table, key)])] * count)
                if batch:
                    self.engine.insert_many(table, batch)
        self._image, self._row_of = image, row_of

    def apply(self, update: Any) -> None:
        new_image, new_row_of = self._compute_image(update.instance.data)

        # Keys whose multiset count changed: delete once (removes every
        # copy), re-insert the surviving count.
        removed_keys: set = set()
        inserts: Counter = Counter()  # (table, key) -> copies to insert
        tables = set(self._image) | set(new_image)
        for table in tables:
            old = self._image.get(table, Counter())
            new = new_image.get(table, Counter())
            for key in set(old) | set(new):
                before, after = old.get(key, 0), new.get(key, 0)
                if before == after:
                    continue
                if before:
                    removed_keys.add((table, key))
                if after:
                    inserts[(table, key)] = after

        # Cascade: existing rows whose FK references a removed row must
        # be removed (and re-inserted unchanged) too, or the per-delete
        # RESTRICT check rejects the replace.
        foreign_keys = self.engine.foreign_keys()
        changed = True
        while changed:
            changed = False
            for fk in foreign_keys:
                gone = {
                    tuple(
                        self._row_of[(t, k)].get(c) for c in fk.target_columns
                    )
                    for (t, k) in removed_keys
                    if t == fk.target_table
                }
                gone.discard(tuple([None] * len(fk.target_columns)))
                if not gone:
                    continue
                source_table = fk.source_table
                for key, count in self._image.get(
                    source_table, Counter()
                ).items():
                    entry = (source_table, key)
                    if entry in removed_keys:
                        continue
                    row = self._row_of[entry]
                    values = tuple(row.get(c) for c in fk.source_columns)
                    if values in gone:
                        removed_keys.add(entry)
                        survivors = new_image.get(source_table, Counter()).get(
                            key, 0
                        )
                        if survivors:
                            inserts[entry] = survivors
                        changed = True

        if not removed_keys and not inserts:
            self._image, self._row_of = new_image, new_row_of
            return

        removed: Dict[str, List[Dict[str, Any]]] = {}
        for table in self._delete_order():
            batch = [
                dict(self._row_of[(t, k)])
                for (t, k) in sorted(removed_keys, key=fact_sort_key)
                if t == table
            ]
            if batch:
                removed[table] = batch
        added: Dict[str, List[Dict[str, Any]]] = {}
        for (table, key), count in sorted(
            inserts.items(), key=fact_sort_key
        ):
            row_source = new_row_of if (table, key) in new_row_of else self._row_of
            added.setdefault(table, []).extend(
                dict(row_source[(table, key)]) for _ in range(count)
            )

        savepoint = self.engine.savepoint()
        try:
            with self.engine.deferred():
                self.engine.apply_flush_delta(added=added, removed=removed)
        except Exception:
            self.engine.rollback_to(savepoint)
            raise
        finally:
            self.engine.release(savepoint)
        self._image, self._row_of = new_image, new_row_of


# ----------------------------------------------------------------------
# Registry sink
# ----------------------------------------------------------------------
class MaterializerSink:
    """Registry-level changes maintained through the incremental chase.

    ``data`` is the live registry graph (mutated in place by updates);
    ``bootstrap()`` materializes it with ``retain=True`` and fully loads
    every attached target from the enriched instance.  Per batch,
    :meth:`apply` builds a :class:`~repro.ssst.incremental.RegistryDelta`
    (quarantining operations that would violate referential integrity),
    runs ``materializer.update``, and pushes the flush delta to each
    target through the retry policy.  The chase update itself is never
    retried: a delta the registry rejects raises before anything is
    mutated, and an error past that point (a governor trip, say) makes
    the materializer drop its retained state, so the next ``update()``
    raises :class:`~repro.errors.EvaluationError` until the registry is
    materialized again — it never continues from a half-applied delta.
    """

    mode = "registry"

    def __init__(
        self,
        schema: Any,
        sigma: Any,
        data: PropertyGraph,
        *,
        instance_oid: Any = 1,
        materializer: Optional[IntensionalMaterializer] = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.schema = schema
        self.sigma = sigma
        self.data = data
        self.instance_oid = instance_oid
        self.materializer = materializer or IntensionalMaterializer()
        self.retry = retry or no_retry()
        self.tracer = tracer or NullTracer()
        self.targets: List[Any] = []
        self.batches_applied = 0

    # -- targets -------------------------------------------------------
    def attach_graph_store(self, store: Any) -> GraphStoreTarget:
        target = GraphStoreTarget(store, self.schema)
        self.targets.append(target)
        return target

    def attach_triple_store(self, store: Any) -> TripleStoreTarget:
        target = TripleStoreTarget(store, self.schema)
        self.targets.append(target)
        return target

    def attach_relational_engine(self, engine: Any) -> RelationalEngineTarget:
        target = RelationalEngineTarget(engine, self.schema)
        self.targets.append(target)
        return target

    # -- lifecycle -----------------------------------------------------
    def fingerprint_material(self) -> str:
        schema_graph = self.schema.to_dictionary(PropertyGraph("fingerprint"))
        return json.dumps(
            {
                "mode": self.mode,
                "schema": graph_payload(schema_graph),
                "sigma": repr(self.sigma),
                "instance_oid": repr(self.instance_oid),
            },
            sort_keys=True,
        )

    def state_payload(self) -> Dict[str, Any]:
        return {"registry": graph_payload(self.data)}

    def store_rows(self) -> Dict[str, int]:
        """Live and tombstoned rows of the three retained databases."""
        kept = self.materializer.retained
        runs = (kept.result_load, kept.result_reason, kept.result_flush) if kept else ()
        return {"live_rows": sum(r.database.total_facts() for r in runs),
                "dead_rows": sum(r.database.dead_rows() for r in runs)}

    def restore(self, payload: Dict[str, Any]) -> None:
        try:
            self.data = restore_graph(payload["registry"])
        except (KeyError, TypeError) as exc:
            raise StreamError(
                f"stream checkpoint state is not a registry payload: {exc}"
            ) from exc

    def bootstrap(self) -> None:
        """Materialize the registry and fully load every target."""
        report = self.materializer.materialize(
            self.schema,
            self.data,
            self.sigma,
            instance_oid=self.instance_oid,
            retain=True,
        )
        if report.truncated or self.materializer.retained is None:
            raise StreamError(
                "base materialization was truncated by a resource budget; "
                "a stream cannot maintain partial state"
            )
        for target in self.targets:
            self.retry.call(
                lambda target=target: target.load_full(report.instance.data),
                tracer=self.tracer,
            )

    # -- coalescer oracle ----------------------------------------------
    def exists(self, key: Tuple[Any, ...]) -> bool:
        kind = key[0]
        if kind == "node":
            return self.data.has_node(key[1])
        if kind == "edge":
            return self.data.has_edge(key[1])
        return False

    def validate(self, record: FeedRecord) -> Optional[str]:
        if record.op not in REGISTRY_OPS:
            return f"op {record.op!r} is not a registry operation"
        if record.op == "add_node":
            type_name = record.payload.get("type")
            if not self.schema.has_node(type_name):
                return f"unknown node type {type_name!r}"
        elif record.op == "add_edge":
            type_name = record.payload.get("type")
            if not self.schema.has_edge(type_name):
                return f"unknown edge type {type_name!r}"
        return None

    # -- batch application ---------------------------------------------
    def _registry_delta(
        self, batch: CoalescedBatch, quarantine: QuarantineReport
    ) -> Tuple[RegistryDelta, int]:
        delta = RegistryDelta()
        dropped = 0
        added_node_ids: set = set()
        gone_node_ids: set = set()
        edge_operations = []
        for net, key, payload in batch.operations:
            if key[0] == "edge":
                edge_operations.append((net, key, payload))
                continue
            node_id = key[1]
            if net in ("remove", "replace"):
                delta.remove_nodes.append(node_id)
            if net in ("add", "replace"):
                added_node_ids.add(node_id)
                delta.add_nodes.append(
                    (
                        node_id,
                        payload["type"],
                        dict(payload.get("properties", {})),
                    )
                )
            else:
                gone_node_ids.add(node_id)
        for net, key, payload in edge_operations:
            edge_id = key[1]
            if net in ("remove", "replace"):
                delta.remove_edges.append(edge_id)
            if net not in ("add", "replace"):
                continue
            source, target = payload["source"], payload["target"]
            missing = None
            for endpoint in (source, target):
                present = endpoint in added_node_ids or (
                    self.data.has_node(endpoint)
                    and endpoint not in gone_node_ids
                )
                if not present:
                    missing = endpoint
                    break
            if missing is not None:
                # A rejected replace degrades to the removal alone.
                quarantine.reject(
                    "edge", payload, f"references missing node {missing!r}"
                )
                dropped += 1
                continue
            delta.add_edges.append(
                (
                    edge_id,
                    source,
                    target,
                    payload["type"],
                    dict(payload.get("properties", {})),
                )
            )
        return delta, dropped

    def apply(
        self, batch: CoalescedBatch, quarantine: QuarantineReport
    ) -> ApplyResult:
        delta, dropped = self._registry_delta(batch, quarantine)
        result = ApplyResult(
            operations=len(batch.operations) - dropped, dropped=dropped
        )
        if delta.is_empty():
            return result
        update = self.materializer.update(delta)
        result.engine_seconds = update.engine_seconds
        for report in (update.delta_load, update.delta_reason, update.delta_flush):
            if report is None:
                continue
            result.facts_added += sum(len(v) for v in report.added.values())
            result.facts_removed += sum(len(v) for v in report.removed.values())
        if update.flush_delta is not None:
            result.flush_changes = update.flush_delta.total_changes
        for target in self.targets:
            self.retry.call(
                lambda target=target: target.apply(update),
                tracer=self.tracer,
            )
        self.batches_applied += 1
        return result


# ----------------------------------------------------------------------
# Serve sink
# ----------------------------------------------------------------------
class ServeStateSink:
    """Fact-level changes applied to a serving snapshot state.

    Either wraps an already-running :class:`~repro.serve.state.ServeState`
    (the ``kgmodel serve --feed`` path) or builds one at bootstrap from
    ``program``/``inputs`` (the ``kgmodel stream`` serve mode).  Every
    applied batch advances the snapshot epoch by exactly one.
    """

    mode = "fact"

    def __init__(
        self,
        state: Any = None,
        *,
        program: Any = None,
        inputs: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if state is None and program is None:
            raise ValueError("ServeStateSink needs a state or a program")
        self.state = state
        if program is None:
            program = state.program
        elif isinstance(program, str):
            # Parse up front so the checkpoint fingerprint binds to the
            # canonical program text, not to incidental formatting — a
            # restart that passes the same rules with different
            # whitespace must still resume.
            from repro.vadalog.parser import parse_program

            program = parse_program(program)
        self._program = program
        self._inputs = inputs
        self.tracer = tracer or NullTracer()
        self.batches_applied = 0
        self._idb: Optional[set] = None

    # -- lifecycle -----------------------------------------------------
    def fingerprint_material(self) -> str:
        return json.dumps(
            {"mode": self.mode, "program": str(self._program)}, sort_keys=True
        )

    def store_rows(self) -> Dict[str, int]:
        return self.state.store_rows() if self.state is not None else {}

    def state_payload(self) -> Dict[str, Any]:
        snapshot = self.state.snapshot
        return {
            "edb": {
                predicate: [
                    [encode_value(term) for term in fact]
                    for fact in sorted(bucket, key=fact_sort_key)
                ]
                for predicate, bucket in snapshot.edb.items()
            }
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        try:
            inputs = {
                predicate: [
                    tuple(decode_value(term) for term in fact)
                    for fact in bucket
                ]
                for predicate, bucket in payload["edb"].items()
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise StreamError(
                f"stream checkpoint state is not an edb payload: {exc}"
            ) from exc
        if self.state is None:
            self._inputs = inputs
            return
        # A live server already handed its ServeState to the HTTP
        # handlers; reconcile the extensional facts in place (one delta)
        # instead of rebuilding, so those references stay valid.
        snapshot = self.state.snapshot
        current = {
            (predicate, fact)
            for predicate, bucket in snapshot.edb.items()
            for fact in bucket
        }
        target = {
            (predicate, fact)
            for predicate, facts in inputs.items()
            for fact in facts
        }
        added: Dict[str, List[Tuple[Any, ...]]] = {}
        removed: Dict[str, List[Tuple[Any, ...]]] = {}
        for predicate, fact in target - current:
            added.setdefault(predicate, []).append(fact)
        for predicate, fact in current - target:
            removed.setdefault(predicate, []).append(fact)
        if added or removed:
            self.state.apply_delta(added=added or None, removed=removed or None)

    def bootstrap(self) -> None:
        if self.state is None:
            from repro.serve.state import ServeState

            self.state = ServeState(self._program, inputs=self._inputs)

    # -- coalescer oracle ----------------------------------------------
    def exists(self, key: Tuple[Any, ...]) -> bool:
        return tuple(key[2]) in self.state.snapshot.edb.get(key[1], ())

    def validate(self, record: FeedRecord) -> Optional[str]:
        if record.op not in FACT_OPS:
            return f"op {record.op!r} is not a fact operation"
        predicate = record.payload["predicate"]
        if self._idb is None:
            self._idb = set(self.state.program.idb_predicates())
        if predicate in self._idb:
            return f"{predicate!r} is derived; only extensional facts stream"
        arity = self.state.snapshot.arity(predicate)
        if arity is not None and len(record.payload["fact"]) != arity:
            return (
                f"arity mismatch for {predicate!r}: expected {arity}, "
                f"got {len(record.payload['fact'])}"
            )
        return None

    # -- batch application ---------------------------------------------
    def apply(
        self, batch: CoalescedBatch, quarantine: QuarantineReport
    ) -> ApplyResult:
        added: Dict[str, List[Tuple[Any, ...]]] = {}
        removed: Dict[str, List[Tuple[Any, ...]]] = {}
        applied = 0
        for net, key, _payload in batch.operations:
            predicate, fact = key[1], tuple(key[2])
            if net == "add":
                added.setdefault(predicate, []).append(fact)
            elif net == "remove":
                removed.setdefault(predicate, []).append(fact)
            else:
                # remove + re-add of the same fact: nets to "still
                # present" — nothing for the engine to do.
                continue
            applied += 1
        result = ApplyResult(operations=applied)
        if not added and not removed:
            return result
        delta = self.state.apply_delta(added=added or None, removed=removed or None)
        result.engine_seconds = getattr(delta, "elapsed_seconds", 0.0)
        result.facts_added = sum(len(v) for v in delta.added.values())
        result.facts_removed = sum(len(v) for v in delta.removed.values())
        result.epoch = self.state.snapshot.epoch
        self.batches_applied += 1
        return result
