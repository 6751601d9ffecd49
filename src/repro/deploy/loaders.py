"""Transactional instance loaders for the non-relational target systems.

These are the instance-level halves of the Copy mappings: they push a
plain typed property graph (an instance of a super-schema) into a
deployed target system, validated against the translated schema.

Since the resilience rework the loaders are *staged, transactional, and
idempotent*:

- **stage, then apply** — every record is first validated against the
  super-schema (unknown/missing labels are counted and quarantined, no
  longer silently dropped), then applied in batches under store
  savepoints;
- **adopt, or go record by record** — the graph loader has two paths.
  An empty store whose graph can share the instance's codes *adopts*
  the instance: every check of the per-record writes runs, label group
  by label group on code columns, and the store takes over a copy of the
  instance's graph instead of writing it a second time.  Every other
  load — into a store that already holds records (replay), a store that
  offers no ``adopt`` (a fault-injecting one: faults are per mutation),
  of an instance that cannot be adopted, or the graceful re-run of a
  refused adoption — writes record by record.  The path is chosen from
  the store, its state, the instance and the outcome, never by a switch
  or a policy;
- **retry with backoff** — a transient failure
  (:class:`~repro.errors.TransientDeploymentError`, e.g. from a
  :class:`~repro.deploy.resilience.FaultInjector`) of a write — an
  adoption or one mutation — is retried under the
  caller's :class:`~repro.deploy.resilience.RetryPolicy`, and a batch
  that fails for good is rolled back;
- **graceful degradation** — in ``mode="graceful"`` a per-record
  integrity violation lands in the :class:`~repro.deploy.resilience.QuarantineReport`
  instead of aborting; ``mode="strict"`` (the default) preserves the
  historical fail-fast semantics and additionally rolls the *entire*
  load back, so a failed strict load leaves the store untouched;
- **idempotent replay** — records already present in the store (from a
  crashed earlier attempt) are detected and skipped, so re-running a
  load after a crash converges on exactly the clean-load state.

Returned reports stay unpack-compatible with the historical returns
(``(nodes, edges)`` tuple / asserted-triple int).
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.schema import SuperSchema
from repro.deploy.graph_store import node_labels
from repro.deploy.resilience import (
    GRACEFUL,
    STRICT,
    LoadReport,
    QuarantineReport,
    Rejection,
    RetryPolicy,
    TripleLoadReport,
    no_retry,
)
from repro.deploy.triple_store import TripleLayout
from repro.errors import DeploymentError, GraphError, IntegrityError
from repro.graph.property_graph import ABSENT, PropertyGraph, property_rows
from repro.obs.tracer import Tracer

#: Default number of records per transactional batch.
DEFAULT_BATCH_SIZE = 200


def _check_mode(mode: str) -> None:
    if mode not in (STRICT, GRACEFUL):
        raise DeploymentError(f"unknown load mode {mode!r} (strict|graceful)")


class _Batcher:
    """Shared batch runner: savepoint per attempt, retry on transients."""

    def __init__(
        self,
        store: Any,
        mode: str,
        policy: RetryPolicy,
        tracer: Optional[Tracer],
    ):
        self.store = store
        self.mode = mode
        self.policy = policy
        self.tracer = tracer
        self.batches = 0
        self.retries = 0
        self.rollbacks = 0
        self.rejections: List[Rejection] = []

    def mutate(self, operation):
        """Run one store write — an adoption or one mutation — under the
        retry policy.

        A transient failure is raised *before* the write applies (nothing
        is half-written), so retrying is simply calling the write again
        after the policy's backoff — no rollback needed at this
        granularity.
        """
        if self.policy.max_attempts == 1:
            return operation()

        def bump_retries(attempt_no: int, error: BaseException) -> None:
            self.retries += 1

        return self.policy.call(
            operation, tracer=self.tracer, on_retry=bump_retries
        )

    def run(self, batch: List[Any], apply_record) -> Dict[str, int]:
        """Apply one batch under a savepoint; returns merged record counts.

        ``apply_record(record, counts, mutate)`` receives :meth:`mutate`
        to wrap each individual store call.  The batch savepoint guards
        the permanent failures — an integrity violation (strict mode),
        an injected crash, or retry exhaustion rolls the whole in-flight
        batch back, so only complete batches are ever committed.
        """
        savepoint = self.store.savepoint()
        counts: Dict[str, int] = {}
        rejections: List[Rejection] = []
        try:
            for record in batch:
                try:
                    apply_record(record, counts, self.mutate)
                except (IntegrityError, GraphError) as exc:
                    if self.mode != GRACEFUL:
                        raise
                    rejections.append(
                        Rejection(record[0], _describe(record), str(exc))
                    )
        except BaseException:
            self.store.rollback_to(savepoint)
            self.rollbacks += 1
            if self.tracer is not None:
                self.tracer.count("deploy.rollbacks", 1)
            raise
        finally:
            self.store.release(savepoint)
        self.batches += 1
        self.rejections.extend(rejections)
        if rejections and self.tracer is not None:
            self.tracer.count("deploy.quarantined", len(rejections))
        return counts


def _describe(record: Tuple[Any, ...]) -> Dict[str, Any]:
    """A JSON-able description of a staged record for quarantine files."""
    kind = record[0]
    if kind == "node":
        _, node_id, labels, _properties = record
        return {"id": node_id, "label": labels[0], "labels": labels}
    if kind == "edge":
        _, edge_id, source, target, label, _properties, _replay = record
        return {"id": edge_id, "source": source, "target": target, "label": label}
    if kind == "triples":
        _, subject, triples = record
        return {"subject": subject, "triples": [list(t) for t in triples]}
    return {"record": str(record)}


def _chunks(records: List[Any], size: int) -> List[List[Any]]:
    return [records[i : i + size] for i in range(0, len(records), size)]


# ----------------------------------------------------------------------
# Graph store
# ----------------------------------------------------------------------
#: Why a load went through the per-record path.
REPLAY = "replay"
NO_BULK_WRITER = "no-bulk-writer"
NOT_ADOPTABLE = "not-adoptable"
INTEGRITY_FALLBACK = "integrity-fallback"


def _reject_unknown_label(
    quarantine: QuarantineReport, kind: str, element: Any
) -> None:
    """Quarantine a node or edge whose label is not a type of the schema."""
    record = {"id": element.id, "label": element.label}
    if kind == "edge":
        record = {
            "id": element.id, "source": element.source,
            "target": element.target, "label": element.label,
        }
    quarantine.reject(
        kind, record, f"label {element.label!r} is not in the schema"
    )


def _rows(table: Tuple[Any, ...], names: Tuple[str, ...]) -> Tuple[Any, ...]:
    """A ``nodes_table`` / ``edges_table`` result with its value
    columns as one properties dict per row."""
    *ends, columns = table
    return (*ends, property_rows(len(ends[0]), names, columns))


def _replay_key(source, target, label, properties) -> Tuple[Any, ...]:
    return (source, target, label, tuple(sorted(properties.items())))


def load_graph_store(
    schema: SuperSchema,
    data: PropertyGraph,
    store: Any,
    tracer: Optional[Tracer] = None,
    *,
    mode: str = STRICT,
    policy: Optional[RetryPolicy] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    quarantine: Optional[QuarantineReport] = None,
) -> LoadReport:
    """Load a typed instance into a schema-enforcing graph store.

    Nodes are multi-tagged with their type plus every ancestor type (the
    instance-level counterpart of the multi-label strategy's type
    accumulation).  Returns a :class:`~repro.deploy.resilience.LoadReport`
    (unpacks as the historical ``(nodes, relationships)`` pair).

    A load takes one of two paths.  Into an empty store, a columnar
    instance without boxed values and with every label in the schema is
    adopted: ``store.adopt`` runs every check of the per-record writes on
    the instance's label groups, read as code columns, and takes over a
    copy of the instance's graph — one batch.  A refused check raises
    (``mode="strict"``) what the per-record writes would raise, with the
    store untouched.  Every other load goes record by record, node
    labels first, in batches of ``batch_size``, for one reason:

    - ``no-bulk-writer``: the store (a
      :class:`~repro.deploy.resilience.FaultInjector`) offers no
      ``adopt`` — a fault is injected and retried per mutation;
    - ``replay``: the store already holds elements, so records are
      matched against it;
    - ``not-adoptable``: the instance does not share the store graph's
      codes, or holds an element with no label or one outside the schema;
    - ``integrity-fallback``: ``mode="graceful"`` and the adoption was
      refused, so the records go one by one to quarantine the offenders
      and load the rest.

    The report says which ran (``adopted_rows``, ``per_record``), as do
    the ``deploy.load_adopted_rows`` / ``deploy.load_per_record``
    counters and the ``deploy.flush`` span's ``path`` (``adopted`` or
    ``written``).  ``policy`` retries each write on a transient fault,
    whichever path wrote it.
    """
    _check_mode(mode)
    policy = policy if policy is not None else no_retry()
    tracer = tracer if tracer is not None else getattr(store, "tracer", None)
    report = LoadReport(mode=mode)
    if quarantine is not None:
        report.quarantine = quarantine
    span = tracer.span("deploy.flush", store=store.name) if tracer else nullcontext()
    with span:
        graph = store.graph
        batcher = _Batcher(store, mode, policy, tracer)
        # Replay detection compares edge multiplicities against what the
        # store already holds: a fresh load builds no replay key at all.
        existing_multiplicity: Dict[Tuple[Any, ...], int] = {}
        for held in graph.edges():
            key = _replay_key(held.source, held.target, held.label, held.properties)
            existing_multiplicity[key] = existing_multiplicity.get(key, 0) + 1
        edge_multiplicity: Dict[Tuple[Any, ...], int] = {}
        node_types = [label for label in data.node_labels() if schema.has_node(label)]
        edge_types = [label for label in data.edge_labels() if schema.has_edge(label)]

        def adopt() -> Optional[str]:
            """None when the store took the instance over; otherwise why
            the load goes record by record."""
            if not hasattr(store, "adopt"):
                return NO_BULK_WRITER
            held = graph.node_count or graph.edge_count
            # Into an empty store's graph, which takes the data's value
            # dictionary over, label tables cross as code columns.
            if not held and getattr(graph, "share_codes", lambda _data: False)(data):
                node_groups = []
                for label in node_types:
                    names = tuple(data.node_property_names(label))
                    ids, columns = data.node_code_table(label, names)
                    node_groups.append((node_labels(schema, label), ids, names, columns))
                edge_groups = []
                for label in edge_types:
                    names = tuple(data.edge_property_names(label))
                    _ids, sources, targets, columns = data.edge_code_table(label, names)
                    edge_groups.append((label, sources, targets, names, columns))
                try:
                    if batcher.mutate(
                        partial(store.adopt, data, node_groups, edge_groups)
                    ):
                        return None
                except IntegrityError:
                    if mode != GRACEFUL:
                        raise
                    return INTEGRITY_FALLBACK
            return REPLAY if held else NOT_ADOPTABLE

        def node_records(label: str):
            labels = node_labels(schema, label)
            names = tuple(data.node_property_names(label))
            return (
                ("node", node_id, labels, properties)
                for node_id, properties in zip(*_rows(
                    data.nodes_table(label, names, default=ABSENT), names,
                ))
            )

        def edge_records(label: str):
            names = tuple(data.edge_property_names(label))
            for edge_id, source, target, properties in zip(*_rows(
                data.edges_table(label, names, default=ABSENT), names,
            )):
                replay = None
                if existing_multiplicity:
                    key = _replay_key(source, target, label, properties)
                    replay = (key, edge_multiplicity.get(key, 0))
                    edge_multiplicity[key] = replay[1] + 1
                yield ("edge", edge_id, source, target, label,
                       properties, replay)

        def replay_skipped(counts: Dict[str, int]) -> None:
            counts["replayed"] = counts.get("replayed", 0) + 1
            if tracer is not None:
                tracer.count("deploy.replay_skipped", 1)

        def apply_node(record, counts: Dict[str, int], mutate) -> None:
            _, node_id, labels, properties = record
            if graph.has_node(node_id):
                replay_skipped(counts)
                return
            mutate(lambda: store.create_node(node_id, labels, **properties))
            counts["written"] = counts.get("written", 0) + 1

        def apply_edge(record, counts: Dict[str, int], mutate) -> None:
            _, _edge_id, source, target, label, properties, replay = record
            if replay and existing_multiplicity.get(replay[0], 0) > replay[1]:
                replay_skipped(counts)
                return
            mutate(
                lambda: store.create_relationship(
                    source, target, label, **properties
                )
            )
            counts["written"] = counts.get("written", 0) + 1

        def write(kind: str, labels, records, apply_record, elements,
                  total: int) -> Tuple[int, int]:
            """Write every record of one kind one by one, and quarantine
            the elements of no label or one outside the schema.  Returns
            how many of each."""
            pending = [record for label in labels for record in records(label)]
            written = 0
            for batch in _chunks(pending, batch_size):
                counts = batcher.run(batch, apply_record)
                written += counts.get("written", 0)
                report.replayed += counts.get("replayed", 0)
            if len(pending) != total:
                in_schema = schema.has_node if kind == "node" else schema.has_edge
                for element in elements():
                    if element.label is None or not in_schema(element.label):
                        _reject_unknown_label(report.quarantine, kind, element)
            return written, total - len(pending)

        load_savepoint = store.savepoint()
        try:
            reason = adopt()
            if reason is None:
                report.nodes, report.edges = data.node_count, data.edge_count
                report.adopted_rows = report.nodes + report.edges
                batcher.batches += 1
            else:
                report.nodes, report.skipped_nodes = write(
                    "node", node_types, node_records, apply_node,
                    data.nodes, data.node_count,
                )
                report.edges, report.skipped_edges = write(
                    "edge", edge_types, edge_records, apply_edge,
                    data.edges, data.edge_count,
                )
                staged = data.node_count + data.edge_count - report.skipped
                if staged:
                    report.per_record[reason] = staged
        except (IntegrityError, GraphError):
            # Strict mode: an integrity violation anywhere voids the
            # whole load — committed batches included — before raising.
            store.rollback_to(load_savepoint)
            if tracer is not None:
                tracer.count("deploy.rollbacks", 1)
            raise
        finally:
            store.release(load_savepoint)
        report.batches = batcher.batches
        report.retries = batcher.retries
        report.rollbacks = batcher.rollbacks
        report.quarantine.extend(batcher.rejections)
        if tracer:
            tracer.count("deploy.load_adopted_rows", report.adopted_rows)
            tracer.count("deploy.load_per_record", sum(report.per_record.values()))
            span.set(
                path="adopted" if report.adopted_rows else "written",
                nodes=report.nodes,
                relationships=report.edges,
                skipped=report.skipped,
                quarantined=report.quarantined,
                replayed=report.replayed,
                batches=report.batches,
                retries=report.retries,
                adopted_rows=report.adopted_rows,
                per_record=dict(report.per_record),
            )
    return report


# ----------------------------------------------------------------------
# Triple store
# ----------------------------------------------------------------------
def load_triple_store(
    schema: SuperSchema,
    data: PropertyGraph,
    store: Any,
    tracer: Optional[Tracer] = None,
    *,
    mode: str = STRICT,
    policy: Optional[RetryPolicy] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    quarantine: Optional[QuarantineReport] = None,
) -> TripleLoadReport:
    """Load a typed instance as triples (edge attributes are dropped —
    RDF reification is out of scope; documented substitution — and the
    set ones counted in ``edge_attributes_dropped`` and the
    ``deploy.edge_attributes_dropped`` counter).

    Returns a :class:`~repro.deploy.resilience.TripleLoadReport`; it
    compares as the historical asserted-triple count.
    """
    _check_mode(mode)
    policy = policy if policy is not None else no_retry()
    tracer = tracer if tracer is not None else getattr(store, "tracer", None)
    report_quarantine = quarantine if quarantine is not None else QuarantineReport()
    skipped_nodes = skipped_edges = dropped = 0
    span = tracer.span("deploy.flush", store=store.name) if tracer else nullcontext()
    with span:
        # ---- stage -----------------------------------------------------
        records: List[Tuple[str, Any, List[Tuple[Any, str, Any]]]] = []
        layout = TripleLayout(schema)
        for node in data.nodes():
            if node.label is None or not schema.has_node(node.label):
                skipped_nodes += 1
                _reject_unknown_label(report_quarantine, "node", node)
                continue
            records.append(("triples", node.id, layout.node_triples(
                node.id, node.label, node.properties
            )))
        for edge in data.edges():
            if edge.label is None or not schema.has_edge(edge.label):
                skipped_edges += 1
                _reject_unknown_label(report_quarantine, "edge", edge)
                continue
            records.append(
                ("triples", edge.source, [(edge.source, edge.label, edge.target)])
            )
            dropped += layout.dropped(edge.properties)

        # ---- apply -----------------------------------------------------
        before = store.count()

        def apply_record(record, counts: Dict[str, int], mutate) -> None:
            _, _subject, triples = record
            replay = all(store.has(s, p, o) for s, p, o in triples)
            if replay:
                counts["replayed"] = counts.get("replayed", 0) + 1
                if tracer is not None:
                    tracer.count("deploy.replay_skipped", 1)
                return
            for subject, predicate, obj in triples:
                mutate(
                    lambda s=subject, p=predicate, o=obj: store.add(s, p, o)
                )

        batcher = _Batcher(store, mode, policy, tracer)
        load_savepoint = store.savepoint()
        replayed = 0
        try:
            for batch in _chunks(records, batch_size):
                counts = batcher.run(batch, apply_record)
                replayed += counts.get("replayed", 0)
        except (IntegrityError, GraphError):
            store.rollback_to(load_savepoint)
            if tracer is not None:
                tracer.count("deploy.rollbacks", 1)
            raise
        finally:
            store.release(load_savepoint)
        asserted = store.count() - before
        report_quarantine.extend(batcher.rejections)
        if tracer:
            tracer.count("deploy.edge_attributes_dropped", dropped)
            span.set(
                triples=asserted,
                skipped=skipped_nodes + skipped_edges,
                quarantined=len(batcher.rejections) + skipped_nodes + skipped_edges,
                replayed=replayed,
                batches=batcher.batches,
                retries=batcher.retries,
            )
    return TripleLoadReport(
        asserted,
        skipped_nodes=skipped_nodes,
        skipped_edges=skipped_edges,
        replayed=replayed,
        batches=batcher.batches,
        retries=batcher.retries,
        rollbacks=batcher.rollbacks,
        quarantine=report_quarantine,
        mode=mode,
        edge_attributes_dropped=dropped,
    )
