"""Checkpointed materialization: persist Sigma's chase result.

Algorithm 2 runs as load / reason / flush, and only reasoning is a
chase: the paper reports ~160 minutes of it against ~15 minutes of
load+flush for the Bank of Italy KG, so an interruption (crash fault,
operator kill) after it wastes almost the entire investment.

:class:`MaterializationCheckpoint` is one snapshot file that the
:class:`~repro.ssst.materializer.IntensionalMaterializer` writes once
Sigma's chase reached fixpoint, and reads back on the next run to skip
it.  The snapshot holds what the flush reads of the chase — Sigma's
head relations, encoded as JSON via a value codec that round-trips
labeled nulls and Skolem values — and the derived counts.  (The load
and the flush only read the registry, an input the fingerprint binds,
so neither is worth a snapshot.)

A checkpoint is bound to its inputs by a fingerprint (schema, data,
program, instance OID): resuming against different inputs silently
starts fresh instead of splicing incompatible state.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import compress, count, repeat
from operator import is_
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.obs.tracer import NullTracer, Tracer
from repro.vadalog.columnar import ValueInterner
from repro.vadalog.database import Database
from repro.vadalog.terms import Null, SkolemValue

#: The snapshot file in a checkpoint directory.
_SNAPSHOT = "snapshot.json"
_FORMAT_VERSION = 4


# ----------------------------------------------------------------------
# Value codec: JSON round-tripping for chase term universes
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode a chase value (constant, null, Skolem, tuple) as JSON."""
    if isinstance(value, Null):
        return {"__kind__": "null", "label": value.label, "ordinal": value.ordinal}
    if isinstance(value, SkolemValue):
        return {
            "__kind__": "skolem",
            "functor": value.functor,
            "arguments": [encode_value(a) for a in value.arguments],
        }
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CheckpointError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(payload, dict):
        kind = payload.get("__kind__")
        if kind == "null":
            return Null(payload["label"], payload["ordinal"])
        if kind == "skolem":
            return SkolemValue(
                payload["functor"],
                tuple(decode_value(a) for a in payload["arguments"]),
            )
        if kind == "tuple":
            return tuple(decode_value(v) for v in payload["items"])
        raise CheckpointError(f"unknown encoded value kind {kind!r}")
    if isinstance(payload, list):
        return [decode_value(v) for v in payload]
    return payload


def _canonical(value: Any) -> str:
    """Deterministic JSON rendering of an encoded value (sort key)."""
    return json.dumps(value, sort_keys=True)


# ----------------------------------------------------------------------
# Artifact (de)serialization
# ----------------------------------------------------------------------
def database_payload(
    database: Database, predicates: Optional[Iterable[str]] = None
) -> Dict[str, Any]:
    """Serialize the non-empty relations of a database among
    ``predicates`` (all by default), deterministically ordered."""
    payload: Dict[str, Any] = {}
    held = database.predicates()
    if predicates is not None:
        held = set(held).intersection(predicates)
    for predicate in sorted(held):
        relation = database.relation(predicate)
        facts = sorted(
            ([encode_value(term) for term in fact] for fact in relation),
            key=_canonical,
        )
        payload[predicate] = {"arity": relation.arity, "facts": facts}
    return payload


def restore_database(
    payload: Dict[str, Any], interner: Optional[ValueInterner] = None
) -> Database:
    """The database over ``interner`` (a fresh one by default), each
    relation's rows in the payload's canonical order, never in one
    ``set`` iteration picks."""
    database = Database(interner=interner)
    for predicate, entry in payload.items():
        relation = database.relation(predicate)
        relation.arity = entry["arity"]
        relation.add_many(
            tuple(decode_value(term) for term in fact) for fact in entry["facts"]
        )
    return database


#: What a JSON column holds as it is; any other cell goes through the
#: value codec.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _encoded(values: List[Any]) -> List[Any]:
    """A column of values as JSON, cell by cell only when some cell is
    not a JSON scalar."""
    if _PLAIN.issuperset(map(type, values)):
        return values
    return [encode_value(value) for value in values]


def _decoded(values: List[Any]) -> List[Any]:
    """Inverse of :func:`_encoded`."""
    if _PLAIN.issuperset(map(type, values)):
        return values
    return [decode_value(value) for value in values]


def _label_payload(label: str, ids: List[Any], names: List[str],
                   columns: List[List[Any]]) -> Dict[str, Any]:
    """One label's table: its ids and, per property, the column with the
    rows where the property is unset (``None`` in the column)."""
    properties = []
    for name, values in zip(names, columns):
        unset = list(compress(count(), map(is_, values, repeat(ABSENT))))
        if unset:
            values = [None if value is ABSENT else value for value in values]
        properties.append([name, _encoded(values), unset])
    return {"label": label, "ids": _encoded(ids), "properties": properties}


def _property_columns(properties: List[Any]) -> Tuple[Tuple[str, ...], List[List[Any]]]:
    """Inverse of the property part of :func:`_label_payload`: names and
    value columns, :data:`ABSENT` in an unset cell."""
    columns = []
    for _, values, unset in properties:
        values = _decoded(values)
        if unset:
            values = list(values)
            for row in unset:
                values[row] = ABSENT
        columns.append(values)
    return tuple(name for name, _, _ in properties), columns


def graph_payload(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialize a property graph column-wise, label by label in label
    order: each label's ids (an edge's endpoints too) and one column per
    property name, in row order, read through ``nodes_table`` /
    ``edges_table`` — no element is visited one by one.  A stored
    ``None`` is a value; an unset cell is listed by row.  An unlabeled
    element has no label table, so a graph holding one is refused."""
    nodes, edges = [], []
    for label in graph.node_labels():
        names = graph.node_property_names(label)
        ids, columns = graph.nodes_table(label, names, ABSENT)
        nodes.append(_label_payload(label, ids, names, columns))
    for label in graph.edge_labels():
        names = graph.edge_property_names(label)
        ids, sources, targets, columns = graph.edges_table(label, names, ABSENT)
        entry = _label_payload(label, ids, names, columns)
        entry.update(sources=_encoded(sources), targets=_encoded(targets))
        edges.append(entry)
    if (sum(len(entry["ids"]) for entry in nodes) != graph.node_count
            or sum(len(entry["ids"]) for entry in edges) != graph.edge_count):
        raise CheckpointError(
            f"graph {graph.name!r} holds an unlabeled element, which has no "
            "column-wise snapshot"
        )
    return {"name": graph.name, "nodes": nodes, "edges": edges}


def restore_graph(payload: Dict[str, Any]) -> PropertyGraph:
    """Inverse of :func:`graph_payload`: one bulk add per label, each
    label's rows in the payload's order, on the production store (a
    restored registry is on the backend a fresh one is built on)."""
    graph = make_graph(payload.get("name", "graph"))
    for entry in payload["nodes"]:
        names, columns = _property_columns(entry["properties"])
        graph.add_nodes_bulk(
            entry["label"], _decoded(entry["ids"]), names, columns, keep_none=True
        )
    for entry in payload["edges"]:
        names, columns = _property_columns(entry["properties"])
        graph.add_edges_bulk(
            entry["label"], _decoded(entry["ids"]), _decoded(entry["sources"]),
            _decoded(entry["targets"]), names, columns, keep_none=True,
        )
    return graph


def write_durably(path: str, text: str) -> None:
    """Replace the file at ``path`` by ``text`` so that a crash or a
    power loss after this returns cannot bring its old version back:
    the bytes are synced before the rename, and the directory after it
    (a rename is durable only once its directory is)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def schema_payload(schema) -> Dict[str, Any]:
    """A super-schema in its canonical form for fingerprints: its
    dictionary serialization through the graph codec."""
    return graph_payload(schema.to_dictionary(make_graph("fingerprint")))


def run_fingerprint(schema, data: PropertyGraph, sigma, instance_oid: Any) -> str:
    """Bind a checkpoint to its inputs.

    The schema contributes through its dictionary serialization (its
    canonical graph form), the data through the same graph codec the
    checkpoints use, and the MetaLog program through its AST repr (frozen
    dataclasses render deterministically).
    """
    material = json.dumps(
        {
            "schema": schema_payload(schema),
            "data": graph_payload(data),
            "sigma": repr(sigma),
            "instance_oid": repr(instance_oid),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------
class MaterializationCheckpoint:
    """One snapshot of Sigma's chase result for one materialization run.

    Usage (the materializer does this internally)::

        checkpoint = MaterializationCheckpoint("out/ckpt")
        checkpoint.begin(run_fingerprint(schema, data, sigma, oid))
        if checkpoint.has_snapshot():
            database, derived_counts = checkpoint.load()
        ...
        checkpoint.save(database, heads, derived_counts)

    The file holds the format version, the run fingerprint, the derived
    counts and the relations the flush reads; it is written to a
    temporary name and atomically renamed (:func:`write_durably`), so a
    crash mid-save leaves the previous snapshot intact.
    """

    def __init__(self, directory: str, tracer: Optional[Tracer] = None):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, _SNAPSHOT)
        self.tracer = tracer or NullTracer()
        self._fingerprint: Optional[str] = None
        self._payload: Optional[Dict[str, Any]] = None

    def begin(self, fingerprint: str) -> None:
        """Bind to a run and read its snapshot, if any: one of other
        inputs or another format is discarded (``deploy.checkpoint_stale``);
        one that is no JSON raises :class:`~repro.errors.CheckpointError`."""
        os.makedirs(self.directory, exist_ok=True)
        self._fingerprint = fingerprint
        self._payload = None
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {self.path}: {exc}") from exc
        if payload.get("version") == _FORMAT_VERSION and (
            payload.get("fingerprint") == fingerprint
        ):
            self._payload = payload
            return
        self.tracer.count("deploy.checkpoint_stale", 1)
        self.clear()

    def clear(self) -> None:
        """Drop the snapshot (keeps the directory)."""
        self._payload = None
        if os.path.exists(self.path):
            os.remove(self.path)

    def has_snapshot(self) -> bool:
        """Whether :meth:`begin` found a snapshot of this run."""
        return self._payload is not None

    def save(self, database: Database, predicates: Iterable[str],
             derived_counts: Dict[str, int]) -> None:
        """Snapshot the ``predicates`` of ``database`` and the counts."""
        if self._fingerprint is None:
            raise CheckpointError("checkpoint not bound: call begin() first")
        write_durably(self.path, json.dumps({
            "version": _FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "derived_counts": derived_counts,
            "database": database_payload(database, predicates),
        }))
        self.tracer.count("deploy.checkpoint_saved", 1)

    def load(
        self, interner: Optional[ValueInterner] = None
    ) -> Tuple[Database, Dict[str, int]]:
        """The snapshot's relations over ``interner``, and its counts."""
        if self._payload is None:
            raise CheckpointError(f"no checkpoint of this run in {self.directory}")
        try:
            database = restore_database(self._payload["database"], interner)
            counts = dict(self._payload["derived_counts"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {self.path}: {exc!r}") from exc
        self.tracer.count("deploy.checkpoint_restored", 1)
        return database, counts

    def __repr__(self) -> str:
        return (
            f"MaterializationCheckpoint({self.directory!r}, "
            f"snapshot={self.has_snapshot()})"
        )
