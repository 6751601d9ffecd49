"""Checkpointed materialization: persist completed chase phases.

Algorithm 2 runs as three chase invocations (load / reason / flush).
The reasoning phase dominates wall-clock time — the paper reports ~160
minutes of reasoning against ~15 minutes of load+flush for the Bank of
Italy KG — so an interruption (budget trip, crash fault, operator kill)
late in a run wastes almost the entire investment.

:class:`MaterializationCheckpoint` is a directory-backed store that the
:class:`~repro.ssst.materializer.IntensionalMaterializer` writes after
each phase that reached fixpoint, and reads back on the next run to skip
every phase already completed.  Each phase snapshot captures the one
mutable artifact of the pipeline at that point — the staging
:class:`~repro.vadalog.database.Database`, whose ``I_SM_*`` relations
are the instance — encoded as JSON via a value codec that round-trips
labeled nulls and Skolem values.  (The dictionary graph holds schemas
only, and the schema is an input the fingerprint already binds.)

A checkpoint is bound to its inputs by a fingerprint (schema, data,
program, instance OID): resuming against different inputs silently
starts fresh instead of splicing incompatible state.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph
from repro.obs.tracer import NullTracer, Tracer
from repro.vadalog.database import Database
from repro.vadalog.terms import Null, SkolemValue

#: Phases eligible for checkpointing, in pipeline order.  Flush is never
#: checkpointed: it is cheap and only reads the reason phase's result,
#: so re-running it is the simplest way to guarantee a complete instance.
PHASES: Tuple[str, ...] = ("load", "reason")

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 2


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
def database_payload(database: Database) -> Dict[str, Any]:
    """Serialize every relation of a database, deterministically ordered."""
    payload: Dict[str, Any] = {}
    for predicate in sorted(database.predicates()):
        relation = database.relation(predicate)
        facts = sorted(
            ([encode_value(term) for term in fact] for fact in relation),
            key=_canonical,
        )
        payload[predicate] = {"arity": relation.arity, "facts": facts}
    return payload


def restore_database(payload: Dict[str, Any]) -> Database:
    """The database on the backend the engine runs on, each relation's
    rows in the payload's canonical order: the instance decoder reads
    the ``I_SM_*`` relations in row order, so a resumed run must not
    inherit one from ``set`` iteration."""
    database = Database(columnar=True)
    for predicate, entry in payload.items():
        relation = database.relation(predicate)
        relation.arity = entry["arity"]
        relation.add_many(
            tuple(decode_value(term) for term in fact) for fact in entry["facts"]
        )
    return database


def graph_payload(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialize a property graph, deterministically ordered."""
    nodes = sorted(
        (
            {
                "id": encode_value(node.id),
                "label": node.label,
                "properties": {
                    k: encode_value(v) for k, v in node.properties.items()
                },
            }
            for node in graph.nodes()
        ),
        key=lambda n: _canonical(n["id"]),
    )
    edges = sorted(
        (
            {
                "id": encode_value(edge.id),
                "source": encode_value(edge.source),
                "target": encode_value(edge.target),
                "label": edge.label,
                "properties": {
                    k: encode_value(v) for k, v in edge.properties.items()
                },
            }
            for edge in graph.edges()
        ),
        key=lambda e: _canonical(e["id"]),
    )
    return {"name": graph.name, "nodes": nodes, "edges": edges}


def restore_graph(payload: Dict[str, Any]) -> PropertyGraph:
    # The production store, so a restored registry is on the backend a
    # fresh one is built on.
    graph = make_graph(payload.get("name", "graph"))
    for node in payload["nodes"]:
        graph.add_node(
            decode_value(node["id"]),
            node["label"],
            **{k: decode_value(v) for k, v in node["properties"].items()},
        )
    for edge in payload["edges"]:
        graph.add_edge(
            decode_value(edge["source"]),
            decode_value(edge["target"]),
            edge["label"],
            edge_id=decode_value(edge["id"]),
            **{k: decode_value(v) for k, v in edge["properties"].items()},
        )
    return graph


def run_fingerprint(schema, data: PropertyGraph, sigma, instance_oid: Any) -> str:
    """Bind a checkpoint to its inputs.

    The schema contributes through its dictionary serialization (its
    canonical graph form), the data through the same graph codec the
    checkpoints use, and the MetaLog program through its AST repr (frozen
    dataclasses render deterministically).
    """
    schema_graph = schema.to_dictionary(PropertyGraph("fingerprint"))
    material = json.dumps(
        {
            "schema": graph_payload(schema_graph),
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
    """Directory-backed phase snapshots for one materialization run.

    Usage (the materializer does this internally)::

        checkpoint = MaterializationCheckpoint("out/ckpt")
        checkpoint.begin(run_fingerprint(schema, data, sigma, oid))
        phase = checkpoint.resume_phase()       # None, "load", or "reason"
        ...
        checkpoint.save_phase("load", database=db)

    Phase files are written to a temporary name and atomically renamed;
    the manifest is updated last, so a crash mid-save leaves the previous
    consistent state intact.
    """

    def __init__(self, directory: str, tracer: Optional[Tracer] = None):
        self.directory = str(directory)
        self.tracer = tracer or NullTracer()
        self._fingerprint: Optional[str] = None
        self._manifest: Dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------
    def begin(self, fingerprint: str) -> None:
        """Bind to a run; a stale checkpoint (other inputs) is discarded."""
        os.makedirs(self.directory, exist_ok=True)
        self._fingerprint = fingerprint
        manifest = self._read_manifest()
        if manifest.get("fingerprint") == fingerprint and (
            manifest.get("version") == _FORMAT_VERSION
        ):
            self._manifest = manifest
            return
        if manifest:
            self.tracer.count("deploy.checkpoint_stale", 1)
        self.clear()

    def clear(self) -> None:
        """Drop every phase snapshot (keeps the directory)."""
        if self._fingerprint is None and not os.path.isdir(self.directory):
            return
        for phase in PHASES:
            path = self._phase_path(phase)
            if os.path.exists(path):
                os.remove(path)
        self._manifest = {
            "version": _FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "phases": {},
        }
        if self._fingerprint is not None:
            self._write_manifest()

    # -- queries -------------------------------------------------------
    def completed_phases(self) -> List[str]:
        phases = self._manifest.get("phases", {})
        return [p for p in PHASES if p in phases]

    def has_phase(self, phase: str) -> bool:
        return phase in self._manifest.get("phases", {})

    def resume_phase(self) -> Optional[str]:
        """The latest completed phase to restart from, if any."""
        completed = self.completed_phases()
        return completed[-1] if completed else None

    # -- persistence ---------------------------------------------------
    def save_phase(
        self,
        phase: str,
        database: Database,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if phase not in PHASES:
            raise CheckpointError(f"unknown checkpoint phase {phase!r}")
        if self._fingerprint is None:
            raise CheckpointError("checkpoint not bound: call begin() first")
        payload = {
            "phase": phase,
            "database": database_payload(database),
            "meta": meta or {},
        }
        path = self._phase_path(phase)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))  # the C encoder, same bytes
        os.replace(tmp, path)
        self._manifest.setdefault("phases", {})[phase] = {
            "file": os.path.basename(path)
        }
        self._write_manifest()
        self.tracer.count("deploy.checkpoint_saved", 1)

    def load_phase(self, phase: str) -> Tuple[Database, Dict[str, Any]]:
        if not self.has_phase(phase):
            raise CheckpointError(f"no checkpoint for phase {phase!r}")
        try:
            with open(self._phase_path(phase), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint for phase {phase!r}: {exc}"
            ) from exc
        database = restore_database(payload["database"])
        self.tracer.count("deploy.checkpoint_restored", 1)
        return database, payload.get("meta", {})

    # -- internals -----------------------------------------------------
    def _phase_path(self, phase: str) -> str:
        return os.path.join(self.directory, f"phase-{phase}.json")

    def _write_manifest(self) -> None:
        path = os.path.join(self.directory, _MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def _read_manifest(self) -> Dict[str, Any]:
        path = os.path.join(self.directory, _MANIFEST)
        if not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def __repr__(self) -> str:
        return (
            f"MaterializationCheckpoint({self.directory!r}, "
            f"phases={self.completed_phases()})"
        )
