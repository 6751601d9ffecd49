"""Registry-level incremental updates over a retained materialization.

The paper's deployment regime (Section 6) re-runs Algorithm 2 from
scratch whenever the source registry changes.  This module provides the
model-level half of the alternative: a registry delta (companies,
persons, stakes added or removed from the plain data graph) becomes the
facts of Sigma's input relations it adds and removes — V_I's view of
the changed elements, through the compiled column maps — which are
pushed through Sigma's retained chase state with
:meth:`repro.vadalog.engine.Engine.apply_delta` instead of re-running
the chase.

Only :class:`RegistryDelta` / :class:`UpdateReport` live here; the
orchestration is
:meth:`repro.ssst.materializer.IntensionalMaterializer.update`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.delta import FlushDelta
from repro.errors import SchemaError
from repro.vadalog.incremental import DeltaResult

#: ``(node_id, type_name, properties)``
NodeSpec = Tuple[Any, str, Dict[str, Any]]
#: ``(edge_id, source, target, type_name, properties)``
EdgeSpec = Tuple[Any, Any, Any, str, Dict[str, Any]]


@dataclass
class RegistryDelta:
    """A batch of changes to the source registry (the plain data graph)."""

    add_nodes: List[NodeSpec] = field(default_factory=list)
    add_edges: List[EdgeSpec] = field(default_factory=list)
    remove_nodes: List[Any] = field(default_factory=list)
    remove_edges: List[Any] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (
            self.add_nodes or self.add_edges
            or self.remove_nodes or self.remove_edges
        )

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RegistryDelta":
        """Parse the ``kgmodel update --from`` changes format.

        .. code-block:: json

            {"add_nodes":  [{"id": "c9", "type": "Business",
                             "properties": {"name": "NewCo"}}],
             "add_edges":  [{"id": "o9", "source": "c1", "target": "c9",
                             "type": "OWNS",
                             "properties": {"percentage": 0.6}}],
             "remove_nodes": ["c3"],
             "remove_edges": ["o7"]}
        """
        known = {"add_nodes", "add_edges", "remove_nodes", "remove_edges"}
        unknown = set(payload) - known
        if unknown:
            raise SchemaError(
                f"unknown change keys {sorted(unknown)} (expected {sorted(known)})"
            )
        delta = cls()
        for entry in payload.get("add_nodes", []):
            try:
                delta.add_nodes.append(
                    (entry["id"], entry["type"], dict(entry.get("properties", {})))
                )
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"bad add_nodes entry {entry!r}: {exc}") from exc
        for entry in payload.get("add_edges", []):
            try:
                delta.add_edges.append(
                    (
                        entry["id"], entry["source"], entry["target"],
                        entry["type"], dict(entry.get("properties", {})),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"bad add_edges entry {entry!r}: {exc}") from exc
        delta.remove_nodes.extend(payload.get("remove_nodes", []))
        delta.remove_edges.extend(payload.get("remove_edges", []))
        return delta


@dataclass
class UpdateReport:
    """Outcome of one :meth:`IntensionalMaterializer.update` call."""

    #: The new instance's records, one element at a time: what a store
    #: reads of the instance its ``flush_delta`` leads to (``has_node`` /
    #: ``node`` / ``out_edges`` / ``in_edges``), until the next update.
    #: No graph is kept: ``materializer.retained.instance()`` writes one.
    instance: Any
    #: Net changes of Sigma's retained chase state.
    delta_reason: Optional[DeltaResult] = None
    #: Plain-graph difference of the enriched instance — what a deployed
    #: store needs to catch up (``store.apply_flush_delta``).
    flush_delta: Optional[FlushDelta] = None
    #: Net head-relation changes (added + removed) written out.
    flushed: int = 0
    #: Derived edge ends that are no node (the edge is dropped) among
    #: the elements this update touched — not the whole instance's
    #: count, which ``materialize()`` reports.
    flush_dropped_edges: int = 0
    #: Chase-maintenance time only (the paper's "reasoning" phase).
    engine_seconds: float = 0.0
    #: Total wall time of the update: validation, encoding, the chase
    #: and the records of the touched elements.
    update_seconds: float = 0.0

    @property
    def strata_recomputed(self) -> int:
        return self.delta_reason.strata_recomputed if self.delta_reason else 0

    @property
    def recompute_reasons(self) -> List[Tuple[str, int, str, str]]:
        """``(phase, stratum index, rule label, reason)`` of every
        stratum Sigma's state recomputed instead of maintaining."""
        return [
            ("reason", *entry)
            for entry in (self.delta_reason.recompute_reasons if self.delta_reason else ())
        ]

    def phase_breakdown(self) -> Dict[str, float]:
        return {
            "reason": self.delta_reason.elapsed_seconds if self.delta_reason else 0.0,
        }
