"""Instance-level flush deltas for the deployment targets.

The incremental materialization path (``IntensionalMaterializer.update``)
maintains the enriched instance in place instead of re-deriving it, so
re-loading the whole instance into a deployed store would throw the
saving away at the last hop.  A :class:`FlushDelta` is the difference
between two enriched instances expressed at the plain-graph level —
exactly what each store's ``apply_flush_delta`` method consumes to bring
a previously loaded store up to date without a full reload.  ``update()``
takes it over the elements its change reaches
(:meth:`FlushDelta.between`) and patches its own enriched graph with it
(:meth:`FlushDelta.apply_to`); the comparison of two whole graphs is
what the tests hold that against.

The records carry everything any backend needs to *undo* an element
(the triple store must retract attribute triples, so removed/updated
records keep the old property values), and each backend reuses the
PR 3 savepoint machinery appropriate to its mutation model:

- :class:`~repro.deploy.graph_store.GraphStore` applies removals and
  in-place property updates first, then guards the insert batch with a
  structural savepoint (structural savepoints are insert-only, so the
  destructive half runs *before* the watermark is taken);
- :class:`~repro.deploy.relational_engine.RelationalEngine` and
  :class:`~repro.deploy.triple_store.TripleStore` record undo closures
  for deletions too, so their whole delta applies under one savepoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.graph.property_graph import PropertyGraph

#: ``(node_id, type_name, properties)``
NodeRecord = Tuple[Any, str, Dict[str, Any]]
#: ``(node_id, type_name, new_properties, old_properties)``
UpdateRecord = Tuple[Any, str, Dict[str, Any], Dict[str, Any]]
#: ``(edge_id, source, target, type_name, properties)``
EdgeRecord = Tuple[Any, Any, Any, str, Dict[str, Any]]


@dataclass
class FlushDelta:
    """Plain-graph changes between two versions of an enriched instance."""

    added_nodes: List[NodeRecord] = field(default_factory=list)
    added_edges: List[EdgeRecord] = field(default_factory=list)
    updated_nodes: List[UpdateRecord] = field(default_factory=list)
    removed_nodes: List[NodeRecord] = field(default_factory=list)
    removed_edges: List[EdgeRecord] = field(default_factory=list)

    @property
    def total_changes(self) -> int:
        return (
            len(self.added_nodes) + len(self.added_edges)
            + len(self.updated_nodes)
            + len(self.removed_nodes) + len(self.removed_edges)
        )

    def changed(self) -> bool:
        return self.total_changes > 0

    def summary(self) -> str:
        return (
            f"+{len(self.added_nodes)}/~{len(self.updated_nodes)}"
            f"/-{len(self.removed_nodes)} nodes, "
            f"+{len(self.added_edges)}/-{len(self.removed_edges)} edges"
        )

    @classmethod
    def diff(cls, old: PropertyGraph, new: PropertyGraph) -> "FlushDelta":
        """``FlushDelta.diff(old, new)``: the delta that turns ``old``
        into ``new``, every element of both compared (:meth:`between`
        over all their ids)."""
        return cls.between(
            old, new,
            dict.fromkeys(n.id for graph in (new, old) for n in graph.nodes()),
            dict.fromkeys(e.id for graph in (new, old) for e in graph.edges()),
        )

    @classmethod
    def between(
        cls, old: PropertyGraph, new: PropertyGraph,
        node_ids: Iterable[Any], edge_ids: Iterable[Any],
    ) -> "FlushDelta":
        """What turns the listed elements of ``old`` into those of ``new``.

        Elements are matched by id.  A node whose label changed is
        reported as removed + added (stores key constraints off the
        label); one whose properties changed becomes an update.  Edges
        are immutable records in every backend, so any change to an
        edge's endpoints, label, or properties is removed + added.
        """
        delta = cls()
        for node_id in node_ids:
            before = node_record(old, node_id)
            after = node_record(new, node_id)
            if before and after and before[1] == after[1]:
                if before[2] != after[2]:
                    delta.updated_nodes.append((*after, before[2]))
                continue
            if before:
                delta.removed_nodes.append(before)
            if after:
                delta.added_nodes.append(after)
        for edge_id in edge_ids:
            before = edge_record(old, edge_id)
            after = edge_record(new, edge_id)
            if before != after:
                if before:
                    delta.removed_edges.append(before)
                if after:
                    delta.added_edges.append(after)
        return delta

    def apply_to(self, graph: PropertyGraph) -> None:
        """Patch ``graph``, the ``old`` this delta was taken from, into
        its ``new``.  An edge a removed node takes along without being
        listed is unchanged (the node is listed as added again under
        another label), so it is put back."""
        for record in self.removed_edges:
            graph.remove_edge(record[0])
        unchanged: Dict[Any, EdgeRecord] = {}
        for node_id, _label, _properties in self.removed_nodes:
            for edge in (*graph.out_edges(node_id), *graph.in_edges(node_id)):
                unchanged[edge.id] = edge_record(graph, edge.id)
            graph.remove_node(node_id)
        for node_id, label, properties in self.added_nodes:
            graph.add_node(node_id, label, **properties)
        for node_id, _label, properties, _old in self.updated_nodes:
            held = graph.node(node_id).properties
            held.clear()
            held.update(properties)
        for edge_id, source, target, label, properties in (
            *unchanged.values(), *self.added_edges
        ):
            graph.add_edge(source, target, label, edge_id=edge_id, **properties)


def node_record(graph: PropertyGraph, node_id: Any) -> Optional[NodeRecord]:
    """The node as a record of its current values; None when absent."""
    if not graph.has_node(node_id):
        return None
    node = graph.node(node_id)
    return (node.id, node.label, dict(node.properties))


def edge_record(graph: PropertyGraph, edge_id: Any) -> Optional[EdgeRecord]:
    """The edge as a record of its current values; None when absent."""
    if not graph.has_edge(edge_id):
        return None
    edge = graph.edge(edge_id)
    return (edge.id, edge.source, edge.target, edge.label, dict(edge.properties))


@dataclass
class DeltaFlushReport:
    """Outcome of one ``apply_flush_delta`` call on a deployed store."""

    nodes_added: int = 0
    nodes_updated: int = 0
    nodes_removed: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    #: Records skipped because the element (or its label) is absent —
    #: removals of never-loaded elements are counted, not errors.
    skipped: int = 0

    @property
    def applied(self) -> int:
        return (
            self.nodes_added + self.nodes_updated + self.nodes_removed
            + self.edges_added + self.edges_removed
        )

    def summary(self) -> str:
        return (
            f"delta-flush: +{self.nodes_added}/~{self.nodes_updated}"
            f"/-{self.nodes_removed} nodes, +{self.edges_added}"
            f"/-{self.edges_removed} edges, {self.skipped} skipped"
        )
