"""Instance-level flush deltas for the deployment targets.

The incremental materialization path (``IntensionalMaterializer.update``)
maintains the enriched instance instead of re-deriving it, so
re-loading the whole instance into a deployed store would throw the
saving away at the last hop.  A :class:`FlushDelta` is the difference
between two versions of an enriched instance expressed at the
plain-graph level — exactly what each store's ``apply_flush_delta``
method consumes to bring a previously loaded store up to date without a
full reload.  ``update()`` keeps no instance graph: it makes the record
of each element its change reaches in the instance after the update and
in the one before it, one element at a time, and sets the two against
each other (:meth:`FlushDelta.between`, over record functions); the
comparison of two whole graphs (:meth:`FlushDelta.diff`, the same rules
over every element of both) is what the tests hold that against.

The records list every change, the edges a removed node takes along
included, and carry everything any backend needs to *undo* an element
(the triple store must retract attribute triples, so removed/updated
records keep the old property values).  Every store journals the
inverse of each mutation on its
:class:`~repro.deploy.transactions.UndoLog`, so each applies a whole
delta — removals, updates and inserts — under one savepoint: a delta
the store refuses leaves it as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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
            dict.fromkeys(n.id for graph in (new, old) for n in graph.nodes()),
            dict.fromkeys(e.id for graph in (new, old) for e in graph.edges()),
            partial(node_record, old), partial(edge_record, old),
            partial(node_record, new), partial(edge_record, new),
        )

    @classmethod
    def between(
        cls, node_ids: Iterable[Any], edge_ids: Iterable[Any],
        old_node: Callable[[Any], Optional[NodeRecord]],
        old_edge: Callable[[Any], Optional[EdgeRecord]],
        new_node: Callable[[Any], Optional[NodeRecord]],
        new_edge: Callable[[Any], Optional[EdgeRecord]],
    ) -> "FlushDelta":
        """What turns the listed elements of an old version into their
        new versions, the records of each given by ``old_node(id)`` /
        ``old_edge(id)`` and ``new_node(id)`` / ``new_edge(id)`` (None
        for an element the version lacks).

        Elements are matched by id.  A node whose label changed is
        reported as removed + added (stores key constraints off the
        label); one whose properties changed becomes an update.  Edges
        are immutable records in every backend, so any change to an
        edge's endpoints, label, or properties is removed + added.  A
        listed edge a removed node touches is listed as removed too, and
        as added again when the new version still holds it; the caller
        lists every old edge of a node that goes.
        """
        delta = cls()
        for node_id in node_ids:
            before = old_node(node_id)
            after = new_node(node_id)
            if before and after and before[1] == after[1]:
                if before[2] != after[2]:
                    delta.updated_nodes.append((*after, before[2]))
                continue
            if before:
                delta.removed_nodes.append(before)
            if after:
                delta.added_nodes.append(after)
        leaving = {record[0] for record in delta.removed_nodes}
        for edge_id in edge_ids:
            before = old_edge(edge_id)
            after = new_edge(edge_id)
            taken_along = bool(before) and not leaving.isdisjoint(before[1:3])
            if before != after or taken_along:
                if before:
                    delta.removed_edges.append(before)
                if after:
                    delta.added_edges.append(after)
        return delta

    def apply_to(self, graph: PropertyGraph) -> None:
        """Patch ``graph``, the ``old`` this delta was taken from, into
        its ``new``, record by record."""
        for record in self.removed_edges:
            graph.remove_edge(record[0])
        for record in self.removed_nodes:
            graph.remove_node(record[0])
        for node_id, label, properties in self.added_nodes:
            graph.add_node(node_id, label, **properties)
        for node_id, _label, properties, _old in self.updated_nodes:
            held = graph.node(node_id).properties
            held.clear()
            held.update(properties)
        for edge_id, source, target, label, properties in self.added_edges:
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
    #: Set attributes of added edges the store cannot hold (the triple
    #: store: RDF reification is out of scope).
    edge_attributes_dropped: int = 0

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
