"""In-memory property graph, following the paper's formal definition.

Section 4 of the paper defines a (regular) property graph as a tuple
``G = (N, E, mu, lambda, sigma)`` where ``N`` is a finite set of nodes,
``E`` a finite set of edges disjoint from ``N``, ``mu : E -> N x N`` the
incidence function, ``lambda`` a partial labelling of nodes and edges, and
``sigma`` a partial property-assignment function.

This module provides :class:`PropertyGraph`, the storage substrate used
throughout the reproduction: it backs the graph dictionaries of the
meta-level stack (super-schemas and schemas are themselves stored as
property graphs), the extensional component of the Company KG, and the
in-memory graph store of :mod:`repro.deploy`.

The implementation keeps adjacency indexes (by node, by label) so that the
MetaLog-to-relational extraction of Section 4 and the statistics of
Section 2.1 run in time linear in the size of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import DeploymentError, GraphError

#: Sentinel distinguishing "property absent on the element" from a stored
#: ``None`` value in the bulk table accessors (``nodes_table``/``edges_table``).
ABSENT = object()


def first_repeat(ids: Iterable[Any]) -> Any:
    """The first element of ``ids`` that occurred before it, or None."""
    seen: Set[Any] = set()
    for element in ids:
        if element in seen:
            return element
        seen.add(element)
    return None


def property_rows(
    count: int,
    names: Tuple[str, ...],
    columns: Iterable[List[Any]],
    keep_none: bool = True,
) -> Iterator[Dict[str, Any]]:
    """One properties dict per row of the ``count``-row ``columns``,
    leaving out an :data:`ABSENT` cell and, unless ``keep_none``, a
    ``None`` one."""
    if not names:
        return ({} for _ in range(count))
    return (
        {
            name: value for name, value in zip(names, row)
            if value is not ABSENT and (keep_none or value is not None)
        }
        for row in zip(*columns)
    )


@dataclass(frozen=True, slots=True)
class Node:
    """A node of a property graph.

    Nodes are identified by an internal OID (``id``), carry at most one
    label (``lambda`` is a partial function in the paper's definition) and
    a dictionary of properties (``sigma``).
    """

    id: Any
    label: Optional[str] = None
    properties: Dict[str, Any] = field(default_factory=dict, compare=False)

    def get(self, name: str, default: Any = None) -> Any:
        """Return property ``name`` or ``default`` when absent."""
        return self.properties.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.properties[name]


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge of a property graph.

    ``source``/``target`` store node OIDs (the incidence function ``mu``),
    ``label`` the partial labelling, and ``properties`` the ``sigma``
    assignments of the edge.
    """

    id: Any
    source: Any
    target: Any
    label: Optional[str] = None
    properties: Dict[str, Any] = field(default_factory=dict, compare=False)

    def get(self, name: str, default: Any = None) -> Any:
        """Return property ``name`` or ``default`` when absent."""
        return self.properties.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.properties[name]


class PropertyGraph:
    """A mutable, directed, labeled property graph.

    The class exposes the vocabulary of the paper (nodes, edges, labels,
    properties) plus the indexed accessors the rest of the library needs:

    - ``nodes_by_label`` / ``edges_by_label`` for the PG-to-relational
      mapping of MTV (Section 4, step 1);
    - ``out_edges`` / ``in_edges`` for path-pattern navigation and for the
      degree statistics of Section 2.1.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._nodes: Dict[Any, Node] = {}
        self._edges: Dict[Any, Edge] = {}
        self._out: Dict[Any, List[Any]] = {}
        self._in: Dict[Any, List[Any]] = {}
        # Label buckets are insertion-ordered dicts (value always None):
        # membership/removal stay O(1) like a set, but per-label iteration
        # follows insertion order, so extraction order is deterministic.
        self._nodes_by_label: Dict[str, Dict[Any, None]] = {}
        self._edges_by_label: Dict[str, Dict[Any, None]] = {}
        self._auto_id = 1
        # Bumped by every deletion; insertion marks embed the epoch at
        # capture time so a popitem rollback can detect that the
        # "tail == post-mark additions" assumption has been broken.
        self._mutation_epoch = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: Any = None,
        label: Optional[str] = None,
        **properties: Any,
    ) -> Node:
        """Add a node and return it.

        When ``node_id`` is omitted a fresh integer OID is generated.
        Re-adding an existing OID is an error: nodes are identified by OID
        (use :meth:`set_node_property` to update).
        """
        if node_id is None:
            node_id = self._fresh_id("n")
        if node_id in self._nodes:
            raise GraphError(f"node {node_id!r} already exists in {self.name!r}")
        node = Node(node_id, label, dict(properties))
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        if label is not None:
            self._nodes_by_label.setdefault(label, {})[node_id] = None
        return node

    def add_edge(
        self,
        source: Any,
        target: Any,
        label: Optional[str] = None,
        edge_id: Any = None,
        **properties: Any,
    ) -> Edge:
        """Add a directed edge ``source -> target`` and return it.

        Both endpoints must already exist (``mu`` is total on ``E``).
        """
        if source not in self._nodes:
            raise GraphError(f"unknown source node {source!r} in {self.name!r}")
        if target not in self._nodes:
            raise GraphError(f"unknown target node {target!r} in {self.name!r}")
        if edge_id is None:
            edge_id = self._fresh_id("e")
        if edge_id in self._edges:
            raise GraphError(f"edge {edge_id!r} already exists in {self.name!r}")
        edge = Edge(edge_id, source, target, label, dict(properties))
        self._edges[edge_id] = edge
        self._out[source].append(edge_id)
        self._in[target].append(edge_id)
        if label is not None:
            self._edges_by_label.setdefault(label, {})[edge_id] = None
        return edge

    def _fresh_id(self, prefix: str) -> str:
        while True:
            candidate = f"{prefix}{self._auto_id}"
            self._auto_id += 1
            if candidate not in self._nodes and candidate not in self._edges:
                return candidate

    def fresh_edge_ids(self, count: int) -> List[str]:
        """The OIDs ``count`` :meth:`add_edge` calls without an
        ``edge_id`` would generate, for a bulk add."""
        return [self._fresh_id("e") for _ in range(count)]

    # ------------------------------------------------------------------
    # Insertion marks (structural savepoints)
    # ------------------------------------------------------------------
    def insertion_mark(self) -> Tuple[int, int, int]:
        """Capture the ``(node_count, edge_count, mutation_epoch)`` watermark.

        Valid for :meth:`rollback_to_mark` only while every mutation since
        the mark is an *insertion* (``add_node`` / ``add_edge``): node and
        edge dicts are insertion-ordered, so the tail past the watermark
        is exactly the post-mark additions.  The deploy stores satisfy
        this (they never remove during a load), which makes a savepoint
        O(1) instead of one undo closure per mutation.

        The embedded mutation epoch makes the assumption *checked* rather
        than trusted: ``remove_node`` / ``remove_edge`` bump the graph's
        epoch, so a mark taken before an interleaved deletion no longer
        matches and :meth:`rollback_to_mark` refuses it instead of
        silently popping unrelated elements.
        """
        return (len(self._nodes), len(self._edges), self._mutation_epoch)

    def rollback_to_mark(self, mark: Tuple[int, int, int]) -> int:
        """Remove everything inserted after :meth:`insertion_mark`.

        Edges are popped before nodes so incidence stays total; returns
        the number of elements removed.  Raises
        :class:`~repro.errors.DeploymentError` when the mark is *stale* —
        a deletion happened after it was taken, so the insertion-ordered
        tail no longer corresponds to the post-mark additions and a
        popitem rollback would corrupt the store.
        """
        node_mark, edge_mark, epoch = mark
        if epoch != self._mutation_epoch:
            raise DeploymentError(
                f"stale insertion mark for graph {self.name!r}: "
                f"{self._mutation_epoch - epoch} deletion(s) interleaved "
                f"since the mark was taken; a structural rollback would "
                f"remove the wrong elements (use an undo-log transaction "
                f"when deletions can occur)"
            )
        undone = 0
        while len(self._edges) > edge_mark:
            edge_id, edge = self._edges.popitem()
            self._out[edge.source].remove(edge_id)
            self._in[edge.target].remove(edge_id)
            if edge.label is not None:
                self._edges_by_label[edge.label].pop(edge_id, None)
            undone += 1
        while len(self._nodes) > node_mark:
            node_id, node = self._nodes.popitem()
            del self._out[node_id]
            del self._in[node_id]
            if node.label is not None:
                self._nodes_by_label[node.label].pop(node_id, None)
            undone += 1
        return undone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_node_property(self, node_id: Any, name: str, value: Any) -> None:
        """Assign ``sigma(node, name) = value``."""
        self.node(node_id).properties[name] = value

    def set_edge_property(self, edge_id: Any, name: str, value: Any) -> None:
        """Assign ``sigma(edge, name) = value``."""
        self.edge(edge_id).properties[name] = value

    def remove_edge(self, edge_id: Any) -> None:
        """Remove an edge; endpoints are untouched."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise GraphError(f"unknown edge {edge_id!r} in {self.name!r}")
        self._mutation_epoch += 1
        self._out[edge.source].remove(edge_id)
        self._in[edge.target].remove(edge_id)
        if edge.label is not None:
            self._edges_by_label[edge.label].pop(edge_id, None)

    def remove_node(self, node_id: Any) -> None:
        """Remove a node together with all its incident edges."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r} in {self.name!r}")
        for edge_id in list(self._out[node_id]) + list(self._in[node_id]):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        self._mutation_epoch += 1
        node = self._nodes.pop(node_id)
        del self._out[node_id]
        del self._in[node_id]
        if node.label is not None:
            self._nodes_by_label[node.label].pop(node_id, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: Any) -> Node:
        """Return the node with the given OID."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r} in {self.name!r}") from None

    def edge(self, edge_id: Any) -> Edge:
        """Return the edge with the given OID."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r} in {self.name!r}") from None

    def has_node(self, node_id: Any) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: Any) -> bool:
        return edge_id in self._edges

    def nodes(self, label: Optional[str] = None) -> Iterator[Node]:
        """Iterate over nodes, optionally restricted to one label."""
        if label is None:
            yield from self._nodes.values()
        else:
            for node_id in self._nodes_by_label.get(label, ()):
                yield self._nodes[node_id]

    def edges(self, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate over edges, optionally restricted to one label."""
        if label is None:
            yield from self._edges.values()
        else:
            for edge_id in self._edges_by_label.get(label, ()):
                yield self._edges[edge_id]

    def out_edges(self, node_id: Any, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate over the outgoing edges of a node."""
        for edge_id in self._out.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def in_edges(self, node_id: Any, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate over the incoming edges of a node."""
        for edge_id in self._in.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def successors(self, node_id: Any, label: Optional[str] = None) -> Iterator[Node]:
        """Iterate over nodes reachable through one outgoing edge."""
        for edge in self.out_edges(node_id, label):
            yield self._nodes[edge.target]

    def predecessors(self, node_id: Any, label: Optional[str] = None) -> Iterator[Node]:
        """Iterate over nodes reaching this node through one edge."""
        for edge in self.in_edges(node_id, label):
            yield self._nodes[edge.source]

    def node_labels(self) -> Tuple[str, ...]:
        """Return the node labels in use, as a sorted tuple.

        Sorted (not a ``set``) so that callers iterating the labels get a
        deterministic order regardless of hash seeding — the same
        sorted-label rule the flush/extraction paths follow.
        """
        return tuple(sorted(
            label for label, ids in self._nodes_by_label.items() if ids
        ))

    def edge_labels(self) -> Tuple[str, ...]:
        """Return the edge labels in use, as a sorted tuple."""
        return tuple(sorted(
            label for label, ids in self._edges_by_label.items() if ids
        ))

    def out_degree(self, node_id: Any) -> int:
        return len(self._out.get(node_id, ()))

    def in_degree(self, node_id: Any) -> int:
        return len(self._in.get(node_id, ()))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: Any) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:
        return (
            f"PropertyGraph({self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def find_nodes(self, label: Optional[str] = None, **properties: Any) -> Iterator[Node]:
        """Iterate over nodes matching a label and exact property values."""
        for node in self.nodes(label):
            if all(node.properties.get(k) == v for k, v in properties.items()):
                yield node

    def find_edges(
        self,
        label: Optional[str] = None,
        source: Any = None,
        target: Any = None,
        **properties: Any,
    ) -> Iterator[Edge]:
        """Iterate over edges matching label, endpoints, and properties."""
        if source is not None:
            candidates: Iterable[Edge] = self.out_edges(source, label)
        elif target is not None:
            candidates = self.in_edges(target, label)
        else:
            candidates = self.edges(label)
        for edge in candidates:
            if target is not None and edge.target != target:
                continue
            if source is not None and edge.source != source:
                continue
            if all(edge.properties.get(k) == v for k, v in properties.items()):
                yield edge

    def degrees(self) -> Dict[Any, Tuple[int, int]]:
        """Return ``{node_id: (in_degree, out_degree)}`` in one pass."""
        out = self._out
        return {
            node_id: (len(in_ids), len(out[node_id]))
            for node_id, in_ids in self._in.items()
        }

    def adjacency(self, label: Optional[str] = None) -> Dict[Any, List[Any]]:
        """Return ``{node_id: [successor ids]}`` in one edge pass.

        Every node appears as a key (possibly with an empty list), so the
        result can drive traversals without extra membership checks.
        """
        edges = self._edges
        adj: Dict[Any, List[Any]] = {node_id: [] for node_id in self._nodes}
        if label is None:
            for edge in edges.values():
                adj[edge.source].append(edge.target)
        else:
            for edge_id in self._edges_by_label.get(label, ()):
                edge = edges[edge_id]
                adj[edge.source].append(edge.target)
        return adj

    # ------------------------------------------------------------------
    # Bulk (columnar) accessors
    # ------------------------------------------------------------------
    # These four methods are the graph side of the columnar fast path:
    # the PG<->relational boundary of Section 4 moves whole labels at a
    # time as parallel column lists, so neither side pays a per-element
    # Python attribute/dict lookup or a per-fact ``has_node`` probe.

    def nodes_table(
        self,
        label: str,
        names: Iterable[str] = (),
        default: Any = None,
    ) -> Tuple[List[Any], List[List[Any]]]:
        """Return ``(ids, columns)`` for every node with ``label``.

        ``columns`` holds one list per property name in ``names``, aligned
        with ``ids``; a property absent on a node yields ``default`` (pass
        :data:`ABSENT` to distinguish a stored ``None`` from a missing
        property).  Row order is node insertion order — deterministic for
        any deterministic construction sequence.
        """
        bucket = self._nodes_by_label.get(label)
        if not bucket:
            return [], [[] for _ in names]
        nodes = self._nodes
        ids = list(bucket)
        props = [nodes[node_id].properties for node_id in ids]
        columns = [[p.get(name, default) for p in props] for name in names]
        return ids, columns

    def edges_table(
        self,
        label: str,
        names: Iterable[str] = (),
        default: Any = None,
    ) -> Tuple[List[Any], List[Any], List[Any], List[List[Any]]]:
        """Return ``(ids, sources, targets, columns)`` for edges with ``label``.

        Same contract as :meth:`nodes_table`, plus the two endpoint
        columns of the incidence function ``mu``.
        """
        bucket = self._edges_by_label.get(label)
        if not bucket:
            return [], [], [], [[] for _ in names]
        store = self._edges
        edges = [store[edge_id] for edge_id in bucket]
        ids = [e.id for e in edges]
        sources = [e.source for e in edges]
        targets = [e.target for e in edges]
        columns = [[e.properties.get(name, default) for e in edges] for name in names]
        return ids, sources, targets, columns

    def node_property_names(self, label: str) -> List[str]:
        """The property names set on some node with ``label``, in the
        order they first occur: the ``names`` for which
        :meth:`nodes_table` has a cell to show."""
        return list(dict.fromkeys(
            name for node in self.nodes(label) for name in node.properties
        ))

    def edge_property_names(self, label: str) -> List[str]:
        """The property names set on some edge with ``label``."""
        return list(dict.fromkeys(
            name for edge in self.edges(label) for name in edge.properties
        ))

    def add_nodes_bulk(
        self,
        label: Optional[str],
        ids: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many nodes with one shared label in a single column pass.

        ``columns`` provides one aligned value list per name in ``names``;
        an :data:`ABSENT` cell leaves the property unset, and so does a
        ``None`` cell unless ``keep_none`` (matching the per-object
        convention that an unassigned property is absent, not ``None``).
        ``constants`` adds the same extra properties to every node.  All
        OIDs must be fresh — duplicates raise
        :class:`~repro.errors.GraphError` with the store unchanged, the
        same contract as :meth:`add_node`.
        """
        if not ids:
            return
        nodes = self._nodes
        seen = set(ids)
        clash = nodes.keys() & seen
        if clash:
            bad = sorted(clash, key=str)[0]
            raise GraphError(
                f"node {bad!r} already exists in {self.name!r}"
            )
        if len(seen) != len(ids):
            raise GraphError(
                f"duplicate node OID {first_repeat(ids)!r} in bulk add to "
                f"{self.name!r}"
            )
        prop_iter = property_rows(len(ids), names, columns, keep_none)
        out, inn = self._out, self._in
        if constants:
            const = dict(constants)
            for node_id, props in zip(ids, prop_iter):
                props.update(const)
                nodes[node_id] = Node(node_id, label, props)
                out[node_id] = []
                inn[node_id] = []
        else:
            for node_id, props in zip(ids, prop_iter):
                nodes[node_id] = Node(node_id, label, props)
                out[node_id] = []
                inn[node_id] = []
        if label is not None:
            bucket = self._nodes_by_label.setdefault(label, {})
            for node_id in ids:
                bucket[node_id] = None

    def add_edges_bulk(
        self,
        label: Optional[str],
        ids: List[Any],
        sources: List[Any],
        targets: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many edges with one shared label in a single column pass.

        Same contract as :meth:`add_nodes_bulk`; every endpoint must
        already exist (``mu`` stays total), checked up front via one set
        difference instead of two probes per edge.
        """
        if not ids:
            return
        edges = self._edges
        nodes = self._nodes
        missing = set(sources).union(targets).difference(nodes)
        if missing:
            bad = sorted(missing, key=str)[0]
            raise GraphError(f"unknown source node {bad!r} in {self.name!r}")
        seen = set(ids)
        clash = edges.keys() & seen
        if clash:
            bad = sorted(clash, key=str)[0]
            raise GraphError(
                f"edge {bad!r} already exists in {self.name!r}"
            )
        if len(seen) != len(ids):
            raise GraphError(
                f"duplicate edge OID {first_repeat(ids)!r} in bulk add to "
                f"{self.name!r}"
            )
        prop_iter = property_rows(len(ids), names, columns, keep_none)
        out, inn = self._out, self._in
        if constants:
            const = dict(constants)
            for edge_id, source, target, props in zip(
                ids, sources, targets, prop_iter
            ):
                props.update(const)
                edges[edge_id] = Edge(edge_id, source, target, label, props)
                out[source].append(edge_id)
                inn[target].append(edge_id)
        else:
            for edge_id, source, target, props in zip(
                ids, sources, targets, prop_iter
            ):
                edges[edge_id] = Edge(edge_id, source, target, label, props)
                out[source].append(edge_id)
                inn[target].append(edge_id)
        if label is not None:
            bucket = self._edges_by_label.setdefault(label, {})
            for edge_id in ids:
                bucket[edge_id] = None

    def existing_node_ids(self, ids: Iterable[Any]) -> Set[Any]:
        """Return the subset of ``ids`` already present as node OIDs.

        One C-level set intersection, replacing per-id ``has_node`` probes
        on bulk write-back paths.
        """
        return self._nodes.keys() & set(ids)

    def existing_edge_ids(self, ids: Iterable[Any]) -> Set[Any]:
        """Return the subset of ``ids`` already present as edge OIDs."""
        return self._edges.keys() & set(ids)

    def copy(self, name: Optional[str] = None) -> "PropertyGraph":
        """Return a deep-enough copy (properties are shallow-copied dicts).

        Internal state is reconstructed directly — the invariants already
        hold in ``self``, so re-validating through ``add_node``/``add_edge``
        would only burn time on large graphs.
        """
        clone = PropertyGraph(name or self.name)
        clone._nodes = {
            node_id: Node(node.id, node.label, dict(node.properties))
            for node_id, node in self._nodes.items()
        }
        clone._edges = {
            edge_id: Edge(
                edge.id, edge.source, edge.target, edge.label, dict(edge.properties)
            )
            for edge_id, edge in self._edges.items()
        }
        clone._out = {node_id: list(ids) for node_id, ids in self._out.items()}
        clone._in = {node_id: list(ids) for node_id, ids in self._in.items()}
        clone._nodes_by_label = {
            label: dict(ids) for label, ids in self._nodes_by_label.items()
        }
        clone._edges_by_label = {
            label: dict(ids) for label, ids in self._edges_by_label.items()
        }
        clone._auto_id = self._auto_id
        clone._mutation_epoch = self._mutation_epoch
        return clone

    def to_networkx(self):
        """Export to a :class:`networkx.MultiDiGraph` for analysis interop."""
        import networkx as nx

        nxg = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            nxg.add_node(node.id, label=node.label, **node.properties)
        for edge in self._edges.values():
            nxg.add_edge(
                edge.source, edge.target, key=edge.id, label=edge.label, **edge.properties
            )
        return nxg

    @classmethod
    def from_networkx(cls, nxg, name: Optional[str] = None) -> "PropertyGraph":
        """Build a property graph from any NetworkX directed graph."""
        graph = cls(name or getattr(nxg, "name", "graph") or "graph")
        for node_id, data in nxg.nodes(data=True):
            attrs = dict(data)
            label = attrs.pop("label", None)
            graph.add_node(node_id, label, **attrs)
        for source, target, data in nxg.edges(data=True):
            attrs = dict(data)
            label = attrs.pop("label", None)
            attrs.pop("key", None)
            graph.add_edge(source, target, label, **attrs)
        return graph
