"""A schema-enforcing in-memory property-graph store.

Section 5: "for schema-less systems, like graph databases, schemas can
be enforced with ad-hoc methodologies [21]".  This store is such a
methodology in miniature: it accepts a translated
:class:`~repro.models.property_graph.PGSchema` and validates every
mutation against it — allowed labels, relationship endpoint labels,
declared properties, mandatory properties, and uniqueness constraints.

The store implements the ``@input`` :class:`~repro.vadalog.annotations.Source`
protocol using exactly the Cypher-like query shapes MTV emits
(Example 4.4): ``(n:Business) return n`` extracts node facts,
``(a)-[e:OWNS]->(b) return (e, a, b)`` extracts edge facts, laid out per
the store's catalog.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.deploy.delta import DeltaFlushReport, FlushDelta
from repro.errors import DeploymentError, GraphError, IntegrityError, ModelError
from repro.graph import make_graph
from repro.graph.property_graph import (
    ABSENT,
    Edge,
    Node,
    PropertyGraph,
    property_rows,
)
from repro.metalog.analysis import GraphCatalog
from repro.models.property_graph import PGSchema
from repro.obs.tracer import Tracer

_NODE_QUERY_RE = re.compile(r"^\(\s*\w*\s*:\s*(\w+)\s*\)\s*return\s+\w+$", re.IGNORECASE)
_EDGE_QUERY_RE = re.compile(
    r"^\(\s*\w*\s*\)\s*-\s*\[\s*\w*\s*:\s*(\w+)\s*\]\s*->\s*\(\s*\w*\s*\)\s*"
    r"return\s*\(.*\)$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class StructuralSavepoint:
    """A size watermark over the store's insertion-ordered state.

    The graph store only ever *inserts* (nodes, edges, unique-index
    entries), so a savepoint needs no per-mutation undo journal: rolling
    back pops each structure down to its recorded size.  Savepoints cost
    O(1) to open and nest trivially — an inner rollback restores a later
    watermark, the outer one an earlier watermark.

    The insert-only assumption is *checked*, not trusted: the graph mark
    embeds the underlying graph's mutation epoch, so if anything deleted
    from the graph behind the store's back, ``rollback_to`` raises
    :class:`~repro.errors.DeploymentError` instead of corrupting state.
    """

    graph_mark: Tuple[int, int, int]
    unique_marks: Tuple[Tuple[Tuple[str, str], int], ...]
    labels_mark: int


#: The label set of a node the store does not hold.
_NO_LABELS: frozenset = frozenset()


class GraphStore:
    """An in-memory graph database enforcing a PG-model schema."""

    def __init__(self, name: str = "graph-store", tracer: Optional[Tracer] = None,
                 columnar: bool = True):
        self.name = name
        self.tracer = tracer
        self.graph = make_graph(name, columnar=columnar)
        self._schema: Optional[PGSchema] = None
        self._node_properties: Dict[str, Dict[str, Any]] = {}
        self._relationships: Dict[str, List[Tuple[Set[str], Set[str], Dict[str, Any]]]] = {}
        self._unique: Dict[Tuple[str, str], Dict[Any, Any]] = {}
        self._labels_by_node: Dict[Any, frozenset] = {}

    # ------------------------------------------------------------------
    # Savepoint protocol (savepoint / rollback_to / release)
    # ------------------------------------------------------------------
    def savepoint(self) -> StructuralSavepoint:
        """Open a savepoint; pair with :meth:`rollback_to` / :meth:`release`."""
        return StructuralSavepoint(
            self.graph.insertion_mark(),
            tuple((key, len(index)) for key, index in self._unique.items()),
            len(self._labels_by_node),
        )

    def rollback_to(self, savepoint: StructuralSavepoint) -> int:
        """Undo every mutation made since ``savepoint``."""
        undone = self.graph.rollback_to_mark(savepoint.graph_mark)
        while len(self._labels_by_node) > savepoint.labels_mark:
            self._labels_by_node.popitem()
        for key, mark in savepoint.unique_marks:
            index = self._unique[key]
            while len(index) > mark:
                index.popitem()
        return undone

    def release(self, savepoint: StructuralSavepoint) -> None:
        """Commit a savepoint — nothing accumulates, so this is free."""

    # ------------------------------------------------------------------
    # Schema deployment
    # ------------------------------------------------------------------
    def deploy(self, schema: PGSchema) -> None:
        """Enforce a translated PG schema from now on."""
        if self._schema is not None:
            raise DeploymentError("a schema is already deployed")
        self._schema = schema
        for node_class in schema.node_classes:
            # Property declarations key off the class's own (primary)
            # label; the extra accumulated labels only mark membership.
            properties = {p.name: p for p in node_class.properties}
            self._node_properties[node_class.primary_label] = properties
            for label in node_class.labels[1:]:
                self._node_properties.setdefault(label, {})
        for relationship in schema.relationship_classes:
            try:
                source_labels = set(
                    schema.node_class_by_oid(relationship.source_oid).labels
                )
                target_labels = set(
                    schema.node_class_by_oid(relationship.target_oid).labels
                )
            except ModelError as exc:
                # A relationship class pointing at a node-class OID the
                # schema does not define is a broken translation, not a
                # constraint-free relationship.
                raise DeploymentError(
                    f"relationship {relationship.name!r} has a dangling "
                    f"endpoint OID: {exc}"
                ) from exc
            self._relationships.setdefault(relationship.name, []).append(
                (
                    source_labels,
                    target_labels,
                    {p.name: p for p in relationship.properties},
                )
            )
        for label, prop in schema.unique_constraints():
            self._unique[(label, prop)] = {}

    @property
    def schema(self) -> Optional[PGSchema]:
        return self._schema

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _declared_properties(self, labels: List[str]) -> Dict[str, Any]:
        """The properties the schema declares for a node with ``labels``;
        raises :class:`~repro.errors.IntegrityError` for a label outside
        the schema, or none at all."""
        if not labels:
            raise IntegrityError("a node needs at least one label")
        declared: Dict[str, Any] = {}
        if self._schema is not None:
            for label in labels:
                if label not in self._node_properties:
                    raise IntegrityError(f"label {label!r} is not in the schema")
                declared.update(self._node_properties[label])
        return declared

    def _check_node(
        self,
        labels: List[str],
        properties: Dict[str, Any],
        taken: Optional[Dict[Tuple[str, str], Set[Any]]] = None,
    ) -> None:
        """Raise :class:`~repro.errors.IntegrityError` when a node with
        these labels and properties would violate the schema.  ``taken``
        holds, per unique constraint, the values of the earlier rows of
        a batch that is not in the index yet."""
        declared = self._declared_properties(labels)
        if self._schema is None:
            return
        for name in properties:
            if name not in declared:
                raise IntegrityError(
                    f"property {name!r} not declared for labels {labels}"
                )
        for name, prop in declared.items():
            if prop.optional or prop.intensional:
                continue  # intensional values appear after reasoning
            if name not in properties:
                raise IntegrityError(
                    f"mandatory property {name!r} missing for {labels}"
                )
        for key, index in self._unique_for(labels, properties):
            value = properties[key[1]]
            if value in index or (taken and value in taken[key]):
                raise IntegrityError(
                    f"unique constraint on {key[0]}.{key[1]} "
                    f"violated by {value!r}"
                )

    def _unique_for(self, labels, names) -> List[Tuple[Tuple[str, str], Dict]]:
        """The unique constraints, with their indexes, that bind a node
        with ``labels`` carrying the properties ``names``."""
        return [
            (key, index) for key, index in self._unique.items()
            if key[0] in labels and key[1] in names
        ]

    def create_node(
        self, node_id: Any, labels, **properties: Any
    ) -> Node:
        """Create a node with one or more labels (multi-tagging)."""
        if isinstance(labels, str):
            labels = [labels]
        labels = list(labels)
        self._check_node(labels, properties)
        node = self.graph.add_node(node_id, labels[0], **properties)
        self._labels_by_node[node.id] = frozenset(labels)
        for (_label, prop_name), index in self._unique_for(labels, properties):
            index[properties[prop_name]] = node.id
        if self.tracer is not None:
            self.tracer.count("deploy.nodes_written", 1)
        return node

    def create_nodes(
        self,
        labels: List[str],
        ids: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
    ) -> int:
        """Create the nodes ``ids``, all with the same ``labels``, from
        one aligned value column per property name (an
        :data:`~repro.graph.property_graph.ABSENT` cell: not set).

        Every check of :meth:`create_node` runs, a column at a time; the
        first row that fails one raises what :meth:`create_node` would
        have raised for it, with the store unchanged.  Then one bulk
        add, one label-set and one index update.  Returns ``len(ids)``.
        """
        labels = list(labels)
        column_of = dict(zip(names, columns))
        declared = self._declared_properties(labels)
        uniques = self._unique_for(labels, names)
        if self._schema is not None and ids:
            clear = all(name in declared for name in names) and all(
                name in column_of and ABSENT not in column_of[name]
                for name, prop in declared.items()
                if not (prop.optional or prop.intensional)
            )
            for (_label, prop_name), index in uniques:
                values = [v for v in column_of[prop_name] if v is not ABSENT]
                clear = clear and len(set(values)) == len(values) and (
                    index.keys().isdisjoint(values)
                )
            if not clear:
                # Row by row, to raise for the first offender exactly
                # what the per-record path raises.  Rows that lack an
                # undeclared or a unique property pass, so the scan may
                # also end without finding one.
                taken = {key: set() for key, _index in uniques}
                for properties in property_rows(
                    len(ids), names, column_of.values()
                ):
                    self._check_node(labels, properties, taken)
                    for key in taken:
                        if key[1] in properties:
                            taken[key].add(properties[key[1]])
        self.graph.add_nodes_bulk(
            labels[0], ids, names, column_of.values(), keep_none=True
        )
        self._labels_by_node.update(zip(ids, repeat(frozenset(labels))))
        for (_label, prop_name), index in uniques:
            index.update(
                (value, node_id)
                for value, node_id in zip(column_of[prop_name], ids)
                if value is not ABSENT
            )
        if self.tracer is not None:
            self.tracer.count("deploy.nodes_written", len(ids))
        return len(ids)

    def _relationship_variant(
        self, name: str, source_labels, target_labels
    ) -> Dict[str, Any]:
        """The declared properties of the first variant of relationship
        ``name`` allowed between nodes with these label sets."""
        candidates = self._relationships.get(name)
        if not candidates:
            raise IntegrityError(f"relationship {name!r} is not in the schema")
        for allowed_source, allowed_target, declared in candidates:
            if (not allowed_source or source_labels & allowed_source) and (
                not allowed_target or target_labels & allowed_target
            ):
                return declared
        raise IntegrityError(
            f"relationship {name!r} not allowed between "
            f"{sorted(source_labels)} and {sorted(target_labels)}"
        )

    def _check_relationship(
        self, source: Any, target: Any, name: str, properties: Iterable[str]
    ) -> None:
        labels_of = self._labels_by_node.get
        declared = self._relationship_variant(
            name, labels_of(source, _NO_LABELS), labels_of(target, _NO_LABELS)
        )
        for prop_name in properties:
            if prop_name not in declared:
                raise IntegrityError(
                    f"property {prop_name!r} not declared on {name!r}"
                )

    def create_relationship(
        self, source: Any, target: Any, name: str, **properties: Any
    ) -> Edge:
        if self._schema is not None:
            self._check_relationship(source, target, name, properties)
        edge = self.graph.add_edge(source, target, name, **properties)
        if self.tracer is not None:
            self.tracer.count("deploy.relationships_written", 1)
        return edge

    def create_relationships(
        self,
        name: str,
        sources: List[Any],
        targets: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
    ) -> int:
        """Create one ``name`` relationship per ``(source, target)`` row,
        with generated ids, from one aligned value column per property
        name (an ``ABSENT`` cell: not set).

        The checks of :meth:`create_relationship` run once per distinct
        pair of endpoint label sets; the first row that fails one raises
        what :meth:`create_relationship` would have raised for it, with
        the store unchanged.  Returns ``len(sources)``.
        """
        columns = list(columns)
        if self._schema is not None and sources:
            labels_of = self._labels_by_node.get
            ends = set(zip(
                map(labels_of, sources, repeat(_NO_LABELS)),
                map(labels_of, targets, repeat(_NO_LABELS)),
            ))
            try:
                clear = all(
                    declared.keys() >= set(names) for declared in (
                        self._relationship_variant(name, *pair) for pair in ends
                    )
                )
            except IntegrityError:
                clear = False
            if not clear:  # row by row, for the first offender's error
                for row, (source, target) in enumerate(zip(sources, targets)):
                    self._check_relationship(source, target, name, [
                        prop_name for prop_name, column in zip(names, columns)
                        if column[row] is not ABSENT
                    ])
        self.graph.add_edges_bulk(
            name, self.graph.fresh_edge_ids(len(sources)), sources, targets,
            names, columns, keep_none=True,
        )
        if self.tracer is not None:
            self.tracer.count("deploy.relationships_written", len(sources))
        return len(sources)

    def delete_relationship(
        self,
        source: Any,
        target: Any,
        name: str,
        properties: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Delete one relationship matching endpoints, label, and (when
        given) properties; returns False when no match exists.

        Deleting bumps the underlying graph's mutation epoch, so it must
        not run between a structural savepoint and its rollback — the
        delta-flush path therefore applies removals *before* opening the
        insert savepoint.
        """
        for edge in self.graph.out_edges(source, name):
            if edge.target != target:
                continue
            if properties is not None and edge.properties != properties:
                continue
            self.graph.remove_edge(edge.id)
            if self.tracer is not None:
                self.tracer.count("deploy.relationships_removed", 1)
            return True
        return False

    def delete_node(self, node_id: Any) -> bool:
        """Delete a node, its incident relationships, and its index
        entries; returns False when the node is unknown."""
        if not self.graph.has_node(node_id):
            return False
        node = self.graph.node(node_id)
        labels = self._labels_by_node.pop(node_id, set())
        for (label, prop_name), index in self._unique.items():
            if label in labels and prop_name in node.properties:
                value = node.properties[prop_name]
                if index.get(value) == node_id:
                    del index[value]
        self.graph.remove_node(node_id)
        if self.tracer is not None:
            self.tracer.count("deploy.nodes_removed", 1)
        return True

    def update_node_properties(
        self, node_id: Any, properties: Dict[str, Any]
    ) -> None:
        """Replace a node's properties in place, revalidating them."""
        node = self.graph.node(node_id)
        labels = self._labels_by_node.get(node_id, {node.label})
        if self._schema is not None:
            declared: Dict[str, Any] = {}
            for label in labels:
                declared.update(self._node_properties.get(label, {}))
            for name in properties:
                if name not in declared:
                    raise IntegrityError(
                        f"property {name!r} not declared for labels "
                        f"{sorted(labels)}"
                    )
        for (label, prop_name), index in self._unique.items():
            if label not in labels:
                continue
            old_value = node.properties.get(prop_name)
            new_value = properties.get(prop_name)
            if old_value == new_value:
                continue
            if new_value is not None and index.get(new_value) not in (
                None, node_id
            ):
                raise IntegrityError(
                    f"unique constraint on {label}.{prop_name} "
                    f"violated by {new_value!r}"
                )
            if old_value is not None and index.get(old_value) == node_id:
                del index[old_value]
            if new_value is not None:
                index[new_value] = node_id
        node.properties.clear()
        node.properties.update(properties)

    def apply_flush_delta(
        self, delta: FlushDelta, schema: Any = None
    ) -> DeltaFlushReport:
        """Bring a previously loaded store up to date with a
        :class:`~repro.deploy.delta.FlushDelta` instead of a full reload.

        ``schema`` (a :class:`~repro.core.schema.SuperSchema`) enables
        the same multi-label tagging the full loader applies; without it
        added nodes get their type name as the only label.  Removals and
        in-place updates run first — structural savepoints assume
        insert-only mutation, so the insert batch alone is guarded: an
        integrity violation rolls the inserts back and re-raises, while
        the destructive half (which cannot violate integrity) stays.
        """
        report = DeltaFlushReport()
        for edge_id, source, target, label, properties in delta.removed_edges:
            if self.delete_relationship(source, target, label, properties):
                report.edges_removed += 1
            else:
                report.skipped += 1
        for node_id, _label, _properties in delta.removed_nodes:
            if self.delete_node(node_id):
                report.nodes_removed += 1
            else:
                report.skipped += 1
        for node_id, _label, properties, _old in delta.updated_nodes:
            if not self.graph.has_node(node_id):
                report.skipped += 1
                continue
            self.update_node_properties(node_id, properties)
            report.nodes_updated += 1
        savepoint = self.savepoint()
        try:
            for node_id, label, properties in delta.added_nodes:
                if self.graph.has_node(node_id):
                    report.skipped += 1
                    continue
                labels: Any = [label]
                if schema is not None and schema.has_node(label):
                    sm_node = schema.get_node(label)
                    labels = [sm_node.type_name] + [
                        a.type_name for a in schema.ancestors_of(sm_node)
                    ]
                self.create_node(node_id, labels, **properties)
                report.nodes_added += 1
            for _edge_id, source, target, label, properties in delta.added_edges:
                self.create_relationship(source, target, label, **properties)
                report.edges_added += 1
        except (DeploymentError, GraphError):
            # DeploymentError covers IntegrityError *and* the transient
            # class: an injected/transient fault mid-insert must roll the
            # partial batch back too, or a retry replays onto dirty state.
            self.rollback_to(savepoint)
            if self.tracer is not None:
                self.tracer.count("deploy.rollbacks", 1)
            raise
        finally:
            self.release(savepoint)
        if self.tracer is not None:
            self.tracer.count("incr.flushed_delta", report.applied)
        return report

    def labels_of(self, node_id: Any) -> Set[str]:
        return set(self._labels_by_node.get(node_id, set()))

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        for node_id, labels in self._labels_by_node.items():
            if label in labels:
                yield self.graph.node(node_id)

    # ------------------------------------------------------------------
    # @input extraction (Source protocol)
    # ------------------------------------------------------------------
    def catalog(self) -> GraphCatalog:
        """Catalog derived from the deployed schema (declared order)."""
        catalog = GraphCatalog()
        for label, properties in self._node_properties.items():
            catalog.extend_node(label, sorted(properties))
        for name, variants in self._relationships.items():
            names: Set[str] = set()
            for _, _, declared in variants:
                names |= set(declared)
            catalog.extend_edge(name, sorted(names))
        return catalog

    def extract(self, query: str) -> Iterator[Tuple[Any, ...]]:
        """Execute an MTV-style extraction query."""
        query = query.strip()
        node_match = _NODE_QUERY_RE.match(query)
        catalog = self.catalog()
        if node_match:
            label = node_match.group(1)
            names = catalog.node_properties.get(label, [])
            for node in self.nodes_with_label(label):
                yield (node.id, *(node.properties.get(n) for n in names))
            return
        edge_match = _EDGE_QUERY_RE.match(query)
        if edge_match:
            label = edge_match.group(1)
            names = catalog.edge_properties.get(label, [])
            for edge in self.graph.edges(label):
                yield (
                    edge.id, edge.source, edge.target,
                    *(edge.properties.get(n) for n in names),
                )
            return
        raise DeploymentError(f"unsupported extraction query {query!r}")

    def __repr__(self) -> str:
        return (
            f"GraphStore({self.name!r}, nodes={self.graph.node_count}, "
            f"edges={self.graph.edge_count})"
        )
