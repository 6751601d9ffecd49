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
from functools import partial
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.deploy.delta import DeltaFlushReport, FlushDelta
from repro.deploy.transactions import SavepointMixin, UndoLog, transaction
from repro.errors import DeploymentError, IntegrityError, ModelError
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT, Edge, Node, property_rows
from repro.metalog.analysis import GraphCatalog
from repro.models.property_graph import PGSchema
from repro.obs.tracer import Tracer
from repro.vadalog.columnar import Codes

_NODE_QUERY_RE = re.compile(r"^\(\s*\w*\s*:\s*(\w+)\s*\)\s*return\s+\w+$", re.IGNORECASE)
_EDGE_QUERY_RE = re.compile(
    r"^\(\s*\w*\s*\)\s*-\s*\[\s*\w*\s*:\s*(\w+)\s*\]\s*->\s*\(\s*\w*\s*\)\s*"
    r"return\s*\(.*\)$",
    re.IGNORECASE,
)


#: The label set of a node the store does not hold.
_NO_LABELS: frozenset = frozenset()


def _unset(column: Any) -> bool:
    """Whether a value or code column has an unset cell."""
    return bool((column == -1).any()) if isinstance(column, Codes) else (
        ABSENT in column
    )


def _require_mandatory(declared: Dict[str, Any], properties, labels) -> None:
    """Raise :class:`~repro.errors.IntegrityError` when ``properties``
    lack a mandatory property of ``declared``; optional and intensional
    ones are exempt (intensional values appear after reasoning)."""
    for name, prop in declared.items():
        if not (prop.optional or prop.intensional) and name not in properties:
            raise IntegrityError(
                f"mandatory property {name!r} missing for {labels}"
            )


def node_labels(schema: Any, type_name: str) -> List[str]:
    """A node's store labels, on the load and the delta alike: its type,
    then every ancestor type of ``schema`` (a super-schema); the type
    alone when there is no schema or it lacks the type."""
    if schema is None or not schema.has_node(type_name):
        return [type_name]
    node = schema.get_node(type_name)
    return [node.type_name, *(a.type_name for a in schema.ancestors_of(node))]


class GraphStore(SavepointMixin):
    """An in-memory graph database enforcing a PG-model schema.

    Every mutator journals its inverse on the store's
    :class:`~repro.deploy.transactions.UndoLog` while a savepoint is
    open; an inverse writes through the graph's public add/remove API,
    so rollback works the same on both graph classes.  After a rollback
    the store holds the same elements, labels and index entries as
    before (:func:`~repro.deploy.resilience.graph_store_state`), not
    necessarily in the same order.
    """

    def __init__(self, name: str = "graph-store", tracer: Optional[Tracer] = None):
        self.name = name
        self.tracer = tracer
        self.graph = make_graph(name)
        self._schema: Optional[PGSchema] = None
        self._node_properties: Dict[str, Dict[str, Any]] = {}
        self._relationships: Dict[str, List[Tuple[Set[str], Set[str], Dict[str, Any]]]] = {}
        self._unique: Dict[Tuple[str, str], Dict[Any, Any]] = {}
        self._labels_by_node: Dict[Any, frozenset] = {}
        self._undo = UndoLog()

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
        _require_mandatory(declared, properties, labels)
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
        if self._undo.active:
            self._undo.record(partial(self._remove_nodes, [node.id]))
        if self.tracer is not None:
            self.tracer.count("deploy.nodes_written", 1)
        return node

    def _check_nodes(
        self, labels: List[str], node_ids: List[Any], names: Tuple[str, ...],
        columns: List[Any],
    ) -> List[Tuple[Dict[Any, Any], Dict[Any, Any]]]:
        """The checks of :meth:`create_node` for the nodes ``node_ids``,
        all with ``labels``, from one aligned column per property name, a
        column at a time; store unchanged.  Returns ``(index, entries)``
        per unique constraint the group binds — ``entries`` maps each
        value set to its node."""
        column_of = dict(zip(names, columns))
        declared = self._declared_properties(labels)
        bound = self._unique_for(labels, names)
        distinct = True
        entries_of = {}  # a property several labels constrain is read once
        for name in dict.fromkeys(key[1] for key, _index in bound):
            column = column_of[name]
            rows, count = zip(self._values(column), node_ids), len(node_ids)
            if _unset(column):
                rows = [row for row in rows if row[0] is not ABSENT]
                count = len(rows)
            entries_of[name] = dict(rows)
            distinct = distinct and len(entries_of[name]) == count
        uniques = [(index, entries_of[key[1]]) for key, index in bound]
        if self._schema is None or not len(node_ids):
            return uniques
        clear = distinct and all(name in declared for name in names) and all(
            name in column_of and not _unset(column_of[name])
            for name, prop in declared.items()
            if not (prop.optional or prop.intensional)
        ) and all(index.keys().isdisjoint(entries) for index, entries in uniques)
        if not clear:
            # Row by row, to raise for the first offender exactly what
            # the per-record path raises.  Rows that lack an undeclared
            # or a unique property pass, so the scan may also end
            # without finding one.
            taken = {key: set() for key, _index in bound}
            for properties in property_rows(
                len(node_ids), names, map(self._values, columns)
            ):
                self._check_node(labels, properties, taken)
                for key in taken:
                    if key[1] in properties:
                        taken[key].add(properties[key[1]])
        return uniques

    def _values(self, column: Any) -> List[Any]:
        """A value column as it is, a code column decoded."""
        return self.graph.values_of(column) if isinstance(column, Codes) else column

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
        if self._undo.active:
            self._undo.record(partial(self._remove_edges, [edge.id]))
        if self.tracer is not None:
            self.tracer.count("deploy.relationships_written", 1)
        return edge

    def _check_relationships(
        self, name: str, sources: Any, targets: Any,
        names: Tuple[str, ...], columns: List[Any], ends: set,
    ) -> None:
        """The checks of :meth:`create_relationship` for one ``name``
        relationship per ``(source, target)`` row, once per distinct pair
        of endpoint label sets in ``ends``; store unchanged."""
        if self._schema is None or not len(sources):
            return
        try:
            clear = all(
                declared.keys() >= set(names) for declared in (
                    self._relationship_variant(name, *pair) for pair in ends
                )
            )
        except IntegrityError:
            clear = False
        if not clear:  # row by row, for the first offender's error
            rows = zip(self._values(sources), self._values(targets),
                       property_rows(len(sources), names,
                                     map(self._values, columns)))
            for source, target, properties in rows:
                self._check_relationship(source, target, name, properties)

    def adopt(self, graph: Any, node_groups: List[Tuple[Any, ...]],
              edge_groups: List[Tuple[Any, ...]]) -> bool:
        """Take over a copy of ``graph`` instead of writing it into an
        empty store.  A node group ``(labels, ids, names, columns)``
        holds the nodes of ``graph`` with label ``labels[0]``, an edge
        group ``(name, sources, targets, names, columns)`` the edges with
        label ``name``, as code columns of ``graph`` (the store's graph
        shares its codes).

        Every check of :meth:`create_node` / :meth:`create_relationship`
        runs, group by group in order, and the first row that fails
        raises what writing the groups record by record would have
        raised, with the store unchanged.  Then the store holds what
        those writes would have made: label sets and unique indexes
        filled as they fill them, and the copy's edges under the OIDs
        they mint
        (:meth:`~repro.graph.columnar_graph.ColumnarPropertyGraph.adopted`).
        One undo entry puts back the empty graph, label sets and index
        entries.  Returns False, with nothing done, when the store
        holds an element or the groups miss one of ``graph``.
        """
        held = self.graph
        if held.node_count or held.edge_count or (
            sum(len(group[1]) for group in node_groups) != graph.node_count
            or sum(len(group[1]) for group in edge_groups) != graph.edge_count
        ):
            return False
        labels_by_node = self._labels_by_node
        entries = [dict(index) for index in self._unique.values()]
        self._labels_by_node = dict(labels_by_node)
        try:
            for labels, ids, names, columns in node_groups:
                node_ids = self._values(ids)
                uniques = self._check_nodes(labels, node_ids, names, columns)
                self._labels_by_node.update(
                    dict.fromkeys(node_ids, frozenset(labels))
                )
                for index, checked in uniques:
                    index.update(checked)
            # A node's label set is its group's: the pairs of an edge
            # group's ends follow from the labels of ``graph``.
            label_set = {group[0][0]: frozenset(group[0]) for group in node_groups}
            for group in edge_groups:
                self._check_relationships(*group, {
                    (label_set[source], label_set[target])
                    for source, target in graph.edge_end_labels(group[0])
                })
        except BaseException:
            self._restore(held, labels_by_node, entries)
            raise
        self.graph = held.adopted(graph, [group[0] for group in edge_groups])
        if self._undo.active:
            self._undo.record(
                partial(self._restore, held, labels_by_node, entries)
            )
        return True

    def delete_relationship(
        self,
        source: Any,
        target: Any,
        name: str,
        properties: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Delete one relationship matching endpoints, label, and (when
        given) properties; returns False when no match exists."""
        for edge in self.graph.out_edges(source, name):
            if edge.target != target:
                continue
            if properties is not None and edge.properties != properties:
                continue
            if self._undo.active:
                self._undo.record(partial(
                    self._restore_edge, edge.id, source, target, name,
                    dict(edge.properties),
                ))
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
        if self._undo.active:
            self._undo.record(self._node_restorer(node_id))
        self._remove_nodes([node_id])
        if self.tracer is not None:
            self.tracer.count("deploy.nodes_removed", 1)
        return True

    def update_node_properties(
        self, node_id: Any, properties: Dict[str, Any]
    ) -> None:
        """Replace a node's properties in place, revalidating them: an
        undeclared property, a missing mandatory one or a value a unique
        index holds for another node raises
        :class:`~repro.errors.IntegrityError` with nothing changed."""
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
            _require_mandatory(declared, properties, sorted(labels))
        for (label, prop_name), index in self._unique.items():
            new_value = properties.get(prop_name)
            if (
                label in labels and new_value is not None
                and new_value != node.properties.get(prop_name)
                and index.get(new_value) not in (None, node_id)
            ):
                raise IntegrityError(
                    f"unique constraint on {label}.{prop_name} "
                    f"violated by {new_value!r}"
                )
        if self._undo.active:
            self._undo.record(partial(
                self._replace_properties, node_id, labels,
                dict(node.properties),
            ))
        self._replace_properties(node_id, labels, properties)

    # The inverses the mutators journal.  They write through the graph
    # and the store's indexes directly: an inverse records nothing.
    def _replace_properties(
        self, node_id: Any, labels, properties: Dict[str, Any]
    ) -> None:
        held = self.graph.node(node_id).properties
        for (label, prop_name), index in self._unique.items():
            old_value = held.get(prop_name)
            new_value = properties.get(prop_name)
            if label not in labels or old_value == new_value:
                continue
            if old_value is not None and index.get(old_value) == node_id:
                del index[old_value]
            if new_value is not None:
                index[new_value] = node_id
        held.clear()
        held.update(properties)

    def _remove_nodes(self, node_ids: Iterable[Any]) -> None:
        """Remove nodes with their incident edges, label sets and
        unique-index entries."""
        for node_id in node_ids:
            held = self.graph.node(node_id).properties
            labels = self._labels_by_node.pop(node_id, _NO_LABELS)
            for (label, prop_name), index in self._unique.items():
                if label in labels and prop_name in held:
                    if index.get(held[prop_name]) == node_id:
                        del index[held[prop_name]]
            self.graph.remove_node(node_id)

    def _restore(self, graph: Any, labels_by_node: Dict[Any, frozenset],
                 entries: List[Dict[Any, Any]]) -> None:
        """Put back a graph, its label sets and unique-index entries."""
        self.graph = graph
        self._labels_by_node = labels_by_node
        for index, held in zip(self._unique.values(), entries):
            index.clear()
            index.update(held)

    def _remove_edges(self, edge_ids: Iterable[Any]) -> None:
        for edge_id in edge_ids:
            self.graph.remove_edge(edge_id)

    def _restore_edge(self, edge_id: Any, source: Any, target: Any,
                      label: str, properties: Dict[str, Any]) -> None:
        self.graph.add_edge(source, target, label, edge_id).properties.update(
            properties
        )

    def _node_restorer(self, node_id: Any):
        """The inverse of deleting ``node_id`` as it is now: put back the
        node, its incident edges (with their ids), its label set and its
        unique-index entries."""
        node = self.graph.node(node_id)
        label, properties = node.label, dict(node.properties)
        labels = self._labels_by_node.get(node_id)
        entries = [
            (index, properties[prop_name])
            for (owner, prop_name), index in self._unique.items()
            if labels and owner in labels and prop_name in properties
            and index.get(properties[prop_name]) == node_id
        ]
        edges = {
            edge.id: (edge.source, edge.target, edge.label, dict(edge.properties))
            for edge in chain(
                self.graph.out_edges(node_id), self.graph.in_edges(node_id)
            )
        }

        def restore() -> None:
            self.graph.add_node(node_id, label).properties.update(properties)
            if labels is not None:
                self._labels_by_node[node_id] = labels
            for index, value in entries:
                index[value] = node_id
            for edge_id, edge in edges.items():
                self._restore_edge(edge_id, *edge)

        return restore

    def apply_flush_delta(
        self, delta: FlushDelta, schema: Any = None, instance: Any = None
    ) -> DeltaFlushReport:
        """Bring a previously loaded store up to date with a
        :class:`~repro.deploy.delta.FlushDelta` instead of a full reload.

        ``schema`` (a :class:`~repro.core.schema.SuperSchema`) labels an
        added node as the full loader does (:func:`node_labels`).
        ``instance``, the graph the delta leads to, is not read: the
        records list every change, by id.  Removals, in-place updates
        and inserts run in that order under one savepoint: any exception
        — an integrity violation, a transient fault — rolls the whole
        delta back and re-raises, so a refused delta leaves the store as
        it was.
        """
        report = DeltaFlushReport()
        with transaction(self):
            for _edge_id, source, target, label, properties in delta.removed_edges:
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
            for node_id, label, properties in delta.added_nodes:
                if self.graph.has_node(node_id):
                    report.skipped += 1
                    continue
                self.create_node(node_id, node_labels(schema, label), **properties)
                report.nodes_added += 1
            for _edge_id, source, target, label, properties in delta.added_edges:
                self.create_relationship(source, target, label, **properties)
                report.edges_added += 1
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
