"""Instance-level constructs (Figure 9) and super-schema instances.

Section 6: "We enrich the super-model dictionary to make it directly
suitable to store instances of super-schemas ... for each super-construct
C an I_C instance super-construct, representing the respective instance
counterpart.  Each instance super-construct is connected to the
respective super-construct by a SM_References edge.  In general, instance
super-constructs only have the implicit OID attributes and instanceOID
... except for I_SM_Attribute, which holds a value attribute."

:class:`SuperInstance` wraps a plain typed property graph (nodes labeled
with the schema's type names) and converts it to/from the ``I_SM_*``
encoding inside a dictionary graph — the load/flush halves of
Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.core.oid import construct_oid
from repro.core.schema import SuperSchema
from repro.errors import SchemaError
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT, PropertyGraph

Fact = Tuple[Any, ...]


# ---------------------------------------------------------------------------
# The Figure 9 encoding of one plain element
# ---------------------------------------------------------------------------


@dataclass
class EncodedConstructs:
    """The ``I_SM_*`` constructs of some plain elements, both as
    dictionary-graph elements and as the staging facts
    ``graph_to_database`` extracts from them."""

    facts: Dict[str, Set[Fact]] = field(default_factory=dict)
    #: ``(oid, label, properties)`` dictionary-graph nodes.
    graph_nodes: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)
    #: ``(edge_id, source, target, label, properties)`` graph edges.
    graph_edges: List[Tuple[str, str, str, str, Dict[str, Any]]] = field(
        default_factory=list
    )

    def _fact(self, label: str, fact: Fact) -> None:
        self.facts.setdefault(label, set()).add(fact)

    def node(self, oid: str, label: str, **properties: Any) -> None:
        self.graph_nodes.append((oid, label, properties))
        if label == "I_SM_Attribute":
            third = properties.get("value")
        else:
            third = properties.get("sourceOID")
        self._fact(label, (oid, properties.get("instanceOID"), third))

    def edge(
        self, edge_id: str, source: str, target: str, label: str, ioid: Any
    ) -> None:
        self.graph_edges.append(
            (edge_id, source, target, label, {"instanceOID": ioid})
        )
        self._fact(label, (edge_id, source, target, ioid))

    def merge(self, other: "EncodedConstructs") -> None:
        for label, facts in other.facts.items():
            self.facts.setdefault(label, set()).update(facts)
        self.graph_nodes.extend(other.graph_nodes)
        self.graph_edges.extend(other.graph_edges)


def instance_iid(instance_oid: Any, kind: str, *parts: Any) -> str:
    """The deterministic OID of an instance construct — recomputable
    from the element id alone."""
    return construct_oid(instance_oid, f"i-{kind}", *parts)


def encode_node(
    schema: SuperSchema,
    instance_oid: Any,
    node_id: Any,
    type_name: str,
    properties: Dict[str, Any],
) -> EncodedConstructs:
    """Encode one plain node as its ``I_SM_*`` constructs.

    Raises :class:`~repro.errors.SchemaError` for an unknown type.
    Properties the schema does not model are skipped.
    """
    sm_node = schema.get_node(type_name)
    out = EncodedConstructs()
    node_iid = instance_iid(instance_oid, "node", node_id)
    out.node(
        node_iid, "I_SM_Node", instanceOID=instance_oid, sourceOID=node_id
    )
    out.edge(
        f"{node_iid}-[SM_REFERENCES]->{sm_node.oid}",
        node_iid, sm_node.oid, "SM_REFERENCES", instance_oid,
    )
    attributes = {a.name: a for a in schema.inherited_attributes(sm_node)}
    for name, value in properties.items():
        attribute = attributes.get(name)
        if attribute is None:
            continue
        attr_iid = instance_iid(instance_oid, "nattr", node_id, name)
        out.node(
            attr_iid, "I_SM_Attribute", instanceOID=instance_oid, value=value
        )
        out.edge(
            f"{attr_iid}-[SM_REFERENCES]->{attribute.oid}",
            attr_iid, attribute.oid, "SM_REFERENCES", instance_oid,
        )
        out.edge(
            f"{node_iid}-[I_SM_HAS_NODE_PROPERTY]->{attr_iid}",
            node_iid, attr_iid, "I_SM_HAS_NODE_PROPERTY", instance_oid,
        )
    return out


def encode_edge(
    schema: SuperSchema,
    instance_oid: Any,
    edge_id: Any,
    source: Any,
    target: Any,
    type_name: str,
    properties: Dict[str, Any],
) -> EncodedConstructs:
    """Encode one plain edge as its ``I_SM_*`` constructs.

    The endpoint ``I_SM_Node`` OIDs are recomputed from the endpoint
    ids (they are deterministic), so the endpoints need not be encoded
    by the same call.
    """
    sm_edge = schema.get_edge(type_name)
    out = EncodedConstructs()
    edge_iid = instance_iid(instance_oid, "edge", edge_id)
    source_iid = instance_iid(instance_oid, "node", source)
    target_iid = instance_iid(instance_oid, "node", target)
    out.node(
        edge_iid, "I_SM_Edge", instanceOID=instance_oid, sourceOID=edge_id
    )
    out.edge(
        f"{edge_iid}-[SM_REFERENCES]->{sm_edge.oid}",
        edge_iid, sm_edge.oid, "SM_REFERENCES", instance_oid,
    )
    out.edge(
        f"{edge_iid}-[I_SM_FROM]", edge_iid, source_iid, "I_SM_FROM",
        instance_oid,
    )
    out.edge(
        f"{edge_iid}-[I_SM_TO]", edge_iid, target_iid, "I_SM_TO",
        instance_oid,
    )
    attributes = {a.name: a for a in sm_edge.attributes}
    for name, value in properties.items():
        attribute = attributes.get(name)
        if attribute is None:
            continue
        attr_iid = instance_iid(instance_oid, "eattr", edge_id, name)
        out.node(
            attr_iid, "I_SM_Attribute", instanceOID=instance_oid, value=value
        )
        out.edge(
            f"{attr_iid}-[SM_REFERENCES]->{attribute.oid}",
            attr_iid, attribute.oid, "SM_REFERENCES", instance_oid,
        )
        out.edge(
            f"{edge_iid}-[I_SM_HAS_EDGE_PROPERTY]->{attr_iid}",
            edge_iid, attr_iid, "I_SM_HAS_EDGE_PROPERTY", instance_oid,
        )
    return out


class SuperInstance:
    """An instance of a super-schema.

    ``data`` is a plain property graph whose node labels are the schema's
    node type names and whose edge labels are the schema's edge type
    names; properties are attribute values.
    """

    def __init__(self, schema: SuperSchema, instance_oid: Any, data: PropertyGraph):
        self.schema = schema
        self.instance_oid = instance_oid
        self.data = data

    # ------------------------------------------------------------------
    @classmethod
    def from_plain_graph(
        cls,
        schema: SuperSchema,
        graph: PropertyGraph,
        instance_oid: Any,
        strict: bool = True,
    ) -> "SuperInstance":
        """Wrap a plain data graph, checking labels against the schema."""
        if strict:
            known_nodes = {n.type_name for n in schema.nodes}
            known_edges = {e.type_name for e in schema.edges}
            for node in graph.nodes():
                if node.label is not None and node.label not in known_nodes:
                    raise SchemaError(
                        f"node label {node.label!r} is not a type of schema "
                        f"{schema.name!r}"
                    )
            for edge in graph.edges():
                if edge.label is not None and edge.label not in known_edges:
                    raise SchemaError(
                        f"edge label {edge.label!r} is not a type of schema "
                        f"{schema.name!r}"
                    )
        return cls(schema, instance_oid, graph)

    # ------------------------------------------------------------------
    # Load: plain graph -> I_SM_* constructs (Algorithm 2, line 4)
    # ------------------------------------------------------------------
    def to_dictionary(
        self, graph: PropertyGraph, bulk: bool = True
    ) -> PropertyGraph:
        """Encode this instance as ``I_SM_*`` constructs in ``graph``.

        The schema must already be serialized in the same graph (its
        construct OIDs are the ``SM_REFERENCES`` targets).

        ``bulk=True`` (the default) encodes label-at-a-time through the
        graph's column accessors — the registry-scale load path of
        Algorithm 2 — while ``bulk=False`` writes each element's
        :func:`encode_node` / :func:`encode_edge` result, the encoder
        single-element updates use, as a differential oracle.  Both
        produce the same dictionary content; only graph insertion order
        differs.
        """
        if bulk:
            return self._to_dictionary_bulk(graph)
        ioid = self.instance_oid
        schema = self.schema

        def write(encoded: EncodedConstructs) -> None:
            for oid, label, properties in encoded.graph_nodes:
                graph.add_node(oid, label, **properties)
            for edge_id, source, target, label, properties in encoded.graph_edges:
                graph.add_edge(source, target, label, edge_id=edge_id, **properties)

        # Nodes first: an I_SM_FROM / I_SM_TO edge needs both endpoints'
        # I_SM_Node constructs in the graph.
        for node in self.data.nodes():
            if node.label is not None:
                write(encode_node(
                    schema, ioid, node.id, node.label, node.properties
                ))
        for edge in self.data.edges():
            if edge.label is not None:
                write(encode_edge(
                    schema, ioid, edge.id, edge.source, edge.target,
                    edge.label, edge.properties,
                ))
        return graph

    def _to_dictionary_bulk(self, graph: PropertyGraph) -> PropertyGraph:
        """Column-wise encoding core of :meth:`to_dictionary`.

        One :meth:`~repro.graph.property_graph.PropertyGraph.nodes_table`
        / ``edges_table`` call per data label pulls the instance out as
        columns, and one ``add_nodes_bulk`` / ``add_edges_bulk`` call
        per construct family writes the ``I_SM_*`` encoding back — no
        per-element property-dict iteration survives.  The ``ABSENT``
        sentinel keeps the per-object semantics exact: a property whose
        stored value is ``None`` still encodes as an ``I_SM_Attribute``
        with ``value=None``, while a property missing from the element
        produces nothing.
        """
        ioid = self.instance_oid
        schema = self.schema
        data = self.data
        constants = {"instanceOID": ioid}

        def emit_references(sources: List[str], targets: List[str]) -> None:
            graph.add_edges_bulk(
                "SM_REFERENCES",
                [f"{s}-[SM_REFERENCES]->{t}" for s, t in zip(sources, targets)],
                sources, targets, constants=constants,
            )

        def emit_attributes(
            owner_iids: List[str], attr_iids: List[str], values: List[Any],
            attr_oid: str, attach_label: str,
        ) -> None:
            # ``keep_none=True``: a stored None is a real attribute value
            # here (the ABSENT filter already removed missing ones).
            graph.add_nodes_bulk(
                "I_SM_Attribute", attr_iids, ("value",), [values],
                constants=constants, keep_none=True,
            )
            emit_references(attr_iids, [attr_oid] * len(attr_iids))
            graph.add_edges_bulk(
                attach_label,
                [f"{o}-[{attach_label}]->{a}"
                 for o, a in zip(owner_iids, attr_iids)],
                owner_iids, attr_iids, constants=constants,
            )

        for label in sorted(data.node_labels()):
            sm_node = schema.get_node(label)
            attributes = {
                a.name: a for a in schema.inherited_attributes(sm_node)
            }
            names = tuple(attributes)
            ids, columns = data.nodes_table(label, names, default=ABSENT)
            if not ids:
                continue
            node_iids = [f"{ioid}:i-node:{nid}" for nid in ids]
            graph.add_nodes_bulk(
                "I_SM_Node", node_iids, ("sourceOID",), [list(ids)],
                constants=constants,
            )
            emit_references(node_iids, [sm_node.oid] * len(node_iids))
            for name, column in zip(names, columns):
                present = [
                    i for i, value in enumerate(column) if value is not ABSENT
                ]
                if not present:
                    continue
                emit_attributes(
                    [node_iids[i] for i in present],
                    [f"{ioid}:i-nattr:{ids[i]}:{name}" for i in present],
                    [column[i] for i in present],
                    attributes[name].oid, "I_SM_HAS_NODE_PROPERTY",
                )

        for label in sorted(data.edge_labels()):
            sm_edge = schema.get_edge(label)
            attributes = {a.name: a for a in sm_edge.attributes}
            names = tuple(attributes)
            ids, sources, targets, columns = data.edges_table(
                label, names, default=ABSENT
            )
            if not ids:
                continue
            edge_iids = [f"{ioid}:i-edge:{eid}" for eid in ids]
            graph.add_nodes_bulk(
                "I_SM_Edge", edge_iids, ("sourceOID",), [list(ids)],
                constants=constants,
            )
            emit_references(edge_iids, [sm_edge.oid] * len(edge_iids))
            graph.add_edges_bulk(
                "I_SM_FROM",
                [f"{eiid}-[I_SM_FROM]" for eiid in edge_iids],
                edge_iids,
                [f"{ioid}:i-node:{s}" for s in sources],
                constants=constants,
            )
            graph.add_edges_bulk(
                "I_SM_TO",
                [f"{eiid}-[I_SM_TO]" for eiid in edge_iids],
                edge_iids,
                [f"{ioid}:i-node:{t}" for t in targets],
                constants=constants,
            )
            for name, column in zip(names, columns):
                present = [
                    i for i, value in enumerate(column) if value is not ABSENT
                ]
                if not present:
                    continue
                emit_attributes(
                    [edge_iids[i] for i in present],
                    [f"{ioid}:i-eattr:{ids[i]}:{name}" for i in present],
                    [column[i] for i in present],
                    attributes[name].oid, "I_SM_HAS_EDGE_PROPERTY",
                )
        return graph

    # ------------------------------------------------------------------
    # Flush: I_SM_* constructs -> plain graph (Algorithm 2, line 9)
    # ------------------------------------------------------------------
    @classmethod
    def from_dictionary(
        cls,
        graph: PropertyGraph,
        schema: SuperSchema,
        instance_oid: Any,
        name: str = "instance",
    ) -> "SuperInstance":
        """Decode the ``I_SM_*`` constructs of ``instance_oid`` back into a
        plain typed property graph."""
        node_type_by_oid = {n.oid: n.type_name for n in schema.nodes}
        edge_type_by_oid = {e.oid: e.type_name for e in schema.edges}
        attribute_name_by_oid: Dict[Any, str] = {}
        for node in schema.nodes:
            for attribute in node.attributes:
                attribute_name_by_oid[attribute.oid] = attribute.name
        for edge in schema.edges:
            for attribute in edge.attributes:
                attribute_name_by_oid[attribute.oid] = attribute.name

        # Link maps are built once with one bulk edges_table pass per
        # label instead of a filtered out_edges scan per construct.  Per
        # owner, bucket order equals out-edge insertion order, so the
        # decoded property dicts match the per-construct scans exactly.
        refs: Dict[Any, Any] = {}
        _, sources, targets, _ = graph.edges_table("SM_REFERENCES")
        for source, target in zip(sources, targets):
            if source not in refs:  # first reference wins, as before
                refs[source] = target

        def link_map(label: str, last_wins: bool) -> Dict[Any, Any]:
            mapping: Dict[Any, Any] = {}
            _, sources, targets, _ = graph.edges_table(label)
            if last_wins:
                mapping.update(zip(sources, targets))
            else:
                for source, target in zip(sources, targets):
                    mapping.setdefault(source, []).append(target)
            return mapping

        node_prop_links = link_map("I_SM_HAS_NODE_PROPERTY", last_wins=False)
        edge_prop_links = link_map("I_SM_HAS_EDGE_PROPERTY", last_wins=False)

        def attributes_of(iid: Any, links: Dict[Any, Any]) -> Dict[str, Any]:
            values: Dict[str, Any] = {}
            for attr_iid in links.get(iid, ()):
                attr_node = graph.node(attr_iid)
                if attr_node.get("instanceOID") != instance_oid:
                    continue
                attr_name = attribute_name_by_oid.get(refs.get(attr_iid))
                if attr_name is not None:
                    values[attr_name] = attr_node.get("value")
            return values

        data = make_graph(name)
        plain_id_by_iid: Dict[Any, Any] = {}
        node_ids, node_cols = graph.nodes_table(
            "I_SM_Node", ("instanceOID", "sourceOID")
        )
        node_ioids, node_sources = node_cols
        for i in sorted(range(len(node_ids)), key=lambda j: str(node_ids[j])):
            if node_ioids[i] != instance_oid:
                continue
            iid = node_ids[i]
            type_name = node_type_by_oid.get(refs.get(iid))
            if type_name is None:
                continue
            plain_id = node_sources[i]
            if plain_id is None:
                plain_id = iid  # derived node: keep the invented OID
            plain_id_by_iid[iid] = plain_id
            data.add_node(
                plain_id, type_name,
                **attributes_of(iid, node_prop_links),
            )
        from_map = link_map("I_SM_FROM", last_wins=True)
        to_map = link_map("I_SM_TO", last_wins=True)
        edge_ids, edge_cols = graph.nodes_table(
            "I_SM_Edge", ("instanceOID", "sourceOID")
        )
        edge_ioids, edge_sources = edge_cols
        for i in sorted(range(len(edge_ids)), key=lambda j: str(edge_ids[j])):
            if edge_ioids[i] != instance_oid:
                continue
            iid = edge_ids[i]
            type_name = edge_type_by_oid.get(refs.get(iid))
            if type_name is None:
                continue
            source = plain_id_by_iid.get(from_map.get(iid))
            target = plain_id_by_iid.get(to_map.get(iid))
            if source is None or target is None:
                continue
            if not data.has_node(source) or not data.has_node(target):
                continue
            plain_edge_id = edge_sources[i]
            if plain_edge_id is None:
                plain_edge_id = iid
            data.add_edge(
                source, target, type_name, edge_id=plain_edge_id,
                **attributes_of(iid, edge_prop_links),
            )
        return cls(schema, instance_oid, data)

    def __repr__(self) -> str:
        return (
            f"SuperInstance(schema={self.schema.name!r}, "
            f"oid={self.instance_oid!r}, nodes={self.data.node_count}, "
            f"edges={self.data.edge_count})"
        )
