"""Quasi-inverse instance mappings (Algorithm 2, line 4 / Section 6).

"Given a translation mapping from super-schema instances to schema
instances M(M), we translate it into Vadalog and compute its inverse
V(M)^-1, which reads the data into the super-model.  ...  information
loss can take place only in the elimination phase of the translation.
Conversely, the copy phase is invertible by construction.  Thus, we
simplify V(M)^-1 into (V(M).copy)^-1."

For the relational model the copy phase laid entities out as one row per
generalization member (keyed by the inherited identifier, with
``isA_<Child>`` foreign keys) and many-to-many edges as bridge tables;
:func:`relational_instance_to_graph` inverts exactly that layout back
into a plain typed property graph.  The deliberate information loss of
Eliminate (e.g. which of several non-disjoint children a row "really"
came from) is resolved by the most-specific-member rule, which is the
quasi-inverse choice.

:func:`graph_instance_to_relational` is the forward instance mapping
(M(M).instance): it deploys a plain typed graph into the in-memory
relational engine, so round-trip tests and the end-to-end benchmarks can
drive the full Algorithm 2 loop through a real target system.  It is
the :class:`~repro.deploy.delta.FlushDelta` that adds the whole
instance, so a load and a later delta lay rows out alike, element by
element (:class:`~repro.deploy.relational_rows.RowLayout`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.schema import SuperSchema
from repro.core.supermodel import SMNode
from repro.deploy.delta import FlushDelta
from repro.deploy.relational_engine import RelationalEngine
from repro.deploy.relational_rows import RowLayout, edge_fk_owner, key_column_names
from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph


def graph_instance_to_relational(
    schema: SuperSchema,
    data: PropertyGraph,
    engine: RelationalEngine,
) -> int:
    """Deploy a plain typed instance graph into the relational engine:
    the flush delta that adds every element of ``data``, applied as a
    deployed engine applies any other.

    Returns the number of rows inserted.  The engine must already have
    the translated schema deployed (tables + foreign keys).
    """
    before = sum(engine.count(table) for table in engine.tables())
    engine.apply_flush_delta(FlushDelta(
        added_nodes=[(n.id, n.label, n.properties) for n in data.nodes()],
        added_edges=[
            (e.id, e.source, e.target, e.label, e.properties) for e in data.edges()
        ],
    ), schema, data)
    return sum(engine.count(table) for table in engine.tables()) - before


def relational_instance_to_graph(
    schema: SuperSchema,
    engine: RelationalEngine,
    name: str = "instance",
) -> PropertyGraph:
    """The quasi-inverse: rebuild a plain typed graph from the engine.

    Entities are identified by their key values (node ids become the
    joined identifier), labeled with the most specific member table that
    contains them, and merged across the hierarchy.
    """
    graph = make_graph(name)

    # Depth of each type (root = 0), to pick the most specific member.
    def depth(node: SMNode) -> int:
        return len(schema.ancestors_of(node))

    entity_type: Dict[Tuple[str, Tuple[Any, ...]], SMNode] = {}
    entity_props: Dict[Tuple[str, Tuple[Any, ...]], Dict[str, Any]] = {}

    def root_of(node: SMNode) -> SMNode:
        return (schema.ancestors_of(node) or [node])[-1]

    for node in sorted(schema.nodes, key=depth):
        if node.type_name not in engine.tables():
            continue
        id_names = [a.name for a in schema.identifier_of(node)]
        if not id_names:
            continue
        is_child = bool(schema.parents_of(node))
        key_columns = key_column_names(schema, node)
        root_name = root_of(node).type_name
        for row in engine.rows(node.type_name):
            key = tuple(row.get(c) for c in key_columns)
            if any(v is None for v in key):
                continue
            entity = (root_name, key)
            current = entity_type.get(entity)
            if current is None or depth(node) > depth(current):
                entity_type[entity] = node
            properties = entity_props.setdefault(entity, {})
            for attribute in node.attributes:
                value = row.get(attribute.name)
                if value is not None:
                    properties[attribute.name] = value
            if not is_child:
                for n, v in zip(id_names, key):
                    properties.setdefault(n, v)

    node_id_of: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
    for entity, node in sorted(entity_type.items(), key=lambda kv: str(kv[0])):
        node_id = "|".join(str(v) for v in entity[1])
        node_id_of[entity] = node_id
        graph.add_node(node_id, node.type_name, **entity_props[entity])

    def entity_id(declared: SMNode, key: Tuple[Any, ...]) -> Optional[Any]:
        return node_id_of.get((root_of(declared).type_name, key))

    layout = RowLayout(schema)
    for edge in schema.edges:
        holder_is_source, table, columns, target_columns, attributes = (
            layout.edge_layout(edge.type_name)
        )
        if table not in engine.tables():
            continue
        if holder_is_source is None:  # a bridge row per edge
            ends = [(edge.source, columns), (edge.target, target_columns)]
        else:  # the holder's row, which names the referenced key
            holder, referenced = edge_fk_owner(schema, edge)
            ends = [(holder, key_column_names(schema, holder)), (referenced, columns)]
        for row in engine.rows(table):
            ids = [
                entity_id(declared, tuple(row.get(c) for c in key_columns))
                for declared, key_columns in ends
            ]
            if None in ids:
                continue
            if holder_is_source is False:
                ids.reverse()
            properties = {a: row[a] for a in attributes if row.get(a) is not None}
            graph.add_edge(*ids, edge.type_name, **properties)
    return graph
