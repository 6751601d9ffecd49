"""Graph dictionaries: where schemas (and instances) live as graphs.

Section 2.2: "KGModel stores super-schemas and schemas into graph
dictionaries, associated to the super-model and to each of the models."
A :class:`GraphDictionary` wraps one property graph that can hold many
super-schemas (selected by ``schemaOID``), the intermediate schemas the
SSST produces and the target-model schemas.  Instance-level constructs
can be rendered into it (Figure 9,
:meth:`~repro.core.instances.SuperInstance.to_dictionary`); Algorithm 2
keeps them as the ``I_SM_*`` relations of its staging database instead.

Because the SSST's MetaLog mappings run over this graph through MTV, the
dictionary also fixes the *catalog* (attribute order per construct
label): :func:`dictionary_catalog` declares every super-model construct
label and its property list, so mapping programs compile against stable
positions even before any construct of that label exists.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.schema import SuperSchema
from repro.errors import SchemaError
from repro.graph import make_graph
from repro.metalog.analysis import GraphCatalog

#: Node construct labels of the super-model dictionary and their ordered
#: property lists (alphabetical, matching GraphCatalog.from_graph).
SUPER_MODEL_NODE_PROPERTIES: Dict[str, List[str]] = {
    "SM_Node": ["isIntensional", "schemaOID"],
    "SM_Type": ["name", "schemaOID"],
    "SM_Attribute": ["isId", "isIntensional", "isOpt", "name", "schemaOID", "type"],
    "SM_Edge": [
        "isFun1", "isFun2", "isIntensional", "isOpt1", "isOpt2", "schemaOID",
    ],
    "SM_Generalization": ["isDisjoint", "isTotal", "schemaOID"],
    "SM_UniqueAttributeModifier": ["payload", "schemaOID"],
    "SM_EnumAttributeModifier": ["payload", "schemaOID"],
    "SM_RangeAttributeModifier": ["payload", "schemaOID"],
    "SM_FormatAttributeModifier": ["payload", "schemaOID"],
    "SM_DefaultAttributeModifier": ["payload", "schemaOID"],
}

#: Edge construct labels (the link super-constructs) — all carry the
#: schema OID only.
SUPER_MODEL_EDGE_PROPERTIES: Dict[str, List[str]] = {
    "SM_HAS_NODE_TYPE": ["schemaOID"],
    "SM_HAS_EDGE_TYPE": ["schemaOID"],
    "SM_HAS_NODE_PROPERTY": ["schemaOID"],
    "SM_HAS_EDGE_PROPERTY": ["schemaOID"],
    "SM_FROM": ["schemaOID"],
    "SM_TO": ["schemaOID"],
    "SM_PARENT": ["schemaOID"],
    "SM_CHILD": ["schemaOID"],
    "SM_HAS_MODIFIER": ["schemaOID"],
}

#: Instance-level construct labels (Figure 9).
INSTANCE_NODE_PROPERTIES: Dict[str, List[str]] = {
    # sourceOID is our (documented) extension: it remembers the OID the
    # element had in the source system D, so flushing restores it.
    "I_SM_Node": ["instanceOID", "sourceOID"],
    "I_SM_Edge": ["instanceOID", "sourceOID"],
    "I_SM_Attribute": ["instanceOID", "value"],
}

INSTANCE_EDGE_PROPERTIES: Dict[str, List[str]] = {
    "SM_REFERENCES": ["instanceOID"],
    "I_SM_FROM": ["instanceOID"],
    "I_SM_TO": ["instanceOID"],
    "I_SM_HAS_NODE_PROPERTY": ["instanceOID"],
    "I_SM_HAS_EDGE_PROPERTY": ["instanceOID"],
}


def dictionary_catalog(include_instances: bool = True) -> GraphCatalog:
    """A fresh catalog declaring every super-model construct label."""
    catalog = GraphCatalog()
    for label, names in SUPER_MODEL_NODE_PROPERTIES.items():
        catalog.extend_node(label, names)
    for label, names in SUPER_MODEL_EDGE_PROPERTIES.items():
        catalog.extend_edge(label, names)
    if include_instances:
        for label, names in INSTANCE_NODE_PROPERTIES.items():
            catalog.extend_node(label, names)
        for label, names in INSTANCE_EDGE_PROPERTIES.items():
            catalog.extend_edge(label, names)
    return catalog


class GraphDictionary:
    """A named dictionary of schemas stored as one property graph."""

    def __init__(self, name: str = "super-model-dictionary"):
        self.graph = make_graph(name)
        self._schema_names: Dict[Any, str] = {}

    def store(self, schema: SuperSchema) -> Any:
        """Serialize a super-schema into the dictionary; returns its OID."""
        if schema.schema_oid in self._schema_names:
            raise SchemaError(
                f"schema OID {schema.schema_oid!r} already stored in "
                f"{self.graph.name!r}"
            )
        schema.to_dictionary(self.graph)
        self._schema_names[schema.schema_oid] = schema.name
        return schema.schema_oid

    def load(self, schema_oid: Any) -> SuperSchema:
        """Parse a super-schema back from the dictionary."""
        name = self._schema_names.get(schema_oid)
        return SuperSchema.from_dictionary(self.graph, schema_oid, name)

    def schema_oids(self) -> List[Any]:
        """OIDs of the schemas explicitly stored through :meth:`store`.

        (The graph may hold further schemas produced by SSST runs; those
        are discoverable via :meth:`discover_schema_oids`.)
        """
        return list(self._schema_names)

    def discover_schema_oids(self) -> List[Any]:
        """All distinct ``schemaOID`` values present in the graph."""
        oids = {
            node.get("schemaOID")
            for node in self.graph.nodes()
            if node.get("schemaOID") is not None
        }
        return sorted(oids, key=str)

    def catalog(self) -> GraphCatalog:
        """Catalog for running MetaLog programs over this dictionary."""
        catalog = dictionary_catalog()
        catalog.merge(GraphCatalog.from_graph(self.graph))
        return catalog

    def __repr__(self) -> str:
        return (
            f"GraphDictionary({self.graph.name!r}, "
            f"schemas={sorted(map(str, self._schema_names))}, "
            f"nodes={self.graph.node_count})"
        )
