"""An RDF-S target model.

Section 5 mentions RDF stores among the deployment targets ("for RDF
stores, schemas can be rendered as RDF-S documents").  This model shows
the *model awareness* of the framework from the opposite direction to the
PG mapping: RDFS natively supports generalization (``rdfs:subClassOf``),
so the Eliminate phase removes nothing and the SM_Generalization
construct survives the translation as SUBCLASS_OF links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ModelError
from repro.graph.property_graph import PropertyGraph
from repro.models.base import ConstructSpec, Model


@dataclass
class RDFClass:
    """An ``rdfs:Class`` of the translated schema."""

    oid: Any
    name: str


@dataclass
class RDFDatatypeProperty:
    """A datatype property with its domain class."""

    oid: Any
    name: str
    data_type: str
    domain: str


@dataclass
class RDFObjectProperty:
    """An object property with domain and range classes."""

    oid: Any
    name: str
    domain: str
    range: str


@dataclass
class RDFSchema:
    """A schema of the RDF-S model."""

    schema_oid: Any
    classes: List[RDFClass] = field(default_factory=list)
    datatype_properties: List[RDFDatatypeProperty] = field(default_factory=list)
    object_properties: List[RDFObjectProperty] = field(default_factory=list)
    subclass_of: List[Tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"RDFSchema({self.schema_oid!r}): {len(self.classes)} classes, "
            f"{len(self.datatype_properties)} datatype properties, "
            f"{len(self.object_properties)} object properties, "
            f"{len(self.subclass_of)} subClassOf axioms"
        )


class RDFModel(Model):
    """RDF-S model: classes, properties, and native subclassing."""

    name = "rdf"

    constructs = (
        ConstructSpec("RDFClass", "SM_Node"),
        ConstructSpec("RDFDatatypeProperty", "SM_Attribute"),
        ConstructSpec("RDFObjectProperty", "SM_Edge"),
        ConstructSpec("DOMAIN", "SM_FROM", is_link=True),
        ConstructSpec("RANGE", "SM_TO", is_link=True),
        ConstructSpec("SUBCLASS_OF", "SM_Generalization", is_link=True),
    )

    node_properties = {
        "RDFClass": ["name", "schemaOID"],
        "RDFDatatypeProperty": ["name", "schemaOID", "type"],
        "RDFObjectProperty": ["name", "schemaOID"],
    }
    edge_properties = {
        "DOMAIN": ["schemaOID"],
        "RANGE": ["schemaOID"],
        "SUBCLASS_OF": ["schemaOID"],
    }

    def parse_schema(self, graph: PropertyGraph, schema_oid: Any) -> RDFSchema:
        schema = RDFSchema(schema_oid)
        class_name_by_oid: Dict[Any, str] = {}
        for node in sorted(graph.nodes("RDFClass"), key=lambda n: str(n.id)):
            if node.get("schemaOID") != schema_oid:
                continue
            name = str(node.get("name"))
            schema.classes.append(RDFClass(node.id, name))
            class_name_by_oid[node.id] = name

        def one_target(oid: Any, label: str) -> Optional[str]:
            for edge in graph.out_edges(oid, label):
                return class_name_by_oid.get(edge.target)
            return None

        for node in sorted(graph.nodes("RDFDatatypeProperty"), key=lambda n: str(n.id)):
            if node.get("schemaOID") != schema_oid:
                continue
            domain = one_target(node.id, "DOMAIN")
            if domain is None:
                raise ModelError(f"datatype property {node.id!r} has no domain")
            schema.datatype_properties.append(
                RDFDatatypeProperty(
                    node.id, str(node.get("name")),
                    str(node.get("type", "string")), domain,
                )
            )
        for node in sorted(graph.nodes("RDFObjectProperty"), key=lambda n: str(n.id)):
            if node.get("schemaOID") != schema_oid:
                continue
            domain = one_target(node.id, "DOMAIN")
            range_ = one_target(node.id, "RANGE")
            if domain is None or range_ is None:
                raise ModelError(f"object property {node.id!r} is dangling")
            schema.object_properties.append(
                RDFObjectProperty(node.id, str(node.get("name")), domain, range_)
            )
        for edge in graph.edges("SUBCLASS_OF"):
            if edge.get("schemaOID") != schema_oid:
                continue
            child = class_name_by_oid.get(edge.source)
            parent = class_name_by_oid.get(edge.target)
            if child and parent:
                schema.subclass_of.append((child, parent))
        schema.classes.sort(key=lambda c: c.name)
        schema.datatype_properties.sort(key=lambda p: (p.domain, p.name))
        schema.object_properties.sort(key=lambda p: (p.name, p.domain))
        schema.subclass_of.sort()
        return schema


#: Singleton used by the repository.
RDF_MODEL = RDFModel()
