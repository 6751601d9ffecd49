"""The meta-model (Figure 2): the top of the KGModel representation stack.

Section 3.1: "At the highest level of our model representation stack, we
find the meta-model, comprising the basic building blocks of any semantic
data model: entities, links between them, and their properties."

The three meta-constructs are ``MM_Entity`` (abstract named domain
objects), ``MM_Property`` (name and type), and ``MM_Link`` (relationships
``A -> B`` between entities).  Figure 2 visualizes the meta-model itself
as a property graph; :func:`metamodel_dictionary` builds exactly that
graph, which is also what the rendering function Gamma_MM consumes.

Every construct of the super-model (Figure 3) declares which
meta-construct it specializes — see
:data:`repro.core.supermodel.SUPER_MODEL_DICTIONARY`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph

#: The three meta-construct names.
MM_ENTITY = "MM_Entity"
MM_LINK = "MM_Link"
MM_PROPERTY = "MM_Property"

META_CONSTRUCTS: Tuple[str, ...] = (MM_ENTITY, MM_LINK, MM_PROPERTY)


@dataclass(frozen=True)
class MetaConstruct:
    """One meta-construct with its declared properties."""

    name: str
    description: str
    properties: Tuple[Tuple[str, str], ...] = ()  # (name, type)


#: Declarative content of Figure 2.
META_MODEL: Tuple[MetaConstruct, ...] = (
    MetaConstruct(
        MM_ENTITY,
        "an abstract named object of the domain",
        (("oid", "oid"), ("name", "string")),
    ),
    MetaConstruct(
        MM_LINK,
        "a connection A -> B between entities",
        (("oid", "oid"), ("name", "string"),
         ("cardinalityMin", "int"), ("cardinalityMax", "int")),
    ),
    MetaConstruct(
        MM_PROPERTY,
        "a named, typed property of an entity or link",
        (("oid", "oid"), ("name", "string"), ("type", "string")),
    ),
)

#: The structural links of Figure 2: MM_Entities own MM_Properties,
#: MM_Links connect MM_Entities (source/target) and own MM_Properties.
META_MODEL_LINKS: Tuple[Tuple[str, str, str], ...] = (
    ("MM_HAS_PROPERTY", MM_ENTITY, MM_PROPERTY),
    ("MM_HAS_PROPERTY", MM_LINK, MM_PROPERTY),
    ("MM_SOURCE", MM_LINK, MM_ENTITY),
    ("MM_TARGET", MM_LINK, MM_ENTITY),
)


def metamodel_dictionary() -> PropertyGraph:
    """Build the Figure 2 property graph of the meta-model itself.

    Nodes are the meta-constructs (with their declared properties stored
    as node properties in the lollipop spirit); edges are the structural
    links with UML-style cardinality annotations.
    """
    graph = make_graph("meta-model")
    for construct in META_MODEL:
        graph.add_node(
            construct.name,
            construct.name,
            description=construct.description,
            properties=[name for name, _ in construct.properties],
        )
    for label, source, target in META_MODEL_LINKS:
        graph.add_edge(source, target, label, cardinality="0..N")
    return graph


def meta_construct(name: str) -> MetaConstruct:
    """Look up a meta-construct by name."""
    for construct in META_MODEL:
        if construct.name == name:
            return construct
    raise KeyError(f"unknown meta-construct {name!r}")
