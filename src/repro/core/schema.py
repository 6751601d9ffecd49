"""Super-schemas: the GSL programmatic design API and their dictionary form.

Section 3.2: the data engineer "assembles instances of super-constructs,
building a super-schema".  :class:`SuperSchema` is that assembly — the
programmatic equivalent of drawing a GSL diagram (the textual GSL format
of :mod:`repro.core.gsl_text` parses into the same objects).

Section 2.2: "KGModel stores super-schemas and schemas into graph
dictionaries".  :meth:`SuperSchema.to_dictionary` serializes a schema
into a property graph whose nodes are labeled with the element
super-constructs (``SM_Node``, ``SM_Type``, ``SM_Attribute``,
``SM_Edge``, ``SM_Generalization``, and modifier kinds) and whose edges
are the link super-constructs (``SM_HAS_NODE_TYPE``, ``SM_FROM``,
``SM_TO``, ``SM_PARENT``, ``SM_CHILD``, ...).  This graph form is what
the SSST's MetaLog mappings operate on (Examples 5.1/5.2), and
:meth:`SuperSchema.from_dictionary` parses it back.

Every construct node carries a ``schemaOID`` property so that several
schemas can share one dictionary and mappings can select theirs, exactly
as in Example 5.1 ("all the body PG node and edge atoms have the
schemaOID attribute, to select the specific super-schema S").
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.oid import construct_oid
from repro.core.supermodel import (
    SMAttribute,
    SMAttributeModifier,
    SMEdge,
    SMGeneralization,
    SMNode,
    modifier_from_payload,
)
from repro.errors import SchemaError
from repro.graph.property_graph import PropertyGraph

NodeRef = Union[SMNode, str]


def _parse_cardinality(text: str) -> Tuple[bool, bool]:
    """Parse ``"min..max"`` into ``(is_opt, is_fun)``.

    ``min`` is ``0`` or ``1``; ``max`` is ``1`` or ``N``/``n``/``*``.
    """
    try:
        minimum, maximum = text.split("..")
    except ValueError:
        raise SchemaError(f"bad cardinality {text!r}; expected 'min..max'")
    if minimum not in ("0", "1"):
        raise SchemaError(f"bad minimum cardinality in {text!r}")
    if maximum not in ("1", "N", "n", "*"):
        raise SchemaError(f"bad maximum cardinality in {text!r}")
    return minimum == "0", maximum == "1"


class SuperSchema:
    """A super-schema: an instance of the super-model.

    Typical construction (cf. Section 3.3's modeling narrative)::

        schema = SuperSchema("CompanyKG", schema_oid=123)
        person = schema.node("Person")
        person.attribute("fiscalCode", is_id=True)
        business = schema.node("Business")
        schema.generalization(person, [physical, legal], total=True)
        owns = schema.edge("OWNS", person, business, is_intensional=True)
    """

    def __init__(self, name: str, schema_oid: Any = None):
        self.name = name
        self.schema_oid = schema_oid if schema_oid is not None else name
        self._nodes: Dict[str, SMNode] = {}
        self._edges: Dict[str, SMEdge] = {}
        self.generalizations: List[SMGeneralization] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def node(self, type_name: str, is_intensional: bool = False) -> SMNode:
        """Declare (and return) an ``SM_Node`` with a fresh ``SM_Type``."""
        if type_name in self._nodes:
            raise SchemaError(f"duplicate node type {type_name!r}")
        node = SMNode(
            type_name,
            is_intensional,
            oid=construct_oid(self.schema_oid, "node", type_name),
        )
        self._nodes[type_name] = node
        return node

    def edge(
        self,
        type_name: str,
        source: NodeRef,
        target: NodeRef,
        is_intensional: bool = False,
        source_card: str = "0..N",
        target_card: str = "0..N",
    ) -> SMEdge:
        """Declare (and return) an ``SM_Edge`` between two nodes.

        ``target_card`` is the right-hand cardinality (targets per
        source), ``source_card`` the left-hand one, using UML ``min..max``
        notation; they set the paper's ``isOpt1/isFun1`` and
        ``isOpt2/isFun2`` flags respectively.
        """
        if type_name in self._edges:
            raise SchemaError(f"duplicate edge type {type_name!r}")
        source_node = self.resolve(source)
        target_node = self.resolve(target)
        is_opt1, is_fun1 = _parse_cardinality(target_card)
        is_opt2, is_fun2 = _parse_cardinality(source_card)
        edge = SMEdge(
            type_name,
            source_node,
            target_node,
            is_intensional,
            is_opt1,
            is_fun1,
            is_opt2,
            is_fun2,
            oid=construct_oid(self.schema_oid, "edge", type_name),
        )
        self._edges[type_name] = edge
        return edge

    def generalization(
        self,
        parent: NodeRef,
        children: Sequence[NodeRef],
        total: bool = False,
        disjoint: bool = True,
    ) -> SMGeneralization:
        """Declare a generalization of ``parent`` into ``children``."""
        parent_node = self.resolve(parent)
        child_nodes = [self.resolve(c) for c in children]
        generalization = SMGeneralization(
            parent_node,
            child_nodes,
            total,
            disjoint,
            oid=construct_oid(
                self.schema_oid, "gen", parent_node.type_name,
                len(self.generalizations),
            ),
        )
        self.generalizations.append(generalization)
        return generalization

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def resolve(self, ref: NodeRef) -> SMNode:
        """Resolve a node reference (object or type name)."""
        if isinstance(ref, SMNode):
            if self._nodes.get(ref.type_name) is not ref:
                raise SchemaError(
                    f"node {ref.type_name!r} does not belong to schema "
                    f"{self.name!r}"
                )
            return ref
        node = self._nodes.get(ref)
        if node is None:
            raise SchemaError(f"unknown node type {ref!r} in schema {self.name!r}")
        return node

    @property
    def nodes(self) -> List[SMNode]:
        return list(self._nodes.values())

    @property
    def edges(self) -> List[SMEdge]:
        return list(self._edges.values())

    def get_node(self, type_name: str) -> SMNode:
        return self.resolve(type_name)

    def get_edge(self, type_name: str) -> SMEdge:
        edge = self._edges.get(type_name)
        if edge is None:
            raise SchemaError(f"unknown edge type {type_name!r}")
        return edge

    def has_node(self, type_name: str) -> bool:
        return type_name in self._nodes

    def has_edge(self, type_name: str) -> bool:
        return type_name in self._edges

    # ------------------------------------------------------------------
    # Generalization hierarchy navigation
    # ------------------------------------------------------------------
    def parents_of(self, node: NodeRef) -> List[SMNode]:
        node = self.resolve(node)
        return [
            g.parent for g in self.generalizations if node in g.children
        ]

    def children_of(self, node: NodeRef) -> List[SMNode]:
        node = self.resolve(node)
        result: List[SMNode] = []
        for generalization in self.generalizations:
            if generalization.parent is node:
                result.extend(generalization.children)
        return result

    def ancestors_of(self, node: NodeRef) -> List[SMNode]:
        """All strict ancestors, nearest first (cycle-safe)."""
        node = self.resolve(node)
        result: List[SMNode] = []
        seen: Set[str] = {node.type_name}
        frontier = [node]
        while frontier:
            current = frontier.pop(0)
            for parent in self.parents_of(current):
                if parent.type_name not in seen:
                    seen.add(parent.type_name)
                    result.append(parent)
                    frontier.append(parent)
        return result

    def descendants_of(self, node: NodeRef) -> List[SMNode]:
        """All strict descendants, nearest first (cycle-safe)."""
        node = self.resolve(node)
        result: List[SMNode] = []
        seen: Set[str] = {node.type_name}
        frontier = [node]
        while frontier:
            current = frontier.pop(0)
            for child in self.children_of(current):
                if child.type_name not in seen:
                    seen.add(child.type_name)
                    result.append(child)
                    frontier.append(child)
        return result

    def leaves_under(self, node: NodeRef) -> List[SMNode]:
        """Descendants (or the node itself) with no children."""
        node = self.resolve(node)
        candidates = [node] + self.descendants_of(node)
        return [c for c in candidates if not self.children_of(c)]

    def inherited_attributes(self, node: NodeRef) -> List[SMAttribute]:
        """The node's own attributes plus everything inherited, own first."""
        node = self.resolve(node)
        result = list(node.attributes)
        names = {a.name for a in result}
        for ancestor in self.ancestors_of(node):
            for attribute in ancestor.attributes:
                if attribute.name not in names:
                    names.add(attribute.name)
                    result.append(attribute)
        return result

    def identifier_of(self, node: NodeRef) -> List[SMAttribute]:
        """The identifying attributes (own or inherited)."""
        return [a for a in self.inherited_attributes(node) if a.is_id]

    # ------------------------------------------------------------------
    # Validation (delegates to repro.core.validation)
    # ------------------------------------------------------------------
    def validate(self, strict: bool = True) -> List[str]:
        from repro.core.validation import validate_super_schema

        return validate_super_schema(self, strict=strict)

    def ensure_attribute_oids(self) -> None:
        """Assign the (deterministic) OIDs of attributes not yet minted.

        :meth:`to_dictionary` assigns attribute OIDs lazily as it
        serializes; anything that references ``attribute.oid`` before the
        schema is first stored (the SSST views do) must call this first
        so both paths agree on the same OIDs.
        """
        soid = self.schema_oid
        for node in self.nodes:
            for attribute in node.attributes:
                if attribute.oid is None:
                    attribute.oid = construct_oid(
                        soid, "attr", node.type_name, attribute.name
                    )
        for edge in self.edges:
            for attribute in edge.attributes:
                if attribute.oid is None:
                    attribute.oid = construct_oid(
                        soid, "attr", edge.type_name, attribute.name
                    )

    # ------------------------------------------------------------------
    # Graph-dictionary serialization
    # ------------------------------------------------------------------
    def to_dictionary(self, graph: Optional[PropertyGraph] = None) -> PropertyGraph:
        """Serialize this super-schema into a graph dictionary.

        One element at a time: a schema is design-sized (tens of
        constructs, PAPER.md Fig. 4), so there is nothing for a
        column-wise writer to amortize.
        """
        graph = graph if graph is not None else PropertyGraph("super-model-dictionary")
        soid = self.schema_oid

        def link(source: str, target: str, label: str) -> None:
            edge_id = f"{source}-[{label}]->{target}"
            if not graph.has_edge(edge_id):
                graph.add_edge(source, target, label, edge_id=edge_id, schemaOID=soid)

        def add_attribute(owner_oid: str, attribute: SMAttribute, link_label: str,
                          owner_name: str) -> None:
            if attribute.oid is None:
                attribute.oid = construct_oid(soid, "attr", owner_name, attribute.name)
            graph.add_node(
                attribute.oid,
                "SM_Attribute",
                schemaOID=soid,
                name=attribute.name,
                type=attribute.data_type,
                isOpt=attribute.is_optional,
                isId=attribute.is_id,
                isIntensional=attribute.is_intensional,
            )
            link(owner_oid, attribute.oid, link_label)
            for i, modifier in enumerate(attribute.modifiers):
                modifier_oid = construct_oid(
                    soid, "mod", owner_name, attribute.name, i
                )
                graph.add_node(
                    modifier_oid,
                    modifier.kind,
                    schemaOID=soid,
                    payload=json.dumps(modifier.payload(), default=str),
                )
                link(attribute.oid, modifier_oid, "SM_HAS_MODIFIER")

        for node in self.nodes:
            graph.add_node(
                node.oid, "SM_Node", schemaOID=soid,
                isIntensional=node.is_intensional,
            )
            type_oid = construct_oid(soid, "type", node.type_name)
            graph.add_node(type_oid, "SM_Type", schemaOID=soid, name=node.type_name)
            link(node.oid, type_oid, "SM_HAS_NODE_TYPE")
            for attribute in node.attributes:
                add_attribute(node.oid, attribute, "SM_HAS_NODE_PROPERTY",
                              node.type_name)

        for edge in self.edges:
            graph.add_node(
                edge.oid, "SM_Edge", schemaOID=soid,
                isIntensional=edge.is_intensional,
                isOpt1=edge.is_opt1, isFun1=edge.is_fun1,
                isOpt2=edge.is_opt2, isFun2=edge.is_fun2,
            )
            type_oid = construct_oid(soid, "type", edge.type_name)
            if not graph.has_node(type_oid):
                graph.add_node(type_oid, "SM_Type", schemaOID=soid,
                               name=edge.type_name)
            link(edge.oid, type_oid, "SM_HAS_EDGE_TYPE")
            link(edge.oid, edge.source.oid, "SM_FROM")
            link(edge.oid, edge.target.oid, "SM_TO")
            for attribute in edge.attributes:
                add_attribute(edge.oid, attribute, "SM_HAS_EDGE_PROPERTY",
                              edge.type_name)

        for generalization in self.generalizations:
            graph.add_node(
                generalization.oid, "SM_Generalization", schemaOID=soid,
                isTotal=generalization.is_total,
                isDisjoint=generalization.is_disjoint,
            )
            link(generalization.oid, generalization.parent.oid, "SM_PARENT")
            for child in generalization.children:
                link(generalization.oid, child.oid, "SM_CHILD")

        return graph

    @classmethod
    def from_dictionary(
        cls, graph: PropertyGraph, schema_oid: Any, name: Optional[str] = None
    ) -> "SuperSchema":
        """Parse a super-schema back from its graph-dictionary form."""
        schema = cls(name or str(schema_oid), schema_oid)

        def type_name_of(construct_oid_: Any, link_label: str) -> str:
            names = sorted(
                str(graph.node(edge.target).get("name"))
                for edge in graph.out_edges(construct_oid_, link_label)
            )
            if not names:
                raise SchemaError(
                    f"construct {construct_oid_!r} has no {link_label} link"
                )
            if len(names) > 1:
                # Multi-typed construct (an SSST intermediate schema with
                # accumulated ancestor types): the node's own type is the
                # one whose name appears in the construct's deterministic
                # Skolem provenance.
                marker = str(construct_oid_)
                for name in names:
                    if f":node:{name}" in marker or f":edge:{name}" in marker:
                        return name
            return names[0]

        def attributes_of(owner_oid: Any, link_label: str) -> List[SMAttribute]:
            attributes: List[SMAttribute] = []
            for edge in graph.out_edges(owner_oid, link_label):
                data = graph.node(edge.target)
                attribute = SMAttribute(
                    name=str(data.get("name")),
                    data_type=str(data.get("type", "string")),
                    is_id=bool(data.get("isId", False)),
                    is_optional=bool(data.get("isOpt", False)),
                    is_intensional=bool(data.get("isIntensional", False)),
                    oid=data.id,
                )
                for modifier_edge in graph.out_edges(edge.target, "SM_HAS_MODIFIER"):
                    modifier_node = graph.node(modifier_edge.target)
                    payload = json.loads(modifier_node.get("payload", "{}"))
                    attribute.modifiers.append(
                        modifier_from_payload(modifier_node.label, payload)
                    )
                attributes.append(attribute)
            attributes.sort(key=lambda a: str(a.oid))
            return attributes

        node_by_oid: Dict[Any, SMNode] = {}
        for data in sorted(graph.nodes("SM_Node"), key=lambda n: str(n.id)):
            if data.get("schemaOID") != schema_oid:
                continue
            type_name = type_name_of(data.id, "SM_HAS_NODE_TYPE")
            node = schema.node(type_name, bool(data.get("isIntensional", False)))
            node.oid = data.id
            node.attributes.extend(attributes_of(data.id, "SM_HAS_NODE_PROPERTY"))
            node_by_oid[data.id] = node

        for data in sorted(graph.nodes("SM_Edge"), key=lambda n: str(n.id)):
            if data.get("schemaOID") != schema_oid:
                continue
            type_name = type_name_of(data.id, "SM_HAS_EDGE_TYPE")
            source = target = None
            for edge in graph.out_edges(data.id, "SM_FROM"):
                source = node_by_oid.get(edge.target)
            for edge in graph.out_edges(data.id, "SM_TO"):
                target = node_by_oid.get(edge.target)
            if source is None or target is None:
                raise SchemaError(
                    f"edge construct {data.id!r} has dangling endpoints"
                )
            sm_edge = SMEdge(
                type_name, source, target,
                bool(data.get("isIntensional", False)),
                bool(data.get("isOpt1", True)), bool(data.get("isFun1", False)),
                bool(data.get("isOpt2", True)), bool(data.get("isFun2", False)),
                oid=data.id,
            )
            sm_edge.attributes.extend(attributes_of(data.id, "SM_HAS_EDGE_PROPERTY"))
            if type_name in schema._edges:
                # SSST intermediate schemas duplicate edge types through
                # edge inheritance; disambiguate with a stable suffix.
                suffix = 2
                while f"{type_name}~{suffix}" in schema._edges:
                    suffix += 1
                type_name = f"{type_name}~{suffix}"
                sm_edge.type_name = type_name
            schema._edges[type_name] = sm_edge

        for data in sorted(graph.nodes("SM_Generalization"), key=lambda n: str(n.id)):
            if data.get("schemaOID") != schema_oid:
                continue
            parent = None
            children: List[SMNode] = []
            for edge in graph.out_edges(data.id, "SM_PARENT"):
                parent = node_by_oid.get(edge.target)
            for edge in sorted(
                graph.out_edges(data.id, "SM_CHILD"), key=lambda e: str(e.target)
            ):
                child = node_by_oid.get(edge.target)
                if child is not None:
                    children.append(child)
            if parent is None or not children:
                raise SchemaError(
                    f"generalization {data.id!r} is missing parent or children"
                )
            generalization = SMGeneralization(
                parent, children,
                bool(data.get("isTotal", False)),
                bool(data.get("isDisjoint", True)),
                oid=data.id,
            )
            schema.generalizations.append(generalization)

        return schema

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph textual summary (useful in examples and logs)."""
        intensional_nodes = sum(1 for n in self.nodes if n.is_intensional)
        intensional_edges = sum(1 for e in self.edges if e.is_intensional)
        return (
            f"SuperSchema {self.name!r} (OID {self.schema_oid!r}): "
            f"{len(self.nodes)} nodes ({intensional_nodes} intensional), "
            f"{len(self.edges)} edges ({intensional_edges} intensional), "
            f"{len(self.generalizations)} generalizations"
        )

    def __repr__(self) -> str:
        return (
            f"SuperSchema({self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, generalizations="
            f"{len(self.generalizations)})"
        )
