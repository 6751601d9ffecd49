"""Static analysis of MetaLog programs and the property-graph catalog.

The MTV translation (Section 4) maps PG node/edge atoms to relational
atoms with one position per property.  That requires agreeing, per label,
on an ordered list of property names — the *catalog*.  The catalog can be
built from a property graph (scanning labels), from a super-schema (the
declared attributes), or extended from the program text itself (labels
and attributes the rules mention).

The analysis functions implement the paper's syntactic side conditions:

- transitive closure (``*``) "is allowed only if the program Sigma is
  non-recursive, i.e., the dependency graph of rules is acyclic";
- which labels are intensional (derived by some head) — used both by the
  Algorithm 2 view generation (Section 6) and by the GSL rendering of
  dashed graphemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.errors import MetaLogError
from repro.graph.property_graph import PropertyGraph
from repro.metalog.ast import (
    EdgeAtom,
    GraphPattern,
    MetaProgram,
    MetaRule,
    NodeAtom,
    PathAlt,
    PathEdge,
    PathExpr,
    PathInverse,
    PathSeq,
    PathStar,
)


@dataclass
class GraphCatalog:
    """Ordered property lists per node/edge label.

    ``node_properties[label]`` is the ordered list of property names whose
    values fill positions ``1..n`` of the relational facts ``label(oid,
    v1, ..., vn)``; edges use ``label(oid, src, tgt, v1, ..., vm)``.
    """

    node_properties: Dict[str, List[str]] = field(default_factory=dict)
    edge_properties: Dict[str, List[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "GraphCatalog":
        """Scan a property graph and collect properties per label."""
        catalog = cls()
        for node in graph.nodes():
            if node.label is not None:
                catalog.extend_node(node.label, node.properties.keys())
        for edge in graph.edges():
            if edge.label is not None:
                catalog.extend_edge(edge.label, edge.properties.keys())
        # Deterministic order regardless of insertion order.
        for names in catalog.node_properties.values():
            names.sort()
        for names in catalog.edge_properties.values():
            names.sort()
        return catalog

    def extend_node(self, label: str, names) -> None:
        """Register (append) node properties, preserving existing order."""
        known = self.node_properties.setdefault(label, [])
        for name in names:
            if name not in known:
                known.append(name)

    def extend_edge(self, label: str, names) -> None:
        """Register (append) edge properties, preserving existing order."""
        known = self.edge_properties.setdefault(label, [])
        for name in names:
            if name not in known:
                known.append(name)

    def extend_from_program(self, program: MetaProgram) -> None:
        """Make sure every label/attribute the program mentions is known."""
        for rule in program.rules:
            body_patterns = list(rule.body_patterns())
            body_patterns.extend(n.pattern for n in rule.negated_patterns())
            for pattern in body_patterns + list(rule.head):
                for element in pattern.elements:
                    if isinstance(element, NodeAtom):
                        if element.label:
                            self.extend_node(
                                element.label, (n for n, _ in element.attributes)
                            )
                    else:
                        for edge in _path_edges(element):
                            if edge.label:
                                self.extend_edge(
                                    edge.label, (n for n, _ in edge.attributes)
                                )

    # ------------------------------------------------------------------
    def node_position(self, label: str, attribute: str) -> int:
        """Position of ``attribute`` in the node facts of ``label``."""
        try:
            return 1 + self.node_properties[label].index(attribute)
        except (KeyError, ValueError):
            raise MetaLogError(
                f"unknown attribute {attribute!r} of node label {label!r}"
            ) from None

    def edge_position(self, label: str, attribute: str) -> int:
        """Position of ``attribute`` in the edge facts of ``label``."""
        try:
            return 3 + self.edge_properties[label].index(attribute)
        except (KeyError, ValueError):
            raise MetaLogError(
                f"unknown attribute {attribute!r} of edge label {label!r}"
            ) from None

    def merge(self, other: "GraphCatalog") -> None:
        for label, names in other.node_properties.items():
            self.extend_node(label, names)
        for label, names in other.edge_properties.items():
            self.extend_edge(label, names)


def _path_edges(path: PathExpr) -> List[EdgeAtom]:
    if isinstance(path, PathEdge):
        return [path.edge]
    if isinstance(path, PathSeq):
        return [e for part in path.parts for e in _path_edges(part)]
    if isinstance(path, PathAlt):
        return [e for option in path.options for e in _path_edges(option)]
    if isinstance(path, (PathStar, PathInverse)):
        return _path_edges(path.inner)
    return []


# ---------------------------------------------------------------------------
# Program-level analysis
# ---------------------------------------------------------------------------


#: Attributes whose constant values discriminate "the same label, but a
#: different schema/instance" — the mapping programs of Section 5 read
#: constructs of schema 123 and write constructs of the target schema, so
#: a naive label-level dependency graph would report spurious recursion.
_SELECTOR_ATTRIBUTES = ("schemaOID", "instanceOID")

LabelKey = Tuple[str, Any]


def _selector_of(attributes) -> Any:
    for name, term in attributes:
        if name in _SELECTOR_ATTRIBUTES and not hasattr(term, "name"):
            return term  # a constant selector
    return None


def _keys_overlap(a: LabelKey, b: LabelKey) -> bool:
    """Two (label, selector) keys may describe the same facts."""
    if a[0] != b[0]:
        return False
    return a[1] is None or b[1] is None or a[1] == b[1]


def _rule_keys(rule: MetaRule) -> Tuple[Set[LabelKey], Set[LabelKey]]:
    """(body keys, head keys) of a rule, selector-aware."""
    body: Set[LabelKey] = set()
    head: Set[LabelKey] = set()
    body_patterns = list(rule.body_patterns())
    body_patterns.extend(n.pattern for n in rule.negated_patterns())
    for target, patterns in ((body, body_patterns), (head, rule.head)):
        for pattern in patterns:
            for element in pattern.elements:
                if isinstance(element, NodeAtom):
                    if element.label:
                        target.add((element.label, _selector_of(element.attributes)))
                else:
                    for edge in _path_edges(element):
                        if edge.label:
                            target.add((edge.label, _selector_of(edge.attributes)))
    return body, head


def is_recursive(program: MetaProgram) -> bool:
    """True when the selector-aware rule dependency graph has a cycle.

    Keys are (label, constant schemaOID/instanceOID selector): a head fact
    feeds a body atom only when the keys may overlap, which keeps the
    Section 5 mapping programs (reading schema ``123``, writing schema
    ``"123-"``) correctly classified as non-recursive.
    """
    rule_keys = [_rule_keys(rule) for rule in program.rules]
    nodes: Set[LabelKey] = set()
    for body, head in rule_keys:
        nodes |= body | head
    adjacency: Dict[LabelKey, Set[LabelKey]] = {n: set() for n in nodes}
    # Intra-rule: every body key feeds every head key.
    for body, head in rule_keys:
        for b in body:
            adjacency[b] |= head
    # Inter-rule: a head key feeds any overlapping body key.
    all_body: Set[LabelKey] = set()
    for body, _ in rule_keys:
        all_body |= body
    for _, head in rule_keys:
        for h in head:
            for b in all_body:
                if h != b and _keys_overlap(h, b):
                    adjacency[h].add(b)

    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}

    def has_cycle(start: str) -> bool:
        stack = [(start, iter(adjacency.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for target in successors:
                state = color.get(target, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    color[target] = GRAY
                    stack.append((target, iter(adjacency.get(target, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
        return False

    for node in list(adjacency):
        if color.get(node, WHITE) == WHITE and has_cycle(node):
            return True
    return False


def validate(program: MetaProgram) -> None:
    """Raise :class:`MetaLogError` on the paper's syntactic side conditions.

    Transitive closure via Kleene star is only allowed when the program is
    non-recursive (Section 4), which guarantees the compiled program is
    Piecewise Linear Datalog±, a subset of Warded Datalog±.
    """
    has_star = any(rule.contains_star() for rule in program.rules)
    if has_star and is_recursive(program):
        raise MetaLogError(
            "Kleene star is only allowed in non-recursive MetaLog programs "
            "(Section 4 decidability condition)"
        )
    for rule in program.rules:
        for pattern in rule.head:
            for path in pattern.paths:
                if not isinstance(path, PathEdge):
                    raise MetaLogError(
                        f"head path patterns must be simple edge atoms: {rule}"
                    )
        bound = rule.positive_variables()
        declared = {binding.variable for binding in rule.existentials}
        for variable in rule.head_variables():
            if variable in bound or variable in declared:
                continue
            # Implicit existentials are allowed only for atom identifiers
            # (OIDs); attribute variables must be bound.
            if not _is_identifier_variable(rule, variable):
                raise MetaLogError(
                    f"head variable {variable.name!r} of rule {rule} is "
                    "neither bound in the body nor existentially declared"
                )
        for negated in rule.negated_patterns():
            unbound = {
                v for v in negated.variables()
                if v not in bound and v.name != "_"
            }
            if unbound:
                raise MetaLogError(
                    f"unsafe negation in {rule}: variables "
                    f"{sorted(v.name for v in unbound)} are not bound by a "
                    "positive pattern"
                )
        for binding in rule.existentials:
            for argument in binding.arguments:
                if argument not in bound:
                    raise MetaLogError(
                        f"Skolem argument {argument.name!r} of rule {rule} "
                        "is not bound in the body"
                    )


def _is_identifier_variable(rule: MetaRule, variable) -> bool:
    for pattern in rule.head:
        for element in pattern.elements:
            if isinstance(element, NodeAtom) and element.variable == variable:
                return True
            if isinstance(element, PathEdge) and element.edge.variable == variable:
                return True
    return False
