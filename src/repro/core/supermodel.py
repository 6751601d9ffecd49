"""The super-model (Figure 3): the designer-level construct toolkit.

Section 3.2: "The super-model provides the data engineer with a
collection of model-independent conceptual elements: the
super-constructs" — ``SM_Node``, ``SM_Edge``, ``SM_Type``,
``SM_Attribute``, ``SM_AttributeModifier`` (with its concrete modifier
family), ``SM_Generalization``, plus the link super-constructs
(``SM_FROM``, ``SM_TO``, ``SM_PARENT``, ``SM_CHILD``,
``SM_HAS_NODE_TYPE``, ``SM_HAS_EDGE_TYPE``, ``SM_HAS_NODE_PROPERTY``,
``SM_HAS_EDGE_PROPERTY``, ``SM_HAS_MODIFIER``).

This module defines the in-memory classes for the element constructs
(link constructs are realized as object references, and reified as edges
when a schema is serialized into a graph dictionary), together with
:data:`SUPER_MODEL_DICTIONARY` — the declarative content of Figure 3,
each construct annotated with the meta-construct it specializes and its
GSL grapheme.

Cardinality encoding (Section 3.2): for an ``SM_Edge`` from A to B,
``is_fun1`` is true when each A connects to at most one B (right maximum
cardinality 1), ``is_opt1`` when it may connect to none (right minimum
0); ``is_fun2``/``is_opt2`` mirror this for the left side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.metamodel import MM_ENTITY, MM_LINK, MM_PROPERTY
from repro.errors import SchemaError

# ---------------------------------------------------------------------------
# Attribute modifiers
# ---------------------------------------------------------------------------


class SMAttributeModifier:
    """Base class for attribute modifiers (Section 3.2).

    "a proxy for attribute modifiers that are generally used to enrich an
    attribute with additional information, such as formatting or domain
    constraints."
    """

    kind = "SM_AttributeModifier"

    def describe(self) -> str:
        return self.kind

    def payload(self) -> Dict[str, Any]:
        """Serializable modifier payload for the graph dictionary."""
        return {}

    def __repr__(self) -> str:
        payload = ", ".join(f"{k}={v!r}" for k, v in self.payload().items())
        return f"{self.kind}({payload})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SMAttributeModifier)
            and self.kind == other.kind
            and self.payload() == other.payload()
        )

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.payload().items(), key=repr))))


class SMUniqueAttributeModifier(SMAttributeModifier):
    """The attribute value must be unique among same-typed nodes."""

    kind = "SM_UniqueAttributeModifier"


class SMEnumAttributeModifier(SMAttributeModifier):
    """The attribute may only take one of the listed values."""

    kind = "SM_EnumAttributeModifier"

    def __init__(self, values: Sequence[Any]):
        if not values:
            raise SchemaError("enum modifier requires at least one value")
        self.values = tuple(values)

    def payload(self) -> Dict[str, Any]:
        return {"values": list(self.values)}


class SMRangeAttributeModifier(SMAttributeModifier):
    """The attribute must fall within [minimum, maximum] (either open)."""

    kind = "SM_RangeAttributeModifier"

    def __init__(self, minimum: Any = None, maximum: Any = None):
        if minimum is None and maximum is None:
            raise SchemaError("range modifier requires a bound")
        self.minimum = minimum
        self.maximum = maximum

    def payload(self) -> Dict[str, Any]:
        return {"minimum": self.minimum, "maximum": self.maximum}


class SMFormatAttributeModifier(SMAttributeModifier):
    """The attribute must match a format pattern (regular expression)."""

    kind = "SM_FormatAttributeModifier"

    def __init__(self, pattern: str):
        self.pattern = pattern

    def payload(self) -> Dict[str, Any]:
        return {"pattern": self.pattern}


class SMDefaultAttributeModifier(SMAttributeModifier):
    """A default value applied when the attribute is absent."""

    kind = "SM_DefaultAttributeModifier"

    def __init__(self, value: Any):
        self.value = value

    def payload(self) -> Dict[str, Any]:
        return {"value": self.value}


MODIFIER_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        SMUniqueAttributeModifier,
        SMEnumAttributeModifier,
        SMRangeAttributeModifier,
        SMFormatAttributeModifier,
        SMDefaultAttributeModifier,
    )
}


def modifier_from_payload(kind: str, payload: Dict[str, Any]) -> SMAttributeModifier:
    """Rebuild a modifier from its dictionary serialization."""
    cls = MODIFIER_KINDS.get(kind)
    if cls is None:
        raise SchemaError(f"unknown attribute modifier kind {kind!r}")
    if cls is SMUniqueAttributeModifier:
        return cls()
    return cls(**payload)


# ---------------------------------------------------------------------------
# Element constructs
# ---------------------------------------------------------------------------


@dataclass
class SMAttribute:
    """``SM_Attribute``: a non-identity-bearing property of a node/edge.

    "It can be optional (isOpt) or mandatory, identifying (isId) or not."
    """

    name: str
    data_type: str = "string"
    is_id: bool = False
    is_optional: bool = False
    is_intensional: bool = False
    modifiers: List[SMAttributeModifier] = field(default_factory=list)
    oid: Optional[str] = None

    def __post_init__(self):
        if self.is_id and self.is_optional:
            raise SchemaError(
                f"attribute {self.name!r} cannot be both identifying and optional"
            )

    def __repr__(self) -> str:
        flags = []
        if self.is_id:
            flags.append("id")
        if self.is_optional:
            flags.append("optional")
        if self.is_intensional:
            flags.append("intensional")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"SMAttribute({self.name}: {self.data_type}{suffix})"


@dataclass
class SMNode:
    """``SM_Node``: the general notion of entity.

    "It should be used to represent any relevant domain object that is
    characterized by its own identity, SM_Type, and set of distinguishing
    properties."
    """

    type_name: str
    is_intensional: bool = False
    attributes: List[SMAttribute] = field(default_factory=list)
    oid: Optional[str] = None

    def attribute(
        self,
        name: str,
        data_type: str = "string",
        is_id: bool = False,
        is_optional: bool = False,
        is_intensional: bool = False,
        modifiers: Sequence[SMAttributeModifier] = (),
    ) -> SMAttribute:
        """Declare (and return) an attribute of this node."""
        if any(a.name == name for a in self.attributes):
            raise SchemaError(
                f"duplicate attribute {name!r} on node {self.type_name!r}"
            )
        attribute = SMAttribute(
            name, data_type, is_id, is_optional, is_intensional,
            list(modifiers),
        )
        self.attributes.append(attribute)
        return attribute

    def id_attributes(self) -> List[SMAttribute]:
        return [a for a in self.attributes if a.is_id]

    def get_attribute(self, name: str) -> SMAttribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"node {self.type_name!r} has no attribute {name!r}")

    def __repr__(self) -> str:
        mark = "~" if self.is_intensional else ""
        return f"SMNode({mark}{self.type_name}, {len(self.attributes)} attrs)"


@dataclass
class SMEdge:
    """``SM_Edge``: a binary aggregation of two ``SM_Node`` instances."""

    type_name: str
    source: SMNode
    target: SMNode
    is_intensional: bool = False
    is_opt1: bool = True
    is_fun1: bool = False
    is_opt2: bool = True
    is_fun2: bool = False
    attributes: List[SMAttribute] = field(default_factory=list)
    oid: Optional[str] = None

    def attribute(
        self,
        name: str,
        data_type: str = "string",
        is_optional: bool = False,
        is_intensional: bool = False,
        modifiers: Sequence[SMAttributeModifier] = (),
    ) -> SMAttribute:
        """Declare (and return) an attribute of this edge."""
        if any(a.name == name for a in self.attributes):
            raise SchemaError(
                f"duplicate attribute {name!r} on edge {self.type_name!r}"
            )
        attribute = SMAttribute(
            name, data_type, False, is_optional, is_intensional, list(modifiers)
        )
        self.attributes.append(attribute)
        return attribute

    # ------------------------------------------------------------------
    # Cardinalities (Section 3.2 encoding)
    # ------------------------------------------------------------------
    @property
    def multiplicity(self) -> str:
        """Summarize the cardinalities as ``1:1``/``1:N``/``N:1``/``N:M``."""
        left = "1" if self.is_fun2 else "N"
        right = "1" if self.is_fun1 else "N"
        if left == "1" and right == "N":
            return "1:N"
        if left == "N" and right == "1":
            return "N:1"
        if left == "1" and right == "1":
            return "1:1"
        return "N:M"

    @property
    def is_many_to_many(self) -> bool:
        return not self.is_fun1 and not self.is_fun2

    @property
    def is_one_to_many(self) -> bool:
        return not self.is_fun1 and self.is_fun2

    def cardinality_labels(self) -> Tuple[str, str]:
        """UML-style labels (source side, target side)."""
        c2 = f"{'0' if self.is_opt2 else '1'}..{'1' if self.is_fun2 else 'N'}"
        c1 = f"{'0' if self.is_opt1 else '1'}..{'1' if self.is_fun1 else 'N'}"
        return c2, c1

    def __repr__(self) -> str:
        mark = "~" if self.is_intensional else ""
        return (
            f"SMEdge({mark}{self.type_name}: {self.source.type_name} "
            f"-{self.multiplicity}-> {self.target.type_name})"
        )


@dataclass
class SMGeneralization:
    """``SM_Generalization``: the specialization-abstraction relationship.

    "total if every instance of the parent is also an instance of a
    child; disjoint if the instances of the parent are instances of a
    single child."
    """

    parent: SMNode
    children: List[SMNode]
    is_total: bool = False
    is_disjoint: bool = True
    oid: Optional[str] = None

    def __post_init__(self):
        if not self.children:
            raise SchemaError(
                f"generalization of {self.parent.type_name!r} has no children"
            )
        if self.parent in self.children:
            raise SchemaError(
                f"{self.parent.type_name!r} cannot be its own child"
            )

    def __repr__(self) -> str:
        kids = ", ".join(c.type_name for c in self.children)
        kind = []
        kind.append("total" if self.is_total else "partial")
        kind.append("disjoint" if self.is_disjoint else "overlapping")
        return f"SMGeneralization({self.parent.type_name} <- [{kids}], {' '.join(kind)})"


# ---------------------------------------------------------------------------
# The Figure 3 dictionary: construct -> (meta-construct, grapheme)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperConstructEntry:
    """One row of the Figure 3 super-model dictionary table."""

    name: str
    specializes: str  # the meta-construct
    attributes: str  # attribute summary as printed in the table
    grapheme: str  # textual description of the visual grapheme
    has_explicit_notation: bool = True


SUPER_MODEL_DICTIONARY: Tuple[SuperConstructEntry, ...] = (
    SuperConstructEntry(
        "SM_Node", MM_ENTITY, "isIntensional = false, name from SM_Type",
        "solid named rectangle",
    ),
    SuperConstructEntry(
        "SM_Node", MM_ENTITY, "isIntensional = true, name from SM_Type",
        "dashed named rectangle",
    ),
    SuperConstructEntry(
        "SM_Edge", MM_ENTITY,
        "isIntensional = false, name from SM_Type, cardinalities from isOpt/isFun",
        "solid named arrow with cardinalities",
    ),
    SuperConstructEntry(
        "SM_Edge", MM_ENTITY,
        "isIntensional = true, name from SM_Type, cardinalities from isOpt/isFun",
        "dashed named arrow with cardinalities",
    ),
    SuperConstructEntry("SM_Type", MM_ENTITY, "name", "name label"),
    SuperConstructEntry(
        "SM_HAS_NODE_PROPERTY", MM_LINK, "isIntensional = false",
        "solid lollipop", False,
    ),
    SuperConstructEntry(
        "SM_HAS_EDGE_PROPERTY", MM_LINK, "isIntensional = true",
        "dashed lollipop", False,
    ),
    SuperConstructEntry("SM_FROM", MM_LINK, "", "edge tail attachment", False),
    SuperConstructEntry("SM_TO", MM_LINK, "", "edge head attachment", False),
    SuperConstructEntry(
        "SM_Attribute", MM_PROPERTY, "isOpt = false, isId = false",
        "filled lollipop",
    ),
    SuperConstructEntry(
        "SM_Attribute", MM_PROPERTY, "isOpt = true, isId = false",
        "hollow lollipop",
    ),
    SuperConstructEntry(
        "SM_Attribute", MM_PROPERTY, "isOpt = false, isId = true",
        "underlined filled lollipop",
    ),
    SuperConstructEntry(
        "SM_AttributeModifier", MM_ENTITY, "kind-specific payload",
        "annotation tag", False,
    ),
    SuperConstructEntry(
        "SM_HAS_MODIFIER", MM_LINK, "", "modifier attachment", False,
    ),
    SuperConstructEntry(
        "SM_Generalization", MM_ENTITY, "isTotal = true, isDisjoint = true",
        "single-headed thick solid black arrow",
    ),
    SuperConstructEntry(
        "SM_Generalization", MM_ENTITY, "isTotal = false, isDisjoint = true",
        "single-headed thick outlined arrow",
    ),
    SuperConstructEntry(
        "SM_Generalization", MM_ENTITY, "isTotal = true, isDisjoint = false",
        "double-headed thick solid black arrow",
    ),
    SuperConstructEntry(
        "SM_Generalization", MM_ENTITY, "isTotal = false, isDisjoint = false",
        "double-headed thick outlined arrow",
    ),
    SuperConstructEntry(
        "SM_HAS_NODE_TYPE", MM_LINK, "", "type label attachment", False,
    ),
    SuperConstructEntry(
        "SM_HAS_EDGE_TYPE", MM_LINK, "", "type label attachment", False,
    ),
    SuperConstructEntry("SM_PARENT", MM_LINK, "", "generalization head", False),
    SuperConstructEntry("SM_CHILD", MM_LINK, "", "generalization tail", False),
)

#: Names of all super-constructs (deduplicated, declaration order).
SUPER_CONSTRUCT_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(entry.name for entry in SUPER_MODEL_DICTIONARY)
)

#: Link super-constructs (reified as edges in graph dictionaries).
LINK_SUPER_CONSTRUCTS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        entry.name for entry in SUPER_MODEL_DICTIONARY if entry.specializes == MM_LINK
    )
)
