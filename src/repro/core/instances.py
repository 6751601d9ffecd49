"""Instance-level constructs (Figure 9) and super-schema instances.

Section 6: "We enrich the super-model dictionary to make it directly
suitable to store instances of super-schemas ... for each super-construct
C an I_C instance super-construct, representing the respective instance
counterpart.  Each instance super-construct is connected to the
respective super-construct by a SM_References edge.  In general, instance
super-constructs only have the implicit OID attributes and instanceOID
... except for I_SM_Attribute, which holds a value attribute."

The ``I_SM_*`` encoding is a set of relations in the fact layout of
:data:`~repro.core.dictionary.INSTANCE_NODE_PROPERTIES` /
``INSTANCE_EDGE_PROPERTIES`` (``I_SM_Node(oid, instanceOID, sourceOID)``,
``I_SM_Attribute(oid, instanceOID, value)``, link facts
``label(oid, src, tgt, instanceOID)``).  This module is its codec:
:func:`encode_instance` turns plain typed elements into columns of those
relations and hands them to a sink, :func:`decode_instance` reads the
columns back from a source into a plain typed property graph;
:class:`SuperInstance` renders the same columns into, and reads them
from, a dictionary graph — the Figure 9 picture.  Algorithm 2's
production path skips the encoding (its column maps read the label
tables), but writes the instance with the decoder's own writer,
:func:`write_elements`; the codec is the reference it is held to.
"""

from __future__ import annotations

from itertools import compress, groupby, repeat
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.dictionary import (
    INSTANCE_EDGE_PROPERTIES,
    INSTANCE_NODE_PROPERTIES,
)
from repro.core.schema import SuperSchema
from repro.errors import SchemaError
from repro.graph.columnar_graph import _BULK_ROWS, ColumnarPropertyGraph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.vadalog.columnar import Codes, ValueInterner

Fact = Tuple[Any, ...]
Columns = List[List[Any]]
#: ``sink(label, columns)`` receives one batch of facts of one relation.
ColumnSink = Callable[[str, Columns], Any]
#: ``source(label)`` returns a relation's columns, ``None`` when empty.
ColumnSource = Callable[[str], Optional[Columns]]

#: The construct relations first: a link is checked against their OIDs.
INSTANCE_LABELS: Tuple[str, ...] = (
    *INSTANCE_NODE_PROPERTIES, *INSTANCE_EDGE_PROPERTIES
)


# ---------------------------------------------------------------------------
# Encoder: plain typed elements -> I_SM_* columns (Algorithm 2, line 4)
# ---------------------------------------------------------------------------


def encode_instance(
    schema: SuperSchema, instance_oid: Any, data: PropertyGraph, sink: ColumnSink
) -> None:
    """Encode the typed elements of ``data`` as ``I_SM_*`` facts.

    One ``nodes_table`` / ``edges_table`` call per data label pulls the
    elements out as columns and one ``sink`` call per construct family
    hands the encoding on, so nothing larger than one label's columns is
    alive at a time.  Construct OIDs are deterministic functions of the
    element ids, so the endpoints of an edge need not be encoded by the
    same call.  The ``ABSENT`` sentinel keeps a stored ``None`` (encoded
    as an ``I_SM_Attribute`` with ``value=None``) apart from a missing
    property (encoded as nothing); properties the schema does not model
    are skipped.  Raises :class:`~repro.errors.SchemaError` for a label
    that is not a type of the schema.
    """
    ioid = instance_oid

    def references(sources: List[str], target: Any) -> None:
        sink("SM_REFERENCES", [
            [f"{s}-[SM_REFERENCES]->{target}" for s in sources],
            sources, [target] * len(sources), [ioid] * len(sources),
        ])

    def attributes(
        owners: List[str], ids: List[Any], kind: str, attach_label: str,
        by_name: Dict[str, Any], columns: List[List[Any]],
    ) -> None:
        for name, column in zip(by_name, columns):
            present = [i for i, v in enumerate(column) if v is not ABSENT]
            if not present:
                continue
            attr_iids = [f"{ioid}:i-{kind}:{ids[i]}:{name}" for i in present]
            attr_owners = [owners[i] for i in present]
            stamp = [ioid] * len(present)
            sink("I_SM_Attribute",
                 [attr_iids, stamp, [column[i] for i in present]])
            references(attr_iids, by_name[name].oid)
            sink(attach_label, [
                [f"{o}-[{attach_label}]->{a}"
                 for o, a in zip(attr_owners, attr_iids)],
                attr_owners, attr_iids, stamp,
            ])

    for label in sorted(data.node_labels()):
        sm_node = schema.get_node(label)
        by_name = {a.name: a for a in schema.inherited_attributes(sm_node)}
        ids, columns = data.nodes_table(label, tuple(by_name), default=ABSENT)
        if not ids:
            continue
        node_iids = [f"{ioid}:i-node:{nid}" for nid in ids]
        sink("I_SM_Node", [node_iids, [ioid] * len(ids), list(ids)])
        references(node_iids, sm_node.oid)
        attributes(node_iids, ids, "nattr", "I_SM_HAS_NODE_PROPERTY",
                   by_name, columns)

    for label in sorted(data.edge_labels()):
        sm_edge = schema.get_edge(label)
        by_name = {a.name: a for a in sm_edge.attributes}
        ids, sources, targets, columns = data.edges_table(
            label, tuple(by_name), default=ABSENT
        )
        if not ids:
            continue
        edge_iids = [f"{ioid}:i-edge:{eid}" for eid in ids]
        stamp = [ioid] * len(ids)
        sink("I_SM_Edge", [edge_iids, stamp, list(ids)])
        references(edge_iids, sm_edge.oid)
        sink("I_SM_FROM", [
            [f"{eiid}-[I_SM_FROM]" for eiid in edge_iids], edge_iids,
            [f"{ioid}:i-node:{s}" for s in sources], stamp,
        ])
        sink("I_SM_TO", [
            [f"{eiid}-[I_SM_TO]" for eiid in edge_iids], edge_iids,
            [f"{ioid}:i-node:{t}" for t in targets], stamp,
        ])
        attributes(edge_iids, ids, "eattr", "I_SM_HAS_EDGE_PROPERTY",
                   by_name, columns)


# ---------------------------------------------------------------------------
# Decoder: I_SM_* columns -> plain typed graph (Algorithm 2, line 9)
# ---------------------------------------------------------------------------

class CodedSource(NamedTuple):
    """``I_SM_*`` relations as code columns: ``columns(label)`` returns a
    relation's ``int32`` numpy code columns over ``interner`` in row
    order, ``None`` when it is empty."""

    interner: ValueInterner
    columns: Callable[[str], Optional[List[Any]]]


def coded(source: Union[ColumnSource, CodedSource]) -> CodedSource:
    """``source`` as code columns: a value source is encoded, in one
    column pass, into a fresh interner."""
    if isinstance(source, CodedSource):
        return source
    interner = ValueInterner()
    found = {label: source(label) for label in INSTANCE_LABELS}
    found = {label: columns for label, columns in found.items() if columns}
    cells = [cell for columns in found.values() for column in columns for cell in column]
    codes = interner.encode_column(cells)
    held, start = {}, 0
    for label, columns in found.items():
        held[label] = [codes[start + len(c) * i:start + len(c) * (i + 1)] for i, c in enumerate(columns)]
        start += len(columns[0]) * len(columns)
    return CodedSource(interner, held.get)


def schema_constructs(schema: SuperSchema) -> Tuple[Dict[Any, str], ...]:
    """Node type, edge type and attribute name by construct OID: what an
    ``SM_REFERENCES`` link can point at."""
    constructs = (*schema.nodes, *schema.edges)
    return (
        {n.oid: n.type_name for n in schema.nodes},
        {e.oid: e.type_name for e in schema.edges},
        {a.oid: a.name for c in constructs for a in c.attributes},
    )


def code_map(keys: Any, values: Any, last: bool = False) -> Callable[[Any], Any]:
    """``dict(zip(keys, values)).get`` for numpy ints — the first value of
    a repeated key wins, or the last — as a function from a numpy array
    of keys to their values, -1 where absent: a dict for a few keys,
    sorted arrays probed by ``searchsorted`` (16 bytes a key) for many."""
    if len(keys) < _BULK_ROWS:
        pairs = list(zip(keys.tolist(), values.tolist()))
        table = dict(pairs if last else reversed(pairs))
        return lambda wanted: np.fromiter(
            map(table.get, wanted.tolist(), repeat(-1)), np.int64, len(wanted)
        )
    if last:
        keys, values = keys[::-1], values[::-1]
    order = keys.argsort(kind="stable")
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    keys, values = keys[head], values[order[head]]

    def get(wanted: Any) -> Any:
        at = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, values[at], -1)

    return get


def _merged(orders: List[List[int]]) -> Optional[List[int]]:
    """One sequence holding every list of ``orders`` as a subsequence
    (first come, first placed), or None when two of them disagree."""
    pending = list(dict.fromkeys(name for order in orders for name in order))
    before: Dict[int, set] = {name: set() for name in pending}
    for order in orders:
        for earlier, later in zip(order, order[1:]):
            before[later].add(earlier)
    merged: List[int] = []
    while pending:
        ready = next((n for n in pending if before[n].issubset(merged)), None)
        if ready is None:
            return None
        merged.append(ready)
        pending.remove(ready)
    return merged


def reduce_links(owners: Any, named: Any, ranks: Any, cells: Any, width: int) -> Tuple[Any, ...]:
    """Attribute links, one per owner and attribute name shown: the
    owner, the name, the rank of the first link showing it and the
    value of the last one (ranks order the links of one owner)."""
    pairs = owners * width + named
    order = np.lexsort((ranks, pairs))
    pairs, ranks, cells = pairs[order], ranks[order], cells[order]
    head = np.ones(len(pairs), dtype=bool)
    head[1:] = pairs[1:] != pairs[:-1]
    tail = np.ones(len(pairs), dtype=bool)
    tail[:-1] = head[1:]
    return pairs[head] // width, pairs[head] % width, ranks[head], cells[tail]


def write_elements(
    graph: ColumnarPropertyGraph, add: Callable[..., Any], types: List[str],
    ids: Any, ends: Tuple[Any, ...], attributes: Tuple[Any, ...],
    attribute_names: List[str],
) -> None:
    """Write elements of one label each, in order, with their attributes
    as code columns: ``ids`` / ``ends`` are code arrays, ``attributes``
    (:func:`reduce_links` of links whose owners are element positions)
    names each type's columns in the order its elements first show them
    (by element, then by rank).  Should two types order their names
    differently, the elements are written one run of equal type at a
    time; fewer than 64 go one ``add_node`` / ``add_edge`` each, which
    leaves the same graph."""
    at, named, first, cells = attributes
    values = graph.interner.values
    if len(types) < _BULK_ROWS:
        shown: List[Dict[str, Any]] = [{} for _ in types]
        for _rank, element, attr, cell in sorted(zip(
            first.tolist(), at.tolist(), named.tolist(), cells.tolist()
        )):
            shown[element][attribute_names[attr]] = values[cell]
        for element, (type_name, properties) in enumerate(zip(types, shown)):
            oid, *points = (values[int(c[element])] for c in (ids, *ends))
            if points:
                graph.add_edge(*points, type_name, edge_id=oid, **properties)
            else:
                graph.add_node(oid, type_name, **properties)
        return
    # Per type, its names in the order its elements first show them.
    width = max(len(attribute_names), 1)
    kind_of = {type_name: i for i, type_name in enumerate(dict.fromkeys(types))}
    kinds = np.fromiter(map(kind_of.__getitem__, types), np.int64, len(types))
    orders: Dict[int, List[int]] = {}
    if len(at):
        ranked = np.lexsort((first, at))
        kind_names = kinds[at[ranked]] * width + named[ranked]
        _, firsts = np.unique(kind_names, return_index=True)
        for pair in kind_names[np.sort(firsts)].tolist():
            orders.setdefault(pair // width, []).append(pair % width)
    merged = _merged(list(orders.values()))
    spans = [(0, len(types), merged)]
    if merged is None:  # two types disagree: one run of a type a write
        spans, start = [], 0
        for type_name, run in groupby(types):
            stop = start + len(list(run))
            spans.append((start, stop, orders.get(kind_of[type_name], [])))
            start = stop
    columns = {}
    for attr in {attr for _, _, attrs in spans for attr in attrs}:
        column = columns[attr] = np.full(len(types), -1, dtype=np.int32)
        chosen = named == attr
        column[at[chosen]] = cells[chosen]
    for start, stop, attrs in spans:
        add(
            types[start:stop],
            *(c[start:stop].astype(np.int32).view(Codes) for c in (ids, *ends)),
            tuple(attribute_names[attr] for attr in attrs),
            [columns[attr][start:stop].view(Codes) for attr in attrs],
            keep_none=True,
        )


def decode_instance(
    schema: SuperSchema,
    instance_oid: Any,
    source: Union[ColumnSource, CodedSource],
    name: str = "instance",
) -> "SuperInstance":
    """Decode the ``I_SM_*`` constructs of ``instance_oid`` back into a
    plain typed property graph over the source's interner (a value
    source is encoded into a fresh one first, see :func:`coded`).

    Nodes, then edges, come out in ``str`` order of their construct
    OIDs, written by :func:`write_elements`, one label per element, as
    id, endpoint and per-attribute
    :class:`~repro.vadalog.columnar.Codes` columns: only the construct
    OIDs, for their order, are decoded.

    A construct's type is its first ``SM_REFERENCES`` link, an edge's
    ends its last ``I_SM_FROM`` / ``I_SM_TO`` link.  The
    ``I_SM_HAS_*_PROPERTY`` links are grouped by attribute name, the
    last link of an owner and name winning; an owner without a link
    leaves the cell unset — so a stored ``None`` stays a value and a
    missing property stays missing.  A derived construct (no
    ``sourceOID``) keeps its invented OID.
    """
    source = coded(source)
    interner = source.interner
    values = interner.values
    eq = interner.eq_array().view(np.int64)
    none = interner.probe(None)
    ioid = interner.probe_eq(instance_oid)
    empty = np.empty(0, dtype=np.int32)

    def links(label: str) -> Tuple[Any, Any]:
        columns = source.columns(label)
        if not columns:
            return empty, empty
        return eq[columns[1]], eq[columns[2]]

    def mine(label: str) -> Tuple[Any, Any]:
        """OIDs and ``sourceOID`` / ``value`` codes of this instance's
        constructs."""
        columns = source.columns(label)
        if not columns:
            return empty, empty
        oids, ioids, thirds = columns
        here = eq[ioids] == (-1 if ioid is None else ioid)
        return (oids, thirds) if here.all() else (oids[here], thirds[here])

    construct, target = links("SM_REFERENCES")
    refs = code_map(construct, target)
    # The construct maps, on the eq codes the references point at.
    node_type_of, edge_type_of, attribute_name_of = (
        {code: by_oid[values[code]] for code in set(target.tolist())
         if values[code] in by_oid}
        for by_oid in schema_constructs(schema)
    )
    del construct, target
    attribute_names = sorted(set(attribute_name_of.values()))
    attribute_index = {
        code: attribute_names.index(attr) for code, attr in attribute_name_of.items()
    }
    attribute_iids, attribute_values = mine("I_SM_Attribute")
    value_of = code_map(eq[attribute_iids], attribute_values, last=True)

    def attributes_of(label: str, iids: Any) -> Tuple[Any, ...]:
        """The links of ``label`` shown on the constructs ``iids``, by
        construct position, reduced by :func:`reduce_links`."""
        owners, attr_iids = links(label)
        cells = value_of(attr_iids)
        named = np.fromiter(
            map(attribute_index.get, refs(attr_iids).tolist(), repeat(-1)),
            np.int64, len(attr_iids),
        )
        at = code_map(iids, np.arange(len(iids)))(owners)
        shown = np.flatnonzero((named >= 0) & (cells >= 0) & (at >= 0))
        return reduce_links(at[shown], named[shown], shown, cells[shown],
                            max(len(attribute_names), 1))

    def by_oid(label: str, type_of: Dict[int, str]) -> Tuple[Any, ...]:
        """Type, construct OID eq code and plain id code of the
        constructs of a known type, in ``str`` order of construct OID."""
        iids, plain = mine(label)
        text = list(map(str, map(values.__getitem__, iids.tolist())))
        order = sorted(range(len(text)), key=text.__getitem__)
        iids, plain = iids[order], plain[order]
        ids = plain if none is None else np.where(plain == none, iids, plain)
        iids = eq[iids]
        types = list(map(type_of.get, refs(iids).tolist()))
        typed = np.array([type_name is not None for type_name in types], dtype=bool)
        return list(compress(types, typed)), iids[typed], ids[typed]

    data = ColumnarPropertyGraph(name, interner=interner)
    types, iids, ids = by_oid("I_SM_Node", node_type_of)
    write_elements(data, data.add_nodes_bulk, types, ids, (),
                   attributes_of("I_SM_HAS_NODE_PROPERTY", iids), attribute_names)
    plain = code_map(iids, ids, last=True)
    types, iids, ids = by_oid("I_SM_Edge", edge_type_of)
    ends = [
        plain(code_map(*links(label), last=True)(iids))
        for label in ("I_SM_FROM", "I_SM_TO")
    ]
    both = (ends[0] >= 0) & (ends[1] >= 0)
    iids = iids[both]
    write_elements(data, data.add_edges_bulk, list(compress(types, both.tolist())),
                   ids[both], (ends[0][both], ends[1][both]),
                   attributes_of("I_SM_HAS_EDGE_PROPERTY", iids), attribute_names)
    return SuperInstance(schema, instance_oid, data)


# ---------------------------------------------------------------------------
# The Figure 9 rendering: the same columns as dictionary-graph elements
# ---------------------------------------------------------------------------


def _graph_sink(graph: PropertyGraph) -> ColumnSink:
    def sink(label: str, columns: Columns) -> None:
        names = INSTANCE_NODE_PROPERTIES.get(label)
        if names is not None:
            # A stored None is a real attribute value; a construct
            # without sourceOID simply lacks the property.
            graph.add_nodes_bulk(
                label, columns[0], tuple(names), columns[1:],
                keep_none=label == "I_SM_Attribute",
            )
        else:
            graph.add_edges_bulk(
                label, columns[0], columns[1], columns[2],
                tuple(INSTANCE_EDGE_PROPERTIES[label]), columns[3:],
            )

    return sink


def _graph_source(graph: PropertyGraph) -> ColumnSource:
    def source(label: str) -> Optional[Columns]:
        names = INSTANCE_NODE_PROPERTIES.get(label)
        if names is not None:
            ids, columns = graph.nodes_table(label, names)
            return [ids, *columns] if ids else None
        ids, sources, targets, columns = graph.edges_table(
            label, INSTANCE_EDGE_PROPERTIES[label]
        )
        return [ids, sources, targets, *columns] if ids else None

    return source


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

    def to_dictionary(self, graph: PropertyGraph) -> PropertyGraph:
        """Write this instance's ``I_SM_*`` constructs into ``graph``.

        The schema must already be serialized in the same graph (its
        construct OIDs are the ``SM_REFERENCES`` targets).
        """
        encode_instance(
            self.schema, self.instance_oid, self.data, _graph_sink(graph)
        )
        return graph

    @classmethod
    def from_dictionary(
        cls,
        graph: PropertyGraph,
        schema: SuperSchema,
        instance_oid: Any,
        name: str = "instance",
    ) -> "SuperInstance":
        """Read the ``I_SM_*`` constructs of ``instance_oid`` in ``graph``
        back into a plain typed property graph."""
        return decode_instance(schema, instance_oid, _graph_source(graph), name)

    def __repr__(self) -> str:
        return (
            f"SuperInstance(schema={self.schema.name!r}, "
            f"oid={self.instance_oid!r}, nodes={self.data.node_count}, "
            f"edges={self.data.edge_count})"
        )
