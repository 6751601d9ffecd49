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
columns back from a source into a plain typed property graph.
Algorithm 2 uses the staging database of the chase as sink and source
(the relations *are* the instance level of the dictionary);
:class:`SuperInstance` renders the same columns into, and reads them
from, a dictionary graph — the Figure 9 picture.
"""

from __future__ import annotations

from itertools import compress, groupby, repeat
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.dictionary import (
    INSTANCE_EDGE_PROPERTIES,
    INSTANCE_NODE_PROPERTIES,
)
from repro.core.schema import SuperSchema
from repro.errors import SchemaError
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.vadalog.terms import fact_sort_key

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


def encode_records(
    schema: SuperSchema,
    instance_oid: Any,
    nodes: Iterable[Tuple[Any, Optional[str], Dict[str, Any]]],
    edges: Iterable[Tuple[Any, Any, Any, Optional[str], Dict[str, Any]]],
) -> Dict[str, List[Fact]]:
    """The ``I_SM_*`` facts of ``(id, type, properties)`` node records
    and ``(id, source, target, type, properties)`` edge records — what
    :func:`encode_instance` yields for them as part of any graph, since
    an element's encoding depends on nothing but the element."""
    scratch = PropertyGraph("records")
    for node_id, type_name, properties in nodes:
        scratch.add_node(node_id, type_name, **properties)
    for edge_id, source, target, type_name, properties in edges:
        for endpoint in (source, target):
            if not scratch.has_node(endpoint):
                scratch.add_node(endpoint)  # unlabeled: a stub, not encoded
        scratch.add_edge(source, target, type_name, edge_id=edge_id, **properties)
    facts: Dict[str, List[Fact]] = {}
    encode_instance(
        schema, instance_oid, scratch,
        lambda label, columns: facts.setdefault(label, []).extend(zip(*columns)),
    )
    return facts


# ---------------------------------------------------------------------------
# Decoder: I_SM_* columns -> plain typed graph (Algorithm 2, line 9)
# ---------------------------------------------------------------------------

#: Which facts of a relation were loaded (encoded from the source data)
#: rather than derived: the first ``n`` rows, or the facts in a set.
LoadedMark = Union[int, Collection[Fact]]


def _schema_constructs(schema: SuperSchema) -> Tuple[Dict[Any, str], ...]:
    """Node type, edge type and attribute name by construct OID: what an
    ``SM_REFERENCES`` link can point at."""
    constructs = (*schema.nodes, *schema.edges)
    return (
        {n.oid: n.type_name for n in schema.nodes},
        {e.oid: e.type_name for e in schema.edges},
        {a.oid: a.name for c in constructs for a in c.attributes},
    )


def _in_dictionary_order(columns: Columns, mark: LoadedMark) -> List[Fact]:
    """The rows with the loaded ones first, as stored, and the derived
    ones after them in :func:`~repro.vadalog.terms.fact_sort_key` order
    — the same in every process, whatever order the chase derived in."""
    rows = list(zip(*columns))
    if isinstance(mark, int):
        loaded, derived = rows[:mark], rows[mark:]
    else:
        loaded = [row for row in rows if row in mark]
        derived = [row for row in rows if row not in mark]
    derived.sort(key=fact_sort_key)
    return loaded + derived


def instance_facts(
    source: ColumnSource,
    loaded: Mapping[str, LoadedMark],
    schema: SuperSchema,
) -> Tuple[Dict[str, Columns], int, int]:
    """Settle which ``I_SM_*`` facts of a chase database make up the
    instance: their columns per relation, how many of them are derived,
    and how many link facts were dropped.

    Per OID a loaded fact wins over a derived one (V_O emits
    ``I_SM_Node(c, ioid, None)`` for every fact Sigma derives about an
    existing node ``c``), otherwise the first derived fact in
    ``fact_sort_key`` order; a link whose source or target is neither an
    instance construct nor a construct of ``schema`` is dropped and
    counted.  Rows compete only where an OID (or, for the decoder's
    first/last-link-wins maps, a link source) repeats, so a relation
    without repeats is passed through in stored order and ``loaded`` is
    not consulted for it.
    """
    held: Dict[str, Columns] = {}
    added = dropped = 0
    present = set().union(*_schema_constructs(schema))
    for label in INSTANCE_LABELS:
        columns = source(label)
        if columns is None:
            continue
        mark = loaded.get(label, 0)
        # A set marks facts the source need not hold all of, so it is
        # counted over the rows that are there.
        n_loaded = mark if isinstance(mark, int) else sum(
            row in mark for row in zip(*columns)
        )
        size = len(columns[0])
        is_link = label in INSTANCE_EDGE_PROPERTIES
        contested = size > n_loaded and (
            len(set(columns[0])) != size
            or (is_link and len(set(columns[1])) != size)
        )
        dangling = is_link and not (
            present.issuperset(columns[1]) and present.issuperset(columns[2])
        )
        if contested or dangling:
            rows = (
                _in_dictionary_order(columns, mark) if contested
                else zip(*columns)
            )
            kept: List[Fact] = []
            seen = set()
            for row in rows:
                if row[0] in seen:
                    continue
                if dangling and not (row[1] in present and row[2] in present):
                    dropped += 1
                    continue
                seen.add(row[0])
                kept.append(row)
            if not kept:
                continue
            columns = [list(column) for column in zip(*kept)]
        if not is_link:
            present.update(columns[0])
        held[label] = columns
        added += len(columns[0]) - n_loaded
    return held, added, dropped


def decode_instance(
    schema: SuperSchema,
    instance_oid: Any,
    source: ColumnSource,
    name: str = "instance",
) -> "SuperInstance":
    """Decode the ``I_SM_*`` constructs of ``instance_oid`` back into a
    plain typed property graph.

    Nodes, then edges, come out in ``str`` order of their construct
    OIDs.  That sequence is written one maximal run of equal type at a
    time, each run as id, endpoint and per-attribute columns through one
    ``add_nodes_bulk`` / ``add_edges_bulk`` call: construct OIDs sort
    type by type when ids do, so an instance is a handful of runs, and a
    fully interleaved one degrades to runs of one.

    A construct's type is its first ``SM_REFERENCES`` link, an edge's
    ends its last ``I_SM_FROM`` / ``I_SM_TO`` link.  The
    ``I_SM_HAS_*_PROPERTY`` links are grouped by attribute name, the
    last link of an owner and name winning; a run's columns come in the
    order its elements first show each name, an owner without a link
    leaving the cell :data:`ABSENT` — so a stored ``None`` stays a value
    and a missing property stays missing.  A derived construct (no
    ``sourceOID``) keeps its invented OID.
    """
    node_type_by_oid, edge_type_by_oid, attribute_name_by_oid = (
        _schema_constructs(schema)
    )

    def links(label: str) -> Tuple[List[Any], List[Any]]:
        columns = source(label)
        return (columns[1], columns[2]) if columns else ([], [])

    def constructs(label: str) -> Tuple[List[Any], List[Any]]:
        """OIDs and ``sourceOID`` / ``value`` of this instance's
        constructs."""
        columns = source(label)
        if not columns:
            return [], []
        oids, ioids, thirds = columns
        if ioids.count(instance_oid) != len(ioids):
            mine = [ioid == instance_oid for ioid in ioids]
            return list(compress(oids, mine)), list(compress(thirds, mine))
        return oids, thirds

    construct_column, target_column = links("SM_REFERENCES")
    refs = dict(zip(reversed(construct_column), reversed(target_column)))
    values = dict(zip(*constructs("I_SM_Attribute")))

    def attributes_of(
        label: str,
    ) -> Tuple[Dict[str, Dict[Any, int]], List[Any]]:
        """Per attribute name, in first-link order, the link each owner
        shows it by, and the value every link shows.  An owner's first
        link to a name keeps its place, its last one gives the value."""
        owners, attr_iids = links(label)
        cells = list(map(values.get, attr_iids, repeat(ABSENT)))
        link_by_name: Dict[str, Dict[Any, int]] = {}
        for link, (owner, attr_name, value) in enumerate(zip(
            owners,
            map(attribute_name_by_oid.get, map(refs.get, attr_iids)),
            cells,
        )):
            if attr_name is not None and value is not ABSENT:
                first = link_by_name.setdefault(attr_name, {}).setdefault(
                    owner, link
                )
                if first != link:
                    cells[first] = value
        cells.append(ABSENT)  # the cell of an owner without a link
        return link_by_name, cells

    def by_oid(label: str, type_by_oid: Dict[Any, str]) -> Tuple[List[Any], ...]:
        """Type, construct OID and plain id of the constructs of a known
        type, in ``str`` order of construct OID."""
        iids, plain_ids = constructs(label)
        order = sorted(range(len(iids)), key=list(map(str, iids)).__getitem__)
        iids = [iids[i] for i in order]
        ids = [
            iid if plain_ids[i] is None else plain_ids[i]
            for iid, i in zip(iids, order)
        ]
        types = list(map(type_by_oid.get, map(refs.get, iids)))
        return keep([type_name is not None for type_name in types],
                    types, iids, ids)

    def keep(mask: List[bool], *columns: List[Any]) -> Tuple[List[Any], ...]:
        return tuple(list(compress(column, mask)) for column in columns)

    def runs(types: List[Any]) -> Iterable[Tuple[Any, slice]]:
        start = 0
        for type_name, run in groupby(types):
            stop = start + len(list(run))
            yield type_name, slice(start, stop)
            start = stop

    def run_columns(
        attributes: Tuple[Dict[str, Dict[Any, int]], List[Any]],
        iids: List[Any],
    ) -> Tuple[Tuple[str, ...], List[List[Any]]]:
        """The attribute columns of one run, in the order its elements
        first show each name: by element, then by that element's links."""
        link_by_name, cells = attributes
        no_link = len(cells) - 1
        shown = []
        for attr_name, link_by_owner in link_by_name.items():
            run_links = list(map(link_by_owner.get, iids, repeat(no_link)))
            first = next(
                (at for at in enumerate(run_links) if at[1] != no_link), None
            )
            if first is not None:
                shown.append((first, attr_name, run_links))
        shown.sort(key=itemgetter(0))
        return (
            tuple(attr_name for _, attr_name, _ in shown),
            [list(map(cells.__getitem__, run_links)) for _, _, run_links in shown],
        )

    def properties_of(
        attributes: Tuple[Dict[str, Dict[Any, int]], List[Any]], iid: Any
    ) -> Dict[str, Any]:
        """The attributes of one element, in the order of its links."""
        link_by_name, cells = attributes
        return {
            attr_name: cells[link] for link, attr_name in sorted(
                (link_by_owner[iid], attr_name)
                for attr_name, link_by_owner in link_by_name.items()
                if iid in link_by_owner
            )
        }

    data = make_graph(name)
    attributes = attributes_of("I_SM_HAS_NODE_PROPERTY")
    types, iids, ids = by_oid("I_SM_Node", node_type_by_oid)
    plain_id_by_iid = dict(zip(iids, ids))
    for type_name, run in runs(types):
        if run.stop - run.start == 1:  # a run of one is that element
            data.add_node(
                ids[run.start], type_name,
                **properties_of(attributes, iids[run.start]),
            )
            continue
        names, columns = run_columns(attributes, iids[run])
        data.add_nodes_bulk(type_name, ids[run], names, columns, keep_none=True)

    from_map = dict(zip(*links("I_SM_FROM")))
    to_map = dict(zip(*links("I_SM_TO")))
    attributes = attributes_of("I_SM_HAS_EDGE_PROPERTY")
    types, iids, ids = by_oid("I_SM_Edge", edge_type_by_oid)
    sources = list(map(plain_id_by_iid.get, map(from_map.get, iids)))
    targets = list(map(plain_id_by_iid.get, map(to_map.get, iids)))
    types, iids, ids, sources, targets = keep(
        [s is not None and t is not None for s, t in zip(sources, targets)],
        types, iids, ids, sources, targets,
    )
    for type_name, run in runs(types):
        if run.stop - run.start == 1:
            at = run.start
            data.add_edge(
                sources[at], targets[at], type_name, edge_id=ids[at],
                **properties_of(attributes, iids[at]),
            )
            continue
        names, columns = run_columns(attributes, iids[run])
        data.add_edges_bulk(
            type_name, ids[run], sources[run], targets[run], names, columns,
            keep_none=True,
        )
    return SuperInstance(schema, instance_oid, data)


def decode_relations(
    schema: SuperSchema,
    instance_oid: Any,
    source: ColumnSource,
    loaded: Mapping[str, LoadedMark],
    name: str,
) -> "Tuple[SuperInstance, int, int]":
    """The instance the ``I_SM_*`` relations of a chase database hold,
    with the derived-fact and dropped-link counts of
    :func:`instance_facts`."""
    held, added, dropped = instance_facts(source, loaded, schema)
    return decode_instance(schema, instance_oid, held.get, name), added, dropped


def delta_source(
    changes: Iterable[Mapping[str, Collection[Fact]]],
    matching: Callable[[str, int, Any], List[Fact]],
) -> Tuple[ColumnSource, List[Any], List[Any]]:
    """A source holding only the rows of the constructs a change to the
    ``I_SM_*`` relations can reach, and the plain ids those nodes and
    edges have or had.

    ``changes`` are the added and the removed facts per relation;
    ``matching(label, position, value)`` probes the relations as they
    are now, in row order.  A change reaches the construct a changed row
    is or hangs off (the source of a link, the owner of an attribute)
    and every edge naming a node whose own row came or went.
    The end nodes of reached edges ride along as context — no
    attributes, not listed — so that :func:`decode_relations` over the
    source yields the reached elements as the whole relations would.
    """
    changed: Dict[str, List[Fact]] = {
        label: [row for side in changes for row in side.get(label, ())]
        for label in INSTANCE_LABELS
    }
    reach = {
        row[1 if label in INSTANCE_EDGE_PROPERTIES else 0]
        for label, rows in changed.items() for row in rows
    }
    has_property = ("I_SM_HAS_NODE_PROPERTY", "I_SM_HAS_EDGE_PROPERTY")
    ends = ("I_SM_FROM", "I_SM_TO")
    for oid in list(reach):
        reach.update(  # an attribute is decoded with its owner
            row[1] for label in has_property for row in matching(label, 2, oid)
        )
    for node in changed["I_SM_Node"]:
        reach.update(
            row[1] for label in ends for row in matching(label, 2, node[0])
        )
    reached = sorted(reach, key=str)
    rows: Dict[str, List[Fact]] = {}

    def fetch(label: str, position: int, keys: Iterable[Any]) -> List[Fact]:
        rows[label] = [
            row for key in dict.fromkeys(keys)
            for row in matching(label, position, key)
        ]
        return rows[label]

    fetch("I_SM_Edge", 0, reached)
    context = [
        row[2] for label in ends for row in fetch(label, 1, reached)
        if row[2] not in reach
    ]
    fetch("I_SM_Node", 0, (*reached, *context))
    attributes = [
        row[2] for label in has_property for row in fetch(label, 1, reached)
    ]
    fetch("I_SM_Attribute", 0, attributes)
    fetch("SM_REFERENCES", 1, (*reached, *context, *attributes))

    def plain_ids(label: str) -> List[Any]:
        return sorted({
            oid if plain is None else plain
            for oid, _ioid, plain in (*rows[label], *changed[label])
            if oid in reach
        }, key=str)

    held = {
        label: [list(column) for column in zip(*facts)]
        for label, facts in rows.items() if facts
    }
    return held.get, plain_ids("I_SM_Node"), plain_ids("I_SM_Edge")


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
