"""Intensional-component materialization — Algorithm 2 of the paper.

.. code-block:: none

    Input: instance D of schema S of a model M, an intensional
    component Sigma;  Output: materializes the intensional component.
    1: M      <- select candidate mappings to M from REPO
    2: M(M)   <- prompt for implementation strategy
    3: V(M)   <- MTV.translateToVadalog(M(M).instance)
    4: I      <- Reason(D, V(M)^-1)          (import D into the super-model)
    5: V_I    <- build high-level input views
    6: V_O    <- build high-level output views
    7: V(Sig) <- MTV.translateToVadalog(Sigma u V_I u V_O)
    8: I'     <- Reason(I, V(Sigma))
    9: D      <- Reason(I', V(M))            (materialize into D)

V_I and V_O are pivots "generated from a static analysis of Sigma"
between the ``I_SM_*`` instance constructs and Sigma's type-level
relations (:mod:`repro.ssst.views`).  The registry graph's label tables
already hold those relations' columns, in the value dictionary the
chase runs on, so production compiles the views into *column maps*
(:class:`ColumnMaps`) and runs one chase, Sigma's:

* load (lines 4-5): one ``Database.add_columns`` call per relation
  Sigma reads, straight from the registry's label code tables — a
  descendant label's rows join its ancestors' relations, projected onto
  the inherited attributes, and an unset cell is the ``None`` code V_I's
  negation default produces;
* reason (lines 7-8): Sigma's chase, timed as the paper times it;
* flush (line 9): the enriched graph is written in one column pass from
  the registry's label tables and Sigma's head relations
  (:func:`write_instance`).

The V_I / V_O programs and the ``I_SM_*`` codec
(:mod:`repro.core.instances`) stay as the reference the tests hold this
path to: the Figure 9 rendering runs on them, and the enriched graph
equals their decode element for element and in order.  The per-phase
breakdown is the one the paper reports (~160 min reasoning against
~15 min load+flush for the Bank of Italy KG), reproduced by E-PERF.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import itemgetter
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.instances import SuperInstance, code_map, reduce_links, write_elements
from repro.core.schema import SuperSchema
from repro.deploy.delta import FlushDelta, edge_record, node_record
from repro.errors import EvaluationError, SchemaError
from repro.graph.columnar_graph import ColumnarPropertyGraph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.metalog.ast import MetaProgram
# graph_to_database: unused here, but kgbench/trace.py wraps this binding.
from repro.metalog.mtv import compile_metalog, graph_to_database
from repro.obs.governor import STATUS_FIXPOINT, BudgetExceeded
from repro.obs.tracer import NullTracer, Tracer
from repro.ssst.incremental import RegistryDelta, UpdateReport
from repro.ssst.views import catalog_from_super_schema
from repro.vadalog.columnar import Codes
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats
from repro.vadalog.terms import value_sort_key


@dataclass
class MaterializationReport:
    """Outcome of one Algorithm 2 run.

    The per-phase timings come from the materializer's tracer spans
    (``materialize.load`` / ``materialize.reason`` / ``materialize.flush``)
    — the report keeps its flat ``*_seconds`` fields for callers, but the
    spans are the source of truth and land in any exported trace.
    ``status``/``violation`` carry a budget trip of Sigma's chase, so a
    governed run can be recognized as truncated.
    """

    instance: SuperInstance  # the enriched instance (derived parts included)
    derived_counts: Dict[str, int] = field(default_factory=dict)
    load_seconds: float = 0.0
    reason_seconds: float = 0.0
    flush_seconds: float = 0.0
    reason_stats: Optional[EvaluationStats] = None
    status: str = STATUS_FIXPOINT
    violation: Optional[BudgetExceeded] = None
    #: Ends of derived edges that are no node of the instance: such an
    #: edge is dropped (a lossy program, not a bug in the flush), and
    #: each missing end counted instead of silently discarded.
    flush_dropped_edges: int = 0
    #: ``"reason"`` when this run resumed from a checkpointed chase.
    resumed_from: Optional[str] = None

    @property
    def truncated(self) -> bool:
        return self.status != STATUS_FIXPOINT

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.reason_seconds + self.flush_seconds

    def phase_breakdown(self) -> Dict[str, float]:
        return {
            "load": self.load_seconds,
            "reason": self.reason_seconds,
            "flush": self.flush_seconds,
        }


#: Per relation column after the id (and ends): the attribute it holds.
Columns = Tuple[Optional[str], ...]


@dataclass
class ColumnMaps:
    """V_I and V_O of one MTV compilation, compiled into column maps.

    ``inputs``: each relation Sigma reads, with the data labels whose
    elements it holds (the label and its descendants: V_I's ``vI_base``
    rules) and per label the attribute each column reads, None where
    V_I's negation default always yields ``None``.  ``heads``: each
    derived relation V_O writes back (labels the schema has) and the
    attribute each column writes.  Cached per (program text, schema
    identity, instance OID); the strong reference to the schema keeps
    the identity key from aliasing a collected object.
    """

    schema: SuperSchema
    compiled: Any
    inputs: List[Tuple[str, bool, List[Tuple[str, Columns]]]]
    heads: List[Tuple[str, bool, Columns]]
    #: Every attribute name of the schema: the attribute index of a link.
    attribute_names: List[str]
    #: Rank of a derived ``(label, attribute)`` link among an element's
    #: derived links: V_O's ``skOhas`` functor order.
    head_ranks: Dict[Tuple[str, str], int]
    _modeled: Dict[Tuple[bool, str], Tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def compile(cls, schema: SuperSchema, compiled: Any, catalog: Any) -> "ColumnMaps":
        """The static analysis :func:`~repro.ssst.views.input_views` and
        :func:`~repro.ssst.views.output_views` turn into rules."""
        def owned(edge: bool, label: str) -> Dict[str, Any]:
            attributes = (schema.get_edge(label).attributes if edge
                          else schema.inherited_attributes(label))
            return {a.name: a.oid for a in attributes}

        inputs, heads = [], []
        for edge, labels, has, members, properties in (
            (False, compiled.input_node_labels, schema.has_node,
             lambda label: [label, *(d.type_name for d in schema.descendants_of(label))],
             catalog.node_properties),
            (True, compiled.input_edge_labels, schema.has_edge, lambda label: [label],
             catalog.edge_properties),
        ):
            for label in sorted(filter(has, labels)):
                oids = owned(edge, label)
                inputs.append((label, edge, [(member, tuple(
                    name if name in oids and owned(edge, member).get(name) == oids[name]
                    else None for name in properties.get(label, [])
                )) for member in members(label)]))
        for edge, labels, has, properties in (
            (False, compiled.derived_node_labels, schema.has_node, catalog.node_properties),
            (True, compiled.derived_edge_labels, schema.has_edge, catalog.edge_properties),
        ):
            for label in sorted(filter(has, labels)):
                heads.append((label, edge, tuple(
                    name if name in owned(edge, label) else None
                    for name in properties.get(label, [])
                )))
        links = sorted((f"skOhas_{label}_{name}", (label, name))
                       for label, _edge, columns in heads for name in columns if name)
        return cls(
            schema, compiled, inputs, heads,
            sorted({a.name for c in (*schema.nodes, *schema.edges) for a in c.attributes}),
            {pair: rank for rank, (_functor, pair) in enumerate(links)},
        )

    @property
    def head_labels(self) -> List[str]:
        """Sigma's head relations: what the flush reads of its database."""
        return [label for label, _edge, _columns in self.heads]

    def modeled(self, edge: bool, type_name: str) -> Tuple[str, ...]:
        """The attributes an element of ``type_name`` carries into the
        instance, in the encoder's order; raises
        :class:`~repro.errors.SchemaError` for a type the schema lacks."""
        names = self._modeled.get((edge, type_name))
        if names is None:
            names = self._modeled[edge, type_name] = tuple(a.name for a in (
                self.schema.get_edge(type_name).attributes if edge
                else self.schema.inherited_attributes(type_name)))
        return names

    def facts(self, nodes: Sequence[Any], edges: Sequence[Any]) -> Dict[str, List[Any]]:
        """The facts of Sigma's input relations ``(id, type, properties)``
        node and ``(id, source, target, type, properties)`` edge records
        hold — V_I's view of them; raises
        :class:`~repro.errors.SchemaError` for a type the schema lacks."""
        records = (nodes, edges)
        for edge, record in ((e, r) for e in (0, 1) for r in records[e]):
            if record[-2] is not None:
                self.modeled(bool(edge), record[-2])
        facts: Dict[str, List[Any]] = {}
        for relation, edge, members in self.inputs:
            for member, sources in members:
                facts.setdefault(relation, []).extend(
                    (*record[:-2], *(record[-1].get(s) if s else None for s in sources))
                    for record in records[edge] if record[-2] == member
                )
        return facts


@dataclass
class RetainedMaterialization:
    """Everything ``update()`` needs to maintain a materialization.

    Built by ``materialize(..., retain=True)``: Sigma's chase result
    (carrying a retained
    :class:`~repro.vadalog.incremental.MaterializedState` over Sigma's
    relations only), the registry graph it was loaded from and the
    column maps.  The instance is held once, as those two sources: no
    copy of the enriched graph is kept, and :meth:`instance` writes it.
    """

    schema: SuperSchema
    instance_oid: Any
    data: PropertyGraph
    result: EvaluationResult
    maps: ColumnMaps
    updates_applied: int = 0

    def instance(self) -> SuperInstance:
        """The whole instance as it stands, written afresh in
        ``materialize()``'s order (:func:`write_instance`)."""
        database = self.result.database
        graph = ColumnarPropertyGraph(f"{self.data.name}+derived", interner=database.interner)
        write_instance(self.maps, self.instance_oid, self.data, database, graph)
        return SuperInstance(self.schema, self.instance_oid, graph)


#: Compile-cache entries kept per materializer (oldest evicted first).
_COMPILE_CACHE_LIMIT = 8


@contextmanager
def _deferred_full_gc():
    """Defer full (gen-2) garbage collections for a registry-scale run.

    A from-scratch materialization allocates millions of long-lived
    containers (the chase extension, the enriched graph, which a
    retained materialization does not keep); with the
    default thresholds CPython re-scans that whole heap every few
    thousand surviving allocations, which measures as multiple seconds
    of pause time per 50k-company run.  Almost everything the chase
    frees is acyclic and dies by refcount, so full cycles are deferred
    — not disabled — while young-generation collection keeps running;
    thresholds are always restored.  No full collection runs on exit:
    it found nothing to free after a run at 1k to 5k companies.
    """
    if not gc.isenabled():  # caller manages GC — stay out of the way
        yield
        return
    gen0, gen1, gen2 = gc.get_threshold()
    gc.set_threshold(gen0, gen1, max(gen2, 1) * 50)
    try:
        yield
    finally:
        gc.set_threshold(gen0, gen1, gen2)


# ----------------------------------------------------------------------
# The column maps at work: load Sigma's inputs, write the instance
# ----------------------------------------------------------------------
def _codes(interner: Any, values: Sequence[Any]) -> Any:
    """The codes of a value column, -1 for an :data:`ABSENT` cell."""
    codes = np.full(len(values), -1, dtype=np.int64)
    present = [i for i, value in enumerate(values) if value is not ABSENT]
    if present:
        codes[present] = interner.encode_column([values[i] for i in present])
    return codes


def registry_rows(maps: ColumnMaps, data: PropertyGraph, graph: Any,
                  edge: bool) -> List[Tuple[Any, ...]]:
    """Per label of the registry's nodes or edges: the label, its
    modeled attributes, and its id, end (None for nodes) and attribute
    code columns over ``graph``'s interner, -1 an unset cell — the
    registry's own when ``graph`` shares its codes."""
    tables = []
    shared = graph.share_codes(data)
    for label in (data.edge_labels() if edge else data.node_labels()):
        names = maps.modeled(edge, label)
        if shared:
            table = (data.edge_code_table if edge else data.node_code_table)(label, names)
        else:
            table = (data.edges_table if edge else data.nodes_table)(
                label, names, default=ABSENT)
            encode = partial(_codes, graph.interner)
            table = [*map(encode, table[:-1]), list(map(encode, table[-1]))]
        tables.append((label, names, *(table if edge else (table[0], None, None, table[1]))))
    return tables


def load_inputs(maps: ColumnMaps, registry: Sequence[List[Tuple[Any, ...]]],
                database: Database) -> None:
    """Load Sigma's input relations from the registry's label tables
    (:func:`registry_rows` of nodes and edges, over the database's
    interner): one ``add_columns`` call a relation, the code columns as
    they are, an unset cell ``None``."""
    tables = {(bool(edge), t[0]): t for edge in (0, 1) for t in registry[edge]}
    none = database.interner.encode(None)
    for relation, edge, members in maps.inputs:
        parts = []
        for label, names, ids, *ends, columns in filter(None, (
            tables.get((edge, member)) for member, _ in members
        )):
            held = dict(zip(names, columns))
            sources = dict(members)[label]
            parts.append([ids, *(ends if edge else ()), *(
                np.full(len(ids), -1) if s is None else held[s] for s in sources
            )])
        if not parts:
            continue
        columns = [np.concatenate(column) for column in zip(*parts)]
        database.add_columns(relation, [
            np.where(c < 0, none, c).astype(np.int32).view(Codes) for c in columns
        ])


def _head_rows(maps: ColumnMaps, database: Database,
               edge: bool) -> List[Tuple[int, List[Any]]]:
    """Per head relation of one kind: its index in ``maps.heads`` and
    its code columns (Sigma's database has the instance's interner)."""
    rows = []
    for index, (label, is_edge, _columns) in enumerate(maps.heads):
        if is_edge != edge:
            continue
        columns = database.code_columns(label)
        if columns:
            rows.append((index, [np.asarray(c, dtype=np.int64) for c in columns]))
    return rows


def _joined(parts: List[Any]) -> Any:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class _Elements:
    """The nodes or the edges of an instance under construction, as the
    decoder of V_O's relations would see them: per element its ``str``
    order key (its construct OID), type, id and end codes, and the
    attribute links shown on it (element, attribute, rank, value code)."""

    def __init__(self, maps: ColumnMaps):
        self.maps, self.keys, self.types = maps, [], []
        self.columns: List[List[Any]] = [[], [], []]  # ids, sources, targets
        self.links: List[List[Any]] = [[], [], [], []]

    def add(self, types: List[str], keys: List[str], *columns: Any) -> Any:
        """Append elements; returns their positions."""
        for held, column in zip(self.columns, columns):
            held.append(column)
        self.types.extend(types)
        self.keys.extend(keys)
        return np.arange(len(self.types) - len(types), len(self.types))

    def link(self, at: Any, name: str, rank: int, cells: Any) -> None:
        """Links of ``name`` at ``rank`` on the elements ``at`` with a cell."""
        shown = cells >= 0
        for held, column in zip(self.links, (
            at[shown], np.full(int(shown.sum()), self.maps.attribute_names.index(name)),
            np.full(int(shown.sum()), rank), cells[shown],
        )):
            held.append(column)


def _derive(elements: _Elements, values: List[Any], eq: Any, none: Optional[int],
            heads: List[Tuple[int, List[Any]]], node_at: Any) -> int:
    """Add what Sigma's head relations of one kind derive, by V_O's and
    the decoder's rules (``instance_facts``); returns how many edge ends
    are no node of the instance (their edges are dropped).

    Per element id (``==``, so ``True`` is ``1``) a loaded element wins:
    it keeps its label and an edge its ends, and derived attributes land
    on it.  A derived-only element takes the smallest head label
    deriving it; a derived edge each end from the largest label with an
    end that is a node (``node_at``), per label the smallest such in
    :func:`value_sort_key` order.  A derived ``None`` writes nothing; of
    several values for one label, element and attribute the smallest
    wins; a derived attribute ranks after the element's loaded ones and,
    shown under several labels, the largest label's value wins.
    """
    if not heads:
        return 0
    maps, base, edge = elements.maps, len(elements.types), node_at is not None
    which = np.concatenate([np.full(len(c[0]), i) for i, c in heads])
    rows = [np.concatenate(parts) for parts in zip(*(c[:3] for _, c in heads))]
    loaded = _joined(elements.columns[0])
    at = code_map(eq[loaded], np.arange(len(loaded)))(eq[rows[0]])
    new = np.flatnonzero(at < 0)
    _, first, inverse = np.unique(eq[rows[0][new]], return_index=True, return_inverse=True)
    order = np.argsort(first)
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.arange(len(order))
    at[new] = base + place[inverse.reshape(-1)]
    firsts, ends, dropped = new[first[order]], [], 0
    if edge:
        ends = [node_at(eq[points[firsts]]) for points in rows[1:]]
        twice = np.bincount(at[new] - base, minlength=len(firsts)) > 1
        dropped = sum(int((end[~twice] < 0).sum()) for end in ends)
        for element in np.flatnonzero(twice).tolist():  # an id derived twice
            mine = new[at[new] == base + element]
            for end, points in zip(ends, rows[1:]):
                end[element] = -1
                for head in sorted(set(which[mine].tolist())):
                    ranked = sorted(mine[which[mine] == head].tolist(),
                                    key=lambda row: value_sort_key(values[points[row]]))
                    hits = node_at(eq[points[ranked]])
                    kept = np.flatnonzero(hits >= 0)
                    dropped += int(kept[0]) if len(kept) else len(ranked)
                    if len(kept):
                        end[element] = hits[kept[0]]
    elements.add([maps.heads[i][0] for i in which[firsts].tolist()],
                 [str(values[code]) for code in rows[0][firsts].tolist()],
                 rows[0][firsts], *ends)
    start = 0
    for index, columns in heads:
        label, _edge, written = maps.heads[index]
        mine = at[start:start + len(columns[0])]
        start += len(columns[0])
        contested = sorted(set(mine[np.bincount(mine)[mine] > 1].tolist()))
        for name, column in zip(written, columns[3 if edge else 1:]):
            if name is None:
                continue
            cells = np.where(column == (-1 if none is None else none), -1, column)
            for element in contested:
                rivals = np.flatnonzero(mine == element).tolist()
                best = min((row for row in rivals if cells[row] >= 0), default=None,
                           key=lambda row: value_sort_key(values[cells[row]]))
                cells[rivals] = -1
                if best is not None:
                    cells[best] = column[best]
            elements.link(mine, name, 1 << 20 | maps.head_ranks[label, name], cells)
    return dropped


def write_instance(maps: ColumnMaps, instance_oid: Any, data: PropertyGraph,
                   database: Database, graph: ColumnarPropertyGraph,
                   registry: Optional[Sequence[List[Tuple[Any, ...]]]] = None,
                   ) -> Tuple[int, int]:
    """Write the instance the registry ``data`` and Sigma's ``database``
    hold into the empty ``graph``, as the reference decode of V_O's
    ``I_SM_*`` relations would: nodes, then edges, in ``str`` order of
    their construct OIDs, one :func:`write_elements` pass each, the
    registry's code columns taken as they are (``registry``, when its
    :func:`registry_rows` are read already).  Returns the number of
    derived elements written and of edge ends missing (see
    :func:`_derive`)."""
    interner = graph.interner
    edges = (registry[1] if registry else registry_rows(maps, data, graph, True),
             _head_rows(maps, database, True))
    nodes = (registry[0] if registry else registry_rows(maps, data, graph, False),
             _head_rows(maps, database, False))
    eq, none = interner.eq_array().view(np.int64), interner.probe(None)
    added = dropped = 0
    node_at = None
    for edge, (tables, heads) in enumerate((nodes, edges)):
        side = _Elements(maps)
        prefix = f"{instance_oid}:i-{'edge' if edge else 'node'}:"
        for label, names, ids, sources, targets, columns in tables:
            ends = [node_at(eq[points]) for points in (sources, targets)] if edge else []
            if edge:  # a registry edge needs both ends in the instance
                both = (ends[0] >= 0) & (ends[1] >= 0)
                dropped += int((ends[0] < 0).sum() + (ends[1] < 0).sum())
                ids, ends, columns = ids[both], [e[both] for e in ends], [c[both] for c in columns]
            at = side.add([label] * len(ids), [
                prefix + str(interner.values[code]) for code in ids.tolist()
            ], ids, *ends)
            for rank, (name, column) in enumerate(zip(names, columns)):
                side.link(at, name, rank, np.asarray(column))
        loaded = len(side.types)
        dropped += _derive(side, interner.values, eq, none, heads, node_at)
        columns = [_joined(parts) for parts in side.columns[:1 + 2 * edge]]
        keep = np.logical_and.reduce([column >= 0 for column in columns])
        added += int(keep[loaded:].sum())
        order = [i for i in sorted(range(len(keep)), key=side.keys.__getitem__) if keep[i]]
        place = np.full(len(keep), -1, dtype=np.int64)
        place[order] = np.arange(len(order))
        at, named, ranks, cells = map(_joined, side.links)
        at = place[at]
        shown = at >= 0
        columns = [column[order] for column in columns]
        write_elements(
            graph, graph.add_edges_bulk if edge else graph.add_nodes_bulk,
            [side.types[i] for i in order], columns[0], tuple(columns[1:]),
            reduce_links(at[shown], named[shown], ranks[shown], cells[shown],
                         len(maps.attribute_names) or 1),
            maps.attribute_names,
        )
        node_at = code_map(eq[columns[0]], columns[0])
    return added, dropped


def _eq_members(value: Any) -> Tuple[Any, ...]:
    """``value`` and a value ``==`` to it under another exact code:
    ``True`` for ``1`` / ``1.0``, ``0`` for ``False``."""
    if isinstance(value, (bool, int, float)) and value in (0, 1):
        return value, int(value) if value.__class__ is bool else bool(value)
    return (value,)


class _ElementFlush:
    """An instance one element at a time: the record an element has
    (:func:`node_record` / :func:`edge_record` form), made by
    :func:`_derive`'s rules from the registry's element of its id
    (``loaded``; a graph looks an id up by its exact code, so by each
    ``==`` member) and Sigma's head facts for it (``facts``) — index
    probes, nothing written.  An edge end is a node when a node record
    ``==`` it is there.  Records are made on demand, once an id (``==``:
    one eq code); ``dropped`` counts the edge ends that are no node on
    the way.  Over the registry ``data`` and Sigma's ``database`` it is
    the instance they hold, and answers the four reads a store makes of
    the instance a :class:`~repro.deploy.delta.FlushDelta` leads to
    (edges in :func:`write_instance`'s order)."""

    def __init__(self, maps: ColumnMaps, instance_oid: Any, data: PropertyGraph,
                 database: Database, loaded: Any = None, facts: Any = None,
                 shared: Any = None):
        self.maps, self.instance_oid, self.registry = maps, instance_oid, data
        self.database, self.shared = database, shared
        self.loaded = loaded or self._registry
        self.facts = facts or (
            lambda label, element_id: database.matching(label, 0, (element_id,)))
        self.made: Tuple[Dict[Any, Any], Dict[Any, Any]] = ({}, {})
        self.ids: Dict[Any, Any] = {}
        self.dropped = 0

    def before(self, removed: Sequence[List[Any]], delta: RegistryDelta, sigma: Any,
               touched: Sequence[Dict[Any, None]]) -> "_ElementFlush":
        """The instance before an update that turned its registry and
        Sigma's database into this one's: the delta's ``removed`` node
        and edge records put back and its added ids hidden, Sigma's head
        facts less what ``sigma`` (the update's
        :class:`~repro.vadalog.incremental.DeltaResult`) added plus what
        it removed.  An id outside ``touched`` (per kind) has one record
        in both instances, made here."""
        put_back = [
            {r[0]: SimpleNamespace(id=r[0], label=r[1], properties=r[2]) for r in removed[0]},
            {r[0]: SimpleNamespace(id=r[0], source=r[1], target=r[2], label=r[3],
                                   properties=r[4]) for r in removed[1]}]
        hidden = [{r[0] for r in records} for records in (delta.add_nodes, delta.add_edges)]
        lost: Dict[Tuple[str, Any], List[Any]] = {}
        for label, _edge, _names in self.maps.heads:
            for fact in sigma.removed.get(label, ()):
                lost.setdefault((label, fact[0]), []).append(fact)

        def loaded(edge: bool, element_id: Any) -> Any:
            held = put_back[edge].get(element_id)
            if held is None and element_id not in hidden[edge]:
                held = self.loaded(edge, element_id)
            return held

        def facts(label: str, element_id: Any) -> List[Any]:
            gained = sigma.added.get(label, ())
            return [fact for fact in self.facts(label, element_id)
                    if fact not in gained] + lost.get((label, element_id), [])

        return _ElementFlush(self.maps, self.instance_oid, self.registry, self.database,
                             loaded, facts, (self, touched))

    def _registry(self, edge: bool, element_id: Any) -> Any:
        has, get = (self.registry.has_edge, self.registry.edge) if edge else (
            self.registry.has_node, self.registry.node)
        for member in _eq_members(element_id):
            if has(member):
                return get(member)
        return None

    def record(self, edge: bool, element_id: Any) -> Optional[Tuple[Any, ...]]:
        """The element's record; None if it has none."""
        made = self.made[edge]
        held = made.get(element_id, made)
        if held is made:
            if self.shared is not None and element_id not in self.shared[1][edge]:
                return self.shared[0].record(edge, element_id)
            held = made[element_id] = self._record(edge, element_id)
        return held and held[1]

    def held(self, edge: bool, ids: Sequence[Any], before: "_ElementFlush") -> List[Any]:
        """``ids`` as this instance holds them, or else the one
        ``before`` it, in ``str`` order."""
        held: Dict[Any, None] = {}
        for element_id in ids:
            record = self.record(edge, element_id) or before.record(edge, element_id)
            held[element_id if record is None else record[0]] = None
        return sorted(held, key=str)

    def node_at(self, value: Any) -> Any:
        """The id of the node ``== value``, None if none, as its record
        has it — a registry node with a label wins, else the first head
        fact naming one — with no property read."""
        if self.shared is not None and value not in self.shared[1][False]:
            return self.shared[0].node_at(value)
        held = self.ids.get(value, self.ids)
        if held is self.ids:
            loaded, interner = self.loaded(False, value), self.database.interner
            held = self.ids[value] = interner.values[interner.encode(loaded.id)] if (
                loaded is not None and loaded.label is not None) else next((
                    fact[0] for label, edge, _names in self.maps.heads if not edge
                    for fact in self.facts(label, value)), None)
        return held

    def has_node(self, node_id: Any) -> bool:
        return self.record(False, node_id) is not None

    def node(self, node_id: Any) -> Any:
        element, label, properties = self.record(False, node_id)
        return SimpleNamespace(id=element, label=label, properties=properties)

    def out_edges(self, node_id: Any, label: Optional[str] = None) -> List[Any]:
        return self._incident(1, node_id, label)

    def in_edges(self, node_id: Any, label: Optional[str] = None) -> List[Any]:
        return self._incident(2, node_id, label)

    def _incident(self, position: int, node_id: Any, label: Optional[str]) -> List[Any]:
        """The edges with the node ``node_id`` at ``position`` (1: the
        source), of ``label`` if one is given: of the registry's edges
        at the node and those Sigma's edge heads name it in, those whose
        record says so."""
        node = self.node_at(node_id)
        adjacent = self.registry.out_edges if position == 1 else self.registry.in_edges
        ids = dict.fromkeys(edge.id for member in _eq_members(node_id) if node is not None
                            and self.registry.has_node(member) for edge in adjacent(member))
        for head, is_edge, _names in self.maps.heads if node is not None else ():
            if is_edge:
                ids.update(dict.fromkeys(
                    fact[0] for fact in self.database.matching(head, position, (node_id,))))
        found = []  # in instance order: a loaded edge's key is prefixed
        for edge_id in ids:
            record = self.record(True, edge_id)
            if record is not None and record[position] == node and label in (None, record[3]):
                prefix = f"{self.instance_oid}:i-edge:" if self.made[True][edge_id][0] else ""
                found.append((prefix + str(record[0]), record))
        return [SimpleNamespace(id=edge_id, source=source, target=target, label=kind,
                                properties=properties) for _key, (
                    edge_id, source, target, kind, properties) in sorted(found, key=itemgetter(0))]

    def _ends(self, values: Sequence[Any]) -> List[Any]:
        ends = [self.node_at(value) for value in values]
        self.dropped += ends.count(None)
        return ends

    def _record(self, edge: bool, element_id: Any) -> Optional[Tuple[bool, Tuple[Any, ...]]]:
        """Whether the registry's element gives the record (its order key
        in :func:`write_instance` is prefixed) and the record; None if
        the element has none."""
        maps, interner = self.maps, self.database.interner
        facts = [(index, fact) for index, (label, is_edge, _names) in enumerate(maps.heads)
                 if is_edge == edge for fact in self.facts(label, element_id)]
        loaded = self.loaded(edge, element_id)
        if loaded is not None and loaded.label is not None:
            ends = self._ends((loaded.source, loaded.target)) if edge else []
            if None in ends:  # an edge needs both ends in the instance
                loaded = None
        else:
            loaded = None
        if loaded is not None:  # a loaded element wins: label, ends, attributes
            held = loaded.properties
            element, label = interner.values[interner.encode(loaded.id)], loaded.label
            links = [(rank, name, interner.values[interner.encode(held[name])])
                     for rank, name in enumerate(maps.modeled(edge, label)) if name in held]
            if not facts:  # the registry's attributes alone, in rank order
                properties = {name: value for _rank, name, value in links}
                return True, (element, *ends, label, properties) if edge else (
                    element, label, properties)
        elif facts:  # derived only: the smallest head label names it
            index, first = facts[0]
            element, label, links = first[0], maps.heads[index][0], []
            ends = self._derived_ends(facts) if edge else []
            if None in ends:
                return None
        else:
            return None
        for index, rows in groupby(facts, key=itemgetter(0)):
            head, _edge, names = maps.heads[index]
            columns = list(zip(*(fact for _, fact in rows)))[3 if edge else 1:]
            for name, column in zip(names, columns):
                shown = [value for value in column if value is not None]
                if name is not None and shown:  # of several values the smallest
                    links.append((1 << 20 | maps.head_ranks[head, name], name,
                                  min(shown, key=value_sort_key)))
        properties: Dict[str, Any] = {}
        for _rank, name, value in sorted(links, key=itemgetter(0)):
            properties[name] = value  # placed by its first link, valued by its last
        return loaded is not None, (
            (element, *ends, label, properties) if edge else (element, label, properties))

    def _derived_ends(self, facts: List[Tuple[int, Tuple[Any, ...]]]) -> List[Any]:
        """A derived-only edge's ends: its one fact's, or per end the
        largest head label's smallest end that is a node."""
        if len(facts) == 1:
            return self._ends(facts[0][1][1:3])
        ends = [None, None]
        for position in (1, 2):
            for _index, rows in groupby(facts, key=itemgetter(0)):
                ranked = sorted((fact[position] for _, fact in rows), key=value_sort_key)
                hits = [self.node_at(value) for value in ranked]
                kept = next((k for k, hit in enumerate(hits) if hit is not None), len(hits))
                self.dropped += kept
                if kept < len(hits):
                    ends[position - 1] = hits[kept]
        return ends


class IntensionalMaterializer:
    """Runs Algorithm 2 over a super-schema instance."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        tracer: Optional[Tracer] = None,
    ):
        # A caller-supplied engine keeps its own tracer; an implicit one
        # joins the materializer's trace so engine spans nest under the
        # phase spans.
        self.tracer = tracer or NullTracer()
        self.engine = engine or Engine(tracer=tracer)
        self._compile_cache: Dict[Tuple[str, int, Any], ColumnMaps] = {}
        self._retained: Optional[RetainedMaterialization] = None

    @property
    def retained(self) -> Optional[RetainedMaterialization]:
        """The state kept by the last ``materialize(..., retain=True)``."""
        return self._retained

    def _column_maps(
        self, schema: SuperSchema, sigma: MetaProgram, instance_oid: Any
    ) -> ColumnMaps:
        """MTV compilation + the views' column maps, memoized.

        The key uses the program's text and the schema's object identity:
        re-parsing either yields a fresh object and a clean miss, while
        repeated calls with the same objects (the update loop, benchmark
        reruns) hit.  A mutated-in-place schema under the same identity
        is the caller's responsibility, as everywhere else in the SSST.
        """
        key = (str(sigma), id(schema), instance_oid)
        entry = self._compile_cache.get(key)
        if entry is not None and entry.schema is schema:
            return entry
        schema.ensure_attribute_oids()
        catalog = catalog_from_super_schema(schema)
        entry = ColumnMaps.compile(schema, compile_metalog(sigma, catalog), catalog)
        while len(self._compile_cache) >= _COMPILE_CACHE_LIMIT:
            self._compile_cache.pop(next(iter(self._compile_cache)))
        self._compile_cache[key] = entry
        return entry

    @_deferred_full_gc()
    def materialize(
        self,
        schema: SuperSchema,
        data: PropertyGraph,
        sigma: MetaProgram,
        instance_oid: Any = 1,
        checkpoint=None,
        retain: bool = False,
    ) -> MaterializationReport:
        """Materialize the intensional component ``sigma`` over ``data``.

        ``data`` is a plain typed property graph conforming to
        ``schema`` (node labels are type names).  The result's
        ``instance`` holds the enriched plain graph, including the
        derived nodes and edges, over the registry's value dictionary.
        A node or edge whose label is not a type of ``schema`` raises
        :class:`~repro.errors.SchemaError` as the registry is read.

        ``checkpoint`` (a
        :class:`~repro.ssst.checkpoint.MaterializationCheckpoint`)
        persists what the flush reads of Sigma's result once it reaches
        fixpoint; passing the same checkpoint again resumes from it
        instead of reasoning again.  A checkpoint written for different
        inputs is discarded, not resumed.

        ``retain=True`` keeps Sigma's chase state alive so later
        registry changes can be applied with :meth:`update` instead of
        re-running from scratch.  Without it, Sigma's database keeps
        only what the flush reads once the chase ends: the head
        relations, without their indexes.
        """
        report = MaterializationReport(instance=None)  # filled below
        tracer = self.tracer

        if retain and checkpoint is not None:
            raise EvaluationError(
                "retain=True cannot be checkpointed: a resumed run has "
                "no chase state to maintain — pass one of the two"
            )
        resumed = False
        if checkpoint is not None:
            from repro.ssst.checkpoint import run_fingerprint

            checkpoint.begin(run_fingerprint(schema, data, sigma, instance_oid))
            resumed = checkpoint.has_snapshot()
        # The enriched graph, Sigma's database and the registry share
        # one value dictionary: the registry's, when it has one.
        graph = ColumnarPropertyGraph(
            f"{data.name}+derived", interner=getattr(data, "interner", None)
        )

        # ---------------- Phase 1: LOAD (lines 1-6) ----------------
        with tracer.span("materialize.load") as load_span:
            # Lines 3, 5-7: MTV compilation and the views' column maps,
            # memoized per (program text, schema, instance OID).
            maps = self._column_maps(schema, sigma, instance_oid)
            compiled = maps.compiled
            registry = [registry_rows(maps, data, graph, edge) for edge in (False, True)]
            if resumed:
                database, report.derived_counts = checkpoint.load(graph.interner)
                report.resumed_from = "reason"
                load_span.set(resumed=True, phase="reason")
            else:
                database = Database(interner=graph.interner)
                load_inputs(maps, registry, database)
        report.load_seconds = load_span.duration

        # ---------------- Phase 2: REASON (lines 7-8) ----------------
        with tracer.span("materialize.reason") as reason_span:
            if resumed:
                reason_span.set(resumed=True)
                tracer.count("deploy.replay_skipped", 1)
            else:
                derived = sorted(compiled.derived_node_labels | compiled.derived_edge_labels)
                before = {label: database.count(label) for label in derived}
                result = self.engine.run(
                    compiled.program, database=database,
                    retain_state=retain, copy_database=False,
                )
                database = result.database
                report.reason_stats = result.stats
                if result.status != STATUS_FIXPOINT:
                    report.status, report.violation = result.status, result.violation
                report.derived_counts = {
                    label: database.count(label) - before[label] for label in derived
                }
                reason_span.set(status=result.status, facts_derived=result.stats.facts_derived)
                if checkpoint is not None and not report.truncated:
                    checkpoint.save(database, maps.head_labels, report.derived_counts)
            if not retain:
                # A retained run's relations are the extension; here the
                # flush reads the heads' code columns and nothing else.
                database.release(maps.head_labels)
        report.reason_seconds = reason_span.duration

        # ---------------- Phase 3: FLUSH (line 9) ----------------
        with tracer.span("materialize.flush") as flush_span:
            added, dropped = write_instance(maps, instance_oid, data, database, graph,
                                            registry=registry)
            report.instance = SuperInstance(schema, instance_oid, graph)
            report.flush_dropped_edges = dropped
            flush_span.set(added=added, dropped_edges=dropped)
        report.flush_seconds = flush_span.duration
        if retain:
            # A budget-tripped run discards its engine state; there is
            # nothing consistent to maintain, so retention is dropped.
            self._retained = None if report.truncated else RetainedMaterialization(
                schema=schema, instance_oid=instance_oid, data=data,
                result=result, maps=maps,
            )
        return report

    # ------------------------------------------------------------------
    # Incremental maintenance (delta-chase instead of re-running Alg. 2)
    # ------------------------------------------------------------------
    def update(self, delta: RegistryDelta) -> UpdateReport:
        """Apply a registry delta to a retained materialization.

        Requires a prior ``materialize(..., retain=True)``.  The delta
        becomes the facts of Sigma's input relations it adds and
        removes, and one :meth:`~repro.vadalog.engine.Engine.apply_delta`
        call maintains Sigma's state; the registry graph is mutated in
        place.  The flush costs what the change reaches, nothing more:
        the elements of the delta, the ids of Sigma's net head-fact
        changes and the derived edges naming a reached node each get
        their record, one element at a time, from the registry and their
        own head facts (:class:`_ElementFlush`, nothing written), once
        in the instance after the update and once in the one before it
        (the delta's removed records and Sigma's removed head facts put
        back, what it added hidden); set against each other they give
        the :class:`~repro.deploy.delta.FlushDelta` (for bringing
        deployed stores up to date without a reload).  No instance graph
        is kept or patched: the report's ``instance`` is the new
        instance's records, and ``retained.instance()`` writes the whole
        graph.  Once Sigma's database holds more tombstoned rows than
        live ones it is compacted.

        The result is fact-set-identical (up to labeled-null renaming)
        to re-running :meth:`materialize` from scratch on the mutated
        registry — the differential tests pin this down; strata the
        safety analysis cannot maintain incrementally are recomputed
        from their boundary, never approximated.

        A delta the registry rejects raises
        :class:`~repro.errors.SchemaError` with nothing changed.  An
        error after that point (a governor trip in the chase, say)
        leaves the registry and the chase state half-updated, so the
        retained materialization is dropped and the error re-raised:
        the next ``update()`` asks for a fresh ``materialize()`` instead
        of silently diverging from one.
        """
        retained = self._retained
        if retained is None:
            raise EvaluationError("update() needs a prior materialize(..., retain=True)")
        start = perf_counter()
        with self.tracer.span(
            "materialize.update",
            added=len(delta.add_nodes) + len(delta.add_edges),
            removed=len(delta.remove_nodes) + len(delta.remove_edges),
        ) as span:
            data, maps = retained.data, retained.maps
            removed_nodes, removed_edges = self._resolve_removals(data, delta)
            self._validate_additions(
                data,
                delta,
                {r[0] for r in removed_nodes},
                {r[0] for r in removed_edges},
            )
            # Sigma's input facts on both sides, V_I's view of them (a
            # type the schema lacks is rejected before anything changes).
            removed = maps.facts(removed_nodes, removed_edges)
            added = maps.facts(delta.add_nodes, delta.add_edges)
            database = retained.result.database
            try:
                FlushDelta(
                    added_nodes=delta.add_nodes, added_edges=delta.add_edges,
                    removed_nodes=removed_nodes, removed_edges=removed_edges,
                ).apply_to(data)
                sigma = self.engine.apply_delta(
                    retained.result, added=added, removed=removed
                )
                # What the change reaches: the delta's elements, those
                # of changed head facts and derived edges naming a
                # reached node, each made in the instance after the
                # update and in the one before it.
                touched: List[Dict[Any, None]] = [
                    dict.fromkeys(r[0] for r in (*removed_nodes, *delta.add_nodes)),
                    dict.fromkeys(r[0] for r in (*removed_edges, *delta.add_edges)),
                ]
                flushed = 0
                for label, edge, _columns in maps.heads:
                    for changes in (sigma.added, sigma.removed):
                        touched[edge].update(dict.fromkeys(f[0] for f in changes.get(label, ())))
                        flushed += len(changes.get(label, ()))
                nodes = list(touched[0])
                for label, edge, _columns in maps.heads:
                    for position in (1, 2) if edge and nodes else ():
                        touched[1].update(dict.fromkeys(
                            f[0] for f in database.matching(label, position, nodes)
                        ))
                new = _ElementFlush(maps, retained.instance_oid, data, database)
                old = new.before((removed_nodes, removed_edges), delta, sigma, touched)
                # A node that comes, goes or is re-typed takes the
                # registry's edges at it along (Sigma's are reached).
                node_ids = new.held(False, nodes, old)
                for node_id in node_ids:
                    before, after = old.record(False, node_id), new.record(False, node_id)
                    if (before and before[1]) != (after and after[1]):
                        touched[1].update(dict.fromkeys(
                            edge.id for member in _eq_members(node_id) if data.has_node(member)
                            for edge in (*data.out_edges(member), *data.in_edges(member))))
                flush_delta = FlushDelta.between(
                    node_ids, new.held(True, touched[1], old),
                    partial(old.record, False), partial(old.record, True),
                    partial(new.record, False), partial(new.record, True),
                )
                dropped = new.dropped
            except BaseException:
                self._retained = None
                raise
            if database.dead_rows() > database.total_facts():
                database.compact()  # a safe point: no index iteration alive
            self.tracer.count("incr.flushed_delta", flushed)
            retained.updates_applied += 1
            span.set(flushed=flushed, dropped_edges=dropped,
                     strata_recomputed=sigma.strata_recomputed)
        return UpdateReport(
            instance=new,
            delta_reason=sigma,
            flush_delta=flush_delta,
            flushed=flushed,
            flush_dropped_edges=dropped,
            engine_seconds=sigma.elapsed_seconds,
            update_seconds=perf_counter() - start,
        )

    @staticmethod
    def _resolve_removals(
        data: PropertyGraph, delta: RegistryDelta
    ) -> "Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]":
        """Full records of every element the delta removes.

        Removing a node implies removing its incident edges (the
        registry cannot hold dangling stakes), so those are folded in.
        Records capture the *current* labels and properties — the same
        values the load phase read — before anything is mutated.
        """
        edge_ids = dict.fromkeys(delta.remove_edges)
        for edge_id in edge_ids:
            if not data.has_edge(edge_id):
                raise SchemaError(f"cannot remove unknown edge {edge_id!r}")
        node_ids = dict.fromkeys(delta.remove_nodes)
        for node_id in node_ids:
            if not data.has_node(node_id):
                raise SchemaError(f"cannot remove unknown node {node_id!r}")
            edge_ids.update(dict.fromkeys(
                edge.id
                for edge in (*data.out_edges(node_id), *data.in_edges(node_id))
            ))
        return (
            [node_record(data, node_id) for node_id in node_ids],
            [edge_record(data, edge_id) for edge_id in edge_ids],
        )

    @staticmethod
    def _validate_additions(
        data: PropertyGraph,
        delta: RegistryDelta,
        removed_node_ids: set,
        removed_edge_ids: set,
    ) -> None:
        added: Dict[str, set] = {"node": set(), "edge": set()}
        for kind, records, exists, removed in (
            ("node", delta.add_nodes, data.has_node, removed_node_ids),
            ("edge", delta.add_edges, data.has_edge, removed_edge_ids),
        ):
            for new_id, *_rest in records:
                if new_id in added[kind]:
                    raise SchemaError(
                        f"{kind} {new_id!r} is added twice in one delta"
                    )
                added[kind].add(new_id)
                if exists(new_id) and new_id not in removed:
                    raise SchemaError(
                        f"cannot add {kind} {new_id!r}: it already exists "
                        "(remove it in the same delta to replace it)"
                    )
        for edge_id, source, target, _type_name, _properties in delta.add_edges:
            for endpoint in (source, target):
                if endpoint not in added["node"] and (
                    endpoint in removed_node_ids or not data.has_node(endpoint)
                ):
                    raise SchemaError(
                        f"edge {edge_id!r} references missing node "
                        f"{endpoint!r}"
                    )
