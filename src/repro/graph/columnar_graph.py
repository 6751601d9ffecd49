"""Columnar backing store for the property graph.

The object-backed :class:`~repro.graph.property_graph.PropertyGraph`
spends ~0.5 KB of Python object headers per element (a frozen ``Node``
or ``Edge`` dataclass, its properties dict, two adjacency list slots,
dict entries in the OID index and label bucket).  At registry scale the
dictionary graph is the memory wall: ROADMAP puts the 500k+-company
graph at GBs of per-object overhead even though the *data* is a few
dozen megabytes of interned strings and floats.

:class:`ColumnarPropertyGraph` keeps the same API but stores the graph
as columns, reusing the dictionary-encoding machinery of
:mod:`repro.vadalog.columnar`:

* one :class:`~repro.vadalog.columnar.ValueInterner` per graph maps
  every property value to a small integer code (append-only, so codes
  stay valid across copies and snapshots);
* nodes and edges get dense integer ids (``nid``/``eid``) in insertion
  order; OID, label code, liveness, and the incidence endpoints are
  parallel arrays indexed by them;
* per-label *property matrices*: one :class:`_Table` per label holding
  the member ids plus one ``array('i')`` code column per property name,
  with ``-1`` encoding "property absent on this element" (the bulk
  accessors' :data:`~repro.graph.property_graph.ABSENT`) and codes
  ``<= -2`` boxing the rare unhashable value the interner cannot key;
* adjacency is CSR-in-spirit but incrementally maintainable: per-node
  head/tail cursors into per-edge next/prev links — four ints per node
  and four per edge buy O(1) insert *and* O(1) unlink while iterating
  ``out_edges``/``in_edges`` in exactly the object backend's insertion
  order.

The API yields lazy :class:`NodeView`/:class:`EdgeView` objects whose
``.properties`` is a write-through dict (:class:`_PropsDict`): callers
that mutate ``node.properties`` in place (MTV updates, the deploy graph
store) hit the columns underneath, so algorithms, statistics, the
materializer, and the deploy backends run unchanged.  The object
implementation stays selectable as the differential oracle, mirroring
``Engine(columnar=False)``; ``tests/test_columnar_graph.py`` holds the
battery proving both backends bit-identical through the full pipeline.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DeploymentError, GraphError
from repro.graph.property_graph import ABSENT, first_repeat
from repro.vadalog.columnar import ValueInterner

__all__ = ["ColumnarPropertyGraph", "NodeView", "EdgeView"]

#: Typecode of every structural column (labels, rows, endpoints,
#: adjacency links, property codes): C ``int``, 4 bytes — half of
#: ``'q'``.  Interner codes and dense ids stay far below 2**31 (two
#: billion distinct values would exhaust memory long before the codes
#: overflow); if that ever changes, ``array('i')`` raises
#: ``OverflowError`` instead of silently wrapping.
_IDX = "i"
_IDX_BYTES = array(_IDX).itemsize
assert _IDX_BYTES == 4

#: Code for "property absent on this element" in table columns.
_ABSENT_CODE = -1

#: Label code for unlabeled elements (they still need a property table).
_NO_LABEL = -1


class _Table:
    """Property matrix of one label: member ids + one code column per name.

    ``rows`` holds nids (or eids) in insertion order — within one label
    that is exactly the object backend's label-bucket order.  Columns
    are aligned with ``rows`` and backfilled with :data:`_ABSENT_CODE`
    when a name first appears after rows already exist.
    """

    __slots__ = ("rows", "names", "name_index", "cols")

    def __init__(self) -> None:
        self.rows: List[int] = []
        self.names: List[str] = []
        self.name_index: Dict[str, int] = {}
        self.cols: List[array] = []

    def col(self, name: str) -> array:
        """Column for ``name``, created (and backfilled) on first use."""
        index = self.name_index.get(name)
        if index is None:
            index = len(self.names)
            self.name_index[name] = index
            self.names.append(name)
            column = array(_IDX, [_ABSENT_CODE]) * len(self.rows)
            self.cols.append(column)
            return column
        return self.cols[index]

    def append_row(self, element: int) -> int:
        row = len(self.rows)
        self.rows.append(element)
        for column in self.cols:
            column.append(_ABSENT_CODE)
        return row

    def pop_row(self, element: int) -> None:
        """Drop the last row (rollback path; rows append in id order)."""
        assert self.rows and self.rows[-1] == element
        self.rows.pop()
        for column in self.cols:
            column.pop()

    def copy(self) -> "_Table":
        clone = _Table()
        clone.rows = list(self.rows)
        clone.names = list(self.names)
        clone.name_index = dict(self.name_index)
        clone.cols = [array(_IDX, column) for column in self.cols]
        return clone


class _OidIndex:
    """OID -> dense-id map backed by the interner plus sorted code arrays.

    A plain ``dict`` costs ~90 bytes per entry (hash, key pointer, boxed
    id) — at registry scale the two OID indexes were the largest
    columnar-graph allocation.  OIDs are already interned, and a graph
    assigns at most one live dense id per OID, so the map reduces to a
    pair of parallel ``array('i')`` buffers (interner code sorted
    ascending, dense id) probed with ``bisect``, ~8 bytes per entry.
    Recent inserts live in a small dict overlay that is merged into the
    sorted arrays geometrically — the same amortization as
    :class:`~repro.vadalog.columnar.ColumnarRelation`'s row table.

    Deleting tombstones the id slot (``-1``); re-adding the same OID
    reuses its code, landing back in the overlay or the tombstoned
    slot.  Lookup semantics follow the interner's exact codes, which
    match dict hashing for every OID family the oracle battery covers
    (``1``/``1.0`` share a slot either way); interning keys through the
    shared dictionary means an OID string stored by the graph and
    referenced by a relation is indexed once, not twice.
    """

    __slots__ = ("_interner", "_codes", "_ids", "_overlay", "_size", "_dead")

    def __init__(self, interner: ValueInterner) -> None:
        self._interner = interner
        self._codes = array(_IDX)  # interner codes, sorted ascending
        self._ids = array(_IDX)  # parallel dense ids; -1 = deleted
        self._overlay: Dict[int, int] = {}  # code -> id since last merge
        self._size = 0
        self._dead = 0  # tombstoned slots of the sorted arrays

    def _slot(self, code: int) -> int:
        codes = self._codes
        pos = bisect_left(codes, code)
        if pos < len(codes) and codes[pos] == code:
            return pos
        return -1

    def get(self, oid: Any, default: Optional[int] = None) -> Optional[int]:
        code = self._interner.probe(oid)
        if code is None:
            return default
        dense = self._overlay.get(code)
        if dense is not None:
            return dense
        pos = self._slot(code)
        if pos >= 0:
            dense = self._ids[pos]
            if dense >= 0:
                return dense
        return default

    def __contains__(self, oid: Any) -> bool:
        return self.get(oid) is not None

    def __getitem__(self, oid: Any) -> int:
        dense = self.get(oid)
        if dense is None:
            raise KeyError(oid)
        return dense

    def __setitem__(self, oid: Any, dense: int) -> None:
        code = self._interner.encode(oid)
        overlay = self._overlay
        if code in overlay:
            overlay[code] = dense
            return
        pos = self._slot(code)
        if pos >= 0:
            if self._ids[pos] < 0:
                self._size += 1
                self._dead -= 1
            self._ids[pos] = dense
            return
        overlay[code] = dense
        self._size += 1
        self._maybe_merge()

    def _maybe_merge(self) -> None:
        overlay = self._overlay
        if len(overlay) >= 1024 and 3 * len(overlay) >= len(self._codes):
            self._merge()

    def extend(self, oids: List[Any], base: int) -> None:
        """Index ``oids`` as the dense ids from ``base`` on.  None of
        them may be indexed already (the bulk adders check first)."""
        if self._dead:  # a re-added OID takes its tombstoned slot back
            for offset, oid in enumerate(oids):
                self[oid] = base + offset
            return
        # No tombstones: an OID that is not indexed has no slot in the
        # sorted arrays either, so the whole batch is overlay entries.
        codes = self._interner.encode_column(oids)
        self._overlay.update(zip(codes, range(base, base + len(codes))))
        self._size += len(codes)
        self._maybe_merge()

    def __delitem__(self, oid: Any) -> None:
        code = self._interner.probe(oid)
        if code is not None:
            if code in self._overlay:
                del self._overlay[code]
                self._size -= 1
                return
            pos = self._slot(code)
            if pos >= 0 and self._ids[pos] >= 0:
                self._ids[pos] = -1
                self._size -= 1
                self._dead += 1
                return
        raise KeyError(oid)

    def pop(self, oid: Any, default: Optional[int] = None) -> Optional[int]:
        dense = self.get(oid)
        if dense is not None:
            del self[oid]
            return dense
        return default

    def __len__(self) -> int:
        return self._size

    def intersection(self, oids: Iterable[Any]) -> set:
        """The subset of ``oids`` present in the index (deduplicated)."""
        oids = list(oids)
        codes = self._interner.probe_column(oids)
        if codes.count(None) == len(codes):
            return set()  # none was ever interned, let alone indexed
        return {
            oid for oid, code in zip(oids, codes)
            if code is not None and oid in self
        }

    def copy(self) -> "_OidIndex":
        clone = _OidIndex(self._interner)
        clone._codes = array(_IDX, self._codes)
        clone._ids = array(_IDX, self._ids)
        clone._overlay = dict(self._overlay)
        clone._size = self._size
        clone._dead = self._dead
        return clone

    def _merge(self) -> None:
        """Fold the overlay into the sorted arrays; drop tombstones.

        Overlay codes are never present in the sorted arrays (inserts
        probe the table first), so this is a duplicate-free two-pointer
        merge, O(table + overlay).
        """
        pairs = sorted(self._overlay.items())
        old_codes = self._codes
        old_ids = self._ids
        merged_codes = array(_IDX)
        merged_ids = array(_IDX)
        pos = 0
        total = len(old_codes)
        for code, dense in pairs:
            while pos < total and old_codes[pos] < code:
                if old_ids[pos] >= 0:
                    merged_codes.append(old_codes[pos])
                    merged_ids.append(old_ids[pos])
                pos += 1
            merged_codes.append(code)
            merged_ids.append(dense)
        while pos < total:
            if old_ids[pos] >= 0:
                merged_codes.append(old_codes[pos])
                merged_ids.append(old_ids[pos])
            pos += 1
        self._codes = merged_codes
        self._ids = merged_ids
        self._overlay = {}
        self._dead = 0


class _PropsDict(dict):
    """A node/edge properties dict that writes through to the columns.

    Materialized lazily from the element's table row; every mutator
    updates both the dict (so reads and ``==`` keep plain-dict
    semantics) and the backing column, so ``node.properties[k] = v``
    behaves exactly as it does on the object backend, where the dict
    *is* the storage.
    """

    __slots__ = ("_graph", "_table", "_row")

    def __init__(self, graph: "ColumnarPropertyGraph", table: _Table,
                 row: int, contents: Dict[str, Any]):
        super().__init__(contents)
        self._graph = graph
        self._table = table
        self._row = row

    def __setitem__(self, name: str, value: Any) -> None:
        self._table.col(name)[self._row] = self._graph._encode(value)
        super().__setitem__(name, value)

    def __delitem__(self, name: str) -> None:
        super().__delitem__(name)  # raises KeyError before touching columns
        self._table.col(name)[self._row] = _ABSENT_CODE

    def pop(self, name, *default):
        if name in self:
            value = super().pop(name)
            self._table.col(name)[self._row] = _ABSENT_CODE
            return value
        if default:
            return default[0]
        raise KeyError(name)

    def popitem(self):
        name, value = super().popitem()
        self._table.col(name)[self._row] = _ABSENT_CODE
        return name, value

    def clear(self) -> None:
        row = self._row
        for name in self:
            self._table.col(name)[row] = _ABSENT_CODE
        super().clear()

    def update(self, *args, **kwargs) -> None:
        merged = dict(*args, **kwargs)
        encode = self._graph._encode
        row = self._row
        for name, value in merged.items():
            self._table.col(name)[row] = encode(value)
        super().update(merged)

    def setdefault(self, name, default=None):
        if name in self:
            return self[name]
        self[name] = default
        return default


class NodeView:
    """Lazy node facade over the columns; API-compatible with ``Node``.

    Equality and hashing follow the frozen dataclass convention of the
    object backend: identity is ``(id, label)``, properties excluded.
    """

    __slots__ = ("_graph", "_nid", "_props")

    def __init__(self, graph: "ColumnarPropertyGraph", nid: int):
        self._graph = graph
        self._nid = nid
        self._props: Optional[_PropsDict] = None

    @property
    def id(self) -> Any:
        return self._graph._node_oids[self._nid]

    @property
    def label(self) -> Optional[str]:
        code = self._graph._node_label[self._nid]
        return None if code == _NO_LABEL else self._graph._labels[code]

    @property
    def properties(self) -> Dict[str, Any]:
        props = self._props
        if props is None:
            props = self._props = self._graph._node_props(self._nid)
        return props

    def get(self, name: str, default: Any = None) -> Any:
        return self.properties.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.properties[name]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, NodeView):
            return self.id == other.id and self.label == other.label
        if hasattr(other, "id") and hasattr(other, "label"):
            return self.id == other.id and self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.label))

    def __repr__(self) -> str:
        return f"NodeView(id={self.id!r}, label={self.label!r})"


class EdgeView:
    """Lazy edge facade over the columns; API-compatible with ``Edge``."""

    __slots__ = ("_graph", "_eid", "_props")

    def __init__(self, graph: "ColumnarPropertyGraph", eid: int):
        self._graph = graph
        self._eid = eid
        self._props: Optional[_PropsDict] = None

    @property
    def id(self) -> Any:
        return self._graph._edge_oids[self._eid]

    @property
    def source(self) -> Any:
        return self._graph._node_oids[self._graph._edge_src[self._eid]]

    @property
    def target(self) -> Any:
        return self._graph._node_oids[self._graph._edge_dst[self._eid]]

    @property
    def label(self) -> Optional[str]:
        code = self._graph._edge_label[self._eid]
        return None if code == _NO_LABEL else self._graph._labels[code]

    @property
    def properties(self) -> Dict[str, Any]:
        props = self._props
        if props is None:
            props = self._props = self._graph._edge_props(self._eid)
        return props

    def get(self, name: str, default: Any = None) -> Any:
        return self.properties.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.properties[name]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, EdgeView):
            return self.id == other.id and self.label == other.label
        if hasattr(other, "id") and hasattr(other, "label"):
            return self.id == other.id and self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.label))

    def __repr__(self) -> str:
        return (
            f"EdgeView(id={self.id!r}, {self.source!r}->{self.target!r}, "
            f"label={self.label!r})"
        )


class ColumnarPropertyGraph:
    """Column-backed mutable property graph, API-parallel to
    :class:`~repro.graph.property_graph.PropertyGraph`."""

    def __init__(self, name: str = "graph",
                 interner: Optional[ValueInterner] = None):
        self.name = name
        self._interner = interner if interner is not None else ValueInterner()
        self._boxed: List[Any] = []  # unhashable values; code = -2 - index
        # Label dictionary (shared by nodes and edges).
        self._labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        # Node store.
        self._node_oids: List[Any] = []
        self._node_index = _OidIndex(self._interner)
        self._node_label = array(_IDX)
        self._node_live = bytearray()
        self._node_dead = 0
        self._node_row = array(_IDX)
        self._node_tables: Dict[int, _Table] = {}
        self._node_label_count: Dict[int, int] = {}
        # Edge store (incidence function mu as two nid columns).
        self._edge_oids: List[Any] = []
        self._edge_index = _OidIndex(self._interner)
        self._edge_label = array(_IDX)
        self._edge_live = bytearray()
        self._edge_dead = 0
        self._edge_row = array(_IDX)
        self._edge_src = array(_IDX)
        self._edge_dst = array(_IDX)
        self._edge_tables: Dict[int, _Table] = {}
        self._edge_label_count: Dict[int, int] = {}
        # Adjacency: per-node head/tail into per-edge next/prev chains.
        self._out_head = array(_IDX)
        self._out_tail = array(_IDX)
        self._out_deg = array(_IDX)
        self._in_head = array(_IDX)
        self._in_tail = array(_IDX)
        self._in_deg = array(_IDX)
        self._out_next = array(_IDX)
        self._out_prev = array(_IDX)
        self._in_next = array(_IDX)
        self._in_prev = array(_IDX)
        self._auto_id = 1
        self._mutation_epoch = 0

    # ------------------------------------------------------------------
    # Value and label encoding
    # ------------------------------------------------------------------
    @property
    def interner(self) -> ValueInterner:
        """The graph's value dictionary.  Append-only, so it is safe to
        share with an extraction :class:`~repro.vadalog.database.Database`
        (values present on either side are then stored once)."""
        return self._interner

    def _encode(self, value: Any) -> int:
        try:
            return self._interner.encode(value)
        except TypeError:  # unhashable value: box it, no dedup
            self._boxed.append(value)
            return -2 - (len(self._boxed) - 1)

    def _decode(self, code: int) -> Any:
        if code >= 0:
            return self._interner.values[code]
        return self._boxed[-2 - code]

    def _label_code(self, label: Optional[str]) -> int:
        if label is None:
            return _NO_LABEL
        code = self._label_index.get(label)
        if code is None:
            code = len(self._labels)
            self._label_index[label] = code
            self._labels.append(label)
        return code

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: Any = None,
        label: Optional[str] = None,
        **properties: Any,
    ) -> NodeView:
        """Add a node and return its view (same contract as the oracle)."""
        if node_id is None:
            node_id = self._fresh_id("n")
        if node_id in self._node_index:
            raise GraphError(f"node {node_id!r} already exists in {self.name!r}")
        nid = self._append_node(node_id, self._label_code(label), properties)
        return NodeView(self, nid)

    def _append_node(self, node_id: Any, label_code: int,
                     properties: Dict[str, Any]) -> int:
        nid = len(self._node_oids)
        self._node_oids.append(node_id)
        self._node_index[node_id] = nid
        self._node_label.append(label_code)
        self._node_live.append(1)
        self._out_head.append(-1)
        self._out_tail.append(-1)
        self._out_deg.append(0)
        self._in_head.append(-1)
        self._in_tail.append(-1)
        self._in_deg.append(0)
        table = self._node_tables.get(label_code)
        if table is None:
            table = self._node_tables[label_code] = _Table()
        row = table.append_row(nid)
        self._node_row.append(row)
        self._node_label_count[label_code] = (
            self._node_label_count.get(label_code, 0) + 1
        )
        if properties:
            encode = self._encode
            for prop_name, value in properties.items():
                table.col(prop_name)[row] = encode(value)
        return nid

    def add_edge(
        self,
        source: Any,
        target: Any,
        label: Optional[str] = None,
        edge_id: Any = None,
        **properties: Any,
    ) -> EdgeView:
        """Add a directed edge ``source -> target`` and return its view."""
        src = self._node_index.get(source)
        if src is None:
            raise GraphError(f"unknown source node {source!r} in {self.name!r}")
        dst = self._node_index.get(target)
        if dst is None:
            raise GraphError(f"unknown target node {target!r} in {self.name!r}")
        if edge_id is None:
            edge_id = self._fresh_id("e")
        if edge_id in self._edge_index:
            raise GraphError(f"edge {edge_id!r} already exists in {self.name!r}")
        eid = self._append_edge(edge_id, src, dst, self._label_code(label),
                                properties)
        return EdgeView(self, eid)

    def _append_edge(self, edge_id: Any, src: int, dst: int,
                     label_code: int, properties: Dict[str, Any]) -> int:
        eid = len(self._edge_oids)
        self._edge_oids.append(edge_id)
        self._edge_index[edge_id] = eid
        self._edge_label.append(label_code)
        self._edge_live.append(1)
        self._edge_src.append(src)
        self._edge_dst.append(dst)
        # Tail-append into both chains keeps insertion-order iteration.
        tail = self._out_tail[src]
        self._out_next.append(-1)
        self._out_prev.append(tail)
        if tail == -1:
            self._out_head[src] = eid
        else:
            self._out_next[tail] = eid
        self._out_tail[src] = eid
        self._out_deg[src] += 1
        tail = self._in_tail[dst]
        self._in_next.append(-1)
        self._in_prev.append(tail)
        if tail == -1:
            self._in_head[dst] = eid
        else:
            self._in_next[tail] = eid
        self._in_tail[dst] = eid
        self._in_deg[dst] += 1
        table = self._edge_tables.get(label_code)
        if table is None:
            table = self._edge_tables[label_code] = _Table()
        row = table.append_row(eid)
        self._edge_row.append(row)
        self._edge_label_count[label_code] = (
            self._edge_label_count.get(label_code, 0) + 1
        )
        if properties:
            encode = self._encode
            for prop_name, value in properties.items():
                table.col(prop_name)[row] = encode(value)
        return eid

    def _fresh_id(self, prefix: str) -> str:
        while True:
            candidate = f"{prefix}{self._auto_id}"
            self._auto_id += 1
            if (candidate not in self._node_index
                    and candidate not in self._edge_index):
                return candidate

    def fresh_edge_ids(self, count: int) -> List[str]:
        """The OIDs ``count`` :meth:`add_edge` calls without an
        ``edge_id`` would generate, for a bulk add."""
        first = self._auto_id
        candidates = [f"e{number}" for number in range(first, first + count)]
        if (self._node_index.intersection(candidates)
                or self._edge_index.intersection(candidates)):
            return [self._fresh_id("e") for _ in range(count)]
        self._auto_id += count
        return candidates

    # ------------------------------------------------------------------
    # Insertion marks (structural savepoints)
    # ------------------------------------------------------------------
    def insertion_mark(self) -> Tuple[int, int, int]:
        """Capture an allocation watermark; same contract as the oracle.

        The mark is only valid while every mutation since it is an
        insertion; the embedded epoch makes that checked, not trusted
        (deletions bump :attr:`_mutation_epoch`).  Rollback truncates
        the append-only arrays back to the watermark, so it is O(undone)
        like the oracle's popitem loop.
        """
        return (len(self._node_oids), len(self._edge_oids),
                self._mutation_epoch)

    def rollback_to_mark(self, mark: Tuple[int, int, int]) -> int:
        node_mark, edge_mark, epoch = mark
        if epoch != self._mutation_epoch:
            raise DeploymentError(
                f"stale insertion mark for graph {self.name!r}: "
                f"{self._mutation_epoch - epoch} deletion(s) interleaved "
                f"since the mark was taken; a structural rollback would "
                f"remove the wrong elements (use an undo-log transaction "
                f"when deletions can occur)"
            )
        undone = 0
        while len(self._edge_oids) > edge_mark:
            eid = len(self._edge_oids) - 1
            self._unlink_edge(eid)
            label_code = self._edge_label[eid]
            self._edge_tables[label_code].pop_row(eid)
            self._edge_label_count[label_code] -= 1
            del self._edge_index[self._edge_oids[eid]]
            self._edge_oids.pop()
            self._edge_label.pop()
            self._edge_live.pop()
            self._edge_row.pop()
            self._edge_src.pop()
            self._edge_dst.pop()
            self._out_next.pop()
            self._out_prev.pop()
            self._in_next.pop()
            self._in_prev.pop()
            undone += 1
        while len(self._node_oids) > node_mark:
            nid = len(self._node_oids) - 1
            label_code = self._node_label[nid]
            self._node_tables[label_code].pop_row(nid)
            self._node_label_count[label_code] -= 1
            del self._node_index[self._node_oids[nid]]
            self._node_oids.pop()
            self._node_label.pop()
            self._node_live.pop()
            self._node_row.pop()
            self._out_head.pop()
            self._out_tail.pop()
            self._out_deg.pop()
            self._in_head.pop()
            self._in_tail.pop()
            self._in_deg.pop()
            undone += 1
        return undone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_node_property(self, node_id: Any, name: str, value: Any) -> None:
        nid = self._require_node(node_id)
        table = self._node_tables[self._node_label[nid]]
        table.col(name)[self._node_row[nid]] = self._encode(value)

    def set_edge_property(self, edge_id: Any, name: str, value: Any) -> None:
        eid = self._require_edge(edge_id)
        table = self._edge_tables[self._edge_label[eid]]
        table.col(name)[self._edge_row[eid]] = self._encode(value)

    def _unlink_edge(self, eid: int) -> None:
        src, dst = self._edge_src[eid], self._edge_dst[eid]
        prev_eid, next_eid = self._out_prev[eid], self._out_next[eid]
        if prev_eid == -1:
            self._out_head[src] = next_eid
        else:
            self._out_next[prev_eid] = next_eid
        if next_eid == -1:
            self._out_tail[src] = prev_eid
        else:
            self._out_prev[next_eid] = prev_eid
        self._out_deg[src] -= 1
        prev_eid, next_eid = self._in_prev[eid], self._in_next[eid]
        if prev_eid == -1:
            self._in_head[dst] = next_eid
        else:
            self._in_next[prev_eid] = next_eid
        if next_eid == -1:
            self._in_tail[dst] = prev_eid
        else:
            self._in_prev[next_eid] = prev_eid
        self._in_deg[dst] -= 1

    def remove_edge(self, edge_id: Any) -> None:
        eid = self._edge_index.pop(edge_id, None)
        if eid is None:
            raise GraphError(f"unknown edge {edge_id!r} in {self.name!r}")
        self._mutation_epoch += 1
        self._unlink_edge(eid)
        self._edge_live[eid] = 0
        self._edge_dead += 1
        self._edge_label_count[self._edge_label[eid]] -= 1

    def remove_node(self, node_id: Any) -> None:
        nid = self._node_index.get(node_id)
        if nid is None:
            raise GraphError(f"unknown node {node_id!r} in {self.name!r}")
        incident = []
        eid = self._out_head[nid]
        while eid != -1:
            incident.append(eid)
            eid = self._out_next[eid]
        eid = self._in_head[nid]
        while eid != -1:
            incident.append(eid)
            eid = self._in_next[eid]
        edge_oids = self._edge_oids
        for eid in incident:
            if self._edge_live[eid]:
                self.remove_edge(edge_oids[eid])
        self._mutation_epoch += 1
        del self._node_index[node_id]
        self._node_live[nid] = 0
        self._node_dead += 1
        self._node_label_count[self._node_label[nid]] -= 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _require_node(self, node_id: Any) -> int:
        nid = self._node_index.get(node_id)
        if nid is None:
            raise GraphError(f"unknown node {node_id!r} in {self.name!r}")
        return nid

    def _require_edge(self, edge_id: Any) -> int:
        eid = self._edge_index.get(edge_id)
        if eid is None:
            raise GraphError(f"unknown edge {edge_id!r} in {self.name!r}")
        return eid

    def _node_props(self, nid: int) -> _PropsDict:
        table = self._node_tables[self._node_label[nid]]
        row = self._node_row[nid]
        decode = self._decode
        contents = {
            name: decode(column[row])
            for name, column in zip(table.names, table.cols)
            if column[row] != _ABSENT_CODE
        }
        return _PropsDict(self, table, row, contents)

    def _edge_props(self, eid: int) -> _PropsDict:
        table = self._edge_tables[self._edge_label[eid]]
        row = self._edge_row[eid]
        decode = self._decode
        contents = {
            name: decode(column[row])
            for name, column in zip(table.names, table.cols)
            if column[row] != _ABSENT_CODE
        }
        return _PropsDict(self, table, row, contents)

    def node(self, node_id: Any) -> NodeView:
        return NodeView(self, self._require_node(node_id))

    def edge(self, edge_id: Any) -> EdgeView:
        return EdgeView(self, self._require_edge(edge_id))

    def has_node(self, node_id: Any) -> bool:
        return node_id in self._node_index

    def has_edge(self, edge_id: Any) -> bool:
        return edge_id in self._edge_index

    def nodes(self, label: Optional[str] = None) -> Iterator[NodeView]:
        if label is None:
            live = self._node_live
            for nid in range(len(self._node_oids)):
                if live[nid]:
                    yield NodeView(self, nid)
        else:
            code = self._label_index.get(label)
            table = self._node_tables.get(code) if code is not None else None
            if table is None:
                return
            live = self._node_live
            for nid in table.rows:
                if live[nid]:
                    yield NodeView(self, nid)

    def edges(self, label: Optional[str] = None) -> Iterator[EdgeView]:
        if label is None:
            live = self._edge_live
            for eid in range(len(self._edge_oids)):
                if live[eid]:
                    yield EdgeView(self, eid)
        else:
            code = self._label_index.get(label)
            table = self._edge_tables.get(code) if code is not None else None
            if table is None:
                return
            live = self._edge_live
            for eid in table.rows:
                if live[eid]:
                    yield EdgeView(self, eid)

    def out_edges(self, node_id: Any,
                  label: Optional[str] = None) -> Iterator[EdgeView]:
        nid = self._node_index.get(node_id)
        if nid is None:
            return
        code = None if label is None else self._label_index.get(label)
        if label is not None and code is None:
            return
        labels = self._edge_label
        eid = self._out_head[nid]
        while eid != -1:
            if label is None or labels[eid] == code:
                yield EdgeView(self, eid)
            eid = self._out_next[eid]

    def in_edges(self, node_id: Any,
                 label: Optional[str] = None) -> Iterator[EdgeView]:
        nid = self._node_index.get(node_id)
        if nid is None:
            return
        code = None if label is None else self._label_index.get(label)
        if label is not None and code is None:
            return
        labels = self._edge_label
        eid = self._in_head[nid]
        while eid != -1:
            if label is None or labels[eid] == code:
                yield EdgeView(self, eid)
            eid = self._in_next[eid]

    def successors(self, node_id: Any,
                   label: Optional[str] = None) -> Iterator[NodeView]:
        for edge in self.out_edges(node_id, label):
            yield NodeView(self, self._edge_dst[edge._eid])

    def predecessors(self, node_id: Any,
                     label: Optional[str] = None) -> Iterator[NodeView]:
        for edge in self.in_edges(node_id, label):
            yield NodeView(self, self._edge_src[edge._eid])

    def node_labels(self) -> Tuple[str, ...]:
        """Sorted tuple of node labels in use (deterministic iteration)."""
        return tuple(sorted(
            self._labels[code]
            for code, count in self._node_label_count.items()
            if count and code != _NO_LABEL
        ))

    def edge_labels(self) -> Tuple[str, ...]:
        """Sorted tuple of edge labels in use (deterministic iteration)."""
        return tuple(sorted(
            self._labels[code]
            for code, count in self._edge_label_count.items()
            if count and code != _NO_LABEL
        ))

    def out_degree(self, node_id: Any) -> int:
        nid = self._node_index.get(node_id)
        return 0 if nid is None else self._out_deg[nid]

    def in_degree(self, node_id: Any) -> int:
        nid = self._node_index.get(node_id)
        return 0 if nid is None else self._in_deg[nid]

    @property
    def node_count(self) -> int:
        return len(self._node_index)

    @property
    def edge_count(self) -> int:
        return len(self._edge_index)

    def __len__(self) -> int:
        return len(self._node_index)

    def __contains__(self, node_id: Any) -> bool:
        return node_id in self._node_index

    def __repr__(self) -> str:
        return (
            f"ColumnarPropertyGraph({self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Search (columnar exact-match probe; oracle scans the dicts)
    # ------------------------------------------------------------------
    def _probe_plan(self, table: _Table,
                    properties: Dict[str, Any]) -> Optional[Tuple[bool, List[Tuple[array, int, bool]]]]:
        """Compile property constraints to ``(column, eq_code, match_absent)``.

        Returns ``(feasible, plan)``, or None when the columnar probe
        cannot answer — a NaN or unhashable search value, where Python
        ``==`` and code equality diverge — and the caller must fall back
        to the per-object scan.
        """
        plan: List[Tuple[array, int, bool]] = []
        for name, value in properties.items():
            try:
                if value != value:  # NaN: == semantics unreachable by code
                    return None
                eq_code = self._interner.probe_eq(value)
            except TypeError:
                return None
            index = table.name_index.get(name)
            # ``properties.get(k) == None`` also matches an absent
            # property, exactly like the per-object oracle.
            match_absent = value is None
            if index is None:
                if match_absent:
                    continue  # column never written: every row matches
                return False, []  # no row can carry this name
            if eq_code is None and not match_absent:
                return False, []  # value never interned: nothing matches
            plan.append((table.cols[index],
                         -2 if eq_code is None else eq_code, match_absent))
        return True, plan

    def _probe_rows(self, table: _Table, live: bytearray,
                    plan: List[Tuple[array, int, bool]]) -> Iterator[int]:
        eq = self._interner.eq
        for position, element in enumerate(table.rows):
            if not live[element]:
                continue
            for column, eq_code, match_absent in plan:
                code = column[position]
                if code == _ABSENT_CODE:
                    if not match_absent:
                        break
                elif code < _ABSENT_CODE:  # boxed: unhashable, not ==-able here
                    break
                elif eq[code] != eq_code and not (
                    match_absent and self._interner.values[code] is None
                ):
                    break
            else:
                yield element

    def find_nodes(self, label: Optional[str] = None,
                   **properties: Any) -> Iterator[NodeView]:
        """Iterate nodes matching a label and exact property values.

        With a label, matching runs as an interned-code probe over that
        label's property matrix (no per-node dict is materialized); the
        label-less form and the NaN/unhashable corner cases fall back to
        the oracle's semantics via the views.
        """
        if label is not None:
            code = self._label_index.get(label)
            table = self._node_tables.get(code) if code is not None else None
            if table is None:
                return
            compiled = self._probe_plan(table, properties)
            if compiled is not None:
                feasible, plan = compiled
                if feasible:
                    for nid in self._probe_rows(table, self._node_live, plan):
                        yield NodeView(self, nid)
                return
        for node in self.nodes(label):
            if all(node.properties.get(k) == v for k, v in properties.items()):
                yield node

    def find_edges(
        self,
        label: Optional[str] = None,
        source: Any = None,
        target: Any = None,
        **properties: Any,
    ) -> Iterator[EdgeView]:
        """Iterate edges matching label, endpoints, and properties."""
        if source is None and target is None and label is not None:
            code = self._label_index.get(label)
            table = self._edge_tables.get(code) if code is not None else None
            if table is None:
                return
            compiled = self._probe_plan(table, properties)
            if compiled is not None:
                feasible, plan = compiled
                if feasible:
                    for eid in self._probe_rows(table, self._edge_live, plan):
                        yield EdgeView(self, eid)
                return
        if source is not None:
            candidates: Iterable[EdgeView] = self.out_edges(source, label)
        elif target is not None:
            candidates = self.in_edges(target, label)
        else:
            candidates = self.edges(label)
        for edge in candidates:
            if target is not None and edge.target != target:
                continue
            if source is not None and edge.source != source:
                continue
            if all(edge.properties.get(k) == v for k, v in properties.items()):
                yield edge

    # ------------------------------------------------------------------
    # Whole-graph accessors
    # ------------------------------------------------------------------
    def degrees(self) -> Dict[Any, Tuple[int, int]]:
        """Return ``{node_id: (in_degree, out_degree)}`` in one pass."""
        oids = self._node_oids
        live = self._node_live
        in_deg, out_deg = self._in_deg, self._out_deg
        return {
            oids[nid]: (in_deg[nid], out_deg[nid])
            for nid in range(len(oids))
            if live[nid]
        }

    def adjacency(self, label: Optional[str] = None) -> Dict[Any, List[Any]]:
        """Return ``{node_id: [successor ids]}`` in one edge pass."""
        oids = self._node_oids
        node_live = self._node_live
        adj: Dict[Any, List[Any]] = {
            oids[nid]: []
            for nid in range(len(oids))
            if node_live[nid]
        }
        src, dst = self._edge_src, self._edge_dst
        if label is None:
            live = self._edge_live
            for eid in range(len(self._edge_oids)):
                if live[eid]:
                    adj[oids[src[eid]]].append(oids[dst[eid]])
        else:
            code = self._label_index.get(label)
            table = self._edge_tables.get(code) if code is not None else None
            if table is not None:
                live = self._edge_live
                for eid in table.rows:
                    if live[eid]:
                        adj[oids[src[eid]]].append(oids[dst[eid]])
        return adj

    # ------------------------------------------------------------------
    # Bulk (columnar) accessors — columns in, columns out
    # ------------------------------------------------------------------
    def _live_table_rows(self, table: _Table, live: bytearray,
                         dead: int) -> Tuple[List[int], Optional[List[int]]]:
        """``(elements, positions)``; positions is None when all rows live."""
        rows = table.rows
        if not dead or all(live[element] for element in rows):
            return rows, None
        elements, positions = [], []
        for position, element in enumerate(rows):
            if live[element]:
                elements.append(element)
                positions.append(position)
        return elements, positions

    def _decode_column(self, column: array,
                       positions: Optional[List[int]], default: Any) -> List[Any]:
        values = self._interner.values
        boxed = self._boxed
        cells = column if positions is None else [column[p] for p in positions]
        return [
            values[code] if code >= 0
            else (default if code == _ABSENT_CODE else boxed[-2 - code])
            for code in cells
        ]

    def nodes_table(
        self,
        label: str,
        names: Iterable[str] = (),
        default: Any = None,
    ) -> Tuple[List[Any], List[List[Any]]]:
        """Return ``(ids, columns)`` for every node with ``label``.

        This is the zero-object read path: values decode column-wise
        straight from the property matrix, no view or dict per node.
        """
        names = list(names)
        code = self._label_index.get(label)
        table = self._node_tables.get(code) if code is not None else None
        if table is None or not table.rows:
            return [], [[] for _ in names]
        elements, positions = self._live_table_rows(
            table, self._node_live, self._node_dead
        )
        if not elements:
            return [], [[] for _ in names]
        oids = self._node_oids
        ids = [oids[nid] for nid in elements]
        columns = []
        for name in names:
            index = table.name_index.get(name)
            if index is None:
                columns.append([default] * len(ids))
            else:
                columns.append(
                    self._decode_column(table.cols[index], positions, default)
                )
        return ids, columns

    def edges_table(
        self,
        label: str,
        names: Iterable[str] = (),
        default: Any = None,
    ) -> Tuple[List[Any], List[Any], List[Any], List[List[Any]]]:
        """Return ``(ids, sources, targets, columns)`` for ``label`` edges."""
        names = list(names)
        code = self._label_index.get(label)
        table = self._edge_tables.get(code) if code is not None else None
        if table is None or not table.rows:
            return [], [], [], [[] for _ in names]
        elements, positions = self._live_table_rows(
            table, self._edge_live, self._edge_dead
        )
        if not elements:
            return [], [], [], [[] for _ in names]
        oids = self._node_oids
        edge_oids = self._edge_oids
        src, dst = self._edge_src, self._edge_dst
        ids = [edge_oids[eid] for eid in elements]
        sources = [oids[src[eid]] for eid in elements]
        targets = [oids[dst[eid]] for eid in elements]
        columns = []
        for name in names:
            index = table.name_index.get(name)
            if index is None:
                columns.append([default] * len(ids))
            else:
                columns.append(
                    self._decode_column(table.cols[index], positions, default)
                )
        return ids, sources, targets, columns

    def _table_names(self, table: Optional[_Table], live: bytearray,
                     dead: int) -> List[str]:
        if table is None:
            return []
        _elements, positions = self._live_table_rows(table, live, dead)
        return [
            name for name, column in zip(table.names, table.cols)
            if any(
                code != _ABSENT_CODE for code in
                (column if positions is None else map(column.__getitem__,
                                                      positions))
            )
        ]

    def node_property_names(self, label: str) -> List[str]:
        """The property names set on some node with ``label``, in
        column order: the ``names`` for which :meth:`nodes_table` has a
        cell to show."""
        code = self._label_index.get(label)
        return self._table_names(
            self._node_tables.get(code), self._node_live, self._node_dead
        )

    def edge_property_names(self, label: str) -> List[str]:
        """The property names set on some edge with ``label``."""
        code = self._label_index.get(label)
        return self._table_names(
            self._edge_tables.get(code), self._edge_live, self._edge_dead
        )

    def _cell_codes(self, cells: List[Any],
                    keep_none: bool) -> Optional[List[int]]:
        """One code per cell, :data:`_ABSENT_CODE` for a cell to leave
        unset: an :data:`ABSENT` one and, unless ``keep_none``, a
        ``None`` one.  ``None`` when every cell is left unset."""
        unset = [
            i for i, value in enumerate(cells)
            if value is ABSENT or (value is None and not keep_none)
        ]
        if unset:
            if len(unset) == len(cells):
                return None
            # Stand-ins the column encode interns anyway, so that the
            # sentinel never reaches the (append-only) dictionary.
            cells = list(cells)
            skipped = set(unset)
            filler = next(
                value for i, value in enumerate(cells) if i not in skipped
            )
            for i in unset:
                cells[i] = filler
        try:
            codes = self._interner.encode_column(cells)
        except TypeError:  # an unhashable value: box it, cell by cell
            codes = [self._encode(value) for value in cells]
        for i in unset:
            codes[i] = _ABSENT_CODE
        return codes

    def _encode_into(self, table: _Table, base_row: int, count: int,
                     names: Tuple[str, ...], columns: Iterable[List[Any]],
                     constants: Optional[Dict[str, Any]],
                     keep_none: bool) -> None:
        """Fill the ``count`` rows from ``base_row`` on, which are the
        table's last and still all-absent."""
        for name, cells in zip(names, columns):
            column = table.col(name)
            codes = self._cell_codes(cells, keep_none)
            if codes is not None:
                column[base_row:] = array(_IDX, codes)
        if constants:
            for name, value in constants.items():
                table.col(name)[base_row:] = array(
                    _IDX, [self._encode(value)]
                ) * count

    def add_nodes_bulk(
        self,
        label: Optional[str],
        ids: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many nodes with one shared label in a single column pass."""
        if not ids:
            return
        index = self._node_index
        seen = set(ids)
        clash = index.intersection(seen)
        if clash:
            bad = sorted(clash, key=str)[0]
            raise GraphError(f"node {bad!r} already exists in {self.name!r}")
        if len(seen) != len(ids):
            raise GraphError(
                f"duplicate node OID {first_repeat(ids)!r} in bulk add to "
                f"{self.name!r}"
            )
        count = len(ids)
        base_nid = len(self._node_oids)
        label_code = self._label_code(label)
        self._node_oids.extend(ids)
        index.extend(ids, base_nid)
        self._node_label.extend([label_code] * count)
        self._node_live.extend(b"\x01" * count)
        minus_ones = array(_IDX, [-1]) * count
        zeros = array(_IDX, bytes(_IDX_BYTES * count))
        self._out_head.extend(minus_ones)
        self._out_tail.extend(minus_ones)
        self._out_deg.extend(zeros)
        self._in_head.extend(minus_ones)
        self._in_tail.extend(minus_ones)
        self._in_deg.extend(zeros)
        table = self._node_tables.get(label_code)
        if table is None:
            table = self._node_tables[label_code] = _Table()
        base_row = len(table.rows)
        table.rows.extend(range(base_nid, base_nid + count))
        absent = array(_IDX, [_ABSENT_CODE]) * count
        for column in table.cols:
            column.extend(absent)
        self._node_row.extend(range(base_row, base_row + count))
        self._node_label_count[label_code] = (
            self._node_label_count.get(label_code, 0) + count
        )
        self._encode_into(table, base_row, count, tuple(names), columns,
                          constants, keep_none)

    def add_edges_bulk(
        self,
        label: Optional[str],
        ids: List[Any],
        sources: List[Any],
        targets: List[Any],
        names: Tuple[str, ...] = (),
        columns: Iterable[List[Any]] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many edges with one shared label in a single column pass."""
        if not ids:
            return
        index = self._edge_index
        # One index probe per distinct endpoint, not two per edge.
        nid_of = {
            oid: self._node_index.get(oid)
            for oid in set(sources).union(targets)
        }
        missing = [oid for oid, nid in nid_of.items() if nid is None]
        if missing:
            bad = sorted(missing, key=str)[0]
            raise GraphError(f"unknown source node {bad!r} in {self.name!r}")
        seen = set(ids)
        clash = index.intersection(seen)
        if clash:
            bad = sorted(clash, key=str)[0]
            raise GraphError(f"edge {bad!r} already exists in {self.name!r}")
        if len(seen) != len(ids):
            raise GraphError(
                f"duplicate edge OID {first_repeat(ids)!r} in bulk add to "
                f"{self.name!r}"
            )
        count = len(ids)
        base_eid = len(self._edge_oids)
        label_code = self._label_code(label)
        self._edge_oids.extend(ids)
        index.extend(ids, base_eid)
        self._edge_label.extend([label_code] * count)
        self._edge_live.extend(b"\x01" * count)
        src_nids = array(_IDX, map(nid_of.__getitem__, sources))
        dst_nids = array(_IDX, map(nid_of.__getitem__, targets))
        self._edge_src.extend(src_nids)
        self._edge_dst.extend(dst_nids)
        out_next, out_prev = self._out_next, self._out_prev
        in_next, in_prev = self._in_next, self._in_prev
        out_head, out_tail = self._out_head, self._out_tail
        in_head, in_tail = self._in_head, self._in_tail
        out_deg, in_deg = self._out_deg, self._in_deg
        for offset in range(count):
            eid = base_eid + offset
            src = src_nids[offset]
            tail = out_tail[src]
            out_next.append(-1)
            out_prev.append(tail)
            if tail == -1:
                out_head[src] = eid
            else:
                out_next[tail] = eid
            out_tail[src] = eid
            out_deg[src] += 1
            dst = dst_nids[offset]
            tail = in_tail[dst]
            in_next.append(-1)
            in_prev.append(tail)
            if tail == -1:
                in_head[dst] = eid
            else:
                in_next[tail] = eid
            in_tail[dst] = eid
            in_deg[dst] += 1
        table = self._edge_tables.get(label_code)
        if table is None:
            table = self._edge_tables[label_code] = _Table()
        base_row = len(table.rows)
        table.rows.extend(range(base_eid, base_eid + count))
        absent = array(_IDX, [_ABSENT_CODE]) * count
        for column in table.cols:
            column.extend(absent)
        self._edge_row.extend(range(base_row, base_row + count))
        self._edge_label_count[label_code] = (
            self._edge_label_count.get(label_code, 0) + count
        )
        self._encode_into(table, base_row, count, tuple(names), columns,
                          constants, keep_none)

    def existing_node_ids(self, ids: Iterable[Any]) -> set:
        return self._node_index.intersection(ids)

    def existing_edge_ids(self, ids: Iterable[Any]) -> set:
        return self._edge_index.intersection(ids)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "ColumnarPropertyGraph":
        """Structural copy sharing the (append-only) interner."""
        clone = ColumnarPropertyGraph(name or self.name,
                                      interner=self._interner)
        clone._boxed = self._boxed  # append-only, codes stay valid
        clone._labels = list(self._labels)
        clone._label_index = dict(self._label_index)
        clone._node_oids = list(self._node_oids)
        clone._node_index = self._node_index.copy()
        clone._node_label = array(_IDX, self._node_label)
        clone._node_live = bytearray(self._node_live)
        clone._node_dead = self._node_dead
        clone._node_row = array(_IDX, self._node_row)
        clone._node_tables = {
            code: table.copy() for code, table in self._node_tables.items()
        }
        clone._node_label_count = dict(self._node_label_count)
        clone._edge_oids = list(self._edge_oids)
        clone._edge_index = self._edge_index.copy()
        clone._edge_label = array(_IDX, self._edge_label)
        clone._edge_live = bytearray(self._edge_live)
        clone._edge_dead = self._edge_dead
        clone._edge_row = array(_IDX, self._edge_row)
        clone._edge_src = array(_IDX, self._edge_src)
        clone._edge_dst = array(_IDX, self._edge_dst)
        clone._edge_tables = {
            code: table.copy() for code, table in self._edge_tables.items()
        }
        clone._edge_label_count = dict(self._edge_label_count)
        clone._out_head = array(_IDX, self._out_head)
        clone._out_tail = array(_IDX, self._out_tail)
        clone._out_deg = array(_IDX, self._out_deg)
        clone._in_head = array(_IDX, self._in_head)
        clone._in_tail = array(_IDX, self._in_tail)
        clone._in_deg = array(_IDX, self._in_deg)
        clone._out_next = array(_IDX, self._out_next)
        clone._out_prev = array(_IDX, self._out_prev)
        clone._in_next = array(_IDX, self._in_next)
        clone._in_prev = array(_IDX, self._in_prev)
        clone._auto_id = self._auto_id
        clone._mutation_epoch = self._mutation_epoch
        return clone

    def to_networkx(self):
        """Export to a :class:`networkx.MultiDiGraph` for analysis interop."""
        import networkx as nx

        nxg = nx.MultiDiGraph(name=self.name)
        for node in self.nodes():
            nxg.add_node(node.id, label=node.label, **node.properties)
        for edge in self.edges():
            nxg.add_edge(edge.source, edge.target, key=edge.id,
                         label=edge.label, **edge.properties)
        return nxg

    @classmethod
    def from_networkx(cls, nxg, name: Optional[str] = None) -> "ColumnarPropertyGraph":
        """Build a columnar property graph from a NetworkX digraph."""
        graph = cls(name or getattr(nxg, "name", "graph") or "graph")
        for node_id, data in nxg.nodes(data=True):
            attrs = dict(data)
            label = attrs.pop("label", None)
            graph.add_node(node_id, label, **attrs)
        for source, target, data in nxg.edges(data=True):
            attrs = dict(data)
            label = attrs.pop("label", None)
            attrs.pop("key", None)
            graph.add_edge(source, target, label, **attrs)
        return graph
