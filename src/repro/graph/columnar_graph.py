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
implementation stays selectable as the differential oracle;
``tests/test_columnar_graph.py`` holds the battery proving both
backends bit-identical through the full pipeline.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, repeat
from operator import is_
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.property_graph import ABSENT, first_repeat
from repro.vadalog.columnar import Codes, ValueInterner, merge_sorted

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

#: Fewer rows than this, and a bulk write links adjacency chains with
#: the scalar loop: a handful of numpy calls cost more than a short loop.
_BULK_ROWS = 64


class _Table:
    """Property matrix of one label: member ids + one code column per name.

    ``rows`` holds nids (or eids) in insertion order — within one label
    that is exactly the object backend's label-bucket order.  Columns
    are aligned with ``rows`` and backfilled with :data:`_ABSENT_CODE`
    when a name first appears after rows already exist.
    """

    __slots__ = ("rows", "names", "name_index", "cols")

    def __init__(self) -> None:
        self.rows = array(_IDX)
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

    def copy(self) -> "_Table":
        clone = _Table()
        clone.rows = array(_IDX, self.rows)
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
        dense = -1 if code is None else self._dense(code)
        return default if dense < 0 else dense

    def _dense(self, code: int) -> int:
        """The dense id of an interner code, -1 if it is not indexed."""
        dense = self._overlay.get(code)
        if dense is not None:
            return dense
        pos = self._slot(code)
        return self._ids[pos] if pos >= 0 else -1

    def lookup(self, codes: Any) -> Any:
        """:meth:`get` over a numpy array of codes: the dense ids, -1
        where a code is not indexed (or not a code at all)."""
        if len(codes) < _BULK_ROWS:
            return np.fromiter(map(self._dense, codes.tolist()), np.int64, len(codes))
        found = np.full(len(codes), -1, dtype=np.int64)
        if len(self._codes):
            table = np.frombuffer(self._codes, dtype=np.int32)
            pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
            hit = table[pos] == codes
            found[hit] = np.frombuffer(self._ids, dtype=np.int32)[pos[hit]]
        if self._overlay:
            over = np.fromiter(
                map(self._overlay.get, codes.tolist(), repeat(-1)),
                np.int64, len(codes),
            )
            found = np.where(over >= 0, over, found)
        return found

    def __contains__(self, oid: Any) -> bool:
        return self.get(oid) is not None

    def __getitem__(self, oid: Any) -> int:
        dense = self.get(oid)
        if dense is None:
            raise KeyError(oid)
        return dense

    def put(self, oid: Any, dense: int) -> int:
        """Index ``oid`` as ``dense``; returns its code."""
        code = self._interner.encode(oid)
        overlay = self._overlay
        if code in overlay:
            overlay[code] = dense
            return code
        pos = self._slot(code)
        if pos >= 0:
            if self._ids[pos] < 0:
                self._size += 1
                self._dead -= 1
            self._ids[pos] = dense
            return code
        overlay[code] = dense
        self._size += 1
        self._maybe_merge()
        return code

    def _maybe_merge(self) -> None:
        overlay = self._overlay
        if len(overlay) >= 1024 and 3 * len(overlay) >= len(self._codes):
            self._merge()

    def extend(self, codes: Any, dense: Any) -> None:
        """Index the OIDs of the numpy array ``codes`` as the dense ids
        of the aligned array ``dense``, or as those from ``dense`` on.
        None of them may be indexed already (the bulk adders check
        first).  Into an index that never held one they become the
        sorted arrays, in one ``argsort``; otherwise one a tombstoned
        slot holds takes it back, the others join the overlay."""
        if isinstance(dense, int):
            dense = np.arange(dense, dense + len(codes))
        self._size += len(codes)
        if not len(self._codes) and not self._overlay:
            order = np.argsort(codes)
            self._codes = array(_IDX, codes[order].astype(np.int32).tobytes())
            self._ids = array(_IDX, dense[order].astype(np.int32).tobytes())
            return
        if self._dead:
            table = np.frombuffer(self._codes, dtype=np.int32)
            pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
            back = table[pos] == codes
            np.frombuffer(self._ids, dtype=np.int32)[pos[back]] = dense[back]
            self._dead -= int(back.sum())
            codes, dense = codes[~back], dense[~back]
        self._overlay.update(zip(codes.tolist(), dense.tolist()))
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
        """The subset of ``oids`` present in the index (deduplicated);
        :class:`~repro.vadalog.columnar.Codes` give their values."""
        if not self._size:
            return set()
        if isinstance(oids, Codes):
            codes = np.asarray(oids)
            oids = list(map(self._interner.values.__getitem__, codes.tolist()))
        else:
            oids = list(oids)
            codes = self._interner.probe_column(oids)
        return set(compress(oids, (self.lookup(codes) >= 0).tolist()))

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
        probe the table first), so the sorted overlay slots in at
        ``searchsorted`` positions: O(table + overlay) in numpy.
        """
        count = len(self._overlay)
        new_codes = np.fromiter(self._overlay.keys(), np.int32, count)
        new_ids = np.fromiter(self._overlay.values(), np.int32, count)
        order = np.argsort(new_codes)
        old_codes = np.frombuffer(self._codes, dtype=np.int32)
        old_ids = np.frombuffer(self._ids, dtype=np.int32)
        live = old_ids >= 0
        merged_codes, merged_ids = merge_sorted(
            old_codes[live], old_ids[live], new_codes[order], new_ids[order]
        )
        self._codes = array(_IDX, merged_codes.tobytes())
        self._ids = array(_IDX, merged_ids.tobytes())
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
        self._node_codes = array(_IDX)  # interner code of each OID
        self._node_index = _OidIndex(self._interner)
        self._node_label = array(_IDX)
        self._node_live = bytearray()
        self._node_dead = 0
        self._node_row = array(_IDX)
        self._node_tables: Dict[int, _Table] = {}
        self._node_label_count: Dict[int, int] = {}
        # Edge store (incidence function mu as two nid columns).
        self._edge_oids: List[Any] = []
        self._edge_codes = array(_IDX)
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

    # ------------------------------------------------------------------
    # Value and label encoding
    # ------------------------------------------------------------------
    @property
    def interner(self) -> ValueInterner:
        """The graph's value dictionary.  Append-only, so it is safe to
        share with an extraction :class:`~repro.vadalog.database.Database`
        (values present on either side are then stored once)."""
        return self._interner

    def share_codes(self, other: Any) -> bool:
        """Whether code columns of the graph ``other`` can be written
        into this one as they are: both on one interner and no value of
        ``other`` boxed.  An empty graph first takes ``other``'s
        interner over — it has issued no code yet."""
        interner = getattr(other, "interner", None)
        if interner is None or other._boxed:
            return False
        if interner is not self._interner and not (
            self._node_oids or self._edge_oids or self._boxed
        ):
            self._interner = interner
            self._node_index = _OidIndex(interner)
            self._edge_index = _OidIndex(interner)
        return interner is self._interner

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
        self._node_codes.append(self._node_index.put(node_id, nid))
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
        self._edge_codes.append(self._edge_index.put(edge_id, eid))
        self._edge_label.append(label_code)
        self._edge_live.append(1)
        self._edge_src.append(src)
        self._edge_dst.append(dst)
        self._link(self._out_head, self._out_tail, self._out_deg,
                   self._out_next, self._out_prev, [src], eid)
        self._link(self._in_head, self._in_tail, self._in_deg,
                   self._in_next, self._in_prev, [dst], eid)
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
        ``edge_id`` would generate, for a bulk add.  They are interned
        here, for the add to find, and checked against both indexes by
        code: one hash of each new string."""
        first = self._auto_id
        candidates = [f"e{number}" for number in range(first, first + count)]
        codes = self._interner.encode_column(candidates)
        if ((self._node_index.lookup(codes) >= 0).any()
                or (self._edge_index.lookup(codes) >= 0).any()):
            return [self._fresh_id("e") for _ in range(count)]
        self._auto_id += count
        return candidates

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
                         dead: int) -> Tuple[Any, Optional[Any]]:
        """``(elements, positions)``; positions is None when all rows live."""
        rows = table.rows
        if not dead:
            return rows, None
        elements = np.frombuffer(rows, dtype=np.int32)
        alive = np.frombuffer(bytes(live), dtype=np.bool_)[elements]
        if alive.all():
            return rows, None
        positions = np.flatnonzero(alive)
        return elements[positions].tolist(), positions

    def _decode_column(self, codes: Any, default: Any) -> List[Any]:
        """The values of a numpy code column, ``default`` for an unset
        cell: one C-speed ``map`` unless some cell is unset or boxed."""
        values = self._interner.values
        if not len(codes) or codes.min() >= 0:
            return list(map(values.__getitem__, codes.tolist()))
        boxed = self._boxed
        return [
            values[code] if code >= 0
            else (default if code == _ABSENT_CODE else boxed[-2 - code])
            for code in codes.tolist()
        ]

    def values_of(self, codes: Any) -> List[Any]:
        """The values of a :class:`~repro.vadalog.columnar.Codes`
        column, :data:`ABSENT` for an unset cell."""
        return self._decode_column(np.asarray(codes), ABSENT)

    def _table_columns(self, table: _Table, positions: Optional[Any],
                       names: List[str]) -> List[Any]:
        """Numpy code columns of ``names`` (all unset where the table has
        no such column) over the table rows at ``positions``."""
        count = len(table.rows) if positions is None else len(positions)
        columns = []
        for name in names:
            index = table.name_index.get(name)
            if index is None:
                columns.append(np.full(count, _ABSENT_CODE, dtype=np.int32))
                continue
            codes = np.frombuffer(table.cols[index], dtype=np.int32)
            columns.append(codes.copy() if positions is None else codes[positions])
        return columns

    def _table(self, tables: Dict[int, _Table], label: str) -> Optional[_Table]:
        code = self._label_index.get(label)
        table = tables.get(code) if code is not None else None
        return table if table is not None and len(table.rows) else None

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
        table = self._table(self._node_tables, label)
        if table is None:
            return [], [[] for _ in names]
        elements, positions = self._live_table_rows(
            table, self._node_live, self._node_dead
        )
        ids = list(map(self._node_oids.__getitem__, elements))
        return ids, [
            self._decode_column(codes, default)
            for codes in self._table_columns(table, positions, names)
        ]

    def edges_table(
        self,
        label: str,
        names: Iterable[str] = (),
        default: Any = None,
    ) -> Tuple[List[Any], List[Any], List[Any], List[List[Any]]]:
        """Return ``(ids, sources, targets, columns)`` for ``label`` edges."""
        names = list(names)
        table = self._table(self._edge_tables, label)
        if table is None:
            return [], [], [], [[] for _ in names]
        elements, positions = self._live_table_rows(
            table, self._edge_live, self._edge_dead
        )
        oid_of = self._node_oids.__getitem__
        ids = list(map(self._edge_oids.__getitem__, elements))
        sources = list(map(oid_of, map(self._edge_src.__getitem__, elements)))
        targets = list(map(oid_of, map(self._edge_dst.__getitem__, elements)))
        return ids, sources, targets, [
            self._decode_column(codes, default)
            for codes in self._table_columns(table, positions, names)
        ]

    def node_code_table(
        self, label: str, names: Iterable[str] = ()
    ) -> Tuple[Any, List[Any]]:
        """:meth:`nodes_table` as :class:`~repro.vadalog.columnar.Codes`
        of this graph's interner, -1 for an unset cell: nothing decoded."""
        ids, _, _, columns = self._code_table(
            self._node_tables, self._node_live, self._node_dead,
            self._node_codes, label, list(names),
        )
        return ids, columns

    def edge_code_table(
        self, label: str, names: Iterable[str] = ()
    ) -> Tuple[Any, Any, Any, List[Any]]:
        """:meth:`edges_table` as code columns (see :meth:`node_code_table`)."""
        return self._code_table(
            self._edge_tables, self._edge_live, self._edge_dead,
            self._edge_codes, label, list(names),
        )

    def _code_table(self, tables, live, dead, codes_of, label, names):
        table = self._table(tables, label)
        if table is None:
            elements, positions = np.empty(0, dtype=np.int64), None
            columns = [np.empty(0, dtype=np.int32) for _ in names]
        else:
            elements, positions = self._live_table_rows(table, live, dead)
            elements = np.asarray(elements, dtype=np.int64)
            columns = self._table_columns(table, positions, names)
        node_codes = np.frombuffer(self._node_codes, dtype=np.int32)
        ends = [
            node_codes[np.frombuffer(nids, dtype=np.int32)[elements]].view(Codes)
            for nids in (self._edge_src, self._edge_dst)
        ] if tables is self._edge_tables else [None, None]
        ids = np.frombuffer(codes_of, dtype=np.int32)[elements].view(Codes)
        return ids, ends[0], ends[1], [column.view(Codes) for column in columns]

    def _table_names(self, table: Optional[_Table], live: bytearray,
                     dead: int) -> List[str]:
        if table is None:
            return []
        _elements, positions = self._live_table_rows(table, live, dead)
        return [
            name for name, codes in zip(
                table.names, self._table_columns(table, positions, table.names)
            )
            if (codes != _ABSENT_CODE).any()
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

    def _cell_codes(self, cells: Any, at: Optional[Any],
                    keep_none: bool) -> Any:
        """The codes of one column's cells (those at positions ``at``,
        or all): :data:`_ABSENT_CODE` for a cell to leave unset, an
        :data:`ABSENT` one and, unless ``keep_none``, a ``None`` one.
        A :class:`~repro.vadalog.columnar.Codes` column is its codes."""
        if isinstance(cells, Codes):
            codes = np.asarray(cells, dtype=np.int32)
            return codes if at is None else codes[at]
        if at is not None:
            cells = list(map(cells.__getitem__, at.tolist()))
        count = len(cells)
        unset = np.fromiter(map(is_, cells, repeat(ABSENT)), bool, count)
        if not keep_none:
            unset |= np.fromiter(map(is_, cells, repeat(None)), bool, count)
        codes = np.full(count, _ABSENT_CODE, dtype=np.int32)
        present = np.flatnonzero(~unset)
        if len(present):
            if len(present) != count:
                cells = list(compress(cells, (~unset).tolist()))
            try:
                codes[present] = self._interner.encode_column(cells)
            except TypeError:  # an unhashable value: box it, cell by cell
                codes[present] = [self._encode(value) for value in cells]
        return codes

    def _fill_tables(self, tables: Dict[int, _Table],
                     label_count: Dict[int, int], label: Any, base: int,
                     count: int, names: Iterable[str],
                     columns: Iterable[Any], constants: Optional[Dict[str, Any]],
                     keep_none: bool) -> Tuple[Any, Any]:
        """Append the elements ``base..base+count-1`` to the property
        tables of their labels — ``label`` for all, or one per element
        — and set their cells.  Returns each element's row in its table
        and its label code, as ``int32`` arrays.  With one label per
        element, a table gets a column for the names its own elements
        set, in ``names`` order."""
        names, columns = tuple(names), list(columns)
        per_element = not (label is None or isinstance(label, str))
        if per_element:
            code_of = {name: self._label_code(name) for name in dict.fromkeys(label)}
            labels = np.fromiter(map(code_of.__getitem__, label), np.int32, count)
            groups = [
                (code, np.flatnonzero(labels == code) if len(code_of) > 1 else None)
                for code in code_of.values()
            ]
        else:
            groups = [(self._label_code(label), None)]
            labels = np.full(count, groups[0][0], dtype=np.int32)
        rows = np.empty(count, dtype=np.int32)
        for code, at in groups:
            table = tables.get(code)
            if table is None:
                table = tables[code] = _Table()
            size = count if at is None else len(at)
            elements = np.arange(base, base + count) if at is None else at + base
            base_row = len(table.rows)
            table.rows.frombytes(elements.astype(np.int32).tobytes())
            absent = array(_IDX, [_ABSENT_CODE]) * size
            for column in table.cols:
                column.extend(absent)
            here = np.arange(base_row, base_row + size, dtype=np.int32)
            if at is None:
                rows = here
            else:
                rows[at] = here
            label_count[code] = label_count.get(code, 0) + size
            for name, cells in zip(names, columns):
                codes = self._cell_codes(cells, at, keep_none)
                if per_element and not (codes != _ABSENT_CODE).any():
                    continue
                table.col(name)[base_row:] = array(_IDX, codes.tobytes())
            if constants:
                for name, value in constants.items():
                    table.col(name)[base_row:] = array(
                        _IDX, [self._encode(value)]
                    ) * size
        return rows, labels

    def _new_ids(self, ids: Any, index: _OidIndex, kind: str) -> Any:
        """The codes of ``ids`` (values or :class:`Codes`), raising what
        one ``add_node`` / ``add_edge`` per id would for an id already
        indexed or repeated — checked before any value is interned."""
        coded = isinstance(ids, Codes)
        values = (
            list(map(self._interner.values.__getitem__, np.asarray(ids).tolist()))
            if coded else ids
        )
        distinct = set(values)
        clash = len(index) and (
            set(compress(values, (index.lookup(np.asarray(ids)) >= 0).tolist()))
            if coded else index.intersection(distinct)
        )
        if clash:
            bad = sorted(clash, key=str)[0]
            raise GraphError(f"{kind} {bad!r} already exists in {self.name!r}")
        if len(distinct) != len(values):
            raise GraphError(
                f"duplicate {kind} OID {first_repeat(values)!r} in bulk add "
                f"to {self.name!r}"
            )
        if coded:
            return np.asarray(ids, dtype=np.int32), values
        return self._interner.encode_column(ids), list(ids)

    def _endpoints(self, sources: Any, targets: Any) -> List[Any]:
        """The nids of the ``sources`` and ``targets`` columns (values or
        :class:`Codes`); raises what ``add_edge`` would for a missing one."""
        ends = [
            self._node_index.lookup(
                np.asarray(column) if isinstance(column, Codes)
                else self._interner.probe_column(column)
            )
            for column in (sources, targets)
        ]
        if (ends[0] < 0).any() or (ends[1] < 0).any():
            missing: set = set()
            for column, nids in zip((sources, targets), ends):
                if isinstance(column, Codes):
                    column = self.values_of(column)
                missing.update(compress(column, (nids < 0).tolist()))
            bad = sorted(missing, key=str)[0]
            raise GraphError(f"unknown source node {bad!r} in {self.name!r}")
        return ends

    @staticmethod
    def _link(head: array, tail: array, deg: array, after: array,
              before: array, ends: Any, base: int) -> None:
        """Append the edges ``base, base+1, ...`` (end node ``ends[i]``
        for edge ``base+i``) to the tails of their nodes' chains — the
        out-chains or the in-chains — in edge order, as one
        ``add_edge`` per edge does."""
        count = len(ends)
        if count < _BULK_ROWS:
            for eid, nid in enumerate(ends if type(ends) is list else ends.tolist(), base):
                last = tail[nid]
                after.append(-1)
                before.append(last)
                if last == -1:
                    head[nid] = eid
                else:
                    after[last] = eid
                tail[nid] = eid
                deg[nid] += 1
            return
        order = np.argsort(ends, kind="stable")
        nodes, eids = ends[order], order + base
        first = np.ones(count, dtype=bool)
        first[1:] = nodes[1:] != nodes[:-1]
        last = np.append(first[1:], True)
        starts, runs = eids[first], nodes[first]
        tails = np.frombuffer(tail, dtype=np.int32)
        old = tails[runs].astype(np.int64)
        tails[runs] = eids[last]
        np.frombuffer(head, dtype=np.int32)[runs[old == -1]] = starts[old == -1]
        np.frombuffer(deg, dtype=np.int32)[runs] += np.diff(
            np.append(np.flatnonzero(first), count)
        ).astype(np.int32)
        del tails
        linked = np.empty(count, dtype=np.int32)  # next, in edge order
        linked[order] = np.where(last, -1, np.roll(eids, -1))
        after.frombytes(linked.tobytes())
        linked[order] = np.where(first, 0, np.roll(eids, 1))
        linked[order[first]] = old
        before.frombytes(linked.tobytes())
        np.frombuffer(after, dtype=np.int32)[old[old != -1]] = starts[old != -1]

    def add_nodes_bulk(
        self,
        label: Any,
        ids: Any,
        names: Tuple[str, ...] = (),
        columns: Iterable[Any] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many nodes in a single column pass.

        ``label`` is every node's label, or a sequence of one label per
        node (the nodes keep their order, each label's table holding
        its own).  ``ids`` and any of ``columns`` may be
        :class:`~repro.vadalog.columnar.Codes` of this graph's interner
        instead of values: stored as they are, -1 an unset cell."""
        if not len(ids):
            return
        codes, oids = self._new_ids(ids, self._node_index, "node")
        count = len(codes)
        base = len(self._node_oids)
        self._node_oids.extend(oids)
        self._node_codes.frombytes(codes.tobytes())
        self._node_index.extend(codes, base)
        self._node_live.extend(b"\x01" * count)
        minus_ones = array(_IDX, [-1]) * count
        zeros = array(_IDX, bytes(_IDX_BYTES * count))
        self._out_head.extend(minus_ones)
        self._out_tail.extend(minus_ones)
        self._out_deg.extend(zeros)
        self._in_head.extend(minus_ones)
        self._in_tail.extend(minus_ones)
        self._in_deg.extend(zeros)
        rows, labels = self._fill_tables(
            self._node_tables, self._node_label_count, label, base, count,
            names, columns, constants, keep_none,
        )
        self._node_label.frombytes(labels.tobytes())
        self._node_row.frombytes(rows.tobytes())

    def add_edges_bulk(
        self,
        label: Any,
        ids: Any,
        sources: Any,
        targets: Any,
        names: Tuple[str, ...] = (),
        columns: Iterable[Any] = (),
        constants: Optional[Dict[str, Any]] = None,
        keep_none: bool = False,
    ) -> None:
        """Add many edges in a single column pass; ``label``, ``ids``
        and ``columns`` as for :meth:`add_nodes_bulk`, and the endpoint
        columns values or codes too.  The adjacency chains are linked
        column-wise."""
        if not len(ids):
            return
        src, dst = self._endpoints(sources, targets)
        codes, oids = self._new_ids(ids, self._edge_index, "edge")
        count = len(codes)
        base = len(self._edge_oids)
        self._edge_oids.extend(oids)
        self._edge_codes.frombytes(codes.tobytes())
        self._edge_index.extend(codes, base)
        self._edge_live.extend(b"\x01" * count)
        self._edge_src.frombytes(src.astype(np.int32).tobytes())
        self._edge_dst.frombytes(dst.astype(np.int32).tobytes())
        self._link(self._out_head, self._out_tail, self._out_deg,
                   self._out_next, self._out_prev, src, base)
        self._link(self._in_head, self._in_tail, self._in_deg,
                   self._in_next, self._in_prev, dst, base)
        rows, labels = self._fill_tables(
            self._edge_tables, self._edge_label_count, label, base, count,
            names, columns, constants, keep_none,
        )
        self._edge_label.frombytes(labels.tobytes())
        self._edge_row.frombytes(rows.tobytes())

    def _live_edges(self, label: str) -> Any:
        """The eids of the live ``label`` edges, in table order."""
        table = self._table(self._edge_tables, label)
        if table is None:
            return np.empty(0, dtype=np.int64)
        return np.asarray(self._live_table_rows(
            table, self._edge_live, self._edge_dead
        )[0], dtype=np.int64)

    def edge_end_labels(self, label: str) -> set:
        """The distinct ``(source label, target label)`` pairs of the
        ``label`` edges, from the label columns: no end is decoded."""
        eids = self._live_edges(label)
        node_label = np.frombuffer(self._node_label, dtype=np.int32)
        sources, targets = (
            node_label[np.frombuffer(nids, dtype=np.int32)[eids]].astype(np.int64)
            for nids in (self._edge_src, self._edge_dst)
        )
        width = len(self._labels) + 1  # a label code, or _NO_LABEL
        name = [*self._labels, None]  # name[_NO_LABEL] is None
        return {
            (name[pair // width - 1], name[pair % width - 1])
            for pair in np.unique((sources + 1) * width + targets + 1).tolist()
        }

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
        clone._node_codes = array(_IDX, self._node_codes)
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
        clone._edge_codes = array(_IDX, self._edge_codes)
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
        return clone

    def adopted(self, other: "ColumnarPropertyGraph",
                edge_labels: Iterable[str]) -> "ColumnarPropertyGraph":
        """A copy of ``other`` as this graph would hold it after
        bulk-adding ``other``'s nodes, then its edges without ids, one
        label of ``edge_labels`` at a time: this graph's name, and each
        label's edges, in table order, under the OIDs
        :meth:`fresh_edge_ids` mints from this graph's counter — ``e1``,
        ``e2``, … skipping one a node holds.  This graph holds no live
        element and shares ``other``'s codes; every edge of ``other``
        has one of ``edge_labels``."""
        clone = other.copy(self.name)
        eids = np.concatenate(
            [np.empty(0, dtype=np.int64), *map(clone._live_edges, edge_labels)]
        )
        count = len(eids)
        clone._edge_index = _OidIndex(clone._interner)
        clone._auto_id = self._auto_id
        oids = clone.fresh_edge_ids(count)
        codes = clone._interner.encode_column(oids)
        where = np.arange(count, count + len(clone._edge_oids))
        where[eids] = np.arange(count)
        pool = oids + clone._edge_oids  # a dead edge keeps its OID
        clone._edge_oids = list(map(pool.__getitem__, where.tolist()))
        edge_codes = np.frombuffer(clone._edge_codes, dtype=np.int32).copy()
        edge_codes[eids] = codes
        clone._edge_codes = array(_IDX, edge_codes.tobytes())
        clone._edge_index.extend(codes, eids)
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
