"""Columnar fact storage: dictionary-encoded columns + row-id indexes.

The tuple backend in :mod:`repro.vadalog.database` stores every fact as a
Python tuple inside a set, with per-position/composite indexes holding
fact references.  At registry scale (Section 6 of the paper targets
national company registries) the per-tuple object overhead dominates:
each 2-ary fact costs a tuple header, two cell pointers, and a set slot,
and every index bucket duplicates the references.

This module keeps the same :class:`Relation` facade but stores facts
column-wise:

* a per-database :class:`ValueInterner` maps each constant to a small
  integer *code*; columns are ``array('i')`` buffers of codes, so a
  stored cell costs four bytes regardless of the value;
* row membership/dedup goes through a sorted-hash row table: two
  parallel ``array`` buffers (FNV-1a row hash, row id) ordered by hash,
  probed with ``bisect`` (~16 bytes/row), plus a small dict overlay for
  rows inserted since the last rebuild.  Rebuilds are amortized
  geometrically and vectorized over numpy;
* indexes map encoded keys to row-id lists, so buckets hold ints rather
  than fact references;
* deletion tombstones rows (probes skip dead rows) and compaction runs
  only at engine safe points, so in-flight index iterators stay valid;
* relations can spill their (compacted) column pages to a sqlite3 file
  and rehydrate transparently on next access.

Equality semantics — the subtle part
------------------------------------

Python hashes/equates ``1 == 1.0 == True`` while the chase's
``values_equal`` keeps ``True`` apart from ``1``/``1.0``.  The tuple
backend inherits Python semantics for storage-level dedup (a set keeps
only one of ``(1,)``/``(True,)``) and values_equal for join matching.
To stay bit-identical the interner issues *two-level* codes:

* the **exact code** identifies the constant up to ``values_equal``
  (bools get their own codes, ``1`` and ``1.0`` share one);
* the **eq code** identifies the Python ``==`` class (``True`` and ``1``
  share one).

Rows dedup and index-bucket on eq-code keys (set/dict semantics), while
join verification compares exact codes (values_equal semantics).  The
decoded value is the first-seen representative of its exact class, so
``1.0`` added after ``1`` decodes as ``1`` — indistinguishable under
values_equal, see DESIGN.md for the (benign) caveats.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from bisect import bisect_left
from array import array
from itertools import chain as _chain, compress as _compress, islice as _islice
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError

import numpy as _np

Fact = Tuple[Any, ...]

#: Exact-code dictionary key tag for bools (so True never collides with 1).
_BOOL = ("__bool__",)

#: FNV-1a parameters for row hashing (deterministic, numpy-friendly).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

#: Overlay size that triggers a row-table rebuild (amortized with the
#: relative bound in :meth:`ColumnarRelation._maybe_rebuild`).
_OVERLAY_LIMIT = 1024

#: Typecode of the relation code columns: C ``int``, 4 bytes per code
#: instead of a list slot's 8-byte pointer plus a boxed int.  Interner
#: codes are dense indices into ``ValueInterner.values`` and stay far
#: below 2**31; ``array('i')`` raises ``OverflowError`` rather than
#: wrapping if that ever changes.
_CODE = "i"


def _code_col() -> array:
    """A fresh, empty code column."""
    return array(_CODE)


class ValueInterner:
    """Append-only two-level dictionary encoding for constants.

    Shared by every relation of a database (and by its copies), so codes
    are comparable across relations and snapshots.  Append-only: codes
    are never reused or renumbered, so a code handed out once stays
    valid in every relation, copy and frozen snapshot that shares it.

    Threads may share one interner (``kgmodel serve``: request threads
    intern query constants and derived values, the writer delta facts):
    hits are lock-free, misses take ``_lock``.
    """

    __slots__ = (
        "values", "eq", "_codes", "_eqcodes", "_eq_np", "nan_codes", "_lock",
    )

    def __init__(self) -> None:
        self.values: List[Any] = []  # code -> first-seen exact value
        # code -> ==-class representative code; an ``array('i')`` so a
        # million-code dictionary costs 4 MB, not a list of boxed ints.
        self.eq: array = _code_col()
        self._codes: Dict[Any, int] = {}  # exact key -> code
        # ==-class reps for the only cross-type family (bool vs 0/1).
        self._eqcodes: Dict[Any, int] = {}
        self._eq_np: Any = None  # cached numpy mirror of ``eq``
        # Codes of NaN values: never values_equal anything, including
        # themselves — vectorized joins mask these out explicitly.
        # Replaced, never mutated, so a reader can iterate the one it holds.
        self.nan_codes: FrozenSet[int] = frozenset()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def _key(value: Any) -> Any:
        # Bools must not share a dict slot with 0/1; everything else uses
        # the raw value (1 and 1.0 intentionally share a code: they are
        # values_equal, and a dict keyed by == conflates them anyway).
        if value is True or value is False:
            return (_BOOL, value)
        return value

    def encode(self, value: Any) -> int:
        """Intern ``value``; returns its exact code."""
        key = self._key(value)
        code = self._codes.get(key)
        if code is None:
            with self._lock:
                code = self._codes.get(key)  # another thread may have won
                if code is None:
                    code = len(self.values)
                    self.values.append(value)
                    if value != value:  # NaN
                        self.nan_codes = self.nan_codes | {code}
                    if isinstance(value, (bool, int, float)) and value in (0, 1):
                        self.eq.append(self._eqcodes.setdefault(bool(value), code))
                    else:
                        self.eq.append(code)
                    self._codes[key] = code  # published last, as below
        return code

    def probe(self, value: Any) -> Optional[int]:
        """Exact code of ``value`` if interned, else None (no insert)."""
        return self._codes.get(self._key(value))

    def probe_column(self, col_vals: Sequence[Any]) -> List[Optional[int]]:
        """:meth:`probe` over a whole column: one C-speed ``map`` over
        the code dict (bools, whose dict keys are tagged, apart)."""
        codes_get = self._codes.get
        if bool in set(map(type, col_vals)):
            return [
                codes_get((_BOOL, v)) if v.__class__ is bool else codes_get(v)
                for v in col_vals
            ]
        return list(map(codes_get, col_vals))

    def encode_column(self, col_vals: Sequence[Any]) -> List[int]:
        """:meth:`encode` over a whole column: a bulk probe, and one
        :meth:`encode_fill` call for the values it did not find."""
        raw = self.probe_column(col_vals)
        if None in raw:
            raw = self.encode_fill(col_vals, raw)
        return raw

    def encode_fill(self, col_vals: Sequence[Any], raw: List[Any]) -> List[Any]:
        """Fill the ``None`` slots of a bulk-probe result in place.

        ``raw[i] is None`` means ``col_vals[i]`` missed the code dict.
        :meth:`encode` unrolled over the misses, under one lock for the
        whole column (bulk loads intern millions of first-seen values);
        a code is published in ``_codes`` only once ``values``/``eq``
        hold it, because whoever finds it there indexes both at once.
        """
        codes = self._codes
        codes_get = codes.get
        values = self.values
        eq_append = self.eq.append
        eqcodes_setdefault = self._eqcodes.setdefault
        with self._lock:
            for i, code in enumerate(raw):
                if code is None:
                    v = col_vals[i]
                    key = (_BOOL, v) if v.__class__ is bool else v
                    code = codes_get(key)
                    if code is None:
                        code = len(values)
                        values.append(v)
                        if v.__class__ is str:  # dominant: plain eq class
                            eq_append(code)
                        else:
                            if v != v:  # NaN
                                self.nan_codes = self.nan_codes | {code}
                            if isinstance(v, (bool, int, float)) and v in (0, 1):
                                # The 0/1 family spans types (True==1==1.0):
                                # one eq class, anchored at its first member.
                                eq_append(eqcodes_setdefault(bool(v), code))
                            else:
                                eq_append(code)
                        codes[key] = code
                    raw[i] = code
        return raw

    def eq_array(self) -> Any:
        """Cached ``uint64`` numpy mirror of :attr:`eq` (refreshed lazily)."""
        arr = self._eq_np
        if arr is None or len(arr) != len(self.eq):
            # Mirror a slice: numpy may drop the GIL while it holds the
            # exported buffer, and an ``append`` by another thread to an
            # exporting array raises ``BufferError``.
            arr = _np.asarray(self.eq[:], dtype=_np.int64).astype(_np.uint64)
            self._eq_np = arr
        return arr

    def probe_eq(self, value: Any) -> Optional[int]:
        """Eq-class code of ``value`` if its class is interned, else None."""
        code = self._codes.get(self._key(value))
        if code is not None:
            return self.eq[code]
        if isinstance(value, (bool, int, float)) and value in (0, 1):
            return self._eqcodes.get(bool(value))
        return None


def _fnv(codes: Iterable[int]) -> int:
    """FNV-1a over a row's eq codes — the row-table hash function.

    Deliberately *not* Python's ``hash``: the same arithmetic runs
    vectorized over uint64 numpy arrays during bulk loads and rebuilds,
    so scalar and vector paths agree bit-for-bit.
    """
    h = _FNV_OFFSET
    for code in codes:
        h = ((h ^ code) * _FNV_PRIME) & _U64
    return h


def refuse_write(self, *args: Any, **kwargs: Any) -> Any:
    """Every mutator of a frozen relation (both backends)."""
    raise EvaluationError(
        f"relation {self.name!r} is frozen: readers share it, nobody writes it"
    )


def bucket_index(
    cols: Sequence[array], live: Optional[bytes], eq_np: Any,
    tuple_keys: bool = False,
) -> Dict[Any, List[int]]:
    """Vectorized bucket build: eq key of ``cols`` -> ascending row ids.

    Stable-sorts the live rows (``live`` is the mask, ``None`` when all
    are) by eq key and splits on key boundaries, so buckets keep
    ascending row order exactly like a per-row loop.  The columns must
    not grow meanwhile: numpy holds their buffers.
    """
    if live is None:
        live_idx = _np.arange(len(cols[0]), dtype=_np.int64)
    else:
        live_idx = _np.frombuffer(live, dtype=_np.uint8).nonzero()[0]
    key_cols = [
        eq_np[_np.asarray(col, dtype=_np.int64)[live_idx]] for col in cols
    ]
    if len(key_cols) == 1:
        order = _np.argsort(key_cols[0], kind="stable")
    else:
        # lexsort: primary key last, stable — within-group row order
        # stays ascending.
        order = _np.lexsort(tuple(reversed(key_cols)))
    rows_sorted = live_idx[order]
    sorted_cols = [col[order] for col in key_cols]
    if len(rows_sorted) == 0:
        return {}
    change = _np.zeros(len(rows_sorted), dtype=bool)
    for col in sorted_cols:
        change[1:] |= col[1:] != col[:-1]
    bounds = change.nonzero()[0].tolist()
    bounds.append(len(rows_sorted))
    rows_list = rows_sorted.tolist()
    key_lists = [col.tolist() for col in sorted_cols]
    index: Dict[Any, List[int]] = {}
    prev = 0
    if tuple_keys:
        for bound in bounds:
            index[tuple([kl[prev] for kl in key_lists])] = rows_list[prev:bound]
            prev = bound
    else:
        keys = key_lists[0]
        for bound in bounds:
            index[keys[prev]] = rows_list[prev:bound]
            prev = bound
    return index


def _row_key(positions: Any, cols: Sequence[array], eq: array, row: int) -> Any:
    """The eq key an index over ``positions`` files ``row`` under."""
    if positions.__class__ is tuple:
        return tuple([eq[cols[p][row]] for p in positions])
    return eq[cols[positions][row]]


def carry_indexes(
    source: Dict[Any, Dict[Any, List[int]]], target: Dict[Any, Any],
    cols: Sequence[array], eq: array, start: int, stop: int,
) -> int:
    """Hand the indexes of a frozen view (``source``: position(s) -> eq
    key -> rows) on to the next view of the same rows plus rows
    ``start..stop-1`` (``target``); returns how many.  Each is a shallow
    copy: the bucket of an appended row is *replaced*, never grown, so a
    reader iterating the older view's bucket sees it as it was."""
    # One atomic read: a reader of the older view may be publishing a
    # position it built lazily into ``source`` right now.
    built = list(source.items())
    for positions, index in built:
        carried = target[positions] = dict(index)
        for row in range(start, stop):
            key = _row_key(positions, cols, eq, row)
            bucket = carried.get(key)
            carried[key] = [row] if bucket is None else bucket + [row]
    return len(built)


class ColumnarRelation:
    """Columnar extension of one predicate, behind the ``Relation`` API."""

    __slots__ = (
        "name",
        "_arity",
        "_interner",
        "_cols",
        "_nrows",
        "_live",
        "_ndead",
        "_ht_sorted",
        "_ht_sorted_rows",
        "_overlay",
        "_overlay_count",
        "_indexes",
        "_composite",
        "_store",
        "_spilled",
        "_version",
        "_npcache",
        "_numbering",
        "_graves",
        "_on_index_built",
    )

    def __init__(
        self,
        name: str,
        arity: Optional[int] = None,
        interner: Optional[ValueInterner] = None,
    ):
        self.name = name
        self._interner = interner if interner is not None else ValueInterner()
        self._arity = arity
        self._cols: List[array] = (
            [_code_col() for _ in range(arity)] if arity is not None else []
        )
        self._nrows = 0
        self._live = bytearray()
        self._ndead = 0
        # Sorted-hash row table + overlay of rows since the last rebuild.
        self._ht_sorted = array("Q")
        self._ht_sorted_rows = array("q")
        self._overlay: Dict[int, List[int]] = {}
        self._overlay_count = 0
        # position -> eq code -> row-id list; positions -> eq key -> rows.
        self._indexes: Dict[int, Dict[int, List[int]]] = {}
        self._composite: Dict[Tuple[int, ...], Dict[Tuple[int, ...], List[int]]] = {}
        self._store: Optional["SpillStore"] = None
        self._spilled = False
        # Monotonic mutation counter + numpy mirror cache for the
        # vectorized join path (columns / sorted join keys per key shape).
        self._version = 0
        self._npcache: Optional[Dict[str, Any]] = None
        # Replaced whenever rows are renumbered, inherited by :meth:`copy`:
        # copies holding one mark number the rows they share alike.
        self._numbering = object()
        # Replaced whenever the row table may have forgotten a tombstoned
        # row (or rows are renumbered): graves older than it are void.
        self._graves = object()
        #: Called once per index built from scratch, when set.
        self._on_index_built: Optional[Any] = None

    # -- arity is assigned post-construction by loaders ------------------
    @property
    def arity(self) -> Optional[int]:
        return self._arity

    @arity.setter
    def arity(self, value: Optional[int]) -> None:
        if value == self._arity:
            return
        if self._arity is not None and self._nrows:
            raise EvaluationError(
                f"cannot change arity of non-empty relation {self.name!r}"
            )
        self._arity = value
        if value is not None and not self._cols:
            self._cols = [_code_col() for _ in range(value)]

    # -- basic protocol --------------------------------------------------
    def __len__(self) -> int:
        return self._nrows - self._ndead

    def __iter__(self) -> Iterator[Fact]:
        self._ensure_resident()
        cols = self._cols
        nrows = self._nrows
        if not cols:  # arity-0 (propositional) extension
            live = self._live
            return iter([() for row in range(nrows) if live[row]])
        # Column-wise lazy decode: zip-of-maps runs the whole row
        # assembly in C.  ``islice`` pins the row count at call time so
        # concurrent appends stay invisible, like the old row loop.
        getitem = self._interner.values.__getitem__
        rows = _islice(
            zip(*[map(getitem, col) for col in cols]), nrows
        )
        if self._ndead:
            return _compress(rows, self._live)
        return rows

    def value_columns(self) -> Optional[List[List[Any]]]:
        """Decoded value columns of the live extension; None for arity-0.

        The column-wise twin of :meth:`__iter__`: each column is one
        C-speed ``map`` over the interner's value list, and no per-row
        tuple is ever built.  Write-back paths that filter on a single
        position (the flush intersects OIDs against the graph before
        touching anything else) read this instead of materializing the
        whole extension as tuples.
        """
        self._ensure_resident()
        cols = self._cols
        if not cols:
            return None
        nrows = self._nrows
        getitem = self._interner.values.__getitem__
        if self._ndead:
            live = self._live
            keep = [row for row in range(nrows) if live[row]]
            return [[getitem(col[row]) for row in keep] for col in cols]
        return [list(map(getitem, _islice(col, nrows))) for col in cols]

    def __contains__(self, fact: Fact) -> bool:
        self._ensure_resident()
        eqrow = self._probe_eqrow(fact)
        return eqrow is not None and self._find(_fnv(eqrow), eqrow) >= 0

    # -- encoding helpers ------------------------------------------------
    def _probe_eqrow(self, fact: Sequence[Any]) -> Optional[Tuple[int, ...]]:
        """Eq-code key of ``fact`` — None when any value is unseen."""
        if self._arity is None or len(fact) != self._arity:
            return None
        probe_eq = self._interner.probe_eq
        out: List[int] = []
        for value in fact:
            code = probe_eq(value)
            if code is None:
                return None
            out.append(code)
        return tuple(out)

    def decode_row(self, row: int) -> Fact:
        values = self._interner.values
        return tuple([values[col[row]] for col in self._cols])

    # -- sorted-hash row table --------------------------------------------
    def _find(self, h: int, eqrow: Tuple[int, ...]) -> int:
        """Row id of the (==-level) matching live row, or -1."""
        eq = self._interner.eq
        cols = self._cols
        live = self._live
        sorted_h = self._ht_sorted
        i = bisect_left(sorted_h, h)
        n = len(sorted_h)
        sorted_rows = self._ht_sorted_rows
        while i < n and sorted_h[i] == h:
            row = sorted_rows[i]
            if live[row]:
                for j, col in enumerate(cols):
                    if eq[col[row]] != eqrow[j]:
                        break
                else:
                    return row
            i += 1
        bucket = self._overlay.get(h)
        if bucket is not None:
            for row in bucket:
                if live[row]:
                    for j, col in enumerate(cols):
                        if eq[col[row]] != eqrow[j]:
                            break
                    else:
                        return row
        return -1

    def _rebuild_table(self) -> None:
        """Re-sort all live rows by hash and drop the overlay."""
        self._graves = object()
        self._overlay = {}
        self._overlay_count = 0
        n = self._nrows
        if not n or self._arity is None:
            self._ht_sorted = array("Q")
            self._ht_sorted_rows = array("q")
            return
        hashes = self._row_hashes_np()
        if self._ndead:
            keep = _np.frombuffer(bytes(self._live), dtype=_np.uint8).nonzero()[0]
            hashes = hashes[keep]
        else:
            keep = _np.arange(n, dtype=_np.int64)
        order = _np.argsort(hashes, kind="stable")
        sorted_h = array("Q")
        sorted_h.frombytes(hashes[order].tobytes())
        sorted_rows = array("q")
        sorted_rows.frombytes(keep[order].astype(_np.int64).tobytes())
        self._ht_sorted = sorted_h
        self._ht_sorted_rows = sorted_rows

    def _row_hashes_np(self) -> Any:
        """uint64 FNV-1a hash per row (vectorized)."""
        eq_np = self._interner.eq_array()
        prime = _np.uint64(_FNV_PRIME)
        hashes = _np.full(self._nrows, _FNV_OFFSET, dtype=_np.uint64)
        for col in self._cols:
            codes = _np.asarray(col, dtype=_np.int64)
            hashes = (hashes ^ eq_np[codes]) * prime
        return hashes

    def _maybe_rebuild(self) -> None:
        if self._overlay_count >= _OVERLAY_LIMIT and (
            3 * self._overlay_count >= len(self._ht_sorted)
        ):
            self._rebuild_table()

    # -- mutation ---------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new (``==``-level).

        Value interning takes an inlined dict-hit fast path — only
        unseen values (and bools, whose dict key is tagged) go through
        :meth:`ValueInterner.encode`.  New rows land in the overlay dict;
        the sorted row table absorbs them at the next amortized rebuild.
        """
        if self._spilled:
            self._ensure_resident()
        fact = tuple(fact)
        if self._arity is None:
            self.arity = len(fact)
        elif len(fact) != self._arity:
            raise EvaluationError(
                f"arity mismatch for {self.name!r}: expected {self._arity}, "
                f"got {len(fact)}"
            )
        interner = self._interner
        codes_get = interner._codes.get
        encode = interner.encode
        eq = interner.eq
        codes = []
        h = _FNV_OFFSET
        for value in fact:
            # Bools must miss this fast path: True/1 share a dict slot.
            if value.__class__ is bool:
                code = encode(value)
            else:
                code = codes_get(value)
                if code is None:
                    code = encode(value)
            codes.append(code)
            h = ((h ^ eq[code]) * _FNV_PRIME) & _U64
        eqrow = tuple([eq[c] for c in codes])
        if self._find(h, eqrow) >= 0:
            return False
        row = self._nrows
        for col, code in zip(self._cols, codes):
            col.append(code)
        self._live.append(1)
        self._nrows = row + 1
        self._version += 1
        # Copy-on-write: :meth:`copy` shares the overlay's buckets.
        bucket = self._overlay.get(h)
        self._overlay[h] = [row] if bucket is None else bucket + [row]
        self._overlay_count += 1
        self._maybe_rebuild()
        if self._indexes:
            for position, index in self._indexes.items():
                ibucket = index.get(eqrow[position])
                if ibucket is None:
                    index[eqrow[position]] = [row]
                else:
                    ibucket.append(row)
        if self._composite:
            for positions, index2 in self._composite.items():
                key = tuple([eqrow[p] for p in positions])
                cbucket = index2.get(key)
                if cbucket is None:
                    index2[key] = [row]
                else:
                    cbucket.append(row)
        return True

    def add_many(self, facts: Iterable[Iterable[Any]]) -> int:
        """Insert many facts; returns the number of new ones.

        Large batches take the vectorized bulk path (see
        :meth:`_bulk_insert`); small ones fall back to per-fact
        :meth:`add`.
        """
        if self._spilled:
            self._ensure_resident()
        fact_list = facts if isinstance(facts, list) else list(facts)
        keep = self._bulk_insert(fact_list)
        if keep is None:
            added = 0
            add = self.add
            for fact in fact_list:
                if add(fact):
                    added += 1
            return added
        return int(keep.sum())

    def add_many_report(self, facts: Iterable[Fact]) -> List[Fact]:
        """Bulk insert; returns the facts that were new, in batch order.

        Dedup is exactly sequential-:meth:`add` semantics: within the
        batch the first occurrence of an ``==``-level row wins.  Used by
        the engine's commit path, which needs the per-predicate delta
        (the new facts) and not just a count.
        """
        if self._spilled:
            self._ensure_resident()
        fact_list = facts if isinstance(facts, list) else list(facts)
        keep = self._bulk_insert(fact_list)
        if keep is None:
            add = self.add
            return [fact for fact in fact_list if add(fact)]
        keep_list = keep.tolist()
        return [fact for fact, kept in zip(fact_list, keep_list) if kept]

    def add_columns(self, cols: Sequence[Sequence[Any]]) -> int:
        """Insert facts given as parallel value columns; returns #new.

        The column-wise twin of :meth:`add_many`: callers that already
        hold their data as columns (the graph/dictionary extraction
        layer) skip the transpose entirely and feed the vectorized
        insert core directly.  Small batches fall back to the per-fact
        path.
        """
        if self._spilled:
            self._ensure_resident()
        col_list = [c if isinstance(c, list) else list(c) for c in cols]
        if self._arity is None:
            self.arity = len(col_list)
        elif len(col_list) != self._arity:
            raise EvaluationError(
                f"arity mismatch for {self.name!r}: expected {self._arity}, "
                f"got {len(col_list)} columns"
            )
        if not col_list:
            return 0
        count = len(col_list[0])
        for col in col_list[1:]:
            if len(col) != count:
                raise EvaluationError(
                    f"ragged columns for {self.name!r}: {len(col)} != {count}"
                )
        if not count:
            return 0
        if count >= 64:
            keep = self._bulk_insert_cols(col_list, count)
            if keep is not None:
                return int(keep.sum())
        added = 0
        add = self.add
        for fact in zip(*col_list):
            if add(fact):
                added += 1
        return added

    def _bulk_insert(self, fact_list: List[Any]) -> Optional[Any]:
        """Vectorized insert; returns the kept-row bool mask.

        Returns ``None`` when the batch is too small — the caller falls
        back to per-fact :meth:`add`.
        """
        if len(fact_list) < 64:
            return None
        arity = self._arity
        if arity is None:
            arity = len(fact_list[0])
            self.arity = arity
        for fact in fact_list:
            if len(fact) != arity:
                raise EvaluationError(
                    f"arity mismatch for {self.name!r}: expected {arity}, "
                    f"got {len(fact)}"
                )
        if not arity:
            return None  # propositional facts: per-fact path
        return self._bulk_insert_cols(list(zip(*fact_list)), len(fact_list))

    def _bulk_insert_cols(
        self, val_cols: Sequence[Sequence[Any]], nfacts: int
    ) -> Optional[Any]:
        """Vectorized insert core over value columns; kept-row bool mask.

        Encodes whole columns (one C-speed ``map`` over the interner
        dict per column), dedups on vectorized FNV-1a row hashes
        (suspect hashes are verified exactly, so collisions stay
        correct), extends the columns in one shot, and maintains the
        sorted row table, overlay, any built indexes, and — when it is
        current — the numpy mirror cache including its sorted join keys
        (see :meth:`_npcache_append`).
        """
        if not val_cols:
            return None
        arity = self._arity
        interner = self._interner
        code_cols = [interner.encode_column(col_vals) for col_vals in val_cols]
        exact = _np.asarray(code_cols, dtype=_np.int32).T
        eq_np = interner.eq_array()
        prime = _np.uint64(_FNV_PRIME)
        hashes = _np.full(nfacts, _FNV_OFFSET, dtype=_np.uint64)
        for j in range(arity):
            hashes = (hashes ^ eq_np[exact[:, j]]) * prime
        # Candidate duplicates: repeated hash within the batch, or hash
        # present in the sorted table or the overlay.
        _, inverse, counts = _np.unique(
            hashes, return_inverse=True, return_counts=True
        )
        suspect_mask = counts[inverse] > 1
        if len(self._ht_sorted):
            table = _np.frombuffer(self._ht_sorted, dtype=_np.uint64)
            pos = _np.searchsorted(table, hashes)
            pos_c = _np.minimum(pos, len(table) - 1)
            suspect_mask |= table[pos_c] == hashes
        if self._overlay:
            overlay_keys = _np.fromiter(
                self._overlay.keys(), dtype=_np.uint64, count=len(self._overlay)
            )
            suspect_mask |= _np.isin(hashes, overlay_keys)
        suspect = suspect_mask.nonzero()[0]
        keep = _np.ones(nfacts, dtype=bool)
        if len(suspect):
            # Resolve the (rare) suspects exactly, in batch order.
            eq = interner.eq
            seen: Dict[Tuple[int, ...], None] = {}
            hashes_list = hashes.tolist()
            for i in suspect.tolist():
                eqrow = tuple([eq[c] for c in exact[i].tolist()])
                if eqrow in seen or self._find(hashes_list[i], eqrow) >= 0:
                    keep[i] = False
                else:
                    seen[eqrow] = None
        added = int(keep.sum())
        if not added:
            return keep
        first_row = self._nrows
        if added != nfacts:
            exact = exact[keep]
            hashes = hashes[keep]
            for j, col in enumerate(self._cols):
                col.extend(exact[:, j].tolist())
        else:
            # All rows kept: extend straight from the probed code lists
            # (skips an array->list round-trip per column).
            for j, col in enumerate(self._cols):
                col.extend(code_cols[j])
        self._live.extend(b"\x01" * added)
        self._nrows += added
        cache = self._npcache
        prev_version = self._version
        self._version += 1
        # Row-table maintenance: big batches re-sort once; small ones
        # land in the overlay like per-fact adds.
        if added >= _OVERLAY_LIMIT or 3 * (
            self._overlay_count + added
        ) >= len(self._ht_sorted):
            self._rebuild_table()
        else:
            overlay = self._overlay
            for offset, h in enumerate(hashes.tolist()):
                bucket = overlay.get(h)
                row = first_row + offset
                overlay[h] = [row] if bucket is None else bucket + [row]
            self._overlay_count += added
        if self._indexes or self._composite:
            eq_cols = [eq_np[exact[:, j]].tolist() for j in range(arity)]
            for position, index in self._indexes.items():
                ibucket_get = index.get
                col_keys = eq_cols[position]
                for offset in range(added):
                    key = col_keys[offset]
                    ibucket = ibucket_get(key)
                    if ibucket is None:
                        index[key] = [first_row + offset]
                    else:
                        ibucket.append(first_row + offset)
            for positions, index2 in self._composite.items():
                key_cols = [eq_cols[p] for p in positions]
                cbucket_get = index2.get
                for offset in range(added):
                    key = tuple([kc[offset] for kc in key_cols])
                    cbucket = cbucket_get(key)
                    if cbucket is None:
                        index2[key] = [first_row + offset]
                    else:
                        cbucket.append(first_row + offset)
        self._npcache_append(cache, prev_version, exact, first_row, added)
        return keep

    def _npcache_append(
        self, cache: Optional[Dict[str, Any]], prev_version: int,
        exact: Any, first_row: int, added: int,
    ) -> None:
        """Extend the numpy mirror cache instead of invalidating it.

        This is the incremental sorted-join-key maintenance of the chase
        inner loop: each commit's delta merges into the existing sorted
        ``np_join_key`` arrays, so iteration ``k+1`` pays O(delta log
        delta + n) for the merge instead of O(n log n) for a full
        re-sort of every key shape in use.

        Only the bulk-insert path calls this (new rows are all live and
        appended at the end).  The merged keys are bit-identical to a
        full rebuild: the rebuild stable-argsorts keys taken in
        ascending row order, and since every new row id exceeds every
        existing one, inserting the (stable-sorted) new block at
        ``searchsorted(side="right")`` positions reproduces exactly the
        tie order the full stable sort would produce.  A cache whose
        version predates this batch (per-fact adds or removes happened
        since it was built) is left alone and rebuilds lazily.
        """
        if cache is None or cache["version"] != prev_version:
            return
        new_cols = [
            _np.ascontiguousarray(exact[:, j]) for j in range(exact.shape[1])
        ]
        cache["cols"] = [
            _np.concatenate((old, new))
            for old, new in zip(cache["cols"], new_cols)
        ]
        new_rows = _np.arange(first_row, first_row + added, dtype=_np.int64)
        cache["rows"] = _np.concatenate((cache["rows"], new_rows))
        keys_cache = cache["keys"]
        if keys_cache:
            prime = _np.uint64(_FNV_PRIME)
            merged: Dict[Tuple[int, ...], Tuple[Any, Any]] = {}
            offsets = _np.arange(added)
            for positions, (skeys, srows) in keys_cache.items():
                if len(positions) == 1:
                    nk = new_cols[positions[0]]
                else:
                    nk = _np.full(added, _FNV_OFFSET, dtype=_np.uint64)
                    for position in positions:
                        nk = (
                            nk ^ new_cols[position].astype(_np.uint64)
                        ) * prime
                norder = _np.argsort(nk, kind="stable")
                nk = nk[norder]
                nrows_sorted = new_rows[norder]
                idx_new = _np.searchsorted(skeys, nk, side="right") + offsets
                total = len(skeys) + added
                mkeys = _np.empty(total, dtype=skeys.dtype)
                mrows = _np.empty(total, dtype=srows.dtype)
                new_mask = _np.zeros(total, dtype=bool)
                new_mask[idx_new] = True
                mkeys[idx_new] = nk
                mrows[idx_new] = nrows_sorted
                old_mask = ~new_mask
                mkeys[old_mask] = skeys
                mrows[old_mask] = srows
                merged[positions] = (mkeys, mrows)
            cache["keys"] = merged
        cache["version"] = self._version

    def remove(self, fact: Fact) -> bool:
        """Delete a fact (``==``-level); returns True when present.

        Deletion tombstones the row: columns and index buckets keep the
        slot (probes skip dead rows), and :meth:`compact` reclaims space
        at engine safe points.  This keeps every maintenance step O(1)
        — the tuple backend paid an O(bucket) ``list.remove`` here.
        """
        return self._tombstone(fact) >= 0

    def _tombstone(self, fact: Fact) -> int:
        if self._spilled:
            self._ensure_resident()
        eqrow = self._probe_eqrow(tuple(fact))
        if eqrow is None:
            return -1
        row = self._find(_fnv(eqrow), eqrow)
        if row >= 0:
            self._flip(row, 0)
        return row

    def _flip(self, row: int, live: int) -> None:
        self._live[row] = live
        self._ndead += 1 - 2 * live
        self._version += 1

    def bury(self, fact: Fact) -> Optional[Tuple[Any, int, int]]:
        """:meth:`remove`, returning the *grave* that :meth:`unbury`
        needs to show the fact again by setting its row's live byte —
        no hashing, no new row.  None when there is nothing to revive:
        the fact was absent, or the row holds another member of its
        ``==`` class (``True`` for ``1``) than an ``add`` would store."""
        row = self._tombstone(fact)
        probe = self._interner.probe
        if row < 0 or any(c[row] != probe(v) for c, v in zip(self._cols, fact)):
            return None
        return self._graves, row, len(self._indexes) + len(self._composite)

    def unbury(self, grave: Tuple[Any, int, int]) -> bool:
        """Revive a buried row, until :meth:`rebury`; False — the caller
        adds the fact instead — once the row table has forgotten it.
        Call with no index iterator alive."""
        mark, row, built = grave
        if mark is not self._graves or self._live[row]:
            return False
        if built != len(self._indexes) + len(self._composite):
            # An index built while the row was dead does not name it.
            eq = self._interner.eq
            for positions, buckets in _chain(
                self._indexes.items(), self._composite.items()
            ):
                key = _row_key(positions, self._cols, eq, row)
                bucket = buckets.setdefault(key, [])
                at = bisect_left(bucket, row)
                if bucket[at:at + 1] != [row]:
                    bucket.insert(at, row)
        self._flip(row, 1)
        return True

    def rebury(self, grave: Tuple[Any, int, int]) -> None:
        self._flip(grave[1], 0)

    def reset(self, facts: Iterable[Iterable[Any]]) -> None:
        """Replace the whole extension; indexes rebuild lazily."""
        self._clear_storage()
        self.add_many(facts)

    def _clear_storage(self) -> None:
        self._cols = [_code_col() for _ in range(self._arity)] if self._arity else []
        self._nrows = 0
        self._live = bytearray()
        self._ndead = 0
        self._ht_sorted = array("Q")
        self._ht_sorted_rows = array("q")
        self._overlay = {}
        self._overlay_count = 0
        self._indexes = {}
        self._composite = {}
        self._spilled = False
        self._version += 1
        self._npcache = None
        self._numbering = self._graves = object()

    def freeze(self) -> "ColumnarRelation":
        """Make this relation read-only, for good; returns it.  Every
        mutator then raises, so threads may share it: only its lazy
        caches (indexes, numpy mirrors) are ever assigned again, each
        built locally and published by one assignment — two first
        readers at worst build the same cache twice."""
        self._ensure_resident()
        self.__class__ = _FrozenColumnarRelation
        return self

    def copy(self, interner: Optional[ValueInterner] = None) -> "ColumnarRelation":
        """A fresh relation with the same facts; its indexes are built on
        first use or taken from an earlier copy (:meth:`carry_indexes`),
        the row-table overlay's buckets shared copy-on-write."""
        self._ensure_resident()
        clone = ColumnarRelation(
            self.name,
            self._arity,
            interner if interner is not None else self._interner,
        )
        if interner is not None and interner is not self._interner:
            clone.add_many(self)
            return clone
        clone._cols = [col[:] for col in self._cols]
        clone._nrows = self._nrows
        clone._live = bytearray(self._live)
        clone._ndead = self._ndead
        clone._ht_sorted = self._ht_sorted[:]
        clone._ht_sorted_rows = self._ht_sorted_rows[:]
        clone._overlay = dict(self._overlay)
        clone._overlay_count = self._overlay_count
        clone._numbering = self._numbering
        return clone

    def carry_indexes(self, previous: "ColumnarRelation") -> int:
        """Take over the indexes ``previous`` — an earlier copy of the
        relation this one was copied from — has built; returns how many.
        None when rows were renumbered in between."""
        if previous._numbering is not self._numbering:
            return 0
        since = (self._cols, self._interner.eq, previous._nrows, self._nrows)
        return carry_indexes(
            previous._indexes, self._indexes, *since
        ) + carry_indexes(previous._composite, self._composite, *since)

    def compact(self) -> None:
        """Drop tombstoned rows and stale buckets (engine safe points only).

        Renumbers rows, so callers must not hold live index iterators.
        """
        if not self._ndead:
            return
        live = self._live
        keep = [row for row in range(self._nrows) if live[row]]
        self._cols = [
            array(_CODE, [col[row] for row in keep]) for col in self._cols
        ]
        self._nrows = len(keep)
        self._live = bytearray(b"\x01" * self._nrows)
        self._ndead = 0
        self._indexes = {}
        self._composite = {}
        self._version += 1
        self._npcache = None
        self._numbering = object()
        self._rebuild_table()

    # -- indexes -----------------------------------------------------------
    def _ensure_index(self, position: int) -> Dict[int, List[int]]:
        index = self._indexes.get(position)
        if index is None:
            index = self._indexes[position] = self._build_index((position,))
        return index

    def _ensure_composite(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[int, ...], List[int]]:
        index = self._composite.get(positions)
        if index is None:
            index = self._composite[positions] = self._build_index(
                positions, tuple_keys=True
            )
        return index

    def _build_index(
        self, positions: Tuple[int, ...], tuple_keys: bool = False
    ) -> Dict[Any, List[int]]:
        """Eq key at ``positions`` -> ascending live row ids."""
        if self._on_index_built is not None:
            self._on_index_built()
        cols = [self._cols[p] for p in positions]
        if self._nrows >= 4096:
            return bucket_index(
                cols,
                bytes(self._live) if self._ndead else None,
                self._interner.eq_array(),
                tuple_keys,
            )
        index: Dict[Any, List[int]] = {}
        eq = self._interner.eq
        live = self._live
        first = cols[0]
        for row in range(self._nrows):
            if live[row]:
                if tuple_keys:
                    key = tuple([eq[col[row]] for col in cols])
                else:
                    key = eq[first[row]]
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        return index

    # -- vectorized join support (execute_plan_vectorized) ---------------
    def np_columns(self) -> Tuple[List[Any], Any]:
        """(int64 column arrays, live row-id array) — cached per version."""
        if self._spilled:
            self._ensure_resident()
        cache = self._npcache
        if cache is None or cache["version"] != self._version:
            cols = [_np.array(col, dtype=_np.int32) for col in self._cols]
            if self._ndead:
                rows = _np.frombuffer(
                    bytes(self._live), dtype=_np.uint8
                ).nonzero()[0]
            else:
                rows = _np.arange(self._nrows, dtype=_np.int64)
            cache = {"version": self._version, "cols": cols, "rows": rows,
                     "keys": {}}
            self._npcache = cache
        return cache["cols"], cache["rows"]

    def np_join_key(self, positions: Tuple[int, ...]) -> Tuple[Any, Any]:
        """(sorted key array, live row ids in key order) for a key shape.

        Single-position keys sort the raw exact codes (collision-free);
        multi-position keys fold exact codes with FNV-1a, so callers
        must exact-verify matches after expansion.  Cached per relation
        version — within one chase iteration every rule joining on the
        same positions reuses one sort.
        """
        cols, rows = self.np_columns()
        cache = self._npcache
        entry = cache["keys"].get(positions)
        if entry is None:
            if len(positions) == 1:
                keys = cols[positions[0]][rows]
            else:
                keys = _np.full(len(rows), _FNV_OFFSET, dtype=_np.uint64)
                prime = _np.uint64(_FNV_PRIME)
                for position in positions:
                    keys = (
                        keys ^ cols[position][rows].astype(_np.uint64)
                    ) * prime
            order = _np.argsort(keys, kind="stable")
            entry = (keys[order], rows[order])
            cache["keys"][positions] = entry
        return entry

    def candidate_rows(
        self, positions: Tuple[int, ...], eq_key: Tuple[int, ...]
    ) -> Sequence[int]:
        """Row-id bucket for an eq-code key (batch executor fast path).

        Buckets may contain tombstoned rows; callers must check
        :attr:`live_rows`.
        """
        if self._spilled:
            self._ensure_resident()
        if not self._nrows:
            return ()
        ncols = len(self._cols)
        if len(positions) == 1:
            position = positions[0]
            if position >= ncols:
                return ()
            index = self._indexes.get(position)
            if index is None:
                index = self._ensure_index(position)
            return index.get(eq_key[0], ())
        for position in positions:
            if position >= ncols:
                return ()
        index2 = self._composite.get(positions)
        if index2 is None:
            index2 = self._ensure_composite(positions)
        return index2.get(eq_key, ())

    @property
    def live_rows(self) -> bytearray:
        return self._live

    @property
    def columns(self) -> List[array]:
        return self._cols

    @property
    def has_dead_rows(self) -> bool:
        return self._ndead > 0

    @property
    def dead_rows(self) -> int:
        return self._ndead

    def all_rows(self) -> Iterator[int]:
        self._ensure_resident()
        live = self._live
        if not self._ndead:
            return iter(range(self._nrows))
        return (row for row in range(self._nrows) if live[row])

    # -- facade lookups ----------------------------------------------------
    def lookup_key(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Iterable[Fact]:
        """Exact-match candidates for values ``key`` at ``positions``.

        Same contract as the tuple backend: buckets are ``==``-keyed, so
        callers still apply their own values_equal verification.
        """
        self._ensure_resident()
        probe_eq = self._interner.probe_eq
        eq_key: List[int] = []
        for value in key:
            code = probe_eq(value)
            if code is None:
                return ()
            eq_key.append(code)
        bucket = self.candidate_rows(positions, tuple(eq_key))
        if not bucket:
            return ()
        live = self._live
        decode = self.decode_row
        return [decode(row) for row in bucket if live[row]]

    def lookup(self, bound: Sequence[Tuple[int, Any]]) -> Iterator[Fact]:
        """Iterate facts matching (position, value) constraints.

        Matching is values_equal-strict (satellite fix: the tuple
        backend's ``==`` filter equated 1/1.0/True).
        """
        self._ensure_resident()
        if not bound:
            yield from self
            return
        if not self._nrows or any(p >= len(self._cols) for p, _ in bound):
            return
        interner = self._interner
        best_bucket: Optional[List[int]] = None
        exact: List[Tuple[int, Optional[int]]] = []
        for position, value in bound:
            eq_code = interner.probe_eq(value)
            if eq_code is None:
                return
            bucket = self._ensure_index(position).get(eq_code)
            if bucket is None:
                return
            exact.append((position, interner.probe(value)))
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_bucket = bucket
        live = self._live
        cols = self._cols
        for row in best_bucket or ():
            if not live[row]:
                continue
            for position, code in exact:
                if code is None or cols[position][row] != code:
                    break
            else:
                yield self.decode_row(row)

    # -- spill-to-disk -----------------------------------------------------
    def attach_store(self, store: "SpillStore") -> None:
        self._store = store

    @property
    def spilled(self) -> bool:
        return self._spilled

    def spill(self) -> int:
        """Write column pages to the attached store and free memory.

        Returns the number of facts now cold.  ``len`` stays accurate
        without rehydration; any other access rehydrates transparently.
        """
        if self._spilled or self._store is None:
            return 0
        if self._arity is None or not self._nrows:
            return 0
        self.compact()
        count = self._nrows
        self._store.write(self.name, self._arity, self._cols)
        self._cols = [_code_col() for _ in range(self._arity)]
        self._ht_sorted = array("Q")
        self._ht_sorted_rows = array("q")
        self._overlay = {}
        self._overlay_count = 0
        self._indexes = {}
        self._composite = {}
        self._spilled = True
        self._npcache = None
        return count

    def _ensure_resident(self) -> None:
        if not self._spilled:
            return
        assert self._store is not None
        cols = self._store.read(self.name, self._arity or 0)
        self._spilled = False
        self._cols = cols
        self._version += 1
        self._numbering = object()
        self._rebuild_table()


class _FrozenColumnarRelation(ColumnarRelation):
    __slots__ = ()
    add = add_many = add_many_report = add_columns = refuse_write
    remove = bury = unbury = rebury = reset = compact = spill = refuse_write


class SpillStore:
    """sqlite3-backed cold storage for columnar pages.

    One row per (relation, column, page): codes are packed as raw
    code-column (``array('i')``) bytes, so round-trips are exact and
    cheap.  The
    interner always stays in memory — codes are only meaningful within
    the owning database's process.
    """

    PAGE_ROWS = 8192

    def __init__(self, path: Optional[str] = None):
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".sqlite3")
            os.close(fd)
            self._own_file = True
        else:
            self._own_file = False
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS pages ("
            " rel TEXT NOT NULL, col INTEGER NOT NULL, page INTEGER NOT NULL,"
            " data BLOB NOT NULL, PRIMARY KEY (rel, col, page))"
        )
        self._conn.commit()

    def write(self, name: str, arity: int, cols: List[Sequence[int]]) -> None:
        cur = self._conn.cursor()
        cur.execute("DELETE FROM pages WHERE rel = ?", (name,))
        page_rows = self.PAGE_ROWS
        for col_no in range(arity):
            col = cols[col_no]
            for page_no, start in enumerate(range(0, len(col), page_rows)):
                blob = array(_CODE, col[start : start + page_rows]).tobytes()
                cur.execute(
                    "INSERT INTO pages (rel, col, page, data) VALUES (?, ?, ?, ?)",
                    (name, col_no, page_no, blob),
                )
        self._conn.commit()

    def read(self, name: str, arity: int) -> List[array]:
        cols = [_code_col() for _ in range(arity)]
        cur = self._conn.execute(
            "SELECT col, page, data FROM pages WHERE rel = ? ORDER BY col, page",
            (name,),
        )
        for col_no, _page, blob in cur:
            cols[col_no].frombytes(blob)
        return cols

    def close(self) -> None:
        try:
            self._conn.close()
        finally:
            if self._own_file:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __del__(self) -> None:  # best-effort cleanup of temp files
        try:
            self.close()
        except Exception:
            pass
