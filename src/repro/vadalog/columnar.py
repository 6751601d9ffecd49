"""Columnar fact storage: dictionary-encoded columns + row-id indexes.

A tuple-set relation stores every fact as a Python tuple inside a set,
with per-position/composite indexes holding fact references (the test
suite keeps one, ``tests/reference.py``'s ``Relation``, as the storage
reference of its relation-level differentials).  At registry scale (Section 6 of the paper targets
national company registries) the per-tuple object overhead dominates:
each 2-ary fact costs a tuple header, two cell pointers, and a set slot,
and every index bucket duplicates the references.

This module keeps the same relation facade but stores facts
column-wise, and it is the chase's one fact store:

* a per-database :class:`ValueInterner` maps each constant to a small
  integer *code*; columns are ``array('i')`` buffers of codes, so a
  stored cell costs four bytes regardless of the value;
* row membership/dedup goes through a sorted-hash row table: two
  parallel ``array`` buffers (FNV-1a row hash, row id) ordered by hash,
  probed with ``bisect`` (~16 bytes/row), plus a small dict overlay for
  rows inserted since the last merge.  Merges are amortized
  geometrically and vectorized over numpy;
* indexes map encoded keys to row-id lists, so buckets hold ints rather
  than fact references;
* deletion tombstones rows (probes skip dead rows) and compaction runs
  only at engine safe points, so in-flight index iterators stay valid.

Equality semantics — the subtle part
------------------------------------

Python hashes/equates ``1 == 1.0 == True`` while the chase's
``values_equal`` keeps ``True`` apart from ``1``/``1.0``.  A tuple set
inherits Python semantics for storage-level dedup (a set keeps
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

import threading
from bisect import bisect_left
from array import array
from itertools import chain as _chain, compress as _compress, islice as _islice, repeat as _repeat
from operator import is_ as _is
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError, ResourceLimitError

import numpy as _np

Fact = Tuple[Any, ...]

#: Exact-code dictionary key tag for bools (so True never collides with 1).
_BOOL = ("__bool__",)

#: FNV-1a parameters for row hashing (deterministic, numpy-friendly).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

#: Overlay size that triggers a row-table merge (amortized with the
#: relative bound in :meth:`ColumnarRelation._maybe_merge`).
_OVERLAY_LIMIT = 1024

#: Typecode of the relation code columns: C ``int``, 4 bytes per code
#: instead of a list slot's 8-byte pointer plus a boxed int.  Interner
#: codes are dense indices into ``ValueInterner.values``.
_CODE = "i"

#: Codes an interner may issue: every code column (``array('i')``, the
#: ``int32`` numpy mirrors) holds one in 32 bits, so the interner
#: refuses a value past this instead of letting a cast wrap it.
CODE_CEILING = 2**31 - 1


def _code_col() -> array:
    """A fresh, empty code column."""
    return array(_CODE)


def _check_ceiling(codes: int) -> None:
    """Refuse to issue ``codes`` codes if that passes :data:`CODE_CEILING`."""
    if codes > CODE_CEILING:
        raise ResourceLimitError(
            f"value dictionary full: {codes} codes pass the int32 ceiling "
            f"{CODE_CEILING}", resource="codes", limit=CODE_CEILING,
        )


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
                    code = self._add(value, key)
        return code

    def _add(self, value: Any, key: Any) -> int:
        """A new code for ``value`` (lock held, ``key`` not interned)."""
        code = len(self.values)
        _check_ceiling(code + 1)
        self.values.append(value)
        if value != value:  # NaN
            self.nan_codes = self.nan_codes | {code}
        if isinstance(value, (bool, int, float)) and value in (0, 1):
            # The 0/1 family spans types (True==1==1.0): one eq class,
            # anchored at its first member.
            self.eq.append(self._eqcodes.setdefault(bool(value), code))
        else:
            self.eq.append(code)
        self._codes[key] = code  # published last, as in encode_fill
        return code

    def probe(self, value: Any) -> Optional[int]:
        """Exact code of ``value`` if interned, else None (no insert)."""
        return self._codes.get(self._key(value))

    def probe_column(self, col_vals: Sequence[Any]) -> Any:
        """:meth:`probe` over a whole column: one C-speed ``map`` over
        the code dict (bools, whose dict keys are tagged, apart) into an
        ``int64`` numpy array, -1 where a value is not interned."""
        keys = col_vals
        if bool in set(map(type, col_vals)):
            keys = [(_BOOL, v) if v.__class__ is bool else v for v in col_vals]
        return _np.fromiter(
            map(self._codes.get, keys, _repeat(-1)), _np.int64, len(col_vals)
        )

    def encode_column(self, col_vals: Sequence[Any]) -> Any:
        """:meth:`encode` over a whole column, as an ``int32`` numpy
        array: a bulk probe, and one :meth:`encode_fill` call for the
        values it did not find."""
        codes = self.probe_column(col_vals)
        miss = (codes < 0).nonzero()[0]
        if len(miss):
            misses = list(map(col_vals.__getitem__, miss.tolist()))
            codes[miss] = self.encode_fill(misses, [None] * len(misses))
        return codes.astype(_np.int32)

    def encode_fill(self, col_vals: Sequence[Any], raw: List[Any]) -> List[Any]:
        """Fill the ``None`` slots of a bulk-probe result in place.

        ``raw[i] is None`` means ``col_vals[i]`` missed the code dict.
        Everything happens under one lock for the whole column (bulk
        loads intern millions of first-seen values), and a code is
        published in ``_codes`` only once ``values``/``eq`` hold it,
        because whoever finds it there indexes both at once.  Misses
        that are all plain ``str`` (the bulk of a registry: ids, OIDs,
        names) are interned in bulk, each its own ``eq`` class; any
        other mix goes value by value through :meth:`_add`.
        """
        every = raw.count(None) == len(raw)
        misses = list(col_vals) if every else list(
            _compress(col_vals, map(_is, raw, _repeat(None)))
        )
        codes = self._codes
        with self._lock:
            if set(map(type, misses)) == {str}:
                fresh: Any = dict.fromkeys(misses)
                if not codes.keys().isdisjoint(fresh):  # another thread won
                    fresh = [v for v in fresh if v not in codes]
                base = len(self.values)
                _check_ceiling(base + len(fresh))
                self.values.extend(fresh)
                self.eq.extend(range(base, base + len(fresh)))
                codes.update(zip(fresh, range(base, base + len(fresh))))
                found = list(map(codes.__getitem__, misses))
            else:
                found = []
                for v in misses:
                    key = (_BOOL, v) if v.__class__ is bool else v
                    code = codes.get(key)
                    found.append(self._add(v, key) if code is None else code)
        if every:
            return found
        filled = iter(found)
        for i, code in enumerate(raw):
            if code is None:
                raw[i] = next(filled)
        return raw

    def eq_array(self) -> Any:
        """Cached ``uint64`` numpy mirror of :attr:`eq`, refreshed lazily
        by the codes issued since: a view of a buffer with room to
        grow, whose filled cells never change (eq codes are final), so
        an older view stays valid while a newer one is handed out."""
        arr = self._eq_np
        count = len(self.eq)
        if arr is None or len(arr) != count:
            have = 0 if arr is None else len(arr)
            buffer = arr.base if arr is not None and arr.base is not None else arr
            if buffer is None or len(buffer) < count:
                buffer = _np.empty(count + (count >> 2) + 1024, dtype=_np.uint64)
                buffer[:have] = arr if have else ()
            # Mirror a slice: numpy may drop the GIL while it holds the
            # exported buffer, and an ``append`` by another thread to an
            # exporting array raises ``BufferError``.
            buffer[have:count] = _np.frombuffer(self.eq[have:count], dtype=_np.int32)
            arr = self._eq_np = buffer[:count]
        return arr

    def probe_eq(self, value: Any) -> Optional[int]:
        """Eq-class code of ``value`` if its class is interned, else None."""
        code = self._codes.get(self._key(value))
        if code is not None:
            return self.eq[code]
        if isinstance(value, (bool, int, float)) and value in (0, 1):
            return self._eqcodes.get(bool(value))
        return None


class Codes(_np.ndarray):
    """A column of one interner's codes (``int32``, -1 an unset cell),
    passed where a writer takes values: a writer on the same interner
    stores it as it is, nothing decoded or probed.  Made with
    ``array.view(Codes)``, which copies nothing."""


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
    """Every mutator of a frozen relation."""
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


def merge_sorted(keys: Any, rows: Any, new_keys: Any, new_rows: Any) -> Tuple[Any, Any]:
    """The sorted numpy ``new_keys`` (and their ``new_rows``) slotted into
    the sorted ``keys`` (``rows``) after their equals: what one stable
    sort of both gives when every new row follows every old one."""
    at = _np.searchsorted(keys, new_keys, side="right") + _np.arange(len(new_keys))
    old_at = _np.ones(len(keys) + len(new_keys), dtype=bool)
    old_at[at] = False
    merged_keys = _np.empty(len(old_at), dtype=keys.dtype)
    merged_rows = _np.empty(len(old_at), dtype=rows.dtype)
    merged_keys[at], merged_rows[at] = new_keys, new_rows
    merged_keys[old_at], merged_rows[old_at] = keys, rows
    return merged_keys, merged_rows


def _file_rows(
    buckets: Dict[Any, List[int]], keys: List[Any], first_row: int,
    shared: bool = False,
) -> None:
    """File rows ``first_row``, ``first_row + 1``, ... under ``keys``, one
    key a row, in ``buckets`` (key -> ascending rows): one C-speed update
    when the keys are distinct and all new, else key by key, a
    ``shared`` bucket (the overlay's, which :meth:`ColumnarRelation.copy`
    shares) replaced instead of grown."""
    rows = range(first_row, first_row + len(keys))
    if len(set(keys)) == len(keys) and buckets.keys().isdisjoint(keys):
        buckets.update(zip(keys, map(list, zip(rows))))
        return
    for key, row in zip(keys, rows):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        elif shared:
            buckets[key] = bucket + [row]
        else:
            bucket.append(row)


class ColumnarRelation:
    """Columnar extension of one predicate, behind the relation facade."""

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
        # Sorted-hash row table + overlay of rows since the last merge.
        self._ht_sorted = array("Q")
        self._ht_sorted_rows = array("q")
        self._overlay: Dict[int, List[int]] = {}
        self._overlay_count = 0
        # position -> eq code -> row-id list; positions -> eq key -> rows.
        self._indexes: Dict[int, Dict[int, List[int]]] = {}
        self._composite: Dict[Tuple[int, ...], Dict[Tuple[int, ...], List[int]]] = {}
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
        """Decoded value columns of the live extension; None for arity-0:
        the column-wise twin of :meth:`__iter__`, one C-speed ``map``
        over the interner's value list per column."""
        cols = self.code_columns()
        getitem = self._interner.values.__getitem__
        return None if cols is None else [
            list(map(getitem, col.tolist())) for col in cols
        ]

    def code_columns(self) -> Optional[List[Any]]:
        """``int32`` numpy code columns of the live extension, in row
        order; None for arity-0 — for a reader on the same interner."""
        if not self._cols:
            return None
        cols = [_np.array(col, dtype=_np.int32) for col in self._cols]
        if self._ndead:
            live = _np.frombuffer(bytes(self._live), dtype=_np.bool_)
            cols = [col[live] for col in cols]
        return cols

    def __contains__(self, fact: Fact) -> bool:
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
        """Re-sort all live rows by hash and drop the overlay: once rows
        are renumbered (compaction); else :meth:`_merge_table`."""
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

    def _merge_table(self) -> None:
        """Fold the rows added since the last merge (the overlay's: the
        last ``_overlay_count``) into the sorted table and drop the
        overlay — the table :meth:`_rebuild_table` builds, live rows
        sorted by hash, ties in row order, in O(table + new rows): the
        new rows are hashed and sorted alone, and every one of them
        follows every row already in the table.  Dead rows leave the
        table, so graves taken before it are void."""
        start = self._nrows - self._overlay_count
        self._graves = object()
        self._overlay = {}
        self._overlay_count = 0
        if self._arity is None:
            return
        old_h = _np.frombuffer(self._ht_sorted, dtype=_np.uint64)
        old_rows = _np.frombuffer(self._ht_sorted_rows, dtype=_np.int64)
        new_h = self._row_hashes_np(start)
        new_rows = _np.arange(start, self._nrows, dtype=_np.int64)
        if self._ndead:
            live = _np.frombuffer(bytes(self._live), dtype=_np.bool_)
            old_live = live[old_rows]
            old_h, old_rows = old_h[old_live], old_rows[old_live]
            new_live = live[start:]
            new_h, new_rows = new_h[new_live], new_rows[new_live]
        order = _np.argsort(new_h, kind="stable")
        merged_h, merged_rows = merge_sorted(
            old_h, old_rows, new_h[order], new_rows[order]
        )
        del old_h, old_rows
        self._ht_sorted = array("Q", merged_h.tobytes())
        self._ht_sorted_rows = array("q", merged_rows.tobytes())

    def _row_hashes_np(self, start: int = 0) -> Any:
        """uint64 FNV-1a hash per row from ``start`` on (vectorized)."""
        eq_np = self._interner.eq_array()
        prime = _np.uint64(_FNV_PRIME)
        hashes = _np.full(self._nrows - start, _FNV_OFFSET, dtype=_np.uint64)
        for col in self._cols:
            codes = _np.frombuffer(col, dtype=_np.int32)[start:self._nrows]
            hashes = (hashes ^ eq_np[codes]) * prime
        return hashes

    def _maybe_merge(self) -> None:
        if self._overlay_count >= _OVERLAY_LIMIT and (
            3 * self._overlay_count >= len(self._ht_sorted)
        ):
            self._merge_table()

    # -- mutation ---------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new (``==``-level).

        Value interning takes an inlined dict-hit fast path — only
        unseen values (and bools, whose dict key is tagged) go through
        :meth:`ValueInterner.encode`.  New rows land in the overlay dict;
        the sorted row table absorbs them at the next amortized merge.
        """
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
        self._maybe_merge()
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
        insert core directly; a :class:`Codes` column of this relation's
        interner is stored as it is.  Small batches fall back to the
        per-fact path.
        """
        col_list = [c if isinstance(c, (list, Codes)) else list(c) for c in cols]
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
        values = self._interner.values
        for fact in zip(*[
            map(values.__getitem__, c.tolist()) if isinstance(c, Codes) else c
            for c in col_list
        ]):
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
        if set(map(len, fact_list)) != {arity}:
            bad = next(len(fact) for fact in fact_list if len(fact) != arity)
            raise EvaluationError(
                f"arity mismatch for {self.name!r}: expected {arity}, "
                f"got {bad}"
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
        correct), extends the code columns by buffer, and maintains the
        sorted row table (merged, see :meth:`_merge_table`), overlay,
        any built indexes, and — when it is current — the numpy mirror
        cache including its sorted join keys (see
        :meth:`_npcache_append`).
        """
        if not val_cols:
            return None
        interner = self._interner
        codes = [
            _np.asarray(col_vals, dtype=_np.int32) if isinstance(col_vals, Codes)
            else interner.encode_column(col_vals)
            for col_vals in val_cols
        ]
        eq_np = interner.eq_array()
        prime = _np.uint64(_FNV_PRIME)
        hashes = _np.full(nfacts, _FNV_OFFSET, dtype=_np.uint64)
        for col in codes:
            hashes = (hashes ^ eq_np[col]) * prime
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
            del table
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
                eqrow = tuple([eq[int(col[i])] for col in codes])
                if eqrow in seen or self._find(hashes_list[i], eqrow) >= 0:
                    keep[i] = False
                else:
                    seen[eqrow] = None
        added = int(keep.sum())
        if not added:
            return keep
        first_row = self._nrows
        if added != nfacts:
            codes = [col[keep] for col in codes]
            hashes = hashes[keep]
        for col, new in zip(self._cols, codes):
            col.frombytes(new.tobytes())
        self._live.extend(b"\x01" * added)
        self._nrows += added
        cache = self._npcache
        prev_version = self._version
        self._version += 1
        self._overlay_count += added
        # Row-table maintenance: big batches merge into the sorted table;
        # small ones land in the overlay like per-fact adds.
        if added >= _OVERLAY_LIMIT or 3 * self._overlay_count >= len(
            self._ht_sorted
        ):
            self._merge_table()
        else:
            _file_rows(self._overlay, hashes.tolist(), first_row, True)
        if self._indexes or self._composite:
            eq_cols = [eq_np[col].tolist() for col in codes]
            for position, index in self._indexes.items():
                _file_rows(index, eq_cols[position], first_row)
            for positions, index2 in self._composite.items():
                _file_rows(
                    index2, list(zip(*[eq_cols[p] for p in positions])),
                    first_row,
                )
        self._npcache_append(cache, prev_version, codes, first_row, added)
        return keep

    def _npcache_append(
        self, cache: Optional[Dict[str, Any]], prev_version: int,
        new_cols: List[Any], first_row: int, added: int,
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
                merged[positions] = merge_sorted(
                    skeys, srows, nk[norder], new_rows[norder]
                )
            cache["keys"] = merged
        cache["version"] = self._version

    def remove(self, fact: Fact) -> bool:
        """Delete a fact (``==``-level); returns True when present.

        Deletion tombstones the row: columns and index buckets keep the
        slot (probes skip dead rows), and :meth:`compact` reclaims space
        at engine safe points.  This keeps every maintenance step O(1)
        — a tuple set's buckets paid an O(bucket) ``list.remove`` here.
        """
        return self._tombstone(fact) >= 0

    def _tombstone(self, fact: Fact) -> int:
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
        return self.retract(fact)[1]

    def retract(self, fact: Fact) -> Tuple[Fact, Optional[Tuple[Any, int, int]]]:
        """:meth:`bury`, returning ``fact`` as its row held it (``1``
        where ``fact`` says ``True``; ``fact`` itself when absent) and
        the grave."""
        row = self._tombstone(fact)
        if row < 0:
            return fact, None
        probe = self._interner.probe
        exact = all(c[row] == probe(v) for c, v in zip(self._cols, fact))
        grave = self._graves, row, len(self._indexes) + len(self._composite)
        return self.decode_row(row), grave if exact else None

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
        self._version += 1
        self._npcache = None
        self._numbering = self._graves = object()

    def freeze(self) -> "ColumnarRelation":
        """Make this relation read-only, for good; returns it.  Every
        mutator then raises, so threads may share it: only its lazy
        caches (indexes, numpy mirrors) are ever assigned again, each
        built locally and published by one assignment — two first
        readers at worst build the same cache twice."""
        self.__class__ = _FrozenColumnarRelation
        return self

    def copy(self, interner: Optional[ValueInterner] = None) -> "ColumnarRelation":
        """A fresh relation with the same facts; its indexes are built on
        first use or taken from an earlier copy (:meth:`carry_indexes`),
        the row-table overlay's buckets shared copy-on-write."""
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
        keep = _np.frombuffer(bytes(self._live), dtype=_np.bool_)
        self._cols = [
            array(_CODE, _np.frombuffer(col, dtype=_np.int32)[keep].tobytes())
            for col in self._cols
        ]
        self._nrows = self._nrows - self._ndead
        self._live = bytearray(b"\x01" * self._nrows)
        self._ndead = 0
        self._indexes = {}
        self._composite = {}
        self._version += 1
        self._npcache = None
        self._numbering = object()
        self._rebuild_table()

    # -- indexes -----------------------------------------------------------
    def drop_indexes(self) -> None:
        """Forget the indexes and numpy mirrors built so far; each is
        built again on its next use.  Graves taken before are void: an
        index rebuilt while their rows are dead does not name them."""
        self._indexes = {}
        self._composite = {}
        self._npcache = None
        self._graves = object()

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
        """Row-id bucket for an eq-code key.

        Buckets may contain tombstoned rows; callers must check each
        row's liveness.
        """
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
    def dead_rows(self) -> int:
        return self._ndead

    # -- facade lookups ----------------------------------------------------
    def lookup_key(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Iterable[Fact]:
        """Exact-match candidates for values ``key`` at ``positions``.

        Same contract as a tuple set's: buckets are ``==``-keyed, so
        callers still apply their own values_equal verification.
        """
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


class _FrozenColumnarRelation(ColumnarRelation):
    __slots__ = ()
    add = add_many = add_many_report = add_columns = refuse_write
    remove = bury = unbury = rebury = reset = compact = refuse_write
