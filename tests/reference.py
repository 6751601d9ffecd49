"""The references the tests hold production to.

The reference Algorithm 2: V_I, Sigma and V_O over ``I_SM_*``.
Production compiles the views into column maps
(:mod:`repro.ssst.materializer`); this module keeps the pipeline they
replace — the registry encoded into ``I_SM_*`` staging relations, the
V_I view program, Sigma, the V_O view program, and the flush semantics
of V_O's relations (:func:`instance_facts`) — as the oracle the tests
hold production to, element for element and in order.

The reference relation: :class:`Relation`, a tuple set with positional
indexes, is the storage semantics the relation-level differentials hold
:class:`~repro.vadalog.columnar.ColumnarRelation` to (adds, removals,
probes, 1 / 1.0 / ``True``).  No database holds one.
"""

from typing import (
    Any, Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from repro.core.instances import (
    INSTANCE_EDGE_PROPERTIES,
    INSTANCE_LABELS,
    CodedSource,
    Columns,
    ColumnSource,
    Fact,
    coded,
    decode_instance,
    encode_instance,
    schema_constructs,
)
from repro.core.schema import SuperSchema
from repro.errors import EvaluationError
from repro.metalog.mtv import compile_metalog
from repro.ssst.views import catalog_from_super_schema, input_views, output_views
from repro.vadalog.columnar import ValueInterner, refuse_write
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine
from repro.vadalog.terms import fact_sort_key, values_equal

#: Which facts of a relation were loaded (encoded from the source data)
#: rather than derived: the first ``n`` rows, or the facts in a set.
LoadedMark = Union[int, Collection[Fact]]


def _eq_codes(interner: ValueInterner, oids: List[Any]) -> set:
    """The eq codes of those of ``oids`` whose ``==`` class is interned."""
    if not {0, 1}.isdisjoint(oids):  # 0 or 1 may be interned by another type
        return {code for code in map(interner.probe_eq, oids) if code is not None}
    codes = interner.probe_column(oids)
    return set(interner.eq_array()[codes[codes >= 0]].tolist())


def _rows(values: List[Any], columns: List[Any]) -> List[Fact]:
    """The value tuples of code columns."""
    return list(zip(*[map(values.__getitem__, c.tolist()) for c in columns]))


def _settle(
    source: CodedSource,
    loaded: Mapping[str, LoadedMark],
    schema: SuperSchema,
) -> Tuple[Dict[str, List[Any]], int, int]:
    """:func:`instance_facts` on code columns: OIDs compare by eq code
    (Python ``==``, so ``True`` is ``1``), values are decoded only to
    tell loaded facts by a set mark and to order contested rows."""
    interner = source.interner
    values = interner.values
    eq = interner.eq_array()
    held: Dict[str, List[Any]] = {}
    added = dropped = 0
    present = _eq_codes(
        interner, list(set().union(*schema_constructs(schema)))
    )
    for label in INSTANCE_LABELS:
        columns = source.columns(label)
        if columns is None:
            continue
        size = len(columns[0])
        mark = loaded.get(label, 0)
        if isinstance(mark, int):
            n_loaded, is_loaded = mark, None
        else:
            # A set marks facts the source need not hold all of, so it
            # is counted over the rows that are there.
            is_loaded = list(map(mark.__contains__, _rows(values, columns)))
            n_loaded = sum(is_loaded)
        keys = eq[columns[0]].tolist()
        is_link = label in INSTANCE_EDGE_PROPERTIES
        contested = size > n_loaded and (
            len(set(keys)) != size
            or (is_link and len(set(eq[columns[1]].tolist())) != size)
        )
        ends = [eq[column].tolist() for column in columns[1:3]] if is_link else []
        dangling = is_link and not (
            present.issuperset(ends[0]) and present.issuperset(ends[1])
        )
        if contested or dangling:
            # The loaded rows first, as stored, then the derived ones in
            # fact_sort_key order — the same in every process, whatever
            # order the chase derived in; per OID the first row wins.
            order: Iterable[int] = range(size)
            if contested:
                if is_loaded is None:
                    is_loaded = [True] * n_loaded + [False] * (size - n_loaded)
                rows = _rows(values, columns)
                order = [i for i in order if is_loaded[i]] + sorted(
                    (i for i in order if not is_loaded[i]),
                    key=lambda i: fact_sort_key(rows[i]),
                )
            kept: List[int] = []
            seen = set()
            for i in order:
                if keys[i] in seen:
                    continue
                if dangling and not (ends[0][i] in present and ends[1][i] in present):
                    dropped += 1
                    continue
                seen.add(keys[i])
                kept.append(i)
            if not kept:
                continue
            columns = [column[kept] for column in columns]
            keys = [keys[i] for i in kept]
        if not is_link:
            present.update(keys)
        held[label] = columns
        added += len(columns[0]) - n_loaded
    return held, added, dropped


def instance_facts(
    source: Union[ColumnSource, CodedSource],
    loaded: Mapping[str, LoadedMark],
    schema: SuperSchema,
) -> Tuple[Dict[str, Columns], int, int]:
    """Settle which ``I_SM_*`` facts of a chase database make up the
    instance: their value columns per relation, how many of them are
    derived, and how many link facts were dropped.

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
    source = coded(source)
    held, added, dropped = _settle(source, loaded, schema)
    values = source.interner.values
    return {
        label: [list(map(values.__getitem__, c.tolist())) for c in columns]
        for label, columns in held.items()
    }, added, dropped


def reference_materialize(schema, data, sigma, instance_oid, engine=None):
    """Algorithm 2 as three chases over the ``I_SM_*`` instance
    constructs: the registry encoded into a staging database, V_I,
    Sigma, V_O, and the decode of the ``I_SM_*`` relations.  Returns
    ``(instance, dropped link facts)``: what production's column maps
    must reproduce, element for element and in order."""
    engine = engine or Engine()
    schema.ensure_attribute_oids()
    catalog = catalog_from_super_schema(schema)
    compiled = compile_metalog(sigma, catalog)
    views = [
        make(schema, nodes, edges, instance_oid, catalog)
        for make, nodes, edges in (
            (input_views, compiled.input_node_labels, compiled.input_edge_labels),
            (output_views, compiled.derived_node_labels, compiled.derived_edge_labels),
        )
    ]
    staging = Database(interner=getattr(data, "interner", None))
    encode_instance(schema, instance_oid, data, staging.add_columns)
    for program in (views[0], compiled.program):
        staging = engine.run(program, database=staging, copy_database=False).database
    loaded = {label: staging.count(label) for label in INSTANCE_LABELS}
    flushed = engine.run(views[1], database=staging, copy_database=False).database
    source = CodedSource(flushed.interner, flushed.code_columns)
    held, _added, dropped = _settle(source, loaded, schema)
    instance = decode_instance(
        schema, instance_oid, CodedSource(source.interner, held.get), "reference"
    )
    return instance, dropped


# ---------------------------------------------------------------------------
# The reference relation
# ---------------------------------------------------------------------------

#: Shared empty candidate set for missed index probes.
_EMPTY: Tuple[Fact, ...] = ()


class Relation:
    """The extension of a single predicate, with positional indexes.

    Facts and index buckets are insertion-ordered (``dict`` as an
    ordered set), so a join enumerates candidates in the order they were
    added — never in an order the hash seed picks.
    """

    __slots__ = ("name", "arity", "_facts", "_indexes", "_composite")

    def __init__(self, name: str, arity: Optional[int] = None):
        self.name = name
        self.arity = arity
        self._facts: Dict[Fact, None] = {}
        # position -> value -> facts; built lazily per position.
        self._indexes: Dict[int, Dict[Any, Dict[Fact, None]]] = {}
        # (positions...) -> value tuple -> facts; built lazily per
        # position combination (the access paths of compiled join plans).
        self._composite: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Dict[Fact, None]]] = {}

    def freeze(self) -> "Relation":
        """Make this relation read-only, for good; returns it (the
        contract of :meth:`ColumnarRelation.freeze`)."""
        self.__class__ = _FrozenRelation
        return self

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new."""
        if self.arity is None:
            self.arity = len(fact)
        elif len(fact) != self.arity:
            raise EvaluationError(
                f"arity mismatch for {self.name!r}: expected {self.arity}, "
                f"got {len(fact)}"
            )
        if fact in self._facts:
            return False
        self._facts[fact] = None
        for position, index in self._indexes.items():
            index.setdefault(fact[position], {})[fact] = None
        for positions, index2 in self._composite.items():
            key = tuple(fact[p] for p in positions)
            index2.setdefault(key, {})[fact] = None
        return True

    def add_many(self, facts: Iterable[Iterable[Any]]) -> int:
        """Insert many facts; returns the number of new ones.

        When no index has been built yet (the common bulk-load case) the
        facts go straight into the backing dict with a single arity check
        per fact and no per-fact index maintenance.
        """
        if self._indexes or self._composite:
            added = 0
            for fact in facts:
                if self.add(tuple(fact)):
                    added += 1
            return added
        backing = self._facts
        before = len(backing)
        arity = self.arity
        for fact in facts:
            tup = tuple(fact)
            if arity is None:
                arity = self.arity = len(tup)
            elif len(tup) != arity:
                raise EvaluationError(
                    f"arity mismatch for {self.name!r}: expected {arity}, "
                    f"got {len(tup)}"
                )
            backing[tup] = None
        return len(backing) - before

    def add_columns(self, cols: Sequence[Sequence[Any]]) -> int:
        """Insert facts given as parallel value columns; returns #new.

        The tuple backend has no columnar fast path, so this is just
        :meth:`add_many` over the transposed rows — it exists so the
        graph/dictionary extraction layer can stay backend-agnostic.
        """
        if not cols:
            return 0
        return self.add_many(zip(*cols))

    def remove(self, fact: Fact) -> bool:
        """Delete a fact; returns True when it was present.

        Both index kinds are maintained in place (emptied buckets are
        dropped), so a relation stays probe-consistent across the
        delete/re-derive passes of incremental maintenance.
        """
        fact = tuple(fact)
        if fact not in self._facts:
            return False
        del self._facts[fact]
        for position, index in self._indexes.items():
            bucket = index.get(fact[position])
            if bucket is not None:
                bucket.pop(fact, None)
                if not bucket:
                    del index[fact[position]]
        for positions, index2 in self._composite.items():
            key = tuple(fact[p] for p in positions)
            bucket = index2.get(key)
            if bucket is not None:
                bucket.pop(fact, None)
                if not bucket:
                    del index2[key]
        return True

    def bury(self, fact: Fact) -> None:
        """:meth:`remove`: no row to revive here, so no grave."""
        self.remove(fact)

    def reset(self, facts: Iterable[Iterable[Any]]) -> None:
        """Replace the whole extension; indexes rebuild lazily."""
        self._facts = dict.fromkeys(tuple(fact) for fact in facts)
        self._indexes = {}
        self._composite = {}

    def copy(self) -> "Relation":
        """A fresh relation with the same facts; indexes rebuild lazily."""
        clone = Relation(self.name, self.arity)
        clone._facts = dict(self._facts)
        return clone

    def _ensure_index(self, position: int) -> Dict[Any, Dict[Fact, None]]:
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for fact in self._facts:
                index.setdefault(fact[position], {})[fact] = None
            self._indexes[position] = index
        return index

    def _ensure_composite(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Any, ...], Dict[Fact, None]]:
        index = self._composite.get(positions)
        if index is None:
            index = {}
            for fact in self._facts:
                key = tuple(fact[p] for p in positions)
                index.setdefault(key, {})[fact] = None
            self._composite[positions] = index
        return index

    def lookup_key(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Iterable[Fact]:
        """Exact-match candidates for values ``key`` at ``positions``.

        Unlike :meth:`lookup` this uses one composite index over all the
        bound positions, so the result needs no per-fact filtering beyond
        the caller's semantic equality check (hash buckets equate 1 with
        1.0 and True, which the chase distinguishes).
        """
        if len(positions) == 1:
            return self._ensure_index(positions[0]).get(key[0], _EMPTY)
        return self._ensure_composite(positions).get(key, _EMPTY)

    def lookup(self, bound: Sequence[Tuple[int, Any]]) -> Iterator[Fact]:
        """Iterate facts matching the given (position, value) constraints.

        The most selective indexed position is used as the access path and
        the remaining constraints are verified per fact with the chase's
        type-aware equality (a plain ``==`` filter would equate 1, 1.0
        and True, which ``lookup_key`` documents the chase distinguishes).
        """
        if not bound:
            yield from self._facts
            return
        # Pick the constraint with the smallest candidate set.
        best_candidates: Optional[Dict[Fact, None]] = None
        for position, value in bound:
            index = self._ensure_index(position)
            candidates = index.get(value)
            if candidates is None:
                return
            if best_candidates is None or len(candidates) < len(best_candidates):
                best_candidates = candidates
        for fact in best_candidates or ():
            if all(values_equal(fact[position], value) for position, value in bound):
                yield fact


class _FrozenRelation(Relation):
    __slots__ = ()
    add = add_many = remove = reset = refuse_write
