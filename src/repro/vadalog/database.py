"""Fact storage for the Vadalog substitute.

A :class:`Database` associates each predicate with a relation — a set of
ground tuples over constants, labeled nulls, and Skolem values (Section 4:
"A (database) instance over S associates to each relation symbol a
relation of the respective arity over the domain of constants and
nulls").

Per-predicate, per-position hash indexes are maintained incrementally so
the chase can look up join candidates in expected O(1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError
from repro.vadalog.columnar import ColumnarRelation, SpillStore, ValueInterner, refuse_write
from repro.vadalog.terms import fact_sort_key, values_equal

Fact = Tuple[Any, ...]

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


class Database:
    """A set of relations, keyed by predicate name.

    Two storage backends share one facade: the original tuple-set
    :class:`Relation` (``columnar=False``, the default for direct
    construction) and the dictionary-encoded :class:`ColumnarRelation`
    (``columnar=True``, the engine's default).  All facade methods accept
    and return decoded fact tuples either way; :meth:`to_backend`
    converts between the two.
    """

    def __init__(
        self,
        columnar: bool = False,
        spill_path: Optional[str] = None,
        interner: Optional[ValueInterner] = None,
    ):
        self._relations: Dict[str, Relation] = {}
        self.columnar = columnar
        # An externally supplied interner (e.g. the columnar property
        # graph's, when extracting) is shared, not copied: interners are
        # append-only, so producer and consumer can keep encoding into
        # the same dictionary and values present on either side are
        # stored once.
        self._interner: Optional[ValueInterner] = (
            (interner if interner is not None else ValueInterner())
            if columnar
            else None
        )
        self._spill_path = spill_path
        self._store: Optional[SpillStore] = None
        #: Predicates whose relation is another owner's object (see
        #: :meth:`share`): read here, never compacted or spilled here.
        self._borrowed: Set[str] = set()

    def share(self, predicate: str, relation: Relation) -> None:
        """Install ``relation`` — the object, not a copy, on this
        database's backend and interner — as ``predicate``'s extension."""
        self._relations[predicate] = relation
        self._borrowed.add(predicate)

    def layer(self, written: Set[str]) -> "Database":
        """A database to run a program over this one without mutating
        it: private copies of the ``written`` predicates, this one's own
        relation objects, shared, for the rest — and its append-only
        interner, so codes stay comparable and nothing is re-encoded."""
        clone = Database(self.columnar, self._spill_path, self._interner)
        for name, relation in self._relations.items():
            if name in written:
                clone._relations[name] = relation.copy()
            else:
                clone.share(name, relation)
        return clone

    def _owned(self) -> List[Relation]:
        borrowed = self._borrowed
        return [r for n, r in self._relations.items() if n not in borrowed]

    def relation(self, predicate: str) -> Relation:
        """Return (creating on demand) the relation for ``predicate``."""
        relation = self._relations.get(predicate)
        if relation is None:
            if self.columnar:
                relation = ColumnarRelation(predicate, interner=self._interner)
                if self._store is not None:
                    relation.attach_store(self._store)
            else:
                relation = Relation(predicate)
            self._relations[predicate] = relation
        return relation

    def add(self, predicate: str, fact: Iterable[Any]) -> bool:
        """Insert one fact; returns True when it is new."""
        return self.relation(predicate).add(tuple(fact))

    def add_all(self, predicate: str, facts: Iterable[Iterable[Any]]) -> int:
        """Insert many facts; returns the number of new ones."""
        return self.relation(predicate).add_many(facts)

    def add_columns(self, predicate: str, cols: Sequence[Sequence[Any]]) -> int:
        """Insert facts given as parallel value columns; returns #new.

        Columnar relations feed the vectorized insert core directly
        (no per-fact tuple is ever built); the tuple backend transposes
        and falls back to :meth:`add_all` semantics.
        """
        return self.relation(predicate).add_columns(cols)

    def add_all_report(self, predicate: str, facts: List[Fact]) -> List[Fact]:
        """Insert many facts; returns the ones that were new, in order.

        Columnar relations take a vectorized bulk path; the tuple
        backend inserts per fact.  Either way dedup is sequential-add
        semantics (first ``==``-level occurrence wins).
        """
        relation = self.relation(predicate)
        report = getattr(relation, "add_many_report", None)
        if report is not None:
            return report(facts)
        add = relation.add
        return [fact for fact in facts if add(tuple(fact))]

    def remove(self, predicate: str, fact: Iterable[Any]) -> bool:
        """Delete one fact; returns True when it was present."""
        relation = self._relations.get(predicate)
        if relation is None:
            return False
        return relation.remove(tuple(fact))

    def reset(self, predicate: str, facts: Iterable[Iterable[Any]]) -> None:
        """Replace the extension of ``predicate`` wholesale."""
        self.relation(predicate).reset(facts)

    def facts(self, predicate: str) -> Set[Fact]:
        """A snapshot set of the facts of ``predicate`` (empty if unknown)."""
        relation = self._relations.get(predicate)
        return set(relation) if relation is not None else set()

    def columns(self, predicate: str) -> Optional[List[List[Any]]]:
        """Decoded value columns of ``predicate``; None if empty/arity-0.

        Columnar relations decode column-wise (no per-fact tuple), in
        row order; the tuple backend, which has no row order, transposes
        its extension in ``fact_sort_key`` order.  Relations are
        ``==``-level sets either way, so the columns carry no duplicate
        rows — only same-OID rows with different payloads.
        """
        relation = self._relations.get(predicate)
        if relation is None or not len(relation):
            return None
        getter = getattr(relation, "value_columns", None)
        if getter is not None:
            return getter()
        transposed = list(zip(*sorted(relation, key=fact_sort_key)))
        return [list(col) for col in transposed] if transposed else None

    @property
    def interner(self) -> Optional[ValueInterner]:
        """The value dictionary of a columnar database (None on tuples)."""
        return self._interner

    def code_columns(self, predicate: str) -> Optional[List[Any]]:
        """:meth:`columns` of a columnar database as ``int32`` numpy
        code columns over :attr:`interner`; None if empty/arity-0."""
        relation = self._relations.get(predicate)
        if relation is None or not len(relation):
            return None
        return relation.code_columns()

    def matching(self, predicate: str, position: int, values: Iterable[Any]) -> List[Fact]:
        """The facts of ``predicate`` holding one of ``values`` at
        ``position``: value by value, each value's in row order — index
        probes, not a scan."""
        relation = self._relations.get(predicate)
        if relation is None:
            return []
        return [
            fact for value in values for fact in relation.lookup([(position, value)])
        ]

    def has(self, predicate: str, fact: Tuple[Any, ...]) -> bool:
        relation = self._relations.get(predicate)
        return relation is not None and fact in relation

    def count(self, predicate: str) -> int:
        relation = self._relations.get(predicate)
        return len(relation) if relation is not None else 0

    def predicates(self) -> List[str]:
        return [name for name, rel in self._relations.items() if len(rel)]

    def total_facts(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def copy(self) -> "Database":
        return self.layer(set(self._relations))

    def to_backend(self, columnar: bool) -> "Database":
        """A copy of this database on the requested backend.

        Same-backend requests still copy (callers rely on isolation).
        """
        if columnar == self.columnar:
            return self.copy()
        clone = Database(columnar=columnar, spill_path=self._spill_path)
        for name, relation in self._relations.items():
            target = clone.relation(name)
            if relation.arity is not None:
                target.arity = relation.arity
            target.add_many(relation)
        return clone

    # -- spill-to-disk ---------------------------------------------------
    def _ensure_store(self) -> Optional[SpillStore]:
        if not self.columnar:
            return None
        if self._store is None:
            self._store = SpillStore(self._spill_path)
            for relation in self._owned():
                relation.attach_store(self._store)
        return self._store

    def total_resident_facts(self) -> int:
        """Facts currently held in memory (spilled relations excluded)."""
        if not self.columnar:
            return self.total_facts()
        return sum(
            len(rel) for rel in self._relations.values() if not rel.spilled
        )

    def spill_over_budget(
        self, budget: int, keep: Iterable[str] = ()
    ) -> List[str]:
        """Spill cold relations until ≤ ``budget`` facts stay resident.

        Relations named in ``keep`` (needed by upcoming strata) and
        borrowed ones are never spilled.  Largest-first eviction; returns
        the spilled names.  Tuple-backend databases are a no-op.
        """
        if not self.columnar or budget < 0:
            return []
        resident = self.total_resident_facts()
        if resident <= budget:
            return []
        keep_set = set(keep)
        store = self._ensure_store()
        if store is None:
            return []
        victims = sorted(
            (
                rel
                for rel in self._owned()
                if rel.name not in keep_set and not rel.spilled and len(rel)
            ),
            key=len,
            reverse=True,
        )
        spilled: List[str] = []
        for rel in victims:
            if resident <= budget:
                break
            resident -= rel.spill()
            spilled.append(rel.name)
        return spilled

    def compact(self) -> None:
        """Reclaim tombstoned rows in every columnar relation it owns.

        Only call at safe points: compaction renumbers row ids, which
        invalidates any in-flight index iteration.
        """
        if not self.columnar:
            return
        for relation in self._owned():
            if not relation.spilled:
                relation.compact()

    def dead_rows(self) -> int:
        """Tombstoned rows its own columnar relations still hold."""
        return sum(r.dead_rows for r in self._owned()) if self.columnar else 0

    def close(self) -> None:
        """Release the spill store (if one was opened)."""
        if self._store is not None:
            self._store.close()
            self._store = None

    def merge(self, other: "Database") -> int:
        """Insert every fact of ``other``; returns how many were new."""
        added = 0
        for name in other._relations:
            added += self.add_all(name, other._relations[name])
        return added

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
