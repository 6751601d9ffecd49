"""Fact storage for the Vadalog substitute.

A :class:`Database` associates each predicate with a relation — a set of
ground tuples over constants, labeled nulls, and Skolem values (Section 4:
"A (database) instance over S associates to each relation symbol a
relation of the respective arity over the domain of constants and
nulls").

There is one fact store: every relation is a dictionary-encoded
:class:`~repro.vadalog.columnar.ColumnarRelation` over the database's one
:class:`~repro.vadalog.columnar.ValueInterner`, with per-position hash
indexes maintained incrementally so the chase can look up join
candidates in expected O(1).  The facade accepts and returns decoded
fact tuples; the chase reads the code columns underneath.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.vadalog.columnar import ColumnarRelation, ValueInterner

Fact = Tuple[Any, ...]


class Database:
    """A set of columnar relations over one value dictionary, keyed by
    predicate name."""

    def __init__(self, interner: Optional[ValueInterner] = None):
        self._relations: Dict[str, ColumnarRelation] = {}
        # An externally supplied interner (e.g. the columnar property
        # graph's, when extracting) is shared, not copied: interners are
        # append-only, so producer and consumer can keep encoding into
        # the same dictionary and values present on either side are
        # stored once.
        self._interner = interner if interner is not None else ValueInterner()
        #: Predicates whose relation is another owner's object (see
        #: :meth:`share`): read here, never compacted here.
        self._borrowed: Set[str] = set()

    def share(self, predicate: str, relation: ColumnarRelation) -> None:
        """Install ``relation`` — the object, not a copy, over this
        database's interner — as ``predicate``'s extension."""
        self._relations[predicate] = relation
        self._borrowed.add(predicate)

    def layer(self, written: Set[str]) -> "Database":
        """A database to run a program over this one without mutating
        it: private copies of the ``written`` predicates, this one's own
        relation objects, shared, for the rest — and its append-only
        interner, so codes stay comparable and nothing is re-encoded."""
        clone = Database(self._interner)
        for name, relation in self._relations.items():
            if name in written:
                clone._relations[name] = relation.copy()
            else:
                clone.share(name, relation)
        return clone

    def _owned(self) -> List[ColumnarRelation]:
        borrowed = self._borrowed
        return [r for n, r in self._relations.items() if n not in borrowed]

    def relation(self, predicate: str) -> ColumnarRelation:
        """Return (creating on demand) the relation for ``predicate``."""
        relation = self._relations.get(predicate)
        if relation is None:
            relation = self._relations[predicate] = ColumnarRelation(
                predicate, interner=self._interner
            )
        return relation

    def add(self, predicate: str, fact: Iterable[Any]) -> bool:
        """Insert one fact; returns True when it is new."""
        return self.relation(predicate).add(tuple(fact))

    def add_all(self, predicate: str, facts: Iterable[Iterable[Any]]) -> int:
        """Insert many facts; returns the number of new ones."""
        return self.relation(predicate).add_many(facts)

    def add_columns(self, predicate: str, cols: Sequence[Sequence[Any]]) -> int:
        """Insert facts given as parallel value columns; returns #new.

        The columns feed the vectorized insert core directly: no
        per-fact tuple is ever built.
        """
        return self.relation(predicate).add_columns(cols)

    def add_all_report(self, predicate: str, facts: List[Fact]) -> List[Fact]:
        """Insert many facts; returns the ones that were new, in order:
        one vectorized bulk insert with sequential-add semantics (first
        ``==``-level occurrence wins)."""
        return self.relation(predicate).add_many_report(facts)

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
        """Decoded value columns of ``predicate``, decoded column-wise
        (no per-fact tuple) in row order; None if empty/arity-0.
        Relations are ``==``-level sets, so the columns carry no
        duplicate rows — only same-OID rows with different payloads.
        """
        relation = self._relations.get(predicate)
        if relation is None or not len(relation):
            return None
        return relation.value_columns()

    @property
    def interner(self) -> ValueInterner:
        """The value dictionary every relation encodes into."""
        return self._interner

    def code_columns(self, predicate: str) -> Optional[List[Any]]:
        """:meth:`columns` as ``int32`` numpy code columns over
        :attr:`interner`; None if empty/arity-0."""
        relation = self._relations.get(predicate)
        if relation is None or not len(relation):
            return None
        return relation.code_columns()

    def matching(self, predicate: str, position: int, values: Iterable[Any]) -> List[Fact]:
        """The facts of ``predicate`` holding a value ``==`` one of
        ``values`` at ``position`` (one eq code: ``1``, ``1.0`` and
        ``True`` match each other): value by value, each value's in row
        order — index probes, not a scan."""
        relation = self._relations.get(predicate)
        if relation is None:
            return []
        return [
            fact for value in values
            for fact in relation.lookup_key((position,), (value,))
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

    def compact(self) -> None:
        """Reclaim tombstoned rows in every relation it owns.

        Only call at safe points: compaction renumbers row ids, which
        invalidates any in-flight index iteration.
        """
        for relation in self._owned():
            relation.compact()

    def release(self, keep: Iterable[str]) -> None:
        """Drop every relation but ``keep``, and the indexes of the kept
        ones it owns: what a reader of their code columns alone needs."""
        keep = set(keep)
        self._relations = {
            name: relation for name, relation in self._relations.items()
            if name in keep
        }
        self._borrowed &= keep
        for relation in self._owned():
            relation.drop_indexes()

    def dead_rows(self) -> int:
        """Tombstoned rows its own relations still hold."""
        return sum(r.dead_rows for r in self._owned())

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
