"""Term universe of the Vadalog substitute.

Following Section 4 of the paper, terms range over three disjoint
countably infinite sets: constants ``C``, labeled nulls ``N``, and regular
variables ``V``.  KGModel additionally introduces a fourth set ``I`` for
the values produced by *linker Skolem functors* — injective, deterministic,
range-disjoint functions used for controlled OID generation/retrieval
(Section 4, "Linker Skolem Functors").

Constants are plain Python values (str, int, float, bool, None).  The
other three kinds get dedicated classes so they can never collide with
constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Variable:
    """A regular (universally quantified) variable appearing in rules."""

    # Slotted, with the generated hash of the fields computed once.
    __slots__ = ("name", "_hash")
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Rebuilt from the fields: a cached str hash holds in one process.
        return type(self), tuple(getattr(self, f) for f in self.__dataclass_fields__)

    def __repr__(self) -> str:
        return f"?{self.name}"


#: The anonymous variable: each occurrence binds nothing.
ANONYMOUS = Variable("_")


@dataclass(frozen=True)
class Null:
    """A labeled null, invented by the chase for an existential variable.

    ``label`` records the rule variable the null was invented for, which
    makes chase traces readable; ``ordinal`` makes the null unique.
    """

    __slots__ = ("label", "ordinal", "_hash")
    label: str
    ordinal: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.label, self.ordinal)))

    __hash__, __reduce__ = Variable.__hash__, Variable.__reduce__

    def __repr__(self) -> str:
        return f"ν{self.ordinal}[{self.label}]"


class NullFactory:
    """Produces fresh labeled nulls, one counter per evaluation.

    The factory of a retained state (``minted`` is a dict) also keeps
    the assignment every existential firing got, by first head predicate
    and resolved head pattern.  A stratum recompute moves its heads'
    entries to ``reclaim``, as DRed does with a firing it over-deleted
    and could not put back at once; there a firing that re-derives a
    pattern takes back the nulls it had.  Each entry is taken at most
    once and everything else is fresh, so no null ever names two firings.
    """

    def __init__(self):
        self._counter = itertools.count(1)
        self.minted: Optional[Dict[str, Dict[Any, List[Dict[Any, Null]]]]] = None
        self.reclaim: Dict[str, Dict[Any, List[Dict[Any, Null]]]] = {}

    def fresh(self, label: str = "z") -> Null:
        return Null(label, next(self._counter))

    @staticmethod
    def pattern(
        heads: Sequence[Tuple[str, Sequence[Any]]]
    ) -> Tuple[str, Tuple[Tuple[Any, ...], ...]]:
        """The two keys ``minted`` and ``reclaim`` file a firing under:
        its first head predicate, and its resolved head atoms."""
        return heads[0][0], tuple((name, *terms) for name, terms in heads)

    def assign(
        self, heads: Sequence[Tuple[str, Sequence[Any]]], variables: Iterable[Any]
    ) -> Dict[Any, Null]:
        """The nulls of one firing whose resolved head atoms ``heads``
        leave the existential ``variables`` open."""
        if self.minted is None:
            return {v: self.fresh(v.name) for v in variables}
        predicate, pattern = self.pattern(heads)
        held = self.reclaim.get(predicate, {}).get(pattern)
        assignment = (
            held.pop() if held else {v: self.fresh(v.name) for v in variables}
        )
        self.minted.setdefault(predicate, {}).setdefault(
            pattern, []).append(assignment)
        return assignment

    def assign_columns(
        self,
        heads_of: Iterable[Sequence[Tuple[str, Sequence[Any]]]],
        variables: Sequence[Any],
        count: int,
    ) -> Dict[Any, List[Null]]:
        """:meth:`assign` for ``count`` firings in order, one column of
        nulls per variable; ``heads_of`` yields each firing's resolved
        head atoms, read only by a factory that files ``minted``."""
        if self.minted is not None:
            rows = [self.assign(heads, variables) for heads in heads_of]
        else:
            rows = [{v: self.fresh(v.name) for v in variables} for _ in range(count)]
        return {v: [row[v] for row in rows] for v in variables}


@dataclass(frozen=True)
class SkolemValue:
    """A value of the set ``I``, produced by a linker Skolem functor.

    Two SkolemValues are equal iff they have the same functor name and the
    same argument tuple — which realizes the paper's requirements that
    functors are injective and deterministic; distinct functor names give
    disjoint ranges.
    """

    __slots__ = ("functor", "arguments", "_hash")
    functor: str
    arguments: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.functor, self.arguments)))

    __hash__, __reduce__ = Variable.__hash__, Variable.__reduce__

    def __repr__(self) -> str:
        args = ",".join(repr(a) for a in self.arguments)
        return f"{self.functor}({args})"


class SkolemFunctor:
    """A callable linker Skolem functor ``sk``.

    ``sk(v1, ..., vn)`` returns the interned :class:`SkolemValue` for that
    argument tuple.  Interning keeps identity checks cheap during the
    chase.
    """

    def __init__(self, name: str):
        self.name = name
        self._cache: Dict[Tuple[Any, ...], SkolemValue] = {}

    def __call__(self, *arguments: Any) -> SkolemValue:
        key = tuple(arguments)
        value = self._cache.get(key)
        if value is None:
            value = SkolemValue(self.name, key)
            self._cache[key] = value
        return value

    def __repr__(self) -> str:
        return f"SkolemFunctor({self.name!r})"


def is_variable(term: Any) -> bool:
    """True for regular variables (including the anonymous variable)."""
    return isinstance(term, Variable)


def values_equal(a: Any, b: Any) -> bool:
    """Equality that never mixes bool with 0/1 and tolerates numeric types."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b or (isinstance(a, bool) and isinstance(b, bool) and a == b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return a == b


#: Sort-key type tags, in the order the corresponding values sort.
_TAG_NONE = 0
_TAG_BOOL = 1
_TAG_NUMBER = 2
_TAG_STRING = 3
_TAG_NULL = 4
_TAG_SKOLEM = 5
_TAG_SEQUENCE = 6
_TAG_OTHER = 7

_EMPTY: Tuple[Any, ...] = ()


def value_sort_key(value: Any) -> Tuple[Any, ...]:
    """A deterministic, backend-independent total-order key for one term.

    Every key is a ``(type-tag, number, text, nested)`` 4-tuple, so keys
    of different runtime types always compare (the tag decides first).
    Replaces the old ``key=repr`` flush orderings, which were O(repr)
    per fact and ordered numerics lexically (``"10" < "9"``) — and whose
    order could diverge between the tuple and columnar backends because
    ``1`` and ``1.0`` render differently while the storage layers may
    surface either representative.

    Properties relied on across the code base:

    * numerics order numerically (``9 < 10``), with a deterministic
      int-before-float tiebreak for ``1`` vs ``1.0``;
    * booleans never interleave with ``0``/``1``;
    * NaN sorts after every other number (instead of poisoning the
      comparison chain);
    * labeled nulls order by ``(ordinal, label)`` and Skolem values by
      ``(functor, arguments)``, both independent of invention order;
    * anything unknown falls back to ``(type name, repr)`` — stable, if
      slow, and only ever hit off the hot path.
    """
    if value is None:
        return (_TAG_NONE, 0, "", _EMPTY)
    cls = value.__class__
    if cls is bool:
        return (_TAG_BOOL, 1 if value else 0, "", _EMPTY)
    if cls is int:
        return (_TAG_NUMBER, value, "", _EMPTY)
    if cls is float:
        if value != value:  # NaN: larger than every number, equal to itself
            return (_TAG_NUMBER, float("inf"), "nan", _EMPTY)
        return (_TAG_NUMBER, value, "f", _EMPTY)
    if cls is str:
        return (_TAG_STRING, 0, value, _EMPTY)
    if cls is Null:
        return (_TAG_NULL, value.ordinal, value.label, _EMPTY)
    if cls is SkolemValue:
        return (
            _TAG_SKOLEM,
            0,
            value.functor,
            tuple(value_sort_key(a) for a in value.arguments),
        )
    if cls is tuple or cls is list:
        return (
            _TAG_SEQUENCE,
            len(value),
            "",
            tuple(value_sort_key(v) for v in value),
        )
    if isinstance(value, bool):  # bool subclasses, pathological but cheap
        return (_TAG_BOOL, 1 if value else 0, "", _EMPTY)
    if isinstance(value, (int, float)):
        if value != value:
            return (_TAG_NUMBER, float("inf"), "nan", _EMPTY)
        return (_TAG_NUMBER, value, "", _EMPTY)
    if isinstance(value, str):
        return (_TAG_STRING, 0, value, _EMPTY)
    return (_TAG_OTHER, 0, f"{type(value).__name__}:{value!r}", _EMPTY)


def fact_sort_key(fact: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Deterministic sort key for a whole fact (any iterable of terms).

    The shared flush/emit ordering: every place that writes a fact set
    into an ordered target (graph write-back, relational insert batches,
    serve answers) sorts with this key so the order is identical across
    storage backends and Python processes.
    """
    return tuple(value_sort_key(term) for term in fact)
