"""Serving state: a retained materialization behind immutable snapshots.

Thread model
------------

One writer, many readers.  :class:`ServeState` owns the retained chase
state (which :func:`repro.vadalog.incremental.apply_delta` mutates in
place — the live database, the facts supplied for a derived predicate,
the aggregate accumulators are all writer-private).  After the base run
and after every delta the writer *freezes* the world into a
:class:`StateSnapshot` and publishes it with a single attribute
assignment.  Attribute reads are atomic in CPython, so readers grab a
coherent epoch with ``state.snapshot`` and never block, no matter how
long a delta takes.

Zero-copy epochs
----------------

The retained database is the chase's one fact store, so every relation
freezes into a :class:`FrozenColumnBlock` view, not per-fact tuples,
which is sound because of three append-only invariants of the storage
layer (:mod:`repro.vadalog.columnar`):

- appends extend the code columns *in place*; a block pins the row
  count at freeze time (``islice``) so later appends stay invisible;
- removals only tombstone the live mask in place; a block copies the
  mask bytes (only when dead rows exist — the common all-live case
  shares everything);
- ``compact()``/``spill()``/``reset()`` *replace* the column list
  objects rather than mutating them, so a block holding the old lists
  keeps the old epoch's bytes alive and correct.

The relation's monotonic ``_version`` counter keys a copy-on-write
cache: predicates untouched by a delta reuse the previous epoch's
block outright, so freeze cost tracks the delta, not the model.

A view that is re-made takes its predecessor's indexes along
(:func:`~repro.vadalog.columnar.carry_indexes`: a shallow ``dict`` copy
per index, patched with the rows appended since), under four more:

- *published views are never mutated*: only the writer, before
  publication, fills a new view's indexes; buckets are copy-on-write,
  and the writer reads the older view's index dict in one atomic
  ``list(d.items())``, since a reader may be publishing a lazily built
  position into it;
- *same numbering or no carry*: a block carries only if its column
  objects are its predecessor's (whatever renumbers replaces them, the
  invariant above), a frozen copy — its columns are its own — only if
  both hold the relation's ``_numbering`` mark, which ``compact()``,
  ``reset()`` and rehydration replace; facts supplied for a derived
  predicate are ``reset`` into their copy and never carry;
- *buckets may name dead rows*, as a maintained index's do: the engine
  checks each row's live flag, :meth:`FrozenColumnBlock.matching` its
  own mask;
- *chain breaks are counted*: where nothing could be carried, or nobody
  had asked, the first reader builds the index and ``serve.index_built``
  moves; ``serve.index_carried`` counts the indexes handed on.

The writer reclaims the retained database's tombstones where
:meth:`~repro.ssst.materializer.IntensionalMaterializer.update` does:
once they outnumber the live rows, after a delta and before its freeze.
Compaction renumbers rows by replacing the column lists, so published
epochs keep their own columns and answer as they did; the next epoch's
views carry nothing from them, and their first readers count in
``serve.index_built``.

The extensional slice freezes as *relations*: ``snapshot.edb[p]`` is a
frozen ``relation.copy()`` over the retained interner — the live
relation, which is ``p``'s extension where no rule writes ``p``, or
the facts supplied for a derived predicate — re-made only for
predicates a delta names.  Engine-backed queries read those in place
(:meth:`ServeState.edb_database`), re-interning and copying nothing; a
frozen relation refuses every write, so a stray one is a typed error,
not a torn epoch.  What request threads and the writer both append to
is the interner, whose miss path is locked.

Metrics are shared across threads, so unlike the engine-internal
:class:`~repro.obs.metrics.MetricsRegistry` (lockless by design, single
writer per run) the serve layer wraps one registry behind a lock.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Set as _AbstractSet
from dataclasses import dataclass, field
from itertools import compress as _compress, islice as _islice
from typing import (
    AbstractSet,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.obs.metrics import MetricsRegistry
from repro.vadalog.ast import Program
from repro.vadalog.columnar import (
    ColumnarRelation,
    bucket_index,
    carry_indexes,
)
from repro.vadalog.database import Database, Fact
from repro.vadalog.engine import Engine, EvaluationResult
from repro.vadalog.magic import GoalDirectedEvaluator
from repro.vadalog.parser import parse_program

__all__ = ["FrozenColumnBlock", "ServeMetrics", "ServeState", "StateSnapshot"]

#: Latency buckets for request histograms (milliseconds).
LATENCY_BUCKETS_MS = (
    0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


class ServeMetrics:
    """A thread-safe facade over :class:`MetricsRegistry`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.histogram(name, buckets=LATENCY_BUCKETS_MS).observe(
                value
            )

    def set_gauge(self, name: str, value: int) -> None:
        """Counters double as gauges for monotone values (epoch)."""
        with self._lock:
            counter = self.registry.counter(name)
            if value > counter.value:
                counter.inc(value - counter.value)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return self.registry.snapshot()


class FrozenColumnBlock(_AbstractSet):
    """An immutable set-of-facts view over shared interned columns.

    Holds *references* to a :class:`ColumnarRelation`'s code columns
    plus the row count at freeze time — no per-fact tuples are built
    until somebody iterates.  The only bytes copied at freeze are the
    live mask, and only when the relation carries tombstones.  Safe to
    share across threads and epochs: the columns are append-only, the
    row-count cap hides later appends, and in-place tombstoning cannot
    reach the copied mask (see the module docstring for the full
    invariant list).

    Subclasses :class:`collections.abc.Set`, so ``block == {...}``
    comparisons against literal sets/frozensets behave exactly like the
    frozensets these blocks replaced.  Membership is a linear scan;
    avoid comparing two large blocks directly (convert one to a set
    first).  Bound queries do not scan: :meth:`matching` probes a
    per-position bucket index, built on first use.
    """

    __slots__ = (
        "_cols", "_nrows", "_count", "_live", "_interner", "_index",
        "_on_index_built",
    )

    def __init__(self, relation: ColumnarRelation):
        relation._ensure_resident()
        self._cols = list(relation._cols)  # snapshot of column *refs*
        self._nrows = relation._nrows
        self._count = relation._nrows - relation._ndead
        self._live = (
            bytes(relation._live[: relation._nrows])
            if relation._ndead
            else None
        )
        self._interner = relation._interner
        #: position -> eq code -> ascending row ids: built on first use,
        #: or carried (:meth:`carry`; dead rows among them).
        self._index: Dict[int, Dict[int, List[int]]] = {}
        self._on_index_built: Optional[Any] = None  # as the relation's

    def carry(self, previous: "FrozenColumnBlock") -> int:
        """Take over the indexes of ``previous``; returns how many.
        Writer only, before publication.  None unless both blocks view
        the same column objects, i.e. number their rows alike."""
        if len(previous._cols) != len(self._cols) or any(
            old is not new for old, new in zip(previous._cols, self._cols)
        ):
            return 0
        return carry_indexes(
            previous._index, self._index, self._cols, self._interner.eq,
            previous._nrows, self._nrows,
        )

    @classmethod
    def _from_iterable(cls, iterable):
        # Set-algebra results (|, &, -) materialize as plain frozensets.
        return frozenset(iterable)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        cols = self._cols
        if not cols:  # arity-0 (propositional) extension
            return iter([()] * self._count)
        getitem = self._interner.values.__getitem__
        rows = _islice(zip(*[map(getitem, col) for col in cols]), self._nrows)
        if self._live is not None:
            return _compress(rows, self._live)
        return rows

    def __contains__(self, fact) -> bool:
        return any(row == fact for row in self)

    def matching(self, bound: Iterable[Tuple[int, Any]]) -> Iterable[Fact]:
        """A superset of the facts ``==`` to ``value`` at every
        ``(position, value)`` of ``bound`` — the smallest bucket among
        those positions, everything when nothing is bound — for callers
        to filter exactly as they would filter a scan."""
        best: Optional[List[int]] = None
        for position, value in bound:
            code = self._interner.probe_eq(value)
            if code is None or position >= len(self._cols):
                return ()
            index = self._index.get(position)
            if index is None:
                if self._on_index_built is not None:
                    self._on_index_built()
                # A slice: the writer appends to the shared column, and
                # numpy must not hold a buffer that grows.
                index = self._index[position] = bucket_index(
                    [self._cols[position][: self._nrows]],
                    self._live, self._interner.eq_array(),
                )
            bucket = index.get(code, ())
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is None:
            return self
        values = self._interner.values
        live = self._live
        return [
            tuple([values[col[row]] for col in self._cols]) for row in best
            if live is None or live[row]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arity = len(self._cols)
        return f"FrozenColumnBlock(rows={self._count}, arity={arity})"


@dataclass(frozen=True)
class StateSnapshot:
    """One immutable epoch of the materialized model.

    ``facts`` holds every predicate of the model (extensional and
    derived) as immutable fact sets, :class:`FrozenColumnBlock` views;
    ``edb`` holds the extensional slice as frozen relations (iterable,
    sized, O(1) ``in``) that an engine run reads in place — see
    :meth:`ServeState.edb_database`.
    """

    epoch: int
    facts: Mapping[str, AbstractSet[Fact]]
    edb: Mapping[str, ColumnarRelation]
    created_at: float = field(default_factory=time.time)

    def predicates(self) -> List[str]:
        return sorted(self.facts)

    def count(self, predicate: str) -> int:
        return len(self.facts.get(predicate, ()))

    def arity(self, predicate: str) -> Optional[int]:
        for fact in self.facts.get(predicate, ()):
            return len(fact)
        return None

    def total_facts(self) -> int:
        return sum(len(v) for v in self.facts.values())


class ServeState:
    """The writer side: retained chase state + snapshot publication."""

    def __init__(
        self,
        program,
        inputs: Optional[Mapping[str, Iterable[Fact]]] = None,
        *,
        check_wardedness: bool = True,
        metrics: Optional[ServeMetrics] = None,
        engine: Optional[Engine] = None,
    ):
        if isinstance(program, str):
            program = parse_program(program)
        self.program: Program = program
        self.metrics = metrics or ServeMetrics()
        self.engine = engine or Engine(check_wardedness=check_wardedness)
        self.evaluator = GoalDirectedEvaluator(program)
        self._write_lock = threading.Lock()
        self._listeners: List[Any] = []
        #: COW cache: predicate -> (relation, version, block).  A block
        #: is reused verbatim while the relation object and its
        #: monotonic mutation counter both still match.
        self._block_cache: Dict[
            str, Tuple[ColumnarRelation, int, FrozenColumnBlock]
        ] = {}
        self._snapshot: Optional[StateSnapshot] = None

        start = time.perf_counter()
        self._result: EvaluationResult = self.engine.run(
            program,
            inputs=dict(inputs) if inputs else None,
            retain_state=True,
        )
        self._snapshot = self._freeze(epoch=0)
        self.metrics.observe(
            "serve.materialize_ms", (time.perf_counter() - start) * 1000.0
        )
        self.metrics.set_gauge("serve.epoch", 0)
        self.metrics.inc("serve.index_built", 0)  # on /stats before the first

    # -- snapshot construction (writer thread only) -------------------

    def _freeze(self, epoch: int, touched: AbstractSet[str] = frozenset()):
        db = self._result.database
        cache = self._block_cache
        carried = 0  # indexes handed on from the previous epoch's views
        facts: Dict[str, AbstractSet[Fact]] = {}
        for predicate in db.predicates():
            relation = db.relation(predicate)
            entry = cache.get(predicate)
            if (
                entry is not None
                and entry[0] is relation
                and entry[1] == relation._version
            ):
                facts[predicate] = entry[2]
                continue
            block = FrozenColumnBlock(relation)
            block._on_index_built = self._index_built
            if entry is not None:
                carried += block.carry(entry[2])
            # Read the version *after* construction: rehydrating a
            # spilled relation bumps it.
            cache[predicate] = (relation, relation._version, block)
            facts[predicate] = block
        prev_edb = self._snapshot.edb if self._snapshot is not None else {}
        idb = self.program.idb_predicates()
        state = self._result.state  # None after a truncated base run
        edb: Dict[str, ColumnarRelation] = {}
        for predicate in db.predicates():
            live = db.relation(predicate)
            extension = (
                state.extension(predicate) if state is not None
                else () if predicate in idb else live
            )
            if predicate in prev_edb and predicate not in touched:
                # An extension changes only by a delta that names its
                # predicate: alias the previous epoch's.
                edb[predicate] = prev_edb[predicate]
            elif extension:
                relation = live.copy()
                if extension is not live:
                    # Facts supplied for a derived predicate: the live
                    # relation holds derived rows too.
                    relation.reset(extension)
                relation._on_index_built = self._index_built
                if predicate in prev_edb:  # (nothing after a ``reset``)
                    carried += relation.carry_indexes(prev_edb[predicate])
                edb[predicate] = relation.freeze()
        self.metrics.set_gauge("serve.interner_codes", len(db.interner))
        self.metrics.inc("serve.index_carried", carried)
        return StateSnapshot(epoch=epoch, facts=facts, edb=edb)

    def _restore(self) -> None:
        """Re-run the chase from the published epoch's extensional slice,
        over the retained interner: the frozen ``snapshot.edb`` relations
        the next freeze aliases stay valid, and none is written to."""
        interner = self._result.database.interner
        self._result = self.engine.run(
            self.program,
            database=Database(interner=interner),
            inputs={p: list(r) for p, r in self._snapshot.edb.items()},
            retain_state=True,
            copy_database=False,
        )

    def _index_built(self) -> None:
        """A frozen view's first reader built an index from scratch."""
        self.metrics.inc("serve.index_built")

    def store_rows(self) -> Dict[str, int]:
        """Live and tombstoned rows of the retained database."""
        db = self._result.database
        return {"live_rows": db.total_facts(), "dead_rows": db.dead_rows()}

    # -- reader API ---------------------------------------------------

    @property
    def snapshot(self) -> StateSnapshot:
        """The current epoch; a single atomic attribute read."""
        return self._snapshot

    def edb_database(self, snapshot: StateSnapshot) -> Database:
        """``snapshot``'s extensional slice as the ``database=`` of an
        engine run: the epoch's frozen relations themselves, over the
        retained interner (one small dict per request)."""
        base = Database(interner=self._result.database.interner)
        for predicate, relation in snapshot.edb.items():
            base.share(predicate, relation)
        return base

    # -- writer API ---------------------------------------------------

    def subscribe(self, listener) -> None:
        """``listener(snapshot)`` runs after every epoch swap (used by
        the result cache to drop superseded entries)."""
        self._listeners.append(listener)

    def apply_delta(
        self,
        added: Optional[Mapping[str, Iterable[Fact]]] = None,
        removed: Optional[Mapping[str, Iterable[Fact]]] = None,
    ):
        """Apply an extensional delta and publish the next epoch.

        A delta that raises publishes nothing: the retained state goes
        back to the last published epoch before the error propagates.
        """
        with self._write_lock:
            start = time.perf_counter()
            try:
                delta = self.engine.apply_delta(
                    self._result,
                    added=dict(added) if added else None,
                    removed=dict(removed) if removed else None,
                )
                touched = set(added or ()) | set(removed or ())
                db = self._result.database
                if db.dead_rows() > db.total_facts():
                    db.compact()  # a safe point: no index iteration alive
                snapshot = self._freeze(
                    epoch=self._snapshot.epoch + 1, touched=touched
                )
            except Exception:
                self._restore()
                raise
            self._snapshot = snapshot  # atomic publication
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.observe("serve.delta_ms", elapsed_ms)
        self.metrics.inc("serve.deltas")
        self.metrics.set_gauge("serve.epoch", snapshot.epoch)
        for listener in self._listeners:
            listener(snapshot)
        return delta
