"""Savepoint/rollback support for the in-memory deployment stores.

The paper's deployment story (Section 5) assumes targets that accept a
load atomically or reject it cleanly; our stores mutate record by
record, so without help a mid-load failure strands a half-written
instance.  This module provides the one primitive all three stores
(:class:`~repro.deploy.graph_store.GraphStore`,
:class:`~repro.deploy.triple_store.TripleStore`,
:class:`~repro.deploy.relational_engine.RelationalEngine`) use: an
:class:`UndoLog` of closures.  Each store records, for every successful
mutation — insert, bulk write, delete or update — a callable that undoes
it, but only while at least one savepoint is open, so steady-state
writes outside a transaction cost a single attribute check.  An undo
closure must not record anything itself: it writes through the store's
private helpers, never its journaled mutators.

Savepoints nest: an inner rollback leaves the outer savepoint intact,
and the log is truncated only when the outermost savepoint is released.
:func:`transaction` wraps the common pattern (savepoint, roll back on
any exception, always release) as a context manager usable with any
object exposing the three-method savepoint protocol
(``savepoint`` / ``rollback_to`` / ``release``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List


@dataclass(frozen=True)
class Savepoint:
    """An opaque marker into a store's undo log."""

    mark: int


class UndoLog:
    """A stack of undo closures, active only inside savepoints."""

    __slots__ = ("_entries", "_depth")

    def __init__(self):
        self._entries: List[Callable[[], None]] = []
        self._depth = 0

    @property
    def active(self) -> bool:
        """True while at least one savepoint is open."""
        return self._depth > 0

    def record(self, undo: Callable[[], None]) -> None:
        """Register the inverse of a mutation that just succeeded."""
        if self._depth:
            self._entries.append(undo)

    def savepoint(self) -> Savepoint:
        """Open a savepoint at the current position of the log."""
        self._depth += 1
        return Savepoint(len(self._entries))

    def rollback_to(self, savepoint: Savepoint) -> int:
        """Undo every mutation recorded after the savepoint.

        Entries run in reverse order (edges before the nodes they hang
        off, index entries before rows).  Returns how many were undone.
        """
        undone = 0
        while len(self._entries) > savepoint.mark:
            undo = self._entries.pop()
            undo()
            undone += 1
        return undone

    def release(self, savepoint: Savepoint) -> None:
        """Close a savepoint; the outermost release clears the log."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0:
            self._entries.clear()

    def __repr__(self) -> str:
        return f"UndoLog(entries={len(self._entries)}, depth={self._depth})"


class SavepointMixin:
    """The store-facing face of the protocol.

    A store mixes this in and exposes ``self._undo`` (an
    :class:`UndoLog`); mutation methods guard journaling on
    ``self._undo.active`` so the non-transactional path stays free.
    """

    _undo: UndoLog

    def savepoint(self) -> Savepoint:
        """Open a savepoint; pair with :meth:`rollback_to` / :meth:`release`."""
        return self._undo.savepoint()

    def rollback_to(self, savepoint: Savepoint) -> int:
        """Undo every mutation made since ``savepoint``."""
        return self._undo.rollback_to(savepoint)

    def release(self, savepoint: Savepoint) -> None:
        """Commit (forget) a savepoint without undoing anything."""
        self._undo.release(savepoint)


@contextmanager
def transaction(store) -> Iterator[Savepoint]:
    """All-or-nothing block over any store with the savepoint protocol.

    On a clean exit the savepoint is released (mutations kept); on any
    exception every mutation made inside the block is rolled back before
    the exception propagates, and ``deploy.rollbacks`` is counted on the
    store's ``tracer`` when it has one.
    """
    savepoint = store.savepoint()
    try:
        yield savepoint
    except BaseException:
        store.rollback_to(savepoint)
        tracer = getattr(store, "tracer", None)
        if tracer is not None:
            tracer.count("deploy.rollbacks", 1)
        raise
    finally:
        store.release(savepoint)
