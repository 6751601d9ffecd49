"""Per-window delta coalescing.

A CDC feed is chatty: a shareholding that changes five times inside one
batch window only needs its *final* value applied; an entity added and
removed in the same window needs nothing at all.  The coalescer folds
every record sharing a key into one net operation before the engine
sees it, so the expensive part of the pipeline — the incremental chase
— runs once per window per entity instead of once per record.

The state machine tracks, per key, whether the entity exists in the
*base* (the sink state before this window) and the *net* pending
operation::

    base_exists  net       add arrives        remove arrives
    -----------  -------   ----------------   ------------------
    no           None      -> ADD             reject/skip (unknown)
    no           ADD       reject/skip (dup)  -> cancelled (None)
    yes          None      reject/skip (dup)  -> REMOVE
    yes          REMOVE    -> REPLACE         reject/skip (dup)
    yes          REPLACE   reject/skip (dup)  -> REMOVE

Registry mode is *strict*: a rejected transition (adding an existing
node, removing an unknown edge) is a constraint violation and the
record is quarantined.  Fact mode is *tolerant*, matching the engine's
own delta semantics (duplicate adds and removals of absent facts are
skipped, not errors): rejected transitions are simply dropped and
counted.

Removing a node also cancels pending edge additions that reference it
(and degrades pending edge REPLACEs to REMOVEs), mirroring the
materializer's endpoint validation — otherwise a window containing
``add_edge(e, n, m); remove_node(n)`` would emit a dangling edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.stream.feed import FeedRecord

__all__ = ["DeltaCoalescer", "CoalescedBatch", "CoalesceStats"]

Key = Tuple[Any, ...]

_ADD = "add"
_REMOVE = "remove"
_REPLACE = "replace"


@dataclass
class _Slot:
    base_exists: bool
    net: Optional[str] = None  # None | "add" | "remove" | "replace"
    payload: Optional[Dict[str, Any]] = None  # latest add payload
    records: int = 0


@dataclass
class CoalesceStats:
    """Accounting for one window (summed into the stream report)."""

    records: int = 0
    operations: int = 0
    cancelled: int = 0
    duplicates: int = 0
    rejected: int = 0

    @property
    def ratio(self) -> float:
        """Net operations per input record (1.0 = nothing folded)."""
        if self.records == 0:
            return 1.0
        return self.operations / self.records


@dataclass
class CoalescedBatch:
    """The net effect of one window, ready for a sink.

    ``operations`` is ordered by first touch of each key, each entry
    ``(net, key, payload)`` where ``net`` is ``"add"``, ``"remove"``,
    or ``"replace"`` and ``payload`` is the latest add payload (None
    for removes).  ``rejections`` carries the quarantinable records of
    a strict-mode window as ``(record, reason)`` pairs.
    """

    operations: List[Tuple[str, Key, Optional[Dict[str, Any]]]]
    stats: CoalesceStats
    rejections: List[Tuple[FeedRecord, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.operations


class DeltaCoalescer:
    """Fold a window of feed records into net per-key operations.

    ``exists`` is the sink's membership oracle (does this key exist in
    the base state?); ``strict`` selects registry-mode rejection vs
    fact-mode tolerance.
    """

    def __init__(self, exists, *, strict: bool):
        self._exists = exists
        self.strict = strict
        self._slots: Dict[Key, _Slot] = {}
        self._order: List[Key] = []
        self._stats = CoalesceStats()
        self._rejections: List[Tuple[FeedRecord, str]] = []

    # -- helpers -------------------------------------------------------
    def _slot(self, key: Key) -> _Slot:
        slot = self._slots.get(key)
        if slot is None:
            slot = _Slot(base_exists=bool(self._exists(key)))
            self._slots[key] = slot
            self._order.append(key)
        return slot

    def _reject(self, record: FeedRecord, reason: str) -> None:
        if self.strict:
            self._rejections.append((record, reason))
            self._stats.rejected += 1
        else:
            self._stats.duplicates += 1

    # -- ingestion -----------------------------------------------------
    def push(self, record: FeedRecord) -> None:
        key = record.key
        slot = self._slot(key)
        slot.records += 1
        self._stats.records += 1
        if record.is_addition:
            self._push_add(record, slot)
        else:
            self._push_remove(record, key, slot)

    def _push_add(self, record: FeedRecord, slot: _Slot) -> None:
        if slot.net == _ADD or slot.net == _REPLACE:
            self._reject(record, "duplicate addition in window")
            return
        if slot.net is None and slot.base_exists:
            self._reject(record, "already exists")
            return
        if slot.net == _REMOVE:
            slot.net = _REPLACE
        else:
            slot.net = _ADD
        slot.payload = record.payload

    def _push_remove(self, record: FeedRecord, key: Key, slot: _Slot) -> None:
        if slot.net == _REMOVE:
            self._reject(record, "duplicate removal in window")
            return
        if slot.net == _ADD:
            # Added and removed inside one window: net no-op.  The node
            # still ends the window absent, so pending edges referencing
            # it must cancel exactly as for a plain removal.
            slot.net = None
            slot.payload = None
            self._stats.cancelled += 2
            if key[0] == "node":
                self._cascade_node_removal(key[1])
            return
        if slot.net == _REPLACE:
            slot.net = _REMOVE
            slot.payload = None
            if key[0] == "node":
                self._cascade_node_removal(key[1])
            return
        if not slot.base_exists:
            self._reject(record, "does not exist")
            return
        slot.net = _REMOVE
        if key[0] == "node":
            self._cascade_node_removal(key[1])

    def _cascade_node_removal(self, node_id: Any) -> None:
        """Drop pending edge additions that reference a removed node."""
        for edge_key in self._order:
            if edge_key[0] != "edge":
                continue
            slot = self._slots[edge_key]
            if slot.payload is None:
                continue
            if node_id not in (
                slot.payload.get("source"),
                slot.payload.get("target"),
            ):
                continue
            if slot.net == _ADD:
                slot.net = None
                slot.payload = None
                self._stats.cancelled += 1
            elif slot.net == _REPLACE:
                slot.net = _REMOVE
                slot.payload = None

    # -- drain ---------------------------------------------------------
    def drain(self) -> CoalescedBatch:
        """Finalize the window and reset for the next one."""
        operations: List[Tuple[str, Key, Optional[Dict[str, Any]]]] = []
        for key in self._order:
            slot = self._slots[key]
            if slot.net is None:
                continue
            operations.append((slot.net, key, slot.payload))
        self._stats.operations = len(operations)
        batch = CoalescedBatch(
            operations=operations,
            stats=self._stats,
            rejections=self._rejections,
        )
        self._slots = {}
        self._order = []
        self._stats = CoalesceStats()
        self._rejections = []
        return batch
