"""Resilient deployment: retry policies, fault injection, quarantine.

Production KG pipelines treat load failures, partial data, and retries
as first-class concerns; the paper's Section 5/6 deployment story
assumes targets that take a load atomically or reject it cleanly.  This
module supplies the machinery that closes the gap for our in-memory
targets:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  around any store mutation, with an injectable ``sleep`` (tests and the
  chaos battery never actually wait).  Exhaustion raises
  :class:`~repro.errors.RetryExhaustedError` carrying the last cause.
- :class:`FaultInjector` — a transparent wrapper around any store that
  injects seeded transient faults, latency, and crash-after-N-records
  failures into the mutation methods, leaving reads and the savepoint
  protocol untouched.  This is how the failure paths are *tested*:
  deterministic chaos, not flaky sleeps.
- :class:`QuarantineReport` — graceful degradation: per-record
  rejections (unknown label, integrity violation) are collected instead
  of aborting the load, and can be serialized for offline triage.
- :class:`LoadReport` / :class:`TripleLoadReport` — what the
  transactional loaders in :mod:`repro.deploy.loaders` return; both stay
  unpack-compatible with the pre-resilience tuple/int returns.

Everything is observable through the usual tracer counters:
``deploy.retries``, ``deploy.rollbacks``, ``deploy.quarantined``,
``deploy.replay_skipped``, ``deploy.faults_injected``, and, for which
path a graph load took, ``deploy.load_adopted_rows`` /
``deploy.load_per_record``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    DeploymentError,
    RetryExhaustedError,
    TransientDeploymentError,
)
from repro.obs.tracer import Tracer

#: Load modes: strict preserves fail-fast semantics (an integrity
#: violation rolls the whole load back and raises); graceful quarantines
#: the offending record and carries on.
STRICT = "strict"
GRACEFUL = "graceful"


class CrashFault(DeploymentError):
    """An injected hard crash (process death): never retried.

    Raised by :class:`FaultInjector` once its ``crash_after`` budget of
    successful mutations is spent.  Deliberately *not* a
    :class:`~repro.errors.TransientDeploymentError`: retry policies must
    let it through so the load aborts the way a real crash would, leaving
    only whole committed batches behind.
    """


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------
@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before retry ``n`` (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` stretched by a
    jitter factor in ``[1, 1 + jitter]`` derived from ``(seed, n)`` — the
    same policy always produces the same schedule, so failure tests and
    the chaos battery are reproducible.  ``sleep`` is injectable; tests
    pass a recording fake and never wait.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep
    retry_on: Tuple[type, ...] = (TransientDeploymentError,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        backoff = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        # Deterministic jitter: (seed, attempt) hashed to a fraction in [0, 1).
        frac = random.Random(self.seed * 1_000_003 + attempt).random()
        return backoff * (1.0 + self.jitter * frac)

    def schedule(self) -> List[float]:
        """The full backoff schedule (one delay per possible retry)."""
        return [self.delay(n) for n in range(1, self.max_attempts)]

    def call(
        self,
        operation: Callable[[], Any],
        *,
        tracer: Optional[Tracer] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Run ``operation`` until it succeeds or attempts are exhausted.

        Only exceptions in ``retry_on`` (transient failures) are caught;
        ``on_retry(attempt, error)`` runs before each backoff — the
        loaders use it to roll the failed batch back.
        """
        attempt = 1
        while True:
            try:
                return operation()
            except self.retry_on as exc:
                if attempt >= self.max_attempts:
                    raise RetryExhaustedError(
                        f"operation failed after {attempt} attempts: {exc}",
                        attempts=attempt,
                        last_error=exc,
                    ) from exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if tracer is not None:
                    tracer.count("deploy.retries", 1)
                self.sleep(self.delay(attempt))
                attempt += 1


#: A policy that never retries — strict single-shot semantics.
def no_retry() -> RetryPolicy:
    """A policy making exactly one attempt (retries disabled)."""
    return RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class FaultInjector:
    """Wraps a deployment store and injects deterministic faults.

    Mutation methods (``create_node``, ``create_relationship``, ``add``,
    ``insert``) are intercepted; everything else — reads, extraction, the
    savepoint protocol — passes straight through, so a wrapped store is a
    drop-in for the loaders and for
    :func:`~repro.ssst.sigma_relational.reason_over_relational`.

    Parameters
    ----------
    fault_rate:
        Per-mutation probability of raising a
        :class:`~repro.errors.TransientDeploymentError` *before* the
        mutation applies (the record is never half-written).
    crash_after:
        After this many successful mutations every further mutation
        raises :class:`CrashFault` — simulating a process killed mid-load.
    latency:
        Seconds of injected delay per mutation, delivered through
        ``sleep`` (injectable; defaults to a no-op so tests never wait).
    seed:
        Seed for the fault stream; the same seed replays the same faults.
    """

    #: ``apply_flush_delta`` makes *batch* applies interceptable too:
    #: the streaming pipeline mutates stores only through it (the store's
    #: internal per-record calls bypass the wrapper), so a transient fault
    #: fires before the batch touches anything and ``crash_after`` counts
    #: applied batches — exactly the crash-mid-stream granularity the
    #: chaos battery kills at.
    _MUTATORS = frozenset(
        {
            "create_node",
            "create_relationship",
            "add",
            "insert",
            "append",
            "apply_flush_delta",
        }
    )

    #: Faults are per mutation, so the wrapper offers the per-record
    #: mutators only: a loader that finds no ``adopt`` on its store
    #: loads record by record.
    _BULK_WRITERS = frozenset({"adopt"})

    def __init__(
        self,
        store: Any,
        fault_rate: float = 0.0,
        crash_after: Optional[int] = None,
        latency: float = 0.0,
        seed: int = 0,
        sleep: Optional[Callable[[float], None]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        self.store = store
        self.fault_rate = fault_rate
        self.crash_after = crash_after
        self.latency = latency
        self.tracer = tracer if tracer is not None else getattr(store, "tracer", None)
        self._sleep = sleep if sleep is not None else (lambda _s: None)
        self._rng = random.Random(seed)
        self.faults_injected = 0
        self.mutations_applied = 0

    @property
    def name(self) -> str:
        return getattr(self.store, "name", "store")

    def arm(self, seed: int) -> None:
        """Re-seed the fault stream (each chaos scenario gets its own)."""
        self._rng = random.Random(seed)

    def _inject(self, method_name: str) -> None:
        if self.latency:
            self._sleep(self.latency)
        if (
            self.crash_after is not None
            and self.mutations_applied >= self.crash_after
        ):
            raise CrashFault(
                f"injected crash after {self.mutations_applied} records "
                f"(in {method_name})"
            )
        if self.fault_rate and self._rng.random() < self.fault_rate:
            self.faults_injected += 1
            if self.tracer is not None:
                self.tracer.count("deploy.faults_injected", 1)
            raise TransientDeploymentError(
                f"injected transient fault #{self.faults_injected} "
                f"(in {method_name})"
            )

    def __getattr__(self, name: str) -> Any:
        if name in self._BULK_WRITERS:
            raise AttributeError(name)
        attribute = getattr(self.store, name)
        if name not in self._MUTATORS or not callable(attribute):
            return attribute

        def faulty(*args: Any, **kwargs: Any) -> Any:
            self._inject(name)
            result = attribute(*args, **kwargs)
            self.mutations_applied += 1
            return result

        return faulty

    def __repr__(self) -> str:
        return (
            f"FaultInjector({self.store!r}, rate={self.fault_rate}, "
            f"crash_after={self.crash_after}, "
            f"faults={self.faults_injected}, applied={self.mutations_applied})"
        )


# ----------------------------------------------------------------------
# Quarantine (graceful degradation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rejection:
    """One quarantined record: what it was and why it was rejected."""

    kind: str  # "node" | "edge" | "triple" | "row"
    record: Any  # a JSON-able description of the offending record
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "record": self.record, "reason": self.reason}


@dataclass
class QuarantineReport:
    """Every record a graceful load rejected, with reasons."""

    rejections: List[Rejection] = field(default_factory=list)

    def reject(self, kind: str, record: Any, reason: str) -> None:
        self.rejections.append(Rejection(kind, record, reason))

    def extend(self, rejections: List[Rejection]) -> None:
        self.rejections.extend(rejections)

    def __len__(self) -> int:
        return len(self.rejections)

    def __bool__(self) -> bool:
        return bool(self.rejections)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rejection in self.rejections:
            counts[rejection.kind] = counts.get(rejection.kind, 0) + 1
        return counts

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "quarantined": len(self.rejections),
            "by_kind": self.by_kind(),
            "rejections": [r.to_dict() for r in self.rejections],
        }
        return json.dumps(payload, indent=indent, default=str)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


# ----------------------------------------------------------------------
# Load reports
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Outcome of a transactional graph-store load.

    Unpacks as the historical ``(nodes, edges)`` pair, so pre-resilience
    callers keep working: ``nodes, edges = load_graph_store(...)``.
    """

    nodes: int = 0
    edges: int = 0
    #: Records skipped because their label is unknown to the schema
    #: (the silent-skip class of the pre-resilience loaders — now counted).
    skipped_nodes: int = 0
    skipped_edges: int = 0
    #: Records skipped because an identical one is already in the store
    #: (idempotent replay after a crash).
    replayed: int = 0
    #: Batches applied, and transient-fault retries spent across them.
    batches: int = 0
    retries: int = 0
    rollbacks: int = 0
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)
    mode: str = STRICT
    #: Records an empty store took over with the instance's graph
    #: instead of writing them (:meth:`GraphStore.adopt`); they count
    #: in ``nodes`` / ``edges`` too.
    adopted_rows: int = 0
    #: Records that went through the per-record path, under the one
    #: reason the load gave: ``no-bulk-writer`` (a fault-injecting
    #: store: faults are per mutation), ``replay`` (the store already
    #: held records), ``not-adoptable`` (the instance does not share the
    #: store's codes, or holds elements outside the schema) or
    #: ``integrity-fallback`` (a graceful load whose adoption was
    #: refused, to quarantine the offenders).
    per_record: Dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter((self.nodes, self.edges))

    @property
    def skipped(self) -> int:
        return self.skipped_nodes + self.skipped_edges

    @property
    def quarantined(self) -> int:
        return len(self.quarantine)

    def summary(self) -> str:
        parts = [
            f"nodes={self.nodes}",
            f"edges={self.edges}",
            f"skipped={self.skipped}",
            f"quarantined={self.quarantined}",
            f"replayed={self.replayed}",
            f"batches={self.batches}",
            f"retries={self.retries}",
            f"adopted={self.adopted_rows}",
            f"per-record={sum(self.per_record.values())}",
        ]
        return f"load[{self.mode}]: " + " ".join(parts)


class TripleLoadReport(int):
    """Triple-store load outcome; compares as the asserted-triple count.

    ``int`` subclassing keeps the historical contract (``added > 0``,
    arithmetic on the return value) while carrying the resilience
    details as attributes.
    """

    triples: int
    skipped_nodes: int
    skipped_edges: int
    replayed: int
    batches: int
    retries: int
    rollbacks: int
    quarantine: QuarantineReport
    mode: str
    #: Set edge attributes no triple carries (RDF reification is out of
    #: scope).
    edge_attributes_dropped: int

    def __new__(
        cls,
        triples: int,
        skipped_nodes: int = 0,
        skipped_edges: int = 0,
        replayed: int = 0,
        batches: int = 0,
        retries: int = 0,
        rollbacks: int = 0,
        quarantine: Optional[QuarantineReport] = None,
        mode: str = STRICT,
        edge_attributes_dropped: int = 0,
    ) -> "TripleLoadReport":
        report = super().__new__(cls, triples)
        report.triples = triples
        report.skipped_nodes = skipped_nodes
        report.skipped_edges = skipped_edges
        report.replayed = replayed
        report.batches = batches
        report.retries = retries
        report.rollbacks = rollbacks
        report.quarantine = quarantine if quarantine is not None else QuarantineReport()
        report.mode = mode
        report.edge_attributes_dropped = edge_attributes_dropped
        return report

    @property
    def skipped(self) -> int:
        return self.skipped_nodes + self.skipped_edges

    @property
    def quarantined(self) -> int:
        return len(self.quarantine)

    def summary(self) -> str:
        return (
            f"load[{self.mode}]: triples={self.triples} "
            f"skipped={self.skipped} quarantined={self.quarantined} "
            f"batches={self.batches} retries={self.retries} "
            f"edge-attributes-dropped={self.edge_attributes_dropped}"
        )


def graph_store_state(store: Any) -> Tuple[Any, Any]:
    """Canonical (node set, edge set) fingerprint of a graph store.

    Edge OIDs are generated, so two loads of the same data compare by
    (source, target, label, properties) — the byte-identity notion the
    chaos battery and the replay tests assert.
    """
    graph = store.graph
    nodes = sorted(
        (
            str(node.id),
            tuple(sorted(store.labels_of(node.id))),
            tuple(sorted((k, str(v)) for k, v in node.properties.items())),
        )
        for node in graph.nodes()
    )
    edges = sorted(
        (
            str(edge.source),
            str(edge.target),
            edge.label or "",
            tuple(sorted((k, str(v)) for k, v in edge.properties.items())),
        )
        for edge in graph.edges()
    )
    return tuple(nodes), tuple(edges)
