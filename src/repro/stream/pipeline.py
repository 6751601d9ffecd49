"""The durable streaming pipeline: feed -> log -> coalesce -> sink.

One :class:`DeltaStream` pulls change records from a feed source,
makes each poll's records durable *before* applying any of them (append
to the CRC-framed :class:`~repro.stream.log.DeltaLog`, one fsync per
poll), coalesces a batch window of records into net operations, applies
them through a sink, and only then acknowledges the batch.  A
:class:`~repro.stream.log.StreamCheckpoint` persists the sink state
together with the acknowledged log offset, so after a crash —
mid-batch, mid-fsync, anywhere — ``run(resume=True)`` restores the
checkpointed state and replays exactly the unacknowledged log suffix:

    crash-consistency invariant
        checkpoint state == result of applying log[.. acked_offset];
        every logged-but-unacked record is replayed, every acked record
        is never replayed.

Backpressure: when a :class:`~repro.obs.governor.ResourceGovernor`
reports the apply path over its time budget, a graceful governor widens
the batch window (bigger batches coalesce harder and amortize flush
cost); a strict one raises :class:`~repro.errors.ResourceLimitError`.
Fast batches decay the window back toward its configured base.

Malformed records, duplicate sequence numbers, validation failures, and
constraint-violating batches are quarantined into a
:class:`~repro.deploy.resilience.QuarantineReport` — the stream never
stalls on bad input, and never silently drops it either.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.deploy.resilience import QuarantineReport
from repro.errors import ResourceLimitError, SchemaError, StreamError
from repro.obs.governor import ResourceGovernor
from repro.obs.tracer import NullTracer, Tracer
from repro.stream.coalesce import DeltaCoalescer
from repro.stream.feed import FeedRecord, parse_record
from repro.stream.log import DeltaLog, StreamCheckpoint
from repro.stream.sinks import ApplyResult

__all__ = ["DeltaStream", "StreamReport"]


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class StreamReport:
    """Live counters for one stream run (exposed under ``/stats``)."""

    records_seen: int = 0
    records_quarantined: int = 0
    duplicates_skipped: int = 0
    replayed_records: int = 0
    batches_applied: int = 0
    operations_applied: int = 0
    operations_dropped: int = 0
    records_cancelled: int = 0  # coalesced away inside a window
    facts_added: int = 0
    facts_removed: int = 0
    flush_changes: int = 0
    backpressure_widenings: int = 0
    apply_seconds: float = 0.0
    acked_offset: int = -1
    epoch: Optional[int] = None
    window: int = 0
    #: Per-record end-to-end staleness (arrival -> acknowledged), capped.
    staleness_samples: List[float] = field(default_factory=list)
    staleness_dropped: int = 0

    def staleness_p50(self) -> float:
        return _percentile(self.staleness_samples, 0.50)

    def staleness_p99(self) -> float:
        return _percentile(self.staleness_samples, 0.99)

    def coalesce_ratio(self) -> float:
        consumed = self.operations_applied + self.operations_dropped
        produced = consumed + self.records_cancelled
        if produced == 0:
            return 1.0
        return consumed / produced

    def to_json(self) -> Dict[str, Any]:
        return {
            "records_seen": self.records_seen,
            "records_quarantined": self.records_quarantined,
            "duplicates_skipped": self.duplicates_skipped,
            "replayed_records": self.replayed_records,
            "batches_applied": self.batches_applied,
            "operations_applied": self.operations_applied,
            "operations_dropped": self.operations_dropped,
            "records_cancelled": self.records_cancelled,
            "coalesce_ratio": round(self.coalesce_ratio(), 4),
            "facts_added": self.facts_added,
            "facts_removed": self.facts_removed,
            "flush_changes": self.flush_changes,
            "backpressure_widenings": self.backpressure_widenings,
            "apply_seconds": round(self.apply_seconds, 6),
            "acked_offset": self.acked_offset,
            "epoch": self.epoch,
            "window": self.window,
            "staleness_p50_seconds": round(self.staleness_p50(), 6),
            "staleness_p99_seconds": round(self.staleness_p99(), 6),
            "staleness_samples": len(self.staleness_samples)
            + self.staleness_dropped,
        }


class DeltaStream:
    """Durable change-feed consumption with coalescing and backpressure.

    Parameters
    ----------
    source:
        A feed (:class:`~repro.stream.feed.JsonlFeed`,
        :class:`~repro.stream.feed.GeneratorFeed`, or a
        :class:`~repro.stream.feed.FeedFaultInjector` wrapping one).
    sink:
        A :class:`~repro.stream.sinks.MaterializerSink` or
        :class:`~repro.stream.sinks.ServeStateSink`.
    log_dir:
        Directory for the delta log segments and the checkpoint; a
        non-empty directory requires ``run(resume=True)``.
    governor:
        Optional apply-path budget; see the module docstring.
    batch_window:
        Base records-per-batch.  Backpressure can widen the live window
        up to ``max_window``; it decays back when pressure clears.
    checkpoint_every / compact_every:
        Checkpoint the sink state every N applied batches; drop fully
        acknowledged log segments every N applied batches.
    follow:
        Keep polling at ``poll_interval`` after the feed drains
        (daemon mode).  ``stop()`` ends a following stream.
    max_batches:
        Apply at most this many batches, then return (chaos tests use
        this to stop a stream mid-feed).
    """

    def __init__(
        self,
        source: Any,
        sink: Any,
        log_dir: str,
        *,
        governor: Optional[ResourceGovernor] = None,
        batch_window: int = 64,
        max_window: int = 4096,
        checkpoint_every: int = 8,
        compact_every: int = 16,
        follow: bool = False,
        poll_interval: float = 0.05,
        max_batches: Optional[int] = None,
        quarantine: Optional[QuarantineReport] = None,
        segment_records: int = 1024,
        fsync: bool = True,
        seq_window: int = 4096,
        staleness_cap: int = 100_000,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        if max_window < batch_window:
            raise ValueError("max_window must be >= batch_window")
        self.source = source
        self.sink = sink
        self.log = DeltaLog(
            log_dir, segment_records=segment_records, fsync=fsync,
            tracer=tracer,
        )
        self.checkpoint = StreamCheckpoint(log_dir)
        self.governor = governor
        self.batch_window = batch_window
        self.max_window = max_window
        self.checkpoint_every = checkpoint_every
        self.compact_every = compact_every
        self.follow = follow
        self.poll_interval = poll_interval
        self.max_batches = max_batches
        self.quarantine = quarantine if quarantine is not None else QuarantineReport()
        self.seq_window = seq_window
        self.staleness_cap = staleness_cap
        self.tracer = tracer or NullTracer()
        self._clock = clock
        self._sleep = sleep

        self.report = StreamReport(window=batch_window)
        self._window: float = float(batch_window)
        #: (log offset, parsed record, arrival time)
        self._pending: Deque[Tuple[int, FeedRecord, float]] = deque()
        self._recent_seqs: Deque[int] = deque(maxlen=seq_window)
        self._recent_set: set = set()
        self._acked_offset = -1
        self._durable_offset = -1  # highest offset covered by a checkpoint
        self._last_position = 0
        self._max_seq = -1
        self._batches_since_checkpoint = 0
        self._batches_since_compact = 0
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Binds log + checkpoint to the sink's immutable inputs."""
        material = self.sink.fingerprint_material()
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def stop(self) -> None:
        """Ask a following stream to exit after the current batch."""
        self._stopped = True

    def stats_summary(self) -> Dict[str, Any]:
        summary = self.report.to_json()
        summary["pending_records"] = len(self._pending)
        summary["quarantined_total"] = len(self.quarantine.rejections)
        summary["source"] = getattr(self.source, "name", "feed")
        summary["source_position"] = self._last_position
        summary["log_next_offset"] = self.log.next_offset
        summary.update(self.sink.store_rows())
        return summary

    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) -> StreamReport:
        """Consume the feed to completion (or until stopped).

        ``resume=False`` requires a pristine log directory and
        bootstraps the sink from its configured inputs;
        ``resume=True`` restores the checkpointed state and replays the
        unacknowledged log suffix before touching the feed.
        """
        if resume:
            self._resume()
        else:
            if self.log.next_offset > 0 or self.checkpoint.exists():
                raise StreamError(
                    f"log directory {self.log.directory!r} already holds a "
                    "stream; pass resume=True to continue it"
                )
            self.sink.bootstrap()
            # Checkpoint the pristine state before anything applies, so
            # a crash in the very first batch still has a resume point.
            self._save_checkpoint()
        completed = False
        try:
            self._loop()
            completed = True
        finally:
            self._finalize(completed)
        return self.report

    # ------------------------------------------------------------------
    def _resume(self) -> None:
        payload = self.checkpoint.load(self.fingerprint)
        self.sink.restore(payload["state"])
        self.sink.bootstrap()
        acked = payload["acked_offset"]
        self._acked_offset = acked
        self._durable_offset = acked
        self._last_position = payload["source_position"]
        self._max_seq = payload["last_seq"]
        self.report.batches_applied = payload["batches_applied"]
        self.report.acked_offset = acked
        with self.tracer.span("stream.replay", after=acked):
            for entry in self.log.replay(after=acked):
                record = parse_record(entry.text)
                self._note_seq(record.seq)
                self._pending.append((entry.offset, record, self._clock()))
                self.report.replayed_records += 1
        self.tracer.count("stream.replayed", self.report.replayed_records)
        # The log also covers records the checkpoint predates.
        self.source.seek(max(self._last_position, self.log.last_position))
        self._last_position = max(self._last_position, self.log.last_position)

    def _loop(self) -> None:
        while not self._stopped:
            pumped = self._pump()
            while len(self._pending) >= int(self._window):
                self._apply_window()
                if self._done():
                    return
            if self._done():
                return
            if pumped == 0:
                if self._pending:
                    # Idle feed: flush the partial window rather than
                    # hold records hostage to the batch size.
                    self._apply_window()
                    continue
                if not self.follow:
                    return
                self._sleep(self.poll_interval)

    def _done(self) -> bool:
        if self._stopped:
            return True
        return (
            self.max_batches is not None
            and self.report.batches_applied >= self.max_batches
        )

    def _finalize(self, completed: bool) -> None:
        # After a crash the sink may hold a half-applied (or applied but
        # unacknowledged) batch; checkpointing it would break the
        # invariant that checkpoint state == log[.. acked_offset].  Only
        # a cleanly completed run saves its final progress — a crashed
        # one resumes from the last good checkpoint and replays.
        if completed and self._acked_offset > self._durable_offset:
            self._save_checkpoint()
        self.log.compact(self._durable_offset)
        self.log.close()

    # ------------------------------------------------------------------
    def _note_seq(self, seq: Optional[int]) -> None:
        if seq is None:
            return  # seq-less records opt out of duplicate suppression
        if len(self._recent_seqs) == self._recent_seqs.maxlen:
            self._recent_set.discard(self._recent_seqs[0])
        self._recent_seqs.append(seq)
        self._recent_set.add(seq)
        if self._max_seq is None or seq > self._max_seq:
            self._max_seq = seq

    def _pump(self) -> int:
        """One poll: filter it, then log what it accepted as one group,
        a write per record and one fsync, issued from the last append."""
        raws = self.source.poll()
        accepted: List[Tuple[Any, FeedRecord]] = []
        for raw in raws:
            self.report.records_seen += 1
            self._last_position = raw.position
            try:
                record = parse_record(raw.text)
            except StreamError as exc:
                self._reject("feed", raw.text, str(exc))
                continue
            if record.seq is not None and record.seq in self._recent_set:
                self.report.duplicates_skipped += 1
                self.tracer.count("stream.feed_duplicates")
                continue
            self._note_seq(record.seq)
            reason = self.sink.validate(record)
            if reason is not None:
                self._reject(record.key[0], record.payload, reason)
                continue
            accepted.append((raw, record))
        for index, (raw, record) in enumerate(accepted, 1):
            entry = self.log.append(
                raw.position, raw.text, sync=index == len(accepted)
            )
            self._pending.append((entry.offset, record, self._clock()))
        if raws:
            self.tracer.observe("stream.feed_lag_records", len(self._pending))
        return len(raws)

    def _reject(self, kind: str, record: Any, reason: str) -> None:
        self.quarantine.reject(kind, record, reason)
        self.report.records_quarantined += 1
        self.tracer.count("stream.quarantined")

    # ------------------------------------------------------------------
    def _apply_window(self) -> None:
        count = min(int(self._window), len(self._pending))
        window = [self._pending.popleft() for _ in range(count)]
        coalescer = DeltaCoalescer(
            self.sink.exists, strict=self.sink.mode == "registry"
        )
        for _, record, _ in window:
            coalescer.push(record)
        batch = coalescer.drain()
        for record, reason in batch.rejections:
            self._reject(record.key[0], record.payload, reason)
        self.report.records_cancelled += batch.stats.cancelled
        self.tracer.observe("stream.coalesce_ratio", batch.stats.ratio)
        self.tracer.observe("stream.batch_records", count)

        started = self._clock()
        with self.tracer.span(
            "stream.batch", records=count, operations=len(batch.operations)
        ):
            if self.governor is not None:
                self.governor.begin()
            try:
                result = self.sink.apply(batch, self.quarantine)
            except SchemaError as exc:
                # The sink validates before mutating, so a rejected
                # batch leaves no partial state: quarantine it whole
                # and acknowledge, the stream must not wedge on it.
                for _net, key, payload in batch.operations:
                    self._reject(key[0], payload, f"batch rejected: {exc}")
                result = ApplyResult(dropped=len(batch.operations))
        elapsed = self._clock() - started
        self.report.apply_seconds += elapsed
        self.tracer.observe("stream.apply_seconds", elapsed)

        self._acknowledge(window, result)
        self._backpressure()

    def _acknowledge(
        self, window: List[Tuple[int, FeedRecord, float]], result: ApplyResult
    ) -> None:
        self._acked_offset = window[-1][0]
        report = self.report
        report.acked_offset = self._acked_offset
        report.batches_applied += 1
        report.operations_applied += result.operations
        report.operations_dropped += result.dropped
        report.facts_added += result.facts_added
        report.facts_removed += result.facts_removed
        report.flush_changes += result.flush_changes
        if result.epoch is not None:
            report.epoch = result.epoch
        now = self._clock()
        for _, _, arrived in window:
            staleness = max(0.0, now - arrived)
            self.tracer.observe("stream.staleness_seconds", staleness)
            if len(report.staleness_samples) < self.staleness_cap:
                report.staleness_samples.append(staleness)
            else:
                report.staleness_dropped += 1

        self._batches_since_checkpoint += 1
        self._batches_since_compact += 1
        if self._batches_since_checkpoint >= self.checkpoint_every:
            self._save_checkpoint()
        if self._batches_since_compact >= self.compact_every:
            self.log.compact(self._durable_offset)
            self._batches_since_compact = 0

    def _save_checkpoint(self) -> None:
        self.checkpoint.save(
            fingerprint=self.fingerprint,
            acked_offset=self._acked_offset,
            source_position=self._last_position,
            last_seq=self._max_seq,
            batches_applied=self.report.batches_applied,
            state=self.sink.state_payload(),
        )
        self._durable_offset = self._acked_offset
        self._batches_since_checkpoint = 0
        self.tracer.count("stream.checkpoints")

    def _backpressure(self) -> None:
        if self.governor is None:
            violation = None
        else:
            violation = self.governor.check_time()
        if violation is not None:
            self.tracer.count("stream.backpressure")
            if not self.governor.graceful:
                raise ResourceLimitError(
                    f"stream apply exceeded its budget: {violation}",
                    resource=violation.resource,
                    limit=violation.limit,
                )
            widened = min(float(self.max_window), self._window * 2)
            if int(widened) > int(self._window):
                self.report.backpressure_widenings += 1
                self.tracer.count("stream.backpressure_widen")
            self._window = widened
        else:
            self._window = max(float(self.batch_window), self._window * 0.75)
        self.report.window = int(self._window)
