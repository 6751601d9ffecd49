"""Crash-safe streaming ingestion (the CDC delta pipeline).

The knowledge graphs of the source paper are not loaded once — the
underlying registries change continuously, and the KGMS has to absorb
those changes without rebuilding the graph from scratch.  PR 5 added
the incremental chase (:mod:`repro.ssst.incremental`); this package
adds the *transport*: a durable change-data-capture pipeline that
consumes a feed of registry (or fact) deltas and drives the retained
materialization, the serving snapshots, and the deployed target
systems, surviving crashes at any point.

Layers, bottom up:

- :mod:`repro.stream.feed` — change-record parsing and feed sources
  (JSONL file tailing, in-memory generators) plus the feed-level
  fault injector (torn / duplicated / reordered records).
- :mod:`repro.stream.log` — the durable append-only delta log
  (CRC-framed, fsync'd, segment-rotated) and the stream checkpoint.
- :mod:`repro.stream.coalesce` — per-window net-effect coalescing
  (an add and a remove of the same element cancel).
- :mod:`repro.stream.sinks` — where batches land: the incremental
  materializer (with deployed graph/triple/relational targets) or a
  serving :class:`~repro.serve.state.ServeState`.
- :mod:`repro.stream.pipeline` — :class:`DeltaStream`, which ties the
  layers together with backpressure, quarantine, and crash-safe
  resume.
"""

from repro.stream.coalesce import CoalescedBatch, CoalesceStats, DeltaCoalescer
from repro.stream.feed import (
    FeedFaultInjector,
    FeedRecord,
    GeneratorFeed,
    JsonlFeed,
    RawRecord,
    parse_record,
)
from repro.stream.log import DeltaLog, LogRecord, StreamCheckpoint
from repro.stream.pipeline import DeltaStream, StreamReport
from repro.stream.sinks import (
    ApplyResult,
    FlushDeltaTarget,
    MaterializerSink,
    ServeStateSink,
)

__all__ = [
    "ApplyResult",
    "CoalescedBatch",
    "CoalesceStats",
    "DeltaCoalescer",
    "DeltaLog",
    "DeltaStream",
    "FeedFaultInjector",
    "FeedRecord",
    "FlushDeltaTarget",
    "GeneratorFeed",
    "JsonlFeed",
    "LogRecord",
    "MaterializerSink",
    "parse_record",
    "RawRecord",
    "ServeStateSink",
    "StreamCheckpoint",
    "StreamReport",
]
