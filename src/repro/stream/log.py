"""Durable delta log and stream checkpoint for crash-safe ingestion.

The pipeline's durability contract is *log before apply, checkpoint
after ack*:

1. Every raw feed record is appended to the :class:`DeltaLog` —
   CRC32-framed JSON lines in segment files, flushed and ``fsync``'d
   before the pipeline considers the record received: one poll is one
   *group commit*, its frames written in order and synced from its last
   append, so a backlog pays a sync per poll, a trickle one per record.
2. Batches are applied to the sink; only then is their highest log
   offset *acknowledged*.
3. The :class:`StreamCheckpoint` periodically persists the acked
   offset, the feed cursor, and the sink's state payload (encoded with
   the :mod:`repro.ssst.checkpoint` codec).

After a crash, resume restores the checkpointed sink state, replays the
log suffix ``offset > acked`` through the normal batch path, and seeks
the feed past everything already logged.  Because the log holds the
exact bytes that arrived, replay re-parses the same input — a record
quarantined before the crash is quarantined identically after it, and
the final state is bit-identical to a clean run over the same feed.

Torn tails are expected: a crash can interrupt a poll's group after
some of its writes but before the fsync completes.  What survives is a
prefix of what was written — whole frames, then at most one torn one —
and none of the group was applied, acknowledged or checkpointed, so
losing its tail loses nothing: ``last_position`` is recomputed from the
frames that survived and the feed is re-read from there.  Opening the
log validates every record (CRC + JSON + monotone offsets) and
truncates a torn tail *of the last segment only* (a segment is synced
before the next one opens); corruption anywhere else means lost
acknowledged history and raises :class:`~repro.errors.StreamError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Optional

from repro.errors import StreamError
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["LogRecord", "DeltaLog", "StreamCheckpoint"]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_FILE = "checkpoint.json"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LogRecord:
    """One durable feed record.

    ``offset`` is the log's own dense sequence (0, 1, 2, ...);
    ``position`` is the feed cursor after the record (used to seek the
    source past logged input on resume); ``text`` is the raw feed line,
    byte-for-byte as delivered.
    """

    offset: int
    position: int
    text: str


def _frame(record: LogRecord) -> str:
    body = {"o": record.offset, "p": record.position, "r": record.text}
    body["c"] = zlib.crc32(
        json.dumps(
            [record.offset, record.position, record.text],
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
    )
    return json.dumps(body, separators=(",", ":"), sort_keys=True)


def _unframe(line: str) -> LogRecord:
    try:
        body = json.loads(line)
    except (ValueError, TypeError) as exc:
        raise StreamError(f"unreadable log frame: {exc}") from exc
    if not isinstance(body, dict):
        raise StreamError("log frame is not an object")
    try:
        offset = body["o"]
        position = body["p"]
        text = body["r"]
        crc = body["c"]
    except KeyError as exc:
        raise StreamError(f"log frame missing field {exc}") from exc
    expected = zlib.crc32(
        json.dumps(
            [offset, position, text], separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    )
    if crc != expected:
        raise StreamError(
            f"log frame checksum mismatch at offset {offset}: "
            f"{crc} != {expected}"
        )
    return LogRecord(offset=offset, position=position, text=text)


class DeltaLog:
    """Append-only, segment-structured, fsync'd record log.

    Layout: ``<directory>/segment-<first_offset:012d>.log``, one JSON
    frame per line.  A new segment starts every ``segment_records``
    appends, which bounds both torn-tail rescan cost and the unit of
    :meth:`compact`: a segment whose records are all acknowledged can
    be deleted wholesale without rewriting anything.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_records: int = 1024,
        fsync: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.directory = str(directory)
        self.segment_records = segment_records
        self.fsync = fsync
        self.tracer = tracer or NullTracer()
        os.makedirs(self.directory, exist_ok=True)
        self._handle: Optional[IO[str]] = None
        self._segment_path: Optional[str] = None
        self._segment_count = 0
        self.next_offset = 0
        self.last_position = 0
        self._recover()

    # -- recovery ------------------------------------------------------
    def _segments(self) -> List[str]:
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(names)

    def _recover(self) -> None:
        """Validate all segments; truncate a torn tail of the last one.

        Offsets must be dense from the *first remaining* segment's named
        offset — compaction deletes fully acknowledged prefixes, so a
        reopened log legitimately starts past zero.
        """
        segments = self._segments()
        expected = 0
        if segments:
            expected = int(
                segments[0][len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            )
        for index, name in enumerate(segments):
            path = os.path.join(self.directory, name)
            last = index == len(segments) - 1
            good_bytes = 0
            records_in_segment = 0
            with open(path, "rb") as handle:
                while True:
                    line = handle.readline()
                    if not line:
                        break
                    torn = not line.endswith(b"\n")
                    if not torn:
                        try:
                            record = _unframe(
                                line.decode("utf-8", errors="strict").rstrip("\n")
                            )
                            if record.offset != expected:
                                raise StreamError(
                                    f"log offset gap in {name}: expected "
                                    f"{expected}, found {record.offset}"
                                )
                        except (StreamError, UnicodeDecodeError) as exc:
                            if not last:
                                raise StreamError(
                                    f"corrupt delta log segment {name}: {exc}"
                                ) from exc
                            torn = True
                    if torn:
                        if not last:
                            raise StreamError(
                                f"corrupt delta log segment {name}: "
                                "torn record before the final segment"
                            )
                        remaining = handle.read()
                        if remaining.strip():
                            raise StreamError(
                                f"corrupt delta log segment {name}: data "
                                "after a torn record"
                            )
                        break
                    expected = record.offset + 1
                    self.last_position = max(self.last_position, record.position)
                    good_bytes = handle.tell()
                    records_in_segment += 1
            size = os.path.getsize(path)
            if good_bytes < size:
                with open(path, "r+b") as handle:
                    handle.truncate(good_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.tracer.count("stream.log_torn_tail", 1)
            if last:
                self._segment_path = path
                self._segment_count = records_in_segment
        self.next_offset = expected

    # -- append --------------------------------------------------------
    def _open_segment(self) -> IO[str]:
        if self._segment_path is None or self._segment_count >= self.segment_records:
            if self._handle is not None:
                self._sync()  # a group may straddle the rotation
                self.close()
            name = f"{_SEGMENT_PREFIX}{self.next_offset:012d}{_SEGMENT_SUFFIX}"
            self._segment_path = os.path.join(self.directory, name)
            self._segment_count = 0
        if self._handle is None:
            self._handle = open(self._segment_path, "a", encoding="utf-8")
        return self._handle

    def _sync(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, position: int, text: str, *, sync: bool = True) -> LogRecord:
        """Persist one raw feed record; returns its log record.  It is
        durable, with every frame written before it, once an append with
        ``sync`` returns: a group passes False for all but its last."""
        record = LogRecord(self.next_offset, position, text)
        self._open_segment().write(_frame(record) + "\n")
        if sync:
            self._sync()
        self.next_offset += 1
        self.last_position = max(self.last_position, position)
        self._segment_count += 1
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- replay --------------------------------------------------------
    def replay(self, after: int = -1) -> Iterator[LogRecord]:
        """Yield every record with ``offset > after``, in order."""
        self.close()
        segments = self._segments()
        for index, name in enumerate(segments):
            path = os.path.join(self.directory, name)
            if index + 1 < len(segments):
                next_first = int(
                    segments[index + 1][
                        len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)
                    ]
                )
                if next_first - 1 <= after:
                    # Every offset in this segment is < next_first <= after+1.
                    continue
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    record = _unframe(line.rstrip("\n"))
                    if record.offset > after:
                        yield record

    # -- compaction ----------------------------------------------------
    def compact(self, acked: int) -> int:
        """Delete whole segments fully covered by ``offset <= acked``.

        The current (last) segment is never removed.  Returns the number
        of segments dropped.
        """
        segments = self._segments()
        dropped = 0
        for index, name in enumerate(segments):
            if index == len(segments) - 1:
                break
            next_first = int(
                segments[index + 1][len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            )
            if next_first - 1 <= acked:
                os.remove(os.path.join(self.directory, name))
                dropped += 1
            else:
                break
        if dropped:
            self.tracer.count("stream.log_segments_compacted", dropped)
        return dropped

    def __repr__(self) -> str:
        return (
            f"DeltaLog({self.directory!r}, next_offset={self.next_offset}, "
            f"last_position={self.last_position})"
        )


class StreamCheckpoint:
    """Atomic JSON checkpoint of the stream's durable progress.

    The payload binds to the pipeline's inputs through ``fingerprint``
    (schema + program + instance OID for registry streams, program +
    inputs for serve streams): resuming against different inputs raises
    rather than splicing incompatible state.  ``state`` is opaque to
    the checkpoint — the sink produces and consumes it via the
    :mod:`repro.ssst.checkpoint` value codec.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, _CHECKPOINT_FILE)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(
        self,
        *,
        fingerprint: str,
        acked_offset: int,
        source_position: int,
        last_seq: Optional[int],
        batches_applied: int,
        state: Dict[str, Any],
    ) -> None:
        payload = {
            "version": _CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "acked_offset": acked_offset,
            "source_position": source_position,
            "last_seq": last_seq,
            "batches_applied": batches_applied,
            "state": state,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))  # the C encoder, same bytes
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def load(self, fingerprint: str) -> Dict[str, Any]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise StreamError(
                f"no stream checkpoint in {self.directory!r}"
            ) from None
        except (OSError, ValueError) as exc:
            raise StreamError(f"unreadable stream checkpoint: {exc}") from exc
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise StreamError(
                f"stream checkpoint version {payload.get('version')!r} "
                f"is not supported"
            )
        if payload.get("fingerprint") != fingerprint:
            raise StreamError(
                "stream checkpoint was written for different inputs "
                "(fingerprint mismatch); refusing to resume"
            )
        return payload

    def __repr__(self) -> str:
        return f"StreamCheckpoint({self.directory!r}, exists={self.exists()})"
