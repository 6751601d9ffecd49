"""JSONL trace export and schema validation.

One trace file = one run.  Line 1 is a ``meta`` record; every following
line is one record of type ``span``, ``event``, ``counter``, or
``histogram``.  The schema (version 1):

.. code-block:: none

    meta      {type, version, producer}
    span      {type, id, parent, name, start, end, duration, attrs?}
    event     {type, name, time, span_id?, attrs?}
    counter   {type, name, value}
    histogram {type, name, buckets, counts, count, sum, min?, max?}

``start``/``end``/``time`` are seconds on the producing clock (a
monotonic origin, not wall-clock epoch); durations are end - start.
Spans are exported in start order so a consumer can rebuild the tree by
``parent`` without sorting.  :func:`validate_trace_record` and
:func:`validate_trace_file` enforce exactly this schema.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Iterator, List, Union

from repro.obs.tracer import RecordingTracer

TRACE_SCHEMA_VERSION = 1

_RECORD_TYPES = {"meta", "span", "event", "counter", "histogram"}

_REQUIRED_FIELDS = {
    "meta": ("version", "producer"),
    "span": ("id", "name", "start", "end", "duration"),
    "event": ("name", "time"),
    "counter": ("name", "value"),
    "histogram": ("name", "buckets", "counts", "count", "sum"),
}


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to JSON-friendly types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


def trace_records(tracer: RecordingTracer) -> Iterator[Dict[str, Any]]:
    """All records of one trace, meta first, spans in start order."""
    yield {
        "type": "meta",
        "version": TRACE_SCHEMA_VERSION,
        "producer": "repro.obs",
    }
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
        record: Dict[str, Any] = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": span.end if span.end is not None else span.start,
            "duration": span.duration,
        }
        if span.attrs:
            record["attrs"] = _jsonable(span.attrs)
        yield record
    for event in tracer.events:
        record = {"type": "event", "name": event["name"], "time": event["time"]}
        if "span_id" in event:
            record["span_id"] = event["span_id"]
        if "attrs" in event:
            record["attrs"] = _jsonable(event["attrs"])
        yield record
    for name, value in tracer.metrics.counters().items():
        yield {"type": "counter", "name": name, "value": value}
    for name, histogram in tracer.metrics.histograms().items():
        record = {
            "type": "histogram",
            "name": name,
            "buckets": list(histogram.buckets),
            "counts": list(histogram.counts),
            "count": histogram.count,
            "sum": histogram.total,
        }
        if histogram.count:
            record["min"] = histogram.min
            record["max"] = histogram.max
        yield record


def write_trace(
    tracer: RecordingTracer, destination: Union[str, io.TextIOBase]
) -> int:
    """Write the trace as JSONL to a path or text stream; returns #records."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_trace(tracer, handle)
    written = 0
    for record in trace_records(tracer):
        destination.write(json.dumps(record, separators=(",", ":")) + "\n")
        written += 1
    return written


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_trace_record(record: Any) -> List[str]:
    """Problems with one decoded record; empty list = valid."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    kind = record.get("type")
    if kind not in _RECORD_TYPES:
        return [f"unknown record type: {kind!r}"]
    for field in _REQUIRED_FIELDS[kind]:
        if field not in record:
            problems.append(f"{kind} record missing field {field!r}")
    if problems:
        return problems
    if kind == "meta":
        if record["version"] != TRACE_SCHEMA_VERSION:
            problems.append(f"unsupported schema version {record['version']!r}")
    elif kind == "span":
        if not isinstance(record["name"], str) or not record["name"]:
            problems.append("span name must be a non-empty string")
        if not isinstance(record["id"], int):
            problems.append("span id must be an integer")
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, int):
            problems.append("span parent must be an integer or null")
        for field in ("start", "end", "duration"):
            if not isinstance(record[field], (int, float)):
                problems.append(f"span {field} must be a number")
        if isinstance(record["duration"], (int, float)) and record["duration"] < 0:
            problems.append("span duration must be non-negative")
    elif kind == "event":
        if not isinstance(record["name"], str) or not record["name"]:
            problems.append("event name must be a non-empty string")
        if not isinstance(record["time"], (int, float)):
            problems.append("event time must be a number")
    elif kind == "counter":
        if not isinstance(record["name"], str) or not record["name"]:
            problems.append("counter name must be a non-empty string")
        if not isinstance(record["value"], int) or record["value"] < 0:
            problems.append("counter value must be a non-negative integer")
    elif kind == "histogram":
        buckets = record["buckets"]
        counts = record["counts"]
        if not isinstance(buckets, list) or not all(
            isinstance(b, (int, float)) for b in buckets
        ):
            problems.append("histogram buckets must be a list of numbers")
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and c >= 0 for c in counts
        ):
            problems.append("histogram counts must be non-negative integers")
        if (
            isinstance(buckets, list)
            and isinstance(counts, list)
            and len(counts) != len(buckets) + 1
        ):
            problems.append("histogram needs len(buckets)+1 counts")
        if isinstance(counts, list) and all(isinstance(c, int) for c in counts):
            if isinstance(record["count"], int) and sum(counts) != record["count"]:
                problems.append("histogram counts do not sum to count")
    return problems


def validate_trace_file(path: str) -> List[str]:
    """Problems with a JSONL trace file; empty list = schema-valid."""
    problems: List[str] = []
    span_ids: set = set()
    parent_refs: List[tuple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {number}: invalid JSON: {exc}")
                continue
            if number == 1 and record.get("type") != "meta":
                problems.append("line 1: first record must be meta")
            for problem in validate_trace_record(record):
                problems.append(f"line {number}: {problem}")
            if record.get("type") == "span" and isinstance(record.get("id"), int):
                span_ids.add(record["id"])
                if record.get("parent") is not None:
                    parent_refs.append((number, record["parent"]))
    for number, parent in parent_refs:
        if parent not in span_ids:
            problems.append(f"line {number}: span parent {parent} not in trace")
    if not span_ids and not problems:
        problems.append("trace contains no spans")
    return problems


# ---------------------------------------------------------------------------
# Human-readable profile
# ---------------------------------------------------------------------------


def profile_summary(tracer: RecordingTracer) -> str:
    """Aggregate spans by name: count, total/mean/max duration; plus counters."""
    totals: Dict[str, List[float]] = {}
    for span in tracer.spans:
        bucket = totals.setdefault(span.name, [0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += span.duration
        bucket[2] = max(bucket[2], span.duration)
    lines = [f"{'span':<28}{'count':>8}{'total':>12}{'mean':>12}{'max':>12}"]
    for name, (count, total, worst) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"{name:<28}{count:>8}{total:>11.4f}s{total / count:>11.4f}s"
            f"{worst:>11.4f}s"
        )
    counters = tracer.metrics.counters()
    if counters:
        lines.append("")
        lines.append(f"{'counter':<44}{'value':>16}")
        for name, value in counters.items():
            lines.append(f"{name:<44}{value:>16}")
    return "\n".join(lines)
