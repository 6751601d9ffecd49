"""Observability for the reasoning stack: tracing, metrics, governance.

The paper's industrial setting (Section 6) runs MetaLog programs through
the chase over central-bank-scale financial graphs.  Wardedness bounds
the asymptotic cost, but a production deployment still needs to *see*
what the engine does (which stratum, which rule, how many derivations)
and to *bound* what a single run may consume.  This package provides
both, with no third-party dependencies:

- :mod:`repro.obs.tracer` — a :class:`Tracer` protocol with span /
  counter / event APIs, a zero-cost :class:`NullTracer`, and an
  in-memory :class:`RecordingTracer`;
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of monotonic
  counters and fixed-bucket histograms;
- :mod:`repro.obs.export` — a JSON/JSONL exporter for traces plus a
  schema validator;
- :mod:`repro.obs.governor` — a :class:`ResourceGovernor` enforcing
  wall-clock, fact-count, null, and per-stratum iteration budgets, with
  a graceful-degradation mode that lets the engine return partial
  results tagged ``budget_exceeded`` instead of raising.

The tracer is threaded through :class:`repro.vadalog.engine.Engine`,
:func:`repro.metalog.mtv.run_on_graph`, the SSST materializer, and the
deployment backends; see README "Observability & resource governance".
"""

from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    profile_summary,
    trace_records,
    validate_trace_file,
    validate_trace_record,
    write_trace,
)
from repro.obs.governor import BudgetExceeded, ResourceGovernor
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import NullTracer, RecordingTracer, Span, Tracer

__all__ = [
    "BudgetExceeded",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "RecordingTracer",
    "ResourceGovernor",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "profile_summary",
    "trace_records",
    "validate_trace_file",
    "validate_trace_record",
    "write_trace",
]
