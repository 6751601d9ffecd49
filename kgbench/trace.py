"""Spans recorded from the benchmark's side of each layer boundary.

The wrappers below are installed from here around the public callables
of each ``src/repro/`` package (no edit to ``src/``, and the program's
own ``repro.obs`` tracer is not used).  A span carries name, layer,
start, end, the span that caused it and a per-operation id; spans stay
in memory and are written out when the run ends.  A layer's self time
is its span's duration minus the part its direct child spans cover.

The tracer is single-threaded by design: every traced phase of every
workload runs its operations on one thread.
"""

import functools
import json
import time
from collections import defaultdict
from contextlib import nullcontext

#: Layer of the spans the harness opens around one whole operation.
HARNESS = "harness"


class Span:
    __slots__ = (
        "id", "name", "layer", "start", "end", "parent", "op", "kind",
        "counts", "_tracer",
    )

    def __init__(self, tracer, name, layer):
        self._tracer = tracer
        self.name = name
        self.layer = layer
        self.counts = {}
        self.end = None

    def __enter__(self):
        tracer = self._tracer
        self.id = len(tracer.spans) + 1
        self.parent = tracer._stack[-1].id if tracer._stack else 0
        self.op = tracer._op
        self.kind = tracer._kind
        tracer.spans.append(self)
        tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self._tracer._stack.pop()
        return False

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        row = {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op, "kind": self.kind,
        }
        if self.counts:
            row["counts"] = self.counts
        return row


class Operation(Span):
    """The root span of one operation: spans opened inside share its
    operation id and kind.  Operations nest (a stream drain holds its
    batches); leaving one hands the identity back to the enclosing one.
    """

    __slots__ = ("_outer",)

    def __enter__(self):
        tracer = self._tracer
        self._outer = (tracer._op, tracer._kind)
        tracer._ops += 1
        tracer._op = tracer._ops
        tracer._kind = self.name[len("op."):]
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        self._tracer._op, self._tracer._kind = self._outer
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = 0
        self._kind = ""
        self._ops = 0
        self._patches = []

    def span(self, name, layer):
        return Span(self, name, layer)

    def operation(self, kind):
        return Operation(self, f"op.{kind}", HARNESS)

    # -- wrappers -----------------------------------------------------
    def wrap(self, owner, attr, name, layer, observe=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(span, args, result)`` records counts at the same
        boundary.  :meth:`restore` puts the original back.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rebuild = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            rebuild = type(raw)
            func = raw.__func__
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with Span(tracer, name, layer) as span:
                result = func(*args, **kwargs)
            if observe is not None:
                observe(span, args, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, rebuild(wrapper) if rebuild else wrapper)

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------
    def self_times(self):
        """Span id -> duration minus the part covered by direct children."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent:
                own[span.parent] -= span.duration
        return own

    def per_operation(self, names, kinds, own, count=None):
        """One value per operation of ``kinds``: the summed self time of
        its spans called one of ``names`` (or, with ``count``, that
        counter on them)."""
        totals = {
            span.op: 0.0 for span in self.spans
            if isinstance(span, Operation) and span.kind in kinds
        }
        for span in self.spans:
            if span.name in names and span.op in totals:
                totals[span.op] += (
                    span.counts.get(count, 0) if count else own[span.id]
                )
        return list(totals.values())

    def coverage(self, kinds, own):
        """Share of the traced operations' time spent inside a wrapped
        layer call.  The rest is the harness's own glue and calls the
        wrapper table misses, so this checks the harness, not the
        program: an entry point's own self time (``ssst.materialize``,
        ``serve.handle``) counts as its layer's, and how an entry point
        splits is what the ``*_self_*`` rows report."""
        wall = sum(
            span.duration for span in self.spans
            if isinstance(span, Operation) and span.parent == 0
            and span.kind in kinds
        )
        layers = sum(
            own[span.id] for span in self.spans
            if span.layer != HARNESS and span.kind in kinds
        )
        return layers / wall if wall > 0 else 0.0

    def count(self, name, parent_name, kinds):
        """Spans called ``name`` opened directly under one called
        ``parent_name``, in operations of ``kinds``."""
        names = {span.id: span.name for span in self.spans}
        return sum(
            1 for span in self.spans
            if span.name == name and span.kind in kinds
            and names.get(span.parent) == parent_name
        )

    def layer_table(self, kinds, own):
        """Rows ``(layer, operation, self seconds, share, count)`` over
        the operations of ``kinds``, largest first."""
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            if span.kind in kinds:
                seconds[(span.layer, span.name)] += own[span.id]
                calls[(span.layer, span.name)] += 1
        total = sum(seconds.values()) or 1.0
        return [
            (layer, name, value, value / total, calls[(layer, name)])
            for (layer, name), value in sorted(
                seconds.items(), key=lambda item: -item[1]
            )
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_json() for span in self.spans], handle)
            handle.write("\n")


def span(tracer, name, layer):
    """A span when there is a tracer, nothing otherwise."""
    return tracer.span(name, layer) if tracer else nullcontext()


def operation(tracer, kind):
    return tracer.operation(kind) if tracer else nullcontext()


def format_layer_table(rows):
    lines = [f"  {'layer':8} {'operation':34} {'self s':>9} {'share':>7} {'count':>7}"]
    for layer, name, seconds, share, count in rows:
        lines.append(
            f"  {layer:8} {name:34} {seconds:9.4f} {share:7.1%} {count:7d}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The wrapper table: which public callables mark the layer boundaries.
# ----------------------------------------------------------------------
def _bulk_rows(span, args, _result):
    span.counts["rows"] = len(args[2])  # (graph, label, ids, ...)


def _extract_facts(span, _args, result):
    span.counts["facts"] = result.total_facts()


def _engine_run(span, _args, result):
    span.counts["facts_derived"] = result.stats.facts_derived


def _apply_delta(span, _args, result):
    span.counts["strata_recomputed"] = result.strata_recomputed


def _magic_answer(span, _args, result):
    span.counts["fallback"] = int(result.mode != "magic")


def _update(span, _args, result):
    span.counts["flushed"] = result.flushed
    span.counts["changes"] = result.flush_delta.total_changes


def _load_report(span, _args, result):
    span.counts["nodes"] = result.nodes
    span.counts["edges"] = result.edges


def install(tracer):
    """Wrap the layer boundaries of every ``src/repro/`` package."""
    import repro.ssst.materializer as materializer
    import repro.stream.log as stream_log
    import repro.stream.sinks as sinks
    from repro.core.instances import SuperInstance
    from repro.deploy import loaders
    from repro.deploy.delta import FlushDelta
    from repro.deploy.graph_store import GraphStore
    from repro.finkg import generator
    from repro.graph.columnar_graph import ColumnarPropertyGraph
    from repro.graph.property_graph import PropertyGraph
    from repro.serve.handlers import ServiceHandlers
    from repro.serve.state import ServeState
    from repro.ssst.materializer import IntensionalMaterializer
    from repro.stream.coalesce import DeltaCoalescer
    from repro.stream.log import DeltaLog, StreamCheckpoint
    from repro.stream.pipeline import DeltaStream
    from repro.stream.sinks import MaterializerSink
    from repro.vadalog.engine import Engine
    from repro.vadalog.magic import GoalDirectedEvaluator

    wrap = tracer.wrap
    wrap(generator, "generate_shareholding_data", "finkg.generate", "finkg")
    for graph_class in (ColumnarPropertyGraph, PropertyGraph):
        wrap(graph_class, "add_nodes_bulk", "graph.bulk_add", "graph", _bulk_rows)
        wrap(graph_class, "add_edges_bulk", "graph.bulk_add", "graph", _bulk_rows)
        wrap(graph_class, "existing_node_ids", "graph.oid_probe", "graph")
        wrap(graph_class, "existing_edge_ids", "graph.oid_probe", "graph")
    wrap(SuperInstance, "from_plain_graph", "core.from_plain_graph", "core")
    wrap(SuperInstance, "to_dictionary", "core.to_dictionary", "core")
    wrap(SuperInstance, "from_dictionary", "core.from_dictionary", "core")
    # The materializer calls these through its own module bindings.
    wrap(materializer, "compile_metalog", "metalog.compile", "metalog")
    wrap(materializer, "graph_to_database", "metalog.extract", "metalog",
         _extract_facts)
    wrap(Engine, "run", "vadalog.run", "vadalog", _engine_run)
    wrap(Engine, "apply_delta", "vadalog.apply_delta", "vadalog", _apply_delta)
    wrap(GoalDirectedEvaluator, "answer", "vadalog.magic_answer", "vadalog",
         _magic_answer)
    wrap(IntensionalMaterializer, "materialize", "ssst.materialize", "ssst")
    wrap(IntensionalMaterializer, "update", "ssst.update", "ssst", _update)
    wrap(loaders, "load_graph_store", "deploy.load_graph_store", "deploy",
         _load_report)
    wrap(sinks, "load_graph_store", "deploy.load_graph_store", "deploy",
         _load_report)
    wrap(FlushDelta, "diff", "deploy.flush_delta_diff", "deploy")
    wrap(GraphStore, "apply_flush_delta", "deploy.apply_flush_delta", "deploy")
    wrap(ServiceHandlers, "handle", "serve.handle", "serve")
    wrap(ServeState, "apply_delta", "serve.apply_delta", "serve")
    wrap(DeltaStream, "run", "stream.run", "stream")
    wrap(DeltaLog, "append", "stream.log_append", "stream")
    # ``os`` as the log module sees it: checkpoints fsync through it
    # too, so a span's parent says whose fsync it was.
    wrap(stream_log.os, "fsync", "stream.fsync", "stream")
    wrap(DeltaCoalescer, "push", "stream.coalesce", "stream")
    wrap(DeltaCoalescer, "drain", "stream.coalesce", "stream")
    wrap(StreamCheckpoint, "save", "stream.checkpoint", "stream")
    wrap(MaterializerSink, "apply", "stream.sink_apply", "stream")
