"""Command-line interface: the KGModel software modules as a tool.

Section 2.2 lists the framework's software modules — the KGSE (schema
environment), MTV (MetaLog-to-Vadalog translator), and SSST (schema
translator / materializer).  This CLI exposes each:

.. code-block:: console

    kgmodel validate  schema.gsl
    kgmodel render    schema.gsl --format dot
    kgmodel translate schema.gsl --model relational --ddl
    kgmodel compile   rules.metalog
    kgmodel reason    schema.gsl data.json rules.metalog -o enriched.json
    kgmodel update    schema.gsl data.json rules.metalog --from changes.json
    kgmodel load      schema.gsl data.json --target graph-store --graceful
    kgmodel stream    schema.gsl data.json rules.metalog --feed feed.jsonl \
                      --log-dir wal/ --deploy graph-store --deploy relational
    kgmodel stats     --companies 5000 --seed 42

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core import (
    parse_gsl,
    render_super_schema,
    schema_to_dot,
    supermodel_table,
)
from repro.deploy import generate_cypher_constraints, generate_ddl, generate_rdfs
from repro.errors import KGModelError
from repro.graph.io import load_graph, save_graph
from repro.metalog import compile_metalog, parse_metalog
from repro.ssst import SSST, IntensionalMaterializer


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_validate(args) -> int:
    schema = parse_gsl(_read(args.schema))
    problems = schema.validate(strict=False)
    print(schema.summary())
    if problems:
        for problem in problems:
            print(f"  problem: {problem}")
        return 1
    print("  schema is well-formed")
    return 0


def cmd_render(args) -> int:
    if args.format == "supermodel":
        print(supermodel_table())
        return 0
    schema = parse_gsl(_read(args.schema))
    if args.format == "dot":
        print(schema_to_dot(schema))
    else:
        for grapheme in render_super_schema(schema):
            print(grapheme)
    return 0


def cmd_translate(args) -> int:
    schema = parse_gsl(_read(args.schema))
    schema.validate()
    result = SSST().translate(schema, args.model, strategy=args.strategy)
    target = result.target_schema
    print(target.summary(), file=sys.stderr)
    if args.ddl:
        if args.model != "relational":
            raise KGModelError("--ddl requires --model relational")
        print(generate_ddl(target))
    elif args.cypher:
        if args.model != "property-graph":
            raise KGModelError("--cypher requires --model property-graph")
        print(generate_cypher_constraints(target))
    elif args.rdfs:
        if args.model != "rdf":
            raise KGModelError("--rdfs requires --model rdf")
        print(generate_rdfs(target))
    else:
        print(target.summary())
    return 0


def cmd_compile(args) -> int:
    program = parse_metalog(_read(args.program))
    compiled = compile_metalog(program)
    print(compiled.program)
    return 0


def cmd_reason(args) -> int:
    from repro.obs import (
        RecordingTracer,
        ResourceGovernor,
        profile_summary,
        write_trace,
    )
    from repro.vadalog.engine import Engine

    schema = parse_gsl(_read(args.schema))
    data = load_graph(args.data)
    sigma = parse_metalog(_read(args.program))

    tracer = None
    if args.trace or args.profile:
        tracer = RecordingTracer()
    governor = None
    if args.budget_seconds is not None or args.max_facts is not None:
        governor = ResourceGovernor(
            budget_seconds=args.budget_seconds,
            max_facts=args.max_facts,
            graceful=True,
        )
    engine = None
    if tracer is not None or governor is not None:
        engine = Engine(tracer=tracer, governor=governor)
    checkpoint = None
    if args.resume and not args.checkpoint:
        raise KGModelError("--resume requires --checkpoint DIR")
    if args.checkpoint:
        from repro.ssst import MaterializationCheckpoint

        checkpoint = MaterializationCheckpoint(args.checkpoint, tracer=tracer)
        if not args.resume:
            # Checkpointing without --resume starts fresh: drop any
            # snapshot a previous run left.
            checkpoint.clear()
    report = IntensionalMaterializer(engine=engine, tracer=tracer).materialize(
        schema, data, sigma, instance_oid=args.instance_oid,
        checkpoint=checkpoint,
    )
    if report.resumed_from is not None:
        print("resumed from the checkpointed chase (reasoning skipped)",
              file=sys.stderr)
    print("derived:", report.derived_counts, file=sys.stderr)
    if report.flush_dropped_edges:
        print(
            f"warning: {report.flush_dropped_edges} derived edge end(s) "
            "are no node of the instance: their edges were dropped",
            file=sys.stderr,
        )
    print(
        "phases:",
        {k: f"{v:.2f}s" for k, v in report.phase_breakdown().items()},
        file=sys.stderr,
    )
    if report.truncated:
        violation = report.violation
        detail = ""
        if violation is not None:
            detail = (
                f" ({violation.resource} limit {violation.limit},"
                f" used {violation.used})"
            )
        print(
            f"warning: budget exceeded{detail} — results are partial",
            file=sys.stderr,
        )
    if args.trace:
        records = write_trace(tracer, args.trace)
        print(f"trace: {records} records written to {args.trace}", file=sys.stderr)
    if args.profile:
        print(profile_summary(tracer), file=sys.stderr)
    if args.output:
        save_graph(report.instance.data, args.output)
        print(f"enriched instance written to {args.output}", file=sys.stderr)
    else:
        from repro.graph.io import graph_to_json

        print(graph_to_json(report.instance.data))
    return 3 if report.truncated else 0


def cmd_update(args) -> int:
    import json

    from repro.ssst import RegistryDelta

    schema = parse_gsl(_read(args.schema))
    data = load_graph(args.data)
    sigma = parse_metalog(_read(args.program))

    delta = RegistryDelta()
    if args.changes:
        with open(args.changes, "r", encoding="utf-8") as handle:
            delta = RegistryDelta.from_json_dict(json.load(handle))
    for raw in args.add or []:
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise KGModelError(f"--add expects a JSON object: {exc}") from exc
        if not isinstance(entry, dict) or "id" not in entry or "type" not in entry:
            raise KGModelError(
                f"--add entry needs at least 'id' and 'type': {raw!r}"
            )
        properties = dict(entry.get("properties", {}))
        if "source" in entry and "target" in entry:
            delta.add_edges.append(
                (entry["id"], entry["source"], entry["target"],
                 entry["type"], properties)
            )
        else:
            delta.add_nodes.append((entry["id"], entry["type"], properties))
    for element_id in args.remove or []:
        if data.has_node(element_id):
            delta.remove_nodes.append(element_id)
        elif data.has_edge(element_id):
            delta.remove_edges.append(element_id)
        else:
            raise KGModelError(
                f"--remove {element_id!r}: no such node or edge in {args.data}"
            )
    if delta.is_empty():
        raise KGModelError(
            "no changes given (use --from changes.json, --add, or --remove)"
        )

    materializer = IntensionalMaterializer()
    report = materializer.materialize(
        schema, data, sigma, instance_oid=args.instance_oid,
        retain=True,
    )
    if report.truncated:
        print(
            "warning: base materialization was truncated — refusing to "
            "apply the delta on partial results",
            file=sys.stderr,
        )
        return 3
    outcome = materializer.update(delta)
    print(
        f"applied: +{len(delta.add_nodes)} nodes, +{len(delta.add_edges)} edges, "
        f"-{len(delta.remove_nodes)} nodes, -{len(delta.remove_edges)} edges",
        file=sys.stderr,
    )
    print(
        "update phases:",
        {k: f"{v:.3f}s" for k, v in outcome.phase_breakdown().items()},
        f"(strata recomputed: {outcome.strata_recomputed},"
        f" head facts changed: {outcome.flushed})",
        file=sys.stderr,
    )
    for phase, stratum, rule, reason in outcome.recompute_reasons:
        print(
            f"  recomputed: {phase} stratum {stratum}, rule {rule}: {reason}",
            file=sys.stderr,
        )
    if outcome.flush_delta is not None:
        print("store delta:", outcome.flush_delta.summary(), file=sys.stderr)
    if outcome.flush_dropped_edges:
        print(
            f"warning: {outcome.flush_dropped_edges} derived edge end(s) "
            "of the updated elements are no node: their edges were dropped",
            file=sys.stderr,
        )
    instance = materializer.retained.instance().data
    if args.output:
        save_graph(instance, args.output)
        print(f"enriched instance written to {args.output}", file=sys.stderr)
    else:
        from repro.graph.io import graph_to_json

        print(graph_to_json(instance))
    return 0


def cmd_load(args) -> int:
    from repro.deploy import (
        GRACEFUL,
        STRICT,
        GraphStore,
        QuarantineReport,
        RetryPolicy,
        TripleStore,
        load_graph_store,
        load_triple_store,
    )

    schema = parse_gsl(_read(args.schema))
    schema.validate()
    data = load_graph(args.data)

    if args.target == "graph-store":
        store = GraphStore()
        store.deploy(SSST().translate(schema, "property-graph").target_schema)
        loader = load_graph_store
    else:
        store = TripleStore()
        store.deploy(SSST().translate(schema, "rdf").target_schema)
        loader = load_triple_store

    quarantine = QuarantineReport()
    report = loader(
        schema,
        data,
        store,
        mode=GRACEFUL if args.graceful else STRICT,
        policy=RetryPolicy(max_attempts=args.retries, sleep=lambda _s: None),
        batch_size=args.batch_size,
        quarantine=quarantine,
    )
    print(report.summary(), file=sys.stderr)
    for reason, records in getattr(report, "per_record", {}).items():
        print(f"  per record: {records} record(s): {reason}", file=sys.stderr)
    if args.quarantine:
        quarantine.save(args.quarantine)
        print(
            f"quarantine report ({len(quarantine)} rejection(s)) written to "
            f"{args.quarantine}",
            file=sys.stderr,
        )
    return 4 if quarantine else 0


def cmd_stream(args) -> int:
    import json

    from repro.deploy import GraphStore, QuarantineReport, RetryPolicy, TripleStore
    from repro.deploy.relational_engine import RelationalEngine
    from repro.obs import ResourceGovernor
    from repro.stream import DeltaStream, JsonlFeed, MaterializerSink

    schema = parse_gsl(_read(args.schema))
    schema.validate()
    data = load_graph(args.data)
    sigma = parse_metalog(_read(args.program))

    sink = MaterializerSink(
        schema, data=data, sigma=sigma, instance_oid=args.instance_oid,
        retry=RetryPolicy(max_attempts=args.retries),
    )
    for target_name in args.deploy or []:
        if target_name == "graph-store":
            store = GraphStore()
            store.deploy(SSST().translate(schema, "property-graph").target_schema)
            attach = sink.attach_graph_store
        elif target_name == "triple-store":
            store = TripleStore()
            store.deploy(SSST().translate(schema, "rdf").target_schema)
            attach = sink.attach_triple_store
        else:
            store = RelationalEngine()
            store.deploy(SSST().translate(schema, "relational").target_schema)
            attach = sink.attach_relational_engine
        attach(store)

    governor = None
    if args.budget_ms is not None:
        governor = ResourceGovernor(
            budget_seconds=args.budget_ms / 1000.0,
            graceful=not args.strict_backpressure,
        )

    quarantine = QuarantineReport()
    stream = DeltaStream(
        JsonlFeed(args.feed), sink, args.log_dir,
        governor=governor,
        batch_window=args.batch_window,
        checkpoint_every=args.checkpoint_every,
        follow=args.follow,
        poll_interval=args.poll_interval,
        max_batches=args.max_batches,
        quarantine=quarantine,
    )
    try:
        stream.run(resume=args.resume)
    except KeyboardInterrupt:
        stream.stop()
        print("\ninterrupted; stream state is checkpointed", file=sys.stderr)
    print(json.dumps(stream.stats_summary(), indent=2))
    if args.quarantine:
        quarantine.save(args.quarantine)
        print(
            f"quarantine report ({len(quarantine)} rejection(s)) written to "
            f"{args.quarantine}",
            file=sys.stderr,
        )
    return 4 if quarantine else 0


def cmd_stats(args) -> int:
    from repro.finkg import ShareholdingConfig, generate_shareholding_graph
    from repro.graph import summarize

    graph = generate_shareholding_graph(
        ShareholdingConfig(companies=args.companies, seed=args.seed)
    )
    stats = summarize(graph)
    print(stats.format_table())
    return 0


def demo_serve_inputs(companies: int, seed: int):
    """The demo workload: the Example 4.1 control program over a
    synthetic shareholding registry."""
    from repro.finkg.generator import (
        ShareholdingConfig,
        generate_shareholding_data,
    )

    program = (
        "company(X) -> controls(X, X).\n"
        "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
        " -> controls(X, Y).\n"
    )
    data = generate_shareholding_data(
        ShareholdingConfig(companies=companies, seed=seed)
    )
    inputs = {
        "company": [(c,) for c in data.companies],
        "own": [
            (s.owner, s.company, s.percentage) for s in data.stakes
        ],
    }
    return program, inputs


def cmd_serve(args) -> int:
    import json

    from repro.serve import (
        KGModelServer,
        ResultCache,
        ServeState,
        ServiceHandlers,
    )

    if args.demo_companies is not None:
        program_text, inputs = demo_serve_inputs(
            args.demo_companies, args.seed
        )
        if args.program or args.facts:
            print(
                "error: --demo-companies replaces --program/--facts",
                file=sys.stderr,
            )
            return 2
    else:
        if not args.program:
            print(
                "error: provide --program FILE (with --facts) or "
                "--demo-companies N",
                file=sys.stderr,
            )
            return 2
        with open(args.program, encoding="utf-8") as handle:
            program_text = handle.read()
        inputs = {}
        if args.facts:
            with open(args.facts, encoding="utf-8") as handle:
                raw = json.load(handle)
            inputs = {
                predicate: [tuple(fact) for fact in facts]
                for predicate, facts in raw.items()
            }

    print("materializing base state ...", flush=True)
    state = ServeState(program_text, inputs)
    snap = state.snapshot
    print(
        f"materialized {snap.total_facts()} facts over "
        f"{len(snap.predicates())} predicates (epoch {snap.epoch})"
    )
    stream = None
    if args.feed:
        import threading

        from repro.stream import DeltaStream, JsonlFeed, ServeStateSink

        if not args.feed_log:
            print("error: --feed requires --feed-log DIR", file=sys.stderr)
            return 2
        sink = ServeStateSink(state=state)
        stream = DeltaStream(
            JsonlFeed(args.feed), sink, args.feed_log,
            batch_window=args.batch_window, follow=True,
            poll_interval=args.poll_interval,
        )
        resume = stream.checkpoint.exists()

        def _ingest() -> None:
            try:
                stream.run(resume=resume)
            except Exception as exc:
                print(f"feed ingestion stopped: {exc}", file=sys.stderr)

        threading.Thread(
            target=_ingest, daemon=True, name="kgmodel-feed"
        ).start()
        print(
            f"ingesting {args.feed} (log: {args.feed_log}, "
            f"resume: {resume})", flush=True,
        )
    handlers = ServiceHandlers(
        state,
        cache=ResultCache(args.cache_size),
        readonly=args.readonly,
        default_budget_ms=args.budget_ms,
        default_max_facts=args.max_facts,
        stream=stream,
    )
    server = KGModelServer(handlers, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        if stream is not None:
            stream.stop()
        server.httpd.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgmodel",
        description="KGModel: model-independent knowledge-graph design tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a GSL schema file")
    p.add_argument("schema")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a GSL schema (KGSE)")
    p.add_argument("schema", nargs="?", help="GSL file (not needed for --format supermodel)")
    p.add_argument(
        "--format", choices=["graphemes", "dot", "supermodel"],
        default="graphemes",
    )
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("translate", help="translate a schema (SSST, Alg. 1)")
    p.add_argument("schema")
    p.add_argument(
        "--model", required=True,
        choices=["property-graph", "relational", "rdf", "csv"],
    )
    p.add_argument("--strategy", default=None)
    p.add_argument("--ddl", action="store_true", help="emit SQL DDL")
    p.add_argument("--cypher", action="store_true", help="emit Cypher constraints")
    p.add_argument("--rdfs", action="store_true", help="emit an RDF-S document")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("compile", help="compile MetaLog to Vadalog (MTV)")
    p.add_argument("program")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "reason", help="materialize an intensional component (Alg. 2)"
    )
    p.add_argument("schema")
    p.add_argument("data", help="instance graph (JSON interchange format)")
    p.add_argument("program", help="MetaLog rules file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--instance-oid", default=1, type=int)
    p.add_argument(
        "--trace", default=None, metavar="OUT.JSONL",
        help="write a JSONL execution trace (spans, counters, histograms)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print a per-span profile summary to stderr",
    )
    p.add_argument(
        "--budget-seconds", default=None, type=float,
        help="wall-clock budget; exceeding it yields partial results (exit 3)",
    )
    p.add_argument(
        "--max-facts", default=None, type=int,
        help="derived-fact budget; exceeding it yields partial results (exit 3)",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="persist the completed chase into this directory",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpointed chase, if it is of these inputs "
             "(requires --checkpoint)",
    )
    p.set_defaults(func=cmd_reason)

    p = sub.add_parser(
        "update",
        help="apply a registry delta incrementally (delta-chase, no re-run)",
    )
    p.add_argument("schema")
    p.add_argument("data", help="instance graph (JSON interchange format)")
    p.add_argument("program", help="MetaLog rules file")
    p.add_argument(
        "--from", dest="changes", default=None, metavar="CHANGES.JSON",
        help="batch of changes: {add_nodes, add_edges, remove_nodes, remove_edges}",
    )
    p.add_argument(
        "--add", action="append", metavar="JSON",
        help='inline element to add, e.g. \'{"id": "o9", "source": "c1", '
             '"target": "c9", "type": "OWNS", "properties": {"percentage": 0.6}}\''
             " (an edge when it has source+target keys, else a node)",
    )
    p.add_argument(
        "--remove", action="append", metavar="ID",
        help="node or edge id to remove (resolved against the data graph)",
    )
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--instance-oid", default=1, type=int)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser(
        "load", help="transactionally load an instance into a deployed store"
    )
    p.add_argument("schema")
    p.add_argument("data", help="instance graph (JSON interchange format)")
    p.add_argument(
        "--target", choices=["graph-store", "triple-store"],
        default="graph-store",
    )
    grp = p.add_mutually_exclusive_group()
    grp.add_argument(
        "--strict", action="store_true",
        help="fail fast: first integrity violation rolls back the whole load "
             "(default)",
    )
    grp.add_argument(
        "--graceful", action="store_true",
        help="degrade gracefully: quarantine rejected records, load the rest "
             "(exit 4 when any are quarantined)",
    )
    p.add_argument(
        "--quarantine", default=None, metavar="OUT.JSON",
        help="write the per-record rejection report to this file",
    )
    p.add_argument("--batch-size", default=200, type=int)
    p.add_argument(
        "--retries", default=5, type=int,
        help="max attempts per store write on transient faults (never "
             "changes the load path)",
    )
    p.set_defaults(func=cmd_load)

    p = sub.add_parser(
        "stream",
        help="consume a change feed crash-safely (durable CDC pipeline)",
    )
    p.add_argument("schema")
    p.add_argument("data", help="base instance graph (JSON interchange format)")
    p.add_argument("program", help="MetaLog rules file")
    p.add_argument(
        "--feed", required=True, metavar="FEED.JSONL",
        help="change feed: one JSON record per line "
             '({"seq": 1, "op": "add_node", "id": ..., "type": ..., '
             '"properties": {...}})',
    )
    p.add_argument(
        "--log-dir", required=True, metavar="DIR",
        help="durable delta log + checkpoint directory (the stream WAL)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="restore the checkpointed state and replay the unacknowledged "
             "log suffix (required when the log directory is not empty)",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="keep polling the feed after it drains (daemon mode)",
    )
    p.add_argument(
        "--deploy", action="append", metavar="TARGET",
        choices=["graph-store", "triple-store", "relational"],
        help="also maintain this deployed target per batch (repeatable)",
    )
    p.add_argument("--batch-window", default=64, type=int, metavar="N",
                   help="records coalesced per batch")
    p.add_argument("--checkpoint-every", default=8, type=int, metavar="N",
                   help="checkpoint the sink state every N batches")
    p.add_argument("--poll-interval", default=0.05, type=float)
    p.add_argument(
        "--max-batches", default=None, type=int, metavar="N",
        help="stop after N applied batches (chaos drills crash mid-feed "
             "this way)",
    )
    p.add_argument(
        "--budget-ms", default=None, type=float,
        help="per-batch apply budget driving backpressure",
    )
    p.add_argument(
        "--strict-backpressure", action="store_true",
        help="a tripped budget raises instead of widening the batch window",
    )
    p.add_argument("--instance-oid", default=1, type=int)
    p.add_argument(
        "--quarantine", default=None, metavar="OUT.JSON",
        help="write the per-record rejection report to this file",
    )
    p.add_argument(
        "--retries", default=5, type=int,
        help="max attempts per target flush on transient faults",
    )
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("stats", help="synthetic-registry statistics (Sec. 2.1)")
    p.add_argument("--companies", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve point/graph queries over a retained materialization",
    )
    p.add_argument("--program", help="Vadalog program file")
    p.add_argument(
        "--facts", help="JSON file: {predicate: [[v1, v2, ...], ...]}"
    )
    p.add_argument(
        "--demo-companies", type=int, default=None, metavar="N",
        help="serve the company-control demo over a synthetic registry",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    p.add_argument("--cache-size", type=int, default=1024)
    p.add_argument(
        "--budget-ms", type=float, default=None,
        help="default per-request engine budget (503 on trip)",
    )
    p.add_argument(
        "--max-facts", type=int, default=None,
        help="default per-request derived-fact budget",
    )
    p.add_argument(
        "--readonly", action="store_true",
        help="reject POST /delta",
    )
    p.add_argument(
        "--feed", default=None, metavar="FEED.JSONL",
        help="also ingest fact deltas from this change feed "
             "(assert/retract records; requires --feed-log)",
    )
    p.add_argument(
        "--feed-log", default=None, metavar="DIR",
        help="durable delta log + checkpoint directory for --feed "
             "(auto-resumes when a checkpoint exists)",
    )
    p.add_argument("--batch-window", default=64, type=int)
    p.add_argument("--poll-interval", default=0.05, type=float)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KGModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
