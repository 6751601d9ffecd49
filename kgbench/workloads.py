"""The four workloads and the oracles that check them.

Every workload builds its registry with
``generate_shareholding_data(ShareholdingConfig(companies=N, seed=S))``,
typed as ``Business``/``PhysicalPerson``/``OWNS``, runs
``CONTROL_PROGRAM`` with graph and engine on their defaults, and measures
operations until its time is up.  The correctness gates run outside the
timed regions and compare against ``repro.finkg.control`` — a worklist
algorithm that shares no code with the chase — so they hold on any seed.
"""

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from collections import defaultdict, deque

from kgbench import OUT, SRC, require_source
from kgbench.metrics import median, peak_rss_mb, percentile
from kgbench.trace import install, operation, span

require_source()

from repro.deploy import GraphStore, loaders  # noqa: E402
from repro.deploy.resilience import graph_store_state  # noqa: E402
from repro.finkg import generator, programs  # noqa: E402
from repro.finkg.company_schema import company_super_schema  # noqa: E402
from repro.finkg.control import control_pairs, stakes_from_graph  # noqa: E402
from repro.graph import make_graph  # noqa: E402
from repro.metalog import parse_metalog  # noqa: E402
from repro.serve import ResultCache, ServeState, ServiceHandlers  # noqa: E402
from repro.ssst import SSST, IntensionalMaterializer  # noqa: E402
from repro.ssst.incremental import RegistryDelta  # noqa: E402
from repro.stream import DeltaStream, GeneratorFeed, MaterializerSink  # noqa: E402

INSTANCE_OID = 9
#: The change feed is stationary: once this many fed stakes are live,
#: every addition is followed by the removal of the oldest.  A feed that
#: only grows the registry makes each batch dearer than the last, so a
#: faster system, which gets further in its time, would look slower.
STREAM_LIVE_STAKES = 32


class Phase:
    """What the measured stretches of one kind (tracing off, or on)
    produced; a workload's ``measure`` adds one stretch to it."""

    def __init__(self, rss_after=0, read_rss=None):
        #: kind -> ``(start, end)``, one entry per operation.
        self.samples = defaultdict(list)
        #: ``(start, end)`` of every stretch.
        self.stretches = []
        #: A phase of the same path with tracing off, when a traced
        #: stretch measured that itself (the in-process serve replay).
        self.baseline = None
        #: The stream drains' ``StreamReport``s, one per stretch.
        self.reports = []
        #: ``read_rss()`` when the ``rss_after``-th operation was done.
        self.rss_mb = None
        self._rss_after = rss_after
        self._read_rss = read_rss

    def add(self, kind, start, end):
        self.samples[kind].append((start, end))
        if (
            self.rss_mb is None and self._rss_after
            and self.operations >= self._rss_after
        ):
            self.rss_mb = self._read_rss()

    def seconds(self, kind):
        return durations(self.samples[kind])

    @property
    def operations(self):
        return sum(len(values) for values in self.samples.values())

    @property
    def wall(self):
        return sum(durations(self.stretches))


def durations(intervals):
    return [end - start for start, end in intervals]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_registry(companies, seed, tracer=None):
    """The typed registry graph with the mandatory properties set."""
    data = generator.generate_shareholding_data(
        generator.ShareholdingConfig(companies=companies, seed=seed)
    )
    graph = make_graph("registry")
    with span(tracer, "graph.build_registry", "graph"):
        for pid in data.persons:
            graph.add_node(
                pid, "PhysicalPerson",
                fiscalCode=f"FC-{pid}", name=f"Person {pid}", gender="female",
            )
        for cid in data.companies:
            graph.add_node(
                cid, "Business",
                fiscalCode=f"FC-{cid}", businessName=f"{cid} SpA",
                legalNature="spa", shareholdingCapital=1000.0,
            )
        for index, stake in enumerate(data.stakes):
            graph.add_edge(
                stake.owner, stake.company, "OWNS",
                edge_id=f"stake-{index}", percentage=stake.percentage,
            )
    return data, graph


def stake_churn(rng, businesses, taken, adds_per_removal, keep_live=1,
                prefix="churn"):
    """Endless single-stake changes: ``("add", id, owner, target, share)``
    between businesses that hold no stake in each other yet and, after
    every ``adds_per_removal``-th addition once more than ``keep_live``
    additions are live, ``("remove", id)`` of the oldest live one
    (``adds_per_removal=None``: additions only)."""
    live = deque()
    for index in itertools.count():
        while True:
            owner, target = rng.sample(businesses, 2)
            if (owner, target) not in taken:
                break
        taken.add((owner, target))
        edge_id = f"{prefix}-{index}"
        yield ("add", edge_id, owner, target, 0.5 + (index % 40) / 100.0)
        live.append(edge_id)
        if (
            adds_per_removal and (index + 1) % adds_per_removal == 0
            and len(live) > keep_live
        ):
            yield ("remove", live.popleft())


def zipf_ranks(rng, count):
    """A function drawing ranks below ``count`` with probability
    proportional to 1/(rank + 1)."""
    ranks = range(count)
    cumulative = list(itertools.accumulate(1.0 / (rank + 1) for rank in ranks))
    return lambda: rng.choices(ranks, cum_weights=cumulative)[0]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_pairs(stakes, businesses):
    """Who controls whom, by the worklist baseline over the stakes that
    businesses hold in businesses (self-control excluded)."""
    businesses = set(businesses)
    return control_pairs(
        [s for s in stakes if s[0] in businesses and s[1] in businesses]
    )


def registry_oracle(registry):
    return oracle_pairs(
        stakes_from_graph(registry),
        (node.id for node in registry.nodes("Business")),
    )


def store_pairs(store):
    """The ``CONTROLS`` pairs a deployed graph store holds."""
    return {
        (edge.source, edge.target)
        for edge in store.graph.edges("CONTROLS")
        if edge.source != edge.target
    }


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------
class Pipeline:
    """Schema, program and store factory shared by the graph workloads."""

    def __init__(self):
        self.schema = company_super_schema()
        self.sigma = parse_metalog(programs.CONTROL_PROGRAM)
        self.target_schema = SSST().translate(
            self.schema, "property-graph"
        ).target_schema

    def deployed_store(self):
        store = GraphStore()
        store.deploy(self.target_schema)
        return store

    def materialize_and_load(self, registry, retain=False):
        """Algorithm 2 as ``kgmodel reason`` runs it, then the load into
        a deployed store.  Returns ``(materializer, store)``."""
        store = self.deployed_store()
        materializer = IntensionalMaterializer()
        report = materializer.materialize(
            self.schema, registry, self.sigma,
            instance_oid=INSTANCE_OID, retain=retain,
        )
        loaders.load_graph_store(self.schema, report.instance.data, store)
        return materializer, store


class Workload:
    """One workload: repeated set-up, warm-up, timed stretches, oracle."""

    #: The operation kind whose median latency is ``op_p50_ms``.
    primary = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: ``peak_rss_mb`` is read when this many operations are done, not
    #: when the time is up: the heap grows with every operation, so a
    #: faster system, which gets further, would look fatter.  Few enough
    #: that a run reaches them with the host at its slowest.
    rss_after = 0
    #: Seconds of one stretch of a traced run, which measures in turns
    #: with tracing off and on; a stretch ends with the operation that
    #: is running, so slow operations make it longer.
    turn_seconds = 1.0

    def __init__(self, seed, companies):
        self.seed = seed
        self.companies = companies
        self.failed = 0

    def set_up(self, tracer):
        raise NotImplementedError

    def tear_down(self):
        """Free what the last set-up built (called before the next)."""

    def warm_up(self):
        """Operations run and discarded before the first timed one."""

    def measure(self, seconds, tracer, phase):
        """Run operations for ``seconds`` and add them to ``phase``."""
        raise NotImplementedError

    def check(self):
        """Oracle mismatches found in the final state."""
        raise NotImplementedError

    def attempted(self, phase):
        return phase.operations

    def throughput(self, phase, speed):
        """Operations per reference second of the time they took."""
        busy = sum(
            sum(speed.at_reference(intervals))
            for intervals in phase.samples.values()
        )
        return phase.operations / busy

    def peak_rss_mb(self):
        return peak_rss_mb()

    def sizes(self):
        return {"companies": self.companies}

    def layers(self, tracer, own, plain, traced):
        """The per-layer metrics this workload can speak for."""
        return {}


# ----------------------------------------------------------------------
# materialize
# ----------------------------------------------------------------------
class Materialize(Workload):
    primary = "materialize"
    #: The set-up is a sixth of a second; more samples steady it.
    setups = 15
    rss_after = 3

    def set_up(self, tracer):
        self.pipeline = Pipeline()
        self.data, self.registry = build_registry(
            self.companies, self.seed, tracer
        )
        self.oracle = None

    def measure(self, seconds, tracer, phase):
        if self.oracle is None:  # harness work: not set-up, not timed
            self.oracle = registry_oracle(self.registry)
        begin = time.perf_counter()
        while True:
            graph = self.registry.copy()
            start = time.perf_counter()
            with operation(tracer, "materialize"):
                _, store = self.pipeline.materialize_and_load(graph)
            phase.add("materialize", start, time.perf_counter())
            if store_pairs(store) != self.oracle:
                self.failed += 1
            if time.perf_counter() >= begin + seconds:
                break
        phase.stretches.append((begin, time.perf_counter()))

    def check(self):
        return 0  # every repetition was checked as it finished

    def layers(self, tracer, own, plain, traced):
        return pipeline_layers(tracer, own, ("materialize",))


def pipeline_layers(tracer, own, kinds):
    """Per-operation medians of the Algorithm 2 layers."""

    def per_op(names, scale=1.0, count=None):
        return median(tracer.per_operation(names, kinds, own, count)) * scale

    return {
        "core.from_plain_graph_s": per_op(("core.from_plain_graph",)),
        "core.to_dictionary_s": per_op(("core.to_dictionary",)),
        "core.from_dictionary_s": per_op(("core.from_dictionary",)),
        "graph.bulk_add_s": per_op(("graph.bulk_add",)),
        "graph.bulk_add_rows": per_op(("graph.bulk_add",), count="rows"),
        "graph.oid_probe_s": per_op(("graph.oid_probe",)),
        "metalog.compile_s": per_op(("metalog.compile",)),
        "metalog.extract_s": per_op(("metalog.extract",)),
        "metalog.extract_facts": per_op(("metalog.extract",), count="facts"),
        "vadalog.run_s": per_op(("vadalog.run",)),
        "vadalog.run_reason_s": median(reason_runs(tracer, own, kinds)),
        "vadalog.facts_derived": per_op(("vadalog.run",), count="facts_derived"),
        "ssst.materialize_self_s": per_op(("ssst.materialize",)),
        "deploy.load_graph_store_s": per_op(("deploy.load_graph_store",)),
        "deploy.nodes_written": per_op(("deploy.load_graph_store",), count="nodes"),
        "deploy.edges_written": per_op(("deploy.load_graph_store",), count="edges"),
    }


def reason_runs(tracer, own, kinds):
    """Duration of the chase over Sigma: the second of the three
    ``Engine.run`` calls directly under each ``materialize``."""
    names = {item.id: item.name for item in tracer.spans}
    runs = defaultdict(list)
    for item in tracer.spans:
        if (
            item.name == "vadalog.run" and item.kind in kinds
            and names.get(item.parent) == "ssst.materialize"
        ):
            runs[item.parent].append(own[item.id])  # a leaf: self = whole
    return [calls[1] for calls in runs.values() if len(calls) > 1]


# ----------------------------------------------------------------------
# update
# ----------------------------------------------------------------------
class Update(Workload):
    primary = "insert"
    rss_after = 18

    def set_up(self, tracer):
        self.pipeline = Pipeline()
        self.data, self.registry = build_registry(
            self.companies, self.seed, tracer
        )
        self.materializer, self.store = self.pipeline.materialize_and_load(
            self.registry, retain=True
        )
        taken = {(s.owner, s.company) for s in self.data.stakes}
        self.churn = stake_churn(
            random.Random(self.seed), sorted(self.data.companies), taken,
            adds_per_removal=2,
        )

    def tear_down(self):
        self.materializer = self.store = self.registry = None

    def _apply(self, event, tracer):
        """One delta through update() and the deployed store."""
        if event[0] == "add":
            _, edge_id, owner, target, share = event
            kind = "insert"
            delta = RegistryDelta(add_edges=[
                (edge_id, owner, target, "OWNS", {"percentage": share}),
            ])
        else:
            kind = "remove"
            delta = RegistryDelta(remove_edges=[event[1]])
        start = time.perf_counter()
        with operation(tracer, kind):
            report = self.materializer.update(delta)
            self.store.apply_flush_delta(
                report.flush_delta, schema=self.pipeline.schema
            )
        return kind, start, time.perf_counter()

    def warm_up(self):
        # The first operation of each kind builds plans and caches.
        for _ in range(3):  # insert, insert, remove
            self._apply(next(self.churn), None)

    def measure(self, seconds, tracer, phase):
        """Whole insert, insert, remove cycles, so every stretch holds
        the same mix wherever its time runs out."""
        begin = time.perf_counter()
        while True:
            kind, start, end = self._apply(next(self.churn), tracer)
            phase.add(kind, start, end)
            if kind == "remove" and time.perf_counter() >= begin + seconds:
                break
        phase.stretches.append((begin, time.perf_counter()))

    def check(self):
        return int(store_pairs(self.store) != registry_oracle(self.registry))

    def layers(self, tracer, own, plain, traced):
        out = pipeline_layers(tracer, own, ("insert", "remove"))
        out.update(update_layers(tracer, own, "insert", "remove"))
        out["update.insert_p50_ms"] = median(plain.seconds("insert")) * 1000.0
        out["update.remove_p50_ms"] = median(plain.seconds("remove")) * 1000.0
        return out


def update_layers(tracer, own, insert, remove):
    """Per-delta medians of the incremental path, by operation kind."""

    def per_op(names, kind, scale=1000.0, count=None):
        return median(tracer.per_operation(names, (kind,), own, count)) * scale

    flushed = sum(tracer.per_operation(("ssst.update",), (remove,), own, "flushed"))
    changes = sum(tracer.per_operation(("ssst.update",), (remove,), own, "changes"))
    return {
        "vadalog.apply_delta_insert_ms": per_op(("vadalog.apply_delta",), insert),
        "vadalog.apply_delta_remove_ms": per_op(("vadalog.apply_delta",), remove),
        "vadalog.strata_recomputed_remove": per_op(
            ("vadalog.apply_delta",), remove, 1.0, "strata_recomputed"
        ),
        "ssst.insert_self_ms": per_op(("ssst.update",), insert),
        "ssst.remove_self_ms": per_op(("ssst.update",), remove),
        "ssst.flushed_objects_insert": per_op(("ssst.update",), insert, 1.0, "flushed"),
        "ssst.flushed_objects_remove": per_op(("ssst.update",), remove, 1.0, "flushed"),
        "ssst.flush_useful_ratio_remove": changes / flushed if flushed else 0.0,
        "deploy.flush_delta_diff_ms": median(tracer.per_operation(
            ("deploy.flush_delta_diff",), (insert, remove), own
        )) * 1000.0,
        "deploy.apply_flush_delta_insert_ms": per_op(
            ("deploy.apply_flush_delta",), insert
        ),
        "deploy.apply_flush_delta_remove_ms": per_op(
            ("deploy.apply_flush_delta",), remove
        ),
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
SERVE_PROGRAM = (
    "company(X) -> controls(X, X).\n"
    "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
    " -> controls(X, Y).\n"
)
CONNECTIONS = 2
WARMUP_REQUESTS = 50
DELTA_EVERY = 40
#: One query in five is a magic query, at a random place in each five.
#: Drawing every query's engine by itself lets the share wander by a
#: tenth of itself from seed to seed, and the throughput with it, since
#: a magic query costs ten snapshot queries.
MAGIC_EVERY = 5


class ServeMixed(Workload):
    primary = "snapshot"
    rss_after = 300

    def __init__(self, seed, companies):
        super().__init__(seed, companies)
        self.child = None
        self.directory = None
        self.handlers = None
        self.records = []

    # -- set-up: the served child process ------------------------------
    def set_up(self, tracer):
        data = generator.generate_shareholding_data(
            generator.ShareholdingConfig(
                companies=self.companies, seed=self.seed
            )
        )
        self.companies_list = list(data.companies)
        self.own = [[s.owner, s.company, s.percentage] for s in data.stakes]
        self.inputs = {
            "company": [[c] for c in self.companies_list], "own": self.own,
        }
        os.makedirs(OUT, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=OUT)
        program = os.path.join(self.directory, "control.vada")
        facts = os.path.join(self.directory, "facts.json")
        with open(program, "w", encoding="utf-8") as handle:
            handle.write(SERVE_PROGRAM)
        with open(facts, "w", encoding="utf-8") as handle:
            json.dump(self.inputs, handle)
        self.stderr = open(
            os.path.join(self.directory, "serve.stderr"), "w", encoding="utf-8"
        )
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--program", program,
             "--facts", facts, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1"),
        )
        self.address = None
        for line in self.child.stdout:
            if line.startswith("serving on http://"):
                host, port = line.split()[2][len("http://"):].rsplit(":", 1)
                self.address = (host, int(port))
                break
        if self.address is None:
            with open(self.stderr.name, encoding="utf-8") as handle:
                raise RuntimeError(
                    "kgmodel serve exited before it was listening: "
                    + handle.read()
                )
        connection = self._connect()
        status, _ = self._request(connection, "GET", "/healthz")
        connection.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        # What the clients will ask, and what the oracle must know.
        order = list(self.companies_list)
        random.Random(self.seed).shuffle(order)
        self.subjects = order
        self.live_own = {tuple(fact) for fact in self.own}
        self.delta_rng = random.Random(self.seed + 1)
        self.originals = [tuple(fact) for fact in self.own]
        self.delta_rng.shuffle(self.originals)
        taken = {(o, c) for o, c, _ in self.own}
        self.churn = stake_churn(
            self.delta_rng, sorted(self.companies_list), taken,
            adds_per_removal=None, prefix="serve",
        )
        self.deltas_sent = 0
        # One endless request sequence per connection.  The in-process
        # replay of a traced run walks connection 0's again from its
        # start, tracing off and on in turns.
        self.requests = [self._requests(index) for index in range(CONNECTIONS)]
        self.replayed = self._requests(0)
        if tracer is not None:
            self._set_up_replay()

    def _set_up_replay(self):
        """The same state in this process, for the traced replay."""
        inputs = {
            predicate: [tuple(fact) for fact in facts]
            for predicate, facts in self.inputs.items()
        }
        self.handlers = ServiceHandlers(
            ServeState(SERVE_PROGRAM, inputs), cache=ResultCache(1024)
        )

    def tear_down(self):
        if self.child is not None:
            self.child.send_signal(signal.SIGINT)
            try:
                self.child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()
            self.stderr.close()
            self.child = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
        self.handlers = None

    def peak_rss_mb(self):
        return peak_rss_mb(self.child.pid)

    # -- the request sequence ------------------------------------------
    def _connect(self):
        return http.client.HTTPConnection(*self.address, timeout=60)

    @staticmethod
    def _request(connection, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _requests(self, connection_index):
        """The seeded request sequence of one connection: ``(engine,
        subject)`` queries and, after every ``DELTA_EVERY`` of them, a
        ``("delta", None)`` slot that the connection which writes fills.
        Popularity is Zipf(1.0) over the permuted company list and moves
        on at every slot (about once per epoch, so the result cache
        loses nothing): a run then averages over some thirty hot sets
        instead of measuring how dear one seed's hottest few are."""
        rng = random.Random(self.seed * 1000 + connection_index)
        rank = zipf_ranks(rng, len(self.subjects))
        while True:
            hottest = rng.randrange(len(self.subjects))
            for slot in range(DELTA_EVERY):
                if slot % MAGIC_EVERY == 0:
                    magic_at = slot + rng.randrange(MAGIC_EVERY)
                yield "magic" if slot == magic_at else "snapshot", self.subjects[
                    (hottest + rank()) % len(self.subjects)
                ]
            yield "delta", None

    def _next_delta(self):
        """Three stake additions, then the removal of an original stake."""
        self.deltas_sent += 1
        if self.deltas_sent % 4 == 0:
            fact = self.originals.pop()
            return "delta_remove", {"removed": {"own": [list(fact)]}}, fact
        _, _, owner, target, share = next(self.churn)
        fact = (owner, target, share)
        return "delta_add", {"added": {"own": [list(fact)]}}, fact

    def _note_delta(self, kind, fact):
        if kind == "delta_add":
            self.live_own.add(fact)
        else:
            self.live_own.discard(fact)

    @staticmethod
    def _query_path(engine, subject):
        query = urllib.parse.quote(f'controls("{subject}", B)?')
        return f"/query?q={query}&engine={engine}"

    # -- measuring -----------------------------------------------------
    def warm_up(self):
        connection = self._connect()
        queries = (r for r in self._requests(CONNECTIONS) if r[0] != "delta")
        for engine, subject in itertools.islice(queries, WARMUP_REQUESTS):
            status, _ = self._request(
                connection, "GET", self._query_path(engine, subject)
            )
            if status != 200:
                self.failed += 1
        connection.close()

    def _http_sender(self, connection):
        def send(kind, subject, body):
            if body is None:
                status, raw = self._request(
                    connection, "GET", self._query_path(kind, subject)
                )
                if status == 200:
                    self.records.append((subject, kind, raw))
            else:
                status, _ = self._request(connection, "POST", "/delta", body)
            return status == 200

        return send

    def _local_sender(self, tracer):
        handle = self.handlers.handle

        def send(kind, subject, body):
            if body is None:
                params = {"q": f'controls("{subject}", B)?', "engine": kind}
                status, payload = handle("GET", "/query", params)
            else:
                status, payload = handle("POST", "/delta", {}, body)
            with span(tracer, "serve.encode", "serve"):
                json.dumps(payload)
            return status == 200

        return send

    def _drive(self, requests, writes, seconds, send, add, tracer=None,
               served=False):
        """One closed loop over a request sequence: the next request
        goes out when the previous answer has been read to its last
        byte, and ``add(kind, start, end)`` takes each one's times.
        With ``writes`` the loop fills the delta slots; ``served`` says
        they reach the child, whose EDB the oracle tracks.  Returns the
        requests that failed."""
        failed = 0
        begin = time.perf_counter()
        for kind, subject in requests:
            body = fact = None
            if kind == "delta":
                if not writes:
                    continue
                kind, body, fact = self._next_delta()
            start = time.perf_counter()
            with operation(tracer, kind):
                done = send(kind, subject, body)
            add(kind, start, time.perf_counter())
            failed += not done
            if done and served and fact is not None:
                self._note_delta(kind, fact)
            if time.perf_counter() >= begin + seconds:
                break
        return failed

    def measure(self, seconds, tracer, phase):
        if tracer is not None:
            return self._replay(seconds, tracer, phase)
        failed = [0] * CONNECTIONS

        def client(index):
            connection = self._connect()
            try:
                failed[index] = self._drive(
                    self.requests[index], index == 0, seconds,
                    self._http_sender(connection), phase.add, served=True,
                )
            finally:
                connection.close()

        begin = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.stretches.append((begin, time.perf_counter()))
        self.failed += sum(failed)

    def _replay(self, seconds, tracer, phase):
        """Connection 0's request sequence against handlers in this
        process: half the time with tracing off, half with spans."""
        tracer.restore()
        phase.baseline = phase.baseline or Phase()
        self.failed += self._drive(
            self.replayed, True, seconds / 2.0, self._local_sender(None),
            phase.baseline.add,
        )
        install(tracer)
        begin = time.perf_counter()
        self.failed += self._drive(
            self.replayed, True, seconds / 2.0, self._local_sender(tracer),
            phase.add, tracer,
        )
        phase.stretches.append((begin, time.perf_counter()))

    def throughput(self, phase, speed):
        return phase.operations / sum(speed.at_reference(phase.stretches))

    # -- oracle --------------------------------------------------------
    def check(self):
        """Magic and snapshot answers agree per (subject, epoch); the
        final ``controls`` relation equals the oracle on the final EDB."""
        mismatches = 0
        answers = {}
        for subject, engine, raw in self.records:
            payload = json.loads(raw)
            found = frozenset(tuple(fact) for fact in payload["answers"])
            if payload["limited"]:
                mismatches += 1
            key = (subject, payload["epoch"])
            for other_engine, other in answers.setdefault(key, {}).items():
                if other_engine != engine and other != found:
                    mismatches += 1
            answers[key][engine] = found
        #: (subject, epoch) pairs that both engines answered.
        self.agreement_pairs = sum(1 for by in answers.values() if len(by) > 1)
        connection = self._connect()
        status, raw = self._request(
            connection, "GET",
            "/query?q=" + urllib.parse.quote("controls(A, B)?")
            + "&engine=snapshot&limit=100000000",
        )
        connection.close()
        if status != 200:
            return mismatches + 1
        served = {
            (a, b) for a, b in json.loads(raw)["answers"] if a != b
        }
        expected = oracle_pairs(self.live_own, self.companies_list)
        return mismatches + int(served != expected)

    def sizes(self):
        return {
            "companies": self.companies, "connections": CONNECTIONS,
            "delta_every": DELTA_EVERY, "magic_every": MAGIC_EVERY,
            "agreement_pairs": self.agreement_pairs,
        }

    def layers(self, tracer, own, plain, traced):
        def per_op(names, kinds, count=None):
            return median(tracer.per_operation(names, kinds, own, count)) * 1000.0

        fallbacks = sum(tracer.per_operation(
            ("vadalog.magic_answer",), ("magic",), own, "fallback"
        ))
        in_process = median(traced.baseline.seconds("snapshot"))
        client = plain.seconds("snapshot")
        cache = self.handlers.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        return {
            "vadalog.magic_answer_ms": per_op(
                ("vadalog.magic_answer", "vadalog.run"), ("magic",)
            ),
            "vadalog.magic_fallbacks": fallbacks,
            "serve.handle_snapshot_ms": per_op(("serve.handle",), ("snapshot",)),
            "serve.handle_magic_ms": per_op(("serve.handle",), ("magic",)),
            "serve.encode_ms": per_op(("serve.encode",), ("snapshot", "magic")),
            "serve.cache_hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0
            ),
            "serve.delta_add_ms": per_op(
                ("serve.handle", "serve.apply_delta"), ("delta_add",)
            ),
            "serve.delta_remove_ms": per_op(
                ("serve.handle", "serve.apply_delta"), ("delta_remove",)
            ),
            "serve.socket_overhead_ms": (median(client) - in_process) * 1000.0,
            "serve.snapshot_query_p50_ms": median(client) * 1000.0,
            "serve.snapshot_query_p95_ms": percentile(client, 0.95) * 1000.0,
            "serve.snapshot_query_p99_ms": percentile(client, 0.99) * 1000.0,
            "serve.magic_query_p50_ms": median(plain.seconds("magic")) * 1000.0,
            "serve.delta_add_p50_ms": median(plain.seconds("delta_add")) * 1000.0,
            "serve.delta_remove_p50_ms": (
                median(plain.seconds("delta_remove")) * 1000.0
            ),
        }


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
class Stream(Workload):
    primary = "batch"
    rss_after = 8
    #: Every stretch is a drain of its own, with a first and a last
    #: checkpoint; one of a single batch would checkpoint four times as
    #: often per batch as the library does.
    turn_seconds = 5.0

    def set_up(self, tracer):
        self.pipeline = Pipeline()
        self.data, base = build_registry(self.companies, self.seed, tracer)
        self.sink = MaterializerSink(
            self.pipeline.schema, self.pipeline.sigma, base,
            instance_oid=INSTANCE_OID,
        )
        self.store = self.pipeline.deployed_store()
        self.sink.attach_graph_store(self.store)
        self.sink.bootstrap()
        # DeltaStream.run() bootstraps its sink; this one already is.
        self.sink.bootstrap = lambda: None
        taken = {(s.owner, s.company) for s in self.data.stakes}
        self.feed_records = self._records(stake_churn(
            random.Random(self.seed), sorted(self.data.companies), taken,
            adds_per_removal=1, keep_live=STREAM_LIVE_STAKES, prefix="cdc",
        ))
        self.flush_policy = None

    def tear_down(self):
        self.sink = self.store = None

    @staticmethod
    def _records(churn):
        for seq, event in enumerate(churn, 1):
            if event[0] == "add":
                _, edge_id, owner, target, share = event
                yield {
                    "seq": seq, "op": "add_edge", "id": edge_id,
                    "source": owner, "target": target, "type": "OWNS",
                    "properties": {"percentage": share},
                }
            else:
                yield {"seq": seq, "op": "remove_edge", "id": event[1]}

    def measure(self, seconds, tracer, phase):
        """One drain of the backlog, through a ``DeltaStream`` on the
        library's defaults and a log directory of its own."""
        apply = self.sink.apply

        def timed_apply(batch, quarantine):
            start = time.perf_counter()
            with operation(tracer, "batch"):
                result = apply(batch, quarantine)
            phase.add("batch", start, time.perf_counter())
            return result

        os.makedirs(OUT, exist_ok=True)
        log_dir = tempfile.mkdtemp(prefix="stream-", dir=OUT)
        self.sink.apply = timed_apply
        try:
            begin = time.perf_counter()
            feed = BacklogFeed(self.feed_records, begin + seconds)
            with operation(tracer, "drain"):
                stream = DeltaStream(feed, self.sink, log_dir)
                feed.window = stream.batch_window
                report = stream.run()
            phase.stretches.append((begin, time.perf_counter()))
        finally:
            del self.sink.apply
            shutil.rmtree(log_dir, ignore_errors=True)
        phase.reports.append(report)
        self.failed += report.records_quarantined + report.operations_dropped
        self.flush_policy = {
            "batch_window": stream.batch_window, "fsync": stream.log.fsync,
            "checkpoint_every": stream.checkpoint_every,
            "compact_every": stream.compact_every,
        }

    def attempted(self, phase):
        return sum(report.records_seen for report in phase.reports)

    def throughput(self, phase, speed):
        """Records per second of drain: the batches' applies, which are
        computation, in reference seconds, and the transport around them
        (log, fsync, checkpoints) as measured."""
        applied = sum(
            report.records_seen - report.records_quarantined
            - report.duplicates_skipped
            for report in phase.reports
        )
        batches = phase.samples["batch"]
        transport = phase.wall - sum(durations(batches))
        return applied / (sum(speed.at_reference(batches)) + transport)

    def check(self):
        """The streamed store equals a from-scratch materialize + load
        of the final registry, and both agree with the oracle."""
        final = self.sink.data
        mismatches = int(store_pairs(self.store) != registry_oracle(final))
        _, reference = self.pipeline.materialize_and_load(final.copy())
        mismatches += int(
            graph_store_state(self.store) != graph_store_state(reference)
        )
        return mismatches

    def sizes(self):
        return {"companies": self.companies, "flush_policy": self.flush_policy}

    def layers(self, tracer, own, plain, traced):
        batches = max(sum(r.batches_applied for r in traced.reports), 1)
        consumed = sum(
            r.operations_applied + r.operations_dropped for r in traced.reports
        )
        cancelled = sum(r.records_cancelled for r in traced.reports)

        def calls(name):
            """Seconds of each call, whatever it calls (its fsync)."""
            return [
                item.duration for item in tracer.spans
                if item.name == name and item.kind == "drain"
            ]

        out = pipeline_layers(tracer, own, ("batch",))
        # Every batch of the feed holds removals, so a batch takes the
        # removal path and reports under its names.
        out.update(update_layers(tracer, own, None, "batch"))
        out.update({
            "stream.log_append_s": sum(calls("stream.log_append")) / batches,
            "stream.log_fsyncs": float(tracer.count(
                "stream.fsync", "stream.log_append", ("drain",)
            )),
            "stream.coalesce_s": sum(calls("stream.coalesce")) / batches,
            # StreamReport.coalesce_ratio(), over all the drains.
            "stream.coalesce_ratio": (
                consumed / (consumed + cancelled) if consumed + cancelled else 1.0
            ),
            # Per save, not per batch: short drains save more often.
            "stream.checkpoint_s": median(calls("stream.checkpoint")),
            "stream.sink_apply_s": median(tracer.per_operation(
                ("stream.sink_apply",), ("batch",), own
            )),
            "stream.apply_share": sum(traced.seconds("batch")) / traced.wall,
            "stream.batch_apply_p50_ms": median(plain.seconds("batch")) * 1000.0,
        })
        return out


class BacklogFeed(GeneratorFeed):
    """An always-full backlog that dries up at the deadline.  It hands
    over at most ``window`` records per poll (the stream's batch window),
    so the drain stops within a batch of its time."""

    def __init__(self, records, deadline):
        super().__init__(records)
        self.deadline = deadline
        self.window = None

    def poll(self, max_records=256):
        if time.perf_counter() >= self.deadline:
            self._eof = True
            return []
        return super().poll(min(max_records, self.window or max_records))


WORKLOADS = {
    "materialize-2k": (Materialize, 2000),
    "update-1k": (Update, 1000),
    "serve-mixed-10k": (ServeMixed, 10000),
    "stream-1k": (Stream, 1000),
}
SMOKE_COMPANIES = 200
