"""The query service: snapshot semantics, endpoint contracts, the result
cache, resource budgets, the HTTP layer, and the read/write concurrency
battery (many reader threads racing interleaved delta applications, with
every response checked against its epoch's exact expected answers)."""

import contextlib
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.errors import EvaluationError
from repro.serve import (
    KGModelServer,
    ResultCache,
    ServeMetrics,
    ServeState,
    ServiceHandlers,
    build_server,
)
from repro.vadalog import Engine, parse_program
from tests.test_engine_plans import CHASE_OF

TC = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."

CONTROL = (
    "company(X) -> controls(X, X).\n"
    "controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5"
    " -> controls(X, Y)."
)


#: A rule whose builtin refuses some inputs: ``p("abc")`` has no number.
TONUMBER = "p(X), Y = tonumber(X) -> q(X, Y)."


def as_sets(relations):
    return {predicate: set(facts) for predicate, facts in relations.items()}


def make_state(**kwargs):
    return ServeState(
        TC,
        inputs={"e": [("a", "b"), ("b", "c"), ("x", "y")]},
        check_wardedness=False,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# ServeState: materialization, snapshots, isolation
# ---------------------------------------------------------------------------


class TestServeState:
    def test_base_materialization_is_epoch_zero(self):
        state = make_state()
        snap = state.snapshot
        assert snap.epoch == 0
        assert snap.facts["tc"] == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")
        }
        assert set(snap.edb) == {"e"}
        assert snap.count("e") == 3
        assert snap.arity("tc") == 2

    def test_delta_publishes_next_epoch(self):
        state = make_state()
        delta = state.apply_delta(added={"e": [("c", "d")]})
        snap = state.snapshot
        assert snap.epoch == 1
        assert ("a", "d") in snap.facts["tc"]
        assert ("c", "d") in delta.added.get("tc", set())

    def test_snapshot_isolation_across_deltas(self):
        # The frozen snapshot must not alias any structure the writer
        # mutates: an applied delta leaves old epochs byte-identical.
        state = make_state()
        old = state.snapshot
        old_tc = old.facts["tc"]
        old_edb = old.edb["e"]
        state.apply_delta(added={"e": [("c", "d")]}, removed={"e": [("x", "y")]})
        assert old.epoch == 0
        assert old.facts["tc"] == old_tc
        assert old.facts["tc"] == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")
        }
        assert old.edb["e"] == old_edb
        new = state.snapshot
        assert new.epoch == 1
        assert ("x", "y") not in new.facts["tc"]

    def test_removal_retracts_derived_facts(self):
        state = make_state()
        state.apply_delta(removed={"e": [("b", "c")]})
        assert state.snapshot.facts["tc"] == {("a", "b"), ("x", "y")}

    def test_subscribers_see_every_epoch(self):
        state = make_state()
        seen = []
        state.subscribe(lambda snap: seen.append(snap.epoch))
        state.apply_delta(added={"e": [("c", "d")]})
        state.apply_delta(added={"e": [("d", "f")]})
        assert seen == [1, 2]

    def test_epoch_gauge_exported(self):
        state = make_state()
        state.apply_delta(added={"e": [("c", "d")]})
        metrics = state.metrics.snapshot()
        assert metrics["counters"]["serve.epoch"] == 1
        assert metrics["counters"]["serve.deltas"] == 1

    def test_program_text_accepted(self):
        state = ServeState(
            CONTROL,
            inputs={
                "company": [("c1",), ("c2",)],
                "own": [("c1", "c2", 0.6)],
            },
        )
        assert ("c1", "c2") in state.snapshot.facts["controls"]


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        assert cache.get(0, "k") is None
        cache.put(0, "k", "v")
        assert cache.get(0, "k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        cache.get(0, "a")  # refresh a
        cache.put(0, "c", 3)  # evicts b
        assert cache.get(0, "a") == 1
        assert cache.get(0, "b") is None
        assert cache.get(0, "c") == 3

    def test_epoch_keys_never_collide(self):
        cache = ResultCache()
        cache.put(0, "k", "old")
        cache.put(1, "k", "new")
        assert cache.get(0, "k") == "old"
        assert cache.get(1, "k") == "new"

    def test_on_epoch_drops_superseded(self):
        cache = ResultCache()
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        cache.put(1, "c", 3)

        class Snap:
            epoch = 1

        cache.on_epoch(Snap())
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 2

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(0, "k", "v")
        assert cache.get(0, "k") is None


# ---------------------------------------------------------------------------
# Handlers: endpoint contracts (driven without sockets)
# ---------------------------------------------------------------------------


def get(handlers, path, **params):
    return handlers.handle("GET", path, {k: str(v) for k, v in params.items()})


class TestHandlers:
    def test_healthz(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(handlers, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "epoch": 0}

    def test_schema_marks_derived_predicates(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(handlers, "/schema")
        assert status == 200
        by_name = {p["name"]: p for p in payload["predicates"]}
        assert by_name["tc"]["derived"] and not by_name["e"]["derived"]
        assert by_name["tc"]["arity"] == 2
        assert payload["total_facts"] == 7

    def test_query_snapshot_mode(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(handlers, "/query", q='tc("a", Y)?')
        assert status == 200
        assert payload["answers"] == [["a", "b"], ["a", "c"]]
        assert payload["epoch"] == 0
        assert not payload["cached"]

    def test_engine_modes_agree_with_direct_evaluation(self):
        inputs = {"e": [("a", "b"), ("b", "c"), ("x", "y")]}
        direct = Engine().run(parse_program(TC), inputs=inputs)
        expected = sorted(
            [list(f) for f in direct.facts("tc") if f[0] == "a"]
        )
        handlers = ServiceHandlers(make_state())
        for mode in ("snapshot", "magic", "full"):
            status, payload = get(
                handlers, "/query", q='tc("a", Y)?', engine=mode
            )
            assert status == 200
            assert sorted(payload["answers"]) == expected, mode
        _, magic = get(handlers, "/query", q='tc("a", Y)?', engine="magic")
        assert magic["engine_stats"]["facts_derived"] > 0

    def test_query_cache_round_trip_and_invalidation(self):
        handlers = ServiceHandlers(make_state())
        _, first = get(handlers, "/query", q='tc("a", Y)?')
        _, second = get(handlers, "/query", q='tc("a", Y)?')
        assert not first["cached"] and second["cached"]
        assert second["answers"] == first["answers"]
        # A delta bumps the epoch; the same request misses and recomputes.
        handlers.handle("POST", "/delta", {}, {"added": {"e": [["c", "d"]]}})
        status, third = get(handlers, "/query", q='tc("a", Y)?')
        assert not third["cached"]
        assert third["epoch"] == 1
        assert ["a", "d"] in third["answers"]
        assert handlers.cache.stats()["invalidations"] >= 1

    def test_query_limit(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(handlers, "/query", q="tc(X, Y)?", limit=2)
        assert status == 200
        assert len(payload["answers"]) == 2
        assert payload["limited"]
        assert payload["answer_count"] == 4

    def test_query_budget_exceeded_is_503_with_partial(self):
        # max_facts=1 on the full chase trips the graceful governor.
        handlers = ServiceHandlers(make_state())
        status, payload = get(
            handlers, "/query", q="tc(X, Y)?", engine="full", max_facts=1
        )
        assert status == 503
        assert payload["status"] != "fixpoint"
        assert "partial" in payload["error"]
        assert payload["engine_stats"]["facts_derived"] >= 1

    def test_query_client_errors(self):
        handlers = ServiceHandlers(make_state())
        assert get(handlers, "/query")[0] == 400
        assert get(handlers, "/query", q="not a query!!")[0] == 400
        assert get(handlers, "/query", q="tc(X, Y)?", engine="warp")[0] == 400
        assert get(handlers, "/query", q="tc(X, Y)?", limit="many")[0] == 400
        assert get(handlers, "/nope")[0] == 404
        assert handlers.handle("PUT", "/query", {})[0] == 405

    @pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
    def test_query_budget_out_of_range_is_400(self, budget):
        """A budget is a positive, finite number of milliseconds: the
        governor refuses a non-positive one, NaN never trips and never
        hits the cache, infinity bounds nothing."""
        handlers = ServiceHandlers(make_state())
        for engine in ("snapshot", "magic", "full"):
            status, payload = get(
                handlers, "/query", q="tc(X, Y)?", engine=engine,
                budget_ms=budget,
            )
            assert status == 400, (engine, payload)
            assert payload["error"] == "budget_ms must be a positive finite number"
        status, payload = get(
            handlers, "/query", q="tc(X, Y)?", engine="full", budget_ms="5000"
        )
        assert status == 200 and payload["status"] == "fixpoint"

    def test_neighborhood(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(
            handlers, "/neighborhood", node="a", predicate="tc", depth=1
        )
        assert status == 200
        assert payload["layers"][0] == ["a"]
        assert sorted(payload["layers"][1]) == ["b", "c"]
        status, payload = get(
            handlers, "/neighborhood", node="c", predicate="e",
            direction="in",
        )
        assert status == 200
        assert payload["layers"][1] == ["b"]

    def test_neighborhood_truncates_to_503(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(
            handlers, "/neighborhood", node="a", predicate="tc",
            depth=2, max_visited=1,
        )
        assert status == 503
        assert payload["truncated"]

    def test_path(self):
        handlers = ServiceHandlers(make_state())
        status, payload = get(
            handlers, "/path", predicate="e", **{"from": "a", "to": "c"}
        )
        assert status == 200
        assert payload["path"] == ["a", "b", "c"]
        assert payload["length"] == 2
        status, payload = get(
            handlers, "/path", predicate="e", **{"from": "a", "to": "x"}
        )
        assert status == 200
        assert payload["path"] is None

    def test_delta_rejects_derived_and_readonly(self):
        handlers = ServiceHandlers(make_state())
        status, payload = handlers.handle(
            "POST", "/delta", {}, {"added": {"tc": [["a", "z"]]}}
        )
        assert status == 400
        assert "derived" in payload["error"]
        assert handlers.handle("POST", "/delta", {}, {})[0] == 400
        readonly = ServiceHandlers(make_state(), readonly=True)
        status, _ = readonly.handle(
            "POST", "/delta", {}, {"added": {"e": [["c", "d"]]}}
        )
        assert status == 403

    def test_delta_reports_strata_classification(self):
        handlers = ServiceHandlers(make_state())
        status, payload = handlers.handle(
            "POST", "/delta", {}, {"added": {"e": [["c", "d"]]}}
        )
        assert status == 200
        assert payload["epoch"] == 1
        # The report covers the extensional delta and its derived wake:
        # c->d extends three closure paths (a->d, b->d, c->d).
        assert payload["added"] == {"e": 1, "tc": 3}
        assert sum(payload["strata"].values()) >= 1
        assert payload["recompute_reasons"] == []

    def test_delta_names_the_rule_that_forced_a_recompute(self):
        state = ServeState(
            "own(Z, Y, W), V = mmax(W, <Z>), V > 0.4 -> strong(Y, V).",
            inputs={"own": [("a", "b", 0.6), ("c", "b", 0.5)]},
        )
        status, payload = ServiceHandlers(state).handle(
            "POST", "/delta", {}, {"removed": {"own": [["a", "b", 0.6]]}}
        )
        assert status == 200 and payload["strata"]["recomputed"] == 1
        assert payload["recompute_reasons"] == [
            [0, "r0", "aggregate target in the head"]]
        assert set(state.snapshot.facts["strong"]) == {("b", 0.5)}

    def test_stats_exposes_cache_and_metrics(self):
        handlers = ServiceHandlers(make_state())
        get(handlers, "/query", q='tc("a", Y)?')
        get(handlers, "/query", q='tc("a", Y)?')
        status, payload = get(handlers, "/stats")
        assert status == 200
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["hit_rate"] == 0.5
        counters = payload["metrics"]["counters"]
        assert counters["serve.requests.query"] == 2
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.status.200"] >= 2

    def test_existential_nulls_encode_as_tagged_objects(self):
        state = ServeState(
            "person(X) -> hasid(X, Y).",
            inputs={"person": [("p1",)]},
        )
        handlers = ServiceHandlers(state)
        status, payload = get(handlers, "/query", q='hasid("p1", Y)?')
        assert status == 200
        [[_, null]] = payload["answers"]
        assert isinstance(null, dict) and "$null" in null
        json.dumps(payload)  # the whole payload must be serializable


# ---------------------------------------------------------------------------
# HTTP layer: real sockets
# ---------------------------------------------------------------------------


def fetch(url, body=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPServer:
    def test_round_trip(self):
        handlers = ServiceHandlers(make_state())
        with build_server(handlers) as server:
            status, payload = fetch(f"{server.url}/healthz")
            assert (status, payload["status"]) == (200, "ok")
            status, payload = fetch(
                f"{server.url}/query?q=tc(%22a%22,%20Y)?&engine=magic"
            )
            assert status == 200
            assert payload["answers"] == [["a", "b"], ["a", "c"]]
            status, payload = fetch(
                f"{server.url}/delta", {"added": {"e": [["c", "d"]]}}
            )
            assert (status, payload["epoch"]) == (200, 1)
            status, payload = fetch(f"{server.url}/query?q=tc(%22a%22,%20Y)?")
            assert ["a", "d"] in payload["answers"]

    def test_error_statuses_over_http(self):
        handlers = ServiceHandlers(make_state())
        with build_server(handlers) as server:
            assert fetch(f"{server.url}/query")[0] == 400
            assert fetch(f"{server.url}/nope")[0] == 404


# ---------------------------------------------------------------------------
# The concurrency battery: ≥8 readers racing ≥20 interleaved deltas
# ---------------------------------------------------------------------------


class TestConcurrencyBattery:
    READERS = 10
    DELTAS = 24
    BASE = 4  # chain a0 -> a1 -> ... -> a4 at epoch 0

    def expected_chain(self, epoch):
        """At epoch e the chain reaches a{BASE+e}: tc('a0', Y) answers."""
        return [[f"a{i}"] for i in range(1, self.BASE + epoch + 1)]

    def test_readers_never_see_torn_epochs(self):
        edges = [(f"a{i}", f"a{i+1}") for i in range(self.BASE)]
        state = ServeState(TC, inputs={"e": edges}, check_wardedness=False)
        handlers = ServiceHandlers(state)
        expected = {
            epoch: sorted(
                [["a0", f"a{i}"] for i in range(1, self.BASE + epoch + 1)]
            )
            for epoch in range(self.DELTAS + 1)
        }

        stop = threading.Event()
        errors = []
        reads = [0] * self.READERS
        epochs_seen = [set() for _ in range(self.READERS)]
        modes = ("snapshot", "magic")

        def reader(index):
            mode = modes[index % len(modes)]
            while not stop.is_set() or reads[index] < 5:
                status, payload = handlers.handle(
                    "GET", "/query",
                    {"q": 'tc("a0", Y)?', "engine": mode},
                )
                if status != 200:
                    errors.append((index, "status", status, payload))
                    return
                epoch = payload["epoch"]
                if sorted(payload["answers"]) != expected.get(epoch):
                    errors.append((index, "torn", epoch, payload["answers"]))
                    return
                epochs_seen[index].add(epoch)
                reads[index] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(self.READERS)
        ]
        for thread in threads:
            thread.start()

        for i in range(self.DELTAS):
            status, payload = handlers.handle(
                "POST", "/delta", {},
                {"added": {"e": [[f"a{self.BASE + i}",
                                  f"a{self.BASE + i + 1}"]]}},
            )
            assert status == 200
            assert payload["epoch"] == i + 1
            time.sleep(0.002)  # let readers interleave mid-stream

        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [], errors[:3]
        assert all(count >= 5 for count in reads)
        assert state.snapshot.epoch == self.DELTAS
        # Readers collectively observed writer progress, not one frozen
        # epoch: the union must span several distinct epochs.
        union = set().union(*epochs_seen)
        assert len(union) >= 3
        # And the cache stayed coherent: hits only ever served the
        # epoch embedded in their key.
        stats = handlers.cache.stats()
        assert stats["hits"] + stats["misses"] == sum(reads)

    def test_concurrent_mixed_endpoints_stay_consistent(self):
        edges = [(f"a{i}", f"a{i+1}") for i in range(self.BASE)]
        state = ServeState(TC, inputs={"e": edges}, check_wardedness=False)
        handlers = ServiceHandlers(state)
        stop = threading.Event()
        errors = []

        def prober():
            while not stop.is_set():
                status, schema = handlers.handle("GET", "/schema", {})
                if status != 200:
                    errors.append(("schema", status))
                    return
                # Within one response, counts are mutually consistent.
                total = sum(p["facts"] for p in schema["predicates"])
                if total != schema["total_facts"]:
                    errors.append(("schema-torn", schema))
                    return
                status, payload = handlers.handle(
                    "GET", "/neighborhood",
                    {"node": "a0", "predicate": "tc", "depth": "1"},
                )
                if status != 200:
                    errors.append(("neighborhood", status))
                    return

        threads = [
            threading.Thread(target=prober, daemon=True) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for i in range(self.DELTAS):
            handlers.handle(
                "POST", "/delta", {},
                {"added": {"e": [[f"b{i}", f"b{i + 1}"]]}},
            )
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

    def test_lazy_index_builds_race_the_freeze(self):
        """Readers that are the first to probe a position of epoch N —
        publishing an index into the views the writer is reading to
        freeze N+1 — while the writer also compacts (so that positions
        keep being built, not only carried): no ``dictionary changed
        size``, and every probe answers as the scan of its own epoch."""
        import sys

        edges = [(f"a{i}", f"a{i+1}") for i in range(self.BASE)]
        side = [(f"s{i}", f"t{i % 7}") for i in range(40)]
        state = ServeState(
            TC, inputs={"e": edges + side}, check_wardedness=False
        )
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        stop = threading.Event()
        errors = []
        reads = [0] * self.READERS

        def reader(index):
            constants = ["a0", "a2", "t3", f"s{index}", "ghost"]
            try:
                while not stop.is_set() or reads[index] < 5:
                    snap = state.snapshot
                    for predicate in ("tc", "e"):
                        block = snap.facts[predicate]
                        for position in (index % 2, 1 - index % 2):
                            value = constants[reads[index] % len(constants)]
                            probed = sorted(
                                f for f in block.matching([(position, value)])
                                if f[position] == value
                            )
                            if probed != sorted(
                                f for f in block if f[position] == value
                            ):
                                errors.append((index, "torn", snap.epoch))
                                return
                    edb = snap.edb["e"]
                    for bound in ([(1, "t3")], [(0, "a0")], [(0, "s1"), (1, "t1")]):
                        if sorted(edb.lookup(bound)) != sorted(
                            f for f in edb if all(f[p] == v for p, v in bound)
                        ):
                            errors.append((index, "edb", snap.epoch))
                            return
                    status, payload = handlers.handle(
                        "GET", "/query", {"q": 'tc("a0", Y)?', "engine": "magic"}
                    )
                    if status != 200 or sorted(payload["answers"]) != sorted(
                        [["a0", f"a{i}"]
                         for i in range(1, self.BASE + (payload["epoch"] + 1) // 2 + 1)]
                    ):
                        errors.append((index, "magic", status, payload))
                        return
                    reads[index] += 1
            except Exception as exc:  # e.g. RuntimeError: dictionary changed size
                errors.append((index, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(i,), daemon=True)
                for i in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            for i in range(self.DELTAS):
                # Odd epochs extend the chain; even ones drop a side edge
                # and, every other time, compact: the chain of carried
                # indexes breaks and first readers rebuild.
                state.apply_delta(added={"e": [
                    (f"a{self.BASE + i}", f"a{self.BASE + i + 1}")
                ]})
                state.apply_delta(removed={"e": [side[i]]})
                if i % 2:
                    state._result.database.compact()
                time.sleep(0.002)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [], errors[:3]
        assert all(count >= 5 for count in reads)
        counters = state.metrics.snapshot()["counters"]
        assert counters["serve.index_built"] >= 10  # chains broke, and were
        assert counters["serve.index_carried"] >= 10  # picked up again


# ---------------------------------------------------------------------------
# Keep-alive connection reuse + /delta validation
# ---------------------------------------------------------------------------


class TestKeepAlive:
    def test_one_socket_serves_many_requests(self):
        import http.client

        handlers = ServiceHandlers(make_state())
        with build_server(handlers) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                sock = conn.sock
                assert sock is not None
                # GETs and a POST ride the same TCP connection.
                for _ in range(3):
                    conn.request("GET", "/schema")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    assert conn.sock is sock
                body = json.dumps({"added": {"e": [["k1", "k2"]]}}).encode()
                conn.request(
                    "POST", "/delta", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["epoch"] == 1
                assert conn.sock is sock
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["epoch"] == 1
                assert conn.sock is sock
            finally:
                conn.close()

    def test_oversized_body_closes_the_connection(self, monkeypatch):
        import http.client

        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_MAX_BODY", 64)
        handlers = ServiceHandlers(make_state())
        with build_server(handlers) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                # The unread oversized body cannot be allowed to sit in
                # the socket: it would be parsed as the next request.
                conn.request("POST", "/delta", body=b"x" * 1000)
                response = conn.getresponse()
                assert response.status == 413
                response.read()
                with pytest.raises(
                    (ConnectionError, http.client.HTTPException, OSError)
                ):
                    conn.request("GET", "/healthz")
                    conn.getresponse()
            finally:
                conn.close()

    def test_malformed_json_body_is_structured_400(self):
        import http.client

        handlers = ServiceHandlers(make_state())
        with build_server(handlers) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("POST", "/delta", body=b"{not json")
                response = conn.getresponse()
                assert response.status == 400
                assert "JSON" in json.loads(response.read())["error"]
                # The connection survives a body-level 400.
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()


@contextlib.contextmanager
def raw_connection(server, timeout=5):
    """A bare socket to ``server`` and one buffered reader over it."""
    sock = socket.create_connection(server.address, timeout=timeout)
    try:
        yield sock, sock.makefile("rb")
    finally:
        sock.close()


def read_response(reader):
    """``(status, headers, payload)`` of the next response, None at EOF."""
    line = reader.readline()
    if not line:
        return None
    headers = {}
    while (header := reader.readline()) not in (b"\r\n", b""):
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = reader.read(int(headers.get("content-length", 0)))
    if headers.get("content-type") == "application/json":
        raw = json.loads(raw)
    return int(line.split()[1]), headers, raw


def raw_get(path, version="HTTP/1.1", *headers):
    return "\r\n".join(
        [f"GET {path} {version}", "Host: test", *headers, "", ""]
    ).encode("latin-1")


def raw_post(body, *headers):
    return "\r\n".join(
        ["POST /delta HTTP/1.1", "Host: test", *headers, "", ""]
    ).encode("latin-1") + body


class TestHTTPProtocol:
    """The request loop over raw sockets: framing, keep-alive and the
    requests it refuses itself."""

    DELTA = json.dumps({"added": {"e": [["p", "q"]]}}).encode()

    def test_pipelined_gets_in_one_send(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/healthz") + raw_get("/schema"))
                first, second = read_response(reader), read_response(reader)
                assert (first[0], first[2]["status"]) == (200, "ok")
                assert second[0] == 200 and "predicates" in json.dumps(
                    second[2]
                )

    def test_http10_closes_unless_keep_alive_and_close_closes(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/healthz", "HTTP/1.0"))
                assert read_response(reader)[0] == 200
                assert read_response(reader) is None
            with raw_connection(server) as (sock, reader):
                kept = raw_get(
                    "/healthz", "HTTP/1.0", "Connection: keep-alive"
                )
                sock.sendall(kept + kept)
                assert read_response(reader)[0] == 200
                assert read_response(reader)[0] == 200
            with raw_connection(server) as (sock, reader):
                sock.sendall(
                    raw_get("/healthz", "HTTP/1.1", "Connection: close")
                )
                assert read_response(reader)[0] == 200
                assert read_response(reader) is None

    def test_expect_100_continue_before_the_body(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_post(
                    b"", f"Content-Length: {len(self.DELTA)}",
                    "Expect: 100-continue",
                ))
                assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert reader.readline() == b"\r\n"
                sock.sendall(self.DELTA)
                status, _, payload = read_response(reader)
                assert (status, payload["epoch"]) == (200, 1)

    def test_header_limits_answer_and_close(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/healthz?x=" + "a" * 65536))
                assert read_response(reader)[0] == 414
                assert read_response(reader) is None
            many = [f"X-Header-{i}: {i}" for i in range(99)]  # + Host: 100
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/healthz", "HTTP/1.1", *many))
                assert read_response(reader)[0] == 200
                sock.sendall(
                    raw_get("/healthz", "HTTP/1.1", *many, "X-Last: 1")
                )
                assert read_response(reader)[0] == 431
                assert read_response(reader) is None

    def test_other_methods_are_501(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(b"PUT /delta HTTP/1.1\r\nHost: test\r\n\r\n")
                assert read_response(reader)[0] == 501

    def test_leading_double_slash_is_one_slash(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("//healthz"))
                assert read_response(reader)[0] == 200

    def test_a_handler_that_raises_is_500_and_the_connection_serves(
        self, monkeypatch
    ):
        handlers = ServiceHandlers(make_state())
        real = handlers.handle

        def handle(method, path, params, body=None):
            if path == "/boom":
                raise RuntimeError("boom")
            return real(method, path, params, body)

        monkeypatch.setattr(handlers, "handle", handle)
        with build_server(handlers) as server:
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/boom"))
                status, _, payload = read_response(reader)
                assert status == 500 and "boom" in payload["error"]
                sock.sendall(raw_get("/healthz"))
                assert read_response(reader)[0] == 200
        counters = handlers.metrics.snapshot()["counters"]
        assert counters["serve.status.500"] == 1

    def test_negative_content_length_is_400_and_closes(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server, timeout=2) as (sock, reader):
                sock.sendall(raw_post(b"{}", "Content-Length: -1"))
                assert read_response(reader)[0] == 400
                assert read_response(reader) is None

    @pytest.mark.parametrize("lengths", [
        ("abc",), ("5, 5",), ("2", "2"),
    ])
    def test_a_content_length_that_is_not_one_integer_is_400(self, lengths):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server, timeout=2) as (sock, reader):
                sock.sendall(raw_post(
                    b"{}", *(f"Content-Length: {n}" for n in lengths)
                ))
                assert read_response(reader)[0] == 400
                assert read_response(reader) is None

    def test_a_chunked_body_is_501_and_closes(self):
        with build_server(ServiceHandlers(make_state())) as server:
            with raw_connection(server, timeout=2) as (sock, reader):
                sock.sendall(raw_post(
                    b"2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding: chunked"
                ))
                assert read_response(reader)[0] == 501
                assert read_response(reader) is None

    def test_refusals_are_counted_in_stats(self, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_MAX_BODY", 64)
        with build_server(ServiceHandlers(make_state())) as server:
            for request in (
                raw_post(b"x" * 100, "Content-Length: 100"),
                raw_post(b"{not json", "Content-Length: 9"),
                b"PUT /delta HTTP/1.1\r\nHost: test\r\n\r\n",
            ):
                with raw_connection(server) as (sock, reader):
                    sock.sendall(request)
                    read_response(reader)
            with raw_connection(server) as (sock, reader):
                sock.sendall(raw_get("/stats"))
                counters = read_response(reader)[2]["metrics"]["counters"]
        assert counters["serve.requests.refused"] == 3
        for status in (413, 400, 501):
            assert counters[f"serve.status.{status}"] == 1

    def test_one_write_per_response_with_nagle_off(self, monkeypatch):
        writes, nodelay = [], set()
        real = socket.socket.sendall

        with build_server(ServiceHandlers(make_state())) as server:
            port = server.address[1]

            def sendall(sock, data, *args):
                if sock.getsockname()[1] == port:  # the server's end
                    writes.append(bytes(data))
                    nodelay.add(sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ))
                return real(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", sendall)
            with raw_connection(server) as (sock, reader):
                sock.sendall(
                    raw_get("/healthz") + raw_get("/query?q=tc(X,Y)?")
                )
                sock.sendall(raw_post(
                    self.DELTA, f"Content-Length: {len(self.DELTA)}"
                ))
                sock.sendall(raw_post(b"{not json", "Content-Length: 9"))
                statuses = [read_response(reader)[0] for _ in range(4)]
        assert statuses == [200, 200, 200, 400]
        assert len(writes) == 4, [w[:20] for w in writes]
        assert all(w.startswith(b"HTTP/1.1 ") for w in writes)
        assert nodelay == {1}


class TestDeltaValidation:
    def post_delta(self, handlers, body):
        return handlers.handle("POST", "/delta", {}, body)

    def test_arity_mismatch_is_structured_400(self):
        handlers = ServiceHandlers(make_state())
        status, payload = self.post_delta(
            handlers, {"added": {"e": [["a", "b", "c"]]}}
        )
        assert status == 400
        assert payload["kind"] == "arity_mismatch"
        assert payload["predicate"] == "e"
        assert (payload["expected"], payload["got"]) == (2, 3)

    def test_arity_checked_on_removals_too(self):
        handlers = ServiceHandlers(make_state())
        status, payload = self.post_delta(
            handlers, {"removed": {"e": [["a"]]}}
        )
        assert status == 400
        assert payload["kind"] == "arity_mismatch"

    def test_new_predicate_sets_its_own_arity(self):
        handlers = ServiceHandlers(make_state())
        status, _ = self.post_delta(
            handlers, {"added": {"brand_new": [["a", "b", "c"]]}}
        )
        assert status == 200

    def test_derived_predicate_rejected_with_kind(self):
        handlers = ServiceHandlers(make_state())
        status, payload = self.post_delta(
            handlers, {"added": {"tc": [["a", "b"]]}}
        )
        assert status == 400
        assert payload["kind"] == "derived_predicate"
        assert payload["predicate"] == "tc"

    def test_non_scalar_values_rejected(self):
        handlers = ServiceHandlers(make_state())
        status, payload = self.post_delta(
            handlers, {"added": {"e": [["a", {"x": 1}]]}}
        )
        assert status == 400

    def test_rejected_delta_leaves_state_untouched(self):
        handlers = ServiceHandlers(make_state())
        before = handlers.state.snapshot.epoch
        self.post_delta(handlers, {"added": {"e": [["a", "b", "c"]]}})
        assert handlers.state.snapshot.epoch == before

    def test_refused_delta_leaks_nothing_into_the_next_epoch(self):
        """A delta the chase refuses part-way publishes nothing, and the
        next epoch equals a from-scratch run over the EDB it names."""
        state = ServeState(TONUMBER, {"p": [("1",)]})
        before = state.snapshot
        with pytest.raises(EvaluationError, match="tonumber"):
            state.apply_delta(added={"p": [("abc",), ("5",)]})
        assert state.snapshot is before
        state.apply_delta(added={"p": [("2",)]})
        fresh = ServeState(TONUMBER, {"p": [("1",), ("2",)]}).snapshot
        snap = state.snapshot
        assert snap.epoch == 1
        assert as_sets(snap.facts) == as_sets(fresh.facts)
        assert as_sets(snap.edb) == as_sets(fresh.edb) == {
            "p": {("1",), ("2",)}
        }

    def test_refused_delta_is_a_400_over_the_handlers(self):
        handlers = ServiceHandlers(ServeState(TONUMBER, {"p": [("1",)]}))
        status, payload = self.post_delta(
            handlers, {"added": {"p": [["abc"], ["5"]]}}
        )
        assert status == 400 and "tonumber" in payload["error"]
        assert handlers.state.snapshot.epoch == 0
        status, payload = self.post_delta(handlers, {"added": {"p": [["2"]]}})
        assert (status, payload["epoch"]) == (200, 1)
        for mode in ("snapshot", "magic", "full"):
            status, payload = get(handlers, "/query", q="q(X, Y)?", engine=mode)
            assert status == 200, (mode, payload)
            assert sorted(payload["answers"]) == [["1", 1.0], ["2", 2.0]], mode


# ---------------------------------------------------------------------------
# One frozen EDB per epoch: requests read it in place and never write it
# ---------------------------------------------------------------------------


def registry_inputs(companies, seed=7):
    """``kgmodel serve --demo-companies``'s registry (its program is
    ``CONTROL``): the company ids and the extensional facts."""
    from repro.cli import demo_serve_inputs

    program, inputs = demo_serve_inputs(companies, seed)
    assert program.split() == CONTROL.split()
    return [c for (c,) in inputs["company"]], inputs


def control_state(inputs, use_plans):
    return ServeState(
        CONTROL, inputs, engine=CHASE_OF[use_plans, True]()
    )


def ask(handlers, subject, engine):
    status, payload = get(
        handlers, "/query", q=f'controls("{subject}", B)?', engine=engine
    )
    assert status == 200, payload
    return payload


def frozen_rows(snap):
    return {
        predicate: (sorted(relation, key=repr), len(relation),
                    getattr(relation, "_version", None))
        for predicate, relation in snap.edb.items()
    }


def cache_keys(snap):
    """Key sets of every lazy index a query may build on an epoch."""
    keys = {
        predicate: (set(relation._indexes), set(relation._composite))
        for predicate, relation in snap.edb.items()
    }
    for predicate, block in snap.facts.items():
        if hasattr(block, "_index"):
            keys["block:" + predicate] = set(block._index)
    return keys


def built_indexes(snap):
    """``(label, shape) -> (view, index)`` for every index built on (or
    carried to) an epoch's column blocks and frozen relations."""
    found = {}
    for predicate, block in snap.facts.items():
        for position, index in list(getattr(block, "_index", {}).items()):
            found["block:" + predicate, (position,)] = (block, index)
    for predicate, relation in snap.edb.items():
        for position, index in list(relation._indexes.items()):
            found["edb:" + predicate, (position,)] = (relation, index)
        for positions, index in list(relation._composite.items()):
            found["edb:" + predicate, positions] = (relation, index)
    return found


#: The retained state kept by the compiled plans or by the interpreter.
CHASES = pytest.mark.parametrize("use_plans", [True, False])


class TestFrozenEdb:
    @CHASES
    def test_a_warm_query_touches_nothing_the_size_of_the_model(
        self, use_plans, monkeypatch
    ):
        from repro.vadalog.columnar import ColumnarRelation

        companies, inputs = registry_inputs(500)
        state = control_state(inputs, use_plans)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        warm, subject = companies[3], companies[11]
        for engine in ("magic", "snapshot"):
            ask(handlers, warm, engine)
        snap = state.snapshot
        built = cache_keys(snap)

        calls = []
        for name in ("add_many", "add_columns", "copy"):
            def counted(self, *args, _real=getattr(ColumnarRelation, name), _name=name):
                result = _real(self, *args)
                calls.append((_name, self.name, len(self)))
                return result
            monkeypatch.setattr(ColumnarRelation, name, counted)
        magic = ask(handlers, subject, "magic")
        snapshot = ask(handlers, subject, "snapshot")
        assert magic["answers"] == snapshot["answers"]
        assert magic["answer_count"] >= 1
        assert all(rows <= magic["answer_count"] for _, _, rows in calls), calls
        assert state.snapshot is snap
        assert cache_keys(snap) == built

    @CHASES
    def test_queries_leave_the_epoch_as_it_was(self, use_plans):
        from repro.errors import EvaluationError

        program = (
            TC + '\ne("k", "a").\nlabel("a", "start").\n'
            "tc(X, Y), label(X, L) -> named(L, Y)."
        )
        edges = [(f"n{i}", f"n{i + 1}") for i in range(30)] + [("a", "n0")]
        state = ServeState(
            program,
            # e has a fact rule besides its supplied facts, and tc is
            # supplied facts although rules derive it (mixed EDB/IDB).
            {"e": edges, "tc": [("z", "w")], "label": [("n3", "mid")]},
            check_wardedness=False, engine=CHASE_OF[use_plans, True](),
        )
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        snap = state.snapshot
        assert set(snap.edb["tc"]) == {("z", "w")}
        assert ("k", "a") in snap.edb["e"] and len(snap.edb["e"]) == 32
        before = frozen_rows(snap)
        texts = (
            ['tc("n%d", Y)?' % i for i in range(30)]
            + ['tc(X, "n%d")?' % i for i in range(30)]
            + ['tc("ghost%d", Y)?' % i for i in range(20)]  # absent constants
            + ['e("n%d", Y)?' % i for i in range(10)]  # extensional-ish
            + ['label(X, "mid")?', 'label("a", L)?', 'named("start", Y)?',
               'named(L, "n9")?', 'tc("z", Y)?', 'tc("k", Y)?',
               "tc(X, X)?", 'tc("n1", 1.5)?', "tc(true, Y)?", 'e("k", Y)?']
        )
        for text in texts * 2:  # 200 queries
            status, magic = get(handlers, "/query", q=text, engine="magic")
            assert status == 200
            full = get(handlers, "/query", q=text, engine="full")[1]
            assert magic["answers"] == full["answers"], text
        assert get(handlers, "/query", q='tc("k", Y)?')[1]["answer_count"] == 32
        assert get(handlers, "/query", q="tc(X, Y)?", engine="full")[0] == 200
        assert frozen_rows(snap) == before
        for relation in snap.edb.values():
            with pytest.raises(EvaluationError):
                relation.add(("q", "q"))
            with pytest.raises(EvaluationError):
                relation.remove(next(iter(relation)))
            with pytest.raises(EvaluationError):
                relation.reset([])
            with pytest.raises(EvaluationError):
                relation.compact()
        assert frozen_rows(snap) == before

    @CHASES
    def test_an_old_epoch_answers_as_the_old_epoch(self, use_plans, monkeypatch):
        import copy

        companies, inputs = registry_inputs(120)
        state = control_state(inputs, use_plans)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        held = state.snapshot
        subjects = companies[:25]
        old = {
            (subject, engine): ask(handlers, subject, engine)["answers"]
            for subject in subjects
            for engine in ("magic", "snapshot")
        }
        held_indexes = {
            key: index for key, (_, index) in built_indexes(held).items()
        }
        held_contents = copy.deepcopy(held_indexes)
        held_buckets = {key: dict(index) for key, index in held_indexes.items()}
        assert ("edb:own", (0,)) in held_indexes
        assert ("block:controls", (0,)) in held_indexes
        # A stake that hands companies[0] a company it did not control,
        # then the removal of original stakes (tombstones in place).
        target = next(
            c for c in companies[1:]
            if [companies[0], c] not in old[companies[0], "snapshot"]
        )
        state.apply_delta(added={"own": [(companies[0], target, 0.9)]})
        state.apply_delta(removed={"own": inputs["own"][:40]})
        assert state.snapshot.epoch == 2
        new = ask(handlers, companies[0], "magic")
        assert new["answers"] == ask(handlers, companies[0], "snapshot")["answers"]
        assert new["answers"] != old[companies[0], "magic"]
        # Later epochs take the held epoch's indexes along and patch
        # them (re-added stakes, new rows under old keys) copy-on-write.
        for i, fact in enumerate(inputs["own"][:8]):
            state.apply_delta(
                added={"own": [fact, (companies[i % 3], companies[30 + i], 0.7)]}
            )
            for engine in ("magic", "snapshot"):
                ask(handlers, companies[i % 3], engine)
        assert state.snapshot.epoch == 10
        monkeypatch.setattr(
            ServeState, "snapshot", property(lambda self: held)
        )
        for (subject, engine), answers in old.items():
            payload = ask(handlers, subject, engine)
            assert payload["epoch"] == 0
            assert payload["answers"] == answers, (subject, engine)
        # The held epoch's index objects are the ones it had, unchanged.
        now = built_indexes(held)
        for key, index in held_indexes.items():
            assert now[key][1] is index and index == held_contents[key], key
            assert all(index[k] is b for k, b in held_buckets[key].items())

    def test_truncated_answers_are_not_cached(self):
        handlers = ServiceHandlers(make_state())
        for _ in range(2):
            status, payload = get(
                handlers, "/query", q="tc(X, Y)?", engine="full", max_facts=1
            )
            assert status == 503
            assert not payload["cached"]  # computed again, not replayed
        # A complete answer still round-trips through the cache.
        _, first = get(handlers, "/query", q="tc(X, Y)?", engine="full")
        status, second = get(handlers, "/query", q="tc(X, Y)?", engine="full")
        assert status == 200
        assert not first["cached"] and second["cached"]
        assert second["answers"] == first["answers"]

    def test_unknown_paths_share_one_metric_name(self):
        handlers = ServiceHandlers(make_state())
        for i in range(3):
            assert get(handlers, f"/nope{i}")[0] == 404
        assert handlers.handle("POST", "/nope/deeper", {}, {})[0] == 404
        get(handlers, "/healthz")
        metrics = get(handlers, "/stats")[1]["metrics"]
        requests = {
            name: value for name, value in metrics["counters"].items()
            if name.startswith("serve.requests.")
        }
        assert requests == {
            "serve.requests.unknown": 4, "serve.requests.healthz": 1,
        }
        assert [
            name for name in metrics["histograms"]
            if name.startswith("serve.latency_ms.")
        ] == ["serve.latency_ms.healthz", "serve.latency_ms.unknown"]

    def test_interner_size_is_published_per_epoch(self):
        state = make_state()
        handlers = ServiceHandlers(state)
        at_zero = state.metrics.snapshot()["counters"]["serve.interner_codes"]
        assert at_zero >= 5  # a, b, c, x, y
        # A never-seen query constant is interned for good (one code)...
        get(handlers, "/query", q='tc("ghost", Y)?', engine="magic")
        state.apply_delta(added={"e": [("c", "d")]})
        counters = get(handlers, "/stats")[1]["metrics"]["counters"]
        # ...and the next epoch's gauge shows it beside the delta's "d".
        assert counters["serve.interner_codes"] >= at_zero + 2

    def test_both_engines_agree_under_a_racing_writer(self):
        """Six readers mixing snapshot and magic queries (never-seen
        constants among them) against 40 add/remove deltas: every
        (subject, epoch) is answered identically by both engines, and
        the final model is the worklist baseline's."""
        import random
        import sys

        from repro.finkg.control import control_pairs

        companies, inputs = registry_inputs(400, seed=11)
        state = control_state(inputs, True)
        handlers = ServiceHandlers(state, cache=ResultCache(64))
        live = set(inputs["own"])
        rng = random.Random(5)
        subjects = rng.sample(companies, 40) + ["ghost-a", "ghost-b"]
        answers = {}  # (subject, epoch) -> answers, whichever engine first
        errors = []
        stop = threading.Event()

        def reader(index):
            draw = random.Random(index)
            count = 0
            while not stop.is_set() or count < 20:
                subject = draw.choice(subjects)
                if draw.random() < 0.05:
                    subject = f"ghost-{index}-{count}"
                engine = ("snapshot", "magic")[draw.randrange(2)]
                status, payload = handlers.handle(
                    "GET", "/query",
                    {"q": f'controls("{subject}", B)?', "engine": engine},
                )
                if status != 200:
                    errors.append((subject, engine, status, payload))
                    return
                key = (subject, payload["epoch"])
                seen = answers.setdefault(key, payload["answers"])
                if seen != payload["answers"]:
                    errors.append((key, engine, seen, payload["answers"]))
                    return
                count += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(i,), daemon=True)
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            added = []
            for i in range(40):
                if i % 4 == 3:
                    fact = added.pop(0) if i % 8 == 3 else rng.choice(sorted(live))
                    live.discard(fact)
                    body = {"removed": {"own": [list(fact)]}}
                else:
                    owner, target = rng.sample(companies, 2)
                    fact = (owner, target, 0.5 + (i % 40) / 100.0)
                    added.append(fact)
                    live.add(fact)
                    body = {"added": {"own": [list(fact)]}}
                assert handlers.handle("POST", "/delta", {}, body)[0] == 200
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [], errors[:2]
        assert len({epoch for _, epoch in answers}) >= 3
        members = set(companies)
        expected = control_pairs(
            [s for s in live if s[0] in members and s[1] in members]
        )
        final = {f for f in state.snapshot.facts["controls"] if f[0] != f[1]}
        assert final == expected


# ---------------------------------------------------------------------------
# Indexes carried from one epoch's frozen views to the next
# ---------------------------------------------------------------------------


def index_from_scratch(view, shape):
    """``bucket_index`` over the view's own rows and live mask (called
    directly: the views' build hooks count only what readers build)."""
    from repro.vadalog.columnar import bucket_index

    if hasattr(view, "carry_indexes"):
        nrows = view._nrows
        live = bytes(view._live) if view._ndead else None
    else:
        nrows, live = view._nrows, view._live
    return bucket_index(
        [view._cols[p][:nrows] for p in shape], live,
        view._interner.eq_array(), tuple_keys=len(shape) > 1,
    )


def live_part(view, index):
    live = view._live
    kept = {
        key: [r for r in rows if live is None or live[r]]
        for key, rows in index.items()
    }
    return {key: rows for key, rows in kept.items() if rows}


def index_counters(state):
    counters = state.metrics.snapshot()["counters"]
    return (
        counters.get("serve.index_built", 0),
        counters.get("serve.index_carried", 0),
    )


class TestEpochIndexes:
    COMPANIES = 5000  # past 4096 rows: the vectorized build is the one used

    def test_chained_epochs_answer_as_indexes_built_from_scratch(self, seed=0):
        """≥50 deltas of every kind that touches a frozen view — adds,
        removals, remove-then-re-add, a compaction, facts supplied for a
        derived predicate: after each
        epoch every carried index is, on live rows, the one built from
        scratch, ``matching`` is the scan, and magic ≡ snapshot ≡ the
        tuple backend."""
        import random

        rng = random.Random(seed)
        companies, inputs = registry_inputs(self.COMPANIES)
        supplied = [(companies[5], companies[6]), (companies[7], companies[8])]
        inputs = dict(inputs, controls=supplied[:1])
        state = control_state(inputs, True)
        oracle = control_state(inputs, False)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        live_own = list(inputs["own"])
        removed, breaks = [], 0
        kinds = ["add"] * 4 + ["remove"] * 3 + ["readd"] * 2 + [
            "compact", "supplied",
        ]
        for step in range(56):
            kind = kinds[step] if step < len(kinds) else rng.choice(kinds)
            added, gone = {}, {}
            database = state._result.database
            if kind == "remove" or (kind == "readd" and not removed):
                fact = live_own.pop(rng.randrange(len(live_own)))
                removed.append(fact)
                gone = {"own": [fact]}
            elif kind == "readd":
                fact = removed.pop()
                live_own.append(fact)
                added = {"own": [fact]}
            elif kind == "supplied":
                fact = supplied[1]
                if fact in oracle.snapshot.edb["controls"]:
                    gone = {"controls": [fact]}
                else:
                    added = {"controls": [fact]}
            else:
                if kind == "compact":
                    breaks += bool(database.relation("own").dead_rows)
                    database.compact()
                stakes = [
                    (rng.choice(companies), rng.choice(companies),
                     round(rng.uniform(0.2, 0.95), 3))
                    for _ in range(rng.randrange(1, 4))
                ]
                live_own.extend(stakes)
                added = {"own": stakes}
            for target in (state, oracle):
                target.apply_delta(added=added or None, removed=gone or None)
            snap = state.snapshot
            assert snap.epoch == step + 1 == oracle.snapshot.epoch

            subjects = [f[0] for facts in (added, gone) for f in facts.get("own", ())]
            subjects += [companies[5], companies[7], rng.choice(companies)]
            for subject in subjects:
                answers = ask(handlers, subject, "snapshot")["answers"]
                assert answers == ask(handlers, subject, "magic")["answers"]
                assert sorted(map(tuple, answers)) == sorted(
                    f for f in oracle.snapshot.facts["controls"]
                    if f[0] == subject
                )
            for label in ("controls", "own"):
                block, subject = snap.facts[label], subjects[0]
                assert sorted(
                    f for f in block.matching([(0, subject)]) if f[0] == subject
                ) == sorted(f for f in block if f[0] == subject)
            if step % 14 == 0:
                assert set(snap.facts["controls"]) == oracle.snapshot.facts["controls"]
                assert set(snap.edb["own"]) == set(oracle.snapshot.edb["own"])
            found = built_indexes(snap)
            assert ("block:controls", (0,)) in found
            assert ("edb:own", (0,)) in found
            for (label, shape), (view, index) in found.items():
                assert live_part(view, index) == index_from_scratch(
                    view, shape
                ), (step, kind, label, shape)
        built, carried = index_counters(state)
        assert carried >= 100
        # Every break of the chain was paid for by a first reader, once.
        assert breaks >= 2 and built >= breaks

    def test_an_epoch_re_indexes_nothing_it_did_not_change(self, monkeypatch):
        """After one warm query per engine (and the writer's first add
        and removal, which index its *live* relations, maintained in
        place from then on), 20 deltas with queries in between build no
        index over anything the size of the model: the counters say so,
        and so do the build functions themselves."""
        from repro.serve import state as serve_state
        from repro.vadalog import columnar

        companies, inputs = registry_inputs(self.COMPANIES)
        state = control_state(inputs, True)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        state.apply_delta(added={"own": [(companies[1], companies[2], 0.9)]})
        state.apply_delta(removed={"own": [inputs["own"][0]]})
        for engine in ("magic", "snapshot"):
            ask(handlers, companies[3], engine)
        builds = []

        def counted_bucket_index(cols, *args, _real=columnar.bucket_index, **kw):
            builds.append(("bucket_index", len(cols[0])))
            return _real(cols, *args, **kw)

        def counted_build(self, *args, _real=columnar.ColumnarRelation._build_index, **kw):
            builds.append((self.name, self._nrows))
            return _real(self, *args, **kw)

        monkeypatch.setattr(columnar, "bucket_index", counted_bucket_index)
        monkeypatch.setattr(serve_state, "bucket_index", counted_bucket_index)
        monkeypatch.setattr(columnar.ColumnarRelation, "_build_index", counted_build)
        built, carried = index_counters(state)
        own = inputs["own"]
        for i in range(20):
            if i % 4 == 3:
                state.apply_delta(removed={"own": [own[i]]})
            else:
                state.apply_delta(added={
                    "own": [(companies[10 + i], companies[40 + i], 0.8)]
                })
            magic = ask(handlers, companies[10 + i], "magic")
            assert magic["answers"] == ask(
                handlers, companies[10 + i], "snapshot"
            )["answers"]
            assert magic["epoch"] == i + 3
        assert [b for b in builds if b[1] >= 1000] == []
        after_built, after_carried = index_counters(state)
        assert after_built == built
        # ``own``'s frozen copy every epoch, ``controls``' block in those
        # that changed it (an unchanged block is the same object).
        assert after_carried >= carried + 20
        counters = get(handlers, "/stats")[1]["metrics"]["counters"]
        assert counters["serve.index_carried"] == after_carried
        assert counters["serve.index_built"] == after_built

    def test_a_compaction_is_one_rebuild_and_is_counted(self):
        companies, inputs = registry_inputs(300)
        state = control_state(inputs, True)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        subject = companies[4]
        state.apply_delta(removed={"own": inputs["own"][:5]})
        for engine in ("magic", "snapshot"):
            ask(handlers, subject, engine)
        built, _ = index_counters(state)
        state._result.database.compact()
        state.apply_delta(added={"own": [(subject, companies[9], 0.7)]})
        assert built_indexes(state.snapshot) == {}  # renumbered: no carry
        for _ in range(3):
            for engine in ("magic", "snapshot"):
                ask(handlers, subject, engine)
        rebuilt, _ = index_counters(state)
        assert rebuilt == built + len(built_indexes(state.snapshot)) > built
        state.apply_delta(added={"own": [(subject, companies[11], 0.7)]})
        for engine in ("magic", "snapshot"):
            ask(handlers, subject, engine)
        assert index_counters(state)[0] == rebuilt  # the chain holds again

    def test_supplied_facts_for_a_derived_predicate_never_carry(self):
        companies, inputs = registry_inputs(200)
        inputs = dict(inputs, controls=[(companies[1], companies[2])])
        state = control_state(inputs, True)
        list(state.snapshot.edb["controls"].lookup([(0, companies[1])]))
        assert ("edb:controls", (0,)) in built_indexes(state.snapshot)
        state.apply_delta(added={"controls": [(companies[1], companies[3])]})
        # ``reset`` into the copy renumbers: its first reader builds.
        assert ("edb:controls", (0,)) not in built_indexes(state.snapshot)
        assert sorted(
            state.snapshot.edb["controls"].lookup([(0, companies[1])])
        ) == [(companies[1], companies[2]), (companies[1], companies[3])]

    @pytest.mark.parametrize("seed", range(3))
    @CHASES
    def test_traversals_answer_as_the_whole_predicate_scan_did(
        self, use_plans, seed
    ):
        """/neighborhood and /path probe per frontier node; the payloads
        are, byte for byte, those of the adjacency dicts they used to
        build from a scan of the whole predicate."""
        import random

        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(60)]
        edges = sorted({
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(150)
        })
        state = ServeState(
            TC, {"e": edges}, check_wardedness=False,
            engine=CHASE_OF[use_plans, True](),
        )
        handlers = ServiceHandlers(state)
        gone = rng.sample(edges, 10)
        state.apply_delta(removed={"e": gone})
        state.apply_delta(added={"e": gone[:4] + [("n1", "zz")]})

        def adjacency(predicate):
            forward, backward = {}, {}
            for fact in state.snapshot.facts[predicate]:
                forward.setdefault(fact[0], []).append(fact[1])
                backward.setdefault(fact[1], []).append(fact[0])
            return forward, backward

        def scanned_neighborhood(predicate, node, depth, direction):
            forward, backward = adjacency(predicate)
            layers, seen, found = [[node]], {node}, []
            for _ in range(depth):
                frontier = []
                for current in layers[-1]:
                    neighbors = []
                    if direction in ("out", "both"):
                        neighbors += forward.get(current, ())
                    if direction in ("in", "both"):
                        neighbors += backward.get(current, ())
                    for neighbor in neighbors:
                        found.append([current, neighbor])
                        if neighbor not in seen:
                            seen.add(neighbor)
                            frontier.append(neighbor)
                if not frontier:
                    break
                layers.append(frontier)
            return layers, found, len(seen)

        def scanned_path(source, target):
            forward, _ = adjacency("e")
            parents, frontier = {source: None}, [source]
            while frontier and target not in parents:
                reached = []
                for current in frontier:
                    for neighbor in forward.get(current, ()):
                        if neighbor not in parents:
                            parents[neighbor] = current
                            reached.append(neighbor)
                            if neighbor == target:
                                break
                    if target in parents:
                        break
                frontier = reached
            if target not in parents:
                return None
            path = [target]
            while path[-1] != source:
                path.append(parents[path[-1]])
            return path[::-1]

        for node in rng.sample(nodes, 12) + ["zz", "ghost"]:
            for direction in ("out", "in", "both"):
                for predicate, depth in (("e", 3), ("tc", 1)):
                    status, payload = get(
                        handlers, "/neighborhood", node=node,
                        predicate=predicate, depth=depth, direction=direction,
                    )
                    assert status == 200
                    assert json.dumps(
                        [payload["layers"], payload["edges"], payload["visited"]]
                    ) == json.dumps(list(
                        scanned_neighborhood(predicate, node, depth, direction)
                    )), (node, direction, predicate)
            other = rng.choice(nodes)
            status, payload = get(
                handlers, "/path", **{"from": node, "to": other, "predicate": "e"}
            )
            assert status == 200
            assert payload["path"] == scanned_path(node, other), (node, other)


# ---------------------------------------------------------------------------
# The writer compacts the retained database
# ---------------------------------------------------------------------------


class TestRetainedCompaction:
    def test_churn_keeps_dead_rows_below_live_rows(self):
        """One-stake add + remove cycles leave tombstones behind: the
        writer compacts once they outnumber the live rows.  Every epoch
        answers as a from-scratch run; an epoch published before a
        compaction answers as it did, and the next reader of the
        compacted epoch builds its index (``serve.index_built``)."""
        companies, inputs = registry_inputs(50, seed=42)
        program = parse_program(CONTROL)
        state = ServeState(CONTROL, inputs)
        handlers = ServiceHandlers(state, cache=ResultCache(0))
        own = set(map(tuple, inputs["own"]))
        compactions = 0
        for i in range(150):
            stake = (companies[i % 50], companies[(i * 7 + 3) % 50], 0.9)
            if stake in own or stake[0] == stake[1]:
                continue
            for added in (True, False):
                held = state.snapshot
                ask(handlers, stake[0], "snapshot")  # indexes ``held``
                held_facts = set(held.facts["controls"])
                dead = state.store_rows()["dead_rows"]
                state.apply_delta(**{"added" if added else "removed": {"own": [stake]}})
                rows = state.store_rows()
                assert rows["dead_rows"] <= rows["live_rows"], (i, rows)
                fresh = Engine().run(program, inputs={
                    **inputs, "own": sorted(own | ({stake} if added else set()))})
                assert set(state.snapshot.facts["controls"]) == fresh.facts("controls")
                if rows["dead_rows"] >= dead:
                    continue
                compactions += 1
                assert set(held.facts["controls"]) == held_facts
                assert ("block:controls", (0,)) in built_indexes(held)
                assert ("block:controls", (0,)) not in built_indexes(state.snapshot)
                built, _ = index_counters(state)
                now = ask(handlers, stake[0], "snapshot")
                assert index_counters(state)[0] > built
                assert now["answers"] == ask(handlers, stake[0], "magic")["answers"]
        assert compactions
