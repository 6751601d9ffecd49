"""Endpoint logic for `kgmodel serve`, independent of the HTTP plumbing.

Every handler works against exactly one :class:`StateSnapshot`, grabbed
once at the top of the request — the epoch it reports is therefore
guaranteed consistent with every fact in the response.  Handlers return
``(status, payload)`` pairs; :mod:`repro.serve.server` turns them into
HTTP responses, and the tests drive them directly without sockets.

Resource budgets: engine-backed queries run under a per-request
:class:`~repro.obs.governor.ResourceGovernor` (graceful mode), and graph
traversals count visited nodes against ``max_visited``.  A tripped
budget yields ``503`` with the partial result and its stats, mirroring
the CLI's exit-3 convention for truncated runs.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import KGModelError, ResourceLimitError
from repro.obs.governor import ResourceGovernor
from repro.serve.cache import ResultCache
from repro.serve.state import ServeState, StateSnapshot
from repro.vadalog.magic import parse_query
from repro.vadalog.terms import Null, SkolemValue, fact_sort_key, is_variable

__all__ = ["RequestError", "ServiceHandlers", "encode_value", "encode_fact"]

_ENGINE_MODES = ("snapshot", "magic", "full")

#: The paths ``_dispatch`` routes.  Any other is counted as ``unknown``:
#: a raw path would mint a counter and a histogram per distinct URL.
_ROUTED = frozenset(
    "/healthz /schema /stats /query /neighborhood /path /delta".split()
)


class RequestError(Exception):
    """A client error with an HTTP status.

    ``details`` (machine-readable fields — e.g. which predicate failed
    an arity check, and why) are merged into the JSON error payload next
    to the human-readable ``error`` message.
    """

    def __init__(self, status: int, message: str, **details: Any):
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details


def encode_value(value: Any) -> Any:
    """JSON-encode one fact value; nulls and Skolem values get tagged
    objects so distinct invented values stay distinguishable."""
    if isinstance(value, Null):
        return {"$null": f"{value.label}#{value.ordinal}"}
    if isinstance(value, SkolemValue):
        return {
            "$skolem": value.functor,
            "args": [encode_value(a) for a in value.arguments],
        }
    return value


def encode_fact(fact: Tuple[Any, ...]) -> List[Any]:
    return [encode_value(v) for v in fact]


def _decode_facts(payload: Any, what: str) -> Dict[str, List[Tuple[Any, ...]]]:
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise RequestError(400, f"{what} must be an object of fact lists")
    out: Dict[str, List[Tuple[Any, ...]]] = {}
    for predicate, facts in payload.items():
        if not isinstance(facts, list):
            raise RequestError(400, f"{what}[{predicate!r}] must be a list")
        rows: List[Tuple[Any, ...]] = []
        for fact in facts:
            if not isinstance(fact, (list, tuple)):
                raise RequestError(
                    400, f"{what}[{predicate!r}] entries must be arrays"
                )
            if any(isinstance(v, (dict, list)) for v in fact):
                raise RequestError(
                    400,
                    f"{what}[{predicate!r}] values must be scalars "
                    "(derived values cannot be asserted)",
                )
            rows.append(tuple(fact))
        out[predicate] = rows
    return out


def _int_param(params: Mapping[str, str], name: str, default: int,
               minimum: int = 0, maximum: Optional[int] = None) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise RequestError(400, f"{name} must be an integer") from None
    if value < minimum or (maximum is not None and value > maximum):
        raise RequestError(400, f"{name} out of range")
    return value


def _float_param(params: Mapping[str, str], name: str,
                 default: Optional[float]) -> Optional[float]:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise RequestError(400, f"{name} must be a number") from None


class ServiceHandlers:
    """Routes requests over one :class:`ServeState`."""

    def __init__(
        self,
        state: ServeState,
        *,
        cache: Optional[ResultCache] = None,
        readonly: bool = False,
        default_budget_ms: Optional[float] = None,
        default_max_facts: Optional[int] = None,
        max_visited: int = 100_000,
        max_answers: int = 10_000,
        tracer=None,
        stream=None,
    ):
        self.state = state
        #: Optional attached DeltaStream; surfaces under GET /stats.
        self.stream = stream
        self.metrics = state.metrics
        self.cache = cache if cache is not None else ResultCache()
        self.readonly = readonly
        self.default_budget_ms = default_budget_ms
        self.default_max_facts = default_max_facts
        self.max_visited = max_visited
        self.max_answers = max_answers
        self.tracer = tracer
        self.started_at = time.time()
        state.subscribe(self.cache.on_epoch)

    # -- dispatch -----------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: Mapping[str, str],
        body: Any = None,
    ) -> Tuple[int, Dict[str, Any]]:
        route = (method.upper(), path.rstrip("/") or "/")
        start = time.perf_counter()
        endpoint = route[1][1:] if route[1] in _ROUTED else "unknown"
        span = (
            self.tracer.span("serve.request", method=route[0], path=path)
            if self.tracer is not None
            else None
        )
        try:
            status, payload = self._dispatch(route, params, body)
        except RequestError as exc:
            status, payload = exc.status, {"error": exc.message, **exc.details}
        except KGModelError as exc:
            status, payload = 400, {"error": str(exc)}
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.inc(f"serve.requests.{endpoint}")
            self.metrics.observe(f"serve.latency_ms.{endpoint}", elapsed_ms)
            if span is not None:
                span.set(endpoint=endpoint)
                span.__exit__(None, None, None)
        self.metrics.inc(f"serve.status.{status}")
        return status, payload

    def _dispatch(self, route, params, body):
        method, path = route
        if method == "GET":
            if path == "/healthz":
                return self.healthz()
            if path == "/schema":
                return self.schema()
            if path == "/stats":
                return self.stats()
            if path == "/query":
                return self.query(params)
            if path == "/neighborhood":
                return self.neighborhood(params)
            if path == "/path":
                return self.path_query(params)
            raise RequestError(404, f"unknown endpoint {path}")
        if method == "POST":
            if path == "/delta":
                return self.delta(body)
            raise RequestError(404, f"unknown endpoint {path}")
        raise RequestError(405, f"method {method} not allowed")

    # -- endpoints ----------------------------------------------------

    def healthz(self):
        snap = self.state.snapshot
        return 200, {"status": "ok", "epoch": snap.epoch}

    def schema(self):
        snap = self.state.snapshot
        idb = self.state.program.idb_predicates()
        predicates = [
            {
                "name": predicate,
                "arity": snap.arity(predicate),
                "facts": snap.count(predicate),
                "derived": predicate in idb,
            }
            for predicate in snap.predicates()
        ]
        return 200, {
            "epoch": snap.epoch,
            "predicates": predicates,
            "rules": len(self.state.program.rules),
            "total_facts": snap.total_facts(),
        }

    def stats(self):
        snap = self.state.snapshot
        payload = {
            "epoch": snap.epoch,
            "uptime_seconds": time.time() - self.started_at,
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "store": self.state.store_rows(),
        }
        if self.stream is not None:
            payload["stream"] = self.stream.stats_summary()
        return 200, payload

    def query(self, params):
        text = params.get("q")
        if not text:
            raise RequestError(400, "missing query parameter q")
        mode = params.get("engine", "snapshot")
        if mode not in _ENGINE_MODES:
            raise RequestError(
                400, f"engine must be one of {', '.join(_ENGINE_MODES)}"
            )
        limit = _int_param(params, "limit", self.max_answers, minimum=1)
        budget_ms = _float_param(params, "budget_ms", self.default_budget_ms)
        max_facts = _int_param(
            params, "max_facts", self.default_max_facts or 0, minimum=0
        ) or None

        snap = self.state.snapshot  # the one atomic read for this request
        cache_key = (text, mode, limit, budget_ms, max_facts)
        cached = self.cache.get(snap.epoch, cache_key)
        if cached is not None:
            self.metrics.inc("serve.cache.hits")
            status, payload = cached
            return status, dict(payload, cached=True)
        self.metrics.inc("serve.cache.misses")

        query = parse_query(text)
        started = time.perf_counter()
        if mode == "snapshot":
            facts = snap.facts.get(query.predicate, frozenset())
            # Column blocks probe an index for the candidates of the
            # bound positions, the reference frozensets are scanned;
            # ``matches`` filters either, so the answers are the scan's.
            probe = getattr(facts, "matching", None)
            if probe is not None:
                facts = probe([
                    (i, t) for i, t in enumerate(query.terms)
                    if not is_variable(t)
                ])
            answers = sorted(
                (fact for fact in facts if query.matches(fact)),
                key=fact_sort_key,
            )
            status, result = 200, {
                "status": "fixpoint",
                "engine_stats": None,
                "answers": answers,
                "mode": "snapshot",
            }
        else:
            status, result = self._engine_query(query, mode, snap,
                                                budget_ms, max_facts)
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        answers = result.pop("answers")
        truncated_by_limit = len(answers) > limit
        payload = {
            "epoch": snap.epoch,
            "query": str(query),
            "engine": mode,
            "status": result["status"],
            "answers": [encode_fact(f) for f in answers[:limit]],
            "answer_count": len(answers),
            "limited": truncated_by_limit,
            "elapsed_ms": elapsed_ms,
            "cached": False,
        }
        if result.get("engine_stats") is not None:
            payload["engine_stats"] = result["engine_stats"]
        if result["status"] != "fixpoint":
            # Not cached: a budget trips on the moment, not the query.
            payload["error"] = "resource budget exceeded; partial result"
            status = 503
        else:
            self.cache.put(snap.epoch, cache_key, (status, payload))
        self.metrics.observe(f"serve.query_ms.{mode}", elapsed_ms)
        return status, payload

    def _engine_query(self, query, mode, snap: StateSnapshot,
                      budget_ms, max_facts):
        governor = None
        if budget_ms is not None or max_facts is not None:
            governor = ResourceGovernor(
                budget_seconds=(budget_ms / 1000.0)
                if budget_ms is not None
                else None,
                max_facts=max_facts,
                graceful=True,
            )
        evaluate = (
            self.state.evaluator.answer
            if mode == "magic"
            else self.state.evaluator.full_answer
        )
        try:
            answer = evaluate(
                query, database=self.state.edb_database(snap),
                governor=governor,
            )
        except ResourceLimitError as exc:  # strict governors only
            raise RequestError(503, str(exc)) from None
        stats = answer.stats
        return 200, {
            "status": answer.status,
            "answers": sorted(answer.facts, key=fact_sort_key),
            "engine_stats": {
                "iterations": stats.iterations,
                "facts_derived": stats.facts_derived,
                "elapsed_seconds": stats.elapsed_seconds,
            },
        }

    # -- graph traversals over a binary projection --------------------

    def _edges(self, snap: StateSnapshot, predicate: str):
        facts = snap.facts.get(predicate)
        if facts is None:
            raise RequestError(404, f"unknown predicate {predicate!r}")
        arity = snap.arity(predicate)
        if arity is not None and arity < 2:
            raise RequestError(
                400, f"predicate {predicate!r} is not at least binary"
            )
        return facts

    @staticmethod
    def _neighbors(facts, position: int, node) -> List[Any]:
        """The other end of every edge of ``facts`` with ``node`` at
        ``position``, in scan order: a column block probes its index (the
        request costs its frontier, not the model), the reference
        frozensets are scanned."""
        probe = getattr(facts, "matching", None)
        edges = facts if probe is None else probe([(position, node)])
        return [fact[1 - position] for fact in edges if fact[position] == node]

    def neighborhood(self, params):
        node = params.get("node")
        predicate = params.get("predicate")
        if not node or not predicate:
            raise RequestError(400, "missing node or predicate parameter")
        depth = _int_param(params, "depth", 1, minimum=1, maximum=16)
        direction = params.get("direction", "out")
        if direction not in ("out", "in", "both"):
            raise RequestError(400, "direction must be out, in or both")
        max_visited = _int_param(
            params, "max_visited", self.max_visited, minimum=1
        )
        snap = self.state.snapshot
        facts = self._edges(snap, predicate)

        layers: List[List[Any]] = [[node]]
        seen = {node}
        edges: List[List[Any]] = []
        truncated = False
        for _ in range(depth):
            frontier: List[Any] = []
            for current in layers[-1]:
                neighbors: List[Any] = []
                if direction in ("out", "both"):
                    neighbors += self._neighbors(facts, 0, current)
                if direction in ("in", "both"):
                    neighbors += self._neighbors(facts, 1, current)
                for neighbor in neighbors:
                    edges.append(
                        [encode_value(current), encode_value(neighbor)]
                    )
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
                        if len(seen) > max_visited:
                            truncated = True
                            break
                if truncated:
                    break
            if truncated or not frontier:
                break
            layers.append(frontier)
        payload = {
            "epoch": snap.epoch,
            "node": node,
            "predicate": predicate,
            "depth": depth,
            "direction": direction,
            "layers": [
                [encode_value(n) for n in layer] for layer in layers
            ],
            "edges": edges,
            "visited": len(seen),
            "truncated": truncated,
        }
        if truncated:
            payload["error"] = "max_visited exceeded; partial neighborhood"
            return 503, payload
        return 200, payload

    def path_query(self, params):
        source = params.get("from")
        target = params.get("to")
        predicate = params.get("predicate")
        if not source or not target or not predicate:
            raise RequestError(400, "missing from, to or predicate parameter")
        max_depth = _int_param(params, "max_depth", 16, minimum=1, maximum=64)
        max_visited = _int_param(
            params, "max_visited", self.max_visited, minimum=1
        )
        snap = self.state.snapshot
        facts = self._edges(snap, predicate)

        parents: Dict[Any, Any] = {source: None}
        frontier = [source]
        found = source == target
        truncated = False
        for _ in range(max_depth):
            if found or truncated or not frontier:
                break
            next_frontier: List[Any] = []
            for current in frontier:
                for neighbor in self._neighbors(facts, 0, current):
                    if neighbor in parents:
                        continue
                    parents[neighbor] = current
                    if len(parents) > max_visited:
                        truncated = True
                        break
                    if neighbor == target:
                        found = True
                        break
                    next_frontier.append(neighbor)
                if found or truncated:
                    break
            frontier = next_frontier
        payload: Dict[str, Any] = {
            "epoch": snap.epoch,
            "from": source,
            "to": target,
            "predicate": predicate,
            "visited": len(parents),
            "truncated": truncated,
        }
        if truncated and not found:
            payload["error"] = "max_visited exceeded; partial search"
            return 503, payload
        if found:
            path = [target]
            while path[-1] != source:
                path.append(parents[path[-1]])
            payload["path"] = [encode_value(n) for n in reversed(path)]
            payload["length"] = len(path) - 1
        else:
            payload["path"] = None
        return 200, payload

    # -- writes -------------------------------------------------------

    def delta(self, body):
        if self.readonly:
            raise RequestError(403, "server is read-only")
        if not isinstance(body, dict):
            raise RequestError(400, "delta body must be a JSON object")
        added = _decode_facts(body.get("added"), "added")
        removed = _decode_facts(body.get("removed"), "removed")
        if not added and not removed:
            raise RequestError(400, "empty delta")
        idb = self.state.program.idb_predicates()
        for predicate in list(added) + list(removed):
            if predicate in idb:
                raise RequestError(
                    400,
                    f"{predicate!r} is derived; deltas may only touch "
                    "extensional predicates",
                    kind="derived_predicate",
                    predicate=predicate,
                )
        snap = self.state.snapshot
        for predicate, rows in list(added.items()) + list(removed.items()):
            arity = snap.arity(predicate)
            if arity is None:
                continue  # a brand-new predicate sets its own arity
            for fact in rows:
                if len(fact) != arity:
                    raise RequestError(
                        400,
                        f"arity mismatch for {predicate!r}: expected "
                        f"{arity}, got {len(fact)}",
                        kind="arity_mismatch",
                        predicate=predicate,
                        expected=arity,
                        got=len(fact),
                    )
        delta = self.state.apply_delta(added=added, removed=removed)
        snap = self.state.snapshot
        return 200, {
            "epoch": snap.epoch,
            "added": {p: len(v) for p, v in delta.added.items()},
            "removed": {p: len(v) for p, v in delta.removed.items()},
            "strata": {
                "skipped": delta.strata_skipped,
                "incremental": delta.strata_incremental,
                "recomputed": delta.strata_recomputed,
            },
            "recompute_reasons": [
                list(entry) for entry in delta.recompute_reasons
            ],
            "elapsed_seconds": delta.elapsed_seconds,
        }
