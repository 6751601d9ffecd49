"""Observability layer: tracer spans, metrics, JSONL export/validation,
the resource governor, and their wiring through the engine and CLI."""

import dataclasses
import io
import json

import pytest

from repro.cli import main
from repro.errors import EvaluationError, ResourceLimitError
from repro.obs import (
    BudgetExceeded,
    Histogram,
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    ResourceGovernor,
    TRACE_SCHEMA_VERSION,
    Tracer,
    profile_summary,
    trace_records,
    validate_trace_file,
    validate_trace_record,
    write_trace,
)
from repro.obs.governor import STATUS_BUDGET_EXCEEDED, STATUS_FIXPOINT
from repro.vadalog import Engine, parse_program


class FakeClock:
    """A manually advanced clock for deterministic timing tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_assigns_parents(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("inner-2"):
                pass
        (outer,) = tracer.find_spans("outer")
        (inner1,) = tracer.find_spans("inner-1")
        (inner2,) = tracer.find_spans("inner-2")
        (leaf,) = tracer.find_spans("leaf")
        assert outer.parent_id is None
        assert inner1.parent_id == outer.span_id
        assert inner2.parent_id == outer.span_id
        assert leaf.parent_id == inner1.span_id
        assert not tracer.open_spans()

    def test_spans_record_in_finish_order(self):
        tracer = RecordingTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.spans] == ["b", "a"]

    def test_duration_zero_while_open_then_positive(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock=clock)
        span = tracer.span("work")
        assert span.duration == 0.0
        clock.advance(2.5)
        with span:
            pass
        assert span.duration == pytest.approx(2.5)

    def test_attrs_at_open_and_via_set(self):
        tracer = RecordingTracer()
        with tracer.span("s", color="red") as span:
            span.set(count=3).set(count=4, extra=True)
        assert span.attrs == {"color": "red", "count": 4, "extra": True}

    def test_exception_stamps_error_attr_and_closes(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.find_spans("failing")
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None
        assert not tracer.open_spans()

    def test_out_of_order_exit_is_tolerated(self):
        tracer = RecordingTracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__exit__(None, None, None)  # parent closed before child
        inner.__exit__(None, None, None)
        assert {s.name for s in tracer.spans} == {"outer", "inner"}
        assert not tracer.open_spans()

    def test_events_attach_to_active_span(self):
        tracer = RecordingTracer()
        tracer.event("standalone", detail=1)
        with tracer.span("s") as span:
            tracer.event("nested")
        assert "span_id" not in tracer.events[0]
        assert tracer.events[0]["attrs"] == {"detail": 1}
        assert tracer.events[1]["span_id"] == span.span_id

    def test_null_tracer_times_but_records_nothing(self):
        clock = FakeClock()
        tracer = NullTracer(clock=clock)
        with tracer.span("phase") as span:
            clock.advance(1.5)
        assert span.duration == pytest.approx(1.5)
        tracer.event("dropped")
        tracer.count("dropped", 5)
        tracer.observe("dropped", 0.1)  # all no-ops, nothing to assert on

    def test_both_tracers_satisfy_the_protocol(self):
        assert isinstance(NullTracer(), Tracer)
        assert isinstance(RecordingTracer(), Tracer)

    def test_clear_resets_everything(self):
        tracer = RecordingTracer()
        with tracer.span("s"):
            tracer.count("c", 2)
            tracer.event("e")
        tracer.clear()
        assert not tracer.spans and not tracer.events
        assert tracer.metrics.counters() == {}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(41)
        assert registry.counters() == {"n": 42}
        with pytest.raises(ValueError):
            registry.counter("n").inc(-1)

    def test_histogram_bucket_accuracy(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0, 5000.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1, 2]  # <=1, <=10, <=100, overflow
        assert histogram.count == 6
        assert histogram.total == pytest.approx(5556.5)
        assert histogram.min == 0.5 and histogram.max == 5000.0
        assert histogram.mean == pytest.approx(5556.5 / 6)

    def test_histogram_quantile_estimates(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0   # 2 of 4 in the first bucket
        assert histogram.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            histogram.quantile(0.0)

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_registry_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must be JSON-serializable
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]


# ---------------------------------------------------------------------------
# Export and validation
# ---------------------------------------------------------------------------


def _traced_run():
    tracer = RecordingTracer()
    with tracer.span("root", kind="test"):
        with tracer.span("child"):
            tracer.count("facts", 7)
            tracer.observe("latency", 0.02)
        tracer.event("checkpoint", note="mid")
    return tracer


class TestExport:
    def test_records_meta_first_then_spans_in_start_order(self):
        records = list(trace_records(_traced_run()))
        assert records[0] == {
            "type": "meta",
            "version": TRACE_SCHEMA_VERSION,
            "producer": "repro.obs",
        }
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["root", "child"]
        assert spans[1]["parent"] == spans[0]["id"]

    def test_every_record_validates(self):
        for record in trace_records(_traced_run()):
            assert validate_trace_record(record) == []

    def test_write_trace_to_stream_and_file(self, tmp_path):
        tracer = _traced_run()
        stream = io.StringIO()
        written = write_trace(tracer, stream)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert written == len(lines)
        path = tmp_path / "trace.jsonl"
        assert write_trace(tracer, str(path)) == written
        assert validate_trace_file(str(path)) == []

    def test_validate_rejects_bad_records(self):
        assert validate_trace_record(["not", "a", "dict"])
        assert validate_trace_record({"type": "mystery"})
        assert validate_trace_record({"type": "span", "id": 1})  # missing fields
        assert validate_trace_record(
            {"type": "counter", "name": "c", "value": -1}
        )
        assert validate_trace_record(
            {"type": "meta", "version": 999, "producer": "x"}
        )
        bad_histogram = {
            "type": "histogram", "name": "h", "buckets": [1.0],
            "counts": [1], "count": 1, "sum": 0.5,
        }
        assert any(
            "len(buckets)+1" in p for p in validate_trace_record(bad_histogram)
        )

    def test_validate_file_catches_dangling_parent_and_bad_lines(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "version": 1, "producer": "x"}) + "\n"
            + json.dumps({
                "type": "span", "id": 2, "parent": 99, "name": "s",
                "start": 0.0, "end": 1.0, "duration": 1.0,
            }) + "\n"
            + "{not json\n"
        )
        problems = validate_trace_file(str(path))
        assert any("parent 99" in p for p in problems)
        assert any("invalid JSON" in p for p in problems)

    def test_validate_file_requires_meta_first_and_some_spans(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"type": "counter", "name": "c", "value": 1}) + "\n")
        problems = validate_trace_file(str(path))
        assert any("must be meta" in p for p in problems)
        path2 = tmp_path / "nospans.jsonl"
        path2.write_text(json.dumps({"type": "meta", "version": 1, "producer": "x"}) + "\n")
        assert validate_trace_file(str(path2)) == ["trace contains no spans"]

    def test_profile_summary_mentions_spans_and_counters(self):
        summary = profile_summary(_traced_run())
        assert "root" in summary and "child" in summary
        assert "facts" in summary


# ---------------------------------------------------------------------------
# Governor
# ---------------------------------------------------------------------------


class TestGovernor:
    def test_time_budget_with_fake_clock(self):
        clock = FakeClock()
        governor = ResourceGovernor(budget_seconds=1.0, clock=clock)
        governor.begin()
        assert governor.check_time() is None
        clock.advance(0.9)
        assert governor.check_time() is None
        clock.advance(0.2)
        violation = governor.check_time()
        assert violation == BudgetExceeded("time", 1.0, pytest.approx(1.1))
        assert governor.elapsed() == pytest.approx(1.1)

    def test_fact_null_and_iteration_budgets(self):
        governor = ResourceGovernor(
            max_facts=100, max_nulls=5, max_stratum_iterations=3
        )
        assert governor.check_facts(100) is None
        assert governor.check_facts(101).resource == "facts"
        assert governor.check_nulls(6).used == 6
        violation = governor.check_iterations(4, scope="stratum 2")
        assert violation.scope == "stratum 2"
        assert "stratum 2" in str(violation)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            ResourceGovernor(budget_seconds=0)
        with pytest.raises(ValueError):
            ResourceGovernor(max_facts=-1)

    def test_unstarted_governor_never_trips_on_time(self):
        governor = ResourceGovernor(budget_seconds=0.001)
        assert governor.check_time() is None
        assert governor.elapsed() == 0.0


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------

_TC_PROGRAM = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."
_CHAIN = {"e": [(i, i + 1) for i in range(30)]}


class TestEngineWiring:
    def test_counters_match_reality(self):
        tracer = RecordingTracer()
        result = Engine(tracer=tracer).run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        counters = tracer.metrics.counters()
        assert counters["engine.facts_derived"] == len(result.facts("tc"))
        assert counters["engine.rule_firings"] >= counters["engine.facts_derived"]
        assert counters.get("engine.nulls_created", 0) == 0

    def test_span_tree_shape(self):
        tracer = RecordingTracer()
        Engine(tracer=tracer).run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        (run_span,) = tracer.find_spans("engine.run")
        strata = tracer.find_spans("engine.stratum")
        rules = tracer.find_spans("engine.rule")
        assert run_span.attrs["status"] == STATUS_FIXPOINT
        assert all(s.parent_id == run_span.span_id for s in strata)
        stratum_ids = {s.span_id for s in strata}
        assert all(r.parent_id in stratum_ids for r in rules)
        assert not tracer.open_spans()

    def test_untraced_run_unchanged(self):
        with_tracer = Engine(tracer=RecordingTracer()).run(
            parse_program(_TC_PROGRAM), inputs=_CHAIN
        )
        without = Engine().run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        assert set(with_tracer.facts("tc")) == set(without.facts("tc"))
        assert without.status == STATUS_FIXPOINT
        assert not without.truncated

    def test_tracer_does_not_choose_the_executor(self, monkeypatch):
        """A tracer observes the run: the pure-join rule goes through
        the vectorized executor traced and untraced alike."""
        import repro.vadalog.engine as engine_module

        calls = []
        vectorized = engine_module.vectorized_rule_matches

        def counting(plans, db):
            fired = vectorized(plans, db)
            calls.append(fired is not None)
            return fired

        monkeypatch.setattr(engine_module, "vectorized_rule_matches", counting)
        program = parse_program("e(X, Y), e(Y, Z) -> two(X, Z).")
        runs = []
        for tracer in (RecordingTracer(), None):
            calls.clear()
            result = Engine(tracer=tracer).run(program, inputs=_CHAIN)
            assert calls == [True]
            stats = dataclasses.asdict(result.stats)
            del stats["elapsed_seconds"]
            runs.append((stats, result.facts("two")))
            if tracer is not None:
                (rule_span,) = tracer.find_spans("engine.rule")
                assert rule_span.attrs["firings"] == len(_CHAIN["e"]) - 1
                assert "probe" not in rule_span.attrs
        assert runs[0] == runs[1]

    def test_metalog_pipeline_joins_the_engine_trace(self):
        """A traced engine handed to the MetaLog pipeline yields one
        closed, schema-valid trace covering compile, extract, chase and
        write-back."""
        from repro.finkg.control import (
            controls_pairs_from_graph,
            run_control_metalog,
        )
        from repro.finkg.generator import (
            ShareholdingConfig,
            generate_shareholding_graph,
        )

        graph = generate_shareholding_graph(
            ShareholdingConfig(companies=60, seed=7)
        )
        tracer = RecordingTracer()
        outcome = run_control_metalog(
            graph, node_label="Company", engine=Engine(tracer=tracer)
        )
        assert controls_pairs_from_graph(outcome.graph)
        assert not tracer.open_spans()
        assert {
            "mtv.compile", "mtv.extract", "engine.run", "engine.stratum",
            "engine.rule", "mtv.materialize",
        } <= {span.name for span in tracer.spans}
        for record in trace_records(tracer):
            assert validate_trace_record(record) == []

    def test_graceful_fact_budget_yields_partial_results(self):
        governor = ResourceGovernor(max_facts=50)
        result = Engine(governor=governor).run(
            parse_program(_TC_PROGRAM), inputs=_CHAIN
        )
        assert result.status == STATUS_BUDGET_EXCEEDED
        assert result.truncated
        assert result.violation.resource == "facts"
        full = Engine().run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        partial = set(result.facts("tc"))
        assert partial  # kept what it had derived
        assert partial < set(full.facts("tc"))

    def test_graceful_time_budget_with_fake_clock(self):
        clock = FakeClock()
        original_check = ResourceGovernor.check_time
        governor = ResourceGovernor(budget_seconds=1.0, clock=clock)
        calls = []

        def ticking_check(self):
            calls.append(1)
            clock.advance(0.4)  # every check costs 0.4 fake seconds
            return original_check(self)

        governor.check_time = ticking_check.__get__(governor)
        result = Engine(governor=governor).run(
            parse_program(_TC_PROGRAM), inputs=_CHAIN
        )
        assert result.truncated
        assert result.violation.resource == "time"
        assert calls  # the engine consulted the clock

    def test_strict_budget_raises_with_partial_stats(self):
        governor = ResourceGovernor(max_facts=50, graceful=False)
        with pytest.raises(ResourceLimitError) as excinfo:
            Engine(governor=governor).run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        error = excinfo.value
        assert error.resource == "facts"
        assert error.limit == 50
        assert error.stats is not None and error.stats.facts_derived > 50

    def test_budget_event_lands_in_trace(self):
        tracer = RecordingTracer()
        Engine(tracer=tracer, governor=ResourceGovernor(max_facts=50)).run(
            parse_program(_TC_PROGRAM), inputs=_CHAIN
        )
        assert any(
            e["name"] == "engine.budget_exceeded" for e in tracer.events
        )
        (run_span,) = tracer.find_spans("engine.run")
        assert run_span.attrs["status"] == STATUS_BUDGET_EXCEEDED

    def test_fixpoint_exactly_at_iteration_cap_is_not_truncated(self):
        # The chain closes in well under 50 iterations; a cap equal to the
        # actual iteration count must not tag the run as truncated.
        probe = Engine().run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        governor = ResourceGovernor(
            max_stratum_iterations=probe.stats.iterations
        )
        result = Engine(governor=governor).run(
            parse_program(_TC_PROGRAM), inputs=_CHAIN
        )
        assert not result.truncated


# ---------------------------------------------------------------------------
# Typed resource errors (regression: used to be bare EvaluationError)
# ---------------------------------------------------------------------------


class TestResourceLimitErrors:
    def test_max_iterations_carries_partial_stats(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            Engine(max_iterations=3).run(parse_program(_TC_PROGRAM), inputs=_CHAIN)
        error = excinfo.value
        assert error.resource == "iterations"
        assert error.limit == 3
        assert error.stats.facts_derived > 0

    def test_max_nulls_carries_partial_stats(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            Engine(max_nulls=2).run(
                parse_program("p(X) -> q(X, Y)."),
                inputs={"p": [(i,) for i in range(10)]},
            )
        error = excinfo.value
        assert error.resource == "nulls"
        assert error.limit == 2

    def test_still_catchable_as_evaluation_error(self):
        with pytest.raises(EvaluationError):
            Engine(max_iterations=3).run(parse_program(_TC_PROGRAM), inputs=_CHAIN)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

_MINI_GSL = """
schema Mini oid 3 {
  node Company { id vat: string name: string }
  intensional edge CONTROLS Company -> Company
  edge OWNS Company -> Company { percentage: float }
}
"""

_CONTROL_METALOG = """
(x: Company) -> exists c : (x)[c: CONTROLS](x).
(x: Company)[:CONTROLS](z: Company)[:OWNS; percentage: w](y: Company),
    v = msum(w, <z>), v > 0.5 -> exists c : (x)[c: CONTROLS](y).
"""


@pytest.fixture()
def reason_workspace(tmp_path):
    from repro.graph.io import save_graph
    from repro.graph.property_graph import PropertyGraph

    (tmp_path / "mini.gsl").write_text(_MINI_GSL)
    (tmp_path / "rules.metalog").write_text(_CONTROL_METALOG)
    graph = PropertyGraph("holdings")
    for vat in ("A", "B", "C"):
        graph.add_node(vat, "Company", vat=vat, name=vat)
    graph.add_edge("A", "B", "OWNS", percentage=0.6)
    graph.add_edge("B", "C", "OWNS", percentage=0.6)
    save_graph(graph, str(tmp_path / "data.json"))
    return tmp_path


class TestCLI:
    def test_trace_and_profile_flags(self, reason_workspace, capsys):
        trace_path = reason_workspace / "trace.jsonl"
        code = main([
            "reason",
            str(reason_workspace / "mini.gsl"),
            str(reason_workspace / "data.json"),
            str(reason_workspace / "rules.metalog"),
            "-o", str(reason_workspace / "out.json"),
            "--trace", str(trace_path),
            "--profile",
        ])
        assert code == 0
        assert validate_trace_file(str(trace_path)) == []
        err = capsys.readouterr().err
        assert "engine.run" in err          # profile table
        assert "trace:" in err

    def test_budget_flag_reports_truncation_via_exit_code(
        self, reason_workspace, capsys
    ):
        code = main([
            "reason",
            str(reason_workspace / "mini.gsl"),
            str(reason_workspace / "data.json"),
            str(reason_workspace / "rules.metalog"),
            "-o", str(reason_workspace / "out.json"),
            "--max-facts", "5",
        ])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err
