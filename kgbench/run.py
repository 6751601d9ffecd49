"""One run of one workload: set up, warm up, measure, check, report.

End-to-end metrics come from a run with tracing off.  A traced run
measures in stretches of about a second, in turns with tracing off and
with the wrappers installed, and reports the per-layer metrics; what the
primary operation costs more with spans than without is the tracing
overhead.  The turns are short because the host's speed drifts over
seconds: both kinds of stretch then meet the same host.

The three end-to-end times (``op_p50_ms``, ``throughput_per_s``,
``setup_s``) are in reference units (see ``speed.py``); every per-layer
time is wall-clock time as measured.
"""

import json
import os
import time

from kgbench import OUT
from kgbench.metrics import declared, fingerprint, median
from kgbench.speed import HostSpeed
from kgbench.trace import Tracer, format_layer_table, install, operation
from kgbench.workloads import SMOKE_COMPANIES, WORKLOADS, Phase

def execute(name, seed, seconds, trace, smoke=False):
    """Run workload ``name`` once; returns the result as a dict."""
    cls, companies = WORKLOADS[name]
    workload = cls(seed, SMOKE_COMPANIES if smoke else companies)
    if smoke:
        workload.setups = 1
    host = fingerprint()
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    try:
        speed.start()
        if tracer is not None:
            install(tracer)
        setup_samples = []
        for _ in range(workload.setups):
            workload.tear_down()
            start = time.perf_counter()
            with operation(tracer, "setup"):
                workload.set_up(tracer)
            setup_samples.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.restore()
        start = time.perf_counter()
        workload.warm_up()
        warmup = time.perf_counter() - start

        plain = Phase(workload.rss_after, workload.peak_rss_mb)
        traced = Phase()
        if tracer is None:
            workload.measure(seconds, None, plain)
            attempted = workload.attempted(plain)
            primary = speed.at_reference(plain.samples[workload.primary])
            values = {
                "op_p50_ms": (median(primary) * 1000.0, len(primary)),
                "throughput_per_s": (
                    workload.throughput(plain, speed), attempted
                ),
                # A run too short for rss_after operations reads it now.
                "peak_rss_mb": (plain.rss_mb or workload.peak_rss_mb(), 1),
                "setup_s": (
                    median(speed.at_reference(setup_samples)),
                    len(setup_samples),
                ),
            }
            table = None
        else:
            turn = min(workload.turn_seconds, seconds / 4.0)
            begin = time.perf_counter()
            while time.perf_counter() < begin + seconds:
                workload.measure(turn, None, plain)
                install(tracer)
                workload.measure(turn, tracer, traced)
                tracer.restore()
            attempted = workload.attempted(plain) + workload.attempted(traced)
            values, table = _layer_values(
                workload, tracer, speed, plain, traced, warmup, host
            )
        stretches = plain.stretches + traced.stretches
        factor = speed.factor(stretches[0][0], stretches[-1][1])
        failed = workload.failed + workload.check()
    finally:
        if tracer is not None:
            tracer.restore()
        workload.tear_down()
        speed.stop()

    units = {
        row["name"]: row["unit"]
        for row in declared()["end_to_end"] + declared()["per_layer"]
    }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric], "samples": samples}
            for metric, (value, samples) in values.items()
        },
        "sizes": workload.sizes(),
        "fingerprint": host,
        # Mean slowdown of the host while the run measured (HostSpeed).
        "speed_factor": factor,
    }
    if table is not None:
        result["layer_table"] = table
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}.trace.json"))
    return result


def _layer_values(workload, tracer, speed, plain, traced, warmup, host):
    """Every per-layer metric of a traced run, and its layer table."""
    own = tracer.self_times()
    timed = {span.kind for span in tracer.spans} - {"", "setup"}
    values = {row["name"]: 0.0 for row in declared()["per_layer"]}
    values.update(workload.layers(tracer, own, plain, traced))
    values["finkg.generate_s"] = median(
        tracer.per_operation(("finkg.generate",), ("setup",), own)
    )
    values["graph.build_registry_s"] = median(
        tracer.per_operation(("graph.build_registry",), ("setup",), own)
    )
    baseline = traced.baseline or plain
    values["trace.coverage"] = tracer.coverage(timed, own)
    # Medians at reference speed over all the stretches of each kind:
    # an operation's wall time varies by a fifth from one to the next on
    # the shared box, far more than spans cost.
    values["trace.overhead_share"] = (
        median(speed.at_reference(traced.samples[workload.primary]))
        / median(speed.at_reference(baseline.samples[workload.primary])) - 1.0
    )
    values["host.speed_factor"] = speed.factor(
        plain.stretches[0][0], traced.stretches[-1][1]
    )
    values["harness.warmup_s"] = warmup
    values["host.loadavg_start"] = host["loadavg_start"]
    operations = traced.operations
    return (
        {name: (value, operations) for name, value in values.items()},
        tracer.layer_table(timed, own),
    )


def report_lines(result):
    """The human-readable form: every metric by name, with its unit."""
    lines = [
        f"{result['workload']} seed={result['seed']} "
        f"{'traced' if result['traced'] else 'timed'} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(
            f"  {name:36} {metric['value']:14.6g} {metric['unit']:6} "
            f"n={metric['samples']}"
        )
    if "layer_table" in result:
        lines.append(format_layer_table(result["layer_table"]))
    return lines


def contract_line(result):
    """The one JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })
