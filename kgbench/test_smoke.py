"""Smoke test of the harness itself; run it with ``pytest kgbench/``.

(``testpaths = ["tests"]`` keeps it out of the repository's tier-1 run:
it starts child processes and takes about half a minute.)
"""

import json
import os
import re
import subprocess
import sys

import pytest

from kgbench import ROOT, compare
from kgbench.metrics import declared

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BENCHMARK = declared()
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = BENCHMARK["end_to_end"]
PER_LAYER = BENCHMARK["per_layer"]


def _no_duplicates(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"metric emitted twice: {keys}"
    return dict(pairs)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One ``--smoke --traced`` pass of the whole suite."""
    out = tmp_path_factory.mktemp("kgbench") / "results.json"
    done = subprocess.run(
        [sys.executable, "-m", "kgbench", "--smoke", "--traced",
         "--seed", "7", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [
        json.loads(line, object_pairs_hook=_no_duplicates)
        for line in done.stdout.splitlines() if line.startswith('{"correct"')
    ]
    with open(out, encoding="utf-8") as handle:
        return lines, json.load(handle)


def test_benchmark_json_names_the_workloads_the_code_has():
    from kgbench.workloads import WORKLOADS

    assert BENCHMARK["command"] == ["python3", "-m", "kgbench"]
    assert BENCHMARK["paths"] == ["kgbench"]
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in END_TO_END
    )
    names = WORKLOAD_NAMES + [m["name"] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_every_metric_of_every_workload_once_with_its_unit(suite):
    lines, results = suite
    runs = results["runs"]
    assert [(r["workload"], r["traced"]) for r in runs] == [
        (name, traced) for name in WORKLOAD_NAMES for traced in (False, True)
    ]
    assert len(lines) == len(runs)
    for line, run in zip(lines, runs):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        rows = PER_LAYER if run["traced"] else END_TO_END
        assert list(line["metrics"]) == [row["name"] for row in rows]
        for row in rows:
            metric = line["metrics"][row["name"]]
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == row["unit"]
            assert isinstance(metric["value"], (int, float))
        for key in ("git_sha", "python", "numpy", "nproc", "loadavg_start"):
            assert key in run["fingerprint"]
        assert run["seed"] == 7 and run["sizes"]["companies"] == 200
    for run in runs:
        if not run["traced"]:
            for metric in run["metrics"].values():
                assert metric["value"] > 0
            continue
        assert run["metrics"]["trace.coverage"]["value"] >= 0.90
        assert os.path.exists(
            os.path.join(ROOT, "kgbench", "out", f"{run['workload']}.trace.json")
        )


# -- the oracle gates fire on a corrupted result ------------------------
def _drop_a_controls_edge(store):
    edge = next(
        e for e in store.graph.edges("CONTROLS") if e.source != e.target
    )
    store.graph.remove_edge(edge.id)


def test_materialize_gate_fires(monkeypatch):
    from kgbench import workloads

    honest = workloads.registry_oracle
    monkeypatch.setattr(
        workloads, "registry_oracle",
        lambda registry: honest(registry) | {("nobody", "nothing")},
    )
    workload = workloads.Materialize(7, 200)
    workload.set_up(None)
    phase = workloads.Phase()
    workload.measure(0.0, None, phase)
    assert workload.failed == phase.operations == 1


def test_update_gate_fires():
    from kgbench import workloads

    workload = workloads.Update(7, 200)
    workload.set_up(None)
    workload.measure(0.2, None, workloads.Phase())
    assert workload.check() == 0
    _drop_a_controls_edge(workload.store)
    assert workload.check() == 1


def test_stream_gate_fires():
    from kgbench import workloads

    workload = workloads.Stream(7, 200)
    workload.set_up(None)
    workload.measure(0.2, None, workloads.Phase())
    assert workload.check() == 0
    _drop_a_controls_edge(workload.store)
    assert workload.check() == 2  # oracle and from-scratch state both differ


def test_serve_gate_fires():
    from kgbench import workloads

    workload = workloads.ServeMixed(7, 200)
    try:
        workload.set_up(None)
        workload.measure(0.3, None, workloads.Phase())
        assert workload.failed == 0 and workload.check() == 0
        # A wrong answer: magic and snapshot disagree for one (subject, epoch).
        subject, engine, raw = workload.records[0]
        forged = json.loads(raw)
        forged["answers"].append([subject, "nothing"])
        other = "magic" if engine == "snapshot" else "snapshot"
        workload.records.append((subject, other, json.dumps(forged)))
        assert workload.check() >= 1
        workload.records.pop()
        # A lost write: the oracle knows a stake the server never got.
        a, b = workload.subjects[:2]
        workload.live_own.add((a, b, 0.99))
        workload.live_own.add((b, a, 0.99))
        assert workload.check() == 1
    finally:
        workload.tear_down()


def test_trace_gates_fire():
    """An operation with a stretch no wrapper covers lowers the
    coverage, and the suite's gate refuses it."""
    import time

    from kgbench.__main__ import gate
    from kgbench.trace import Tracer

    tracer = Tracer()
    with tracer.operation("work"):
        with tracer.span("layer.call", "layer"):
            time.sleep(0.01)
        time.sleep(0.03)  # glue the trace cannot name
    coverage = tracer.coverage({"work"}, tracer.self_times())
    assert 0.1 < coverage < 0.5
    run = {
        "correct": True, "traced": True, "smoke": False, "metrics": {
            "trace.coverage": {"value": coverage},
            "trace.overhead_share": {"value": 0.25},
        },
    }
    assert len(gate(run)) == 2


# -- compare -------------------------------------------------------------
def _results(tmp_path, name, op_values):
    runs = [
        {"workload": "w", "traced": False, "metrics": {
            "op_p50_ms": {"value": value}, "setup_s": {"value": 1.0},
        }}
        for value in op_values
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


@pytest.mark.parametrize("after, expected", [
    ([100, 101, 102, 103], "within"),
    ([140, 141, 142, 143], "worse"),
    ([60, 61, 62, 63], "better"),
    ([60, 100, 140, 180], "unresolved"),
])
def test_compare_verdicts(tmp_path, capsys, after, expected):
    a = _results(tmp_path, "a.json", [100, 101, 102, 103])
    b = _results(tmp_path, "b.json", after)
    code = compare.main([a, b])
    rows = {
        line.split()[1]: line.split()[6]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert rows == {"op_p50_ms": expected, "setup_s": "within"}
    assert code == (1 if expected in ("worse", "unresolved") else 0)
