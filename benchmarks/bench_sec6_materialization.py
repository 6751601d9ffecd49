"""E-PERF — Section 6 performance paragraph: the Algorithm 2 phase
breakdown (load / reason / flush) on synthetic Company KGs.

The paper reports ~160 min for the control intensional component and
~15 min for loading + flushing (load+flush ~ 9% of total) on the
11.97M-node KG.  At laptop scale we reproduce the *shape*: the phase
breakdown is printed and EXPERIMENTS.md records paper-vs-measured.
"""

import pytest
from conftest import banner

from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.finkg.generator import ShareholdingConfig, generate_company_kg
from repro.metalog import parse_metalog
from repro.ssst import IntensionalMaterializer


@pytest.mark.parametrize("companies", [200, 1000, 3000])
def test_sec6_control_materialization(benchmark, companies):
    schema = company_super_schema()
    data = generate_company_kg(ShareholdingConfig(companies=companies, seed=6))
    owns_program = parse_metalog(programs.OWNS_PROGRAM)
    control_program = parse_metalog(programs.PERSON_CONTROL_PROGRAM)
    materializer = IntensionalMaterializer()

    def run_pipeline():
        first = materializer.materialize(schema, data, owns_program, 1)
        second = materializer.materialize(
            schema, first.instance.data, control_program, 2
        )
        return first, second

    first, second = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)

    load = first.load_seconds + second.load_seconds
    reason = first.reason_seconds + second.reason_seconds
    flush = first.flush_seconds + second.flush_seconds
    total = load + reason + flush
    banner(f"Section 6 — Algorithm 2 phase breakdown, {companies} companies "
           f"({data.node_count} nodes, {data.edge_count} edges)")
    print(f"  load   {load:8.2f}s  ({100 * load / total:5.1f}%)   "
          f"[paper: ~15 min load+flush]")
    print(f"  reason {reason:8.2f}s  ({100 * reason / total:5.1f}%)   "
          f"[paper: ~160 min]")
    print(f"  flush  {flush:8.2f}s  ({100 * flush / total:5.1f}%)")
    print(f"  derived: {second.derived_counts}")

    controls = {
        (e.source, e.target)
        for e in second.instance.data.edges("CONTROLS")
        if e.source != e.target
    }
    assert controls  # control structure emerges
    assert second.derived_counts["CONTROLS"] > 0


def test_sec6_deep_chain_reasons_once_per_control_pair(benchmark):
    """The paper's regime is the one where the control closure is deep
    relative to the instance: a majority-ownership chain of length n
    yields a quadratic closure over a linear-size instance.

    The phase shares are printed for comparison with Section 6's ~91%
    of reasoning; what is asserted is structural: the closure has
    n(n+1)/2 pairs and the chase derives it semi-naively, with a
    bounded number of rule firings per derived ``CONTROLS`` fact (the
    naive per-round recomputation of the aggregate took 53).
    """
    from repro.graph.property_graph import PropertyGraph

    n = 80
    schema = company_super_schema()
    data = PropertyGraph("chain")
    for i in range(n):
        data.add_node(
            f"C{i}", "Business", fiscalCode=f"FC{i}", businessName=f"C{i}",
            legalNature="spa", shareholdingCapital=1.0,
        )
    for i in range(n - 1):
        data.add_edge(f"C{i}", f"C{i + 1}", "OWNS", percentage=0.6)
    control_program = parse_metalog(programs.CONTROL_PROGRAM)
    materializer = IntensionalMaterializer()

    def run_pipeline():
        return materializer.materialize(schema, data, control_program, 1)

    report = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    total = report.total_seconds
    controls = report.derived_counts["CONTROLS"]
    firings = report.reason_stats.rule_firings
    banner(f"Section 6 — deep-chain regime (n={n}: quadratic closure)")
    print(f"  load   {report.load_seconds:8.2f}s "
          f"({100 * report.load_seconds / total:5.1f}%)")
    print(f"  reason {report.reason_seconds:8.2f}s "
          f"({100 * report.reason_seconds / total:5.1f}%)   [paper: ~91%]")
    print(f"  flush  {report.flush_seconds:8.2f}s "
          f"({100 * report.flush_seconds / total:5.1f}%)")
    print(f"  derived CONTROLS: {controls}, rule firings: {firings} "
          f"({firings / controls:.2f} per fact)")
    # n*(n+1)/2 control pairs including the self-loops.
    assert controls == n * (n + 1) // 2
    assert firings <= 3 * controls
