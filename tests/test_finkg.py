"""Financial-domain tests: generator invariants, control, integrated
ownership, close links, groups/families — baselines vs MetaLog."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.finkg import (
    ShareholdingConfig,
    close_links,
    company_groups,
    control_closure,
    control_pairs,
    controls_pairs_from_graph,
    families_by_surname,
    generate_company_kg,
    generate_shareholding_data,
    generate_shareholding_graph,
    integrated_ownership,
    integrated_ownership_series,
    partnerships,
    related_pairs,
    run_control_metalog,
    stakes_as_tuples,
    stakes_from_graph,
)
from repro.finkg.close_links import close_link_pairs_from_graph
from repro.finkg.ownership import iown_pairs_from_graph
from repro.finkg.programs import (
    close_links_program,
    integrated_ownership_program,
)
from repro.graph import summarize
from repro.metalog import parse_metalog, run_on_graph


class TestGenerator:
    def test_deterministic_by_seed(self):
        a = generate_shareholding_data(ShareholdingConfig(companies=100, seed=5))
        b = generate_shareholding_data(ShareholdingConfig(companies=100, seed=5))
        assert stakes_as_tuples(a) == stakes_as_tuples(b)
        c = generate_shareholding_data(ShareholdingConfig(companies=100, seed=6))
        assert stakes_as_tuples(a) != stakes_as_tuples(c)

    def test_capital_never_over_assigned(self):
        data = generate_shareholding_data(ShareholdingConfig(companies=200, seed=1))
        inbound = {}
        for stake in data.stakes:
            inbound[stake.company] = inbound.get(stake.company, 0.0) + stake.percentage
        assert all(total <= 1.0 + 1e-6 for total in inbound.values())

    def test_every_company_has_a_shareholder(self):
        data = generate_shareholding_data(ShareholdingConfig(companies=150, seed=2))
        owned = {stake.company for stake in data.stakes}
        missing = set(data.companies) - owned
        assert len(missing) <= len(data.companies) * 0.02

    def test_scale_free_shape(self):
        graph = generate_shareholding_graph(ShareholdingConfig(companies=2000, seed=7))
        stats = summarize(graph)
        # Section 2.1 shape: tiny SCCs, one big WCC, hubs, scale-free tail.
        assert stats.avg_scc_size < 1.1
        assert stats.largest_wcc > 0.3 * stats.nodes
        assert stats.max_in_degree > 5 * stats.avg_in_degree
        assert stats.power_law.is_plausibly_scale_free

    def test_typed_kg_conforms_to_schema(self, company_schema):
        kg = generate_company_kg(ShareholdingConfig(companies=40, seed=9))
        from repro.core import SuperInstance

        instance = SuperInstance.from_plain_graph(company_schema, kg, 1)
        assert instance.data.node_count == kg.node_count
        shares = list(kg.nodes("Share"))
        assert shares and all(n.get("percentage") is not None for n in shares)
        # Every share is held and belongs to exactly one business.
        belongs = {e.source for e in kg.edges("BELONGS_TO")}
        held = {e.target for e in kg.edges("HOLDS")}
        assert {s.id for s in shares} == belongs == held


class TestControl:
    def test_direct_control(self):
        assert control_pairs([("a", "b", 0.51)]) == {("a", "b")}
        assert control_pairs([("a", "b", 0.5)]) == set()  # strict threshold

    def test_joint_control(self):
        stakes = [("a", "b", 0.6), ("b", "c", 0.3), ("a", "c", 0.3)]
        assert control_pairs(stakes) == {("a", "b"), ("a", "c")}

    def test_control_through_chain(self):
        stakes = [("a", "b", 0.9), ("b", "c", 0.9), ("c", "d", 0.9)]
        assert control_pairs(stakes) == {
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        }

    def test_cycle_does_not_loop_forever(self):
        stakes = [("a", "b", 0.6), ("b", "a", 0.6)]
        assert control_pairs(stakes) == {("a", "b"), ("b", "a")}

    def test_closure_self_inclusion_flag(self):
        closure = control_closure([("a", "b", 0.9)], include_self=True)
        assert closure["a"] == {"a", "b"}

    def test_metalog_agrees_on_synthetic_graph(self):
        config = ShareholdingConfig(companies=120, seed=17)
        graph = generate_shareholding_graph(config)
        outcome = run_control_metalog(graph, node_label="Company")
        meta = {
            p for p in controls_pairs_from_graph(outcome.graph)
            if p[0].startswith("C")
        }
        base = {
            p for p in control_pairs(stakes_from_graph(graph))
            if p[0].startswith("C") and p[1].startswith("C")
        }
        assert meta == base


@st.composite
def random_stakes(draw):
    n = draw(st.integers(2, 8))
    entities = [f"e{i}" for i in range(n)]
    count = draw(st.integers(1, 14))
    stakes = {}
    for _ in range(count):
        owner = draw(st.sampled_from(entities))
        company = draw(st.sampled_from(entities))
        if owner == company:
            continue
        pct = draw(st.floats(0.05, 1.0, allow_nan=False))
        stakes[(owner, company)] = pct
    # Normalize so no company is over-assigned.
    inbound = {}
    for (owner, company), pct in stakes.items():
        inbound[company] = inbound.get(company, 0.0) + pct
    return [
        (owner, company, pct / max(1.0, inbound[company] / 0.95))
        for (owner, company), pct in sorted(stakes.items())
    ]


@given(random_stakes())
@settings(max_examples=30, deadline=None)
def test_control_metalog_matches_baseline_property(stakes):
    from repro.graph.property_graph import PropertyGraph

    graph = PropertyGraph()
    entities = {e for s in stakes for e in s[:2]}
    for entity in entities:
        graph.add_node(entity, "Company")
    for owner, company, pct in stakes:
        graph.add_edge(owner, company, "OWNS", percentage=pct)
    outcome = run_control_metalog(graph, node_label="Company")
    assert controls_pairs_from_graph(outcome.graph) == control_pairs(stakes)


class TestIntegratedOwnership:
    def test_direct_only(self):
        io = integrated_ownership([("a", "b", 0.4)])
        assert io == {("a", "b") : pytest.approx(0.4)}

    def test_two_hop_path(self):
        io = integrated_ownership([("a", "b", 0.5), ("b", "c", 0.5)])
        assert io[("a", "c")] == pytest.approx(0.25)

    def test_parallel_paths_add_up(self):
        io = integrated_ownership([
            ("a", "b", 0.5), ("b", "d", 0.4),
            ("a", "c", 0.5), ("c", "d", 0.4),
        ])
        assert io[("a", "d")] == pytest.approx(0.4)

    def test_cycle_correction_keeps_values_sane(self):
        # Tight cross-shareholding: a naive path sum explodes past 1.
        io = integrated_ownership([("a", "b", 0.95), ("b", "a", 0.95)])
        assert io[("a", "b")] == pytest.approx(0.95)
        assert all(v <= 1.0 + 1e-9 for v in io.values())

    def test_series_matches_exact_on_dags(self):
        stakes = [("a", "b", 0.6), ("b", "c", 0.5), ("a", "c", 0.1),
                  ("c", "d", 0.9)]
        exact = integrated_ownership(stakes)
        series = integrated_ownership_series(stakes, depth=5)
        for key, value in exact.items():
            assert series[key] == pytest.approx(value)

    def test_series_truncation_error_decays_geometrically(self):
        # E-ABL (d): on a mostly-acyclic registry the unrolled series
        # converges fast enough that the default depth (6) is safe.
        stakes = stakes_as_tuples(generate_shareholding_data(
            ShareholdingConfig(companies=400, seed=31, cycle_probability=0.0)
        ))
        converged = integrated_ownership_series(stakes, depth=48)
        errors = []
        for depth in (2, 4, 6, 8):
            series = integrated_ownership_series(stakes, depth=depth)
            errors.append(max(
                abs(value - series.get(key, 0.0))
                for key, value in converged.items()
            ))
        assert all(
            later < earlier / 10 for earlier, later in zip(errors, errors[1:])
        )
        assert errors[2] < 1e-3 and errors[3] < 1e-4

    def test_metalog_unrolling_matches_series(self):
        config = ShareholdingConfig(companies=50, seed=23, cycle_probability=0.0)
        graph = generate_shareholding_graph(config)
        text = (
            integrated_ownership_program(depth=5)
            .replace("(x: Person)", "(x)")
            .replace("(y: Business)", "(y)")
            .replace("(z: Business)", "(z)")
        )
        outcome = run_on_graph(parse_metalog(text), graph)
        meta = {
            k: v for k, v in iown_pairs_from_graph(outcome.graph).items()
            if k[0] != k[1]
        }
        series = integrated_ownership_series(
            stakes_as_tuples(generate_shareholding_data(config)), depth=5
        )
        assert set(meta) == set(series)
        for key in meta:
            assert meta[key] == pytest.approx(series[key])


class TestCloseLinks:
    def test_direct_and_reverse(self):
        links = close_links([("a", "b", 0.25)])
        assert ("a", "b") in links and ("b", "a") in links

    def test_third_party(self):
        links = close_links([("z", "x", 0.3), ("z", "y", 0.3)])
        assert ("x", "y") in links and ("y", "x") in links

    def test_below_threshold_excluded(self):
        assert close_links([("a", "b", 0.19)]) == set()

    def test_indirect_holding_counts(self):
        # 0.5 * 0.5 = 0.25 >= 0.2 indirect.
        links = close_links([("a", "b", 0.5), ("b", "c", 0.5)])
        assert ("a", "c") in links

    def test_metalog_close_links_match(self):
        config = ShareholdingConfig(companies=60, seed=29, cycle_probability=0.0)
        graph = generate_shareholding_graph(config)
        text = (
            integrated_ownership_program(depth=6)
            .replace("(x: Person)", "(x)")
            .replace("(y: Business)", "(y)")
            .replace("(z: Business)", "(z)")
        )
        with_io = run_on_graph(parse_metalog(text), graph)
        outcome = run_on_graph(parse_metalog(close_links_program()), with_io.graph)
        meta = close_link_pairs_from_graph(outcome.graph)
        series = integrated_ownership_series(
            stakes_as_tuples(generate_shareholding_data(config)), depth=6
        )
        assert meta == close_links([], io=series)


class TestGroupsAndFamilies:
    def test_company_groups_keyed_by_ultimate_controller(self):
        stakes = [("top", "a", 0.6), ("a", "b", 0.6), ("x", "y", 0.9)]
        groups = company_groups(stakes)
        assert groups == {"top": {"a", "b"}, "x": {"y"}}

    def test_controlled_controller_is_not_a_leader(self):
        stakes = [("top", "mid", 0.6), ("mid", "leaf", 0.6)]
        groups = company_groups(stakes)
        assert set(groups) == {"top"}

    def test_families_and_relations(self, small_kg):
        families = families_by_surname(small_kg)
        assert families
        assert all(members for members in families.values())
        pairs = related_pairs(small_kg)
        for first, second in pairs:
            assert (second, first) in pairs  # symmetric

    def test_partnerships_require_shared_business(self, small_kg):
        pairs = partnerships(small_kg)
        for first, second in pairs:
            assert first < second  # normalized unordered pairs
