"""Algorithm 2: intensional-component materialization tests."""

import pytest

from repro.core.dictionary import GraphDictionary
from repro.graph import ColumnarPropertyGraph
from repro.metalog import parse_metalog
from repro.finkg import programs
from repro.ssst import (
    IntensionalMaterializer,
    MaterializationCheckpoint,
    catalog_from_super_schema,
)
from repro.ssst.views import input_views, output_views
from repro.vadalog.terms import SkolemValue


@pytest.fixture()
def materializer():
    return IntensionalMaterializer()


class TestControlMaterialization:
    def test_control_over_owns_edges(self, company_schema, owns_instance, materializer):
        report = materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        enriched = report.instance.data
        controls = {
            (e.source, e.target) for e in enriched.edges("CONTROLS")
            if e.source != e.target
        }
        assert controls == {("B1", "B2"), ("B1", "B3")}
        assert report.derived_counts["CONTROLS"] == 5  # incl. 3 self-loops

    def test_phases_are_timed(self, company_schema, owns_instance, materializer):
        report = materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        breakdown = report.phase_breakdown()
        assert set(breakdown) == {"load", "reason", "flush"}
        assert report.total_seconds == pytest.approx(sum(breakdown.values()))
        assert report.reason_stats is not None

    def test_original_data_is_preserved(self, company_schema, owns_instance, materializer):
        report = materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        enriched = report.instance.data
        assert enriched.has_node("B1")
        assert enriched.node("B1").get("businessName") == "B1 SpA"
        owns = {(e.source, e.target) for e in enriched.edges("OWNS")}
        assert owns == {("B1", "B2"), ("B2", "B3"), ("B1", "B3")}


class TestFullSharePipeline:
    def test_owns_then_control(self, company_schema, tiny_instance, materializer):
        # Stage 1: derive OWNS from the reified HOLDS/Share/BELONGS_TO.
        first = materializer.materialize(
            company_schema, tiny_instance,
            parse_metalog(programs.OWNS_PROGRAM), instance_oid=11,
        )
        owns = {
            (e.source, e.target, e.get("percentage"))
            for e in first.instance.data.edges("OWNS")
        }
        assert ("B1", "B2", 0.6) in owns
        assert ("p1", "B1", 0.8) in owns
        # Stage 2: control on top of the derived OWNS (person-level).
        second = materializer.materialize(
            company_schema, first.instance.data,
            parse_metalog(programs.PERSON_CONTROL_PROGRAM), instance_oid=12,
        )
        controls = {
            (e.source, e.target)
            for e in second.instance.data.edges("CONTROLS")
            if e.source != e.target
        }
        # p1 controls B1 directly, hence B2, hence (0.3 + 0.3) B3.
        assert controls == {
            ("p1", "B1"), ("p1", "B2"), ("p1", "B3"),
            ("B1", "B2"), ("B1", "B3"),
        }

    def test_stakeholders_property(self, company_schema, tiny_instance, materializer):
        first = materializer.materialize(
            company_schema, tiny_instance,
            parse_metalog(programs.OWNS_PROGRAM), instance_oid=21,
        )
        second = materializer.materialize(
            company_schema, first.instance.data,
            parse_metalog(programs.STAKEHOLDERS_PROGRAM), instance_oid=22,
        )
        b3 = second.instance.data.node("B3")
        assert b3.get("numberOfStakeholders") == 2  # B1 and B2 hold stakes


class TestFamilies:
    def test_family_linker_skolems(self, company_schema, tiny_instance, materializer):
        data = tiny_instance.copy()
        data.add_node(
            "p2", "PhysicalPerson",
            fiscalCode="FCp2", name="Bo Rossi", surname="Rossi", gender="male",
        )
        data.add_node(
            "p3", "PhysicalPerson",
            fiscalCode="FCp3", name="Cy Greco", surname="Greco", gender="male",
        )
        first = materializer.materialize(
            company_schema, data,
            parse_metalog(programs.OWNS_PROGRAM), instance_oid=31,
        )
        report = materializer.materialize(
            company_schema, first.instance.data,
            parse_metalog(programs.FAMILY_PROGRAM), instance_oid=32,
        )
        enriched = report.instance.data
        families = list(enriched.nodes("Family"))
        assert {f.get("familyName") for f in families} == {"Rossi", "Greco"}
        # One family per surname: the linker Skolem functor deduplicates.
        rossi_members = {
            e.source for e in enriched.edges("BELONGS_TO_FAMILY")
            if enriched.node(e.target).get("familyName") == "Rossi"
        }
        assert rossi_members == {"p1", "p2"}
        related = {
            (e.source, e.target) for e in enriched.edges("IS_RELATED_TO")
        }
        assert ("p1", "p2") in related and ("p2", "p1") in related
        assert not any("p3" in pair for pair in related)
        family_owns = {
            (enriched.node(e.source).get("familyName"), e.target)
            for e in enriched.edges("FAMILY_OWNS")
        }
        assert ("Rossi", "B1") in family_owns


class TestViews:
    def test_input_view_accepts_descendant_instances(self, company_schema):
        catalog = catalog_from_super_schema(company_schema)
        views = input_views(company_schema, ["Person"], [], 1, catalog)
        base_rules = [
            r for r in views.rules
            if r.head[0].predicate == "vI_base_Person"
        ]
        # Person plus its five descendants.
        assert len(base_rules) == 6

    def test_output_view_skips_unknown_labels(self, company_schema):
        catalog = catalog_from_super_schema(company_schema)
        views = output_views(company_schema, ["Martian"], ["WARPS"], 1, catalog)
        assert views.rules == []

    def test_optional_attribute_gets_none_default(self, company_schema, materializer):
        from repro.graph.property_graph import PropertyGraph

        data = PropertyGraph()
        # birthDate (optional) missing: the negation default must keep
        # the node visible to Sigma.
        data.add_node(
            "p", "PhysicalPerson", fiscalCode="F", name="N N", surname="N",
            gender="female",
        )
        sigma = parse_metalog(
            "(x: PhysicalPerson; name: n) -> exists c :"
            " (x)[c: IS_RELATED_TO](x)."
        )
        report = materializer.materialize(company_schema, data, sigma, 41)
        assert len(list(report.instance.data.edges("IS_RELATED_TO"))) == 1


class TestDictionaryReuse:
    def test_shared_dictionary_keeps_schema_once(
        self, company_schema, owns_instance, materializer
    ):
        dictionary = GraphDictionary()
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=1,
            dictionary=dictionary,
        )
        nodes_after_first = dictionary.graph.node_count
        # Second instance in the same dictionary.
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=2,
            dictionary=dictionary,
        )
        assert dictionary.graph.node_count > nodes_after_first
        assert dictionary.schema_oids() == [123]

    def test_resumed_run_stays_on_the_production_graph_store(
        self, company_schema, owns_instance, tmp_path
    ):
        """A resume replaces ``dictionary.graph`` with the checkpointed
        one: it must be the store a fresh run builds, not the oracle."""
        sigma = parse_metalog(programs.CONTROL_PROGRAM)

        def run(checkpoint):
            dictionary = GraphDictionary()
            report = IntensionalMaterializer().materialize(
                company_schema, owns_instance, sigma, instance_oid=9,
                dictionary=dictionary, checkpoint=checkpoint,
            )
            graph = report.instance.data
            return report, dictionary, (
                sorted((str(n.id), n.label, sorted(n.properties.items()))
                       for n in graph.nodes()),
                sorted((str(e.source), str(e.target), e.label,
                        sorted(e.properties.items()))
                       for e in graph.edges()),
            )

        _, fresh_dictionary, uninterrupted = run(None)
        run(MaterializationCheckpoint(str(tmp_path)))
        report, dictionary, resumed = run(MaterializationCheckpoint(str(tmp_path)))
        assert report.resumed_from == "reason"
        assert type(fresh_dictionary.graph) is ColumnarPropertyGraph
        assert type(dictionary.graph) is ColumnarPropertyGraph
        assert resumed == uninterrupted
