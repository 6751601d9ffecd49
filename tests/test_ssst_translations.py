"""SSST schema translations: Figures 5, 6, 7, 8 and the RDF mapping."""

import pytest

from repro.errors import ModelError
from repro.finkg.company_schema import company_super_schema
from repro.models import (
    PROPERTY_GRAPH_MODEL,
    RDF_MODEL,
    RELATIONAL_MODEL,
    default_repository,
)
from repro.ssst import SSST


@pytest.fixture(scope="module")
def pg_result():
    return SSST().translate(company_super_schema(), "property-graph")


@pytest.fixture(scope="module")
def rel_result():
    return SSST().translate(company_super_schema(), "relational")


@pytest.fixture(scope="module")
def rdf_result():
    return SSST().translate(company_super_schema(), "rdf")


class TestModelDefinitions:
    def test_figure5_construct_table(self):
        table = PROPERTY_GRAPH_MODEL.construct_table()
        assert "Node" in table and "SM_Node" in table
        specializations = {
            c.name: c.specializes for c in PROPERTY_GRAPH_MODEL.constructs
        }
        assert specializations["Node"] == "SM_Node"
        assert specializations["Relationship"] == "SM_Edge"
        assert specializations["Label"] == "SM_Type"

    def test_figure7_construct_table(self):
        specializations = {
            c.name: c.specializes for c in RELATIONAL_MODEL.constructs
        }
        assert specializations["Relation"] == "SM_Type"
        assert specializations["Field"] == "SM_Attribute"
        assert specializations["Predicate"] == "SM_Node"
        assert specializations["ForeignKey"] == "SM_Edge"
        assert specializations["HAS_SOURCE_FIELD"] == "SM_HAS_EDGE_PROPERTY"

    def test_rdf_keeps_generalization(self):
        specializations = {c.name: c.specializes for c in RDF_MODEL.constructs}
        assert specializations["SUBCLASS_OF"] == "SM_Generalization"

    def test_repository_selection(self):
        repo = default_repository()
        assert repo.select("property-graph").strategy == "multi-label"
        assert repo.select("property-graph", "child-edges").strategy == "child-edges"
        with pytest.raises(ModelError):
            repo.select("property-graph", "no-such")
        with pytest.raises(ModelError):
            repo.select("graphql")
        assert set(repo.models()) == {"property-graph", "relational", "rdf", "csv"}


class TestFigure6PGTranslation:
    def test_type_accumulation(self, pg_result):
        schema = pg_result.target_schema
        listed = schema.node_class_by_label("PublicListedCompany")
        assert set(listed.labels) == {
            "PublicListedCompany", "Business", "LegalPerson", "Person",
        }
        assert listed.labels[0] == "PublicListedCompany"  # primary first
        person = schema.node_class_by_label("Person")
        assert person.labels == ["Person"]

    def test_attribute_inheritance(self, pg_result):
        schema = pg_result.target_schema
        business = schema.node_class_by_label("Business")
        names = {p.name for p in business.properties}
        assert {"fiscalCode", "businessName", "legalNature",
                "shareholdingCapital"} <= names
        # Parent does NOT gain child attributes.
        person = schema.node_class_by_label("Person")
        assert {p.name for p in person.properties} == {"fiscalCode"}

    def test_edge_inheritance(self, pg_result):
        schema = pg_result.target_schema
        by_source = {}
        for relationship in schema.relationship_classes:
            if relationship.name == "HOLDS":
                source = schema.node_class_by_oid(relationship.source_oid)
                by_source[source.primary_label] = relationship
        # HOLDS declared on Person is inherited by every descendant.
        assert {"Person", "PhysicalPerson", "LegalPerson", "Business",
                "NonBusiness", "PublicListedCompany"} <= set(by_source)
        assert all(
            {p.name for p in r.properties} == {"right"}
            for r in by_source.values()
        )

    def test_generalizations_gone(self, pg_result):
        assert "IS_A" not in pg_result.target_schema.relationship_names()

    def test_unique_constraint_propagates(self, pg_result):
        constraints = pg_result.target_schema.unique_constraints()
        labels = {label for label, prop in constraints if prop == "fiscalCode"}
        assert "Person" in labels and "Business" in labels

    def test_intensional_marking_survives(self, pg_result):
        schema = pg_result.target_schema
        controls = [r for r in schema.relationship_classes if r.name == "CONTROLS"]
        assert controls and all(r.intensional for r in controls)
        family = schema.node_class_by_label("Family")
        assert family.intensional

    def test_intermediate_schema_is_a_super_schema(self, pg_result):
        intermediate = pg_result.intermediate_super_schema()
        assert intermediate.generalizations == []
        assert {n.type_name for n in intermediate.nodes} >= {
            "Person", "Business", "Share",
        }


class TestChildEdgesStrategy:
    def test_is_a_edges_instead_of_inheritance(self):
        result = SSST().translate(
            company_super_schema(), "property-graph", strategy="child-edges"
        )
        schema = result.target_schema
        assert "IS_A" in schema.relationship_names()
        physical = schema.node_class_by_label("PhysicalPerson")
        assert physical.labels == ["PhysicalPerson"]  # no accumulation
        assert "fiscalCode" not in {p.name for p in physical.properties}
        is_a_count = sum(
            1 for r in schema.relationship_classes if r.name == "IS_A"
        )
        assert is_a_count == 6  # one per generalization member
        # E-ABL (a): the 11 declared relationships plus IS_A, where the
        # multi-label tactic copies relationships down the hierarchy.
        assert len(schema.relationship_classes) == 11 + 6
        multi_label = SSST().translate(
            company_super_schema(), "property-graph"
        ).target_schema
        assert len(multi_label.relationship_classes) == 47


class TestFigure8RelationalTranslation:
    def test_per_member_tables(self, rel_result):
        schema = rel_result.target_schema
        assert {"Person", "PhysicalPerson", "LegalPerson", "Business",
                "NonBusiness", "PublicListedCompany"} <= set(schema.tables)

    def test_child_pk_doubles_as_fk(self, rel_result):
        schema = rel_result.target_schema
        business = schema.table("Business")
        assert business.primary_key() == ["isA_Business_fiscalCode"]
        fk = next(f for f in schema.foreign_keys if f.name == "isA_Business")
        assert fk.source_table == "Business"
        assert fk.target_table == "LegalPerson"
        assert fk.target_columns == ["isA_LegalPerson_fiscalCode"]

    def test_many_to_many_reified(self, rel_result):
        schema = rel_result.target_schema
        holds = schema.table("HOLDS")
        names = {c.name for c in holds.columns}
        assert names == {"HOLDS_src_fiscalCode", "HOLDS_tgt_shareId", "right"}
        fk_names = {f.name for f in schema.foreign_keys
                    if f.source_table == "HOLDS"}
        assert fk_names == {"HOLDS_src", "HOLDS_tgt"}

    def test_many_to_one_becomes_fk_column(self, rel_result):
        schema = rel_result.target_schema
        share = schema.table("Share")
        belongs = share.column("BELONGS_TO_fiscalCode")
        assert not belongs.optional  # 1..1 target cardinality
        resides = schema.table("Person").column("RESIDES_placeId")
        assert resides.optional  # 0..1 target cardinality

    def test_intensional_attribute_is_nullable(self, rel_result):
        column = rel_result.target_schema.table("Business").column(
            "numberOfStakeholders"
        )
        assert column.optional

    def test_edge_attributes_land_on_bridge_or_holder(self, rel_result):
        schema = rel_result.target_schema
        assert "role" in {c.name for c in schema.table("HAS_ROLE").columns}
        # RESIDES has no attributes; its info is the FK column itself.
        assert "RESIDES" not in schema.tables


class TestRDFTranslation:
    def test_generalizations_survive_as_subclass_of(self, rdf_result):
        schema = rdf_result.target_schema
        assert ("PhysicalPerson", "Person") in schema.subclass_of
        assert ("PublicListedCompany", "Business") in schema.subclass_of
        assert len(schema.subclass_of) == 6

    def test_properties_typed_with_domains(self, rdf_result):
        schema = rdf_result.target_schema
        fiscal = next(
            p for p in schema.datatype_properties if p.name == "fiscalCode"
        )
        assert fiscal.domain == "Person"
        owns = next(p for p in schema.object_properties if p.name == "OWNS")
        assert (owns.domain, owns.range) == ("Person", "Business")


class TestAlgorithmBookkeeping:
    def test_phase_stats_recorded(self, pg_result):
        assert set(pg_result.phase_stats) == {"eliminate", "copy"}
        assert pg_result.phase_stats["eliminate"]["new_nodes"] > 0
        assert pg_result.phase_stats["copy"]["seconds"] >= 0

    def test_source_and_target_oids(self, pg_result):
        assert pg_result.source_oid == 123
        assert pg_result.intermediate_oid == "123-"
        assert pg_result.target_oid == "property-graph:123"

    def test_translation_is_deterministic(self):
        first = SSST().translate(company_super_schema(), "relational")
        second = SSST().translate(company_super_schema(), "relational")
        tables_a = {
            name: [c.name for c in t.columns]
            for name, t in first.target_schema.tables.items()
        }
        tables_b = {
            name: [c.name for c in t.columns]
            for name, t in second.target_schema.tables.items()
        }
        assert tables_a == tables_b
