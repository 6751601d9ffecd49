"""Rendering (Gamma functions), textual GSL, and instance constructs."""

import pytest

from repro.core import (
    SuperInstance,
    SuperSchema,
    parse_gsl,
    render_metamodel,
    render_super_schema,
    schema_to_dot,
    supermodel_table,
)
from repro.core.dictionary import GraphDictionary, dictionary_catalog
from repro.core.instances import decode_instance, encode_instance
from repro.errors import ParseError, SchemaError
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.vadalog.database import Database


class TestRendering:
    def test_metamodel_graphemes(self):
        graphemes = render_metamodel()
        kinds = {g.kind for g in graphemes}
        assert kinds == {"node-box", "attribute-lollipop", "edge-arrow"}
        assert sum(1 for g in graphemes if g.kind == "node-box") == 3

    def test_supermodel_table_mentions_graphemes(self):
        table = supermodel_table()
        assert "SM_Node" in table and "dashed" in table
        assert "single-headed thick solid black arrow" in table
        assert "[no explicit notation]" in table  # gray-background rows

    def test_schema_graphemes(self, company_schema):
        graphemes = render_super_schema(company_schema)
        by_kind = {}
        for g in graphemes:
            by_kind.setdefault(g.kind, []).append(g)
        assert len(by_kind["node-box"]) == len(company_schema.nodes)
        # Intensional constructs rendered dashed.
        controls = next(
            g for g in by_kind["edge-arrow"] if "CONTROLS" in g.text
        )
        assert controls.line_style == "dashed"
        # Identifying attribute lollipop is underlined-filled.
        fiscal = next(
            g for g in by_kind["attribute-lollipop"]
            if g.text == "Person.fiscalCode"
        )
        assert fiscal.detail["lollipop"] == "underlined filled"
        # Total-disjoint generalizations: single-headed solid arrows.
        generalization = next(
            g for g in by_kind["generalization-arrow"]
            if "PhysicalPerson" in g.text
        )
        assert generalization.detail == {"total": True, "disjoint": True, "heads": 1}

    def test_dot_output_is_structurally_sound(self, company_schema):
        dot = schema_to_dot(company_schema)
        assert dot.startswith('digraph "CompanyKG"')
        assert dot.rstrip().endswith("}")
        assert dot.count('"Person"') >= 2  # node plus edge references
        assert "style=dashed" in dot  # intensional edges
        assert "penwidth=2.5" in dot  # generalization arrows


class TestGSLText:
    def test_company_like_schema(self):
        schema = parse_gsl("""
        schema Mini oid 42 {
          node Person {
            id fiscalCode: string unique
            optional birthDate: date
          }
          node Business {
            capital: float range(0, 1000000)
            intensional stakeholders: int
          }
          generalization total disjoint Person -> Business, Individual
          node Individual { gender: string enum("f", "m") }
          edge OWNS Person 0..N -> 0..N Business { percentage: float }
          intensional edge CONTROLS Person -> Business
        }
        """)
        assert schema.schema_oid == 42
        assert schema.get_edge("CONTROLS").is_intensional
        assert schema.get_node("Business").get_attribute("stakeholders").is_intensional
        generalization = schema.generalizations[0]
        assert generalization.is_total and generalization.is_disjoint
        assert schema.validate() == []

    def test_matches_programmatic_construction(self):
        text = parse_gsl("""
        schema T oid 9 {
          node A { id k: string }
          node B { id k2: string }
          edge R A 1..1 -> 0..N B
        }
        """)
        code = SuperSchema("T", 9)
        a = code.node("A")
        a.attribute("k", is_id=True)
        b = code.node("B")
        b.attribute("k2", is_id=True)
        code.edge("R", a, b, source_card="1..1", target_card="0..N")
        assert text.get_edge("R").multiplicity == code.get_edge("R").multiplicity
        assert text.get_edge("R").cardinality_labels() == \
            code.get_edge("R").cardinality_labels()

    def test_forward_references_work(self):
        schema = parse_gsl("""
        schema F {
          edge R A -> B
          node A { id k: string }
          node B { id j: string }
        }
        """)
        assert schema.get_edge("R").source.type_name == "A"

    def test_id_edge_attribute_rejected(self):
        with pytest.raises(SchemaError):
            parse_gsl("""
            schema Bad {
              node A { id k: string }
              edge R A -> A { id w: string }
            }
            """)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_gsl("schema S { node A { id k: string } } extra")


class TestInstances:
    def test_round_trip_preserves_everything(self, company_schema, tiny_instance):
        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        instance = SuperInstance.from_plain_graph(
            company_schema, tiny_instance, instance_oid=234
        )
        instance.to_dictionary(dictionary.graph)
        back = SuperInstance.from_dictionary(dictionary.graph, company_schema, 234)
        assert back.data.node_count == tiny_instance.node_count
        assert back.data.edge_count == tiny_instance.edge_count
        ada = back.data.node("p1")
        assert ada.label == "PhysicalPerson"
        assert ada.get("surname") == "Rossi"
        holds = next(e for e in back.data.edges("HOLDS") if e.source == "p1")
        assert holds.get("right") == "ownership"

    def test_unknown_label_rejected_when_strict(self, company_schema):
        data = PropertyGraph()
        data.add_node(1, "Alien")
        with pytest.raises(SchemaError):
            SuperInstance.from_plain_graph(company_schema, data, 1, strict=True)
        relaxed = SuperInstance.from_plain_graph(
            company_schema, data, 1, strict=False
        )
        assert relaxed.data.node_count == 1

    def test_unmodeled_property_is_dropped(self, company_schema):
        data = PropertyGraph()
        data.add_node("b", "Business", fiscalCode="X", mood="sunny",
                      businessName="B", legalNature="spa",
                      shareholdingCapital=1.0)
        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        SuperInstance.from_plain_graph(company_schema, data, 7).to_dictionary(
            dictionary.graph
        )
        back = SuperInstance.from_dictionary(dictionary.graph, company_schema, 7)
        assert back.data.node("b").get("mood") is None
        assert back.data.node("b").get("fiscalCode") == "X"

    @pytest.mark.parametrize("columnar", [True, False])
    def test_stored_none_next_to_a_missing_property_in_one_run(
        self, company_schema, columnar
    ):
        """One run of the decoder writes a stored ``None`` as a value
        and leaves a missing property missing, on nodes and edges."""
        data = make_graph("nones", columnar=columnar)
        for node_id, website in (("b1", None), ("b2", ABSENT), ("b3", "w")):
            data.add_node(
                node_id, "Business", fiscalCode=node_id, businessName=node_id,
                legalNature="spa", shareholdingCapital=1.0,
                **({} if website is ABSENT else {"website": website}),
            )
        data.add_edge("b1", "b2", "OWNS", edge_id="o1", percentage=None)
        data.add_edge("b2", "b3", "OWNS", edge_id="o2")
        data.add_edge("b1", "b3", "OWNS", edge_id="o3", percentage=0.5)
        company_schema.ensure_attribute_oids()
        database = Database(columnar=columnar)
        encode_instance(company_schema, 5, data, database.add_columns)
        back = decode_instance(company_schema, 5, database.columns).data
        assert [n.id for n in back.nodes()] == ["b1", "b2", "b3"]  # one run
        for graph in (data, back):
            assert graph.node("b1").properties["website"] is None
            assert "website" not in graph.node("b2").properties
            assert graph.node("b3")["website"] == "w"
            assert graph.edge("o1").properties == {"percentage": None}
            assert graph.edge("o2").properties == {}
            assert graph.edge("o3").properties == {"percentage": 0.5}
        names = list(back.node("b1").properties)  # in link order
        assert list(back.node("b2").properties) == [
            name for name in names if name != "website"
        ]

    def test_two_instances_coexist(self, company_schema):
        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        for oid, name in ((1, "X"), (2, "Y")):
            data = PropertyGraph()
            data.add_node(name, "Business", fiscalCode=name, businessName=name,
                          legalNature="spa", shareholdingCapital=1.0)
            SuperInstance.from_plain_graph(company_schema, data, oid).to_dictionary(
                dictionary.graph
            )
        first = SuperInstance.from_dictionary(dictionary.graph, company_schema, 1)
        assert first.data.node_count == 1
        assert first.data.has_node("X") and not first.data.has_node("Y")

    def test_dictionary_catalog_covers_instance_labels(self):
        catalog = dictionary_catalog()
        assert "I_SM_Node" in catalog.node_properties
        assert catalog.node_properties["I_SM_Attribute"] == ["instanceOID", "value"]
        assert "SM_REFERENCES" in catalog.edge_properties


class TestGSLSerialization:
    def test_company_kg_round_trip(self, company_schema):
        from repro.core import to_gsl_text

        text = to_gsl_text(company_schema)
        back = parse_gsl(text)
        assert {n.type_name for n in back.nodes} == {
            n.type_name for n in company_schema.nodes
        }
        for edge in company_schema.edges:
            reparsed = back.get_edge(edge.type_name)
            assert reparsed.multiplicity == edge.multiplicity
            assert reparsed.is_intensional == edge.is_intensional
            assert reparsed.cardinality_labels() == edge.cardinality_labels()
        for original, reparsed in zip(
            company_schema.generalizations, back.generalizations
        ):
            assert reparsed.is_total == original.is_total
            assert reparsed.is_disjoint == original.is_disjoint

    def test_modifiers_round_trip(self, company_schema):
        from repro.core import to_gsl_text
        from repro.core.supermodel import (
            SMEnumAttributeModifier,
            SMRangeAttributeModifier,
            SMUniqueAttributeModifier,
        )

        back = parse_gsl(to_gsl_text(company_schema))
        fiscal = back.get_node("Person").get_attribute("fiscalCode")
        assert any(isinstance(m, SMUniqueAttributeModifier) for m in fiscal.modifiers)
        gender = back.get_node("PhysicalPerson").get_attribute("gender")
        enum = next(m for m in gender.modifiers if isinstance(m, SMEnumAttributeModifier))
        assert set(enum.values) == {"female", "male"}
        capital = back.get_node("Business").get_attribute("shareholdingCapital")
        half_open = next(
            m for m in capital.modifiers if isinstance(m, SMRangeAttributeModifier)
        )
        assert half_open.minimum == 0.0 and half_open.maximum is None

    def test_double_round_trip_is_stable(self, company_schema):
        from repro.core import to_gsl_text

        once = to_gsl_text(company_schema)
        twice = to_gsl_text(parse_gsl(once))
        assert once == twice
