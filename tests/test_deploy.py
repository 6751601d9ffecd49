"""Deployment backends: relational engine, DDL, graph store, triple store."""

import pytest

from repro.deploy import (
    GRACEFUL,
    STRICT,
    CSVDataset,
    FaultInjector,
    FlushDelta,
    GraphStore,
    RelationalEngine,
    TripleStore,
    generate_cypher_constraints,
    generate_ddl,
    generate_label_documentation,
    generate_rdfs,
    graph_store_state,
    load_graph_store,
    load_triple_store,
    parse_ddl,
)
from repro.cli import main
from repro.core import to_gsl_text
from repro.errors import DeploymentError, IntegrityError
from repro.finkg import programs
from repro.graph import make_graph
from repro.graph.io import save_graph
from repro.graph.property_graph import ABSENT, PropertyGraph
from repro.metalog import parse_metalog
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
from repro.obs import RecordingTracer
from repro.finkg.company_schema import company_super_schema
from repro.ssst import SSST, IntensionalMaterializer
from tests.test_materializer import kgbench_registry, with_extra_people
from tests.test_resilience import deployed_graph_store


@pytest.fixture()
def mini_schema():
    schema = RelationalSchema("mini")
    schema.tables["person"] = Table("person", [
        Column("pid", "string", is_pk=True),
        Column("age", "int", optional=True),
        Column("name", "string"),
    ])
    schema.tables["pet"] = Table("pet", [
        Column("tag", "string", is_pk=True),
        Column("owner_pid", "string"),
    ])
    schema.foreign_keys.append(
        ForeignKey("fk_owner", "pet", ["owner_pid"], "person", ["pid"])
    )
    return schema


@pytest.fixture()
def engine(mini_schema):
    engine = RelationalEngine()
    engine.deploy(mini_schema)
    return engine


class TestRelationalEngine:
    def test_insert_and_select(self, engine):
        engine.insert("person", pid="p1", name="Ada", age=36)
        engine.insert("person", pid="p2", name="Bob")
        assert engine.count("person") == 2
        assert list(engine.select("person", pid="p1"))[0]["name"] == "Ada"

    def test_primary_key_enforced(self, engine):
        engine.insert("person", pid="p1", name="Ada")
        with pytest.raises(IntegrityError):
            engine.insert("person", pid="p1", name="Imposter")

    def test_not_null_enforced(self, engine):
        with pytest.raises(IntegrityError):
            engine.insert("person", pid="p1")  # name missing

    def test_domain_enforced(self, engine):
        with pytest.raises(IntegrityError):
            engine.insert("person", pid="p1", name="Ada", age="old")

    def test_unknown_column_rejected(self, engine):
        with pytest.raises(IntegrityError):
            engine.insert("person", pid="p1", name="A", shoe_size=42)

    def test_foreign_key_enforced(self, engine):
        with pytest.raises(IntegrityError):
            engine.insert("pet", tag="t1", owner_pid="ghost")
        engine.insert("person", pid="p1", name="Ada")
        engine.insert("pet", tag="t1", owner_pid="p1")

    def test_deferred_constraints(self, engine):
        with engine.deferred():
            engine.insert("pet", tag="t1", owner_pid="p1")  # forward ref
            engine.insert("person", pid="p1", name="Ada")
        with pytest.raises(IntegrityError):
            with engine.deferred():
                engine.insert("pet", tag="t2", owner_pid="nobody")

    def test_extract_source_protocol(self, engine):
        engine.insert("person", pid="p1", name="Ada", age=1)
        rows = list(engine.extract("person"))
        assert rows == [("p1", 1, "Ada")]  # pk first, then alphabetical
        assert list(engine.extract("person(name, pid)")) == [("Ada", "p1")]

    def test_unknown_table(self, engine):
        with pytest.raises(DeploymentError):
            engine.insert("ghosts", a=1)


class TestDDL:
    def test_generate_contains_constraints(self, mini_schema):
        ddl = generate_ddl(mini_schema)
        assert "CREATE TABLE person" in ddl
        assert "pid VARCHAR(255) NOT NULL" in ddl
        assert "age INTEGER" in ddl and "age INTEGER NOT NULL" not in ddl
        assert "PRIMARY KEY (pid)" in ddl
        assert "FOREIGN KEY (owner_pid) REFERENCES person (pid)" in ddl

    def test_round_trip(self, mini_schema):
        parsed = parse_ddl(generate_ddl(mini_schema))
        assert set(parsed.tables) == {"person", "pet"}
        person = parsed.table("person")
        assert person.primary_key() == ["pid"]
        assert person.column("age").optional
        assert not person.column("name").optional
        fk = parsed.foreign_keys[0]
        assert (fk.source_table, fk.target_table) == ("pet", "person")

    def test_company_ddl_round_trip(self):
        schema = SSST().translate(company_super_schema(), "relational").target_schema
        parsed = parse_ddl(generate_ddl(schema))
        assert set(parsed.tables) == set(schema.tables)
        for name, table in schema.tables.items():
            assert set(parsed.table(name).primary_key()) == set(table.primary_key())

    def test_parsed_ddl_deploys(self, mini_schema):
        engine = RelationalEngine()
        engine.deploy(parse_ddl(generate_ddl(mini_schema)))
        engine.insert("person", pid="p", name="N")


@pytest.fixture(scope="module")
def pg_store():
    store = GraphStore()
    schema = SSST().translate(company_super_schema(), "property-graph").target_schema
    store.deploy(schema)
    return store, schema


class TestGraphStore:
    def test_multi_label_node(self, pg_store):
        store, _ = pg_store
        store.create_node(
            "b9", ["Business", "LegalPerson", "Person"],
            fiscalCode="F9", businessName="B", legalNature="spa",
            shareholdingCapital=1.0,
        )
        assert store.labels_of("b9") == {"Business", "LegalPerson", "Person"}

    def test_unknown_label_rejected(self, pg_store):
        store, _ = pg_store
        with pytest.raises(IntegrityError):
            store.create_node("x", ["Spaceship"], fiscalCode="F")

    def test_undeclared_property_rejected(self, pg_store):
        store, _ = pg_store
        with pytest.raises(IntegrityError):
            store.create_node(
                "x", ["Person"], fiscalCode="FX", favouriteColor="blue"
            )

    def test_unique_constraint(self, pg_store):
        store, _ = pg_store
        store.create_node("u1", ["Person"], fiscalCode="UNIQ-1")
        with pytest.raises(IntegrityError):
            store.create_node("u2", ["Person"], fiscalCode="UNIQ-1")

    def test_relationship_endpoint_labels_checked(self, pg_store):
        store, _ = pg_store
        store.create_node("pl", ["Place"], placeId="PL", street="s",
                          city="c", postalCode="p")
        with pytest.raises(IntegrityError):
            # RESIDES goes Person -> Place, not Place -> Person.
            store.create_relationship("pl", "u1", "RESIDES")
        store.create_relationship("u1", "pl", "RESIDES")

    def test_cypher_rendering(self, pg_store):
        _, schema = pg_store
        cypher = generate_cypher_constraints(schema)
        assert "REQUIRE n.fiscalCode IS UNIQUE" in cypher
        docs = generate_label_documentation(schema)
        assert "(:Person)" in docs


class TestTripleStore:
    @pytest.fixture()
    def store(self):
        store = TripleStore()
        schema = SSST().translate(company_super_schema(), "rdf").target_schema
        store.deploy(schema)
        return store

    def test_subclass_inference(self, store):
        store.add("b1", "rdf:type", "Business")
        assert "b1" in store.instances_of("LegalPerson")
        assert "b1" in store.instances_of("Person")

    def test_domain_range_typing(self, store):
        store.add("b1", "rdf:type", "Business")
        store.add("b2", "rdf:type", "Business")
        store.add("b1", "OWNS", "b2")
        # rdfs2: the subject of OWNS is typed with its domain (Person).
        assert "b1" in store.instances_of("Person")

    def test_undeclared_predicate_rejected(self, store):
        with pytest.raises(IntegrityError):
            store.add("a", "LIKES", "b")

    def test_domain_violation_rejected(self, store):
        store.add("pl", "rdf:type", "Place")
        with pytest.raises(IntegrityError):
            store.add("pl", "OWNS", "pl")  # a Place cannot own

    def test_pattern_queries(self, store):
        store.add("b1", "rdf:type", "Business")
        store.add("b2", "rdf:type", "Business")
        store.add("b1", "OWNS", "b2")
        assert set(store.extract("OWNS")) == {("b1", "b2")}
        assert ("b1",) in set(store.extract("rdf:type Business"))

    def test_load_work_is_linear_in_the_triples(self, company_schema):
        """A validated add reads its subject's types off an index: the
        triples a load scans plus the index lookups it makes, per triple
        loaded, do not grow with the registry."""
        work = [0]

        class Scanned(set):
            def __iter__(self):
                for triple in set.__iter__(self):
                    work[0] += 1
                    yield triple

        class Probed(dict):
            def get(self, *args):
                work[0] += 1
                return dict.get(self, *args)

            def setdefault(self, *args):
                work[0] += 1
                return dict.setdefault(self, *args)

        per_triple = []
        for companies in (25, 100):
            store = TripleStore()
            store.deploy(SSST().translate(company_schema, "rdf").target_schema)
            store._triples, store._types = Scanned(store._triples), Probed(store._types)
            work[0] = 0
            load_triple_store(company_schema, kgbench_registry(companies, 42)[1], store)
            per_triple.append(work[0] / store.count())
        assert per_triple[1] <= per_triple[0] * 1.1 and per_triple[1] < 4, per_triple

    def test_dropped_edge_attributes_are_counted(
        self, company_schema, tmp_path, capsys
    ):
        """RDF reification is out of scope: the load and the delta count
        every set edge attribute no triple carries, and ``kgmodel load``
        prints the count."""
        data = enriched(
            company_schema, kgbench_registry(200, 42)[1], "CONTROL_PROGRAM"
        )
        expected = sum(
            value is not None
            for edge in data.edges() for value in edge.properties.values()
        )
        store = TripleStore(tracer=RecordingTracer())
        store.deploy(SSST().translate(company_schema, "rdf").target_schema)
        report = load_triple_store(company_schema, data, store)
        assert report.edge_attributes_dropped == expected > 0
        counters = store.tracer.metrics.counters()
        assert counters["deploy.edge_attributes_dropped"] == expected
        assert f"edge-attributes-dropped={expected}" in report.summary()
        b0, b1 = [node.id for node in data.nodes("Business")][:2]
        delta = FlushDelta(added_edges=[
            ("x1", b0, b1, "OWNS", {"percentage": 0.2}),
            ("x2", b0, b1, "CONTROLS", {}),
        ])
        assert store.apply_flush_delta(
            delta, company_schema, data
        ).edge_attributes_dropped == 1
        (tmp_path / "schema.gsl").write_text(to_gsl_text(company_schema))
        save_graph(data, str(tmp_path / "data.json"))
        assert main(["load", str(tmp_path / "schema.gsl"),
                     str(tmp_path / "data.json"), "--target", "triple-store"]) == 0
        assert f"edge-attributes-dropped={expected}" in capsys.readouterr().err

    def test_rdfs_document(self):
        schema = SSST().translate(company_super_schema(), "rdf").target_schema
        doc = generate_rdfs(schema)
        assert "kg:PhysicalPerson rdfs:subClassOf kg:Person ." in doc
        assert "rdfs:domain kg:Person" in doc
        assert "@prefix rdfs:" in doc


class TestLoaders:
    def test_graph_store_loader(self, company_schema, tiny_instance):
        store = GraphStore()
        schema = SSST().translate(
            company_super_schema(), "property-graph"
        ).target_schema
        store.deploy(schema)
        nodes, edges = load_graph_store(company_schema, tiny_instance, store)
        assert nodes == tiny_instance.node_count
        assert edges == tiny_instance.edge_count
        # MTV-style extraction works against the deployed store.
        rows = list(store.extract("(n:Business) return n"))
        assert len(rows) == 3

    def test_triple_store_loader(self, company_schema, tiny_instance):
        store = TripleStore()
        schema = SSST().translate(company_super_schema(), "rdf").target_schema
        store.deploy(schema)
        added = load_triple_store(company_schema, tiny_instance, store)
        assert added > 0
        assert "B1" in store.instances_of("Person")
        assert ("p1", "S0") in set(store.extract("HOLDS"))


class TestCSVModel:
    @pytest.fixture(scope="class")
    def csv_schema(self):
        return SSST().translate(company_super_schema(), "csv").target_schema

    def test_translation_mirrors_relational_layout(self, csv_schema):
        relational = SSST().translate(
            company_super_schema(), "relational"
        ).target_schema
        assert set(csv_schema.files) == set(relational.tables)
        for name, table in relational.tables.items():
            assert set(csv_schema.file(name).header()) == {
                c.name for c in table.columns
            }

    def test_no_constraints_survive(self, csv_schema):
        # The CSV model keeps only a documentation-level isId marker.
        share = csv_schema.file("Share")
        assert "BELONGS_TO_fiscalCode" in share.header()  # bare reference
        id_columns = [c for c in share.columns if c.is_id]
        assert [c.name for c in id_columns] == ["shareId"]

    def test_dataset_round_trip(self, csv_schema):
        dataset = CSVDataset()
        dataset.deploy(csv_schema)
        dataset.append("Person", fiscalCode="X1")
        dataset.append(
            "HOLDS", HOLDS_src_fiscalCode="X1", HOLDS_tgt_shareId="S1",
            right="ownership",
        )
        text = dataset.render("HOLDS")
        assert text.splitlines()[0] == "HOLDS_src_fiscalCode,HOLDS_tgt_shareId,right"
        other = CSVDataset()
        other.deploy(csv_schema)
        assert other.load_text("HOLDS", text) == 1
        assert list(other.extract("HOLDS")) == [("X1", "S1", "ownership")]

    def test_unknown_column_rejected(self, csv_schema):
        dataset = CSVDataset()
        dataset.deploy(csv_schema)
        with pytest.raises(IntegrityError):
            dataset.append("Person", shoeSize=42)

    def test_header_mismatch_rejected(self, csv_schema):
        dataset = CSVDataset()
        dataset.deploy(csv_schema)
        with pytest.raises(IntegrityError):
            dataset.load_text("Person", "wrong,header\n1,2\n")

    def test_none_round_trips_as_empty_cell(self, csv_schema):
        dataset = CSVDataset()
        dataset.deploy(csv_schema)
        dataset.append("Person", fiscalCode="X1")  # RESIDES_placeId absent
        text = dataset.render("Person")
        other = CSVDataset()
        other.deploy(csv_schema)
        other.load_text("Person", text)
        assert other.rows("Person")[0]["RESIDES_placeId"] is None


# ----------------------------------------------------------------------
# Adopted load == per-record load (the per-record path is the reference)
# ----------------------------------------------------------------------
def per_record_store():
    """A store without ``adopt``, a fault-free
    :class:`~repro.deploy.FaultInjector`: the loader then writes record
    by record."""
    return FaultInjector(deployed_graph_store())


def new_graph(name, columnar):
    """An empty graph: the columnar store or the object one."""
    return make_graph(name) if columnar else PropertyGraph(name)


def on_backend(graph, columnar):
    """``graph`` rebuilt, element by element, on either backend."""
    clone = new_graph(graph.name, columnar)
    for node in graph.nodes():
        clone.add_node(node.id, node.label, **node.properties)
    for edge in graph.edges():
        clone.add_edge(
            edge.source, edge.target, edge.label, edge_id=edge.id,
            **edge.properties,
        )
    return clone


def load_both_ways(schema, data, mode=STRICT, prepare=lambda store: None):
    """``(outcome, store)`` of a per-record and an adopting load of
    ``data`` into equally prepared stores; an outcome is the report or
    the exception raised.  The adopting store is a plain one, which
    adopts when it is empty and ``data`` is a clean columnar graph — it
    then shares ``data``'s interner."""
    results = []
    for make in (per_record_store, deployed_graph_store):
        store = make()
        prepare(store)
        before = graph_store_state(store), store_indexes(store)
        try:
            outcome = load_graph_store(schema, data, store, mode=mode)
        except Exception as exc:  # compared below, never swallowed
            outcome = exc
            # pristine
            assert (graph_store_state(store), store_indexes(store)) == before
        results.append((outcome, store))
    return results


def store_indexes(store):
    """Every node's label set and every unique index, as plain dicts."""
    return (
        {node.id: store.labels_of(node.id) for node in store.graph.nodes()},
        {key: dict(index) for key, index in store._unique.items()},
    )


def sorted_edges(store):
    return sorted(
        (str(edge.id), str(edge.source), str(edge.target), edge.label)
        for edge in store.graph.edges()
    )


COUNTERS = ("nodes", "edges", "skipped_nodes", "skipped_edges",
            "quarantined", "replayed")


def assert_same_store(one, other):
    (report, store), (other_report, other_store) = one, other
    assert graph_store_state(store) == graph_store_state(other_store)
    assert sorted_edges(store) == sorted_edges(other_store)
    assert store_indexes(store) == store_indexes(other_store)
    for counter in COUNTERS:
        assert getattr(report, counter) == getattr(other_report, counter), counter
    rejections = [
        sorted(
            (r.kind, str(r.record["id"]), r.reason)
            for r in outcome.quarantine.rejections
        )
        for outcome in (report, other_report)
    ]
    assert rejections[0] == rejections[1]


def assert_same_load(reference, adopted, reason=None):
    """The two loads agree; the reference went record by record, and so
    did the adopting store for ``reason`` unless it adopted (None)."""
    assert_same_store(adopted, reference)
    (report, _), (adopted_report, _) = reference, adopted
    total = report.nodes + report.edges + report.replayed + (
        report.quarantined - report.skipped
    )
    assert report.per_record == {"no-bulk-writer": total}
    assert not report.adopted_rows
    if reason is None:
        assert adopted_report.adopted_rows == report.nodes + report.edges
        assert not adopted_report.per_record and adopted_report.batches == 1
    else:
        assert not adopted_report.adopted_rows
        assert adopted_report.per_record == {reason: total}
        assert adopted_report.batches == report.batches


def enriched(schema, data, *program_names):
    materializer = IntensionalMaterializer()
    for oid, name in enumerate(program_names, start=21):
        data = materializer.materialize(
            schema, data, parse_metalog(getattr(programs, name)),
            instance_oid=oid,
        ).instance.data
    return data


class TestBulkLoadEqualsPerRecord:
    """A load the store adopts, or one that goes record by record for
    another reason, ends as the per-record reference ends."""

    @pytest.mark.parametrize("columnar", [True, False])
    def test_kgbench_registry_at_500(self, company_schema, columnar):
        _, registry = kgbench_registry(500, 42)
        data = on_backend(
            enriched(company_schema, registry, "CONTROL_PROGRAM"), columnar
        )
        reference, adopted = load_both_ways(company_schema, data)
        # The object graph shares no codes with the store.
        assert_same_load(reference, adopted,
                         None if columnar else "not-adoptable")
        assert reference[0].edges == data.edge_count > registry.edge_count

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("chain", [
        ("OWNS_PROGRAM",),
        ("OWNS_PROGRAM", "CONTROL_PROGRAM"),
        ("OWNS_PROGRAM", "STAKEHOLDERS_PROGRAM"),
        ("OWNS_PROGRAM", "FAMILY_PROGRAM"),
    ], ids=lambda chain: chain[-1])
    def test_paper_programs(self, company_schema, tiny_instance, chain, columnar):
        data = on_backend(
            enriched(company_schema, with_extra_people(tiny_instance), *chain),
            columnar,
        )
        reference, adopted = load_both_ways(company_schema, data)
        assert_same_load(reference, adopted,
                         None if columnar else "not-adoptable")
        assert reference[0].nodes == data.node_count

    @pytest.mark.parametrize("columnar", [True, False])
    def test_interleaved_unlabeled_and_unknown_labels(
        self, company_schema, columnar
    ):
        data = new_graph("mixed", columnar)
        for i in range(12):
            if i % 3 == 0:
                data.add_node(
                    f"n{i}", "Business", fiscalCode=f"FC{i}",
                    businessName=f"B{i}", legalNature="spa",
                    shareholdingCapital=float(i),
                    **({"website": None} if i % 2 else {}),
                )
            elif i % 3 == 1:
                data.add_node(
                    f"n{i}", "PhysicalPerson", fiscalCode=f"FC{i}",
                    name=f"N{i}", gender="female",
                    **({"surname": f"S{i}"} if i % 2 else {}),
                )
            else:
                data.add_node(f"n{i}", "Martian" if i % 2 else None, antenna=i)
        for i in range(0, 9, 3):
            data.add_edge(f"n{i + 1}", f"n{i}", "OWNS", percentage=0.5)
            data.add_edge(f"n{i}", f"n{i + 3}", "OWNS")  # no percentage
            data.add_edge(f"n{i + 1}", f"n{i}", "OWNS", percentage=0.5)  # twin
            data.add_edge(f"n{i + 1}", f"n{i}", "WARPS" if i % 2 else None)
        for mode in (STRICT, GRACEFUL):
            reference, adopted = load_both_ways(
                company_schema, data, mode=mode
            )
            # Labels outside the schema: nothing can be adopted.
            assert_same_load(reference, adopted, "not-adoptable")
            assert reference[0].skipped_nodes == 4
            assert reference[0].skipped_edges == 3
            assert adopted[1].graph.node("n3")["website"] is None  # stored None
            assert "website" not in adopted[1].graph.node("n0").properties

    # -- one case per integrity rule -----------------------------------
    @staticmethod
    def business(node_id, **changes):
        properties = dict(
            fiscalCode=f"FC-{node_id}", businessName=f"{node_id} SpA",
            legalNature="spa", shareholdingCapital=1.0,
        )
        properties.update(changes)
        return node_id, "Business", {
            k: v for k, v in properties.items() if v is not ABSENT
        }

    def dirty(self, case):
        """A graph breaking one integrity rule at ``B2``/its edge, the
        loader's schema, and what the store holds beforehand."""
        schema = company_super_schema()
        nodes = [self.business("B0"), self.business("B1"),
                 self.business("B2"), self.business("B3")]
        edges = [("B0", "B1", "OWNS", {"percentage": 0.6}),
                 ("B1", "B2", "OWNS", {"percentage": 0.7}),
                 ("B2", "B3", "OWNS", {"percentage": 0.8})]
        prepare = lambda store: None  # noqa: E731
        if case == "unknown label":
            # A type of the loader's schema the store was not deployed with.
            schema.node("Spaceship").attribute("hull", "string", is_id=True)
            nodes[2] = ("B2", "Spaceship", {"hull": "h"})
            edges = edges[:1]
        elif case == "undeclared property":
            nodes[2] = self.business("B2", favouriteColor="blue")
        elif case == "missing mandatory":
            nodes[2] = self.business("B2", legalNature=ABSENT)
        elif case == "duplicate unique in the batch":
            nodes[2] = self.business("B2", fiscalCode="FC-B0")
        elif case == "duplicate unique against the store":
            def prepare(store):
                self.hold(store, "old", fiscalCode="FC-B2")
        elif case == "disallowed endpoints":
            nodes.append(("pl", "Place", dict(
                placeId="PL", street="s", city="c", postalCode="p")))
            edges[1] = ("pl", "B2", "OWNS", {"percentage": 0.7})
        elif case == "undeclared relationship property":
            edges[1] = ("B1", "B2", "OWNS", {"percentage": 0.7, "colour": "red"})
        data = make_graph(case)
        for node_id, label, properties in nodes:
            data.add_node(node_id, label, **properties)
        for source, target, label, properties in edges:
            data.add_edge(source, target, label, **properties)
        return schema, data, prepare

    def hold(self, store, node_id, **changes):
        """Put a business into ``store`` before the load."""
        _, _, properties = self.business(node_id, **changes)
        store.create_node(
            node_id, ["Business", "LegalPerson", "Person"], **properties
        )

    CASES = [
        "unknown label", "undeclared property", "missing mandatory",
        "duplicate unique in the batch", "duplicate unique against the store",
        "disallowed endpoints", "undeclared relationship property",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_strict_failure_is_the_per_record_one(self, case):
        schema, data, prepare = self.dirty(case)
        (error, _), (adopted_error, _) = load_both_ways(
            schema, data, prepare=prepare
        )
        assert type(error) is type(adopted_error) is IntegrityError
        # Same rule, same offender.
        assert str(error) == str(adopted_error)

    @pytest.mark.parametrize("case", CASES)
    def test_graceful_quarantine_is_the_per_record_one(self, case):
        schema, data, prepare = self.dirty(case)
        reference, adopted = load_both_ways(
            schema, data, mode=GRACEFUL, prepare=prepare
        )
        # A store that held a business replays; an empty one refused the
        # adoption and re-ran every record to quarantine the offender.
        assert_same_load(reference, adopted, (
            "replay" if case == "duplicate unique against the store"
            else "integrity-fallback"
        ))
        assert reference[0].quarantined >= 1

    @pytest.mark.parametrize("case", CASES)
    def test_first_offender_row_by_row(self, case):
        """The checks adoption runs on a label group refuse exactly the
        first row ``create_node`` / ``create_relationship`` refuse, with
        the same error, pass the rows before it, and leave the store
        unchanged."""
        schema, data, prepare = self.dirty(case)
        store = deployed_graph_store()
        prepare(store)
        ancestors = {"Business": ["Business", "LegalPerson", "Person"]}

        def first_offender(rows, write):
            """How many ``rows`` the store takes one by one, and the
            error of the next; the store is left as it was."""
            savepoint, written, error = store.savepoint(), 0, None
            try:
                for row in rows:
                    write(*row)
                    written += 1
            except IntegrityError as exc:
                error = exc
            store.rollback_to(savepoint)
            store.release(savepoint)
            return written, error

        def checked(check, written, error, columns):
            before = graph_store_state(store), store_indexes(store)
            if error is not None:
                with pytest.raises(IntegrityError) as caught:
                    check(*(column[:written + 1] for column in columns))
                assert str(caught.value) == str(error)
                errors.append(str(error))
            if written:  # a label outside the schema is refused even empty
                check(*(column[:written] for column in columns))
            assert (graph_store_state(store), store_indexes(store)) == before

        def ends(sources, targets):
            labels = lambda node: frozenset(store.labels_of(node))  # noqa: E731
            return set(zip(map(labels, sources), map(labels, targets)))

        errors = []
        for label in data.node_labels():
            labels = ancestors.get(label, [label])
            names = tuple(data.node_property_names(label))
            ids, columns = data.nodes_table(label, names, default=ABSENT)
            rows = [
                (node_id, {n: v for n, v in zip(names, row) if v is not ABSENT})
                for node_id, row in zip(ids, zip(*columns))
            ]
            write = lambda node_id, properties: store.create_node(  # noqa: E731
                node_id, labels, **properties)
            written, error = first_offender(rows, write)
            checked(
                lambda ids, *columns: store._check_nodes(
                    labels, ids, names, list(columns)),
                written, error, [ids, *columns],
            )
            for row in rows[:written]:
                write(*row)
        for label in data.edge_labels():
            names = tuple(data.edge_property_names(label))
            _, sources, targets, columns = data.edges_table(
                label, names, default=ABSENT
            )
            rows = [
                (source, target,
                 {n: v for n, v in zip(names, row) if v is not ABSENT})
                for source, target, row in zip(sources, targets, zip(*columns))
            ]
            write = lambda source, target, properties: (  # noqa: E731
                store.create_relationship(source, target, label, **properties))
            written, error = first_offender(rows, write)
            checked(
                lambda sources, targets, *columns: store._check_relationships(
                    label, sources, targets, names, list(columns),
                    ends(sources, targets)),
                written, error, [sources, targets, *columns],
            )
            for row in rows[:written]:
                write(*row)
        assert len(errors) >= 1

    def test_interleaved_delete_is_rolled_back(self, company_schema):
        """A delete that interleaves with a failing load is undone with
        the load's writes, on either store: the store ends as it began."""
        _, data, _ = self.dirty("undeclared relationship property")
        for make in (deployed_graph_store, per_record_store):
            store = make()
            self.hold(store, "old")
            before = graph_store_state(store)
            real = store.create_node

            def deleting(*args, _real=real, _store=store, **kwargs):
                _store.delete_node("old")
                return _real(*args, **kwargs)

            store.create_node = deleting
            with pytest.raises(IntegrityError):
                load_graph_store(company_schema, data, store)
            assert graph_store_state(store) == before


# ----------------------------------------------------------------------
# Adoption: a load into an empty store takes the instance's graph over
# ----------------------------------------------------------------------
def graph_snapshot(graph):
    """Every element of ``graph`` with its id, label and properties."""
    properties = lambda element: sorted(  # noqa: E731
        (name, str(value)) for name, value in element.properties.items()
    )
    return (
        sorted((str(n.id), n.label, properties(n)) for n in graph.nodes()),
        sorted(
            (str(e.id), str(e.source), str(e.target), e.label, properties(e))
            for e in graph.edges()
        ),
    )


def extractions(store):
    """Every ``extract`` of the store's catalog, in the order it yields."""
    catalog = store.catalog()
    return {
        query: list(store.extract(query)) for query in [
            f"(n:{label}) return n" for label in catalog.node_properties
        ] + [
            f"(a)-[e:{label}]->(b) return (e, a, b)"
            for label in catalog.edge_properties
        ]
    }


class TestAdoption:
    @pytest.mark.parametrize("companies", [500, 2000])
    @pytest.mark.parametrize("seed", [7, 42])
    def test_adopted_store_is_the_written_one(
        self, company_schema, seed, companies
    ):
        _, registry = kgbench_registry(companies, seed)
        data = enriched(company_schema, registry, "CONTROL_PROGRAM")
        written, adopted = per_record_store(), deployed_graph_store()
        reports = [
            load_graph_store(company_schema, data, store)
            for store in (written, adopted)
        ]
        assert reports[1].adopted_rows == data.node_count + data.edge_count
        assert reports[0].per_record == {"no-bulk-writer": reports[1].adopted_rows}
        assert_same_store((reports[0], written), (reports[1], adopted))
        assert extractions(adopted) == extractions(written)
        # The next edge the store mints is the one the written store mints.
        for store in (written, adopted):
            source = next(store.nodes_with_label("Business")).id
            store.create_relationship(source, source, "CONTROLS")
        assert sorted_edges(adopted) == sorted_edges(written)

    def test_minted_oids_skip_node_oids_and_dead_edges_stay_dead(
        self, company_schema
    ):
        """Edges of a graph that lost some elements, between nodes whose
        OIDs look minted: the adopted store skips the OIDs the nodes
        hold, as the written one does, and holds no removed edge."""
        data = make_graph("tricky")
        business = TestBulkLoadEqualsPerRecord.business
        for node_id in ("e2", "e4", "b", "gone"):
            node_id, label, properties = business(node_id)
            data.add_node(node_id, label, **properties)
        for source, target in [("b", "e2"), ("e2", "e4"), ("b", "gone"),
                               ("e4", "b"), ("b", "e4"), ("e2", "b")]:
            data.add_edge(source, target, "OWNS", percentage=0.3)
            data.add_edge(source, target, "CONTROLS")
        data.remove_node("gone")
        data.remove_edge("e1")  # the first OWNS, under the graph's own OID
        written, adopted = per_record_store(), deployed_graph_store()
        reports = [
            load_graph_store(company_schema, data, store)
            for store in (written, adopted)
        ]
        assert reports[1].adopted_rows == data.node_count + data.edge_count
        assert_same_store((reports[0], written), (reports[1], adopted))
        assert {"e2", "e4"}.isdisjoint(edge[0] for edge in sorted_edges(adopted))
        assert extractions(adopted) == extractions(written)

    def adopted_store(self, company_schema, data):
        store = deployed_graph_store()
        report = load_graph_store(company_schema, data, store)
        assert report.adopted_rows == data.node_count + data.edge_count
        return store

    def instance(self, company_schema):
        return enriched(
            company_schema, kgbench_registry(60, 3)[1], "CONTROL_PROGRAM"
        )

    def test_the_store_and_the_instance_do_not_alias(self, company_schema):
        data = self.instance(company_schema)
        store = self.adopted_store(company_schema, data)
        stored = graph_store_state(store), sorted_edges(store)
        business = next(data.nodes("Business")).id
        data.node(business).properties["businessName"] = "renamed"
        data.remove_node(next(data.nodes("PhysicalPerson")).id)
        data.add_node("fresh", "Business", fiscalCode="FC-fresh")
        assert (graph_store_state(store), sorted_edges(store)) == stored
        # And the other way round.
        data = self.instance(company_schema)
        held = graph_snapshot(data)
        store = self.adopted_store(company_schema, data)
        store.update_node_properties(
            business, dict(store.graph.node(business).properties, website="w")
        )
        store.delete_node(next(store.nodes_with_label("PhysicalPerson")).id)
        store.create_node("fresh", ["Person"], fiscalCode="FC-fresh")
        store.create_relationship("fresh", business, "OWNS", percentage=0.1)
        assert graph_snapshot(data) == held

    def test_rollback_leaves_an_empty_store(self, company_schema):
        data = self.instance(company_schema)
        store = deployed_graph_store()
        empty = graph_store_state(store), store_indexes(store)
        savepoint = store.savepoint()
        report = load_graph_store(company_schema, data, store)
        assert report.adopted_rows and store.graph.node_count
        store.rollback_to(savepoint)
        store.release(savepoint)
        assert (graph_store_state(store), store_indexes(store)) == empty
        assert not store.graph.node_count and not store.graph.edge_count
        assert not list(store.extract("(n:Business) return n"))
        again = load_graph_store(company_schema, data, store)
        assert again.adopted_rows == report.adopted_rows
        written = per_record_store()
        report = load_graph_store(company_schema, data, written)
        assert_same_store((again, store), (report, written))


class TestUpdateNodeProperties:
    def store(self):
        store = deployed_graph_store()
        for node_id in ("c1", "c2"):
            store.create_node(
                node_id, ["Business", "LegalPerson", "Person"],
                fiscalCode=f"FC-{node_id}", businessName=node_id,
                legalNature="spa", shareholdingCapital=1.0,
            )
        store.create_relationship("c1", "c2", "OWNS", percentage=0.6)
        return store

    def test_a_replacement_must_keep_the_mandatory_properties(self):
        store = self.store()
        before = graph_store_state(store), store_indexes(store)
        dropped = dict(store.graph.node("c1").properties)
        del dropped["fiscalCode"]
        with pytest.raises(IntegrityError, match="mandatory property 'fiscalCode'"):
            store.update_node_properties("c1", dropped)
        assert (graph_store_state(store), store_indexes(store)) == before
        # An optional property may come and go; an intensional one is
        # exempt until reasoning sets it.
        kept = dict(store.graph.node("c1").properties, website="w")
        store.update_node_properties("c1", kept)
        del kept["website"]
        store.update_node_properties("c1", kept)
        assert store.graph.node("c1").properties == kept

    def test_a_flush_delta_dropping_one_is_rolled_back_whole(self):
        store = self.store()
        before = graph_store_state(store), store_indexes(store)
        old = dict(store.graph.node("c2").properties)
        dropped = {k: v for k, v in old.items() if k != "fiscalCode"}
        delta = FlushDelta(
            removed_edges=[("e1", "c1", "c2", "OWNS", {"percentage": 0.6})],
            updated_nodes=[
                ("c1", "Business", dict(old, fiscalCode="FC-c1",
                                        businessName="renamed"), {}),
                ("c2", "Business", dropped, old),
            ],
            added_nodes=[("c3", "Business", dict(old, fiscalCode="FC-c3"))],
        )
        with pytest.raises(IntegrityError, match="mandatory property"):
            store.apply_flush_delta(delta, company_super_schema())
        assert (graph_store_state(store), store_indexes(store)) == before
