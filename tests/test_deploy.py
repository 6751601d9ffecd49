"""Deployment backends: relational engine, DDL, graph store, triple store."""

import pytest

from repro.deploy import (
    GRACEFUL,
    STRICT,
    CSVDataset,
    GraphStore,
    RelationalEngine,
    RetryPolicy,
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
from repro.errors import DeploymentError, IntegrityError
from repro.finkg import programs
from repro.graph import make_graph
from repro.graph.property_graph import ABSENT
from repro.metalog import parse_metalog
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
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
# Bulk load == per-record load (the per-record path is the reference)
# ----------------------------------------------------------------------
def per_record_policy():
    """A retrying policy: the loader then writes record by record."""
    return RetryPolicy(max_attempts=2, sleep=lambda _seconds: None)


def on_backend(graph, columnar):
    """``graph`` rebuilt, element by element, on the other backend."""
    clone = make_graph(graph.name, columnar=columnar)
    for node in graph.nodes():
        clone.add_node(node.id, node.label, **node.properties)
    for edge in graph.edges():
        clone.add_edge(
            edge.source, edge.target, edge.label, edge_id=edge.id,
            **edge.properties,
        )
    return clone


def load_both_ways(schema, data, mode=STRICT, prepare=lambda store: None):
    """``(outcome, store)`` of a bulk and of a per-record load of
    ``data`` into equally prepared stores; an outcome is the report or
    the exception raised."""
    results = []
    for policy in (None, per_record_policy()):
        store = deployed_graph_store()
        prepare(store)
        before = graph_store_state(store)
        try:
            outcome = load_graph_store(
                schema, data, store, mode=mode, policy=policy
            )
        except Exception as exc:  # compared below, never swallowed
            outcome = exc
            assert graph_store_state(store) == before  # pristine
        results.append((outcome, store))
    return results


def assert_same_load(bulk, reference, expect_bulk=True):
    (bulk_report, bulk_store), (report, store) = bulk, reference
    assert graph_store_state(bulk_store) == graph_store_state(store)
    for counter in ("nodes", "edges", "skipped_nodes", "skipped_edges",
                    "quarantined", "replayed"):
        assert getattr(bulk_report, counter) == getattr(report, counter), counter
    rejections = [
        sorted(
            (r.kind, str(r.record["id"]), r.reason)
            for r in outcome.quarantine.rejections
        )
        for outcome in (bulk_report, report)
    ]
    assert rejections[0] == rejections[1]
    total = report.nodes + report.edges + report.replayed + (
        report.quarantined - report.skipped
    )
    assert report.per_record == {"retry-policy": total} and not report.bulk_rows
    if expect_bulk:
        assert not bulk_report.per_record
        assert bulk_report.bulk_rows == bulk_report.nodes + bulk_report.edges


def enriched(schema, data, *program_names):
    materializer = IntensionalMaterializer()
    for oid, name in enumerate(program_names, start=21):
        data = materializer.materialize(
            schema, data, parse_metalog(getattr(programs, name)),
            instance_oid=oid,
        ).instance.data
    return data


class TestBulkLoadEqualsPerRecord:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_kgbench_registry_at_500(self, company_schema, columnar):
        _, registry = kgbench_registry(500, 42)
        data = on_backend(
            enriched(company_schema, registry, "CONTROL_PROGRAM"), columnar
        )
        bulk, reference = load_both_ways(company_schema, data)
        assert_same_load(bulk, reference)
        assert bulk[0].bulk_groups == 4  # two node types, two edge types
        assert bulk[0].edges == data.edge_count > registry.edge_count

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
        bulk, reference = load_both_ways(company_schema, data)
        assert_same_load(bulk, reference)
        assert bulk[0].nodes == data.node_count

    @pytest.mark.parametrize("columnar", [True, False])
    def test_interleaved_unlabeled_and_unknown_labels(
        self, company_schema, columnar
    ):
        data = make_graph("mixed", columnar=columnar)
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
            bulk, reference = load_both_ways(company_schema, data, mode=mode)
            assert_same_load(bulk, reference)
            assert bulk[0].skipped_nodes == 4 and bulk[0].skipped_edges == 3
            assert bulk[1].graph.node("n3")["website"] is None  # stored None
            assert "website" not in bulk[1].graph.node("n0").properties

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
        (bulk_error, _), (error, _) = load_both_ways(
            schema, data, prepare=prepare
        )
        assert type(bulk_error) is type(error) is IntegrityError
        assert str(bulk_error) == str(error)  # same rule, same offender

    @pytest.mark.parametrize("case", CASES)
    def test_graceful_quarantine_is_the_per_record_one(self, case):
        schema, data, prepare = self.dirty(case)
        bulk, reference = load_both_ways(
            schema, data, mode=GRACEFUL, prepare=prepare
        )
        assert_same_load(bulk, reference, expect_bulk=False)
        report = bulk[0]
        assert report.quarantined >= 1
        # A refused group went record by record, the others in bulk: the
        # Spaceship alone; the three stakes; or the four businesses and,
        # B2 being quarantined, the stakes that name it.
        refused = (
            1 if case == "unknown label"
            else 3 if "relationship" in case or "endpoints" in case
            else 7
        )
        assert report.per_record == {"integrity-fallback": refused}
        assert report.bulk_rows == data.node_count + data.edge_count - refused

    @pytest.mark.parametrize("case", CASES)
    def test_first_offender_row_by_row(self, case):
        """``create_nodes`` / ``create_relationships`` refuse exactly the
        prefix of rows ``create_node`` / ``create_relationship`` refuse,
        with the same error, and leave the store unchanged."""
        schema, data, prepare = self.dirty(case)
        store, bulk_store = deployed_graph_store(), deployed_graph_store()
        for target in (store, bulk_store):
            prepare(target)
        ancestors = {"Business": ["Business", "LegalPerson", "Person"]}
        errors = []
        for label in data.node_labels():
            labels = ancestors.get(label, [label])
            names = tuple(data.node_property_names(label))
            ids, columns = data.nodes_table(label, names, default=ABSENT)
            rows = list(zip(ids, zip(*columns)))
            written = 0
            try:
                for node_id, row in rows:
                    store.create_node(node_id, labels, **{
                        n: v for n, v in zip(names, row) if v is not ABSENT
                    })
                    written += 1
            except IntegrityError as exc:
                errors.append(str(exc))
                before = graph_store_state(bulk_store)
                with pytest.raises(IntegrityError) as caught:
                    bulk_store.create_nodes(
                        labels, ids[:written + 1], names,
                        [column[:written + 1] for column in columns],
                    )
                assert str(caught.value) == str(exc)
                assert graph_store_state(bulk_store) == before
                ids, columns = ids[:written], [c[:written] for c in columns]
            if written:  # a label outside the schema is refused even empty
                assert bulk_store.create_nodes(
                    labels, ids, names, columns
                ) == written
        for label in data.edge_labels():
            names = tuple(data.edge_property_names(label))
            _, sources, targets, columns = data.edges_table(
                label, names, default=ABSENT
            )
            written = 0
            try:
                for source, target, row in zip(sources, targets, zip(*columns)):
                    store.create_relationship(source, target, label, **{
                        n: v for n, v in zip(names, row) if v is not ABSENT
                    })
                    written += 1
            except IntegrityError as exc:
                errors.append(str(exc))
                with pytest.raises(IntegrityError) as caught:
                    bulk_store.create_relationships(
                        label, sources[:written + 1], targets[:written + 1],
                        names, [column[:written + 1] for column in columns],
                    )
                assert str(caught.value) == str(exc)
                sources, targets = sources[:written], targets[:written]
                columns = [c[:written] for c in columns]
            assert bulk_store.create_relationships(
                label, sources, targets, names, columns
            ) == written
        assert len(errors) >= 1
        assert graph_store_state(bulk_store) == graph_store_state(store)

    def test_stale_mark_is_still_refused(self, company_schema):
        """A delete that interleaves with a failing load makes the
        rollback refuse the stale savepoint, on either path."""
        _, data, _ = self.dirty("undeclared relationship property")
        for policy in (None, per_record_policy()):
            store = deployed_graph_store()
            self.hold(store, "old")
            writer = "create_nodes" if policy is None else "create_node"
            real = getattr(store, writer)

            def deleting(*args, _real=real, _store=store, **kwargs):
                _store.delete_node("old")
                return _real(*args, **kwargs)

            setattr(store, writer, deleting)
            with pytest.raises(DeploymentError, match="stale insertion mark"):
                load_graph_store(company_schema, data, store, policy=policy)
