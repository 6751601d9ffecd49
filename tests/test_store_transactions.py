"""One savepoint protocol for the three deployment stores.

:class:`~repro.deploy.GraphStore`, :class:`~repro.deploy.TripleStore` and
:class:`~repro.deploy.RelationalEngine` each journal the inverse of every
mutation on an :class:`~repro.deploy.UndoLog` while a savepoint is open.
The battery below drives each store through seeded interleavings of
inserts, bulk writes, deletes and updates (the relational engine's by
primary key among them) inside nested savepoints and checks that every
rollback restores the store's state; the flush-delta
tests check that a delta a store refuses — on its last insert, after a
removal and an update — leaves the store as it was.
"""

import random

import pytest

from repro.deploy import (
    FlushDelta,
    GraphStore,
    RelationalEngine,
    TripleStore,
    graph_store_state,
    load_graph_store,
    load_triple_store,
)
from repro.errors import IntegrityError
from repro.finkg.company_schema import company_super_schema
from repro.graph import make_graph
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
from repro.obs import RecordingTracer
from repro.ssst import SSST
from tests.reference import object_graph_store

BUSINESS = ["Business", "LegalPerson", "Person"]


def business(number, **changes):
    properties = {
        "fiscalCode": f"FC{number}", "businessName": f"B{number} SpA",
        "legalNature": "spa", "shareholdingCapital": 1.0,
    }
    properties.update(changes)
    return properties


def deployed(kind, **kwargs):
    if kind == "relational":
        schema = RelationalSchema("mini")
        schema.tables["person"] = Table("person", [
            Column("pid", "string", is_pk=True), Column("name", "string"),
        ])
        schema.tables["pet"] = Table("pet", [
            Column("tag", "string", is_pk=True),
            Column("owner_pid", "string"),
        ])
        schema.foreign_keys.append(
            ForeignKey("fk_owner", "pet", ["owner_pid"], "person", ["pid"])
        )
        store = RelationalEngine(**kwargs)
        store.deploy(schema)
        return store
    if kind == "triple":
        store = TripleStore(**kwargs)
        store.deploy(SSST().translate(company_super_schema(), "rdf").target_schema)
        return store
    make = GraphStore if kind == "graph-columnar" else object_graph_store
    store = make(**kwargs)
    store.deploy(
        SSST().translate(company_super_schema(), "property-graph").target_schema
    )
    return store


# ----------------------------------------------------------------------
# The savepoint battery
# ----------------------------------------------------------------------
class Driver:
    """Random ``insert`` / ``bulk`` / ``delete`` / ``update`` mutations of
    one store, and its ``state``; ``new`` numbers fresh keys."""

    def __init__(self, store):
        self.store = store
        self.fresh = 0

    def new(self):
        self.fresh += 1
        return self.fresh


class GraphStoreDriver(Driver):
    """The graph store; its state is the elements with their labels,
    plus the unique indexes."""

    def nodes(self):
        return [node.id for node in self.store.graph.nodes()]

    def insert(self, rng):
        nodes = self.nodes()
        if nodes and rng.random() < 0.5:
            self.store.create_relationship(
                rng.choice(nodes), rng.choice(nodes), "OWNS",
                percentage=rng.random(),
            )
        else:
            number = self.new()
            self.store.create_node(f"b{number}", BUSINESS, **business(number))

    def bulk(self, rng):
        """A nested :func:`~repro.deploy.load_graph_store` of a few
        businesses and stakes between them: record by record, or an
        adoption when the store is empty."""
        data = make_graph("batch")
        numbers = [self.new() for _ in range(rng.randint(1, 5))]
        for number in numbers:
            data.add_node(f"b{number}", "Business", **business(number))
        for _ in range(rng.randint(1, 6)):
            data.add_edge(
                f"b{rng.choice(numbers)}", f"b{rng.choice(numbers)}", "OWNS",
                percentage=rng.random(),
            )
        load_graph_store(company_super_schema(), data, self.store)

    def delete(self, rng):
        edges = list(self.store.graph.edges())
        if edges and rng.random() < 0.5:
            edge = rng.choice(edges)
            assert self.store.delete_relationship(
                edge.source, edge.target, edge.label, dict(edge.properties)
            )
        elif self.nodes():
            assert self.store.delete_node(rng.choice(self.nodes()))

    def update(self, rng):
        if self.nodes():
            node_id = rng.choice(self.nodes())
            properties = dict(self.store.graph.node(node_id).properties)
            properties["businessName"] = f"renamed {self.new()}"
            if rng.random() < 0.5:
                properties["fiscalCode"] = f"FC{self.new()}"
            self.store.update_node_properties(node_id, properties)

    def state(self):
        return graph_store_state(self.store), {
            key: dict(index) for key, index in self.store._unique.items()
        }


class TripleStoreDriver(Driver):
    """The triple store; a bulk write is a nested
    :func:`~repro.deploy.load_triple_store` of a few businesses."""

    def nodes(self):
        return sorted(self.store.instances_of("Business"))

    def insert(self, rng):
        nodes = self.nodes()
        if nodes and rng.random() < 0.5:
            self.store.add(rng.choice(nodes), "OWNS", rng.choice(nodes))
        else:
            number = self.new()
            self.store.add(f"b{number}", "rdf:type", "Business")
            self.store.add(f"b{number}", "fiscalCode", f"FC{number}")

    def bulk(self, rng):
        data = make_graph("batch")
        for _ in range(rng.randint(1, 5)):
            number = self.new()
            data.add_node(f"b{number}", "Business", **business(number))
        load_triple_store(company_super_schema(), data, self.store)

    def delete(self, rng):
        triples = sorted(self.store.triples(), key=repr)
        if triples:
            assert self.store.retract(*rng.choice(triples))

    def update(self, rng):
        codes = sorted(self.store.triples(predicate="fiscalCode"), key=repr)
        if codes:
            subject, predicate, value = rng.choice(codes)
            self.store.retract(subject, predicate, value)
            self.store.add(subject, predicate, f"FC{self.new()}")

    def state(self):
        return frozenset(self.store.triples())


class RelationalDriver(Driver):
    """The relational engine; a delete its foreign key refuses leaves
    the engine unchanged by itself."""

    def rows(self, table):
        return self.store.rows(table)

    def insert(self, rng):
        people = [row["pid"] for row in self.rows("person")]
        if people and rng.random() < 0.5:
            self.store.insert(
                "pet", tag=f"t{self.new()}", owner_pid=rng.choice(people)
            )
        else:
            self.store.insert("person", pid=f"p{self.new()}", name="someone")

    def bulk(self, rng):
        self.store.insert_many("person", [
            {"pid": f"p{self.new()}", "name": "batch"}
            for _ in range(rng.randint(1, 5))
        ])

    def delete(self, rng):
        table = rng.choice(["person", "pet"])
        rows = self.rows(table)
        if rows:
            key = "pid" if table == "person" else "tag"
            before = self.state()
            try:
                self.store.delete(table, **{key: rng.choice(rows)[key]})
            except IntegrityError:
                assert self.state() == before

    def update(self, rng):
        """A pet replaced (deleted and inserted again) or re-homed by key,
        or a person renamed by key; a re-homing to nobody is refused and
        changes nothing."""
        pets, people = self.rows("pet"), self.rows("person")
        kind = rng.random()
        if pets and kind < 0.35:
            tag = rng.choice(pets)["tag"]
            self.store.delete("pet", tag=tag)
            self.store.insert(
                "pet", tag=tag, owner_pid=rng.choice(people)["pid"]
            )
        elif pets and kind < 0.7:
            owner = rng.choice([*people, {"pid": "nobody"}])["pid"]
            before = self.state()
            try:
                self.store.update(
                    "pet", (rng.choice(pets)["tag"],), {"owner_pid": owner}
                )
            except IntegrityError:
                assert owner == "nobody" and self.state() == before
        elif people:
            self.store.update(
                "person", (rng.choice(people)["pid"],),
                {"name": f"renamed {self.new()}"},
            )

    def state(self):
        return {
            table: sorted(
                (tuple(sorted(row.items())) for row in self.rows(table)),
                key=repr,
            )
            for table in self.store.tables()
        }


DRIVERS = {
    "graph-columnar": GraphStoreDriver,
    "graph-object": GraphStoreDriver,
    "triple": TripleStoreDriver,
    "relational": RelationalDriver,
}


def exercise(driver, rng, depth=0):
    """Mutate under a savepoint, with nested savepoints in between, and
    roll back about half of them; each rollback must restore the state
    the savepoint opened on."""
    store = driver.store
    before = driver.state()
    savepoint = store.savepoint()
    for _ in range(rng.randint(2, 6)):
        rng.choice((driver.insert, driver.bulk, driver.delete, driver.update))(rng)
        if depth < 2 and rng.random() < 0.3:
            exercise(driver, rng, depth + 1)
    if rng.random() < 0.5:
        store.rollback_to(savepoint)
        assert driver.state() == before
    store.release(savepoint)


@pytest.mark.parametrize("kind", sorted(DRIVERS))
@pytest.mark.parametrize("seed", range(8))
def test_every_rollback_restores_the_store(kind, seed):
    driver = DRIVERS[kind](deployed(kind))
    rng = random.Random(seed)
    for _ in range(4):  # committed history, so deletes find targets
        driver.insert(rng)
        driver.bulk(rng)
    for _ in range(6):
        exercise(driver, rng)


@pytest.mark.parametrize("columnar", [False, True])
def test_graph_store_rolls_back_a_delete_after_the_savepoint(columnar):
    """Deleting pre-savepoint elements, then failing: the node comes back
    with its edges, labels and unique-index entry."""
    store = deployed("graph-columnar" if columnar else "graph-object")
    for number in (1, 2):
        store.create_node(f"b{number}", BUSINESS, **business(number))
    store.create_relationship("b1", "b2", "OWNS", percentage=0.6)
    store.create_relationship("b2", "b2", "OWNS", percentage=0.1)
    before = GraphStoreDriver(store).state()
    savepoint = store.savepoint()
    assert store.delete_node("b2")
    store.create_node("b3", BUSINESS, **business(3))
    store.rollback_to(savepoint)
    store.release(savepoint)
    assert GraphStoreDriver(store).state() == before
    with pytest.raises(IntegrityError, match="unique constraint"):
        store.create_node("b9", BUSINESS, **business(2))


# ----------------------------------------------------------------------
# A refused flush delta leaves every store as it was
# ----------------------------------------------------------------------
def refused_delta(last_insert):
    """Removes an edge, updates a node, adds a node — then refuses its
    last insert: an undeclared relationship (an integrity violation) or
    an unhashable key value (a ``TypeError``)."""
    added_edges = [("w", "b1", "b2", "WARPS", {})]
    added_nodes = [("b3", "Business", business(3))]
    if last_insert == "unhashable":
        added_edges = []
        added_nodes.append(("b4", "Business", business(4, fiscalCode=["FC4"])))
    return FlushDelta(
        removed_edges=[("o", "b1", "b2", "OWNS", {"percentage": 0.6})],
        updated_nodes=[("b1", "Business", business(1, businessName="Renamed"),
                        business(1))],
        added_nodes=added_nodes,
        added_edges=added_edges,
    )


@pytest.mark.parametrize("last_insert", ["integrity", "unhashable"])
@pytest.mark.parametrize("kind", ["graph-columnar", "graph-object", "triple"])
def test_refused_flush_delta_leaves_the_store_unchanged(kind, last_insert):
    tracer = RecordingTracer()
    store = deployed(kind, tracer=tracer)
    schema = company_super_schema()
    loaded = make_graph("loaded")
    for number in (1, 2):
        loaded.add_node(f"b{number}", "Business", **business(number))
    loaded.add_edge("b1", "b2", "OWNS", edge_id="o", percentage=0.6)
    store.apply_flush_delta(FlushDelta(
        added_nodes=[(n.id, n.label, n.properties) for n in loaded.nodes()],
        added_edges=[("o", "b1", "b2", "OWNS", {"percentage": 0.6})],
    ), schema, loaded)
    driver = DRIVERS[kind](store)
    before = driver.state()
    error = IntegrityError if last_insert == "integrity" else TypeError
    after = loaded.copy()  # as far as a store reads what the delta leads to
    after.remove_edge("o")
    with pytest.raises(error):
        store.apply_flush_delta(refused_delta(last_insert), schema, after)
    assert driver.state() == before
    assert tracer.metrics.counters()["deploy.rollbacks"] == 1


def test_refused_relational_delta_leaves_the_engine_unchanged():
    """The relational engine under the same refused delta, refused on its
    last write — its undeclared relationship written as a stake whose
    share the domain refuses (an undeclared edge type has no rows to
    refuse) — or at its end: a place removed that an unlisted residence
    still reaches (RESTRICT)."""
    tracer = RecordingTracer()
    schema = company_super_schema()
    engine = RelationalEngine(tracer=tracer)
    engine.deploy(SSST().translate(schema, "relational").target_schema)
    loaded = make_graph("loaded")
    for number in (1, 2):
        loaded.add_node(f"b{number}", "Business", **business(number))
    loaded.add_node("pl", "Place", placeId="PL1", street="Via Roma",
                    city="Rome", postalCode="00100")
    loaded.add_node("p", "PhysicalPerson", fiscalCode="FC-P", name="Ada",
                    gender="female")
    loaded.add_edge("b1", "b2", "OWNS", edge_id="o", percentage=0.6)
    loaded.add_edge("p", "pl", "RESIDES", edge_id="home")
    engine.apply_flush_delta(
        FlushDelta.diff(make_graph("empty"), loaded), schema, loaded
    )
    driver = RelationalDriver(engine)
    before = driver.state()
    for rollbacks, refusal in enumerate(("domain", "no match"), start=1):
        refused = refused_delta("integrity")
        instance = loaded.copy()  # what the refused delta leads to
        instance.remove_edge("o")
        instance.set_node_property("b1", "businessName", "Renamed")
        instance.add_node("b3", "Business", **business(3))
        if refusal == "domain":
            refused.added_edges = [
                ("w", "b1", "b2", "OWNS", {"percentage": "most"})]
            instance.add_edge("b1", "b2", "OWNS", edge_id="w",
                              percentage="most")
        else:
            refused.added_edges = []
            refused.removed_nodes = [("pl", "Place", dict(
                loaded.node("pl").properties))]
            instance.remove_node("pl")  # and the residence, unlisted
        with pytest.raises(IntegrityError, match=refusal):
            engine.apply_flush_delta(refused, schema, instance)
        assert driver.state() == before
        assert tracer.metrics.counters()["deploy.rollbacks"] == rollbacks
