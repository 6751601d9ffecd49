"""Differential battery: the columnar property graph vs the object oracle.

Every test drives :class:`ColumnarPropertyGraph` and the object-backed
:class:`PropertyGraph` through the same script and asserts bit-identical
observable state — same iteration order, same errors, same lazy-view
properties — then the full pipeline (generator → extraction → chase →
materialize → deploy) and the serve layer's zero-copy column-block
epochs get the same treatment.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.core.dictionary import GraphDictionary
from repro.deploy import (
    GraphStore,
    RelationalEngine,
    TripleStore,
    graph_store_state,
    load_graph_store,
    load_triple_store,
)
from repro.errors import GraphError
from repro.finkg import ShareholdingConfig, generate_company_kg, programs
from repro.finkg.company_schema import company_super_schema
from repro.graph import ColumnarPropertyGraph, PropertyGraph, make_graph
from repro.graph.property_graph import ABSENT as ABSENT_CELL
from repro.metalog import (
    GraphCatalog,
    compile_metalog,
    graph_to_database,
    parse_metalog,
)
from repro.metalog.mtv import materialize_into_graph
from repro.serve import ServeState, ServiceHandlers
from repro.serve.state import FrozenColumnBlock
from repro.ssst import SSST, graph_instance_to_relational
from repro.vadalog import Engine
from tests.reference import object_graph, object_graph_store

TC = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."


def snapshot(graph):
    """Everything observable, in observation order."""
    node_ids = [n.id for n in graph.nodes()]
    # Properties are flattened through repr so NaN-valued cells compare
    # equal ('nan' == 'nan') instead of poisoning the whole snapshot.
    return {
        "nodes": [
            (n.id, n.label, repr(sorted(n.properties.items(), key=repr)))
            for n in graph.nodes()
        ],
        "edges": [
            (e.id, e.source, e.target, e.label,
             repr(sorted(e.properties.items(), key=repr)))
            for e in graph.edges()
        ],
        "node_labels": graph.node_labels(),
        "edge_labels": graph.edge_labels(),
        "per_label_nodes": {
            label: [n.id for n in graph.nodes(label)]
            for label in graph.node_labels()
        },
        "per_label_edges": {
            label: [e.id for e in graph.edges(label)]
            for label in graph.edge_labels()
        },
        "out": {nid: [e.id for e in graph.out_edges(nid)] for nid in node_ids},
        "in": {nid: [e.id for e in graph.in_edges(nid)] for nid in node_ids},
        "degrees": {
            nid: (graph.out_degree(nid), graph.in_degree(nid))
            for nid in node_ids
        },
        "counts": (graph.node_count, graph.edge_count),
    }


def run_pair(script):
    """Run ``script`` against both backends; return (oracle, columnar)."""
    oracle = PropertyGraph("g")
    columnar = ColumnarPropertyGraph("g")
    returned = (script(oracle), script(columnar))
    assert snapshot(oracle) == snapshot(columnar)
    return oracle, columnar, returned


def build_mixed(graph):
    """Nodes/edges with every property shape the engine can produce."""
    graph.add_node("a", "Person", name="Ada", age=36, tall=True, score=1.5)
    graph.add_node("b", "Person", name="Bob", age=None, nick="bo")
    graph.add_node("c", "Company", name="ACME", tags=("x", "y"),
                   meta={"k": [1, 2]})
    auto = graph.add_node(label="Person")
    graph.add_node("d", None, weird=float("nan"))
    graph.add_edge("a", "c", "OWNS", edge_id="e1", percentage=0.6)
    graph.add_edge("b", "c", "OWNS", edge_id="e2", percentage=0.4,
                   since=2020)
    graph.add_edge("a", "b", "KNOWS", edge_id="e3")
    graph.add_edge("c", auto.id, "EMPLOYS")
    return auto.id


class TestApiParity:
    def test_mixed_construction(self):
        run_pair(build_mixed)

    def test_error_parity(self):
        def script(graph):
            build_mixed(graph)
            errors = []
            for action in (
                lambda: graph.add_node("a"),
                lambda: graph.add_edge("a", "b", edge_id="e1"),
                lambda: graph.add_edge("a", "missing"),
                lambda: graph.add_edge("missing", "a"),
                lambda: graph.node("zzz"),
                lambda: graph.edge("zzz"),
                lambda: graph.remove_node("zzz"),
                lambda: graph.remove_edge("zzz"),
            ):
                with pytest.raises(GraphError) as excinfo:
                    action()
                errors.append(str(excinfo.value))
            return errors

        _, _, (oracle_errors, columnar_errors) = run_pair(script)
        assert oracle_errors == columnar_errors

    def test_mutation_script(self):
        def script(graph):
            build_mixed(graph)
            graph.set_node_property("a", "age", 37)
            graph.set_node_property("b", "name", None)
            graph.set_edge_property("e1", "percentage", 0.7)
            # In-place mutation through the (lazy) properties mapping —
            # the mtv update path and the deploy delta path both do this.
            props = graph.node("a").properties
            props["city"] = "Rome"
            props.pop("tall")
            props.update(age=40, extra=[1])
            props.setdefault("score", 9.9)  # present: no-op
            props.setdefault("fresh", "yes")
            del props["extra"]
            edge_props = graph.edge("e2").properties
            edge_props.clear()
            graph.remove_edge("e3")
            graph.remove_node("c")  # cascades into e1, e2, EMPLOYS
            graph.add_node("c", "Company", name="ACME2")
            graph.add_edge("a", "c", "OWNS", edge_id="e1", percentage=1.0)

        run_pair(script)

    def test_removal_heavy_interleaving(self):
        def script(graph):
            for i in range(40):
                graph.add_node(f"n{i}", "N", rank=i)
            for i in range(39):
                graph.add_edge(f"n{i}", f"n{i+1}", "NEXT", edge_id=f"x{i}")
            for i in range(0, 40, 3):
                graph.remove_node(f"n{i}")
            for i in range(40, 50):
                graph.add_node(f"n{i}", "N", rank=i)
                graph.add_edge(f"n{i-1}", f"n{i}", "NEXT", edge_id=f"x{i}") \
                    if graph.has_node(f"n{i-1}") else None

        run_pair(script)

    def test_bulk_loaders(self):
        def script(graph):
            graph.add_nodes_bulk(
                "Business",
                ["B0", "B1", "B2"],
                names=("cap", "active"),
                columns=[[10.0, 20.0, None], [True, False, True]],
                constants={"country": "IT"},
            )
            graph.add_nodes_bulk("Person", ["P0", "P1"])
            graph.add_edges_bulk(
                "OWNS",
                ["o0", "o1", "o2"],
                ["P0", "P1", "B0"],
                ["B0", "B1", "B2"],
                names=("percentage",),
                columns=[[0.5, None, 0.9]],
            )
            return (
                graph.nodes_table("Business", ["cap", "active", "country",
                                               "missing"]),
                graph.edges_table("OWNS", ["percentage"]),
                sorted(graph.existing_node_ids(["P0", "B2", "nope"])),
                sorted(graph.existing_edge_ids(["o1", "nope"])),
            )

        _, _, (oracle_out, columnar_out) = run_pair(script)
        assert oracle_out == columnar_out

    def test_bulk_error_parity(self):
        def script(graph):
            graph.add_node("dup", "N")
            errors = []
            for action in (
                lambda: graph.add_nodes_bulk("N", ["x", "dup"]),
                lambda: graph.add_edges_bulk(
                    "E", ["e0"], ["dup"], ["missing"]),
            ):
                with pytest.raises(GraphError) as excinfo:
                    action()
                errors.append(str(excinfo.value))
            return errors

        _, _, (oracle_errors, columnar_errors) = run_pair(script)
        assert oracle_errors == columnar_errors

    def test_rollback_parity(self):
        """A store rollback undoes inserts, deletes and updates through
        the graph's public API: both backends end as they began, and
        observably identical."""
        snapshots = []
        for columnar in (False, True):
            store = GraphStore() if columnar else object_graph_store()
            build_mixed(store.graph)
            before = graph_store_state(store)
            savepoint = store.savepoint()
            store.create_node("t1", ["Tmp"])
            store.create_node("t2", ["Tmp"], w=1)
            store.create_relationship("t1", "t2", "TMP")
            store.delete_relationship("a", "b", "KNOWS")
            store.delete_node("c")  # unhashable values, three edges
            store.update_node_properties("a", {"name": "Eve"})
            assert store.rollback_to(savepoint) == 6
            store.release(savepoint)
            assert graph_store_state(store) == before
            snapshots.append(snapshot(store.graph))
        assert snapshots[0] == snapshots[1]

    def test_copy_independence(self):
        def script(graph):
            build_mixed(graph)
            clone = graph.copy()
            clone.set_node_property("a", "name", "Eve")
            clone.remove_node("b")
            clone.add_node("z", "Person")
            return snapshot(clone)

        _, _, (oracle_clone, columnar_clone) = run_pair(script)
        assert oracle_clone == columnar_clone

    def test_networkx_round_trip(self):
        def script(graph):
            build_mixed(graph)
            nxg = graph.to_networkx()
            back = type(graph).from_networkx(nxg)
            return snapshot(back)

        _, _, (oracle_back, columnar_back) = run_pair(script)
        assert oracle_back == columnar_back

    def test_labels_are_sorted_tuples(self):
        def script(graph):
            build_mixed(graph)
            assert graph.node_labels() == ("Company", "Person")
            assert graph.edge_labels() == ("EMPLOYS", "KNOWS", "OWNS")
            graph.remove_node("c")
            assert graph.node_labels() == ("Person",)
            assert graph.edge_labels() == ("KNOWS",)

        script(PropertyGraph("g"))
        script(ColumnarPropertyGraph("g"))


class TestFindProbeParity:
    """find_nodes/find_edges: the interned-code probe must agree with
    the per-object ``==`` oracle on every equality corner."""

    SEARCHES = [
        {"name": "Ada"},
        {"name": "Ada", "age": 36},
        {"age": None},           # matches absent AND stored-None
        {"tall": True},
        {"tall": 1},             # bool/int cross: 1 == True
        {"age": 36.0},           # int/float cross
        {"score": float("nan")},  # NaN never == — per-object fallback
        {"tags": ("x", "y")},
        {"tags": ["x", "y"]},    # unhashable search value — fallback
        {"meta": {"k": [1, 2]}},
        {"name": "Nobody"},
        {"unseen_key": "v"},
    ]

    def test_find_nodes(self):
        oracle = PropertyGraph("g")
        columnar = ColumnarPropertyGraph("g")
        build_mixed(oracle)
        build_mixed(columnar)
        for search in self.SEARCHES:
            for label in (None, "Person", "Company", "Ghost"):
                expected = [n.id for n in oracle.find_nodes(label, **search)]
                got = [n.id for n in columnar.find_nodes(label, **search)]
                assert got == expected, (label, search)

    def test_find_edges(self):
        oracle = PropertyGraph("g")
        columnar = ColumnarPropertyGraph("g")
        build_mixed(oracle)
        build_mixed(columnar)
        searches = [
            {},
            {"source": "a"},
            {"target": "c", "percentage": 0.4},
            {"percentage": 0.6},
            {"since": None},
            {"percentage": "0.6"},  # type mismatch: no match either way
        ]
        for search in searches:
            for label in (None, "OWNS", "KNOWS", "Ghost"):
                expected = [e.id for e in oracle.find_edges(label, **search)]
                got = [e.id for e in columnar.find_edges(label, **search)]
                assert got == expected, (label, search)


class TestPipelineDifferential:
    """generator → extraction → chase → materialize → deploy, both
    backends, bit-identical at every boundary."""

    CONFIG = ShareholdingConfig(companies=120, seed=7)

    def test_control_pipeline(self):
        outputs = {}
        for flag in (False, True):
            graph = generate_company_kg(self.CONFIG)
            if not flag:
                graph = object_graph(graph)
            assert isinstance(
                graph, ColumnarPropertyGraph if flag else PropertyGraph
            )
            sigma = parse_metalog(programs.CONTROL_PROGRAM)
            compiled = compile_metalog(sigma, GraphCatalog.from_graph(graph))
            database = graph_to_database(
                graph, compiled.catalog,
                node_labels=compiled.input_node_labels,
                edge_labels=compiled.input_edge_labels,
            )
            result = Engine().run(
                compiled.program, database=database
            )
            target = graph.copy()
            materialize_into_graph(result, compiled, target)
            outputs[flag] = (
                {
                    predicate: sorted(map(repr, database.relation(predicate)))
                    for predicate in database.predicates()
                },
                snapshot(target),
            )
        assert outputs[False] == outputs[True]

    @staticmethod
    def _tiny(graph):
        graph.add_node("p1", "PhysicalPerson", fiscalCode="FCp1",
                       name="Ada Rossi", surname="Rossi", gender="female")
        for business in ("B1", "B2", "B3"):
            graph.add_node(
                business, "Business",
                fiscalCode=f"FC{business}", businessName=f"{business} SpA",
                legalNature="spa", shareholdingCapital=1000.0,
            )
        stakes = [
            ("p1", "B1", 0.8, "S0"),
            ("B1", "B2", 0.6, "S1"),
            ("B2", "B3", 0.3, "S2"),
            ("B1", "B3", 0.3, "S3"),
        ]
        for owner, company, pct, share_id in stakes:
            graph.add_node(share_id, "Share", shareId=share_id,
                           percentage=pct)
            graph.add_edge(owner, share_id, "HOLDS", right="ownership")
            graph.add_edge(share_id, company, "BELONGS_TO")
        return graph

    def test_three_deployments_agree(self, company_schema):
        """The deploy layer sees identical data whichever backend holds
        the instance AND whichever backend the graph store runs on."""
        ssst = SSST()
        relational_schema = ssst.translate(company_schema, "relational")
        pg_schema = ssst.translate(company_schema, "property-graph")
        rdf_schema = ssst.translate(company_schema, "rdf")

        extractions = []
        for data_flag in (False, True):
            data = self._tiny(
                make_graph("tiny") if data_flag else PropertyGraph("tiny")
            )
            for store_flag in (False, True):
                store = GraphStore() if store_flag else object_graph_store()
                store.deploy(pg_schema.target_schema)
                load_graph_store(company_schema, data, store)
                extractions.append([
                    sorted(map(repr,
                               store.extract("(n:Business) return n"))),
                    sorted(map(repr, store.extract(
                        "() -[:HOLDS]-> () return (e)"
                    ))),
                ])
            engine = RelationalEngine()
            engine.deploy(relational_schema.target_schema)
            graph_instance_to_relational(company_schema, data, engine)
            triples = TripleStore()
            triples.deploy(rdf_schema.target_schema)
            load_triple_store(company_schema, data, triples)
            assert engine.count("Business") == 3
            assert len(triples.instances_of("Business")) == 3
        assert all(e == extractions[0] for e in extractions[1:])


class TestServeColumnEpochs:
    """The zero-copy snapshot layer over columnar relations."""

    INPUTS = {"e": [("a", "b"), ("b", "c"), ("x", "y")]}

    def test_blocks_equal_frozenset_oracle(self):
        """Each block equals the frozenset of a from-scratch run's facts,
        before and after a delta."""
        state = ServeState(TC, inputs=self.INPUTS, check_wardedness=False)
        handlers = ServiceHandlers(state)
        answers = [
            handlers.handle("GET", "/query", {"q": 'tc("a", Y)?', "engine": mode})
            for mode in ("snapshot", "magic")
        ]
        assert [status for status, _ in answers] == [200, 200]
        assert sorted(answers[0][1]["answers"]) == sorted(
            answers[1][1]["answers"]
        ) == [["a", "b"], ["a", "c"]]

        def blocks_equal_a_fresh_run(edges):
            run = Engine(check_wardedness=False).run(state.program, inputs={"e": edges})
            assert set(state.snapshot.facts) == set(run.database.predicates())
            for predicate in run.database.predicates():
                expected = frozenset(run.facts(predicate))
                block = state.snapshot.facts[predicate]
                assert isinstance(block, FrozenColumnBlock)
                assert block == expected          # Set-mixin equality
                assert expected == frozenset(block)
                assert len(block) == len(expected)
                for fact in expected:
                    assert fact in block

        blocks_equal_a_fresh_run(self.INPUTS["e"])
        state.apply_delta(added={"e": [("c", "d")]}, removed={"e": [("x", "y")]})
        blocks_equal_a_fresh_run([("a", "b"), ("b", "c"), ("c", "d")])

    def test_cow_reuses_untouched_blocks(self):
        program = TC + "\nu(X) -> v(X)."
        state = ServeState(
            program,
            inputs={"e": [("a", "b")], "u": [("k",)]},
            check_wardedness=False,
        )
        old = state.snapshot
        state.apply_delta(added={"e": [("b", "c")]})
        new = state.snapshot
        # Untouched component: block and edb tuple alias the old epoch.
        assert new.facts["v"] is old.facts["v"]
        assert new.edb["u"] is old.edb["u"]
        # Touched component: fresh block, fresh tuple.
        assert new.facts["tc"] is not old.facts["tc"]
        assert new.edb["e"] is not old.edb["e"]

    @pytest.mark.parametrize("seed", range(12))
    def test_block_probe_equals_block_scan(self, seed):
        """``matching`` hands back candidates, ``Query.matches`` decides:
        for any pattern the probed answers are the scanned answers."""
        import random

        from repro.vadalog.columnar import ColumnarRelation
        from repro.vadalog.magic import Query
        from repro.vadalog.terms import Variable, fact_sort_key

        rng = random.Random(seed)
        nan = float("nan")
        pool = [0, 1, 1.0, True, False, None, nan, "a", "b", "c", 2, 2.5,
                "1", -1] + [f"v{i}" for i in range(rng.randrange(3, 40))]
        arity = rng.randrange(1, 4)
        # Big enough, now and then, for the lazy indexes' numpy build.
        rows = rng.choice([5, 60, 300, 5000])
        relation = ColumnarRelation("p")
        relation.add_many([
            tuple(rng.choice(pool) for _ in range(arity)) for _ in range(rows)
        ])
        if seed % 3:  # tombstones: the block copies the live mask
            for fact in rng.sample(sorted(relation, key=repr), len(relation) // 3):
                relation.remove(fact)
        block = FrozenColumnBlock(relation)
        frozen = sorted(block, key=fact_sort_key)
        # The live relation moves on; the block's pinned rows do not.
        relation.add_many([
            tuple(rng.choice(pool + ["late"]) for _ in range(arity))
            for _ in range(100)
        ])
        relation.remove(next(iter(relation)))
        assert sorted(block, key=fact_sort_key) == frozen
        constants = pool + ["never-interned", 3.75, "late"]
        for _ in range(120):
            bound_at = {
                i for i in range(arity) if rng.random() < 0.5
            }
            names = [Variable(rng.choice("XY")) for _ in range(arity)]
            terms = tuple(
                rng.choice(constants) if i in bound_at else names[i]
                for i in range(arity)
            )
            query = Query("p", terms)
            bound = [(i, terms[i]) for i in sorted(bound_at)]
            probed = sorted(
                filter(query.matches, block.matching(bound)), key=fact_sort_key
            )
            scanned = sorted(filter(query.matches, block), key=fact_sort_key)
            assert repr(probed) == repr(scanned), query
        assert block.matching([(arity, "a")]) == ()  # no such position

    def test_old_epoch_survives_tombstoning_removal(self):
        state = ServeState(TC, inputs=self.INPUTS, check_wardedness=False)
        old = state.snapshot
        before = set(old.facts["tc"])
        state.apply_delta(removed={"e": [("b", "c"), ("x", "y")]})
        # The live relation tombstoned rows in place; the frozen block
        # copied the live mask and must replay the old extension.
        assert set(old.facts["tc"]) == before
        assert old.facts["tc"] == before
        assert ("x", "y") not in state.snapshot.facts["tc"]

    def test_torn_epoch_battery_on_column_blocks(self):
        """The test_serve concurrency battery with a block-type
        assertion: 10 readers, 24 deltas, exact per-epoch answers."""
        readers_n, deltas_n, base = 10, 24, 4
        edges = [(f"a{i}", f"a{i+1}") for i in range(base)]
        state = ServeState(TC, inputs={"e": edges}, check_wardedness=False)
        assert isinstance(state.snapshot.facts["tc"], FrozenColumnBlock)
        handlers = ServiceHandlers(state)
        expected = {
            epoch: sorted(
                [["a0", f"a{i}"] for i in range(1, base + epoch + 1)]
            )
            for epoch in range(deltas_n + 1)
        }
        stop = threading.Event()
        errors = []
        reads = [0] * readers_n

        def reader(index):
            mode = ("snapshot", "magic")[index % 2]
            while not stop.is_set() or reads[index] < 5:
                status, payload = handlers.handle(
                    "GET", "/query",
                    {"q": 'tc("a0", Y)?', "engine": mode},
                )
                if status != 200:
                    errors.append((index, "status", status))
                    return
                if sorted(payload["answers"]) != expected.get(
                    payload["epoch"]
                ):
                    errors.append((index, "torn", payload["epoch"]))
                    return
                reads[index] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(readers_n)
        ]
        for thread in threads:
            thread.start()
        for i in range(deltas_n):
            status, payload = handlers.handle(
                "POST", "/delta", {},
                {"added": {"e": [[f"a{base + i}", f"a{base + i + 1}"]]}},
            )
            assert (status, payload["epoch"]) == (200, i + 1)
            time.sleep(0.002)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [], errors[:3]
        assert all(count >= 5 for count in reads)
        assert state.snapshot.epoch == deltas_n
        assert isinstance(state.snapshot.facts["tc"], FrozenColumnBlock)


class TestBackendFactory:
    def test_environment_cannot_change_the_execution_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "object")
        config = ShareholdingConfig(companies=20, seed=3)
        for graph in (
            make_graph(),
            GraphDictionary().graph,
            GraphStore().graph,
            generate_company_kg(config),
        ):
            assert isinstance(graph, ColumnarPropertyGraph)


class TestBulkKernels:
    """The bulk writers' column kernels equal one ``add_node`` /
    ``add_edge`` per element: on the object oracle's observable state,
    and on the columnar graph's own chains, degrees and tables."""

    NODES = [f"n{i}" for i in range(40)]
    LABELS = ("OWNS", "KNOWS", "CONTROLS")
    STRUCTURE = (
        "_out_head", "_out_tail", "_out_next", "_out_prev", "_out_deg",
        "_in_head", "_in_tail", "_in_next", "_in_prev", "_in_deg",
        "_edge_src", "_edge_dst", "_edge_label", "_edge_row",
    )

    def rows(self, batch, seed):
        import random

        rng = random.Random(seed)
        return [
            (f"e{i}", rng.choice(self.NODES), rng.choice(self.NODES),
             rng.choice(self.LABELS), rng.choice([0.5, None, 1, True]))
            for i in range(batch)
        ]

    def prefix(self, graph):
        """Nodes, and edges that leave some chains a tail to link to."""
        for node in self.NODES:
            graph.add_node(node, "N")
        graph.add_edge("n0", "n1", "OWNS", edge_id="pre0", w=0.25)
        graph.add_edge("n1", "n1", "KNOWS", edge_id="pre1")

    def per_element(self, graph, rows):
        self.prefix(graph)
        for edge_id, source, target, label, weight in rows:
            properties = {} if weight is None else {"w": weight}
            graph.add_edge(source, target, label, edge_id=edge_id, **properties)
        return graph

    @pytest.mark.parametrize("batch", [1, 63, 64, 1000])
    @pytest.mark.parametrize("coded", [False, True])
    def test_edges_with_a_label_per_row(self, batch, coded):
        from repro.vadalog.columnar import Codes

        rows = self.rows(batch, batch)
        oracle = self.per_element(PropertyGraph("g"), rows)
        scalar = self.per_element(ColumnarPropertyGraph("g"), rows)
        bulk = ColumnarPropertyGraph("g")
        self.prefix(bulk)
        ids, sources, targets, labels, weights = map(list, zip(*rows))
        weights = [ABSENT_CELL if w is None else w for w in weights]
        columns = [ids, sources, targets, weights]
        if coded:
            interner = bulk.interner
            columns = [
                np.array([-1 if v is ABSENT_CELL else interner.encode(v)
                          for v in column], dtype=np.int32).view(Codes)
                for column in columns
            ]
        ids, sources, targets, weights = columns
        bulk.add_edges_bulk(labels, ids, sources, targets, ("w",), [weights])
        assert snapshot(bulk) == snapshot(oracle) == snapshot(scalar)
        for name in self.STRUCTURE:
            assert getattr(bulk, name) == getattr(scalar, name), name
        assert {
            code: (table.rows, table.names)
            for code, table in bulk._edge_tables.items()
        } == {
            code: (table.rows, table.names)
            for code, table in scalar._edge_tables.items()
        }

    def test_deletes_then_bulk_readds_over_tombstoned_slots(self):
        ids = [f"n{i}" for i in range(3000)]

        def script(graph):
            graph.add_nodes_bulk("N", ids)
            graph.add_edges_bulk(
                "E", [f"e{i}" for i in range(2999)], ids[:-1], ids[1:]
            )
            for node_id in ids[::7]:
                graph.remove_node(node_id)
            graph.add_nodes_bulk("N", ids[::7] + ["fresh"], ("k",),
                                 [list(range(430))])
            graph.add_edges_bulk(
                "E", [f"e{i}" for i in range(0, 2999, 7)],
                ids[:-1:7], ids[1::7],
            )
            return [graph.has_node(n) for n in ids]

        _oracle, columnar, (expected, found) = run_pair(script)
        assert expected == found and all(found)
        assert columnar._node_index._dead == 0

    def test_batched_get_and_intersection(self):
        import random

        from repro.graph.columnar_graph import _OidIndex
        from repro.vadalog.columnar import ValueInterner

        rng = random.Random(11)
        interner = ValueInterner()
        index, oracle, dense = _OidIndex(interner), {}, 0
        for _step in range(40):
            batch = [f"o{rng.randrange(6000)}"
                     for _ in range(rng.choice([1, 50, 700, 2500]))]
            fresh = [oid for oid in dict.fromkeys(batch) if oid not in oracle]
            index.extend(interner.encode_column(fresh), dense)
            oracle.update(zip(fresh, range(dense, dense + len(fresh))))
            dense += len(fresh)
            for oid in rng.sample(sorted(oracle), min(len(oracle), 60)):
                del index[oid]
                del oracle[oid]
            probe = rng.sample(sorted(oracle), min(len(oracle), 100)) + [
                f"o{rng.randrange(9000)}" for _ in range(100)
            ] + ["never-interned", 3, True]
            assert index.lookup(interner.probe_column(probe)).tolist() == [
                oracle.get(oid, -1) for oid in probe
            ]
            assert index.intersection(probe) == {o for o in probe if o in oracle}
            assert [index.get(oid) for oid in probe] == [
                oracle.get(oid) for oid in probe
            ]
            assert len(index) == len(oracle)

    @pytest.mark.parametrize("size", [1, 63, 64, 3000])
    def test_one_extend_into_an_empty_index_equals_puts(self, size):
        """One bulk ``extend`` into an empty index (the sorted arrays in
        one go) holds what one ``put`` per OID holds, then and after
        deletes and re-adds."""
        import random

        from repro.graph.columnar_graph import _OidIndex
        from repro.vadalog.columnar import ValueInterner

        rng = random.Random(size)
        interner = ValueInterner()
        interner.encode_column([f"o{i}" for i in range(0, 2 * size, 2)])
        oids = [f"o{i}" for i in rng.sample(range(3 * size), size)]
        dense = np.array(rng.sample(range(5 * size), size))
        bulk, single = _OidIndex(interner), _OidIndex(interner)
        bulk.extend(interner.encode_column(oids), dense)
        for oid, nid in zip(oids, dense.tolist()):
            single.put(oid, nid)
        probe = oids + [f"o{i}" for i in range(3 * size, 3 * size + 50)] + [
            "never-interned", 3, True,
        ]

        def agree():
            assert len(bulk) == len(single)
            assert [bulk.get(oid) for oid in probe] == [
                single.get(oid) for oid in probe
            ]
            codes = interner.probe_column(probe)
            assert bulk.lookup(codes).tolist() == single.lookup(codes).tolist()
            assert bulk.intersection(probe) == single.intersection(probe)

        agree()
        gone = rng.sample(oids, size // 2)
        for index in (bulk, single):
            for oid in gone:
                del index[oid]
        agree()
        back = gone[: len(gone) // 2]
        for index in (bulk, single):
            for offset, oid in enumerate(back):
                index.put(oid, 7 * size + offset)
            index.extend(interner.encode_column(["late"]), 9 * size)
        probe.append("late")
        agree()
