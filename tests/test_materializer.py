"""Algorithm 2: intensional-component materialization tests."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import repro.core.instances as codec
import repro.ssst.materializer as materializer_module
from repro.core.dictionary import GraphDictionary
from repro.core.instances import SuperInstance
from repro.deploy.graph_store import GraphStore
from repro.deploy.loaders import load_graph_store
from repro.errors import EvaluationError, ResourceLimitError, SchemaError
from repro.finkg import generator, programs
from repro.finkg.control import control_pairs, stakes_from_graph
from repro.graph import ColumnarPropertyGraph, make_graph
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.obs import ResourceGovernor
from repro.ssst import (
    SSST,
    IntensionalMaterializer,
    MaterializationCheckpoint,
    catalog_from_super_schema,
)
from repro.ssst.incremental import RegistryDelta
from repro.ssst.views import input_views, output_views
from repro.vadalog.engine import Engine
from repro.vadalog.terms import Null, SkolemValue
from tests.conftest import diff_is_the_oracle


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
        first = materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=1,
            dictionary=dictionary,
        )
        nodes_after_first = dictionary.graph.node_count
        # Second instance against the same dictionary.
        second = materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=2,
            dictionary=dictionary,
        )
        assert dictionary.schema_oids() == [123]
        # The instances live in the chase relations, not in the graph.
        assert dictionary.graph.node_count == nodes_after_first
        for report, oid in ((first, 1), (second, 2)):
            assert report.instance.instance_oid == oid
            assert report.instance.data.node_count == owns_instance.node_count
            assert len(list(report.instance.data.edges("CONTROLS"))) == 5

    def test_resumed_run_stays_on_the_production_graph_store(
        self, company_schema, owns_instance, tmp_path
    ):
        """A resumed run keeps the dictionary on the store a fresh run
        builds, and decodes the same instance from restored relations."""
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


# ----------------------------------------------------------------------
# The I_SM_* relations are the instance
# ----------------------------------------------------------------------
def order_sensitive_digest(graph):
    """sha256 over every element in graph order: ids, labels, endpoints
    and ``list(properties.items())``."""
    digest = hashlib.sha256()
    for n in graph.nodes():
        digest.update(repr((n.id, n.label, list(n.properties.items()))).encode())
    for e in graph.edges():
        digest.update(repr(
            (e.id, e.source, e.target, e.label, list(e.properties.items()))
        ).encode())
    return digest.hexdigest()


def kgbench_registry(companies, seed):
    """The registry ``kgbench.workloads.build_registry`` builds."""
    data = generator.generate_shareholding_data(
        generator.ShareholdingConfig(companies=companies, seed=seed)
    )
    graph = make_graph("registry")
    for pid in data.persons:
        graph.add_node(
            pid, "PhysicalPerson",
            fiscalCode=f"FC-{pid}", name=f"Person {pid}", gender="female",
        )
    for cid in data.companies:
        graph.add_node(
            cid, "Business",
            fiscalCode=f"FC-{cid}", businessName=f"{cid} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    for index, stake in enumerate(data.stakes):
        graph.add_edge(
            stake.owner, stake.company, "OWNS",
            edge_id=f"stake-{index}", percentage=stake.percentage,
        )
    return data, graph


def with_extra_people(data):
    data = data.copy()
    data.add_node(
        "p2", "PhysicalPerson",
        fiscalCode="FCp2", name="Bo Rossi", surname="Rossi", gender="male",
    )
    data.add_node(
        "p3", "PhysicalPerson",
        fiscalCode="FCp3", name="Cy Greco", surname="Greco", gender="male",
    )
    return data


#: The fresh run ([0]) was recorded at the commit before the
#: dictionary-graph round trip was removed (PR 17), with the
#: graph-mediated flush and decode.  The six updates were re-recorded
#: when update() began to patch the enriched graph in place and to keep
#: the nulls of re-derived heads (PR 19): derived edges keep their ids
#: and new elements come in patch order.  Each step is also held against
#: a from-scratch run, up to null renaming and element order, below.
GOLDEN_CONTROL = [
    "4ffb63bdda5622e5d5cd63cbd3aa0ebd0b320090d92b974bf3f16d712c487711",
    "5e6bb6c7c3921e05b2c476f6683a7d36642b0edb71925448113f2a29873fc5e2",
    "eedc5647aff84f5aa3140aa68433ef8d7646241aa0dcd363eaf9b0fe52426a2e",
    "0bdd51366bd8bfd6168bb2f69a26f7192461190adc16ad68f6c86fb9063b2a6e",
    "ebf7524655c5248916dedb76d08fbb347499926e65846a16858e7d21c5cf9c9d",
    "93c0baeb9accd4860cfc6b82b6dcf40d9e3f854eb36b7d79ce3d39c6d4bb6100",
    "7817bcb38def96135fcee5e93d5328405f696e8b63e01432c55b03ce15c4edf2",
]
#: sha256 of ``up_to_nulls_and_order`` at the same seven steps: the same
#: at the parent of PR 19 and after it, so the re-recorded digests above
#: differ from the parent's in null names and element order only.
GOLDEN_CONTROL_UP_TO_NULLS = [
    "ed7f9fbcdc7bd6d4255984e01aa8fe9f3822fcdcac07ae12a075eaeaed2f4251",
    "a76dff88b4067cc27310ac3539443c91a090f2f757efdb50a60c5e53e9197f14",
    "913cdf4df9748dcc4770ed09c6c335236c9dfec4046d440640730f4af16b2788",
    "f002c7dbab4fddbc7aafb72d51159b9affcf114f30097876d8bc56d912c5ce08",
    "497848406e0ad041a125054cb3b0b8381735b9fbf36fad6faab62c0866653a1a",
    "a6c0ae530d158a2b58300ec4220a3a52c8e6fd8c1121513f1a19a3fc0871709b",
    "5105a783d485cc568db518ba485988677ea6b89351029e74a2feda231432d886",
]
GOLDEN_CHAINS = {
    # A derived attribute on a loaded node: the loaded construct wins.
    "STAKEHOLDERS_PROGRAM": [
        "dcdfe62de45bf11271d11423acea8338e422a35766ad85eb6adfcb7ce1eddb4b",
        "11a0bec00cbe8e5acf3207f5a8add7ac00725ba590a21ee643bc2fda937c1ee8",
    ],
    # Derived nodes carrying attributes.
    "FAMILY_PROGRAM": [
        "a67b1624972411b81c40f11c28056d990b4a0e4edcfde0e154a289c2342ad87e",
        "0305b6d35aa13572ae989bde0003cecac733f7aa5da3c98844555a2911ed7820",
    ],
}

GRAPH_WRITERS = (
    "add_nodes_bulk", "add_edges_bulk", "existing_node_ids", "existing_edge_ids",
)


def up_to_nulls_and_order(graph):
    """Every element of ``graph`` with invented ids blanked, sorted."""
    def plain(value):
        return "_" if isinstance(value, (Null, SkolemValue)) else value

    return sorted(
        repr((plain(n.id), n.label, sorted(n.properties.items())))
        for n in graph.nodes()
    ), sorted(
        repr((plain(e.id), plain(e.source), plain(e.target), e.label,
              sorted(e.properties.items())))
        for e in graph.edges()
    )


def forbid_graph_bulk_access(monkeypatch, graph):
    """No bulk write to, or OID probe of, this ``graph`` object (the
    decoded instance is written in bulk: that one is a plain graph)."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"bulk/probe access to {graph!r}")

    for name in GRAPH_WRITERS:
        monkeypatch.setattr(graph, name, forbidden)


def assert_schemas_only(dictionary, schema_nodes):
    graph = dictionary.graph
    assert graph.node_count == schema_nodes
    labels = set(graph.node_labels()) | set(graph.edge_labels())
    assert not {
        label for label in labels
        if label.startswith("I_SM_") or label == "SM_REFERENCES"
    }


class TestInstanceRelations:
    def test_golden_digests_fresh_run_and_six_updates(self, company_schema):
        data, registry = kgbench_registry(500, 42)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        report = materializer.materialize(
            company_schema, registry, sigma, instance_oid=9, retain=True,
        )
        def renamed(graph):
            return hashlib.sha256(
                repr(up_to_nulls_and_order(graph)).encode()
            ).hexdigest()

        digests = [order_sensitive_digest(report.instance.data)]
        renamed_digests = [renamed(report.instance.data)]
        taken = {(s.owner, s.company) for s in data.stakes}
        rng = random.Random(42)
        businesses = sorted(data.companies)
        live = []
        for step, kind in enumerate(
            ("add", "add", "remove", "add", "add", "remove")
        ):
            if kind == "add":
                while True:
                    owner, target = rng.sample(businesses, 2)
                    if (owner, target) not in taken:
                        break
                taken.add((owner, target))
                live.append(f"churn-{step}")
                delta = RegistryDelta(add_edges=[(
                    live[-1], owner, target, "OWNS",
                    {"percentage": 0.5 + step / 100.0},
                )])
            else:
                delta = RegistryDelta(remove_edges=[live.pop(0)])
            update = materializer.update(delta)
            assert update.instance.data is materializer.retained.enriched
            digests.append(order_sensitive_digest(update.instance.data))
            renamed_digests.append(renamed(update.instance.data))
            scratch = IntensionalMaterializer().materialize(
                company_schema, registry.copy(), sigma, instance_oid=9,
            )
            assert renamed_digests[-1] == renamed(scratch.instance.data)
        assert renamed_digests == GOLDEN_CONTROL_UP_TO_NULLS
        assert digests == GOLDEN_CONTROL

    @pytest.mark.parametrize("program", sorted(GOLDEN_CHAINS))
    def test_golden_digests_program_chains(
        self, company_schema, tiny_instance, program
    ):
        data = tiny_instance
        if program == "FAMILY_PROGRAM":
            data = with_extra_people(data)
        materializer = IntensionalMaterializer()
        first = materializer.materialize(
            company_schema, data,
            parse_metalog(programs.OWNS_PROGRAM), instance_oid=21,
        )
        second = materializer.materialize(
            company_schema, first.instance.data,
            parse_metalog(getattr(programs, program)), instance_oid=22,
        )
        assert [
            order_sensitive_digest(first.instance.data),
            order_sensitive_digest(second.instance.data),
        ] == GOLDEN_CHAINS[program]

    @pytest.mark.parametrize(
        "program",
        ["CONTROL_PROGRAM", "STAKEHOLDERS_PROGRAM", "FAMILY_PROGRAM"],
    )
    def test_dictionary_graph_holds_schemas_only(
        self, company_schema, tiny_instance, owns_instance, monkeypatch, program
    ):
        """materialize() and update() never write an instance construct
        into a graph, and never probe one for OIDs."""
        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        schema_nodes = dictionary.graph.node_count
        forbid_graph_bulk_access(monkeypatch, dictionary.graph)
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        if program == "CONTROL_PROGRAM":
            data = owns_instance
        else:
            data = materializer.materialize(
                company_schema, with_extra_people(tiny_instance),
                parse_metalog(programs.OWNS_PROGRAM), instance_oid=21,
                dictionary=dictionary,
            ).instance.data
            assert_schemas_only(dictionary, schema_nodes)
        report = materializer.materialize(
            company_schema, data, parse_metalog(getattr(programs, program)),
            instance_oid=22, dictionary=dictionary, retain=True,
        )
        assert report.instance.data.node_count >= data.node_count
        assert_schemas_only(dictionary, schema_nodes)
        update = materializer.update(RegistryDelta(add_nodes=[(
            "B9", "Business",
            {"fiscalCode": "FCB9", "businessName": "B9 SpA",
             "legalNature": "spa", "shareholdingCapital": 10.0},
        )]))
        assert update.instance.data.has_node("B9")
        assert_schemas_only(dictionary, schema_nodes)

    def test_one_encoder_one_decoder(
        self, company_schema, owns_instance, monkeypatch
    ):
        """The Figure 9 rendering, materialize() and update() all go
        through ``encode_instance`` / ``decode_instance``."""
        calls = Counter()
        for name in ("encode_instance", "decode_instance"):
            real = getattr(codec, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(codec, name, counting)
            if hasattr(materializer_module, name):  # bound by name there
                assert getattr(materializer_module, name) is real
                monkeypatch.setattr(materializer_module, name, counting)

        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        SuperInstance.from_plain_graph(
            company_schema, owns_instance, 7
        ).to_dictionary(dictionary.graph)
        assert calls == {"encode_instance": 1}
        SuperInstance.from_dictionary(dictionary.graph, company_schema, 7)
        assert calls == {"encode_instance": 1, "decode_instance": 1}

        # No oracle here: its whole decode would be counted as well.
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        assert calls == {"encode_instance": 2, "decode_instance": 2}
        materializer.update(RegistryDelta(
            add_edges=[("o9", "B3", "B1", "OWNS", {"percentage": 0.1})],
        ))
        # update() encodes the removed and the added records.
        assert calls == {"encode_instance": 4, "decode_instance": 3}

    def test_failed_update_drops_the_retained_state(
        self, company_schema, owns_instance
    ):
        """An update that dies between the registry mutation and the
        last chase state leaves nothing to continue from."""
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        # A delta the registry rejects raises before anything changes.
        with pytest.raises(SchemaError):
            materializer.update(RegistryDelta(add_nodes=[("X1", "NotAType", {})]))
        assert materializer.retained is not None
        assert not owns_instance.has_node("X1")

        stake = RegistryDelta(
            add_edges=[("o9", "B3", "B1", "OWNS", {"percentage": 0.9})],
        )
        materializer.engine.governor = ResourceGovernor(max_facts=1)
        with pytest.raises(ResourceLimitError):
            materializer.update(stake)
        assert materializer.retained is None
        materializer.engine.governor = None
        with pytest.raises(EvaluationError, match="prior materialize"):
            materializer.update(RegistryDelta(remove_edges=["o9"]))

    @pytest.mark.parametrize("kind", ["add_edges", "add_nodes"])
    def test_an_id_added_twice_is_a_schema_error(
        self, company_schema, owns_instance, kind
    ):
        """One delta naming a new id twice is rejected like any other
        delta the registry cannot take (a stream quarantines the batch
        on ``SchemaError``), not by a ``GraphError`` out of the encoder."""
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        retained = materializer.retained
        registry = order_sensitive_digest(owns_instance)
        enriched = order_sensitive_digest(retained.enriched)
        if kind == "add_edges":
            delta = RegistryDelta(add_edges=[
                ("d1", "B1", "B2", "OWNS", {"percentage": 0.1}),
                ("d1", "B1", "B3", "OWNS", {"percentage": 0.2}),
            ])
        else:
            delta = RegistryDelta(add_nodes=[
                ("d1", "Business", {"fiscalCode": "FCd1"}),
                ("d1", "Business", {"fiscalCode": "FCd2"}),
            ])
        with pytest.raises(SchemaError, match="'d1'.*twice"):
            materializer.update(delta)
        assert materializer.retained is retained
        assert retained.updates_applied == 0
        assert order_sensitive_digest(owns_instance) == registry
        assert order_sensitive_digest(retained.enriched) == enriched

    def test_resumed_run_is_hash_seed_independent(self, tmp_path):
        """A resumed run decodes relations restored from a checkpoint;
        their row order must come from the payload, not from ``set``
        iteration."""
        script = (
            "import sys\n"
            "from tests.test_materializer import (\n"
            "    kgbench_registry, order_sensitive_digest)\n"
            "from repro.finkg import programs\n"
            "from repro.finkg.company_schema import company_super_schema\n"
            "from repro.metalog import parse_metalog\n"
            "from repro.ssst import (\n"
            "    IntensionalMaterializer, MaterializationCheckpoint)\n"
            "_, registry = kgbench_registry(40, 42)\n"
            "for _ in range(2):\n"
            "    report = IntensionalMaterializer().materialize(\n"
            "        company_super_schema(), registry,\n"
            "        parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,\n"
            "        checkpoint=MaterializationCheckpoint(sys.argv[1]))\n"
            "assert report.resumed_from == 'reason'\n"
            "print(order_sensitive_digest(report.instance.data))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digests = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"ckpt-{seed}")],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


# ----------------------------------------------------------------------
# update() decodes what the delta reaches; the whole diff is its oracle
# ----------------------------------------------------------------------
BUSINESS = {"legalNature": "spa", "shareholdingCapital": 10.0}


@pytest.fixture(params=[True, False], ids=["columnar", "tuples"])
def checked(request):
    """A materializer on either engine backend whose every update() is
    held against ``FlushDelta.diff`` over whole decodes."""
    return diff_is_the_oracle(
        IntensionalMaterializer(engine=Engine(columnar=request.param))
    )


def retained_over_owns(materializer, schema, data, program):
    """``program`` retained over ``data`` with its OWNS edges derived."""
    owns = IntensionalMaterializer().materialize(
        schema, data, parse_metalog(programs.OWNS_PROGRAM), instance_oid=21,
    ).instance.data
    materializer.materialize(
        schema, owns, parse_metalog(getattr(programs, program)),
        instance_oid=22, retain=True,
    )
    return owns


class TestDeltaDecode:
    def test_control_chain_on_both_backends(self, company_schema, checked):
        _, registry = kgbench_registry(60, 7)
        checked.materialize(
            company_schema, registry, parse_metalog(programs.CONTROL_PROGRAM),
            instance_oid=9, retain=True,
        )
        owner, target = sorted(
            n.id for n in registry.nodes("Business")
        )[:2]
        added = checked.update(RegistryDelta(add_edges=[
            ("x1", owner, target, "OWNS", {"percentage": 0.9}),
        ]))
        assert ("x1", owner, target, "OWNS", {"percentage": 0.9}) in (
            added.flush_delta.added_edges
        )
        removed = checked.update(RegistryDelta(remove_edges=["x1"]))
        assert [e[0] for e in removed.flush_delta.removed_edges if e[3] == "OWNS"] == ["x1"]
        assert not removed.flush_delta.added_edges

    def test_derived_attribute_on_a_loaded_node_is_an_update(
        self, company_schema, tiny_instance, checked
    ):
        """V_O's ``I_SM_Node(c, ioid, None)`` must lose to the loaded
        row of the same construct, or B3 comes out twice."""
        retained_over_owns(
            checked, company_schema, with_extra_people(tiny_instance),
            "STAKEHOLDERS_PROGRAM",
        )
        report = checked.update(RegistryDelta(add_edges=[
            ("o9", "p2", "B3", "OWNS", {"percentage": 0.1}),
        ]))
        ((node_id, label, new, old),) = report.flush_delta.updated_nodes
        assert (node_id, label) == ("B3", "Business")
        assert (old["numberOfStakeholders"], new["numberOfStakeholders"]) == (2, 3)
        assert new["businessName"] == "B3 SpA"  # loaded attributes kept
        assert not report.flush_delta.added_nodes
        report = checked.update(RegistryDelta(remove_edges=["o9"]))
        assert report.flush_delta.updated_nodes[0][2]["numberOfStakeholders"] == 2
        # The first stakeholder of a business: the attribute appears.
        report = checked.update(RegistryDelta(
            add_nodes=[("B9", "Business", {
                "fiscalCode": "FCB9", "businessName": "B9 SpA", **BUSINESS})],
            add_edges=[("o10", "p3", "B9", "OWNS", {"percentage": 0.2})],
        ))
        assert report.instance.data.node("B9")["numberOfStakeholders"] == 1
        assert not report.flush_delta.updated_nodes

    def test_derived_nodes_come_and_go_with_their_edges(
        self, company_schema, tiny_instance, checked
    ):
        retained_over_owns(
            checked, company_schema, with_extra_people(tiny_instance),
            "FAMILY_PROGRAM",
        )
        enriched = checked.retained.enriched
        assert {f["familyName"] for f in enriched.nodes("Family")} == {
            "Rossi", "Greco"}
        # The last Greco: the family node goes, and its membership edge.
        report = checked.update(RegistryDelta(remove_nodes=["p3"]))
        gone = {n[2].get("familyName") for n in report.flush_delta.removed_nodes
                if n[1] == "Family"}
        assert gone == {"Greco"}
        assert {e[3] for e in report.flush_delta.removed_edges} == {
            "BELONGS_TO_FAMILY"}
        # One of two Rossis: the family stays, the relatedness goes.
        report = checked.update(RegistryDelta(remove_nodes=["p2"]))
        assert not [n for n in report.flush_delta.removed_nodes if n[1] == "Family"]
        assert {e[3] for e in report.flush_delta.removed_edges} == {
            "BELONGS_TO_FAMILY", "IS_RELATED_TO"}
        # A new surname: a derived node with attributes appears.
        report = checked.update(RegistryDelta(add_nodes=[(
            "p4", "PhysicalPerson",
            {"fiscalCode": "FCp4", "name": "Di Bruno", "surname": "Bruno",
             "gender": "female"},
        )]))
        (family,) = [n for n in report.flush_delta.added_nodes if n[1] == "Family"]
        assert family[2] == {"familyId": "Bruno", "familyName": "Bruno"}

    def test_node_with_incident_edges_added_and_removed(
        self, company_schema, owns_instance, checked
    ):
        checked.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        report = checked.update(RegistryDelta(
            add_nodes=[("B4", "Business", {
                "fiscalCode": "FCB4", "businessName": "B4 SpA", **BUSINESS})],
            add_edges=[
                ("o4", "B3", "B4", "OWNS", {"percentage": 0.9}),
                ("o5", "B4", "B1", "OWNS", {"percentage": 0.1}),
            ],
        ))
        assert [n[0] for n in report.flush_delta.added_nodes] == ["B4"]
        # B2 holds and is held: its stakes and every control through it go.
        report = checked.update(RegistryDelta(remove_nodes=["B2"]))
        assert [n[0] for n in report.flush_delta.removed_nodes] == ["B2"]
        assert not any(
            "B2" in (e.source, e.target)
            for e in checked.retained.enriched.edges()
        )

    def test_replacing_an_element_in_one_delta(
        self, company_schema, owns_instance, checked
    ):
        checked.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        stake = next(e for e in owns_instance.edges("OWNS")
                     if (e.source, e.target) == ("B2", "B3"))
        report = checked.update(RegistryDelta(
            remove_edges=[stake.id],
            add_edges=[(stake.id, "B2", "B3", "OWNS", {"percentage": 0.7})],
        ))
        # An edge is an immutable record: removed and added again.
        assert (stake.id, "B2", "B3", "OWNS", {"percentage": 0.3}) in (
            report.flush_delta.removed_edges)
        assert (stake.id, "B2", "B3", "OWNS", {"percentage": 0.7}) in (
            report.flush_delta.added_edges)
        # A node replaced under another type keeps the stakes the same
        # delta puts back; its label change is removed + added.
        stakes = [
            (e.id, e.source, e.target, e.label, dict(e.properties))
            for e in owns_instance.edges("OWNS") if "B3" in (e.source, e.target)
        ]
        report = checked.update(RegistryDelta(
            remove_nodes=["B3"],
            add_nodes=[("B3", "PublicListedCompany", {
                "fiscalCode": "FCB3", "businessName": "B3 SpA", **BUSINESS,
                "stockExchange": "MIL"})],
            add_edges=stakes,
        ))
        assert [n[:2] for n in report.flush_delta.removed_nodes] == [
            ("B3", "Business")]
        assert [n[:2] for n in report.flush_delta.added_nodes] == [
            ("B3", "PublicListedCompany")]
        enriched = checked.retained.enriched
        assert {e.id for e in enriched.edges("OWNS")} >= {s[0] for s in stakes}

    def test_stored_none_property_round_trips(
        self, company_schema, owns_instance, checked
    ):
        checked.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        person = {"fiscalCode": "FCp9", "name": "No Surname", "surname": None,
                  "gender": "male"}
        report = checked.update(RegistryDelta(
            add_nodes=[("p9", "PhysicalPerson", person)],
        ))
        assert report.flush_delta.added_nodes == [
            ("p9", "PhysicalPerson", person)]
        assert checked.retained.enriched.node("p9").properties["surname"] is None
        report = checked.update(RegistryDelta(remove_nodes=["p9"]))
        assert report.flush_delta.removed_nodes == [
            ("p9", "PhysicalPerson", person)]


# ----------------------------------------------------------------------
# A recomputed stratum keeps the nulls of what it derives again
# ----------------------------------------------------------------------
class TestNullStability:
    @pytest.fixture()
    def control_500(self, company_schema):
        data, registry = kgbench_registry(500, 42)
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        report = materializer.materialize(
            company_schema, registry, parse_metalog(programs.CONTROL_PROGRAM),
            instance_oid=9, retain=True,
        )
        return data, registry, materializer, report

    def test_one_removed_stake_changes_what_it_changes(
        self, company_schema, control_500
    ):
        _, registry, materializer, report = control_500
        store = GraphStore()
        store.deploy(
            SSST().translate(company_schema, "property-graph").target_schema
        )
        load_graph_store(company_schema, report.instance.data, store)
        businesses = {n.id for n in registry.nodes("Business")}

        def baseline():
            return control_pairs([
                s for s in stakes_from_graph(registry)
                if s[0] in businesses and s[1] in businesses
            ])

        def pairs(facts):
            """``(x, y)`` of ``CONTROLS(c, x, y)`` facts, as plain ids."""
            return {
                tuple(oid.split(":i-node:")[1] for oid in fact[1:3])
                for fact in facts
            }

        def edge_ids(graph):
            return {
                (e.source, e.target): e.id for e in graph.edges("CONTROLS")
            }

        stake = next(
            e for e in registry.edges("OWNS")
            if e["percentage"] > 0.5 and {e.source, e.target} <= businesses
        )
        enriched = materializer.retained.enriched
        before = baseline()
        ids_before = edge_ids(store.graph), edge_ids(enriched)
        update = materializer.update(RegistryDelta(remove_edges=[stake.id]))
        store.apply_flush_delta(update.flush_delta, schema=company_schema)
        after = baseline()
        assert (stake.source, stake.target) in before - after
        reason = update.delta_reason
        assert pairs(reason.removed.get("CONTROLS", ())) == before - after
        assert pairs(reason.added.get("CONTROLS", ())) == after - before
        # Every other derived edge keeps its id: the store's own in the
        # deployed store, its labeled null in the enriched graph.
        for graph, held in zip((store.graph, enriched), ids_before):
            assert len(held) > 500
            assert edge_ids(graph) == {
                pair: edge_id for pair, edge_id in held.items()
                if pair not in before - after
            }
        assert update.flushed < 64

    def test_value_dictionary_grows_with_the_delta_not_the_stratum(
        self, control_500
    ):
        data, registry, materializer, _ = control_500
        retained = materializer.retained
        interner = registry.interner
        for state in ("result_load", "result_reason", "result_flush"):
            assert getattr(retained, state).database._interner is interner
        taken = {(s.owner, s.company) for s in data.stakes}
        rng = random.Random(1)
        businesses = sorted(data.companies)
        sizes = []
        for pair in range(20):
            while True:
                owner, target = rng.sample(businesses, 2)
                if (owner, target) not in taken:
                    break
            materializer.update(RegistryDelta(add_edges=[
                (f"churn-{pair}", owner, target, "OWNS", {"percentage": 0.6}),
            ]))
            materializer.update(RegistryDelta(remove_edges=[f"churn-{pair}"]))
            sizes.append(len(interner))
        # A pair's own new values: the stake's id, its construct OIDs
        # and those of the controls it brings (a dozen or two).  One
        # renamed CONTROLS stratum would be over 2,000 a pair.
        assert sizes[-1] - sizes[0] <= 19 * 32
