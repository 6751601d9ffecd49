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
from repro.errors import EvaluationError, ResourceLimitError, SchemaError
from repro.finkg import generator, programs
from repro.graph import ColumnarPropertyGraph, make_graph
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.obs import ResourceGovernor
from repro.ssst import (
    IntensionalMaterializer,
    MaterializationCheckpoint,
    catalog_from_super_schema,
)
from repro.ssst.incremental import RegistryDelta
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


#: Recorded at the commit before the dictionary-graph round trip was
#: removed (PR 17), with the graph-mediated flush and decode.
GOLDEN_CONTROL = [
    "4ffb63bdda5622e5d5cd63cbd3aa0ebd0b320090d92b974bf3f16d712c487711",
    "b204d9fb88493cdf4a269352b47744b54625888e1018e6cce8c3aa2d0cf007c6",
    "7cbf66d37e6dca2e9fe7e7eef9f52538fadbd2ab97b395256a98b6019ae78789",
    "91febd0cff632ae34bd8c1ae1283b0ae626b129ab839582e6aea0483a16e33c5",
    "d353ac53e1ad56db7366bf4c365ba42c8c1bfb77912d16df4ea1eabceb1250d5",
    "abd6bd1c7b72bf19087166aae9b20defd5fe0202d73d76c6188fc9324d065c3f",
    "6d66cd047ed30d5595797a1535c04344732616225edd7b3351d0140157d4e5a5",
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


def forbid_graph_bulk_access(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"bulk/probe access to {self!r}")

    for graph_class in (ColumnarPropertyGraph, PropertyGraph):
        for name in GRAPH_WRITERS:
            monkeypatch.setattr(graph_class, name, forbidden)


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
        materializer = IntensionalMaterializer()
        report = materializer.materialize(
            company_schema, registry, parse_metalog(programs.CONTROL_PROGRAM),
            instance_oid=9, retain=True,
        )
        digests = [order_sensitive_digest(report.instance.data)]
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
        forbid_graph_bulk_access(monkeypatch)
        materializer = IntensionalMaterializer()
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
        materializer = IntensionalMaterializer()
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
