"""Algorithm 2: intensional-component materialization tests."""

import hashlib
import itertools
import json
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
from tests.conftest import diff_is_the_oracle, reads_as_written
from tests.reference import InterpretedEngine, object_graph_store


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

    @pytest.mark.parametrize("kind, match", [
        ("node", "unknown node type 'Martian'"),
        ("edge", "unknown edge type 'WARPS'"),
    ])
    def test_a_label_outside_the_schema_is_refused(
        self, company_schema, owns_instance, materializer, kind, match
    ):
        data = owns_instance.copy()
        if kind == "node":
            data.add_node("M1", "Martian", antenna=1)
        else:
            data.add_edge("B1", "B2", "WARPS")
        with pytest.raises(SchemaError, match=match):
            materializer.materialize(
                company_schema, data, parse_metalog(programs.CONTROL_PROGRAM),
                instance_oid=9,
            )


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
    def test_resumed_run_stays_on_the_production_graph_store(
        self, company_schema, owns_instance, tmp_path
    ):
        """A resumed run writes its instance on the store a fresh run
        builds, and decodes the same instance from restored relations."""
        sigma = parse_metalog(programs.CONTROL_PROGRAM)

        def run(checkpoint):
            report = IntensionalMaterializer().materialize(
                company_schema, owns_instance, sigma, instance_oid=9,
                checkpoint=checkpoint,
            )
            graph = report.instance.data
            return report, graph, (
                sorted((str(n.id), n.label, sorted(n.properties.items()))
                       for n in graph.nodes()),
                sorted((str(e.source), str(e.target), e.label,
                        sorted(e.properties.items()))
                       for e in graph.edges()),
            )

        _, fresh_graph, uninterrupted = run(None)
        run(MaterializationCheckpoint(str(tmp_path)))
        report, graph, resumed = run(MaterializationCheckpoint(str(tmp_path)))
        assert report.resumed_from == "reason"
        assert type(fresh_graph) is ColumnarPropertyGraph
        assert type(graph) is ColumnarPropertyGraph
        assert resumed == uninterrupted


class TestFlushReads:
    """What a materialization keeps of Sigma's database for its flush:
    a fresh run the head relations, without indexes; a retained run
    everything, its relations being the extension it maintains."""

    @staticmethod
    def flushed(monkeypatch):
        """Per ``write_instance`` call: the column maps and the relations
        Sigma's database holds at that moment, by name."""
        seen = []
        real = materializer_module.write_instance

        def spy(maps, instance_oid, data, database, graph, **kwargs):
            seen.append((maps, dict(database._relations)))
            return real(maps, instance_oid, data, database, graph, **kwargs)

        monkeypatch.setattr(materializer_module, "write_instance", spy)
        return seen

    @staticmethod
    def heads(maps):
        return {label for label, _edge, _columns in maps.heads}

    def test_a_fresh_run_flushes_from_its_heads_only(
        self, company_schema, monkeypatch
    ):
        seen = self.flushed(monkeypatch)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        _, registry = kgbench_registry(200, 42)
        report = IntensionalMaterializer().materialize(
            company_schema, registry, sigma, instance_oid=9,
        )
        ((maps, relations),) = seen
        assert set(relations) <= self.heads(maps)
        assert len(relations["CONTROLS"]) == report.derived_counts["CONTROLS"] > 0
        for relation in relations.values():
            assert not relation._indexes and not relation._composite
            assert relation._npcache is None
        retained = IntensionalMaterializer().materialize(
            company_schema, registry, sigma, instance_oid=9, retain=True,
        )
        assert order_sensitive_digest(report.instance.data) == (
            order_sensitive_digest(retained.instance.data)
        )

    def test_a_retained_run_keeps_its_inputs(self, company_schema, monkeypatch):
        seen = self.flushed(monkeypatch)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        data, registry = kgbench_registry(200, 42)
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, registry, sigma, instance_oid=9, retain=True,
        )
        ((maps, relations),) = seen
        database = materializer.retained.result.database
        for name, _edge, _members in maps.inputs:
            assert len(relations[name]) and database.relation(name) is relations[name]
        taken = {(stake.owner, stake.company) for stake in data.stakes}
        owner, target = next(
            pair for pair in itertools.permutations(sorted(data.companies), 2)
            if pair not in taken
        )
        materializer.update(RegistryDelta(add_edges=[(
            "churn-0", owner, target, "OWNS", {"percentage": 0.9},
        )]))
        scratch = IntensionalMaterializer().materialize(
            company_schema, registry.copy(), sigma, instance_oid=9,
        )
        assert renamed(materializer.retained.instance().data) == (
            renamed(scratch.instance.data)
        )

    def test_a_checkpoint_round_trips_what_the_flush_reads(
        self, company_schema, monkeypatch, tmp_path
    ):
        seen = self.flushed(monkeypatch)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        _, registry = kgbench_registry(200, 42)
        reports = [
            IntensionalMaterializer().materialize(
                company_schema, registry, sigma, instance_oid=9,
                checkpoint=MaterializationCheckpoint(str(tmp_path)),
            )
            for _ in range(2)
        ]
        assert [report.resumed_from for report in reports] == [None, "reason"]
        (maps, fresh), (_, resumed) = seen
        with open(MaterializationCheckpoint(str(tmp_path)).path) as handle:
            saved = json.load(handle)["database"]
        assert set(saved) == set(resumed) == set(fresh) <= self.heads(maps)
        for name, relation in fresh.items():
            assert set(resumed[name]) == set(relation)
            assert len(saved[name]["facts"]) == len(relation)


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
#: graph-mediated flush and decode.  The six updates keep the nulls of
#: re-derived heads (PR 19): derived edges keep their ids.  They were
#: re-recorded when the retained materialization stopped keeping a
#: patched copy of the enriched graph: each step's instance is written
#: whole, in a fresh run's element order, and holds the same elements,
#: nulls included, as the patched graph did.  Each step is also held
#: against a from-scratch run, up to null renaming and element order,
#: below.
GOLDEN_CONTROL = [
    "4ffb63bdda5622e5d5cd63cbd3aa0ebd0b320090d92b974bf3f16d712c487711",
    "b204d9fb88493cdf4a269352b47744b54625888e1018e6cce8c3aa2d0cf007c6",
    "d9144fbf31cfe3989f60b5e6148d521857f3149e3ce64150c555abb6ee5911d5",
    "502bb5db09c24b202477dd77aad0901c38412891365e60820aa836cb796c511b",
    "a643f175b91ba79b9cd8dea2799944460602157841044045a2c5aff932a66bce",
    "bf776a80bf86e2736f527883f1151c330361959c64cca35ef102a6a941aa770a",
    "f5c028388123e061363f6d4f8a74222301dc4d32608dda23bef0294429b12fc8",
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


def renamed(graph):
    return hashlib.sha256(repr(up_to_nulls_and_order(graph)).encode()).hexdigest()


def control_chain(schema, each=lambda registry, graph: None):
    """The golden chain: a fresh run of the control program at 500
    companies, seed 42, and six single-stake updates, each held against
    the whole decode.  Returns the order-sensitive and the up-to-nulls
    digest of every step; ``each(registry, graph)`` sees every update."""
    data, registry = kgbench_registry(500, 42)
    sigma = parse_metalog(programs.CONTROL_PROGRAM)
    materializer = diff_is_the_oracle(IntensionalMaterializer())
    report = materializer.materialize(
        schema, registry, sigma, instance_oid=9, retain=True,
    )
    digests = [order_sensitive_digest(report.instance.data)]
    renamed_digests = [renamed(report.instance.data)]
    taken = {(s.owner, s.company) for s in data.stakes}
    rng = random.Random(42)
    businesses = sorted(data.companies)
    live = []
    for step, kind in enumerate(("add", "add", "remove", "add", "add", "remove")):
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
        materializer.update(delta)
        graph = materializer.retained.instance().data
        digests.append(order_sensitive_digest(graph))
        renamed_digests.append(renamed(graph))
        each(registry, graph)
    return digests, renamed_digests


class TestInstanceRelations:
    def test_golden_digests_fresh_run_and_six_updates(self, company_schema):
        sigma = parse_metalog(programs.CONTROL_PROGRAM)

        def as_from_scratch(registry, graph):
            scratch = IntensionalMaterializer().materialize(
                company_schema, registry.copy(), sigma, instance_oid=9,
            )
            assert renamed(graph) == renamed(scratch.instance.data)

        digests, renamed_digests = control_chain(company_schema, as_from_scratch)
        assert renamed_digests == GOLDEN_CONTROL_UP_TO_NULLS
        assert digests == GOLDEN_CONTROL

    def test_six_updates_are_hash_seed_independent(self):
        """The golden chain, nulls and element order included, under
        three ``PYTHONHASHSEED``s: every delta is joined in row order,
        none in ``set`` order (the incremental twin of
        ``test_batch_nulls_are_hash_seed_independent``)."""
        script = (
            "from repro.finkg.company_schema import company_super_schema\n"
            "from tests.test_materializer import control_chain\n"
            "print(control_chain(company_super_schema()))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout.strip())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == repr((GOLDEN_CONTROL, GOLDEN_CONTROL_UP_TO_NULLS))

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

    def test_one_encoder_one_decoder(
        self, company_schema, owns_instance, monkeypatch
    ):
        """The Figure 9 rendering goes through ``encode_instance`` /
        ``decode_instance``; materialize() and update() through neither:
        their column maps read the registry's label tables and write
        the instance's."""
        calls = Counter()
        for name in ("encode_instance", "decode_instance"):
            real = getattr(codec, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(codec, name, counting)
            assert not hasattr(materializer_module, name)

        dictionary = GraphDictionary()
        dictionary.store(company_schema)
        SuperInstance.from_plain_graph(
            company_schema, owns_instance, 7
        ).to_dictionary(dictionary.graph)
        assert calls == {"encode_instance": 1}
        SuperInstance.from_dictionary(dictionary.graph, company_schema, 7)
        assert calls == {"encode_instance": 1, "decode_instance": 1}

        materializer = diff_is_the_oracle(IntensionalMaterializer())
        materializer.materialize(
            company_schema, owns_instance,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        materializer.update(RegistryDelta(
            add_edges=[("o9", "B3", "B1", "OWNS", {"percentage": 0.1})],
        ))
        assert calls == {"encode_instance": 1, "decode_instance": 1}

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
        enriched = order_sensitive_digest(retained.instance().data)
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
        assert order_sensitive_digest(retained.instance().data) == enriched

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
    """A materializer on either chase — the compiled plans, which fire
    on code columns, or the tuple-at-a-time interpreter — whose every
    update() is held against ``FlushDelta.diff`` over whole decodes."""
    return diff_is_the_oracle(
        IntensionalMaterializer(
            engine=Engine() if request.param else InterpretedEngine()
        )
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
        assert checked.retained.instance().data.node("B9")["numberOfStakeholders"] == 1
        assert not report.flush_delta.updated_nodes

    def test_derived_nodes_come_and_go_with_their_edges(
        self, company_schema, tiny_instance, checked
    ):
        retained_over_owns(
            checked, company_schema, with_extra_people(tiny_instance),
            "FAMILY_PROGRAM",
        )
        enriched = checked.retained.instance().data
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
            for e in checked.retained.instance().data.edges()
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
        enriched = checked.retained.instance().data
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
        assert checked.retained.instance().data.node("p9").properties["surname"] is None
        report = checked.update(RegistryDelta(remove_nodes=["p9"]))
        assert report.flush_delta.removed_nodes == [
            ("p9", "PhysicalPerson", person)]


# ----------------------------------------------------------------------
# The per-element flush: _derive's arbitration, one element at a time
# ----------------------------------------------------------------------
#: Heads that meet on one element: a node id taken from a surname cell
#: (a loaded node wins, under its label, when the surname is its id —
#: ``1``, ``1.0`` and ``True`` are one), derived under two labels that
#: write one attribute (the larger label's value wins, and over a
#: loaded value), a derived ``None`` (the unset birth date), a derived
#: node under two labels (``skFam``: Family for a female member, Place
#: always) and a derived edge under two labels (``skR``), whose
#: REPRESENTS end is a name, no node but for one person (dropped and
#: counted).
ARBITRATION_PROGRAM = """
(p: PhysicalPerson; surname: s, name: n) -> (s: Business; businessName: n).
(p: PhysicalPerson; surname: s, name: n)
  -> (s: PublicListedCompany; businessName: s, stockExchange: n).
(p: PhysicalPerson; surname: s, birthDate: d) -> (s: Business; website: d).
(p: PhysicalPerson; surname: s, gender: "female")
  -> exists f = skFam(s) : (f: Family; familyName: s).
(p: PhysicalPerson; surname: s, name: n)
  -> exists f = skFam(s) : (f: Place; city: n).
(p: PhysicalPerson; name: n) -> exists e = skR(p) : (p)[e: REPRESENTS](n).
(p: PhysicalPerson)[: OWNS; percentage: w](b: Business)
  -> exists e = skR(p) : (p)[e: HAS_ROLE; role: w](b).
"""


def person(surname, name, gender="male"):
    return {"fiscalCode": f"PF-{name}", "name": name, "surname": surname,
            "gender": gender}


def arbitration_registry():
    """An object-graph registry (ids are dict keys: an edge may name node
    ``1`` as ``True`` or ``1.0``) of people, businesses and stakes."""
    data = PropertyGraph("arbitration")
    for pid, surname, name, gender in (
        ("p1", "Rossi", "Ann", "female"), ("p2", "Rossi", "Bo", "male"),
        ("p5", 1.0, "Ed", "male"), ("p6", "Nowhere", "Fay", "female"),
    ):
        data.add_node(pid, "PhysicalPerson", **person(surname, name, gender))
    for bid in ("B1", "B2", 1):
        data.add_node(bid, "Business", fiscalCode=f"FC-{bid}",
                      businessName=f"{bid} SpA", **BUSINESS)
    for eid, source, target, share in (
        ("s1", "p1", "B1", 0.6), ("s2", "p2", 1, 0.3), ("s3", "B2", "B1", 0.4),
        ("s4", True, "B2", 0.7),
    ):
        data.add_edge(source, target, "OWNS", edge_id=eid, percentage=share)
    return data


def arbitration_deltas():
    """Chained deltas over :func:`arbitration_registry`, each with what
    it is for."""
    b1_stakes = [("s1", "p1", "B1", "OWNS", {"percentage": 0.6}),
                 ("s3", "B2", "B1", "OWNS", {"percentage": 0.4})]
    yield "a surname naming a loaded node, an edge under two labels", RegistryDelta(
        add_nodes=[("p3", "PhysicalPerson", person("B1", "B2", "female"))],
        add_edges=[("x1", "p3", "B1", "OWNS", {"percentage": 0.8})])
    yield "True and 1.0 naming node 1", RegistryDelta(
        add_nodes=[("p4", "PhysicalPerson", person(True, "Di"))],
        add_edges=[("x2", "p4", 1.0, "OWNS", {"percentage": 0.6}),
                   ("x3", True, "B1", "OWNS", {"percentage": 0.9})])
    yield "an edge end that is no node", RegistryDelta(
        add_nodes=[("p7", "PhysicalPerson", person("Elsewhere", "Gil"))])
    yield "a person and the edges it takes along", RegistryDelta(remove_nodes=["p3"])
    yield "a re-typed node", RegistryDelta(
        remove_nodes=["B1"],
        add_nodes=[("B1", "PublicListedCompany", {
            "fiscalCode": "FC-B1", "businessName": "B1 SpA", **BUSINESS,
            "stockExchange": "MIL"})],
        add_edges=[*b1_stakes, ("x3", True, "B1", "OWNS", {"percentage": 0.9})])
    yield "a derived node loses its smaller label", RegistryDelta(remove_nodes=["p1"])
    yield "everything added goes", RegistryDelta(
        remove_nodes=["p4", "p7"], remove_edges=["x3"])


class TestElementFlushArbitration:
    """Every update held against the whole-instance write (no instance
    written by update() itself), on programs whose heads meet."""

    @pytest.mark.parametrize("program", [
        "STAKEHOLDERS_PROGRAM", "FAMILY_PROGRAM", "ARBITRATION_PROGRAM"])
    def test_chained_deltas_equal_the_whole_write(
        self, company_schema, checked, program
    ):
        text = ARBITRATION_PROGRAM if program == "ARBITRATION_PROGRAM" else getattr(
            programs, program)
        checked.materialize(
            company_schema, arbitration_registry(), parse_metalog(text),
            instance_oid=9, retain=True,
        )
        for _what, delta in arbitration_deltas():
            update = checked.update(delta)
            whole = checked.retained.instance().data
            reads_as_written(update.instance, whole, [
                *(n.id for n in whole.nodes()),
                *(r[0] for r in update.flush_delta.removed_nodes)])

    def test_a_registry_edge_comes_and_goes_with_a_node_only_sigma_names(
        self, company_schema, checked
    ):
        """A stake in an untyped registry node is no edge until a
        surname names the node (a derived Business), and goes with it."""
        checked.materialize(
            company_schema, arbitration_registry(),
            parse_metalog(ARBITRATION_PROGRAM), instance_oid=9, retain=True,
        )
        stake = ("og", "B2", "ghost", "OWNS", {"percentage": 0.2})
        update = checked.update(RegistryDelta(
            add_nodes=[("ghost", None, {})], add_edges=[stake]))
        assert not update.flush_delta.changed() and update.flush_dropped_edges == 1
        update = checked.update(RegistryDelta(
            add_nodes=[("p8", "PhysicalPerson", person("ghost", "Hal"))]))
        assert ("ghost", "Business") in [n[:2] for n in update.flush_delta.added_nodes]
        assert stake in update.flush_delta.added_edges
        update = checked.update(RegistryDelta(remove_nodes=["p8"]))
        assert stake in update.flush_delta.removed_edges

    def test_what_the_heads_leave(self, company_schema, checked):
        report = checked.materialize(
            company_schema, arbitration_registry(),
            parse_metalog(ARBITRATION_PROGRAM), instance_oid=9, retain=True,
        )
        enriched = checked.retained.instance().data
        assert report.flush_dropped_edges == 4  # REPRESENTS Ann / Bo / Ed / Fay
        # Node 1 (the surname 1.0): a loaded node wins and keeps its
        # label; of the two labels writing businessName the larger wins
        # (over the loaded value too); the unset birth date is nothing.
        assert (enriched.node(1).label, enriched.node(1).properties) == ("Business", {
            "shareholdingCapital": 10.0, "businessName": 1, "legalNature": "spa",
            "fiscalCode": "FC-1", "stockExchange": "Ed"})
        family = SkolemValue("skFam", ("Rossi",))
        assert (enriched.node(family).label, enriched.node(family).properties) == (
            "Family", {"familyName": "Rossi", "city": "Ann"})
        deltas = dict(arbitration_deltas())
        update = checked.update(deltas[
            "a surname naming a loaded node, an edge under two labels"])
        # skR(p3): HAS_ROLE to B1, REPRESENTS to B2 — the smaller label,
        # the larger label's end.
        assert (SkolemValue("skR", ("p3",)), "p3", "B2", "HAS_ROLE", {"role": 0.8}) in (
            update.flush_delta.added_edges)
        ((b1, label, new, _old),) = update.flush_delta.updated_nodes
        assert (b1, label, new["businessName"], new["stockExchange"]) == (
            "B1", "Business", "B1", "B2")
        update = checked.update(deltas["True and 1.0 naming node 1"])
        assert ("x3", 1, "B1", "OWNS", {"percentage": 0.9}) in update.flush_delta.added_edges
        assert [n[0] for n in update.flush_delta.updated_nodes] == [
            1, SkolemValue("skFam", (1,))]
        assert checked.update(deltas["an edge end that is no node"]).flush_dropped_edges == 1
        checked.update(deltas["a person and the edges it takes along"])
        update = checked.update(deltas["a re-typed node"])
        assert [n[:2] for n in update.flush_delta.removed_nodes] == [("B1", "Business")]
        assert [n[:2] for n in update.flush_delta.added_nodes] == [
            ("B1", "PublicListedCompany")]
        update = checked.update(deltas["a derived node loses its smaller label"])
        assert (family, "Place", {"city": "Bo"}) in update.flush_delta.added_nodes
        assert (family, "Family") in [n[:2] for n in update.flush_delta.removed_nodes]


# ----------------------------------------------------------------------
# A recomputed stratum keeps the nulls of what it derives again
# ----------------------------------------------------------------------
@pytest.fixture()
def control_500(company_schema):
    data, registry = kgbench_registry(500, 42)
    materializer = diff_is_the_oracle(IntensionalMaterializer())
    report = materializer.materialize(
        company_schema, registry, parse_metalog(programs.CONTROL_PROGRAM),
        instance_oid=9, retain=True,
    )
    return data, registry, materializer, report


class TestNullStability:
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
            """``(x, y)`` of ``CONTROLS(c, x, y)`` facts: plain ids."""
            return {tuple(fact[1:3]) for fact in facts}

        def edge_ids(graph):
            return {
                (e.source, e.target): e.id for e in graph.edges("CONTROLS")
            }

        stake = next(
            e for e in registry.edges("OWNS")
            if e["percentage"] > 0.5 and {e.source, e.target} <= businesses
        )
        before = baseline()
        ids_before = edge_ids(store.graph), edge_ids(materializer.retained.instance().data)
        update = materializer.update(RegistryDelta(remove_edges=[stake.id]))
        store.apply_flush_delta(update.flush_delta, schema=company_schema)
        after = baseline()
        assert (stake.source, stake.target) in before - after
        reason = update.delta_reason
        assert pairs(reason.removed.get("CONTROLS", ())) == before - after
        assert pairs(reason.added.get("CONTROLS", ())) == after - before
        # Every other derived edge keeps its id: the store's own in the
        # deployed store, its labeled null in the enriched graph.
        for graph, held in zip((store.graph, materializer.retained.instance().data),
                               ids_before):
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
        assert retained.result.database.interner is interner
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
        # A pair's own new values: the stake's id and the nulls of the
        # controls it brings (a dozen or two).  One renamed CONTROLS
        # stratum would be over 2,000 a pair.
        assert sizes[-1] - sizes[0] <= 19 * 32


# ----------------------------------------------------------------------
# The retained materialization is Sigma's chase state, nothing else
# ----------------------------------------------------------------------
def retained_databases(retained):
    """The retained chase databases, by state: Sigma's alone."""
    return {"result": retained.result.database}


def up_to_nulls(database):
    """Every relation's live facts, labeled nulls blanked (inside Skolem
    values too), as multisets."""
    def plain(value):
        if isinstance(value, Null):
            return "_"
        if isinstance(value, SkolemValue):
            return (value.functor, tuple(map(plain, value.arguments)))
        return value

    return {
        predicate: Counter(
            tuple(map(plain, fact)) for fact in database.facts(predicate)
        )
        for predicate in database.predicates()
    }


class TestRetainedStates:
    def test_the_retained_state_is_sigmas_alone(self, control_500):
        """One chase state, over Sigma's relations only: no ``I_SM_*``
        staging relation and no view relation."""
        retained = control_500[2].retained
        database = retained.result.database
        assert set(database._relations) <= retained.result.program.predicates()
        assert {"Business", "CONTROLS", "OWNS"} <= set(database.predicates())
        assert not any(
            name.startswith(("I_SM_", "SM_", "vI_")) for name in database._relations
        )

    def test_bootstrap_rows_are_the_registry_and_the_derived_facts(
        self, control_500
    ):
        """Sigma's input relations hold one row per registry element of
        their labels, and the rest is what Sigma derived."""
        _data, registry, materializer, report = control_500
        database = materializer.retained.result.database
        rows = {p: database.count(p) for p in database.predicates()}
        assert rows == {
            "Business": sum(1 for _ in registry.nodes("Business")),
            "OWNS": sum(1 for _ in registry.edges("OWNS")),
            "CONTROLS": report.derived_counts["CONTROLS"],
        }
        assert database.dead_rows() == 0

    def test_tombstones_are_compacted_at_the_end_of_an_update(
        self, company_schema, monkeypatch
    ):
        """500 chained batches at 200 companies: Sigma's database never
        holds more dead rows than live ones (without compaction they
        pile up past them), and compaction changes nothing in the
        result, which a fresh run matches."""
        data, registry = kgbench_registry(200, 42)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        businesses = sorted(data.companies)

        def chain(compacting):
            registry_now = registry.copy()
            materializer = IntensionalMaterializer()
            materializer.materialize(
                company_schema, registry_now, sigma, instance_oid=9, retain=True,
            )
            database = materializer.retained.result.database
            if not compacting:
                monkeypatch.setattr(database, "compact", lambda: None)
            rng, live, rows = random.Random(5), [], []
            for step in range(500):
                added = [
                    (f"b{step}-{k}", *rng.sample(businesses, 2), "OWNS",
                     {"percentage": rng.choice((0.2, 0.4, 0.6))})
                    for k in range(2)
                ]
                removed = [live.pop(rng.randrange(len(live)))
                           for _ in range(min(2, len(live)))]
                live.extend(stake[0] for stake in added)
                materializer.update(
                    RegistryDelta(add_edges=added, remove_edges=removed)
                )
                rows.append((database.total_facts(), database.dead_rows()))
            return registry_now, materializer.retained.instance().data, rows

        registry_now, compacted, rows = chain(True)
        _, uncompacted, piled = chain(False)
        assert all(dead <= live for live, dead in rows), max(rows, key=lambda r: r[1])
        assert piled[-1][1] > piled[-1][0], piled[-1]
        assert order_sensitive_digest(compacted) == order_sensitive_digest(uncompacted)
        fresh = IntensionalMaterializer().materialize(
            company_schema, registry_now.copy(), sigma, instance_oid=9,
        )
        assert renamed(compacted) == renamed(fresh.instance.data)

    def test_thirty_updates_leave_what_a_fresh_retained_run_holds(
        self, company_schema, control_500
    ):
        data, registry, materializer, _ = control_500
        rng = random.Random(26)
        businesses = sorted(data.companies)
        taken = {(s.owner, s.company) for s in data.stakes}
        live = []
        for step in range(30):
            if live and step % 3 == 2:
                gone = live.pop(rng.randrange(len(live)))
                materializer.update(RegistryDelta(remove_edges=[gone]))
                continue
            while True:
                owner, target = rng.sample(businesses, 2)
                if (owner, target) not in taken:
                    break
            taken.add((owner, target))
            live.append(f"slice-{step}")
            materializer.update(RegistryDelta(add_edges=[(
                live[-1], owner, target, "OWNS",
                {"percentage": 0.45 + step / 100},
            )]))
        fresh = IntensionalMaterializer()
        fresh.materialize(
            company_schema, registry.copy(),
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
            retain=True,
        )
        expected = retained_databases(fresh.retained)
        held = retained_databases(materializer.retained)
        for state, database in held.items():
            assert up_to_nulls(database) == up_to_nulls(expected[state]), state


def deployed_store(schema, columnar=True):
    store = GraphStore() if columnar else object_graph_store()
    store.deploy(SSST().translate(schema, "property-graph").target_schema)
    return store


class TestOneDictionary:
    """Algorithm 2 keeps one value dictionary from the registry to an
    empty store, and codes cross it only where values would be equal."""

    def test_registry_instance_and_store_share_one_interner(
        self, company_schema
    ):
        _data, registry = kgbench_registry(200, 42)
        report = IntensionalMaterializer().materialize(
            company_schema, registry,
            parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9,
        )
        store = deployed_store(company_schema)
        load = load_graph_store(company_schema, report.instance.data, store)
        assert load.adopted_rows == load.nodes + load.edges > 0
        assert registry.interner is report.instance.data.interner
        assert store.graph.interner is registry.interner
        # A store that already holds something keeps its own.
        other = deployed_store(company_schema)
        other.create_node("X", ["Person"], fiscalCode="FC-X")
        load_graph_store(company_schema, report.instance.data, other)
        assert other.graph.interner is not registry.interner

    def test_repeated_materializations_intern_nothing_new(
        self, company_schema
    ):
        _data, registry = kgbench_registry(200, 42)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        sizes = []
        for _ in range(3):
            copy = registry.copy()
            report = IntensionalMaterializer().materialize(
                company_schema, copy, sigma, instance_oid=9,
            )
            load_graph_store(
                company_schema, report.instance.data,
                deployed_store(company_schema),
            )
            sizes.append(len(copy.interner))
        assert copy.interner is registry.interner
        assert sizes[0] == sizes[1] == sizes[2], sizes

    @pytest.mark.parametrize("seed", range(3))
    def test_codes_decode_and_load_as_values_do(self, company_schema, seed):
        """Stored ``None`` next to a missing property, NaN, and ``1`` /
        ``1.0`` / ``True`` cells: the code path (the registry's interner
        shared by an empty columnar store) and the value path (the object
        graph store) deploy the same state."""
        from repro.deploy.resilience import graph_store_state

        rng = random.Random(seed)
        odd = [None, float("nan"), 1, 1.0, True, 0, False, 2.5, "1"]
        registry = make_graph("registry")
        people, businesses = [f"P{i}" for i in range(30)], [f"B{i}" for i in range(40)]
        for pid in people:
            properties = {"fiscalCode": f"FC-{pid}", "name": rng.choice(odd),
                          "gender": rng.choice(["f", True, 1])}
            if rng.random() < 0.6:
                properties["surname"] = rng.choice(odd)
            registry.add_node(pid, "PhysicalPerson", **properties)
        for bid in businesses:
            properties = {
                "fiscalCode": f"FC-{bid}", "businessName": rng.choice(odd),
                "legalNature": rng.choice(["spa", 1.0]),
                "shareholdingCapital": rng.choice(odd),
            }
            if rng.random() < 0.5:
                properties["website"] = rng.choice(odd)
            registry.add_node(bid, "Business", **properties)
        for index in range(150):
            registry.add_edge(
                rng.choice(people + businesses), rng.choice(businesses), "OWNS",
                edge_id=f"s{index}", percentage=rng.choice([0.3, 0.6, 1, True]),
            )
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        states = []
        for columnar in (True, False):
            report = IntensionalMaterializer().materialize(
                company_schema, registry.copy(), sigma, instance_oid=9
            )
            store = deployed_store(company_schema, columnar=columnar)
            load_graph_store(company_schema, report.instance.data, store)
            assert (getattr(store.graph, "interner", None)
                    is report.instance.data.interner) is columnar
            states.append(graph_store_state(store))
        assert states[0] == states[1]
        assert any(edge[2] == "CONTROLS" for edge in states[0][1])

    def test_no_cyclic_garbage_after_a_retained_run(self, company_schema):
        """The materializer no longer collects on exit: a retained run
        at 1,000 companies leaves no cycle to collect."""
        import gc

        _data, registry = kgbench_registry(1000, 42)
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        gc.collect()
        materializer = IntensionalMaterializer()
        materializer.materialize(
            company_schema, registry, sigma, instance_oid=9, retain=True,
        )
        assert gc.collect() == 0


# ----------------------------------------------------------------------
# Production's column maps against the reference V_I / Sigma / V_O
# ----------------------------------------------------------------------
ODD_CELLS = [None, float("nan"), 1, 1.0, True, 0, False, 2.5, "1"]


def odd_registry(seed):
    """A registry of stored ``None`` next to missing cells, NaN, ``1`` /
    ``1.0`` / ``True`` cells, ``PublicListedCompany`` nodes under
    ``Business``, an integer node id and a node and an edge sharing one."""
    rng = random.Random(seed)
    registry = make_graph("registry")
    people = [f"P{i}" for i in range(20)]
    businesses = [f"B{i}" for i in range(24)] + [7]
    for pid in people:
        properties = {"fiscalCode": f"FC-{pid}", "name": rng.choice(ODD_CELLS),
                      "gender": rng.choice(["f", True, 1])}
        if rng.random() < 0.7:
            properties["surname"] = rng.choice(["Rossi", "Greco", None, 1, True])
        registry.add_node(pid, "PhysicalPerson", **properties)
    for bid in businesses:
        listed = rng.random() < 0.3
        properties = {"fiscalCode": f"FC-{bid}", "businessName": rng.choice(ODD_CELLS),
                      "legalNature": rng.choice(["spa", 1.0]),
                      "shareholdingCapital": rng.choice(ODD_CELLS)}
        if rng.random() < 0.6:
            properties["website"] = rng.choice(ODD_CELLS)
        if listed:
            properties.update(stockExchange=rng.choice(["MIL", None]),
                              tickerSymbol=f"T{bid}")
        registry.add_node(bid, "PublicListedCompany" if listed else "Business",
                          **properties)
    for index in range(90):
        registry.add_edge(
            rng.choice(people + businesses), rng.choice(businesses), "OWNS",
            edge_id="B0" if index == 0 else f"s{index}",
            percentage=rng.choice([0.3, 0.6, 0.55, 1, True]),
        )
    return businesses, registry


def odd_deltas(seed, businesses):
    """Chained registry deltas over :func:`odd_registry`: stakes come
    and go, a node is added with odd cells and replaced, one removed."""
    rng = random.Random(seed + 100)
    yield RegistryDelta(add_edges=[("x1", "B1", "B2", "OWNS", {"percentage": 0.9})])
    yield RegistryDelta(add_nodes=[("N1", "PublicListedCompany", {
        **BUSINESS, "fiscalCode": "FC-N1", "businessName": None,
        "numberOfStakeholders": 1.0, "stockExchange": "MIL", "tickerSymbol": "N",
    })], add_edges=[("x2", "P1", "N1", "OWNS", {"percentage": True})])
    yield RegistryDelta(remove_edges=["x1", "B0"])
    yield RegistryDelta(remove_nodes=["N1"], add_nodes=[("N1", "Business", {
        **BUSINESS, "fiscalCode": "FC-N1", "businessName": "N1",
        "shareholdingCapital": float("nan"),
    })], add_edges=[("x3", "N1", rng.choice(businesses), "OWNS", {"percentage": 0.7})])
    yield RegistryDelta(remove_nodes=[rng.choice(businesses[:20])])


def store_state(schema, graph):
    from repro.deploy.resilience import graph_store_state

    store = deployed_store(schema)
    load_graph_store(schema, graph, store)
    return graph_store_state(store)


def differential_digests(schema, seed):
    """Each program fresh and after each chained update: production
    against the reference, order-sensitive when fresh and up to nulls
    and element order after updates (a fresh reference run renames
    nulls).  Returns production's order-sensitive digests."""
    from tests.reference import reference_materialize

    businesses, registry = odd_registry(seed)
    control = IntensionalMaterializer().materialize(
        schema, registry.copy(), parse_metalog(programs.CONTROL_PROGRAM), 9,
    ).instance.data
    digests = []
    for program, data in (
        ("CONTROL_PROGRAM", registry), ("STAKEHOLDERS_PROGRAM", registry),
        ("FAMILY_PROGRAM", registry), ("GROUP_PROGRAM", control),
    ):
        sigma = parse_metalog(getattr(programs, program))
        data = data.copy()
        materializer = diff_is_the_oracle(IntensionalMaterializer())
        report = materializer.materialize(schema, data, sigma, 9, retain=True)
        expected, dropped = reference_materialize(schema, data.copy(), sigma, 9)
        graph = report.instance.data
        assert order_sensitive_digest(graph) == order_sensitive_digest(expected.data)
        assert store_state(schema, graph) == store_state(schema, expected.data)
        assert report.flush_dropped_edges == dropped
        digests.append(order_sensitive_digest(graph))
        for delta in odd_deltas(seed, businesses) if program != "GROUP_PROGRAM" else ():
            materializer.update(delta)
            graph = materializer.retained.instance().data
            expected, _ = reference_materialize(schema, data.copy(), sigma, 9)
            assert renamed(graph) == renamed(expected.data), program
            assert store_state(schema, graph) == store_state(schema, expected.data)
            digests.append(order_sensitive_digest(graph))
    return digests


class TestColumnMapsEqualTheReference:
    @pytest.mark.parametrize("seed", range(2))
    def test_production_equals_the_reference(self, company_schema, seed):
        differential_digests(company_schema, seed)

    def test_the_battery_is_hash_seed_independent(self):
        script = (
            "from repro.finkg.company_schema import company_super_schema\n"
            "from tests.test_materializer import differential_digests\n"
            "print(differential_digests(company_super_schema(), 0))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
            )
            outputs.append(subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("'") == 2 * 19
