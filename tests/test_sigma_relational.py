"""The translated intensional component over relational targets
(Algorithm 1 output (ii))."""

import pytest

from repro.deploy import RelationalEngine
from repro.errors import TranslationError
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.metalog import parse_metalog
from repro.ssst import (
    SSST,
    graph_instance_to_relational,
    reason_over_relational,
    translate_sigma_for_relational,
)


@pytest.fixture(scope="module")
def relational_schema():
    return SSST().translate(company_super_schema(), "relational").target_schema


@pytest.fixture()
def deployed(company_schema, tiny_instance, relational_schema):
    engine = RelationalEngine()
    engine.deploy(relational_schema)
    graph_instance_to_relational(company_schema, tiny_instance, engine)
    return engine


class TestTranslation:
    def test_node_atom_joins_member_chain(self, company_schema, relational_schema):
        sigma = parse_metalog(
            "(x: Business; businessName: n) -> exists c : (x)[c: CONTROLS](x)."
        )
        compiled = translate_sigma_for_relational(
            sigma, company_schema, relational_schema
        )
        rule = compiled.program.rules[0]
        predicates = [a.predicate for a in rule.body_atoms()]
        # businessName lives on LegalPerson: the chain join appears.
        assert "Business" in predicates and "LegalPerson" in predicates

    def test_mn_edge_uses_bridge_table(self, company_schema, relational_schema):
        sigma = parse_metalog(programs.CONTROL_PROGRAM)
        compiled = translate_sigma_for_relational(
            sigma, company_schema, relational_schema
        )
        assert "OWNS" in compiled.input_tables
        assert compiled.derived_tables == {"CONTROLS": "CONTROLS"}

    def test_fk_edge_reads_holder_column(self, company_schema, relational_schema):
        sigma = parse_metalog(
            "(s: Share)[: BELONGS_TO](b: Business)"
            " -> exists c : (b)[c: CONTROLS](b)."
        )
        compiled = translate_sigma_for_relational(
            sigma, company_schema, relational_schema
        )
        rule = compiled.program.rules[0]
        header = [c.name for c in relational_schema.table("Share").columns]
        fk_index = header.index("BELONGS_TO_fiscalCode")
        # Some Share atom binds the FK column (the edge-traversal one).
        assert any(
            a.predicate == "Share" and str(a.terms[fk_index]) != "?_"
            for a in rule.body_atoms()
        )

    def test_star_rejected(self, company_schema, relational_schema):
        sigma = parse_metalog(
            "(x: Business) ([:OWNS])* (y: Business)"
            " -> exists c : (x)[c: CONTROLS](y)."
        )
        with pytest.raises(TranslationError):
            translate_sigma_for_relational(
                sigma, company_schema, relational_schema
            )

    def test_attribute_head_rejected(self, company_schema, relational_schema):
        sigma = parse_metalog(programs.STAKEHOLDERS_PROGRAM)
        with pytest.raises(TranslationError):
            translate_sigma_for_relational(
                sigma, company_schema, relational_schema
            )


class TestReasoning:
    def test_owns_then_control_over_tables(
        self, company_schema, relational_schema, deployed
    ):
        # Stage 1: derive OWNS rows from HOLDS/Share/BELONGS_TO tables.
        derived = reason_over_relational(
            parse_metalog(programs.OWNS_PROGRAM),
            company_schema, relational_schema, deployed,
        )
        owns = {
            (r["OWNS_src_fiscalCode"], r["OWNS_tgt_fiscalCode"], r["percentage"])
            for r in derived["OWNS"]
        }
        assert ("FCB1", "FCB2", 0.6) in owns
        assert ("FCp1", "FCB1", 0.8) in owns
        assert deployed.count("OWNS") == len(owns)

        # Stage 2: control over the now-populated OWNS bridge.
        derived2 = reason_over_relational(
            parse_metalog(programs.PERSON_CONTROL_PROGRAM),
            company_schema, relational_schema, deployed,
        )
        controls = {
            (r["CONTROLS_src_fiscalCode"], r["CONTROLS_tgt_fiscalCode"])
            for r in derived2["CONTROLS"]
            if r["CONTROLS_src_fiscalCode"] != r["CONTROLS_tgt_fiscalCode"]
        }
        assert controls == {
            ("FCp1", "FCB1"), ("FCp1", "FCB2"), ("FCp1", "FCB3"),
            ("FCB1", "FCB2"), ("FCB1", "FCB3"),
        }

    def test_rerun_is_idempotent(
        self, company_schema, relational_schema, deployed
    ):
        sigma = parse_metalog(programs.OWNS_PROGRAM)
        first = reason_over_relational(
            sigma, company_schema, relational_schema, deployed
        )
        again = reason_over_relational(
            sigma, company_schema, relational_schema, deployed
        )
        assert first["OWNS"] and not again["OWNS"]

    def test_agrees_with_algorithm_2(
        self, company_schema, relational_schema, deployed, tiny_instance
    ):
        from repro.ssst import IntensionalMaterializer

        # The dictionary route (Algorithm 2) over the same instance.
        materializer = IntensionalMaterializer()
        staged = materializer.materialize(
            company_schema, tiny_instance,
            parse_metalog(programs.OWNS_PROGRAM), 1,
        )
        dictionary_owns = {
            (f"FC{e.source}" if not e.source.startswith("FC") else e.source,
             f"FC{e.target}" if not e.target.startswith("FC") else e.target)
            for e in staged.instance.data.edges("OWNS")
        }
        derived = reason_over_relational(
            parse_metalog(programs.OWNS_PROGRAM),
            company_schema, relational_schema, deployed,
        )
        relational_owns = {
            (r["OWNS_src_fiscalCode"], r["OWNS_tgt_fiscalCode"])
            for r in derived["OWNS"]
        }
        assert relational_owns == dictionary_owns


# ---------------------------------------------------------------------------
# Odd cells: None, 1 / 1.0 / True, "1" and 2.5 in the tables Sigma reads
# ---------------------------------------------------------------------------

#: Cell values the fact store keeps apart (``"1"``, ``None``, ``True``)
#: or equates (``1 == 1.0``).
CELLS = [None, 1, 1.0, True, "1", 2.5]


class _Tables:
    """A deployed instance as ``reason_over_relational`` reads it."""

    def __init__(self, tables):
        self.tables = tables

    def rows(self, name):
        return [dict(row) for row in self.tables.get(name, [])]


def typed(row):
    return tuple((type(value).__name__, value) for value in row)


N, I, F, S, A = ("NoneType", None), ("int", 1), ("float", 2.5), ("str", "1"), ("str", "a")


class TestOddCells:
    """The rows Sigma derives over cells the store keeps apart or
    equates, as recorded when both callers loaded tuple relations that
    ``Engine.run`` converted: the one store loads them to the same rows."""

    def test_reason_over_relational(self, company_schema, relational_schema):
        business = [
            {"isA_Business_fiscalCode": cell, "numberOfStakeholders": cell,
             "shareholdingCapital": cell}
            for cell in CELLS + ["a"]
        ]
        owns = [
            {"OWNS_src_fiscalCode": src, "OWNS_tgt_fiscalCode": tgt, "percentage": w}
            for src, tgt, w in [
                (1, 2.5, 0.6), (True, "1", 0.7), (1.0, "a", 0.9), ("a", None, 0.8),
                ("1", 1, 0.51), (2.5, True, 1), (None, 1.0, 0.55), ("1", 2.5, 0.3),
                (1, 2.5, 0.3),
            ]
        ]
        derived = reason_over_relational(
            parse_metalog(programs.CONTROL_PROGRAM), company_schema,
            relational_schema, _Tables({"Business": business, "OWNS": owns}),
            insert=False,
        )
        assert {t: [typed(row.values()) for row in rows] for t, rows in derived.items()} == {
            "CONTROLS": [
                (N, N), (N, I), (N, F), (N, A), (I, N), (I, I), (I, F), (I, A),
                (F, F), (S, N), (S, I), (S, F), (S, S), (S, A), (A, N), (A, I),
                (A, F), (A, A),
            ]
        }

    def test_resolve_inputs(self):
        from repro.vadalog import Engine, parse_program
        from repro.vadalog.annotations import resolve_inputs

        program = parse_program(
            '@input("p", "scan").\n@input("e", "edges").\n'
            "p(X, Y), e(Y, Z) -> q(X, Z).\np(X, X) -> same(X)."
        )

        class Source:
            def extract(self, query):
                if query == "scan":
                    return [(a, b) for a in CELLS for b in CELLS][::5]
                return [(cell, f"z{i}") for i, cell in enumerate(CELLS)]

        result = Engine().run(program, database=resolve_inputs(program, {"s": Source()}))
        B = ("bool", True)
        z = [("str", f"z{i}") for i in range(6)]
        assert {
            p: sorted(map(typed, result.facts(p)), key=repr)
            for p in ("p", "e", "q", "same")
        } == {
            "p": [(N, N), (N, F), (F, N), (F, F), (I, B), (I, S), (S, I)],
            "e": [(N, z[0]), (B, z[3]), (F, z[5]), (I, z[1]), (I, z[2]), (S, z[4])],
            "q": [(N, z[0]), (N, z[5]), (F, z[0]), (F, z[5]), (I, z[3]), (I, z[4]),
                  (S, z[1]), (S, z[2])],
            "same": [(N,), (F,)],
        }
