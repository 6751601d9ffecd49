"""MTV compiler tests: the three translation phases of Section 4."""

import pytest

from repro.errors import MetaLogError
from repro.graph import make_graph
from repro.graph.property_graph import PropertyGraph
from repro.metalog import (
    GraphCatalog,
    compile_metalog,
    graph_to_database,
    invert_path,
    is_recursive,
    parse_metalog,
    parse_metalog_rule,
    run_on_graph,
)
from repro.metalog.analysis import validate
from repro.metalog.ast import PathEdge, PathSeq, PathStar, PathAlt, EdgeAtom
from repro.vadalog.ast import SkolemTerm
from repro.vadalog.engine import Engine
from repro.vadalog.terms import Variable


@pytest.fixture()
def ownership_graph():
    return fill_ownership(PropertyGraph("own"))


def fill_ownership(g):
    for c in "abc":
        g.add_node(c, "Business", name=c)
    g.add_edge("a", "b", "OWNS", percentage=0.6)
    g.add_edge("b", "c", "OWNS", percentage=0.4)
    g.add_edge("a", "c", "OWNS", percentage=0.2)
    return g


class TestPhase1Extraction:
    def test_node_and_edge_layout(self, ownership_graph):
        catalog = GraphCatalog.from_graph(ownership_graph)
        db = graph_to_database(ownership_graph, catalog)
        assert db.facts("Business") == {("a", "a"), ("b", "b"), ("c", "c")}
        owns = db.facts("OWNS")
        assert len(owns) == 3
        fact = next(f for f in owns if f[1] == "a" and f[2] == "b")
        assert fact[3] == 0.6  # percentage at its catalog position

    def test_missing_properties_become_none(self):
        g = PropertyGraph()
        g.add_node(1, "P", x=1)
        g.add_node(2, "P")  # no x
        catalog = GraphCatalog.from_graph(g)
        db = graph_to_database(g, catalog)
        assert db.facts("P") == {(1, 1), (2, None)}

    def test_label_restriction(self, ownership_graph):
        catalog = GraphCatalog.from_graph(ownership_graph)
        db = graph_to_database(ownership_graph, catalog, node_labels=[], edge_labels=["OWNS"])
        assert db.count("Business") == 0
        assert db.count("OWNS") == 3


class TestPhase2Atoms:
    def test_node_atom_positions(self):
        catalog = GraphCatalog()
        catalog.extend_node("P", ["age", "name"])
        compiled = compile_metalog(
            parse_metalog('(x: P; name: n) -> exists c : (x)[c: R](x).'), catalog
        )
        rule = compiled.program.rules[0]
        atom = rule.body_atoms()[0]
        assert atom.predicate == "P"
        assert atom.terms[0] == Variable("x")
        assert atom.terms[2] == Variable("n")  # name after age (sorted)
        assert atom.terms[1].name == "_"  # anonymous age

    def test_unknown_attribute_extends_catalog(self):
        compiled = compile_metalog(
            parse_metalog("(x: P; brand: b) -> exists c : (x)[c: R](x).")
        )
        assert "brand" in compiled.catalog.node_properties["P"]

    def test_edge_oid_and_endpoints(self):
        compiled = compile_metalog(
            parse_metalog("(x: A)[e: R; w: v](y: B) -> exists c : (x)[c: S](y).")
        )
        atom = next(a for a in compiled.program.rules[0].body_atoms() if a.predicate == "R")
        assert atom.terms[0] == Variable("e")
        assert atom.terms[1] == Variable("x")
        assert atom.terms[2] == Variable("y")
        assert atom.terms[3] == Variable("v")

    def test_inverted_edge_swaps_endpoints(self):
        compiled = compile_metalog(
            parse_metalog("(x: A)[:R]-(y: B) -> exists c : (x)[c: S](y).")
        )
        atom = next(a for a in compiled.program.rules[0].body_atoms() if a.predicate == "R")
        assert atom.terms[1] == Variable("y") and atom.terms[2] == Variable("x")


class TestPhase3Paths:
    def test_concatenation_threads_fresh_variables(self):
        compiled = compile_metalog(
            parse_metalog("(x: A) [:R] . [:S] (y: B) -> exists c : (x)[c: T](y).")
        )
        atoms = {a.predicate: a for a in compiled.program.rules[0].body_atoms()}
        r, s = atoms["R"], atoms["S"]
        assert r.terms[1] == Variable("x")
        assert s.terms[2] == Variable("y")
        assert r.terms[2] == s.terms[1]  # shared intermediate

    def test_star_generates_beta_rules(self):
        compiled = compile_metalog(
            parse_metalog(
                "(x: SM_Node) ([:SM_CHILD]- . [:SM_PARENT])* (y: SM_Node)"
                " -> exists w : (x)[w: DESCFROM](y)."
            )
        )
        beta = next(iter(compiled.auxiliary_predicates))
        beta_rules = [
            r for r in compiled.program.rules if beta in r.head_predicates()
        ]
        assert len(beta_rules) == 2  # base + step, exactly Example 4.4
        step = next(r for r in beta_rules if beta in r.body_predicates())
        assert len(step.body_atoms()) == 3  # beta + the two dictionary edges

    def test_alternation_generates_alpha_rules(self):
        compiled = compile_metalog(
            parse_metalog("(x: A) ([:R] | [:S]) (y: B) -> exists c : (x)[c: T](y).")
        )
        alpha = next(iter(compiled.auxiliary_predicates))
        alpha_rules = [
            r for r in compiled.program.rules if alpha in r.head_predicates()
        ]
        assert len(alpha_rules) == 2  # one per branch

    def test_alternation_exports_shared_variables(self):
        compiled = compile_metalog(
            parse_metalog(
                "(x: A) ([:R; w: v] | [:S; w: v]) (y: B), v > 1"
                " -> exists c : (x)[c: T](y)."
            )
        )
        alpha = next(iter(compiled.auxiliary_predicates))
        call = next(
            a for r in compiled.program.rules for a in r.body_atoms()
            if a.predicate == alpha and Variable("x") in a.terms
        )
        assert Variable("v") in call.terms  # the paper's z tuple

    def test_alternation_branch_missing_export_rejected(self):
        with pytest.raises(MetaLogError):
            compile_metalog(
                parse_metalog(
                    "(x: A) ([:R; w: v] | [:S]) (y: B), v > 1"
                    " -> exists c : (x)[c: T](y)."
                )
            )

    def test_star_cannot_export_variables(self):
        with pytest.raises(MetaLogError):
            compile_metalog(
                parse_metalog(
                    "(x: A) ([:R; w: v])* (y: B), v > 1 -> exists c : (x)[c: T](y)."
                )
            )

    def test_invert_path_structure(self):
        r = PathEdge(EdgeAtom(None, "R"))
        s = PathEdge(EdgeAtom(None, "S"))
        inverted = invert_path(PathSeq((r, s)))
        assert isinstance(inverted, PathSeq)
        assert inverted.parts[0].edge.label == "S" and inverted.parts[0].edge.inverted
        double = invert_path(invert_path(PathStar(PathAlt((r, s)))))
        assert double == PathStar(PathAlt((r, s)))


class TestValidation:
    def test_star_in_recursive_program_rejected(self):
        program = parse_metalog(
            "(x: A) ([:R])* (y: A) -> exists c : (x)[c: R](y)."
        )
        assert is_recursive(program)
        with pytest.raises(MetaLogError):
            validate(program)

    def test_schema_oid_selectors_break_false_recursion(self):
        program = parse_metalog(
            "(n: SM_Node; schemaOID: 1) -> exists x = skN(n) :"
            " (x: SM_Node; schemaOID: 2)."
        )
        assert not is_recursive(program)

    def test_unbound_attribute_head_variable_rejected(self):
        with pytest.raises(MetaLogError):
            validate(parse_metalog("(x: A) -> exists c : (x)[c: R; w: v](x)."))

    def test_unbound_skolem_argument_rejected(self):
        with pytest.raises(MetaLogError):
            validate(parse_metalog("(x: A) -> exists c = sk(zz) : (x)[c: R](x)."))


class TestEndToEnd:
    def test_annotations_emitted(self, ownership_graph):
        compiled = compile_metalog(
            parse_metalog(
                "(x: Business)[:OWNS; percentage: w](y: Business), w > 0.5"
                " -> exists c : (x)[c: MAJOR](y)."
            )
        )
        inputs = compiled.program.input_predicates()
        assert "Business" in inputs and "OWNS" in inputs
        assert "return" in str(inputs["OWNS"].arguments[1])
        assert compiled.program.output_predicates() == ["MAJOR"]

    def test_run_on_graph_materializes_edges(self, ownership_graph):
        outcome = run_on_graph(
            parse_metalog(
                "(x: Business)[:OWNS; percentage: w](y: Business), w > 0.5"
                " -> exists c : (x)[c: MAJOR](y)."
            ),
            ownership_graph,
        )
        assert outcome.new_edges == 1
        edge = next(iter(outcome.graph.edges("MAJOR")))
        assert (edge.source, edge.target) == ("a", "b")
        # Original graph untouched (no inplace).
        assert not list(ownership_graph.edges("MAJOR"))

    def test_run_on_graph_inplace(self, ownership_graph):
        run_on_graph(
            parse_metalog("(x: Business) -> exists c : (x)[c: SELF](x)."),
            ownership_graph,
            inplace=True,
        )
        assert len(list(ownership_graph.edges("SELF"))) == 3

    @pytest.mark.parametrize("columnar", [True, False])
    def test_run_on_graph_extracts_into_the_engine_backend(
        self, monkeypatch, columnar
    ):
        """The extracted database is the engine's one fact store, over
        the source graph's value dictionary when it has one (the
        columnar graph store) and a fresh one for the object store."""
        graph = fill_ownership(
            make_graph("own") if columnar else PropertyGraph("own")
        )
        handed = []
        run = Engine.run

        def recording(self, program, database=None, **kwargs):
            handed.append(database.interner is getattr(graph, "interner", None))
            return run(self, program, database=database, **kwargs)

        monkeypatch.setattr(Engine, "run", recording)
        outcome = run_on_graph(
            parse_metalog("(x: Business) -> exists c : (x)[c: SELF](x)."),
            graph,
        )
        assert handed == [columnar]
        assert outcome.new_edges == 3

    def test_derived_node_with_attributes(self, ownership_graph):
        outcome = run_on_graph(
            parse_metalog(
                '(x: Business; name: n) -> exists m = skMirror(n) :'
                ' (m: Mirror; name: n).'
            ),
            ownership_graph,
        )
        assert outcome.new_nodes == 3
        names = {n.get("name") for n in outcome.graph.nodes("Mirror")}
        assert names == {"a", "b", "c"}

    def test_rerun_is_idempotent_with_skolems(self, ownership_graph):
        program = parse_metalog(
            '(x: Business; name: n) -> exists m = skMirror(n) : (m: Mirror; name: n).'
        )
        once = run_on_graph(program, ownership_graph)
        twice = run_on_graph(program, once.graph)
        assert twice.new_nodes == 0


class TestNegatedPatterns:
    def test_negated_edge_compiles_and_runs(self, ownership_graph):
        outcome = run_on_graph(
            parse_metalog(
                "(x: Business), (y: Business), x != y, not (x)[:OWNS](y)"
                " -> exists c : (x)[c: NO_STAKE](y)."
            ),
            ownership_graph,
        )
        pairs = {(e.source, e.target) for e in outcome.graph.edges("NO_STAKE")}
        # a owns b and c, b owns c: the complement of OWNS on distinct pairs.
        assert pairs == {("b", "a"), ("c", "a"), ("c", "b")}

    def test_negated_node_label(self, ownership_graph):
        graph = ownership_graph.copy()
        graph.add_node("p", "Person", name="p")
        outcome = run_on_graph(
            parse_metalog(
                "(x: Business), not (x: Person)"
                " -> exists c : (x)[c: PURE_BUSINESS](x)."
            ),
            graph,
        )
        assert {e.source for e in outcome.graph.edges("PURE_BUSINESS")} == {
            "a", "b", "c",
        }

    def test_unsafe_negated_variable_rejected(self):
        with pytest.raises(MetaLogError):
            compile_metalog(
                parse_metalog(
                    "(x: A), not (x)[:R](y) -> exists c : (x)[c: S](x)."
                )
            )

    def test_negated_conjunction_rejected(self):
        with pytest.raises(MetaLogError):
            compile_metalog(
                parse_metalog(
                    "(x: A), (y: B), not (x: A)[:R](y: B)"
                    " -> exists c : (x)[c: S](y)."
                )
            )

    def test_negated_bare_node_rejected(self):
        with pytest.raises(MetaLogError):
            compile_metalog(
                parse_metalog("(x: A), not (x) -> exists c : (x)[c: S](x).")
            )
