"""CLI tool and JSON graph-interchange tests."""

import json

import pytest

from repro.cli import main
from repro.errors import GraphError
from repro.graph.io import graph_from_json, graph_to_json, load_graph, save_graph
from repro.graph.property_graph import PropertyGraph

MINI_GSL = """
schema Mini oid 3 {
  node Company { id vat: string name: string }
  intensional edge CONTROLS Company -> Company
  edge OWNS Company -> Company { percentage: float }
}
"""

CONTROL_METALOG = """
(x: Company) -> exists c : (x)[c: CONTROLS](x).
(x: Company)[:CONTROLS](z: Company)[:OWNS; percentage: w](y: Company),
    v = msum(w, <z>), v > 0.5 -> exists c : (x)[c: CONTROLS](y).
"""


@pytest.fixture()
def workspace(tmp_path):
    schema_path = tmp_path / "mini.gsl"
    schema_path.write_text(MINI_GSL)
    program_path = tmp_path / "rules.metalog"
    program_path.write_text(CONTROL_METALOG)
    graph = PropertyGraph("holdings")
    for vat in ("A", "B", "C"):
        graph.add_node(vat, "Company", vat=vat, name=vat)
    graph.add_edge("A", "B", "OWNS", percentage=0.6)
    graph.add_edge("B", "C", "OWNS", percentage=0.3)
    graph.add_edge("A", "C", "OWNS", percentage=0.3)
    data_path = tmp_path / "data.json"
    save_graph(graph, str(data_path))
    return tmp_path


class TestGraphIO:
    def test_round_trip(self):
        graph = PropertyGraph("g")
        graph.add_node(1, "A", x=1, label_like="x")
        graph.add_node(2, "B")
        graph.add_edge(1, 2, "R", edge_id="e", w=0.5)
        back = graph_from_json(graph_to_json(graph))
        assert back.name == "g"
        assert back.node(1).get("x") == 1
        assert back.edge("e").get("w") == 0.5
        assert back.node(2).label == "B"

    def test_invalid_json(self):
        with pytest.raises(GraphError):
            graph_from_json("{not json")

    def test_file_round_trip(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("n", "L")
        path = tmp_path / "g.json"
        save_graph(graph, str(path))
        assert load_graph(str(path)).has_node("n")


class TestCLI:
    def test_validate_ok(self, workspace, capsys):
        assert main(["validate", str(workspace / "mini.gsl")]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_validate_reports_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsl"
        bad.write_text("schema Bad { node A { x: string } }")
        assert main(["validate", str(bad)]) == 1
        assert "identifying" in capsys.readouterr().out

    def test_render_dot_and_graphemes(self, workspace, capsys):
        assert main(["render", str(workspace / "mini.gsl"), "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out
        assert main(["render", str(workspace / "mini.gsl")]) == 0
        assert "node-box" in capsys.readouterr().out

    def test_render_supermodel_table(self, capsys):
        assert main(["render", "--format", "supermodel"]) == 0
        assert "SM_Generalization" in capsys.readouterr().out

    def test_translate_ddl(self, workspace, capsys):
        assert main([
            "translate", str(workspace / "mini.gsl"),
            "--model", "relational", "--ddl",
        ]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE Company" in out
        assert "FOREIGN KEY" in out

    def test_translate_flag_model_mismatch(self, workspace, capsys):
        assert main([
            "translate", str(workspace / "mini.gsl"), "--model", "rdf", "--ddl",
        ]) == 2

    def test_compile(self, workspace, capsys):
        assert main(["compile", str(workspace / "rules.metalog")]) == 0
        out = capsys.readouterr().out
        assert "msum" in out and "CONTROLS" in out
        assert "@input" in out

    def test_reason_end_to_end(self, workspace, capsys):
        output = workspace / "enriched.json"
        assert main([
            "reason", str(workspace / "mini.gsl"), str(workspace / "data.json"),
            str(workspace / "rules.metalog"), "-o", str(output),
        ]) == 0
        enriched = load_graph(str(output))
        controls = {
            (e.source, e.target) for e in enriched.edges("CONTROLS")
            if e.source != e.target
        }
        assert controls == {("A", "B"), ("A", "C")}

    def test_update_says_what_it_recomputed(self, workspace, capsys, monkeypatch):
        data = load_graph(str(workspace / "data.json"))
        (stake,) = (e.id for e in data.edges("OWNS")
                    if (e.source, e.target) == ("A", "B"))
        argv = [
            "update", str(workspace / "mini.gsl"), str(workspace / "data.json"),
            str(workspace / "rules.metalog"), "--remove", str(stake),
            "-o", str(workspace / "updated.json"),
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "strata recomputed: 0," in err and "\n  recomputed: " not in err
        # Sigma's net head-fact changes: CONTROLS A -> B and A -> C go.
        assert "(strata recomputed: 0, head facts changed: 2)\n" in err
        updated = load_graph(str(workspace / "updated.json"))
        assert all(e.source == e.target for e in updated.edges("CONTROLS"))
        # A stratum the engine had to recompute is named, with its reason.
        from repro.vadalog import incremental

        monkeypatch.setattr(
            incremental, "_existential_safe", lambda *args: False)
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "strata recomputed: 1," in err
        assert (
            "  recomputed: reason stratum 0, rule r1: "
            "existential writer refused by the gate"
        ) in err

    def test_reason_to_stdout(self, workspace, capsys):
        assert main([
            "reason", str(workspace / "mini.gsl"), str(workspace / "data.json"),
            str(workspace / "rules.metalog"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(e["label"] == "CONTROLS" for e in payload["edges"])

    @pytest.mark.parametrize("command, flag", [
        ("reason", ["--workers", "2"]),
        ("reason", ["--no-columnar"]),
        ("serve", ["--no-columnar"]),
        ("update", ["--track-support"]),
    ])
    def test_no_flag_selects_an_execution_path(self, workspace, capsys,
                                               command, flag):
        positionals = [] if command == "serve" else [
            str(workspace / "mini.gsl"), str(workspace / "data.json"),
            str(workspace / "rules.metalog"),
        ]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *positionals, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stats(self, capsys):
        assert main(["stats", "--companies", "120", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "avg_clustering" in out and "paper" in out

    @pytest.mark.parametrize("argv", [
        ["stats", "--companies", "0"],
        ["stats", "--companies", "-3"],
        ["serve", "--demo-companies", "0", "--port", "0"],
    ])
    def test_an_empty_registry_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: a registry needs at least one company"
        ), captured.err
        assert not captured.out

    def test_the_generator_refuses_an_empty_registry(self):
        from repro.finkg import ShareholdingConfig

        with pytest.raises(ValueError, match="at least one company"):
            ShareholdingConfig(companies=0)
        assert ShareholdingConfig(companies=1).companies == 1

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.gsl"]) == 2
