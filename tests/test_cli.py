import json

import pytest

from swapeq.cli import run
from swapeq.families import complete, complete_bipartite, cycle, path, star
from swapeq.graph import Graph
from swapeq.io import encode_graph6


def write_edges(tmp_path, g: Graph, name="g.edges"):
    p = tmp_path / name
    p.write_text(f"{g.n} {g.m}\n" + "".join(f"{a} {b}\n" for a, b in g.edges))
    return str(p)


def write_g6(tmp_path, graphs, name="g.g6"):
    p = tmp_path / name
    p.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    return str(p)


class TestCheck:
    def test_k23_equilibrium(self, tmp_path, capsys):
        assert run(["check", write_edges(tmp_path, complete_bipartite(2, 3))]) == 0
        assert "equilibrium: true" in capsys.readouterr().out

    def test_p4_witness(self, tmp_path, capsys):
        assert run(["check", write_edges(tmp_path, path(4))]) == 1
        out = capsys.readouterr().out
        assert "equilibrium: false" in out
        assert "agent 0" in out and "cost delta -1" in out

    def test_malformed(self, tmp_path, capsys):
        p = tmp_path / "bad.edges"
        p.write_text("not a graph\n")
        assert run(["check", str(p)]) == 2

    def test_missing_file(self):
        assert run(["check", "/nonexistent/file.edges"]) == 2

    def test_g6_autodetect(self, tmp_path):
        assert run(["check", write_g6(tmp_path, [cycle(4)])]) == 0

    def test_format_override(self, tmp_path):
        p = tmp_path / "graph.txt"
        p.write_text(encode_graph6(cycle(4)) + "\n")
        assert run(["check", str(p), "--format", "g6"]) == 0


class TestAnalyze:
    def test_c4_pendant(self, tmp_path, capsys):
        from swapeq.graph import build_graph

        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert run(["analyze", write_edges(tmp_path, g)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bridges"] == [[0, 4]]
        assert [0, 1, 2, 3] in rep["two_edge_connected_components"]
        assert rep["classes"]["cactus"] is True

    def test_k4_no_bridges(self, tmp_path, capsys):
        from swapeq.families import complete

        assert run(["analyze", write_edges(tmp_path, complete(4))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bridges"] == []

    def test_tree(self, tmp_path, capsys):
        assert run(["analyze", write_edges(tmp_path, star(4))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["classes"]["block_graph"] is True
        assert rep["classes"]["tree"] is True


class TestTheory:
    def test_c4_totals(self, tmp_path, capsys):
        assert run(["theory", write_edges(tmp_path, cycle(4))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["total"] == "0/1"
        assert all(v == "0/1" for v in rep["per_observer"].values())
        assert rep["strict_witness"] is None

    def test_c6_witness(self, tmp_path, capsys):
        assert run(["theory", write_edges(tmp_path, cycle(6))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["strict_witness"] is not None
        num, den = rep["total"].split("/")
        assert int(num) < 0

    def test_c5_brute_only(self, tmp_path, capsys):
        assert run(["theory", write_edges(tmp_path, cycle(5))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "warning" in rep
        assert "closed_form" not in rep["shifts"][0]
        assert "simulated" in rep["shifts"][0]
        assert "inequalities" not in rep

    def test_tree_input_fails(self, tmp_path):
        assert run(["theory", write_edges(tmp_path, star(3))]) == 2

    def test_bad_component_index(self, tmp_path):
        assert run(["theory", write_edges(tmp_path, cycle(4)),
                    "--component", "3"]) == 2


class TestDynamics:
    def test_p4(self, tmp_path, capsys):
        assert run(["dynamics", write_edges(tmp_path, path(4))]) == 0
        out = capsys.readouterr().out
        assert "outcome: converged" in out
        assert "final diameter: 2" in out

    def test_star_zero(self, tmp_path, capsys):
        assert run(["dynamics", write_edges(tmp_path, star(5))]) == 0
        assert "converged after 0 moves" in capsys.readouterr().out

    def test_step_limit(self, tmp_path, capsys):
        assert run(["dynamics", write_edges(tmp_path, path(4)),
                    "--max-steps", "0"]) == 0
        assert "outcome: step_limit" in capsys.readouterr().out


class TestSurvey:
    def test_n5_all_claims(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["survey", "--n", "5", "--claims", "all",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["graphs"] == 728
        assert rep["summary"]["violations"] == []

    def test_n9_rejected(self, capsys):
        assert run(["survey", "--n", "9"]) == 2

    def test_n8_needs_confirmation(self):
        assert run(["survey", "--n", "8"]) == 2

    def test_workers_env_default(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("SWAPEQ_WORKERS", "2")
        assert run(["survey", "--n", "4", "--out", str(out)]) == 0
        baseline = out.read_bytes()
        monkeypatch.setenv("SWAPEQ_WORKERS", "1")
        assert run(["survey", "--n", "4", "--out", str(out)]) == 0
        assert out.read_bytes() == baseline

    def test_needs_source(self):
        assert run(["survey"]) == 2
        assert run(["survey", "--n", "4", "--g6", "x.g6"]) == 2

    def test_unknown_claim(self):
        assert run(["survey", "--n", "4", "--claims", "bogus"]) == 2

    def test_g6_stream_krs(self, tmp_path, capsys):
        graphs = [complete_bipartite(r, s)
                  for r, s in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]]
        path6 = write_g6(tmp_path, graphs)
        assert run(["survey", "--g6", path6]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["summary"]["equilibria"] == 5
        assert all(r["equilibrium"] for r in rep["records"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_dedup_over_8_vertices_names_line(self, tmp_path, capsys, workers):
        # more lines than one chunk, so that two workers really share the stream
        k3, big = encode_graph6(complete(3)), encode_graph6(star(8))
        lines = [k3] * 2200
        lines[1] = ""
        lines[2059] = big
        p = tmp_path / "stream.g6"
        p.write_text("\n".join(lines) + "\n")
        assert run(["survey", "--g6", str(p), "--dedup", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert f"line 2060 ({big})" in err
        assert "capped at 8 vertices" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_malformed_line_named(self, tmp_path, capsys, workers):
        # the bad line sits in the second 2,048-line chunk
        lines = [encode_graph6(complete(3))] * 2200
        lines[2099] = "B!!bad"
        p = tmp_path / "stream.g6"
        p.write_text("\n".join(lines) + "\n")
        assert run(["survey", "--g6", str(p), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "graph6 line 2100 (B!!bad): " in err
        assert "unexpected bytes after the bit payload" in err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["survey", "--n", "4", "--format", "csv",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph6,n,m,connected")
        assert len(lines) == 39  # header + 38 records

    def test_version(self, capsys):
        assert run(["--version"]) == 0
