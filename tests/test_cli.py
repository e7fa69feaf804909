import collections
import hashlib
import json
import sys

import pytest

from swapeq.cli import run
from swapeq.families import complete, complete_bipartite, cycle, path, paw, star
from swapeq.graph import Graph, build_graph
from swapeq.io import encode_graph6


def write_edges(tmp_path, g: Graph, name="g.edges"):
    p = tmp_path / name
    p.write_text(f"{g.n} {g.m}\n" + "".join(f"{a} {b}\n" for a, b in g.edges))
    return str(p)


def write_g6(tmp_path, graphs, name="g.g6"):
    p = tmp_path / name
    p.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    return str(p)


# bipartite, bridgeless, diameter > 2: the benchmark's theory family
FAR8 = build_graph(8, [(0, 1), (0, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
                       (3, 7), (4, 7), (5, 7), (6, 7)])
FAR14 = build_graph(14, [
    (0, 1), (0, 3), (0, 5), (0, 6), (0, 11), (0, 12), (1, 4), (1, 8), (1, 10), (2, 8),
    (2, 9), (2, 13), (3, 4), (3, 8), (3, 9), (3, 13), (4, 5), (4, 7), (4, 11), (4, 12),
    (5, 10), (5, 13), (6, 8), (6, 9), (6, 10), (6, 13), (7, 8), (7, 13), (8, 11),
    (10, 11), (10, 12), (11, 13), (12, 13)])

THEORY_PINS = {
    "c6_pendant": (
        build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)]),
        "a078914c39ba466913986cc0b1c5e624814d3a9977e3add5ba4e2abe2e260c64"),
    "k23": (complete_bipartite(2, 3),
            "3395b285e5481a4ae3a4bf11f6de1393ef88195549d937480e98292f1566c9fd"),
    "far8": (FAR8, "3ff370f203b1017af13a5f3d1706de49c047ca35b7d44cd440a52d05ac22b1de"),
    # not bipartite: the warning path, simulated values only
    "c5": (cycle(5), "1ca9f12d4a78cc5850b4382c0f569cfb2d927a9273ae07b53fcaa2dffcde3076"),
}


ANALYZE_PINS = {
    "c4_pendant": (
        build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
        "50fdc5551f7299c9435a7aa588670174658b1774ca2fbb97adde175946167c0d"),
    "k4": (complete(4), "4681892a5e61122740c5f13197873ebcb8f0c74a19b54c80c8c2989b155fbd13"),
    "star4": (star(4), "91f0f885380a283db44c4e896ef32f5f488cfc570c5ce89eb75ea6657435c1db"),
    # not bipartite: the odd_walk path
    "c5": (cycle(5), "760ec32db26bc43fdab3929f50db3c7a689ca83180e8945be3862f81b319eccd"),
    "paw": (paw(), "46988dbfbf267b5d0a9892436ad58010927160347560b2a659356c6c6c9e8255"),
    "far8": (FAR8, "08d8bb012cac30900cbf92641b2118112d8ec4a49da8680b2e9136d8ee2b7d44"),
    # disconnected: no classes, decomposition or worlds
    "two_edges": (build_graph(4, [(0, 1), (2, 3)]),
                  "53fe58d795d25b65e31e4a13e3a43ccf323a64fad409b7072e28278a09c26464"),
}

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

    def test_connectivity_tested_once(self, tmp_path, capsys, monkeypatch):
        # is_equilibrium's own test; the CLI adds none
        from swapeq import kernels

        calls = []
        real = kernels.is_connected
        monkeypatch.setattr(kernels, "is_connected", lambda adj: calls.append(adj) or real(adj))
        assert run(["check", write_edges(tmp_path, path(4))]) == 1
        assert calls == [path(4).adj]

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

    def test_extended_graph6_header(self, tmp_path, capsys):
        # 63 and 64 vertices need graph6's '~' size header
        assert run(["analyze", write_edges(tmp_path, path(63))]) == 0
        assert json.loads(capsys.readouterr().out)["graph6"].startswith("~??~")

    @pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
    def test_report_pinned(self, tmp_path, capsys, name):
        # sha256 of the whole report, tool_version included: any byte that moves shows here
        g, digest = ANALYZE_PINS[name]
        assert run(["analyze", write_edges(tmp_path, g)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("name", sorted(THEORY_PINS))
    def test_observer_all_report_pinned(self, tmp_path, capsys, name):
        # sha256 of the whole report, tool_version included: any byte that moves shows here
        g, digest = THEORY_PINS[name]
        assert run(["theory", write_edges(tmp_path, g), "--observer", "all"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_observer_all_does_each_piece_once(self, tmp_path, capsys, monkeypatch):
        from swapeq import cli, kernels, structure, theory

        counts = collections.Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        agg = counting("aggregate_swaps", theory.aggregate_swaps)
        monkeypatch.setattr(theory, "aggregate_swaps", agg)
        monkeypatch.setattr(cli, "aggregate_swaps", agg)
        monkeypatch.setattr(theory, "LayerProfile", counting("LayerProfile", theory.LayerProfile))
        monkeypatch.setattr(kernels, "bipartite_side",
                            counting("bipartite_side", kernels.bipartite_side))
        bfs_dists = kernels.bfs_dists
        bfs_callers = collections.Counter()

        def counted_bfs(*args):
            bfs_callers[sys._getframe(1).f_code.co_name] += 1
            return bfs_dists(*args)

        monkeypatch.setattr(kernels, "bfs_dists", counted_bfs)
        structure.decompose.cache_clear()
        assert run(["theory", write_edges(tmp_path, FAR14), "--observer", "all"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bipartite"] and rep["strict_witness"] is not None
        assert counts["aggregate_swaps"] == 1
        assert counts["LayerProfile"] == FAR14.n
        # the CLI's bipartite flag and strict_witness's own guard; the guard
        # checks the argument of a public function, so it stays
        assert counts["bipartite_side"] == 2
        assert structure.decompose.cache_info().misses == 1
        # the aggregate: one BFS from each component vertex, which also gives
        # the diameter, and one per swap, (deg_H(v) - 1) for each pair (u, v);
        # one profile BFS per observer; nothing else
        comp = frozenset(rep["component"])
        deg = {v: sum(1 for x in FAR14.neighbors(v) if x in comp) for v in comp}
        swaps = sum(d * (d - 1) for d in deg.values())
        assert bfs_callers == {"aggregate_swaps": len(comp) + swaps, "layer_profile": FAR14.n}

    @pytest.mark.parametrize("g, bipartite", [(THEORY_PINS["c6_pendant"][0], True),
                                              (complete(4), False)], ids=["c6-pendant", "k4"])
    def test_single_observer_filters_all(self, tmp_path, capsys, g, bipartite):
        # one observer's report is the all-observer report cut down to it
        p = write_edges(tmp_path, g)
        assert run(["theory", p, "--observer", "all"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert ("inequalities" in full) == bipartite
        for w in range(g.n):
            assert run(["theory", p, "--observer", str(w)]) == 0
            expect = dict(full, shifts=[r for r in full["shifts"] if r["observer"] == w],
                          per_observer={str(w): full["per_observer"][str(w)]})
            if bipartite:
                expect["inequalities"] = [r for r in full["inequalities"] if r["observer"] == w]
            assert json.loads(capsys.readouterr().out) == expect

    @pytest.mark.parametrize("observer, message", [
        ("9", "observer 9 out of range"),
        ("-1", "observer -1 out of range"),
        ("x", "--observer must be a vertex id or 'all'"),
    ])
    def test_bad_observer(self, tmp_path, capsys, observer, message):
        assert run(["theory", write_edges(tmp_path, cycle(4)), "--observer", observer]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_extended_graph6_header(self, tmp_path, capsys):
        assert run(["theory", write_g6(tmp_path, [cycle(64)]), "--observer", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["graph6"].startswith("~?@?")

    def test_tree_input_fails(self, tmp_path):
        assert run(["theory", write_edges(tmp_path, star(3))]) == 2

    def test_bad_component_index(self, tmp_path):
        assert run(["theory", write_edges(tmp_path, cycle(4)),
                    "--component", "3"]) == 2


@pytest.mark.parametrize("command", ["check", "theory", "dynamics"])
@pytest.mark.parametrize("text", ["4 2\n0 1\n2 3\n", "3 0\n"], ids=["two-edges", "edgeless"])
def test_disconnected_input(tmp_path, capsys, command, text):
    # the library raises DisconnectedError; the CLI names the command
    p = tmp_path / "g.edges"
    p.write_text(text)
    assert run([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} requires a connected graph\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "analyze", "theory", "dynamics"])
def test_graph6_file_holds_one_graph(tmp_path, capsys, command):
    p = write_g6(tmp_path, [complete(3), cycle(4)])
    assert run([command, p]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: parse error in {p}: 2 graph6 lines, one graph expected\n"
    assert captured.out == ""


def test_parser_built_once(tmp_path, capsys):
    from swapeq import cli

    cli._parser.cache_clear()
    assert run(["check", write_edges(tmp_path, star(3))]) == 0
    assert run(["dynamics", write_edges(tmp_path, path(4))]) == 0
    assert "outcome: converged" in capsys.readouterr().out
    assert cli._parser.cache_info().misses == 1


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

    def test_connectivity_tested_per_request(self, tmp_path, capsys, monkeypatch):
        # run_dynamics's test of the start graph: none by the CLI, none per step
        from swapeq import kernels

        calls = []
        real = kernels.is_connected
        monkeypatch.setattr(kernels, "is_connected", lambda adj: calls.append(adj) or real(adj))
        assert run(["dynamics", write_edges(tmp_path, path(6))]) == 0
        assert "outcome: converged after 3 moves" in capsys.readouterr().out
        assert calls == [path(6).adj]

    def test_negative_max_steps(self, tmp_path, capsys):
        assert run(["dynamics", write_edges(tmp_path, path(4)),
                    "--max-steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --max-steps must be >= 0\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["survey", "analyze", "theory"])
def test_unwritable_out(tmp_path, capsys, command):
    # the write error is a usage error with exit 2, not a traceback
    out = tmp_path / "missing" / "report.json"
    source = ["--n", "4"] if command == "survey" else [write_edges(tmp_path, cycle(4))]
    assert run([command, *source, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "dynamics"])
def test_out_only_where_a_report_is_written(tmp_path, capsys, command):
    # check and dynamics print a verdict or a trace; --out is a usage error
    out = tmp_path / "report.json"
    assert run([command, write_edges(tmp_path, path(4)), "--out", str(out)]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


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

    def test_n8_refused(self, capsys):
        # one record per graph would be 251,548,592 records; the CLI keeps records
        assert run(["survey", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: n=8 with records would hold 251,548,592 records; "
                                "use the summary-only survey (keep_records=False)\n")
        assert captured.out == ""

    def test_workers_flag(self, tmp_path, capsys):
        reports = {}
        for workers in ("1", "2"):
            out = tmp_path / f"r{workers}.json"
            assert run(["survey", "--n", "4", "--workers", workers, "--out", str(out)]) == 0
            reports[workers] = out.read_bytes()
        assert reports["1"] == reports["2"]
        for workers in ("0", "-2"):
            assert run(["survey", "--n", "4", "--workers", workers]) == 2
            assert "workers must be >= 1" in capsys.readouterr().err

    def test_needs_source(self):
        assert run(["survey"]) == 2
        assert run(["survey", "--n", "4", "--g6", "x.g6"]) == 2

    def test_unknown_claim(self, capsys):
        assert run(["survey", "--n", "4", "--claims", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: unknown claim 'bogus'; known: tree_star, bipartite_krs, "
                                "block_diam2, cactus_diam2, bridge_degree, single_pendant, "
                                "adjacent_cut, cycle_bounds, delta_nonpos\n")
        assert captured.out == ""

    @pytest.mark.parametrize("claims", ["", ",", " , "])
    def test_empty_claims(self, capsys, claims):
        # a verifier that checks nothing must not report success
        assert run(["survey", "--n", "3", "--claims", claims]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --claims names no claim\n"
        assert captured.out == ""

    def test_duplicate_claim(self, capsys):
        assert run(["survey", "--n", "4", "--claims", "tree_star,tree_star"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate claim 'tree_star'\n"
        assert captured.out == ""

    def test_unreadable_g6(self, tmp_path, capsys):
        missing = tmp_path / "missing.g6"
        assert run(["survey", "--g6", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n")
        assert captured.out == ""

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
