import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from swapeq import __version__, io, kernels
from swapeq.families import complete, cycle, star
from swapeq.graph import INF, graph_from_adj
from swapeq.io import (
    MalformedHeaderError,
    EdgeListParseError,
    TrailingGarbageError,
    TruncatedPayloadError,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    write_report,
)

# Ten externally verified encodings (cross-checked against networkx's
# graph6 codec; see test_matches_networkx for the live check).
EXTERNAL_FIXTURES = [
    ("@", 1, []),
    ("A_", 2, [(0, 1)]),
    ("Bw", 3, [(0, 1), (0, 2), (1, 2)]),
    ("Ch", 4, [(0, 1), (1, 2), (2, 3)]),
    ("C~", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("CF", 4, [(0, 3), (1, 3), (2, 3)]),
    ("D?{", 5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
    ("DhC", 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ("DxC", 5, [(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]),
    ("E?~o", 6, [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5)]),
]


class TestGraph6:
    def test_k4_roundtrip(self):
        assert encode_graph6(complete(4)) == "C~"
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6

    def test_header_value(self):
        # 'C' is byte 67, so n = 67 - 63 = 4
        assert parse_graph6("C???"[:1] + "?").n == 4

    def test_single_vertex(self):
        assert encode_graph6(graph_from_adj(1, (0,))) == "@"
        assert parse_graph6("@").n == 1

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<C~\n").m == 6

    @pytest.mark.parametrize("text,n,edges", EXTERNAL_FIXTURES)
    def test_external_fixtures(self, text, n, edges):
        g = parse_graph6(text)
        assert g.n == n
        assert set(g.edges) == {tuple(sorted(e)) for e in edges}
        rebuilt = graph_from_adj(n, g.adj)
        assert encode_graph6(rebuilt) == text

    def test_matches_networkx(self):
        for text, n, edges in EXTERNAL_FIXTURES:
            ref = nx.from_graph6_bytes(text.encode())
            assert ref.number_of_nodes() == n
            assert {tuple(sorted(e)) for e in ref.edges()} == {
                tuple(sorted(e)) for e in edges
            }
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(edges)
            assert nx.to_graph6_bytes(G, header=False).decode().strip() == text

    def test_truncated(self):
        with pytest.raises(TruncatedPayloadError):
            parse_graph6("B")  # n=3 needs one payload byte
        with pytest.raises(TruncatedPayloadError):
            parse_graph6("D?")  # n=5 needs two

    def test_trailing_garbage(self):
        with pytest.raises(TrailingGarbageError):
            parse_graph6("C~~")

    def test_nonzero_padding(self):
        # n=3 uses 3 of 6 payload bits; set a padding bit: '?'|0b000001
        with pytest.raises(TrailingGarbageError):
            parse_graph6("B" + chr(63 + 1))

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_graph6("")
        with pytest.raises(MalformedHeaderError):
            parse_graph6("~??")  # extended header cut short
        with pytest.raises(MalformedHeaderError):
            parse_graph6("?")  # null graph
        with pytest.raises(MalformedHeaderError):
            parse_graph6(" ")

    @pytest.mark.parametrize("n, head", [(63, "~??~"), (64, "~?@?")])
    def test_extended_header_matches_networkx(self, n, head):
        # '~' and n in three 6-bit bytes; a path and a seeded random graph
        rng = random.Random(20261019 + n)
        for G in (nx.path_graph(n), nx.gnp_random_graph(n, 0.5, seed=rng.randrange(1 << 30))):
            text = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert text.startswith(head)
            g = parse_graph6(text)
            assert g.n == n
            assert set(g.edges) == {tuple(sorted(e)) for e in G.edges()}
            assert encode_graph6(g) == text

    @pytest.mark.parametrize("text, message", [
        ("~???", "extended size header '~???' is not for n in 63..64"),
        ("~??}", "extended size header '~??}' is not for n in 63..64"),
        ("~?A?", "extended size header '~?A?' is not for n in 63..64"),
        ("~~??????", "extended size header '~~??' is not for n in 63..64"),
        ("~?" + chr(40) + "~", "extended size header '~?(~' needs three bytes after '~'"),
    ], ids=["n0", "n62", "n128", "eight-byte", "bad-byte"])
    def test_extended_header_rejected(self, text, message):
        with pytest.raises(MalformedHeaderError) as err:
            parse_graph6(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "n6-sample", "n7-sample", "n8-sample"])
    def test_codec_matches_networkx(self, case):
        # every labeled graph for n <= 5, 200 seeded graphs for n = 6..8
        if isinstance(case, int):
            n, masks = case, range(1 << (case * (case - 1) // 2))
        else:
            n = int(case[1])
            rng = random.Random(20261021 + n)
            masks = [rng.getrandbits(n * (n - 1) // 2) for _ in range(200)]
        for mask in masks:
            g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges)
            text = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert encode_graph6(g) == text
            assert parse_graph6(text) == g
            ref = nx.from_graph6_bytes(text.encode())
            assert sorted(ref.nodes()) == list(range(n))
            assert {tuple(sorted(e)) for e in ref.edges()} == set(g.edges)

    @given(st.integers(1, 8), st.data())
    def test_roundtrip_random(self, n, data):
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
        assert parse_graph6(encode_graph6(g)) == g


def edge_list_2000(k, bad):
    """2,000 distinct edges on 64 vertices, with edge k (line k + 2) set to bad."""
    edges = [(i, j) for i in range(64) for j in range(i + 1, 64)][:2000]
    edges[k] = bad
    return "64 2000\n" + "\n".join(f"{u} {v}" for u, v in edges)


class TestEdgeList:
    def test_c4(self):
        g = parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0")
        assert g == cycle(4)

    def test_self_loop_line(self):
        with pytest.raises(EdgeListParseError, match="line 2.*self-loop"):
            parse_edge_list("2 1\n0 0")

    def test_edgeless(self):
        g = parse_edge_list("3 0")
        assert g.n == 3 and g.m == 0

    def test_bad_header(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("4")
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("x y\n")

    def test_missing_edges(self):
        with pytest.raises(EdgeListParseError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1")

    def test_trailing_garbage(self):
        with pytest.raises(EdgeListParseError, match="trailing garbage"):
            parse_edge_list("2 1\n0 1\n0 1")

    def test_duplicate_edge_line(self):
        with pytest.raises(EdgeListParseError, match="line 3.*duplicate"):
            parse_edge_list("3 2\n0 1\n1 0")

    @pytest.mark.parametrize("text,message", [
        ("0 0", "line 1: vertex count must be a positive int, got 0"),
        ("65 0", "line 1: at most 64 vertices supported, got 65"),
        ("3 1\n0 0", "line 2: self-loop edge (0, 0)"),
        (edge_list_2000(999, (0, 1)), "line 1001: duplicate edge (0, 1)"),
        (edge_list_2000(1999, (0, 64)), "line 2001: edge (0, 64) outside 0..63"),
    ], ids=["bad-n", "n-over-64", "line-2", "middle-line", "last-line"])
    def test_error_line_pinned(self, monkeypatch, text, message):
        # one build_graph pass names the line; no prefix is rebuilt
        calls = []
        real = io.build_graph
        monkeypatch.setattr(io, "build_graph", lambda n, e: calls.append(n) or real(n, e))
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == message
        assert len(calls) == 1

    def test_star_roundtrip(self):
        g = star(4)
        text = f"{g.n} {g.m}\n" + "\n".join(f"{a} {b}" for a, b in g.edges)
        assert parse_edge_list(text) == g


class TestReports:
    def test_json_deterministic(self):
        payload = {"config": {"n": 4}, "records": [{"a": 1}]}
        assert write_report(payload, "json") == write_report(payload, "json")
        body = json.loads(write_report(payload, "json"))
        assert list(body) == ["schema_version", "tool_version", "config", "records"]
        assert body["schema_version"] == "1"
        assert body["tool_version"] == __version__

    def test_json_exact_values(self):
        payload = {"shift": Fraction(-3, 4), "rows": [(1, INF)], "comp": frozenset({3, 1, 2})}
        body = json.loads(write_report(payload, "json"))
        assert body == {"schema_version": "1", "tool_version": __version__, "shift": "-3/4",
                        "rows": [[1, "INF"]], "comp": [1, 2, 3]}
        with pytest.raises(TypeError, match="set is not JSON serialisable"):
            write_report({"bad": {1, 2}}, "json")

    def test_csv_columns(self):
        rec = {
            "graph6": "C~", "n": 4, "m": 6, "connected": True,
            "bipartite": False, "tree": False, "block": True, "cactus": False,
            "equilibrium": True, "diameter": 1, "witness_deviation": "",
            "claim_violations": "",
        }
        data = write_report({"records": [rec]}, "csv")
        lines = data.decode().splitlines()
        assert lines[0] == ("graph6,n,m,connected,bipartite,tree,block,cactus,"
                            "equilibrium,diameter,witness_deviation,claim_violations")
        assert lines[1].startswith("C~,4,6,")

    def test_csv_empty(self):
        data = write_report({"records": []}, "csv")
        assert data.decode().splitlines() == [
            "graph6,n,m,connected,bipartite,tree,block,cactus,equilibrium,"
            "diameter,witness_deviation,claim_violations"]

    def test_unsupported_format(self):
        with pytest.raises(ValueError, match="unsupported"):
            write_report({}, "xml")
