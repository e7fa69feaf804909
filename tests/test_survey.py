import dataclasses
import hashlib
import itertools
import math
import random
import types

import networkx as nx
import pytest

from swapeq import kernels, survey
from swapeq.equilibrium import EquilibriumVerdict, is_equilibrium
from swapeq.families import complete, complete_bipartite, cycle, path, paw, star
from swapeq.graph import GraphError, build_graph, graph_from_adj
from swapeq.io import encode_graph6, parse_graph6, write_report
from swapeq.kernels import bipartite_side
from swapeq.structure import block_vertices, decompose, pendant_world
from swapeq.survey import (
    CLAIM_NAMES,
    CanonicalForm,
    SurveyConfig,
    SurveyConfigError,
    canonical_form,
    canonical_graph,
    run_survey,
    survey_report,
    verify_claims,
)

import labeled
import oracle


class TestEnumeration:
    # the connected labeled graphs the tests read, off the survey's mask scan
    def test_counts(self):
        assert len(labeled.connected(3)) == 4
        assert len(labeled.connected(4)) == 38
        assert len(labeled.connected(5)) == 728

    def test_each_exactly_once_and_connected(self):
        seen = set()
        for g in labeled.connected(4):
            assert oracle.is_connected(g.n, g.edges)
            assert g.adj not in seen
            seen.add(g.adj)

    def test_matches_independent_filter(self):
        # independent connectivity filter over all masks agrees with the stream
        n = 4
        expected = 0
        for edges in _all_edge_subsets(n):
            if oracle.is_connected(n, edges):
                expected += 1
        assert expected == len(labeled.connected(n))


def _all_edge_subsets(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [pairs[k] for k in range(len(pairs)) if bits >> k & 1]


# Graphs made of few twin classes, where twin pruning cuts the most.
_TWIN_HEAVY = {
    "K8": complete(8),
    "K44": complete_bipartite(4, 4),
    "K17": star(7),
    "K2222": build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)
                             if i // 2 != j // 2]),
    "doubled_star_7": build_graph(7, [(0, 1)] + [(c, v) for c in (0, 1) for v in range(2, 7)]),
    "doubled_star_8": build_graph(8, [(0, 1)] + [(c, v) for c in (0, 1) for v in range(2, 8)]),
}
_TWIN_HEAVY_AUT = {"K8": 40_320, "K44": 2 * 24 * 24, "K17": 5_040, "K2222": 24 * 2 ** 4,
                   "doubled_star_7": 2 * 120, "doubled_star_8": 2 * 720}


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        g = cycle(4)
        base = canonical_form(g)
        for perm in itertools.permutations(range(4)):
            edges = [(perm[a], perm[b]) for a, b in g.edges]
            from swapeq.graph import build_graph

            assert canonical_form(build_graph(4, edges)) == base

    def test_distinguishes(self):
        assert canonical_form(path(4)) != canonical_form(star(3))

    def test_k4_all_ones(self):
        form = canonical_form(complete(4))
        assert form.bits == (1 << 6) - 1

    def test_canonical_graph_consistent(self):
        g = cycle(5)
        rep = canonical_graph(g)
        assert canonical_form(rep) == canonical_form(g)
        assert rep.m == g.m

    def test_soundness_n4(self):
        # equal form <=> brute-force permutation search finds an isomorphism
        pool = labeled.connected(4)
        forms = {g.adj: canonical_form(g) for g in pool}
        for g1, g2 in itertools.combinations(pool, 2):
            iso = _isomorphic_brute(g1, g2)
            assert iso == (forms[g1.adj] == forms[g2.adj])

    def test_soundness_n6_sampled(self):
        import random

        rng = random.Random(77)
        pool = rng.sample(labeled.connected(6), 60)
        # bias toward same-edge-count pairs so isomorphic pairs do occur
        pool.sort(key=lambda g: g.m)
        for g1, g2 in zip(pool, pool[1:]):
            iso = _isomorphic_brute(g1, g2)
            assert iso == (canonical_form(g1) == canonical_form(g2))

    def test_too_large(self):
        with pytest.raises(GraphError):
            canonical_form(graph_from_adj(9, tuple([0] * 9)))

    def test_matches_brute_force_every_graph_n_le_5(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])
                assert canonical_form(g) == CanonicalForm(n, _brute_form_bits(g))

    @pytest.mark.parametrize("name", sorted(_TWIN_HEAVY))
    def test_twin_heavy_matches_brute_force(self, name):
        g = _TWIN_HEAVY[name]
        expected = CanonicalForm(g.n, _brute_form_bits(g))
        assert canonical_form(g) == expected
        assert canonical_form(_relabelled(g, random.Random(name))) == expected

    def test_n8_sample_matches_networkx(self):
        rng = random.Random(8)
        pool = []
        for _ in range(40):
            p = rng.uniform(0.2, 0.8)
            g = build_graph(8, [e for e in itertools.combinations(range(8), 2)
                                if rng.random() < p])
            pool += [g, _relabelled(g, rng)]
        forms = [canonical_form(g) for g in pool]
        nxg = [_to_nx(g) for g in pool]
        for a, b in itertools.combinations(range(len(pool)), 2):
            assert (forms[a] == forms[b]) == nx.is_isomorphic(nxg[a], nxg[b])
        for g, form in zip(pool, forms):
            rep = form.graph()
            assert canonical_form(rep) == form
            assert nx.is_isomorphic(_to_nx(rep), _to_nx(g))


def _brute_form_bits(g):
    """Minimum over all n! vertex orders of the column-major upper triangle."""
    edges = {frozenset(e) for e in g.edges}
    best = None
    for order in itertools.permutations(range(g.n)):
        bits = 0
        for j in range(1, g.n):
            for i in range(j):
                bits = bits << 1 | (frozenset((order[i], order[j])) in edges)
        if best is None or bits < best:
            best = bits
    return best


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _isomorphic_brute(g1, g2):
    if g1.m != g2.m:
        return False
    e2 = set(g2.edges)
    for perm in itertools.permutations(range(g1.n)):
        if all(tuple(sorted((perm[a], perm[b]))) in e2 for a, b in g1.edges):
            return True
    return False


# OEIS A000088, A001349 and A001187 for n = 1..8: graphs up to isomorphism,
# connected graphs up to isomorphism, connected labeled graphs.
_GRAPHS = [1, 2, 4, 11, 34, 156, 1_044, 12_346]
_CONNECTED = [1, 1, 2, 6, 21, 112, 853, 11_117]
_LABELED_CONNECTED = [1, 1, 4, 38, 728, 26_704, 1_866_256, 251_548_592]


def _vf2_automorphisms(g):
    h = _to_nx(g)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


class TestGraphClasses:
    def test_counts_match_oeis(self, graph_classes):
        for n, classes in graph_classes.items():
            connected = [aut for bits, aut in classes.items()
                         if kernels.is_connected(kernels.triangle_rows(n, bits))]
            assert len(classes) == _GRAPHS[n - 1], n
            assert len(connected) == _CONNECTED[n - 1], n
            assert sum(math.factorial(n) // aut for aut in connected) \
                == _LABELED_CONNECTED[n - 1], n

    def test_keys_are_canonical_forms(self, graph_classes):
        for n in range(1, 8):
            for bits in graph_classes[n]:
                rep = CanonicalForm(n, bits).graph()
                assert canonical_form(rep) == CanonicalForm(n, bits)

    def test_aut_matches_networkx_n_le_7(self, graph_classes):
        for n in range(1, 8):
            for bits, aut in graph_classes[n].items():
                assert aut == _vf2_automorphisms(CanonicalForm(n, bits).graph()), (n, bits)

    def test_aut_matches_networkx_n8_sampled(self, graph_classes):
        rng = random.Random(8)
        for bits in rng.sample(sorted(graph_classes[8]), 150):
            g = CanonicalForm(8, bits).graph()
            assert graph_classes[8][bits] == _vf2_automorphisms(g), bits

    @pytest.mark.parametrize("name", sorted(_TWIN_HEAVY))
    def test_aut_twin_heavy(self, name):
        # twin pruning skips the most branches here; each must still count
        g = _TWIN_HEAVY[name]
        aut = _TWIN_HEAVY_AUT[name]
        assert survey._canonical_bits(g.adj)[1] == aut
        assert survey._canonical_bits(_relabelled(g, random.Random(name)).adj)[1] == aut

    def test_one_search_per_class_nearly(self, graph_class_searches):
        # orbit pruning and the degree invariant leave few repeats; a generator
        # left out or an invariant that filters less shows here first
        searches = graph_class_searches[1]
        assert searches[6] == 209  # 156 classes on 6 vertices, 207 on 2..6
        assert searches[8] <= 14_500  # 12,346 classes; 32,886 without pruning

    def test_keys_match_the_atlas_n_le_7(self, graph_classes):
        atlas = {n: set() for n in range(1, 8)}
        for h in nx.graph_atlas_g()[1:]:
            n = h.number_of_nodes()
            atlas[n].add(canonical_form(build_graph(n, list(h.edges()))).bits)
        for n in range(1, 8):
            assert set(graph_classes[n]) == atlas[n], n

    def test_generators_n_le_6(self, graph_classes):
        for n in range(1, 7):
            for bits, aut in graph_classes[n].items():
                _check_generators(kernels.triangle_rows(n, bits), aut)

    def test_search_on_relabelled_classes_n_le_7(self, graph_classes):
        # every class under a seeded random relabelling: the search finds the
        # class's bits and |Aut|, and its generators generate all of Aut
        rng = random.Random(41)
        for n in range(1, 8):
            for bits, aut in graph_classes[n].items():
                g = _relabelled(CanonicalForm(n, bits).graph(), rng)
                assert survey._canonical_bits(g.adj)[:2] == (bits, aut), (n, bits)
                _check_generators(g.adj, aut)

    @pytest.mark.parametrize("name", sorted(_TWIN_HEAVY))
    def test_generators_twin_heavy(self, name):
        g = _TWIN_HEAVY[name]
        _check_generators(g.adj, _TWIN_HEAVY_AUT[name])
        _check_generators(_relabelled(g, random.Random(name)).adj, _TWIN_HEAVY_AUT[name])

    def test_labeled_masks_are_the_class(self):
        for g in (path(4), cycle(5), paw(), star(5)):
            masks = survey._labeled_masks(g.adj)
            assert masks == sorted(set(masks))
            assert len(masks) == math.factorial(g.n) // _vf2_automorphisms(g)
            form = canonical_form(g)
            assert all(canonical_form(graph_from_adj(g.n, kernels.mask_to_adj(g.n, m))) == form
                       for m in masks)


def _check_generators(adj, aut):
    """The generators built from adj's canonical search are automorphisms of
    its canonical graph, and the group they generate has order aut."""
    n = len(adj)
    bits, _, leaves, twins = survey._canonical_bits(adj)
    gens = survey._generators(leaves, twins)
    rows = kernels.triangle_rows(n, bits)
    for perm in gens:
        image = [0] * n
        for i, row in enumerate(rows):
            image[perm[i]] = sum(1 << perm[j] for j in range(n) if row >> j & 1)
        assert tuple(image) == rows, perm
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for perm in gens:
            q = tuple(perm[i] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    assert len(group) == aut


class TestRunSurvey:
    def test_n4_against_oracle(self):
        res = run_survey(SurveyConfig(n=4, dedup=True))
        assert res.summary.graphs == 38
        assert not res.summary.violations
        # oracle: equilibria and their isomorphism classes
        eq_records = [r for r in res.records if r.equilibrium]
        for rec in res.records:
            g = _graph_of(rec)
            assert rec.equilibrium == oracle.equilibrium(g.n, g.edges)[0]
        # non-equilibria are exactly the labelings of the 4-path
        non_eq = [r for r in res.records if not r.equilibrium]
        assert len(non_eq) == 12
        assert all(r.m == 3 and r.tree for r in non_eq)
        p4_form = canonical_form(path(4))
        assert all(canonical_form(_graph_of(r)) == p4_form for r in non_eq)
        # five equilibrium classes: star, C4, paw, diamond, K4
        classes = {c["graph6"]: c["count"] for c in res.summary.equilibrium_classes}
        assert len(classes) == 5
        assert sum(classes.values()) == len(eq_records) == 26
        expected_reps = {
            encode_graph6(canonical_graph(star(3))): 4,
            encode_graph6(canonical_graph(cycle(4))): 3,
            encode_graph6(canonical_graph(paw())): 12,
            encode_graph6(canonical_graph(_diamond())): 6,
            encode_graph6(canonical_graph(complete(4))): 1,
        }
        assert classes == expected_reps

    def test_one_bipartiteness_test_per_graph(self, monkeypatch):
        # the scan's 2-colouring is the only one: classify reads K_{r,s} off
        # the rows, so a record's class and the bipartite_krs claim add none
        calls = []
        real = kernels.bipartite_side
        monkeypatch.setattr(kernels, "bipartite_side", lambda adj: calls.append(adj) or real(adj))
        res = run_survey(SurveyConfig(n=5))
        assert len(res.records) == 728
        assert calls == [_graph_of(r).adj for r in res.records]
        calls.clear()
        graphs = [path(4), cycle(4), complete_bipartite(2, 3), complete(4),
                  build_graph(4, [(0, 1), (2, 3)])]
        res = run_survey(SurveyConfig(graph6_lines=tuple(encode_graph6(g) for g in graphs)))
        assert len(res.records) == 5
        assert calls == [g.adj for g in graphs]

    def test_claim_subset(self):
        res = run_survey(SurveyConfig(n=4, claims=("tree_star", "delta_nonpos")))
        assert set(res.summary.claim_counts) == {"tree_star", "delta_nonpos"}
        assert not res.summary.violations

    @pytest.mark.parametrize("dedup", [False, True], ids=["plain", "dedup"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_class_path_equals_labeled_path(self, n, dedup):
        labeled = run_survey(SurveyConfig(n=n, dedup=dedup))
        classes = run_survey(SurveyConfig(n=n, dedup=dedup, keep_records=False))
        assert labeled.records is not None and classes.records is None
        assert classes.summary.as_dict() == labeled.summary.as_dict()

    def test_class_path_progress_per_level(self, capsys):
        run_survey(SurveyConfig(n=5, keep_records=False, progress=True))
        assert capsys.readouterr().err.splitlines() == [
            "survey: level 2/5, 2 classes", "survey: level 3/5, 4 classes",
            "survey: level 4/5, 11 classes", "survey: level 5/5, 34 classes",
            "survey: chunk 1/1"]

    @pytest.mark.parametrize("n, degree", [
        (4, "pendant"), (5, "pendant"), (4, "universal"), (5, "universal"),
    ], ids=["4", "5", "4-universal", "5-universal"])
    def test_class_path_reports_labeled_violations(self, monkeypatch, n, degree):
        # a claim that fails on every equilibrium with a pendant (universal)
        # vertex and names the lowest such label: whether it fails does not
        # depend on the labels, but its text does.  K_n has universal
        # vertices, one labeled copy and the largest mask of all.
        def detail(f):
            d = {"pendant": 1, "universal": f.g.n - 1}[degree]
            ends = [v for v in range(f.g.n) if f.g.degree(v) == d]
            return f"{degree} vertex {ends[0]}" if ends else None

        monkeypatch.setitem(survey._CLAIMS, "bridge_degree", (lambda f: f.eq, detail))
        labeled = run_survey(SurveyConfig(n=n)).summary
        classes = run_survey(SurveyConfig(n=n, keep_records=False)).summary
        assert len({v["detail"] for v in labeled.violations}) > 1
        violators = {canonical_form(parse_graph6(v["graph6"])) for v in labeled.violations}
        assert len(violators) > 1
        assert classes.violations == labeled.violations
        assert classes.as_dict() == labeled.as_dict()

    def test_bad_config(self):
        with pytest.raises(SurveyConfigError):
            run_survey(SurveyConfig(n=9))
        with pytest.raises(SurveyConfigError):
            run_survey(SurveyConfig())
        with pytest.raises(SurveyConfigError):
            run_survey(SurveyConfig(n=4, claims=("nope",)))
        with pytest.raises(SurveyConfigError, match="duplicate claim 'tree_star'"):
            run_survey(SurveyConfig(n=4, claims=("tree_star", "tree_star")))
        for workers in (0, -2):
            with pytest.raises(SurveyConfigError):
                run_survey(SurveyConfig(n=4, workers=workers))
        with pytest.raises(SurveyConfigError):
            run_survey(SurveyConfig(n=3, graph6_lines=("Bw",)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 9}, "survey n must be in 3..8, got 9"),
        ({"n": 2}, "survey n must be in 3..8, got 2"),
        ({}, "survey needs either n or a graph6 stream"),
        ({"n": 3, "graph6_lines": ("Bw",)}, "survey takes either n or a graph6 stream, not both"),
        ({"n": 4, "claims": ("nope",)},
         "unknown claim 'nope'; known: " + ", ".join(CLAIM_NAMES)),
        ({"n": 4, "claims": ("tree_star", "tree_star")}, "duplicate claim 'tree_star'"),
        ({"n": 4, "workers": 0}, "workers must be >= 1, got 0"),
        ({"graph6_lines": ("Bw",), "workers": -2}, "workers must be >= 1, got -2"),
        ({"n": 4, "workers": "2"}, "workers must be an int, got str"),
        ({"n": 4, "workers": 2.5}, "workers must be an int, got float"),
        ({"graph6_lines": "C~"}, "graph6_lines must be a sequence of lines, got str"),
        ({"graph6_lines": (1, 2)}, "graph6 lines must be str, got int"),
        ({"graph6_lines": (b"Bw",)}, "graph6 lines must be str, got bytes"),
        ({"graph6_lines": ("Bw", None)}, "graph6 lines must be str, got NoneType"),
        ({"n": 5, "claims": "tree_star"}, "claims must be a sequence of claim names, got str"),
        ({"n": 5, "claims": None}, "claims must be a sequence of claim names, got NoneType"),
        ({"n": 5, "claims": 5}, "claims must be a sequence of claim names, got int"),
        ({"n": 5, "claims": [["tree_star"]]}, "claim names must be str, got list"),
        ({"n": 5, "dedup": "yes"}, "dedup must be a bool, got str"),
        ({"n": 5, "keep_records": None}, "keep_records must be a bool, got NoneType"),
        ({"n": 5, "progress": "x"}, "progress must be a bool, got str"),
        ({"n": 8}, "n=8 with records would hold 251,548,592 records; "
                   "use the summary-only survey (keep_records=False)"),
    ], ids=["n9", "n2", "no-source", "two-sources", "unknown-claim", "duplicate-claim",
            "workers0", "workers-2", "workers-str", "workers-float", "graph6-str",
            "graph6-int-lines", "graph6-bytes-line", "graph6-none-line", "claims-str",
            "claims-none", "claims-int", "claims-nested", "dedup-str", "keep-records-none",
            "progress-str", "n8-records"])
    def test_config_checked_when_made(self, kwargs, message):
        # the config is the one place a survey request is checked
        with pytest.raises(SurveyConfigError) as err:
            SurveyConfig(**kwargs)
        assert str(err.value) == message
        with pytest.raises(SurveyConfigError) as err:
            dataclasses.replace(SurveyConfig(n=4), **{"n": None, **kwargs})
        assert str(err.value) == message

    @pytest.mark.parametrize("keep_records", [False, True])
    def test_per_graph_work_done_once(self, monkeypatch, keep_records):
        from swapeq import kernels

        calls = {"classify": [], "diameter": [], "encode": 0}

        def counted(name, fn):
            def wrapper(arg):
                calls[name].append(arg if isinstance(arg, tuple) else arg.adj)
                return fn(arg)
            return wrapper

        def encode(g):
            calls["encode"] += 1
            return encode_graph6(g)

        monkeypatch.setattr(survey, "classify", counted("classify", survey.classify))
        monkeypatch.setattr(kernels, "diameter", counted("diameter", kernels.diameter))
        monkeypatch.setattr(survey, "encode_graph6", encode)
        res = run_survey(SurveyConfig(n=5, keep_records=keep_records))
        assert res.summary.graphs == 728
        for name in ("classify", "diameter"):
            assert calls[name], name
            assert len(set(calls[name])) == len(calls[name]), name
        assert calls["encode"] == (728 if keep_records else 0)

    def test_graph6_stream(self):
        lines = tuple(
            encode_graph6(complete_bipartite(r, s))
            for r, s in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3)])
        res = run_survey(SurveyConfig(graph6_lines=lines))
        assert res.summary.graphs == 5
        assert res.summary.equilibria == 5
        assert all(r.equilibrium for r in res.records)
        assert not res.summary.violations

    def test_graph6_stream_disconnected(self):
        from swapeq.graph import build_graph

        g = build_graph(4, [(0, 1), (2, 3)])
        res = run_survey(SurveyConfig(graph6_lines=(encode_graph6(g),)))
        rec = res.records[0]
        assert not rec.connected and not rec.equilibrium
        assert rec.diameter == "INF"
        assert all(v == "not_applicable" for v in rec.claims.values())

    def test_record_order_is_enumeration_order(self):
        res = run_survey(SurveyConfig(n=4))
        masks = [_mask_of(r) for r in res.records]
        assert masks == sorted(masks)


def _graph_of(rec):
    from swapeq.io import parse_graph6

    return parse_graph6(rec.graph6)


def _mask_of(rec):
    from swapeq.kernels import adj_to_mask

    g = _graph_of(rec)
    return adj_to_mask(g.adj)


def _diamond():
    from swapeq.graph import build_graph

    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


class TestVerifyClaims:
    def test_p4_not_applicable(self):
        g = path(4)
        res = verify_claims(g, is_equilibrium(g))
        structural = ("tree_star", "bipartite_krs", "block_diam2", "cactus_diam2",
                      "bridge_degree", "single_pendant", "adjacent_cut",
                      "cycle_bounds")
        assert all(res[c] == "not_applicable" for c in structural)
        # but the swap-total claim is unconditional on the verdict
        assert res["delta_nonpos"] == "not_applicable"  # P4 is a tree

    def test_c4_delta(self):
        g = cycle(4)
        res = verify_claims(g, is_equilibrium(g))
        assert res["delta_nonpos"] == "holds"

    def test_c6_delta_unconditional(self):
        g = cycle(6)  # not an equilibrium, still bipartite and cyclic
        verdict = is_equilibrium(g)
        assert not verdict.is_equilibrium
        res = verify_claims(g, verdict)
        assert res["delta_nonpos"] == "holds"

    def test_paw_bridge_degree(self):
        g = paw()
        res = verify_claims(g, is_equilibrium(g))
        assert res["bridge_degree"] == "holds"
        assert res["cycle_bounds"] == "holds"

    def test_disconnected_not_applicable(self):
        # no claim applies to a disconnected graph, whatever the verdict
        # passed in, and verify_claims agrees with the survey's records
        lines = ("Gl?GGS", "E]o?")  # C4 + C4 and K_{2,3} + K_1
        graphs = [parse_graph6(line) for line in lines] + [
            g for n in range(2, 6) for mask in range(1 << n * (n - 1) // 2)
            for g in [graph_from_adj(n, kernels.mask_to_adj(n, mask))]
            if not oracle.is_connected(n, g.edges)]
        assert [g.m for g in graphs[:2]] == [8, 6] and len(graphs) == 2 + 1 + 4 + 26 + 296
        none = dict.fromkeys(CLAIM_NAMES, "not_applicable")
        for g in graphs:
            for eq in (False, True):
                assert verify_claims(g, EquilibriumVerdict(eq, None, {})) == none
        assert [r.claims for r in run_survey(SurveyConfig(graph6_lines=lines)).records] \
            == [none, none]
        with pytest.raises(SurveyConfigError):
            verify_claims(graphs[0], EquilibriumVerdict(False, None, {}), ("nope",))

    @pytest.mark.parametrize("claims, message", [
        ("tree_star", "claims must be a sequence of claim names, got str"),
        ("", "claims must be a sequence of claim names, got str"),
        (("tree_star", "nope"), "unknown claim 'nope'; known: " + ", ".join(CLAIM_NAMES)),
        (None, "claims must be a sequence of claim names, got NoneType"),
        (5, "claims must be a sequence of claim names, got int"),
        ([["tree_star"]], "claim names must be str, got list"),
        (("tree_star", "tree_star"), "duplicate claim 'tree_star'"),
        (b"tree_star", "claims must be a sequence of claim names, got bytes"),
    ], ids=["str", "empty-str", "unknown", "none", "int", "nested", "duplicate", "bytes"])
    def test_claims_checked(self, claims, message):
        g = path(4)
        with pytest.raises(SurveyConfigError) as err:
            verify_claims(g, is_equilibrium(g), claims)
        assert str(err.value) == message


class TestDeterminism:
    @pytest.mark.parametrize("n,workers,cpus,pools,keep_records", [
        (6, 5000, 2, [2], True), (6, 1, 2, [], True), (5, 8, 2, [], True),
        (6, 5000, 1, [], True), (6, 5000, None, [], True), (6, 5000, 2, [], False),
    ], ids=["6-5000-pools0", "6-1-pools1", "5-8-pools2", "6-5000-cpus1", "6-5000-cpus-unknown",
            "6-5000-classes"])
    def test_pool_sized_by_tasks(self, monkeypatch, n, workers, cpus, pools, keep_records):
        # a stand-in Pool records its size and runs the tasks here, so no
        # process is started; n=6 is 2 chunks of masks, n=5 one, and a
        # summary-only survey one task of classes; the pool never
        # outnumbers the CPUs (None: the count is unknown, so one)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: cpus)
        sizes = []

        class StandInPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(survey, "multiprocessing", types.SimpleNamespace(Pool=StandInPool))
        result = run_survey(
            SurveyConfig(n=n, claims=(), keep_records=keep_records, workers=workers))
        assert sizes == pools
        assert result.summary.graphs == {5: 728, 6: 26704}[n]

    def test_workers_identical_n4(self):
        a = run_survey(SurveyConfig(n=4, workers=1, dedup=True))
        b = run_survey(SurveyConfig(n=4, workers=3, dedup=True))
        ra = write_report(survey_report(a, SurveyConfig(n=4, workers=1, dedup=True)), "json")
        rb = write_report(survey_report(b, SurveyConfig(n=4, workers=3, dedup=True)), "json")
        assert ra == rb

    def test_dedup_stream_identical_through_pool(self):
        rng = random.Random(2134)
        bases = []
        for _ in range(300):
            n = rng.randint(4, 6)
            p = rng.uniform(0.4, 0.95)
            bases.append(build_graph(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < p]))
        lines = tuple(encode_graph6(_relabelled(rng.choice(bases), rng))
                      for _ in range(survey._CHUNK_LINES + 100))
        reports = {}
        for workers in (1, 2):
            config = SurveyConfig(graph6_lines=lines, dedup=True, workers=workers)
            assert len(list(survey._tasks(config))) >= 2
            reports[workers] = write_report(
                survey_report(run_survey(config), config), "json")
        assert reports[1] == reports[2]


# Claim violations that the parent code reported when every connected graph
# was declared an equilibrium; pins the violated branch of every claim but
# delta_nonpos, with its detail text.
_FORCED_VIOLATIONS = [
    ("Ch", "tree_star", "tree equilibrium with diameter 3"),
    ("Ch", "bipartite_krs", "bipartite equilibrium that is not complete bipartite"),
    ("Ch", "block_diam2", "block-graph equilibrium with diameter 3"),
    ("Ch", "cactus_diam2", "cactus equilibrium with diameter 3"),
    ("Ch", "bridge_degree", "bridge (1, 2) with both endpoints of degree >= 2"),
    ("Ch", "adjacent_cut", "adjacent cut vertices with two nontrivial worlds"),
    ("GhEK?_", "bipartite_krs", "bipartite equilibrium that is not complete bipartite"),
    ("GhEK?_", "cactus_diam2", "cactus equilibrium with diameter 5"),
    ("GhEK?_", "single_pendant", "component with two nontrivial pendant worlds"),
    ("GhEK?_", "cycle_bounds", "cycle longer than 5"),
    ("EhEG", "bipartite_krs", "bipartite equilibrium that is not complete bipartite"),
    ("EhEG", "cactus_diam2", "cactus equilibrium with diameter 3"),
    ("EhEG", "cycle_bounds", "cycle longer than 5"),
    ("Fl_KG", "bipartite_krs", "bipartite equilibrium that is not complete bipartite"),
    ("Fl_KG", "cactus_diam2", "cactus equilibrium with diameter 4"),
    ("Fl_KG", "cycle_bounds", "unbalanced worlds on a long cycle; more than one long cycle"),
]

_FORCED_COUNTS = {
    "tree_star": [0, 1, 3],
    "bipartite_krs": [0, 4, 0],
    "block_diam2": [0, 1, 3],
    "cactus_diam2": [0, 4, 0],
    "bridge_degree": [3, 1, 0],
    "single_pendant": [2, 1, 1],
    "adjacent_cut": [3, 1, 0],
    "cycle_bounds": [1, 3, 0],
    "delta_nonpos": [3, 0, 1],
}


class TestViolationReporting:
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_forced_equilibria(self, monkeypatch, keep_records):
        from swapeq import kernels

        monkeypatch.setattr(kernels, "first_improving_swap", lambda adj: None)
        graphs = [
            path(4),
            build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (3, 7)]),
            cycle(6),
            build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                            (0, 4), (4, 5), (5, 6), (6, 0)]),
        ]
        lines = tuple(encode_graph6(g) for g in graphs)
        assert lines == ("Ch", "GhEK?_", "EhEG", "Fl_KG")
        res = run_survey(SurveyConfig(graph6_lines=lines, keep_records=keep_records))
        s = res.summary
        assert (s.graphs, s.equilibria) == (4, 4)
        assert [(v["graph6"], v["claim"], v["detail"]) for v in s.violations] \
            == _FORCED_VIOLATIONS
        assert s.claim_counts == _FORCED_COUNTS
        if keep_records:
            assert [r.as_dict()["claim_violations"] for r in res.records] == [
                ";".join(c for g6, c, _ in _FORCED_VIOLATIONS if g6 == line)
                for line in lines]

    @pytest.mark.parametrize("case", ["positive_observer", "broken_identity"])
    def test_forced_delta_nonpos(self, monkeypatch, case):
        # C6's aggregate, with its integer sums replaced over a denominator of 2
        real = survey.aggregate_swaps

        def forced(g, comp):
            agg = real(g, comp)
            nums = (0, 1, 0, 0, 0, -3, 0)[:g.n]
            total = sum(nums) if case == "positive_observer" else sum(nums) + 1
            return dataclasses.replace(agg, common=2, observer_nums=nums, total_num=total)

        monkeypatch.setattr(survey, "aggregate_swaps", forced)
        res = run_survey(SurveyConfig(graph6_lines=("EhEG",), claims=("delta_nonpos",)))
        detail = {
            "positive_observer":
                "observer 1 has positive swap total 1/2 on component [0, 1, 2, 3, 4, 5]",
            "broken_identity":
                "accounting identity broken on component [0, 1, 2, 3, 4, 5]: -1/2 != -1",
        }[case]
        assert [(v["graph6"], v["claim"], v["detail"]) for v in res.summary.violations] \
            == [("EhEG", "delta_nonpos", detail)]


def _as_equilibrium(g):
    # the facts of g with the verdict forced, so a claim runs on its whole domain
    return survey._Facts(g, kernels.is_connected(g.adj), True, bipartite_side(g.adj) >= 0)


def _applies(g, claim):
    return verify_claims(g, EquilibriumVerdict(True, None, {}), (claim,))[claim] \
        != "not_applicable"


class TestClaimDetails:
    def test_bridge_degree(self):
        assert survey._bridge_degree(_as_equilibrium(star(4))) is None
        assert survey._bridge_degree(_as_equilibrium(path(4))) \
            == "bridge (1, 2) with both endpoints of degree >= 2"
        assert survey._bridge_degree(_as_equilibrium(complete(4))) is None

    def test_single_pendant(self):
        one = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert survey._single_pendant(_as_equilibrium(one)) is None
        two = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)])
        assert survey._single_pendant(_as_equilibrium(two)) \
            == "component with two nontrivial pendant worlds"
        assert survey._single_pendant(_as_equilibrium(cycle(4))) is None
        assert not _applies(path(4), "single_pendant")

    def test_adjacent_cut(self):
        two_pendants = build_graph(
            5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        assert survey._adjacent_cut(_as_equilibrium(two_pendants)) \
            == "adjacent cut vertices with two nontrivial worlds"
        one_pendant = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        assert survey._adjacent_cut(_as_equilibrium(one_pendant)) is None
        two_triangles = build_graph(
            5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert survey._adjacent_cut(_as_equilibrium(two_triangles)) is None

    @pytest.mark.parametrize("n, failures", [
        (3, (0, 0)), (4, (0, 12)), (5, (60, 240)), (6, (3000, 6480)),
    ])
    def test_conditions_match_flooded_worlds(self, n, failures):
        # single_pendant tests a world for triviality with one AND and
        # adjacent_cut tests cut-vertex adjacency; the references flood every
        # world with pendant_world and read its size
        def single_pendant_by_worlds(g):
            tecc = decompose(g).tecc
            return all(sum(pendant_world(g, t, u) != {u} for u in t) <= 1 for t in tecc)

        def adjacent_cut_by_worlds(g):
            dec = decompose(g)
            cuts = dec.cut_vertices
            return not any(
                len(pendant_world(g, block_vertices(b), x)) > 1
                and len(pendant_world(g, block_vertices(b), y)) > 1
                for b in dec.bcc for x, y in b if x in cuts and y in cuts)

        single_fails = adjacent_fails = 0
        for g in labeled.connected(n):
            # the lemma _adjacent_cut rests on: a block vertex has a
            # nontrivial world exactly when it is a cut vertex
            dec = decompose(g)
            for b in dec.bcc:
                vb = block_vertices(b)
                for a in vb:
                    assert (pendant_world(g, vb, a) != {a}) == (a in dec.cut_vertices)
            facts = _as_equilibrium(g)
            if g.m == n - 1:
                assert not _applies(g, "single_pendant")
            else:
                expect = single_pendant_by_worlds(g)
                assert (survey._single_pendant(facts) is None) == expect
                single_fails += not expect
            expect = adjacent_cut_by_worlds(g)
            assert (survey._adjacent_cut(facts) is None) == expect
            adjacent_fails += not expect
        assert (single_fails, adjacent_fails) == failures

    def test_cactus_cycles(self):
        assert survey._cycle_bounds(_as_equilibrium(cycle(5))) is None
        assert survey._cycle_bounds(_as_equilibrium(cycle(6))) == "cycle longer than 5"
        c4p = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert survey._cycle_bounds(_as_equilibrium(c4p)) \
            == "unbalanced worlds on a long cycle"
        two_squares = build_graph(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert survey._cycle_bounds(_as_equilibrium(two_squares)) \
            == "unbalanced worlds on a long cycle; more than one long cycle"
        assert not _applies(complete(4), "cycle_bounds")

    def test_every_detail_pinned(self):
        # every graph counts as an equilibrium, so each claim runs on its
        # whole domain; the digest pins every detail text for n = 3..6
        lines = []
        for n in range(3, 7):
            for g in labeled.connected(n):
                facts = _as_equilibrium(g)
                g6 = encode_graph6(g)
                for claim in CLAIM_NAMES:
                    applies, detail = survey._CLAIMS[claim]
                    if applies(facts):
                        why = detail(facts)
                        if why is not None:
                            lines.append(f"{g6}\t{claim}\t{why}")
        assert len(lines) == 30762
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest.startswith("6da7dd499a6ef953")
