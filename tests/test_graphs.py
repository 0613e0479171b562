import ast
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from mu_spectra import (
    EdgeColoring,
    Graph,
    GraphError,
    all_perfect_matchings,
    analyze,
    chromatic_index,
    complete,
    contains_induced_c6,
    contains_induced_claw,
    cycle,
    delete_vertex,
    from_spec,
    full_set,
    graph_from_dict,
    graph_to_dict,
    is_path_forest,
    is_petersen_labeled,
    load_graph,
    path,
    petersen,
    set_labels,
    vertex_set,
)
from mu_spectra import graphs as graphs_module
from mu_spectra.graphs import (
    _most_constrained_order,
    _orbit_chain,
    _search,
    _subset_orbits,
    _subsets,
    _vertex_orbits,
    _window,
)

from oracles import (
    K23,
    ORACLE_CORPUS,
    PAW,
    naive_automorphisms,
    naive_c6,
    naive_chromatic_index,
    naive_claw,
    naive_edge_transitive,
    naive_path_forest,
    naive_subset_orbits,
    naive_valid,
    random_connected_graph,
)
from test_theorems import complete_bipartite, generalized_petersen

ORACLE_GRAPHS = ([path(n) for n in range(2, 7)]
                 + [cycle(n) for n in range(3, 8)]
                 + [random_connected_graph(seed) for seed in range(20)])


class TestConstruction:
    def test_petersen_shape(self, P):
        assert P.n == 10
        assert P.m == 15
        assert P.is_cubic()
        assert P.is_connected()
        assert P.degrees == (3,) * 10
        assert P.edge_labels[0] == ("x1", "x2")
        assert P.edge_labels[14] == ("y3", "y5")

    def test_petersen_is_cached_and_labeled(self, P):
        assert petersen() is P
        assert is_petersen_labeled(P)
        assert not is_petersen_labeled(cycle(5))
        # edge order and endpoint order are free; the labeled edges are not
        flipped = Graph.from_labels("p", reversed(P.vertices),
                                    [(b, a) for a, b in reversed(P.edge_labels)])
        assert is_petersen_labeled(flipped)
        extra = Graph.from_labels("p", P.vertices, P.edge_labels + (("x1", "y2"),))
        assert not is_petersen_labeled(extra)
        moved = dict(zip(P.vertices, P.vertices[1:] + P.vertices[:1]))
        assert not is_petersen_labeled(Graph.from_labels(
            "p", P.vertices, [(moved[a], moved[b]) for a, b in P.edge_labels]))

    def test_duplicate_label_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            Graph.from_labels("g", ["a", "a"], [("a", "a")])

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            Graph.from_labels("g", ["a", "b"], [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            Graph.from_labels("g", ["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            Graph.from_labels("g", ["a", "b"], [("a", "c")])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            Graph.from_labels("g", ["a", "b", "c", "d"],
                              [("a", "b"), ("c", "d")])

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError, match="at least one edge"):
            Graph.from_labels("g", ["a"], [])


class TestGenerators:
    def test_path(self):
        g = path(5)
        assert g.name == "path:5"
        assert (g.n, g.m) == (5, 4)
        assert g.degrees == (1, 2, 2, 2, 1)

    def test_cycle(self):
        g = cycle(6)
        assert g.name == "cycle:6"
        assert (g.n, g.m) == (6, 6)
        assert g.is_regular() and g.max_degree() == 2

    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m) == (4, 6)
        assert g.is_cubic()

    @pytest.mark.parametrize("maker,bad", [(path, 1), (cycle, 2), (complete, 2)])
    def test_too_small_rejected(self, maker, bad):
        with pytest.raises(GraphError):
            maker(bad)

    def test_from_spec(self):
        assert from_spec("petersen").n == 10
        assert from_spec("cycle:7").m == 7
        assert from_spec("path:3").m == 2
        assert from_spec("complete:4").m == 6

    @pytest.mark.parametrize("spec", ["", "cycle", "cycle:x", "torus:3", "k4"])
    def test_from_spec_rejects_garbage(self, spec):
        with pytest.raises(GraphError):
            from_spec(spec)


    @pytest.mark.parametrize("spec", ["path:65", "cycle:65", "complete:12",
                                      "complete:600", "path:200000"])
    def test_oversized_spec_refused_before_building(self, spec, monkeypatch):
        built = []
        for kind in ("path", "cycle", "complete"):
            monkeypatch.setattr(graphs_module, kind,
                                lambda n, kind=kind: built.append(kind))
        with pytest.raises(GraphError, match="at most 64"):
            from_spec(spec)
        assert built == []

    @pytest.mark.parametrize("spec,shape", [("path:64", (64, 63)),
                                            ("cycle:64", (64, 64)),
                                            ("complete:11", (11, 55))])
    def test_specs_at_the_caps_build(self, spec, shape):
        g = from_spec(spec)
        assert (g.n, g.m) == shape


class TestVertexSets:
    def test_labels_to_mask_and_back(self, P):
        mask = vertex_set(P, ["x1", "y5"])
        assert mask == (1 << 0) | (1 << 9)
        assert set_labels(P, mask) == ("x1", "y5")

    def test_accepts_indices_and_masks(self, P):
        assert vertex_set(P, [0, 9]) == vertex_set(P, ["x1", "y5"])
        assert vertex_set(P, 0b11) == 3
        assert full_set(P) == (1 << 10) - 1

    def test_neighbors_are_masks(self, P):
        assert P.neighbors[0] == vertex_set(P, ["x2", "x5", "y1"])
        for g in (P, complete(5), path(4)):
            assert sum(nb.bit_count() for nb in g.neighbors) == 2 * g.m
            assert all(g.neighbors[u] >> v & 1 and g.neighbors[v] >> u & 1
                       for u, v in g.edges)

    def test_rejects_foreign_bits(self, P):
        with pytest.raises(GraphError):
            vertex_set(P, 1 << 10)
        with pytest.raises(GraphError):
            vertex_set(P, ["nope"])

    @pytest.mark.parametrize("mask", [0, 0b1, 0b1011010, (1 << 10) - 1,
                                      1 << 63 | 1 << 5 | 1])
    def test_subsets_follow_combinations_order(self, mask):
        # orbit representatives and the path-forest witness rest on this order
        ids = [i for i in range(mask.bit_length()) if mask >> i & 1]
        for k in range(len(ids) + 2):  # k=0 gives the empty set; the last none
            assert list(_subsets(mask, k)) == [
                sum(1 << i for i in combo)
                for combo in itertools.combinations(ids, k)]

    @given(st.sets(st.sampled_from(
        ["x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3", "y4", "y5"])))
    def test_roundtrip_any_subset(self, labels):
        P = petersen()
        assert set(set_labels(P, vertex_set(P, labels))) == labels


class TestInducedSubgraphs:
    def test_path_forest_recognition(self, P):
        for g, want in ((path(5), True), (cycle(4), False), (complete(4), False)):
            assert is_path_forest(g, full_set(g)) is want
        # two disjoint segments of the outer cycle
        assert is_path_forest(P, ["x1", "x2", "x4"])
        # a spoke vertex with three neighbors induces a star
        assert not is_path_forest(P, ["x1", "x2", "x5", "y1"])

    def test_single_vertex_is_a_path_forest(self, P):
        assert is_path_forest(P, ["x1"])


class TestInducedPatterns:
    def test_claw_present(self, P):
        assert contains_induced_claw(P, ["y4", "y1", "y2", "x4"])

    def test_outer_path_has_no_claw(self, P):
        assert not contains_induced_claw(P, ["x1", "x2", "x3", "x4"])

    def test_claw_needs_four_vertices(self, P):
        assert not contains_induced_claw(P, ["x1", "x2", "x3"])

    def test_c6_in_full_graph(self, P):
        assert contains_induced_c6(P, full_set(P))

    def test_c6_detects_plain_hexagon(self):
        g = cycle(6)
        assert contains_induced_c6(g, full_set(g))

    def test_no_c6_in_k4(self):
        g = complete(4)
        assert not contains_induced_c6(g, full_set(g))

    def test_mask_tests_match_their_definitions(self):
        # its six triangle vertices induce 6 edges, every degree 2, unconnected
        triangles = Graph.from_labels("two-triangles", list("abcdefg"), [
            ("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"),
            ("d", "f"), ("c", "g"), ("g", "d")])
        corpus = [petersen(), cycle(6), cycle(7), complete(4), complete(5), K33,
                  PRISM, triangles] + ORACLE_CORPUS
        for g in corpus:
            for mask in range(1, 1 << g.n):
                s = {i for i in range(g.n) if mask >> i & 1}
                where = (g.name, set_labels(g, mask))
                assert is_path_forest(g, mask) == naive_path_forest(g, s), where
                assert contains_induced_claw(g, mask) == naive_claw(g, s), where
                assert contains_induced_c6(g, mask) == naive_c6(g, s), where

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_monotone_in_the_subset(self, a, b):
        # enlarging the vertex set can only add induced patterns
        P = petersen()
        small, big = a & b, a | b
        if small == 0:
            return
        if contains_induced_claw(P, small):
            assert contains_induced_claw(P, big)
        if contains_induced_c6(P, small):
            assert contains_induced_c6(P, big)


class TestMatchings:
    def test_petersen_has_six(self, P):
        ms = all_perfect_matchings(P)
        assert len(ms) == 6
        for m in ms:
            assert len(m) == 5
            covered = [v for ei in m for v in P.edges[ei]]
            assert sorted(covered) == list(range(10))

    @pytest.mark.parametrize("g,count", [
        (path(4), 1), (cycle(6), 2), (complete(4), 3)])
    def test_small_counts(self, g, count):
        assert len(all_perfect_matchings(g)) == count

    def test_odd_order_has_none(self):
        assert all_perfect_matchings(cycle(5)) == ()


class TestChromaticIndex:
    @pytest.mark.parametrize("g,chi", [
        (petersen(), 4), (cycle(4), 2), (cycle(5), 3), (path(5), 2),
        (complete(4), 3), (complete(5), 5)])
    def test_known_values(self, g, chi):
        assert chromatic_index(g) == chi

    def test_all_petersen_deletions_stay_class_two(self, P):
        for label in P.vertices:
            assert chromatic_index(delete_vertex(P, label)) == 4

    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.name)
    def test_agrees_with_enumeration(self, g):
        assert chromatic_index(g) == naive_chromatic_index(g)


class TestSearchKernel:
    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.name)
    def test_first_solution_at_every_legal_t(self, g):
        rng = random.Random(g.name)
        for t in range(naive_chromatic_index(g), g.m + 1):
            order = list(range(g.m))
            rng.shuffle(order)
            for kwargs in ({}, {"order": order, "rng": rng, "reflect": False}):
                best, colors, _, tag = _search(g, t, **kwargs)
                assert tag == "bound-met"
                c = EdgeColoring(t=t, colors=tuple(colors))
                assert naive_valid(g, c), (t, kwargs, colors)
                assert best == analyze(g, c).f

    @pytest.mark.parametrize("args, req, nodes", [
        ((4,), (), 15),  # a first-solution run
        ((9,), ("x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3"),
         1_938),  # a run of the interval-set split
    ])
    def test_budget_is_tested_before_the_leaf(self, P, args, req, nodes):
        # the node that reaches the first leaf is counted, then budgeted:
        # a limit of exactly that many nodes stops the run short of it. A
        # decision run writes its colors only as it returns from a leaf, so
        # a stopped run has no witness and a completed one a whole coloring
        req = vertex_set(P, req)
        best, colors, *rest = _search(P, *args, req=req)
        assert rest[:2] == [nodes, "bound-met"]
        assert len(colors) == P.m and set(colors) <= set(range(1, args[0] + 1))
        c = EdgeColoring(t=args[0], colors=tuple(colors))
        assert naive_valid(P, c)
        assert best == analyze(P, c).f
        assert analyze(P, c).v_int & req == req
        stopped = _search(P, *args, req=req, node_limit=nodes)
        assert stopped == (-1, None, nodes, "budget")
        assert _search(P, *args, req=req, node_limit=nodes + 1) == (
            best, colors, nodes, "bound-met")

    @pytest.mark.parametrize("mu2, best, goal", [
        (True, 2, 4),  # an optimizing run of f
        (False, 2, 4),  # an optimizing run of n - f
    ])
    def test_req_needs_a_decision_run(self, P, mu2, best, goal):
        # only a decision run (mu2=None) keeps its req vertices interval or
        # draws colors at random; an optimizing run given req or rng is
        # refused before it starts
        req = vertex_set(P, ("x1", "x2", "x3"))
        with pytest.raises(ValueError, match="decision run"):
            _search(P, 9, mu2, best, goal, req=req)
        with pytest.raises(ValueError, match="decision run"):
            _search(P, 9, mu2, best, goal, rng=random.Random(0))

    @pytest.mark.parametrize("g", ORACLE_GRAPHS + [petersen(), complete(5)],
                             ids=lambda g: g.name)
    def test_default_order_is_the_per_node_scan(self, g):
        # what a scan at every node picks: among uncolored edges, the most
        # colored edges at the endpoints in req, then the most colored
        # edges at the endpoints, lowest index on ties; for every req on
        # the small graphs, for 200 seeded ones on Petersen
        def scan(req: int) -> tuple[int, ...]:
            cnt = [0] * g.n
            uncolored = set(range(g.m))
            out = []
            while uncolored:
                bi = min(uncolored, key=lambda i: (
                    -sum(cnt[w] for w in g.edges[i] if req >> w & 1),
                    -cnt[g.edges[i][0]] - cnt[g.edges[i][1]], i))
                uncolored.remove(bi)
                out.append(bi)
                for w in g.edges[bi]:
                    cnt[w] += 1
            return tuple(out)

        rng = random.Random(0)
        masks = (range(1 << g.n) if g.n <= 7
                 else [0] + [rng.getrandbits(g.n) for _ in range(200)])
        assert [req for req in masks
                if _most_constrained_order(g, req) != scan(req)] == []
        assert _most_constrained_order(g) == scan(0)

    def test_default_order_is_built_once(self, P):
        # the order is built once per (g, req), as a tuple no caller can
        # change under a later one
        req = vertex_set(P, ("x1", "x2", "y3"))
        first = _most_constrained_order(P, req)
        assert type(first) is tuple and sorted(first) == list(range(P.m))
        assert _most_constrained_order(P, req) is first


# cubic on 6 vertices: the prism's triangle edges and rungs lie in two
# orbits, while K_{3,3} is edge-transitive
PRISM = Graph.from_labels("prism", list("abcdef"), [
    ("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"),
    ("a", "d"), ("b", "e"), ("c", "f")])
K33 = Graph.from_labels("K3,3", list("abcdef"),
                        [(x, y) for x in "abc" for y in "def"])


TRANSITIVITY_GRAPHS = ORACLE_GRAPHS + [complete(4), K23, PAW, PRISM, K33]


class TestWindow:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_window_is_the_colors_that_keep_the_span(self, d):
        # every nonempty mask over colors 1..10 that a vertex of degree d
        # can hold undoomed; the window is exactly the colors c with
        # span(mask + {c}) <= d, none beyond color 20
        def span(cs):
            return max(cs) - min(cs) + 1

        masks = 0
        for mask in range(1, 1 << 10):
            cs = [c for c in range(1, 11) if mask >> c - 1 & 1]
            if span(cs) > d:
                continue
            masks += 1
            want = sum(1 << c - 1 for c in range(1, 21)
                       if span(cs + [c]) <= d)
            assert _window(mask, d) == want, (bin(mask), d)
        assert masks == sum(2 ** max(s - 2, 0) * (10 - s + 1)
                            for s in range(1, d + 1))


def edge_orbit(g, req=0):
    """Level 0 of the chain for the edge order 0..m-1: edge 0's orbit
    under the automorphisms that fix req, depth and edge index alike."""
    return _orbit_chain(g, req, tuple(range(g.m)))[0]


def _edge_transitive(g):
    return len(edge_orbit(g)) == g.m


def _apply(perm, mask):
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def stabilizer_levels(g, autos, req, order):
    """Per depth l of ``order``, from the listed group: the automorphisms
    that fix req and each of order[0..l-1] setwise, and the depths they
    map order[l] onto."""
    stab = [p for p in autos if _apply(p, req) == req]
    levels = []
    for ei in order:
        a, b = g.edges[ei]
        levels.append((stab, {
            order.index(g.edges.index(tuple(sorted((p[a], p[b])))))
            for p in stab}))
        stab = [p for p in stab if {p[a], p[b]} == {a, b}]
    return levels


class TestEdgeTransitivity:
    @pytest.mark.parametrize("g", TRANSITIVITY_GRAPHS, ids=lambda g: g.name)
    def test_agrees_with_permutation_oracle(self, g):
        assert _edge_transitive(g) == naive_edge_transitive(g)

    @pytest.mark.parametrize("g", TRANSITIVITY_GRAPHS, ids=lambda g: g.name)
    def test_maps_are_automorphisms_onto_each_edge(self, g):
        orbit = edge_orbit(g)
        assert list(orbit) == sorted(orbit) and orbit[0] == tuple(range(g.n))
        autos = set(naive_automorphisms(g))
        u0, v0 = g.edges[0]
        for ei, img in orbit.items():
            assert img in autos
            assert {img[u0], img[v0]} == set(g.edges[ei])

    @pytest.mark.parametrize("g", TRANSITIVITY_GRAPHS, ids=lambda g: g.name)
    def test_stabilizer_orbits_against_the_full_group(self, g):
        # for every vertex mask req, in the kernel's edge order for req, at
        # every level l: the depths are exactly order[l]'s orbit under the
        # automorphisms that fix req and order[0..l-1] setwise, each with a
        # map in that stabilizer sending order[l] onto its edge; a level
        # past the chain's end holds order[l] alone
        autos = naive_automorphisms(g)
        assert all(_most_constrained_order(g, req)[0] == 0
                   for req in range(1 << g.n))
        wrong, deep = [], 0
        for req in range(1 << g.n):
            order = _most_constrained_order(g, req)
            chain = _orbit_chain(g, req, order)
            levels = stabilizer_levels(g, autos, req, order)
            for lvl, (stab, want) in enumerate(levels):
                a, b = g.edges[order[lvl]]
                level = chain[lvl] if lvl < len(chain) else {lvl: None}
                if set(level) != want or list(level)[0] != lvl or any(
                        img is not None and (img not in stab or {
                            img[a], img[b]} != set(g.edges[order[d]]))
                        for d, img in level.items()):
                    wrong.append((req, lvl))
                deep += lvl > 0 and len(want) > 1
        assert wrong == []
        if g in (complete(4), K23, K33, PRISM):
            assert deep > 0

    def test_budget_cut_orbit_is_a_subset(self, monkeypatch):
        # a budget stop drops the edges not yet reached; what is left is
        # still part of the orbit, with a map for each edge
        monkeypatch.setattr(graphs_module, "_AUTOMORPHISM_BUDGET", 5)
        cut = 0
        for g in TRANSITIVITY_GRAPHS:
            autos = naive_automorphisms(g)
            u0, v0 = g.edges[0]
            for req in range(1 << g.n):
                stab = [p for p in autos if _apply(p, req) == req]
                want = {frozenset((p[u0], p[v0])) for p in stab}
                orbit = _orbit_chain.__wrapped__(g, req, tuple(range(g.m)))[0]
                assert 0 in orbit
                for ei, img in orbit.items():
                    assert img in stab
                    assert {img[u0], img[v0]} == set(g.edges[ei])
                cut += len(orbit) < len(want)
        assert cut > 0

    def test_budget_cut_chain_ends_at_its_level(self, monkeypatch):
        # when the budget runs out, the level under way is the chain's
        # last: every level before it is a whole orbit, and only the last
        # may hold part of its orbit. Some chains end this way past level 0
        monkeypatch.setattr(graphs_module, "_AUTOMORPHISM_BUDGET", 10)
        ended, wrong = 0, []
        for g in TRANSITIVITY_GRAPHS:
            autos = naive_automorphisms(g)
            for req in range(1 << g.n):
                order = _most_constrained_order(g, req)
                chain = _orbit_chain.__wrapped__(g, req, order)
                levels = [want for _, want in
                          stabilizer_levels(g, autos, req, order)]
                *whole, last = [set(level) for level in chain]
                if (whole != levels[:len(whole)]
                        or not last <= levels[len(whole)]):
                    wrong.append(req)
                ended += len(chain) > 1 and (
                    last != levels[len(whole)]
                    or any(len(x) > 1 for x in levels[len(chain):]))
        assert (wrong, ended > 0) == ([], True)

    def test_pinned_cases(self, P):
        assert _edge_transitive(P)
        for label in P.vertices:
            assert not _edge_transitive(delete_vertex(P, label))
        assert _edge_transitive(K23)
        assert not _edge_transitive(PAW)
        # P: edge 0's stabilizer, of order 8, has orbits of 4 and 2 edges
        # on the other edges, and order[1] lies in the one of 4
        order = _most_constrained_order(P)
        assert [len(level) for level in _orbit_chain(P, 0, order)] == [
            15, 4, 1, 2]

    def test_complete_11_without_listing_the_group(self):
        # Aut(K_11) has 39,916,800 elements; one map per orbit edge at
        # each level is enough, for the edge order 0..m-1 and the kernel's
        start = time.perf_counter()
        g = complete(11)
        assert len(_orbit_chain.__wrapped__(g, 0, tuple(range(g.m)))[0]) == g.m
        chain = _orbit_chain.__wrapped__(g, 0, _most_constrained_order(g))
        assert [len(level) for level in chain] == [55, 18, 8, 7, 6, 5, 4, 3, 2]
        assert time.perf_counter() - start < 2.0

    def test_exhausted_budget_answers_false(self, P, monkeypatch):
        monkeypatch.setattr(graphs_module, "_AUTOMORPHISM_BUDGET", 5)
        assert len(_orbit_chain.__wrapped__(P, 0, tuple(range(P.m)))[0]) < P.m


def representatives(orbits: dict[int, int]) -> tuple[int, ...]:
    """The masks an orbit table of ``_subset_orbits`` maps to themselves,
    in table order: the k-sets ``search._descend`` tries, in its own order."""
    return tuple(s for s, r in orbits.items() if s == r)


class TestSubsetOrbits:
    @pytest.mark.parametrize("g", TRANSITIVITY_GRAPHS, ids=lambda g: g.name)
    def test_representatives_against_the_full_group(self, g):
        # every k-subset maps to a representative, and each class of the
        # table is exactly its representative's orbit under the whole
        # group, listed from the definition, with the representative its
        # lexicographically least index set
        autos = naive_automorphisms(g)
        for k in range(1, g.n + 1):
            orbits = _subset_orbits(g, k, True)
            assert len(orbits) == math.comb(g.n, k)
            for rep in representatives(orbits):
                orbit = {_apply(p, rep) for p in autos}
                assert {s for s, r in orbits.items() if r == rep} == orbit
                assert min(orbit, key=lambda s: [
                    i for i in range(g.n) if s >> i & 1]) == rep

    def test_petersen_orbit_counts(self, P):
        # as under the full group of order 120: Petersen is distance-
        # transitive of diameter 2, so 8-sets (complements of vertex
        # pairs) fall into 2 orbits and 9-sets into 1
        assert [len(representatives(_subset_orbits(P, k, True)))
                for k in (7, 8, 9)] == [4, 2, 1]
        assert representatives(_subset_orbits(P, 9, True)) == (
            full_set(P) ^ 1 << 9,)

    @pytest.mark.parametrize(
        "g", TRANSITIVITY_GRAPHS + [complete_bipartite(4, 4),
                                    generalized_petersen(8, 3)],
        ids=lambda g: g.name)
    def test_tables_are_the_bitwise_walk(self, g):
        # the chunk-table walk gives the one-bit-at-a-time walk's dict,
        # item for item in the same order, at every k within the budget
        walked = 0
        for k in range(g.n + 1):
            want = naive_subset_orbits(g, k)
            got = _subset_orbits(g, k, True)
            if want is None:
                assert got is None
            else:
                walked += 1
                assert list(got.items()) == list(want.items())
        assert walked == sum(
            math.comb(g.n, k) <= graphs_module._SUBSET_ORBIT_BUDGET
            for k in range(g.n + 1))

    def test_petersen_minus_x1_orbit_counts(self, P):
        # P - x1 is not edge-transitive, and its table is the full
        # group's, of order 12: per k = 1..9, as counted over all 9!
        # vertex permutations
        h = delete_vertex(P, "x1")
        assert [len(representatives(_subset_orbits(h, k, True)))
                for k in range(1, h.n + 1)] == [2, 6, 12, 16, 16, 12, 6, 2, 1]

    def test_over_budget_is_none(self, P, monkeypatch):
        monkeypatch.setattr(graphs_module, "_SUBSET_ORBIT_BUDGET", 100)
        assert _subset_orbits.__wrapped__(P, 5, True) is None  # C(10,5) = 252
        orbits = _subset_orbits.__wrapped__(P, 8, True)  # C(10,8) = 45
        assert len(representatives(orbits)) == 2

    def test_without_symmetry_every_set_is_its_own(self, P, monkeypatch):
        # no maps: each of the C(n,k) k-sets represents itself, in
        # combinations order, and over the budget there is no table
        for k in range(P.n + 1):
            orbits = _subset_orbits(P, k, False)
            assert list(orbits.items()) == [
                (s, s) for s in _subsets(full_set(P), k)]
            assert len(orbits) == math.comb(P.n, k)
        monkeypatch.setattr(graphs_module, "_SUBSET_ORBIT_BUDGET", 100)
        assert _subset_orbits.__wrapped__(P, 5, False) is None
        assert len(_subset_orbits.__wrapped__(P, 8, False)) == 45


class TestVertexOrbits:
    @pytest.mark.parametrize("g", TRANSITIVITY_GRAPHS, ids=lambda g: g.name)
    def test_classes_lie_in_automorphism_orbits(self, g):
        # each class is named by its least vertex and is exactly one orbit
        # of the full group, listed from the definition
        orbits = _vertex_orbits(g)
        autos = naive_automorphisms(g)
        for x, root in enumerate(orbits):
            assert root <= x and orbits[root] == root
            assert {y for y, r in enumerate(orbits) if r == root} == {
                p[x] for p in autos}

    def test_petersen_is_one_class(self, P):
        relabeled = Graph.from_labels("petersen-relabeled", P.vertices[::-1],
                                      P.edge_labels[::-1])
        assert _vertex_orbits(P) == _vertex_orbits(relabeled) == (0,) * 10

    def test_petersen_minus_x1_has_two_classes(self, P):
        # x1's three neighbors, now of degree 2, and the other six
        h = delete_vertex(P, "x1")
        orbits = _vertex_orbits(h)
        assert sorted(sorted(h.vertices[x] for x in range(h.n)
                             if orbits[x] == root)
                      for root in set(orbits)) == [
            ["x2", "x5", "y1"], ["x3", "x4", "y2", "y3", "y4", "y5"]]


class TestDeleteVertex:
    def test_shape_after_deletion(self, P):
        h = delete_vertex(P, "y3")
        assert (h.n, h.m) == (9, 12)
        assert sorted(h.degrees) == [2, 2, 2, 3, 3, 3, 3, 3, 3]
        assert "y3" not in h.vertices

    def test_disconnecting_deletion_rejected(self):
        # middle of a 5-path: both sides keep an edge, so the failure is
        # disconnection rather than edge exhaustion
        with pytest.raises(GraphError, match="connect"):
            delete_vertex(path(5), "v2")

    def test_deletion_leaving_no_edges_rejected(self):
        with pytest.raises(GraphError, match="no edges"):
            delete_vertex(path(2), "v0")

    def test_unknown_vertex_rejected(self, P):
        with pytest.raises(GraphError, match="unknown"):
            delete_vertex(P, "z9")


class TestJsonInterchange:
    def test_roundtrip(self, P):
        doc = graph_to_dict(P)
        again = graph_from_dict(doc)
        assert again == P

    def test_load_from_file(self, tmp_path):
        g = cycle(5)
        p = tmp_path / "c5.json"
        p.write_text(json.dumps(graph_to_dict(g)))
        assert load_graph(str(p)) == g

    def test_missing_field_rejected(self):
        with pytest.raises(GraphError, match="missing"):
            graph_from_dict({"name": "g", "vertices": ["a"]})

    def test_bad_edge_entry_rejected(self):
        with pytest.raises(GraphError, match="bad edge"):
            graph_from_dict({"name": "g", "vertices": ["a", "b"],
                             "edges": [["a"]]})

    @pytest.mark.parametrize("key,value", [("vertices", "abc"),
                                           ("edges", {"a": "b"})])
    def test_non_list_fields_rejected(self, key, value):
        doc = {"name": "g", "vertices": ["a", "b", "c"],
               "edges": [["a", "b"], ["b", "c"]], key: value}
        with pytest.raises(GraphError, match=f"{key} must be a list"):
            graph_from_dict(doc)

    def test_invalid_json_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(GraphError, match="invalid JSON"):
            load_graph(str(p))

    def test_bad_files_rejected_in_a_fresh_interpreter(self, tmp_path, fresh):
        # load_graph imports json itself: with nothing loaded before it,
        # each bad file is still a GraphError with its one-line message
        files = {
            tmp_path / "invalid.json": (b"{nope", "invalid JSON ("),
            tmp_path / "utf16.json": (b"\xff\xfe{\x00}\x00", "not UTF-8 ("),
            tmp_path / "deep.json": (b"[" * 100_000,
                                     "invalid JSON (nested too deeply)")}
        for p, (data, _) in files.items():
            p.write_bytes(data)
        code = ("from mu_spectra.graphs import GraphError, load_graph\n"
                "for p in sys.argv[2:]:\n"
                "    try:\n"
                "        load_graph(p)\n"
                "    except GraphError as exc:\n"
                "        print(ascii(str(exc)))\n")
        proc = fresh(code, *files)
        assert (proc.returncode, proc.stderr) == (0, "")
        got = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
        assert len(got) == len(files)
        for line, (p, (_, message)) in zip(got, files.items()):
            assert line.startswith(f"{p}: {message}") and "\n" not in line
