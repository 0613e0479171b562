import itertools
import json
import random

import pytest

from mu_spectra import (
    EvidenceKind,
    Graph,
    Objective,
    GraphError,
    SearchConfig,
    analyze,
    chromatic_index,
    complete,
    cycle,
    delete_vertex,
    fixtures,
    full_set,
    is_interval_colorable_regular,
    is_path_forest,
    legal_t_range,
    max_path_forest_subset,
    mu1_floor_from_matchings,
    mu1_floors,
    mu2_caps,
    mu2_top_cap,
    mu2_top_cap_from_obstructions,
    mu22_cap_cubic,
    mu22_cap_from_noninterval,
    path,
    petersen,
    sample,
    set_labels,
    solve,
    span_cap,
    vertex_set,
)
from mu_spectra import search as search_module
from mu_spectra import structural as structural_module

from mu_spectra.graphs import _vertex_orbits

from oracles import (ORACLE_CORPUS, floyd_span_cap, naive_interval_sets,
                     naive_mu, naive_mu22_cap_cubic)
from test_search import HEAWOOD
from test_theorems import complete_bipartite, generalized_petersen


def bridge_cubic() -> Graph:
    """Cubic graph with a bridge: two K4s, one edge each subdivided,
    subdivision vertices joined. Chromatic index 4, but vertex deletions
    at the bridge disconnect it."""
    edges = []
    for p in ("a", "b"):
        edges += [(f"{p}1", f"{p}3"), (f"{p}1", f"{p}4"), (f"{p}2", f"{p}3"),
                  (f"{p}2", f"{p}4"), (f"{p}3", f"{p}4"),
                  (f"{p}1", f"w{p}"), (f"{p}2", f"w{p}")]
    edges.append(("wa", "wb"))
    labels = [f"{p}{i}" for p in "ab" for i in range(1, 5)] + ["wa", "wb"]
    return Graph.from_labels("bridge-cubic", labels, edges)


def shuffled_petersen() -> Graph:
    """Petersen with its vertices and edges listed in a shuffled order."""
    p, rng = petersen(), random.Random(7)
    labels, edges = list(p.vertices), list(p.edge_labels)
    rng.shuffle(labels)
    rng.shuffle(edges)
    return Graph.from_labels("petersen-shuffled", labels, edges)


class TestIntervalColorability:
    def test_petersen_is_not(self, P):
        assert is_interval_colorable_regular(P) is False

    def test_class_one_cycle_is(self):
        assert is_interval_colorable_regular(cycle(4)) is True

    def test_triangle_is_not(self):
        assert is_interval_colorable_regular(cycle(3)) is False

    def test_non_regular_rejected(self):
        with pytest.raises(GraphError, match="not regular"):
            is_interval_colorable_regular(path(3))


class TestNonIntervalCap:
    def test_petersen_cap_is_nine(self, P):
        ev = mu22_cap_from_noninterval(P)
        assert ev.kind is EvidenceKind.NOT_INTERVAL_COLORABLE
        assert ev.value == 9
        assert ev.applies_t is None
        assert ev.payload["chromatic_index"] == 4

    def test_triangle_cap_is_two(self):
        assert mu22_cap_from_noninterval(cycle(3)).value == 2

    def test_colorable_graph_rejected(self):
        with pytest.raises(GraphError, match="no cap follows"):
            mu22_cap_from_noninterval(cycle(4))


class TestPathForestCap:
    @pytest.mark.parametrize("g,expect", [
        # any 3 vertices of complete:4 induce a triangle, hence 2
        (petersen(), 6), (cycle(6), 5), (complete(4), 2), (cycle(3), 2)])
    def test_known_maxima(self, g, expect):
        assert max_path_forest_subset(g) == expect

    def test_degree_one_rejected(self):
        with pytest.raises(GraphError, match="degree"):
            max_path_forest_subset(path(3))

    def test_cap_evidence_applies_at_top_t_only(self, P):
        ev = mu2_top_cap(P)
        assert ev.kind is EvidenceKind.PATH_FOREST_CAP
        assert ev.value == 6
        assert ev.applies_t == 15
        assert len(ev.payload["witness_subset"]) == 6

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cap_is_tight_on_cycles_at_top_t(self, n):
        g = cycle(n)
        _, hi = naive_mu(g, g.m)
        assert mu2_top_cap(g).value == hi

    @pytest.mark.parametrize("g", [complete(4), petersen()])
    def test_monotone_under_edge_deletion(self, g):
        base = max_path_forest_subset(g)
        for drop in range(g.m):
            kept = [e for i, e in enumerate(g.edge_labels) if i != drop]
            try:
                h = Graph.from_labels("h", g.vertices, kept)
            except GraphError:
                continue
            if h.min_degree() < 2:
                continue
            assert max_path_forest_subset(h) >= base

    @pytest.mark.parametrize("g", [cycle(5), cycle(6), complete(4)],
                             ids=lambda g: g.name)
    def test_interval_vertices_form_path_forests_at_top_t(self, g):
        # empirical form of the structure argument behind the cap
        for c in sample(g, g.m, seed=31, count=50):
            rep = analyze(g, c)
            assert is_path_forest(g, rep.v_int)
            assert rep.f <= max_path_forest_subset(g)


class TestCubicCap:
    def test_consecutive_triple_gives_all_three_residues(self, P):
        # the residue fact the cap argues from
        c = fixtures()["psi"].coloring()
        rep = analyze(P, c)
        for vi in range(P.n):
            if rep.v_int >> vi & 1:
                res = {(c.colors[ei] - 1) % 3 + 1 for _, ei in P.adjacency[vi]}
                assert res == {1, 2, 3}

    def test_petersen_cap_is_eight(self, P):
        ev = mu22_cap_cubic(P)
        assert ev.kind is EvidenceKind.MOD_REDUCTION
        assert ev.value == 8
        assert ev.applies_t is None
        assert ev.payload["deletion_chromatic_indices"] == {
            label: 4 for label in P.vertices}

    def test_class_one_cubic_rejected(self):
        with pytest.raises(GraphError, match="chromatic index.*3"):
            mu22_cap_cubic(complete(4))

    def test_non_cubic_rejected(self):
        with pytest.raises(GraphError, match="not cubic"):
            mu22_cap_cubic(cycle(5))

    def test_bridge_graph_rejected_with_named_deletion(self):
        g = bridge_cubic()
        assert g.is_cubic() and chromatic_index(g) == 4
        with pytest.raises(GraphError, match="deletion of wa"):
            mu22_cap_cubic(g)

    @pytest.mark.parametrize("g", [
        petersen(), shuffled_petersen(), complete(4), bridge_cubic(), HEAWOOD,
        generalized_petersen(5, 1), generalized_petersen(7, 2),
        generalized_petersen(8, 3), complete_bipartite(3, 3), cycle(5),
        delete_vertex(petersen(), "x1")], ids=lambda g: g.name)
    def test_orbit_deletions_match_the_per_vertex_loop(self, g):
        # the same evidence, payload key order included, or the same
        # message, as deleting every vertex on its own
        def outcome(cap):
            try:
                ev = cap(g)
            except GraphError as exc:
                return str(exc)
            return ev.kind, ev.value, ev.applies_t, json.dumps(ev.to_dict())

        assert outcome(mu22_cap_cubic) == outcome(naive_mu22_cap_cubic)

    def test_bridge_graph_names_each_failed_deletion(self):
        # wa and wb share an orbit, and each deletion disconnects the
        # graph: the message names both, each from its own deletion
        g = bridge_cubic()
        assert _vertex_orbits(g)[-2:] == (8, 8)
        with pytest.raises(GraphError) as info:
            mu22_cap_cubic(g)
        assert str(info.value) == "; ".join(
            f"cannot check deletion of {w}: deleting {w} from bridge-cubic: "
            f"graph must be connected" for w in ("wa", "wb"))


class TestMatchingFloor:
    def test_petersen_floor_is_two(self, P):
        ev = mu1_floor_from_matchings(P)
        assert ev.kind is EvidenceKind.MATCHING_INTERSECTION
        assert ev.value == 2
        assert ev.applies_t == 4
        assert len(ev.payload["perfect_matchings"]) == 6
        assert ev.payload["pairs_checked"] == 15

    def test_class_one_cubic_rejected(self):
        # K4 is cubic but 3-edge-colorable (and has disjoint matchings)
        with pytest.raises(GraphError, match="chromatic index"):
            mu1_floor_from_matchings(complete(4))

    def test_non_cubic_rejected(self):
        with pytest.raises(GraphError, match="not cubic"):
            mu1_floor_from_matchings(cycle(6))


class TestSpanCap:
    def test_petersen_pins(self, P):
        # diameter 2, degree 3: a path of 3 vertices climbs by 2 at each
        assert span_cap(P, full_set(P)) == 7
        assert span_cap(P, vertex_set(
            P, ["x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3"])) == 9
        # G[S] is connected, with span 9, and the edge y3-y5 lies outside S
        assert span_cap(P, vertex_set(
            P, ["x1", "x2", "x3", "x4", "x5", "y1", "y2", "y4"])) == 10

    def test_unjoined_components_span_apart(self):
        # {v0, v2} of a 3-vertex path: two singleton components, each of
        # degree 1, so each spans one color
        assert span_cap(path(3), 0b101) == 2

    def test_bucketed_search_is_the_all_pairs_table(self, P):
        # every nonempty mask of the small graphs, Petersen, P - x1 and
        # K_{4,4}; 2,000 seeded masks each of GP(8,3) and Heawood
        rng = random.Random(0)
        cases = [(g, range(1, 1 << g.n)) for g in ORACLE_CORPUS + [
            P, delete_vertex(P, "x1"), complete_bipartite(4, 4)]]
        cases += [(g, [rng.getrandbits(g.n) or 1 for _ in range(2000)])
                  for g in (generalized_petersen(8, 3), HEAWOOD)]
        wrong = [(g.name, s) for g, masks in cases for s in masks
                 if span_cap(g, s) != floyd_span_cap(g, s)]
        assert (sum(len(masks) for _, masks in cases), wrong) == (7_066, [])

    def test_refutations_agree_with_enumeration(self):
        # wherever the rule refutes a set, no enumerated valid coloring
        # makes that set interval; the counts pin the cap's strength too
        checks, refuted, wrong = 0, 0, []
        for g in ORACLE_CORPUS:
            assert g.m <= 7
            for t in legal_t_range(g):
                for s in range(1, 1 << g.n):
                    cap = span_cap(g, s)
                    assert type(cap) is int
                    checks += 1
                    if cap < t:
                        refuted += 1
                        want = set(set_labels(g, s))
                        if any(want <= found
                               for found in naive_interval_sets(g, t)):
                            wrong.append(f"{g.name} t={t} S={sorted(want)}")
        assert (checks, refuted, wrong) == (5285, 52, [])

    def test_interval_sets_of_sampled_colorings_stay_within_the_cap(self, P):
        # past the oracle's m <= 7: a sampled coloring's interval set, and
        # any subset of it, is interval at its t, so the cap never falls
        # below t; the tight count pins how often the cap is met
        rng = random.Random(0)
        checked, tight, wrong = 0, 0, []
        for g in (P, delete_vertex(P, "x1"), complete_bipartite(4, 4)):
            for t in legal_t_range(g):
                for c in sample(g, t, seed=t, count=16):
                    interval = analyze(g, c).v_int
                    for s in [interval] + [interval & rng.getrandbits(g.n)
                                           for _ in range(8)]:
                        if not s:
                            continue
                        checked += 1
                        tight += (cap := span_cap(g, s)) == t
                        if cap < t:
                            wrong.append(f"{g.name} t={t} "
                                         f"S={set_labels(g, s)}")
        assert (checked, tight, wrong) == (2046, 102, [])

    def test_whole_graph_cap_applies_above_the_span(self, P, monkeypatch):
        # with no other cap, the split's k = 10 step is the span rule on
        # the whole vertex set: above span_cap(P, V) = 7 it refutes V at 0
        # nodes, and at t = 7 a run refutes it
        assert span_cap(P, full_set(P)) == 7
        monkeypatch.setattr(search_module, "mu2_caps", lambda g, t: [])
        cfg = SearchConfig(seed_fixtures=False)
        top = {t: next(e for e in solve(P, t, Objective.MU2, cfg).evidence
                       if e.payload.get("k") == 10)
               for t in (7, 8, 15)}
        assert {t: (e.value, e.payload["nodes"], e.payload["span_caps"])
                for t, e in top.items()} == {
            7: (9, [108], [None]), 8: (9, [0], [7]), 15: (9, [0], [7])}

    def test_whole_graph_caps_replay(self):
        # the whole-graph span rule is sound: above span_cap(g, V) the
        # enumerated maximum leaves some vertex non-interval. Wherever the
        # split reaches k = n there, its record is that rule's 0-node
        # refutation of V
        above, reached = 0, 0
        for g in ORACLE_CORPUS:
            cap = span_cap(g, full_set(g))
            for t in legal_t_range(g):
                if t <= cap:
                    continue
                above += 1
                assert naive_mu(g, t)[1] <= g.n - 1
                for e in solve(g, t, Objective.MU2).evidence:
                    if e.payload.get("k") == g.n:
                        reached += 1
                        assert e.kind is EvidenceKind.INTERVAL_SET_ORBITS
                        assert e.value == g.n - 1
                        assert e.payload["representatives"] == [
                            list(g.vertices)]
                        assert (e.payload["nodes"], e.payload["span_caps"]) \
                            == ([0], [cap])
        assert (above, reached) == (23, 6)


class TestBoundCollections:
    def test_petersen_caps_at_low_t(self, P):
        kinds = {e.kind for e in mu2_caps(P, 4)}
        assert kinds == {EvidenceKind.NOT_INTERVAL_COLORABLE,
                         EvidenceKind.MOD_REDUCTION}

    def test_petersen_caps_at_top_t_include_path_forest(self, P):
        kinds = {e.kind for e in mu2_caps(P, 15)}
        assert EvidenceKind.PATH_FOREST_CAP in kinds

    def test_petersen_floor_only_at_four(self, P):
        assert [e.value for e in mu1_floors(P, 4)] == [2]
        assert mu1_floors(P, 5) == []

    def test_graphs_without_applicable_arguments_get_nothing(self):
        assert mu2_caps(cycle(4), 3) == []
        assert mu1_floors(cycle(4), 4) == []

    def test_bounds_are_consistent_with_exhaustive_values(self, P):
        # the t=4 optimum pair must respect every emitted bound
        lo_true, hi_true = 2, 8
        for e in mu2_caps(P, 4):
            assert hi_true <= e.value
        for e in mu1_floors(P, 4):
            assert e.value <= lo_true

    def test_every_t_caps_are_built_once_per_graph(self, P, monkeypatch):
        # an equal graph under a new name misses every cache P has filled
        g = Graph.from_labels("petersen-caps", P.vertices, P.edge_labels)
        deleted = []
        real = structural_module.delete_vertex
        monkeypatch.setattr(structural_module, "delete_vertex",
                            lambda g, label: deleted.append(label) or real(g, label))
        caps = [mu2_caps(g, t) for t in range(4, 16)]
        # one deletion per vertex orbit, and Petersen is vertex-transitive
        assert deleted == [g.vertices[0]]
        assert all(c[:2] == caps[0] for c in caps)
        for t in (4, 15):
            json.dumps(solve(g, t, Objective.MU2).to_dict(g))
        # the shared evidence comes out as a fresh build, and the public
        # cap still replays its deletion
        assert mu2_caps(g, 4) == [mu22_cap_from_noninterval(g), mu22_cap_cubic(g)]
        assert deleted == [g.vertices[0]] * 2

    def test_evidence_serializes(self, P):
        docs = [e.to_dict() for e in mu2_caps(P, 15)] + [
            e.to_dict() for e in mu1_floors(P, 4)]
        for d in docs:
            assert {"kind", "value", "detail"} <= set(d)


class TestLargeSubsetObstruction:
    def test_every_large_subset_contains_claw_or_hexagon(self, P):
        from mu_spectra import contains_induced_c6, contains_induced_claw
        total = obstructed = 0
        for size in range(7, 11):
            for combo in itertools.combinations(range(10), size):
                total += 1
                mask = 0
                for v in combo:
                    mask |= 1 << v
                if (contains_induced_claw(P, mask)
                        or contains_induced_c6(P, mask)):
                    obstructed += 1
        assert total == 176
        assert obstructed == 176

    def test_evidence_caps_the_top_t(self, P):
        ev = mu2_top_cap_from_obstructions(P, 7)
        assert ev.kind is EvidenceKind.PATH_FOREST_CAP
        assert (ev.value, ev.applies_t) == (6, 15)
        assert ev.payload == {"subsets": 176, "obstructed": 176}
        assert ev.value == mu2_top_cap(P).value

    def test_hexagon_caps_itself(self):
        assert mu2_top_cap_from_obstructions(cycle(6), 6).value \
            == mu2_top_cap(cycle(6)).value == 5

    def test_failed_premises_raise(self, P):
        # three vertices of complete:4 induce a triangle
        with pytest.raises(GraphError, match="no induced claw"):
            mu2_top_cap_from_obstructions(complete(4), 3)
        with pytest.raises(GraphError, match="no induced claw"):
            mu2_top_cap_from_obstructions(P, 6)
        with pytest.raises(GraphError, match="degree"):
            mu2_top_cap_from_obstructions(path(3), 2)
