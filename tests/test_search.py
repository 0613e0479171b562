import hashlib
import importlib
import json
import random
import sys
from types import SimpleNamespace

import pytest

from mu_spectra import (
    BoundEvidence,
    EdgeColoring,
    EvidenceKind,
    Graph,
    GraphError,
    InvalidColoringError,
    Objective,
    SearchConfig,
    SearchOutcome,
    SolveStatus,
    analyze,
    complete,
    cycle,
    delete_vertex,
    is_valid,
    legal_t_range,
    path,
    petersen,
    profile,
    sample,
    set_labels,
    solve,
    span_cap,
    vertex_set,
)
from mu_spectra.graphs import (_most_constrained_order, _orbit_chain, _search,
                                _subset_orbits)
from mu_spectra.search import PROFILE_NODE_LIMIT, _carry_up

from oracles import (ORACLE_CORPUS, naive_carry_up, naive_f,
                     naive_interval_labels, naive_interval_sets, naive_mu,
                     naive_valid, random_connected_graph)
from test_graphs import representatives
from test_theorems import (FAMILIES, complete_bipartite, generalized_petersen,
                           hypercube)

search_module = importlib.import_module("mu_spectra.search")
graphs_module = importlib.import_module("mu_spectra.graphs")

BARE = SearchConfig(seed_fixtures=False, use_structural_bounds=False)


def inside_edges(g: Graph, s: int) -> int:
    """The edges with both ends in the vertex mask ``s``."""
    return sum(s >> u & 1 and s >> v & 1 for u, v in g.edges)


#: The Heawood graph: a 14-cycle with chords i ~ i+5 at even i.
HEAWOOD = Graph.from_labels(
    "heawood", [f"h{i}" for i in range(14)],
    [(f"h{i}", f"h{(i + 1) % 14}") for i in range(14)]
    + [(f"h{i}", f"h{(i + 5) % 14}") for i in range(0, 14, 2)])


def replay_orbit_evidence(g, out) -> list[tuple[int, int]]:
    """Replay each interval-set-orbits record of a mu2 outcome.

    Every listed representative's default-order req search must find no
    witness. One that ran has a null span cap and must spend the recorded
    nodes. One refuted by the span rule must have spent 0 nodes and have
    a span cap that recomputes to the recorded value, below t.
    Returns (k, representatives) per record.
    """
    replayed = []
    for e in out.evidence:
        if e.kind is not EvidenceKind.INTERVAL_SET_ORBITS:
            continue
        k = e.payload["k"]
        assert (e.applies_t, e.value) == (out.t, k - 1)
        assert set(e.payload) == {"k", "representatives", "nodes",
                                  "span_caps"}
        for labels, spent, cap in zip(e.payload["representatives"],
                                      e.payload["nodes"],
                                      e.payload["span_caps"], strict=True):
            assert len(labels) == k
            s = vertex_set(g, labels)
            _, colors, nodes, tag = _search(g, out.t, req=s)
            assert (colors, tag) == (None, "exhausted")
            if cap is not None:
                assert spent == 0
                assert span_cap(g, s) == cap < out.t
            else:
                assert nodes == spent
        replayed.append((k, len(e.payload["representatives"])))
    return replayed


def chained(g, t, req) -> bool:
    """Whether a decision run with ``req`` has a floor that may cut a
    color: some level of its symmetry chain past 0 has mates, or level 0
    has mates but is not every edge, and t >= 3 leaves the edge of that
    level a color above 1."""
    chain = _orbit_chain(g, req, _most_constrained_order(g, req))
    return t > 2 and (1 < len(chain[0]) < g.m
                      or any(len(level) > 1 for level in chain[1:]))


def expire_clock_after(monkeypatch, reads: float) -> SimpleNamespace:
    """Give the search a clock that reads 0.0 for its first `reads` reads
    and 1.0 after, past any deadline under one second. Returns the clock;
    its `count` is the number of reads so far."""
    clock = SimpleNamespace(count=0)

    def monotonic() -> float:
        clock.count += 1
        return 0.0 if clock.count <= reads else 1.0

    clock.monotonic = monotonic
    monkeypatch.setattr(search_module, "time", clock)
    monkeypatch.setattr(graphs_module, "time", clock)
    return clock


# spot values frozen from full enumeration (oracle sweep lives in the
# acceptance suite)
KNOWN = [
    (cycle(3), 3, 2, 2),
    (cycle(4), 2, 4, 4), (cycle(4), 3, 2, 4), (cycle(4), 4, 1, 3),
    (cycle(5), 5, 0, 4),
    (cycle(6), 6, 0, 5),
    (path(4), 3, 3, 4),
    (complete(4), 4, 0, 4), (complete(4), 6, 0, 2),
]

class TestLegalRange:
    def test_petersen(self, P):
        assert legal_t_range(P) == range(4, 16)

    def test_cycle_parity(self):
        assert legal_t_range(cycle(4)) == range(2, 5)
        assert legal_t_range(cycle(5)) == range(3, 6)

    @pytest.mark.parametrize("t", [0, 3, 16])
    def test_out_of_range_rejected(self, P, t):
        with pytest.raises(GraphError, match=r"\[4, 15\]"):
            solve(P, t, Objective.MU1)

    def test_t_that_is_not_an_int_rejected(self, P):
        # each equals a legal t, and 5.0 would reach the kernel's 1 << t
        for call in (lambda: solve(P, 4.0, Objective.MU1),
                     lambda: solve(P, 5.0, Objective.MU2),
                     lambda: sample(P, 5.0),
                     lambda: solve(path(2), True, Objective.MU2)):
            with pytest.raises(GraphError, match="t must be an integer"):
                call()


class TestExactValues:
    @pytest.mark.parametrize("g,t,lo,hi", KNOWN,
                             ids=[f"{g.name}-t{t}" for g, t, _, _ in KNOWN])
    def test_frozen_small_graph_values(self, g, t, lo, hi):
        o1 = solve(g, t, Objective.MU1)
        o2 = solve(g, t, Objective.MU2)
        assert (o1.status, o1.value) == (SolveStatus.EXACT, lo)
        assert (o2.status, o2.value) == (SolveStatus.EXACT, hi)

    def test_exact_outcomes_carry_achieving_witnesses(self):
        g = cycle(5)
        for t in legal_t_range(g):
            for obj in Objective:
                out = solve(g, t, obj)
                assert out.is_exact
                assert out.witness is not None
                assert is_valid(g, out.witness)
                assert analyze(g, out.witness).f == out.value

    def test_minimum_never_exceeds_maximum(self):
        for g in (cycle(6), complete(4), path(5)):
            for t in legal_t_range(g):
                assert solve(g, t, Objective.MU1).value <= \
                    solve(g, t, Objective.MU2).value


class TestPetersenSeededRuns:
    def test_four_colors_close_from_bounds_alone(self, P):
        o1 = solve(P, 4, Objective.MU1)
        o2 = solve(P, 4, Objective.MU2)
        assert (o1.value, o1.nodes_visited, o1.closed_by) == (2, 0, "bounds-closed")
        assert (o2.value, o2.nodes_visited, o2.closed_by) == (8, 0, "bounds-closed")

    def test_top_t_maximum_closes_from_catalog_and_cap(self, P):
        out = solve(P, 15, Objective.MU2)
        assert out.value == 6
        assert out.nodes_visited == 0
        kinds = {e.kind for e in out.evidence}
        assert EvidenceKind.CERTIFICATE_LOWER_BOUND in kinds
        assert EvidenceKind.PATH_FOREST_CAP in kinds
        assert any("psi" in e.detail for e in out.evidence
                   if e.kind is EvidenceKind.CERTIFICATE_LOWER_BOUND)

    def test_mu1_catalog_seeds_bound_from_above(self, P):
        # a coloring's f caps mu1, so psi6's f=6 is an upper bound in a
        # cell of value 0, and no entry claims mu1 >= 6
        out = solve(P, 9, Objective.MU1)
        assert out.value == 0
        assert [e for e in out.evidence
                if e.kind is EvidenceKind.CERTIFICATE_LOWER_BOUND] == []
        assert [(e.value, e.detail) for e in out.evidence
                if e.kind is EvidenceKind.CERTIFICATE_UPPER_BOUND] == [
            (6, "catalog coloring psi6 achieves f=6 at t=9"),
            (0, "catalog coloring lambda5 achieves f=0 at t=9")]

    def test_top_t_minimum_closes_at_zero(self, P):
        out = solve(P, 15, Objective.MU1)
        assert out.value == 0
        assert analyze(P, out.witness).f == 0

    def test_exhaustive_four_color_search_agrees_with_bounds(self, P):
        o1 = solve(P, 4, Objective.MU1, BARE)
        o2 = solve(P, 4, Objective.MU2, BARE)
        assert (o1.value, o1.closed_by) == (2, "exhausted")
        assert (o2.value, o2.closed_by) == (8, "exhausted")
        # mu2: after a 15-node first solution, the 10-set is refuted in 78
        # nodes and the one 9-set orbit in 488, each under its symmetry
        # chain; the first 8-set is then made interval in 26 nodes
        assert (o1.nodes_visited, o2.nodes_visited) == (1_910, 607)

    def test_bare_complete_graph_search_is_pinned(self):
        out = solve(complete(5), 8, Objective.MU2, BARE)
        assert (out.value, out.closed_by) == (3, "exhausted")
        assert out.nodes_visited == 251

    @pytest.mark.parametrize("g, t, objective, cfg, want", [
        # no seed, no bound, no symmetry: mu1 is one plain optimizing run;
        # mu2 takes the split, each k-set its own representative
        (petersen(), 4, Objective.MU1,
         BARE.replace(use_reflection_symmetry=False), (2, 26_273, "exhausted")),
        (petersen(), 4, Objective.MU2,
         BARE.replace(use_reflection_symmetry=False), (8, 20_239, "exhausted")),
        # P - x1 is not edge-transitive, and its mu2 cells take the split
        # under its automorphism group of order 12, like every graph's;
        # its mu1 cell is one optimizing run of n - f. At t = 7 hi enters
        # at n = 9, and the split refutes k = 9 by span before it meets 8
        (delete_vertex(petersen(), "x1"), 7, Objective.MU2, SearchConfig(),
         (8, 475, "exhausted")),
        (delete_vertex(petersen(), "x1"), 12, Objective.MU2, SearchConfig(),
         (6, 30, "bound-met")),
        (delete_vertex(petersen(), "x1"), 9, Objective.MU1, SearchConfig(),
         (0, 136, "bound-met")),
    ], ids=["P-t4-mu1", "P-t4-mu2", "Px1-t7-mu2", "Px1-t12-mu2", "Px1-t9-mu1"])
    def test_optimizing_runs_are_pinned(self, g, t, objective, cfg, want):
        out = solve(g, t, objective, cfg)
        assert (out.value, out.nodes_visited, out.closed_by) == want

    def test_orbit_evidence_replays(self, P):
        # bare, mu2(P,4) starts from the trivial cap 10: the split refutes
        # f >= 10 and f >= 9, one representative each, then meets 8
        out = solve(P, 4, Objective.MU2, BARE)
        assert replay_orbit_evidence(P, out) == [(10, 1), (9, 1)]

    def test_crossed_entering_bounds_are_a_bug(self, P, monkeypatch):
        # catalog colorings and structural caps are both sound, so a cap
        # below sigma's f=8 at t=4 can only come from a broken argument
        bogus = BoundEvidence(kind=EvidenceKind.MOD_REDUCTION, value=7,
                              detail="unsound cap")
        monkeypatch.setattr(search_module, "mu2_caps", lambda g, t: [bogus])
        with pytest.raises(RuntimeError, match=r"inconsistent bounds \[8, 7\]"):
            solve(P, 4, Objective.MU2)

    def test_crossed_entering_mu1_bounds_are_a_bug(self, P, monkeypatch):
        # epsilon's f=2 caps mu1 at t=4, so a floor of 3 can only come from
        # a broken argument; the crossed score bounds print as f bounds
        bogus = BoundEvidence(kind=EvidenceKind.MATCHING_INTERSECTION,
                              value=3, detail="unsound floor")
        monkeypatch.setattr(search_module, "mu1_floors", lambda g, t: [bogus])
        with pytest.raises(RuntimeError, match=(
                r"inconsistent bounds \[3, 2\] for mu1 at t=4")):
            solve(P, 4, Objective.MU1)

    def test_exact_outcome_without_a_witness_is_refused(self, P):
        out = SearchOutcome(objective=Objective.MU2, t=4, lo=8, hi=8,
                            witness=None, nodes_visited=0,
                            closed_by="bounds-closed")
        with pytest.raises(RuntimeError, match="no witness"):
            search_module._checked(P, out)

    def test_split_leaves_oversized_k_to_the_plain_kernel(self, P, monkeypatch):
        # with room for 10 k-sets, k = 10 and 9 are split and refuted, and
        # the plain kernel decides f >= 8 over the 45 8-sets
        orbits = graphs_module._subset_orbits
        monkeypatch.setattr(graphs_module, "_SUBSET_ORBIT_BUDGET", 10)
        orbits.cache_clear()
        try:
            out = solve(P, 4, Objective.MU2, BARE)
        finally:
            orbits.cache_clear()
        assert (out.value, out.closed_by) == (8, "exhausted")
        assert [e.payload["k"] for e in out.evidence] == [10, 9]
        assert analyze(P, out.witness).f == 8

    def test_split_hands_oversized_k_to_the_plain_run(self):
        # at the default config, on GP(9,2) at t=24: the split refutes
        # k = 18..13, and C(18,12) = 18,564 exceeds the subset budget, so
        # one plain optimizing run takes f >= 12 and raises the first
        # solution's 6 to 8 before the profile budget runs out
        g = generalized_petersen(9, 2)
        assert _subset_orbits(g, 13, True) is not None
        assert _subset_orbits(g, 12, True) is None
        out = solve(g, 24, Objective.MU2,
                    SearchConfig(node_limit=PROFILE_NODE_LIMIT))
        assert (out.lo, out.hi, out.nodes_visited, out.closed_by) == (
            8, 12, PROFILE_NODE_LIMIT, "budget")
        assert [e.payload["k"] for e in out.evidence
                if e.kind is EvidenceKind.INTERVAL_SET_ORBITS] == [
            18, 17, 16, 15, 14, 13]
        assert naive_f(g, out.witness) == 8

    def test_budget_stops_the_plain_run_after_the_split(self, P, monkeypatch):
        # as above, but the budget runs out in the plain kernel's run on
        # f >= 8: the refuted hi stays and the incumbent is its witness
        orbits = graphs_module._subset_orbits
        monkeypatch.setattr(graphs_module, "_SUBSET_ORBIT_BUDGET", 10)
        orbits.cache_clear()
        try:
            out = solve(P, 4, Objective.MU2, SearchConfig(
                node_limit=590, seed_fixtures=False,
                use_structural_bounds=False))
        finally:
            orbits.cache_clear()
        # the split spends 15 + 78 + 488 = 581 nodes, and the plain run
        # would close the cell at 600
        assert (out.lo, out.hi, out.closed_by, out.nodes_visited) == (
            6, 8, "budget", 590)
        assert [e.payload["k"] for e in out.evidence] == [10, 9]
        assert analyze(P, out.witness).f == 6

    def test_middle_t_budget_run_reports_bounds(self, P):
        cfg = SearchConfig(node_limit=50, seed_fixtures=False)
        out = solve(P, 12, Objective.MU2, cfg)
        assert out.status is SolveStatus.BOUNDS_ONLY
        assert out.closed_by == "budget"
        assert out.value is None
        # both 8-sets are span-refuted at 0 nodes (caps 9 and 10, below
        # t = 12), so the budget runs out on the 7-sets
        assert out.lo <= out.hi == 7
        assert out.nodes_visited <= 50

    def test_budget_witness_attains_the_lower_bound(self, P):
        # unseeded, the incumbent is the first coloring found; the cell
        # closes at 1,953 nodes, so this budget stops it while deciding
        # f >= 8
        cfg = SearchConfig(node_limit=1_000, seed_fixtures=False)
        out = solve(P, 9, Objective.MU2, cfg)
        assert out.status is SolveStatus.BOUNDS_ONLY
        assert out.witness is not None
        assert analyze(P, out.witness).f == out.lo

    def test_budget_witness_attains_the_upper_bound(self):
        # a mu1 witness certifies hi, and a budget stop leaves lo below it
        g = complete(6)
        out = solve(g, 9, Objective.MU1, SearchConfig(node_limit=20))
        assert (out.lo, out.hi, out.closed_by) == (0, 2, "budget")
        assert analyze(g, out.witness).f == out.witness_f == out.hi
        assert out.to_dict(g)["witness_f"] == out.hi

    def test_minimum_zero_short_circuits(self, P):
        # f >= 0 always, so the first witness with f=0 ends a mu1 search
        out = solve(P, 9, Objective.MU1, SearchConfig(seed_fixtures=False))
        assert (out.value, out.closed_by) == (0, "bound-met")
        assert out.nodes_visited < 10_000


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"node_limit": 0},
        {"node_limit": -1}, {"time_limit_ms": 0},
        # a budget that is not an int never bounds: nan < 1 is False
        *({field: bad} for field in ("node_limit", "time_limit_ms")
          for bad in (float("nan"), 2.5, True)),
        # a switch that is not a bool would read as its truth value
        *({field: bad} for field in ("use_reflection_symmetry",
                                     "seed_fixtures", "use_structural_bounds")
          for bad in ("no", None, 0))])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_symmetry_on_and_off_agree(self, P):
        for g, t in [(cycle(5), 4), (complete(4), 5), (P, 4)]:
            for obj in Objective:
                on = solve(g, t, obj, SearchConfig(
                    seed_fixtures=False, use_structural_bounds=False))
                off = solve(g, t, obj, SearchConfig(
                    seed_fixtures=False, use_structural_bounds=False,
                    use_reflection_symmetry=False))
                assert on.value == off.value
                assert on.nodes_visited <= off.nodes_visited
        # at the profile budget, the split without symmetry, every k-set
        # its own representative, closes every cell of P - x1 and GP(5,1)
        # at the value found with symmetry
        for g in (delete_vertex(P, "x1"), generalized_petersen(5, 1)):
            on = profile(g)
            off = profile(g, SearchConfig(node_limit=PROFILE_NODE_LIMIT,
                                          use_reflection_symmetry=False))
            cells = [(o.lo, o.hi) for r in off.rows for o in (r.mu1, r.mu2)]
            assert cells == [(o.value, o.value)
                             for r in on.rows for o in (r.mu1, r.mu2)]

    @pytest.mark.parametrize("reflect", [True, False],
                             ids=["reflection", "no-reflection"])
    def test_bare_search_matches_enumeration(self, reflect):
        # no catalog seeds and no structural bounds, so the kernel alone
        # decides every cell
        cfg = SearchConfig(seed_fixtures=False, use_structural_bounds=False,
                           use_reflection_symmetry=reflect)
        mismatches = []
        for g in ORACLE_CORPUS:
            for t in legal_t_range(g):
                o1 = solve(g, t, Objective.MU1, cfg)
                o2 = solve(g, t, Objective.MU2, cfg)
                if not (o1.is_exact and o2.is_exact
                        and (o1.value, o2.value) == naive_mu(g, t)):
                    mismatches.append(f"{g.name} t={t}")
        assert mismatches == []

    def test_req_search_matches_enumeration(self):
        # a req=S search finds a coloring exactly when some valid coloring
        # makes every vertex of S interval, and the one it finds does. Many
        # of these runs have a floor of their symmetry chain that may cut
        # colors (``chained``)
        mismatches, fired = [], 0
        for g in ORACLE_CORPUS:
            for t in legal_t_range(g):
                sets = naive_interval_sets(g, t)
                for s in range(1, 1 << g.n):
                    fired += chained(g, t, s)
                    colors = _search(g, t, req=s)[1]
                    want = set(set_labels(g, s))
                    if colors is None:
                        ok = not any(want <= found for found in sets)
                    else:
                        c = EdgeColoring(t=t, colors=tuple(colors))
                        ok = (naive_valid(g, c)
                              and want <= naive_interval_labels(g, c))
                    if not ok:
                        mismatches.append(f"{g.name} t={t} S={sorted(want)}")
        assert mismatches == []
        assert fired > 0

    def test_kernel_edge_orders_agree(self):
        # the default most-constrained order, the declared order and a
        # seeded shuffle walk different trees to the enumerated optimum
        rng = random.Random(0)
        mismatches = []
        for g in ORACLE_CORPUS + [cycle(6), complete(4)]:
            shuffled = list(range(g.m))
            rng.shuffle(shuffled)
            for t in legal_t_range(g):
                for mu2 in (False, True):
                    # the score: f for mu2, n - f for mu1
                    got = [_search(g, t, mu2, -1, g.n, order=order)[0]
                           for order in (None, range(g.m), shuffled)]
                    f = naive_mu(g, t)[mu2]
                    if got != [f if mu2 else g.n - f] * 3:
                        mismatches.append(f"{g.name} t={t} {mu2}: {got}")
        assert mismatches == []

    def test_kernel_entering_incumbents(self):
        # an optimizing run that enters with the optimal score keeps it and
        # finds no witness; one that enters a score below it finds the
        # optimum and its witness. The goal n + 1 is out of reach, so both
        # runs end "exhausted"
        runs, mismatches = 0, []
        for g in ORACLE_CORPUS:
            for t in legal_t_range(g):
                for mu2 in (False, True):
                    f = naive_mu(g, t)[mu2]
                    score = f if mu2 else g.n - f
                    for best in (score, score - 1):
                        runs += 1
                        got, colors, _, tag = _search(g, t, mu2, best,
                                                      g.n + 1)
                        found = (None if colors is None else analyze(
                            g, EdgeColoring(t=t, colors=tuple(colors))).f)
                        want = None if best == score else f
                        if (got, found, tag) != (score, want, "exhausted"):
                            mismatches.append(f"{g.name} t={t} {mu2} {best}")
        assert (runs, mismatches) == (364, [])

    def test_time_limit_stops_a_deep_search(self, P, monkeypatch):
        # solve reads the clock for its deadline, and each run before it
        # starts; the deadline passes after the 15-node first-solution run,
        # so the interval-set split stops before its first representative
        expire_clock_after(monkeypatch, 2)
        cfg = SearchConfig(time_limit_ms=30, seed_fixtures=False)
        out = solve(P, 10, Objective.MU2, cfg)
        assert out.status is SolveStatus.BOUNDS_ONLY
        assert (out.closed_by, out.nodes_visited, out.hi) == ("budget", 15, 8)

    @pytest.mark.parametrize("symmetry, reads, nodes", [
        # at t=12 the split span-refutes every 8-set, so its first run is
        # a 7-set's, of 2,178 nodes with symmetry on
        (True, 3, 15 + 2_048),  # inside the first req run of the split
        (False, 2, 15),  # after the split's first-solution run
        (True, 1, 0),  # no run starts after the deadline
        (False, 1, 0),
    ])
    def test_time_limit_stops_the_kernel(self, P, monkeypatch, symmetry,
                                         reads, nodes):
        # one read for the deadline, one before each run, and one every
        # 2,048 nodes inside a run
        expire_clock_after(monkeypatch, reads)
        cfg = SearchConfig(time_limit_ms=30, seed_fixtures=False,
                           use_reflection_symmetry=symmetry)
        out = solve(P, 12, Objective.MU2, cfg)
        assert out.status is SolveStatus.BOUNDS_ONLY
        assert (out.closed_by, out.nodes_visited) == ("budget", nodes)

    def test_deadline_read_mid_run_does_not_stop_it(self, P, monkeypatch):
        # a clock that never passes the deadline: read for the deadline,
        # before the one run, and at nodes 2,048, 4,096, ..., 24,576. With
        # symmetry on, this cell's run ends at 1,910 nodes, before the
        # first read inside it, so it runs with symmetry off
        clock = expire_clock_after(monkeypatch, float("inf"))
        cfg = SearchConfig(time_limit_ms=30, seed_fixtures=False,
                           use_structural_bounds=False,
                           use_reflection_symmetry=False)
        out = solve(P, 4, Objective.MU1, cfg)
        assert clock.count == 14
        assert (out.nodes_visited, out.value, out.closed_by) == (
            26_273, 2, "exhausted")
        assert out == solve(P, 4, Objective.MU1, cfg.replace(time_limit_ms=None))


@pytest.fixture(scope="module")
def petersen_profile():
    return profile(petersen())


class TestProfile:
    def test_aggregates_reproduce_the_four_extremes(self, petersen_profile):
        prof = petersen_profile
        assert (prof.mu11.value, prof.mu11.is_exact) == (0, True)
        assert (prof.mu12.value, prof.mu12.is_exact) == (2, True)
        assert (prof.mu21.value, prof.mu21.is_exact) == (6, True)
        assert (prof.mu22.value, prof.mu22.is_exact) == (8, True)

    def test_minimum_row(self, petersen_profile):
        for row in petersen_profile.rows:
            assert row.mu1.is_exact
            assert row.mu1.value == (2 if row.t == 4 else 0)

    def test_maximum_row_endpoints_are_exact(self, petersen_profile):
        prof = petersen_profile
        assert prof.row(4).mu2.value == 8
        assert prof.row(15).mu2.value == 6

    def test_maximum_row_lower_bounds(self, petersen_profile):
        for row in petersen_profile.rows:
            if 5 <= row.t <= 7:
                assert row.mu2.lo >= 7
            if 8 <= row.t <= 14:
                assert row.mu2.lo >= 6
            assert row.mu2.hi <= 8 or row.t == 4

    def test_interval_set_split_closes_the_middle_rows(self, petersen_profile):
        prof = petersen_profile
        assert sum(r.mu1.is_exact + r.mu2.is_exact for r in prof.rows) == 24
        closed = {t: (prof.row(t).mu2.value, prof.row(t).mu2.closed_by)
                  for t in range(9, 15)}
        # at t = 9 the witness carried from t = 8 meets the cap 8, and at
        # t = 13 and 14 every 8-set and 7-set is span-refuted, so no run
        # reaches the kernel
        assert closed == {9: (8, "bounds-closed"), 10: (7, "exhausted"),
                          11: (7, "exhausted"), 12: (6, "exhausted"),
                          13: (6, "bounds-closed"), 14: (6, "bounds-closed")}
        for row in prof.rows:
            out = row.mu2
            assert out.witness is not None and analyze(
                prof.graph, out.witness).f == out.lo
            refuted = [e.value for e in out.evidence
                       if e.kind is EvidenceKind.INTERVAL_SET_ORBITS]
            # the split refutes a cell's top k only from t=10 on; every
            # refuted k leaves a record, the last one at hi
            assert bool(refuted) == (row.t in range(10, 15))
            if refuted:
                assert refuted[-1] == out.hi

    def test_every_exact_cell_has_a_witness(self, petersen_profile):
        # off the catalog graph every witness comes from a search
        others = [complete(4), cycle(5), cycle(6)] + [g for g, _ in FAMILIES]
        missing = []
        for prof in [petersen_profile] + [profile(g) for g in others]:
            for row in prof.rows:
                for out in (row.mu1, row.mu2):
                    if out.is_exact and not (
                            out.witness is not None
                            and naive_valid(prof.graph, out.witness)
                            and naive_f(prof.graph, out.witness) == out.value):
                        missing.append(f"{prof.graph.name} t={row.t} "
                                       f"{out.objective.value}")
        assert missing == []

    def test_rows_keep_objectives_ordered(self, petersen_profile):
        for row in petersen_profile.rows:
            assert row.mu1.lo <= row.mu2.hi
            if row.mu1.is_exact and row.mu2.is_exact:
                assert row.mu1.value <= row.mu2.value

    def test_aggregates_stay_exact_under_a_tiny_budget(self, P):
        prof = profile(P, SearchConfig(node_limit=1000))
        assert [a.value for a in (prof.mu11, prof.mu12, prof.mu21, prof.mu22)] \
            == [0, 2, 6, 8]
        assert any(not r.mu2.is_exact for r in prof.rows)

    def test_small_cycle_profile_matches_enumeration(self):
        prof = profile(cycle(4))
        values = {r.t: (r.mu1.value, r.mu2.value) for r in prof.rows}
        assert values == {2: (4, 4), 3: (2, 4), 4: (1, 3)}
        assert (prof.mu11.value, prof.mu12.value,
                prof.mu21.value, prof.mu22.value) == (1, 4, 3, 4)

    def test_node_total_is_pinned(self, petersen_profile):
        # mu2 only, per cell, so a regression names its t. The span rule
        # refutes the 8-set with span cap 9 from t=10 and the one with
        # cap 10 (the edge y3-y5 lies outside it) from t=11, both at 0
        # nodes. From t=11 the split then tries the 7-sets most slack
        # first: {x1,x2,x3,x4,y1,y4,y5}, with 6 edges inside and the
        # largest cap, 12, is made interval at once at t=11 and refuted at
        # t=12. At t=13 and 14 every 7-set is span-refuted too. The
        # witness carried up from the row below meets the cap 8 at t=5, 6,
        # 8 and 9, and enters t=10 at f=7, which leaves only the 8-sets to
        # refute there
        assert [r.mu1.nodes_visited for r in petersen_profile.rows] == [0] * 12
        assert [r.mu2.nodes_visited for r in petersen_profile.rows] == [
            0, 0, 0, 569, 0, 0, 1_696, 401, 2_178, 0, 0, 0]
        assert sum(r.mu1.nodes_visited + r.mu2.nodes_visited
                   for r in petersen_profile.rows) == 4_844

    def test_memos_live_in_module_caches_only(self, P):
        # a repetition that starts from cleared module-level lru_caches
        # sees what a fresh process sees only if no memo rides on the
        # Graph object or in a module dict: a graph that profile has run
        # on keeps its seven cached properties and nothing else, and a
        # rerun from cleared caches gives the same profile at the same
        # node total. The catalog's petersen() keeps its graph, which the
        # session fixture P holds and later tests compare against
        def clear_caches() -> int:
            cleared = 0
            for name, module in list(sys.modules.items()):
                if name == "mu_spectra" or name.startswith("mu_spectra."):
                    for obj in vars(module).values():
                        if (hasattr(obj, "cache_clear") and obj is not petersen
                                and obj.__module__.startswith("mu_spectra")):
                            obj.cache_clear()
                            cleared += 1
            return cleared

        assert clear_caches() >= 10
        g = Graph.from_labels(P.name, P.vertices, P.edge_labels)  # a new Graph
        first = profile(g)
        assert set(vars(g)) <= {"index", "adjacency", "incident", "neighbors",
                                "degrees", "edge_labels", "edge_keys"}
        clear_caches()
        again = profile(g)
        assert again.to_dict() == first.to_dict()
        assert sum(r.mu1.nodes_visited + r.mu2.nodes_visited
                   for r in again.rows) == 4_844

    @pytest.mark.parametrize("g, nodes", [
        (hypercube(3), 281),
        (complete_bipartite(3, 4), 3_720),
    ], ids=["Q3", "K3,4"])
    def test_family_node_totals_are_pinned(self, g, nodes):
        # the split's span rule refutes sets at 0 nodes, also where an
        # edge lies outside the set
        assert sum(r.mu1.nodes_visited + r.mu2.nodes_visited
                   for r in profile(g).rows) == nodes

    @pytest.mark.parametrize("g, cfg, nodes, exact", [
        (delete_vertex(petersen(), "x1"), SearchConfig(node_limit=20_000),
         4_045, 18),
        (complete_bipartite(4, 4), SearchConfig(node_limit=20_000),
         37_279, 26),
        (delete_vertex(petersen(), "x1"), BARE.replace(node_limit=20_000),
         13_715, 18),
        (complete_bipartite(4, 4), BARE.replace(node_limit=20_000),
         89_726, 25),
    ], ids=["Px1", "K4,4", "Px1-bare", "K4,4-bare"])
    def test_frontier_node_totals_are_pinned(self, g, cfg, nodes, exact):
        # the mu2 cells of both graphs go to the split, P - x1's under its
        # group of order 12 though it is not edge-transitive, K4,4's
        # under the whole group, with 1/1/2/2/3 orbits of 8..4-sets; the
        # mu1 cells are optimizing runs of n - f. The span rule refutes
        # sets of the split at 0 nodes, also where an edge lies outside
        # the set, and so closes more of the cells
        rows = profile(g, cfg).rows
        assert sum(r.mu1.nodes_visited + r.mu2.nodes_visited
                   for r in rows) == nodes
        assert sum(r.mu1.is_exact + r.mu2.is_exact for r in rows) == exact

    @pytest.mark.parametrize("g, t, value, nodes", [
        (HEAWOOD, 7, 13, 2_996),
        (complete_bipartite(4, 4), 9, 6, 9_256),
        (complete_bipartite(4, 4), 10, 5, 21_649),
        (HEAWOOD, 13, 10, 185_594),
        (delete_vertex(petersen(), "x1"), 9, 7, 882),
        (delete_vertex(petersen(), "x1"), 10, 6, 458),
        (delete_vertex(petersen(), "x1"), 11, 6, 24),
    ], ids=["heawood-t7", "K4,4-t9", "K4,4-t10", "heawood-t13",
            "Px1-t9", "Px1-t10", "Px1-t11"])
    def test_frontier_cells_close_at_the_profile_budget(self, g, t, value,
                                                        nodes):
        # Heawood t=7, K4,4 t=9 and P - x1 t=9..11 were cross-checked with
        # symmetry off. The kernel without the symmetry chain's deeper
        # levels (only the orbit floor at the first edge) finds K4,4 t=10
        # and Heawood t=13 as well, but only past this budget: with no
        # node limit, in 297,468 and 206,905 nodes. The split closes each
        # cell inside one profile cell's budget, P - x1's too, though that
        # graph is not edge-transitive, each with a witness checked from
        # the definition
        out = solve(g, t, Objective.MU2,
                    SearchConfig(node_limit=PROFILE_NODE_LIMIT))
        assert (out.lo, out.hi, out.nodes_visited) == (value, value, nodes)
        assert naive_valid(g, out.witness)
        assert naive_f(g, out.witness) == value

    def test_frontier_cell_closes_past_the_profile_budget(self):
        # mu2(GP(8,3),8) = 15: the 16-set is refuted in 46,978 nodes and
        # the one 15-set orbit made interval in 168,820, 215,822 nodes in
        # all with the first solution, so the profile budget leaves the
        # cell at [11, 15]. Without the chain's deeper levels it takes
        # 261,189 nodes
        g = generalized_petersen(8, 3)
        cut = solve(g, 8, Objective.MU2,
                    SearchConfig(node_limit=PROFILE_NODE_LIMIT))
        assert (cut.lo, cut.hi, cut.closed_by) == (11, 15, "budget")
        out = solve(g, 8, Objective.MU2, SearchConfig(node_limit=250_000))
        assert (out.lo, out.hi, out.nodes_visited) == (15, 15, 215_822)
        assert naive_valid(g, out.witness)
        assert naive_f(g, out.witness) == 15

    def test_frontier_profile_is_pinned(self):
        # K4,4's whole profile, witnesses, span caps and evidence with it,
        # not only its node total
        doc = profile(complete_bipartite(4, 4),
                      SearchConfig(node_limit=20_000)).to_dict()
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                              ).hexdigest() == (
            "150efce76d564f5c25bcd79f1db5c55a8afb364e3f5e90e2cb46b7beb452cc2a")

    @pytest.mark.parametrize("cfg", [
        SearchConfig(node_limit=PROFILE_NODE_LIMIT),
        SearchConfig(node_limit=1_000),
        SearchConfig(node_limit=50, seed_fixtures=False,
                     use_structural_bounds=False),
        SearchConfig(node_limit=500, use_reflection_symmetry=False),
    ], ids=["default", "1000-nodes", "bare-50-nodes", "no-symmetry-500-nodes"])
    def test_closed_by_is_read_off_the_bounds(self, cfg):
        # budget exactly while the cell is open, bounds-closed exactly when
        # no node was spent
        graphs = ([petersen(), complete(5), complete(6), cycle(6)]
                  + [random_connected_graph(seed) for seed in range(30)])
        wrong = []
        for g in graphs:
            for row in profile(g, cfg).rows:
                for out in (row.mu1, row.mu2):
                    if ((out.closed_by == "budget") != (out.lo < out.hi)
                            or (out.closed_by == "bounds-closed")
                            != (out.nodes_visited == 0)):
                        wrong.append(f"{g.name} t={row.t} "
                                     f"{out.objective.value}: {out.closed_by}")
        assert wrong == []

    def test_refuted_rows_replay(self, petersen_profile):
        prof = petersen_profile
        replayed = {t: replay_orbit_evidence(prof.graph, prof.row(t).mu2)
                    for t in range(10, 15)}
        assert replayed == {10: [(8, 2)], 11: [(8, 2)],
                            12: [(8, 2), (7, 4)], 13: [(8, 2), (7, 4)],
                            14: [(8, 2), (7, 4)]}

    def test_headline_follows_from_search_alone(self, petersen_profile):
        # no catalog coloring and no structural bound: every cell comes out
        # the same from search, each witness checked from the definition
        bare = profile(petersen(), SearchConfig(
            node_limit=PROFILE_NODE_LIMIT, seed_fixtures=False,
            use_structural_bounds=False))
        def cells(prof):
            return [(o.lo, o.hi, o.status)
                    for r in prof.rows for o in (r.mu1, r.mu2)]

        assert cells(bare) == cells(petersen_profile)
        for r in bare.rows:
            for out in (r.mu1, r.mu2):
                attained = out.lo if out.objective is Objective.MU2 else out.hi
                assert naive_valid(bare.graph, out.witness)
                assert naive_f(bare.graph, out.witness) == attained
        assert sum(r.mu1.nodes_visited + r.mu2.nodes_visited
                   for r in bare.rows) == 49_557

    def test_theorem_family_records_replay(self):
        # every interval-set-orbits record of these cells replays: each
        # run spends its recorded nodes, and each span cap recomputes. Bare
        # GP(8,3) at t=24, 20,000 nodes per cell, runs all ten 13-sets
        cells = [(g, t, BARE) for g, _ in FAMILIES for t in legal_t_range(g)]
        gp = generalized_petersen(8, 3)
        cells += [(gp, t, BARE.replace(node_limit=20_000))
                  for t in legal_t_range(gp)]
        replayed = {(g.name, t): replay_orbit_evidence(
            g, solve(g, t, Objective.MU2, cfg)) for g, t, cfg in cells}
        assert sum(map(len, replayed.values())) == 74
        assert replayed["GP(8,3)", 24] == [(16, 1), (15, 1), (14, 5), (13, 10)]

    def test_bare_generalized_petersen_top_cells_are_pinned(self):
        # bare mu2(GP(8,3), t) = 11 at t = 22..24, refuted from the trivial
        # cap 16 down to 12 by runs alone: with no structural bound there is
        # no span rule, and every representative of every k is searched
        g = generalized_petersen(8, 3)
        got = [solve(g, t, Objective.MU2, BARE) for t in (22, 23, 24)]
        assert [(o.value, o.nodes_visited, o.closed_by) for o in got] == [
            (11, 391_864, "exhausted"), (11, 140_350, "exhausted"),
            (11, 31_015, "exhausted")]

    @pytest.mark.parametrize("cfg", [BARE, SearchConfig()],
                             ids=["bare", "default"])
    def test_split_tries_each_representative_once_most_slack_first(self, cfg):
        # every refuted k lists each representative of its orbit table
        # exactly once, ordered by (edges inside the set, ascending; span
        # cap, descending; table position)
        def key(g, table, s):
            return inside_edges(g, s), -span_cap(g, s), table.index(s)

        records, reordered, wrong = 0, 0, []
        for g in ORACLE_CORPUS + [g for g, _ in FAMILIES]:
            for t in legal_t_range(g):
                out = solve(g, t, Objective.MU2, cfg)
                for e in out.evidence:
                    if e.kind is not EvidenceKind.INTERVAL_SET_ORBITS:
                        continue
                    records += 1
                    k = e.payload["k"]
                    table = representatives(_subset_orbits(
                        g, k, cfg.use_reflection_symmetry))
                    want = sorted(table, key=lambda s: key(g, table, s))
                    got = [vertex_set(g, labels)
                           for labels in e.payload["representatives"]]
                    reordered += want != list(table)
                    if got != want or len(e.payload["nodes"]) != len(want):
                        wrong.append(f"{g.name} t={t} k={k}")
        assert (records > 0, reordered > 0, wrong) == (True, True, [])

    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["symmetric", "every-set"])
    def test_lazy_slack_order_is_the_eager_sort(self, P, symmetric):
        for g in (P, delete_vertex(P, "x1"), complete_bipartite(4, 4),
                  generalized_petersen(5, 1)):
            for k in range(1, g.n + 1):
                reps = list(representatives(_subset_orbits(g, k, symmetric)))
                want = sorted(reps, key=lambda s: (inside_edges(g, s),
                                                   -span_cap(g, s)))
                assert list(search_module._slack_order(g, reps)) == want, (
                    f"{g.name} k={k}")

    def test_cell_closed_by_its_first_set_asks_only_that_sets_group(
            self, P, monkeypatch):
        # Petersen with symmetry off at t=5: the first 8-set tried is interval,
        # so only the 8-sets with the fewest inside edges (the two vertices
        # left out are not adjacent) have their span caps computed, and the
        # first one's cap is read once more by the span rule
        asked = []
        monkeypatch.setattr(search_module, "span_cap",
                            lambda g, s: asked.append(s) or span_cap(g, s))
        out = solve(P, 5, Objective.MU2,
                    SearchConfig(use_reflection_symmetry=False))
        eights = representatives(_subset_orbits(P, 8, False))
        fewest = min(inside_edges(P, s) for s in eights)
        first = [s for s in eights if inside_edges(P, s) == fewest]
        assert (out.value, out.closed_by) == (8, "bound-met")
        assert len(asked) == len(first) + 1 == 31 < len(eights) + 1

    def test_row_lookup(self, petersen_profile):
        assert petersen_profile.row(4).t == 4
        with pytest.raises(KeyError):
            petersen_profile.row(3)

    def test_serialization_shape(self, petersen_profile):
        doc = petersen_profile.to_dict()
        assert doc["graph"] == "petersen"
        assert doc["t_range"] == [4, 15]
        assert len(doc["rows"]) == 12
        assert set(doc["aggregates"]) == {"mu11", "mu12", "mu21", "mu22"}


#: The graphs the carry move is checked on, built on use: the bridge
#: graph lives in test_structural, which imports this module.
CARRY_GRAPHS = {
    "petersen": petersen,
    "K4,4": lambda: complete_bipartite(4, 4),
    "GP(5,1)": lambda: generalized_petersen(5, 1),
    "P-x1": lambda: delete_vertex(petersen(), "x1"),
    "C5": lambda: cycle(5),
    "K5": lambda: complete(5),
    "bridge": lambda: importlib.import_module("test_structural").bridge_cubic(),
}


class TestCarry:
    """``profile`` carries each row's witness up one t: ``_carry_up``'s
    best one-move image enters the next row's solve as its incumbent."""

    @pytest.mark.parametrize("name", list(CARRY_GRAPHS))
    def test_move_is_the_first_best_image(self, name):
        # against every (e, p) image built and scored from the definition:
        # the move is valid at t+1, its f is the best there is, ties go to
        # the first image in the order tried, a goal stops the walk at the
        # first image that reaches it, and there is no move exactly when
        # every color class is one edge (at t = m)
        g = CARRY_GRAPHS[name]()
        checked = 0
        for t in legal_t_range(g):
            for c in sample(g, t, seed=t, count=2):
                images = naive_carry_up(g, c)
                singles = len(set(c.colors)) == g.m
                assert (images == []) is singles is (t == g.m)
                for mu2 in (True, False):
                    def score(f):
                        return f if mu2 else g.n - f

                    moved = _carry_up(g, c, mu2, g.n)
                    if singles:
                        assert moved is None
                        continue
                    image, e, p = moved
                    assert image.t == t + 1 and naive_valid(g, image)
                    top = max(score(f) for f, *_ in images)
                    assert score(naive_f(g, image)) == top
                    assert next((e2, p2, im) for f, e2, p2, im in images
                                if score(f) == top) == (e, p, image)
                    _, *first = _carry_up(g, c, mu2, top - 1)
                    assert next([e2, p2] for f, e2, p2, _ in images
                                if score(f) >= top - 1) == first
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("g, cfg", [
        (petersen(), SearchConfig(node_limit=PROFILE_NODE_LIMIT)),
        (petersen(), BARE.replace(node_limit=20_000)),
        (complete_bipartite(4, 4), SearchConfig(node_limit=20_000)),
        (delete_vertex(petersen(), "x1"), SearchConfig(node_limit=20_000)),
        (generalized_petersen(5, 1), SearchConfig(node_limit=20_000)),
    ], ids=["P", "P-bare", "K4,4", "Px1", "GP(5,1)"])
    def test_carry_never_loosens_a_cell(self, g, cfg):
        # each profile row lies inside the standalone solve of its cell,
        # and each witness attains its bound, checked from the definition
        wrong = []
        for row in profile(g, cfg).rows:
            for out in (row.mu1, row.mu2):
                alone = solve(g, row.t, out.objective, cfg)
                if not alone.lo <= out.lo <= out.hi <= alone.hi:
                    wrong.append(f"t={row.t} {out.objective.value}: "
                                 f"[{out.lo}, {out.hi}] against "
                                 f"[{alone.lo}, {alone.hi}]")
                if out.witness is not None and not (
                        naive_valid(g, out.witness)
                        and naive_f(g, out.witness) == out.witness_f):
                    wrong.append(f"t={row.t} {out.objective.value}: witness")
        assert wrong == []

    @pytest.mark.parametrize("g, mu21, mu22, open_cells", [
        (generalized_petersen(5, 1), 6, 10, 0),
        (generalized_petersen(8, 3), 11, 16, 7),
        (delete_vertex(petersen(), "x1"), 6, 8, 0),
        (generalized_petersen(8, 1), 11, 16, 2),
    ], ids=["GP(5,1)", "GP(8,3)", "P-x1", "GP(8,1)"])
    def test_carry_closes_frontier_aggregates(self, g, mu21, mu22, open_cells):
        # at the default budget, with the carry and the split on every
        # graph: solved row by row from nothing, GP(5,1)'s and GP(8,3)'s
        # mu21 stay at [5, 6] and [9, 11]; without the split on graphs
        # that are not edge-transitive, P - x1 and GP(5,1) keep open
        # cells and GP(8,1)'s mu21 stays at [8, 11]
        prof = profile(g)
        assert [(a.lo, a.hi) for a in (prof.mu21, prof.mu22)] == [
            (mu21, mu21), (mu22, mu22)]
        assert sum(not o.is_exact for r in prof.rows
                   for o in (r.mu1, r.mu2)) == open_cells

    def test_carried_witness_names_its_move(self, P, petersen_profile):
        # mu2(P,9) closes on the witness carried from t=8 at the cap 8,
        # with no search; the evidence names the move and the witness
        # shows it. Every certificate entry lies on its side of its cell
        out = petersen_profile.row(9).mu2
        assert (out.value, out.nodes_visited, out.closed_by) == (
            8, 0, "bounds-closed")
        (carried,) = [e for e in out.evidence if "carried" in e.detail]
        assert (carried.kind, carried.value, carried.detail) == (
            EvidenceKind.CERTIFICATE_LOWER_BOUND, 8,
            "coloring carried from t=8 achieves f=8 at t=9: "
            "edge y2-y4 takes color 1")
        assert out.witness.colors[P.edge_keys["y2-y4"]] == 1
        for row in petersen_profile.rows:
            for o in (row.mu1, row.mu2):
                for e in o.evidence:
                    if e.kind is EvidenceKind.CERTIFICATE_LOWER_BOUND:
                        assert o.objective is Objective.MU2 and e.value <= o.lo
                    if e.kind is EvidenceKind.CERTIFICATE_UPPER_BOUND:
                        assert o.objective is Objective.MU1 and e.value >= o.hi

    def test_carry_must_be_a_valid_coloring_one_t_below(self, P):
        (c,) = sample(P, 8)
        with pytest.raises(ValueError, match="carry must be a 9-coloring"):
            solve(P, 10, Objective.MU2, carry=c)
        bad = EdgeColoring(t=8, colors=(1,) * P.m)
        with pytest.raises(InvalidColoringError, match="share color 1"):
            solve(P, 9, Objective.MU2, BARE, carry=bad)


class TestSample:
    def test_deterministic_per_seed(self, P):
        a = sample(P, 7, seed=123, count=5)
        b = sample(P, 7, seed=123, count=5)
        assert a == b

    def test_fresh_interpreter_draws_the_same(self, P, fresh):
        # sample imports random itself: with nothing loaded before it, the
        # seeded stream is the same
        proc = fresh("from mu_spectra import petersen, sample\n"
                     "print(repr(sample(petersen(), 7, seed=123, count=5)))")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.strip() == repr(sample(P, 7, seed=123, count=5))

    def test_different_seeds_differ(self, P):
        assert sample(P, 6, seed=0, count=3) != sample(P, 6, seed=1, count=3)

    def test_samples_are_valid_and_counted(self, P):
        out = sample(P, 11, seed=9, count=20)
        assert len(out) == 20
        assert all(is_valid(P, c) for c in out)

    def test_extreme_color_counts(self, P):
        for t in (4, 15):
            (c,) = sample(P, t, seed=5, count=1)
            assert is_valid(P, c)

    def test_stream_is_pinned(self, P):
        # every draw of two per seed 0-2 at every legal t of three graphs,
        # hashed; the digest was taken before the window mask entered the
        # kernel loop that sample shares
        h = hashlib.sha256()
        for g in (P, complete(5), cycle(7)):
            for t in legal_t_range(g):
                for seed in range(3):
                    for c in sample(g, t, seed=seed, count=2):
                        h.update(f"{g.name}:{t}:{seed}:{c.colors}\n".encode())
        assert h.hexdigest() == (
            "acb016ccf3a33bb971f4842d4a15779c31d6f8a384444970ce3b1858d53273cb")

    def test_seed_7_draws_are_pinned(self, P):
        # two draws at every legal t, run by the kernel's decision loop
        draws = [sample(P, t, seed=7, count=2) for t in legal_t_range(P)]
        assert hashlib.sha256(repr(draws).encode()).hexdigest().startswith(
            "8b84f77bae02cf55")

    def test_single_edge_graph(self):
        g = path(2)
        assert sample(g, 1, seed=0, count=2) == [
            c for c in sample(g, 1, seed=0, count=2)]

    def test_illegal_t_rejected(self, P):
        with pytest.raises(GraphError):
            sample(P, 3, seed=0, count=1)

    def test_deterministic_fallback_after_capped_attempts(self, P, monkeypatch):
        kernel = search_module._search
        attempts = []

        def capped(g, t, *args, rng=None, **kwargs):
            if rng is not None:  # a randomized attempt: out of budget at once
                attempts.append(t)
                return -1, None, 1, "budget"
            return kernel(g, t, *args, **kwargs)

        monkeypatch.setattr(search_module, "_search", capped)
        out = sample(P, 9, seed=3, count=2)
        assert attempts == [9] * 64
        assert all(naive_valid(P, c) for c in out)
        assert out[0] == out[1]
