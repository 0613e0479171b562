"""Independent reference implementations for cross-checking.

Everything here recomputes from definitions with deliberately different
code paths than the package: full product enumeration instead of search,
sorted-list interval checks instead of bitmasks, edge-list scans instead
of neighbor masks.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from mu_spectra import (BoundEvidence, EdgeColoring, EvidenceKind, Graph,
                        GraphError, chromatic_index, complete, cycle,
                        delete_vertex, full_set, path)
from mu_spectra import graphs as graphs_module
from mu_spectra.graphs import _generators, _subsets
from mu_spectra.structural import _require_cubic_class_two


def naive_valid(g: Graph, c: EdgeColoring) -> bool:
    """Definition check: proper at every vertex, every color in [1,t] used.

    A color that is not a number is no color; 2.0 and True read as 2 and 1.
    """
    if len(c.colors) != g.m:
        return False
    if any(not isinstance(col, (int, float)) or not 1 <= col <= c.t
           for col in c.colors):
        return False
    incident: dict[str, list[int]] = {label: [] for label in g.vertices}
    for (a, b), col in zip(g.edge_labels, c.colors):
        incident[a].append(col)
        incident[b].append(col)
    for cols in incident.values():
        if len(set(cols)) != len(cols):
            return False
    used = set(c.colors)  # sizes first: t may be far too large to list
    return len(used) == c.t and used == set(range(1, c.t + 1))


def naive_interval_labels(g: Graph, c: EdgeColoring) -> set[str]:
    """Labels of the interval vertices, straight from the definition.

    Colors are compared as numbers, so 2.0 and True read as 2 and 1.
    """
    incident: dict[str, list[int]] = {label: [] for label in g.vertices}
    for (a, b), col in zip(g.edge_labels, c.colors):
        incident[a].append(col)
        incident[b].append(col)
    out = set()
    for label, cols in incident.items():
        distinct = sorted(set(cols))
        if distinct[-1] - distinct[0] == len(distinct) - 1:
            out.add(label)
    return out


def naive_f(g: Graph, c: EdgeColoring) -> int:
    """Interval-vertex count straight from the definition."""
    return len(naive_interval_labels(g, c))


def naive_edge_key(g: Graph, key: str) -> set[int]:
    """Indices of the edges that ``key`` spells as "a-b" in either order,
    by cutting the key at each of its dashes."""
    pairs = {frozenset((key[:i], key[i + 1:]))
             for i, ch in enumerate(key) if ch == "-"}
    return {ei for ei, pair in enumerate(g.edge_labels) if frozenset(pair) in pairs}


@lru_cache(maxsize=None)
def naive_interval_sets(g: Graph, t: int) -> frozenset[frozenset[str]]:
    """The interval-vertex label sets of all valid t-colorings of g, by
    enumerating all t^|E| color assignments.

    Cached, since several sweeps enumerate the same small corpus.
    """
    out = set()
    for assign in itertools.product(range(1, t + 1), repeat=g.m):
        if len(set(assign)) != t:
            continue
        c = EdgeColoring(t=t, colors=assign)
        if naive_valid(g, c):
            out.add(frozenset(naive_interval_labels(g, c)))
    return frozenset(out)


def naive_mu(g: Graph, t: int) -> tuple[int, int]:
    """(min f, max f) over the interval sets of ``naive_interval_sets``."""
    sizes = [len(s) for s in naive_interval_sets(g, t)]
    if not sizes:
        raise AssertionError(f"no valid {t}-coloring of {g.name}")
    return min(sizes), max(sizes)


def naive_carry_up(g: Graph, c: EdgeColoring
                   ) -> list[tuple[int, int, int, EdgeColoring]]:
    """Every valid one-move image of c at t = c.t + 1, as (f, e, p, image).

    For every edge e and every color p in 1..t, the image moves each color
    >= p up by one and gives e color p; only the images that ``naive_valid``
    accepts are kept, and each is scored by ``naive_f``. The list runs in
    the order the package tries moves: p = 1, then p = t, then p = 2..t-1,
    each over the edges by index.
    """
    t = c.t + 1
    out = []
    for p in [1, t] + list(range(2, t)):
        for e in range(g.m):
            colors = [col + 1 if col >= p else col for col in c.colors]
            colors[e] = p
            image = EdgeColoring(t=t, colors=tuple(colors))
            if naive_valid(g, image):
                out.append((naive_f(g, image), e, p, image))
    return out


def naive_chromatic_index(g: Graph) -> int:
    """Least t admitting a valid t-coloring, by enumerating every assignment.

    At the least t with a proper coloring in [1,t] that coloring uses every
    color (otherwise relabeling would need fewer), so naive_valid applies.
    """
    t = 1
    while not any(naive_valid(g, EdgeColoring(t=t, colors=assign))
                  for assign in itertools.product(range(1, t + 1), repeat=g.m)):
        t += 1
    return t


def _induced(g: Graph, s) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Edges and degrees of the subgraph induced by the vertex indices s."""
    edges = [(u, v) for u, v in g.edges if u in s and v in s]
    deg = {v: 0 for v in s}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return edges, deg


def _component_count(s, edges) -> int:
    """Components of the graph (s, edges): relabel each edge's ends with
    the lower label until nothing changes, then count labels."""
    label = {v: v for v in s}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    return len(set(label.values()))


def naive_path_forest(g: Graph, s) -> bool:
    """s induces paths only: max degree <= 2 and edges = vertices - components."""
    edges, deg = _induced(g, s)
    return (max(deg.values(), default=0) <= 2
            and len(edges) == len(s) - _component_count(s, edges))


def naive_claw(g: Graph, s) -> bool:
    """Some 4-subset of s induces 3 edges with degrees 1, 1, 1, 3."""
    for quad in itertools.combinations(sorted(s), 4):
        edges, deg = _induced(g, set(quad))
        if len(edges) == 3 and sorted(deg.values()) == [1, 1, 1, 3]:
            return True
    return False


def naive_c6(g: Graph, s) -> bool:
    """Some connected 6-subset of s induces 6 edges, every degree 2."""
    for six in itertools.combinations(sorted(s), 6):
        edges, deg = _induced(g, set(six))
        if (len(edges) == 6 and all(d == 2 for d in deg.values())
                and _component_count(six, edges) == 1):
            return True
    return False


def naive_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation mapping each edge to an edge.

    Tries all n! permutations; meant for graphs with at most 7 vertices.
    """
    edges = {frozenset(e) for e in g.edges}
    return [perm for perm in itertools.permutations(range(g.n))
            if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges)]


def naive_mu22_cap_cubic(g: Graph) -> BoundEvidence:
    """``structural.mu22_cap_cubic`` with no symmetry: every vertex is
    deleted and the chromatic index of each deletion found on its own."""
    _require_cubic_class_two(g)
    problems = []
    deletions: dict[str, int] = {}
    for label in g.vertices:
        try:
            chi = chromatic_index(delete_vertex(g, label))
        except GraphError as exc:
            problems.append(f"cannot check deletion of {label}: {exc}")
            continue
        deletions[label] = chi
        if chi != 4:
            problems.append(
                f"deleting {label} leaves chromatic index {chi}, not 4")
    if problems:
        raise GraphError("; ".join(problems))
    return BoundEvidence(
        kind=EvidenceKind.MOD_REDUCTION,
        value=g.n - 2,
        detail=(f"f = {g.n - 1} would reduce mod 3 to a proper 3-edge-coloring "
                f"of some vertex-deleted subgraph, but all {g.n} deletions "
                f"have chromatic index 4"),
        payload={"deletion_chromatic_indices": deletions},
    )


def naive_edge_transitive(g: Graph) -> bool:
    """Edge-transitivity from the definition: the images of edge 0 under
    every automorphism must be every edge."""
    u0, v0 = g.edges[0]
    images = {frozenset((perm[u0], perm[v0])) for perm in naive_automorphisms(g)}
    return images == {frozenset(e) for e in g.edges}


def naive_subset_orbits(g: Graph, k: int) -> dict[int, int] | None:
    """``graphs._subset_orbits`` as a walk that moves a mask one bit at a
    time: every k-subset mask mapped to the first subset, in combinations
    order, of its orbit under the maps of ``_generators``, in their
    order. None when C(n,k) exceeds the package's
    ``_SUBSET_ORBIT_BUDGET``."""
    if math.comb(g.n, k) > graphs_module._SUBSET_ORBIT_BUDGET:
        return None
    maps = _generators(g)
    rep_of: dict[int, int] = {}
    for rep in _subsets(full_set(g), k):
        if rep in rep_of:
            continue
        rep_of[rep] = rep
        stack = [rep]
        while stack:
            s = stack.pop()
            for img in maps:
                image, rest = 0, s  # s moved by the map img
                while rest:
                    low = rest & -rest
                    image |= 1 << img[low.bit_length() - 1]
                    rest ^= low
                if image not in rep_of:
                    rep_of[image] = rep
                    stack.append(image)
    return rep_of


def floyd_span_cap(g: Graph, s: int) -> int:
    """``structural.span_cap`` from an all-pairs table: Floyd-Warshall
    over G[s] for the least path costs, then every pair of edges touching
    each component."""
    nb, climb, inside = g.neighbors, [d - 1 for d in g.degrees], range(g.n)
    members = [i for i in inside if s >> i & 1]
    # cost[a][b]: the least sum of deg - 1 over a path a..b in G[s], ends
    # included (each vertex counted once where paths meet); inf unless a
    # and b lie in one component of G[s]
    cost = [[math.inf if not (s >> a & 1 and s >> b & 1)
             else climb[a] if a == b
             else climb[a] + climb[b] if nb[a] >> b & 1 else math.inf
             for b in inside] for a in inside]
    for c in members:
        through = cost[c]
        for a in members:
            via = cost[a][c] - climb[c]
            if via < math.inf:
                cost[a] = [x if x <= via + y else via + y
                           for x, y in zip(cost[a], through)]
    # the edges touching each component, keyed by its least member (the
    # first finite entry of a member's row); an edge meets one at most
    touching: dict[int, list[tuple[int, int]]] = {}
    outside = 0
    for u, v in g.edges:
        x = u if s >> u & 1 else v if s >> v & 1 else None
        if x is None:
            outside += 1
        else:
            key = next(b for b in members if cost[x][b] < math.inf)
            touching.setdefault(key, []).append((u, v))
    spans = 0
    for edges in touching.values():
        # a vertex outside s lies on no path: its column is inf, so each
        # min below is taken over K-endpoints
        near = [list(map(min, cost[u], cost[v])) for u, v in edges]
        spans += 1 + max(min(row[u], row[v]) for row in near for u, v in edges)
    return spans + outside


#: K_{2,3} is edge-transitive without being vertex-transitive; the paw (a
#: triangle with a pendant edge) is neither.
K23 = Graph.from_labels("K2,3", ["a", "b", "c", "d", "e"],
                        [(x, y) for x in "ab" for y in "cde"])
PAW = Graph.from_labels("paw", ["a", "b", "c", "d"],
                        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


def random_connected_graph(seed: int, max_edges: int = 7) -> Graph:
    """Small random connected graph with at most max_edges edges.

    Random spanning tree plus a few extra edges; deterministic per seed.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    non_edges = [frozenset((a, b)) for a, b in itertools.combinations(labels, 2)
                 if frozenset((a, b)) not in present]
    rng.shuffle(non_edges)
    room = min(max_edges - len(edges), len(non_edges))
    for pair in non_edges[:rng.randint(0, room)]:
        a, b = sorted(pair)
        edges.append((a, b))
    return Graph.from_labels(f"random:{seed}", labels, edges)


# every graph here has at most 7 edges, small enough to enumerate
ORACLE_CORPUS = ([path(n) for n in range(2, 9)]
                 + [cycle(n) for n in range(3, 8)]
                 + [complete(4), K23, PAW]
                 + [random_connected_graph(seed) for seed in range(20)])
