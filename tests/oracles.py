"""Independent reference implementations for cross-checking.

Everything here recomputes from definitions with deliberately different
code paths than the package: full product enumeration instead of search,
sorted-list interval checks instead of bitmasks.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from mu_spectra import EdgeColoring, Graph


def naive_valid(g: Graph, c: EdgeColoring) -> bool:
    """Definition check: proper at every vertex, every color in [1,t] used."""
    if len(c.colors) != g.m:
        return False
    if any(not 1 <= col <= c.t for col in c.colors):
        return False
    incident: dict[str, list[int]] = {label: [] for label in g.vertices}
    for (a, b), col in zip(g.edge_labels, c.colors):
        incident[a].append(col)
        incident[b].append(col)
    for cols in incident.values():
        if len(set(cols)) != len(cols):
            return False
    return set(c.colors) == set(range(1, c.t + 1))


def naive_interval_labels(g: Graph, c: EdgeColoring) -> set[str]:
    """Labels of the interval vertices, straight from the definition."""
    incident: dict[str, list[int]] = {label: [] for label in g.vertices}
    for (a, b), col in zip(g.edge_labels, c.colors):
        incident[a].append(col)
        incident[b].append(col)
    out = set()
    for label, cols in incident.items():
        distinct = sorted(set(cols))
        if distinct == list(range(distinct[0], distinct[0] + len(distinct))):
            out.add(label)
    return out


def naive_f(g: Graph, c: EdgeColoring) -> int:
    """Interval-vertex count straight from the definition."""
    return len(naive_interval_labels(g, c))


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


def naive_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation mapping each edge to an edge.

    Tries all n! permutations; meant for graphs with at most 7 vertices.
    """
    edges = {frozenset(e) for e in g.edges}
    return [perm for perm in itertools.permutations(range(g.n))
            if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges)]


def naive_edge_transitive(g: Graph) -> bool:
    """Edge-transitivity from the definition: the images of edge 0 under
    every automorphism must be every edge."""
    u0, v0 = g.edges[0]
    images = {frozenset((perm[u0], perm[v0])) for perm in naive_automorphisms(g)}
    return images == {frozenset(e) for e in g.edges}


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
