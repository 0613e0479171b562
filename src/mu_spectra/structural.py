"""Certified bounds on interval-vertex counts without exhaustive search.

Each operation checks its own preconditions and, when they hold, emits a
BoundEvidence whose ``value`` caps or floors f over a stated range of t.
The arguments mechanized here:

* a regular graph admits a coloring with every spectrum an interval iff
  its chromatic index equals its degree; failing that, f <= |V|-1 always;
* at t = |E| all edge colors are distinct, so interval vertices induce a
  disjoint union of paths, capping f by the largest path-forest subset
  (or below any size at which every subset holds an induced claw or
  6-cycle);
* on a cubic graph whose every vertex deletion has chromatic index 4,
  f = |V|-1 is impossible at any t: the spectra at |V|-1 interval vertices
  would reduce mod 3 to a proper 3-edge-coloring of a deleted subgraph;
  an automorphism s maps G-v onto G-s(v), so one deletion per vertex
  orbit settles the premise (one for the vertex-transitive Petersen graph);
* on a cubic graph with chromatic index 4 whose perfect matchings pairwise
  intersect, f <= 1 at t = 4 would force color classes 1 and 4 to be
  disjoint perfect matchings, so f >= 2;
* colors climb by at most deg - 1 across an interval vertex, so the
  colors at each component of G[S] span a bounded range, and each edge
  outside S holds one color: a vertex set S is interval under no valid
  t-coloring once t exceeds ``span_cap(g, S)``, the sum of those (after
  Asratian & Kamalian, JCTB 62, 1994). ``span_cap`` emits no evidence of
  its own: the interval-set split of ``search`` applies it to each set it
  tries, and its one k = n set, V, makes the f <= |V|-1 refutation.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    Record,
    all_perfect_matchings,
    chromatic_index,
    contains_induced_c6,
    contains_induced_claw,
    delete_vertex,
    edge_key,
    full_set,
    is_path_forest,
    set_labels,
)
from .graphs import _reach, _subsets, _vertex_orbits

# 2^|V| subset scans stay fast up to here
_SUBSET_SCAN_LIMIT = 20


class EvidenceKind(Enum):
    NOT_INTERVAL_COLORABLE = "not-interval-colorable"
    PATH_FOREST_CAP = "path-forest-cap"
    MOD_REDUCTION = "mod-reduction"
    MATCHING_INTERSECTION = "matching-intersection"
    CERTIFICATE_LOWER_BOUND = "certificate-lower-bound"  # a mu2 witness's f
    CERTIFICATE_UPPER_BOUND = "certificate-upper-bound"  # a mu1 witness's f
    INTERVAL_SET_ORBITS = "interval-set-orbits"


class BoundEvidence(Record):
    """A certified bound on f with its justification.

    ``applies_t`` is the single t the bound is valid at, or None when it
    holds at every legal t. Caps bound f from above, floors from below;
    which one is fixed by ``kind``. ``payload`` defaults to a fresh
    empty dict.
    """

    __slots__ = ("kind", "value", "detail", "applies_t", "payload")

    def __init__(self, kind: EvidenceKind, value: int, detail: str,
                 applies_t: int | None = None, payload: dict | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "applies_t", applies_t)
        object.__setattr__(self, "payload", {} if payload is None else payload)

    def to_dict(self) -> dict:
        doc = {"kind": self.kind.value, "value": self.value, "detail": self.detail}
        if self.applies_t is not None:
            doc["t"] = self.applies_t
        if self.payload:
            doc["payload"] = self.payload
        return doc


def is_interval_colorable_regular(g: Graph) -> bool:
    """Whether a regular graph has a coloring making every spectrum an interval.

    For regular graphs this is equivalent to chromatic_index(g) == degree:
    with t = degree every vertex sees all colors [1,t], and conversely an
    all-interval coloring of a regular graph forces t = degree.
    """
    if not g.is_regular():
        raise GraphError(f"{g.name} is not regular")
    return chromatic_index(g) == g.max_degree()


def mu22_cap_from_noninterval(g: Graph) -> BoundEvidence:
    """Cap f <= |V|-1 at every t for regular g with chromatic index > degree."""
    if is_interval_colorable_regular(g):
        raise GraphError(
            f"{g.name} admits an all-interval coloring; no cap follows")
    chi = chromatic_index(g)
    delta = g.max_degree()
    return BoundEvidence(
        kind=EvidenceKind.NOT_INTERVAL_COLORABLE,
        value=g.n - 1,
        detail=(f"chromatic index {chi} exceeds degree {delta}, so no proper "
                f"coloring makes all {g.n} spectra intervals; f <= {g.n - 1} "
                f"at every t"),
        payload={"chromatic_index": chi, "degree": delta},
    )


def _require_subset_scan(g: Graph) -> None:
    """The premises of the t = |E| caps: min degree 2, subsets few to scan."""
    if g.min_degree() < 2:
        raise GraphError(f"{g.name} has a vertex of degree < 2")
    if g.n > _SUBSET_SCAN_LIMIT:
        raise GraphError(
            f"subset scan limited to {_SUBSET_SCAN_LIMIT} vertices, "
            f"{g.name} has {g.n}")


def _require_cubic_class_two(g: Graph) -> None:
    """The premise of the cubic arguments: g cubic with chromatic index 4."""
    if not g.is_cubic():
        raise GraphError(f"{g.name} is not cubic")
    chi = chromatic_index(g)
    if chi != 4:
        raise GraphError(f"chromatic index of {g.name} is {chi}, not 4")


def _max_path_forest_with_witness(g: Graph) -> tuple[int, tuple[str, ...]]:
    _require_subset_scan(g)
    for size in range(g.n, 0, -1):
        for mask in _subsets(full_set(g), size):
            if is_path_forest(g, mask):
                return size, set_labels(g, mask)
    return 0, ()  # unreachable: any single vertex induces a path forest


def max_path_forest_subset(g: Graph) -> int:
    """Largest vertex subset inducing a disjoint union of paths.

    Brute force over subsets, largest first with early exit.
    """
    return _max_path_forest_with_witness(g)[0]


def mu2_top_cap(g: Graph) -> BoundEvidence:
    """Cap f at t = |E| by the path-forest bound.

    When all edge colors are distinct, every spectrum is a set of distinct
    values whose interval vertices must induce a path forest (a vertex of
    induced degree >= 3 or an induced cycle would force two incident edges
    to repeat a color or break consecutiveness). Valid only at t = |E|.
    """
    size, witness = _max_path_forest_with_witness(g)
    return BoundEvidence(
        kind=EvidenceKind.PATH_FOREST_CAP,
        value=size,
        applies_t=g.m,
        detail=(f"at t={g.m} interval vertices induce a path forest; the "
                f"largest path-forest subset of {g.name} has {size} vertices"),
        payload={"witness_subset": list(witness)},
    )


def mu2_top_cap_from_obstructions(g: Graph, size: int) -> BoundEvidence:
    """Cap f at t = |E| by size - 1 from local obstructions.

    An induced claw or chordless 6-cycle is not a path forest, and every
    induced subgraph of a path forest is one. So when each subset of at
    least ``size`` vertices contains either, no such subset induces a path
    forest, and the path-forest argument of ``mu2_top_cap`` caps f at
    size - 1. Raises GraphError on the first subset with neither.
    """
    _require_subset_scan(g)
    subsets = 0
    for k in range(size, g.n + 1):
        for mask in _subsets(full_set(g), k):
            if not (contains_induced_claw(g, mask) or contains_induced_c6(g, mask)):
                raise GraphError(
                    f"{{{', '.join(set_labels(g, mask))}}} contains "
                    f"no induced claw or 6-cycle")
            subsets += 1
    return BoundEvidence(
        kind=EvidenceKind.PATH_FOREST_CAP,
        value=size - 1,
        applies_t=g.m,
        detail=(f"all {subsets} subsets of {g.name} with >= {size} vertices "
                f"contain an induced claw or 6-cycle, so none induces a path "
                f"forest and f <= {size - 1} at t={g.m}"),
        payload={"subsets": subsets, "obstructed": subsets},
    )


def mu22_cap_cubic(g: Graph) -> BoundEvidence:
    """Cap f <= |V|-2 at every t for suitable cubic graphs.

    Needs: g cubic, chromatic index 4, and chromatic index still 4 after
    deleting any one vertex. Then f = |V|-1 at any t is contradictory:
    the deleted-vertex subgraph induced by the |V|-1 interval vertices is
    cubic except at the deleted vertex's neighbors, and reducing the
    coloring mod 3 at its interval vertices would 3-color a subgraph that
    has no proper 3-coloring.

    An automorphism s of g maps g - v onto g - s(v), so the chromatic index
    of a deletion is the same across each vertex orbit, and one deletion
    per orbit decides it (``_vertex_orbits``). Those are the orbits of
    Aut(g), or of a subgroup when the automorphism finder's budget cut its
    chain, whose orbits are finer: that costs more deletions, never a
    wrong index. A vertex whose orbit's
    first deletion raised is deleted itself, so each such vertex names its
    own failure. The payload gives one index per vertex, in vertex order.
    """
    _require_cubic_class_two(g)
    problems = []
    deletions: dict[str, int] = {}
    by_orbit: dict[int, int] = {}
    for label, orbit in zip(g.vertices, _vertex_orbits(g)):
        chi = by_orbit.get(orbit)
        if chi is None:
            try:
                chi = by_orbit[orbit] = chromatic_index(delete_vertex(g, label))
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


def mu1_floor_from_matchings(g: Graph) -> BoundEvidence:
    """Floor f >= 2 at t = 4 for cubic g whose perfect matchings all meet.

    If f <= 1, color classes 1 and 4 each miss at most one vertex; a
    matching covering an odd number of vertices is impossible, so both are
    perfect matchings, and distinct color classes are edge-disjoint. That
    contradicts pairwise intersection, hence f >= 2 at t = 4.
    """
    _require_cubic_class_two(g)
    matchings = all_perfect_matchings(g)
    pairs = 0
    for m1, m2 in itertools.combinations(matchings, 2):
        pairs += 1
        if not m1 & m2:
            e1 = min(m1 - m2)
            raise GraphError(
                f"disjoint perfect matchings exist (one contains edge "
                f"{g.edge_labels[e1]})")
    return BoundEvidence(
        kind=EvidenceKind.MATCHING_INTERSECTION,
        value=2,
        applies_t=4,
        detail=(f"f <= 1 at t=4 would make color classes 1 and 4 disjoint "
                f"perfect matchings, but all {pairs} pairs of the "
                f"{len(matchings)} perfect matchings intersect"),
        payload={
            "perfect_matchings": [
                sorted(edge_key(*g.edge_labels[ei]) for ei in m)
                for m in matchings
            ],
            "pairs_checked": pairs,
        },
    )


@lru_cache(maxsize=None)
def span_cap(g: Graph, s: int) -> int:
    """A bound on t for a valid t-coloring that makes every vertex of the
    mask ``s`` interval.

    Take such a coloring and a component K of G[s]. Let a and b be the
    least and the largest color on the edges with an endpoint in K, x0 a
    K-endpoint of an edge colored a, xd one of an edge colored b, and
    x0..xd a path inside K. The colors at x0 lie in [a, a + deg(x0) - 1],
    and an interval vertex holding color c holds nothing above
    c + deg - 1, so the colors at x_i stay <= a + sum over j <= i of
    (deg(x_j) - 1); at xd that bounds b. So the colors on the edges
    touching K lie within L_K consecutive values, L_K being 1 plus the
    largest, over pairs of such edges, of the least such path cost between
    their K-endpoints. Each edge with no endpoint in s holds one color, and
    the coloring uses every color in 1..t, so t is at most the sum of L_K
    over the components plus the number of those edges. Cached: it does
    not depend on t.

    The least path costs come from one bucketed search per edge touching
    K (after Dial, CACM 12(11), 1969), started at that edge's K-endpoints,
    each at its own deg - 1. The search keeps a vertex mask per cost: it
    settles the least cost's mask whole, and the new neighbors in K of
    what it settled join the mask of that cost plus their deg - 1, one
    mask operation per climb value. Costs are settled in increasing
    order, so each vertex is settled at its least path cost from the
    start edge, and each edge at the least over its K-endpoints. A pair
    costs the same from either edge, so the search from edge i waits only
    for the edges touching K from index i on; it stops when the last of
    them is settled, at the largest of their pair costs with edge i. The
    largest over start edges is then the largest over all pairs, so L_K
    is the one the definition gives.
    """
    nb, edges, climb = g.neighbors, g.edges, [d - 1 for d in g.degrees]
    at = [sum(1 << ei for ei in es) for es in g.incident]  # edge masks
    spans = sum(not (s >> u & 1 or s >> v & 1) for u, v in edges)
    rest = s
    while rest:
        comp = _reach(g, rest & -rest, s)
        rest ^= comp
        touch, by_climb, bits = 0, {}, comp
        while bits:
            x = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            touch |= at[x]
            by_climb[climb[x]] = by_climb.get(climb[x], 0) | 1 << x
        far, starts = 0, touch
        while starts:
            ei = (starts & -starts).bit_length() - 1
            starts &= starts - 1
            front: dict[int, int] = {}
            for x in edges[ei]:
                if comp >> x & 1:
                    front[climb[x]] = front.get(climb[x], 0) | 1 << x
            cost, done, left = min(front), 0, touch >> ei << ei
            while True:
                new = front.pop(cost, 0) & ~done
                if not new:
                    cost += 1
                    continue
                done |= new
                near = 0
                while new:
                    x = (new & -new).bit_length() - 1
                    new &= new - 1
                    left &= ~at[x]
                    near |= nb[x]
                if not left:
                    break
                near &= comp & ~done
                # a deg-1 vertex climbs by 0 and joins the cost just
                # settled, which the next pass settles again
                for c, group in by_climb.items():
                    if near & group:
                        front[cost + c] = front.get(cost + c, 0) | near & group
            far = max(far, cost)
        spans += 1 + far
    return spans


@lru_cache(maxsize=None)
def _every_t_caps(g: Graph) -> tuple[BoundEvidence, ...]:
    """The caps of ``mu2_caps`` that hold at every t, built once per graph.

    Callers share the evidence objects, so nothing may change a payload.
    """
    out = []
    for cap in (mu22_cap_from_noninterval, mu22_cap_cubic):
        try:
            out.append(cap(g))
        except GraphError:  # its premise fails on g
            pass
    return tuple(out)


def mu2_caps(g: Graph, t: int) -> list[BoundEvidence]:
    """All structural caps on f applicable to colorings with exactly t colors."""
    out = list(_every_t_caps(g))
    if t == g.m:
        try:
            out.append(mu2_top_cap(g))
        except GraphError:
            pass
    return out


def mu1_floors(g: Graph, t: int) -> list[BoundEvidence]:
    """All structural floors on f applicable at exactly t colors."""
    out = []
    if t == 4:
        try:
            out.append(mu1_floor_from_matchings(g))
        except GraphError:
            pass
    return out
