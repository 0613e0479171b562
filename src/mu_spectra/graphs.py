"""Small immutable graphs with labeled vertices and dense edge indices.

Vertices carry string labels; edges are stored as a fixed-order tuple of
index pairs, so an edge coloring is just a flat array over edge indices.
All graphs here are simple, connected, and capped at 64 vertices / 64
edges. A vertex set is an int bitmask throughout (bit i for vertex i):
the pattern tests, the search kernel's required set and the interval
sets of colorings all take and return masks, and ``Graph.neighbors``
gives each vertex's neighbors as one.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache, partial, reduce
from operator import or_

MAX_VERTICES = 64
MAX_EDGES = 64


class GraphError(ValueError):
    """Raised for malformed graph definitions or illegal graph arguments."""


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__slots__`` (a subclass's fields
    follow its base's) and sets each once in ``__init__`` through
    ``object.__setattr__``. Records are equal when they are of one class
    and their fields are equal in order; they hash by the tuple of their
    fields and print as ``Name(field=value, ...)``. Assigning or deleting
    an attribute raises AttributeError; ``replace`` makes a changed copy.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # what ``__init__`` takes: fewer than the fields when it derives some
    _params: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(f for f in own if f != "__dict__")
        code = cls.__init__.__code__
        cls._params = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return self.__class__(**{**{p: getattr(self, p) for p in self._params},
                                 **changes})


class Graph(Record):
    """Immutable simple connected graph.

    ``edges[i]`` is the pair of vertex indices of edge ``i`` with the lower
    index first; the tuple order defines the edge indexing used everywhere
    else (colorings, matchings, certificates).
    """

    # __dict__ holds the cached properties, the hash among them
    __slots__ = ("name", "vertices", "edges", "__dict__")

    def __init__(self, name: str, vertices: tuple[str, ...],
                 edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_labels(cls, name: str, vertices: Sequence[str],
                    edges: Iterable[tuple[str, str]]) -> "Graph":
        """Build and fully validate a graph from labeled edges."""
        vertices = tuple(vertices)
        if not vertices:
            raise GraphError("graph needs at least one vertex")
        if len(vertices) > MAX_VERTICES:
            raise GraphError(f"at most {MAX_VERTICES} vertices supported")
        if len(set(vertices)) != len(vertices):
            raise GraphError("duplicate vertex labels")
        index = {label: i for i, label in enumerate(vertices)}
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise GraphError(f"edge ({a},{b}) references unknown vertex")
            u, v = index[a], index[b]
            if u == v:
                raise GraphError(f"loop at {a}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({a},{b})")
            seen.add((u, v))
            pairs.append((u, v))
        if not pairs:
            raise GraphError("graph needs at least one edge")
        if len(pairs) > MAX_EDGES:
            raise GraphError(f"at most {MAX_EDGES} edges supported")
        g = cls(name=name, vertices=vertices, edges=tuple(pairs))
        if not g.is_connected():
            raise GraphError("graph must be connected")
        return g

    @cached_property
    def _hash(self) -> int:
        return Record.__hash__(self)

    def __hash__(self) -> int:
        # every lru_cache keyed by a graph hashes it: hash the fields once
        return self._hash

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor index, edge index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for ei, (u, v) in enumerate(self.edges):
            adj[u].append((v, ei))
            adj[v].append((u, ei))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: the indices of its edges."""
        return tuple(tuple(ei for _, ei in a) for a in self.adjacency)

    @cached_property
    def neighbors(self) -> tuple[int, ...]:
        """Per vertex: the bitmask of its neighbors."""
        return tuple(sum(1 << v for v, _ in a) for a in self.adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.vertices[u], self.vertices[v]) for u, v in self.edges)

    @cached_property
    def edge_keys(self) -> dict[str, int]:
        """Edge key -> edge index, for both spellings ``edge_key(a, b)`` and
        ``edge_key(b, a)`` of every edge; the one way a label pair reaches
        an edge index.

        A string that spells two different edges, as "a-b-c" does for the
        edges (a, b-c) and (a-b, c), maps to -1. An edge that spells itself
        both ways, as (1, 1-1) does with "1-1-1", keeps its index.
        """
        keys: dict[str, int] = {}
        for ei, (a, b) in enumerate(self.edge_labels):
            for key in (edge_key(a, b), edge_key(b, a)):
                keys[key] = ei if keys.get(key, ei) == ei else -1
        return keys

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_index(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r} in {self.name}") from None

    def min_degree(self) -> int:
        return min(self.degrees)

    def max_degree(self) -> int:
        return max(self.degrees)

    def is_regular(self) -> bool:
        return self.min_degree() == self.max_degree()

    def is_cubic(self) -> bool:
        return self.is_regular() and self.max_degree() == 3

    def is_connected(self) -> bool:
        return _reach(self, 1, full_set(self)) == full_set(self)

    def summary(self) -> dict:
        return {"name": self.name, "vertices": self.n, "edges": self.m,
                "min_degree": self.min_degree(), "max_degree": self.max_degree()}


def edge_key(a: str, b: str) -> str:
    """The certificate spelling of the edge between labels a and b."""
    return f"{a}-{b}"


# ---------------------------------------------------------------------------
# vertex subsets as bitmasks

def vertex_set(g: Graph, items) -> int:
    """Normalize a vertex subset to an int bitmask.

    Accepts an int mask, vertex labels, or vertex indices.
    """
    if isinstance(items, int):
        if items < 0 or items >> g.n:
            raise GraphError("vertex mask has bits outside the graph")
        return items
    mask = 0
    for item in items:
        i = g.vertex_index(item) if isinstance(item, str) else int(item)
        if not 0 <= i < g.n:
            raise GraphError(f"vertex index {i} out of range")
        mask |= 1 << i
    return mask

def set_labels(g: Graph, mask: int) -> tuple[str, ...]:
    return tuple(g.vertices[i] for i in range(g.n) if mask >> i & 1)

def full_set(g: Graph) -> int:
    return (1 << g.n) - 1

def _subsets(mask: int, k: int) -> Iterator[int]:
    """The k-subset masks of ``mask``, in ``itertools.combinations`` order
    over its indices: none when k exceeds its bit count, one (0) at k=0."""
    return map(sum, itertools.combinations(
        [1 << i for i in range(mask.bit_length()) if mask >> i & 1], k))


# ---------------------------------------------------------------------------
# catalog graphs

#: Vertex labels and edge list of the Petersen graph, in the fixed order the
#: rest of the package (fixtures, certificates) relies on.
PETERSEN_VERTICES = ("x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3", "y4", "y5")
PETERSEN_EDGES = (
    ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x1", "x5"),
    ("x1", "y1"), ("x2", "y2"), ("x3", "y3"), ("x4", "y4"), ("x5", "y5"),
    ("y1", "y3"), ("y1", "y4"), ("y2", "y4"), ("y2", "y5"), ("y3", "y5"),
)


@lru_cache(maxsize=1)
def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle x1..x5, spokes, inner pentagram."""
    return Graph.from_labels("petersen", PETERSEN_VERTICES, PETERSEN_EDGES)


def path(n: int) -> Graph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    labels = [f"v{i}" for i in range(n)]
    return Graph.from_labels(f"path:{n}", labels,
                             [(labels[i], labels[i + 1]) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)] + [(labels[0], labels[-1])]
    return Graph.from_labels(f"cycle:{n}", labels, edges)


def complete(n: int) -> Graph:
    if n < 3:
        raise GraphError("complete needs n >= 3")
    labels = [f"v{i}" for i in range(n)]
    return Graph.from_labels(f"complete:{n}", labels,
                             list(itertools.combinations(labels, 2)))


def from_spec(spec: str) -> Graph:
    """Resolve a catalog graph name: petersen, path:<n>, cycle:<n>, complete:<n>.

    A size past the vertex or edge cap is refused before the graph is built.
    """
    if spec == "petersen":
        return petersen()
    kind, sep, arg = spec.partition(":")
    makers = {"path": path, "cycle": cycle, "complete": complete}
    if sep and kind in makers:
        try:
            n = int(arg)
        except ValueError:
            raise GraphError(f"bad size in graph spec {spec!r}") from None
        m = {"path": n - 1, "cycle": n, "complete": n * (n - 1) // 2}[kind]
        if n > MAX_VERTICES:
            raise GraphError(f"at most {MAX_VERTICES} vertices supported")
        if m > MAX_EDGES:
            raise GraphError(f"at most {MAX_EDGES} edges supported")
        return makers[kind](n)
    raise GraphError(f"unknown graph spec {spec!r}")


def is_petersen_labeled(g: Graph) -> bool:
    """True when g is the Petersen graph under its catalog labeling: each
    catalog edge's key resolves to an edge of g, and g has no other edge.
    A connected g then has no other vertex either."""
    keys = g.edge_keys
    return (g.m == len(PETERSEN_EDGES)
            and all(edge_key(a, b) in keys for a, b in PETERSEN_EDGES))


# ---------------------------------------------------------------------------
# induced patterns

def _reach(g: Graph, seed: int, mask: int) -> int:
    """The vertices of mask joined to seed by a path inside mask."""
    nb = g.neighbors
    reach = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nb[low.bit_length() - 1] & mask & ~reach
        reach |= new
        frontier |= new
    return reach


def is_path_forest(g: Graph, s) -> bool:
    """True iff every connected component of the subgraph s induces is a path.

    An isolated vertex counts as a trivial path; any vertex of induced
    degree >= 3 or any cycle disqualifies. With every degree at most 2, a
    component is a cycle exactly when it has no vertex of degree < 2, so s
    is a path forest when those vertices reach all of s.
    """
    mask = vertex_set(g, s)
    nb = g.neighbors
    ends = 0
    for i in range(g.n):
        if mask >> i & 1:
            d = (nb[i] & mask).bit_count()
            if d > 2:
                return False
            if d < 2:
                ends |= 1 << i
    return _reach(g, ends, mask) == mask


def contains_induced_claw(g: Graph, s) -> bool:
    """True iff some 4 vertices of s induce a star K_{1,3} (and nothing else).

    That is, some vertex of s has 3 pairwise non-adjacent neighbors in s.
    """
    mask = vertex_set(g, s)
    nb = g.neighbors
    for i in range(g.n):
        near = nb[i] & mask
        if mask >> i & 1 and near.bit_count() >= 3:
            around = [j for j in range(g.n) if near >> j & 1]
            for a, b, c in itertools.combinations(around, 3):
                if not (nb[a] >> b & 1 or nb[a] >> c & 1 or nb[b] >> c & 1):
                    return True
    return False


def contains_induced_c6(g: Graph, s) -> bool:
    """True iff some 6 vertices of s induce a chordless 6-cycle.

    That is, some connected 6-subset of s in which each vertex has exactly
    2 neighbors among the six.
    """
    mask = vertex_set(g, s)
    nb = g.neighbors
    ids = [i for i in range(g.n) if mask >> i & 1]
    for sm in _subsets(mask, 6):
        if (all((nb[i] & sm).bit_count() == 2 for i in ids if sm >> i & 1)
                and _reach(g, sm & -sm, sm) == sm):
            return True
    return False


# ---------------------------------------------------------------------------
# matchings

@lru_cache(maxsize=None)
def all_perfect_matchings(g: Graph) -> tuple[frozenset[int], ...]:
    """Every perfect matching, as a frozenset of edge indices.

    Backtracks over vertices in index order (always extending from the
    lowest-index unmatched vertex), so the output order is deterministic.
    Odd vertex count yields an empty tuple.
    """
    if g.n % 2:
        return ()
    out: list[frozenset[int]] = []
    matched = [False] * g.n
    chosen: list[int] = []

    def extend() -> None:
        try:
            v = matched.index(False)
        except ValueError:
            out.append(frozenset(chosen))
            return
        matched[v] = True
        for u, ei in g.adjacency[v]:
            if not matched[u]:
                matched[u] = True
                chosen.append(ei)
                extend()
                chosen.pop()
                matched[u] = False
        matched[v] = False

    extend()
    return tuple(out)


# ---------------------------------------------------------------------------
# automorphisms

#: Candidate placements ``_orbit_chain`` tries per call before it gives
#: up; the whole chain of the kernel's default order tries 148 on
#: Petersen and 891 on complete:11 (level 0 alone: 116 and 486).
_AUTOMORPHISM_BUDGET = 1_000_000

#: Largest C(n,k) for which ``_subset_orbits`` walks the k-subsets.
_SUBSET_ORBIT_BUDGET = 10_000


def _refine(g: Graph, color: list[int]) -> list[int]:
    """Color refinement: each vertex's color joined with the sorted colors
    of its neighbors, as one new color per distinct pair, until no class
    splits. The result is a function of ``color`` and g alone, so every
    automorphism that keeps ``color`` keeps it too."""
    adj = g.adjacency
    count = len(set(color))
    while True:
        sig = [(c, tuple(sorted([color[y] for y, _ in a])))
               for c, a in zip(color, adj)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        color = [ids[s] for s in sig]
        if len(ids) == count:
            return color
        count = len(ids)


@lru_cache(maxsize=None)
def _orbit_chain(g: Graph, req: int, order: tuple[int, ...]
                 ) -> tuple[dict[int, tuple[int, ...]], ...]:
    """The edge orbits along the stabilizer chain of an edge order.

    Level l is the orbit of ``order[l]`` under G_l, the automorphisms of
    g that fix the vertex mask ``req`` setwise and each of
    ``order[0..l-1]`` setwise: a dict from the depth of each edge
    of the orbit to one map of G_l that sends ``order[l]`` onto it, as a
    tuple of vertex images, in depth order; depth l maps to the identity,
    and every other depth is above l, since G_l fixes the earlier edges.
    Level 0 at ``req=0`` is edge ``order[0]``'s orbit under all of Aut(g).
    The group itself is never listed (Aut(K_11) has 11! elements).

    A map that fixes ``req`` setwise fixes the rest of V setwise too, so
    the chain depends on the vertex partition {``req``, V - ``req``}
    alone: ``req`` and ``V ^ req`` refine to the same classes, and give
    the same levels and maps. Callers key it by the partition, as
    ``req=min(req, V ^ req)``, so both spellings share one build; ``req=V``
    shares the chain of ``req=0``.

    Each vertex may take only the images in its class under color
    refinement (``_refine``) of its degree, its membership of ``req`` and
    the fixed edges it lies on. Every map of G_l keeps each class, so
    fixing one more edge splits the classes at its two ends, then refines.
    An edge is tried only when the classes of its ends are those of
    ``order[l]``'s. A try is a breadth-first backtracking from the ends of
    ``order[l]``: each later vertex has an earlier neighbor, and its image
    is a free neighbor of that neighbor's image, in its class, whose
    neighbors among the images placed so far are exactly the images of
    its placed neighbors; adjacency is then kept both ways between every
    pair of placed vertices. A branch that the classes cut holds no
    automorphism, so each map found is the first that the same search
    without classes would find.

    The chain ends early in two ways. When refinement leaves every vertex
    a class of its own, G_l fixes every vertex, and this level and every
    later one is its edge alone; those levels are left out. When
    ``_AUTOMORPHISM_BUDGET`` candidate placements have been tried, the
    level under way keeps the edges found so far and is the last: only
    the last level may hold part of its orbit. Levels past the end hold
    their edge alone. A part of an orbit is all the users need: the
    search kernel's floors are sound on any part (see ``_search``), and
    the maps of a cut chain generate a subgroup of Aut(g), whose finer
    orbits ``_subset_orbits`` and ``_vertex_orbits`` may use as they are
    (see ``_generators``).
    """
    n, nb, edges = g.n, g.neighbors, g.edges
    img = [0] * n
    left = _AUTOMORPHISM_BUDGET

    def extend(i: int, taken: int) -> bool:
        nonlocal left
        if i == n:
            return True
        x = vorder[i]
        want = 0
        for w in back[i]:
            want |= 1 << img[w]
        cands = nb[img[back[i][0]]] & ~taken & allow[x]
        while cands:
            bit = cands & -cands
            cands ^= bit
            left -= 1
            if left < 0:
                return False
            y = bit.bit_length() - 1
            if nb[y] & taken == want:
                img[x] = y
                if extend(i + 1, taken | bit):
                    return True
        return False

    def maps_onto(c: int, e: int) -> bool:
        """Whether some map of the level's group sends a, b to c, e."""
        img[a], img[b] = c, e
        return (allow[a] >> c & 1 and allow[b] >> e & 1
                and extend(2, 1 << c | 1 << e))

    color = _refine(g, [2 * g.degrees[x] + (req >> x & 1) for x in range(n)])
    identity = tuple(range(n))
    chain: list[dict[int, tuple[int, ...]]] = []
    for lvl in range(len(order)):
        if lvl:  # G_lvl also fixes order[lvl-1] setwise
            p, q = edges[order[lvl - 1]]
            color = _refine(g, [2 * c + (x == p or x == q)
                                for x, c in enumerate(color)])
            if len(set(color)) == n:
                break
        a, b = edges[order[lvl]]
        # equal sets of end classes mean equal pairs, also when both ends
        # of an edge share a class
        pair = {color[a], color[b]}
        tries = [d for d in range(lvl + 1, len(order))
                 if {color[x] for x in edges[order[d]]} == pair]
        found = {lvl: identity}
        chain.append(found)
        if not tries:
            continue
        cls: dict[int, int] = {}
        for x, c in enumerate(color):
            cls[c] = cls.get(c, 0) | 1 << x
        allow = [cls[c] for c in color]
        vorder = [a, b]  # breadth-first from a, b
        seen = 1 << a | 1 << b
        for x in vorder:
            for y, _ in g.adjacency[x]:
                if not seen >> y & 1:
                    seen |= 1 << y
                    vorder.append(y)
        rank = {x: i for i, x in enumerate(vorder)}
        back = [[w for w, _ in g.adjacency[x] if rank[w] < i]
                for i, x in enumerate(vorder)]
        for d in tries:
            c, e = edges[order[d]]
            if maps_onto(c, e) or maps_onto(e, c):
                found[d] = tuple(img)
            if left < 0:
                return tuple(chain)
    return tuple(chain)


@lru_cache(maxsize=None)
def _generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The maps of every level of ``_orbit_chain`` for the kernel's edge
    order at ``req=0``, ``_most_constrained_order(g, 0)``, level by level in
    depth order, identities left out: the one list of maps that
    ``_chunk_images`` and ``_vertex_orbits`` share. That chain is the one
    the kernel's own runs at ``req=0`` (and ``req=V``) build, so each
    graph's group is built once.

    Level l holds one map of G_l per edge of ``order[l]``'s orbit, a
    transversal of G_{l+1} in G_l, and the chain runs down to a G_l that
    fixes every vertex: on a connected graph with three vertices or more,
    fixing every edge setwise fixes every vertex. So each automorphism is
    a product of one map per level, and the maps generate Aut(g), for any
    edge order; the orbits, and each orbit's least member that the
    tables name it by, do not depend on the order. The one other
    connected graph, K_2, is given the swap of its ends, which fixes its
    edge. A chain cut by ``_AUTOMORPHISM_BUDGET`` gives maps that
    generate only a subgroup, whose orbits are finer: more classes, each
    still inside one orbit of Aut(g). Which subgroup depends on the order,
    so a cut chain's tables may differ from those of another order.
    """
    if g.n == 2:
        return ((1, 0),)
    chain = _orbit_chain(g, 0, _most_constrained_order(g, 0))
    return tuple(img for lvl, level in enumerate(chain)
                 for d, img in level.items() if d != lvl)


@lru_cache(maxsize=None)
def _chunk_images(g: Graph, symmetric: bool
                  ) -> tuple[tuple[int, list[tuple[int, ...]]], ...]:
    """The maps of ``_generators``, or no maps when not ``symmetric``, as
    lookup tables on 6-bit chunks of a vertex mask: one ``(shift, table)``
    per chunk, where entry c of the table holds the images of the mask
    ``c << shift`` under each map, in that order.

    A map permutes the vertices, so the images of disjoint chunks are
    disjoint and their OR is the image of the whole mask. Built once per
    (g, symmetric) and shared by every k. A table has at most 64 entries,
    built bit by bit: the entries with a bit set are those without it,
    each with the images of that bit added.
    """
    maps = _generators(g) if symmetric else ()
    chunks = []
    for shift in range(0, g.n, 6):
        table = [(0,) * len(maps)]
        for x in range(shift, min(shift + 6, g.n)):
            bits = [1 << img[x] for img in maps]
            table += [tuple(map(or_, row, bits)) for row in table]
        chunks.append((shift, table))
    return tuple(chunks)


#: Two rows of ``_chunk_images`` OR-ed map by map: the images of the
#: union of their chunks.
_or_rows = partial(map, or_)


@lru_cache(maxsize=None)
def _subset_orbits(g: Graph, k: int, symmetric: bool) -> dict[int, int] | None:
    """Every k-subset mask mapped to its orbit's representative under the
    maps of ``_generators``, or None when C(n,k) exceeds
    ``_SUBSET_ORBIT_BUDGET``. When not ``symmetric`` there are no maps,
    and every k-subset is its own representative.

    A walk from each subset not yet reached applies every map to every
    subset it reaches, which closes its orbit under the group the maps
    generate; the group is never listed. The images of a subset under all
    maps come from ``_chunk_images``, one row per 6-bit chunk of the mask,
    OR-ed together, in place of one image bit set per vertex and map: the
    images are the same, in the same map order, and so is the walk.
    Subsets are tried in ``itertools.combinations`` order, and each walk
    starts at its representative, so the representatives, the masks that
    map to themselves, come in that order, each the lexicographically
    least index set of its orbit. The orbits are those of Aut(g), or of a
    subgroup when the finder's budget cut the chain: then there are more
    representatives, each still one per orbit of that subgroup, so every
    k-subset is an automorphic image of one of them.
    """
    if math.comb(g.n, k) > _SUBSET_ORBIT_BUDGET:
        return None
    chunks = _chunk_images(g, symmetric)
    rep_of: dict[int, int] = {}
    for rep in _subsets(full_set(g), k):
        if rep in rep_of:
            continue
        rep_of[rep] = rep
        stack = [rep]
        while stack:
            s = stack.pop()
            rows = [table[s >> shift & 63] for shift, table in chunks]
            for image in reduce(_or_rows, rows):
                if image not in rep_of:
                    rep_of[image] = rep
                    stack.append(image)
    return rep_of


def _vertex_orbits(g: Graph) -> tuple[int, ...]:
    """Each vertex's orbit under the maps of ``_generators``, named by its
    least vertex index.

    A union-find joins each vertex with its image under every map, so each
    class is an orbit of the group the maps generate: Aut(g), or a
    subgroup when the finder's budget cut the chain, whose orbits are
    finer, so each class lies inside one orbit of Aut(g) and one of these
    may split into several classes. g must have an edge.
    """
    root = list(range(g.n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for img in _generators(g):
        for x, y in enumerate(img):
            a, b = find(x), find(y)
            if a != b:  # the root of a class is its least vertex
                root[max(a, b)] = min(a, b)
    return tuple(map(find, range(g.n)))


# ---------------------------------------------------------------------------
# the search kernel and chromatic index

def _random_bit(mask: int, rng: random.Random) -> int:
    """A uniformly chosen set bit of a nonzero mask."""
    for _ in range(rng.randrange(mask.bit_count())):
        mask &= mask - 1
    return mask & -mask


def _window(mask: int, d: int) -> int:
    """The colors that keep the span of a nonzero color mask within d.

    With lowest color bit ``low`` and highest ``high`` in ``mask``, a color
    keeps the span, highest minus lowest plus one, within d exactly when it
    is below ``low << d`` and not below ``high >> (d - 1)``; the ``or 1``
    stands for color 1 when that shift runs off the bottom.
    """
    return (((mask & -mask) << d) - 1) & -(
        (1 << mask.bit_length() - 1 >> d - 1) or 1)


@lru_cache(maxsize=None)
def _most_constrained_order(g: Graph, req: int = 0) -> tuple[int, ...]:
    """Edges in the kernel's default order: most constrained first.

    Each step takes the edge, among those not yet taken, with the most
    taken edges at its endpoints in the vertex mask ``req``, then with the
    most taken edges at its endpoints; ties go to the lowest index. With
    ``req=0`` the first count is always 0 and the second decides alone. A
    nonzero ``req`` thus goes on at the ``req`` vertices already reached,
    whose colors the window mask of ``_search`` cuts down. Built once per
    (g, req).

    Each edge keeps both counts in one integer, the first times 2m + 1
    plus the second; the second is below 2m + 1, so integers compare as
    the pairs do, and ``index`` finds the first maximum, the lowest index.
    Taking an edge raises the counts of the edges at its two ends only,
    so the scores are updated there and nowhere else; a taken edge's
    score drops far below any count, out of every later maximum.
    """
    wide, taken = 2 * g.m + 1, -1 << 64
    score = [0] * g.m
    order = []
    for _ in range(g.m):
        bi = score.index(max(score))
        order.append(bi)
        for x in g.edges[bi]:
            step = (req >> x & 1) * wide + 1
            for ei in g.incident[x]:
                score[ei] += step
        score[bi] = taken
    return tuple(order)


def _search(g: Graph, t: int, mu2: bool | None = None, best: int = -1,
            goal: int = 0, order: Sequence[int] | None = None,
            rng: random.Random | None = None, reflect: bool = True,
            req: int = 0, node_limit: int = 2**63,
            deadline: float | None = None):
    """Depth-first search over the proper edge t-colorings of g.

    The one search kernel behind ``chromatic_index``, ``search.solve`` and
    ``search.sample``. Depth d colors edge ``order[d]``. Without an order it
    colors the uncolored edge with the most colored edges at its endpoints
    in ``req``, then with the most colored edges at its endpoints, lowest
    index on ties; with ``req=0`` only the second count differs between
    edges. Those scores count colored edges, not their colors, and every
    node at depth d has colored the same d edges, so the choice depends on
    d alone: ``_most_constrained_order(g, req)`` makes each choice once,
    before the search, with the same tie-break. At depth 0 every score
    ties, so that order starts at edge 0. Colors free at
    both endpoints are tried lowest first, or in random order when ``rng``
    is given. Returns ``(best, witness_colors, nodes, tag)``, tag
    "exhausted", "bound-met" or "budget".

    Leaves are valid colorings: proper since only free colors are tried,
    surjective since once as many colors are unused as edges are uncolored
    only unused colors are tried (``unused_bits`` holds them).

    A vertex is doomed once the span of its colors, highest minus lowest
    plus one, exceeds its degree. Spans only grow, and the deg colors of an
    interval vertex span exactly deg, so a doomed vertex is interval in no
    leaf below. A vertex with all edges colored that is not doomed has deg
    distinct colors within a span of deg, so it is interval.

    A run has one of two jobs, named by ``mu2``, and each job has its own
    loop.

    *Decision runs*, ``mu2=None``, ask whether some valid coloring makes
    every vertex of the mask ``req`` interval; ``req=0`` asks for any valid
    coloring. They are called without ``best`` and ``goal``. Every run of
    ``search.solve``'s interval-set split is one (a k-set ``req``), and so
    are the first-solution searches of ``solve``, ``sample`` and
    ``chromatic_index``. Only these take ``req`` or ``rng``; an optimizing
    run given either raises ValueError. They go through ``decide``.

    * The window mask keeps every ``req`` vertex undoomed. At an edge whose
      endpoint x is in ``req`` and already has a colored edge, the colors
      tried are cut to ``_window(used, d)`` for x's color mask ``used`` and
      d = deg(x): exactly the colors that keep x's span within d. The
      window depends on those two alone, so each run looks it up in a
      table of its own per degree, keyed by color mask and filled from
      ``_window`` on first use; a run without ``req`` builds no table. The
      colors it removes are the children that would doom x, each a dead
      end, so the run explores, in the same order, the tree that pruning
      each such child would leave, and does not count those children in
      ``nodes``.
    * So the first leaf makes all of ``req`` interval and ends the run
      "bound-met". ``best`` leaves as its f, counted once at the leaf as
      the vertices whose colors are one run of bits, or as its default -1
      when the run finds no coloring. Each level writes its color into
      ``colors`` only as the run returns through it, so ``colors`` holds a
      complete witness only after a "bound-met" return.
    *Optimizing runs*, ``mu2`` True or False, are ``solve``'s plain mu2 and
    mu1 runs. They maximize a score, f when ``mu2`` and n - f otherwise,
    enter with the incumbent's score ``best`` (-1 for none) and stop at a
    leaf whose score reaches ``goal``. They go through ``rec``, which counts
    the vertices already settled against the score:

    * for mu2, the doomed vertices, each watched until it is doomed, so
      f <= n - settled below;
    * for mu1, the complete interval vertices, each watched at its last
      edge, so n - f <= n - settled below.

    At a leaf every vertex is complete, and n - settled is the score
    itself. So one test, n - settled <= best, both prunes a child that
    cannot beat ``best`` and skips a leaf that does not. ``best`` leaves as
    the best score over the explored space and the entering incumbent.

    ``reflect`` turns on the symmetry chain: a lex-leader symmetry-breaking
    constraint (Crawford, Ginsberg, Luks and Roy, KR 1996) carried down a
    stabilizer chain. Let G_l be the automorphisms of g that fix ``req``
    setwise and each of ``order[0..l-1]`` setwise (G_0 is all of Aut(g) at
    ``req=0``), and O_l the orbit of ``order[l]`` under G_l, level l of
    ``_orbit_chain(g, req, order)``. At level 0, ``order[0]`` takes
    colors <= ceil(t/2) only, the reflection cut; at each level l, the
    color ``order[l]`` takes is a floor for every other edge of O_l, its
    mates: the colors >= it are ANDed into each mate's step mask as the
    run descends, and the masks are restored as it backs up. For every valid
    coloring c with interval set T, some valid c' obeying the cut and
    every floor has an automorphic image of T as its interval set, by an
    automorphism that fixes ``req``; so c' keeps f, and keeps ``req``
    interval when c does. By induction over the levels:

    * Before level 0, reflection: k -> t+1-k maps valid colorings to valid
      colorings and each spectrum to its mirror image, an interval exactly
      when the spectrum is one, so T stays. If min c > ceil(t/2) on O_0,
      then max c >= floor(t/2) + 1 there, so the reflected coloring has
      its minimum on O_0 <= ceil(t/2); take it for c. No other color
      permutation preserves f.
    * Level l, for a c that obeys the floors of the levels before l: some
      s in G_l maps ``order[l]`` onto an edge of O_l where c is least.
      Then c' = c o s is valid (s maps edges sharing a vertex to edges
      sharing a vertex, and all edges onto all edges), and c' >=
      c'(``order[l]``) on O_l, which s maps onto itself. The spectrum of v
      under c' is that of s(v) under c, so c' has interval set s^-1(T),
      and s^-1(``req``) = ``req``. Each earlier level j keeps its floor:
      s lies in G_l, within G_j, so it fixes ``order[j]`` setwise and maps
      O_j onto itself, and c' agrees with c on ``order[j]`` and takes on
      O_j the colors c takes there. At l = 0, c'(``order[0]``) is the
      least color on O_0, so <= ceil(t/2); later levels fix ``order[0]``
      and keep its color.

    The c' of the last level obeys every floor on all of each O_l, so the
    floors may name any part of an orbit: a finder that runs out of budget
    and ends the chain at part of a level stays sound, and the levels past
    its end hold no floor. The colors below c'(``order[0]``) lie outside
    O_0, so c'(``order[0]``) <= m - |O_0| + 1 as well: when O_0 is every
    edge, ``order[0]`` gets color 1 alone, the root rule. The kernel takes
    that cap with the reflection cut into the first step mask. A level
    with mates is searched by ``floored``, one color of its edge at a time,
    each written into the mates' step masks before the pass; the step
    before it names ``floored`` as the loop of the next depth, and every
    other step names the job's own loop, ``decide`` or ``rec``. So a level
    without mates, and a run without the chain, goes through that loop
    alone, with no floor test at any node. The chain holds for minimizing,
    maximizing and first-solution searches alike, and for any edge order.

    A first-solution run (``mu2=None`` with ``req=0``) ends at its first
    leaf, so deeper floors could only move that leaf; it takes level 0
    alone, the levels of any prefix being sound by the same induction. It
    reads that level off the whole chain, which it shares with every other
    run of the same g and order at ``req`` 0 or V.
    Its color-1 subtree of ``order[0]`` keeps every child, and without
    ``rng`` colors are tried lowest first, so a first-solution run that
    ends inside that subtree runs and returns exactly as it would with the
    reflection cut alone.

    ``chromatic_index`` asks for any proper coloring in [1,t] at t = max
    degree. Surjectivity pruning loses none there, since a max-degree
    vertex sees all t colors, and the chain loses none, since reflection
    and automorphisms keep colorings proper.
    """
    n, m = g.n, g.m
    if mu2 is not None and (req or rng is not None):
        raise ValueError("req and rng need a decision run (mu2=None)")
    if t > m:  # no coloring of m edges uses all t colors
        return best, None, 0, "exhausted"
    if order is None:
        order = _most_constrained_order(g, req)
    deg = g.degrees
    full = (1 << t) - 1
    first_mask = full
    mates: list[tuple[int, ...]] = []  # per level, the depths of its mates
    if reflect:  # keyed by the partition {req, V - req}
        chain = _orbit_chain(g, min(req, req ^ ((1 << n) - 1)), tuple(order))
        if mu2 is None and not req:  # a first solution: level 0 alone
            chain = chain[:1]
        mates = [tuple(level)[1:] for level in chain]
        cap = m - len(mates[0])  # m - |O_0| + 1
        first_mask = (1 << min((t + 1) // 2, cap)) - 1
    last_at = [0] * n  # depth at which each vertex gets its last edge
    for d, bi in enumerate(order):
        u, v = g.edges[bi]
        last_at[u] = last_at[v] = d
    used = [0] * n
    colors = [0] * m  # color bits; a witness holds the colors 1..t
    leaf = m - 1

    witness: list[int] | None = None
    nodes = 0
    # the next node count at which a budget is tested: the node limit, or
    # before it the next multiple of 2,048 where the deadline is read
    check = node_limit if deadline is None else min(node_limit, 2048)

    def over() -> bool:
        """Whether the budget stops the run at ``nodes >= check``."""
        nonlocal check
        if nodes >= node_limit or time.monotonic() > deadline:
            return True
        check = min(node_limit, nodes + 2048)
        return False

    def decide(depth: int, unused: int, unused_bits: int) -> str | None:
        # a decision run: the window mask, looked up in the run's table for
        # the endpoint's degree, keeps req undoomed; the first leaf ends the
        # run, and each level writes its color only as the run returns
        nonlocal nodes
        bi, u, v, du, dv, top, _, _, remaining, tu, tv, down = steps[depth]
        uu, uv = used[u], used[v]
        avail = top & ~(uu | uv)
        if unused == remaining:
            avail &= unused_bits
        if tu is not None and uu:  # the window mask: keep u's span within du
            try:
                window = tu[uu]
            except KeyError:
                window = tu[uu] = _window(uu, du)
            avail &= window
        if tv is not None and uv:
            try:
                window = tv[uv]
            except KeyError:
                window = tv[uv] = _window(uv, dv)
            avail &= window
        while avail:
            bit = avail & -avail if rng is None else _random_bit(avail, rng)
            avail ^= bit
            nodes += 1
            if nodes >= check and over():
                return "budget"
            used[u], used[v] = uu | bit, uv | bit
            if depth == leaf:  # proper, and surjective as unused hit 0
                colors[bi] = bit
                return "bound-met"
            if unused_bits & bit:
                tag = down(depth + 1, unused - 1, unused_bits ^ bit)
            else:
                tag = down(depth + 1, unused, unused_bits)
            if tag:
                colors[bi] = bit
                return tag
        used[u], used[v] = uu, uv
        return None

    def rec(depth: int, settled: int, unused: int,
            unused_bits: int) -> str | None:
        # an optimizing run: maximize the score, f for mu2, n - f for mu1
        nonlocal best, witness, nodes
        bi, u, v, du, dv, top, wu, wv, remaining, _, _, down = steps[depth]
        uu, uv = used[u], used[v]
        avail = top & ~(uu | uv)
        if unused == remaining:
            avail &= unused_bits
        wu = wu and (not uu or uu < (uu & -uu) << du)  # not yet doomed
        wv = wv and (not uv or uv < (uv & -uv) << dv)
        while avail:
            bit = avail & -avail
            avail ^= bit
            nodes += 1
            if nodes >= check and over():
                return "budget"
            colors[bi] = bit
            s = settled  # settled: doomed for mu2, interval for mu1
            a = uu | bit
            if wu and (a >= (a & -a) << du) == mu2:
                s += 1
            b = uv | bit
            if wv and (b >= (b & -b) << dv) == mu2:
                s += 1
            if n - s <= best:  # no better score below, leaf or not
                continue
            if depth == leaf:  # proper, and surjective as unused hit 0
                best = n - s
                witness = [c.bit_length() for c in colors]
                if best >= goal:
                    return "bound-met"
                continue
            used[u], used[v] = a, b
            if unused_bits & bit:
                tag = down(depth + 1, s, unused - 1, unused_bits ^ bit)
            else:
                tag = down(depth + 1, s, unused, unused_bits)
            if tag:
                return tag
        used[u], used[v] = uu, uv
        return None

    def floored(depth: int, *args) -> str | None:
        # a level with mates: one pass of the job's loop per color of its
        # edge, that color first written as the mates' floor; the level's
        # own mask and its mates' are restored as the run leaves it
        step = steps[depth]
        saved = [(d, steps[d]) for d in mates[depth]]
        left = step[5] & ~(used[step[1]] | used[step[2]])
        tag = None
        while left and not tag:
            bit = left & -left if rng is None else _random_bit(left, rng)
            left ^= bit
            steps[depth] = (*step[:5], bit, *step[6:])
            for d, s in saved:
                steps[d] = (*s[:5], s[5] & -bit, *s[6:])
            tag = job(depth, *args)
        steps[depth] = step
        for d, s in saved:
            steps[d] = s
        return tag

    job = decide if mu2 is None else rec
    windows: dict[int, dict[int, int]] = {}  # per degree: mask -> window
    steps = []  # rec watches mu2 endpoints at every edge, mu1 at their last
    for d, bi in enumerate(order):
        u, v = g.edges[bi]
        tu = windows.setdefault(deg[u], {}) if req >> u & 1 else None
        tv = windows.setdefault(deg[v], {}) if req >> v & 1 else None
        steps.append((bi, u, v, deg[u], deg[v], first_mask if d == 0 else full,
                      mu2 or last_at[u] == d, mu2 or last_at[v] == d, m - d,
                      tu, tv, job))
    start = job
    for lvl, mine in enumerate(mates):
        # a level with mates is entered through floored, from the step
        # before it or at the start
        if mine and lvl:
            steps[lvl - 1] = (*steps[lvl - 1][:11], floored)
        elif mine:
            start = floored
    tag = start(0, t, full) if mu2 is None else start(0, 0, t, full)
    if tag == "bound-met" and mu2 is None:
        # f: the vertices whose colors are one run
        best = sum(not (x + (x & -x)) & x for x in used)
        witness = [c.bit_length() for c in colors]
    return best, witness, nodes, tag or "exhausted"


@lru_cache(maxsize=None)
def chromatic_index(g: Graph) -> int:
    """Least t admitting a proper edge coloring with colors [1,t].

    Searches at t = max degree; failing that, max degree + 1 always works
    (Vizing).
    """
    d = g.max_degree()
    if _search(g, d)[3] == "bound-met":
        return d
    return d + 1


# ---------------------------------------------------------------------------
# vertex deletion

def delete_vertex(g: Graph, label: str) -> Graph:
    """Remove a vertex and its incident edges; edge indices re-densify.

    Rejects deletions that disconnect the graph or empty its edge set.
    """
    vi = g.vertex_index(label)
    vertices = [lab for i, lab in enumerate(g.vertices) if i != vi]
    edges = [(a, b) for (a, b) in g.edge_labels if a != label and b != label]
    if not edges:
        raise GraphError(f"deleting {label} leaves no edges")
    try:
        return Graph.from_labels(f"{g.name}-del-{label}", vertices, edges)
    except GraphError as exc:
        raise GraphError(f"deleting {label} from {g.name}: {exc}") from None


# ---------------------------------------------------------------------------
# JSON interchange

def graph_to_dict(g: Graph) -> dict:
    return {"name": g.name,
            "vertices": list(g.vertices),
            "edges": [[a, b] for a, b in g.edge_labels]}


def graph_from_dict(d: dict) -> Graph:
    if not isinstance(d, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("name", "vertices", "edges"):
        if key not in d:
            raise GraphError(f"graph document missing {key!r}")
    for key in ("vertices", "edges"):
        if not isinstance(d[key], list):
            raise GraphError(f"graph {key} must be a list, got {d[key]!r}")
    edges = []
    for e in d["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphError(f"bad edge entry {e!r}")
        edges.append((str(e[0]), str(e[1])))
    return Graph.from_labels(str(d["name"]), [str(v) for v in d["vertices"]], edges)


def load_graph(path: str) -> Graph:
    import json  # here, so that importing the package skips json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GraphError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise GraphError(f"{path}: invalid JSON (nested too deeply)") from None
    return graph_from_dict(doc)
