"""Exact branch-and-bound for the extremal interval-vertex counts.

``solve`` computes mu1(G,t) = min f and mu2(G,t) = max f over all valid
t-colorings of G. ``sample`` draws seeded random members of that space.
Both walk it with the one search kernel, ``graphs._search``, which also
decides ``chromatic_index``: a depth-first search over edges with color
bitmasks, pruned by properness, surjectivity feasibility, a symmetry
chain and bounds on f. The symmetry chain gives the first edge colors
<= ceil(t/2) only (the reflection k -> t+1-k), and at each depth makes
the color of that depth's edge a floor for the other edges of its orbit
under the automorphisms that fix the run's required vertex set and every
earlier edge. Reflection, then at each depth an automorphism that moves
the least-colored orbit edge onto that depth's edge, turn any valid
coloring into one that obeys every floor and keeps its interval set up
to those automorphisms: each fixes the earlier edges and maps their
orbits onto themselves. When the first orbit is every edge, the first
edge gets color 1 alone.
A kernel run has one of two jobs, named in the call. An optimizing run
maximizes one score, f for mu2 and n - f for mu1, bounded by the vertices
already settled against it: for mu2 a vertex whose colors already span
more than its degree is interval in no completion, and for mu1 a vertex
whose last edge left it interval stays so. A decision run is asked for by
its required vertex set ``req`` and looks for a valid coloring that makes
all of it interval (``req=0``: any valid coloring). The kernel's docstring
states each rule and why it is sound.

``solve`` decides mu2 from the top down instead of raising an incumbent:
"f >= k" holds exactly when some k-set of vertices is interval under
some valid coloring, automorphisms carry interval sets onto interval
sets, so one k-set per orbit decides it; with symmetry off every k-set
is tried, each its own representative. The sets are tried most slack
first: fewest edges inside the set, then the largest span cap, then the
orbit table's order. Any order is sound, since k is refuted only after
every set was tried once; this one lets an easy set close the cell
before the hard ones are paid. Before its run, a set S is refuted at 0
nodes by the span rule when t exceeds ``structural.span_cap(g, S)``:
colors climb by at most deg - 1 across each interval vertex of a path
inside a component of G[S], so the colors at each component span a
bounded range, and each edge outside S adds one color more. Every other
set is decided by a decision run with the set as ``req``, which never
dooms a vertex of the set: it colors the edges at the set's vertices
first and, at each of them, tries only the colors that keep the vertex's
span within its degree (the window mask), so those runs neither make nor
count a child that would doom one. Each refuted k is recorded as
interval-set-orbits evidence, which lists the sets and, per set, its
``span_cap`` when the span rule refuted it. The orbits are those of the
maps of every level of the automorphism chain (``graphs._generators``),
which generate Aut(G); the split leaves a k to one plain optimizing run
only when there are too many k-sets to walk, a choice made from C(n,k)
alone, in every config.

Runs may be seeded with catalog colorings and structural bounds; when the
resulting lower and upper bounds meet, the outcome is exact without any
search. ``profile`` sweeps every legal t, then aggregates the four
extremal values by interval arithmetic over the per-t bounds, so a profile
can certify an aggregate exactly even when middle rows stay open. Each
row's witness is carried up to the next t (``_carry_up``): an edge e whose
color class has two edges or more takes a color p, and every color >= p
moves up by one, which turns a valid (t-1)-coloring into a valid
t-coloring that often keeps its f. The moves with p = 1 and p = t, which
change only e's ends, are tried first, the walk stops at the first image
that meets the cell's cap, and the best image enters the next row's
solve as its incumbent, checked, when it beats any catalog seed. The
image is a valid coloring, so it raises lo only to a value some coloring
attains, and a search that enters with a better incumbent walks a part
of the tree it would have walked, in the same order.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from enum import Enum

from .coloring import (Certificate, EdgeColoring, _keyed_colors, analyze,
                       rebind, require_valid)
from .graphs import (Graph, GraphError, Record, chromatic_index, edge_key,
                     is_petersen_labeled, set_labels)
from .graphs import _search, _subset_orbits
from .structural import (BoundEvidence, EvidenceKind, mu1_floors, mu2_caps,
                         span_cap)


#: Node budget ``profile`` gives each (t, objective) cell by default.
PROFILE_NODE_LIMIT = 200_000


class Objective(Enum):
    MU1 = "mu1"
    MU2 = "mu2"


class SolveStatus(Enum):
    EXACT = "exact"
    BOUNDS_ONLY = "bounds-only"


class SearchConfig(Record):
    """Budget and strategy knobs for solve and profile.

    ``node_limit`` is the budget of one solve; ``profile`` gives it to each
    (t, objective) cell and by default sets it to ``PROFILE_NODE_LIMIT``,
    so a full sweep stays fast while single solves default to a deep one.
    ``time_limit_ms`` sets a solve's deadline: no kernel run starts after
    it, and a run reads the clock every 2,048 nodes. Both budgets must be
    ints, not bools (a nan budget would never stop a search), and the
    three switches must be bools.
    ``use_reflection_symmetry`` switches every use of symmetry: the search
    kernel's symmetry chain (the first edge limited to colors <= ceil(t/2)
    by reflection, and at each depth every other edge of that depth's
    edge's orbit, under the automorphisms that fix the run's required set
    and the earlier edges, held at or above that edge's color; color 1
    alone when the first orbit is every edge) and the orbit reduction of
    the interval-set split of mu2, which without it tries every k-set. It
    chooses no algorithm: mu2 goes to the split either way. It governs
    the search's symmetry rules only: a structural premise may use
    automorphisms to shorten its own proof (``mu22_cap_cubic`` deletes
    one vertex per orbit), with the same value either way.
    ``seed_fixtures`` and ``use_structural_bounds`` install the entering
    bounds: catalog colorings (Petersen only) as incumbent witnesses, and
    the structural caps on mu2 and floors on mu1. Both are sound, so every
    entering bound rests on a witness or on an argument that can be
    replayed. ``use_structural_bounds`` also gates the span rule of the
    interval-set split, a structural argument too; with it off, the
    split's sets are decided by search alone.
    """

    __slots__ = ("node_limit", "time_limit_ms", "use_reflection_symmetry",
                 "seed_fixtures", "use_structural_bounds")

    def __init__(self, node_limit: int = 10**8, time_limit_ms: int | None = None,
                 use_reflection_symmetry: bool = True, seed_fixtures: bool = True,
                 use_structural_bounds: bool = True):
        if type(node_limit) is not int or node_limit < 1:
            raise ValueError("node_limit must be an integer >= 1")
        if time_limit_ms is not None and (
                type(time_limit_ms) is not int or time_limit_ms < 1):
            raise ValueError("time_limit_ms must be an integer >= 1")
        object.__setattr__(self, "node_limit", node_limit)
        object.__setattr__(self, "time_limit_ms", time_limit_ms)
        for name, value in (("use_reflection_symmetry", use_reflection_symmetry),
                            ("seed_fixtures", seed_fixtures),
                            ("use_structural_bounds", use_structural_bounds)):
            if type(value) is not bool:
                raise ValueError(f"{name} must be a bool")
            object.__setattr__(self, name, value)


class _Bounds(Record):
    """``lo <= value <= hi``; exact, with that value, when they meet."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def status(self) -> SolveStatus:
        return SolveStatus.EXACT if self.lo == self.hi else SolveStatus.BOUNDS_ONLY

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int | None:
        return self.lo if self.is_exact else None


class SearchOutcome(_Bounds):
    """Result of one solve: exact value or certified bounds.

    ``lo <= mu <= hi`` always, and ``status`` is read off them: exact
    means lo == hi. For mu1 the witness (always present when exact)
    attains hi, for mu2 it attains lo (``witness_f``); either way a
    witness is a valid coloring whose f equals the bound it certifies.
    ``closed_by`` is read off the bounds and the runs: budget while
    lo < hi; bounds-closed when no run reached the kernel, because the
    entering bounds met (a witness carried from t-1 that meets the cap
    among them) or the split refuted every value above the incumbent by
    span caps alone; bound-met when the value is the entering
    bound a witness can meet (hi for mu2, lo for mu1); and exhausted when
    every better value was refuted.
    """

    __slots__ = ("objective", "t", "witness", "nodes_visited", "closed_by",
                 "evidence")

    def __init__(self, lo: int, hi: int, objective: Objective, t: int,
                 witness: EdgeColoring | None, nodes_visited: int, closed_by: str,
                 evidence: tuple[BoundEvidence, ...] = ()):
        super().__init__(lo, hi)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "nodes_visited", nodes_visited)
        object.__setattr__(self, "closed_by", closed_by)
        object.__setattr__(self, "evidence", evidence)

    @property
    def witness_f(self) -> int:
        """The f a witness attains: the bound it certifies."""
        return self.lo if self.objective is Objective.MU2 else self.hi

    def to_dict(self, g: Graph) -> dict:
        doc: dict = {
            "objective": self.objective.value,
            "t": self.t,
            "status": self.status.value,
            "lo": self.lo,
            "hi": self.hi,
            "value": self.value,
            "nodes_visited": self.nodes_visited,
            "closed_by": self.closed_by,
        }
        if self.witness is not None:
            doc["witness"] = _keyed_colors(g, self.witness.colors)
            doc["witness_f"] = self.witness_f
        if self.evidence:
            doc["evidence"] = [e.to_dict() for e in self.evidence]
        return doc


def legal_t_range(g: Graph) -> range:
    """Every t admitting a valid coloring: chromatic index up to |E|."""
    return range(chromatic_index(g), g.m + 1)


def _require_legal_t(g: Graph, t: int) -> None:
    if type(t) is not int:  # 4.0 and True compare equal to legal ints
        raise GraphError(f"t must be an integer, got {t!r}")
    r = legal_t_range(g)
    if t not in r:
        raise GraphError(
            f"t={t} outside [{r.start}, {r.stop - 1}] for {g.name}")


def _fixture_seeds(g: Graph, t: int) -> list[tuple[str, Certificate]]:
    """Catalog colorings applicable to this graph at this t, by name. Each
    one's f is its ``claim_f``, checked when the catalog was built, and
    ``rebind`` carries it onto g. The aliases ``psi0`` and ``lambda0`` come
    after ``psi`` and ``epsilon``, so ``solve``, which takes only a strictly
    better seed, never takes them."""
    if not is_petersen_labeled(g):
        return []
    from .fixtures import fixtures

    return [(name, cert) for name, cert in fixtures().items() if cert.t == t]


def solve(g: Graph, t: int, objective: Objective,
          cfg: SearchConfig = SearchConfig(), *,
          carry: EdgeColoring | None = None) -> SearchOutcome:
    """Compute mu1(g,t) or mu2(g,t), exactly when the budget allows.

    The solve works on one score to maximize, f for mu2 and n - f for mu1:
    the incumbent (-1 for none), the entering bounds and every optimizing
    run are scores, and (lo, hi) is translated back to f once, at the end.
    Bounds from catalog colorings and structural arguments are installed
    first: the incumbent gives lo, and the mu2 caps, or n minus the mu1
    floors, cut hi from n. Each seed is recorded as evidence on its side:
    a coloring's f bounds mu2 from below and mu1 from above.

    ``carry``, a valid (t-1)-coloring of g (``profile`` passes the row
    below's witness of the same objective), is used only while the cell
    is still open: its best one-move image (``_carry_up``, which stops at
    the first image whose score reaches hi) is checked by ``analyze`` and
    becomes the incumbent when its score beats the seeded one's, with
    evidence naming the move. It is sound and never loosens the cell: the
    image is a checked coloring, so it moves lo only to a value some
    coloring attains; the split then walks a prefix of the same per-k runs
    and skips its first-solution run, and a plain run that enters with a
    better incumbent visits a subset of the same nodes, in the same order.
    A carry at another t raises ValueError, and an invalid one raises
    InvalidColoringError once it is used. Without ``carry`` no move is
    made.

    If the bounds already meet, no search runs. Otherwise
    branch-and-bound raises the incumbent toward hi until the two meet or
    the budget runs out, in which case the outcome carries the tightest
    (lo, hi) established.

    mu2 goes to the split first (``_descend``), which applies when the
    k-sets at hi have an orbit table: k runs from hi down, each "f >= k"
    decided on one k-set per orbit (every k-set with symmetry off), each
    refuted k a new hi with its evidence, until a witness closes the cell
    or the k-sets grow too many to walk. The plain kernel decides what
    the split leaves, or the whole cell where it does not apply, in one
    optimizing run with goal hi. Every kernel run of the solve goes
    through ``run``, which takes the kernel's job arguments (``req`` for
    a decision run, the score's ``mu2``, ``best`` and ``goal`` for an
    optimizing one), starts no run once the deadline has passed, spends
    what is left of the one node budget and makes any coloring it finds
    the witness; a budget or time stop leaves the refuted hi and the
    incumbent witness.
    """
    _require_legal_t(g, t)
    if carry is not None and carry.t != t - 1:
        raise ValueError(f"carry must be a {t - 1}-coloring, got t={carry.t}")
    mu2 = objective is Objective.MU2
    n = g.n
    evidence: list[BoundEvidence] = []
    side = (EvidenceKind.CERTIFICATE_LOWER_BOUND if mu2
            else EvidenceKind.CERTIFICATE_UPPER_BOUND)

    # the search works on a score to maximize: f for mu2, n - f for mu1
    best = -1  # the incumbent's score
    witness: EdgeColoring | None = None
    if cfg.seed_fixtures:
        for name, cert in _fixture_seeds(g, t):
            f = cert.claim_f
            if (score := f if mu2 else n - f) > best:
                best, witness = score, rebind(cert, g)
                evidence.append(BoundEvidence(
                    kind=side,
                    value=f,
                    applies_t=t,
                    detail=f"catalog coloring {name} achieves f={f} at t={t}"))

    # entering score bounds: the incumbent below, n above, cut by the
    # structural caps on mu2 or floors on mu1
    lo, hi = max(best, 0), n
    if cfg.use_structural_bounds:
        for ev in mu2_caps(g, t) if mu2 else mu1_floors(g, t):
            evidence.append(ev)
            hi = min(hi, ev.value if mu2 else n - ev.value)

    if carry is not None and lo < hi:
        require_valid(g, carry)
        moved = _carry_up(g, carry, mu2, hi)
        if moved is not None:
            image, ei, p = moved
            f = analyze(g, image).f
            if (score := f if mu2 else n - f) > best:
                best, witness = score, image
                lo = best
                evidence.append(BoundEvidence(
                    kind=side,
                    value=f,
                    applies_t=t,
                    detail=(f"coloring carried from t={t - 1} achieves f={f} "
                            f"at t={t}: edge {edge_key(*g.edge_labels[ei])} "
                            f"takes color {p}")))

    bound = hi  # the entering bound a witness can meet
    searched, nodes = False, 0  # searched: some run reached the kernel
    if lo < hi:
        deadline = (time.monotonic() + cfg.time_limit_ms / 1000.0
                    if cfg.time_limit_ms is not None else None)

        def run(mu2: bool | None = None, best: int = -1, goal: int = 0,
                req: int = 0):
            """One kernel run on what is left of the node and time budgets;
            none starts once the deadline has passed."""
            nonlocal searched, nodes, witness
            if deadline is not None and time.monotonic() > deadline:
                return best, 0, "budget"
            searched = True
            score, colors, used, tag = _search(
                g, t, mu2, best, goal, reflect=cfg.use_reflection_symmetry,
                req=req, node_limit=cfg.node_limit - nodes, deadline=deadline)
            nodes += used
            if colors is not None:
                witness = EdgeColoring(t=t, colors=tuple(colors))
            return score, used, tag

        tag = None
        if mu2:
            best, hi, tag = _descend(g, t, best, hi, run, evidence,
                                     cfg.use_structural_bounds,
                                     cfg.use_reflection_symmetry)
        if tag is None:
            best, _, tag = run(mu2, best, hi)
        if tag != "budget":  # exhausted or bound-met: best is the optimum
            lo = hi = best
        else:  # a budget stop leaves best short of hi, so lo < hi
            lo = max(best, 0)
    closed_by = ("budget" if lo < hi else "bounds-closed" if not searched
                 else "bound-met" if lo == bound else "exhausted")
    if not mu2:
        lo, hi = n - hi, n - lo
    if lo > hi:  # catalog colorings and structural caps are both sound
        raise RuntimeError(
            f"inconsistent bounds [{lo}, {hi}] for {objective.value} at t={t}")
    return _checked(g, SearchOutcome(
        objective=objective, t=t, lo=lo, hi=hi,
        witness=witness, nodes_visited=nodes, closed_by=closed_by,
        evidence=tuple(evidence)))


def _carry_up(g: Graph, c: EdgeColoring, mu2: bool, goal: int
              ) -> tuple[EdgeColoring, int, int] | None:
    """The best one-move image of a valid coloring c at t = c.t + 1.

    A move picks an edge e whose color class has at least two edges and a
    color p in 1..t: every color >= p moves up by one, and e takes p. The
    image is proper, since no other edge keeps color p, and surjective,
    since e's old class keeps an edge. Images are scored as ``solve``
    scores them, f for mu2 and n - f for mu1, on vertex masks: for each p
    every mask is shifted once and its interval vertices counted, and then
    moving e changes only the masks at e's two ends. p = 1 and p = t come
    first, since there the shift keeps every vertex's interval status (at
    p = 1 every color moves up, at p = t none does), then p = 2..t-1, each
    over the movable edges in index order. The first image of the best
    score wins, so the result is deterministic, and the walk stops at the
    first image whose score reaches ``goal``. Returns ``(image, e, p)``,
    or None when every color class is a single edge.
    """
    t, colors, n = c.t + 1, c.colors, g.n
    size = [0] * t
    for k in colors:
        size[k] += 1
    movable = [(ei, u, v, colors[ei]) for ei, (u, v) in enumerate(g.edges)
               if size[colors[ei]] > 1]
    if not movable:
        return None
    masks = [0] * n
    for (u, v), k in zip(g.edges, colors):
        masks[u] |= 1 << k
        masks[v] |= 1 << k

    def scored():
        for p in (1, t, *range(2, t)):
            low = (1 << p) - 1  # the bits of the colors below p stay
            shifted = [m & low | (m & ~low) << 1 for m in masks]
            interval = [not (m + (m & -m)) & m for m in shifted]
            base, bit = sum(interval), 1 << p
            for ei, u, v, k in movable:
                old = 1 << (k if k < p else k + 1)
                mu, mv = shifted[u] ^ old | bit, shifted[v] ^ old | bit
                f = (base - interval[u] - interval[v]
                     + (not (mu + (mu & -mu)) & mu)
                     + (not (mv + (mv & -mv)) & mv))
                yield (f if mu2 else n - f), ei, p

    top, move = -1, None
    for score, ei, p in scored():
        if score > top:
            top, move = score, (ei, p)
            if score >= goal:
                break
    ei, p = move
    image = tuple(p if i == ei else k if k < p else k + 1
                  for i, k in enumerate(colors))
    return EdgeColoring(t=t, colors=image), ei, p


def _descend(g: Graph, t: int, best: int, hi: int, run,
             evidence: list[BoundEvidence], spans: bool, symmetric: bool):
    """Lower mu2's hi by deciding "f >= k" one interval-set orbit at a time.

    f >= k holds exactly when some k-set S is interval under some valid
    coloring, and an automorphism s turns a coloring with interval set T
    into one with interval set s(T), so one S per orbit of k-sets decides
    it: the representatives are the masks that
    ``_subset_orbits(g, k, symmetric)`` maps to themselves, every k-set
    when not ``symmetric`` (the solve's ``use_reflection_symmetry``).
    They are tried most slack first (``_slack_order``: fewest edges
    inside S, then the largest span cap, then the table's order), and
    each is one decision ``run`` with ``req=S``. Any order is sound,
    since every representative is tried exactly once before k is
    refuted; the order only lets a set that is easy to make interval
    close the cell before the hard ones are paid. The first coloring
    found has f = k, since hi is a cap, and closes the cell; when every
    representative fails, hi drops to k-1 and an interval-set-orbits
    record lists them, in the order tried, with their nodes and their
    span caps. Without an incumbent, a first-solution run (``req=0``)
    supplies one. The split stops at the first k where C(n,k) is too
    large to walk (the table is None), hi included, and leaves the rest
    to ``solve``'s plain run. It reaches the kernel, the node budget and
    the clock only through ``run``.

    With ``spans`` (the solve's ``use_structural_bounds``), each
    representative S is first checked by the span rule, before any run:
    when t > ``span_cap(g, S)``, no valid t-coloring makes S interval
    (along a path inside a component of G[S] each vertex lets the colors
    climb by at most its degree minus 1, which bounds the colors at that
    component, and each edge with no endpoint in S holds one color). S is
    refuted at 0 nodes, and the record's ``span_caps`` entry for S is that
    cap; the entry of a set that a run refuted is None. At k = n the one
    set is V, so above ``span_cap(g, V)`` the split caps f at n - 1 with
    no search.
    Returns ``(best, hi, tag)``: tag "budget" on a budget or time stop,
    None when the plain kernel must decide f >= hi, and otherwise the
    cell is closed at best == hi.
    """
    if _subset_orbits(g, hi, symmetric) is None:
        return best, hi, None
    if best < 0:
        best, _, tag = run(req=0)
        if tag == "budget":
            return best, hi, tag
    for k in range(hi, best, -1):
        orbit_of = _subset_orbits(g, k, symmetric)
        if orbit_of is None:
            return best, k, None
        reps, spent, caps = [], [], []
        for req in _slack_order(g, [s for s, r in orbit_of.items() if s == r]):
            if spans and t > (cap := span_cap(g, req)):
                used = 0
            else:
                _, used, tag = run(req=req)
                if tag == "budget":
                    return best, k, tag
                if tag == "bound-met":  # a witness with f = k
                    return k, k, tag
                cap = None
            reps.append(req)
            spent.append(used)
            caps.append(cap)
        evidence.append(BoundEvidence(
            kind=EvidenceKind.INTERVAL_SET_ORBITS,
            value=k - 1,
            applies_t=t,
            detail=(f"no valid {t}-coloring makes a whole {k}-set of "
                    f"vertices interval ({len(reps)} sets tried, "
                    + ("one per orbit under automorphisms" if symmetric
                       else f"every {k}-set")
                    + f"), so f <= {k - 1} at t={t}"),
            payload={"k": k,
                     "representatives": [list(set_labels(g, s)) for s in reps],
                     "nodes": spent,
                     "span_caps": caps}))
    return best, best, "exhausted"


def _slack_order(g: Graph, reps: list[int]) -> Iterator[int]:
    """The representatives most slack first: fewest edges inside the set,
    then the largest ``span_cap``, then table position.

    An edge with an endpoint outside S meets a vertex whose colors need
    not form an interval, and a larger span cap leaves the colors more
    room to climb, so such a set is likely made interval in few nodes.
    The order decides nothing: f >= k holds when any representative is
    interval, and each is tried exactly once.

    Lazy: the sets are grouped by their inside-edge count, and a group's
    span caps are computed only when the caller reaches it, so a k that
    its first sets close pays no cap for the rest. The order is that of
    the stable sort on (inside edges, -span_cap).
    """
    groups: dict[int, list[int]] = {}
    for s in reps:
        inside = sum(s >> u & 1 and s >> v & 1 for u, v in g.edges)
        groups.setdefault(inside, []).append(s)
    for inside in sorted(groups):
        yield from sorted(groups[inside], key=lambda s: -span_cap(g, s))


def _checked(g: Graph, outcome: SearchOutcome) -> SearchOutcome:
    """Final guard: an exact outcome has a witness, and any witness must
    validate and attain its bound."""
    w = outcome.witness
    if outcome.is_exact and w is None:
        raise RuntimeError(
            f"exact {outcome.objective.value}={outcome.value} at t={outcome.t} "
            f"has no witness")
    if w is not None:
        f = analyze(g, w).f
        if f != outcome.witness_f:
            raise RuntimeError(
                f"witness f={f} does not match reported bound {outcome.witness_f}")
    return outcome


class AggregateBound(_Bounds):
    """Interval for an aggregate extremal value.

    Aggregating min over rows [lo_i, hi_i] gives [min lo_i, min hi_i];
    max gives [max lo_i, max hi_i]. Exact when the interval collapses,
    which can happen even when individual rows stay open.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "status": self.status.value,
                "value": self.value}


def _aggregate(rows: list[SearchOutcome], pick) -> AggregateBound:
    """``pick`` (min or max) taken over the rows' lo and over their hi."""
    return AggregateBound(lo=pick(r.lo for r in rows), hi=pick(r.hi for r in rows))


class ProfileRow(Record):
    __slots__ = ("t", "mu1", "mu2")

    def __init__(self, t: int, mu1: SearchOutcome, mu2: SearchOutcome):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)


class MuProfile(Record):
    """Per-t outcomes for both objectives plus the four aggregates, which
    ``__init__`` computes from the rows."""

    __slots__ = ("graph", "rows", "mu11", "mu12", "mu21", "mu22")

    def __init__(self, graph: Graph, rows: tuple[ProfileRow, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "rows", rows)
        mu1s = [r.mu1 for r in rows]
        mu2s = [r.mu2 for r in rows]
        object.__setattr__(self, "mu11", _aggregate(mu1s, min))
        object.__setattr__(self, "mu12", _aggregate(mu1s, max))
        object.__setattr__(self, "mu21", _aggregate(mu2s, min))
        object.__setattr__(self, "mu22", _aggregate(mu2s, max))

    def row(self, t: int) -> ProfileRow:
        for r in self.rows:
            if r.t == t:
                return r
        raise KeyError(f"no row for t={t}")

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.name,
            "t_range": [self.rows[0].t, self.rows[-1].t],
            "rows": [{"t": r.t,
                      "mu1": r.mu1.to_dict(self.graph),
                      "mu2": r.mu2.to_dict(self.graph)} for r in self.rows],
            "aggregates": {"mu11": self.mu11.to_dict(),
                           "mu12": self.mu12.to_dict(),
                           "mu21": self.mu21.to_dict(),
                           "mu22": self.mu22.to_dict()},
        }


def profile(g: Graph,
            cfg: SearchConfig = SearchConfig(node_limit=PROFILE_NODE_LIMIT)
            ) -> MuProfile:
    """Solve both objectives at every legal t and aggregate.

    Each run gets cfg.node_limit nodes. Rows left open by the budget still
    contribute their bounds, and the aggregate intervals often collapse
    anyway. The rows are solved from the lowest t up, and each row's
    witness, mu1 and mu2 kept apart, is the next row's ``carry``: while
    that cell is open, ``solve`` moves the witness up one t (an edge e of
    a color class with two edges or more takes a color p, and every color
    >= p moves up by one), trying p = 1 and p = t first, stopping at the
    first image that meets the cell's cap, and takes the best image as its
    incumbent when it beats any catalog seed. A carried witness that meets
    the cap closes the cell with no search (closed_by "bounds-closed").
    The carry only raises incumbents with checked colorings, so no row's
    interval is wider than its standalone solve's.
    """
    rows, w1, w2 = [], None, None
    for t in legal_t_range(g):
        mu1 = solve(g, t, Objective.MU1, cfg, carry=w1)
        mu2 = solve(g, t, Objective.MU2, cfg, carry=w2)
        rows.append(ProfileRow(t=t, mu1=mu1, mu2=mu2))
        w1, w2 = mu1.witness, mu2.witness
    return MuProfile(graph=g, rows=tuple(rows))


def sample(g: Graph, t: int, seed: int = 0, count: int = 1) -> list[EdgeColoring]:
    """Pseudo-random valid t-colorings, deterministic per seed.

    Each draw runs up to 32 first-solution searches of 100,000 nodes with a
    shuffled edge order and random color order. If all of them cap out
    (possible only on adversarial instances, never observed on the test
    corpus), one deterministic first-solution search without a budget
    decides; a legal t always has a coloring, so it finds one.
    """
    import random  # here, so that importing the package skips random

    _require_legal_t(g, t)
    rng = random.Random(seed)
    out: list[EdgeColoring] = []
    for _ in range(count):
        colors = None
        for _attempt in range(32):
            order = list(range(g.m))
            rng.shuffle(order)
            colors = _search(g, t, order=order, rng=rng, reflect=False,
                             node_limit=100_000)[1]
            if colors is not None:
                break
        if colors is None:
            colors = _search(g, t)[1]
        c = EdgeColoring(t=t, colors=tuple(colors))
        require_valid(g, c)
        out.append(c)
    return out
