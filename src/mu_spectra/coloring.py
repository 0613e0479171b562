"""Proper edge colorings, vertex spectra, and serializable certificates.

A coloring assigns a color from [1,t] to every edge index of a graph; it is
valid when adjacent edges differ and every one of the t colors occurs. The
spectrum of a vertex is the set of colors on its incident edges, and the
quantity of interest everywhere is f = the number of vertices whose spectrum
is an interval of consecutive integers.

Checking is one pass over bitmasks (``_interval_set``): edge i contributes
``1 << colors[i]``, and each vertex ORs in the bits of its edges. The
coloring is proper iff every vertex mask has as many bits as the vertex
has edges, surjective iff the masks together hold exactly bits 1..t, and
a vertex is interval iff its mask is one run of set bits, so the same pass
that decides validity yields the interval vertices. The pass reads
``(g, t, colors)``, so a certificate is checked without building a
coloring record. The per-edge walk that names each clash, out-of-range
color and unused color (``_violations``) runs only when the pass fails,
to explain the failure; a color not equal to an integer in [1,t] is out
of range, so every valid coloring passes.

Edge keys ("a-b", either endpoint order) reach edge indices one way, by a
lookup in ``Graph.edge_keys``: certificates, the catalog's patches and the
catalog seeds that ``rebind`` carries onto a graph all resolve through it.
A key that spells two different edges is an input error, and a
certificate that ``to_dict`` writes reads back unless two of its edges
share a spelling.
"""

from __future__ import annotations

from collections.abc import Mapping

from .graphs import (
    MAX_EDGES,
    Graph,
    GraphError,
    Record,
    edge_key,
    from_spec,
    graph_from_dict,
    graph_to_dict,
)


class InvalidColoringError(ValueError):
    """Raised when an operation requires a valid coloring and got violations."""

    def __init__(self, violations: tuple["Violation", ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


class EdgeColoring(Record):
    """Total color assignment: ``colors[i]`` is the color of edge ``i``."""

    __slots__ = ("t", "colors")

    def __init__(self, t: int, colors: tuple[int, ...]):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "colors", colors)


class Violation(Record):
    __slots__ = ("kind",      # "shape" | "range" | "properness" | "surjectivity"
                 "where",     # vertex label, edge description, or color
                 "message")

    def __init__(self, kind: str, where: str, message: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "message", message)


def is_interval(colors) -> bool:
    """True iff the set is a nonempty run of consecutive integers."""
    s = set(colors)
    if not s:
        raise ValueError("interval test needs a nonempty set")
    return max(s) - min(s) == len(s) - 1


def spectrum(g: Graph, c: EdgeColoring, label: str) -> frozenset[int]:
    """Colors on the edges incident to a vertex."""
    vi = g.vertex_index(label)
    return frozenset(c.colors[ei] for _, ei in g.adjacency[vi])


#: Color -> its bit, for every color a graph within MAX_EDGES can use.
_BIT = {color: 1 << color for color in range(1, MAX_EDGES + 1)}


def _interval_set(g: Graph, t, colors) -> int | None:
    """The interval vertices of a valid coloring as a vertex mask, else None.

    It reads a coloring as its ``t`` and its ``colors``, so that a
    certificate is checked without building an ``EdgeColoring``. One pass
    over bitmasks decides validity and reads the spectra: None on
    a t that is not an int in [1, m], where a shift by t could be
    unbounded, on a wrong number of colors, on a color that is not an
    integer in [1, MAX_EDGES], at the first vertex whose mask has fewer
    bits than it has edges (a clash), and when the masks together do not
    hold exactly bits 1..t (a color above t, or one unused). A vertex is
    interval iff its mask is one run of set bits: adding the lowest set
    bit then carries through the whole run and clears it. None exactly
    when ``_violations``' walk reports a violation.
    """
    m = g.m
    if not isinstance(t, int) or not 1 <= t <= m or len(colors) != m:
        return None
    try:
        bits = list(map(_BIT.__getitem__, colors))
    except (KeyError, TypeError):  # no color, or unhashable, such as [1]
        return None
    full = v_int = 0
    for vi, (edges, degree) in enumerate(zip(g.incident, g.degrees)):
        mask = 0
        for ei in edges:
            mask |= bits[ei]
        if mask.bit_count() != degree:
            return None
        full |= mask
        if not (mask + (mask & -mask)) & mask:
            v_int |= 1 << vi
    return v_int if full == ((1 << t) - 1) << 1 else None


def validate(g: Graph, c: EdgeColoring) -> tuple[Violation, ...]:
    """All violations of properness, surjectivity, and color range.

    Empty result means the coloring is a member of alpha(g, t). The mask
    pass decides; only a coloring it does not pass is walked edge by edge
    (``_violations``), so hand-edited certificates get full diagnostics.
    Never raises.
    """
    if _interval_set(g, c.t, c.colors) is not None:
        return ()
    return _violations(g, c)


def _violations(g: Graph, c: EdgeColoring) -> tuple[Violation, ...]:
    """The diagnostic walk of a coloring the mask pass did not pass.

    It reports every violation rather than the first. A t that is not an
    int and a wrong number of colors are each one shape violation, and with
    t > m not all t colors fit on the m edges, which is one surjectivity
    violation rather than one per missing color. A color that is not a
    number (a string, None, a list) is one range violation and clashes with
    no other color. ``validate``, ``analyze`` and ``check_certificate``
    call it only once their own mask pass has failed, so each rejected
    coloring costs one pass. Never raises.
    """
    if not isinstance(c.t, int):
        return (Violation("shape", "t", f"t must be an integer, got {c.t!r}"),)
    if len(c.colors) != g.m:
        return (Violation("shape", g.name,
                          f"expected {g.m} edge colors, got {len(c.colors)}"),)
    out: list[Violation] = []
    numbers: list = []  # each edge's color, None where it is not a number
    for ei, col in enumerate(c.colors):
        try:  # the mask pass looks colors up by hash: [1] is no color either
            hash(col)
            in_range = 1 <= col <= c.t and not col % 1  # 1.5 is no color
        except TypeError:  # not a number, such as "a", None or [1]
            in_range, col = False, None
        numbers.append(col)
        if not in_range:
            a, b = g.edge_labels[ei]
            out.append(Violation("range", f"({a},{b})", f"color {c.colors[ei]} "
                                 f"on edge ({a},{b}) outside [1,{c.t}]"))
    for vi, label in enumerate(g.vertices):
        seen: dict[int, int] = {}
        for _, ei in g.adjacency[vi]:
            col = numbers[ei]
            if col is None:
                continue
            if col in seen:
                a1, b1 = g.edge_labels[seen[col]]
                a2, b2 = g.edge_labels[ei]
                out.append(Violation(
                    "properness", label,
                    f"edges ({a1},{b1}) and ({a2},{b2}) at {label} share color {col}"))
            else:
                seen[col] = ei
    if c.t > g.m:
        out.append(Violation("surjectivity", str(c.t),
                             f"{c.t} colors cannot all appear on {g.m} edges"))
    else:
        for col in sorted(set(range(1, c.t + 1)) - set(numbers)):
            out.append(Violation("surjectivity", str(col), f"color {col} unused"))
    return tuple(out)


def is_valid(g: Graph, c: EdgeColoring) -> bool:
    return not validate(g, c)


def require_valid(g: Graph, c: EdgeColoring) -> None:
    violations = validate(g, c)
    if violations:
        raise InvalidColoringError(violations)


class SpectrumReport(Record):
    """The interval vertices of one valid coloring."""

    __slots__ = ("v_int",)  # bitmask over vertex indices

    def __init__(self, v_int: int):
        object.__setattr__(self, "v_int", v_int)

    @property
    def f(self) -> int:
        return self.v_int.bit_count()


def analyze(g: Graph, c: EdgeColoring) -> SpectrumReport:
    """Interval vertices and f for a valid coloring; raises on an invalid one."""
    v_int = _interval_set(g, c.t, c.colors)
    if v_int is None:
        raise InvalidColoringError(_violations(g, c))
    return SpectrumReport(v_int=v_int)


def reflect(c: EdgeColoring) -> EdgeColoring:
    """Replace each color k by t+1-k.

    An involution on valid colorings; it maps intervals to intervals, so
    every spectrum keeps its interval status and f is unchanged.
    """
    return EdgeColoring(t=c.t, colors=tuple(c.t + 1 - k for k in c.colors))


# ---------------------------------------------------------------------------
# certificates

# A document's fields are checked inline, where they are read: verify is a
# hot path. These build the error for a field that failed its check.

def _not_int(value, what: str) -> GraphError:
    """The error for an integer field that is no int (a bool, float or null)."""
    return GraphError(f"{what} must be an integer, got {value!r}")


def _not_object(value, what: str) -> GraphError:
    return GraphError(f"{what} must be an object, got {value!r}")


def _keyed_colors(g: Graph, colors) -> dict[str, int]:
    """Colors aligned with g's edge indices, keyed by certificate edge key."""
    return {edge_key(a, b): colors[i] for i, (a, b) in enumerate(g.edge_labels)}


def _parse_edge_key(key: str, g: Graph) -> int:
    """Resolve 'a-b' to an edge index, accepting either endpoint order."""
    ei = g.edge_keys.get(key)
    if ei is None:
        raise GraphError(f"edge key {key!r} is not an edge of {g.name}")
    if ei < 0:
        raise GraphError(f"edge key {key!r} names more than one edge of {g.name}")
    return ei


def _aligned(g: Graph, keyed: Mapping) -> tuple[int, ...]:
    """Colors keyed by edge key, aligned with g's edge indices: each key
    must name one edge of g, each edge be colored once, and each color be
    an int. An edge not yet colored holds None."""
    keys = g.edge_keys
    colors: list = [None] * g.m
    for key, value in keyed.items():
        ei = keys.get(key, -1)
        if ei < 0:  # raises, unless a key that is not a str spells an edge
            ei = _parse_edge_key(str(key), g)
        if colors[ei] is not None:
            raise GraphError(f"edge {key!r} colored twice")
        if type(value) is not int:
            raise GraphError(f"color of edge {key!r} must be an integer, "
                             f"got {value!r}")
        colors[ei] = value
    if None in colors:
        missing = [edge_key(a, b) for (a, b), col in zip(g.edge_labels, colors)
                   if col is None]
        raise GraphError(f"certificate misses edges: {', '.join(missing)}")
    return tuple(colors)


class Certificate(Record):
    """A (graph, t, coloring, claims) bundle for independent re-verification.

    ``colors`` is aligned with the graph's edge indices. ``source`` records
    the catalog name when the graph was referenced by name, so serialization
    round-trips without inlining.
    """

    __slots__ = ("graph", "t", "colors", "claim_f", "claim_intervals", "source")

    def __init__(self, graph: Graph, t: int, colors: tuple[int, ...],
                 claim_f: int | None = None,
                 claim_intervals: tuple[tuple[str, bool], ...] | None = None,
                 source: str | None = None):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "claim_f", claim_f)
        object.__setattr__(self, "claim_intervals", claim_intervals)
        object.__setattr__(self, "source", source)

    def coloring(self) -> EdgeColoring:
        return EdgeColoring(t=self.t, colors=self.colors)

    def to_dict(self) -> dict:
        doc: dict = {
            "graph": self.source if self.source else graph_to_dict(self.graph),
            "t": self.t,
            "colors": _keyed_colors(self.graph, self.colors),
        }
        claims: dict = {}
        if self.claim_f is not None:
            claims["f"] = self.claim_f
        if self.claim_intervals is not None:
            claims["interval"] = dict(self.claim_intervals)
        if claims:
            doc["claims"] = claims
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise GraphError("certificate must be a JSON object")
        try:  # in this order, so that the first missing key is named
            gfield, t, keyed = doc["graph"], doc["t"], doc["colors"]
        except KeyError as exc:
            raise GraphError(f"certificate missing {exc.args[0]!r}") from None
        if isinstance(gfield, str):
            graph = from_spec(gfield)
            source: str | None = gfield
        else:
            graph = graph_from_dict(gfield)
            source = None
        if type(t) is not int:
            raise _not_int(t, "certificate t")
        if type(keyed) is not dict and not isinstance(keyed, Mapping):
            raise _not_object(keyed, "certificate colors")
        colors = _aligned(graph, keyed)
        claim_f = claim_intervals = None
        if "claims" in doc:
            claims = doc["claims"]
            if type(claims) is not dict and not isinstance(claims, Mapping):
                raise _not_object(claims, "certificate claims")
            if "f" in claims:
                claim_f = claims["f"]
                if type(claim_f) is not int:
                    raise _not_int(claim_f, "claimed f")
            if "interval" in claims:
                flags = claims["interval"]
                if not isinstance(flags, Mapping):
                    raise _not_object(flags, "claimed interval flags")
                for k, v in flags.items():
                    if not isinstance(v, bool):
                        raise GraphError(f"interval flag of {k!r} must be a "
                                         f"boolean, got {v!r}")
                claim_intervals = tuple(sorted((str(k), v) for k, v in flags.items()))
        return cls(graph, t, colors, claim_f, claim_intervals, source)


class CertificateCheck(Record):
    """Outcome of re-verifying a certificate against its own claims."""

    __slots__ = ("violations", "f", "mismatches")

    def __init__(self, violations: tuple[Violation, ...], f: int | None,
                 mismatches: tuple[str, ...] = ()):
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "mismatches", mismatches)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches


def check_certificate(cert: Certificate) -> CertificateCheck:
    """Validate the coloring and recompute everything the certificate claims.

    The mask pass reads the certificate's own fields; an ``EdgeColoring``
    is built only for the diagnostic walk of a rejected one.
    """
    g = cert.graph
    v_int = _interval_set(g, cert.t, cert.colors)
    if v_int is None:
        return CertificateCheck(_violations(g, cert.coloring()), None)
    f = v_int.bit_count()
    mismatches: list[str] = []
    if cert.claim_f is not None and f != cert.claim_f:
        mismatches.append(f"claimed f={cert.claim_f}, recomputed f={f}")
    if cert.claim_intervals is not None:
        for label, expected in cert.claim_intervals:
            actual = bool(v_int >> g.vertex_index(label) & 1)
            if actual != expected:
                mismatches.append(
                    f"claimed interval[{label}]={expected}, recomputed {actual}")
    return CertificateCheck((), f, tuple(mismatches))


def rebind(cert: Certificate, g: Graph) -> EdgeColoring:
    """Carry a certificate's coloring onto a graph with the same labeled edges.

    Matching is by edge key, as a certificate document is read, so the
    target's edge indexing may differ.
    """
    return EdgeColoring(t=cert.t,
                        colors=_aligned(g, _keyed_colors(cert.graph, cert.colors)))
