"""Published interval-colorability theorems as oracles past enumeration.

mu2(G,t) = |V| exactly when G has an interval t-coloring, so each family
below pins mu2 at every legal t on both sides of its range. These graphs
have up to 12 edges, beyond the brute-force corpus of 7.
"""

import math

import pytest

from mu_spectra import Graph, Objective, cycle, legal_t_range, solve


def complete_bipartite(a: int, b: int) -> Graph:
    left = [f"a{i}" for i in range(a)]
    right = [f"b{j}" for j in range(b)]
    return Graph.from_labels(f"K{a},{b}", left + right,
                             [(x, y) for x in left for y in right])


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n,k): an outer cycle u_i, spokes u_i v_i, and inner edges
    v_i ~ v_{i+k}, indices mod n, for 1 <= k < n/2."""
    outer = [f"u{i}" for i in range(n)]
    inner = [f"v{i}" for i in range(n)]
    return Graph.from_labels(
        f"GP({n},{k})", outer + inner,
        [(outer[i], outer[(i + 1) % n]) for i in range(n)]
        + [(outer[i], inner[i]) for i in range(n)]
        + [(inner[i], inner[(i + k) % n]) for i in range(n)])


def hypercube(d: int) -> Graph:
    labels = [format(i, f"0{d}b") for i in range(2**d)]
    return Graph.from_labels(f"Q{d}", labels, [
        (labels[i], labels[i ^ 1 << bit])
        for i in range(2**d) for bit in range(d) if i < i ^ 1 << bit])


# (graph, the t at which it is interval t-colorable)
FAMILIES = [
    # Asratian & Kamalian, J. Combin. Theory B 62 (1994):
    # m+n-gcd(m,n) <= t <= m+n-1
    *[(complete_bipartite(a, b), range(a + b - math.gcd(a, b), a + b))
      for a, b in [(2, 3), (3, 3), (2, 4), (3, 4)]],
    # an even cycle C_2k: 2 <= t <= k+1
    (cycle(8), range(2, 6)),
    # Petrosyan, Discrete Math. 310 (2010): Q_n for n <= t <= n(n+1)/2
    (hypercube(3), range(3, 7)),
]


@pytest.mark.parametrize("g,interval_ts", FAMILIES,
                         ids=[g.name for g, _ in FAMILIES])
def test_mu2_is_n_exactly_where_an_interval_coloring_exists(g, interval_ts):
    got = {}
    for t in legal_t_range(g):
        out = solve(g, t, Objective.MU2)
        assert out.is_exact, (t, out.lo, out.hi)
        got[t] = out.value == g.n
    assert got == {t: t in interval_ts for t in legal_t_range(g)}
