"""The benchmark's workloads: inputs made from a seed, one repetition, checks.

Each workload builds its inputs once from the workload seed, then ``rep``
runs one repetition and checks every output it produced. Library calls go
through module attributes (``search.solve``, ``cli.main``, ...) so that the
tracer's wrappers see them.

* ``Profile``: ``mu-spectra profile --graph petersen --json``, the paper's
  headline command, at default settings. Branch-and-bound at a fixed budget
  per cell dominates. The seed is unused.
* ``Exact``: six cells run to proof: bare Petersen (no catalog seeds, no
  structural bounds) t=4 mu1/mu2, t=5 mu2, t=6 mu2; default-config Petersen
  t=9 mu2 through ``mu-spectra solve``; bare K5 t=8 mu2. The seed relabels
  each graph by one of its automorphisms: the declared vertex and edge order
  is permuted in label space while the index structure the search sees is
  unchanged, so node counts do not depend on the seed, and the labeled edge
  set is unchanged, so catalog seeding still applies.
* ``Certify``: the verification path with no branch-and-bound: colorings
  drawn with ``sample`` at every legal t, each written as certificate JSON,
  parsed and checked, then checked again after one mutation that must be
  rejected; every catalog entry through ``mu-spectra verify``; and the
  ``mu-spectra lemmas`` replay with the library's caches cleared.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from mu_spectra import cli, coloring, graphs, search

fixtures_mod = importlib.import_module("mu_spectra.fixtures")

ROOT = Path(__file__).resolve().parent.parent

# Cell values proven at the seed commit (exhaustive search, or a witness
# meeting a structural bound). A cell reported exact must equal its entry,
# and an open cell's bounds must contain it.
PETERSEN_VALUES = {
    **{(t, "mu1"): 0 for t in range(5, 16)},
    (4, "mu1"): 2,
    **{(t, "mu2"): 8 for t in range(4, 9)},
    (15, "mu2"): 6,
}
HEADLINE = {"mu11": 0, "mu12": 2, "mu21": 6, "mu22": 8}

LEMMA_COUNTS = {
    "chromatic-index": {"chromatic_index": 4},
    "not-interval-colorable": {"cap": 9},
    "matchings-intersect": {"matchings": 6, "pairs": 15, "intersecting_pairs": 15},
    "large-subsets-obstructed": {"subsets": 176, "obstructed": 176},
    "vertex-deletions-chromatic-index": {"deletions": 10, "with_chromatic_index_4": 10},
    "max-path-forest": {"max_subset": 6},
}

SAMPLES_PER_T = 40
WITNESS_CHECKS = 5  # each witness certificate is checked this many times
MUTATIONS = ("range", "clash", "drop", "claim")


class Checks:
    """Output checks: each one is an operation attempted; failures counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class RepResult:
    """What one repetition measured besides its wall time."""

    verify_spans: list[tuple[float, float]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def reference_f(edges, colors: dict, t: int) -> int | None:
    """f of a coloring given as {"a-b": color}; None unless it is a valid t-coloring.

    Written independently of the library so that a checker that accepts
    too much cannot go unnoticed.
    """
    if len(colors) != len(edges):
        return None
    spectra: dict[str, set[int]] = {}
    used = set()
    for a, b in edges:
        c = colors.get(f"{a}-{b}", colors.get(f"{b}-{a}"))
        if type(c) is not int or not 1 <= c <= t:
            return None
        used.add(c)
        for v in (a, b):
            s = spectra.setdefault(v, set())
            if c in s:
                return None
            s.add(c)
    if len(used) != t:
        return None
    return sum(max(s) - min(s) == len(s) - 1 for s in spectra.values())


def verify(doc: dict) -> tuple[bool, tuple[float, float]]:
    """Parse and check one certificate document; (accepted, (start, end))."""
    t0 = time.perf_counter()
    try:
        ok = coloring.check_certificate(coloring.Certificate.from_dict(doc)).ok
    except ValueError:  # GraphError: the document was refused at parse time
        ok = False
    return ok, (t0, time.perf_counter())


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """Run ``mu-spectra <argv>`` in process; (exit code, parsed JSON report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    try:
        return rc, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return rc, None


def check_witness(checks: Checks, res: RepResult, where: str, edges,
                  doc: dict, claimed_f: int) -> None:
    """A witness must be valid with f as claimed, and its certificate accepted.

    The certificate is checked ``WITNESS_CHECKS`` times so that the few
    witnesses of a repetition still give a steady median check time.
    """
    checks.expect(reference_f(edges, doc["colors"], doc["t"]) == claimed_f,
                  f"{where}: witness is not a valid coloring with f={claimed_f}")
    for _ in range(WITNESS_CHECKS):
        ok, span = verify(doc)
        res.verify_spans.append(span)
        checks.expect(ok, f"{where}: witness certificate rejected")


def witness_doc(spec: str, t: int, cell: dict) -> dict:
    return {"graph": spec, "t": t, "colors": cell["witness"],
            "claims": {"f": cell["witness_f"]}}


class Profile:
    def __init__(self, seed: int, tiny: bool = False):
        self.argv = ["profile", "--graph", "petersen", "--json"]
        if tiny:
            # the aggregates close from catalog and structural bounds alone
            self.argv += ["--node-limit", "2000"]
        self.edges = graphs.petersen().edge_labels

    def rep(self, checks: Checks) -> RepResult:
        res = RepResult()
        rc, doc = run_cli(self.argv)
        if not checks.expect(rc == 0 and doc is not None, f"profile exited {rc}"):
            return res
        prof = doc["profile"]
        for name, want in HEADLINE.items():
            agg = prof["aggregates"][name]
            checks.expect(agg["status"] == "exact" and agg["value"] == want,
                          f"{name} = {agg}, expected exact {want}")
        nodes = exact = gap = 0
        for row in prof["rows"]:
            t = row["t"]
            for obj in ("mu1", "mu2"):
                cell, where = row[obj], f"profile t={t} {obj}"
                nodes += cell["nodes_visited"]
                exact += cell["status"] == "exact"
                gap += cell["hi"] - cell["lo"]
                known = PETERSEN_VALUES.get((t, obj))
                checks.expect(cell["lo"] <= cell["hi"] and (
                    known is None or cell["lo"] <= known <= cell["hi"]),
                    f"{where}: [{cell['lo']}, {cell['hi']}] vs proven {known}")
                if not checks.expect("witness" in cell, f"{where}: no witness"):
                    continue
                attained = cell["lo"] if obj == "mu2" else cell["hi"]
                checks.expect(cell["witness_f"] == attained,
                              f"{where}: witness f={cell['witness_f']} != {attained}")
                check_witness(checks, res, where, self.edges,
                              witness_doc("petersen", t, cell), cell["witness_f"])
        res.counts = {"nodes": nodes, "exact_cells": exact, "open_gap": gap}
        return res

    def close(self) -> None:
        pass


def automorphisms(g) -> list[tuple[int, ...]]:
    """Every vertex permutation of g preserving adjacency, identity first."""
    n = g.n
    adj = [{w for w, _ in g.adjacency[v]} for v in range(n)]
    img = [-1] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(img))
            return
        for w in range(n):
            if used[w] or len(adj[w]) != len(adj[v]):
                continue
            if all((img[u] in adj[w]) == (u in adj[v]) for u in range(v)):
                img[v], used[w] = w, True
                extend(v + 1)
                img[v], used[w] = -1, False

    extend(0)
    return out


def relabel(g, rng: random.Random | None):
    """g with vertex i renamed to the label of sigma(i), sigma an automorphism
    drawn with ``rng`` (the identity without one)."""
    autos = automorphisms(g)
    sigma = autos[rng.randrange(len(autos))] if rng else autos[0]
    names = [g.vertices[sigma[v]] for v in range(g.n)]
    edges = [(names[u], names[v]) for u, v in g.edges]
    return graphs.Graph.from_labels(g.name, names, edges)


# (graph spec, t, objective, bare, proven value)
EXACT_CELLS = (
    ("petersen", 4, "mu1", True, 2),
    ("petersen", 4, "mu2", True, 8),
    ("petersen", 5, "mu2", True, 8),
    ("petersen", 6, "mu2", True, 8),
    ("petersen", 9, "mu2", False, 8),
    ("complete:5", 8, "mu2", True, 3),
)
BARE = search.SearchConfig(seed_fixtures=False, use_structural_bounds=False)


class Exact:
    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed) if seed else None
        self.graphs = {spec: relabel(graphs.from_spec(spec), rng)
                       for spec in ("petersen", "complete:5")}
        self.cells = EXACT_CELLS[:1] if tiny else EXACT_CELLS
        # the default-config cell runs through the CLI, which reads graph files
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.graph_file = self.tmp / "petersen.json"
        self.graph_file.write_text(
            json.dumps(graphs.graph_to_dict(self.graphs["petersen"])))

    def rep(self, checks: Checks) -> RepResult:
        res = RepResult()
        nodes = 0
        for spec, t, obj, bare, value in self.cells:
            g = self.graphs[spec]
            where = f"exact {spec}{' bare' if bare else ''} t={t} {obj}"
            if bare:
                out = search.solve(g, t, search.Objective(obj), BARE)
                cell, doc = out.to_dict(g), None
            else:
                rc, report = run_cli(["solve", "--graph", f"@{self.graph_file}",
                                      "--t", str(t), "--objective", obj, "--json"])
                if not checks.expect(rc == 0 and report is not None,
                                     f"{where}: solve exited {rc}"):
                    continue
                cell, doc = report["outcome"], report.get("witness_certificate")
            nodes += cell["nodes_visited"]
            checks.expect(cell["status"] == "exact" and cell["value"] == value,
                          f"{where}: {cell['status']} [{cell['lo']}, {cell['hi']}], "
                          f"expected exact {value}")
            if not checks.expect("witness" in cell, f"{where}: no witness"):
                continue
            check_witness(checks, res, where, g.edge_labels,
                          doc or witness_doc(spec, t, cell), value)
        res.counts = {"nodes": nodes}
        return res

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def mutate(doc: dict, edges, kind: str, r: int) -> dict:
    """A copy of a valid certificate that must be rejected."""
    colors = dict(doc["colors"])
    out = {**doc, "colors": colors, "claims": dict(doc["claims"])}
    a, b = edges[r % len(edges)]
    key = f"{a}-{b}"
    if kind == "range":
        colors[key] = doc["t"] + 1
    elif kind == "clash":
        # another edge at a takes this edge's color
        other = next(f"{x}-{y}" for x, y in edges[r % len(edges) + 1:] + edges
                     if a in (x, y) and (x, y) != (a, b))
        colors[other] = colors[key]
    elif kind == "drop":
        # one more color claimed than the coloring uses
        out["t"] = doc["t"] + 1
    else:
        out["claims"]["f"] = doc["claims"]["f"] + 1
    return out


class Certify:
    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.g = graphs.petersen()
        self.edges = list(self.g.edge_labels)
        ts = list(search.legal_t_range(self.g))
        self.per_t = 2 if tiny else SAMPLES_PER_T
        self.draws = [(t, rng.randrange(2**31)) for t in ts[:1 if tiny else None]]
        self.mutations = [(rng.choice(MUTATIONS), rng.randrange(2**31))
                          for _ in range(len(self.draws) * self.per_t)]
        names = sorted(fixtures_mod.fixtures())
        self.catalog = names[:1] if tiny else names

    def rep(self, checks: Checks) -> RepResult:
        res = RepResult()
        mutations = iter(self.mutations)
        samples = 0
        for t, seed in self.draws:
            for c in search.sample(self.g, t, seed=seed, count=self.per_t):
                samples += 1
                colors = {f"{a}-{b}": c.colors[i] for i, (a, b) in enumerate(self.edges)}
                f = reference_f(self.edges, colors, t)
                where = f"sample t={t} seed={seed}"
                if not checks.expect(f is not None, f"{where}: not a valid coloring"):
                    continue
                doc = {"graph": "petersen", "t": t, "colors": colors, "claims": {"f": f}}
                ok, span = verify(doc)
                res.verify_spans.append(span)
                checks.expect(ok, f"{where}: valid certificate rejected")
                kind, r = next(mutations)
                ok, span = verify(mutate(doc, self.edges, kind, r))
                res.verify_spans.append(span)
                checks.expect(not ok, f"{where}: {kind} mutant accepted")
        for name in self.catalog:
            rc, report = run_cli(["verify", name, "--json"])
            checks.expect(rc == 0 and report is not None and report["ok"]
                          and report["f"] == report["claims"]["f"],
                          f"verify {name} exited {rc}")
        # a fresh `mu-spectra lemmas` process starts with empty caches
        for fn in (graphs.chromatic_index, graphs.all_perfect_matchings,
                   fixtures_mod.fixtures):
            while not hasattr(fn, "cache_clear"):  # under the tracer's wrapper
                fn = fn.__wrapped__
            fn.cache_clear()
        rc, report = run_cli(["lemmas", "--json"])
        if checks.expect(rc == 0 and report is not None and report["ok"],
                         f"lemmas exited {rc}"):
            got = {c["name"]: c["counts"] for c in report["checks"]}
            checks.expect(got == LEMMA_COUNTS, f"lemma counts {got}")
        res.counts = {"samples": samples}
        return res

    def close(self) -> None:
        pass


WORKLOADS = {"profile": Profile, "exact": Exact, "certify": Certify}
