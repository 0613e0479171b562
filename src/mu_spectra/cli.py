"""Command-line interface: verify, solve, profile, lemmas.

Exit codes: 0 success / all claims hold, 1 semantic failure (invalid
coloring, claim mismatch, failed check), 2 input error (unparseable file,
unknown graph, illegal t). Reports are deterministic for fixed inputs;
wall-clock timing is only attached on request so that default output is
byte-identical across runs.

``main(argv)`` may be called repeatedly in one process, as the tests and
the benchmark do. It builds its parser once, on the first call, and
dispatches each command to ``cmd_<command>``, looked up in this module when
the call runs. A single ``mu-spectra`` command builds the parser once either
way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path

from .coloring import Certificate, check_certificate
from .fixtures import fixtures
from .graphs import (
    Graph,
    GraphError,
    from_spec,
    is_petersen_labeled,
    load_graph,
)
from .search import (PROFILE_NODE_LIMIT, Objective, SearchConfig, legal_t_range,
                     profile, solve)
from .structural import (
    mu1_floor_from_matchings,
    mu22_cap_cubic,
    mu22_cap_from_noninterval,
    mu2_top_cap,
    mu2_top_cap_from_obstructions,
)


def resolve_graph(spec: str) -> Graph:
    """Catalog name (petersen, cycle:<n>, ...) or @path to a JSON file."""
    if spec.startswith("@"):
        return load_graph(spec[1:])
    return from_spec(spec)


def _load_certificate(arg: str) -> tuple[str, dict]:
    """(source, document): the file at the literal path if there is one,
    else, for a bare name with no directory part, the catalog entry of that
    name with or without ``.json``; the source is the path or the name."""
    p = Path(arg)
    try:
        is_file = p.is_file()
    except OSError:  # the system refuses the name (too long, say): no file
        is_file = False
    if is_file:
        try:
            return str(p), json.loads(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise GraphError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise GraphError(f"{p}: not UTF-8 ({exc})") from None
        except json.JSONDecodeError as exc:
            raise GraphError(
                f"{p}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise GraphError(f"{p}: JSON nested too deeply") from None
    name, catalog = arg.removesuffix(".json"), fixtures()
    if p.name == arg and name in catalog:
        return name, catalog[name].to_dict()
    raise FileNotFoundError(
        f"certificate not found: {arg} (no such file, and only a bare name "
        f"is looked up in the catalog)")


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for a
    tree of dicts with str keys, lists, tuples, str, int, float, bool and
    None; ``nl`` is a newline plus the indent of obj's own line.

    On Python 3.11 ``indent`` sends ``json.dumps`` to its pure-Python
    generator encoder. This writes each string with the C escaper that
    encoder uses and joins each container's items at once, in about half
    its time on the Petersen profile report. Types are matched exactly, so
    a subclass (an IntEnum, say) is refused, and cycles are not checked.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    inner = nl + "  "
    if kind is dict:
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())]) + nl + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _dumps(v, inner) for v in obj]) + nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is float:
        if obj != obj:
            return "NaN"
        if obj == inf:
            return "Infinity"
        if obj == -inf:
            return "-Infinity"
        return repr(obj)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, args, human_lines: list[str]) -> None:
    if args.timing:
        report["elapsed_ms"] = round(
            (time.perf_counter() - args._t0) * 1000, 1)
    if args.json:
        print(_dumps(report))
    else:
        for line in human_lines:
            print(line)
        if args.timing:
            print(f"elapsed: {report['elapsed_ms']} ms")


def _search_config(args) -> SearchConfig:
    kwargs: dict = {"use_reflection_symmetry": not args.no_symmetry}
    if args.node_limit is not None:
        kwargs["node_limit"] = args.node_limit
    if args.time_limit_ms is not None:
        kwargs["time_limit_ms"] = args.time_limit_ms
    return SearchConfig(**kwargs)


def cmd_verify(args) -> int:
    source, doc = _load_certificate(args.certificate)
    cert = Certificate.from_dict(doc)
    result = check_certificate(cert)
    report = {
        "command": "verify",
        "file": source,
        "graph": cert.graph.summary(),
        "t": cert.t,
        "claims": doc.get("claims", {}),
        "ok": result.ok,
        "f": result.f,
        "violations": [{"kind": v.kind, "where": v.where, "message": v.message}
                       for v in result.violations],
        "mismatches": list(result.mismatches),
    }
    lines = [f"verify {source}",
             f"graph: {cert.graph.name} ({cert.graph.n} vertices, "
             f"{cert.graph.m} edges), t={cert.t}"]
    if result.violations:
        lines += [f"  violation[{v.kind}] at {v.where}: {v.message}"
                  for v in result.violations]
    else:
        lines.append(f"coloring: valid, f={result.f}")
        lines += [f"  mismatch: {m}" for m in result.mismatches]
    lines.append("PASS" if result.ok else "FAIL")
    _emit(report, args, lines)
    return 0 if result.ok else 1


def _witness_certificate(g: Graph, outcome, graph_arg: str) -> dict | None:
    """The witness as a certificate; ``search.solve`` has already checked
    that it is valid and attains ``outcome.witness_f``."""
    if outcome.witness is None:
        return None
    source = None if graph_arg.startswith("@") else graph_arg
    cert = Certificate(graph=g, t=outcome.t, colors=outcome.witness.colors,
                       claim_f=outcome.witness_f, source=source)
    return cert.to_dict()


def cmd_solve(args) -> int:
    g = resolve_graph(args.graph)
    objective = Objective(args.objective)
    cfg = _search_config(args)
    outcome = solve(g, args.t, objective, cfg)
    report = {
        "command": "solve",
        "graph": g.summary(),
        "outcome": outcome.to_dict(g),
    }
    wcert = _witness_certificate(g, outcome, args.graph)
    if wcert is not None:
        report["witness_certificate"] = wcert
    lines = [f"solve {g.name} t={outcome.t} objective={objective.value}"]
    if outcome.is_exact:
        lines.append(f"status: exact  value: {outcome.value}")
    else:
        lines.append(f"status: bounds-only  lo={outcome.lo} hi={outcome.hi}")
    lines.append(f"nodes visited: {outcome.nodes_visited}  "
                 f"closed by: {outcome.closed_by}")
    for e in outcome.evidence:
        lines.append(f"  evidence[{e.kind.value}] value {e.value}: {e.detail}")
    if wcert is not None:
        lines.append(f"witness (f={wcert['claims']['f']}), certificate JSON:")
        lines.append(_dumps(wcert))
    _emit(report, args, lines)
    return 0


def cmd_profile(args) -> int:
    g = resolve_graph(args.graph)
    cfg = _search_config(args)
    prof = profile(g, cfg)
    report = {
        "command": "profile",
        "graph": g.summary(),
        "profile": prof.to_dict(),
    }
    r = legal_t_range(g)
    lines = [f"profile {g.name} (t in [{r.start}, {r.stop - 1}])",
             f"  {'t':>3}  {'mu1':<12} {'mu2':<12}"]
    for row in prof.rows:
        cells = []
        for o in (row.mu1, row.mu2):
            cells.append(f"{o.value}" if o.is_exact else f"[{o.lo},{o.hi}]")
        lines.append(f"  {row.t:>3}  {cells[0]:<12} {cells[1]:<12}")
    lines.append("aggregates:")
    for name, agg in (("mu11", prof.mu11), ("mu12", prof.mu12),
                      ("mu21", prof.mu21), ("mu22", prof.mu22)):
        if agg.is_exact:
            lines.append(f"  {name} = {agg.value} (exact)")
        else:
            lines.append(f"  {name} in [{agg.lo}, {agg.hi}] (bounds-only)")
    _emit(report, args, lines)
    return 0


#: The counts each lemma check of the Petersen graph must replay.
_PETERSEN_FACTS = {
    "chromatic-index": {"chromatic_index": 4},
    "not-interval-colorable": {"cap": 9},
    "matchings-intersect": {"matchings": 6, "pairs": 15,
                            "intersecting_pairs": 15},
    "large-subsets-obstructed": {"subsets": 176, "obstructed": 176},
    "vertex-deletions-chromatic-index": {"deletions": 10,
                                         "with_chromatic_index_4": 10},
    "max-path-forest": {"max_subset": 6},
}


def _petersen_checks(g: Graph) -> list[dict]:
    """Replay the structural facts; counts come from the evidence payloads,
    and a check passes when they are its counts in ``_PETERSEN_FACTS``."""
    checks: list[dict] = []

    def check(name: str, detail: str, **counts: int) -> None:
        checks.append({"name": name, "ok": counts == _PETERSEN_FACTS[name],
                       "detail": detail, "counts": counts})

    noninterval = mu22_cap_from_noninterval(g)
    chi = noninterval.payload["chromatic_index"]
    check("chromatic-index", f"chromatic index is {chi} (degree 3 plus 1)",
          chromatic_index=chi)

    cap = noninterval.value
    check("not-interval-colorable",
          f"no coloring makes every spectrum an interval; f <= {cap} at every t",
          cap=cap)

    # the argument raises on the first disjoint pair, so every pair intersects
    matching = mu1_floor_from_matchings(g).payload
    matchings = len(matching["perfect_matchings"])
    pairs = matching["pairs_checked"]
    check("matchings-intersect",
          f"{matchings} perfect matchings; {pairs}/{pairs} pairs intersect",
          matchings=matchings, pairs=pairs, intersecting_pairs=pairs)

    obstructions = mu2_top_cap_from_obstructions(g, 7).payload
    total, obstructed = obstructions["subsets"], obstructions["obstructed"]
    check("large-subsets-obstructed",
          f"{obstructed}/{total} subsets with >= 7 vertices contain an "
          f"induced claw or 6-cycle",
          subsets=total, obstructed=obstructed)

    deletions = mu22_cap_cubic(g).payload["deletion_chromatic_indices"]
    good = sum(1 for v in deletions.values() if v == 4)
    check("vertex-deletions-chromatic-index",
          f"{good}/{len(deletions)} single-vertex deletions have chromatic "
          f"index 4",
          deletions=len(deletions), with_chromatic_index_4=good)

    forest = mu2_top_cap(g).value
    check("max-path-forest",
          f"largest vertex subset inducing a path forest has {forest} vertices",
          max_subset=forest)
    return checks


def cmd_lemmas(args) -> int:
    g = resolve_graph(args.graph)
    if not is_petersen_labeled(g):
        raise GraphError(
            f"lemma replay is defined for the petersen catalog graph, "
            f"not {g.name}")
    try:
        checks = _petersen_checks(g)
    except GraphError as exc:  # a structural argument's premise failed
        checks = [{"name": "structural-premises", "ok": False,
                   "detail": str(exc), "counts": {}}]
    ok = all(c["ok"] for c in checks)
    report = {"command": "lemmas", "graph": g.summary(),
              "checks": checks, "ok": ok}
    lines = [f"lemma replay on {g.name}"]
    for c in checks:
        lines.append(f"  [{'pass' if c['ok'] else 'FAIL'}] {c['name']}: "
                     f"{c['detail']}")
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    _emit(report, args, lines)
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--timing", action="store_true",
                   help="attach wall-clock stats (breaks byte-identical output)")


def _add_budget(p: argparse.ArgumentParser, node_limit: int | None) -> None:
    p.add_argument("--graph", default="petersen",
                   help="petersen | cycle:<n> | path:<n> | complete:<n> | @file.json")
    p.add_argument("--node-limit", type=int, default=node_limit,
                   help="search node budget of each solve (profile runs "
                        "one per t and objective)")
    p.add_argument("--time-limit-ms", type=int, default=None,
                   help="search time budget in milliseconds of each solve "
                        "(profile runs one per t and objective)")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable every use of symmetry in the search: the "
                        "symmetry chain (reflection caps the first edge's "
                        "color at ceil(t/2), and at each depth every edge of "
                        "the depth's edge's orbit under the automorphisms "
                        "fixing the required vertex set and the earlier "
                        "edges takes no lower color) and the orbit "
                        "reduction of the mu2 interval-set split, which "
                        "then tries every k-set. A structural premise may "
                        "still use automorphisms to shorten its own proof, "
                        "with the same value either way")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use. It holds
    no handler: ``main`` looks up ``cmd_<command>`` when it dispatches.
    Callers must not modify it: a change would reach every later call."""
    parser = argparse.ArgumentParser(
        prog="mu-spectra",
        description="Extremal counts of interval-spectrum vertices in proper "
                    "edge colorings of small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="re-check a coloring certificate")
    p.add_argument("certificate",
                   help="path or catalog name (e.g. psi, sigma.json)")
    _add_common(p)

    p = sub.add_parser("solve", help="compute mu1 or mu2 at one t")
    _add_budget(p, node_limit=None)
    p.add_argument("--t", type=int, required=True, help="number of colors")
    p.add_argument("--objective", choices=["mu1", "mu2"], required=True)
    _add_common(p)

    p = sub.add_parser("profile", help="sweep all legal t and aggregate")
    _add_budget(p, node_limit=PROFILE_NODE_LIMIT)
    _add_common(p)

    p = sub.add_parser("lemmas", help="replay the structural checks")
    p.add_argument("--graph", default="petersen",
                   help="must resolve to the petersen graph")
    _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (GraphError, FileNotFoundError, ValueError) as exc:
        # a graph or vertex name may hold a newline: keep the message on one
        # line by escaping each unprintable character as repr would
        message = "".join(ch if ch.isprintable() else repr(ch)[1:-1]
                          for ch in str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
