"""End-to-end acceptance checks.

Each test prints exactly one summary line so a scrollback of the run shows
the seven headline results at a glance. Ordering follows severity of what
would break downstream: fixtures, the headline profile, the exhaustive
search, structural replay, oracle equivalence, sampling invariants, and
certificate round-trips.
"""

import json
import time

from mu_spectra import (
    Objective,
    SearchConfig,
    analyze,
    check_certificate,
    cli,
    complete,
    cycle,
    is_path_forest,
    legal_t_range,
    path,
    petersen,
    sample,
    solve,
)
from mu_spectra.fixtures import fixtures

from oracles import naive_mu, random_connected_graph

# (t, f) for every catalog entry
EXPECTED_FIXTURES = {
    "phi": (15, 0), "psi": (15, 6), "epsilon": (4, 2), "sigma": (4, 8),
    "psi0": (15, 6), "lambda0": (4, 2),
    **{f"psi{k}": (15 - k, 6) for k in range(1, 8)},
    "psi8": (7, 7), "psi9": (6, 7), "psi10": (5, 7),
    **{f"lambda{k}": (4 + k, 0) for k in range(1, 11)},
}


def report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def run_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_1_fixture_suite(capsys):
    start = time.perf_counter()
    catalog = fixtures()
    problems = []
    if set(catalog) != set(EXPECTED_FIXTURES):
        problems.append("catalog names differ")
    for name, cert in catalog.items():
        result = check_certificate(cert)
        want_t, want_f = EXPECTED_FIXTURES[name]
        if not (result.ok and cert.t == want_t and result.f == want_f):
            problems.append(f"{name}: t={cert.t} f={result.f} ok={result.ok}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    report(capsys, 1, "fixture-suite", ok,
           problems[0] if problems else
           f"{len(catalog)} colorings verified in {elapsed:.2f}s")


def test_2_headline_profile(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "profile", "--graph", "petersen")
    elapsed = time.perf_counter() - start
    agg = doc["profile"]["aggregates"]
    got = {k: (agg[k]["value"], agg[k]["status"]) for k in agg}
    want = {"mu11": (0, "exact"), "mu12": (2, "exact"),
            "mu21": (6, "exact"), "mu22": (8, "exact")}
    ok = code == 0 and got == want and elapsed < 60.0
    report(capsys, 2, "headline-profile", ok,
           f"mu11={agg['mu11']['value']} mu12={agg['mu12']['value']} "
           f"mu21={agg['mu21']['value']} mu22={agg['mu22']['value']} "
           f"all exact in {elapsed:.1f}s")


def test_3_exhaustive_four_colors(capsys):
    start = time.perf_counter()
    bare = SearchConfig(seed_fixtures=False, use_structural_bounds=False)
    P = petersen()
    o1 = solve(P, 4, Objective.MU1, bare)
    o2 = solve(P, 4, Objective.MU2, bare)
    elapsed = time.perf_counter() - start
    ok = (o1.is_exact and o1.value == 2 and o1.closed_by == "exhausted"
          and o2.is_exact and o2.value == 8 and o2.closed_by == "exhausted"
          and elapsed < 30.0)
    report(capsys, 3, "exhaustive-t4", ok,
           f"mu1={o1.value} mu2={o2.value} via full search "
           f"({o1.nodes_visited}+{o2.nodes_visited} nodes, {elapsed:.2f}s)")


def test_4_structural_replay(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "lemmas")
    elapsed = time.perf_counter() - start
    counts = {c["name"]: c["counts"] for c in doc["checks"]}
    ok = (code == 0 and doc["ok"]
          and counts["matchings-intersect"]["matchings"] == 6
          and counts["matchings-intersect"]["intersecting_pairs"] == 15
          and counts["large-subsets-obstructed"]["obstructed"] == 176
          and counts["vertex-deletions-chromatic-index"]
                    ["with_chromatic_index_4"] == 10
          and counts["chromatic-index"]["chromatic_index"] == 4
          and counts["max-path-forest"]["max_subset"] == 6
          and elapsed < 5.0)
    report(capsys, 4, "structural-replay", ok,
           f"{len(doc['checks'])} checks in {elapsed:.2f}s")


def test_5_oracle_equivalence(capsys):
    graphs = ([path(n) for n in range(2, 9)]
              + [cycle(n) for n in range(3, 8)]
              + [complete(4)]
              + [random_connected_graph(seed) for seed in range(20)])
    assert all(g.m <= 7 for g in graphs)
    configs = (SearchConfig(), SearchConfig(use_reflection_symmetry=False))
    cases = 0
    mismatches = []
    for g in graphs:
        for t in legal_t_range(g):
            cases += 1
            want = naive_mu(g, t)
            for cfg in configs:
                o1 = solve(g, t, Objective.MU1, cfg)
                o2 = solve(g, t, Objective.MU2, cfg)
                if not (o1.is_exact and o2.is_exact
                        and (o1.value, o2.value) == want):
                    mismatches.append(
                        f"{g.name} t={t}: got ({o1.value},{o2.value}) "
                        f"want {want}")
    ok = not mismatches
    report(capsys, 5, "oracle-equivalence", ok,
           mismatches[0] if mismatches else
           f"{len(graphs)} graphs, {cases} (graph,t) cases, "
           f"solver == enumeration, symmetry on/off agree")


def test_6_sampling_invariants(capsys):
    P = petersen()
    bad = []
    top = sample(P, 15, seed=2026, count=1000)
    for c in top:
        rep = analyze(P, c)
        if rep.f > 6:
            bad.append(f"t=15 f={rep.f}")
            break
        if not is_path_forest(P, rep.v_int):
            bad.append("t=15 interval vertices not a path forest")
            break
    low = sample(P, 4, seed=2026, count=1000)
    fs = [analyze(P, c).f for c in low]
    if not all(2 <= f <= 8 for f in fs):
        bad.append(f"t=4 f range [{min(fs)}, {max(fs)}]")
    ok = not bad
    report(capsys, 6, "sampling-invariants", ok,
           bad[0] if bad else
           f"1000 samples at t=15: f <= 6, interval vertices form a path "
           f"forest; 1000 at t=4: f in [{min(fs)}, {max(fs)}]")


ROUND_TRIPS = [
    ("petersen", 4, "mu1"), ("petersen", 4, "mu2"),
    ("petersen", 15, "mu1"), ("petersen", 15, "mu2"),
    ("petersen", 7, "mu2"),
    ("cycle:5", 3, "mu1"), ("cycle:5", 5, "mu2"),
    ("complete:4", 4, "mu2"),
    ("path:6", 3, "mu1"),
]


def test_7_witness_round_trip(capsys, tmp_path):
    failures = []
    checked = 0
    for spec, t, objective in ROUND_TRIPS:
        code, doc = run_json(capsys, "solve", "--graph", spec,
                             "--t", str(t), "--objective", objective)
        if code != 0 or doc["outcome"]["status"] != "exact":
            failures.append(f"{spec} t={t} {objective}: not exact")
            continue
        if "witness_certificate" not in doc:
            failures.append(f"{spec} t={t} {objective}: no witness")
            continue
        cert_file = tmp_path / f"w{checked}.json"
        cert_file.write_text(json.dumps(doc["witness_certificate"]))
        rc = cli.main(["verify", str(cert_file)])
        capsys.readouterr()
        if rc != 0:
            failures.append(f"{spec} t={t} {objective}: verify exit {rc}")
        checked += 1
    ok = not failures and checked == len(ROUND_TRIPS)
    report(capsys, 7, "witness-round-trip", ok,
           failures[0] if failures else
           f"{checked} exact witnesses re-verified with exit 0")
