import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import mu_spectra
from mu_spectra import Certificate, analyze, check_certificate, fixtures
from mu_spectra.fixtures import dump

from oracles import naive_f

EXPECTED = {
    "phi": (15, 0), "psi": (15, 6), "epsilon": (4, 2), "sigma": (4, 8),
    "psi0": (15, 6), "psi1": (14, 6), "psi2": (13, 6), "psi3": (12, 6),
    "psi4": (11, 6), "psi5": (10, 6), "psi6": (9, 6), "psi7": (8, 6),
    "psi8": (7, 7), "psi9": (6, 7), "psi10": (5, 7),
    "lambda0": (4, 2), "lambda1": (5, 0), "lambda2": (6, 0), "lambda3": (7, 0),
    "lambda4": (8, 0), "lambda5": (9, 0), "lambda6": (10, 0),
    "lambda7": (11, 0), "lambda8": (12, 0), "lambda9": (13, 0),
    "lambda10": (14, 0),
}


def test_catalog_has_exactly_the_expected_names(catalog):
    assert set(catalog) == set(EXPECTED)
    assert len(catalog) == 26


def test_step_zero_entries_alias_their_bases(catalog):
    assert catalog["psi0"] is catalog["psi"]
    assert catalog["lambda0"] is catalog["epsilon"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_entry_validates_and_matches_its_claim(P, catalog, name):
    t, f = EXPECTED[name]
    cert = catalog[name]
    assert cert.t == t
    assert cert.claim_f == f
    assert check_certificate(cert).ok
    c = cert.coloring()
    assert analyze(P, c).f == f
    assert naive_f(P, c) == f


def test_first_recoloring_step_touches_one_edge(P, catalog):
    base = catalog["psi0"].colors
    step = catalog["psi1"].colors
    diffs = [i for i in range(P.m) if base[i] != step[i]]
    assert diffs == [P.edge_keys["y1-y4"]]
    assert step[diffs[0]] == 2


def test_first_merge_step_pairs_two_edges_on_color_five(P, catalog):
    c = catalog["lambda1"].colors
    assert c[P.edge_keys["x2-x3"]] == 5
    assert c[P.edge_keys["y2-y5"]] == 5
    base = catalog["lambda0"].colors
    diffs = [i for i in range(P.m) if base[i] != c[i]]
    assert len(diffs) == 2


def test_each_step_recolors_edges_to_the_new_top_color(P, catalog):
    # lambda steps k >= 2 introduce color k+4 on exactly one edge
    for k in range(2, 11):
        prev = catalog[f"lambda{k - 1}"]
        cur = catalog[f"lambda{k}"]
        assert cur.t == prev.t + 1
        diffs = [i for i in range(P.m) if prev.colors[i] != cur.colors[i]]
        assert len(diffs) == 1
        assert cur.colors[diffs[0]] == cur.t


def test_descending_sequence_lowers_t_by_one_each_step(catalog):
    for k in range(1, 11):
        assert catalog[f"psi{k}"].t == catalog[f"psi{k - 1}"].t - 1


def test_final_descent_stage_differs_from_the_four_color_extreme(catalog):
    # psi10 lives at t=5; the f=8 coloring lives at t=4
    assert catalog["psi10"].t == 5
    assert catalog["sigma"].t == 4


def test_fixtures_is_cached(catalog):
    assert fixtures() is catalog


def test_documented_dump_command_round_trips(tmp_path, catalog):
    # the README's one-liner, against this checkout's package: it writes
    # every entry and prints nothing, no RuntimeWarning included
    env = dict(os.environ)
    src = str(Path(mu_spectra.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"from mu_spectra.fixtures import dump; dump({str(tmp_path)!r})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    paths = sorted(tmp_path.glob("*.json"))
    assert sorted(p.stem for p in paths) == sorted(EXPECTED)
    for p in paths:
        cert = catalog[p.stem]
        back = Certificate.from_dict(json.loads(p.read_text()))
        assert (back.t, back.colors, back.claim_f) == (cert.t, cert.colors, cert.claim_f)


def test_dump_in_a_fresh_interpreter_writes_the_catalog_bytes(tmp_path, fresh,
                                                              catalog):
    # dump imports json itself: with nothing loaded before it, its files
    # are byte for byte what json.dumps writes
    proc = fresh("from mu_spectra.fixtures import dump; dump(sys.argv[2])",
                 tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == 26
    for p in paths:
        want = json.dumps(catalog[p.stem].to_dict(), indent=2, sort_keys=True)
        assert p.read_bytes() == (want + "\n").encode()


def test_dump_annotations_resolve():
    # names bound in the module, so no import of pathlib is needed for them
    assert typing.get_type_hints(dump) == {
        "outdir": str | os.PathLike[str], "return": list[os.PathLike[str]]}


def test_dump_writes_one_verified_file_per_entry(tmp_path, catalog):
    written = dump(tmp_path)
    assert len(written) == 26
    for p in written:
        cert = Certificate.from_dict(json.loads(p.read_text()))
        assert check_certificate(cert).ok
