import copy
import hashlib
import io
import json
import math
import shutil
import subprocess
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from mu_spectra import (
    Certificate,
    EdgeColoring,
    GraphError,
    analyze,
    cli,
    cycle,
    fixtures,
    graph_to_dict,
    sample,
)
from mu_spectra.search import PROFILE_NODE_LIMIT

from oracles import naive_f, naive_interval_labels, naive_valid


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestVerify:
    def test_packaged_catalog_name(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "psi")
        assert code == 0
        assert "PASS" in out
        assert "f=6" in out

    @pytest.mark.parametrize("name", sorted(fixtures()))
    def test_every_catalog_name(self, capsys, name):
        code, doc, _ = run_json(capsys, "verify", name)
        assert code == 0
        assert doc["ok"] is True
        assert doc["f"] == doc["claims"]["f"] == fixtures()[name].claim_f
        assert doc["file"] == name

    def test_literal_path(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(fixtures()["sigma"].to_dict()))
        code, doc, _ = run_json(capsys, "verify", str(path))
        assert code == 0
        assert doc["file"] == str(path)
        assert doc["ok"] is True
        assert doc["f"] == 8
        assert doc["claims"] == {"f": 8}
        assert doc["violations"] == [] and doc["mismatches"] == []

    def test_name_with_extension(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "epsilon.json")
        assert code == 0

    @pytest.mark.parametrize("arg", ["/nonexistent/dir/psi.json", "nope/sigma"])
    def test_missing_path_is_not_a_catalog_name(self, capsys, arg):
        # a path whose last component is a catalog name
        code, out, err = run_cli(capsys, "verify", arg)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not found" in err

    def test_over_long_path_is_not_found(self, capsys):
        # Path.is_file raises ENAMETOOLONG for such a name rather than
        # answering False
        code, out, err = run_cli(capsys, "verify", "a" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not found" in err and "Traceback" not in err

    def test_invalid_coloring_fails(self, capsys, tmp_path):
        doc = fixtures()["psi"].to_dict()
        counts = Counter(doc["colors"].values())
        color = next(c for c, k in counts.items() if k == 1)
        victim = next(e for e, c in doc["colors"].items() if c == color)
        doc["colors"][victim] = (color % doc["t"]) + 1  # now color is unused
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert "violation" in out
        assert "FAIL" in out

    def test_huge_t_is_one_violation(self, capsys, tmp_path):
        # listing the unused colors of t = 10**12 would never finish
        doc = fixtures()["psi"].to_dict()
        doc["t"] = 10**12
        bad = tmp_path / "huge_t.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert (code, err) == (1, "")
        assert out.splitlines()[2:] == [
            f"  violation[surjectivity] at {10**12}: "
            f"{10**12} colors cannot all appear on 15 edges",
            "FAIL"]

    def test_claim_mismatch_fails_without_violations(self, capsys, tmp_path):
        doc = fixtures()["psi"].to_dict()
        doc["claims"]["f"] = 3
        bad = tmp_path / "wrong_claim.json"
        bad.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", str(bad))
        assert code == 1
        assert report["violations"] == []
        assert report["mismatches"]

    def test_malformed_json_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"graph": "petersen", ')
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda d: d.update(t=15.7), id="float-t"),
        pytest.param(lambda d: d["colors"].update({"x1-x2": 3.5}), id="float-color"),
        pytest.param(lambda d: d.update(t=True), id="bool-t"),
        pytest.param(lambda d: d.update(claims=[1]), id="list-claims"),
        pytest.param(lambda d: d.update(t=None), id="null-t"),
        pytest.param(lambda d: d["colors"].update({"x1-x2": None}), id="null-color"),
        pytest.param(lambda d: d["claims"].update(f=True), id="bool-claimed-f"),
        pytest.param(lambda d: d["claims"].update(interval=[1]), id="list-interval"),
        # a valid certificate once "abc" is read as the vertices a, b, c
        pytest.param(lambda d: d.update(
            graph={"name": "g", "vertices": "abc", "edges": [["a", "b"], ["b", "c"]]},
            t=2, colors={"a-b": 1, "b-c": 2}, claims={"f": 3}),
            id="string-vertices"),
    ])
    def test_mistyped_fields_are_input_errors(self, capsys, tmp_path, mutate):
        doc = fixtures()["psi"].to_dict()
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_edge_key_naming_two_edges_is_an_input_error(self, capsys, tmp_path):
        # with labels a, a-b, b-c, c the key "a-b-c" names both a~(b-c)
        # and (a-b)~c; "b-c-a" and "c-a-b" name one edge each
        doc = {"graph": {"name": "dashes", "vertices": ["a", "a-b", "b-c", "c"],
                         "edges": [["a", "b-c"], ["a-b", "c"], ["a", "c"]]},
               "t": 3, "colors": {"b-c-a": 1, "c-a-b": 2, "a-c": 3}}
        cert = tmp_path / "dashes.json"
        cert.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", str(cert))[0] == 0
        doc["colors"] = {"a-b-c": 1, "c-a-b": 2, "a-c": 3}
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(cert))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than one edge" in err

    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path):
        # the JSON parser gives up with RecursionError, not JSONDecodeError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "verify", str(deep))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        # a UTF-16 byte-order mark: the message names the file, on one line
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: not UTF-8")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-such-cert")
        assert code == 2
        assert "not found" in err


def _fuzz_bases() -> list[dict]:
    """A catalog certificate and an inline-graph one with interval claims."""
    g = cycle(5)
    (c,) = sample(g, 3, seed=0)
    rep = analyze(g, c)
    flags = tuple((lab, bool(rep.v_int >> i & 1))
                  for i, lab in enumerate(g.vertices))
    inline = Certificate(graph=g, t=3, colors=c.colors, claim_f=rep.f,
                         claim_intervals=flags)
    return [fixtures()["psi"].to_dict(), inline.to_dict()]


FUZZ_BASES = _fuzz_bases()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _mutate(data, doc: dict) -> None:
    """Set, delete, add, swap or rename one slot of some object or list."""
    boxes = [doc]
    for box in boxes:  # grows while it is walked: every nested container
        boxes.extend(v for v in (box.values() if isinstance(box, dict) else box)
                     if isinstance(v, (dict, list)))
    box = data.draw(st.sampled_from(boxes))
    slots = list(box) if isinstance(box, dict) else list(range(len(box)))
    action = data.draw(st.sampled_from(["set", "delete", "add", "swap", "rename"]))
    # in-range integers often, so that validation rather than parsing decides
    value = st.integers(1, 15) | JSON_VALUES
    if action == "add" or not slots:
        if isinstance(box, dict):
            box[data.draw(st.text(max_size=6))] = data.draw(value)
        else:
            box.append(data.draw(value))
        return
    slot = data.draw(st.sampled_from(slots))
    if action == "set":
        box[slot] = data.draw(value)
    elif action == "delete":
        del box[slot]
    elif action == "swap":
        other = data.draw(st.sampled_from(slots))
        box[slot], box[other] = box[other], box[slot]
    elif isinstance(box, dict):  # rename: reversed endpoints or any text
        flipped = "-".join(reversed(slot.split("-")))
        box[data.draw(st.sampled_from([flipped]) | st.text(max_size=6))] = box.pop(slot)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_survives_mutated_documents(data, fuzz_file):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    fuzz_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", str(fuzz_file)])  # an exception fails here
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if code == 0:
        cert = Certificate.from_dict(doc)
        c = EdgeColoring(t=cert.t, colors=cert.colors)
        assert naive_valid(cert.graph, c)
        claims = doc.get("claims", {})
        if "f" in claims:
            assert claims["f"] == naive_f(cert.graph, c)
        interval = naive_interval_labels(cert.graph, c)
        for label, flag in claims.get("interval", {}).items():
            assert flag == (label in interval)


#: Strings the report writer must escape as the stdlib does: control
#: characters, quotes and backslashes, non-ASCII and astral characters,
#: a lone surrogate.
AWKWARD_TEXT = st.text(max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f\n\t", '"\\/', "\u00e9\u2028\U0001f600", "\ud800"])
REPORT_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | AWKWARD_TEXT
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(AWKWARD_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(REPORT_TREES)
def test_report_writer_is_the_stdlib_indenter(tree):
    # floats take in nan and the infinities, as --timing may write floats
    assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


class TestSolve:
    def test_json_report_shape(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--graph", "petersen",
                                "--t", "4", "--objective", "mu2")
        assert code == 0
        assert doc["command"] == "solve"
        assert doc["graph"]["name"] == "petersen"
        out = doc["outcome"]
        assert out["status"] == "exact"
        assert out["value"] == 8
        assert out["closed_by"] == "bounds-closed"
        cert = doc["witness_certificate"]
        assert cert["graph"] == "petersen"
        assert cert["t"] == 4
        assert cert["claims"]["f"] == 8
        assert len(cert["colors"]) == 15

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--graph", "petersen",
                               "--t", "15", "--objective", "mu2")
        assert code == 0
        assert "status: exact  value: 6" in out
        assert "evidence[path-forest-cap]" in out

    def test_illegal_t_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--graph", "petersen",
                               "--t", "3", "--objective", "mu1")
        assert code == 2
        assert "[4, 15]" in err

    def test_unknown_graph_spec(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--graph", "tetrahedron",
                               "--t", "3", "--objective", "mu1")
        assert code == 2
        assert "tetrahedron" in err

    def test_graph_from_file(self, capsys, tmp_path):
        gfile = tmp_path / "c5.json"
        gfile.write_text(json.dumps(graph_to_dict(cycle(5))))
        code, doc, _ = run_json(capsys, "solve", "--graph", f"@{gfile}",
                                "--t", "3", "--objective", "mu1")
        assert code == 0
        assert doc["outcome"]["value"] == 2
        # inline provenance so the certificate is self-contained
        assert isinstance(doc["witness_certificate"]["graph"], dict)

    @pytest.mark.parametrize("command", [
        ["solve", "--t", "3", "--objective", "mu1"], ["profile"]])
    def test_unreadable_graph_files_are_input_errors(self, capsys, tmp_path,
                                                     command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for arg, message in ((f"@{tmp_path}", "Is a directory"),
                             (f"@{tmp_path / 'absent.json'}", "No such file"),
                             (f"@{deep}", "nested too deeply")):
            code, out, err = run_cli(capsys, *command, "--graph", arg)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err

    @pytest.mark.parametrize("command", [
        ["solve", "--t", "3", "--objective", "mu1"], ["profile"]])
    def test_graph_file_that_is_not_utf8_is_an_input_error(self, capsys,
                                                          tmp_path, command):
        # a UTF-16 byte-order mark: the message names the file, on one line
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run_cli(capsys, *command, "--graph", f"@{bad}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: not UTF-8")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_budget_flags_reach_the_search(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--graph", "petersen",
                                "--t", "12", "--objective", "mu2",
                                "--node-limit", "40")
        assert code == 0
        out = doc["outcome"]
        assert out["status"] == "bounds-only"
        assert out["nodes_visited"] <= 40


class TestProfile:
    def test_small_cycle_values(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "--graph", "cycle:4")
        assert code == 0
        prof = doc["profile"]
        rows = {r["t"]: (r["mu1"]["value"], r["mu2"]["value"])
                for r in prof["rows"]}
        assert rows == {2: (4, 4), 3: (2, 4), 4: (1, 3)}
        agg = prof["aggregates"]
        assert [agg[k]["value"] for k in ("mu11", "mu12", "mu21", "mu22")] \
            == [1, 4, 3, 4]

    def test_petersen_aggregates_exact_under_small_budget(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "--graph", "petersen",
                                "--node-limit", "1000")
        assert code == 0
        agg = doc["profile"]["aggregates"]
        for name, want in [("mu11", 0), ("mu12", 2), ("mu21", 6), ("mu22", 8)]:
            assert agg[name]["status"] == "exact"
            assert agg[name]["value"] == want

    def test_default_output_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "profile", "--graph", "cycle:4", "--json")
        _, second, _ = run_cli(capsys, "profile", "--graph", "cycle:4", "--json")
        assert first == second

    def test_petersen_json_output_is_pinned(self, capsys):
        # the paper's command, byte for byte: values, bounds, witnesses,
        # span caps, evidence and node counts of every cell
        code, out, _ = run_cli(capsys, "profile", "--graph", "petersen",
                               "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "87e1d363c52fc6ead034b889856842dbe580d950aeb61b465e3501cdff966b53")

    def test_timing_flag_attaches_elapsed(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "--graph", "cycle:3",
                                "--timing")
        assert code == 0
        assert "elapsed_ms" in doc
        _, out, _ = run_cli(capsys, "profile", "--graph", "cycle:3", "--timing")
        assert "elapsed:" in out

    def test_human_table_marks_open_rows(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--graph", "petersen",
                               "--node-limit", "1000")
        assert code == 0
        assert "[" in out  # some middle row stays bounds-only
        assert "mu21 = 6 (exact)" in out
        assert "mu22 = 8 (exact)" in out


class TestLemmas:
    def test_all_checks_pass(self, capsys):
        code, doc, _ = run_json(capsys, "lemmas")
        assert code == 0
        assert doc["ok"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "chromatic-index",
            "not-interval-colorable",
            "matchings-intersect",
            "large-subsets-obstructed",
            "vertex-deletions-chromatic-index",
            "max-path-forest",
        ]
        assert all(c["ok"] for c in doc["checks"])

    def test_counts_are_reported(self, capsys):
        _, doc, _ = run_json(capsys, "lemmas")
        by_name = {c["name"]: c["counts"] for c in doc["checks"]}
        assert by_name["matchings-intersect"]["intersecting_pairs"] == 15
        assert by_name["large-subsets-obstructed"] == {
            "subsets": 176, "obstructed": 176}
        assert by_name["max-path-forest"]["max_subset"] == 6

    def test_failed_premise_is_a_failed_check(self, capsys, monkeypatch):
        def refuted(g):
            raise GraphError("deleting x1 leaves chromatic index 3, not 4")

        monkeypatch.setattr(cli, "mu22_cap_cubic", refuted)
        code, doc, _ = run_json(capsys, "lemmas")
        assert code == 1
        assert doc["ok"] is False
        assert "chromatic index 3" in doc["checks"][0]["detail"]

    def test_other_graphs_are_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemmas", "--graph", "cycle:5")
        assert code == 2
        assert "petersen" in err


@pytest.mark.parametrize("command", [
    ["solve", "--graph", "@{graph}", "--t", "9", "--objective", "mu1"],
    ["lemmas", "--graph", "@{graph}"],
    ["verify", "{certificate}"],
])
def test_input_errors_stay_on_one_line(capsys, tmp_path, command):
    # each message names the graph, whose name holds a newline
    g = {"name": "a\nb", "vertices": ["u", "v", "w"],
         "edges": [["u", "v"], ["v", "w"]]}
    paths = {"graph": tmp_path / "g.json", "certificate": tmp_path / "cert.json"}
    paths["graph"].write_text(json.dumps(g))
    paths["certificate"].write_text(json.dumps(
        {"graph": g, "t": 2, "colors": {"u-v": 1, "bogus": 2}}))
    code, out, err = run_cli(capsys, *[a.format(**paths) for a in command])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" a\\nb\n")
    assert err.count("\n") == 1


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_solve_requires_objective(self):
        with pytest.raises(SystemExit):
            cli.main(["solve", "--t", "4"])

    def test_profile_budget_defaults_to_the_per_cell_limit(self):
        assert cli.build_parser().parse_args(["profile"]).node_limit \
            == PROFILE_NODE_LIMIT
        assert cli.build_parser().parse_args(
            ["solve", "--t", "4", "--objective", "mu1"]).node_limit is None

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            cli.main(["profile", flag, "2"])

    @staticmethod
    def outcome(capsys, argv):
        """(exit code, stdout, stderr) of one call; a ``--timing`` report
        is compared without its ``elapsed_ms``."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        out, err = capsys.readouterr()
        if "--timing" in argv:
            out = json.loads(out)
            del out["elapsed_ms"]
        return code, out, err

    def test_shared_parser_carries_nothing_between_calls(self, capsys):
        calls = [
            ["solve", "--graph", "cycle:4", "--t", "3", "--objective", "mu2",
             "--node-limit", "5", "--json", "--timing"],
            ["profile", "--graph", "cycle:4"],
            ["verify", "psi"],
            ["solve", "--t", "x"],
            ["lemmas", "--json"],
        ]
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        shared = [self.outcome(capsys, argv) for argv in calls]
        assert cli.build_parser() is parser
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
        for argv, got in zip(calls, shared):
            cli.build_parser.cache_clear()
            assert self.outcome(capsys, argv) == got, argv

    def test_dispatch_looks_the_command_up_at_call_time(self, capsys,
                                                        monkeypatch):
        assert cli.main(["verify", "psi"]) == 0
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert cli.main(["verify", "psi"]) == 7

    def test_every_command_has_a_handler(self):
        (sub,) = [a for a in cli.build_parser()._actions
                  if a.dest == "command"]
        assert set(sub.choices) == {name.removeprefix("cmd_")
                                    for name in dir(cli)
                                    if name.startswith("cmd_")}

    def test_parser_is_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        assert cli.main(["verify", "psi"]) == 0
        assert cli.main(["solve", "--graph", "cycle:4", "--t", "3",
                         "--objective", "mu2"]) == 0
        assert cli.main(["lemmas"]) == 0
        assert cli.build_parser.cache_info().misses == 1


def test_installed_entry_point():
    exe = shutil.which("mu-spectra")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "verify", "psi", "--json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
