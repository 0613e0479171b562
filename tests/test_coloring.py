import sys

import pytest
from hypothesis import given, settings, strategies as st

from mu_spectra import (
    Certificate,
    EdgeColoring,
    GraphError,
    InvalidColoringError,
    analyze,
    check_certificate,
    cycle,
    graph_to_dict,
    is_interval,
    is_valid,
    path,
    petersen,
    rebind,
    reflect,
    require_valid,
    sample,
    set_labels,
    spectrum,
    Violation,
    validate,
)
from mu_spectra import coloring as coloring_module
from mu_spectra.coloring import _parse_edge_key
from mu_spectra.graphs import Graph, edge_key
from mu_spectra.search import legal_t_range

from oracles import (ORACLE_CORPUS, naive_edge_key, naive_f, naive_interval_labels,
                     naive_valid)


class TestIntervalPredicate:
    @pytest.mark.parametrize("colors,expect", [
        ({3}, True), ({2, 3, 4}, True), ({1, 2, 4}, False),
        ({5, 6}, True), ({1, 3}, False), ({10, 11, 12, 13}, True)])
    def test_examples(self, colors, expect):
        assert is_interval(colors) is expect

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_interval(set())

    @given(st.sets(st.integers(1, 20), min_size=1, max_size=8))
    def test_agrees_with_consecutive_run_definition(self, s):
        expect = sorted(s) == list(range(min(s), max(s) + 1))
        assert is_interval(s) is expect


class TestValidate:
    def test_catalog_colorings_are_valid(self, P, catalog):
        for cert in catalog.values():
            assert validate(P, cert.coloring()) == ()
            assert is_valid(P, cert.coloring())

    def test_wrong_length_is_shape_violation(self, P):
        bad = EdgeColoring(t=4, colors=(1, 2, 3))
        kinds = [v.kind for v in validate(P, bad)]
        assert kinds == ["shape"]

    def test_out_of_range_color_reported(self, P, catalog):
        c = catalog["sigma"].coloring()
        bad = EdgeColoring(t=4, colors=(9,) + c.colors[1:])
        kinds = {v.kind for v in validate(P, bad)}
        assert "range" in kinds

    def test_properness_clash_names_both_edges(self, P, catalog):
        c = catalog["sigma"].coloring()
        # copy the color of edge (x2,x3) onto the adjacent edge (x1,x2)
        bad = EdgeColoring(t=4, colors=(c.colors[1],) + c.colors[1:])
        clashes = [v for v in validate(P, bad) if v.kind == "properness"]
        assert clashes
        assert any(v.where == "x2" for v in clashes)

    def test_unused_color_is_surjectivity_violation(self, P, catalog):
        c = catalog["phi"].coloring()
        # color 15 appears once; overwrite it
        i = c.colors.index(15)
        bad = EdgeColoring(t=15, colors=c.colors[:i] + (1,) + c.colors[i + 1:])
        surj = [v for v in validate(P, bad) if v.kind == "surjectivity"]
        assert [v.where for v in surj] == ["15"]

    def test_all_violations_reported_not_just_first(self, P):
        bad = EdgeColoring(t=15, colors=(1,) * 15)
        kinds = {v.kind for v in validate(P, bad)}
        assert {"properness", "surjectivity"} <= kinds
        assert len(validate(P, bad)) > 5

    def test_t_above_m_is_one_surjectivity_violation(self, P, catalog):
        c = EdgeColoring(t=10**12, colors=catalog["psi"].colors)
        violations = validate(P, c)
        assert [(v.kind, v.where, v.message) for v in violations] == [
            ("surjectivity", str(10**12),
             f"{10**12} colors cannot all appear on 15 edges")]
        assert not naive_valid(P, c)

    def test_colors_equal_to_ints_read_as_those_ints(self, P, catalog):
        c = catalog["sigma"].coloring()
        for odd in (tuple(float(k) for k in c.colors),
                    tuple(True if k == 1 else k for k in c.colors)):
            same = EdgeColoring(t=c.t, colors=odd)
            assert validate(P, same) == ()
            assert analyze(P, same) == analyze(P, c)

    def test_non_integer_color_is_a_range_violation(self):
        # 1.5 lies between 1 and 2, but the colors of a 2-coloring are 1 and
        # 2; a string, None or an unhashable list is no color either
        g = path(4)
        for color in (1.5, "a", None, [1]):
            c = EdgeColoring(t=2, colors=(1, color, 2))
            assert not naive_valid(g, c)
            assert [(v.kind, v.message) for v in validate(g, c)] == [
                ("range", f"color {color} on edge (v1,v2) outside [1,2]")]
            with pytest.raises(InvalidColoringError, match="outside"):
                analyze(g, c)
            result = check_certificate(Certificate(graph=g, t=2, colors=c.colors))
            assert not result.ok and result.violations == validate(g, c)

    def test_number_equal_to_an_int_is_that_color(self):
        g = path(3)
        c = EdgeColoring(t=2, colors=(True, 2.0))
        assert validate(g, c) == () and naive_valid(g, c)
        assert analyze(g, c).f == naive_f(g, c) == 3

    def test_t_equal_to_an_int_reads_as_that_int(self):
        g = path(2)
        c = EdgeColoring(t=True, colors=(1,))
        assert validate(g, c) == () and naive_valid(g, c)
        assert analyze(g, c).f == naive_f(g, c) == 2

    @pytest.mark.parametrize("t", [2.0, 2.5, "2", None])
    def test_t_that_is_not_an_int_is_a_shape_violation(self, t):
        g = path(3)
        c = EdgeColoring(t=t, colors=(1, 2))
        assert validate(g, c) == (
            Violation("shape", "t", f"t must be an integer, got {t!r}"),)
        with pytest.raises(InvalidColoringError, match="t must be an integer"):
            analyze(g, c)
        result = check_certificate(Certificate(graph=g, t=t, colors=c.colors))
        assert not result.ok and result.violations == validate(g, c)

    def test_require_valid_raises_with_details(self, P):
        with pytest.raises(InvalidColoringError) as exc:
            require_valid(P, EdgeColoring(t=15, colors=(1,) * 15))
        assert exc.value.violations


class TestSpectra:
    def test_distinct_colors_spectrum(self, P, catalog):
        assert spectrum(P, catalog["phi"].coloring(), "x1") == {1, 2, 4}

    def test_four_color_spectrum(self, P, catalog):
        assert spectrum(P, catalog["sigma"].coloring(), "y1") == {1, 2, 4}

    def test_analyze_counts_and_flags(self, P, catalog):
        rep = analyze(P, catalog["psi"].coloring())
        assert rep.f == 6
        assert set_labels(P, rep.v_int) == ("x1", "x3", "x4", "x5", "y2", "y3")
        assert rep.v_int.bit_count() == rep.f

    def test_analyze_requires_validity(self, P):
        with pytest.raises(InvalidColoringError):
            analyze(P, EdgeColoring(t=15, colors=(1,) * 15))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(4, 15))
    def test_spectrum_size_equals_degree(self, seed, t):
        P = petersen()
        (c,) = sample(P, t, seed=seed, count=1)
        rep = analyze(P, c)
        for label in P.vertices:
            assert len(spectrum(P, c, label)) == 3
        assert rep.f == naive_f(P, c)
        assert naive_valid(P, c)


class TestReflect:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(4, 15))
    def test_involution_preserving_validity_and_f(self, seed, t):
        P = petersen()
        (c,) = sample(P, t, seed=seed, count=1)
        r = reflect(c)
        assert reflect(r) == c
        assert is_valid(P, r)
        assert analyze(P, r).f == analyze(P, c).f

    def test_reflection_of_best_four_coloring(self, P, catalog):
        r = reflect(catalog["sigma"].coloring())
        assert analyze(P, r).f == 8


def _rotate_petersen(g, c):
    """Push a coloring through the order-5 rotation automorphism."""
    succ = {f"x{i}": f"x{i % 5 + 1}" for i in range(1, 6)}
    succ |= {f"y{i}": f"y{i % 5 + 1}" for i in range(1, 6)}
    out = [0] * g.m
    for i, (a, b) in enumerate(g.edge_labels):
        out[g.edge_keys[f"{succ[a]}-{succ[b]}"]] = c.colors[i]
    return EdgeColoring(t=c.t, colors=tuple(out))


class TestAutomorphismInvariance:
    def test_rotation_is_an_automorphism(self, P):
        succ = {f"x{i}": f"x{i % 5 + 1}" for i in range(1, 6)}
        succ |= {f"y{i}": f"y{i % 5 + 1}" for i in range(1, 6)}
        for a, b in P.edge_labels:
            assert f"{succ[a]}-{succ[b]}" in P.edge_keys

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.integers(4, 15))
    def test_f_is_invariant_under_rotation(self, seed, t):
        P = petersen()
        (c,) = sample(P, t, seed=seed, count=1)
        rotated = _rotate_petersen(P, c)
        assert is_valid(P, rotated)
        assert analyze(P, rotated).f == analyze(P, c).f


class TestCertificates:
    def test_roundtrip_with_catalog_source(self, P, catalog):
        cert = catalog["psi"]
        doc = cert.to_dict()
        assert doc["graph"] == "petersen"
        again = Certificate.from_dict(doc)
        assert again.colors == cert.colors
        assert again.claim_f == 6

    def test_roundtrip_with_inline_graph(self):
        g = cycle(4)
        cert = Certificate(graph=g, t=3, colors=(1, 2, 1, 3), claim_f=2)
        doc = cert.to_dict()
        assert doc["graph"]["name"] == "cycle:4"
        again = Certificate.from_dict(doc)
        assert again.graph == g
        assert check_certificate(again).ok

    def test_edge_keys_accept_either_endpoint_order(self, P, catalog):
        doc = catalog["sigma"].to_dict()
        flipped = {}
        for key, val in doc["colors"].items():
            a, b = key.split("-")
            flipped[f"{b}-{a}"] = val
        doc["colors"] = flipped
        cert = Certificate.from_dict(doc)
        assert check_certificate(cert).ok

    def test_claim_intervals_checked(self, P, catalog):
        base = catalog["psi"]
        good = Certificate(graph=P, t=15, colors=base.colors,
                           claim_intervals=(("x1", True), ("x2", False)),
                           source="petersen")
        assert check_certificate(good).ok
        bad = Certificate(graph=P, t=15, colors=base.colors,
                          claim_intervals=(("x2", True),), source="petersen")
        result = check_certificate(bad)
        assert not result.ok
        assert result.mismatches == ("claimed interval[x2]=True, recomputed False",)

    def test_check_validates_once(self, P, catalog, monkeypatch):
        # one mask pass decides validity and reads the interval vertices
        passes = []
        real = coloring_module._interval_set
        monkeypatch.setattr(coloring_module, "_interval_set",
                            lambda g, t, colors: passes.append(colors)
                            or real(g, t, colors))
        assert check_certificate(catalog["psi"]).ok
        assert len(passes) == 1
        assert analyze(P, catalog["psi"].coloring()).f == 6
        assert len(passes) == 2

    @pytest.mark.parametrize("kind", ["range", "clash", "drop", "claim"])
    def test_rejected_check_costs_one_mask_pass(self, P, kind, monkeypatch):
        # a mutated certificate is rejected after one mask pass, with the
        # violations validate names; analyze raises after one pass too
        passes = []
        real = coloring_module._interval_set
        monkeypatch.setattr(coloring_module, "_interval_set",
                            lambda g, t, colors: passes.append(colors)
                            or real(g, t, colors))
        rejected = 0
        for t in legal_t_range(P):
            for r, c in enumerate(sample(P, t, seed=t, count=3)):
                cert = _mutated(P, c, kind, r)
                passes.clear()
                check = check_certificate(cert)
                assert (check.ok, len(passes)) == (False, 1)
                assert check.violations == validate(P, cert.coloring())
                rejected += 1
                if kind == "claim":
                    continue
                passes.clear()
                with pytest.raises(InvalidColoringError) as exc:
                    analyze(P, cert.coloring())
                assert len(passes) == 1
                assert exc.value.violations == check.violations != ()
        assert rejected == 3 * len(legal_t_range(P))

    def test_valid_check_builds_no_coloring_record(self, catalog, monkeypatch):
        # the mask pass reads the certificate's fields; an EdgeColoring is
        # built only to walk a rejected one, and a well-formed document
        # resolves each key with one lookup in Graph.edge_keys
        built, parsed = [], []
        for cls in (EdgeColoring, coloring_module.SpectrumReport):
            real_init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *a, _real=real_init, **k:
                                built.append(type(self).__name__) or _real(self, *a, **k))
        real_parse = coloring_module._parse_edge_key
        monkeypatch.setattr(coloring_module, "_parse_edge_key",
                            lambda key, g: parsed.append(key) or real_parse(key, g))
        doc = catalog["psi"].to_dict()
        assert check_certificate(Certificate.from_dict(doc)).ok
        assert (built, parsed) == ([], [])
        doc["t"] = 16
        assert not check_certificate(Certificate.from_dict(doc)).ok
        assert (built, parsed) == (["EdgeColoring"], [])
        doc["colors"]["bogus"] = 1
        with pytest.raises(GraphError, match="'bogus' is not an edge"):
            Certificate.from_dict(doc)
        assert parsed == ["bogus"]

    def test_verify_call_budget(self, catalog):
        # Python-level calls of one Petersen verify, counted rather than
        # timed so that the guard is steady on any machine: 37 when each
        # key went through _parse_edge_key and the check built an
        # EdgeColoring and a SpectrumReport
        doc = catalog["psi"].to_dict()
        check_certificate(Certificate.from_dict(doc))  # fills the graph's caches
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            check = check_certificate(Certificate.from_dict(doc))
        finally:
            sys.setprofile(previous)
        assert check.ok
        assert len(calls) <= 9, calls

    def test_wrong_f_claim_is_a_mismatch_not_an_error(self, P, catalog):
        cert = Certificate(graph=P, t=15, colors=catalog["psi"].colors,
                           claim_f=9, source="petersen")
        result = check_certificate(cert)
        assert result.f == 6
        assert not result.ok
        assert "claimed f=9" in result.mismatches[0]

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("t"), "missing"),
        (lambda d: d.pop("colors"), "missing"),
        (lambda d: d["colors"].pop("x1-x2"), "misses edges"),
        (lambda d: d["colors"].update({"x1-x3": 1}), "not an edge"),
        (lambda d: d["colors"].update({"bogus": 1}), "'bogus' is not an edge"),
    ])
    def test_malformed_documents_rejected(self, catalog, mutate, match):
        doc = catalog["psi"].to_dict()
        mutate(doc)
        with pytest.raises(GraphError, match=match):
            Certificate.from_dict(doc)

    def test_rebind_across_edge_orderings(self, P, catalog):
        shuffled = Graph.from_labels(
            "petersen-shuffled", P.vertices, tuple(reversed(P.edge_labels)))
        c = rebind(catalog["sigma"], shuffled)
        assert is_valid(shuffled, c)
        assert analyze(shuffled, c).f == 8

    def test_rebind_requires_same_edges(self, catalog):
        with pytest.raises(GraphError):
            rebind(catalog["sigma"], cycle(5))

    def test_rebind_reports_an_edge_the_certificate_misses(self, P, catalog):
        extra = Graph.from_labels("petersen+1", P.vertices,
                                  P.edge_labels + (("x1", "y2"),))
        with pytest.raises(GraphError, match="misses edges: x1-y2"):
            rebind(catalog["sigma"], extra)

    def test_rebind_refuses_an_ambiguous_target(self):
        # "a-b-c" names both (a, b-c) and (a-b, c) on the target
        g = Graph.from_labels("g", ["a", "b-c", "x"], [("a", "b-c"), ("b-c", "x")])
        target = Graph.from_labels("h", ["a", "b-c", "x", "c", "a-b"],
                                   [*g.edge_labels, ("x", "c"), ("a-b", "c")])
        cert = Certificate(graph=g, t=2, colors=(1, 2))
        with pytest.raises(GraphError, match="names more than one edge"):
            rebind(cert, target)

    def test_inline_graph_survives_json(self, tmp_path):
        g = cycle(4)
        doc = {"graph": graph_to_dict(g), "t": 2,
               "colors": {"v0-v1": 1, "v1-v2": 2, "v2-v3": 1, "v0-v3": 2},
               "claims": {"f": 4}}
        cert = Certificate.from_dict(doc)
        assert cert.source is None
        assert check_certificate(cert).ok


def _mutated(g, c, kind: str, r: int) -> Certificate:
    """A certificate of the valid coloring c with one mutation that must be
    rejected: an edge colored t+1 ("range"), another edge at one end of an
    edge given its color, at the first end if it has one ("clash"), one
    color more claimed than used ("drop"), or f claimed one too high
    ("claim")."""
    colors, t, claim_f = list(c.colors), c.t, None
    ei = r % g.m
    if kind == "range":
        colors[ei] = t + 1
    elif kind == "clash":
        other = next(e for u in g.edges[ei] for _, e in g.adjacency[u] if e != ei)
        colors[other] = colors[ei]
    elif kind == "drop":
        t += 1
    else:
        claim_f = analyze(g, c).f + 1
    return Certificate(graph=g, t=t, colors=tuple(colors), claim_f=claim_f)


@st.composite
def _colorings(draw):
    """A graph and a coloring that is valid, clashing, out of range or not
    surjective: a sampled valid coloring with a few edits and perhaps t one
    off, or colors drawn at random, with t from -1 to m + 2 and colors from
    -1 to t + 2."""
    g = draw(st.sampled_from(ORACLE_CORPUS) | st.just(petersen()))
    legal = legal_t_range(g)
    t = draw(st.sampled_from(legal) | st.integers(-1, g.m + 2))
    color = st.integers(-1, t + 2)
    if t in legal and draw(st.integers(0, 3)):
        (c,) = sample(g, t, seed=draw(st.integers(0, 10**6)))
        colors = list(c.colors)
        for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
            colors[draw(st.integers(0, g.m - 1))] = draw(color)
        t += draw(st.sampled_from((0, 0, 0, 1, -1)))
    else:
        colors = draw(st.lists(color, min_size=g.m, max_size=g.m))
    return g, EdgeColoring(t=t, colors=tuple(colors))


class TestMaskPass:
    """``validate``, ``analyze`` and ``check_certificate`` read one pass
    over vertex masks; these compare them with the definitions in
    ``oracles`` and with each other."""

    @settings(deadline=None, max_examples=400)
    @given(_colorings(), st.integers(-1, 2), st.data())
    def test_agrees_with_the_definition(self, case, f_offset, data):
        g, c = case
        valid = naive_valid(g, c)
        assert (validate(g, c) == ()) is valid
        truth = naive_interval_labels(g, c) if valid else set()
        if valid:
            assert set(set_labels(g, analyze(g, c).v_int)) == truth
        claim_f = len(truth) + f_offset if valid else data.draw(st.integers(0, g.n))
        flips = data.draw(st.sets(st.sampled_from(g.vertices), max_size=2))
        claims = tuple(sorted((label, (label in truth) != (label in flips))
                              for label in g.vertices))
        cert = Certificate(graph=g, t=c.t, colors=c.colors, claim_f=claim_f,
                           claim_intervals=claims)
        assert check_certificate(cert).ok is (valid and claim_f == naive_f(g, c)
                                             and not flips)

    @settings(deadline=None, max_examples=300)
    @given(_colorings())
    def test_readers_agree_with_validate(self, case):
        g, c = case
        violations = validate(g, c)
        try:
            analyze(g, c)
        except InvalidColoringError as exc:
            assert violations and exc.violations == violations
        else:
            assert not violations
        cert = Certificate(graph=g, t=c.t, colors=c.colors)
        assert check_certificate(cert).violations == violations


def _range(color, edge: str) -> tuple[str, str, str]:
    return ("range", edge, f"color {color} on edge {edge} outside [1,2]")


_UNUSED_2 = ("surjectivity", "2", "color 2 unused")

#: A color that is no int in [1, t], or a number equal to one, and the
#: violations of the 2-colorings (1, color, 1) and (1, 2, color) of path(4).
#: 65 is above MAX_EDGES, so no t has it in range.
_ODD_COLORS = [
    *[(x, [_range(x, "(v1,v2)"), _UNUSED_2], [_range(x, "(v2,v3)")])
      for x in (0, -1, 65, None, [1])],
    (2.0, [], [("properness", "v2", "edges (v1,v2) and (v2,v3) at v2 share color 2.0")]),
    (True, [("properness", "v1", "edges (v0,v1) and (v1,v2) at v1 share color True"),
            ("properness", "v2", "edges (v1,v2) and (v2,v3) at v2 share color 1"),
            _UNUSED_2], []),
]


class TestOddColors:
    """The mask pass looks each color's bit up by hash: a color with no bit
    (out of range, not a number, unhashable) fails the pass, a number equal
    to a color takes that color's bit, and the walk then names the same
    violations either way."""

    @pytest.mark.parametrize("color,middle,last", _ODD_COLORS,
                             ids=[repr(case[0]) for case in _ODD_COLORS])
    def test_pass_fails_exactly_when_validate_reports(self, color, middle, last):
        g = path(4)
        for colors, expect in (((1, color, 1), middle), ((1, 2, color), last)):
            c = EdgeColoring(t=2, colors=colors)
            v_int = coloring_module._interval_set(g, 2, colors)
            assert [(v.kind, v.where, v.message) for v in validate(g, c)] == expect
            assert (v_int is None) is bool(expect) is not naive_valid(g, c)
            if v_int is not None:
                assert v_int == 0b1111 and analyze(g, c).f == naive_f(g, c) == 4
            check = check_certificate(Certificate(g, 2, colors))
            assert (check.ok, check.violations) == (not expect, validate(g, c))


_DASHED = st.text(alphabet="ab-", max_size=4)


@st.composite
def _dashed_graphs(draw):
    """A connected graph whose labels may hold '-' or be empty: a path
    through the labels plus random chords."""
    labels = draw(st.lists(_DASHED, min_size=2, max_size=6, unique=True))
    edges = {frozenset(pair) for pair in zip(labels, labels[1:])}
    pairs = [frozenset((a, b)) for i, a in enumerate(labels) for b in labels[:i]]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=4)))
    return Graph.from_labels("dashed", labels, [tuple(e) for e in edges])


def _resolve(key, g):
    try:
        return _parse_edge_key(key, g)
    except GraphError as exc:
        return str(exc)


class TestEdgeKeyMap:
    """``Graph.edge_keys`` resolves an edge key in one lookup; it must give
    the one edge that ``naive_edge_key`` finds, and refuse a key that
    spells no edge or two."""

    def _agree(self, g):
        keys = {edge_key(a, b) for a in g.vertices for b in g.vertices}
        for key in keys | {"-", "bogus", "a--b"}:
            named = naive_edge_key(g, key)
            got = _resolve(key, g)
            if len(named) == 1:
                assert got == next(iter(named)), key
            elif named:
                assert got == f"edge key {key!r} names more than one edge of {g.name}"
            else:
                assert got == f"edge key {key!r} is not an edge of {g.name}"

    def test_labels_that_spell_two_edges(self):
        g = Graph.from_labels("dashes", ["a", "a-b", "b-c", "c"],
                              [("a", "b-c"), ("a-b", "c"), ("a", "c")])
        self._agree(g)
        assert g.edge_keys["a-b-c"] == -1
        with pytest.raises(GraphError, match="more than one edge"):
            _parse_edge_key("a-b-c", g)

    def test_an_edge_that_spells_itself_both_ways(self):
        # "1-1-1" is (1, 1-1) and (1-1, 1): one edge, so it resolves
        g = Graph.from_labels("self", ["1", "1-1", "2"],
                              [("1", "1-1"), ("1-1", "2")])
        self._agree(g)
        assert g.edge_keys["1-1-1"] == _parse_edge_key("1-1-1", g) == 0

    def test_empty_label(self):
        g = Graph.from_labels("empty", ["", "b"], [("", "b")])
        self._agree(g)
        assert g.edge_keys == {"b-": 0, "-b": 0}

    def test_every_petersen_key_is_one_lookup(self, P):
        assert len(P.edge_keys) == 2 * P.m
        assert sorted(set(P.edge_keys.values())) == list(range(P.m))

    @settings(deadline=None, max_examples=300)
    @given(_dashed_graphs())
    def test_agrees_with_the_definition(self, g):
        self._agree(g)

    @settings(deadline=None, max_examples=300)
    @given(_dashed_graphs())
    def test_certificates_read_back(self, g):
        cert = Certificate(graph=g, t=g.m, colors=tuple(range(1, g.m + 1)))
        doc = cert.to_dict()
        if all(len(naive_edge_key(g, key)) == 1 for key in doc["colors"]):
            assert Certificate.from_dict(doc).colors == cert.colors
        else:
            with pytest.raises(GraphError, match="more than one edge"):
                Certificate.from_dict(doc)


def _psi_doc(catalog) -> dict:
    """The catalog certificate psi as a document: Petersen by name, t=15,
    every edge keyed in catalog order (x1-x2 first), f=6 claimed."""
    doc = catalog["psi"].to_dict()
    assert next(iter(doc["colors"])) == "x1-x2" and doc["claims"] == {"f": 6}
    return doc


def _without(*keys):
    return lambda d: {k: v for k, v in d.items() if k not in keys}


def _set(key, value):
    return lambda d: {**d, key: value}


def _color(key, value):
    return lambda d: {**d, "colors": {**d["colors"], key: value}}


def _uncolored(*keys):
    return lambda d: {**d, "colors": {k: v for k, v in d["colors"].items()
                                      if k not in keys}}


_DASHES = {"name": "dashes", "vertices": ["a", "a-b", "b-c", "c"],
           "edges": [["a", "b-c"], ["a-b", "c"], ["a", "c"]]}

#: An edit that makes psi's document malformed, and the exact text of the
#: GraphError that ``Certificate.from_dict`` raises on the result.
_MALFORMED = {
    "not an object": (lambda d: [d], "certificate must be a JSON object"),
    "a string": (lambda d: "psi", "certificate must be a JSON object"),
    "no graph": (_without("graph"), "certificate missing 'graph'"),
    "no t": (_without("t"), "certificate missing 't'"),
    "no colors": (_without("colors"), "certificate missing 'colors'"),
    "no t, no colors": (_without("colors", "t"), "certificate missing 't'"),
    "no graph, no colors": (_without("colors", "graph"),
                            "certificate missing 'graph'"),
    "unknown graph": (_set("graph", "nonesuch"), "unknown graph spec 'nonesuch'"),
    "t true": (_set("t", True), "certificate t must be an integer, got True"),
    "t float": (_set("t", 2.0), "certificate t must be an integer, got 2.0"),
    "t string": (_set("t", "4"), "certificate t must be an integer, got '4'"),
    "t null": (_set("t", None), "certificate t must be an integer, got None"),
    "colors list": (_set("colors", [1, 2]),
                    "certificate colors must be an object, got [1, 2]"),
    "colors null": (_set("colors", None),
                    "certificate colors must be an object, got None"),
    "color true": (_color("x1-x2", True),
                   "color of edge 'x1-x2' must be an integer, got True"),
    "color float": (_color("x1-x2", 1.5),
                    "color of edge 'x1-x2' must be an integer, got 1.5"),
    "color string": (_color("x1-x2", "1"),
                     "color of edge 'x1-x2' must be an integer, got '1'"),
    "color null": (_color("x1-x2", None),
                   "color of edge 'x1-x2' must be an integer, got None"),
    "key of no edge": (_color("x1-x3", 1), "edge key 'x1-x3' is not an edge of petersen"),
    "bogus key": (_color("bogus", 1), "edge key 'bogus' is not an edge of petersen"),
    "ambiguous key": (lambda d: {**d, "graph": _DASHES, "t": 1,
                                 "colors": {"a-b-c": 1}},
                      "edge key 'a-b-c' names more than one edge of dashes"),
    "colored twice": (_color("x2-x1", 1), "edge 'x2-x1' colored twice"),
    "colored twice, second spelling first": (
        lambda d: {**d, "colors": {"x2-x1": 1, **d["colors"]}},
        "edge 'x1-x2' colored twice"),
    "edge missing": (_uncolored("x1-x2"), "certificate misses edges: x1-x2"),
    "two edges missing": (_uncolored("y1-y3", "x1-x2"),
                          "certificate misses edges: x1-x2, y1-y3"),
    "claims list": (_set("claims", [6]),
                    "certificate claims must be an object, got [6]"),
    "claims null": (_set("claims", None),
                    "certificate claims must be an object, got None"),
    "claimed f true": (_set("claims", {"f": True}),
                       "claimed f must be an integer, got True"),
    "claimed f null": (_set("claims", {"f": None}),
                       "claimed f must be an integer, got None"),
    "flags list": (_set("claims", {"interval": ["x1"]}),
                   "claimed interval flags must be an object, got ['x1']"),
    "flag not a bool": (_set("claims", {"interval": {"x1": True, "x2": 1}}),
                        "interval flag of 'x2' must be a boolean, got 1"),
}


class TestCertificateDocuments:
    """``Certificate.from_dict`` is the input boundary of every certificate:
    each malformed document is refused with one exact message."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_document_message(self, catalog, case):
        mutate, message = _MALFORMED[case]
        with pytest.raises(GraphError) as exc:
            Certificate.from_dict(mutate(_psi_doc(catalog)))
        assert str(exc.value) == message

    def test_well_formed_psi_reads_back(self, catalog):
        cert = Certificate.from_dict(_psi_doc(catalog))
        assert cert == catalog["psi"]
        assert check_certificate(cert) == coloring_module.CertificateCheck((), 6, ())


@st.composite
def _documents(draw):
    """A certificate document of a sampled coloring, unchanged or with one
    mutation of ``_mutated``: each edge keyed in a random endpoint order,
    the keys shuffled, f claimed. Returns the graph, the coloring the
    document holds aligned with the graph's edges, the claimed f, the
    document, and whether some edge has no spelling that names it alone."""
    g = draw(st.sampled_from(ORACLE_CORPUS) | st.just(petersen()) | _dashed_graphs())
    t = draw(st.sampled_from(legal_t_range(g)))
    (c,) = sample(g, t, seed=draw(st.integers(0, 10**6)))
    kinds = ("range", "clash", "drop", "claim") if g.m > 1 else ("range", "drop", "claim")
    kind = draw(st.sampled_from((None,) + kinds))
    claim = naive_f(g, c)
    if kind is not None:
        cert = _mutated(g, c, kind, draw(st.integers(0, g.m - 1)))
        c = cert.coloring()
        claim = cert.claim_f if kind == "claim" else claim
    keyed, ambiguous = {}, False
    for ei in draw(st.permutations(range(g.m))):
        a, b = g.edge_labels[ei]
        spellings = [edge_key(a, b), edge_key(b, a)][::draw(st.sampled_from((1, -1)))]
        alone = [key for key in spellings if g.edge_keys[key] == ei]
        ambiguous |= not alone
        keyed[(alone or spellings)[0]] = c.colors[ei]
    spec = "petersen" if g == petersen() else graph_to_dict(g)
    doc = {"graph": spec, "t": c.t, "colors": keyed, "claims": {"f": claim}}
    return g, c, claim, doc, ambiguous


class TestDocumentDifferential:
    @settings(deadline=None, max_examples=300)
    @given(_documents())
    def test_document_check_agrees_with_the_definition(self, case):
        # parsing a document and checking it gives what the definitions
        # give on the coloring it holds, in any key order and spelling
        g, c, claim, doc, ambiguous = case
        if ambiguous:
            with pytest.raises(GraphError, match="names more than one edge"):
                Certificate.from_dict(doc)
            return
        cert = Certificate.from_dict(doc)
        assert (cert.graph, cert.colors) == (g, c.colors)
        check = check_certificate(cert)
        valid = naive_valid(g, c)
        assert check.violations == validate(g, c)
        assert (check.violations == ()) is valid
        assert check.f == (naive_f(g, c) if valid else None)
        assert check.ok is (valid and claim == naive_f(g, c))
