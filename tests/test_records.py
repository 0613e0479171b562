"""The package's immutable records and what importing the package loads."""

import pytest

from mu_spectra import (
    AggregateBound,
    BoundEvidence,
    Certificate,
    CertificateCheck,
    EdgeColoring,
    EvidenceKind,
    Graph,
    MuProfile,
    Objective,
    ProfileRow,
    SearchConfig,
    SearchOutcome,
    SpectrumReport,
    Violation,
    path,
)
from mu_spectra.graphs import Record
from mu_spectra.search import _Bounds

_OUTCOME = dict(lo=1, hi=2, objective=Objective.MU2, t=1,
                witness=EdgeColoring(t=1, colors=(1,)), nodes_visited=3,
                closed_by="budget")
_ROW = dict(t=1, mu1=SearchOutcome(**_OUTCOME), mu2=SearchOutcome(**_OUTCOME))

#: Fields that build one instance of each record class, in field order.
FIELDS = {
    Graph: dict(name="P2", vertices=("a", "b"), edges=((0, 1),)),
    EdgeColoring: dict(t=4, colors=(1, 2)),
    Violation: dict(kind="range", where="a-b", message="color 5 outside [1,4]"),
    SpectrumReport: dict(v_int=0b101),
    Certificate: dict(graph=path(2), t=1, colors=(1,)),
    CertificateCheck: dict(violations=(), f=2),
    BoundEvidence: dict(kind=EvidenceKind.MOD_REDUCTION, value=3, detail="mod 3"),
    SearchConfig: dict(node_limit=5),
    _Bounds: dict(lo=1, hi=2),
    SearchOutcome: _OUTCOME,
    AggregateBound: dict(lo=1, hi=2),
    ProfileRow: _ROW,
    MuProfile: dict(graph=path(2), rows=(ProfileRow(**_ROW),)),
}
RECORDS = list(FIELDS)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    assert set(_subclasses(Record)) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        r = cls(**FIELDS[cls])
        for name in r._fields:
            value = getattr(r, name)
            with pytest.raises(AttributeError):
                setattr(r, name, value)
            with pytest.raises(AttributeError):
                delattr(r, name)
            assert getattr(r, name) is value
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_equal_fields_are_equal_records(self, cls):
        a, b = cls(**FIELDS[cls]), cls(**FIELDS[cls])
        assert a == b and not a != b
        if cls is BoundEvidence:  # its payload is a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_positional_arguments_follow_the_field_order(self, cls):
        kw = FIELDS[cls]
        r = cls(*kw.values())
        assert r == cls(**kw) and r._fields[:len(kw)] == tuple(kw)

    def test_never_equals_a_record_of_another_class_or_a_tuple(self, cls):
        r = cls(**FIELDS[cls])
        for other in RECORDS:
            if other is not cls:
                assert r != other(**FIELDS[other])
        assert r != r._values() and r != tuple(FIELDS[cls].values())

    def test_replace_without_changes_is_an_equal_copy(self, cls):
        r = cls(**FIELDS[cls])
        copy = r.replace()
        assert copy == r and copy is not r and type(copy) is cls

    def test_repr_names_every_field(self, cls):
        r = cls(**FIELDS[cls])
        assert repr(r) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(r, name)!r}" for name in r._fields) + ")"


def test_reprs_are_pinned():
    assert repr(EdgeColoring(t=4, colors=(1, 2))) == "EdgeColoring(t=4, colors=(1, 2))"
    assert repr(SearchConfig()) == (
        "SearchConfig(node_limit=100000000, time_limit_ms=None, "
        "use_reflection_symmetry=True, seed_fixtures=True, "
        "use_structural_bounds=True)")


def test_replace_changes_only_the_named_fields():
    cfg = SearchConfig(seed_fixtures=False)
    changed = cfg.replace(node_limit=7)
    assert (changed.node_limit, changed.seed_fixtures) == (7, False)
    assert cfg.node_limit == 10**8
    assert changed != cfg


def test_replace_runs_the_checks_of_init():
    with pytest.raises(ValueError, match="node_limit"):
        SearchConfig().replace(node_limit=0)
    with pytest.raises(TypeError):
        SearchConfig().replace(no_such_field=1)


def test_replace_recomputes_derived_fields():
    prof = MuProfile(**FIELDS[MuProfile])
    low = SearchOutcome(**{**_OUTCOME, "lo": 0})
    moved = prof.replace(rows=(ProfileRow(t=1, mu1=low, mu2=low),))
    assert (prof.mu11.lo, moved.mu11.lo, moved.mu22.lo) == (1, 0, 0)


def test_evidence_payloads_are_not_shared():
    a = BoundEvidence(kind=EvidenceKind.MOD_REDUCTION, value=3, detail="mod 3")
    b = BoundEvidence(kind=EvidenceKind.MOD_REDUCTION, value=3, detail="mod 3")
    assert a.payload == {} and a.payload is not b.payload


def test_graph_keeps_its_cached_properties_out_of_the_fields():
    g = path(3)
    assert g.degrees == (1, 2, 1)
    assert "degrees" in vars(g)
    assert g == Graph(name=g.name, vertices=g.vertices, edges=g.edges)


# perfbench's setup_s code: import, build the catalog and Petersen's t range
SETUP = ("import mu_spectra; mu_spectra.fixtures(); "
         "list(mu_spectra.legal_t_range(mu_spectra.petersen()))")


def importers(trace: list[str], name: str) -> list[str]:
    """The ``-X importtime`` lines from ``name``'s own import up to the
    top-level import that caused it; a child is printed before its
    parent, one indent deeper."""
    def depth(line: str) -> int:
        field = line.rsplit("|", 1)[-1]
        return len(field) - len(field.lstrip())

    for i, line in enumerate(trace):
        if line.rsplit("|", 1)[-1].strip() == name:
            chain = [line]
            for later in trace[i + 1:]:
                if depth(later) < depth(chain[-1]):
                    chain.append(later)
            return chain
    return []


def assert_not_loaded(fresh, code: str, names, flags) -> None:
    """After ``code`` in a fresh interpreter none of ``names`` is loaded;
    on failure the message shows how each one came in, from a re-run under
    ``-X importtime``."""
    proc = fresh(code + "\nprint(*sorted(m for m in sys.argv[2:] "
                 "if m in sys.modules))", *names, flags=flags)
    loaded = proc.stdout.split()
    why = []
    if loaded:
        trace = fresh(code, flags=(*flags, "-X", "importtime")).stderr
        why = [line for m in loaded for line in importers(trace.splitlines(), m)]
    assert (proc.returncode, loaded, proc.stderr) == (0, [], ""), "\n".join(why)


def test_import_loads_no_heavy_modules(fresh):
    # os stays: fixtures.dump's annotations name it (-I without -S loads it
    # anyway, with re and random)
    assert_not_loaded(fresh, "import mu_spectra",
                      ("dataclasses", "inspect", "typing", "pathlib", "json",
                       "re", "random"), ("-I", "-S"))


def test_setup_skips_json(fresh):
    # run as perfbench times setup_s: -I, site on
    assert_not_loaded(fresh, SETUP, ("json",), ("-I",))


def test_footprint_failure_names_the_importer(fresh):
    with pytest.raises(AssertionError) as err:
        assert_not_loaded(fresh, "import mu_spectra.cli", ("json",),
                          ("-I", "-S"))
    names = [line.rsplit("|", 1)[-1].strip()
             for line in str(err.value).splitlines() if "|" in line]
    assert {"json", "mu_spectra.cli"} <= set(names)
