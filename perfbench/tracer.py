"""In-memory span recorder wrapped around the public functions of mu_spectra.

The library is not instrumented. Instead, ``Tracer.install`` replaces every
module-level binding of each public function of the layer modules (and each
public classmethod of their classes) with a wrapper that records a span:
the function's name, its start and end on ``time.perf_counter``, and the
span that was open when it was called. Modules import names
directly (``search`` calls its own binding of ``mu2_caps``, ``cli`` its own
``profile``), so every binding in every module of the package is replaced,
not just the one in the defining module. ``uninstall`` puts the originals
back.

A few spans also hand their return value to a hook that records counters
at the boundary where the work happens: nodes and closing reason of each
``solve``, colorings drawn by ``sample``, evidence returned by the
structural bound functions. ``lru_cache`` statistics are read per
repetition (``end_rep``), before the runner clears the caches.

Private helpers (``search._branch_and_bound``, ``cli._petersen_checks``,
...) are not wrapped, so their time is self time of the public caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("search", "structural", "graphs", "coloring", "fixtures", "cli")
PACKAGE = "mu_spectra"

# lru-cached functions whose hit ratio is reported
CACHED = ("graphs.chromatic_index", "graphs.all_perfect_matchings")
# functions that turn a graph document or name into a Graph
GRAPH_PARSE = ("graphs.from_spec", "graphs.graph_from_dict", "graphs.load_graph")
# the profile table: every legal t of the Petersen graph, both objectives
PROFILE_CELLS = tuple((t, obj) for t in range(4, 16) for obj in ("mu1", "mu2"))
CLOSED_BY = ("bounds-closed", "bound-met", "exhausted", "budget")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_functions(module):
    """(qualname, function) for each public function defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _public_classmethods(module):
    """(class, attribute, descriptor) for public classmethods and staticmethods."""
    for obj in vars(module).values():
        if not isinstance(obj, type) or obj.__module__ != module.__name__:
            continue
        for attr, desc in vars(obj).items():
            if not attr.startswith("_") and isinstance(desc, (classmethod, staticmethod)):
                yield obj, attr, desc


class Tracer:
    """Records spans of calls into the layers while installed.

    A span is ``[function id, start, end, parent span, child time,
    reference-sample time]``. ``end_rep`` folds the spans of one repetition
    into per-function totals, scaled by that repetition's speed factor (see
    speed.py), and drops them.
    """

    def __init__(self, caches: dict[str, object]):
        self.names: list[str] = []          # span name per function id
        self.spans: list[list] = []         # spans of the current repetition
        self.stack: list[list] = []         # open spans, innermost last
        self.caches = caches                # span name -> original lru wrapper
        self.cache_stats = {name: [0, 0] for name in CACHED}   # hits, misses
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)      # inclusive seconds
        self.self_s: dict[str, float] = defaultdict(float)     # per layer
        self.span_count = 0
        self.solves: list[tuple] = []
        self.samples = 0
        self.evidence = 0
        self._undo: list[tuple] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [fid, clock(), 0.0, stack[-1] if stack else None, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hook(self, name: str):
        return {
            "search.solve": self._on_solve,
            "search.sample": self._on_sample,
            "structural.mu2_caps": self._on_evidence,
            "structural.mu1_floors": self._on_evidence,
        }.get(name)

    def install(self) -> None:
        modules = package_modules()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qual, fn in _public_functions(module):
                name = f"{layer}.{qual}"
                wrapped[id(fn)] = self._wrap(name, fn, self._hook(name))
            for cls, attr, desc in _public_classmethods(module):
                name = f"{layer}.{cls.__name__}.{attr}"
                new = type(desc)(self._wrap(name, desc.__func__))
                self._undo.append((cls, attr, desc))
                setattr(cls, attr, new)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and not isinstance(obj, type):
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters read at the boundary ------------------------------------

    def _on_solve(self, out) -> None:
        seeded = any(e.kind.value == "certificate-lower-bound" for e in out.evidence)
        self.solves.append((out.t, out.objective.value, out.nodes_visited,
                            out.closed_by, out.is_exact, out.hi - out.lo, seeded))

    def _on_sample(self, colorings) -> None:
        self.samples += len(colorings)

    def _on_evidence(self, evidence) -> None:
        self.evidence += len(evidence)

    def reference_sample(self, start: float, end: float) -> None:
        """A speed sample taken inside the open spans: none of their work."""
        rec = self.stack[-1] if self.stack else None
        while rec is not None:
            rec[5] += end - start
            rec = rec[3]

    def end_rep(self, speed: float) -> None:
        """Fold one repetition's spans into the totals, scaled by ``speed``,
        and accumulate lru statistics (before the runner clears the caches)."""
        for _fid, start, end, parent, _child, cal in self.spans:
            if parent is not None:
                parent[4] += end - start - cal
        for fid, start, end, _parent, child, cal in self.spans:
            name = self.names[fid]
            self.calls[name] += 1
            self.total[name] += (end - start - cal) * speed
            self.self_s[name.split(".", 1)[0]] += (end - start - cal - child) * speed
        self.span_count += len(self.spans)
        self.spans.clear()
        for name, stats in self.cache_stats.items():
            info = self.caches[name].cache_info()
            stats[0] += info.hits
            stats[1] += info.misses

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, reps: int) -> dict[str, float]:
        """Per-repetition layer metrics over everything recorded."""
        calls, total = self.calls, self.total

        def per_rep(x):
            return x / reps

        def per_call_us(names):
            n = sum(calls[k] for k in names)
            return sum(total[k] for k in names) / n * 1e6 if n else 0.0

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_rep(self.self_s[layer])

        solves = self.solves
        out["search.solve_calls"] = per_rep(len(solves))
        out["search.nodes"] = per_rep(sum(s[2] for s in solves))
        for tag in CLOSED_BY:
            out[f"search.closed.{tag}"] = per_rep(sum(s[3] == tag for s in solves))
        for t, obj in PROFILE_CELLS:
            out[f"search.nodes.t{t}.{obj}"] = per_rep(
                sum(s[2] for s in solves if s[0] == t and s[1] == obj))
        exact = sum(s[4] for s in solves)
        out["search.exact_cells"] = per_rep(exact)
        out["search.open_gap"] = per_rep(sum(s[5] for s in solves))
        out["search.exact_ratio"] = exact / len(solves) if solves else 0.0
        out["search.sample_calls"] = per_rep(calls["search.sample"])
        out["search.samples"] = per_rep(self.samples)
        out["search.legal_t_range_calls"] = per_rep(calls["search.legal_t_range"])

        out["structural.mu2_caps_calls"] = per_rep(calls["structural.mu2_caps"])
        out["structural.mu1_floors_calls"] = per_rep(calls["structural.mu1_floors"])
        out["structural.evidence_applied"] = per_rep(self.evidence)

        out["graphs.chromatic_index_calls"] = per_rep(calls["graphs.chromatic_index"])
        out["graphs.chromatic_index_s"] = per_rep(total["graphs.chromatic_index"])
        for name in CACHED:
            out[f"{name}_hit_ratio"] = ratio(*self.cache_stats[name])
        out["graphs.delete_vertex_calls"] = per_rep(calls["graphs.delete_vertex"])
        out["graphs.graph_parse_calls"] = per_rep(sum(calls[k] for k in GRAPH_PARSE))
        out["graphs.graph_parse_us"] = per_call_us(GRAPH_PARSE)

        for fn in ("validate", "analyze", "check_certificate", "Certificate.from_dict"):
            key = fn.rsplit(".", 1)[-1]
            out[f"coloring.{key}_calls"] = per_rep(calls[f"coloring.{fn}"])
            out[f"coloring.{key}_us"] = per_call_us([f"coloring.{fn}"])
        out["coloring.rebind_calls"] = per_rep(calls["coloring.rebind"])

        out["fixtures.seeded_cells"] = per_rep(sum(s[6] for s in solves))

        out["cli.main_calls"] = per_rep(calls["cli.main"])
        out["cli.main_s"] = per_rep(total["cli.main"])

        out["trace.spans"] = per_rep(self.span_count)
        return out
