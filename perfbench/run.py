"""mu-spectra benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload profile --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs half of ``--seconds`` untraced and half traced and reports the per-layer
metrics (METRICS.md lists them all). Either way every output is checked, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The ``env`` line
before it records the run environment, and the ``info`` line the
workload's exact counts, the raw (unscaled) timings and the speed factor.
``--smoke`` runs one tiny case of each workload, traced and untraced, and
asserts the counters it reads.

Every timing is scaled to a reference speed; speed.py says why and how.

The library is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
# run in a fresh interpreter: argv[1] is src/, argv[2] this directory
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[2])
from speed import timed

def setup():
    sys.path.insert(0, sys.argv[1])
    import mu_spectra
    mu_spectra.fixtures()
    list(mu_spectra.legal_t_range(mu_spectra.petersen()))
    return mu_spectra.__file__

path, raw, meter = timed(setup)
assert path.startswith(sys.argv[1])
print(raw, raw * meter.factor())
"""


def import_library():
    sys.path.insert(0, str(SRC))
    import mu_spectra

    if not Path(mu_spectra.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mu_spectra imported from {mu_spectra.__file__}, not {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
    }


def measure_setup() -> tuple[float, float]:
    """Median scaled and raw time for a fresh interpreter to import the
    library, build the catalog and the Petersen graph's t range; each
    interpreter samples its own speed."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True)
        r, s = map(float, proc.stdout.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Rep:
    wall: float           # scaled seconds
    raw: float            # unscaled seconds
    speed: float          # factor applied
    verify: float | None  # scaled median certificate check, seconds
    counts: dict


class Runner:
    """Repeats one workload, clearing the library's caches before each repetition."""

    def __init__(self, workload, checks, caches):
        self.workload = workload
        self.checks = checks
        self.caches = caches

    def rep(self, tracer=None) -> Rep:
        for fn in self.caches:
            fn.cache_clear()
        gc.collect()
        res, raw, meter = timed(lambda: self.workload.rep(self.checks),
                                tracer.reference_sample if tracer else None)
        speed = meter.factor()
        if tracer is not None:
            tracer.end_rep(speed)
        verify = (statistics.median(meter.scaled(*span) for span in res.verify_spans)
                  if res.verify_spans else None)
        return Rep(raw * speed, raw, speed, verify, res.counts)

    def run(self, seconds: float, tracer=None) -> list[Rep]:
        """Repetitions until ``seconds`` have passed."""
        reps: list[Rep] = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(self.rep(tracer))
        return reps


def lru_caches() -> dict:
    """Every lru_cache of the package by name, so that each repetition
    starts from empty caches as a fresh process does."""
    from tracer import package_modules

    found = {}
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__.startswith("mu_spectra"):
                found[f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"] = obj
    return found


def fixtures_build_s(caches: dict) -> float:
    """Median scaled cold build of the fixture catalog, in process."""
    build = caches["fixtures.fixtures"]
    times = []
    for _ in range(5):
        build.cache_clear()
        _, raw, meter = timed(build)
        times.append(raw * meter.factor())
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_of(reps: list[Rep], key: str) -> float:
    return statistics.median(getattr(r, key) for r in reps)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_raw = measure_setup()
    runner.rep()  # warm-up, not timed
    reps = runner.run(seconds)
    verify = [r.verify for r in reps if r.verify is not None]
    metrics = {
        "wall_s": metric(median_of(reps, "wall"), "s"),
        "verify_p50_us": metric(statistics.median(verify) * 1e6, "us"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    info = {"reps": len(reps), "counts": reps[-1].counts,
            "raw": {"wall_s": median_of(reps, "raw"), "setup_s": setup_raw},
            "speed_factor": median_of(reps, "speed")}
    return metrics, info


def per_layer(runner: Runner, seconds: float, caches: dict) -> tuple[dict, dict]:
    from tracer import Tracer

    build_s = fixtures_build_s(caches)
    runner.rep()  # warm-up, not timed
    untraced = runner.run(seconds / 2)
    tracer = Tracer(caches)
    tracer.install()
    try:
        traced = runner.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(len(traced))
    values["fixtures.build_s"] = build_s
    values["trace.overhead_ratio"] = (median_of(traced, "wall")
                                      / median_of(untraced, "wall"))
    metrics = {name: metric(values[name], unit)
               for name, unit in declared_units("per_layer").items()}
    mean_wall = statistics.fmean(r.wall for r in traced)
    shares = {k: round(v / mean_wall, 3)
              for k, v in values.items() if k.endswith(".self_s")}
    info = {"reps_untraced": len(untraced), "reps_traced": len(traced),
            "speed_factor": median_of(traced, "speed"),
            "self_share_of_traced_wall": shares}
    return metrics, info


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def smoke() -> int:
    """Tiny case of each workload, untraced and traced; asserts the counters."""
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    caches = lru_caches()
    per_layer_names = set(declared_units("per_layer"))
    for name, cls in WORKLOADS.items():
        checks = Checks()
        workload = cls(0, tiny=True)
        try:
            runner = Runner(workload, checks, list(caches.values()))
            counts = runner.rep().counts
            tracer = Tracer(caches)
            tracer.install()
            try:
                runner.rep(tracer)
            finally:
                tracer.uninstall()
            values = tracer.metrics(1)
        finally:
            workload.close()
        assert checks.failed == 0, checks.messages
        missing = (per_layer_names - set(values)
                   - {"fixtures.build_s", "trace.overhead_ratio"})
        assert not missing, f"per-layer metrics not computed: {missing}"
        assert values["coloring.check_certificate_calls"] >= 1, values
        if name == "exact":
            assert counts == {"nodes": 13_449}, counts
            for key in ("search.nodes", "search.nodes.t4.mu1"):
                assert values[key] == 13_449, (key, values[key])
            assert values["search.solve_calls"] == 1
            assert values["search.closed.exhausted"] == 1
        if name == "profile":
            assert values["search.solve_calls"] == 24
            assert values["search.nodes"] == counts["nodes"]
            assert values["search.exact_cells"] == counts["exact_cells"]
        if name == "certify":
            assert values["search.samples"] == counts["samples"] == 2
        print(f"smoke {name}: ok ({checks.attempted} checks)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("profile", "exact", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    env = environment(args)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS, Checks

    print("env " + json.dumps(env, sort_keys=True))
    caches = lru_caches()
    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, checks, list(caches.values()))
    try:
        if args.trace:
            metrics, info = per_layer(runner, args.seconds, caches)
        else:
            metrics, info = end_to_end(runner, args.seconds)
    except Exception:
        traceback.print_exc()
        checks.expect(False, "repetition raised")
        metrics, info = {}, {}
    finally:
        workload.close()

    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    info["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0 and bool(metrics),
                      "attempted": max(checks.attempted, 1),
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
