"""Catalog of reference colorings of the Petersen graph.

Four standalone colorings plus two recolor sequences:

* ``phi``     t=15, f=0   (all colors distinct, no interval spectra)
* ``psi``     t=15, f=6
* ``epsilon`` t=4,  f=2
* ``sigma``   t=4,  f=8
* ``psi0..psi10``    psi followed by one recoloring per step, walking t from
  15 down to 5 while keeping f >= 6
* ``lambda0..lambda10``  epsilon followed by one recoloring per step, walking
  t from 4 up to 14 while keeping f = 0

Sequences are stored as a base coloring plus an ordered patch list; the
catalog materializes every stage and re-verifies it against its claimed
(t, f) pair, so a transcription slip fails fast at first use. ``psi0`` and
``lambda0`` are aliases of ``psi`` and ``epsilon``.

``dump(OUTDIR)`` writes the catalog as certificate JSON files:
``python -c "from mu_spectra.fixtures import dump; dump('OUTDIR')"``.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import lru_cache

from .coloring import Certificate, check_certificate
from .graphs import edge_key, petersen

_Patch = Mapping[tuple[str, str], int]

_PHI: _Patch = {
    ("x1", "x2"): 1, ("x1", "y1"): 2, ("y1", "y3"): 3, ("x1", "x5"): 4,
    ("x5", "y5"): 5, ("y1", "y4"): 6, ("x4", "x5"): 7, ("x4", "y4"): 8,
    ("y2", "y5"): 9, ("x3", "x4"): 10, ("x3", "y3"): 11, ("y3", "y5"): 12,
    ("x2", "x3"): 13, ("x2", "y2"): 14, ("y2", "y4"): 15,
}
_PSI: _Patch = {
    ("y1", "y3"): 1, ("y3", "y5"): 2, ("x3", "y3"): 3, ("x2", "x3"): 4,
    ("x3", "x4"): 5, ("x4", "y4"): 6, ("x4", "x5"): 7, ("x5", "y5"): 8,
    ("x1", "x5"): 9, ("x1", "y1"): 10, ("x1", "x2"): 11, ("x2", "y2"): 12,
    ("y2", "y5"): 13, ("y2", "y4"): 14, ("y1", "y4"): 15,
}
_EPSILON: _Patch = {
    ("x1", "y1"): 1, ("x2", "x3"): 1, ("y3", "y5"): 1, ("x4", "x5"): 1,
    ("y2", "y4"): 1,
    ("x1", "x2"): 2, ("x3", "x4"): 2, ("y2", "y5"): 2,
    ("y1", "y4"): 3, ("x3", "y3"): 3, ("x5", "y5"): 3,
    ("x1", "x5"): 4, ("y1", "y3"): 4, ("x4", "y4"): 4, ("x2", "y2"): 4,
}
_SIGMA: _Patch = {
    ("y1", "y4"): 1, ("y3", "y5"): 1,
    ("x1", "x2"): 2, ("y1", "y3"): 2, ("x3", "x4"): 2, ("y2", "y4"): 2,
    ("x5", "y5"): 2,
    ("x2", "y2"): 3, ("x3", "y3"): 3, ("x4", "y4"): 3, ("x1", "x5"): 3,
    ("x1", "y1"): 4, ("x2", "x3"): 4, ("x4", "x5"): 4, ("y2", "y5"): 4,
}

# (t, f, recolored edges) for each step after the base coloring
_PSI_STEPS: tuple[tuple[int, int, _Patch], ...] = (
    (14, 6, {("y1", "y4"): 2}),
    (13, 6, {("y2", "y4"): 11}),
    (12, 6, {("y2", "y5"): 10}),
    (11, 6, {("x2", "y2"): 9}),
    (10, 6, {("x1", "x2"): 8, ("y2", "y4"): 8}),
    (9, 6, {("x1", "y1"): 7, ("y2", "y5"): 7}),
    (8, 6, {("x1", "x5"): 6, ("x2", "y2"): 6}),
    (7, 7, {("x1", "x2"): 5, ("x5", "y5"): 5, ("y2", "y4"): 5}),
    (6, 7, {("x1", "y1"): 4, ("x4", "x5"): 4, ("y2", "y5"): 4}),
    (5, 7, {("x1", "x5"): 3, ("x4", "y4"): 3, ("x2", "y2"): 3}),
)
_LAMBDA_STEPS: tuple[tuple[int, int, _Patch], ...] = (
    (5, 0, {("x2", "x3"): 5, ("y2", "y5"): 5}),
    (6, 0, {("y3", "y5"): 6}),
    (7, 0, {("y2", "y4"): 7}),
    (8, 0, {("x4", "x5"): 8}),
    (9, 0, {("x1", "x2"): 9}),
    (10, 0, {("x5", "y5"): 10}),
    (11, 0, {("x3", "y3"): 11}),
    (12, 0, {("x4", "y4"): 12}),
    (13, 0, {("y1", "y3"): 13}),
    (14, 0, {("x2", "y2"): 14}),
)


def _certificate(name: str, t: int, f: int, colors: list[int]) -> Certificate:
    cert = Certificate(graph=petersen(), t=t, colors=tuple(colors),
                       claim_f=f, source="petersen")
    result = check_certificate(cert)
    if not result.ok:
        problems = [v.message for v in result.violations] + list(result.mismatches)
        raise RuntimeError(f"fixture {name} fails its own claims: {problems}")
    return cert


def _apply(patch: _Patch, colors=(0,) * 15) -> list[int]:
    """``colors`` (by default, none) with the patched edges recolored; every
    edge must end up colored."""
    g = petersen()
    out = list(colors)
    for (a, b), col in patch.items():
        out[g.edge_keys[edge_key(a, b)]] = col
    if 0 in out:
        raise RuntimeError("fixture table misses an edge")
    return out


@lru_cache(maxsize=1)
def fixtures() -> dict[str, Certificate]:
    """All catalog colorings, verified, keyed by name.

    26 keys; ``psi0`` and ``lambda0`` alias ``psi`` and ``epsilon``.
    """
    cat: dict[str, Certificate] = {}
    cat["phi"] = _certificate("phi", 15, 0, _apply(_PHI))
    cat["psi"] = _certificate("psi", 15, 6, _apply(_PSI))
    cat["epsilon"] = _certificate("epsilon", 4, 2, _apply(_EPSILON))
    cat["sigma"] = _certificate("sigma", 4, 8, _apply(_SIGMA))

    cat["psi0"] = cat["psi"]
    cur = _apply(_PSI)
    for k, (t, f, patch) in enumerate(_PSI_STEPS, start=1):
        cur = _apply(patch, cur)
        cat[f"psi{k}"] = _certificate(f"psi{k}", t, f, cur)

    cat["lambda0"] = cat["epsilon"]
    cur = _apply(_EPSILON)
    for k, (t, f, patch) in enumerate(_LAMBDA_STEPS, start=1):
        cur = _apply(patch, cur)
        cat[f"lambda{k}"] = _certificate(f"lambda{k}", t, f, cur)

    if len(cat) != 26:
        raise RuntimeError(f"catalog has {len(cat)} entries, expected 26")
    return cat


def dump(outdir: str | os.PathLike[str]) -> list[os.PathLike[str]]:
    """Write every catalog entry as <name>.json under outdir."""
    import json  # here, so that importing the package skips json
    from pathlib import Path  # here, so that importing the package skips pathlib

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, cert in fixtures().items():
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written
