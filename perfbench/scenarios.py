"""Seeded scenario batches for the benchmark workloads.

A batch is a list of scenario documents (schema 1) that the benchmark writes
to disk and hands to ``greencurves.cli.run_scenario``; the program sees only
those files.  The seed picks geometry (radii, centers, star shapes, disc
positions, functions, exact sizes), never the amount of work: every family
sits in a fixed slot of the batch and its size is drawn along a curve of
nearly constant cost (``n * resolution**2`` for the grid workload), so the
batch time is comparable across seeds and a timing change means the program
changed, not the inputs.

This module also rebuilds curve vertices and function values from the
family formulas, independently of the library, for the verdict gate.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEV_SEED = 1
"""Seed used while developing or tuning a change."""

HELDOUT_SEED = 90210
"""Seed kept out of development; a claimed gain must also hold on it."""

WORKLOADS = ("green_grid", "localize_sweep")

BUNDLED = {
    # sha256 of the report.json bytes each bundled scenario produces at the
    # commit that introduced the benchmark; reports must stay byte-identical
    "circle_zbar.json": "418861cec20d36386b01f940a01096143c86d6a4364c0e97bd96b23989da33d0",
    "bowtie_green.json": "3afe395b8b807c23c3b5bedfb72987c3435dfa8bf64882f77b47bff8ba47b931",
}

CONJ = {"family": "monomial", "params": {"a": 0, "b": 1}}
Z_CONJ = {"family": "monomial", "params": {"a": 1, "b": 1}}
ZBAR_ABSZ = {"family": "zbar_absz", "params": {}}
CUTOFF = {"r_inner": 1.8, "r_outer": 2.2}


@dataclass(frozen=True)
class Scenario:
    name: str
    data: bytes
    bundled_digest: str = ""  # expected report.json sha256, bundled scenarios only

    @property
    def doc(self) -> dict:
        return json.loads(self.data)


def _encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def _iso_cost(rng: random.Random, res_lo: int, res_hi: int, cost: float, mult: int = 1):
    """Resolution drawn from [res_lo, res_hi] (multiple of 8), n = cost / res**2."""
    res = 8 * rng.randint(res_lo // 8, res_hi // 8)
    n = max(mult, mult * round(cost / (res * res) / mult))
    return n, res


def _green(rng, name, curve, fn, res, refine=3):
    return {
        "schema": 1, "seed": rng.randrange(2 ** 31), "curve": curve, "function": fn,
        "grid": {"resolution": res, "dilate": 1.5, "band_diagonals": 2.0},
        "quadrature": {"contour_order": 8, "refine": refine}, "checks": ["green"],
        "_name": name,
    }


def _green_grid(rng: random.Random) -> list:
    # each family keeps its function, so the worst accuracy ratio of a batch
    # comes from the same scenario on every seed; kfold gets z*conj(z), whose
    # two sides nearly vanish on a k-fold circle about the origin

    def center():
        return [round(rng.uniform(-0.2, 0.2), 6), round(rng.uniform(-0.2, 0.2), 6)]

    docs = []
    n, res = _iso_cost(rng, 384, 400, 256 * 400 ** 2)
    docs.append(_green(rng, "circle", {"family": "circle", "params": {
        "n": n, "radius": round(rng.uniform(0.8, 1.25), 6), "center": center()}}, CONJ, res))
    n, res = _iso_cost(rng, 384, 400, 240 * 400 ** 2)
    docs.append(_green(rng, "trefoil", {"family": "trefoil", "params": {
        "n": n, "c": round(rng.uniform(0.55, 0.8), 6)}}, ZBAR_ABSZ, res))
    for k in (2, 3):
        n, res = _iso_cost(rng, 384, 416, 96 * 416 ** 2, mult=k)
        docs.append(_green(rng, f"kfold{k}", {"family": "kfold", "params": {
            "k": k, "n": n, "radius": round(rng.uniform(0.8, 1.25), 6),
            "center": [round(rng.uniform(-0.01, 0.01), 6), round(rng.uniform(-0.01, 0.01), 6)]}},
            Z_CONJ, res))
    n, res = _iso_cost(rng, 448, 480, 96 * 448 ** 2)
    docs.append(_green(rng, "star", {"family": "star", "params": {
        "n": n, "seed": rng.randrange(10 ** 6), "r_min": 0.75, "r_max": 1.0,
        "center": center()}}, CONJ, res))
    n, res = _iso_cost(rng, 448, 512, 128 * 448 ** 2)
    docs.append(_green(rng, "spiral", {"family": "spiral", "params": {
        "turns": 2, "r0": round(rng.uniform(0.25, 0.4), 6), "r1": 1.0, "n": n}}, Z_CONJ, res))
    # four vertices: cheap at any resolution, so it carries the fourth refinement level
    docs.append(_green(rng, "bowtie", {"family": "bowtie", "params": {
        "scale": round(rng.uniform(0.7, 1.4), 6)}}, ZBAR_ABSZ, 512, refine=4))
    return docs


def _localize_sweep(rng: random.Random) -> list:
    # delta_sweep cost grows with the number of pieces, i.e. with curve length
    # over delta; radii keep every curve near the same length
    fn = dict(CONJ, cutoff=CUTOFF)
    curves = [
        ("circle", {"family": "circle", "params": {
            "n": 8 * rng.randint(30, 32), "radius": round(rng.uniform(0.56, 0.58), 6)}}),
        ("star", {"family": "star", "params": {
            "n": 8 * rng.randint(7, 8), "seed": rng.randrange(10 ** 6),
            "r_min": 0.4, "r_max": 0.6}}),
        ("circle_off", {"family": "circle", "params": {
            "n": 8 * rng.randint(14, 16), "radius": round(rng.uniform(0.56, 0.58), 6),
            "center": [round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(-0.3, 0.3), 6)]}}),
    ]
    docs = []
    for name, curve in curves:
        v = vertices(curve)
        # a depth-7 dyadic square straddling the curve near a random vertex
        p = v[rng.randrange(v.size)]
        sq = [round(p.real + rng.uniform(-0.04, 0.04), 6),
              round(p.imag + rng.uniform(-0.04, 0.04), 6)]
        docs.append({
            "schema": 1, "seed": rng.randrange(2 ** 31), "curve": curve, "function": fn,
            "deltas": [0.4, 0.2, 0.1, 0.05],
            "square": {"center": sq, "half": 0.125, "depth": 7},
            "mollifier": {"z": [round(rng.uniform(-0.4, 0.4), 6),
                                round(rng.uniform(-0.4, 0.4), 6)], "eps": 0.05},
            "checks": ["vitushkin", "square", "mollifier"], "_name": name,
        })
    # disc geometry rides along: pairwise self-intersections and the main
    # lemma's per-edge crossing loops, with discs stratified over radii 0.25-0.9
    discs = [{"center": [round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(-0.3, 0.3), 6)],
              "radius": round(0.25 + 0.65 * (k + rng.random()) / 8, 6)} for k in range(8)]
    docs.append({
        "schema": 1, "seed": rng.randrange(2 ** 31),
        "curve": {"family": "star", "params": {
            "n": 8 * rng.randint(37, 39), "seed": rng.randrange(10 ** 6)}},
        "discs": discs, "checks": ["decompose", "mainlemma"], "_name": "disc_star",
    })
    return docs


_BUILDERS = {
    "green_grid": _green_grid,
    "localize_sweep": _localize_sweep,
}


def make_batch(workload: str, seed: int, scenario_dir: Path) -> list:
    """The scenario batch of one workload for one seed; same seed, same bytes.

    ``scenario_dir`` holds the bundled scenarios, which the grid workload
    includes verbatim.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    out = []
    if workload == "green_grid":
        for fname, digest in sorted(BUNDLED.items()):
            out.append(Scenario(f"bundled_{fname[:-5]}", (scenario_dir / fname).read_bytes(),
                                digest))
    for k, doc in enumerate(_BUILDERS[workload](rng)):
        name = doc.pop("_name")
        out.append(Scenario(f"{k:02d}_{name}", _encode(doc)))
    return out


def batch_digest(batch: list) -> str:
    """sha256 over the names and bytes of every scenario, in batch order."""
    h = hashlib.sha256()
    for sc in batch:
        h.update(sc.name.encode() + b"\0" + sc.data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# independent family formulas (used by the verdict gate, not by the program)


def _center(params) -> complex:
    c = params.get("center", [0.0, 0.0])
    return complex(*c) if isinstance(c, list) else complex(c)


def vertices(curve_spec: dict) -> np.ndarray:
    """Vertices of a gallery curve, rebuilt from its formula."""
    fam, p = curve_spec["family"], curve_spec.get("params", {})
    if fam in ("circle", "kfold"):
        n, k = int(p.get("n", 64)), int(p.get("k", 1 if fam == "circle" else 2))
        return _center(p) + float(p.get("radius", 1.0)) * np.exp(2j * np.pi * k * np.arange(n) / n)
    if fam == "trefoil":
        n, c = int(p.get("n", 120)), float(p.get("c", 0.7))
        t = 2 * np.pi * np.arange(n) / n
        return np.exp(1j * t) + c * np.exp(-2j * t)
    if fam == "spiral":
        n, turns = int(p.get("n", 128)), float(p.get("turns", 2))
        r0, r1 = float(p.get("r0", 0.3)), float(p.get("r1", 1.0))
        i = np.arange(n)
        return (r0 + (r1 - r0) * i / (n - 1)) * np.exp(2j * np.pi * turns * i / (n - 1))
    if fam == "star":
        n = int(p.get("n", 24))
        tag = zlib.crc32(b"curve.star")
        rng = np.random.default_rng(np.random.SeedSequence([int(p.get("seed", 0)) & 0xFFFFFFFF, tag]))
        r = rng.uniform(float(p.get("r_min", 0.5)), float(p.get("r_max", 1.0)), size=n)
        return _center(p) + r * np.exp(2j * np.pi * np.arange(n) / n)
    if fam == "bowtie":
        return np.array([-1 - 1j, 1 - 1j, -0.5 + 1j, 0.5 + 1j]) * float(p.get("scale", 1.0))
    raise ValueError(f"no formula for curve family {fam!r}")


def function_values(fn_spec: dict, z: np.ndarray) -> np.ndarray:
    """Values of a scenario function without its cutoff (the cutoff only shrinks |f|)."""
    fam, p = fn_spec["family"], fn_spec.get("params", {})
    if fam == "monomial":
        return complex(p.get("coeff", 1.0)) * z ** int(p.get("a", 0)) * np.conj(z) ** int(p.get("b", 1))
    if fam == "zbar_absz":
        return np.conj(z) * np.abs(z)
    raise ValueError(f"no formula for function family {fam!r}")


def shoelace_area(v: np.ndarray) -> float:
    """Signed area enclosed by a closed polygon, counted with multiplicity."""
    w = np.roll(v, -1)
    return float(0.5 * np.sum(v.real * w.imag - w.real * v.imag))


def polygon_length(v: np.ndarray) -> float:
    return float(np.abs(np.roll(v, -1) - v).sum())


def is_conj_z(fn_spec: dict) -> bool:
    """True for plain conj(z), whose contour integral is 2i times the signed area."""
    return (fn_spec["family"] == "monomial" and "cutoff" not in fn_spec
            and int(fn_spec["params"].get("a", 0)) == 0 and int(fn_spec["params"].get("b", 1)) == 1
            and complex(fn_spec["params"].get("coeff", 1.0)) == 1)

