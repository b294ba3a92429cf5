"""Scenario-driven command line front end.

Usage:
    greencurves run scenario.json [--out DIR] [--svg] [--verbose]
    greencurves gallery
    greencurves render report.json --kind K [--out FILE]

A scenario is a JSON document (schema 1) naming a curve, a function, grid and
quadrature settings, and a list of checks to run.  Reports are canonical
JSON: rerunning the same scenario with the same seed produces byte-identical
bytes.  Timings go to stderr with --verbose, never into the report.

Exit codes: 0 success, 1 hard invariant failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import seed_stream
from .curves import curve_families, gallery_curves, jordan_decompose, length, make_curve
from .errors import GreenCurvesError, KindMismatch, OnCurve, ParseError
from .functions import function_families, make_function, truncated_cauchy, with_cutoff
from .integration import (GreenConfig, Square, _check_mollifier_input, contour_integral,
                          green_on_square, mollifier_identity_check, verify_green)
from .mainlemma import Disc, bound_check, exterior_integral_identity, geometry_dump, with_jitter
from .svg import render_svg
from .vitushkin import delta_sweep, sweep_partition
from .winding import GridSpec, distance_to_curve, index_field, winding_numbers

_CHECK_NAMES = ("green", "decompose", "vitushkin", "mainlemma", "square", "mollifier")
# Most grid cells, sub-squares in the deepest square generation, or bumps at the
# smallest delta that a scenario may ask for; more would not fit in memory.
_MAX_ITEMS = 1 << 21


def _finite(text: str) -> float:
    # json reads NaN, Infinity and overflowing literals such as 1e999 as floats
    x = float(text)
    if not math.isfinite(x):
        raise ParseError(f"scenario contains {text}; every number must be finite")
    return x


def _load_scenario(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from None
    try:
        doc = json.loads(raw, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ParseError("scenario must be an object with schema: 1")
    for key in ("curve", "checks"):
        if key not in doc:
            raise ParseError(f"scenario is missing required key {key!r}")
    if not isinstance(doc["checks"], list):
        raise ParseError("checks must be a list")
    for name in doc["checks"]:
        if name not in _CHECK_NAMES:
            raise ParseError(f"unknown check {name!r}; valid: {_CHECK_NAMES}")
    doc["_hash"] = hashlib.sha256(raw).hexdigest()
    return doc


def _build_curve(doc: dict):
    spec = doc["curve"]
    params = dict(spec.get("params", {}))
    for key in ("center",):
        if key in params and isinstance(params[key], list):
            params[key] = complex(*params[key])
    return make_curve(spec["family"], **params)


def _build_function(doc: dict):
    spec = doc.get("function", {"family": "monomial", "params": {"a": 0, "b": 1}})
    params = dict(spec.get("params", {}))
    for key in ("center", "pole"):
        if key in params and isinstance(params[key], list):
            params[key] = complex(*params[key])
    if "terms" in params:
        params["terms"] = tuple(tuple(t) for t in params["terms"])
    f = make_function(spec["family"], **params)
    cut = spec.get("cutoff")
    if cut:
        f = with_cutoff(f, cut["r_inner"], cut["r_outer"],
                        center=complex(*cut.get("center", [0, 0])))
    return f


def _green_cfg(doc: dict) -> GreenConfig:
    g = doc.get("grid", {})
    q = doc.get("quadrature", {})
    cfg = GreenConfig(
        resolution=int(g.get("resolution", 256)),
        dilate=float(g.get("dilate", 1.5)),
        band_diagonals=float(g.get("band_diagonals", 2.0)),
        refine=int(q.get("refine", 3)),
        contour_order=int(q.get("contour_order", 8)),
    )
    if (not 1 <= cfg.resolution <= math.isqrt(_MAX_ITEMS) or cfg.contour_order < 1
            or cfg.refine < 0 or not cfg.dilate >= 1.5 or not cfg.band_diagonals >= 0):
        raise ValueError(f"grid and quadrature settings out of range (resolution at most "
                         f"{math.isqrt(_MAX_ITEMS)}): {cfg}")
    return cfg


def _deltas(doc: dict) -> list:
    deltas = list(doc.get("deltas", [0.4, 0.2, 0.1, 0.05]))
    if not all(0 < float(d) < np.inf for d in deltas) or any(
            b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be positive, finite and strictly decreasing")
    return deltas


def _discs(doc: dict) -> list:
    return [Disc(center=complex(*spec["center"]), radius=float(spec["radius"]))
            for spec in doc.get("discs", [{"center": [1.0, 0.0], "radius": 0.5}])]


def _square(doc: dict):
    spec = doc.get("square", {"center": [0.0, 0.0], "half": 0.25, "depth": 5})
    depth = int(spec.get("depth", 5))
    if not 0 <= depth <= math.log(_MAX_ITEMS, 4):  # 4**depth sub-squares, never computed
        raise ValueError(f"square.depth must be at least 0, with at most {_MAX_ITEMS} sub-squares")
    return Square(center=complex(*spec["center"]), half=float(spec["half"])), depth


def _mollifier(doc: dict):
    spec = doc.get("mollifier", {"z": [0.3, 0.1], "eps": 0.05})
    eps = float(spec["eps"])
    if not 0 < eps < np.inf:
        raise ValueError("mollifier.eps must be positive and finite")
    return complex(*spec["z"]), eps


def _green_probes(curve, seed):
    """64 seeded points of the grid box at least 1e-4 diameters off the curve.

    All candidates come in one batch of 1024; fewer than 64 of them off the
    curve means the curve fills its box, which is an input error.
    """
    box = GridSpec.cover(curve, 1)
    u = seed_stream(seed, "cli.green.probes").random((2, 1024))
    z = box.lo + (u[0] * (box.hi - box.lo).real + 1j * u[1] * (box.hi - box.lo).imag)
    clear = 1e-4 * curve.diameter
    z = z[distance_to_curve(curve, z, cap=clear) > clear]
    if z.size < 64:
        raise OnCurve(f"only {z.size} of 1024 probe points lie off the curve")
    return z[:64]


def _check_green(cfg, curve, f, seed):
    rep = verify_green(curve, f, cfg)
    # exact-integer invariant at seeded probe points: the ray-crossing index
    # must agree with the rounded argument sum
    pts = _green_probes(curve, seed)
    ray = winding_numbers(curve, pts)
    v = curve.vertices
    turn = np.angle((np.roll(v, -1) - pts[:, None]) / (v - pts[:, None])).sum(axis=1)
    ang = np.rint(turn / (2 * np.pi))
    hard_fail = bool(np.any(ray != ang))
    return {"report": rep.to_json_dict(), "hard_fail": hard_fail}


def _check_decompose(_, curve, f, seed):
    dec = jordan_decompose(curve)
    from .curves import is_jordan
    simple = all(is_jordan(lp) for lp in dec.loops)
    total = sum(length(lp) for lp in dec.loops)
    tau_len = 1e-9 * length(curve)
    g = make_function("monomial", a=0, b=1)
    direct = contour_integral(curve, g)
    split = sum((contour_integral(lp, g) for lp in dec.loops), 0j)
    resid = abs(direct - split)
    ok = simple and total <= length(curve) + tau_len
    return {
        "report": {
            "n_loops": len(dec.loops),
            "length_gap": dec.gap,
            "loops_simple": simple,
            "measure_residual_zbar": resid,
        },
        "hard_fail": not ok,
    }


def _check_vitushkin(deltas, curve, f, seed):
    rows = delta_sweep(f, curve, deltas)
    decreasing = all(a["s_ii_abs"] >= b["s_ii_abs"] for a, b in zip(rows, rows[1:]))
    return {"report": {"sweep": rows, "s_ii_decreasing": decreasing}, "hard_fail": False,
            "sweep_table": rows}


def _check_mainlemma(discs, curve, f, seed):
    from .errors import BoundViolated, NestingViolation
    reports = []
    hard = False
    dumps = []
    for disc in discs:
        disc = with_jitter(curve, disc, seed=seed)
        h = truncated_cauchy(disc.center + 0.1 * disc.radius, 0.3 * disc.radius)
        try:
            rep = exterior_integral_identity(curve, disc, h)
            bound_check(curve, disc, h)
        except (BoundViolated, NestingViolation) as exc:
            # alternation / sign / bound failures are hard invariants, not input errors
            hard = True
            reports.append({"error": str(exc)})
            continue
        reports.append(rep.to_json_dict())
        dumps.append(geometry_dump(curve, disc))
    return {"report": {"discs": reports}, "hard_fail": hard, "dumps": dumps}


def _check_square(square, curve, f, seed):
    sq, depth = square
    rep = green_on_square(sq, f, curve, depth=depth)
    rows = rep.extras["generations"]
    ok = all(row["remainder"] <= row["remainder_bound"] * (1 + 1e-9) + 1e-12 for row in rows[1:])
    return {"report": rep.to_json_dict(), "hard_fail": not ok}


def _check_mollifier(spec, curve, f, seed):
    rep = mollifier_identity_check(f, *spec)
    return {"report": rep.to_json_dict(), "hard_fail": False}


_CHECKS = {
    "green": _check_green,
    "decompose": _check_decompose,
    "vitushkin": _check_vitushkin,
    "mainlemma": _check_mainlemma,
    "square": _check_square,
    "mollifier": _check_mollifier,
}

# the scenario section each check reads, parsed and validated before any check runs
_SECTIONS = {
    "green": _green_cfg,
    "vitushkin": _deltas,
    "mainlemma": _discs,
    "square": _square,
    "mollifier": _mollifier,
}


def run_scenario(path: str, out_dir: str = None, svg: bool = False, verbose: bool = False):
    """Execute a scenario; returns (report dict, exit code)."""
    doc = _load_scenario(path)
    checks = list(doc["checks"])
    try:
        seed = int(doc.get("seed", 0))
        curve = _build_curve(doc)
        f = _build_function(doc)
        specs = {name: _SECTIONS[name](doc) if name in _SECTIONS else None for name in checks}
        deltas = specs.get("vitushkin")
        if deltas and sweep_partition(curve, deltas[-1]).n_bumps > _MAX_ITEMS:
            raise ValueError(f"deltas: more than {_MAX_ITEMS} bumps at the smallest delta")
        if "mollifier" in specs:
            _check_mollifier_input(f, *specs["mollifier"])
    except (AttributeError, TypeError, ValueError, KeyError, ArithmeticError) as exc:
        raise ParseError(f"invalid scenario ({type(exc).__name__}): {exc}") from None

    results = {}
    timings = {}
    for name in checks:
        t0 = time.perf_counter()
        results[name] = _CHECKS[name](specs[name], curve, f, seed)
        timings[name] = time.perf_counter() - t0

    hard_fail = any(results[name].get("hard_fail") for name in checks)
    report = {
        "tool": "greencurves",
        "version": __version__,
        "schema": 1,
        "input_hash": doc["_hash"],
        "seed": seed,
        "checks": {name: results[name]["report"] for name in checks},
        "status": "fail" if hard_fail else "ok",
    }

    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(canonical_json(report))
        if "mainlemma" in checks:
            for k, dump in enumerate(results["mainlemma"].get("dumps", [])):
                (out / f"mainlemma_{k}.json").write_bytes(canonical_json(dump))
        if svg:
            (out / "curve.svg").write_text(render_svg(
                [[z.real, z.imag] for z in curve.vertices], "curve"))
            if "green" in checks:
                cfg = specs["green"]
                grid = GridSpec.cover(curve, min(cfg.resolution, 128), cfg.dilate)
                fld = index_field(curve, grid, 2 * grid.cell_diag)
                (out / "index.svg").write_text(render_svg(fld.to_json_dict(), "index-heatmap"))
            if "vitushkin" in checks and "sweep_table" in results["vitushkin"]:
                (out / "sweep.svg").write_text(render_svg(
                    {"table": results["vitushkin"]["sweep_table"]}, "sweep-plot"))
            if "mainlemma" in checks:
                for k, dump in enumerate(results["mainlemma"].get("dumps", [])):
                    (out / f"mainlemma_{k}.svg").write_text(render_svg(dump, "mainlemma-diagram"))
    if verbose:
        for name in checks:
            print(f"[timing] {name}: {timings[name]:.3f}s", file=sys.stderr)
    return report, (1 if hard_fail else 0)


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode()


def cmd_gallery() -> str:
    lines = ["curve families:"]
    for name, doc in sorted(curve_families().items()):
        lines.append(f"  {name}: {doc}")
    lines.append("function families:")
    for name, doc in sorted(function_families().items()):
        lines.append(f"  {name}: {doc}")
    lines.append("standard curves:")
    for name, c in gallery_curves():
        lines.append(f"  {name}: n={c.n}, length={length(c):.6g}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="greencurves", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="directory for report.json and plots")
    p_run.add_argument("--svg", action="store_true", help="also write SVG plots")
    p_run.add_argument("--verbose", action="store_true")

    sub.add_parser("gallery", help="list curve and function families")

    p_render = sub.add_parser("render", help="render a report or geometry dump to SVG")
    p_render.add_argument("input")
    p_render.add_argument("--kind", required=True,
                          choices=["curve", "index-heatmap", "mainlemma-diagram", "sweep-plot"])
    p_render.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "gallery":
            sys.stdout.write(cmd_gallery())
            return 0
        if args.command == "run":
            report, code = run_scenario(args.scenario, out_dir=args.out, svg=args.svg,
                                        verbose=args.verbose)
            if not args.out:
                sys.stdout.write(canonical_json(report).decode())
            return code
        if args.command == "render":
            payload = json.loads(Path(args.input).read_text())
            if isinstance(payload, dict) and "checks" in payload and args.kind == "sweep-plot":
                try:
                    payload = {"table": payload["checks"]["vitushkin"]["sweep"]}
                except KeyError:
                    raise KindMismatch("report has no vitushkin sweep table") from None
            doc = render_svg(payload, args.kind)
            if args.out:
                Path(args.out).write_text(doc)
            else:
                sys.stdout.write(doc)
            return 0
    except (GreenCurvesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
