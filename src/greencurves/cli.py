"""Scenario-driven command line front end.

Usage:
    greencurves run scenario.json [--out DIR] [--svg] [--verbose]
    greencurves gallery
    greencurves render report.json --kind K [--out FILE]

A scenario is a JSON document (schema 1) naming a curve, a function, grid and
quadrature settings, and a list of checks to run.  Reports are canonical,
strict JSON (no NaN or Infinity): rerunning the same scenario with the same
seed produces byte-identical bytes.  Timings go to stderr with --verbose,
never into the report.

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
from .curves import (_BLOCK, curve_families, gallery_curves, is_jordan, jordan_decompose, length,
                     make_curve)
from .errors import (BoundViolated, GreenCurvesError, KindMismatch, NestingViolation, OnCurve,
                     ParseError)
from .functions import function_families, make_function, truncated_cauchy, with_cutoff
from .integration import (BAND_DIAGONALS, CONTOUR_ORDER, Square,
                          _check_mollifier_input, _green_field, contour_integral,
                          green_on_square, mollifier_identity_check, verify_green)
from .mainlemma import Disc, bound_check, exterior_integral_identity, geometry_dump, with_jitter
from .svg import render_svg
from .vitushkin import _check_deltas, delta_sweep, sweep_partition
from .winding import MIN_DILATE, GridSpec, distance_to_curve, winding_numbers

# Most curve vertices, grid cells, sub-squares in the deepest square generation, or
# bumps at the smallest delta that a scenario may ask for; more would not fit in memory.
_MAX_ITEMS = 1 << 21


def _finite(text: str) -> float:
    # json reads NaN, Infinity and overflowing literals such as 1e999 as floats
    x = float(text)
    if not math.isfinite(x):
        raise ParseError(f"input contains {text}; every number must be finite")
    return x


def _read_json(path: str, what: str):
    """The file's bytes and its JSON document, every number finite; ``what`` names the file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}") from None
    try:
        return raw, json.loads(raw, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # not JSON, or not UTF-8/16/32 text
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def _load_scenario(path: str) -> dict:
    raw, doc = _read_json(path, "scenario")
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ParseError("scenario must be an object with schema: 1")
    for key in ("curve", "checks"):
        if key not in doc:
            raise ParseError(f"scenario is missing required key {key!r}")
    if not isinstance(doc["checks"], list):
        raise ParseError("checks must be a list")
    for k, name in enumerate(doc["checks"]):
        if type(name) is not str or name not in _CHECKS:
            raise ParseError(f"unknown check {name!r}; valid: {tuple(_CHECKS)}")
        if name in doc["checks"][:k]:
            raise ParseError(f"checks must be a list of distinct checks: {name!r} is repeated")
    _keys(doc, "scenario",
          "schema seed curve function grid quadrature deltas discs square mollifier checks")
    doc["_hash"] = hashlib.sha256(raw).hexdigest()
    return doc


def _keys(spec: dict, what: str, known: str) -> dict:
    """``spec`` if each of its keys is a word of ``known``, so no misspelt key runs at its default."""
    for key in spec:
        if key not in known.split():
            raise ParseError(f"{what} has an unknown key {key!r}; valid: {known}")
    return spec


def _int(x, what: str, lo: float, hi: float) -> int:
    """``x`` if it is a JSON integer from ``lo`` to ``hi``; ValueError naming ``what`` otherwise."""
    if type(x) is not int or not lo <= x <= hi:
        raise ValueError(f"{what} must be an integer from {lo} to {hi}: {x!r}")
    return x


def _real(x, what: str):
    """``x`` if it is a JSON number, not a bool or a string; ValueError naming ``what`` otherwise."""
    if type(x) not in (int, float):
        raise ValueError(f"{what} must be a number: {x!r}")
    return x


def _point(x, what: str) -> complex:
    """The JSON point [x, y] as a complex number; ValueError naming ``what`` otherwise."""
    if type(x) is not list or len(x) != 2:
        raise ValueError(f"{what} must be a point [x, y]: {x!r}")
    return complex(_real(x[0], what), _real(x[1], what))


# the integer parameters of the curve and function families, and their ranges;
# every other parameter is a point or a number
_INT_PARAMS = {"n": (3, _MAX_ITEMS), "k": (-math.inf, math.inf), "seed": (-math.inf, math.inf),
               "a": (0, math.inf), "b": (0, math.inf)}


def _params(spec: dict, what: str) -> dict:
    """A family's ``params``, each read by its name, before any array is built."""
    out = {}
    for key, x in spec.get("params", {}).items():
        name = f"{what} {key}"
        if key in _INT_PARAMS:
            out[key] = _int(x, name, *_INT_PARAMS[key])
        elif key in ("center", "pole"):
            out[key] = _point(x, name)
        elif key == "terms":
            out[key] = tuple((_real(c, name), _int(a, name, 0, math.inf), _int(b, name, 0, math.inf))
                             for c, a, b in x)
        else:
            out[key] = _real(x, name)
    return out


def _build_curve(doc: dict):
    spec = _keys(doc["curve"], "curve", "family params")
    return make_curve(spec["family"], **_params(spec, "curve"))


def _build_function(doc: dict):
    spec = _keys(doc.get("function", {"family": "monomial", "params": {"a": 0, "b": 1}}),
                 "function", "family params cutoff")
    f = make_function(spec["family"], **_params(spec, "function"))
    if "cutoff" in spec:
        cut = spec["cutoff"]
        if type(cut) is not dict or not {"r_inner", "r_outer"} <= cut.keys():
            raise ValueError(f"cutoff must be an object with r_inner and r_outer: {cut!r}")
        _keys(cut, "cutoff", "r_inner r_outer center")
        f = with_cutoff(f, _real(cut["r_inner"], "cutoff r_inner"),
                        _real(cut["r_outer"], "cutoff r_outer"),
                        center=_point(cut.get("center", [0, 0]), "cutoff center"))
    return f


def _green_cfg(doc: dict, curve, f) -> tuple:
    """The green check's grid resolution (256 by default) and refinement depth (3)."""
    g = _keys(doc.get("grid", {}), "grid", "resolution dilate band_diagonals")
    q = _keys(doc.get("quadrature", {}), "quadrature", "refine contour_order")
    for sec, key, fixed in ((g, "dilate", MIN_DILATE), (g, "band_diagonals", BAND_DIAGONALS),
                            (q, "contour_order", CONTOUR_ORDER)):
        if sec.get(key, fixed) != fixed:  # one value in the library, which a scenario may state
            raise ValueError(f"{key} is fixed at {fixed}: {sec[key]!r}")
    res = _int(g.get("resolution", 256), "grid.resolution", 1, math.isqrt(_MAX_ITEMS))
    # the refinement measures about two dozen sub-cells per unit of
    # resolution * 2^refine along a curve the size of its box, so that
    # product stays within _MAX_ITEMS / 32
    top = (_MAX_ITEMS // (32 * res)).bit_length() - 1
    return res, _int(q.get("refine", 3), f"quadrature.refine at grid.resolution {res}", 0, top)


def _deltas(doc: dict, curve, f) -> list:
    deltas = [_real(d, "deltas") for d in doc.get("deltas", [0.4, 0.2, 0.1, 0.05])]
    _check_deltas(deltas)
    if sweep_partition(curve, deltas[-1]).n_bumps > _MAX_ITEMS:
        raise ValueError(f"deltas: more than {_MAX_ITEMS} bumps at the smallest delta")
    return deltas


def _discs(doc: dict, curve, f) -> list:
    specs = doc.get("discs", [{"center": [1.0, 0.0], "radius": 0.5}])
    return [Disc(center=_point(spec["center"], "disc center"),
                 radius=float(_real(spec["radius"], "disc radius")))
            for spec in (_keys(s, "disc", "center radius") for s in specs)]


def _square(doc: dict, curve, f):
    spec = _keys(doc.get("square", {"center": [0.0, 0.0], "half": 0.25, "depth": 5}),
                 "square", "center half depth")
    depth = _int(spec.get("depth", 5), "square.depth", 0, int(math.log(_MAX_ITEMS, 4)))
    return Square(center=_point(spec["center"], "square center"),
                  half=float(_real(spec["half"], "square half"))), depth


def _mollifier(doc: dict, curve, f):
    spec = _keys(doc.get("mollifier", {"z": [0.3, 0.1], "eps": 0.05}), "mollifier", "z eps")
    z, eps = _point(spec["z"], "mollifier z"), float(_real(spec["eps"], "mollifier eps"))
    _check_mollifier_input(f, z, eps)
    return z, eps


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
    rep = verify_green(curve, f, *cfg)
    # exact-integer invariant at seeded probe points: the ray-crossing index
    # must agree with the rounded argument sum.  The probes run in blocks of
    # about _BLOCK (probe, vertex) values, at least one probe each, and each
    # probe's angles are summed as one row, so the bits do not depend on the block
    pts = _green_probes(curve, seed)
    ray = winding_numbers(curve, pts)
    v = curve.vertices
    nxt = curve.ends
    step = max(_BLOCK // v.size, 1)  # probes per block
    blocks = (pts[s:s + step, None] for s in range(0, pts.size, step))
    turn = np.concatenate([np.angle((nxt - p) / (v - p)).sum(axis=1) for p in blocks])
    hard_fail = bool(np.any(ray != np.rint(turn / (2 * np.pi))))
    return {"report": rep.to_json_dict(), "hard_fail": hard_fail}


def _check_decompose(_, curve, f, seed):
    dec = jordan_decompose(curve)
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
    return {"report": {"sweep": rows, "s_ii_decreasing": decreasing}, "hard_fail": False}


def _check_mainlemma(discs, curve, f, seed):
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


# each check's reader, which builds the section it needs from (doc, curve, f) and runs
# every check of that section, and the check; every section is read before any check runs
_CHECKS = {
    "green": (_green_cfg, _check_green),
    "decompose": (lambda doc, curve, f: None, _check_decompose),
    "vitushkin": (_deltas, _check_vitushkin),
    "mainlemma": (_discs, _check_mainlemma),
    "square": (_square, _check_square),
    "mollifier": (_mollifier, _check_mollifier),
}


def run_scenario(path: str, out_dir: str = None, svg: bool = False, verbose: bool = False):
    """Execute a scenario; returns (report dict, exit code)."""
    doc = _load_scenario(path)
    checks = list(doc["checks"])
    try:
        seed = _int(doc.get("seed", 0), "seed", -math.inf, math.inf)
        curve = _build_curve(doc)
        f = _build_function(doc)
        specs = {name: _CHECKS[name][0](doc, curve, f) for name in checks}
    except (AttributeError, TypeError, ValueError, KeyError, ArithmeticError) as exc:
        raise ParseError(f"invalid scenario ({type(exc).__name__}): {exc}") from None

    results = {}
    dumps = []  # each main-lemma geometry dump and its bytes
    for name in checks:
        t0 = time.perf_counter()
        # an overflow leaves a non-finite number, caught below even under -W error
        with np.errstate(all="ignore"):
            results[name] = _CHECKS[name][1](specs[name], curve, f, seed)
        if verbose:
            print(f"[timing] {name}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        try:  # reports are strict JSON, so a NaN or an infinity is an input out of range
            canonical_json(results[name]["report"])
            dumps += [(d, canonical_json(d)) for d in results[name].get("dumps", [])]
        except ValueError:
            raise ParseError(f"check {name!r} gives a number that is not finite") from None

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
        for k, (dump, data) in enumerate(dumps):
            (out / f"mainlemma_{k}.json").write_bytes(data)
            if svg:
                (out / f"mainlemma_{k}.svg").write_text(render_svg(dump, "mainlemma-diagram"))
        if svg:
            (out / "curve.svg").write_text(render_svg(
                [[z.real, z.imag] for z in curve.vertices], "curve"))
            if "green" in checks:
                fld = _green_field(curve, min(specs["green"][0], 128))  # [0]: the resolution
                (out / "index.svg").write_text(render_svg(fld.to_json_dict(), "index-heatmap"))
            if "vitushkin" in checks:
                (out / "sweep.svg").write_text(render_svg(
                    {"table": results["vitushkin"]["report"]["sweep"]}, "sweep-plot"))
    return report, (1 if hard_fail else 0)


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)
            + "\n").encode()


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
            _, payload = _read_json(args.input, "render input")
            if isinstance(payload, dict) and "checks" in payload and args.kind == "sweep-plot":
                try:
                    payload = {"table": payload["checks"]["vitushkin"]["sweep"]}
                except (KeyError, TypeError):
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


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
