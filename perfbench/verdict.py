"""Independent verdict gate for one scenario run.

Every scenario run yields a ``Verdict``: passed or failed with reasons, plus
the accuracy ratios (residual over tolerance, each of which must be <= 1)
that feed ``accuracy.worst``.  Tolerances come from scales the gate computes
itself from the scenario's family formulas, never from the report's own
``rel_residual``: on kfold(k=3) with z*conj(z) both sides are ~1e-16, so the
relative residual is 1 although the identity holds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import scenarios

GREEN_REL_TOL = 1e-3       # green residual, relative to length * sup|f| on the curve
SHOELACE_REL_TOL = 1e-9    # conj(z): lhs against 2i * signed area, same scale
DECOMPOSE_REL_TOL = 1e-9   # loops' conj(z) integrals against the whole curve's
MAINLEMMA_ABS_TOL = 1e-6   # acceptance criterion 8
MOLLIFIER_REL_TOL = 1e-6


@dataclass
class Verdict:
    ok: bool = True
    reasons: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)  # check name -> worst residual/tolerance

    def fail(self, why: str):
        self.ok = False
        self.reasons.append(why)

    def ratio(self, check: str, residual: float, tolerance: float):
        r = float(residual) / float(tolerance)
        if not math.isfinite(r):
            self.fail(f"{check}: non-finite residual {residual!r}")
            return
        if r > 1.0:
            self.fail(f"{check}: residual {residual:.3g} exceeds tolerance {tolerance:.3g}")
        self.ratios[check] = max(self.ratios.get(check, 0.0), r)

    @property
    def worst(self) -> float:
        return max(self.ratios.values(), default=0.0)


def _curve_scale(doc: dict) -> float:
    """length * sup|f| over the vertices: bounds |contour integral of f|, never ~0."""
    v = scenarios.vertices(doc["curve"])
    fn = doc.get("function", scenarios.CONJ)
    return scenarios.polygon_length(v) * float(np.max(np.abs(scenarios.function_values(fn, v))))


def _green(doc, rep, v: Verdict):
    scale = _curve_scale(doc)
    lhs = complex(*rep["lhs"])
    rhs = complex(*rep["rhs"])
    v.ratio("green", abs(lhs - rhs), GREEN_REL_TOL * scale)
    if scenarios.is_conj_z(doc.get("function", scenarios.CONJ)):
        area = scenarios.shoelace_area(scenarios.vertices(doc["curve"]))
        v.ratio("green.shoelace", abs(lhs - 2j * area), SHOELACE_REL_TOL * scale)


def _decompose(doc, rep, v: Verdict):
    if not rep["loops_simple"]:
        v.fail("decompose: loops are not simple")
    verts = scenarios.vertices(doc["curve"])
    scale = scenarios.polygon_length(verts) * float(np.max(np.abs(verts)))
    v.ratio("decompose", rep["measure_residual_zbar"], DECOMPOSE_REL_TOL * scale)


def _mainlemma(doc, rep, v: Verdict):
    specs = doc.get("discs", [])
    if len(rep["discs"]) != len(specs):
        v.fail("mainlemma: disc count differs from the scenario")
    for d in rep["discs"]:
        if "error" in d:
            v.fail(f"mainlemma: {d['error']}")
            continue
        v.ratio("mainlemma", d["abs_residual"], MAINLEMMA_ABS_TOL)
        # exterior bound |lhs| <= 2 pi sup|h| r with h = truncated_cauchy(., 0.3 r)
        r = float(d["settings"]["radius"])
        v.ratio("mainlemma.bound", abs(complex(*d["lhs"])), 2 * math.pi * 0.3 * r * r)


def _square(doc, rep, v: Verdict):
    for row in rep["extras"]["generations"][1:]:
        if row["n_meeting"] == 0:
            v.fail("square: no sub-square meets the curve; the remainder bound is vacuous")
            continue
        v.ratio("square", row["remainder"], row["remainder_bound"])


def _vitushkin(doc, rep, v: Verdict):
    if not rep["s_ii_decreasing"]:
        v.fail("vitushkin: |S_II| does not decrease with delta")
    for row in rep["sweep"]:
        v.ratio("vitushkin", row["s_ii_abs"], row["bound"])


def _mollifier(doc, rep, v: Verdict):
    v.ratio("mollifier", rep["abs_residual"],
            MOLLIFIER_REL_TOL * max(1.0, abs(complex(*rep["lhs"]))))


_CHECKS = {
    "green": _green,
    "decompose": _decompose,
    "mainlemma": _mainlemma,
    "square": _square,
    "vitushkin": _vitushkin,
    "mollifier": _mollifier,
}


def judge(sc, report, code, report_bytes: bytes) -> Verdict:
    """Verdict for one finished run_scenario call (exit code and report.json bytes)."""
    v = Verdict()
    if code != 0 or report.get("status") != "ok":
        v.fail(f"exit {code}, status {report.get('status')!r}")
    if sc.bundled_digest and hashlib.sha256(report_bytes).hexdigest() != sc.bundled_digest:
        v.fail("bundled report.json bytes differ from their recorded digest")
    doc = sc.doc
    for name in doc["checks"]:
        if name not in report.get("checks", {}):
            v.fail(f"{name}: missing from the report")
            continue
        try:
            _CHECKS[name](doc, report["checks"][name], v)
        except (KeyError, TypeError, ValueError) as exc:
            v.fail(f"{name}: malformed report entry ({type(exc).__name__}: {exc})")
    return v


def crashed(exc: BaseException) -> Verdict:
    v = Verdict()
    v.fail(f"raised {type(exc).__name__}: {exc}")
    return v
