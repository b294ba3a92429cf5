"""Disc geometry for Jordan curves: exterior arcs, circle intervals, generations.

For a Jordan polygon crossing a circle transversally, the part of the curve
outside the closed disc is a union of arc components, each with two endpoints
on the circle.  Exactly one of the two circle intervals spanned by those
endpoints closes the component into a Jordan curve whose enclosed domain
avoids the disc; integrating a function holomorphic off a compact subset of
the disc over the component then equals integrating it over that interval.
The intervals nest like dyadic intervals, and the identity assembles from the
even-depth generations with alternating orientation signs.

One record per (curve, disc) pair, built by ``_geometry``, holds the crossings,
components, the intervals' generation tree and the signed pieces; the identity
and the geometry dump only read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import seed_stream
from .curves import PolyCurve
from .errors import BoundViolated, NestingViolation, RadiusJitterNeeded
from .functions import FunctionDescriptor
from .integration import CONTOUR_ORDER, VerificationReport, gauss_legendre_01, polyline_integral
from .winding import winding_numbers

ENTER = "enter"
LEAVE = "leave"

TWO_PI = 2.0 * math.pi
ARC_ORDER = 16  # Gauss nodes per signed circle piece
CIRCLE_ORDER = 64  # Gauss nodes on the whole circle, when the curve stays outside the disc
JITTER_ATTEMPTS = 8  # radius inflations tried before a tangency is an error


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")


@dataclass
class Crossing:
    edge: int
    point: complex
    angle: float
    kind: str


@dataclass
class ArcComponent:
    """Maximal sub-polyline of the curve outside the closed disc.

    ``start`` is the leave crossing where the component begins, ``end`` the
    enter crossing where it finishes; a component flagged ``closed`` is the
    whole curve (no crossings, curve entirely outside the disc).
    """

    points: np.ndarray
    start: Optional[Crossing]
    end: Optional[Crossing]
    closed: bool = False


@dataclass(frozen=True)
class BoundaryInterval:
    """Circle interval (counterclockwise from theta0, angular width span).

    ``sigma`` is +1 when the component's own traversal runs counterclockwise
    over the interval (leave endpoint to enter endpoint), -1 otherwise.
    """

    theta0: float
    span: float
    sigma: int
    component_index: int


@dataclass
class GenerationTree:
    intervals: list
    depth: list
    parent: list

    @property
    def max_depth(self) -> int:
        return max(self.depth) if self.depth else -1


def circle_crossings(curve: PolyCurve, disc: Disc) -> list:
    """Transversal curve-circle crossings in traversal order.

    Raises RadiusJitterNeeded when a vertex lies on the circle, an edge is
    tangent to it, or the crossing count is odd; polygons admit only finitely
    many bad radii, so the caller can retry with a slightly inflated disc.
    """
    c, r = disc.center, disc.radius
    v = curve.vertices
    if np.any(np.abs(np.abs(v - c) - r) < 1e-9 * r):
        raise RadiusJitterNeeded("vertex on the circle")
    out = []
    a, d = curve.starts, curve.edge_vectors
    for k in range(curve.n):
        w0 = a[k] - c
        A = abs(d[k]) ** 2
        B = (w0 * np.conj(d[k])).real
        C = abs(w0) ** 2 - r * r
        disc_val = B * B - A * C
        if abs(disc_val) <= 1e-12 * A * r * r:
            t_star = -B / A  # closest approach of the edge line to the center
            if -1e-9 < t_star < 1 + 1e-9:
                raise RadiusJitterNeeded(f"edge {k} is tangent to the circle")
        if disc_val <= 0:
            continue
        sq = math.sqrt(disc_val)
        roots = sorted(((-B - sq) / A, (-B + sq) / A))
        inside = [t for t in roots if 0.0 < t < 1.0]
        if len(inside) == 2 and inside[1] - inside[0] < 1e-9:
            raise RadiusJitterNeeded(f"edge {k} grazes the circle")
        for t in inside:
            slope = 2 * (A * t + B)  # d/dt |position - center|^2
            kind = LEAVE if slope > 0 else ENTER
            p = a[k] + t * d[k]
            out.append(Crossing(edge=k, point=complex(p),
                                angle=float(np.angle(p - c)), kind=kind))
    if len(out) % 2:
        # a transversal crossing count is even; an odd count means a partner
        # crossing was lost to rounding near a tangency
        raise RadiusJitterNeeded("odd crossing count")
    return out


def exterior_components(curve: PolyCurve, disc: Disc):
    """(components, crossings) outside the closed disc; enter and leave must alternate."""
    crossings = circle_crossings(curve, disc)
    if any(a.kind == b.kind for a, b in zip(crossings, crossings[1:] + crossings[:1])):
        raise NestingViolation("enter/leave events do not alternate along the traversal")
    c, r = disc.center, disc.radius
    if not crossings:
        dmin = float(np.min(np.abs(curve.vertices - c)))
        if dmin > r:
            comp = ArcComponent(points=curve.vertices.copy(), start=None, end=None, closed=True)
            return [comp], crossings
        return [], crossings

    n = curve.n
    comps = []
    m = len(crossings)
    for k, cr in enumerate(crossings):
        if cr.kind != LEAVE:
            continue
        nxt = crossings[(k + 1) % m]
        # the vertices strictly between the crossings; all n if the wrapping pair shares an edge
        count = (nxt.edge - cr.edge) % n or (n if k + 1 == m else 0)
        walk = curve.vertices[(cr.edge + 1 + np.arange(count)) % n]
        pts = np.concatenate([[cr.point], walk, [nxt.point]])
        comps.append(ArcComponent(points=pts, start=cr, end=nxt))
    return comps, crossings


def select_interval(component: ArcComponent, disc: Disc, index: int) -> BoundaryInterval:
    """The circle interval closing component number ``index`` into a curve with center index zero.

    The component's angle about the center, summed edge by edge, is exact:
    every edge lies outside the disc, so it turns by less than pi.  Closing
    counterclockwise from the enter to the leave angle adds span_ccw, so that
    curve's center index is rint((swept + span_ccw) / 2 pi); closing
    clockwise has index one less.  Exactly one of the two must be zero.
    """
    if component.closed:
        raise ValueError("whole-curve component has no boundary interval")
    th_l = component.start.angle
    th_e = component.end.angle
    span_ccw = (th_l - th_e) % TWO_PI  # return path E -> L counterclockwise
    span_cw = TWO_PI - span_ccw
    w = component.points - disc.center
    swept = float(np.angle(w[1:] / w[:-1]).sum())
    w_ccw = int(np.rint((swept + span_ccw) / TWO_PI))
    w_cw = w_ccw - 1
    if w_ccw not in (0, 1):
        raise NestingViolation(
            f"expected exactly one index-zero candidate, got {w_ccw} and {w_cw}")
    if w_ccw == 0:
        # interval runs ccw from the enter angle to the leave angle;
        # the component traverses it from leave to enter, i.e. clockwise
        return BoundaryInterval(theta0=th_e % TWO_PI, span=span_ccw, sigma=-1,
                                component_index=index)
    return BoundaryInterval(theta0=th_l % TWO_PI, span=span_cw, sigma=+1,
                            component_index=index)


def _contains(outer: BoundaryInterval, inner: BoundaryInterval, tol: float) -> bool:
    s = (inner.theta0 - outer.theta0) % TWO_PI
    return s >= -tol and s + inner.span <= outer.span + tol


def _disjoint(a: BoundaryInterval, b: BoundaryInterval, tol: float) -> bool:
    s = (b.theta0 - a.theta0) % TWO_PI
    return s + tol >= a.span and s + b.span <= TWO_PI + tol


def build_generations(intervals: list) -> GenerationTree:
    """Depth classification of intervals under strict inclusion.

    Each interval's parent is the smallest interval that contains it with a
    larger span.  Any two intervals must be nested or have disjoint
    interiors; a violation is a geometry bug, not a tolerance issue.
    """
    tol = 1e-9
    parent = []
    for i, b in enumerate(intervals):
        best = None
        for j, a in enumerate(intervals):
            if j == i:
                continue
            if _contains(a, b, tol):
                if a.span > b.span and (best is None or intervals[best].span > a.span):
                    best = j
            elif not (_contains(b, a, tol) or _disjoint(a, b, tol) or _disjoint(b, a, tol)):
                raise NestingViolation(f"intervals {i} and {j} are neither nested nor disjoint")
        parent.append(best)
    depth = []
    for p in parent:
        d = 0
        while p is not None:
            d += 1
            p = parent[p]
        depth.append(d)
    return GenerationTree(intervals=list(intervals), depth=depth, parent=parent)


def _arc_integral(disc: Disc, theta0: float, span: float, fn, order: int) -> complex:
    """∫ fn(z) dz over the circle arc running counterclockwise from theta0."""
    t, w = gauss_legendre_01(order)
    phi = theta0 + span * t
    z = disc.center + disc.radius * np.exp(1j * phi)
    dz = 1j * disc.radius * np.exp(1j * phi) * span
    return complex((fn(z) * dz * w).sum())


def exterior_pieces(tree: GenerationTree) -> list:
    """Disjoint signed circle pieces: even-depth intervals minus their direct children.

    Requires the orientation sign to flip between every parent and child (the
    alternation consequence); returns [(theta0, span, eps)] with eps = +-1.
    """
    for k, p in enumerate(tree.parent):
        if p is not None and tree.intervals[k].sigma != -tree.intervals[p].sigma:
            raise NestingViolation("child interval does not oppose its parent's orientation")
    pieces = []
    for k, itv in enumerate(tree.intervals):
        if tree.depth[k] % 2 != 0:
            continue
        kids = [tree.intervals[m] for m in range(len(tree.intervals)) if tree.parent[m] == k]
        marks = sorted(((c.theta0 - itv.theta0) % TWO_PI, c.span) for c in kids)
        cur = 0.0
        for s, w in marks:
            if s - cur > 1e-12:
                pieces.append(((itv.theta0 + cur) % TWO_PI, s - cur, itv.sigma))
            cur = s + w
        if itv.span - cur > 1e-12:
            pieces.append(((itv.theta0 + cur) % TWO_PI, itv.span - cur, itv.sigma))
    return pieces


@dataclass
class _Geometry:
    """The disc geometry of one (curve, disc) pair, as the identity and the dump read it.

    ``pieces`` are the signed circle pieces (theta0, span, eps).  When the
    whole curve lies outside the disc it is the one piece: the whole circle
    weighted by the center's index, kept even when that index is zero.
    """

    crossings: list
    components: list
    tree: GenerationTree
    pieces: list

    @property
    def closed(self) -> bool:
        return bool(self.components) and self.components[0].closed


def _geometry(curve: PolyCurve, disc: Disc) -> _Geometry:
    comps, crossings = exterior_components(curve, disc)
    if comps and comps[0].closed:
        ind = int(winding_numbers(curve, np.array([disc.center]))[0])
        return _Geometry(crossings, comps, GenerationTree([], [], []), [(0.0, TWO_PI, ind)])
    tree = build_generations([select_interval(comp, disc, ci) for ci, comp in enumerate(comps)])
    return _Geometry(crossings, comps, tree, exterior_pieces(tree))


def _exterior_integral(comps: list, h: FunctionDescriptor) -> complex:
    """∮ h dz over the exterior components, summed in order from 0j."""
    return sum((polyline_integral(comp.points, h.value, closed=comp.closed)
                for comp in comps), 0j)


def exterior_integral_identity(curve: PolyCurve, disc: Disc,
                               h: FunctionDescriptor) -> VerificationReport:
    """Check ∮ over the exterior components against the signed interval integrals."""
    geo = _geometry(curve, disc)
    order = CIRCLE_ORDER if geo.closed else ARC_ORDER
    settings = {"contour_order": CONTOUR_ORDER, "arc_order": order, "radius": disc.radius,
                "center": [disc.center.real, disc.center.imag]}
    lhs = _exterior_integral(geo.components, h)
    pieces = [[t0, sp, eps] for t0, sp, eps in geo.pieces if eps]
    if geo.closed:
        [(theta0, span, ind)] = geo.pieces
        # index times the whole-circle integral, so a zero index keeps its signed zeros
        rhs = ind * _arc_integral(disc, theta0, span, h.value, order=order)
        return VerificationReport.build(lhs, rhs, settings, pieces=pieces,
                                        n_components=1, closed=True)
    rhs = 0j
    for theta0, span, eps in geo.pieces:
        rhs += eps * _arc_integral(disc, theta0, span, h.value, order=order)
    extras = {
        "n_components": len(geo.components),
        "n_crossings": len(geo.crossings),
        "generations": geo.tree.depth,
        "signs": [itv.sigma for itv in geo.tree.intervals],
        "pieces": pieces,
        "piece_total_span": float(sum(sp for _, sp, _ in geo.pieces)),
    }
    return VerificationReport.build(lhs, rhs, settings, **extras)


def bound_check(curve: PolyCurve, disc: Disc, h: FunctionDescriptor) -> VerificationReport:
    """Assert |∮ over the exterior part| <= 2 pi sup|h| radius, sup|h| over the closed disc.

    A violation signals a geometry bug (wrong interval or sign), never a
    quadrature tolerance issue, so it raises instead of reporting.
    """
    lhs = _exterior_integral(exterior_components(curve, disc)[0], h)
    bound = TWO_PI * h.bounds(disc.center, disc.radius)[0] * disc.radius
    if abs(lhs) > bound * (1 + 1e-9):
        raise BoundViolated(f"|{abs(lhs)}| exceeds 2*pi*sup|h|*radius = {bound}")
    return VerificationReport.build(lhs, bound, {"contour_order": CONTOUR_ORDER},
                                    kind="exterior_bound")


def with_jitter(curve: PolyCurve, disc: Disc, seed: int):
    """Return a disc (possibly with slightly inflated radius) that crosses transversally."""
    rng = seed_stream(seed, "mainlemma.jitter")
    trial = disc
    for _ in range(JITTER_ATTEMPTS):
        try:
            circle_crossings(curve, trial)
            return trial
        except RadiusJitterNeeded:
            u = rng.uniform(1e-7, 1e-6)
            trial = Disc(center=disc.center, radius=trial.radius * (1 + u))
    circle_crossings(curve, trial)  # raise if still bad
    return trial


def geometry_dump(curve: PolyCurve, disc: Disc) -> dict:
    """JSON-ready dump of the disc geometry for rendering."""
    geo = _geometry(curve, disc)
    return {
        "kind": "mainlemma-diagram",
        "disc": {"center": [disc.center.real, disc.center.imag], "radius": disc.radius},
        "curve": [[z.real, z.imag] for z in curve.vertices],
        "components": [[[p.real, p.imag] for p in comp.points] for comp in geo.components],
        "crossings": [{"angle": cr.angle, "kind": cr.kind} for cr in geo.crossings],
        "intervals": [{"theta0": iv.theta0, "span": iv.span, "sigma": iv.sigma,
                       "component": iv.component_index, "depth": depth}
                      for iv, depth in zip(geo.tree.intervals, geo.tree.depth)],
        "max_depth": geo.tree.max_depth,
    }
