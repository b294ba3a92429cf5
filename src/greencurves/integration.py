"""Contour and index-weighted area integrals, and the Green-identity verdicts.

Every contour's Gauss nodes come from one panel rule (``_panels``).  The
left-hand side ∮ f dz takes one panel of ``CONTOUR_ORDER`` nodes on each
edge of every contour.  The right-hand side integrates dbar(f) * Ind over
the plane by a midpoint rule on the clean cells of an index field (a
``MIN_DILATE`` box, a band of ``BAND_DIAGONALS`` cell diagonals), with adaptive
dyadic refinement of the near-curve cells.  All sums use numpy's pairwise
accumulation, so results are reproducible for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import _BLOCK, PolyCurve, _ragged
from .errors import PoleOnCurve
from .functions import FunctionDescriptor, make_function
from .winding import (MIN_DILATE, GridSpec, IndexField, _grid_pairs, distance_to_curve,
                      index_field, winding_numbers)

CONTOUR_ORDER = 8  # Gauss nodes per edge of every contour integral
BAND_DIAGONALS = 2.0  # near-curve band width, in diagonals of a cell or sub-cell
SQUARE_QUAD_ORDER = 6  # Gauss nodes per axis of a clear sub-square of the dyadic-square check


@lru_cache(maxsize=32)
def gauss_legendre_01(order: int):
    """Nodes and weights on [0, 1], read-only: every caller shares the cached arrays."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panels(a, d, k, order: int):
    """Gauss nodes of k[e] equal panels on each edge a[e] to a[e] + d[e], ``order`` nodes each.

    Panel p of edge e runs from a + (p/k) d over d/k, so a one-panel edge
    keeps the nodes a + t d.  Returns the nodes, one row per panel in edge
    order, and each panel's vector.
    """
    t, _ = gauss_legendre_01(order)
    e, p = _ragged(k)  # each panel's edge and its index along the edge
    dp = (d / k)[e]
    return (a[e] + p / k[e] * d[e])[:, None] + t[None, :] * dp[:, None], dp


def polyline_integral(points, fn, closed: bool) -> complex:
    """∫ fn(z) dz along a polyline given by ``points`` (closed appends the return edge)."""
    p = np.asarray(points, dtype=complex)
    a = p if closed else p[:-1]
    b = np.roll(p, -1) if closed else p[1:]
    _, w = gauss_legendre_01(CONTOUR_ORDER)
    z, d = _panels(a, b - a, np.ones(a.size, dtype=int), CONTOUR_ORDER)
    per_edge = (fn(z) * w[None, :]).sum(axis=1) * d
    return complex(per_edge.sum())


def contour_integral(curve: PolyCurve, f: FunctionDescriptor) -> complex:
    """∮ f(z) dz over the closed curve.

    Raises PoleOnCurve when the descriptor has a pole within 1e-9 diameters
    of the contour.
    """
    if f.pole is not None:
        tol = 1e-9 * curve.diameter
        d = float(distance_to_curve(curve, np.array([f.pole]), cap=tol)[0])
        if d <= tol:
            raise PoleOnCurve(f"pole at {f.pole} lies on the contour (distance {d:.3g})")
    return polyline_integral(curve.vertices, f.value, closed=True)


@dataclass(frozen=True)
class Square:
    """Axis-parallel closed square given by center and half-side."""

    center: complex
    half: float

    def __post_init__(self):
        if self.half <= 0:
            raise ValueError("half-side must be positive")

    @property
    def corners(self) -> np.ndarray:
        c, h = self.center, self.half
        return np.array([c + h * (-1 - 1j), c + h * (1 - 1j), c + h * (1 + 1j), c + h * (-1 + 1j)])


def _modulus(z: complex) -> float:
    """|z| with the bits of complex abs, or inf where complex abs raises on overflow."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


@dataclass
class VerificationReport:
    """Two sides of an identity, their residuals, and the settings that produced them."""

    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    settings: dict
    extras: dict

    @classmethod
    def build(cls, lhs: complex, rhs: complex, settings: dict, **extras) -> "VerificationReport":
        lhs, rhs = complex(lhs), complex(rhs)
        absr = _modulus(lhs - rhs)
        scale = max(_modulus(lhs), _modulus(rhs))
        rel = 0.0 if scale == 0.0 else absr / scale
        return cls(lhs=lhs, rhs=rhs, abs_residual=absr, rel_residual=rel,
                   settings=dict(settings), extras=dict(extras))

    def to_json_dict(self) -> dict:
        out = {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "settings": self.settings,
        }
        if self.extras:
            out["extras"] = self.extras
        return out


# marks a winding number not yet known; no curve winds 2**31 times about a point
_UNKNOWN = np.iinfo(np.int32).min


def _known_windings(curve: PolyCurve, z, wind):
    """``wind`` with its unknown entries replaced by the winding numbers at ``z``."""
    miss = wind == _UNKNOWN
    if np.any(miss):
        wind[miss] = winding_numbers(curve, z[miss])
    return wind


def area_integral_weighted(field_: IndexField, f: FunctionDescriptor, refine: int):
    """∫ dbar(f) * Ind over the plane, without the 2i prefactor.

    Clean cells use the midpoint rule at the stored integer index.  Cells in
    the near-curve band are split dyadically up to ``refine`` times; a subcell
    is released to the midpoint rule once it clears ``BAND_DIAGONALS`` of its
    own diagonals, and at the final depth remaining subcells are classified by
    the winding number at their center.  Subcells whose center is on the curve
    are dropped.  Returns (value, info) where info reports the dropped area
    and the area of final-depth subcells that may still straddle the curve:
    that area times a local bound on |dbar(f)*Ind| is the honest error budget.

    A weighted integral takes the weight folded into the descriptor's dbar.

    Each subcell's distance and winding come from its parent where they can.
    The distance to the curve is 1-Lipschitz and a child's center lies
    hypot(hx, hy) from its parent's, so with r that length plus a slack of
    1e-9 (max |vertex coordinate| + 1), far above the rounding of centers and
    distances, a child's distance lies within r of its parent's exact
    distance p.  A child with p - r > band is clear; on the last level one
    with p + r <= band and p - r > tau_on is kept; every other child gets its
    exact distance.  A child whose distance exceeds r joins its parent's
    center by a segment that misses the curve, so it shares the parent's
    winding number; the other windings are counted.  Each decision is the one
    the exact distance would give, and every level sums the same subcells in
    the same order, so the value and info are bit-identical to measuring
    every subcell.  Level 0 takes the cells' distances and windings from the
    field.

    The clean cells run in blocks of whole grid rows and each level in blocks
    of parents, about ``_BLOCK`` values each, so no temporary grows with the
    grid or the band.  Every value is computed point by point as before and
    each sum still runs once over one whole array, so the bits do not change.
    """
    if refine < 0:
        raise ValueError("refine must be nonnegative")
    curve = field_.curve
    grid = field_.grid

    # the clean cells fill one array row block by row block, in row-major
    # order, and are summed at once: pairwise summation makes the bits
    # depend on the array being summed
    near = field_.near_mask
    clean = ~near
    vals = np.empty(int(np.count_nonzero(clean)), dtype=complex)
    k = 0
    x, y = grid.axes()
    step = max(_BLOCK // grid.nx, 1)  # whole rows per block
    for r0 in range(0, grid.ny, step):
        rows = slice(r0, r0 + step)
        ok = clean[rows]
        z = (x[None, :] + 1j * y[rows, None])[ok]
        if z.size:
            vals[k:k + z.size] = f.dbar(z) * field_.values[rows][ok]
            k += z.size
    total = complex(vals.sum() * grid.cell_area)
    del vals, clean

    hx, hy = grid.cell_w / 2, grid.cell_h / 2
    iy, ix = np.nonzero(near)
    act_z = x[ix] + 1j * y[iy]
    # the exact distance and the winding of each active center
    act_d = field_.dist[near]
    act_w = field_.values[near].astype(np.int32)
    dropped_area = 0.0
    straddle_area = 0.0
    tau_on = curve.tau_geom
    v = curve.vertices
    slack = 1e-9 * (max(np.abs(v.real).max(), np.abs(v.imag).max()) + 1.0)
    step = _BLOCK // 4  # parents per block

    if act_z.size and refine == 0:
        dropped_area = act_z.size * grid.cell_area

    for level in range(1, refine + 1):
        if act_z.size == 0:
            break
        last = level == refine
        hx, hy = hx / 2, hy / 2
        off = np.array([-hx - 1j * hy, hx - 1j * hy, -hx + 1j * hy, hx + 1j * hy])
        band = BAND_DIAGONALS * math.hypot(2 * hx, 2 * hy)
        r = math.hypot(hx, hy) + slack
        area = 4 * hx * hy
        # the level's clear values (and, on the last level, its kept values)
        # are collected block by block and each summed once, as one array
        clear_vals, kept_vals, rest_parts = [], [], []
        n_rest = 0
        for p0 in range(0, act_z.size, step):
            pd = act_d[p0:p0 + step]
            sub = (act_z[p0:p0 + step, None] + off[None, :]).ravel()
            # a lower bound on each child's distance stands in wherever it decides
            need = ~(pd - r > band)
            if last:
                need &= ~((pd + r <= band) & (pd - r > tau_on))
            dist = np.repeat(pd - r, 4)
            need = np.repeat(need, 4)
            dist[need] = distance_to_curve(curve, sub[need], cap=band)
            del need
            wind = np.repeat(act_w[p0:p0 + step], 4)
            wind[~(np.minimum(dist, band) > r)] = _UNKNOWN
            clear = dist > band
            if np.any(clear):
                zc = sub[clear]
                clear_vals.append(f.dbar(zc) * _known_windings(curve, zc, wind[clear]))
            rest = ~clear
            if last:
                n_rest += int(np.count_nonzero(rest))
                ok = rest & (dist > tau_on)
                zr = sub[ok]
                if zr.size:
                    kept_vals.append(f.dbar(zr) * _known_windings(curve, zr, wind[ok]))
            else:
                rest_parts.append((sub[rest], dist[rest], wind[rest]))
        if clear_vals:
            total += complex(np.concatenate(clear_vals).sum() * area)
        del clear_vals
        if last:
            if n_rest:
                n_kept = sum(part.size for part in kept_vals)
                if n_kept:
                    total += complex(np.concatenate(kept_vals).sum() * area)
                straddle_area += float(n_kept * area)
                dropped_area += float((n_rest - n_kept) * area)
        else:
            act_z, act_d, act_w = (np.concatenate(parts) for parts in zip(*rest_parts))

    info = {"dropped_area": dropped_area, "straddle_area": straddle_area}
    return total, info


def _green_field(curve: PolyCurve, resolution: int) -> IndexField:
    """The green check's index field: cover's grid, a band of ``BAND_DIAGONALS`` cell diagonals."""
    grid = GridSpec.cover(curve, resolution)
    return index_field(curve, grid, BAND_DIAGONALS * grid.cell_diag)


def verify_green(curve: PolyCurve, f: FunctionDescriptor, resolution: int,
                 refine: int) -> VerificationReport:
    """Compare ∮ f dz with 2i ∫ dbar(f) Ind dA for one curve and one function.

    The index field is ``GridSpec.cover``'s ``resolution`` x ``resolution``
    grid, and its near-curve cells are split dyadically ``refine`` times.
    """
    fld = _green_field(curve, resolution)
    lhs = contour_integral(curve, f)
    area, info = area_integral_weighted(fld, f, refine=refine)
    settings = dict(resolution=resolution, dilate=MIN_DILATE, band_diagonals=BAND_DIAGONALS,
                    refine=refine, contour_order=CONTOUR_ORDER)
    return VerificationReport.build(lhs, 2j * area, settings, **info)


def _segments_meet_square(curve: PolyCurve, x, y, h) -> np.ndarray:
    """Closed-square vs curve test on the grid of squares of half-side h about x[ix] + i y[iy].

    Liang-Barsky clipping of each edge against the squares that meet the
    edge's bounding box dilated by one side 2h; every other square lies more
    than a side away, where the clip is empty.  The edge/square pairs are
    clipped in bounded vectorized chunks.  Returns the flags in
    ``ix * y.size + iy`` order.
    """
    a, d = curve.starts, curve.edge_vectors
    meets = np.zeros(x.size * y.size, dtype=bool)
    for k, ix, iy in _grid_pairs(curve, x, y, 2 * h, h):
        t0, t1 = np.zeros(k.shape), np.ones(k.shape)
        ok = np.ones(k.shape, dtype=bool)
        for p, q0, q1 in ((d.real[k], x[ix] - h - a.real[k], x[ix] + h - a.real[k]),
                          (d.imag[k], y[iy] - h - a.imag[k], y[iy] + h - a.imag[k])):
            flat = p == 0.0
            ok &= ~flat | ((q0 <= 0) & (q1 >= 0))
            with np.errstate(all="ignore"):  # 0/0 only where p == 0, masked below
                ta, tb = q0 / p, q1 / p
            t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
            t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
        ok &= t0 <= t1
        meets[ix[ok] * y.size + iy[ok]] = True
    return meets


def green_on_square(sq: Square, f: FunctionDescriptor, curve: PolyCurve,
                    depth: int) -> VerificationReport:
    """Dyadic-square Green identity: classify sub-squares against the curve.

    At generation n the square splits into 4^n dyadic sub-squares of side
    L/2^n.  Sub-squares disjoint from the curve (class I) contribute the
    classical Green term 2i ∫ dbar(f) dA; sub-squares meeting the curve
    (class J) are controlled by the modulus of continuity:
    |lhs - rhs_n| <= omega(f, eps_n) * sum of their perimeters, with eps_n the
    sub-square diagonal and omega f's closed-form modulus bound over the box
    of twice the square's side about its center, so the remainder bound is a
    bound, not an estimate.  The report carries the per-generation table; rhs
    is the final-depth value.
    """
    lhs = polyline_integral(sq.corners, f.value, closed=True)

    gx, gw = gauss_legendre_01(SQUARE_QUAD_ORDER)
    gx2 = (gx[:, None] + 1j * gx[None, :]).ravel()
    gw2 = (gw[:, None] * gw[None, :]).ravel()
    step = max(_BLOCK // gx2.size, 1)  # sub-squares per block

    box = (sq.center - 2 * sq.half * (1 + 1j), sq.center + 2 * sq.half * (1 + 1j))
    L = 2 * sq.half
    rows = []
    rhs_final = 0j
    for n in range(depth + 1):
        m = 2 ** n
        s = L / m  # sub-square side
        x = sq.center.real - sq.half + (np.arange(m) + 0.5) * s
        y = sq.center.imag - sq.half + (np.arange(m) + 0.5) * s
        cx = np.repeat(x, m)
        cy = np.tile(y, m)
        meets = _segments_meet_square(curve, x, y, s / 2)
        n_j = int(meets.sum())
        n_i = cx.size - n_j
        rhs_n = 0j
        if n_i:
            base = (cx[~meets] - s / 2) + 1j * (cy[~meets] - s / 2)
            # the values fill one array block by block and are summed at
            # once: pairwise summation makes the bits depend on the array
            vals = np.empty((n_i, gx2.size), dtype=complex)
            for lo in range(0, n_i, step):
                vals[lo:lo + step] = f.dbar(base[lo:lo + step, None] + s * gx2) * gw2
            rhs_n = 2j * complex(vals.sum() * s * s)
            del vals
        eps_n = math.sqrt(2.0) * s
        bound = f.modulus(eps_n, box) * n_j * 4 * s
        rows.append({
            "generation": n,
            "side": s,
            "n_clear": n_i,
            "n_meeting": n_j,
            "rhs": [rhs_n.real, rhs_n.imag],
            "remainder_bound": bound,
            "remainder": _modulus(lhs - rhs_n),
        })
        rhs_final = rhs_n
    settings = {"depth": depth, "quad_order": SQUARE_QUAD_ORDER,
                "contour_order": CONTOUR_ORDER}
    return VerificationReport.build(lhs, rhs_final, settings, generations=rows)


# ---------------------------------------------------------------------------
# the mollifier rho_eps, the bump of radius eps and unit mass, and the convolution identity


MOLLIFIER_NORM = 5.0 / math.pi  # normalizes ∫ (1-|w|^2)^4 dA over the unit disc to 1
MOLLIFIER_ORDER = 12  # radial Gauss nodes of the disc rule; four times as many angles


def _polar_disc_rule(eps: float, n_r: int, n_t: int):
    """Tensor rule on the disc of radius eps: Gauss-Legendre radially, trapezoid in angle."""
    t, wt = gauss_legendre_01(n_r)
    r = t * eps
    wr = wt * eps
    th = 2 * math.pi * np.arange(n_t) / n_t
    wth = 2 * math.pi / n_t
    u = r[:, None] * np.exp(1j * th[None, :])
    w = (wr * r)[:, None] * np.full(n_t, wth)[None, :]
    return u.ravel(), w.ravel()


def _check_mollifier_input(f: FunctionDescriptor, z: complex, eps: float):
    """Raise ValueError unless eps is in range and the square of side 2*eps about z avoids f's pole.

    In range: eps > 0, eps^4 and the factor 4/eps^4 of the kernel's d-bar are
    finite floats, and no node z - u of the disc rule rounds onto z (the lhs
    would be roundoff scaled by 1/eps^4).  Returns that disc rule, offsets u
    and weights, for the check to integrate on.
    """
    with np.errstate(all="ignore"):  # inf or 0 where Python's float power would raise
        e4 = np.float64(eps) ** 4
        if not (eps > 0 and e4 < np.inf and 4.0 * MOLLIFIER_NORM / e4 < np.inf):
            raise ValueError(f"eps must be positive with eps^4 and 4/eps^4 finite floats: {eps!r}")
    u, w = _polar_disc_rule(eps, MOLLIFIER_ORDER, 4 * MOLLIFIER_ORDER)
    if np.any(z - u == z):
        raise ValueError(f"eps is too small for z: a node of the disc rule rounds onto z: {eps!r}")
    if f.pole is not None and abs(f.pole - z) <= eps * math.sqrt(2.0) + 1e-12:
        raise ValueError("square of side 2*eps about z must avoid the pole of f")
    return u, w


def mollifier_identity_check(f: FunctionDescriptor, z: complex, eps: float) -> VerificationReport:
    """Check (f * dbar rho_eps)(z) == (dbar f * rho_eps)(z).

    Both sides are integrals over the disc |u| <= eps, evaluated with the
    same tensor rule in polar form (the integrands are smooth there, the
    radial profile is polynomial).  Requires the square of side 2*eps about z
    to avoid any pole of f.
    """
    u, w = _check_mollifier_input(f, z, eps)
    pts = z - u
    rho = make_function("bump", radius=eps, height=MOLLIFIER_NORM / (eps * eps))
    lhs = complex((f.value(pts) * rho.dbar(u) * w).sum())
    rhs = complex((f.dbar(pts) * rho.value(u) * w).sum())
    settings = {"eps": eps, "quad_order": MOLLIFIER_ORDER, "z": [z.real, z.imag]}
    return VerificationReport.build(lhs, rhs, settings)
