"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: areas come
from the shoelace formula, winding numbers from summed angle increments,
crossings from a parametric pairwise solve, and clipped polygons from direct
half-plane cutting.  ``winding_by_edges`` and ``distance_by_edges`` are the
plain every-edge-against-every-point loops with the same per-edge arithmetic
as the library kernels, which only evaluate candidate edge/point pairs;
``intersections_by_pairs`` and ``squares_by_edges`` are the same for the
self-intersection search and the dyadic-square test, and ``area_by_levels``
for the near-band refinement, which it runs by measuring every subcell.  ``profile_two_sided``,
``profile_d_two_sided`` and ``dbar_phi_two_sided`` evaluate both branches of
the bump profile, where the library evaluates only the live one.
``square_generation_sums`` and ``piece_eval_unblocked`` evaluate every
dyadic-square generation and every piece kernel in one pass each, where the
library runs them in blocks of bounded size; ``piece_eval_unblocked`` also
builds its piece's data alone, where the library builds a block's data in one
pass, and ``contour_integrals_per_piece`` sums one such piece at a time, where
the library evaluates blocks of pieces.
``monomial_by_powers`` and ``cutoff_by_ramp`` take every power and the
whole smoothstep ramp, where the library skips the factors and the ramp
values that are exactly 1.  ``modulus_by_fresh_draw`` draws
the modulus sample and evaluates f at its base points for every delta, where
the library draws them once per estimator.  ``cluster_points_greedy``
compares each point with every earlier cluster, where the library looks only
in nearby cells of a hash grid.
"""

import math

import numpy as np

from greencurves._rng import seed_stream
from greencurves.errors import DegenerateOverlap


def shoelace_area(vertices) -> float:
    """Signed area of a simple closed polygon."""
    v = np.asarray(vertices, dtype=complex)
    w = np.roll(v, -1)
    return float(0.5 * np.sum(v.real * w.imag - w.real * v.imag))


def polygon_z_integral(vertices) -> complex:
    """∫ z dA over a simple polygon with the orientation's sign (area * centroid)."""
    v = np.asarray(vertices, dtype=complex)
    w = np.roll(v, -1)
    cross = v.real * w.imag - w.real * v.imag
    sx = np.sum((v.real + w.real) * cross) / 6.0
    sy = np.sum((v.imag + w.imag) * cross) / 6.0
    return complex(sx, sy)


def winding_by_angles(vertices, z: complex) -> int:
    """Winding number as the rounded total of argument increments."""
    v = np.asarray(vertices, dtype=complex)
    w = np.roll(v, -1)
    inc = np.angle((w - z) / (v - z))
    return int(round(float(inc.sum()) / (2 * np.pi)))


def winding_by_edges(vertices, zs) -> np.ndarray:
    """Signed half-open ray-crossing count, every edge against every point."""
    z = np.asarray(zs, dtype=complex)
    zx, zy = z.real, z.imag
    wn = np.zeros(z.shape, dtype=np.int64)
    a = np.asarray(vertices, dtype=complex)
    b = np.roll(a, -1)
    for k in range(a.size):
        ax, ay = a[k].real, a[k].imag
        bx, by = b[k].real, b[k].imag
        left = (bx - ax) * (zy - ay) - (zx - ax) * (by - ay)
        up = (ay <= zy) & (by > zy) & (left > 0)
        dn = (by <= zy) & (ay > zy) & (left < 0)
        wn += up
        wn -= dn
    return wn


def distance_by_edges(vertices, zs) -> np.ndarray:
    """Distance to the closed polyline, every edge against every point."""
    z = np.asarray(zs, dtype=complex)
    zx, zy = z.real, z.imag
    best = np.full(z.shape, np.inf)
    a = np.asarray(vertices, dtype=complex)
    d = np.roll(a, -1) - a
    for k in range(a.size):
        ax, ay = a[k].real, a[k].imag
        dx, dy = d[k].real, d[k].imag
        ll = dx * dx + dy * dy
        t = ((zx - ax) * dx + (zy - ay) * dy) / ll
        np.clip(t, 0.0, 1.0, out=t)
        ex = zx - (ax + t * dx)
        ey = zy - (ay + t * dy)
        np.minimum(best, np.hypot(ex, ey), out=best)
    return best


def brute_force_crossings(vertices, tol: float = 1e-12) -> list:
    """Interior transversal crossing points of a closed polyline, pairwise solve."""
    v = np.asarray(vertices, dtype=complex)
    n = len(v)
    pts = []
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            c, d = v[j], v[(j + 1) % n]
            # solve a + t(b-a) = c + u(d-c) via real 2x2 system
            m00, m01 = (b - a).real, (c - d).real
            m10, m11 = (b - a).imag, (c - d).imag
            det = m00 * m11 - m01 * m10
            if abs(det) < 1e-14 * abs(b - a) * abs(d - c):
                continue
            rx, ry = (c - a).real, (c - a).imag
            t = (rx * m11 - ry * m01) / det
            u = (m00 * ry - m10 * rx) / det
            if tol < t < 1 - tol and tol < u < 1 - tol:
                pts.append(a + t * (b - a))
    # merge duplicates
    out = []
    for p in pts:
        if not any(abs(p - q) < 1e-9 for q in out):
            out.append(p)
    return out


def clip_polygon_by_halfplane(vertices, p: complex, q: complex, keep_left: bool):
    """Sutherland-Hodgman clip of a polygon against the line through p, q."""
    def side(z):
        s = ((q - p).real * (z - p).imag - (z - p).real * (q - p).imag)
        return s if keep_left else -s

    v = list(vertices)
    out = []
    for k in range(len(v)):
        cur, nxt = v[k], v[(k + 1) % len(v)]
        sc, sn = side(cur), side(nxt)
        if sc >= 0:
            out.append(cur)
            if sn < 0:
                t = sc / (sc - sn)
                out.append(cur + t * (nxt - cur))
        elif sn >= 0:
            t = sc / (sc - sn)
            out.append(cur + t * (nxt - cur))
    return out


def finite_diff_dbar(fn, z: complex, h: float = 2e-4) -> complex:
    """Central-difference Wirtinger d-bar derivative of a callable."""
    fx = (fn(z + h) - fn(z - h)) / (2 * h)
    fy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2 * h)
    return 0.5 * (fx + 1j * fy)


def gl_contour(vertices, fn, order: int = 12, closed: bool = True) -> complex:
    """Independent Gauss-Legendre contour integral (separate from the library path)."""
    x, w = np.polynomial.legendre.leggauss(order)
    t = (x + 1) / 2
    w = w / 2
    v = np.asarray(vertices, dtype=complex)
    a = v if closed else v[:-1]
    b = np.roll(v, -1) if closed else v[1:]
    total = 0j
    for aa, bb in zip(a, b):
        zs = aa + t * (bb - aa)
        total += (fn(zs) * w).sum() * (bb - aa)
    return complex(total)


def _w9(u):
    u2 = u * u
    return (315.0 / 256.0) * u * (1 + u2 * (-4.0 / 3 + u2 * (6.0 / 5 + u2 * (-4.0 / 7 + u2 / 9))))


def _rho1(s, r):
    u = np.asarray(s, dtype=float) / r
    core = np.where(np.abs(u) < 1.0, (1.0 - np.minimum(u * u, 1.0)) ** 4, 0.0)
    return (315.0 / (256.0 * r)) * core


def profile_two_sided(t, delta):
    """W((t + r)/r) - W((t - r)/r), both arguments clipped to [-1, 1], r = delta/4."""
    r = delta / 4.0
    t = np.asarray(t, dtype=float)
    hi = np.clip((t + r) / r, -1.0, 1.0)
    lo = np.clip((t - r) / r, -1.0, 1.0)
    return _w9(hi) - _w9(lo)


def profile_d_two_sided(t, delta):
    """rho(t + r) - rho(t - r) with the radius-r mollifier rho, r = delta/4."""
    r = delta / 4.0
    t = np.asarray(t, dtype=float)
    return _rho1(t + r, r) - _rho1(t - r, r)


def dbar_phi_two_sided(dx, dy, delta):
    return 0.5 * (profile_d_two_sided(dx, delta) * profile_two_sided(dy, delta)
                  + 1j * profile_two_sided(dx, delta) * profile_d_two_sided(dy, delta))


def _cross(o, a):
    return o.real * a.imag - o.imag * a.real


def intersections_by_pairs(vertices) -> list:
    """(i, j, point, t_i, t_j) of every non-adjacent edge pair, all pairs tried.

    Raises DegenerateOverlap on a positive-length partial overlap of two
    collinear edges, at the first such pair in (i, j) order.
    """
    a = np.asarray(vertices, dtype=complex)
    n = a.size
    d = np.roll(a, -1) - a
    lo, hi = complex(a.real.min(), a.imag.min()), complex(a.real.max(), a.imag.max())
    tau = 1e-12 * abs(hi - lo)
    events = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            ai, di = a[i], d[i]
            aj, dj = a[j], d[j]
            denom = _cross(di, dj)
            w = aj - ai
            li, lj = abs(di), abs(dj)
            if abs(denom) <= 1e-14 * li * lj:
                if abs(_cross(w, di)) > tau * li:
                    continue
                t0 = (w.real * di.real + w.imag * di.imag) / (li * li)
                t1 = ((w + dj).real * di.real + (w + dj).imag * di.imag) / (li * li)
                ov_lo, ov_hi = max(0.0, min(t0, t1)), min(1.0, max(t0, t1))
                overlap = (ov_hi - ov_lo) * li
                if overlap <= tau:
                    continue
                same_fwd = abs(ai - aj) <= tau and abs(di - dj) <= tau
                same_bwd = abs(ai - (aj + dj)) <= tau and abs(di + dj) <= tau
                if same_fwd or same_bwd:
                    continue
                raise DegenerateOverlap(f"edges {i} and {j} overlap in a segment of length {overlap:.3g}")
            t = _cross(w, dj) / denom
            u = _cross(w, di) / denom
            slack_i = tau / li
            slack_j = tau / lj
            if -slack_i <= t <= 1 + slack_i and -slack_j <= u <= 1 + slack_j:
                t = min(max(t, 0.0), 1.0)
                u = min(max(u, 0.0), 1.0)
                events.append((i, j, complex(ai + t * di), float(t), float(u)))
    events.sort(key=lambda e: (e[0], e[1], e[3]))
    merged = []
    for e in events:
        if not any(m[0] == e[0] and m[1] == e[1] and abs(m[2] - e[2]) <= tau for m in merged):
            merged.append(e)
    return merged


def squares_by_edges(vertices, cx, cy, h) -> np.ndarray:
    """Closed squares of half-side h at (cx, cy) that meet the closed polyline.

    Liang-Barsky clipping of every edge against every square.
    """
    a = np.asarray(vertices, dtype=complex)
    d = np.roll(a, -1) - a
    meets = np.zeros(cx.shape, dtype=bool)
    for k in range(a.size):
        ax, ay = a[k].real, a[k].imag
        dx, dy = d[k].real, d[k].imag
        t0 = np.zeros(cx.shape)
        t1 = np.ones(cx.shape)
        ok = np.ones(cx.shape, dtype=bool)
        for p, q0, q1 in ((dx, cx - h - ax, cx + h - ax), (dy, cy - h - ay, cy + h - ay)):
            if p == 0.0:
                ok &= (q0 <= 0) & (q1 >= 0)
            else:
                with np.errstate(over="ignore"):  # a subnormal p sends q / p to inf
                    ta, tb = q0 / p, q1 / p
                t0 = np.maximum(t0, np.minimum(ta, tb))
                t1 = np.minimum(t1, np.maximum(ta, tb))
        ok &= t0 <= t1
        meets |= ok
    return meets


def area_by_levels(field_, f, refine: int = 3, weight=None):
    """Index-weighted area integral with every subcell's distance and winding measured.

    The dyadic near-band refinement level by level: each subcell gets its
    every-edge distance and crossing count, with no use of its parent's.
    Returns (value, info) like ``area_integral_weighted``.
    """
    curve, grid = field_.curve, field_.grid
    v = curve.vertices

    def w_of(z):
        return 1.0 if weight is None else weight(z)

    centers = grid.centers()
    clean = ~field_.near_mask
    total = complex((f.dbar(centers[clean]) * field_.values[clean] * w_of(centers[clean])).sum()
                    * grid.cell_area)
    hx, hy = grid.cell_w / 2, grid.cell_h / 2
    act_z = centers[field_.near_mask].ravel()
    dropped_area = 0.0
    straddle_area = 0.0
    tau_on = max(curve.tau_geom, 1e-14 * curve.diameter)
    if act_z.size and refine == 0:
        dropped_area = act_z.size * grid.cell_area
    for level in range(1, refine + 1):
        if act_z.size == 0:
            break
        hx, hy = hx / 2, hy / 2
        off = np.array([-hx - 1j * hy, hx - 1j * hy, -hx + 1j * hy, hx + 1j * hy])
        sub = (act_z[:, None] + off[None, :]).ravel()
        band = 2.0 * math.hypot(2 * hx, 2 * hy)
        dist = distance_by_edges(v, sub)
        clear = dist > band
        area = 4 * hx * hy
        if np.any(clear):
            zc = sub[clear]
            total += complex((f.dbar(zc) * winding_by_edges(v, zc) * w_of(zc)).sum() * area)
        rest = sub[~clear]
        if level == refine:
            if rest.size:
                ok = dist[~clear] > tau_on
                zr = rest[ok]
                if zr.size:
                    total += complex((f.dbar(zr) * winding_by_edges(v, zr) * w_of(zr)).sum() * area)
                straddle_area += float(zr.size * area)
                dropped_area += float((rest.size - zr.size) * area)
            act_z = np.empty(0, dtype=complex)
        else:
            act_z = rest
    return total, {"dropped_area": dropped_area, "straddle_area": straddle_area}


def square_generation_sums(sq, f, curve, depth: int, quad_order: int = 6) -> list:
    """rhs_n of each generation of the dyadic-square identity, dbar(f) taken in one pass.

    The class-I sub-squares come from ``squares_by_edges``; dbar(f) is
    evaluated on all their tensor Gauss nodes at once and summed.
    """
    x, w = np.polynomial.legendre.leggauss(quad_order)
    gx, gw = (x + 1.0) / 2.0, w / 2.0
    gx2 = (gx[:, None] + 1j * gx[None, :]).ravel()
    gw2 = (gw[:, None] * gw[None, :]).ravel()
    out = []
    for n in range(depth + 1):
        m = 2 ** n
        s = 2 * sq.half / m
        x = sq.center.real - sq.half + (np.arange(m) + 0.5) * s
        y = sq.center.imag - sq.half + (np.arange(m) + 0.5) * s
        cx, cy = np.repeat(x, m), np.tile(y, m)
        clear = ~squares_by_edges(curve.vertices, cx, cy, s / 2)
        rhs_n = 0j
        if np.any(clear):
            base = (cx[clear] - s / 2) + 1j * (cy[clear] - s / 2)
            nodes = base[:, None] + s * gx2[None, :]
            rhs_n = 2j * complex((f.dbar(nodes) * gw2[None, :]).sum() * s * s)
        out.append(rhs_n)
    return out


def piece_eval_unblocked(ps, j: int, zs, fz=None) -> np.ndarray:
    """Values of piece j of the PieceSet ``ps``, each kernel matrix built whole.

    The arithmetic of ``PieceSet.eval`` with the piece's own data built from
    its center alone (one f call per rule on fresh 1-D arrays, one gemv for
    the moments), freshly allocated kernel matrices and one polar-patch call
    over all inside points.
    """
    z = np.asarray(zs, dtype=complex).ravel()
    if not ps._active([j])[0]:
        return np.zeros(z.shape, dtype=complex)
    c = ps.partition.center(j)
    a = ps.b * ps.f.value(c + ps.offsets)
    a_c = ps.b_c * ps.f.value(c + ps.offsets_c)
    a_moments = ps._powers @ a
    fz = ps.f.value(z) if fz is None else np.asarray(fz).ravel()
    out = np.empty(z.shape, dtype=complex)
    dz = z - c
    far = np.abs(dz) >= ps.far_radius
    inside = (np.abs(dz.real) < ps.half) & (np.abs(dz.imag) < ps.half)
    ring = ~far & ~inside
    if np.any(far):
        u = 1.0 / dz[far]
        s_a = ps._horner(a_moments, u)
        out[far] = -s_a * u
        if ps._use_b_tail:
            out[far] += fz[far] * ps._horner(ps.b_moments, u) * u
    if np.any(ring):
        sel = np.nonzero(ring)[0]
        nodes_c = c + ps.offsets_c
        for s in range(0, sel.size, ps.CHUNK):
            ss = sel[s:s + ps.CHUNK]
            K = 1.0 / (nodes_c[None, :] - z[ss, None])
            out[ss] = K @ a_c - fz[ss] * (K @ ps.b_c)
    kk = np.nonzero(inside)[0]
    if kk.size:
        nodes = c + ps.offsets
        tiny = 1e-15 * ps.partition.delta
        for s in range(0, kk.size, ps.CHUNK):
            ss = kk[s:s + ps.CHUNK]
            den = nodes[None, :] - z[ss, None]
            bad = np.abs(den) < tiny
            if np.any(bad):
                den = np.where(bad, 1.0, den)
                K = np.where(bad, 0.0, 1.0 / den)
            else:
                K = 1.0 / den
            out[ss] = K @ a - fz[ss] * (K @ ps.b)
        patched, ix, iy = ps._patch_values(np.full(kk.size, c), z[kk], fz[kk])
        q = ps.nodes_by_cell[ix * ps.cells + iy]
        den = nodes[q] - z[kk, None]
        den = np.where(np.abs(den) < tiny, np.inf, den)
        base_cell = (a[q] / den).sum(axis=1) - fz[kk] * (ps.b[q] / den).sum(axis=1)
        out[kk] += patched - base_cell
    return out


def contour_integrals_per_piece(ps, js, curve, order: int = 8) -> dict:
    """∮ f_j dz around the curve for each piece of ``ps``, one ``piece_eval_unblocked`` per piece."""
    x, w = np.polynomial.legendre.leggauss(order)
    t, w = (x + 1.0) / 2.0, w / 2.0
    a, d = curve.starts, curve.edge_vectors
    zc = (a[:, None] + t[None, :] * d[:, None]).ravel()
    dzw = (w[None, :] * d[:, None]).ravel()
    fz = ps.f.value(zc)
    return {j: complex((piece_eval_unblocked(ps, j, zc, fz=fz) * dzw).sum()) for j in js}


def monomial_by_powers(coeff, a: int, b: int, z):
    """Value and d-bar of coeff * z^a * zbar^b with every power and product taken."""
    c, z = complex(coeff), np.asarray(z, dtype=complex)
    value = c * z ** a * np.conj(z) ** b
    dbar = np.zeros_like(z) if b == 0 else c * b * z ** a * np.conj(z) ** (b - 1)
    return value, dbar


def cutoff_by_ramp(values, z, r_inner: float, r_outer: float, center=0j):
    """``values`` times the radial cutoff, its smoothstep ramp evaluated at every point."""
    r = np.abs(np.asarray(z, dtype=complex) - complex(center))
    t = np.clip((r_outer - r) / (r_outer - r_inner), 0.0, 1.0)
    return values * (t * t * t * (t * (6.0 * t - 15.0) + 10.0))


def modulus_by_fresh_draw(f, delta: float, box, samples: int = 20000, seed: int = 7) -> float:
    """The sampled modulus of continuity, its seeded pairs drawn and f evaluated for this delta alone."""
    lo, hi = box
    rng = seed_stream(seed, "modulus")
    zx = rng.uniform(lo.real, hi.real, samples)
    zy = rng.uniform(lo.imag, hi.imag, samples)
    theta = rng.uniform(0.0, 2 * math.pi, samples)
    u = rng.uniform(0.0, 1.0, samples)
    z = zx + 1j * zy
    w = z + u * delta * np.exp(1j * theta)
    return float(np.max(np.abs(f.value(w) - f.value(z))))


def cluster_points_greedy(points, tau):
    """Each point joins the first earlier cluster within tau, comparing with every cluster."""
    labels = np.full(len(points), -1, dtype=int)
    canon = []
    for k, p in enumerate(points):
        for cid, q in enumerate(canon):
            if abs(p - q) <= tau:
                labels[k] = cid
                break
        else:
            labels[k] = len(canon)
            canon.append(p)
    return labels, canon
