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
the library evaluates blocks of pieces, on contour panels that ``panel_nodes``
builds edge by edge, where the library gathers every panel in one pass.
``patch_per_pair`` builds the polar patch of every (bump, point) pair
with its own cell lookup, where the library builds one frame per point on
its one cell lattice for the four bumps over the cell, and
``far_field_all_moments`` sums every multipole moment, where the library
sums only those a pair's distance needs.
``monomial_by_powers`` and ``cutoff_by_ramp`` take every power and the
whole smoothstep ramp, where the library skips the factors and the ramp
values that are exactly 1.  ``modulus_by_fresh_draw`` is the
sampled modulus of continuity: a sup over seeded random pairs, which sits
below the true modulus, where the library takes a closed-form bound above it.
``cluster_points_greedy``
compares each point with every earlier cluster, where the library looks only
in nearby cells of a hash grid.

``localize`` and ``localize_cauchy`` are the accurate reference for the
localized pieces, written from the formulas and sharing no code with
``PieceSet``: a tensor rule built from ``leggauss``, the two-sided bump
derivative, and a polar rule about z whose panels take the rect's corners in
their known counterclockwise order, each with its known exit side, where the
library sorts the corner angles and takes the nearer exit.  ``multiplicity``
tries every bump center, and ``phi_two_sided`` and ``grad_phi_norm`` evaluate
the bump through the two-sided profiles.
"""

import math

import numpy as np

from greencurves._rng import seed_stream
from greencurves.errors import DegenerateOverlap
from greencurves.vitushkin import Partition


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


def finite_diff_dbar(fn, zs, h: float = 2e-4) -> np.ndarray:
    """Central-difference Wirtinger d-bar derivative at each of ``zs``, all stencils in one ``fn`` call."""
    z = np.asarray(zs, dtype=complex)
    F = fn(z[..., None] + h * np.array([1, -1, 1j, -1j]))
    return ((F[..., 0] - F[..., 1]) + 1j * (F[..., 2] - F[..., 3])) / (4 * h)


def _gauss01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def gl_contour(vertices, fn, order: int = 12, closed: bool = True) -> complex:
    """Independent Gauss-Legendre contour integral (separate from the library path)."""
    t, w = _gauss01(order)
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


def bump_center(partition: Partition, j: int) -> complex:
    """Center of bump j, from the lattice origin (i0, j0) and the spacing."""
    iy, ix = divmod(j, partition.ni)
    d = partition.spacing
    return complex((partition.i0 + ix + 0.5) * d, (partition.j0 + iy + 0.5) * d)


def cell_centers(grid) -> np.ndarray:
    """Cell centers of a grid, shape (ny, nx), row-major from the lower-left corner."""
    x, y = grid.axes()
    return x[None, :] + 1j * y[:, None]


def phi_two_sided(partition: Partition, j: int, zs) -> np.ndarray:
    """Bump j at each of ``zs``: the product of the two-sided profiles of the offsets."""
    d = np.asarray(zs, dtype=complex) - bump_center(partition, j)
    return profile_two_sided(d.real, partition.delta) * profile_two_sided(d.imag, partition.delta)


def grad_phi_norm(partition: Partition, j: int, zs) -> np.ndarray:
    """|grad phi_j| at each of ``zs``: twice |dbar phi_j|, because phi_j is real."""
    d = np.asarray(zs, dtype=complex) - bump_center(partition, j)
    return 2.0 * np.abs(dbar_phi_two_sided(d.real, d.imag, partition.delta))


def multiplicity(partition: Partition, zs) -> np.ndarray:
    """Number of bump centers within delta of each point, every center tried."""
    z = np.asarray(zs, dtype=complex)
    count = np.zeros(z.shape, dtype=int)
    for c in partition.centers_array():
        count += np.abs(z - c) < partition.delta
    return count


# the reference rule for the pieces: tensor cells per axis and Gauss order on
# the support square, and the angular and radial Gauss orders about z
REF_CELLS, REF_ORDER, REF_NT, REF_NR = 12, 12, 24, 16


def _polar_rule(z, x0, x1, y0, y1, c: complex):
    """Nodes and weights, one row per z, of a rule for ∫ g(w) / (w - z) dA over z's rect.

    Seen from z, strictly inside its rect, the corners bound four angular
    panels whose rays leave through the right, top, left and bottom side in
    turn; each ray is split where it crosses the lines x = c.re and y = c.im.
    The polar Jacobian r cancels |w - z|, so a weight is e^{-i theta} dtheta dr.
    """
    zx, zy, x0, x1, y0, y1 = (v[:, None] for v in (z.real, z.imag, x0, x1, y0, y1))
    a1 = np.arctan2(y0 - zy, x1 - zx)
    corners = np.concatenate([a1, np.arctan2(y1 - zy, x1 - zx), np.arctan2(y1 - zy, x0 - zx),
                              np.arctan2(y0 - zy, x0 - zx) + 2 * math.pi, a1 + 2 * math.pi], axis=1)
    gt, wt = _gauss01(REF_NT)
    span = np.diff(corners, axis=1)[..., None]
    th = corners[:, :4, None] + span * gt  # (n, panel, node)
    cos, sin = np.cos(th), np.sin(th)
    side = np.concatenate([x1 - zx, y1 - zy, x0 - zx, y0 - zy], axis=1)[..., None]
    rmax = side / np.where(np.array([True, False, True, False])[:, None], cos, sin)
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = [np.where((k > 0) & (k < rmax), k, rmax)
                for k in ((c.real - zx[..., None]) / cos, (c.imag - zy[..., None]) / sin)]
    radii = np.stack([np.zeros_like(rmax), np.minimum(*cuts), np.maximum(*cuts), rmax], axis=-1)
    gr, wr = _gauss01(REF_NR)
    dr = np.diff(radii, axis=-1)[..., None]
    r = radii[..., :-1, None] + dr * gr  # (n, panel, node, radial panel, radial node)
    e = np.exp(1j * th)[..., None, None]
    w = (z[:, None, None, None, None] + r * e).reshape(z.size, -1)
    return w, (np.conj(e) * (span * wt)[..., None, None] * dr * wr).reshape(z.size, -1)


def _piece_integral(partition: Partition, j: int, zs, g) -> np.ndarray:
    """∫ g(w, z) / (w - z) dA(w) over the support of bump j, at each of ``zs`` (any shape).

    ``g`` takes nodes w with one row per point and the points z as a column.
    A tensor Gauss rule covers the support square; for a z inside the support,
    the polar rule about z replaces it on the 3x3 cells about z's cell, so no
    tensor node comes within a cell of z.
    """
    delta, c = partition.delta, bump_center(partition, j)
    z = np.asarray(zs, dtype=complex).ravel()
    h, corner = delta / REF_CELLS, c - delta / 2 * (1 + 1j)
    gx, gw = _gauss01(REF_ORDER)
    x, wx = (h * (np.arange(REF_CELLS)[:, None] + gx)).ravel(), np.tile(h * gw, REF_CELLS)
    w, weight = corner + (x[:, None] + 1j * x).ravel(), np.outer(wx, wx).ravel()
    cx, cy = np.indices((x.size, x.size)).reshape(2, -1) // REF_ORDER  # the cell of each node
    d = z - c
    inside = (np.abs(d.real) < delta / 2) & (np.abs(d.imag) < delta / 2)
    ix = np.clip(np.floor((d.real + delta / 2) / h).astype(int), 0, REF_CELLS - 1)
    iy = np.clip(np.floor((d.imag + delta / 2) / h).astype(int), 0, REF_CELLS - 1)
    block = inside[:, None] & (np.abs(cx - ix[:, None]) <= 1) & (np.abs(cy - iy[:, None]) <= 1)
    out = (g(w[None, :], z[:, None]) * np.where(block, 0.0, weight / (w - z[:, None]))).sum(axis=1)
    if np.any(inside):
        ix, iy, zi = ix[inside], iy[inside], z[inside]
        wp, weight_p = _polar_rule(zi, corner.real + h * np.maximum(ix - 1, 0),
                                   corner.real + h * np.minimum(ix + 2, REF_CELLS),
                                   corner.imag + h * np.maximum(iy - 1, 0),
                                   corner.imag + h * np.minimum(iy + 2, REF_CELLS), c)
        out[inside] += (g(wp, zi[:, None]) * weight_p).sum(axis=1)
    return out.reshape(np.shape(zs))


def localize(f, partition: Partition, j: int, zs) -> np.ndarray:
    """Accurate values of the piece f_j = (1/pi) ∫ (f(w) - f(z)) / (w - z) dbar(phi_j)(w) dA(w)."""
    c = bump_center(partition, j)
    return _piece_integral(partition, j, zs, lambda w, z: (f.value(w) - f.value(z)) * dbar_phi_two_sided(
        w.real - c.real, w.imag - c.imag, partition.delta) / math.pi)


def localize_cauchy(f, partition: Partition, j: int, zs) -> np.ndarray:
    """The piece as a Cauchy transform: -(1/pi) ∫ phi_j dbar(f) / (w - z) dA(w)."""
    return _piece_integral(partition, j, zs,
                           lambda w, z: -phi_two_sided(partition, j, w) * f.dbar(w) / math.pi)


def reconstruct(ps, zs):
    """Sup over ``zs`` of |f - the sum of the pieces of the PieceSet ``ps``|, and its active pieces."""
    z = np.asarray(zs, dtype=complex).ravel()
    js = ps.active_pieces(range(ps.partition.n_bumps))
    return float(np.max(np.abs(sum(ps.eval(j, z) for j in js) - ps.f.value(z)))), len(js)


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


def area_by_levels(field_, f, refine: int = 3):
    """Index-weighted area integral with every subcell's distance and winding measured.

    The dyadic near-band refinement level by level: each subcell gets its
    every-edge distance and crossing count, with no use of its parent's.
    Returns (value, info) like ``area_integral_weighted``.
    """
    curve, grid = field_.curve, field_.grid
    v = curve.vertices
    centers = cell_centers(grid)
    clean = ~field_.near_mask
    total = complex((f.dbar(centers[clean]) * field_.values[clean]).sum() * grid.cell_area)
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
            total += complex((f.dbar(zc) * winding_by_edges(v, zc)).sum() * area)
        rest = sub[~clear]
        if level == refine:
            if rest.size:
                ok = dist[~clear] > tau_on
                zr = rest[ok]
                if zr.size:
                    total += complex((f.dbar(zr) * winding_by_edges(v, zr)).sum() * area)
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
    gx, gw = _gauss01(quad_order)
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
    the moments), each far tier's Horner pass run over that tier's points
    alone with scalar coefficients, the lattice cell and the own-cell nodes
    worked out here, freshly allocated kernel matrices and one polar-patch
    block over all inside points.
    """
    z = np.asarray(zs, dtype=complex).ravel()
    if not ps.active_pieces([j]):
        return np.zeros(z.shape, dtype=complex)
    part = ps.partition
    c = bump_center(part, j)
    a = ps.b * ps.f.value(c + ps.offsets)
    a_c = ps.b_c * ps.f.value(c + ps.offsets_c)
    a_moments = ps._powers @ a
    fz = ps.f.value(z) if fz is None else np.asarray(fz).ravel()
    out = np.empty(z.shape, dtype=complex)
    dz = z - c
    r = np.abs(dz)
    hi = np.inf
    for k, n in ps.FAR_TIERS:
        tier = (r >= k * part.delta) & (r < hi)
        hi = k * part.delta
        if np.any(tier):
            u = 1.0 / dz[tier]
            acc = np.full(u.shape, a_moments[n - 1])
            for m in range(n - 2, -1, -1):
                acc *= u
                acc += a_moments[m]
            np.negative(acc, out=acc)
            acc *= u
            out[tier] = acc
    # the lattice of template cells, pitch delta / CELLS, from the lower-left
    # support corner of bump (0, 0); bump (ix, iy) starts CELLS / 2 cells on per index
    h, cells, pitch = ps.CELLS // 2, ps.CELLS, part.delta / ps.CELLS
    iy, ix = divmod(j, part.ni)
    gx = np.floor(np.clip((z.real - (part.i0 - 0.5) * ps.half) / pitch, -1, h * (part.ni + 1))).astype(int)
    gy = np.floor(np.clip((z.imag - (part.j0 - 0.5) * ps.half) / pitch, -1, h * (part.nj + 1))).astype(int)
    lx, ly = gx - h * ix, gy - h * iy
    inside = (lx >= 0) & (lx < cells) & (ly >= 0) & (ly < cells)
    ring = (r < part.delta) & ~inside
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
        # the template cell of each node: nodes run x-major over CELLS * ORDER per axis
        nx, ny = np.divmod(np.arange(ps.offsets.size), cells * ps.ORDER)
        nx, ny = nx // ps.ORDER, ny // ps.ORDER
        for s in range(0, kk.size, ps.CHUNK):
            ss = kk[s:s + ps.CHUNK]
            own = (nx[None, :] == lx[ss, None]) & (ny[None, :] == ly[ss, None])
            den = nodes[None, :] - z[ss, None]
            den[own] = np.inf
            K = 1.0 / den
            out[ss] = K @ a - fz[ss] * (K @ ps.b)
        table = ps._patch_block(z[kk], fz[kk], gx[kk], gy[kk])
        out[kk] += table[np.arange(kk.size), ix - gx[kk] // h + 1, iy - gy[kk] // h + 1]
    return out


def far_field_all_moments(ps, j: int, zs) -> np.ndarray:
    """Multipole value of piece j of ``ps`` at each of ``zs``: all N_MOMENTS + 1 moments, one Horner pass."""
    c = bump_center(ps.partition, j)
    moments = ps._powers @ (ps.b * ps.f.value(c + ps.offsets))
    u = 1.0 / (np.asarray(zs, dtype=complex) - c)
    acc = np.full(u.shape, moments[-1])
    for m in range(moments.size - 2, -1, -1):
        acc = acc * u + moments[m]
    return -acc * u


def patch_per_pair(ps, c, zs, fzs) -> np.ndarray:
    """The polar patch of each (bump center c, point z) pair, z inside that bump's support.

    The per-pair rule: z's template cell looked up by ``searchsorted`` on
    z - c against the bump's own cell edges; z clipped 1e-12 delta inside
    the cell; four angular panels between the corner directions, sorted, of
    ``PATCH_NT`` Gauss nodes each; each ray's exit distance, the nearer of
    its two side crossings, split into ``PATCH_NR`` Gauss nodes; and dbar(phi)
    from the two-sided profiles.  Everything is built for every pair.
    """
    delta = ps.partition.delta
    c = np.asarray(c, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    edges = np.linspace(-delta / 2, delta / 2, ps.CELLS + 1)
    ix = np.searchsorted(edges, (zs - c).real, side="right") - 1
    iy = np.searchsorted(edges, (zs - c).imag, side="right") - 1
    x0, x1 = c.real + edges[ix], c.real + edges[ix + 1]
    y0, y1 = c.imag + edges[iy], c.imag + edges[iy + 1]
    m = 1e-12 * delta
    ze = np.clip(zs.real, x0 + m, x1 - m) + 1j * np.clip(zs.imag, y0 + m, y1 - m)
    corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1], axis=1)
    th = np.sort(np.angle(corners - ze[:, None]), axis=1)
    th = np.concatenate([th, th[:, :1] + 2 * math.pi], axis=1)
    gt, wt = _gauss01(ps.PATCH_NT)
    TH = th[:, :4, None] + np.diff(th, axis=1)[..., None] * gt  # (pair, panel, node)
    WT = np.diff(th, axis=1)[..., None] * wt
    ct, st = np.cos(TH), np.sin(TH)
    zx, zy = ze.real[:, None, None], ze.imag[:, None, None]
    with np.errstate(divide="ignore"):
        tx = np.where(ct > 0, (x1[:, None, None] - zx) / ct,
                      np.where(ct < 0, (x0[:, None, None] - zx) / ct, np.inf))
        ty = np.where(st > 0, (y1[:, None, None] - zy) / st,
                      np.where(st < 0, (y0[:, None, None] - zy) / st, np.inf))
    rmax = np.minimum(tx, ty)
    gr, wr = _gauss01(ps.PATCH_NR)
    e = np.exp(1j * TH)[..., None]
    w = ze[:, None, None, None] + rmax[..., None] * gr * e
    d = w - c[:, None, None, None]
    vals = ((ps.f.value(w) - np.asarray(fzs)[:, None, None, None]) * np.conj(e)
            * dbar_phi_two_sided(d.real, d.imag, delta) * (WT * rmax)[..., None] * wr)
    return vals.sum(axis=(1, 2, 3)) / math.pi


def panel_nodes(curve, h: float, order: int):
    """Contour nodes and their weights dz: ``order`` Gauss nodes on each of ceil(|edge| / h) equal panels per edge.

    Built edge by edge and panel by panel, where the library gathers every
    panel of the curve in one pass.
    """
    t, w = _gauss01(order)
    zs, dzw = [], []
    for a, d in zip(curve.starts, curve.edge_vectors):
        k = max(math.ceil(abs(d) / h), 1)
        step = d / k
        for p in range(k):
            zs.append((a + (p / k) * d) + t * step)
            dzw.append(w * step)
    return np.concatenate(zs), np.concatenate(dzw)


def contour_integrals_per_piece(ps, js, curve, order: int = 8) -> dict:
    """∮ f_j dz around the curve for each piece of ``ps``, one ``piece_eval_unblocked`` per piece.

    The nodes are ``panel_nodes`` on panels of at most the lattice spacing ``ps.half``.
    """
    zc, dzw = panel_nodes(curve, ps.half, order)
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


def subdivided(vertices, m: int) -> np.ndarray:
    """Vertices of the closed polyline with m - 1 equally spaced points inserted on every edge."""
    a = np.asarray(vertices, dtype=complex)
    t = np.arange(m) / m
    return (a[:, None] + t * (np.roll(a, -1) - a)[:, None]).ravel()


def region_masks(field_):
    """The clean (non-near) cells of an index field split into D (index != 0) and D0 (index 0)."""
    clean = ~field_.near_mask
    return clean & (field_.values != 0), clean & (field_.values == 0)


def index_l2(field_) -> float:
    """L2 norm of the sampled index over the clean cells: (sum v^2 * cell area)^(1/2)."""
    v = field_.values[~field_.near_mask].astype(float)
    return math.sqrt(float((v * v).sum()) * field_.grid.cell_area)
