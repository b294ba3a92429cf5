"""Localization of singularities: partition of unity, localized pieces, the class-II sweep.

The partition covers the plane with bumps on a half-spacing square lattice:
each bump is the indicator of a lattice square convolved with a fixed
polynomial mollifier, realized as a tensor product of one closed-form
piecewise-polynomial 1D profile per axis.  The profiles telescope, so the
bumps sum to one exactly and each point lies in at most a handful of supports.

A localized piece of a compactly supported f is

    f_j(z) = (1/pi) ∫ (f(w) - f(z)) / (w - z) * dbar(phi_j)(w) dA(w),

whose d-bar derivative is phi_j * dbar(f); the piece is holomorphic wherever
f is and outside the bump's support.  ``PieceSet`` evaluates the pieces for
contour sums: one tensor Gauss rule on the support square (``_tensor_rule``),
multipole and coarse-ring shortcuts away from it, and one polar frame about z
(``_polar_frame``: z clipped into a rect, angular panels between its
corners, the exit distance of each ray) in place of the cell that contains
z, where the difference quotient has its directional discontinuity.  The
multipole sum has no f(z) term (the moments of dbar(phi) vanish), and contour
nodes sit on panels of at most delta/2, the scale on which a piece varies.

Work that depends on a point alone is done once per point: the template
cells of all bumps tile one lattice, so a point's cell is one integer index
that every bump over it reads, and one polar patch there serves all four
bumps over that cell.  A far (piece, point) pair sums only the multipole
moments its distance needs.

The rule has no parameters: its cells per axis (``PieceSet.CELLS``), Gauss
order, polar patch, far tiers, contour panel order (``PieceSet.PANEL_ORDER``)
and pieces per contour block are class constants (tests patch ``CELLS``
and ``PANEL_ORDER``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _BLOCK, PolyCurve, length
from .functions import FunctionDescriptor
from .integration import _panels, gauss_legendre_01
from .winding import distance_to_curve

SWEEP_BOUND_CONSTANT = 8.0  # delta_sweep: the bound's constant


def _w9(u):
    """Odd degree-9 polynomial with W(1) = 1/2: the mollifier's cumulative profile."""
    u2 = u * u
    return (315.0 / 256.0) * u * (1 + u2 * (-4.0 / 3 + u2 * (6.0 / 5 + u2 * (-4.0 / 7 + u2 / 9))))


_W1 = float(_w9(1.0))  # W(1): the value a clipped branch of the profile takes


def _fold(t, delta: float):
    """(t, r, x) with r = delta/4 and x = clip((|t| - r)/r, -1, 1), the profile's live argument.

    The profile is W(clip((t + r)/r)) - W(clip((t - r)/r)) and its derivative
    rho(t + r) - rho(t - r).  For t >= 0 the first branch clips to W(1) and
    rho(t + r) is 0; for t < 0 the second clips to -W(1) and rho(t - r) is 0.
    W is odd and rho even, so both follow from the one live argument x, bit
    for bit as from the two-sided formulas, and no work goes to a dead branch.
    """
    r = delta / 4.0
    t = np.asarray(t, dtype=float)
    return t, r, np.clip((np.abs(t) - r) / r, -1.0, 1.0)


def _value(x):
    return _W1 - _w9(x)


def _rho(r: float, x):
    return (315.0 / (256.0 * r)) * (1.0 - x * x) ** 4  # x is clipped: rho(+-1) is exactly 0


def _slope(t, r: float, x):
    rho = _rho(r, x)
    return np.where(t < 0, rho, 0.0 - rho)  # 0.0 - rho keeps the +0.0 of rho(t + r) - rho(t - r)


def _dbar_phi(dx, dy, delta: float):
    """dbar of the tensor bump at offsets (dx, dy) from its center."""
    fx, fy = _fold(dx, delta), _fold(dy, delta)
    return 0.5 * (_slope(*fx) * _value(fy[2]) + 1j * _value(fx[2]) * _slope(*fy))


def _tensor_rule(delta: float, n_cells: int, order: int):
    """Tensor Gauss-Legendre rule on the support square [-delta/2, delta/2]^2.

    Returns the node offsets from the bump center, their weights, and the
    cell of each node, numbered ``ix * n_cells + iy``.
    """
    half = delta / 2.0
    edges = np.linspace(-half, half, n_cells + 1)
    gx, gw = gauss_legendre_01(order)
    w1 = np.diff(edges)
    x = (edges[:-1, None] + w1[:, None] * gx[None, :]).ravel()
    w = (w1[:, None] * gw[None, :]).ravel()
    cell = np.repeat(np.arange(n_cells), order)
    offsets = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    return offsets, weights, (cell[:, None] * n_cells + cell[None, :]).ravel()


def _polar_frame(zs, x0, x1, y0, y1, delta: float):
    """Angular half of the polar rule about each z over its axis-aligned rect.

    z is clipped just inside its rect [x0, x1] x [y0, y1], so its corners,
    counterclockwise from the lower left, lie at ascending angles, and the
    ``PieceSet.PATCH_NT`` Gauss rays between corners k and k + 1 leave through
    side k: bottom, right, top, left.  Returns the clipped z, and per (z, panel,
    node) the direction e^{i theta}, the angular weight and the exit distance.
    """
    m = 1e-12 * delta
    zr = np.clip(zs.real, x0 + m, x1 - m)
    zi = np.clip(zs.imag, y0 + m, y1 - m)
    ze = zr + 1j * zi
    # -0.0 where a far-off z rounds onto the bottom or left side keeps the angles ascending
    bottom, right, top, left = -(zi - y0), x1 - zr, y1 - zi, -(zr - x0)
    th = np.arctan2([bottom, bottom, top, top], [left, right, right, left]).T
    th_edges = np.concatenate([th, th[:, :1] + 2 * math.pi], axis=1)
    widths = np.diff(th_edges, axis=1)
    gt, wt = gauss_legendre_01(PieceSet.PATCH_NT)
    TH = th_edges[:, :4, None] + widths[:, :, None] * gt[None, None, :]
    WT = widths[:, :, None] * wt[None, None, :]
    ct, st = np.cos(TH), np.sin(TH)
    sides = np.array([bottom, right, top, left]).T[..., None]
    return ze, np.exp(1j * TH), WT, sides / np.where([[True], [False], [True], [False]], st, ct)


@dataclass
class Partition:
    """Family of tensor bumps on the half-spacing lattice covering a box.

    Bump j has center ``centers_array()[j]``; its support is the open square of side
    ``delta`` about the center (inside the nominal disc of radius delta), and
    the nominal discs are what the class-II test (``_meets_curve``) uses.
    """

    delta: float
    i0: int
    j0: int
    ni: int
    nj: int

    @property
    def spacing(self) -> float:
        return self.delta / 2.0

    @property
    def n_bumps(self) -> int:
        return self.ni * self.nj

    def centers_array(self) -> np.ndarray:
        d = self.spacing
        x = (self.i0 + np.arange(self.ni) + 0.5) * d
        y = (self.j0 + np.arange(self.nj) + 0.5) * d
        return (x[None, :] + 1j * y[:, None]).ravel()


def build_partition(delta: float, box) -> Partition:
    """Bumps whose supports cover the box; their sum is 1 on the whole box."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    lo, hi = complex(box[0]), complex(box[1])
    d = delta / 2.0
    i0 = math.floor((lo.real - delta) / d)
    i1 = math.ceil((hi.real + delta) / d)
    j0 = math.floor((lo.imag - delta) / d)
    j1 = math.ceil((hi.imag + delta) / d)
    return Partition(delta=delta, i0=i0, j0=j0, ni=i1 - i0, nj=j1 - j0)


def _meets_curve(curve: PolyCurve, centers, delta: float) -> np.ndarray:
    """Class-II test: does the nominal disc of radius delta about each center meet the curve?

    The distance kernel is exact up to its cap, so capping at delta keeps
    every decision exact while it skips the edges far from each center.
    """
    return distance_to_curve(curve, centers, cap=delta) < delta


class PieceSet:
    """Quadrature-backed evaluators for the localized pieces of one function.

    One fixed template rule lives on the support square: ``CELLS`` cells per
    axis aligned to the profile breakpoint at 0, Gauss-Legendre inside each
    cell (order 5 integrates the degree-9 profile pieces exactly, so the
    template weights of dbar(phi) telescope to zero at machine precision).
    A piece at z is the rational function
    sum(a_q/(w_q - z)) - f(z) sum(b_q/(w_q - z)); far from the support the
    first sum is re-summed through shared multipole moments (cheap) and the
    second, whose moments vanish, is dropped; near it, it is two kernel
    matrix-vector products, on a coarse 6-cell rule outside the support and
    on the template inside.

    The template cells of all bumps tile one lattice of pitch delta/CELLS
    (CELLS is even and the bumps sit half a support apart), so a point's cell
    is one pair of integers (``_cells``), and each bump's local cell, inside
    test and excluded kernel nodes follow by integer arithmetic: the four
    bumps over a cell always agree on it.  For z inside the support a
    corner-aligned polar rule about z, which removes the difference
    quotient's directional kink, stands in for z's cell, whose nodes take no
    kernel entry; one frame per point serves all four bumps
    (``_patch_block``).  Every other fine node lies at least 0.0469 delta/8
    from such a z, and every coarse node 0.0469 delta/6 from a z outside the
    support, so no kernel entry comes near 1/0.  At |z - c| >= k delta a far
    pair sums only the first n moments, the fewest with rho^n <=
    (1/sqrt 2)^96 = 2^-48, rho = delta/(sqrt(2) |z - c|) the largest node's
    ratio (``FAR_TIERS``, one Horner pass per tier): the accuracy at |z - c|
    = delta, where the far field starts and sums all N_MOMENTS + 1 moments.
    """

    CELLS = 8         # template cells per axis (even: a cell edge at the profile's breakpoint 0)
    ORDER = 5         # Gauss nodes per axis of each template cell
    N_MOMENTS = 96
    # (k, n): from k delta out a far pair sums n = ceil(48 / (1/2 + log2 k))
    # moments; from delta, where the far field starts, all N_MOMENTS + 1
    FAR_TIERS = ((16, 11), (8, 14), (4, 20), (2, 32), (1, N_MOMENTS + 1))
    PATCH_NT = 12     # polar patch: Gauss nodes per angular panel
    PATCH_NR = 10     # polar patch: Gauss nodes per ray
    PANEL_ORDER = 3   # Gauss nodes per contour panel
    BLOCK_PIECES = 96  # most pieces per contour block, which bounds its piece data
    # points per kernel matrix block: fixed, because the bits of a gemv
    # (OpenBLAS) depend on its row count, so other blocks change the values
    CHUNK = 1024

    def __init__(self, partition: Partition, f: FunctionDescriptor):
        self.partition = partition
        self.f = f
        delta = partition.delta
        self.half = delta / 2.0
        self.offsets, w, node_cell = _tensor_rule(delta, self.CELLS, self.ORDER)
        self.b = w * _dbar_phi(self.offsets.real, self.offsets.imag, delta) / math.pi
        self.offsets_c, w, _ = _tensor_rule(delta, 6, self.ORDER)  # coarse rule: points outside the support
        self.b_c = w * _dbar_phi(self.offsets_c.real, self.offsets_c.imag, delta) / math.pi
        csort = np.argsort(node_cell, kind="stable")
        self.nodes_by_cell = csort.reshape(self.CELLS * self.CELLS, self.ORDER ** 2)
        # shared multipole powers of the offsets, filled row by row (no second copy)
        self._powers = np.empty((self.N_MOMENTS + 1, self.offsets.size), dtype=complex)
        for m, row in enumerate(self._powers):
            row[:] = self.offsets ** m
        self._centers = partition.centers_array()
        # the cell lattice: bump (ix, iy) holds lattice cells H ix .. H ix + CELLS - 1
        # by H iy .. H iy + CELLS - 1, H = CELLS/2, from the lower-left support corner
        self._pitch = delta / self.CELLS
        self._origin = complex((partition.i0 - 0.5) * self.half, (partition.j0 - 0.5) * self.half)

    def _piece_data(self, js):
        """Centers, kernel coefficients and multipole moments of the pieces ``js``."""
        c = self._centers[js]
        a = np.empty((c.size, self.offsets.size), dtype=complex)
        a_c = np.empty((c.size, self.offsets_c.size), dtype=complex)
        step = max(_BLOCK // self.offsets.size, 1)  # pieces per f call: bounds f's temporaries
        for s in range(0, c.size, step):
            cs = c[s:s + step, None]
            np.multiply(self.b, self.f.value(cs + self.offsets), out=a[s:s + step])
            np.multiply(self.b_c, self.f.value(cs + self.offsets_c), out=a_c[s:s + step])
        # one gemv per piece, not one gemm per block: the bits of a gemv depend on its shape
        return c, a, a_c, np.stack([self._powers @ row for row in a], axis=1)

    def piece(self, j: int):
        """Data of piece j alone: center, kernel coefficients and multipole moments."""
        c, a, a_c, moments = self._piece_data([j])
        return {"center": c[0], "a": a[0], "a_c": a_c[0], "a_moments": moments[:, 0]}

    def active_pieces(self, js) -> list:
        """The pieces among ``js``, in the order asked, that are not identically zero.

        Piece j's dbar is phi_j * dbar(f); dbar(f) is probed on the coarse rule
        of each bump (enough for the smooth gallery dbars), uncached.
        """
        js = list(js)
        step = max(_BLOCK // self.offsets_c.size, 1)  # bumps per probe block
        out = []
        for s in range(0, len(js), step):
            jj = js[s:s + step]
            dbv = self.f.dbar(self._centers[jj][:, None] + self.offsets_c[None, :])
            out += [j for j, on in zip(jj, np.any(np.abs(dbv) != 0.0, axis=1)) if on]
        return out

    def _cells(self, z: np.ndarray):
        """Each point's lattice cell, as integer column and row indices.

        They are clipped to one cell past the partition's supports on either
        side, where no bump reaches, so a far point casts to an integer
        without overflow.
        """
        part, h = self.partition, self.CELLS // 2
        return [np.floor(np.clip((t - o) / self._pitch, -1, h * (n + 1))).astype(np.intp)
                for t, o, n in ((z.real, self._origin.real, part.ni),
                                (z.imag, self._origin.imag, part.nj))]

    def _patch_table(self, z: np.ndarray, fz: np.ndarray, gx: np.ndarray, gy: np.ndarray):
        """``_patch_block`` over the points in fixed blocks, which bound its node arrays: shape (points, 2, 2)."""
        out = np.empty((z.size, 2, 2), dtype=complex)
        step = max(_BLOCK // (4 * self.PATCH_NT * self.PATCH_NR), 1)  # points per block
        for s in range(0, z.size, step):
            sl = slice(s, s + step)
            out[sl] = self._patch_block(z[sl], fz[sl], gx[sl], gy[sl])
        return out

    def _patch_block(self, z: np.ndarray, fz: np.ndarray, gx: np.ndarray, gy: np.ndarray):
        """Polar-rule values over each z's lattice cell (gx, gy) for the 2 x 2 bumps over it.

        Entry [k, kx, ky] belongs to bump (gx // H - 1 + kx, gy // H - 1 + ky)
        of the partition, H = CELLS/2.  The cell lies between the
        centers of its two bump columns, so one profile argument per axis gives
        both: the profile values W(1) -/+ W(x) and the slopes -/+ rho.  The sums
        run over each point's nodes alone, so a value depends only on z, f(z)
        and the bump, not on the other points of the block.
        """
        part, h = self.partition, self.CELLS // 2
        delta, p, o = part.delta, self._pitch, self._origin
        ze, E, WT, rmax = _polar_frame(z, o.real + gx * p, o.real + (gx + 1) * p,
                                       o.imag + gy * p, o.imag + (gy + 1) * p, delta)
        # one radial panel per ray: an even CELLS puts the profile's center
        # lines on cell edges, so no cell straddles them
        gr, wr = gauss_legendre_01(self.PATCH_NR)
        E = E[..., None]
        w = ze[:, None, None, None] + (rmax[..., None] * gr) * E
        g = (self.f.value(w) - fz[:, None, None, None]) * np.conj(E)
        g *= (WT * rmax)[..., None] * (wr * (0.5 / math.pi))  # 0.5: dbar's, 1/pi: the piece's
        g = g.reshape(z.size, -1)
        profiles = []
        for t, lo, i0 in ((w.real, gx, part.i0), (w.imag, gy, part.j0)):
            # the lower bump column's center, computed as centers_array computes it
            lower = (i0 + lo // h - 1 + 0.5) * self.half
            _, r, x = _fold(t.reshape(z.size, -1) - lower[:, None], delta)
            profiles.append((_rho(r, x), _w9(x)))
        del w
        (rho_x, w_x), (rho_y, w_y) = profiles
        # dbar(phi) / 2 of bump (kx, ky) is s_x v_y + i v_x s_y with slopes
        # s = -/+ rho and values v = W(1) -/+ W for index 0/1: the sums of
        # g rho_x v_y over each point's nodes for both rows, and of g v_x rho_y
        # for both columns, give all four bumps
        g_rho = g * rho_x
        sum_x = [(g_rho * (_W1 - w_y)).sum(axis=1), (g_rho * (_W1 + w_y)).sum(axis=1)]
        del g_rho
        g *= rho_y
        sum_y = [(g * (_W1 - w_x)).sum(axis=1), (g * (_W1 + w_x)).sum(axis=1)]
        out = np.empty((z.size, 2, 2), dtype=complex)
        for kx, ky in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out[:, kx, ky] = (sum_x[ky] if kx else -sum_x[ky]) + 1j * (sum_y[kx] if ky else -sum_y[kx])
        return out

    def eval(self, j: int, zs, rows=None) -> np.ndarray:
        """Values of piece j at many points.

        An inactive piece is evaluated like any other and comes out at
        round-off, not at exact 0.  ``rows``, when given, maps pieces to rows
        already evaluated at ``zs``, and j's row is taken out of it:
        ``contour_integrals`` evaluates each block itself and still hands
        every row through here, because perfbench's tracer asserts one
        ``eval`` call per piece (``eval.calls == contour_integrals.pieces``).
        """
        if rows is not None:
            return rows.pop(j)
        z = np.asarray(zs, dtype=complex).ravel()
        return self._eval_block([j], z, self.f.value(z), self._cells(z), None)[0]

    def _eval_block(self, js, z: np.ndarray, fz: np.ndarray, cells, table) -> np.ndarray:
        """Values of the pieces ``js`` at the points ``z``, one row per piece.

        ``cells`` are the points' lattice cells and ``table`` their patch table,
        or None to build it here for the points inside some support.  Pairs at
        distance >= delta sum the multipole moments their distance needs, one
        Horner pass per ``FAR_TIERS`` band; points outside the support square
        but closer use the coarse rule (the integrand is smooth there), and
        points inside the support use the fine rule without the nodes of their
        own cell, for which the patch table stands in.  The kernel matrices
        stay per piece and per ``CHUNK`` points.  Every value is bit for bit
        the one a block of that piece alone gives.
        """
        c, a, a_c, moments = self._piece_data(js)
        part, cn, h = self.partition, self.CELLS, self.CELLS // 2
        by, bx = np.divmod(np.asarray(js, dtype=np.intp), part.ni)
        gx, gy = cells
        lo = h * bx[:, None]
        inside = (gx >= lo) & (gx < lo + cn)
        lo = h * by[:, None]
        inside &= (gy >= lo) & (gy < lo + cn)
        dz = z[None, :] - c[:, None]
        r = np.abs(dz)
        ring = (r < part.delta) & ~inside
        vals = np.empty((c.size, z.size), dtype=complex)
        # far pairs tier by tier: each runs its tier's Horner steps, whatever the block
        hi = np.inf
        for k, n in self.FAR_TIERS:
            idx = np.flatnonzero((r >= k * part.delta) & (r < hi))
            hi = k * part.delta
            piece = idx // z.size
            u = 1.0 / dz.reshape(-1)[idx]
            acc = moments[n - 1].take(piece)
            for m in range(n - 2, -1, -1):
                acc *= u
                acc += moments[m].take(piece)
            np.negative(acc, out=acc)
            acc *= u
            vals.reshape(-1)[idx] = acc
        del r, dz, idx, piece, u, acc
        if table is None:
            need = np.flatnonzero(inside.any(axis=0))
            table = np.zeros((z.size, 2, 2), dtype=complex)
            table[need] = self._patch_table(z[need], fz[need], gx[need], gy[need])
        # the coarse rule on the ring, the fine rule inside the support.  Each
        # kernel block is built and inverted in place, and freed before the
        # next one.  Inside, the nodes of z's own cell get kernel entry 0
        # (1/inf): the patch stands in for that cell
        for mask, coef, offsets, b, own_cell in (
                (ring, a_c, self.offsets_c, self.b_c, False),
                (inside, a, self.offsets, self.b, True)):
            for row, near, ci, ai, ix, iy in zip(vals, mask, c, coef, bx, by):
                sel = np.flatnonzero(near)
                nodes = ci + offsets
                if own_cell:
                    own = self.nodes_by_cell[(gx[sel] - h * ix) * cn + gy[sel] - h * iy]
                for s in range(0, sel.size, self.CHUNK):
                    ss = sel[s:s + self.CHUNK]
                    K = nodes[None, :] - z[ss, None]
                    if own_cell:
                        K[np.arange(ss.size)[:, None], own[s:s + self.CHUNK]] = np.inf
                    np.divide(1.0, K, out=K)
                    row[ss] = K @ ai - fz[ss] * (K @ b)
                    del K
                if own_cell:
                    row[sel] += table[sel, ix - gx[sel] // h + 1, iy - gy[sel] // h + 1]
        return vals

    def contour_integrals(self, js, curve: PolyCurve) -> dict:
        """∮ f_j dz around the curve for each requested piece, ``PANEL_ORDER`` Gauss nodes per panel.

        Edge d takes k = ceil(|d| / half) panels of ``integration._panels``.  An
        inactive piece comes out at round-off, not at exact 0.  The nodes'
        cells and patch table are built once; the pieces then run through
        ``_eval_block`` in blocks of about ``_BLOCK / 2`` values.  Each block
        builds its pieces' data (about 42 kB per piece) and drops it when
        done; ``BLOCK_PIECES`` caps a block's pieces, which bounds that memory
        when the contour is short.
        """
        _, w = gauss_legendre_01(self.PANEL_ORDER)
        k = np.ceil(curve.edge_lengths / self.half).astype(int)  # panels per edge
        z, dp = _panels(curve.starts, curve.edge_vectors, k, self.PANEL_ORDER)
        zc, dzw = z.ravel(), (w[None, :] * dp[:, None]).ravel()
        fz = self.f.value(zc)
        cells = self._cells(zc)
        table = self._patch_table(zc, fz, *cells)
        js = list(js)
        step = min(max(_BLOCK // (2 * zc.size), 1), self.BLOCK_PIECES)  # pieces per block
        out = {}
        for s in range(0, len(js), step):
            block = list(dict.fromkeys(js[s:s + step]))
            rows = dict(zip(block, self._eval_block(block, zc, fz, cells, table)))
            for j in block:
                out[j] = complex((self.eval(j, zc, rows) * dzw).sum())
        return out


def sweep_partition(curve: PolyCurve, delta: float) -> Partition:
    """The bumps of one delta_sweep level: the curve's box padded by 1.6 delta."""
    lo, hi = curve.bbox
    pad = delta * 1.6
    return build_partition(delta, (lo - pad * (1 + 1j), hi + pad * (1 + 1j)))


def _check_deltas(deltas):
    """Raise ValueError unless ``deltas`` is a sweep whose multipole powers stay finite."""
    if not deltas or not all(0 < float(d) < math.inf for d in deltas) or any(
            b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be nonempty, positive, finite and strictly decreasing")
    with np.errstate(over="ignore"):  # the powers peak at a support corner, delta/sqrt(2) out
        if not np.float64(float(deltas[0]) / math.sqrt(2.0)) ** PieceSet.N_MOMENTS < math.inf:
            raise ValueError(f"(delta/sqrt(2))^{PieceSet.N_MOMENTS} overflows at delta {deltas[0]!r}")


def delta_sweep(f: FunctionDescriptor, curve: PolyCurve, deltas) -> list:
    """|S_II| against the modulus bound over a decreasing list of delta.

    Only class-II pieces (bump disc meets the curve) are summed; the bound
    column is SWEEP_BOUND_CONSTANT * omega(f, delta) * length(curve), with
    omega f's closed-form modulus bound over the curve's box dilated by
    2 delta, so the column is a bound, not an estimate.  The small
    residual correction from pieces straddling the index-zero side is not
    isolated: it is part of the measured |S_II| whose decay the sweep shows.
    """
    _check_deltas(deltas)
    lo, hi = curve.bbox
    rows = []
    l_curve = length(curve)
    for delta in deltas:
        part = sweep_partition(curve, delta)
        cand = np.nonzero(_meets_curve(curve, part.centers_array(), delta))[0]
        ps = PieceSet(part, f)
        js = ps.active_pieces(cand.tolist())
        s2 = sum(ps.contour_integrals(js, curve).values(), 0j)
        omega = f.modulus(delta, box=(lo - 2 * delta * (1 + 1j), hi + 2 * delta * (1 + 1j)))
        rows.append({
            "delta": float(delta),
            "s_ii_abs": float(abs(s2)),
            "bound": float(SWEEP_BOUND_CONSTANT * omega * l_curve),
            "n_pieces": len(js),
        })
    return rows
