"""Localization of singularities: partition of unity, localized pieces, class sums.

The partition covers the plane with bumps on a half-spacing square lattice:
each bump is the indicator of a lattice square convolved with a fixed
polynomial mollifier, realized as a tensor product of one closed-form
piecewise-polynomial 1D profile per axis.  The profiles telescope, so the
bumps sum to one exactly and each point lies in at most a handful of supports.

A localized piece of a compactly supported f is

    f_j(z) = (1/pi) ∫ (f(w) - f(z)) / (w - z) * dbar(phi_j)(w) dA(w),

whose d-bar derivative is phi_j * dbar(f); the piece is holomorphic wherever
f is and outside the bump's support.  Every evaluation is built from one
tensor Gauss rule on the support square (``_tensor_rule``) and one polar
frame about z (``_polar_frame``: z clipped into a rect, angular panels
between its corners, the exit distance of each ray), which replaces the
cells next to z, where the difference quotient has its directional
discontinuity.  Two configurations use them: ``PieceSet`` (order 5, one
polar cell, multipole and coarse-ring shortcuts) for contour sums and
reconstruction scans, and ``localize`` / ``localize_cauchy`` (12 cells of
order 12, a 3x3 polar block split at the profile's center lines) as the
accurate reference for cross-checks and finite-difference tests.

Only ``PieceSet``'s cells per axis and Gauss order are parameters: doubling
the cells checks the evaluator's convergence, and ``delta_sweep`` uses 8 for
speed.  The polar patch, the pieces per contour block and the reference
rule are fixed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _BLOCK, PolyCurve, length
from .errors import UnresolvedDisc
from .functions import FunctionDescriptor
from .integration import contour_integral, gauss_legendre_01
from .winding import IndexField, distance_to_curve

CLASS_I = "I"
CLASS_II = "II"
CLASS_III = "III"
# class_sums: Gauss nodes per curve edge, and refinement levels of the area form
CLASS_CONTOUR_ORDER, CLASS_REFINE = 8, 2
# delta_sweep: Gauss nodes per curve edge, template cells per axis, the bound's constant
SWEEP_CONTOUR_ORDER, SWEEP_CELLS, SWEEP_BOUND_CONSTANT = 6, 8, 8.0


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


def _slope(t, r: float, x):
    rho = (315.0 / (256.0 * r)) * (1.0 - x * x) ** 4  # x is clipped: rho(+-1) is exactly 0
    return np.where(t < 0, rho, 0.0 - rho)  # 0.0 - rho keeps the +0.0 of rho(t + r) - rho(t - r)


def profile(t, delta: float):
    """1D bump profile: indicator of [-delta/4, delta/4] convolved with the radius-delta/4 mollifier.

    Supported on |t| < delta/2, equals 1 only at t = 0, piecewise polynomial
    of degree 9 on each half with C^3 matching.
    """
    return _value(_fold(t, delta)[2])


def profile_d(t, delta: float):
    """Derivative of the 1D profile; bounded by 315/(64*delta)."""
    return _slope(*_fold(t, delta))


def _dbar_phi(dx, dy, delta: float):
    """dbar of the tensor bump at offsets (dx, dy) from its center."""
    fx, fy = _fold(dx, delta), _fold(dy, delta)
    return 0.5 * (_slope(*fx) * _value(fy[2]) + 1j * _value(fx[2]) * _slope(*fy))


def _tensor_rule(delta: float, n_cells: int, order: int):
    """Tensor Gauss-Legendre rule on the support square [-delta/2, delta/2]^2.

    Returns the per-axis cell edges, the node offsets from the bump center,
    their weights, and the cell of each node, numbered ``ix * n_cells + iy``.
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
    return edges, offsets, weights, (cell[:, None] * n_cells + cell[None, :]).ravel()


@dataclass
class Partition:
    """Family of tensor bumps on the half-spacing lattice covering a box.

    Bump j has center ``centers[j]``; its support is the open square of side
    ``delta`` about the center (inside the nominal disc of radius delta), and
    the nominal discs are what the I/II/III classification uses.
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

    def center(self, j: int) -> complex:
        iy, ix = divmod(j, self.ni)
        d = self.spacing
        return complex((self.i0 + ix + 0.5) * d, (self.j0 + iy + 0.5) * d)

    def centers_array(self) -> np.ndarray:
        d = self.spacing
        x = (self.i0 + np.arange(self.ni) + 0.5) * d
        y = (self.j0 + np.arange(self.nj) + 0.5) * d
        return (x[None, :] + 1j * y[:, None]).ravel()

    def phi(self, j: int, zs) -> np.ndarray:
        z = np.asarray(zs, dtype=complex)
        c = self.center(j)
        return profile(z.real - c.real, self.delta) * profile(z.imag - c.imag, self.delta)

    def grad_phi_norm(self, j: int, zs) -> np.ndarray:
        z = np.asarray(zs, dtype=complex)
        c = self.center(j)
        return 2.0 * np.abs(_dbar_phi(z.real - c.real, z.imag - c.imag, self.delta))  # phi is real

    def _window(self, zs, reach: int):
        """Lattice index arrays (iy, ix) of bump candidates within ``reach`` cells."""
        z = np.asarray(zs, dtype=complex)
        d = self.spacing
        bx = np.floor(z.real / d - 0.5).astype(int) - self.i0
        by = np.floor(z.imag / d - 0.5).astype(int) - self.j0
        offs = np.arange(-reach, reach + 1)
        return z, bx, by, offs

    def sum_phi(self, zs, subset=None) -> np.ndarray:
        """Sum of bump values at each point, optionally over a subset flag array."""
        z, bx, by, offs = self._window(zs, 1)
        total = np.zeros(z.shape, dtype=float)
        d = self.spacing
        for oy in offs:
            iy = by + oy
            ok_y = (iy >= 0) & (iy < self.nj)
            cy = (self.j0 + iy + 0.5) * d
            py = profile(z.imag - cy, self.delta)
            for ox in offs:
                ix = bx + ox
                ok = ok_y & (ix >= 0) & (ix < self.ni)
                if subset is not None:
                    jj = np.clip(iy, 0, self.nj - 1) * self.ni + np.clip(ix, 0, self.ni - 1)
                    ok = ok & subset[jj]
                cx = (self.i0 + ix + 0.5) * d
                px = profile(z.real - cx, self.delta)
                total += np.where(ok, px * py, 0.0)
        return total

    def multiplicity(self, zs) -> np.ndarray:
        """Number of nominal discs (radius delta) containing each point."""
        z, bx, by, offs = self._window(zs, 2)
        count = np.zeros(z.shape, dtype=int)
        d = self.spacing
        for oy in offs:
            iy = by + oy
            ok_y = (iy >= 0) & (iy < self.nj)
            cy = (self.j0 + iy + 0.5) * d
            for ox in offs:
                ix = bx + ox
                ok = ok_y & (ix >= 0) & (ix < self.ni)
                cx = (self.i0 + ix + 0.5) * d
                inside = np.hypot(z.real - cx, z.imag - cy) < self.delta
                count += (ok & inside)
        return count


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


def _check_resolution(partition: Partition, fld: IndexField):
    grid = fld.grid
    if max(grid.cell_w, grid.cell_h) > partition.delta / 4.0 * (1 + 1e-9):
        raise ValueError("index field needs at least 4 cells per delta")


def _classify_by_field(partition: Partition, j: int, fld: IndexField) -> str:
    """I/III split for a bump whose disc misses the curve, via the field value."""
    grid = fld.grid
    c = partition.center(j)
    ix = int((c.real - grid.lo.real) / grid.cell_w)
    iy = int((c.imag - grid.lo.imag) / grid.cell_h)
    ix = min(max(ix, 0), grid.nx - 1)
    iy = min(max(iy, 0), grid.ny - 1)
    if not fld.near_mask[iy, ix]:
        v = int(fld.values[iy, ix])
        return CLASS_I if v != 0 else CLASS_III
    # scan cells covered by the disc for a clean one
    reach_x = int(partition.delta / grid.cell_w) + 1
    reach_y = int(partition.delta / grid.cell_h) + 1
    x, y = grid.axes()
    x0, x1 = max(ix - reach_x, 0), min(ix + reach_x + 1, grid.nx)
    y0, y1 = max(iy - reach_y, 0), min(iy + reach_y + 1, grid.ny)
    patch_c = x[None, x0:x1] + 1j * y[y0:y1, None]
    patch_clean = ~fld.near_mask[y0:y1, x0:x1] & (np.abs(patch_c - c) < partition.delta)
    if np.any(patch_clean):
        v = int(fld.values[y0:y1, x0:x1][patch_clean][0])
        return CLASS_I if v != 0 else CLASS_III
    raise UnresolvedDisc(f"bump {j} at {c} sits in the near-curve band; refine the field")


def _meets_curve(curve: PolyCurve, centers, delta: float) -> np.ndarray:
    """Class-II test: does the nominal disc of radius delta about each center meet the curve?

    The distance kernel is exact up to its cap, so capping at delta keeps
    every decision exact while it skips the edges far from each center.
    """
    return distance_to_curve(curve, centers, cap=delta) < delta


def classify_many(partition: Partition, js, curve: PolyCurve, fld: IndexField) -> dict:
    """Class of each bump j: II if its disc meets a curve edge, else I/III by the index value.

    Requires the field to resolve the disc (at least 4 cells per delta);
    raises UnresolvedDisc when a disc only covers masked cells.
    """
    _check_resolution(partition, fld)
    js = list(js)
    meets = _meets_curve(curve, partition.centers_array()[js], partition.delta)
    return {j: CLASS_II if hit else _classify_by_field(partition, j, fld)
            for j, hit in zip(js, meets)}


class PieceSet:
    """Quadrature-backed evaluators for the localized pieces of one function.

    One fixed template rule lives on the support square: per-axis cells
    aligned to the profile breakpoint at 0, Gauss-Legendre inside each cell
    (order 5 integrates the degree-9 profile pieces exactly, so the template
    weights of dbar(phi) telescope to zero at machine precision).  A piece at
    z is the rational function sum(a_q/(w_q - z)) - f(z) sum(b_q/(w_q - z));
    far from the support that sum is re-summed through shared multipole
    moments (cheap), near the support it is two kernel matrix-vector
    products, and for z inside the support the contribution of the cell
    containing z is replaced by a corner-aligned polar rule about z, which
    removes the difference quotient's directional kink from the fixed rule's
    path.
    """

    ORDER = 5         # Gauss nodes per axis of each template cell
    N_MOMENTS = 96
    PATCH_NT = 12     # polar patch: Gauss nodes per angular panel
    PATCH_NR = 10     # polar patch: Gauss nodes per ray
    BLOCK_PIECES = 96  # most pieces per contour block, which bounds its piece data
    # points per kernel matrix block: fixed, because the bits of a gemv
    # (OpenBLAS) depend on its row count, so other blocks change the values
    CHUNK = 1024

    def __init__(self, partition: Partition, f: FunctionDescriptor, cells_per_axis: int = 16):
        if cells_per_axis % 2:
            raise ValueError("cells_per_axis must be even (profile breakpoint at 0)")
        self.partition = partition
        self.f = f
        self.cells = cells_per_axis
        delta = partition.delta
        self.half = delta / 2.0
        self.far_radius = 1.0 * delta  # corner-node multipole ratio sqrt(2)/2 per term
        self.edges, self.offsets, w, node_cell = _tensor_rule(delta, cells_per_axis, self.ORDER)
        self.b = w * _dbar_phi(self.offsets.real, self.offsets.imag, delta) / math.pi
        _, self.offsets_c, w, _ = _tensor_rule(delta, 6, self.ORDER)  # coarse rule: points outside the support
        self.b_c = w * _dbar_phi(self.offsets_c.real, self.offsets_c.imag, delta) / math.pi
        csort = np.argsort(node_cell, kind="stable")
        self.nodes_by_cell = csort.reshape(cells_per_axis * cells_per_axis, self.ORDER ** 2)
        # shared multipole data: powers of the offsets (filled row by row, so
        # no second copy is built), and the moments of b
        self._powers = np.empty((self.N_MOMENTS + 1, self.offsets.size), dtype=complex)
        for m, row in enumerate(self._powers):
            row[:] = self.offsets ** m
        self.b_moments = self._powers @ self.b  # all ~0: dbar(phi) kills holomorphic moments
        self._use_b_tail = bool(np.max(np.abs(self.b_moments)) > 1e-13)
        self._centers = partition.centers_array()
        self._flags = np.full(partition.n_bumps, -1, dtype=np.int8)  # -1 until probed

    def _active(self, js) -> np.ndarray:
        """Does dbar(f) show on the coarse rule of each bump j?  Probes each bump once."""
        js = np.asarray(js, dtype=np.intp)
        todo = np.unique(js[self._flags[js] < 0])
        probe = self.offsets_c  # coarse probe suffices for the smooth gallery dbars
        step = max(_BLOCK // probe.size, 1)  # bumps per block
        for s in range(0, todo.size, step):
            jj = todo[s:s + step]
            dbv = self.f.dbar(self._centers[jj, None] + probe[None, :])
            self._flags[jj] = np.any(np.abs(dbv) != 0.0, axis=1)
        return self._flags[js] == 1

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

    def active_pieces(self, js=None) -> list:
        """The pieces among ``js`` (default: all) that are not identically zero."""
        js = list(range(self.partition.n_bumps) if js is None else js)
        return [j for j, on in zip(js, self._active(js)) if on]

    @staticmethod
    def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.full(u.shape, coeffs[-1], dtype=complex)
        for m in range(len(coeffs) - 2, -1, -1):
            out *= u
            out += coeffs[m]
        return out

    def _patch_values(self, c: np.ndarray, zs: np.ndarray, fzs: np.ndarray):
        """Polar-rule values over each z's cell, vectorized over z, each inside the support about its c."""
        dx = zs.real - c.real
        dy = zs.imag - c.imag
        ix = np.clip(np.searchsorted(self.edges, dx, side="right") - 1, 0, self.cells - 1)
        iy = np.clip(np.searchsorted(self.edges, dy, side="right") - 1, 0, self.cells - 1)
        ze, E, WT, _, _, rmax = _polar_frame(
            zs, c.real + self.edges[ix], c.real + self.edges[ix + 1],
            c.imag + self.edges[iy], c.imag + self.edges[iy + 1], self.partition.delta, self.PATCH_NT)
        # one radial panel per ray: even cells_per_axis puts the profile's
        # center lines on cell edges, so no cell straddles them.  Products are
        # taken in place and each node-sized array is built where it is used,
        # so few of them are alive at once.
        gr, wr = gauss_legendre_01(self.PATCH_NR)
        E = E[..., None]
        wpts = ze[:, None, None, None] + (rmax[..., None] * gr) * E
        c = c[:, None, None, None]
        vals = (self.f.value(wpts) - fzs[:, None, None, None]) * np.conj(E)
        dx, dy = wpts.real - c.real, wpts.imag - c.imag
        del wpts
        vals *= _dbar_phi(dx, dy, self.partition.delta)
        del dx, dy
        vals *= (WT * rmax)[..., None] * wr
        return vals.sum(axis=(1, 2, 3)) / math.pi, ix, iy

    def eval(self, j: int, zs, fz=None, rows=None) -> np.ndarray:
        """Values of piece j at many points; ``fz`` is f at ``zs`` when the caller has it.

        A caller that wants several pieces at the same points passes ``rows``,
        a dict whose keys are those pieces and whose values start as None: the
        first call evaluates them all in one block and keeps their rows there,
        and each later call takes its own row out.
        """
        if rows is not None and rows.get(j) is not None:
            return rows.pop(j)
        js = [j] + [k for k, v in (rows or {}).items() if v is None and k != j]
        z = np.asarray(zs, dtype=complex).ravel()
        vals = self._eval_block(js, z, None if fz is None else np.asarray(fz).ravel())
        if rows is not None:
            rows.update(zip(js[1:], vals[1:]))
            rows.pop(j, None)
        return vals[0]

    def _eval_block(self, js, z: np.ndarray, fz=None) -> np.ndarray:
        """Values of the pieces ``js`` at the points ``z``, one row per piece.

        Points at distance >= delta from a bump center use the multipole
        re-summation, one Horner pass over the whole block; points outside
        the support square but closer use the coarse rule (the integrand is
        smooth there), and points inside the support use the fine rule with
        the polar patch on their cell.  The kernel matrices stay per piece and
        per ``CHUNK`` points; the polar patch runs over fixed blocks of the
        block's (piece, inside point) pairs.  Every value is bit for bit the
        one a block of that piece alone gives.
        """
        on = np.flatnonzero(self._active(js))
        if not on.size:
            return np.zeros((len(js), z.size), dtype=complex)
        fz = self.f.value(z) if fz is None else fz
        c, a, a_c, moments = self._piece_data(np.asarray(js)[on])
        dz = z[None, :] - c[:, None]
        far = np.abs(dz) >= self.far_radius
        inside = (np.abs(dz.real) < self.half) & (np.abs(dz.imag) < self.half)
        # far field on every entry; the near entries are overwritten below
        u = np.zeros(dz.shape, dtype=complex)
        np.divide(1.0, dz, out=u, where=far)
        del dz
        vals = self._horner(moments[:, :, None], u)
        np.negative(vals, out=vals)
        vals *= u
        if self._use_b_tail:
            vals += fz * self._horner(self.b_moments, u) * u
        del u
        ring = ~far & ~inside
        del far
        tiny = 1e-15 * self.partition.delta
        # each kernel block is built and inverted in place, and freed before
        # the next one
        for row, near, ci, ai in zip(vals, ring, c, a_c):
            sel = np.nonzero(near)[0]
            nodes_c = ci + self.offsets_c
            for s in range(0, sel.size, self.CHUNK):
                ss = sel[s:s + self.CHUNK]
                K = nodes_c[None, :] - z[ss, None]
                np.divide(1.0, K, out=K)
                row[ss] = K @ ai - fz[ss] * (K @ self.b_c)
                del K
        sub = max(_BLOCK // self.offsets.size, 1)  # rows per |K| test
        for row, near, ci, ai in zip(vals, inside, c, a):
            kk = np.nonzero(near)[0]
            nodes = ci + self.offsets
            for s in range(0, kk.size, self.CHUNK):
                ss = kk[s:s + self.CHUNK]
                K = nodes[None, :] - z[ss, None]
                # a node on z: its kernel entry is 0.  |K| is taken a few rows
                # at a time, so no float copy of the whole block is built
                bad = np.empty(K.shape, dtype=bool)
                for r in range(0, ss.size, sub):
                    np.less(np.abs(K[r:r + sub]), tiny, out=bad[r:r + sub])
                K[bad] = 1.0
                np.divide(1.0, K, out=K)
                K[bad] = 0.0
                row[ss] = K @ ai - fz[ss] * (K @ self.b)
                del K, bad
        # inside (piece, point) pairs per patch block, at 4 panels x PATCH_NT x
        # PATCH_NR nodes each; the cell term takes each piece's own coefficients
        pi, pk = np.nonzero(inside)
        step = max(_BLOCK // (4 * self.PATCH_NT * self.PATCH_NR), 1)
        for s in range(0, pi.size, step):
            bi, bk = pi[s:s + step], pk[s:s + step]
            patched, ix, iy = self._patch_values(c[bi], z[bk], fz[bk])
            q = self.nodes_by_cell[ix * self.cells + iy]  # (n, order^2)
            den = (c[bi, None] + self.offsets[q]) - z[bk, None]
            den = np.where(np.abs(den) < tiny, np.inf, den)
            cell_a = np.empty(bi.size, dtype=complex)
            for i in np.unique(bi):
                m = bi == i
                cell_a[m] = (a[i][q[m]] / den[m]).sum(axis=1)
            base_cell = cell_a - fz[bk] * (self.b[q] / den).sum(axis=1)
            vals[bi, bk] += patched - base_cell
        if on.size == len(js):
            return vals
        out = np.zeros((len(js), z.size), dtype=complex)
        out[on] = vals
        return out

    def contour_integrals(self, js, curve: PolyCurve, order: int = 8) -> dict:
        """∮ f_j dz around the curve for each requested piece.

        The pieces run through ``eval`` in blocks of about ``_BLOCK / 2``
        values.  Each block builds its pieces' data (about 115 kB per piece at
        the default rule) and drops it when done; ``BLOCK_PIECES`` caps a
        block's pieces, which bounds that memory when the contour is short.
        """
        t, w = gauss_legendre_01(order)
        a, d = curve.starts, curve.edge_vectors
        zc = (a[:, None] + t[None, :] * d[:, None]).ravel()
        dzw = (w[None, :] * d[:, None]).ravel()
        fz = self.f.value(zc)
        js = list(js)
        step = min(max(_BLOCK // (2 * zc.size), 1), self.BLOCK_PIECES)  # pieces per block
        out = {}
        for s in range(0, len(js), step):
            rows = dict.fromkeys(js[s:s + step])
            for j in list(rows):
                out[j] = complex((self.eval(j, zc, fz, rows) * dzw).sum())
        return out


# ---------------------------------------------------------------------------
# accurate per-point evaluation (cross-checks, finite differences)

# the reference rule: tensor cells and Gauss order on the support, and the
# angular and radial Gauss orders of the polar block about z
_REF_CELLS = 12
_REF_ORDER = 12
_REF_NT = 24
_REF_NR = 16


def _polar_frame(zs, x0, x1, y0, y1, delta: float, nt: int):
    """Angular half of the polar rule about each z over its axis-aligned rect.

    z is clipped just inside its rect [x0, x1] x [y0, y1]; the angular panels
    run between the directions of the four corners, nt Gauss nodes each, so
    every ray leaves the rect through one side.  Returns the clipped z, and
    per (z, panel, node) the direction e^{i theta}, the angular weight, cos
    and sin of theta, and the distance at which the ray leaves the rect.
    """
    zs, x0, x1, y0, y1 = np.broadcast_arrays(*(np.atleast_1d(v) for v in (zs, x0, x1, y0, y1)))
    m = 1e-12 * delta
    zr = np.clip(zs.real, x0 + m, x1 - m)
    zi = np.clip(zs.imag, y0 + m, y1 - m)
    ze = zr + 1j * zi
    corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1], axis=1)
    th = np.sort(np.angle(corners - ze[:, None]), axis=1)
    th_edges = np.concatenate([th, th[:, :1] + 2 * math.pi], axis=1)
    widths = np.diff(th_edges, axis=1)
    gt, wt = gauss_legendre_01(nt)
    TH = th_edges[:, :4, None] + widths[:, :, None] * gt[None, None, :]
    WT = widths[:, :, None] * wt[None, None, :]
    ct, st = np.cos(TH), np.sin(TH)
    x0, x1, y0, y1, zr, zi = (v[:, None, None] for v in (x0, x1, y0, y1, zr, zi))
    with np.errstate(divide="ignore"):
        tx = np.where(ct > 0, (x1 - zr) / ct, np.where(ct < 0, (x0 - zr) / ct, np.inf))
        ty = np.where(st > 0, (y1 - zi) / st, np.where(st < 0, (y0 - zi) / st, np.inf))
    return ze, np.exp(1j * TH), WT, ct, st, np.minimum(tx, ty)


def _polar_block(c, z, rect, g, delta):
    """Polar rule for ∫ g(w) / (w - z) dA over an axis-aligned rect containing z.

    About z, 1/(w - z) times the polar Jacobian r is e^{-i theta}: the
    integrand is bounded.  Angular panels are aligned to the rect corners;
    radial panels are split where a ray crosses the profile's center lines
    x = c.re or y = c.im, so the integrand is analytic on every panel.
    """
    ze, E, WT, ct, st, rmax = (v[0] for v in _polar_frame(z, *rect, delta, _REF_NT))
    with np.errstate(divide="ignore"):
        kx = (c.real - ze.real) / np.where(ct == 0, np.inf, ct)
        ky = (c.imag - ze.imag) / np.where(st == 0, np.inf, st)
    cuts = [np.where((kk > 0) & (kk < rmax), kk, rmax) for kk in (kx, ky)]
    bounds = np.stack([np.zeros_like(rmax), np.minimum(*cuts), np.maximum(*cuts), rmax],
                      axis=-1)  # (4, nt, 4)
    gr, wr = gauss_legendre_01(_REF_NR)
    span = np.diff(bounds, axis=-1)
    S = bounds[..., :-1, None] + span[..., None] * gr  # (4, nt, 3, nr)
    W = (WT[..., None] * span)[..., None] * wr
    E = E[..., None, None]
    return complex((g(ze + S * E) * np.conj(E) * W).sum())


def _accurate_piece_integral(partition, j, z, g):
    """∫ g(w) / (w - z) dA over the support of bump j, for g smooth on each cell.

    Tensor rule on the support, with the 3x3 cell block around z replaced by
    the polar rule.  No tensor node meets z: the block keeps them a cell away
    from an inside z, and Gauss nodes lie strictly inside the support.
    """
    delta = partition.delta
    c = partition.center(j)
    edges, offsets, weights, cell = _tensor_rule(delta, _REF_CELLS, _REF_ORDER)
    keep = np.ones(cell.shape, dtype=bool)
    half = delta / 2.0
    block = None
    if abs(z.real - c.real) < half and abs(z.imag - c.imag) < half:
        ix, iy = np.clip(np.searchsorted(edges, [z.real - c.real, z.imag - c.imag]) - 1, 0, _REF_CELLS - 1)
        bx0, bx1 = max(ix - 1, 0), min(ix + 2, _REF_CELLS)
        by0, by1 = max(iy - 1, 0), min(iy + 2, _REF_CELLS)
        block = (c.real + edges[bx0], c.real + edges[bx1], c.imag + edges[by0], c.imag + edges[by1])
        cx, cy = np.divmod(cell, _REF_CELLS)
        keep = ~((bx0 <= cx) & (cx < bx1) & (by0 <= cy) & (cy < by1))
    w = c + offsets[keep]
    total = complex((g(w) / (w - z) * weights[keep]).sum())
    if block:
        total += _polar_block(c, z, block, g, delta)
    return total


def localize(f: FunctionDescriptor, partition: Partition, j: int, z: complex) -> complex:
    """Accurate value of the localized piece f_j at one point.

    Uses the bounded difference-quotient integrand everywhere; there is no
    principal value to take.  Slower than PieceSet.eval but accurate to
    roughly 1e-8, which the cross-check and derivative tests need.
    """
    z = complex(z)
    c = partition.center(j)
    fz = complex(f.value(np.array([z]))[0])

    def g(w):
        return (f.value(w) - fz) * _dbar_phi(w.real - c.real, w.imag - c.imag, partition.delta) / math.pi

    return _accurate_piece_integral(partition, j, z, g)


def localize_cauchy(f: FunctionDescriptor, partition: Partition, j: int, z: complex) -> complex:
    """Cross-check form of the piece: Cauchy transform of phi_j * dbar(f) at z."""
    return _accurate_piece_integral(partition, j, complex(z),
                                    lambda w: -partition.phi(j, w) * f.dbar(w) / math.pi)


def reconstruct(f: FunctionDescriptor, partition: Partition, zs, cells_per_axis: int = 16):
    """Sup over ``zs`` of |f - sum of pieces|, with inert pieces skipped.

    Returns (discrepancy, number of active pieces).  Doubling
    ``cells_per_axis`` refines every per-piece rule, which is how the
    convergence of the evaluator itself is checked.
    """
    z = np.asarray(zs, dtype=complex).ravel()
    ps = PieceSet(partition, f, cells_per_axis=cells_per_axis)
    js = ps.active_pieces()
    total = np.zeros(z.shape, dtype=complex)
    for j in js:
        total += ps.eval(j, z)
    disc = float(np.max(np.abs(total - f.value(z)))) if z.size else 0.0
    return disc, len(js)


@dataclass
class ClassSums:
    s_i: complex
    s_ii: complex
    s_iii: complex
    direct: complex
    area_form_i: complex
    counts: dict

    @property
    def total(self) -> complex:
        return self.s_i + self.s_ii + self.s_iii


def class_sums(f: FunctionDescriptor, partition: Partition, curve: PolyCurve,
               fld: IndexField) -> ClassSums:
    """Per-class sums of ∮ f_j dz, their direct total, and the area form for class I.

    The class-I sum is compared against 2i ∫ (sum of class-I bumps) dbar(f) Ind dA,
    computed by an independent area quadrature.
    """
    from .integration import area_integral_weighted

    ps = PieceSet(partition, f)
    js = ps.active_pieces()
    sums = {CLASS_I: 0j, CLASS_II: 0j, CLASS_III: 0j}
    counts = {CLASS_I: 0, CLASS_II: 0, CLASS_III: 0}
    classes = classify_many(partition, js, curve, fld)
    for j in js:
        counts[classes[j]] += 1
    integrals = ps.contour_integrals(js, curve, order=CLASS_CONTOUR_ORDER)
    for j, val in integrals.items():
        sums[classes[j]] += val

    subset = np.zeros(partition.n_bumps, dtype=bool)
    subset[[j for j in js if classes[j] == CLASS_I]] = True
    weight = lambda zs: partition.sum_phi(zs, subset=subset)
    area, _ = area_integral_weighted(fld, f, refine=CLASS_REFINE, weight=weight)
    direct = contour_integral(curve, f, order=CLASS_CONTOUR_ORDER)
    return ClassSums(s_i=sums[CLASS_I], s_ii=sums[CLASS_II], s_iii=sums[CLASS_III],
                     direct=direct, area_form_i=2j * area, counts=counts)


def sweep_partition(curve: PolyCurve, delta: float) -> Partition:
    """The bumps of one delta_sweep level: the curve's box padded by 1.6 delta."""
    lo, hi = curve.bbox
    pad = delta * 1.6
    return build_partition(delta, (lo - pad * (1 + 1j), hi + pad * (1 + 1j)))


def delta_sweep(f: FunctionDescriptor, curve: PolyCurve, deltas) -> list:
    """|S_II| against the modulus bound over a decreasing list of delta.

    Only class-II pieces (bump disc meets the curve) are summed; the bound
    column is SWEEP_BOUND_CONSTANT * omega(f, delta) * length(curve).  The small
    residual correction from pieces straddling the index-zero side is not
    isolated: it is part of the measured |S_II| whose decay the sweep shows.
    """
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    lo, hi = curve.bbox
    rows = []
    l_curve = length(curve)
    for delta in deltas:
        part = sweep_partition(curve, delta)
        cand = np.nonzero(_meets_curve(curve, part.centers_array(), delta))[0]
        ps = PieceSet(part, f, cells_per_axis=SWEEP_CELLS)
        js = ps.active_pieces(cand.tolist())
        s2 = sum(ps.contour_integrals(js, curve, order=SWEEP_CONTOUR_ORDER).values(), 0j)
        mod_box = (lo - 2 * delta * (1 + 1j), hi + 2 * delta * (1 + 1j))
        omega = f.modulus(delta, box=mod_box)
        rows.append({
            "delta": float(delta),
            "s_ii_abs": float(abs(s2)),
            "bound": float(SWEEP_BOUND_CONSTANT * omega * l_curve),
            "n_pieces": len(js),
        })
    return rows
