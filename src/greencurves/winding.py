"""Winding numbers of polylines and index fields sampled on grids.

The index is computed by a signed horizontal ray-crossing count with the
half-open vertex rule (an edge counts when it spans the ray's level in
[y, y+)), which never double-counts vertices (Hormann & Agathos, "The point
in polygon problem for arbitrary polygons", 2001).  For a point off the curve
the result is the exact integer (1/2πi) ∮ dw/(w−z).

For scattered points both kernels evaluate each edge only at its candidate
points, found by binary search in the points sorted by y: those in the
edge's half-open y-range for the crossing count, those in its bounding box
dilated by ``cap`` for the distance.  Each pair uses the arithmetic of the
every-edge loop, so results are bit-identical to it (the distance wherever it
is at most ``cap``).  One walk, ``_slab_walk``, hands both kernels their
(edge, point) pairs in bounded blocks: a long slab edge by edge, the short
ones expanded together.  Each block is reduced with ``np.minimum.at`` /
``np.add.at``, which ignore the order and grouping of their terms.

On a grid nothing is sorted: a cell center is exactly (x[ix], y[iy]), so an
edge's candidate centers are a range of columns times a range of rows.  Along
a row the crossing test is monotone in the column, so an edge counts a prefix
of each row it spans: +-1 at the row's start and its opposite at the
prefix's end, summed along the row, give the crossing counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _BLOCK, PolyCurve, _chunks

MIN_DILATE = 1.5  # GridSpec.cover's dilation of the curve's box; the least index_field takes

# Every numpy pass below covers at most this many (edge, point), (edge, cell)
# or (edge, row) pairs, which bounds each temporary however long a slab is.
_CHUNK = _BLOCK // 2
# An edge whose slab holds more than this many points is walked on its own,
# in contiguous runs of the sorted points; shorter slabs are expanded together.
_PAIR_SLAB = 768


def _slab_walk(order, first, stop):
    """Blocks of (edge, point index) pairs: edge k with each index in ``order[first[k]:stop[k]]``.

    An edge whose slab holds more than ``_PAIR_SLAB`` points comes alone, as
    runs of ``order`` with the edge as a scalar; the other slabs are expanded
    together through ``_chunks``.  No block holds more than ``_CHUNK`` pairs.
    """
    count = stop - first
    live = np.flatnonzero(count)
    long = count[live] > _PAIR_SLAB
    for k in live[long]:
        for s in range(first[k], stop[k], _CHUNK):
            yield k, order[s:min(s + _CHUNK, stop[k])]
    short = live[~long]
    for owner, off in _chunks(count[short], _CHUNK):
        k = short[owner]
        yield k, order[first[k] + off]


def _segment_distance(px, py, a, d):
    """Distance from the points (px, py) to the segments from ``a`` along ``d``."""
    ax, ay, dx, dy = a.real, a.imag, d.real, d.imag
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _pad(curve: PolyCurve, cap: float) -> float:
    """Each edge box's dilation for a distance capped at ``cap``, with slack for rounding."""
    v = curve.vertices
    return cap + 1e-9 * (cap + max(np.abs(v.real).max(), np.abs(v.imag).max()))


def _grid_pairs(curve: PolyCurve, x, y, pad: float, half: float = 0.0):
    """(edge, column, row) triples in chunks: each edge with the cells that meet its padded box.

    Cell (ix, iy) is the closed square of half-side ``half`` about (x[ix], y[iy]), and the box
    is dilated by ``pad``.  The axes ascend, so the cells are a column range x a row range.
    """
    a, b = curve.starts, curve.ends
    x0 = np.searchsorted(x + half, np.minimum(a.real, b.real) - pad, "left")
    nx = np.maximum(np.searchsorted(x - half, np.maximum(a.real, b.real) + pad, "right") - x0, 0)
    y0 = np.searchsorted(y + half, np.minimum(a.imag, b.imag) - pad, "left")
    ny = np.maximum(np.searchsorted(y - half, np.maximum(a.imag, b.imag) + pad, "right") - y0, 0)
    for k, m in _chunks(nx * ny, _CHUNK):
        yield k, x0[k] + m % nx[k], y0[k] + m // nx[k]


def distance_to_curve(curve: PolyCurve, zs, cap: float) -> np.ndarray:
    """Euclidean distance from each query point to the polyline, exact up to ``cap``.

    Where the distance is at most ``cap`` the result is the exact minimum over
    the edges; elsewhere it is some value above ``cap`` (possibly ``inf``).
    With ``cap=inf`` every point is a candidate of every edge.
    """
    if not cap >= 0:
        raise ValueError("cap must be nonnegative")
    z = np.asarray(zs, dtype=complex)
    flat = z.ravel()
    zx, zy = flat.real, flat.imag
    best = np.full(flat.shape, np.inf)
    a, b, d = curve.starts, curve.ends, curve.edge_vectors
    pad = _pad(curve, cap)
    xlo, xhi = np.minimum(a.real, b.real) - pad, np.maximum(a.real, b.real) + pad
    order = np.argsort(zy)
    first = np.searchsorted(zy, np.minimum(a.imag, b.imag) - pad, "left", sorter=order)
    stop = np.searchsorted(zy, np.maximum(a.imag, b.imag) + pad, "right", sorter=order)
    for k, idx in _slab_walk(order, first, stop):
        px = zx[idx]
        inside = (px >= xlo[k]) & (px <= xhi[k])
        if np.ndim(k):  # a long slab's edge comes as a scalar
            k = k[inside]
        idx = idx[inside]
        np.minimum.at(best, idx, _segment_distance(zx[idx], zy[idx], a[k], d[k]))
    return best.reshape(z.shape)


def _left(a, b, px, py):
    """Cross product (b - a) x (p - a): positive where p is strictly left of a -> b."""
    return (b.real - a.real) * (py - a.imag) - (px - a.real) * (b.imag - a.imag)


def winding_numbers(curve: PolyCurve, zs) -> np.ndarray:
    """Exact integer winding numbers at many points; no on-curve check."""
    z = np.asarray(zs, dtype=complex)
    flat = z.ravel()
    zx, zy = flat.real, flat.imag
    wn = np.zeros(flat.shape, dtype=np.int64)
    a, b = curve.starts, curve.ends
    order = np.argsort(zy)
    first = np.searchsorted(zy, np.minimum(a.imag, b.imag), "left", sorter=order)
    stop = np.searchsorted(zy, np.maximum(a.imag, b.imag), "left", sorter=order)
    # upward edges count points strictly left of them, downward ones subtract
    # points strictly right
    for k, idx in _slab_walk(order, first, stop):
        ak, bk = a[k], b[k]
        left = _left(ak, bk, zx[idx], zy[idx])
        np.add.at(wn, idx, np.where(ak.imag < bk.imag, left > 0, (left < 0) * -1))
    return wn.reshape(z.shape)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling grid: box corners and per-axis resolution."""

    lo: complex
    hi: complex
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError("resolution must be positive")
        if self.hi.real <= self.lo.real or self.hi.imag <= self.lo.imag:
            raise ValueError("degenerate grid box")

    @classmethod
    def cover(cls, curve: PolyCurve, resolution: int) -> "GridSpec":
        """Square-cell grid on the curve's bounding box dilated ``MIN_DILATE`` times."""
        lo, hi = curve.bbox
        cx, cy = (lo.real + hi.real) / 2, (lo.imag + hi.imag) / 2
        hx = max(hi.real - lo.real, 1e-12) / 2 * MIN_DILATE
        hy = max(hi.imag - lo.imag, 1e-12) / 2 * MIN_DILATE
        h = max(hx, hy)
        return cls(complex(cx - h, cy - h), complex(cx + h, cy + h), resolution, resolution)

    @property
    def cell_w(self) -> float:
        return (self.hi.real - self.lo.real) / self.nx

    @property
    def cell_h(self) -> float:
        return (self.hi.imag - self.lo.imag) / self.ny

    @property
    def cell_area(self) -> float:
        return self.cell_w * self.cell_h

    @property
    def cell_diag(self) -> float:
        return math.hypot(self.cell_w, self.cell_h)

    def axes(self):
        """Cell-center x coordinates (length nx) and y coordinates (length ny)."""
        x = self.lo.real + (np.arange(self.nx) + 0.5) * self.cell_w
        y = self.lo.imag + (np.arange(self.ny) + 0.5) * self.cell_h
        return x, y

    def contains_dilated_bbox(self, curve: PolyCurve) -> bool:
        """Does the box contain the curve's bounding box dilated by ``MIN_DILATE``?"""
        lo, hi = curve.bbox
        cx, cy = (lo.real + hi.real) / 2, (lo.imag + hi.imag) / 2
        hx = (hi.real - lo.real) / 2 * MIN_DILATE
        hy = (hi.imag - lo.imag) / 2 * MIN_DILATE
        eps = 1e-12 * max(hx, hy, 1.0)
        return (
            self.lo.real <= cx - hx + eps
            and self.lo.imag <= cy - hy + eps
            and self.hi.real >= cx + hx - eps
            and self.hi.imag >= cy + hy - eps
        )


@dataclass
class IndexField:
    """Integer winding numbers at cell centers plus a near-curve exclusion band.

    Values are exact integers wherever the cell center is off the curve; cells
    within ``band`` of the curve are flagged so quadrature can treat them
    separately.  ``dist`` is the center's distance to the curve, exact on the
    flagged cells.
    """

    grid: GridSpec
    values: np.ndarray
    near_mask: np.ndarray
    band: float
    curve: PolyCurve
    dist: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "grid": {
                "lo": [self.grid.lo.real, self.grid.lo.imag],
                "hi": [self.grid.hi.real, self.grid.hi.imag],
                "nx": self.grid.nx,
                "ny": self.grid.ny,
            },
            "band": self.band,
            "values": self.values.tolist(),
            "near_mask": self.near_mask.astype(int).tolist(),
        }


def index_field(curve: PolyCurve, grid: GridSpec, band: float) -> IndexField:
    """Sample the winding number on the grid and flag cells within ``band`` of the curve.

    Bit for bit what one call of each kernel gives on the cell centers
    ``x[None, :] + 1j * y[:, None]`` (``x, y = grid.axes()``), the distance
    capped at ``max(band, tau_geom)``.  A row's counted prefix is
    exact because ``_left`` is a chain of correctly rounded, monotone numpy
    operations in px and x ascends; bisection on that predicate finds it.
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    if not grid.contains_dilated_bbox(curve):
        raise ValueError(f"grid box must contain the curve bounding box dilated by {MIN_DILATE}")
    cap = max(band, curve.tau_geom)
    x, y = grid.axes()
    a, b, d = curve.starts, curve.ends, curve.edge_vectors
    dist = np.full((grid.ny, grid.nx), np.inf)
    for k, ix, iy in _grid_pairs(curve, x, y, _pad(curve, cap)):
        np.minimum.at(dist.ravel(), iy * grid.nx + ix, _segment_distance(x[ix], y[iy], a[k], d[k]))
    values = np.zeros((grid.ny, grid.nx), dtype=np.int64)
    first = np.searchsorted(y, np.minimum(a.imag, b.imag), "left")
    rows = np.searchsorted(y, np.maximum(a.imag, b.imag), "left") - first
    for k, m in _chunks(rows, _CHUNK):
        ak, bk, row = a[k], b[k], first[k] + m
        up, py = ak.imag < bk.imag, y[row]
        lo, hi = np.zeros(k.size, dtype=np.intp), np.full(k.size, grid.nx)
        for _ in range(int(grid.nx).bit_length()):  # ceil(log2(nx + 1)) halvings of [lo, hi]
            mid = (lo + hi) >> 1
            left = _left(ak, bk, x[np.minimum(mid, grid.nx - 1)], py)
            counted = np.where(up, left > 0, left < 0)
            lo = np.where(counted & (mid < hi), mid + 1, lo)
            hi = np.where(counted, hi, mid)
        sign, inner = np.where(up, 1, -1), lo < grid.nx
        np.add.at(values.ravel(), row * grid.nx, sign)
        np.add.at(values.ravel(), row[inner] * grid.nx + lo[inner], -sign[inner])
    np.cumsum(values, axis=1, out=values)
    return IndexField(grid=grid, values=values, near_mask=dist <= cap, band=band, curve=curve,
                      dist=dist)

