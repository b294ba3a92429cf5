"""Winding numbers of polylines and index fields sampled on grids.

The index is computed by a signed horizontal ray-crossing count with the
half-open vertex rule (an edge counts when it spans the ray's level in
[y, y+)), which never double-counts vertices (Hormann & Agathos, "The point
in polygon problem for arbitrary polygons", 2001).  For a point off the curve
the result is the exact integer (1/2πi) ∮ dw/(w−z).

Both kernels are output-sensitive: each edge is evaluated only at its
candidate points, found by binary search in the query points sorted by y.
For the crossing count these are the points in the edge's half-open y-range;
for the distance, the points in its bounding box dilated by ``cap``.  The cost
is O(sum of candidate-slab sizes) instead of O(edges x points).  Each
candidate pair uses exactly the arithmetic of the every-edge loop, so results
are bit-identical to it: the same integers, and the same floats wherever the
distance is at most ``cap``.

The slabs are walked in one of two ways.  When they hold at most
``_PAIR_SLAB`` (512) points per live edge on average, as for a few query
points or a thin band of them, every (edge, point) pair is expanded into flat
arrays and evaluated at once, in chunks of ``_CHUNK`` pairs, and reduced with
``np.minimum.at`` / ``np.add.at``; a minimum and an integer sum do not depend
on the order of their terms, so the bits are those of the edge loop.  Longer
slabs, as on a full grid, are evaluated edge by edge, where the per-edge
Python overhead is small against the slab.  The crossover was measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _BLOCK, PolyCurve, _ragged
from .errors import OnCurve


# Every numpy pass below covers at most this many points or (edge, point)
# pairs, which bounds the size of each temporary however long a slab is.
_CHUNK = 1 << 14
# Slabs averaging at most this many points per live edge are expanded into one
# list of (edge, point) pairs; longer ones are evaluated edge by edge.
_PAIR_SLAB = 512


def _slab_pairs(order, first, stop):
    """The live edges, and their slabs as chunks of (edge, point) pairs when the slabs are short.

    The chunks are ``None`` when the slabs average more than ``_PAIR_SLAB``
    points per live edge; the caller then walks the slabs of the live edges
    one edge at a time.  The path is chosen once per call.
    """
    live = np.flatnonzero(stop > first)
    count = stop[live] - first[live]
    total = int(count.sum())
    if total > _PAIR_SLAB * live.size:
        return live, None

    def chunks():
        for lo in range(0, total, _CHUNK):
            if total == live.size:  # one point per slab, as for a single query point
                k = live[lo:lo + _CHUNK]
                yield k, order[first[k]]
            else:
                owner, off = _ragged(count, lo, lo + _CHUNK) if total > _CHUNK else _ragged(count)
                k = live[owner]
                yield k, order[first[k] + off]
    return live, chunks()


def _segment_distance(px, py, a, d):
    """Distance from the points (px, py) to the segments from ``a`` along ``d``."""
    ax, ay, dx, dy = a.real, a.imag, d.real, d.imag
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def distance_to_curve(curve: PolyCurve, zs, cap: float = np.inf) -> np.ndarray:
    """Euclidean distance from each query point to the polyline, exact up to ``cap``.

    Where the distance is at most ``cap`` the result is the exact minimum over
    the edges; elsewhere it is some value above ``cap`` (possibly ``inf``).
    With the default ``cap=inf`` every point is a candidate of every edge.
    """
    if not cap >= 0:
        raise ValueError("cap must be nonnegative")
    z = np.asarray(zs, dtype=complex)
    flat = z.ravel()
    zx, zy = flat.real, flat.imag
    best = np.full(flat.shape, np.inf)
    a, b, d = curve.starts, curve.ends, curve.edge_vectors
    # relative slack over cap and the coordinates absorbs the rounding of
    # the projected point, so the minimising edge is always a candidate
    v = curve.vertices
    pad = cap + 1e-9 * (cap + max(np.abs(v.real).max(), np.abs(v.imag).max()))
    xlo, xhi = np.minimum(a.real, b.real) - pad, np.maximum(a.real, b.real) + pad
    order = np.argsort(zy)
    first = np.searchsorted(zy, np.minimum(a.imag, b.imag) - pad, "left", sorter=order)
    stop = np.searchsorted(zy, np.maximum(a.imag, b.imag) + pad, "right", sorter=order)
    live, chunks = _slab_pairs(order, first, stop)
    if chunks is None:
        for k in live:
            for s in range(first[k], stop[k], _CHUNK):
                idx = order[s:min(s + _CHUNK, stop[k])]
                px = zx[idx]
                idx = idx[(px >= xlo[k]) & (px <= xhi[k])]
                best[idx] = np.minimum(best[idx], _segment_distance(zx[idx], zy[idx], a[k], d[k]))
    else:
        for k, idx in chunks:
            px = zx[idx]
            inside = (px >= xlo[k]) & (px <= xhi[k])
            k, idx = k[inside], idx[inside]
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
    live, chunks = _slab_pairs(order, first, stop)
    if chunks is None:
        for k in live:
            ak, bk = a[k], b[k]
            for s in range(first[k], stop[k], _CHUNK):
                idx = order[s:min(s + _CHUNK, stop[k])]
                left = _left(ak, bk, zx[idx], zy[idx])
                if ak.imag < bk.imag:
                    wn[idx] += left > 0
                else:
                    wn[idx] -= left < 0
    else:
        for k, idx in chunks:
            ak, bk = a[k], b[k]
            left = _left(ak, bk, zx[idx], zy[idx])
            np.add.at(wn, idx, np.where(ak.imag < bk.imag, left > 0, (left < 0) * -1))
    return wn.reshape(z.shape)


def winding_number(curve: PolyCurve, z: complex) -> int:
    """Winding number of the curve about a single point.

    Raises OnCurve when the point is within the geometric tolerance of the
    curve, where the index is undefined.
    """
    d = distance_to_curve(curve, np.array([z]), cap=curve.tau_geom)[0]
    if d <= curve.tau_geom:
        raise OnCurve(f"point {z} is within {d:.3g} of the curve")
    return int(winding_numbers(curve, np.array([z]))[0])


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
    def cover(cls, curve: PolyCurve, resolution: int, dilate: float = 1.5) -> "GridSpec":
        """Square-cell grid whose box is the curve bounding box dilated about its center."""
        if dilate < 1.5:
            raise ValueError("grid box must dilate the curve bounding box by at least 1.5")
        lo, hi = curve.bbox
        cx, cy = (lo.real + hi.real) / 2, (lo.imag + hi.imag) / 2
        hx = max(hi.real - lo.real, 1e-12) / 2 * dilate
        hy = max(hi.imag - lo.imag, 1e-12) / 2 * dilate
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

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (ny, nx), row-major from the lower-left."""
        x, y = self.axes()
        return x[None, :] + 1j * y[:, None]

    def row_blocks(self):
        """Yield (rows, centers) over blocks of whole rows, about ``_BLOCK`` centers each.

        ``rows`` is the block's slice of the (ny, nx) grid and ``centers`` its
        cell centers, the values ``centers()[rows]`` holds.
        """
        x, y = self.axes()
        step = max(_BLOCK // self.nx, 1)
        for r0 in range(0, self.ny, step):
            yield slice(r0, r0 + step), x[None, :] + 1j * y[r0:r0 + step, None]

    def contains_dilated_bbox(self, curve: PolyCurve, dilate: float = 1.5) -> bool:
        lo, hi = curve.bbox
        cx, cy = (lo.real + hi.real) / 2, (lo.imag + hi.imag) / 2
        hx = (hi.real - lo.real) / 2 * dilate
        hy = (hi.imag - lo.imag) / 2 * dilate
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
    flagged cells (None when unknown).
    """

    grid: GridSpec
    values: np.ndarray
    near_mask: np.ndarray
    band: float
    curve: PolyCurve
    dist: np.ndarray = None

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

    The grid is walked in ``GridSpec.row_blocks``.  Both kernels are exact per point whatever other points share the call, so
    the field is the one a single call over the whole grid gives.
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    if not grid.contains_dilated_bbox(curve):
        raise ValueError("grid box must contain the curve bounding box dilated by 1.5")
    cap = max(band, curve.tau_geom)
    values = np.empty((grid.ny, grid.nx), dtype=np.int64)
    dist = np.empty((grid.ny, grid.nx))
    for rows, c in grid.row_blocks():
        values[rows] = winding_numbers(curve, c)
        dist[rows] = distance_to_curve(curve, c, cap=cap)
    return IndexField(grid=grid, values=values, near_mask=dist <= cap, band=band, curve=curve,
                      dist=dist)


def region_masks(field: IndexField):
    """Partition of the clean (non-near) cells into D (index != 0) and D0 (index == 0)."""
    clean = ~field.near_mask
    d_mask = clean & (field.values != 0)
    d0_mask = clean & (field.values == 0)
    return d_mask, d0_mask


def index_l2(field: IndexField) -> float:
    """L2 norm of the sampled index over the clean cells: (sum v^2 * cell area)^(1/2)."""
    clean = ~field.near_mask
    s = float((field.values[clean].astype(float) ** 2).sum()) * field.grid.cell_area
    return math.sqrt(s)
