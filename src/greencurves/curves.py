"""Closed oriented polylines: gallery, self-intersection detection, Jordan decomposition.

Curves are closed polylines over complex vertices; edge i runs from
``vertices[i]`` to ``vertices[(i+1) % n]``.  A curve may self-intersect and may
revisit vertices (a circle traversed k times is a valid curve).  Decomposing a
curve into simple loops splits every edge at the intersection points and peels
a loop off a stack each time the walk revisits a split vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import seed_stream
from .errors import DegenerateOverlap, UnknownFamily


# Elements per temporary of a blocked elementwise pass.  The clean-cell sum,
# each refinement level, the dyadic-square generations, the bump-activity
# probe and the polar patch run in blocks of about this many values, and the
# curve kernels' (edge, candidate) pairs in half of it, so their temporaries
# stay the same size however fine the grid, however deep the square, however
# many the bumps or inside points.
_BLOCK = 1 << 15


class PolyCurve:
    """Closed oriented polyline approximating a rectifiable curve.

    Vertices must be finite, at least three, with no zero-length edge.
    Orientation is implied by vertex order; reversing the vertices flips it.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex).ravel()
        if v.size < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if np.any(np.abs(np.roll(v, -1) - v) == 0.0):
            raise ValueError("zero-length edge")
        self.vertices = v
        self.vertices.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vertices.size

    @property
    def starts(self) -> np.ndarray:
        return self.vertices

    @property
    def ends(self) -> np.ndarray:
        return np.roll(self.vertices, -1)

    @property
    def edge_vectors(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def edge_lengths(self) -> np.ndarray:
        return np.abs(self.edge_vectors)

    @property
    def bbox(self):
        """Axis-aligned bounding box as (lo, hi) complex corners."""
        v = self.vertices
        return (
            complex(v.real.min(), v.imag.min()),
            complex(v.real.max(), v.imag.max()),
        )

    @property
    def diameter(self) -> float:
        """Bounding-box diagonal; stand-in for the true diameter (within sqrt(2))."""
        lo, hi = self.bbox
        return abs(hi - lo)

    @property
    def tau_geom(self) -> float:
        """Geometric tolerance: intersection events closer than this are merged."""
        return 1e-12 * self.diameter

    def __repr__(self):
        return f"PolyCurve(n={self.n}, length={length(self):.6g})"


def length(curve: PolyCurve) -> float:
    """Total Euclidean length of the closed polyline."""
    return float(curve.edge_lengths.sum())


@dataclass(frozen=True)
class IntersectionEvent:
    """A point where edges i and j of the curve meet.

    ``t_i`` and ``t_j`` are parameters in [0, 1] along the respective edges.
    Transversal mid-edge crossings and coincidences at shared endpoints of
    non-adjacent edges are both reported.
    """

    i: int
    j: int
    point: complex
    t_i: float
    t_j: float


@dataclass
class JordanDecomposition:
    """Simple loops carrying the original curve's dz-measure.

    The loop lengths sum to at most the original length; ``gap`` reports the
    difference, which is positive exactly when the curve retraces segments
    (those cancel and are dropped).
    """

    loops: list
    gap: float


def _cross(o, a):  # 2D cross product of complex numbers
    return o.real * a.imag - o.imag * a.real


def _ragged(count, lo: int = 0, hi: int = None):
    """Owner and offset of each flat position of back-to-back ranges.

    Range r holds ``count[r]`` consecutive positions; empty ranges hold none.
    Returns, for every position in order, the range that holds it and its
    offset from that range's start.  With ``hi`` given, only the positions
    lo..hi-1 are expanded.
    """
    start = np.cumsum(count) - count
    if hi is not None:
        count = np.maximum(np.minimum(start + count, hi) - np.maximum(start, lo), 0)
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(lo, lo + owner.size) - np.repeat(start, count)


def _chunks(count, size: int):
    """``_ragged(count)`` in blocks of at most ``size`` positions, in order.

    Each block expands only the ranges that meet it, found by binary search
    on the cumulative ends, so a block costs O(size + ranges it meets).
    """
    end = np.cumsum(count)
    for lo in range(0, int(end[-1]) if end.size else 0, size):
        r0, r1 = np.searchsorted(end, [lo, lo + size], "right")
        base = lo - end[r0] + count[r0]  # lo's offset into range r0
        owner, off = _ragged(count[r0:r1 + 1], base, base + size)
        owner += r0
        yield owner, off


def _candidate_pairs(curve: PolyCurve, pad: np.ndarray):
    """Non-adjacent edge pairs (i, j), i < j, whose boxes dilated by ``pad`` overlap.

    A sweep over the boxes sorted by left side: each box meets, in x, the
    boxes whose left side lies in its x-range; those are kept if they also
    meet in y.  Pairs come back in lexicographic (i, j) order.
    """
    n = curve.n
    a, b = curve.starts, curve.ends
    xlo, xhi = np.minimum(a.real, b.real) - pad, np.maximum(a.real, b.real) + pad
    ylo, yhi = np.minimum(a.imag, b.imag) - pad, np.maximum(a.imag, b.imag) + pad
    order = np.argsort(xlo, kind="stable")
    first = np.arange(1, n + 1)
    count = np.maximum(np.searchsorted(xlo[order], xhi[order], "right") - first, 0)
    p, q = _ragged(count)
    q += first[p]
    i, j = order[p], order[q]
    i, j = np.minimum(i, j), np.maximum(i, j)
    keep = (ylo[i] <= yhi[j]) & (ylo[j] <= yhi[i]) & (j - i > 1) & ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    k = np.lexsort((j, i))
    return i[k].tolist(), j[k].tolist()


def self_intersections(curve: PolyCurve) -> list:
    """All pairwise meeting points of non-adjacent edges, in (i, j) order.

    Exactly repeated edges (a segment traversed more than once, forward or
    backward) are not an error: the walk structure already records them via
    their shared endpoints.  A positive-length partial overlap of two
    collinear edges raises DegenerateOverlap.

    Only edges whose bounding boxes come close are solved.  The solve accepts
    nearly parallel pairs (angle sine down to 1e-14), where rounding moves t
    and u by a few percent of |w|/|d|; such a pair is then reported for edges
    up to about 0.1 (|d_i| + |d_j|) apart.  Dilating each box by a quarter of
    its edge length plus 2 tau keeps every pair the solve could report.
    """
    a = curve.starts
    d = curve.edge_vectors
    tau = curve.tau_geom

    events = []  # at most one per pair, so (i, j) order is the sorted order
    for i, j in zip(*_candidate_pairs(curve, np.abs(d) / 4 + 2 * tau)):
        ai, di = a[i], d[i]
        aj, dj = a[j], d[j]
        denom = _cross(di, dj)
        w = aj - ai
        li, lj = abs(di), abs(dj)
        if abs(denom) <= 1e-14 * li * lj:
            # parallel; collinear iff the offset has no normal component
            if abs(_cross(w, di)) > tau * li:
                continue
            t0 = (w.real * di.real + w.imag * di.imag) / (li * li)
            t1 = ((w + dj).real * di.real + (w + dj).imag * di.imag) / (li * li)
            lo, hi = min(t0, t1), max(t0, t1)
            ov_lo, ov_hi = max(0.0, lo), min(1.0, hi)
            overlap = (ov_hi - ov_lo) * li
            if overlap <= tau:
                continue  # touch at a single point; endpoint events cover it
            same_fwd = abs(ai - aj) <= tau and abs(di - dj) <= tau
            same_bwd = abs(ai - (aj + dj)) <= tau and abs(di + dj) <= tau
            if same_fwd or same_bwd:
                # identical edge traversed again; handled via repeated vertices
                continue
            raise DegenerateOverlap(
                f"edges {i} and {j} overlap in a segment of length {overlap:.3g}"
            )
        t = _cross(w, dj) / denom
        u = _cross(w, di) / denom
        slack_i = tau / li
        slack_j = tau / lj
        if -slack_i <= t <= 1 + slack_i and -slack_j <= u <= 1 + slack_j:
            t = min(max(t, 0.0), 1.0)
            u = min(max(u, 0.0), 1.0)
            p = ai + t * di
            events.append(IntersectionEvent(i, j, complex(p), float(t), float(u)))
    return events


def is_jordan(curve: PolyCurve) -> bool:
    """True iff the curve is simple (no self-intersections)."""
    return len(self_intersections(curve)) == 0


def _cluster_points(points, tau):
    """Greedy spatial clustering; returns (labels, canonical points).

    A point joins the first cluster whose canonical point q has abs(p - q) <= tau.
    The q sit in cells of side 2 tau keyed by Python ints, and a point looks in
    its 3x3 cells: a gap of tau, rounding included, crosses one cell border at most.
    """
    labels = np.full(len(points), -1, dtype=int)
    canon = []
    cells = {}
    side = 2 * tau
    for k, p in enumerate(points):
        cx, cy = math.floor(p.real / side), math.floor(p.imag / side)
        near = [cid for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)
                for cid in cells.get((i, j), ()) if abs(p - canon[cid]) <= tau]
        if near:
            labels[k] = min(near)
        else:
            labels[k] = len(canon)
            cells.setdefault((cx, cy), []).append(len(canon))
            canon.append(p)
    return labels, canon


def jordan_decompose(curve: PolyCurve) -> JordanDecomposition:
    """Split the curve into simple loops by stack-based loop peeling.

    Every edge is split at the intersection points; walking the curve, a loop
    is popped whenever a split vertex is revisited.  Loops inherit the
    traversal orientation, so for any continuous g the contour integrals of
    the loops sum to the integral over the original curve.  Degenerate
    two-point loops (back-and-forth retracing) carry no dz-measure and are
    dropped; their length shows up in ``gap``.
    """
    events = self_intersections(curve)
    v = curve.vertices
    n = curve.n
    tau = max(curve.tau_geom, 1e-300)

    # one spatial identity for every walk node: original vertices plus event points
    raw = list(v) + [e.point for e in events]
    labels, canon = _cluster_points(raw, tau)
    vert_label = labels[:n]

    splits = {i: [] for i in range(n)}
    for k, e in enumerate(events):
        cid = labels[n + k]
        splits[e.i].append((e.t_i, cid))
        splits[e.j].append((e.t_j, cid))

    walk = []  # (cluster id, canonical point)
    for i in range(n):
        lv = vert_label[i]
        walk.append((lv, canon[lv]))
        end_label = vert_label[(i + 1) % n]
        for t, cid in sorted(splits[i]):
            if cid == lv or cid == end_label:
                continue  # endpoint coincidence, not an interior split
            if walk[-1][0] != cid:
                walk.append((cid, canon[cid]))

    loops = []
    stack = [walk[0]]
    pos = {walk[0][0]: 0}
    for node in walk[1:] + [walk[0]]:
        cid = node[0]
        if cid in pos:
            k = pos[cid]
            tail = stack[k + 1:]
            pts = [stack[k][1]] + [nd[1] for nd in tail]
            if len(pts) >= 3:
                loops.append(PolyCurve(pts))
            for nd in tail:
                del pos[nd[0]]
            del stack[k + 1:]
        else:
            pos[cid] = len(stack)
            stack.append(node)

    total = sum(length(lp) for lp in loops)
    return JordanDecomposition(loops=loops, gap=length(curve) - total)


# ---------------------------------------------------------------------------
# curve gallery


def _circle(n=64, radius=1.0, center=0j):
    return _kfold(1, n, radius, center)


def _bowtie(scale=1.0):
    # asymmetric on purpose: the two lobes have signed areas +4/3 and -1/3,
    # so index-weighted integrals are well away from zero
    pts = np.array([-1 - 1j, 1 - 1j, -0.5 + 1j, 0.5 + 1j]) * scale
    return PolyCurve(pts)


def _kfold(k=2, n=64, radius=1.0, center=0j):
    th = 2 * np.pi * k * np.arange(n) / n
    return PolyCurve(complex(center) + radius * np.exp(1j * th))


def _spiral(turns=2, r0=0.3, r1=1.0, n=128):
    i = np.arange(n)
    th = 2 * np.pi * turns * i / (n - 1)
    r = r0 + (r1 - r0) * i / (n - 1)
    return PolyCurve(r * np.exp(1j * th))


def _star(n=24, seed=0, r_min=0.5, r_max=1.0, center=0j):
    rng = seed_stream(seed, "curve.star")
    th = 2 * np.pi * np.arange(n) / n
    r = rng.uniform(r_min, r_max, size=n)
    return PolyCurve(complex(center) + r * np.exp(1j * th))


def _trefoil(c=0.7, n=120):
    t = 2 * np.pi * np.arange(n) / n
    return PolyCurve(np.exp(1j * t) + c * np.exp(-2j * t))


_FAMILIES = {
    "circle": (_circle, "circle(n=64, radius=1.0, center=0): regular n-gon, counterclockwise"),
    "bowtie": (_bowtie, "bowtie(scale=1.0): figure-eight quadrilateral, one crossing, lobes of opposite index"),
    "kfold": (_kfold, "kfold(k=2, n=64, radius=1.0, center=0): circle traversed k times; index k at the center"),
    "spiral": (_spiral, "spiral(turns=2, r0=0.3, r1=1.0, n=128): Archimedean spiral closed by a radial return chord"),
    "star": (_star, "star(n=24, seed=0, r_min=0.5, r_max=1.0, center=0): random radii star polygon, always simple"),
    "trefoil": (_trefoil, "trefoil(c=0.7, n=120): three-lobed curve exp(it)+c*exp(-2it) with 3 crossings"),
}


def make_curve(family: str, **params) -> PolyCurve:
    """Build a gallery curve; deterministic for fixed parameters and seed."""
    try:
        builder, _ = _FAMILIES[family]
    except KeyError:
        raise UnknownFamily(f"unknown curve family {family!r}; see curve_families()") from None
    curve = builder(**params)
    if _collinear(curve):
        raise ValueError(f"curve {family!r} is collinear: every vertex lies on one line")
    return curve


def _collinear(curve: PolyCurve) -> bool:
    """Whether every vertex lies within tau_geom of one line, so the curve encloses nothing.

    The line runs through the first vertex and the vertex farthest from it.
    """
    d = curve.vertices - curve.vertices[0]
    far = d[np.argmax(np.abs(d))]
    return bool(np.all(np.abs(_cross(far, d)) <= curve.tau_geom * abs(far)))


def curve_families() -> dict:
    """Mapping family name -> one-line parameter documentation."""
    return {name: doc for name, (_, doc) in _FAMILIES.items()}


def gallery_curves() -> list:
    """The ten standard test curves used across the verification suite."""
    return [
        ("circle64", make_curve("circle", n=64)),
        ("circle256", make_curve("circle", n=256)),
        ("bowtie", make_curve("bowtie")),
        ("kfold2", make_curve("kfold", k=2, n=64)),
        ("kfold3", make_curve("kfold", k=3, n=96)),
        ("spiral", make_curve("spiral", turns=2, n=128)),
        ("star1", make_curve("star", n=24, seed=1)),
        ("star2", make_curve("star", n=24, seed=2)),
        ("star3", make_curve("star", n=40, seed=3)),
        ("trefoil", make_curve("trefoil", c=0.7, n=120)),
    ]
