"""Winding numbers, index fields, region masks, L2 norm."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greencurves import (GridSpec, PolyCurve, gallery_curves, index_field, make_curve,
                         winding_numbers)
from greencurves._rng import seed_stream
from greencurves import winding as winding_module
from greencurves.curves import _BLOCK, _chunks, _ragged
from greencurves.winding import distance_to_curve

from oracles import (cell_centers, distance_by_edges, index_l2, region_masks, subdivided,
                     winding_by_angles, winding_by_edges)


def test_winding_circle_center_and_exterior():
    c = make_curve("circle", n=64)
    assert winding_numbers(c, [0j, 3 + 0j]).tolist() == [1, 0]


def test_winding_bowtie_lobes():
    b = make_curve("bowtie")
    lo = -0.5j   # bottom lobe
    hi = 0.8j    # top lobe
    assert winding_numbers(b, [lo, hi]).tolist() == [1, -1]
    assert winding_by_angles(b.vertices, lo) == 1
    assert winding_by_angles(b.vertices, hi) == -1


def test_winding_invariances():
    c = make_curve("star", n=24, seed=5)
    pts = [0j, 0.2 + 0.1j, 2 + 2j]
    base = winding_numbers(c, pts)
    fine = PolyCurve(subdivided(c.vertices, 3))
    rolled = PolyCurve(np.roll(c.vertices, -7))
    rev = PolyCurve(c.vertices[::-1])
    assert np.array_equal(winding_numbers(fine, pts), base)
    assert np.array_equal(winding_numbers(rolled, pts), base)
    assert np.array_equal(winding_numbers(rev, pts), -base)


def test_edge_crossing_changes_index_by_one():
    # the jump equals the number of edge copies through the probe point, which
    # is 1 for every simple edge (k-fold circles carry k copies of each edge)
    for name, c in gallery_curves():
        a, b = c.starts, c.ends
        for k in (0, c.n // 2):
            mid = (a[k] + b[k]) / 2
            normal = 1j * (b[k] - a[k]) / abs(b[k] - a[k])
            eps = 1e-6 * c.diameter
            d = distance_to_curve(c, np.array([mid + eps * normal, mid - eps * normal]), cap=np.inf)
            if d.min() < 0.9 * eps:  # a different edge passes close by; probe is ambiguous
                continue
            copies = int(np.sum(np.abs((a + b) / 2 - mid) < c.tau_geom))
            w1 = winding_numbers(c, np.array([mid + eps * normal]))[0]
            w2 = winding_numbers(c, np.array([mid - eps * normal]))[0]
            assert abs(w1 - w2) == copies, name
            if copies == 1:
                assert abs(w1 - w2) == 1, name


def test_ray_crossing_equals_angle_sum_on_random_points():
    rng = seed_stream(42, "winding.test")
    for name, c in gallery_curves()[:4]:
        lo, hi = c.bbox
        span = hi - lo
        pts = []
        while len(pts) < 200:
            z = lo + complex(rng.uniform(-0.5, 1.5) * span.real,
                             rng.uniform(-0.5, 1.5) * span.imag)
            if distance_to_curve(c, np.array([z]), cap=np.inf)[0] > 1e-4 * c.diameter:
                pts.append(z)
        ray = winding_numbers(c, np.array(pts))
        ang = np.array([winding_by_angles(c.vertices, z) for z in pts])
        assert np.array_equal(ray, ang), name


def test_grid_cover_validation():
    c = make_curve("circle", n=32)
    small = GridSpec(lo=-1.1 - 1.1j, hi=1.1 + 1.1j, nx=64, ny=64)
    with pytest.raises(ValueError):
        index_field(c, small, 0.0)


def test_index_field_circle():
    c = make_curve("circle", n=64)
    grid = GridSpec.cover(c, 128)
    fld = index_field(c, grid, 2 * grid.cell_diag)
    centers = cell_centers(grid)
    r = np.abs(centers)
    clean = ~fld.near_mask
    assert np.all(fld.values[clean & (r < 0.9)] == 1)
    assert np.all(fld.values[clean & (r > 1.1)] == 0)


_ROWS = _BLOCK // 1024  # rows per block of a 1024-column grid


@pytest.mark.parametrize("ny", [_ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
@pytest.mark.parametrize("band_diagonals", [2.0, 0.0])  # 0: the cap tau_geom exceeds the band
def test_index_field_blocks_match_one_call(ny, band_diagonals):
    # the field runs over blocks of whole rows; each kernel called once over
    # the whole grid must give the same integers and the same distances
    c = make_curve("trefoil")
    box = GridSpec.cover(c, 1024)
    grid = GridSpec(box.lo, box.hi, 1024, ny)
    band = band_diagonals * grid.cell_diag
    fld = index_field(c, grid, band)
    z = cell_centers(grid)
    cap = max(band, c.tau_geom)
    dist = distance_to_curve(c, z, cap=cap)
    assert fld.values.shape == fld.dist.shape == (ny, 1024)
    assert np.array_equal(fld.values, winding_numbers(c, z))
    assert fld.dist.tobytes() == dist.tobytes()
    assert np.array_equal(fld.near_mask, dist <= cap)


def test_index_field_kfold_and_bowtie():
    k3 = make_curve("kfold", k=3, n=96)
    grid = GridSpec.cover(k3, 96)
    fld = index_field(k3, grid, 2 * grid.cell_diag)
    centers = cell_centers(grid)
    middle = (~fld.near_mask) & (np.abs(centers) < 0.5)
    assert np.all(fld.values[middle] == 3)

    b = make_curve("bowtie")
    fldb = index_field(b, GridSpec.cover(b, 128), 0.02)
    vals = fldb.values[~fldb.near_mask]
    assert vals.max() == 1 and vals.min() == -1


def test_region_masks():
    c = make_curve("circle", n=64)
    grid = GridSpec.cover(c, 96)
    fld = index_field(c, grid, 2 * grid.cell_diag)
    d_mask, d0_mask = region_masks(fld)
    centers = cell_centers(grid)
    assert np.all(np.abs(centers[d_mask]) < 1.0 + 2 * grid.cell_diag)
    assert not np.any(d_mask & d0_mask)
    assert np.all(d_mask | d0_mask | fld.near_mask)

    # degenerate back-and-forth curve: D is empty
    flat = PolyCurve([-1, 0.5j, 1, 0.5j])
    fld2 = index_field(flat, GridSpec.cover(flat, 64), 0.0)
    d2, _ = region_masks(fld2)
    assert not np.any(d2)
    assert index_l2(fld2) == 0.0

    # bowtie: D covers both lobes (cells of index +1 and -1)
    b = make_curve("bowtie")
    fldb = index_field(b, GridSpec.cover(b, 128), 0.02)
    db, _ = region_masks(fldb)
    assert set(np.unique(fldb.values[db])) == {-1, 1}


def test_kfold_winding_oracle():
    k3 = make_curve("kfold", k=3, n=96)
    assert winding_numbers(k3, [0j])[0] == 3
    assert winding_by_angles(k3.vertices, 0j) == 3


def test_index_l2_circle_and_kfold():
    c = make_curve("circle", n=256)
    grid = GridSpec.cover(c, 256)
    fld = index_field(c, grid, 0.0)
    assert index_l2(fld) == pytest.approx(math.sqrt(math.pi), rel=0.02)

    k2 = make_curve("kfold", k=2, n=128)
    fld2 = index_field(k2, GridSpec.cover(k2, 256), 0.0)
    assert index_l2(fld2) == pytest.approx(2 * math.sqrt(math.pi), rel=0.02)


def test_field_json_roundtrip_values():
    c = make_curve("circle", n=32)
    grid = GridSpec.cover(c, 48)
    fld = index_field(c, grid, 2 * grid.cell_diag)
    doc = fld.to_json_dict()
    assert doc["grid"]["nx"] == 48
    assert np.array_equal(np.asarray(doc["values"]), fld.values)


def test_index_field_keeps_exact_near_distances():
    c = make_curve("trefoil")
    grid = GridSpec.cover(c, 64)
    fld = index_field(c, grid, 2 * grid.cell_diag)
    want = distance_by_edges(c.vertices, cell_centers(grid))
    assert np.array_equal(fld.dist[fld.near_mask], want[fld.near_mask])
    assert np.all(fld.dist[~fld.near_mask] > fld.band)


# ---------------------------------------------------------------------------
# the slab walk: slabs up to _PAIR_SLAB points are expanded together, longer
# ones are walked edge by edge


def _zigzag(m):
    """m edges that each span y in [0, 1]: every point with 0 < y < 1 is in every slab."""
    return PolyCurve([complex(k, k % 2) for k in range(m)])


@pytest.mark.parametrize("edges", [4, 40])  # 40 edges of pairs span several chunks
@pytest.mark.parametrize("extra", [0, 1])  # at the crossover, and one point past it
def test_kernel_paths_at_the_crossover(monkeypatch, edges, extra):
    expansions = []  # pairs per expanded block
    chunks = winding_module._chunks

    def spy(count, size):
        for owner, off in chunks(count, size):
            expansions.append(owner.size)
            yield owner, off
    monkeypatch.setattr(winding_module, "_chunks", spy)
    c = _zigzag(edges)
    n = winding_module._PAIR_SLAB + extra
    rng = seed_stream(11, "winding.crossover")
    z = rng.uniform(-1, edges, n) + 1j * rng.uniform(0.001, 0.999, n)
    z[:edges] = np.arange(edges) + 0.5 + 0.5j  # edge midpoints, at distance 0
    z[edges:2 * edges] = np.arange(edges) + 0.25 + 0.5j  # a quarter step off them
    assert np.array_equal(winding_numbers(c, z), winding_by_edges(c.vertices, z))
    want = distance_by_edges(c.vertices, z)
    for cap in (np.inf, 0.05, 0.0):
        got = distance_to_curve(c, z, cap=cap)
        near = want <= cap
        assert np.array_equal(got[near], want[near]) and np.all(got[~near] > cap)
    assert bool(expansions) == (extra == 0)
    if edges * n > winding_module._CHUNK and not extra:
        assert len(expansions) > 1 and max(expansions) <= winding_module._CHUNK


def test_slab_walk_mixes_long_and_short_slabs():
    # tall teeth span y in [0, 1] and hold every point; low teeth span [0, 0.02]
    # and hold a few, so one call walks some edges alone and expands the rest
    heights = [1.0, 0.02, 0.02, 1.0, 0.02, 1.0, 0.02, 0.02]
    c = PolyCurve([complex(k, heights[k // 2] if k % 2 else 0) for k in range(2 * len(heights))])
    n = 4 * winding_module._PAIR_SLAB
    rng = seed_stream(12, "winding.slab_walk")
    z = rng.uniform(-1, 2 * len(heights) + 1, n) + 1j * rng.uniform(0.001, 0.999, n)
    z[:c.n] = (c.starts + c.ends) / 2  # edge midpoints, at distance 0
    ylo, yhi = np.minimum(c.starts.imag, c.ends.imag), np.maximum(c.starts.imag, c.ends.imag)
    slab = ((z.imag >= ylo[:, None]) & (z.imag < yhi[:, None])).sum(1)
    assert slab.max() > winding_module._PAIR_SLAB >= slab[slab > 0].min()
    assert np.array_equal(winding_numbers(c, z), winding_by_edges(c.vertices, z))
    want = distance_by_edges(c.vertices, z)
    for cap in (np.inf, 0.05, 0.0):
        got = distance_to_curve(c, z, cap=cap)
        near = want <= cap
        assert got[near].tobytes() == want[near].tobytes() and np.all(got[~near] > cap)


@pytest.mark.parametrize("count", [[3, 0, 5, 0, 0, 2, 4], [0, 0, 6, 0], [0, 0], []])
def test_chunks_match_one_expansion(count):
    count = np.array(count, dtype=np.intp)
    owner, off = _ragged(count)
    ends = np.cumsum(count)
    boundaries = [int(e) for e in ends[ends > 0]] or [1]  # range ends, the last one included
    for size in sorted({b + s for b in boundaries for s in (-1, 0, 1)} - {0}):
        blocks = list(_chunks(count, size))
        assert all(0 < k.size <= size for k, _ in blocks)
        assert len(blocks) == -(-owner.size // size)
        empty = [np.empty(0, np.intp)]
        assert np.array_equal(np.concatenate(empty + [k for k, _ in blocks]), owner)
        assert np.array_equal(np.concatenate(empty + [m for _, m in blocks]), off)


def test_kernel_paths_on_empty_and_single_points():
    c = _zigzag(6)
    empty = np.empty(0, dtype=complex)
    assert np.array_equal(winding_numbers(c, empty), winding_by_edges(c.vertices, empty))
    for cap in (np.inf, 0.05, 0.0):
        assert distance_to_curve(c, empty, cap=cap).shape == (0,)
    z = np.array([2.5 + 0.5j, 0.5 + 0.25j, 7 + 3j, 3 + 1j])  # on an edge, off it, far, vertex
    assert np.array_equal(winding_numbers(c, z), winding_by_edges(c.vertices, z))
    for p in z:
        assert np.array_equal(winding_numbers(c, [p]), winding_by_edges(c.vertices, [p]))
        assert np.array_equal(distance_to_curve(c, [p], cap=np.inf),
                              distance_by_edges(c.vertices, [p]))
    # one point against more edges than one chunk holds
    big = make_curve("circle", n=winding_module._CHUNK + 100)
    p = np.array([0.3 + 0.2j])
    assert np.array_equal(distance_to_curve(big, p, cap=np.inf), distance_by_edges(big.vertices, p))


# ---------------------------------------------------------------------------
# the grid field against one call of each kernel over the cell centers


def _assert_field_matches_kernels(curve, grid, band):
    fld = index_field(curve, grid, band)
    z = cell_centers(grid)
    cap = max(band, curve.tau_geom)
    dist = distance_to_curve(curve, z, cap=cap)
    assert np.array_equal(fld.values, winding_numbers(curve, z))
    assert np.array_equal(fld.values, winding_by_edges(curve.vertices, z))
    assert fld.dist.tobytes() == dist.tobytes()
    assert np.array_equal(fld.near_mask, dist <= cap)


@st.composite
def _grid_and_polygon(draw):
    """A grid about [-1, 1]^2 and a polygon inside [-0.6, 0.6]^2 whose vertices
    mostly sit on cell-center columns and rows, so edges run along rows and
    columns and through centers."""
    nx, ny = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    hi = complex(draw(st.sampled_from([1.0, 1.25])), draw(st.sampled_from([1.0, 1.5])))
    grid = GridSpec(-1 - 1j, hi, nx, ny)
    x, y = grid.axes()
    xs = [v for v in x if abs(v) <= 0.6] + [-0.6, -0.21, 0.0, 0.37, 0.6]
    ys = [v for v in y if abs(v) <= 0.6] + [-0.6, -0.13, 0.0, 0.29, 0.6]
    pts = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), min_size=3, max_size=9))
    v = np.array([complex(a, b) for a, b in pts])
    assume(np.all(np.roll(v, -1) != v))
    band = draw(st.sampled_from([0.0, grid.cell_diag, 5.0]))  # 5: wider than the curve
    return PolyCurve(v), grid, band


@settings(max_examples=150, deadline=None)
@given(case=_grid_and_polygon())
def test_property_grid_field_matches_kernels(case):
    _assert_field_matches_kernels(*case)


def test_grid_field_on_single_rows_and_columns():
    square = PolyCurve([-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j])
    through = PolyCurve([-0.5 + 0j, 0.5 + 0j, 0.5 + 0.5j, 0.0 - 0.4j])  # on the middle row and column
    for curve in (square, through, PolyCurve(0.3 * make_curve("trefoil", n=30).vertices)):
        for nx, ny in ((1, 1), (1, 9), (9, 1), (3, 7), (8, 5)):
            grid = GridSpec(-1 - 1j, 1 + 1j, nx, ny)
            for band in (0.0, grid.cell_diag, 5.0):
                _assert_field_matches_kernels(curve, grid, band)


@pytest.mark.parametrize("band", [0.0, 5.0])  # 5: every cell is a candidate of every edge
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_index_field_pair_totals_at_chunk_multiples(monkeypatch, shift, band):
    # the chunk size is set so that each pair total, (edge, cell) for
    # distances and (edge, row) for windings, is one or two whole chunks plus shift
    curve = PolyCurve(0.6 * make_curve("star", n=7, seed=2).vertices)
    grid = GridSpec(-1 - 1j, 1 + 1j, 11, 41)
    x, y = grid.axes()
    a, b = curve.starts, curve.ends
    pad = winding_module._pad(curve, max(band, curve.tau_geom))

    def in_box(axis, u, v):  # per edge, the axis values within its padded extent
        return ((axis >= np.minimum(u, v)[:, None] - pad) & (axis <= np.maximum(u, v)[:, None] + pad)).sum(1)

    cells = in_box(x, a.real, b.real) * in_box(y, a.imag, b.imag)
    rows = np.searchsorted(y, np.maximum(a.imag, b.imag)) - np.searchsorted(y, np.minimum(a.imag, b.imag))
    for total in (int(cells.sum()), int(rows.sum())):
        for chunks in (1, 2):
            if (total - shift) % chunks == 0:
                monkeypatch.setattr(winding_module, "_CHUNK", (total - shift) // chunks)
                _assert_field_matches_kernels(curve, grid, band)
