"""Output-sensitive kernels against the every-edge and two-sided oracles.

Winding and distance, self-intersections and the dyadic-square test touch
only candidate pairs; the bump profile evaluates only its live branch; the
contour panels of all edges come from one pass.  Each
must reproduce its oracle bit for bit.  The oracles themselves import only an
allowlist of library names, and the library only the standard library and numpy.
"""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greencurves import GridSpec, PolyCurve, gallery_curves, make_curve, self_intersections
from greencurves._rng import seed_stream
from greencurves.errors import DegenerateOverlap
from greencurves.integration import _panels, _segments_meet_square, gauss_legendre_01
from greencurves.vitushkin import PieceSet, _dbar_phi, _fold, _slope, _tensor_rule, _value
from greencurves.winding import distance_to_curve, winding_numbers

from oracles import (cell_centers, dbar_phi_two_sided, distance_by_edges, intersections_by_pairs,
                     panel_nodes, profile_d_two_sided, profile_two_sided, squares_by_edges,
                     winding_by_angles, winding_by_edges)


def _assert_distance_matches(curve, z, cap):
    """Bitwise equal to the oracle where it is <= cap, above cap elsewhere."""
    want = distance_by_edges(curve.vertices, z)
    got = distance_to_curve(curve, z, cap=cap)
    assert got.shape == want.shape
    near = want <= cap
    assert np.array_equal(got[near], want[near])
    assert np.all(got[~near] > cap)


def _caps(curve, grid):
    return (np.inf, 2 * grid.cell_diag, curve.tau_geom, 0.0, 0.1 * curve.diameter)


@pytest.mark.parametrize("name,curve", gallery_curves(), ids=[n for n, _ in gallery_curves()])
def test_kernels_match_oracles_on_grid_centers(name, curve):
    grid = GridSpec.cover(curve, 96)
    z = cell_centers(grid)
    wn = winding_numbers(curve, z)
    assert wn.shape == z.shape
    assert np.array_equal(wn, winding_by_edges(curve.vertices, z))
    for cap in _caps(curve, grid):
        _assert_distance_matches(curve, z, cap)


@pytest.mark.parametrize("name,curve", gallery_curves(), ids=[n for n, _ in gallery_curves()])
def test_kernels_match_oracles_on_random_points(name, curve):
    rng = seed_stream(7, "kernels.random." + name)
    lo, hi = curve.bbox
    span = hi - lo
    z = lo + (rng.uniform(-0.5, 1.5, 3000) * span.real + 1j * rng.uniform(-0.5, 1.5, 3000) * span.imag)
    assert np.array_equal(winding_numbers(curve, z), winding_by_edges(curve.vertices, z))
    for cap in _caps(curve, GridSpec.cover(curve, 96)):
        _assert_distance_matches(curve, z, cap)


def test_half_open_rule_at_vertex_levels():
    # points exactly on each vertex's y-level, left and right of the curve and
    # at the vertex itself: the half-open slab decides which edge counts
    for c in (make_curve("star", n=24, seed=5), make_curve("bowtie"), make_curve("kfold", k=3, n=12)):
        v = c.vertices
        z = np.concatenate([v - 3.0, v - 1e-9, v, v + 1e-9, v + 3.0, v.real.mean() + 1j * v.imag])
        assert np.array_equal(winding_numbers(c, z), winding_by_edges(v, z))
        off = distance_by_edges(v, z) > 1e-4 * c.diameter
        ang = np.array([winding_by_angles(v, p) for p in z[off]])
        assert np.array_equal(winding_numbers(c, z[off]), ang)


def test_horizontal_edges():
    # a rectangle with a notch: four of its eight edges are horizontal
    c = PolyCurve([0, 4, 4 + 2j, 3 + 2j, 3 + 1j, 1 + 1j, 1 + 2j, 2j])
    xs = np.linspace(-1, 5, 25)
    ys = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    z = xs[None, :] + 1j * ys[:, None]
    assert np.array_equal(winding_numbers(c, z), winding_by_edges(c.vertices, z))
    assert winding_numbers(c, np.array([0.5 + 1.5j]))[0] == 1
    assert winding_numbers(c, np.array([2 + 1.5j]))[0] == 0
    for cap in (np.inf, 0.5, 0.25, 0.0):
        _assert_distance_matches(c, z, cap)


def test_distance_exactly_at_cap():
    c = PolyCurve([0, 1, 1 + 1j, 1j])
    z = np.array([0.5 - 0.5j, 1.5 + 0.5j, 0.5 + 1.5j, -0.5 + 0.5j, 1.5 + 1.5j, 0.5 + 0.5j])
    d = distance_to_curve(c, z, cap=0.5)
    assert np.array_equal(d[:4], [0.5, 0.5, 0.5, 0.5])
    assert d[4] > 0.5  # corner distance sqrt(0.5)
    assert d[5] == 0.5  # center, 0.5 from every side
    _assert_distance_matches(c, z, 0.5)
    # a cap just below the distance returns something above the cap
    assert np.all(distance_to_curve(c, z[:4], cap=math.nextafter(0.5, 0)) > math.nextafter(0.5, 0))


def test_empty_and_single_point_inputs():
    c = make_curve("circle", n=64)
    empty = np.empty((0,), dtype=complex)
    assert winding_numbers(c, empty).shape == (0,)
    assert distance_to_curve(c, empty, cap=np.inf).shape == (0,)
    assert distance_to_curve(c, empty, cap=0.1).shape == (0,)
    assert winding_numbers(c, np.empty((3, 0), dtype=complex)).shape == (3, 0)
    one = np.array([0.2 + 0.1j])
    assert winding_numbers(c, one).tolist() == [1]
    assert np.array_equal(distance_to_curve(c, one, cap=np.inf), distance_by_edges(c.vertices, one))
    assert np.array_equal(distance_to_curve(c, one, cap=1.0), distance_by_edges(c.vertices, one))
    assert distance_to_curve(c, one, cap=0.1)[0] > 0.1


def test_distance_rejects_negative_or_nan_cap():
    c = make_curve("circle", n=16)
    for cap in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            distance_to_curve(c, np.array([0j]), cap=cap)


def test_long_slabs_span_several_chunks():
    # the bowtie's four edges each cover most rows of a 300x300 grid, so every
    # slab is processed in more than one chunk
    c = make_curve("bowtie")
    grid = GridSpec.cover(c, 300)
    z = cell_centers(grid)
    assert np.array_equal(winding_numbers(c, z), winding_by_edges(c.vertices, z))
    for cap in (np.inf, 0.5, 2 * grid.cell_diag):
        _assert_distance_matches(c, z, cap)


_radii = st.lists(st.floats(0.2, 1.0, allow_nan=False), min_size=3, max_size=24)
_vertices = st.lists(st.tuples(st.floats(-1.0, 1.0, allow_nan=False),
                               st.floats(-1.0, 1.0, allow_nan=False)),
                     min_size=3, max_size=16)


def _probe_points(curve, seed):
    lo, hi = curve.bbox
    span = hi - lo
    rng = seed_stream(seed, "kernels.property")
    return lo + (rng.uniform(-0.3, 1.3, 200) * span.real + 1j * rng.uniform(-0.3, 1.3, 200) * span.imag)


def _check_against_oracles(curve, seed):
    z = _probe_points(curve, seed)
    wn = winding_numbers(curve, z)
    assert np.array_equal(wn, winding_by_edges(curve.vertices, z))
    off = distance_by_edges(curve.vertices, z) > 1e-6 * curve.diameter
    ang = np.array([winding_by_angles(curve.vertices, p) for p in z[off]], dtype=np.int64)
    assert np.array_equal(wn[off], ang)


@settings(max_examples=60, deadline=None)
@given(radii=_radii, seed=st.integers(0, 2**31 - 1))
def test_property_star_polygons(radii, seed):
    th = 2 * np.pi * np.arange(len(radii)) / len(radii)
    _check_against_oracles(PolyCurve(np.array(radii) * np.exp(1j * th)), seed)


@settings(max_examples=60, deadline=None)
@given(pts=_vertices, seed=st.integers(0, 2**31 - 1))
def test_property_self_intersecting_polygons(pts, seed):
    v = np.array([complex(x, y) for x, y in pts])
    assume(np.all(np.abs(np.roll(v, -1) - v) > 1e-6) and np.ptp(v.real) > 0 and np.ptp(v.imag) > 0)
    _check_against_oracles(PolyCurve(v), seed)


# ---------------------------------------------------------------------------
# bump profile: one live branch against both branches


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))  # signed zeros included


def _profile(t, delta):
    """The 1D bump profile as ``_dbar_phi`` takes it: the value at the one live argument."""
    return _value(_fold(t, delta)[2])


def _profile_d(t, delta):
    """The profile's derivative as ``_dbar_phi`` takes it: the slope at the one live argument."""
    return _slope(*_fold(t, delta))


def _check_profile(t, delta):
    t = np.asarray(t, dtype=float)
    _same_bits(_profile(t, delta), profile_two_sided(t, delta))
    _same_bits(_profile_d(t, delta), profile_d_two_sided(t, delta))
    s = t[::-1]
    _same_bits(_dbar_phi(t, s, delta), dbar_phi_two_sided(t, s, delta))
    _same_bits(_dbar_phi(t[:, None], s[None, :], delta), dbar_phi_two_sided(t[:, None], s[None, :], delta))


@pytest.mark.parametrize("delta", [0.4, 0.25, 0.05, 1e-3, 3.0])
def test_profile_matches_two_sided_at_breakpoints(delta):
    r = delta / 4
    edges = [r, 2 * r, math.nextafter(2 * r, 0), math.nextafter(r, 0), math.nextafter(r, 1), 5e-324]
    t = [0.0, -0.0] + [sgn * e for e in edges for sgn in (1, -1)]
    _check_profile(t, delta)
    p, pd = _profile(np.array([0.0, -0.0]), delta), _profile_d(np.array([0.0, -0.0]), delta)
    assert p[0] == p[1] == pytest.approx(1.0, abs=1e-15)
    assert pd.tolist() == [0.0, 0.0] and not np.any(np.signbit(pd))
    assert np.all(_profile_d(np.array([r / 2, r, 1.5 * r]), delta) < 0)


@pytest.mark.parametrize("delta", [0.4, 0.05])
def test_profile_matches_two_sided_outside_support(delta):
    t = np.concatenate([np.linspace(delta / 2, 3 * delta, 101), [1e150, np.inf]])
    t = np.concatenate([t, -t])
    _check_profile(t, delta)
    assert not np.any(_profile(t, delta)) and not np.any(_profile_d(t, delta))
    assert not np.any(np.signbit(_profile_d(t, delta)))


def test_profile_matches_two_sided_on_the_tensor_rules():
    for delta, cells, order in ((0.25, 16, 5), (0.1, 6, 5), (0.25, 12, 12)):
        offsets, _, _ = _tensor_rule(delta, cells, order)
        _same_bits(_dbar_phi(offsets.real, offsets.imag, delta),
                   dbar_phi_two_sided(offsets.real, offsets.imag, delta))


@settings(max_examples=80, deadline=None)
@given(delta=st.floats(1e-4, 10.0, allow_nan=False),
       u=st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=1, max_size=40))
def test_property_profile_matches_two_sided(delta, u):
    _check_profile(np.array(u) * delta, delta)


# ---------------------------------------------------------------------------
# contour panels: all edges in one pass against edge by edge


_PANEL_CURVES = {"circle64": make_curve("circle", n=64), "bowtie": make_curve("bowtie"),
                 "spiral": make_curve("spiral", turns=2, n=128),
                 # sides of length 1.0: exactly 5 and 40 panels of delta/2 at delta 0.4 and 0.05
                 "unit_square": PolyCurve([0, 1, 1 + 1j, 1j])}


@pytest.mark.parametrize("name", ["circle64", "bowtie", "spiral"])
def test_one_panel_per_edge_keeps_the_edge_nodes(name):
    a, d = _PANEL_CURVES[name].starts, _PANEL_CURVES[name].edge_vectors
    z, dp = _panels(a, d, np.ones(a.size, dtype=int), 8)
    t, _ = gauss_legendre_01(8)
    _same_bits(z, a[:, None] + t * d[:, None])
    _same_bits(dp, d)


@pytest.mark.parametrize("delta", [0.4, 0.05])
@pytest.mark.parametrize("name", sorted(_PANEL_CURVES))
def test_panels_sized_to_delta_match_the_edge_by_edge_oracle(name, delta):
    curve = _PANEL_CURVES[name]
    k = np.ceil(curve.edge_lengths / (delta / 2)).astype(int)
    if name == "unit_square":
        assert k.tolist() == [round(2 / delta)] * 4
    z, dp = _panels(curve.starts, curve.edge_vectors, k, PieceSet.PANEL_ORDER)
    want_z, want_dzw = panel_nodes(curve, delta / 2, PieceSet.PANEL_ORDER)
    _same_bits(z.ravel(), want_z)
    _same_bits((gauss_legendre_01(PieceSet.PANEL_ORDER)[1] * dp[:, None]).ravel(), want_dzw)


# ---------------------------------------------------------------------------
# self-intersections: candidate pairs against all pairs


def _bits(event):
    i, j, p, t_i, t_j = event
    return i, j, p.real.hex(), p.imag.hex(), float(t_i).hex(), float(t_j).hex()


def _assert_same_outcome(vertices):
    """The all-pairs oracle's events, bit for bit, or its DegenerateOverlap (then None)."""
    curve = PolyCurve(vertices)
    try:
        want = intersections_by_pairs(curve.vertices)
    except DegenerateOverlap as exc:
        with pytest.raises(DegenerateOverlap) as got:
            self_intersections(curve)
        assert str(got.value) == str(exc)
        return None
    got = [(e.i, e.j, e.point, e.t_i, e.t_j) for e in self_intersections(curve)]
    assert [_bits(e) for e in got] == [_bits(e) for e in want]
    return got


@pytest.mark.parametrize("curve", [
    make_curve("trefoil"), make_curve("trefoil", c=0.55, n=241), make_curve("bowtie"),
    make_curve("bowtie", scale=3.0), make_curve("kfold", k=2, n=64), make_curve("kfold", k=3, n=97),
    make_curve("spiral"), make_curve("spiral", turns=3, n=200), make_curve("star", n=300, seed=4),
], ids=["trefoil", "trefoil241", "bowtie", "bowtie3", "kfold2", "kfold3_97", "spiral", "spiral3",
        "star300"])
def test_intersections_match_all_pairs(curve):
    assert _assert_same_outcome(curve.vertices) is not None


def test_intersections_nearly_parallel_pair():
    # edges 0 and 3 lie on nearly one line (angle sine about 1e-14) with a gap
    # of 1e-5 between them; rounding in the pairwise solve reports them as
    # meeting, so the candidate boxes must reach across a gap wider than tau
    v = [0.9443712828629156 + 0.5874594077134644j, 0.953818181794377 + 0.5925925854854278j,
         1.249917755764425 + 1.0949122469508696j, 0.9538280711097061 + 0.5925979590597611j,
         0.9712002826814836 + 0.6020375276353407j, 1.55376448937219 + 0.57715892070433j,
         0.6482717088928678 + 0.08513974624802251j]
    got = _assert_same_outcome(v)
    assert (0, 3) in [(i, j) for i, j, *_ in got]
    assert (v[3] - v[1]).real > 1e3 * PolyCurve(v).tau_geom


def test_intersections_degenerate_overlap_matches():
    # the second curve has a crossing (0, 3) before its overlap (0, 6)
    for v in ([0, 2, 2 + 1j, 1, 3, 3 + 2j],
              [0, 1, 1 + 1j, 0.5 + 1j, 0.5 - 1j, 3 - 1j, 3, 0.75, 1.5 + 2j]):
        assert _assert_same_outcome(v) is None


@settings(max_examples=60, deadline=None)
@given(radii=_radii)
def test_property_star_intersections(radii):
    th = 2 * np.pi * np.arange(len(radii)) / len(radii)
    assert _assert_same_outcome(np.array(radii) * np.exp(1j * th)) == []


@settings(max_examples=80, deadline=None)
@given(pts=_vertices)
def test_property_polygon_intersections(pts):
    v = np.array([complex(x, y) for x, y in pts])
    assume(np.all(np.abs(np.roll(v, -1) - v) > 1e-6))
    _assert_same_outcome(v)


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=12))
def test_property_lattice_polygon_intersections(pts):
    # vertices on a lattice: many collinear, touching and vertex-on-edge pairs
    v = np.array([complex(x, y) for x, y in pts]) / 4
    assume(np.all(np.roll(v, -1) != v))
    _assert_same_outcome(v)


# ---------------------------------------------------------------------------
# dyadic squares: candidate index ranges against every edge


def _assert_squares_match(curve, center, half, depth):
    for n in range(depth + 1):
        m = 2 ** n
        s = 2 * half / m
        x = center.real - half + (np.arange(m) + 0.5) * s
        y = center.imag - half + (np.arange(m) + 0.5) * s
        want = squares_by_edges(curve.vertices, np.repeat(x, m), np.tile(y, m), s / 2)
        got = _segments_meet_square(curve, x, y, s / 2)
        assert got.dtype == bool and np.array_equal(got, want), n


@pytest.mark.parametrize("name,curve", gallery_curves(), ids=[n for n, _ in gallery_curves()])
def test_squares_match_every_edge(name, curve):
    v = curve.vertices
    _assert_squares_match(curve, v[0] + 0.01 + 0.02j, 0.125, 6)
    _assert_squares_match(curve, 0.1 + 0.05j, 1.0, 5)


def test_squares_touching_vertices_and_edges():
    # vertices and axis-parallel edges on the dyadic lines x, y in Z/8: squares
    # meet the curve only at a corner or along a side
    curve = PolyCurve([0, 0.5, 0.5 + 0.25j, 0.75 + 0.25j, 0.75 + 0.625j, 0.125 + 0.875j])
    _assert_squares_match(curve, 0.5 + 0.5j, 0.5, 5)
    _assert_squares_match(curve, 0.5 + 0.5j, 0.25, 4)
    x = y = (np.arange(8) + 0.5) / 8  # squares of side 1/8 tiling [0, 1]^2
    got = _segments_meet_square(curve, x, y, 1 / 16).reshape(8, 8)
    assert got[3, 1] and got[3, 0]  # right side on the edge x = 1/2
    assert got[3, 2] and got[4, 2]  # one corner on the vertex 1/2 + i/4
    assert not got[2, 1] and not got[4, 4]


def test_squares_criterion_curve():
    # a long edge across a depth-7 square, as in the dyadic acceptance check
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    _assert_squares_match(curve, 0.1 + 0.05j, 0.125, 7)


@settings(max_examples=40, deadline=None)
@given(pts=_vertices, cx=st.floats(-1, 1), cy=st.floats(-1, 1), half=st.floats(0.01, 1.0))
def test_property_squares_match_every_edge(pts, cx, cy, half):
    v = np.array([complex(x, y) for x, y in pts])
    assume(np.all(np.abs(np.roll(v, -1) - v) > 1e-9))
    _assert_squares_match(PolyCurve(v), complex(cx, cy), half, 4)


# ---------------------------------------------------------------------------
# oracle independence

# the only library names the oracles may import: the seeded stream, the overlap
# error the intersection oracle raises, and the partition whose bumps it integrates
_ORACLE_IMPORTS = {("greencurves._rng", "seed_stream"), ("greencurves.errors", "DegenerateOverlap"),
                   ("greencurves.vitushkin", "Partition")}


def test_oracles_import_only_the_allowlist():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    got = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            got |= {(a.name, None) for a in node.names if a.name.startswith("greencurves")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("greencurves")):
            got |= {(node.module, a.name) for a in node.names}
    assert got <= _ORACLE_IMPORTS, got - _ORACLE_IMPORTS


def test_library_imports_only_the_standard_library_and_numpy():
    # the runtime dependency stays numpy only
    src = Path(__file__).parent.parent / "src" / "greencurves"
    paths = sorted(src.glob("*.py"))
    assert paths
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    got = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                got |= {(path.name, a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                got.add((path.name, node.module))
    outside = {(name, module) for name, module in got if module.split(".")[0] not in allowed}
    assert not outside, outside
