"""Candidate-selecting winding and distance kernels against the every-edge oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greencurves import GridSpec, PolyCurve, gallery_curves, make_curve
from greencurves._rng import seed_stream
from greencurves.winding import distance_to_curve, winding_numbers

from oracles import distance_by_edges, winding_by_angles, winding_by_edges


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
    z = grid.centers()
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
    assert distance_to_curve(c, empty).shape == (0,)
    assert distance_to_curve(c, empty, cap=0.1).shape == (0,)
    assert winding_numbers(c, np.empty((3, 0), dtype=complex)).shape == (3, 0)
    one = np.array([0.2 + 0.1j])
    assert winding_numbers(c, one).tolist() == [1]
    assert np.array_equal(distance_to_curve(c, one), distance_by_edges(c.vertices, one))
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
    z = grid.centers()
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
