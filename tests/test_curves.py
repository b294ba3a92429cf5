"""Geometry: lengths, self-intersections, Jordan decomposition, gallery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greencurves import (PolyCurve, gallery_curves, is_jordan, jordan_decompose, length,
                         make_curve, self_intersections)
from greencurves.curves import _cluster_points, _collinear, curve_families
from greencurves.errors import DegenerateOverlap, UnknownFamily
from greencurves.integration import contour_integral
from greencurves.functions import make_function

from oracles import brute_force_crossings, cluster_points_greedy, gl_contour, shoelace_area


def test_length_inscribed_square():
    sq = make_curve("circle", n=4)
    assert length(sq) == pytest.approx(4 * math.sqrt(2), rel=1e-14)


def test_length_circle_256gon():
    c = make_curve("circle", n=256)
    assert length(c) == pytest.approx(256 * 2 * math.sin(math.pi / 256), rel=1e-14)


def test_length_figure_eight_edge_sum_oracle():
    b = make_curve("bowtie")
    v = b.vertices
    expected = sum(abs(v[(k + 1) % 4] - v[k]) for k in range(4))
    assert length(b) == pytest.approx(expected, rel=1e-15)


def test_polycurve_rejects_degenerate_input():
    with pytest.raises(ValueError):
        PolyCurve([0, 1])
    with pytest.raises(ValueError):
        PolyCurve([0, 1, 1, 1j])
    with pytest.raises(ValueError):
        PolyCurve([0, 1, complex("nan")])


def test_self_intersections_convex_polygon_empty():
    assert self_intersections(make_curve("circle", n=16)) == []


def test_self_intersections_bowtie_single_event():
    b = make_curve("bowtie")
    events = self_intersections(b)
    assert len(events) == 1
    oracle = brute_force_crossings(b.vertices)
    assert len(oracle) == 1
    assert abs(events[0].point - oracle[0]) < 1e-12


def test_self_intersections_three_lobe_curve():
    t = make_curve("trefoil", c=0.7, n=120)
    events = self_intersections(t)
    oracle = brute_force_crossings(t.vertices)
    assert len(events) == len(oracle) == 3
    for e in events:
        assert min(abs(e.point - p) for p in oracle) < 1e-9


def test_degenerate_overlap_raises():
    # second edge partially retraces the first along the same line
    c = PolyCurve([0, 2, 2 + 1j, 1, 3, 3 + 2j])
    # edges: 0->2, 2->2+1j, 2+1j->1, 1->3 (overlaps 0->2 on [1,2]), ...
    with pytest.raises(DegenerateOverlap):
        self_intersections(c)


def test_jordan_decompose_simple_polygon_identity():
    c = make_curve("circle", n=12)
    dec = jordan_decompose(c)
    assert len(dec.loops) == 1
    assert np.allclose(dec.loops[0].vertices, c.vertices)
    assert dec.gap == pytest.approx(0.0, abs=1e-12)


def test_jordan_decompose_figure_eight():
    b = make_curve("bowtie")
    dec = jordan_decompose(b)
    assert len(dec.loops) == 2
    f = make_function("monomial", a=0, b=1)
    direct = contour_integral(b, f)
    split = sum((contour_integral(lp, f) for lp in dec.loops), 0j)
    assert abs(direct - split) <= 1e-9
    # per-loop shoelace: ∮ zbar dz = 2i * signed area
    for lp in dec.loops:
        assert contour_integral(lp, f) == pytest.approx(2j * shoelace_area(lp.vertices), abs=1e-12)


def test_jordan_decompose_double_circle():
    # 8-gon traversed twice peels into two identical copies
    c = make_curve("kfold", k=2, n=16)
    dec = jordan_decompose(c)
    assert len(dec.loops) == 2
    base = make_curve("circle", n=8).vertices
    for lp in dec.loops:
        assert lp.n == 8
        assert np.allclose(np.sort_complex(lp.vertices), np.sort_complex(base))
    assert abs(dec.gap) <= 1e-9 * length(c)


def test_backforth_curve_decomposes_to_nothing():
    # A -> B -> C -> B retraces itself; every loop cancels
    c = PolyCurve([-1, 0.5j, 1, 0.5j])
    assert not is_jordan(c)
    dec = jordan_decompose(c)
    assert dec.loops == []
    assert dec.gap == pytest.approx(length(c))
    f = make_function("monomial", a=0, b=1)
    assert abs(contour_integral(c, f)) < 1e-14


def test_is_jordan():
    assert is_jordan(PolyCurve([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))  # square
    assert not is_jordan(make_curve("bowtie"))
    for lp in jordan_decompose(make_curve("trefoil")).loops:
        assert is_jordan(lp)


def test_random_selfintersecting_decomposition_sweep():
    # heavily self-intersecting random closed polylines exercise the loop
    # peeling far beyond the gallery; measure equality must survive every one
    from greencurves._rng import seed_stream
    g = make_function("monomial", a=0, b=1)
    done = 0
    for seed in range(40):
        rng = seed_stream(seed, "curves.stress")
        pts = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        try:
            c = PolyCurve(pts)
            dec = jordan_decompose(c)
        except DegenerateOverlap:
            continue
        done += 1
        assert sum(length(lp) for lp in dec.loops) <= length(c) + 1e-9 * length(c)
        for lp in dec.loops:
            assert is_jordan(lp), seed
        direct = contour_integral(c, g)
        split = sum((contour_integral(lp, g) for lp in dec.loops), 0j)
        gmax = float(np.max(np.abs(g.value(c.vertices))))
        assert abs(direct - split) <= 1e-9 * (1 + length(c) * gmax), seed
    assert done >= 35


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-1.0, 1.0, allow_nan=False),
                              st.floats(-1.0, 1.0, allow_nan=False)), min_size=3, max_size=12))
def test_property_decomposition_preserves_conj_z_measure(pts):
    # ∮ conj z dz over the loops equals the curve's, relative to the ML bound
    # length * max|z| on either side
    v = np.array([complex(x, y) for x, y in pts])
    assume(np.all(np.abs(np.roll(v, -1) - v) > 1e-6))
    c = PolyCurve(v)
    try:
        dec = jordan_decompose(c)
    except DegenerateOverlap:
        assume(False)
    g = make_function("monomial", a=0, b=1)
    direct = contour_integral(c, g)
    split = sum((contour_integral(lp, g) for lp in dec.loops), 0j)
    assert abs(direct - split) <= 1e-9 * length(c) * np.abs(v).max()


def test_make_curve_rejects_collinear_curves():
    with pytest.raises(ValueError, match="collinear"):
        make_curve("spiral", turns=0, n=32)
    with pytest.raises(ValueError, match="collinear"):
        make_curve("kfold", k=2, n=4)  # back and forth along one diameter
    assert _collinear(PolyCurve([0, 1 + 1j, 3 + 3j, 2 + 2j]))
    # a figure-eight whose lobes cancel encloses zero signed area, but is kept
    eight = PolyCurve([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
    assert shoelace_area(eight.vertices) == 0.0
    assert not _collinear(eight)
    assert not _collinear(PolyCurve([0, 1, 1 + 1e-9j]))


def test_make_curve_families():
    c = make_curve("circle", radius=1.0, n=64)
    assert c.n == 64
    assert np.allclose(np.abs(c.vertices), 1.0)
    assert len(self_intersections(make_curve("bowtie"))) == 1
    with pytest.raises(UnknownFamily):
        make_curve("banana")
    assert set(curve_families()) == {"circle", "bowtie", "kfold", "spiral", "star", "trefoil"}


def test_make_curve_deterministic_star():
    a = make_curve("star", n=24, seed=7)
    b = make_curve("star", n=24, seed=7)
    assert np.array_equal(a.vertices, b.vertices)
    assert is_jordan(a)


def test_gallery_decomposition_invariants():
    gallery = gallery_curves()
    assert len(gallery) == 10
    monomials = [make_function("monomial", a=0, b=0),
                 make_function("monomial", a=1, b=0),
                 make_function("monomial", a=0, b=1),
                 make_function("monomial", a=2, b=0)]
    for name, c in gallery:
        dec = jordan_decompose(c)
        total = sum(length(lp) for lp in dec.loops)
        assert total <= length(c) + 1e-9 * length(c), name
        for lp in dec.loops:
            assert is_jordan(lp), name
        for g in monomials:
            direct = contour_integral(c, g)
            split = sum((contour_integral(lp, g) for lp in dec.loops), 0j)
            gmax = float(np.max(np.abs(g.value(c.vertices))))
            assert abs(direct - split) <= 1e-9 * (1 + length(c) * gmax), name


def test_orientation_reversal_negates_integrals():
    g = make_function("monomial", a=0, b=1)
    for name, c in gallery_curves()[:4]:
        fwd = contour_integral(c, g)
        bwd = contour_integral(PolyCurve(c.vertices[::-1]), g)
        assert fwd == pytest.approx(-bwd, abs=1e-13 * (1 + abs(fwd)))


def test_contour_oracle_agreement():
    # library quadrature against an independently coded one
    c = make_curve("star", n=20, seed=3)
    g = make_function("monomial", a=1, b=1)
    assert contour_integral(c, g) == pytest.approx(
        gl_contour(c.vertices, g.value), rel=1e-12)


# ---------------------------------------------------------------------------
# clustering of walk nodes: hash-grid cells against the every-cluster scan


def _assert_clusters_match(points, tau):
    labels, canon = _cluster_points(points, tau)
    want_labels, want_canon = cluster_points_greedy(points, tau)
    assert np.array_equal(labels, want_labels)
    assert [complex(q) for q in canon] == [complex(q) for q in want_canon]


def test_clusters_at_rounding_boundaries():
    # 2 - (1 - 2**-53) rounds to 1 = tau, yet x / tau puts the two points
    # two cells of side tau apart
    _assert_clusters_match([2.0 + 0j, 1 - 2 ** -53 + 0j], 1.0)
    _assert_clusters_match([2.0 + 0j, 1 - 2 ** -53 + 0j, 3 + 2 ** -52 + 0j], 1.0)
    _assert_clusters_match([-2.0 + 0j, -(1 - 2 ** -53) + 0j, 1j, -1j, 0j], 1.0)


def test_clusters_at_the_tau_floor():
    # jordan_decompose lets tau fall to 1e-300, where x / tau overflows int64
    tiny = 1e-300
    pts = [0j, tiny + 0j, 2 * tiny + 0j, 3 * tiny + 0j, 1 + 0j, 1 + 0j, 1 + 2 ** -52 + 0j,
           -tiny * 1j, 1e8 + 1e8j, 1e8 + 1e8j, -2.5 * tiny + 0j]
    _assert_clusters_match(pts, tiny)
    labels, _ = _cluster_points(pts, tiny)
    assert labels[5] == labels[4] != labels[6] and labels[9] == labels[8]


_steps = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / math.sqrt(2), (3 - 4j) / 5, 0.5, 2j, 0])
_scales = st.sampled_from([1 - 2 ** -52, 1.0, 1 + 2 ** -52, 1 + 2 ** -51])


@settings(max_examples=80, deadline=None)
@given(tau=st.sampled_from([1.0, 0.1, 3e-7, 1e-12, 1e-300]),
       x0=st.floats(-10, 10), y0=st.floats(-10, 10),
       steps=st.lists(st.tuples(_steps, _scales), min_size=1, max_size=40),
       order=st.randoms(use_true_random=False))
def test_property_clusters_match_greedy_on_chains(tau, x0, y0, steps, order):
    # chains of points about tau apart, where which cluster a point joins
    # depends on the order the points come in
    p = complex(x0, y0)
    pts = [p]
    for step, scale in steps:
        p = p + step * (tau * scale)
        pts.append(p)
    order.shuffle(pts)
    _assert_clusters_match(pts, tau)
