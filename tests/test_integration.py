"""Contour/area integrals, the Green verdict, the dyadic-square and mollifier identities."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greencurves import (GridSpec, PolyCurve, Square, gallery_curves,
                         index_field, make_curve, make_function, verify_green, with_cutoff)
from greencurves._rng import seed_stream
from greencurves.errors import PoleOnCurve
from greencurves.functions import truncated_cauchy
from greencurves.integration import (_BLOCK, MOLLIFIER_NORM, MOLLIFIER_ORDER, _polar_disc_rule,
                                     area_integral_weighted, contour_integral,
                                     gauss_legendre_01, green_on_square,
                                     mollifier_identity_check)
from greencurves.vitushkin import build_partition
from greencurves.winding import IndexField, distance_to_curve

from oracles import (area_by_levels, cell_centers, clip_polygon_by_halfplane, cutoff_by_ramp,
                     modulus_by_fresh_draw, monomial_by_powers, phi_two_sided, polygon_z_integral,
                     shoelace_area, square_generation_sums)


ZBAR = make_function("monomial", a=0, b=1)


def test_contour_constant_is_zero():
    for name, c in gallery_curves():
        one = make_function("monomial", a=0, b=0)
        assert abs(contour_integral(c, one)) <= 1e-13, name


def test_contour_cauchy_kernel():
    c = make_curve("circle", n=64)
    f = make_function("reciprocal", pole=0j)
    assert contour_integral(c, f) == pytest.approx(2j * math.pi, abs=1e-6)


def test_contour_pole_on_curve_raises():
    c = make_curve("circle", n=64)
    with pytest.raises(PoleOnCurve):
        contour_integral(c, make_function("reciprocal", pole=1 + 0j))


def test_contour_zbar_square():
    sq = PolyCurve([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    # ∮ zbar dz = 2i * area for polygons, by the shoelace oracle
    assert contour_integral(sq, ZBAR) == pytest.approx(2j * shoelace_area(sq.vertices), abs=1e-13)
    assert contour_integral(sq, ZBAR) == pytest.approx(8j, abs=1e-13)


def _field(curve, resolution=256, band_diagonals=2.0):
    grid = GridSpec.cover(curve, resolution)
    return index_field(curve, grid, band_diagonals * grid.cell_diag)


def test_area_integral_holomorphic_zero():
    c = make_curve("circle", n=64)
    f = make_function("monomial", a=2, b=0)
    val, _ = area_integral_weighted(_field(c, 64), f, refine=1)
    assert val == 0.0


def test_area_integral_circle_zbar():
    c = make_curve("circle", n=256)
    val, info = area_integral_weighted(_field(c), ZBAR, refine=3)
    target = shoelace_area(c.vertices)  # index-weighted area of the polygon
    assert val.real == pytest.approx(target, rel=1e-3)
    assert abs(val.imag) < 1e-6
    assert info["straddle_area"] < 0.1


def test_area_integral_bowtie_signed_lobes():
    b = make_curve("bowtie")
    from greencurves import jordan_decompose
    dec = jordan_decompose(b)
    target = sum(shoelace_area(lp.vertices) for lp in dec.loops)  # A+ - A-
    val, _ = area_integral_weighted(_field(b), ZBAR, refine=3)
    assert val.real == pytest.approx(target, abs=1e-3 * max(abs(target), 1.0))


def test_area_integral_refine_zero_excludes_band():
    c = make_curve("circle", n=128)
    fld = _field(c, 128)
    val, info = area_integral_weighted(fld, ZBAR, refine=0)
    assert info["dropped_area"] > 0
    # the dropped band removes roughly half its area from the disc integral
    assert abs(val.real - math.pi) < info["dropped_area"]


# ---------------------------------------------------------------------------
# near-band refinement: distances and windings reused from the parent level
# against measuring every subcell


def _assert_same_area(fld, f, refine, weight=None):
    if weight is not None:  # folded into dbar(f), as the class sums weigh their area form
        f = dataclasses.replace(f, dbar=lambda z, dbar=f.dbar: dbar(z) * weight(z))
    got, got_info = area_integral_weighted(fld, f, refine=refine)
    want, want_info = area_by_levels(fld, f, refine=refine)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert list(got_info) == list(want_info)
    assert [float(x).hex() for x in got_info.values()] == [float(x).hex() for x in want_info.values()]


_FUNCTIONS = [ZBAR, make_function("zbar_absz"), make_function("monomial", a=1, b=1)]
_GALLERY = gallery_curves()


def _weight(z):
    """A smooth positive weight."""
    return 1.0 / (1.0 + np.abs(z - 0.2 - 0.1j) ** 2)


_refinement = dict(refine=st.integers(0, 4), band=st.sampled_from([0.0, 0.5, 2.0, 3.0]),
                   resolution=st.integers(16, 96), fn=st.integers(0, len(_FUNCTIONS) - 1),
                   weighted=st.booleans())


def _check_refinement(curve, refine, band, resolution, fn, weighted):
    _assert_same_area(_field(curve, resolution, band), _FUNCTIONS[fn], refine,
                      _weight if weighted else None)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(_GALLERY) - 1), **_refinement)
def test_property_refinement_matches_every_subcell_gallery(k, **kw):
    _check_refinement(_GALLERY[k][1], **kw)


@settings(max_examples=30, deadline=None)
@given(radii=st.lists(st.floats(0.2, 1.0, allow_nan=False), min_size=3, max_size=24), **_refinement)
def test_property_refinement_matches_every_subcell_star(radii, **kw):
    th = 2 * np.pi * np.arange(len(radii)) / len(radii)
    _check_refinement(PolyCurve(np.array(radii) * np.exp(1j * th)), **kw)


@settings(max_examples=30, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-1.0, 1.0, allow_nan=False),
                              st.floats(-1.0, 1.0, allow_nan=False)), min_size=3, max_size=16),
       **_refinement)
def test_property_refinement_matches_every_subcell_polygon(pts, **kw):
    v = np.array([complex(x, y) for x, y in pts])
    assume(np.all(np.abs(np.roll(v, -1) - v) > 1e-6) and np.ptp(v.real) > 0 and np.ptp(v.imag) > 0)
    _check_refinement(PolyCurve(v), **kw)


@pytest.mark.parametrize("refine", [1, 2, 3])
@pytest.mark.parametrize("s", [5, 3])
def test_refinement_child_exactly_at_band(s, refine):
    # a square with a notch whose reflex corner v lies on the diagonal through
    # an inside near cell's center c, s level-1 half-sides h off in each
    # coordinate.  Every coordinate is dyadic, so one level-1 child lies
    # exactly band = 4 sqrt(2) h from v while c lies band + sqrt(2) h (s = 5)
    # or band - sqrt(2) h (s = 3) from it.  At h = 3/64 the rounded
    # p - hypot(h, h) exceeds band: without its slack the distance bound
    # would release that child as clear.
    grid = GridSpec(-6 - 6j, 6 + 6j, 64, 64)
    h = grid.cell_w / 4
    c = cell_centers(grid)[32, 32]
    v = c - s * h * (1 + 1j)
    curve = PolyCurve(v + np.array([0, -2 - 0.5j, -2 + 2j, 2 + 2j, 2 - 2j, -0.5 - 2j]))
    fld = index_field(curve, grid, 2 * grid.cell_diag)
    band = 2.0 * math.hypot(2 * h, 2 * h)
    child = c + (4 - s) * h * (1 + 1j)
    assert fld.near_mask[32, 32] and fld.values[32, 32] != 0
    assert distance_to_curve(curve, np.array([child]), cap=np.inf)[0] == band
    p, r = fld.dist[32, 32], math.hypot(h, h)
    assert p - r > band if s == 5 else p + r <= band
    for f in _FUNCTIONS:
        _assert_same_area(fld, f, refine)


_PARENTS = _BLOCK // 4  # parents per block of a refinement level


@lru_cache(maxsize=1)
def _dense_field():
    # 768 columns: 42 rows per block, 19 row blocks; about 9,200 near cells
    c = make_curve("circle", n=64)
    return _field(c, 768)


def _first_near(fld, n):
    """The field with only its first ``n`` near cells (row-major) left near."""
    near = np.zeros(fld.near_mask.size, dtype=bool)
    near[np.flatnonzero(fld.near_mask)[:n]] = True
    return IndexField(grid=fld.grid, values=fld.values, near_mask=near.reshape(fld.near_mask.shape),
                      band=fld.band, curve=fld.curve, dist=fld.dist)


def _band_weight(z):
    """Concentrated on the unit circle, so the near-band levels weigh as much as the clean cells."""
    return np.exp(-((np.abs(z) - 1.0) / 0.005) ** 2)


@pytest.mark.parametrize("n_near", [_PARENTS - 1, _PARENTS, _PARENTS + 1, None])
def test_refinement_blocks_at_the_block_edge(n_near):
    # level 1 holds exactly n_near parents (all 9,000-odd near cells for
    # None) and level 2 several blocks of them; the clean cells span every
    # row block.  With dbar f = z the weighted terms cancel around the
    # circle, so summing any of the three arrays block by block would change
    # the bits of the total; conj z would sum integers, exact in any order
    fld = _dense_field()
    assert np.count_nonzero(fld.near_mask) > _PARENTS + 1
    if n_near is not None:
        fld = _first_near(fld, n_near)
    _assert_same_area(fld, _FUNCTIONS[2], 2, _band_weight)


def test_refinement_blocks_with_partition_weight():
    # the class sums weigh the area integral with a sum of bumps: here 16
    # bumps drawn from those within delta of the circle
    fld = _dense_field()
    part = build_partition(0.2, (-1.6 - 1.6j, 1.6 + 1.6j))
    near = np.flatnonzero(np.abs(np.abs(part.centers_array()) - 1.0) < part.delta)
    js = seed_stream(3, "integration.weight").choice(near, size=16, replace=False)
    _assert_same_area(_first_near(fld, _PARENTS + 1), _FUNCTIONS[1], 2,
                      lambda z: sum((phi_two_sided(part, j, z) for j in js), 0.0))


def test_verify_green_circle_zbar():
    c = make_curve("circle", n=256)
    rep = verify_green(c, ZBAR, 256, 3)
    assert rep.lhs == pytest.approx(2j * shoelace_area(c.vertices), rel=1e-12)
    assert rep.rel_residual <= 1e-3


def test_verify_green_holomorphic_cubic():
    f = make_function("monomial", a=3, b=0)
    for name, c in gallery_curves():
        rep = verify_green(c, f, 96, 1)
        assert abs(rep.lhs) <= 1e-9, name
        assert abs(rep.rhs) <= 1e-9, name


def test_verify_green_bowtie_zzbar():
    b = make_curve("bowtie")
    f = make_function("monomial", a=1, b=1)  # dbar = z
    rep = verify_green(b, f, 256, 4)
    from greencurves import jordan_decompose
    dec = jordan_decompose(b)
    # oracle: 2i * sum of signed ∫ z dA per lobe, in closed form
    target = 2j * sum(polygon_z_integral(lp.vertices) for lp in dec.loops)
    assert rep.lhs == pytest.approx(target, rel=1e-12)
    assert rep.rel_residual <= 1e-3


def test_verify_green_kfold_double_index():
    k2 = make_curve("kfold", k=2, n=128)
    rep = verify_green(k2, ZBAR, 192, 3)
    # the index is 2 on the disc: both sides equal 2i * 2 * polygon area
    base = make_curve("circle", n=64)
    assert rep.lhs == pytest.approx(4j * shoelace_area(base.vertices), rel=1e-12)
    assert rep.rel_residual <= 1e-3


def test_verify_green_invariance_under_rotation_and_reversal():
    c = make_curve("star", n=24, seed=9)
    f = make_function("monomial", a=1, b=1)
    base = contour_integral(c, f)
    rot = contour_integral(PolyCurve(np.roll(c.vertices, -5)), f)
    rev = contour_integral(PolyCurve(c.vertices[::-1]), f)
    assert rot == pytest.approx(base, rel=1e-13)
    assert rev == pytest.approx(-base, rel=1e-13)


def test_verify_green_residual_shrinks_with_refinement():
    funcs = [ZBAR, make_function("monomial", a=1, b=1),
             make_function("monomial", a=0, b=2), make_function("zbar_absz")]
    for name, c in [("circle64", make_curve("circle", n=64)), ("bowtie", make_curve("bowtie")),
                    ("star1", make_curve("star", n=24, seed=1))]:
        for f in funcs:
            resid = []
            for res, refine in ((48, 0), (128, 1), (256, 3)):
                rep = verify_green(c, f, res, refine)
                resid.append(rep.abs_residual)
            floor = 1e-9 * (1 + abs(rep.lhs))
            assert resid[1] <= max(0.5 * resid[0], floor), (name, f.name, resid)
            assert resid[2] <= max(0.5 * resid[1], floor), (name, f.name, resid)


def test_verify_green_linearity_of_residual():
    c = make_curve("circle", n=128)
    f = ZBAR
    g = make_function("monomial", a=1, b=1)
    fg = make_function("poly", terms=((2.0, 0, 1), (3.0, 1, 1)))
    rf = verify_green(c, f, 128, 2).abs_residual
    rg = verify_green(c, g, 128, 2).abs_residual
    rfg = verify_green(c, fg, 128, 2).abs_residual
    assert rfg <= 2 * rf + 3 * rg + 1e-12


# ---------------------------------------------------------------------------
# dyadic squares


def test_green_on_square_clear_square_exact():
    far_curve = PolyCurve([5 + 5j, 6 + 5j, 6 + 6j, 5 + 6j])
    sq = Square(center=0j, half=0.5)
    rep = green_on_square(sq, ZBAR, far_curve, depth=0)
    assert rep.lhs == pytest.approx(2j * 1.0, abs=1e-13)
    assert rep.rhs == pytest.approx(rep.lhs, abs=1e-12)


def test_green_on_square_crossed_by_edge():
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    sq = Square(center=0.1 + 0.05j, half=0.125)
    rep = green_on_square(sq, ZBAR, curve, depth=6)
    # direct two-piece closed form for the left side: clip the square by the edge
    corners = list(sq.corners)
    p, q = curve.vertices[0], curve.vertices[1]
    left = clip_polygon_by_halfplane(corners, p, q, keep_left=True)
    right = clip_polygon_by_halfplane(corners, p, q, keep_left=False)
    target = 2j * (shoelace_area(left) + shoelace_area(right))
    assert rep.lhs == pytest.approx(target, rel=1e-12)
    for row in rep.extras["generations"][1:]:
        assert row["remainder"] <= row["remainder_bound"] * (1 + 1e-9)


def test_green_on_square_rhs_cauchy_sequence():
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    sq = Square(center=0.1 + 0.05j, half=0.125)
    rep = green_on_square(sq, ZBAR, curve, depth=7)
    rows = rep.extras["generations"]
    rhs = [complex(*row["rhs"]) for row in rows]
    steps = [abs(b - a) for a, b in zip(rhs[2:], rhs[3:])]
    assert all(b <= a * 0.75 for a, b in zip(steps, steps[1:]))  # geometric decay
    limit = rhs[-1] + (rhs[-1] - rhs[-2])
    assert abs(limit - rep.lhs) <= rows[-1]["remainder_bound"]


def test_green_on_square_holomorphic():
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    sq = Square(center=0.1 + 0.05j, half=0.125)
    f = make_function("monomial", a=3, b=0)
    rep = green_on_square(sq, f, curve, depth=4)
    assert abs(rep.lhs) <= 1e-10
    assert abs(rep.rhs) <= 1e-10


def _assert_square_sums_match(sq, f, curve, depth):
    """Every generation's rhs has the bits of the one-pass sum."""
    rows = green_on_square(sq, f, curve, depth=depth).extras["generations"]
    want = square_generation_sums(sq, f, curve, depth)
    assert [[x.hex() for x in row["rhs"]] for row in rows] == \
        [[w.real.hex(), w.imag.hex()] for w in want]
    return rows


_CUT_ZBAR = with_cutoff(ZBAR, 1.8, 2.2)
_SQUARE_BLOCK = _BLOCK // 36  # sub-squares per block at the default 6 x 6 nodes


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_square_sums_at_the_block_edge(extra):
    # three vertical edges cross whole columns of the 32 x 32 generation and
    # a horizontal spike reaches in from the right along one row, so exactly
    # 96 + (32 - tip) sub-squares meet the curve
    sq = Square(center=0.1 + 0.05j, half=0.5)
    s = 2 * sq.half / 32
    col = lambda k: sq.center.real - sq.half + (k + 0.5) * s
    y_a = sq.center.imag - sq.half + 20.5 * s
    top, bot = sq.center.imag + 2, sq.center.imag - 2
    right, left = sq.center.real + 2, sq.center.real - 2
    tip = _SQUARE_BLOCK + extra - (1024 - 96 - 32)
    curve = PolyCurve([
        complex(col(2), bot), complex(col(2), top), complex(col(5), top), complex(col(5), bot),
        complex(col(8), bot), complex(col(8), top), complex(right, top),
        complex(right, y_a + s / 8), complex(col(tip), y_a), complex(right, y_a - s / 8),
        complex(right, bot - 1), complex(left, bot - 1)])
    rows = _assert_square_sums_match(sq, _CUT_ZBAR, curve, 5)
    assert rows[5]["n_clear"] == _SQUARE_BLOCK + extra


@settings(max_examples=25, deadline=None)
@given(angle=st.floats(0.0, 2 * math.pi), radius=st.floats(0.4, 1.1),
       depth=st.integers(0, 7), fn=st.integers(0, 1))
def test_property_square_sums_match_one_pass(angle, radius, depth, fn):
    curve = make_curve("star", n=48, seed=3)  # radii 0.5 to 1
    center = radius * complex(math.cos(angle), math.sin(angle))
    f = (_CUT_ZBAR, make_function("zbar_absz"))[fn]
    _assert_square_sums_match(Square(center=center, half=0.125), f, curve, depth)


# ---------------------------------------------------------------------------
# mollifier identity


def test_mollifier_identity_zbar():
    rep = mollifier_identity_check(ZBAR, 0.2 + 0.1j, 0.05)
    assert rep.lhs == pytest.approx(1.0, abs=1e-6)
    assert rep.rhs == pytest.approx(1.0, abs=1e-6)


def test_mollifier_identity_holomorphic():
    f = make_function("monomial", a=2, b=0)
    rep = mollifier_identity_check(f, 0.2 + 0.1j, 0.05)
    assert abs(rep.lhs) <= 1e-8
    assert abs(rep.rhs) <= 1e-8


def test_mollifier_identity_zzbar():
    f = make_function("monomial", a=1, b=1)
    z = 0.3 + 0.1j
    rep = mollifier_identity_check(f, z, 0.05)
    assert rep.lhs == pytest.approx(z, abs=1e-6)
    assert rep.rhs == pytest.approx(z, abs=1e-6)
    assert rep.abs_residual <= 1e-6


def test_mollifier_identity_pole_guard():
    f = make_function("reciprocal", pole=0.31 + 0.1j)
    with pytest.raises(ValueError):
        mollifier_identity_check(f, 0.3 + 0.1j, 0.05)


def test_mollifier_nodes_rounding_onto_z_refused():
    # a node z - u rounds onto z once the smallest node radius (about eps/100)
    # is under half an ulp of z, and the lhs is then roundoff over eps^4
    for z, eps in ((0.3 + 0.1j, 1e-15), (0.3 + 0.1j, 1e-50), (1000 + 0j, 1e-13)):
        with pytest.raises(ValueError, match="rounds onto z"):
            mollifier_identity_check(ZBAR, z, eps)
    assert mollifier_identity_check(ZBAR, 0.3 + 0.1j, 1e-14).rel_residual <= 0.01
    assert mollifier_identity_check(ZBAR, 0j, 1e-70).rel_residual <= 1e-15


def _mollifier_rule(eps):
    return _polar_disc_rule(eps, MOLLIFIER_ORDER, 4 * MOLLIFIER_ORDER)


@pytest.mark.parametrize("eps", [0.05, 1e-3])
def test_mollifier_is_the_unit_mass_bump(eps):
    # rho_eps is the bump of radius eps at height MOLLIFIER_NORM / eps^2
    u, w = _mollifier_rule(eps)
    rho = make_function("bump", radius=eps, height=MOLLIFIER_NORM / (eps * eps))
    assert abs(complex((rho.value(u) * w).sum()) - 1) <= 1e-13


@pytest.mark.parametrize("eps", [0.05, 1e-3])
def test_mollifier_rhs_keeps_the_polynomial_kernel_bits(eps):
    # the rhs against eps^-2 (5/pi)(1 - |u|^2/eps^2)^4 written out, bit for bit
    u, w = _mollifier_rule(eps)
    s = np.abs(u) ** 2 / (eps * eps)
    kernel = MOLLIFIER_NORM / (eps * eps) * np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** 4, 0.0)
    for f in (ZBAR, make_function("monomial", a=1, b=1), make_function("zbar_absz"), _CUT_ZBAR,
              make_function("bump", center=0.25 + 0.1j, radius=0.8)):
        for z in (0.2 + 0.1j, 0.3 - 0.05j, -0.7 + 0.4j):
            want = np.complex128((f.dbar(z - u) * kernel * w).sum())
            got = np.complex128(mollifier_identity_check(f, z, eps).rhs)
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# modulus of continuity


def test_modulus_constant_zero():
    box = (-1 - 1j, 1 + 1j)
    for coeff in (1.0, -2.5 + 1j):
        one = make_function("monomial", a=0, b=0, coeff=coeff)
        assert one.bounds(0.3j, 2.0) == (abs(coeff), 0.0)
        assert one.modulus(0.3, box=box) == 0.0


def test_modulus_zbar_matches_delta():
    # conj is an isometry: its Lipschitz bound is exactly 1 on every disc, so
    # omega is delta, and the sampled sup over 20,000 pairs approaches it from below
    for center, radius in ((0j, 1.0), (0.3 - 2j, 0.01), (1e6 + 0j, 1e3)):
        assert ZBAR.bounds(center, radius) == (abs(center) + radius, 1.0)
    box = (-1 - 1j, 1 + 1j)
    for delta in (0.5, 0.25, 0.1):
        assert ZBAR.modulus(delta, box=box) == delta
        assert delta * 0.95 <= modulus_by_fresh_draw(ZBAR, delta, box) <= delta


@pytest.mark.parametrize("coeff", [1.0, 2.5, 0.3j, -3 + 4j, 1e-300])
def test_modulus_conj_keeps_the_bits_of_abs_k_delta(coeff):
    f = make_function("monomial", a=0, b=1, coeff=coeff)
    for box in ((-1 - 1j, 1 + 1j), (1e8 + 3j, 1e8 + 5 + 4j), (0.1 + 0.1j, 0.1 + 0.1j)):
        for delta in (0.4, 0.1, 1e-3, 7.0):
            assert f.modulus(delta, box).hex() == (abs(coeff) * delta).hex()


def test_modulus_bump_gradient_bound():
    # a real f has |df| + |dbar f| = |grad f| = 2|dbar f|; its closed-form max
    # sits at |w| = R/sqrt(7), which a fine radial scan reaches
    f = make_function("bump", center=0.2 + 0.1j, radius=0.8, height=-1.5)
    sup, lip = f.bounds(0j, 5.0)
    assert sup == 1.5
    scan = 2 * np.abs(f.dbar(0.2 + 0.1j + np.linspace(0.0, 0.8, 100001)))
    assert lip * (1 - 1e-9) <= scan.max() <= lip
    box = (-1.2 - 1.2j, 1.2 + 1.2j)
    for delta in (0.2, 0.05):
        assert f.modulus(delta, box=box) == lip * delta


def test_modulus_monotone_under_fixed_seed():
    f = make_function("zbar_absz")
    box = (-1 - 1j, 1 + 1j)
    vals = [f.modulus(d, box=box) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_modulus_rejects_nonpositive_delta():
    for delta in (0.0, -0.1):
        with pytest.raises(ValueError):
            ZBAR.modulus(delta, (-1 - 1j, 1 + 1j))


def test_monomial_rejects_negative_exponents():
    for a, b in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="non-negative"):
            make_function("monomial", a=a, b=b)


# one of each family, cut-off and plain, with a pole outside and inside the boxes
_BOUND_GALLERY = {
    "conj": ZBAR,
    "z2zbar": make_function("monomial", a=2, b=1, coeff=0.5 - 1j),
    "z3": make_function("monomial", a=3, b=0),
    "poly": make_function("poly", terms=((1.0, 1, 1), (-2j, 0, 2), (0.5, 3, 0))),
    "zbar_absz": make_function("zbar_absz"),
    "bump": make_function("bump", center=0.2 + 0.1j, radius=0.8, height=-1.5),
    "reciprocal_far": make_function("reciprocal", pole=3.0 + 0.5j, coeff=1 - 1j),
    "reciprocal_near": make_function("reciprocal", pole=0.3 + 0.2j),
    "truncated_cauchy": truncated_cauchy(0.1 - 0.2j, 0.5),
    "conj_cut": _CUT_ZBAR,
    "zbar_absz_cut": with_cutoff(make_function("zbar_absz"), 0.5, 1.5, center=0.3j),
    "reciprocal_cut": with_cutoff(make_function("reciprocal", pole=2.0 + 0j), 1.0, 1.6),
}
_BOUND_BOXES = [(0j, 0.6), (0.3 - 0.2j, 1.2), (-1 + 0.5j, 2.4), (1.5 + 1.5j, 0.6),
                (0.9 - 1.1j, 1.7)]


def _holds(box, z):
    lo, hi = box
    return lo.real <= z.real <= hi.real and lo.imag <= z.imag <= hi.imag


@pytest.mark.parametrize("name", sorted(_BOUND_GALLERY))
@pytest.mark.parametrize("center,half", _BOUND_BOXES)
def test_modulus_bound_at_least_the_sampled_oracle(name, center, half):
    f = _BOUND_GALLERY[name]
    box = (center - half * (1 + 1j), center + half * (1 + 1j))
    for delta in (0.4, 0.1, 0.03, 0.01):
        bound = f.modulus(delta, box)
        if f.pole is not None and _holds(box, f.pole) and "cut" not in name:
            assert bound == math.inf
            continue
        assert bound >= modulus_by_fresh_draw(f, delta, box), delta


@pytest.mark.parametrize("name", sorted(_BOUND_GALLERY))
def test_bounds_cover_the_sampled_sup(name):
    f = _BOUND_GALLERY[name]
    rng = seed_stream(31, "functions.bounds")
    for center, radius in ((0j, 0.5), (0.4 - 0.3j, 1.3), (-1.5 + 2j, 0.7), (0.1j, 3.0)):
        sup, lip = f.bounds(center, radius)
        assert 0 <= sup and 0 <= lip
        if sup == math.inf:  # only a pole within reach makes the bounds infinite
            assert f.pole is not None and abs(f.pole - center) <= radius
            continue
        rho, turn = np.sqrt(rng.uniform(0, 1, 4000)), np.exp(2j * math.pi * rng.uniform(0, 1, 4000))
        z = np.concatenate([center + radius * rho * turn,
                            center + radius * np.exp(2j * math.pi * np.arange(256) / 256)])
        assert np.max(np.abs(f.value(z))) <= sup * (1 + 1e-12)


def test_cutoff_bounds_vanish_off_the_support():
    # the disc misses the support disc: f and its derivatives are 0 there
    assert _CUT_ZBAR.bounds(3.0 + 0j, 0.79) == (0.0, 0.0)
    assert _CUT_ZBAR.bounds(3.2 + 0j, 1.0) == (0.0, 0.0)  # touches |z| = 2.2, where f is 0
    # inside r_inner the ramp is out of reach: the bounds are conj z's
    assert _CUT_ZBAR.bounds(0.2j, 1.5) == ZBAR.bounds(0.2j, 1.5)
    # reaching the ramp's middle adds sup|g| * (15/8) / width with g over the smaller disc
    assert _CUT_ZBAR.bounds(0j, 5.0) == (2.2, 1.0 + 2.2 * 1.875 / (2.2 - 1.8))


def _sweep_box(curve, delta):
    lo, hi = curve.bbox  # delta_sweep's modulus box
    return lo - 2 * delta * (1 + 1j), hi + 2 * delta * (1 + 1j)


# the localize_sweep workload's three sweep curves and square centers at seeds 1 and 90210
_WORKLOAD_SWEEPS = [
    ({"n": 248, "radius": 0.564529}, -0.096543 + 0.518288j),
    ({"n": 240, "radius": 0.565788}, -0.559182 - 0.055427j),
    ({"n": 112, "radius": 0.564161, "center": 0.131601 - 0.216759j}, -0.385756 - 0.303417j),
    ({"n": 120, "radius": 0.572406, "center": 0.002053 - 0.021633j}, -0.206745 + 0.506685j),
    ({"family": "star", "n": 56, "r_min": 0.4, "r_max": 0.6, "seed": 721050}, 0.028006 + 0.526985j),
    ({"family": "star", "n": 64, "r_min": 0.4, "r_max": 0.6, "seed": 44152}, 0.191099 + 0.59209j),
]


def _cutoff_conj_settings():
    """(delta, box) of every modulus call at the acceptance, golden-row and workload settings."""
    out = [(0.25, (-2.4 - 2.4j, 2.4 + 2.4j))]  # criterion 6
    out += [(d, _sweep_box(make_curve("circle", n=256), d)) for d in (0.4, 0.2, 0.1, 0.05)]
    out += [(d, _sweep_box(make_curve("circle", n=128), d)) for d in (0.4, 0.2, 0.1)]  # golden
    for params, c in _WORKLOAD_SWEEPS:
        params = dict(params)
        curve = make_curve(params.pop("family", "circle"), **params)
        out += [(d, _sweep_box(curve, d)) for d in (0.4, 0.2, 0.1, 0.05)]
        # the depth-7 dyadic square of half-side 0.125: its box has twice its side
        out += [(math.sqrt(2.0) * 0.25 / 2 ** n, (c - 0.25 * (1 + 1j), c + 0.25 * (1 + 1j)))
                for n in range(8)]
    return out


def test_modulus_cutoff_conj_within_three_times_the_oracle():
    worst = 0.0
    for delta, box in _cutoff_conj_settings():
        bound, sampled = _CUT_ZBAR.modulus(delta, box), modulus_by_fresh_draw(_CUT_ZBAR, delta, box)
        assert sampled <= bound <= 3 * sampled, (delta, box)
        worst = max(worst, bound / sampled)
    assert worst > 2  # the ramp is in reach at some of these settings


def test_gauss_rule_is_read_only():
    # the rule is cached: one in-place write would corrupt every later caller
    x, w = np.polynomial.legendre.leggauss(7)
    nodes, weights = gauss_legendre_01(7)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5
        with pytest.raises(ValueError):
            arr *= 2.0
    again = gauss_legendre_01(7)
    assert again[0] is nodes and again[1] is weights
    assert np.array_equal(again[0], (x + 1.0) / 2.0) and np.array_equal(again[1], w / 2.0)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _edge_points(radii):
    """Points with +-0, +-r and the neighbours of each r as coordinates, and on circles of radius r."""
    coords = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.75, 3.0, np.inf, -np.inf, np.nan]
    for r in radii:
        coords += [s * v for v in (r, np.nextafter(r, 0.0), np.nextafter(r, 9.0)) for s in (1, -1)]
    x = np.array(coords)
    z = np.empty((x.size, x.size), dtype=complex)
    z.real, z.imag = x[:, None], x[None, :]
    rng = seed_stream(31, "functions.edges")
    th = rng.uniform(0.0, 2 * np.pi, 400)
    rings = [r * (1.0 + k * 2.0 ** -52) * np.exp(1j * th) for r in radii for k in (-2, -1, 0, 1, 2)]
    return np.concatenate([z.ravel()] + rings)


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("b", [0, 1, 2])
@pytest.mark.parametrize("coeff", [1.0, -1.0, 1j, -0.0 + 1j, 2.5 - 1.0j, 0.0])
def test_monomial_matches_power_formula_bit_for_bit(a, b, coeff):
    z = _edge_points([0.4, 1.0])
    f = make_function("monomial", a=a, b=b, coeff=coeff)
    with np.errstate(all="ignore"):
        want_value, want_dbar = monomial_by_powers(coeff, a, b, z)
        assert _same_bytes(f.value(z), want_value)
        assert _same_bytes(f.dbar(z), want_dbar)


@pytest.mark.parametrize("center", [0j, 0.25 - 0.5j])
@pytest.mark.parametrize("fn", [ZBAR, make_function("monomial", a=1, b=1, coeff=-2.0),
                                make_function("zbar_absz")])
def test_cutoff_matches_full_ramp_bit_for_bit(fn, center):
    r_inner, r_outer = 0.6, 1.7
    z = center + _edge_points([r_inner, r_outer])
    with np.errstate(all="ignore"):
        got = with_cutoff(fn, r_inner, r_outer, center=center).value(z)
        assert _same_bytes(got, cutoff_by_ramp(fn.value(z), z, r_inner, r_outer, center=center))
