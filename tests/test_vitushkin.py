"""Partition of unity, localized pieces, class sums, delta sweep."""

import dataclasses
import math

import numpy as np
import pytest

from greencurves import (GridSpec, gallery_curves, index_field, make_curve, make_function,
                         with_cutoff)
from greencurves._rng import seed_stream
from greencurves.integration import _BLOCK, contour_integral, gauss_legendre_01
from greencurves.vitushkin import (Partition, PieceSet, _meets_curve, _polar_frame, build_partition,
                                   delta_sweep, sweep_partition)

from class_sums import CLASS_I, CLASS_II, CLASS_III, class_sums, classify_many
from oracles import (class_sum_by_green, contour_integrals_per_piece, distance_by_edges,
                     far_field_all_moments, finite_diff_dbar, grad_phi_norm, localize,
                     localize_cauchy, multiplicity, panel_nodes, partition_sum, patch_per_pair,
                     phi_two_sided, piece_eval_unblocked, reconstruct, shoelace_area,
                     winding_by_edges)

DELTA = 0.25
BOX = (-2.5 - 2.5j, 2.5 + 2.5j)


@pytest.fixture(scope="module")
def partition():
    return build_partition(DELTA, BOX)


@pytest.fixture(scope="module")
def zbar_cut():
    return with_cutoff(make_function("monomial", a=0, b=1), 1.8, 2.2)


@pytest.fixture(scope="module")
def circle_field():
    c = make_curve("circle", n=256)
    # GridSpec.cover's box for the unit circle's bounding box dilated 2.4 times, not 1.5
    grid = GridSpec(-2.4 - 2.4j, 2.4 + 2.4j, 128, 128)
    return c, index_field(c, grid, 2 * grid.cell_diag)


def _bump_near(partition, z):
    return int(np.argmin(np.abs(partition.centers_array() - z)))


# ---------------------------------------------------------------------------
# partition properties (Lemma-1 style)


def test_partition_sums_to_one(partition):
    rng = seed_stream(11, "vitushkin.test")
    zs = rng.uniform(-1.5, 1.5, 10000) + 1j * rng.uniform(-1.5, 1.5, 10000)
    assert np.max(np.abs(partition_sum(partition, zs) - 1.0)) <= 1e-12


def test_partition_multiplicity_at_most_21(partition):
    rng = seed_stream(12, "vitushkin.test")
    zs = rng.uniform(-1.5, 1.5, 10000) + 1j * rng.uniform(-1.5, 1.5, 10000)
    mult = multiplicity(partition, zs)
    assert mult.max() <= 21
    assert mult.min() >= 1


def test_partition_bumps_supported_in_discs(partition):
    j = _bump_near(partition, 0.4 + 0.3j)
    c = partition.centers_array()[j]
    rng = seed_stream(13, "vitushkin.test")
    th = rng.uniform(0, 2 * math.pi, 500)
    on_disc = c + DELTA * np.exp(1j * th)          # nominal disc boundary
    beyond = c + 1.001 * DELTA * np.exp(1j * th)
    assert np.all(phi_two_sided(partition, j, on_disc) == 0.0)
    assert np.all(phi_two_sided(partition, j, beyond) == 0.0)
    inside = phi_two_sided(partition, j, np.array([c, c + 0.1 * DELTA]))
    assert inside[0] == pytest.approx(1.0, abs=1e-14)
    assert 0 < inside[1] <= 1


def test_partition_gradient_constant_stable():
    consts = []
    for delta in (0.4, 0.1):
        part = build_partition(delta, (-1 - 1j, 1 + 1j))
        j = _bump_near(part, 0j)
        c = part.centers_array()[j]
        ts = np.linspace(-delta / 2, delta / 2, 801)
        zs = c + ts[:, None] + 1j * ts[None, :]
        consts.append(float(grad_phi_norm(part, j, zs).max()) * delta)
    assert consts[0] <= 16.0
    assert abs(consts[0] - consts[1]) <= 0.01 * consts[0]
    # the 1D profile slope bound is 315/64; the measured 2D constant matches it
    assert consts[0] == pytest.approx(315 / 64, rel=1e-3)


# ---------------------------------------------------------------------------
# localization


def test_localize_holomorphic_piece_vanishes(partition):
    f = make_function("monomial", a=2, b=0)
    j = _bump_near(partition, 0.3 + 0.2j)
    c = partition.centers_array()[j]
    zs = np.array([c, c + 0.08 + 0.03j, c + 0.7, c - 2.0j])
    assert np.all(np.abs(localize(f, partition, j, zs)) <= 1e-8)


def test_localize_cross_check_cauchy_transform(partition, zbar_cut):
    j = _bump_near(partition, 0.3 + 0.2j)
    c = partition.centers_array()[j]
    zs = np.array([c + 0.03 + 0.02j, c + 0.09j, c + 0.4 - 0.1j, c + 1.0])
    dq = localize(zbar_cut, partition, j, zs)
    ct = localize_cauchy(zbar_cut, partition, j, zs)
    assert np.all(np.abs(dq - ct) <= 1e-6)


def test_localize_sup_bounded_by_modulus(partition, zbar_cut):
    omega = zbar_cut.modulus(DELTA, box=(-2.4 - 2.4j, 2.4 + 2.4j))
    ps = PieceSet(partition, zbar_cut)
    rng = seed_stream(14, "vitushkin.test")
    worst = 0.0
    js = ps.active_pieces(range(partition.n_bumps))
    for j in js[:: max(1, len(js) // 40)]:
        c = partition.centers_array()[j]
        zs = c + (rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)) * DELTA
        worst = max(worst, float(np.max(np.abs(ps.eval(j, zs)))))
    c_loc = worst / omega
    assert c_loc <= 50.0


def test_batch_eval_matches_accurate_path(partition, zbar_cut):
    ps = PieceSet(partition, zbar_cut)
    j = _bump_near(partition, 0.3 + 0.2j)
    c = partition.centers_array()[j]
    zs = np.array([c + 0.03 + 0.02j, c + 0.11j, c + 0.18, c + 0.5j, c + 1.3])
    batch = ps.eval(j, zs)
    acc = localize(zbar_cut, partition, j, zs)
    assert np.max(np.abs(batch - acc)) <= 5e-5


def test_dbar_of_piece_is_bump_times_dbar(partition, zbar_cut):
    # finite-difference Wirtinger derivative of the piece against phi_j * dbar f
    j = _bump_near(partition, 0.35 + 0.1j)
    c = partition.centers_array()[j]
    rng = seed_stream(15, "vitushkin.test")
    h = 2e-4
    pts = c + (rng.uniform(-0.9, 0.9, 8) + 1j * rng.uniform(-0.9, 0.9, 8)) * DELTA / 2
    fd = finite_diff_dbar(lambda w: localize(zbar_cut, partition, j, w), pts, h)
    assert np.all(np.abs(fd - phi_two_sided(partition, j, pts) * zbar_cut.dbar(pts)) <= 1e-4)


def test_piece_holomorphic_outside_support(partition, zbar_cut):
    j = _bump_near(partition, 0.35 + 0.1j)
    c = partition.centers_array()[j]
    h = 2e-4
    F = lambda w: localize(zbar_cut, partition, j, w)
    assert np.all(np.abs(finite_diff_dbar(F, np.array([c + 0.9 + 0.4j, c - 1.1j]), h)) <= 1e-6)


# ---------------------------------------------------------------------------
# classification


def test_classify_trivial_cases(partition):
    curve = make_curve("circle", n=256)
    inside = _bump_near(partition, 0j)
    crossing = _bump_near(partition, 1.0 + 0j)
    far = _bump_near(partition, 2.0 + 1.0j)
    classes = classify_many(partition, [inside, crossing, far], curve)
    assert classes[inside] == CLASS_I
    assert classes[crossing] == CLASS_II
    assert classes[far] == CLASS_III


@pytest.mark.parametrize("delta", [0.4, 0.1])
@pytest.mark.parametrize("curve", [c for _, c in gallery_curves()],
                         ids=[n for n, _ in gallery_curves()])
def test_classify_many_matches_oracles(curve, delta):
    # every bump of a partition reaching a curve diameter past the curve's box,
    # so many lie outside the 1.5-dilated box an index field covers: II where
    # the disc meets an edge, else I or III by the every-edge crossing count
    lo, hi = curve.bbox
    pad = curve.diameter * (1 + 1j)
    part = build_partition(delta, (lo - pad, hi + pad))
    centers = part.centers_array()
    dist = distance_by_edges(curve.vertices, centers)
    wind = winding_by_edges(curve.vertices, centers)
    want = np.where(dist < delta, CLASS_II, np.where(wind != 0, CLASS_I, CLASS_III))
    got = classify_many(part, range(part.n_bumps), curve)
    assert [got[j] for j in range(part.n_bumps)] == want.tolist()
    assert {CLASS_II, CLASS_III} <= set(want.tolist())


# ---------------------------------------------------------------------------
# reconstruction and class sums


def test_reconstruct_zero_function(partition):
    f = make_function("monomial", a=0, b=1, coeff=0.0)
    zs = np.linspace(-1, 1, 9) + 1j * np.linspace(-1, 1, 9)
    disc, n = reconstruct(PieceSet(partition, f), zs)
    assert disc == 0.0
    assert n == 0


def test_reconstruct_zbar_cutoff():
    f = with_cutoff(make_function("monomial", a=0, b=1), 0.4, 0.7)
    part = build_partition(DELTA, (-1.2 - 1.2j, 1.2 + 1.2j))
    x = np.linspace(-0.85, 0.85, 64)
    zs = (x[None, :] + 1j * x[:, None]).ravel()
    disc, n = reconstruct(PieceSet(part, f), zs)
    assert disc <= 1e-4
    assert n > 50


def test_reconstruct_converges_with_rule_refinement(monkeypatch):
    f = with_cutoff(make_function("monomial", a=0, b=1), 0.4, 0.7)
    part = build_partition(DELTA, (-1.2 - 1.2j, 1.2 + 1.2j))
    x = np.linspace(-0.8, 0.8, 24)
    zs = (x[None, :] + 1j * x[:, None]).ravel()
    errors = []
    for cells in (4, 8):
        monkeypatch.setattr(PieceSet, "CELLS", cells)
        errors.append(reconstruct(PieceSet(part, f), zs)[0])
    coarse, fine = errors
    assert fine < coarse


def test_class_sums_holomorphic(circle_field):
    curve, fld = circle_field
    part = build_partition(DELTA, (-3.3 - 3.3j, 3.3 + 3.3j))
    f = with_cutoff(make_function("monomial", a=3, b=0), 2.0, 3.0)
    cs = class_sums(f, part, curve, fld)
    assert abs(cs.s_i) <= 1e-6
    assert abs(cs.s_ii) <= 1e-6
    assert abs(cs.s_iii) <= 1e-6


@pytest.fixture(scope="module")
def zbar_class_sums(partition, zbar_cut, circle_field):
    curve, fld = circle_field
    return class_sums(zbar_cut, partition, curve, fld)


def test_class_sums_zbar_cutoff(circle_field, zbar_class_sums):
    curve, _ = circle_field
    cs = zbar_class_sums
    target = 2j * shoelace_area(curve.vertices)
    assert abs(cs.total - cs.direct) <= 1e-3 * abs(cs.direct)
    assert abs(cs.direct - target) <= 1e-12
    assert abs(cs.total - target) <= 1e-3
    # the 256-gon area is within 1e-3 of pi, so the sum also hits 2*pi*i directly
    assert abs(cs.total - 2j * math.pi) <= 1e-3
    assert abs(cs.s_iii) <= 1e-8
    assert cs.counts[CLASS_I] > 0 and cs.counts[CLASS_II] > 0 and cs.counts[CLASS_III] > 0
    # the class-I sum has the area form 2i ∫ (sum of I bumps) dbar(f) Ind dA
    assert abs(cs.area_form_i - cs.s_i) <= 2e-3 * abs(cs.s_i)


def test_class_sums_resolution_precondition(partition, zbar_cut):
    curve = make_curve("circle", n=64)
    grid = GridSpec.cover(curve, 16)  # far coarser than 4 cells per delta
    fld = index_field(curve, grid, 0.0)
    with pytest.raises(ValueError, match="4 cells per delta"):
        class_sums(zbar_cut, partition, curve, fld)


def test_class_sums_wide_band(partition, zbar_cut, circle_field, zbar_class_sums):
    # a band of 12 cell diagonals covers every cell of the discs next to the
    # circle; the classes do not read the field, so the counts and the
    # contour sums are the normal band's, bit for bit
    curve, fld = circle_field
    wide = index_field(curve, fld.grid, 12 * fld.grid.cell_diag)
    cs = class_sums(zbar_cut, partition, curve, wide)
    ref = zbar_class_sums
    assert cs.counts == ref.counts
    assert (cs.s_i, cs.s_ii, cs.s_iii, cs.direct) == (ref.s_i, ref.s_ii, ref.s_iii, ref.direct)
    assert abs(cs.area_form_i - cs.s_i) <= 2e-3 * abs(cs.s_i)


# ---------------------------------------------------------------------------
# delta sweep


def test_delta_sweep_decreasing(zbar_cut):
    curve = make_curve("circle", n=256)
    rows = delta_sweep(zbar_cut, curve, [0.4, 0.2, 0.1, 0.05])
    vals = [r["s_ii_abs"] for r in rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(r["s_ii_abs"] <= r["bound"] for r in rows)


def test_delta_sweep_lipschitz_bound_ratios():
    # cutoff ramp far outside the sampled box: f is exactly Lipschitz-1 there
    curve = make_curve("circle", n=128)
    f = with_cutoff(make_function("monomial", a=0, b=1), 3.0, 4.0)
    rows = delta_sweep(f, curve, [0.4, 0.2, 0.1, 0.05])
    for a, b in zip(rows, rows[1:]):
        assert 0.4 <= b["bound"] / a["bound"] <= 0.6


def test_delta_sweep_holomorphic_negligible():
    curve = make_curve("circle", n=128)
    f = with_cutoff(make_function("monomial", a=3, b=0), 2.0, 3.0)
    rows = delta_sweep(f, curve, [0.4, 0.2, 0.1])
    assert all(r["s_ii_abs"] <= 1e-6 for r in rows)


def test_delta_sweep_rejects_unsorted():
    curve = make_curve("circle", n=64)
    with pytest.raises(ValueError):
        delta_sweep(make_function("monomial"), curve, [0.1, 0.2])


@pytest.mark.parametrize("deltas, message", [
    ([], "nonempty, positive, finite and strictly decreasing"),
    ([3000.0], "overflows at delta 3000.0"),
])
def test_delta_sweep_rejects_deltas_the_cli_rejects(deltas, message):
    # one check of the delta limits serves the CLI reader and direct calls
    with pytest.raises(ValueError, match=message):
        delta_sweep(make_function("monomial"), make_curve("circle", n=64), deltas)


def test_delta_sweep_golden_rows(zbar_cut):
    # exact bytes of the PieceSet path: any change to its arithmetic shows here
    rows = delta_sweep(zbar_cut, make_curve("circle", n=128), [0.4, 0.2, 0.1])
    got = [(r["delta"].hex(), r["s_ii_abs"].hex(), r["bound"].hex(), r["n_pieces"])
           for r in rows]
    assert got == [
        ("0x1.999999999999ap-2", "0x1.dc3ea9a78046ep+1", "0x1.c6db60cf0d8bcp+7", 124),
        ("0x1.999999999999ap-3", "0x1.0f71dcda30118p+1", "0x1.c31181012f1b3p+6", 240),
        ("0x1.999999999999ap-4", "0x1.2e3fe29bfff13p+0", "0x1.41aab2c82b865p+2", 508),
    ]


def _s_ii_reference(ps, js, curve):
    """S_II from ``ps._eval_block`` at finer contour nodes than the sweep's: panels of at most delta/4, order 4.

    That rule agrees with panels of at most delta/16 at order 6 to 5e-9
    relative on the curves below, under the test's 1e-8.
    """
    zc, dzw = panel_nodes(curve, ps.partition.delta / 4, 4)
    fz, cells = ps.f.value(zc), ps._cells(zc)
    total = 0j
    for s in range(0, len(js), 32):
        for row in ps._eval_block(js[s:s + 32], zc, fz, cells, None):
            total += (row * dzw).sum()
    return complex(total)


@pytest.mark.parametrize("curve", [
    make_curve("star", n=56, seed=721050, r_min=0.4, r_max=0.6),
    make_curve("circle", n=112, radius=0.57, center=0.2 - 0.15j),
], ids=["star", "circle_off"])
def test_delta_sweep_s_ii_matches_a_finer_contour_rule(zbar_cut, curve):
    # the pieces vary on the scale of delta, not of the edge: six nodes on
    # each whole edge missed the star's S_II by 5.9e-6 relative at delta 0.05
    deltas = [0.1, 0.05]
    rows = delta_sweep(zbar_cut, curve, deltas)
    for delta, row in zip(deltas, rows):
        _, ps, js = _sweep_pieces(curve, delta, zbar_cut)
        got = sum(ps.contour_integrals(js, curve).values(), 0j)
        assert row["s_ii_abs"] == abs(got) and row["n_pieces"] == len(js)
        want = _s_ii_reference(ps, js, curve)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_delta_sweep_on_lattice_aligned_edges(zbar_cut, monkeypatch):
    # the bowtie's horizontal edges, y = -0.7 and 0.7, lie on lines of the cell
    # lattice at both deltas, so many contour nodes sit on cell edges.  The four
    # bumps over such a node must read the same cell: a lookup per bump left
    # |S_II| 4.1e-6 and 1.7e-6 off the 16-cell sweep
    curve = make_curve("bowtie", scale=0.7)
    deltas = [0.4, 0.2]
    rows = delta_sweep(zbar_cut, curve, deltas)
    monkeypatch.setattr(PieceSet, "CELLS", 16)
    for row, fine in zip(rows, delta_sweep(zbar_cut, curve, deltas)):
        assert abs(row["s_ii_abs"] - fine["s_ii_abs"]) <= 2e-7 * fine["s_ii_abs"]


def test_delta_sweep_s_ii_on_the_trefoil_matches_a_refined_rule_and_the_green_form(zbar_cut,
                                                                                   monkeypatch):
    # one template rule serves every near (piece, point) pair, so 16 cells
    # refine all of it.  At 6 nodes per contour panel the contour rule's own
    # error is gone (16 cells then meet the exact Green form to 4e-13), so
    # what is left is the template's; a second rule for the points outside
    # the support, unrefined, shows here (6.8e-7 at delta 0.4)
    curve, deltas = make_curve("trefoil"), [0.4, 0.2]
    rows = delta_sweep(zbar_cut, curve, deltas)
    monkeypatch.setattr(PieceSet, "CELLS", 16)
    for row, fine in zip(rows, delta_sweep(zbar_cut, curve, deltas)):
        assert abs(row["s_ii_abs"] - fine["s_ii_abs"]) <= 2e-8 * fine["s_ii_abs"]
    monkeypatch.undo()
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", 6)
    for delta, row in zip(deltas, delta_sweep(zbar_cut, curve, deltas)):
        part, ps, js = _sweep_pieces(curve, delta, zbar_cut)
        want = abs(class_sum_by_green(part, js, curve.vertices))
        assert abs(row["s_ii_abs"] - want) <= 2e-8 * want


def test_delta_sweep_bound_holds_when_the_box_dwarfs_the_support(zbar_cut):
    # at delta >= 300 the modulus box is thousands of times the cutoff's
    # support: a bound over it must still see the ramp, stay positive, fall
    # with delta and stay above |S_II|
    rows = delta_sweep(zbar_cut, make_curve("circle", n=48), [1000, 300, 100, 10, 1])
    bounds = [r["bound"] for r in rows]
    assert all(b > 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert all(r["s_ii_abs"] <= r["bound"] for r in rows)
    assert bounds[-1] > 500 and rows[-1]["s_ii_abs"] == pytest.approx(6.265, abs=1e-3)


def test_active_pieces_probes_only_the_asked_pieces(partition, zbar_cut):
    probed = []

    def dbar(z):
        probed.append(np.size(z))
        return zbar_cut.dbar(z)

    ps = PieceSet(partition, dataclasses.replace(zbar_cut, dbar=dbar))
    rng = seed_stream(12, "vitushkin.probe")
    js = rng.choice(partition.n_bumps, size=300, replace=False).tolist()
    got = ps.active_pieces(js)
    assert sum(probed) <= len(js) * ps.offsets.size
    # more bumps than one probe block holds: each block stays within the budget
    assert len(js) > _BLOCK // ps.offsets.size
    assert len(probed) > 1 and max(probed) <= _BLOCK
    full = set(PieceSet(partition, zbar_cut).active_pieces(range(partition.n_bumps)))
    assert got == [j for j in js if j in full]
    assert 0 < len(got) < len(js)


# ---------------------------------------------------------------------------
# blocked kernels and polar patch against the one-pass evaluator

_PATCH_BLOCK = _BLOCK // (4 * PieceSet.PATCH_NT * PieceSet.PATCH_NR)  # points per patch-table block


def _assert_eval_matches_unblocked(ps, j, z):
    got, want = ps.eval(j, z), piece_eval_unblocked(ps, j, z)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("cells", [6, 8, 16])
@pytest.mark.parametrize("n_inside", [1, _PATCH_BLOCK - 1, _PATCH_BLOCK, _PATCH_BLOCK + 1])
def test_eval_matches_unblocked_at_the_patch_block_edge(partition, zbar_cut, n_inside, cells,
                                                        monkeypatch):
    monkeypatch.setattr(PieceSet, "CELLS", cells)
    ps = PieceSet(partition, zbar_cut)
    j = _bump_near(partition, 1.0 + 0.5j)  # dbar of the cut-off conj z is 1 there
    c = partition.centers_array()[j]
    rng = seed_stream(n_inside, "vitushkin.blocks")
    h = ps.half
    inside = c + rng.uniform(-h, h, n_inside) + 1j * rng.uniform(-h, h, n_inside)
    inside[0] = c + ps.offsets[7]  # a point on a node of its own cell
    ring = c + 0.9 * DELTA * np.exp(2j * np.pi * rng.random(5))
    far = c + 1.5 * DELTA * np.exp(2j * np.pi * rng.random(5))
    z = np.concatenate([ring[:2], inside, far, ring[2:]])
    assert np.count_nonzero((np.abs((z - c).real) < h) & (np.abs((z - c).imag) < h)) == n_inside
    _assert_eval_matches_unblocked(ps, j, z)


def test_far_tiers_reach_the_tail_of_all_moments():
    # from k delta out a far pair sums the fewest moments n whose largest
    # dropped ratio, (1/(k sqrt 2))^n, is at most (1/sqrt 2)^96 = 2^-48, the
    # far field's accuracy at delta, where it sums all N_MOMENTS + 1
    assert PieceSet.FAR_TIERS[-1] == (1, PieceSet.N_MOMENTS + 1)
    for k, n in PieceSet.FAR_TIERS[:-1]:
        ratio = 1.0 / (k * math.sqrt(2.0))
        assert ratio ** n <= 2.0 ** -48 < ratio ** (n - 1)


@pytest.mark.parametrize("delta", [0.05, 0.4, 1.0])
def test_template_dbar_phi_moments_vanish(delta):
    # the far field drops the f(z) sum(b_q / (w_q - z)) term, whose multipole
    # moments are those of the template's dbar(phi) weights: they vanish to
    # 3.2e-8 of their scale sum |b_q| (delta/sqrt 2)^m
    ps = PieceSet(build_partition(delta, (0j, 1 + 1j)), make_function("monomial"))
    scale = np.abs(ps.b).sum()
    for m in range(PieceSet.N_MOMENTS + 1):
        moment = (ps.b * ps.offsets ** m).sum()
        assert abs(moment) <= 1e-7 * scale * (delta / math.sqrt(2.0)) ** m, m


def test_patch_table_and_far_tiers_match_the_per_pair_oracles(zbar_cut):
    # the patch table, one frame per point for the four bumps over its cell,
    # against the per-pair rule with its own cell lookup; and the far tiers
    # against all moments, just past each tier's start, where its dropped
    # tail is largest.  At delta 0.375 the pitch delta/6 is 1/16, so the
    # lattice lines are dyadic, points on cell and support edges are exact
    # and both lookups agree on the cell (at delta 0.25 the pitch is not dyadic)
    delta = 0.375
    partition = build_partition(delta, BOX)
    ps = PieceSet(partition, zbar_cut)
    assert (delta / PieceSet.CELLS).hex() == "0x1.0000000000000p-4"
    j = _bump_near(partition, 1.0 + 0.5j)
    c = partition.centers_array()[j]
    h, pitch = ps.half, delta / PieceSet.CELLS
    rng = seed_stream(21, "vitushkin.patch")
    t = rng.uniform(-h, h, 8)
    edges = -h + pitch * np.arange(1, PieceSet.CELLS)
    z = np.concatenate([
        c + ps.offsets[[0, 57, 777, ps.offsets.size - 1]],  # on template nodes
        c + edges + 1j * t[0], c + t[1] + 1j * edges,  # on cell edges
        c - h + 1j * t[2:4], c + t[4:6] - 1j * h, [c - h - 1j * h],  # on support edges
        c + rng.uniform(-h, h, 6) + 1j * rng.uniform(-h, h, 6)])
    fz = zbar_cut.value(z)
    gx, gy = ps._cells(z)
    table = ps._patch_table(z, fz, gx, gy)
    half_cells = PieceSet.CELLS // 2
    for kx in (0, 1):
        for ky in (0, 1):
            bumps = (gy // half_cells - 1 + ky) * partition.ni + gx // half_cells - 1 + kx
            want = patch_per_pair(ps, partition.centers_array()[bumps], z, fz)
            assert np.all(np.abs(table[:, kx, ky] - want) <= 1e-14 * np.abs(want))
    k = np.array([1, 2, 4, 8, 16, 32])
    far = c + (k[:, None] * delta * (1 + 1e-9) * np.exp(2j * np.pi * rng.random(4))).ravel()
    want = far_field_all_moments(ps, j, far)
    assert np.all(np.abs(ps.eval(j, far) - want) <= 1e-14 * np.abs(want))


def _polar_frame_sorted(zs, x0, x1, y0, y1, delta):
    """The polar frame with its corner angles sorted and each ray's nearer exit taken."""
    m = 1e-12 * delta
    zr = np.clip(zs.real, x0 + m, x1 - m)
    zi = np.clip(zs.imag, y0 + m, y1 - m)
    ze = zr + 1j * zi
    corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1], axis=1)
    th = np.sort(np.angle(corners - ze[:, None]), axis=1)
    th_edges = np.concatenate([th, th[:, :1] + 2 * math.pi], axis=1)
    widths = np.diff(th_edges, axis=1)
    gt, wt = gauss_legendre_01(PieceSet.PATCH_NT)
    TH = th_edges[:, :4, None] + widths[:, :, None] * gt[None, None, :]
    WT = widths[:, :, None] * wt[None, None, :]
    ct, st = np.cos(TH), np.sin(TH)
    x0, x1, y0, y1, zr, zi = (v[:, None, None] for v in (x0, x1, y0, y1, zr, zi))
    with np.errstate(divide="ignore"):
        tx = np.where(ct > 0, (x1 - zr) / ct, np.where(ct < 0, (x0 - zr) / ct, np.inf))
        ty = np.where(st > 0, (y1 - zi) / st, np.where(st < 0, (y0 - zi) / st, np.inf))
    return ze, np.exp(1j * TH), WT, np.minimum(tx, ty)


@pytest.mark.parametrize("delta", [1e-3, 0.05, 0.4])
def test_polar_frame_takes_the_corners_in_their_fixed_order(delta):
    # seen from z in its cell the corners, counterclockwise from the lower
    # left, already ascend, and each panel's rays leave through one side: the
    # frame equals the sorted angles and nearer exits bit for bit, for z
    # inside its cell, on its edges and corners, and off it, where the clip
    # moves z just inside (a fraction 1e-13 of the pitch is under the clip's
    # margin of 1e-12 delta)
    rng = seed_stream(29, "vitushkin.frame")
    p = delta / PieceSet.CELLS
    o = complex(-7.5 * delta / 2, -5.5 * delta / 2)  # the lattice origin of bump (-7, -5)
    special = np.array([0.0, 1.0, 1e-13, 1 - 1e-13, -1e-3, 1 + 1e-3])
    u, v = rng.random((2, 96))
    u[:36], v[:36] = np.repeat(special, 6), np.tile(special, 6)
    u[36:42], v[42:48] = special, special
    gx, gy = rng.integers(0, 40, (2, u.size))
    x0, x1 = o.real + gx * p, o.real + (gx + 1) * p
    y0, y1 = o.imag + gy * p, o.imag + (gy + 1) * p
    # edges and corners take the bits of the cell's own edges
    zr = np.where(u == 0, x0, np.where(u == 1, x1, o.real + (gx + u) * p))
    zi = np.where(v == 0, y0, np.where(v == 1, y1, o.imag + (gy + v) * p))
    got = _polar_frame(zr + 1j * zi, x0, x1, y0, y1, delta)
    want = _polar_frame_sorted(zr + 1j * zi, x0, x1, y0, y1, delta)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_polar_frame_covers_its_rect_where_z_rounds_onto_a_side():
    # at 4096 the clip's margin, 1e-12 delta, is under half an ulp, so a z on
    # a side or a corner stays there; its corners' angles still ascend and
    # the rays sweep the rect once: the sum of r^2/2 dtheta is its area
    delta = 0.05
    p = delta / PieceSet.CELLS
    x0, x1, y0, y1 = 4096 + 3 * p, 4096 + 4 * p, 4096 + 5 * p, 4096 + 6 * p
    xm, ym = x0 + 0.37 * p, y0 + 0.61 * p
    z = np.array([xm + 1j * y0, x1 + 1j * ym, xm + 1j * y1, x0 + 1j * ym,
                  x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1, xm + 1j * ym])
    rect = [np.full(z.size, t) for t in (x0, x1, y0, y1)]
    ze, e, wt, r = _polar_frame(z, *rect, delta)
    assert np.array_equal(ze[:8], z[:8])
    assert np.all(wt >= 0) and np.all(np.isfinite(r)) and np.all(r >= 0)
    assert np.all(np.abs((0.5 * r ** 2 * wt).sum(axis=(1, 2)) / p ** 2 - 1) <= 1e-9)


def test_eval_matches_unblocked_on_and_next_to_a_node(partition, zbar_cut):
    # z on a template node, and 1e-16 delta off it in x, in y and in both: the
    # node lies in z's own cell, whose nodes take no kernel entry
    ps = PieceSet(partition, zbar_cut)
    j = _bump_near(partition, 0.1 + 0.1j)
    node = partition.centers_array()[j] + ps.offsets[57]
    z = node + 1e-16 * DELTA * np.array([0, 1, 1j, 1 + 1j])
    assert np.unique(z).size == z.size
    assert np.all(np.isfinite(ps.eval(j, z)))
    _assert_eval_matches_unblocked(ps, j, z)


def test_piece_is_continuous_at_a_template_node(zbar_cut):
    # the polar patch stands in for z's own cell, so nothing near 1/0 is
    # screened out and subtracted back as z moves off one of its nodes
    delta = 0.1
    ps = PieceSet(build_partition(delta, (-1.2 - 1.2j, 1.2 + 1.2j)), zbar_cut)
    js = ps.active_pieces(range(ps.partition.n_bumps))
    j = js[len(js) // 2]
    node = ps.partition.centers_array()[j] + ps.offsets[777]
    t = np.array([1e-16, 1e-15, 2e-15, 1e-14, 1e-12])
    on, *off = ps.eval(j, np.concatenate([[node], node + t * delta]))
    assert np.all(np.abs(np.array(off) - on) <= 1e-9 * abs(on))


def test_eval_matches_unblocked_on_a_dense_contour(zbar_cut):
    # at delta 0.4 each support holds over 200 curve points
    part = build_partition(0.4, (-2 - 2j, 2 + 2j))
    ps = PieceSet(part, zbar_cut)
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for w in (1.0, np.exp(0.7j), np.exp(2.3j)):
        j = _bump_near(part, w)
        dz = z - part.centers_array()[j]
        assert np.count_nonzero((np.abs(dz.real) < ps.half) & (np.abs(dz.imag) < ps.half)) > 200
        _assert_eval_matches_unblocked(ps, j, z)


# ---------------------------------------------------------------------------
# pieces evaluated in blocks against one piece at a time

def _hex(values: dict) -> dict:
    return {j: (v.real.hex(), v.imag.hex()) for j, v in values.items()}


def _assert_blocks_match_per_piece(ps, js, curve):
    got = ps.contour_integrals(js, curve)
    assert list(got) == list(dict.fromkeys(js))
    assert _hex(got) == _hex(contour_integrals_per_piece(ps, js, curve, order=ps.PANEL_ORDER))


def _pieces_per_block(ps, curve):
    n_points = panel_nodes(curve, ps.half, ps.PANEL_ORDER)[0].size
    return min(max(_BLOCK // (2 * n_points), 1), PieceSet.BLOCK_PIECES)


def _sweep_pieces(curve, delta, f):
    part = sweep_partition(curve, delta)
    cand = np.nonzero(_meets_curve(curve, part.centers_array(), delta))[0]
    ps = PieceSet(part, f)
    return part, ps, ps.active_pieces(cand.tolist())


def test_eval_hands_each_piece_its_row_of_a_block(partition, zbar_cut):
    # an active piece with points inside its support, one beyond them, and
    # one past the cutoff, where f is 0 and the piece vanishes.  Each piece
    # also gets one point exactly k delta off its center for each far tier
    # (k, n): the lattice is dyadic at delta 0.25, so |z - c| is exact, and
    # every piece of the block has pairs in every tier, each at its lower edge
    ps = PieceSet(partition, zbar_cut)
    js = [_bump_near(partition, w) for w in (1.0 + 0.5j, 0.2j, 2.45)]
    assert ps.active_pieces(js) == js[:2]
    c = partition.centers_array()[js]
    ks = np.array([k for k, _ in PieceSet.FAR_TIERS])
    r = np.linspace(0.0, 0.6, 40)
    z = np.concatenate([1.0 + 0.5j + r * np.exp(2j * np.pi * 7 * r),
                        (c[:, None] + DELTA * ks * np.resize([1, 1j, -1, -1j], ks.size)).ravel()])
    dist = np.abs(z[None, :] - c[:, None])
    assert all(np.any(dist == k * DELTA, axis=1).all() for k in ks)
    block = ps._eval_block(js, z, zbar_cut.value(z), ps._cells(z), None)
    for j, row in zip(js, block):
        assert np.array_equal(row.view(np.uint8), ps.eval(j, z).view(np.uint8))
    for j, row in zip(js[:2], block):  # the oracle gives an inactive piece exact zeros
        assert np.array_equal(row.view(np.uint8), piece_eval_unblocked(ps, j, z).view(np.uint8))
    rows = dict(zip(js, block))
    want = dict(rows)
    assert all(ps.eval(j, z, rows) is want[j] for j in js) and rows == {}


@pytest.mark.parametrize("n_edges", [64, 16])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_contour_integrals_match_per_piece_at_the_block_edge(zbar_cut, extra, n_edges, monkeypatch):
    # 64 edges at delta 0.1 take 2 panels of 6 nodes each: 768 contour points.
    # 16 edges at delta 0.2 take 4 panels of 2 nodes: 128 points, under 171,
    # so BLOCK_PIECES caps the block
    delta, order = {64: (0.1, 6), 16: (0.2, 2)}[n_edges]
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", order)
    curve = make_curve("circle", n=n_edges)
    _, ps, js = _sweep_pieces(curve, delta, zbar_cut)
    step = _pieces_per_block(ps, curve)
    assert 1 < step <= PieceSet.BLOCK_PIECES
    assert (step == PieceSet.BLOCK_PIECES) == (n_edges == 16)
    for n in (step + extra, 2 * step + extra):
        _assert_blocks_match_per_piece(ps, js[:n], curve)


def test_contour_integrals_match_per_piece_on_many_panels_per_edge(zbar_cut):
    # each edge of a 16-gon is about 0.39 long: at delta 0.1 it takes 8
    # panels of at most the lattice spacing delta/2
    curve = make_curve("circle", n=16)
    _, ps, js = _sweep_pieces(curve, 0.1, zbar_cut)
    assert np.all(np.ceil(np.abs(curve.edge_vectors) / ps.half) == 8)
    step = _pieces_per_block(ps, curve)
    assert len(js) > step
    _assert_blocks_match_per_piece(ps, js, curve)


def test_piece_data_calls_f_on_bounded_blocks(zbar_cut, monkeypatch):
    # a short contour takes BLOCK_PIECES pieces per block, more fine nodes
    # than _BLOCK, yet f sees at most _BLOCK values per call
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", 2)
    sizes = []

    def value(z):
        sizes.append(np.size(z))
        return zbar_cut.value(z)

    curve = make_curve("circle", n=16)
    _, ps, js = _sweep_pieces(curve, 0.2, dataclasses.replace(zbar_cut, value=value))
    assert _pieces_per_block(ps, curve) == PieceSet.BLOCK_PIECES
    assert PieceSet.BLOCK_PIECES * ps.offsets.size > _BLOCK
    want = contour_integrals_per_piece(ps, js[:PieceSet.BLOCK_PIECES], curve, order=ps.PANEL_ORDER)
    sizes.clear()
    assert _hex(ps.contour_integrals(js[:PieceSet.BLOCK_PIECES], curve)) == _hex(want)
    assert max(sizes) <= _BLOCK


def test_contour_integrals_match_per_piece_at_delta_4(monkeypatch):
    # at delta 4 the multipole powers of the node offsets are large, and
    # every edge of the radius-3 circle is one panel of 6 nodes
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", 6)
    curve = make_curve("circle", n=32, radius=3.0)
    part = build_partition(4.0, (-6 - 6j, 6 + 6j))
    ps = PieceSet(part, with_cutoff(make_function("monomial", a=0, b=1), 5.0, 9.0))
    js = ps.active_pieces(range(part.n_bumps))
    assert len(js) > _pieces_per_block(ps, curve)
    _assert_blocks_match_per_piece(ps, js, curve)


def test_contour_integrals_match_per_piece_with_inactive_and_far_pieces(monkeypatch):
    # f vanishes outside |z| = 0.8, so the pieces on the far side of the
    # off-center circle are identically zero
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", 6)
    f = with_cutoff(make_function("monomial", a=0, b=1), 0.5, 0.8)
    curve = make_curve("circle", n=64, center=0.6)
    part = build_partition(0.1, (-1.0 - 1.6j, 2.2 + 1.6j))
    ps = PieceSet(part, f)
    near = np.nonzero(_meets_curve(curve, part.centers_array(), 0.1))[0].tolist()[::3]
    far = [_bump_near(part, w) for w in (0.6, 0.3 + 0.1j, 0.5 - 0.3j, 0.7 + 0.2j)]
    on = set(ps.active_pieces(near + far))
    assert set(far) <= on and 0 < len(on & set(near)) < len(near)
    assert all(np.min(np.abs(curve.vertices - part.centers_array()[j])) > 0.2 for j in far)
    js = ps.active_pieces(near[:len(near) // 2] + far + near[len(near) // 2:])
    _assert_blocks_match_per_piece(ps, js, curve)


def test_contour_integrals_match_per_piece_when_patch_blocks_span_pieces(zbar_cut, monkeypatch):
    # the contour's patch table is built once, in blocks of nodes; each node
    # serves the four bumps over its cell, so a table block holds the inside
    # nodes of several pieces, and a piece's inside nodes span table blocks
    monkeypatch.setattr(PieceSet, "PANEL_ORDER", 6)
    curve = make_curve("circle", n=64)
    part, ps, js = _sweep_pieces(curve, 0.4, zbar_cut)
    zc = panel_nodes(curve, ps.half, ps.PANEL_ORDER)[0]
    js = js[:_pieces_per_block(ps, curve) + 3]
    block = np.arange(zc.size) // _PATCH_BLOCK
    spans = []
    for j in js:
        dz = zc - part.centers_array()[j]
        inside = (np.abs(dz.real) < ps.half) & (np.abs(dz.imag) < ps.half)
        spans.append(set(block[inside]))
    assert zc.size > _PATCH_BLOCK and any(len(b) > 1 for b in spans)
    assert any(spans[i] & spans[k] for i in range(len(js)) for k in range(i))
    _assert_blocks_match_per_piece(ps, js, curve)
