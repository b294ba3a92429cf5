"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s or in captured output);
the test name itself carries the verdict under pytest -v.
"""

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from greencurves import (GridSpec, PolyCurve, Square, gallery_curves,
                         index_field, jordan_decompose, make_curve, make_function,
                         verify_green, with_cutoff)
from greencurves._rng import seed_stream
from greencurves.cli import _check_green, run_scenario
from greencurves.functions import truncated_cauchy
from greencurves.integration import (contour_integral, green_on_square,
                                     mollifier_identity_check)
from greencurves.mainlemma import (Disc, bound_check, exterior_components,
                                   exterior_integral_identity, select_interval, with_jitter)
from greencurves.vitushkin import PieceSet, build_partition, delta_sweep
from greencurves.winding import distance_to_curve, winding_numbers

from class_sums import class_sums
from oracles import (clip_polygon_by_halfplane, finite_diff_dbar, grad_phi_norm, localize,
                     multiplicity, partition_sum, phi_two_sided, shoelace_area,
                     winding_by_angles)

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "greencurves" / "scenarios"
ZBAR = make_function("monomial", a=0, b=1)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_green_identity_simple_curve():
    t0 = time.perf_counter()
    c = make_curve("circle", n=256)
    rep = verify_green(c, ZBAR, 256, 3)
    target = 2j * shoelace_area(c.vertices)
    assert abs(rep.lhs - target) <= 1e-12 * abs(target)
    assert rep.rel_residual <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"circle-256 zbar: lhs exact to {abs(rep.lhs-target):.1e}, "
               f"rhs rel {rep.rel_residual:.1e}, {elapsed:.2f}s")


def test_criterion_02_green_identity_self_intersecting():
    t0 = time.perf_counter()
    b = make_curve("bowtie")
    dec = jordan_decompose(b)
    assert len(dec.loops) == 2
    target = 2j * sum(shoelace_area(lp.vertices) for lp in dec.loops)  # 2i (A+ - A-)
    rep = verify_green(b, ZBAR, 256, 4)
    assert abs(rep.lhs - target) <= 1e-12 * abs(target)
    assert rep.rel_residual <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"bowtie zbar: lhs = {rep.lhs:.6f} = 2i(A+ - A-), "
               f"rel residual {rep.rel_residual:.1e}, {elapsed:.2f}s")


def test_criterion_03_cauchy_corollary_polynomials():
    t0 = time.perf_counter()
    worst = 0.0
    gallery = gallery_curves()
    for deg in range(7):
        f = make_function("monomial", a=deg, b=0)
        for name, c in gallery:
            val = abs(contour_integral(c, f))
            fmax = float(np.max(np.abs(f.value(c.vertices))))
            budget = 1e-11 * (1 + sum(c.edge_lengths) * fmax)
            assert val <= budget, (name, deg, val, budget)
            worst = max(worst, val / budget)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"10 curves x degrees 0..6: worst residual at {worst:.2e} of budget, "
               f"{elapsed:.2f}s")


def test_criterion_04_winding_oracle_equivalence():
    rng = seed_stream(20240404, "acceptance.winding")
    total = 0
    for name, c in gallery_curves():
        lo, hi = c.bbox
        span = hi - lo
        pts = []
        while len(pts) < 1000:
            z = lo + complex(rng.uniform(-0.25, 1.25) * span.real,
                             rng.uniform(-0.25, 1.25) * span.imag)
            if distance_to_curve(c, np.array([z]), cap=np.inf)[0] > 1e-4 * c.diameter:
                pts.append(z)
        pts = np.array(pts)
        ray = winding_numbers(c, pts)
        ang = np.array([winding_by_angles(c.vertices, z) for z in pts])
        mismatches = int(np.sum(ray != ang))
        assert mismatches == 0, name
        total += len(pts)
    _report(4, f"{total} points across 10 curves, zero ray/angle mismatches")


def test_criterion_05_partition_of_unity():
    rng = seed_stream(20240405, "acceptance.partition")
    consts = {}
    for delta in (0.4, 0.1):
        part = build_partition(delta, (-1.5 - 1.5j, 1.5 + 1.5j))
        zs = rng.uniform(-1, 1, 10000) + 1j * rng.uniform(-1, 1, 10000)
        assert np.max(np.abs(partition_sum(part, zs) - 1.0)) <= 1e-12
        mult = multiplicity(part, zs)
        assert mult.max() <= 21
        j = int(np.argmin(np.abs(part.centers_array())))
        ts = np.linspace(-delta / 2, delta / 2, 801)
        zz = part.centers_array()[j] + ts[:, None] + 1j * ts[None, :]
        consts[delta] = float(grad_phi_norm(part, j, zz).max()) * delta
    drift = abs(consts[0.4] - consts[0.1]) / consts[0.4]
    assert drift <= 0.01
    _report(5, f"sum=1 to 1e-12, multiplicity <= 21, sup|grad phi|*delta = "
               f"{consts[0.4]:.4f} (drift {drift:.2e})")


def test_criterion_06_localization():
    delta = 0.25
    curve = make_curve("circle", n=256)
    f = with_cutoff(ZBAR, 1.8, 2.2)
    part = build_partition(delta, (-2.5 - 2.5j, 2.5 + 2.5j))
    # GridSpec.cover's box for the unit circle's bounding box dilated 2.4 times, not 1.5
    grid = GridSpec(-2.4 - 2.4j, 2.4 + 2.4j, 128, 128)
    fld = index_field(curve, grid, 2 * grid.cell_diag)

    # sup |f_j| / omega(f, delta) <= 50 over all pieces
    omega = f.modulus(delta, box=(-2.4 - 2.4j, 2.4 + 2.4j))
    ps = PieceSet(part, f)
    js = ps.active_pieces(range(part.n_bumps))
    rng = seed_stream(20240406, "acceptance.localization")
    worst = 0.0
    for j in js:
        c = part.centers_array()[j]
        zs = c + (rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)) * delta
        worst = max(worst, float(np.max(np.abs(ps.eval(j, zs)))))
    assert worst / omega <= 50.0

    # finite-difference dbar of the piece matches phi_j * dbar f at 200 points
    h = 2e-4
    sample_js = js[:: max(1, len(js) // 25)][:25]
    checked = 0
    for j in sample_js:
        c = part.centers_array()[j]
        pts = c + (rng.uniform(-0.9, 0.9, 8) + 1j * rng.uniform(-0.9, 0.9, 8)) * delta / 2
        fd = finite_diff_dbar(lambda w: localize(f, part, j, w), pts, h)
        assert np.all(np.abs(fd - phi_two_sided(part, j, pts) * f.dbar(pts)) <= 1e-4)
        checked += pts.size
    assert checked == 200

    cs = class_sums(f, part, curve, fld)
    assert abs(cs.total - cs.direct) <= 1e-3 * abs(cs.direct)
    assert abs(cs.s_iii) <= 1e-8
    _report(6, f"C_loc = {worst/omega:.2f} <= 50, dbar match at 200 pts, "
               f"sum rel {abs(cs.total-cs.direct)/abs(cs.direct):.1e}, "
               f"|S_III| = {abs(cs.s_iii):.1e}")


def test_criterion_07_delta_sweep():
    t0 = time.perf_counter()
    curve = make_curve("circle", n=256)
    f = with_cutoff(ZBAR, 1.8, 2.2)
    rows = delta_sweep(f, curve, [0.4, 0.2, 0.1, 0.05])
    vals = [r["s_ii_abs"] for r in rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 0.3 * vals[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, f"|S_II| = {['%.3f' % v for v in vals]}, final/initial = "
               f"{vals[-1]/vals[0]:.3f} <= 0.3, {elapsed:.1f}s")


def test_criterion_08_main_lemma_gallery():
    t0 = time.perf_counter()
    rng = seed_stream(20240408, "acceptance.mainlemma")
    trials = 0
    attempts = 0
    while trials < 200:
        attempts += 1
        n = int(rng.integers(16, 40))
        curve = make_curve("star", n=n, seed=int(rng.integers(0, 10 ** 6)))
        disc = Disc(center=complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                    radius=float(rng.uniform(0.25, 0.9)))
        disc = with_jitter(curve, disc, seed=attempts)
        comps, events = exterior_components(curve, disc)
        if not comps or comps[0].closed:
            continue
        kinds = [e.kind for e in events]
        assert all(a != b for a, b in zip(kinds, kinds[1:] + kinds[:1]))
        ring = [kinds[k] for k in np.argsort([e.angle for e in events])]
        assert all(a != b for a, b in zip(ring, ring[1:] + ring[:1]))
        for k, comp in enumerate(comps):
            select_interval(comp, disc, k)  # raises unless exactly one index-0 candidate
        h = truncated_cauchy(disc.center + 0.1 * disc.radius, 0.3 * disc.radius)
        rep = exterior_integral_identity(curve, disc, h)
        assert rep.abs_residual <= 1e-6
        assert rep.extras["piece_total_span"] <= 2 * math.pi + 1e-12
        bound_check(curve, disc, h)  # raises on violation
        sup_h = h.bounds(disc.center, disc.radius)[0]
        assert abs(rep.lhs) <= 2 * math.pi * sup_h * disc.radius * (1 + 1e-9)
        trials += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, f"200 triples: alternation, unique interval, identity <= 1e-6, "
               f"bound clean, {elapsed:.1f}s")


def test_criterion_09_dyadic_square_identity():
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    sq = Square(center=0.1 + 0.05j, half=0.125)
    rep = green_on_square(sq, ZBAR, curve, depth=7)
    rows = rep.extras["generations"]
    for row in rows[4:8]:
        assert row["remainder"] <= row["remainder_bound"] * (1 + 1e-9)
    # two-piece closed form for the boundary integral
    p, q = curve.vertices[0], curve.vertices[1]
    left = clip_polygon_by_halfplane(list(sq.corners), p, q, keep_left=True)
    right = clip_polygon_by_halfplane(list(sq.corners), p, q, keep_left=False)
    target = 2j * (shoelace_area(left) + shoelace_area(right))
    # rhs_n converges geometrically (error halves per depth); its limit,
    # estimated from the last two generations, matches the closed form
    r6 = complex(*rows[6]["rhs"])
    r7 = complex(*rows[7]["rhs"])
    limit = r7 + (r7 - r6)
    assert abs(limit - target) <= 1e-4
    _report(9, f"remainder bounds hold at n=4..7, extrapolated rhs matches closed form "
               f"to {abs(limit-target):.1e}")


def test_criterion_10_mollifier_identity():
    r1 = mollifier_identity_check(ZBAR, 0.2 + 0.1j, 0.05)
    assert abs(r1.lhs - 1) <= 1e-6 and abs(r1.rhs - 1) <= 1e-6
    f2 = make_function("monomial", a=2, b=0)
    r2 = mollifier_identity_check(f2, 0.2 + 0.1j, 0.05)
    assert abs(r2.lhs) <= 1e-8 and abs(r2.rhs) <= 1e-8
    f3 = make_function("monomial", a=1, b=1)
    r3 = mollifier_identity_check(f3, 0.3 + 0.1j, 0.05)
    assert r3.abs_residual <= 1e-6
    assert abs(r3.lhs - (0.3 + 0.1j)) <= 1e-6
    _report(10, f"residuals {r1.abs_residual:.1e} / "
                f"{max(abs(r2.lhs), abs(r2.rhs)):.1e} / {r3.abs_residual:.1e}")


def test_criterion_11_reproducibility(tmp_path):
    for scen in ("circle_zbar.json", "bowtie_green.json"):
        a, b = tmp_path / (scen + ".a"), tmp_path / (scen + ".b")
        run_scenario(str(SCEN_DIR / scen), out_dir=str(a))
        run_scenario(str(SCEN_DIR / scen), out_dir=str(b))
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes(), scen
    _report(11, "both bundled scenarios byte-identical across reruns")


def test_green_resolution_1024_wall_clock():
    # index field and area refinement touch only candidate edge/point pairs,
    # so the green identity at resolution 1024 stays interactive
    c = make_curve("circle", n=256)
    t0 = time.perf_counter()
    rep = verify_green(c, ZBAR, 1024, 3)
    elapsed = time.perf_counter() - t0
    assert rep.rel_residual <= 1e-3
    assert elapsed < 2.0
    print(f"ACCEPTANCE floor: PASS - circle-256 zbar at resolution 1024 in {elapsed:.2f}s")


def test_delta_sweep_wall_clock():
    # activity probes cover only the class-II candidates and the bump kernel
    # evaluates one branch per axis, so the criterion-7 sweep stays well
    # under its 60 s budget
    curve = make_curve("circle", n=256)
    f = with_cutoff(ZBAR, 1.8, 2.2)
    t0 = time.perf_counter()
    rows = delta_sweep(f, curve, [0.4, 0.2, 0.1, 0.05])
    elapsed = time.perf_counter() - t0
    assert all(a["s_ii_abs"] > b["s_ii_abs"] for a, b in zip(rows, rows[1:]))
    assert elapsed < 14.0
    print(f"ACCEPTANCE floor: PASS - circle-256 cut-off zbar delta sweep 0.4..0.05 in {elapsed:.2f}s")


def _peak_mb(fn):
    """Peak traced memory of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_green_resolution_1024_memory():
    # the index field, the clean-cell sum and each refinement level run in
    # fixed-size blocks, so the peak is the field and the one clean-cell array
    c = make_curve("circle", n=256)
    peak = _peak_mb(lambda: verify_green(c, ZBAR, 1024, 3))
    assert peak < 45.0
    print(f"ACCEPTANCE floor: PASS - circle-256 zbar at resolution 1024 peaks at {peak:.1f} MB")


def test_green_check_memory():
    # the probe check sums the probes' angles over the vertices in blocks of
    # about 32 k values: a (probes, vertices) array took about 2 kB per
    # vertex, 128 MB here.  The peak is now the contour integral's nodes
    c = make_curve("circle", n=65536)
    peak = _peak_mb(lambda: _check_green((64, 0), c, ZBAR, 1))
    assert peak < 45.0
    print(f"ACCEPTANCE floor: PASS - green check on circle-65536 at resolution 64 peaks at {peak:.1f} MB")


@pytest.mark.parametrize("name", ["trefoil-8000", "bowtie"])
def test_index_field_memory(name):
    # the (edge, cell) and (edge, row) pairs run in bounded chunks, so the
    # peak is the field itself (values, dist and near_mask: 17 MB) and little more
    c = make_curve("trefoil", n=8000) if name == "trefoil-8000" else make_curve("bowtie")
    grid = GridSpec.cover(c, 1024)
    peak = _peak_mb(lambda: index_field(c, grid, 2 * grid.cell_diag))
    assert peak < 19.0
    print(f"ACCEPTANCE floor: PASS - {name} index field at 1024x1024 peaks at {peak:.1f} MB")


def test_dyadic_square_memory():
    # dbar(f) runs over the depth-7 generation in fixed-size blocks, so the
    # peak is its one result array, not the temporaries of a whole pass
    curve = PolyCurve([-2 - 0.03j, 2 + 0.17j, 2 - 2j, -2 - 2j])
    sq = Square(center=0.1 + 0.05j, half=0.125)
    peak = _peak_mb(lambda: green_on_square(sq, with_cutoff(ZBAR, 1.8, 2.2), curve, depth=7))
    assert peak < 28.0
    print(f"ACCEPTANCE floor: PASS - depth-7 dyadic square peaks at {peak:.1f} MB")


def test_delta_sweep_memory():
    # the activity probe and the polar patch run in fixed-size blocks and the
    # kernel matrices are built in place
    curve = make_curve("circle", n=256)
    f = with_cutoff(ZBAR, 1.8, 2.2)
    peak = _peak_mb(lambda: delta_sweep(f, curve, [0.4, 0.2, 0.1, 0.05]))
    assert peak < 25.0
    print(f"ACCEPTANCE floor: PASS - circle-256 cut-off zbar delta sweep peaks at {peak:.1f} MB")


def test_class_sums_memory():
    # criterion 6's class sums: over 96 active pieces, whose data each
    # contour block builds for itself and drops when it is done, so no piece
    # data outlives its block into the class-I area integral
    curve = make_curve("circle", n=256)
    f = with_cutoff(ZBAR, 1.8, 2.2)
    part = build_partition(0.25, (-2.5 - 2.5j, 2.5 + 2.5j))
    # GridSpec.cover's box for the unit circle's bounding box dilated 2.4 times, not 1.5
    grid = GridSpec(-2.4 - 2.4j, 2.4 + 2.4j, 128, 128)
    fld = index_field(curve, grid, 2 * grid.cell_diag)
    assert len(PieceSet(part, f).active_pieces(range(part.n_bumps))) > PieceSet.BLOCK_PIECES
    peak = _peak_mb(lambda: class_sums(f, part, curve, fld))
    assert peak < 10.0
    print(f"ACCEPTANCE floor: PASS - criterion-6 class sums peak at {peak:.1f} MB")


def test_point_query_wall_clock():
    # a one-point query expands its edges into one pair list instead of
    # looping over every edge in Python
    c = make_curve("circle", n=4096)
    rng = seed_stream(5, "acceptance.point_query")
    pts = rng.uniform(-1.5, 1.5, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
    elapsed = math.inf
    for _ in range(3):  # best of three, so a busy machine does not decide
        t0 = time.perf_counter()
        d = [distance_to_curve(c, np.array([z]), cap=np.inf)[0] for z in pts]
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert np.allclose(d, np.abs(np.abs(pts) - 1.0), atol=1e-6)
    assert elapsed < 0.25
    print(f"ACCEPTANCE floor: PASS - 200 one-point distances to circle-4096 in {elapsed * 1e3:.0f}ms")
