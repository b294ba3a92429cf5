"""Vitushkin's class sums of the localized pieces, the harness of the localization tests.

Bump j is class II if its nominal disc (radius delta about its center) meets
the curve, else class I if the curve winds about its center and class III if
not.  ``class_sums`` sums ∮ f_j dz over the active pieces of each class with
``PieceSet``'s one rule, as ``delta_sweep`` sums class II, and sets the
class-I sum beside its area form 2i ∫ (sum of class-I bumps) dbar(f) Ind dA.
The library keeps only the class-II test, ``_meets_curve``, which the sweep
uses.
"""

import dataclasses
from dataclasses import dataclass

from greencurves.integration import area_integral_weighted, contour_integral
from greencurves.vitushkin import PieceSet, _meets_curve
from greencurves.winding import winding_numbers

from oracles import phi_two_sided

CLASS_I = "I"
CLASS_II = "II"
CLASS_III = "III"
CLASS_REFINE = 2  # refinement levels of the class-I area form


def classify_many(partition, js, curve) -> dict:
    """Class of each bump j: II if its disc meets the curve, else I or III by the index.

    A center whose disc misses the curve lies at least delta off it, so its
    exact winding number is the index on the whole disc: nonzero gives I,
    zero gives III.
    """
    js = list(js)
    centers = partition.centers_array()[js]
    meets = _meets_curve(curve, centers, partition.delta)
    wind = winding_numbers(curve, centers)
    return {j: CLASS_II if hit else CLASS_I if w else CLASS_III
            for j, hit, w in zip(js, meets, wind)}


@dataclass
class ClassSums:
    s_i: complex
    s_ii: complex
    s_iii: complex
    direct: complex
    area_form_i: complex
    counts: dict

    @property
    def total(self) -> complex:
        return self.s_i + self.s_ii + self.s_iii


def class_sums(f, partition, curve, fld) -> ClassSums:
    """Per-class sums of ∮ f_j dz, their direct total, and the area form for class I.

    The pieces take ``PieceSet``'s one rule, as in ``delta_sweep``.  The
    class-I area form integrates dbar(f) times the sum of the class-I bumps,
    each taken by ``oracles.phi_two_sided``, by the library's area
    quadrature on ``fld``, which needs at least 4 cells per delta to resolve
    the bumps (ValueError otherwise).
    """
    if max(fld.grid.cell_w, fld.grid.cell_h) > partition.delta / 4.0 * (1 + 1e-9):
        raise ValueError("index field needs at least 4 cells per delta")
    ps = PieceSet(partition, f)
    js = ps.active_pieces(range(partition.n_bumps))
    sums = {CLASS_I: 0j, CLASS_II: 0j, CLASS_III: 0j}
    counts = {CLASS_I: 0, CLASS_II: 0, CLASS_III: 0}
    classes = classify_many(partition, js, curve)
    for j, val in ps.contour_integrals(js, curve).items():
        sums[classes[j]] += val
        counts[classes[j]] += 1

    class_i = [j for j in js if classes[j] == CLASS_I]
    weighted = dataclasses.replace(
        f, dbar=lambda zs: f.dbar(zs) * sum((phi_two_sided(partition, j, zs) for j in class_i), 0.0))
    area, _ = area_integral_weighted(fld, weighted, refine=CLASS_REFINE)
    direct = contour_integral(curve, f)
    return ClassSums(s_i=sums[CLASS_I], s_ii=sums[CLASS_II], s_iii=sums[CLASS_III],
                     direct=direct, area_form_i=2j * area, counts=counts)
