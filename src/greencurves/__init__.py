"""Numerical verification of the generalized Green formula and Cauchy integral
theorem for closed rectifiable curves, with the localization, decomposition and
disc-geometry machinery exposed as independently testable algorithms."""

__version__ = "0.1.0"

from .curves import (IntersectionEvent, JordanDecomposition, PolyCurve, curve_families,
                     gallery_curves, is_jordan, jordan_decompose, length, make_curve,
                     self_intersections)
from .functions import (FunctionDescriptor, function_families, make_function,
                        truncated_cauchy, with_cutoff)
from .integration import (Square, VerificationReport, area_integral_weighted,
                          contour_integral, green_on_square, mollifier_identity_check,
                          verify_green)
from .mainlemma import (ArcComponent, BoundaryInterval, Disc, GenerationTree, bound_check,
                        build_generations, exterior_components, exterior_integral_identity,
                        select_interval, with_jitter)
from .vitushkin import Partition, PieceSet, build_partition, delta_sweep
from .winding import GridSpec, IndexField, index_field, winding_numbers
