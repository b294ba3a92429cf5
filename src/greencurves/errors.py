"""Exception types shared across the package."""


class GreenCurvesError(Exception):
    """Base class for all library errors."""


class DegenerateOverlap(GreenCurvesError):
    """Two distinct curve edges are collinear and overlap in a positive-length segment."""


class UnknownFamily(GreenCurvesError):
    """A curve or function family name is not in the gallery."""


class OnCurve(GreenCurvesError):
    """A query point lies on (or too close to) the curve."""


class PoleOnCurve(GreenCurvesError):
    """The integrand has a pole on or too close to the integration contour."""


class RadiusJitterNeeded(GreenCurvesError):
    """A curve is tangent to the test circle or has a vertex on it; retry with a jittered radius."""


class NestingViolation(GreenCurvesError):
    """Boundary intervals are neither nested nor disjoint; indicates a geometry bug."""


class BoundViolated(GreenCurvesError):
    """A proven bound failed numerically; indicates a geometry bug, not a tolerance issue."""


class ParseError(GreenCurvesError):
    """A scenario or render input does not parse, or a check gives a number JSON cannot hold."""


class KindMismatch(GreenCurvesError):
    """A renderer was given input of the wrong kind."""
