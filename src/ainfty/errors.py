"""Exception hierarchy shared by all modules.

Every domain failure derives from :class:`AinftyError` so callers (and the
CLI) can distinguish "the math said no" from programming errors.
"""


class AinftyError(Exception):
    """Base class for domain errors."""


class TailUnresolved(AinftyError):
    """A tail bound cannot certify the requested quantity at the allowed
    truncation (missing oracle, or max truncation exhausted)."""


class QuadratureUnresolved(AinftyError):
    """Quadrature panels cannot meet the requested tolerance."""


class SingularPoint(AinftyError):
    """The queried point coincides with a center (within machine tolerance)."""


class SegmentHitsCenter(AinftyError):
    """A fiber point lies on the closed vertical segment of a flow integral."""


class RayHitsCenter(AinftyError):
    """A center lies on the open ray of a radial distance integral."""


class UnknownOrderType(AinftyError):
    """A fiber's asymptotic order type was queried but never declared."""


class InsufficientRange(AinftyError):
    """The growth experiment grid spans less than one decade."""


class NotChartAdmissible(AinftyError):
    """Chart machinery requires every center to have nonzero real part."""


class WrongDivisor(AinftyError):
    """A multiplier's divisor does not match the section pair it is used with."""


class OutsideOverlap(AinftyError):
    """A transition map was evaluated at a base point outside the chart overlap."""


class SectionMismatch(AinftyError):
    """A point's quotient class does not lie on the section of the chart."""


class NotIsomorphic(AinftyError):
    """Order-isomorphism data was requested for configurations that fail the
    fiberwise criterion."""


class FixedPointInput(AinftyError):
    """The isomorphism map is only evaluated away from fixed points."""


class ModulusOutOfRange(AinftyError):
    """A chart coordinate's modulus exp(log-modulus) overflows or underflows
    the normal float range (the message gives the log-modulus)."""


class RootBracketFailure(AinftyError):
    """The chart solver could not converge to its target inside the gap
    (should not happen for admissible inputs; the message names the gap,
    the target and the last height)."""
