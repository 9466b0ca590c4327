"""Exception hierarchy shared by all minsurf modules."""


class MinsurfError(Exception):
    """Base class for all library errors."""


class ParseError(MinsurfError):
    """Expression text could not be parsed; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationSingularity(MinsurfError):
    """Division by zero, log of zero, or overflow during evaluation."""


class SingularPath(MinsurfError):
    """Integration segment hits a puncture or branch cut."""


class NoConvergence(MinsurfError):
    """Adaptive quadrature hit the subdivision depth cap."""


class DimensionMismatch(MinsurfError):
    """Matrix dimension does not match curve component count."""


class InvalidConstant(MinsurfError):
    """A construction constant violates its precondition (e.g. C = 0)."""


class AxisNotMonotone(MinsurfError):
    """Requested level set is not a parameter line of the immersion."""


class DegenerateInput(MinsurfError):
    """Point set too degenerate for the requested fit (e.g. collinear)."""


class NotPlanar(MinsurfError):
    """Curve sample is not planar enough for a conic fit."""


class IllConditioned(MinsurfError):
    """Conic fit is ambiguous (two near-equal smallest singular values)."""


class NotHyperbola(MinsurfError):
    """Asymptotes requested for a conic that is not a hyperbola."""


class DegenerateConic(MinsurfError):
    """Eccentricity requested for a degenerate conic."""
