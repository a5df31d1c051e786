"""Exception types shared across the package."""


class CsbenchError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CsbenchError):
    """Operands have incompatible shapes."""


class RankDeficient(CsbenchError):
    """The sensing matrix does not have full row rank."""


class SolveFailed(CsbenchError):
    """A failure that hands back the best result computed before it.

    The result is attached as ``result`` (may be None when the failure
    happened before any iterate existed).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NumericalFailure(SolveFailed):
    """A solver produced a non-finite or degenerate quantity."""


class NotConverged(SolveFailed):
    """Iteration limit reached with the residual still above tolerance."""


class ZeroReferenceAmplitude(CsbenchError):
    """A reference scatterer has zero magnitude, the ratio is undefined."""


class ZeroImage(CsbenchError):
    """Image has no power; the requested metric is undefined."""


class CmatFormatError(CsbenchError):
    """A CMAT file is malformed."""
