"""Exception types shared across the package."""


class TwoDistError(Exception):
    """Base class for all package-specific errors."""


class AmbiguousCase(TwoDistError):
    """Rank-one update sits on a case boundary that tolerances cannot resolve."""


class AmbiguousPair(TwoDistError):
    """An inner product is within tolerance of both admissible values."""


class ParameterDomain(TwoDistError):
    """Code parameters outside the domain required by the requested operation."""


class CertificateInvalid(TwoDistError):
    """A construction was requested from a graph whose certificate is invalid."""


class ReconstructionResidual(TwoDistError):
    """Realized vectors fail to reproduce the target Gram matrix."""


class SizeGuardError(TwoDistError):
    """Instance exceeds the size this exhaustive routine is guarded for."""


class Graph6Error(TwoDistError):
    """Malformed graph6 input."""


class NotConnectedError(TwoDistError):
    """Operation requires a connected graph."""


class EmptyFamilyError(TwoDistError):
    """Graph family is empty after filtering."""
