"""Exception types shared across the package."""


class CurvemapError(Exception):
    """Base class for all package errors."""


class InstanceError(CurvemapError):
    """Invalid input: malformed file, bad polynomial, violated precondition."""


class ZeroIdeal(CurvemapError):
    """Every supplied form was zero."""


class DegreeMismatch(CurvemapError):
    """Forms of incompatible degrees where equal degrees are required."""


class NotMonomial(CurvemapError):
    """A monomial-only operation received a non-monomial generator."""


class ZeroRow(CurvemapError):
    """A point annihilates every column of the syzygy matrix."""


class CertificationFailed(CurvemapError):
    """A randomized result violated one of its deterministic cross-checks.

    Resampling with a new seed, or a larger prime, usually resolves this.
    """


class SlopeNotStabilized(CurvemapError):
    """The Hilbert function did not reach a stable slope below the cap."""


class ResamplingExhausted(CurvemapError):
    """The retry budget for generic point sampling ran out."""


class InternalInvariantViolation(CurvemapError):
    """A structural identity that must hold by theorem failed to hold."""
