"""Exception types shared across the toolkit."""


class SixVertexError(Exception):
    """Base class for all toolkit errors."""


class NonConvergence(SixVertexError):
    """Eigensolver failed to converge."""


class SingularSystem(SixVertexError):
    """Interpolation abscissae too close; Vandermonde system ill-conditioned."""


class PoleEncountered(SixVertexError):
    """A sinh denominator fell below the genericity threshold."""


class K0Undefined(SixVertexError):
    """Eigenstate overlap with the all-up reference state is numerically zero."""


class DegenerateSpectrum(SixVertexError):
    """Transfer-matrix spectrum too degenerate for per-state analysis."""


class SingularDenominator(SixVertexError):
    """Determinant formula evaluated at coinciding spectral parameters."""


class GenericityExhausted(SixVertexError):
    """Parameter resampling failed to produce a generic draw."""


class ConfigError(SixVertexError):
    """Invalid run configuration."""
