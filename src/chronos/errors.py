"""Exception hierarchy shared by all chronos modules."""


class ChronosError(Exception):
    """Base class for all errors raised by chronos."""


class DimensionError(ChronosError, ValueError):
    """Operands have incompatible or non-square shapes."""


class DomainError(ChronosError, ValueError):
    """A scalar argument lies outside its admissible range."""


class SingularityError(ChronosError, ValueError):
    """A matrix that must be inverted is (numerically) singular."""


class RangeError(ChronosError, OverflowError):
    """A result overflowed the representable floating-point range."""


class ConvergenceError(ChronosError, RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature refinement failed to converge."""


class ConfigError(ChronosError, ValueError):
    """Invalid configuration (unknown name, bad parameter, missing file)."""


class ConsistencyError(ChronosError, RuntimeError):
    """An internal cross-check (dissipativity, Philox key, contraction) failed."""


class ResourceError(ChronosError, RuntimeError):
    """A computation would exceed a hard resource cap."""
