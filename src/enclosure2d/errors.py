"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: 0 ok; 2 config
(ConfigError, DomainError); 3 resolution (ResolutionError); 4 solver
(SolverError, NearFieldError, GeometryError); 5 reconstruction
(ReconstructionError).  Any other exception is a bug: it prints a
traceback and Python exits with code 1.
"""


class Enclosure2dError(Exception):
    """Base class for all package errors."""


class GeometryError(Enclosure2dError):
    """Invalid or degenerate geometric input."""


class DomainError(Enclosure2dError):
    """Argument outside the mathematical domain of a function."""


class ConfigError(Enclosure2dError):
    """Malformed or out-of-range configuration input."""


class ResolutionError(Enclosure2dError):
    """A grid or quadrature rule is too coarse for the requested computation."""


class SolverError(Enclosure2dError):
    """Forward solve failed or is untrustworthy (e.g. near-resonant system)."""


class NearFieldError(Enclosure2dError):
    """Evaluation point too close to the obstacle boundary for the quadrature."""


class ReconstructionError(Enclosure2dError):
    """Too little usable data to produce a reconstruction."""
