"""Single-point-source enclosure method for 2D sound-hard obstacle scattering.

Simulates scattering of a point source (or plane wave) by polygonal
obstacles, computes growth indicators against complex-exponential probe
solutions, extracts the obstacle support function per direction,
reconstructs the convex hull, and demonstrates the unsolvability of the
far-field equation used by the linear sampling method.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    Enclosure2dError,
    GeometryError,
    NearFieldError,
    ReconstructionError,
    ResolutionError,
    SolverError,
)
from .geometry import Direction, Polygon, Scene, support_function
from .fields import PlaneWave, PointSource, ModulatedPlane, ProbeParams
from .forward import build_mesh, factorize, solve_scattering, DiscSeriesSolution
from .trace import TraceData, trace_direct, recover_neumann
from .indicator import compute_samples, estimate_support, estimate_supports, classify_threshold, reconstruct_hull
from .farfield import (
    assemble_far_field_operator,
    disc_far_field_operator,
    solve_far_field_equation,
    unsolvability_diagnostic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
