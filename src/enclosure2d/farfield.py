"""Far-field patterns, the far-field equation, and its unsolvability.

The far-field pattern of the single-layer representation is

    F(phi) = e^{i pi/4} / sqrt(8 pi k) * int e^{-ik phi.z} density(z) ds(z).

Assembling F over incidence/observation direction grids yields the
far-field operator of the linear sampling method.  The far-field
equation F g = far-field b of a point source at y has no exact solution
for polygonal scatterers; numerically the Tikhonov-regularized solution
norm blows up with no plateau as the regularization parameter decreases.
One SVD U diag(s) V^H of B = sqrt(w_o) w_i F serves every alpha and every
sample point: g = V diag(s / (s^2 + alpha w_i)) U^H c with c = sqrt(w_o) b,
and s with the Picard coefficients |U^H c| is the discrete Picard evidence.
The sampling map forms only the norms: per block of points one product
U^H c and its squared moduli.  The relative residual, which needs
c - U U^H c, is formed only for the sweep's one sample point.
Each operator is built from one phase product over all its incidences and
keeps its SVD once computed, so every sweep and map on it reuses both.
The disc series operator, probed at its center, is the solvable contrast
case that does not depend on the polygon solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .fields import PlaneWave
from .forward import DiscSeriesSolution, build_mesh, solve_incidents
from .geometry import Direction, Scene

__all__ = [
    "FarFieldOperator",
    "far_field_constant",
    "assemble_far_field_operator",
    "disc_far_field_operator",
    "unsolvability_diagnostic",
    "lsm_indicator_map",
]


def far_field_constant(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 pi k), the free-space far-field normalization."""
    return np.exp(0.25j * np.pi) / math.sqrt(8 * math.pi * k)


@dataclass(frozen=True)
class FarFieldOperator:
    """Discretized far-field kernel over direction grids."""

    matrix: np.ndarray       # (N_obs, N_inc)
    obs_angles: np.ndarray
    inc_angles: np.ndarray
    k: float

    @property
    def inc_weight(self) -> float:
        return 2 * np.pi / len(self.inc_angles)

    @property
    def obs_weight(self) -> float:
        return 2 * np.pi / len(self.obs_angles)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, V^H) of sqrt(w_o) w_i F, computed on first use and kept."""
        return np.linalg.svd(math.sqrt(self.obs_weight) * self.inc_weight * self.matrix, full_matrices=False)

    def reciprocity_defect(self) -> float:
        """max |F(phi, d) - F(-d, -phi)| when both grids close under negation."""
        n_obs, n_inc = self.matrix.shape
        if n_obs != n_inc or n_inc % 2:
            raise DomainError("reciprocity check needs matching even direction grids")
        half = n_inc // 2
        # flipped[i, j] = F at (-d_j, -phi_i); negation = half-grid shift
        flipped = np.roll(np.roll(self.matrix, -half, axis=0), -half, axis=1).T
        return float(np.max(np.abs(self.matrix - flipped)))


def assemble_far_field_operator(
    scene: Scene,
    n_obs: int,
    n_inc: int,
    nodes_per_edge: int = 64,
    p_grade: float = 4.0,
) -> FarFieldOperator:
    """One plane-wave solution per incidence column, all from one ``solve_incidents`` call."""
    if n_obs < 1 or n_inc < 1:
        raise DomainError("need at least one observation and one incidence direction")
    obs_angles = 2 * np.pi * np.arange(n_obs) / n_obs
    inc_angles = 2 * np.pi * np.arange(n_inc) / n_inc
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
    k = scene.wavenumber_k
    sols = solve_incidents(scene, [PlaneWave(Direction.from_angle(ang)) for ang in inc_angles], mesh)
    densities = np.column_stack([sol.density for sol in sols])
    phi_hat = np.column_stack([np.cos(obs_angles), np.sin(obs_angles)])
    phases = np.exp(-1j * k * (phi_hat @ mesh.nodes.T))
    matrix = far_field_constant(k) * phases @ (densities * mesh.weights[:, None])
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=k)


def disc_far_field_operator(radius: float, k: float, n_obs: int, n_inc: int) -> FarFieldOperator:
    """Far-field operator of a sound-hard disc at the origin, via the series.

    The disc is rotation invariant, so F(phi, d) = F_0(phi - d) with F_0
    the pattern of the one series at incidence angle 0.
    """
    obs_angles = 2 * np.pi * np.arange(n_obs) / n_obs
    inc_angles = 2 * np.pi * np.arange(n_inc) / n_inc
    series = DiscSeriesSolution((0.0, 0.0), radius, k, PlaneWave(Direction.from_angle(0.0)))
    matrix = series.far_field(obs_angles[:, None] - inc_angles[None, :])
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=k)


_POINT_BLOCK = 256  # sample points per block: a map's working set is (N_obs, block)


def _weighted_rhs(op: FarFieldOperator, points) -> np.ndarray:
    """sqrt(w_o) times the point-source far fields, one column per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    return math.sqrt(op.obs_weight) * far_field_constant(op.k) * np.exp(-1j * op.k * (phi_hat @ points.T))


def _tikhonov_norms(op: FarFieldOperator, alphas, points) -> np.ndarray:
    """||g_alpha(y)||, shaped (alphas, points), from the operator's SVD.

    ||g|| is the norm of the filtered coefficients s / (s^2 + alpha w_i)
    U^H c, so a block of points costs one product with U^H and the
    squared moduli |U^H c|^2.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise DomainError("regularization parameters must be finite and positive")
    if not np.all(np.isfinite(points)):
        raise DomainError("sample points must be finite")
    u, s, _ = op.svd
    u_h = u.conj().T
    filtered = s / (s**2 + op.inc_weight * alphas[:, None])
    norms = np.empty((len(alphas), len(points)))
    for start in range(0, len(points), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        power = np.abs(u_h @ _weighted_rhs(op, points[block])) ** 2
        norms[:, block] = np.sqrt(op.inc_weight * (filtered**2 @ power))
    return norms


@dataclass(frozen=True)
class GrowthReport:
    alphas: np.ndarray
    norms: np.ndarray
    residuals: np.ndarray
    loglog_slope: float     # d log ||g|| / d log(1/alpha)
    no_plateau: bool
    singular_values: np.ndarray  # s_i of sqrt(w_o) w_i F, non-increasing
    picard: np.ndarray           # |u_i^H sqrt(w_o) b| for the sample point


def unsolvability_diagnostic(op: FarFieldOperator, y, alphas) -> GrowthReport:
    """Regularized-norm blow-up report across a decreasing alpha sweep.

    ``no_plateau`` is true when the norms are strictly increasing over
    the last three decades of alpha with growth ratio above 2 per decade,
    the desk-scale observable of the rhs lying outside the operator range.
    """
    alphas = np.asarray(alphas, dtype=float)
    norms = _tikhonov_norms(op, alphas, y)[:, 0]
    u, s, _ = op.svd
    if len(alphas) < 5 or np.any(np.diff(alphas) >= 0):
        raise DomainError("need >= 5 strictly decreasing alpha values")
    if math.log10(alphas[0] / alphas[-1]) < 4:
        raise DomainError("alpha sweep must span at least 4 decades")
    # the residual is the filtered-out part of the coefficients plus c outside range(U)
    c = _weighted_rhs(op, y)
    coeffs = u.conj().T @ c
    damping = op.inc_weight * alphas[:, None]
    missed = damping / (s**2 + damping)
    outside = np.sum(np.abs(c - u @ coeffs) ** 2, axis=0)
    resids = np.sqrt((missed**2 @ np.abs(coeffs) ** 2 + outside) / np.sum(np.abs(c) ** 2, axis=0))[:, 0]
    slope = float(np.polyfit(np.log10(1.0 / alphas), np.log10(norms), 1)[0])

    window = alphas <= alphas[-1] * 1e3  # last three decades
    nw, aw = norms[window], alphas[window]
    increasing = bool(np.all(np.diff(nw) > 0))
    decades = math.log10(aw[0] / aw[-1])
    ratio_per_decade = (nw[-1] / nw[0]) ** (1.0 / decades) if decades > 0 else 1.0
    return GrowthReport(
        alphas=alphas,
        norms=norms,
        residuals=resids,
        loglog_slope=slope,
        no_plateau=bool(increasing and ratio_per_decade > 2.0),
        singular_values=s,
        picard=np.abs(coeffs[:, 0]),
    )


def lsm_indicator_map(op: FarFieldOperator, points, alpha: float | None = None) -> np.ndarray:
    """1 / ||g_alpha(y)|| over a grid of sample points (larger ~ inside)."""
    if alpha is None:
        alpha = max(1e-6 * float(np.max(np.abs(op.matrix))) ** 2, 1e-300)
    with np.errstate(divide="ignore"):  # a zero operator gives zero norms, an infinite map
        return 1.0 / _tikhonov_norms(op, alpha, points)[0]
