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
The disc series operator, probed at its center, is the solvable contrast
case that does not depend on the polygon solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import PlaneWave, PointSource
from .forward import DiscSeriesSolution, ScatterSolution, build_mesh, eval_total, factorize
from .geometry import Direction, Scene

__all__ = [
    "FarFieldOperator",
    "far_field_constant",
    "far_field_pattern",
    "point_source_far_field_check",
    "assemble_far_field_operator",
    "disc_far_field_operator",
    "solve_far_field_equation",
    "unsolvability_diagnostic",
    "lsm_indicator_map",
]


def far_field_constant(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 pi k), the free-space far-field normalization."""
    return np.exp(0.25j * np.pi) / math.sqrt(8 * math.pi * k)


def far_field_pattern(sol: ScatterSolution, angles) -> np.ndarray:
    """Far-field of the scattered field at the given observation angles."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    k = sol.scene.wavenumber_k
    phi_hat = np.column_stack([np.cos(angles), np.sin(angles)])
    phases = np.exp(-1j * k * (phi_hat @ sol.mesh.nodes.T))
    return far_field_constant(k) * phases @ (sol.density * sol.mesh.weights)


def point_source_far_field_check(scene: Scene, d_angles, nodes_per_edge: int = 64, p_grade: float = 4.0) -> float:
    """Max relative discrepancy of the point-source far-field identity.

    Compares the far-field of the point-source total field against
    (e^{i pi/4}/sqrt(8 pi k)) u(y; -d, k), where u(y; -d, k) is the total
    plane-wave field at the source location with incidence -d.  The
    point-source and all plane-wave right-hand sides go through one LU
    solve.
    """
    d_angles = np.atleast_1d(np.asarray(d_angles, dtype=float))
    k = scene.wavenumber_k
    y = scene.source_y
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
    # incidence -d for every observation direction d
    plane_waves = [PlaneWave(Direction.from_angle(ang + np.pi)) for ang in d_angles]
    ps_sol, *pw_sols = factorize(scene, mesh).solve([PointSource(y)] + plane_waves)
    ff_scattered = far_field_pattern(ps_sol, d_angles)
    d_hat = np.column_stack([np.cos(d_angles), np.sin(d_angles)])
    ff_total = ff_scattered + far_field_constant(k) * np.exp(-1j * k * (d_hat @ y))
    rhs = far_field_constant(k) * np.array([eval_total(sol, y) for sol in pw_sols])
    scale = float(np.max(np.abs(ff_total)))
    return float(np.max(np.abs(ff_total - rhs)) / scale)


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

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Quadrature application int F(phi, d) g(d) ds(d)."""
        return self.inc_weight * (self.matrix @ g)

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
    """One plane-wave solution per incidence column, all from one LU solve."""
    obs_angles = 2 * np.pi * np.arange(n_obs) / n_obs
    inc_angles = 2 * np.pi * np.arange(n_inc) / n_inc
    matrix = np.zeros((n_obs, n_inc), dtype=complex)
    if scene.obstacles:
        mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
        sols = factorize(scene, mesh).solve(PlaneWave(Direction.from_angle(ang)) for ang in inc_angles)
        for j, sol in enumerate(sols):
            matrix[:, j] = far_field_pattern(sol, obs_angles)
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=scene.wavenumber_k)


def disc_far_field_operator(radius: float, k: float, n_obs: int, n_inc: int) -> FarFieldOperator:
    """Far-field operator of a sound-hard disc at the origin, via the series."""
    obs_angles = 2 * np.pi * np.arange(n_obs) / n_obs
    inc_angles = 2 * np.pi * np.arange(n_inc) / n_inc
    matrix = np.column_stack([DiscSeriesSolution((0.0, 0.0), radius, k, PlaneWave(Direction.from_angle(ang)))
                              .far_field(obs_angles) for ang in inc_angles])
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=k)


_POINT_BLOCK = 256  # sample points per block: a map's working set is (N_obs, block)


def _weighted_rhs(op: FarFieldOperator, points) -> np.ndarray:
    """sqrt(w_o) times the point-source far fields, one column per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    return math.sqrt(op.obs_weight) * far_field_constant(op.k) * np.exp(-1j * op.k * (phi_hat @ points.T))


def _tikhonov(op: FarFieldOperator, alphas, points):
    """Norms and relative residuals, shaped (alphas, points), and the SVD.

    ||g|| is the norm of the filtered coefficients s / (s^2 + alpha w_i)
    U^H c; the residual is their filtered-out part plus c outside range(U).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise DomainError("regularization parameters must be finite and positive")
    if not np.all(np.isfinite(points)):
        raise DomainError("sample points must be finite")
    u, s, vh = np.linalg.svd(math.sqrt(op.obs_weight) * op.inc_weight * op.matrix, full_matrices=False)
    damping = op.inc_weight * alphas[:, None]
    filtered, missed = s / (s**2 + damping), damping / (s**2 + damping)
    norms, resids = np.empty((2, len(alphas), len(points)))
    for start in range(0, len(points), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        c = _weighted_rhs(op, points[block])
        coeffs = u.conj().T @ c
        power = np.abs(coeffs) ** 2
        outside = np.sum(np.abs(c - u @ coeffs) ** 2, axis=0)
        norms[:, block] = np.sqrt(op.inc_weight * (filtered**2 @ power))
        resids[:, block] = np.sqrt((missed**2 @ power + outside) / np.sum(np.abs(c) ** 2, axis=0))
    return norms, resids, (u, s, vh)


def solve_far_field_equation(op: FarFieldOperator, y, alpha: float):
    """Tikhonov-regularized far-field equation solve for one sample point.

    Returns ``(g, norm, residual)`` with the L2(S1) quadrature-weighted
    density norm and the relative far-field residual.
    """
    norms, resids, (u, s, vh) = _tikhonov(op, alpha, y)
    g = vh.conj().T @ (s / (s**2 + alpha * op.inc_weight) * (u.conj().T @ _weighted_rhs(op, y)[:, 0]))
    return g, float(norms[0, 0]), float(resids[0, 0])


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
    norms, resids, (u, s, _) = _tikhonov(op, alphas, y)
    if len(alphas) < 5 or np.any(np.diff(alphas) >= 0):
        raise DomainError("need >= 5 strictly decreasing alpha values")
    if math.log10(alphas[0] / alphas[-1]) < 4:
        raise DomainError("alpha sweep must span at least 4 decades")
    norms, resids = norms[:, 0], resids[:, 0]
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
        picard=np.abs(u.conj().T @ _weighted_rhs(op, y)[:, 0]),
    )


def lsm_indicator_map(op: FarFieldOperator, points, alpha: float | None = None) -> np.ndarray:
    """1 / ||g_alpha(y)|| over a grid of sample points (larger ~ inside)."""
    if alpha is None:
        alpha = max(1e-6 * float(np.max(np.abs(op.matrix))) ** 2, 1e-300)
    with np.errstate(divide="ignore"):  # a zero operator gives zero norms, an infinite map
        return 1.0 / _tikhonov(op, alpha, points)[0][0]
