"""Far-field patterns, the far-field equation, and its unsolvability.

The far-field pattern of the single-layer representation is

    F(phi) = e^{i pi/4} / sqrt(8 pi k) * int e^{-ik phi.z} density(z) ds(z).

Assembling F over incidence/observation direction grids yields the
far-field operator of the linear sampling method.  The far-field
equation F g = far-field of a point source at y has no exact solution
for polygonal scatterers; numerically this shows up as blow-up of the
Tikhonov-regularized solution norm with no plateau as the regularization
parameter decreases.  A disc probed at its center is the documented
solvable contrast case, assembled here straight from the separation
series so the contrast does not depend on the polygon solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError
from .fields import PlaneWave, PointSource
from .forward import (
    BoundaryMesh,
    DiscSeriesSolution,
    ScatterSolution,
    build_mesh,
    eval_total,
    factorize,
)
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
    matrix = np.zeros((n_obs, n_inc), dtype=complex)
    for j, ang in enumerate(inc_angles):
        sol = DiscSeriesSolution((0.0, 0.0), radius, k, PlaneWave(Direction.from_angle(ang)))
        matrix[:, j] = sol.far_field(obs_angles)
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=k)


class _TikhonovFactorization:
    """Cholesky of (alpha w_i I + w_o A* A), reusable across sample points."""

    def __init__(self, op: FarFieldOperator, alpha: float):
        if alpha <= 0:
            raise DomainError("regularization parameter must be positive")
        self.op = op
        a = op.matrix * op.inc_weight
        normal = op.obs_weight * (a.conj().T @ a)
        normal += alpha * op.inc_weight * np.eye(normal.shape[0])
        self.cho = cho_factor(normal)
        self._a = a

    def solve(self, y) -> tuple[np.ndarray, float, float]:
        op = self.op
        y = np.asarray(y, dtype=float)
        phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
        rhs = far_field_constant(op.k) * np.exp(-1j * op.k * (phi_hat @ y))
        g = cho_solve(self.cho, op.obs_weight * (self._a.conj().T @ rhs))
        norm = math.sqrt(op.inc_weight) * float(np.linalg.norm(g))
        resid = float(np.linalg.norm(self._a @ g - rhs) / np.linalg.norm(rhs))
        return g, norm, resid


def solve_far_field_equation(op: FarFieldOperator, y, alpha: float):
    """Tikhonov-regularized far-field equation solve for one sample point.

    Returns ``(g, norm, residual)`` with the L2(S1) quadrature-weighted
    density norm and the relative far-field residual.
    """
    return _TikhonovFactorization(op, alpha).solve(y)


@dataclass(frozen=True)
class GrowthReport:
    alphas: np.ndarray
    norms: np.ndarray
    residuals: np.ndarray
    loglog_slope: float     # d log ||g|| / d log(1/alpha)
    no_plateau: bool


def unsolvability_diagnostic(op: FarFieldOperator, y, alphas) -> GrowthReport:
    """Regularized-norm blow-up report across a decreasing alpha sweep.

    ``no_plateau`` is true when the norms are strictly increasing over
    the last three decades of alpha with growth ratio above 2 per decade,
    the desk-scale observable of the rhs lying outside the operator range.
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(alphas) < 5 or np.any(np.diff(alphas) >= 0):
        raise DomainError("need >= 5 strictly decreasing alpha values")
    if math.log10(alphas[0] / alphas[-1]) < 4:
        raise DomainError("alpha sweep must span at least 4 decades")
    norms, resids = [], []
    for alpha in alphas:
        _, norm, resid = solve_far_field_equation(op, y, alpha)
        norms.append(norm)
        resids.append(resid)
    norms = np.array(norms)
    resids = np.array(resids)
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
    )


def lsm_indicator_map(op: FarFieldOperator, points, alpha: float | None = None) -> np.ndarray:
    """1 / ||g_alpha(y)|| over a grid of sample points (larger ~ inside)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if alpha is None:
        alpha = 1e-6 * float(np.max(np.abs(op.matrix))) ** 2
        alpha = max(alpha, 1e-300)
    fact = _TikhonovFactorization(op, alpha)
    out = np.empty(len(points))
    for i, y in enumerate(points):
        _, norm, _ = fact.solve(y)
        out[i] = 1.0 / norm if norm > 0 else np.inf
    return out
