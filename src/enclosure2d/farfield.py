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
The sampling map forms only the norms over the r resolved modes,
s_m > max(N_obs, N_inc) eps s_0 (``FarFieldOperator.resolved_modes``, which
the sweep reports): per block of points one product U_r^H c,
with c from per-axis factors e^{-ik x cos phi} e^{-ik y sin phi} where the
points repeat coordinates (a tensor grid).  The sweep keeps all modes for
its Picard report, and forms the residual from c - U U^H c.
Each operator is built from one phase product over all its incidences and
keeps its SVD once computed, so every sweep and map on it reuses both.
The disc operator, one series gathered circulantly and probed at its
center, is the solvable contrast case that needs no polygon solver.
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
    "check_alpha_sweep",
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

    @property
    def resolved_modes(self) -> int:
        """r = #{s_m > max(N_obs, N_inc) eps s_0}, ``np.linalg.matrix_rank``'s tolerance: 0 for a zero operator.

        Only these leading modes are fixed by the data; past them U and s hold round-off.
        """
        s = self.svd[1]
        return int(np.count_nonzero(s > max(self.matrix.shape) * np.finfo(float).eps * s[0]))

    def reciprocity_defect(self) -> float:
        """max |F(phi, d) - F(-d, -phi)| when both grids close under negation."""
        n_obs, n_inc = self.matrix.shape
        if n_obs != n_inc or n_inc % 2:
            raise DomainError("reciprocity check needs matching even direction grids")
        half = n_inc // 2
        # flipped[i, j] = F at (-d_j, -phi_i); negation = half-grid shift
        flipped = np.roll(np.roll(self.matrix, -half, axis=0), -half, axis=1).T
        return float(np.max(np.abs(self.matrix - flipped)))


def assemble_far_field_operator(scene: Scene, n_obs: int, n_inc: int, nodes_per_edge: int = 64) -> FarFieldOperator:
    """One plane-wave solution per incidence column, all from one ``solve_incidents`` call."""
    if n_obs < 1 or n_inc < 1:
        raise DomainError("need at least one observation and one incidence direction")
    obs_angles = 2 * np.pi * np.arange(n_obs) / n_obs
    inc_angles = 2 * np.pi * np.arange(n_inc) / n_inc
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge)
    k = scene.wavenumber_k
    sols = solve_incidents(scene, [PlaneWave(Direction.from_angle(ang)) for ang in inc_angles], mesh)
    densities = np.column_stack([sol.density for sol in sols])
    phi_hat = np.column_stack([np.cos(obs_angles), np.sin(obs_angles)])
    phases = np.exp(-1j * k * (phi_hat @ mesh.nodes.T))
    matrix = far_field_constant(k) * phases @ (densities * mesh.weights[:, None])
    return FarFieldOperator(matrix=matrix, obs_angles=obs_angles, inc_angles=inc_angles, k=k)


def disc_far_field_operator(radius: float, k: float, n: int, center=(0.0, 0.0)) -> FarFieldOperator:
    """Far-field operator of a sound-hard disc about ``center`` on n equal directions, via the series.

    Rotation invariance gives F(phi_i, d_j) = F_0(phi_i - d_j) for the disc at the origin, the pattern
    at incidence 0 on the grid angle of (i - j) mod n: one series on the n angles fills the circulant
    matrix.  Moving the disc to c multiplies it by e^{-ik phi_i.c} on the left and e^{ik d_j.c} on the
    right, both exactly 1 at the origin.
    """
    angles = 2 * np.pi * np.arange(n) / n
    pattern = DiscSeriesSolution((0.0, 0.0), radius, k, PlaneWave(Direction.from_angle(0.0))).far_field(angles)
    matrix = pattern[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    center = np.asarray(center, dtype=float)
    phase = np.exp(-1j * k * (np.cos(angles) * center[0] + np.sin(angles) * center[1]))
    matrix *= np.outer(phase, phase.conj())
    return FarFieldOperator(matrix=matrix, obs_angles=angles, inc_angles=angles, k=k)


_POINT_BLOCK = 256  # sample points per block: a map's working set is (N_obs, block)


def _weighted_rhs(op: FarFieldOperator, points):
    """sqrt(w_o) times the point-source far fields, as (block, columns) pairs covering the points.

    The last block overlaps its predecessor, so every product has one width and a point's value does
    not depend on its place.  e^{-ik(x cos phi + y sin phi)} is a factor on the distinct x values times
    one on the distinct y values where that takes fewer exponentials than the points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(points)):
        raise DomainError("sample points must be finite")
    starts = [*range(0, len(points) - _POINT_BLOCK, _POINT_BLOCK), max(len(points) - _POINT_BLOCK, 0)]
    blocks = [slice(start, start + _POINT_BLOCK) for start in starts]
    scale = math.sqrt(op.obs_weight) * far_field_constant(op.k)
    (xs, ix), (ys, iy) = (np.unique(axis, return_inverse=True) for axis in points.T)
    if len(xs) + len(ys) < len(points):
        fx = scale * np.exp(-1j * op.k * np.outer(np.cos(op.obs_angles), xs))
        fy = np.exp(-1j * op.k * np.outer(np.sin(op.obs_angles), ys))
        for b in blocks:
            c = fx[:, ix[b]]
            c *= fy[:, iy[b]]  # in place: one (N_obs, block) temporary fewer
            yield b, c
        return
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    for b in blocks:
        yield b, scale * np.exp(-1j * op.k * (phi_hat @ points[b].T))


def _norms(op: FarFieldOperator, alphas: np.ndarray, power: np.ndarray) -> np.ndarray:
    """||g_alpha||, shaped (alphas, points), from power = |U^H c|^2 over its len(power) leading modes."""
    s = op.svd[1][: len(power)]
    return np.sqrt(op.inc_weight * ((s / (s**2 + op.inc_weight * alphas[:, None])) ** 2 @ power))


def check_alpha_sweep(alphas) -> np.ndarray:
    """The sweep as a float array: 1-D, finite, positive, strictly decreasing, >= 5 values over >= 4 decades."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or len(alphas) < 5 or not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise DomainError("an alpha sweep is a 1-D array of >= 5 finite, positive values")
    if np.any(np.diff(alphas) >= 0) or math.log10(alphas[0] / alphas[-1]) < 4:
        raise DomainError("an alpha sweep must decrease strictly over at least 4 decades")
    return alphas


@dataclass(frozen=True)
class GrowthReport:
    alphas: np.ndarray
    norms: np.ndarray
    residuals: np.ndarray
    loglog_slope: float     # d log ||g|| / d log(1/alpha)
    no_plateau: bool
    singular_values: np.ndarray  # s_i of sqrt(w_o) w_i F, non-increasing
    picard: np.ndarray           # |u_i^H sqrt(w_o) b| for the sample point
    resolved_modes: int          # the leading modes the data fix; later Picard coefficients are round-off


def unsolvability_diagnostic(op: FarFieldOperator, y, alphas) -> GrowthReport:
    """Regularized-norm blow-up report across a decreasing alpha sweep.

    ``no_plateau`` is true when the norms are strictly increasing over
    the last three decades of alpha with growth ratio above 2 per decade,
    the desk-scale observable of the rhs lying outside the operator range.
    """
    alphas = check_alpha_sweep(alphas)
    u, s, _ = op.svd
    _, c = next(_weighted_rhs(op, y))
    coeffs = u.conj().T @ c
    power = np.abs(coeffs) ** 2
    norms = _norms(op, alphas, power)[:, 0]
    if not np.all(norms > 0):  # before the logarithms below
        raise DomainError("a zero far-field operator gives zero regularized norms: no sweep to report")
    # the residual is the filtered-out part of the coefficients plus c outside range(U)
    damping = op.inc_weight * alphas[:, None]
    missed = damping / (s**2 + damping)
    outside = np.sum(np.abs(c - u @ coeffs) ** 2, axis=0)
    resids = np.sqrt((missed**2 @ power + outside) / np.sum(np.abs(c) ** 2, axis=0))[:, 0]
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
        resolved_modes=op.resolved_modes,
    )


def lsm_indicator_map(op: FarFieldOperator, points) -> np.ndarray:
    """1 / ||g_alpha(y)|| at alpha = 1e-6 max |F|^2 over a grid of sample points (larger ~ inside).

    Reads the operator's ``resolved_modes``; a zero operator has none: an infinite map.
    """
    alpha = max(1e-6 * float(np.max(np.abs(op.matrix))) ** 2, 1e-300)
    if not math.isfinite(alpha):  # a non-finite operator
        raise DomainError("the map's alpha, 1e-6 max |F|^2, must be finite")
    u_h = op.svd[0][:, : op.resolved_modes].conj().T
    points = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.empty(len(points))
    for block, c in _weighted_rhs(op, points):
        norms[block] = _norms(op, np.array([alpha]), np.abs(u_h @ c) ** 2)[0]
    with np.errstate(divide="ignore"):  # a zero operator gives zero norms, an infinite map
        return 1.0 / norms
