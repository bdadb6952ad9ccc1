"""Exterior Neumann Helmholtz solver for polygonal obstacles.

The scattered field is represented by a single-layer potential

    w(x) = int_{dD} Phi_0(x, z) phi(z) ds(z),

which satisfies the radiation condition by construction.  Imposing the
sound-hard condition d(u_inc + w)/dnu = 0 on dD gives the second-kind
boundary integral equation (-1/2 I + K') phi = -d(u_inc)/dnu, where K'
carries the kernel d(Phi_0(x, z))/dnu(x).  On a straight edge
(x - z).nu(x) = 0, so same-edge kernel entries vanish identically; the
remaining entries are smooth away from shared corners and controlled by
geometric panel grading toward every corner.  Kernels are built in place on
one complex Hankel array from real per-axis differences dx, dy.

The known defect of the single-layer ansatz (spurious resonances at
interior Dirichlet eigenvalues of the obstacle) is watched through the
system's 1-norm condition number; near-resonant systems raise SolverError
with advice to perturb k.

Systems of at most INVERSE_MAX_NODES nodes are inverted with numpy, so
their condition number is exact and every BLAS call of a small pipeline
goes to numpy's OpenBLAS.  scipy loads its own OpenBLAS copy, and after a
call to it that pool's threads keep spinning next to numpy's: at 2 BLAS
threads on 2 cores every later numpy stage ran about 1.4x slower.  Larger
systems keep scipy's LU and its condition estimate, where the inverse's
extra flops would cost more than that contention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .errors import DomainError, GeometryError, NearFieldError, SolverError
from .fields import ModulatedPlane, PlaneWave, PointSource
from .geometry import Direction, Scene
from .specialfun import bessel_j_prime, hankel1, hankel1_prime

__all__ = [
    "BoundaryMesh",
    "ScatterSolution",
    "Factorization",
    "build_mesh",
    "factorize",
    "solve_scattering",
    "scattered_field",
    "eval_total",
    "modulated_nonvanishing_check",
    "DiscSeriesSolution",
]

NODES_PER_PANEL = 4
MAX_GRADING_LEVELS = 6
CONDITION_LIMIT = 1e10
RESIDUAL_TOL = 1e-8
INVERSE_MAX_NODES = 512


@dataclass(frozen=True)
class BoundaryMesh:
    """Corner-graded composite Gauss quadrature on the obstacle boundary."""

    nodes: np.ndarray        # (N, 2)
    normals: np.ndarray      # (N, 2), outward relative to the obstacle
    weights: np.ndarray      # (N,)
    edge_ids: np.ndarray     # (N,) global edge index
    panel_sizes: np.ndarray  # (N,) arclength of the containing panel

    @property
    def n_nodes(self) -> int:
        return len(self.weights)


def _half_edge_breakpoints(p_grade: float, panels_per_half: int) -> np.ndarray:
    """Panel breakpoints on [0, 1/2], graded geometrically toward 0.

    Ratio 2^-p_grade per level, at most MAX_GRADING_LEVELS graded panels;
    any remaining panels split the outer region [q/2, 1/2] uniformly.
    """
    q = 2.0 ** (-p_grade)
    levels = min(MAX_GRADING_LEVELS, panels_per_half - 1)
    graded = [0.5 * q ** j for j in range(levels, 0, -1)]
    n_uniform = panels_per_half - levels  # >= 1 by the levels cap
    uniform = list(np.linspace(graded[-1], 0.5, n_uniform + 1)[1:])
    return np.array([0.0] + graded + uniform)


def build_mesh(scene: Scene, nodes_per_edge: int = 64, p_grade: float = 4.0) -> BoundaryMesh:
    """Composite Gauss-Legendre panels per edge, graded toward both corners."""
    if nodes_per_edge < 16:
        raise DomainError("nodes_per_edge must be at least 16")
    if nodes_per_edge % (2 * NODES_PER_PANEL) != 0:
        raise DomainError(f"nodes_per_edge must be a multiple of {2 * NODES_PER_PANEL}")
    if p_grade < 2:
        raise DomainError("p_grade must be at least 2")

    panels_per_half = nodes_per_edge // (2 * NODES_PER_PANEL)
    half = _half_edge_breakpoints(p_grade, panels_per_half)
    breaks = np.concatenate([half, (1.0 - half[::-1])[1:]])  # mirrored on [0, 1]
    t0, t1 = breaks[:-1, None], breaks[1:, None]
    gx, gw = leggauss(NODES_PER_PANEL)
    # node parameters, weights and panel widths of one edge of unit length
    mid, rad = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    t = (mid + rad * gx).ravel()
    unit_weights = (gw * rad).ravel()
    unit_panels = np.repeat((t1 - t0).ravel(), NODES_PER_PANEL)

    edges = [(a, b) for poly in scene.obstacles for a, b in poly.edges()]
    start = np.array([a for a, _ in edges]).reshape(-1, 2)
    span = np.array([b - a for a, b in edges]).reshape(-1, 2)
    ell = np.array([np.linalg.norm(v) for v in span])
    if np.any(ell < 1e-12):
        raise GeometryError("degenerate edge")
    tangent = span / ell[:, None]
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])  # outward for CCW polygons
    return BoundaryMesh(
        nodes=(start[:, None, :] + t[None, :, None] * span[:, None, :]).reshape(-1, 2),
        normals=np.repeat(normal, len(t), axis=0),
        weights=(unit_weights * ell[:, None]).ravel(),
        edge_ids=np.repeat(np.arange(len(edges)), len(t)),
        panel_sizes=(unit_panels * ell[:, None]).ravel(),
    )


def _assemble(mesh: BoundaryMesh, k: float) -> np.ndarray:
    """Dense Nystrom matrix -1/2 I + K'."""
    dx, dy = (mesh.nodes[:, c, None] - mesh.nodes[None, :, c] for c in (0, 1))
    r = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(r, 1.0)  # dummy; overwritten by the same-edge zero
    dot = dx * mesh.normals[:, 0, None] + dy * mesh.normals[:, 1, None]
    del dx, dy  # freed before the Hankel array: the peak stays at ~2.5 complex N x N
    kernel = hankel1(1, k * r)
    kernel *= -0.25j * k
    kernel *= dot
    kernel /= r
    kernel[mesh.edge_ids[:, None] == mesh.edge_ids[None, :]] = 0.0
    kernel *= mesh.weights
    kernel.flat[:: mesh.n_nodes + 1] -= 0.5
    return kernel


@dataclass(frozen=True)
class ScatterSolution:
    scene: Scene
    incident: object
    mesh: BoundaryMesh
    density: np.ndarray
    condition_estimate: float
    residual_norm: float


@dataclass(frozen=True)
class Factorization:
    """Inverted or LU-factorised Nystrom system of one scene and mesh.

    Built by ``factorize``, which sets ``inverse`` up to INVERSE_MAX_NODES
    nodes and ``lu`` above; ``solve`` reuses it for any number of incident
    fields.
    """

    scene: Scene
    mesh: BoundaryMesh
    matrix: np.ndarray
    inverse: np.ndarray | None
    lu: tuple | None
    condition: float

    def solve(self, incidents) -> list[ScatterSolution]:
        """One scattering solution per incident field, in order.

        All right-hand sides go through one product with the inverse or
        one LU solve; the discrete residual is checked per incident field.
        """
        incidents = list(incidents)
        for incident in incidents:
            if isinstance(incident, PointSource) and any(
                poly.contains(incident.y) for poly in self.scene.obstacles
            ):
                raise DomainError("point source inside an obstacle")
        if self.mesh.n_nodes == 0:
            densities = np.zeros((0, len(incidents)), dtype=complex)
            residuals = np.zeros(len(incidents))
        else:
            k = self.scene.wavenumber_k
            normals = self.mesh.normals.astype(complex)
            rhs = np.column_stack([
                -np.einsum("ic,ic->i", inc.gradient(k, self.mesh.nodes), normals) for inc in incidents
            ])
            densities = self.inverse @ rhs if self.lu is None else lu_solve(self.lu, rhs)
            residuals = np.linalg.norm(self.matrix @ densities - rhs, np.inf, axis=0)
            scale = np.maximum(np.linalg.norm(rhs, np.inf, axis=0), 1e-300)
            if np.any(residuals > RESIDUAL_TOL * scale):
                raise SolverError(f"discrete residual {np.max(residuals):.2e} exceeds tolerance")
        return [
            ScatterSolution(
                scene=self.scene,
                incident=incident,
                mesh=self.mesh,
                density=densities[:, j],
                condition_estimate=self.condition,
                residual_norm=float(residuals[j]),
            )
            for j, incident in enumerate(incidents)
        ]


def factorize(scene: Scene, mesh: BoundaryMesh) -> Factorization:
    """Assemble, invert or LU-factorise, and condition-check the Nystrom system.

    Up to INVERSE_MAX_NODES nodes the matrix is inverted with numpy and the
    condition is the exact ||A||_1 ||A^-1||_1, of which LAPACK's estimate
    (Hager-Higham, as in zgecon) is a lower bound; larger systems take
    scipy's LU and zgecon's estimate.  Keeping small systems off scipy
    leaves one OpenBLAS thread pool in the process (see the module
    docstring).  Raises SolverError when the condition is not finite (a
    singular or NaN matrix) or marks k as near a spurious interior
    resonance of the single-layer ansatz.
    """
    if mesh.n_nodes == 0:
        return Factorization(scene, mesh, np.zeros((0, 0), dtype=complex), None, None, 1.0)
    matrix = _assemble(mesh, scene.wavenumber_k)
    anorm = np.linalg.norm(matrix, 1)
    inverse = lu = None
    if mesh.n_nodes <= INVERSE_MAX_NODES:
        try:
            inverse = np.linalg.inv(matrix)
            condition = anorm * np.linalg.norm(inverse, 1)
        except np.linalg.LinAlgError:  # exactly singular
            condition = np.inf
    else:
        lu = lu_factor(matrix, check_finite=False)  # a NaN reaches the guard below
        rcond, info = zgecon(lu[0], anorm)
        condition = np.inf if rcond == 0 or info != 0 else 1.0 / rcond
    if not condition <= CONDITION_LIMIT:  # also catches a NaN condition
        raise SolverError(
            f"near-resonant boundary system (condition ~ {condition:.2e}); "
            "k is close to a spurious interior Dirichlet eigenvalue of the "
            "single-layer ansatz -- perturb k slightly"
        )
    return Factorization(scene, mesh, matrix, inverse, lu, condition)


def solve_scattering(scene: Scene, incident, mesh: BoundaryMesh) -> ScatterSolution:
    """Solve the sound-hard scattering problem for one incident field."""
    return factorize(scene, mesh).solve([incident])[0]


def scattered_field(sol: ScatterSolution, x):
    """Single-layer potential w of the solved density and its gradient.

    Returns ``(w, grad_w)`` at exterior points ``x``; one point gives a
    scalar and a 2-vector.  Raises NearFieldError for a point within 3
    panel lengths of the boundary, where the plain Nystrom quadrature is
    not valid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mesh = sol.mesh
    dx, dy = (x[:, c, None] - mesh.nodes[None, :, c] for c in (0, 1))
    r = np.sqrt(dx * dx + dy * dy)
    if mesh.n_nodes:
        nearest = np.argmin(r, axis=1)
        if np.any(r[np.arange(len(x)), nearest] < 3.0 * mesh.panel_sizes[nearest]):
            raise NearFieldError(
                "evaluation point within 3 panel lengths of the boundary; "
                "the plain Nystrom quadrature is not valid there"
            )
    k = sol.scene.wavenumber_k
    dw = sol.density * mesh.weights
    w = (0.25j * hankel1(0, k * r)) @ dw
    radial = hankel1(1, k * r)  # (H_0)' = -H_1
    radial *= -0.25j * k
    radial /= r
    radial *= dw
    grad = np.column_stack([np.einsum("ij,ij->i", radial, dx), np.einsum("ij,ij->i", radial, dy)])
    return (w[0], grad[0]) if len(x) == 1 else (w, grad)


def eval_total(sol: ScatterSolution, x):
    """Total field u_inc + w at exterior points."""
    return sol.incident.value(sol.scene.wavenumber_k, x) + scattered_field(sol, x)[0]


def modulated_nonvanishing_check(scene, x0, d: Direction, nodes_per_edge: int = 64, p_grade: float = 4.0):
    """Total modulated field (1.3)-style value at the scene's source point.

    Solves the scattering problem for the linearly modulated plane field
    anchored at the vertex ``x0`` and evaluates the total field at
    ``scene.source_y``; a nonzero value verifies the hypothesis under
    which the point-source support formula holds without the far-source
    condition.
    """
    x0 = np.asarray(x0, dtype=float)
    vertices = scene.all_vertices
    if len(vertices) and np.min(np.linalg.norm(vertices - x0, axis=1)) > 1e-9:
        raise DomainError("x0 must be a vertex of the scene")
    incident = ModulatedPlane(x0=x0, d=d)
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
    sol = solve_scattering(scene, incident, mesh)
    return eval_total(sol, scene.source_y)


class DiscSeriesSolution:
    """Sound-hard disc solution by cylindrical-harmonic separation.

    Exact (to series truncation) scattering of a plane wave or point
    source by the disc |x - center| < a.  Used as an independent oracle
    against the Nystrom solver; the incident part is evaluated in closed
    form and only the scattered part uses the series.

    Both fields are expanded in polar coordinates (r, theta) about the
    disc centre c.  The incident field is
    sum_m a_|m| J_|m|(k r) e^{i m (theta - theta0)}, with a_n = i^n e^{ik c.d}
    and theta0 the angle of d for a plane wave, and a_n = (i/4) H_n(k rho)
    and theta0 the angle of y - c for a point source at |y - c| = rho.
    The scattered field is w = sum_m b_m H_|m|(k r) e^{i m theta} with
    b_m = -J'_|m|(ka) / H'_|m|(ka) * a_|m| * e^{-i m theta0}.
    """

    TAIL_TOL = 1e-12
    MAX_MODES = 300

    def __init__(self, center, a: float, k: float, incident):
        self.center = np.asarray(center, dtype=float)
        self.a, self.k = float(a), float(k)
        self.incident = incident
        if isinstance(incident, PointSource):
            rel = incident.y - self.center
            rho = np.linalg.norm(rel)
            if rho <= a:
                raise DomainError("point source must lie outside the disc")
            theta0 = np.arctan2(rel[1], rel[0])
            amplitude = lambda n: 0.25j * hankel1(n, self.k * rho)
        elif isinstance(incident, PlaneWave):
            theta0 = incident.d.angle
            shift = np.exp(1j * self.k * (self.center @ incident.d.vec))
            amplitude = lambda n: (1j**n) * shift
        else:
            raise DomainError("disc series supports PlaneWave and PointSource only")
        ka = self.k * self.a
        coeffs = []  # b_n for n = 0..N, before the angular phase
        for n in range(self.MAX_MODES + 1):
            coeffs.append(-bessel_j_prime(n, ka) / hankel1_prime(n, ka) * amplitude(n))
            # worst-case term magnitude on the boundary r = a
            if n > ka + 8 and abs(coeffs[-1]) * abs(hankel1(n, ka)) < self.TAIL_TOL:
                break
        else:
            raise SolverError("disc series did not reach the tail tolerance")
        self._orders = np.arange(-n, n + 1)
        self._coeffs = np.array(coeffs[:0:-1] + coeffs) * np.exp(-1j * self._orders * theta0)

    def _series(self, radial, x):
        """sum_m b_m Z_|m|(k r) e^{i m theta} at x for the radial function Z."""
        rel = np.atleast_2d(np.asarray(x, dtype=float)) - self.center
        r, theta = np.linalg.norm(rel, axis=-1), np.arctan2(rel[:, 1], rel[:, 0])
        z = np.array([radial(n, self.k * r) for n in range(self._orders[-1] + 1)])
        out = (np.exp(1j * theta[:, None] * self._orders) * z[np.abs(self._orders)].T) @ self._coeffs
        return out[0] if np.asarray(x).ndim == 1 else out

    def eval_scattered(self, x):
        return self._series(hankel1, x)

    def eval_scattered_radial_derivative(self, x):
        return self.k * self._series(hankel1_prime, x)

    def eval_total(self, x):
        return self.incident.value(self.k, x) + self.eval_scattered(x)

    def far_field(self, angles):
        """Far-field pattern of the scattered series at observation angles of any shape."""
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        const = np.sqrt(2.0 / (np.pi * self.k)) * np.exp(-0.25j * np.pi)
        out = np.exp(1j * angles[..., None] * self._orders) @ (self._coeffs * (-1j) ** np.abs(self._orders))
        # center offset shifts the far-field phase by e^{-ik phi.c}
        phase = np.exp(-1j * self.k * (np.cos(angles) * self.center[0] + np.sin(angles) * self.center[1]))
        return const * out * phase
