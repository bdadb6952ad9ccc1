"""Exterior Neumann Helmholtz solver for polygonal obstacles.

The scattered field is represented by a single-layer potential

    w(x) = int_{dD} Phi_0(x, z) phi(z) ds(z),

which satisfies the radiation condition by construction.  Imposing the
sound-hard condition d(u_inc + w)/dnu = 0 on dD gives the second-kind
boundary integral equation (-1/2 I + K') phi = -d(u_inc)/dnu, where K'
carries the kernel d(Phi_0(x, z))/dnu(x).  On a straight edge
(x - z).nu(x) = 0, so same-edge kernel entries vanish identically; the
remaining entries are smooth away from shared corners and controlled by
geometric panel grading toward every corner.  The matrix is built in place,
in row blocks, from real per-axis differences dx, dy, with one H_1
evaluation per symmetric node pair.

The known defect of the single-layer ansatz (spurious resonances at
interior Dirichlet eigenvalues of the obstacle) is watched through the
system's 1-norm condition number; near-resonant systems raise SolverError
with advice to perturb k.

The measurement-circle trace does not sum over node pairs:
``circle_field`` expands the density in circular harmonics about the
circle's centre (Graf's addition theorem), which costs O(M N) for M
orders instead of O(n N) Hankel pairs for n circle nodes.
``scattered_field`` remains the evaluator at arbitrary exterior points and
the reference the series is tested against; both share one near-field
check.

``solve_incidents`` is the one solve entry point: one assembly,
factorisation and condition check per scene and mesh, shared by every
incident field passed with it.  ``solve_scattering`` is its batch of one.

``solve_incidents`` takes one of three branches, which
``ScatterSolution.factorization`` names:

- "inverse": systems of at most INVERSE_MAX_NODES nodes are inverted with
  numpy, so their condition number is exact and every BLAS call of a small
  pipeline goes to numpy's OpenBLAS.  scipy loads its own OpenBLAS copy,
  and after a call to it that pool's threads keep spinning next to numpy's:
  at 2 BLAS threads on 2 cores every later numpy stage ran about 1.4x
  slower.  scipy is imported only by the two larger branches, so a pipeline
  of at most INVERSE_MAX_NODES nodes never loads it; the first larger solve
  in a process pays its import, about 0.2 s.
- "single-refined": a larger system is cast once to complex64, as its
  transpose in Fortran order (the matrix's own memory order), and
  LU-factorised in place; its condition comes from cgecon, and the
  complex64 solve is refined against the complex128 matrix until LAPACK
  zcgesv's test ||r||_inf <= sqrt(N) 2^-53 ||A||_inf ||x||_inf holds
  (Langou et al., SC'06): two corrections on the square at 544 nodes and on
  the 128-gon at 2048.  The factor takes half the memory of a complex128
  one and about two thirds of its time (213 against 326 ms at 2048 nodes,
  medians of 5 and 3, 2-core VM, 2 OpenBLAS threads).
- "double": a system the single factor cannot vouch for, one whose
  condition estimate passes SINGLE_CONDITION_LIMIT (condition * 2^-24 past
  1e-2; a zero pivot or a NaN reads infinite) or whose refinement has not
  converged after REFINE_MAX_STEPS corrections, is factorised again by
  scipy's complex128 LU, with zgecon's condition estimate.  So a near-
  resonant or singular system raises exactly as it would without the
  single branch.

The H_1 kernel is numpy's own (``specialfun.hankel1``).  Assembly times on
16-gon, 32-gon and 128-gon meshes of 16 nodes per edge, k = 2, as the range
of three alternating in-process runs, each the median of 15-40 assemblies
(2-core Xeon VM, 2 OpenBLAS threads), against scipy's Cephes j1/y1 in
parentheses: 256 nodes 2.4-3.3 ms (2.1-2.7 ms),
512 nodes 9.5-10.3 ms (8.8-12.1 ms), 2048 nodes 170-187 ms (159-184 ms).
Those meshes' 32-row blocks span two edges, so ``_assemble`` skips no
same-edge columns there; on the square at 64 nodes per edge (256 nodes,
median of 200) it takes 2.05-2.22 ms (1.87-2.01 ms), and on the L
(384 nodes) 4.7-4.9 ms (4.2-4.4 ms).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, GeometryError, NearFieldError, ResolutionError, SolverError
from .fields import PlaneWave, PointSource, normal_derivatives
from .geometry import Scene
from .specialfun import bessel_j_orders, hankel1, hankel1_orders

__all__ = [
    "BoundaryMesh",
    "ScatterSolution",
    "build_mesh",
    "solve_incidents",
    "solve_scattering",
    "scattered_field",
    "circle_nodes",
    "circle_field",
    "eval_total",
    "DiscSeriesSolution",
]

NODES_PER_PANEL = 4
MAX_GRADING_LEVELS = 6
GRADING_RATIO = 2.0**-4  # the graded breakpoints shrink by this factor per level toward a corner
CONDITION_LIMIT = 1e10
RESIDUAL_TOL = 1e-8
INVERSE_MAX_NODES = 512
# complex64's unit round-off, and double's (LAPACK's dlamch("E"), which sets
# zcgesv's stopping test)
SINGLE_ROUNDOFF = 2.0**-24
DOUBLE_ROUNDOFF = 2.0**-53
# refinement from a complex64 LU shrinks the error by about
# condition * SINGLE_ROUNDOFF a step, so the single factor is trusted while
# that product is at most 1e-2 (a condition of 1.7e5; the square at k = 2
# reads 2.3e3): two digits a step or better
SINGLE_CONDITION_LIMIT = 1e-2 / SINGLE_ROUNDOFF
# at two digits a step the single solve's error, at most 1e-2, reaches
# DOUBLE_ROUNDOFF in 7 corrections; 10 leave room for the constant in front
# of condition * SINGLE_ROUNDOFF
REFINE_MAX_STEPS = 10
# the most (orders + 1) x N entries circle_field's terms array may hold,
# 128 MB of complex: 4x the largest series a test, demo or bench run forms
# (2048 orders over 1024 nodes, a circle 2% outside the fine square's
# corners), while the order count grows without bound as a vertex nears
# the circle
SERIES_MAX_ENTRIES = 2**23
# the most entries the dense N x N system may hold, 256 MB of complex (its
# inverse as much again up to INVERSE_MAX_NODES, its complex64 LU half again
# above, or as much again where the complex128 LU takes over): 4x the
# largest a test, demo or bench run forms (forward-large's 2048 nodes);
# --mesh-nodes has no bound of its own
SYSTEM_MAX_ENTRIES = 2**24


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


def _half_edge_breakpoints(panels_per_half: int) -> np.ndarray:
    """Panel breakpoints on [0, 1/2], graded geometrically toward 0.

    Ratio GRADING_RATIO per level, at most MAX_GRADING_LEVELS graded panels;
    any remaining panels split the outer region uniformly.
    """
    levels = min(MAX_GRADING_LEVELS, panels_per_half - 1)
    graded = [0.5 * GRADING_RATIO**j for j in range(levels, 0, -1)]
    n_uniform = panels_per_half - levels  # >= 1 by the levels cap
    uniform = list(np.linspace(graded[-1], 0.5, n_uniform + 1)[1:])
    return np.array([0.0] + graded + uniform)


def build_mesh(scene: Scene, nodes_per_edge: int = 64) -> BoundaryMesh:
    """Composite Gauss-Legendre panels per edge, graded toward both corners."""
    if nodes_per_edge < 16:
        raise DomainError("nodes_per_edge must be at least 16")
    if nodes_per_edge % (2 * NODES_PER_PANEL) != 0:
        raise DomainError(f"nodes_per_edge must be a multiple of {2 * NODES_PER_PANEL}")

    panels_per_half = nodes_per_edge // (2 * NODES_PER_PANEL)
    half = _half_edge_breakpoints(panels_per_half)
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
    """Dense Nystrom matrix -1/2 I + K', built in blocks of 32 rows.

    A block's differences, distances and kernel stay in cache, and no
    N x N array but the matrix is allocated.  r is exactly symmetric
    (dx_ji = -dx_ij), so H_1 is evaluated on the block's part of the upper
    triangle and mirrored, unscaled, into the rows of later blocks.  When
    all of a block's rows lie on one edge, that part starts past the run of
    columns on the same edge, whose entries vanish: a third of the H_1
    evaluations on the square at 64 nodes per edge.
    """
    n = mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    edge_ids = mesh.edge_ids
    kernel = np.empty((n, n), dtype=complex)
    for lo in range(0, n, 32):
        hi = min(lo + 32, n)
        dx, dy = x[lo:hi, None] - x, y[lo:hi, None] - y
        r = np.sqrt(dx * dx + dy * dy)
        r[np.arange(hi - lo), np.arange(lo, hi)] = 1.0  # dummy; overwritten by the same-edge zero
        block = kernel[lo:hi]
        start = lo
        if np.all(edge_ids[lo:hi] == edge_ids[lo]):
            others = np.flatnonzero(edge_ids[lo:] != edge_ids[lo])
            start = lo + others[0] if len(others) else n
        block[:, lo:start] = 0.0
        block[:, start:] = hankel1(1, k * r[:, start:])
        kernel[hi:, lo:hi] = block[:, hi:].T
        block *= -0.25j * k
        block *= dx * mesh.normals[lo:hi, 0, None] + dy * mesh.normals[lo:hi, 1, None]
        block /= r
        block[edge_ids[lo:hi, None] == edge_ids] = 0.0
        block *= mesh.weights
    kernel.flat[:: n + 1] -= 0.5
    return kernel


@dataclass(frozen=True)
class ScatterSolution:
    scene: Scene
    incident: object
    mesh: BoundaryMesh
    density: np.ndarray
    condition_estimate: float
    residual_norm: float
    factorization: str  # "inverse", "single-refined" or "double": see solve_incidents


def _check_condition(condition: float) -> None:
    if not condition <= CONDITION_LIMIT:  # also catches a NaN condition
        raise SolverError(
            f"near-resonant boundary system (condition ~ {condition:.2e}); "
            "k is close to a spurious interior Dirichlet eigenvalue of the "
            "single-layer ansatz -- perturb k slightly"
        )


def _residuals(matrix: np.ndarray, densities: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.norm(matrix @ densities - rhs, np.inf, axis=0)


def _inverse_solve(matrix: np.ndarray, rhs: np.ndarray):
    """numpy's inverse: densities, residuals and the exact 1-norm condition."""
    try:
        inverse = np.linalg.inv(matrix)
        condition = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
    except np.linalg.LinAlgError:  # exactly singular
        condition = np.inf
    _check_condition(condition)
    densities = inverse @ rhs
    return densities, _residuals(matrix, densities, rhs), condition


def _double_solve(matrix: np.ndarray, rhs: np.ndarray, anorm: float):
    """scipy's complex128 LU: densities, residuals and zgecon's condition estimate."""
    from scipy.linalg import lu_factor, lu_solve  # loaded by systems this large only
    from scipy.linalg.lapack import zgecon

    lu = lu_factor(matrix, check_finite=False)  # a NaN reaches the guard below
    rcond, info = zgecon(lu[0], anorm)
    condition = np.inf if rcond == 0 or info != 0 else 1.0 / rcond
    _check_condition(condition)
    densities = lu_solve(lu, rhs)
    return densities, _residuals(matrix, densities, rhs), condition


def _single_refined_solve(matrix, rhs, anorm: float, anorm_inf: float):
    """complex64 LU refined in double, as LAPACK's zcgesv: densities, residuals and cgecon's condition.

    None for a system the single factor cannot vouch for (see
    ``solve_incidents``).  The residuals are those of the returned densities.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    from scipy.linalg.lapack import cgecon

    # the factor is of A^T, whose Fortran order is A's own C order: the cast
    # is one contiguous pass (a Fortran-ordered copy of A took 5x as long at
    # 2048 nodes), factorised in place, and A x = b is its transposed solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)  # a zero pivot reads rcond 0 below
        lu = lu_factor(matrix.astype(np.complex64).T, overwrite_a=True, check_finite=False)
    rcond, info = cgecon(lu[0], anorm, norm="I")  # ||A^T||_inf ||A^-T||_inf = ||A||_1 ||A^-1||_1
    condition = np.inf if rcond == 0 or info != 0 else 1.0 / rcond
    if not condition <= SINGLE_CONDITION_LIMIT:
        return None
    _check_condition(condition)
    tolerance = math.sqrt(len(matrix)) * DOUBLE_ROUNDOFF * anorm_inf
    densities = np.zeros_like(rhs)
    residuals = rhs
    for _ in range(1 + REFINE_MAX_STEPS):
        densities += lu_solve(lu, residuals.astype(np.complex64), trans=1, check_finite=False)
        residuals = rhs - matrix @ densities
        norms = np.linalg.norm(residuals, np.inf, axis=0)
        if np.all(norms <= tolerance * np.linalg.norm(densities, np.inf, axis=0)):
            return densities, norms, condition
    return None


def solve_incidents(scene: Scene, incidents, mesh: BoundaryMesh) -> list[ScatterSolution]:
    """One sound-hard scattering solution per incident field, in order.

    Assembles the Nystrom system once and inverts it with numpy up to
    INVERSE_MAX_NODES nodes, where the condition is the exact
    ||A||_1 ||A^-1||_1 (zgecon's Hager-Higham estimate is a lower bound).
    Above, it factorises a complex64 copy with scipy, reads cgecon's
    estimate, and refines the solve in double until zcgesv's stopping test
    holds; a condition estimate past SINGLE_CONDITION_LIMIT (2^-24 times it
    past 1e-2), a zero pivot, a NaN, or no convergence within
    REFINE_MAX_STEPS corrections sends the system to scipy's complex128 LU
    and zgecon's estimate instead.  The branch taken is each solution's
    ``factorization``.  All right-hand sides go through one product with
    the inverse or one LU solve per step.

    Raises DomainError for a point source inside an obstacle, then
    ResolutionError past SYSTEM_MAX_ENTRIES, then NearFieldError for a
    point source within 3 panel lengths of the boundary (the rule of
    ``scattered_field``'s evaluation points), before anything is assembled;
    then SolverError when the condition is not finite (a singular or NaN
    matrix) or marks k as near a spurious interior resonance of the
    single-layer ansatz, or when a discrete residual exceeds RESIDUAL_TOL
    of its right-hand side.  An empty list assembles nothing and gives [].
    """
    incidents = list(incidents)
    for incident in incidents:
        if isinstance(incident, PointSource) and any(poly.contains(incident.y) for poly in scene.obstacles):
            raise DomainError("point source inside an obstacle")
    if not incidents:
        return []
    if mesh.n_nodes**2 > SYSTEM_MAX_ENTRIES:
        raise ResolutionError(f"a mesh of {mesh.n_nodes} nodes needs an N x N system of more than "
                              f"{SYSTEM_MAX_ENTRIES} entries; use fewer nodes per edge")
    sources = np.array([inc.y for inc in incidents if isinstance(inc, PointSource)]).reshape(-1, 2)
    if mesh.n_nodes and len(sources):
        dx, dy = (sources[:, c, None] - mesh.nodes[None, :, c] for c in (0, 1))
        _check_far_from_boundary(mesh, np.sqrt(dx * dx + dy * dy), "point source")
    condition, factorization = 1.0, "inverse"
    densities = np.zeros((0, len(incidents)), dtype=complex)
    residuals = np.zeros(len(incidents))
    if mesh.n_nodes:
        matrix = _assemble(mesh, scene.wavenumber_k)
        rhs = -normal_derivatives(incidents, scene.wavenumber_k, mesh.nodes, mesh.normals)
        if mesh.n_nodes <= INVERSE_MAX_NODES:
            solved = _inverse_solve(matrix, rhs)
        else:
            absolute = np.abs(matrix)  # both norms from one pass, each bitwise np.linalg.norm's
            anorm, anorm_inf = absolute.sum(axis=0).max(), absolute.sum(axis=1).max()
            del absolute
            factorization = "single-refined"
            solved = _single_refined_solve(matrix, rhs, anorm, anorm_inf)
            if solved is None:
                factorization = "double"
                solved = _double_solve(matrix, rhs, anorm)
        densities, residuals, condition = solved
        scale = np.maximum(np.linalg.norm(rhs, np.inf, axis=0), 1e-300)
        if np.any(residuals > RESIDUAL_TOL * scale):
            raise SolverError(f"discrete residual {np.max(residuals):.2e} exceeds tolerance")
    return [
        ScatterSolution(
            scene=scene,
            incident=incident,
            mesh=mesh,
            density=densities[:, j],
            condition_estimate=condition,
            residual_norm=float(residuals[j]),
            factorization=factorization,
        )
        for j, incident in enumerate(incidents)
    ]


def solve_scattering(scene: Scene, incident, mesh: BoundaryMesh) -> ScatterSolution:
    """Solve the sound-hard scattering problem for one incident field."""
    return solve_incidents(scene, [incident], mesh)[0]


def _check_far_from_boundary(mesh: BoundaryMesh, r: np.ndarray, what: str = "evaluation point") -> None:
    """Raise NearFieldError if a point's nearest node, by the rows of distances r, is within 3 of its panel lengths."""
    nearest = np.argmin(r, axis=1)
    if np.any(r[np.arange(len(r)), nearest] < 3.0 * mesh.panel_sizes[nearest]):
        raise NearFieldError(
            f"{what} within 3 panel lengths of the boundary; "
            "the plain Nystrom quadrature is not valid there"
        )


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
        _check_far_from_boundary(mesh, r)
    k = sol.scene.wavenumber_k
    dw = sol.density * mesh.weights
    w = (0.25j * hankel1(0, k * r)) @ dw
    radial = hankel1(1, k * r)  # (H_0)' = -H_1
    radial *= -0.25j * k
    radial /= r
    radial *= dw
    grad = np.column_stack([np.einsum("ij,ij->i", radial, dx), np.einsum("ij,ij->i", radial, dy)])
    return (w[0], grad[0]) if len(x) == 1 else (w, grad)


def circle_nodes(center, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced nodes center + R (cos, sin) of angles 2 pi j / n, and their outward normals."""
    ang = 2 * np.pi * np.arange(n) / n
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    return center + radius * normals, normals


def circle_field(sol: ScatterSolution, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """w and its outward radial derivative at the n ``circle_nodes`` of the circle |x - c| = radius.

    Every node y_j = c + r_j (cos t_j, sin t_j) lies inside the circle, so
    Graf's addition theorem, H_0(k|x - y|) = sum_m H_m(kR) J_m(k r) e^{im(theta - t)},
    turns the single-layer sum into one circular-harmonic series
    w = sum_m a_m H_m(kR) e^{im theta}, d_r w = sum_m a_m k H'_m(kR) e^{im theta},
    with a_m = (i/4) sum_j dw_j J_m(k r_j) e^{-im t_j} and J_{-m} = (-1)^m J_m.
    Its terms fall off like rho^|m|, rho = max r_j / R, and it stops where
    the tail drops below double round-off.  The products J_m H_m are formed
    from the power-of-two scaled values of ``hankel1_orders`` and
    ``bessel_j_orders``, so no factor overflows.  Modes fold modulo n, and
    each sum is one inverse FFT.

    Raises NearFieldError where ``scattered_field`` at the same nodes
    would: only a node with |R - r_j| < 3 panel lengths can trigger it, so
    the exact check runs only when such a node exists.  Then raises
    DomainError when an obstacle vertex lies at or beyond the circle, where
    the series diverges.  Then raises ResolutionError, before any term is
    formed, when the series needs more than SERIES_MAX_ENTRIES terms
    (orders + 1) x N: a circle that clears a vertex by a hair.
    """
    mesh = sol.mesh
    if not mesh.n_nodes:
        return np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    scene = sol.scene
    rel = mesh.nodes - scene.center
    r = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(np.abs(radius - r) < 3.0 * mesh.panel_sizes):
        pts = circle_nodes(scene.center, radius, n)[0]
        dx, dy = (pts[:, c, None] - mesh.nodes[None, :, c] for c in (0, 1))
        _check_far_from_boundary(mesh, np.sqrt(dx * dx + dy * dy))
    if np.any(np.linalg.norm(scene.all_vertices - scene.center, axis=1) >= radius):
        raise DomainError("the measurement circle must enclose every obstacle vertex")
    k = scene.wavenumber_k
    x = k * radius
    rho = np.max(r) / radius
    # past order x each term is at most rho times the one before, so the tail
    # past top is below eps / (1 + x) of the order-x term; 1 + x covers the
    # growth of k H'_m ~ (m / R) H_m
    top = math.ceil(x) + math.ceil(math.log(np.finfo(float).eps / (1 + x)) / math.log(rho))
    if (top + 1) * mesh.n_nodes > SERIES_MAX_ENTRIES:
        raise ResolutionError(f"the circle's harmonic series needs {top + 1} orders over {mesh.n_nodes} nodes, "
                              f"more than {SERIES_MAX_ENTRIES} terms (max |node - centre| / R = {rho:.6f}); "
                              "enlarge the measurement circle")
    h, dh, exps = hankel1_orders(top, x)
    terms = bessel_j_orders(k * r, exps).astype(complex)  # J_m(k r_j) H_m(kR) / h_m
    phase = np.exp(-1j * np.arctan2(rel[:, 1], rel[:, 0]))
    terms[1:] *= np.cumprod(np.broadcast_to(phase, (top, mesh.n_nodes)), axis=0)
    dw = sol.density * mesh.weights
    sums = terms @ np.column_stack([dw, dw.conj()])  # sum_j dw_j J_m e^{-+im t_j} H_m / h_m, m >= 0
    sums[:, 1] = sums[:, 1].conj()
    orders = np.concatenate([np.arange(top + 1), -np.arange(1, top + 1)]) % n
    coeffs = 0.25j * np.concatenate([sums[:, 0], sums[1:, 1]])
    spectrum = np.zeros((2, n), dtype=complex)
    np.add.at(spectrum[0], orders, coeffs * np.concatenate([h, h[1:]]))
    np.add.at(spectrum[1], orders, coeffs * k * np.concatenate([dh, dh[1:]]))
    w, dwdr = np.fft.ifft(spectrum, axis=1) * n
    return w, dwdr


def eval_total(sol: ScatterSolution, x):
    """Total field u_inc + w at exterior points."""
    return sol.incident.value(sol.scene.wavenumber_k, x) + scattered_field(sol, x)[0]


def _ldexp(z, exps):
    """z 2^exps for complex z, exact where nothing overflows or underflows."""
    return np.ldexp(z.real, exps) + 1j * np.ldexp(z.imag, exps)


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
    b_m = -J'_|m|(ka) / H'_|m|(ka) * a_|m| * e^{-i m theta0}, for the
    ``orders`` m = -N..N and their ``coefficients`` b_m.

    Every order comes from ``hankel1_orders`` and ``bessel_j_orders`` at the
    power-of-two scales of H_n(ka), with J'_n = (n/x) J_n - J_{n+1}, so no
    factor overflows; N is the first n > ka + 8 whose boundary term
    |b_n H_n(ka)| is below TAIL_TOL.
    """

    TAIL_TOL = 1e-12
    MAX_MODES = 300

    def __init__(self, center, a: float, k: float, incident):
        self.center = np.asarray(center, dtype=float)
        self.a, self.k = float(a), float(k)
        self.incident = incident
        n = np.arange(self.MAX_MODES + 1)
        if isinstance(incident, PointSource):
            rel = incident.y - self.center
            rho = np.linalg.norm(rel)
            if rho <= a:
                raise DomainError("point source must lie outside the disc")
            theta0 = np.arctan2(rel[1], rel[0])
            h_rho, _, amplitude_exps = hankel1_orders(self.MAX_MODES, self.k * rho)
            amplitude = 0.25j * h_rho  # a_n = amplitude[n] 2^amplitude_exps[n]
        elif isinstance(incident, PlaneWave):
            theta0 = incident.d.angle
            amplitude = np.array([1, 1j, -1, -1j])[n % 4] * np.exp(1j * self.k * (self.center @ incident.d.vec))
            amplitude_exps = 0
        else:
            raise DomainError("disc series supports PlaneWave and PointSource only")
        ka = self.k * self.a
        h, dh, exps = hankel1_orders(self.MAX_MODES + 1, ka)
        j = bessel_j_orders(np.array([ka]), exps)[:, 0]  # J_n(ka) 2^exps[n]
        dj = (n / ka) * j[:-1] - np.ldexp(j[1:], exps[:-1] - exps[1:])  # J'_n(ka) 2^exps[n]
        scaled = -dj / dh[:-1] * amplitude  # b_n 2^(2 exps[n] - amplitude_exps)
        boundary = np.ldexp(np.abs(scaled * h[:-1]), amplitude_exps - exps[:-1])  # |b_n H_n(ka)|
        stop = (n > ka + 8) & (boundary < self.TAIL_TOL)
        if not stop.any():
            raise SolverError("disc series did not reach the tail tolerance")
        top = int(np.argmax(stop))
        b = _ldexp(scaled, amplitude_exps - 2 * exps[:-1])[: top + 1]
        self.orders = np.arange(-top, top + 1)
        self.coefficients = np.concatenate([b[:0:-1], b]) * np.exp(-1j * self.orders * theta0)

    def eval_scattered(self, x):
        """sum_m b_m H_|m|(k r) e^{i m theta} at x, with one order recursion per distinct radius."""
        rel = np.atleast_2d(np.asarray(x, dtype=float)) - self.center
        r, theta = np.linalg.norm(rel, axis=-1), np.arctan2(rel[:, 1], rel[:, 0])
        radii, which = np.unique(self.k * r, return_inverse=True)
        m = np.abs(self.orders)
        terms = np.empty((len(radii), len(m)), dtype=complex)  # b_m H_|m|(k r) per radius
        for i, kr in enumerate(radii):
            h, _, exps = hankel1_orders(self.orders[-1], kr)
            terms[i] = _ldexp(self.coefficients * h[m], exps[m])
        out = np.einsum("pm,pm->p", np.exp(1j * theta[:, None] * self.orders), terms[which])
        return out[0] if np.asarray(x).ndim == 1 else out

    def eval_total(self, x):
        return self.incident.value(self.k, x) + self.eval_scattered(x)

    def far_field(self, angles):
        """Far-field pattern of the scattered series at observation angles of any shape."""
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        const = np.sqrt(2.0 / (np.pi * self.k)) * np.exp(-0.25j * np.pi)
        out = np.exp(1j * angles[..., None] * self.orders) @ (self.coefficients * (-1j) ** np.abs(self.orders))
        # center offset shifts the far-field phase by e^{-ik phi.c}
        phase = np.exp(-1j * self.k * (np.cos(angles) * self.center[0] + np.sin(angles) * self.center[1]))
        return const * out * phase
