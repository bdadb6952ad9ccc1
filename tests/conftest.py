"""Shared scenes and (expensive) solver fixtures.

Session-scoped fixtures cache the unit-square forward solve and its
boundary-circle trace so the indicator/fit tests do not re-solve the
same system dozens of times.
"""

import math

import numpy as np
import pytest

from enclosure2d.farfield import far_field_constant
from enclosure2d.fields import PlaneWave, PointSource, ProbeParams
from enclosure2d.forward import build_mesh, circle_nodes, eval_total, solve_incidents, solve_scattering
from enclosure2d.geometry import Direction, Polygon, Scene
from enclosure2d.indicator import NOISE_SNR, IndicatorSamples
from enclosure2d.trace import trace_direct

SQUARE_VERTS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
TRIANGLE_VERTS = np.array(
    [[0.5, -np.sqrt(3) / 6], [0.0, np.sqrt(3) / 3], [-0.5, -np.sqrt(3) / 6]]
)
# L-shaped hexagon (nonconvex), contained in the unit square
L_VERTS = np.array(
    [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [-0.5, 0.5]]
)
# two boxes 0.2 apart: a multi-obstacle mesh, and a scene where the CLI's
# hull to tau 60 has directions with fewer than 8 usable indicator samples
TWO_BOXES = (
    np.array([[-0.7, -0.3], [-0.1, -0.3], [-0.1, 0.3], [-0.7, 0.3]]),
    np.array([[0.1, -0.3], [0.7, -0.3], [0.7, 0.3], [0.1, 0.3]]),
)


def make_scene(verts):
    obstacles = () if verts is None else (Polygon(np.asarray(verts, dtype=float)),)
    return Scene(
        obstacles=obstacles,
        radius_R=2.0,
        radius_R1=6.0,
        source_y=(6.0, 0.0),
        wavenumber_k=2.0,
    )


def eval_probe(p: ProbeParams, x, t_ref=0.0):
    """Scaled probe value e^{tau (x.omega - t_ref)} e^{i kappa x.omega_perp}, one row per tau."""
    x, tau = np.atleast_2d(np.asarray(x, dtype=float)), p.tau[:, None]
    return np.exp(tau * (x @ p.omega.vec - t_ref) + 1j * np.hypot(tau, p.k) * (x @ p.omega.perp))


def probe_gradient_factor(p: ProbeParams):
    """Constant vectors zeta with grad(probe) = zeta * probe, one row per tau."""
    tau = p.tau[:, None]
    return tau * p.omega.vec + 1j * np.hypot(tau, p.k) * p.omega.perp


def quadrature_samples(trace, omega, taus, t_ref=None):
    """The indicator by trapezoid quadrature of the Cauchy data, with its eps*L1 round-off floor.

    J(tau) = int (du/dnu v_tau - dv_tau/dnu u) dS over the circle, with the
    probe referenced to t0 = max(x.omega) on the circle so that every
    integrand term has modulus at most O(|u| tau), then shifted to t_ref
    (default: the circle radius).  The floor is machine epsilon times the
    L1 mass of the integrand; a sample is usable NOISE_SNR times above it.
    It reads du/dn, which the package's indicator does not, so it is an
    independent reference for it.
    """
    taus = np.asarray(taus, dtype=float)
    t_ref = trace.radius if t_ref is None else t_ref
    pts, normals = circle_nodes(trace.center, trace.radius, trace.n)
    t0 = float(np.max(pts @ omega.vec))
    probe = ProbeParams(omega, taus, trace.k)
    v = eval_probe(probe, pts, t_ref=t0)
    # einsum, not the factor @ normals.T: it rounds each tau's zeta.nu
    # exactly as a one-tau matvec does
    zeta_dot_nu = np.einsum("nc,tc->tn", normals.astype(complex), probe_gradient_factor(probe))
    integrand = (trace.dudn - zeta_dot_nu * trace.u) * v
    ds = 2 * np.pi * trace.radius / trace.n
    j_scaled = np.sum(integrand, axis=1) * ds
    l1_mass = np.sum(np.abs(integrand), axis=1) * ds

    log_floor_t0 = np.log(np.maximum(l1_mass, 1e-300)) + math.log(np.finfo(float).eps)
    with np.errstate(divide="ignore"):
        log_mag_t0 = np.log(np.abs(j_scaled))
    shift = taus * (t0 - t_ref)
    log_mag = log_mag_t0 + shift
    return IndicatorSamples(
        omega=omega,
        t_ref=t_ref,
        taus=taus,
        log_magnitudes=log_mag,
        phases=np.angle(j_scaled),
        usable=np.isfinite(log_mag) & (log_mag_t0 > log_floor_t0 + math.log(NOISE_SNR)),
        k=trace.k,
        log_noise_floors=log_floor_t0 + shift,
    )


def formula_samples(trace, omega, taus, t_ref=None):
    """(log|J|, phase, usable, floor) of ``compute_samples`` from its formula, every factor formed afresh.

    The probe's expansion e^{n eta - tau R} 2^-exps is rebuilt for this one
    direction, real, so the product with the modes promotes it to complex
    on the fly; the package keeps it, complex, in the trace's
    ``probe_table``.  The two must agree bitwise.
    """
    taus = np.asarray(taus, float)
    t_ref = float(trace.radius if t_ref is None else t_ref)
    kappa = np.hypot(ProbeParams(omega, taus, trace.k).tau, trace.k)
    modes = trace.modes
    eta = np.arcsinh(taus / trace.k)
    scale = np.exp(eta[:, None] * modes.orders - (taus * trace.radius)[:, None] - math.log(2) * modes.exps)
    series = scale @ (modes.a * np.exp(1j * omega.angle * modes.orders))
    g_norm = np.sqrt(scale**2 @ np.abs(modes.h) ** -2)
    shift = taus * (trace.center @ omega.vec + trace.radius - t_ref)
    with np.errstate(divide="ignore"):
        log_mag = np.log(4 * np.abs(series)) + shift
        log_floor = np.log(4 * modes.tail * g_norm) + shift
    phases = np.angle(1j * series * np.exp(1j * kappa * (trace.center @ omega.perp)))
    return log_mag, phases, np.isfinite(log_mag) & (log_mag > log_floor + math.log(NOISE_SNR)), log_floor


def reference_samples(sol, trace, omega, taus, t_ref=None):
    """Floor-free reference log|J| and phase of ``compute_samples(trace, omega, taus, t_ref)``.

    The Nystrom scattered field is a sum of point sources and the incident
    field is regular in the measurement disc, so Green's second identity
    gives J(tau) = -sum_z phi_z w_z v_tau(z) (density, mesh weights, probe)
    up to the circle's trapezoid error.  Every term is at most the size of
    J, so the sum has no cancellation floor.  It reads the density, which
    is forward-model ground truth: a check for tests, never an inversion.
    The probe is referenced to t0 = max(x.omega) on the circle and shifted
    to t_ref (default: the circle radius) as compute_samples does.
    """
    taus = np.asarray(taus, dtype=float)
    t0 = float(np.max(circle_nodes(trace.center, trace.radius, trace.n)[0] @ omega.vec))
    v = eval_probe(ProbeParams(omega, taus, trace.k), sol.mesh.nodes, t_ref=t0)
    j = -v @ (sol.density * sol.mesh.weights)
    return np.log(np.abs(j)) + taus * (t0 - (trace.radius if t_ref is None else t_ref)), np.angle(j)


def far_field_pattern(sol, angles):
    """Far field of the scattered single-layer field at observation angles, as the operator's columns are built."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    k, mesh = sol.scene.wavenumber_k, sol.mesh
    phi_hat = np.column_stack([np.cos(angles), np.sin(angles)])
    phases = np.exp(-1j * k * (phi_hat @ mesh.nodes.T))
    return (far_field_constant(k) * phases @ (sol.density[:, None] * mesh.weights[:, None]))[:, 0]


def weighted_rhs_reference(op, points):
    """sqrt(w_o) times the point-source far fields, one column per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    return math.sqrt(op.obs_weight) * far_field_constant(op.k) * np.exp(-1j * op.k * (phi_hat @ points.T))


def tikhonov_reference(op, alphas, points):
    """Norms and relative residuals, shaped (alphas, points), from the operator's SVD.

    Both for every point, in blocks of 256 points as the package's map
    takes them; the residuals form c - U U^H c, which the map does not
    need.  The map's and the sweep's values must agree with these bitwise.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    u, s, _ = op.svd
    damping = op.inc_weight * alphas[:, None]
    filtered, missed = s / (s**2 + damping), damping / (s**2 + damping)
    norms, resids = np.empty((2, len(alphas), len(points)))
    for start in range(0, len(points), 256):
        block = slice(start, start + 256)
        c = weighted_rhs_reference(op, points[block])
        coeffs = u.conj().T @ c
        power = np.abs(coeffs) ** 2
        outside = np.sum(np.abs(c - u @ coeffs) ** 2, axis=0)
        norms[:, block] = np.sqrt(op.inc_weight * (filtered**2 @ power))
        resids[:, block] = np.sqrt((missed**2 @ power + outside) / np.sum(np.abs(c) ** 2, axis=0))
    return norms, resids


def point_source_far_field_check(scene, d_angles, nodes_per_edge=64, p_grade=4.0):
    """Max relative discrepancy of the point-source far-field identity.

    Compares the far field of the point-source total field against
    (e^{i pi/4}/sqrt(8 pi k)) u(y; -d, k), where u(y; -d, k) is the total
    plane-wave field at the source location with incidence -d.  The
    point source and all plane waves go through one ``solve_incidents``.
    """
    d_angles = np.atleast_1d(np.asarray(d_angles, dtype=float))
    k = scene.wavenumber_k
    y = scene.source_y
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
    # incidence -d for every observation direction d
    plane_waves = [PlaneWave(Direction.from_angle(ang + np.pi)) for ang in d_angles]
    ps_sol, *pw_sols = solve_incidents(scene, [PointSource(y)] + plane_waves, mesh)
    d_hat = np.column_stack([np.cos(d_angles), np.sin(d_angles)])
    ff_total = far_field_pattern(ps_sol, d_angles) + far_field_constant(k) * np.exp(-1j * k * (d_hat @ y))
    rhs = far_field_constant(k) * np.array([eval_total(sol, y) for sol in pw_sols])
    return float(np.max(np.abs(ff_total - rhs)) / np.max(np.abs(ff_total)))


@pytest.fixture(scope="session")
def square_scene():
    return make_scene(SQUARE_VERTS)


@pytest.fixture(scope="session")
def empty_scene():
    return make_scene(None)


@pytest.fixture(scope="session")
def taus():
    return np.geomspace(8.0, 40.0, 16)


@pytest.fixture(scope="session")
def square_sol(square_scene):
    mesh = build_mesh(square_scene, nodes_per_edge=64)
    return solve_scattering(square_scene, PointSource(square_scene.source_y), mesh)


@pytest.fixture(scope="session")
def square_trace(square_sol, square_scene):
    return trace_direct(square_sol, square_scene.radius_R, 512)


@pytest.fixture(scope="session")
def square_trace_pw(square_scene):
    mesh = build_mesh(square_scene, nodes_per_edge=64)
    sol = solve_scattering(square_scene, PlaneWave(Direction.from_angle(0.7)), mesh)
    return trace_direct(sol, square_scene.radius_R, 512)
