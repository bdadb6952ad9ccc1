"""Far-field patterns, operator structure, and the unsolvability diagnostic."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from enclosure2d.errors import DomainError
from enclosure2d.farfield import (
    assemble_far_field_operator,
    disc_far_field_operator,
    far_field_constant,
    lsm_indicator_map,
    unsolvability_diagnostic,
)
from enclosure2d.fields import PlaneWave
from enclosure2d.forward import DiscSeriesSolution, build_mesh, solve_incidents, solve_scattering
from enclosure2d.geometry import Direction, Polygon, Scene

from conftest import (
    L_VERTS,
    SQUARE_VERTS,
    TWO_BOXES,
    far_field_pattern,
    make_scene,
    point_source_far_field_check,
    tikhonov_reference,
    weighted_rhs_reference,
)

DISC_R = 0.8
K = 2.0


def disc_scene(n_gon=64):
    ang = 2 * np.pi * np.arange(n_gon) / n_gon + np.pi / n_gon
    gon = Polygon(np.column_stack([DISC_R * np.cos(ang), DISC_R * np.sin(ang)]))
    return Scene(
        obstacles=(gon,),
        radius_R=2.0,
        radius_R1=6.0,
        source_y=(6.0, 0.0),
        wavenumber_k=K,
    )


@pytest.fixture(scope="module")
def disc_op():
    return disc_far_field_operator(DISC_R, K, 64, 64)


@pytest.fixture(scope="module")
def square_op():
    return assemble_far_field_operator(make_scene(SQUARE_VERTS), 32, 32, nodes_per_edge=32)


@pytest.fixture(scope="module")
def l_op():
    return assemble_far_field_operator(make_scene(L_VERTS), 32, 32, nodes_per_edge=32)


@pytest.fixture(scope="module")
def tall_square_op():
    # more observation than incidence directions: part of every right-hand
    # side lies outside the operator's range
    return assemble_far_field_operator(make_scene(SQUARE_VERTS), 32, 16, nodes_per_edge=32)


class TestPattern:
    def test_constant(self):
        c = far_field_constant(K)
        assert abs(c) == pytest.approx(1.0 / np.sqrt(8 * np.pi * K), rel=1e-14)
        assert np.angle(c) == pytest.approx(np.pi / 4, abs=1e-14)

    def test_empty_scene_zero_pattern(self, empty_scene):
        mesh = build_mesh(empty_scene)
        sol = solve_scattering(empty_scene, PlaneWave(Direction.from_angle(0.0)), mesh)
        ff = far_field_pattern(sol, np.linspace(0, 2 * np.pi, 8, endpoint=False))
        assert np.all(ff == 0)

    def test_disc_polygon_vs_series(self):
        scene = disc_scene()
        inc = PlaneWave(Direction.from_angle(0.3))
        sol = solve_scattering(scene, inc, build_mesh(scene, nodes_per_edge=16))
        obs = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ff = far_field_pattern(sol, obs)
        ff_ref = DiscSeriesSolution((0.0, 0.0), DISC_R, K, inc).far_field(obs)
        assert np.max(np.abs(ff - ff_ref)) < 1e-2 * np.max(np.abs(ff_ref))


class TestPointSourceRelation:
    def test_small_discrepancy(self, square_scene):
        angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        assert point_source_far_field_check(square_scene, angles, nodes_per_edge=64) < 1e-3

    def test_decreases_under_refinement(self, square_scene):
        angles = np.linspace(0, 2 * np.pi, 4, endpoint=False)
        coarse = point_source_far_field_check(square_scene, angles, nodes_per_edge=32)
        fine = point_source_far_field_check(square_scene, angles, nodes_per_edge=64)
        assert fine < coarse


class TestOperator:
    def test_empty_scene_zero_operator(self, empty_scene):
        op = assemble_far_field_operator(empty_scene, 16, 16)
        assert np.all(op.matrix == 0)

    @pytest.mark.parametrize("boxes", [(SQUARE_VERTS,), TWO_BOXES], ids=["square", "two-boxes"])
    def test_columns_are_per_incidence_patterns(self, boxes):
        # the reference builds one phase matrix per incidence column
        scene = dataclasses.replace(make_scene(None), obstacles=tuple(Polygon(box) for box in boxes))
        op = assemble_far_field_operator(scene, 32, 16, nodes_per_edge=32)
        mesh = build_mesh(scene, nodes_per_edge=32)
        sols = solve_incidents(scene, [PlaneWave(Direction.from_angle(ang)) for ang in op.inc_angles], mesh)
        ref = np.column_stack([far_field_pattern(sol, op.obs_angles) for sol in sols])
        assert np.max(np.abs(op.matrix - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("verts", [None, SQUARE_VERTS], ids=["empty", "square"])
    def test_no_incidence_is_domain_error(self, verts):
        with pytest.raises(DomainError):
            assemble_far_field_operator(make_scene(verts), 8, 0, nodes_per_edge=16)

    def test_reciprocity(self, square_op):
        scale = float(np.max(np.abs(square_op.matrix)))
        assert square_op.reciprocity_defect() < 1e-4 * scale

    def test_reciprocity_needs_matching_grids(self, empty_scene):
        op = assemble_far_field_operator(empty_scene, 16, 8)
        with pytest.raises(DomainError):
            op.reciprocity_defect()

    def test_disc_operator_columns_are_per_incidence_series(self, disc_op):
        # the reference builds one series per incidence direction
        for j in (0, 5, 41):
            inc = PlaneWave(Direction.from_angle(disc_op.inc_angles[j]))
            ref = DiscSeriesSolution((0.0, 0.0), DISC_R, K, inc).far_field(disc_op.obs_angles)
            assert np.max(np.abs(disc_op.matrix[:, j] - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_disc_operator_is_circulant(self, disc_op):
        # rotation invariance makes Fourier modes eigenvectors
        for n in (0, 3):
            g = np.exp(1j * n * disc_op.inc_angles)
            out = disc_op.matrix @ g
            lam = out[0] / g[0]
            ref = lam * np.exp(1j * n * disc_op.obs_angles)
            assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(out))


def point_rhs(op, y):
    """sqrt(w_o) times the far field of the point source at y over the operator's observation grid."""
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    phases = np.exp(-1j * op.k * (phi_hat @ np.asarray(y, dtype=float)))
    return np.sqrt(op.obs_weight) * far_field_constant(op.k) * phases


def solve_far_field_equation(op, y, alpha):
    """Tikhonov solution ``(g, norm, residual)`` of the far-field equation at one sample point.

    The norm and relative residual are the package's: the last entries of
    an ``unsolvability_diagnostic`` sweep that ends at alpha.  g is
    V diag(s / (s^2 + alpha w_i)) U^H c from the operator's SVD.
    """
    report = unsolvability_diagnostic(op, y, alpha * np.geomspace(1e5, 1.0, 6))
    u, s, vh = op.svd
    g = vh.conj().T @ (s / (s**2 + alpha * op.inc_weight) * (u.conj().T @ point_rhs(op, y)))
    return g, float(report.norms[-1]), float(report.residuals[-1])


class TestRegularizedSolve:
    def test_alpha_must_be_positive(self, disc_op):
        with pytest.raises(DomainError):
            solve_far_field_equation(disc_op, (0.0, 0.0), 0.0)

    def test_norm_monotone_in_alpha(self, disc_op):
        norms = [
            solve_far_field_equation(disc_op, (0.3, 0.1), alpha)[1]
            for alpha in (1e-2, 1e-4, 1e-6)
        ]
        assert norms[0] <= norms[1] <= norms[2]

    def test_alpha_sweep_validation(self, disc_op):
        with pytest.raises(DomainError):
            unsolvability_diagnostic(disc_op, (0, 0), np.logspace(-8, -2, 13))
        with pytest.raises(DomainError):
            unsolvability_diagnostic(disc_op, (0, 0), np.logspace(-2, -4, 6))

    def test_disc_center_plateaus(self, disc_op):
        rep = unsolvability_diagnostic(disc_op, (0.0, 0.0), np.logspace(-2, -8, 13))
        assert not rep.no_plateau
        assert np.max(rep.norms) / np.min(rep.norms) < 1.5

    def test_square_exterior_blows_up(self, square_op):
        rep = unsolvability_diagnostic(square_op, (1.5, 0.3), np.logspace(-2, -8, 13))
        assert rep.no_plateau
        assert rep.norms[-1] > 10 * rep.norms[0]


def normal_equation_solve(op, y, alpha):
    """Reference (g, norm, residual): Cholesky of alpha w_i I + w_o A* A, A = w_i F."""
    a = op.matrix * op.inc_weight
    normal = op.obs_weight * (a.conj().T @ a) + alpha * op.inc_weight * np.eye(a.shape[1])
    phi_hat = np.column_stack([np.cos(op.obs_angles), np.sin(op.obs_angles)])
    rhs = far_field_constant(op.k) * np.exp(-1j * op.k * (phi_hat @ np.asarray(y, dtype=float)))
    g = cho_solve(cho_factor(normal), op.obs_weight * (a.conj().T @ rhs))
    resid = np.linalg.norm(a @ g - rhs) / np.linalg.norm(rhs)
    return g, np.sqrt(op.inc_weight) * np.linalg.norm(g), resid


class TestSvdPath:
    @pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("which", ["disc_op", "square_op", "tall_square_op"])
    def test_matches_normal_equations(self, request, which, alpha):
        op = request.getfixturevalue(which)
        for y in [(0.0, 0.0), (0.2, 0.1), (1.5, 0.5)]:
            g, norm, resid = solve_far_field_equation(op, y, alpha)
            g_ref, norm_ref, resid_ref = normal_equation_solve(op, y, alpha)
            assert np.max(np.abs(g - g_ref)) < 1e-6 * np.max(np.abs(g_ref))
            assert norm == pytest.approx(norm_ref, rel=1e-8)
            assert resid == pytest.approx(resid_ref, abs=1e-9)

    def test_map_over_several_blocks_matches_point_solves(self, square_op):
        rng = np.random.default_rng(0)
        points = rng.uniform(-2.0, 2.0, size=(300, 2))
        alpha = 1e-6
        values = lsm_indicator_map(square_op, points, alpha)
        ref = [1.0 / solve_far_field_equation(square_op, y, alpha)[1] for y in points]
        np.testing.assert_allclose(values, ref, rtol=1e-12)

    def test_one_svd_per_operator(self, square_op, monkeypatch):
        op = dataclasses.replace(square_op)  # a copy that has not computed its SVD yet
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for y in [(0.0, 0.0), (0.2, 0.1), (1.5, 0.5)]:
            unsolvability_diagnostic(op, y, np.logspace(-2, -8, 7))
        lsm_indicator_map(op, np.random.default_rng(0).uniform(-2.0, 2.0, size=(300, 2)))
        assert len(calls) == 1

    def test_report_carries_singular_values_and_picard(self, square_op):
        rep = unsolvability_diagnostic(square_op, (0.2, 0.1), np.logspace(-2, -8, 7))
        assert len(rep.singular_values) == len(rep.picard) == 32
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert np.all(rep.picard >= 0)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda op: solve_far_field_equation(op, (0.0, 0.0), np.nan), id="solve-nan-alpha"),
        pytest.param(lambda op: solve_far_field_equation(op, (np.nan, 0.0), 1e-4), id="solve-nan-point"),
        pytest.param(lambda op: unsolvability_diagnostic(op, (0.0, 0.0), [1e-2, 1e-3, 1e-4, 1e-5, -1e-6]),
                     id="sweep-negative-alpha"),
        pytest.param(lambda op: unsolvability_diagnostic(op, (0.0, 0.0), [1e-2, 1e-3, 1e-4, 1e-5, np.nan]),
                     id="sweep-nan-alpha"),
        pytest.param(lambda op: unsolvability_diagnostic(op, (0.0, np.inf), np.logspace(-2, -8, 7)),
                     id="sweep-inf-point"),
        pytest.param(lambda op: lsm_indicator_map(op, [[0.0, 0.0]], alpha=np.inf), id="map-inf-alpha"),
        pytest.param(lambda op: lsm_indicator_map(op, [[0.0, 0.0], [np.nan, 0.0]]), id="map-nan-point"),
    ])
    def test_bad_alpha_or_point_is_domain_error(self, disc_op, call):
        with pytest.raises(DomainError):
            call(disc_op)


class TestLsmMap:
    def test_disc_contrast(self, disc_op):
        interior = np.array([[0.0, 0.0], [0.2, 0.1], [-0.3, 0.2], [0.1, -0.35]])
        th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        ring = 1.5 * np.column_stack([np.cos(th), np.sin(th)])
        mi = lsm_indicator_map(disc_op, interior)
        mo = lsm_indicator_map(disc_op, ring)
        assert np.min(mi) > 10 * np.max(mo)

    def test_peak_near_center(self, disc_op):
        xs = np.linspace(-1.2, 1.2, 13)
        grid = np.array([[x, y] for x in xs for y in xs])
        vals = lsm_indicator_map(disc_op, grid)
        peak = grid[np.argmax(vals)]
        assert np.linalg.norm(peak) < 0.2


class TestNormsOnly:
    """The map forms only |U^H c|^2 and the norms; the sweep adds its one point's residuals."""

    # 3721 points: 15 blocks of the map, the last one partial
    GRID = np.array([[x, y] for y in np.linspace(-2.0, 2.0, 61) for x in np.linspace(-2.0, 2.0, 61)])

    @pytest.mark.parametrize("which", ["square_op", "l_op", "tall_square_op"])
    def test_map_is_bitwise_the_reference(self, request, which):
        op = request.getfixturevalue(which)
        alpha = 1e-6 * float(np.max(np.abs(op.matrix))) ** 2  # the map's default
        norms, _ = tikhonov_reference(op, alpha, self.GRID)
        np.testing.assert_array_equal(lsm_indicator_map(op, self.GRID), 1.0 / norms[0])

    @pytest.mark.parametrize("which", ["square_op", "l_op", "tall_square_op"])
    def test_sweep_is_bitwise_the_reference(self, request, which):
        op = request.getfixturevalue(which)
        alphas = np.geomspace(1e-3, 1e-9, 7)
        u, s, _ = op.svd
        for y in [(0.0, 0.0), (0.4, 0.4), (1.5, 0.5)]:
            report = unsolvability_diagnostic(op, y, alphas)
            norms, resids = tikhonov_reference(op, alphas, y)
            np.testing.assert_array_equal(report.norms, norms[:, 0])
            np.testing.assert_array_equal(report.residuals, resids[:, 0])
            np.testing.assert_array_equal(report.singular_values, s)
            np.testing.assert_array_equal(report.picard, np.abs(u.conj().T @ weighted_rhs_reference(op, y)[:, 0]))
