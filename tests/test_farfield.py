"""Far-field patterns, operator structure, and the unsolvability diagnostic."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from enclosure2d import farfield
from enclosure2d.errors import DomainError
from enclosure2d.farfield import (
    assemble_far_field_operator,
    check_alpha_sweep,
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
    return disc_far_field_operator(DISC_R, K, 64)


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

    def test_disc_operator_is_the_series_on_every_angle_difference(self, disc_op):
        # the reference evaluates the incidence-0 series on the full (n, n) grid of phi - d
        series = DiscSeriesSolution((0.0, 0.0), DISC_R, K, PlaneWave(Direction.from_angle(0.0)))
        ref = series.far_field(disc_op.obs_angles[:, None] - disc_op.inc_angles[None, :])
        assert np.max(np.abs(disc_op.matrix - ref)) < 1e-14 * np.max(np.abs(ref))

    def test_disc_operator_about_a_center_is_the_series_there(self):
        # the phases on either side of the circulant against one series per incidence about c
        center = np.array([3.0, -1.0])
        op = disc_far_field_operator(DISC_R, K, 16, center)
        ref = np.column_stack([
            DiscSeriesSolution(center, DISC_R, K, PlaneWave(Direction.from_angle(d))).far_field(op.obs_angles)
            for d in op.inc_angles])
        assert np.max(np.abs(op.matrix - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_disc_operator_at_the_origin_is_the_bare_circulant(self, disc_op):
        # both phases are exactly 1 there, so the origin's operator.csv does not move with them
        n = len(disc_op.inc_angles)
        pattern = DiscSeriesSolution((0.0, 0.0), DISC_R, K, PlaneWave(Direction.from_angle(0.0))).far_field(
            disc_op.obs_angles)
        circulant = pattern[np.subtract.outer(np.arange(n), np.arange(n)) % n]
        assert disc_op.matrix.tobytes() == circulant.tobytes()

    def test_disc_operator_forms_no_orders_tensor(self):
        # one series on n angles: an (n, n, orders) phase array at n = 512 traced 202 MiB
        tracemalloc.start()
        try:
            op = disc_far_field_operator(0.5, 2.0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.shape == (512, 512)
        assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("alphas", [
        np.geomspace(1e-2, 1e-8, 4),
        np.geomspace(1e-8, 1e-2, 7),
        [1e-2, 1e-3, 1e-4, 1e-4, 1e-5, 1e-6],
        np.geomspace(1e-2, 1e-2 / 10**3.9, 7),
        [1e-2, 1e-3, np.nan, 1e-5, 1e-6],
        [1e-2, 1e-3, 1e-4, 1e-5, 0.0],
        np.geomspace(1e-2, 1e-8, 14).reshape(2, 7),
    ], ids=["four-values", "increasing", "repeated", "3.9-decades", "nan", "zero", "2-d"])
    def test_each_alpha_sweep_rule(self, disc_op, alphas):
        with pytest.raises(DomainError):
            check_alpha_sweep(alphas)
        with pytest.raises(DomainError):
            unsolvability_diagnostic(disc_op, (0.0, 0.0), alphas)

    def test_sweep_returns_floats(self):
        sweep = check_alpha_sweep([10**5, 10**4, 10**3, 100, 10])
        assert sweep.dtype == float
        np.testing.assert_array_equal(sweep, [1e5, 1e4, 1e3, 1e2, 1e1])

    def test_one_right_hand_side_per_sweep(self, square_op, monkeypatch):
        # the norms, the residuals and the Picard coefficients share one c and one U^H c
        weighted_rhs, calls = farfield._weighted_rhs, []

        def counting(*args):
            calls.append(args)
            return weighted_rhs(*args)

        monkeypatch.setattr(farfield, "_weighted_rhs", counting)
        unsolvability_diagnostic(square_op, (0.2, 0.1), np.logspace(-2, -8, 7))
        assert len(calls) == 1

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
        alpha = 1e-6 * float(np.max(np.abs(square_op.matrix))) ** 2  # the map's alpha
        values = lsm_indicator_map(square_op, points)
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
        pytest.param(lambda op: lsm_indicator_map(op, [[0.0, 0.0], [np.nan, 0.0]]), id="map-nan-point"),
        pytest.param(lambda op: lsm_indicator_map(dataclasses.replace(op, matrix=np.full_like(op.matrix, np.nan)),
                                                  [[0.0, 0.0]]), id="map-nan-operator"),
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

    # 3721 points: 15 blocks of the map, the last one overlapping its predecessor
    GRID = np.array([[x, y] for y in np.linspace(-2.0, 2.0, 61) for x in np.linspace(-2.0, 2.0, 61)])
    # as many points with no repeated coordinate: the direct exponential
    SCATTERED = np.random.default_rng(0).uniform(-2.0, 2.0, size=(3721, 2))

    @staticmethod
    def resolved(op):
        """The map's modes, sigma_m > max(N_obs, N_inc) eps sigma_0, and the map's alpha."""
        s = op.svd[1]
        r = int(np.sum(s > max(op.matrix.shape) * np.finfo(float).eps * s[0]))
        return r, 1e-6 * float(np.max(np.abs(op.matrix))) ** 2

    @pytest.mark.parametrize("which", ["square_op", "l_op", "tall_square_op"])
    def test_map_is_bitwise_the_reference(self, request, which):
        # the reference sums every mode; the dropped ones lie below round-off
        op = request.getfixturevalue(which)
        norms, _ = tikhonov_reference(op, self.resolved(op)[1], self.SCATTERED)
        np.testing.assert_array_equal(lsm_indicator_map(op, self.SCATTERED), 1.0 / norms[0])

    @pytest.mark.parametrize("which", ["square_op", "l_op", "tall_square_op"])
    def test_tensor_grid_map_moves_within_the_factor_rounding(self, request, which):
        # Per entry the factored and the direct far field round differently: the direct phase
        # k (x cos + y sin) by 3 k u (|x| + |y|), the two factor phases by 2 k u (|x| + |y|), u per
        # exponential (one against two) and sqrt(5) u per complex product (one against two), so
        # |dc| <= (5 k (|x| + |y|) + 3 + 3 sqrt(5)) u |c|.  The norm is sqrt(w_i) ||D_f U_r^H c|| with
        # f <= f_max, and U^H c rounds on either side by at most 2 N_obs u |U_r^H| |c| (a complex dot
        # of N_obs terms), so |d ||g||| <= sqrt(w_i) f_max (||dc|| + 4 N_obs u || |U_r^H| |c| ||).  The
        # norm's own sum over r modes and its square root add (r + 2) u, and the dropped modes eps.
        op = request.getfixturevalue(which)
        r, alpha = self.resolved(op)
        u_mach = np.finfo(float).eps / 2
        u, s, _ = op.svd
        c = weighted_rhs_reference(op, self.GRID)
        per_entry = (5 * op.k * np.sum(np.abs(self.GRID), axis=1) + 3 + 3 * np.sqrt(5)) * u_mach
        shift = per_entry * np.linalg.norm(c, axis=0) + 4 * len(op.obs_angles) * u_mach * np.linalg.norm(
            np.abs(u[:, :r].conj().T) @ np.abs(c), axis=0)
        norms, _ = tikhonov_reference(op, alpha, self.GRID)
        f_max = np.max(s / (s**2 + alpha * op.inc_weight))
        bound = np.sqrt(op.inc_weight) * f_max * shift / norms[0] + (r + 2) * u_mach + np.finfo(float).eps
        change = np.abs(lsm_indicator_map(op, self.GRID) * norms[0] - 1.0)
        assert np.all(change <= bound)

    @pytest.mark.parametrize("which", ["disc_op", "square_op", "l_op", "tall_square_op"])
    def test_dropped_modes_lie_below_round_off(self, request, which):
        # A dropped mode m >= r adds w_i (s_m / (s_m^2 + alpha w_i))^2 |u_m^H c|^2 <= w_i (s_r / (alpha w_i))^2
        # |u_m^H c|^2 to ||g||^2, and those |u_m^H c|^2 sum to at most ||c - U_r U_r^H c||^2.  That share of
        # each point's ||g||^2 is below eps.  (With ||c||^2 in place of the part outside the resolved modes
        # the share reads 1.06 eps on the L and 23 eps on the 128-direction square.)
        op = request.getfixturevalue(which)
        r, alpha = self.resolved(op)
        u, s, _ = op.svd
        sigma_r = s[r] if r < len(s) else 0.0
        c, u_r = weighted_rhs_reference(op, self.GRID), u[:, :r]
        outside = np.sum(np.abs(c - u_r @ (u_r.conj().T @ c)) ** 2, axis=0)
        norms, _ = tikhonov_reference(op, alpha, self.GRID)
        share = op.inc_weight * (sigma_r / (alpha * op.inc_weight)) ** 2 * outside / norms[0] ** 2
        assert np.max(share) < np.finfo(float).eps

    @pytest.mark.parametrize("which", ["square_op", "l_op", "tall_square_op"])
    def test_shuffled_grid_gives_the_permuted_map(self, request, which):
        op = request.getfixturevalue(which)
        order = np.random.default_rng(1).permutation(len(self.GRID))
        np.testing.assert_array_equal(lsm_indicator_map(op, self.GRID[order]), lsm_indicator_map(op, self.GRID)[order])

    def test_zero_operator_map_is_infinite(self, empty_scene):
        op = assemble_far_field_operator(empty_scene, 16, 16)
        assert np.all(lsm_indicator_map(op, self.GRID) == np.inf)

    def test_zero_operator_sweep_is_domain_error(self, empty_scene):
        op = assemble_far_field_operator(empty_scene, 16, 16)
        with pytest.raises(DomainError):
            unsolvability_diagnostic(op, (0.0, 0.0), np.geomspace(1e-2, 1e-8, 7))

    def test_sweep_marks_the_modes_the_map_reads(self, monkeypatch):
        # bench farfield-map's square: 128 directions at 64 nodes per edge, 17 resolved modes.  The
        # sweep reports the count the map sums over, so its later Picard coefficients read as round-off
        op = assemble_far_field_operator(make_scene(SQUARE_VERTS), 128, 128, nodes_per_edge=64)
        report = unsolvability_diagnostic(op, (0.0, 0.0), np.geomspace(1e-3, 1e-9, 7))
        read = []
        norms = farfield._norms
        monkeypatch.setattr(farfield, "_norms", lambda op, alphas, power: read.append(len(power)) or
                            norms(op, alphas, power))
        lsm_indicator_map(op, self.GRID)
        assert report.resolved_modes == self.resolved(op)[0] == 17
        assert set(read) == {17} and len(report.picard) == 128

    def test_zero_operator_resolves_no_mode(self, empty_scene):
        assert assemble_far_field_operator(empty_scene, 16, 16).resolved_modes == 0

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
