import dataclasses

import numpy as np
import pytest
from scipy.linalg import lu_factor
from scipy.linalg.lapack import zgecon

from enclosure2d import forward
from enclosure2d.errors import DomainError, NearFieldError, SolverError
from enclosure2d.farfield import assemble_far_field_operator, far_field_pattern
from enclosure2d.fields import PlaneWave, PointSource
from enclosure2d.forward import (
    INVERSE_MAX_NODES,
    MAX_GRADING_LEVELS,
    NODES_PER_PANEL,
    DiscSeriesSolution,
    Factorization,
    build_mesh,
    eval_total,
    factorize,
    modulated_nonvanishing_check,
    scattered_field,
    solve_scattering,
)
from enclosure2d.geometry import Direction, Polygon, Scene
from conftest import L_VERTS, SQUARE_VERTS, TRIANGLE_VERTS, make_scene


OFF_CENTRE = np.array([0.1, -0.2])


def regular_polygon_scene(n_sides, radius=0.5):
    t = np.linspace(0, 2 * np.pi, n_sides, endpoint=False)
    verts = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    return make_scene(verts)


class TestMesh:
    def test_node_count_and_weights(self, square_scene):
        mesh = build_mesh(square_scene, nodes_per_edge=32)
        assert mesh.n_nodes == 128
        # quadrature weights on each unit-length edge integrate to 1
        for e in range(4):
            assert np.sum(mesh.weights[mesh.edge_ids == e]) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_grading_smallest_panel(self):
        scene = make_scene(TRIANGLE_VERTS)
        p = 4.0
        mesh = build_mesh(scene, nodes_per_edge=64, p_grade=p)
        levels = min(MAX_GRADING_LEVELS, 64 // (2 * NODES_PER_PANEL) - 1)
        for e in range(3):
            on_edge = mesh.edge_ids == e
            ell = np.sum(mesh.weights[on_edge])
            smallest = np.min(mesh.panel_sizes[on_edge])
            assert smallest <= 0.5 ** (p * levels) * ell

    def test_refinement_halves_max_panel(self, square_scene):
        coarse = build_mesh(square_scene, nodes_per_edge=32)
        fine = build_mesh(square_scene, nodes_per_edge=64)
        assert np.max(fine.panel_sizes) == pytest.approx(
            0.5 * np.max(coarse.panel_sizes)
        )

    def test_empty_scene_mesh(self, empty_scene):
        mesh = build_mesh(empty_scene)
        assert mesh.nodes.shape == mesh.normals.shape == (0, 2)
        for arr in (mesh.weights, mesh.edge_ids, mesh.panel_sizes):
            assert arr.shape == (0,)
        assert mesh.edge_ids.dtype.kind == "i"
        assert mesh.nodes.dtype == mesh.weights.dtype == mesh.panel_sizes.dtype == float

    def test_invalid_parameters(self, square_scene):
        with pytest.raises(DomainError):
            build_mesh(square_scene, nodes_per_edge=8)
        with pytest.raises(DomainError):
            build_mesh(square_scene, nodes_per_edge=36)
        with pytest.raises(DomainError):
            build_mesh(square_scene, p_grade=1.0)


class TestSolve:
    def test_residual_reported(self, square_sol):
        assert square_sol.residual_norm < 1e-8 * 10  # scaled check in solver

    def test_self_convergence_rate(self, square_scene):
        # exterior field values Cauchy under refinement, empirical order >= 2
        # 32/edge is the first mesh with a stable grading depth; below that
        # the number of grading levels changes and the sequence is not clean
        x = np.array([3.0, 1.0])
        inc = PlaneWave(Direction.from_angle(0.5))
        vals = []
        for n in (32, 64, 128):
            mesh = build_mesh(square_scene, nodes_per_edge=n)
            sol = solve_scattering(square_scene, inc, mesh)
            vals.append(scattered_field(sol, x)[0])
        e1 = abs(vals[1] - vals[0])
        e2 = abs(vals[2] - vals[1])
        assert e2 < e1
        assert np.log2(e1 / e2) >= 2.0

    def test_refined_values_stable(self, square_scene):
        x = np.array([1.5, 0.2])
        inc = PlaneWave(Direction.from_angle(0.0))
        out = []
        for n in (64, 128):
            mesh = build_mesh(square_scene, nodes_per_edge=n)
            out.append(scattered_field(solve_scattering(square_scene, inc, mesh), x)[0])
        assert abs(out[1] - out[0]) < 1e-4

    def test_disc_oracle_agreement(self):
        scene = regular_polygon_scene(64)
        mesh = build_mesh(scene, nodes_per_edge=16)
        src = PointSource(scene.source_y)
        sol = solve_scattering(scene, src, mesh)
        oracle = DiscSeriesSolution(center=np.zeros(2), a=0.5, k=2.0, incident=src)
        t = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = 1.5 * np.stack([np.cos(t), np.sin(t)], axis=1)
        num = eval_total(sol, pts)
        ref = oracle.eval_total(pts)
        err = np.max(np.abs(num - ref)) / np.max(np.abs(ref))
        assert err < 1e-2

    def test_off_centre_polygon_matches_disc_series(self):
        n = 128
        ang = 2 * np.pi * np.arange(n) / n + np.pi / n
        gon = Polygon(OFF_CENTRE + np.column_stack([np.cos(ang), np.sin(ang)]))
        scene = Scene(obstacles=(gon,), radius_R=2.0, radius_R1=6.0, source_y=(6.0, 0.0), wavenumber_k=2.0)
        inc = PlaneWave(Direction.from_angle(0.7))
        sol = solve_scattering(scene, inc, build_mesh(scene, nodes_per_edge=16))
        oracle = DiscSeriesSolution(center=OFF_CENTRE, a=1.0, k=2.0, incident=inc)
        t = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = OFF_CENTRE + 1.5 * np.stack([np.cos(t), np.sin(t)], axis=1)
        ref = oracle.eval_total(pts)
        assert np.max(np.abs(eval_total(sol, pts) - ref)) < 1e-2 * np.max(np.abs(ref))

    def test_radiation_condition(self, square_sol):
        # r^{3/2} |d_r w - i k w| stays bounded with distance
        k = square_sol.scene.wavenumber_k
        vals = []
        for r in (50.0, 100.0, 200.0):
            x = np.array([r * np.cos(0.8), r * np.sin(0.8)])
            w, g = scattered_field(square_sol, x)
            dr = g @ x / r
            vals.append(r**1.5 * abs(dr - 1j * k * w))
        assert max(vals) < 10 * max(vals[0], 1e-12)

    def test_green_reciprocity(self, square_scene):
        mesh = build_mesh(square_scene, nodes_per_edge=64)
        x1 = np.array([1.2, 0.5])
        x2 = np.array([-0.9, -1.1])
        s1 = solve_scattering(square_scene, PointSource(x1), mesh)
        s2 = solve_scattering(square_scene, PointSource(x2), mesh)
        v12 = eval_total(s1, x2)
        v21 = eval_total(s2, x1)
        assert abs(v12 - v21) / max(abs(v12), abs(v21)) < 1e-4

    def test_gradient_matches_fd(self, square_sol):
        x = np.array([1.3, -0.6])
        h = 1e-6
        k = square_sol.scene.wavenumber_k
        g = square_sol.incident.gradient(k, x) + scattered_field(square_sol, x)[1]
        for c, e in enumerate(np.eye(2)):
            fd = (
                eval_total(square_sol, x + h * e) - eval_total(square_sol, x - h * e)
            ) / (2 * h)
            assert g[c] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_shared_factorization(self, square_scene):
        mesh = build_mesh(square_scene, nodes_per_edge=32)
        incs = [PlaneWave(Direction.from_angle(a)) for a in (0.0, 1.0)]
        sols = factorize(square_scene, mesh).solve(incs)
        single = solve_scattering(square_scene, incs[1], mesh)
        np.testing.assert_allclose(sols[1].density, single.density, atol=1e-13)

    def test_source_inside_obstacle_rejected(self, square_scene):
        mesh = build_mesh(square_scene, nodes_per_edge=32)
        with pytest.raises(DomainError):
            solve_scattering(square_scene, PointSource(np.array([0.1, 0.1])), mesh)

    def test_near_field_clearance_guard(self, square_sol):
        with pytest.raises(NearFieldError):
            scattered_field(square_sol, np.array([[0.5001, 0.0]]))


# the square at 64 nodes/edge (256 nodes) takes numpy's inverse, at 136
# nodes/edge (544 nodes) scipy's LU
SOLVER_PATHS = pytest.mark.parametrize("nodes_per_edge", [64, 136], ids=["inverse", "lu"])
# the square's lowest interior Dirichlet eigenvalue, pi*sqrt(2): the
# single-layer system reads condition 6.6e8 (inverse) and 7.8e9 (LU) here,
# against 6.9e3 and 2.3e3 at k = 2
RESONANT_K = np.pi * np.sqrt(2.0)
LOWERED_CONDITION_LIMIT = 1e6


class TestFactorization:
    @SOLVER_PATHS
    @pytest.mark.parametrize("defect", ["singular", "nan"])
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_or_nan_system_raises(self, square_scene, monkeypatch, nodes_per_edge, defect):
        assemble = forward._assemble

        def broken(mesh, k):
            matrix = assemble(mesh, k)
            if defect == "singular":
                matrix[:, 3] = 0.0
            else:
                matrix[5, 7] = np.nan
            return matrix

        monkeypatch.setattr(forward, "_assemble", broken)
        mesh = build_mesh(square_scene, nodes_per_edge=nodes_per_edge)
        with pytest.raises(SolverError):
            factorize(square_scene, mesh)

    @SOLVER_PATHS
    def test_resonance_guard(self, square_scene, monkeypatch, nodes_per_edge):
        monkeypatch.setattr(forward, "CONDITION_LIMIT", LOWERED_CONDITION_LIMIT)
        mesh = build_mesh(square_scene, nodes_per_edge=nodes_per_edge)
        fac = factorize(square_scene, mesh)
        assert (fac.inverse is not None) == (nodes_per_edge == 64)
        assert fac.condition < LOWERED_CONDITION_LIMIT
        resonant = dataclasses.replace(square_scene, wavenumber_k=RESONANT_K)
        with pytest.raises(SolverError, match="near-resonant"):
            factorize(resonant, mesh)

    def test_inverse_condition_is_exact(self, square_scene):
        fac = factorize(square_scene, build_mesh(square_scene, nodes_per_edge=64))
        assert fac.inverse is not None
        assert fac.condition == pytest.approx(np.linalg.cond(fac.matrix, 1), rel=1e-8)

    @pytest.mark.parametrize("verts", [SQUARE_VERTS, TRIANGLE_VERTS, L_VERTS], ids=["square", "triangle", "L"])
    def test_inverse_condition_bounds_lapack_estimate(self, verts):
        # zgecon's estimate of ||A^-1||_1 is a lower bound; the slack is round-off
        scene = make_scene(verts)
        fac = factorize(scene, build_mesh(scene, nodes_per_edge=64))
        rcond, info = zgecon(lu_factor(fac.matrix)[0], np.linalg.norm(fac.matrix, 1))
        assert info == 0
        assert fac.condition >= (1.0 - 1e-12) / rcond

    def test_small_systems_use_numpy_only(self, square_scene, monkeypatch):
        mesh = build_mesh(square_scene, nodes_per_edge=64)
        angles = 2 * np.pi * np.arange(16) / 16
        # the same system on scipy's LU path
        matrix = forward._assemble(mesh, square_scene.wavenumber_k)
        reference = Factorization(square_scene, mesh, matrix, None, lu_factor(matrix), 0.0)
        ref_point, *ref_waves = reference.solve(
            [PointSource(square_scene.source_y)] + [PlaneWave(Direction.from_angle(a)) for a in angles]
        )
        ref_op = np.column_stack([far_field_pattern(sol, angles) for sol in ref_waves])

        def raise_if_called(*args, **kwargs):
            raise AssertionError("scipy's LAPACK called on a system that numpy inverts")

        for name in ("lu_factor", "lu_solve", "zgecon"):
            monkeypatch.setattr(forward, name, raise_if_called)
        point = solve_scattering(square_scene, PointSource(square_scene.source_y), mesh).density
        assert np.max(np.abs(point - ref_point.density)) <= 1e-12 * np.max(np.abs(ref_point.density))
        op = assemble_far_field_operator(square_scene, 16, 16, nodes_per_edge=64)
        assert np.max(np.abs(op.matrix - ref_op)) <= 1e-12 * np.max(np.abs(ref_op))

    def test_large_systems_use_scipy_lu(self, square_scene, monkeypatch):
        called = set()
        for name in ("lu_factor", "lu_solve", "zgecon"):
            original = getattr(forward, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(forward, name, counted)
        mesh = build_mesh(square_scene, nodes_per_edge=136)
        assert mesh.n_nodes > INVERSE_MAX_NODES
        sol = solve_scattering(square_scene, PointSource(square_scene.source_y), mesh)
        assert called == {"lu_factor", "lu_solve", "zgecon"}
        assert sol.residual_norm < 1e-8


class TestDiscSeries:
    @pytest.mark.parametrize("center", [np.zeros(2), OFF_CENTRE], ids=["centred", "off-centre"])
    def test_boundary_condition_residual(self, center):
        # the plane wave is expanded about the disc centre, not the origin
        oracle = DiscSeriesSolution(
            center=center,
            a=1.0,
            k=2.0,
            incident=PlaneWave(Direction.from_angle(0.7)),
        )
        assert oracle.boundary_neumann_residual(n_angles=64) < 1e-10

    def test_point_source_residual(self):
        oracle = DiscSeriesSolution(
            center=np.zeros(2),
            a=0.5,
            k=2.0,
            incident=PointSource(np.array([6.0, 0.0])),
        )
        assert oracle.boundary_neumann_residual(n_angles=64) < 1e-10

    def test_small_k_quadratic_scaling(self):
        # sound-hard disc: scattered amplitude ~ k^2 at leading order;
        # evaluate at fixed kr so the Hankel factor drops out of the ratio
        mags = []
        for k in (0.1, 0.05):
            oracle = DiscSeriesSolution(
                center=np.zeros(2),
                a=1.0,
                k=k,
                incident=PlaneWave(Direction(1.0, 0.0)),
            )
            mags.append(abs(oracle.eval_scattered(np.array([1.0 / k, 0.0]))))
        ratio = mags[0] / mags[1]
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_oracle_reciprocity(self):
        a, k = 0.7, 1.5
        y1 = np.array([2.0, 0.3])
        y2 = np.array([-1.1, 1.9])
        s1 = DiscSeriesSolution(center=np.zeros(2), a=a, k=k, incident=PointSource(y1))
        s2 = DiscSeriesSolution(center=np.zeros(2), a=a, k=k, incident=PointSource(y2))
        assert s1.eval_total(y2) == pytest.approx(s2.eval_total(y1), abs=1e-10)


class TestModulatedCheck:
    def test_free_space_exact(self, empty_scene):
        d = Direction.from_angle(0.5)
        x0 = np.array([0.3, 0.3])
        v = modulated_nonvanishing_check(empty_scene, x0, d)
        y = empty_scene.source_y
        k = empty_scene.wavenumber_k
        theta = np.array([-d.vec[1], d.vec[0]])
        expected = (x0 - y) @ theta * np.exp(-1j * k * (y @ d.vec))
        assert v == pytest.approx(expected, abs=1e-14)

    def test_square_vertex_nonzero(self, square_scene):
        v = modulated_nonvanishing_check(
            square_scene,
            SQUARE_VERTS[2],
            Direction.from_angle(1.0),
            nodes_per_edge=32,
        )
        assert abs(v) > 1e-3

    def test_far_source_remainder_decay(self):
        # |u - (x0-y).theta e^{-ik y.d}| = O(|y|^{-1/2}) along a ray
        d = Direction.from_angle(0.3)
        x0 = SQUARE_VERTS[2]
        theta = np.array([-d.vec[1], d.vec[0]])
        rems = []
        for r in (50.0, 100.0):
            scene = Scene(
                obstacles=(Polygon(SQUARE_VERTS),),
                radius_R=2.0,
                radius_R1=r,
                source_y=(r * np.cos(1.2), r * np.sin(1.2)),
                wavenumber_k=2.0,
            )
            v = modulated_nonvanishing_check(scene, x0, d, nodes_per_edge=32)
            y = scene.source_y
            free = (x0 - y) @ theta * np.exp(-1j * scene.wavenumber_k * (y @ d.vec))
            rems.append(abs(v - free))
        assert rems[1] < rems[0]
        assert rems[1] / rems[0] == pytest.approx(np.sqrt(0.5), rel=0.5)
