import numpy as np
import pytest

from enclosure2d.errors import DomainError, NearFieldError
from enclosure2d.fields import PlaneWave, PointSource
from enclosure2d.forward import (
    MAX_GRADING_LEVELS,
    NODES_PER_PANEL,
    DiscSeriesSolution,
    build_mesh,
    eval_total,
    factorize,
    modulated_nonvanishing_check,
    scattered_field,
    solve_scattering,
)
from enclosure2d.geometry import Direction, Polygon, Scene
from conftest import SQUARE_VERTS, TRIANGLE_VERTS, make_scene


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
        assert mesh.grading_levels == min(
            MAX_GRADING_LEVELS, 64 // (2 * NODES_PER_PANEL) - 1
        )
        for e, ell in enumerate(mesh.edge_lengths):
            smallest = np.min(mesh.panel_sizes[mesh.edge_ids == e])
            assert smallest <= 0.5 ** (p * mesh.grading_levels) * ell

    def test_refinement_halves_max_panel(self, square_scene):
        coarse = build_mesh(square_scene, nodes_per_edge=32)
        fine = build_mesh(square_scene, nodes_per_edge=64)
        assert np.max(fine.panel_sizes) == pytest.approx(
            0.5 * np.max(coarse.panel_sizes)
        )

    def test_empty_scene_mesh(self, empty_scene):
        mesh = build_mesh(empty_scene)
        assert mesh.nodes.shape == mesh.normals.shape == (0, 2)
        for arr in (mesh.weights, mesh.edge_ids, mesh.panel_sizes, mesh.edge_lengths):
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


class TestDiscSeries:
    def test_boundary_condition_residual(self):
        oracle = DiscSeriesSolution(
            center=np.zeros(2),
            a=1.0,
            k=1.0,
            incident=PlaneWave(Direction(1.0, 0.0)),
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
