import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor
from scipy.linalg.lapack import zgecon

from enclosure2d import forward
from enclosure2d.errors import DomainError, NearFieldError, SolverError
from enclosure2d.farfield import assemble_far_field_operator
from enclosure2d.fields import PlaneWave, PointSource
from enclosure2d.forward import (
    INVERSE_MAX_NODES,
    MAX_GRADING_LEVELS,
    NODES_PER_PANEL,
    DiscSeriesSolution,
    build_mesh,
    eval_total,
    modulated_nonvanishing_check,
    scattered_field,
    solve_incidents,
    solve_scattering,
)
from enclosure2d.geometry import Direction, Polygon, Scene
from enclosure2d.specialfun import hankel1, hankel1_prime
from conftest import L_VERTS, SQUARE_VERTS, TRIANGLE_VERTS, TWO_BOXES, far_field_pattern, make_scene


OFF_CENTRE = np.array([0.1, -0.2])


def regular_polygon_scene(n_sides, radius=0.5):
    t = np.linspace(0, 2 * np.pi, n_sides, endpoint=False)
    verts = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    return make_scene(verts)


def boundary_neumann_residual(oracle, n_angles=64):
    """max |d(u_inc + w)/dr| on the disc boundary, the series' defining property.

    dw/dr comes from w on the boundary alone: each circular harmonic of w
    is c_m H_|m|(k r) e^{i m theta}, so its radial derivative there is
    c_m k H'_|m|(k a) e^{i m theta}.  This needs fewer than n_angles / 2
    modes in the series.
    """
    ang = np.linspace(0, 2 * np.pi, n_angles, endpoint=False)
    nu = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = oracle.center + oracle.a * nu
    ka = oracle.k * oracle.a
    orders = np.abs(np.fft.fftfreq(n_angles, 1.0 / n_angles)).astype(int)
    multipliers = np.array([oracle.k * hankel1_prime(m, ka) / hankel1(m, ka) for m in range(n_angles // 2 + 1)])
    scattered = np.fft.ifft(np.fft.fft(oracle.eval_scattered(pts)) * multipliers[orders])
    inc = np.einsum("ic,ic->i", oracle.incident.gradient(oracle.k, pts), nu.astype(complex))
    return float(np.max(np.abs(inc + scattered)))


def reference_assemble(mesh, k):
    """The Nystrom matrix built from one (N, N, 2) difference array."""
    x = mesh.nodes
    diff = x[:, None, :] - x[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    same_edge = mesh.edge_ids[:, None] == mesh.edge_ids[None, :]
    np.fill_diagonal(r, 1.0)
    dot = np.einsum("ijc,ic->ij", diff, mesh.normals)
    kernel = -0.25j * k * hankel1(1, k * r) * dot / r
    kernel[same_edge] = 0.0
    return -0.5 * np.eye(mesh.n_nodes) + kernel * mesh.weights[None, :]


def reference_scattered_field(sol, x):
    """scattered_field from one (M, N, 2) difference array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mesh = sol.mesh
    diff = x[:, None, :] - mesh.nodes[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    nearest = np.argmin(r, axis=1)
    if np.any(r[np.arange(len(x)), nearest] < 3.0 * mesh.panel_sizes[nearest]):
        raise NearFieldError("evaluation point within 3 panel lengths of the boundary")
    k = sol.scene.wavenumber_k
    dw = sol.density * mesh.weights
    w = (0.25j * hankel1(0, k * r)) @ dw
    radial = 0.25j * k * hankel1_prime(0, k * r) / r
    grad = np.einsum("ij,ijc->ic", radial * dw[None, :], diff)
    return (w[0], grad[0]) if len(x) == 1 else (w, grad)


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
        sols = solve_incidents(square_scene, incs, mesh)
        single = solve_scattering(square_scene, incs[1], mesh)
        np.testing.assert_allclose(sols[1].density, single.density, atol=1e-13)

    def test_source_inside_obstacle_rejected(self, square_scene, monkeypatch):
        # before anything is assembled, wherever the source sits in the list
        monkeypatch.setattr(forward, "_assemble", lambda mesh, k: pytest.fail("assembled"))
        incidents = [PlaneWave(Direction.from_angle(0.0)), PointSource(np.array([0.1, 0.1]))]
        with pytest.raises(DomainError):
            solve_incidents(square_scene, incidents, build_mesh(square_scene, nodes_per_edge=32))

    def test_no_incident_field_assembles_nothing(self, square_scene, monkeypatch):
        monkeypatch.setattr(forward, "_assemble", lambda mesh, k: pytest.fail("assembled"))
        assert solve_incidents(square_scene, [], build_mesh(square_scene, nodes_per_edge=32)) == []

    def test_near_field_clearance_guard(self, square_sol):
        with pytest.raises(NearFieldError):
            scattered_field(square_sol, np.array([[0.5001, 0.0]]))


def two_boxes_scene():
    return Scene(
        obstacles=tuple(Polygon(box) for box in TWO_BOXES),
        radius_R=2.0,
        radius_R1=6.0,
        source_y=(6.0, 0.0),
        wavenumber_k=2.0,
    )


# the 64-gon at 16 nodes/edge has 1024 nodes and takes scipy's LU path
KERNEL_SCENES = {
    "square": (lambda: make_scene(SQUARE_VERTS), 64),
    "L": (lambda: make_scene(L_VERTS), 64),
    "two-boxes": (two_boxes_scene, 32),
    "64-gon": (lambda: regular_polygon_scene(64), 16),
}


@pytest.fixture(scope="module", params=list(KERNEL_SCENES))
def kernel_scene(request):
    make, nodes_per_edge = KERNEL_SCENES[request.param]
    scene = make()
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge)
    return scene, mesh, solve_scattering(scene, PointSource(scene.source_y), mesh)


class TestInPlaceKernels:
    """The in-place kernels give the (N, N, 2)-difference answers bit for bit."""

    def test_matrix(self, kernel_scene):
        scene, mesh, _ = kernel_scene
        k = scene.wavenumber_k
        assert np.array_equal(forward._assemble(mesh, k), reference_assemble(mesh, k))

    def test_trace(self, kernel_scene):
        scene, _, sol = kernel_scene
        ang = 2 * np.pi * np.arange(512) / 512
        pts = scene.center + scene.radius_R * np.column_stack([np.cos(ang), np.sin(ang)])
        w, grad = scattered_field(sol, pts)
        ref_w, ref_grad = reference_scattered_field(sol, pts)
        assert w.shape == (512,) and grad.shape == (512, 2)
        assert np.array_equal(w, ref_w) and np.array_equal(grad, ref_grad)

    def test_one_point(self, kernel_scene):
        _, _, sol = kernel_scene
        x = np.array([1.3, -0.6])
        w, grad = scattered_field(sol, x)
        ref_w, ref_grad = reference_scattered_field(sol, x)
        assert np.ndim(w) == 0 and grad.shape == (2,)
        assert w == ref_w and np.array_equal(grad, ref_grad)

    def test_near_field_guard_on_one_of_several_rows(self, kernel_scene):
        _, mesh, sol = kernel_scene
        # one point a tenth of a panel off the first node, among far ones
        near = mesh.nodes[0] + 0.1 * mesh.panel_sizes[0] * mesh.normals[0]
        pts = np.array([[3.0, 0.0], near, [0.0, -3.0]])
        for field in (scattered_field, reference_scattered_field):
            with pytest.raises(NearFieldError):
                field(sol, pts)
        scattered_field(sol, pts[[0, 2]])

    def test_assembly_peak_memory(self):
        # the (N, N, 2) build peaked at 4.6 complex N x N arrays, the
        # full-array in-place build at 2.5, the 32-row block build at 1.1
        mesh = build_mesh(regular_polygon_scene(64), nodes_per_edge=16)
        n = mesh.n_nodes
        assert n == 1024
        tracemalloc.start()
        try:
            forward._assemble(mesh, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * n * n


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
            solve_scattering(square_scene, PointSource(square_scene.source_y), mesh)

    @SOLVER_PATHS
    def test_resonance_guard(self, square_scene, monkeypatch, nodes_per_edge):
        monkeypatch.setattr(forward, "CONDITION_LIMIT", LOWERED_CONDITION_LIMIT)
        mesh = build_mesh(square_scene, nodes_per_edge=nodes_per_edge)
        assert (mesh.n_nodes <= INVERSE_MAX_NODES) == (nodes_per_edge == 64)
        source = PointSource(square_scene.source_y)
        assert solve_scattering(square_scene, source, mesh).condition_estimate < LOWERED_CONDITION_LIMIT
        resonant = dataclasses.replace(square_scene, wavenumber_k=RESONANT_K)
        with pytest.raises(SolverError, match="near-resonant"):
            solve_scattering(resonant, source, mesh)

    def test_inverse_condition_is_exact(self, square_scene):
        mesh = build_mesh(square_scene, nodes_per_edge=64)
        assert mesh.n_nodes <= INVERSE_MAX_NODES
        sol = solve_scattering(square_scene, PointSource(square_scene.source_y), mesh)
        matrix = forward._assemble(mesh, square_scene.wavenumber_k)
        assert sol.condition_estimate == pytest.approx(np.linalg.cond(matrix, 1), rel=1e-8)

    @pytest.mark.parametrize("verts", [SQUARE_VERTS, TRIANGLE_VERTS, L_VERTS], ids=["square", "triangle", "L"])
    def test_inverse_condition_bounds_lapack_estimate(self, verts):
        # zgecon's estimate of ||A^-1||_1 is a lower bound; the slack is round-off
        scene = make_scene(verts)
        mesh = build_mesh(scene, nodes_per_edge=64)
        sol = solve_scattering(scene, PointSource(scene.source_y), mesh)
        matrix = forward._assemble(mesh, scene.wavenumber_k)
        rcond, info = zgecon(lu_factor(matrix)[0], np.linalg.norm(matrix, 1))
        assert info == 0
        assert sol.condition_estimate >= (1.0 - 1e-12) / rcond

    def test_small_systems_use_numpy_only(self, square_scene, monkeypatch):
        mesh = build_mesh(square_scene, nodes_per_edge=64)
        angles = 2 * np.pi * np.arange(16) / 16
        # the same system on scipy's LU path
        with monkeypatch.context() as lu_path:
            lu_path.setattr(forward, "INVERSE_MAX_NODES", 0)
            ref_point, *ref_waves = solve_incidents(
                square_scene,
                [PointSource(square_scene.source_y)] + [PlaneWave(Direction.from_angle(a)) for a in angles],
                mesh,
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
        assert boundary_neumann_residual(oracle, n_angles=64) < 1e-10

    def test_point_source_residual(self):
        oracle = DiscSeriesSolution(
            center=np.zeros(2),
            a=0.5,
            k=2.0,
            incident=PointSource(np.array([6.0, 0.0])),
        )
        assert boundary_neumann_residual(oracle, n_angles=64) < 1e-10

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
