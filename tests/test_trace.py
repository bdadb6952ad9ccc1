import dataclasses
import time

import numpy as np
import pytest
from scipy import special

from enclosure2d import forward
from enclosure2d.errors import DomainError, NearFieldError, ResolutionError
from enclosure2d.fields import PlaneWave, PointSource
from enclosure2d.forward import (
    DiscSeriesSolution,
    ScatterSolution,
    build_mesh,
    circle_nodes,
    scattered_field,
    solve_incidents,
    solve_scattering,
)
from enclosure2d.geometry import Direction, Polygon, Scene
from enclosure2d.indicator import compute_samples
from enclosure2d.trace import (
    circle_modes,
    recover_neumann,
    trace_direct,
    trace_from_csv,
    trace_to_csv,
)
from conftest import L_VERTS, SQUARE_VERTS, TWO_BOXES, make_scene


def polygon_verts(n_sides, radius):
    t = np.linspace(0, 2 * np.pi, n_sides, endpoint=False)
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def scene_at(obstacles, k):
    return Scene(
        obstacles=tuple(Polygon(v) for v in obstacles),
        radius_R=2.0,
        radius_R1=6.0,
        source_y=(6.0, 0.0),
        wavenumber_k=k,
    )


def direct_sum_trace(sol, radius, n):
    """u and du/dn at the circle nodes from the single-layer sum over every node pair."""
    pts, nu = circle_nodes(sol.scene.center, radius, n)
    k = sol.scene.wavenumber_k
    w, grad_w = scattered_field(sol, pts)
    u = sol.incident.value(k, pts) + w
    dudn = np.einsum("ic,ic->i", sol.incident.gradient(k, pts) + grad_w, nu.astype(complex))
    return u, dudn


def assert_matches_direct_sum(sol, radius, n, tol=1e-13):
    tr = trace_direct(sol, radius, n)
    u, dudn = direct_sum_trace(sol, radius, n)
    assert np.max(np.abs(tr.u - u)) <= tol * np.max(np.abs(u))
    assert np.max(np.abs(tr.dudn - dudn)) <= tol * np.max(np.abs(dudn))


# obstacles and nodes per edge; the 128-gon has N = 2048 nodes, as in the bench
SERIES_SCENES = {
    "square": ((SQUARE_VERTS,), 64),
    "L": ((L_VERTS,), 64),
    "two-boxes": (TWO_BOXES, 64),
    "128-gon": ((polygon_verts(128, 0.5),), 16),
}


@pytest.fixture(scope="module", params=[(name, k) for name in SERIES_SCENES for k in (0.5, 2.0, 10.0)],
                ids=lambda p: f"{p[0]}-k{p[1]:g}")
def series_solutions(request):
    name, k = request.param
    obstacles, nodes_per_edge = SERIES_SCENES[name]
    scene = scene_at(obstacles, k)
    incidents = [PointSource(scene.source_y), PlaneWave(Direction.from_angle(0.7))]
    return solve_incidents(scene, incidents, build_mesh(scene, nodes_per_edge=nodes_per_edge))


class TestTraceDirect:
    def test_empty_scene_is_free_field(self, empty_scene):
        src = PointSource(empty_scene.source_y)
        mesh = build_mesh(empty_scene)
        sol = solve_scattering(empty_scene, src, mesh)
        tr = trace_direct(sol, empty_scene.radius_R, 128)
        k = empty_scene.wavenumber_k
        points, normals = circle_nodes(tr.center, tr.radius, tr.n)
        np.testing.assert_array_equal(tr.u, src.value(k, points))
        grad = src.gradient(k, points)
        np.testing.assert_array_equal(tr.dudn, np.einsum("ic,ic->i", grad, normals))

    def test_power_of_two_enforced(self, square_sol):
        with pytest.raises(DomainError):
            trace_direct(square_sol, 2.0, 100)

    def test_source_on_circle_rejected(self, square_sol):
        with pytest.raises(DomainError):
            trace_direct(square_sol, 6.0, 64)

    def test_resolution_self_convergence(self, square_sol, square_scene, square_trace):
        # doubling N leaves the downstream indicator unchanged once resolved;
        # tau kept small so J is far above its noise floor
        fine = trace_direct(square_sol, square_scene.radius_R, 1024)
        om = Direction.from_angle(np.pi / 6)
        taus = np.geomspace(1.0, 8.0, 8)
        a = compute_samples(square_trace, om, taus)
        b = compute_samples(fine, om, taus)
        ja = np.exp(a.log_magnitudes + 1j * a.phases)
        jb = np.exp(b.log_magnitudes + 1j * b.phases)
        assert np.all(np.abs(ja - jb) < 1e-10 * np.abs(ja))

    def test_matches_disc_series(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        verts = 0.5 * np.stack([np.cos(t), np.sin(t)], axis=1)
        scene = make_scene(verts)
        src = PointSource(scene.source_y)
        sol = solve_scattering(scene, src, build_mesh(scene, nodes_per_edge=16))
        tr = trace_direct(sol, scene.radius_R, 256)
        oracle = DiscSeriesSolution(
            center=np.zeros(2), a=0.5, k=scene.wavenumber_k, incident=src
        )
        ref = oracle.eval_total(circle_nodes(tr.center, tr.radius, tr.n)[0])
        assert np.max(np.abs(tr.u - ref)) / np.max(np.abs(ref)) < 1e-2


class TestSeriesMatchesDirectSum:
    """The circular-harmonic trace against the single-layer sum at every circle node."""

    # n = 64 is below 2M + 1 modes, so the series folds modulo n
    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("incident", [0, 1], ids=["point-source", "plane-wave"])
    def test_scenes(self, series_solutions, incident, n):
        assert_matches_direct_sum(series_solutions[incident], 2.0, n)

    @pytest.mark.parametrize("k", [0.5, 2.0, 10.0])
    def test_boundary_near_the_circle(self, k):
        # a 64-gon at rho = 0.9 needs M in the hundreds: H_m(kR) overflows
        # long before the series ends.  Any density is a single-layer field,
        # so a seeded random one excites every mode without a 2048-node solve.
        scene = scene_at((polygon_verts(64, 1.8),), k)
        mesh = build_mesh(scene, nodes_per_edge=32)
        rng = np.random.default_rng(3)
        density = rng.normal(size=mesh.n_nodes) + 1j * rng.normal(size=mesh.n_nodes)
        sol = ScatterSolution(scene, PointSource(scene.source_y), mesh, density, 1.0, 0.0, "single-refined")
        assert_matches_direct_sum(sol, 2.0, 64)

    def test_does_not_evaluate_the_pair_sum(self, square_sol, square_scene, monkeypatch):
        def pair_sum(*args):
            raise AssertionError("scattered_field called")

        monkeypatch.setattr(forward, "scattered_field", pair_sum)
        trace_direct(square_sol, square_scene.radius_R, 64)


class TestCircleModes:
    """The modes of u - u_inc against the coefficients of the density that produced u."""

    @pytest.mark.parametrize("incident", [0, 1], ids=["point-source", "plane-wave"])
    def test_modes_are_the_density_coefficients(self, series_solutions, incident):
        # a_m = (i/4) sum_j dw_j J_m(k r_j) e^{-i m t_j}; at 1024 nodes the
        # folded orders past 512 lie far below round-off
        sol = series_solutions[incident]
        k, n, top = sol.scene.wavenumber_k, 1024, 60
        modes = trace_direct(sol, 2.0, n).modes
        rel = sol.mesh.nodes - sol.scene.center
        r, t = np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])
        dw = sol.density * sol.mesh.weights
        w_ref = np.zeros(n, dtype=complex)  # w_m = a_m H_m(kR), in FFT order
        for m in range(-top, top + 1):
            sign = (-1) ** m if m < 0 else 1  # J_{-m} = (-1)^m J_m, and H_{-m} likewise
            a_m = 0.25j * sign * np.sum(dw * special.jv(abs(m), k * r) * np.exp(-1j * m * t))
            w_ref[m] = a_m * sign * special.hankel1(abs(m), 2.0 * k)
        # the scaled a_n times the mantissa h of H_n(kR), |h| in [0.5, 1): the scales cancel
        assert np.max(np.abs(modes.a * modes.h - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))
        assert modes.tail <= 1e-15 * np.max(np.abs(w_ref))

    def test_point_source_inside_the_circle_rejected(self, square_trace):
        # its field is singular in the disc, so it does not split off
        with pytest.raises(DomainError):
            circle_modes(square_trace.u, PointSource((1.0, 0.5)), 2.0, (0.0, 0.0), 2.0)


@pytest.fixture(scope="module")
def fine_square_sol():
    # 256 nodes/edge: panels small enough for circles inside the square to pass the near-field rule
    scene = make_scene(SQUARE_VERTS)
    return solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene, nodes_per_edge=256))


class TestCircleGuards:
    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4])
    def test_circle_inside_the_obstacle_rejected(self, fine_square_sol, radius):
        # no node is within 3 panel lengths of these circles, so only the enclosure rule can catch them
        with pytest.raises(DomainError):
            trace_direct(fine_square_sol, radius, 256)

    def test_circle_through_the_obstacle_rejected(self, fine_square_sol):
        # the corners (at 0.7071) lie outside, and the 4 circle nodes are far from every node
        with pytest.raises(DomainError):
            trace_direct(fine_square_sol, 0.70, 4)

    # 0.70 crosses the square's corners (at 0.7071), 0.72 just clears them,
    # and at both a node lies within 3 panel lengths of the circle: with
    # 512 circle nodes one of them is that close to a node, with 4 none is.
    @pytest.mark.parametrize("radius, n", [(0.70, 512), (0.72, 512), (0.72, 4), (1.5, 4), (1.5, 512)])
    def test_near_field_error_where_the_direct_sum_raises_it(self, fine_square_sol, radius, n):
        mesh = fine_square_sol.mesh
        r = np.linalg.norm(mesh.nodes, axis=1)
        assert np.any(np.abs(radius - r) < 3 * mesh.panel_sizes) == (radius < 1)
        try:
            direct_sum_trace(fine_square_sol, radius, n)
        except NearFieldError:
            with pytest.raises(NearFieldError):
                trace_direct(fine_square_sol, radius, n)
            return
        assert (radius, n) in ((0.72, 4), (1.5, 4), (1.5, 512))
        assert_matches_direct_sum(fine_square_sol, radius, n)

    def test_circle_that_clears_the_corners_by_a_hair_raises_before_the_series(self, fine_square_sol,
                                                                               monkeypatch):
        # the corners lie 1.3e-4 R inside the circle, and the 4 circle nodes
        # are far from every node, so both guards above pass; the series
        # would need 280,111 orders over 1024 nodes (4.6 GB of complex terms)
        def never(*args):
            raise AssertionError("the series' terms were formed")

        monkeypatch.setattr(forward, "hankel1_orders", never)
        monkeypatch.setattr(forward, "bessel_j_orders", never)
        start = time.monotonic()
        with pytest.raises(ResolutionError, match="orders over 1024 nodes"):
            trace_direct(fine_square_sol, 0.7072, 4)
        assert time.monotonic() - start < 1.0


class TestRecoverNeumann:
    def test_free_field_exact(self, empty_scene):
        src = PointSource(empty_scene.source_y)
        mesh = build_mesh(empty_scene)
        sol = solve_scattering(empty_scene, src, mesh)
        tr = trace_direct(sol, empty_scene.radius_R, 256)
        rec = recover_neumann(
            tr.u,
            empty_scene.wavenumber_k,
            empty_scene.source_y,
            empty_scene.radius_R,
            empty_scene.center,
        )
        assert np.max(np.abs(rec - tr.dudn)) < 1e-12 * np.max(np.abs(tr.dudn))

    def test_route_agreement_square(self, square_sol, square_scene):
        tr = trace_direct(square_sol, square_scene.radius_R, 256)
        rec = recover_neumann(
            tr.u,
            square_scene.wavenumber_k,
            square_scene.source_y,
            square_scene.radius_R,
            square_scene.center,
        )
        rel = np.max(np.abs(rec - tr.dudn)) / np.max(np.abs(tr.dudn))
        assert rel < 1e-6

    def test_single_harmonic_multiplier(self, square_scene):
        # a pure scattered-mode input maps through k H_m'(kR)/H_m(kR)
        k, R, m, n = square_scene.wavenumber_k, square_scene.radius_R, 5, 256
        y = square_scene.source_y
        ang = 2 * np.pi * np.arange(n) / n
        pts = R * np.column_stack([np.cos(ang), np.sin(ang)])
        u = PointSource(y).value(k, pts) + np.exp(1j * m * ang)
        rec = recover_neumann(u, k, y, R, square_scene.center)
        grad = PointSource(y).gradient(k, pts)
        inc_dn = np.einsum("ic,ic->i", grad, pts / R)
        mult = k * special.h1vp(m, k * R) / special.hankel1(m, k * R)
        expected = inc_dn + mult * np.exp(1j * m * ang)
        assert np.max(np.abs(rec - expected)) < 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_values_rejected(self, square_scene, n):
        # 0 & -1 == 0 and 1 & 0 == 0 pass a bare power-of-two test
        with pytest.raises(DomainError):
            recover_neumann(np.ones(n), square_scene.wavenumber_k, square_scene.source_y, square_scene.radius_R)

    def test_unresolved_tail_rejected(self, square_scene):
        # white-noise Dirichlet data has no decaying harmonic tail
        rng = np.random.default_rng(5)
        u = rng.normal(size=64) + 1j * rng.normal(size=64)
        with pytest.raises(ResolutionError):
            recover_neumann(
                u,
                square_scene.wavenumber_k,
                square_scene.source_y,
                square_scene.radius_R,
                square_scene.center,
            )


@pytest.mark.parametrize("changes, message", [
    (lambda trace: {"dudn": trace.dudn[: trace.n // 2]}, "matching size"),
    (lambda trace: {"u": np.append(trace.u[:-1], np.nan)}, "must be finite"),
    (lambda trace: {"dudn": np.append(trace.dudn[:-1], np.inf)}, "must be finite"),
], ids=["size-mismatch", "nan-u", "inf-dudn"])
def test_malformed_trace_rejected(square_trace, changes, message):
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(square_trace, **changes(square_trace))


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, square_trace, square_scene):
        text = trace_to_csv(square_trace, header_lines=("run 1",))
        again = trace_from_csv(
            text,
            square_scene.center,
            square_scene.radius_R,
            square_scene.wavenumber_k,
            square_trace.incident,
        )
        np.testing.assert_array_equal(again.u, square_trace.u)
        np.testing.assert_array_equal(again.dudn, square_trace.dudn)
