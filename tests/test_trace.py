import numpy as np
import pytest

from enclosure2d.errors import DomainError, ResolutionError
from enclosure2d.fields import PointSource
from enclosure2d.forward import DiscSeriesSolution, build_mesh, solve_scattering
from enclosure2d.geometry import Direction
from enclosure2d.indicator import compute_samples
from enclosure2d.specialfun import hankel1, hankel1_prime
from enclosure2d.trace import (
    recover_neumann,
    trace_direct,
    trace_from_csv,
    trace_to_csv,
)
from conftest import make_scene


class TestTraceDirect:
    def test_empty_scene_is_free_field(self, empty_scene):
        src = PointSource(empty_scene.source_y)
        mesh = build_mesh(empty_scene)
        sol = solve_scattering(empty_scene, src, mesh)
        tr = trace_direct(sol, empty_scene.radius_R, 128)
        k = empty_scene.wavenumber_k
        np.testing.assert_array_equal(tr.u, src.value(k, tr.points))
        grad = src.gradient(k, tr.points)
        np.testing.assert_array_equal(tr.dudn, np.einsum("ic,ic->i", grad, tr.normals))

    def test_power_of_two_enforced(self, square_sol):
        with pytest.raises(DomainError):
            trace_direct(square_sol, 2.0, 100)

    def test_source_on_circle_rejected(self, square_sol):
        with pytest.raises(DomainError):
            trace_direct(square_sol, 6.0, 64)

    def test_resolution_self_convergence(self, square_sol, square_scene, square_trace):
        # doubling N leaves the downstream indicator unchanged once resolved;
        # tau kept small so the integral is far above its cancellation floor
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
        ref = oracle.eval_total(tr.points)
        assert np.max(np.abs(tr.u - ref)) / np.max(np.abs(ref)) < 1e-2


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
        mult = k * hankel1_prime(m, k * R) / hankel1(m, k * R)
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


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, square_trace, square_scene):
        text = trace_to_csv(square_trace, header_lines=("run 1",))
        again = trace_from_csv(
            text,
            square_scene.center,
            square_scene.radius_R,
            square_scene.wavenumber_k,
        )
        np.testing.assert_array_equal(again.u, square_trace.u)
        np.testing.assert_array_equal(again.dudn, square_trace.dudn)
