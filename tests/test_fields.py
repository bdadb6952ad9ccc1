import numpy as np
import pytest

from enclosure2d.errors import DomainError
from enclosure2d.fields import (
    PlaneWave,
    PointSource,
    normal_derivatives,
)
from enclosure2d.forward import build_mesh
from enclosure2d.geometry import Direction

from conftest import L_VERTS, SQUARE_VERTS, eval_probe, make_scene, probe_gradient_factor
from test_specialfun import j_series, y0_series

ALL_FIELDS = [
    PlaneWave(Direction.from_angle(0.4)),
    PointSource(np.array([3.0, -1.0])),
]


class TestValues:
    def test_plane_wave_period(self):
        v = PlaneWave(Direction(1.0, 0.0)).value(2.0, np.array([np.pi, 0.0]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_point_source_series_value(self):
        # (i/4) H_0(1) pinned by an independent series oracle
        v = PointSource(np.array([1.0, 0.0])).value(1.0, np.zeros(2))
        expected = 0.25j * (j_series(0, 1.0) + 1j * y0_series(1.0))
        assert v == pytest.approx(expected, abs=1e-12)

    def test_singularity_guard(self):
        src = PointSource(np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            src.value(1.0, np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            src.gradient(1.0, np.array([[0.0, 0.0], [1.0, 1.0]]))


def fd_laplacian(f, k, x, h):
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    return (
        f.value(k, x + e1)
        + f.value(k, x - e1)
        + f.value(k, x + e2)
        + f.value(k, x - e2)
        - 4 * f.value(k, x)
    ) / h**2


class TestHelmholtz:
    def test_fd_residual(self):
        rng = np.random.default_rng(11)
        k = 2.0
        for f in ALL_FIELDS:
            pts = rng.uniform(-2, 2, size=(100, 2))
            if isinstance(f, PointSource):
                pts = pts[np.linalg.norm(pts - f.y, axis=1) > 0.5]
            for x in pts:
                v = f.value(k, x)
                resid = fd_laplacian(f, k, x, 1e-4) + k**2 * v
                scale = max(abs(v), 1.0)
                assert abs(resid) < 1e-5 * k**2 * scale

    def test_gradient_matches_fd(self):
        k = 2.0
        h = 1e-6
        for f in ALL_FIELDS:
            x = np.array([0.4, -1.3])
            g = f.gradient(k, x)
            for c, e in enumerate(np.eye(2)):
                fd = (f.value(k, x + h * e) - f.value(k, x - h * e)) / (2 * h)
                assert g[c] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def gradient_normal_derivative(field, k, mesh):
    """d(u_inc)/dnu from the field's own gradient, the path every field had before plane waves were grouped."""
    return np.einsum("ic,ic->i", field.gradient(k, mesh.nodes), mesh.normals.astype(complex))


class TestNormalDerivatives:
    @pytest.mark.parametrize("verts", [SQUARE_VERTS, L_VERTS], ids=["square", "L"])
    def test_plane_waves_match_their_gradients(self, verts):
        # the far-field operator's 128 incidences, on its mesh
        mesh, k = build_mesh(make_scene(verts), nodes_per_edge=64), 2.0
        waves = [PlaneWave(Direction.from_angle(a)) for a in 2 * np.pi * np.arange(128) / 128]
        grouped = normal_derivatives(waves, k, mesh.nodes, mesh.normals)
        ref = np.column_stack([gradient_normal_derivative(w, k, mesh) for w in waves])
        assert grouped.shape == (mesh.n_nodes, 128)
        assert np.max(np.abs(grouped - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_mixed_kinds_keep_their_column_order(self):
        mesh, k = build_mesh(make_scene(SQUARE_VERTS), nodes_per_edge=32), 2.0
        fields = [PointSource(np.array([6.0, 0.0])), PlaneWave(Direction.from_angle(0.3)),
                  PlaneWave(Direction.from_angle(2.0)), PointSource(np.array([0.0, -5.0]))]
        grouped = normal_derivatives(fields, k, mesh.nodes, mesh.normals)
        for j, field in enumerate(fields):
            ref = gradient_normal_derivative(field, k, mesh)
            if isinstance(field, PlaneWave):
                assert np.max(np.abs(grouped[:, j] - ref)) <= 1e-15 * np.max(np.abs(ref))
            else:  # the field's own gradient, unchanged
                np.testing.assert_array_equal(grouped[:, j], ref)


class TestProbe:
    def test_unit_magnitude_on_reference_line(self):
        omega = Direction.from_angle(0.3)
        # any x with x . omega = t_ref
        x = 0.8 * omega.vec + 1.7 * omega.perp
        assert abs(eval_probe(omega, 12.0, 2.0, x, t_ref=0.8)[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_fd_laplacian(self):
        omega, tau, k = Direction.from_angle(1.9), 10.0, 1.0
        rng = np.random.default_rng(3)
        h = 1e-5
        for x in rng.uniform(-0.5, 0.5, size=(5, 2)):
            e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
            (lap,) = (
                eval_probe(omega, tau, k, x + e1)
                + eval_probe(omega, tau, k, x - e1)
                + eval_probe(omega, tau, k, x + e2)
                + eval_probe(omega, tau, k, x - e2)
                - 4 * eval_probe(omega, tau, k, x)
            )[:, 0] / h**2
            v = eval_probe(omega, tau, k, x)[0, 0]
            assert abs(lap + k**2 * v) < 1e-5 * tau**2 * abs(v)

    def test_scaling_identity(self):
        om = Direction.from_angle(0.6)
        tau, a = 25.0, 1.4
        x = np.array([0.9, -0.4])
        la = np.log(np.abs(eval_probe(om, tau, 2.0, x, t_ref=a)))
        l0 = np.log(np.abs(eval_probe(om, tau, 2.0, x, t_ref=0.0)))
        assert la == pytest.approx(l0 - tau * a, abs=1e-12 * tau * a)

    def test_gradient_factor(self):
        omega = Direction.from_angle(0.2)
        (gf,) = probe_gradient_factor(omega, 5.0, 3.0)
        np.testing.assert_allclose(gf, 5.0 * omega.vec + 1j * np.hypot(5.0, 3.0) * omega.perp)

    def test_tau_grid_matches_stacked_scalar_probes(self):
        omega = Direction.from_angle(0.7)
        taus = np.geomspace(4.0, 40.0, 64)
        x = np.random.default_rng(5).uniform(-2, 2, size=(9, 2))
        values = eval_probe(omega, taus, 2.0, x, t_ref=1.3)
        assert values.shape == (64, 9)
        assert probe_gradient_factor(omega, taus, 2.0).shape == (64, 2)
        assert np.array_equal(values, np.vstack([eval_probe(omega, float(t), 2.0, x, t_ref=1.3) for t in taus]))
        assert np.array_equal(probe_gradient_factor(omega, taus, 2.0),
                              np.vstack([probe_gradient_factor(omega, float(t), 2.0) for t in taus]))

    def test_float_tau_is_a_grid_of_one(self):
        omega = Direction.from_angle(0.7)
        assert eval_probe(omega, 5.0, 2.0, np.zeros((3, 2))).shape == (1, 3)
        assert probe_gradient_factor(omega, 5.0, 2.0).shape == (1, 2)
