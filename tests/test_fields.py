import numpy as np
import pytest

from enclosure2d.errors import DomainError
from enclosure2d.fields import (
    ModulatedPlane,
    PlaneWave,
    PointSource,
    ProbeParams,
    eval_probe,
    probe_log_magnitude,
)
from enclosure2d.geometry import Direction

from test_specialfun import j_series, y0_series

ALL_FIELDS = [
    PlaneWave(Direction.from_angle(0.4)),
    PointSource(np.array([3.0, -1.0])),
    ModulatedPlane(x0=np.array([0.5, 0.5]), d=Direction.from_angle(1.1)),
]


class TestValues:
    def test_plane_wave_period(self):
        v = PlaneWave(Direction(1.0, 0.0)).value(2.0, np.array([np.pi, 0.0]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_modulated_vanishes_at_anchor(self):
        f = ModulatedPlane(x0=np.array([0.2, -0.7]), d=Direction.from_angle(2.2))
        assert f.value(3.0, f.x0) == pytest.approx(0.0, abs=1e-300)

    def test_modulated_theta_orientation(self):
        f = ModulatedPlane(x0=np.zeros(2), d=Direction.from_angle(0.9))
        # (theta_y, -theta_x) = d
        np.testing.assert_allclose([f.theta[1], -f.theta[0]], f.d.vec)

    def test_point_source_series_value(self):
        # (i/4) H_0(1) pinned by an independent series oracle
        v = PointSource(np.array([1.0, 0.0])).value(1.0, np.zeros(2))
        expected = 0.25j * (j_series(0, 1.0) + 1j * y0_series(1.0))
        assert v == pytest.approx(expected, abs=1e-12)

    def test_singularity_guard(self):
        src = PointSource(np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            src.value(1.0, np.array([1.0, 1.0]))


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


class TestProbe:
    def test_unit_magnitude_on_reference_line(self):
        p = ProbeParams(omega=Direction.from_angle(0.3), tau=12.0, k=2.0, t_ref=0.8)
        # any x with x . omega = t_ref
        x = 0.8 * p.omega.vec + 1.7 * p.omega.perp
        assert abs(eval_probe(p, x)) == pytest.approx(1.0, abs=1e-12)

    def test_s_accessor(self):
        p = ProbeParams(omega=Direction(1.0, 0.0), tau=3.0, k=4.0)
        assert p.s == pytest.approx(8.0)

    def test_fd_laplacian(self):
        p = ProbeParams(omega=Direction.from_angle(1.9), tau=10.0, k=1.0, t_ref=0.0)
        rng = np.random.default_rng(3)
        h = 1e-5
        for x in rng.uniform(-0.5, 0.5, size=(5, 2)):
            e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
            lap = (
                eval_probe(p, x + e1)
                + eval_probe(p, x - e1)
                + eval_probe(p, x + e2)
                + eval_probe(p, x - e2)
                - 4 * eval_probe(p, x)
            ) / h**2
            v = eval_probe(p, x)
            assert abs(lap + p.k**2 * v) < 1e-5 * p.tau**2 * abs(v)

    def test_scaling_identity(self):
        om = Direction.from_angle(0.6)
        tau, a = 25.0, 1.4
        x = np.array([0.9, -0.4])
        la = probe_log_magnitude(ProbeParams(om, tau, 2.0, t_ref=a), x)
        l0 = probe_log_magnitude(ProbeParams(om, tau, 2.0, t_ref=0.0), x)
        assert la == pytest.approx(l0 - tau * a, abs=1e-12 * tau * a)

    def test_gradient_factor(self):
        p = ProbeParams(omega=Direction.from_angle(0.2), tau=5.0, k=3.0)
        gf = p.gradient_factor
        np.testing.assert_allclose(
            gf, p.tau * p.omega.vec + 1j * np.hypot(p.tau, p.k) * p.omega.perp
        )

    def test_tau_grid_matches_stacked_scalar_probes(self):
        omega = Direction.from_angle(0.7)
        taus = np.geomspace(4.0, 40.0, 64)
        x = np.random.default_rng(5).uniform(-2, 2, size=(9, 2))
        grid = ProbeParams(omega, taus, 2.0, t_ref=1.3)
        scalars = [ProbeParams(omega, float(t), 2.0, t_ref=1.3) for t in taus]
        values = eval_probe(grid, x)
        assert values.shape == (64, 9)
        assert grid.gradient_factor.shape == (64, 2)
        assert grid.s.shape == (64,)
        assert np.array_equal(values, [eval_probe(p, x) for p in scalars])
        assert np.array_equal(grid.gradient_factor, [p.gradient_factor for p in scalars])
        assert np.array_equal(grid.s, [p.s for p in scalars])

    def test_tau_grid_keeps_its_axis(self):
        p = ProbeParams(Direction.from_angle(0.7), np.array([5.0]), 2.0)
        assert eval_probe(p, np.zeros(2)).shape == (1, 1)
        assert p.gradient_factor.shape == (1, 2)

    def test_non_positive_tau_in_grid(self):
        with pytest.raises(DomainError):
            ProbeParams(Direction.from_angle(0.7), [4.0, 0.0], 2.0)
