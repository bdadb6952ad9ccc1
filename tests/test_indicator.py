import dataclasses

import numpy as np
import pytest

from enclosure2d import indicator
from enclosure2d.errors import ReconstructionError
from enclosure2d.fields import PointSource, ProbeParams, eval_probe
from enclosure2d.forward import build_mesh, solve_scattering
from enclosure2d.geometry import (
    Direction,
    Polygon,
    Scene,
    hausdorff_distance,
    support_function,
)
from enclosure2d.indicator import (
    B_MAX,
    B_MIN,
    IndicatorSamples,
    SupportEstimate,
    classify_threshold,
    compute_indicator,
    compute_samples,
    estimate_support,
    reconstruct_hull,
    required_trace_size,
)
from enclosure2d.trace import trace_direct
from conftest import SQUARE_VERTS, make_scene
from test_acceptance import SUPPORT_ANGLES, SUPPORT_TOL

OM30 = Direction.from_angle(np.pi / 6)
H30 = np.cos(np.pi / 6) / 2 + np.sin(np.pi / 6) / 2 + 0.0  # support of centered square
SQUARE = Polygon(SQUARE_VERTS)


def test_required_trace_size():
    n = required_trace_size(40.0, 2.0, 2.0)
    assert n == 4 * int(np.ceil(np.hypot(40.0, 2.0) * 2.0)) + 32


class TestGreenNull:
    def test_empty_scene_null(self, empty_scene, taus):
        src = PointSource(empty_scene.source_y)
        sol = solve_scattering(empty_scene, src, build_mesh(empty_scene))
        tr = trace_direct(sol, empty_scene.radius_R, 512)
        for tau in taus:
            pt = compute_indicator(tr, OM30, tau)
            # |J| below 1e-12 of the integrand mass; mass = floor / machine eps
            log_mass = pt.log_noise_floor - np.log(np.finfo(float).eps)
            assert pt.log_magnitude < log_mass + np.log(1e-12)
            assert not pt.usable


class TestScaling:
    def test_t_ref_shift(self, square_trace):
        tau, delta = 12.0, 0.37
        a = compute_indicator(square_trace, OM30, tau, t_ref=1.0)
        b = compute_indicator(square_trace, OM30, tau, t_ref=1.0 + delta)
        assert b.log_magnitude - a.log_magnitude == pytest.approx(
            -tau * delta, abs=1e-12 * tau
        )

    def test_h_hat_t_ref_independent(self, square_trace, taus):
        ests = [
            estimate_support(compute_samples(square_trace, OM30, taus, t_ref=t))
            for t in (0.0, 1.0, 2.0)
        ]
        assert ests[1].h_hat == pytest.approx(ests[0].h_hat, abs=1e-12)
        assert ests[2].h_hat == pytest.approx(ests[0].h_hat, abs=1e-12)


def _reference_indicator(trace, omega, tau):
    """The per-tau quadrature that compute_samples runs for all tau at once."""
    t0 = np.max(trace.points @ omega.vec)
    probe = ProbeParams(omega, tau, trace.k, t_ref=t0)
    integrand = (trace.dudn - (trace.normals @ probe.gradient_factor) * trace.u) * eval_probe(probe, trace.points)
    ds = 2 * np.pi * trace.radius / trace.n
    j = np.sum(integrand) * ds
    shift = tau * (t0 - trace.radius)
    log_floor = np.log(np.sum(np.abs(integrand)) * ds) + np.log(np.finfo(float).eps)
    return np.log(abs(j)) + shift, np.angle(j), log_floor + shift


class TestReferenceShift:
    @pytest.mark.parametrize("t_ref", [40, 100])
    def test_usable_flags_and_h_hat_ignore_t_ref(self, square_trace, taus, t_ref):
        # t_ref only shifts log|J| by tau (t0 - t_ref); which samples are
        # usable, and the support estimate, must not depend on it
        default = compute_samples(square_trace, OM30, taus)
        shifted = compute_samples(square_trace, OM30, taus, t_ref=t_ref)
        assert shifted.usable.tolist() == default.usable.tolist()
        assert estimate_support(shifted).h_hat == pytest.approx(estimate_support(default).h_hat, abs=1e-9)


class TestOnePass:
    def test_samples_match_per_tau_quadrature(self, square_trace):
        taus = np.geomspace(4.0, 40.0, 64)
        for ang in (0.3, 2.2, 5.0):
            om = Direction.from_angle(ang)
            samples = compute_samples(square_trace, om, taus)
            ref = np.array([_reference_indicator(square_trace, om, t) for t in taus])
            np.testing.assert_allclose(samples.log_magnitudes, ref[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.phases, ref[:, 1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.log_noise_floors, ref[:, 2], rtol=0, atol=1e-12)
            points = [compute_indicator(square_trace, om, t) for t in taus]
            assert samples.usable.tolist() == [p.usable for p in points]
            assert [p.log_magnitude for p in points] == pytest.approx(samples.log_magnitudes, rel=0, abs=1e-12)


def synthetic_samples(taus, h=0.7, b=-0.5, c=1.2, k=2.0, noise=None, seed=0):
    taus = np.asarray(taus, dtype=float)
    s = np.hypot(taus, k) + taus
    logs = h * taus + b * np.log(s) + c
    if noise is not None:
        rng = np.random.default_rng(seed)
        logs = logs + rng.uniform(-noise, noise, size=len(taus))
    return IndicatorSamples(
        omega=Direction(1.0, 0.0),
        taus=taus,
        k=k,
        t_ref=0.0,
        log_magnitudes=logs,
        phases=np.zeros_like(taus),
        usable=np.ones(len(taus), dtype=bool),
        log_noise_floors=np.full(len(taus), -np.inf),
    )


class TestFit:
    def test_model_matching_data_exact(self, taus):
        est = estimate_support(synthetic_samples(taus))
        assert est.h_hat == pytest.approx(0.7, abs=1e-10)
        assert est.log_s_coefficient == pytest.approx(-0.5, abs=1e-8)
        assert est.residual_rms < 1e-10

    def test_noisy_data(self, taus):
        est = estimate_support(synthetic_samples(taus, noise=1e-3, seed=4))
        assert est.h_hat == pytest.approx(0.7, abs=1e-2)

    def test_too_few_usable(self, taus):
        samples = synthetic_samples(taus)
        bad = IndicatorSamples(
            omega=samples.omega,
            taus=samples.taus,
            k=samples.k,
            t_ref=samples.t_ref,
            log_magnitudes=samples.log_magnitudes,
            phases=samples.phases,
            usable=np.arange(len(samples.taus)) < 5,
            log_noise_floors=samples.log_noise_floors,
        )
        with pytest.raises(ReconstructionError):
            estimate_support(bad)

    @pytest.mark.parametrize(
        "grid, p2",
        [((4.0, 40.0, 64), -0.7), ((8.0, 40.0, 16), -0.7), ((8.0, 40.0, 16), 1.0)],
        ids=["grid0", "grid1", "grid2"],
    )
    def test_two_term_beat(self, grid, p2):
        # two corners 0.02 apart in height beat against each other; the
        # envelope cannot fit that, so the two-exponential refine must.
        # On grid2 the first of the refine's starts ends in a wrong basin
        # (h_hat off by 0.08), so it must solve from the best-ranked one
        taus = np.geomspace(*grid)
        k = 2.0
        s = np.hypot(taus, k) + taus
        j = s**-0.75 * (np.exp((0.5 + 0.3j) * taus) + 0.8 * np.exp((0.48 + 1j * p2) * taus))
        samples = IndicatorSamples(
            omega=Direction(1.0, 0.0),
            taus=taus,
            k=k,
            t_ref=0.0,
            log_magnitudes=np.log(np.abs(j)),
            phases=np.angle(j),
            usable=np.ones(len(taus), dtype=bool),
            log_noise_floors=np.full(len(taus), -np.inf),
        )
        est = estimate_support(samples)
        assert est.usable
        assert est.h_hat == pytest.approx(0.5, abs=1e-6)

    def test_end_to_end_square(self, square_trace, taus):
        est = estimate_support(compute_samples(square_trace, OM30, taus))
        assert est.usable
        assert abs(est.h_hat - H30) <= 0.03

    def test_point_source_square_b_in_window(self, square_trace, taus):
        # criterion 5's directions: b never leaves its admissible window,
        # and at 0.3 rad (9 usable samples) a b pushed past B_MIN would
        # have bent the slope by 0.04
        estimates = {
            ang: estimate_support(compute_samples(square_trace, Direction.from_angle(ang), taus))
            for ang in SUPPORT_ANGLES
        }
        assert all(B_MIN <= e.log_s_coefficient <= B_MAX for e in estimates.values())
        om = Direction.from_angle(0.3)
        assert abs(estimates[0.3].h_hat - support_function([SQUARE], om)) <= 0.01

    @pytest.mark.parametrize("j", [3, 12])
    def test_b_at_window_edge_runs_refine(self, square_trace, j):
        # criterion 8's offset directions 3 and 12: the envelope's rms stays
        # under TWO_TERM_TRIGGER but b sits at B_MIN, 0.03 off in h_hat
        om = Direction.from_angle((j + 0.5) * 2 * np.pi / 64)
        est = estimate_support(compute_samples(square_trace, om, np.geomspace(4.0, 40.0, 64)))
        assert abs(est.h_hat - support_function([SQUARE], om)) <= 0.01


class TestThreshold:
    def test_dichotomy(self, square_trace, taus):
        samples = compute_samples(square_trace, OM30, taus)
        h = support_function([SQUARE], OM30)
        assert classify_threshold(samples, h + 0.2) == "decays"
        assert classify_threshold(samples, h - 0.2) == "blows_up"
        assert classify_threshold(samples, h) in ("decays", "inconclusive")

    def test_monotone_sandwich(self, square_trace, taus):
        samples = compute_samples(square_trace, OM30, taus)
        order = {"blows_up": 0, "inconclusive": 1, "decays": 2}
        h = support_function([SQUARE], OM30)
        labels = [
            order[classify_threshold(samples, t)]
            for t in np.linspace(h - 0.4, h + 0.4, 17)
        ]
        assert labels == sorted(labels)


class TestCovariance:
    def test_translation(self, square_trace, taus):
        b = np.array([0.3, -0.2])
        scene = Scene(
            obstacles=(Polygon(SQUARE_VERTS + b),),
            radius_R=2.0,
            radius_R1=6.0,
            source_y=np.array([6.0, 0.0]) + b,
            wavenumber_k=2.0,
            center=b,
        )
        sol = solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene))
        tr = trace_direct(sol, scene.radius_R, 512)
        for ang in (np.pi / 6, 2.0, 4.0):
            om = Direction.from_angle(ang)
            e0 = estimate_support(compute_samples(square_trace, om, taus))
            e1 = estimate_support(compute_samples(tr, om, taus))
            if not (e0.usable and e1.usable):
                continue
            assert e1.h_hat - e0.h_hat == pytest.approx(b @ om.vec, abs=0.02)

    def test_plane_wave_consistency(self, square_trace, square_trace_pw, taus):
        # directions the incident plane wave (angle 0.7) illuminates well;
        # deep-shadow directions lose accuracy in the plane-wave variant
        for ang in (np.pi / 6, 1.3, 2.6, 5.5):
            om = Direction.from_angle(ang)
            ej = estimate_support(compute_samples(square_trace, om, taus))
            ei = estimate_support(compute_samples(square_trace_pw, om, taus))
            assert ej.usable and ei.usable
            assert abs(ej.h_hat - ei.h_hat) < 0.05


def _with_noise(trace, level, seed):
    """The trace plus complex Gaussian noise of rms ``level`` times max |u| (and max |du/dn|)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((2, trace.n)) + 1j * rng.standard_normal((2, trace.n))) / np.sqrt(2)
    return dataclasses.replace(
        trace,
        u=trace.u + level * np.max(np.abs(trace.u)) * z[0],
        dudn=trace.dudn + level * np.max(np.abs(trace.dudn)) * z[1],
    )


class TestRoundOff:
    @pytest.mark.parametrize("seed", range(8))
    def test_plane_wave_support_survives_round_off(self, square_trace_pw, taus, seed):
        # criterion 6's scene and directions with round-off-sized noise:
        # the samples just above the eps*L1 floor carry log errors of
        # 1e-3 to 0.1, which the fits must weight down, not amplify
        noisy = _with_noise(square_trace_pw, 1e-15, seed)
        errs = []
        for ang in SUPPORT_ANGLES:
            om = Direction.from_angle(ang)
            est = estimate_support(compute_samples(noisy, om, taus))
            errs.append(abs(est.h_hat - support_function([SQUARE], om)))
        assert max(errs) <= SUPPORT_TOL


class TestHull:
    def test_square_hull(self, square_trace, taus):
        # the grid holds the four side normals; they are fitted like every
        # other direction, from the trace alone
        dirs = [Direction.from_angle(2 * np.pi * i / 24) for i in range(24)]
        hull, estimates = reconstruct_hull(square_trace, dirs, taus)
        assert all(isinstance(e, SupportEstimate) for e in estimates)
        assert hausdorff_distance(hull, SQUARE_VERTS) < 0.05 * SQUARE.diameter

    def test_square_hull_offset_grid(self, square_trace):
        # half-step offset keeps every direction away from the side normals
        dirs = [Direction.from_angle(2 * np.pi * (i + 0.5) / 64) for i in range(64)]
        taus = np.geomspace(4, 40, 64)
        hull, estimates = reconstruct_hull(square_trace, dirs, taus)
        assert len(estimates) == len(dirs)
        assert hausdorff_distance(hull, SQUARE_VERTS) < 0.05 * SQUARE.diameter

    def test_empty_intersection_raises(self, square_trace, taus, monkeypatch):
        # three usable supports h = -1 at 0, 120 and 240 degrees bound no point
        def fake(samples):
            return dataclasses.replace(estimate_support(samples), h_hat=-1.0, usable=True)

        monkeypatch.setattr(indicator, "estimate_support", fake)
        dirs = [Direction.from_angle(np.radians(deg)) for deg in (0, 120, 240)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

    def test_insufficient_directions(self, square_trace, taus):
        dirs = [Direction.from_angle(a) for a in (0.0, np.pi / 2)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

