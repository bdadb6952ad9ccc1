import dataclasses

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from enclosure2d import indicator
from enclosure2d.errors import DomainError, ReconstructionError
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
    NOISE_SNR,
    IndicatorSamples,
    SupportEstimate,
    classify_threshold,
    compute_samples,
    estimate_support,
    estimate_supports,
    reconstruct_hull,
    required_trace_size,
)
from enclosure2d.lsq import MAX_NFEV
from enclosure2d.trace import trace_direct
from conftest import L_VERTS, SQUARE_VERTS, TRIANGLE_VERTS, make_scene, reference_log_magnitudes
from test_acceptance import SUPPORT_ANGLES, SUPPORT_TOL

OM30 = Direction.from_angle(np.pi / 6)
H30 = np.cos(np.pi / 6) / 2 + np.sin(np.pi / 6) / 2 + 0.0  # support of centered square
SQUARE = Polygon(SQUARE_VERTS)


def test_required_trace_size():
    n = required_trace_size(40.0, 2.0, 2.0)
    assert n == 4 * int(np.ceil(np.hypot(40.0, 2.0) * 2.0)) + 32


def test_empty_tau_grid(square_trace):
    with pytest.raises(DomainError):
        compute_samples(square_trace, OM30, [])


class TestGreenNull:
    def test_empty_scene_null(self, empty_scene, taus):
        src = PointSource(empty_scene.source_y)
        sol = solve_scattering(empty_scene, src, build_mesh(empty_scene))
        tr = trace_direct(sol, empty_scene.radius_R, 512)
        samples = compute_samples(tr, OM30, taus)
        # |J| below 1e-12 of the integrand mass; mass = floor / machine eps
        log_mass = samples.log_noise_floors - np.log(np.finfo(float).eps)
        assert np.all(samples.log_magnitudes < log_mass + np.log(1e-12))
        assert not samples.usable.any()


class TestScaling:
    def test_t_ref_shift(self, square_trace, taus):
        grid, delta = np.union1d(taus, [12.0]), 0.37
        a = compute_samples(square_trace, OM30, grid, t_ref=1.0)
        b = compute_samples(square_trace, OM30, grid, t_ref=1.0 + delta)
        shift = b.log_magnitudes - a.log_magnitudes
        assert np.all(np.abs(shift + grid * delta) <= 1e-12 * grid)

    def test_h_hat_t_ref_independent(self, square_trace, taus):
        ests = [
            estimate_support(compute_samples(square_trace, OM30, taus, t_ref=t))
            for t in (0.0, 1.0, 2.0)
        ]
        assert ests[1].h_hat == pytest.approx(ests[0].h_hat, abs=1e-12)
        assert ests[2].h_hat == pytest.approx(ests[0].h_hat, abs=1e-12)


def _per_tau_quadrature(trace, omega, tau):
    """The per-tau quadrature that compute_samples runs for all tau at once."""
    t0 = np.max(trace.points @ omega.vec)
    probe = ProbeParams(omega, tau, trace.k, t_ref=t0)
    integrand = (trace.dudn - (trace.normals @ probe.gradient_factor[0]) * trace.u) * eval_probe(probe, trace.points)[0]
    ds = 2 * np.pi * trace.radius / trace.n
    j = np.sum(integrand) * ds
    shift = tau * (t0 - trace.radius)
    log_floor = np.log(np.sum(np.abs(integrand)) * ds) + np.log(np.finfo(float).eps)
    return np.log(abs(j)) + shift, np.angle(j), log_floor + shift


CRITERION_8_DIRECTIONS = [Direction.from_angle((j + 0.5) * 2 * np.pi / 64) for j in range(64)]
CRITERION_8_TAUS = np.geomspace(4.0, 40.0, 64)


def _usable_log_errors(sol, trace):
    """|log|J| - log|J_ref|| of criterion 8's usable samples, and 3 e^{floor - L} of each."""
    errs, bounds = [], []
    for om in CRITERION_8_DIRECTIONS:
        samples = compute_samples(trace, om, CRITERION_8_TAUS)
        ref = reference_log_magnitudes(sol, trace, om, CRITERION_8_TAUS)
        errs.append(np.abs(samples.log_magnitudes - ref)[samples.usable])
        bounds.append(3 * np.exp(samples.log_noise_floors - samples.log_magnitudes)[samples.usable])
    return np.concatenate(errs), np.concatenate(bounds)


class TestGreenReference:
    def test_usable_samples_match_reference_in_median(self, square_sol, square_trace):
        errs, _ = _usable_log_errors(square_sol, square_trace)
        assert np.median(errs) <= 1e-8

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the eps*L1 floor lets through usable samples far off the reference: 268, 125 and 251 "
        "exceed 3 e^(floor - L) on the square, triangle and L, with max log error 0.49, 0.54 and 0.63"))
    def test_usable_samples_lie_within_their_floor(self):
        misses = {}
        for name, verts in (("square", SQUARE_VERTS), ("triangle", TRIANGLE_VERTS), ("L", L_VERTS)):
            scene = make_scene(verts)
            sol = solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene, nodes_per_edge=64))
            errs, bounds = _usable_log_errors(sol, trace_direct(sol, scene.radius_R, 512))
            misses[name] = int(np.sum(errs > bounds))
        assert not any(misses.values()), misses


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
            ref = np.array([_per_tau_quadrature(square_trace, om, t) for t in taus])
            np.testing.assert_allclose(samples.log_magnitudes, ref[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.phases, ref[:, 1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.log_noise_floors, ref[:, 2], rtol=0, atol=1e-12)
            assert samples.usable.tolist() == (ref[:, 0] > ref[:, 2] + np.log(NOISE_SNR)).tolist()


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


BEAT_GRIDS = [((4.0, 40.0, 64), -0.7), ((8.0, 40.0, 16), -0.7), ((8.0, 40.0, 16), 1.0)]
BEAT_IDS = ["grid0", "grid1", "grid2"]


def beat_samples(grid, p2):
    """Noise-free samples of two corners 0.02 apart in height."""
    taus = np.geomspace(*grid)
    k = 2.0
    s = np.hypot(taus, k) + taus
    j = s**-0.75 * (np.exp((0.5 + 0.3j) * taus) + 0.8 * np.exp((0.48 + 1j * p2) * taus))
    return IndicatorSamples(
        omega=Direction(1.0, 0.0),
        taus=taus,
        k=k,
        t_ref=0.0,
        log_magnitudes=np.log(np.abs(j)),
        phases=np.angle(j),
        usable=np.ones(len(taus), dtype=bool),
        log_noise_floors=np.full(len(taus), -np.inf),
    )


class TestFit:
    def test_model_matching_data_exact(self, taus):
        est = estimate_support(synthetic_samples(taus))
        assert est.h_hat == pytest.approx(0.7, abs=1e-10)
        assert est.log_s_coefficient == pytest.approx(-0.5, abs=1e-8)
        assert est.residual_rms < 1e-10
        assert est.fit_path == "envelope"

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
        est = estimate_support(bad)
        assert not est.usable
        assert est.fit_path == "none"
        assert est.n_used == 5
        assert np.isnan([est.h_hat, est.log_s_coefficient, est.residual_rms]).all()

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_two_term_beat(self, grid, p2):
        # two corners 0.02 apart in height beat against each other; the
        # envelope cannot fit that, so the two-exponential refine must.
        # On grid2 the first of the refine's starts ends in a wrong basin
        # (h_hat off by 0.08), so it must solve from the best-ranked one
        est = estimate_support(beat_samples(grid, p2))
        assert est.usable
        assert est.fit_path == "two_term"
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


def lstsq_two_exponential_refine(t, L, phase, s, wt):
    """Reference refine: one np.linalg.lstsq per start and per residual, and
    least_squares' built-in 2-point Jacobian."""
    a0 = float(np.polyfit(t, L, 1)[0])
    p0 = float(np.polyfit(t, np.unwrap(phase), 1)[0])
    J0 = np.exp(L - a0 * t + 1j * (np.unwrap(phase) - p0 * t))
    scale = float(np.mean(np.abs(J0)))

    def projected(params):
        dh1, p1, dh2, p2, b = params
        basis = np.column_stack([
            np.exp((dh1 + 1j * p1) * t),
            np.exp((dh2 + 1j * p2) * t),
        ]) * (s**b)[:, None]
        c, *_ = np.linalg.lstsq(basis, J0, rcond=None)
        return basis @ c - J0, c

    def resid(params):
        r, _ = projected(params)
        return np.concatenate([r.real * wt, r.imag * wt]) / scale

    starts = [[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)]
    x0 = min(starts, key=lambda x: float(np.sum(resid(x) ** 2)))
    best = least_squares(resid, x0, bounds=(indicator._LOWER, indicator._UPPER), max_nfev=200)
    dh1, p1, dh2, p2, b = best.x
    r, c = projected(best.x)
    mag = np.abs(J0 - r)
    log_rms = indicator._weighted_rms(np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(J0)), wt)
    amps = np.abs(c)
    heights = [a0 + dh for dh, amp in ((dh1, amps[0]), (dh2, amps[1])) if amp > 1e-3 * amps.max()]
    return max(heights), float(b), log_rms


def refine_inputs(samples):
    """(t, J0, s) as the refine sees them: J0 is the data with its mean growth removed."""
    t, L, s = samples.taus, samples.log_magnitudes, samples.s
    phase = np.unwrap(samples.phases)
    a0, p0 = np.polyfit(t, L, 1)[0], np.polyfit(t, phase, 1)[0]
    return t, np.exp(L - a0 * t + 1j * (phase - p0 * t)), s


STARTS = np.array([[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)])


def lstsq_residual(row, t, s, j0):
    basis = indicator._two_term_basis(row[None], t, s)[0].T
    c, _, _, sv = np.linalg.lstsq(basis, j0, rcond=None)
    return basis @ c - j0, sv


class TestTwoTermRefine:
    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_projection_matches_lstsq_on_the_starts(self, grid, p2):
        # the 26 starts hold the identical-column one, [0, 0, 0, 0, -0.75],
        # where both must fall back to rank 1
        t, j0, s = refine_inputs(beat_samples(grid, p2))
        assert [0.0, 0.0, 0.0, 0.0, -0.75] in STARTS.tolist()
        rows = indicator._projected_residuals(STARTS, t, s, j0)
        for start, row in zip(STARTS, rows):
            ref, _ = lstsq_residual(start, t, s, j0)
            assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(j0)

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_near_collinear_pair_keeps_rank_two(self, grid, p2):
        # exponents 1e-9 apart: both columns stay.  No two stable solvers
        # agree here beyond eps sigma_1 / sigma_2 (~1e-7 |J0|), so each is
        # held against the exact projection of the same float columns; the
        # re-orthogonalised QR must be at least as close to it as lstsq
        mp = pytest.importorskip("mpmath")
        t, j0, s = refine_inputs(beat_samples(grid, p2))
        near = np.array([[0.0, 0.3, 0.0, 0.3 + 1e-9, -0.9], [-0.1, 0.5, -0.1, 0.5 + 1e-9, -0.5]])
        rows = indicator._projected_residuals(near, t, s, j0)
        for params, row in zip(near, rows):
            ref, sv = lstsq_residual(params, t, s, j0)
            assert sv[1] > len(t) * np.finfo(float).eps * sv[0]
            assert np.linalg.norm(row - ref) <= np.finfo(float).eps * sv[0] / sv[1] * np.linalg.norm(j0)
            basis = indicator._two_term_basis(params[None], t, s)[0].T
            with mp.workdps(50):
                a, y = mp.matrix(basis.tolist()), mp.matrix(j0.tolist())
                exact = a * mp.lu_solve(a.H * a, a.H * y) - y
                exact = np.array([complex(v) for v in exact])
            assert np.linalg.norm(row - exact) <= np.linalg.norm(ref - exact)

    @pytest.mark.parametrize("x", [
        [0.5, 3.0, -1.0, -3.0, B_MAX],  # dh1, p1 at their upper and dh2, p2 at their lower bound
        [-1.0, -3.0, 0.5, 3.0, B_MIN],
        [0.1, -0.4, -0.2, 1.3, -0.7],
    ], ids=["b-max", "b-min", "interior"])
    def test_jacobian_takes_scipy_forward_difference_points(self, x):
        # at a bound the 2-point step flips inward; the batched Jacobian
        # must evaluate exactly the points least_squares' own finite
        # differences would, and agree with them up to round-off / step
        t, j0, s = refine_inputs(beat_samples(*BEAT_GRIDS[0]))
        x = np.array(x)

        def rows_fun(rows):
            r = indicator._projected_residuals(rows, t, s, j0)
            return np.concatenate([r.real, r.imag], axis=1)

        seen, ref_seen = [], []
        f_x = rows_fun(x[None])[0]
        jac = indicator._forward_jacobian(lambda rows: seen.extend(rows) or rows_fun(rows), x, f_x)
        ref = approx_derivative(lambda y: ref_seen.append(y.copy()) or rows_fun(y[None])[0], x,
                                method="2-point", f0=f_x, bounds=(indicator._LOWER, indicator._UPPER))
        np.testing.assert_array_equal(np.array(seen), np.array(ref_seen))
        assert np.all((np.array(seen) >= indicator._LOWER) & (np.array(seen) <= indicator._UPPER))
        np.testing.assert_allclose(jac, ref, rtol=0, atol=1e-6 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("case", [*BEAT_IDS, 3, 12], ids=[*BEAT_IDS, "square-dir3", "square-dir12"])
    def test_matches_lstsq_reference(self, case, square_trace, monkeypatch):
        # test_two_term_beat's grids, and the square's offset directions 3
        # and 12 of test_b_at_window_edge_runs_refine
        if case in BEAT_IDS:
            samples = beat_samples(*BEAT_GRIDS[BEAT_IDS.index(case)])
        else:
            om = Direction.from_angle((case + 0.5) * 2 * np.pi / 64)
            samples = compute_samples(square_trace, om, np.geomspace(4.0, 40.0, 64))
        est = estimate_support(samples)
        monkeypatch.setattr(indicator, "_two_exponential_refine", lstsq_two_exponential_refine)
        ref = estimate_support(samples)
        assert est.fit_path == ref.fit_path == "two_term"
        assert est.h_hat == pytest.approx(ref.h_hat, abs=1e-6)
        assert est.log_s_coefficient == pytest.approx(ref.log_s_coefficient, abs=1e-6)

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_one_projection_per_ranking_residual_and_jacobian(self, grid, p2, monkeypatch):
        # a work count, not a clock: one direction's starts are ranked in one
        # call, each solver round is one residual call and at most one
        # Jacobian call (five points at once), so a per-start or per-column
        # loop fails
        calls = []
        project = indicator._projected_residuals
        monkeypatch.setattr(indicator, "_projected_residuals",
                            lambda rows, *args: calls.append(rows.shape) or project(rows, *args))
        assert estimate_support(beat_samples(grid, p2)).fit_path == "two_term"
        ranking, first_jacobian, *rounds = calls
        assert ranking == (1, len(STARTS), 5)
        assert first_jacobian == (1, 5, 5)
        assert set(rounds) <= {(1, 5), (1, 5, 5)}
        residual_calls = rounds.count((1, 5))
        assert 0 < residual_calls < MAX_NFEV
        for before, shape in zip(rounds, rounds[1:]):
            if shape == (1, 5, 5):  # a Jacobian follows its round's residual call
                assert before == (1, 5)

    def test_one_projection_per_batch_ranking_residual_and_jacobian(self, monkeypatch):
        # a work count, not a clock: the three grids' refines run as one
        # batch; all their starts are ranked in one call, and each solver
        # round is one residual call over the live problems and at most one
        # Jacobian call (five points for each problem that moved), so a
        # per-start, per-problem or per-column loop fails
        calls = []
        project = indicator._projected_residuals
        monkeypatch.setattr(indicator, "_projected_residuals",
                            lambda rows, *args: calls.append(rows.shape) or project(rows, *args))
        samples = [beat_samples(grid, p2) for grid, p2 in BEAT_GRIDS]
        assert [e.fit_path for e in estimate_supports(samples)] == ["two_term"] * 3
        ranking, first_jacobian, *rounds = calls
        assert ranking == (3, len(STARTS), 5)
        assert first_jacobian == (3, 5, 5)
        residual_calls = [shape for shape in rounds if len(shape) == 2]
        assert 0 < len(residual_calls) < MAX_NFEV
        for before, shape in zip(rounds, rounds[1:]):
            if len(shape) == 3:  # a Jacobian follows its round's residual call, over no more problems
                assert len(before) == 2 and shape[0] <= before[0] and shape[1:] == (5, 5)
        assert residual_calls[0] == (3, 5)


class TestBatchedRefine:
    def test_failed_refine_stays_with_its_row(self):
        # a NaN phase makes one problem's start residual non-finite: that
        # direction alone falls back to its envelope fit
        good = beat_samples(*BEAT_GRIDS[0])
        phases = good.phases.copy()
        phases[3] = np.nan
        bad = dataclasses.replace(good, phases=phases)
        alone = estimate_support(bad)
        assert alone.fit_path == "envelope" and not alone.usable
        assert alone.h_hat == pytest.approx(0.48020509, abs=1e-8)
        batch_good, batch_bad = estimate_supports([good, bad])
        assert batch_bad == alone
        assert batch_good == estimate_support(good)

    def test_grid_matches_scipy_reference_and_single_directions(self, square_trace, monkeypatch):
        # the square's criterion-8 grid: every two-term direction of the
        # batch agrees with the scipy reference refine, and the batch with
        # one-direction fits (batching rounds differently, so not bitwise)
        samples = [compute_samples(square_trace, om, CRITERION_8_TAUS) for om in CRITERION_8_DIRECTIONS]
        batch = estimate_supports(samples)
        single = [estimate_support(s) for s in samples]
        monkeypatch.setattr(indicator, "_two_exponential_refine", lstsq_two_exponential_refine)
        reference = [estimate_support(s) for s in samples]
        assert sum(e.fit_path == "two_term" for e in batch) >= 10
        for est, one, ref in zip(batch, single, reference):
            assert est.fit_path == one.fit_path == ref.fit_path
            assert est.usable == one.usable == ref.usable
            assert est.h_hat == pytest.approx(one.h_hat, abs=1e-6)
            assert est.log_s_coefficient == pytest.approx(one.log_s_coefficient, abs=1e-6)
            if est.fit_path == "two_term":
                assert est.h_hat == pytest.approx(ref.h_hat, abs=1e-6)
                assert est.log_s_coefficient == pytest.approx(ref.log_s_coefficient, abs=1e-6)


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
        def fake(samples_seq):
            return [dataclasses.replace(e, h_hat=-1.0, usable=True) for e in estimate_supports(samples_seq)]

        monkeypatch.setattr(indicator, "estimate_supports", fake)
        dirs = [Direction.from_angle(np.radians(deg)) for deg in (0, 120, 240)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

    def test_insufficient_directions(self, square_trace, taus):
        dirs = [Direction.from_angle(a) for a in (0.0, np.pi / 2)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

