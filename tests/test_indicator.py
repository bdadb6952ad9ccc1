import dataclasses

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from enclosure2d import indicator
from enclosure2d import trace as trace_module
from enclosure2d.errors import DomainError, ReconstructionError, ResolutionError
from enclosure2d.fields import PointSource, ProbeParams
from enclosure2d.forward import build_mesh, circle_nodes, solve_scattering
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
)
from enclosure2d.lsq import MAX_NFEV
from enclosure2d.trace import trace_direct
from conftest import (
    L_VERTS,
    SQUARE_VERTS,
    TRIANGLE_VERTS,
    eval_probe,
    formula_samples,
    make_scene,
    probe_gradient_factor,
    quadrature_samples,
    reference_samples,
)
from test_acceptance import SUPPORT_ANGLES, SUPPORT_TOL

OM30 = Direction.from_angle(np.pi / 6)
H30 = np.cos(np.pi / 6) / 2 + np.sin(np.pi / 6) / 2 + 0.0  # support of centered square
SQUARE = Polygon(SQUARE_VERTS)


def test_trace_must_hold_the_probe_band(square_sol, square_scene):
    # |g_n| peaks at n = kappa R: a trace of n nodes holds orders below n / 2,
    # so the largest tau it admits has 2 kappa R = n
    for n in (256, 512):
        trace = trace_direct(square_sol, square_scene.radius_R, n)
        tau_max = np.sqrt((n / (2 * trace.radius)) ** 2 - trace.k**2)
        grid = np.geomspace(tau_max / 4, tau_max, 8)
        assert len(compute_samples(trace, OM30, grid).taus) == 8
        with pytest.raises(ResolutionError):
            compute_samples(trace, OM30, grid * 1.001)


def test_empty_tau_grid(square_trace):
    with pytest.raises(DomainError):
        compute_samples(square_trace, OM30, [])


class TestGreenNull:
    def test_empty_scene_null(self, empty_scene, taus):
        src = PointSource(empty_scene.source_y)
        sol = solve_scattering(empty_scene, src, build_mesh(empty_scene))
        tr = trace_direct(sol, empty_scene.radius_R, 512)
        quadrature = quadrature_samples(tr, OM30, taus)
        # |J| below 1e-12 of the integrand mass; mass = floor / machine eps
        log_mass = quadrature.log_noise_floors - np.log(np.finfo(float).eps)
        assert np.all(quadrature.log_magnitudes < log_mass + np.log(1e-12))
        assert not quadrature.usable.any()
        # u - u_inc is exactly zero, so are the modes, and no sample is usable
        assert not np.any(tr.modes.a)
        assert not compute_samples(tr, OM30, taus).usable.any()


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
    """The per-tau quadrature that quadrature_samples runs for all tau at once."""
    points, normals = circle_nodes(trace.center, trace.radius, trace.n)
    t0 = np.max(points @ omega.vec)
    probe = ProbeParams(omega, tau, trace.k)
    integrand = (trace.dudn - (normals @ probe_gradient_factor(probe)[0]) * trace.u) * eval_probe(probe, points, t0)[0]
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
        ref, _ = reference_samples(sol, trace, om, CRITERION_8_TAUS)
        errs.append(np.abs(samples.log_magnitudes - ref)[samples.usable])
        bounds.append(3 * np.exp(samples.log_noise_floors - samples.log_magnitudes)[samples.usable])
    return np.concatenate(errs), np.concatenate(bounds)


class TestGreenReference:
    def test_usable_samples_match_reference_in_median(self, square_sol, square_trace):
        errs, _ = _usable_log_errors(square_sol, square_trace)
        assert np.median(errs) <= 1e-8

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the tail-level floor runs slightly low at mid tau: 1, 47 and 50 of 3102, 2929 and 3032 usable "
        "samples exceed 3 e^(floor - L) on the square, triangle and L, all at tau 6.4-18.6 and by at most "
        "1.02, 1.26 and 1.40 times the bound; max log error 0.067, 0.084 and 0.034"))
    def test_usable_samples_lie_within_their_floor(self):
        misses = {}
        for name, verts in (("square", SQUARE_VERTS), ("triangle", TRIANGLE_VERTS), ("L", L_VERTS)):
            scene = make_scene(verts)
            sol = solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene, nodes_per_edge=64))
            errs, bounds = _usable_log_errors(sol, trace_direct(sol, scene.radius_R, 512))
            misses[name] = int(np.sum(errs > bounds))
        assert not any(misses.values()), misses


@pytest.fixture(scope="module")
def translated_square():
    # TestCovariance.test_translation's scene: the square, the source and the circle moved by (0.3, -0.2)
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
    return sol, trace_direct(sol, scene.radius_R, 512)


def test_off_centre_circle_matches_reference(translated_square):
    # the factor e^{tau c.omega + i kappa c.omega_perp} of a circle centred
    # at c, on test_translation's directions and criterion 8's tau grid
    sol, trace = translated_square
    log_errs, phase_errs = [], []
    for ang in (np.pi / 6, 2.0, 4.0):
        om = Direction.from_angle(ang)
        samples = compute_samples(trace, om, CRITERION_8_TAUS)
        ref_log, ref_phase = reference_samples(sol, trace, om, CRITERION_8_TAUS)
        assert np.count_nonzero(samples.usable) >= 32
        log_errs.append(np.abs(samples.log_magnitudes - ref_log)[samples.usable])
        phase_errs.append(np.abs(np.angle(np.exp(1j * (samples.phases - ref_phase))))[samples.usable])
    assert np.median(np.concatenate(log_errs)) <= 1e-8
    assert np.median(np.concatenate(phase_errs)) <= 1e-8


class TestReferenceShift:
    @pytest.mark.parametrize("t_ref", [40, 100])
    def test_usable_flags_and_h_hat_ignore_t_ref(self, square_trace, taus, t_ref):
        # t_ref only shifts log|J| by tau (t0 - t_ref); which samples are
        # usable, and the support estimate, must not depend on it
        default = compute_samples(square_trace, OM30, taus)
        shifted = compute_samples(square_trace, OM30, taus, t_ref=t_ref)
        assert shifted.usable.tolist() == default.usable.tolist()
        assert estimate_support(shifted).h_hat == pytest.approx(estimate_support(default).h_hat, abs=1e-9)


NON_FINITE_GRID = [4.0, 8.0, 16.0, np.nan]
EIGHT_TAUS = np.geomspace(4.0, 40.0, 8)  # enough samples that only t_ref can fail


@pytest.mark.parametrize("call", [
    pytest.param(lambda trace: ProbeParams(OM30, NON_FINITE_GRID, 2.0), id="probe-nan-tau"),
    pytest.param(lambda trace: ProbeParams(OM30, np.inf, 2.0), id="probe-inf-tau"),
    pytest.param(lambda trace: ProbeParams(OM30, 4.0, np.nan), id="probe-nan-k"),
    pytest.param(lambda trace: ProbeParams(OM30, 4.0, np.inf), id="probe-inf-k"),
    pytest.param(lambda trace: compute_samples(trace, OM30, NON_FINITE_GRID), id="samples-nan-tau"),
    pytest.param(lambda trace: compute_samples(trace, OM30, [4.0, np.inf]), id="samples-inf-tau"),
    pytest.param(lambda trace: compute_samples(trace, OM30, EIGHT_TAUS, t_ref=np.nan), id="samples-nan-t_ref"),
    pytest.param(lambda trace: compute_samples(trace, OM30, EIGHT_TAUS, t_ref=np.inf), id="samples-inf-t_ref"),
])
def test_non_finite_probe_input_is_domain_error(call, square_trace):
    # nan <= 0 is False, so a bare positivity test lets these through; the
    # checks run on every call, also once the trace keeps a table for the grid
    trace = dataclasses.replace(square_trace)  # a copy that has built no table
    with pytest.raises(DomainError):
        call(trace)
    compute_samples(trace, OM30, EIGHT_TAUS)
    with pytest.raises(DomainError):
        call(trace)


def assert_matches_formula(trace, omega, taus, t_ref=None):
    samples = compute_samples(trace, omega, taus, t_ref)
    log_mag, phases, usable, log_floor = formula_samples(trace, omega, taus, t_ref)
    np.testing.assert_array_equal(samples.log_magnitudes, log_mag)
    np.testing.assert_array_equal(samples.phases, phases)
    np.testing.assert_array_equal(samples.usable, usable)
    np.testing.assert_array_equal(samples.log_noise_floors, log_floor)


class TestProbeTable:
    DIRECTIONS = CRITERION_8_DIRECTIONS[::8]

    def test_one_table_per_trace_and_grid(self, square_trace, monkeypatch):
        # a work count, not a clock: a 64-direction hull builds the
        # direction-independent table once, a later sweep of the same trace
        # and grid (a copy of it, with another t_ref) builds none, and
        # another trace builds its own
        calls = []
        build = trace_module._build_probe_table
        monkeypatch.setattr(trace_module, "_build_probe_table",
                            lambda trace, taus: calls.append((id(trace), len(taus))) or build(trace, taus))
        trace = dataclasses.replace(square_trace)  # a copy that has built no table
        reconstruct_hull(trace, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
        assert calls == [(id(trace), 64)]
        for om in CRITERION_8_DIRECTIONS:
            compute_samples(trace, om, CRITERION_8_TAUS.copy(), t_ref=1.0)
        assert len(calls) == 1
        other = dataclasses.replace(square_trace)
        for om in CRITERION_8_DIRECTIONS:
            compute_samples(other, om, CRITERION_8_TAUS)
        assert calls[1:] == [(id(other), 64)]

    def test_two_grids_on_one_trace(self, square_trace):
        # the trace keeps the last grid's table: alternating grids rebuild it
        trace = dataclasses.replace(square_trace)
        for taus in (CRITERION_8_TAUS, EIGHT_TAUS, CRITERION_8_TAUS, EIGHT_TAUS):
            for om in self.DIRECTIONS:
                assert_matches_formula(trace, om, taus)

    @pytest.mark.parametrize("t_ref", [None, 0.0, 40.0])
    def test_reference_shift(self, square_trace, t_ref):
        for om in self.DIRECTIONS:
            assert_matches_formula(square_trace, om, CRITERION_8_TAUS, t_ref)

    def test_off_centre_circle(self, translated_square):
        _, trace = translated_square
        for om in self.DIRECTIONS:
            assert_matches_formula(trace, om, CRITERION_8_TAUS)

    def test_no_table_leaks_between_traces(self, square_trace):
        # the same k, R and N with different u: the floor comes from each
        # trace's own tail level, so a shared table would show here
        noisy = _with_noise(square_trace, 1e-12, 0)
        assert noisy.modes.tail > 100 * square_trace.modes.tail
        for om in self.DIRECTIONS:
            for trace in (square_trace, noisy):
                assert_matches_formula(trace, om, CRITERION_8_TAUS)


class TestOnePass:
    def test_samples_match_per_tau_quadrature(self, square_trace):
        taus = np.geomspace(4.0, 40.0, 64)
        for ang in (0.3, 2.2, 5.0):
            om = Direction.from_angle(ang)
            samples = quadrature_samples(square_trace, om, taus)
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
        # criterion 8's offset directions 3 and 12 on the quadrature's
        # samples: the envelope's rms stays under TWO_TERM_TRIGGER but b
        # sits at B_MIN, 0.03 off in h_hat.  (On the modes' samples no
        # square direction ends at B_MIN.)
        om = Direction.from_angle((j + 0.5) * 2 * np.pi / 64)
        samples = quadrature_samples(square_trace, om, np.geomspace(4.0, 40.0, 64))
        envelope, _ = indicator._envelope_estimate(samples)
        assert envelope.log_s_coefficient == B_MIN and envelope.residual_rms < indicator.TWO_TERM_TRIGGER
        est = estimate_support(samples)
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


def lstsq_two_exponential_refines(problems):
    """The reference refine in place of the batched one: one solve per problem."""
    return [lstsq_two_exponential_refine(*problem) for problem in problems]


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
        # and 12 of test_b_at_window_edge_runs_refine, on the same samples
        if case in BEAT_IDS:
            samples = beat_samples(*BEAT_GRIDS[BEAT_IDS.index(case)])
        else:
            om = Direction.from_angle((case + 0.5) * 2 * np.pi / 64)
            samples = quadrature_samples(square_trace, om, np.geomspace(4.0, 40.0, 64))
        est = estimate_support(samples)
        monkeypatch.setattr(indicator, "_two_exponential_refines", lstsq_two_exponential_refines)
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
        monkeypatch.setattr(indicator, "_two_exponential_refines", lstsq_two_exponential_refines)
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
    """The trace plus complex Gaussian noise of rms ``level`` times max |u| on u, the data the inversion reads."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(trace.n) + 1j * rng.standard_normal(trace.n)) / np.sqrt(2)
    return dataclasses.replace(trace, u=trace.u + level * np.max(np.abs(trace.u)) * z)


class TestNoisyDirichletData:
    @pytest.mark.parametrize("seed", range(3))
    def test_square_hull_at_1e_12_noise(self, square_trace, seed):
        # criterion 8's square with noise on u alone: the floor is the
        # trace's tail level, so it rises with the noise and the hull holds
        noisy = _with_noise(square_trace, 1e-12, seed)
        hull, _ = reconstruct_hull(noisy, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
        assert hausdorff_distance(hull, SQUARE_VERTS) < 0.05 * SQUARE.diameter


class TestRoundOff:
    @pytest.mark.parametrize("seed", range(8))
    def test_plane_wave_support_survives_round_off(self, square_trace_pw, taus, seed):
        # criterion 6's scene and directions with round-off-sized noise:
        # the samples just above the floor carry log errors of up to 0.1,
        # which the fits must weight down, not amplify
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

