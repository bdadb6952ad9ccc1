import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._lsq.common import solve_lsq_trust_region

from enclosure2d import indicator
from enclosure2d import trace as trace_module
from enclosure2d.errors import DomainError, ReconstructionError, ResolutionError
from enclosure2d.fields import PointSource
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
    MAX_ROUNDS,
    NOISE_SNR,
    IndicatorSamples,
    SupportEstimate,
    classify_threshold,
    compute_samples,
    estimate_support,
    estimate_supports,
    reconstruct_hull,
)
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


def _per_tau_quadrature(trace, omega, tau):
    """The per-tau quadrature that quadrature_samples runs for all tau at once."""
    points, normals = circle_nodes(trace.center, trace.radius, trace.n)
    t0 = np.max(points @ omega.vec)
    zeta = probe_gradient_factor(omega, tau, trace.k)[0]
    integrand = (trace.dudn - (normals @ zeta) * trace.u) * eval_probe(omega, tau, trace.k, points, t0)[0]
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


EIGHT_TAUS = np.geomspace(4.0, 40.0, 8)  # a grid that check_tau_grid admits


@pytest.mark.parametrize("call", [
    pytest.param(lambda trace: dataclasses.replace(trace, k=np.nan), id="probe-nan-k"),
    pytest.param(lambda trace: dataclasses.replace(trace, k=np.inf), id="probe-inf-k"),
    # every other rule of the grid holds, so only the one under test can fail
    pytest.param(lambda trace: compute_samples(trace, OM30, np.append(EIGHT_TAUS[:-1], np.nan)), id="samples-nan-tau"),
    pytest.param(lambda trace: compute_samples(trace, OM30, np.append(EIGHT_TAUS[:-1], np.inf)), id="samples-inf-tau"),
    pytest.param(lambda trace: compute_samples(trace, OM30, np.append(0.0, EIGHT_TAUS[1:])), id="samples-zero-tau"),
    pytest.param(lambda trace: compute_samples(trace, OM30, np.append(-4.0, EIGHT_TAUS[1:])),
                 id="samples-negative-tau"),
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


@pytest.mark.parametrize("taus", [
    pytest.param(EIGHT_TAUS[:7], id="seven"),
    pytest.param(EIGHT_TAUS[None], id="2-d"),
    pytest.param(EIGHT_TAUS[::-1], id="decreasing"),
    pytest.param(np.append(EIGHT_TAUS[:-1], EIGHT_TAUS[-2]), id="repeated"),
    pytest.param(np.geomspace(8.0, 20.0, 16), id="span-2.5"),
])
def test_each_tau_grid_rule(square_trace, taus):
    # each grid breaks one rule of check_tau_grid, which the samples and their constructor both run
    with pytest.raises(DomainError):
        compute_samples(square_trace, OM30, taus)
    with pytest.raises(DomainError):
        dataclasses.replace(synthetic_samples(EIGHT_TAUS), taus=taus)


class TestBatch:
    def test_empty_batch(self, square_trace, taus):
        samples = indicator.sample_directions(square_trace, [], taus)
        assert samples.omegas == () and samples.log_magnitudes.shape == (0, len(taus))
        assert estimate_supports(samples) == []
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, [], taus)

    def test_batch_of_one_callers_refuse_other_sizes(self, square_trace, taus):
        for directions in ([], [OM30, OM30]):
            samples = indicator.sample_directions(square_trace, directions, taus)
            with pytest.raises(DomainError):
                estimate_support(samples)
            with pytest.raises(DomainError):
                classify_threshold(samples, 0.7)

    def test_arrays_must_match_the_batch(self):
        # s is one row of the grid's length, the samples one row per direction
        samples = synthetic_samples(EIGHT_TAUS)
        for name in ("s", "log_magnitudes", "phases", "usable", "log_noise_floors"):
            value = getattr(samples, name)
            for wrong in (value[..., :-1], value[0] if value.ndim == 2 else value[None]):
                with pytest.raises(DomainError):
                    dataclasses.replace(samples, **{name: wrong})


def assert_matches_formula(trace, omega, taus):
    samples = compute_samples(trace, omega, taus)
    assert samples.omegas == (omega,) and samples.reference_height == trace.radius
    log_mag, phases, usable, log_floor = formula_samples(trace, omega, taus)
    np.testing.assert_array_equal(samples.log_magnitudes, log_mag[None])
    np.testing.assert_array_equal(samples.phases, phases[None])
    np.testing.assert_array_equal(samples.usable, usable[None])
    np.testing.assert_array_equal(samples.log_noise_floors, log_floor[None])


class TestProbeTable:
    DIRECTIONS = CRITERION_8_DIRECTIONS[::8]

    def test_s_is_kappa_plus_tau(self, square_trace):
        taus = np.geomspace(1.5, 15.0, 8)
        s = compute_samples(square_trace, OM30, taus).s
        assert s[0] == 4.0  # sqrt(1.5^2 + 2^2) + 1.5 at k = 2
        np.testing.assert_array_equal(s, np.hypot(taus, square_trace.k) + taus)

    def test_one_table_per_trace_and_grid(self, square_trace, monkeypatch):
        # a work count, not a clock: a 64-direction hull builds the
        # direction-independent table once, a later sweep of the same trace
        # and grid (a copy of it) builds none, and another trace builds its own
        calls = []
        build = trace_module._build_probe_table
        monkeypatch.setattr(trace_module, "_build_probe_table",
                            lambda trace, taus: calls.append((id(trace), len(taus))) or build(trace, taus))
        trace = dataclasses.replace(square_trace)  # a copy that has built no table
        reconstruct_hull(trace, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
        assert calls == [(id(trace), 64)]
        for om in CRITERION_8_DIRECTIONS:
            compute_samples(trace, om, CRITERION_8_TAUS.copy())
        assert len(calls) == 1
        other = dataclasses.replace(square_trace)
        for om in CRITERION_8_DIRECTIONS:
            compute_samples(other, om, CRITERION_8_TAUS)
        assert calls[1:] == [(id(other), 64)]

    def test_table_past_its_budget_raises_before_it_is_formed(self, square_trace, monkeypatch):
        # 4097 tau over 512 nodes passes the 2^21 entries by 512; the budget
        # is checked before the trace's modes are read or any row is formed
        def never(*args):
            raise AssertionError("the table was formed")

        monkeypatch.setattr(trace_module, "circle_modes", never)
        trace = dataclasses.replace(square_trace)  # a copy whose modes are not yet computed
        start = time.monotonic()
        with pytest.raises(ResolutionError, match="4097 tau over 512 trace nodes"):
            compute_samples(trace, OM30, np.geomspace(4.0, 40.0, trace_module.PROBE_TABLE_MAX_ENTRIES // 512 + 1))
        assert time.monotonic() - start < 1.0

    def test_grid_checks_do_not_grow_with_the_direction_count(self, square_trace, monkeypatch):
        # a work count, not a clock: a batch of one direction or of eight
        # checks its grid twice, before the table is looked up and in the
        # batch's constructor; rebuilding the batch checks it once more and
        # holds bitwise the same samples
        calls = []
        check = indicator.check_tau_grid
        monkeypatch.setattr(indicator, "check_tau_grid", lambda taus: calls.append(len(taus)) or check(taus))
        trace = dataclasses.replace(square_trace)  # a copy that has built no table
        for directions in (self.DIRECTIONS[:1], self.DIRECTIONS):
            samples = indicator.sample_directions(trace, directions, CRITERION_8_TAUS)
            assert samples.log_magnitudes.shape == (len(directions), 64)
            assert calls == [64, 64]
            rebuilt = IndicatorSamples(**{f.name: getattr(samples, f.name) for f in dataclasses.fields(samples)})
            assert calls == [64, 64, 64]
            calls.clear()
            for f in dataclasses.fields(samples):
                np.testing.assert_array_equal(getattr(rebuilt, f.name), getattr(samples, f.name))

    def test_two_grids_on_one_trace(self, square_trace):
        # the trace keeps the last grid's table: alternating grids rebuild it
        trace = dataclasses.replace(square_trace)
        for taus in (CRITERION_8_TAUS, EIGHT_TAUS, CRITERION_8_TAUS, EIGHT_TAUS):
            for om in self.DIRECTIONS:
                assert_matches_formula(trace, om, taus)

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
            np.testing.assert_allclose(samples.log_magnitudes, ref[None, :, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.phases, ref[None, :, 1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(samples.log_noise_floors, ref[None, :, 2], rtol=0, atol=1e-12)
            assert samples.usable.tolist() == [(ref[:, 0] > ref[:, 2] + np.log(NOISE_SNR)).tolist()]


def one_direction(taus, s, log_magnitudes, phases):
    """Noise-free samples of one direction, every one usable, as a batch of one referenced to height 0."""
    return IndicatorSamples(
        omegas=(Direction(1.0, 0.0),),
        taus=taus,
        s=s,
        log_magnitudes=log_magnitudes[None],
        phases=phases[None],
        usable=np.ones((1, len(taus)), dtype=bool),
        log_noise_floors=np.full((1, len(taus)), -np.inf),
        reference_height=0.0,
    )


def stack(batches):
    """One batch of the rows of ``batches``, which share one tau grid and reference height."""
    first = batches[0]
    assert all(np.array_equal(b.taus, first.taus) and np.array_equal(b.s, first.s)
               and b.reference_height == first.reference_height for b in batches)
    rows = {name: np.concatenate([getattr(b, name) for b in batches])
            for name in ("log_magnitudes", "phases", "usable", "log_noise_floors")}
    return dataclasses.replace(first, omegas=sum((b.omegas for b in batches), ()), **rows)


def synthetic_samples(taus, h=0.7, b=-0.5, c=1.2, k=2.0, noise=None, seed=0):
    taus = np.asarray(taus, dtype=float)
    s = np.hypot(taus, k) + taus
    logs = h * taus + b * np.log(s) + c
    if noise is not None:
        rng = np.random.default_rng(seed)
        logs = logs + rng.uniform(-noise, noise, size=len(taus))
    return one_direction(taus, s, logs, np.zeros_like(taus))


BEAT_GRIDS = [((4.0, 40.0, 64), -0.7), ((8.0, 40.0, 16), -0.7), ((8.0, 40.0, 16), 1.0)]
BEAT_IDS = ["grid0", "grid1", "grid2"]


def beat_samples(grid, p2):
    """Noise-free samples of two corners 0.02 apart in height."""
    taus = np.geomspace(*grid)
    k = 2.0
    s = np.hypot(taus, k) + taus
    j = s**-0.75 * (np.exp((0.5 + 0.3j) * taus) + 0.8 * np.exp((0.48 + 1j * p2) * taus))
    return one_direction(taus, s, np.log(np.abs(j)), np.angle(j))


def padded_beat_rows():
    """Grid 1's beat three times, as batches of one that keep 16, 12 and 9 usable samples."""
    base = beat_samples(*BEAT_GRIDS[1])
    return [dataclasses.replace(base, usable=(np.arange(16) >= drop)[None]) for drop in (0, 4, 7)]


class TestFit:
    def test_model_matching_data_exact(self, taus):
        est = estimate_support(synthetic_samples(taus))
        assert est.h_hat == pytest.approx(0.7, abs=1e-10)
        assert est.log_s_coefficient == pytest.approx(-0.5, abs=1e-8)
        assert est.residual_rms < 1e-10
        assert est.fit_path == "envelope"

    def test_converged_pass_is_not_repeated(self, taus, monkeypatch):
        # clean single-corner data trims nothing: one pass, whose fit is the result
        calls = []
        fit = indicator._envelope_fits
        monkeypatch.setattr(indicator, "_envelope_fits", lambda *args: calls.append(1) or fit(*args))
        assert estimate_support(synthetic_samples(taus)).fit_path == "envelope"
        assert len(calls) == 1

    def test_trimming_to_fewer_than_6_refits_every_sample(self, monkeypatch):
        # two deep nulls and a shallow one on 8 samples: the passes trim one
        # null each, the third would keep 5, so the fourth and last pass fits
        # all 8 again (b clamped at B_MIN), not the 5 clean samples
        calls = []
        fit = indicator._envelope_fits
        monkeypatch.setattr(indicator, "_envelope_fits", lambda x, q: calls.append(q.sum()) or fit(x, q))
        taus = np.geomspace(8.0, 40.0, 8)
        log_s = np.log(np.hypot(taus, 2.0) + taus)
        x = np.stack([taus, log_s, 0.5 * taus - 0.7 * log_s + 1.0 + np.array([0, 0, -2.45, -2.75, 0, 0, -0.1, 0])])
        (a,), (b,), (rms,) = indicator._trimmed_envelopes(x[None], np.ones((1, 8)), np.ones((1, 8), dtype=bool))
        assert calls == [8, 7, 6, 8]
        a_all, b_all, r_all = fit(x[None], np.ones((1, 8)))
        assert (a, b) == (a_all[0], b_all[0]) and b == B_MIN
        assert rms == pytest.approx(np.sqrt(np.mean(r_all**2)), rel=1e-12)

    def test_noisy_data(self, taus):
        est = estimate_support(synthetic_samples(taus, noise=1e-3, seed=4))
        assert est.h_hat == pytest.approx(0.7, abs=1e-2)

    def test_too_few_usable(self, taus):
        bad = dataclasses.replace(synthetic_samples(taus), usable=(np.arange(len(taus)) < 5)[None])
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
    def test_b_at_window_edge_runs_refine(self, square_trace, j, monkeypatch):
        # criterion 8's offset directions 3 and 12 on the quadrature's
        # samples: the envelope's rms stays under TWO_TERM_TRIGGER but b
        # sits at B_MIN, 0.03 off in h_hat.  (On the modes' samples no
        # square direction ends at B_MIN.)
        om = Direction.from_angle((j + 0.5) * 2 * np.pi / 64)
        samples = quadrature_samples(square_trace, om, np.geomspace(4.0, 40.0, 64))
        envelopes = []
        trimmed = indicator._trimmed_envelopes

        def record(*args):
            envelopes.append(trimmed(*args))
            return envelopes[-1]

        monkeypatch.setattr(indicator, "_trimmed_envelopes", record)
        est = estimate_support(samples)
        [(_, [b], [rms])] = envelopes
        assert b == B_MIN and rms < indicator.TWO_TERM_TRIGGER
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
    # converged to 1e-12: at least_squares' default 1e-8 it stopped 1.3e-6 short in b on a
    # flat-valley direction of criterion 8's square, past the 1e-6 that the batch is held to
    tight = dict(ftol=1e-12, xtol=1e-12, gtol=1e-12)
    best = least_squares(resid, x0, bounds=(indicator._LOWER, indicator._UPPER), max_nfev=200, **tight)
    dh1, p1, dh2, p2, b = best.x
    r, c = projected(best.x)
    mag = np.abs(J0 + r)  # |B c|, the model
    misfit = wt * (np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(J0)))
    log_rms = float(np.sqrt(np.sum(misfit**2) / np.sum(wt**2)))
    amps = np.abs(c)
    heights = [a0 + dh for dh, amp in ((dh1, amps[0]), (dh2, amps[1])) if amp > 1e-3 * amps.max()]
    return max(heights), float(b), log_rms


def lstsq_two_exponential_refines(t, L, phase, s, wt, used):
    """The reference refine in place of the batched one: one solve per row, on its used samples."""
    rows = [lstsq_two_exponential_refine(*(v[m] for v in row)) for *row, m in zip(t, L, phase, s, wt, used)]
    return tuple(np.array(column) for column in zip(*rows))


def refine_inputs(samples):
    """(t, J0, log s) as the refine sees them: J0 is the data with its mean growth removed."""
    t, (L,) = samples.taus, samples.log_magnitudes
    phase = np.unwrap(samples.phases[0])
    a0, p0 = np.polyfit(t, L, 1)[0], np.polyfit(t, phase, 1)[0]
    return t, np.exp(L - a0 * t + 1j * (phase - p0 * t)), np.log(samples.s)


STARTS = np.array([[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)])


def lstsq_residual(row, t, log_s, j0):
    basis = indicator._two_term_basis(row[None], t, log_s)[0].T
    c, _, _, sv = np.linalg.lstsq(basis, j0, rcond=None)
    return basis @ c - j0, sv


class TestTwoTermRefine:
    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_projection_matches_lstsq_on_the_starts(self, grid, p2):
        # the 26 starts hold the identical-column one, [0, 0, 0, 0, -0.75],
        # where both must fall back to rank 1
        t, j0, log_s = refine_inputs(beat_samples(grid, p2))
        assert [0.0, 0.0, 0.0, 0.0, -0.75] in STARTS.tolist()
        rows = indicator._projected_residuals(STARTS, t, log_s, j0)
        for start, row in zip(STARTS, rows):
            ref, _ = lstsq_residual(start, t, log_s, j0)
            assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(j0)

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_near_collinear_pair_keeps_rank_two(self, grid, p2):
        # exponents 1e-9 apart: both columns stay.  No two stable solvers
        # agree here beyond eps sigma_1 / sigma_2 (~1e-7 |J0|), so each is
        # held against the exact projection of the same float columns; the
        # re-orthogonalised QR must be at least as close to it as lstsq
        mp = pytest.importorskip("mpmath")
        t, j0, log_s = refine_inputs(beat_samples(grid, p2))
        near = np.array([[0.0, 0.3, 0.0, 0.3 + 1e-9, -0.9], [-0.1, 0.5, -0.1, 0.5 + 1e-9, -0.5]])
        rows = indicator._projected_residuals(near, t, log_s, j0)
        for params, row in zip(near, rows):
            ref, sv = lstsq_residual(params, t, log_s, j0)
            assert sv[1] > len(t) * np.finfo(float).eps * sv[0]
            assert np.linalg.norm(row - ref) <= np.finfo(float).eps * sv[0] / sv[1] * np.linalg.norm(j0)
            basis = indicator._two_term_basis(params[None], t, log_s)[0].T
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
    def test_closed_form_jacobian_matches_central_differences(self, x):
        # Golub and Pereyra's closed form against central differences of the
        # projected residual, at rank 2 and at rank 1 (the second exponent
        # set equal to the first).  At rank 1 the residual jumps as soon as
        # the two columns part, so only the directions that keep them equal
        # have a derivative there, and the dh2 and p2 columns are zero
        t, j0, log_s = refine_inputs(beat_samples(*BEAT_GRIDS[0]))
        ones = np.ones_like(t)

        def jacobian(row):
            f, jac = indicator._residuals_and_jacobians(row[None], t[None], log_s[None], j0[None], ones[None])
            np.testing.assert_array_equal(f[0], indicator._projected_residuals(row, t, log_s, j0))
            return jac[0]

        def central(row, v, h=1e-6):
            ends = indicator._projected_residuals(np.array([row + h * v, row - h * v]), t, log_s, j0)
            return (ends[0] - ends[1]) / (2 * h)

        x = np.array(x)
        jac = jacobian(x)
        for v in np.eye(5):
            np.testing.assert_allclose(v @ jac, central(x, v), rtol=0, atol=1e-7 * np.max(np.abs(jac)))
        tied = np.concatenate([x[:2], x[:2], x[4:]])
        jac = jacobian(tied)
        assert not jac[2:4].any()
        for v in ([1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 0, 0, 1]):
            v = np.array(v, dtype=float)
            np.testing.assert_allclose(v @ jac, central(tied, v), rtol=0, atol=1e-7 * np.max(np.abs(jac)))

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

    @staticmethod
    def count_calls(monkeypatch):
        """Record the parameter-row shapes of every ranking and every fused evaluation, in call order."""
        calls = []
        project, fused = indicator._projected_residuals, indicator._residuals_and_jacobians
        monkeypatch.setattr(indicator, "_projected_residuals",
                            lambda rows, *args: calls.append(("rank", rows.shape)) or project(rows, *args))
        monkeypatch.setattr(indicator, "_residuals_and_jacobians",
                            lambda rows, *args: calls.append(("round", rows.shape)) or fused(rows, *args))
        return calls

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_one_projection_per_ranking_residual_and_jacobian(self, grid, p2, monkeypatch):
        # a work count, not a clock: one direction's starts are ranked in one
        # call, then the start and each solver round are one evaluation of
        # the residual and its Jacobian together, so a per-start or
        # per-column loop, or a finite-difference Jacobian, fails
        calls = self.count_calls(monkeypatch)
        assert estimate_support(beat_samples(grid, p2)).fit_path == "two_term"
        ranking, *rounds = calls
        assert ranking == ("rank", (1, len(STARTS), 5))
        assert set(rounds) == {("round", (1, 5))}
        assert 1 < len(rounds) <= MAX_ROUNDS + 1

    def test_one_projection_per_batch_ranking_residual_and_jacobian(self, monkeypatch):
        # a work count, not a clock: the refines of a three-row batch (16,
        # 12 and 9 usable samples) run as one; all their starts are ranked
        # in one call, and the starts and each solver round are one fused
        # evaluation over the problems still running, so a per-start,
        # per-problem or per-column loop fails
        calls = self.count_calls(monkeypatch)
        assert [e.fit_path for e in estimate_supports(stack(padded_beat_rows()))] == ["two_term"] * 3
        ranking, *rounds = calls
        assert ranking == ("rank", (3, len(STARTS), 5))
        assert rounds[0] == ("round", (3, 5))
        assert all(kind == "round" and shape[1:] == (5,) for kind, shape in rounds)
        live = [shape[0] for _, shape in rounds]
        assert live == sorted(live, reverse=True) and live[-1] >= 1
        assert 1 < len(rounds) <= MAX_ROUNDS + 1


    def test_cli_square_source_240_direction_44_keeps_the_scipy_basin(self, monkeypatch):
        # the CLI's default square lit from 240 degrees, direction 44 of 64,
        # on the default tau grid: 10 usable samples.  Marquardt's schedule
        # (damping 1e-3 diag(J^T J), times 0.3 on accept and 4 on reject)
        # ends here at dh2 = -1 with log rms 0.014, where scipy's trust
        # region reaches 0.002; the envelope is then kept, 0.03 lower
        scene = Scene(obstacles=(SQUARE,), radius_R=2.0, radius_R1=6.0,
                      source_y=6.0 * np.array([np.cos(4 * np.pi / 3), np.sin(4 * np.pi / 3)]), wavenumber_k=2.0)
        sol = solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene, nodes_per_edge=64))
        samples = compute_samples(trace_direct(sol, scene.radius_R, 512), Direction.from_angle(2 * np.pi * 44 / 64),
                                  np.geomspace(8.0, 40.0, 16))
        assert np.count_nonzero(samples.usable) == 10
        est = estimate_support(samples)
        monkeypatch.setattr(indicator, "_two_exponential_refines", lstsq_two_exponential_refines)
        ref = estimate_support(samples)
        assert est.fit_path == ref.fit_path == "two_term"
        assert est.h_hat == pytest.approx(ref.h_hat, abs=1e-6)
        assert est.residual_rms == pytest.approx(ref.residual_rms, abs=1e-6)


class TestBatchedRefine:
    def test_padded_problems_match_their_single_fits(self):
        # problems of 16, 12 and 9 usable samples share one batch, so the
        # shorter two run on padded rows, which add exact zeros: each fit
        # matches its own single-direction fit.  CI runs this file with
        # RuntimeWarning as error, so an inf or NaN made in the padding fails
        rows = padded_beat_rows()
        batch = estimate_supports(stack(rows))
        assert [e.n_used for e in batch] == [16, 12, 9]
        assert [e.fit_path for e in batch] == ["two_term"] * 3
        for est, one in zip(batch, map(estimate_support, rows)):
            assert est.h_hat == pytest.approx(one.h_hat, abs=1e-9)
            assert est.log_s_coefficient == pytest.approx(one.log_s_coefficient, abs=1e-9)

    def test_failed_refine_stays_with_its_row(self):
        # a NaN phase makes one problem's start residual non-finite: that
        # direction alone falls back to its envelope fit
        good = beat_samples(*BEAT_GRIDS[0])
        phases = good.phases.copy()
        phases[0, 3] = np.nan
        bad = dataclasses.replace(good, phases=phases)
        alone = estimate_support(bad)
        assert alone.fit_path == "envelope" and not alone.usable
        assert alone.h_hat == pytest.approx(0.48020509, abs=1e-8)
        batch_good, batch_bad = estimate_supports(stack([good, bad]))
        assert batch_bad == alone
        assert batch_good == estimate_support(good)

    def test_grid_matches_scipy_reference_and_single_directions(self, square_trace, monkeypatch):
        # the square's criterion-8 grid: every two-term direction of the
        # batch agrees with the scipy reference refine, and the batch with
        # one-direction fits (batching rounds differently, so not bitwise)
        samples = [compute_samples(square_trace, om, CRITERION_8_TAUS) for om in CRITERION_8_DIRECTIONS]
        batch = estimate_supports(stack(samples))
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


CLI_DIRECTIONS = [Direction.from_angle(2 * np.pi * i / 64) for i in range(64)]
CLI_TAUS = np.geomspace(8.0, 40.0, 16)


def _lit_trace(verts, source_deg):
    """The trace of the CLI's default solve: source on the circle of radius 6 at ``source_deg``."""
    scene = Scene(obstacles=(Polygon(verts),), radius_R=2.0, radius_R1=6.0, wavenumber_k=2.0,
                  source_y=6.0 * np.array([np.cos(np.radians(source_deg)), np.sin(np.radians(source_deg))]))
    sol = solve_scattering(scene, PointSource(scene.source_y), build_mesh(scene, nodes_per_edge=64))
    return trace_direct(sol, scene.radius_R, 512)


# criterion 8's three traces on its grid, and three CLI default scenes on the CLI's
EQUIVALENCE_CASES = {
    **{f"criterion8-{name}": (verts, 0, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
       for name, verts in (("square", SQUARE_VERTS), ("triangle", TRIANGLE_VERTS), ("L", L_VERTS))},
    "cli-square-120": (SQUARE_VERTS, 120, CLI_DIRECTIONS, CLI_TAUS),
    "cli-triangle-240": (TRIANGLE_VERTS, 240, CLI_DIRECTIONS, CLI_TAUS),
    "cli-L-120": (L_VERTS, 120, CLI_DIRECTIONS, CLI_TAUS),
}


def _same_estimate(a: SupportEstimate, b: SupportEstimate, tol: float = 1e-12) -> bool:
    """Equal direction, count and flags, and h_hat, b and rms within ``tol``, NaN matching NaN."""
    fits = [(a.h_hat, b.h_hat), (a.log_s_coefficient, b.log_s_coefficient), (a.residual_rms, b.residual_rms)]
    return ((a.omega, a.n_used, a.usable, a.fit_path) == (b.omega, b.n_used, b.usable, b.fit_path)
            and all(abs(x - y) <= tol or (np.isnan(x) and np.isnan(y)) for x, y in fits))


class TestBatchedStages:
    @pytest.mark.parametrize("case", EQUIVALENCE_CASES)
    def test_hull_matches_one_direction_at_a_time(self, case):
        # the hull samples and fits all directions as arrays; one direction at
        # a time takes the batch of one at every stage.  Only round-off may differ
        verts, source_deg, directions, taus = EQUIVALENCE_CASES[case]
        trace = _lit_trace(verts, source_deg)
        _, batch = reconstruct_hull(trace, directions, taus)
        single = [estimate_support(compute_samples(trace, om, taus)) for om in directions]
        assert [e.fit_path for e in batch] == [e.fit_path for e in single]
        assert [e.usable for e in batch] == [e.usable for e in single]
        h_batch, h_single = (np.array([e.h_hat for e in ests]) for ests in (batch, single))
        np.testing.assert_array_equal(np.isnan(h_batch), np.isnan(h_single))
        assert np.nanmax(np.abs(h_batch - h_single)) <= 1e-6

    def test_one_sample_product_per_hull(self, square_trace, monkeypatch):
        # a work count, not a clock: every direction's series comes from one
        # product of the probe table with the stacked a_n e^{i n beta_j}
        products = []

        class CountedScale(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        build = trace_module._build_probe_table

        def counted(trace, taus):
            table = build(trace, taus)
            return dataclasses.replace(table, scale=table.scale.view(CountedScale))

        monkeypatch.setattr(trace_module, "_build_probe_table", counted)
        trace = dataclasses.replace(square_trace)  # a copy that has built no table
        reconstruct_hull(trace, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
        assert products == [(trace.n, 64)]

    @pytest.mark.parametrize("count", [1, 8, 64, 256])
    def test_envelope_passes_do_not_grow_with_the_direction_count(self, square_trace, count, monkeypatch):
        # a work count, not a clock: every pass of the trimmed envelope fit is
        # one call over the directions still fitting, at most 6 passes and
        # one final fit whatever the direction count
        calls = []
        fits = indicator._envelope_fits
        monkeypatch.setattr(indicator, "_envelope_fits", lambda x, q: calls.append(len(x)) or fits(x, q))
        directions = [Direction.from_angle(2 * np.pi * (j + 0.25) / count) for j in range(count)]
        estimate_supports(indicator.sample_directions(square_trace, directions, CRITERION_8_TAUS))
        assert calls[0] == count and 1 <= len(calls) <= 7
        assert calls == sorted(calls, reverse=True)

    def test_refine_runs_no_per_problem_solve(self, square_trace, monkeypatch):
        # the refine's slopes come from one masked product over all problems
        # and its final amplitudes from one batched QR: no polyfit, no lstsq
        def never(*args, **kwargs):
            raise AssertionError("a per-problem solve ran")

        refines = []
        refine = indicator._two_exponential_refines
        monkeypatch.setattr(indicator, "_two_exponential_refines", lambda *args: refines.append(len(args[0])) or
                            refine(*args))
        monkeypatch.setattr(np, "polyfit", never)
        monkeypatch.setattr(np.linalg, "lstsq", never)
        samples = indicator.sample_directions(square_trace, CRITERION_8_DIRECTIONS, CRITERION_8_TAUS)
        two_term = sum(e.fit_path == "two_term" for e in estimate_supports(samples))
        assert two_term >= 10 and len(refines) == 1 and refines[0] >= two_term

    def test_awkward_rows_match_their_batches_of_one(self, square_trace):
        # one batch holds a direction with 5 usable samples, one with -inf
        # floors and one whose NaN phase fails its refine, and a 16-tau grid
        # is a batch of its own.  pyproject.toml turns RuntimeWarning into
        # an error, so an inf or NaN made in the padding fails here.  Padding
        # adds exact zeros, but sums over longer rows may group their terms
        # differently, so the fits agree to round-off (5e-16 here)
        square = compute_samples(square_trace, CRITERION_8_DIRECTIONS[0], CRITERION_8_TAUS)
        few = dataclasses.replace(square, usable=square.usable & (np.cumsum(square.usable, axis=1) <= 5))
        floorless = dataclasses.replace(square, log_noise_floors=np.full((1, 64), -np.inf))
        beat = beat_samples(*BEAT_GRIDS[0])
        nan_phase = dataclasses.replace(beat, phases=np.where(np.arange(64) == 3, np.nan, beat.phases),
                                        log_magnitudes=beat.log_magnitudes - square_trace.radius * beat.taus,
                                        reference_height=square_trace.radius)  # the square's reference height
        rows = [few, floorless, nan_phase]
        batch = estimate_supports(stack(rows))
        assert [e.fit_path for e in batch] == ["none", "two_term", "envelope"]
        assert batch[0].n_used == 5
        for est, samples in zip(batch, rows):
            assert _same_estimate(est, estimate_support(samples))
        assert estimate_support(beat_samples(*BEAT_GRIDS[1])).fit_path == "two_term"


class TestLevenbergMarquardt:
    @staticmethod
    def beat_problems():
        """The three beat grids as the solver sees them: a fused evaluation over padded rows, and the best starts."""
        inputs = [refine_inputs(beat_samples(grid, p2)) for grid, p2 in BEAT_GRIDS]
        n = max(len(t) for t, *_ in inputs)
        T, LOG_S = np.zeros((3, n)), np.full((3, n), indicator._PAD_LOG_S)
        J0, W = np.zeros((3, n), dtype=complex), np.zeros((3, n))
        for i, (t, j0, log_s) in enumerate(inputs):
            T[i, :len(t)], LOG_S[i, :len(t)], J0[i, :len(t)], W[i, :len(t)] = t, log_s, j0, 1.0

        def evaluate(x, rows):
            return indicator._residuals_and_jacobians(x, T[rows], LOG_S[rows], J0[rows], W[rows])

        ranked = indicator._projected_residuals(STARTS, T[:, None], LOG_S[:, None], J0[:, None]) * W[:, None]
        return evaluate, STARTS[np.argmin(np.vecdot(ranked, ranked).real, axis=1)]

    def solo(self, evaluate, starts, i):
        x, ok = indicator._levenberg_marquardt(lambda x, rows: evaluate(x, np.array([i])[rows]), starts[i:i + 1])
        assert ok.all()
        return x[0]

    def test_non_finite_start_fails_that_problem_only(self):
        evaluate, starts = self.beat_problems()

        def broken(x, rows):
            f, jac = evaluate(x, rows)
            if isinstance(rows, slice):  # the starts: problem 1's residual turns NaN
                f[1, 2] = np.nan
            return f, jac

        x, ok = indicator._levenberg_marquardt(broken, starts)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            np.testing.assert_allclose(x[i], self.solo(evaluate, starts, i), rtol=0, atol=1e-12)

    def test_non_finite_trial_is_rejected_and_leaves_the_others_unchanged(self):
        # problem 0's first trial point gives a NaN residual: that step is
        # rejected, the radius shrinks and the solve goes on to the same end
        evaluate, starts = self.beat_problems()
        trials = []

        def broken(x, rows):
            f, jac = evaluate(x, rows)
            trials.append(len(trials))
            if len(trials) == 2:
                f[0] = np.nan
            return f, jac

        x, ok = indicator._levenberg_marquardt(broken, starts)
        assert ok.all()
        clean, _ = indicator._levenberg_marquardt(evaluate, starts)
        np.testing.assert_allclose(x[0], clean[0], rtol=0, atol=1e-7)
        for i in (1, 2):
            np.testing.assert_allclose(x[i], self.solo(evaluate, starts, i), rtol=0, atol=1e-12)

    def test_iteration_cap(self, monkeypatch):
        evaluate, starts = self.beat_problems()
        calls = []
        monkeypatch.setattr(indicator, "MAX_ROUNDS", 3)
        x, ok = indicator._levenberg_marquardt(lambda x, rows: calls.append(1) or evaluate(x, rows), starts)
        assert ok.all() and len(calls) == 1 + 3
        assert np.all((x >= indicator._LOWER) & (x <= indicator._UPPER))

    def test_batch_matches_each_problem_alone(self):
        evaluate, starts = self.beat_problems()
        x, ok = indicator._levenberg_marquardt(evaluate, starts)
        assert ok.all()
        for i in range(3):
            np.testing.assert_allclose(x[i], self.solo(evaluate, starts, i), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_trust_region_steps_against_scipy(self, seed):
        # three rows: a Gauss-Newton step inside the radius, one that must
        # be damped, and a rank-deficient system.  The first is taken
        # exactly; the others stay within the radius (1.1 radius for a
        # Gauss-Newton step) and reach at least 0.9 of the model decrease
        # of scipy's exact trust-region step (worst here 0.93)
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((3, 12, 5))
        J[2, :, 4] = J[2, :, 3]
        f = rng.standard_normal((3, 12))
        A, g = np.matmul(J.swapaxes(1, 2), J), np.matmul(J.swapaxes(1, 2), f[:, :, None])[:, :, 0]
        gauss_newton = -np.linalg.solve(A[:2], g[:2, :, None])[:, :, 0]
        radius = np.array([2.0 * np.linalg.norm(gauss_newton[0]), 0.3 * np.linalg.norm(gauss_newton[1]), 0.5])
        p = indicator._trust_region_steps(A, g, radius)
        np.testing.assert_allclose(p[0], gauss_newton[0], rtol=1e-10, atol=0)
        for i in range(3):
            U, sv, Vt = np.linalg.svd(J[i], full_matrices=False)
            exact, _, _ = solve_lsq_trust_region(5, 12, U.T @ f[i], sv, Vt.T, radius[i])
            assert np.linalg.norm(p[i]) <= 1.1 * radius[i]

            def model(step):
                return g[i] @ step + 0.5 * step @ A[i] @ step

            assert model(p[i]) <= 0.9 * model(exact) < 0

    @pytest.mark.parametrize("grid, p2", BEAT_GRIDS, ids=BEAT_IDS)
    def test_bound_is_reached_by_clamping(self, grid, p2):
        # data decaying like s^-0.3, past b's window: the solve ends with b
        # clamped exactly to B_MAX and frozen there, within 1e-6 of scipy's
        # bounded trust-region solve from the same start
        samples = beat_samples(grid, p2)
        s = samples.s
        j = s**-0.3 * (np.exp((0.5 + 0.3j) * samples.taus) + 0.8 * np.exp((0.48 + 1j * p2) * samples.taus))
        t, j0, log_s = refine_inputs(dataclasses.replace(samples, log_magnitudes=np.log(np.abs(j))[None],
                                                         phases=np.angle(j)[None]))
        ranked = indicator._projected_residuals(STARTS, t, log_s, j0)
        start = STARTS[np.argmin(np.vecdot(ranked, ranked).real)]
        x, ok = indicator._levenberg_marquardt(
            lambda x, rows: indicator._residuals_and_jacobians(x, t[None], log_s[None], j0[None], np.ones((1, len(t)))),
            start[None])
        assert ok.all() and x[0, 4] == B_MAX
        ref = least_squares(lambda y: indicator._projected_residuals(y, t, log_s, j0).view(float), start,
                            bounds=(indicator._LOWER, indicator._UPPER), max_nfev=200).x
        np.testing.assert_allclose(x[0], ref, rtol=0, atol=1e-6)


class TestThreshold:
    def test_dichotomy(self, square_trace, taus):
        samples = compute_samples(square_trace, OM30, taus)
        h = support_function([SQUARE], OM30)
        assert classify_threshold(samples, h + 0.2) == "decays"
        assert classify_threshold(samples, h - 0.2) == "blows_up"
        assert classify_threshold(samples, h) in ("decays", "inconclusive")

    def test_inconclusive_at_the_support(self, taus):
        # with b = 0, log(e^{-tau t} |J|) has slope h - t exactly
        samples = synthetic_samples(taus, b=0.0)
        assert [classify_threshold(samples, t) for t in (0.68, 0.7, 0.72)] == ["blows_up", "inconclusive", "decays"]

    def test_too_few_usable_samples(self, taus):
        samples = synthetic_samples(taus)
        with pytest.raises(ReconstructionError, match="at least 8"):
            classify_threshold(dataclasses.replace(samples, usable=(np.arange(len(taus)) < 7)[None]), 0.7)

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
        def fake(samples):
            return [dataclasses.replace(e, h_hat=-1.0, usable=True) for e in estimate_supports(samples)]

        monkeypatch.setattr(indicator, "estimate_supports", fake)
        dirs = [Direction.from_angle(np.radians(deg)) for deg in (0, 120, 240)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

    def test_insufficient_directions(self, square_trace, taus):
        dirs = [Direction.from_angle(a) for a in (0.0, np.pi / 2)]
        with pytest.raises(ReconstructionError):
            reconstruct_hull(square_trace, dirs, taus)

