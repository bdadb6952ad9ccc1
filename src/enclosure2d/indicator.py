"""Enclosure-method indicator: growth-rate extraction of the support function.

The indicator pairs the total field on the circle with the exponentially
growing probe v_tau:

    J(tau) = int ( du/dnu * v_tau - dv_tau/dnu * u ) dS.

It needs only Dirichlet data and the known incident field: by Green's
identity the incident part, regular in the disc, drops out, and one mode
at a time the Wronskian of J_n and H_n turns the rest into one sum over
the modes a_n of u - u_inc (``trace.circle_modes``).  Its magnitude
behaves like e^{tau h} / s^{lambda} with s = sqrt(tau^2 + k^2) + tau and h
the support function value in the probe direction, so log |J e^{-tau t_ref}|
is fitted with the three-parameter model a tau + b log s + c; a + t_ref
estimates h and b is a corner-angle diagnostic (close to -pi/Theta for
the extreme corner).  Each sample carries a noise floor, the rms that the
trace's tail level delta (noise or round-off in every mode) gives J;
samples near it are unusable, and the fits weight the rest by their
distance above it, so a sample just above the floor, whose log carries an
error of order e^{floor - log|J|}, cannot steer the slope.

Two refinements make the fit robust when several boundary points share
nearly the same height in the probe direction (directions close to a
side normal, or normals of a hull edge spanning a nonconvex notch).
There the indicator is a beat pattern |c1 e^{z1 tau} + c2 e^{z2 tau}|
whose interference nulls wreck a plain least-squares slope.  First, one
fit of all three parameters with asymmetric trimming discards downward
residual spikes and recovers the clean upper envelope; the log s
exponent is clamped to its physically admissible window (convex corners
give -pi/Theta in (-1, -1/2); flat-side endpoint contributions give -1).
Second, when the trimmed residual stays large, a two-exponential
complex model is fitted to the full (magnitude and phase) indicator by
variable projection, and the height of the dominant exponent is used
instead.  The variable-projection solve runs once, from the best of a
fixed grid of starting exponents.  The linear coefficients are projected
out in closed form (a two-column QR), batched over parameter rows: all
starts are ranked in one call, and each forward-difference Jacobian
evaluates its five perturbed points in one call.  ``estimate_supports``
fits many directions and runs all their refines as one batched
trust-region-reflective solve (``lsq.solve_bounded``), which takes the
steps scipy's ``least_squares`` would take for each alone.

The hull is built from the fitted data alone: every direction is fitted
in one ``estimate_supports`` call, and those whose fit stays poor are
left out of the half-plane intersection.  Side normals, where a whole
edge attains the support value, are fitted like any other direction:
their two end corners beat against each other, which is the case the
two-exponential fit models.

``compute_samples`` is the one sampling entry point and
``estimate_supports`` the one fit entry point; ``estimate_support`` is
its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ReconstructionError, ResolutionError
from .fields import ProbeParams
from .geometry import Direction, convex_hull_from_supports
from .lsq import solve_bounded
from .trace import TraceData

__all__ = [
    "IndicatorSamples",
    "SupportEstimate",
    "compute_samples",
    "estimate_support",
    "estimate_supports",
    "classify_threshold",
    "reconstruct_hull",
]

NOISE_SNR = 30.0
SLOPE_TOL = 0.01
RMS_USABLE_THRESHOLD = 0.05
# physically admissible log s exponents: corner contributions carry
# -pi/Theta in (-1, -1/2) for exterior angles Theta in (pi, 2 pi), flat
# sides contribute -1; a margin is left on either end
B_MIN, B_MAX = -1.1, -0.45
TRIM_SIGMA = 2.0
# single-term asymptotics are trusted only for s >= S_SINGLE_MIN (the
# neglected corrections are O(1/s)); below that, or whenever the trimmed
# residual exceeds the trigger or b sits clamped at B_MIN (a tie the
# envelope cannot resolve), the two-exponential refinement takes over
S_SINGLE_MIN = 16.0
TWO_TERM_TRIGGER = 0.01
# log-magnitude error of a sample far above its noise floor; a sample
# near the floor carries the relative error e^{floor - L} on top, and each
# fit weights its residual by 1 / hypot(SIGMA0, e^{floor - L})
SIGMA0 = 3e-3
# bounds of the two-term refine's (dh1, p1, dh2, p2, b)
_LOWER = np.array([-1.0, -3.0, -1.0, -3.0, B_MIN])
_UPPER = np.array([0.5, 3.0, 0.5, 3.0, B_MAX])
_EPS = float(np.finfo(float).eps)
_DIAGONAL = np.eye(5, dtype=bool)


@dataclass(frozen=True)
class IndicatorSamples:
    """Scaled indicator values over a strictly increasing tau grid.

    ``log_noise_floors`` holds each sample's noise floor, the rms that the
    trace's tail level gives J, on the same scale as ``log_magnitudes``;
    samples whose floor is -inf (noise-free data) all weigh the same in the
    fit.
    """

    omega: Direction
    t_ref: float
    taus: np.ndarray
    log_magnitudes: np.ndarray
    phases: np.ndarray
    usable: np.ndarray
    k: float
    log_noise_floors: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 8:
            raise DomainError("need at least 8 tau samples")
        if np.any(np.diff(taus) <= 0) or taus[0] <= 0:
            raise DomainError("tau grid must be positive and strictly increasing")

    @property
    def s(self) -> np.ndarray:
        return ProbeParams(self.omega, self.taus, self.k).s


def compute_samples(trace: TraceData, omega: Direction, taus, t_ref: float | None = None) -> IndicatorSamples:
    """Scaled indicator values and their noise floors over a tau grid, from the trace's modes.

    With a_n the modes, eta = asinh(tau/k), kappa = sqrt(tau^2 + k^2) and c
    the circle's centre, J e^{-tau t_ref} is
    4i e^{tau (c.omega + R - t_ref) + i kappa c.omega_perp} sum_n a_n e^{n eta - tau R} e^{i n beta};
    each g_n = e^{n eta - tau R} / H_n(kR) is formed in exponent arithmetic.
    |g_n| peaks near n = kappa R, so a trace of fewer than 2 kappa R nodes at
    the largest tau raises ResolutionError.  If every w_n carries independent
    noise of the tail level delta, J has rms 4 delta ||g||_2: that is the
    floor, and samples less than NOISE_SNR times above it are unusable.
    ``t_ref`` (default: the circle radius) enters as an exact affine shift.
    """
    taus = np.asarray(taus, float)
    if len(taus) == 0:
        raise DomainError("need at least one tau sample")
    t_ref = float(trace.radius if t_ref is None else t_ref)
    if not math.isfinite(t_ref):
        raise DomainError("t_ref must be finite")
    kappa = np.hypot(ProbeParams(omega, taus, trace.k).tau, trace.k)  # the probe checks tau and k
    band = 2 * float(np.max(kappa)) * trace.radius
    if band > trace.n:
        raise ResolutionError(f"trace has {trace.n} nodes but tau={np.max(taus)} needs 2 kappa R = {band:.1f}")

    modes = trace.modes
    eta = np.arcsinh(taus / trace.k)
    # e^{n eta - tau R} 2^-exps: times a it is a_n e^{n eta - tau R}, over |h| it is |g_n|
    scale = np.exp(eta[:, None] * modes.orders - (taus * trace.radius)[:, None] - math.log(2) * modes.exps)
    series = scale @ (modes.a * np.exp(1j * omega.angle * modes.orders))
    g_norm = np.sqrt(scale**2 @ np.abs(modes.h) ** -2)
    shift = taus * (trace.center @ omega.vec + trace.radius - t_ref)
    with np.errstate(divide="ignore"):
        log_mag = np.log(4 * np.abs(series)) + shift
        log_floor = np.log(4 * modes.tail * g_norm) + shift
    return IndicatorSamples(
        omega=omega,
        t_ref=t_ref,
        taus=taus,
        log_magnitudes=log_mag,
        phases=np.angle(1j * series * np.exp(1j * kappa * (trace.center @ omega.perp))),
        usable=np.isfinite(log_mag) & (log_mag > log_floor + math.log(NOISE_SNR)),
        k=trace.k,
        log_noise_floors=log_floor,
    )


@dataclass(frozen=True)
class SupportEstimate:
    omega: Direction
    h_hat: float
    log_s_coefficient: float  # b; compare against -pi/Theta
    residual_rms: float
    n_used: int
    usable: bool
    fit_path: str  # "envelope" or "two_term": the fit whose h_hat is reported; "none" below 8 usable samples


def _fit_weights(samples: IndicatorSamples, mask: np.ndarray) -> np.ndarray:
    """Per-sample weights 1 / hypot(SIGMA0, e^{floor - L}), scaled to rms 1."""
    rel_noise = np.exp(samples.log_noise_floors[mask] - samples.log_magnitudes[mask])
    w = 1.0 / np.hypot(SIGMA0, rel_noise)
    return w / np.sqrt(np.mean(w**2))


def _weighted_rms(r: np.ndarray, w: np.ndarray) -> float:
    return float(np.sqrt(np.sum((w * r) ** 2) / np.sum(w**2)))


def _weighted_lstsq(design: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(design * w[:, None], y * w, rcond=None)[0]


def _clamped_fit(design: np.ndarray, L: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted [a, b, c] fit; a b outside [B_MIN, B_MAX] is held at the nearer end."""
    coeffs = _weighted_lstsq(design, L, w)
    b = min(max(coeffs[1], B_MIN), B_MAX)
    if b != coeffs[1]:
        a, c = _weighted_lstsq(design[:, [0, 2]], L - b * design[:, 1], w)
        coeffs = np.array([a, b, c])
    return coeffs


def _trimmed_envelope_fit(t: np.ndarray, L: np.ndarray, s: np.ndarray, wt: np.ndarray):
    """One weighted fit of a tau + b log s + c with asymmetric trimming.

    Interference between same-height boundary contributions only pushes
    log |J| *down* (toward the nulls of the beat pattern), so residuals
    far below the model are discarded while the upper envelope is kept.
    b stays in its admissible window in every pass.  For clean
    single-corner data no point is trimmed and the fit reduces to
    weighted least squares with the sample weights ``wt``.
    """
    design = np.column_stack([t, np.log(s), np.ones_like(t)])
    w = np.ones(len(t), dtype=bool)
    for _ in range(6):
        r = L - design @ _clamped_fit(design[w], L[w], wt[w])
        pos = w & (r > 0)
        sigma = max(_weighted_rms(r[pos], wt[pos]) if pos.any() else 1e-3, 1e-3)
        w_new = r > -TRIM_SIGMA * sigma
        if np.count_nonzero(w_new) < 6:
            w = np.ones(len(t), dtype=bool)
            break
        if np.array_equal(w_new, w):
            break
        w = w_new
    coeffs = _clamped_fit(design[w], L[w], wt[w])
    rms = _weighted_rms(L[w] - design[w] @ coeffs, wt[w])
    return float(coeffs[0]), float(coeffs[1]), rms


def _two_term_basis(rows: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(..., 2, n) columns s^b e^{(dh_j + i p_j) tau} of each (dh1, p1, dh2, p2, b) row.

    ``t`` and ``s`` are one grid (n,) or one grid per row, broadcast
    against the rows' leading axes.
    """
    z = rows[..., :4].view(complex)  # each (dh_j, p_j) pair read as dh_j + i p_j
    return np.exp(z[..., None] * t[..., None, :]) * s[..., None, :] ** rows[..., 4, None, None]


def _projected_residuals(rows: np.ndarray, t: np.ndarray, s: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """(..., n) residuals basis c - J0, with c the least-squares amplitudes, one per row.

    Each row of ``rows`` is (dh1, p1, dh2, p2, b); ``t``, ``s`` and ``j0``
    broadcast against the rows' leading axes as in ``_two_term_basis``.
    J0 is projected off span{s^b e^{z1 tau}, s^b e^{z2 tau}} by a
    closed-form two-column Gram-Schmidt QR with one re-orthogonalisation,
    vectorised over rows.  A second column left with norm at most
    n eps max(|b1|, |b2|) is dropped (rank 1), as ``np.linalg.lstsq``'s
    default rcond does for identical columns.
    """
    basis = _two_term_basis(rows, t, s)
    b1, b2 = basis[..., 0, :], basis[..., 1, :]
    norms = np.sqrt(np.vecdot(basis, basis).real)
    q1 = b1 / norms[..., :1]
    v = b2 - q1 * np.vecdot(q1, b2)[..., None]
    v -= q1 * np.vecdot(q1, v)[..., None]
    v_norm = np.sqrt(np.vecdot(v, v).real)
    rank2 = v_norm > t.shape[-1] * _EPS * np.maximum(norms[..., 0], norms[..., 1])
    q2 = v / np.where(rank2, v_norm, np.inf)[..., None]
    return q1 * np.vecdot(q1, j0)[..., None] + q2 * np.vecdot(q2, j0)[..., None] - j0


def _forward_jacobian(rows_fun, x: np.ndarray, f_x: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobians (..., M, 5) of a batched residual map at x (..., 5).

    ``rows_fun`` maps parameter rows (..., 5, 5), the five perturbed points
    of each x, to residual rows (..., 5, M); all of them go through it in
    one call.  The steps follow ``scipy.optimize.least_squares``' own
    2-point rule, sqrt(eps) sign(x) max(1, |x|), flipped when x + h would
    leave [_LOWER, _UPPER], so the solve takes the iterates the built-in
    finite differences would give.  Every such step (below 1e-7) fits on
    the far side of a box at least 0.65 wide, so scipy's clip to the far
    bound never applies.
    """
    h = math.sqrt(_EPS) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    x_h = x + h
    h = np.where((x_h < _LOWER) | (x_h > _UPPER), -h, h)
    x_h = x + h
    points = np.where(_DIAGONAL, x_h[..., None, :], x[..., None, :])
    return np.swapaxes((rows_fun(points) - f_x[..., None, :]) / (x_h - x)[..., :, None], -1, -2)


_STARTS = np.array([[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)])


def _two_exponential_refines(problems):
    """Variable-projection fits of J = s^b (c1 e^{z1 tau} + c2 e^{z2 tau}), one per problem.

    Each problem is (t, L, phase, s, wt) of one direction.  Used when two
    boundary points of nearly equal height beat against each other; the
    heights are the real parts of the exponents and the estimate is the
    larger one among components with non-negligible amplitude.  Each
    problem's 26 starting exponents are ranked by their projected misfit,
    and one bounded solve runs from the best: all problems in one batched
    trust-region-reflective solve (``lsq.solve_bounded``).  The ranking of
    every problem's starts, each round's residuals and each round's
    forward-difference Jacobians are one call each of the batched
    projection ``_projected_residuals``.  Shorter problems are padded to
    the longest with s = inf (which zeroes the basis there, as b < 0) and
    J0 = wt = 0, so padding adds exact zeros.  Each sample's residual
    carries its weight ``wt``; the final amplitudes come from one
    least-squares solve at each solution.  Returns one (h, b, log_rms) per
    problem, with h on the same scale as the envelope's a, or None where
    the solve failed.
    """
    n_max = max(len(t) for t, *_ in problems)
    T, S = np.zeros((len(problems), n_max)), np.full((len(problems), n_max), np.inf)
    J0, W = np.zeros((len(problems), n_max), dtype=complex), np.zeros((len(problems), n_max))
    a0, scale = np.zeros(len(problems)), np.zeros((len(problems), 1))
    for i, (t, L, phase, s, wt) in enumerate(problems):
        # remove the dominant growth so the data is O(1)
        phase = np.unwrap(phase)
        a0[i] = np.polyfit(t, L, 1)[0]
        p0 = float(np.polyfit(t, phase, 1)[0])
        j0 = np.exp(L - a0[i] * t + 1j * (phase - p0 * t))
        scale[i] = np.mean(np.abs(j0))
        n = len(t)
        T[i, :n], S[i, :n], J0[i, :n], W[i, :n] = t, s, j0, wt

    def residuals(x, rows):
        # x: (k, 5) parameter rows, or (k, j, 5) with j rows per problem
        sel = (rows, None) if x.ndim == 3 else rows
        # real and imaginary parts interleaved: (r * w).real is r.real * w exactly
        return (_projected_residuals(x, T[sel], S[sel], J0[sel]) * W[sel]).view(float) / scale[sel]

    def jacobians(x, f, rows):
        return _forward_jacobian(lambda points: residuals(points, rows), x, f)

    ranked = residuals(np.broadcast_to(_STARTS, (len(problems), *_STARTS.shape)), slice(None))
    best = np.argmin(np.sum(ranked**2, axis=-1), axis=1)
    solutions, ok = solve_bounded(residuals, jacobians, _STARTS[best], ranked[np.arange(len(problems)), best],
                                  _LOWER, _UPPER)
    refined = []
    for x, solved, (t, L, phase, s, wt), a, j0 in zip(solutions, ok, problems, a0, J0):
        if not solved:
            refined.append(None)
            continue
        j0 = j0[: len(t)]
        basis = _two_term_basis(x, t, s).T
        c = np.linalg.lstsq(basis, j0, rcond=None)[0]
        mag = np.abs(basis @ c)
        log_rms = _weighted_rms(np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(j0)), wt)
        amps = np.abs(c)
        heights = [a + dh for dh, amp in ((x[0], amps[0]), (x[2], amps[1])) if amp > 1e-3 * amps.max()]
        refined.append((max(heights), float(x[4]), log_rms))
    return refined


def _envelope_estimate(samples: IndicatorSamples):
    """The envelope fit of one direction, and the refine's inputs when it must run.

    Returns (estimate, problem): ``problem`` is (t, L, phase, s, wt) for
    ``_two_exponential_refines`` when the trimmed residual exceeds the
    trigger or b sits at B_MIN, else None.
    """
    taus = samples.taus
    if taus[-1] / taus[0] < 3.0:
        raise DomainError("tau grid must span at least a factor of 3")
    mask = samples.usable & np.isfinite(samples.log_magnitudes)
    n_used = int(np.count_nonzero(mask))
    if n_used < 8:
        return SupportEstimate(
            omega=samples.omega,
            h_hat=math.nan,
            log_s_coefficient=math.nan,
            residual_rms=math.nan,
            n_used=n_used,
            usable=False,
            fit_path="none",
        ), None
    t, L, s = taus[mask], samples.log_magnitudes[mask], samples.s[mask]
    wt = _fit_weights(samples, mask)
    far = s >= S_SINGLE_MIN
    if np.count_nonzero(far) < 8:
        far = np.ones(len(t), dtype=bool)
    a, b, rms = _trimmed_envelope_fit(t[far], L[far], s[far], wt[far])
    estimate = SupportEstimate(
        omega=samples.omega,
        h_hat=a + samples.t_ref,
        log_s_coefficient=b,
        residual_rms=rms,
        n_used=n_used,
        usable=rms < RMS_USABLE_THRESHOLD,
        fit_path="envelope",
    )
    if rms > TWO_TERM_TRIGGER or b <= B_MIN:
        return estimate, (t, L, samples.phases[mask], s, wt)
    return estimate, None


def _keep_better(samples: IndicatorSamples, estimate: SupportEstimate, refined) -> SupportEstimate:
    """The two-term fit in place of the envelope's when it exists and its log rms is lower."""
    if refined is not None and refined[2] < estimate.residual_rms:
        h, b, rms = refined
        return replace(estimate, h_hat=h + samples.t_ref, log_s_coefficient=b, residual_rms=rms,
                       usable=rms < RMS_USABLE_THRESHOLD, fit_path="two_term")
    return estimate


def estimate_support(samples: IndicatorSamples) -> SupportEstimate:
    """Robust fit of log|J_hat| = a tau + b log s + c; h_hat = a + t_ref.

    The b log s term absorbs the leading s^{-lambda} decay of the
    indicator.  One fit with asymmetric trimming estimates all three
    parameters, with b clamped to the physically admissible exponent
    window, and a two-exponential complex fit takes over when
    interference between equal-height boundary points leaves the trimmed
    residual large or holds b at B_MIN; it is kept only when its log
    rms is lower.  With fewer than 8 usable samples nothing is fitted:
    the estimate is unusable, with NaN h_hat, b and rms and fit_path
    "none", so the hull drops that direction alone.  This is
    ``estimate_supports`` for one direction.
    """
    return estimate_supports([samples])[0]


def estimate_supports(samples_seq) -> list[SupportEstimate]:
    """Fit every direction as ``estimate_support`` does, with all their two-term refines in one solve.

    The refines run as one batch, so a failed refine (a non-finite
    residual, say) leaves its own direction on its envelope fit and the
    others unchanged.  Batching rounds differently from one direction at
    a time, so an ``h_hat`` can differ from that direction's fit alone in
    the last digits, more where the fit's valley is flat.
    """
    samples_seq = list(samples_seq)
    staged = [_envelope_estimate(samples) for samples in samples_seq]
    problems = [problem for _, problem in staged if problem is not None]
    refined = iter(_two_exponential_refines(problems) if problems else [])
    return [estimate if problem is None else _keep_better(samples, estimate, next(refined))
            for samples, (estimate, problem) in zip(samples_seq, staged)]


def classify_threshold(samples: IndicatorSamples, t: float) -> str:
    """'decays' / 'blows_up' / 'inconclusive' for e^{-tau t} |J(tau)|.

    The decision uses the least-squares slope of log(e^{-tau t} |J|) over
    the upper half of the usable tau grid; it is monotone in t by
    construction (the slope is affine in t).
    """
    mask = samples.usable & np.isfinite(samples.log_magnitudes)
    if np.count_nonzero(mask) < 8:
        raise ReconstructionError("need at least 8 usable samples to classify")
    taus = samples.taus[mask]
    g = samples.log_magnitudes[mask] + taus * (samples.t_ref - t)
    half = len(taus) // 2
    tt, gg = taus[half:], g[half:]
    slope = float(np.polyfit(tt, gg, 1)[0])
    if slope < -SLOPE_TOL:
        return "decays"
    if slope > SLOPE_TOL:
        return "blows_up"
    return "inconclusive"


def reconstruct_hull(trace: TraceData, directions, taus):
    """Support-function sweep over a direction grid plus half-plane hull.

    Reads only the trace: every direction is fitted, and the usable
    estimates bound the hull.  Returns ``(hull_vertices, estimates)``
    with one ``SupportEstimate`` per input direction.  Raises
    ReconstructionError when fewer than 3 directions are usable or their
    half-planes do not intersect.
    """
    estimates = estimate_supports([compute_samples(trace, omega, taus) for omega in directions])
    used = [(est.omega, est.h_hat) for est in estimates if est.usable]
    if len(used) < 3:
        raise ReconstructionError(f"only {len(used)} usable directions (need 3)")
    hull = convex_hull_from_supports(used, clip_radius=trace.radius, center=trace.center)
    if len(hull) == 0:
        raise ReconstructionError(f"the half-planes of {len(used)} usable directions do not intersect")
    return hull, estimates

