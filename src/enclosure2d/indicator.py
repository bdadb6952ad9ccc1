"""Enclosure-method indicator: growth-rate extraction of the support function.

The indicator pairs the measured Cauchy data on the circle with the
exponentially growing probe:

    J(tau) = int ( du/dnu * v_tau - dv_tau/dnu * u ) dS.

Its magnitude behaves like e^{tau h} / s^{lambda} with s =
sqrt(tau^2 + k^2) + tau and h the support function value in the probe
direction, so log |J e^{-tau t_ref}| is fitted with the three-parameter
model a tau + b log s + c; a + t_ref estimates h and b is a corner-angle
diagnostic (close to -pi/Theta for the extreme corner).

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
evaluates its five perturbed points in one call.

The hull is built from the fitted data alone: every direction is fitted,
and those whose fit stays poor are left out of the half-plane
intersection.  Side normals, where a whole edge attains the support
value, are fitted like any other direction: their two end corners beat
against each other, which is the case the two-exponential fit models.

``compute_samples`` is the one sampling entry point: one probe carries
the whole tau grid of a direction, so each direction is one vectorised
pass over the trace, and every fit reads s from that probe's definition.

All arithmetic is scaled: the probe carries e^{-tau t0} with t0 the
maximum of x.omega over the circle, so every integrand term has modulus
at most O(|u| tau).  The quadrature roundoff floor (machine epsilon times
the L1 mass of the integrand) is tracked per sample; samples below it are
flagged unusable and excluded from fits, and the fits weight the rest by
their distance above it, so a sample just above the floor, whose log
carries an error of order e^{floor - log|J|}, cannot steer the slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError, ReconstructionError, ResolutionError
from .fields import ProbeParams, eval_probe
from .geometry import Direction, convex_hull_from_supports
from .trace import TraceData

__all__ = [
    "IndicatorSamples",
    "SupportEstimate",
    "compute_samples",
    "estimate_support",
    "classify_threshold",
    "reconstruct_hull",
    "required_trace_size",
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
# log-magnitude error of a sample far above its round-off floor; a sample
# near the floor carries the relative error e^{floor - L} on top, and each
# fit weights its residual by 1 / hypot(SIGMA0, e^{floor - L})
SIGMA0 = 3e-3
# bounds of the two-term refine's (dh1, p1, dh2, p2, b)
_LOWER = np.array([-1.0, -3.0, -1.0, -3.0, B_MIN])
_UPPER = np.array([0.5, 3.0, 0.5, 3.0, B_MAX])


def required_trace_size(tau: float, k: float, radius: float) -> int:
    """Minimum trace nodes resolving the probe oscillation: 4 per wavelength."""
    return 4 * math.ceil(math.hypot(tau, k) * radius) + 32


@dataclass(frozen=True)
class IndicatorSamples:
    """Scaled indicator values over a strictly increasing tau grid.

    ``log_noise_floors`` holds each sample's quadrature round-off floor
    on the same scale as ``log_magnitudes``; samples whose floor is -inf
    (noise-free data) all weigh the same in the fit.
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
    """Scaled indicator values and their round-off floors over a tau grid.

    One pass over the trace per direction.  Internally the probe is
    referenced to t0 = max(x.omega) on the circle so the quadrature runs
    on O(1) numbers; the requested t_ref (default: the circle radius)
    enters as an exact affine shift of the log-magnitude afterwards (this
    makes h_hat exactly independent of t_ref).
    """
    taus = np.asarray(taus, float)
    if len(taus) == 0:
        raise DomainError("need at least one tau sample")
    pts = trace.points
    t0 = float(np.max(pts @ omega.vec))
    probe = ProbeParams(omega, taus, trace.k, t_ref=t0)
    tau_max = float(np.max(taus))
    needed = required_trace_size(tau_max, trace.k, trace.radius)
    if trace.n < needed:
        raise ResolutionError(
            f"trace has {trace.n} nodes but tau={tau_max} needs at least {needed}"
        )
    t_ref = float(trace.radius if t_ref is None else t_ref)

    v = eval_probe(probe, pts)
    # einsum, not gradient_factor @ normals.T: it rounds each tau's zeta.nu
    # exactly as a one-tau matvec does
    zeta_dot_nu = np.einsum("nc,tc->tn", trace.normals.astype(complex), probe.gradient_factor)
    integrand = (trace.dudn - zeta_dot_nu * trace.u) * v
    ds = 2 * np.pi * trace.radius / trace.n
    j_scaled = np.sum(integrand, axis=1) * ds
    l1_mass = np.sum(np.abs(integrand), axis=1) * ds

    log_floor_t0 = np.log(np.maximum(l1_mass, 1e-300)) + math.log(np.finfo(float).eps)
    mag = np.abs(j_scaled)
    with np.errstate(divide="ignore"):
        log_mag_t0 = np.log(mag)
    shift = taus * (t0 - t_ref)
    log_mag = log_mag_t0 + shift
    return IndicatorSamples(
        omega=omega,
        t_ref=t_ref,
        taus=taus,
        log_magnitudes=log_mag,
        phases=np.angle(j_scaled),
        usable=np.isfinite(log_mag) & (log_mag_t0 > log_floor_t0 + math.log(NOISE_SNR)),
        k=trace.k,
        log_noise_floors=log_floor_t0 + shift,
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
    """(m, 2, n) columns s^b e^{(dh_j + i p_j) tau} of each (dh1, p1, dh2, p2, b) row."""
    z = rows[:, 0:4:2] + 1j * rows[:, 1:4:2]
    return np.exp(z[:, :, None] * t) * s ** rows[:, 4, None, None]


def _projected_residuals(rows: np.ndarray, t: np.ndarray, s: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """(m, n) residuals basis c - J0, with c the least-squares amplitudes, one per row.

    Each row of ``rows`` is (dh1, p1, dh2, p2, b).  J0 is projected off
    span{s^b e^{z1 tau}, s^b e^{z2 tau}} by a closed-form two-column
    Gram-Schmidt QR with one re-orthogonalisation, vectorised over rows.
    A second column left with norm at most n eps max(|b1|, |b2|) is
    dropped (rank 1), as ``np.linalg.lstsq``'s default rcond does for
    identical columns.
    """
    basis = _two_term_basis(rows, t, s)
    b1, b2 = basis[:, 0], basis[:, 1]
    norms = np.sqrt(np.vecdot(basis, basis).real)
    q1 = b1 / norms[:, :1]
    v = b2 - q1 * np.vecdot(q1, b2)[:, None]
    v -= q1 * np.vecdot(q1, v)[:, None]
    v_norm = np.sqrt(np.vecdot(v, v).real)
    rank2 = v_norm > len(t) * np.finfo(float).eps * norms.max(axis=1)
    q2 = v / np.where(rank2, v_norm, np.inf)[:, None]
    return q1 * np.vecdot(q1, j0)[:, None] + q2 * np.vecdot(q2, j0)[:, None] - j0


def _forward_jacobian(rows_fun, x: np.ndarray, f_x: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of a batched residual map at x.

    ``rows_fun`` maps (m, 5) parameter rows to (m, M) residual rows; all
    five perturbed points go through it in one call.  The steps follow
    ``scipy.optimize.least_squares``' own 2-point rule, sqrt(eps) sign(x)
    max(1, |x|), flipped when x + h would leave [_LOWER, _UPPER] and
    clipped to the far bound when neither side has room, so the solve takes
    the iterates the built-in finite differences would give.
    """
    h = math.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    lower_dist, upper_dist = x - _LOWER, _UPPER - x
    fits = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h = np.where(((x + h < _LOWER) | (x + h > _UPPER)) & fits, -h, h)
    h = np.where(fits, h, np.where(upper_dist >= lower_dist, upper_dist, -lower_dist))
    dx = (x + h) - x
    return ((rows_fun(x + np.diag(h)) - f_x) / dx[:, None]).T


def _two_exponential_refine(t: np.ndarray, L: np.ndarray, phase: np.ndarray, s: np.ndarray, wt: np.ndarray):
    """Variable-projection fit of J = s^b (c1 e^{z1 tau} + c2 e^{z2 tau}).

    Used when two boundary points of nearly equal height beat against
    each other; the heights are the real parts of the exponents and the
    estimate is the larger one among components with non-negligible
    amplitude.  The 26 starting exponents are ranked by their projected
    misfit and one bounded solve runs from the best.  The ranking, each
    residual and each Jacobian (all five forward-difference points) are
    one call of the batched closed-form projection
    ``_projected_residuals``; the final coefficients come from one
    least-squares solve at the solution.  Each sample's residual carries
    its weight ``wt``.  Returns (h, b, log_rms), with h on the same scale
    as the envelope's a, or None if the solve fails.
    """
    # remove the dominant growth so the data is O(1)
    a0 = float(np.polyfit(t, L, 1)[0])
    p0 = float(np.polyfit(t, np.unwrap(phase), 1)[0])
    J0 = np.exp(L - a0 * t + 1j * (np.unwrap(phase) - p0 * t))
    scale = float(np.mean(np.abs(J0)))

    def resid_rows(rows):
        r = _projected_residuals(rows, t, s, J0)
        return np.concatenate([r.real * wt, r.imag * wt], axis=1) / scale

    # least_squares evaluates the residual at x right before it asks for
    # the Jacobian there, so f(x) is reused rather than recomputed
    last = {}

    def resid(x):
        last["x"], last["f"] = x.copy(), resid_rows(x[None])[0]
        return last["f"]

    def jac(x):
        f_x = last["f"] if np.array_equal(x, last["x"]) else resid(x)
        return _forward_jacobian(resid_rows, x, f_x)

    starts = np.array([[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)])
    try:
        x0 = starts[np.argmin(np.sum(resid_rows(starts) ** 2, axis=1))]
        best = least_squares(resid, x0, jac=jac, bounds=(_LOWER, _UPPER), max_nfev=200)
    except (ValueError, np.linalg.LinAlgError):
        return None
    dh1, p1, dh2, p2, b = best.x
    basis = _two_term_basis(best.x[None], t, s)[0].T
    c = np.linalg.lstsq(basis, J0, rcond=None)[0]
    mag = np.abs(basis @ c)
    log_rms = _weighted_rms(np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(J0)), wt)
    amps = np.abs(c)
    heights = [a0 + dh for dh, amp in ((dh1, amps[0]), (dh2, amps[1])) if amp > 1e-3 * amps.max()]
    return max(heights), float(b), log_rms


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
    "none", so the hull drops that direction alone.
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
        )
    t, L, s = taus[mask], samples.log_magnitudes[mask], samples.s[mask]
    wt = _fit_weights(samples, mask)
    far = s >= S_SINGLE_MIN
    if np.count_nonzero(far) < 8:
        far = np.ones(len(t), dtype=bool)
    a, b, rms = _trimmed_envelope_fit(t[far], L[far], s[far], wt[far])
    fit_path = "envelope"
    if rms > TWO_TERM_TRIGGER or b <= B_MIN:
        refined = _two_exponential_refine(t, L, samples.phases[mask], s, wt)
        if refined is not None and refined[2] < rms:
            (a, b, rms), fit_path = refined, "two_term"
    return SupportEstimate(
        omega=samples.omega,
        h_hat=a + samples.t_ref,
        log_s_coefficient=b,
        residual_rms=rms,
        n_used=n_used,
        usable=rms < RMS_USABLE_THRESHOLD,
        fit_path=fit_path,
    )


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
    estimates = [estimate_support(compute_samples(trace, omega, taus)) for omega in directions]
    used = [(est.omega, est.h_hat) for est in estimates if est.usable]
    if len(used) < 3:
        raise ReconstructionError(f"only {len(used)} usable directions (need 3)")
    hull = convex_hull_from_supports(used, clip_radius=trace.radius, center=trace.center)
    if len(hull) == 0:
        raise ReconstructionError(f"the half-planes of {len(used)} usable directions do not intersect")
    return hull, estimates

