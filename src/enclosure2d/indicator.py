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
whose interference nulls wreck a plain least-squares slope.  First, the
log s exponent is profiled over its physically admissible window (convex
corners give -pi/Theta in (-1, -1/2); flat-side endpoint contributions
give -1) with asymmetric trimming that discards downward residual
spikes, recovering the clean upper envelope.  Second, when the trimmed
residual stays large, a two-exponential complex model is fitted to the
full (magnitude and phase) indicator by variable projection, and the
height of the dominant exponent is used instead.

All arithmetic is scaled: the probe carries e^{-tau t0} with t0 the
maximum of x.omega over the circle, so every integrand term has modulus
at most O(|u| tau).  The quadrature roundoff floor (machine epsilon times
the L1 mass of the integrand) is tracked per sample; samples below it are
flagged unusable and excluded from fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError, ReconstructionError, ResolutionError
from .fields import ModulatedPlane, ProbeParams, eval_probe
from .forward import build_mesh, eval_total, solve_scattering
from .geometry import Direction, convex_hull_from_supports, is_regular
from .trace import TraceData

__all__ = [
    "IndicatorPoint",
    "IndicatorSamples",
    "SupportEstimate",
    "compute_indicator",
    "compute_samples",
    "estimate_support",
    "classify_threshold",
    "reconstruct_hull",
    "modulated_nonvanishing_check",
    "required_trace_size",
]

UNDERFLOW_LOG = math.log(1e-290)
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
# residual exceeds the trigger, the two-exponential refinement takes over
S_SINGLE_MIN = 16.0
TWO_TERM_TRIGGER = 0.01


def required_trace_size(tau: float, k: float, radius: float) -> int:
    """Minimum trace nodes resolving the probe oscillation: 4 per wavelength."""
    return 4 * math.ceil(math.hypot(tau, k) * radius) + 32


@dataclass(frozen=True)
class IndicatorPoint:
    log_magnitude: float  # log |J e^{-tau t_ref}|
    phase: float
    log_noise_floor: float
    usable: bool


def compute_indicator(trace: TraceData, omega: Direction, tau: float, t_ref: float | None = None) -> IndicatorPoint:
    """One scaled indicator value from the Cauchy data.

    Internally the probe is referenced to t0 = max(x.omega) on the circle
    so the quadrature runs on O(1) numbers; the requested t_ref enters as
    an exact affine shift of the log-magnitude afterwards (this makes
    h_hat exactly independent of t_ref).
    """
    pts = trace.points
    t0 = float(np.max(pts @ omega.vec))
    probe = ProbeParams(omega, tau, trace.k, t_ref=t0)
    needed = required_trace_size(tau, trace.k, trace.radius)
    if trace.n < needed:
        raise ResolutionError(
            f"trace has {trace.n} nodes but tau={tau} needs at least {needed}"
        )
    if t_ref is None:
        t_ref = trace.radius

    v = eval_probe(probe, pts)
    zeta_dot_nu = trace.normals @ probe.gradient_factor
    integrand = (trace.dudn - zeta_dot_nu * trace.u) * v
    ds = 2 * np.pi * trace.radius / trace.n
    j_scaled = np.sum(integrand) * ds
    l1_mass = float(np.sum(np.abs(integrand)) * ds)

    log_floor_t0 = math.log(max(l1_mass, 1e-300)) + math.log(np.finfo(float).eps)
    mag = abs(j_scaled)
    log_mag_t0 = math.log(mag) if mag > 0 else -math.inf
    shift = tau * (t0 - t_ref)
    log_mag = log_mag_t0 + shift
    usable = (
        np.isfinite(log_mag)
        and log_mag_t0 > log_floor_t0 + math.log(NOISE_SNR)
        and log_mag > UNDERFLOW_LOG
    )
    return IndicatorPoint(
        log_magnitude=log_mag,
        phase=float(np.angle(j_scaled)),
        log_noise_floor=log_floor_t0 + shift,
        usable=bool(usable),
    )


@dataclass(frozen=True)
class IndicatorSamples:
    """Scaled indicator values over a strictly increasing tau grid."""

    omega: Direction
    t_ref: float
    taus: np.ndarray
    log_magnitudes: np.ndarray
    phases: np.ndarray
    usable: np.ndarray
    k: float
    source: str = ""

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 8:
            raise DomainError("need at least 8 tau samples")
        if np.any(np.diff(taus) <= 0) or taus[0] <= 0:
            raise DomainError("tau grid must be positive and strictly increasing")

    @property
    def s(self) -> np.ndarray:
        return np.hypot(self.taus, self.k) + self.taus


def compute_samples(trace: TraceData, omega: Direction, taus, t_ref: float | None = None, source: str = "") -> IndicatorSamples:
    if t_ref is None:
        t_ref = trace.radius
    pts = [compute_indicator(trace, omega, float(t), t_ref) for t in taus]
    return IndicatorSamples(
        omega=omega,
        t_ref=float(t_ref),
        taus=np.asarray(taus, float),
        log_magnitudes=np.array([p.log_magnitude for p in pts]),
        phases=np.array([p.phase for p in pts]),
        usable=np.array([p.usable for p in pts]),
        k=trace.k,
        source=source,
    )


@dataclass(frozen=True)
class SupportEstimate:
    omega: Direction
    h_hat: float
    slope: float           # a in the fit model
    log_s_coefficient: float  # b; compare against -pi/Theta
    offset: float          # c
    residual_rms: float
    n_used: int
    regularity_margin: float
    usable: bool


def _trimmed_envelope_fit(t: np.ndarray, L: np.ndarray, k: float):
    """Profile b over its admissible window with asymmetric trimming.

    Interference between same-height boundary contributions only pushes
    log |J| *down* (toward the nulls of the beat pattern), so residuals
    far below the model are discarded while the upper envelope is kept.
    For clean single-corner data no point is trimmed and the fit reduces
    to plain least squares.
    """
    ls = np.log(np.hypot(t, k) + t)
    ones = np.ones_like(t)
    best = None
    for b in np.linspace(B_MIN, B_MAX, 27):
        y = L - b * ls
        design = np.column_stack([t, ones])
        w = np.ones(len(y), dtype=bool)
        for _ in range(6):
            coeffs, *_ = np.linalg.lstsq(design[w], y[w], rcond=None)
            r = y - design @ coeffs
            pos = r[w & (r > 0)]
            sigma = max(float(np.sqrt(np.mean(pos**2))) if len(pos) else 1e-3, 1e-3)
            w_new = r > -TRIM_SIGMA * sigma
            if np.count_nonzero(w_new) < 6:
                w = np.ones(len(y), dtype=bool)
                break
            if np.array_equal(w_new, w):
                break
            w = w_new
        coeffs, *_ = np.linalg.lstsq(design[w], y[w], rcond=None)
        rms = float(np.sqrt(np.mean((y[w] - design[w] @ coeffs) ** 2)))
        if best is None or rms < best[0]:
            best = (rms, float(coeffs[0]), b, float(coeffs[1]), w.copy())
    rms, a, b, c, w = best
    # continuous release: refit b on the kept points and accept it while
    # it stays near the admissible window (exact recovery on clean data)
    design3 = np.column_stack([t, ls, ones])[w]
    coeffs3, _, rank, _ = np.linalg.lstsq(design3, L[w], rcond=None)
    if rank == 3 and B_MIN - 0.2 <= coeffs3[1] <= B_MAX + 0.2:
        resid = L[w] - design3 @ coeffs3
        a, b, c = (float(v) for v in coeffs3)
        rms = float(np.sqrt(np.mean(resid**2)))
    return a, b, c, rms, int(np.count_nonzero(w))


def _two_exponential_refine(t: np.ndarray, L: np.ndarray, phase: np.ndarray, k: float):
    """Variable-projection fit of J = s^b (c1 e^{z1 tau} + c2 e^{z2 tau}).

    Used when two boundary points of nearly equal height beat against
    each other; the heights are the real parts of the exponents and the
    estimate is the larger one among components with non-negligible
    amplitude.  Returns (a, b, offset, log_rms) or None if the nonlinear
    solver fails to beat a diagonal guess.
    """
    s = np.hypot(t, k) + t
    # remove the dominant growth so the data is O(1)
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
        return np.concatenate([r.real, r.imag]) / scale

    best = None
    for dp in np.linspace(-1.2, 1.2, 13):
        for ddh in (0.0, -0.15):
            try:
                res = least_squares(
                    resid,
                    [0.0, 0.0, ddh, dp, -0.75],
                    bounds=([-1, -3, -1, -3, B_MIN], [0.5, 3, 0.5, 3, B_MAX]),
                    max_nfev=200,
                )
            except (ValueError, np.linalg.LinAlgError):
                continue
            if best is None or res.cost < best.cost:
                best = res
    if best is None:
        return None
    dh1, p1, dh2, p2, b = best.x
    r, c = projected(best.x)
    model = J0 - r
    mag = np.abs(model)
    log_rms = float(np.sqrt(np.mean((np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(J0))) ** 2)))
    amps = np.abs(c)
    heights = [a0 + dh for dh, amp in ((dh1, amps[0]), (dh2, amps[1])) if amp > 1e-3 * amps.max()]
    idx = int(np.argmax(amps))
    return max(heights), float(b), float(np.log(max(amps[idx], 1e-300))), log_rms


def estimate_support(samples: IndicatorSamples, regularity_margin: float = np.inf) -> SupportEstimate:
    """Robust fit of log|J_hat| = a tau + b log s + c; h_hat = a + t_ref.

    The b log s term absorbs the leading s^{-lambda} decay of the
    indicator; b is profiled over the physically admissible exponent
    window with asymmetric trimming, and a two-exponential complex fit
    takes over when interference between equal-height boundary points
    leaves the trimmed residual large.
    """
    taus = samples.taus
    if taus[-1] / taus[0] < 3.0:
        raise DomainError("tau grid must span at least a factor of 3")
    mask = samples.usable & np.isfinite(samples.log_magnitudes)
    n_used = int(np.count_nonzero(mask))
    if n_used < 8:
        raise ReconstructionError(
            f"only {n_used} usable indicator samples (need 8)"
        )
    t, L = taus[mask], samples.log_magnitudes[mask]
    far = (np.hypot(t, samples.k) + t) >= S_SINGLE_MIN
    if np.count_nonzero(far) >= 8:
        a, b, c, rms, _ = _trimmed_envelope_fit(t[far], L[far], samples.k)
    else:
        a, b, c, rms, _ = _trimmed_envelope_fit(t, L, samples.k)
    if rms > TWO_TERM_TRIGGER:
        refined = _two_exponential_refine(t, L, samples.phases[mask], samples.k)
        if refined is not None and refined[3] < rms:
            a, b, c, rms = refined
    return SupportEstimate(
        omega=samples.omega,
        h_hat=a + samples.t_ref,
        slope=a,
        log_s_coefficient=b,
        offset=c,
        residual_rms=rms,
        n_used=n_used,
        regularity_margin=regularity_margin,
        usable=rms < RMS_USABLE_THRESHOLD and regularity_margin > 0,
    )


def classify_threshold(samples: IndicatorSamples, t: float, tol_slope: float = SLOPE_TOL) -> str:
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
    if slope < -tol_slope:
        return "decays"
    if slope > tol_slope:
        return "blows_up"
    return "inconclusive"


def reconstruct_hull(
    trace: TraceData,
    obstacles,
    directions,
    taus,
    t_ref: float | None = None,
    tie_tol: float | None = None,
):
    """Support-function sweep over a direction grid plus half-plane hull.

    Non-regular directions (support line touching a whole side) are
    filtered out, honoring the regularity hypothesis of the support
    formula.  Returns ``(hull_vertices, estimates)`` where ``estimates``
    has one entry per input direction (``None`` for filtered ones).
    """
    estimates = []
    used = []
    for omega in directions:
        regular, _, margin = is_regular(obstacles, omega, tie_tol)
        if not regular:
            estimates.append(None)
            continue
        samples = compute_samples(trace, omega, taus, t_ref)
        est = estimate_support(samples, regularity_margin=margin)
        estimates.append(est)
        if est.usable:
            used.append((omega, est.h_hat))
    if len(used) < 3:
        raise ReconstructionError(f"only {len(used)} usable directions (need 3)")
    hull = convex_hull_from_supports(used, clip_radius=trace.radius, center=trace.center)
    return hull, estimates


def modulated_nonvanishing_check(scene, x0, d: Direction, nodes_per_edge: int = 64, p_grade: float = 4.0):
    """Total modulated field (1.3)-style value at the scene's source point.

    Solves the scattering problem for the linearly modulated plane field
    anchored at the vertex ``x0`` and evaluates the total field at
    ``scene.source_y``; a nonzero value verifies the hypothesis under
    which the point-source support formula holds without the far-source
    condition.
    """
    x0 = np.asarray(x0, dtype=float)
    vertices = scene.all_vertices
    if len(vertices) and np.min(np.linalg.norm(vertices - x0, axis=1)) > 1e-9:
        raise DomainError("x0 must be a vertex of the scene")
    incident = ModulatedPlane(x0=x0, d=d)
    mesh = build_mesh(scene, nodes_per_edge=nodes_per_edge, p_grade=p_grade)
    sol = solve_scattering(scene, incident, mesh)
    return eval_total(sol, scene.source_y)
