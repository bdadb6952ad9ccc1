"""Enclosure-method indicator: growth-rate extraction of the support function.

The indicator pairs the total field on the circle with the exponentially
growing probe v_tau:

    J(tau) = int ( du/dnu * v_tau - dv_tau/dnu * u ) dS.

It needs only Dirichlet data and the known incident field: by Green's
identity the incident part, regular in the disc, drops out, and one mode
at a time the Wronskian of J_n and H_n turns the rest into one sum over
the modes a_n of u - u_inc (``trace.circle_modes``).  All of that sum
but the direction, the (T x N) factor e^{n eta - tau R} / H_n(kR) with
its norm ||g(tau)||_2, is the trace's ``probe_table``, built once per tau
grid, so all directions take one (T x N) by (N x directions) product with
the stacked a_n e^{i n beta_j}.
The table is the probe's one definition over the grid, and ``check_tau_grid``
holds every rule a grid must meet; it runs before any table is built.
Its magnitude behaves like e^{tau h} / s^{lambda} with
s = sqrt(tau^2 + k^2) + tau (the table's ``s``) and h
the support function value in the probe direction, so log |J e^{-tau R}|,
R the circle's radius, is fitted with the three-parameter model
a tau + b log s + c; a + R estimates h and b is a corner-angle diagnostic
(close to -pi/Theta for the extreme corner).  Each sample carries a
noise floor, the rms that the trace's tail level delta (noise or
round-off in every mode) gives J; samples near it are unusable, and the
fits weight the rest by their distance above it, so a sample just above
the floor, whose log carries an error of order e^{floor - log|J|},
cannot steer the slope.

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
variable projection, by one batched projected Levenberg-Marquardt solve
for all of ``estimate_supports``' directions, and the height of the
dominant exponent is used instead.  Both fits run as array operations
over all directions: the envelope's trimming passes over masked
(directions x T) arrays, each row with its own stop rules, and the
refine's set-up (unwrap, slopes, weights) and final amplitudes over the
padded problems.

The hull is built from the fitted data alone: every direction is fitted
in one ``estimate_supports`` call, and those whose fit stays poor are
left out of the half-plane intersection.  Side normals, where a whole
edge attains the support value, are fitted like any other direction:
their two end corners beat against each other, which is the case the
two-exponential fit models.

``sample_directions`` is the one sampling entry point, which returns every
direction over one tau grid as one ``IndicatorSamples`` batch, and
``compute_samples`` its batch of one; ``estimate_supports`` is the one fit
entry point, and ``estimate_support`` its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReconstructionError
from .geometry import Direction, convex_hull_from_supports
from .trace import TraceData

__all__ = [
    "IndicatorSamples",
    "SupportEstimate",
    "check_tau_grid",
    "sample_directions",
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
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# the refine's steps are measured in the start grid's spacing, 0.15 in
# height and 0.2 in phase, and b's in its window, which the grid's one b
# spans; a refine stops when its next step is under _XTOL of these units
# (1.5e-7 in a height), or after MAX_ROUNDS evaluations
_STEP_UNITS = np.array([0.15, 0.2, 0.15, 0.2, B_MAX - B_MIN])
_XTOL = 1e-6
MAX_ROUNDS = 200
# log s of padded samples: s^b = e^{b _PAD_LOG_S} underflows to exactly 0
# for every b <= B_MAX, and tau = 0 there keeps every Jacobian term finite
_PAD_LOG_S = 1e4


def check_tau_grid(taus) -> np.ndarray:
    """``taus`` as a float array, or DomainError unless it is a tau grid.

    A tau grid is 1-D, finite, positive and strictly increasing, with at
    least 8 samples (the fewest a fit reads) spanning a factor of 3 or more.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or len(taus) < 8:
        raise DomainError(f"need a 1-D grid of at least 8 tau samples (got shape {taus.shape})")
    if not (np.isfinite(taus) & (taus > 0)).all() or (taus[1:] <= taus[:-1]).any():
        raise DomainError("tau grid must be finite, positive and strictly increasing")
    if taus[-1] / taus[0] < 3.0:
        raise DomainError("tau grid must span at least a factor of 3")
    return taus


@dataclass(frozen=True)
class IndicatorSamples:
    """Scaled indicator values of D directions over one tau grid that ``check_tau_grid`` admits, as one batch.

    ``taus`` and ``s``, the probe's sqrt(tau^2 + k^2) + tau, are (T,); the
    samples of direction ``omegas[i]`` are row i of the (D, T) arrays.
    Their log magnitudes are those of J e^{-tau reference_height}, so a
    fitted slope a gives h = a + reference_height.  ``log_noise_floors``
    holds each sample's noise floor, the rms that the trace's tail level
    gives J, on the scale of ``log_magnitudes``; samples whose floor is
    -inf (noise-free data) all weigh the same in the fit.
    """

    omegas: tuple[Direction, ...]
    taus: np.ndarray
    s: np.ndarray
    log_magnitudes: np.ndarray
    phases: np.ndarray
    usable: np.ndarray
    log_noise_floors: np.ndarray
    reference_height: float

    def __post_init__(self):
        taus = check_tau_grid(self.taus)
        object.__setattr__(self, "taus", taus)
        shapes = {np.shape(v) for v in (self.log_magnitudes, self.phases, self.usable, self.log_noise_floors)}
        if np.shape(self.s) != taus.shape or shapes != {(len(self.omegas), len(taus))}:
            raise DomainError(f"need s of shape {taus.shape} and samples of shape {(len(self.omegas), len(taus))}")


def sample_directions(trace: TraceData, directions, taus) -> IndicatorSamples:
    """Scaled indicator values and their noise floors over a tau grid, every direction in one batch.

    With a_n the modes, eta = asinh(tau/k), kappa = sqrt(tau^2 + k^2), R
    the circle's radius and c its centre, J e^{-tau R} is
    4i e^{tau c.omega + i kappa c.omega_perp} sum_n a_n e^{n eta - tau R} e^{i n beta};
    each g_n = e^{n eta - tau R} / H_n(kR) is formed in exponent arithmetic.
    Everything but the direction is the trace's ``probe_table``, built once
    per tau grid (ResolutionError for a trace of fewer than 2 kappa R nodes
    at the largest tau), so every direction's series comes from one (T x N)
    by (N x directions) product with the stacked a_n e^{i n beta_j}.  If
    every w_n carries independent noise of the tail level delta, J has rms
    4 delta ||g||_2: that is the floor, and samples less than NOISE_SNR
    times above it are unusable.  The batch's reference height is R.  The
    grid is checked by ``check_tau_grid`` before the table is looked up.
    """
    taus = check_tau_grid(taus)
    table = trace.probe_table(taus)

    directions = tuple(directions)
    angle, along, across = np.array([(omega.angle, trace.center @ omega.vec, trace.center @ omega.perp)
                                     for omega in directions]).reshape(-1, 3).T
    modes = trace.modes
    turns = np.exp(np.multiply.outer(modes.orders, 1j * angle))
    series = np.ascontiguousarray((table.scale @ (modes.a[:, None] * turns)).T)  # (directions, T)
    shift = np.multiply.outer(along, taus)
    carrier = np.exp(1j * np.multiply.outer(across, table.kappa))
    with np.errstate(divide="ignore"):
        log_mag = np.log(4 * np.abs(series)) + shift
        log_floor = np.log(4 * modes.tail * table.g_norm) + shift
    phases = np.angle(1j * series * carrier)
    usable = np.isfinite(log_mag) & (log_mag > log_floor + math.log(NOISE_SNR))
    return IndicatorSamples(omegas=directions, taus=taus, s=table.s, log_magnitudes=log_mag, phases=phases,
                            usable=usable, log_noise_floors=log_floor, reference_height=trace.radius)


def compute_samples(trace: TraceData, omega: Direction, taus) -> IndicatorSamples:
    """The samples of one direction: ``sample_directions`` for ``[omega]``."""
    return sample_directions(trace, [omega], taus)


def _check_one_direction(samples: IndicatorSamples) -> None:
    if len(samples.omegas) != 1:
        raise DomainError(f"need a batch of one direction (got {len(samples.omegas)})")


@dataclass(frozen=True)
class SupportEstimate:
    omega: Direction
    h_hat: float
    log_s_coefficient: float  # b; compare against -pi/Theta
    residual_rms: float
    n_used: int
    usable: bool
    fit_path: str  # "envelope" or "two_term": the fit whose h_hat is reported; "none" below 8 usable samples


def _envelope_fits(x: np.ndarray, q: np.ndarray):
    """One weighted fit of L = a tau + b log s + c per row, b held in [B_MIN, B_MAX]: (a, b, residuals).

    ``x`` (k, 3, T) holds each row's tau, log s and L, and ``q`` (k, T) its
    squared weights, zero off the samples fitted.  From the weighted means
    and the centred (3 x 3) moments, b = (S_tt S_sL - S_ts S_tL) / (S_tt S_ss - S_ts^2),
    clamped to its window, and a = (S_tL - b S_ts) / S_tt, the least-squares
    a for that b, whether or not it was clamped.  Residuals L - a tau -
    b log s - c cover every sample of the row.
    """
    xc = x - np.matmul(x, q[:, :, None]) / q.sum(axis=1)[:, None, None]
    m = np.matmul(xc * q[:, None], xc.swapaxes(1, 2))
    stt, sts, stl, sss, ssl = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2], m[:, 1, 1], m[:, 1, 2]
    b = np.minimum(np.maximum((stt * ssl - sts * stl) / (stt * sss - sts * sts), B_MIN), B_MAX)
    a = (stl - b * sts) / stt
    return a, b, xc[:, 2] - a[:, None] * xc[:, 0] - b[:, None] * xc[:, 1]


def _trimmed_envelopes(x: np.ndarray, q: np.ndarray, far: np.ndarray):
    """Each row's weighted fit of a tau + b log s + c with asymmetric trimming: (a, b, rms).

    Interference between same-height boundary contributions only pushes
    log |J| *down* (toward the nulls of the beat pattern), so residuals
    more than TRIM_SIGMA sigma below the model are discarded, sigma the
    weighted rms of the kept positive residuals, while the upper envelope
    is kept.  Every row starts from its samples ``far`` and keeps its own
    stop rules: a pass that trims nothing new ends it with that pass's fit;
    a pass that would keep fewer than 6 samples sends it back to all of
    ``far`` for one final fit, and a sixth pass that still trims is
    followed by one final fit on what it kept.  Each pass is one ``_envelope_fits`` call over the rows still fitting,
    final fits included, so there are at most 7 calls whatever the row
    count.  b stays in its admissible window in every pass.  For clean
    single-corner data no point is trimmed and the fit reduces to weighted
    least squares with the squared sample weights ``q``.
    """
    a, b, rms = np.empty((3, len(x)))
    rows, kept, final = np.arange(len(x)), far, np.zeros(len(x), dtype=bool)
    for n_pass in range(7):
        qk = q * kept
        a_pass, b_pass, r = _envelope_fits(x, qk)
        qp = qk * (r > 0)
        sigma = np.maximum(np.sqrt((qp * r * r).sum(axis=1) / np.maximum(qp.sum(axis=1), _TINY)), 1e-3)
        trimmed = far & (r > -TRIM_SIGMA * sigma[:, None])
        few = trimmed.sum(axis=1) < 6
        # a pass that trims nothing new has already fitted kept: it ends its row
        go = ~final & (few | (trimmed != kept).any(axis=1))
        if not go.all():
            stop, done = ~go, rows[~go]
            a[done], b[done] = a_pass[stop], b_pass[stop]
            rms[done] = np.sqrt((qk[stop] * r[stop] ** 2).sum(axis=1) / qk[stop].sum(axis=1))
            if not go.any():
                break
            rows, x, q, far, kept, trimmed, few, final = (
                v[go] for v in (rows, x, q, far, kept, trimmed, few, final))
        kept = np.where(few[:, None], far, trimmed)
        final = few | (n_pass == 5)
    return a, b, rms


def _two_term_basis(rows: np.ndarray, t: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """(..., 2, n) columns e^{(dh_j + i p_j) tau + b log s} of each (dh1, p1, dh2, p2, b) row.

    ``t`` and ``log_s`` are one grid (n,) or one grid per row, broadcast
    against the rows' leading axes.
    """
    z = rows[..., :4].view(complex)  # each (dh_j, p_j) pair read as dh_j + i p_j
    return np.exp(z[..., None] * t[..., None, :] + rows[..., 4, None, None] * log_s[..., None, :])


def _two_column_qr(basis: np.ndarray):
    """Q (..., 2, n) and R's r11, r12, r22 of each two-column ``basis``.

    A closed-form Gram-Schmidt QR with one re-orthogonalisation,
    vectorised over the leading axes.  A second column left with norm at
    most n eps max(|b1|, |b2|) is dropped (rank 1), as ``np.linalg.lstsq``'s
    default rcond does for identical columns: its q2 is zero and r22 inf.
    """
    b1, b2 = basis[..., 0, :], basis[..., 1, :]
    norms = np.sqrt(np.vecdot(basis, basis).real)
    q = np.empty_like(basis)
    q1 = np.divide(b1, norms[..., :1], out=q[..., 0, :])
    r12 = np.vecdot(q1, b2)
    v = b2 - q1 * r12[..., None]
    again = np.vecdot(q1, v)
    v -= q1 * again[..., None]
    r22 = np.sqrt(np.vecdot(v, v).real)
    r22 = np.where(r22 > basis.shape[-1] * _EPS * np.maximum(norms[..., 0], norms[..., 1]), r22, np.inf)
    np.divide(v, r22[..., None], out=q[..., 1, :])
    return q, norms[..., 0], r12 + again, r22


def _projected_residuals(rows: np.ndarray, t: np.ndarray, log_s: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """(..., n) residuals B c - J0 of each (dh1, p1, dh2, p2, b) row, c the least-squares amplitudes.

    ``t``, ``log_s`` and ``j0`` broadcast against the rows' leading axes
    as in ``_two_term_basis``; J0 is projected by ``_two_column_qr``.
    """
    q, *_ = _two_column_qr(_two_term_basis(rows, t, log_s))
    return np.matmul(np.vecdot(q, j0[..., None, :])[..., None, :], q)[..., 0, :] - j0


def _residuals_and_jacobians(rows: np.ndarray, t: np.ndarray, log_s: np.ndarray, j0: np.ndarray, w: np.ndarray):
    """Weighted residuals w rho (k, n) and their Jacobians (k, 5, n) at rows (k, 5), in one pass.

    rho = B c - J0 is ``_projected_residuals``'.  Its Jacobian is Golub and
    Pereyra's closed form (SIAM J. Numer. Anal. 10(2), 1973): d rho =
    P_perp (dB c) - U (dB^H rho), U = (B^+)^H = Q R^-H the dual basis.
    dB is column j times tau for dh_j, i times that for p_j, and both
    columns times log s for b, so with X_j = P_perp (tau b_j c_j) and
    Y_j = u_j (tau b_j)^H rho, dh_j's column is X_j - Y_j and p_j's
    i (X_j + Y_j).  At rank 1 the amplitude sits on the first column, so
    dh2 and p2 get zero columns.
    """
    k, n = rows.shape[0], t.shape[-1]
    basis = _two_term_basis(rows, t, log_s)
    q, r11, r12, r22 = _two_column_qr(basis)
    u = np.empty_like(q)
    np.divide(q[:, 1], r22[:, None], out=u[:, 1])
    np.divide(q[:, 0] - u[:, 1] * r12.conj()[:, None], r11[:, None], out=u[:, 0])
    rho = np.matmul(np.vecdot(q, j0[:, None])[:, None], q)[:, 0] - j0
    tb = basis * t[:, None]
    d = np.empty((k, 3, n), dtype=complex)  # dB c of dh1, dh2 and b
    np.multiply(tb, np.vecdot(u, j0[:, None])[:, :, None], out=d[:, :2])
    np.multiply(log_s, rho + j0, out=d[:, 2])
    v = np.zeros((k, 3, 2), dtype=complex)  # dB^H rho of dh1, dh2 and b
    v[:, [0, 1], [0, 1]] = np.vecdot(tb, rho[:, None])
    v[:, 2] = np.vecdot(basis, (log_s * rho)[:, None])
    x = d - np.matmul(np.vecdot(q[:, None], d[:, :, None]), q)
    y = np.matmul(v, u)
    jac = np.empty((k, 5, n), dtype=complex)
    np.subtract(x, y, out=jac[:, ::2])
    np.multiply(x[:, :2] + y[:, :2], 1j, out=jac[:, 1::2])
    jac *= w[:, None]
    return rho * w, jac


def _trust_region_steps(A: np.ndarray, g: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Steps p of (A + lam I) p = -g held to |p| <= radius, one per row, through A's eigendecomposition.

    lam = 0 when the Gauss-Newton step fits inside 1.1 radius; else one of
    Hebden's Newton steps on 1 / |p| moves lam from 0 toward the root of
    |p(lam)| = radius (More, Lect. Notes Math. 630, 1978), and a step
    still too long is scaled back.  Eigenvalues are floored at 5 eps of
    the largest, so a rank-deficient A takes the pseudo-inverse's step.
    """
    e, V = np.linalg.eigh(A)
    e = np.maximum(e, 5 * _EPS * e[:, -1:] + _TINY)
    u = np.matmul(g[:, None], V)[:, 0]
    p = u / e
    norm = np.sqrt(np.vecdot(p, p))
    long = norm > 1.1 * radius
    if long.any():
        long = slice(None) if long.all() else long
        e, u, r, pl, norm = e[long], u[long], radius[long], p[long], norm[long]
        pl = u / (e + ((norm - r) / r * norm**2 / np.vecdot(pl, pl / e))[:, None])
        p[long] = pl * np.minimum(1.0, r / np.sqrt(np.vecdot(pl, pl)))[:, None]
    return -np.matmul(V, p[:, :, None])[:, :, 0]


def _levenberg_marquardt(evaluate, x: np.ndarray):
    """Minimise 0.5 |f_i|^2 over the box [_LOWER, _UPPER] from each start x_i, all problems at once.

    ``evaluate(x, rows)`` gives the weighted residuals (k, n) and Jacobians
    (k, 5, n) at the rows x (k, 5) of the problems ``rows`` (an index
    array, or a full slice for all); each round is one such call over the
    problems still running.  Steps in ``_STEP_UNITS`` are held to a trust
    radius that starts at 0.5, the ball inscribed in the ranked start's
    cell of the start grid, and follows More's rule: a quarter of the step
    after a gain under a quarter of the predicted one, double after a gain
    over three quarters at the radius.  Components on a bound whose
    gradient points outward are frozen, the rest of the step is clamped.
    A step that lowers the cost is accepted; a non-finite trial is not.
    A problem stops, unevaluated, when its next step, clamped, is under
    ``_XTOL``, or after ``MAX_ROUNDS`` rounds.  Returns the solutions
    (P, 5) and a mask (P,), False where the start's residual is not
    finite: that problem alone is dropped at once.
    """
    solution = x.copy()
    f, J = evaluate(x, slice(None))
    cost = 0.5 * np.vecdot(f, f).real
    ok = np.isfinite(cost)
    rows = np.flatnonzero(ok)
    if not len(rows):
        return solution, ok
    x, f, J, cost = x[rows], f[rows], J[rows], cost[rows]
    radius = np.full(len(rows), 0.5)
    for _ in range(MAX_ROUNDS):
        Js = J * _STEP_UNITS[:, None]
        A, g = np.matmul(Js.conj(), Js.swapaxes(1, 2)).real, np.vecdot(Js, f[:, None]).real
        frozen = np.where(g > 0, x <= _LOWER, x >= _UPPER)
        if frozen.any():
            A = A * ~(frozen[:, :, None] | frozen[:, None, :]) + np.eye(5) * frozen[:, None, :]
            g = g * ~frozen
        x_new = np.minimum(np.maximum(x + _trust_region_steps(A, g, radius) * _STEP_UNITS, _LOWER), _UPPER)
        step = (x_new - x) / _STEP_UNITS
        step_norm = np.sqrt(np.vecdot(step, step))
        done = step_norm <= _XTOL
        if done.any():
            solution[rows[done]] = x[done]
            rows, x, f, J, cost, radius, A, g, step, step_norm, x_new = (
                a[~done] for a in (rows, x, f, J, cost, radius, A, g, step, step_norm, x_new))
            if not len(rows):
                break
        predicted = -np.vecdot(step, g + 0.5 * np.matmul(A, step[:, :, None])[:, :, 0])
        f_new, J_new = evaluate(x_new, rows if len(rows) < len(solution) else slice(None))
        cost_new = 0.5 * np.vecdot(f_new, f_new).real
        reduction = cost - cost_new  # NaN or -inf for a non-finite trial, which every test below rejects
        ratio = np.divide(reduction, predicted, out=np.full(len(rows), -1.0), where=predicted > 0)
        radius = np.where(ratio >= 0.25, np.where((ratio > 0.75) & (step_norm > 0.95 * radius), 2.0 * radius, radius),
                          0.25 * step_norm)
        accepted = reduction > 0
        if accepted.all():
            x, f, J, cost = x_new, f_new, J_new, cost_new
        elif accepted.any():
            x[accepted], f[accepted], J[accepted], cost[accepted] = (
                x_new[accepted], f_new[accepted], J_new[accepted], cost_new[accepted])
    solution[rows] = x
    return solution, ok


_STARTS = np.array([[0.0, 0.0, ddh, dp, -0.75] for dp in np.linspace(-1.2, 1.2, 13) for ddh in (0.0, -0.15)])


def _two_exponential_refines(t, L, phase, s, wt, used):
    """Variable-projection fits of J = s^b (c1 e^{z1 tau} + c2 e^{z2 tau}), one per row.

    Each row of (t, L, phase, s, wt) holds one direction's samples, and
    ``used`` marks those the fit reads.  Used when two boundary points of
    nearly equal height beat against each other; the heights are the real
    parts of the exponents and the estimate is the larger one among
    components with non-negligible amplitude.  The set-up is one pass over
    all rows: each row's used samples move to its front, padded to the
    longest with tau = 0, log s = _PAD_LOG_S (which zeroes the basis there,
    as b < 0) and J0 = wt = 0, so padding adds exact zeros; then the phase
    unwrap, the least-squares slopes a0 of L and p0 of the phase, which
    divide the dominant growth out of J0, and the weights.  Every row's 26
    starting exponents are ranked by their projected misfit in one
    ``_projected_residuals`` call, and one bounded solve runs from each best
    start: all in one ``_levenberg_marquardt`` loop, whose rounds are one
    ``_residuals_and_jacobians`` call each.  Each sample's residual carries
    its weight ``wt``.  The final amplitudes come from one ``_two_column_qr``
    of the bases at the solutions.  Returns the arrays (h, b, log_rms),
    with h on the same scale as the envelope's a and log_rms NaN where the
    solve failed.
    """
    count = used.sum(axis=1)
    order = np.argsort(~used, axis=1, kind="stable")[:, : count.max()]
    used = np.take_along_axis(used, order, axis=1)
    packed = np.take_along_axis(np.stack([t, L, phase, s, wt]), order[None], axis=2)
    T, L, phase, s, wt = np.where(used, packed, np.array([0.0, 0.0, 0.0, 1.0, 0.0])[:, None, None])
    # remove the dominant growth so the data is O(1)
    phase = np.unwrap(phase, axis=1)
    tc = np.where(used, T - (T.sum(axis=1) / count)[:, None], 0.0)
    a0, p0 = np.vecdot(tc, np.stack([L, phase])) / np.vecdot(tc, tc)
    LOG_S = np.where(used, np.log(s), _PAD_LOG_S)
    J0 = np.where(used, np.exp((L + 1j * phase) - (a0 + 1j * p0)[:, None] * T), 0.0)
    W = wt / (np.abs(J0).sum(axis=1) / count)[:, None]

    starts = np.broadcast_to(_STARTS, (len(T), *_STARTS.shape))
    ranked = _projected_residuals(starts, T[:, None], LOG_S[:, None], J0[:, None]) * W[:, None]
    best = np.argmin(np.vecdot(ranked, ranked).real, axis=1)
    x, ok = _levenberg_marquardt(
        lambda x, rows: _residuals_and_jacobians(x, T[rows], LOG_S[rows], J0[rows], W[rows]), _STARTS[best])
    q, r11, r12, r22 = _two_column_qr(_two_term_basis(x, T, LOG_S))
    z = np.vecdot(q, J0[:, None])  # Q^H J0, so B c = Q z and R c = z
    c2 = z[:, 1] / r22  # 0 at rank 1, where r22 is inf
    amps = np.abs(np.stack([(z[:, 0] - r12 * c2) / r11, c2], axis=1))
    mag = np.abs(np.matmul(z[:, None], q)[:, 0])
    misfit = np.log(np.maximum(mag, 1e-300)) - np.log(np.abs(J0), out=np.zeros_like(T), where=used)
    log_rms = np.sqrt(np.vecdot(W * misfit, W * misfit) / np.vecdot(W, W))
    heights = np.where(amps > 1e-3 * np.max(amps, axis=1, keepdims=True), a0[:, None] + x[:, [0, 2]], -np.inf)
    return np.max(heights, axis=1), x[:, 4], np.where(ok, log_rms, np.nan)


def estimate_support(samples: IndicatorSamples) -> SupportEstimate:
    """Robust fit of log|J_hat| = a tau + b log s + c for a batch of one; h_hat = a + reference height.

    The b log s term absorbs the leading s^{-lambda} decay of the
    indicator.  One fit with asymmetric trimming estimates all three
    parameters, with b clamped to the physically admissible exponent
    window, and a two-exponential complex fit takes over when
    interference between equal-height boundary points leaves the trimmed
    residual large or holds b at B_MIN; it is kept only when its log
    rms is lower.  With fewer than 8 usable samples nothing is fitted:
    the estimate is unusable, with NaN h_hat, b and rms and fit_path
    "none", so the hull drops that direction alone.  This is
    ``estimate_supports`` for a batch of one, and DomainError for any other.
    """
    _check_one_direction(samples)
    return estimate_supports(samples)[0]


def estimate_supports(samples: IndicatorSamples) -> list[SupportEstimate]:
    """Fit every direction of the batch as ``estimate_support`` does, each stage as one array operation over all.

    The fits read the batch's (directions, T) arrays; the trimmed envelope
    fits run as one ``_trimmed_envelopes`` call and the two-term refines as
    one ``_two_exponential_refines`` call.  So a failed refine (a non-finite
    residual, say) leaves its own direction on its envelope fit and the
    others unchanged.  Batching rounds differently from one direction at
    a time, so an ``h_hat`` can differ from that direction's fit alone in
    the last digits, more where the fit's valley is flat.
    """
    k = len(samples.omegas)
    t, s = np.tile(samples.taus, (k, 1)), np.tile(samples.s, (k, 1))
    L, phase, floor = samples.log_magnitudes, samples.phases, samples.log_noise_floors
    used = samples.usable & np.isfinite(L)
    n_used = used.sum(axis=1)
    h, b, rms = np.full((3, k), np.nan)
    two_term = np.zeros(k, dtype=bool)
    fit = n_used >= 8
    if fit.any():
        if not fit.all():
            t, s, L, phase, floor, used = (v[fit] for v in (t, s, L, phase, floor, used))
        L, floor = np.where(used, L, 0.0), np.where(used, floor, -np.inf)
        # weights 1 / hypot(SIGMA0, e^{floor - L}), scaled to rms 1 over the used samples
        w = used / np.hypot(SIGMA0, np.exp(floor - L))
        wt = w / np.sqrt((w * w).sum(axis=1) / n_used[fit])[:, None]
        far = used & (s >= S_SINGLE_MIN)
        far = np.where(far.sum(axis=1)[:, None] < 8, used, far)
        a_env, b_env, rms_env = _trimmed_envelopes(np.stack([t, np.log(s), L], axis=1), wt * wt, far)
        h[fit], b[fit], rms[fit] = a_env, b_env, rms_env
        refine = (rms_env > TWO_TERM_TRIGGER) | (b_env <= B_MIN)
        if refine.any():
            refined = _two_exponential_refines(t[refine], L[refine], phase[refine], s[refine], wt[refine],
                                               used[refine])
            rows = np.flatnonzero(fit)[refine]
            better = refined[2] < rms[rows]  # False where the refine failed: its log rms is NaN
            h[rows[better]], b[rows[better]], rms[rows[better]] = (v[better] for v in refined)
            two_term[rows[better]] = True
    h += samples.reference_height
    return [SupportEstimate(omega=omega, h_hat=h_i, log_s_coefficient=b_i, residual_rms=rms_i,
                            n_used=n_i, usable=rms_i < RMS_USABLE_THRESHOLD,
                            fit_path="none" if n_i < 8 else "two_term" if tt else "envelope")
            for omega, h_i, b_i, rms_i, n_i, tt
            in zip(samples.omegas, h.tolist(), b.tolist(), rms.tolist(), n_used.tolist(), two_term.tolist())]


def classify_threshold(samples: IndicatorSamples, t: float) -> str:
    """'decays' / 'blows_up' / 'inconclusive' for e^{-tau t} |J(tau)|; DomainError unless the batch is of one.

    The decision uses the least-squares slope of log(e^{-tau t} |J|) over
    the upper half of the usable tau grid; it is monotone in t by
    construction (the slope is affine in t).
    """
    _check_one_direction(samples)
    (log_mag,), (usable,) = samples.log_magnitudes, samples.usable
    mask = usable & np.isfinite(log_mag)
    if np.count_nonzero(mask) < 8:
        raise ReconstructionError("need at least 8 usable samples to classify")
    taus = samples.taus[mask]
    g = log_mag[mask] + taus * (samples.reference_height - t)
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
    estimates = estimate_supports(sample_directions(trace, directions, taus))
    used = [(est.omega, est.h_hat) for est in estimates if est.usable]
    if len(used) < 3:
        raise ReconstructionError(f"only {len(used)} usable directions (need 3)")
    hull = convex_hull_from_supports(used, clip_radius=trace.radius, center=trace.center)
    if len(hull) == 0:
        raise ReconstructionError(f"the half-planes of {len(used)} usable directions do not intersect")
    return hull, estimates

