"""Batched trust-region-reflective solve of bound-constrained least squares.

``solve_bounded`` minimises 0.5 |f_i(x_i)|^2 over a box for a batch of
independent problems i.  Each problem takes the steps that
``scipy.optimize.least_squares(method="trf")`` takes for it alone: the
trust-region-reflective method of Branch, Coleman & Li (SIAM J. Sci.
Comput. 21(1), 1999) as scipy's ``trf_bounds`` implements it.  Only the
settings of the two-term refine are covered: the exact (SVD) trust-region
solver, linear loss, ``x_scale = 1``, ftol = xtol = gtol = 1e-8, at most
``MAX_NFEV`` residual evaluations per problem counting the start, finite
bounds and a strictly feasible start.

One round is one pass of scipy's inner loop for every live problem.  A
rejected step leaves x, the gradient and the Jacobian unchanged, so
redoing the top of scipy's outer loop for that problem recomputes the
same scalings and SVD, and only its trust radius and Levenberg-Marquardt
parameter differ, exactly as in scipy's inner loop.  So each round is
one residual call over the live problems and at most one Jacobian call,
over those that accepted a step.

Where scipy would raise (a non-finite start residual, a reflected step
whose start lies outside the trust region, an SVD that fails), that
problem alone is dropped and flagged failed; the others go on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_NFEV", "solve_bounded"]

EPS = np.finfo(float).eps
TOL = 1e-8  # ftol, xtol and gtol
MAX_NFEV = 200


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise a @ x for stacks (k, m, n) and (k, n)."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


def _step_to_bound(x, s, lower, upper):
    """Smallest t >= 0 with x + t s on the box boundary, and the sign of s where it is reached."""
    steps = np.where(s != 0, np.maximum((lower - x) / s, (upper - x) / s), np.inf)
    t = np.min(steps, axis=1)
    return t, (steps == t[:, None]) * np.sign(s)


def _quadratic(J_h, g_h, diag_h, s):
    """0.5 s.(J^T J + diag) s + g.s per row."""
    Js = _matvec(J_h, s)
    return 0.5 * (np.vecdot(Js, Js) + np.vecdot(s * diag_h, s)) + np.vecdot(s, g_h)


def _minimize_quadratic_1d(a, b, lo, hi, c=0.0):
    """Minimiser and minimum of t (a t + b) + c on [lo, hi], per row."""
    extremum = -0.5 * b / a
    lo, hi = np.broadcast_arrays(lo, hi)
    t = np.stack([lo, hi, extremum], axis=1)
    y = t * (a[:, None] * t + b[:, None]) + np.asarray(c)[..., None]
    y[:, 2] = np.where((a != 0) & (lo < extremum) & (extremum < hi), y[:, 2], np.inf)
    best = np.argmin(y, axis=1)
    rows = np.arange(len(best))
    return t[rows, best], y[rows, best]


def _scaling(x, g, lower, upper):
    """Coleman-Li scaling vector v and its derivative dv (finite bounds)."""
    return np.where(g < 0, upper - x, np.where(g > 0, x - lower, 1.0)), np.sign(g)


def _trust_region_steps(uf, sv, Vt, Delta, alpha, m):
    """scipy's ``solve_lsq_trust_region`` per row: hat-space steps and new alpha.

    A full-rank row whose Gauss-Newton step fits the trust region takes it
    with alpha 0; only the others run the Levenberg-Marquardt root search.
    """
    full_rank = sv[:, -1] > (EPS * m) * sv[:, 0]
    p = -_matvec(Vt.transpose(0, 2, 1), uf / sv)
    gauss_newton = full_rank & (_norm(p) <= Delta)
    if gauss_newton.all():
        return p, np.zeros_like(alpha)
    alpha = np.where(gauss_newton, 0.0, alpha)
    lm = ~gauss_newton
    p[lm], alpha[lm] = _constrained_steps(sv[lm] * uf[lm], sv[lm], Vt[lm], Delta[lm], alpha[lm], full_rank[lm])
    return p, alpha


def _constrained_steps(suf, sv, Vt, Delta, alpha, full_rank, rtol=0.01, max_iter=10):
    """Steps of norm Delta from More's root search for alpha, as scipy runs it.

    Each row leaves the search when its own stopping test holds, as
    scipy's loop breaks for one problem.
    """

    def phi_and_derivative(alpha, sv2, suf, Delta):
        denom = sv2 + alpha[:, None]
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3, axis=1) / p_norm

    def restart(lower, upper):
        return np.maximum(0.001 * upper, np.sqrt(lower * upper))

    sv2 = sv**2
    upper = _norm(suf) / Delta
    phi, phi_prime = phi_and_derivative(np.zeros_like(alpha), sv2, suf, Delta)
    lower = np.where(full_rank, -phi / phi_prime, 0.0)
    alpha = np.where(~full_rank & (alpha == 0), restart(lower, upper), alpha)
    # the rows still searching, and their data
    rows, a, search = np.arange(len(alpha)), alpha, (sv2, suf, Delta)
    for _ in range(max_iter):
        a = np.where((a < lower) | (a > upper), restart(lower, upper), a)
        phi, phi_prime = phi_and_derivative(a, *search)
        ratio = phi / phi_prime
        upper = np.where(phi < 0, a, upper)
        lower = np.maximum(lower, a - ratio)
        a = a - (phi + search[2]) * ratio / search[2]
        alpha[rows] = a
        going = ~(np.abs(phi) < rtol * search[2])
        if not going.all():
            rows, a, lower, upper = rows[going], a[going], lower[going], upper[going]
            search = tuple(v[going] for v in search)
            if not len(rows):
                break
    p = -_matvec(Vt.transpose(0, 2, 1), suf / (sv2 + alpha[:, None]))
    return p * (Delta / _norm(p))[:, None], alpha


def _reflective_steps(x, p, p_h, d, J_h, g_h, diag_h, Delta, theta, lower, upper):
    """scipy's ``select_step`` for rows whose full step leaves the box.

    Returns the step, its hat-space form, the predicted reduction and the
    rows where scipy's ``intersect_trust_region`` would raise.
    """
    p_stride, hits = _step_to_bound(x, p, lower, upper)
    r_h = np.where(hits != 0, -p_h, p_h)
    r = d * r_h
    p, p_h = p * p_stride[:, None], p_h * p_stride[:, None]
    # the reflected direction's exit from the trust region
    a, b = np.vecdot(r_h, r_h), np.vecdot(p_h, r_h)
    c = np.vecdot(p_h, p_h) - Delta**2
    bad = (a == 0) | (c > 0)
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    to_tr = np.maximum(q / a, c / q)
    to_bound, _ = _step_to_bound(x + p, r, lower, upper)
    r_stride = np.minimum(to_bound, to_tr)
    positive = r_stride > 0
    r_lo = np.where(positive, (1 - theta) * p_stride / r_stride, 0.0)
    r_hi = np.where(positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0)
    Jr, Jp = _matvec(J_h, r_h), _matvec(J_h, p_h)
    qa = 0.5 * (np.vecdot(Jr, Jr) + np.vecdot(r_h * diag_h, r_h))
    qb = np.vecdot(g_h, r_h) + np.vecdot(Jp, Jr) + np.vecdot(p_h * diag_h, r_h)
    qc = 0.5 * np.vecdot(Jp, Jp) + np.vecdot(g_h, p_h) + 0.5 * np.vecdot(p_h * diag_h, p_h)
    r_t, r_value = _minimize_quadratic_1d(qa, qb, r_lo, r_hi, qc)
    r_value = np.where(r_lo <= r_hi, r_value, np.inf)
    r_h = r_h * r_t[:, None] + p_h
    r = r_h * d
    # the interior point short of the bound
    p, p_h = p * theta[:, None], p_h * theta[:, None]
    p_value = _quadratic(J_h, g_h, diag_h, p_h)
    # the scaled gradient direction
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lower, upper)
    Jg = _matvec(J_h, ag_h)
    ag_t, ag_value = _minimize_quadratic_1d(
        0.5 * (np.vecdot(Jg, Jg) + np.vecdot(ag_h * diag_h, ag_h)), np.vecdot(g_h, ag_h),
        0.0, np.where(to_bound < to_tr, theta * to_bound, to_tr))
    ag_h, ag = ag_h * ag_t[:, None], ag * ag_t[:, None]

    # the least model value, ties going to the later candidate as in scipy
    choice = np.where((p_value < r_value) & (p_value < ag_value), 0,
                      np.where((r_value < p_value) & (r_value < ag_value), 1, 2))
    rows = np.arange(len(choice))
    step, step_h = np.stack([p, r, ag], axis=1)[rows, choice], np.stack([p_h, r_h, ag_h], axis=1)[rows, choice]
    return step, step_h, -np.stack([p_value, r_value, ag_value], axis=1)[rows, choice], bad


def _svd(a: np.ndarray):
    """Stacked thin SVD, and a mask of the rows that are non-finite or do not converge."""
    failed = ~np.isfinite(a).all(axis=(1, 2))
    if failed.any():
        a = np.where(failed[:, None, None], 0.0, a)
    try:
        return (*np.linalg.svd(a, full_matrices=False), failed)
    except np.linalg.LinAlgError:
        k, rows, n = a.shape
        U, sv, Vt = np.zeros((k, rows, n)), np.zeros((k, n)), np.zeros((k, n, n))
        for i in range(k):
            try:
                U[i], sv[i], Vt[i] = np.linalg.svd(a[i], full_matrices=False)
            except np.linalg.LinAlgError:
                failed[i] = True
        return U, sv, Vt, failed


@np.errstate(all="ignore")
def solve_bounded(fun, jac, x0, f0, lower, upper):
    """Minimise 0.5 |f_i(x)|^2 over lower <= x <= upper for each problem i.

    ``fun(x, rows)`` returns the residuals (k, m) at the parameter rows x
    (k, n) of the problems ``rows``, an integer index array or, when it
    holds every problem in order, a full slice; ``jac(x, f, rows)``
    returns their Jacobians (k, m, n), given f = fun(x, rows).  ``x0``
    (P, n) holds strictly feasible starts and ``f0`` (P, m) their
    residuals.  Returns the solutions (P, n) and a mask (P,) that is False
    where a problem failed (see the module docstring); a failed problem's
    row is not a solution.
    """
    solution = np.array(x0, dtype=float)
    P, n = solution.shape
    ok = np.isfinite(f0).all(axis=1)
    # the state of the live problems ``rows``; finished ones are dropped
    rows = np.flatnonzero(ok)
    if not len(rows):
        return solution, ok
    x, f = solution[rows], np.array(f0, dtype=float)[rows]
    m = f.shape[1]

    def index(rows):
        return slice(None) if len(rows) == P else rows

    J = jac(x, f, index(rows))
    g = _matvec(J.transpose(0, 2, 1), f)
    cost = 0.5 * np.vecdot(f, f)
    Delta = _norm(x / np.sqrt(_scaling(x, g, lower, upper)[0]))
    Delta[Delta == 0] = 1.0
    alpha = np.zeros(len(rows))
    stop = np.zeros(len(rows), dtype=bool)
    nfev = 1  # every live problem takes one residual evaluation per round
    # make_strictly_feasible(rstep=0): no float lies between a bound and these
    inner_lower, inner_upper = np.nextafter(lower, upper), np.nextafter(upper, lower)
    eye = np.eye(n)
    while True:
        # the top of scipy's outer loop; after a rejected step it
        # recomputes exactly what it computed before
        v, dv = _scaling(x, g, lower, upper)
        g_norm = np.abs(g * v).max(axis=1)
        stop |= (g_norm < TOL) | (nfev >= MAX_NFEV)
        if stop.any():
            solution[rows[stop]] = x[stop]
            keep = ~stop
            rows, x, f, J, g, cost, Delta, alpha, v, dv, g_norm = (
                a[keep] for a in (rows, x, f, J, g, cost, Delta, alpha, v, dv, g_norm))
            stop = stop[keep]
            if not len(rows):
                return solution, ok
        d = np.sqrt(v)
        diag_h = g * dv
        g_h = d * g
        J_h = J * d[:, None, :]
        U, sv, Vt, failed = _svd(np.concatenate([J_h, np.sqrt(diag_h)[:, :, None] * eye], axis=1))
        uf = np.matmul(f[:, None, :], U[:, :m])[:, 0]

        # one pass of the inner loop: a step, and its residual
        p_h, alpha = _trust_region_steps(uf, sv, Vt, Delta, alpha, m)
        p = d * p_h
        predicted = -_quadratic(J_h, g_h, diag_h, p_h)
        x_new = x + p
        out = ~((x_new >= lower) & (x_new <= upper)).all(axis=1)
        if out.any():
            p[out], p_h[out], predicted[out], bad = _reflective_steps(
                x[out], p[out], p_h[out], d[out], J_h[out], g_h[out], diag_h[out], Delta[out],
                np.maximum(0.995, 1 - g_norm[out]), lower, upper)
            failed[out] |= bad
            x_new = x + p
        x_new = np.minimum(np.maximum(x_new, inner_lower), inner_upper)
        if failed.any():
            x_new[failed] = x[failed]
            ok[rows[failed]] = False
        f_new = fun(x_new, index(rows))
        nfev += 1

        finite = np.isfinite(f_new).all(axis=1)
        cost_new = 0.5 * np.vecdot(f_new, f_new)
        reduction = cost - cost_new
        ratio = np.where(predicted > 0, reduction / predicted, (predicted == 0) & (reduction == 0))
        step_h_norm = _norm(p_h)
        Delta_new = np.where(ratio < 0.25, 0.25 * step_h_norm,
                             np.where((ratio > 0.75) & (step_h_norm > 0.95 * Delta), 2.0 * Delta, Delta))
        converged = finite & (((reduction < TOL * cost) & (ratio > 0.25)) | (_norm(p) < TOL * (TOL + _norm(x))))
        # a converged row stops, so its alpha and Delta are never read again
        alpha = np.where(finite, alpha * (Delta / Delta_new), alpha)
        Delta = np.where(finite, Delta_new, 0.25 * step_h_norm)
        accepted = finite & (reduction > 0)
        stop = converged | failed
        if accepted.all():
            x, f, cost = x_new, f_new, cost_new
        else:
            x = np.where(accepted[:, None], x_new, x)
            f = np.where(accepted[:, None], f_new, f)
            cost = np.where(accepted, cost_new, cost)
        moved = accepted & ~stop
        if nfev >= MAX_NFEV:
            continue
        if moved.all():
            J = jac(x, f, index(rows))
            g = _matvec(J.transpose(0, 2, 1), f)
        elif moved.any():
            J[moved] = jac(x[moved], f[moved], rows[moved])
            g[moved] = _matvec(J[moved].transpose(0, 2, 1), f[moved])
