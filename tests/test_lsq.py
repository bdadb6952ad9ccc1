"""The batched trust-region-reflective solve against scipy's own, problem by problem."""

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._lsq.common import solve_lsq_trust_region
from scipy.optimize._lsq.trf import select_step

from enclosure2d import lsq

T = np.linspace(0.0, 2.0, 12)
LOWER, UPPER = np.array([0.0, -1.0]), np.array([2.0, 0.3])
# targets a e^{b t}: inside the box, and past its a and b bounds, so some
# solves end on a bound and take reflected steps on the way
TARGETS = np.array([[1.0, -0.5], [1.5, 0.2], [2.5, -0.3], [0.8, 0.6], [1.2, -1.4]])
Y = TARGETS[:, :1] * np.exp(TARGETS[:, 1:] * T) + 0.01 * np.sin(7 * T)
X0 = np.array([[0.5, -0.2], [1.0, 0.0], [1.0, -0.5], [0.3, 0.1], [1.9, -0.9]])


def fun(x, rows):
    return x[:, :1] * np.exp(x[:, 1:] * T) - Y[rows]


def jac(x, f, rows):
    e = np.exp(x[:, 1:] * T)
    return np.stack([e, x[:, :1] * T * e], axis=-1)


def scipy_solution(i):
    return least_squares(lambda z: fun(z[None], [i])[0], X0[i], jac=lambda z: jac(z[None], None, [i])[0],
                         bounds=(LOWER, UPPER), method="trf", tr_solver="exact", x_scale=1.0,
                         max_nfev=lsq.MAX_NFEV).x


def test_batch_matches_scipy_per_problem():
    x, ok = lsq.solve_bounded(fun, jac, X0, fun(X0, slice(None)), LOWER, UPPER)
    assert ok.all()
    for i in range(len(X0)):
        np.testing.assert_allclose(x[i], scipy_solution(i), rtol=0, atol=1e-10)
    assert np.any(np.isclose(x, UPPER) | np.isclose(x, LOWER))


def test_failed_problem_leaves_the_others_unchanged():
    # problem 1's Jacobian turns NaN after its first step, so its SVD
    # fails; scipy would raise for it alone
    def broken_jac(x, f, rows):
        J = jac(x, f, rows)
        J[np.isin(np.arange(len(X0))[rows], 1) & ~np.all(x == X0[rows], axis=1)] = np.nan
        return J

    x, ok = lsq.solve_bounded(fun, broken_jac, X0, fun(X0, slice(None)), LOWER, UPPER)
    assert ok.tolist() == [True, False, True, True, True]
    keep = [0, 2, 3, 4]

    def fun_kept(x, rows):
        return fun(x, np.array(keep)[rows])

    def jac_kept(x, f, rows):
        return jac(x, f, np.array(keep)[rows])

    alone, ok_alone = lsq.solve_bounded(fun_kept, jac_kept, X0[keep], fun(X0[keep], keep), LOWER, UPPER)
    assert ok_alone.all()
    np.testing.assert_array_equal(x[keep], alone)


def test_non_finite_start_fails_that_problem_only():
    f0 = fun(X0, slice(None))
    f0[2, 4] = np.nan
    x, ok = lsq.solve_bounded(fun, jac, X0, f0, LOWER, UPPER)
    assert ok.tolist() == [True, True, False, True, True]
    np.testing.assert_allclose(x[0], scipy_solution(0), rtol=0, atol=1e-10)


def _trust_region_inputs(seed, m=12, n=5):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((3, m, n))
    J[2, :, 4] = J[2, :, 3]  # rank deficient: no Gauss-Newton step
    U, sv, Vt = np.linalg.svd(J, full_matrices=False)
    f = rng.standard_normal((3, m))
    uf = np.matmul(f[:, None, :], U)[:, 0]
    return uf, sv, Vt, m


@pytest.mark.parametrize("seed", range(4))
def test_trust_region_steps_match_scipy(seed):
    uf, sv, Vt, m = _trust_region_inputs(seed)
    gn = np.linalg.norm(np.matmul(Vt.transpose(0, 2, 1), (uf / sv)[:, :, None])[:, :, 0], axis=1)
    Delta = np.array([2.0 * gn[0], 0.3 * gn[1], 0.5])  # Gauss-Newton, constrained, rank deficient
    alpha = np.array([0.0, 0.7, 0.0])
    p, new_alpha = lsq._trust_region_steps(uf, sv, Vt, Delta, alpha.copy(), m)
    for i in range(3):
        ref_p, ref_alpha, _ = solve_lsq_trust_region(5, m, uf[i], sv[i], Vt[i].T, Delta[i], initial_alpha=alpha[i])
        np.testing.assert_allclose(p[i], ref_p, rtol=1e-12, atol=1e-14)
        assert new_alpha[i] == pytest.approx(ref_alpha, rel=1e-12, abs=0)


def test_reflective_steps_match_scipy_and_flag_its_raise():
    # two rows whose full steps leave the box; the second starts outside
    # its trust region, where scipy's intersect_trust_region raises
    rng = np.random.default_rng(3)
    lower, upper = -np.ones(5), np.ones(5)
    x = rng.uniform(-0.5, 0.5, (2, 5))
    p = np.array([[1.8, 0.1, -0.2, 0.3, 0.0], [0.1, -0.2, 1.5, 0.0, 0.2]])
    d = rng.uniform(0.5, 1.5, (2, 5))
    p_h = p / d
    J_h, g_h = rng.standard_normal((2, 8, 5)), rng.standard_normal((2, 5))
    diag_h = np.abs(rng.standard_normal((2, 5)))
    Delta = np.array([1.1 * np.linalg.norm(p_h[0]), 0.1])
    theta = np.array([0.995, 0.995])
    with np.errstate(all="ignore"):
        step, step_h, predicted, bad = lsq._reflective_steps(x, p, p_h, d, J_h, g_h, diag_h, Delta, theta, lower, upper)
    assert bad.tolist() == [False, True]
    ref_step, ref_step_h, ref_predicted = select_step(x[0], J_h[0], diag_h[0], g_h[0], p[0].copy(), p_h[0].copy(),
                                                      d[0], Delta[0], lower, upper, theta[0])
    np.testing.assert_allclose(step[0], ref_step, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(step_h[0], ref_step_h, rtol=1e-12, atol=1e-15)
    assert predicted[0] == pytest.approx(ref_predicted, rel=1e-12)
    with pytest.raises(ValueError):
        select_step(x[1], J_h[1], diag_h[1], g_h[1], p[1].copy(), p_h[1].copy(), d[1], Delta[1], lower, upper,
                    theta[1])
