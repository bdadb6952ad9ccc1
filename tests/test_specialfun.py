import numpy as np
import pytest
from scipy import special

from enclosure2d.errors import DomainError
from enclosure2d.specialfun import (
    bessel_j,
    bessel_j_orders,
    bessel_j_prime,
    bessel_y,
    hankel1,
    hankel1_orders,
    hankel1_prime,
)

EULER_GAMMA = 0.5772156649015328606


def j_series(n, x, terms=50):
    """Power-series oracle for J_n, independent of scipy."""
    x = float(x)
    total = 0.0
    term = (x / 2.0) ** n / np.prod(np.arange(1, n + 1), dtype=float)
    for m in range(terms):
        total += term
        term *= -(x / 2.0) ** 2 / ((m + 1) * (m + 1 + n))
    return total


def y0_series(x, terms=50):
    """Series oracle for Y_0 via the log + harmonic-number expansion."""
    x = float(x)
    acc = 0.0
    term = 1.0
    h = 0.0
    for m in range(1, terms):
        term *= -(x / 2.0) ** 2 / m**2
        h += 1.0 / m
        acc += term * h
    return (2.0 / np.pi) * ((np.log(x / 2.0) + EULER_GAMMA) * j_series(0, x) - acc)


class TestSeriesOracle:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0)

    def test_j1_at_zero(self):
        assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-300)

    def test_j0_first_zero(self):
        # refine the first root of the 50-term series by bisection
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if j_series(0, lo) * j_series(0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j(0, root)) < 1e-10

    def test_j_matches_series(self):
        for n in (0, 1, 2, 5):
            for x in (0.3, 1.0, 2.5, 5.0):
                assert bessel_j(n, x) == pytest.approx(j_series(n, x), abs=1e-12)

    def test_y0_matches_series(self):
        for x in (0.3, 1.0, 2.5):
            assert bessel_y(0, x) == pytest.approx(y0_series(x), abs=1e-12)


class TestIdentities:
    def test_wronskian(self):
        for n in range(21):
            for x in (0.5, 1.0, 5.0, 20.0):
                w = bessel_j(n + 1, x) * bessel_y(n, x) - bessel_j(n, x) * bessel_y(
                    n + 1, x
                )
                assert w == pytest.approx(2.0 / (np.pi * x), abs=1e-10)

    def test_recurrence(self):
        for n in range(1, 12):
            for x in (0.7, 2.0, 9.0):
                lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
                assert lhs == pytest.approx(2 * n / x * bessel_j(n, x), abs=1e-9)

    def test_bessel_ode(self):
        # x^2 f'' + x f' + (x^2 - n^2) f = 0, central differences
        h = 1e-4  # balances truncation vs roundoff in the second difference
        for f in (bessel_j, bessel_y):
            for n in (0, 1, 3):
                for x in (1.3, 4.0, 11.0):
                    f0 = f(n, x)
                    fp = (f(n, x + h) - f(n, x - h)) / (2 * h)
                    fpp = (f(n, x + h) - 2 * f0 + f(n, x - h)) / h**2
                    resid = x**2 * fpp + x * fp + (x**2 - n**2) * f0
                    assert abs(resid) < 1e-6 * x**2 * max(abs(f0), 1.0)

    def test_hankel_is_j_plus_iy(self):
        for n in (0, 1, 4):
            for x in (0.5, 3.0):
                assert hankel1(n, x) == pytest.approx(
                    bessel_j(n, x) + 1j * bessel_y(n, x), abs=1e-13
                )

    def test_derivative_formulas(self):
        h = 1e-6
        for n in (0, 1, 2, 5):
            for x in (1.1, 6.3):
                fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2 * h)
                assert bessel_j_prime(n, x) == pytest.approx(fd, rel=1e-6, abs=1e-8)
                fd_h = (hankel1(n, x + h) - hankel1(n, x - h)) / (2 * h)
                assert hankel1_prime(n, x) == pytest.approx(fd_h, rel=1e-6, abs=1e-8)


class TestAsymptotics:
    def test_log_singularity_cancellation(self):
        # (i/4) H_0(kr) + (1/2pi) log r stays bounded as r -> 0 (k = 1)
        vals = [
            0.25j * hankel1(0, r) + np.log(r) / (2 * np.pi)
            for r in (1e-3, 1e-4, 1e-5)
        ]
        assert abs(vals[0] - vals[1]) < 1e-3
        assert abs(vals[1] - vals[2]) < 1e-3

    def test_h0_far_field_form(self):
        r = 100.0
        ratio = hankel1(0, r) / (np.sqrt(2.0 / (np.pi * r)) * np.exp(1j * (r - np.pi / 4)))
        assert abs(ratio - 1.0) < 0.01

    def test_h0_derivative_phases(self):
        # H0'(r) ~ sqrt(2/(pi r)) e^{i(r + pi/4)} and H0'' ~ i * that form,
        # each with O(1/r) relative error
        h = 1e-5
        for r in (50.0, 100.0, 200.0):
            base = np.sqrt(np.pi * r / 2.0) * np.exp(-1j * (r + np.pi / 4))
            d1 = hankel1_prime(0, r) * base
            d2 = (
                (hankel1_prime(0, r + h) - hankel1_prime(0, r - h)) / (2 * h)
            ) * base
            assert abs(d1 - 1.0) * r < 2.0
            assert abs(d2 - 1j) * r < 2.0


KERNEL_ARGS = np.geomspace(1e-8, 200.0, 4000)


def _reference_hankel1_prime(n, x):
    if n == 0:
        return -special.hankel1(1, x)
    return special.hankel1(0, x) - special.hankel1(1, x) / x


class TestLowOrderKernels:
    """Orders 0 and 1 agree with scipy's complex-argument routine."""

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("x", [np.asarray(2.7), KERNEL_ARGS.reshape(40, 100)], ids=["0d", "2d"])
    def test_matches_complex_argument_routine(self, n, x):
        for f, ref in ((hankel1, special.hankel1(n, x)), (hankel1_prime, _reference_hankel1_prime(n, x))):
            got = f(n, x)
            assert np.shape(got) == np.shape(x)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("n", [0, 1])
    def test_nonpositive_argument_rejected(self, n):
        for x in (0.0, -1.0, np.array([[1.0, 0.0], [2.0, 3.0]])):
            with pytest.raises(DomainError):
                hankel1(n, x)
            with pytest.raises(DomainError):
                hankel1_prime(n, x)


class TestDomainGuards:
    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_y(0, -1.0)
        with pytest.raises(DomainError):
            hankel1(0, 0.0)

    def test_noninteger_order_rejected(self):
        with pytest.raises((DomainError, TypeError)):
            bessel_j(0.5, 1.0)


def _scaled(values, exps):
    """values 2^exps, inf where that overflows."""
    with np.errstate(over="ignore"):
        return values * np.ldexp(1.0, exps)


class TestOrderHelpers:
    """The all-orders Hankel and Miller helpers against the one-order routines."""

    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 20.0])
    def test_hankel_orders_match_hankel1(self, x):
        # scipy's own error passes 1e-14 beyond order ~60, so the check stops there
        h, dh, exps = hankel1_orders(60, x)
        for m in range(61):
            ref, dref = hankel1(m, x), hankel1_prime(m, x)
            if np.isfinite(ref) and np.isfinite(dref):
                assert abs(_scaled(h[m], exps[m]) - ref) <= 1e-13 * abs(ref)
                assert abs(_scaled(dh[m], exps[m]) - dref) <= 1e-13 * abs(dref)

    @pytest.mark.parametrize("x", [0.5, 4.0, 20.0])
    def test_hankel_orders_past_overflow(self, x):
        mp = pytest.importorskip("mpmath")
        h, dh, exps = hankel1_orders(300, x)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(dh))
        for m in (100, 190, 250, 300):
            ref = mp.hankel1(m, x)
            got = mp.mpc(h[m]) * mp.mpf(2) ** int(exps[m])
            assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_domain(self):
        for x in (0.0, -1.0):
            with pytest.raises(DomainError):
                hankel1_orders(4, x)
        with pytest.raises(DomainError):
            hankel1_orders(-1, 1.0)
        for x in ([1.0, -1.0], [1.0, np.nan], [[1.0]]):
            with pytest.raises(DomainError):
                bessel_j_orders(np.array(x), np.zeros(3, dtype=int))

    def test_miller_matches_bessel_j(self):
        x = np.geomspace(0.05, 30.0, 200)
        got = bessel_j_orders(x, np.zeros(41, dtype=int))
        assert got.shape == (41, 200)
        for m in range(41):
            ref = bessel_j(m, x)
            # past the turning point J_m has no zeros and decays: relative;
            # before it, near a zero only the absolute error is meaningful
            decaying = x <= m
            assert np.all(np.abs(got[m] - ref)[decaying] <= 1e-13 * np.abs(ref[decaying]))
            assert np.all(np.abs(got[m] - ref)[~decaying] <= 1e-15)

    def test_miller_at_zero(self):
        # a node at the centre: J_m(0) = 0 for m >= 1, up to the 1e-100 floor on x
        got = bessel_j_orders(np.array([0.0, 1.0]), np.zeros(6, dtype=int))
        assert got[0, 0] == 1.0 and np.all(np.abs(got[1:, 0]) <= 1e-100)

    def test_scaled_products_stay_finite_and_accurate(self):
        # J_m(k r) H_m(kR) at rho = 0.9: H_m(4) overflows near m = 190 and
        # J_m(3.6) underflows near m = 200, while the product is ~0.9^m / m
        mp = pytest.importorskip("mpmath")
        h, _, exps = hankel1_orders(400, 4.0)
        scaled = bessel_j_orders(np.array([3.6]), exps)[:, 0]
        assert np.all(np.isfinite(scaled))
        for m in (0, 5, 100, 190, 250, 350):
            ref = mp.besselj(m, 3.6) * mp.hankel1(m, 4.0)
            assert abs(mp.mpc(scaled[m] * h[m]) - ref) <= 1e-13 * abs(ref)
