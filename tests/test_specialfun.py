import numpy as np
import pytest
from scipy import special

from enclosure2d.errors import DomainError
from enclosure2d.hankel_table import X0
from enclosure2d.specialfun import bessel_j_orders, hankel1, hankel1_orders

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


def _scaled(values, exps):
    """values 2^exps, inf where that overflows."""
    with np.errstate(over="ignore"):
        return values * np.ldexp(1.0, exps)


def _orders(m_max, x):
    """H_m(x) for m = 0..m_max from the ratio recursion, unscaled."""
    h, _, exps = hankel1_orders(m_max, x)
    return _scaled(h, exps)


class TestSeriesOracle:
    def test_j0_at_zero(self):
        assert hankel1(0, 1e-8).real == pytest.approx(1.0, abs=1e-15)

    def test_j1_at_zero(self):
        # J_1(x) = x/2 - x^3/16 + ...
        assert hankel1(1, 1e-8).real == pytest.approx(5e-9, rel=1e-14)

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
        assert abs(hankel1(0, root).real) < 1e-15

    def test_j_matches_series(self):
        x = np.array([0.3, 1.0, 2.5, 5.0])
        miller = bessel_j_orders(x, np.zeros(6, dtype=int))
        for n in (0, 1, 2, 5):
            series = np.array([j_series(n, v) for v in x])
            assert np.allclose(miller[n], series, rtol=0, atol=1e-14)
            if n <= 1:
                assert np.allclose(hankel1(n, x).real, series, rtol=0, atol=1e-14)

    def test_y0_matches_series(self):
        for x in (0.3, 1.0, 2.5):
            assert hankel1(0, x).imag == pytest.approx(y0_series(x), abs=1e-14)


class TestIdentities:
    def test_wronskian(self):
        # J_{n+1} Y_n - J_n Y_{n+1} = 2 / (pi x), J from Miller's recurrence and
        # Y from the Hankel ratio recursion, both at the Hankel scales
        for x in (0.5, 1.0, 5.0, 20.0):
            h, _, exps = hankel1_orders(21, x)
            j = bessel_j_orders(np.array([x]), exps)[:, 0]
            for n in range(21):
                step = int(exps[n] - exps[n + 1])
                w = j[n + 1] * h[n].imag * 2.0**step - j[n] * h[n + 1].imag * 2.0**-step
                assert w == pytest.approx(2.0 / (np.pi * x), rel=1e-12)

    def test_recurrence(self):
        x = np.array([0.7, 2.0, 9.0])
        j = bessel_j_orders(x, np.zeros(13, dtype=int))
        for i, v in enumerate(x):
            h = _orders(12, v)
            for n in range(1, 12):
                assert j[n - 1, i] + j[n + 1, i] == pytest.approx(2 * n / v * j[n, i], abs=1e-9)
                assert h[n - 1] + h[n + 1] == pytest.approx(2 * n / v * h[n], rel=1e-12)

    def test_bessel_ode(self):
        # x^2 f'' + x f' + (x^2 - n^2) f = 0, central differences; at x = X0
        # the differences straddle the two expansions of H_0 and H_1
        h = 1e-4  # balances truncation vs roundoff in the second difference
        for n in (0, 1, 3):
            for x in (1.3, X0, 11.0):
                f = (lambda v: hankel1(n, v)) if n <= 1 else (lambda v: _orders(n, v)[n])
                f0 = f(x)
                fp = (f(x + h) - f(x - h)) / (2 * h)
                fpp = (f(x + h) - 2 * f0 + f(x - h)) / h**2
                resid = x**2 * fpp + x * fp + (x**2 - n**2) * f0
                for part in (resid.real, resid.imag):
                    assert abs(part) < 1e-6 * x**2 * max(abs(f0), 1.0)

    def test_hankel_is_j_plus_iy(self):
        for x in (0.5, 3.0, 4.0, 7.5):
            for n in (0, 1):
                assert hankel1(n, x) == pytest.approx(special.jv(n, x) + 1j * special.yv(n, x), abs=1e-14)
            assert _orders(4, x)[4] == pytest.approx(special.jv(4, x) + 1j * special.yv(4, x), rel=1e-13)

    def test_derivative_formulas(self):
        h = 1e-6
        for x in (1.1, 6.3):
            _, dh, exps = hankel1_orders(5, x)
            for n in (0, 1, 2, 5):
                fd = (_orders(5, x + h)[n] - _orders(5, x - h)[n]) / (2 * h)
                assert _scaled(dh[n], exps[n]) == pytest.approx(fd, rel=1e-6, abs=1e-8)
            # (H_0)' = -H_1, the point source's gradient
            fd = (hankel1(0, x + h) - hankel1(0, x - h)) / (2 * h)
            assert -hankel1(1, x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


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
        # H0'(r) = -H1(r) ~ sqrt(2/(pi r)) e^{i(r + pi/4)} and H0'' ~ i * that
        # form, each with O(1/r) relative error
        h = 1e-5
        for r in (50.0, 100.0, 200.0):
            base = np.sqrt(np.pi * r / 2.0) * np.exp(-1j * (r + np.pi / 4))
            d1 = -hankel1(1, r) * base
            d2 = -((hankel1(1, r + h) - hankel1(1, r - h)) / (2 * h)) * base
            assert abs(d1 - 1.0) * r < 2.0
            assert abs(d2 - 1j) * r < 2.0


KERNEL_ARGS = np.geomspace(1e-8, 200.0, 4000)


class TestLowOrderKernels:
    """Orders 0 and 1 agree with scipy's complex-argument routine."""

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("x", [np.asarray(2.7), KERNEL_ARGS.reshape(40, 100)], ids=["0d", "2d"])
    def test_matches_complex_argument_routine(self, n, x):
        got = hankel1(n, x)
        ref = special.hankel1(n, x)
        assert np.shape(got) == np.shape(x)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("n", [0, 1])
    def test_nonpositive_argument_rejected(self, n):
        for x in (0.0, -1.0, np.array([[1.0, 0.0], [2.0, 3.0]])):
            with pytest.raises(DomainError):
                hankel1(n, x)


class TestAgainstMpmath:
    """The accuracy gate: 1e-14 relative to mpmath wherever the package evaluates H_0 and H_1.

    The kernels and the single-layer field reach down to node pairs 1e-8 apart at graded corners
    and up to k = 10 times the far side of the measurement circle from the source; the order
    recursion is seeded at kR.
    """

    ARGS = np.concatenate([
        np.geomspace(1e-8, 1e4, 300),
        np.nextafter(X0, [-np.inf, np.inf]), [X0, X0 - 1e-9, X0 + 1e-9], np.linspace(X0 - 0.2, X0 + 0.2, 21),
        [4.0, 20.0],  # hankel1_orders' seeds at kR = 4 and 20
    ])

    @pytest.mark.parametrize("n", [0, 1])
    def test_relative_error(self, n):
        mp = pytest.importorskip("mpmath")
        got = hankel1(n, self.ARGS)
        ref = np.array([complex(mp.hankel1(n, mp.mpf(float(x)))) for x in self.ARGS])
        err = np.abs(got - ref) / np.abs(ref)
        assert np.max(err) <= 1e-14, f"worst at x = {self.ARGS[np.argmax(err)]!r}: {np.max(err):.2e}"
        # a value does not depend on its neighbours, nor on which branches its chunk takes
        assert np.array_equal([hankel1(n, x) for x in self.ARGS], got)
        window = np.abs(self.ARGS - X0) <= 0.2
        assert np.array_equal(hankel1(n, self.ARGS[window]), got[window])

    @pytest.mark.parametrize("x", [4.0, 20.0])
    def test_order_recursion_seeds(self, x):
        mp = pytest.importorskip("mpmath")
        h = _orders(1, x)
        for m in (0, 1):
            ref = complex(mp.hankel1(m, x))
            assert abs(h[m] - ref) <= 1e-14 * abs(ref)

    def test_both_sides_of_the_switch_agree(self):
        # the two expansions meet at X0: the jump there is round-off
        below, above = hankel1(1, np.nextafter(X0, 0.0)), hankel1(1, np.nextafter(X0, 5.0))
        assert abs(above - below) <= 1e-14 * abs(below)


class TestDomainGuards:
    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            hankel1(0, -1.0)
        with pytest.raises(DomainError):
            hankel1(0, 0.0)
        with pytest.raises(DomainError):
            hankel1(1, [1.0, -1.0])
        with pytest.raises(DomainError):
            hankel1_orders(1, -1.0)

    def test_noninteger_order_rejected(self):
        with pytest.raises(DomainError):
            hankel1(0.5, 1.0)
        # orders past 1 come from hankel1_orders
        with pytest.raises(DomainError, match="hankel1_orders"):
            hankel1(2, 1.0)


class TestOrderHelpers:
    """The all-orders Hankel and Miller helpers against scipy's one-order routines."""

    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 20.0])
    def test_hankel_orders_match_hankel1(self, x):
        # scipy's own error passes 1e-14 beyond order ~60, so the check stops there
        h, dh, exps = hankel1_orders(60, x)
        for m in range(61):
            with np.errstate(over="ignore"):
                ref, dref = special.hankel1(m, x), special.h1vp(m, x)
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
            ref = special.jv(m, x)
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
