"""Hankel functions of the first kind and the Bessel orders of the circle series, in numpy.

H^(1)_0 and H^(1)_1 are the kernels of the Nystrom matrix, the single-layer
field and the point source.  ``hankel1`` evaluates them from the polynomial
expansions of ``hankel_table``, which tools/fit_hankel_table.py fits in
mpmath: for 0 < x <= X0 = 4, J and Y as polynomials in x^2 once the
logarithm and the pole of Y are split off (Abramowitz & Stegun 9.1.12-13),
of degree 11; past X0, the modulus-phase form
sqrt(2 / (pi x)) e^{ix} G_n(X0 / x) (A&S 9.2.5-10), G_n of degree 20.
Horner's rule runs on both parts of a chunk of arguments at once, in
elementwise passes only, so a value does not depend on its place in the
array.  e^{ix} is taken of x itself, not of x - (2n + 1) pi/4, whose
rounding would cost ulp(x) of phase.

The accuracy gate is 1e-14 relative to mpmath over every argument the
package evaluates for k <= 10, from node pairs 1e-8 apart at graded
corners to x = 1e4 (tests/test_specialfun.py); the largest error there is
7.5e-16.  The assembly evaluates H_1 once per symmetric node pair, all of
them below X0 on the bench's 2048-node 128-gon: there H_1 takes 49-59 ms
of the assembly, where scipy's Cephes j1/y1 took 46-49 ms (2-core Xeon VM,
2 OpenBLAS threads; the assembly times are in ``forward``'s docstring).
On a warm 5300-argument block, one call costs 118-123 us against Cephes'
110 us; a call on a few hundred arguments costs 30-65 us more than Cephes,
numpy's per-pass overhead.

The measurement-circle series needs every order at once: ``hankel1_orders``
gives H_m(kR) and H'_m(kR) by the upward ratio recursion and
``bessel_j_orders`` gives J_m(k r_j) at every node by Miller's downward
recurrence, both scaled by the same powers of two so that their products
stay finite where H_m overflows.  On the 2048-node 128-gon (k = 2, R = 2,
33 orders, 512 circle nodes) the whole circle trace takes 2.2 ms, of
which Miller's recurrence is 1.0 ms and the Hankel orders 0.05 ms.  The
disc series takes its orders from the same two recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .hankel_table import FAR, NEAR, X0

__all__ = [
    "bessel_j_orders",
    "hankel1",
    "hankel1_orders",
]


def _split(rows) -> list:
    """Horner columns, highest first, of the even and odd powers of each row as polynomials in s^2.

    Rows of coefficients c_0, c_1, ... become 2r rows (the even ones, then the odd ones); column
    views are cut once here, so a pass of ``_polynomial`` indexes nothing.
    """
    rows = np.array(rows, dtype=float)
    if rows.shape[1] % 2:
        rows = np.pad(rows, ((0, 0), (0, 1)))
    split = np.concatenate([rows[:, 0::2], rows[:, 1::2]])
    return [split[:, k, None] for k in range(split.shape[1] - 1, -1, -1)]


_NEAR = [_split(rows) for rows in NEAR]
_FAR = [_split(rows) for rows in FAR]
# arguments per pass: on the 2048-node assembly (32 x 2048 per call) chunks took 201-212 ms against
# 233-249 ms whole, and a 1M-argument call 105 ms and 17 MiB against 189 ms and 88 MiB (2-core VM)
_CHUNK = 2**14


def _check_order(n) -> int:
    if int(n) != n or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    return int(n)


def _polynomial(columns: list, s: np.ndarray) -> np.ndarray:
    """sum_k c_k s^k for each row that ``_split`` cut into ``columns``, all rows at once.

    Horner's rule in s^2 on the even and odd powers together, then even + s odd: half the
    passes of Horner in s, at the same flops.  Elementwise passes only, so a value does not
    depend on its neighbours or its place in the array; a product with a basis of powers went
    through BLAS kernels that round by position.
    """
    s2 = s * s
    out = np.empty((len(columns[0]), len(s)))
    out[:] = columns[0]
    for column in columns[1:]:
        out *= s2
        out += column
    half = len(out) // 2
    odd = out[half:]
    odd *= s
    even = out[:half]
    even += odd
    return even


def _near(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """H_n(x) into out for 0 < x <= X0: J_0 = A_0, Y_0 = (2/pi) ln(x/2) J_0 + B_0, J_1 = x A_1,
    Y_1 = (2/pi) (ln(x/2) J_1 - 1/x) + x B_1, with A_n and B_n functions of x^2."""
    u = x * x
    u -= X0**2 / 2
    a, b = _polynomial(_NEAR[n], u)
    log_term = np.log(0.5 * x)
    log_term *= 2.0 / np.pi
    if n:
        a *= x  # J_1
        b *= x
        b -= (2.0 / np.pi) / x
    out.real = a
    log_term *= a
    np.add(log_term, b, out=out.imag)


def _far(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """H_n(x) into out for x > X0: sqrt(2 / (pi x)) e^{ix} (Re G_n + i Im G_n), G_n a function of X0 / x."""
    s = (2.0 * X0) / x
    s -= 1.0
    g = _polynomial(_FAR[n], s)
    g *= np.sqrt((2.0 / np.pi) / x)
    g_re, g_im = g
    cos, sin = np.cos(x), np.sin(x)
    np.multiply(cos, g_re, out=out.real)
    out.real -= sin * g_im
    np.multiply(sin, g_re, out=out.imag)
    out.imag += cos * g_im


def hankel1(n: int, x):
    """H^(1)_n(x) = J_n(x) + i Y_n(x) for n = 0, 1 and x > 0; a 0-d input gives a scalar."""
    n = _check_order(n)
    if n > 1:
        raise DomainError(f"hankel1 evaluates orders 0 and 1; order {n} comes from hankel1_orders")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, len(flat), _CHUNK):
        part, dest = flat[lo:lo + _CHUNK], out[lo:lo + _CHUNK]
        smallest, largest = part.min(), part.max()
        if smallest <= 0:
            raise DomainError("hankel1 requires x > 0")
        if largest <= X0:  # the assembly's case: no gather or scatter
            _near(n, part, dest)
        elif smallest > X0:  # fields at the source and the measurement circle
            _far(n, part, dest)
        else:
            near = part <= X0
            for branch, mask in ((_near, near), (_far, ~near)):
                values = np.empty(np.count_nonzero(mask), dtype=complex)
                branch(n, part[mask], values)
                dest[mask] = values
    return out.reshape(x.shape)[()]


def hankel1_orders(m_max: int, x: float):
    """H^(1)_m(x) and d/dx H^(1)_m(x) for m = 0..m_max, with power-of-two scales.

    Returns ``(h, dh, exps)`` with H_m(x) = h[m] 2^exps[m] and
    H'_m(x) = dh[m] 2^exps[m], so orders far past the overflow of H_m
    stay finite (H_m(4) overflows near m = 190).  The ratio
    q_m = H_m / H_{m-1} follows the upward recursion
    q_{m+1} = 2m/x - 1/q_m, which is stable for the order-dominant Hankel
    solution, from q_0 = H_0 / H_{-1} = -H_0 / H_1; then
    H'_m = H_m (1/q_m - m/x).
    """
    m_max = _check_order(m_max)
    x = float(x)
    if not x > 0:
        raise DomainError("hankel1_orders requires x > 0")
    h = np.empty(m_max + 1, dtype=complex)
    dh = np.empty(m_max + 1, dtype=complex)
    exps = np.zeros(m_max + 1, dtype=int)
    value = complex(hankel1(0, x))
    q = -value / complex(hankel1(1, x))
    exp = 0
    for m in range(m_max + 1):
        if m:
            q = 2 * (m - 1) / x - 1.0 / q
            value *= q
        shift = math.frexp(abs(value))[1]
        value = complex(math.ldexp(value.real, -shift), math.ldexp(value.imag, -shift))
        exp += shift
        h[m], dh[m], exps[m] = value, value * (1.0 / q - m / x), exp
    return h, dh, exps


def bessel_j_orders(x, exps):
    """J_m(x) 2^exps[m] for m = 0..len(exps)-1 at every x >= 0, shape (len(exps), len(x)).

    Miller's algorithm: the downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1},
    started from zero far enough above the top order and the largest x for
    the minimal solution J to dominate, and normalised by
    J_0 + 2 sum_m J_{2m} = 1.  It runs on the scaled values, whose
    recurrence coefficients 2^(exps[m-1] - exps[m]) are exact, so a scale
    that cancels a fast-growing factor (such as ``hankel1_orders``'s) keeps
    J_m 2^exps[m] finite and accurate where J_m alone underflows.  A column
    whose values pass 2^500 is scaled down by 2^-500 from the current order
    up; what that flushes to zero lies below 2^-500 of the column's lower
    orders.
    """
    exps = np.asarray(exps, dtype=int)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x) & (x >= 0)):
        raise DomainError("bessel_j_orders requires a 1-d array of finite x >= 0")
    # J_m(x) ~ (x/2)^m / m! for x << 1: a node at the centre contributes to order 0 only
    x = np.maximum(x, 1e-100)
    top = len(exps) - 1
    span = max(top, math.ceil(np.max(x, initial=0.0)))
    start = span + 16 + math.isqrt(40 * span + 40)
    # scales of the orders above the top stay flat: plain J there
    scale = np.concatenate([exps, np.full(start - top + 1, exps[-1])]).tolist()
    out = np.empty((top + 1, len(x)))
    upper, current = np.zeros(len(x)), np.ones(len(x))  # orders m + 1 and m
    norm = np.zeros(len(x))
    for m in range(start, 0, -1):
        if m <= top:
            out[m] = current
        if m % 2 == 0:
            norm += math.ldexp(2.0, -scale[m]) * current
        lower = current / x  # not a reciprocal: its one rounding would bias every order alike
        lower *= math.ldexp(2 * m, scale[m - 1] - scale[m])
        lower -= math.ldexp(1.0, scale[m - 1] - scale[m + 1]) * upper
        upper, current = current, lower
        if current.max() > 2.0**500 or current.min() < -(2.0**500):
            big = np.abs(current) > 2.0**500
            for values in (current, upper, norm):
                values[big] *= 2.0**-500
            out[m:, big] *= 2.0**-500  # the orders already stored
    out[0] = current
    norm += math.ldexp(1.0, -scale[0]) * current
    out /= norm
    return out
