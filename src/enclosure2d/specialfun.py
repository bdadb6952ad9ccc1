"""Integer-order Bessel and Hankel functions with domain guards.

Thin wrappers over scipy.special, which meets the 1e-10 relative accuracy
budget everywhere we evaluate.  Only real arguments and integer orders are
supported; the derivative identities for the Hankel function of the first
kind are exposed as helpers because the solver and the circle-harmonic
extension both need them.

H^(1)_0 and H^(1)_1 are the kernels of the Nystrom matrix, the
single-layer field and the point source.  They are built as J + iY from
scipy's real-argument Cephes routines j0/y0/j1/y1, which agree with the
general complex-argument routine special.hankel1 to about 1e-14 relative
and are several times faster; higher orders, used only by the disc series,
go through special.hankel1.  The assembly evaluates H_1 once per
symmetric node pair: at 2048 nodes that is 52 ms of a 159 ms assembly
(231 ms when every pair was evaluated), next to 0.32-0.35 s of LU; at 256
nodes 0.7 ms of 2.1 ms, next to 6 ms for numpy's inverse (2-core Xeon VM,
2 OpenBLAS threads).

The measurement-circle series needs every order at once: ``hankel1_orders``
gives H_m(kR) and H'_m(kR) by the upward ratio recursion and
``bessel_j_orders`` gives J_m(k r_j) at every node by Miller's downward
recurrence, both scaled by the same powers of two so that their products
stay finite where H_m overflows.  On the 2048-node 128-gon (k = 2, R = 2,
33 orders, 512 circle nodes) the whole circle trace takes 2.2 ms, of
which Miller's recurrence is 1.0 ms and the Hankel orders 0.05 ms; the
pair sum it replaced took 99 ms.  This module is the one place that calls
scipy's Bessel and Hankel routines.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "bessel_j",
    "bessel_j_orders",
    "bessel_j_prime",
    "bessel_y",
    "hankel1",
    "hankel1_orders",
    "hankel1_prime",
]


def _check_order(n) -> int:
    if int(n) != n or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    return int(n)


def bessel_j(n: int, x):
    """J_n(x) for x >= 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_j requires x >= 0")
    return special.jv(n, x)


def bessel_j_prime(n: int, x):
    """d/dx J_n(x) for x >= 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_j_prime requires x >= 0")
    return special.jvp(n, x)


def bessel_y(n: int, x):
    """Y_n(x) for x > 0 (logarithmic singularity at 0)."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_y requires x > 0")
    return special.yv(n, x)


# real-argument (J_n, Y_n) pairs for the orders the kernels use
_LOW_ORDER = {0: (special.j0, special.y0), 1: (special.j1, special.y1)}


def hankel1(n: int, x):
    """H^(1)_n(x) = J_n(x) + i Y_n(x) for x > 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("hankel1 requires x > 0")
    if n in _LOW_ORDER:
        j, y = _LOW_ORDER[n]
        # written into one complex array: no N^2 float temporaries, and a
        # 0-d input gives a scalar, as from special.hankel1
        out = np.empty(x.shape, dtype=complex)
        j(x, out=out.real)
        y(x, out=out.imag)
        return out[()]
    return special.hankel1(n, x)


def hankel1_prime(n: int, x):
    """d/dx H^(1)_n(x).

    Uses (H_0)' = -H_1 and (H_n)' = H_{n-1} - (n/x) H_n for n >= 1.
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("hankel1_prime requires x > 0")
    if n == 0:
        return -hankel1(1, x)
    return hankel1(n - 1, x) - (n / x) * hankel1(n, x)


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
