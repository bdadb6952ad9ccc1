"""Integer-order Bessel and Hankel functions with domain guards.

Thin wrappers over scipy.special, which meets the 1e-10 relative accuracy
budget everywhere we evaluate.  Only real arguments and integer orders are
supported; the derivative identities for the Hankel function of the first
kind are exposed as helpers because the solver and the circle-harmonic
extension both need them.

H^(1)_0 and H^(1)_1 are the kernels of the Nystrom matrix, the
single-layer field and the point source.  At 256 nodes H_1 takes 1.9 ms
of the 3-4 ms assembly, next to 6 ms for numpy's inverse; at 2048 nodes
0.13 s, next to 0.32-0.35 s of LU and 0.06-0.08 s of zgecon (2-core Xeon
VM, 2 OpenBLAS threads).  They are built as J + iY from scipy's
real-argument Cephes routines j0/y0/j1/y1, which agree with the general
complex-argument routine special.hankel1 to about 1e-14 relative and are
several times faster; higher orders, used only by the disc series, go
through special.hankel1.  This module is the one place that calls scipy's
Bessel and Hankel routines.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_y",
    "hankel1",
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
