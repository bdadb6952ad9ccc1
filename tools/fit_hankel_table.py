"""Write src/enclosure2d/hankel_table.py: polynomial expansions of H_0 and H_1 of real argument.

Run from the repository root (needs mpmath, the ``test`` extra):

    python tools/fit_hankel_table.py

The table is a pure function of the constants below: mpmath evaluates the
Bessel functions at 40 digits, so every run on every machine writes the
same file, and CI checks that the committed file matches.

Near 0 < x <= X0 each of J_0, Y_0, J_1 and Y_1 is an entire function of
t = x^2 once the logarithm and the pole of Y are split off:

    J_0 = A_0,    Y_0 = (2/pi) ln(x/2) J_0 + B_0,
    J_1 = x A_1,  Y_1 = (2/pi) (ln(x/2) J_1 - 1/x) + x B_1

(Abramowitz & Stegun 9.1.12-9.1.13).  Past X0 the Hankel modulus-phase form
H_n(x) = sqrt(2 / (pi x)) e^{ix} G_n(X0 / x) leaves G_n smooth on [0, 1]
(A&S 9.2.5-9.2.10), with G_n(0) = e^{-i (2n + 1) pi/4}; the table holds
its real and imaginary parts.  Each function is expanded in Chebyshev
polynomials of s on [-1, 1] (s = 2 t / X0^2 - 1 near, s = 2 X0 / x - 1
far) from its values at NODES Chebyshev points and truncated after the
stated degree, where the coefficients left out sum to about 1e-17.  The
table holds that polynomial's coefficients of 1, s, s^2, ...: they sum
in magnitude to at most 1.4, so Horner's rule (specialfun runs it in s^2
on the even and odd powers together) loses no more to rounding than the
Chebyshev recurrence, at one product and one sum per degree.  Near, they are scaled to powers of u = x^2 - X0^2 / 2 =
(X0^2 / 2) s, which saves one pass and rounds alike, since X0^2 / 2 is a
power of two.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

mp.mp.dps = 40
X0 = 4
NEAR_DEGREE, FAR_DEGREE = 11, 20
NODES = 64
OUT = Path(__file__).resolve().parents[1] / "src" / "enclosure2d" / "hankel_table.py"


def chebyshev(f, degree: int) -> list:
    """Chebyshev coefficients c_0..c_degree of f on [-1, 1], from its values at NODES points."""
    angles = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(mp.cos(a)) for a in angles]
    return [(2 if k else 1) * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / NODES
            for k in range(degree + 1)]


def monomial(coeffs: list) -> list:
    """Coefficients of 1, s, s^2, ... of sum_k coeffs[k] T_k(s)."""
    out = [mp.mpf(0)] * len(coeffs)
    lower, current = [0, 1], [1]  # T_{-1} = T_1 = s and T_0, as coefficient lists
    for c in coeffs:
        for i, p in enumerate(current):
            out[i] += c * p
        upper = [0] + [2 * p for p in current]  # T_{k+1} = 2 s T_k - T_{k-1}
        for i, p in enumerate(lower):
            upper[i] -= p
        lower, current = current, upper
    return out


def near_parts(n: int, s):
    """(A_n, B_n) at s."""
    x = mp.sqrt((s + 1) / 2 * X0**2)
    j, y = mp.besselj(n, x), mp.bessely(n, x)
    log_term = 2 / mp.pi * mp.log(x / 2)
    if n == 0:
        return j, y - log_term * j
    return j / x, (y - log_term * j + 2 / (mp.pi * x)) / x


def far_part(n: int, s):
    """G_n at s: H_n(x) e^{-ix} sqrt(pi x / 2) with x = X0 / u, u = (s + 1) / 2."""
    x = X0 / ((s + 1) / 2)
    return mp.hankel1(n, x) * mp.expj(-x) * mp.sqrt(mp.pi * x / 2)


def rows(n: int) -> tuple[list, list]:
    near = [[c * (2 / mp.mpf(X0) ** 2) ** k for k, c in enumerate(monomial(chebyshev(
        lambda s, i=i: near_parts(n, s)[i], NEAR_DEGREE)))] for i in (0, 1)]
    far = monomial(chebyshev(lambda s: far_part(n, s), FAR_DEGREE))
    return near, [[c.real for c in far], [c.imag for c in far]]


def render(name: str, comment: str, values) -> list[str]:
    lines = [f"    (  # {name}: {comment}"]
    floats = [repr(float(v)) for v in values]
    lines += ["        " + ", ".join(floats[i:i + 4]) + "," for i in range(0, len(floats), 4)]
    return lines + ["    ),"]


def main() -> None:
    tables = {n: rows(n) for n in (0, 1)}
    out = [
        '"""Polynomial coefficients, lowest power first, of the expansions of H_0 and H_1 of real argument.',
        "",
        "Written by tools/fit_hankel_table.py, which documents the expansions; do not edit.",
        '"""',
        "",
        f"X0 = {float(X0)!r}",
        "# NEAR[n] = (A_n, B_n) in u = x^2 - X0^2 / 2, for 0 < x <= X0",
        "NEAR = (",
    ]
    for n in (0, 1):
        out += ["    ("]
        out += ["    " + line for line in render(f"A_{n}", "J_0" if n == 0 else "J_1 / x", tables[n][0][0])]
        out += ["    " + line for line in render(f"B_{n}", "Y_0 less its log term" if n == 0
                                              else "(Y_1 less its log and pole terms) / x", tables[n][0][1])]
        out += ["    ),"]
    out += [")", "# FAR[n] = (Re G_n, Im G_n) in s = 2 X0 / x - 1, for x > X0", "FAR = ("]
    for n in (0, 1):
        out += ["    ("]
        for part, values in zip(("Re", "Im"), tables[n][1]):
            out += ["    " + line for line in render(f"{part} G_{n}", "H_n(x) e^{-ix} sqrt(pi x / 2)", values)]
        out += ["    ),"]
    out += [")", ""]
    OUT.write_text("\n".join(out))


if __name__ == "__main__":
    main()
