"""Cauchy data of the total field on the measurement circle.

Two routes produce the Neumann trace: directly from the solver
representation, and by expanding the measured Dirichlet data of the
scattered part in circular harmonics and extending each mode as the
radiating exterior solution c_n H_n(k r) / H_n(k R) e^{i n theta}.  The
second route is the realistic processing chain when only Dirichlet data
are measured, and agreement between the two is a solver cross-check.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ResolutionError
from .fields import PointSource
from .forward import ScatterSolution, scattered_field
from .specialfun import hankel1

__all__ = ["TraceData", "trace_direct", "recover_neumann", "trace_to_csv", "trace_from_csv"]

# recover_neumann's harmonic tail must fall below this fraction of the head
TAIL_TOL = 1e-6


def _check_trace_size(n: int) -> None:
    """A trace has a power-of-two number of nodes, at least 2."""
    if n < 2 or n & (n - 1):
        raise DomainError(f"trace size must be a power of two, at least 2 (got {n})")


def _circle_nodes(center, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced measurement nodes center + R (cos, sin) and their outward normals."""
    ang = 2 * np.pi * np.arange(n) / n
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    return center + radius * normals, normals


@dataclass(frozen=True)
class TraceData:
    """Total-field Dirichlet and Neumann values on equispaced circle nodes."""

    center: np.ndarray
    radius: float
    u: np.ndarray      # (N,) complex
    dudn: np.ndarray   # (N,) complex, outward radial derivative
    k: float

    def __post_init__(self):
        _check_trace_size(len(self.u))
        if len(self.dudn) != len(self.u):
            raise DomainError("u and dudn must have matching size")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.dudn))):
            raise DomainError("trace values must be finite")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def angles(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n) / self.n

    # built once per trace: every indicator sample reads both
    @cached_property
    def points(self) -> np.ndarray:
        return _circle_nodes(self.center, self.radius, self.n)[0]

    @cached_property
    def normals(self) -> np.ndarray:
        return _circle_nodes(self.center, self.radius, self.n)[1]


def trace_direct(sol: ScatterSolution, radius: float, n: int) -> TraceData:
    """Sample the total field and its radial derivative on the circle about the scene's center."""
    _check_trace_size(n)
    scene = sol.scene
    center = scene.center
    if isinstance(sol.incident, PointSource):
        r_y = np.linalg.norm(sol.incident.y - center)
        if abs(r_y - radius) < 1e-9 * radius:
            raise DomainError("source point lies on the measurement circle")
    pts, nu = _circle_nodes(center, radius, n)
    k = scene.wavenumber_k
    w, grad_w = scattered_field(sol, pts)
    u = sol.incident.value(k, pts) + w
    dudn = np.einsum("ic,ic->i", sol.incident.gradient(k, pts) + grad_w, nu.astype(complex))
    return TraceData(center=center, radius=radius, u=u, dudn=dudn, k=k)


def recover_neumann(u_values, k: float, y, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """Neumann trace from Dirichlet data via the exterior Dirichlet problem.

    The scattered part E = u - Phi_0(., y) is radiating outside the circle,
    so each circular harmonic extends in closed form and its radial
    derivative on the circle is c_n k H_n'(kR) / H_n(kR).  Raises
    ResolutionError when the harmonic tail of E has not decayed.
    """
    u_values = np.asarray(u_values, dtype=complex)
    n = len(u_values)
    _check_trace_size(n)
    center = np.asarray(center, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y - center) <= radius:
        raise DomainError("source must lie strictly outside the measurement circle")

    pts, nu = _circle_nodes(center, radius, n)
    source = PointSource(y)
    phi0 = source.value(k, pts)
    coeffs = np.fft.fft(u_values - phi0) / n

    orders = np.abs(np.fft.fftfreq(n, 1.0 / n).astype(int))
    head = np.max(np.abs(coeffs))
    if head > 0:
        tail = np.max(np.abs(coeffs[orders >= (3 * n) // 8]))
        if tail > TAIL_TOL * head:
            raise ResolutionError(
                f"harmonic tail {tail:.2e} has not decayed below {TAIL_TOL:.0e} "
                "of the head; increase the trace resolution"
            )

    # Radiating-mode multiplier k H_m'(kR) / H_m(kR) = k (H_{m-1} / H_m - m / x);
    # it is even in the order (H_{-m} = (-1)^m H_m).  H_m itself overflows
    # for large m, so build H_m / H_{m-1} by the upward recursion, which is
    # stable for the order-dominant Hankel solution; at m = 0 it is
    # H_0 / H_{-1} = -H_0 / H_1.
    x = k * radius
    m = np.arange(np.max(orders) + 1)
    ratio = np.empty(len(m), dtype=complex)  # ratio[m] = H_m(x) / H_{m-1}(x)
    ratio[0] = -hankel1(0, x) / hankel1(1, x)
    for j in range(len(m) - 1):
        ratio[j + 1] = 2 * j / x - 1.0 / ratio[j]
    multipliers = k * (1.0 / ratio - m / x)[orders]
    de_dn = np.fft.ifft(coeffs * multipliers) * n

    grad_phi0 = source.gradient(k, pts)
    dphi0_dn = np.einsum("ic,ic->i", grad_phi0, nu.astype(complex))
    return dphi0_dn + de_dn


def trace_to_csv(trace: TraceData, header_lines=()) -> str:
    """Serialize as CSV: angle, Re u, Im u, Re du/dn, Im du/dn."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(["angle", "re_u", "im_u", "re_dudn", "im_dudn"])
    for a, u, du in zip(trace.angles, trace.u, trace.dudn):
        writer.writerow(
            [repr(float(a)), repr(float(u.real)), repr(float(u.imag)),
             repr(float(du.real)), repr(float(du.imag))]
        )
    return buf.getvalue()


def trace_from_csv(text: str, center, radius: float, k: float) -> TraceData:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    body = rows[1:]  # skip column header
    u = np.array([float(r[1]) + 1j * float(r[2]) for r in body])
    dudn = np.array([float(r[3]) + 1j * float(r[4]) for r in body])
    return TraceData(center=np.asarray(center, float), radius=radius, u=u, dudn=dudn, k=k)
