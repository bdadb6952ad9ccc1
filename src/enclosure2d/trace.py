"""Cauchy data of the total field on the measurement circle, and its modes.

``circle_modes`` reads Dirichlet data and the known incident field alone:
one FFT of w = u - u_inc on the circle gives the radiating field
sum_n a_n H_n(k r) e^{i n theta}, a_n = w_n / H_n(kR), about its centre.
Two routes read those modes (``TraceData.modes`` computes them once per
trace): ``recover_neumann`` returns the Neumann trace a_n k H'_n(kR), and
``indicator.compute_samples`` pairs them with the probe's expansion over a
tau grid, whose one definition is the ``ProbeTable`` that
``TraceData.probe_table`` keeps for the last grid.

``trace_direct`` expands the solved boundary density instead: by Graf's
addition theorem the single-layer sum becomes one series in the same
harmonics (``forward.circle_field``).  The two start from different data,
the density on the mesh against n samples of u, so their agreement
(acceptance criterion 3) checks that the samples resolve the scattered
modes and that the incident part splits off exactly.  Both take H_m and
H'_m from ``specialfun.hankel1_orders``, so the tests pin the density
series to the direct single-layer sum (``forward.scattered_field``) and
the helper to scipy's Hankel functions of every order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ResolutionError
from .fields import PlaneWave, PointSource, normal_derivatives
from .forward import ScatterSolution, circle_field, circle_nodes
from .specialfun import hankel1_orders

__all__ = ["CircleModes", "ProbeTable", "TraceData", "check_probe_table_size", "circle_modes", "trace_direct",
           "recover_neumann", "trace_to_csv", "trace_from_csv"]

# the harmonic tail of the scattered part must fall below this fraction of the head
TAIL_TOL = 1e-6
# (tau x trace node) entries of the largest probe table formed: 32 MB of complex
PROBE_TABLE_MAX_ENTRIES = 2**21


def _check_trace_size(n: int) -> None:
    """A trace has a power-of-two number of nodes, at least 2."""
    if n < 2 or n & (n - 1):
        raise DomainError(f"trace size must be a power of two, at least 2 (got {n})")


@dataclass(frozen=True)
class CircleModes:
    """Harmonics w_n = a_n H_n(kR) of u - u_inc on the circle, over the FFT's signed ``orders``.

    With ``specialfun.hankel1_orders``'s power-of-two scales no order
    overflows: H_n(kR) = h 2^exps, H'_n(kR) = dh 2^exps, a_n = a 2^-exps.
    ``tail`` is delta, the median |w_n| over |n| >= 3n/8, where the field
    has decayed below TAIL_TOL of its head: the noise that every mode carries.
    """

    orders: np.ndarray
    w: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    exps: np.ndarray
    tail: float

    @property
    def a(self) -> np.ndarray:
        return self.w / self.h


def circle_modes(u_values, incident, k: float, center, radius: float) -> CircleModes:
    """The modes of u - u_inc on the n equispaced ``circle_nodes`` of |x - center| = radius.

    u_inc must be regular in the disc, so a point source must lie strictly
    outside the circle (DomainError).  Raises ResolutionError when the
    harmonic tail of u - u_inc has not decayed below TAIL_TOL of its head.
    """
    u_values = np.asarray(u_values, dtype=complex)
    n = len(u_values)
    _check_trace_size(n)
    center = np.asarray(center, dtype=float)
    if isinstance(incident, PointSource) and np.linalg.norm(incident.y - center) <= radius:
        raise DomainError("source must lie strictly outside the measurement circle")

    pts, _ = circle_nodes(center, radius, n)
    coeffs = np.fft.fft(u_values - incident.value(k, pts)) / n
    orders = np.fft.fftfreq(n, 1.0 / n).astype(int)
    tail = np.abs(coeffs[np.abs(orders) >= (3 * n) // 8])
    head = np.max(np.abs(coeffs))
    if head > 0 and np.max(tail) > TAIL_TOL * head:
        raise ResolutionError(f"harmonic tail {np.max(tail):.2e} has not decayed below {TAIL_TOL:.0e} "
                              "of the head; increase the trace resolution")

    # H_{-m} = (-1)^m H_m, and the same for H'
    h, dh, exps = hankel1_orders(n // 2, k * radius)
    sign = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    h, dh, exps = sign * h[np.abs(orders)], sign * dh[np.abs(orders)], exps[np.abs(orders)]
    return CircleModes(orders=orders, w=coeffs, h=h, dh=dh, exps=exps, tail=float(np.median(tail)))


@dataclass(frozen=True)
class ProbeTable:
    """The probe e^{x.(tau omega + i kappa omega_perp)} over one tau grid, for one trace.

    ``kappa`` is sqrt(tau^2 + k^2) and ``s`` is kappa + tau.  With eta = asinh(tau/k), the
    direction-independent ``scale`` is e^{n eta - tau R} 2^-exps over the modes' orders, one row per
    tau: times a it is a_n e^{n eta - tau R}, over |h| it is |g_n| = |e^{n eta - tau R} / H_n(kR)|.
    It is stored complex, the type its product with the complex modes promotes it to.
    ``g_norm`` is ||g(tau)||_2.
    """

    taus: np.ndarray
    kappa: np.ndarray
    s: np.ndarray
    scale: np.ndarray
    g_norm: np.ndarray


def check_probe_table_size(tau_count: int, trace_n: int) -> None:
    """ResolutionError when a probe table of tau_count x trace_n entries would pass PROBE_TABLE_MAX_ENTRIES."""
    if tau_count * trace_n > PROBE_TABLE_MAX_ENTRIES:
        raise ResolutionError(f"a probe table of {tau_count} tau over {trace_n} trace nodes passes "
                              f"{PROBE_TABLE_MAX_ENTRIES} entries; use fewer tau samples or trace nodes")


def _build_probe_table(trace: TraceData, taus: np.ndarray) -> ProbeTable:
    """The trace's ``ProbeTable`` over ``taus``; ResolutionError, before it is formed, past the budget or the band."""
    check_probe_table_size(len(taus), trace.n)
    kappa = np.hypot(taus, trace.k)
    band = 2 * float(np.max(kappa)) * trace.radius
    if band > trace.n:
        raise ResolutionError(f"trace has {trace.n} nodes but tau={np.max(taus)} needs 2 kappa R = {band:.1f}")
    modes = trace.modes
    eta = np.arcsinh(taus / trace.k)
    scale = np.exp(eta[:, None] * modes.orders - (taus * trace.radius)[:, None] - math.log(2) * modes.exps)
    return ProbeTable(taus=taus, kappa=kappa, s=kappa + taus, scale=scale.astype(complex),
                      g_norm=np.sqrt(scale**2 @ np.abs(modes.h) ** -2))


@dataclass(frozen=True)
class TraceData:
    """Total-field Dirichlet and Neumann values on equispaced circle nodes, and the incident field.

    The inversion reads ``modes`` (u and ``incident``) and ``probe_table``; ``dudn`` serves the forward checks.
    """

    center: np.ndarray
    radius: float
    u: np.ndarray      # (N,) complex
    dudn: np.ndarray   # (N,) complex, outward radial derivative
    k: float
    incident: PointSource | PlaneWave

    def __post_init__(self):
        _check_trace_size(len(self.u))
        if not 0 < self.k < np.inf:
            raise DomainError(f"k must be finite and positive (got {self.k})")
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

    # built once per trace: every direction's indicator samples read it
    @cached_property
    def modes(self) -> CircleModes:
        return circle_modes(self.u, self.incident, self.k, self.center, self.radius)

    def probe_table(self, taus: np.ndarray) -> ProbeTable:
        """The ``ProbeTable`` over a grid that ``indicator.check_tau_grid`` admits.

        The trace keeps the table of the last grid it was asked for, so a
        sweep of directions over one grid builds it once.  |g_n| peaks near
        n = kappa R, so a trace of fewer than 2 kappa R nodes at the largest
        tau, or a table past PROBE_TABLE_MAX_ENTRIES, raises ResolutionError on every call.
        """
        table = self.__dict__.get("_probe_table")
        if table is None or not np.array_equal(table.taus, taus):
            table = _build_probe_table(self, np.array(taus, dtype=float))
            object.__setattr__(self, "_probe_table", table)
        return table


def trace_direct(sol: ScatterSolution, radius: float, n: int) -> TraceData:
    """Sample the total field and its radial derivative on the circle about the scene's center.

    Raises DomainError for a trace size that is not a power of two of at
    least 2 and for a point source on the circle; then what
    ``forward.circle_field`` raises: NearFieldError for a circle node
    within 3 panel lengths of the boundary, DomainError for a circle that
    does not enclose every obstacle vertex, ResolutionError for one whose
    series would pass ``forward.SERIES_MAX_ENTRIES`` terms.
    """
    _check_trace_size(n)
    scene = sol.scene
    center = scene.center
    if isinstance(sol.incident, PointSource):
        r_y = np.linalg.norm(sol.incident.y - center)
        if abs(r_y - radius) < 1e-9 * radius:
            raise DomainError("source point lies on the measurement circle")
    w, dwdr = circle_field(sol, radius, n)
    pts, nu = circle_nodes(center, radius, n)
    k = scene.wavenumber_k
    u = sol.incident.value(k, pts) + w
    dudn = np.einsum("ic,ic->i", sol.incident.gradient(k, pts), nu.astype(complex)) + dwdr
    return TraceData(center=center, radius=radius, u=u, dudn=dudn, k=k, incident=sol.incident)


def recover_neumann(u_values, k: float, y, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """Neumann trace from Dirichlet data via the exterior Dirichlet problem.

    The scattered part u - Phi_0(., y) is radiating outside the circle, so
    each mode a_n H_n(k r) e^{i n theta} of ``circle_modes`` has radial
    derivative a_n k H'_n(kR) on it.  Raises what ``circle_modes`` raises.
    """
    source = PointSource(y)
    modes = circle_modes(u_values, source, k, center, radius)
    n = len(modes.w)
    # a_n k H'_n = w_n k H'_n / H_n: the power-of-two scales cancel
    de_dn = np.fft.ifft(modes.w * (k * (modes.dh / modes.h))) * n
    pts, nu = circle_nodes(np.asarray(center, dtype=float), radius, n)
    return normal_derivatives([source], k, pts, nu)[:, 0] + de_dn


def trace_to_csv(trace: TraceData, header_lines=()) -> str:
    """Serialize as CSV: angle, Re u, Im u, Re du/dn, Im du/dn."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(["angle", "re_u", "im_u", "re_dudn", "im_dudn"])
    columns = (trace.angles, trace.u.real, trace.u.imag, trace.dudn.real, trace.dudn.imag)
    writer.writerows([repr(v) for v in row] for row in zip(*(c.tolist() for c in columns)))
    return buf.getvalue()


def trace_from_csv(text: str, center, radius: float, k: float, incident) -> TraceData:
    """The trace that ``trace_to_csv`` wrote, lit by the known ``incident`` field."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    body = rows[1:]  # skip column header
    u = np.array([float(r[1]) + 1j * float(r[2]) for r in body])
    dudn = np.array([float(r[3]) + 1j * float(r[4]) for r in body])
    return TraceData(center=np.asarray(center, float), radius=radius, u=u, dudn=dudn, k=k, incident=incident)
