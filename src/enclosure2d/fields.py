"""Incident fields and complex-exponential probe solutions.

Three incident fields drive the forward solver: a plane wave
e^{ik x.d}, the point source (i/4) H^(1)_0(k|x - y|), and the linearly
modulated plane field (x0 - x).theta e^{-ik x.d} with theta chosen so
that theta_perp = d.  The probe is the exponentially growing Helmholtz
solution e^{x.(tau omega + i sqrt(tau^2 + k^2) omega_perp)}, always
evaluated in a scaled form e^{-tau t_ref} * probe so that magnitudes stay
representable for large tau.  One probe may carry a whole tau grid,
which gives each probe quantity a leading tau axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Direction
from .specialfun import hankel1, hankel1_prime

__all__ = [
    "PlaneWave",
    "PointSource",
    "ModulatedPlane",
    "ProbeParams",
    "eval_probe",
    "probe_log_magnitude",
]


def _points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def _one_point(out):
    """A single evaluation point gives a scalar value or one gradient vector."""
    return out[0] if len(out) == 1 else out


@dataclass(frozen=True)
class PlaneWave:
    """Field e^{ik x.d}."""

    d: Direction

    def value(self, k: float, x):
        return _one_point(np.exp(1j * k * (_points(x) @ self.d.vec)))

    def gradient(self, k: float, x):
        v = np.exp(1j * k * (_points(x) @ self.d.vec))
        return _one_point(1j * k * v[..., None] * self.d.vec)


@dataclass(frozen=True)
class PointSource:
    """Field (i/4) H^(1)_0(k|x - y|)."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    def value(self, k: float, x):
        r = np.linalg.norm(_points(x) - self.y, axis=-1)
        if np.any(r == 0):
            raise DomainError("point source evaluated at its singularity")
        return _one_point(0.25j * hankel1(0, k * r))

    def gradient(self, k: float, x):
        diff = _points(x) - self.y
        r = np.linalg.norm(diff, axis=-1)
        if np.any(r == 0):
            raise DomainError("point source gradient at its singularity")
        radial = 0.25j * k * hankel1_prime(0, k * r) / r
        return _one_point(radial[..., None] * diff)


@dataclass(frozen=True)
class ModulatedPlane:
    """Field (x0 - x).theta e^{-ik x.d} with theta_perp = d."""

    x0: np.ndarray
    d: Direction

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def theta(self) -> np.ndarray:
        # theta = (-d_y, d_x) satisfies theta_perp = (theta_y, -theta_x) = d
        return np.array([-self.d.y, self.d.x])

    def value(self, k: float, x):
        x = _points(x)
        return _one_point(((self.x0 - x) @ self.theta) * np.exp(-1j * k * (x @ self.d.vec)))

    def gradient(self, k: float, x):
        x = _points(x)
        phase = np.exp(-1j * k * (x @ self.d.vec))
        amp = (self.x0 - x) @ self.theta
        return _one_point(phase[..., None] * (-self.theta - 1j * k * amp[..., None] * self.d.vec))


@dataclass(frozen=True)
class ProbeParams:
    """Probe direction, growth parameter and magnitude-scaling shift.

    ``tau`` is a positive float or a 1-D array of positive values (a tau
    grid).  For a grid of shape (T,), ``eval_probe`` returns (T, N) for N
    points, ``gradient_factor`` (T, 2) and ``s`` (T,), also when T = 1.
    """

    omega: Direction
    tau: float | np.ndarray
    k: float
    t_ref: float = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.tau) <= 0) or self.k <= 0:
            raise DomainError("tau and k must be positive")

    @property
    def s(self) -> float | np.ndarray:
        """Auxiliary parameter sqrt(tau^2 + k^2) + tau."""
        return np.hypot(self.tau, self.k) + self.tau

    @property
    def gradient_factor(self) -> np.ndarray:
        """Constant vector zeta with grad(probe) = zeta * probe."""
        tau = np.asarray(self.tau)[..., None]
        return tau * self.omega.vec + 1j * np.hypot(tau, self.k) * self.omega.perp


def _per_tau(p: ProbeParams, out: np.ndarray):
    """A tau grid keeps its (T, N) shape; a scalar tau gives the single-point shapes."""
    return out if np.ndim(p.tau) else _one_point(out)


def eval_probe(p: ProbeParams, x):
    """Scaled probe value e^{tau (x.omega - t_ref)} e^{i kappa x.omega_perp}."""
    x, tau = _points(x), np.asarray(p.tau)[..., None]
    return _per_tau(p, np.exp(tau * (x @ p.omega.vec - p.t_ref) + 1j * np.hypot(tau, p.k) * (x @ p.omega.perp)))


def probe_log_magnitude(p: ProbeParams, x):
    """log |scaled probe| = tau (x.omega - t_ref); overflow-free."""
    return _per_tau(p, np.asarray(p.tau)[..., None] * (_points(x) @ p.omega.vec - p.t_ref))
