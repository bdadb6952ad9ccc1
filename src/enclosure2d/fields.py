"""Incident fields.

Two incident fields drive the forward solver: a plane wave e^{ik x.d}
and the point source (i/4) H^(1)_0(k|x - y|).  ``normal_derivatives`` is
the solver's Neumann data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Direction
from .specialfun import hankel1

__all__ = [
    "PlaneWave",
    "PointSource",
    "normal_derivatives",
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
        radial = -0.25j * k * hankel1(1, k * r) / r  # (H_0)' = -H_1
        return _one_point(radial[..., None] * diff)


def normal_derivatives(incidents, k: float, x, normals) -> np.ndarray:
    """d(u_inc)/dnu at points x with unit normals, one column per field in order; plane waves in one product."""
    x, normals = _points(x), _points(normals)
    out = np.empty((len(x), len(incidents)), dtype=complex)
    planes = [j for j, inc in enumerate(incidents) if isinstance(inc, PlaneWave)]
    d = np.array([incidents[j].d.vec for j in planes]).reshape(-1, 2).T
    out[:, planes] = 1j * k * (normals @ d) * np.exp(1j * k * (x @ d))  # ik (nu.d_j) e^{ik x.d_j}
    for j, inc in enumerate(incidents):
        if not isinstance(inc, PlaneWave):  # the field's own gradient
            out[:, j] = np.einsum("ic,ic->i", inc.gradient(k, x), normals.astype(complex))
    return out
