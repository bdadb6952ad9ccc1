"""Polygonal scenes, support functions and convex-hull assembly.

Conventions
-----------
Points are length-2 float arrays.  Polygons store their vertices in
counterclockwise order.  A direction ``omega`` carries its perpendicular
``omega_perp = (omega_y, -omega_x)``, chosen so that the ordered pair
(omega_perp, omega) has the orientation of the standard basis (e1, e2):
det[omega_perp | omega] = +1.  A ring is a closed chain of vertices whose
last vertex joins the first.  Two primitives answer every segment question:
``_crossing``, whether an edge of one ring properly crosses one of another's
(polygon validation, obstacle separation), and ``_ring_distance``, the
distance from points to a ring (obstacle separation, Hausdorff).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError

__all__ = [
    "Direction",
    "Polygon",
    "Scene",
    "support_function",
    "convex_hull_from_supports",
    "hausdorff_distance",
]


@dataclass(frozen=True)
class Direction:
    """Unit vector with its oriented perpendicular."""

    x: float
    y: float

    def __post_init__(self):
        n = math.hypot(self.x, self.y)
        if abs(n - 1.0) > 1e-12:
            raise GeometryError(f"direction must be unit length, got |d| = {n}")

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        return cls(math.cos(theta), math.sin(theta))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def perp(self) -> np.ndarray:
        """Perpendicular with det[perp | self] = +1."""
        return np.array([self.y, -self.x])

    @property
    def angle(self) -> float:
        return math.atan2(self.y, self.x)


def _signed_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(a, b, c):
    """Twice the signed area of the triangle (a, b, c), over trailing point axes."""
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _crossing(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether an edge of closed ring p properly crosses an edge of closed ring q.

    One edge of p at a time against all of q's.  Edges that only touch do
    not cross: an edge against itself or a neighbour sharing its endpoint
    has an orientation product of exactly 0.
    """
    c, d = q, np.roll(q, -1, axis=0)
    for a, b in zip(p, np.roll(p, -1, axis=0)):
        if np.any((_orient(c, d, a) * _orient(c, d, b) < 0) & (_orient(a, b, c) * _orient(a, b, d) < 0)):
            return True
    return False


def _ring_distance(points: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed ring's boundary, one edge of the ring at a time."""
    best = np.full(len(points), np.inf)
    for a, b in zip(ring, np.roll(ring, -1, axis=0)):
        ab = b - a
        t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points - (a + t[:, None] * ab), axis=1))
    return best


def _diameter(v: np.ndarray) -> float:
    """Largest distance between two of the points (0 for none)."""
    return float(np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1), initial=0.0))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices counterclockwise."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3 or not np.all(np.isfinite(v)):
            raise GeometryError("polygon needs at least 3 finite planar vertices")
        if np.any(np.linalg.norm(v - np.roll(v, -1, axis=0), axis=1) < 1e-12):
            raise GeometryError("consecutive vertices coincide")
        if _signed_area(v) <= 0:
            raise GeometryError("vertices must be counterclockwise (signed area > 0)")
        if _crossing(v, v):
            raise GeometryError("polygon is self-intersecting")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def diameter(self) -> float:
        return _diameter(self.vertices)

    def edges(self):
        """(start, end) vertex pairs in counterclockwise order, the last closing the ring."""
        return zip(self.vertices, np.roll(self.vertices, -1, axis=0))

    def contains(self, point) -> bool:
        """Even-odd test along the ray to +x, half-open on the boundary.

        A boundary point counts as inside where the interior lies just past
        it in +x, or in +y on a horizontal edge: a box holds its left and
        bottom sides, not its right and top.
        """
        x, y = float(point[0]), float(point[1])
        # plain floats: unpacking numpy scalars from edges() cost ~10x the arithmetic
        v = self.vertices.tolist()
        inside = False
        for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
            if (ay > y) != (by > y):
                t = (y - ay) / (by - ay)
                if x < ax + t * (bx - ax):
                    inside = not inside
        return inside


def _min_boundary_distance(p: Polygon, q: Polygon) -> float:
    """Minimum distance between the boundaries of two polygons: 0 where edges cross, else vertex to ring."""
    if _crossing(p.vertices, q.vertices):
        return 0.0
    return float(min(np.min(_ring_distance(p.vertices, q.vertices)), np.min(_ring_distance(q.vertices, p.vertices))))


@dataclass(frozen=True)
class Scene:
    """Obstacles plus the measurement circle and the point source.

    The measurement circle has radius ``radius_R`` about ``center``; the
    source sits on the larger circle of radius ``radius_R1``.  The list of
    obstacles may be empty (used by null tests and the free-space checks).
    """

    obstacles: tuple
    radius_R: float
    radius_R1: float
    source_y: np.ndarray
    wavenumber_k: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "source_y", np.asarray(self.source_y, dtype=float))
        if not np.all(np.isfinite([self.radius_R, self.radius_R1, self.wavenumber_k, *self.source_y, *self.center])):
            raise GeometryError("scene radii, wavenumber, source and center must be finite")
        if self.radius_R <= 0 or self.wavenumber_k <= 0:
            raise GeometryError("radius_R and wavenumber_k must be positive")
        if self.radius_R1 <= self.radius_R:
            raise GeometryError("radius_R1 must exceed radius_R")
        r1 = float(np.linalg.norm(self.source_y - self.center))
        if abs(r1 - self.radius_R1) > 1e-10:
            raise GeometryError(f"source must lie on the circle of radius {self.radius_R1}, |y - c| = {r1}")
        if np.any(np.linalg.norm(self.all_vertices - self.center, axis=1) >= self.radius_R):
            raise GeometryError("obstacle vertices must lie strictly inside B_R")
        for i, p in enumerate(self.obstacles):
            for q in self.obstacles[i + 1 :]:
                if _min_boundary_distance(p, q) <= 0 or p.contains(q.vertices[0]) or q.contains(p.vertices[0]):
                    raise GeometryError("obstacle closures must be pairwise disjoint")

    @property
    def diameter(self) -> float:
        """Diameter of the union of the obstacles (0 if empty)."""
        return _diameter(self.all_vertices)

    @property
    def condition_1_1_holds(self) -> bool:
        """diam D < dist(D, boundary of the source circle)."""
        dist = self.radius_R1 - float(np.max(np.linalg.norm(self.all_vertices - self.center, axis=1), initial=0.0))
        return self.diameter < dist

    @property
    def all_vertices(self) -> np.ndarray:
        return np.vstack([np.zeros((0, 2)), *(o.vertices for o in self.obstacles)])

    def to_dict(self) -> dict:
        return {
            "obstacles": [o.vertices.tolist() for o in self.obstacles],
            "center": self.center.tolist(),
            "R": self.radius_R,
            "R1": self.radius_R1,
            "source": self.source_y.tolist(),
            "k": self.wavenumber_k,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        if not isinstance(data, dict):
            raise GeometryError(f"scene must be a JSON object, got {type(data).__name__}")
        allowed = {"obstacles", "center", "R", "R1", "source", "k"}
        unknown = set(data) - allowed
        if unknown:
            raise GeometryError(f"unknown scene keys: {sorted(unknown)}")
        missing = {"obstacles", "R", "R1", "source", "k"} - set(data)
        if missing:
            raise GeometryError(f"missing scene keys: {sorted(missing)}")
        # bool is an int subclass, so float() and np.asarray would read
        # true/false as 1/0
        booleans = sorted(key for key, value in data.items() if _holds_bool(value))
        if booleans:
            raise GeometryError(f"scene fields must be numbers, not booleans: {booleans}")
        try:
            return cls(
                obstacles=tuple(Polygon(np.asarray(v, float)) for v in data["obstacles"]),
                center=np.asarray(data.get("center", (0.0, 0.0)), float),
                radius_R=float(data["R"]),
                radius_R1=float(data["R1"]),
                source_y=np.asarray(data["source"], float),
                wavenumber_k=float(data["k"]),
            )
        except (TypeError, ValueError) as exc:
            # a field that does not convert to a number or has the wrong shape
            raise GeometryError(f"malformed scene field: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _holds_bool(value) -> bool:
    """Whether a JSON value is a boolean or a list nesting one."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, bool):
            return True
        if isinstance(item, list):
            stack.extend(item)
    return False


def support_function(obstacles, omega: Direction) -> float:
    """max over all obstacle vertices of v . omega.

    The maximum of a linear functional over a polygon is attained at a
    vertex, so vertex enumeration is exact.
    """
    obstacles = list(obstacles)
    if not obstacles:
        raise DomainError("support function of an empty obstacle list")
    return max(float(np.max(o.vertices @ omega.vec)) for o in obstacles)


def _clip_halfplane(poly: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against {x . w <= h}.

    Each vertex a, with b its successor, gives a if it is kept, then the
    crossing a + t (b - a) if the edge changes side strictly.
    """
    vals = poly @ w - h
    nxt = np.roll(vals, -1)
    cross = ((vals < 0) & (0 < nxt)) | ((nxt < 0) & (0 < vals))
    t = np.divide(vals, vals - nxt, out=np.zeros_like(vals), where=cross)
    points = np.stack([poly, poly + t[:, None] * (np.roll(poly, -1, axis=0) - poly)], axis=1)
    return points[np.stack([vals <= 0, cross], axis=1)]


def _dedupe_ring(poly: np.ndarray, tol: float) -> np.ndarray:
    keep = [poly[0]]
    for p in poly[1:]:
        if np.linalg.norm(p - keep[-1]) > tol:
            keep.append(p)
    if len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= tol:
        keep.pop()
    return np.array(keep)


def convex_hull_from_supports(samples, clip_radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """Intersect the half-planes {x . omega <= h} inside the disc B_R.

    ``samples`` is an iterable of ``(Direction, h)`` pairs.  The running
    polygon starts as a 256-gon on the clipping circle so that sparse or
    inconsistent support data still yields a bounded region.  Returns the
    vertices counterclockwise; an empty (0, 2) array signals an infeasible
    intersection.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise DomainError("need at least 3 support samples")
    ang = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    poly = np.asarray(center, float) + clip_radius * np.column_stack([np.cos(ang), np.sin(ang)])
    for omega, h in samples:
        poly = _clip_halfplane(poly, omega.vec, float(h))
        if len(poly) == 0:
            return np.zeros((0, 2))
    return _dedupe_ring(poly, 1e-12 * clip_radius)


def _boundary_points(vertices: np.ndarray, per_edge: int = 64) -> np.ndarray:
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
    a, b = vertices[:, None, :], np.roll(vertices, -1, axis=0)[:, None, :]
    return (a + t * (b - a)).reshape(-1, 2)


def hausdorff_distance(vertices_a: np.ndarray, vertices_b: np.ndarray) -> float:
    """Hausdorff distance between two polygon boundaries (dense sampling)."""
    pa, pb = _boundary_points(vertices_a), _boundary_points(vertices_b)
    return max(float(np.max(_ring_distance(pa, vertices_b))), float(np.max(_ring_distance(pb, vertices_a))))
