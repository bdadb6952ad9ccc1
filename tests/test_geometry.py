import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from enclosure2d import geometry
from enclosure2d.errors import DomainError, GeometryError
from enclosure2d.geometry import (
    Direction,
    Polygon,
    Scene,
    convex_hull_from_supports,
    hausdorff_distance,
    support_function,
)
from conftest import L_VERTS, SQUARE_VERTS, TRIANGLE_VERTS, make_scene



def reference_contains(poly, point):
    """Polygon.contains as it was, iterating over numpy-scalar vertex pairs."""
    x, y = float(point[0]), float(point[1])
    inside = False
    for (ax, ay), (bx, by) in poly.edges():
        if (ay > y) != (by > y):
            t = (y - ay) / (by - ay)
            if x < ax + t * (bx - ax):
                inside = not inside
    return inside


UNIT_SQ = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
# counterclockwise with positive signed area, so only the crossing test refuses it
_STAR_ANGLES = np.pi / 2 + 0.8 * np.pi * np.arange(5)
PENTAGRAM = np.column_stack([np.cos(_STAR_ANGLES), np.sin(_STAR_ANGLES)])


class TestDirection:
    def test_unit_norm_enforced(self):
        with pytest.raises(GeometryError):
            Direction(0.6, 0.9)

    def test_perp_orientation(self):
        # det [perp | vec] = +1
        d = Direction.from_angle(0.37)
        det = d.perp[0] * d.vec[1] - d.perp[1] * d.vec[0]
        assert det == pytest.approx(1.0, abs=1e-14)

    def test_from_angle_roundtrip(self):
        d = Direction.from_angle(2.1)
        assert d.angle == pytest.approx(2.1, abs=1e-14)


class TestPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            Polygon(SQUARE_VERTS[::-1])

    def test_rejects_self_intersection(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(GeometryError):
            Polygon(bowtie)

    @pytest.mark.parametrize("verts, message", [
        (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), "consecutive vertices coincide"),
        (PENTAGRAM, "self-intersecting"),
    ], ids=["coincident", "pentagram"])
    def test_rejects_degenerate_outline(self, verts, message):
        with pytest.raises(GeometryError, match=message):
            Polygon(verts)

    def test_contains(self):
        assert UNIT_SQ.contains((0.5, 0.5))
        assert not UNIT_SQ.contains((1.5, 0.5))

    def test_diameter(self):
        assert UNIT_SQ.diameter == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("verts", [SQUARE_VERTS, TRIANGLE_VERTS, L_VERTS], ids=["square", "triangle", "L"])
    def test_contains_matches_numpy_scalar_reference(self, verts):
        poly = Polygon(verts)
        grid = np.linspace(-0.75, 0.75, 61)
        points = [(x, y) for x in grid for y in grid]
        # every vertex and 9 points along every edge, the ray test's ties
        for a, b in poly.edges():
            points += [tuple(a + t * (b - a)) for t in np.linspace(0.0, 1.0, 10, endpoint=False)]
        points += [(x, y) for x in (-0.5, 0.0, 0.5) for y in grid]
        assert [poly.contains(p) for p in points] == [reference_contains(poly, p) for p in points]


class TestSupportFunction:
    def test_side_aligned(self):
        assert support_function([UNIT_SQ], Direction(1.0, 0.0)) == pytest.approx(1.0)

    def test_corner(self):
        d = Direction.from_angle(np.pi / 4)
        assert support_function([UNIT_SQ], d) == pytest.approx(np.sqrt(2.0))

    def test_bottom_side(self):
        assert support_function([UNIT_SQ], Direction(0.0, -1.0)) == pytest.approx(0.0)

    def test_empty_obstacles(self):
        with pytest.raises(DomainError):
            support_function([], Direction(1.0, 0.0))

    def test_sublinearity(self):
        # h(w) <= |a| h(a/|a|) + |b| h(b/|b|) for w = (a+b)/|a+b|
        rng = np.random.default_rng(7)
        polys = [UNIT_SQ, Polygon(TRIANGLE_VERTS)]
        for _ in range(50):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            a, b = Direction.from_angle(t1), Direction.from_angle(t2)
            v = a.vec + b.vec
            if np.linalg.norm(v) < 1e-6:
                continue
            w = Direction(*(v / np.linalg.norm(v)))
            lhs = np.linalg.norm(v) * support_function(polys, w)
            rhs = support_function(polys, a) + support_function(polys, b)
            assert lhs <= rhs + 1e-12


def exact_supports(poly, n_dir):
    out = []
    for t in np.linspace(0, 2 * np.pi, n_dir, endpoint=False):
        d = Direction.from_angle(t)
        out.append((d, support_function([poly], d)))
    return out


class TestHullFromSupports:
    def test_exact_square_data(self):
        hull = convex_hull_from_supports(exact_supports(UNIT_SQ, 360), clip_radius=5.0)
        assert hausdorff_distance(hull, UNIT_SQ.vertices) < 1e-6

    def test_l_hexagon_gives_convex_hull(self):
        poly = Polygon(L_VERTS)
        hull = convex_hull_from_supports(exact_supports(poly, 360), clip_radius=5.0)
        ch = ConvexHull(L_VERTS)  # independent hull oracle
        expected = L_VERTS[ch.vertices]
        assert hausdorff_distance(hull, expected) < 1e-6
        # the reentrant corner (0, 0) must lie strictly inside the hull
        assert hausdorff_distance(hull, L_VERTS) > 0.1

    def test_three_directions_circumscribe_disc(self):
        samples = [
            (Direction.from_angle(t), 1.0)
            for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        ]
        hull = convex_hull_from_supports(samples, clip_radius=10.0)
        assert len(hull) == 3
        # equilateral triangle tangent to the unit circle: area 3*sqrt(3)
        x, y = hull[:, 0], hull[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert area == pytest.approx(3 * np.sqrt(3.0), rel=1e-10)

    def test_fewer_than_three_samples_rejected(self):
        with pytest.raises(DomainError, match="at least 3"):
            convex_hull_from_supports([(Direction(1.0, 0.0), 0.5), (Direction(0.0, 1.0), 0.5)], clip_radius=2.0)

    def test_refinement_monotone(self):
        # square data saturates immediately; the unit disc (h == 1) exposes
        # the circumscribed-polygon convergence n = 16 -> 64 -> 256
        t = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        disc = np.stack([np.cos(t), np.sin(t)], axis=1)
        dists = []
        for n in (16, 64, 256):
            samples = [
                (Direction.from_angle(a), 1.0)
                for a in np.linspace(0, 2 * np.pi, n, endpoint=False)
            ]
            hull = convex_hull_from_supports(samples, clip_radius=5.0)
            dists.append(hausdorff_distance(hull, disc))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-3

    def test_contains_polygon(self):
        hull = convex_hull_from_supports(exact_supports(UNIT_SQ, 16), clip_radius=5.0)
        hp = Polygon(hull if _ccw(hull) else hull[::-1])
        for v in UNIT_SQ.vertices:
            inward = 0.5 * (np.mean(UNIT_SQ.vertices, axis=0) - v)
            assert hp.contains(v + 1e-9 * inward)


def _ccw(verts):
    x, y = verts[:, 0], verts[:, 1]
    return (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) > 0


class TestScene:
    def test_roundtrip(self, square_scene):
        again = Scene.from_dict(square_scene.to_dict())
        np.testing.assert_allclose(again.source_y, square_scene.source_y)
        assert again.wavenumber_k == square_scene.wavenumber_k

    def test_unknown_key_rejected(self, square_scene):
        data = square_scene.to_dict()
        data["extra"] = 1
        with pytest.raises(Exception):
            Scene.from_dict(data)

    def test_source_off_circle_rejected(self):
        with pytest.raises(GeometryError):
            Scene(
                obstacles=(),
                radius_R=2.0,
                radius_R1=6.0,
                source_y=(5.0, 0.0),
                wavenumber_k=2.0,
            )

    def test_condition_1_1(self, square_scene):
        # diam sqrt(2) < dist(square, source) ~ 5.5
        assert square_scene.condition_1_1_holds

    def test_vertex_outside_circle_rejected(self):
        big = Polygon(4.0 * SQUARE_VERTS)
        with pytest.raises(GeometryError):
            Scene(
                obstacles=(big,),
                radius_R=2.0,
                radius_R1=6.0,
                source_y=(6.0, 0.0),
                wavenumber_k=2.0,
            )


def _box(x0, y0, x1, y1):
    return Polygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


class TestMultiObstacleScene:
    def test_disjoint_pair_accepted(self):
        scene = make_scene(None)
        pair = (_box(-0.6, -0.25, -0.1, 0.25), _box(0.1, -0.25, 0.6, 0.25))
        assert Scene(pair, scene.radius_R, scene.radius_R1, scene.source_y, scene.wavenumber_k).obstacles == pair

    @pytest.mark.parametrize("pair", [
        (_box(-0.5, -0.5, 0.1, 0.1), _box(-0.1, -0.1, 0.5, 0.5)),    # edges cross
        (_box(-0.5, -0.25, 0.0, 0.25), _box(0.0, -0.25, 0.5, 0.25)),  # one shared edge
        (_box(-0.5, -0.5, 0.5, 0.5), _box(-0.1, -0.1, 0.1, 0.1)),    # one inside the other
    ], ids=["overlapping", "edge-touching", "nested"])
    def test_pair_that_is_not_disjoint_rejected(self, pair):
        scene = make_scene(None)
        with pytest.raises(GeometryError, match="pairwise disjoint"):
            Scene(pair, scene.radius_R, scene.radius_R1, scene.source_y, scene.wavenumber_k)


def test_hausdorff_symmetry_and_zero():
    a = SQUARE_VERTS
    b = TRIANGLE_VERTS
    assert hausdorff_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    assert hausdorff_distance(a, b) == pytest.approx(hausdorff_distance(b, a))


# The scalar segment helpers that the ring primitives replaced, kept as references.

def reference_segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test for open segments (shared endpoints excluded)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def reference_point_segment_distance(p, a, b) -> float:
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def reference_self_intersecting(v) -> bool:
    """Polygon validation's pair loop, adjacent edges skipped."""
    n = len(v)
    return any(reference_segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n])
               for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1))


def reference_boundary_distance(p, q) -> float:
    """Edge pairs of two rings: 0 where they cross, else the endpoint-to-segment minimum."""

    def seg_dist(a, b, c, d):
        if reference_segments_intersect(a, b, c, d):
            return 0.0
        return min(reference_point_segment_distance(a, c, d), reference_point_segment_distance(b, c, d),
                   reference_point_segment_distance(c, a, b), reference_point_segment_distance(d, a, b))

    return min(seg_dist(a, b, c, d) for a, b in p.edges() for c, d in q.edges())


def reference_hull(samples, clip_radius, center=(0.0, 0.0)):
    """convex_hull_from_supports with the vertex-by-vertex Sutherland-Hodgman clip."""
    ang = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    poly = np.asarray(center, float) + clip_radius * np.column_stack([np.cos(ang), np.sin(ang)])
    for omega, h in samples:
        vals = poly @ omega.vec - float(h)
        out = []
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            va, vb = vals[i], vals[(i + 1) % len(poly)]
            if va <= 0:
                out.append(a)
            if (va < 0 < vb) or (vb < 0 < va):
                out.append(a + va / (va - vb) * (b - a))
        if not out:
            return np.zeros((0, 2))
        poly = np.array(out)
    return geometry._dedupe_ring(poly, 1e-12 * clip_radius)


def reference_hausdorff(vertices_a, vertices_b) -> float:
    def sample(v):
        t = np.linspace(0.0, 1.0, 64, endpoint=False)[:, None]
        return np.vstack([v[i] + t * (v[(i + 1) % len(v)] - v[i]) for i in range(len(v))])

    def directed(p, q):
        best = np.full(len(p), np.inf)
        for i in range(len(q)):
            a, b = q[i], q[(i + 1) % len(q)]
            ab = b - a
            t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
            best = np.minimum(best, np.linalg.norm(p - (a + t[:, None] * ab), axis=1))
        return float(np.max(best))

    return max(directed(sample(vertices_a), vertices_b), directed(sample(vertices_b), vertices_a))


def _random_ccw(rng, n, shuffled):
    """n points about the origin, oriented counterclockwise: shuffled, or in angle order with gaps under pi (simple)."""
    t = 2 * np.pi / n * (np.arange(n) + rng.uniform(0, 0.45, n))
    v = np.column_stack([np.cos(t), np.sin(t)]) * rng.uniform(0.2, 1.0, (n, 1))
    v = rng.permutation(v) if shuffled else v
    x, y = v[:, 0], v[:, 1]
    return v if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0 else v[::-1]


def _support_sets(count):
    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(3, 80))
        ang = rng.uniform(0, 2 * np.pi, n)
        center = rng.normal(0, 0.2, 2)
        h = rng.uniform(0.2, 1.0, n) + np.cos(ang) * center[0] + np.sin(ang) * center[1]
        yield [(Direction.from_angle(a), v) for a, v in zip(ang, h)], center


class TestRingPrimitives:
    def test_validation_matches_the_pair_loop(self):
        rng = np.random.default_rng(3)
        verdicts = []
        for trial in range(300):
            v = _random_ccw(rng, int(rng.integers(4, 14)), shuffled=trial % 2 == 1)
            try:
                Polygon(v)
                verdicts.append(False)
            except GeometryError as exc:
                assert "self-intersecting" in str(exc)
                verdicts.append(True)
            assert verdicts[-1] == reference_self_intersecting(v)
        assert 50 < sum(verdicts) < 250  # both verdicts are exercised
        # a vertex on a non-adjacent edge touches it without crossing: accepted, as by the pair loop
        pinched = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [3.0, 4.0], [2.0, 0.0], [1.0, 4.0], [0.0, 4.0]])
        assert not reference_self_intersecting(pinched)
        Polygon(pinched)

    @pytest.mark.parametrize("placement", ["touch", "cross", "apart"])
    def test_separation_matches_the_edge_pair_loop(self, placement):
        rng = np.random.default_rng(["touch", "cross", "apart"].index(placement))
        zero = 0
        for _ in range(100):
            p = Polygon(_random_ccw(rng, int(rng.integers(3, 9)), shuffled=False))
            q = _random_ccw(rng, int(rng.integers(3, 9)), shuffled=False)
            if placement == "touch":  # p turned half a turn about its first vertex shares that vertex
                q = 2 * p.vertices[0] - p.vertices
            elif placement == "apart":
                q = q + (2.5, rng.uniform(-1, 1))
            q = Polygon(q)
            got, want = geometry._min_boundary_distance(p, q), reference_boundary_distance(p, q)
            assert (got == 0) == (want == 0)
            assert abs(got - want) <= 1e-15
            zero += got == 0
        assert {"touch": zero == 100, "cross": zero > 50, "apart": zero == 0}[placement]

    def test_hull_matches_the_vertex_loop_clip(self):
        for samples, center in _support_sets(200):
            got, want = convex_hull_from_supports(samples, 2.0, center), reference_hull(samples, 2.0, center)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_hausdorff_matches_the_directed_loop(self):
        rng = np.random.default_rng(5)
        for samples, center in _support_sets(100):
            hull = convex_hull_from_supports(samples, 2.0, center)
            target = _random_ccw(rng, int(rng.integers(3, 12)), shuffled=False)
            assert hausdorff_distance(hull, target) == reference_hausdorff(hull, target)
            assert hausdorff_distance(target, hull) == reference_hausdorff(target, hull)

    def test_validating_1024_vertices_forms_no_n_squared_array(self):
        t = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        v = np.column_stack([np.cos(t), np.sin(t)])
        tracemalloc.start()
        try:
            Polygon(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024**2 // 16  # a sixteenth of one 1024 x 1024 float array
