import numpy as np
import pytest
from scipy.spatial import ConvexHull

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
