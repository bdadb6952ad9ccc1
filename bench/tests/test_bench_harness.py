"""Tests for the benchmark's own helpers: span self time, the percentile
rule, seed-0 identity and seeded rotation, and failure counting."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from harness import Span, Tally, Tracer, rotate, rotation_angle, self_time_by_name, self_times, tail_percentile  # noqa: E402


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "r", 0)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "request", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: union covers 1..6
        _span(3, "c", 8.0, 12.0, parent=0),  # runs past the parent: clipped at 10
        _span(4, "inner", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    by_name = self_time_by_name(spans + [_span(5, "a", 20.0, 21.0)])
    assert by_name["a"] == pytest.approx(2.5 + 1.0)


def test_tracer_nests_and_tags_spans():
    tracer = Tracer(enabled=True)
    tracer.request, tracer.pass_index = "0:x", 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, inner.parent) == ("inner", outer.span_id)
    assert outer.parent is None and outer.request == "0:x" and outer.pass_index == 3
    assert outer.start <= inner.start <= inner.end <= outer.end

    off = Tracer(enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


@pytest.mark.parametrize("n, expected_q", [(5, None), (99, None), (100, 90.0), (999, 90.0),
                                           (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    samples = np.arange(n, dtype=float)
    tail = tail_percentile(samples)
    if expected_q is None:
        assert tail is None
    else:
        q, value = tail
        assert q == expected_q
        assert np.count_nonzero(samples > value) >= 10


def test_tally_counts_every_check_and_failed_request():
    tally = Tally()
    assert tally.check("ok", True)
    assert not tally.check("bad", False, "detail")
    tally.request_ok()
    tally.request_failed("req", ValueError("boom"))
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == pytest.approx(0.5)
    assert tally.failures == ["bad: detail", "req: raised ValueError: boom"]


def test_runner_counts_a_raising_request_and_goes_on():
    import measure

    class Flaky:
        quality = {}

        def requests(self):
            return [("boom", self._raise), ("fine", lambda: 1)]

        def _raise(self):
            raise RuntimeError("solver exploded")

        def check(self, label, output, tally):
            tally.check(f"{label} output", output == 2, f"got {output}")

    runner = measure.Runner(lambda layers: Flaky(), import_s=0.0)
    runner.run_pass(0)
    assert (runner.tally.attempted, runner.tally.failed) == (3, 2)
    assert len(runner.latencies) == 1
    assert runner.tally.failures == ["boom: raised RuntimeError: solver exploded", "fine output: got 1"]


def test_runner_counts_a_check_that_raises_as_failed():
    import measure

    class BadCheck:
        quality = {}

        def requests(self):
            return [("empty hull", lambda: None)]

        def check(self, label, output, tally):
            raise IndexError("no vertices")

    runner = measure.Runner(lambda layers: BadCheck(), import_s=0.0)
    runner.run_pass(0)
    assert (runner.tally.attempted, runner.tally.failed) == (2, 1)
    assert runner.tally.failures == ["empty hull checks: raised IndexError: no vertices"]


def test_seed_zero_is_the_identity():
    assert rotation_angle(0) == 0.0
    pts = np.array([[0.5, -0.25], [1.0, 2.0]])
    assert np.array_equal(rotate(pts, 0.0), pts)


@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_seeded_rotation_is_rigid_and_maps_grids_onto_themselves(seed):
    angle = rotation_angle(seed)
    steps = angle / (2 * math.pi / 64)
    assert 1 <= round(steps) <= 63 and steps == pytest.approx(round(steps))
    pts = np.array([[0.5, -0.25], [1.0, 2.0], [-0.3, 0.1]])
    moved = rotate(pts, angle)
    def distances(p):
        return np.linalg.norm(p[:, None] - p[None], axis=-1)

    def signed_area(p):
        (ax, ay), (bx, by) = p[1] - p[0], p[2] - p[0]
        return ax * by - ay * bx

    assert np.allclose(distances(moved), distances(pts))
    assert signed_area(moved) == pytest.approx(signed_area(pts))  # no reflection
    assert rotation_angle(seed) == angle  # same seed, same input


def test_workloads_at_seed_zero_build_todays_configuration():
    from workloads import L_SHAPE, SOURCE, FarfieldMap, HullFit, Layers

    hull = HullFit(0, Layers(Tracer(False)), BENCH)
    hull.setup()
    expected = [(j + 0.5) * 2 * np.pi / 64 for j in range(64)]
    assert [d.x for d in hull.directions] == [math.cos(a) for a in expected]
    assert [d.y for d in hull.directions] == [math.sin(a) for a in expected]
    assert np.array_equal(hull.scenes["L"].obstacles[0].vertices, L_SHAPE)
    assert np.array_equal(hull.scenes["L"].source_y, SOURCE)
    assert np.array_equal(hull.taus, np.geomspace(4.0, 40.0, 64))

    ff = FarfieldMap(0, Layers(Tracer(False)), BENCH)
    ff.setup()
    assert np.array_equal(ff.points, FarfieldMap.POINTS)


def test_workloads_rotate_scene_directions_and_points_together():
    from workloads import SQUARE, FarfieldMap, HullFit, Layers

    seed = 3
    angle = rotation_angle(seed)
    hull = HullFit(seed, Layers(Tracer(False)), BENCH)
    hull.setup()
    square = hull.scenes["square"]
    assert np.allclose(square.obstacles[0].vertices, rotate(SQUARE, angle))
    assert np.allclose(square.source_y, rotate([6.0, 0.0], angle))
    # the offset direction grid maps onto itself: same set, shifted start
    base = {round((j + 0.5) * 360 / 64, 6) % 360 for j in range(64)}
    assert {round(math.degrees(d.angle), 6) % 360 for d in hull.directions} == base

    ff = FarfieldMap(seed, Layers(Tracer(False)), BENCH)
    ff.setup()
    assert np.allclose(ff.points, rotate(FarfieldMap.POINTS, angle))
    inside, outside = ff.masks["square"]
    assert inside.any() and outside.any() and not (inside & outside).any()
