"""Acceptance suite: one test per acceptance criterion, one report line each.

Every test prints a single ``[PASS]``/``[FAIL] criterion N`` line (collected
into ``acceptance_report.txt`` next to this file) before asserting, so a red
criterion still leaves a readable diagnosis in the report.  The file is
written only when all criteria recorded a line, so a partial run (``-x``,
``-k``, a deselected criterion) leaves the tracked report as it was.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from enclosure2d.farfield import (
    assemble_far_field_operator,
    disc_far_field_operator,
    unsolvability_diagnostic,
)
from enclosure2d.fields import PlaneWave, PointSource
from enclosure2d.forward import DiscSeriesSolution, build_mesh, eval_total, solve_scattering
from enclosure2d.geometry import Direction, Polygon, Scene, hausdorff_distance
from enclosure2d.indicator import (
    classify_threshold,
    compute_samples,
    estimate_support,
    reconstruct_hull,
)
from enclosure2d.trace import recover_neumann, trace_direct

from conftest import (
    L_VERTS,
    SQUARE_VERTS,
    TRIANGLE_VERTS,
    eval_probe,
    make_scene,
    point_source_far_field_check,
    quadrature_samples,
)

N_CRITERIA = 11
_REPORT_LINES = {}


def _record(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    _REPORT_LINES[num] = line
    print(line)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    if sorted(_REPORT_LINES) == list(range(1, N_CRITERIA + 1)):
        path = Path(__file__).parent / "acceptance_report.txt"
        path.write_text("\n".join(_REPORT_LINES[num] for num in range(1, N_CRITERIA + 1)) + "\n")


def _square_support(omega):
    return float(np.max(SQUARE_VERTS @ omega.vec))


# directions on the unit-square faces away from support-line ties; each sees
# a single strictly-dominant corner
SUPPORT_ANGLES = (0.3, 1.0, 1.3, 1.8, 2.2, 2.6, 5.0, 5.5)
SUPPORT_TOL = 0.03 * np.sqrt(2.0)  # 3% of the square's diameter


def test_criterion_1_disc_limit():
    """Regular-polygon solutions converge to the closed-form disc series."""
    start = time.monotonic()
    inc = PlaneWave(Direction.from_angle(0.0))
    th = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    pts = 1.5 * np.column_stack([np.cos(th), np.sin(th)])
    oracle = DiscSeriesSolution((0.0, 0.0), 1.0, 2.0, inc)
    ref = np.array([oracle.eval_total(p) for p in pts])
    errs = {}
    for n in (64, 128):
        ang = 2 * np.pi * np.arange(n) / n + np.pi / n
        gon = Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
        scene = Scene(
            obstacles=(gon,),
            radius_R=2.0,
            radius_R1=6.0,
            source_y=(6.0, 0.0),
            wavenumber_k=2.0,
        )
        sol = solve_scattering(scene, inc, build_mesh(scene, nodes_per_edge=16))
        vals = np.array([eval_total(sol, p) for p in pts])
        errs[n] = np.max(np.abs(vals - ref)) / np.max(np.abs(ref))
    elapsed = time.monotonic() - start
    ok = errs[64] < 1e-2 and errs[128] < errs[64] and elapsed < 30.0
    _record(
        1,
        ok,
        f"disc-series agreement 64-gon {errs[64]:.2e} (tol 1e-2), "
        f"128-gon {errs[128]:.2e}, time limit 30s",
    )
    assert ok, f"took {elapsed:.1f}s"


def test_criterion_2_reciprocity(square_scene):
    """The obstacle Green function is symmetric in source and receiver."""
    mesh = build_mesh(square_scene, nodes_per_edge=64)
    pairs = [
        ((1.2, 0.5), (-0.9, -1.1)),
        ((1.5, 0.2), (-0.3, 1.6)),
        ((0.0, -1.4), (1.7, 0.4)),
    ]
    defects = []
    for a, b in pairs:
        sa = solve_scattering(square_scene, PointSource(a), mesh)
        sb = solve_scattering(square_scene, PointSource(b), mesh)
        vab = eval_total(sa, b)
        vba = eval_total(sb, a)
        defects.append(abs(vab - vba) / max(abs(vab), abs(vba)))
    ok = max(defects) < 1e-4
    _record(2, ok, f"max relative reciprocity defect {max(defects):.2e} (tol 1e-4)")
    assert ok


def test_criterion_3_neumann_routes(square_sol, square_scene):
    """Dirichlet-to-Neumann recovery agrees with the direct normal trace."""
    tr = trace_direct(square_sol, square_scene.radius_R, 256)
    rec = recover_neumann(
        tr.u,
        square_scene.wavenumber_k,
        square_scene.source_y,
        square_scene.radius_R,
        square_scene.center,
    )
    rel = np.max(np.abs(rec - tr.dudn)) / np.max(np.abs(tr.dudn))
    ok = rel < 1e-6
    _record(3, ok, f"Neumann route max relative difference {rel:.2e} (tol 1e-6)")
    assert ok


def test_criterion_4_empty_scene_null(empty_scene, taus):
    """Without an obstacle the indicator vanishes to quadrature noise.

    It reads the Cauchy-data quadrature of the tests, whose floor is the
    integrand's L1 mass; the package's indicator has no quadrature, and on
    this scene its modes are exact zeros (``TestGreenNull``).
    """
    mesh = build_mesh(empty_scene)
    sol = solve_scattering(empty_scene, PointSource(empty_scene.source_y), mesh)
    tr = trace_direct(sol, empty_scene.radius_R, 512)
    # |J| < 1e-12 * (L1 mass of the integrand), expressed through the
    # stored eps-referenced noise floor
    margin = np.log(1e-12) - np.log(np.finfo(float).eps)
    worst = -np.inf
    for ang in (0.0, 0.7, 2.1, 4.0):
        samples = quadrature_samples(tr, Direction.from_angle(ang), taus)
        worst = max(worst, float(np.max(samples.log_magnitudes - (samples.log_noise_floors + margin))))
    ok = worst < 0
    _record(
        4,
        ok,
        f"empty-scene indicator below 1e-12 of integrand mass "
        f"(worst log-margin {worst:.1f})",
    )
    assert ok


def test_criterion_5_point_source_support(square_trace, taus):
    """Point-source indicator slopes recover the square's support function."""
    start = time.monotonic()
    errs = []
    for ang in SUPPORT_ANGLES:
        om = Direction.from_angle(ang)
        est = estimate_support(compute_samples(square_trace, om, taus))
        errs.append(abs(est.h_hat - _square_support(om)))
    elapsed = time.monotonic() - start
    ok = max(errs) <= SUPPORT_TOL and elapsed < 300.0
    _record(
        5,
        ok,
        f"point-source support error max {max(errs):.4f} over "
        f"{len(SUPPORT_ANGLES)} directions (tol {SUPPORT_TOL:.4f}), time limit 300s",
    )
    assert ok, f"took {elapsed:.1f}s"


def test_criterion_6_plane_wave_support(square_trace, square_trace_pw, taus):
    """Plane-wave data gives the same support values as point-source data."""
    err_pw, gap = [], []
    for ang in SUPPORT_ANGLES:
        om = Direction.from_angle(ang)
        est_ps = estimate_support(compute_samples(square_trace, om, taus))
        est_pw = estimate_support(compute_samples(square_trace_pw, om, taus))
        err_pw.append(abs(est_pw.h_hat - _square_support(om)))
        gap.append(abs(est_pw.h_hat - est_ps.h_hat))
    ok = max(err_pw) <= SUPPORT_TOL and max(gap) < 0.05
    _record(
        6,
        ok,
        f"plane-wave support error max {max(err_pw):.4f} (tol {SUPPORT_TOL:.4f}), "
        f"route gap max {max(gap):.4f} (tol 0.05)",
    )
    assert ok


def test_criterion_7_threshold_dichotomy(square_trace, taus):
    """e^{-tau t}|J| decays for t above the support value and blows up below."""
    ok = True
    for ang in SUPPORT_ANGLES:
        om = Direction.from_angle(ang)
        samples = compute_samples(square_trace, om, taus)
        h = _square_support(om)
        ok &= classify_threshold(samples, h - 0.2) == "blows_up"
        ok &= classify_threshold(samples, h + 0.2) == "decays"
        order = {"blows_up": 0, "inconclusive": 1, "decays": 2}
        codes = [
            order[classify_threshold(samples, t)]
            for t in np.linspace(h - 0.2, h + 0.2, 9)
        ]
        ok &= bool(np.all(np.diff(codes) >= 0))
    _record(
        7,
        bool(ok),
        f"decay/blow-up dichotomy at h +/- 0.2 with monotone transition, "
        f"{len(SUPPORT_ANGLES)} directions",
    )
    assert ok


def test_criterion_8_hull_reconstruction():
    """Support sweeps rebuild the convex hull of square, triangle and L."""
    start = time.monotonic()
    # half-step offset grid: no direction is normal to an axis-aligned or
    # pi/3-rotated side, so no support line touches a whole edge
    dirs = [Direction.from_angle((j + 0.5) * 2 * np.pi / 64) for j in range(64)]
    taus = np.geomspace(4.0, 40.0, 64)
    results = {}
    hull_l = None
    for name, verts in (
        ("square", SQUARE_VERTS),
        ("triangle", TRIANGLE_VERTS),
        ("L", L_VERTS),
    ):
        scene = make_scene(verts)
        mesh = build_mesh(scene, nodes_per_edge=64)
        sol = solve_scattering(scene, PointSource(scene.source_y), mesh)
        tr = trace_direct(sol, scene.radius_R, 512)
        hull, _ = reconstruct_hull(tr, dirs, taus)
        target = np.asarray(verts, float)
        diam = np.max(
            np.linalg.norm(target[:, None, :] - target[None, :, :], axis=-1)
        )
        if name == "L":
            # compare against the convex hull of the L, not the L itself
            target = np.array(
                [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.5]]
            )
            hull_l = hull
        results[name] = (hausdorff_distance(hull, target), 0.05 * diam)
    elapsed = time.monotonic() - start
    ok = all(d < tol for d, tol in results.values()) and elapsed < 300.0
    # the L reconstruction is its hull: the notch (depth 0.25 from the cut
    # diagonal) must be absent
    notch = hausdorff_distance(hull_l, L_VERTS)
    ok = ok and notch > 0.15
    _record(
        8,
        bool(ok),
        "Hausdorff "
        + ", ".join(f"{n} {d:.4f} (tol {t:.4f})" for n, (d, t) in results.items())
        + f"; L notch gap {notch:.2f} (>0.15); time limit 300s",
    )
    assert ok, f"took {elapsed:.1f}s"


def test_criterion_9_far_field_relation(square_scene):
    """Far field of the point-source problem matches the scattered plane wave
    evaluated at the source, and the defect shrinks under mesh refinement."""
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    coarse = point_source_far_field_check(square_scene, angles, nodes_per_edge=32)
    fine = point_source_far_field_check(square_scene, angles, nodes_per_edge=64)
    ok = fine < 1e-3 and fine < coarse
    _record(
        9,
        ok,
        f"point-source/far-field defect {fine:.2e} at 16 directions (tol 1e-3), "
        f"coarse-mesh defect {coarse:.2e} decreases under refinement",
    )
    assert ok


def test_criterion_10_far_field_unsolvability(square_scene):
    """Tikhonov norms of the far-field equation should blow up as the
    regularization vanishes, for interior as well as exterior sample points."""
    op = assemble_far_field_operator(square_scene, 32, 32, nodes_per_edge=32)
    k = square_scene.wavenumber_k
    alphas = np.geomspace(1e-3, 1e-9, 7)

    rep_centroid = unsolvability_diagnostic(op, (0.0, 0.0), alphas)
    rep_corner = unsolvability_diagnostic(op, (0.4, 0.4), alphas)
    rep_exterior = unsolvability_diagnostic(op, (1.5, 0.5), alphas)
    disc = disc_far_field_operator(0.8, k, 64)
    rep_disc = unsolvability_diagnostic(disc, (0.0, 0.0), alphas)
    disc_ratio = float(np.max(rep_disc.norms) / np.min(rep_disc.norms))
    sigma = rep_centroid.singular_values
    kept = sigma > 1e-8 * sigma[0]

    def picard_ratio(rep):
        return float(np.max(rep.picard[kept] / sigma[kept]))

    ok = (
        rep_centroid.no_plateau
        and rep_corner.no_plateau
        and rep_exterior.no_plateau
        and not rep_disc.no_plateau
        and disc_ratio < 1.5
    )
    detail = (
        f"exterior point blows up ({rep_exterior.norms[-1]:.1f} vs "
        f"{rep_exterior.norms[0]:.2f}: {rep_exterior.no_plateau}), disc center "
        f"plateaus (ratio {disc_ratio:.3f}); interior square points do NOT show "
        f"the required blow-up: centroid norms "
        f"{rep_centroid.norms[0]:.2f}->{rep_centroid.norms[-1]:.2f} "
        f"(no_plateau={rep_centroid.no_plateau}), near-corner "
        f"{rep_corner.norms[0]:.2f}->{rep_corner.norms[-1]:.2f} "
        f"(no_plateau={rep_corner.no_plateau}). Of the singular values of the "
        f"weighted 32x32 operator, {int(np.sum(kept))} exceed 1e-8*sigma_0; over "
        f"those the largest |Picard coefficient|/sigma_i is "
        f"{picard_ratio(rep_centroid):.3g} at the centroid, "
        f"{picard_ratio(rep_corner):.3g} near the corner and "
        f"{picard_ratio(rep_exterior):.3g} at the exterior point. Bounded "
        "interior ratios bound the regularized norms as alpha shrinks, which is "
        "what the linear sampling method expects of interior points."
    )
    _record(10, ok, detail)
    assert ok


def test_criterion_11_invariances(square_trace, square_scene, taus):
    """Translation covariance, probe scaling and Tikhonov-norm monotonicity."""
    checks = {}
    om = Direction.from_angle(0.8)
    tau, a = 20.0, 1.3

    # (a) translating the obstacle shifts h_hat by the projected offset
    shift = np.array([0.3, -0.2])
    scene_b = make_scene(SQUARE_VERTS + shift)
    mesh = build_mesh(scene_b, nodes_per_edge=64)
    sol_b = solve_scattering(scene_b, PointSource(scene_b.source_y), mesh)
    tr_b = trace_direct(sol_b, scene_b.radius_R, 512)
    est_b = estimate_support(compute_samples(tr_b, om, taus))
    est_0 = estimate_support(compute_samples(square_trace, om, taus))
    cov = abs(est_b.h_hat - (est_0.h_hat + shift @ om.vec))
    checks["translation covariance"] = cov < 0.02

    # (b) probe magnitude scaling identity, exact in the log
    x = np.array([0.9, -0.4])
    la = np.log(np.abs(eval_probe(om, tau, 2.0, x, t_ref=a)))
    l0 = np.log(np.abs(eval_probe(om, tau, 2.0, x, t_ref=0.0)))
    checks["probe scaling"] = bool(np.all(np.abs(la - (l0 - tau * a)) < 1e-12 * tau * a))

    # (c) Tikhonov solution norms are nonincreasing in alpha
    disc = disc_far_field_operator(0.8, square_scene.wavenumber_k, 64)
    norms = unsolvability_diagnostic(disc, (0.2, 0.1), np.geomspace(1e-2, 1e-6, 5)).norms
    checks["Tikhonov monotone"] = bool(np.all(np.diff(norms) >= 0))

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _record(
        11,
        ok,
        "all invariance checks hold" if ok else f"failed: {', '.join(failed)}",
    )
    assert ok
