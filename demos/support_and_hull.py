"""Support-function recovery and convex-hull reconstruction.

The log-magnitude of the indicator grows like e^{tau h(omega)} where
h is the obstacle's support function; fitting the growth rate per probe
direction and intersecting the resulting half-planes rebuilds the convex
hull from boundary data on the measurement circle alone.
"""

import numpy as np

from enclosure2d.fields import PointSource
from enclosure2d.forward import build_mesh, solve_scattering
from enclosure2d.geometry import Direction, Polygon, Scene, hausdorff_distance
from enclosure2d.indicator import compute_samples, estimate_support, reconstruct_hull
from enclosure2d.trace import trace_direct

SQUARE = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
L_SHAPE = np.array(
    [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [-0.5, 0.5]]
)


def make_scene(verts):
    return Scene(obstacles=(Polygon(verts),), radius_R=2.0, radius_R1=6.0,
                 source_y=(6.0, 0.0), wavenumber_k=2.0)


def boundary_trace(scene, n=512):
    mesh = build_mesh(scene, nodes_per_edge=64)
    sol = solve_scattering(scene, PointSource(scene.source_y), mesh)
    return trace_direct(sol, scene.radius_R, n)


def main():
    scene = make_scene(SQUARE)
    tr = boundary_trace(scene)
    taus = np.geomspace(8.0, 40.0, 16)

    print("square support function, per direction (h = true, h_hat = fitted)")
    for ang in (0.3, 1.0, 1.8, 2.6, 5.0, 5.5):
        om = Direction.from_angle(ang)
        est = estimate_support(compute_samples(tr, om, taus))
        h = float(np.max(SQUARE @ om.vec))
        print(f"  angle {ang:4.1f}: h = {h:+.4f}  h_hat = {est.h_hat:+.4f}  "
              f"err = {abs(est.h_hat - h):.4f}  fit rms = {est.residual_rms:.4f}")

    # a half-step offset grid keeps every direction away from the side
    # normals, where the support line touches a whole edge
    dirs = [Direction.from_angle((j + 0.5) * 2 * np.pi / 64) for j in range(64)]
    taus = np.geomspace(4.0, 40.0, 64)
    print("\nconvex hulls from 64-direction support sweeps")
    for name, verts in (("square", SQUARE), ("L-shape", L_SHAPE)):
        scene = make_scene(verts)
        tr = boundary_trace(scene)
        hull, _ = reconstruct_hull(tr, dirs, taus)
        d = hausdorff_distance(hull, verts)
        print(f"  {name:8s}: {len(hull)} hull vertices, "
              f"Hausdorff to the true polygon {d:.4f}")
    print("  (the L-shape distance stays at the notch scale: only the"
          "\n   convex hull is recoverable from support data)")


if __name__ == "__main__":
    main()
