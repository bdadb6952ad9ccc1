"""Regularized far-field equation: norm growth and sampling-style imaging.

For each sample point z the Tikhonov-regularized density solving
F g = (far field of a point source at z) is tracked as the regularization
parameter shrinks.  Exterior points make the norm blow up; the disc
center (where the circulant operator diagonalizes exactly) plateaus.
An inverse-norm heatmap over a coarse grid sketches the obstacle.
"""

import numpy as np

from enclosure2d.farfield import (
    assemble_far_field_operator,
    disc_far_field_operator,
    lsm_indicator_map,
    unsolvability_diagnostic,
)
from enclosure2d.geometry import Polygon, Scene


def main():
    square = Scene(
        obstacles=(Polygon(np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])),),
        radius_R=2.0, radius_R1=6.0, source_y=(6.0, 0.0), wavenumber_k=2.0,
    )
    op = assemble_far_field_operator(square, 32, 32, nodes_per_edge=32)
    disc = disc_far_field_operator(0.8, 2.0, 64)
    alphas = np.geomspace(1e-3, 1e-9, 7)

    print("Tikhonov solution norms across the alpha sweep")
    print(f"  alphas: {', '.join(f'{a:.0e}' for a in alphas)}")
    cases = [
        ("square, exterior (1.5, 0.5)", op, (1.5, 0.5)),
        ("square, centroid (0.0, 0.0)", op, (0.0, 0.0)),
        ("disc,   center   (0.0, 0.0)", disc, (0.0, 0.0)),
    ]
    for label, operator, z in cases:
        rep = unsolvability_diagnostic(operator, z, alphas)
        norms = ", ".join(f"{n:9.3f}" for n in rep.norms)
        print(f"  {label}: no_plateau={rep.no_plateau}")
        print(f"    ||g||: {norms}")

    print("\ninverse-norm map for the disc (9x9 grid, larger = inside)")
    xs = np.linspace(-1.6, 1.6, 9)
    grid = np.array([[x, y] for y in xs[::-1] for x in xs])
    vals = lsm_indicator_map(disc, grid).reshape(9, 9)
    vals = vals / vals.max()
    for row in vals:
        print("  " + " ".join(f"{v:4.2f}" for v in row))


if __name__ == "__main__":
    main()
