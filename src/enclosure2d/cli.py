"""Batch experiment driver: solve | hull | farfield | lsm.

Scenes come from a JSON file ({"obstacles": [[[x, y], ...], ...],
"center": [x, y], "R": r, "R1": r1, "source": [x, y], "k": v}), results
go to an output directory as CSV (field/indicator arrays) and JSON
(diagnostics).  Every output carries a header with the configuration
hash so identical runs are byte-identical and traceable.

Exit codes: 0 ok, 2 config (ConfigError, DomainError, or a command-line
syntax error), 3 resolution (ResolutionError), 4 solver (SolverError,
NearFieldError, GeometryError), 5 reconstruction (ReconstructionError).
Any other exception is a bug: it prints a traceback and Python exits
with code 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DomainError,
    GeometryError,
    NearFieldError,
    ReconstructionError,
    ResolutionError,
    SolverError,
)
from .fields import PlaneWave, PointSource
from .forward import build_mesh, solve_scattering
from .geometry import Direction, Scene
from .indicator import check_tau_grid, reconstruct_hull
from .farfield import (
    assemble_far_field_operator,
    check_alpha_sweep,
    disc_far_field_operator,
    lsm_indicator_map,
    unsolvability_diagnostic,
)
from .trace import check_probe_table_size, recover_neumann, trace_direct, trace_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_SOLVER = 4
EXIT_RECONSTRUCTION = 5

LSM_MAX_POINTS = 2**16  # lsm's grid-n^2 sampling points, one CSV row each: a 256 x 256 grid
# hull's --directions, all sampled in one product and fitted as arrays: on
# the square at the default flags 4096 take 1.3 s and a 144 MB process peak
# (2-core VM, 2 BLAS threads), 16x the largest a test, demo or bench run fits
HULL_MAX_DIRECTIONS = 2**12
# farfield's and lsm's --directions, an n x n operator from n right-hand
# sides and its SVD, 4x the largest operator a test, demo or bench run
# builds: at 512 the square's operator and SVD take 0.22 s, and farfield's
# n^2-row operator.csv (12.9 MB) brings the command to 1.8 s and 190 MB
OPERATOR_MAX_DIRECTIONS = 2**9


def _load_scene(path: str) -> Scene:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scene file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scene JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    try:
        return Scene.from_dict(data)
    except GeometryError as exc:
        raise ConfigError(f"invalid scene: {exc}") from exc


def _config_hash(args: argparse.Namespace) -> str:
    # the hash covers the scientific configuration, the scene by its JSON: not the scene's path or the output's
    payload = json.dumps(
        {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")},
        default=Scene.to_json,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _header(args) -> list[str]:
    return [f"enclosure2d {__version__}", f"config-hash {_config_hash(args)}"]


def _write_json(path: Path, args, payload: dict):
    payload = {"meta": {"version": __version__, "config_hash": _config_hash(args)}, **payload}
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")  # strict JSON: a NaN raises


def _write_csv(path: Path, args, columns: list[str], rows):
    with path.open("w", newline="") as fh:
        for line in _header(args):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _finite_float(text: str) -> float:
    """argparse type: nan and inf would fail deep inside a stage."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _tau_grid(args) -> np.ndarray:
    if args.tau_min <= 0 or args.tau_max <= 0:
        raise ConfigError("tau-min and tau-max must be positive")
    check_probe_table_size(args.tau_count, args.trace_n)
    return check_tau_grid(np.geomspace(args.tau_min, args.tau_max, args.tau_count))


def _solve_with_trace(scene, args, incident):
    mesh = build_mesh(scene, nodes_per_edge=args.mesh_nodes)
    sol = solve_scattering(scene, incident, mesh)
    trace = trace_direct(sol, scene.radius_R, args.trace_n)
    return sol, trace


def cmd_solve(args) -> int:
    scene = args.scene
    if not scene.obstacles:
        raise ConfigError("solve requires at least one obstacle")
    sol, trace = _solve_with_trace(scene, args, PointSource(scene.source_y))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text(trace_to_csv(trace, _header(args)))
    recovered = recover_neumann(trace.u, scene.wavenumber_k, scene.source_y, scene.radius_R, scene.center)
    cross = float(np.max(np.abs(recovered - trace.dudn)) / np.max(np.abs(trace.dudn)))
    _write_json(out / "solver.json", args, {
        "condition_estimate": sol.condition_estimate,
        "factorization": sol.factorization,
        "residual_norm": sol.residual_norm,
        "neumann_route_max_rel_diff": cross,
        "condition_1_1_holds": scene.condition_1_1_holds,
    })
    return EXIT_OK


def cmd_hull(args) -> int:
    scene = args.scene
    if not scene.obstacles:
        raise ConfigError("hull requires at least one obstacle")
    taus = _tau_grid(args)
    if args.directions > HULL_MAX_DIRECTIONS:
        raise ResolutionError(f"{args.directions} directions pass {HULL_MAX_DIRECTIONS} fits")
    if args.mode == "pointsource":
        incident = PointSource(scene.source_y)
    else:
        incident = PlaneWave(Direction.from_angle(args.plane_angle))
    _, trace = _solve_with_trace(scene, args, incident)
    directions = [Direction.from_angle(2 * np.pi * i / args.directions) for i in range(args.directions)]
    hull, estimates = reconstruct_hull(trace, directions, taus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    values = np.array([(d.angle, est.h_hat, est.residual_rms, est.log_s_coefficient)
                       for d, est in zip(directions, estimates)]).tolist()
    rows = [[repr(v) for v in row] + [est.n_used, est.fit_path, "usable" if est.usable else "unusable"]
            for row, est in zip(values, estimates)]
    _write_csv(out / "supports.csv", args, ["angle", "h_hat", "residual_rms", "b", "n_used", "fit", "status"], rows)
    _write_json(out / "hull.json", args, {"vertices": hull.tolist()})
    _write_json(out / "diagnostics.json", args, {
        "directions": args.directions,
        # every direction is fitted; the key stays for readers of this file
        "filtered_non_regular": 0,
        "usable": sum(1 for e in estimates if e.usable),
    })
    return EXIT_OK


def _alpha_sweep(args) -> np.ndarray:
    if min(args.alpha_min, args.alpha_max) <= 0 or not 0 < args.alpha_max / args.alpha_min < math.inf:
        raise ConfigError("need positive alpha-min and alpha-max with a finite, nonzero ratio")
    count = max(5, int(round(np.log10(args.alpha_max / args.alpha_min))) + 1)
    return check_alpha_sweep(np.geomspace(args.alpha_max, args.alpha_min, count))


def _far_field_operator(scene, args):
    """The disc-series operator when --disc-radius is given, else the polygon solver's."""
    if args.disc_radius is None and not scene.obstacles:
        raise ConfigError(f"{args.command} requires at least one obstacle or --disc-radius")
    if args.directions > OPERATOR_MAX_DIRECTIONS:
        raise ResolutionError(f"{args.directions} directions pass {OPERATOR_MAX_DIRECTIONS} for an n x n operator")
    if args.disc_radius is not None:
        return disc_far_field_operator(args.disc_radius, scene.wavenumber_k, args.directions, scene.center)
    return assemble_far_field_operator(scene, args.directions, args.directions, nodes_per_edge=args.mesh_nodes)


def cmd_farfield(args) -> int:
    scene = args.scene
    alphas = _alpha_sweep(args)
    op = _far_field_operator(scene, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ([i, j, repr(v), repr(w)] for i, row in enumerate(op.matrix)
            for j, (v, w) in enumerate(zip(row.real.tolist(), row.imag.tolist())))
    _write_csv(out / "operator.csv", args, ["obs_index", "inc_index", "re", "im"], rows)
    report = unsolvability_diagnostic(op, np.asarray(args.sample_point), alphas)
    _write_json(out / "sweep.json", args, {
        "sample_point": list(args.sample_point),
        "alphas": report.alphas.tolist(),
        "norms": report.norms.tolist(),
        "residuals": report.residuals.tolist(),
        "loglog_slope": report.loglog_slope,
        "no_plateau": report.no_plateau,
        "singular_values": report.singular_values.tolist(),
        "picard": report.picard.tolist(),
        "resolved_modes": report.resolved_modes,
    })
    return EXIT_OK


def cmd_lsm(args) -> int:
    scene = args.scene
    n = args.grid_n
    if n * n > LSM_MAX_POINTS:
        raise ResolutionError(f"a {n} x {n} sampling grid passes {LSM_MAX_POINTS} points")
    op = _far_field_operator(scene, args)
    xs = np.linspace(-scene.radius_R, scene.radius_R, n)
    # the square around B_R, about the scene's centre; row by row in y, x fastest
    grid = np.stack(np.meshgrid(scene.center[0] + xs, scene.center[1] + xs), axis=-1).reshape(-1, 2)
    values = lsm_indicator_map(op, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ([repr(x), repr(y), repr(v)] for (x, y), v in zip(grid.tolist(), values.tolist()))
    _write_csv(out / "heatmap.csv", args, ["x", "y", "inv_norm"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enclosure2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="scene JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--mesh-nodes", type=_count, default=64, dest="mesh_nodes")

    def trace_flag(p):
        p.add_argument("--trace-n", type=_count, default=512, dest="trace_n")

    p = sub.add_parser("solve", help="forward solve + trace export")
    common(p)
    trace_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hull", help="support sweep + convex hull reconstruction")
    common(p)
    trace_flag(p)
    p.add_argument("--tau-min", type=_finite_float, default=8.0, dest="tau_min")
    p.add_argument("--tau-max", type=_finite_float, default=40.0, dest="tau_max")
    p.add_argument("--tau-count", type=_count, default=16, dest="tau_count")
    p.add_argument("--directions", type=_count, default=64)
    p.add_argument("--mode", choices=["pointsource", "planewave"], default="pointsource")
    p.add_argument("--plane-angle", type=_finite_float, default=0.0, dest="plane_angle")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("farfield", help="far-field operator + alpha sweep")
    common(p)
    p.add_argument("--directions", type=_count, default=32)
    p.add_argument("--alpha-min", type=_finite_float, default=1e-8, dest="alpha_min")
    p.add_argument("--alpha-max", type=_finite_float, default=1e-2, dest="alpha_max")
    p.add_argument("--sample-point", type=_finite_float, nargs=2, default=(0.0, 0.0), dest="sample_point")
    p.add_argument("--disc-radius", type=_finite_float, default=None, dest="disc_radius",
                   help="use the series operator of a disc about the scene's center, not the polygon solver")
    p.set_defaults(func=cmd_farfield)

    p = sub.add_parser("lsm", help="sampling-point heatmap 1/||g_alpha||")
    common(p)
    p.add_argument("--directions", type=_count, default=32)
    p.add_argument("--grid-n", type=_count, default=21, dest="grid_n")
    p.add_argument("--disc-radius", type=_finite_float, default=None, dest="disc_radius")
    p.set_defaults(func=cmd_lsm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.scene = _load_scene(args.scene)  # the commands and the config hash read the scene, not its path
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        # every DomainError here comes from a flag or the scene file
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionError as exc:
        print(f"error[resolution]: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except (SolverError, NearFieldError, GeometryError) as exc:
        print(f"error[solver]: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ReconstructionError as exc:
        print(f"error[reconstruction]: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
