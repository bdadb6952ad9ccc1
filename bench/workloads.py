"""The four benchmark workloads and the layer wrappers they call through.

Every workload drives the library only through its public functions.  Each
call goes through ``Layers``, which opens a span named after the layer and
counts the work the call was given, so layer times are measured from
outside the program.  ``forward.solve`` therefore covers assembly, LU,
condition estimate and solve together.

Seed 0 builds today's configurations exactly.  Any other seed rotates the
obstacles, the source, the direction grid and the sample points by one
whole number of 2 pi / 64 steps (``harness.rotation_angle``), so the seed
changes the geometry and nothing else.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from enclosure2d import cli
from enclosure2d.farfield import assemble_far_field_operator, lsm_indicator_map, unsolvability_diagnostic
from enclosure2d.fields import PointSource
from enclosure2d.forward import DiscSeriesSolution, build_mesh, solve_scattering
from enclosure2d.geometry import (
    Direction,
    Polygon,
    Scene,
    convex_hull_from_supports,
    hausdorff_distance,
    support_function,
)
from enclosure2d.indicator import compute_samples, estimate_support
from enclosure2d.trace import recover_neumann, trace_direct

from harness import Tally, Tracer, rotate, rotation_angle

SQUARE = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
TRIANGLE = np.array([[0.5, -np.sqrt(3) / 6], [0.0, np.sqrt(3) / 3], [-0.5, -np.sqrt(3) / 6]])
L_SHAPE = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [-0.5, 0.5]])
L_HULL = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.5]])
SOURCE = np.array([6.0, 0.0])
K = 2.0
RADIUS_R, RADIUS_R1 = 2.0, 6.0


def make_scene(vertices, source) -> Scene:
    return Scene(
        obstacles=(Polygon(vertices),),
        radius_R=RADIUS_R,
        radius_R1=RADIUS_R1,
        source_y=source,
        wavenumber_k=K,
    )


class Layers:
    """The library's public functions, each call wrapped in a span and counted.

    ``counts`` holds work counts computed from the sizes each call was
    given (labelled computed in the output); the runner resets it per pass.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()

    def _factorisation(self, n_nodes: int, right_hand_sides: int) -> None:
        c = self.counts
        c["forward.solves"] += right_hand_sides
        c["forward.n_nodes"] += n_nodes
        c["forward.kernel_entries"] += n_nodes * n_nodes
        c["forward.lu_flops"] += 8 * n_nodes**3 // 3  # complex LU, real flops

    def build_mesh(self, scene, nodes_per_edge):
        with self.tracer.span("forward.build_mesh"):
            return build_mesh(scene, nodes_per_edge=nodes_per_edge)

    def solve_scattering(self, scene, incident, mesh):
        self._factorisation(mesh.n_nodes, 1)
        with self.tracer.span("forward.solve"):
            return solve_scattering(scene, incident, mesh)

    def trace_direct(self, sol, radius, n):
        self.counts["trace.nodes"] += n
        self.counts["trace.eval_entries"] += n * sol.mesh.n_nodes
        with self.tracer.span("trace.direct"):
            return trace_direct(sol, radius, n)

    def recover_neumann(self, u, k, y, radius, center):
        with self.tracer.span("trace.recover_neumann"):
            return recover_neumann(u, k, y, radius, center)

    def compute_samples(self, trace, omega, taus):
        with self.tracer.span("indicator.samples"):
            samples = compute_samples(trace, omega, taus)
        self.counts["indicator.samples"] += len(samples.taus)
        self.counts["indicator.samples_unusable"] += int(np.count_nonzero(~samples.usable))
        return samples

    def estimate_support(self, samples):
        self.counts["indicator.fits"] += 1
        with self.tracer.span("indicator.fit"):
            return estimate_support(samples)

    def convex_hull_from_supports(self, supports, clip_radius, center):
        with self.tracer.span("geometry.hull"):
            return convex_hull_from_supports(supports, clip_radius=clip_radius, center=center)

    def assemble_far_field_operator(self, scene, n_dirs, nodes_per_edge):
        n_nodes = nodes_per_edge * sum(p.n_vertices for p in scene.obstacles)
        self._factorisation(n_nodes, n_dirs)
        self.counts["farfield.incidences"] += n_dirs
        with self.tracer.span("farfield.assemble"):
            return assemble_far_field_operator(scene, n_dirs, n_dirs, nodes_per_edge=nodes_per_edge)

    def unsolvability_diagnostic(self, op, point, alphas):
        self.counts["farfield.sweep_solves"] += len(alphas)
        with self.tracer.span("farfield.sweep"):
            return unsolvability_diagnostic(op, point, alphas)

    def lsm_indicator_map(self, op, points):
        self.counts["farfield.lsm_points"] += len(points)
        with self.tracer.span("farfield.lsm"):
            return lsm_indicator_map(op, points)

    def cli(self, argv):
        with self.tracer.span(f"cli.{argv[0]}"):
            return cli.main(argv)


def _warm_pipeline() -> None:
    """Small solve, trace, fit and hull, so first-call costs stay in set-up."""
    scene = make_scene(TRIANGLE, SOURCE)
    sol = solve_scattering(scene, PointSource(SOURCE), build_mesh(scene, nodes_per_edge=16))
    tr = trace_direct(sol, RADIUS_R, 128)
    recover_neumann(tr.u, K, SOURCE, RADIUS_R, scene.center)
    taus = np.geomspace(2.0, 8.0, 8)
    supports = [(d, estimate_support(compute_samples(tr, d, taus)).h_hat)
                for d in (Direction.from_angle(a) for a in (0.3, 2.4, 4.5))]
    convex_hull_from_supports(supports, clip_radius=RADIUS_R)


def _warm_farfield() -> None:
    scene = make_scene(TRIANGLE, SOURCE)
    op = assemble_far_field_operator(scene, 8, 8, nodes_per_edge=16)
    unsolvability_diagnostic(op, (0.0, 0.0), np.geomspace(1e-2, 1e-8, 5))
    lsm_indicator_map(op, [[0.0, 0.0], [1.5, 0.5]])


class Workload:
    """One set of requests.  ``setup`` may run several times; ``requests``
    returns (label, callable) pairs; ``check`` verifies one request's output
    into the tally and records its quality figures in ``quality``."""

    name = ""

    def __init__(self, seed: int, layers: Layers, workdir: Path):
        self.layers = layers
        self.workdir = workdir
        self.angle = rotation_angle(seed)
        self.quality: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self):
        raise NotImplementedError

    def check(self, label: str, output, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload wrote."""


class HullFit(Workload):
    """Criterion-8 configuration: three scenes carried to their hulls."""

    name = "hull-fit"
    SHAPES = {"square": (SQUARE, SQUARE), "triangle": (TRIANGLE, TRIANGLE), "L": (L_SHAPE, L_HULL)}
    N_DIRS, N_TAUS = 64, 64

    def setup(self):
        a = self.angle
        source = rotate(SOURCE, a)
        self.scenes = {name: make_scene(rotate(v, a), source) for name, (v, _) in self.SHAPES.items()}
        self.targets = {name: rotate(hull, a) for name, (_, hull) in self.SHAPES.items()}
        # half-step offset grid: no direction is normal to a side, so no
        # support line is tied and nothing needs filtering
        self.directions = [Direction.from_angle((j + 0.5) * 2 * math.pi / self.N_DIRS + a)
                           for j in range(self.N_DIRS)]
        self.taus = np.geomspace(4.0, 40.0, self.N_TAUS)
        _warm_pipeline()

    def _run(self, scene):
        lay = self.layers
        mesh = lay.build_mesh(scene, 64)
        sol = lay.solve_scattering(scene, PointSource(scene.source_y), mesh)
        tr = lay.trace_direct(sol, scene.radius_R, 512)
        estimates = [lay.estimate_support(lay.compute_samples(tr, d, self.taus)) for d in self.directions]
        used = [(e.omega, e.h_hat) for e in estimates if e.usable]
        hull = lay.convex_hull_from_supports(used, tr.radius, tr.center)
        return hull, estimates

    def requests(self):
        return [(name, lambda s=scene: self._run(s)) for name, scene in self.scenes.items()]

    def check(self, label, output, tally):
        hull, estimates = output
        scene, target = self.scenes[label], self.targets[label]
        diam = scene.obstacles[0].diameter
        hd = hausdorff_distance(hull, target)
        tally.check(f"{label} Hausdorff", hd < 0.05 * diam, f"{hd:.4f} >= {0.05 * diam:.4f}")
        if label == "L":
            gap = hausdorff_distance(hull, scene.obstacles[0].vertices)
            tally.check("L notch gap", gap > 0.15, f"{gap:.3f} <= 0.15")
        errs = [abs(e.h_hat - support_function(scene.obstacles, e.omega)) for e in estimates if e.usable]
        self.quality[label] = {
            "hausdorff": hd,
            "support_err_max": max(errs),
            "unusable": sum(not e.usable for e in estimates),
            "directions": len(estimates),
        }


class ForwardLarge(Workload):
    """128-gon at N=2048: dense assembly, LU and trace evaluation."""

    name = "forward-large"
    N_GON, NODES_PER_EDGE, TRACE_N = 128, 16, 512

    def setup(self):
        ang = 2 * np.pi * np.arange(self.N_GON) / self.N_GON + np.pi / self.N_GON
        gon = np.column_stack([np.cos(ang), np.sin(ang)])
        self.scene = make_scene(rotate(gon, self.angle), rotate(SOURCE, self.angle))
        _warm_pipeline()
        nodes = 2 * np.pi * np.arange(self.TRACE_N) / self.TRACE_N
        circle = RADIUS_R * np.column_stack([np.cos(nodes), np.sin(nodes)])
        oracle = DiscSeriesSolution((0.0, 0.0), 1.0, K, PointSource(self.scene.source_y))
        self.reference = oracle.eval_total(circle)

    def _run(self):
        lay, scene = self.layers, self.scene
        mesh = lay.build_mesh(scene, self.NODES_PER_EDGE)
        sol = lay.solve_scattering(scene, PointSource(scene.source_y), mesh)
        tr = lay.trace_direct(sol, scene.radius_R, self.TRACE_N)
        recovered = lay.recover_neumann(tr.u, scene.wavenumber_k, scene.source_y, scene.radius_R, scene.center)
        return tr, recovered

    def requests(self):
        return [("128-gon", self._run)]

    def check(self, label, output, tally):
        tr, recovered = output
        oracle_err = float(np.max(np.abs(tr.u - self.reference)) / np.max(np.abs(self.reference)))
        route = float(np.max(np.abs(recovered - tr.dudn)) / np.max(np.abs(tr.dudn)))
        tally.check("oracle_rel_err", oracle_err < 1e-2, f"{oracle_err:.2e} >= 1e-2")
        tally.check("neumann_route_rel_diff", route < 1e-6, f"{route:.2e} >= 1e-6")
        self.quality = {"oracle_rel_err": oracle_err, "neumann_route_rel_diff": route}


class FarfieldMap(Workload):
    """Far-field operator, Tikhonov sweep and sampling map for two scenes."""

    name = "farfield-map"
    SHAPES = {"square": (SQUARE, SQUARE), "L": (L_SHAPE, L_HULL)}
    N_DIRS, GRID_N = 128, 61
    # criterion 10's sample points (the last is exterior) and alpha sweep;
    # on [1e-8, 1e-2] the square's exterior norm grows 1.99x per decade,
    # just under the no_plateau threshold of 2x
    POINTS = np.array([[0.0, 0.0], [0.4, 0.4], [1.5, 0.5]])
    ALPHAS = np.geomspace(1e-3, 1e-9, 7)

    def setup(self):
        a = self.angle
        source = rotate(SOURCE, a)
        self.scenes = {name: make_scene(rotate(v, a), source) for name, (v, _) in self.SHAPES.items()}
        self.points = rotate(self.POINTS, a)
        xs = np.linspace(-RADIUS_R, RADIUS_R, self.GRID_N)
        self.grid = rotate(np.array([[x, y] for y in xs for x in xs]), a)
        self.masks = {}
        for name, (verts, hull) in self.SHAPES.items():
            inside = Polygon(rotate(verts, a))
            hull_poly = Polygon(rotate(hull, a))
            self.masks[name] = (np.array([inside.contains(p) for p in self.grid]),
                                np.array([not hull_poly.contains(p) for p in self.grid]))
        _warm_farfield()

    def _run(self, scene):
        lay = self.layers
        op = lay.assemble_far_field_operator(scene, self.N_DIRS, 64)
        reports = [lay.unsolvability_diagnostic(op, p, self.ALPHAS) for p in self.points]
        return op, reports, lay.lsm_indicator_map(op, self.grid)

    def requests(self):
        return [(name, lambda s=scene: self._run(s)) for name, scene in self.scenes.items()]

    def check(self, label, output, tally):
        op, reports, values = output
        defect = op.reciprocity_defect() / float(np.max(np.abs(op.matrix)))
        tally.check(f"{label} reciprocity finite", math.isfinite(defect), f"{defect}")
        tally.check(f"{label} exterior no_plateau", reports[-1].no_plateau,
                    f"norms {reports[-1].norms[0]:.3g} -> {reports[-1].norms[-1]:.3g}")
        inside, outside = self.masks[label]
        contrast = float(np.mean(values[inside]) / np.mean(values[outside]))
        tally.check(f"{label} lsm contrast", contrast > 2.0, f"{contrast:.3g} <= 2")
        self.quality[label] = {
            "ff_reciprocity_defect": defect,
            "lsm_contrast": contrast,
            "exterior_norm_growth": float(reports[-1].norms[-1] / reports[-1].norms[0]),
        }


class CliDefaults(Workload):
    """The CLI's solve, hull, farfield and lsm commands with default flags.

    One request carries one scene through all four commands.  The hull
    command's fit work changes with the seed (see README), so a pass runs
    nine scenes, each shape lit from three source positions, to average it."""

    name = "cli-defaults"
    SHAPES = HullFit.SHAPES
    SOURCE_ANGLES = (0, 120, 240)  # degrees
    tmp = None
    FILES = {
        "solve": ("trace.csv", "solver.json"),
        "hull": ("supports.csv", "hull.json", "diagnostics.json"),
        "farfield": ("operator.csv", "sweep.json"),
        "lsm": ("heatmap.csv",),
    }

    def setup(self):
        self.close()
        self.workdir.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        self.scenes, self.targets = {}, {}
        for shape, (verts, hull) in self.SHAPES.items():
            for deg in self.SOURCE_ANGLES:
                name = f"{shape}-source{deg}"
                source = rotate(SOURCE, self.angle + math.radians(deg))
                self.scenes[name] = make_scene(rotate(verts, self.angle), source)
                self.targets[name] = rotate(hull, self.angle)
        for name, scene in self.scenes.items():
            (self.tmp / f"{name}.json").write_text(scene.to_json())
        _warm_pipeline()

    def _run(self, name):
        return {cmd: self.layers.cli([cmd, "--scene", str(self.tmp / f"{name}.json"),
                                      "--out", str(self.tmp / name / cmd)])
                for cmd in self.FILES}

    def requests(self):
        return [(name, lambda n=name: self._run(n)) for name in self.scenes]

    def check(self, label, output, tally):
        counts = self.layers.counts
        for cmd, files in self.FILES.items():
            out = self.tmp / label / cmd
            tally.check(f"{label} {cmd} exit code", output[cmd] == 0, f"exit {output[cmd]}")
            missing = [f for f in files if not (out / f).is_file()]
            tally.check(f"{label} {cmd} files", not missing, f"missing {missing}")
            if out.is_dir():
                counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        hull_dir = self.tmp / label / "hull"
        if all((hull_dir / f).is_file() for f in self.FILES["hull"]):
            hull = np.array(json.loads((hull_dir / "hull.json").read_text())["vertices"])
            diag = json.loads((hull_dir / "diagnostics.json").read_text())
            counts["cli.hull_filtered"] += diag["filtered_non_regular"]
            counts["cli.hull_usable"] += diag["usable"]
            hd = hausdorff_distance(hull, self.targets[label])
            self.quality[label] = {"hull_hausdorff": hd,
                                   **{k: diag[k] for k in ("filtered_non_regular", "usable")}}
        shutil.rmtree(self.tmp / label, ignore_errors=True)

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (HullFit, ForwardLarge, FarfieldMap, CliDefaults)}
