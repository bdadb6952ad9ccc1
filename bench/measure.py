"""Set-up, measured passes and metrics for the benchmark's workloads."""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from harness import (
    Tally,
    Tracer,
    environment,
    median,
    self_time_by_name,
    tail_percentile,
    using_blas_threads,
)
from workloads import WORKLOADS, Layers

SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# name -> unit; times are self time per pass, counts are per pass
PER_LAYER = {
    "forward.build_mesh_s": "s",
    "forward.solve_s": "s",
    "forward.solves": "count",
    "forward.n_nodes": "count",
    "forward.kernel_entries": "count",
    "forward.lu_flops": "flop",
    "forward.solve_s_1thread": "s",
    "trace.direct_s": "s",
    "trace.recover_neumann_s": "s",
    "trace.nodes": "count",
    "trace.eval_entries": "count",
    "trace.direct_s_1thread": "s",
    "indicator.samples_s": "s",
    "indicator.samples": "count",
    "indicator.samples_unusable_frac": "1",
    "indicator.fit_s": "s",
    "indicator.fit_p50_s": "s",
    "indicator.fit_p90_s": "s",
    "indicator.fits": "count",
    "geometry.hull_s": "s",
    "farfield.assemble_s": "s",
    "farfield.incidences": "count",
    "farfield.sweep_s": "s",
    "farfield.sweep_solves": "count",
    "farfield.lsm_s": "s",
    "farfield.lsm_points": "count",
    "cli.solve_s": "s",
    "cli.hull_s": "s",
    "cli.farfield_s": "s",
    "cli.lsm_s": "s",
    "cli.bytes_written": "B",
    "cli.hull_filtered": "count",
    "cli.hull_usable": "count",
    "bench.trace_overhead_frac": "1",
}
# per-layer metrics that are one span's self time: metric name = span name + "_s"
SPAN_TIMES = [n for n, u in PER_LAYER.items() if u == "s" and not n.endswith(("_p50_s", "_p90_s", "_1thread"))]
COUNTS = [n for n, u in PER_LAYER.items() if u in ("count", "flop", "B")]


def note(text: str) -> None:
    print(f"# {text}", flush=True)


class Runner:
    """Set-up, passes and the samples they leave for one workload."""

    def __init__(self, make_workload, import_s: float):
        self.tracer = Tracer(enabled=False)
        self.layers = Layers(self.tracer)
        self.tally = Tally()
        self.import_s = import_s
        self.workload = make_workload(self.layers)
        self.pass_walls: list[float] = []
        self.latencies: list[float] = []
        self.pass_counts: list[dict] = []

    def setup(self) -> float:
        """Import time plus the median of SETUP_REPEATS set-ups."""
        times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            self.workload.setup()
            times.append(time.perf_counter() - t)
        note(f"set-up: import {self.import_s:.4f} s, set-ups " + ", ".join(f"{t:.4f}" for t in times) + " s")
        return self.import_s + median(times)

    def run_pass(self, pass_index: int) -> float:
        """One pass over the request list; returns its wall time (checks untimed)."""
        self.tracer.pass_index = pass_index
        self.layers.counts.clear()
        wall = 0.0
        for label, request in self.workload.requests():
            self.tracer.request = f"{pass_index}:{label}"
            start = time.perf_counter()
            try:
                with self.tracer.span("bench.request"):
                    output = request()
            except Exception as exc:  # a failed request is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                self.tally.request_failed(label, exc)
                continue
            elapsed = time.perf_counter() - start
            self.tally.request_ok()
            wall += elapsed
            self.latencies.append(elapsed)
            try:
                self.workload.check(label, output, self.tally)
            except Exception as exc:  # a check that cannot run is a failed check
                traceback.print_exc(file=sys.stderr)
                self.tally.check(f"{label} checks", False, f"raised {type(exc).__name__}: {exc}")
        self.pass_counts.append(dict(self.layers.counts))
        return wall

    def measure(self, seconds: float) -> None:
        """Whole passes until the next one would end after ``seconds``; at least one."""
        start = time.perf_counter()
        while True:
            self.pass_walls.append(self.run_pass(len(self.pass_walls)))
            done = len(self.pass_walls)
            if (time.perf_counter() - start) * (done + 1) / done > seconds:
                break


def end_to_end(runner: Runner, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": median(runner.pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, untraced_wall: float, single_thread: dict) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes, and each span name's share
    of the traced wall time."""
    spans = [s for s in runner.tracer.spans if s.pass_index >= 0]
    passes = sorted({s.pass_index for s in spans})
    per_pass = [self_time_by_name([s for s in spans if s.pass_index == p]) for p in passes]
    values = {name: median([t.get(name[:-2], 0.0) for t in per_pass]) for name in SPAN_TIMES}
    values.update({name: median([c.get(name, 0) for c in runner.pass_counts]) for name in COUNTS})
    for q in (50, 90):
        per_pass_q = []
        for p in passes:
            fits = [s.duration for s in spans if s.pass_index == p and s.name == "indicator.fit"]
            per_pass_q.append(float(np.percentile(fits, q)) if fits else 0.0)
        values[f"indicator.fit_p{q}_s"] = median(per_pass_q)
    samples = sum(c.get("indicator.samples", 0) for c in runner.pass_counts)
    unusable = sum(c.get("indicator.samples_unusable", 0) for c in runner.pass_counts)
    values["indicator.samples_unusable_frac"] = unusable / samples if samples else 0.0
    values["forward.solve_s_1thread"] = single_thread.get("forward.solve", 0.0)
    values["trace.direct_s_1thread"] = single_thread.get("trace.direct", 0.0)
    values["bench.trace_overhead_frac"] = median(runner.pass_walls) / untraced_wall if untraced_wall else 0.0
    totals: dict[str, float] = {}
    for t in per_pass:
        for name, v in t.items():
            totals[name] = totals.get(name, 0.0) + v
    shares = {n: v / sum(runner.pass_walls) for n, v in sorted(totals.items())}
    return values, shares


def run_workload(name: str, args, import_s: float, env: dict, out_dir: Path):
    """Measure one workload; returns (metrics, tally)."""
    runner = Runner(lambda layers: WORKLOADS[name](args.seed, layers, out_dir), import_s)
    try:
        setup_s = runner.setup()
        if not args.trace:
            runner.measure(args.seconds)
            values, units = end_to_end(runner, setup_s), END_TO_END
        else:
            untraced = runner.run_pass(-1)
            runner.pass_counts.clear()
            runner.latencies.clear()
            runner.tracer.enabled = True
            runner.measure(args.seconds)
            single_thread = {}
            if name == "forward-large":  # the single-threaded baseline request
                kept = len(runner.latencies)
                with using_blas_threads(1):
                    runner.run_pass(-2)
                runner.pass_counts.pop()
                del runner.latencies[kept:]
                single_thread = self_time_by_name([s for s in runner.tracer.spans if s.pass_index == -2])
            values, shares = per_layer(runner, untraced, single_thread)
            units = PER_LAYER
            note(f"{name} layer self time, share of traced pass wall ({len(runner.pass_walls)} passes):")
            for layer, share in shares.items():
                note(f"  {layer:<24} {100 * share:6.2f} %")
            write_spans(out_dir / f"spans-{name}-seed{args.seed}.json", env, runner.tracer.spans)
    finally:
        runner.workload.close()

    tally, lat = runner.tally, runner.latencies
    tail = tail_percentile(lat)
    tail_text = f", p{tail[0]:g} {tail[1]:.4f} s" if tail else ", no tail percentile (< 10 samples beyond p90)"
    note(f"{name}: {len(runner.pass_walls)} passes, request p50 {median(lat):.4f} s (n={len(lat)}){tail_text}")
    note(f"{name}: pass walls " + ", ".join(f"{w:.4f}" for w in runner.pass_walls) + " s")
    note(f"{name}: failed_frac {tally.failed}/{tally.attempted} = {tally.failed_frac:.4f}")
    for failure in tally.failures:
        note(f"{name}: FAILED {failure}")
    note(f"{name} quality: {json.dumps(runner.workload.quality, sort_keys=True)}")
    for key, unit in units.items():
        note(f"{name} {key} = {values[key]:.6g} {unit}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, tally


def write_spans(path: Path, env: dict, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    payload = {
        "env": env,
        "spans": [{"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "request": s.request, "pass": s.pass_index} for s in spans],
    }
    path.write_text(json.dumps(payload))
    note(f"{len(spans)} spans written to {path.name}")


def main(names, args, import_s: float, nproc: int, root: Path) -> int:
    env = environment(root, args.seed, nproc)
    note(f"env {json.dumps(env, sort_keys=True)}")
    out_dir = root / ".bench_out"
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, tally = run_workload(name, args, import_s, env, out_dir)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
