"""Benchmark of the enclosure2d pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload hull-fit --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one process

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass, then traced passes, and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, each
starting with ``#``, carry the environment record, sample counts, output
quality and (traced) the layer table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("hull-fit", "forward-large", "farfield-map", "cli-defaults")


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "enclosure2d" / "__init__.py").is_file():
        print(f"error: no enclosure2d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread per usable core, as OpenBLAS picks by default, whatever
    # the caller's environment says; read once, when numpy loads
    nproc = available_cores()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure  # numpy, scipy and enclosure2d: part of set-up time

    import_s = time.perf_counter() - start
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return measure.main(names, args, import_s, nproc, ROOT)


if __name__ == "__main__":
    sys.exit(main())
