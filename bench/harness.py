"""Measurement plumbing for the benchmark: spans, percentiles, failure
counting, seeded rotation, BLAS thread control and the environment record.

Nothing here imports the enclosure2d package, so the helpers can be tested
without running the solver.
"""

from __future__ import annotations

import ctypes
import math
import platform
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the seeded rotation is a whole number of steps of this grid, so every
# direction grid, trace node set and regular-polygon vertex set the
# workloads use is mapped onto itself
ROTATION_STEPS = 64


# --- spans -----------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    pass_index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing.

    Spans nest through a stack, so the innermost open span is the parent of
    the next one.  ``request`` and ``pass_index`` tag every span opened
    while they are set.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request = ""
        self.pass_index = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.request, self.pass_index))


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.span_id]
    return totals


# --- statistics ------------------------------------------------------------


def tail_percentile(samples, candidates=(99.9, 99.0, 90.0)):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns ``(q, value)`` or ``None`` when even the lowest candidate has
    fewer than ten samples above its rank.
    """
    n = len(samples)
    for q in sorted(candidates, reverse=True):
        beyond = n - math.ceil(q * n / 100.0)
        if beyond >= 10:
            return q, float(np.percentile(samples, q))
    return None


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


# --- failure counting ------------------------------------------------------


@dataclass
class Tally:
    """Requests and output checks attempted, and those that failed.

    Every check is counted, so a failed check can never be dropped without
    showing in ``failed``.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def request_failed(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")

    def request_ok(self) -> None:
        self.attempted += 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- seeded geometry -------------------------------------------------------


def rotation_angle(seed: int) -> float:
    """0 for seed 0; otherwise a nonzero whole number of 2 pi / 64 steps."""
    if seed == 0:
        return 0.0
    steps = random.Random(seed).randrange(1, ROTATION_STEPS)
    return 2.0 * math.pi * steps / ROTATION_STEPS


def rotate(points, angle: float) -> np.ndarray:
    """Rotate planar points about the origin; angle 0 returns them unchanged."""
    points = np.asarray(points, dtype=float)
    if angle == 0.0:
        return points.copy()
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, s], [-s, c]])


# --- BLAS threads ----------------------------------------------------------

_SET_NAMES = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
              "openblas_set_num_threads64_", "openblas_set_num_threads")
_GET_NAMES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
              "openblas_get_num_threads64_", "openblas_get_num_threads")


def _loaded_openblas():
    """(path, set, get) for every OpenBLAS copy mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, n) for n in _SET_NAMES if hasattr(lib, n)), None)
        getter = next((getattr(lib, n) for n in _GET_NAMES if hasattr(lib, n)), None)
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        out.append((path, setter, getter))
    return out


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS copies (the largest), or None."""
    counts = [get() for _, _, get in _loaded_openblas()]
    return max(counts) if counts else None


@contextmanager
def using_blas_threads(n: int):
    """Run the block with every loaded OpenBLAS copy at ``n`` threads."""
    libs = _loaded_openblas()
    before = [get() for _, _, get in libs]
    for _, setter, _ in libs:
        setter(n)
    try:
        yield
    finally:
        for (_, setter, _), count in zip(libs, before):
            setter(count)


# --- environment record ----------------------------------------------------


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(root: Path, seed: int, nproc: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
