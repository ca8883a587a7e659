"""Timing summaries and the environment record of a benchmark run."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import sys

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile in TAIL_LADDER that has at least
    MIN_BEYOND samples above it (nearest-rank), or None when no rung has."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)      # ceil(p/100 * n), exactly
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, xs[rank - 1]
    return None


def summarize(values) -> dict:
    """Median, sample count and tail percentile of one set of timings."""
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail_p": tail[0] if tail else None,
            "tail": tail[1] if tail else None}


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine's CPUs since boot."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def environment() -> dict:
    """Versions, BLAS and machine facts; BLAS threading is left at its default."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
