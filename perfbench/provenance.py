"""What every result records about where it ran, and the BLAS floor.

The floor is the raw time of the two passes one descent step cannot avoid,
``Z @ w`` and ``c @ Z``, at the workload's own matrix shape.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np


def matvec_pair_s(z: np.ndarray, budget_s: float = 0.3) -> float:
    """Median seconds of ``z @ w`` plus ``c @ z`` over repeats."""
    rows, d = z.shape
    w = np.full(d, 1.0 / np.sqrt(d))
    c = np.full(rows, 1.0 / rows)
    times = []
    start = time.perf_counter()
    while len(times) < 5 or (time.perf_counter() - start < budget_s and len(times) < 2000):
        t0 = time.perf_counter()
        z @ w
        c @ z
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _openblas():
    """The OpenBLAS library numpy loaded, found in this process's memory map."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    lib = _openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_size() -> str | None:
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read(f"{base}/level") == "3":
            return _read(f"{base}/size")
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    git = root / ".git"
    head = _read(str(git / "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(git / ref))
    if direct:
        return direct
    for line in (_read(str(git / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_nominal": _l3_size(),
        "git_commit": git_commit(root),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "MARGIN_LAB_THREADS"},
    }
