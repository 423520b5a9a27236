"""The thread environment a workload process really runs with."""

from __future__ import annotations

import os
import platform

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _cpus_allowed(tid: str) -> str | None:
    try:
        with open(f"/proc/self/task/{tid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Cpus_allowed_list:"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def thread_report() -> dict:
    """BLAS build, thread count and per-thread CPU sets, read after a GEMM has
    started whatever worker threads the BLAS library keeps."""
    a = np.ones((512, 512), dtype=np.float32)
    float((a @ a)[0, 0])
    try:
        tids = sorted(os.listdir("/proc/self/task"), key=int)
    except OSError:
        tids = []
    return {
        "blas": _blas_build(),
        "env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "threads": len(tids) or None,
        "cpus_allowed": {tid: _cpus_allowed(tid) for tid in tids},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.system()}",
    }

