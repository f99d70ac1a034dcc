"""What a run was measured on: machine, library versions, BLAS threads, source."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def openblas() -> dict:
    """Version string and live thread count of the OpenBLAS numpy loaded."""
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, prefix + "openblas_get_num_threads" + suffix, None)
            conf = getattr(lib, prefix + "openblas_get_config" + suffix, None)
            if get is not None:
                get.restype = ctypes.c_int
                info["threads"] = get()
                if conf is not None:
                    conf.restype = ctypes.c_char_p
                    info["config"] = conf().decode()
                return info
    return info


def source_commit(root: Path, src: Path) -> dict:
    """The git commit when the tree is a clone, and a digest of src/ always."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": h.hexdigest()}


def describe(root: Path, src: Path) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas(),
        **source_commit(root, src),
    }
