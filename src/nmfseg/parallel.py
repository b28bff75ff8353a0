"""Both cores for every stage: two threads over single-threaded BLAS.

Most of a training step, of an inference stage's clip and of a synthesised
clip is NumPy work that runs on one core, so ``training`` splits each batch
into ``SHARDS`` fixed shards, and its clip loads, dev passes and inference
rows into per-clip tasks, and ``corpus`` and ``probing`` split synthesis by
clip and by probe label; each runs them through ``map`` on a pool of
``SHARDS`` threads (NumPy releases the interpreter lock inside its loops
and GEMMs).  Each call computes exactly what a sequential loop computes, so
no output depends on the thread count.

Two threads over a two-thread OpenBLAS run much slower than one: on 2
vCPUs, a sharded float32 desk-shape step (B = 16, T = 200) took 190 ms,
against 92 ms unsharded and 74 ms sharded over one-thread OpenBLAS.  So
``map`` holds OpenBLAS at one thread (``serial_blas``) while its calls run,
inline or pooled, and runs them inline when it cannot set that count.

Importing this module starts no thread and loads no library: the pool and
the OpenBLAS lookup are built on first use.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError

SHARDS = 2

# the thread-count setter and getter, and the build string, of the scipy-openblas build that
# NumPy 2 wheels bundle
_BLAS_SET, _BLAS_GET = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"
_BLAS_CONFIG = "scipy_openblas_get_config64_"


def workers() -> int:
    """Usable CPUs, capped by NMFSEG_THREADS when it is set."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        usable = os.cpu_count() or 1
    raw = os.environ.get("NMFSEG_THREADS")
    if raw is None:
        return usable
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"NMFSEG_THREADS must be a positive integer, got {raw!r}")
    return min(usable, cap)


@functools.lru_cache(maxsize=1)
def _openblas():
    """NumPy's bundled OpenBLAS, when it exports the thread-count setter and
    getter, or None.

    The library is the one NumPy already loaded, so opening it again returns
    the same handle.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, _BLAS_SET) and hasattr(lib, _BLAS_GET):
            return lib
    return None


@functools.lru_cache(maxsize=1)
def _blas_threads():
    """``(set, get)`` for the thread count of NumPy's bundled OpenBLAS, or None."""
    lib = _openblas()
    if lib is None:
        return None
    setter, getter = getattr(lib, _BLAS_SET), getattr(lib, _BLAS_GET)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


# OpenBLAS builds its config string in one static buffer on every call, so two
# calls at once can return it cut short or run together
_CONFIG_LOCK = threading.Lock()


@functools.lru_cache(maxsize=1)
def _blas_config() -> str:
    with _CONFIG_LOCK:
        config = getattr(_openblas(), _BLAS_CONFIG, None)
        if config is None:
            return ""
        config.argtypes, config.restype = [], ctypes.c_char_p
        return config().decode(errors="replace")


def blas_build() -> str:
    """What picks a GEMM's kernels, and so its last bits: NumPy's OpenBLAS build
    string (version, target CPU, build flags) and the thread count it runs at
    now; ``""`` without that library."""
    found = _blas_threads()
    return "" if found is None else f"{_blas_config()}; threads={found[1]()}"


@contextmanager
def serial_blas():
    """Run the body with OpenBLAS at one thread, restoring the previous count
    afterwards, also when the body raises.  Without a setter it changes nothing."""
    found = _blas_threads()
    if found is None:
        yield
        return
    setter, getter = found
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


@functools.lru_cache(maxsize=1)
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=SHARDS, thread_name_prefix="nmfseg")


def map(fn, items) -> list:
    """``[fn(x) for x in items]``, on ``min(SHARDS, workers())`` threads, with
    OpenBLAS at one thread while the calls run (``serial_blas``).

    Runs inline with one worker or one item, and without an OpenBLAS
    thread-count setter.  Results keep the order of ``items``.  When calls
    raise, the calls that have not started are cancelled, the running ones
    are waited for, and the first exception in item order is raised, so
    nothing ``fn`` does outlives the call to ``map``.
    """
    items = list(items)
    with serial_blas():
        if min(SHARDS, workers(), len(items)) < 2 or _blas_threads() is None:
            return [fn(x) for x in items]
        futures = [_pool().submit(fn, x) for x in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
