"""Both cores for every stage: threads over single-threaded BLAS, and worker
processes for synthesis.

Most of a training step, and of an inference stage's clip, is NumPy work
that runs on one core, so ``training`` splits each batch into ``SHARDS``
fixed shards, and its clip loads, dev encodes and inference rows into
per-clip tasks, and runs them through ``map`` on a pool of threads (NumPy
releases the interpreter lock inside its loops and GEMMs).  Corpus and
probe-clip synthesis spends much of its time in Python loops, which hold
that lock, so it runs through ``process_map`` on worker processes instead.
Each worker computes exactly what a sequential loop computes, so no output
depends on the worker count.

Two threads over a two-thread OpenBLAS run much slower than one: on 2
vCPUs, a sharded float32 desk-shape step (B = 16, T = 200) took 190 ms,
against 92 ms unsharded and 74 ms sharded over one-thread OpenBLAS.  So
``map`` uses the pool only while OpenBLAS runs one thread, as it does inside
``serial_blas``; ``training.train`` holds that setting for its whole run,
and ``training.encode_rows`` for its rows.  The same holds across
processes: each ``process_map`` worker sets OpenBLAS to one thread when it
starts.

Importing this module starts no thread or process and loads no library:
the pools and the OpenBLAS lookup are built on first use.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError

SHARDS = 2

# the thread-count setter and getter of the scipy-openblas build that NumPy 2 wheels bundle
_BLAS_SET, _BLAS_GET = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"


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
def _blas_threads():
    """``(set, get)`` for the thread count of NumPy's bundled OpenBLAS, or None.

    The library is the one NumPy already loaded, so opening it again returns
    the same handle.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        setter, getter = getattr(lib, _BLAS_SET, None), getattr(lib, _BLAS_GET, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


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


def _one_blas_thread() -> None:
    """Worker initializer: OpenBLAS at one thread for the worker's lifetime."""
    found = _blas_threads()
    if found is not None:
        found[0](1)


def process_map(fn, items) -> list:
    """``[fn(x) for x in items]``, on up to ``workers()`` worker processes,
    never more than one per item.

    Runs inline with one worker.  ``fn`` and the items are pickled, so ``fn``
    must be a module-level function, and each call is a round trip of
    messages, so a job should be more than one small clip.  Each worker
    runs OpenBLAS at one thread: on 2 vCPUs, two workers synthesising the
    360 clips of a desk ``probe``, one per job, took 1.41-1.86 s with the
    default two threads each, against 0.48-0.83 s inline and 0.44-0.67 s
    with one thread each.  The pool uses the platform's default start
    method (fork on Linux): spawned workers import NumPy again, and the
    same run took 0.75-1.06 s.  Results keep the order of ``items``; the
    first exception raised by a call is raised here.
    """
    items = list(items)
    processes = min(workers(), len(items))
    if processes < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # its import costs every stage ~24 ms
    with ProcessPoolExecutor(max_workers=processes, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, items))


def map(fn, items) -> list:
    """``[fn(x) for x in items]``, on ``min(SHARDS, workers())`` threads.

    Runs inline with one worker, and unless the loaded OpenBLAS is known to
    run one thread (as inside ``serial_blas``).  Results keep the order of
    ``items``; the first exception raised by a call is raised here.
    """
    items = list(items)
    found = _blas_threads()
    if min(SHARDS, workers(), len(items)) < 2 or found is None or found[1]() != 1:
        return [fn(x) for x in items]
    return list(_pool().map(fn, items))
