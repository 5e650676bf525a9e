"""Run a graph-free batch as contiguous sample slabs, one per BLAS thread.

In eval mode without a graph every sample is independent through every
block and head, so a batch of n can be cut into W contiguous slabs that
run at once and are joined back in order.  W is the thread count of the
OpenBLAS numpy loaded, read at call time and capped at the CPUs the
process may run on, so that a thread count above the cores does not
oversubscribe them; for the length of the call
that BLAS is pinned to one thread, so each slab's gemms run on its own
core instead of waking a BLAS worker that then spins between gemms, and
the count is restored afterwards, also when a slab raises.  The calling
thread runs the first slab and a persistent thread pool the others.  The
pool and the BLAS handles are made on the first split, never at import.

A batch of one, one BLAS thread, a BLAS whose thread count cannot be
set, and a split asked for while another is running (from inside a slab,
or from a second thread) all run the one serial walk.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

_split_lock = threading.Lock()  # held for the length of one split
_pool = None
_UNRESOLVED = object()
_blas = _UNRESOLVED


class _Blas:
    """Getter and setter of the thread count of numpy's OpenBLAS."""

    def __init__(self, get, set_):
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        self.get, self.set = get, set_


def _find_blas() -> _Blas | None:
    """numpy's OpenBLAS thread-count functions, or None where they cannot be found."""
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return _Blas(get, set_)
    return None


def blas() -> _Blas | None:
    """The BLAS handles, found once."""
    global _blas
    if _blas is _UNRESOLVED:
        _blas = _find_blas()
    return _blas


def _executor():
    """The slab pool; it starts a thread only when no idle one can take a slab."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(thread_name_prefix="eevit-slab")
    return _pool


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(fn, n: int, join):
    """``fn(lo, hi)`` over contiguous slabs of ``range(n)``, joined in order.

    ``join`` gets the slabs' results as a list; a serial walk returns
    ``fn(0, n)`` itself and never calls it.
    """
    if n < 2 or not _split_lock.acquire(blocking=False):
        return fn(0, n)
    try:
        handles = blas()
        threads = handles.get() if handles is not None else 1
        count = min(threads, _usable_cpus(), n)
        if count < 2:
            return fn(0, n)
        bounds = [n * i // count for i in range(count + 1)]
        handles.set(1)
        try:
            from concurrent.futures import wait

            pool = _executor()
            rest = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
            try:
                first = fn(bounds[0], bounds[1])
            finally:
                wait(rest)
            return join([first] + [future.result() for future in rest])
        finally:
            handles.set(threads)
    finally:
        _split_lock.release()
