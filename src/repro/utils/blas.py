"""One BLAS thread for the duration of a solve.

Served solves run where processes are the parallelism: two pool workers on
two cores gain nothing from two OpenBLAS threads each, and a threaded
``gemm`` rounds differently from a serial one, so the weights would depend
on the host's thread count.  :func:`single_blas_thread` pins every loaded
OpenBLAS (numpy and scipy each load their own copy, found in
``/proc/self/maps``) to one thread and puts the caller's count back after.

It writes the library's exported ``blas_cpu_number``, the value the public
``openblas_set_num_threads`` sets, because the setter also starts the
thread pool again, and after a ``fork`` (which shuts the pool down) that
leaves an idle helper thread spinning beside the solve.  The setter is the
fallback for a build without that symbol.  Without OpenBLAS, or without
``/proc``, nothing is pinned and the context yields None.

The libraries are looked up once per process, at the first pin or before
the first ``fork``, whichever comes first: a forked worker then inherits
the lookup instead of faulting in the libraries' symbol tables again.
This module imports numpy and ``scipy.linalg`` so that both copies are
loaded by then.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy  # noqa: F401 - loads numpy's OpenBLAS before the lookup
import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS before the lookup

__all__ = ["single_blas_thread", "stop_blas_threads"]

#: Public thread-count setters by build, tried in order when a library does
#: not export ``blas_cpu_number``.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

_lock = threading.Lock()
_depth = 0
_saved: list[int] = []
_found = False
#: ``(get, set)`` of each loaded OpenBLAS's thread count.
_counts: list[tuple[Callable[[], int], Callable[[int], object]]] = []
#: Each loaded OpenBLAS's ``blas_thread_shutdown_``.
_shutdowns: list[Callable[[], object]] = []


def _thread_count(library: ctypes.CDLL):
    """``(get, set)`` of ``library``'s thread count, or None."""
    try:
        count = ctypes.c_int.in_dll(library, "blas_cpu_number")
    except ValueError:
        pass
    else:
        return (lambda: count.value), (lambda value: setattr(count, "value", value))
    for name in _SETTERS:
        setter = getattr(library, name, None)
        getter = getattr(library, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            getter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
            return getter, setter
    return None


def _find_openblas() -> None:
    """Look up every OpenBLAS mapped into this process, once (none without ``/proc``)."""
    global _found
    if _found:
        return
    _found = True
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        count = _thread_count(library)
        if count is not None:
            _counts.append(count)
        shutdown = getattr(library, "blas_thread_shutdown_", None)
        if shutdown is not None:
            _shutdowns.append(shutdown)


os.register_at_fork(before=_find_openblas)


@contextmanager
def single_blas_thread() -> Iterator[int | None]:
    """Run the body on one BLAS thread; yields 1, or None when nothing is pinned.

    Nested and concurrent uses share one pin: the first to enter saves the
    counts, the last to leave restores them.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _find_openblas()
            _saved = [get() for get, _ in _counts]
            for _, set_count in _counts:
                set_count(1)
        _depth += 1
    try:
        yield 1 if _counts else None
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_count), saved in zip(_counts, _saved):
                    set_count(saved)


def stop_blas_threads() -> None:
    """Join OpenBLAS's idle helper threads, as a ``fork`` does in the child.

    A spawned pool worker starts them when it imports numpy, but solves only
    under :func:`single_blas_thread`, so they would never run.  A later
    threaded call would start them again.
    """
    _find_openblas()
    for shutdown in _shutdowns:
        shutdown()
