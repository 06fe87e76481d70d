"""One forked process pool, shared by cross-validation and event ingest.

``forked_imap`` runs a task over arguments in worker processes started with
the POSIX ``fork`` method, so it needs a platform that has it. The workers
inherit the task, and with it what it holds (a corpus) and every function
the parent has monkeypatched, and the arguments of the calls drawn before
they fork, instead of receiving a pickled copy; each later call's
arguments, and each result, cross a pipe, and the workers start with no
import cost. Results are yielded in order, each as soon as it and those
before it are done, so the caller works on one while the workers run the
next: event ingest merges each parsed block as it arrives and stops at the
first bad one, and cross-validation logs a failed cell when it fails. The
arguments may come from a lazy iterable, which is drawn only a few calls
ahead of the results: event ingest passes its blocks of rows that way, so
the parent never holds the whole event file, and the workers fork from a
parent that holds only the first blocks. A consumer that stops early, or
raises, cancels the calls not yet started, and no worker outlives it.
Forking is unsafe while another thread of the caller holds a lock; the CLI
runs no other thread, and the pool forks every worker before it starts its
own. Each worker runs numpy's BLAS on one thread, so that the workers do
not stall each other on a host with as many CPUs as workers; the caller
keeps its own thread count.
"""

from __future__ import annotations

import functools
import itertools
import logging
import os
from collections import deque
from typing import Iterator

log = logging.getLogger(__name__)

_task = None  # the task of the running forked_imap, set in each worker
_head: list = []  # the arguments of its first calls, set in each worker


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, ``numpy.libs/libscipy_openblas64_-*.so``,
    through ``ctypes``; None, logged once, where no such library sets its
    thread count."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    log.debug("no scipy_openblas_set_num_threads64_ beside numpy; "
              "forked workers keep their BLAS thread count")
    return None


def _start(task, head: list) -> None:
    global _task, _head
    _task, _head = task, head
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _call(args: tuple):
    return _task(*args)


def _call_head(i: int):
    return _task(*_head[i])


def forked_imap(task, arg_tuples) -> Iterator:
    """``task(*args)`` for each of ``arg_tuples``, yielded in order.

    A single call runs in this process. More run in min(CPUs, calls) forked
    workers, where CPUs counts those the process may use (its affinity,
    ``os.sched_getaffinity``, where the platform has one). At most two calls
    per CPU are in flight, so ``arg_tuples`` is drawn at most 2 x CPUs
    calls ahead of the results taken. The workers have all exited when the
    last result is taken, when a call raises, or when the iterator is closed
    (as a ``for`` loop left by ``break`` or by an exception closes it once
    dropped; ``contextlib.closing`` closes it at once); closing cancels the
    calls not yet started.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    arg_tuples = iter(arg_tuples)
    head = list(itertools.islice(arg_tuples, 2 * (cpus or 1)))
    if len(head) <= 1:
        yield from (task(*args) for args in head)
        return
    import multiprocessing  # imported here: only a pool needs them (~5 ms to load)
    from concurrent.futures import ProcessPoolExecutor

    _openblas()  # looked up once, here, for the workers to inherit
    pool = ProcessPoolExecutor(min(cpus or 1, len(head)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start, initargs=(task, head))
    try:
        pending = deque(pool.submit(_call_head, i) for i in range(len(head)))
        head.clear()  # the workers, forked by the first submit, alone hold these (blocks of text)
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_call, args) for args in itertools.islice(arg_tuples, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)
