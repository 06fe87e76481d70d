"""One forked process pool, shared by cross-validation and event ingest.

``forked_map`` runs a task over arguments in worker processes started with
the POSIX ``fork`` method, so it needs a platform that has it. The workers
inherit the task, and with it what it holds (a corpus) and every function
the parent has monkeypatched, instead of receiving a pickled copy; each
call's arguments and result cross a pipe, and the workers start with no
import cost. The arguments may come from a lazy iterable, which is drawn
only a few calls ahead of the results: event ingest passes its blocks of
rows that way, so the parent never holds the whole event file, and the
workers fork from a parent that holds only the first blocks. Forking is
unsafe while another thread of the caller holds a lock; the CLI runs no
other thread, and the pool forks every worker before it starts its own.
"""

from __future__ import annotations

import itertools
import os
from collections import deque

_task = None  # the task of the running forked_map, set in each worker


def _start(task) -> None:
    global _task
    _task = task


def _call(args: tuple):
    return _task(*args)


def forked_map(task, arg_tuples) -> list:
    """``[task(*args) for args in arg_tuples]``, in order.

    A single call runs in this process. More run in min(CPUs, calls) forked
    workers, where CPUs counts those the process may use (its affinity,
    ``os.sched_getaffinity``, where the platform has one); the workers have
    all exited when this returns or raises. At most two calls per CPU are
    in flight, so ``arg_tuples`` is drawn at most 2 x CPUs calls ahead of
    the results collected.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    arg_tuples = iter(arg_tuples)
    head = list(itertools.islice(arg_tuples, 2 * (cpus or 1)))
    if len(head) <= 1:
        return [task(*args) for args in head]
    import multiprocessing  # imported here: only a pool needs them (~5 ms to load)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(cpus or 1, len(head)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_start, initargs=(task,)) as pool:
        pending = deque(pool.submit(_call, args) for args in head)
        results = []
        while pending:
            results.append(pending.popleft().result())
            pending.extend(pool.submit(_call, args) for args in itertools.islice(arg_tuples, 1))
        return results
