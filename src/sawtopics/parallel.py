"""One forked process pool, shared by cross-validation and event ingest.

``forked_map`` runs a task over a list of arguments in worker processes
started with the POSIX ``fork`` method, so it needs a platform that has it.
The workers inherit the task, and with it what it holds (a corpus, a list
of event rows) and every function the parent has monkeypatched, instead of
receiving a pickled copy; only each call's arguments and result cross a
pipe, and the workers start with no import cost. Forking is unsafe while
another thread of the caller holds a lock; the CLI runs no other thread,
and the pool forks every worker before it starts its own.
"""

from __future__ import annotations

import os

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
    all exited when this returns or raises.
    """
    arg_tuples = list(arg_tuples)
    if len(arg_tuples) <= 1:
        return [task(*args) for args in arg_tuples]
    import multiprocessing  # imported here: only a pool needs them (~5 ms to load)
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(min(cpus or 1, len(arg_tuples)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_start, initargs=(task,)) as pool:
        return list(pool.map(_call, arg_tuples))
