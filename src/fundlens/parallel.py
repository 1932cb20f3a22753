"""The one place fundlens forks: ``parallel_map`` runs tasks on this process and forked children,
which inherit the tasks and send back results.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys

from .errors import ConfigError, FundlensError


def parallel_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` on this process and min(jobs, len(tasks)) − 1 forked children,
    or serially in this process when that minimum is 1 or the platform has no ``os.fork``.

    The children inherit fn and tasks, so neither is pickled. Every process takes the next task
    index from one counter, a token passed round through a pipe. After its last task each child
    sends its tasks' pickled results or exceptions back as one pickle on a pipe of its own, which
    this process reads once its own tasks are done. This process moves to the first CPU of its
    CPU set and child k to the k-th, wrapping round, and each then gets the whole set back: a
    forked child starts on its parent's CPU, where two processes often stayed together.

    Results keep task order. A failure raises what the serial loop raises, the exception of the
    lowest failing task, and once a task has failed no process starts another. A child that
    ends before sending a result, or cannot pickle one, raises a FundlensError naming it.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    outcomes: list = [None] * len(tasks)  # (kind, value) of each task once it is in
    ended: list = []  # how each child that ended early ended
    children: dict = {}  # a child's result pipe, open for reading -> its pid
    counter = os.pipe()
    try:
        os.write(counter[1], _INDEX.pack(0))
        _place(cpus, 0)
        _flush_std_streams()  # or a child could write out what this process buffered
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, tasks, counter, w, cpus, k)
            os.close(w)
            children[open(r, "rb")] = pid
        for i, outcome in _work(fn, tasks, counter):
            outcomes[i] = outcome
        while children:  # a child never waits on another, so any order is safe
            pipe, pid = next(iter(children.items()))
            with pipe:
                received = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pipe]
            if not _decode(received, pid, outcomes):
                how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                ended.append(f"worker process {pid} ended early ({how})")
    finally:
        for fd in counter:
            os.close(fd)
        for pipe, pid in children.items():  # left only when this process raised
            pipe.close()  # a no-op for a pipe already read
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            raise FundlensError(f"task {i} got no result: {'; '.join(ended)}")
        if outcome[0] != _RESULT:
            raise outcome[1]
    return [value for _, value in outcomes]


#: The counter token: the index of the next task to take.
_INDEX = struct.Struct("q")
_RESULT, _RAISED, _UNSENDABLE = range(3)


def _take(counter, n: int, stop: bool = False) -> int:
    """Take the counter token and put back the next index, or n to stop every process."""
    i, = _INDEX.unpack(os.read(counter[0], _INDEX.size))
    os.write(counter[1], _INDEX.pack(n if stop else min(i + 1, n)))
    return i


def _work(fn, tasks, counter):
    """Run tasks by index from the counter, yielding (index, (kind, result or exception))."""
    n = len(tasks)
    while (i := _take(counter, n)) < n:
        try:
            outcome = (_RESULT, fn(tasks[i]))
        except Exception as exc:  # the caller raises it if no lower task failed
            _take(counter, n, stop=True)
            outcome = (_RAISED, exc)
        yield i, outcome


def _child(fn, tasks, counter, w, cpus, k) -> None:
    """A forked child's whole life: work, then send a list of (index, kind, pickled result or
    exception) on w as one pickle. It exits here and never returns into its parent's code."""
    code = 1
    try:
        _place(cpus, k)
        sent = []
        for i, (kind, value) in _work(fn, tasks, counter):
            try:
                payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # pickling can raise any type
                kind, payload = _UNSENDABLE, f"{type(exc).__name__}: {exc}".encode()
            sent.append((i, kind, payload))
        # A full pipe blocks only here, once no task is left: the parent reads after its own.
        with open(w, "wb") as pipe:
            pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
        _flush_std_streams()
        code = 0
    finally:
        os._exit(code)


def _decode(received, pid, outcomes) -> bool:
    """Store the outcomes a child sent in outcomes; whether it sent them. A child that ended
    early sent nothing or a pickle cut short."""
    try:
        sent = pickle.loads(received)
    except (EOFError, pickle.UnpicklingError):
        return False
    for i, kind, payload in sent:
        try:
            if kind == _UNSENDABLE:
                raise pickle.PicklingError(payload.decode())
            outcomes[i] = (kind, pickle.loads(payload))
        except Exception as exc:  # unpickling can raise any type
            outcomes[i] = (_RAISED, FundlensError(
                f"task {i}: worker process {pid} could not send its result back "
                f"({type(exc).__name__}: {exc})"))
    return True


def _place(cpus, k: int) -> None:
    """Move this process to CPU ``cpus[k % len(cpus)]``, then give it all of ``cpus`` back:
    the restore still lets it leave a CPU another process is using. No-op for no cpus."""
    if cpus:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _flush_std_streams() -> None:
    sys.stdout.flush()
    sys.stderr.flush()
