"""Folding the input of one command across the CPUs it may use.

This module only cuts and forks; it knows no input format. plan_tasks
splits the input files into contiguous tasks of about equal bytes, and
opens none of them: it cuts any file at a byte target, sampled or not, as
a record's fate under sampling depends on its offset alone. fold_in_workers
resolves each cut to its first record before it forks, with the finder
the CLI gives it (ingest.line_start for a TSV file, ingest.pcap_start for
a pcap capture). It folds the first task in this process and each other
one in a forked worker, with the CLI's fold, which reads each range from
its first record up to the first record that begins at or after its end
target and returns that offset, where the task stopped, with its Report.
A worker pickles the two, as they are, down a pipe, and the results are
merged in input order. A task must begin where the one before it stopped;
where one does not, that task alone is folded again in this process, from
where the one before it stopped, so the output never depends on a
resync. The CLI imports this module only where it may fork, so a one-CPU
run, or an input too small to split, neither loads nor compiles it.
"""

from __future__ import annotations

import os
import pickle
# _signal, not signal: set-up time is import time, signal builds its IntEnums
# on import (~0.9 ms, 2-CPU Xeon, Python 3.11), and _signal is loaded at start-up
from _signal import SIGKILL

from .report import Report, merge_into


def plan_tasks(paths: list, sizes: list, count: int) -> list:
    """The input files, of these sizes, as `count` contiguous tasks of about
    equal bytes, each a list of (path, start, end) byte ranges in input
    order; end None reads to the end of the file. A range that starts or
    ends inside a file does so at a byte target: fold_in_workers resolves a
    start to the first record at or after it, and an end stops the read at
    that record."""
    total = sum(sizes)
    targets = [total * k // count for k in range(1, count)]
    cuts = {(0, 0)}  # (file index, byte offset) where a task begins
    offset = 0
    for i, size in enumerate(sizes):
        cuts.update((i, target - offset) for target in targets if offset <= target < offset + size)
        offset += size
    bounds = sorted(cuts) + [(len(paths), 0)]
    tasks = []
    for (first, start), (last, end) in zip(bounds, bounds[1:]):
        task = [(paths[first], start, None)] if first < last else []
        task += [(path, 0, None) for path in paths[first + 1 : last]]
        if end:
            task.append((paths[last], start if first == last else 0, end))
        tasks.append(task)
    return tasks


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else its message in the nearest of its
    base classes that does: one whose arguments differ from its
    constructor's, such as NameParseError, or that holds what cannot be
    pickled, is still reported as one process would report it."""
    for cls in type(exc).__mro__:
        try:
            stand_in = exc if cls is type(exc) else cls(str(exc))
            pickle.loads(pickle.dumps(stand_in, pickle.HIGHEST_PROTOCOL))
            return stand_in
        except Exception:
            continue
    return Exception(str(exc))


def _begin(find, path: str, target: int):
    """find(fd, target) at byte target of a file; None
    where the file cannot be read, so that the task is refolded in its
    turn, which raises the error there."""
    try:
        with open(path, "rb") as fh:
            return find(fh.fileno(), target)
    except OSError:
        return None


def _work(fd: int, task: list, fold) -> None:
    """A forked worker: fold the task, send what fold returns (or the
    exception it raised) down the pipe, and leave through os._exit, never
    returning into the code that forked it."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                result = fold(task)
            except Exception as exc:
                result = _portable(exc)
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(running: dict, i: int):
    """What the worker of task i sent, once it is reaped; a worker that ends
    without a result raises ChildProcessError."""
    pid, pipe = running[i]
    with pipe:
        try:
            sent = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            sent = None
    status = os.waitpid(pid, 0)[1]
    del running[i]
    if sent is None:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"a worker process ended without a result (exit status {code})")
    return sent


def fold_in_workers(tasks: list, find, fold) -> Report:
    """The Report of every task, merged in task order: find(fd, target)
    gives the offset of the first record at or after a byte target of an
    open file (None where it finds none), and fold(ranges) folds (path,
    start, end) ranges whose start is a record's first byte, and returns
    (the offset the last one stopped at, their Report). The first
    task is folded here, each other one in a forked worker, and the tasks
    no worker could be forked for here in their turn.

    A task that starts inside a file must begin where the one before it
    stopped. Where one does not, or no record was found at its cut, what
    its worker sent, a Report or an exception, is dropped, and the task is
    folded again here from where the one before it stopped. Otherwise a
    task's exception is raised here in its turn, and a worker that ends
    without a result raises ChildProcessError. Every worker is ended and
    reaped before this returns.
    """
    tasks = [[(path, start and _begin(find, path, start), end), *rest] for (path, start, end), *rest in tasks]
    running = {}  # task index: (pid, pipe) of each unreaped worker
    try:
        for i, task in enumerate(tasks[1:], 1):
            if task[0][1] is None:
                continue  # no record at its cut: folded here in its turn
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                for _, pipe in running.values():
                    pipe.close()
                _work(write_fd, task, fold)
            os.close(write_fd)
            running[i] = (pid, open(read_fd, "rb"))
        stop, report = fold(tasks[0])
        for i, task in enumerate(tasks[1:], 1):
            result = _receive(running, i) if i in running else None
            (path, begin, end), *rest = task
            if begin not in (0, stop):  # a missed resync: refolded from the verified stop
                result = fold([(path, stop, end), *rest])
            elif result is None:
                result = fold(task)
            elif isinstance(result, Exception):
                raise result
            stop, part = result
            merge_into(report, part)
            del result, part  # freed before the next one is read
        return report
    finally:
        for pid, pipe in running.values():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
