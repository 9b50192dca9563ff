"""Folding the input of one command across the CPUs it may use.

This module only cuts and forks; it knows no input format. plan_tasks
splits the input files into contiguous tasks of about equal bytes, and
opens none of them: it cuts any file at a byte target, sampled or not, as
a record's fate under sampling depends on its offset alone. fold_in_workers
resolves each cut to its first record before it forks, with the finder
the CLI gives it (ingest.line_start for a TSV file, ingest.pcap_start for
a pcap capture). It folds the first task in this process and each other
one in a forked worker, with the CLI's report.fold_ranges, which reads
each range from its first record up to the first record that begins at
or after its end target and returns that offset, where it stopped.
A worker pickles the two, as they are, down a pipe, or sends nothing, and
the results are merged in input order. One rule recovers from every
fault: a task that did not begin where the one before it stopped, or
whose worker delivered no whole result, is folded again in this process,
from where the one before it stopped. So the output never depends on a
resync or on a worker, and an error is raised as one process raises it;
a failing task is decoded twice, once in its worker and once here, before
its error is raised. The CLI imports this module only where it may fork,
so a one-CPU run, or an input too small to split, neither loads nor
compiles it.
"""

from __future__ import annotations

import os
# _pickle, not pickle: pickle.py is ~1 ms to load (2-CPU Xeon, Python 3.11)
# and only wraps it
from _pickle import UnpicklingError, dump, load
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
    """A forked worker: fold the task, send what fold returns down the pipe,
    and leave through os._exit, never returning into the code that forked
    it. A task that raises sends nothing: the command folds it again."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            dump(fold(task), pipe, -1)  # -1: the highest protocol
        status = 0
    finally:
        os._exit(status)


def _receive(running: dict, i: int):
    """What the worker of task i sent, once it is reaped; None where it
    sent no whole result."""
    pid, pipe = running[i]
    with pipe:
        try:
            sent = load(pipe)
        except (EOFError, UnpicklingError):
            sent = None
    os.waitpid(pid, 0)
    del running[i]
    return sent


def fold_in_workers(tasks: list, find, fold) -> Report:
    """The Report of every task, merged in task order: find(fd, target)
    gives the offset of the first record at or after a byte target of an
    open file (None where it finds none), and fold(ranges) folds (path,
    start, end) ranges whose start is a record's first byte, and returns
    (the offset the last one stopped at, their Report). The first
    task is folded here, each other one in a forked worker.

    A task that starts inside a file must begin where the one before it
    stopped. Where one does not, no record was found at its cut, or no
    worker delivered its whole result (none could be forked for it, or its
    fold raised, or it died), the task is folded here in its turn: from
    where the one before it stopped, or from its start where it begins a
    file. So an error is raised here, as itself, by the first task in input
    order that raises it. Every worker is ended and reaped before this
    returns.
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
            if result is None or begin not in (0, stop):  # not delivered, or a missed resync
                result = fold(task if begin == 0 else [(path, stop, end), *rest])
            stop, part = result
            merge_into(report, part)
            del result, part  # freed before the next one is read
        return report
    finally:
        for pid, pipe in running.values():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
