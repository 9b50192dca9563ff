"""Folding the input of one command across the CPUs it may use.

plan_tasks splits the input files into contiguous tasks of about equal
bytes, cutting a TSV file only just after a newline (line_starts).
fold_in_workers folds the first task in this process and each other one in
a forked worker, which sends back its Report packed as a Shard, and merges
the results in input order. The CLI imports this module only where it may
fork, so a one-CPU run neither loads nor compiles it.
"""

from __future__ import annotations

import os
import pickle
import signal
from array import array
from itertools import chain, islice
from typing import IO, Iterable, Iterator, NamedTuple

from .report import LEAVES, Report, merge_into

# A task is given at least this many bytes of input. On a 2-CPU Xeon,
# classify over slices of the benchmark's TSV inputs ran at two tasks about
# as fast as at one from ~90 KiB a task (~180 KiB in all), and 0.8x the time
# from 128 KiB a task; below that, forking a worker and merging what it sends
# back cost more than the task.
MIN_TASK_BYTES = 1 << 17


def line_starts(stream: IO[bytes], offsets: Iterable[int]) -> list[tuple[int, int]]:
    """Where the first line at or after each of the ascending, positive byte
    offsets begins in a seekable binary file, as (byte offset, line number)
    pairs in order, without repeats. A line begins just after a newline: an
    offset in an unterminated last line gives nothing, and one in a last
    line that ends the file with a newline gives the file's size.
    """
    starts: list = []
    pending = iter(offsets)
    target = next(pending, None)
    pos = lines = 0  # bytes and newlines before the chunk
    stream.seek(0)
    while target is not None and (chunk := stream.read(1 << 16)):
        counted = 0  # the newlines of chunk[:counted] are in lines
        while target is not None:
            i = chunk.find(b"\n", max(target - 1 - pos, counted))
            if i < 0:
                break
            lines += chunk.count(b"\n", counted, i + 1)
            counted = i + 1
            starts.append((pos + counted, lines + 1))
            while target is not None and target <= pos + counted:
                target = next(pending, None)
        lines += chunk.count(b"\n", counted)
        pos += len(chunk)
    return starts


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0  # the task that reads it in its turn raises the error


def plan_tasks(paths: list, cuttable: bool, workers: int) -> list:
    """The input files as up to `workers` contiguous tasks of about equal
    bytes, each a list of (path, start, end, first line) ranges in input
    order; end None reads to the end of the file. A file is cut only if
    cuttable, and then only just after a newline; a file that is not cut
    goes to the task its middle byte falls in. There are no more tasks than
    MIN_TASK_BYTES go into the input's bytes."""
    sizes = [_size(path) for path in paths]
    total = sum(sizes)
    workers = min(workers, total // MIN_TASK_BYTES)
    targets = [total * k // workers for k in range(1, workers)]
    starts = [(0, 0, 1)]  # (file index, byte offset, line number) where a task begins
    offset = 0
    for i, size in enumerate(sizes):
        inside = [target - offset for target in targets if offset <= target < offset + size]
        offset += size
        if not cuttable:
            starts += [(i, 0, 1) if at < size / 2 else (i + 1, 0, 1) for at in inside]
        elif inside:
            try:
                with open(paths[i], "rb") as fh:
                    found = line_starts(fh, [at for at in inside if at])
            except OSError:  # one process reads the input and raises it in its turn
                return [[(path, 0, None, 1) for path in paths]]
            if inside[0] == 0:
                starts.append((i, 0, 1))
            starts += [(i, at, line) if at < size else (i + 1, 0, 1) for at, line in found]
    bounds = sorted({start for start in starts if start[0] < len(paths)}) + [(len(paths), 0, 1)]
    tasks = []
    for (first, start, line), (last, end, _) in zip(bounds, bounds[1:]):
        task = [(paths[first], start, None, line)] if first < last else []
        task += [(path, 0, None, 1) for path in paths[first + 1 : last]]
        if end:
            task.append((paths[last], start, end, line) if first == last else (paths[last], 0, end, 1))
        tasks.append(task)
    return tasks


def _counts(values: Iterable[int]) -> array:
    """Counts as 4-byte values, or 8-byte ones where a count needs them."""
    values = list(values)
    try:
        return array("I", values)
    except OverflowError:
        return array("Q", values)


def _split(text: str) -> Iterator[str]:
    """The newline-separated keys of text, one at a time, so that only the
    keys a merge keeps are ever held together."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        yield text[start:stop]
        start = stop + 1


class _Rows(NamedTuple):
    """A sender_counts table packed: its prefixes newline-joined, and their
    LEAVES-ordered rows one after another in one array."""

    keys: str
    counts: array

    @classmethod
    def of(cls, table: dict) -> "_Rows":
        return cls("\n".join(table), _counts(chain.from_iterable(table.values())))

    def items(self) -> Iterator[tuple[str, tuple]]:
        return zip(_split(self.keys), zip(*[iter(self.counts)] * len(LEAVES)))


class _RootQueries(NamedTuple):
    """An empty_by_sender table packed: its prefixes newline-joined, how
    many qtypes each sent, and those qtype codes and their counts, prefix
    after prefix."""

    keys: str
    sizes: array
    qtypes: array
    counts: array

    @classmethod
    def of(cls, table: dict) -> "_RootQueries":
        return cls("\n".join(table), array("I", map(len, table.values())),
                   array("H", chain.from_iterable(table.values())),
                   _counts(chain.from_iterable(map(dict.values, table.values()))))

    def items(self) -> Iterator[tuple[str, dict]]:
        pairs = zip(self.qtypes, self.counts)
        return ((key, dict(islice(pairs, size))) for key, size in zip(_split(self.keys), self.sizes))


class Shard(NamedTuple):
    """A Report packed to cross a process boundary: each sender table is one
    string and a few arrays of counts, so that it pickles and unpickles as a
    few objects instead of a few per prefix. merge_into reads it as it reads
    a Report."""

    label: str
    total: int
    dropped: int
    senders_tracked: bool
    leaf_counts: dict
    qtype_counts: dict
    sender_counts: _Rows
    empty_by_sender: _RootQueries

    @classmethod
    def of(cls, report: Report) -> "Shard":
        return cls(report.label, report.total, report.dropped, report.senders_tracked,
                   dict(report.leaf_counts), dict(report.qtype_counts),
                   _Rows.of(report.sender_counts), _RootQueries.of(report.empty_by_sender))


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


def _work(fd: int, fold_task, task) -> None:
    """A forked worker: fold the task, send its Shard (or the exception it
    raised) down the pipe, and leave through os._exit, never returning into
    the code that forked it."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                result = Shard.of(fold_task(task))
            except Exception as exc:
                result = _portable(exc)
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def fold_in_workers(tasks: list, fold_task) -> Report:
    """fold_task over every task, the first in this process and each other
    one in a forked worker, merged in task order; the tasks no worker could
    be forked for are folded here last. A task's exception is raised here in
    its turn, and a worker that ends without a result raises
    ChildProcessError; either way every worker is ended and reaped first."""
    running = []  # (pid, pipe) of each unreaped worker, in task order
    try:
        for task in tasks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                for _, pipe in running:
                    pipe.close()
                _work(write_fd, fold_task, task)
            os.close(write_fd)
            running.append((pid, open(read_fd, "rb")))
        unforked = tasks[1 + len(running) :]
        report = fold_task(tasks[0])
        while running:
            pid, pipe = running[0]
            with pipe:
                try:
                    shard = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    shard = None
            status = os.waitpid(pid, 0)[1]
            running.pop(0)
            if shard is None:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"a worker process ended without a result (exit status {code})")
            if isinstance(shard, Exception):
                raise shard
            merge_into(report, shard)
            del shard  # freed before the next one is read
        for task in unforked:
            merge_into(report, fold_task(task))
        return report
    finally:
        for pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
