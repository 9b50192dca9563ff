"""Folding the input of one command across the CPUs it may use.

plan_tasks splits the input files into contiguous tasks of about equal
bytes, and opens none of them: it cuts a file at a byte target. Each task
then finds its own first record, the first line that begins at or after
its target in a TSV file (_line_start) and, in a pcap capture, the first
offset where RESYNC_HEADERS record headers in a row are plausible
(_pcap_begin). decode_tsv or decode_pcap then reads, from there, the
records that begin before its end target, and leaves the file at the
first that does not: that offset is where the task stopped.
fold_in_workers folds the first task in this process and each other one in
a forked worker, which pickles its Report, as it is, down a pipe with the
offsets it began and stopped at, and merges the results in input order. A
task must begin where the one before it stopped; where one does not, the
input is folded again in one process, so the output never depends on a
resync. The CLI imports this module only where it may fork, so a one-CPU
run, or an input too small to split, neither loads nor compiles it.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from functools import partial
from typing import Iterator, Optional

from .ingest import _PCAP_MAGICS, MAX_CAPLEN, TsvReadError, decode_pcap, decode_tsv
from .report import Report, merge_into

# record headers in a row that must be plausible where a task begins in a
# pcap capture; from 2,000 random targets in each of the benchmark's two
# 11.7 MB synthetic captures, three found the true next record every time,
# in ~0.1 ms a target
RESYNC_HEADERS = 3
# how far a plausible record's timestamp may be from the capture's first
# one, in seconds
RESYNC_SECONDS = 7 * 86_400


def plan_tasks(paths: list, sizes: list, cuttable: bool, count: int) -> list:
    """The input files, of these sizes, as `count` contiguous tasks of about
    equal bytes, each a list of (path, start, end) byte ranges in input
    order; end None reads to the end of the file. A range that starts or
    ends inside a file does so at a byte target, and the task reading it
    finds the record there (read_task). A file is cut only if cuttable; one
    that is not goes to the task its middle byte falls in."""
    total = sum(sizes)
    targets = [total * k // count for k in range(1, count)]
    cuts = {(0, 0)}  # (file index, byte offset) where a task begins
    offset = 0
    for i, size in enumerate(sizes):
        for at in [target - offset for target in targets if offset <= target < offset + size]:
            cuts.add((i, at) if cuttable else (i, 0) if at < size / 2 else (i + 1, 0))
        offset += size
    bounds = sorted(cut for cut in cuts if cut[0] < len(paths)) + [(len(paths), 0)]
    tasks = []
    for (first, start), (last, end) in zip(bounds, bounds[1:]):
        task = [(paths[first], start, None)] if first < last else []
        task += [(path, 0, None) for path in paths[first + 1 : last]]
        if end:
            task.append((paths[last], start if first == last else 0, end))
        tasks.append(task)
    return tasks


def _line_start(fd: int, target: int) -> int:
    """Where the first line that begins at or after byte target of a file
    begins: just after the first newline at or after byte target - 1, or
    at the end of the file."""
    if not target:
        return 0
    at = target - 1
    while chunk := os.pread(fd, 1 << 16, at):
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
    return at


def _newlines(fd: int, end: int) -> int:
    """How many newlines the first `end` bytes of a file hold."""
    count = at = 0
    while at < end and (chunk := os.pread(fd, min(1 << 20, end - at), at)):
        count += chunk.count(b"\n")
        at += len(chunk)
    return count


def _pcap_begin(fd: int, target: int) -> Optional[int]:
    """Where a task whose range starts at byte target of a pcap capture
    begins: 0 where target is 0, else the first offset at or after it
    where RESYNC_HEADERS record headers in a row (fewer where the file ends
    first) are plausible (draft-ietf-opsawg-pcap), or the end of the file
    if no record header starts after target. A header is plausible if its
    sub-second field is under 10^6 (10^9 in a nanosecond capture), its
    caplen is at most the snaplen (MAX_CAPLEN where the snaplen is 0 or
    larger) and at most the original length, and its timestamp is within
    RESYNC_SECONDS of the first record's. None where the capture has no
    first record or no header within a record's length of target is
    plausible."""
    if not target:
        return 0  # decode_pcap reads the global header
    head = os.pread(fd, 40, 0)
    if len(head) < 40 or head[:4] not in _PCAP_MAGICS:
        return None  # decode_pcap reads the file from byte 0 in an earlier task
    endian, nano = _PCAP_MAGICS[head[:4]]
    unpack = struct.Struct(endian + "IIII").unpack_from
    snaplen = struct.unpack_from(endian + "I", head, 16)[0]
    if not 0 < snaplen <= MAX_CAPLEN:
        snaplen = MAX_CAPLEN
    subsecond = 1_000_000_000 if nano else 1_000_000
    first = unpack(head, 24)[0]
    at = max(target, 24)
    # a true record starts within 16 + snaplen bytes of any offset, and each
    # header checked from there lies within as many bytes of the one before
    span = 16 + snaplen
    window = os.pread(fd, (RESYNC_HEADERS + 1) * span, at)

    def plausible(i: int) -> bool:
        for checked in range(RESYNC_HEADERS):
            if i + 16 > len(window):
                return checked > 0  # the file ends after a plausible record
            sec, sub, caplen, length = unpack(window, i)
            if sub >= subsecond or caplen > snaplen or caplen > length or abs(sec - first) > RESYNC_SECONDS:
                return False
            i += 16 + caplen
        return True

    for i in range(min(span + 1, len(window))):
        if plausible(i):
            return at + i
    return at + len(window) if len(window) <= span else None


def _read(pcap: bool, path: str, start: int, end: Optional[int], bounds: list, stats) -> Iterator:
    """The Blocks of a file's records that begin in bytes start to end (to
    the end of the file where end is None), the file kept open while they
    are read. Where the range starts inside the file, the offset it began
    at goes in bounds[0] (None where a pcap resync found no record); where
    it ends inside the file, the offset it stopped at goes in bounds[1]."""
    with open(path, "rb") as fh:
        fd = fh.fileno()
        begin = (_pcap_begin if pcap else _line_start)(fd, start)
        if start:
            bounds[0] = begin
        if begin is None:
            return  # the task fails the handshake; the input is folded in one process
        try:
            yield from (decode_pcap if pcap else decode_tsv)(fh, stats, begin, end)
        except TsvReadError as exc:  # numbered from the range's first line
            raise TsvReadError(exc.line + _newlines(fd, begin), exc.error) from exc.error
        if end is not None:
            bounds[1] = fh.tell()


def read_task(task: list, pcap: bool, fold) -> tuple:
    """fold over the reads of a task's ranges, as (the offset its first
    range began at, the offset its last range stopped at, and the Report or
    the exception fold raised). An offset is None where the task does not
    begin or end inside a file."""
    bounds = [None, None]
    try:
        result = fold([partial(_read, pcap, path, start, end, bounds) for path, start, end in task])
    except Exception as exc:
        result = exc
    return bounds[0], bounds[1], result


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


def _work(fd: int, task: list, pcap: bool, fold) -> None:
    """A forked worker: fold the task, send the offsets it began and
    stopped at with its Report (or the exception it raised) down the pipe,
    and leave through os._exit, never returning into the code that forked
    it."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            begin, stop, result = read_task(task, pcap, fold)
            if isinstance(result, Exception):
                result = _portable(result)
            pickle.dump((begin, stop, result), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(running: list) -> tuple:
    """What the first running worker sent, once it is reaped; a worker that
    ends without a result raises ChildProcessError."""
    pid, pipe = running[0]
    with pipe:
        try:
            sent = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            sent = None
    status = os.waitpid(pid, 0)[1]
    running.pop(0)
    if sent is None:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"a worker process ended without a result (exit status {code})")
    return sent


def fold_in_workers(tasks: list, pcap: bool, fold) -> Optional[Report]:
    """fold over the reads of each task's ranges (read_task), the first task
    in this process and each other one in a forked worker, merged in task
    order; the tasks no worker could be forked for are folded here last.

    A task that starts inside a file must begin where the one before it
    stopped. Where one does not, a resync missed the record boundary, and
    this returns None, whatever that task or a later one raised, for the
    caller to fold the input in one process. Otherwise a task's exception is
    raised here in its turn, and a worker that ends without a result raises
    ChildProcessError. Every worker is ended and reaped before this returns.
    """
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
                _work(write_fd, task, pcap, fold)
            os.close(write_fd)
            running.append((pid, open(read_fd, "rb")))
        _, stop, report = read_task(tasks[0], pcap, fold)
        if isinstance(report, Exception):
            raise report  # the first task begins at the input's first byte
        for task in tasks[1:]:
            begin, next_stop, result = _receive(running) if running else read_task(task, pcap, fold)
            if task[0][1] and begin != stop:
                return None
            if isinstance(result, Exception):
                raise result
            merge_into(report, result)
            del result  # freed before the next one is read
            stop = next_stop
        return report
    finally:
        for pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
