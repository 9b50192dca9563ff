"""classify and top-senders fold their input in forked workers: each run
must give the bytes, errors and exit codes of one process at any worker
count, and leave no worker behind.

Every test forces the worker count and the smallest task, the way
test_golden forces ingest.BLOCK, so that even small inputs are split. The
parity tests also check, through the splits fixture, that each split's
tasks met where the input was cut, so that their bytes do not come from
the refold that follows a missed resync.
"""

import ast
import json
import os
import pickle
import random
import signal
import string
import struct
import subprocess
import sys
import threading
from itertools import accumulate
from pathlib import Path

import pytest

from roottrace import cli, ingest, workers
from roottrace.cli import main
from roottrace.ingest import PcapError, decode_pcap
from roottrace.names import NameParseError, parse_presentation
from roottrace.report import Report
from roottrace.synth import generate, tsv_bytes, year_mix

from test_ingest import dns_payload, pcap_file, udp4, udp6, with_caplen

SRC = str(Path(__file__).resolve().parent.parent / "src")

RECORDS = [record for record, _ in generate(year_mix(2022, seed=1010), 3000)]


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test whose command hangs, say on a worker that never answers,
    instead of hanging the suite; the command still reaps its workers."""

    def expire(signum, frame):
        raise TimeoutError("the command did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def splits(monkeypatch):
    """(task count, the indexes of the tasks folded again in this process)
    of each input split in workers, in order; a task that does not begin
    where the one before it stopped is folded again from there, and so is
    one whose worker delivered nothing. No fork fails in the tests that use
    this, so every later task this process folds is such a refold."""
    real = workers.fold_in_workers
    seen = []

    def fold_in_workers(tasks, find, fold):
        parent = os.getpid()
        ends = []  # (path, end) of the last range of each task this process folds

        def tracked(ranges):
            if os.getpid() == parent:
                ends.append(ranges[-1][::2])
            return fold(ranges)

        report = real(tasks, find, tracked)
        planned = [task[-1][::2] for task in tasks]
        seen.append((len(tasks), [planned.index(end) for end in ends[1:]]))
        return report

    monkeypatch.setattr(workers, "fold_in_workers", fold_in_workers)
    return seen


def force_workers(monkeypatch, count):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)
    monkeypatch.setattr(cli, "MIN_TASK_BYTES", 1)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(argv, count, monkeypatch, capsys, out):
    """Exit code, stderr and output bytes (None if none was written) of one
    command at a forced worker count."""
    force_workers(monkeypatch, count)
    if out.exists():
        out.unlink()
    code = main(argv + ["--out", str(out)])
    assert_no_child()
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def plan(paths, count) -> list:
    """The tasks of a forced worker count, as the CLI plans them."""
    paths = [str(p) for p in paths]
    return workers.plan_tasks(paths, [cli._size(p) for p in paths], count)


def task_count(paths, count, monkeypatch):
    force_workers(monkeypatch, count)
    return len(plan(paths, count))


def pcap_of(records, endian="<", nano=False, linktype=1) -> bytes:
    """A capture of the records' queries, in Ethernet frames or, for link
    type 101, as raw IP."""
    frames, times = [], []
    for record in records:
        payload = dns_payload(parse_presentation(record.qname_raw).labels, record.qtype, record.qclass)
        frame = (udp6 if ":" in record.source else udp4)(record.source, payload)
        frames.append(frame if linktype == 1 else frame[14:])
        sec, micros = divmod(record.timestamp, 1_000_000)
        times.append((sec, micros * 1000 if nano else micros))
    return pcap_file(frames, endian, nano, linktype, times)


COMMANDS = {
    # merging sorts the parts of a label; the report keeps it as given
    "classify": ["classify", "--label", "b+a"],
    "nosenders": ["classify", "--label", "w", "--no-senders"],
    "sampled": ["classify", "--label", "w", "--sample-rate", "0.3", "--seed", "5"],
    "window": ["classify", "--label", "w", "--window", "06:00-12:00", "--day-origin", "2022-04-12"],
    "top-senders": ["top-senders", "-k", "25", "--empty"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_several_files_give_one_process_bytes(fmt, command, tmp_path, monkeypatch, capsys, splits):
    paths = []
    for i, cut in enumerate(range(0, 3000, 750)):
        path = tmp_path / f"part{i}.{fmt}"
        part = RECORDS[cut : cut + 750]
        path.write_bytes(tsv_bytes(part) if fmt == "tsv" else pcap_of(part))
        paths.append(path)
    argv = COMMANDS[command] + ["--format", fmt, "--in", *map(str, paths)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    for count in (2, 3, 8):
        assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
        # a file is cut inside, sampled or not, pcap too
        tasks = plan(paths, count)
        assert splits.pop() == (len(tasks), []) and len(tasks) > 1
        assert any(start for task in tasks for _, start, _ in task)


def good(i: int, end: bytes = b"\n") -> bytes:
    return b"%d\t198.51.%d.7\tIN\tA\thost%d.example.com.%s" % (1_649_721_600_000_000 + i, i % 7, i, end)


def edge_files(tmp_path):
    """Files that put CRLF lines, blank lines and malformed lines next to the
    cuts, with a one-line file and a last line with no newline."""
    lines = []
    for i in range(60):
        lines.append(good(i, b"\r\n" if i % 4 == 1 else b"\n"))
        lines.append((b"junk line\n", b"\n", b"\r\n", b"1\t1.2.3.4\tIN\tA\n", b"2\t300.1.2.3\tIN\tA\tcom.\n")[i % 5])
    names = {"a.tsv": b"".join(lines), "one.tsv": good(100), "b.tsv": b"".join(lines[:30]) + good(101, b"")}
    paths = []
    for name, data in names.items():
        path = tmp_path / name
        path.write_bytes(data)
        paths.append(path)
    return paths


def range_starts(paths, count):
    """The first line of every task range that starts inside a file."""
    starts = []
    for task in plan(paths, count):
        for path, start, _ in task:
            if start:
                with open(path, "rb") as fh:
                    fh.seek(ingest.line_start(fh.fileno(), start))
                    starts.append(fh.readline())
    return starts


def test_edge_lines_give_one_process_bytes(tmp_path, monkeypatch, capsys, splits):
    paths = edge_files(tmp_path)
    out = tmp_path / "out"
    for argv in (COMMANDS["classify"], COMMANDS["window"], ["top-senders", "-k", "5"]):
        argv = argv + ["--in", *map(str, paths)]
        code, err, expected = run(argv, 1, monkeypatch, capsys, out)
        assert (code, err) == (0, "")
        for count in (2, 3, 8, 16):
            assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
            assert splits.pop() == (count, [])
    # the cuts do fall where the lines are awkward
    starts = [line for count in (2, 3, 8, 16) for line in range_starts(paths, count)]
    assert b"junk line\n" in starts or b"1\t1.2.3.4\tIN\tA\n" in starts
    assert any(line.endswith(b"\r\n") for line in starts)


def test_ten_thousand_invalid_tlds_give_one_process_bytes(tmp_path, monkeypatch, capsys, splits):
    """Each line leaks its own TLD to the root, so leaf_counts holds a key
    per line and the split runs send and merge ~10^4 leaf keys."""
    rng = random.Random(18)
    lines = []
    for i in range(12_000):
        tld = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(5, 13)))
        lines.append(b"%d\t10.%d.%d.1\tIN\tA\thost%d.%s.\n" % (i + 1, i % 251, i % 7, i, tld.encode()))
    path = tmp_path / "wide.tsv"
    path.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    for argv in (["classify"], ["classify", "--no-senders"]):
        argv = argv + ["--in", str(path)]
        code, err, expected = run(argv, 1, monkeypatch, capsys, out)
        assert (code, err) == (0, "")
        assert len(json.loads(expected)["leaves"]["has_tld"]["invalid"]["other"]["by_tld"]) > 10_000
        for count in (2, 3):
            assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
            assert splits.pop() == (count, [])


def test_more_workers_than_lines(tmp_path, monkeypatch, capsys, splits):
    path = tmp_path / "t.tsv"
    path.write_bytes(good(1) + b"junk\n" + good(2, b""))
    argv = ["classify", "--label", "w", "--in", str(path)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    # eight byte targets in three lines: most tasks find no line of their own
    assert task_count([path], 8, monkeypatch) == 8
    assert run(argv, 8, monkeypatch, capsys, out) == (0, "", expected)
    assert splits == [(8, [])]


def test_workers_reads_no_input_format():
    """workers only cuts and forks: every record layout, and every finder of
    a record at a byte target, is ingest's."""
    tree = ast.parse(Path(workers.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("roottrace." * bool(node.level) + (node.module or "")).rstrip(".")  # workers imports from its own package
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert "roottrace.report" in imported
    assert not [name for name in imported if name == "struct" or name.startswith("roottrace.ingest")]


def line_starts(data: bytes, targets, tmp_path) -> list:
    path = tmp_path / "lines"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        return [ingest.line_start(fh.fileno(), target) for target in targets]


def test_a_range_begins_at_the_first_line_at_or_after_its_target(tmp_path):
    data = b"ab\ncd\r\n\nefg\nh"
    # offsets 0-2 "ab\n", 3-6 "cd\r\n", 7 "\n", 8-11 "efg\n", 12 "h"
    got = line_starts(data, range(15), tmp_path)
    assert got == [0, 3, 3, 3, 7, 7, 7, 7, 8, 12, 12, 12, 12, 13, 13]  # 13: the end of the file
    assert line_starts(b"ab\ncd\n", [4, 6], tmp_path) == [6, 6]


def test_a_range_finds_its_line_across_read_chunks(tmp_path):
    lines = [b"x" * (i * 7919 % 150_000) + b"\n" for i in range(12)]  # lines longer than a read
    data = b"".join(lines)
    targets = list(range(1, len(data) + 1, 4099))
    expected = [data.index(b"\n", target - 1) + 1 for target in targets]
    assert line_starts(data, targets, tmp_path) == expected


# --- errors -------------------------------------------------------------------


def fail_at_line(monkeypatch, data: bytes, number: int, error) -> None:
    """Make every TSV read, whole or a range, raise error() where it reads
    line `number` of data, which must be the only line with its text."""
    line = data.splitlines(True)[number - 1]
    assert data.count(line) == 1
    real = cli.decode_tsv

    class Failing:
        """The file, as seekable as it is, whose line `number` cannot be read."""

        def __init__(self, stream):
            self.stream = stream

        def __getattr__(self, name):
            return getattr(self.stream, name)

        def __iter__(self):
            return self

        def __next__(self):
            text = next(self.stream)
            if text == line:
                raise error()
            return text

    def decode_tsv(stream, stats=None, start=0, end=None, keep=None):
        return real(Failing(stream), stats, start, end, keep)

    monkeypatch.setattr(cli, "decode_tsv", decode_tsv)


def test_io_error_in_a_later_range_names_the_line_one_process_names(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    fail_at_line(monkeypatch, path.read_bytes(), 2500, lambda: OSError("disk gone"))
    at = len(tsv_bytes(RECORDS[:2499]))  # where line 2500 begins
    # sampled too, with a seed that keeps line 2500 and one that does not:
    # every line is read, kept or not
    seeds = [next(seed for seed in range(100) if ingest.sampler(0.3, seed)(at) is kept) for kept in (True, False)]
    for options in ([], *(["--sample-rate", "0.3", "--seed", str(seed)] for seed in seeds)):
        argv = ["classify", *options, "--in", str(path)]
        out = tmp_path / "out"
        # the line whose read failed, whichever block or range holds it
        assert run(argv, 1, monkeypatch, capsys, out) == (2, "roottrace: I/O error reading line 2500: disk gone\n", None)
        for count in (2, 3, 8):
            force_workers(monkeypatch, count)
            first_task = plan([path], count)[0]
            assert first_task[0][2] <= at  # line 2500 is a worker's
            assert run(argv, count, monkeypatch, capsys, out) == (2, "roottrace: I/O error reading line 2500: disk gone\n", None)


def test_an_io_error_in_a_range_names_its_line_in_the_file(tmp_path, monkeypatch, capsys):
    lines = [good(i) for i in range(11)]
    path = tmp_path / "t.tsv"
    path.write_bytes(b"".join(lines))
    fail_at_line(monkeypatch, path.read_bytes(), 10, lambda: OSError("disk gone"))
    # a line at a time, so that the first task never reads line 10
    monkeypatch.setattr(ingest, "BLOCK", 1)
    starts = [0, *accumulate(map(len, lines))]  # starts[i] is where line i + 1 begins
    argv = ["classify", "--in", str(path)]
    out = tmp_path / "out"
    expected = (2, "roottrace: I/O error reading line 10: disk gone\n", None)
    assert run(argv, 1, monkeypatch, capsys, out) == expected  # a range from line 1
    # the second task's range starts at line 7 or line 10 itself, or at a
    # target inside line 6 or 9, which begins at line 7 or 10
    for target, begin in ((starts[6], starts[6]), (starts[9], starts[9]),
                          (starts[5] + 3, starts[6]), (starts[8] + 3, starts[9])):
        with open(path, "rb") as fh:
            assert ingest.line_start(fh.fileno(), target) == begin
        tasks = [[(str(path), 0, target)], [(str(path), target, None)]]
        monkeypatch.setattr(workers, "plan_tasks", lambda paths, sizes, count: tasks)
        assert run(argv, 2, monkeypatch, capsys, out) == expected


class Unpicklable(ValueError):
    """An error holding what pickle cannot carry."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@pytest.mark.parametrize("error", [
    lambda: NameParseError("bad-escape", "bad escape at line 2500"),  # its args are not its constructor's
    lambda: Unpicklable("unpicklable at line 2500"),
], ids=["name-parse-error", "unpicklable"])
def test_an_error_pickle_cannot_rebuild_is_reported_as_one_process_reports_it(error, tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    fail_at_line(monkeypatch, path.read_bytes(), 2500, error)
    argv = ["classify", "--in", str(path)]
    out = tmp_path / "out"
    expected = run(argv, 1, monkeypatch, capsys, out)
    assert expected == (2, f"roottrace: {error()}\n", None)
    for count in (2, 3, 8):
        assert run(argv, count, monkeypatch, capsys, out) == expected


def pcap_files(tmp_path, kinds):
    """One pcap file per kind: good, corrupt (a record claiming 4 GiB after
    100 good ones) or missing."""
    paths = []
    for i, kind in enumerate(kinds):
        path = tmp_path / f"{i}-{kind}.pcap"
        data = pcap_of(RECORDS[i * 500 : i * 500 + 500])
        if kind == "corrupt":
            at = 24
            for _ in range(100):
                at += 16 + int.from_bytes(data[at + 8 : at + 12], "little")
            data = with_caplen(data, at, 0xFFFFFFF0)
        if kind != "missing":
            path.write_bytes(data)
        paths.append(path)
    return paths


@pytest.mark.parametrize("kinds", [
    ("good", "corrupt", "good", "good"),
    ("good", "corrupt", "missing", "good"),
    ("good", "missing", "corrupt", "good"),
    ("corrupt", "good", "good", "missing"),
])
def test_the_first_error_in_input_order_wins(kinds, tmp_path, monkeypatch, capsys):
    paths = pcap_files(tmp_path, kinds)
    argv = ["classify", "--format", "pcap", "--in", *map(str, paths)]
    out = tmp_path / "out"
    code, err, written = run(argv, 1, monkeypatch, capsys, out)
    first = kinds.index("corrupt") if "missing" not in kinds else min(kinds.index("corrupt"), kinds.index("missing"))
    assert code == 2 and written is None
    assert ("corrupt pcap record" if kinds[first] == "corrupt" else "No such file") in err
    for count in (2, 4):
        assert task_count(paths, count, monkeypatch) > 1
        assert run(argv, count, monkeypatch, capsys, out) == (2, err, None)


@pytest.mark.parametrize("first", ["good", "corrupt"])
def test_a_cut_in_a_file_that_cannot_be_opened_fails_in_its_turn(first, tmp_path, monkeypatch, capsys):
    # a directory has a size, so it can be cut, but opening it fails
    path, = pcap_files(tmp_path, [first])
    unreadable = tmp_path / "dir.pcap"
    unreadable.mkdir()
    argv = ["classify", "--format", "pcap", "--in", str(path), str(unreadable)]
    out = tmp_path / "out"
    code, err, written = run(argv, 1, monkeypatch, capsys, out)
    assert (code, written) == (2, None)
    assert ("corrupt pcap record" if first == "corrupt" else "Is a directory") in err
    tasks = [[(str(path), 0, None), (str(unreadable), 0, 2)], [(str(unreadable), 2, None)]]
    monkeypatch.setattr(workers, "plan_tasks", lambda paths, sizes, count: tasks)
    assert run(argv, 2, monkeypatch, capsys, out) == (2, err, None)


def assert_dead_workers_tasks_folded_here(path, monkeypatch, capsys, splits):
    """Split runs whose every worker dies give the one-process bytes, each
    worker's task folded once by the command's own process."""
    argv = ["classify", "--in", str(path)]
    out = path.parent / "out"
    expected = run(argv, 1, monkeypatch, capsys, out)
    assert expected[:2] == (0, "")
    for count in (2, 3):
        del splits[:]
        assert run(argv, count, monkeypatch, capsys, out) == expected
        assert splits == [(count, list(range(1, count)))]


def test_a_worker_that_dies_has_its_task_folded_here(tmp_path, monkeypatch, capsys, splits):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    parent = os.getpid()
    real = cli.fold_blocks

    def fold_blocks(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fold_blocks", fold_blocks)
    assert_dead_workers_tasks_folded_here(path, monkeypatch, capsys, splits)


@pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
def test_a_worker_that_dies_part_way_through_its_send_has_its_task_folded_here(share, tmp_path, monkeypatch, capsys, splits):
    # the worker writes the first byte, half, or all but the last byte of
    # its pickled (stop, Report) before it dies
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    parent = os.getpid()
    real = pickle.dump

    def dump(obj, file, protocol=None):
        if os.getpid() == parent:
            return real(obj, file, protocol)
        data = pickle.dumps(obj, protocol)
        file.write(data[: max(1, min(len(data) - 1, int(len(data) * share)))])
        file.flush()
        os._exit(3)

    monkeypatch.setattr(pickle, "dump", dump)
    assert_dead_workers_tasks_folded_here(path, monkeypatch, capsys, splits)


@pytest.mark.parametrize("error", [
    lambda: NameParseError("bad-escape", "bad escape at byte 40"),  # its args are not its constructor's
    lambda: Unpicklable("unpicklable at byte 40"),
], ids=["name-parse-error", "unpicklable"])
def test_a_workers_error_reaches_the_caller_as_itself(error, tmp_path):
    # the fold of the task at byte 40 raises, in whichever process runs it
    path = tmp_path / "f"
    path.write_bytes(bytes(100))
    expected = error()

    def fold(ranges):
        if ranges[0][1] == 40:
            raise error()
        return ranges[-1][2] or 100, Report()

    tasks = [[(str(path), start, end)] for start, end in ((0, 20), (20, 40), (40, 60), (60, None))]
    with pytest.raises(type(expected)) as raised:
        workers.fold_in_workers(tasks, lambda fd, target: target, fold)
    assert type(raised.value) is type(expected)
    assert str(raised.value) == str(expected)
    assert getattr(raised.value, "reason", None) == getattr(expected, "reason", None)
    assert_no_child()


def test_tasks_no_worker_could_be_forked_for_are_folded_here(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    argv = ["classify", "--in", str(path)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert run(argv, 4, monkeypatch, capsys, out) == (0, "", expected)
    assert len(forks) == 2  # one worker, then the failure; three tasks folded here


# --- pcap captures ---------------------------------------------------------------


def assert_one_process_bytes(argv, monkeypatch, capsys, out, splits, counts=(2, 3, 8)):
    """The command gives its one-process bytes at each worker count, from
    tasks that met where the input was cut."""
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    for count in counts:
        assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
        assert splits.pop() == (count, [])


@pytest.mark.parametrize("variant", [
    {"nano": True}, {"endian": ">"}, {"linktype": 101}, {"endian": ">", "nano": True, "linktype": 101},
], ids=["nanosecond", "big-endian", "raw-ip", "all-three"])
def test_pcap_variants_give_one_process_bytes(variant, tmp_path, monkeypatch, capsys, splits):
    path = tmp_path / "t.pcap"
    path.write_bytes(pcap_of(RECORDS, **variant))
    argv = COMMANDS["classify"] + ["--format", "pcap", "--in", str(path)]
    assert_one_process_bytes(argv, monkeypatch, capsys, tmp_path / "out", splits)


def record_offsets(data: bytes) -> list:
    """The offset of each record header of a little-endian capture."""
    offsets = [24]
    while offsets[-1] + 16 <= len(data):
        offsets.append(offsets[-1] + 16 + int.from_bytes(data[offsets[-1] + 8 : offsets[-1] + 12], "little"))
    return offsets[:-1]


@pytest.mark.parametrize("truncated", [False, True], ids=["whole", "truncated"])
def test_a_target_inside_the_last_record(truncated, tmp_path, monkeypatch, capsys, splits):
    # a last query long enough to hold the last target at 8 workers
    big = udp4("192.0.2.9", dns_payload([b"www", b"example", b"com"], 1) + b"\0" * 3000)
    data = pcap_of(RECORDS[:150]) + struct.pack("<IIII", 1_649_800_000, 5, len(big), len(big)) + big
    if truncated:  # cut short, as a capture that was stopped mid-write is
        data = data[:-1000]
    path = tmp_path / "t.pcap"
    path.write_bytes(data)
    last = record_offsets(data)[-1]
    assert last < len(data) * 7 // 8 < len(data)
    argv = COMMANDS["classify"] + ["--format", "pcap", "--in", str(path)]
    assert_one_process_bytes(argv, monkeypatch, capsys, tmp_path / "out", splits)


def test_a_corrupt_record_past_a_cut_fails_as_in_one_process(tmp_path, monkeypatch, capsys):
    data = pcap_of(RECORDS[:1000])
    at = record_offsets(data)[800]
    path = tmp_path / "t.pcap"
    path.write_bytes(with_caplen(data, at, 0xFFFFFFF0))
    argv = ["classify", "--format", "pcap", "--in", str(path)]
    out = tmp_path / "out"
    expected = (2, f"roottrace: corrupt pcap record at byte {at}: caplen 4294967280 over 262144\n", None)
    assert run(argv, 1, monkeypatch, capsys, out) == expected
    for count in (2, 3, 8):
        assert at > len(data) // count  # past the first cut
        assert run(argv, count, monkeypatch, capsys, out) == expected


def decoded_here(monkeypatch) -> list:
    """The (start, stop) byte span of each capture range this process
    decodes, in the order it decodes them."""
    parent = os.getpid()
    real = cli.decode_pcap
    spans = []

    def decode_pcap(stream, stats=None, start=0, end=None, keep=None):
        yield from real(stream, stats, start, end, keep)
        if os.getpid() == parent:
            spans.append((start, stream.tell()))

    monkeypatch.setattr(cli, "decode_pcap", decode_pcap)
    return spans


def assert_each_byte_once(spans, size):
    """The spans cover bytes 0 to size, each one once."""
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
    assert spans[-1][1] == size


def test_a_resync_to_a_wrong_offset_gives_one_process_bytes(tmp_path, monkeypatch, capsys, splits):
    path = tmp_path / "t.pcap"
    path.write_bytes(pcap_of(RECORDS))
    real = ingest.pcap_start
    monkeypatch.setattr(cli, "pcap_start", lambda fd, target: real(fd, target) + 1)
    argv = COMMANDS["classify"] + ["--format", "pcap", "--in", str(path)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    for count in (2, 3, 8):
        spans = decoded_here(monkeypatch)
        assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
        # every later task missed and was folded again here, from where the
        # one before it stopped, and no byte was decoded here twice
        assert splits.pop() == (count, list(range(1, count)))
        assert_each_byte_once(spans, path.stat().st_size)


def test_a_payload_that_imitates_record_headers_gives_one_process_bytes(tmp_path, monkeypatch, capsys, splits):
    """A frame's bytes hold three plausible record headers in a row, just
    past the middle of the file, and then one claiming 4 GiB: the second
    task resyncs to them and its worker raises, and the command still gives
    the one-process report, folding that task again from where the first
    one stopped."""
    before, after = pcap_of(RECORDS[:100]), pcap_of(RECORDS[100:200])[24:]
    length = 4000
    size = len(before) + 16 + length + len(after)
    fake_at = size // 2 + 3 - (len(before) + 16)  # in the frame, just past the middle of the file
    fake = b""
    sec = int.from_bytes(before[24:28], "little")
    for _ in range(3):
        fake += struct.pack("<IIII", sec, 0, 10, 10) + b"\1" * 10
    fake += struct.pack("<IIII", sec, 0, 0xFFFFFFF0, 0xFFFFFFF0)
    frame = b"\0" * fake_at + fake + b"\0" * (length - fake_at - len(fake))
    data = before + struct.pack("<IIII", sec, 1, length, length) + frame + after
    path = tmp_path / "t.pcap"
    path.write_bytes(data)
    # the second task resyncs to the imitation and fails past it
    (_, target, _), = plan([path], 2)[1]
    with open(path, "rb") as fh:
        begin = ingest.pcap_start(fh.fileno(), target)
        assert begin == len(before) + 16 + fake_at
        with pytest.raises(PcapError):
            list(decode_pcap(fh, None, begin, None))
    argv = COMMANDS["classify"] + ["--format", "pcap", "--in", str(path)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    spans = decoded_here(monkeypatch)
    assert run(argv, 2, monkeypatch, capsys, out) == (0, "", expected)
    assert splits == [(2, [1])]
    assert_each_byte_once(spans, len(data))


# --- when to fork ---------------------------------------------------------------


def test_one_cpu_or_a_small_input_is_one_task(tmp_path, monkeypatch, splits):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    size = path.stat().st_size

    def run_with(cpus, min_task, *options):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "MIN_TASK_BYTES", min_task)
        assert main(["classify", *options, "--in", str(path), "--out", str(tmp_path / "out")]) == 0
        return splits.pop() if splits else None

    assert run_with(1, 1) is None
    assert run_with(4, size) is None
    assert run_with(4, size // 2) == (2, [])
    assert run_with(4, 1, "--sample-rate", "0.5") == (4, [])  # a sampled file is cut like any other


def test_a_process_with_other_threads_forks_no_workers():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the platform cannot say which CPUs a process may use")
    cpus = len(os.sched_getaffinity(0))
    assert cli._usable_cpus() == min(cpus, cli._cpu_quota() or cpus)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._usable_cpus() == 1
    finally:
        stop.set()
        thread.join()


def cgroup_tree(tmp_path, lines, files):
    """A /proc/self/cgroup of these lines and a cgroup mount holding these
    files, as the arguments _cpu_quota reads them from."""
    root = tmp_path / "cgroup"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text + "\n")
    (tmp_path / "self").write_text("".join(line + "\n" for line in lines))
    return str(root), str(tmp_path / "self")


@pytest.mark.parametrize("lines, files, quota", [
    (["0::/"], {"cpu.max": "200000 100000"}, 2),
    (["0::/"], {"cpu.max": "max 100000"}, None),
    (["0::/a/b"], {"a/b/cpu.max": "max 100000", "a/cpu.max": "150000 100000"}, 2),  # rounded up
    (["0::/a"], {"unified/a/cpu.max": "300000 100000"}, 3),  # v2 beside v1 controllers
    (["4:cpu,cpuacct:/docker/x", "3:memory:/docker/x"],  # the container's cgroup is the mount's root
     {"cpu,cpuacct/cpu.cfs_quota_us": "50000", "cpu,cpuacct/cpu.cfs_period_us": "100000"}, 1),
    (["1:cpu:/", "2:cpuacct:/"], {"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, None),
    (["0::/", "1:cpu:/"], {"cpu.max": "400000 100000", "cpu/cpu.cfs_quota_us": "200000",
                           "cpu/cpu.cfs_period_us": "100000"}, 2),
    (["0::/"], {"cpu.max": "garbled"}, None),
    (["0::/"], {}, None),
])
def test_cpu_quota_reads_the_tightest_cgroup_limit(lines, files, quota, tmp_path):
    assert cli._cpu_quota(*cgroup_tree(tmp_path, lines, files)) == quota


def test_cpu_quota_without_a_cgroup_file_is_none(tmp_path):
    assert cli._cpu_quota(str(tmp_path), str(tmp_path / "missing")) is None


def test_a_cpu_quota_caps_the_worker_count(monkeypatch):
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs a process that may run on two CPUs")
    monkeypatch.setattr(cli, "_cpu_quota", lambda: 1)
    assert cli._usable_cpus() == 1
    monkeypatch.setattr(cli, "_cpu_quota", lambda: 1024)
    assert cli._usable_cpus() == len(os.sched_getaffinity(0))


LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent', 'pickle')"
          " or m == 'roottrace.workers'))")


def loaded_by(code: str, *args) -> str:
    """What of the process machinery a fresh interpreter has loaded after
    running code with these arguments."""
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{LOADED}", *map(str, args)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_process_machinery(tmp_path):
    # set-up time is import time, so what only a split input needs loads then
    assert loaded_by("import roottrace.cli") == "[]"
    # nor does a run that stays in one process compile the resync code
    big, small = tmp_path / "big.pcap", tmp_path / "small.pcap"
    big.write_bytes(pcap_of(RECORDS * 2))
    small.write_bytes(pcap_of(RECORDS[:1000]))
    assert big.stat().st_size >= 2 * cli.MIN_TASK_BYTES > small.stat().st_size
    classify = ("import os\nfrom roottrace.cli import main\n"
                "if sys.argv[1] == 'one-cpu': os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "assert main(['classify', '--format', 'pcap', '--in', sys.argv[2], '--out', sys.argv[3]]) == 0")
    assert loaded_by(classify, "all", small, tmp_path / "out") == "[]"
    if not hasattr(os, "sched_setaffinity") or cli._usable_cpus() < 2:
        pytest.skip("needs a process that may run on two CPUs")
    assert loaded_by(classify, "one-cpu", big, tmp_path / "out") == "[]"
    assert "roottrace.workers" in loaded_by(classify, "all", big, tmp_path / "out")


def test_start_up_loads_no_introspection_and_a_split_run_no_signal(tmp_path):
    """Set-up time is import time. Start-up loads none of dataclasses,
    inspect (which dataclasses loads) or pkgutil, nor hashlib and OpenSSL's
    _hashlib for the registry's fingerprint, nor shutil for argparse's help
    width, and a run split across CPUs
    kills its workers with _signal's SIGKILL, so signal, which builds its
    IntEnums on import, stays unloaded. -S, as a site-packages .pth file may
    import any of them first."""

    def loaded(code: str, *args) -> str:
        unloaded = ('dataclasses', 'inspect', 'pkgutil', 'signal', 'hashlib', '_hashlib', 'shutil')
        shown = f"print(sorted(m for m in {unloaded} if m in sys.modules))"
        proc = subprocess.run([sys.executable, "-S", "-c", f"import sys\n{code}\n{shown}", *map(str, args)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert loaded("import roottrace.cli\nroottrace.cli.build_parser()\nroottrace.default_registry()") == "[]"
    if not hasattr(os, "sched_getaffinity") or cli._usable_cpus() < 2:
        pytest.skip("needs a process that may run on two CPUs")
    big = tmp_path / "big.pcap"
    big.write_bytes(pcap_of(RECORDS * 2))
    classify = ("from roottrace.cli import main\n"
                "assert main(['classify', '--format', 'pcap', '--in', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "assert 'roottrace.workers' in sys.modules")
    assert loaded(classify, big, tmp_path / "out") == "[]"
