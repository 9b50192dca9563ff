"""classify and top-senders fold their input in forked workers: each run
must give the bytes, errors and exit codes of one process at any worker
count, and leave no worker behind.

Every test forces the worker count and the smallest task, the way
test_golden forces ingest.BLOCK, so that even small inputs are split.
"""

import io
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from roottrace import cli, workers
from roottrace.cli import main
from roottrace.names import NameParseError, parse_presentation
from roottrace.synth import generate, tsv_bytes, year_mix
from roottrace.workers import line_starts

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


def force_workers(monkeypatch, count):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)
    monkeypatch.setattr(workers, "MIN_TASK_BYTES", 1)


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


def task_count(paths, cuttable, count, monkeypatch):
    force_workers(monkeypatch, count)
    return len(workers.plan_tasks([str(p) for p in paths], cuttable, count))


def pcap_of(records) -> bytes:
    frames = []
    for record in records:
        payload = dns_payload(parse_presentation(record.qname_raw).labels, record.qtype, record.qclass)
        frames.append((udp6 if ":" in record.source else udp4)(record.source, payload))
    return pcap_file(frames, times=[divmod(r.timestamp, 1_000_000) for r in records])


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
def test_several_files_give_one_process_bytes(fmt, command, tmp_path, monkeypatch, capsys):
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
        assert task_count(paths, fmt == "tsv", count, monkeypatch) > 1
        assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)


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


def range_starts(paths, count, monkeypatch):
    """The first line of every task range that starts inside a file."""
    force_workers(monkeypatch, count)
    starts = []
    for task in workers.plan_tasks([str(p) for p in paths], True, count):
        for path, start, _, _ in task:
            if start:
                with open(path, "rb") as fh:
                    fh.seek(start)
                    starts.append(fh.readline())
    return starts


def test_edge_lines_give_one_process_bytes(tmp_path, monkeypatch, capsys):
    paths = edge_files(tmp_path)
    out = tmp_path / "out"
    for argv in (COMMANDS["classify"], COMMANDS["window"], ["top-senders", "-k", "5"]):
        argv = argv + ["--in", *map(str, paths)]
        code, err, expected = run(argv, 1, monkeypatch, capsys, out)
        assert (code, err) == (0, "")
        for count in (2, 3, 8, 16):
            assert run(argv, count, monkeypatch, capsys, out) == (0, "", expected)
    # the cuts do fall where the lines are awkward
    starts = [line for count in (2, 3, 8, 16) for line in range_starts(paths, count, monkeypatch)]
    assert b"junk line\n" in starts or b"1\t1.2.3.4\tIN\tA\n" in starts
    assert any(line.endswith(b"\r\n") for line in starts)


def test_more_workers_than_lines(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(good(1) + b"junk\n" + good(2, b""))
    argv = ["classify", "--label", "w", "--in", str(path)]
    out = tmp_path / "out"
    code, err, expected = run(argv, 1, monkeypatch, capsys, out)
    assert (code, err) == (0, "")
    assert task_count([path], True, 8, monkeypatch) == 3  # one task per line
    assert run(argv, 8, monkeypatch, capsys, out) == (0, "", expected)


def test_line_starts_finds_the_next_line_and_its_number():
    data = b"ab\ncd\r\n\nefg\nh"
    # offsets 0-2 "ab\n", 3-6 "cd\r\n", 7 "\n", 8-11 "efg\n", 12 "h"
    got = line_starts(io.BytesIO(data), [1, 3, 4, 5, 8, 9, 12])
    assert got == [(3, 2), (7, 3), (8, 4), (12, 5)]
    assert line_starts(io.BytesIO(data), [13]) == []  # in the unterminated last line
    assert line_starts(io.BytesIO(b"ab\ncd\n"), [4]) == [(6, 3)]  # the end of the file


def test_line_starts_across_read_chunks():
    lines = [b"x" * (i % 97) + b"\n" for i in range(5000)]  # ~240 KB, several reads
    data = b"".join(lines)
    offsets = list(range(1, len(data), 7919))
    expected = []
    for offset in offsets:
        at = data.index(b"\n", offset - 1) + 1
        if at < len(data) and (at, data.count(b"\n", 0, at) + 1) not in expected:
            expected.append((at, data.count(b"\n", 0, at) + 1))
    assert line_starts(io.BytesIO(data), offsets) == expected


# --- errors -------------------------------------------------------------------


def test_io_error_in_a_later_range_names_the_line_one_process_names(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    real = cli.decode_tsv

    def decode_tsv(stream, stats, first_line=1):
        def lines():
            for number, line in enumerate(stream, first_line):
                if number == 2500:
                    raise OSError("disk gone")
                yield line

        return real(lines(), stats, first_line)

    monkeypatch.setattr(cli, "decode_tsv", decode_tsv)
    argv = ["classify", "--in", str(path)]
    out = tmp_path / "out"
    # one process names the first line of the 512-line block that holds line 2500
    assert run(argv, 1, monkeypatch, capsys, out) == (2, "roottrace: I/O error at line 2049: disk gone\n", None)
    for count in (2, 3, 8):
        force_workers(monkeypatch, count)
        first_task = workers.plan_tasks([str(path)], True, count)[0]
        assert first_task[0][2] <= len(tsv_bytes(RECORDS[:2499]))  # line 2500 is a worker's
        assert run(argv, count, monkeypatch, capsys, out) == (2, "roottrace: I/O error at line 2049: disk gone\n", None)


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
    real = cli.decode_tsv

    def decode_tsv(stream, stats, first_line=1):
        def lines():
            for number, line in enumerate(stream, first_line):
                if number == 2500:
                    raise error()
                yield line

        return real(lines(), stats, first_line)

    monkeypatch.setattr(cli, "decode_tsv", decode_tsv)
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
        assert task_count(paths, False, count, monkeypatch) > 1
        assert run(argv, count, monkeypatch, capsys, out) == (2, err, None)


def test_a_worker_that_dies_fails_the_command(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    parent = os.getpid()
    real = cli.fold_blocks

    def fold_blocks(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fold_blocks", fold_blocks)
    for count in (2, 3):
        code, err, written = run(["classify", "--in", str(path)], count, monkeypatch, capsys, tmp_path / "out")
        assert (code, written) == (2, None)
        assert err == "roottrace: a worker process ended without a result (exit status 3)\n"


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


# --- when to fork ---------------------------------------------------------------


def test_one_cpu_or_a_small_input_is_one_task(tmp_path, monkeypatch):
    path = tmp_path / "t.tsv"
    path.write_bytes(tsv_bytes(RECORDS))
    whole = [[(str(path), 0, None, 1)]]
    assert workers.plan_tasks([str(path)], True, 1) == whole
    monkeypatch.setattr(workers, "MIN_TASK_BYTES", path.stat().st_size)
    assert workers.plan_tasks([str(path)], True, 4) == whole
    monkeypatch.setattr(workers, "MIN_TASK_BYTES", path.stat().st_size // 2)
    assert len(workers.plan_tasks([str(path)], True, 4)) == 2
    assert workers.plan_tasks([str(path)], False, 4) == whole  # a file that may not be cut


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


def test_importing_the_cli_loads_no_process_machinery():
    # set-up time is import time, so what only a split input needs loads then
    code = ("import sys, roottrace.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'pickle') or m == 'roottrace.workers'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
