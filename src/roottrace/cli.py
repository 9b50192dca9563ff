"""Command-line surface: classify traces, reformat reports, build trend
tables and top-sender tables, and generate synthetic traces.

Exit codes: 0 success, 1 usage error, 2 runtime error. All randomness is
seeded and recorded in report metadata, so identical invocations produce
byte-identical outputs, whatever the number of worker processes.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from itertools import combinations

from . import __version__
from .classify import DEFAULT_APPLETALK_TLDS, classify_block
from .ingest import (IngestError, IngestStats, decode_pcap, decode_tsv, line_start, parse_day, pcap_start,
                     sampler, window)
from .report import (
    POLICIES,
    Report,
    build_report_doc,
    doc_to_empty_senders_csv,
    doc_to_top_senders_csv,
    fold_blocks,
    read_report_doc,
    render_doc,
    trend_csv_from_docs,
    write_report,
)
from .tlds import default_registry, load_registry_path


# A task is given at least this many bytes of input. On a 2-CPU Xeon,
# classify over slices of the benchmark's TSV inputs ran at two tasks about
# as fast as at one from ~90 KiB a task (~180 KiB in all), and 0.8x the time
# from 128 KiB a task; below that, forking a worker and merging what it sends
# back cost more than the task.
MIN_TASK_BYTES = 1 << 17


class _Parser(argparse.ArgumentParser):
    """argparse flavor exiting 1 (not 2) on usage errors; its help width is shutil's, found without shutil."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _get_formatter(self):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        try:
            columns = columns if columns > 0 else os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
        return self.formatter_class(prog=self.prog, width=(columns or 80) - 2)


def _digits(text: str) -> int:
    """A run of ASCII decimal digits as an int; int() would also take a
    sign, spaces, _ and other scripts' digits."""
    if not (text.isdigit() and text.isascii()):
        raise ValueError(f"not decimal digits: {text!r}")
    return int(text)


def _parse_window(text: str) -> tuple[int, int]:
    """Seconds into the day at which a HH:MM-HH:MM window starts and ends."""
    try:
        start_s, end_s = text.split("-")
        sh, sm = map(_digits, start_s.split(":"))
        eh, em = map(_digits, end_s.split(":"))
    except ValueError:
        raise ValueError(f"bad window {text!r}, expected HH:MM-HH:MM") from None
    start, end = sh * 3600 + sm * 60, eh * 3600 + em * 60
    if not (sm <= 59 and em <= 59):
        raise ValueError(f"bad window {text!r}: minutes run 00-59")
    if not start < end <= 86_400:
        raise ValueError(f"inverted or out-of-day window {text!r}")
    return start, end


def _add_ingest_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="inputs", nargs="+", action="extend", required=True,
                     metavar="PATH", help="input trace file(s), folded into one report")
    sub.add_argument("--format", choices=("tsv", "pcap"), default="tsv")
    sub.add_argument("--tld-list", metavar="PATH",
                     help="TLD registry file (default: $ROOTTRACE_TLDS or the pinned snapshot)")
    sub.add_argument("--appletalk", default="appletalk", metavar="TLDS",
                     help="comma-separated TLDs treated as appletalk leakage")
    sub.add_argument("--sample-rate", type=float, default=1.0, metavar="F",
                     help="keep each record with probability F, decided by --seed and the "
                          "record's byte offset in its file alone")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--window", metavar="HH:MM-HH:MM",
                     help="keep a time-of-day window (requires --day-origin)")
    sub.add_argument("--day-origin", metavar="DATE",
                     help="UTC day start for --window: ISO date or epoch seconds")
    sub.add_argument("--label", default="", help="report label, e.g. a year")
    sub.add_argument("--out", required=True, metavar="PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="roottrace",
                     description="Classify and aggregate DNS root-server query traces.")
    parser.add_argument("--version", action="version", version=f"roottrace {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("classify", help="ingest, classify and fold a trace into a JSON report")
    _add_ingest_options(p)
    p.add_argument("--policy", choices=sorted(POLICIES), default="default",
                   help="unexpected-traffic rollup policy")
    p.add_argument("--top-k", type=int, default=10, help="sender table size in the report")
    p.add_argument("--no-senders", action="store_true", help="skip per-sender tables")
    p.set_defaults(func=_cmd_classify)

    p = commands.add_parser("report", help="reformat an existing JSON report")
    p.add_argument("--in", dest="inputs", nargs=1, action="extend", required=True, metavar="PATH")
    p.add_argument("--format", choices=("json", "csv", "plotdata"), default="csv")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_report)

    p = commands.add_parser("top-senders", help="classify a trace and emit the top-sender table")
    _add_ingest_options(p)
    p.add_argument("-k", type=int, default=10, help="number of senders")
    p.add_argument("--empty", action="store_true",
                   help="rank senders of root-name queries instead of all queries")
    p.set_defaults(func=_cmd_top_senders)

    p = commands.add_parser("trend", help="merge labelled JSON reports into a trend CSV")
    p.add_argument("--in", dest="inputs", nargs="+", action="extend", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_trend)

    p = commands.add_parser("gen", help="generate a seeded synthetic trace")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="PATH", help="mix spec file")
    group.add_argument("--preset", type=int, metavar="YEAR",
                       help="published year mix (2013-2022)")
    p.add_argument("--count", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--tld-list", metavar="PATH")
    p.add_argument("--appletalk", default="appletalk", metavar="TLDS")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--truth-out", metavar="PATH",
                   help="also write one ground-truth leaf line per record")
    p.set_defaults(func=_cmd_gen)

    return parser


def _registry_for(args) -> "TldRegistry":
    if getattr(args, "tld_list", None):
        return load_registry_path(args.tld_list)
    return default_registry()


def _appletalk_set(args, parser) -> frozenset:
    """--appletalk's TLDs, lowered as a wire label is: ASCII letters only.
    str.lower() would fold other scripts too (KELVIN SIGN to 'k'), so an
    entry holding a non-ASCII character is a usage error."""
    entries = args.appletalk.split(",")
    for entry in entries:
        if not entry.isascii():
            parser.error(f"--appletalk entry {entry!r} is not ASCII")
    return frozenset(t.strip().lower() for t in entries if t.strip()) or DEFAULT_APPLETALK_TLDS


def _cpu_quota(root: str = "/sys/fs/cgroup", cgroup: str = "/proc/self/cgroup") -> int | None:
    """The CPUs, rounded up, whose run time a cgroup CPU quota on this
    process's cgroup or on one above it allows; the smallest such quota, or
    None where none is set or none can be read. cgroup v2 keeps a quota in
    cpu.max ("max" for none), v1 in the cpu controller's cpu.cfs_quota_us
    (-1 for none) over cpu.cfs_period_us. A cgroup directory that is not
    under the mount, as where a container's own cgroup is the mount's root,
    is skipped for the next one up."""
    try:
        with open(cgroup) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        _, _, controllers_path = line.partition(":")
        controllers, _, path = controllers_path.partition(":")
        if not controllers:
            mounts, names = [root, os.path.join(root, "unified")], ["cpu.max"]
        elif "cpu" in controllers.split(","):
            mounts = [os.path.join(root, controllers), os.path.join(root, "cpu")]
            names = ["cpu.cfs_quota_us", "cpu.cfs_period_us"]
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for mount in dict.fromkeys(mounts):
            for depth in range(len(parts), -1, -1):
                try:
                    values = []
                    for name in names:
                        with open(os.path.join(mount, *parts[:depth], name)) as fh:
                            values += fh.read().split()
                    if values[0] not in ("max", "-1"):
                        quotas.append(max(1, -(-int(values[0]) // int(values[1]))))
                except (OSError, ValueError, IndexError, ZeroDivisionError):
                    continue
    return min(quotas, default=None)


def _usable_cpus() -> int:
    """The CPUs this process may run on, no more than its cgroup CPU quota
    allows; 1 where it has other threads, whose locks a forked worker would
    inherit held, or where the platform cannot tell."""
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1
    return min(cpus, _cpu_quota() or cpus) if cpus > 1 else cpus


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0  # the read of the file raises the error in its turn


def _ingest_report(args, parser, track_senders: bool = True) -> tuple[Report, dict]:
    if args.window and not args.day_origin:
        parser.error("--window requires --day-origin")
    if not 0 < args.sample_rate <= 1:
        parser.error("--sample-rate must be in (0, 1]")
    try:
        win = _parse_window(args.window) if args.window else None
        origin = parse_day(args.day_origin) if args.day_origin else None
    except ValueError as exc:
        parser.error(str(exc))
    appletalk = _appletalk_set(args, parser)
    registry = _registry_for(args)
    decode, find = (decode_pcap, pcap_start) if args.format == "pcap" else (decode_tsv, line_start)
    keep = sampler(args.sample_rate, args.seed) if args.sample_rate < 1 else None

    def fold(ranges: list) -> tuple[int, Report]:
        """The offset the last range stopped at, and the Report of the
        records of each (path, start, end) byte range in turn, as decode_tsv
        and decode_pcap read them: from the record that begins at byte start
        up to the first that begins at or after byte end (to the end of the
        file where end is None)."""
        stats = IngestStats()
        stop = 0

        def classified():
            nonlocal stop
            for path, start, end in ranges:
                with open(path, "rb") as fh:  # open while its blocks are folded
                    blocks = decode(fh, stats, start, end, keep)
                    if win:
                        blocks = window(blocks, win[0], win[1], origin)
                    for block in blocks:
                        yield classify_block(block, registry, appletalk, stats)
                    stop = fh.tell()

        report = fold_blocks(classified(), track_senders=track_senders)
        report.dropped = stats.records_dropped_unparseable + stats.names_unparseable
        return stop, report

    sizes = [_size(path) for path in args.inputs]
    count = min(sum(sizes) // MIN_TASK_BYTES, _usable_cpus())
    if count > 1:
        from . import workers  # loaded only where the input is split

        report = workers.fold_in_workers(workers.plan_tasks(args.inputs, sizes, count), find, fold)
    else:
        _, report = fold([(path, 0, None) for path in args.inputs])
    report.label = args.label  # the one place it is set: folds and merges carry none
    meta = {
        "tool": f"roottrace {__version__}",
        "inputs": list(args.inputs),
        "format": args.format,
        "sample_rate": args.sample_rate,
        "seed": args.seed,
        "window": args.window,
        "day_origin": args.day_origin,
        "registry": registry.source_description,
        "appletalk": sorted(appletalk),
    }
    return report, meta


# open() rather than pathlib.Path: pathlib loads urllib.parse, and with it
# ipaddress, at start-up
def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _cmd_classify(args, parser) -> int:
    if args.top_k < 1:
        parser.error("--top-k must be positive")
    report, meta = _ingest_report(args, parser, track_senders=not args.no_senders)
    data = write_report(report, "json", meta=meta, policy=POLICIES[args.policy], top_k=args.top_k)
    _write(args.out, data)
    return 0


def _cmd_report(args, parser) -> int:
    if len(args.inputs) > 1:
        parser.error("report reformats one report; give --in once")
    doc = read_report_doc(_read(args.inputs[0]))
    _write(args.out, render_doc(doc, args.format))
    return 0


def _cmd_top_senders(args, parser) -> int:
    if args.k < 1:
        parser.error("-k must be positive")
    report, _ = _ingest_report(args, parser)
    render = doc_to_empty_senders_csv if args.empty else doc_to_top_senders_csv
    _write(args.out, render(build_report_doc(report, top_k=args.k)))
    return 0


def _cmd_trend(args, parser) -> int:
    docs = [read_report_doc(_read(path)) for path in args.inputs]
    _write(args.out, trend_csv_from_docs(docs).encode("utf-8"))
    return 0


def _cmd_gen(args, parser) -> int:
    if args.count < 0:
        parser.error("--count must be non-negative")
    from .synth import generate, load_mixspec, preset_years, write_tsv, year_mix

    years = preset_years()
    if args.preset is not None and args.preset not in years:
        parser.error(f"argument --preset: invalid choice: {args.preset} (choose from {', '.join(map(str, years))})")
    spec = load_mixspec(args.spec) if args.spec else year_mix(args.preset)
    if args.seed is not None:
        spec.seed = args.seed
    appletalk = _appletalk_set(args, parser)
    registry = _registry_for(args)
    pairs = generate(spec, args.count, registry, appletalk)

    out, *truth = files = _open_outputs([args.out, *filter(None, [args.truth_out])])
    try:
        if not truth:
            write_tsv((rec for rec, _ in pairs), out)
        else:
            for rec, cls in pairs:
                write_tsv((rec,), out)
                truth[0].write(f"{cls.leaf.value}\t{cls.tld or ''}\t{int(cls.chromium_like)}\n".encode())
    finally:
        for fh in files:
            fh.close()
    return 0


def _open_outputs(paths: list) -> list:
    """Each path open to be written from its first byte, or the OSError of
    one that cannot be opened, or a ValueError where two paths name one
    regular file, with every path left as it was: no file is truncated
    until all are open, and a file this created is removed."""
    files, created = [], []
    try:
        for path in paths:
            try:
                fd = os.open(path, os.O_WRONLY)
            except FileNotFoundError:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                created.append(path)
            files.append(open(fd, "wb"))
        # a pipe or a terminal holds nothing to cut or to write over
        stats = [os.fstat(fh.fileno()) for fh in files]
        regular = [(path, fh, st) for path, fh, st in zip(paths, files, stats) if stat.S_ISREG(st.st_mode)]
        for (first, _, a), (second, _, b) in combinations(regular, 2):
            if os.path.samestat(a, b):  # two handles would write over each other
                raise ValueError(f"{first} and {second} name one file")
    except (OSError, ValueError):
        for fh in files:
            fh.close()
        for path in created:
            os.remove(path)
        raise
    for _, fh, _ in regular:
        fh.truncate()
    return files


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (IngestError, OSError, ValueError) as exc:  # RegistryError and NameParseError among them
        print(f"roottrace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
