"""A fixed reference kernel that measures how fast this machine runs now.

On a shared machine the speed of pure-Python work drifts by a quarter or
more over tens of seconds, because neighbours contend for the same cores
and caches. run.py times this kernel in a fresh process of its own right
before and right after each untraced pass, and reports throughput at the
kernel's reference time, which cancels most of the drift.

The kernel is benchmark code, not roottrace code, and its process never
imports roottrace, so no change to the program moves it. It does the same
kind of work as the pipeline: it splits TSV lines, derives a /16 prefix and
a TLD, and counts into nested dicts.
"""

from __future__ import annotations

import random
import statistics
import time

# The kernel's time on an uncontended 2-core Xeon under CPython 3.11;
# throughput is reported as if every pass ran at this speed.
REFERENCE_S = 0.020
REPEATS = 3
_LINES = 15_000
_TLDS = frozenset([b"com", b"net", b"org", b"arpa"])


def block() -> list[bytes]:
    """The kernel's fixed input: seeded TSV query lines."""
    rng = random.Random(0)
    tlds = ("com", "net", "org", "lan", "home")
    return [
        f"{1_649_721_600_000_000 + i}\t{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}."
        f"{rng.randrange(256)}\tIN\tA\thost{i}.{tlds[rng.randrange(len(tlds))]}.".encode()
        for i in range(_LINES)
    ]


def kernel(lines: list[bytes]) -> float:
    """Seconds taken to tally lines once."""
    start = time.perf_counter()
    by_prefix: dict = {}
    for line in lines:
        fields = line.split(b"\t")
        source = fields[1].decode("ascii")
        prefix = source[: source.find(".", source.find(".") + 1)]
        labels = fields[4].rstrip(b".").split(b".")
        key = (labels[-1].lower() in _TLDS, len(labels))
        counts = by_prefix.get(prefix)
        if counts is None:
            by_prefix[prefix] = {key: 1}
        else:
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def measure() -> float:
    """Median seconds of REPEATS kernel runs over one block."""
    lines = block()
    return statistics.median(kernel(lines) for _ in range(REPEATS))
