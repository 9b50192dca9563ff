"""One fresh-process pass over a workload's inputs; run.py starts it.

    python3 worker.py e2e|traced|setup SRC_DIR SPEC_JSON
    python3 worker.py reference

`e2e` times roottrace.cli.main over the spec's commands with no tracing.
`traced` drives each layer's public functions one stage at a time,
materialising every stage's output, and keeps a span (name, start, end,
parent) around each call in memory until the pass ends.
`setup` only times the set-up. `reference` times the reference kernel
(reference.py) and imports nothing of roottrace, so no program state can
reach it; run.py starts one around every untraced pass.

Each prints one JSON line. Before the set-up is timed only modules the
interpreter has already loaded are imported, so set-up time covers every
module roottrace pulls in.
"""

import sys
import time


def setup(src: str) -> dict:
    """Import roottrace and the CLI, load the registry cold, build the parser."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import roottrace
    from roottrace import cli

    t1 = time.perf_counter()
    roottrace.default_registry()
    t2 = time.perf_counter()
    cli.build_parser()
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "tlds_load_s": t2 - t1}


def run_e2e(spec: dict) -> dict:
    """Time the CLI commands."""
    from roottrace import cli

    start = time.perf_counter()
    codes = [cli.main(argv) for argv in spec["commands"]]
    return {"wall_s": time.perf_counter() - start, "exit_codes": codes}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or None]."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else None]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


def run_traced(spec: dict) -> dict:
    from roottrace import default_registry
    from roottrace.classify import DEFAULT_APPLETALK_TLDS, classify
    from roottrace.ingest import IngestStats, read_pcap, read_tsv
    from roottrace.model import sender_prefix
    from roottrace.names import NameParseError, parse_presentation, to_presentation
    from roottrace.report import (POLICIES, doc_to_csv, doc_to_plotdata, fold, merge, read_report_doc,
                                  write_report)

    registry = default_registry()
    read = read_pcap if spec["format"] == "pcap" else read_tsv
    tracer = Tracer()
    span = tracer.span
    counts = {"emitted": 0, "dropped": 0, "skipped": 0, "bytes": 0, "parse_failed": 0,
              "merge_calls": 0, "keys_copied": 0, "write_bytes": 0}
    all_records: list = []
    all_names: list = []
    shards = []

    with span("pipeline"):
        for path in spec["paths"]:
            stats = IngestStats()
            with span("ingest.read"):
                with open(path, "rb") as fh:
                    records = list(read(fh, stats))
            with span("names.parse_presentation"):
                kept = []
                names = []
                for record in records:
                    try:
                        names.append(parse_presentation(record.qname_raw))
                    except NameParseError:
                        continue
                    kept.append(record)
            with span("classify.classify"):
                classes = [classify(name, registry, DEFAULT_APPLETALK_TLDS) for name in names]
            with span("report.fold"):
                shards.append(fold(zip(kept, classes), label=spec["label"], track_senders=spec["senders"]))
            counts["emitted"] += stats.records_emitted
            counts["dropped"] += stats.records_dropped_unparseable
            counts["skipped"] += stats.packets_skipped
            counts["bytes"] += stats.bytes_read
            counts["parse_failed"] += len(records) - len(kept)
            all_records += records
            all_names += names
        with span("report.merge"):
            report = shards[0]
            for shard in shards[1:]:
                counts["keys_copied"] += (len(report.sender_counts) + len(shard.sender_counts)
                                          + len(report.empty_by_sender) + len(shard.empty_by_sender))
                report = merge(report, shard)
        counts["merge_calls"] = len(shards) - 1
        report.dropped += counts["dropped"] + counts["parse_failed"]
        # like the CLI: json from the Report, other formats re-rendered from the json
        for fmt, out_path in spec["outputs"]:
            with span("report.write_report"):
                if fmt == "json":
                    data = write_report(report, fmt, meta=spec["meta"], policy=POLICIES["default"], top_k=10)
                    json_data = data
                else:
                    render = doc_to_csv if fmt == "csv" else doc_to_plotdata
                    data = render(read_report_doc(json_data))
                with open(out_path, "wb") as fh:
                    fh.write(data)
            counts["write_bytes"] += len(data)

    # probes: single functions timed in isolation, outside the pipeline, on
    # the inputs the pipeline gives them (fold derives IPv4 /16s inline)
    v6_sources = [record.source for record in all_records if ":" in record.source]
    with span("model.sender_prefix"):
        for source in v6_sources:
            sender_prefix(source)
    with span("names.to_presentation"):
        for name in all_names:
            to_presentation(name)

    counts["parsed"] = len(all_names)
    counts["escaped"] = sum(1 for record in all_records if "\\" in record.qname_raw)
    counts["sources"] = len(all_records)
    counts["v6_sources"] = len(v6_sources)
    counts["folded"] = report.total
    counts["sender_prefixes"] = len(report.sender_counts)
    counts["empty_senders"] = len(report.empty_by_sender)
    return {"spans": tracer.spans, "counts": counts}


def main() -> int:
    mode = sys.argv[1]
    if mode == "reference":
        import json

        import reference

        print(json.dumps({"reference_s": reference.measure()}))
        return 0
    src, spec_path = sys.argv[2:4]
    timings = setup(src)
    import json
    import resource

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    if mode == "traced":
        result = run_traced(spec)
    elif mode == "e2e":
        result = run_e2e(spec)
    result.update(timings)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
