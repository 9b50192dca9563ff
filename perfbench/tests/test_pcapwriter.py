import io

import pytest

import pcapwriter
import workloads
from pcapwriter import wire_name, write_pcap
from roottrace.ingest import IngestStats, read_pcap
from roottrace.model import QueryRecord


def test_wire_name_decodes_escapes():
    assert wire_name(".") == b"\x00"
    assert wire_name("www.example.com.") == b"\x03www\x07example\x03com\x00"
    assert wire_name("host.\\128\\255.") == b"\x04host\x02\x80\xff\x00"
    assert wire_name("a\\.b.com.") == b"\x03a.b\x03com\x00"


def test_every_packet_accounted():
    records = [
        QueryRecord(1_649_721_600_000_001 + i, src, 1, 28, name)
        for i, (src, name) in enumerate([("44.242.1.2", "com."), ("2001:db8::1", "."),
                                         ("10.0.0.9", "host1.\\200.")] * 200)
    ]
    buf = io.BytesIO()
    counts = write_pcap(records, buf, seed=3, response_share=0.5, other_share=0.3, malformed_share=0.2)
    stats = IngestStats()
    got = list(read_pcap(io.BytesIO(buf.getvalue()), stats))
    assert [r.qname_raw for r in got] == [r.qname_raw for r in records]
    assert counts.emitted == len(records)
    assert counts.dropped > 0 and counts.skipped > 0
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (
        counts.emitted, counts.dropped, counts.skipped)
    assert counts.packets == counts.emitted + counts.dropped + counts.skipped
    assert stats.bytes_read == counts.bytes == len(buf.getvalue())


def test_block_check_passes():
    workloads.check_pcap_writer(seed=9, count=500)


def test_block_check_catches_a_miscounting_writer(monkeypatch):
    def miscounting(*args, **kwargs):
        counts = write_pcap(*args, **kwargs)
        counts.skipped += 1
        return counts

    monkeypatch.setattr(workloads, "write_pcap", miscounting)
    with pytest.raises(AssertionError, match="accounting"):
        workloads.check_pcap_writer(seed=9, count=500)


def test_block_check_catches_a_wrong_name(monkeypatch):
    real = pcapwriter.wire_name
    monkeypatch.setattr(pcapwriter, "wire_name", lambda name: real(name.upper()))
    with pytest.raises(AssertionError, match="record"):
        workloads.check_pcap_writer(seed=9, count=500)
