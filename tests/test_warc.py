"""WARC reader/writer tests (sources/warc.py)."""

import datetime

import pytest

from ctinexus_ray.sources.warc import (
    build_warc,
    gunzip_members,
    iter_warc_records,
    parse_warc_file,
    read_warc,
    write_warc_corpus,
)

_REC = {"url": "http://a.example/1", "date": "2021-05-01T12:00:00Z",
        "html": b"<html><body>one</body></html>"}
_REC2 = {"url": "http://b.example/2", "date": "2021-05-02T00:30:00Z",
         "html": b"<html><body>two</body></html>"}


class TestParse:
    def test_roundtrip_plain(self):
        t = parse_warc_file(build_warc([_REC, _REC2], per_record_gzip=False))
        assert t.num_rows == 2
        assert t.column("url").to_pylist() == [_REC["url"], _REC2["url"]]
        assert t.column("html").to_pylist() == [_REC["html"], _REC2["html"]]
        ts = t.column("warc_ts").to_pylist()
        assert ts[0] == datetime.datetime(
            2021, 5, 1, 12, tzinfo=datetime.timezone.utc
        )
        # text/lang are NULL at ingest (extraction fills downstream)
        assert t.column("text").null_count == 2
        assert t.column("lang").null_count == 2

    def test_roundtrip_per_record_gzip(self):
        data = build_warc([_REC, _REC2], per_record_gzip=True)
        assert data[:2] == b"\x1f\x8b"
        t = parse_warc_file(data)
        assert t.column("html").to_pylist() == [_REC["html"], _REC2["html"]]

    def test_multi_member_gunzip(self):
        plain = build_warc([_REC], per_record_gzip=False)
        assert gunzip_members(build_warc([_REC], per_record_gzip=True)) == plain
        assert gunzip_members(plain) == plain  # passthrough

    def test_chunked_transfer_encoding(self):
        data = build_warc([_REC, _REC2], per_record_gzip=False,
                          chunked_every=1)  # every record chunked
        t = parse_warc_file(data)
        assert t.column("html").to_pylist() == [_REC["html"], _REC2["html"]]

    def test_warcinfo_and_request_skipped(self):
        recs = [dict(_REC), dict(_REC2, warc_type="request")]
        t = parse_warc_file(build_warc(recs, per_record_gzip=False))
        assert t.num_rows == 1  # warcinfo + request dropped
        assert t.column("url").to_pylist() == [_REC["url"]]

    def test_record_iteration_sees_all_types(self):
        data = gunzip_members(build_warc([_REC]))
        types = [h["warc-type"] for h, _ in iter_warc_records(data)]
        assert types == ["warcinfo", "response"]

    def test_truncated_raises(self):
        data = build_warc([_REC], per_record_gzip=False)
        with pytest.raises(ValueError, match="truncated"):
            parse_warc_file(data[: len(data) - 10])

    def test_malformed_raises(self):
        with pytest.raises(ValueError, match="malformed WARC"):
            parse_warc_file(b"HTTP/1.1 200 OK\r\n\r\nnot a warc")

    def test_bad_date_is_null_not_error(self):
        rec = dict(_REC, date="not-a-date")
        t = parse_warc_file(build_warc([rec], per_record_gzip=False))
        assert t.column("warc_ts").null_count == 1


class TestReadWarcRay:
    def test_corpus_roundtrip(self, ray_session, tmp_path):
        from ctinexus_ray.sources.synth import make_cc_row

        write_warc_corpus(tmp_path, 25, records_per_file=10)
        rows = read_warc(str(tmp_path)).take_all()
        assert len(rows) == 25
        want = {make_cc_row(i)["url"]: make_cc_row(i) for i in range(25)}
        for r in rows:
            w = want[r["url"]]
            assert r["html"] == w["html"]

    def test_feeds_extraction_stage(self, ray_session, tmp_path):
        """read_warc output drives the E1 extractor: the original text is
        recoverable from the synthetic html (the corpus ground truth)."""
        from ctinexus_ray.functions.extract import extract_hybrid_content

        write_warc_corpus(tmp_path, 8, records_per_file=8)
        rows = read_warc(str(tmp_path)).take_all()
        for r in rows:
            assert extract_hybrid_content(r["html"].decode("utf-8"))["text"].strip()


class TestWarcKGJob:
    def test_kg_resumable_reads_warc_shards(self, ray_session, tmp_path):
        """run_kg_incremental with reader=read_warc: the KG pipeline runs
        straight off a crawl archive and resumes per WARC shard."""
        from ctinexus_ray.pipelines.kg_incr import run_kg_incremental

        src = tmp_path / "crawl"
        write_warc_corpus(src, 6, records_per_file=3)
        shards = sorted(str(p) for p in src.glob("*.warc.gz"))
        assert len(shards) == 2
        out = tmp_path / "kg"
        s1 = run_kg_incremental(shards, str(out), reader=read_warc)
        assert s1["skipped"] == 0 and s1["docs_kg"]
        from ctinexus_ray.state.tableformat import read_version

        assert read_version(f"{out}/docs_kg").count() == 6
        s2 = run_kg_incremental(shards, str(out), reader=read_warc)
        assert s2["skipped"] == 2
