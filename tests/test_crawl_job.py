import datetime

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def _cc_table():
    """CC-shaped input: one robots-blocked page, two captures of the
    same canonical url (tracking param + fragment), one C4-failing page,
    one clean page."""
    ts = lambda d: datetime.datetime(2024, 1, d, tzinfo=datetime.timezone.utc)  # noqa: E731
    rows = [
        # blocked by robots (/private)
        ("http://h.example.com/private/1", ts(1),
         "<html><body><p>Secret text here. It has many words in it.</p></body></html>"),
        # two captures of one canonical url — later warc_ts must win
        ("http://h.example.com/page?utm_source=x", ts(2),
         "<html><body><p>The old capture text with enough words.</p>"
         "<p>The second old line also has enough words.</p></body></html>"),
        ("http://h.example.com/page#frag", ts(3),
         "<html><body><p>The new capture text with enough words.</p>"
         "<p>The second new line also has enough words.</p></body></html>"),
        # C4 page filter: contains a brace
        ("http://h.example.com/code", ts(4),
         "<html><body><p>function f() { return 1; }. More words here now.</p></body></html>"),
        # clean multi-line page
        ("http://h.example.com/good", ts(5),
         "<html><body><p>This is the first good sentence with words.</p>"
         "<p>This is the second good sentence with words.</p></body></html>"),
    ]
    return pa.Table.from_pydict(
        {
            "url": pa.array([r[0] for r in rows], type=pa.string()),
            "warc_ts": pa.array(
                [r[1] for r in rows], type=pa.timestamp("us", tz="UTC")
            ),
            "html": pa.array(
                [r[2].encode() for r in rows], type=pa.binary()
            ),
            "text": pa.array([None] * len(rows), type=pa.string()),
            "lang": pa.array(["en"] * len(rows), type=pa.string()),
        }
    )


class TestCrawlJob:
    def _setup(self, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        pq.write_table(_cc_table(), inp / "shard-0.parquet")
        robots = tmp_path / "robots.parquet"
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "host": ["h.example.com"],
                    "robots_txt": ["User-agent: *\nDisallow: /private\n"],
                }
            ),
            robots,
        )
        return str(inp), str(tmp_path / "out"), str(robots)

    def test_end_to_end_and_resume(self, ray_session, tmp_path):
        from jobs.crawl_job import run_crawl_job

        inp, outp, robots = self._setup(tmp_path)
        stats = run_crawl_job(inp, outp, robots_path=robots, c4=True)
        assert stats["rows"] == 5
        assert stats["robots_allowed"] == 4
        # /private blocked; /code fails C4 (brace); page x2 + good eligible
        assert stats["eligible_pages"] == 3
        # the two /page captures collapse to the later one
        assert stats["refined_pages"] == 2
        assert stats["url_dups_dropped"] == 1

        refined = {
            r["canon_url"]: r
            for r in ray.data.read_parquet(stats["refined"]).take_all()
        }
        assert set(refined) == {
            "http://h.example.com/page",
            "http://h.example.com/good",
        }
        winner = refined["http://h.example.com/page"]
        assert "new capture" in winner["extracted_text"]
        assert winner["n_dups"] == 2
        assert winner["lang_pred"] == "en"

        # resume: shards skipped, derived phase idempotent
        stats2 = run_crawl_job(inp, outp, robots_path=robots, c4=True)
        assert stats2["processed"] == 0 and stats2["skipped"] == 1
        assert stats2["refined_pages"] == 2

    def test_lineage_sidecar_written(self, ray_session, tmp_path):
        from jobs.crawl_job import run_crawl_job

        inp, outp, robots = self._setup(tmp_path)
        run_crawl_job(inp, outp, robots_path=robots, c4=False)
        from ctinexus_ray.state.checkpoint import read_lineage

        (lineage,) = read_lineage(tmp_path / "out" / "pages")
        assert lineage["rows"] == 5
        assert lineage["robots_allowed"] == 4
        # c4 off: every row passes the keep flag
        assert lineage["c4_kept"] == 5

    def test_robots_above_broadcast_cap_refuses(
        self, ray_session, tmp_path, monkeypatch
    ):
        import pytest

        from ctinexus_ray.ops import distjoin
        from jobs.crawl_job import run_crawl_job

        inp, outp, _ = self._setup(tmp_path)
        robots = tmp_path / "robots2.parquet"
        pq.write_table(
            pa.Table.from_pydict(
                {"host": ["a.example.com", "b.example.com"],
                 "robots_txt": ["", ""]}
            ),
            robots,
        )
        monkeypatch.setattr(distjoin, "BROADCAST_MAX_ROWS", 1)
        with pytest.raises(ValueError, match="BROADCAST_MAX_ROWS=1"):
            run_crawl_job(inp, outp, robots_path=str(robots))
        monkeypatch.setattr(distjoin, "BROADCAST_MAX_ROWS", 2)
        assert run_crawl_job(inp, outp, robots_path=str(robots))["rows"] == 5
