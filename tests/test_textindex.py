import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def _docs_tbl(texts, start_id=0):
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(
                range(start_id, start_id + len(texts)), type=pa.int64()
            ),
            "text": pa.array(texts, type=pa.string()),
        }
    )


TEXTS = [
    "hash join beats sort merge join when the build side fits",
    "vector search over a hash bucketed index",
    "the quick brown fox jumps over the lazy dog",
    "join the vector hash club for hash lovers",
    "unrelated filler words only here",
    "",
]


class TestTextIndex:
    def _build(self, tmpdir, texts=TEXTS):
        from ctinexus_ray.ops.textindex import text_index_build

        ds = ray.data.from_arrow(_docs_tbl(texts)).repartition(3)
        v = text_index_build(ds, tmpdir, num_buckets=8)
        return ds, v

    def test_search_equals_full_scan(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs

        d = str(tmp_path / "ti")
        ds, _ = self._build(d)
        terms = ["hash", "join", "vector"]
        got = text_index_search(d, terms, k=10).to_pydict()
        want = bm25_topk_docs(ds, terms, k=10).to_pydict()
        assert got == want

    def test_append_then_search_sees_union(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_search,
        )
        from ctinexus_ray.ops.textstats import bm25_topk_docs

        d = str(tmp_path / "ti")
        first, rest = TEXTS[:3], TEXTS[3:]
        self._build(d, first)
        v2 = text_index_append(
            ray.data.from_arrow(_docs_tbl(rest, start_id=3)), d
        )
        assert v2 == 2
        full = ray.data.from_arrow(_docs_tbl(TEXTS))
        terms = ["hash", "join", "vector"]
        got = text_index_search(d, terms, k=10).to_pydict()
        want = bm25_topk_docs(full, terms, k=10).to_pydict()
        assert got == want

    def test_time_travel_search(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_search,
        )
        from ctinexus_ray.ops.textstats import bm25_topk_docs

        d = str(tmp_path / "ti")
        first = TEXTS[:3]
        ds1, v1 = self._build(d, first)
        text_index_append(ray.data.from_arrow(_docs_tbl(TEXTS[3:], 3)), d)
        got = text_index_search(d, ["hash", "join"], k=10, version=v1)
        want = bm25_topk_docs(ds1, ["hash", "join"], k=10)
        # version=1's manifest extra carries version-1 stats
        assert got.to_pydict() == want.to_pydict()

    def test_one_file_per_bucket_and_pruned_read(self, ray_session, tmp_path):
        import glob
        import os

        from ctinexus_ray.ops.textindex import text_index_search

        d = str(tmp_path / "ti")
        self._build(d)
        files = glob.glob(os.path.join(d, "buckets-*", "*.parquet"))
        # <= num_buckets files, named by bucket
        assert 0 < len(files) <= 8
        assert all(os.path.basename(f).startswith("bucket-") for f in files)
        # a query over one rare term still ranks correctly
        got = text_index_search(d, ["fox"], k=5)
        assert got.column("doc_id").to_pylist() == [2]

    def test_refusals(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_search,
        )

        d = str(tmp_path / "ti")
        with pytest.raises(FileNotFoundError):
            text_index_search(d, ["hash"])
        with pytest.raises(FileNotFoundError):
            text_index_append(ray.data.from_arrow(_docs_tbl(["x"])), d)
        self._build(d)
        with pytest.raises(ValueError):
            text_index_search(d, [])


class TestTextIndexCompaction:
    def test_compaction_preserves_ledger_and_results(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
            text_index_search,
        )
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import applied_ids, compact_table

        d = str(tmp_path / "ti")
        ds1 = ray.data.from_arrow(_docs_tbl(TEXTS[:3]))
        text_index_build(ds1, d, num_buckets=8, batch_id="b1")
        text_index_append(
            ray.data.from_arrow(_docs_tbl(TEXTS[3:], start_id=3)), d,
            batch_id="b2",
        )
        before = text_index_search(d, ["hash", "join"], k=10).to_pydict()
        out = compact_table(d, target_bytes=1 << 30, min_files=2)
        assert out.get("version") is not None  # a compaction happened
        # manifest-extra inheritance: the ledger survives the compaction
        assert applied_ids(d) == ["b1", "b2"]
        # replayed append after compaction is still a no-op
        assert text_index_append(
            ray.data.from_arrow(_docs_tbl(["x y z"])), d, batch_id="b2"
        ) is None
        # pruned search over the compacted file set is still EXACT
        after = text_index_search(d, ["hash", "join"], k=10).to_pydict()
        assert after == before
        full = ray.data.from_arrow(_docs_tbl(TEXTS))
        assert after == bm25_topk_docs(full, ["hash", "join"], k=10).to_pydict()


class TestTextIndexBoolean:
    def test_and_or_modes(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_boolean,
            text_index_build,
        )

        d = str(tmp_path / "ti")
        text_index_build(ray.data.from_arrow(_docs_tbl(TEXTS)), d, num_buckets=8)
        got_and = sorted(
            r["doc_id"]
            for r in text_index_boolean(d, ["hash", "join"], mode="and").take_all()
        )
        # docs 0 and 3 contain both terms
        assert got_and == [0, 3]
        got_or = sorted(
            r["doc_id"]
            for r in text_index_boolean(d, ["hash", "join"], mode="or").take_all()
        )
        assert got_or == [0, 1, 3]

    def test_refusals(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_boolean,
            text_index_build,
        )

        d = str(tmp_path / "ti")
        with pytest.raises(FileNotFoundError):
            text_index_boolean(d, ["x"])
        text_index_build(ray.data.from_arrow(_docs_tbl(TEXTS)), d, num_buckets=8)
        with pytest.raises(ValueError):
            text_index_boolean(d, [])
        with pytest.raises(ValueError):
            text_index_boolean(d, ["x"], mode="xor")


class TestAbsentTerms:
    def test_search_and_boolean_with_absent_terms(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_boolean,
            text_index_build,
            text_index_search,
        )

        d = str(tmp_path / "ti")
        text_index_build(ray.data.from_arrow(_docs_tbl(TEXTS)), d, num_buckets=8)
        # a query of terms the corpus never saw: empty ranking, not a crash
        out = text_index_search(d, ["zzz", "qqq"], k=5)
        assert out.num_rows == 0
        assert text_index_boolean(d, ["zzz"], mode="and").count() == 0
        assert text_index_boolean(d, ["zzz"], mode="or").count() == 0
        # mixed present/absent under AND: the absent term empties the set
        assert text_index_boolean(d, ["hash", "zzz"], mode="and").count() == 0
        # ...but OR still returns the present term's docs
        got = sorted(
            r["doc_id"]
            for r in text_index_boolean(d, ["hash", "zzz"], mode="or").take_all()
        )
        assert got == [0, 1, 3]


class TestPositionalPhrase:
    PHRASE_TEXTS = [
        "hash join hash join hash",          # overlapping matches
        "the hash join is a hash join",      # two matches
        "join hash",                         # reversed: no match
        "hash join",                         # exact doc == phrase
        "hash", "join", "",                  # too short / empty
        "a hash  join b",                    # double space: still adjacent tokens
    ]

    def _build_pos(self, tmpdir, texts, append_half=False):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
        )

        if append_half:
            mid = len(texts) // 2
            text_index_build(
                ray.data.from_arrow(_docs_tbl(texts[:mid])).repartition(2),
                tmpdir, num_buckets=8, positions=True,
            )
            text_index_append(
                ray.data.from_arrow(_docs_tbl(texts[mid:], start_id=mid)),
                tmpdir, batch_id="tick2",
            )
        else:
            text_index_build(
                ray.data.from_arrow(_docs_tbl(texts)).repartition(3),
                tmpdir, num_buckets=8, positions=True,
            )
        return ray.data.from_arrow(_docs_tbl(texts))

    def _assert_matches_scan(self, idx_dir, docs, words):
        from ctinexus_ray.ops.textindex import text_index_phrase
        from ctinexus_ray.ops.textstats import phrase_match_counts

        got = {
            r["doc_id"]: r["n_matches"]
            for r in text_index_phrase(idx_dir, words).take_all()
        }
        want = {
            r["doc_id"]: r["n_matches"]
            for r in phrase_match_counts(docs, words).take_all()
        }
        assert got == want

    def test_phrase_equals_corpus_scan(self, ray_session, tmp_path):
        idx = str(tmp_path / "t")
        docs = self._build_pos(idx, self.PHRASE_TEXTS)
        self._assert_matches_scan(idx, docs, ["hash", "join"])

    def test_repeated_word_phrase(self, ray_session, tmp_path):
        idx = str(tmp_path / "t")
        docs = self._build_pos(idx, self.PHRASE_TEXTS)
        self._assert_matches_scan(idx, docs, ["hash", "join", "hash"])

    def test_append_tick_preserves_exactness(self, ray_session, tmp_path):
        """Positions survive an append tick (the flag inherits from the
        manifest) and the pruned phrase result still equals the
        full-corpus scan."""
        idx = str(tmp_path / "t")
        docs = self._build_pos(idx, self.PHRASE_TEXTS, append_half=True)
        self._assert_matches_scan(idx, docs, ["hash", "join"])

    def test_bm25_unaffected_by_positions(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs

        idx = str(tmp_path / "t")
        docs = self._build_pos(idx, self.PHRASE_TEXTS)
        got = text_index_search(idx, ["hash", "join"], k=5).to_pydict()
        want = bm25_topk_docs(docs, ["hash", "join"], k=5).to_pydict()
        assert got == want

    def test_refuses_positionless_index(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_phrase,
        )

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.PHRASE_TEXTS)), idx,
            num_buckets=8,
        )
        with pytest.raises(ValueError, match="positions"):
            text_index_phrase(idx, ["hash", "join"])
        with pytest.raises(ValueError, match="single tokens"):
            text_index_phrase(idx, ["two words"])


class TestTextIndexDelete:
    TEXTS = [
        "hash join beats sort merge join",
        "hash join beats sort merge join",        # exact dup of 0
        "vector search over a hash bucketed index",
        "the quick brown fox",
        "join the vector hash club",
        "",
    ]

    def _survivor_equal(self, idx_dir, surviving_texts, surviving_ids):
        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs

        surv = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(surviving_ids, type=pa.int64()),
                    "text": pa.array(surviving_texts, type=pa.string()),
                }
            )
        )
        got = text_index_search(
            idx_dir, ["hash", "join", "vector"], k=10
        ).to_pydict()
        want = bm25_topk_docs(
            surv, ["hash", "join", "vector"], k=10
        ).to_pydict()
        assert got == want

    def test_delete_equals_fresh_build_over_survivors(
        self, ray_session, tmp_path
    ):
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_delete,
        )
        from ctinexus_ray.state.tableformat import version_extra

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8
        )
        v = text_index_delete(idx, [1, 5], batch_id="drop-1")
        assert v == 2
        meta = version_extra(idx)["text_index"]
        assert meta["n_docs"] == 4  # 6 - 2 dropped
        keep_ids = [0, 2, 3, 4]
        self._survivor_equal(
            idx, [self.TEXTS[i] for i in keep_ids], keep_ids
        )

    def test_delete_empty_text_docs_equals_fresh_build(
        self, ray_session, tmp_path
    ):
        """An empty or whitespace-only text tokenizes to [''] (the SQL
        split rule), so it has a posting like any doc: deleting one from
        the build and one from an append drops both from n_docs."""
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
            text_index_delete,
        )
        from ctinexus_ray.state.tableformat import version_extra

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8
        )
        text_index_append(
            ray.data.from_arrow(_docs_tbl([" \t", "hash vector"], start_id=6)),
            idx,
        )
        text_index_delete(idx, [5, 6])
        meta = version_extra(idx)["text_index"]
        assert meta["n_docs"] == 6  # 8 - the two empty docs
        keep_ids = [0, 1, 2, 3, 4, 7]
        texts = self.TEXTS[:5] + ["hash vector"]
        self._survivor_equal(idx, texts, keep_ids)

    def test_delete_is_exactly_once_and_absent_ids_noop(
        self, ray_session, tmp_path
    ):
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_delete,
        )
        from ctinexus_ray.state.tableformat import version_extra

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8
        )
        text_index_delete(idx, [1, 999], batch_id="drop-1")
        before = version_extra(idx)["text_index"]
        assert before["n_docs"] == 5  # 999 absent: no-op per id
        # replay (crash-after-commit path): None, nothing changes
        assert text_index_delete(idx, [1, 999], batch_id="drop-1") is None
        assert version_extra(idx)["text_index"] == before

    def test_delete_then_append_and_phrase_stay_exact(
        self, ray_session, tmp_path
    ):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
            text_index_delete,
            text_index_phrase,
        )
        from ctinexus_ray.ops.textstats import phrase_match_counts

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8,
            positions=True,
        )
        text_index_delete(idx, [0], batch_id="drop-1")
        text_index_append(
            ray.data.from_arrow(
                _docs_tbl(["fresh hash join arrival"], start_id=6)
            ),
            idx, batch_id="tick-2",
        )
        surv_ids = [1, 2, 3, 4, 5, 6]
        surv = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(surv_ids, type=pa.int64()),
                    "text": pa.array(
                        [self.TEXTS[i] for i in surv_ids[:-1]]
                        + ["fresh hash join arrival"],
                        type=pa.string(),
                    ),
                }
            )
        )
        got = {
            r["doc_id"]: r["n_matches"]
            for r in text_index_phrase(idx, ["hash", "join"]).take_all()
        }
        want = {
            r["doc_id"]: r["n_matches"]
            for r in phrase_match_counts(surv, ["hash", "join"]).take_all()
        }
        assert got == want

    def test_delete_dataset_input_and_refusal(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_delete,
        )
        from ctinexus_ray.state.tableformat import version_extra

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8
        )
        drops = ray.data.from_arrow(
            pa.Table.from_pydict({"doc_id": pa.array([2, 3], type=pa.int64())})
        )
        text_index_delete(idx, drops)
        assert version_extra(idx)["text_index"]["n_docs"] == 4
        with pytest.raises(ValueError, match="max_broadcast_ids"):
            text_index_delete(idx, [1, 4], max_broadcast_ids=1)


class TestProximity:
    TEXTS = [
        "hash x x x join",            # dist 4
        "hash join",                  # dist 1
        "join x hash x hash",         # b at 0; a at 2,4 -> dists 2,4
        "hash only here",             # no pair
        "join alone",                 # no pair
        "hash hash hash",             # same-word case
        "",
    ]

    def _build(self, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_build

        idx = str(tmp_path / "t")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), idx, num_buckets=8,
            positions=True,
        )
        return idx

    def test_window_counts(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_proximity

        idx = self._build(tmp_path)
        got = {
            r["doc_id"]: r["n_pairs"]
            for r in text_index_proximity(
                idx, "hash", "join", window=4, num_partitions=4
            ).take_all()
        }
        assert got == {0: 1, 1: 1, 2: 2}
        tight = {
            r["doc_id"]: r["n_pairs"]
            for r in text_index_proximity(
                idx, "hash", "join", window=2, num_partitions=4
            ).take_all()
        }
        assert tight == {1: 1, 2: 1}

    def test_same_word_excludes_self_pairs(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_proximity

        idx = self._build(tmp_path)
        got = {
            r["doc_id"]: r["n_pairs"]
            for r in text_index_proximity(
                idx, "hash", "hash", window=2, num_partitions=4
            ).take_all()
        }
        # doc 5 "hash hash hash": ordered pairs within 2 = 6 minus 0
        # self-pairs; doc 2 has hash at 2,4 -> 2 ordered pairs
        assert got == {2: 2, 5: 6}

    def test_matches_sql_semantics(self, ray_session, tmp_path):
        """Engine == DuckDB positional self-join on the same corpus."""
        import duckdb

        from ctinexus_ray.ops.textindex import text_index_proximity

        idx = self._build(tmp_path)
        con = duckdb.connect()
        import pandas as pd

        df = pd.DataFrame(
            {"doc_id": range(len(self.TEXTS)), "text": self.TEXTS}
        )
        con.register("documents", df)
        want = {
            int(r[0]): int(r[1])
            for r in con.execute(
                "WITH t AS (SELECT doc_id, "
                "regexp_split_to_array(trim(text), '\\s+') AS w "
                "FROM documents), "
                "p AS (SELECT doc_id, unnest(w) AS word, "
                "unnest(range(1, len(w) + 1)) AS pos FROM t) "
                "SELECT p1.doc_id, count(*) FROM p p1 JOIN p p2 "
                "ON p1.doc_id = p2.doc_id "
                "AND abs(p1.pos - p2.pos) <= 3 "
                "WHERE p1.word = 'hash' AND p2.word = 'join' "
                "GROUP BY p1.doc_id"
            ).fetchall()
        }
        got = {
            r["doc_id"]: r["n_pairs"]
            for r in text_index_proximity(
                idx, "hash", "join", window=3, num_partitions=4
            ).take_all()
        }
        assert got == want

    def test_refusals(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_proximity,
        )

        idx = self._build(tmp_path)
        with pytest.raises(ValueError, match="window"):
            text_index_proximity(idx, "a", "b", window=0)
        with pytest.raises(ValueError, match="single tokens"):
            text_index_proximity(idx, "two words", "b", window=2)
        bare = str(tmp_path / "bare")
        text_index_build(
            ray.data.from_arrow(_docs_tbl(self.TEXTS)), bare, num_buckets=8
        )
        with pytest.raises(ValueError, match="positions"):
            text_index_proximity(bare, "hash", "join", window=2)


class TestDeleteAfterAppend:
    """Regression: a bucket touched by BOTH the build and an append has
    two files with the same basename; the delete rewrite must not weld
    them (one file's survivors silently vanished and the duplicate
    output path was committed twice)."""

    def test_delete_spanning_build_and_append_files(
        self, ray_session, tmp_path
    ):
        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
            text_index_delete,
            text_index_search,
        )
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import (
            version_extra,
            version_files,
        )

        idx = str(tmp_path / "t")
        # ONE bucket -> build and append each write bucket-00000.parquet
        texts1 = ["hash join alpha", "hash join beta"]
        texts2 = ["hash join gamma", "hash join delta"]
        text_index_build(
            ray.data.from_arrow(_docs_tbl(texts1)), idx, num_buckets=1
        )
        text_index_append(
            ray.data.from_arrow(_docs_tbl(texts2, start_id=2)), idx,
            batch_id="t2",
        )
        # drop one doc from EACH commit's file
        text_index_delete(idx, [0, 2], batch_id="d1")
        files = version_files(idx, 3)
        assert len(files) == len(set(files)), "duplicate path committed"
        surv = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([1, 3], type=pa.int64()),
                    "text": pa.array(
                        [texts1[1], texts2[1]], type=pa.string()
                    ),
                }
            )
        )
        got = text_index_search(idx, ["hash", "join"], k=10).to_pydict()
        want = bm25_topk_docs(surv, ["hash", "join"], k=10).to_pydict()
        assert got == want
        assert version_extra(idx)["text_index"]["n_docs"] == 2


class TestConcurrentAppend:
    def test_overtaken_append_aborts_instead_of_dropping_totals(
        self, ray_session, tmp_path, monkeypatch
    ):
        """An append whose totals and ledger were read from version N must
        not commit on top of a concurrent append's version N+1: that would
        drop the racer's n_docs and ledger entry, so a replay of the racer
        would index its docs twice."""
        from ctinexus_ray.ops import textindex as ti
        from ctinexus_ray.state.tableformat import (
            ConcurrentWriteError,
            applied_ids,
            version_extra,
        )

        d = str(tmp_path / "ti")
        ti.text_index_build(
            ray.data.from_arrow(_docs_tbl(TEXTS[:3])), d, num_buckets=8,
            batch_id="b0",
        )
        real = ti._write_buckets

        def overtaken(*args, **kwargs):
            # the racer commits while this append is still writing
            monkeypatch.setattr(ti, "_write_buckets", real)
            ti.text_index_append(
                ray.data.from_arrow(_docs_tbl(TEXTS[3:], start_id=3)), d,
                batch_id="b_racer",
            )
            return real(*args, **kwargs)

        monkeypatch.setattr(ti, "_write_buckets", overtaken)
        with pytest.raises(ConcurrentWriteError):
            ti.text_index_append(
                ray.data.from_arrow(_docs_tbl(["late doc"], start_id=10)), d,
                batch_id="b1",
            )
        assert applied_ids(d) == ["b0", "b_racer"]
        assert version_extra(d)["text_index"]["n_docs"] == len(TEXTS)
        # the aborted batch retries cleanly on top of the winner
        ti.text_index_append(
            ray.data.from_arrow(_docs_tbl(["late doc"], start_id=10)), d,
            batch_id="b1",
        )
        assert applied_ids(d) == ["b0", "b_racer", "b1"]
        assert version_extra(d)["text_index"]["n_docs"] == len(TEXTS) + 1

    def test_overtaken_ledger_only_commit_keeps_both_entries(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A ledger-only commit (a corpus compaction: no postings)
        racing an append: both ledger entries and the append's totals
        survive."""
        from ctinexus_ray.ops import textindex as ti
        from ctinexus_ray.state import tableformat

        d = str(tmp_path / "ti")
        ti.text_index_build(
            ray.data.from_arrow(_docs_tbl(TEXTS[:3])), d, num_buckets=8,
            batch_id="b0",
        )
        real_latest = tableformat.latest_version

        def latest_then_race(table_dir):
            head = real_latest(table_dir)
            monkeypatch.setattr(tableformat, "latest_version", real_latest)
            ti.text_index_append(
                ray.data.from_arrow(_docs_tbl(TEXTS[3:], start_id=3)), d,
                batch_id="b_racer",
            )
            return head

        monkeypatch.setattr(tableformat, "latest_version", latest_then_race)
        tableformat.commit_version(d, [], "append", batch_ids=["compact-v2"])
        assert tableformat.applied_ids(d) == ["b0", "b_racer", "compact-v2"]
        meta = tableformat.version_extra(d)["text_index"]
        assert meta["n_docs"] == len(TEXTS)
