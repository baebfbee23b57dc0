"""Incremental micro-batch ingestion (jobs/stream_job.py): per-tick
shard discovery, within-tick and cross-tick dedup, atomic commits,
crash-replay idempotence, and the CLI surface."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "jobs"))

from stream_job import run_tick  # noqa: E402

from ctinexus_ray.state.tableformat import (  # noqa: E402
    applied_ids,
    latest_version,
    read_version,
    version_files,
    version_mode,
)


def _shard(path, ids):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array([f"doc {i}" for i in ids], type=pa.string()),
            }
        ),
        path,
    )


def _table_ids(table_dir):
    from ctinexus_ray.state.tableformat import read_version

    return sorted(r["doc_id"] for r in read_version(table_dir).take_all())


class TestStreamJob:
    def test_ticks_dedup_and_append(self, ray_session, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)

        _shard(inp / "a.parquet", list(range(1, 11)))
        _shard(inp / "b.parquet", list(range(8, 16)))  # overlaps a
        s1 = run_tick(str(inp), table, num_partitions=4)
        assert s1["new_shards"] == 2
        assert s1["rows_in"] == 18
        assert s1["rows_appended"] == 15  # 8..10 deduped within tick
        assert s1["version"] == 1
        assert _table_ids(table) == list(range(1, 16))

        # idle tick: nothing new
        s2 = run_tick(str(inp), table, num_partitions=4)
        assert s2["new_shards"] == 0
        assert s2["version"] == 1

        # a later crawl drop, overlapping what's already committed
        _shard(inp / "c.parquet", list(range(10, 21)))
        s3 = run_tick(str(inp), table, num_partitions=4)
        assert s3["rows_appended"] == 5  # only 16..20 are new
        assert s3["skipped_existing"] == 6
        assert s3["version"] == 2
        assert _table_ids(table) == list(range(1, 21))

    def test_empty_first_tick_then_rows(self, ray_session, tmp_path):
        """A tick whose shards hold no row commits a file-less version;
        the next tick's cross-tick anti-join reads it as empty."""
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)

        _shard(inp / "a.parquet", [])
        s1 = run_tick(str(inp), table, num_partitions=4)
        assert (s1["new_shards"], s1["rows_appended"], s1["version"]) == (1, 0, 1)
        _shard(inp / "b.parquet", [7])
        s2 = run_tick(str(inp), table, num_partitions=4)
        assert (s2["new_shards"], s2["rows_appended"], s2["version"]) == (1, 1, 2)
        assert _table_ids(table) == [7]

    def test_crash_replay_is_idempotent(self, ray_session, tmp_path,
                                        monkeypatch):
        """The tick's shard paths ride in its corpus commit's ledger:
        a rerun after the commit ingests nothing, and a rerun after a
        crash before the commit ingests the shard once."""
        from ctinexus_ray.state import tableformat

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)
        _shard(inp / "a.parquet", [1, 2, 3])
        run_tick(str(inp), table, num_partitions=4)
        assert applied_ids(table) == [str(inp / "a.parquet")]
        s = run_tick(str(inp), table, num_partitions=4)
        assert s["new_shards"] == 0 and s["version"] == 1

        _shard(inp / "b.parquet", [3, 4])
        real = tableformat.commit_version

        def crash(*args, **kwargs):
            raise RuntimeError("injected crash before the corpus commit")

        monkeypatch.setattr(tableformat, "commit_version", crash)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_tick(str(inp), table, num_partitions=4)
        monkeypatch.setattr(tableformat, "commit_version", real)
        s = run_tick(str(inp), table, num_partitions=4)
        assert (s["new_shards"], s["rows_appended"], s["version"]) == (1, 1, 2)
        assert _table_ids(table) == [1, 2, 3, 4]
        # history preserved: v1 still readable
        from ctinexus_ray.state.tableformat import read_version

        assert read_version(table, 1).count() == 3

    def test_old_json_ledgers_are_honoured(self, ray_session, tmp_path):
        """A table ingested by a stream that kept its shard ledger (and
        its KG view cursor) in JSON files neither re-ingests those
        shards nor refolds those versions."""
        from stream_job import _maintain_kg_view

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        kg = str(tmp_path / "kg")
        os.makedirs(table)
        os.makedirs(kg)
        _shard(inp / "a.parquet", [1, 2])
        run_tick(str(inp), table, num_partitions=4)
        # the table as the JSON-ledger stream left it: no commit ledger
        with open(os.path.join(table, "manifest-v1.json")) as fh:
            manifest = json.load(fh)
        manifest.pop("extra")
        with open(os.path.join(table, "manifest-v1.json"), "w") as fh:
            json.dump(manifest, fh)
        with open(os.path.join(table, "_ingest_ledger.json"), "w") as fh:
            json.dump({"shards": [str(inp / "a.parquet")]}, fh)
        with open(os.path.join(kg, "_KG_VIEW_LEDGER.json"), "w") as fh:
            json.dump({"applied": ["corpus-v1"]}, fh)

        assert run_tick(str(inp), table, num_partitions=4)["new_shards"] == 0
        assert _maintain_kg_view(table, kg) == {"kg_folded": 0}
        assert not os.path.exists(os.path.join(kg, "docs_kg"))

    def test_mixed_format_shards(self, ray_session, tmp_path):
        from ctinexus_ray.sources.avro import build_avro, CORPUS_SCHEMA

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)
        _shard(inp / "a.parquet", [1, 2])
        (inp / "b.avro").write_bytes(
            build_avro(
                [{"doc_id": 3, "text": "three"}, {"doc_id": 1, "text": "doc 1"}],
                CORPUS_SCHEMA,
            )
        )
        s = run_tick(str(inp), table, num_partitions=4)
        assert s["rows_appended"] == 3  # doc 1 deduped across formats
        assert _table_ids(table) == [1, 2, 3]

    def test_cli_single_pass(self, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        _shard(inp / "a.parquet", [7, 8])
        out = subprocess.run(
            [
                sys.executable,
                os.path.join(
                    os.path.dirname(__file__), "..", "jobs", "stream_job.py"
                ),
                "--input", str(inp), "--table", table,
                "--num-partitions", "4",
            ],
            capture_output=True,
            text=True,
            timeout=240,
            env={**os.environ, "RAY_ADDRESS": ""},
        )
        assert out.returncode == 0, out.stderr[-2000:]
        stats = json.loads(out.stdout.strip().splitlines()[-1])
        assert stats["rows_appended"] == 2
        assert stats["version"] == 1


class TestNearDupIngestion:
    @staticmethod
    def _shard_texts(path, rows):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "text": pa.array([r[1] for r in rows], type=pa.string()),
                }
            ),
            path,
        )

    def test_cross_tick_near_dup_dropped(self, ray_session, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)
        base = "the quick brown fox jumps over the lazy dog again and again"
        near = base + " extra"  # high-Jaccard re-crawl
        far = "completely different words that share nothing at all here"
        self._shard_texts(inp / "a.parquet", [(1, base), (2, far)])
        s1 = run_tick(str(inp), table, num_partitions=4,
                      near_dup_threshold=0.5)
        assert s1["rows_appended"] == 2
        assert s1["near_dup_dropped"] == 0

        # tick 2: a near-dup of doc 1 (new id) + one genuinely new doc
        self._shard_texts(
            inp / "b.parquet",
            [(10, near), (11, "fresh content with novel vocabulary only")],
        )
        s2 = run_tick(str(inp), table, num_partitions=4,
                      near_dup_threshold=0.5)
        assert s2["near_dup_dropped"] == 1
        assert s2["rows_appended"] == 1
        assert sorted(_table_ids(table)) == [1, 2, 11]

    def test_within_tick_near_dup(self, ray_session, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)
        t = "one two three four five six seven eight nine ten eleven"
        self._shard_texts(
            inp / "a.parquet", [(5, t), (6, t + " twelve"), (7, "unrelated text entirely distinct")]
        )
        s = run_tick(str(inp), table, num_partitions=4,
                     near_dup_threshold=0.5)
        assert s["near_dup_dropped"] == 1  # 6 folds into 5
        assert sorted(_table_ids(table)) == [5, 7]

    def test_vacuum_preserves_nested_lsh_index(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import latest_version, vacuum

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        os.makedirs(table)
        self._shard_texts(inp / "a.parquet", [(1, "alpha beta gamma delta")])
        run_tick(str(inp), table, num_partitions=4, near_dup_threshold=0.5)
        self._shard_texts(inp / "b.parquet", [(2, "epsilon zeta eta theta")])
        run_tick(str(inp), table, num_partitions=4, near_dup_threshold=0.5)
        vacuum(table, keep_versions=1, older_than_sec=0.0)
        # the nested lsh table survives vacuum of the parent
        lsh = os.path.join(table, "lsh")
        assert latest_version(lsh) is not None
        from ctinexus_ray.state.tableformat import read_version

        assert read_version(lsh).count() > 0
        assert sorted(_table_ids(table)) == [1, 2]


class TestWordcountView:
    """Delta-maintained word-count view across ingestion ticks."""

    @staticmethod
    def _view_counts(view_dir):
        from ctinexus_ray.state.ivm import read_view

        return {r["word"]: r["n"] for r in
                read_view(view_dir, "wkey", {"n": "sum"}).take_all()}

    def test_view_tracks_ticks(self, ray_session, tmp_path):
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        view = str(tmp_path / "view")
        os.makedirs(table)

        _shard(inp / "a.parquet", [1, 2, 3])
        s1 = run_tick(str(inp), table, 4, wordcount_view=view)
        assert s1["wordcount_folded"] == 1
        # texts are "doc {i}": word 'doc' appears once per committed row
        assert self._view_counts(view)["doc"] == 3

        _shard(inp / "b.parquet", [3, 4])  # 3 dedups away
        s2 = run_tick(str(inp), table, 4, wordcount_view=view)
        assert s2["wordcount_folded"] == 1
        counts = self._view_counts(view)
        assert counts["doc"] == 4  # only doc_id 4 was new
        assert counts["4"] == 1 and counts["1"] == 1

    def test_crash_between_commit_and_fold_heals(
        self, ray_session, tmp_path
    ):
        """Simulate the crash window: commit a tick WITHOUT the view,
        then run a view-maintaining tick — reconciliation folds the
        stranded version exactly once."""
        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        view = str(tmp_path / "view")
        os.makedirs(table)

        _shard(inp / "a.parquet", [1, 2])
        run_tick(str(inp), table, 4)  # no view: the "crashed" fold
        _shard(inp / "b.parquet", [3])
        s2 = run_tick(str(inp), table, 4, wordcount_view=view)
        assert s2["wordcount_folded"] == 2  # v1 (stranded) + v2
        assert self._view_counts(view)["doc"] == 3
        # idle tick: nothing new, nothing double-folded
        s3 = run_tick(str(inp), table, 4, wordcount_view=view)
        assert s3["new_shards"] == 0
        assert s3["wordcount_folded"] == 0
        assert self._view_counts(view)["doc"] == 3


class TestTextIndexMaintenance:
    @staticmethod
    def _shard(path, ids, texts):
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            ),
            path,
        )

    def test_incremental_index_equals_full_scan(self, ray_session, tmp_path):
        import ray.data

        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "table")
        index = str(tmp_path / "tindex")
        t1 = ["hash join wins again", "vector search with a hash index"]
        t2 = ["the quick brown fox", "join the hash club today"]
        self._shard(inp / "s1.parquet", [1, 2], t1)
        s1 = run_tick(str(inp), table, num_partitions=4, text_index=index)
        assert s1["text_index_folded"] == 1
        self._shard(inp / "s2.parquet", [3, 4], t2)
        s2 = run_tick(str(inp), table, num_partitions=4, text_index=index)
        assert s2["text_index_folded"] == 1
        assert applied_ids(index) == ["corpus-v1", "corpus-v2"]

        full = ray.data.from_items(
            [
                {"doc_id": i + 1, "text": t}
                for i, t in enumerate(t1 + t2)
            ]
        )
        terms = ["hash", "join"]
        got = text_index_search(index, terms, k=10).to_pydict()
        want = bm25_topk_docs(full, terms, k=10).to_pydict()
        assert got == want

    def test_replayed_fold_is_skipped(self, ray_session, tmp_path):
        from ctinexus_ray.ops.textindex import text_index_search
        from jobs.stream_job import _maintain_text_index, run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "table")
        index = str(tmp_path / "tindex")
        self._shard(inp / "s1.parquet", [1], ["hash join hash join now"])
        run_tick(str(inp), table, num_partitions=4, text_index=index)
        before = text_index_search(index, ["hash"], k=5).to_pydict()
        # replaying the fold (crash-after-commit path) must be a no-op
        out = _maintain_text_index(table, index, 4)
        assert out["text_index_folded"] == 0
        assert applied_ids(index) == ["corpus-v1"]
        assert text_index_search(index, ["hash"], k=5).to_pydict() == before


class TestFoldVsTableLifecycle:
    """Corpus compaction / vacuum / overwrite vs the incremental folds
    (the failure modes: double-counted rewritten files, a fold loop
    dying forever on a vacuumed manifest)."""

    @staticmethod
    def _shard(path, ids, texts):
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            ),
            path,
        )

    def test_compaction_is_not_double_counted(self, ray_session, tmp_path):
        """A row-preserving compact_table version between ticks must
        fold as a no-op (marked applied), not re-index its rewritten
        files — index stats and search results stay equal to the
        full-scan twin."""
        import ray.data

        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import (
            compact_table,
            version_extra,
            version_mode,
        )
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        index = str(tmp_path / "tindex")
        view = str(tmp_path / "view")
        t1 = ["hash join wins", "vector hash index"]
        t2 = ["join the hash club"]
        self._shard(inp / "s1.parquet", [1, 2], t1)
        run_tick(str(inp), table, 4, text_index=index, wordcount_view=view)
        self._shard(inp / "s2.parquet", [3], t2)
        run_tick(str(inp), table, 4, text_index=index, wordcount_view=view)

        out = compact_table(str(table), target_bytes=1 << 30, min_files=2)
        assert out["version"] is not None
        assert version_mode(str(table), out["version"]) == "compact"
        before = version_extra(index).get("text_index")

        s = run_tick(str(inp), table, 4, text_index=index, wordcount_view=view)
        assert s["text_index_folded"] == 0
        assert s["wordcount_folded"] == 0
        bid = f"corpus-v{out['version']}"
        assert bid in applied_ids(index)
        assert bid in applied_ids(view)
        after = version_extra(index).get("text_index")
        assert after["n_docs"] == before["n_docs"] == 3
        assert after["total_len"] == before["total_len"]

        full = ray.data.from_items(
            [{"doc_id": i + 1, "text": t} for i, t in enumerate(t1 + t2)]
        )
        terms = ["hash", "join"]
        got = text_index_search(index, terms, k=10).to_pydict()
        want = bm25_topk_docs(full, terms, k=10).to_pydict()
        assert got == want

    def test_vacuumed_history_falls_back_to_rebuild(
        self, ray_session, tmp_path
    ):
        """Enabling --text-index/--wordcount-view AFTER --vacuum-keep
        ticks expired early manifests: the fold must full-rebuild from
        the latest version (with every bid marked applied) instead of
        raising on every tick forever."""
        import ray.data

        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import vacuum
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        index = str(tmp_path / "tindex")
        view = str(tmp_path / "view")
        t1 = ["hash join wins", "vector hash index"]
        t2 = ["join the hash club"]
        self._shard(inp / "s1.parquet", [1, 2], t1)
        run_tick(str(inp), table, 4)  # no index yet
        self._shard(inp / "s2.parquet", [3], t2)
        run_tick(str(inp), table, 4)
        vacuum(table, keep_versions=1, older_than_sec=0.0)  # v1 manifest gone

        s = run_tick(str(inp), table, 4, text_index=index, wordcount_view=view)
        assert s["text_index_folded"] == 1 and "rebuilt" in s
        assert s["wordcount_folded"] == 1
        assert applied_ids(index) == ["corpus-v1", "corpus-v2"]
        assert set(applied_ids(view)) == {"corpus-v1", "corpus-v2"}

        full = ray.data.from_items(
            [{"doc_id": i + 1, "text": t} for i, t in enumerate(t1 + t2)]
        )
        terms = ["hash", "join"]
        got = text_index_search(index, terms, k=10).to_pydict()
        want = bm25_topk_docs(full, terms, k=10).to_pydict()
        assert got == want

        # next tick with a fresh shard folds incrementally again
        self._shard(inp / "s3.parquet", [4], ["brown fox hash"])
        s2 = run_tick(str(inp), table, 4, text_index=index, wordcount_view=view)
        assert s2["text_index_folded"] == 1 and "rebuilt" not in s2

    def test_compact_over_vacuumed_parent_is_noop(self, ray_session, tmp_path):
        """A compact version whose parent manifest was vacuumed is a
        no-op fold, not a rebuild reason (for the KG view a rebuild
        re-runs every LLM call): compactions are classified before the
        parent manifest is read."""
        from ctinexus_ray.state.tableformat import (
            commit_version,
            compact_table,
            vacuum,
        )
        from jobs.stream_job import _scan_unapplied_versions

        table = str(tmp_path / "tbl")
        os.makedirs(table)
        files = [os.path.join(table, f"part-{i}.parquet") for i in (1, 2)]
        for i, path in enumerate(files):
            self._shard(path, [i], [f"doc {i}"])
        assert commit_version(table, files) == 1
        assert compact_table(table, target_bytes=1 << 30, min_files=2)[
            "version"
        ] == 2
        vacuum(table, keep_versions=1, older_than_sec=0.0)  # v1 manifest gone

        got = _scan_unapplied_versions(table, 2, {"corpus-v1"})
        assert got == ([("corpus-v2", "noop", [])], None)

    def test_logical_overwrite_triggers_rebuild(self, ray_session, tmp_path):
        """A genuine overwrite corpus version (rows replaced) makes the
        incremental ledger unsound — the fold must rebuild, and the
        rebuilt index must match a full scan of the NEW corpus."""
        import ray.data

        from ctinexus_ray.ops.textindex import text_index_search
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import commit_version
        from jobs.stream_job import _maintain_text_index, run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        index = str(tmp_path / "tindex")
        self._shard(inp / "s1.parquet", [1, 2], ["hash join", "old junk row"])
        run_tick(str(inp), table, 4, text_index=index)

        # replace the corpus wholesale (doc 2 rewritten)
        new_texts = ["hash join", "fresh hash content"]
        repl = tmp_path / "repl.parquet"
        self._shard(repl, [1, 2], new_texts)
        commit_version(table, [str(repl)], mode="overwrite")

        out = _maintain_text_index(table, index, 4)
        assert out.get("rebuilt")
        full = ray.data.from_items(
            [{"doc_id": i + 1, "text": t} for i, t in enumerate(new_texts)]
        )
        got = text_index_search(index, ["hash"], k=10).to_pydict()
        want = bm25_topk_docs(full, ["hash"], k=10).to_pydict()
        assert got == want


class TestKgView:
    """stream_job --kg-view: the incremental KG derived layer tracks
    streaming ingestion, folding only new corpus versions."""

    @staticmethod
    def _shard(path, ids, texts):
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            ),
            path,
        )

    def _nodes_equal_full(self, kg_dir):
        import pandas as pd
        import ray.data

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines.kg import canonicalize_nodes
        from ctinexus_ray.pipelines.kg_incr import read_kg_nodes_view

        got = read_kg_nodes_view(f"{kg_dir}/nodes_view").to_pandas()
        full = read_version(
            f"{kg_dir}/docs_kg",
            columns=["url", "kg_aligned_json", "kg_links_json"],
        )
        want = canonicalize_nodes(full, PipelineConfig()).to_pandas()
        cols = sorted(got.columns)
        got = got[cols].sort_values(by=cols).reset_index(drop=True)
        want = want[cols].sort_values(by=cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_two_ticks_and_replay(self, ray_session, tmp_path):
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        kg = str(tmp_path / "kg")
        t1 = ["APT29 used Cobalt Strike against the ministry",
              "The dropper contacted evil.example.com over https"]
        t2 = ["APT29 deployed a new loader on the ministry network"]
        self._shard(inp / "s1.parquet", [1, 2], t1)
        s1 = run_tick(str(inp), table, 4, kg_view=kg)
        assert s1["kg_folded"] == 1
        self._nodes_equal_full(kg)

        self._shard(inp / "s2.parquet", [3], t2)
        s2 = run_tick(str(inp), table, 4, kg_view=kg)
        assert s2["kg_folded"] == 1
        self._nodes_equal_full(kg)

        # idle tick: nothing new, nothing double-folded
        s3 = run_tick(str(inp), table, 4, kg_view=kg)
        assert s3["new_shards"] == 0 and s3["kg_folded"] == 0
        self._nodes_equal_full(kg)

    def test_compaction_is_noop_for_kg_view(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import compact_table
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        kg = str(tmp_path / "kg")
        self._shard(inp / "s1.parquet", [1], ["APT29 used Cobalt Strike"])
        run_tick(str(inp), table, 4, kg_view=kg)
        self._shard(inp / "s2.parquet", [2], ["the loader beaconed out"])
        run_tick(str(inp), table, 4, kg_view=kg)
        out = compact_table(table, target_bytes=1 << 30, min_files=2)
        assert out["version"] is not None
        s = run_tick(str(inp), table, 4, kg_view=kg)
        assert s["kg_folded"] == 0  # rewritten files are NOT new docs
        self._nodes_equal_full(kg)

    def test_rebuild_keeps_shards_of_surviving_files(
        self, ray_session, tmp_path
    ):
        """A vacuum-forced view rebuild re-runs the LLM stages only for
        corpus files it has no docs_kg shard for: the shard of a file
        the latest version still holds is kept untouched, its files the
        same paths in the new docs_kg version."""
        import os

        from ctinexus_ray.pipelines.kg_incr import committed_kg_shards
        from ctinexus_ray.state.checkpoint import partition_id
        from ctinexus_ray.state.tableformat import vacuum, version_files
        from jobs.stream_job import run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        kg = str(tmp_path / "kg")
        self._shard(inp / "s1.parquet", [1], ["APT29 used Cobalt Strike"])
        run_tick(str(inp), table, 4, kg_view=kg)
        (v1_file,) = version_files(table, 1)
        kept = [f for pid, f in committed_kg_shards(f"{kg}/docs_kg")
                if pid == partition_id(v1_file)]
        before = [os.stat(f).st_mtime_ns for f in kept]

        self._shard(inp / "s2.parquet", [2], ["the loader beaconed out"])
        run_tick(str(inp), table, 4)  # the view is not told about v2
        vacuum(table, keep_versions=1)
        s = run_tick(str(inp), table, 4, kg_view=kg)
        assert s["kg_rebuilt"]
        assert kept and [os.stat(f).st_mtime_ns for f in kept] == before
        docs_kg = f"{kg}/docs_kg"
        (rebuilt,) = [v for v in range(1, latest_version(docs_kg) + 1)
                      if version_mode(docs_kg, v) == "overwrite"]
        assert version_files(docs_kg, rebuilt) == kept
        after = committed_kg_shards(docs_kg)
        assert [f for pid, f in after if pid == partition_id(v1_file)] == kept
        assert len({pid for pid, _ in after}) == 2
        self._nodes_equal_full(kg)

    def test_rebuild_drops_stale_shards_in_one_commit(
        self, ray_session, tmp_path
    ):
        """The rebuild drops a shard whose input file left the corpus
        with one overwrite commit: the kept shard's files and lineage
        carry over, the ledger keeps both pids, and the dropped files
        stay readable at the old version."""
        from ctinexus_ray.pipelines.kg_incr import committed_kg_shards
        from ctinexus_ray.state.checkpoint import read_lineage, run_resumable
        from jobs.stream_job import _drop_stale_kg_state

        inp = tmp_path / "in"
        inp.mkdir()
        self._shard(inp / "s1.parquet", [1], ["APT29 used Cobalt Strike"])
        self._shard(inp / "s2.parquet", [2], ["the loader beaconed out"])
        docs_kg = str(tmp_path / "kg" / "docs_kg")
        run_resumable(sorted(str(p) for p in inp.iterdir()), docs_kg, lambda ds: ds)
        shards = committed_kg_shards(docs_kg)
        keep, drop = shards[0][0], shards[1][0]

        _drop_stale_kg_state(str(tmp_path / "kg"), {keep})
        assert version_mode(docs_kg, 3) == "overwrite"
        assert committed_kg_shards(docs_kg) == [s for s in shards if s[0] == keep]
        assert [r["partition_id"] for r in read_lineage(docs_kg)] == [keep]
        assert sorted(applied_ids(docs_kg)) == sorted([keep, drop])
        assert read_version(docs_kg, 2).count() == 2


class TestRebuildPreservesIndexShape:
    def test_positions_and_buckets_survive_rebuild(
        self, ray_session, tmp_path
    ):
        """A vacuum-triggered index rebuild must keep the prior index's
        positions flag and bucket count — otherwise phrase queries
        refuse after the rebuild."""
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_phrase,
        )
        from ctinexus_ray.state.tableformat import (
            commit_version,
            vacuum,
            version_extra,
        )
        from jobs.stream_job import _maintain_text_index, run_tick

        inp = tmp_path / "in"
        inp.mkdir()
        table = str(tmp_path / "tbl")
        index = str(tmp_path / "tindex")
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([1, 2], type=pa.int64()),
                    "text": pa.array(
                        ["hash join now", "vector hash"], type=pa.string()
                    ),
                }
            ),
            inp / "s1.parquet",
        )
        run_tick(str(inp), table, 4)
        # positional index built out-of-band over v1
        from ctinexus_ray.state.tableformat import version_files

        import ray.data

        text_index_build(
            ray.data.read_parquet(version_files(table, 1)), index,
            num_buckets=16, positions=True, batch_id="corpus-v1",
        )
        # corpus gains an unfoldable history: v2 appended, then v1's
        # manifest vacuumed away before the fold sees it
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([3], type=pa.int64()),
                    "text": pa.array(["hash join again"], type=pa.string()),
                }
            ),
            inp / "s2.parquet",
        )
        run_tick(str(inp), table, 4)
        vacuum(table, keep_versions=1, older_than_sec=0.0)
        out = _maintain_text_index(table, index, 4)
        assert out.get("rebuilt")
        meta = version_extra(index)["text_index"]
        assert meta["positions"] is True and meta["num_buckets"] == 16
        got = {
            r["doc_id"]: r["n_matches"]
            for r in text_index_phrase(index, ["hash", "join"]).take_all()
        }
        assert got == {1: 1, 3: 1}
