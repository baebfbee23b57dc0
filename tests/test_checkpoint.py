"""Resume / lineage tests for the partitioned-output checkpoint layer."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ctinexus_ray.state.checkpoint import (
    list_input_partitions,
    partition_id,
    read_lineage,
    run_resumable,
)
from ctinexus_ray.state.tableformat import (
    applied_ids,
    commit_version,
    latest_version,
    read_version,
    vacuum,
    version_files,
)


@pytest.fixture()
def input_files(tmp_path):
    files = []
    for i in range(3):
        path = tmp_path / f"in-{i}.parquet"
        pq.write_table(
            pa.table({"doc_id": list(range(i * 10, i * 10 + 10))}), path
        )
        files.append(str(path))
    return files


class TestPartitionIds:
    def test_deterministic(self, input_files):
        assert partition_id(input_files[0]) == partition_id(input_files[0])
        ids = [pid for pid, _ in list_input_partitions(input_files)]
        assert len(set(ids)) == 3


def _double(ds):
    return ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"doc_id": pa.compute.multiply(b.column("doc_id"), 2)}
        ),
        batch_format="pyarrow",
    )


def _root_parquet(out):
    return sorted(str(p) for p in out.glob("*.parquet"))


class TestResume:
    def test_skip_completed(self, input_files, tmp_path, ray_session):
        out = tmp_path / "out"
        pid, f = list_input_partitions(input_files)[0]
        commit_version(str(out), [], "append", batch_ids=[pid])
        assert applied_ids(str(out)) == [pid]
        got = run_resumable(input_files, out, _double)
        assert got["processed"] == 2 and got["skipped"] == 1
        assert partition_id(f) not in {
            r["partition_id"] for r in read_lineage(out)
        }

    def test_run_resumable_end_to_end(self, input_files, tmp_path, ray_session):
        out = tmp_path / "out"
        first = run_resumable(input_files, out, _double)
        assert first["processed"] == 3 and first["skipped"] == 0
        assert first["rows"] == 30

        # second run: everything skipped
        second = run_resumable(input_files, out, _double)
        assert second["processed"] == 0 and second["skipped"] == 3

        lineage = read_lineage(out)
        assert len(lineage) == 3
        assert all("input_file" in rec and rec["rows"] == 10 for rec in lineage)

    def test_sidecar_is_commit_record(self, input_files, tmp_path, ray_session):
        """The shard's manifest commit is its record: its files, its pid
        in the ledger and its lineage."""
        out = tmp_path / "out"
        pid, f = list_input_partitions(input_files)[0]
        run_resumable([f], out, _double)
        (rec,) = read_lineage(out)
        assert rec["rows"] == 10
        assert rec["input_file"] == f and rec["partition_id"] == pid
        assert applied_ids(str(out)) == [pid]
        files = version_files(str(out), latest_version(str(out)))
        assert files and all(os.path.basename(p).startswith(f"part-{pid}-")
                             for p in files)


class TestManifestCommit:
    """``run_resumable`` commits each shard through the manifest ledger:
    task-side files, then one ledgered append."""

    def test_crash_before_commit_resumes_and_vacuums(
        self, input_files, tmp_path, ray_session
    ):
        out = tmp_path / "out"

        def crash(files):
            raise RuntimeError("driver died before the commit")

        with pytest.raises(RuntimeError, match="before the commit"):
            run_resumable(input_files[:1], out, _double, lineage_fn=crash)
        orphans = _root_parquet(out)
        assert orphans and latest_version(str(out)) is None

        again = run_resumable(input_files[:1], out, _double)
        assert again == {"processed": 1, "skipped": 0, "rows": 10}
        got = read_version(str(out)).to_pandas()["doc_id"].sort_values()
        assert got.tolist() == [2 * i for i in range(10)]
        assert vacuum(str(out), older_than_sec=0)["files_deleted"] == len(orphans)
        assert _root_parquet(out) == sorted(
            version_files(str(out), latest_version(str(out))))

    def test_racing_runs_commit_shard_once(
        self, input_files, tmp_path, ray_session
    ):
        """A second run of the same shard writes and commits while the
        first sits between its write and its commit: the first finds
        the pid applied and commits nothing, and the racer's commit
        holds only the racer's files."""
        out = tmp_path / "out"
        raced = []

        def race(files):
            if not raced:
                raced.append(run_resumable(input_files[:1], out, _double))
            return {}

        run_resumable(input_files[:1], out, _double, lineage_fn=race)
        assert raced[0]["processed"] == 1
        pid = partition_id(input_files[0])
        assert applied_ids(str(out)) == [pid] and latest_version(str(out)) == 1
        assert read_version(str(out)).count() == 10
        assert len(read_lineage(out)) == 1

    def test_empty_shard_is_ledger_only_commit(self, tmp_path, ray_session):
        src = tmp_path / "in.parquet"
        pq.write_table(pa.table({"doc_id": [1, 2]}), src)
        out = tmp_path / "out"

        def drop_all(ds):
            return ds.filter(expr="doc_id > 100")

        assert run_resumable([str(src)], out, drop_all)["rows"] == 0
        assert version_files(str(out), 1) == []
        assert applied_ids(str(out)) == [partition_id(str(src))]
        assert [r["rows"] for r in read_lineage(out)] == [0]
        assert run_resumable([str(src)], out, drop_all)["processed"] == 0
        assert latest_version(str(out)) == 1

    def test_sidecar_layout_resumes(self, input_files, tmp_path, ray_session):
        """A directory the sidecar checkpoint wrote (part-<pid>.parquet
        plus _SUCCESS.<pid>.json, no manifest) is adopted in one
        ledgered commit: nothing recomputes and its records survive."""
        out = tmp_path / "out"
        out.mkdir()
        for pid, f in list_input_partitions(input_files)[:2]:
            pq.write_table(pa.table({"doc_id": [1, 2]}), out / f"part-{pid}.parquet")
            (out / f"_SUCCESS.{pid}.json").write_text(json.dumps(
                {"partition_id": pid, "rows": 2, "columns": ["doc_id"],
                 "input_file": f, "wall_time_s": 0.1}))
        # a part without a sidecar was never committed
        orphan = partition_id(input_files[2])
        pq.write_table(pa.table({"doc_id": [9]}), out / f"part-{orphan}.parquet")

        got = run_resumable(input_files[:2], out, _double)
        assert got == {"processed": 0, "skipped": 2, "rows": 0}
        assert sorted(r["input_file"] for r in read_lineage(out)) == sorted(input_files[:2])
        assert read_version(str(out)).count() == 4
        assert orphan not in applied_ids(str(out))


class TestPrepareJob:
    def test_prep_pipeline_filters_packs_and_rejoins(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data

        import jobs.prepare_job as pj

        texts = [
            "alpha beta gamma delta epsilon zeta eta theta",  # 8 words
            "x",  # dropped by min_words=5
            "one two three four five six seven",  # 7 words
        ]
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"doc_id": [1, 2, 3], "text": texts})
        )
        rows = sorted(
            (r["doc_id"], r["n_tokens"], r["pack_id"])
            for r in pj.prep_pipeline(capacity=10, min_words=5)(ds).take_all()
        )
        # doc 1 starts pack 0 (tokens 0..7), doc 3 starts at cum 8 -> pack 0
        assert rows == [(1, 8, 0), (3, 7, 0)]

    def test_dedup_phase_marker_skips(self, ray_session, tmp_path):
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq

        import jobs.prepare_job as pj

        src = tmp_path / "docs.parquet"
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": [1, 2, 3],
                    "text": ["a b c d e f g h"] * 2 + ["different words here now"],
                }
            ),
            src,
        )
        out = tmp_path / "dedup"
        s1 = pj.dedup_phase(str(src), str(out), threshold=0.8, num_partitions=16)
        assert s1["skipped"] is False and s1["surviving_docs"] == 2
        s2 = pj.dedup_phase(str(src), str(out), threshold=0.8, num_partitions=16)
        assert s2["skipped"] is True and s2["surviving_docs"] == 2
        assert json.loads((out / "_DEDUP_SUCCESS.json").read_text())["input_docs"] == 3


class TestPrepareJobOptInPhases:
    @staticmethod
    def _corpus(tmp_path, texts, sources=None):
        import pyarrow as pa
        import pyarrow.parquet as pq

        src = tmp_path / "docs.parquet"
        cols = {"doc_id": list(range(1, len(texts) + 1)), "text": texts}
        if sources is not None:
            cols["source"] = sources
        pq.write_table(pa.Table.from_pydict(cols), src)
        return str(src)

    def test_c4_clean_drops_and_cleans_before_dedup(self, ray_session, tmp_path):
        import jobs.prepare_job as pj

        good = "this line has plenty of proper words.\nand a second good line too."
        texts = [
            good,
            good,  # near-dup of doc 1: dedup should drop one AFTER cleaning
            "no punctuation here so both lines drop\nsecond line also bad",
            good + "\nclick here javascript nonsense line removed.",
        ]
        src = self._corpus(tmp_path, texts)
        out = tmp_path / "prep"
        stats = pj.dedup_phase(
            src, str(out), threshold=0.5, num_partitions=16, c4=True
        )
        # doc 3 dropped by C4 (0 surviving lines); docs 1/2/4 clean to the
        # same two lines -> dedup keeps one
        assert stats["c4_input_docs"] == 4 and stats["c4_dropped"] == 1
        assert stats["input_docs"] == 3 and stats["surviving_docs"] == 1

    def test_c4_empty_corpus_is_loud(self, ray_session, tmp_path):
        import pytest

        import jobs.prepare_job as pj

        src = self._corpus(tmp_path, ["single line ends with period."] * 3)
        with pytest.raises(ValueError, match="c4-min-lines"):
            pj.dedup_phase(
                src, str(tmp_path / "p"), threshold=0.5, num_partitions=16,
                c4=True, c4_min_lines=2,
            )
        # min_lines=1 admits single-line pages
        stats = pj.dedup_phase(
            src, str(tmp_path / "p2"), threshold=0.5, num_partitions=16,
            c4=True, c4_min_lines=1,
        )
        assert stats["input_docs"] == 3 and stats["surviving_docs"] == 1

    def test_mixture_phase_resume_and_budget(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        import jobs.prepare_job as pj

        texts = [f"word{i} alpha beta gamma delta epsilon" for i in range(40)]
        sources = ["a"] * 20 + ["b"] * 20
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        import pyarrow as pa

        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": list(range(40)),
                    "text": texts,
                    "source": sources,
                }
            ),
            src_dir / "part.parquet",
        )
        out = tmp_path / "mix"
        s1 = pj.mixture_phase(
            str(src_dir), str(out), {"a": 3, "b": 1}, budget_tokens=120,
            num_partitions=16,
        )
        assert s1["skipped"] is False
        # budget 120 over 40 docs x 6 tokens = 240 available; expected keep
        # ~ a: 90/120 of its docs, b: 30/120 — just assert a strict subset
        # biased toward a and determinism on rerun
        assert 0 < s1["surviving_docs"] < 40
        s2 = pj.mixture_phase(
            str(src_dir), str(out), {"a": 3, "b": 1}, budget_tokens=120,
            num_partitions=16,
        )
        assert s2["skipped"] is True
        assert s2["surviving_docs"] == s1["surviving_docs"]

    def test_mixture_requires_source_column(self, ray_session, tmp_path):
        import pytest

        import jobs.prepare_job as pj

        src_dir = tmp_path / "nosrc"
        src_dir.mkdir()
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(
            pa.Table.from_pydict({"doc_id": [1], "text": ["x y z."]}),
            src_dir / "p.parquet",
        )
        with pytest.raises(ValueError, match="source"):
            pj.mixture_phase(
                str(src_dir), str(tmp_path / "o"), {"a": 1}, 100, 16
            )

    def test_tokenizer_phase_bpe_and_resume(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        import jobs.prepare_job as pj

        src_dir = tmp_path / "src"
        src_dir.mkdir()
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": [1, 2, 3],
                    "text": ["lower lowest slower slowest"] * 3,
                }
            ),
            src_dir / "p.parquet",
        )
        out = tmp_path / "tok"
        s1 = pj.tokenizer_phase(
            str(src_dir), str(out), "bpe", n_merges=5, vocab_size=64
        )
        assert s1["skipped"] is False and s1["rows"] > 0
        model = ray.data.read_parquet(str(out / "model")).take_all()
        assert {"rank", "l", "r"} <= set(model[0].keys())
        s2 = pj.tokenizer_phase(
            str(src_dir), str(out), "bpe", n_merges=5, vocab_size=64
        )
        assert s2["skipped"] is True


class TestEmptyPartitionCommit:
    def test_all_filtered_shard_still_commits(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from ctinexus_ray.state.checkpoint import run_resumable

        src = tmp_path / "in.parquet"
        pq.write_table(
            pa.Table.from_pydict({"doc_id": [1, 2], "n": [1, 2]}), src
        )

        def drop_everything(ds: "ray.data.Dataset"):
            return ds.filter(expr="n > 100")

        out = tmp_path / "out"
        s1 = run_resumable([str(src)], out, drop_everything)
        assert s1 == {"processed": 1, "skipped": 0, "rows": 0}
        # the sidecar exists -> the rerun SKIPS instead of recrashing
        s2 = run_resumable([str(src)], out, drop_everything)
        assert s2 == {"processed": 0, "skipped": 1, "rows": 0}


class TestShuffleAutoSelect:
    def test_size_crossover_and_env_override(self, ray_session, monkeypatch):
        import ray.data
        from ray.data.context import DataContext, ShuffleStrategy

        from ctinexus_ray.rayutil import select_shuffle_strategy

        small = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
        monkeypatch.delenv("CTINEXUS_SHUFFLE", raising=False)
        assert select_shuffle_strategy(small) == "pull"
        # a forced tiny threshold flips the choice to push
        assert select_shuffle_strategy(small, threshold_bytes=1) == "push"
        assert (DataContext.get_current().shuffle_strategy
                == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED)
        # env var always wins over the estimate
        monkeypatch.setenv("CTINEXUS_SHUFFLE", "pull")
        assert select_shuffle_strategy(small, threshold_bytes=1) == "pull"
        # unknown size (lazy transform, no metadata) -> pull
        monkeypatch.delenv("CTINEXUS_SHUFFLE", raising=False)
        mapped = small.map_batches(lambda b: b, batch_format="pyarrow")
        assert select_shuffle_strategy(mapped) == "pull"
        # restore the suite default
        select_shuffle_strategy(small)


class TestLMFilterPhase:
    def test_drops_rare_word_soup_and_marker_skips(self, ray_session, tmp_path):
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        import jobs.prepare_job as pj

        # three fluent docs sharing vocabulary + one rare-word soup
        common = "data table scan join filter merge sort hash"
        texts = [common, common + " batch", common + " row",
                 "qqq zzz xxx www vvv uuu ttt sss"]
        src = tmp_path / "deduped"
        src.mkdir()
        pq.write_table(
            pa.Table.from_pydict(
                {"doc_id": [1, 2, 3, 4], "text": texts}
            ),
            src / "part-0.parquet",
        )
        out = tmp_path / "lm_filtered"
        s1 = pj.lm_filter_phase(str(src), str(out), tail_drop=0.25,
                                num_partitions=16)
        assert s1["skipped"] is False
        assert (s1["input_docs"], s1["surviving_docs"]) == (4, 3)
        kept = set(
            r["doc_id"]
            for r in ray.data.read_parquet(str(out)).take_all()
        )
        assert kept == {1, 2, 3}  # the soup doc (4) is the dropped tail
        s2 = pj.lm_filter_phase(str(src), str(out), tail_drop=0.25,
                                num_partitions=16)
        assert s2["skipped"] is True and s2["surviving_docs"] == 3
        marker = json.loads((out / "_LMFILTER_SUCCESS.json").read_text())
        assert marker["tail_drop"] == 0.25


class TestCompactJob:
    def test_compacts_and_resumes(self, ray_session, tmp_path):
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        import jobs.compact_job as cj

        src = tmp_path / "many"
        src.mkdir()
        for i in range(7):
            pq.write_table(
                pa.Table.from_pydict(
                    {"doc_id": [i * 10 + j for j in range(5)],
                     "text": [f"doc {i}-{j}" for j in range(5)]}
                ),
                src / f"part-{i:05d}.parquet",
            )
        out = tmp_path / "compact"
        s1 = cj.run_compaction(str(src), str(out), target_mb=1)
        # tiny files all fit one 1 MB bucket
        assert s1["input_files"] == 7 and s1["output_files"] == 1
        assert s1["skipped"] == 0 and s1["rows_written"] == 35
        got = ray.data.read_parquet(str(out)).take_all()
        assert sorted(r["doc_id"] for r in got) == sorted(
            i * 10 + j for i in range(7) for j in range(5)
        )
        # sidecar names its inputs; rerun skips the committed bucket
        sidecar = json.loads((out / "_COMPACT.00000.json").read_text())
        assert len(sidecar["inputs"]) == 7
        s2 = cj.run_compaction(str(src), str(out), target_mb=1)
        assert s2["skipped"] == 1 and s2["buckets_written"] == 0

    def test_bucket_planning_respects_target(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        import jobs.compact_job as cj

        files = []
        for i in range(4):
            p = tmp_path / f"f{i}.parquet"
            pq.write_table(
                pa.Table.from_pydict({"x": list(range(2000))}), p
            )
            files.append(str(p))
        one_size = max(1, (tmp_path / "f0.parquet").stat().st_size)
        # target of ~2 files per bucket
        buckets = cj.plan_buckets(files, target_bytes=one_size * 2)
        assert len(buckets) == 2
        assert [len(b) for b in buckets] == [2, 2]


class TestProfileJob:
    def test_profile_totals_and_resume(self, ray_session, tmp_path):
        import json
        import shutil

        import duckdb

        import jobs.profile_job as pj

        src = "/root/testdata/sf0.001/documents.parquet"
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(src, corpus / "documents.parquet")
        out = tmp_path / "profile"

        report = pj.run_profile(str(corpus), str(out))
        want = duckdb.sql(
            f"SELECT count(*), SUM(length(text)), "
            f"count(DISTINCT text), count(DISTINCT lang) "
            f"FROM read_parquet('{src}')"
        ).fetchone()
        assert report["n_docs"] == want[0]
        assert report["total_chars"] == want[1]
        # HLL at p=14 on a few hundred texts: well within 2%
        assert abs(report["approx_distinct_texts"] - want[2]) <= max(
            2, 0.02 * want[2]
        )
        assert report["langs"] == want[3]
        assert (out / "lang_counts.parquet").exists()
        assert (out / "length_histogram.parquet").exists()
        # per-lang parquet sums back to the totals
        lang_sum = duckdb.sql(
            f"SELECT SUM(n_docs), SUM(chars) FROM "
            f"read_parquet('{out}/lang_counts.parquet')"
        ).fetchone()
        assert lang_sum == (report["n_docs"], report["total_chars"])
        hist_sum = duckdb.sql(
            f"SELECT SUM(n_docs) FROM "
            f"read_parquet('{out}/length_histogram.parquet')"
        ).fetchone()[0]
        assert hist_sum == report["n_docs"]

        rerun = pj.run_profile(str(corpus), str(out))
        assert rerun["skipped"] is True
        assert rerun["n_docs"] == report["n_docs"]

        report_json = json.loads((out / "profile.json").read_text())
        assert report_json["n_docs"] == report["n_docs"]


class TestTableFormat:
    @staticmethod
    def _write(tmp_path, name, ids):
        import pyarrow as pa
        import pyarrow.parquet as pq

        p = str(tmp_path / name)
        pq.write_table(
            pa.Table.from_pydict({"doc_id": pa.array(ids, type=pa.int64())}),
            p,
        )
        return p

    def test_append_overwrite_and_time_travel(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import (
            commit_version,
            latest_version,
            read_version,
        )

        t = str(tmp_path / "tbl")
        a = self._write(tmp_path, "a.parquet", [1, 2])
        b = self._write(tmp_path, "b.parquet", [3])
        c = self._write(tmp_path, "c.parquet", [4, 5, 6])
        assert commit_version(t, [a]) == 1
        assert commit_version(t, [b], mode="append") == 2
        assert commit_version(t, [c], mode="overwrite") == 3
        assert latest_version(t) == 3
        assert read_version(t, 1).count() == 2
        assert read_version(t, 2).count() == 3  # a ∪ b
        assert read_version(t).count() == 3     # latest = overwrite c
        got = sorted(r["doc_id"] for r in read_version(t, 3).take_all())
        assert got == [4, 5, 6]

    def test_file_less_version_reads_empty(self, ray_session, tmp_path):
        """A ledger-only commit lists no file: it reads as an empty
        dataset, and a requested column comes back (null-typed: the
        version never held a file to take a type from)."""
        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        assert commit_version(t, [], "append", batch_ids=["b0"]) == 1
        assert read_version(t).count() == 0
        assert read_version(t, columns=["doc_id"]).columns() == ["doc_id"]

    def test_file_less_commit_keeps_parent_schema(self, ray_session, tmp_path):
        """A commit that lists no file carries its parent's schema, so
        its empty read stays typed."""
        import pyarrow as pa

        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        commit_version(t, [self._write(tmp_path, "a.parquet", [1, 2])])
        assert commit_version(t, [], "overwrite") == 2
        got = read_version(t, columns=["doc_id"])
        assert got.count() == 0
        assert got.schema().base_schema.field("doc_id").type == pa.int64()

    def test_duplicate_file_not_doubled(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        a = self._write(tmp_path, "a.parquet", [1, 2])
        commit_version(t, [a])
        commit_version(t, [a], mode="append")  # re-append same file
        assert read_version(t).count() == 2

    def test_optimistic_commit_race(self, ray_session, tmp_path):
        """Two committers racing on the same parent both land, on
        distinct consecutive versions, and the union is complete."""
        import ray

        from ctinexus_ray.state.tableformat import (
            commit_version,
            read_version,
        )

        t = str(tmp_path / "tbl")
        base = self._write(tmp_path, "base.parquet", [0])
        commit_version(t, [base])
        files = [
            self._write(tmp_path, f"r{i}.parquet", [10 + i]) for i in range(6)
        ]

        @ray.remote
        def committer(path):
            from ctinexus_ray.state.tableformat import commit_version as cv

            return cv(t, [path], mode="append")

        versions = ray.get([committer.remote(p) for p in files])
        assert sorted(versions) == [2, 3, 4, 5, 6, 7]  # all landed
        # the final version sees every row exactly once
        got = sorted(r["doc_id"] for r in read_version(t).take_all())
        assert got == [0, 10, 11, 12, 13, 14, 15]

    def test_read_empty_table_raises(self, ray_session, tmp_path):
        import pytest

        from ctinexus_ray.state.tableformat import read_version

        with pytest.raises(FileNotFoundError):
            read_version(str(tmp_path / "nope"))


class TestLedgeredCommit:
    """commit_version(batch_ids=...): the one exactly-once batch ledger,
    read from the parent each commit lands on."""

    _write = staticmethod(TestTableFormat._write)

    def test_replayed_id_commits_nothing(self, tmp_path):
        from ctinexus_ray.state.tableformat import (
            applied_ids,
            commit_version,
            latest_version,
        )

        t = str(tmp_path / "tbl")
        a = self._write(tmp_path, "a.parquet", [1])
        assert commit_version(t, [a], batch_ids=["b0"]) == 1
        b = self._write(tmp_path, "b.parquet", [2])
        assert commit_version(t, [b], batch_ids=["b0"]) is None
        assert latest_version(t) == 1
        assert [n for n in os.listdir(t) if n.endswith(".json")] == [
            "manifest-v1.json"
        ]
        assert applied_ids(t) == ["b0"]

    def test_partly_applied_ids_raise(self, tmp_path):
        from ctinexus_ray.state.tableformat import (
            applied_ids,
            commit_version,
            latest_version,
        )

        t = str(tmp_path / "tbl")
        commit_version(t, [self._write(tmp_path, "a.parquet", [1])],
                       batch_ids=["b0"])
        with pytest.raises(ValueError, match="all-or-nothing"):
            commit_version(t, [self._write(tmp_path, "b.parquet", [2])],
                           batch_ids=["b0", "b1"])
        assert latest_version(t) == 1 and applied_ids(t) == ["b0"]

    def test_racing_appends_keep_both_ids(self, tmp_path, monkeypatch):
        """An append that read version N as its parent loses the
        manifest race to a concurrent append; its retry lands on N+1
        and keeps the racer's ledger entry and rows."""
        import pyarrow.parquet as pq

        from ctinexus_ray.state import tableformat

        t = str(tmp_path / "tbl")
        tableformat.commit_version(
            t, [self._write(tmp_path, "a.parquet", [1])], batch_ids=["a"]
        )
        real_latest = tableformat.latest_version

        def latest_then_race(table_dir):
            head = real_latest(table_dir)
            monkeypatch.setattr(tableformat, "latest_version", real_latest)
            tableformat.commit_version(
                t, [self._write(tmp_path, "r.parquet", [2])],
                batch_ids=["racer"],
            )
            return head

        monkeypatch.setattr(tableformat, "latest_version", latest_then_race)
        v = tableformat.commit_version(
            t, [self._write(tmp_path, "b.parquet", [3])], batch_ids=["b"]
        )
        assert v == 3
        assert tableformat.applied_ids(t) == ["a", "racer", "b"]
        got = pq.read_table(tableformat.version_files(t, 3))
        assert sorted(got.column("doc_id").to_pylist()) == [1, 2, 3]

    def test_ledger_survives_any_extra(self, tmp_path):
        from ctinexus_ray.state.tableformat import (
            applied_ids,
            commit_version,
            version_extra,
        )

        t = str(tmp_path / "tbl")
        commit_version(t, [self._write(tmp_path, "a.parquet", [1])],
                       extra={"k": 1}, batch_ids=["b0"])
        commit_version(t, [], extra={})  # clears k, keeps the ledger
        commit_version(t, [], extra={"applied": ["forged"]})
        assert applied_ids(t) == ["b0"]
        assert version_extra(t, 2) == {"applied": ["b0"]}
        assert commit_version(t, [], batch_ids=["b1"]) == 4  # ledger-only
        assert applied_ids(t) == ["b0", "b1"] and applied_ids(t, 1) == ["b0"]

    @pytest.mark.parametrize("old_extra", [
        {"ivm_applied": ["b0", "b1"]},
        {"text_index": {"n_docs": 2, "applied": ["b0", "b1"]}},
    ])
    def test_reads_manifest_written_before_one_ledger(
        self, tmp_path, old_extra
    ):
        """A manifest from before commit_version owned the ledger keeps
        it under a per-caller key; its ids still count as applied, and
        the next commit moves them under the one key."""
        import json

        from ctinexus_ray.state.tableformat import (
            applied_ids,
            commit_version,
            version_extra,
        )

        t = tmp_path / "view"
        t.mkdir()
        a = self._write(tmp_path, "a.parquet", [1])
        (t / "manifest-v1.json").write_text(json.dumps({
            "version": 1, "parent": None, "mode": "overwrite",
            "files": [a], "extra": old_extra,
        }))
        assert applied_ids(str(t)) == ["b0", "b1"]
        assert commit_version(str(t), [], batch_ids=["b1"]) is None
        assert commit_version(str(t), [], batch_ids=["b2"]) == 2
        extra = version_extra(str(t))
        assert extra["applied"] == ["b0", "b1", "b2"]
        assert "ivm_applied" not in extra
        assert "applied" not in extra.get("text_index", {})


class TestSchemaEvolution:
    @staticmethod
    def _write(tmp_path, name, cols):
        import pyarrow as pa
        import pyarrow.parquet as pq

        p = str(tmp_path / name)
        pq.write_table(pa.Table.from_pydict(cols), p)
        return p

    def test_added_column_null_fills_old_files(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        a = self._write(
            tmp_path, "a.parquet",
            {"doc_id": pa.array([1, 2], type=pa.int64()), "text": ["x", "y"]},
        )
        b = self._write(
            tmp_path, "b.parquet",
            {"doc_id": pa.array([3], type=pa.int64()), "text": ["z"],
             "lang": ["en"]},
        )
        commit_version(t, [a])
        commit_version(t, [b], mode="append")
        rows = sorted(read_version(t).take_all(), key=lambda r: r["doc_id"])
        assert [r["lang"] for r in rows] == [None, None, "en"]
        # the pre-evolution version still reads with its own schema
        v1 = read_version(t, 1).take_all()
        assert "lang" not in v1[0]

    def test_projection_spanning_schema_groups(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        a = self._write(
            tmp_path, "a.parquet", {"doc_id": pa.array([1], type=pa.int64())}
        )
        b = self._write(
            tmp_path, "b.parquet",
            {"doc_id": pa.array([2], type=pa.int64()), "lang": ["de"]},
        )
        commit_version(t, [a])
        commit_version(t, [b], mode="append")
        # projecting ONLY the added column still yields one row per
        # input row (old files contribute nulls, not dropped rows)
        rows = read_version(t, columns=["lang"]).take_all()
        assert sorted(str(r["lang"]) for r in rows) == ["None", "de"]

    def test_filter_on_added_column(self, ray_session, tmp_path):
        # Iceberg semantics: pre-evolution files hold NULL for an added
        # column, so a filter on it drops their rows (Kleene logic)
        # instead of raising — and is_null() matches them
        import pyarrow as pa
        import pyarrow.dataset as pads

        from ctinexus_ray.state.tableformat import commit_version, read_version

        t = str(tmp_path / "tbl")
        a = self._write(
            tmp_path, "a.parquet",
            {"doc_id": pa.array([1, 2], type=pa.int64())},
        )
        b = self._write(
            tmp_path, "b.parquet",
            {"doc_id": pa.array([3, 4], type=pa.int64()),
             "score": pa.array([0.9, 0.1], type=pa.float64())},
        )
        commit_version(t, [a])
        commit_version(t, [b], mode="append")
        hits = read_version(t, filter=pads.field("score") > 0.5).take_all()
        assert [r["doc_id"] for r in hits] == [3]
        nulls = read_version(t, filter=pads.field("score").is_null()).take_all()
        assert sorted(r["doc_id"] for r in nulls) == [1, 2]
        # projection narrower than the filter column still works
        got = read_version(
            t, columns=["doc_id"], filter=pads.field("score") > 0.5
        ).take_all()
        assert [r["doc_id"] for r in got] == [3] and "score" not in got[0]
        # a filter on a column NOWHERE in the table is loud
        import pytest

        with pytest.raises(ValueError, match="outside"):
            read_version(t, filter=pads.field("nope") == 1).take_all()

    def test_type_change_refused(self, ray_session, tmp_path):
        import pyarrow as pa
        import pytest

        from ctinexus_ray.state.tableformat import commit_version

        t = str(tmp_path / "tbl")
        a = self._write(
            tmp_path, "a.parquet", {"k": pa.array([1], type=pa.int64())}
        )
        b = self._write(tmp_path, "b.parquet", {"k": ["not an int"]})
        commit_version(t, [a])
        with pytest.raises(ValueError, match="changes type"):
            commit_version(t, [b], mode="append")

    def test_compaction_merges_schema_groups(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.state.tableformat import (
            commit_version,
            compact_table,
            read_version,
        )

        t = str(tmp_path / "tbl")
        a = self._write(
            tmp_path, "a.parquet", {"doc_id": pa.array([1], type=pa.int64())}
        )
        b = self._write(
            tmp_path, "b.parquet",
            {"doc_id": pa.array([2], type=pa.int64()), "lang": ["fr"]},
        )
        commit_version(t, [a])
        commit_version(t, [b], mode="append")
        res = compact_table(t, target_bytes=1 << 20)
        assert res["files_compacted"] == 2
        rows = sorted(read_version(t).take_all(), key=lambda r: r["doc_id"])
        assert [r.get("lang") for r in rows] == [None, "fr"]


class TestMergeUpsert:
    """MERGE INTO the versioned table (state/tableformat.py
    merge_upsert): update/insert/delete semantics, footer-stats file
    pruning, the big-updates anti-join fallback, and time travel."""

    @staticmethod
    def _write(path, ids, texts):
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                }
            ),
            path,
        )
        return str(path)

    @staticmethod
    def _updates(rows):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "text": pa.array([r[1] for r in rows], type=pa.string()),
                    "is_del": pa.array(
                        [r[2] for r in rows], type=pa.bool_()
                    ),
                }
            )
        )

    def _seed(self, tmp_path):
        from ctinexus_ray.state.tableformat import commit_version

        t = str(tmp_path / "tbl")
        f1 = self._write(tmp_path / "a.parquet", [0, 1, 2], ["a0", "a1", "a2"])
        f2 = self._write(
            tmp_path / "b.parquet", [100, 101], ["b100", "b101"]
        )
        commit_version(t, [f1, f2], mode="overwrite")
        return t

    @staticmethod
    def _state(t, version=None):
        from ctinexus_ray.state.tableformat import read_version

        return sorted(
            (r["doc_id"], r["text"]) for r in read_version(t, version).take_all()
        )

    def test_update_insert_delete(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import merge_upsert

        t = self._seed(tmp_path)
        res = merge_upsert(
            t,
            self._updates(
                [(1, "UPDATED", False), (2, None, True), (500, "NEW", False)]
            ),
            key_col="doc_id",
            delete_col="is_del",
            num_partitions=4,
        )
        assert res["version"] == 2
        assert self._state(t) == [
            (0, "a0"),
            (1, "UPDATED"),
            (100, "b100"),
            (101, "b101"),
            (500, "NEW"),
        ]
        # time travel: version 1 unchanged
        assert self._state(t, 1) == [
            (0, "a0"),
            (1, "a1"),
            (2, "a2"),
            (100, "b100"),
            (101, "b101"),
        ]

    def test_untouched_file_kept_by_reference(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import merge_upsert

        t = self._seed(tmp_path)
        # keys 0-2 live in a.parquet only; b.parquet must not be rewritten
        res = merge_upsert(
            t,
            self._updates([(1, "U", False)]),
            key_col="doc_id",
            delete_col="is_del",
            num_partitions=4,
        )
        assert res["files_kept"] == 1
        assert res["files_rewritten"] == 1
        assert (1, "U") in self._state(t)
        assert (101, "b101") in self._state(t)

    def test_big_updates_anti_join_path(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import merge_upsert

        t = self._seed(tmp_path)
        res = merge_upsert(
            t,
            self._updates([(1, "U", False), (2, "V", False)]),
            key_col="doc_id",
            delete_col="is_del",
            max_broadcast_keys=1,  # force the anti-join fallback
            num_partitions=4,
        )
        assert res["files_kept"] == 0
        assert self._state(t) == [
            (0, "a0"),
            (1, "U"),
            (2, "V"),
            (100, "b100"),
            (101, "b101"),
        ]

    def test_duplicate_update_keys_rejected(self, ray_session, tmp_path):
        import pytest

        from ctinexus_ray.state.tableformat import merge_upsert

        t = self._seed(tmp_path)
        with pytest.raises(ValueError, match="more than once"):
            merge_upsert(
                t,
                self._updates([(1, "U", False), (1, "V", False)]),
                key_col="doc_id",
                delete_col="is_del",
                num_partitions=4,
            )

    def test_merge_into_empty_table_is_create(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import merge_upsert

        t = str(tmp_path / "fresh")
        res = merge_upsert(
            t,
            self._updates([(7, "seven", False), (8, None, True)]),
            key_col="doc_id",
            delete_col="is_del",
            num_partitions=4,
        )
        assert res["version"] == 1
        assert self._state(t) == [(7, "seven")]

    def test_mismatched_update_columns_rejected(self, ray_session, tmp_path):
        import pyarrow as pa
        import pytest

        import ray.data

        from ctinexus_ray.state.tableformat import merge_upsert

        t = self._seed(tmp_path)
        bad = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"doc_id": pa.array([1], type=pa.int64())}
            )
        )
        with pytest.raises(Exception, match="columns"):
            merge_upsert(t, bad, key_col="doc_id", num_partitions=4)


class TestVacuum:
    def test_expire_and_orphan_collection(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import (
            latest_version,
            merge_upsert,
            read_version,
            vacuum,
        )

        t = str(tmp_path / "tbl")
        m = TestMergeUpsert
        # v1 from INTERNAL files (safety rule applies only to externals)
        import shutil

        base = tmp_path / "tbl"
        base.mkdir()
        f1 = m._write(base / "a.parquet", [0, 1], ["a0", "a1"])
        from ctinexus_ray.state.tableformat import commit_version

        commit_version(t, [f1], mode="overwrite")
        merge_upsert(
            t, m._updates([(1, "U", False)]), key_col="doc_id",
            delete_col="is_del", num_partitions=4,
        )
        merge_upsert(
            t, m._updates([(0, "W", False)]), key_col="doc_id",
            delete_col="is_del", num_partitions=4,
        )
        res = vacuum(t, keep_versions=1, older_than_sec=0.0)
        assert res["manifests_dropped"] == 2
        assert res["files_deleted"] > 0
        assert latest_version(t) == 3
        got = sorted((r["doc_id"], r["text"]) for r in read_version(t).take_all())
        assert got == [(0, "W"), (1, "U")]
        # expired versions no longer readable
        import pytest

        with pytest.raises(FileNotFoundError):
            read_version(t, 1)

    def test_external_files_never_deleted(self, ray_session, tmp_path):
        import os

        from ctinexus_ray.state.tableformat import (
            commit_version,
            merge_upsert,
            vacuum,
        )

        m = TestMergeUpsert
        ext = m._write(tmp_path / "shared.parquet", [5], ["ext"])
        t = str(tmp_path / "tbl2")
        commit_version(t, [ext], mode="overwrite")
        merge_upsert(
            t, m._updates([(5, "mine", False)]), key_col="doc_id",
            delete_col="is_del", num_partitions=4,
        )
        vacuum(t, keep_versions=1, older_than_sec=0.0)
        # the external input (referenced only by the EXPIRED v1) survives
        assert os.path.exists(ext)

    def test_keep_versions_validated(self, ray_session, tmp_path):
        import pytest

        from ctinexus_ray.state.tableformat import vacuum

        with pytest.raises(ValueError, match="keep_versions"):
            vacuum(str(tmp_path), keep_versions=0, older_than_sec=0.0)


class TestCompactTable:
    def test_small_files_pack_and_carry_large(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import (
            compact_table,
            commit_version,
            read_version,
        )

        m = TestMergeUpsert
        t = str(tmp_path / "tbl")
        files = [
            m._write(tmp_path / f"s{i}.parquet", [i * 10 + j for j in range(3)],
                     [f"t{i}{j}" for j in range(3)])
            for i in range(5)
        ]
        commit_version(t, files, mode="overwrite")
        before = sorted(
            (r["doc_id"], r["text"]) for r in read_version(t).take_all()
        )
        res = compact_table(t, target_bytes=1 << 30)  # everything is small
        assert res["version"] == 2
        assert res["files_compacted"] == 5
        assert res["buckets"] == 1
        after = sorted(
            (r["doc_id"], r["text"]) for r in read_version(t).take_all()
        )
        assert after == before  # row-preserving
        # time travel intact
        assert read_version(t, 1).count() == 15

    def test_noop_below_min_files(self, ray_session, tmp_path):
        from ctinexus_ray.state.tableformat import (
            compact_table,
            commit_version,
            latest_version,
        )

        m = TestMergeUpsert
        t = str(tmp_path / "tbl")
        f = m._write(tmp_path / "one.parquet", [1], ["x"])
        commit_version(t, [f], mode="overwrite")
        res = compact_table(t, target_bytes=1 << 30)
        assert res["version"] is None
        assert latest_version(t) == 1

    def test_pushdown_read(self, ray_session, tmp_path):
        import pyarrow.dataset as pds

        from ctinexus_ray.state.tableformat import (
            commit_version,
            read_version,
        )

        m = TestMergeUpsert
        t = str(tmp_path / "tbl")
        f = m._write(tmp_path / "a.parquet", [1, 2, 3], ["x", "y", "z"])
        commit_version(t, [f], mode="overwrite")
        ds = read_version(
            t, columns=["doc_id"], filter=(pds.field("doc_id") >= 2)
        )
        assert sorted(r["doc_id"] for r in ds.take_all()) == [2, 3]
        assert ds.schema().names == ["doc_id"]


class TestExactSubstrPhase:
    def test_span_removal_payload_and_resume(self, ray_session, tmp_path):
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        import jobs.prepare_job as pj

        span = " ".join(f"w{i}" for i in range(10))
        texts = [
            f"{span} uniqueA tailA endingA",
            f"{span} uniqueB tailB endingB",
            "totally distinct words for doc three here now indeed ok",
        ]
        src = tmp_path / "deduped"
        src.mkdir()
        pq.write_table(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([1, 2, 3], type=pa.int64()),
                    "text": pa.array(texts, type=pa.string()),
                    "source": pa.array(["s1", "s2", "s3"], type=pa.string()),
                }
            ),
            src / "part0.parquet",
        )
        out = tmp_path / "despanned"
        stats = pj.exact_substr_phase(str(src), str(out), n=10,
                                      num_partitions=8)
        assert stats["docs"] == 3
        assert stats["words_removed"] == 20  # the 10-word span, twice
        rows = {
            r["doc_id"]: r
            for r in ray.data.read_parquet(str(out)).take_all()
        }
        assert rows[1]["text"] == "uniqueA tailA endingA"
        assert rows[1]["source"] == "s1"  # payload column survived
        assert rows[2]["text"] == "uniqueB tailB endingB"
        assert "distinct" in rows[3]["text"]

        stats2 = pj.exact_substr_phase(str(src), str(out), n=10,
                                       num_partitions=8)
        assert stats2["skipped"] is True
        marker = json.loads((out / "_SPANS_SUCCESS.json").read_text())
        assert marker["words_removed"] == 20


class TestSnapshotIsolation:
    """Round-5 substrate hardening: snapshot-derived commits must abort
    (not silently win) when the table advanced underneath them, vacuum
    must not eat an in-flight commit's young files, merge_upsert must
    work on schema-evolved tables, and NULL keys refuse loudly."""

    @staticmethod
    def _mk_table(tmp_path, name, rows):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.state.tableformat import commit_version

        t = tmp_path / name
        t.mkdir()
        f = t / "f1.parquet"
        pq.write_table(
            pa.table({"k": pa.array(rows, type=pa.int64()),
                      "v": pa.array([f"v{r}" for r in rows])}), f
        )
        commit_version(str(t), [str(f)])
        return str(t), str(f)

    def test_concurrent_append_aborts_stale_compact(
        self, ray_session, tmp_path
    ):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import pytest as _pytest

        from ctinexus_ray.state.tableformat import (
            ConcurrentWriteError,
            commit_version,
            latest_version,
            read_version,
        )

        t, _ = self._mk_table(tmp_path, "t", [1, 2])
        # a snapshot-derived commit computed from v1...
        snapshot_v = latest_version(t)
        # ...races a concurrent append (v2 with new rows)
        f2 = tmp_path / "t" / "f2.parquet"
        pq.write_table(
            pa.table({"k": pa.array([3], type=pa.int64()),
                      "v": pa.array(["v3"])}), f2
        )
        commit_version(t, [str(f2)], mode="append")
        with _pytest.raises(ConcurrentWriteError, match="advanced|now at"):
            commit_version(
                t, [], mode="overwrite", expected_parent=snapshot_v
            )
        # the concurrent append's rows are still there
        assert read_version(t).count() == 3

    def test_delete_aborts_on_concurrent_append(
        self, ray_session, tmp_path
    ):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import pytest as _pytest
        import ray.data

        from ctinexus_ray.ops.textindex import (
            text_index_append,
            text_index_build,
            text_index_delete,
        )
        from ctinexus_ray.state.tableformat import ConcurrentWriteError

        idx = str(tmp_path / "idx")
        docs = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                      "text": pa.array(["hash join", "vector hash"])})
        )
        text_index_build(docs, idx, num_buckets=2)

        # simulate the race: delete computes its snapshot, then an
        # append lands before its commit — monkeypatch the rewrite to
        # interleave deterministically
        import ctinexus_ray.state.tableformat as tf

        orig = tf.cow_delete_rows
        appended = {"done": False}

        def racing(files, key_col, ids, data_dir, capture_cols=None):
            out = orig(files, key_col, ids, data_dir,
                       capture_cols=capture_cols)
            if not appended["done"]:
                appended["done"] = True
                text_index_append(
                    ray.data.from_arrow(
                        pa.table({
                            "doc_id": pa.array([2], type=pa.int64()),
                            "text": pa.array(["late arrival hash"]),
                        })
                    ),
                    idx, batch_id="race",
                )
            return out

        import ctinexus_ray.ops.textindex as ti

        # text_index_delete imports cow_delete_rows inside the function
        # body from tableformat, so patch it there
        tf_orig = tf.cow_delete_rows
        tf.cow_delete_rows = racing
        try:
            with _pytest.raises(ConcurrentWriteError):
                text_index_delete(idx, [0], batch_id="drop")
        finally:
            tf.cow_delete_rows = tf_orig

    def test_vacuum_grace_keeps_young_orphans(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.state.tableformat import vacuum

        t, _ = self._mk_table(tmp_path, "t", [1])
        # an in-flight commit's freshly written, not-yet-referenced file
        orphan = tmp_path / "t" / "data-inflight" 
        orphan.mkdir()
        f = orphan / "part.parquet"
        pq.write_table(pa.table({"k": pa.array([9], type=pa.int64()),
                                 "v": pa.array(["x"])}), f)
        res = vacuum(t, keep_versions=1)  # default grace 600s
        assert f.exists(), "young orphan must survive the grace period"
        assert res["files_deleted"] == 0
        res2 = vacuum(t, keep_versions=1, older_than_sec=0.0)
        assert not f.exists() and res2["files_deleted"] == 1

    def test_merge_upsert_on_evolved_schema(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from ctinexus_ray.state.tableformat import (
            commit_version,
            merge_upsert,
            read_version,
        )

        t, _ = self._mk_table(tmp_path, "t", [1, 2])
        # evolve: v2 appends a file with an extra column b
        f2 = tmp_path / "t" / "f2.parquet"
        pq.write_table(
            pa.table({"k": pa.array([3], type=pa.int64()),
                      "v": pa.array(["v3"]),
                      "b": pa.array([30], type=pa.int64())}), f2
        )
        commit_version(t, [str(f2)], mode="append")
        # union-shaped upsert touching BOTH the old and the new file
        updates = ray.data.from_arrow(
            pa.table({"k": pa.array([2, 3, 4], type=pa.int64()),
                      "v": pa.array(["V2", "V3", "V4"]),
                      "b": pa.array([20, 31, 40], type=pa.int64())})
        )
        merge_upsert(t, updates, key_col="k")
        rows = {r["k"]: (r["v"], r["b"]) for r in read_version(t).take_all()}
        assert rows == {
            1: ("v1", None),   # untouched old-file row, null-filled b
            2: ("V2", 20),
            3: ("V3", 31),
            4: ("V4", 40),
        }

    def test_null_keys_refuse(self, ray_session, tmp_path):
        import pyarrow as pa
        import pytest as _pytest
        import ray.data

        from ctinexus_ray.state.tableformat import (
            collect_delete_ids,
            merge_upsert,
        )

        t, _ = self._mk_table(tmp_path, "t", [1, 2])
        bad = ray.data.from_arrow(
            pa.table({"k": pa.array([1, None], type=pa.int64()),
                      "v": pa.array(["a", "b"])})
        )
        with _pytest.raises(ValueError, match="NULL"):
            merge_upsert(t, bad, key_col="k", assume_unique=True)
        with _pytest.raises(ValueError, match="NULL"):
            collect_delete_ids(
                bad.select_columns(["k"]).rename_columns({"k": "doc_id"}),
                "doc_id", 1000,
            )
