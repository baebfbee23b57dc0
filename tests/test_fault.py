"""Worker-death fault injection — the SURVEY §4.2 claim ("Ray task
retries + lineage re-execution" heal mid-run worker loss) driven for
real: a poison stage kills its own WORKER PROCESS (stateless-task case)
or its ACTOR (actor-pool case) exactly once mid-run via an O_EXCL flag
file, and the run must (a) complete, (b) produce outputs identical to
an uninterrupted twin, (c) leave lineage records / index manifests
uncorrupted. Ray Data actor pools carry max_restarts=-1 /
max_task_retries=-1 by default, so a killed actor is respawned and its
in-flight batch re-executed from lineage.

All poison helpers are defined INSIDE the tests: respawned workers
deserialize closures by value — a module-level helper in a test file
would need `import test_fault` on a worker whose sys.path lacks the
tests dir (the original worker inherited it, its replacement does not).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ctinexus_ray.sources.synth import write_cc_corpus
from ctinexus_ray.state.checkpoint import committed_shards, read_lineage, run_resumable

def _make_poison():
    """A kill-once function (dies the first time ANY worker passes;
    every retry sees the flag and survives). Returned as a closure so
    cloudpickle ships it by VALUE."""

    def poison_once(flag):
        import os as _os

        try:
            fd = _os.open(flag, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
            _os.close(fd)
            _os._exit(1)
        except FileExistsError:
            pass

    return poison_once


def _make_mark():
    def mark_batch(batch):
        import pyarrow.compute as pc

        return batch.append_column(
            "text_len", pc.utf8_length(batch.column("text"))
        )

    return mark_batch


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cc_fault")
    return [str(p) for p in write_cc_corpus(out, 40, rows_per_file=20)]


def _parts(out_dir):
    """{pid: the shard's committed rows}. File names carry a write
    uuid, so shards compare by pid and content."""
    files: dict[str, list[str]] = {}
    for pid, f in committed_shards(out_dir):
        files.setdefault(pid, []).append(f)
    return {pid: pa.concat_tables(pq.read_table(f) for f in fs)
            for pid, fs in files.items()}


def _assert_same_outputs(poisoned_dir, clean_dir):
    """Same shard set, same per-shard row CONTENT. Row order may differ:
    a retried block completes later and Ray Data's streaming executor
    does not preserve inter-block order by default — lineage guarantees
    the multiset of rows, so compare sorted on the unique url key."""
    got, want = _parts(poisoned_dir), _parts(clean_dir)
    assert sorted(got) == sorted(want)
    for pid in got:
        assert got[pid].sort_by("url").equals(want[pid].sort_by("url")), (
            f"shard {pid} diverged after fault")


class TestWorkerDeath:
    def test_task_worker_death_heals(
        self, corpus_files, tmp_path, ray_session
    ):
        """A stateless map_batches task's worker dies mid-run: Ray
        retries the task, run_resumable commits every shard, outputs
        byte-identical to an undisturbed run."""
        flag = str(tmp_path / "task_poison")
        poison_once, mark_batch = _make_poison(), _make_mark()

        def poisoned(ds):
            def stage(batch):
                poison_once(flag)
                return mark_batch(batch)

            return ds.map_batches(stage, batch_format="pyarrow")

        def clean(ds):
            return ds.map_batches(mark_batch, batch_format="pyarrow")

        got = run_resumable(corpus_files, tmp_path / "poisoned", poisoned)
        assert os.path.exists(flag), "poison never fired"
        assert got["processed"] == 2 and got["rows"] == 40
        run_resumable(corpus_files, tmp_path / "clean", clean)
        _assert_same_outputs(tmp_path / "poisoned", tmp_path / "clean")
        # lineage records intact, one per shard
        assert [r["rows"] for r in read_lineage(tmp_path / "poisoned")] == [20, 20]

    def test_actor_death_heals(self, corpus_files, tmp_path, ray_session):
        """An actor-pool worker (the LLM-stage shape) dies mid-run: the
        pool respawns it, the in-flight batch re-executes, outputs
        match the undisturbed twin."""
        flag = str(tmp_path / "actor_poison")
        poison_once, mark_batch = _make_poison(), _make_mark()

        class SuicidalActorStage:
            def __init__(self, flag_path):
                self.flag = flag_path

            def __call__(self, batch):
                poison_once(self.flag)
                return mark_batch(batch)

        def poisoned(ds):
            return ds.map_batches(
                SuicidalActorStage,
                fn_constructor_kwargs={"flag_path": flag},
                batch_format="pyarrow",
                batch_size=8,
                concurrency=(1, 2),
            )

        def clean(ds):
            return ds.map_batches(mark_batch, batch_format="pyarrow")

        got = run_resumable(corpus_files, tmp_path / "poisoned", poisoned)
        assert os.path.exists(flag), "poison never fired"
        assert got["processed"] == 2 and got["rows"] == 40
        run_resumable(corpus_files, tmp_path / "clean", clean)
        _assert_same_outputs(tmp_path / "poisoned", tmp_path / "clean")

    def test_kg_actor_death_end_to_end(
        self, corpus_files, tmp_path, ray_session, config
    ):
        """The real KG pipeline with a poison stage BETWEEN extract and
        the fused LLM actor pool — worker death upstream of the actor
        pool must not corrupt the docs_kg checkpoint (shard outputs
        equal the undisturbed run's)."""
        from ctinexus_ray.pipelines.kg import (
            KG_DOC_COLUMNS,
            extract_documents,
            run_kg_stage,
        )

        flag = str(tmp_path / "kg_poison")
        poison_once = _make_poison()

        def make_pipeline(poison: bool):
            def pipeline(ds):
                ds = extract_documents(ds, config)
                if poison:
                    def stage(batch):
                        poison_once(flag)
                        return batch

                    ds = ds.map_batches(stage, batch_format="pyarrow")
                return run_kg_stage(ds, config).select_columns(
                    KG_DOC_COLUMNS
                )

            return pipeline

        got = run_resumable(
            corpus_files, tmp_path / "poisoned", make_pipeline(True)
        )
        assert os.path.exists(flag), "poison never fired"
        assert got["processed"] == 2
        run_resumable(
            corpus_files, tmp_path / "clean", make_pipeline(False)
        )
        _assert_same_outputs(tmp_path / "poisoned", tmp_path / "clean")

    def test_kg_worker_with_live_stage_death_end_to_end(
        self, corpus_files, tmp_path, ray_session, config
    ):
        """The KG stage's own task dies on its second batch, in a worker
        whose per-process ``KGDocStage`` (client, demo prefix, embed
        cache) has already served the first: the retried task rebuilds
        the state in another process, and the docs_kg checkpoint equals
        the undisturbed run's."""
        from ctinexus_ray.llm.client import stage_task_map
        from ctinexus_ray.pipelines.kg import (
            KG_DOC_COLUMNS,
            default_demos,
            extract_documents,
            run_kg_stage,
        )
        from ctinexus_ray.stages.kg import KGDocStage

        flag = str(tmp_path / "kg_stage_poison")
        poison_once = _make_poison()

        class DiesHoldingState(KGDocStage):
            def __call__(self, batch):
                self.served = getattr(self, "served", 0) + 1
                if self.served >= 2:
                    poison_once(flag)
                return super().__call__(batch)

        def poisoned(ds):
            return stage_task_map(
                extract_documents(ds, config), DiesHoldingState,
                {"config": config, "demos": default_demos(config)},
                config, 4,
            ).select_columns(KG_DOC_COLUMNS)

        def clean(ds):
            return run_kg_stage(
                extract_documents(ds, config), config
            ).select_columns(KG_DOC_COLUMNS)

        got = run_resumable(corpus_files, tmp_path / "poisoned", poisoned)
        assert os.path.exists(flag), "poison never fired"
        assert got["processed"] == 2
        run_resumable(corpus_files, tmp_path / "clean", clean)
        _assert_same_outputs(tmp_path / "poisoned", tmp_path / "clean")

    def test_kg_fold_derive_task_death_heals(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        """A derive task of ``fold_kg_derived`` dies on its first attempt
        right after writing its triples and edges files: the retried
        task overwrites them, and all four views equal the undisturbed
        twin's."""
        import shutil

        import pandas as pd

        import ctinexus_ray.pipelines.kg as kg
        from ctinexus_ray.pipelines.kg_incr import (
            fold_kg_derived,
            read_kg_metrics_view,
            read_kg_nodes_view,
        )
        from ctinexus_ray.state.tableformat import read_version

        flag = str(tmp_path / "derive_poison")
        poison_once, real = _make_poison(), kg.derive_batch

        def dies_after_writing(*args):
            partials = real(*args)
            poison_once(flag)
            return partials

        kg.checkpoint_docs_kg(
            corpus_files, str(tmp_path / "clean" / "docs_kg"), config
        )
        shutil.copytree(tmp_path / "clean", tmp_path / "poisoned")
        fold_kg_derived(str(tmp_path / "clean"), config)
        monkeypatch.setattr(kg, "derive_batch", dies_after_writing)
        got = fold_kg_derived(str(tmp_path / "poisoned"), config)
        assert os.path.exists(flag), "poison never fired"
        assert got["nodes_folded"] == got["triples_folded"] == 2

        def frame(ds):
            df = ds.to_pandas()
            df = df[sorted(df.columns)].astype(str)
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        readers = {
            "nodes_view": read_kg_nodes_view,
            "triples_view": read_version,
            "edges_view": read_version,
            "metrics_view": read_kg_metrics_view,
        }
        for view, read in readers.items():
            pd.testing.assert_frame_equal(
                frame(read(str(tmp_path / "poisoned" / view))),
                frame(read(str(tmp_path / "clean" / view))),
            )

    def test_kg_build_derive_task_death_heals(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        """A derive task of the one-shot ``run_kg_to_parquet`` dies on its
        first attempt right after writing its docs_kg, triples and edges
        files: the retried task overwrites them, docs_kg holds each url
        once, and all five outputs equal the undisturbed twin's."""
        import pandas as pd

        import ctinexus_ray.pipelines.kg as kg
        from ctinexus_ray.sources.documents import read_cc

        flag = str(tmp_path / "derive_poison")
        poison_once, real = _make_poison(), kg.derive_batch

        def dies_after_writing(*args):
            partials = real(*args)
            poison_once(flag)
            return partials

        clean = kg.run_kg_to_parquet(
            read_cc(corpus_files), str(tmp_path / "clean"), config
        )
        monkeypatch.setattr(kg, "derive_batch", dies_after_writing)
        poisoned = kg.run_kg_to_parquet(
            read_cc(corpus_files), str(tmp_path / "poisoned"), config
        )
        assert os.path.exists(flag), "poison never fired"
        urls = pq.read_table(poisoned["docs_kg"]).column("url").to_pylist()
        assert len(urls) == len(set(urls)) == 40

        def frame(path):
            df = pq.read_table(path).to_pandas()
            df = df[sorted(df.columns)].astype(str)
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        assert sorted(poisoned) == sorted(clean)
        for name in clean:
            pd.testing.assert_frame_equal(
                frame(poisoned[name]), frame(clean[name])
            )

    def test_index_build_task_death_keeps_manifest_atomic(
        self, tmp_path, ray_session
    ):
        """Worker death during the text-index build: the build's
        manifest commits once, stats are exact, and pruned search equals
        the full-scan twin over the corpus."""
        from ctinexus_ray.ops.textindex import (
            text_index_build,
            text_index_search,
        )
        from ctinexus_ray.ops.textstats import bm25_topk_docs
        from ctinexus_ray.state.tableformat import latest_version

        flag = str(tmp_path / "idx_poison")
        poison_once = _make_poison()
        texts = [f"hash join doc {i} vector index" for i in range(50)]
        docs = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        )

        def stage(batch):
            poison_once(flag)
            return batch

        idx = str(tmp_path / "tindex")
        text_index_build(
            docs.map_batches(stage, batch_format="pyarrow"), idx,
            num_buckets=8,
        )
        assert os.path.exists(flag), "poison never fired"
        assert latest_version(idx) == 1  # exactly one commit
        got = text_index_search(idx, ["hash", "vector"], k=10).to_pydict()
        want = bm25_topk_docs(docs, ["hash", "vector"], k=10).to_pydict()
        assert got == want
