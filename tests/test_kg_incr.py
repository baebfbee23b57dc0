"""Incremental KG derived-layer maintenance (pipelines/kg_incr.py):
3-tick incremental == full recompute for nodes/triples/edges/metrics,
exactly-once fold replay, and heal-after-crash reconciliation."""

from __future__ import annotations

import pandas as pd
import pytest
import ray.data

from ctinexus_ray.pipelines.kg import canonicalize_nodes
from ctinexus_ray.pipelines.kg_incr import (
    fold_kg_derived,
    read_kg_metrics_view,
    read_kg_nodes_view,
    run_kg_incremental,
)
from ctinexus_ray.sources.synth import write_cc_corpus
from ctinexus_ray.stages.triples import edges_batch, explode_triples_batch
from ctinexus_ray.state.tableformat import read_version


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cc_incr")
    return [str(p) for p in write_cc_corpus(out, 60, rows_per_file=20)]


def _sorted_df(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    for col in df.columns:  # list columns (ndarray values) can't sort
        if df[col].map(lambda v: hasattr(v, "__len__")
                       and not isinstance(v, str)).any():
            df[col] = df[col].map(
                lambda v: tuple(v) if v is not None else None
            )
    return (
        df[sorted(df.columns)]
        .sort_values(by=sorted(df.columns))
        .reset_index(drop=True)
    )


def _full_docs_kg(out_dir):
    return ray.data.read_parquet(
        f"{out_dir}/docs_kg",
        columns=["url", "kg_aligned_json", "kg_links_json"],
    )


def _explode(ds, config):
    return ds.map_batches(
        explode_triples_batch, batch_format="pyarrow",
        batch_size=config.cpu_batch_size,
    )


def _metrics_oracle(out_dir):
    """The one-row metrics table as pyarrow column sums over docs_kg."""
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = pa.concat_tables(
        ray.get(ray.data.read_parquet(f"{out_dir}/docs_kg").to_arrow_refs())
    )
    row = {"stage": "kg", "docs": docs.num_rows}
    for out, col in [("triples", "triples_count"), ("mentions", "mentions_num"),
                     ("entities", "entity_num"), ("subgraphs", "subgraph_num"),
                     ("dropped_triplets", "dropped_triplets"),
                     ("llm_input_tokens", "llm_input_tokens"),
                     ("llm_output_tokens", "llm_output_tokens"),
                     ("embed_tokens", "embed_tokens")]:
        row[out] = pc.sum(docs.column(col)).as_py()
    return ray.data.from_items([row])


class TestIncrementalEqualsFull:
    def test_three_ticks_match_full_recompute(
        self, corpus_files, tmp_path, ray_session, config
    ):
        out = str(tmp_path / "kg")
        for tick in (1, 2, 3):
            res = run_kg_incremental(corpus_files[:tick], out, config)
            assert res["processed"] == 1 and res["nodes_folded"] == 1
            assert res["triples_folded"] == 1 and res["edges_folded"] == 1
            assert res["metrics_folded"] == 1

            full = _full_docs_kg(out)
            got_nodes = _sorted_df(read_kg_nodes_view(f"{out}/nodes_view"))
            want_nodes = _sorted_df(canonicalize_nodes(full, config))
            pd.testing.assert_frame_equal(got_nodes, want_nodes)

            got_triples = _sorted_df(read_version(f"{out}/triples_view"))
            want_triples = _sorted_df(_explode(_full_docs_kg(out), config))
            pd.testing.assert_frame_equal(got_triples, want_triples)

            got_edges = _sorted_df(read_version(f"{out}/edges_view"))
            want_edges = _sorted_df(
                _explode(_full_docs_kg(out), config).map_batches(
                    edges_batch, batch_format="pyarrow"
                )
            )
            pd.testing.assert_frame_equal(got_edges, want_edges)

            got_metrics = _sorted_df(
                read_kg_metrics_view(f"{out}/metrics_view")
            )
            want_metrics = _sorted_df(_metrics_oracle(out))
            pd.testing.assert_frame_equal(got_metrics, want_metrics)

    def test_fold_replay_is_noop(
        self, corpus_files, tmp_path, ray_session, config
    ):
        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:2], out, config)
        before = _sorted_df(read_kg_nodes_view(f"{out}/nodes_view"))
        again = fold_kg_derived(out, config)
        assert again["nodes_folded"] == 0
        assert again["triples_folded"] == 0
        assert again["edges_folded"] == 0
        assert again["metrics_folded"] == 0
        after = _sorted_df(read_kg_nodes_view(f"{out}/nodes_view"))
        pd.testing.assert_frame_equal(before, after)

    def test_heals_shards_checkpointed_without_fold(
        self, corpus_files, tmp_path, ray_session, config
    ):
        """Crash window: shards committed to docs_kg but the fold never
        ran — the next incremental run folds the stranded shards."""
        from ctinexus_ray.pipelines.kg import checkpoint_docs_kg

        out = str(tmp_path / "kg")
        checkpoint_docs_kg(
            corpus_files[:2], f"{out}/docs_kg", config
        )  # the "crashed" run: no fold
        res = run_kg_incremental(corpus_files, out, config)
        assert res["skipped"] == 2 and res["processed"] == 1
        assert res["nodes_folded"] == 3  # both stranded + the new one

        got = _sorted_df(read_kg_nodes_view(f"{out}/nodes_view"))
        want = _sorted_df(canonicalize_nodes(_full_docs_kg(out), config))
        pd.testing.assert_frame_equal(got, want)


class TestShardMapRace:
    def test_overtaken_append_aborts_instead_of_dropping_ledger(
        self, tmp_path, ray_session
    ):
        """A shard-map append whose ledger was read from version N must
        not commit over a concurrent append's version N+1: the racer's
        shards would vanish from the ledger and fold twice on replay."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines.kg_incr import _append_shard_map, _bid
        from ctinexus_ray.state.tableformat import (
            ConcurrentWriteError,
            version_extra,
        )

        def shard(pid):
            path = str(tmp_path / f"part-{pid}.parquet")
            pq.write_table(
                pa.table(
                    {
                        "url": [f"http://{pid}"],
                        "kg_aligned_json": ["[]"],
                        "kg_links_json": ["[]"],
                    }
                ),
                path,
            )
            return (pid, path)

        table = str(tmp_path / "triples_view")
        _append_shard_map([shard("a")], table, lambda ds: ds)

        def racing_build(ds):
            # the racer commits while this append is still building
            _append_shard_map([shard("racer")], table, lambda d: d)
            return ds

        with pytest.raises(ConcurrentWriteError):
            _append_shard_map([shard("b")], table, racing_build)
        ledger = version_extra(table)["kg_applied"]
        assert ledger == [_bid("a"), _bid("racer")]
        assert _append_shard_map([shard("b")], table, lambda ds: ds) == 1
        assert read_version(table).count() == 3
