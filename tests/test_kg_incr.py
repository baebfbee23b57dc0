"""Incremental KG derived-layer maintenance (pipelines/kg_incr.py):
incremental == full recompute for nodes/triples/edges/metrics at every
tick (through compactions), exactly-once fold replay, heal-after-crash
reconciliation, and one Ray Data execution per non-compacting fold."""

from __future__ import annotations

import pandas as pd
import pytest
import ray.data

from ctinexus_ray.pipelines.kg import canonicalize_nodes, metrics_total
from ctinexus_ray.pipelines.kg_incr import (
    fold_kg_derived,
    read_kg_metrics_view,
    read_kg_nodes_view,
    run_kg_incremental,
)
from ctinexus_ray.sources.synth import write_cc_corpus
from ctinexus_ray.stages.triples import edges_batch, explode_triples_batch
from ctinexus_ray.state.tableformat import (
    applied_ids,
    latest_version,
    read_version,
    version_files,
    version_mode,
)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cc_incr")
    return [str(p) for p in write_cc_corpus(out, 60, rows_per_file=20)]


@pytest.fixture(scope="module")
def six_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cc_incr6")
    return [str(p) for p in write_cc_corpus(out, 60, rows_per_file=10)]


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
    return read_version(
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
        ray.get(read_version(f"{out_dir}/docs_kg").to_arrow_refs())
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


def _assert_views_match_full(out, config):
    """All four views frame-equal to a full recompute over docs_kg, and
    no shard id twice in any view's ledger."""
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

    got_metrics = _sorted_df(read_kg_metrics_view(f"{out}/metrics_view"))
    want_metrics = _sorted_df(_metrics_oracle(out))
    pd.testing.assert_frame_equal(got_metrics, want_metrics)

    for view in ("nodes_view", "triples_view", "edges_view", "metrics_view"):
        ledger = applied_ids(f"{out}/{view}")
        assert ledger and len(ledger) == len(set(ledger)), view


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
            assert res["nodes_compacted"] in (0, 1)
            _assert_views_match_full(out, config)

    def test_six_ticks_through_compaction_match_full_recompute(
        self, six_files, tmp_path, ray_session, config
    ):
        """Six one-shard ticks: the nodes view compacts at least once,
        and after every tick all four views equal a full recompute."""
        out = str(tmp_path / "kg")
        compacted = 0
        for tick in range(1, 7):
            res = run_kg_incremental(six_files[:tick], out, config)
            assert res["nodes_folded"] == 1
            compacted += res["nodes_compacted"]
            _assert_views_match_full(out, config)
        modes = [version_mode(f"{out}/nodes_view", v)
                 for v in range(1, latest_version(f"{out}/nodes_view") + 1)]
        assert modes.count("compact") == compacted >= 1
        assert modes.count("append") == 6
        # the metrics view sums its per-fold rows into one file
        metrics = f"{out}/metrics_view"
        assert len(version_files(metrics, latest_version(metrics))) == 1
        docs_kg = f"{out}/docs_kg"
        pd.testing.assert_frame_equal(
            _sorted_df(read_kg_metrics_view(metrics)),
            _sorted_df(ray.data.from_arrow(metrics_total(
                version_files(docs_kg, latest_version(docs_kg))))),
            check_dtype=False,
        )

    def test_view_in_merged_layout_reads_identically(
        self, corpus_files, tmp_path, ray_session, config
    ):
        """A nodes view written as one merged row per key (the layout
        of folds that merged into the view) is a valid base: it reads
        identically, and later appends fold onto it."""
        from ctinexus_ray.pipelines.kg import canonicalize_node_partials
        from ctinexus_ray.state.tableformat import write_dataset_version

        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:2], out, config)
        view = f"{out}/nodes_view"
        before = _sorted_df(read_kg_nodes_view(view))
        merged = canonicalize_node_partials(_full_docs_kg(out), config)
        write_dataset_version(view, merged, "overwrite")
        assert version_mode(view, latest_version(view)) == "overwrite"
        pd.testing.assert_frame_equal(_sorted_df(read_kg_nodes_view(view)), before)
        run_kg_incremental(corpus_files, out, config)
        _assert_views_match_full(out, config)

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


class TestMetricsCompaction:
    def test_compaction_racing_an_append_loses_no_row(
        self, tmp_path, ray_session, monkeypatch
    ):
        """An append that lands between the compaction's read and its
        commit wins: the compaction gives way, no row is lost, and the
        next compaction folds the racer in."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines import kg_incr
        from ctinexus_ray.pipelines.kg import METRIC_COLUMNS, METRICS_SCHEMA

        view = str(tmp_path / "metrics_view")
        os.makedirs(view)

        def append(n, bid):
            path = os.path.join(view, f"{bid}.parquet")
            pq.write_table(pa.Table.from_pylist(
                [{"stage": "kg", **dict.fromkeys(METRIC_COLUMNS, n)}],
                schema=METRICS_SCHEMA), path)
            kg_incr.commit_version(view, [path], "append", batch_ids=[bid])

        append(1, "a")
        append(2, "b")
        real, raced = kg_incr.commit_version, []

        def racing_commit(table_dir, files, mode="append", **kw):
            if mode == "compact" and not raced:
                raced.append(1)
                append(4, "racer")
            return real(table_dir, files, mode, **kw)

        monkeypatch.setattr(kg_incr, "commit_version", racing_commit)
        kg_incr._compact_metrics(view)
        assert raced and version_mode(view, latest_version(view)) == "append"
        assert len(version_files(view, latest_version(view))) == 3
        assert len(list(tmp_path.glob("metrics_view/*.parquet"))) == 3

        def total():
            (row,) = read_kg_metrics_view(view).take_all()
            return [row[c] for c in METRIC_COLUMNS]

        assert total() == [7] * len(METRIC_COLUMNS)
        kg_incr._compact_metrics(view)
        assert len(version_files(view, latest_version(view))) == 1
        assert total() == [7] * len(METRIC_COLUMNS)
        assert sorted(applied_ids(view)) == ["a", "b", "racer"]


class TestShardMapRace:
    def test_racing_shard_appends_keep_both_ledger_entries(
        self, tmp_path, monkeypatch
    ):
        """A shard append that read version N as its parent must not
        drop a concurrent append's version N+1: the racer's shards would
        vanish from the ledger and fold twice on replay. The loser
        retries on N+1 and keeps both; a replay commits nothing."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines.kg_incr import _bid
        from ctinexus_ray.state import tableformat

        table = str(tmp_path / "triples_view")

        def append(pid):
            path = str(tmp_path / f"triples-{pid}.parquet")
            pq.write_table(pa.table({"url": [f"http://{pid}"]}), path)
            return tableformat.commit_version(
                table, [path], "append", batch_ids=[_bid(pid)]
            )

        append("a")
        real_latest = tableformat.latest_version

        def latest_then_race(table_dir):
            head = real_latest(table_dir)  # "b" reads its parent ...
            monkeypatch.setattr(tableformat, "latest_version", real_latest)
            append("racer")  # ... the racer commits while "b" commits
            return head

        monkeypatch.setattr(tableformat, "latest_version", latest_then_race)
        assert append("b") == 3
        assert applied_ids(table) == [_bid("a"), _bid("racer"), _bid("b")]
        assert pq.read_table(version_files(table, 3)).num_rows == 3
        assert append("b") is None  # a replay folds once


class TestCrashBetweenCommits:
    """A fold that dies after some tables committed: the next fold
    folds the stranded shards into exactly the tables that lack them."""

    def _crash_once(self, monkeypatch, name, when):
        import ctinexus_ray.pipelines.kg_incr as kg_incr

        real, fired = getattr(kg_incr, name), []

        def crashing(table_dir, *args, **kwargs):
            if when(table_dir) and not fired:
                fired.append(table_dir)
                raise RuntimeError(f"injected crash: {name} {table_dir}")
            return real(table_dir, *args, **kwargs)

        monkeypatch.setattr(kg_incr, name, crashing)
        return fired

    def test_triples_commit_crash_after_nodes_committed(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:1], out, config)
        fired = self._crash_once(
            monkeypatch, "commit_version",
            lambda d: d.endswith("triples_view"),
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            run_kg_incremental(corpus_files[:2], out, config)
        assert fired
        res = fold_kg_derived(out, config)
        assert res["nodes_folded"] == 0 and res["triples_folded"] == 1
        assert res["edges_folded"] == 1 and res["metrics_folded"] == 1
        _assert_views_match_full(out, config)

    def test_nodes_apply_delta_crash(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:1], out, config)
        fired = self._crash_once(monkeypatch, "apply_delta", lambda d: True)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_kg_incremental(corpus_files[:2], out, config)
        assert fired
        res = fold_kg_derived(out, config)
        assert res["nodes_folded"] == res["triples_folded"] == 1
        assert res["edges_folded"] == res["metrics_folded"] == 1
        _assert_views_match_full(out, config)


class TestCrashBeforeNodesCommit:
    def test_replay_after_uncommitted_nodes_delta(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        """A crash between the nodes delta's write and its commit: the
        replay gives the same views, and vacuum removes the orphaned
        data dir."""
        import os

        from ctinexus_ray.state import tableformat

        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:1], out, config)
        real = tableformat.commit_version

        def crash(table_dir, *args, **kwargs):
            if table_dir.endswith("nodes_view"):
                raise RuntimeError("injected crash before the nodes commit")
            return real(table_dir, *args, **kwargs)

        monkeypatch.setattr(tableformat, "commit_version", crash)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_kg_incremental(corpus_files[:2], out, config)
        monkeypatch.setattr(tableformat, "commit_version", real)
        view = f"{out}/nodes_view"
        committed = set(version_files(view, latest_version(view)))
        orphans = {os.path.join(d, n) for d, _, names in os.walk(view)
                   for n in names if n.endswith(".parquet")} - committed
        assert orphans

        res = fold_kg_derived(out, config)
        assert res["nodes_folded"] == res["triples_folded"] == 1
        _assert_views_match_full(out, config)
        tableformat.vacuum(view, keep_versions=1, older_than_sec=0)
        assert not any(os.path.exists(f) for f in orphans)
        _assert_views_match_full(out, config)


class TestFoldExecutions:
    def test_fold_runs_one_execution_unless_it_compacts(
        self, corpus_files, tmp_path, ray_session, config, monkeypatch
    ):
        """One pass per tick: the derive map executes inside the nodes
        append, so a fold is one Ray Data execution, plus one when it
        compacts the nodes view. Of two one-shard ticks after the first,
        at least one does not compact (a compaction's base holds every
        shard before it)."""
        import os

        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from ctinexus_ray.pipelines.kg import checkpoint_docs_kg

        out = str(tmp_path / "kg")
        run_kg_incremental(corpus_files[:1], out, config)
        calls, real = [], StreamingExecutor.execute

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        def parquet_files():
            return {os.path.join(d, n) for v in ("nodes", "triples", "edges", "metrics")
                    for d, _, names in os.walk(f"{out}/{v}_view")
                    for n in names if n.endswith(".parquet")}

        plain = 0
        for tick in (2, 3):
            checkpoint_docs_kg(corpus_files[:tick], f"{out}/docs_kg", config)
            before = parquet_files()
            calls.clear()
            monkeypatch.setattr(StreamingExecutor, "execute", counted)
            res = fold_kg_derived(out, config)
            monkeypatch.setattr(StreamingExecutor, "execute", real)
            assert res["nodes_folded"] == res["triples_folded"] == 1
            assert len(calls) == 1 + res["nodes_compacted"] <= 2
            if not res["nodes_compacted"]:
                # the nodes view gains exactly the appended delta's files
                plain += 1
                view = f"{out}/nodes_view"
                v = latest_version(view)
                delta = set(version_files(view, v)) - set(version_files(view, v - 1))
                new = parquet_files() - before
                assert {f for f in new if "/nodes_view/" in f} == delta
            _assert_views_match_full(out, config)
        assert plain >= 1
