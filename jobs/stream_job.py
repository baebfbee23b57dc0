"""Micro-batch incremental ingestion: poll an input directory for new
corpus shards, drop rows already ingested, and append the rest to a
versioned table — one atomic commit per tick.

On a real cluster this is the continuous-crawl intake loop (the
north_rule ingestion shape): a crawler keeps dropping shard files into
a bucket; each tick ingests exactly the unseen shards:

    python jobs/stream_job.py --input s3://bucket/incoming/ \
        --table s3://bucket/corpus_table/ --watch --poll-sec 30

Exactly-once table contents: a tick's shard paths are recorded in its
table commit's ledger (``commit_version(batch_ids=...)``), atomically
with its rows, so a crash before the commit re-processes the shards on
the next tick and a crash after it re-processes nothing; the per-tick
anti-join against the table's existing doc_ids keeps a re-crawled
doc_id from entering twice. The versioned-table commit itself is atomic
(``state/tableformat.py``), so readers never see a partial tick and
every pre-tick version stays time-travel-readable. The views a tick
maintains reconcile by corpus version after the commit.

In this sandbox the same entrypoint runs standalone over local dirs;
``--max-ticks`` bounds the watch loop for tests. Input shards may be
.parquet, .jsonl(.gz), .csv or .avro (per-file auto-detection via the
shared ``read_corpus_auto``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

_SHARD_EXTS = (".parquet", ".jsonl", ".jsonl.gz", ".csv", ".avro")

# MinHash-LSH parameters shared by the index-BUILD and index-PROBE
# paths — they must stay identical or probes silently miss every
# stored bucket (the persisted index carries no parameter metadata)
_LSH_PARAMS = (64, 16, 3)  # (num_perm, bands, shingle_n)


def _applied(table_dir: str, old_ledger: str, key: str) -> set:
    """The batch ids in ``table_dir``'s commit ledger, plus those of the
    JSON ledger file ``old_ledger`` (under ``key``) that versions of
    this job before the commit ledger kept — so a running stream
    neither re-ingests nor rebuilds after an upgrade."""
    from ctinexus_ray.state.tableformat import applied_ids

    done = set(applied_ids(table_dir))
    try:
        with open(old_ledger) as fh:
            done.update(json.load(fh)[key])
    except FileNotFoundError:
        pass
    return done


def _list_shards(input_dir: str) -> list[str]:
    return sorted(
        os.path.join(input_dir, n)
        for n in os.listdir(input_dir)
        if n.endswith(_SHARD_EXTS) and not n.startswith(("_", "."))
    )


def _near_dup_filter(ds, table_dir: str, threshold: float, num_partitions: int):
    """Drop near-duplicates from a tick batch: within-tick MinHash-LSH
    dedup, then a bucket probe of the persisted LSH index verified by
    exact shingle Jaccard against the committed corpus. Returns
    (filtered dataset, n dropped)."""
    import pyarrow as pa

    from ctinexus_ray.ops.dedup import (
        _minhash_rows,
        minhash_dedup_keep,
        verify_jaccard_pairs,
    )
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.state.tableformat import latest_version, read_version

    def ren(d, old, new):
        def do(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [new if c == old else c for c in batch.schema.names]
            )

        return d.map_batches(do, batch_format="pyarrow")

    ds = ds.materialize()  # feeds the keep pass, the probe and the join
    n_before = ds.count()

    keep_ids = minhash_dedup_keep(
        ds, threshold=threshold, num_partitions=num_partitions,
        pair_mode="star",
    )
    # explicit projection + declared types: the lazy keep pipeline's
    # schema probe is unreliable mid-plan, and hash_join would reject a
    # phantom column overlap
    left_types = {
        f.name: f.type for f in ds.schema().base_schema
    }
    ds = hash_join(
        ds,
        keep_ids.select_columns(["doc_id"]),
        on=["doc_id"],
        how="left_semi",
        num_partitions=num_partitions,
        left_types=left_types,
        right_types={"doc_id": pa.int64()},
    ).materialize()

    lsh_dir = os.path.join(table_dir, "lsh")
    if latest_version(lsh_dir) is not None:
        new_bands = ds.select_columns(["doc_id", "text"]).map_batches(
            lambda b: _minhash_rows(b, *_LSH_PARAMS), batch_format="pyarrow"
        )
        band_types = {"band": pa.int32(), "bucket": pa.int64()}
        cand = hash_join(
            ren(new_bands, "doc_id", "b"),
            ren(read_version(lsh_dir), "doc_id", "a"),
            on=["band", "bucket"],
            num_partitions=num_partitions,
            left_types={"b": pa.int64(), **band_types},
            right_types={"a": pa.int64(), **band_types},
        )
        pairs = partitioned_agg(
            cand.select_columns(["a", "b"]),
            keys=["a", "b"],
            named_aggs={"_n": ("a", "size")},
            num_partitions=num_partitions,
        ).select_columns(["a", "b"])
        old_docs = hash_join(
            read_version(table_dir).select_columns(["doc_id", "text"]),
            ren(pairs.select_columns(["a"]), "a", "doc_id"),
            on=["doc_id"],
            how="left_semi",
            num_partitions=num_partitions,
            left_types={"doc_id": pa.int64(), "text": pa.string()},
            right_types={"doc_id": pa.int64()},
        )
        verified = verify_jaccard_pairs(
            pairs,
            old_docs.union(ds.select_columns(["doc_id", "text"])),
            threshold=threshold,
            num_partitions=num_partitions,
        )
        ds = hash_join(
            ds,
            ren(verified.select_columns(["b"]), "b", "doc_id"),
            on=["doc_id"],
            how="left_anti",
            num_partitions=num_partitions,
            left_types={f.name: f.type for f in ds.schema().base_schema},
            right_types={"doc_id": pa.int64()},
        ).materialize()
    n_after = ds.count()
    return ds, n_before - n_after


def _scan_unapplied_versions(
    table_dir: str, latest: int, applied: set
) -> tuple[list[tuple[str, str, list[str]]], str | None]:
    """Walk corpus versions 1..latest and classify every UNAPPLIED one
    for incremental folding. Returns ``(work, rebuild_reason)``:

    * ``work`` — ``[(batch_id, kind, new_files)]`` in version order;
      ``kind`` is ``"append"`` (fold ``new_files``, the version's file
      diff) or ``"noop"`` (a row-preserving ``compact`` rewrite, or an
      empty diff — mark applied, fold nothing: diffing a compaction's
      file set would re-index rewritten docs and double-count).
    * ``rebuild_reason`` — non-None when incremental folding is
      IMPOSSIBLE and the caller must rebuild from the latest version:
      a manifest needed for the diff was vacuumed before the fold
      caught up, or a version is a genuine logical ``overwrite``
      (rows replaced — the file diff under-describes the delta).
    """
    from ctinexus_ray.state.tableformat import version_files, version_mode

    work: list[tuple[str, str, list[str]]] = []
    for v in range(1, latest + 1):
        bid = f"corpus-v{v}"
        if bid in applied:
            continue
        try:
            mode = version_mode(table_dir, v)
            if mode == "compact":
                # classified before any diff: a compaction needs no
                # parent manifest, so a vacuumed parent is no reason
                # to rebuild
                work.append((bid, "noop", []))
                continue
            cur = set(version_files(table_dir, v))
            prev = set(version_files(table_dir, v - 1)) if v > 1 else set()
        except FileNotFoundError:
            return [], (
                f"manifest for unapplied corpus version {v} (or its "
                "parent) was vacuumed before the fold caught up"
            )
        if mode == "overwrite" and v > 1:
            # v1 overwrite == first commit from nothing: plain append
            return [], (
                f"corpus version {v} is a logical overwrite — its "
                "rewritten files contain already-folded rows"
            )
        new_files = sorted(cur - prev)
        work.append((bid, "append" if new_files else "noop", new_files))
    return work, None


def _unapplied_ids(latest: int, applied: set) -> list[str]:
    """The batch ids of corpus versions 1..latest a view or index has
    not applied — what a rebuild from the latest version adds to its
    ledger, so the ledger then lists every version."""
    return [b for v in range(1, latest + 1)
            if (b := f"corpus-v{v}") not in applied]


def _maintain_wordcount_view(
    table_dir: str, view_dir: str, num_partitions: int
) -> dict:
    """Fold every committed-but-unfolded corpus version into the
    delta-maintained word-count view (state/ivm.py). Reconciliation by
    VERSION — batch id = "corpus-v{n}", delta built from exactly that
    version's incremental file set — so a crash anywhere between the
    corpus commit and the view fold heals on the next tick, and a
    replayed fold is recognized by the manifest ledger (exactly-once).
    Runs BEFORE vacuum in the tick loop, so needed manifests are
    normally still present; when history was vacuumed under the fold
    (--text-index/--wordcount-view enabled after --vacuum-keep ticks)
    or a version is a logical overwrite, the fold falls back to a FULL
    REBUILD from the latest version instead of dying every tick.
    Row-preserving compactions are recognized by their ``compact``
    commit mode and marked applied without re-counting rewritten
    files."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ctinexus_ray.ops.dedup import hash64_strings
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import word_explode_batch
    from ctinexus_ray.state.ivm import apply_delta
    from ctinexus_ray.state.tableformat import (
        applied_ids,
        commit_version,
        latest_version,
        read_version,
        write_dataset_version,
    )

    latest = latest_version(table_dir)
    if latest is None:
        return {"wordcount_folded": 0}
    applied = set(applied_ids(view_dir))

    def with_wkey(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        keys = hash64_strings(words).astype(np.int64)
        return batch.append_column("wkey", pa.array(keys, type=pa.int64()))

    def wordcount_of(docs: ray.data.Dataset) -> ray.data.Dataset:
        return partitioned_agg(
            docs.map_batches(word_explode_batch, batch_format="pyarrow"),
            keys=["word"],
            named_aggs={"n": ("n", "sum")},
            num_partitions=num_partitions,
        ).map_batches(with_wkey, batch_format="pyarrow")

    work, rebuild_reason = _scan_unapplied_versions(
        table_dir, latest, applied
    )
    if rebuild_reason is not None:
        import logging

        logging.getLogger(__name__).warning(
            "wordcount view %s: full rebuild from corpus v%d (%s)",
            view_dir, latest, rebuild_reason,
        )
        write_dataset_version(
            view_dir,
            wordcount_of(read_version(table_dir, columns=["text"])),
            mode="overwrite",
            batch_ids=_unapplied_ids(latest, applied),
        )
        return {"wordcount_folded": 1, "rebuilt": rebuild_reason}

    folded = 0
    for bid, kind, new_files in work:
        if kind == "noop":
            commit_version(view_dir, [], "append", batch_ids=[bid])
            continue
        out = apply_delta(
            view_dir,
            wordcount_of(
                ray.data.read_parquet(new_files, columns=["text"])
            ),
            key_col="wkey",
            value_cols={"n": "sum"},
            batch_id=bid,
        )
        if out["applied"]:
            folded += 1
    return {"wordcount_folded": folded}


def _maintain_text_index(
    table_dir: str, index_dir: str, num_partitions: int
) -> dict:
    """Fold every committed-but-unfolded corpus version into the
    persisted inverted text index (ops/textindex.py) — the searchable
    sibling of the word-count IVM view. Reconciliation by VERSION
    (batch id = "corpus-v{n}", postings built from exactly that
    version's incremental file set) with the applied-batch ledger
    living IN the index manifest — exactly-once across crash/replay.
    Runs BEFORE vacuum so needed corpus manifests normally still
    exist; a vacuumed-under-us history or a logical overwrite version
    triggers a FULL REBUILD from the latest corpus version (one atomic
    build commit whose ledger marks every version applied), and
    row-preserving ``compact`` versions are marked applied without
    re-indexing their rewritten files."""
    import ray.data

    from ctinexus_ray.ops.textindex import text_index_append, text_index_build
    from ctinexus_ray.state.tableformat import (
        applied_ids,
        commit_version,
        latest_version,
        read_version,
        version_extra,
    )

    latest = latest_version(table_dir)
    if latest is None:
        return {"text_index_folded": 0}
    applied = set(applied_ids(index_dir))
    work, rebuild_reason = _scan_unapplied_versions(
        table_dir, latest, applied
    )
    if rebuild_reason is not None:
        import logging

        logging.getLogger(__name__).warning(
            "text index %s: full rebuild from corpus v%d (%s)",
            index_dir, latest, rebuild_reason,
        )
        docs = read_version(table_dir, columns=["doc_id", "text"])
        # a rebuild must preserve the prior index's shape — silently
        # dropping positions would make later phrase queries refuse,
        # and changing num_buckets would re-bucket for no reason
        prior = version_extra(index_dir).get("text_index", {})
        text_index_build(
            docs, index_dir,
            num_buckets=int(prior.get("num_buckets", 64)),
            batch_id=_unapplied_ids(latest, applied),
            positions=bool(prior.get("positions", False)),
        )
        return {"text_index_folded": 1, "rebuilt": rebuild_reason}

    folded = 0
    for bid, kind, new_files in work:
        if kind == "noop":
            if latest_version(index_dir) is not None:
                commit_version(index_dir, [], "append", batch_ids=[bid])
            continue
        docs = ray.data.read_parquet(new_files, columns=["doc_id", "text"])
        if latest_version(index_dir) is None:
            text_index_build(docs, index_dir, batch_id=bid)
        else:
            text_index_append(docs, index_dir, batch_id=bid)
        folded += 1
    return {"text_index_folded": folded}


def _drop_stale_kg_state(kg_dir: str, keep_pids: set) -> None:
    """Before a KG-view rebuild: delete the four derived views, and drop
    every docs_kg shard whose pid is not in ``keep_pids`` with ONE
    overwrite commit keeping the others' files and lineage by reference.
    The ledger keeps the dropped pids: a pid hashes an immutable corpus
    data-file path, which no later corpus version reuses."""
    import shutil

    from ctinexus_ray.state.checkpoint import (
        adopt_sidecar_layout,
        committed_shards,
        read_lineage,
    )
    from ctinexus_ray.state.tableformat import commit_version, latest_version

    for view in ("nodes_view", "triples_view", "edges_view", "metrics_view"):
        shutil.rmtree(os.path.join(kg_dir, view), ignore_errors=True)
    docs_kg = os.path.join(kg_dir, "docs_kg")
    adopt_sidecar_layout(docs_kg)
    parent = latest_version(docs_kg)
    kept = [f for pid, f in committed_shards(docs_kg) if pid in keep_pids]
    lineage = [r for r in read_lineage(docs_kg) if r["partition_id"] in keep_pids]
    commit_version(docs_kg, kept, "overwrite", extra={"lineage": lineage},
                   expected_parent=parent)


def _maintain_kg_view(table_dir: str, kg_dir: str) -> dict:
    """Fold every committed-but-unfolded corpus version through the KG
    pipeline into the INCREMENTAL derived layer (pipelines/kg_incr.py)
    — the it's-all-connected surface of SURVEY §2.4's north_rule
    addition: streaming ingestion keeps canonical entity nodes / triples
    / edges / metrics current by folding only each version's NEW file
    set through the per-shard checkpoint + monoid merges, never
    re-shuffling the corpus.

    Reconciliation: the metrics view's commit ledger also records the
    applied corpus versions (ledger-only commits); it is only an
    optimization — every underlying step is idempotent (the docs_kg
    ledger skips checkpointed shards, the fold tables' own ledgers skip
    folded shards), so a crash anywhere replays into no-ops.
    Compaction versions mark applied without work (their rewritten
    files would otherwise look like new shards and double-fold); a
    vacuumed manifest or logical overwrite rebuilds the four views from
    the latest version, keeping every docs_kg shard whose input file
    that version still holds (corpus data files are immutable and a
    shard's pid hashes its input path, so those LLM outputs are still
    exact)."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import checkpoint_docs_kg
    from ctinexus_ray.pipelines.kg_incr import fold_kg_derived
    from ctinexus_ray.state.checkpoint import partition_id
    from ctinexus_ray.state.tableformat import (
        commit_version,
        latest_version,
        version_files,
    )

    latest = latest_version(table_dir)
    if latest is None:
        return {"kg_folded": 0}
    cursor = os.path.join(kg_dir, "metrics_view")
    applied = _applied(cursor, os.path.join(kg_dir, "_KG_VIEW_LEDGER.json"),
                       "applied")

    import ray.data

    from ctinexus_ray.sources.documents import _adapt_batch, conform_schema

    def reader(path):
        # stream corpora are (doc_id, text); CC-shaped shards pass
        # through conform_schema — same dual-shape rule as kg_job
        ds = ray.data.read_parquet(path)
        names = ds.schema().names
        if "url" in names or "html" in names:
            return conform_schema(ds)
        return ds.map_batches(_adapt_batch, batch_format="pyarrow")

    config = PipelineConfig()
    docs_kg = os.path.join(kg_dir, "docs_kg")
    work, rebuild_reason = _scan_unapplied_versions(
        table_dir, latest, applied
    )
    if rebuild_reason is not None:
        import logging

        logging.getLogger(__name__).warning(
            "kg view %s: full rebuild from corpus v%d (%s)",
            kg_dir, latest, rebuild_reason,
        )
        latest_files = version_files(table_dir, latest)
        _drop_stale_kg_state(
            kg_dir, {partition_id(f) for f in latest_files}
        )
        checkpoint_docs_kg(latest_files, docs_kg, config, reader=reader)
        fold_kg_derived(kg_dir, config)
        commit_version(cursor, [], "append",
                       batch_ids=[f"corpus-v{v}" for v in range(1, latest + 1)])
        return {"kg_folded": 1, "kg_rebuilt": rebuild_reason}

    # checkpoint EVERY backlogged version's new shards first, then fold
    # ONCE — fold_kg_derived already folds all committed-but-unfolded
    # shards via its per-shard ledgers, so per-version folding would
    # pay N x (merge + fixed execution latency) for an N-version
    # backlog and commit N view versions for the same end state
    folded = 0
    for bid, kind, new_files in work:
        if kind != "noop":
            checkpoint_docs_kg(new_files, docs_kg, config, reader=reader)
            folded += 1
    if folded:
        fold_kg_derived(kg_dir, config)
    if work:
        commit_version(cursor, [], "append", batch_ids=[b for b, _, _ in work])
    return {"kg_folded": folded}


def run_tick(
    input_dir: str,
    table_dir: str,
    num_partitions: int = 16,
    near_dup_threshold: float | None = None,
    wordcount_view: str | None = None,
    text_index: str | None = None,
    kg_view: str | None = None,
) -> dict:
    """Ingest every shard not yet in the ledger; returns tick stats.

    ``near_dup_threshold`` switches on INCREMENTAL NEAR-DUP dedup (the
    continuous-crawl shape): tick survivors are MinHash-LSH deduped
    within the tick, then their band buckets PROBE a persisted LSH
    index table (``<table>/lsh``, itself a versioned table appended
    per tick) — bucket-colliding (new, old) pairs are verified by
    exact shingle Jaccard against the committed corpus, and verified
    re-crawls never enter the table. Crash-replay safe: a replayed
    shard's rows are removed by the exact anti-join before any band
    rows are written, so the index never double-counts.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.sources.documents import ensure_doc_id
    from ctinexus_ray.sources.flatfiles import read_corpus_auto
    from ctinexus_ray.state.tableformat import (
        latest_version,
        read_version,
        version_files,
        write_dataset_version,
    )

    done = _applied(table_dir, os.path.join(table_dir, "_ingest_ledger.json"),
                    "shards")
    new = [s for s in _list_shards(input_dir) if s not in done]
    if not new:
        # still reconcile the view: a crash between a previous tick's
        # commit and its view fold must heal even if no shards arrive
        view_stats = (
            _maintain_wordcount_view(table_dir, wordcount_view,
                                     num_partitions)
            if wordcount_view else {}
        )
        if text_index:
            view_stats.update(
                _maintain_text_index(table_dir, text_index, num_partitions)
            )
        if kg_view:
            view_stats.update(
                _maintain_kg_view(table_dir, kg_view)
            )
        return {"new_shards": 0, "rows_in": 0, "rows_appended": 0,
                "version": latest_version(table_dir), **view_stats}

    ds = ensure_doc_id(read_corpus_auto(new[0]))
    for s in new[1:]:
        ds = ds.union(ensure_doc_id(read_corpus_auto(s)))
    rows_in = ds.count()

    # within-tick exact dedup: ONE WHOLE ROW per doc_id (the
    # lexicographically smallest over all columns, NULLs last) — a
    # per-column min would stitch a chimera row out of two conflicting
    # re-crawls of the same id; picking a complete row keeps whatever
    # was actually crawled, deterministically
    from ctinexus_ray.ops.groupagg import hash_reduce

    all_cols = list(ds.schema().names)

    def first_row(g):
        g = g.sort_values(all_cols, kind="mergesort", na_position="last")
        return g.groupby("doc_id", sort=False).head(1)[all_cols]

    ds = hash_reduce(
        ds, ["doc_id"], first_row, num_partitions=num_partitions
    )

    def as_arrow(batch):
        return batch  # pandas-block -> arrow-block normalization only

    # the pandas reduce leaves object-dtype block schemas that
    # hash_join cannot map; one pass-through pyarrow map_batches
    # restores concrete arrow types
    ds = ds.map_batches(as_arrow, batch_format="pyarrow")

    # cross-tick dedup: anti-join against everything already committed
    # (an empty tick commits a version with no file: nothing to join)
    committed = latest_version(table_dir)
    if committed is not None and version_files(table_dir, committed):
        existing = read_version(table_dir).select_columns(["doc_id"])
        ds = hash_join(
            ds, existing, on=["doc_id"], how="left_anti",
            num_partitions=num_partitions,
        )

    n_near_dropped = 0
    if near_dup_threshold is not None:
        ds, n_near_dropped = _near_dup_filter(
            ds, table_dir, near_dup_threshold, num_partitions
        )

    # the shard paths ride in the commit's ledger: ingestion is
    # exactly-once together with the data (a racing run that committed
    # the same shards first leaves this tick's files uncommitted)
    version, files = write_dataset_version(table_dir, ds, prefix="tick",
                                           batch_ids=new)
    if version is None:
        files = []
    rows_appended = sum(pq.read_metadata(f).num_rows for f in files)
    if near_dup_threshold is not None and rows_appended:
        # index the COMMITTED survivors' band buckets (data first, index
        # second: a crash between loses only index coverage for this
        # tick — recoverable by reindexing — never table correctness;
        # replays contribute zero survivors, so the index never
        # double-counts)
        from ctinexus_ray.ops.dedup import _minhash_rows

        write_dataset_version(
            os.path.join(table_dir, "lsh"),
            ray.data.read_parquet(files).select_columns(
                ["doc_id", "text"]
            ).map_batches(
                lambda b: _minhash_rows(b, *_LSH_PARAMS),
                batch_format="pyarrow",
            ),
            prefix="tick",
        )
    view_stats = {}
    if wordcount_view:
        view_stats = _maintain_wordcount_view(
            table_dir, wordcount_view, num_partitions
        )
    if text_index:
        view_stats.update(
            _maintain_text_index(table_dir, text_index, num_partitions)
        )
    if kg_view:
        view_stats.update(
            _maintain_kg_view(table_dir, kg_view)
        )
    return {
        "new_shards": len(new),
        "rows_in": rows_in,
        "rows_appended": rows_appended,
        "skipped_existing": rows_in - rows_appended,
        "near_dup_dropped": n_near_dropped,
        "version": version,
        **view_stats,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True, help="incoming shard dir")
    parser.add_argument("--table", required=True, help="versioned table dir")
    parser.add_argument("--num-partitions", type=int, default=16)
    parser.add_argument("--watch", action="store_true",
                        help="poll until --max-ticks instead of one pass")
    parser.add_argument("--poll-sec", type=float, default=5.0)
    parser.add_argument("--max-ticks", type=int, default=0,
                        help="with --watch: stop after N ticks (0 = forever)")
    parser.add_argument("--near-dup-threshold", type=float, default=None,
                        help="enable incremental MinHash-LSH near-dup "
                             "dedup at this Jaccard threshold")
    parser.add_argument("--wordcount-view", default=None,
                        help="maintain a delta-folded word-count view "
                             "(versioned table) at this dir per tick")
    parser.add_argument("--kg-view", default=None,
                        help="maintain the incremental KG derived layer "
                             "(canonical nodes/triples/edges/metrics "
                             "views, pipelines/kg_incr.py) under this "
                             "dir, folding only new corpus versions")
    parser.add_argument("--text-index", default=None,
                        help="maintain the persisted inverted BM25 "
                             "index (ops/textindex.py) at this dir per "
                             "tick, exactly-once across replays")
    parser.add_argument("--vacuum-grace-sec", type=float, default=600.0,
                        help="orphan grace period for --vacuum-keep "
                             "(unreferenced files younger than this "
                             "survive — they may belong to an in-flight "
                             "commit)")
    parser.add_argument("--vacuum-keep", type=int, default=0,
                        help="after each committing tick, expire all but "
                             "the newest N table versions (0 = keep all)")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    os.makedirs(args.table, exist_ok=True)

    tick = 0
    while True:
        stats = run_tick(
            args.input, args.table, args.num_partitions,
            near_dup_threshold=args.near_dup_threshold,
            wordcount_view=args.wordcount_view,
            text_index=args.text_index,
            kg_view=args.kg_view,
        )
        stats["tick"] = tick
        if args.vacuum_keep and stats["new_shards"]:
            from ctinexus_ray.state.tableformat import vacuum

            stats["vacuum"] = vacuum(args.table, args.vacuum_keep,
                                     older_than_sec=args.vacuum_grace_sec)
        print(json.dumps(stats))
        tick += 1
        if not args.watch or (args.max_ticks and tick >= args.max_ticks):
            break
        time.sleep(args.poll_sec)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
