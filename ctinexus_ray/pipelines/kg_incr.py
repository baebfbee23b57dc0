"""Incremental maintenance of the KG derived layer (nodes / triples /
edges / metrics) — IVM for the cross-document canonicalization.

Re-deriving every output from the FULL ``docs_kg`` checkpoint on each
run (``kg._write_derived_outputs``: one derive execution plus one
counter scan) is idempotent, but the
canonicalization re-shuffle is O(corpus) per ingestion tick — the wrong
shape at 10^12 docs where a tick adds a few shards to thousands. The
entity aggregates are exactly the monoid forms ``state/ivm.py`` folds
exactly-once:

  * ``doc_count`` / ``mention_count`` — Sum
  * ``entity_text`` — Max over per-doc canonical variants
  * ``class_rank`` — Max over "<zero-padded in-doc count>|<class>"
    (decoded to ``entity_class`` only at read time, so the stored view
    stays foldable)

and triples / edges are pure per-row maps of a shard (append-only),
metrics a Sum fold. This module therefore maintains all four as
PERSISTED VERSIONED TABLES (``state/tableformat.py``), folding only the
docs_kg shards committed since the last fold:

    out/
      docs_kg/        per-shard checkpoint (run_resumable, unchanged)
      nodes_view/     IVM view: delta = canonicalize_node_partials(new
                      shards) merged by Sum/Max (one merge_upsert per
                      tick — copy-on-write, touched key ranges only)
      triples_view/   append table: explode of new shards
      edges_view/     append table: edges map of new shards
      metrics_view/   IVM view: Sum fold of new shards' stage metrics

Exactly-once: each table's manifest carries its own applied-shard
ledger (``ivm_applied`` for the IVM views, ``kg_applied`` for the
append tables), atomic with the data commit — a crash anywhere replays
into a no-op or a clean re-fold, never a double count. Incremental ==
full recompute by the monoid-fold argument (pinned by
tests/test_kg_incr.py on a 3-tick corpus against the ``kg.py``
full-derivation oracle).

Reference anchor: cross-doc canonicalization is this engine's
north_rule addition (SURVEY §2.4); the reference's per-document outputs
(/root/reference/ctinexus/graph_constructor.py) have no cross-doc
state to maintain.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.pipelines.kg import (
    METRIC_COLUMNS,
    canonicalize_node_partials,
    metrics_total,
    strip_class_rank_batch,
)
from ctinexus_ray.stages.triples import edges_batch, explode_triples_batch
from ctinexus_ray.state.checkpoint import completed_partitions
from ctinexus_ray.state.ivm import applied_batches, apply_delta
from ctinexus_ray.state.tableformat import (
    read_version,
    version_extra,
)

_LEDGER = "kg_applied"
_NODE_VALUE_COLS = {
    "entity_text": "max",
    "class_rank": "max",
    "doc_count": "sum",
    "mention_count": "sum",
}
_NODE_VALUE_TYPES = {"entity_text": pa.string(), "class_rank": pa.string()}


def committed_kg_shards(docs_kg_dir: str) -> list[tuple[str, str]]:
    """[(pid, part path)] of checkpoint shards whose lineage sidecar
    exists — the only shards a fold may read (a part file without its
    sidecar is an in-flight write)."""
    out = []
    for pid in sorted(completed_partitions(docs_kg_dir)):
        part = os.path.join(docs_kg_dir, f"part-{pid}.parquet")
        if os.path.exists(part):
            out.append((pid, part))
    return out


def _bid(pid: str) -> str:
    return f"kgshard-{pid}"


def _read_shards(paths: list[str]) -> ray.data.Dataset:
    return ray.data.read_parquet(
        paths, columns=["url", "kg_aligned_json", "kg_links_json"]
    )


def _fold_nodes(
    shards: list[tuple[str, str]], view_dir: str, config: PipelineConfig
) -> int:
    applied = set(applied_batches(view_dir))
    todo = [(p, f) for p, f in shards if _bid(p) not in applied]
    if not todo:
        return 0
    delta = canonicalize_node_partials(
        _read_shards([f for _, f in todo]), config
    )
    apply_delta(
        view_dir,
        delta,
        key_col="entity_key",
        value_cols=_NODE_VALUE_COLS,
        batch_id=[_bid(p) for p, _ in todo],
        num_partitions=config.canon_num_partitions or None,
        value_types=_NODE_VALUE_TYPES,
    )
    return len(todo)


def _fold_metrics(
    shards: list[tuple[str, str]], view_dir: str, config: PipelineConfig
) -> int:
    from ctinexus_ray.ops.dedup import hash64_strings

    applied = set(applied_batches(view_dir))
    todo = [(p, f) for p, f in shards if _bid(p) not in applied]
    if not todo:
        return 0

    total = metrics_total([f for _, f in todo])
    keys = hash64_strings(total.column("stage").to_pylist()).astype(np.int64)
    delta = ray.data.from_arrow(
        total.append_column("stage_key", pa.array(keys, type=pa.int64()))
    )
    apply_delta(
        view_dir,
        delta,
        key_col="stage_key",
        value_cols={c: "sum" for c in METRIC_COLUMNS},
        batch_id=[_bid(p) for p, _ in todo],
    )
    return len(todo)


def _append_shard_map(
    shards: list[tuple[str, str]],
    table_dir: str,
    build,
) -> int:
    """Exactly-once append of a per-row map over new shards: write the
    mapped rows as immutable files under the table dir, then ONE append
    commit whose manifest extends the applied-shard ledger — crash
    before the commit leaves only orphan files (vacuumable), crash
    after replays into a ledger no-op. The commit pins the version the
    ledger was read from, so a concurrent append aborts it
    (``ConcurrentWriteError``) instead of losing ledger entries."""
    from ctinexus_ray.state.tableformat import (
        latest_version,
        write_dataset_version,
    )

    parent = latest_version(table_dir)
    extra = version_extra(table_dir, parent) if parent is not None else {}
    applied = set(extra.get(_LEDGER, []))
    todo = [(p, f) for p, f in shards if _bid(p) not in applied]
    if not todo:
        return 0
    extra[_LEDGER] = list(extra.get(_LEDGER, [])) + [_bid(p) for p, _ in todo]
    write_dataset_version(
        table_dir, build(_read_shards([f for _, f in todo])),
        mode="append", extra=extra, expected_parent=parent,
    )
    return len(todo)


def _settle_fsspec_http_import() -> None:
    """Ray's path resolution probes ``fsspec.implementations.http`` on
    every read/write. In this environment that import always fails
    (aiohttp absent) and therefore never lands in ``sys.modules`` — so
    two driver threads resolving paths concurrently race inside the
    import machinery and one sees a half-initialized module (plain
    ImportError, which Ray does NOT catch, vs the ModuleNotFoundError it
    does). Seed a sentinel module once, single-threaded: the class is
    never instantiated here (no http filesystems in this engine), it only
    makes ``isinstance`` checks answer False deterministically."""
    import sys as _sys
    import types as _types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        mod = _types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel only
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = mod


def fold_kg_derived(
    out_dir: str, config: PipelineConfig | None = None
) -> dict:
    """Fold every committed-but-unfolded docs_kg shard into the four
    derived tables. Idempotent per table (own ledgers), cheap per tick:
    cost is O(new docs) map work + one copy-on-write merge over the key
    ranges the new entities touch — NOT an O(corpus) re-shuffle."""
    config = config or PipelineConfig()
    docs_kg = os.path.join(out_dir, "docs_kg")
    shards = committed_kg_shards(docs_kg)
    if not shards:
        return {"kg_shards": 0, "nodes_folded": 0, "triples_folded": 0,
                "edges_folded": 0, "metrics_folded": 0}

    def explode(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.map_batches(
            explode_triples_batch,
            batch_format="pyarrow",
            batch_size=config.cpu_batch_size,
        )

    # the four folds touch DISJOINT tables and are independent — run
    # them in driver threads so each tick pays max(fold) wall, not the
    # sum of four fixed per-execution latencies (plans are built inside
    # each fold; the fsspec import race is settled first)
    import concurrent.futures as cf

    _settle_fsspec_http_import()
    with cf.ThreadPoolExecutor(max_workers=4) as ex:
        f_nodes = ex.submit(
            _fold_nodes, shards, os.path.join(out_dir, "nodes_view"), config
        )
        f_triples = ex.submit(
            _append_shard_map, shards,
            os.path.join(out_dir, "triples_view"), explode,
        )
        f_edges = ex.submit(
            _append_shard_map, shards,
            os.path.join(out_dir, "edges_view"),
            lambda ds: explode(ds).map_batches(
                edges_batch, batch_format="pyarrow",
                batch_size=config.cpu_batch_size,
            ),
        )
        f_metrics = ex.submit(
            _fold_metrics, shards, os.path.join(out_dir, "metrics_view"),
            config,
        )
        nodes, triples = f_nodes.result(), f_triples.result()
        edges, metrics = f_edges.result(), f_metrics.result()
    return {
        "kg_shards": len(shards),
        "nodes_folded": nodes,
        "triples_folded": triples,
        "edges_folded": edges,
        "metrics_folded": metrics,
    }


def read_kg_nodes_view(view_dir: str) -> ray.data.Dataset:
    """The canonical nodes table from the incremental view — identical
    schema and values to ``canonicalize_nodes`` over the full
    checkpoint (class_rank decoded at read time)."""
    return read_version(
        view_dir,
        columns=[
            "entity_key", "entity_text", "class_rank",
            "doc_count", "mention_count",
        ],
    ).map_batches(strip_class_rank_batch, batch_format="pyarrow")


def read_kg_metrics_view(view_dir: str) -> ray.data.Dataset:
    """The corpus metrics rollup, minus the internal fold key."""
    return read_version(view_dir, columns=["stage", *METRIC_COLUMNS])


def run_kg_incremental(
    input_files: list[str],
    out_dir: str,
    config: PipelineConfig | None = None,
    demos: list[dict] | None = None,
    reader=None,
) -> dict:
    """The resumable corpus run: the expensive per-doc stages execute
    per INPUT SHARD, each committing a ``part-<pid>.parquet`` +
    ``_SUCCESS.<pid>.json`` lineage sidecar under ``out_dir/docs_kg``
    (a restarted run skips committed shards); the derived layer then
    FOLDS the new shards into persisted versioned tables, read with
    ``read_version`` / ``read_kg_nodes_view`` /
    ``read_kg_metrics_view``. A tick that adds one shard to a
    10^12-doc corpus pays for one shard, plus one bounded merge.

    ``reader`` maps one shard path to a CC-shaped Dataset; default is
    the parquet reader (``sources.documents.read_cc``) — pass
    ``sources.warc.read_warc`` to run straight off a crawl archive."""
    from ctinexus_ray.pipelines.kg import checkpoint_docs_kg

    config = config or PipelineConfig()
    summary = checkpoint_docs_kg(
        input_files, os.path.join(out_dir, "docs_kg"), config, demos, reader
    )
    folds = fold_kg_derived(out_dir, config)
    return {
        **summary,
        **folds,
        "docs_kg": os.path.join(out_dir, "docs_kg"),
        "nodes_view": os.path.join(out_dir, "nodes_view"),
        "triples_view": os.path.join(out_dir, "triples_view"),
        "edges_view": os.path.join(out_dir, "edges_view"),
        "metrics_view": os.path.join(out_dir, "metrics_view"),
    }
