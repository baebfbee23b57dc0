"""Incremental maintenance of the KG derived layer (nodes / triples /
edges / metrics) — IVM for the cross-document canonicalization.

Re-deriving every output from the FULL ``docs_kg`` checkpoint on each
run (a derive pass over every shard plus one counter scan) is
idempotent, but the canonicalization re-shuffle is O(corpus) per
ingestion tick — the wrong shape at 10^12 docs where a tick adds a few
shards to thousands. The entity aggregates are exactly the monoid
forms ``state/ivm.py`` folds exactly-once:

  * ``doc_count`` / ``mention_count`` — Sum
  * ``entity_text`` — Max over per-doc canonical variants
  * ``class_rank`` — Max over "<zero-padded in-doc count>|<class>"
    (decoded to ``entity_class`` only at read time, so the stored view
    stays foldable)

and triples / edges are pure per-row maps of a shard (append-only),
metrics a Sum fold. This module therefore maintains all four as
PERSISTED VERSIONED TABLES (``state/tableformat.py``), folding only the
docs_kg shards committed since the last fold through ONE pass of the
full build's derive map (``kg.derive_partials``):

    out/
      docs_kg/        per-shard checkpoint (run_resumable): a versioned
                      table, one ledgered append per input shard
      nodes_view/     IVM view: each tick appends the pass's entity
                      partials (one apply_delta); reads reduce them by
                      Sum/Max, and the view compacts once its deltas
                      reach its base's bytes
      triples_view/   append table: the files the pass's tasks wrote
      edges_view/     append table: the files the pass's tasks wrote
      metrics_view/   append table: one ``metrics_total`` row per fold;
                      each fold then sums the rows into one file (a
                      ``compact`` commit), and reads sum what is left

Exactly-once: docs_kg's ledger records the checkpointed shards, and
each view's manifest carries its own applied-shard ledger, written by
``commit_version(batch_ids=...)`` atomically with the data commit — a
crash between two tables' commits leaves the next fold the shards that
some tables still lack, and it folds them into exactly those tables.
Incremental == full recompute by the monoid-fold argument (pinned by
tests/test_kg_incr.py after every tick of 3- and 6-tick corpora,
through compactions, against the ``kg.py`` full-derivation oracle).

Reference anchor: cross-doc canonicalization is this engine's
north_rule addition (SURVEY §2.4); the reference's per-document outputs
(/root/reference/ctinexus/graph_constructor.py) have no cross-doc
state to maintain.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.pipelines.kg import (
    METRIC_COLUMNS,
    METRICS_SCHEMA,
    derive_partials,
    metrics_total,
    strip_class_rank_batch,
)
from ctinexus_ray.state.checkpoint import committed_shards as committed_kg_shards
from ctinexus_ray.state.ivm import apply_delta, read_view
from ctinexus_ray.state.tableformat import (
    ConcurrentWriteError,
    applied_ids,
    commit_version,
    latest_version,
    version_files,
)

_VIEWS = ("nodes", "triples", "edges", "metrics")
_NODE_VALUE_COLS = {
    "entity_text": "max",
    "class_rank": "max",
    "doc_count": "sum",
    "mention_count": "sum",
}


def _bid(pid: str) -> str:
    return f"kgshard-{pid}"


def _sum_metrics(files: list[str]) -> pa.Table:
    """The metrics rows of ``files`` summed per stage, by driver-side
    pyarrow over a few one-row files (files an earlier fold wrote also
    hold an internal ``stage_key`` column, not read here)."""
    rows = pa.concat_tables([METRICS_SCHEMA.empty_table(), *(
        pq.read_table(f, columns=METRICS_SCHEMA.names) for f in files)])
    sums = rows.group_by("stage").aggregate([(c, "sum") for c in METRIC_COLUMNS])
    return pa.table([sums["stage"], *(sums[f"{c}_sum"] for c in METRIC_COLUMNS)],
                    schema=METRICS_SCHEMA)


def _compact_metrics(view_dir: str) -> None:
    """Sum the metrics view's files into one, as a ``compact`` commit
    pinned to the version it read; a concurrent append wins and the
    next fold compacts. No Ray execution."""
    version = latest_version(view_dir)
    files = version_files(view_dir, version)
    if len(files) < 2:
        return
    path = os.path.join(view_dir, f"data-{uuid.uuid4().hex[:12]}.parquet")
    pq.write_table(_sum_metrics(files), path)
    try:
        commit_version(view_dir, [path], "compact", expected_parent=version)
    except ConcurrentWriteError:
        os.remove(path)


def fold_kg_derived(
    out_dir: str, config: PipelineConfig | None = None
) -> dict:
    """Fold every committed-but-unfolded docs_kg shard into the four
    derived tables. Shards are grouped by the set of tables that lack
    them (normally one group: all four). Per group, ONE Ray Data pass of
    ``derive_partials`` reads the shards once: its tasks write the
    triples and edges files into fresh data dirs, and its entity
    partials go straight into the nodes view's ``apply_delta``, whose
    append executes the pass. Then triples and edges each adopt their
    files with one append commit, and the metrics view appends the
    shards' ``metrics_total`` row, then sums its rows into one file.
    Idempotent per table (own ledgers); appends of disjoint shard sets
    commute, so a concurrent fold lands too.

    Cost is O(new docs): one execution per tick, whose writes are the
    tick's own partials, triples and edges. When the nodes view's deltas
    reach its base's bytes, ``apply_delta`` compacts it with a second
    execution (``nodes_compacted`` counts those)."""
    config = config or PipelineConfig()
    shards: dict[str, list[str]] = {}
    for pid, path in committed_kg_shards(os.path.join(out_dir, "docs_kg")):
        shards.setdefault(pid, []).append(path)
    dirs = {v: os.path.join(out_dir, f"{v}_view") for v in _VIEWS}
    applied = {v: set(applied_ids(d)) for v, d in dirs.items()}
    groups: dict[tuple[str, ...], list[str]] = {}
    for pid in shards:
        lacking = tuple(v for v in _VIEWS if _bid(pid) not in applied[v])
        if lacking:
            groups.setdefault(lacking, []).append(pid)

    stats = {"kg_shards": len(shards), "nodes_compacted": 0,
             **{f"{v}_folded": 0 for v in _VIEWS}}
    for lacking, pids in groups.items():
        files = [f for p in pids for f in shards[p]]
        bids = [_bid(p) for p in pids]
        data_dirs = {v: os.path.join(dirs[v], f"data-{uuid.uuid4().hex[:12]}")
                     for v in ("triples", "edges") if v in lacking}
        for d in data_dirs.values():
            os.makedirs(d)
        if "nodes" in lacking or data_dirs:
            partials = derive_partials(
                files, data_dirs.get("triples"), data_dirs.get("edges"), config
            )
            nodes = {"applied": False}
            if "nodes" in lacking:
                nodes = apply_delta(
                    dirs["nodes"], partials, key_col="entity_key",
                    value_cols=_NODE_VALUE_COLS, batch_id=bids,
                )
                stats["nodes_compacted"] += nodes.get("compacted") is not None
            if not nodes["applied"] and data_dirs:
                partials.materialize()  # the pass, for its files only
        for v, d in data_dirs.items():
            written = sorted(os.path.join(d, n) for n in os.listdir(d))
            commit_version(dirs[v], written, mode="append", batch_ids=bids)
        if "metrics" in lacking:
            path = os.path.join(dirs["metrics"],
                                f"data-{uuid.uuid4().hex[:12]}.parquet")
            os.makedirs(dirs["metrics"], exist_ok=True)
            pq.write_table(metrics_total(files), path)
            commit_version(dirs["metrics"], [path], mode="append",
                           batch_ids=bids)
            _compact_metrics(dirs["metrics"])
        for v in lacking:
            stats[f"{v}_folded"] += len(pids)
    return stats


def read_kg_nodes_view(view_dir: str) -> ray.data.Dataset:
    """The canonical nodes table from the incremental view — identical
    schema and values to ``canonicalize_nodes`` over the full
    checkpoint (base and deltas reduced, class_rank decoded at read
    time)."""
    return read_view(view_dir, "entity_key", _NODE_VALUE_COLS).map_batches(
        strip_class_rank_batch, batch_format="pyarrow"
    )


def read_kg_metrics_view(view_dir: str) -> ray.data.Dataset:
    """The corpus metrics rollup: the latest version's per-fold rows
    summed to one, in one block."""
    return ray.data.from_arrow(
        _sum_metrics(version_files(view_dir, latest_version(view_dir))))


def run_kg_incremental(
    input_files: list[str],
    out_dir: str,
    config: PipelineConfig | None = None,
    demos: list[dict] | None = None,
    reader=None,
) -> dict:
    """The resumable corpus run: the expensive per-doc stages execute
    per INPUT SHARD, whose tasks write its ``part-<pid>-...`` files under
    ``out_dir/docs_kg``; one ledgered manifest commit per shard adds them
    with the shard's lineage (a restarted run skips committed shards,
    and ``read_lineage`` returns the records); the derived layer then
    FOLDS the new shards into persisted versioned tables, read with
    ``read_version`` / ``read_kg_nodes_view`` /
    ``read_kg_metrics_view``. A tick that adds one shard to a
    10^12-doc corpus pays for one shard, plus an occasional compaction.

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
