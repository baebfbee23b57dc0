"""Incremental view maintenance (IVM) over the versioned table format.

A materialized aggregate (the canonical example: corpus word counts)
maintained under appends WITHOUT ever recomputing from the full
corpus: each ingestion batch contributes a DELTA aggregate (tick-sized,
computed by the caller with ``partitioned_agg``), which merges into the
view by monoid combination — sound for sum/count/min/max because the
aggregate is a commutative monoid over row multisets, the classic
delta-maintenance result (Gupta & Mumick, *Maintenance of Materialized
Views*, 1995).

Exactly-once across crash/replay — the property that makes IVM usable
from an at-least-once ingestion loop (jobs/stream_job.py replays ticks
whose ledger write was lost): every fold commits through
``commit_version(batch_ids=...)``, whose applied-batch ledger lives IN
the view's version manifest, ATOMIC with the data commit. A replayed
batch is recognized and skipped; there is no window where the delta is
committed but the ledger isn't, or vice versa. A fold reads the ledger,
the view and the merge base from one pinned version, so a concurrent
fold aborts it (``ConcurrentWriteError``) instead of being overwritten.

Scale shape: the view is key-domain-sized (vocabulary, not corpus);
the delta is tick-sized. One hash join delta<->view computes combined
values for intersecting keys; ``merge_upsert`` then applies
copy-on-write file pruning by footer key ranges. A view written by a
hash partition (the join's output, and so every merged view) has files
that each span the whole key space, so pruning keeps none of them and
every delta rewrites the whole view (ROADMAP item 2: merge-on-read).
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from ctinexus_ray.state.tableformat import (
    applied_ids,
    extend_ledger,
    latest_version,
    merge_upsert,
    read_version,
    version_files,
    write_dataset_version,
)

_COMBINE = ("sum", "min", "max")


def apply_delta(
    view_dir: str,
    delta: ray.data.Dataset,
    key_col: str,
    value_cols: dict[str, str],
    batch_id: str | list[str],
    num_partitions: int | None = None,
    value_types: dict[str, pa.DataType] | None = None,
) -> dict:
    """Fold one batch's delta aggregate into the materialized view.

    ``delta``: one row per key touched by the batch — ``key_col``
    (int64; hash string keys with ``ops.dedup.hash64_strings`` and
    carry the readable column alongside) plus value columns.
    ``value_cols``: {column: combine} with combine in sum|min|max
    (count folds in as a sum of partial counts; min/max also combine
    string columns — the deterministic canonical-pick monoid). Any
    other column in ``delta`` (e.g. the readable string key) passes
    through, taking the DELTA side's value on key intersections.
    ``value_types``: per-column Arrow type for non-int64 value columns
    (the join needs typed nulls when a partition of the view side is
    empty); unlisted columns default to int64.

    ``batch_id`` may be a LIST — one delta covering several source
    batches (e.g. all shards that arrived in a tick), recorded in the
    ledger individually but committed atomically. All-or-nothing: a
    mix of applied and unapplied ids means the caller's bookkeeping
    diverged from the ledger and raises.

    Returns {"applied": False} when ``batch_id`` is already in the
    view's manifest ledger (the crash-replay path); otherwise commits a
    new view version whose manifest carries the extended ledger and
    returns merge stats + {"applied": True}. The ledger check, the view
    side of the combine and the merge base are all the latest version
    at entry: a fold that lands in between raises
    ``ConcurrentWriteError`` and this one recomputes on retry.
    """
    for col, comb in value_cols.items():
        if comb not in _COMBINE:
            raise ValueError(
                f"combine for {col!r} must be one of {_COMBINE} "
                "(monoid-mergeable); non-decomposable aggregates "
                "cannot be delta-maintained"
            )
    bids = [batch_id] if isinstance(batch_id, str) else list(batch_id)
    if not bids:
        raise ValueError("batch_id must name at least one batch")
    snapshot = latest_version(view_dir)
    if extend_ledger(applied_ids(view_dir, snapshot), bids) is None:
        return {"applied": False, "batch_id": batch_id}

    if snapshot is None or not version_files(view_dir, snapshot):
        # first batch (or only EMPTY deltas so far — reading zero files
        # is an error): the delta IS the view, an overwrite pinned to
        # the snapshot, so a concurrent first delta is never replaced
        version, _ = write_dataset_version(
            view_dir, delta, mode="overwrite", batch_ids=bids,
            expected_parent=snapshot,
        )
        return {"applied": version is not None, "version": version,
                "batch_id": batch_id}

    # combine the delta with current view values on intersecting keys:
    # join the VIEW side restricted to the delta's keys (semi-join by
    # merge_upsert's own footer pruning discipline would also work, but
    # one hash join keeps the combine logic exact and typed)
    from ctinexus_ray.ops.distjoin import hash_join

    i64 = pa.int64()
    vtypes = {c: (value_types or {}).get(c, i64) for c in value_cols}
    view_cols = [key_col] + list(value_cols)
    renames = {c: f"_view_{c}" for c in value_cols}

    def rn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [renames.get(n, n) for n in batch.column_names]
        )

    # pin the delta so the schema probe + join don't recompute the
    # caller's aggregation pipeline (delta is tick-sized by contract)
    delta = delta.materialize()
    view_side = read_version(
        view_dir, snapshot, columns=view_cols
    ).map_batches(rn, batch_format="pyarrow")
    joined = hash_join(
        delta,
        view_side,
        on=[key_col],
        how="left",
        num_partitions=num_partitions,
        right_types={key_col: i64, **{renames[c]: vtypes[c] for c in value_cols}},
    )

    def combine(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols: dict = {}
        for name in batch.column_names:
            if name.startswith("_view_"):
                continue
            if name in value_cols:
                comb = value_cols[name]
                old = pc.fill_null(
                    batch.column(renames[name]),
                    0 if comb == "sum" else None,
                )
                new = batch.column(name)
                if comb == "sum":
                    cols[name] = pc.add_checked(new, old)
                elif comb == "min":
                    cols[name] = pc.min_element_wise(new, old)
                else:
                    cols[name] = pc.max_element_wise(new, old)
            else:
                cols[name] = batch.column(name)
        return pa.Table.from_pydict(cols)

    # materialize the combined delta ONCE: it is tick-sized (one row per
    # key the batch touched) by the delta contract, and merge_upsert
    # consumes its input three times (count, key broadcast, write) —
    # without pinning, the join+combine pipeline (including the view
    # scan) re-executes per consumption (measured 3-4x the fold wall)
    combined = joined.map_batches(combine, batch_format="pyarrow").materialize()
    stats = merge_upsert(
        view_dir,
        combined,
        key_col=key_col,
        num_partitions=num_partitions,
        assume_unique=True,  # delta is a per-key aggregate by contract
        version=snapshot,
        batch_ids=bids,
    )
    stats.update({"applied": stats["version"] is not None,
                  "batch_id": batch_id})
    return stats
