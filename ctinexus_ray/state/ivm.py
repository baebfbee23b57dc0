"""Incremental view maintenance (IVM) over the versioned table format.

A materialized aggregate (the canonical example: corpus word counts)
maintained under appends WITHOUT ever recomputing from the full
corpus: each ingestion batch contributes a DELTA aggregate (tick-sized,
computed by the caller with ``partitioned_agg``), which folds into the
view by monoid combination — sound for sum/count/min/max because the
aggregate is a commutative monoid over row multisets, the classic
delta-maintenance result (Gupta & Mumick, *Maintenance of Materialized
Views*, 1995).

Exactly-once across crash/replay — the property that makes IVM usable
from an at-least-once ingestion loop (jobs/stream_job.py replays ticks
whose view fold was lost): every fold commits through
``commit_version(batch_ids=...)``, whose applied-batch ledger lives IN
the view's version manifest, ATOMIC with the data commit. A replayed
batch is recognized and skipped; there is no window where the delta is
committed but the ledger isn't, or vice versa.

Scale shape (merge on read): a view is a base UNION ALL its deltas,
with the aggregate pushed to read time ("Joins over UNION ALL Queries
in Teradata", SIGMOD 2018). A fold appends the delta's files and
nothing else, so it writes O(delta) bytes and reads none of the view;
appends of disjoint batches commute, so concurrent folds both land.
``read_view`` reduces base + deltas with one ``partitioned_agg``. The
base is the newest ``compact`` or ``overwrite`` version (else the
first); once the deltas appended since it reach its bytes, the fold
writes ``read_view`` back as one ``compact`` commit, so a read scans at
most about twice the base. A view written as one merged row per key is
already a valid base.
"""

from __future__ import annotations

import os

import ray.data

from ctinexus_ray.state.tableformat import (
    ConcurrentWriteError,
    applied_ids,
    extend_ledger,
    latest_version,
    read_version,
    version_files,
    version_mode,
    version_schema,
    write_dataset_version,
)

_COMBINE = ("sum", "min", "max")
# target file size of a compacted base (the reduce's own output would
# keep one file per input file, so compaction would never shrink the
# file count)
_BASE_FILE_BYTES = 256 << 20


def _check_combines(value_cols: dict[str, str]) -> None:
    for col, comb in value_cols.items():
        if comb not in _COMBINE:
            raise ValueError(
                f"combine for {col!r} must be one of {_COMBINE} "
                "(monoid-mergeable); non-decomposable aggregates "
                "cannot be delta-maintained"
            )


def read_view(
    view_dir: str,
    key_col: str,
    value_cols: dict[str, str],
    version: int | None = None,
) -> ray.data.Dataset:
    """The view at ``version`` (latest when None): one row per key, each
    ``value_cols`` column folded by its combine over the base and every
    delta (one ``partitioned_agg``). A column outside ``value_cols``
    must be a function of the key (like ``word`` beside ``wkey``); it
    reads as its ``max``. Columns keep the view's schema order. The only
    way to read an IVM view."""
    _check_combines(value_cols)
    from ctinexus_ray.ops.groupagg import partitioned_agg

    version = latest_version(view_dir) if version is None else version
    schema = version_schema(view_dir, version)
    if schema is None:  # only empty deltas so far
        return read_version(view_dir, version, columns=[key_col, *value_cols])
    rows = read_version(view_dir, version)
    # the reduce's sort cuts one key range per input block (about one
    # per file); a range that holds no hash partition comes back as an
    # empty block with no columns, which breaks a consumer concatenating
    # the blocks, so keep the partitions well above the files
    parts = 16
    while parts < 8 * len(version_files(view_dir, version)):
        parts <<= 1
    aggs = {c: (c, value_cols.get(c, "max")) for c in schema.names if c != key_col}
    return partitioned_agg(rows, [key_col], aggs, parts).select_columns(schema.names)


def _compaction_due(view_dir: str, version: int) -> bool:
    """Whether the files appended since the base (the newest ``compact``
    or ``overwrite`` version, else the oldest kept one) hold at least the
    base's bytes."""
    base = version
    for v in range(version, 0, -1):
        try:
            mode = version_mode(view_dir, v)
        except FileNotFoundError:  # vacuumed history
            break
        base = v
        if mode != "append":
            break
    base_files = set(version_files(view_dir, base))
    added = [f for f in version_files(view_dir, version) if f not in base_files]
    size = os.path.getsize
    return bool(added) and sum(map(size, added)) >= sum(map(size, base_files))


def apply_delta(
    view_dir: str,
    delta: ray.data.Dataset,
    key_col: str,
    value_cols: dict[str, str],
    batch_id: str | list[str],
) -> dict:
    """Fold one batch's delta aggregate into the materialized view: ONE
    ledgered append of its rows, then a compaction when one is due.

    ``delta``: rows of ``key_col`` (int64; hash string keys with
    ``ops.dedup.hash64_strings`` and carry the readable column
    alongside) plus value columns; a key may repeat, within the delta
    and across deltas. ``value_cols``: {column: combine} with combine in
    sum|min|max (count folds in as a sum of partial counts; min/max also
    combine string columns — the deterministic canonical-pick monoid),
    applied at read time by ``read_view``.

    ``batch_id`` may be a LIST — one delta covering several source
    batches (e.g. all shards that arrived in a tick), recorded in the
    ledger individually but committed atomically. All-or-nothing: a
    mix of applied and unapplied ids means the caller's bookkeeping
    diverged from the ledger and raises.

    Returns {"applied": False} when ``batch_id`` is already in the
    view's manifest ledger (the crash-replay path); otherwise commits
    the append and returns {"applied": True, "version", "compacted"}
    ("compacted": the compact version, None when none was due or a
    concurrent commit overtook it — the next fold retries)."""
    _check_combines(value_cols)
    bids = [batch_id] if isinstance(batch_id, str) else list(batch_id)
    if not bids:
        raise ValueError("batch_id must name at least one batch")
    if extend_ledger(applied_ids(view_dir), bids) is None:
        return {"applied": False, "batch_id": batch_id}
    version, _ = write_dataset_version(view_dir, delta, "append", batch_ids=bids)
    if version is None:  # a concurrent fold applied the same batches
        return {"applied": False, "batch_id": batch_id}
    compacted = None
    if _compaction_due(view_dir, version):
        size = sum(map(os.path.getsize, version_files(view_dir, version)))
        view = read_view(view_dir, key_col, value_cols, version)
        try:
            compacted, _ = write_dataset_version(
                view_dir, view.repartition(-(-size // _BASE_FILE_BYTES)),
                "compact", expected_parent=version,
            )
        except ConcurrentWriteError:
            pass
    return {"applied": True, "version": version, "compacted": compacted,
            "batch_id": batch_id}
