"""Resumable partitioned Parquet output with per-partition lineage
(SURVEY §7.1 step 9; north_star "per-partition lineage and metrics
checkpoints enabling resume"). The output root is a versioned table
(``state/tableformat``): a shard's tasks write its
``part-<pid>-...parquet`` files, then one ledgered append commits them
with the shard's lineage (input file, rows, wall time, stage metrics).

Partition ids are DETERMINISTIC — derived from the input file path — so
a restarted job computes the same ids, skips those in the ledger, and
only processes the remainder; a crash before a commit leaves files no
version lists (``vacuum`` removes them). Ray Data handles intra-run task
retries (lineage re-execution); this layer handles cross-run resume,
which Ray does not provide.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from pathlib import Path
from typing import Callable

import pyarrow.parquet as pq
import ray.data
from ray.data.datasource import FilenameProvider

from ctinexus_ray.state.tableformat import (
    applied_ids,
    commit_version,
    latest_version,
    version_extra,
    version_files,
    version_mode,
)


def partition_id(input_file: str) -> str:
    """Deterministic partition id for one input file."""
    return hashlib.blake2b(input_file.encode("utf-8"), digest_size=8).hexdigest()


def list_input_partitions(input_files: list[str]) -> list[tuple[str, str]]:
    """[(partition_id, input_file)] sorted by file path."""
    return [(partition_id(f), f) for f in sorted(input_files)]


def adopt_sidecar_layout(out_dir: str | Path) -> None:
    """Adopt a directory in the old layout (``part-<pid>.parquet`` beside
    a ``_SUCCESS.<pid>.json`` record, no manifest) as ONE ledgered commit
    of its parts and records, so it resumes without recomputing. A part
    without a sidecar was never committed; an empty shard's part (maybe
    schemaless) stays out, as an empty shard commits no file."""
    out = str(out_dir)
    if latest_version(out) is not None:
        return
    records = [json.loads(p.read_text())
               for p in sorted(Path(out).glob("_SUCCESS.*.json"))]
    if not records:
        return
    files = [os.path.join(out, f"part-{r['partition_id']}.parquet")
             for r in records if r["rows"]]
    commit_version(out, files, "append", extra={"lineage": records},
                   batch_ids=[r["partition_id"] for r in records])


class _ShardFiles(FilenameProvider):
    """Task-side file names of one shard's write: ``token`` is drawn per
    run, so the driver commits exactly its own write's files (a crashed
    or racing run of the shard has another token). Ray requires its
    write uuid in the name; a retried task rewrites its own file."""

    def __init__(self, pid: str, token: str):
        self.prefix = f"part-{pid}-{token}-"

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"{self.prefix}{write_uuid}-{task_index:06d}-{block_index:06d}.parquet"


def run_resumable(
    input_files: list[str],
    out_dir: str | Path,
    pipeline: Callable[[ray.data.Dataset], ray.data.Dataset],
    reader: Callable[[str], ray.data.Dataset] | None = None,
    lineage_fn: Callable[[list[str]], dict] | None = None,
) -> dict:
    """Run ``pipeline`` per input partition, skipping committed ones.

    Each pending partition runs as its own streaming execution whose
    tasks write the files; the driver then commits them with one
    ``commit_version(..., batch_ids=[pid])`` carrying the shard's lineage
    (``lineage_fn(files)`` adds keys). An empty shard commits its pid
    alone; a racing run of the shard finds it applied and commits
    nothing. Returns a summary {"processed", "skipped", "rows"}.

    Scale note: per-partition executions trade a little scheduling overhead
    for exact resume granularity; input files for a 10^12-doc corpus are
    row-group-sized shards, so each execution still saturates the cluster
    via Ray Data's internal parallelism over row groups.
    """
    out = str(out_dir)
    os.makedirs(out, exist_ok=True)  # an empty write creates no directory
    adopt_sidecar_layout(out)
    reader = reader or ray.data.read_parquet
    done = set(applied_ids(out))
    pending = [(pid, f) for pid, f in list_input_partitions(input_files)
               if pid not in done]
    rows_total = 0
    for pid, input_file in pending:
        start = time.time()
        names = _ShardFiles(pid, uuid.uuid4().hex[:8])
        pipeline(reader(input_file)).write_parquet(out, filename_provider=names)
        files = [os.path.join(out, n) for n in sorted(os.listdir(out))
                 if n.startswith(names.prefix)]
        rows = sum(pq.read_metadata(f).num_rows for f in files)
        rows_total += rows
        lineage = {
            "partition_id": pid,
            "input_file": input_file,
            "rows": rows,
            "wall_time_s": round(time.time() - start, 3),
        }
        if lineage_fn is not None:
            lineage.update(lineage_fn(files))
        commit_version(out, files, "append", extra={"lineage": [lineage]},
                       batch_ids=[pid])
    return {"processed": len(pending), "skipped": len(input_files) - len(pending),
            "rows": rows_total}


def committed_shards(out_dir: str | Path) -> list[tuple[str, str]]:
    """[(pid, file)] of the latest version, each pid parsed from its
    file's ``part-<pid>...`` name (a shard may have several files, an
    empty shard none). A file no version lists is an uncommitted write
    that no reader may see."""
    out = str(out_dir)
    version = latest_version(out)
    if version is None:
        return []
    return sorted(
        (os.path.basename(f)[len("part-"):].split("-")[0].removesuffix(".parquet"), f)
        for f in version_files(out, version)
    )


def read_lineage(out_dir: str | Path) -> list[dict]:
    """One lineage record per shard of the latest version, oldest first.
    Each shard commit carries its own record (an Iceberg-style snapshot
    summary), so this walks the manifests back to the first or the newest
    overwrite, which restates the records of the shards it keeps. A
    vacuum that expires a shard's manifest drops its record."""
    out = str(out_dir)
    records: list[dict] = []
    version = latest_version(out)
    while version:
        try:
            records[:0] = version_extra(out, version).get("lineage", [])
            if version_mode(out, version) != "append":
                break
        except FileNotFoundError:  # vacuumed history
            break
        version -= 1
    return records
