"""``ray job submit`` entrypoint for parquet small-file compaction.

Per-shard outputs leave thousands of small files at crawl scale, which
slow every later scan (per-file open/footer cost dominates under
~64 MB). This job rewrites a plain directory of parquet files into
~target-size files. It reads every ``*.parquet`` in the directory, so
it is not for a versioned table such as a ``run_resumable`` output,
which may hold files no version lists:

    python jobs/compact_job.py --input /data/refined --output /data/refined_compact

Shape: the driver holds only file paths + sizes (os.stat — no data),
greedy-packs them into buckets of ``--target-mb``, and one Ray task per
bucket concatenates its files and writes one output file. Buckets are
independent, so the job is trivially parallel and resumable: each
bucket commits ``compact-<i>.parquet`` + a ``_COMPACT.<i>.json``
sidecar naming its inputs; a rerun skips committed buckets
(``skipped: N``). Input files are never modified or deleted — swap
directories (or delete the originals) only after the job reports clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def plan_buckets(files: list[str], target_bytes: int) -> list[list[str]]:
    """Greedy first-fit packing of files (in name order, so output
    ordering is deterministic) into buckets of ~target_bytes. A file
    larger than the target gets its own bucket (pass-through copy)."""
    buckets: list[list[str]] = []
    current: list[str] = []
    current_bytes = 0
    for f in sorted(files):
        size = os.stat(f).st_size
        if current and current_bytes + size > target_bytes:
            buckets.append(current)
            current, current_bytes = [], 0
        current.append(f)
        current_bytes += size
    if current:
        buckets.append(current)
    return buckets


def compact_bucket(paths: list[str], out_file: str) -> dict:
    """Read one bucket's files and write a single parquet file. Runs in
    a Ray task; bucket size is bounded by the planner's target."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tables = [pq.read_table(p) for p in paths]

    table = pa.concat_tables(tables, promote_options="default")
    tmp = out_file + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, out_file)
    return {"rows": table.num_rows, "bytes": os.stat(out_file).st_size}


def run_compaction(input_dir: str, output_dir: str,
                   target_mb: int = 256) -> dict:
    import ray

    files = sorted(
        str(p) for p in Path(input_dir).glob("*.parquet")
    )
    if not files:
        raise SystemExit(f"no parquet files under {input_dir}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    buckets = plan_buckets(files, target_mb * (1 << 20))

    remote = ray.remote(compact_bucket)
    pending = {}
    skipped = 0
    start = time.perf_counter()
    for i, bucket in enumerate(buckets):
        sidecar = out / f"_COMPACT.{i:05d}.json"
        out_file = out / f"compact-{i:05d}.parquet"
        if sidecar.exists() and out_file.exists():
            skipped += 1
            continue
        pending[remote.remote(bucket, str(out_file))] = (i, bucket, sidecar)
    stats = {"rows": 0, "bytes": 0}
    for ref, (i, bucket, sidecar) in pending.items():
        result = ray.get(ref)
        stats["rows"] += result["rows"]
        stats["bytes"] += result["bytes"]
        tmp = sidecar.with_suffix(".tmp")
        tmp.write_text(json.dumps({"inputs": bucket, **result}, indent=2))
        tmp.rename(sidecar)
    return {
        "input_files": len(files),
        "output_files": len(buckets),
        "buckets_written": len(pending),
        "skipped": skipped,
        "rows_written": stats["rows"],
        "bytes_written": stats["bytes"],
        "sec": round(time.perf_counter() - start, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True, help="dir of parquet files")
    parser.add_argument("--output", required=True)
    parser.add_argument("--target-mb", type=int, default=256)
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    print(json.dumps(run_compaction(args.input, args.output, args.target_mb),
                     indent=2))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
