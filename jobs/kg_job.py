"""``ray job submit`` entrypoint for the corpus KG pipeline.

On a real cluster (the north_rule deployment shape):

    ray job submit --working-dir . -- \
        python jobs/kg_job.py --input s3://bucket/cc/ --output s3://bucket/kg/

The job connects to the submitting cluster (``ray.init()`` with no
address resolves RAY_ADDRESS inside the job runtime), streams the corpus
through the resumable runner (one ledgered manifest commit per shard,
carrying its lineage),
folds the new shards into the versioned derived tables
(``pipelines/kg_incr.py``), and exits cleanly so a rerun after any
failure resumes where it stopped.

In this sandbox there is no multi-node cluster or dashboard; the same
entrypoint runs standalone: ``python jobs/kg_job.py --input ... --output ...``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

# script mode puts jobs/ (not the repo root) on sys.path — make the
# package importable when invoked as `python jobs/kg_job.py`
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True,
                        help="parquet dir (CC shape), .warc/.warc.gz dir, "
                             "or .jsonl/.jsonl.gz dir")
    parser.add_argument("--output", required=True)
    parser.add_argument("--input-format", choices=("parquet", "warc", "jsonl"),
                        default=None,
                        help="default: auto-detect from the shard suffix")
    parser.add_argument("--similarity-threshold", type=float, default=0.6)
    parser.add_argument("--pool", type=int, default=0, help="concurrent KG stage tasks (0 = auto)")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)

    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg_incr import run_kg_incremental

    base = args.input.rstrip("/")
    files = sorted(glob.glob(f"{base}/*.parquet"))
    warc_files = sorted(
        glob.glob(f"{base}/*.warc") + glob.glob(f"{base}/*.warc.gz")
    )
    jsonl_files = sorted(
        glob.glob(f"{base}/*.jsonl") + glob.glob(f"{base}/*.jsonl.gz")
    )
    fmt = args.input_format
    if fmt is None:  # auto-detect from what the input dir/file contains
        if warc_files or base.endswith((".warc", ".warc.gz")):
            fmt = "warc"
        elif jsonl_files or base.endswith((".jsonl", ".jsonl.gz")):
            fmt = "jsonl"
        else:
            fmt = "parquet"
    files = {
        "warc": warc_files, "jsonl": jsonl_files, "parquet": files
    }[fmt] or [args.input]
    reader = None
    if fmt == "warc":
        from ctinexus_ray.sources.warc import read_warc

        reader = read_warc
    elif fmt == "jsonl":
        # generic (doc_id/url, text) JSONL shards -> CC shape: full
        # CC-shaped lines pass through conform_schema untouched; bare
        # (doc_id, text) corpora ride the synthetic-html adapter
        from ctinexus_ray.sources.documents import _adapt_batch, conform_schema
        from ctinexus_ray.sources.flatfiles import read_jsonl

        def reader(paths):
            ds = read_jsonl(paths)
            names = ds.schema().names
            if "url" in names or "html" in names:
                return conform_schema(ds)
            return ds.map_batches(_adapt_batch, batch_format="pyarrow")
    num_cpus = int(ray.cluster_resources().get("CPU", 8))
    pool = args.pool or max(2, num_cpus - 4)
    config = PipelineConfig(
        similarity_threshold=args.similarity_threshold,
        llm_concurrency=(pool, pool),
    )
    result = run_kg_incremental(files, args.output, config, reader=reader)
    print(json.dumps(result, indent=2))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
