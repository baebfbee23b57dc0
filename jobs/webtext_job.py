"""The composed webtext flagship — raw crawl to training packs plus a
searchable index, in ONE resumable command (the documented 100-TB
recipe):

    python jobs/webtext_job.py --input <warc|cc-parquet dir> --output <out>

    phase crawl    WARC/CC shards -> robots politeness -> html->text
                   extraction -> langid -> optional C4 -> canonical-URL
                   dedup         (jobs/crawl_job.py, per-shard commits)
    phase commit   refined shards committed BY REFERENCE as a version
                   of the corpus table (state/tableformat) — the
                   versioned-table handoff every consumer reads; the
                   commit carries a content-derived batch id in the
                   manifest ledger, so a rerun never double-commits
    phase index    the persisted inverted BM25 index folds every
                   committed-but-unfolded corpus version
                   (jobs/stream_job._maintain_text_index — exactly-once
                   per version, vacuum/compaction-safe)
    phase prepare  MinHash near-dedup -> optional ExactSubstr span
                   removal -> Gopher quality filter -> token counts ->
                   sequence packing  (jobs/prepare_job.py phases, input
                   = the committed version's exact file set)

Resume: every phase is idempotent — crawl by its per-shard manifest
ledger + its marker, commit by the manifest ledger, index by the
applied-version ledger, prepare by its dedup marker + per-shard
manifest ledger. A rerun of a
finished job reports every phase skipped and writes nothing.

At 100 TB: each phase is the already-audited job (no new shuffles are
introduced by the composition); the handoff table is what lets the NEXT
crawl tick append instead of rebuild — downstream folds see exactly the
new version's file diff (the stream_job reconciliation discipline).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
_JOBS_DIR = os.path.dirname(os.path.abspath(__file__))
if _JOBS_DIR not in sys.path:
    sys.path.insert(0, _JOBS_DIR)


def _rss_mb() -> float:
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )


def commit_corpus(refined_dir: str, corpus_dir: str) -> dict:
    """Normalize the refined crawl shards into the canonical documents
    shape — (doc_id [stable url hash], url, warc_ts, lang, text =
    clean_text if C4 ran else extracted_text) — and commit as a
    corpus-table version. Batch id = blake2b over the sorted
    (path, size, mtime_ns) refined FILE STATE, recorded in the manifest
    ledger: a rerun with literally untouched refined files skips before
    any write, while any crawl re-run rewrites refined/ wholesale (new
    mtimes even for byte-identical content) and commits a fresh
    snapshot — same-size content changes can never silently skip
    (size-only hashing had exactly that stale-data hole).

    SNAPSHOT semantics: crawl_job's derived phase rewrites ``refined/``
    wholesale every run (keep-latest-by-canonical-url is global — a
    re-crawl can REPLACE an old url's text), so each new refined state
    commits as a logical ``overwrite`` version, never an append — an
    append would double every previously committed doc. The index fold
    recognizes the overwrite and rebuilds from the latest version (the
    stream_job reconciliation rule); true append-only ingestion (no
    re-crawls) is stream_job's shape, not this one's."""
    import pyarrow as pa

    import ray.data

    from ctinexus_ray.sources.documents import ensure_doc_id
    from ctinexus_ray.state.tableformat import (
        applied_ids,
        latest_version,
        write_dataset_version,
    )

    files = sorted(glob.glob(os.path.join(refined_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no refined shards under {refined_dir}")
    h = hashlib.blake2b(digest_size=8)
    for f in files:
        st = os.stat(f)
        h.update(f"{f}:{st.st_size}:{st.st_mtime_ns};".encode())
    bid = f"crawl-{h.hexdigest()}"
    if bid in applied_ids(corpus_dir):
        return {"batch_id": bid, "skipped": True, "files": len(files)}

    def normalize(batch: pa.Table) -> pa.Table:
        text = (
            batch.column("clean_text")
            if "clean_text" in batch.column_names
            else batch.column("extracted_text")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts"),
                "lang": batch.column("lang_pred"),
                "text": text,
            }
        )

    # prune the read to what normalize consumes — refined shards carry
    # the raw crawl text/title columns this commit never touches
    import pyarrow.parquet as pq_mod

    names = set(pq_mod.read_schema(files[0]).names)
    cols = ["url", "warc_ts", "lang_pred"] + (
        ["clean_text"] if "clean_text" in names else ["extracted_text"]
    )
    snapshot_v = latest_version(corpus_dir)
    version, out_files = write_dataset_version(
        corpus_dir,
        ensure_doc_id(ray.data.read_parquet(files, columns=cols)).map_batches(
            normalize, batch_format="pyarrow"
        ),
        mode="append" if snapshot_v is None else "overwrite",
        expected_parent=snapshot_v,
        batch_ids=[bid],
    )
    return {
        "batch_id": bid, "skipped": version is None, "files": len(out_files),
        "version": version,
    }


def run_webtext_job(
    input_dir: str,
    out_dir: str,
    robots: str | None = None,
    c4: bool = False,
    threshold: float = 0.8,
    exact_substr_n: int = 0,
    capacity: int = 2048,
    min_words: int = 5,
    num_partitions: int = 64,
    input_format: str | None = None,
) -> dict:
    # import via the jobs.* package path: module-level stage functions
    # (e.g. crawl_job._add_lang) pickle BY REFERENCE, and Ray workers
    # resolve ``jobs.crawl_job`` through the driver cwd — a bare
    # ``crawl_job`` import would leave workers unable to deserialize
    from jobs.crawl_job import run_crawl_job
    from jobs.prepare_job import (
        _pack_lineage,
        dedup_phase,
        exact_substr_phase,
        prep_pipeline,
    )
    from jobs.stream_job import _maintain_text_index

    from ctinexus_ray.state.checkpoint import run_resumable
    from ctinexus_ray.state.tableformat import latest_version, version_files

    report: dict = {}

    def phase(name, fn):
        t0 = time.perf_counter()
        stats = fn()
        stats = dict(stats or {})
        stats["sec"] = round(time.perf_counter() - t0, 2)
        stats["driver_rss_mb"] = _rss_mb()
        report[name] = stats
        return stats

    crawl_out = os.path.join(out_dir, "crawl")
    marker = os.path.join(crawl_out, "_CRAWL_SUCCESS.json")

    def crawl():
        if os.path.exists(marker):
            with open(marker) as fh:
                prior = json.load(fh)
            return {**prior, "skipped": True}
        return run_crawl_job(
            input_dir, crawl_out, robots_path=robots, c4=c4,
            input_format=input_format,
        )

    crawl_stats = phase("crawl", crawl)
    refined_dir = crawl_stats.get(
        "refined", os.path.join(crawl_out, "refined")
    )

    corpus_dir = os.path.join(out_dir, "corpus")
    phase("commit", lambda: commit_corpus(refined_dir, corpus_dir))

    index_dir = os.path.join(out_dir, "corpus_index")
    phase(
        "index",
        lambda: _maintain_text_index(corpus_dir, index_dir, num_partitions),
    )

    # prepare output is keyed by CORPUS VERSION: a new crawl snapshot
    # gets a fresh prepare run (its dedup marker would otherwise be
    # stale), while a rerun of the same snapshot skips every shard
    corpus_v = latest_version(corpus_dir)
    prep_dir = os.path.join(out_dir, "prep", f"v{corpus_v}")
    corpus_files = version_files(corpus_dir, corpus_v)

    def prepare():
        deduped_dir = os.path.join(prep_dir, "deduped")
        stats = {
            "dedup": dedup_phase(
                corpus_files, deduped_dir, threshold, num_partitions
            )
        }
        shard_src = deduped_dir
        if exact_substr_n > 0:
            despanned = os.path.join(prep_dir, "despanned")
            stats["exact_substr"] = exact_substr_phase(
                shard_src, despanned, exact_substr_n, num_partitions
            )
            shard_src = despanned
        shard_files = sorted(
            glob.glob(os.path.join(shard_src, "*.parquet"))
        )
        stats["shards"] = run_resumable(
            shard_files,
            os.path.join(prep_dir, "shards"),
            prep_pipeline(capacity, min_words),
            lineage_fn=_pack_lineage,
        )
        return stats

    phase("prepare", prepare)
    report["out"] = {
        "refined": refined_dir,
        "corpus": corpus_dir,
        "corpus_index": index_dir,
        "prep": prep_dir,
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True,
                        help="WARC or CC-parquet shard dir")
    parser.add_argument("--output", required=True)
    parser.add_argument("--robots", default=None,
                        help="parquet of (host, robots_txt)")
    parser.add_argument("--c4", action="store_true")
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--exact-substr-n", type=int, default=0)
    parser.add_argument("--capacity", type=int, default=2048)
    parser.add_argument("--min-words", type=int, default=5)
    parser.add_argument("--num-partitions", type=int, default=64)
    parser.add_argument("--input-format", choices=("parquet", "warc"),
                        default=None)
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    report = run_webtext_job(
        args.input, args.output, robots=args.robots, c4=args.c4,
        threshold=args.threshold, exact_substr_n=args.exact_substr_n,
        capacity=args.capacity, min_words=args.min_words,
        num_partitions=args.num_partitions, input_format=args.input_format,
    )
    print(json.dumps(report, indent=2))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
