"""``ray job submit`` entrypoint for the crawl-refinement pipeline — the
webtext front half that feeds every downstream job (kg_job, dedup_job,
prepare_job):

    WARC / CC-parquet shards
      -> robots.txt politeness verdict (RFC 9309, broadcast rule index)
      -> E0-E3 hybrid html->text extraction (byte-identical per url)
      -> language ID (stopword profiles)
      -> optional C4 line-level cleaning (Raffel et al.)
      -> canonical-URL dedup (latest capture wins)
      -> partitioned parquet

On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/crawl_job.py --input s3://bucket/warc/ --output s3://bucket/refined/

Resume shape (the repo-wide two-phase pattern): the per-shard stages
commit through ``state/checkpoint.run_resumable`` (one ledgered
manifest commit of the shard's files and lineage per input shard; a
rerun reports ``skipped: N``), with ALL rows kept and the robots / C4
verdicts stored as BOOLEAN columns — accounting survives the
checkpoint, and the cheap derived phase (filter -> canonicalize ->
keep-latest -> final parquet) is idempotent and re-runs from the
checkpoint's latest version alone.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time
from pathlib import Path

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def _add_lang(batch):
    """lang_pred / n_chars over the extracted text (stopword profiles —
    the langid_batch rule, keyed here by url instead of doc_id)."""
    import pyarrow as pa

    from ctinexus_ray.ops.textstats import LANG_PROFILES, _tokens

    texts = batch.column("extracted_text").to_pylist()
    preds = []
    for t in texts:
        toks = [w.lower() for w in _tokens(t or "")]
        best_lang, best_hits = "und", 0
        for lang, profile in LANG_PROFILES.items():
            hits = sum(1 for w in toks if w in profile)
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        preds.append(best_lang)
    out = batch.append_column("lang_pred", pa.array(preds, type=pa.string()))
    return out.append_column(
        "n_chars",
        pa.array([len(t or "") for t in texts], type=pa.int64()),
    )


def run_crawl_job(
    input_dir: str,
    output_dir: str,
    robots_path: str | None = None,
    c4: bool = False,
    input_format: str | None = None,
) -> dict:
    """Run (or resume) the crawl-refinement job; returns the stats dict."""
    import pyarrow as pa
    import ray
    import ray.data

    from ctinexus_ray.ops.urlops import canonicalize_url_batch, keep_latest_by_key
    from ctinexus_ray.ops.weblinks import _RobotsIndex, parse_robots
    from ctinexus_ray.stages.extract import extract_batch
    from ctinexus_ray.state.checkpoint import run_resumable

    out = Path(output_dir)
    marker = out / "_CRAWL_SUCCESS.json"
    start = time.perf_counter()

    base = input_dir.rstrip("/")
    warc_files = sorted(
        glob.glob(f"{base}/*.warc") + glob.glob(f"{base}/*.warc.gz")
    )
    pq_files = sorted(glob.glob(f"{base}/*.parquet"))
    fmt = input_format
    if fmt is None:
        fmt = "warc" if (warc_files or base.endswith((".warc", ".warc.gz"))) else "parquet"
    files = {"warc": warc_files, "parquet": pq_files}[fmt] or [input_dir]
    if fmt == "warc":
        from ctinexus_ray.sources.warc import read_warc as reader
    else:
        from ctinexus_ray.sources.documents import read_cc as reader

    # robots rules: host-cardinality side, parsed+compiled ONCE and
    # broadcast (ray.put), read inside every task — never reshipped
    idx_ref = None
    if robots_path:
        from ctinexus_ray.ops.distjoin import BROADCAST_MAX_ROWS as cap

        robots_tbl = ray.data.read_parquet(robots_path).take(cap + 1)
        if len(robots_tbl) > cap:
            raise ValueError(f"crawl_job: robots hosts exceed BROADCAST_MAX_ROWS={cap}")
        idx_ref = ray.put(
            _RobotsIndex(
                {r["host"]: parse_robots(r["robots_txt"] or "") for r in robots_tbl}
            )
        )

    def mark_robots(batch: pa.Table) -> pa.Table:
        import numpy as np

        if idx_ref is None:
            return batch.append_column(
                "robots_allowed",
                pa.array([True] * batch.num_rows, type=pa.bool_()),
            )
        idx = ray.get(idx_ref)
        urls = batch.column("url").to_pylist()
        outv = np.empty(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            u = u or ""
            rest = u.split("://", 1)[1] if "://" in u else ""
            host, _, path = rest.partition("/")
            outv[i] = idx.allowed(host, "/" + path)
        return batch.append_column(
            "robots_allowed", pa.array(outv, type=pa.bool_())
        )

    def mark_c4(batch: pa.Table) -> pa.Table:
        if not c4:
            return batch.append_column(
                "c4_keep", pa.array([True] * batch.num_rows, type=pa.bool_())
            )
        from ctinexus_ray.ops.textclean import c4_clean_batch

        cleaned = c4_clean_batch(batch, text_col="extracted_text", id_col="url")
        # c4_clean_batch is row-aligned with its input: zip columns back
        out_t = batch.append_column("c4_keep", cleaned.column("keep"))
        return out_t.append_column("clean_text", cleaned.column("clean_text"))

    def pipeline(ds: ray.data.Dataset) -> ray.data.Dataset:
        return (
            ds.map_batches(mark_robots, batch_format="pyarrow")
            .map_batches(extract_batch, batch_format="pyarrow")
            .map_batches(_add_lang, batch_format="pyarrow")
            .map_batches(mark_c4, batch_format="pyarrow")
            .drop_columns(["cti_text"])  # kg-specific; kg_job derives it
        )

    def lineage_fn(files: list[str]) -> dict:
        import pyarrow.compute as pc
        import pyarrow.dataset as pds

        flags = pds.dataset(files, format="parquet", schema=pa.schema(
            [("robots_allowed", pa.bool_()), ("c4_keep", pa.bool_())])).to_table()
        return {"robots_allowed": pc.sum(flags["robots_allowed"]).as_py() or 0,
                "c4_kept": pc.sum(flags["c4_keep"]).as_py() or 0}

    pages_dir = out / "pages"
    summary = run_resumable(
        files, pages_dir, pipeline, reader=reader, lineage_fn=lineage_fn
    )
    # fold the per-shard lineage into job totals (covers resumed shards
    # too — the lineage records ARE the accounting record)
    from ctinexus_ray.state.checkpoint import read_lineage

    lineage = read_lineage(pages_dir)
    summary["robots_allowed"] = sum(r.get("robots_allowed", 0) for r in lineage)
    summary["c4_kept"] = sum(r.get("c4_kept", 0) for r in lineage)

    # ---- derived phase: idempotent over the checkpoint ----
    import pyarrow.dataset as pds

    from ctinexus_ray.state.tableformat import read_version

    final_dir = out / "refined"
    shutil.rmtree(final_dir, ignore_errors=True)  # write_parquet appends
    # the latest version only: a crashed shard run's files are not in it
    pages = read_version(
        str(pages_dir),
        filter=(pds.field("robots_allowed") & pds.field("c4_keep")),
    )
    n_eligible = pages.count()
    canon = pages.map_batches(
        lambda t: canonicalize_url_batch(t, col="url", out="canon_url"),
        batch_format="pyarrow",
    )
    survivors = keep_latest_by_key(
        canon, key="canon_url", order_cols=["warc_ts", "url"]
    )
    survivors.write_parquet(str(final_dir))
    n_final = ray.data.read_parquet(str(final_dir)).count()

    stats = {
        **summary,
        "eligible_pages": n_eligible,
        "refined_pages": n_final,
        "url_dups_dropped": n_eligible - n_final,
        "sec": round(time.perf_counter() - start, 2),
        "pages": str(pages_dir),
        "refined": str(final_dir),
    }
    tmp = str(marker) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, marker)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True,
                        help="dir of .warc(.gz) or CC-shaped .parquet shards")
    parser.add_argument("--output", required=True)
    parser.add_argument("--robots", default=None,
                        help="parquet of (host, robots_txt) politeness rules")
    parser.add_argument("--c4", action="store_true",
                        help="apply C4 line-level cleaning")
    parser.add_argument("--input-format", choices=("parquet", "warc"),
                        default=None)
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    stats = run_crawl_job(
        args.input, args.output, robots_path=args.robots, c4=args.c4,
        input_format=args.input_format,
    )
    print(json.dumps(stats, indent=2))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
