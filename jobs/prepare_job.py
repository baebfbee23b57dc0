"""``ray job submit`` entrypoint for end-to-end training-data preparation:
the composed pipeline a user of this engine runs over a raw crawl.

    ray job submit --working-dir . -- \
        python jobs/prepare_job.py --input s3://bucket/docs/ --output s3://bucket/prep/

Two phases with different (honest) resume granularity:

  phase 1 — GLOBAL near-dedup (MinHash-LSH star candidates -> exact-Jaccard
  verify -> tiered distributed connected components -> anti-join) over the
  whole input. Cross-partition by nature, so it commits atomically as one
  unit: ``<out>/deduped/`` parquet + a ``_DEDUP_SUCCESS.json`` marker with
  metrics; a rerun that finds the marker skips straight to phase 2.

  phase 2 — per-partition quality filter (Gopher-style rules) -> token
  count -> sequence packing, via ``state.checkpoint.run_resumable``: each
  deduped shard commits independently as one ledgered manifest commit
  of its files and lineage, so a crashed run resumes at the first
  unfinished shard (``skipped: N`` on rerun). Packing is per-shard (pack
  ids are unique per shard via the shard id) — the standard layout where
  each output file is a self-contained bundle of training packs.

Nothing corpus-sized touches the driver in either phase. In this sandbox
the same entrypoint runs standalone:
``python jobs/prepare_job.py --input /root/testdata/sf0.01/documents.parquet --output /tmp/prep``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from pathlib import Path

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def dedup_phase(input_path: str | list[str], deduped_dir: str,
                threshold: float,
                num_partitions: int, c4: bool = False,
                c4_min_words: int = 5, c4_min_lines: int = 2) -> dict:
    """Global near-dedup -> partitioned parquet + marker. Skipped when the
    marker exists (all-or-nothing resume at phase granularity).
    ``c4`` prepends the C4 line-level cleaning recipe
    (ops/textclean.py c4_clean): pages keep only terminal-punctuated
    >=5-word lines, pages without >=2 surviving lines drop, and dedup
    then runs over the CLEANED text — the standard order (cleaning
    first makes near-dup signatures boilerplate-free). Cleaning is part
    of this phase's atomic commit, so resume semantics are unchanged."""
    import ray.data

    from ctinexus_ray.ops.dedup import minhash_dedup_keep
    from ctinexus_ray.ops.distjoin import hash_join

    marker = Path(deduped_dir) / "_DEDUP_SUCCESS.json"
    if marker.exists():
        stats = json.loads(marker.read_text())
        stats["skipped"] = True
        return stats
    # a marker-less deduped dir is a half-finished previous attempt —
    # clear it, else write_parquet APPENDS a second copy of every row
    # (the commit is data-then-marker; rerun-after-crash must start clean)
    import shutil

    shutil.rmtree(deduped_dir, ignore_errors=True)
    start = time.perf_counter()
    from ctinexus_ray.sources.documents import ensure_doc_id

    # url-keyed CC corpora gain a derived doc_id here; every later
    # phase reads the deduped parquet, which then carries it
    from ctinexus_ray.sources.flatfiles import read_corpus_auto

    # a LIST is an exact parquet file set — the versioned-table handoff
    # (webtext_job passes version_files() of the committed corpus)
    if isinstance(input_path, (list, tuple)):
        docs = ensure_doc_id(ray.data.read_parquet(list(input_path)))
    else:
        docs = ensure_doc_id(read_corpus_auto(input_path))
    from ctinexus_ray.rayutil import select_shuffle_strategy

    select_shuffle_strategy(docs)
    n_raw = None
    if c4:
        import pyarrow as pa

        from ctinexus_ray.ops.textclean import c4_clean_batch

        n_raw = docs.count()

        def clean(batch: pa.Table) -> pa.Table:
            out = c4_clean_batch(
                batch, min_words=c4_min_words, min_lines=c4_min_lines
            )
            kept = batch.filter(out.column("keep"))
            clean_kept = out.filter(out.column("keep"))
            return kept.drop_columns(["text"]).append_column(
                "text", clean_kept.column("clean_text")
            )

        docs = docs.map_batches(clean, batch_format="pyarrow")
    n_in = docs.count()
    if n_in == 0:
        raise ValueError(
            "dedup_phase: corpus is empty after cleaning — for "
            "single-line documents pass --c4-min-lines 1 (the line-level "
            "C4 recipe needs >= min_lines surviving lines per page)"
        )
    survivors = minhash_dedup_keep(
        docs, threshold=threshold, num_partitions=num_partitions,
        pair_mode="star",
    )
    kept = hash_join(
        docs, survivors, on=["doc_id"], num_partitions=num_partitions
    )
    kept.write_parquet(deduped_dir)
    n_out = ray.data.read_parquet(deduped_dir).count()
    stats = {
        "input_docs": n_in,
        "surviving_docs": n_out,
        "dropped": n_in - n_out,
        "sec": round(time.perf_counter() - start, 2),
        "skipped": False,
    }
    if n_raw is not None:
        stats["c4_input_docs"] = n_raw
        stats["c4_dropped"] = n_raw - n_in
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, indent=2))
    tmp.rename(marker)
    return stats


def exact_substr_phase(src_dir: str, out_dir: str, n: int,
                       num_partitions: int) -> dict:
    """ExactSubstr duplicated-span REMOVAL (Lee et al. 2021,
    ops/dedup.py remove_dup_spans) over the near-dedup survivors — the
    standard order: document-level near-dedup first (cheap kills), then
    span-level surgery on what remains. Word positions covered by a
    word-``n``-gram occurring at >= 2 positions corpus-wide are dropped
    and documents rebuilt; non-text payload columns ride back via one
    attach shuffle. All-or-nothing phase resume like dedup_phase."""
    import pyarrow as pa
    import ray.data

    from ctinexus_ray.ops.dedup import remove_dup_spans
    from ctinexus_ray.ops.distjoin import hash_join

    marker = Path(out_dir) / "_SPANS_SUCCESS.json"
    if marker.exists():
        stats = json.loads(marker.read_text())
        stats["skipped"] = True
        return stats
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    docs = ray.data.read_parquet(src_dir)
    payload_cols = [c for c in docs.schema().names if c != "text"]
    rewritten = remove_dup_spans(
        docs.select_columns(["doc_id", "text"]), n=n,
        num_partitions=num_partitions,
    )
    import pyarrow.compute as pc

    agg = rewritten.aggregate(
        ray.data.aggregate.Sum("n_removed", alias_name="words_removed"),
        ray.data.aggregate.Count(alias_name="docs"),
    )
    # attach the untouched payload columns back onto the rewritten text
    # (one row per input doc_id); the written column order stays
    # payload-then-text
    out = hash_join(
        docs.select_columns(payload_cols),
        rewritten.select_columns(["doc_id", "text"]),
        on=["doc_id"],
        how="left",
        num_partitions=num_partitions,
        right_types={"doc_id": pa.int64(), "text": pa.string()},
    ).select_columns([*payload_cols, "text"])
    out.write_parquet(out_dir)
    stats = {
        "docs": int(agg["docs"] or 0),
        "words_removed": int(agg["words_removed"] or 0),
        "ngram_n": n,
        "sec": round(time.perf_counter() - start, 2),
        "skipped": False,
    }
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, indent=2))
    tmp.rename(marker)
    return stats


def lm_filter_phase(deduped_dir: str, filtered_dir: str, tail_drop: float,
                    num_partitions: int) -> dict:
    """CCNet-style global LM quality filter: score every document with
    the corpus-trained unigram LM (``ops.textstats.unigram_lm_scores``)
    and drop the worst ``tail_drop`` fraction by per-token score (the
    rare-word-soup tail). The LM trains on the whole deduped corpus, so
    this phase is global like dedup and commits atomically behind a
    ``_LMFILTER_SUCCESS.json`` marker."""
    import shutil

    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.shards import global_row_number
    from ctinexus_ray.ops.textstats import unigram_lm_scores

    marker = Path(filtered_dir) / "_LMFILTER_SUCCESS.json"
    if marker.exists():
        stats = json.loads(marker.read_text())
        stats["skipped"] = True
        return stats
    shutil.rmtree(filtered_dir, ignore_errors=True)
    start = time.perf_counter()
    docs = ray.data.read_parquet(deduped_dir)
    n_in = docs.count()
    keep_n = n_in - int(n_in * tail_drop)
    scores = unigram_lm_scores(
        docs.select_columns(["doc_id", "text"])
    ).select_columns(["doc_id", "lm_score"])
    ranked = global_row_number(
        scores, ["lm_score", "doc_id"], descending=[True, False]
    )
    keep_ids = ranked.filter(expr=f"rank <= {keep_n}").select_columns(["doc_id"])
    kept = hash_join(
        docs, keep_ids, on=["doc_id"], how="left_semi",
        num_partitions=num_partitions,
    )
    kept.write_parquet(filtered_dir)
    stats = {
        "input_docs": n_in,
        "surviving_docs": keep_n,
        "dropped": n_in - keep_n,
        "tail_drop": tail_drop,
        "sec": round(time.perf_counter() - start, 2),
        "skipped": False,
    }
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, indent=2))
    tmp.rename(marker)
    return stats


def mixture_phase(src_dir: str, mixture_dir: str, weights: dict[str, int],
                  budget_tokens: int, num_partitions: int) -> dict:
    """Token-budget mixture sampling (ops/shards.py mixture_sample — the
    DoReMi/Pile training-mixture step) over the cleaned, deduped corpus:
    each source is downsampled by the content-addressed md5 threshold so
    its expected token contribution is budget * w_s / sum(w). Global
    (needs per-source token totals), so it commits atomically behind a
    marker like the dedup phase."""
    import shutil

    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.shards import mixture_sample

    marker = Path(mixture_dir) / "_MIXTURE_SUCCESS.json"
    if marker.exists():
        stats = json.loads(marker.read_text())
        stats["skipped"] = True
        return stats
    shutil.rmtree(mixture_dir, ignore_errors=True)
    start = time.perf_counter()
    docs = ray.data.read_parquet(src_dir)
    if "source" not in docs.schema().names:
        raise ValueError(
            "mixture_phase: corpus has no 'source' column — mixture "
            "weights are keyed by source; drop --mixture-weights or add "
            "the column at ingest"
        )
    n_in = docs.count()
    import pyarrow as pa

    # batch-level projection: select_columns here gets pushed upstream
    # of mixture_sample's filter stage by the optimizer and the source
    # column leaks through into the join
    kept_ids = mixture_sample(docs, weights, budget_tokens).map_batches(
        lambda b: b.select(["doc_id"]), batch_format="pyarrow"
    )
    kept = hash_join(
        docs, kept_ids, on=["doc_id"], how="left_semi",
        num_partitions=num_partitions,
        right_types={"doc_id": pa.int64()},
    )
    kept.write_parquet(mixture_dir)
    # sources absent from the weight map drop entirely; an all-dropped
    # corpus writes no files at all
    n_out = (
        ray.data.read_parquet(mixture_dir).count()
        if glob.glob(os.path.join(mixture_dir, "*.parquet"))
        else 0
    )
    stats = {
        "input_docs": n_in,
        "surviving_docs": n_out,
        "dropped": n_in - n_out,
        "budget_tokens": budget_tokens,
        "weights": weights,
        "sec": round(time.perf_counter() - start, 2),
        "skipped": False,
    }
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, indent=2))
    tmp.rename(marker)
    return stats


def tokenizer_phase(src_dir: str, tok_dir: str, kind: str,
                    n_merges: int, vocab_size: int) -> dict:
    """Train a subword tokenizer on the FINAL corpus (the text the packs
    will carry) and persist the model table as parquet: BPE merge rules
    (ops/bpe.py bpe_train, Sennrich 2016) or a unigram-LM vocabulary
    (ops/unigram.py unigram_train, Kudo 2018). Marker-gated like the
    other global phases."""
    import shutil

    import ray.data

    marker = Path(tok_dir) / "_TOKENIZER_SUCCESS.json"
    if marker.exists():
        stats = json.loads(marker.read_text())
        stats["skipped"] = True
        return stats
    shutil.rmtree(tok_dir, ignore_errors=True)
    start = time.perf_counter()
    docs = ray.data.read_parquet(src_dir).select_columns(["doc_id", "text"])
    if kind == "bpe":
        from ctinexus_ray.ops.bpe import bpe_train

        model = bpe_train(docs, n_merges=n_merges)
        out_rows = model.count()
    elif kind == "unigram":
        from ctinexus_ray.ops.unigram import unigram_train

        model = unigram_train(docs, vocab_size=vocab_size)
        out_rows = model.count()
    else:
        raise ValueError(f"tokenizer_phase: unknown kind {kind!r}")
    model.write_parquet(os.path.join(tok_dir, "model"))
    stats = {
        "kind": kind,
        "rows": out_rows,
        "sec": round(time.perf_counter() - start, 2),
        "skipped": False,
    }
    tmp = marker.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, indent=2))
    tmp.rename(marker)
    return stats


def prep_pipeline(capacity: int, min_words: int):
    """Per-shard phase-2 pipeline: quality filter -> tokens -> packs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ctinexus_ray.ops.shards import pack_sequences
    from ctinexus_ray.ops.textstats import gopher_quality_batch

    def run(ds):
        def keep_quality(batch: pa.Table):
            flags = gopher_quality_batch(batch, min_words=min_words)
            kept = batch.filter(
                pc.equal(flags.column("keep"), pa.scalar(True))
            )
            if kept.num_rows == 0:
                return
            n_words = pc.cast(
                pc.list_value_length(
                    pc.split_pattern_regex(
                        pc.utf8_trim_whitespace(kept.column("text")),
                        pattern=r"\s+",
                    )
                ),
                pa.int64(),
            )
            yield pa.Table.from_pydict(
                {
                    "doc_id": kept.column("doc_id"),
                    "text": kept.column("text"),
                    "n_tokens": n_words,
                }
            )

        # materialize once (shard-sized, bounded): `filtered` feeds BOTH
        # pack_sequences and the re-attach join — without this the
        # quality/tokenize stage executes twice per shard
        filtered = ds.map_batches(
            keep_quality, batch_format="pyarrow"
        ).materialize()
        packed = pack_sequences(filtered, capacity=capacity)
        # re-attach text for the final training shard rows
        from ctinexus_ray.ops.distjoin import hash_join

        return hash_join(
            packed,
            filtered.drop_columns(["n_tokens"]),
            on=["doc_id"],
            num_partitions=16,
            left_types={
                "doc_id": pa.int64(),
                "n_tokens": pa.int64(),
                "pack_id": pa.int64(),
            },
            right_types={"doc_id": pa.int64(), "text": pa.string()},
        )

    return run


def _pack_lineage(files: list[str]) -> dict:
    """Per-shard pack metrics, scanned from the shard's committed files
    (a shard whose every doc failed the quality gate has none)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    packs = pds.dataset(files, format="parquet", schema=pa.schema(
        [("pack_id", pa.int64()), ("n_tokens", pa.int64())])).to_table()
    return {"n_packs": len(pc.unique(packs["pack_id"])),
            "n_tokens": pc.sum(packs["n_tokens"]).as_py() or 0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True, help="parquet dir or file")
    parser.add_argument("--output", required=True)
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--capacity", type=int, default=2048,
                        help="tokens per training pack")
    parser.add_argument("--min-words", type=int, default=5)
    parser.add_argument("--lm-tail-drop", type=float, default=0.0,
                        help="drop this fraction of docs with the worst "
                             "per-token unigram-LM score (0 disables the "
                             "CCNet-style perplexity filter phase)")
    parser.add_argument("--c4-clean", action="store_true",
                        help="apply the C4 line-level cleaning recipe "
                             "before dedup (pages without enough "
                             "surviving terminal-punctuated lines drop)")
    parser.add_argument("--c4-min-words", type=int, default=5)
    parser.add_argument("--c4-min-lines", type=int, default=2,
                        help="use 1 for single-line documents")
    parser.add_argument("--exact-substr-n", type=int, default=0,
                        help="remove word n-gram duplicated spans "
                             "(ExactSubstr) after dedup; 0 = off")
    parser.add_argument("--mixture-weights", default="",
                        help="source:weight[,source:weight...] — enables "
                             "token-budget mixture sampling after dedup/"
                             "LM-filter (requires --mixture-budget)")
    parser.add_argument("--mixture-budget", type=int, default=0,
                        help="total token budget for --mixture-weights")
    parser.add_argument("--train-tokenizer", choices=["bpe", "unigram"],
                        default=None,
                        help="train a subword tokenizer on the final "
                             "corpus and persist the model table")
    parser.add_argument("--n-merges", type=int, default=30,
                        help="BPE merge count for --train-tokenizer bpe")
    parser.add_argument("--vocab-size", type=int, default=512,
                        help="vocab size for --train-tokenizer unigram")
    parser.add_argument("--num-partitions", type=int, default=64)
    args = parser.parse_args()

    mixture_weights: dict[str, int] = {}
    if args.mixture_weights:
        for part in args.mixture_weights.split(","):
            name, _, w = part.partition(":")
            mixture_weights[name.strip()] = int(w)
        if args.mixture_budget <= 0:
            parser.error("--mixture-weights requires --mixture-budget > 0")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)

    from ctinexus_ray.state.checkpoint import run_resumable

    deduped_dir = os.path.join(args.output, "deduped")
    shards_dir = os.path.join(args.output, "shards")

    dedup_stats = dedup_phase(
        args.input, deduped_dir, args.threshold, args.num_partitions,
        c4=args.c4_clean, c4_min_words=args.c4_min_words,
        c4_min_lines=args.c4_min_lines,
    )
    shard_src = deduped_dir
    spans_stats = None
    if args.exact_substr_n > 0:
        despanned_dir = os.path.join(args.output, "despanned")
        spans_stats = exact_substr_phase(
            shard_src, despanned_dir, args.exact_substr_n,
            args.num_partitions,
        )
        shard_src = despanned_dir
    lm_stats = None
    if args.lm_tail_drop > 0:
        filtered_dir = os.path.join(args.output, "lm_filtered")
        lm_stats = lm_filter_phase(
            shard_src, filtered_dir, args.lm_tail_drop, args.num_partitions
        )
        shard_src = filtered_dir
    mixture_stats = None
    if mixture_weights:
        mixture_dir = os.path.join(args.output, "mixture")
        mixture_stats = mixture_phase(
            shard_src, mixture_dir, mixture_weights, args.mixture_budget,
            args.num_partitions,
        )
        shard_src = mixture_dir
    shard_files = sorted(glob.glob(os.path.join(shard_src, "*.parquet")))
    summary = run_resumable(
        shard_files,
        shards_dir,
        prep_pipeline(args.capacity, args.min_words),
        lineage_fn=_pack_lineage,
    )
    report = {"dedup": dedup_stats, "shards": summary}
    if spans_stats is not None:
        report["exact_substr"] = spans_stats
    if lm_stats is not None:
        report["lm_filter"] = lm_stats
    if mixture_stats is not None:
        report["mixture"] = mixture_stats
    if args.train_tokenizer:
        report["tokenizer"] = tokenizer_phase(
            shard_src, os.path.join(args.output, "tokenizer"),
            args.train_tokenizer, args.n_merges, args.vocab_size,
        )
    print(json.dumps(report, indent=2))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
