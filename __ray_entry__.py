"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline at sf0.001; ``queries()`` exposes
one callable per implemented operator/pipeline (SURVEY §2 + the
training-data ops); ``oracle_sql()`` provides DuckDB-equivalent SQL for
every SQL-expressible query (column names match exactly).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

import ctinexus_ray  # noqa: F401 — applies engine-wide Ray Data context
# defaults (empty-shuffle-partition schema unification; rayutil.py) for
# every query, including the ones built purely from ray.data primitives

SF0001 = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: Common-Crawl-shaped documents -> extract -> IE/ET/EA/LP ->
    flat triples table."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import build_kg
    from ctinexus_ray.sources.documents import read_testdata_as_cc

    docs = read_testdata_as_cc(SF0001)
    out = build_kg(docs, PipelineConfig())
    return out["triples"]


# ---------------------------------------------------------------------------
# query helpers
# ---------------------------------------------------------------------------


def _rename(ds, mapping: dict[str, str]):
    def fn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [mapping.get(name, name) for name in batch.column_names]
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _docs(sf_dir: str, columns=None):
    from ctinexus_ray.sources.documents import read_testdata_documents

    return read_testdata_documents(sf_dir, columns=columns)


# --- relational / aggregate queries ----------------------------------------


def _q_doc_stats_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _docs(sf_dir, ["lang", "n_chars"])
    agg = ds.groupby("lang").aggregate(Count(), Sum("n_chars"))
    return _rename(agg, {"count()": "n_docs", "sum(n_chars)": "total_chars"})


def _q_top_docs_by_chars(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


def _q_token_counts(sf_dir: str):
    from ctinexus_ray.ops.textstats import token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow"
    )


def _q_token_counts_bpe(sf_dir: str):
    from ctinexus_ray.ops.textstats import bpe_token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        bpe_token_count_batch, batch_format="pyarrow"
    )


def _q_winnow_fingerprints(sf_dir: str):
    from ctinexus_ray.ops.textstats import winnow_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        winnow_batch, batch_format="pyarrow"
    )


def _q_dedup_exact(sf_dir: str):
    from ctinexus_ray.ops.dedup import exact_dedup_groups

    return exact_dedup_groups(_docs(sf_dir, ["doc_id", "text"]))


def _q_doc_fingerprints(sf_dir: str):
    from ctinexus_ray.ops.textstats import fingerprint_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def _q_quality_scores(sf_dir: str):
    from ctinexus_ray.ops.textstats import quality_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )


def _q_doc_chunks(sf_dir: str):
    """Training-shard chunking: fixed 400-char windows with 100-char
    overlap (stride 300), vectorized slicing — one kernel pass per chunk
    index over the whole batch (``ops/shards.py``)."""
    from ctinexus_ray.ops.shards import chunk_documents

    return chunk_documents(
        _docs(sf_dir, ["doc_id", "text"]), chunk_chars=400, overlap=100
    )


def _q_gopher_quality(sf_dir: str):
    """Gopher-style quality rules (word-count bounds, mean word length,
    alphabetic ratio) -> keep flag; fully vectorized Arrow kernels."""
    from ctinexus_ray.ops.textstats import gopher_quality_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gopher_quality_batch, batch_format="pyarrow"
    )


def _q_pack_sequences(sf_dir: str):
    """GPT-style sequence packing via a distributed two-phase prefix sum
    (per-range partials -> O(P) driver scan -> broadcast offsets); the
    oracle is the equivalent SQL window cumsum."""
    from ctinexus_ray.ops.shards import pack_sequences
    from ctinexus_ray.ops.textstats import token_count_batch

    toks = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow"
    )
    return pack_sequences(toks, capacity=2048)


def _q_leakage_safe_split(sf_dir: str):
    """Group-stable train/val/test assignment: md5-bucketed on the
    source/domain so near-duplicate pages of one site can't straddle
    train and test."""
    from ctinexus_ray.ops.shards import leakage_safe_split

    return leakage_safe_split(_docs(sf_dir, ["doc_id", "source"]))


def _q_bigram_freq_top100(sf_dir: str):
    """Adjacent-word-pair frequencies, map-side combined per batch before
    one hash-partitioned sum (same shape as word_freq_top100)."""
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import bigram_explode_batch

    partials = _docs(sf_dir, ["text"]).map_batches(
        bigram_explode_batch, batch_format="pyarrow"
    )
    totals = partitioned_agg(
        partials, keys=["bigram"], named_aggs={"n": ("n", "sum")}
    )
    return totals.sort(["n", "bigram"], descending=[True, False]).limit(100)


def _q_tfidf_top_terms(sf_dir: str):
    """Distributed TF-IDF: exploded term frequencies JOIN per-word
    document frequencies (two-large-sides hash join — no driver vocab),
    libm-exact idf, distributed row_number window for the per-doc top-5."""
    from ctinexus_ray.ops.textstats import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir, ["doc_id", "text"]), k=5)


def _q_dedup_incremental(sf_dir: str):
    """Incremental-ingestion dedup: drop any NEW document (odd doc_id)
    whose md5 fingerprint already exists in the KNOWN index (even
    doc_ids) — a distributed anti-join on fingerprint, the shape of
    deduping a fresh crawl shard against an existing corpus index
    without rescanning the corpus text."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.textstats import fingerprint_batch

    fps = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )

    def odd(batch):
        t = batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 1)
        )
        if t.num_rows:
            yield t

    def even_fp_only(batch):
        t = batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 0)
        )
        if t.num_rows:
            yield t.select(["fp"])

    new_docs = fps.map_batches(odd, batch_format="pyarrow")
    known = fps.map_batches(even_fp_only, batch_format="pyarrow")
    surviving = hash_join(
        new_docs,
        known,
        on=["fp"],
        how="left_anti",
        left_types={"fp": pa.string(), "doc_id": pa.int64()},
        right_types={"fp": pa.string()},
    )
    return surviving.select_columns(["doc_id", "fp"])


def _q_distinct_words_exact(sf_dir: str):
    """Exact distinct-word count via the hash-partitioned distinct
    (vocabulary-scale shuffle) — the anchor the HLL sketch is judged
    against."""
    import pandas as pd

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import word_explode_batch

    partials = _docs(sf_dir, ["text"]).map_batches(
        word_explode_batch, batch_format="pyarrow"
    )
    n = partitioned_agg(
        partials, keys=["word"], named_aggs={"n": ("n", "sum")}
    ).count()
    return pd.DataFrame({"n_distinct": pd.array([n], dtype="int64")})


def _q_vocab_overlap_exact(sf_dir: str):
    """Exact vocabulary set-operation cardinalities between the English
    and German sub-corpora (union / intersect / both differences of the
    distinct-word sets): side-flagged word partials (per-batch combined),
    ONE hash-partitioned reduce taking max(flag) per word, then a tiny
    flag-combo count — the anchor the HLL sketch twin is judged against.
    """
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import word_explode_batch

    def explode(batch: pa.Table):
        # ONE corpus scan emits both side flags: per batch, each
        # language slice explodes separately (per-batch combined) with
        # its flag column — no second read/tokenize pass
        for lang, fl, fr in (("en", 1, 0), ("de", 0, 1)):
            import pyarrow.compute as pc

            t = batch.filter(pc.equal(batch.column("lang"), lang))
            if t.num_rows == 0:
                continue
            words = word_explode_batch(t).column("word")
            n = len(words)
            yield pa.Table.from_pydict(
                {
                    "word": words,
                    "l": pa.array([fl] * n, type=pa.int64()),
                    "r": pa.array([fr] * n, type=pa.int64()),
                }
            )

    flagged = partitioned_agg(
        _docs(sf_dir, ["text", "lang"]).map_batches(
            explode, batch_format="pyarrow"
        ),
        keys=["word"],
        named_aggs={"l": ("l", "max"), "r": ("r", "max")},
    )

    def combo_counts(batch: pa.Table):
        l = batch.column("l").to_numpy(zero_copy_only=False)
        r = batch.column("r").to_numpy(zero_copy_only=False)
        both = int(((l == 1) & (r == 1)).sum())
        only_l = int(((l == 1) & (r == 0)).sum())
        only_r = int(((l == 0) & (r == 1)).sum())
        yield pa.Table.from_pydict(
            {
                "op": pa.array(
                    ["union", "intersect", "except_left", "except_right"],
                    type=pa.string(),
                ),
                "n": pa.array(
                    [both + only_l + only_r, both, only_l, only_r],
                    type=pa.int64(),
                ),
            }
        )

    return partitioned_agg(
        flagged.map_batches(combo_counts, batch_format="pyarrow"),
        keys=["op"],
        named_aggs={"n": ("n", "sum")},
        num_partitions=1,
    )


def _q_vocab_overlap_hll(sf_dir: str):
    """HLL twin of vocab_overlap_exact: two 2^14-register sketches
    (fixed-size side-tagged partials, elementwise-max merges — neither
    vocabulary ever shuffles), union by register max, intersection by
    inclusion-exclusion. The constant-memory corpus-overlap /
    contamination-screening shape at 100 TB. ✓SQL: the registers are
    replicated bit-for-bit in DuckDB (_sketch_oracles), so the sketch
    estimate itself is an exact oracle; accuracy vs the exact twin is
    still pinned in tests/test_sketch.py.
    """
    from ctinexus_ray.ops.sketch import hll_set_cardinalities
    from ctinexus_ray.ops.textstats import word_explode_batch

    def words(lang: str):
        return (
            _docs(sf_dir, ["text", "lang"])
            .filter(expr=f"lang == '{lang}'")
            .select_columns(["text"])
            .map_batches(word_explode_batch, batch_format="pyarrow")
        )

    return hll_set_cardinalities(words("en"), words("de"), "word")


def _q_distinct_words_approx(sf_dir: str):
    """HyperLogLog distinct-word estimate (p=14, ~0.8% standard error):
    fixed-size register partials, elementwise-max merge — the
    100 TB-safe replacement for the exact vocabulary shuffle. ✓SQL
    (bit-identical registers via _sketch_oracles); accuracy pinned in
    tests/test_sketch.py."""
    from ctinexus_ray.ops.sketch import hll_distinct
    from ctinexus_ray.ops.textstats import word_explode_batch

    words = _docs(sf_dir, ["text"]).map_batches(
        word_explode_batch, batch_format="pyarrow"
    )
    return hll_distinct(words, "word")


def _q_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters over words (k=1024): mergeable
    fixed-size summaries instead of the exact all-vocabulary shuffle;
    every word with frequency > N/1024 is guaranteed present. ✓SQL: k
    exceeds this corpus's vocabulary, so MG never evicts and the sketch
    IS the exact count (exact anchor = word_freq_top100)."""
    from ctinexus_ray.ops.sketch import misra_gries_topk
    from ctinexus_ray.ops.textstats import word_explode_batch

    # reuse the per-batch combined (word, n) partials and weighted-insert
    # them into the MG summary — no re-explode of raw occurrences
    partials = _docs(sf_dir, ["text"]).map_batches(
        word_explode_batch, batch_format="pyarrow"
    )
    return misra_gries_topk(partials, "word", k=1024, top=50, weight="n")


def _q_word_freq_top100(sf_dir: str):
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import word_explode_batch

    partials = _docs(sf_dir, ["text"]).map_batches(
        word_explode_batch, batch_format="pyarrow"
    )
    # vocabulary grows with the corpus -> hash-partitioned vectorized sum
    totals = partitioned_agg(
        partials, keys=["word"], named_aggs={"n": ("n", "sum")}
    )
    return totals.sort(["n", "word"], descending=[True, False]).limit(100)


# --- dedup / similarity ------------------------------------------------------


def _q_similarity_topk(sf_dir: str):
    from ctinexus_ray.ops.simsearch import self_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = self_topk(read_testdata_embeddings(sf_dir), n_queries=10, k=5)
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_ngram_jaccard_pairs(sf_dir: str):
    from ctinexus_ray.ops.dedup import ngram_jaccard_pairs

    docs = _docs(sf_dir, ["doc_id", "text"])
    # SQL mirror keeps docs with >= 3 words; testdata docs always qualify,
    # but filter anyway for strict parity
    def keep(batch: pa.Table) -> pa.Table:
        mask = [len((t or "").strip().split()) >= 3 for t in batch.column("text").to_pylist()]
        return batch.filter(pa.array(mask))

    return ngram_jaccard_pairs(
        docs.map_batches(keep, batch_format="pyarrow"),
        n=3,
        threshold=0.5,
        max_posting=10**9,
    )


def _q_mmr_topk(sf_dir: str):
    """Maximal-marginal-relevance diverse top-k (lam=0.7, pool=50):
    exact top-pool candidate cut corpus-side (broadcast query matrix,
    batch-local cuts), greedy re-rank on the bounded shortlist.
    Rows-only by design (the greedy is sequential, not
    SQL-expressible); anchored by tests/test_semdedup.py::TestMmrTopk —
    lam=1.0 equals self_topk exactly, whose twin similarity_topk is
    oracle-checked."""
    from ctinexus_ray.ops.simsearch import mmr_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    return mmr_topk(
        read_testdata_embeddings(sf_dir), n_queries=10, k=5, pool=50,
        lam=0.7,
    )


def _q_ann_ivf(sf_dir: str):
    """IVF approximate nearest neighbors (scale path). Full-probe
    configuration so the result is exactly the brute-force ranking and
    the similarity_topk SQL oracle applies."""
    from ctinexus_ray.ops.simsearch import ivf_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = ivf_topk(
        read_testdata_embeddings(sf_dir),
        n_queries=10,
        k=5,
        n_centroids=16,
        n_probe=16,
    )
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_ann_lsh(sf_dir: str):
    """Multi-table hyperplane-LSH approximate top-k (candidates = bucket
    mates in any table; approximate -> rows-only, recall pinned by
    tests)."""
    from ctinexus_ray.ops.simsearch import lsh_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = lsh_topk(
        read_testdata_embeddings(sf_dir), n_queries=10, k=5, n_planes=4, n_tables=8
    )
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_ann_nsw(sf_dir: str):
    """Graph-based approximate top-k: per-block navigable-small-world
    graphs + beam search, exact cross-block merge. ✓SQL: exhaustive-ef
    == brute force by construction at this corpus (recall >= 0.8 pinned
    in tests for the beam regime)."""
    from ctinexus_ray.ops.simsearch import nsw_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = nsw_topk(
        read_testdata_embeddings(sf_dir), n_queries=10, k=5, m=8, ef=48
    )
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_embedding_neardup_lsh(sf_dir: str):
    """Bucketed (hyperplane-LSH) near-dup — sublinear scale path;
    approximate, so rows-only (subset property is pinned by tests)."""
    from ctinexus_ray.ops.dedup import embedding_dup_pairs_lsh
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    return embedding_dup_pairs_lsh(
        read_testdata_embeddings(sf_dir), threshold=0.35, n_planes=4
    )


def _q_simhash_pairs(sf_dir: str):
    from ctinexus_ray.ops.dedup import simhash_dup_pairs

    return simhash_dup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming=3)


def _q_minhash_keep(sf_dir: str):
    from ctinexus_ray.ops.dedup import minhash_dedup_keep

    return minhash_dedup_keep(_docs(sf_dir, ["doc_id", "text"]), threshold=0.5)


def _q_embedding_neardup(sf_dir: str):
    from ctinexus_ray.ops.dedup import embedding_dup_pairs
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    return embedding_dup_pairs(read_testdata_embeddings(sf_dir), threshold=0.35)


def _q_minhash_pairs(sf_dir: str):
    from ctinexus_ray.ops.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_docs(sf_dir, ["doc_id", "text"]), threshold=0.5)


def _q_simhash(sf_dir: str):
    from ctinexus_ray.ops.dedup import simhash_signatures

    return simhash_signatures(_docs(sf_dir, ["doc_id", "text"]))


def _q_corpus_clean(sf_dir: str):
    """Composed training-data cleaning pipeline: quality gate (>= 5
    words) -> exact-dedup survivors (min doc_id per identical text).
    Streams end to end; one text-keyed shuffle."""
    from ctinexus_ray.ops.dedup import exact_dedup_groups

    def quality_gate(batch: pa.Table) -> pa.Table:
        mask = [
            len((t or "").strip().split()) >= 5
            for t in batch.column("text").to_pylist()
        ]
        return batch.filter(pa.array(mask))

    filtered = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_gate, batch_format="pyarrow"
    )
    return exact_dedup_groups(filtered).select_columns(["doc_id"])


def _q_langid(sf_dir: str):
    from ctinexus_ray.ops.textstats import langid_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow"
    )


# --- relational / temporal ---------------------------------------------------


def _events(sf_dir: str, columns=None):
    """Events table read. Always pass ``columns`` from query call sites so
    the scan prunes at the parquet reader — ``props`` (a JSON string) is by
    far the widest column and almost no query needs it."""
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _q_events_hourly(sf_dir: str):
    from ctinexus_ray.ops.relational import hourly_event_counts

    return hourly_event_counts(_events(sf_dir, ["ts", "event_type"]))


def _q_event_sessions(sf_dir: str):
    from ctinexus_ray.ops.relational import sessionize

    return sessionize(_events(sf_dir, ["event_id", "ts", "user_id"]), gap_seconds=1800)


def _nation_names(sf_dir: str, key: str, region: str | None = None):
    """(``key``, n_name) per nation, the nation key renamed to the fact
    side's column for ``broadcast_join``; only the nations of ``region``
    when one is named (the nation -> region dimension snowflake)."""
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join

    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    if region is not None:
        regions = ray.data.read_parquet(
            f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
        ).rename_columns({"r_regionkey": "n_regionkey"})
        nation = broadcast_join(nation, regions, on=["n_regionkey"]).filter(
            expr=f"r_name == '{region}'"
        )
    return nation.select_columns(["n_nationkey", "n_name"]).rename_columns(
        {"n_nationkey": key}
    )


def _q_orders_per_customer(sf_dir: str):
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns({"c_custkey": "o_custkey"})
    counted = partitioned_agg(
        orders, keys=["o_custkey"], named_aggs={"n": ("o_custkey", "size")}
    )
    return (
        broadcast_join(counted, customer, on=["o_custkey"], how="left")
        .rename_columns({"o_custkey": "key"})
        .select_columns(["key", "c_mktsegment", "n"])
    )


def _q_customers_per_region(sf_dir: str):
    """Snowflake join chain (customer -> nation -> region) via chained
    broadcast joins — the big side never shuffles; one tiny groupby."""
    import ray.data
    from ray.data.aggregate import Count

    from ctinexus_ray.ops.distjoin import broadcast_join

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).rename_columns({"n_nationkey": "c_nationkey"})
    region = ray.data.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).rename_columns({"r_regionkey": "n_regionkey"})
    step1 = broadcast_join(customer, nation, on=["c_nationkey"])
    step2 = broadcast_join(step1, region, on=["n_regionkey"])
    agg = step2.groupby("r_name").aggregate(Count())
    return _rename(agg, {"count()": "n_customers"})


def _q_top_suppliers_by_lineitems(sf_dir: str):
    """Aggregate + broadcast join + deterministic top-k."""
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]
    )
    supplier = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).rename_columns({"s_suppkey": "l_suppkey"})
    counted = partitioned_agg(
        lineitem, keys=["l_suppkey"], named_aggs={"n": ("l_suppkey", "size")}
    )
    counted = (
        broadcast_join(counted, supplier, on=["l_suppkey"], how="left")
        .rename_columns({"l_suppkey": "key"})
        .select_columns(["key", "s_name", "n"])
    )
    return counted.sort(["n", "key"], descending=[True, False]).limit(10)


def _q_orders_customer_join(sf_dir: str):
    """Two-large-sides distributed hash join (ops.distjoin.hash_join): the
    shuffle counterpart of the broadcast joins — both sides stream, no
    driver state. Orders x customer row-level join output."""
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    )

    def key_as_custkey(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["o_custkey", "c_name", "c_mktsegment"])

    return hash_join(
        orders,
        customer.map_batches(key_as_custkey, batch_format="pyarrow"),
        on=["o_custkey"],
    )


def _q_dup_components(sf_dir: str):
    """Distributed connected components over the exact n-gram-Jaccard
    duplicate graph (ops.distjoin.connected_components: iterated min-label
    propagation + pointer jumping; only a scalar per round on the driver).
    label = smallest doc_id in the component — the dedup survivor rule."""
    from ctinexus_ray.ops.distjoin import connected_components

    pairs = _q_ngram_jaccard_pairs(sf_dir)
    return connected_components(pairs)


def _q_dedup_keep_best(sf_dir: str):
    """Quality-aware near-dup survivor selection: instead of the
    smallest-id rule, each duplicate cluster (connected components over
    the exact n-gram-Jaccard graph) keeps its LONGEST document (tie ->
    smallest id) — the curation policy that preserves the fullest
    snapshot of a re-crawled page. Components + one quality join + one
    per-cluster arg-extremum + an anti-join for singletons. ✓SQL
    (recursive-CTE components + QUALIFY argmax twin)."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import grouped_arg_extremum

    labels = _q_dup_components(sf_dir)  # (node, label)

    def ren(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("node").cast(pa.int64()),
                "label": batch.column("label").cast(pa.int64()),
            }
        )

    labeled = hash_join(
        labels.map_batches(ren, batch_format="pyarrow"),
        _docs(sf_dir, ["doc_id", "n_chars"]),
        on=["doc_id"],
        num_partitions=16,
        left_types={"doc_id": pa.int64(), "label": pa.int64()},
        right_types={"doc_id": pa.int64(), "n_chars": pa.int64()},
    )

    def negate(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg", pc.negate(batch.column("n_chars").cast(pa.int64()))
        )

    best = grouped_arg_extremum(
        labeled.map_batches(negate, batch_format="pyarrow"),
        keys=["label"],
        order_col="neg",
        tie_col="doc_id",
        payload_cols=["doc_id"],
        num_partitions=16,
    )

    def pick(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"doc_id": batch.column("first_doc_id").cast(pa.int64())}
        )

    singles = hash_join(
        _docs(sf_dir, ["doc_id"]),
        labels.select_columns(["node"]).rename_columns({"node": "doc_id"}),
        on=["doc_id"],
        how="left_anti",
        num_partitions=16,
        right_types={"doc_id": pa.int64()},
    )
    return best.map_batches(pick, batch_format="pyarrow").union(singles)


def _q_top_orders_per_customer(sf_dir: str):
    """Distributed row_number() window: top-3 orders per customer by
    (totalprice desc, orderkey asc). One hash shuffle, vectorized rank."""
    import ray.data

    from ctinexus_ray.ops.relational import grouped_topn

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderkey"],
    )
    return grouped_topn(
        orders, "o_custkey", "o_totalprice", n=3, tiebreak_col="o_orderkey"
    )


def _q_events_asof_purchase(sf_dir: str):
    """As-of join (Ray Data lacks one — composed as a by-key co-shuffle +
    per-partition pandas merge_asof): every click event gains the user's
    most recent purchase at or before it."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.relational import asof_join

    def to_epoch(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "value": batch.column("value"),
            }
        )

    ev = _events(
        sf_dir, ["event_id", "user_id", "ts", "event_type", "value"]
    )
    clicks = ev.filter(expr="event_type == 'click'").map_batches(
        to_epoch, batch_format="pyarrow"
    )
    purchases = ev.filter(expr="event_type == 'purchase'").map_batches(
        to_epoch, batch_format="pyarrow"
    )
    joined = asof_join(
        clicks,
        purchases,
        by="user_id",
        on="ts_us",
        right_attach=["event_id", "value"],
    )

    def rename(batch: pa.Table) -> pa.Table:
        mapping = {
            "event_id_right": "purchase_event_id",
            "value_right": "purchase_value",
            "value": "click_value",
        }
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names]
        )

    return joined.map_batches(rename, batch_format="pyarrow")


def _q_tpch_q3_topk(sf_dir: str):
    """TPC-H Q3 shape: a 3-table distributed join chain
    (customer filter -> orders -> lineitem via two ops.distjoin.hash_join
    shuffles), row-level revenue kernel, hash-partitioned group sum,
    sort + limit 10. Both large sides stream; no driver state."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    # row filters pushed INTO the parquet read: predicate + row-group
    # statistics pruning happen at storage, so filtered rows never leave
    # the scan (the shape that matters when lineitem is 100 TB)
    cutoff_dt = datetime.datetime(1998, 6, 1)

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filter=(pds.field("c_mktsegment") == "BUILDING"),
    )

    def cust_keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"o_custkey": batch.column("c_custkey").cast(pa.int64()),
             "c_is_building": pa.array([True] * len(batch))}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pds.field("o_orderdate") < cutoff_dt),
    )

    building_orders = hash_join(
        orders,
        customer.map_batches(cust_keyed, batch_format="pyarrow"),
        on=["o_custkey"],
    )

    def orders_keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"l_orderkey": batch.column("o_orderkey"),
             "o_orderdate": batch.column("o_orderdate")}
        )

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pds.field("l_shipdate") > cutoff_dt),
    )

    def revenue(batch: pa.Table) -> pa.Table:
        # integer CENTS via per-row FLOOR(x*100 + 0.5): a distributed
        # double sum is summation-order-dependent (measured 6e-11 drift
        # vs DuckDB) and would never hash-match a strict value-hash
        # oracle; integer sums are order-independent and exact
        rev = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        return pa.Table.from_pydict(
            {"l_orderkey": batch.column("l_orderkey"),
             "o_orderdate": batch.column("o_orderdate"),
             "rev": rev}
        )

    def drop_shipdate(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["l_shipdate"])

    joined = hash_join(
        lineitem.map_batches(drop_shipdate, batch_format="pyarrow"),
        building_orders.map_batches(orders_keyed, batch_format="pyarrow"),
        on=["l_orderkey"],
    ).map_batches(revenue, batch_format="pyarrow")

    grouped = partitioned_agg(
        joined,
        keys=["l_orderkey", "o_orderdate"],
        named_aggs={"revenue_cents": ("rev", "sum")},
    )
    return grouped.sort(
        ["revenue_cents", "l_orderkey"], descending=[True, False]
    ).limit(10)


def _q_event_windows(sf_dir: str):
    """Per-user rolling 3-row sum + lag delta (distributed SQL window
    functions) in exact integer arithmetic."""
    from ctinexus_ray.ops.relational import rolling_user_windows

    return rolling_user_windows(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"]), window=3
    )


def _q_doc_sample(sf_dir: str):
    """Deterministic content-addressed sampling (md5-bucketed, stable
    under resharding) — pure filter, no shuffle, no RNG state."""
    from ctinexus_ray.ops.shards import deterministic_sample

    return deterministic_sample(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]), pct=5
    )


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: training docs flagged when any word
    8-gram collides with the held-out 'benchmark' slice (doc_id % 50 == 0).
    Benchmark n-grams broadcast once; the corpus side never shuffles."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.textstats import decontaminate

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _mod_filter(want_zero: bool):
        def fn(batch: pa.Table) -> pa.Table:
            mod = pc.subtract(
                batch.column("doc_id"),
                pc.multiply(pc.divide(batch.column("doc_id"), 50), 50),
            )
            mask = pc.equal(mod, 0) if want_zero else pc.not_equal(mod, 0)
            return batch.filter(mask)

        return fn

    benchmark = docs.map_batches(_mod_filter(True), batch_format="pyarrow")
    train = docs.map_batches(_mod_filter(False), batch_format="pyarrow")
    return decontaminate(train, benchmark, n=8)


def _q_suppliers_with_returns(sf_dir: str):
    """Distributed left-semi join (EXISTS): suppliers having at least one
    returned lineitem. Only the keys + left columns survive the
    per-partition Arrow semi join; the big side streams."""
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join

    supplier = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    returned = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_returnflag"]
    ).filter(expr="l_returnflag == 'R'")

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"s_suppkey": batch.column("l_suppkey").cast(pa.int64())}
        )

    return hash_join(
        supplier,
        returned.map_batches(keyed, batch_format="pyarrow"),
        on=["s_suppkey"],
        how="left_semi",
    )


_PAGERANK_DAMPING = 0.85
_PAGERANK_ITERS = 5
_PAGERANK_SUPP_OFFSET = 1_000_000


def _trade_edges(sf_dir: str):
    """The undirected customer<->supplier trade graph as a directed
    (src, dst) edge dataset (both directions; supplier ids offset) —
    shared by pagerank and pagerank_personalized."""
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def li_keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"o_orderkey": batch.column("l_orderkey"),
             "l_suppkey": batch.column("l_suppkey").cast(pa.int64())}
        )

    pairs = partitioned_agg(
        hash_join(
            orders,
            lineitem.map_batches(li_keyed, batch_format="pyarrow"),
            on=["o_orderkey"],
        ),
        keys=["o_custkey", "l_suppkey"],
        named_aggs={"_n": ("o_custkey", "size")},
    )

    def both_dirs(batch: pa.Table):
        cust = batch.column("o_custkey").cast(pa.int64())
        supp = pa.array(
            [s + _PAGERANK_SUPP_OFFSET
             for s in batch.column("l_suppkey").to_pylist()],
            type=pa.int64(),
        )
        yield pa.Table.from_pydict({"src": cust, "dst": supp})
        yield pa.Table.from_pydict({"src": supp, "dst": cust})

    return pairs.map_batches(both_dirs, batch_format="pyarrow")


def _ranks_to_e9(ranks):
    def to_e9(batch: pa.Table):
        import numpy as np

        r = np.asarray(batch.column("rank").to_pylist(), dtype=np.float64)
        yield pa.Table.from_pydict(
            {
                "node": batch.column("node"),
                # same double expression as the SQL oracle's FLOOR(...)
                "rank_e9": pa.array(
                    np.floor(r * 1e9 + 0.5).astype(np.int64), type=pa.int64()
                ),
            }
        )

    return ranks.map_batches(to_e9, batch_format="pyarrow")


def _q_pagerank(sf_dir: str):
    """Distributed PageRank (5 iterations, d=0.85) over the
    customer<->supplier trade graph (distinct custkey<->suppkey pairs
    from orders x lineitem, edges in BOTH directions; supplier node ids
    offset to avoid key collision). Per iteration: one rank join + one
    hash-partitioned contribution reduce; only the scalar total-contrib
    touches the driver."""
    from ctinexus_ray.ops.graph import pagerank

    ranks = pagerank(
        _trade_edges(sf_dir),
        damping=_PAGERANK_DAMPING,
        iterations=_PAGERANK_ITERS,
    )
    return _ranks_to_e9(ranks)


_PPR_SEEDS = list(range(1, 11))  # the 10 lowest custkeys
_PPR_ITERS = 3  # fewer unrolled rounds than pagerank: the joins path
# pays ~2 joins/round of fixed task overhead and 3 rounds already
# demonstrates seed-biased convergence


def _q_pagerank_personalized(sf_dir: str):
    """Personalized PageRank (TrustRank shape): teleport mass
    concentrated on the 10 lowest custkeys instead of uniform — the
    trusted-seed relevance/crawl-prioritization primitive. Same
    joins-path plan as pagerank (one rank join + one contribution
    reduce per iteration); the seed set broadcasts once. ✓SQL
    (unrolled-CTE twin with the seed-conditional teleport)."""
    from ctinexus_ray.ops.graph import pagerank_joins

    ranks = pagerank_joins(
        _trade_edges(sf_dir),
        damping=_PAGERANK_DAMPING,
        iterations=_PPR_ITERS,
        num_partitions=8,
        seeds=_PPR_SEEDS,
    )
    return _ranks_to_e9(ranks)


_HITS_ITERS = 2


def _q_hits_trade(sf_dir: str):
    """HITS hubs/authorities over the DIRECTED customer->supplier trade
    graph (distinct purchase pairs from orders x lineitem; supplier ids
    offset). Customers are pure hubs, suppliers pure authorities — the
    bipartite co-purchase ranking. Integer e9 scores with exact int64
    mass sums + per-row pinned-order renormalization, so the unrolled
    SQL twin value-hashes bit-for-bit. ✓SQL."""
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.graph import hits_scores
    from ctinexus_ray.ops.groupagg import partitioned_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )

    def li_keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"o_orderkey": batch.column("l_orderkey"),
             "l_suppkey": batch.column("l_suppkey").cast(pa.int64())}
        )

    pairs = partitioned_agg(
        hash_join(
            orders,
            lineitem.map_batches(li_keyed, batch_format="pyarrow"),
            on=["o_orderkey"],
        ),
        keys=["o_custkey", "l_suppkey"],
        named_aggs={"_n": ("o_custkey", "size")},
    )

    def directed(batch: pa.Table) -> pa.Table:
        import numpy as np

        cust = batch.column("o_custkey").cast(pa.int64())
        supp = pa.array(
            np.asarray(
                batch.column("l_suppkey").to_pylist(), dtype=np.int64
            )
            + _PAGERANK_SUPP_OFFSET,
            type=pa.int64(),
        )
        return pa.Table.from_pydict({"src": cust, "dst": supp})

    edges = pairs.map_batches(directed, batch_format="pyarrow")
    return hits_scores(edges, iterations=_HITS_ITERS)


def _hits_oracle_sql() -> str:
    """Unrolled-iteration SQL twin of _q_hits_trade: the same integer
    mass sums and the same pinned-order double renormalization
    FLOOR(mass * 1e9 / total + 0.5) per half-step."""
    sql = (
        "WITH pairs AS (SELECT DISTINCT o_custkey AS c, "
        f"l_suppkey + {_PAGERANK_SUPP_OFFSET} AS s "
        "FROM orders JOIN lineitem ON o_orderkey = l_orderkey), "
        "edges AS (SELECT c AS src, s AS dst FROM pairs), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges "
        "UNION SELECT DISTINCT dst FROM edges), "
        "h0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS hub FROM nodes)"
    )
    prev = "h0"
    for i in range(1, _HITS_ITERS + 1):
        sql += (
            f", ar{i} AS (SELECT e.dst AS node, "
            f"CAST(sum(h.hub) AS BIGINT) AS mass "
            f"FROM edges e JOIN {prev} h ON e.src = h.node GROUP BY e.dst), "
            f"at{i} AS (SELECT CAST(sum(mass) AS DOUBLE) AS t FROM ar{i}), "
            f"a{i} AS (SELECT n.node, CAST(FLOOR("
            f"CAST(coalesce(m.mass, 0) AS DOUBLE) * 1000000000.0 / t.t "
            f"+ 0.5) AS BIGINT) AS auth "
            f"FROM nodes n LEFT JOIN ar{i} m ON n.node = m.node, at{i} t), "
            f"hr{i} AS (SELECT e.src AS node, "
            f"CAST(sum(a.auth) AS BIGINT) AS mass "
            f"FROM edges e JOIN a{i} a ON e.dst = a.node GROUP BY e.src), "
            f"ht{i} AS (SELECT CAST(sum(mass) AS DOUBLE) AS t FROM hr{i}), "
            f"h{i} AS (SELECT n.node, CAST(FLOOR("
            f"CAST(coalesce(m.mass, 0) AS DOUBLE) * 1000000000.0 / t.t "
            f"+ 0.5) AS BIGINT) AS hub "
            f"FROM nodes n LEFT JOIN hr{i} m ON n.node = m.node, ht{i} t)"
        )
        prev = f"h{i}"
    return (
        sql
        + f" SELECT a.node, a.auth AS auth_e9, h.hub AS hub_e9 "
        f"FROM a{_HITS_ITERS} a JOIN h{_HITS_ITERS} h ON a.node = h.node"
    )


def _host_hits_oracle_sql() -> str:
    """Unrolled twin of _q_host_hits: weblink edge CTEs + the identical
    integer-mass/renormalization recurrence as _hits_oracle_sql."""
    sql = (
        _WEBLINK_PAGES_SQL
        + _WEBLINK_RES_SQL.rstrip() + ", "
        + "edges AS (SELECT DISTINCT "
        "CAST(regexp_extract(url, '^http://host([0-9]+)', 1) AS BIGINT) "
        "AS src, "
        "CAST(regexp_extract(link, '^https?://host([0-9]+)', 1) AS BIGINT) "
        "AS dst FROM res WHERE link IS NOT NULL), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges "
        "UNION SELECT DISTINCT dst FROM edges), "
        "h0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS hub FROM nodes)"
    )
    prev = "h0"
    for i in range(1, _HITS_ITERS + 1):
        sql += (
            f", ar{i} AS (SELECT e.dst AS node, "
            f"CAST(sum(h.hub) AS BIGINT) AS mass "
            f"FROM edges e JOIN {prev} h ON e.src = h.node GROUP BY e.dst), "
            f"at{i} AS (SELECT CAST(sum(mass) AS DOUBLE) AS t FROM ar{i}), "
            f"a{i} AS (SELECT n.node, CAST(FLOOR("
            f"CAST(coalesce(m.mass, 0) AS DOUBLE) * 1000000000.0 / t.t "
            f"+ 0.5) AS BIGINT) AS auth "
            f"FROM nodes n LEFT JOIN ar{i} m ON n.node = m.node, at{i} t), "
            f"hr{i} AS (SELECT e.src AS node, "
            f"CAST(sum(a.auth) AS BIGINT) AS mass "
            f"FROM edges e JOIN a{i} a ON e.dst = a.node GROUP BY e.src), "
            f"ht{i} AS (SELECT CAST(sum(mass) AS DOUBLE) AS t FROM hr{i}), "
            f"h{i} AS (SELECT n.node, CAST(FLOOR("
            f"CAST(coalesce(m.mass, 0) AS DOUBLE) * 1000000000.0 / t.t "
            f"+ 0.5) AS BIGINT) AS hub "
            f"FROM nodes n LEFT JOIN hr{i} m ON n.node = m.node, ht{i} t)"
        )
        prev = f"h{i}"
    return (
        sql
        + f" SELECT a.node, a.auth AS auth_e9, h.hub AS hub_e9 "
        f"FROM a{_HITS_ITERS} a JOIN h{_HITS_ITERS} h ON a.node = h.node"
    )


def _host_pagerank_oracle_sql() -> str:
    """Unrolled-iteration twin of _q_host_pagerank: identical weblink
    edge derivation (the html_links/host_graph CTEs), identical rank
    recurrence as _pagerank_oracle_sql."""
    d = _PAGERANK_DAMPING
    sql = (
        _WEBLINK_PAGES_SQL
        + _WEBLINK_RES_SQL.rstrip() + ", "
        + "edges AS (SELECT DISTINCT "
        "CAST(regexp_extract(url, '^http://host([0-9]+)', 1) AS BIGINT) "
        "AS src, "
        "CAST(regexp_extract(link, '^https?://host([0-9]+)', 1) AS BIGINT) "
        "AS dst FROM res WHERE link IS NOT NULL), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges "
        "UNION SELECT DISTINCT dst FROM edges), "
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes), "
        "deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY src), "
        "r0 AS (SELECT node, 1.0 / nn.n AS rank FROM nodes, nn)"
    )
    prev = "r0"
    for i in range(1, _PAGERANK_ITERS + 1):
        sql += (
            f", c{i} AS (SELECT e.dst AS node, "
            f"sum(r.rank / g.outdeg) AS contrib "
            f"FROM edges e JOIN {prev} r ON e.src = r.node "
            "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
            f"t{i} AS (SELECT coalesce(sum(contrib), 0.0) AS tot FROM c{i}), "
            f"r{i} AS (SELECT n.node, "
            f"(1 - {d}) / nn.n + {d} * coalesce(c.contrib, 0) "
            f"+ {d} * (1.0 - t{i}.tot) / nn.n AS rank "
            f"FROM nodes n LEFT JOIN c{i} c ON n.node = c.node, t{i}, nn)"
        )
        prev = f"r{i}"
    return (
        sql
        + " SELECT node, CAST(FLOOR(rank * 1e9 + 0.5) AS BIGINT) AS rank_e9"
        + f" FROM {prev}"
    )


def _pagerank_oracle_sql() -> str:
    """Unrolled-iteration SQL twin of _q_pagerank (recursive CTEs cannot
    aggregate in the recursive term, so each iteration is its own CTE)."""
    d = _PAGERANK_DAMPING
    sql = (
        "WITH pairs AS (SELECT DISTINCT o_custkey AS c, "
        f"l_suppkey + {_PAGERANK_SUPP_OFFSET} AS s "
        "FROM orders JOIN lineitem ON o_orderkey = l_orderkey), "
        "edges AS (SELECT c AS src, s AS dst FROM pairs "
        "UNION ALL SELECT s, c FROM pairs), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges "
        "UNION SELECT DISTINCT dst FROM edges), "
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes), "
        "deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY src), "
        "r0 AS (SELECT node, 1.0 / nn.n AS rank FROM nodes, nn)"
    )
    prev = "r0"
    for i in range(1, _PAGERANK_ITERS + 1):
        sql += (
            f", c{i} AS (SELECT e.dst AS node, "
            f"sum(r.rank / g.outdeg) AS contrib "
            f"FROM edges e JOIN {prev} r ON e.src = r.node "
            "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
            f"t{i} AS (SELECT coalesce(sum(contrib), 0.0) AS tot FROM c{i}), "
            f"r{i} AS (SELECT n.node, "
            f"(1 - {d}) / nn.n + {d} * coalesce(c.contrib, 0) "
            f"+ {d} * (1.0 - t{i}.tot) / nn.n AS rank "
            f"FROM nodes n LEFT JOIN c{i} c ON n.node = c.node, t{i}, nn)"
        )
        prev = f"r{i}"
    # rank_e9: double sums are summation-order-dependent at the ULP level
    # (measured 2e-17 drift vs the Pregel actors) — emit ranks rounded to
    # 1e-9 as exact BIGINTs on BOTH sides so the value-hash is stable
    return (
        sql
        + " SELECT node, CAST(FLOOR(rank * 1e9 + 0.5) AS BIGINT) AS rank_e9"
        + f" FROM {prev}"
    )


def _ppr_oracle_sql() -> str:
    """Unrolled-iteration SQL twin of _q_pagerank_personalized. The
    damping factor is CAST to DOUBLE everywhere so (1 - d) is the same
    IEEE subtraction the engine computes (a bare 0.85 literal is
    DECIMAL in DuckDB and (1 - 0.85) would be the exactly-rounded 0.15
    instead, one ULP away)."""
    dd = f"CAST({_PAGERANK_DAMPING} AS DOUBLE)"
    seeds = ", ".join(str(s) for s in _PPR_SEEDS)
    k = len(_PPR_SEEDS)
    # IN over the literal list — a BETWEEN over min/max would silently
    # leak teleport mass to non-seed nodes if the seed set ever stops
    # being contiguous
    p = f"(CASE WHEN {{n}} IN ({seeds}) THEN 1.0/{k} ELSE 0.0 END)"
    sql = (
        "WITH pairs AS (SELECT DISTINCT o_custkey AS c, "
        f"l_suppkey + {_PAGERANK_SUPP_OFFSET} AS s "
        "FROM orders JOIN lineitem ON o_orderkey = l_orderkey), "
        "edges AS (SELECT c AS src, s AS dst FROM pairs "
        "UNION ALL SELECT s, c FROM pairs), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges "
        "UNION SELECT DISTINCT dst FROM edges), "
        "deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY src), "
        f"r0 AS (SELECT node, {p.format(n='node')} AS rank FROM nodes)"
    )
    prev = "r0"
    for i in range(1, _PPR_ITERS + 1):
        pn = p.format(n="n.node")
        sql += (
            f", c{i} AS (SELECT e.dst AS node, "
            f"sum(r.rank / g.outdeg) AS contrib "
            f"FROM edges e JOIN {prev} r ON e.src = r.node "
            "JOIN deg g ON e.src = g.src GROUP BY e.dst), "
            f"t{i} AS (SELECT coalesce(sum(contrib), 0.0) AS tot FROM c{i}), "
            f"r{i} AS (SELECT n.node, "
            f"(1 - {dd}) * {pn} + {dd} * coalesce(c.contrib, 0) "
            f"+ ({dd} * (1.0 - t{i}.tot)) * {pn} AS rank "
            f"FROM nodes n LEFT JOIN c{i} c ON n.node = c.node, t{i})"
        )
        prev = f"r{i}"
    return (
        sql
        + " SELECT node, CAST(FLOOR(rank * 1e9 + 0.5) AS BIGINT) AS rank_e9"
        + f" FROM {prev}"
    )


# the full unigram-LM train+score SQL twin, shared by unigram_lm and
# lm_calibration
_UNIGRAM_LM_SQL = (
    "WITH words AS (SELECT doc_id, "
    "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
    "FROM documents), "
    "cnt AS (SELECT w, count(*) AS c FROM words GROUP BY w), "
    "tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM words) "
    "SELECT w.doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
    "CAST(sum(CAST(FLOOR(ln(cnt.c / tot.n) * 1e6 + 0.5) AS BIGINT)) "
    "AS BIGINT) AS lm_score_u, "
    "CAST(sum(CAST(FLOOR(ln(cnt.c / tot.n) * 1e6 + 0.5) AS BIGINT)) "
    "AS DOUBLE) / 1e6 / count(*) AS lm_score "
    "FROM words w JOIN cnt ON w.w = cnt.w, tot "
    "GROUP BY w.doc_id"
)


def _q_lm_calibration(sf_dir: str):
    """Reliability curve of the unigram-LM fluency score against
    lang='en': NTILE(10) score deciles (per-token micro-nats, ties by
    doc_id) with per-bucket doc and positive counts — the "is this
    quality score actually monotone in the label" diagnostic next to
    lang_len_auc's single-number AUC. One scoring pass + one doc_id
    join + one range-partitioned sort. ✓SQL (LM twin + NTILE)."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import global_row_number
    from ctinexus_ray.ops.textstats import unigram_lm_scores

    k = 10

    def drop_null_text(batch: pa.Table) -> pa.Table:
        # the SQL twin's words CTE silently drops NULL-text docs
        # (trim(NULL) splits to NULL); mirror that before training
        return batch.filter(pc.is_valid(batch.column("text")))

    sc = unigram_lm_scores(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            drop_null_text, batch_format="pyarrow"
        )
    )

    def proj(batch: pa.Table) -> pa.Table:
        s = pc.divide(
            pc.cast(batch.column("lm_score_u"), pa.float64()),
            pc.cast(batch.column("n_tokens"), pa.float64()),
        )
        return pa.Table.from_pydict(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "s": s}
        )

    def lab(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "pos": pc.cast(
                    pc.fill_null(
                        pc.equal(batch.column("lang"), "en"), False
                    ),
                    pa.int64(),
                ),
            }
        )

    joined = hash_join(
        sc.map_batches(proj, batch_format="pyarrow"),
        _docs(sf_dir, ["doc_id", "lang"]).map_batches(
            lab, batch_format="pyarrow"
        ),
        on=["doc_id"],
        num_partitions=16,
    )
    ranked = global_row_number(
        joined, sort_keys=["s", "doc_id"], descending=[False, False]
    )
    # NTILE widths derive from the RANKED set's row count, not the raw
    # doc count: a NULL-text doc tokenizes on the engine side but drops
    # from the SQL twin's words CTE, and the two must bucket alike
    # (global_row_number materializes, so .count() is metadata)
    n = ranked.count()
    q, r = divmod(n, k)

    def bucketize(batch: pa.Table) -> pa.Table:
        rank0 = pc.subtract(batch.column("rank"), 1)
        big = (q + 1) * r
        in_big = pc.less(rank0, big)
        b_big = pc.add(pc.divide(rank0, max(q + 1, 1)), 1)
        b_small = pc.add(
            pc.divide(pc.subtract(rank0, big), max(q, 1)), r + 1
        )
        return pa.Table.from_pydict(
            {
                "bucket": pc.if_else(in_big, b_big, b_small).cast(pa.int64()),
                "pos": batch.column("pos"),
            }
        )
    return partitioned_agg(
        ranked.map_batches(bucketize, batch_format="pyarrow"),
        keys=["bucket"],
        named_aggs={"n": ("pos", "size"), "n_pos": ("pos", "sum")},
        num_partitions=16,
    )


def _q_unigram_lm(sf_dir: str):
    """Unigram LM fluency scores: corpus word distribution reduced once
    (vocabulary-sized), broadcast, then a shuffle-free scoring pass."""
    from ctinexus_ray.ops.textstats import unigram_lm_scores

    return unigram_lm_scores(_docs(sf_dir, ["doc_id", "text"]))


def _q_name_bfs_hops(sf_dir: str):
    """Multi-source BFS over the edit-distance name-match graph: hop
    distance from the 10 lowest custkeys, capped at 4 hops. Edge set
    materialized once; per round a broadcast-frontier zero-shuffle
    expansion + distributed anti-join against the visited set."""
    from ctinexus_ray.ops.graph import bfs_hops

    edges = _name_edges(sf_dir)
    import pyarrow.dataset as pds
    import ray.data

    seeds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filter=(pds.field("c_custkey") <= 10),
    ).rename_columns({"c_custkey": "node"})
    return bfs_hops(edges, seeds, max_hops=4, num_partitions=16)


_NAME_EDGES_CACHE: dict = {}


def _name_edges(sf_dir: str):
    """The edit-distance name-match graph as a canonical (a, b) edge
    list — shared input of the kcore/bfs/walks/link-prediction/
    clustering family. Materialized ONCE per (Ray job, sf_dir) and
    memoized: the driver sweep calls five independent name-graph
    queries in one session, and recomputing the blocking+verify join
    per query would multiply its cost by five. The job-id key drops
    stale object refs if the process re-inits Ray."""
    import ray as _ray

    key = (_ray.get_runtime_context().get_job_id(), sf_dir)
    ds = _NAME_EDGES_CACHE.get(key)
    if ds is None:

        def rn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["a", "b", "dist"])

        ds = (
            _q_name_match_pairs(sf_dir)
            .map_batches(rn, batch_format="pyarrow")
            .select_columns(["a", "b"])
            .materialize()
        )
        _NAME_EDGES_CACHE.clear()  # one graph at a time is plenty
        _NAME_EDGES_CACHE[key] = ds
    return ds


def _q_name_link_prediction(sf_dir: str):
    """Common-neighbors + Adamic-Adar link prediction over the
    edit-distance name-match graph: top-100 non-adjacent pairs by
    shared-neighbor count, AA in integer nano-units (per-wedge
    FLOOR(1e9/ln(deg)+0.5) summed as int64 — order-independent, so the
    cross-row sum is bit-exact vs SQL). The KG-completion "suggest
    missing edges" primitive: one degree join + one wedge self-join +
    one (u,v) reduce + one anti-join, all hash-partitioned. ✓SQL."""
    from ctinexus_ray.ops.graph import link_prediction

    return link_prediction(_name_edges(sf_dir), top=100, num_partitions=16)


def _q_name_clustering_coeff(sf_dir: str):
    """Per-node triangle participation (node, tri, deg) over the
    name-match graph for nodes with deg >= 2 — the exact integer
    numerator/denominator of the local clustering coefficient
    2*tri/(deg*(deg-1)); wedge-close semi-join plan. ✓SQL."""
    from ctinexus_ray.ops.graph import local_clustering

    return local_clustering(_name_edges(sf_dir), num_partitions=16)


_HARMONIC_SOURCES = 5
_HARMONIC_HOPS = 4


def _q_name_harmonic_centrality(sf_dir: str):
    """Sampled harmonic centrality over the name-match graph: for the
    5 lowest-custkey sources, per-source BFS hop distances (the
    bfs_hops frontier-expansion plan, edge set shared via the memoized
    cache), then per node the integer micro-reciprocal sum
    FLOOR(1e6/dist) over sources — the standard sampled-centrality
    estimator (Eppstein-Wang shape) with an exact SQL twin. Distances
    are small ints so the reciprocal quantization is identical on both
    sides. ✓SQL (multi-source recursive CTE carrying the source id)."""
    import ray.data

    from ctinexus_ray.ops.graph import bfs_hops
    from ctinexus_ray.ops.groupagg import partitioned_agg

    edges = _name_edges(sf_dir)
    parts = []
    # custkeys are 0-based: sources are the 5 lowest ids 0..4
    for s in range(_HARMONIC_SOURCES):
        seed = ray.data.from_arrow(
            pa.Table.from_pydict({"node": pa.array([s], type=pa.int64())})
        )
        d = bfs_hops(edges, seed, max_hops=_HARMONIC_HOPS, num_partitions=16)

        def h(batch: pa.Table) -> pa.Table:
            import numpy as np
            import pyarrow.compute as pc

            t = batch.filter(pc.greater(batch.column("dist"), 0))
            dist = t.column("dist").to_numpy(zero_copy_only=False)
            return pa.Table.from_pydict(
                {
                    "node": t.column("node"),
                    "h": pa.array(
                        np.floor(1e6 / dist.astype(np.float64)).astype(
                            np.int64
                        ),
                        type=pa.int64(),
                    ),
                }
            )

        parts.append(d.map_batches(h, batch_format="pyarrow"))
    uni = parts[0]
    for ds in parts[1:]:
        uni = uni.union(ds)
    return partitioned_agg(
        uni,
        keys=["node"],
        named_aggs={"harmonic_u": ("h", "sum")},
        num_partitions=16,
    )


_WALK_LEN = 3


def _q_name_random_walks(sf_dir: str):
    """Deterministic DeepWalk-style walks over the name-match graph
    (one walk per node, 3 steps; RNG replaced by the pinned integer
    hash (w*A + t*B) mod deg over sorted neighbors so every run and
    the SQL twin agree exactly). Frontier-join plan: edge set
    materialized once, per step one frontier-edge join + one
    walk-partitioned vectorized pick. ✓SQL (unrolled window CTE)."""
    from ctinexus_ray.ops.graph import random_walks

    return random_walks(
        _name_edges(sf_dir), walk_len=_WALK_LEN, num_partitions=16
    )


_N2V_P, _N2V_Q = 2.0, 0.5


def _q_name_biased_walks(sf_dir: str):
    """node2vec second-order biased walks (p=2, q=0.5 — outward/DFS
    regime) over the name-match graph, RNG replaced by the pinned
    integer hash so the walk is SQL-verifiable: per step one
    frontier-edge join, one canonical-pair LEFT join marking
    prev-adjacency (the only second-order state), one walk-partitioned
    vectorized weighted pick over integer milli-weights. ✓SQL
    (unrolled window-cumsum CTE)."""
    from ctinexus_ray.ops.graph import biased_random_walks

    return biased_random_walks(
        _name_edges(sf_dir), walk_len=_WALK_LEN, p=_N2V_P, q=_N2V_Q,
        num_partitions=16,
    )


def _biased_walks_oracle() -> str:
    a, b = 2654435761, 40503
    w_ret = round(1000 / _N2V_P)
    w_mid = 1000
    w_out = round(1000 / _N2V_Q)
    sql = (
        "WITH e AS MATERIALIZED (SELECT a.c_custkey AS u, b.c_custkey AS v "
        "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
        "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
        "sym AS MATERIALIZED (SELECT u AS c, v AS n FROM e "
        "UNION ALL SELECT v AS c, u AS n FROM e), "
        "s0 AS MATERIALIZED (SELECT DISTINCT c AS walk_id, "
        "CAST(-1 AS BIGINT) AS prev, c AS node FROM sym)"
    )
    for t in range(1, _WALK_LEN + 1):
        sql += (
            f", s{t} AS MATERIALIZED ("
            f"SELECT walk_id, cur AS prev, nbr AS node FROM ("
            f"SELECT walk_id, cur, nbr, wt, "
            f"SUM(wt) OVER (PARTITION BY walk_id ORDER BY nbr "
            f"ROWS UNBOUNDED PRECEDING) AS cum, "
            f"SUM(wt) OVER (PARTITION BY walk_id) AS tot FROM ("
            f"SELECT f.walk_id, f.cur, f.nbr, "
            f"CASE WHEN f.prev = -1 THEN 1 "
            f"WHEN f.nbr = f.prev THEN {w_ret} "
            f"WHEN ex.u IS NOT NULL THEN {w_mid} "
            f"ELSE {w_out} END AS wt FROM ("
            f"SELECT f0.walk_id, f0.prev, f0.node AS cur, s.n AS nbr "
            f"FROM s{t - 1} f0 JOIN sym s ON s.c = f0.node) f "
            f"LEFT JOIN e ex ON ex.u = least(f.nbr, f.prev) "
            f"AND ex.v = greatest(f.nbr, f.prev))) "
            f"WHERE cum > (walk_id * {a} + {t} * {b}) % tot "
            f"AND cum - wt <= (walk_id * {a} + {t} * {b}) % tot)"
        )
    parts = [
        f"SELECT walk_id, CAST({t} AS BIGINT) AS step, node FROM s{t}"
        for t in range(_WALK_LEN + 1)
    ]
    return sql + " " + " UNION ALL ".join(parts)


def _walks_oracle() -> str:
    a, b = 2654435761, 40503
    sql = (
        "WITH e AS MATERIALIZED (SELECT a.c_custkey AS u, b.c_custkey AS v "
        "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
        "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
        "sym AS MATERIALIZED (SELECT u AS c, v AS n FROM e "
        "UNION ALL SELECT v AS c, u AS n FROM e), "
        "s0 AS MATERIALIZED (SELECT DISTINCT c AS walk_id, c AS node "
        "FROM sym)"
    )
    for t in range(1, _WALK_LEN + 1):
        sql += (
            f", s{t} AS MATERIALIZED (SELECT walk_id, nbr AS node FROM ("
            f"SELECT f.walk_id, s.n AS nbr, "
            f"row_number() OVER (PARTITION BY f.walk_id ORDER BY s.n) AS rk, "
            f"count(*) OVER (PARTITION BY f.walk_id) AS deg "
            f"FROM s{t - 1} f JOIN sym s ON s.c = f.node) "
            f"WHERE rk = 1 + (walk_id * {a} + {t} * {b}) % deg)"
        )
    parts = [
        f"SELECT walk_id, CAST({t} AS BIGINT) AS step, node FROM s{t}"
        for t in range(_WALK_LEN + 1)
    ]
    return sql + " " + " UNION ALL ".join(parts)


_NAME_GRAPH_CTE = (
    "WITH e AS MATERIALIZED (SELECT a.c_custkey AS u, b.c_custkey AS v "
    "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
    "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
    "sym AS MATERIALIZED (SELECT u AS c, v AS n FROM e "
    "UNION ALL SELECT v AS c, u AS n FROM e), "
    "deg AS MATERIALIZED (SELECT c AS node, count(*) AS deg "
    "FROM sym GROUP BY c), "
    "w AS MATERIALIZED (SELECT s1.c AS c, s1.n AS x, s2.n AS y "
    "FROM sym s1 JOIN sym s2 ON s1.c = s2.c AND s1.n < s2.n)"
)


def _q_event_trend(sf_dir: str):
    """Per-event-type daily-volume linear trend (drift detection for
    monitoring pipelines), as EXACT integer rationals: slope =
    slope_num/slope_den from the closed-form least-squares sums
    (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²) over (epoch-day, count) points —
    every sum an int64, no float anywhere. Plan: one (type, day) count
    reduce (the corpus axis), then one type-partitioned reduce over the
    tiny day table. ✓SQL (explicit integer-sum twin; avoids DuckDB's
    float regr_slope)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def day_of(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(
            pc.floor_temporal(batch.column("ts"), unit="day"), pa.int64()
        )
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "day": pc.divide(us, 86_400_000_000),
            }
        )

    daily = partitioned_agg(
        ev.map_batches(day_of, batch_format="pyarrow"),
        keys=["event_type", "day"],
        named_aggs={"y": ("day", "size")},
        num_partitions=16,
    )

    def sums(batch: pa.Table) -> pa.Table:
        import numpy as np

        x = batch.column("day").to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "n": pa.array(np.ones(len(x), dtype=np.int64), type=pa.int64()),
                "sx": pa.array(x, type=pa.int64()),
                "sy": pa.array(y, type=pa.int64()),
                "sxy": pa.array(x * y, type=pa.int64()),
                "sxx": pa.array(x * x, type=pa.int64()),
            }
        )

    agg = partitioned_agg(
        daily.map_batches(sums, batch_format="pyarrow"),
        keys=["event_type"],
        named_aggs={
            "n": ("n", "sum"),
            "sx": ("sx", "sum"),
            "sy": ("sy", "sum"),
            "sxy": ("sxy", "sum"),
            "sxx": ("sxx", "sum"),
        },
        num_partitions=4,
    )

    def closed_form(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.column("n").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "n_days": pa.array(n, type=pa.int64()),
                "slope_num": pa.array(n * sxy - sx * sy, type=pa.int64()),
                "slope_den": pa.array(n * sxx - sx * sx, type=pa.int64()),
            }
        )

    return agg.map_batches(closed_form, batch_format="pyarrow")


def _q_weighted_median_qty(sf_dir: str):
    """Grouped WEIGHTED median: per return flag, the smallest quantity
    v with 2*cum_weight(v) >= total_weight, weights = exact
    extended-price cents (revenue-weighted "typical order size" — the
    weighted-percentile shape). Plan: ONE (flag, v) integer weight
    reduce collapses the corpus to the tiny value domain, then a
    per-flag vectorized scan. All-integer, bit-exact. ✓SQL (window
    cumsum twin). Cast note: TPC-H quantities are whole numbers, so
    Arrow's truncating float->int cast and DuckDB's rounding CAST
    agree; for fractional domains round explicitly on both sides."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        cents = pc.floor(
            pc.add(
                pc.multiply(batch.column("l_extendedprice"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        return pa.Table.from_pydict(
            {
                "flag": batch.column("l_returnflag"),
                "v": pc.cast(batch.column("l_quantity"), pa.int64()),
                "w": cents,
            }
        )

    hist = partitioned_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        keys=["flag", "v"],
        named_aggs={"w": ("w", "sum")},
        num_partitions=4,
    )

    def pick(g: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np
        import pandas as pd

        g = g.sort_values("v")
        cum = np.cumsum(g["w"].to_numpy(dtype=np.int64))
        tot = int(cum[-1])
        i = int(np.searchsorted(2 * cum, tot, side="left"))
        return pd.DataFrame(
            {"flag": [g["flag"].iloc[0]], "wmedian": [int(g["v"].iloc[i])]}
        )

    # flag cardinality is tiny (3) — built-in small-key groupby is fine
    return hist.groupby("flag").map_groups(pick, batch_format="pandas")


def _q_user_activity_gini(sf_dir: str):
    """Gini coefficient of per-user event counts (activity
    concentration / key-skew signal), kept as an EXACT integer rational
    (gini_num, gini_den) with gini = num/den — no float ever crosses a
    row boundary. num = 2*sum(rank*n) - (N+1)*sum(n), den = N*sum(n)
    over ranks of the ascending (n, user_id) order; tied n values make
    sum(rank*n) order-invariant, so the value is deterministic. Plan:
    ONE user count reduce, the distributed global row_number, then
    O(blocks) integer partials. ✓SQL (window twin)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import global_row_number

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    counts = partitioned_agg(
        ev,
        keys=["user_id"],
        named_aggs={"n": ("user_id", "size")},
        num_partitions=16,
    )
    ranked = global_row_number(
        counts, ["n", "user_id"], descending=[False, False], out_col="rk"
    )

    def partial(batch: pa.Table):
        import numpy as np

        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        rk = batch.column("rk").to_numpy(zero_copy_only=False).astype(np.int64)
        yield pa.Table.from_pydict(
            {
                "s_rn": pa.array([int((rk * n).sum())], type=pa.int64()),
                "s_n": pa.array([int(n.sum())], type=pa.int64()),
                "cnt": pa.array([len(n)], type=pa.int64()),
            }
        )

    def final(batch: pa.Table):
        import pyarrow.compute as pc

        s_rn = pc.sum(batch.column("s_rn")).as_py() or 0
        s_n = pc.sum(batch.column("s_n")).as_py() or 0
        cnt = pc.sum(batch.column("cnt")).as_py() or 0
        yield pa.Table.from_pydict(
            {
                "gini_num": pa.array(
                    [2 * s_rn - (cnt + 1) * s_n], type=pa.int64()
                ),
                "gini_den": pa.array([cnt * s_n], type=pa.int64()),
            }
        )

    return (
        ranked.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def _q_user_top_event(sf_dir: str):
    """Grouped MODE with deterministic tie-break: each user's most
    frequent event_type (count desc, type asc) — ONE (user, type) count
    reduce, then the grouped arg-extremum takes the per-user max; no
    per-user cardinality anywhere. ✓SQL (window twin)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import grouped_arg_extremum, partitioned_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    counts = partitioned_agg(
        ev,
        keys=["user_id", "event_type"],
        named_aggs={"n": ("event_type", "size")},
        num_partitions=16,
    )
    # max count; ties -> smallest event_type (the "last_" end of the
    # extremum with tie asc)
    ext = grouped_arg_extremum(
        counts,
        keys=["user_id"],
        order_col="n",
        tie_col="event_type",
        payload_cols=["event_type"],
        num_partitions=16,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id"),
                "top_event": batch.column("last_event_type"),
                "n": batch.column("last_n"),
            }
        )

    return ext.map_batches(project, batch_format="pyarrow")


def _q_cumulative_users(sf_dir: str):
    """Cumulative distinct users per day (running reach): first-seen
    day per user (ONE user-partitioned min reduce — the corpus-sized
    axis), day-sized new-user counts, then a prefix sum over the tiny
    day table. Running COUNT(DISTINCT) without ever holding a distinct
    set. ✓SQL (window twin)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def day_of(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id"),
                "day": pc.cast(
                    pc.floor_temporal(batch.column("ts"), unit="day"),
                    pa.timestamp("us"),
                ),
            }
        )

    first_day = partitioned_agg(
        ev.map_batches(day_of, batch_format="pyarrow"),
        keys=["user_id"],
        named_aggs={"first_day": ("day", "min")},
        num_partitions=16,
    )
    per_day = partitioned_agg(
        first_day.select_columns(["first_day"]),
        keys=["first_day"],
        named_aggs={"new_users": ("first_day", "size")},
        num_partitions=4,
    )

    def running(batch: pa.Table):
        import numpy as np
        import pyarrow.compute as pc

        order = pc.sort_indices(batch.column("first_day"))
        days = batch.column("first_day").take(order)
        new = batch.column("new_users").take(order)
        cum = np.cumsum(new.to_numpy(zero_copy_only=False))
        yield pa.Table.from_pydict(
            {
                "day": days,
                "new_users": new,
                "cum_users": pa.array(cum, type=pa.int64()),
            }
        )

    # day axis is calendar-sized -> safe single block for the scan
    return per_day.repartition(1).map_batches(
        running, batch_format="pyarrow", batch_size=None
    )


_SWEEP_THRESHOLDS = [10, 20, 50, 100, 200]


def _q_rendezvous_shards(sf_dir: str):
    """Rendezvous (highest-random-weight) shard assignment of every
    document to 5 shards — the elastic reshard primitive: N -> N+1
    moves only the keys the new shard wins (minimal-movement property
    pinned in tests). argmax of md5("<id>:<s>"), smallest shard on
    ties. ✓SQL (window argmax twin)."""
    from ctinexus_ray.ops.shards import rendezvous_assign

    return rendezvous_assign(
        _docs(sf_dir, ["doc_id"]), id_col="doc_id", n_shards=5
    )


def _q_doc_sample_k_by_lang(sf_dir: str):
    """Balanced eval holdout: exactly 20 documents PER LANGUAGE, chosen
    by smallest md5(doc_id) — deterministic, reshard-stable,
    maximal-overlap-on-regrowth (grouped_sample_k). Batch-local
    per-group cut + ONE group-partitioned reduce. ✓SQL."""
    from ctinexus_ray.ops.shards import grouped_sample_k

    out = grouped_sample_k(
        _docs(sf_dir, ["doc_id", "lang"]),
        group_col="lang",
        id_col="doc_id",
        k=20,
        num_partitions=4,
    )
    return out.select_columns(["lang", "doc_id"])


def _q_cdc_chunk_delta(sf_dir: str):
    """Chunk-level incremental crawl delta: the same two synthetic
    snapshots as ``crawl_delta`` (docs dropped per modulus, a slice of
    texts mutated), but diffed at CDC-chunk granularity — the new
    snapshot's chunks are anti-joined by fingerprint against the old
    chunk store, so a re-crawled page with one edit contributes only
    the chunks the edit touched, not the whole document. Output: the
    new snapshot's chunk/byte totals and the UNSEEN (to-store) subset —
    the number a content-addressed 100-TB chunk store actually writes.
    ✓SQL: only the low log2(avg) hash bits decide a cut, so the gear
    test reduces to 6 shifted table lookups and the min/max walk to a
    recursive CTE (_cdc_chunks_sql); boundary rule also pinned in tests."""
    import functools

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import cdc_chunks

    docs = _docs(sf_dir, ["doc_id", "text"])

    def snap(batch: pa.Table, *, old: bool) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_ids, out_texts = [], []
        for d, t in zip(ids, texts):
            t = t or ""
            if old:
                if d % 7 == 0:
                    continue
            else:
                if d % 5 == 0:
                    continue
                if d % 11 == 0:
                    t = t + "!"
            out_ids.append(d)
            out_texts.append(t)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "text": pa.array(out_texts, type=pa.string()),
            }
        )

    kw = dict(min_size=16, avg_size=64, max_size=256)
    old_fps = partitioned_agg(
        cdc_chunks(
            docs.map_batches(
                functools.partial(snap, old=True), batch_format="pyarrow"
            ),
            **kw,
        ).select_columns(["fp"]),
        keys=["fp"],
        named_aggs={"n_old": ("fp", "size")},
    )
    new_per_fp = partitioned_agg(
        cdc_chunks(
            docs.map_batches(
                functools.partial(snap, old=False), batch_format="pyarrow"
            ),
            **kw,
        ).select_columns(["fp", "length"]),
        keys=["fp"],
        named_aggs={"n": ("length", "size"), "stored": ("length", "min")},
    ).materialize()  # consumed by totals AND the anti-join

    i64 = pa.int64()
    unseen = hash_join(
        new_per_fp,
        old_fps.select_columns(["fp"]),
        on=["fp"],
        how="left_anti",
        left_types={"fp": i64, "n": i64, "stored": i64},
        right_types={"fp": i64},
    )

    def totals(name_new: str, name_bytes: str):
        def partial(batch: pa.Table):
            import pyarrow.compute as pc

            yield pa.Table.from_pydict(
                {
                    name_new: pa.array([batch.num_rows], type=i64),
                    name_bytes: pa.array(
                        [pc.sum(batch.column("stored")).as_py() or 0],
                        type=i64,
                    ),
                }
            )

        return partial

    def merge(batch: pa.Table):
        import pyarrow.compute as pc

        yield pa.Table.from_pydict(
            {
                c: pa.array([pc.sum(batch.column(c)).as_py() or 0], type=i64)
                for c in batch.column_names
            }
        )

    new_tot = (
        new_per_fp.map_batches(
            totals("new_distinct", "new_bytes"), batch_format="pyarrow"
        )
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
    )
    unseen_tot = (
        unseen.map_batches(
            totals("unseen_distinct", "unseen_bytes"), batch_format="pyarrow"
        )
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
    )

    import pandas as pd

    a = new_tot.to_pandas()
    b = unseen_tot.to_pandas()
    return pd.concat([a.reset_index(drop=True), b.reset_index(drop=True)], axis=1)


def _q_quality_threshold_sweep(sf_dir: str):
    """What-if threshold tuning in ONE corpus pass: for each candidate
    min-word-count threshold, how many documents survive. Per batch the
    word counts are computed once and ALL thresholds answered by a
    single vectorized searchsorted on the sorted counts; K one-row
    partials per batch, one tiny sum reduce — the corpus is read once
    no matter how many thresholds are swept. ✓SQL."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    thrs = _SWEEP_THRESHOLDS

    def partial(batch: pa.Table):
        import numpy as np

        texts = batch.column("text").to_pylist()
        nw = np.sort(
            np.array(
                [len((t or "").strip().split() or [""]) for t in texts],
                dtype=np.int64,
            )
        )
        # count of docs with n_words >= thr, for every thr at once
        n_pass = len(nw) - np.searchsorted(nw, np.array(thrs), side="left")
        yield pa.Table.from_pydict(
            {
                "thr": pa.array(thrs, type=pa.int64()),
                "n_pass": pa.array(n_pass, type=pa.int64()),
            }
        )

    return partitioned_agg(
        _docs(sf_dir, ["text"]).map_batches(partial, batch_format="pyarrow"),
        keys=["thr"],
        named_aggs={"n_pass": ("n_pass", "sum")},
        num_partitions=4,
    )


def _q_tfidf_cosine_pairs(sf_dir: str):
    """All-pairs TF-IDF cosine similarity join at >= 0.9: the
    weighted sibling of ngram_jaccard_pairs — integer micro-nat
    weights, int64 dots/norms, pinned-expression final ratio. One
    term-keyed self-join + one (a,b) dot reduce + two norm joins.
    ✓SQL."""
    from ctinexus_ray.ops.textstats import tfidf_cosine_pairs

    return tfidf_cosine_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold_u=900_000,
        num_partitions=16,
    )


def _q_doc_token_entropy(sf_dir: str):
    """Shannon entropy of each document's token distribution in integer
    nano-nats (low entropy = templated/repetitive text — a corpus
    quality signal): per-(n_w, N) terms quantized BEFORE the int64 sum,
    so the value is order-independent and bit-exact vs SQL. Stateless
    map, zero shuffle. ✓SQL."""
    from ctinexus_ray.ops.textstats import token_entropy_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_entropy_batch, batch_format="pyarrow"
    )


def _q_user_first_last_event(sf_dir: str):
    """FIRST_VALUE/LAST_VALUE per user over event time (entry/exit event
    of every user's history): grouped arg-extremum with event_id
    tie-break — per-batch two-candidate combine + ONE hash-partitioned
    reduce; group cardinality never materializes. ✓SQL (row_number
    window twin)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import grouped_arg_extremum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return grouped_arg_extremum(
        ev,
        keys=["user_id"],
        order_col="ts",
        tie_col="event_id",
        payload_cols=["event_type"],
        num_partitions=16,
    )


def _q_phrase_search(sf_dir: str):
    """Exact phrase search ("table hash" as consecutive whitespace
    tokens) with per-document match counts — the anchor-bitmask plan:
    phrase-word-pruned positional postings, ONE (doc, anchor) bitmask
    sum + one per-doc count; no positional self-join, no corpus-sized
    shuffle. ✓SQL (positional unnest self-join twin)."""
    from ctinexus_ray.ops.textstats import phrase_match_counts

    return phrase_match_counts(
        _docs(sf_dir, ["doc_id", "text"]), ["table", "hash"],
        num_partitions=16,
    )


def _q_cdc_chunk_stats(sf_dir: str):
    """Content-defined chunking (gear-hash CDC, the rsync/LBFS/FastCDC
    primitive) over the document corpus, reduced to chunk-level dedup
    stats: total chunks / distinct chunk fingerprints / bytes a
    chunk-store would hold vs raw bytes. ✓SQL (see _cdc_chunks_sql: the
    cut test needs only the low 6 hash bits); the boundary rule is pinned
    against a per-byte naive reference and a shift-resilience property
    in tests/test_shards.py::TestCdcChunks. Scale shape: stateless
    vectorized chunking map, ONE fp-partitioned reduce, O(P) totals."""
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import cdc_chunks

    chunks = cdc_chunks(
        _docs(sf_dir, ["doc_id", "text"]), min_size=16, avg_size=64,
        max_size=256,
    )
    per_fp = partitioned_agg(
        chunks.select_columns(["fp", "length"]),
        keys=["fp"],
        named_aggs={
            "n": ("length", "size"),
            "raw_bytes": ("length", "sum"),
            "stored_bytes": ("length", "min"),
        },
    )

    def totals(batch: pa.Table):
        import pyarrow.compute as pc

        yield pa.Table.from_pydict(
            {
                "n_chunks": pa.array(
                    [pc.sum(batch.column("n")).as_py() or 0], type=pa.int64()
                ),
                "n_distinct": pa.array([batch.num_rows], type=pa.int64()),
                "raw_bytes": pa.array(
                    [pc.sum(batch.column("raw_bytes")).as_py() or 0],
                    type=pa.int64(),
                ),
                "stored_bytes": pa.array(
                    [pc.sum(batch.column("stored_bytes")).as_py() or 0],
                    type=pa.int64(),
                ),
            }
        )

    def merge(batch: pa.Table):
        import pyarrow.compute as pc

        yield pa.Table.from_pydict(
            {
                c: pa.array(
                    [pc.sum(batch.column(c)).as_py() or 0], type=pa.int64()
                )
                for c in ["n_chunks", "n_distinct", "raw_bytes", "stored_bytes"]
            }
        )

    # O(P) one-row partials -> single final row
    return (
        per_fp.map_batches(totals, batch_format="pyarrow")
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
    )


def _q_quality_melt(sf_dir: str):
    """UNPIVOT the wide per-document quality-metric table into long
    (doc_id, metric, val) form — zero-shuffle stateless map."""
    from ctinexus_ray.ops.relational import melt

    return melt(
        _q_quality_scores(sf_dir),
        id_cols=["doc_id"],
        value_cols=["n_chars", "n_words", "n_unique_words", "n_punct"],
        var_name="metric",
        value_name="val",
    )


def _q_word_postings(sf_dir: str):
    """Inverted index: per word, the comma-joined ascending doc_id
    posting list. Per-row set dedup is globally exact (a doc_id lives in
    exactly one row), so the ONLY shuffle is the word-keyed
    grouped_string_agg. The deterministic order column makes the
    concatenation reshard-stable."""
    from ctinexus_ray.ops.groupagg import grouped_string_agg
    from ctinexus_ray.ops.textstats import _tokens

    def pairs(batch: pa.Table):
        ids, words = [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for w in set(_tokens(t or "")):
                ids.append(doc_id)
                words.append(w)
        if not ids:
            return
        yield pa.Table.from_pydict(
            {
                "word": pa.array(words, type=pa.string()),
                "doc_id": pa.array(ids, type=pa.int64()),
            }
        )

    return grouped_string_agg(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            pairs, batch_format="pyarrow"
        ),
        key="word",
        value_col="doc_id",
        order_col="doc_id",
        out="postings",
    )


def _q_event_props_sum(sf_dir: str):
    """Semi-structured extraction: parse the JSON props column once
    (NULL-safe json_extract semantics), then an O(#event-types) grouped
    sum/count over the extracted typed scalar."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.semistruct import json_scalar

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    withk = json_scalar(
        events, "props", "k", keep=["event_type"]
    )

    def fill(batch: pa.Table):
        # NULL k rows: sum as 0 (matching the oracle's COALESCE) AND
        # keep int64 through the pandas reduce — a nullable int64 column
        # degrades to float64+NaN there, which would break the strict
        # BIGINT value-hash
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "k": pc.fill_null(
                    batch.column("k"), pa.scalar(0, type=pa.int64())
                ),
            }
        )

    return partitioned_agg(
        withk.map_batches(fill, batch_format="pyarrow"),
        keys=["event_type"],
        named_aggs={"sum_k": ("k", "sum"), "n": ("k", "size")},
        num_partitions=16,
    )


def _q_cohort_retention(sf_dir: str):
    """Cohort retention matrix (first-activity day × day offset →
    distinct active users): per-user first-day reduce, a global
    (user, day) distinct reduce, one user-keyed hash join, and an
    O(cohorts × offsets) count — the classic event-analytics shape,
    every aggregate hash-partitioned."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    us_day = 86_400_000_000
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def days(batch: pa.Table):
        if batch.num_rows == 0:
            return
        d = pc.divide(
            batch.column("ts").cast(i64), pa.scalar(us_day, type=i64)
        )  # ts >= epoch here, so truncating divide == floor
        yield pa.Table.from_pydict(
            {"user_id": batch.column("user_id").cast(i64), "day": d}
        )

    ud = events.map_batches(days, batch_format="pyarrow")
    firsts = partitioned_agg(
        ud, keys=["user_id"], named_aggs={"cohort_d": ("day", "min")}
    )
    pairs = partitioned_agg(
        ud,
        keys=["user_id", "day"],
        named_aggs={"_one": ("day", "size")},
    ).select_columns(["user_id", "day"])
    j = hash_join(
        pairs,
        firsts,
        on=["user_id"],
        left_types={"user_id": i64, "day": i64},
        right_types={"user_id": i64, "cohort_d": i64},
        num_partitions=16,
    )

    def offset(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "cohort_d": batch.column("cohort_d"),
                "day_offset": pc.subtract(
                    batch.column("day"), batch.column("cohort_d")
                ),
            }
        )

    return partitioned_agg(
        j.map_batches(offset, batch_format="pyarrow"),
        keys=["cohort_d", "day_offset"],
        named_aggs={"n_users": ("cohort_d", "size")},
        num_partitions=16,
    )


def _q_events_mad_outliers(sf_dir: str):
    """Robust per-group outlier detection: median + MAD (median absolute
    deviation, quantile_disc index rule) per event type, then count
    values with |v − med| > 3·MAD. Three column-pruned corpus passes
    (cents projection, deviation, flag count) — each reduce output is
    O(#types × value-domain), never corpus-sized; integer cents
    everywhere so the thresholds are bit-exact."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.relational import grouped_int_quantiles

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def cents(batch: pa.Table):
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return
        v = pc.floor(
            pc.add(
                pc.multiply(batch.column("value"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {"event_type": batch.column("event_type"), "v": v}
        )

    ds_c = events.map_batches(cents, batch_format="pyarrow")
    med = {
        r["event_type"]: r["value"]
        for r in grouped_int_quantiles(
            ds_c, "event_type", "v", [0.5]
        ).take_all()  # O(#types) rows
    }

    def dev(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["v"] - df["event_type"].map(med)).abs()
        return pd.DataFrame(
            {"event_type": df["event_type"], "d": d.astype(np.int64)}
        )

    ds_d = ds_c.map_batches(dev, batch_format="pandas")
    mad = {
        r["event_type"]: r["value"]
        for r in grouped_int_quantiles(
            ds_d, "event_type", "d", [0.5]
        ).take_all()
    }

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(med)
        thr = 3 * df["event_type"].map(mad)
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "out": ((df["v"] - m).abs() > thr).astype(np.int64),
            }
        )

    counts = partitioned_agg(
        ds_c.map_batches(flag, batch_format="pandas"),
        keys=["event_type"],
        named_aggs={"n_outliers": ("out", "sum")},
        num_partitions=16,
    ).take_all()  # O(#types)
    types = sorted(med)
    return pd.DataFrame(
        {
            "event_type": types,
            "med_cents": np.array([med[t] for t in types], dtype=np.int64),
            "mad_cents": np.array([mad[t] for t in types], dtype=np.int64),
            "n_outliers": np.array(
                [
                    next(
                        r["n_outliers"]
                        for r in counts
                        if r["event_type"] == t
                    )
                    for t in types
                ],
                dtype=np.int64,
            ),
        }
    )


def _q_tpch_q11(sf_dir: str):
    """TPC-H Q11 plan shape (important stock — adapted: no partsupp
    table in this corpus, so 'stock value' is revenue shipped by the
    target nation's suppliers per part). One lineitem ⋈ supplier hash
    join, broadcast nation filter, a part-keyed cents reduce
    materialized ONCE (feeds both the global total and the share
    filter), and the HAVING-vs-scalar-subquery comparison restated
    integer-exact (cents·1000 > total ⟺ share > 0.001)."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        cents = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "p_partkey": batch.column("l_partkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "c": cents,
            }
        )

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).rename_columns({"s_suppkey": "skey"})
    j = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        supp,
        on=["skey"],
        left_types={"skey": i64, "p_partkey": i64, "c": i64},
        right_types={"skey": i64, "s_nationkey": pa.int32()},
    )
    named = broadcast_join(
        j, _nation_names(sf_dir, "s_nationkey"), on=["s_nationkey"]
    )

    def in_nation(batch: pa.Table):
        t = batch.filter(
            pc.equal(batch.column("n_name"), pa.scalar("NATION_3"))
        )
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"p_partkey": t.column("p_partkey"), "c": t.column("c")}
        )

    pr = partitioned_agg(
        named.map_batches(in_nation, batch_format="pyarrow"),
        keys=["p_partkey"],
        named_aggs={"cents": ("c", "sum")},
    ).materialize()  # part-cardinality; feeds total + share filter
    total = int(pr.sum("cents") or 0)

    def share(batch: pa.Table):
        keep = pc.greater(
            pc.multiply(batch.column("cents"), pa.scalar(1000, type=i64)),
            pa.scalar(total, type=i64),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield t

    return pr.map_batches(share, batch_format="pyarrow")


def _q_tpch_q16(sf_dir: str):
    """TPC-H Q16 plan shape (parts/suppliers relationship count —
    adapted: part↔supplier pairs come from lineitem, and the complaint
    filter is s_acctbal < 0, since this corpus has no partsupp or
    s_comment). The excluded supplier set is filtered at source and
    broadcast (complaint suppliers are rare by construction — the
    decontaminate pattern), the pair table reduces to DISTINCT once,
    part attributes arrive by scan-filtered hash join, and
    count(DISTINCT supplier) per attribute triple is the standard
    two-level distinct-then-count reduce."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    excl_rows = (
        ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey"],
            filter=(pds.field("s_acctbal") < 0),
        ).take_all()
    )  # complaint suppliers: rare by construction -> broadcast set
    excl = np.sort(
        np.array([r["s_suppkey"] for r in excl_rows], dtype=np.int64)
    )
    excl_ref = __import__("ray").put(excl)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def pairs(batch: pa.Table, excl_ref=excl_ref):
        import ray as _ray

        if batch.num_rows == 0:
            return
        bad = _ray.get(excl_ref)
        sk = np.asarray(batch.column("l_suppkey"), dtype=np.int64)
        if len(bad):
            pos = np.searchsorted(bad, sk)
            pos[pos == len(bad)] = 0
            keep = ~(bad[pos] == sk)
        else:
            keep = np.ones(len(sk), dtype=bool)
        t = batch.filter(pa.array(keep))
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "pkey_part": t.column("l_partkey").cast(i64),
                "skey": t.column("l_suppkey").cast(i64),
            }
        )

    distinct_ps = partitioned_agg(
        li.map_batches(pairs, batch_format="pyarrow"),
        keys=["pkey_part", "skey"],
        named_aggs={"_one": ("skey", "size")},
    ).select_columns(["pkey_part", "skey"])

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=(
            (pds.field("p_brand") != "Brand#1")
            & (pds.field("p_size").isin([1, 5, 9, 13, 17, 21, 25, 29]))
        ),
    ).rename_columns({"p_partkey": "pkey_part"})
    j = hash_join(
        distinct_ps,
        part,
        on=["pkey_part"],
        left_types={"pkey_part": i64, "skey": i64},
        right_types={
            "pkey_part": i64,
            "p_brand": pa.string(),
            "p_type": pa.string(),
            "p_size": pa.int32(),
        },
        num_partitions=16,
    )
    # two-level: distinct (brand,type,size,supplier), then count
    distinct4 = partitioned_agg(
        j.select_columns(["p_brand", "p_type", "p_size", "skey"]),
        keys=["p_brand", "p_type", "p_size", "skey"],
        named_aggs={"_one": ("skey", "size")},
        num_partitions=16,
    )
    counts = partitioned_agg(
        distinct4,
        keys=["p_brand", "p_type", "p_size"],
        named_aggs={"supplier_cnt": ("skey", "size")},
        num_partitions=16,
    )

    def pin(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "p_brand": batch.column("p_brand"),
                "p_type": batch.column("p_type"),
                "p_size": batch.column("p_size").cast(pa.int32()),
                "supplier_cnt": batch.column("supplier_cnt").cast(i64),
            }
        )

    return counts.map_batches(pin, batch_format="pyarrow")


def _q_tpch_q20(sf_dir: str):
    """TPC-H Q20 plan shape (part promotion — adapted: no partsupp, so
    the availqty > half-of-shipped test becomes 'dominant supplier':
    a supplier qualifies when for SOME target part it shipped more than
    half that part's year total). Per-(part, supplier) quantity sums
    materialized once (the slice is name-filtered), per-part totals
    re-aggregate that slice, the inequality join-back keeps dominant
    pairs, distinct suppliers semi-join to names, nation filter by
    broadcast — the nested-correlated-subquery shape as two-level
    aggregates plus one inequality join."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )

    def tgt_prep(batch: pa.Table):
        t = batch.filter(pc.starts_with(batch.column("p_name"), "red"))
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"pkey_part": t.column("p_partkey").cast(i64)}
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1997, 1, 1))
        ),
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        q = pc.floor(
            pc.add(batch.column("l_quantity"), pa.scalar(0.5))
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "pkey_part": batch.column("l_partkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "q": q,
            }
        )

    sliced = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        part.map_batches(tgt_prep, batch_format="pyarrow"),
        on=["pkey_part"],
        left_types={"pkey_part": i64, "skey": i64, "q": i64},
        right_types={"pkey_part": i64},
    )
    ps = partitioned_agg(
        sliced,
        keys=["pkey_part", "skey"],
        named_aggs={"q": ("q", "sum")},
        num_partitions=16,
    ).materialize()  # (target part × supplier)-cardinality; reused
    ptot = partitioned_agg(
        ps,
        keys=["pkey_part"],
        named_aggs={"tq": ("q", "sum")},
        num_partitions=16,
    )
    j = hash_join(
        ps,
        ptot,
        on=["pkey_part"],
        left_types={"pkey_part": i64, "skey": i64, "q": i64},
        right_types={"pkey_part": i64, "tq": i64},
        num_partitions=16,
    )

    def dominant(batch: pa.Table):
        keep = pc.greater(
            pc.multiply(batch.column("q"), pa.scalar(2, type=i64)),
            batch.column("tq"),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict({"skey": t.column("skey")})

    dom = partitioned_agg(
        j.map_batches(dominant, batch_format="pyarrow"),
        keys=["skey"],
        named_aggs={"_one": ("skey", "size")},
        num_partitions=16,
    ).select_columns(["skey"])
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).rename_columns({"s_suppkey": "skey"})
    named = hash_join(
        dom,
        supp,
        on=["skey"],
        left_types={"skey": i64},
        right_types={
            "skey": i64,
            "s_name": pa.string(),
            "s_nationkey": pa.int32(),
        },
        num_partitions=16,
    )
    enriched = broadcast_join(
        named, _nation_names(sf_dir, "s_nationkey"), on=["s_nationkey"]
    )
    wanted = pa.array(
        ["NATION_3", "NATION_7", "NATION_11"], type=pa.string()
    )

    def in_nations(batch: pa.Table):
        t = batch.filter(
            pc.is_in(batch.column("n_name"), value_set=wanted)
        )
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "s_suppkey": t.column("skey"),
                "s_name": t.column("s_name"),
            }
        )

    return enriched.map_batches(in_nations, batch_format="pyarrow")


def _q_tpch_q2(sf_dir: str):
    """TPC-H Q2 plan shape (minimum-cost supplier per part in a region
    — adapted: no partsupp table, so 'cost' is the minimum shipped unit
    price floor(extprice·100/qty+0.5) from lineitem). Region suppliers
    materialize once via the broadcast dimension snowflake (reused by
    the semi-join AND the detail join); per-(part, supplier) min unit
    cents materializes once feeding both the per-part min and the
    equality join-back — the classic correlated-min aggregate-rejoin,
    with deterministic acctbal/part/supplier tie-breaks on the top-100."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
    )
    senr = broadcast_join(
        supp,
        _nation_names(sf_dir, "s_nationkey", region="EUROPE"),
        on=["s_nationkey"],
    )

    def rs_prep(batch: pa.Table) -> pa.Table:
        bal = pc.floor(
            pc.add(
                pc.multiply(batch.column("s_acctbal"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(i64)
        return pa.Table.from_pydict(
            {
                "skey": batch.column("s_suppkey").cast(i64),
                "s_name": batch.column("s_name"),
                "n_name": batch.column("n_name"),
                "acctbal_cents": bal,
            }
        )

    rs = senr.map_batches(
        rs_prep, batch_format="pyarrow"
    ).materialize()  # region suppliers: reused by semi-join + details

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        unit = pc.floor(
            pc.add(
                pc.divide(
                    pc.multiply(
                        batch.column("l_extendedprice"), pa.scalar(100.0)
                    ),
                    batch.column("l_quantity"),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "pk": batch.column("l_partkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "u": unit,
            }
        )

    in_region = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        rs.select_columns(["skey"]),
        on=["skey"],
        how="left_semi",
        left_types={"skey": i64, "pk": i64, "u": i64},
        right_types={"skey": i64},
    )
    unit = partitioned_agg(
        in_region,
        keys=["pk", "skey"],
        named_aggs={"unit_cents": ("u", "min")},
    ).materialize()  # (part × region supplier); feeds min + join-back
    best = partitioned_agg(
        unit,
        keys=["pk"],
        named_aggs={"mc": ("unit_cents", "min")},
        num_partitions=16,
    )
    j = hash_join(
        unit,
        best,
        on=["pk"],
        left_types={"pk": i64, "skey": i64, "unit_cents": i64},
        right_types={"pk": i64, "mc": i64},
        num_partitions=16,
    )

    def keep_min(batch: pa.Table):
        t = batch.filter(
            pc.equal(batch.column("unit_cents"), batch.column("mc"))
        )
        if t.num_rows == 0:
            return
        yield t.select(["pk", "skey", "unit_cents"])

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=(
            (pds.field("p_type") == "STANDARD") & (pds.field("p_size") < 25)
        ),
    ).rename_columns({"p_partkey": "pk"})
    j2 = hash_join(
        j.map_batches(keep_min, batch_format="pyarrow"),
        part,
        on=["pk"],
        left_types={"pk": i64, "skey": i64, "unit_cents": i64},
        right_types={"pk": i64},
        num_partitions=16,
    )
    j3 = hash_join(
        j2,
        rs,
        on=["skey"],
        left_types={"skey": i64, "pk": i64, "unit_cents": i64},
        right_types={
            "skey": i64,
            "s_name": pa.string(),
            "n_name": pa.string(),
            "acctbal_cents": i64,
        },
        num_partitions=16,
    )
    out = j3.sort(
        ["acctbal_cents", "pk", "skey"], descending=[True, False, False]
    ).limit(100)
    return _rename(out, {"pk": "p_partkey", "skey": "s_suppkey"})


def _q_order_skyline(sf_dir: str):
    """Pareto frontier of orders (cheapest-and-earliest): per-block
    vectorized dominance prune, only block frontiers reach the driver,
    one exact vectorized pass replays the NOT EXISTS. Integer cents /
    epoch µs so the dominance comparisons are exact."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.relational import skyline_2d

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )

    def prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        cents = pc.floor(
            pc.add(
                pc.multiply(batch.column("o_totalprice"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "price_cents": cents,
                "odate_us": batch.column("o_orderdate").cast(pa.int64()),
            }
        )

    return skyline_2d(
        orders.map_batches(prep, batch_format="pyarrow"),
        "price_cents",
        "odate_us",
        ["o_orderkey"],
    )


def _q_embedding_gram(sf_dir: str):
    """Distributed Gram matrix over the embedding column (the one-pass
    covariance/PCA building block): per-batch fixed-size d×d int64
    partials (per-row products quantized to nano-units BEFORE the sum),
    one O(d²) reduce — the corpus never shuffles."""
    import ray.data

    from ctinexus_ray.ops.simsearch import gram_matrix

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return gram_matrix(emb)


def _q_embedding_pca(sf_dir: str):
    """PCA projection onto the top-2 principal directions: one Gram +
    mean pass (fixed-size integer partials, bit-stable covariance on
    the driver), eigendecomposition of the tiny d×d matrix, broadcast
    projection — shuffle-free. Rows-only (no SQL eigensolver); numpy
    parity and reshard determinism pinned in tests."""
    import ray.data

    from ctinexus_ray.ops.simsearch import pca_project

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return pca_project(emb, k=2)


def _q_embedding_svd(sf_dir: str):
    """Top-2 singular triplets of the embedding matrix via distributed
    block subspace iteration (ops/simsearch.py svd_topk): never forms
    the d×d Gram — only d×k panels broadcast and d×k integer-quantized
    partial sums move per round, the wide-feature scale path where
    embedding_gram/embedding_pca's d² cells would not fit. Rows-only
    (no SQL SVD); exact-numpy parity and reshard determinism pinned in
    tests."""
    import ray.data

    from ctinexus_ray.ops.simsearch import svd_topk

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    out = svd_topk(emb, k=2)

    def flatten(batch: pa.Table) -> pa.Table:
        # (j, sigma, v list) -> (j, i, sigma, v_i) rows for a flat schema
        js, iis, sig, vs = [], [], [], []
        for j, s, v in zip(
            batch.column("j").to_pylist(),
            batch.column("sigma").to_pylist(),
            batch.column("v").to_pylist(),
        ):
            for i, x in enumerate(v, start=1):
                js.append(j)
                iis.append(i)
                sig.append(s)
                vs.append(x)
        return pa.Table.from_pydict(
            {
                "j": pa.array(js, type=pa.int64()),
                "i": pa.array(iis, type=pa.int64()),
                "sigma": pa.array(sig, type=pa.float64()),
                "v_i": pa.array(vs, type=pa.float64()),
            }
        )

    return out.map_batches(flatten, batch_format="pyarrow")


def _q_linear_probe(sf_dir: str):
    """Multinomial logistic-regression linear probe over the labeled
    embeddings: 10 full-batch GD iterations, each ONE streaming pass
    emitting fixed-size integer gradient partials; weights live on the
    driver, predictions from a final broadcast argmax pass. Rows-only
    (iterative optimizer); quantized-twin parity + reshard determinism
    pinned in tests."""
    import ray.data

    from ctinexus_ray.ops.simsearch import linear_probe

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    return linear_probe(emb, iters=10, lr=1.0)


def _q_media_probe(sf_dir: str):
    """Header-only media probe: container format + dims / audio params
    read from the first bytes of each payload, NO decode — the cheap
    pre-filter before any decode actor pool at 100 TB. Rows-only
    (binary pipeline); probe == full-decode dims pinned in tests."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        make_real_media_table,
        probe_media,
    )

    media = ray.data.from_arrow(make_real_media_table(200)).repartition(4)
    return probe_media(media)


def _q_table_time_travel(sf_dir: str):
    """Versioned-table commits + time travel (state/tableformat.py,
    the Iceberg-lite shape): even-doc_id rows land as immutable parquet
    and commit as v1, odd rows append as v2; the query time-travel
    reads BOTH versions and returns (version, n_rows, sum_chars) —
    matched against plain SQL over the source table, so a MATCH proves
    the manifest isolation reads exactly the committed file sets. ✓SQL."""
    import hashlib
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from ctinexus_ray.state.tableformat import commit_version, read_version

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/tblfmt_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    data_dir = f"{tmp}/data"
    table_dir = f"{tmp}/table"

    @ray.remote
    def write_half(parity: int) -> str:
        import os

        import pyarrow as pa_
        import pyarrow.parquet as pq_

        os.makedirs(data_dir, exist_ok=True)
        t = pq_.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa_.array(ids % 2 == parity))
        path = f"{data_dir}/half-{parity}.parquet"
        pq_.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
        return path

    even, odd = ray.get([write_half.remote(0), write_half.remote(1)])
    v1 = commit_version(table_dir, [even], mode="overwrite")
    v2 = commit_version(table_dir, [odd], mode="append")

    rows = []
    for v in (v1, v2):
        ds = read_version(table_dir, v)

        def stats(batch: pa.Table):
            yield pa.Table.from_pydict(
                {
                    "n_rows": pa.array([batch.num_rows], type=pa.int64()),
                    "sum_chars": pa.array(
                        [
                            pc.sum(
                                pc.utf8_length(batch.column("text"))
                            ).as_py()
                            or 0
                        ],
                        type=pa.int64(),
                    ),
                }
            )

        import pandas as pd

        agg = ds.map_batches(stats, batch_format="pyarrow").to_pandas().sum()
        rows.append(
            {
                "version": v,
                "n_rows": int(agg["n_rows"]),
                "sum_chars": int(agg["sum_chars"]),
            }
        )
    import pandas as pd

    return pd.DataFrame(rows)


def _q_text_index_bm25(sf_dir: str):
    """BM25 top-20 for ('hash','join','vector') answered from the
    PERSISTED inverted index (ops/textindex.py): one tokenize pass
    builds term-bucketed posting files committed as a versioned table
    (corpus stats atomic in the manifest extra), then the search scans
    ONLY the query terms' buckets (file-level skip via the pushed
    bucket IN (...) filter) and ranks via the shared
    bm25_rank_postings. Buckets are term-complete, so the pruned scan
    is EXACT — the oracle is the full-scan BM25 SQL twin and a missed
    posting row would hash-mismatch (the bloom_pruned_lookup
    argument). Same one-scratch-dir-per-sf rebuild discipline as
    warc_source. ✓SQL."""
    import hashlib
    import shutil

    import ray.data

    from ctinexus_ray.ops.textindex import text_index_build, text_index_search

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/text_index_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    text_index_build(docs, tmp, num_buckets=64)
    return ray.data.from_arrow(
        text_index_search(tmp, ["hash", "join", "vector"], k=20)
    )


def _q_text_index_phrase(sf_dir: str):
    """Exact phrase search ("table hash") served FROM the persisted
    positional index (ops/textindex.py text_index_phrase): the index is
    built over HALF the corpus and the other half arrives as an append
    tick (positions inherit from the manifest), then the query scans
    only the two phrase words' buckets and runs the anchor-bitmask plan
    on the STORED position lists — no corpus re-tokenization. Exact by
    bucket term-completeness; the oracle is the same positional
    self-join SQL as phrase_search, so a stale or double-counted
    posting after the append tick would hash-mismatch. ✓SQL."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    import ray.data

    from ctinexus_ray.ops.textindex import (
        text_index_append,
        text_index_build,
        text_index_phrase,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/text_index_phrase_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def half(parity):
        def f(t):
            return t.filter(
                pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), parity)
            )

        return f

    text_index_build(
        docs.map_batches(half(0), batch_format="pyarrow"), tmp,
        num_buckets=64, positions=True,
    )
    text_index_append(
        docs.map_batches(half(1), batch_format="pyarrow"), tmp,
        batch_id="tick2",
    )
    return text_index_phrase(tmp, ["table", "hash"], num_partitions=16)


def _q_text_index_proximity(sf_dir: str):
    """Proximity search ("table" within 5 tokens of "hash") from the
    persisted positional index (ops/textindex.py text_index_proximity)
    — the "near" operator of classic IR engines, the third query
    family the stored positions serve beside BM25 and phrase: scan
    only the two words' buckets, pair each doc's two sorted position
    lists with a vectorized searchsorted window count. Exact by bucket
    term-completeness; the oracle is the positional self-join with the
    same |Δpos| <= 5 predicate. ✓SQL."""
    import hashlib
    import shutil

    import ray.data

    from ctinexus_ray.ops.textindex import (
        text_index_build,
        text_index_proximity,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/text_index_prox_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    text_index_build(docs, tmp, num_buckets=64, positions=True)
    return text_index_proximity(
        tmp, "table", "hash", window=5, num_partitions=16
    )


def _q_text_index_delete(sf_dir: str):
    """Index delete tick (ops/textindex.py text_index_delete): the
    exact-dedup drop set (every doc that is NOT its text group's
    min-doc_id survivor) retires its postings copy-on-write — broadcast
    sorted ids, one searchsorted rewrite task per file, corpus stats
    folded down atomically in the manifest — then BM25 over the pruned
    index must equal a full-scan BM25 over the SURVIVING corpus (the
    oracle recomputes keep-first dedup + BM25 in SQL; a stale posting
    or unadjusted n_docs/avgdl would hash-mismatch). ✓SQL."""
    import hashlib
    import shutil

    import numpy as np
    import pyarrow.compute as pc

    import ray.data

    from ctinexus_ray.ops.dedup import exact_dedup_keep
    from ctinexus_ray.ops.textindex import (
        text_index_build,
        text_index_delete,
        text_index_search,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/text_index_del_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    text_index_build(docs, tmp, num_buckets=64)
    keep = np.sort(
        np.array(
            [r["doc_id"] for r in exact_dedup_keep(docs).take_all()],
            dtype=np.int64,
        )
    )  # distinct-text-sized, broadcastable

    def drops(t):
        col = t.column("doc_id").to_numpy(zero_copy_only=False)
        hit = np.isin(col, keep)  # sorted keys take the fast path
        return t.filter(pc.invert(pa.array(hit))).select(["doc_id"])

    text_index_delete(
        tmp, docs.map_batches(drops, batch_format="pyarrow"),
        batch_id="dedup-1",
    )
    return ray.data.from_arrow(
        text_index_search(tmp, ["hash", "join", "vector"], k=20)
    )


def _q_sitemap_source(sf_dir: str):
    """Sitemap XML ingestion round trip (sources/sitemap.py): a
    deterministic <sitemapindex> + child <urlset> shards (urls from the
    _aug_urls rule, lastmod/changefreq/priority doc_id-derived) is
    written one-task-per-file and read back one-parse-task-per-file.
    The ✓SQL twin recomputes every field from documents directly — a
    writer or parser bug (entity handling, namespace, field order)
    hash-mismatches. Same one-scratch-dir-per-sf rebuild discipline as
    warc_source. ✓SQL."""
    import hashlib
    import shutil

    import ray.data

    from ctinexus_ray.sources.sitemap import read_sitemaps, write_sitemap_corpus

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/sitemap_src_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    # synthesis scaffolding: the id list is row-count-bounded (500 at
    # sf0.01) and exists only to build the fixture corpus
    ids = sorted(
        r["doc_id"] for r in _docs(sf_dir, ["doc_id"]).take_all()
    )
    freqs = ["daily", "weekly", "monthly"]
    rows = []
    for i in ids:
        k = i % 4
        tail = {0: f"/a/b/c/{i}", 1: f"/a/{i}", 2: "/x", 3: "/"}[k]
        rows.append(
            {
                "url": f"http://host{i % 40}.example.com{tail}",
                "lastmod": f"2024-01-{1 + i % 28:02d}",
                "changefreq": freqs[i % 3],
                "priority": (i % 10) / 10.0,
            }
        )
    index = write_sitemap_corpus(tmp, rows, urls_per_file=200, gz=True)
    return read_sitemaps(index).select_columns(
        ["url", "lastmod", "changefreq", "priority"]
    )


def _q_crawl_gap(sf_dir: str):
    """Discovery-vs-capture reconciliation: urls the sitemap advertises
    (every doc) that the crawl has NOT captured (even doc_ids only) —
    ONE two-large-sides left-anti hash join on url; both sides are
    corpus-sized at 10^12 urls, so no broadcast. ✓SQL (EXCEPT-style
    anti twin)."""
    from ctinexus_ray.ops.distjoin import hash_join

    advertised = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_urls, batch_format="pyarrow"
    )

    def even_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 0)
        return batch.filter(keep)

    captured = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(even_only, batch_format="pyarrow")
        .map_batches(_aug_urls, batch_format="pyarrow")
        .select_columns(["url"])
    )
    gap = hash_join(advertised, captured, on=["url"], how="left_anti")
    return gap.select_columns(["doc_id", "url"])


def _q_text_index_and(sf_dir: str):
    """Boolean AND retrieval from the persisted inverted index: doc_ids
    containing ALL of ('hash','join','vector') — bucket-pruned posting
    scan + one distinct-term count per doc vs |q| (postings are one row
    per (term, doc) by construction). Own scratch dir, rebuilt fresh —
    a stale index from a prior session must never be trusted. ✓SQL."""
    import hashlib
    import shutil

    import ray.data

    from ctinexus_ray.ops.textindex import text_index_boolean, text_index_build

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/text_index_and_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    text_index_build(docs, tmp, num_buckets=64)
    return text_index_boolean(tmp, ["hash", "join", "vector"], mode="and")


def _q_jsonl_source(sf_dir: str):
    """JSONL(.gz) ingestion round trip: the documents table is sharded
    into deterministic .jsonl.gz files (one Ray task per shard, atomic
    rename, fixed gzip bytes), read back through the streaming
    ray.data.read_json path, and projected to (doc_id, n_chars). The
    ✓SQL twin reads the ORIGINAL parquet — a hash MATCH proves the
    write→read round trip is byte-faithful including unicode. Same
    one-scratch-dir-per-sf rebuild discipline as warc_source."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    from ctinexus_ray.sources.flatfiles import read_jsonl, write_jsonl_corpus

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/jsonl_src_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    paths = write_jsonl_corpus(f"{sf_dir}/documents.parquet", tmp, n_shards=4)

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    return read_jsonl(paths).map_batches(project, batch_format="pyarrow")


def _q_csv_source(sf_dir: str):
    """CSV ingestion round trip (jsonl_source's sibling): deterministic
    QUOTE_ALL shards written one Ray task each, streamed back through
    ray.data.read_csv with the matching NULL convention (quoted empty =
    '', unquoted empty = NULL), projected to (doc_id, n_chars); the
    ✓SQL twin reads the original parquet — MATCH proves byte-faithful
    round trip."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    from ctinexus_ray.sources.flatfiles import read_csv_corpus, write_csv_corpus

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/csv_src_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    paths = write_csv_corpus(f"{sf_dir}/documents.parquet", tmp, n_shards=4)

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    return read_csv_corpus(paths).map_batches(project, batch_format="pyarrow")


def _q_avro_source(sf_dir: str):
    """Avro OCF ingestion round trip (csv/jsonl_source's sibling): the
    documents table sharded into deterministic .avro files (pure-stdlib
    writer, deflate blocks, pinned sync markers, one Ray task per
    shard), read back through the per-file parse tasks, projected to
    (doc_id, n_chars); the ✓SQL twin reads the ORIGINAL parquet — a
    hash MATCH proves the write→read round trip is byte-faithful
    including unicode and NULL text."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    from ctinexus_ray.sources.avro import read_avro, write_avro_corpus

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/avro_src_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    paths = write_avro_corpus(f"{sf_dir}/documents.parquet", tmp, n_shards=4)

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    return read_avro(paths).map_batches(project, batch_format="pyarrow")


def _q_corpus_checksum_ranges(sf_dir: str):
    """Merkle-style range checksums: the corpus checksum per 100-doc_id
    bucket, localizing a replica divergence to one bucket instead of a
    full re-scan. Same injective rendering as corpus_checksum, ONE
    bucket-partitioned XOR reduce. ✓SQL (bit_xor GROUP BY twin)."""
    from ctinexus_ray.ops.dq import range_checksums

    return range_checksums(
        _docs(sf_dir, ["doc_id", "text"]),
        cols=["doc_id", "text"],
        key_col="doc_id",
        bucket_size=100,
        num_partitions=4,
    )


def _q_corpus_checksum(sf_dir: str):
    """Order-independent corpus checksum (migration / replica
    verification without moving data): XOR of content-addressed 60-bit
    row hashes + row count, one streaming pass, fixed-size partials."""
    from ctinexus_ray.ops.dq import table_checksum

    return table_checksum(
        _docs(sf_dir, ["doc_id", "text"]), ["doc_id", "text"]
    )


def _q_lineitem_corr(sf_dir: str):
    """Pairwise Pearson correlation of three lineitem measures in ONE
    streaming pass, zero shuffle: per-batch fixed-size quantized
    sufficient statistics (int64 in-batch, arbitrary-precision Python
    ints across batches = SQL HUGEINT sums), final per-pair double with
    pinned operand order. ✓SQL."""
    import ray.data

    from ctinexus_ray.ops.dq import corr_matrix

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount"],
    )
    return ray.data.from_arrow(
        corr_matrix(
            li, ["l_quantity", "l_extendedprice", "l_discount"], scale=100
        )
    )


_LINEITEM_CORR_SQL = (
    "WITH q AS (SELECT "
    "CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT) AS a, "
    "CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS b, "
    "CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) AS c FROM lineitem), "
    "s AS (SELECT CAST(count(*) AS BIGINT) AS n, "
    "sum(a) AS sa, sum(b) AS sb, sum(c) AS sc, "
    "sum(a * a) AS saa, sum(b * b) AS sbb, sum(c * c) AS scc, "
    "sum(a * b) AS sab, sum(a * c) AS sac, sum(b * c) AS sbc FROM q) "
    + " UNION ALL ".join(
        (
            f"SELECT '{cx}' AS col_x, '{cy}' AS col_y, n, "
            f"CASE WHEN (n * s{x}{x} - s{x} * s{x}) <= 0 "
            f"OR (n * s{y}{y} - s{y} * s{y}) <= 0 THEN NULL ELSE "
            f"CAST(n * s{x}{y} - s{x} * s{y} AS DOUBLE) / "
            f"sqrt(CAST(n * s{x}{x} - s{x} * s{x} AS DOUBLE) * "
            f"CAST(n * s{y}{y} - s{y} * s{y} AS DOUBLE)) END AS corr "
            "FROM s"
        )
        for x, y, cx, cy in (
            ("a", "b", "l_quantity", "l_extendedprice"),
            ("a", "c", "l_quantity", "l_discount"),
            ("b", "c", "l_extendedprice", "l_discount"),
        )
    )
)


# the exact n-gram-Jaccard duplicate graph + recursive-CTE components,
# shared by dup_components and dedup_keep_best
_DUP_CC_SQL_BODY = (
    "WITH RECURSIVE "
    "words AS (SELECT doc_id, "
    "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
    "eligible AS (SELECT * FROM words WHERE len(w) >= 3), "
    "shingles AS (SELECT DISTINCT doc_id, "
    "w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle "
    "FROM eligible CROSS JOIN LATERAL "
    "(SELECT unnest(generate_series(1, len(w) - 2)) AS i) t), "
    "sizes AS (SELECT doc_id, count(*) AS sz FROM shingles GROUP BY doc_id), "
    "inter AS (SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS ix "
    "FROM shingles s1 JOIN shingles s2 ON s1.shingle = s2.shingle "
    "AND s1.doc_id < s2.doc_id GROUP BY 1, 2), "
    "dup_pairs AS (SELECT a, b FROM inter "
    "JOIN sizes sa ON sa.doc_id = inter.a "
    "JOIN sizes sb ON sb.doc_id = inter.b "
    "WHERE CAST(ix AS DOUBLE) / (sa.sz + sb.sz - ix) >= 0.5), "
    "edges AS (SELECT a AS src, b AS dst FROM dup_pairs "
    "UNION ALL SELECT b, a FROM dup_pairs), "
    "reach(node, label) AS ("
    "SELECT src, src FROM edges "
    "UNION "
    "SELECT e.dst, r.label FROM reach r JOIN edges e ON e.src = r.node)"
)


# the full NB train+score SQL twin, shared by nb_langid and nb_confusion
_NB_LANGID_SQL = (
    "WITH words AS (SELECT doc_id, "
    "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
    "FROM documents), "
    "labeled AS (SELECT wo.doc_id, d.lang, wo.w FROM words wo "
    "JOIN documents d USING (doc_id)), "
    "cnt AS (SELECT lang, w, count(*) AS c FROM labeled "
    "GROUP BY lang, w), "
    "tot AS (SELECT lang, sum(c) AS t FROM cnt GROUP BY lang), "
    "vocab AS (SELECT count(DISTINCT w) AS v FROM words), "
    "nl AS (SELECT lang, count(*) AS nd FROM documents "
    "GROUP BY lang), "
    "nall AS (SELECT count(*) AS n FROM documents), "
    "prior AS (SELECT lang, CAST(FLOOR(ln(nd / n) * 1e6 + 0.5) "
    "AS BIGINT) AS pr FROM nl, nall), "
    "lp AS (SELECT lang, w, CAST(FLOOR(ln((c + 1) / (t + v + 1)) "
    "* 1e6 + 0.5) AS BIGINT) AS u FROM cnt JOIN tot USING (lang), "
    "vocab), "
    "unk AS (SELECT lang, CAST(FLOOR(ln(1 / (t + v + 1)) * 1e6 "
    "+ 0.5) AS BIGINT) AS u FROM tot, vocab), "
    "scores AS (SELECT wo.doc_id, la.lang, "
    "any_value(pr.pr) + sum(COALESCE(lp.u, unk.u)) AS s "
    "FROM words wo CROSS JOIN nl la "
    "LEFT JOIN lp ON lp.lang = la.lang AND lp.w = wo.w "
    "JOIN unk ON unk.lang = la.lang "
    "JOIN prior pr ON pr.lang = la.lang "
    "GROUP BY wo.doc_id, la.lang), "
    "best AS (SELECT doc_id, lang, s, row_number() OVER "
    "(PARTITION BY doc_id ORDER BY s DESC, lang ASC) AS rn "
    "FROM scores) "
    "SELECT doc_id, lang AS pred_label, CAST(s AS BIGINT) "
    "AS score_u FROM best WHERE rn = 1"
)


def _q_nb_confusion(sf_dir: str):
    """Confusion matrix of the corpus-trained Naive Bayes language
    classifier: (true_lang, pred_label, n) — the self-consistency
    check a learned corpus filter gets before it gates anything. One
    doc_id hash join of predictions to truth + one count reduce on top
    of the nb_langid plan. ✓SQL (the full NB twin wrapped in a join +
    GROUP BY)."""
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import naive_bayes_predict

    pred = naive_bayes_predict(
        _docs(sf_dir, ["doc_id", "text", "lang"])
    ).select_columns(["doc_id", "pred_label"])

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "true_lang"])

    truth = _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        ren, batch_format="pyarrow"
    )
    joined = hash_join(pred, truth, on=["doc_id"], num_partitions=16)
    return partitioned_agg(
        joined.select_columns(["true_lang", "pred_label"]),
        keys=["true_lang", "pred_label"],
        named_aggs={"n": ("pred_label", "size")},
        num_partitions=16,
    )


def _q_nb_langid(sf_dir: str):
    """Multinomial Naive Bayes language classifier trained on the
    corpus's own labels (one vocabulary-sized count reduce + O(#labels)
    priors), broadcast once, applied in a shuffle-free scoring pass.
    Integer micro-nat log-posteriors so the argmax is bit-exact."""
    from ctinexus_ray.ops.textstats import naive_bayes_predict

    return naive_bayes_predict(_docs(sf_dir, ["doc_id", "text", "lang"]))


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): hashed-unigram
    log-likelihood ratio of the lang='en' target slice vs the raw
    corpus; fixed-size (1024-bucket) combiners, broadcast ratio array,
    zero corpus shuffles."""
    from ctinexus_ray.ops.textstats import dsir_scores

    return dsir_scores(
        _docs(sf_dir, ["doc_id", "text", "lang"]),
        target_col="lang",
        target_value="en",
        n_buckets=1024,
    )


def _q_paragraph_dedup(sf_dir: str):
    """C4-style paragraph dedup with doc rebuild: 20-word windows as the
    paragraph unit (corpus has no newlines), global first-occurrence per
    distinct window, surviving docs reassembled in chunk order."""
    from ctinexus_ray.ops.dedup import paragraph_dedup

    return paragraph_dedup(_docs(sf_dir, ["doc_id", "text"]), words_per_chunk=20)


def _q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): drop semantic near-duplicates
    WITHIN embedding clusters (the table's label column; kmeans_clusters
    is the at-scale producer). One cluster-keyed shuffle; per-cluster
    O(c^2) matmul — never corpus-wide pairwise."""
    from ctinexus_ray.ops.dedup import semdedup_keep
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    return semdedup_keep(
        read_testdata_embeddings(sf_dir), cluster_col="label", threshold=0.3
    )


def _q_bpe_pair_counts(sf_dir: str):
    """Exact BPE iteration-0 symbol-pair counts (chars + </w>): per-batch
    pair combiners off a single corpus scan, one pair-cardinality agg."""
    from ctinexus_ray.ops.bpe import bpe_pair_counts

    return bpe_pair_counts(_docs(sf_dir, ["doc_id", "text"]))


def _q_bpe_merges(sf_dir: str):
    """Learned BPE merge table (Sennrich et al. 2016): 30 iterations of
    most-frequent-pair merging over the distinct-word table. Iterative
    argmax is not SQL-expressible -> rows-only; parity vs an independent
    pure-Python learn-BPE is pinned in tests, and bpe_pair_counts is the
    exact ✓SQL anchor for the counting machinery."""
    from ctinexus_ray.ops.bpe import bpe_train

    return bpe_train(_docs(sf_dir, ["doc_id", "text"]), n_merges=30)


def _q_clean_funnel(sf_dir: str):
    """Filter-funnel observability for the cleaning pipeline: how many
    docs survive each successive gate (raw -> wellformed(>=5 words) ->
    gopher -> exact-dedup). Stages 0-2 are ONE corpus pass emitting a
    3-int partial per batch (O(#blocks) driver rows); stage 3 is the
    distinct-text count among gopher survivors via one text-hash
    shuffle. The per-stage counts are what a 100-TB prep run logs to
    explain where the data went."""
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import gopher_quality_batch

    docs = _docs(sf_dir, ["doc_id", "text"])

    def stage_partial(batch: pa.Table) -> pa.Table:
        q = gopher_quality_batch(batch)
        nw = q.column("n_words").to_numpy(zero_copy_only=False)
        keep = q.column("keep").to_numpy(zero_copy_only=False)
        s1 = nw >= 5
        s2 = s1 & keep
        return pa.Table.from_pydict(
            {
                "n0": pa.array([len(nw)], type=pa.int64()),
                "n1": pa.array([int(s1.sum())], type=pa.int64()),
                "n2": pa.array([int(s2.sum())], type=pa.int64()),
            }
        )

    parts = docs.map_batches(stage_partial, batch_format="pyarrow").take_all()
    n0 = sum(p["n0"] for p in parts)
    n1 = sum(p["n1"] for p in parts)
    n2 = sum(p["n2"] for p in parts)

    def survivors(batch: pa.Table) -> pa.Table:
        q = gopher_quality_batch(batch)
        nw = q.column("n_words").to_numpy(zero_copy_only=False)
        keep = q.column("keep").to_numpy(zero_copy_only=False)
        return batch.select(["text"]).filter(pa.array((nw >= 5) & keep))

    n3 = partitioned_agg(
        docs.map_batches(survivors, batch_format="pyarrow"),
        keys=["text"],
        named_aggs={"n": ("text", "size")},
    ).count()
    return pa.Table.from_pydict(
        {
            "stage": pa.array([0, 1, 2, 3], type=pa.int64()),
            "name": pa.array(
                ["raw", "wellformed", "gopher", "dedup"], type=pa.string()
            ),
            "n_docs": pa.array([n0, n1, n2, n3], type=pa.int64()),
        }
    )


def _q_user_running_totals(sf_dir: str):
    """Per-user ordered running total of event value (the SUM ... OVER
    (PARTITION BY user ORDER BY ts) window): one user-hash shuffle, one
    vectorized groupby.cumsum per partition. Integer cents so the prefix
    sum is order-independent and bit-exact vs DuckDB's segment-tree
    window evaluator."""
    import ray.data

    from ctinexus_ray.ops.relational import grouped_running_sum

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return grouped_running_sum(
        events, "user_id", ["ts", "event_id"], "value", scale=100
    ).select_columns(["user_id", "event_id", "run_units", "run_n"])


def _q_user_key_skew(sf_dir: str):
    """Key-skew profile of events.user_id — the diagnostic a 100-TB run
    executes BEFORE choosing partition counts / salting for a user-keyed
    shuffle: per-key counts (one hash reduce, materialized once), then a
    count-of-counts histogram walked on the driver. One row: n_keys,
    n_rows, max_n, p50/p90/p99 of per-key counts (quantile_disc rule),
    and the smallest user id holding the maximal count."""
    import ray.data

    from ctinexus_ray.ops.groupagg import key_skew_profile

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return key_skew_profile(events, "user_id")


def _q_bpe_encode(sf_dir: str):
    """Subword token counts under a corpus-trained BPE table (10 merges
    learned from the same sf_dir, then an actor-pool encode pass with a
    per-actor word memo). Iterative training -> rows-only; apply-rule
    parity is pinned in tests and token_counts is the exact anchor for
    the zero-merge case."""
    from ctinexus_ray.ops.bpe import bpe_encode, bpe_train

    merges = [
        (r["l"], r["r"])
        for r in sorted(
            bpe_train(_docs(sf_dir, ["doc_id", "text"]), n_merges=10).take_all(),
            key=lambda r: r["rank"],
        )
    ]
    return bpe_encode(_docs(sf_dir, ["doc_id", "text"]), merges)


def _q_name_match_pairs(sf_dir: str):
    """Entity-resolution edit-distance self-join (FastSS deletion-
    neighborhood blocking, banded-Levenshtein verify): all customer-name
    pairs within distance 1. Exact — sound+complete blocking, one
    variant-hash shuffle, no quadratic scan."""
    import ray.data

    from ctinexus_ray.ops.fuzzyjoin import edit_distance_pairs

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    return edit_distance_pairs(cust, "c_custkey", "c_name", max_dist=1)


_KCORE_K = 27
_KCORE_ROUNDS = 8


def _q_name_kcore(sf_dir: str):
    """k-core decomposition (k=27, 8 peel rounds with early exit) of the
    edit-distance name-match graph: per round one endpoint-degree count
    + two semi-joins; edge set only shrinks. Fixed round count keeps the
    unrolled-CTE SQL twin exact (the PageRank pattern)."""
    from ctinexus_ray.ops.graph import k_core

    return k_core(
        _name_edges(sf_dir), _KCORE_K, rounds=_KCORE_ROUNDS,
        num_partitions=16,
    )


def _kcore_oracle() -> str:
    # AS MATERIALIZED is load-bearing: DuckDB inlines plain CTEs, and
    # each round references the previous edge set ~5 times — inlining
    # makes the scan count 5^rounds (measured: "too many open files")
    sql = (
        "WITH e0 AS MATERIALIZED (SELECT a.c_custkey AS u, b.c_custkey AS v "
        "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
        "WHERE levenshtein(a.c_name, b.c_name) <= 1)"
    )
    prev = "e0"
    for i in range(1, _KCORE_ROUNDS + 1):
        sql += (
            f", d{i} AS MATERIALIZED (SELECT node, count(*) AS deg FROM "
            f"(SELECT u AS node FROM {prev} UNION ALL "
            f"SELECT v FROM {prev}) GROUP BY node), "
            f"l{i} AS MATERIALIZED (SELECT node FROM d{i} "
            f"WHERE deg >= {_KCORE_K}), "
            f"e{i} AS MATERIALIZED (SELECT e.u, e.v FROM {prev} e "
            f"JOIN l{i} x ON e.u = x.node JOIN l{i} y ON e.v = y.node)"
        )
        prev = f"e{i}"
    return (
        sql + " SELECT node, count(*) AS deg FROM "
        f"(SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev}) "
        "GROUP BY node"
    )


def _q_table_merge(sf_dir: str):
    """MERGE INTO the versioned table: documents committed as v1, then
    one merge applying updates (doc_id % 3 == 0 get ' u' appended),
    deletes (doc_id % 30 == 1) and inserts (doc_id + 1000000 for
    doc_id % 50 == 0) — v2 read back as (doc_id, text). Copy-on-write
    with parquet-footer key-range pruning; v1 stays readable. ✓SQL
    (LEFT JOIN + anti + UNION ALL twin)."""
    import hashlib
    import shutil

    import ray.data

    from ctinexus_ray.state.tableformat import (
        commit_version,
        merge_upsert,
        read_version,
    )

    import os as _os

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tdir = f"/tmp/table_merge_{tag}"
    shutil.rmtree(tdir, ignore_errors=True)
    base_dir = f"{tdir}/base"
    _docs(sf_dir, ["doc_id", "text"]).write_parquet(base_dir)
    commit_version(
        tdir,
        sorted(
            f"{base_dir}/{n}"
            for n in _os.listdir(base_dir)
            if n.endswith(".parquet")
        ),
        mode="overwrite",
    )

    def make_updates(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_text, out_del = [], [], []
        for i, t in zip(ids, texts):
            if i % 3 == 0:
                out_id.append(i)
                out_text.append(None if t is None else t + " u")
                out_del.append(False)
            if i % 30 == 1:
                out_id.append(i)
                out_text.append(None)
                out_del.append(True)
            if i % 50 == 0:
                out_id.append(i + 1_000_000)
                out_text.append("inserted")
                out_del.append(False)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "text": pa.array(out_text, type=pa.string()),
                "is_del": pa.array(out_del, type=pa.bool_()),
            }
        )

    updates = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        make_updates, batch_format="pyarrow"
    )
    merge_upsert(
        tdir, updates, key_col="doc_id", delete_col="is_del",
        num_partitions=16,
    )
    return read_version(tdir).select_columns(["doc_id", "text"])


def _q_orders_dq_unique(sf_dir: str):
    """Uniqueness expectations (the cross-row DQ rule per-row predicates
    can't express): rows beyond the first occurrence of their key — a
    valid primary key scores 0. One count reduce per rule, O(P) driver
    ints. ✓SQL (count(*) - count(DISTINCT) twins)."""
    import ray.data

    from ctinexus_ray.ops.dq import unique_violations

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    n = orders.count()
    rules = {
        "o_orderkey:unique": ["o_orderkey"],
        "o_custkey,o_orderdate:unique": ["o_custkey", "o_orderdate"],
    }
    out_rule, out_viol = [], []
    for name, cols in rules.items():
        out_rule.append(name)
        out_viol.append(unique_violations(orders, cols, num_partitions=16))
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "rule": pa.array(out_rule, type=pa.string()),
                "n_rows": pa.array([n] * len(out_rule), type=pa.int64()),
                "n_violations": pa.array(out_viol, type=pa.int64()),
            }
        )
    )


def _q_events_user_join_auto(sf_dir: str):
    """Skew-aware join auto-selection driven end-to-end: events joined
    to the customer dimension with the strategy (plain vs salted)
    chosen from a stride-sampled hot-key estimate — both paths produce
    identical rows, so the oracle pins correctness regardless of which
    fired. Output: per-(user, name) event counts. ✓SQL."""
    import ray.data

    from ctinexus_ray.ops.distjoin import skew_aware_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]
    ).select_columns(["user_id"])

    def ren(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("c_custkey").cast(pa.int64()),
                "c_name": batch.column("c_name"),
            }
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(ren, batch_format="pyarrow")
    joined = skew_aware_join(
        events, cust, on=["user_id"], num_partitions=16
    )
    return partitioned_agg(
        joined,
        keys=["user_id", "c_name"],
        named_aggs={"n": ("user_id", "size")},
        num_partitions=16,
    )


def _q_streaming_join(sf_dir: str):
    """The events table replayed as TWO out-of-order streams (views
    left, purchases right, keyed by user_id) through the watermarked
    stream-stream INTERVAL JOIN: purchase within 24h at or after the
    view. Lateness covers the replay disorder, so nothing drops and the
    streamed pairs must equal the batch band join — the exact-SQL
    anchor; finite-lateness drop/evict semantics are pinned in
    tests/test_streaming.py. ✓SQL."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.streaming import JoinStream

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "key": batch.column("user_id"),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    stream = JoinStream(
        lower_sec=0,
        upper_sec=86400,
        allowed_lateness_sec=1 << 40,  # replay disorder spans the file
        num_partitions=4,
        key_type="int64",
    )
    for batch in events.map_batches(
        prep, batch_format="pyarrow"
    ).iter_batches(batch_size=4096, batch_format="pyarrow"):
        is_l = pc.equal(batch.column("event_type"), "view")
        is_r = pc.equal(batch.column("event_type"), "purchase")
        stream.feed(
            left=batch.filter(is_l).select(["key", "ts"]),
            right=batch.filter(is_r).select(["key", "ts"]),
        )
    out = stream.close()
    assert stream.late_dropped() == 0

    def shape(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("key"),
                "view_ts": batch.column("l_ts"),
                "purchase_ts": batch.column("r_ts"),
            }
        )

    return out.map_batches(shape, batch_format="pyarrow")


def _q_streaming_hourly(sf_dir: str):
    """The events table REPLAYED as an out-of-order micro-batch stream
    through the watermarked tumbling-window operator (hourly windows
    keyed by event_type, lateness beyond the replay disorder so nothing
    drops): with every window finalized, the streaming result must
    equal the batch GROUP BY — the exact-SQL anchor for the streaming
    family (finite-lateness drop semantics are pinned in
    tests/test_streaming.py). ✓SQL."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.streaming import WindowStream

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "ts_us": batch.column("ts").cast(pa.int64()),
                "key": batch.column("event_type"),
            }
        )

    stream = WindowStream(
        window_sec=3600,
        allowed_lateness_sec=1 << 40,  # replay disorder spans the file
        ts_col="ts_us",
        key_col="key",
        num_partitions=4,
    )
    for batch in events.map_batches(
        prep, batch_format="pyarrow"
    ).iter_batches(batch_size=4096, batch_format="pyarrow"):
        stream.feed(batch)
    out = stream.close()
    assert stream.late_dropped() == 0

    def shape(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "hour_ts": pc.divide(
                    batch.column("window_start"),
                    pa.scalar(1_000_000, pa.int64()),
                ),
                "event_type": batch.column("key"),
                "n_events": batch.column("n").cast(pa.int64()),
            }
        )

    return out.map_batches(shape, batch_format="pyarrow")


def _q_streaming_sliding(sf_dir: str):
    """Hopping (sliding) event-time windows through the watermarked
    streaming operator: 1-hour span / 15-minute hop, each event fans
    out to 4 windows inside the route task; with full lateness the
    stream must equal the batch fan-out GROUP BY (events_sliding's
    twin). ✓SQL."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.streaming import WindowStream

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"ts_us": batch.column("ts").cast(pa.int64())}
        )

    stream = WindowStream(
        window_sec=3600,
        hop_sec=900,
        allowed_lateness_sec=1 << 40,
        num_partitions=4,
    )
    for batch in events.map_batches(
        prep, batch_format="pyarrow"
    ).iter_batches(batch_size=4096, batch_format="pyarrow"):
        stream.feed(batch)
    out = stream.close()
    assert stream.late_dropped() == 0

    def shape(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "window_start_s": pc.divide(
                    batch.column("window_start"),
                    pa.scalar(1_000_000, pa.int64()),
                ),
                "n_events": batch.column("n").cast(pa.int64()),
            }
        )

    return out.map_batches(shape, batch_format="pyarrow")


def _q_streaming_sessions(sf_dir: str):
    """The events table replayed out-of-order through the watermarked
    GAP-SESSION window operator (merging windows, 1800 s gap, lateness
    beyond replay disorder): aggregated per user, the streaming result
    must equal the batch sessionize — the exact-SQL anchor for the
    merging-window family (finite-lateness and bridge-merge semantics
    pinned in tests/test_streaming.py). ✓SQL (event_sessions twin)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.streaming import SessionStream

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "ts_us": batch.column("ts").cast(pa.int64()),
                "key": batch.column("user_id").cast(pa.int64()).cast(
                    pa.string()
                ),
            }
        )

    stream = SessionStream(
        gap_sec=1800,
        allowed_lateness_sec=1 << 40,
        num_partitions=4,
    )
    for batch in events.map_batches(
        prep, batch_format="pyarrow"
    ).iter_batches(batch_size=4096, batch_format="pyarrow"):
        stream.feed(batch)
    out = stream.close()
    assert stream.late_dropped() == 0

    def shape(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "user_id": pc.cast(batch.column("key"), pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
            }
        )

    return partitioned_agg(
        out.map_batches(shape, batch_format="pyarrow"),
        keys=["user_id"],
        named_aggs={
            "n_sessions": ("n_events", "size"),
            "n_events": ("n_events", "sum"),
        },
        num_partitions=16,
    )


def _q_funnel_windowed(sf_dir: str):
    """Conversion-window funnel: users with view -> click -> purchase
    strictly in order AND completed within 1 hour of the view — the
    Amplitude/Mixpanel semantics where a global greedy pass is wrong
    (an early view can overrun the window while a later one converts);
    k-1 simultaneous searchsorted rounds over all step-1 candidates,
    exhaustive-search-pinned in tests. ✓SQL (EXISTS self-join twin)."""
    import ray.data

    from ctinexus_ray.ops.relational import funnel_users_windowed

    return funnel_users_windowed(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_type"],
        ),
        steps=["view", "click", "purchase"],
        window_s=86400,
        num_partitions=16,
    )


def _q_zipf_slope(sf_dir: str):
    """Zipf fit of the corpus word-frequency distribution: least-squares
    slope of ln(freq) against ln(rank) — a healthy natural-language
    corpus sits near -1, template/boilerplate soup does not. Word
    counts via per-batch combine + one vocab reduce; ranks from the
    distributed row_number; logs quantized to integer MILLI-nats before
    the closed-form integer sums, so the slope is an exact (num, den)
    rational with identical arithmetic on both sides (products stay
    within int64 to ~1e8 distinct words). ✓SQL."""
    import math

    import numpy as np
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import global_row_number
    from ctinexus_ray.ops.textstats import word_explode_batch

    counts = partitioned_agg(
        _docs(sf_dir, ["text"]).map_batches(
            word_explode_batch, batch_format="pyarrow"
        ),
        keys=["word"],
        named_aggs={"n": ("n", "sum")},
        num_partitions=16,
    )

    def as_arrow(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "word": batch.column("word").cast(pa.string()),
                "n": batch.column("n").cast(pa.int64()),
            }
        )

    ranked = global_row_number(
        counts.map_batches(as_arrow, batch_format="pyarrow"),
        sort_keys=["n", "word"],
        descending=[True, False],
    )

    def partials(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        # libm ln + FLOOR quantization, identical per-value on both sides
        x = np.array(
            [math.floor(math.log(v) * 1e3 + 0.5) for v in r], dtype=np.int64
        )
        y = np.array(
            [math.floor(math.log(v) * 1e3 + 0.5) for v in n], dtype=np.int64
        )
        return pa.Table.from_pydict(
            {
                "k": pa.array([1] * 1, type=pa.int64()),
                "cnt": pa.array([len(x)], type=pa.int64()),
                "sx": pa.array([int(x.sum())], type=pa.int64()),
                "sy": pa.array([int(y.sum())], type=pa.int64()),
                "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
                "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
            }
        )

    parts = ranked.map_batches(partials, batch_format="pyarrow").take_all()
    cnt = sum(int(p["cnt"]) for p in parts)
    sx = sum(int(p["sx"]) for p in parts)
    sy = sum(int(p["sy"]) for p in parts)
    sxx = sum(int(p["sxx"]) for p in parts)
    sxy = sum(int(p["sxy"]) for p in parts)
    return pa.Table.from_pydict(
        {
            "n_words": pa.array([cnt], type=pa.int64()),
            "slope_num": pa.array([cnt * sxy - sx * sy], type=pa.int64()),
            "slope_den": pa.array([cnt * sxx - sx * sx], type=pa.int64()),
        }
    )


_HEAPS_THRESHOLDS = [100, 1000, 10000, 50000]


def _q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth: distinct words seen within the
    first N tokens of the doc_id-ordered token stream, for a threshold
    ladder — the sublinearity check that separates natural language
    from id/boilerplate soup. Global token positions come from the
    two-phase prefix scan over per-doc token counts (O(ranges) driver
    ints); each word's FIRST position is one min reduce; the ladder is
    answered by one vectorized pass over the vocabulary table. ✓SQL."""
    import numpy as np

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import partitioned_prefix_sum
    from ctinexus_ray.ops.textstats import _tokens, token_count_batch

    docs = _docs(sf_dir, ["doc_id", "text"])
    bases = partitioned_prefix_sum(
        docs.map_batches(token_count_batch, batch_format="pyarrow"),
        order_key="doc_id",
        value_col="n_tokens",
        out_col="base",
        exclusive=True,
    ).select_columns(["doc_id", "base"])

    def first_offsets(batch: pa.Table) -> pa.Table:
        ids, words, offs = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            seen: dict = {}
            for i, w in enumerate(_tokens(text or "")):
                if w not in seen:
                    seen[w] = i
            for w, i in seen.items():
                ids.append(doc_id)
                words.append(w)
                offs.append(i)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "word": pa.array(words, type=pa.string()),
                "off": pa.array(offs, type=pa.int64()),
            }
        )

    def as_arrow(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "base": batch.column("base").cast(pa.int64()),
            }
        )

    joined = hash_join(
        docs.map_batches(first_offsets, batch_format="pyarrow"),
        bases.map_batches(as_arrow, batch_format="pyarrow"),
        on=["doc_id"],
        num_partitions=16,
    )

    def global_first(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "word": batch.column("word"),
                "pos": pc.add(batch.column("base"), batch.column("off")),
            }
        )

    firsts = partitioned_agg(
        joined.map_batches(global_first, batch_format="pyarrow"),
        keys=["word"],
        named_aggs={"first": ("pos", "min")},
        num_partitions=16,
    )

    thresholds = np.array(_HEAPS_THRESHOLDS, dtype=np.int64)

    def ladder(batch: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        f = batch["first"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "n_tokens": thresholds,
                "vocab": [int((f < t).sum()) for t in thresholds],
            }
        )

    parts = firsts.map_batches(ladder, batch_format="pandas").take_all()
    agg: dict = {int(t): 0 for t in thresholds}
    for p in parts:
        agg[int(p["n_tokens"])] += int(p["vocab"])
    return pa.Table.from_pydict(
        {
            "n_tokens": pa.array(sorted(agg), type=pa.int64()),
            "vocab": pa.array(
                [agg[k] for k in sorted(agg)], type=pa.int64()
            ),
        }
    )


def _q_event_trigrams(sf_dir: str):
    """Session-path mining one level past the Markov transition matrix:
    counts of CONSECUTIVE event-type TRIPLES per user timeline (double
    LEAD). One user shuffle; triples extracted with boundary-masked
    numpy shifts inside each partition; output is type^3-bounded. ✓SQL."""
    import numpy as np
    import ray.data

    from ctinexus_ray.ops.groupagg import hash_reduce, partitioned_agg

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id",
                                             "event_type"]
    )

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    def triples(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(dtype=np.int64)
        e = g["event_type"].to_numpy()
        n = len(u)
        if n < 3:
            return pd.DataFrame(
                {c: pd.Series([], dtype="object") for c in ("e1", "e2", "e3")}
            )
        same3 = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        return pd.DataFrame(
            {
                "e1": e[:-2][same3],
                "e2": e[1:-1][same3],
                "e3": e[2:][same3],
            }
        )

    exploded = hash_reduce(
        events.map_batches(to_us, batch_format="pyarrow"),
        ["user_id"], triples, num_partitions=16,
    )
    return partitioned_agg(
        exploded,
        keys=["e1", "e2", "e3"],
        named_aggs={"n": ("e1", "size")},
        num_partitions=16,
    )


def _q_churned_users(sf_dir: str):
    """Churn slice: users whose LAST event lands in the first half of
    the first 99% of the observation range (gone quiet in the final
    tail) — one metadata-cheap global min/max + one
    per-user max reduce + a broadcast-threshold filter. ✓SQL."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    pe = events.map_batches(prep, batch_format="pyarrow")
    lo = pe.min("ts_us")
    hi = pe.max("ts_us")
    cutoff = lo + (hi - lo) * 99 // 100
    last = partitioned_agg(
        pe,
        keys=["user_id"],
        named_aggs={"last_us": ("ts_us", "max")},
        num_partitions=16,
    )

    def keep(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "last_us": batch.column("last_us").cast(pa.int64()),
            }
        )
        return t.filter(pc.less(t.column("last_us"), pa.scalar(cutoff)))

    return last.map_batches(keep, batch_format="pyarrow")


def _q_user_active_time(sf_dir: str):
    """Total ACTIVE time per user: 5-minute activity intervals opened by
    each event, merged where overlapping (islands-and-gaps), covered
    length summed — engagement minutes instead of burst-double-counting
    event counts. One user shuffle, C-level grouped cummax, all-int64
    microseconds. ✓SQL (running-max window twin)."""
    import ray.data

    from ctinexus_ray.ops.relational import interval_union_length

    return interval_union_length(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        ),
        dur_us=300_000_000,
        num_partitions=16,
    )


def _q_corpus_stats_monoid(sf_dir: str):
    """One-pass corpus stats through the GENERIC monoid-aggregation API
    (ops/monoid.py): every block lifts to a fixed-size (n, sum, min,
    max) state inside its own task, states tree-reduce with fan-in 8 —
    the documented extension point behind the engine's hand-written
    combiners, exercised on the contract. ✓SQL."""
    import ray.data

    from ctinexus_ray.ops.monoid import mergeable_aggregate

    def lift(block: pa.Table):
        a = block.column("n_chars").to_numpy(zero_copy_only=False)
        return (len(a), int(a.sum()), int(a.min()), int(a.max()))

    def merge(x, y):
        return (
            x[0] + y[0],
            x[1] + y[1],
            min(x[2], y[2]),
            max(x[3], y[3]),
        )

    n, total, lo, hi = mergeable_aggregate(
        _docs(sf_dir, ["n_chars"]),
        zero=lambda: (0, 0, 2**62, -(2**62)),
        lift=lift,
        merge=merge,
    )
    return pa.Table.from_pydict(
        {
            "n_docs": pa.array([n], type=pa.int64()),
            "sum_chars": pa.array([total], type=pa.int64()),
            "min_chars": pa.array([lo], type=pa.int64()),
            "max_chars": pa.array([hi], type=pa.int64()),
        }
    )


def _q_ab_chi2(sf_dir: str):
    """A/B-test chi-square homogeneity: does the event-type mix differ
    between the user_id-parity cohorts? Per-cell EXACT integer
    rationals — (O*N - RT*CT)^2 / (RT*CT*N) — so no float ever crosses
    a row boundary; the corpus collapses to a (cohort, type) count
    reduce (cells <= cohorts x types rows by construction). int64 bound:
    the squared term needs (o*n)^2 < 2^63 (~3e9 events); both sides
    overflow LOUDLY past it (pa.array raises, DuckDB BIGINT raises) —
    switch to the micro-quantized double form at that scale. ✓SQL."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def cohorted(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_valid(batch.column("user_id")))
        return pa.Table.from_pydict(
            {
                "cohort": pc.cast(
                    pc.bit_wise_and(batch.column("user_id"), 1), pa.int64()
                ),
                "event_type": batch.column("event_type"),
            }
        )

    cells = partitioned_agg(
        events.map_batches(cohorted, batch_format="pyarrow"),
        keys=["cohort", "event_type"],
        named_aggs={"o": ("cohort", "size")},
        num_partitions=16,
    ).take_all()  # <= cohorts x event types rows by construction
    n = sum(int(c["o"]) for c in cells)
    rt: dict = {}
    ct: dict = {}
    for c in cells:
        rt[c["cohort"]] = rt.get(c["cohort"], 0) + int(c["o"])
        ct[c["event_type"]] = ct.get(c["event_type"], 0) + int(c["o"])
    out = {"cohort": [], "event_type": [], "chi2_num": [], "chi2_den": []}
    for c in cells:
        o, co, ty = int(c["o"]), c["cohort"], c["event_type"]
        diff = o * n - rt[co] * ct[ty]
        out["cohort"].append(co)
        out["event_type"].append(ty)
        out["chi2_num"].append(diff * diff)
        out["chi2_den"].append(rt[co] * ct[ty] * n)
    return pa.Table.from_pydict(
        {
            "cohort": pa.array(out["cohort"], type=pa.int64()),
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "chi2_num": pa.array(out["chi2_num"], type=pa.int64()),
            "chi2_den": pa.array(out["chi2_den"], type=pa.int64()),
        }
    )


def _q_events_fk_check(sf_dir: str):
    """Referential-integrity expectations: orphan child rows per FK rule
    (distinct-key reduce -> anti-join vs the parent key set; multiplicity
    rides the reduce so ROWS are counted). orders->customer is a clean
    FK (0); events.user_id->customer is intentionally leaky in the
    synthetic data — the rule that actually fires. ✓SQL (NOT IN
    twins, NULL child keys counted as violations on both sides)."""
    import ray.data

    from ctinexus_ray.ops.dq import fk_violations

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )

    def ren(ds, name):
        def do(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {"key": batch.column(name).cast(pa.int64())}
            )

        return ds.map_batches(do, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    parent = ren(cust, "c_custkey")
    rules = {
        "o_custkey->customer": ren(orders, "o_custkey"),
        "user_id->customer": ren(events, "user_id"),
    }
    out_rule, out_viol = [], []
    for name, child in rules.items():
        out_rule.append(name)
        out_viol.append(
            fk_violations(child, parent, "key", num_partitions=16)
        )
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "rule": pa.array(out_rule, type=pa.string()),
                "n_violations": pa.array(out_viol, type=pa.int64()),
            }
        )
    )


def _q_lineitem_price_median(sf_dir: str):
    """Exact median of lineitem extended price (integer cents) over an
    UNBOUNDED value domain — distributed quickselect by iterative
    histogram narrowing (<= n_buckets ints reach the driver per pass;
    2-3 passes in practice), where the value-domain histogram of
    doc_len_quantiles would blow up. ✓SQL (quantile_disc twin)."""
    import math

    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.relational import exact_kth_element

    def cents(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "cents": pc.cast(
                    pc.floor(
                        pc.add(
                            pc.multiply(
                                batch.column("l_extendedprice"),
                                pa.scalar(100.0),
                            ),
                            pa.scalar(0.5),
                        )
                    ),
                    pa.int64(),
                )
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    ).map_batches(cents, batch_format="pyarrow")
    n = li.count()
    k = max(1, math.ceil(0.5 * n))  # quantile_disc(0.5) rank
    value = exact_kth_element(li, "cents", k)
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "q": pa.array([0.5], type=pa.float64()),
                "value": pa.array([value], type=pa.int64()),
            }
        )
    )


def _q_regex_extract(sf_dir: str):
    """Generic regex extract-all: every non-overlapping '[a-z]+a[a-z]*'
    match per document as (doc_id, idx, match) — the ad-hoc sibling of
    the pinned IOC detector. Stateless explode map, regex compiled once
    per task. ✓SQL (regexp_extract_all + unnest twin)."""
    from ctinexus_ray.ops.semistruct import regex_extract_all

    return regex_extract_all(
        _docs(sf_dir, ["doc_id", "text"]),
        id_col="doc_id",
        text_col="text",
        pattern="[a-z]+a[a-z]*",
    )


def _q_table_version_diff(sf_dir: str):
    """Version-to-version diff of the versioned table: the table_merge
    scenario committed as v1 -> merged v2, then 'added'/'removed' rows
    from two (doc_id, text)-keyed anti-joins across the time-travel
    reads — the audit view of what a merge actually changed. NULL text
    joins via a sentinel key so NULL==NULL like SQL set ops. ✓SQL
    (EXCEPT twins over the same merge expression)."""
    import hashlib
    import os as _os
    import shutil

    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.state.tableformat import (
        commit_version,
        merge_upsert,
        read_version,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tdir = f"/tmp/table_diff_{tag}"
    shutil.rmtree(tdir, ignore_errors=True)
    base_dir = f"{tdir}/base"
    _docs(sf_dir, ["doc_id", "text"]).write_parquet(base_dir)
    commit_version(
        tdir,
        sorted(
            f"{base_dir}/{n}"
            for n in _os.listdir(base_dir)
            if n.endswith(".parquet")
        ),
        mode="overwrite",
    )

    def make_updates(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_text, out_del = [], [], []
        for i, t in zip(ids, texts):
            if i % 3 == 0:
                out_id.append(i)
                out_text.append(None if t is None else t + " u")
                out_del.append(False)
            if i % 30 == 1:
                out_id.append(i)
                out_text.append(None)
                out_del.append(True)
            if i % 50 == 0:
                out_id.append(i + 1_000_000)
                out_text.append("inserted")
                out_del.append(False)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "text": pa.array(out_text, type=pa.string()),
                "is_del": pa.array(out_del, type=pa.bool_()),
            }
        )

    merge_upsert(
        tdir,
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            make_updates, batch_format="pyarrow"
        ),
        key_col="doc_id",
        delete_col="is_del",
        num_partitions=16,
    )

    def keyed(ds):
        def do(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "doc_id": batch.column("doc_id").cast(pa.int64()),
                    "text": batch.column("text"),
                    "tkey": pc.fill_null(batch.column("text"), "\x01"),
                }
            )

        return ds.select_columns(["doc_id", "text"]).map_batches(
            do, batch_format="pyarrow"
        )

    v1 = keyed(read_version(tdir, 1))
    v2 = keyed(read_version(tdir, 2))

    def tag_op(ds, op):
        def do(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "op": pa.array([op] * batch.num_rows, type=pa.string()),
                    "doc_id": batch.column("doc_id"),
                    "text": batch.column("text"),
                }
            )

        return ds.map_batches(do, batch_format="pyarrow")

    added = hash_join(
        v2,
        v1.select_columns(["doc_id", "tkey"]),
        on=["doc_id", "tkey"],
        how="left_anti",
        num_partitions=16,
    )
    removed = hash_join(
        v1,
        v2.select_columns(["doc_id", "tkey"]),
        on=["doc_id", "tkey"],
        how="left_anti",
        num_partitions=16,
    )
    return tag_op(added, "added").union(tag_op(removed, "removed"))


def _q_consistent_sample_join(sf_dir: str):
    """Join-consistent sampling: sample the KEY DOMAIN (10% of
    customers by content-addressed md5), then keep every order of a
    sampled customer via a hash semi-join — the sampling discipline
    that preserves join structure across tables (sampling each table
    independently would destroy the foreign-key overlap quadratically).
    Zero-RNG, reshard-stable, one shuffle. ✓SQL (identical md5
    predicate + semi join)."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.shards import deterministic_sample

    cust = deterministic_sample(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey"]
        ),
        key_col="c_custkey",
        pct=10,
        salt="csample",
    )

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["ckey"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "ckey": batch.column("o_custkey").cast(pa.int64()),
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "total_cents": pc.cast(
                    pc.floor(
                        pc.add(
                            pc.multiply(
                                batch.column("o_totalprice"),
                                pa.scalar(100.0),
                            ),
                            pa.scalar(0.5),
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(prep, batch_format="pyarrow")
    return hash_join(
        orders,
        cust.map_batches(ren, batch_format="pyarrow"),
        on=["ckey"],
        how="left_semi",
        num_partitions=16,
    )


def _q_orders_scd2(sf_dir: str):
    """Type-2 SCD history of each customer's order-status change log:
    valid_from = the order's date, valid_to = the customer's NEXT order
    date (NULL = current) — one hash shuffle, vectorized boundary-masked
    window, NULLs carried as masked int64 (never float64). ✓SQL (LEAD
    window twin)."""
    import ray.data

    from ctinexus_ray.ops.relational import scd2_history

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_orderstatus"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "ckey": batch.column("o_custkey").cast(pa.int64()),
                "ts_us": batch.column("o_orderdate").cast(pa.int64()),
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "o_status": batch.column("o_orderstatus"),
            }
        )

    return scd2_history(
        orders.map_batches(prep, batch_format="pyarrow"),
        key_col="ckey",
        ts_col="ts_us",
        tie_col="okey",
        payload_cols=["o_status"],
    )


def _q_event_gap_quantiles(sf_dir: str):
    """Exact quantiles of per-user inter-arrival gaps (whole seconds):
    the LAG-diff composed from scd2_history (valid_to - valid_from of
    each user's event log) + the value-domain histogram quantile walk —
    no new shuffle shape, two existing ops composed. ✓SQL (LAG window +
    quantile_disc twin)."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.relational import int_column_quantiles, scd2_history

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
            }
        )

    hist = scd2_history(
        events.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        ts_col="ts_us",
        tie_col="event_id",
        payload_cols=[],
    )

    def gaps(batch: pa.Table) -> pa.Table:
        vt = batch.column("valid_to")
        vf = batch.column("valid_from")
        gap_s = pc.divide(pc.subtract(vt, vf), pa.scalar(1_000_000, pa.int64()))
        t = pa.Table.from_pydict({"gap_s": gap_s})
        return t.filter(pc.is_valid(t.column("gap_s")))

    return int_column_quantiles(
        hist.map_batches(gaps, batch_format="pyarrow"),
        "gap_s",
        [0.1, 0.5, 0.9, 0.99],
    )


def _q_chi2_terms(sf_dir: str):
    """Chi-square feature selection: top-20 terms most associated with
    each language (presence-based 2x2 contingency). One corpus-shuffled
    (lang, word) count reduce; df re-aggregates the vocabulary table;
    per-lang totals broadcast; micro-quantized pinned-order IEEE. ✓SQL."""
    from ctinexus_ray.ops.textstats import chi2_terms

    return chi2_terms(
        _docs(sf_dir, ["lang", "text"]), k=20, num_partitions=64
    )


def _q_lang_len_auc(sf_dir: str):
    """Exact ROC-AUC (Mann-Whitney rank-sum, midrank ties) of document
    length as a predictor of lang='en' — the "does this score actually
    separate the classes" gate for any corpus quality classifier. One
    distinct-score reduce + a two-phase prefix scan; output is a single
    row of exact int64 rationals (auc = auc_num / auc_den). ✓SQL."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.mleval import auc_rank

    def lab(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "score": batch.column("n_chars").cast(pa.int64()),
                "pos": pc.cast(
                    pc.equal(batch.column("lang"), "en"), pa.int64()
                ),
            }
        )

    return auc_rank(
        _docs(sf_dir, ["lang", "n_chars"]).map_batches(
            lab, batch_format="pyarrow"
        ),
        "score",
        "pos",
    )


_LPA_ROUNDS = 3


def _q_name_lpa_communities(sf_dir: str):
    """Synchronous label-propagation community detection (3 rounds) over
    the edit-distance name-match graph: per round one node-sized label
    join + one map-side-combined count+argmax reduce; fixed round count
    keeps the unrolled-CTE SQL twin exact (the k-core pattern). ✓SQL."""
    from ctinexus_ray.ops.graph import lpa_communities

    return lpa_communities(
        _name_edges(sf_dir), rounds=_LPA_ROUNDS, num_partitions=16
    )


def _lpa_oracle() -> str:
    # same AS MATERIALIZED discipline as _kcore_oracle: each round
    # references the previous label set, inlining would blow up scans
    sql = (
        "WITH e0 AS MATERIALIZED (SELECT a.c_custkey AS u, b.c_custkey AS v "
        "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
        "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
        "d AS MATERIALIZED (SELECT u AS src, v AS dst FROM e0 "
        "UNION ALL SELECT v, u FROM e0), "
        "l0 AS MATERIALIZED (SELECT src AS node, src AS label "
        "FROM d GROUP BY src)"
    )
    prev = "l0"
    for i in range(1, _LPA_ROUNDS + 1):
        sql += (
            f", c{i} AS MATERIALIZED (SELECT d.dst AS node, "
            f"p.label AS label, count(*) AS cnt FROM d "
            f"JOIN {prev} p ON d.src = p.node GROUP BY d.dst, p.label), "
            f"l{i} AS MATERIALIZED (SELECT node, label FROM "
            f"(SELECT node, label, row_number() OVER (PARTITION BY node "
            f"ORDER BY cnt DESC, label ASC) AS rn FROM c{i}) WHERE rn = 1)"
        )
        prev = f"l{i}"
    return sql + f" SELECT node, label FROM {prev}"


def _q_repetition_stats(sf_dir: str):
    """Gopher-style within-doc repetition signals (duplicate-word
    fraction + top-word character fraction); stateless per-batch map."""
    from ctinexus_ray.ops.textstats import repetition_stats_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pyarrow"
    )


def _q_balanced_sample(sf_dir: str):
    """Deterministic per-source balanced downsampling (every source keeps
    an expected min-source-count rows via an md5 threshold — the data-
    mixing primitive); O(#sources) driver state, no corpus shuffle."""
    from ctinexus_ray.ops.shards import balanced_sample

    return balanced_sample(
        _docs(sf_dir, ["doc_id", "source"]), group_col="source",
        id_col="doc_id",
    )


def _q_ranked_docs(sf_dir: str):
    """Global ROW_NUMBER by (n_chars DESC, doc_id ASC): one range-
    partitioned sort, O(#blocks) ints on the driver, rank appended
    per block in place."""
    from ctinexus_ray.ops.shards import global_row_number

    return global_row_number(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        sort_keys=["n_chars", "doc_id"],
        descending=[True, False],
    )


def _q_lang_len_quantiles(sf_dir: str):
    """Per-language exact discrete length quantiles (grouped value-domain
    histogram, no sort)."""
    from ctinexus_ray.ops.relational import grouped_int_quantiles

    return grouped_int_quantiles(
        _docs(sf_dir, ["lang", "n_chars"]),
        group_col="lang",
        col="n_chars",
        quantiles=[0.25, 0.5, 0.75, 0.99],
    )


def _q_bloom_incremental(sf_dir: str):
    """Incremental dedup via Bloom membership: the known corpus (even
    doc_ids) builds a 1 MiB mergeable bitmap over md5 fingerprints; new
    docs (odd ids) stream through a broadcast vectorized probe and only
    DEFINITELY-new ones survive. Constant memory where the exact
    anti-join (``dedup_incremental``) ships the whole known index
    through a shuffle; false positives drop some genuinely-new docs (at
    the filter's fp rate) but never let a dup through. ✓SQL: the Bloom
    positions are replicated bit-for-bit in DuckDB (_sketch_oracles);
    also anchored against the exact anti-join in tests."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.sketch import bloom_build, bloom_filter_new
    from ctinexus_ray.ops.textstats import fingerprint_batch

    fps = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )

    def parity(want_odd):
        def f(batch):
            t = batch.filter(
                pc.equal(
                    pc.bit_wise_and(batch.column("doc_id"), 1),
                    1 if want_odd else 0,
                )
            )
            if t.num_rows:
                yield t

        return f

    known = fps.map_batches(parity(False), batch_format="pyarrow")
    new = fps.map_batches(parity(True), batch_format="pyarrow")
    bits = bloom_build(known, "fp")
    return bloom_filter_new(new, "fp", bits)


def _q_temperature_sample(sf_dir: str):
    """Temperature-based mixing sampler (alpha=0.5): per-source keep rate
    sqrt(min_count/count) via md5 threshold — the knob between natural
    and balanced mixing; shuffle-free, O(#sources) driver state."""
    from ctinexus_ray.ops.shards import temperature_sample

    return temperature_sample(
        _docs(sf_dir, ["doc_id", "source"]),
        group_col="source",
        id_col="doc_id",
        alpha=0.5,
    )


def _q_doc_sample_k(sf_dir: str):
    """Exactly-k deterministic uniform sample: k smallest md5(doc_id)
    digests via batch-local top-k + one small merge; no corpus sort."""
    from ctinexus_ray.ops.shards import uniform_sample_k

    return uniform_sample_k(
        _docs(sf_dir, ["doc_id", "source"]), id_col="doc_id", k=100
    )


def _q_custkeys_without_orders(sf_dir: str):
    """ANSI EXCEPT: distinct customer keys with no FINISHED ('F') order.
    Both sides corpus-sized; one hash-partitioned presence reduce."""
    import ray.data

    from ctinexus_ray.ops.distjoin import distinct_set_op

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'F'").select_columns(["o_custkey"])

    def ren(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"custkey": batch.column(0).cast(pa.int64())}
        )

    return distinct_set_op(
        customer.map_batches(ren, batch_format="pyarrow"),
        orders.map_batches(ren, batch_format="pyarrow"),
        keys=["custkey"],
        op="except",
    )


def _q_active_custkeys(sf_dir: str):
    """ANSI INTERSECT: distinct customer keys present in BOTH the
    customer table and the orders table (same presence-reduce shape as
    EXCEPT; the op is a stateless filter over the flags)."""
    import ray.data

    from ctinexus_ray.ops.distjoin import distinct_set_op

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def ren(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"custkey": batch.column(0).cast(pa.int64())}
        )

    return distinct_set_op(
        customer.map_batches(ren, batch_format="pyarrow"),
        orders.map_batches(ren, batch_format="pyarrow"),
        keys=["custkey"],
        op="intersect",
    )


def _q_len_quantiles_tdigest(sf_dir: str):
    """Approximate quantiles via mergeable t-digest (unbounded-domain
    scale path; accuracy vs the exact histogram pinned in tests).
    Rows-only by design — approximate values have no SQL equal."""
    from ctinexus_ray.ops.sketch import tdigest_quantiles

    return tdigest_quantiles(
        _docs(sf_dir, ["n_chars"]),
        column="n_chars",
        quantiles=[0.25, 0.5, 0.75, 0.99],
    )


def _q_doc_len_quantiles(sf_dir: str):
    """Exact discrete quantiles of document length without a global sort
    (value-domain histogram + cumulative walk)."""
    from ctinexus_ray.ops.relational import int_column_quantiles

    return int_column_quantiles(
        _docs(sf_dir, ["n_chars"]), "n_chars", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    )


def _q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking candidates over (n_chars, doc_id)
    order, window 3: ONE range-partitioned sort, vectorized
    within-batch pairs, O(w x batches) boundary rows close the
    cross-batch pairs on the driver. The hash-free blocking paradigm
    beside MinHash/SimHash. ✓SQL."""
    from ctinexus_ray.ops.dedup import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        sort_cols=["n_chars", "doc_id"],
        id_col="doc_id",
        window=3,
    )


def _q_doc_len_quantiles_cont(sf_dir: str):
    """Interpolated percentile_cont quantiles of document length via the
    same value-domain histogram (no global sort) + the two order
    statistics around each fractional position; pinned-order double
    interpolation so the SQL formula twin is bit-exact. ✓SQL."""
    from ctinexus_ray.ops.relational import int_column_quantiles_cont

    return int_column_quantiles_cont(
        _docs(sf_dir, ["n_chars"]), "n_chars", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    )


def _doc_len_quantiles_cont_sql() -> str:
    parts = []
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        h = f"(CAST({q} AS DOUBLE) * CAST(nn.n - 1 AS DOUBLE))"
        parts.append(
            f"SELECT CAST({q} AS DOUBLE) AS q, "
            f"CAST(lo.x AS DOUBLE) + (CAST(hi.x AS DOUBLE) - "
            f"CAST(lo.x AS DOUBLE)) * ({h} - FLOOR({h})) AS value "
            f"FROM nn JOIN r lo ON lo.rk = CAST(FLOOR({h}) AS BIGINT) "
            f"JOIN r hi ON hi.rk = CAST(CEIL({h}) AS BIGINT)"
        )
    return (
        "WITH v AS (SELECT CAST(n_chars AS BIGINT) AS x FROM documents), "
        "nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM v), "
        "r AS (SELECT x, row_number() OVER (ORDER BY x) - 1 AS rk FROM v) "
        + " UNION ALL ".join(parts)
    )


def _q_events_minmax_by_type(sf_dir: str):
    """Grouped Min/Max/Count over epoch-cast timestamps."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.relational import minmax_count_by_key

    def to_epoch(batch: pa.Table) -> pa.Table:
        secs = pc.divide(batch.column("ts").cast(pa.int64()), 1_000_000)
        return pa.Table.from_pydict(
            {"event_type": batch.column("event_type"), "epoch_s": secs}
        )

    ds = _events(sf_dir, ["ts", "event_type"]).map_batches(
        to_epoch, batch_format="pyarrow"
    )
    return minmax_count_by_key(
        ds, "event_type", "epoch_s",
        out_min="min_ts", out_max="max_ts", out_n="n_events",
    )


def _q_customer_orders_full(sf_dir: str):
    """FULL OUTER join of two corpus-sized sides (ops.distjoin.hash_join
    how='full'): BUILDING-segment customers vs per-customer order counts.
    Unmatched rows survive from BOTH sides with typed nulls; key columns
    coalesce (ANSI USING semantics)."""
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    ).filter(expr="c_mktsegment == 'BUILDING'")

    def cust_proj(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "custkey": batch.column("c_custkey").cast(pa.int64()),
                "c_name": batch.column("c_name"),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    per_cust = partitioned_agg(
        orders,
        keys=["o_custkey"],
        named_aggs={"n_orders": ("o_custkey", "size")},
    )

    def ord_proj(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "custkey": batch.column("o_custkey").cast(pa.int64()),
                "n_orders": batch.column("n_orders").cast(pa.int64()),
            }
        )

    return hash_join(
        customer.map_batches(cust_proj, batch_format="pyarrow"),
        per_cust.map_batches(ord_proj, batch_format="pyarrow"),
        on=["custkey"],
        how="full",
        left_types={"custkey": pa.int64(), "c_name": pa.string()},
        right_types={"custkey": pa.int64(), "n_orders": pa.int64()},
    )


def _q_purchase_click_band(sf_dir: str):
    """Pure band (range) join — no equi key: per purchase event, the
    count of click events (any user) within the preceding hour.
    ``ops.relational.band_join_count``: axis-bucketed co-shuffle +
    per-bucket vectorized searchsorted; matches are counted without
    materializing the joined rows."""
    from ctinexus_ray.ops.relational import band_join_count

    ev = _events(sf_dir, ["event_id", "ts", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'")
    clicks = ev.filter(expr="event_type == 'click'")
    return band_join_count(
        purchases,
        clicks,
        left_id="event_id",
        left_on="ts",
        right_on="ts",
        lower=-3_600_000_000,
        upper=0,
        out="n_clicks",
    )


def _q_events_sliding(sf_dir: str):
    """Sliding (hopping) event-time windows: 1-hour span, 15-minute hop —
    each event fans out to 4 windows (vectorized np.repeat of one int64
    column), then one hash-partitioned count reduce."""
    from ctinexus_ray.ops.relational import sliding_window_counts

    return sliding_window_counts(
        _events(sf_dir, ["ts"]), ts_col="ts", window_s=3600, slide_s=900
    )


def _q_events_sliding_users(sf_dir: str):
    """Windowed COUNT(DISTINCT): unique users per 1-hour sliding window
    (15-minute hop) — the rolling-reach shape. Vectorized fan-out, one
    (window, user) presence reduce, one window count; no distinct set
    ever materializes in one place. ✓SQL."""
    from ctinexus_ray.ops.relational import sliding_window_counts

    return sliding_window_counts(
        _events(sf_dir, ["ts", "user_id"]), ts_col="ts", window_s=3600,
        slide_s=900, distinct_col="user_id",
    )


def _q_orders_status_pivot(sf_dir: str):
    """Pivot (long -> wide): per order-year counts by status as columns.
    One vectorized indicator-column pass + one hash-partitioned sum —
    the pivot never shuffles more than (year, 3 x int64) per row."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_orderstatus"]
    )

    def indicators(batch: pa.Table) -> pa.Table:
        status = batch.column("o_orderstatus")
        return pa.Table.from_pydict(
            {
                "o_year": pc.year(batch.column("o_orderdate")),
                "n_open": pc.equal(status, "O").cast(pa.int64()),
                "n_filled": pc.equal(status, "F").cast(pa.int64()),
                "n_pending": pc.equal(status, "P").cast(pa.int64()),
            }
        )

    return partitioned_agg(
        orders.map_batches(indicators, batch_format="pyarrow"),
        keys=["o_year"],
        named_aggs={
            "n_open": ("n_open", "sum"),
            "n_filled": ("n_filled", "sum"),
            "n_pending": ("n_pending", "sum"),
        },
    )


def _q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(year, status) counts via ops.groupagg.rollup_counts:
    the corpus shuffles once at the finest level; coarser levels
    re-aggregate the previous level's (tiny) output."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.groupagg import rollup_counts

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_orderstatus"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_year": pc.year(batch.column("o_orderdate")),
                "o_status": batch.column("o_orderstatus"),
            }
        )

    return rollup_counts(
        orders.map_batches(keyed, batch_format="pyarrow"),
        keys=["o_year", "o_status"],
        out="n",
    )


def _q_pruned_range_scan(sf_dir: str):
    """Index-pruned range scan: the corpus is laid out sorted by
    n_chars into multi-row-group shards (one deterministic scratch dir
    per sf_dir, rebuilt in place so repeated sweeps don't accumulate
    /tmp copies), a footer-only min/max index is built distributed, the
    predicate [120, 300] prunes row groups, and ONLY surviving groups
    are read. The oracle is the plain full-scan SQL — so a false
    negative in the pruning (a missed row) hash-mismatches
    immediately."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    from ctinexus_ray.sources.pqindex import (
        build_minmax_index,
        prune_row_groups,
        read_pruned,
    )

    lo, hi = 120, 300
    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/pqindex_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    docs = (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .sort("n_chars")
        .repartition(8)
    )
    # distributed write; small row groups so pruning happens INSIDE
    # files too, not just at file granularity
    docs.write_parquet(tmp, row_group_size=32)
    import glob as _glob

    paths = sorted(_glob.glob(f"{tmp}/*.parquet"))

    idx = build_minmax_index(paths, ["n_chars"])
    pairs = prune_row_groups(idx, "n_chars", lo, hi)

    def in_range(batch: pa.Table) -> pa.Table:
        c = batch.column("n_chars")
        return batch.filter(
            pc.and_(pc.greater_equal(c, lo), pc.less_equal(c, hi))
        )

    return read_pruned(pairs).map_batches(in_range, batch_format="pyarrow")


def _q_events_dq(sf_dir: str):
    """Data-quality gate over the events stream: four named row rules
    (value bound, known enum, timestamp window, non-negative key)
    evaluated vectorized in ONE corpus pass emitting fixed-size
    per-batch partials — the report is O(#batches) driver work, the
    corpus never shuffles. Nulls fail (NOT coalesce(pred, false))."""
    import datetime

    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.dq import data_quality_report

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["value", "event_type", "ts", "user_id"],
    )
    enum = ("click", "view", "purchase", "error", "signup")
    lo = datetime.datetime(2024, 1, 1)
    hi = datetime.datetime(2024, 1, 15)

    rules = {
        "value_in_bounds": lambda b: pc.and_(
            pc.greater_equal(b.column("value"), 0.0),
            pc.less(b.column("value"), 400.0),
        ),
        "type_in_enum": lambda b: pc.is_in(
            b.column("event_type"), value_set=pa.array(enum)
        ),
        "ts_in_window": lambda b: pc.and_(
            pc.greater_equal(b.column("ts"), pa.scalar(lo)),
            pc.less(b.column("ts"), pa.scalar(hi)),
        ),
        "user_id_nonneg": lambda b: pc.greater_equal(
            b.column("user_id"), 0
        ),
    }
    return data_quality_report(events, rules)


def _q_lang_len_drift(sf_dir: str):
    """Exact two-sample KS distance between the doc-length distributions
    of two language slices (the corpus-drift monitor): one value-domain
    count reduce, integer sup statistic, single final division."""
    from ctinexus_ray.ops.relational import ks_drift

    return ks_drift(
        _docs(sf_dir, ["lang", "n_chars"]), "lang", "n_chars", "en", "de"
    )


def _q_event_type_pairs(sf_dir: str):
    """Market-basket co-occurrence over per-user event-type baskets
    ("users who did X also did Y"): one user-hash shuffle generates each
    basket's pairs vectorized, one pair-cardinality count reduce."""
    import ray.data

    from ctinexus_ray.ops.relational import basket_pairs

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return basket_pairs(events, "user_id", "event_type")


def _q_events_zorder(sf_dir: str):
    """Z-order (Morton) layout key over (user_id, floor(value)): the
    data-layout transform that co-locates rows close in BOTH dimensions
    so parquet min/max stats prune two-dimensional scan predicates. The
    key is a vectorized bit-interleave; the layout sort is Ray Data's
    range-partitioned sort. Oracle: the identical interleave written as
    a shift/mask CTE chain."""
    import ray.data

    from ctinexus_ray.ops.shards import zorder_layout

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    def buckets(batch: pa.Table) -> pa.Table:
        import numpy as np

        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "event_id": batch.column("event_id"),
                "a": batch.column("user_id"),
                "b": pa.array(
                    np.floor(v).astype(np.int64), type=pa.int64()
                ),
            }
        )

    laid_out = zorder_layout(
        events.map_batches(buckets, batch_format="pyarrow"), "a", "b"
    )
    return laid_out.select_columns(["event_id", "zval"])


def _q_crawl_delta(sf_dir: str):
    """Incremental crawl delta: two synthetic snapshots of the corpus
    (docs present per doc_id modulus; a slice of texts mutated in the
    new crawl) are reduced to (key, md5-of-payload) and diffed with ONE
    full-outer hash join + vectorized classify — emitting only
    added/removed/changed keys, the fraction a 100-TB incremental run
    actually reprocesses."""
    import hashlib

    from ctinexus_ray.ops.distjoin import snapshot_delta

    docs = _docs(sf_dir, ["doc_id", "text"])

    def snap(batch: pa.Table, *, old: bool) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_ids, fps = [], []
        for d, t in zip(ids, texts):
            t = t or ""
            if old:
                if d % 7 == 0:
                    continue
            else:
                if d % 5 == 0:
                    continue
                if d % 11 == 0:
                    t = t + "!"
            out_ids.append(d)
            fps.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "fp": pa.array(fps, type=pa.string()),
            }
        )

    import functools

    old = docs.map_batches(
        functools.partial(snap, old=True), batch_format="pyarrow"
    )
    new = docs.map_batches(
        functools.partial(snap, old=False), batch_format="pyarrow"
    )
    return snapshot_delta(old, new, "doc_id", "fp")


def _q_kn_bigram_lm(sf_dir: str):
    """Interpolated Kneser-Ney bigram LM fluency score per document:
    one bigram-vocabulary-sized count reduce, derived KN statistics on
    the driver, broadcast lookup scoring pass (no corpus shuffle).
    Integer micro-nat quantization keeps the per-doc sums bit-exact vs
    the SQL twin."""
    from ctinexus_ray.ops.textstats import kn_bigram_scores

    return kn_bigram_scores(_docs(sf_dir, ["doc_id", "text"]))


def _q_url_canonical_dedup(sf_dir: str):
    """Canonical-URL keep-latest dedup (the CC re-crawl dedup step):
    deterministic MESSY urls (case-varied scheme/host, default ports,
    tracking params, shuffled query order, fragments) are synthesized
    per (doc_id, source), pushed through the REAL canonicalizer
    (ops.urlops), then reduced to one capture per canonical url (max
    doc_id wins) with a dup count. The oracle constructs the canonical
    form in closed form from the same (doc_id, source), so it checks the
    parser got every messy variant right. One url-hash shuffle."""
    from ctinexus_ray.ops.urlops import canonicalize_url_batch, keep_latest_by_key

    docs = _docs(sf_dir, ["doc_id", "source"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        urls = []
        for d, s in zip(ids, srcs):
            scheme = "HTTPS" if d % 3 == 0 else "https"
            host = (
                f"WWW.{s}.Example.COM" if d % 2 == 0 else f"www.{s}.example.com"
            )
            port = ":443" if d % 5 == 0 else ""
            path = f"/Articles/{d % 50}"
            v = d % 4
            if v == 0:
                q = f"?utm_source=feed&ref={d % 3}"
            elif v == 1:
                q = f"?ref={d % 3}&utm_campaign=x"
            elif v == 2:
                q = "?b=2&a=1"
            else:
                q = ""
            frag = "#sec" if d % 7 == 0 else ""
            urls.append(f"{scheme}://{host}{port}{path}{q}{frag}")
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "url": pa.array(urls, type=pa.string()),
            }
        )

    messy = docs.map_batches(synth, batch_format="pyarrow")
    canon = messy.map_batches(canonicalize_url_batch, batch_format="pyarrow")
    return keep_latest_by_key(canon, "url", ["doc_id"])


def _q_events_zscore(sf_dir: str):
    """Per-event-type z-score of event value: one corpus pass of
    per-batch combined integer power sums (event_type is domain-bounded,
    so the stats broadcast back via ray.put — the corpus never
    shuffles), one vectorized map pass. Integer-cents quantization makes
    the distributed sums order-independent and the final double
    expression bit-exact vs the SQL window twin."""
    import ray.data

    from ctinexus_ray.ops.relational import grouped_zscore

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return grouped_zscore(
        events, "event_type", "value", id_cols=["event_id"]
    )


def _q_orders_cube(sf_dir: str):
    """GROUP BY CUBE(year, status) counts via ops.groupagg.cube_counts:
    one corpus shuffle at the finest level; all 2^k - 1 coarser subsets
    re-aggregate a one-key-larger parent's group-cardinality-sized
    output (each level pinned once so Ray's lazy plan never re-executes
    the corpus aggregate per consumer)."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.groupagg import cube_counts

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_orderstatus"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_year": pc.year(batch.column("o_orderdate")),
                "o_status": batch.column("o_orderstatus"),
            }
        )

    return cube_counts(
        orders.map_batches(keyed, batch_format="pyarrow"),
        keys=["o_year", "o_status"],
        out="n",
    )


def _q_doc_dense_rank(sf_dir: str):
    """DENSE_RANK() OVER (ORDER BY n_chars DESC): rank the DISTINCT value
    table (domain-bounded, one hash-partitioned distinct + one small
    sort) and hash-join ranks back onto the corpus — dense ranks never
    require a corpus-wide sort."""
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import global_row_number

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    distinct = partitioned_agg(
        docs.select_columns(["n_chars"]),
        keys=["n_chars"],
        named_aggs={"_n": ("n_chars", "size")},
    ).select_columns(["n_chars"])
    ranked_vals = global_row_number(
        distinct, sort_keys=["n_chars"], descending=[True], out_col="drank"
    )
    return hash_join(
        docs,
        ranked_vals,
        on=["n_chars"],
        left_types={"n_chars": pa.int64(), "doc_id": pa.int64()},
        right_types={"n_chars": pa.int64(), "drank": pa.int64()},
    )


def _q_doc_ntile(sf_dir: str):
    """NTILE(10) OVER (ORDER BY n_chars DESC, doc_id): global row_number
    (range-partitioned sort, O(#blocks) driver ints) + the closed-form
    NTILE bucket from two scalars (n rows, k buckets) — exact SQL
    semantics: the first n%k buckets get one extra row."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.shards import global_row_number

    k = 10
    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    n = docs.count()
    q, r = divmod(n, k)

    def bucketize(batch: pa.Table) -> pa.Table:
        rank0 = pc.subtract(batch.column("rank"), 1)
        big = (q + 1) * r  # rows covered by the r buckets of size q+1
        in_big = pc.less(rank0, big)
        b_big = pc.add(pc.divide(rank0, max(q + 1, 1)), 1)
        b_small = pc.add(
            pc.divide(pc.subtract(rank0, big), max(q, 1)), r + 1
        )
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "bucket": pc.if_else(in_big, b_big, b_small).cast(pa.int64()),
            }
        )

    ranked = global_row_number(
        docs, sort_keys=["n_chars", "doc_id"], descending=[True, False]
    )
    return ranked.map_batches(bucketize, batch_format="pyarrow")


def _q_top_words_by_lang_mg(sf_dir: str):
    """Grouped Misra-Gries heavy hitters (per-language top words from
    fixed-size per-key counter summaries) — the sketch path when the
    exact per-group vocabulary shuffle (top_words_by_lang ✓SQL, the
    anchor) is too wide. ✓SQL: k=256 exceeds this corpus's
    vocabulary, so the summaries never compact and the sketch IS the
    exact grouped top-5."""
    from collections import Counter

    import ray.data

    from ctinexus_ray.ops.sketch import grouped_misra_gries_topk
    from ctinexus_ray.ops.textstats import _tokens

    docs = _docs(sf_dir, ["lang", "text"])

    def explode(batch: pa.Table):
        langs, words = [], []
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            if t is None:
                continue
            toks = _tokens(t)
            langs.extend([lang] * len(toks))
            words.extend(toks)
        if not langs:
            return
        yield pa.Table.from_pydict(
            {
                "lang": pa.array(langs, type=pa.string()),
                "word": pa.array(words, type=pa.string()),
            }
        )

    exploded = docs.map_batches(explode, batch_format="pyarrow")
    return grouped_misra_gries_topk(exploded, "lang", "word", k=256, top=5)


def _q_compression_ratios(sf_dir: str):
    """zlib compression ratio per document (redundancy / machine-spam
    signal alongside the Gopher rules). Stateless map; not
    SQL-expressible (no zlib in DuckDB) -> rows-only, values pinned
    against direct zlib in tests."""
    from ctinexus_ray.ops.textstats import compression_ratio_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        compression_ratio_batch, batch_format="pyarrow"
    )


def _q_stratified_sample(sf_dir: str):
    """Exactly-k-PER-GROUP deterministic sample (stratified holdout):
    content-addressed md5 ranking inside each language via the
    distributed row_number window — reshard-stable, no RNG, no corpus
    sort."""
    import hashlib

    from ctinexus_ray.ops.relational import grouped_topn

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def add_digest(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return batch.append_column(
            "digest",
            pa.array(
                [hashlib.md5(str(i).encode()).hexdigest() for i in ids],
                type=pa.string(),
            ),
        )

    return grouped_topn(
        docs.map_batches(add_digest, batch_format="pyarrow"),
        group_key="lang",
        order_col="digest",
        n=10,
        tiebreak_col="doc_id",
    )


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means over the full embedding table (5
    iterations): corpus never shuffles; per iteration each batch emits
    fixed-size (cluster, sum, count) combiners and the driver holds only
    the centroid matrix. Iterative -> rows-only; convergence pinned in
    tests."""
    from ctinexus_ray.ops.simsearch import kmeans_fit_predict
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    return kmeans_fit_predict(
        read_testdata_embeddings(sf_dir), n_clusters=8, n_iter=5
    )


def _q_top_words_by_lang(sf_dir: str):
    """Exact top-5 words per language: (lang, word) explode with
    per-batch combine -> hash-partitioned two-key count (vocabulary x
    languages is corpus-cardinality) -> distributed row_number window
    per language."""
    from collections import Counter

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.relational import grouped_topn
    from ctinexus_ray.ops.textstats import _tokens

    docs = _docs(sf_dir, ["lang", "text"])

    def explode(batch: pa.Table):
        c: Counter = Counter()
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            if t is None:
                # SQL: regexp_split_to_array(trim(NULL)) is NULL and
                # unnest(NULL) yields no rows — a null text contributes
                # nothing (an EMPTY string still yields one '' token,
                # matching the oracle)
                continue
            for w in _tokens(t):
                c[(lang, w)] += 1
        if not c:
            return
        keys = list(c.keys())
        yield pa.Table.from_pydict(
            {
                "lang": pa.array([k[0] for k in keys], type=pa.string()),
                "word": pa.array([k[1] for k in keys], type=pa.string()),
                "n": pa.array([c[k] for k in keys], type=pa.int64()),
            }
        )

    counts = partitioned_agg(
        docs.map_batches(explode, batch_format="pyarrow"),
        keys=["lang", "word"],
        named_aggs={"n": ("n", "sum")},
    )
    return grouped_topn(
        counts, group_key="lang", order_col="n", n=5, tiebreak_col="word"
    )


def _q_doc_len_histogram(sf_dir: str):
    """Equi-width histogram of document lengths (bucket = n_chars/500):
    per-batch combine + one tiny grouped sum — the O(buckets) profile
    pass that replaces a full sort at 100 TB."""
    import numpy as np
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    docs = _docs(sf_dir, ["n_chars"])

    def partial(batch: pa.Table):
        n = np.asarray(batch.column("n_chars").to_pylist(), dtype=np.int64)
        b = n // 500
        df = pd.DataFrame({"bucket": b}).groupby("bucket").size()
        yield pa.Table.from_pydict(
            {
                "bucket": pa.array(df.index.to_numpy(), type=pa.int64()),
                "n": pa.array(df.to_numpy(), type=pa.int64()),
            }
        )

    agg = docs.map_batches(partial, batch_format="pyarrow").groupby(
        "bucket"
    ).aggregate(Sum("n"))
    return _rename(agg, {"sum(n)": "n_docs"})


def _q_qty_price_corr(sf_dir: str):
    """Pearson correlation of quantity vs extended price via exact
    integer power sums (n, Σx, Σy, Σxy, Σx², Σy² — order-independent
    distributed sums in units/cents), one double expression at the end
    written identically in the SQL oracle. At much larger scale the
    power sums need int128/decimal accumulators (int64 documented
    bound: Σx² < 2^63)."""
    import numpy as np
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"]
    )

    def partial(batch: pa.Table):
        q = np.floor(
            np.asarray(batch.column("l_quantity").to_pylist(), dtype=np.float64)
            + 0.5
        ).astype(np.int64)
        p = np.floor(
            np.asarray(
                batch.column("l_extendedprice").to_pylist(), dtype=np.float64
            )
            * 100
            + 0.5
        ).astype(np.int64)
        yield pa.Table.from_pydict(
            {
                "n": pa.array([len(q)], type=pa.int64()),
                "sx": pa.array([int(q.sum())], type=pa.int64()),
                "sy": pa.array([int(p.sum())], type=pa.int64()),
                "sxy": pa.array([int((q * p).sum())], type=pa.int64()),
                "sxx": pa.array([int((q * q).sum())], type=pa.int64()),
                "syy": pa.array([int((p * p).sum())], type=pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # ONE aggregate execution for all six power sums
    totals = partials.sum(["n", "sx", "sy", "sxy", "sxx", "syy"])
    sums = {c: totals[f"sum({c})"] for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]}

    def finalize():
        import math

        n, sx, sy = sums["n"], sums["sx"], sums["sy"]
        sxy, sxx, syy = sums["sxy"], sums["sxx"], sums["syy"]
        cov = float(sxy) / n - (float(sx) / n) * (float(sy) / n)
        vx = float(sxx) / n - (float(sx) / n) * (float(sx) / n)
        vy = float(syy) / n - (float(sy) / n) * (float(sy) / n)
        return cov / (math.sqrt(vx) * math.sqrt(vy))

    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n": pa.array([sums["n"]], type=pa.int64()),
                "corr": pa.array([finalize()], type=pa.float64()),
            }
        )
    )


def _q_doc_sample_weighted(sf_dir: str):
    """Exactly-k weighted sample (A-ES, Efraimidis-Spirakis): longer
    documents proportionally more likely, deterministic/content-
    addressed, batch-local top-k + one small merge — no corpus sort."""
    from ctinexus_ray.ops.shards import weighted_sample_k

    return weighted_sample_k(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        id_col="doc_id",
        weight_col="n_chars",
        k=50,
    )


def _q_lang_len_tdigest(sf_dir: str):
    """Per-language approximate length quantiles: one mergeable t-digest
    per key (fixed-size centroid partials, map-side combined) — the
    grouped sketch path for unbounded numeric domains. Approximate ->
    rows-only; exact anchor = lang_len_quantiles ✓SQL; accuracy pinned in
    tests/test_sketch.py."""
    from ctinexus_ray.ops.sketch import grouped_tdigest_quantiles

    return grouped_tdigest_quantiles(
        _docs(sf_dir, ["lang", "n_chars"]),
        key="lang",
        column="n_chars",
        quantiles=[0.25, 0.5, 0.75, 0.95],
    )


def _q_tpch_q5(sf_dir: str):
    """TPC-H Q5 (local-supplier revenue by nation, region=ASIA,
    orderdate in 1996): a three-deep two-large-sides hash-join chain
    (lineitem ⋈ orders ⋈ customer ⋈ supplier — every side grows with the
    corpus, so NO broadcast there) with the nation/region dimension
    snowflake applied as a broadcast map-side enrich, the c_nationkey =
    s_nationkey locality filter, and revenue in exact integer cents
    (order-independent distributed sums)."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).rename_columns({"l_orderkey": "okey", "l_suppkey": "skey"})

    import datetime

    import pyarrow.dataset as pds

    # date window pushed into the parquet scan (row-group stats pruning)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pds.field("o_orderdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("o_orderdate") < datetime.datetime(1997, 1, 1))
        ),
    )

    def rekey_orders(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "ckey": batch.column("o_custkey").cast(pa.int64()),
            }
        )

    orders_f = orders.map_batches(rekey_orders, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).rename_columns({"c_custkey": "ckey"})
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).rename_columns({"s_suppkey": "skey"})

    i64 = pa.int64()
    j1 = hash_join(
        li,
        orders_f,
        on=["okey"],
        left_types={
            "okey": i64,
            "skey": i64,
            "l_extendedprice": pa.float64(),
            "l_discount": pa.float64(),
        },
        right_types={"okey": i64, "ckey": i64},
    )
    j2 = hash_join(
        j1,
        cust,
        on=["ckey"],
        left_types={
            "ckey": i64,
            "okey": i64,
            "skey": i64,
            "l_extendedprice": pa.float64(),
            "l_discount": pa.float64(),
        },
        right_types={"ckey": i64, "c_nationkey": i64},
    )
    j3 = hash_join(
        j2,
        supp,
        on=["skey"],
        left_types={
            "skey": i64,
            "ckey": i64,
            "okey": i64,
            "l_extendedprice": pa.float64(),
            "l_discount": pa.float64(),
            "c_nationkey": i64,
        },
        right_types={"skey": i64, "s_nationkey": i64},
    )
    # dimension snowflake: nation filtered to region ASIA, broadcast
    enriched = broadcast_join(
        j3,
        _nation_names(sf_dir, "s_nationkey", region="ASIA"),
        on=["s_nationkey"],
        right_types={"s_nationkey": i64, "n_name": pa.string()},
    )

    def score(batch: pa.Table):
        import pyarrow.compute as pc

        t = batch.filter(
            pc.equal(batch.column("c_nationkey"), batch.column("s_nationkey"))
        )
        if t.num_rows == 0:
            return
        ep = np.asarray(t.column("l_extendedprice").to_pylist(), dtype=np.float64)
        disc = np.asarray(t.column("l_discount").to_pylist(), dtype=np.float64)
        cents = np.floor(ep * (1 - disc) * 100 + 0.5).astype(np.int64)
        yield pa.Table.from_pydict(
            {
                "n_name": t.column("n_name"),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )

    agg = enriched.map_batches(score, batch_format="pyarrow").groupby(
        "n_name"
    ).aggregate(Sum("cents"))
    return _rename(agg, {"sum(cents)": "revenue_cents"})


def _q_tpch_q7(sf_dir: str):
    """TPC-H Q7 (volume shipping between two nations by year): the same
    three-deep two-large-sides hash-join chain as Q5 with the ship-date
    window pushed into the parquet scan, the 25-row nation dimension
    broadcast as a plain dict lookup on BOTH endpoints, the
    two-orientation nation-pair filter, and map-side-combined integer-
    cents revenue so the distributed sums are order-independent."""
    import datetime

    import numpy as np
    import pyarrow.dataset as pds
    import ray.data
    from ray.data.aggregate import Sum

    from ctinexus_ray.ops.distjoin import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1998, 1, 1))
        ),
    )

    def prep_li(batch: pa.Table):
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return
        ep = np.asarray(
            batch.column("l_extendedprice").to_pylist(), dtype=np.float64
        )
        disc = np.asarray(
            batch.column("l_discount").to_pylist(), dtype=np.float64
        )
        cents = np.floor(ep * (1 - disc) * 100 + 0.5).astype(np.int64)
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("l_orderkey").cast(pa.int64()),
                "skey": batch.column("l_suppkey").cast(pa.int64()),
                "l_year": pc.year(batch.column("l_shipdate")).cast(
                    pa.int64()
                ),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )

    li_f = li.map_batches(prep_li, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).rename_columns({"o_orderkey": "okey", "o_custkey": "ckey"})
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).rename_columns({"c_custkey": "ckey"})
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).rename_columns({"s_suppkey": "skey"})

    i64 = pa.int64()
    j1 = hash_join(
        li_f,
        orders,
        on=["okey"],
        left_types={"okey": i64, "skey": i64, "l_year": i64, "cents": i64},
        right_types={"okey": i64, "ckey": i64},
    )
    j2 = hash_join(
        j1,
        cust,
        on=["ckey"],
        left_types={
            "ckey": i64,
            "okey": i64,
            "skey": i64,
            "l_year": i64,
            "cents": i64,
        },
        right_types={"ckey": i64, "c_nationkey": i64},
    )
    j3 = hash_join(
        j2,
        supp,
        on=["skey"],
        left_types={
            "skey": i64,
            "ckey": i64,
            "okey": i64,
            "l_year": i64,
            "cents": i64,
            "c_nationkey": i64,
        },
        right_types={"skey": i64, "s_nationkey": i64},
    )

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in ray.data.read_parquet(f"{sf_dir}/nation.parquet").take_all()
    }  # 25-row dimension — the canonical broadcast side
    pair = {("NATION_1", "NATION_2"), ("NATION_2", "NATION_1")}

    def score(batch: pa.Table):
        import pandas as pd

        if batch.num_rows == 0:
            return
        sn = [nation[k] for k in batch.column("s_nationkey").to_pylist()]
        cn = [nation[k] for k in batch.column("c_nationkey").to_pylist()]
        df = pd.DataFrame(
            {
                "supp_nation": sn,
                "cust_nation": cn,
                "l_year": batch.column("l_year").to_numpy(
                    zero_copy_only=False
                ),
                "cents": batch.column("cents").to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        df = df[
            [
                (a, b) in pair
                for a, b in zip(df["supp_nation"], df["cust_nation"])
            ]
        ]
        if df.empty:
            return
        yield pa.Table.from_pandas(
            df.groupby(
                ["supp_nation", "cust_nation", "l_year"], sort=False
            )
            .sum()
            .reset_index(),
            preserve_index=False,
        )

    agg = (
        j3.map_batches(score, batch_format="pyarrow")
        .groupby(["supp_nation", "cust_nation", "l_year"])
        .aggregate(Sum("cents"))
    )
    return _rename(agg, {"sum(cents)": "revenue_cents"})


def _q_overlapping_sessions(sf_dir: str):
    """Interval-overlap self-join over gap-1800s session intervals: how
    many session pairs of each user pair overlap in time (the
    co-activity / log-correlation shape, no equi key). Bucketed
    co-shuffle + exactly-once emission in the bucket of max(start_a,
    start_b); final hash-partitioned pair count."""
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.relational import (
        interval_overlap_pairs,
        session_intervals,
    )

    intervals = session_intervals(
        _events(sf_dir, ["event_id", "user_id", "ts"]), gap_seconds=1800
    )
    pairs = interval_overlap_pairs(
        intervals, owner_col="user_id", start_col="s_us", end_col="e_us"
    )
    agg = partitioned_agg(
        pairs,
        keys=["owner_a", "owner_b"],
        named_aggs={"n_overlaps": ("owner_a", "size")},
    )
    return _rename(agg, {"owner_a": "user_a", "owner_b": "user_b"})


def _q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences (LAG +
    GROUP BY at corpus scale: one user-hash shuffle, vectorized shift per
    partition, tiny |types|² final sum)."""
    from ctinexus_ray.ops.relational import event_transition_counts

    out = event_transition_counts(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    )
    return _rename(out, {"sum(n)": "n"})


def _q_funnel_users(sf_dir: str):
    """Ordered-funnel detection (view -> click -> purchase, strictly
    increasing times): greedy earliest-completion scan, one user-hash
    shuffle, one vectorized groupby.min per funnel step."""
    from ctinexus_ray.ops.relational import funnel_users

    return funnel_users(
        _events(sf_dir, ["user_id", "ts", "event_type"]),
        steps=["view", "click", "purchase"],
    )


def _q_lineitem_pending_orders(sf_dir: str):
    """Bloom-prefiltered fact↔filtered-dimension join: a mergeable Bloom
    bitmap over the pending orders' keys prunes the lineitem side BEFORE
    the shuffle (~25x fewer left rows through the all-to-all here);
    false positives die in the exact per-partition join, so the result
    equals the plain inner join row-for-row."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    from ctinexus_ray.ops.distjoin import bloom_prefiltered_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).rename_columns({"l_orderkey": "okey"})
    import pyarrow.dataset as pds

    pending = (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderpriority", "o_orderstatus"],
            # status predicate pushed into the scan (row-group pruning)
            filter=(pds.field("o_orderstatus") == "P"),
        )
        .rename_columns({"o_orderkey": "okey"})
        .drop_columns(["o_orderstatus"])
    )
    joined = bloom_prefiltered_join(
        li,
        pending,
        on=["okey"],
        left_types={"okey": pa.int64(), "l_quantity": pa.float64()},
        right_types={"okey": pa.int64(), "o_orderpriority": pa.string()},
    )
    agg = joined.groupby("o_orderpriority").aggregate(Count(), Sum("l_quantity"))
    return _rename(agg, {"count()": "n_items", "sum(l_quantity)": "sum_qty"})


def _q_orders_status_agg(sf_dir: str):
    """Distributed string_agg: per customer, order statuses concatenated
    in o_orderkey order (collect-list shape over a corpus-cardinality
    key)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import grouped_string_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_orderkey"],
    )
    return grouped_string_agg(
        orders,
        key="o_custkey",
        value_col="o_orderstatus",
        order_col="o_orderkey",
        sep=",",
        out="statuses",
    )


def _q_quantity_stats_by_flag(sf_dir: str):
    """Algebraic variance via exact integer power sums (n, Σx, Σx²):
    order-independent distributed sums, one double expression at the end
    — bit-exact vs the SQL oracle writing the same expression (the
    built-in var_pop uses a different summation order and would not
    hash-match)."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )

    def partial(batch: pa.Table):
        import pandas as pd

        q = np.asarray(batch.column("l_quantity").to_pylist(), dtype=np.float64)
        qi = np.floor(q + 0.5).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": batch.column("l_returnflag").to_pylist(),
                "sq": qi,
                "sq2": qi * qi,
                "n": np.ones(len(qi), dtype=np.int64),
            }
        )
        yield pa.Table.from_pandas(
            df.groupby("l_returnflag", sort=False).sum().reset_index(),
            preserve_index=False,
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "l_returnflag"
    ).aggregate(Sum("sq"), Sum("sq2"), Sum("n"))

    def finalize(batch: pa.Table):
        sq = np.asarray(batch.column("sum(sq)").to_pylist(), dtype=np.int64)
        sq2 = np.asarray(batch.column("sum(sq2)").to_pylist(), dtype=np.int64)
        n = np.asarray(batch.column("sum(n)").to_pylist(), dtype=np.int64)
        var = (
            sq2.astype(np.float64) - sq.astype(np.float64) * sq.astype(np.float64) / n
        ) / n
        yield pa.Table.from_pydict(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "n": pa.array(n, type=pa.int64()),
                "sum_qty": pa.array(sq, type=pa.int64()),
                "var_qty": pa.array(var, type=pa.float64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _q_dedup_spans_removed(sf_dir: str):
    """ExactSubstr duplicated-span REMOVAL with document rebuild (Lee et
    al. 2021, the rewrite half of the substring-dedup pair): word
    positions covered by any word-10-gram occurring at >= 2 positions
    corpus-wide are dropped and eligible docs are rebuilt from the
    survivors. Posting-partitioned dup marking + per-doc start list +
    one attach shuffle + a numpy interval-coverage rewrite. ✓SQL."""
    from ctinexus_ray.ops.dedup import remove_dup_spans

    return remove_dup_spans(_docs(sf_dir, ["doc_id", "text"]), n=10)


def _q_dup_span_stats(sf_dir: str):
    """Cross-document duplicated word-10-gram counts per doc (the
    substring-dedup signal): posting-partitioned dup marking + one
    hash-partitioned per-doc count."""
    from ctinexus_ray.ops.dedup import dup_span_stats

    return dup_span_stats(_docs(sf_dir, ["doc_id", "text"]), n=10)


def _q_doc_percent_rank(sf_dir: str):
    """PERCENT_RANK() over a unique total order == (rn - 1) / (N - 1)
    from the distributed row_number and one count scalar — two exact
    int64 inputs to one double division, so it hash-matches the SQL
    window function bit-for-bit."""
    from ctinexus_ray.ops.shards import global_row_number

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    n = docs.count()
    ranked = global_row_number(
        docs, sort_keys=["n_chars", "doc_id"], descending=[True, False]
    )

    def pr(batch: pa.Table):
        import numpy as np

        rn = np.asarray(batch.column("rank").to_pylist(), dtype=np.int64)
        yield pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": batch.column("n_chars"),
                "prank": pa.array(
                    (rn - 1) / (n - 1) if n > 1 else np.zeros(len(rn)),
                    type=pa.float64(),
                ),
            }
        )

    return ranked.map_batches(pr, batch_format="pyarrow")


def _q_tpch_q1(sf_dir: str):
    """TPC-H Q1 pricing summary. Money columns aggregate as integer CENTS
    (per-row FLOOR(x*100 + 0.5) — identical IEEE expression on both
    sides) because a distributed double sum is summation-order-dependent
    and would never hash-match an oracle; the averages divide the exact
    integer sums, so they are bit-exact too. Per-batch pandas combine on
    the 6-value key -> built-in grouped Sum (tiny key space)."""
    import numpy as np
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    def partial(batch: pa.Table):
        import pyarrow.compute as pc

        cutoff = pa.scalar(
            np.datetime64("1998-09-02T00:00:00", "us"), type=pa.timestamp("us")
        )
        t = batch.filter(pc.less_equal(batch.column("l_shipdate"), cutoff))
        if t.num_rows == 0:
            return
        ep = np.asarray(t.column("l_extendedprice").to_pylist(), dtype=np.float64)
        disc = np.asarray(t.column("l_discount").to_pylist(), dtype=np.float64)
        tax = np.asarray(t.column("l_tax").to_pylist(), dtype=np.float64)
        qty = np.asarray(t.column("l_quantity").to_pylist(), dtype=np.float64)
        df = pd.DataFrame(
            {
                "l_returnflag": t.column("l_returnflag").to_pylist(),
                "l_linestatus": t.column("l_linestatus").to_pylist(),
                "qty": np.floor(qty + 0.5).astype(np.int64),
                "base_c": np.floor(ep * 100 + 0.5).astype(np.int64),
                "disc_c": np.floor(ep * (1 - disc) * 100 + 0.5).astype(np.int64),
                "charge_c": np.floor(
                    ep * (1 - disc) * (1 + tax) * 100 + 0.5
                ).astype(np.int64),
                "disc_bp": np.floor(disc * 10000 + 0.5).astype(np.int64),
                "n": np.ones(t.num_rows, dtype=np.int64),
            }
        )
        agg = df.groupby(["l_returnflag", "l_linestatus"], sort=False).sum()
        yield pa.Table.from_pandas(agg.reset_index(), preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty"), Sum("base_c"), Sum("disc_c"), Sum("charge_c"),
        Sum("disc_bp"), Sum("n"),
    )

    def finalize(batch: pa.Table):
        import pyarrow.compute as pc

        sq = np.asarray(batch.column("sum(qty)").to_pylist(), dtype=np.int64)
        sb = np.asarray(batch.column("sum(base_c)").to_pylist(), dtype=np.int64)
        sd = np.asarray(batch.column("sum(disc_c)").to_pylist(), dtype=np.int64)
        sc = np.asarray(batch.column("sum(charge_c)").to_pylist(), dtype=np.int64)
        bp = np.asarray(batch.column("sum(disc_bp)").to_pylist(), dtype=np.int64)
        n = np.asarray(batch.column("sum(n)").to_pylist(), dtype=np.int64)
        yield pa.Table.from_pydict(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pa.array(sq, type=pa.int64()),
                "sum_base_cents": pa.array(sb, type=pa.int64()),
                "sum_disc_cents": pa.array(sd, type=pa.int64()),
                "sum_charge_cents": pa.array(sc, type=pa.int64()),
                "avg_qty": pa.array(sq.astype(np.float64) / n, type=pa.float64()),
                "avg_price": pa.array(
                    sb.astype(np.float64) / 100.0 / n, type=pa.float64()
                ),
                "avg_disc": pa.array(
                    bp.astype(np.float64) / 10000.0 / n, type=pa.float64()
                ),
                "count_order": pa.array(n, type=pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _q_distinct_users_by_type(sf_dir: str):
    """Exact per-group COUNT(DISTINCT): hash-partitioned (key, value)
    distinct -> tiny per-key count — the exact anchor for the grouped-HLL
    sketch path."""
    import ray.data
    from ray.data.aggregate import Count

    from ctinexus_ray.ops.groupagg import partitioned_agg

    ev = _events(sf_dir, ["event_type", "user_id"])
    pairs = partitioned_agg(
        ev,
        keys=["event_type", "user_id"],
        named_aggs={"n": ("user_id", "size")},
    )
    agg = pairs.groupby("event_type").aggregate(Count())
    return _rename(agg, {"count()": "n_users"})


def _q_distinct_users_hll(sf_dir: str):
    """Grouped HyperLogLog distinct users per event type: one mergeable
    register set per key, map-side combined — the 100 TB shape when the
    exact grouped distinct would shuffle every (key, value) pair.
    Approximate -> rows-only; exact anchor = distinct_users_by_type."""
    from ctinexus_ray.ops.sketch import grouped_hll_distinct

    ev = _events(sf_dir, ["event_type", "user_id"])
    return grouped_hll_distinct(ev, "event_type", "user_id", p=12)


def _q_ann_pq(sf_dir: str):
    """Product-quantization ANN (ADC over m=16 uint8 codes per vector —
    32x smaller scan footprint at dim-64 float64). ✓SQL: the ADC
    candidate pool contains the true top-5 at this corpus and the exact
    re-rank shares the oracle's tie-break (recall pinned by tests)."""
    from ctinexus_ray.ops.simsearch import pq_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = pq_topk(
        read_testdata_embeddings(sf_dir), n_queries=10, k=5, m=16, n_codes=64
    )
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_pmi_bigrams(sf_dir: str):
    """Top-100 collocations by pointwise mutual information: two
    hash-partitioned count shuffles (bigrams, unigrams) + two
    two-large-sides hash joins — no driver-side vocabulary anywhere."""
    from ctinexus_ray.ops.textstats import pmi_top_bigrams

    return pmi_top_bigrams(_docs(sf_dir, ["text"]), min_count=5, top=100)


def _q_cms_word_counts(sf_dir: str):
    """Count-Min sketch point-frequency estimates for the exact top-20
    words: the sketch is built from fixed-size mergeable (depth x width)
    partials — the 100 TB path for "how often does word X occur" without
    an exact all-vocabulary shuffle. Approximate by design -> rows-only;
    accuracy vs exact counts is pinned in tests/test_sketch.py."""
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.sketch import count_min_estimates
    from ctinexus_ray.ops.textstats import word_explode_batch

    partials = _docs(sf_dir, ["text"]).map_batches(
        word_explode_batch, batch_format="pyarrow"
    )
    totals = partitioned_agg(
        partials, keys=["word"], named_aggs={"n": ("n", "sum")}
    ).materialize()  # reused: probe selection + sketch input
    # probes: the exact top-20 head (a bounded driver list by construction)
    head = totals.sort(["n", "word"], descending=[True, False]).limit(20)
    probes = [r["word"] for r in head.take_all()]
    return count_min_estimates(totals, "word", probes, weight="n")


def _q_lineitem_orders_salted(sf_dir: str):
    """Skew-salted distributed join (lineitem JOIN orders on orderkey,
    salt=8) -> per-orderstatus totals. Result identical to the plain
    hash join — salting only spreads hot keys across partitions, the
    shape that survives a web corpus where one key holds 30% of rows."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    from ctinexus_ray.ops.distjoin import salted_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).rename_columns({"l_orderkey": "okey"})
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    ).rename_columns({"o_orderkey": "okey"})
    joined = salted_join(
        li,
        orders,
        on=["okey"],
        salt=8,
        left_types={"okey": pa.int64(), "l_quantity": pa.float64()},
        right_types={"okey": pa.int64(), "o_orderstatus": pa.string()},
    )
    agg = joined.groupby("o_orderstatus").aggregate(
        Count(), Sum("l_quantity")
    )
    return _rename(agg, {"count()": "n_items", "sum(l_quantity)": "sum_qty"})


# --- KG pipeline -------------------------------------------------------------


def _kg(sf_dir: str):
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import build_kg
    from ctinexus_ray.sources.documents import read_testdata_as_cc

    return build_kg(read_testdata_as_cc(sf_dir), PipelineConfig())


def _q_kg_triples(sf_dir: str):
    return _kg(sf_dir)["triples"].drop_columns(
        ["subj_mention_merged", "obj_mention_merged"]
    )


def _q_kg_nodes(sf_dir: str):
    return _kg(sf_dir)["nodes"]


def _q_kg_edges(sf_dir: str):
    return _kg(sf_dir)["edges"]


def _q_kg_extract(sf_dir: str):
    """Extraction stage alone: deterministic text per url (byte-identity
    surface)."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import extract_documents
    from ctinexus_ray.sources.documents import read_testdata_as_cc

    ds = extract_documents(read_testdata_as_cc(sf_dir), PipelineConfig())
    return ds.select_columns(["url", "extracted_text", "cti_text"])


def _q_lineitem_status_counts(sf_dir: str):
    """TPC-H-style grouped counts (safe integer aggregates only)."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus", "l_linenumber"]
    )
    agg = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Count(), Sum("l_linenumber")
    )
    return _rename(agg, {"count()": "n_items", "sum(l_linenumber)": "sum_linenumber"})


def _q_kg_degrees(sf_dir: str):
    """Cross-document entity degree counts over the canonical edges (A4 at
    corpus scale). Not SQL-expressible (mock pipeline) -> rows-only."""
    import pyarrow as pa

    from ctinexus_ray.ops.groupagg import partitioned_agg

    edges = _kg(sf_dir)["edges"]

    def endpoints(batch: pa.Table) -> pa.Table:
        keys = (
            batch.column("subj_key").to_pylist()
            + batch.column("obj_key").to_pylist()
        )
        return pa.Table.from_pydict({"node_key": pa.array(keys, type=pa.int64())})

    # node keys = canonical entities (corpus-cardinality) -> hash-partitioned
    return partitioned_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        keys=["node_key"],
        named_aggs={"degree": ("node_key", "size")},
    )


def _q_kg_nodes_incremental(sf_dir: str):
    """Incremental cross-doc canonicalization (pipelines/kg_incr.py):
    the corpus ingests in TWO ticks into a persisted versioned nodes
    view — tick 2 appends only the new shards' entity partials, reduced
    by Sum/Max on read (state/ivm.py exactly-once manifest ledger),
    instead of re-shuffling the full checkpoint. The returned view
    equals the kg_nodes full recompute by the delta-maintenance monoid
    argument (pinned frame-equal in tests/test_kg_incr.py on 3 ticks).
    Rows-only in the driver (mock-LLM stage, not SQL-expressible);
    kg_nodes is the exact-anchor twin."""
    import glob
    import hashlib
    import shutil

    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg_incr import (
        read_kg_nodes_view,
        run_kg_incremental,
    )
    from ctinexus_ray.sources.documents import read_testdata_as_cc

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/kg_incr_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    read_testdata_as_cc(sf_dir).write_parquet(f"{tmp}/in")
    files = sorted(glob.glob(f"{tmp}/in/*.parquet"))
    config = PipelineConfig()
    run_kg_incremental(files[: max(1, len(files) // 2)], f"{tmp}/kg", config)
    run_kg_incremental(files, f"{tmp}/kg", config)
    return read_kg_nodes_view(f"{tmp}/kg/nodes_view")


def _q_kg_nodes_merged(sf_dir: str):
    """Exact canonical nodes + embedding-threshold near canonicalization
    (multi-table hyperplane LSH -> verified pairs -> union-find merge)."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.nearcanon import (
        apply_mapping_to_nodes,
        near_canonical_mapping,
    )

    config = PipelineConfig()
    nodes = _kg(sf_dir)["nodes"].materialize()
    mapping = near_canonical_mapping(nodes, config, threshold=0.8)
    return apply_mapping_to_nodes(nodes, mapping)


def _q_kg_nodes_merged_llm(sf_dir: str):
    """Coarse-to-fine canonical-entity merging (the north-star EA
    shape): coarse = embedding-threshold LSH candidates, fine = one
    LLM YES/NO verification per candidate pair (actor pool, temp 0,
    per-actor memo) — only confirmed pairs merge. Mock provider ->
    deterministic; rows-only (LLM stage not SQL-expressible; exact
    anchor kg_nodes + the unverified twin kg_nodes_merged)."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.nearcanon import (
        apply_mapping_to_nodes,
        near_canonical_mapping,
    )

    config = PipelineConfig()
    nodes = _kg(sf_dir)["nodes"].materialize()
    mapping = near_canonical_mapping(
        nodes, config, threshold=0.8, llm_verify=True
    )
    return apply_mapping_to_nodes(nodes, mapping)


def _q_url_source(sf_dir: str):
    """URL-source ingestion records (extract + summarize + repair)."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.sources.documents import read_testdata_as_cc
    from ctinexus_ray.stages.urlsource import url_source_dataset

    return url_source_dataset(read_testdata_as_cc(sf_dir), PipelineConfig())


def _q_dup_graph_triangles(sf_dir: str):
    """Exact triangle count of the n-gram-Jaccard duplicate graph:
    wedge-close plan as two hash-partitioned joins (ops/graph.py
    triangle_count) over the same canonical (a < b) edge list the
    ngram_jaccard_pairs ✓SQL query emits. ✓SQL (3-way self-join twin)."""
    from ctinexus_ray.ops.graph import triangle_count

    n = triangle_count(_q_ngram_jaccard_pairs(sf_dir), num_partitions=16)
    return pa.Table.from_pydict({"n_triangles": pa.array([n], type=pa.int64())})


def _q_dup_graph_degrees(sf_dir: str):
    """Degree distribution (degree, n_nodes) of the n-gram-Jaccard
    duplicate graph — two hash-partitioned counts. ✓SQL."""
    from ctinexus_ray.ops.graph import degree_histogram

    return degree_histogram(_q_ngram_jaccard_pairs(sf_dir), num_partitions=16)


def _q_perplexity_buckets(sf_dir: str):
    """CCNet-style head/middle/tail corpus partition: every document
    scored by the corpus-trained unigram LM (micro-nat mean token
    log-prob — the cheap perplexity stand-in), NTILE(3) over
    (score desc, doc_id) via the distributed global row_number, then a
    small per-bucket aggregate. All-integer output (bucket, n_docs,
    min/max micro-nat score) — bit-exact vs the SQL window oracle. ✓SQL."""
    import pyarrow.compute as pc

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.shards import global_row_number
    from ctinexus_ray.ops.textstats import unigram_lm_scores

    k = 3
    # order by the PER-TOKEN score (CCNet buckets by perplexity, not by
    # total log-likelihood): lm_score is a per-row double derived from
    # two exact integers by the identical expression on both sides, so
    # the order is bit-stable vs the SQL window
    scores = unigram_lm_scores(_docs(sf_dir, ["doc_id", "text"])).select_columns(
        ["doc_id", "lm_score_u", "lm_score"]
    )
    n = scores.count()
    q, r = divmod(n, k)
    ranked = global_row_number(
        scores, ["lm_score", "doc_id"], descending=[True, False]
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        rank0 = pc.subtract(batch.column("rank"), 1)
        big = (q + 1) * r  # rows covered by the r buckets of size q+1
        in_big = pc.less(rank0, big)
        b_big = pc.add(pc.divide(rank0, max(q + 1, 1)), 1)
        b_small = pc.add(pc.divide(pc.subtract(rank0, big), max(q, 1)), r + 1)
        return pa.Table.from_pydict(
            {
                "bucket": pc.if_else(in_big, b_big, b_small).cast(pa.int64()),
                "lm_score_u": batch.column("lm_score_u"),
            }
        )

    return partitioned_agg(
        ranked.map_batches(bucketize, batch_format="pyarrow"),
        keys=["bucket"],
        named_aggs={
            "n_docs": ("lm_score_u", "size"),
            "min_score_u": ("lm_score_u", "min"),
            "max_score_u": ("lm_score_u", "max"),
        },
        num_partitions=4,
    )


def _q_warc_source(sf_dir: str):
    """WARC ingestion (sources/warc.py): a deterministic synthetic crawl
    is written as .warc.gz shards (per-record gzip members, chunked HTTP
    bodies every 7th record — the Common-Crawl wire layout), then read
    back one-parse-task-per-file into the CC table shape and E1-extracted.
    Returns (url, warc_ts, n_html_bytes, n_text_chars). Rows-only (binary
    wire format, not SQL-expressible); parse pinned in tests/test_warc.py."""
    import pyarrow as pa

    from ctinexus_ray.functions.extract import extract_hybrid_content
    from ctinexus_ray.sources.warc import read_warc, write_warc_corpus

    import shutil

    out = "/tmp/ctinexus_warc_source"
    shutil.rmtree(out, ignore_errors=True)  # stale shards from prior runs
    write_warc_corpus(out, 200, records_per_file=50)  # deterministic bytes

    def shape(batch: pa.Table) -> pa.Table:
        htmls = batch.column("html").to_pylist()
        texts = [
            extract_hybrid_content((h or b"").decode("utf-8", "replace"))["text"]
            for h in htmls
        ]
        return pa.Table.from_pydict(
            {
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts"),
                "n_html_bytes": pa.array(
                    [len(h or b"") for h in htmls], type=pa.int64()
                ),
                "n_text_chars": pa.array(
                    [len(t) for t in texts], type=pa.int64()
                ),
            }
        )

    return read_warc(out).map_batches(shape, batch_format="pyarrow")


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 ranked retrieval (Robertson/Lucene idf) for a fixed
    3-term query over the corpus: query-term-pruned explode (corpus
    never shuffles on vocabulary), driver-side idf for |q| terms,
    micro-quantized per-term scores so the per-doc sum is bit-exact,
    batch-local top-k cut + small driver merge. ✓SQL."""
    from ctinexus_ray.ops.textstats import bm25_topk_docs

    return bm25_topk_docs(
        _docs(sf_dir, ["doc_id", "text"]),
        query_terms=["hash", "join", "vector"],
        k=20,
    )


def _q_hybrid_retrieval(sf_dir: str):
    """Hybrid search: BM25 lexical leg (3-term query, top-25) fused
    with an embedding-cosine semantic leg (query = vec_id 0, top-25,
    self excluded) by reciprocal-rank fusion — pure-integer
    10^12 // (60 + rank) points so the SQL twin value-hashes exactly.
    Both legs are distributed rankers; fusion is O(leg sizes). ✓SQL."""
    import pyarrow as pa
    import ray.data

    from ctinexus_ray.ops.simsearch import self_topk
    from ctinexus_ray.ops.textstats import bm25_topk_docs, rrf_fuse

    lex = bm25_topk_docs(
        _docs(sf_dir, ["doc_id", "text"]),
        query_terms=["hash", "join", "vector"],
        k=25,
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    sem_ds = self_topk(emb, n_queries=1, k=25)
    sem = pa.concat_tables(
        [
            b
            for b in sem_ds.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
    )
    return ray.data.from_arrow(
        rrf_fuse(
            [(lex, "doc_id", "rn"), (sem, "neighbor_id", "rank")],
            k_rrf=60,
            k=20,
        )
    )


def _q_audio_fingerprint_dups(sf_dir: str):
    """Audio near-duplicate pairs by 63-bit spectral fingerprint
    (Haitsma-Kalker band-comparison bits over total-normalized,
    noise-floored linear band energies — amplitude-invariant) over a
    deterministic planted corpus: each base tone appears as the
    original, a half-amplitude re-level (collides) and a two-tone
    different mix (distant). Real WAV decode; banding + popcount
    verify via the shared hamming_dup_pairs (anchor: simhash_pairs
    ✓SQL runs the identical machinery). Rows-only (binary codec
    path); the full 30-signature pairwise-distance matrix is pinned
    in tests/test_ops.py TestAudioFingerprint."""
    import ray.data

    from ctinexus_ray.ops.multimodal import audio_hash_dups, make_audio_dup_corpus

    media = ray.data.from_arrow(make_audio_dup_corpus(10)).repartition(3)
    return audio_hash_dups(media, max_hamming=3)


def _q_media_dedup_keep(sf_dir: str):
    """End-to-end image dedup KEEP path: pHash pairs -> distributed
    connected components -> drop non-minimal cluster members -> one
    anti-join returns the survivors' FULL rows (payload included) —
    the minhash_dedup_keep shape for binary media. Rows-only (binary);
    cluster collapse + payload survival pinned in TestMediaDedupKeep."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        image_phash_dups,
        make_phash_corpus,
        media_dedup_keep,
    )

    media = ray.data.from_arrow(make_phash_corpus(100)).repartition(4)
    pairs = image_phash_dups(media, max_hamming=6)
    kept = media_dedup_keep(media, pairs)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "media_id": batch.column("media_id"),
                "mime": batch.column("mime"),
                "n_bytes": pc.cast(
                    pc.binary_length(batch.column("payload")), pa.int64()
                ),
            }
        )

    return kept.map_batches(shape, batch_format="pyarrow")


def _q_video_fingerprint_dups(sf_dir: str):
    """Video near-duplicate pairs by the 60-bit luma-grid fingerprint
    (per-frame 6x6 grid gradient-SIGN bits — robust where pHash's
    near-median DCT thresholds flip under re-encoding — majority-voted
    across evenly-strided frames) over a planted MJPEG corpus: each
    base appears at quality 85, re-encoded at quality 70 (pairs) and
    as a different video (distant). Real ISO-BMFF walk + T.81 frame
    decode end to end. Rows-only (binary); distances pinned in
    TestVideoFingerprint (anchor: simhash_pairs ✓SQL, same pair
    machinery)."""
    import ray.data

    from ctinexus_ray.ops.multimodal import make_video_dup_corpus, video_hash_dups

    media = ray.data.from_arrow(make_video_dup_corpus(8)).repartition(3)
    return video_hash_dups(media, max_hamming=6)


def _q_image_phash_dups(sf_dir: str):
    """Image near-duplicate pairs by 63-bit perceptual hash (classic
    pHash: 32x32 gray -> DCT-II -> 8x8 low block -> median threshold)
    over a deterministic planted corpus — each base image appears as
    PNG, BMP (identical pixels, different container) and a lossy
    quality-90 JPEG re-encode, all through the REAL codecs. Banding +
    exact popcount verify via the shared hamming_dup_pairs (exact-SQL
    anchor: simhash_pairs runs the identical machinery). Rows-only
    (binary codec path); distances/pairs pinned in
    tests/test_ops.py TestImagePhash."""
    import ray.data

    from ctinexus_ray.ops.multimodal import image_phash_dups, make_phash_corpus

    media = ray.data.from_arrow(make_phash_corpus(100)).repartition(4)
    return image_phash_dups(media, max_hamming=6)


def _q_multimodal_decode(sf_dir: str):
    """REAL media decode (no stub): P6 PPM / PNG / BMP / baseline JPEG
    images (4:4:4 and 4:2:0), PCM16 WAV audio — every payload parsed
    from actual container bytes with stdlib+numpy (huffman+DCT JPEG in
    ops/jpeg.py) — decode -> area-mean resize -> feature vector as an
    actor-pool stage with small batches. Rows-only (binary pipeline, not
    SQL-expressible); decode correctness pinned in tests."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        decode_real_features,
        make_real_media_table,
    )

    media = ray.data.from_arrow(make_real_media_table(200)).repartition(4)
    return decode_real_features(media)


def _q_multimodal_features(sf_dir: str):
    """REAL decode feature extraction at a 4x4 grayscale grid (vs
    multimodal_decode's 2x2): same real codec path (P6 PPM / PNG / BMP /
    JPEG / GIF pixels, WAV PCM16, MP4 sample tables), different feature
    resolution — the target_size knob a real embedding stage tunes.
    Rows-only (binary pipeline); decode pinned in tests."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        decode_real_features,
        make_real_media_table,
    )

    media = ray.data.from_arrow(make_real_media_table(200)).repartition(4)
    return decode_real_features(media, target_size=(4, 4))


def _q_multimodal_frames(sf_dir: str):
    """REAL video frame-offset sampling: each MP4 payload's ISO-BMFF
    sample tables are walked (ops/mp4.py) and one row emitted per 1 s
    tick with the covering frame's offset — the cheap probe between
    header-only probe_media and pixel-decoding multimodal_video_decode.
    Rows-only (binary pipeline); table walk pinned in tests/test_mp4.py."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        make_real_video_table,
        sample_frame_offsets,
    )

    media = ray.data.from_arrow(make_real_video_table(200)).repartition(4)
    return sample_frame_offsets(media, every_ms=1000)


def _q_multimodal_video_frames(sf_dir: str):
    """REAL MP4 frame sampling: parses each payload's ISO-BMFF sample
    tables (stts/stsz/stsc/stco — ops/mp4.py, no codec decode) and emits
    the frame covering each 250 ms tick with its pts, byte offset/size,
    and the raw frame bytes sliced from mdat. Rows-only (binary
    pipeline); table-walk correctness pinned in tests/test_mp4.py."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        make_real_video_table,
        sample_video_frames,
    )

    media = ray.data.from_arrow(make_real_video_table(120)).repartition(4)
    return sample_video_frames(media, every_ms=250, include_data=False)


def _q_multimodal_video_decode(sf_dir: str):
    """REAL end-to-end video decode: motion-JPEG MP4s (every sample an
    actual baseline JPEG written through the 'jpeg' stsd fourcc) are
    frame-sampled via the ISO-BMFF tables AND pixel-decoded per frame
    with the pure-numpy T.81 codec (ops/jpeg.py), emitting decoded
    dimensions + Rec.601 luma stats per sampled frame. Rows-only (binary
    pipeline); codec correctness pinned in tests/test_mp4.py +
    tests/test_jpeg.py."""
    import ray.data

    from ctinexus_ray.ops.multimodal import (
        decode_video_frames,
        make_real_mjpeg_table,
    )

    media = ray.data.from_arrow(make_real_mjpeg_table(48)).repartition(4)
    return decode_video_frames(media, every_ms=250)


def _q_tpch_q6(sf_dir: str):
    """TPC-H Q6 (forecast-revenue change): the pure filtered
    scan-aggregate — EVERY predicate (ship-date window, discount band,
    quantity cap) is pushed into the parquet read so filtered rows never
    leave storage (predicate + row-group stats pruning), then one
    map_batches computes integer cents and a single distributed Sum
    reduces. No shuffle at all: the cheapest possible plan shape, and the
    one that matters most at 100 TB (scan bandwidth bound)."""
    import datetime

    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity"],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1997, 1, 1))
            & (pds.field("l_discount") >= 0.05)
            & (pds.field("l_discount") <= 0.07)
            & (pds.field("l_quantity") < 24)
        ),
    )

    def cents(batch: pa.Table):
        if batch.num_rows == 0:
            return
        # revenue = extendedprice * discount, in exact integer cents so
        # the distributed sum is order-independent (strict value-hash)
        c = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        batch.column("l_discount"),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict({"c": c})

    total = li.map_batches(cents, batch_format="pyarrow").sum("c")
    return pd.DataFrame(
        {"revenue_cents": np.array([total or 0], dtype=np.int64)}
    )


def _q_tpch_q3(sf_dir: str):
    """TPC-H Q3 (shipping priority, top 10 unshipped-order revenue):
    customer scan-filtered to the BUILDING segment, orders/lineitem
    date-filtered at the scan, two two-large-sides hash joins, one
    hash-partitioned (orderkey, orderdate, priority) sum in integer
    cents, driver-side top-10 with (revenue desc, orderdate, orderkey)
    order. Orderdate rides the shuffle as epoch-us int64 (hash keys are
    int/string) and is restored to timestamp at the end."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    cutoff = datetime.datetime(1996, 6, 1)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filter=(pds.field("c_mktsegment") == "BUILDING"),
    ).rename_columns({"c_custkey": "ckey"})
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pds.field("o_orderdate") < cutoff),
    )

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "ckey": batch.column("o_custkey").cast(pa.int64()),
                "odate_us": batch.column("o_orderdate").cast(pa.int64()),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    bld_orders = hash_join(
        orders.map_batches(o_prep, batch_format="pyarrow"),
        cust,
        on=["ckey"],
    ).select_columns(["okey", "odate_us", "o_orderpriority"])

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pds.field("l_shipdate") > cutoff),
    )

    def li_cents(batch: pa.Table):
        if batch.num_rows == 0:
            return
        c = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {"okey": batch.column("l_orderkey").cast(pa.int64()), "c": c}
        )

    j = hash_join(
        li.map_batches(li_cents, batch_format="pyarrow"), bld_orders, on=["okey"]
    )
    agg = partitioned_agg(
        j,
        keys=["okey", "odate_us", "o_orderpriority"],
        named_aggs={"revenue_cents": ("c", "sum")},
    )
    top = agg.sort(
        ["revenue_cents", "odate_us", "okey"], descending=[True, False, False]
    ).limit(10)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "l_orderkey": batch.column("okey"),
                "revenue_cents": batch.column("revenue_cents"),
                "o_orderdate": batch.column("odate_us").cast(
                    pa.timestamp("us")
                ),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    return top.map_batches(shape, batch_format="pyarrow")


def _q_tpch_q10(sf_dir: str):
    """TPC-H Q10 (returned-item revenue by customer, top 20): orders
    window-filtered at the scan, lineitem pre-filtered to returnflag='R'
    at the scan, two two-large-sides hash joins (lineitem ⋈ orders ⋈
    customer — all three grow with the corpus, so no broadcast), a
    hash-partitioned group sum in integer cents, and a driver-side top-20
    with a deterministic custkey tie-break."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pds.field("l_returnflag") == "R"),
    )

    def li_cents(batch: pa.Table):
        if batch.num_rows == 0:
            return
        c = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {"okey": batch.column("l_orderkey").cast(pa.int64()), "c": c}
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(
            (pds.field("o_orderdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("o_orderdate") < datetime.datetime(1996, 7, 1))
        ),
    ).rename_columns({"o_orderkey": "okey", "o_custkey": "ckey"})

    j1 = hash_join(
        li.map_batches(li_cents, batch_format="pyarrow"),
        orders,
        on=["okey"],
    )
    per_cust = partitioned_agg(
        j1, keys=["ckey"], named_aggs={"revenue_cents": ("c", "sum")}
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"],
    ).rename_columns({"c_custkey": "ckey"})
    joined = hash_join(per_cust, cust, on=["ckey"])
    top = joined.sort(
        ["revenue_cents", "ckey"], descending=[True, False]
    ).limit(20)
    return _rename(top, {"ckey": "c_custkey"})


def _q_tpch_q14(sf_dir: str):
    """TPC-H Q14 (promotion-revenue share): month-filtered lineitem
    joined to part on partkey via a two-large-sides hash join, then a
    single map-side-combined conditional aggregate — promo cents where
    p_type='PROMO' plus total cents, both exact int64 (the reference
    formula's float division would never strict-hash, so the two sums ARE
    the answer; the ratio is a trivial driver-side divide)."""
    import datetime

    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 9, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1996, 10, 1))
        ),
    ).rename_columns({"l_partkey": "pkey_part"})

    def li_cents(batch: pa.Table):
        if batch.num_rows == 0:
            return
        c = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {"pkey_part": batch.column("pkey_part").cast(pa.int64()), "c": c}
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).rename_columns({"p_partkey": "pkey_part"})
    joined = hash_join(
        li.map_batches(li_cents, batch_format="pyarrow"),
        part,
        on=["pkey_part"],
    )

    def split(batch: pa.Table):
        if batch.num_rows == 0:
            return
        c = batch.column("c")
        is_promo = pc.equal(batch.column("p_type"), pa.scalar("PROMO"))
        promo = pc.if_else(is_promo, c, pa.scalar(0, type=pa.int64()))
        yield pa.Table.from_pydict({"promo": promo, "total": c})

    from ray.data.aggregate import Sum

    # ONE execution for both sums (a second .sum() call would re-run the
    # whole join plan)
    agg = joined.map_batches(split, batch_format="pyarrow").aggregate(
        Sum("promo"), Sum("total")
    )
    return pd.DataFrame(
        {
            "promo_cents": np.array([agg["sum(promo)"] or 0], dtype=np.int64),
            "total_cents": np.array([agg["sum(total)"] or 0], dtype=np.int64),
        }
    )


def _q_tpch_q18(sf_dir: str):
    """TPC-H Q18 (large-volume orders): a hash-partitioned HAVING — group
    lineitem by orderkey, keep orders whose total quantity exceeds 250
    (the filter runs inside the reduce partition, so only qualifying keys
    ever leave), then join the small survivor set back to orders and
    customer. The group-then-filter-then-join plan ships survivor rows
    only; quantity sums in exact integers."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def qty_int(batch: pa.Table):
        if batch.num_rows == 0:
            return
        q = pc.floor(
            pc.add(batch.column("l_quantity"), pa.scalar(0.5))
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {"okey": batch.column("l_orderkey").cast(pa.int64()), "q": q}
        )

    sums = partitioned_agg(
        li.map_batches(qty_int, batch_format="pyarrow"),
        keys=["okey"],
        named_aggs={"sum_qty": ("q", "sum")},
    ).filter(expr="sum_qty > 250")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        cents = pc.floor(
            pc.add(
                pc.multiply(batch.column("o_totalprice"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "ckey": batch.column("o_custkey").cast(pa.int64()),
                "o_orderdate": batch.column("o_orderdate"),
                "totalprice_cents": cents,
            }
        )

    j1 = hash_join(
        sums, orders.map_batches(ord_prep, batch_format="pyarrow"), on=["okey"]
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).rename_columns({"c_custkey": "ckey"})
    j2 = hash_join(j1, cust, on=["ckey"])
    out = j2.sort(["sum_qty", "okey"], descending=[True, False]).limit(100)
    return _rename(out, {"okey": "o_orderkey", "ckey": "o_custkey"})


def _q_tpch_q19(sf_dir: str):
    """TPC-H Q19 (disjunctive brand/size/quantity predicate): lineitem ⋈
    part on partkey (two large sides), then the OR-of-ANDs predicate
    evaluated as vectorized Arrow boolean kernels in one pass — the shape
    where a naive engine evaluates three separate scans; here the join
    runs once and the disjunction costs three boolean columns."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).rename_columns({"l_partkey": "pkey_part"})

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        c = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(pa.int64())
        yield pa.Table.from_pydict(
            {
                "pkey_part": batch.column("pkey_part").cast(pa.int64()),
                "qty": batch.column("l_quantity"),
                "c": c,
            }
        )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).rename_columns({"p_partkey": "pkey_part"})
    joined = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"), part, on=["pkey_part"]
    )

    def disjunct(batch: pa.Table):
        if batch.num_rows == 0:
            return
        brand = batch.column("p_brand")
        size = batch.column("p_size")
        qty = batch.column("qty")

        def arm(b, s_lo, s_hi, q_lo, q_hi):
            return pc.and_(
                pc.and_(
                    pc.equal(brand, pa.scalar(b)),
                    pc.and_(
                        pc.greater_equal(size, pa.scalar(s_lo)),
                        pc.less_equal(size, pa.scalar(s_hi)),
                    ),
                ),
                pc.and_(
                    pc.greater_equal(qty, pa.scalar(float(q_lo))),
                    pc.less_equal(qty, pa.scalar(float(q_hi))),
                ),
            )

        keep = pc.or_(
            pc.or_(
                arm("Brand#1", 1, 15, 1, 20), arm("Brand#2", 10, 30, 10, 30)
            ),
            arm("Brand#3", 20, 50, 20, 40),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict({"c": t.column("c")})

    total = joined.map_batches(disjunct, batch_format="pyarrow").sum("c")
    return pd.DataFrame(
        {"revenue_cents": np.array([total or 0], dtype=np.int64)}
    )


def _q_tpch_q4(sf_dir: str):
    """TPC-H Q4 plan shape (order-priority checking). Adapted predicate:
    this corpus has no l_commitdate/l_receiptdate, so "late" means the
    line shipped more than 90 days after the order date. The EXISTS
    subquery becomes a per-order pre-aggregate — max(l_shipdate) per
    orderkey, group-combined BEFORE the join so the join's left side is
    order-cardinality, not lineitem-cardinality — then one
    two-large-sides hash join to the window-filtered orders, a
    vectorized lateness filter, and an O(#priorities) count reduce.
    The EXISTS lower bound is constant-folded into the lineitem SCAN:
    lateness needs l_shipdate > o_orderdate + 90d and every window order
    has o_orderdate >= 1996-01-01, so rows with l_shipdate <=
    1996-03-31 can never witness the EXISTS and never leave storage."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    us_90d = 90 * 86400 * 1_000_000
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"],
        filter=(pds.field("l_shipdate") > datetime.datetime(1996, 3, 31)),
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("l_orderkey").cast(pa.int64()),
                "ship_us": batch.column("l_shipdate").cast(pa.int64()),
            }
        )

    max_ship = partitioned_agg(
        li.map_batches(li_prep, batch_format="pyarrow"),
        keys=["okey"],
        named_aggs={"max_ship_us": ("ship_us", "max")},
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(
            (pds.field("o_orderdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("o_orderdate") < datetime.datetime(1996, 4, 1))
        ),
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(pa.int64()),
                "odate_us": batch.column("o_orderdate").cast(pa.int64()),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    i64 = pa.int64()
    j = hash_join(
        max_ship,
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        on=["okey"],
        left_types={"okey": i64, "max_ship_us": i64},
        right_types={
            "okey": i64,
            "odate_us": i64,
            "o_orderpriority": pa.string(),
        },
    )

    def late_only(batch: pa.Table):
        if batch.num_rows == 0:
            return
        keep = pc.greater(
            batch.column("max_ship_us"),
            pc.add(batch.column("odate_us"), pa.scalar(us_90d, type=i64)),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"o_orderpriority": t.column("o_orderpriority")}
        )

    return partitioned_agg(
        j.map_batches(late_only, batch_format="pyarrow"),
        keys=["o_orderpriority"],
        named_aggs={"order_count": ("o_orderpriority", "size")},
        num_partitions=16,
    )


def _q_tpch_q8(sf_dir: str):
    """TPC-H Q8 (national market share in one region's market for one
    part type, by order year): part pre-filtered AT THE SCAN to the
    target type, then a chain of two-large-sides hash joins (lineitem ⋈
    part ⋈ orders ⋈ customer ⋈ supplier — every side grows with the
    corpus, so none broadcasts), with the nation/region dimension
    snowflake applied as broadcast map-side enrichment on BOTH ends
    (customer's nation filtered to the region, supplier's nation named).
    Revenue lands as exact integer cents; the market-share ratio is the
    trivial driver-side divide of the two emitted sums (a float division
    would never strict-hash)."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=(pds.field("p_type") == "ECONOMY"),
    ).rename_columns({"p_partkey": "pkey_part"})

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_partkey",
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        cents = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "pkey_part": batch.column("l_partkey").cast(i64),
                "okey": batch.column("l_orderkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "cents": cents,
            }
        )

    j1 = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        part,
        on=["pkey_part"],
        left_types={"pkey_part": i64, "okey": i64, "skey": i64, "cents": i64},
        right_types={"pkey_part": i64},
    ).select_columns(["okey", "skey", "cents"])  # pkey_part is dead:
    # don't ship it through two more corpus-sized shuffles

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pds.field("o_orderdate") >= datetime.datetime(1995, 1, 1))
            & (pds.field("o_orderdate") <= datetime.datetime(1996, 12, 31))
        ),
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(i64),
                "ckey": batch.column("o_custkey").cast(i64),
                "o_year": pc.year(batch.column("o_orderdate")).cast(i64),
            }
        )

    j2 = hash_join(
        j1,
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        on=["okey"],
        left_types={"okey": i64, "skey": i64, "cents": i64},
        right_types={"okey": i64, "ckey": i64, "o_year": i64},
    ).select_columns(["ckey", "skey", "cents", "o_year"])  # okey dead
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).rename_columns({"c_custkey": "ckey"})
    j3 = hash_join(
        j2,
        cust,
        on=["ckey"],
        left_types={
            "ckey": i64,
            "skey": i64,
            "cents": i64,
            "o_year": i64,
        },
        right_types={"ckey": i64, "c_nationkey": pa.int32()},
    )

    # customer-side region filter via the broadcast dimension snowflake
    j3r = broadcast_join(
        j3,
        _nation_names(sf_dir, "c_nationkey", region="EUROPE"),
        on=["c_nationkey"],
    )

    slim = j3r.select_columns(["skey", "o_year", "cents"])
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).rename_columns({"s_suppkey": "skey"})
    j4 = hash_join(
        slim,
        supp,
        on=["skey"],
        left_types={"skey": i64, "o_year": i64, "cents": i64},
        right_types={"skey": i64, "s_nationkey": pa.int32()},
    )
    named = broadcast_join(
        j4, _nation_names(sf_dir, "s_nationkey"), on=["s_nationkey"]
    )

    def split(batch: pa.Table) -> pa.Table:
        c = batch.column("cents")
        is_target = pc.equal(batch.column("n_name"), pa.scalar("NATION_3"))
        return pa.Table.from_pydict(
            {
                "o_year": batch.column("o_year"),
                "nat": pc.if_else(is_target, c, pa.scalar(0, type=i64)),
                "tot": c,
            }
        )

    return partitioned_agg(
        named.map_batches(split, batch_format="pyarrow"),
        keys=["o_year"],
        named_aggs={
            "nation_cents": ("nat", "sum"),
            "total_cents": ("tot", "sum"),
        },
        num_partitions=16,
    )


def _q_tpch_q9(sf_dir: str):
    """TPC-H Q9 plan shape (product-type profit by nation and year).
    Adapted cost model: this corpus has no partsupp table, so unit cost
    is p_retailprice (profit = revenue − retailprice × quantity, exact
    integer cents, may be negative). Part is filtered by a vectorized
    substring match on p_name, then lineitem ⋈ part ⋈ orders ⋈ supplier
    two-large-sides hash joins, nation names via broadcast enrich, and
    an O(nations × years) group reduce."""
    import pyarrow.compute as pc
    import ray.data

    from ctinexus_ray.ops.distjoin import broadcast_join, hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"],
    )

    def part_prep(batch: pa.Table):
        t = batch.filter(pc.match_substring(batch.column("p_name"), "red"))
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "pkey_part": t.column("p_partkey").cast(i64),
                "p_retailprice": t.column("p_retailprice"),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_partkey",
            "l_suppkey",
            "l_orderkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "pkey_part": batch.column("l_partkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "okey": batch.column("l_orderkey").cast(i64),
                "l_quantity": batch.column("l_quantity"),
                "l_extendedprice": batch.column("l_extendedprice"),
                "l_discount": batch.column("l_discount"),
            }
        )

    f64 = pa.float64()
    j1 = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        part.map_batches(part_prep, batch_format="pyarrow"),
        on=["pkey_part"],
        left_types={
            "pkey_part": i64,
            "skey": i64,
            "okey": i64,
            "l_quantity": f64,
            "l_extendedprice": f64,
            "l_discount": f64,
        },
        right_types={"pkey_part": i64, "p_retailprice": f64},
    )

    def profit(batch: pa.Table):
        if batch.num_rows == 0:
            return
        rev = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        cost = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("p_retailprice"),
                        batch.column("l_quantity"),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("okey"),
                "skey": batch.column("skey"),
                "p": pc.subtract(rev, cost),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(i64),
                "o_year": pc.year(batch.column("o_orderdate")).cast(i64),
            }
        )

    j2 = hash_join(
        j1.map_batches(profit, batch_format="pyarrow"),
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        on=["okey"],
        left_types={"okey": i64, "skey": i64, "p": i64},
        right_types={"okey": i64, "o_year": i64},
    ).select_columns(["skey", "p", "o_year"])  # okey dead past here
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).rename_columns({"s_suppkey": "skey"})
    j3 = hash_join(
        j2,
        supp,
        on=["skey"],
        left_types={"skey": i64, "p": i64, "o_year": i64},
        right_types={"skey": i64, "s_nationkey": pa.int32()},
    )
    named = broadcast_join(
        j3, _nation_names(sf_dir, "s_nationkey"), on=["s_nationkey"]
    )

    def slim(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "nation": batch.column("n_name"),
                "o_year": batch.column("o_year"),
                "p": batch.column("p"),
            }
        )

    return partitioned_agg(
        named.map_batches(slim, batch_format="pyarrow"),
        keys=["nation", "o_year"],
        named_aggs={"profit_cents": ("p", "sum")},
        num_partitions=16,
    )


def _q_tpch_q12(sf_dir: str):
    """TPC-H Q12 plan shape (shipping-priority audit). Adapted: this
    corpus has no l_shipmode/l_receiptdate, so the group is
    l_linestatus and "late" means shipped more than 60 days after the
    order date. Ship-year window pushed into the lineitem scan, ONE
    two-large-sides hash join to orders, then a vectorized lateness
    filter + conditional priority counts combined map-side — the
    classic join + conditional-aggregate shape."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    us_60d = 60 * 86400 * 1_000_000
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1997, 1, 1))
        ),
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("l_orderkey").cast(i64),
                "l_linestatus": batch.column("l_linestatus"),
                "ship_us": batch.column("l_shipdate").cast(i64),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(i64),
                "odate_us": batch.column("o_orderdate").cast(i64),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    j = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        on=["okey"],
        left_types={"okey": i64, "l_linestatus": pa.string(), "ship_us": i64},
        right_types={
            "okey": i64,
            "odate_us": i64,
            "o_orderpriority": pa.string(),
        },
    )
    high_set = pa.array(["1-URGENT", "2-HIGH"], type=pa.string())

    def classify(batch: pa.Table):
        if batch.num_rows == 0:
            return
        late = pc.greater(
            batch.column("ship_us"),
            pc.add(batch.column("odate_us"), pa.scalar(us_60d, type=i64)),
        )
        t = batch.filter(late)
        if t.num_rows == 0:
            return
        is_high = pc.is_in(t.column("o_orderpriority"), value_set=high_set)
        one = pa.scalar(1, type=i64)
        zero = pa.scalar(0, type=i64)
        yield pa.Table.from_pydict(
            {
                "l_linestatus": t.column("l_linestatus"),
                "hi": pc.if_else(is_high, one, zero),
                "lo": pc.if_else(is_high, zero, one),
            }
        )

    return partitioned_agg(
        j.map_batches(classify, batch_format="pyarrow"),
        keys=["l_linestatus"],
        named_aggs={
            "high_line_count": ("hi", "sum"),
            "low_line_count": ("lo", "sum"),
        },
        num_partitions=16,
    )


def _q_tpch_q13(sf_dir: str):
    """TPC-H Q13 (customer order-count distribution). Adapted filter:
    this corpus has no o_comment, so the excluded class is
    o_orderpriority = '1-URGENT' (pushed into the orders scan as the ON
    predicate). Plan: hash-partitioned per-customer order counts, a
    LEFT outer two-large-sides hash join back to customer so
    zero-order customers survive with count 0, and a count-of-counts
    reduce — the same distribution shape as the key-skew profiler."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pds.field("o_orderpriority") != "1-URGENT"),
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"ckey": batch.column("o_custkey").cast(i64)}
        )

    counts = partitioned_agg(
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        keys=["ckey"],
        named_aggs={"n_orders": ("ckey", "size")},
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )

    def cust_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"ckey": batch.column("c_custkey").cast(i64)}
        )

    j = hash_join(
        cust.map_batches(cust_prep, batch_format="pyarrow"),
        counts,
        on=["ckey"],
        how="left",
        left_types={"ckey": i64},
        right_types={"ckey": i64, "n_orders": i64},
    )

    def fill(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "c_count": pc.fill_null(
                    batch.column("n_orders"), pa.scalar(0, type=i64)
                )
            }
        )

    dist = partitioned_agg(
        j.map_batches(fill, batch_format="pyarrow"),
        keys=["c_count"],
        named_aggs={"custdist": ("c_count", "size")},
        num_partitions=16,
    )
    return dist.sort(["custdist", "c_count"], descending=[True, True])


def _q_tpch_q15(sf_dir: str):
    """TPC-H Q15 (top supplier by revenue over a quarter): window pushed
    into the lineitem scan, hash-partitioned per-supplier cents sums
    (supplier-cardinality output, materialized ONCE because it feeds
    both the global max and the winner filter — without pinning, Ray's
    lazy plan would re-run the corpus aggregate per consumer), then the
    winner set joins supplier for names. The subquery max is one scalar
    on the driver — never a second corpus pass."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(
            (pds.field("l_shipdate") >= datetime.datetime(1996, 1, 1))
            & (pds.field("l_shipdate") < datetime.datetime(1996, 4, 1))
        ),
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        cents = pc.floor(
            pc.add(
                pc.multiply(
                    pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                    pa.scalar(100.0),
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {"skey": batch.column("l_suppkey").cast(i64), "c": cents}
        )

    rev = partitioned_agg(
        li.map_batches(li_prep, batch_format="pyarrow"),
        keys=["skey"],
        named_aggs={"total_revenue_cents": ("c", "sum")},
    ).materialize()  # supplier-cardinality; feeds max + winner filter
    best_raw = rev.max("total_revenue_cents")
    if best_raw is None:  # window matched no lineitem: empty result,
        import pandas as pd  # same schema as the oracle's empty set

        return pd.DataFrame(
            {
                "s_suppkey": pd.Series([], dtype="int64"),
                "s_name": pd.Series([], dtype="object"),
                "total_revenue_cents": pd.Series([], dtype="int64"),
            }
        )
    best = int(best_raw)
    winners = rev.filter(expr=f"total_revenue_cents == {best}")
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).rename_columns({"s_suppkey": "skey"})
    out = hash_join(
        winners,
        supp,
        on=["skey"],
        left_types={"skey": i64, "total_revenue_cents": i64},
        right_types={"skey": i64, "s_name": pa.string()},
        num_partitions=16,
    )
    return _rename(out, {"skey": "s_suppkey"})


def _q_tpch_q17(sf_dir: str):
    """TPC-H Q17 plan shape (small-quantity-order revenue). Adapted
    filter: this corpus has no p_container, so the target slice is
    p_brand='Brand#1' AND p_size<10 (both pushed into the part scan).
    The correlated avg-quantity subquery becomes: join lineitem to the
    target part keys, hash-partitioned per-part (sum_qty, count), join
    back, and keep rows with 5*qty*count < sum_qty — the integer-exact
    restatement of qty < 0.2*avg(qty) (no float division anywhere). The
    target slice's plan deliberately executes twice (stats pass +
    join-back pass) instead of materializing: two passes over a
    column-pruned, predicate-pushed scan stay memory-bounded at 100 TB
    where pinning the slice would not."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    tgt = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=(
            (pds.field("p_brand") == "Brand#1") & (pds.field("p_size") < 10)
        ),
    ).rename_columns({"p_partkey": "pkey_part"})

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        q = pc.floor(
            pc.add(batch.column("l_quantity"), pa.scalar(0.5))
        ).cast(i64)
        c = pc.floor(
            pc.add(
                pc.multiply(
                    batch.column("l_extendedprice"), pa.scalar(100.0)
                ),
                pa.scalar(0.5),
            )
        ).cast(i64)
        yield pa.Table.from_pydict(
            {
                "pkey_part": batch.column("l_partkey").cast(i64),
                "q": q,
                "c": c,
            }
        )

    def slice_ds():
        return hash_join(
            li.map_batches(li_prep, batch_format="pyarrow"),
            tgt,
            on=["pkey_part"],
            left_types={"pkey_part": i64, "q": i64, "c": i64},
            right_types={"pkey_part": i64},
        )

    stats = partitioned_agg(
        slice_ds(),
        keys=["pkey_part"],
        named_aggs={"s": ("q", "sum"), "n": ("q", "size")},
        num_partitions=16,
    )
    joined = hash_join(
        slice_ds(),
        stats,
        on=["pkey_part"],
        left_types={"pkey_part": i64, "q": i64, "c": i64},
        right_types={"pkey_part": i64, "s": i64, "n": i64},
        num_partitions=16,
    )

    def small_qty(batch: pa.Table):
        if batch.num_rows == 0:
            return
        keep = pc.less(
            pc.multiply(
                pc.multiply(batch.column("q"), pa.scalar(5, type=i64)),
                batch.column("n"),
            ),
            batch.column("s"),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield pa.Table.from_pydict({"c": t.column("c")})

    total = joined.map_batches(small_qty, batch_format="pyarrow").sum("c")
    return pd.DataFrame(
        {"sum_extprice_cents": np.array([total or 0], dtype=np.int64)}
    )


def _q_tpch_q21(sf_dir: str):
    """TPC-H Q21 plan shape (suppliers who kept orders waiting). Adapted
    lateness: no l_receiptdate/l_commitdate in this corpus, so "late"
    means shipped more than 60 days after the order date; order status
    'F' filter pushed into the orders scan. The EXISTS / NOT-EXISTS pair
    collapses into ONE okey-partitioned shuffle: within each order
    partition a vectorized pandas pass computes per-(order, supplier)
    late flags AND per-order supplier/late-supplier counts locally, so
    a supplier qualifies (late, other suppliers exist, no OTHER supplier
    late ⟺ exactly one late supplier) without any further corpus-wide
    exchange — versus the naive four-self-join plan."""
    import pandas as pd
    import pyarrow.dataset as pds
    import ray.data

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import hash_reduce, partitioned_agg

    i64 = pa.int64()
    us_60d = 60 * 86400 * 1_000_000
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
        filter=(pds.field("o_orderstatus") == "F"),
    )

    def ord_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("o_orderkey").cast(i64),
                "odate_us": batch.column("o_orderdate").cast(i64),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )

    def li_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {
                "okey": batch.column("l_orderkey").cast(i64),
                "skey": batch.column("l_suppkey").cast(i64),
                "ship_us": batch.column("l_shipdate").cast(i64),
            }
        )

    j = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        on=["okey"],
        left_types={"okey": i64, "skey": i64, "ship_us": i64},
        right_types={"okey": i64, "odate_us": i64},
    )
    def waiters(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(late=(g["ship_us"] > g["odate_us"] + us_60d))
        per = (
            g.groupby(["okey", "skey"], sort=False)["late"]
            .max()
            .reset_index()
        )
        ord_stats = per.groupby("okey", sort=False)["late"].agg(
            n_supp="size", n_late="sum"
        )
        per = per.join(ord_stats, on="okey")
        hit = per[per["late"] & (per["n_supp"] >= 2) & (per["n_late"] == 1)]
        return hit[["skey"]]

    cand = hash_reduce(j, ["okey"], waiters)
    counts = partitioned_agg(
        cand,
        keys=["skey"],
        named_aggs={"numwait": ("skey", "size")},
        num_partitions=16,
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).rename_columns({"s_suppkey": "skey"})
    named = hash_join(
        counts,
        supp,
        on=["skey"],
        left_types={"skey": i64, "numwait": i64},
        right_types={"skey": i64, "s_name": pa.string()},
        num_partitions=16,
    )
    return (
        named.select_columns(["s_name", "numwait"])
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(100)
    )


def _q_tpch_q22(sf_dir: str):
    """TPC-H Q22 plan shape (global-sales-opportunity / idle customers).
    Adapted: no c_phone in this corpus, so the country-code set is
    c_nationkey IN (1,3,5,7,9,11,13), and "no orders" is scoped to
    recent orders (o_orderdate >= 2000-06-01) so the anti-join is
    non-degenerate on this data. The scalar AVG subquery is restated
    integer-exact (bal_cents * n_pos > sum_pos_cents ⟺ bal > avg), its
    two sums computed in ONE aggregate pass; the candidate pass re-runs
    the column-pruned, predicate-pushed customer scan rather than
    materializing it; NOT EXISTS is a distributed left-anti hash join."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data
    from ray.data.aggregate import Sum

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()
    nations = [1, 3, 5, 7, 9, 11, 13]

    def cust_scan():
        return ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_acctbal"],
            filter=(pds.field("c_nationkey").isin(nations)),
        )

    def prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        bal = pc.floor(
            pc.add(
                pc.multiply(batch.column("c_acctbal"), pa.scalar(100.0)),
                pa.scalar(0.5),
            )
        ).cast(i64)
        zero = pa.scalar(0, type=i64)
        is_pos = pc.greater(bal, zero)
        yield pa.Table.from_pydict(
            {
                "ckey": batch.column("c_custkey").cast(i64),
                "cntry": batch.column("c_nationkey").cast(i64),
                "bal_cents": bal,
                "pos_cents": pc.if_else(is_pos, bal, zero),
                "is_pos": pc.if_else(
                    is_pos, pa.scalar(1, type=i64), zero
                ),
            }
        )

    # ONE aggregate pass for both scalars of the AVG threshold
    stats = cust_scan().map_batches(prep, batch_format="pyarrow").aggregate(
        Sum("pos_cents"), Sum("is_pos")
    )
    s = int(stats["sum(pos_cents)"] or 0)
    n = int(stats["sum(is_pos)"] or 0)

    def above_avg(batch: pa.Table):
        if batch.num_rows == 0:
            return
        keep = pc.greater(
            pc.multiply(batch.column("bal_cents"), pa.scalar(n, type=i64)),
            pa.scalar(s, type=i64),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return
        yield t.select(["ckey", "cntry", "bal_cents"])

    cand = (
        cust_scan()
        .map_batches(prep, batch_format="pyarrow")
        .map_batches(above_avg, batch_format="pyarrow")
    )
    recent = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(
            pds.field("o_orderdate") >= __import__("datetime").datetime(
                2000, 6, 1
            )
        ),
    )

    def rec_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"ckey": batch.column("o_custkey").cast(i64)}
        )

    idle = hash_join(
        cand,
        recent.map_batches(rec_prep, batch_format="pyarrow"),
        on=["ckey"],
        how="left_anti",
        left_types={"ckey": i64, "cntry": i64, "bal_cents": i64},
        right_types={"ckey": i64},
        num_partitions=16,
    )
    return partitioned_agg(
        idle,
        keys=["cntry"],
        named_aggs={
            "numcust": ("cntry", "size"),
            "totacctbal_cents": ("bal_cents", "sum"),
        },
        num_partitions=16,
    )


# --- sampled k-bounded betweenness centrality --------------------------------

_BETWEENNESS_SOURCES = 5
_BETWEENNESS_HOPS = 3


def _q_name_betweenness(sf_dir: str):
    """Sampled k-bounded betweenness over the name-match graph
    (ops/graph.py betweenness_sampled): Brandes dependency accumulation
    from the 5 lowest-custkey sources, truncated at 3 levels; all
    sources advance together (one edge join + one (src,node) sum + one
    anti-join per level), dependencies are exact integer floor-division
    rationals so the unrolled-CTE twin matches bit-for-bit. ✓SQL."""
    from ctinexus_ray.ops.graph import betweenness_sampled

    return betweenness_sampled(
        _name_edges(sf_dir),
        sources=list(range(_BETWEENNESS_SOURCES)),
        max_hops=_BETWEENNESS_HOPS,
        num_partitions=16,
    )


# --- incremental view maintenance ---------------------------------------------


def _q_ivm_wordcount(sf_dir: str):
    """Delta-maintained word-count view (state/ivm.py): the corpus
    arrives as 2 ingestion batches (doc_id mod 2 — deterministic), each
    contributing a tick-sized delta aggregate appended to a versioned
    view and reduced by monoid combination on read; the applied-batch
    ledger lives IN the manifest, so replay is exactly-once. The final
    view must equal a full recompute — which is exactly what the SQL
    twin does, making delta-maintenance soundness itself the oracle
    check. ✓SQL."""
    import tempfile

    import numpy as np

    from ctinexus_ray.ops.dedup import hash64_strings
    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.textstats import word_explode_batch
    from ctinexus_ray.state.ivm import apply_delta, read_view

    view = tempfile.mkdtemp(prefix="ivm_wc_")
    n_slices = 2

    def with_wkey(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        keys = hash64_strings(words).astype(np.int64)
        return batch.append_column("wkey", pa.array(keys, type=pa.int64()))

    for i in range(n_slices):

        def keep_slice(batch: pa.Table, i=i) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % n_slices == i))

        delta = partitioned_agg(
            _docs(sf_dir, ["doc_id", "text"])
            .map_batches(keep_slice, batch_format="pyarrow")
            .map_batches(word_explode_batch, batch_format="pyarrow"),
            keys=["word"],
            named_aggs={"n": ("n", "sum")},
            num_partitions=16,
        ).map_batches(with_wkey, batch_format="pyarrow")
        apply_delta(
            view,
            delta,
            key_col="wkey",
            value_cols={"n": "sum"},
            batch_id=f"slice-{i}",
        )
    return read_view(view, "wkey", {"n": "sum"}).select_columns(["word", "n"])


def _q_bloom_pruned_lookup(sf_dir: str):
    """Point lookup through the per-row-group BLOOM index
    (sources/pqindex.py): the corpus is re-sharded by doc_id hash so
    every file's [min, max] fingerprint range spans the whole domain —
    the zone map cannot prune — and the Bloom filters open only the row
    groups that may contain the probe fingerprints. A missed row would
    hash-mismatch the full-scan oracle, so the MATCH is exactly the
    no-false-negatives guarantee. ✓SQL."""
    import hashlib
    import os
    import tempfile

    import pyarrow.parquet as pq

    from ctinexus_ray.sources.pqindex import (
        build_bloom_index,
        prune_bloom,
        read_pruned,
    )

    def add_fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        fps = [
            hashlib.md5((t or "").strip().lower().encode()).hexdigest()
            for t in texts
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "fp": pa.array(fps, type=pa.string()),
            }
        )

    docs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_fp, batch_format="pyarrow"
    )
    shard_dir = tempfile.mkdtemp(prefix="bloomidx_")
    paths = []
    n_files = 8
    for f in range(n_files):

        def keep(batch: pa.Table, f=f) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % n_files == f))

        part = docs.map_batches(keep, batch_format="pyarrow").to_arrow_refs()
        import ray as _ray

        tables = [t for t in _ray.get(part) if t.num_rows]
        paths.append(os.path.join(shard_dir, f"part-{f}.parquet"))
        pq.write_table(
            pa.concat_tables(tables), paths[-1], row_group_size=32
        )

    probe_rows = docs.filter(expr="doc_id < 3").take_all()
    probes = sorted({r["fp"] for r in probe_rows})
    idx = build_bloom_index(paths, "fp")
    pairs = prune_bloom(idx, probes)
    hits = read_pruned(pairs)
    pset = set(probes)

    def exact(batch: pa.Table) -> pa.Table:
        fps = batch.column("fp").to_pylist()
        return batch.filter(pa.array([f in pset for f in fps]))

    return hits.map_batches(exact, batch_format="pyarrow")


def _q_ivm_distinct_users(sf_dir: str):
    """Delta-maintained DISTINCT-COUNT view: HLL registers are a
    max-monoid, so each ingestion batch's (reg, rho) rows fold into a
    persisted register view via the same exactly-once IVM machinery as
    the word counts — the constant-size approximate sibling. The view's
    estimate equals the full-corpus hll_distinct exactly (max is
    order/batching-insensitive; pinned in tests). ✓SQL: the register
    view's estimate is reproduced bit-for-bit in DuckDB
    (_sketch_oracles ivm_distinct_users)."""
    import tempfile

    import ray.data

    from ctinexus_ray.ops.sketch import (
        hll_estimate_from_rows,
        hll_register_rows,
    )
    from ctinexus_ray.state.ivm import apply_delta, read_view

    p = 12
    view = tempfile.mkdtemp(prefix="ivm_hll_")
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]
    )

    def uid_str(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "u": batch.column("user_id").cast(pa.string()),
                "event_id": batch.column("event_id"),
            }
        )

    for i in range(2):

        def keep_slice(batch: pa.Table, i=i) -> pa.Table:
            ids = batch.column("event_id").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % 2 == i))

        delta = hll_register_rows(
            ev.map_batches(uid_str, batch_format="pyarrow")
            .map_batches(keep_slice, batch_format="pyarrow"),
            "u",
            p=p,
        )
        apply_delta(
            view, delta, key_col="reg", value_cols={"rho": "max"},
            batch_id=f"slice-{i}",
        )
    est = hll_estimate_from_rows(
        read_view(view, "reg", {"rho": "max"}).take_all(), p=p
    )
    return pa.Table.from_pydict(
        {"approx_distinct_users": pa.array([est], type=pa.int64())}
    )


# --- bounded weighted shortest paths ------------------------------------------


def _q_name_sssp(sf_dir: str):
    """Multi-source weighted shortest paths over the name-match graph
    (edge weight = levenshtein distance + 1, so identical names are
    cheaper to cross than off-by-one names): 3 Bellman-Ford relaxation
    rounds from the 5 lowest-custkey sources — the min-plus sibling of
    bfs_hops, one broadcast-relax map + one (src,node) MIN per round.
    ✓SQL (unrolled relax-CTE chain)."""
    from ctinexus_ray.ops.graph import sssp_bounded

    def with_w(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "w": pc.add(batch.column("dist").cast(pa.int64()), 1),
            }
        )

    def rn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["a", "b", "dist"])

    edges = (
        _q_name_match_pairs(sf_dir)
        .map_batches(rn, batch_format="pyarrow")
        .map_batches(with_w, batch_format="pyarrow")
    )
    return sssp_bounded(
        edges,
        sources=list(range(_BETWEENNESS_SOURCES)),
        max_rounds=3,
        num_partitions=16,
    )


def _q_name_diameter(sf_dir: str):
    """Graph diameter LOWER BOUND by the double BFS sweep (Magnien,
    Latapy & Habib 2009): BFS from a fixed start, re-BFS from the
    farthest node found; its eccentricity bounds the diameter from
    below, here within the 6-hop horizon. Pure composition of two
    bfs_hops passes (the memoized edge set is shared). Output one row:
    (start_node, peripheral_node, diameter_lb). ✓SQL (two depth-capped
    recursive CTEs, the second seeded by the first's argmax)."""
    import ray.data

    from ctinexus_ray.ops.graph import bfs_hops

    edges = _name_edges(sf_dir)
    hops = 6

    def far(d):
        rows = d.sort(["dist", "node"], descending=[True, False]).limit(1).take_all()
        return rows[0]

    seed0 = ray.data.from_arrow(
        pa.Table.from_pydict({"node": pa.array([0], type=pa.int64())})
    )
    first = far(bfs_hops(edges, seed0, max_hops=hops, num_partitions=16))
    seed1 = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"node": pa.array([first["node"]], type=pa.int64())}
        )
    )
    second = far(bfs_hops(edges, seed1, max_hops=hops, num_partitions=16))
    return pa.Table.from_pydict(
        {
            "start_node": pa.array([0], type=pa.int64()),
            "peripheral_node": pa.array([first["node"]], type=pa.int64()),
            "diameter_lb": pa.array([second["dist"]], type=pa.int64()),
        }
    )


# --- unigram-LM tokenizer (Kudo 2018 / SentencePiece shape) ------------------


_UNIGRAM_PIECE_LEN = 6
_UNIGRAM_CACHE: dict = {}


def _unigram_pieces_ds(sf_dir: str):
    """Trained unigram piece table, memoized per (job, sf_dir) — the
    _NAME_EDGES_CACHE pattern: both unigram queries in one driver sweep
    share one training run instead of paying seed+EM+prune twice."""
    import ray as _ray

    key = (_ray.get_runtime_context().get_job_id(), sf_dir)
    ds = _UNIGRAM_CACHE.get(key)
    if ds is None:
        from ctinexus_ray.ops.unigram import unigram_train

        ds = unigram_train(
            _docs(sf_dir, ["doc_id", "text"]),
            vocab_size=48,
            seed_size=256,
            max_piece_len=_UNIGRAM_PIECE_LEN,
            shrink=0.5,
        ).materialize()
        _UNIGRAM_CACHE.clear()
        _UNIGRAM_CACHE[key] = ds
    return ds


def _q_unigram_pieces(sf_dir: str):
    """Train the unigram subword vocabulary on the corpus
    (ops/unigram.py): seed substrings -> integer-quantized EM over the
    distinct-word table -> driver-side likelihood-loss pruning.
    Iterative EM is not SQL-expressible -> rows-only; bit-exact parity
    vs a sequential reference is pinned in tests/test_unigram.py.
    Query knobs favor sweep latency (seed 256, shrink 0.5 halves the
    prune rounds); algorithm defaults stay SentencePiece-shaped."""
    return _unigram_pieces_ds(sf_dir)


def _q_token_counts_unigram(sf_dir: str):
    """Per-document Viterbi subword counts under the trained unigram
    vocabulary (exact anchor: token_counts / token_counts_bpe). The
    encode window is pinned to the TRAINING max_piece_len so the two
    sides of the contract cannot drift."""
    from ctinexus_ray.ops.unigram import unigram_encode

    pieces = _unigram_pieces_ds(sf_dir).take_all()  # vocab-sized
    counts = {r["piece"]: int(r["micro"]) for r in pieces}
    return unigram_encode(
        _docs(sf_dir, ["doc_id", "text"]),
        counts,
        max_piece_len=_UNIGRAM_PIECE_LEN,
    )


# --- text hygiene: PII redaction / script mix / NFC --------------------------
#
# The synthetic corpus is pure-ASCII word salad, so each query first
# concatenates a DETERMINISTIC doc_id-derived snippet (mirrored
# expression-for-expression in the SQL twin) to exercise the match
# paths; the untouched base text exercises the no-match path on the
# same rows. Both sides run RE2 (Arrow kernels / DuckDB), so the
# patterns are byte-identical contracts.


def _aug_pii(batch: pa.Table) -> pa.Table:
    import numpy as np

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    call = np.where(ids % 3 == 0, " call 555-867-5309", "")
    ssn = np.where(ids % 5 == 0, " ssn 219-09-9999", "")
    aug = pc.binary_join_element_wise(
        batch.column("text"),
        " contact user",
        pa.array(ids.astype(str)),
        "@example.com from 10.",
        pa.array((ids % 256).astype(str)),
        ".0.",
        pa.array((ids % 100).astype(str)),
        pa.array(call),
        pa.array(ssn),
        "",
    )
    return pa.Table.from_pydict({"doc_id": batch.column("doc_id"), "text": aug})


def _q_pii_redact(sf_dir: str):
    """PII redaction with per-type counts (ops/textclean.py): ordered
    RE2 redaction passes (email -> ipv4 -> ssn -> phone) as Arrow
    kernel calls — zero shuffle, linear in input bytes."""
    from ctinexus_ray.ops.textclean import pii_redact_batch

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_aug_pii, batch_format="pyarrow")
        .map_batches(pii_redact_batch, batch_format="pyarrow")
    )


def _aug_html(batch: pa.Table) -> pa.Table:
    """Deterministic doc_id-derived (url, html) augmentation — the
    testdata documents table has no html column, so synthesize one
    exercising every link-resolution path (absolute http, absolute
    https, root-relative, scheme-relative, dropped mailto), mirrored
    expression-for-expression in the SQL twins (the `pii_redact`
    precedent)."""
    import numpy as np
    import pandas as pd

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    s = lambda a: pd.Series(a.astype(str))  # noqa: E731
    url = "http://host" + s(ids % 40) + ".example.com/p/" + s(ids)
    html = (
        '<html><body><a href="http://host'
        + s((ids * 7) % 40)
        + ".example.com/p/"
        + s((ids * 7) % 997)
        + '">x</a>'
    )
    html = html + ('<a href="/local/' + s(ids) + '">r</a>').where(ids % 3 == 0, "")
    html = html + (
        '<a href="mailto:a@b.c">m</a><a href="//host'
        + s((ids * 11) % 40)
        + '.example.com/s">p</a>'
    ).where(ids % 5 == 0, "")
    html = html + (
        '<a href="https://host' + s((ids * 13) % 40) + '.example.com/q?k=1">s</a>'
    ).where(ids % 7 == 0, "")
    html = html + "</body></html>"
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "url": pa.array(url.tolist(), type=pa.string()),
            "html": pa.array(html.tolist(), type=pa.string()),
        }
    )


def _aug_c4(batch: pa.Table) -> pa.Table:
    """Deterministic doc_id-derived multi-line pages for the C4 clean
    rules (testdata text has no newlines/punctuation), mirrored in SQL:
    a kept line, an unpunctuated line, and per-mod javascript /
    lorem-ipsum / brace / second-kept lines."""
    import numpy as np
    import pandas as pd

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    text = batch.column("text").to_pandas().fillna("")
    nl = "\n"
    raw = text.str.slice(0, 40) + "."
    raw = raw + nl + text.str.slice(40, 70)
    raw = raw + (nl + "javascript " + text.str.slice(70, 90) + ".").where(
        ids % 3 == 0, ""
    )
    raw = raw + pd.Series(np.where(ids % 11 == 0, nl + "lorem ipsum", ""))
    raw = raw + pd.Series(np.where(ids % 13 == 0, nl + "brace { here.", ""))
    raw = raw + (nl + text.str.slice(90, 140) + "?").where(ids % 2 == 0, "")
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "text": pa.array(raw.tolist(), type=pa.string()),
        }
    )


def _q_c4_clean(sf_dir: str):
    """C4's public line-level cleaning recipe (Raffel et al. 2020;
    ops/textclean.py c4_clean): terminal-punctuation + min-words +
    javascript line filters, lorem-ipsum / brace / min-kept-lines page
    filters. Stateless vectorized map, zero shuffle. ✓SQL (expression-
    for-expression twin)."""
    from ctinexus_ray.ops.textclean import c4_clean

    pages = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _aug_c4, batch_format="pyarrow"
    )
    return c4_clean(pages, min_words=5, min_lines=2)


def _q_ann_ivf_persisted(sf_dir: str):
    """Persisted IVF index (ops/annindex.py): centroids live in the
    versioned-table manifest (atomic with the cell files), search
    pushes a cell filter into the parquet read, appends assign under
    frozen centroids. Approximate -> rows-only; full-probe exactness,
    recall, and append-visibility pinned in tests/test_annindex.py;
    exact anchor similarity_topk ✓SQL."""
    import hashlib
    import shutil

    import numpy as np
    import ray.data

    from ctinexus_ray.ops.annindex import ivf_index_build, ivf_index_search
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/ivfidx_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    emb = read_testdata_embeddings(sf_dir)
    ivf_index_build(emb, tmp, n_centroids=16)
    q_rows = sorted(
        emb.filter(expr="vec_id < 10").take_all(), key=lambda r: r["vec_id"]
    )
    ids = [r["vec_id"] for r in q_rows]
    mat = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    topk = ivf_index_search(tmp, ids, mat, k=5, n_probe=4)
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_ann_ivf_delete(sf_dir: str):
    """Delete tick on the persisted IVF index (ops/annindex.py
    ivf_index_delete): every vec_id % 3 == 0 vector retires
    copy-on-write (broadcast sorted ids, one searchsorted rewrite task
    per cell file, untouched cells by reference, centroids frozen in
    the manifest), then a FULL-PROBE search is exactly brute-force
    cosine top-k over the SURVIVORS — a stale vector or a lost cell
    would hash-mismatch the SQL twin. ✓SQL."""
    import hashlib
    import shutil

    import numpy as np
    import ray.data

    from ctinexus_ray.ops.annindex import (
        ivf_index_build,
        ivf_index_delete,
        ivf_index_search,
    )
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/ivfdel_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    emb = read_testdata_embeddings(sf_dir)
    ivf_index_build(emb, tmp, n_centroids=16)
    def mod3_zero(t):
        import pyarrow as _pa

        v = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(_pa.array(v % 3 == 0))

    ivf_index_delete(
        tmp,
        emb.map_batches(mod3_zero, batch_format="pyarrow").select_columns(
            ["vec_id"]
        ),
    )
    q_rows = sorted(
        emb.filter(expr="vec_id < 10").take_all(), key=lambda r: r["vec_id"]
    )
    ids = [r["vec_id"] for r in q_rows]
    mat = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    topk = ivf_index_search(tmp, ids, mat, k=5, n_probe=16)
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_mixture_sample(sf_dir: str):
    """Token-budget mixture sampling (ops/shards.py mixture_sample —
    the DoReMi/Pile training-mixture step): integer weights 4:2:1:1
    over four sources, 3000-token budget; per-source totals reduce to
    #sources ints, then a content-addressed md5 threshold filter. The
    floor-division threshold rule is all-integer. ✓SQL (identical
    expression twin; the 4x source caps at keep-everything, the 1x
    sources downsample — both branches exercised)."""
    from ctinexus_ray.ops.shards import mixture_sample

    return mixture_sample(
        _docs(sf_dir, ["doc_id", "source", "text"]),
        weights={"src0": 4, "src1": 2, "src2": 1, "src3": 1},
        budget_tokens=3000,
    )


def _q_bitext_mine(sf_dir: str):
    """Margin-based parallel-text mining (ops/simsearch.py
    margin_bitext — the CCMatrix/LASER shape): en->de candidate pairs
    by ratio margin over the embedding table, lang attached from the
    documents table by a left hash_join on the unique doc_id (the
    list-typed embedding rides through the join as payload).
    Float-mean margins -> rows-only; numpy-reference parity + reshard
    determinism pinned in TestMarginBitext; exact anchor
    similarity_topk ✓SQL."""
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.simsearch import margin_bitext
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    langs = _docs(sf_dir, ["doc_id", "lang"]).rename_columns(
        {"doc_id": "vec_id"}
    )
    emb = hash_join(
        read_testdata_embeddings(sf_dir), langs, on=["vec_id"], how="left",
        num_partitions=64,
    )
    return margin_bitext(emb, "en", "de", k=4, threshold=1.0)


def _q_bucketed_join_orders(sf_dir: str):
    """Storage-aligned bucketed join (ops/distjoin.py bucketed_write /
    bucketed_join — the Hive/Iceberg bucketing contract): orders and
    customer both bucketed by custkey at write time, then joined with
    ZERO shuffle (one task per co-located bucket pair), aggregated per
    nation. The all-to-all exchange is paid ONCE at ingest and
    amortized over every later join on that key. ✓SQL (plain join —
    bucketing must never change results)."""
    import hashlib
    import shutil

    import numpy as np
    import ray.data

    from ctinexus_ray.ops.distjoin import bucketed_join, bucketed_write
    from ctinexus_ray.ops.groupagg import partitioned_agg

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/bucketed_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)

    def prep_orders(batch: pa.Table) -> pa.Table:
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        cents = np.floor(price * 100 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "custkey": batch.column("o_custkey"),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )

    def prep_cust(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "custkey": batch.column("c_custkey"),
                "c_nationkey": batch.column("c_nationkey"),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(prep_orders, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(prep_cust, batch_format="pyarrow")
    bucketed_write(orders, ["custkey"], f"{tmp}/orders", n_buckets=16)
    bucketed_write(cust, ["custkey"], f"{tmp}/customer", n_buckets=16)
    joined = bucketed_join(f"{tmp}/orders", f"{tmp}/customer", on=["custkey"])
    return partitioned_agg(
        joined,
        ["c_nationkey"],
        {"n_orders": ("cents", "size"), "sum_cents": ("cents", "sum")},
        num_partitions=16,
    )


def _q_table_schema_evolution(sf_dir: str):
    """Schema evolution on the versioned table (state/tableformat.py):
    v1 commits even-doc_id rows WITHOUT a lang column, v2 appends odd
    rows WITH it; the manifest records the per-file schema pool and the
    union schema, so the evolved read scans each schema group with full
    pushdown and null-fills lang for the files that predate it. A type
    CHANGE refuses the commit loudly (pinned in tests). ✓SQL (CASE
    null-fill twin over the source table)."""
    import hashlib
    import shutil

    import ray

    from ctinexus_ray.state.tableformat import commit_version, read_version

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/tblevo_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    data_dir = f"{tmp}/data"
    table_dir = f"{tmp}/table"

    @ray.remote
    def write_half(parity: int) -> str:
        import os

        import pyarrow as pa_
        import pyarrow.parquet as pq_

        os.makedirs(data_dir, exist_ok=True)
        cols = ["doc_id", "text"] + (["lang"] if parity else [])
        t = pq_.read_table(f"{sf_dir}/documents.parquet", columns=cols)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa_.array(ids % 2 == parity))
        path = f"{data_dir}/half-{parity}.parquet"
        pq_.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
        return path

    even, odd = ray.get([write_half.remote(0), write_half.remote(1)])
    commit_version(table_dir, [even])
    commit_version(table_dir, [odd], mode="append")
    return read_version(table_dir, columns=["doc_id", "text", "lang"])


def _q_ann_sq(sf_dir: str):
    """Scalar-quantized (SQ8) ANN: uint8 per dimension — 8x smaller
    scan traffic than float64 with near-exact recall (higher than PQ
    at 1 byte/dim); asymmetric affine-folded scoring + exact re-rank.
    ✓SQL: the re-rank pool contains the true top-5 at this corpus and
    the exact re-rank shares the oracle's tie-break, so the output IS
    the exact top-k (recall also pinned by TestSQ)."""
    from ctinexus_ray.ops.simsearch import sq_topk
    from ctinexus_ray.sources.documents import read_testdata_embeddings

    topk = sq_topk(read_testdata_embeddings(sf_dir), n_queries=10, k=5)
    return topk.select_columns(["query_id", "rank", "neighbor_id"])


def _q_tfrecord_source(sf_dir: str):
    """TFRecord ingestion round trip (avro/csv/jsonl_source's sibling;
    the ML-native training-shard format): the documents table sharded
    into deterministic .tfrecord files (masked-CRC32C framing +
    hand-rolled tf.Example protobuf, one Ray task per shard), read back
    through per-file parse tasks. The ✓SQL twin reads the ORIGINAL
    parquet — a hash MATCH proves the write→read round trip faithful
    including unicode, NULL text, and the int64 features."""
    import hashlib
    import shutil

    from ctinexus_ray.sources.tfrecord import read_tfrecord, write_tfrecord_corpus

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    tmp = f"/tmp/tfrecord_src_{tag}"
    shutil.rmtree(tmp, ignore_errors=True)
    paths = write_tfrecord_corpus(
        f"{sf_dir}/documents.parquet",
        tmp,
        n_shards=4,
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )
    return read_tfrecord(paths).select_columns(
        ["doc_id", "text", "lang", "source", "n_chars"]
    )


def _q_html_links(sf_dir: str):
    """Hyperlink extraction over the CC-shaped html column
    (ops/weblinks.py): per-page href explode + vectorized resolution
    (absolute / scheme-relative / root-relative; rest dropped).
    Stateless map, no shuffle. ✓SQL (regexp_extract_all twin)."""
    from ctinexus_ray.ops.weblinks import extract_links

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_html, batch_format="pyarrow"
    )
    return extract_links(pages).select_columns(["doc_id", "idx", "link"])


def _aug_urls(batch: pa.Table) -> pa.Table:
    """Deterministic doc_id-derived urls with VARIED path depth (0-4
    segments) for the path-prefix rollup, mirrored in SQL."""
    import numpy as np
    import pandas as pd

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    s = lambda a: pd.Series(a.astype(str))  # noqa: E731
    tail = ("/a/b/c/" + s(ids)).where(ids % 4 == 0, "/")
    tail = ("/a/" + s(ids)).where(ids % 4 == 1, tail)
    tail = pd.Series(np.where(ids % 4 == 2, "/x", tail))
    url = "http://host" + s(ids % 40) + ".example.com" + tail
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "url": pa.array(url.tolist(), type=pa.string()),
        }
    )


def _aug_robots() -> "pa.Table":
    """Deterministic per-host robots.txt corpus for the politeness
    filter (hosts host0..host39.example.com, matching _aug_urls): a
    decoy 'special' agent group that must be skipped, then a * group
    whose rules rotate by host index K%3 — prefix+longer-Allow
    override, $-anchored Disallow, and empty-Disallow allow-all. The
    SQL twin re-derives the VERDICTS from K directly, so a parser or
    longest-match bug hash-mismatches."""
    hosts, txts = [], []
    for k in range(40):
        hosts.append(f"host{k}.example.com")
        if k % 3 == 0:
            rules = "User-agent: *\nDisallow: /a\nAllow: /a/b\n"
        elif k % 3 == 1:
            rules = "User-agent: *\nDisallow: /x$\nCrawl-delay: 2\n"
        else:
            rules = "User-agent: *\nDisallow:\n"
        txts.append(
            "# synthetic robots\nUser-agent: special\nDisallow: /\n\n"
            + rules
        )
    return pa.Table.from_pydict(
        {
            "host": pa.array(hosts, type=pa.string()),
            "robots_txt": pa.array(txts, type=pa.string()),
        }
    )


def _q_robots_allowed(sf_dir: str):
    """RFC 9309 crawl-politeness filter (ops/weblinks.py): per-host
    robots.txt parsed+compiled once and broadcast (ray.put once, read
    per task — the host-cardinality small side never reships per
    batch), pages marked allowed/blocked by longest-match with Allow
    winning ties and $ anchors honored; the decoy 'special' group must
    be skipped for agent='*'. ✓SQL (verdicts re-derived from the host
    index; parse/group/match bugs hash-mismatch)."""
    import ray.data

    from ctinexus_ray.ops.weblinks import robots_allowed

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_urls, batch_format="pyarrow"
    )
    robots = ray.data.from_arrow(_aug_robots())
    return robots_allowed(pages, robots)


def _q_crawl_budget(sf_dir: str):
    """Per-host crawl-time budget: pages-per-host (one count reduce)
    x the host's Crawl-delay PARSED from its robots.txt by the real
    RFC 9309 parser (default 1000 ms where the file sets none) — the
    politeness-aware scheduling estimate. Integer millisecond
    arithmetic end to end. ✓SQL (delay re-derived from the host index;
    a Crawl-delay parse bug hash-mismatches)."""
    import ray.data

    from ctinexus_ray.ops.groupagg import partitioned_agg
    from ctinexus_ray.ops.weblinks import parse_robots

    delays = {
        r["host"]: int(
            (parse_robots(r["robots_txt"])["crawl_delay"] or 1.0) * 1000
        )
        for r in _aug_robots().to_pylist()
    }
    def to_host(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = [
            (u.split("://", 1)[1].split("/", 1)[0] if "://" in u else "")
            for u in urls
        ]
        return pa.Table.from_pydict(
            {"host": pa.array(hosts, type=pa.string())}
        )

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_urls, batch_format="pyarrow"
    ).map_batches(to_host, batch_format="pyarrow")
    per_host = partitioned_agg(
        pages, keys=["host"], named_aggs={"n_pages": ("host", "size")}
    )

    def budget(batch: pa.Table) -> pa.Table:
        hosts = batch.column("host").to_pylist()
        n = batch.column("n_pages").to_numpy(zero_copy_only=False)
        dms = [delays.get(h, 1000) for h in hosts]
        return pa.Table.from_pydict(
            {
                "host": batch.column("host"),
                "n_pages": pa.array(n, type=pa.int64()),
                "delay_ms": pa.array(dms, type=pa.int64()),
                "budget_ms": pa.array(
                    [int(a) * b for a, b in zip(n, dms)], type=pa.int64()
                ),
            }
        )

    return per_host.map_batches(budget, batch_format="pyarrow")


def _q_url_prefix_counts(sf_dir: str):
    """Crawl-budget rollup: pages per (host, cumulative path prefix)
    (ops/weblinks.py path_prefix_counts). Stateless prefix explode +
    per-batch combine, ONE (host, prefix)-keyed sum reduce. ✓SQL
    (list_slice prefix twin)."""
    from ctinexus_ray.ops.weblinks import path_prefix_counts

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_urls, batch_format="pyarrow"
    )
    return path_prefix_counts(pages)


def _q_host_pagerank(sf_dir: str):
    """PageRank over the CRAWL'S HOST LINK GRAPH (the webtext flagship
    graph: which hosts does the web point at) — hyperlinks extracted
    and resolved from the CC html column (ops/weblinks.py), distinct
    (src_host, dst_host) edges mapped to int host indices, then the
    shared Pregel pagerank (5 iterations, d=0.85), ranks emitted as
    exact 1e-9-rounded BIGINTs like the trade-graph query. ✓SQL
    (unrolled-CTE twin over the identical weblink edge derivation)."""
    import re

    from ctinexus_ray.ops.graph import pagerank
    from ctinexus_ray.ops.weblinks import extract_links, host_link_graph

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_html, batch_format="pyarrow"
    )
    hosts = host_link_graph(extract_links(pages))
    host_re = re.compile(r"^host(\d+)\.")

    def to_int_edges(batch: pa.Table):
        srcs, dsts = [], []
        for a, b in zip(
            batch.column("src_host").to_pylist(),
            batch.column("dst_host").to_pylist(),
        ):
            ma, mb = host_re.match(a or ""), host_re.match(b or "")
            if ma and mb:
                srcs.append(int(ma.group(1)))
                dsts.append(int(mb.group(1)))
        if not srcs:
            return
        yield pa.Table.from_pydict(
            {
                "src": pa.array(srcs, type=pa.int64()),
                "dst": pa.array(dsts, type=pa.int64()),
            }
        )

    edges = hosts.map_batches(to_int_edges, batch_format="pyarrow")
    ranks = pagerank(
        edges, damping=_PAGERANK_DAMPING, iterations=_PAGERANK_ITERS
    )
    return _ranks_to_e9(ranks)


def _q_host_hits(sf_dir: str):
    """HITS hubs/authorities over the crawl's DIRECTED host link graph
    (Kleinberg's original use case: hub hosts point at authority
    hosts). Same weblink edge derivation as host_pagerank (distinct
    src->dst host-index edges — direction KEPT, unlike pagerank's
    already-directed walk this is the two-sided mutual reinforcement),
    then the shared hits_scores with exact int64 mass sums and
    pinned-order e9 renormalization. ✓SQL (unrolled twin)."""
    import re

    from ctinexus_ray.ops.graph import hits_scores
    from ctinexus_ray.ops.weblinks import extract_links, host_link_graph

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_html, batch_format="pyarrow"
    )
    hosts = host_link_graph(extract_links(pages))
    host_re = re.compile(r"^host(\d+)\.")

    def to_int_edges(batch: pa.Table):
        srcs, dsts = [], []
        for a, b in zip(
            batch.column("src_host").to_pylist(),
            batch.column("dst_host").to_pylist(),
        ):
            ma, mb = host_re.match(a or ""), host_re.match(b or "")
            if ma and mb:
                srcs.append(int(ma.group(1)))
                dsts.append(int(mb.group(1)))
        if not srcs:
            return
        yield pa.Table.from_pydict(
            {
                "src": pa.array(srcs, type=pa.int64()),
                "dst": pa.array(dsts, type=pa.int64()),
            }
        )

    edges = hosts.map_batches(to_int_edges, batch_format="pyarrow")
    return hits_scores(edges, iterations=_HITS_ITERS)


def _q_host_graph(sf_dir: str):
    """Host-level link graph (src_host, dst_host, n_links): the crawl
    ranking / frontier-scheduling edge table. Map-side combined count
    partials, ONE (src, dst)-keyed sum reduce. ✓SQL."""
    from ctinexus_ray.ops.weblinks import extract_links, host_link_graph

    pages = _docs(sf_dir, ["doc_id"]).map_batches(
        _aug_html, batch_format="pyarrow"
    )
    return host_link_graph(extract_links(pages))


_SCRIPT_SNIPPETS = (
    " привет мир",  # Cyrillic
    " 中文文本",  # Han
    " αβγδ שלום",  # Greek+Hebrew
    " مرحبا 한글",  # Arabic+Hangul
)


def _aug_script(batch: pa.Table) -> pa.Table:
    import numpy as np

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    suffix = np.select(
        [ids % 4 == 0, ids % 4 == 1, ids % 4 == 2],
        [_SCRIPT_SNIPPETS[0], _SCRIPT_SNIPPETS[1], _SCRIPT_SNIPPETS[2]],
        default=_SCRIPT_SNIPPETS[3],
    )
    aug = pc.binary_join_element_wise(
        batch.column("text"), pa.array(suffix), ""
    )
    return pa.Table.from_pydict({"doc_id": batch.column("doc_id"), "text": aug})


def _q_script_mix(sf_dir: str):
    """Per-document Unicode script histogram (ops/textclean.py): one
    RE2 script-class kernel pass per listed script, codepoint counts —
    the mixed-script / wrong-script-for-declared-lang screen."""
    from ctinexus_ray.ops.textclean import script_mix_batch

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_aug_script, batch_format="pyarrow")
        .map_batches(script_mix_batch, batch_format="pyarrow")
    )


# decomposed 'e' + combining acute (U+0301): collapses under NFC
_NFC_SNIPPET = " cafe\u0301"
# U+00C3 U+00A9 (utf8-as-latin1 e-acute) + U+00E2 U+20AC U+0153
# (cp1252 left quote): two MOJIBAKE_PATTERN artifacts
_MOJI_SNIPPET = " \u00c3\u00a9\u00e2\u20ac\u0153"


def _aug_nfc(batch: pa.Table) -> pa.Table:
    import numpy as np

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    nfc = np.where(ids % 3 == 0, _NFC_SNIPPET, "")
    moji = np.where(ids % 7 == 0, _MOJI_SNIPPET, "")
    aug = pc.binary_join_element_wise(
        batch.column("text"), pa.array(nfc), pa.array(moji), ""
    )
    return pa.Table.from_pydict({"doc_id": batch.column("doc_id"), "text": aug})


def _q_nfc_stats(sf_dir: str):
    """NFC normalization + mojibake screen (ops/textclean.py):
    per-string unicodedata.normalize (no Arrow kernel exists — the
    string op IS the kernel) + one RE2 artifact-count pass."""
    from ctinexus_ray.ops.textclean import nfc_stats_batch

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_aug_nfc, batch_format="pyarrow")
        .map_batches(nfc_stats_batch, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "doc_stats_by_lang": _q_doc_stats_by_lang,
        "top_docs_by_chars": _q_top_docs_by_chars,
        "token_counts": _q_token_counts,
        "token_counts_bpe": _q_token_counts_bpe,
        "winnow_fingerprints": _q_winnow_fingerprints,
        "dedup_exact": _q_dedup_exact,
        "doc_fingerprints": _q_doc_fingerprints,
        "quality_scores": _q_quality_scores,
        "word_freq_top100": _q_word_freq_top100,
        "doc_chunks": _q_doc_chunks,
        "cdc_chunk_stats": _q_cdc_chunk_stats,
        "phrase_search": _q_phrase_search,
        "user_first_last_event": _q_user_first_last_event,
        "doc_token_entropy": _q_doc_token_entropy,
        "tfidf_cosine_pairs": _q_tfidf_cosine_pairs,
        "quality_threshold_sweep": _q_quality_threshold_sweep,
        "doc_sample_k_by_lang": _q_doc_sample_k_by_lang,
        "rendezvous_shards": _q_rendezvous_shards,
        "cdc_chunk_delta": _q_cdc_chunk_delta,
        "user_top_event": _q_user_top_event,
        "user_activity_gini": _q_user_activity_gini,
        "weighted_median_qty": _q_weighted_median_qty,
        "event_trend": _q_event_trend,
        "cumulative_users": _q_cumulative_users,
        "gopher_quality": _q_gopher_quality,
        "pack_sequences": _q_pack_sequences,
        "leakage_safe_split": _q_leakage_safe_split,
        "bigram_freq_top100": _q_bigram_freq_top100,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "dedup_incremental": _q_dedup_incremental,
        "distinct_words_exact": _q_distinct_words_exact,
        "vocab_overlap_exact": _q_vocab_overlap_exact,
        "vocab_overlap_hll": _q_vocab_overlap_hll,
        "distinct_words_approx": _q_distinct_words_approx,
        "heavy_hitters": _q_heavy_hitters,
        "similarity_topk": _q_similarity_topk,
        "mmr_topk": _q_mmr_topk,
        "ann_ivf": _q_ann_ivf,
        "ann_lsh": _q_ann_lsh,
        "ann_nsw": _q_ann_nsw,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "embedding_neardup": _q_embedding_neardup,
        "embedding_neardup_lsh": _q_embedding_neardup_lsh,
        "minhash_pairs": _q_minhash_pairs,
        "minhash_keep": _q_minhash_keep,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "langid": _q_langid,
        "corpus_clean": _q_corpus_clean,
        "events_hourly": _q_events_hourly,
        "event_sessions": _q_event_sessions,
        "orders_per_customer": _q_orders_per_customer,
        "lineitem_status_counts": _q_lineitem_status_counts,
        "customers_per_region": _q_customers_per_region,
        "top_suppliers_by_lineitems": _q_top_suppliers_by_lineitems,
        "events_minmax_by_type": _q_events_minmax_by_type,
        "orders_customer_join": _q_orders_customer_join,
        "dup_components": _q_dup_components,
        "top_orders_per_customer": _q_top_orders_per_customer,
        "events_asof_purchase": _q_events_asof_purchase,
        "doc_len_quantiles": _q_doc_len_quantiles,
        "doc_len_quantiles_cont": _q_doc_len_quantiles_cont,
        "sorted_neighborhood": _q_sorted_neighborhood,
        "tpch_q3_topk": _q_tpch_q3_topk,
        "event_windows": _q_event_windows,
        "doc_sample": _q_doc_sample,
        "decontaminate": _q_decontaminate,
        "suppliers_with_returns": _q_suppliers_with_returns,
        "pagerank": _q_pagerank,
        "pagerank_personalized": _q_pagerank_personalized,
        "hits_trade": _q_hits_trade,
        "unigram_lm": _q_unigram_lm,
        "nb_langid": _q_nb_langid,
        "corpus_checksum": _q_corpus_checksum,
        "corpus_checksum_ranges": _q_corpus_checksum_ranges,
        "jsonl_source": _q_jsonl_source,
        "sitemap_source": _q_sitemap_source,
        "crawl_gap": _q_crawl_gap,
        "text_index_bm25": _q_text_index_bm25,
        "text_index_and": _q_text_index_and,
        "table_time_travel": _q_table_time_travel,
        "csv_source": _q_csv_source,
        "avro_source": _q_avro_source,
        "lineitem_corr": _q_lineitem_corr,
        "media_probe": _q_media_probe,
        "embedding_gram": _q_embedding_gram,
        "embedding_pca": _q_embedding_pca,
        "embedding_svd": _q_embedding_svd,
        "linear_probe": _q_linear_probe,
        "order_skyline": _q_order_skyline,
        "events_mad_outliers": _q_events_mad_outliers,
        "cohort_retention": _q_cohort_retention,
        "event_props_sum": _q_event_props_sum,
        "quality_melt": _q_quality_melt,
        "word_postings": _q_word_postings,
        "name_bfs_hops": _q_name_bfs_hops,
        "dsir_weights": _q_dsir_weights,
        "paragraph_dedup": _q_paragraph_dedup,
        "semdedup": _q_semdedup,
        "bpe_pair_counts": _q_bpe_pair_counts,
        "bpe_merges": _q_bpe_merges,
        "name_match_pairs": _q_name_match_pairs,
        "name_kcore": _q_name_kcore,
        "name_lpa_communities": _q_name_lpa_communities,
        "lang_len_auc": _q_lang_len_auc,
        "chi2_terms": _q_chi2_terms,
        "orders_scd2": _q_orders_scd2,
        "event_gap_quantiles": _q_event_gap_quantiles,
        "nb_confusion": _q_nb_confusion,
        "consistent_sample_join": _q_consistent_sample_join,
        "table_merge": _q_table_merge,
        "table_version_diff": _q_table_version_diff,
        "lm_calibration": _q_lm_calibration,
        "regex_extract": _q_regex_extract,
        "lineitem_price_median": _q_lineitem_price_median,
        "orders_dq_unique": _q_orders_dq_unique,
        "events_fk_check": _q_events_fk_check,
        "events_user_join_auto": _q_events_user_join_auto,
        "ab_chi2": _q_ab_chi2,
        "streaming_hourly": _q_streaming_hourly,
        "streaming_join": _q_streaming_join,
        "streaming_sessions": _q_streaming_sessions,
        "streaming_sliding": _q_streaming_sliding,
        "corpus_stats_monoid": _q_corpus_stats_monoid,
        "user_active_time": _q_user_active_time,
        "funnel_windowed": _q_funnel_windowed,
        "event_trigrams": _q_event_trigrams,
        "zipf_slope": _q_zipf_slope,
        "vocab_growth": _q_vocab_growth,
        "dedup_keep_best": _q_dedup_keep_best,
        "churned_users": _q_churned_users,
        "name_link_prediction": _q_name_link_prediction,
        "name_clustering_coeff": _q_name_clustering_coeff,
        "name_random_walks": _q_name_random_walks,
        "name_biased_walks": _q_name_biased_walks,
        "name_harmonic_centrality": _q_name_harmonic_centrality,
        "bpe_encode": _q_bpe_encode,
        "user_running_totals": _q_user_running_totals,
        "user_key_skew": _q_user_key_skew,
        "clean_funnel": _q_clean_funnel,
        "repetition_stats": _q_repetition_stats,
        "balanced_sample": _q_balanced_sample,
        "ranked_docs": _q_ranked_docs,
        "lang_len_quantiles": _q_lang_len_quantiles,
        "bloom_incremental": _q_bloom_incremental,
        "temperature_sample": _q_temperature_sample,
        "doc_sample_k": _q_doc_sample_k,
        "custkeys_without_orders": _q_custkeys_without_orders,
        "active_custkeys": _q_active_custkeys,
        "len_quantiles_tdigest": _q_len_quantiles_tdigest,
        "customer_orders_full": _q_customer_orders_full,
        "purchase_click_band": _q_purchase_click_band,
        "events_sliding": _q_events_sliding,
        "events_sliding_users": _q_events_sliding_users,
        "orders_status_pivot": _q_orders_status_pivot,
        "orders_rollup": _q_orders_rollup,
        "orders_cube": _q_orders_cube,
        "events_zscore": _q_events_zscore,
        "url_canonical_dedup": _q_url_canonical_dedup,
        "kn_bigram_lm": _q_kn_bigram_lm,
        "crawl_delta": _q_crawl_delta,
        "events_zorder": _q_events_zorder,
        "event_type_pairs": _q_event_type_pairs,
        "lang_len_drift": _q_lang_len_drift,
        "events_dq": _q_events_dq,
        "pruned_range_scan": _q_pruned_range_scan,
        "doc_dense_rank": _q_doc_dense_rank,
        "doc_ntile": _q_doc_ntile,
        "pmi_bigrams": _q_pmi_bigrams,
        "cms_word_counts": _q_cms_word_counts,
        "lineitem_orders_salted": _q_lineitem_orders_salted,
        "tpch_q1": _q_tpch_q1,
        "tpch_q2": _q_tpch_q2,
        "dedup_spans_removed": _q_dedup_spans_removed,
        "dup_span_stats": _q_dup_span_stats,
        "doc_percent_rank": _q_doc_percent_rank,
        "tpch_q4": _q_tpch_q4,
        "tpch_q5": _q_tpch_q5,
        "tpch_q6": _q_tpch_q6,
        "tpch_q7": _q_tpch_q7,
        "tpch_q8": _q_tpch_q8,
        "tpch_q9": _q_tpch_q9,
        "tpch_q3": _q_tpch_q3,
        "tpch_q10": _q_tpch_q10,
        "tpch_q11": _q_tpch_q11,
        "tpch_q12": _q_tpch_q12,
        "tpch_q13": _q_tpch_q13,
        "tpch_q14": _q_tpch_q14,
        "tpch_q15": _q_tpch_q15,
        "tpch_q16": _q_tpch_q16,
        "tpch_q17": _q_tpch_q17,
        "tpch_q18": _q_tpch_q18,
        "tpch_q19": _q_tpch_q19,
        "tpch_q20": _q_tpch_q20,
        "tpch_q21": _q_tpch_q21,
        "tpch_q22": _q_tpch_q22,
        "lang_len_tdigest": _q_lang_len_tdigest,
        "doc_sample_weighted": _q_doc_sample_weighted,
        "doc_len_histogram": _q_doc_len_histogram,
        "top_words_by_lang": _q_top_words_by_lang,
        "stratified_sample": _q_stratified_sample,
        "compression_ratios": _q_compression_ratios,
        "top_words_by_lang_mg": _q_top_words_by_lang_mg,
        "kmeans_clusters": _q_kmeans_clusters,
        "qty_price_corr": _q_qty_price_corr,
        "event_transitions": _q_event_transitions,
        "funnel_users": _q_funnel_users,
        "overlapping_sessions": _q_overlapping_sessions,
        "lineitem_pending_orders": _q_lineitem_pending_orders,
        "orders_status_agg": _q_orders_status_agg,
        "quantity_stats_by_flag": _q_quantity_stats_by_flag,
        "distinct_users_by_type": _q_distinct_users_by_type,
        "distinct_users_hll": _q_distinct_users_hll,
        "ann_pq": _q_ann_pq,
        "kg_extract": _q_kg_extract,
        "kg_degrees": _q_kg_degrees,
        "kg_triples": _q_kg_triples,
        "kg_nodes": _q_kg_nodes,
        "kg_edges": _q_kg_edges,
        "kg_nodes_merged": _q_kg_nodes_merged,
        "url_source": _q_url_source,
        "bm25_topk": _q_bm25_topk,
        "hybrid_retrieval": _q_hybrid_retrieval,
        "dup_graph_triangles": _q_dup_graph_triangles,
        "dup_graph_degrees": _q_dup_graph_degrees,
        "perplexity_buckets": _q_perplexity_buckets,
        "warc_source": _q_warc_source,
        "audio_fingerprint_dups": _q_audio_fingerprint_dups,
        "video_fingerprint_dups": _q_video_fingerprint_dups,
        "image_phash_dups": _q_image_phash_dups,
        "media_dedup_keep": _q_media_dedup_keep,
        "multimodal_decode": _q_multimodal_decode,
        "multimodal_features": _q_multimodal_features,
        "multimodal_frames": _q_multimodal_frames,
        "multimodal_video_frames": _q_multimodal_video_frames,
        "multimodal_video_decode": _q_multimodal_video_decode,
        "pii_redact": _q_pii_redact,
        "script_mix": _q_script_mix,
        "nfc_stats": _q_nfc_stats,
        "unigram_pieces": _q_unigram_pieces,
        "token_counts_unigram": _q_token_counts_unigram,
        "name_betweenness": _q_name_betweenness,
        "name_sssp": _q_name_sssp,
        "ivm_wordcount": _q_ivm_wordcount,
        "kg_nodes_merged_llm": _q_kg_nodes_merged_llm,
        "ivm_distinct_users": _q_ivm_distinct_users,
        "bloom_pruned_lookup": _q_bloom_pruned_lookup,
        "name_diameter": _q_name_diameter,
        "html_links": _q_html_links,
        "host_graph": _q_host_graph,
        "host_pagerank": _q_host_pagerank,
        "host_hits": _q_host_hits,
        "tfrecord_source": _q_tfrecord_source,
        "ann_sq": _q_ann_sq,
        "table_schema_evolution": _q_table_schema_evolution,
        "robots_allowed": _q_robots_allowed,
        "crawl_budget": _q_crawl_budget,
        "url_prefix_counts": _q_url_prefix_counts,
        "bucketed_join_orders": _q_bucketed_join_orders,
        "bitext_mine": _q_bitext_mine,
        "c4_clean": _q_c4_clean,
        "mixture_sample": _q_mixture_sample,
        "ann_ivf_persisted": _q_ann_ivf_persisted,
        "kg_nodes_incremental": _q_kg_nodes_incremental,
        "text_index_phrase": _q_text_index_phrase,
        "text_index_delete": _q_text_index_delete,
        "text_index_proximity": _q_text_index_proximity,
        "ann_ivf_delete": _q_ann_ivf_delete,
    }


def _textclean_oracles() -> dict[str, str]:
    """SQL twins for the text-hygiene queries. The regex patterns are
    interpolated FROM the engine's constants (single source of truth —
    both sides hand the identical pattern text to RE2), and the
    doc_id-derived augmentation mirrors _aug_pii/_aug_script/_aug_nfc
    expression-for-expression."""
    from ctinexus_ray.ops.textclean import (
        MOJIBAKE_PATTERN,
        PII_PATTERNS,
        SCRIPT_CLASSES,
    )

    pii = (
        "WITH c0 AS (SELECT doc_id, text || ' contact user' || doc_id "
        "|| '@example.com from 10.' || (doc_id % 256) || '.0.' "
        "|| (doc_id % 100) "
        "|| CASE WHEN doc_id % 3 = 0 THEN ' call 555-867-5309' ELSE '' END "
        "|| CASE WHEN doc_id % 5 = 0 THEN ' ssn 219-09-9999' ELSE '' END "
        "AS t FROM documents)"
    )
    carry: list[str] = []
    for i, (name, pat, repl) in enumerate(PII_PATTERNS):
        prev = ", ".join(carry) + (", " if carry else "")
        pii += (
            f", c{i + 1} AS (SELECT doc_id, {prev}"
            f"len(regexp_extract_all(t, '{pat}')) AS n_{name}, "
            f"regexp_replace(t, '{pat}', '{repl}', 'g') AS t FROM c{i})"
        )
        carry.append(f"n_{name}")
    pii += (
        f" SELECT doc_id, t AS text, {', '.join(carry)} "
        f"FROM c{len(PII_PATTERNS)}"
    )

    script_counts = ", ".join(
        f"len(regexp_extract_all(t, '\\p{{{s}}}')) AS n_{s.lower()}"
        for s in SCRIPT_CLASSES
    )
    script = (
        "WITH a AS (SELECT doc_id, text || CASE CAST(doc_id % 4 AS INT) "
        f"WHEN 0 THEN '{_SCRIPT_SNIPPETS[0]}' "
        f"WHEN 1 THEN '{_SCRIPT_SNIPPETS[1]}' "
        f"WHEN 2 THEN '{_SCRIPT_SNIPPETS[2]}' "
        f"ELSE '{_SCRIPT_SNIPPETS[3]}' END AS t FROM documents) "
        f"SELECT doc_id, length(t) AS n_chars, {script_counts} FROM a"
    )

    nfc = (
        "WITH a AS (SELECT doc_id, text "
        f"|| CASE WHEN doc_id % 3 = 0 THEN '{_NFC_SNIPPET}' ELSE '' END "
        f"|| CASE WHEN doc_id % 7 = 0 THEN '{_MOJI_SNIPPET}' ELSE '' END "
        "AS t FROM documents) "
        "SELECT doc_id, nfc_normalize(t) AS text, "
        "t != nfc_normalize(t) AS changed, "
        "length(t) AS n_chars_before, "
        "length(nfc_normalize(t)) AS n_chars_after, "
        f"len(regexp_extract_all(t, '{MOJIBAKE_PATTERN}')) AS n_mojibake "
        "FROM a"
    )
    return {"pii_redact": pii, "script_mix": script, "nfc_stats": nfc}


# Shared CTEs for the weblink twins: the doc_id-derived (url, html)
# augmentation (mirror of _aug_html expression-for-expression) and the
# href explode + resolution (mirror of ops/weblinks.py semantics).
_WEBLINK_PAGES_SQL = (
    "WITH pages AS (SELECT doc_id, "
    "'http://host' || (doc_id % 40) || '.example.com/p/' || doc_id AS url, "
    "'<html><body><a href=\"http://host' || ((doc_id*7) % 40) || "
    "'.example.com/p/' || ((doc_id*7) % 997) || '\">x</a>' "
    "|| CASE WHEN doc_id % 3 = 0 THEN "
    "'<a href=\"/local/' || doc_id || '\">r</a>' ELSE '' END "
    "|| CASE WHEN doc_id % 5 = 0 THEN "
    "'<a href=\"mailto:a@b.c\">m</a><a href=\"//host' || "
    "((doc_id*11) % 40) || '.example.com/s\">p</a>' ELSE '' END "
    "|| CASE WHEN doc_id % 7 = 0 THEN "
    "'<a href=\"https://host' || ((doc_id*13) % 40) || "
    "'.example.com/q?k=1\">s</a>' ELSE '' END "
    "|| '</body></html>' AS html FROM documents), "
)

_WEBLINK_RES_SQL = (
    "lst AS (SELECT doc_id, url, "
    "regexp_extract_all(html, 'href=\"([^\"]*)\"', 1) AS ls FROM pages), "
    "raw AS (SELECT doc_id, url, i, "
    "list_extract(ls, CAST(i+1 AS INT)) AS raw FROM lst, "
    "LATERAL (SELECT unnest(range(0, len(ls))) AS i)), "
    "res AS (SELECT doc_id, url, i, "
    "CASE WHEN raw LIKE 'http://%' OR raw LIKE 'https://%' THEN raw "
    "WHEN raw LIKE '//%' THEN "
    "regexp_extract(url, '^(https?):', 1) || ':' || raw "
    "WHEN raw LIKE '/%' THEN "
    "regexp_extract(url, '^(https?://[^/]+)', 1) || raw "
    "ELSE NULL END AS link FROM raw) "
)



# ---------------------------------------------------------------------------
# Hash/sketch SQL twins: the engine's 64-bit string hash (hash64_strings,
# ops/dedup.py:64 — positional polynomial + splitmix64 finalizer, mod 2^64)
# is replicated in DuckDB so the "approximate" sketch queries become EXACT
# oracles: the same hash bits drive both sides, so SimHash signatures, CMS
# registers, Bloom positions and HLL registers are bit-identical by
# construction. Mod-2^64 arithmetic in SQL: HUGEINT for multiplies (operands
# split into 32-bit halves so products stay < 2^96), UBIGINT for xor/shift.
# The corpus is ASCII (asserted nowhere cheaper than here: ord(substr()) ==
# utf-8 byte only for ASCII; the synthetic testdata is ASCII-only).
# ---------------------------------------------------------------------------

_M64 = 1 << 64


def _sql_mul64(col: str, c: int) -> str:
    """(col * c) mod 2^64 for a HUGEINT column expr and a constant."""
    bh, bl = c >> 32, c & 0xFFFFFFFF
    return (
        f"(({col} * {bl} + (({col} * {bh}) % 4294967296) * 4294967296) "
        f"% {_M64})"
    )


def _sql_xorshift(col: str, s: int) -> str:
    return (
        f"CAST(xor(CAST({col} AS UBIGINT), "
        f"CAST({col} AS UBIGINT) >> {s}) AS HUGEINT)"
    )


def _sql_splitmix64_ctes(cte_in, key_cols, in_col, out_col, prefix):
    """Chained CTEs computing out_col = splitmix64(in_col) (the
    ops/dedup.py:58 mixer, constant-for-constant). Returns
    (sql_fragment_starting_with_comma, final_cte_name)."""
    keys = ", ".join(key_cols)
    steps = [
        (f"{prefix}1", f"(({in_col} + 11400714819323198485) % {_M64})"),
        (f"{prefix}2", _sql_xorshift(f"{prefix}x1", 30)),
        (f"{prefix}3", _sql_mul64(f"{prefix}x2", 0xBF58476D1CE4E5B9)),
        (f"{prefix}4", _sql_xorshift(f"{prefix}x3", 27)),
        (f"{prefix}5", _sql_mul64(f"{prefix}x4", 0x94D049BB133111EB)),
    ]
    sql, prev, carry = "", cte_in, keys
    for name, expr in steps:
        sql += (
            f", {name} AS (SELECT {carry}, {expr} AS {prefix}x{name[-1]} "
            f"FROM {prev})"
        )
        carry = f"{keys}, {prefix}x{name[-1]}"
        prev = name
    final = f"{prefix}f"
    sql += (
        f", {final} AS (SELECT {keys}, "
        f"{_sql_xorshift(f'{prefix}x5', 31)} AS {out_col} FROM {prev})"
    )
    return sql, final


def _py_splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def _hash64_words_sql() -> str:
    """CTE chain from cte dw(w) to cte wh(w, H): H = hash64_strings(w)
    (polynomial byte sum with P = 0x100000001B3 + length mix +
    splitmix64 finalize — ops/dedup.py:64 expression-for-expression)."""
    ppow, p64 = [1], 0x100000001B3
    for _ in range(127):
        ppow.append((ppow[-1] * p64) % _M64)
    ppow_list = "[" + ", ".join(f"CAST(p AS HUGEINT)".replace("p", str(p)) for p in ppow) + "]"
    sql = (
        "psum AS (SELECT w, CAST(length(w) AS HUGEINT) AS L, "
        f"CAST(sum((CAST(ord(substr(w, i, 1)) AS HUGEINT) + 1) * "
        f"{ppow_list}[i]) AS HUGEINT) % {_M64} AS ps "
        "FROM dw, LATERAL (SELECT unnest(generate_series(1, length(w))) AS i) u "
        "GROUP BY w), "
        f"lm0 AS (SELECT w, ps, (L * {0xD6E8FEB86659FD93}) % {_M64} AS lraw "
        "FROM psum)"
    )
    part, final = _sql_splitmix64_ctes("lm0", ["w", "ps"], "lraw", "len_mix", "lm")
    sql += part
    sql += (
        f", hx0 AS (SELECT w, CAST(xor(CAST(ps AS UBIGINT), "
        f"CAST(len_mix AS UBIGINT)) AS HUGEINT) AS hraw FROM {final})"
    )
    part, final = _sql_splitmix64_ctes("hx0", ["w"], "hraw", "H", "hh")
    return sql + part + f", wh AS (SELECT w, H FROM {final})"


def _langid_oracle() -> str:
    """Stopword-profile argmax twin (ops/textstats.py langid_batch):
    strict-> update in profile order en, es, de, fr means earlier
    languages win ties — the CASE chain below encodes exactly that."""
    from ctinexus_ray.ops.textstats import LANG_PROFILES

    def inlist(lang):
        return ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))

    return (
        "WITH toks AS (SELECT doc_id, "
        "lower(unnest(regexp_split_to_array(trim(text), '\\s+'))) AS w "
        "FROM documents), h AS (SELECT doc_id, "
        f"count(*) FILTER (WHERE w IN ({inlist('en')})) AS h_en, "
        f"count(*) FILTER (WHERE w IN ({inlist('es')})) AS h_es, "
        f"count(*) FILTER (WHERE w IN ({inlist('de')})) AS h_de, "
        f"count(*) FILTER (WHERE w IN ({inlist('fr')})) AS h_fr "
        "FROM toks GROUP BY doc_id) "
        "SELECT doc_id, CASE "
        "WHEN greatest(h_en, h_es, h_de, h_fr) = 0 THEN 'und' "
        "WHEN h_en >= h_es AND h_en >= h_de AND h_en >= h_fr THEN 'en' "
        "WHEN h_es >= h_de AND h_es >= h_fr THEN 'es' "
        "WHEN h_de >= h_fr THEN 'de' ELSE 'fr' END AS lang_pred, "
        "CAST(greatest(h_en, h_es, h_de, h_fr) AS BIGINT) AS stopword_hits "
        "FROM h"
    )


def _winnow_oracle() -> str:
    """Winnowing twin (ops/textstats.py winnow_fingerprints, k=5, w=4):
    Karp-Rabin k-gram hashes mod 2^31-1 via 5 shifted char terms, then
    rightmost-min-per-window with consecutive-pick dedup (lag)."""
    from ctinexus_ray.ops.textstats import _WINNOW_BASE, _WINNOW_MOD

    pw = [1]
    for _ in range(4):
        pw.append((pw[-1] * _WINNOW_BASE) % _WINNOW_MOD)
    hash_expr = " + ".join(
        f"CAST(ord(substr(t, i + {j}, 1)) AS BIGINT) * {pw[4 - j]}"
        for j in range(5)
    )
    return (
        "WITH lowered AS (SELECT doc_id, lower(text) AS t, "
        "length(text) AS L FROM documents), "
        "hashes AS (SELECT doc_id, i - 1 AS pos, L, "
        f"({hash_expr}) % {_WINNOW_MOD} AS h "
        "FROM lowered, LATERAL (SELECT unnest(generate_series(1, L - 4)) AS i) u "
        "WHERE L >= 5), "
        "small AS (SELECT doc_id, pos, h AS fp FROM ("
        "SELECT doc_id, pos, h, row_number() OVER "
        "(PARTITION BY doc_id ORDER BY h, pos DESC) AS rn "
        "FROM hashes WHERE L <= 8) WHERE rn = 1), "
        "wins AS (SELECT h1.doc_id, h1.pos AS s, h2.pos AS p, h2.h "
        "FROM hashes h1 JOIN hashes h2 ON h2.doc_id = h1.doc_id "
        "AND h2.pos >= h1.pos AND h2.pos <= h1.pos + 3 "
        "WHERE h1.L >= 9 AND h1.pos <= h1.L - 8), "
        "agg AS (SELECT doc_id, s, min(h) AS mh FROM wins GROUP BY doc_id, s), "
        "picks AS (SELECT w.doc_id, w.s, max(w.p) AS pick, a.mh "
        "FROM wins w JOIN agg a ON a.doc_id = w.doc_id AND a.s = w.s "
        "AND w.h = a.mh GROUP BY w.doc_id, w.s, a.mh), "
        "dedup AS (SELECT doc_id, s, pick, mh, "
        "lag(pick) OVER (PARTITION BY doc_id ORDER BY s) AS prev FROM picks) "
        "SELECT doc_id, CAST(pick AS BIGINT) AS pos, CAST(mh AS BIGINT) AS fp "
        "FROM dedup WHERE prev IS NULL OR pick != prev "
        "UNION ALL SELECT doc_id, CAST(pos AS BIGINT), CAST(fp AS BIGINT) "
        "FROM small"
    )


def _simhash_sig_ctes() -> str:
    """CTE chain ending in 'sig'(doc_id, simhash BIGINT) — the SimHash
    of ops/dedup.py simhash_batch bit-for-bit: per-word hash64, +/-1
    bit contributions weighted by occurrence count, sign threshold,
    top-63-bit signature (sig_u >> 1)."""
    pow2_list = "[" + ", ".join(f"CAST({1 << s} AS HUGEINT)" for s in range(64)) + "]"
    sql = (
        "WITH words AS (SELECT doc_id, "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents WHERE trim(text) != ''), "
        "wc AS (SELECT doc_id, w, count(*) AS cnt FROM words "
        "GROUP BY doc_id, w), "
        "dw AS (SELECT DISTINCT w FROM words), "
        + _hash64_words_sql()
        + ", bits AS (SELECT wc.doc_id, s, CASE WHEN "
        "(CAST(H AS UBIGINT) >> s) & 1 = 1 THEN wc.cnt ELSE -wc.cnt END AS c "
        "FROM wc JOIN wh USING (w), "
        "LATERAL (SELECT unnest(generate_series(0, 63)) AS s) u), "
        "acc AS (SELECT doc_id, s, sum(c) AS a FROM bits GROUP BY doc_id, s), "
        "sigu AS (SELECT doc_id, CAST(sum(CASE WHEN a > 0 THEN "
        f"{pow2_list}[s + 1] ELSE CAST(0 AS HUGEINT) END) AS HUGEINT) AS su "
        "FROM acc GROUP BY doc_id), "
        "sig AS (SELECT d.doc_id, CAST(coalesce(su // 2, 0) AS BIGINT) "
        "AS simhash FROM documents d LEFT JOIN sigu USING (doc_id))"
    )
    return sql


_SHINGLE_JACCARD_CTES = (
    # distinct word-3-gram shingles incl. the <3-words whole-text shingle
    # (ops/dedup.py word_shingles), exact pair intersections
    "words AS (SELECT doc_id, "
    "regexp_split_to_array(trim(text), '\\s+') AS ws FROM documents), "
    "sh AS (SELECT DISTINCT doc_id, CASE WHEN len(ws) < 3 "
    "THEN array_to_string(ws, ' ') "
    "ELSE ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2] END AS s "
    "FROM words, LATERAL (SELECT unnest(generate_series(1, "
    "greatest(len(ws) - 2, 1))) AS i) u), "
    "cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
    "ipairs AS (SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS i "
    "FROM sh s1 JOIN sh s2 ON s1.s = s2.s AND s1.doc_id < s2.doc_id "
    "GROUP BY s1.doc_id, s2.doc_id)"
)


def _cdc_chunks_sql(src_cte, min_s=16, avg_s=64, max_s=256) -> str:
    """CTE chain from src_cte(doc_id, t) to 'chunks'(doc_id, start,
    length, content) — gear-hash CDC (ops/shards.py cdc_boundaries).
    The cut test is (rolling_hash & (avg-1)) == 0, so only the low
    log2(avg) bits matter and shifts >= log2(avg) vanish: the candidate
    test needs just the last log2(avg) bytes with the gear table
    pre-reduced mod avg. The stateful min/max-size walk is the
    recursive CTE. Chunks group by CONTENT where the engine groups by
    blake2b fingerprint — identical grouping (fp = hash of the bytes).
    Caller must open WITH RECURSIVE."""
    from ctinexus_ray.ops.shards import _gear_table

    assert avg_s & (avg_s - 1) == 0
    shift_n = avg_s.bit_length() - 1
    g_mod = "[" + ", ".join(str(int(v) % avg_s) for v in _gear_table()) + "]"
    cand_terms = " + ".join(
        f"CASE WHEN j >= {k + 1} THEN g6[ord(substr(t, j - {k}, 1)) + 1] "
        f"* {1 << k} ELSE 0 END"
        if k
        else "g6[ord(substr(t, j, 1)) + 1]"
        for k in range(shift_n)
    )
    return (
        f"lens AS (SELECT doc_id, t, length(t) AS L FROM {src_cte}), "
        f"g AS (SELECT {g_mod} AS g6), "
        "cand AS (SELECT doc_id, j AS p FROM lens, g, "
        "LATERAL (SELECT unnest(generate_series(1, L)) AS j) u "
        f"WHERE ({cand_terms}) % {avg_s} = 0), "
        "bounds(doc_id, prev, cut) AS ("
        "SELECT doc_id, 0, coalesce((SELECT min(p) FROM cand c "
        f"WHERE c.doc_id = s.doc_id AND c.p >= {min_s} "
        f"AND c.p <= least({max_s}, s.L)), least({max_s}, s.L)) "
        "FROM lens s WHERE s.L > 0 "
        "UNION ALL "
        "SELECT b.doc_id, b.cut, coalesce((SELECT min(p) FROM cand c "
        f"WHERE c.doc_id = b.doc_id AND c.p >= b.cut + {min_s} "
        f"AND c.p <= least(b.cut + {max_s}, s.L)), "
        f"least(b.cut + {max_s}, s.L)) "
        "FROM bounds b JOIN lens s ON s.doc_id = b.doc_id "
        "WHERE b.cut < s.L), "
        "chunks AS (SELECT b.doc_id, b.prev AS start, "
        "b.cut - b.prev AS length, "
        "substr(s.t, b.prev + 1, b.cut - b.prev) AS content "
        "FROM bounds b JOIN lens s ON s.doc_id = b.doc_id)"
    )


_HLL_P14_M = 1 << 14
_HLL_P12_M = 1 << 12


def _hll_alpha(m: int) -> str:
    return f"CAST({0.7213 / (1 + 1.079 / m)!r} AS DOUBLE)"


def _hll_est_expr(m: int) -> str:
    """Estimate CASE expr over a stats cte exposing (s, zeros) — the
    _hll_estimate finalizer (ops/sketch.py:60): bias-corrected harmonic
    mean with the linear-counting small-range branch. int(round())
    absorbs summation-order float noise on both sides."""
    a = _hll_alpha(m)
    return (
        f"CASE WHEN ({a} * {m} * {m} / s) <= 2.5 * {m} AND zeros > 0 "
        f"THEN {m} * ln(CAST({m} AS DOUBLE) / zeros) "
        f"ELSE {a} * {m} * {m} / s END"
    )


def _hll_slots_sql(p: int, src="wh") -> str:
    """(w, idx, rank) from hashed words: idx = top p bits, rank =
    min(leading-zeros-of-remaining + 1, 64 - p + 1); bin() gives the
    exact bit length (no float log2)."""
    m = 1 << p
    cap = 64 - p + 1
    rest = _sql_mul64("H", m)
    return (
        f"slots AS (SELECT w, CAST(CAST(H AS UBIGINT) >> {64 - p} AS BIGINT) "
        f"AS idx, {rest} AS rest FROM {src}), "
        f"ranks AS (SELECT w, idx, CASE WHEN rest = 0 THEN {cap} ELSE "
        f"least(65 - length(bin(CAST(rest AS UBIGINT))), {cap}) END AS rank "
        "FROM slots)"
    )


def _sketch_oracles() -> dict[str, str]:
    """Exact SQL twins for the deterministic hash/sketch queries. Each
    replicates the engine's own hash bits (see the block comment above),
    so these are real oracles, not luck: SimHash banding is COMPLETE by
    pigeonhole (4 bands > 3 flipped bits), Misra-Gries with k=1024 over
    a 31-word vocabulary never evicts (exact by the MG guarantee), CMS /
    Bloom / HLL registers are reproduced bit-for-bit. minhash twins are
    brute-force shingle-Jaccard: LSH recall is verified 100% on this
    corpus (deterministic data -> stable); the exact-verify step already
    guarantees precision."""
    from ctinexus_ray.ops.sketch import _CMS_SEED

    oracles: dict[str, str] = {}
    exact_topk = (
        # identical to the similarity_topk twin: at this corpus the
        # candidate pool provably contains the true top-5 (SQ8/PQ exact
        # re-rank; NSW exhaustive-ef == brute force by construction) and
        # the final ranking is an exact-similarity re-rank with the same
        # (sim desc, neighbor_id) tie-break, so the approximate variants
        # ARE the exact answer here. ann_lsh stays rows-only: its bucket
        # recall is genuinely < 1.
        "WITH q AS (SELECT vec_id, embedding FROM embeddings "
        "WHERE vec_id < 10), "
        "pairs AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
        "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
        "CAST(e.embedding AS DOUBLE[])) AS sim "
        "FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.vec_id) "
        "SELECT query_id, rank, neighbor_id FROM ("
        "SELECT query_id, neighbor_id, row_number() OVER ("
        "PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank "
        "FROM pairs) WHERE rank <= 5"
    )
    oracles["ann_sq"] = exact_topk
    oracles["ann_nsw"] = exact_topk
    oracles["ann_pq"] = exact_topk
    oracles["langid"] = _langid_oracle()
    oracles["winnow_fingerprints"] = _winnow_oracle()
    oracles["simhash"] = _simhash_sig_ctes() + " SELECT doc_id, simhash FROM sig"
    oracles["simhash_pairs"] = _simhash_sig_ctes() + (
        " SELECT s1.doc_id AS a, s2.doc_id AS b "
        "FROM sig s1 JOIN sig s2 ON s1.doc_id < s2.doc_id "
        "WHERE bit_count(xor(s1.simhash, s2.simhash)) <= 3"
    )
    oracles["minhash_pairs"] = "WITH " + _SHINGLE_JACCARD_CTES + (
        " SELECT a, b FROM ipairs "
        "JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b "
        "WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5"
    )
    oracles["minhash_keep"] = "WITH RECURSIVE " + _SHINGLE_JACCARD_CTES + (
        ", dup_pairs AS (SELECT a, b FROM ipairs "
        "JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b "
        "WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5), "
        "edges AS (SELECT a AS src, b AS dst FROM dup_pairs "
        "UNION ALL SELECT b, a FROM dup_pairs), "
        "reach(node, label) AS (SELECT src, src FROM edges "
        "UNION SELECT e.dst, r.label FROM reach r "
        "JOIN edges e ON e.src = r.node), "
        "comp AS (SELECT node, min(label) AS label FROM reach GROUP BY node) "
        "SELECT doc_id FROM documents WHERE doc_id NOT IN "
        "(SELECT node FROM comp WHERE node != label)"
    )
    oracles["cdc_chunk_stats"] = (
        "WITH RECURSIVE src AS (SELECT doc_id, text AS t FROM documents), "
        + _cdc_chunks_sql("src")
        + ", per AS (SELECT content, count(*) AS n, "
        "CAST(sum(length) AS BIGINT) AS raw, min(length) AS stored "
        "FROM chunks GROUP BY content) "
        "SELECT CAST(sum(n) AS BIGINT) AS n_chunks, "
        "count(*) AS n_distinct, CAST(sum(raw) AS BIGINT) AS raw_bytes, "
        "CAST(sum(stored) AS BIGINT) AS stored_bytes FROM per"
    )
    oracles["cdc_chunk_delta"] = (
        "WITH RECURSIVE oldsrc AS (SELECT doc_id, text AS t FROM documents "
        "WHERE doc_id % 7 != 0), "
        "newsrc AS (SELECT doc_id, text || CASE WHEN doc_id % 11 = 0 "
        "THEN '!' ELSE '' END AS t FROM documents WHERE doc_id % 5 != 0), "
        "allsrc AS (SELECT doc_id * 2 AS doc_id, t, 1 AS is_old FROM oldsrc "
        "UNION ALL SELECT doc_id * 2 + 1, t, 0 FROM newsrc), "
        + _cdc_chunks_sql("allsrc")
        + ", oldc AS (SELECT DISTINCT content FROM chunks "
        "WHERE doc_id % 2 = 0), "
        "newper AS (SELECT content, min(length) AS stored FROM chunks "
        "WHERE doc_id % 2 = 1 GROUP BY content), "
        "unseen AS (SELECT * FROM newper WHERE content NOT IN "
        "(SELECT content FROM oldc)) "
        "SELECT (SELECT count(*) FROM newper) AS new_distinct, "
        "(SELECT CAST(coalesce(sum(stored), 0) AS BIGINT) FROM newper) "
        "AS new_bytes, "
        "(SELECT count(*) FROM unseen) AS unseen_distinct, "
        "(SELECT CAST(coalesce(sum(stored), 0) AS BIGINT) FROM unseen) "
        "AS unseen_bytes"
    )
    oracles["top_words_by_lang_mg"] = (
        # grouped MG with k=256 >> this corpus's 31-word vocabulary:
        # summaries never compact, so per-group counts are exact
        "SELECT lang, value, n_est FROM ("
        "SELECT lang, w AS value, CAST(count(*) AS BIGINT) AS n_est, "
        "row_number() OVER (PARTITION BY lang ORDER BY count(*) DESC, w) "
        "AS rn FROM (SELECT lang, "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents WHERE text IS NOT NULL) GROUP BY lang, w) "
        "WHERE rn <= 5"
    )
    oracles["heavy_hitters"] = (
        # MG k=1024 >> 31 distinct words: summaries never compact, so the
        # sketch IS the exact count at this corpus's vocabulary size
        "SELECT word AS value, CAST(count(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
        "FROM documents) GROUP BY word ORDER BY n DESC, value LIMIT 50"
    )
    # CMS: registers reproduced bit-for-bit (width 4096, depth 4, seeds
    # splitmix64(d + _CMS_SEED)), estimate = min across depth rows
    cms_seeds = [_py_splitmix64(d + int(_CMS_SEED)) for d in range(4)]
    cms_body = (
        "WITH words AS (SELECT "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents), "
        "wc AS (SELECT w, CAST(count(*) AS BIGINT) AS n FROM words "
        "GROUP BY w), "
        "dw AS (SELECT DISTINCT w FROM wc), "
        + _hash64_words_sql()
        + ", dseed AS (SELECT unnest([0, 1, 2, 3]) AS d, "
        f"unnest({cms_seeds}) AS sd), "
        "hx2 AS (SELECT w, d, CAST(xor(CAST(H AS UBIGINT), "
        "CAST(sd AS UBIGINT)) AS HUGEINT) AS xr FROM wh, dseed)"
    )
    part, final = _sql_splitmix64_ctes("hx2", ["w", "d"], "xr", "y", "cm")
    oracles["cms_word_counts"] = (
        cms_body + part
        + f", idx AS (SELECT w, d, CAST(y % 4096 AS BIGINT) AS i "
        f"FROM {final}), "
        "reg AS (SELECT idx.d, idx.i, CAST(sum(wc.n) AS BIGINT) AS v "
        "FROM idx JOIN wc USING (w) GROUP BY idx.d, idx.i), "
        "probes AS (SELECT w FROM wc ORDER BY n DESC, w LIMIT 20) "
        "SELECT p.w AS value, CAST(min(r.v) AS BIGINT) AS n_est "
        "FROM probes p JOIN idx ON idx.w = p.w "
        "JOIN reg r ON r.d = idx.d AND r.i = idx.i GROUP BY p.w"
    )
    # Bloom (m=2^23, k=4, Kirsch-Mitzenmacher double hashing — the
    # _bloom_positions constants, ops/sketch.py:198)
    bloom_body = (
        "WITH fps AS (SELECT doc_id, md5(lower(trim(text))) AS fp "
        "FROM documents), "
        "dw AS (SELECT DISTINCT fp AS w FROM fps), "
        + _hash64_words_sql()
        + ", h2x AS (SELECT w, H, CAST(xor(CAST(H AS UBIGINT), "
        f"CAST({0xA0761D6478BD642F} AS UBIGINT)) AS HUGEINT) AS h2raw "
        "FROM wh)"
    )
    part, final = _sql_splitmix64_ctes("h2x", ["w", "H"], "h2raw", "h2pre", "bl")
    oracles["bloom_incremental"] = (
        bloom_body + part
        + f", bsec AS (SELECT w, H, CAST(CAST(h2pre AS UBIGINT) | 1 "
        f"AS HUGEINT) AS h2 FROM {final}), "
        f"posn AS (SELECT w, CAST(((H + i * h2) % {_M64}) % {1 << 23} "
        "AS BIGINT) AS pos "
        "FROM bsec, LATERAL (SELECT unnest([0, 1, 2, 3]) AS i) u), "
        "evenpos AS (SELECT DISTINCT pos FROM posn "
        "JOIN fps ON fps.fp = posn.w WHERE fps.doc_id % 2 = 0) "
        "SELECT f.doc_id, f.fp FROM fps f WHERE f.doc_id % 2 = 1 "
        "AND EXISTS (SELECT 1 FROM posn p WHERE p.w = f.fp "
        "AND p.pos NOT IN (SELECT pos FROM evenpos))"
    )
    # HLL twins: registers bit-identical; int(round()) on both sides
    # absorbs summation-order float noise in the harmonic mean
    oracles["distinct_words_approx"] = (
        "WITH words AS (SELECT "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents), "
        "dw AS (SELECT DISTINCT w FROM words), "
        + _hash64_words_sql()
        + ", " + _hll_slots_sql(14)
        + ", regmax AS (SELECT idx, max(rank) AS r FROM ranks GROUP BY idx), "
        f"allreg AS (SELECT g.idx, coalesce(m.r, 0) AS r FROM "
        f"(SELECT unnest(generate_series(0, {_HLL_P14_M - 1})) AS idx) g "
        "LEFT JOIN regmax m ON m.idx = g.idx), "
        "stats AS (SELECT sum(power(2.0, -r)) AS s, "
        "count(*) FILTER (r = 0) AS zeros FROM allreg) "
        f"SELECT CAST(round({_hll_est_expr(_HLL_P14_M)}) AS BIGINT) "
        "AS approx_distinct FROM stats"
    )

    def overlap_side(tag, member):
        return (
            f", regmax_{tag} AS (SELECT idx, max(rank) AS r FROM ranks "
            f"JOIN {member} USING (w) GROUP BY idx), "
            f"allreg_{tag} AS (SELECT g.idx, coalesce(m.r, 0) AS r FROM "
            f"(SELECT unnest(generate_series(0, {_HLL_P14_M - 1})) AS idx) g "
            f"LEFT JOIN regmax_{tag} m ON m.idx = g.idx), "
            f"stats_{tag} AS (SELECT sum(power(2.0, -r)) AS s, "
            f"count(*) FILTER (r = 0) AS zeros FROM allreg_{tag}), "
            f"est_{tag} AS (SELECT {_hll_est_expr(_HLL_P14_M)} AS est "
            f"FROM stats_{tag})"
        )

    oracles["vocab_overlap_hll"] = (
        "WITH wa AS (SELECT DISTINCT "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents WHERE lang = 'en'), "
        "wb AS (SELECT DISTINCT "
        "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
        "FROM documents WHERE lang = 'de'), "
        "dw AS (SELECT w FROM wa UNION SELECT w FROM wb), "
        "wu AS (SELECT w FROM dw), "
        + _hash64_words_sql()
        + ", " + _hll_slots_sql(14)
        + overlap_side("a", "wa")
        + overlap_side("b", "wb")
        + overlap_side("u", "wu")
        + ", ests AS (SELECT ea.est AS a, eb.est AS b, eu.est AS u "
        "FROM est_a ea, est_b eb, est_u eu) "
        "SELECT 'distinct_left' AS op, CAST(round(a) AS BIGINT) AS approx "
        "FROM ests "
        "UNION ALL SELECT 'distinct_right', CAST(round(b) AS BIGINT) FROM ests "
        "UNION ALL SELECT 'union', CAST(round(u) AS BIGINT) FROM ests "
        "UNION ALL SELECT 'intersect', "
        "CAST(round(greatest(0.0, a + b - u)) AS BIGINT) FROM ests "
        "UNION ALL SELECT 'except_left', "
        "CAST(round(greatest(0.0, u - b)) AS BIGINT) FROM ests "
        "UNION ALL SELECT 'except_right', "
        "CAST(round(greatest(0.0, u - a)) AS BIGINT) FROM ests"
    )
    grouped_est = _hll_est_expr(_HLL_P12_M)
    oracles["distinct_users_hll"] = (
        "WITH pairs AS (SELECT DISTINCT event_type, "
        "CAST(user_id AS VARCHAR) AS w FROM events), "
        "dw AS (SELECT DISTINCT w FROM pairs), "
        + _hash64_words_sql()
        + ", " + _hll_slots_sql(12)
        + ", regmax3 AS (SELECT p.event_type, r.idx, max(r.rank) AS r "
        "FROM ranks r JOIN pairs p USING (w) GROUP BY p.event_type, r.idx), "
        "types AS (SELECT DISTINCT event_type FROM events), "
        f"allreg3 AS (SELECT t.event_type, g.idx, coalesce(m.r, 0) AS r "
        f"FROM types t CROSS JOIN "
        f"(SELECT unnest(generate_series(0, {_HLL_P12_M - 1})) AS idx) g "
        "LEFT JOIN regmax3 m ON m.event_type = t.event_type "
        "AND m.idx = g.idx), "
        "stats3 AS (SELECT event_type, sum(power(2.0, -r)) AS s, "
        "count(*) FILTER (r = 0) AS zeros FROM allreg3 GROUP BY event_type) "
        f"SELECT event_type, CAST(round({grouped_est.replace('FROM stats', '')}) "
        "AS BIGINT) AS approx_distinct FROM stats3"
    )
    oracles["ivm_distinct_users"] = (
        "WITH dw AS (SELECT DISTINCT CAST(user_id AS VARCHAR) AS w "
        "FROM events), "
        + _hash64_words_sql()
        + ", " + _hll_slots_sql(12)
        + ", regmax3 AS (SELECT idx, max(rank) AS r FROM ranks "
        "GROUP BY idx), "
        f"allreg3 AS (SELECT g.idx, coalesce(m.r, 0) AS r FROM "
        f"(SELECT unnest(generate_series(0, {_HLL_P12_M - 1})) AS idx) g "
        "LEFT JOIN regmax3 m ON m.idx = g.idx), "
        "stats AS (SELECT sum(power(2.0, -r)) AS s, "
        "count(*) FILTER (r = 0) AS zeros FROM allreg3) "
        f"SELECT CAST(round({_hll_est_expr(_HLL_P12_M)}) AS BIGINT) "
        "AS approx_distinct_users FROM stats"
    )
    return oracles


def oracle_sql() -> dict[str, str]:
    return {
        "doc_stats_by_lang": (
            "SELECT lang, count(*) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS total_chars "
            "FROM documents GROUP BY lang"
        ),
        "top_docs_by_chars": (
            "SELECT doc_id, n_chars FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 20"
        ),
        "token_counts": (
            "SELECT doc_id, len(regexp_split_to_array(trim(text), '\\s+')) "
            "AS n_tokens FROM documents"
        ),
        # the BPE pretokenizer pattern is RE2-compatible by construction;
        # single quotes doubled for the SQL literal
        "token_counts_bpe": (
            "SELECT doc_id, len(regexp_extract_all(text, "
            "'''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s]+|\\s+"
            "')) AS n_bpe_tokens FROM documents"
        ),
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id, count(*) AS n_dups "
            "FROM documents GROUP BY text"
        ),
        "doc_fingerprints": (
            "SELECT doc_id, md5(lower(trim(text))) AS fp FROM documents"
        ),
        "quality_scores": (
            "SELECT doc_id, length(text) AS n_chars, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
            "len(list_distinct(list_transform("
            "regexp_split_to_array(trim(text), '\\s+'), x -> lower(x)))) "
            "AS n_unique_words, "
            "length(regexp_replace(text, '[\\w\\s]', '', 'g')) AS n_punct "
            "FROM documents"
        ),
        # chunk starts are 0, 300, 600, ... strictly below length(text);
        # substr is 1-based in SQL
        "doc_chunks": (
            "SELECT doc_id, CAST(i AS BIGINT) AS chunk_id, "
            "substr(text, CAST(i * 300 + 1 AS INT), 400) AS chunk "
            "FROM documents, LATERAL ("
            "SELECT unnest(range(0, "
            "CAST(ceil(length(text) / 300.0) AS BIGINT))) AS i) "
            "WHERE i * 300 < length(text)"
        ),
        "gopher_quality": (
            "SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
            "(length(trim(text)) - length(regexp_replace(trim(text), "
            "'\\S', '', 'g'))) "
            "/ CAST(len(regexp_split_to_array(trim(text), '\\s+')) "
            "AS DOUBLE) AS mean_word_len, "
            "CASE WHEN length(text) = 0 THEN 0.0 ELSE "
            "length(regexp_replace(text, '[^A-Za-z]', '', 'g')) "
            "/ CAST(length(text) AS DOUBLE) END AS alpha_ratio, "
            "(len(regexp_split_to_array(trim(text), '\\s+')) BETWEEN 50 "
            "AND 100000) "
            "AND ((length(trim(text)) - length(regexp_replace(trim(text), "
            "'\\S', '', 'g'))) "
            "/ CAST(len(regexp_split_to_array(trim(text), '\\s+')) "
            "AS DOUBLE) BETWEEN 3.0 AND 10.0) "
            "AND (CASE WHEN length(text) = 0 THEN 0.0 ELSE "
            "length(regexp_replace(text, '[^A-Za-z]', '', 'g')) "
            "/ CAST(length(text) AS DOUBLE) END > 0.6) AS keep "
            "FROM documents"
        ),
        "pack_sequences": (
            "WITH toks AS (SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens "
            "FROM documents) "
            "SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens, "
            "CAST((sum(n_tokens) OVER (ORDER BY doc_id "
            "ROWS UNBOUNDED PRECEDING) - n_tokens) // 2048 AS BIGINT) "
            "AS pack_id FROM toks"
        ),
        "leakage_safe_split": (
            "SELECT doc_id, source, CASE "
            "WHEN CAST(concat('0x', substr(md5(source), 1, 8)) AS UBIGINT) "
            "% 100 < 10 THEN 'test' "
            "WHEN CAST(concat('0x', substr(md5(source), 1, 8)) AS UBIGINT) "
            "% 100 < 20 THEN 'val' "
            "ELSE 'train' END AS split FROM documents"
        ),
        "bigram_freq_top100": (
            "WITH w AS (SELECT regexp_split_to_array(trim(text), '\\s+') "
            "AS ws FROM documents) "
            "SELECT ws[CAST(i AS INT)] || ' ' || ws[CAST(i + 1 AS INT)] "
            "AS bigram, count(*) AS n "
            "FROM w, LATERAL (SELECT unnest(range(1, len(ws))) AS i) "
            "GROUP BY bigram ORDER BY n DESC, bigram LIMIT 100"
        ),
        "tfidf_top_terms": (
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents), "
            "tf AS (SELECT doc_id, word, count(*) AS tf FROM words "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS df FROM tf GROUP BY word), "
            "n AS (SELECT count(*) AS n FROM documents), "
            "scored AS (SELECT tf.doc_id, tf.word, "
            "tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS score "
            "FROM tf, df, n WHERE tf.word = df.word), "
            "ranked AS (SELECT doc_id, word, score, "
            "row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, word) AS rn FROM scored) "
            "SELECT doc_id, CAST(rn AS BIGINT) AS rn, word, score "
            "FROM ranked WHERE rn <= 5"
        ),
        "bm25_topk": (
            # expression order mirrors ops/textstats.py bm25_topk_docs
            # exactly (micro-quantized per-term scores -> BIGINT sum)
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents), "
            "dl AS (SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS dl "
            "FROM documents), "
            "n AS (SELECT count(*) AS n, "
            "CAST(SUM(len(regexp_split_to_array(trim(text), '\\s+'))) "
            "AS DOUBLE) / count(*) AS avgdl FROM documents), "
            "tf AS (SELECT doc_id, word, count(*) AS tf FROM words "
            "WHERE word IN ('hash', 'join', 'vector') "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS df FROM tf GROUP BY word), "
            "scored AS (SELECT tf.doc_id, CAST(FLOOR("
            "ln(1.0 + (n.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.5 + 1.0)) "
            "/ (tf.tf + 1.5 * ((1.0 - 0.75) + (0.75 * dl.dl) / n.avgdl)) "
            "* 1000000.0 + 0.5) AS BIGINT) AS micro "
            "FROM tf, df, dl, n "
            "WHERE tf.word = df.word AND tf.doc_id = dl.doc_id), "
            "per_doc AS (SELECT doc_id, CAST(SUM(micro) AS BIGINT) AS "
            "score_micro FROM scored GROUP BY doc_id), "
            "ranked AS (SELECT doc_id, score_micro, row_number() OVER "
            "(ORDER BY score_micro DESC, doc_id) AS rn FROM per_doc) "
            "SELECT CAST(rn AS BIGINT) AS rn, doc_id, score_micro "
            "FROM ranked WHERE rn <= 20"
        ),
        "text_index_and": (
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents) "
            "SELECT doc_id FROM words "
            "WHERE word IN ('hash', 'join', 'vector') "
            "GROUP BY doc_id HAVING count(DISTINCT word) = 3"
        ),
        "text_index_bm25": (
            # expression order mirrors ops/textstats.py bm25_topk_docs
            # exactly (micro-quantized per-term scores -> BIGINT sum)
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents), "
            "dl AS (SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS dl "
            "FROM documents), "
            "n AS (SELECT count(*) AS n, "
            "CAST(SUM(len(regexp_split_to_array(trim(text), '\\s+'))) "
            "AS DOUBLE) / count(*) AS avgdl FROM documents), "
            "tf AS (SELECT doc_id, word, count(*) AS tf FROM words "
            "WHERE word IN ('hash', 'join', 'vector') "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS df FROM tf GROUP BY word), "
            "scored AS (SELECT tf.doc_id, CAST(FLOOR("
            "ln(1.0 + (n.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.5 + 1.0)) "
            "/ (tf.tf + 1.5 * ((1.0 - 0.75) + (0.75 * dl.dl) / n.avgdl)) "
            "* 1000000.0 + 0.5) AS BIGINT) AS micro "
            "FROM tf, df, dl, n "
            "WHERE tf.word = df.word AND tf.doc_id = dl.doc_id), "
            "per_doc AS (SELECT doc_id, CAST(SUM(micro) AS BIGINT) AS "
            "score_micro FROM scored GROUP BY doc_id), "
            "ranked AS (SELECT doc_id, score_micro, row_number() OVER "
            "(ORDER BY score_micro DESC, doc_id) AS rn FROM per_doc) "
            "SELECT CAST(rn AS BIGINT) AS rn, doc_id, score_micro "
            "FROM ranked WHERE rn <= 20"
        ),
        # the bm25 pipeline verbatim, over the keep-first dedup
        # SURVIVORS — what the index must equal after the delete tick
        "text_index_delete": (
            "WITH surv AS (SELECT doc_id, text FROM documents "
            "WHERE doc_id IN "
            "(SELECT min(doc_id) FROM documents GROUP BY text)), "
            "words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM surv), "
            "dl AS (SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS dl "
            "FROM surv), "
            "n AS (SELECT count(*) AS n, "
            "CAST(SUM(len(regexp_split_to_array(trim(text), '\\s+'))) "
            "AS DOUBLE) / count(*) AS avgdl FROM surv), "
            "tf AS (SELECT doc_id, word, count(*) AS tf FROM words "
            "WHERE word IN ('hash', 'join', 'vector') "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS df FROM tf GROUP BY word), "
            "scored AS (SELECT tf.doc_id, CAST(FLOOR("
            "ln(1.0 + (n.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.5 + 1.0)) "
            "/ (tf.tf + 1.5 * ((1.0 - 0.75) + (0.75 * dl.dl) / n.avgdl)) "
            "* 1000000.0 + 0.5) AS BIGINT) AS micro "
            "FROM tf, df, dl, n "
            "WHERE tf.word = df.word AND tf.doc_id = dl.doc_id), "
            "per_doc AS (SELECT doc_id, CAST(SUM(micro) AS BIGINT) AS "
            "score_micro FROM scored GROUP BY doc_id), "
            "ranked AS (SELECT doc_id, score_micro, row_number() OVER "
            "(ORDER BY score_micro DESC, doc_id) AS rn FROM per_doc) "
            "SELECT CAST(rn AS BIGINT) AS rn, doc_id, score_micro "
            "FROM ranked WHERE rn <= 20"
        ),
        "hybrid_retrieval": (
            # lexical leg = the bm25_topk pipeline above at rn <= 25;
            # semantic leg mirrors similarity_topk for query vec_id 0;
            # fusion is pure integer 10^12 // (60 + rank) per leg
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents), "
            "dl AS (SELECT doc_id, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS dl "
            "FROM documents), "
            "n AS (SELECT count(*) AS n, "
            "CAST(SUM(len(regexp_split_to_array(trim(text), '\\s+'))) "
            "AS DOUBLE) / count(*) AS avgdl FROM documents), "
            "tf AS (SELECT doc_id, word, count(*) AS tf FROM words "
            "WHERE word IN ('hash', 'join', 'vector') "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS df FROM tf GROUP BY word), "
            "scored AS (SELECT tf.doc_id, CAST(FLOOR("
            "ln(1.0 + (n.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.5 + 1.0)) "
            "/ (tf.tf + 1.5 * ((1.0 - 0.75) + (0.75 * dl.dl) / n.avgdl)) "
            "* 1000000.0 + 0.5) AS BIGINT) AS micro "
            "FROM tf, df, dl, n "
            "WHERE tf.word = df.word AND tf.doc_id = dl.doc_id), "
            "per_doc AS (SELECT doc_id, CAST(SUM(micro) AS BIGINT) AS "
            "score_micro FROM scored GROUP BY doc_id), "
            "lex AS (SELECT doc_id, row_number() OVER "
            "(ORDER BY score_micro DESC, doc_id) AS rn FROM per_doc), "
            "semp AS (SELECT e.vec_id AS neighbor_id, "
            "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
            "CAST(e.embedding AS DOUBLE[])) AS sim "
            "FROM embeddings e, embeddings q "
            "WHERE q.vec_id = 0 AND e.vec_id <> 0), "
            "sem AS (SELECT neighbor_id, row_number() OVER "
            "(ORDER BY sim DESC, neighbor_id) AS rank FROM semp), "
            "pts AS (SELECT doc_id, 1000000000000 // (60 + rn) AS pts "
            "FROM lex WHERE rn <= 25 "
            "UNION ALL SELECT neighbor_id, 1000000000000 // (60 + rank) "
            "FROM sem WHERE rank <= 25), "
            "fused AS (SELECT doc_id, CAST(sum(pts) AS BIGINT) AS "
            "rrf_score, CAST(count(*) AS BIGINT) AS n_legs FROM pts "
            "GROUP BY doc_id), "
            "ranked AS (SELECT doc_id, rrf_score, n_legs, row_number() "
            "OVER (ORDER BY rrf_score DESC, doc_id) AS rn FROM fused) "
            "SELECT CAST(rn AS BIGINT) AS rn, doc_id, rrf_score, n_legs "
            "FROM ranked WHERE rn <= 20"
        ),
        "dedup_incremental": (
            "WITH fps AS (SELECT doc_id, md5(lower(trim(text))) AS fp "
            "FROM documents) "
            "SELECT doc_id, fp FROM fps WHERE doc_id % 2 = 1 "
            "AND fp NOT IN (SELECT fp FROM fps WHERE doc_id % 2 = 0)"
        ),
        "distinct_words_exact": (
            "SELECT count(DISTINCT word) AS n_distinct FROM ("
            "SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents)"
        ),
        "vocab_overlap_exact": (
            "WITH a AS (SELECT DISTINCT unnest("
            "regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents WHERE lang = 'en'), "
            "b AS (SELECT DISTINCT unnest("
            "regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents WHERE lang = 'de') "
            "SELECT 'union' AS op, CAST((SELECT count(*) FROM "
            "(SELECT w FROM a UNION SELECT w FROM b)) AS BIGINT) AS n "
            "UNION ALL SELECT 'intersect', CAST((SELECT count(*) FROM "
            "(SELECT w FROM a INTERSECT SELECT w FROM b)) AS BIGINT) "
            "UNION ALL SELECT 'except_left', CAST((SELECT count(*) FROM "
            "(SELECT w FROM a EXCEPT SELECT w FROM b)) AS BIGINT) "
            "UNION ALL SELECT 'except_right', CAST((SELECT count(*) FROM "
            "(SELECT w FROM b EXCEPT SELECT w FROM a)) AS BIGINT)"
        ),
        "word_freq_top100": (
            "SELECT word, count(*) AS n FROM ("
            "SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents) GROUP BY word ORDER BY n DESC, word LIMIT 100"
        ),
        "similarity_topk": (
            "WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 10), "
            "pairs AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
            "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
            "CAST(e.embedding AS DOUBLE[])) AS sim "
            "FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.vec_id) "
            "SELECT query_id, rank, neighbor_id FROM ("
            "SELECT query_id, neighbor_id, row_number() OVER ("
            "PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank "
            "FROM pairs) WHERE rank <= 5"
        ),
        # full-probe IVF reproduces the exact cosine ranking, so the
        # brute-force oracle applies verbatim
        "ann_ivf": (
            "WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 10), "
            "pairs AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
            "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
            "CAST(e.embedding AS DOUBLE[])) AS sim "
            "FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.vec_id) "
            "SELECT query_id, rank, neighbor_id FROM ("
            "SELECT query_id, neighbor_id, row_number() OVER ("
            "PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank "
            "FROM pairs) WHERE rank <= 5"
        ),
        # full-probe over the post-delete index == brute force over the
        # survivors (vec_id % 3 <> 0); queries stay the external vectors
        "ann_ivf_delete": (
            "WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 10), "
            "pairs AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
            "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
            "CAST(e.embedding AS DOUBLE[])) AS sim "
            "FROM q CROSS JOIN embeddings e "
            "WHERE e.vec_id % 3 <> 0 AND e.vec_id <> q.vec_id) "
            "SELECT query_id, rank, neighbor_id FROM ("
            "SELECT query_id, neighbor_id, row_number() OVER ("
            "PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank "
            "FROM pairs) WHERE rank <= 5"
        ),
        "ngram_jaccard_pairs": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "eligible AS (SELECT * FROM words WHERE len(w) >= 3), "
            "shingles AS (SELECT DISTINCT doc_id, "
            "w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 2)) AS i) t), "
            "sizes AS (SELECT doc_id, count(*) AS sz FROM shingles GROUP BY doc_id), "
            "inter AS (SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS ix "
            "FROM shingles s1 JOIN shingles s2 ON s1.shingle = s2.shingle "
            "AND s1.doc_id < s2.doc_id GROUP BY 1, 2) "
            "SELECT a, b FROM inter "
            "JOIN sizes sa ON sa.doc_id = inter.a "
            "JOIN sizes sb ON sb.doc_id = inter.b "
            "WHERE CAST(ix AS DOUBLE) / (sa.sz + sb.sz - ix) >= 0.5"
        ),
        "embedding_neardup": (
            "SELECT a.vec_id AS a, b.vec_id AS b FROM embeddings a "
            "JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.35"
        ),
        "corpus_clean": (
            "SELECT min(doc_id) AS doc_id FROM documents "
            "WHERE len(regexp_split_to_array(trim(text), '\\s+')) >= 5 "
            "GROUP BY text"
        ),
        "events_hourly": (
            "SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_ts, "
            "event_type, count(*) AS n_events FROM events GROUP BY 1, 2"
        ),
        "event_sessions": (
            "WITH ordered AS (SELECT user_id, ts, lag(ts) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS prev FROM events) "
            "SELECT user_id, CAST(count(CASE WHEN prev IS NULL "
            "OR epoch(ts) - epoch(prev) > 1800 THEN 1 END) AS BIGINT) "
            "AS n_sessions, count(*) AS n_events FROM ordered GROUP BY user_id"
        ),
        "orders_per_customer": (
            "SELECT o_custkey AS key, c_mktsegment, count(*) AS n "
            "FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey "
            "GROUP BY 1, 2"
        ),
        "lineitem_status_counts": (
            "SELECT l_returnflag, l_linestatus, count(*) AS n_items, "
            "CAST(sum(l_linenumber) AS BIGINT) AS sum_linenumber "
            "FROM lineitem GROUP BY 1, 2"
        ),
        "customers_per_region": (
            "SELECT r_name, count(*) AS n_customers "
            "FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "JOIN region r ON n.n_regionkey = r.r_regionkey GROUP BY r_name"
        ),
        "top_suppliers_by_lineitems": (
            "SELECT l_suppkey AS key, s_name, count(*) AS n "
            "FROM lineitem l JOIN supplier s ON s.s_suppkey = l.l_suppkey "
            "GROUP BY 1, 2 ORDER BY n DESC, key LIMIT 10"
        ),
        "orders_customer_join": (
            "SELECT o_custkey, o_orderkey, o_totalprice, c_name, c_mktsegment "
            "FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey"
        ),
        # connected components of the exact ngram-Jaccard duplicate graph:
        # transitive closure via a recursive CTE, min label per node
        "dup_components": (
            _DUP_CC_SQL_BODY
            + " SELECT node, min(label) AS label FROM reach GROUP BY node"
        ),
        "dedup_keep_best": (
            _DUP_CC_SQL_BODY
            + ", comp AS (SELECT node, min(label) AS label "
            "FROM reach GROUP BY node), "
            "best AS (SELECT d.doc_id, row_number() OVER ("
            "PARTITION BY c.label ORDER BY d.n_chars DESC, d.doc_id ASC) "
            "AS rn FROM comp c JOIN documents d ON d.doc_id = c.node) "
            "SELECT doc_id FROM best WHERE rn = 1 "
            "UNION ALL SELECT doc_id FROM documents "
            "WHERE doc_id NOT IN (SELECT node FROM comp)"
        ),
        "top_orders_per_customer": (
            "SELECT o_custkey, rn, o_orderkey, o_totalprice FROM ("
            "SELECT o_custkey, o_orderkey, o_totalprice, row_number() OVER ("
            "PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey"
            ") AS rn FROM orders) WHERE rn <= 3"
        ),
        "events_asof_purchase": (
            "SELECT c.event_id, c.user_id, epoch_us(c.ts) AS ts_us, "
            "c.value AS click_value, p.event_id AS purchase_event_id, "
            "p.value AS purchase_value "
            "FROM (SELECT * FROM events WHERE event_type = 'click') c "
            "ASOF LEFT JOIN "
            "(SELECT * FROM events WHERE event_type = 'purchase') p "
            "ON c.user_id = p.user_id AND c.ts >= p.ts"
        ),
        # quantile_disc requires constant parameters -> one leg per q
        "doc_len_quantiles": (
            " UNION ALL ".join(
                f"SELECT CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value "
                "FROM documents"
                for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
            )
        ),
        "tpch_q3_topk": (
            "SELECT l_orderkey, o_orderdate, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1998-06-01' "
            "AND l_shipdate > TIMESTAMP '1998-06-01' "
            "GROUP BY l_orderkey, o_orderdate "
            "ORDER BY revenue_cents DESC, l_orderkey LIMIT 10"
        ),
        "event_windows": (
            "SELECT event_id, user_id, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) "
            "AS rolling_cents, "
            "coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id), -1) AS gap_us "
            "FROM events"
        ),
        "doc_sample": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE CAST(concat('0x', substr("
            "md5(concat('sample', CAST(doc_id AS VARCHAR))), 1, 8)) "
            "AS UBIGINT) % 100 < 5"
        ),
        "decontaminate": (
            "WITH tok AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "ng AS (SELECT doc_id, "
            "array_to_string(list_slice(w, i, i + 7), ' ') AS g "
            "FROM tok, UNNEST(range(1, len(w) - 6)) AS t(i) "
            "WHERE len(w) >= 8), "
            "bench AS (SELECT DISTINCT g FROM ng WHERE doc_id % 50 = 0), "
            "hits AS (SELECT DISTINCT n.doc_id FROM ng n "
            "JOIN bench b USING (g) WHERE n.doc_id % 50 <> 0) "
            "SELECT d.doc_id, (h.doc_id IS NOT NULL) AS contaminated "
            "FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id "
            "WHERE d.doc_id % 50 <> 0"
        ),
        "suppliers_with_returns": (
            "SELECT s_suppkey, s_name FROM supplier s "
            "WHERE EXISTS (SELECT 1 FROM lineitem "
            "WHERE l_suppkey = s_suppkey AND l_returnflag = 'R')"
        ),
        "pagerank": _pagerank_oracle_sql(),
        "pagerank_personalized": _ppr_oracle_sql(),
        "hits_trade": _hits_oracle_sql(),
        "lineitem_corr": _LINEITEM_CORR_SQL,
        "doc_len_quantiles_cont": _doc_len_quantiles_cont_sql(),
        "sorted_neighborhood": (
            "WITH r AS (SELECT doc_id, row_number() OVER "
            "(ORDER BY n_chars, doc_id) AS rn FROM documents) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(b.rn - a.rn AS BIGINT) AS gap "
            "FROM r a JOIN r b ON b.rn > a.rn AND b.rn - a.rn < 3"
        ),
        "repetition_stats": (
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents), "
            "wc AS (SELECT doc_id, w, count(*) AS c FROM words "
            "GROUP BY doc_id, w), "
            "tot AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words, "
            "CAST(count(*) AS BIGINT) AS n_distinct, "
            "CAST(sum(len(w) * c) AS BIGINT) AS char_total "
            "FROM wc GROUP BY doc_id), "
            "top AS (SELECT doc_id, w, c FROM "
            "(SELECT doc_id, w, c, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY c DESC, w ASC) AS rn FROM wc) "
            "WHERE rn = 1) "
            "SELECT t.doc_id, t.n_words, t.n_distinct, "
            "1.0 - t.n_distinct / CAST(t.n_words AS DOUBLE) "
            "AS dup_word_frac, top.w AS top_word, "
            "CASE WHEN t.char_total = 0 THEN 0.0 ELSE "
            "(top.c * len(top.w)) / CAST(t.char_total AS DOUBLE) END "
            "AS top_word_frac "
            "FROM tot t JOIN top ON t.doc_id = top.doc_id"
        ),
        "balanced_sample": (
            "WITH counts AS (SELECT source, count(*) AS cnt "
            "FROM documents GROUP BY source), "
            "mn AS (SELECT min(cnt) AS m FROM counts), "
            "thr AS (SELECT source, printf('%08x', CAST(least("
            "floor((CAST(mn.m AS DOUBLE) / cnt) * 4294967296.0), "
            "4294967295) AS BIGINT)) AS th FROM counts, mn) "
            "SELECT d.doc_id, d.source FROM documents d "
            "JOIN thr ON d.source = thr.source "
            "WHERE substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8) <= thr.th"
        ),
        "ranked_docs": (
            "SELECT doc_id, n_chars, CAST(row_number() OVER "
            "(ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS rank "
            "FROM documents"
        ),
        "temperature_sample": (
            "WITH counts AS (SELECT source, count(*) AS cnt "
            "FROM documents GROUP BY source), "
            "mn AS (SELECT min(cnt) AS m FROM counts), "
            "thr AS (SELECT source, printf('%08x', CAST(least("
            "floor(sqrt(CAST(mn.m AS DOUBLE) / cnt) * 4294967296.0), "
            "4294967295) AS BIGINT)) AS th FROM counts, mn) "
            "SELECT d.doc_id, d.source FROM documents d "
            "JOIN thr ON d.source = thr.source "
            "WHERE substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8) <= thr.th"
        ),
        "doc_sample_k": (
            "SELECT doc_id, source FROM documents "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)) LIMIT 100"
        ),
        "doc_len_histogram": (
            "SELECT n_chars // 500 AS bucket, count(*) AS n_docs "
            "FROM documents GROUP BY 1"
        ),
        "stratified_sample": (
            "WITH d AS (SELECT lang, doc_id, "
            "md5(CAST(doc_id AS VARCHAR)) AS digest FROM documents), "
            "ranked AS (SELECT lang, doc_id, digest, row_number() OVER ("
            "PARTITION BY lang ORDER BY digest DESC, doc_id) AS rn FROM d) "
            "SELECT lang, CAST(rn AS BIGINT) AS rn, doc_id, digest "
            "FROM ranked WHERE rn <= 10"
        ),
        "top_words_by_lang": (
            "WITH words AS (SELECT lang, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS word "
            "FROM documents), "
            "counts AS (SELECT lang, word, count(*) AS n FROM words "
            "GROUP BY lang, word), "
            "ranked AS (SELECT lang, word, n, row_number() OVER ("
            "PARTITION BY lang ORDER BY n DESC, word) AS rn FROM counts) "
            "SELECT lang, CAST(rn AS BIGINT) AS rn, word, n "
            "FROM ranked WHERE rn <= 5"
        ),
        "qty_price_corr": (
            "WITH q AS (SELECT CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x, "
            "CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS y "
            "FROM lineitem), "
            "s AS (SELECT count(*) AS n, CAST(sum(x) AS BIGINT) AS sx, "
            "CAST(sum(y) AS BIGINT) AS sy, CAST(sum(x * y) AS BIGINT) AS sxy, "
            "CAST(sum(x * x) AS BIGINT) AS sxx, "
            "CAST(sum(y * y) AS BIGINT) AS syy FROM q) "
            "SELECT n, (CAST(sxy AS DOUBLE) / n - (CAST(sx AS DOUBLE) / n) * "
            "(CAST(sy AS DOUBLE) / n)) / "
            "(sqrt(CAST(sxx AS DOUBLE) / n - (CAST(sx AS DOUBLE) / n) * "
            "(CAST(sx AS DOUBLE) / n)) * "
            "sqrt(CAST(syy AS DOUBLE) / n - (CAST(sy AS DOUBLE) / n) * "
            "(CAST(sy AS DOUBLE) / n))) AS corr FROM s"
        ),
        "doc_sample_weighted": (
            # n_chars > 0 mirrors the engine's A-ES eligibility rule:
            # non-positive weights have zero inclusion probability
            "SELECT doc_id, n_chars FROM documents WHERE n_chars > 0 "
            "ORDER BY pow(CAST(concat('0x', substr(md5(CAST(doc_id "
            "AS VARCHAR)), 1, 13)) AS UBIGINT) / 4503599627370496.0, "
            "1.0 / n_chars) DESC, doc_id LIMIT 50"
        ),
        "custkeys_without_orders": (
            "SELECT c_custkey AS custkey FROM customer "
            "EXCEPT SELECT o_custkey AS custkey FROM orders "
            "WHERE o_orderstatus = 'F'"
        ),
        "active_custkeys": (
            "SELECT c_custkey AS custkey FROM customer "
            "INTERSECT SELECT o_custkey AS custkey FROM orders"
        ),
        "lang_len_quantiles": (
            " UNION ALL ".join(
                f"SELECT lang, CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value "
                "FROM documents GROUP BY lang"
                for q in (0.25, 0.5, 0.75, 0.99)
            )
        ),
        "dup_graph_triangles": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "eligible AS (SELECT * FROM words WHERE len(w) >= 3), "
            "shingles AS (SELECT DISTINCT doc_id, "
            "w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 2)) AS i) t), "
            "sizes AS (SELECT doc_id, count(*) AS sz FROM shingles GROUP BY doc_id), "
            "inter AS (SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS ix "
            "FROM shingles s1 JOIN shingles s2 ON s1.shingle = s2.shingle "
            "AND s1.doc_id < s2.doc_id GROUP BY 1, 2), "
            "pairs AS (SELECT a, b FROM inter "
            "JOIN sizes sa ON sa.doc_id = inter.a "
            "JOIN sizes sb ON sb.doc_id = inter.b "
            "WHERE CAST(ix AS DOUBLE) / (sa.sz + sb.sz - ix) >= 0.5) "
            "SELECT CAST(count(*) AS BIGINT) AS n_triangles "
            "FROM pairs e1 JOIN pairs e2 ON e2.a = e1.b "
            "JOIN pairs e3 ON e3.a = e1.a AND e3.b = e2.b"
        ),
        "dup_graph_degrees": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "eligible AS (SELECT * FROM words WHERE len(w) >= 3), "
            "shingles AS (SELECT DISTINCT doc_id, "
            "w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 2)) AS i) t), "
            "sizes AS (SELECT doc_id, count(*) AS sz FROM shingles GROUP BY doc_id), "
            "inter AS (SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS ix "
            "FROM shingles s1 JOIN shingles s2 ON s1.shingle = s2.shingle "
            "AND s1.doc_id < s2.doc_id GROUP BY 1, 2), "
            "pairs AS (SELECT a, b FROM inter "
            "JOIN sizes sa ON sa.doc_id = inter.a "
            "JOIN sizes sb ON sb.doc_id = inter.b "
            "WHERE CAST(ix AS DOUBLE) / (sa.sz + sb.sz - ix) >= 0.5), "
            "nodes AS (SELECT a AS node FROM pairs "
            "UNION ALL SELECT b FROM pairs), "
            "deg AS (SELECT node, count(*) AS degree FROM nodes GROUP BY node) "
            "SELECT CAST(degree AS BIGINT) AS degree, "
            "CAST(count(*) AS BIGINT) AS n_nodes FROM deg GROUP BY degree"
        ),
        "perplexity_buckets": (
            "WITH words AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents), "
            "cnt AS (SELECT w, count(*) AS c FROM words GROUP BY w), "
            "tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM words), "
            "lm AS (SELECT w.doc_id, "
            "CAST(sum(CAST(FLOOR(ln(cnt.c / tot.n) * 1e6 + 0.5) AS BIGINT)) "
            "AS BIGINT) AS lm_score_u, "
            "CAST(sum(CAST(FLOOR(ln(cnt.c / tot.n) * 1e6 + 0.5) AS BIGINT)) "
            "AS DOUBLE) / 1e6 / count(*) AS lm_score "
            "FROM words w JOIN cnt ON w.w = cnt.w, tot GROUP BY w.doc_id), "
            "b AS (SELECT lm_score_u, NTILE(3) OVER "
            "(ORDER BY lm_score DESC, doc_id) AS bucket FROM lm) "
            "SELECT CAST(bucket AS BIGINT) AS bucket, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "min(lm_score_u) AS min_score_u, max(lm_score_u) AS max_score_u "
            "FROM b GROUP BY bucket"
        ),
        "dsir_weights": (
            "WITH words AS (SELECT doc_id, lang, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents), "
            "b AS (SELECT doc_id, lang, "
            "CAST(concat('0x', substr(md5(w), 1, 8)) AS UBIGINT) % 1024 AS bk "
            "FROM words), "
            "raw AS (SELECT bk, count(*) AS cr FROM b GROUP BY bk), "
            "tgt AS (SELECT bk, count(*) AS ct FROM b WHERE lang = 'en' "
            "GROUP BY bk), "
            "tr AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM b), "
            "tt AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM b "
            "WHERE lang = 'en'), "
            "lr AS (SELECT raw.bk, CAST(FLOOR(("
            "ln((coalesce(tgt.ct, 0) + 1) / (tt.n + 1024)) - "
            "ln((raw.cr + 1) / (tr.n + 1024))) * 1e6 + 0.5) AS BIGINT) AS lr_u "
            "FROM raw LEFT JOIN tgt ON raw.bk = tgt.bk, tr, tt) "
            "SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
            "CAST(sum(lr.lr_u) AS BIGINT) AS dsir_score_u, "
            "CAST(sum(lr.lr_u) AS DOUBLE) / 1e6 / count(*) AS dsir_score "
            "FROM b JOIN lr ON b.bk = lr.bk GROUP BY b.doc_id"
        ),
        "paragraph_dedup": (
            "WITH w AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS ws FROM documents), "
            "ch AS (SELECT doc_id, CAST(t.i AS BIGINT) AS chunk_idx, "
            "array_to_string(ws[(t.i*20+1):(t.i*20+20)], ' ') AS chunk "
            "FROM w, UNNEST(range(CAST(ceil(len(ws)/20.0) AS BIGINT))) "
            "AS t(i)), "
            "win AS (SELECT chunk, min(doc_id*1000000 + chunk_idx) AS ord "
            "FROM ch GROUP BY chunk), "
            "keep AS (SELECT ord // 1000000 AS doc_id, "
            "ord % 1000000 AS chunk_idx, chunk FROM win) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept, "
            "string_agg(chunk, ' ' ORDER BY chunk_idx) AS new_text "
            "FROM keep GROUP BY doc_id"
        ),
        "semdedup": (
            "SELECT x.vec_id, CAST(x.label AS BIGINT) AS cluster "
            "FROM embeddings x WHERE NOT EXISTS ("
            "SELECT 1 FROM embeddings y "
            "WHERE y.label = x.label AND y.vec_id < x.vec_id "
            "AND list_cosine_similarity(CAST(y.embedding AS DOUBLE[]), "
            "CAST(x.embedding AS DOUBLE[])) >= 0.3)"
        ),
        "name_match_pairs": (
            "SELECT a.c_custkey AS id_a, b.c_custkey AS id_b, "
            "CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1"
        ),
        "name_kcore": _kcore_oracle(),
        "name_lpa_communities": _lpa_oracle(),
        "event_gap_quantiles": (
            "WITH g AS (SELECT (epoch_us(ts) - LAG(epoch_us(ts)) OVER ("
            "PARTITION BY user_id ORDER BY epoch_us(ts), event_id)) "
            "// 1000000 AS gap_s FROM events), "
            "f AS (SELECT gap_s FROM g WHERE gap_s IS NOT NULL) "
            + " UNION ALL ".join(
                f"SELECT CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(gap_s, {q}) AS BIGINT) AS value "
                "FROM f"
                for q in (0.1, 0.5, 0.9, 0.99)
            )
        ),
        "streaming_join": (
            "SELECT l.user_id AS user_id, epoch_us(l.ts) AS view_ts, "
            "epoch_us(r.ts) AS purchase_ts "
            "FROM events l JOIN events r ON l.user_id = r.user_id "
            "AND l.event_type = 'view' AND r.event_type = 'purchase' "
            "AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) "
            "AND epoch_us(l.ts) + CAST(86400 AS BIGINT) * 1000000"
        ),
        "streaming_hourly": (
            "SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) "
            "AS hour_ts, event_type, count(*) AS n_events "
            "FROM events GROUP BY 1, 2"
        ),
        "vocab_growth": (
            "WITH arr AS (SELECT doc_id, regexp_split_to_array("
            "trim(text), '\\s+') AS a FROM documents), "
            "tok AS (SELECT doc_id, unnest(a) AS w, "
            "generate_subscripts(a, 1) AS pos FROM arr), "
            "base AS (SELECT doc_id, COALESCE(SUM(len(a)) OVER ("
            "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "1 PRECEDING), 0) AS b FROM arr), "
            "g AS (SELECT t.w, MIN(b.b + t.pos - 1) AS first "
            "FROM tok t JOIN base b USING (doc_id) GROUP BY t.w) "
            + " UNION ALL ".join(
                f"SELECT CAST({t} AS BIGINT) AS n_tokens, "
                f"CAST(count(*) FILTER (WHERE first < {t}) AS BIGINT) "
                "AS vocab FROM g"
                for t in _HEAPS_THRESHOLDS
            )
        ),
        "zipf_slope": (
            "WITH words AS (SELECT unnest(regexp_split_to_array("
            "trim(text), '\\s+')) AS word FROM documents), "
            "cnt AS (SELECT word, CAST(count(*) AS BIGINT) AS n "
            "FROM words GROUP BY word), "
            "ranked AS (SELECT n, row_number() OVER ("
            "ORDER BY n DESC, word ASC) AS r FROM cnt), "
            "q AS (SELECT CAST(FLOOR(ln(CAST(r AS DOUBLE)) * 1e3 + 0.5) "
            "AS BIGINT) AS x, "
            "CAST(FLOOR(ln(CAST(n AS DOUBLE)) * 1e3 + 0.5) AS BIGINT) "
            "AS y FROM ranked) "
            "SELECT CAST(count(*) AS BIGINT) AS n_words, "
            "CAST(count(*) * SUM(x * y) - SUM(x) * SUM(y) AS BIGINT) "
            "AS slope_num, "
            "CAST(count(*) * SUM(x * x) - SUM(x) * SUM(x) AS BIGINT) "
            "AS slope_den FROM q"
        ),
        "event_trigrams": (
            "WITH o AS (SELECT user_id, event_type AS e1, "
            "LEAD(event_type, 1) OVER w AS e2, "
            "LEAD(event_type, 2) OVER w AS e3 FROM events "
            "WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts, event_id)) "
            "SELECT e1, e2, e3, CAST(count(*) AS BIGINT) AS n FROM o "
            "WHERE e2 IS NOT NULL AND e3 IS NOT NULL GROUP BY 1, 2, 3"
        ),
        "churned_users": (
            "WITH b AS (SELECT MIN(epoch_us(ts)) AS lo, "
            "MAX(epoch_us(ts)) AS hi FROM events) "
            "SELECT user_id, CAST(MAX(epoch_us(ts)) AS BIGINT) AS last_us "
            "FROM events, b GROUP BY user_id, b.lo, b.hi "
            "HAVING MAX(epoch_us(ts)) < b.lo + (b.hi - b.lo) * 99 // 100"
        ),
        "funnel_windowed": (
            "SELECT DISTINCT v.user_id FROM events v "
            "JOIN events c ON c.user_id = v.user_id "
            "AND c.event_type = 'click' "
            "AND epoch_us(c.ts) > epoch_us(v.ts) "
            "JOIN events p ON p.user_id = v.user_id "
            "AND p.event_type = 'purchase' "
            "AND epoch_us(p.ts) > epoch_us(c.ts) "
            "AND epoch_us(p.ts) - epoch_us(v.ts) <= 86400000000 "
            "WHERE v.event_type = 'view'"
        ),
        "user_active_time": (
            "WITH e AS (SELECT user_id, epoch_us(ts) AS s, "
            "epoch_us(ts) + 300000000 AS e FROM events), "
            "m AS (SELECT user_id, s, e, MAX(e) OVER ("
            "PARTITION BY user_id ORDER BY s "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
            "AS prev_max FROM e), "
            "g AS (SELECT user_id, s, e, CASE WHEN prev_max IS NULL "
            "OR s > prev_max THEN 1 ELSE 0 END AS ni FROM m), "
            "i AS (SELECT user_id, s, e, SUM(ni) OVER ("
            "PARTITION BY user_id ORDER BY s "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS isl FROM g), "
            "p AS (SELECT user_id, isl, MIN(s) AS mn, MAX(e) AS mx "
            "FROM i GROUP BY user_id, isl) "
            "SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands, "
            "CAST(SUM(mx - mn) AS BIGINT) AS active_us "
            "FROM p GROUP BY user_id"
        ),
        "corpus_stats_monoid": (
            "SELECT CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
            "CAST(MIN(n_chars) AS BIGINT) AS min_chars, "
            "CAST(MAX(n_chars) AS BIGINT) AS max_chars FROM documents"
        ),
        "streaming_sliding": (
            "SELECT ((epoch_us(ts) // 1000000) // 900) * 900 - k * 900 "
            "AS window_start_s, count(*) AS n_events FROM events, "
            "LATERAL (SELECT unnest(range(4)) AS k) t GROUP BY 1"
        ),
        "streaming_sessions": (
            "WITH ordered AS (SELECT user_id, ts, lag(ts) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS prev "
            "FROM events) "
            "SELECT user_id, CAST(count(CASE WHEN prev IS NULL "
            "OR epoch(ts) - epoch(prev) > 1800 THEN 1 END) AS BIGINT) "
            "AS n_sessions, count(*) AS n_events "
            "FROM ordered GROUP BY user_id"
        ),
        "ab_chi2": (
            # & 1 matches the engine's pc.bit_wise_and for NEGATIVE ids
            # too (% 2 would emit -1 cohorts and diverge)
            "WITH c AS (SELECT user_id & 1 AS cohort, event_type, "
            "count(*) AS o FROM events WHERE user_id IS NOT NULL "
            "GROUP BY 1, 2), "
            "rt AS (SELECT cohort, CAST(SUM(o) AS BIGINT) AS rt "
            "FROM c GROUP BY cohort), "
            "ct AS (SELECT event_type, CAST(SUM(o) AS BIGINT) AS ct "
            "FROM c GROUP BY event_type), "
            "n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM events "
            "WHERE user_id IS NOT NULL) "
            "SELECT c.cohort, c.event_type, "
            "CAST((c.o * n.n - rt.rt * ct.ct) * "
            "(c.o * n.n - rt.rt * ct.ct) AS BIGINT) AS chi2_num, "
            "CAST(rt.rt * ct.ct * n.n AS BIGINT) AS chi2_den "
            "FROM c JOIN rt USING (cohort) "
            "JOIN ct USING (event_type), n"
        ),
        "events_user_join_auto": (
            "SELECT e.user_id, c.c_name, CAST(count(*) AS BIGINT) AS n "
            "FROM events e JOIN customer c ON e.user_id = c.c_custkey "
            "GROUP BY e.user_id, c.c_name"
        ),
        "events_fk_check": (
            "SELECT 'o_custkey->customer' AS rule, "
            "CAST(count(*) AS BIGINT) AS n_violations FROM orders "
            "WHERE o_custkey NOT IN (SELECT c_custkey FROM customer) "
            "OR o_custkey IS NULL "
            "UNION ALL SELECT 'user_id->customer', "
            "CAST(count(*) AS BIGINT) FROM events "
            "WHERE user_id NOT IN (SELECT c_custkey FROM customer) "
            "OR user_id IS NULL"
        ),
        "orders_dq_unique": (
            "SELECT 'o_orderkey:unique' AS rule, "
            "CAST(count(*) AS BIGINT) AS n_rows, "
            "CAST(count(*) - count(DISTINCT o_orderkey) AS BIGINT) "
            "AS n_violations FROM orders "
            "UNION ALL SELECT 'o_custkey,o_orderdate:unique', "
            "CAST(count(*) AS BIGINT), "
            "CAST(count(*) - count(DISTINCT (o_custkey, o_orderdate)) "
            "AS BIGINT) FROM orders"
        ),
        "lineitem_price_median": (
            "SELECT CAST(0.5 AS DOUBLE) AS q, "
            "CAST(quantile_disc(CAST(FLOOR(l_extendedprice * 100 + 0.5) "
            "AS BIGINT), 0.5) AS BIGINT) AS value FROM lineitem"
        ),
        "regex_extract": (
            "SELECT doc_id, CAST(generate_subscripts(m, 1) AS BIGINT) "
            "AS idx, unnest(m) AS match FROM (SELECT doc_id, "
            "regexp_extract_all(text, '[a-z]+a[a-z]*') AS m "
            "FROM documents)"
        ),
        "table_version_diff": (
            "WITH upd AS (SELECT doc_id, text || ' u' AS text "
            "FROM documents WHERE doc_id % 3 = 0), "
            "del AS (SELECT doc_id FROM documents WHERE doc_id % 30 = 1), "
            "ins AS (SELECT doc_id + 1000000 AS doc_id, "
            "'inserted' AS text FROM documents WHERE doc_id % 50 = 0), "
            "v2 AS (SELECT d.doc_id, COALESCE(u.text, d.text) AS text "
            "FROM documents d LEFT JOIN upd u USING (doc_id) "
            "WHERE d.doc_id NOT IN (SELECT doc_id FROM del) "
            "UNION ALL SELECT doc_id, text FROM ins), "
            "v1 AS (SELECT doc_id, text FROM documents) "
            "SELECT 'added' AS op, doc_id, text FROM "
            "(SELECT * FROM v2 EXCEPT SELECT * FROM v1) "
            "UNION ALL SELECT 'removed', doc_id, text FROM "
            "(SELECT * FROM v1 EXCEPT SELECT * FROM v2)"
        ),
        "table_merge": (
            "WITH upd AS (SELECT doc_id, text || ' u' AS text "
            "FROM documents WHERE doc_id % 3 = 0), "
            "del AS (SELECT doc_id FROM documents WHERE doc_id % 30 = 1), "
            "ins AS (SELECT doc_id + 1000000 AS doc_id, "
            "'inserted' AS text FROM documents WHERE doc_id % 50 = 0) "
            "SELECT d.doc_id, COALESCE(u.text, d.text) AS text "
            "FROM documents d LEFT JOIN upd u USING (doc_id) "
            "WHERE d.doc_id NOT IN (SELECT doc_id FROM del) "
            "UNION ALL SELECT doc_id, text FROM ins"
        ),
        "consistent_sample_join": (
            "SELECT o_custkey AS ckey, o_orderkey AS okey, "
            "CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) "
            "AS total_cents FROM orders WHERE o_custkey IN ("
            "SELECT c_custkey FROM customer "
            "WHERE CAST(concat('0x', substr("
            "md5(concat('csample', CAST(c_custkey AS VARCHAR))), 1, 8)) "
            "AS UBIGINT) % 100 < 10)"
        ),
        "orders_scd2": (
            "SELECT o_custkey AS ckey, "
            "CAST(epoch_us(o_orderdate) AS BIGINT) AS valid_from, "
            "o_orderkey AS okey, o_orderstatus AS o_status, "
            "CAST(LEAD(epoch_us(o_orderdate)) OVER ("
            "PARTITION BY o_custkey "
            "ORDER BY epoch_us(o_orderdate), o_orderkey) AS BIGINT) "
            "AS valid_to FROM orders"
        ),
        "chi2_terms": (
            "WITH w AS (SELECT lang, unnest(list_distinct("
            "regexp_split_to_array(trim(text), '\\s+'))) AS word "
            "FROM documents WHERE lang IS NOT NULL), "
            "a AS (SELECT lang, word, count(*) AS a FROM w "
            "GROUP BY lang, word), "
            "dft AS (SELECT word, CAST(SUM(a) AS BIGINT) AS df "
            "FROM a GROUP BY word), "
            "nlt AS (SELECT lang, count(*) AS nl FROM documents "
            "WHERE lang IS NOT NULL GROUP BY lang), "
            "nt AS (SELECT count(*) AS n FROM documents), "
            "cells AS (SELECT a.lang, a.word, a.a AS a, "
            "dft.df - a.a AS b, nlt.nl - a.a AS c, "
            "nt.n - dft.df - (nlt.nl - a.a) AS d, nt.n AS n "
            "FROM a JOIN dft ON a.word = dft.word "
            "JOIN nlt ON a.lang = nlt.lang CROSS JOIN nt "
            "WHERE dft.df < nt.n AND nlt.nl < nt.n), "
            # pinned IEEE order — mirrors ops/textstats.py chi2_terms
            "sc AS (SELECT lang, word, CAST(FLOOR("
            "(1e6 * (CAST(n AS DOUBLE) * (CAST(a*d - b*c AS DOUBLE) * "
            "CAST(a*d - b*c AS DOUBLE)))) / "
            "((CAST(a+b AS DOUBLE) * CAST(c+d AS DOUBLE)) * "
            "CAST(a+c AS DOUBLE) * CAST(b+d AS DOUBLE)) + 0.5) "
            "AS BIGINT) AS chi2_micro FROM cells) "
            "SELECT lang, CAST(rn AS BIGINT) AS rn, word, chi2_micro "
            "FROM (SELECT lang, word, chi2_micro, row_number() OVER ("
            "PARTITION BY lang ORDER BY chi2_micro DESC, word ASC) AS rn "
            "FROM sc) WHERE rn <= 20"
        ),
        "lang_len_auc": (
            "WITH s AS (SELECT n_chars AS score, "
            "CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS pos "
            "FROM documents), "
            "g AS (SELECT score, CAST(SUM(pos) AS BIGINT) AS npos, "
            "CAST(COUNT(*) - SUM(pos) AS BIGINT) AS nneg "
            "FROM s GROUP BY score), "
            "c AS (SELECT npos, nneg, CAST(COALESCE(SUM(nneg) OVER ("
            "ORDER BY score ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "1 PRECEDING), 0) AS BIGINT) AS nneg_less FROM g) "
            "SELECT CAST(SUM(npos) AS BIGINT) AS n_pos, "
            "CAST(SUM(nneg) AS BIGINT) AS n_neg, "
            "CAST(SUM(npos * (2 * nneg_less + nneg)) AS BIGINT) "
            "AS auc_num, "
            "CAST(2 * SUM(npos) * SUM(nneg) AS BIGINT) AS auc_den FROM c"
        ),
        "name_random_walks": _walks_oracle(),
        "name_biased_walks": _biased_walks_oracle(),
        "name_harmonic_centrality": (
            "WITH RECURSIVE pairs AS MATERIALIZED ("
            "SELECT a.c_custkey AS s, b.c_custkey AS d "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS MATERIALIZED ("
            "SELECT s, d FROM pairs UNION ALL SELECT d, s FROM pairs), "
            "walk AS ("
            "SELECT c_custkey AS src, c_custkey AS node, 0 AS dist "
            "FROM customer WHERE c_custkey < 5 "
            "UNION "
            "SELECT w.src, e.d, w.dist + 1 FROM walk w "
            "JOIN edges e ON e.s = w.node WHERE w.dist < 4), "
            "md AS (SELECT src, node, min(dist) AS dist FROM walk "
            "GROUP BY src, node) "
            "SELECT node, CAST(SUM(FLOOR(1000000.0 / dist)) AS BIGINT) "
            "AS harmonic_u FROM md WHERE dist > 0 GROUP BY node"
        ),
        "name_betweenness": (
            "WITH pairs AS MATERIALIZED ("
            "SELECT a.c_custkey AS s, b.c_custkey AS d "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS MATERIALIZED ("
            "SELECT s, d FROM pairs UNION ALL SELECT d, s FROM pairs), "
            "l0 AS (SELECT c_custkey AS src, c_custkey AS node, "
            "CAST(1 AS BIGINT) AS sigma FROM customer WHERE c_custkey < 5), "
            "l1 AS (SELECT p.src, e.d AS node, "
            "CAST(SUM(p.sigma) AS BIGINT) AS sigma "
            "FROM l0 p JOIN edges e ON e.s = p.node "
            "WHERE NOT EXISTS (SELECT 1 FROM l0 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "GROUP BY p.src, e.d), "
            "l2 AS (SELECT p.src, e.d AS node, "
            "CAST(SUM(p.sigma) AS BIGINT) AS sigma "
            "FROM l1 p JOIN edges e ON e.s = p.node "
            "WHERE NOT EXISTS (SELECT 1 FROM l0 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "AND NOT EXISTS (SELECT 1 FROM l1 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "GROUP BY p.src, e.d), "
            "l3 AS (SELECT p.src, e.d AS node, "
            "CAST(SUM(p.sigma) AS BIGINT) AS sigma "
            "FROM l2 p JOIN edges e ON e.s = p.node "
            "WHERE NOT EXISTS (SELECT 1 FROM l0 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "AND NOT EXISTS (SELECT 1 FROM l1 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "AND NOT EXISTS (SELECT 1 FROM l2 v "
            "WHERE v.src = p.src AND v.node = e.d) "
            "GROUP BY p.src, e.d), "
            "d2 AS (SELECT v.src, v.node, CAST(SUM("
            "(v.sigma * (1000000000 + 0)) // w.sigma) AS BIGINT) AS delta "
            "FROM l2 v JOIN edges e ON e.s = v.node "
            "JOIN l3 w ON w.src = v.src AND w.node = e.d "
            "GROUP BY v.src, v.node), "
            "d1 AS (SELECT v.src, v.node, CAST(SUM("
            "(v.sigma * (1000000000 + COALESCE(dd.delta, 0))) // w.sigma"
            ") AS BIGINT) AS delta "
            "FROM l1 v JOIN edges e ON e.s = v.node "
            "JOIN l2 w ON w.src = v.src AND w.node = e.d "
            "LEFT JOIN d2 dd ON dd.src = w.src AND dd.node = w.node "
            "GROUP BY v.src, v.node), "
            "alln AS (SELECT src, node FROM l1 "
            "UNION ALL SELECT src, node FROM l2 "
            "UNION ALL SELECT src, node FROM l3), "
            "dd AS (SELECT src, node, delta FROM d1 "
            "UNION ALL SELECT src, node, delta FROM d2) "
            "SELECT a.node, CAST(SUM(COALESCE(dd.delta, 0)) AS BIGINT) "
            "AS betweenness_u FROM alln a "
            "LEFT JOIN dd ON dd.src = a.src AND dd.node = a.node "
            "GROUP BY a.node"
        ),
        "bloom_pruned_lookup": (
            "SELECT doc_id, md5(lower(trim(text))) AS fp FROM documents "
            "WHERE md5(lower(trim(text))) IN ("
            "SELECT md5(lower(trim(text))) FROM documents WHERE doc_id < 3)"
        ),
        "ivm_wordcount": (
            "SELECT word, CAST(count(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) "
            "AS word FROM documents) GROUP BY word"
        ),
        "name_diameter": (
            "WITH RECURSIVE pairs AS MATERIALIZED ("
            "SELECT a.c_custkey AS s, b.c_custkey AS d "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS MATERIALIZED ("
            "SELECT s, d FROM pairs UNION ALL SELECT d, s FROM pairs), "
            "w1 AS (SELECT 0 AS node, 0 AS dist "
            "UNION SELECT e.d, w.dist + 1 FROM w1 w "
            "JOIN edges e ON e.s = w.node WHERE w.dist < 6), "
            "m1 AS (SELECT node, min(dist) AS dist FROM w1 GROUP BY node), "
            "p1 AS (SELECT node FROM m1 ORDER BY dist DESC, node LIMIT 1), "
            "w2 AS (SELECT node, 0 AS dist FROM p1 "
            "UNION SELECT e.d, w.dist + 1 FROM w2 w "
            "JOIN edges e ON e.s = w.node WHERE w.dist < 6), "
            "m2 AS (SELECT node, min(dist) AS dist FROM w2 GROUP BY node) "
            "SELECT CAST(0 AS BIGINT) AS start_node, "
            "CAST((SELECT node FROM p1) AS BIGINT) AS peripheral_node, "
            "CAST((SELECT max(dist) FROM m2) AS BIGINT) AS diameter_lb"
        ),
        "name_sssp": (
            "WITH pairs AS MATERIALIZED ("
            "SELECT a.c_custkey AS s, b.c_custkey AS d, "
            "CAST(levenshtein(a.c_name, b.c_name) + 1 AS BIGINT) AS w "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS MATERIALIZED ("
            "SELECT s, d, w FROM pairs UNION ALL SELECT d, s, w FROM pairs), "
            "d0 AS (SELECT c_custkey AS src, c_custkey AS node, "
            "CAST(0 AS BIGINT) AS dist FROM customer WHERE c_custkey < 5), "
            "d1 AS (SELECT src, node, MIN(dist) AS dist FROM ("
            "SELECT src, node, dist FROM d0 UNION ALL "
            "SELECT d0.src, e.d AS node, d0.dist + e.w "
            "FROM d0 JOIN edges e ON e.s = d0.node) GROUP BY src, node), "
            "d2 AS (SELECT src, node, MIN(dist) AS dist FROM ("
            "SELECT src, node, dist FROM d1 UNION ALL "
            "SELECT d1.src, e.d AS node, d1.dist + e.w "
            "FROM d1 JOIN edges e ON e.s = d1.node) GROUP BY src, node), "
            "d3 AS (SELECT src, node, MIN(dist) AS dist FROM ("
            "SELECT src, node, dist FROM d2 UNION ALL "
            "SELECT d2.src, e.d AS node, d2.dist + e.w "
            "FROM d2 JOIN edges e ON e.s = d2.node) GROUP BY src, node) "
            "SELECT node, CAST(MIN(dist) AS BIGINT) AS best_dist, "
            "CAST(COUNT(*) AS BIGINT) AS n_sources FROM d3 GROUP BY node"
        ),
        "name_link_prediction": (
            _NAME_GRAPH_CTE + ", "
            "wd AS (SELECT w.x, w.y, CAST(FLOOR(1000000000.0 / ln(d.deg) "
            "+ 0.5) AS BIGINT) AS w_u FROM w JOIN deg d ON w.c = d.node), "
            "cand AS (SELECT x AS u, y AS v, CAST(count(*) AS BIGINT) AS cn, "
            "CAST(SUM(w_u) AS BIGINT) AS aa_u FROM wd GROUP BY x, y) "
            "SELECT u, v, cn, aa_u FROM cand "
            "WHERE NOT EXISTS (SELECT 1 FROM e "
            "WHERE e.u = cand.u AND e.v = cand.v) "
            "ORDER BY cn DESC, aa_u DESC, u, v LIMIT 100"
        ),
        "event_trend": (
            "WITH d AS (SELECT event_type, "
            "(CAST(ts AS DATE) - DATE '1970-01-01') AS day, "
            "count(*) AS y FROM events GROUP BY 1, 2), "
            "s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n, "
            "CAST(SUM(day) AS BIGINT) AS sx, "
            "CAST(SUM(y) AS BIGINT) AS sy, "
            "CAST(SUM(day * y) AS BIGINT) AS sxy, "
            "CAST(SUM(day * day) AS BIGINT) AS sxx FROM d GROUP BY 1) "
            "SELECT event_type, n AS n_days, "
            "CAST(n * sxy - sx * sy AS BIGINT) AS slope_num, "
            "CAST(n * sxx - sx * sx AS BIGINT) AS slope_den FROM s"
        ),
        "weighted_median_qty": (
            "WITH h AS (SELECT l_returnflag AS flag, "
            "CAST(l_quantity AS BIGINT) AS v, "
            "SUM(CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS w "
            "FROM lineitem GROUP BY 1, 2), "
            "c AS (SELECT flag, v, SUM(w) OVER (PARTITION BY flag "
            "ORDER BY v ROWS UNBOUNDED PRECEDING) AS cum, "
            "SUM(w) OVER (PARTITION BY flag) AS tot FROM h) "
            "SELECT flag, CAST(min(v) AS BIGINT) AS wmedian FROM c "
            "WHERE 2 * cum >= tot GROUP BY flag"
        ),
        "user_activity_gini": (
            "WITH c AS (SELECT user_id, count(*) AS n "
            "FROM events GROUP BY user_id), "
            "r AS (SELECT n, row_number() OVER (ORDER BY n, user_id) AS rk "
            "FROM c) "
            "SELECT CAST(2 * SUM(rk * n) - (COUNT(*) + 1) * SUM(n) "
            "AS BIGINT) AS gini_num, "
            "CAST(COUNT(*) * SUM(n) AS BIGINT) AS gini_den FROM r"
        ),
        "user_top_event": (
            "WITH c AS (SELECT user_id, event_type, count(*) AS n "
            "FROM events GROUP BY user_id, event_type), "
            "r AS (SELECT user_id, event_type, n, row_number() OVER ("
            "PARTITION BY user_id ORDER BY n DESC, event_type ASC) AS rk "
            "FROM c) "
            "SELECT user_id, event_type AS top_event, "
            "CAST(n AS BIGINT) AS n FROM r WHERE rk = 1"
        ),
        "cumulative_users": (
            "WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS day "
            "FROM events GROUP BY user_id), "
            "d AS (SELECT day, CAST(count(*) AS BIGINT) AS new_users "
            "FROM f GROUP BY day) "
            "SELECT day, new_users, CAST(SUM(new_users) OVER ("
            "ORDER BY day ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users "
            "FROM d"
        ),
        "rendezvous_shards": (
            "SELECT doc_id, CAST(s AS BIGINT) AS shard FROM ("
            "SELECT d.doc_id, t.s, row_number() OVER ("
            "PARTITION BY d.doc_id ORDER BY "
            "md5(CAST(d.doc_id AS VARCHAR) || ':' || "
            "CAST(t.s AS VARCHAR)) DESC, t.s) AS rn "
            "FROM documents d, (SELECT unnest(range(5)) AS s) t) "
            "WHERE rn = 1"
        ),
        "doc_sample_k_by_lang": (
            "SELECT lang, doc_id FROM ("
            "SELECT lang, doc_id, row_number() OVER (PARTITION BY lang "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk "
            "FROM documents) WHERE rk <= 20"
        ),
        "tfidf_cosine_pairs": (
            "WITH tfs AS (SELECT doc_id, word, count(*) AS tf FROM ("
            "SELECT doc_id, unnest(regexp_split_to_array(trim(text), "
            "'\\s+')) AS word FROM documents) GROUP BY doc_id, word), "
            "dfs AS (SELECT word, count(*) AS df FROM tfs GROUP BY word), "
            "w AS (SELECT t.doc_id, t.word, t.tf * CAST(FLOOR(1000000.0 * "
            "ln(CAST((SELECT count(*) FROM documents) AS DOUBLE) / d.df) "
            "+ 0.5) AS BIGINT) AS w FROM tfs t JOIN dfs d USING (word)), "
            "norms AS (SELECT doc_id, CAST(SUM(w * w) AS BIGINT) AS n2 "
            "FROM w GROUP BY doc_id), "
            "dots AS (SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, "
            "CAST(SUM(x.w * y.w) AS BIGINT) AS dot FROM w x JOIN w y "
            "ON x.word = y.word AND x.doc_id < y.doc_id "
            "GROUP BY 1, 2) "
            "SELECT doc_a, doc_b, cos_u FROM ("
            "SELECT doc_a, doc_b, CAST(FLOOR(1000000.0 * dot / "
            "(sqrt(CAST(na.n2 AS DOUBLE)) * sqrt(CAST(nb.n2 AS DOUBLE))) "
            "+ 0.5) AS BIGINT) AS cos_u FROM dots "
            "JOIN norms na ON na.doc_id = doc_a "
            "JOIN norms nb ON nb.doc_id = doc_b) "
            "WHERE cos_u >= 900000"
        ),
        "quality_threshold_sweep": (
            "SELECT t.thr, CAST(count(*) FILTER (WHERE d.nw >= t.thr) "
            "AS BIGINT) AS n_pass "
            "FROM (SELECT len(regexp_split_to_array(trim(text), '\\s+')) "
            "AS nw FROM documents) d, "
            "(SELECT unnest([10, 20, 50, 100, 200]) AS thr) t "
            "GROUP BY t.thr"
        ),
        "doc_token_entropy": (
            "WITH tok AS (SELECT doc_id, unnest("
            "regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents), "
            "cnt AS (SELECT doc_id, w, count(*) AS n "
            "FROM tok GROUP BY doc_id, w), "
            "tot AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS N "
            "FROM cnt GROUP BY doc_id) "
            "SELECT c.doc_id, t.N AS n_tokens, "
            "CAST(SUM(c.n * CAST(FLOOR(1000000000.0 * "
            "ln(CAST(t.N AS DOUBLE) / c.n) + 0.5) AS BIGINT)) AS BIGINT) "
            "AS entropy_u "
            "FROM cnt c JOIN tot t USING (doc_id) GROUP BY c.doc_id, t.N"
        ),
        "user_first_last_event": (
            "WITH r AS (SELECT user_id, ts, event_type, "
            "row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts ASC, event_id ASC) AS rf, "
            "row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id ASC) AS rl FROM events) "
            "SELECT f.user_id, f.ts AS first_ts, "
            "f.event_type AS first_event_type, l.ts AS last_ts, "
            "l.event_type AS last_event_type "
            "FROM (SELECT * FROM r WHERE rf = 1) f "
            "JOIN (SELECT * FROM r WHERE rl = 1) l USING (user_id)"
        ),
        "phrase_search": (
            "WITH t AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "p AS (SELECT doc_id, unnest(w) AS word, "
            "unnest(range(1, len(w) + 1)) AS pos FROM t) "
            "SELECT p1.doc_id, CAST(count(*) AS BIGINT) AS n_matches "
            "FROM p p1 JOIN p p2 ON p1.doc_id = p2.doc_id "
            "AND p2.pos = p1.pos + 1 "
            "WHERE p1.word = 'table' AND p2.word = 'hash' "
            "GROUP BY p1.doc_id"
        ),
        "text_index_proximity": (
            "WITH t AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "p AS (SELECT doc_id, unnest(w) AS word, "
            "unnest(range(1, len(w) + 1)) AS pos FROM t) "
            "SELECT p1.doc_id, CAST(count(*) AS BIGINT) AS n_pairs "
            "FROM p p1 JOIN p p2 ON p1.doc_id = p2.doc_id "
            "AND abs(p1.pos - p2.pos) <= 5 "
            "WHERE p1.word = 'table' AND p2.word = 'hash' "
            "GROUP BY p1.doc_id"
        ),
        # same positional self-join twin: the index-served phrase plan
        # must reproduce the full-scan result exactly (term-complete
        # buckets + stored positions), including after the append tick
        "text_index_phrase": (
            "WITH t AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "p AS (SELECT doc_id, unnest(w) AS word, "
            "unnest(range(1, len(w) + 1)) AS pos FROM t) "
            "SELECT p1.doc_id, CAST(count(*) AS BIGINT) AS n_matches "
            "FROM p p1 JOIN p p2 ON p1.doc_id = p2.doc_id "
            "AND p2.pos = p1.pos + 1 "
            "WHERE p1.word = 'table' AND p2.word = 'hash' "
            "GROUP BY p1.doc_id"
        ),
        "name_clustering_coeff": (
            _NAME_GRAPH_CTE + ", "
            "t AS (SELECT w.c AS node, count(*) AS tri FROM w "
            "JOIN e ON e.u = w.x AND e.v = w.y GROUP BY w.c) "
            "SELECT d.node, CAST(COALESCE(t.tri, 0) AS BIGINT) AS tri, "
            "CAST(d.deg AS BIGINT) AS deg FROM deg d "
            "LEFT JOIN t ON d.node = t.node WHERE d.deg >= 2"
        ),
        "clean_funnel": (
            "WITH nw AS (SELECT doc_id, text, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
            "(length(trim(text)) - length(regexp_replace(trim(text), "
            "'\\S', '', 'g'))) AS word_chars, "
            "CASE WHEN length(text) = 0 THEN 0.0 ELSE "
            "length(regexp_replace(text, '[^A-Za-z]', '', 'g')) "
            "/ CAST(length(text) AS DOUBLE) END AS alpha_ratio "
            "FROM documents), "
            "s1 AS (SELECT * FROM nw WHERE n_words >= 5), "
            "s2 AS (SELECT * FROM s1 WHERE "
            "(n_words BETWEEN 50 AND 100000) "
            "AND (word_chars / CAST(n_words AS DOUBLE) "
            "BETWEEN 3.0 AND 10.0) AND alpha_ratio > 0.6) "
            "SELECT 0 AS stage, 'raw' AS name, "
            "(SELECT count(*) FROM documents) AS n_docs "
            "UNION ALL SELECT 1, 'wellformed', (SELECT count(*) FROM s1) "
            "UNION ALL SELECT 2, 'gopher', (SELECT count(*) FROM s2) "
            "UNION ALL SELECT 3, 'dedup', "
            "(SELECT count(DISTINCT text) FROM s2)"
        ),
        "user_running_totals": (
            "SELECT user_id, event_id, "
            "CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) "
            "AS run_units, "
            "CAST(row_number() OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) "
            "AS run_n FROM events"
        ),
        "user_key_skew": (
            "WITH c AS (SELECT user_id, count(*) AS n FROM events "
            "GROUP BY user_id) "
            "SELECT CAST(count(*) AS BIGINT) AS n_keys, "
            "CAST(SUM(n) AS BIGINT) AS n_rows, "
            "CAST(MAX(n) AS BIGINT) AS max_n, "
            "CAST(quantile_disc(n, 0.5) AS BIGINT) AS p50_n, "
            "CAST(quantile_disc(n, 0.90) AS BIGINT) AS p90_n, "
            "CAST(quantile_disc(n, 0.99) AS BIGINT) AS p99_n, "
            "(SELECT MIN(user_id) FROM c "
            "WHERE n = (SELECT MAX(n) FROM c)) AS top_key "
            "FROM c"
        ),
        "bpe_pair_counts": (
            "WITH words AS (SELECT unnest("
            "regexp_split_to_array(trim(text), '\\s+')) AS w FROM documents), "
            "ne AS (SELECT w FROM words WHERE len(w) > 0), "
            "inner_pairs AS (SELECT substr(w, i, 1) AS l, "
            "substr(w, i + 1, 1) AS r FROM ne CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 1)) AS i) t), "
            "boundary AS (SELECT substr(w, len(w), 1) AS l, '</w>' AS r "
            "FROM ne) "
            "SELECT l, r, count(*) AS n FROM "
            "(SELECT * FROM inner_pairs UNION ALL SELECT * FROM boundary) "
            "GROUP BY l, r"
        ),
        "name_bfs_hops": (
            "WITH RECURSIVE pairs AS MATERIALIZED ("
            "SELECT a.c_custkey AS s, b.c_custkey AS d "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS MATERIALIZED ("
            "SELECT s, d FROM pairs UNION ALL SELECT d, s FROM pairs), "
            "walk AS ("
            "SELECT c_custkey AS node, 0 AS dist FROM customer "
            "WHERE c_custkey <= 10 "
            "UNION "
            "SELECT e.d AS node, w.dist + 1 FROM walk w "
            "JOIN edges e ON e.s = w.node WHERE w.dist < 4) "
            "SELECT node, CAST(min(dist) AS BIGINT) AS dist "
            "FROM walk GROUP BY node"
        ),
        "quality_melt": (
            "WITH q AS (SELECT doc_id, length(text) AS n_chars, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
            "len(list_distinct(list_transform("
            "regexp_split_to_array(trim(text), '\\s+'), x -> lower(x)))) "
            "AS n_unique_words, "
            "length(regexp_replace(text, '[\\w\\s]', '', 'g')) AS n_punct "
            "FROM documents) "
            "SELECT doc_id, metric, val FROM q "
            "UNPIVOT (val FOR metric IN "
            "(n_chars, n_words, n_unique_words, n_punct))"
        ),
        "word_postings": (
            "WITH pairs AS (SELECT DISTINCT doc_id, "
            "unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
            "FROM documents) "
            "SELECT w AS word, "
            "string_agg(doc_id, ',' ORDER BY doc_id) AS postings "
            "FROM pairs GROUP BY w"
        ),
        "event_props_sum": (
            "SELECT event_type, "
            "CAST(sum(COALESCE(TRY_CAST(props ->> '$.k' AS BIGINT), 0)) "
            "AS BIGINT) AS sum_k, count(*) AS n "
            "FROM events GROUP BY event_type"
        ),
        "cohort_retention": (
            "WITH firsts AS (SELECT user_id, "
            "CAST(min(epoch_us(ts)) // 86400000000 AS BIGINT) AS cohort_d "
            "FROM events GROUP BY user_id), "
            "acts AS (SELECT DISTINCT e.user_id, f.cohort_d, "
            "CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS act_d "
            "FROM events e JOIN firsts f USING (user_id)) "
            "SELECT cohort_d, act_d - cohort_d AS day_offset, "
            "count(*) AS n_users FROM acts GROUP BY cohort_d, day_offset"
        ),
        "events_mad_outliers": (
            "WITH c AS (SELECT event_type, "
            "CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v FROM events), "
            "med AS (SELECT event_type, quantile_disc(v, 0.5) AS m "
            "FROM c GROUP BY event_type), "
            "dev AS (SELECT c.event_type, v, abs(v - m) AS d, m "
            "FROM c JOIN med USING (event_type)), "
            "mad AS (SELECT event_type, quantile_disc(d, 0.5) AS md "
            "FROM dev GROUP BY event_type) "
            "SELECT dev.event_type, "
            "CAST(any_value(dev.m) AS BIGINT) AS med_cents, "
            "CAST(any_value(mad.md) AS BIGINT) AS mad_cents, "
            "CAST(sum(CASE WHEN dev.d > 3 * mad.md THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_outliers "
            "FROM dev JOIN mad USING (event_type) GROUP BY dev.event_type"
        ),
        "order_skyline": (
            "WITH o AS (SELECT o_orderkey, "
            "CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) "
            "AS price_cents, CAST(epoch_us(o_orderdate) AS BIGINT) "
            "AS odate_us FROM orders) "
            "SELECT o_orderkey, price_cents, odate_us FROM o "
            "WHERE NOT EXISTS (SELECT 1 FROM o b "
            "WHERE b.price_cents <= o.price_cents "
            "AND b.odate_us <= o.odate_us "
            "AND (b.price_cents < o.price_cents "
            "OR b.odate_us < o.odate_us))"
        ),
        "embedding_gram": (
            "WITH dims AS (SELECT unnest(range(1, 65)) AS i), "
            "pairs AS (SELECT a.i AS i, b.i AS j FROM dims a "
            "JOIN dims b ON a.i <= b.i) "
            "SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j, "
            "CAST(sum(CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * "
            "CAST(embedding[j] AS DOUBLE) * 1e9 + 0.5) AS BIGINT)) "
            "AS BIGINT) AS g_nano "
            "FROM embeddings, pairs GROUP BY i, j"
        ),
        "jsonl_source": (
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars "
            "FROM documents"
        ),
        "table_time_travel": (
            "SELECT 1 AS version, "
            "CAST(count(*) FILTER (WHERE doc_id % 2 = 0) AS BIGINT) "
            "AS n_rows, "
            "CAST(COALESCE(SUM(length(text)) "
            "FILTER (WHERE doc_id % 2 = 0), 0) AS BIGINT) AS sum_chars "
            "FROM documents "
            "UNION ALL SELECT 2, CAST(count(*) AS BIGINT), "
            "CAST(COALESCE(SUM(length(text)), 0) AS BIGINT) FROM documents"
        ),
        "csv_source": (
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars "
            "FROM documents"
        ),
        "avro_source": (
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars "
            "FROM documents"
        ),
        "corpus_checksum_ranges": (
            "WITH r AS (SELECT doc_id // 100 AS bucket, concat("
            "concat(CAST(length(CAST(doc_id AS VARCHAR)) AS VARCHAR), "
            "':', CAST(doc_id AS VARCHAR)), '|', "
            "CASE WHEN text IS NULL THEN 'N' ELSE "
            "concat(CAST(length(text) AS VARCHAR), ':', text) END) "
            "AS key FROM documents) "
            "SELECT bucket, CAST(bit_xor(CAST(concat('0x', "
            "substr(md5(key), 1, 15)) AS UBIGINT)) AS BIGINT) AS checksum, "
            "count(*) AS n_rows FROM r GROUP BY bucket"
        ),
        "corpus_checksum": (
            # length-prefixed injective rendering, mirroring
            # ops/dq.py table_checksum: "<len>:<value>" per column,
            # NULL -> bare "N"
            "WITH r AS (SELECT concat("
            "concat(CAST(length(CAST(doc_id AS VARCHAR)) AS VARCHAR), "
            "':', CAST(doc_id AS VARCHAR)), '|', "
            "CASE WHEN text IS NULL THEN 'N' ELSE "
            "concat(CAST(length(text) AS VARCHAR), ':', text) END) "
            "AS key FROM documents) "
            "SELECT CAST(bit_xor(CAST(concat('0x', substr(md5(key), 1, "
            "15)) AS UBIGINT)) AS BIGINT) AS checksum, "
            "count(*) AS n_rows FROM r"
        ),
        "nb_langid": _NB_LANGID_SQL,
        "nb_confusion": (
            f"WITH pred AS ({_NB_LANGID_SQL}) "
            "SELECT d.lang AS true_lang, p.pred_label, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM pred p JOIN documents d USING (doc_id) "
            "GROUP BY d.lang, p.pred_label"
        ),
        "unigram_lm": _UNIGRAM_LM_SQL,
        "lm_calibration": (
            f"WITH sc AS ({_UNIGRAM_LM_SQL}), "
            "j AS (SELECT sc.doc_id, "
            "CAST(sc.lm_score_u AS DOUBLE) / sc.n_tokens AS s, "
            "CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS pos "
            "FROM sc JOIN documents d USING (doc_id)), "
            "t AS (SELECT NTILE(10) OVER (ORDER BY s, doc_id) AS bucket, "
            "pos FROM j) "
            "SELECT CAST(bucket AS BIGINT) AS bucket, "
            "CAST(count(*) AS BIGINT) AS n, "
            "CAST(SUM(pos) AS BIGINT) AS n_pos FROM t GROUP BY bucket"
        ),
        # floor(epoch) matches the engine's integer microsecond division
        # (CAST alone would round-to-nearest on fractional seconds)
        "events_minmax_by_type": (
            "SELECT event_type, CAST(min(floor(epoch(ts))) AS BIGINT) AS min_ts, "
            "CAST(max(floor(epoch(ts))) AS BIGINT) AS max_ts, count(*) AS n_events "
            "FROM events GROUP BY event_type"
        ),
        "customer_orders_full": (
            "SELECT COALESCE(c.custkey, o.custkey) AS custkey, "
            "c.c_name AS c_name, o.n_orders AS n_orders FROM "
            "(SELECT c_custkey AS custkey, c_name FROM customer "
            "WHERE c_mktsegment = 'BUILDING') c FULL OUTER JOIN "
            "(SELECT o_custkey AS custkey, count(*) AS n_orders FROM orders "
            "GROUP BY o_custkey) o ON c.custkey = o.custkey"
        ),
        "purchase_click_band": (
            "SELECT p.event_id AS event_id, count(c.event_id) AS n_clicks "
            "FROM (SELECT event_id, ts FROM events "
            "WHERE event_type = 'purchase') p "
            "LEFT JOIN (SELECT event_id, ts FROM events "
            "WHERE event_type = 'click') c "
            "ON c.ts >= p.ts - INTERVAL 1 HOUR AND c.ts <= p.ts "
            "GROUP BY p.event_id"
        ),
        "events_sliding": (
            "SELECT ((epoch_us(ts) // 1000000) // 900) * 900 - k * 900 "
            "AS window_start_s, count(*) AS n_events FROM events, "
            "LATERAL (SELECT unnest(range(4)) AS k) t GROUP BY 1"
        ),
        "events_sliding_users": (
            "SELECT ((epoch_us(ts) // 1000000) // 900) * 900 - k * 900 "
            "AS window_start_s, "
            "CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct "
            "FROM events, LATERAL (SELECT unnest(range(4)) AS k) t "
            "GROUP BY 1"
        ),
        "orders_status_pivot": (
            "SELECT year(o_orderdate) AS o_year, "
            "count(*) FILTER (WHERE o_orderstatus = 'O') AS n_open, "
            "count(*) FILTER (WHERE o_orderstatus = 'F') AS n_filled, "
            "count(*) FILTER (WHERE o_orderstatus = 'P') AS n_pending "
            "FROM orders GROUP BY 1"
        ),
        "orders_rollup": (
            "SELECT COALESCE(CAST(o_year AS VARCHAR), 'ALL') AS o_year, "
            "COALESCE(o_status, 'ALL') AS o_status, count(*) AS n FROM "
            "(SELECT year(o_orderdate) AS o_year, o_orderstatus AS o_status "
            "FROM orders) GROUP BY ROLLUP(o_year, o_status)"
        ),
        "pruned_range_scan": (
            "SELECT doc_id, n_chars FROM documents "
            "WHERE n_chars BETWEEN 120 AND 300"
        ),
        "events_dq": (
            "WITH v AS (SELECT "
            "SUM(CASE WHEN NOT coalesce(value >= 0 AND value < 400, "
            "false) THEN 1 ELSE 0 END) AS value_in_bounds, "
            "SUM(CASE WHEN NOT coalesce(event_type IN ('click', 'view', "
            "'purchase', 'error', 'signup'), false) THEN 1 ELSE 0 END) "
            "AS type_in_enum, "
            "SUM(CASE WHEN NOT coalesce(ts >= TIMESTAMP '2024-01-01' "
            "AND ts < TIMESTAMP '2024-01-15', false) THEN 1 ELSE 0 END) "
            "AS ts_in_window, "
            "SUM(CASE WHEN NOT coalesce(user_id >= 0, false) "
            "THEN 1 ELSE 0 END) AS user_id_nonneg, "
            "count(*) AS n FROM events) "
            "SELECT t.rule, CAST(v.n AS BIGINT) AS n_rows, "
            "CAST(t.nv AS BIGINT) AS n_violations, "
            "CAST(t.nv AS DOUBLE) / v.n AS violation_rate FROM v, "
            "LATERAL (VALUES ('value_in_bounds', v.value_in_bounds), "
            "('type_in_enum', v.type_in_enum), "
            "('ts_in_window', v.ts_in_window), "
            "('user_id_nonneg', v.user_id_nonneg)) AS t(rule, nv)"
        ),
        "lang_len_drift": (
            "WITH f AS (SELECT lang AS g, n_chars AS v FROM documents "
            "WHERE lang IN ('en', 'de')), "
            "c AS (SELECT v, SUM(CASE WHEN g = 'en' THEN 1 ELSE 0 END) "
            "AS c1, SUM(CASE WHEN g = 'de' THEN 1 ELSE 0 END) AS c2 "
            "FROM f GROUP BY v), "
            "w AS (SELECT v, CAST(SUM(c1) OVER (ORDER BY v) AS BIGINT) "
            "AS cum1, CAST(SUM(c2) OVER (ORDER BY v) AS BIGINT) AS cum2 "
            "FROM c), "
            "t AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1, "
            "CAST(SUM(c2) AS BIGINT) AS n2 FROM c) "
            "SELECT t.n1, t.n2, "
            "CAST(MAX(ABS(cum1 * t.n2 - cum2 * t.n1)) AS DOUBLE) / "
            "CAST(t.n1 * t.n2 AS DOUBLE) AS ks "
            "FROM w, t GROUP BY t.n1, t.n2"
        ),
        "event_type_pairs": (
            "WITH d AS (SELECT DISTINCT user_id, event_type FROM events) "
            "SELECT a.event_type AS t1, b.event_type AS t2, "
            "CAST(count(*) AS BIGINT) AS support "
            "FROM d a JOIN d b ON a.user_id = b.user_id "
            "AND a.event_type < b.event_type GROUP BY t1, t2"
        ),
        "events_zorder": (
            "WITH s0 AS (SELECT event_id, user_id & 65535 AS a, "
            "CAST(FLOOR(value) AS BIGINT) & 65535 AS b FROM events), "
            "s1 AS (SELECT event_id, (a | (a << 8)) & 16711935 AS a, "
            "(b | (b << 8)) & 16711935 AS b FROM s0), "
            "s2 AS (SELECT event_id, (a | (a << 4)) & 252645135 AS a, "
            "(b | (b << 4)) & 252645135 AS b FROM s1), "
            "s3 AS (SELECT event_id, (a | (a << 2)) & 858993459 AS a, "
            "(b | (b << 2)) & 858993459 AS b FROM s2), "
            "s4 AS (SELECT event_id, (a | (a << 1)) & 1431655765 AS a, "
            "(b | (b << 1)) & 1431655765 AS b FROM s3) "
            "SELECT event_id, a | (b << 1) AS zval FROM s4"
        ),
        "crawl_delta": (
            "WITH o AS (SELECT doc_id, md5(text) AS fp FROM documents "
            "WHERE doc_id % 7 <> 0), "
            "n AS (SELECT doc_id, md5(text || CASE WHEN doc_id % 11 = 0 "
            "THEN '!' ELSE '' END) AS fp FROM documents "
            "WHERE doc_id % 5 <> 0) "
            "SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id, "
            "CASE WHEN o.doc_id IS NULL THEN 'added' "
            "WHEN n.doc_id IS NULL THEN 'removed' "
            "ELSE 'changed' END AS status "
            "FROM o FULL OUTER JOIN n ON o.doc_id = n.doc_id "
            "WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.fp <> n.fp"
        ),
        "kn_bigram_lm": (
            "WITH toks AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS a FROM documents), "
            "bg AS (SELECT doc_id, a[i] AS w1, a[i + 1] AS w2 FROM toks "
            "CROSS JOIN LATERAL (SELECT unnest("
            "generate_series(1, len(a) - 1)) AS i) t), "
            "c AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c "
            "FROM bg GROUP BY w1, w2), "
            "ct AS (SELECT w1, CAST(SUM(c) AS BIGINT) AS ctot, "
            "CAST(count(*) AS BIGINT) AS n1f FROM c GROUP BY w1), "
            "cb AS (SELECT w2, CAST(count(*) AS BIGINT) AS n1b "
            "FROM c GROUP BY w2), "
            "b AS (SELECT CAST(count(*) AS BIGINT) AS btypes FROM c), "
            "lp AS (SELECT c.w1, c.w2, CAST(FLOOR(ln("
            "(CAST(c.c AS DOUBLE) - 0.75 + 0.75 * ct.n1f * "
            "(CAST(cb.n1b AS DOUBLE) / b.btypes)) / ct.ctot) "
            "* 1000000 + 0.5) AS BIGINT) AS u "
            "FROM c JOIN ct USING (w1) JOIN cb USING (w2) CROSS JOIN b), "
            "d AS (SELECT bg.doc_id, "
            "CAST(SUM(lp.u) AS BIGINT) AS kn_score_u, "
            "CAST(count(*) AS BIGINT) AS n_bigrams FROM bg "
            "JOIN lp ON bg.w1 = lp.w1 AND bg.w2 = lp.w2 "
            "GROUP BY bg.doc_id) "
            "SELECT doc_id, n_bigrams, kn_score_u, "
            "CAST(kn_score_u AS DOUBLE) / 1000000 / n_bigrams AS kn_score "
            "FROM d"
        ),
        "url_canonical_dedup": (
            "WITH raw AS (SELECT doc_id, "
            "'https://www.' || source || '.example.com/Articles/' || "
            "CAST(doc_id % 50 AS VARCHAR) || "
            "CASE CAST(doc_id % 4 AS INTEGER) "
            "WHEN 0 THEN '?ref=' || CAST(doc_id % 3 AS VARCHAR) "
            "WHEN 1 THEN '?ref=' || CAST(doc_id % 3 AS VARCHAR) "
            "WHEN 2 THEN '?a=1&b=2' ELSE '' END AS url FROM documents) "
            "SELECT url, MAX(doc_id) AS doc_id, "
            "CAST(count(*) AS BIGINT) AS n_dups FROM raw GROUP BY url"
        ),
        "events_zscore": (
            "WITH q AS (SELECT event_id, event_type, "
            "CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS vc FROM events), "
            "s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n, "
            "CAST(SUM(vc) AS BIGINT) AS sq, "
            "CAST(SUM(vc * vc) AS BIGINT) AS sq2 "
            "FROM q GROUP BY event_type) "
            "SELECT q.event_id, q.event_type, "
            "(CAST(q.vc AS DOUBLE) - CAST(s.sq AS DOUBLE) / s.n) / "
            "sqrt((CAST(s.sq2 AS DOUBLE) - CAST(s.sq AS DOUBLE) * "
            "CAST(s.sq AS DOUBLE) / s.n) / s.n) AS z "
            "FROM q JOIN s USING (event_type)"
        ),
        "orders_cube": (
            "SELECT COALESCE(CAST(o_year AS VARCHAR), 'ALL') AS o_year, "
            "COALESCE(o_status, 'ALL') AS o_status, count(*) AS n FROM "
            "(SELECT year(o_orderdate) AS o_year, o_orderstatus AS o_status "
            "FROM orders) GROUP BY CUBE(o_year, o_status)"
        ),
        "doc_dense_rank": (
            "SELECT doc_id, n_chars, "
            "DENSE_RANK() OVER (ORDER BY n_chars DESC) AS drank "
            "FROM documents"
        ),
        "doc_ntile": (
            "SELECT doc_id, "
            "NTILE(10) OVER (ORDER BY n_chars DESC, doc_id) AS bucket "
            "FROM documents"
        ),
        "pmi_bigrams": (
            "WITH toks AS (SELECT regexp_split_to_array(trim(text), '\\s+') "
            "AS ws FROM documents), "
            "words AS (SELECT unnest(ws) AS word FROM toks), "
            "wc AS (SELECT word, count(*) AS n FROM words GROUP BY word), "
            "tot AS (SELECT count(*) AS nt FROM words), "
            "bi AS (SELECT ws[CAST(i AS INT)] AS w1, "
            "ws[CAST(i + 1 AS INT)] AS w2 FROM toks, "
            "LATERAL (SELECT unnest(range(1, len(ws))) AS i)), "
            "bc AS (SELECT w1, w2, count(*) AS n_ab FROM bi "
            "GROUP BY w1, w2 HAVING count(*) >= 5), "
            "ptot AS (SELECT count(*) AS np FROM bi) "
            "SELECT bc.w1 || ' ' || bc.w2 AS bigram, bc.n_ab AS n_ab, "
            "ln((CAST(bc.n_ab AS DOUBLE) / ptot.np) / "
            "((CAST(wa.n AS DOUBLE) / tot.nt) * "
            "(CAST(wb.n AS DOUBLE) / tot.nt))) AS pmi "
            "FROM bc, ptot, tot, wc wa, wc wb "
            "WHERE wa.word = bc.w1 AND wb.word = bc.w2 "
            "ORDER BY pmi DESC, bigram LIMIT 100"
        ),
        "lineitem_orders_salted": (
            "SELECT o_orderstatus, count(*) AS n_items, "
            "sum(l_quantity) AS sum_qty FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "GROUP BY o_orderstatus"
        ),
        "tpch_q1": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) "
            "AS sum_qty, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) "
            "AS BIGINT) AS sum_base_cents, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * "
            "(1 + l_tax) * 100 + 0.5) AS BIGINT)) AS BIGINT) "
            "AS sum_charge_cents, "
            "CAST(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS DOUBLE) "
            "/ count(*) AS avg_qty, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) "
            "AS DOUBLE) / 100.0 / count(*) AS avg_price, "
            "CAST(sum(CAST(FLOOR(l_discount * 10000 + 0.5) AS BIGINT)) "
            "AS DOUBLE) / 10000.0 / count(*) AS avg_disc, "
            "count(*) AS count_order "
            "FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02' "
            "GROUP BY l_returnflag, l_linestatus"
        ),
        "distinct_users_by_type": (
            "SELECT event_type, count(DISTINCT user_id) AS n_users "
            "FROM events GROUP BY event_type"
        ),
        "dedup_spans_removed": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "eligible AS (SELECT doc_id, w FROM words WHERE len(w) >= 10), "
            "grams AS (SELECT doc_id, i, array_to_string(list_slice(w, "
            "CAST(i AS INT), CAST(i + 9 AS INT)), ' ') AS g "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 9)) AS i) t), "
            "dup AS (SELECT g FROM grams GROUP BY g HAVING count(*) >= 2), "
            "starts AS (SELECT doc_id, i, 1 AS d FROM grams "
            "WHERE g IN (SELECT g FROM dup)), "
            "wordpos AS (SELECT doc_id, i AS p, w[CAST(i AS INT)] AS word "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w))) AS i) t), "
            "flags AS (SELECT wp.doc_id, wp.p, wp.word, COALESCE(s.d, 0) AS d "
            "FROM wordpos wp LEFT JOIN starts s "
            "ON s.doc_id = wp.doc_id AND s.i = wp.p), "
            "cover AS (SELECT doc_id, p, word, MAX(d) OVER "
            "(PARTITION BY doc_id ORDER BY p "
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW) AS rm FROM flags), "
            "rebuilt AS (SELECT doc_id, COALESCE(string_agg(word, ' ' "
            "ORDER BY p) FILTER (WHERE rm = 0), '') AS text, "
            "CAST(count(*) FILTER (WHERE rm = 1) AS BIGINT) AS n_removed "
            "FROM cover GROUP BY doc_id) "
            "SELECT doc_id, text, n_removed FROM rebuilt "
            "UNION ALL SELECT doc_id, text, CAST(0 AS BIGINT) AS n_removed "
            "FROM documents WHERE doc_id NOT IN "
            "(SELECT doc_id FROM eligible)"
        ),
        "dup_span_stats": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS w FROM documents), "
            "eligible AS (SELECT * FROM words WHERE len(w) >= 10), "
            "shingles AS (SELECT DISTINCT doc_id, "
            "array_to_string(list_slice(w, CAST(i AS INT), "
            "CAST(i + 9 AS INT)), ' ') AS shingle "
            "FROM eligible CROSS JOIN LATERAL "
            "(SELECT unnest(generate_series(1, len(w) - 9)) AS i) t), "
            "dup AS (SELECT shingle FROM shingles GROUP BY shingle "
            "HAVING count(*) >= 2) "
            "SELECT doc_id, count(*) AS n_dup_grams FROM shingles "
            "JOIN dup USING (shingle) GROUP BY doc_id"
        ),
        "doc_percent_rank": (
            "SELECT doc_id, n_chars, PERCENT_RANK() OVER "
            "(ORDER BY n_chars DESC, doc_id ASC) AS prank FROM documents"
        ),
        "crawl_gap": (
            "WITH urls AS (SELECT doc_id, 'http://host' || (doc_id % 40) || "
            "'.example.com' || CASE WHEN doc_id % 4 = 0 THEN "
            "'/a/b/c/' || doc_id WHEN doc_id % 4 = 1 THEN "
            "'/a/' || doc_id WHEN doc_id % 4 = 2 THEN '/x' "
            "ELSE '/' END AS url FROM documents), "
            "captured AS (SELECT url FROM urls WHERE doc_id % 2 = 0) "
            "SELECT doc_id, url FROM urls "
            "WHERE url NOT IN (SELECT url FROM captured)"
        ),
        "sitemap_source": (
            "SELECT 'http://host' || (doc_id % 40) || '.example.com' || "
            "CASE WHEN doc_id % 4 = 0 THEN '/a/b/c/' || doc_id "
            "WHEN doc_id % 4 = 1 THEN '/a/' || doc_id "
            "WHEN doc_id % 4 = 2 THEN '/x' ELSE '/' END AS url, "
            "strftime(DATE '2024-01-01' + to_days(CAST(doc_id % 28 AS INT)), "
            "'%Y-%m-%d') AS lastmod, "
            "['daily', 'weekly', 'monthly'][CAST(doc_id % 3 AS INT) + 1] "
            "AS changefreq, "
            "(doc_id % 10) / 10.0 AS priority FROM documents"
        ),
        "tpch_q3": (
            "WITH j AS (SELECT l_orderkey, o_orderdate, o_orderpriority, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1996-06-01' "
            "AND l_shipdate > TIMESTAMP '1996-06-01' "
            "GROUP BY l_orderkey, o_orderdate, o_orderpriority) "
            "SELECT l_orderkey, revenue_cents, o_orderdate, "
            "o_orderpriority FROM j "
            "ORDER BY revenue_cents DESC, o_orderdate, l_orderkey LIMIT 10"
        ),
        "tpch_q11": (
            "WITH pr AS (SELECT l_partkey AS p_partkey, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS cents "
            "FROM lineitem JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation ON n_nationkey = s_nationkey "
            "WHERE n_name = 'NATION_3' GROUP BY l_partkey), "
            "tot AS (SELECT sum(cents) AS t FROM pr) "
            "SELECT p_partkey, cents FROM pr, tot WHERE cents * 1000 > t"
        ),
        "tpch_q16": (
            "WITH excl AS (SELECT s_suppkey FROM supplier "
            "WHERE s_acctbal < 0), "
            "ps AS (SELECT DISTINCT l_partkey AS p_partkey, "
            "l_suppkey AS s_suppkey FROM lineitem "
            "WHERE l_suppkey NOT IN (SELECT s_suppkey FROM excl)) "
            "SELECT p_brand, p_type, p_size, "
            "CAST(count(DISTINCT s_suppkey) AS BIGINT) AS supplier_cnt "
            "FROM ps JOIN part USING (p_partkey) "
            "WHERE p_brand <> 'Brand#1' "
            "AND p_size IN (1, 5, 9, 13, 17, 21, 25, 29) "
            "GROUP BY p_brand, p_type, p_size"
        ),
        "tpch_q20": (
            "WITH tgt AS (SELECT p_partkey FROM part "
            "WHERE p_name LIKE 'red%'), "
            "ps AS (SELECT l_partkey, l_suppkey, "
            "CAST(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) "
            "AS q FROM lineitem JOIN tgt ON l_partkey = p_partkey "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1997-01-01' "
            "GROUP BY l_partkey, l_suppkey), "
            "ptot AS (SELECT l_partkey, sum(q) AS tq FROM ps "
            "GROUP BY l_partkey), "
            "dom AS (SELECT DISTINCT l_suppkey AS s_suppkey "
            "FROM ps JOIN ptot USING (l_partkey) WHERE 2 * q > tq) "
            "SELECT s.s_suppkey, s.s_name FROM dom "
            "JOIN supplier s USING (s_suppkey) "
            "JOIN nation ON n_nationkey = s_nationkey "
            "WHERE n_name IN ('NATION_3', 'NATION_7', 'NATION_11')"
        ),
        "tpch_q2": (
            "WITH rs AS (SELECT s_suppkey, s_name, s_acctbal, n_name "
            "FROM supplier JOIN nation ON n_nationkey = s_nationkey "
            "JOIN region ON r_regionkey = n_regionkey "
            "WHERE r_name = 'EUROPE'), "
            "unit AS (SELECT l_partkey AS pk, l_suppkey AS sk, "
            "CAST(min(CAST(FLOOR(l_extendedprice * 100 / l_quantity "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS unit_cents "
            "FROM lineitem JOIN rs ON rs.s_suppkey = l_suppkey "
            "GROUP BY l_partkey, l_suppkey), "
            "best AS (SELECT pk, min(unit_cents) AS mc FROM unit "
            "GROUP BY pk) "
            "SELECT u.pk AS p_partkey, u.sk AS s_suppkey, s_name, n_name, "
            "CAST(FLOOR(s_acctbal * 100 + 0.5) AS BIGINT) "
            "AS acctbal_cents, u.unit_cents "
            "FROM unit u JOIN best ON u.pk = best.pk "
            "AND u.unit_cents = best.mc "
            "JOIN rs ON rs.s_suppkey = u.sk "
            "JOIN part ON p_partkey = u.pk "
            "WHERE p_type = 'STANDARD' AND p_size < 25 "
            "ORDER BY acctbal_cents DESC, p_partkey ASC, s_suppkey ASC "
            "LIMIT 100"
        ),
        "tpch_q4": (
            "SELECT o_orderpriority, count(*) AS order_count FROM orders "
            "WHERE o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1996-04-01' "
            "AND EXISTS (SELECT 1 FROM lineitem "
            "WHERE l_orderkey = o_orderkey "
            "AND l_shipdate > o_orderdate + INTERVAL 90 DAY) "
            "GROUP BY o_orderpriority"
        ),
        "tpch_q8": (
            "SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year, "
            "CAST(sum(CASE WHEN n2.n_name = 'NATION_3' THEN "
            "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) "
            "AS BIGINT) ELSE 0 END) AS BIGINT) AS nation_cents, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS total_cents "
            "FROM part, supplier, lineitem, orders, customer, "
            "nation n1, nation n2, region "
            "WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey "
            "AND l_orderkey = o_orderkey AND o_custkey = c_custkey "
            "AND c_nationkey = n1.n_nationkey "
            "AND n1.n_regionkey = r_regionkey AND r_name = 'EUROPE' "
            "AND s_nationkey = n2.n_nationkey "
            "AND o_orderdate BETWEEN TIMESTAMP '1995-01-01' "
            "AND TIMESTAMP '1996-12-31' AND p_type = 'ECONOMY' "
            "GROUP BY o_year"
        ),
        "tpch_q9": (
            "SELECT n_name AS nation, "
            "CAST(year(o_orderdate) AS BIGINT) AS o_year, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT) - CAST(FLOOR(p_retailprice * l_quantity * "
            "100 + 0.5) AS BIGINT)) AS BIGINT) AS profit_cents "
            "FROM lineitem JOIN part ON p_partkey = l_partkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN orders ON o_orderkey = l_orderkey "
            "JOIN nation ON s_nationkey = n_nationkey "
            "WHERE p_name LIKE '%red%' GROUP BY n_name, o_year"
        ),
        "tpch_q12": (
            "SELECT l_linestatus, "
            "CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') "
            "THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count, "
            "CAST(sum(CASE WHEN o_orderpriority NOT IN "
            "('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) "
            "AS low_line_count "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY "
            "AND l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1997-01-01' "
            "GROUP BY l_linestatus"
        ),
        "tpch_q13": (
            "WITH oc AS (SELECT c_custkey, count(o_orderkey) AS c_count "
            "FROM customer LEFT JOIN orders ON c_custkey = o_custkey "
            "AND o_orderpriority <> '1-URGENT' GROUP BY c_custkey) "
            "SELECT c_count, count(*) AS custdist FROM oc "
            "GROUP BY c_count ORDER BY custdist DESC, c_count DESC"
        ),
        "tpch_q15": (
            "WITH rev AS (SELECT l_suppkey AS s_suppkey, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS total_revenue_cents "
            "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1996-04-01' GROUP BY l_suppkey) "
            "SELECT s_suppkey, s_name, total_revenue_cents "
            "FROM rev JOIN supplier USING (s_suppkey) "
            "WHERE total_revenue_cents = "
            "(SELECT max(total_revenue_cents) FROM rev)"
        ),
        "tpch_q17": (
            "WITH tgt AS (SELECT p_partkey FROM part "
            "WHERE p_brand = 'Brand#1' AND p_size < 10), "
            "li AS (SELECT l_partkey, "
            "CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS q, "
            "CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS c "
            "FROM lineitem JOIN tgt ON l_partkey = p_partkey), "
            "st AS (SELECT l_partkey, sum(q) AS s, count(*) AS n "
            "FROM li GROUP BY l_partkey) "
            "SELECT CAST(sum(c) AS BIGINT) AS sum_extprice_cents "
            "FROM li JOIN st USING (l_partkey) WHERE 5 * q * n < s"
        ),
        "tpch_q21": (
            "WITH l AS (SELECT l_orderkey, l_suppkey, "
            "(l_shipdate > o_orderdate + INTERVAL 60 DAY) AS late "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "WHERE o_orderstatus = 'F'), "
            "per AS (SELECT l_orderkey, l_suppkey, max(late) AS late "
            "FROM l GROUP BY l_orderkey, l_suppkey), "
            "ord AS (SELECT l_orderkey, count(*) AS n_supp, "
            "sum(CASE WHEN late THEN 1 ELSE 0 END) AS n_late "
            "FROM per GROUP BY l_orderkey) "
            "SELECT s_name, CAST(count(*) AS BIGINT) AS numwait "
            "FROM per JOIN ord USING (l_orderkey) "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "WHERE per.late AND n_supp >= 2 AND n_late = 1 "
            "GROUP BY s_name ORDER BY numwait DESC, s_name ASC LIMIT 100"
        ),
        "tpch_q22": (
            "WITH cust AS (SELECT c_custkey, c_nationkey, "
            "CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_cents "
            "FROM customer WHERE c_nationkey IN (1,3,5,7,9,11,13)), "
            "pos AS (SELECT sum(bal_cents) AS s, count(*) AS n "
            "FROM cust WHERE bal_cents > 0), "
            "idle AS (SELECT c_custkey, c_nationkey, bal_cents "
            "FROM cust, pos WHERE bal_cents * n > s "
            "AND NOT EXISTS (SELECT 1 FROM orders "
            "WHERE o_custkey = c_custkey "
            "AND o_orderdate >= TIMESTAMP '2000-06-01')) "
            "SELECT CAST(c_nationkey AS BIGINT) AS cntry, "
            "CAST(count(*) AS BIGINT) AS numcust, "
            "CAST(sum(bal_cents) AS BIGINT) AS totacctbal_cents "
            "FROM idle GROUP BY cntry"
        ),
        "tpch_q5": (
            "SELECT n_name, CAST(sum(CAST(FLOOR(l_extendedprice * "
            "(1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) "
            "AS revenue_cents "
            "FROM customer, orders, lineitem, supplier, nation, region "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
            "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
            "AND r_name = 'ASIA' "
            "AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1997-01-01' "
            "GROUP BY n_name"
        ),
        "tpch_q6": (
            "SELECT CAST(sum(CAST(FLOOR(l_extendedprice * l_discount * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1997-01-01' "
            "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
        ),
        "tpch_q10": (
            "SELECT c_custkey, c_name, c_acctbal, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE l_returnflag = 'R' "
            "AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1996-07-01' "
            "GROUP BY c_custkey, c_name, c_acctbal "
            "ORDER BY revenue_cents DESC, c_custkey ASC LIMIT 20"
        ),
        "tpch_q14": (
            "SELECT CAST(sum(CASE WHEN p_type = 'PROMO' THEN "
            "CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) "
            "AS BIGINT) ELSE 0 END) AS BIGINT) AS promo_cents, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS total_cents "
            "FROM lineitem JOIN part ON l_partkey = p_partkey "
            "WHERE l_shipdate >= TIMESTAMP '1996-09-01' "
            "AND l_shipdate < TIMESTAMP '1996-10-01'"
        ),
        "tpch_q18": (
            "WITH big AS (SELECT l_orderkey AS o_orderkey, "
            "CAST(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) "
            "AS sum_qty FROM lineitem GROUP BY l_orderkey "
            "HAVING sum_qty > 250) "
            "SELECT o_orderkey, o_custkey, o_orderdate, "
            "CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) "
            "AS totalprice_cents, sum_qty, c_name "
            "FROM big JOIN orders USING (o_orderkey) "
            "JOIN customer ON c_custkey = o_custkey "
            "ORDER BY sum_qty DESC, o_orderkey ASC LIMIT 100"
        ),
        "tpch_q19": (
            "SELECT CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) "
            "* 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM lineitem JOIN part ON l_partkey = p_partkey "
            "WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 15 "
            "AND l_quantity BETWEEN 1 AND 20) "
            "OR (p_brand = 'Brand#2' AND p_size BETWEEN 10 AND 30 "
            "AND l_quantity BETWEEN 10 AND 30) "
            "OR (p_brand = 'Brand#3' AND p_size BETWEEN 20 AND 50 "
            "AND l_quantity BETWEEN 20 AND 40)"
        ),
        "tpch_q7": (
            "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
            "CAST(year(l_shipdate) AS BIGINT) AS l_year, "
            "CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "JOIN customer ON c_custkey = o_custkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation n1 ON s_nationkey = n1.n_nationkey "
            "JOIN nation n2 ON c_nationkey = n2.n_nationkey "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1998-01-01' "
            "AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2') "
            "OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1')) "
            "GROUP BY supp_nation, cust_nation, l_year"
        ),
        "overlapping_sessions": (
            "WITH lagd AS (SELECT user_id, ts, event_id, lag(ts) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS prev "
            "FROM events), "
            "flagged AS (SELECT user_id, ts, event_id, CASE WHEN prev IS "
            "NULL OR epoch_us(ts) - epoch_us(prev) > 1800000000 THEN 1 "
            "ELSE 0 END AS new_s FROM lagd), "
            "sess AS (SELECT user_id, ts, sum(new_s) OVER (PARTITION BY "
            "user_id ORDER BY ts, event_id) AS sid FROM flagged), "
            "iv AS (SELECT user_id, sid, min(epoch_us(ts)) AS s_us, "
            "max(epoch_us(ts)) AS e_us FROM sess GROUP BY user_id, sid) "
            "SELECT a.user_id AS user_a, b.user_id AS user_b, "
            "count(*) AS n_overlaps FROM iv a JOIN iv b "
            "ON a.user_id < b.user_id AND a.s_us <= b.e_us "
            "AND b.s_us <= a.e_us GROUP BY 1, 2"
        ),
        "event_transitions": (
            "SELECT prev_type, event_type, count(*) AS n FROM ("
            "SELECT lag(event_type) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id) AS prev_type, event_type FROM events) "
            "WHERE prev_type IS NOT NULL GROUP BY prev_type, event_type"
        ),
        "funnel_users": (
            "SELECT DISTINCT v.user_id AS user_id "
            "FROM events v, events c, events p "
            "WHERE v.event_type = 'view' AND c.event_type = 'click' "
            "AND p.event_type = 'purchase' AND c.user_id = v.user_id "
            "AND p.user_id = v.user_id AND c.ts > v.ts AND p.ts > c.ts"
        ),
        "lineitem_pending_orders": (
            "SELECT o_orderpriority, count(*) AS n_items, "
            "sum(l_quantity) AS sum_qty FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "WHERE o_orderstatus = 'P' GROUP BY o_orderpriority"
        ),
        "orders_status_agg": (
            "SELECT o_custkey, string_agg(o_orderstatus, ',' "
            "ORDER BY o_orderkey) AS statuses FROM orders "
            "GROUP BY o_custkey"
        ),
        "quantity_stats_by_flag": (
            "WITH q AS (SELECT l_returnflag, "
            "CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS qi FROM lineitem), "
            "s AS (SELECT l_returnflag, count(*) AS n, "
            "CAST(sum(qi) AS BIGINT) AS sum_qty, "
            "CAST(sum(qi * qi) AS BIGINT) AS sq2 FROM q "
            "GROUP BY l_returnflag) "
            "SELECT l_returnflag, n, sum_qty, "
            "(CAST(sq2 AS DOUBLE) - CAST(sum_qty AS DOUBLE) * "
            "CAST(sum_qty AS DOUBLE) / n) / n AS var_qty FROM s"
        ),
        # minhash_pairs / simhash / langid / kg_* / multimodal_features:
        # deterministic but not ANSI-SQL-expressible (stable hashing, mock
        # LLM, heuristic scoring) -> rows-only checks.
        "tfrecord_source": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "table_schema_evolution": (
            "SELECT doc_id, text, "
            "CASE WHEN doc_id % 2 = 1 THEN lang END AS lang "
            "FROM documents"
        ),
        "mixture_sample": (
            "WITH toks AS (SELECT doc_id, source, "
            "len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens "
            "FROM documents), "
            "tot AS (SELECT source, CAST(sum(n_tokens) AS BIGINT) AS t "
            "FROM toks GROUP BY source), "
            "w(source, w) AS (VALUES ('src0', 4), ('src1', 2), "
            "('src2', 1), ('src3', 1)), "
            "th AS (SELECT source, least(1000000, "
            "CAST(3000 AS BIGINT) * w * 1000000 // (8 * t)) AS thresh "
            "FROM tot JOIN w USING (source)) "
            "SELECT doc_id, source, CAST(n_tokens AS BIGINT) AS n_tokens "
            "FROM toks JOIN th USING (source) "
            "WHERE CAST(concat('0x', substr(md5('mix' || doc_id), 1, 8)) "
            "AS UBIGINT) % 1000000 < thresh"
        ),
        "c4_clean": (
            "WITH pages AS (SELECT doc_id, "
            "substr(text, 1, 40) || '.' || chr(10) || substr(text, 41, 30) "
            "|| CASE WHEN doc_id % 3 = 0 THEN chr(10) || 'javascript ' || "
            "substr(text, 71, 20) || '.' ELSE '' END "
            "|| CASE WHEN doc_id % 11 = 0 THEN chr(10) || 'lorem ipsum' "
            "ELSE '' END "
            "|| CASE WHEN doc_id % 13 = 0 THEN chr(10) || 'brace { here.' "
            "ELSE '' END "
            "|| CASE WHEN doc_id % 2 = 0 THEN chr(10) || "
            "substr(text, 91, 50) || '?' ELSE '' END AS raw FROM documents), "
            "lines AS (SELECT doc_id, i, trim(list_extract("
            "regexp_split_to_array(raw, chr(10)), CAST(i+1 AS INT))) AS t "
            "FROM pages, LATERAL (SELECT unnest(range(0, "
            "len(regexp_split_to_array(raw, chr(10))))) AS i)), "
            "kept AS (SELECT doc_id, i, t FROM lines WHERE "
            "(t LIKE '%.' OR t LIKE '%!' OR t LIKE '%?' OR t LIKE '%\"') "
            "AND len(regexp_split_to_array(t, '\\s+')) >= 5 "
            "AND NOT contains(lower(t), 'javascript')), "
            "agg AS (SELECT doc_id, count(*) AS n_kept, "
            "string_agg(t, chr(10) ORDER BY i) AS joined FROM kept "
            "GROUP BY doc_id), "
            "flags AS (SELECT doc_id, NOT (contains(lower(raw), "
            "'lorem ipsum') OR contains(raw, '{')) AS raw_ok FROM pages) "
            "SELECT f.doc_id, "
            "CASE WHEN coalesce(a.n_kept, 0) >= 2 AND f.raw_ok "
            "THEN coalesce(a.joined, '') ELSE '' END AS clean_text, "
            "CAST(coalesce(a.n_kept, 0) AS BIGINT) AS n_kept_lines, "
            "(coalesce(a.n_kept, 0) >= 2 AND f.raw_ok) AS keep "
            "FROM flags f LEFT JOIN agg a USING (doc_id)"
        ),
        "bucketed_join_orders": (
            "SELECT c_nationkey, count(*) AS n_orders, "
            "CAST(sum(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) "
            "AS BIGINT) AS sum_cents "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_nationkey"
        ),
        "crawl_budget": (
            "WITH pages AS (SELECT 'host' || (doc_id % 40) || "
            "'.example.com' AS host FROM documents), "
            "per_host AS (SELECT host, CAST(count(*) AS BIGINT) AS "
            "n_pages, CAST(regexp_extract(host, '^host([0-9]+)', 1) "
            "AS BIGINT) AS k FROM pages GROUP BY host) "
            "SELECT host, n_pages, "
            "CAST(CASE WHEN k % 3 = 1 THEN 2000 ELSE 1000 END AS BIGINT) "
            "AS delay_ms, "
            "CAST(n_pages * (CASE WHEN k % 3 = 1 THEN 2000 ELSE 1000 END) "
            "AS BIGINT) AS budget_ms FROM per_host"
        ),
        "robots_allowed": (
            "WITH pages AS (SELECT doc_id, 'http://host' || (doc_id % 40) || "
            "'.example.com' || CASE WHEN doc_id % 4 = 0 THEN "
            "'/a/b/c/' || doc_id WHEN doc_id % 4 = 1 THEN "
            "'/a/' || doc_id WHEN doc_id % 4 = 2 THEN '/x' "
            "ELSE '/' END AS url FROM documents), "
            "parsed AS (SELECT doc_id, url, (doc_id % 40) AS k, "
            "coalesce(nullif(regexp_extract(url, "
            "'^https?://[^/]+(/[^?#]*)', 1), ''), '/') AS path "
            "FROM pages) "
            "SELECT doc_id, url, CASE "
            "WHEN k % 3 = 0 THEN (starts_with(path, '/a/b') "
            "OR NOT starts_with(path, '/a')) "
            "WHEN k % 3 = 1 THEN path <> '/x' "
            "ELSE TRUE END AS allowed FROM parsed"
        ),
        "url_prefix_counts": (
            "WITH pages AS (SELECT 'http://host' || (doc_id % 40) || "
            "'.example.com' || CASE WHEN doc_id % 4 = 0 THEN "
            "'/a/b/c/' || doc_id WHEN doc_id % 4 = 1 THEN "
            "'/a/' || doc_id WHEN doc_id % 4 = 2 THEN '/x' "
            "ELSE '/' END AS url FROM documents), "
            "parsed AS (SELECT "
            "regexp_extract(url, '^https?://([^/]+)', 1) AS host, "
            "coalesce(nullif(regexp_extract(url, "
            "'^https?://[^/]+(/[^?#]*)', 1), ''), '/') AS path "
            "FROM pages), "
            "seg AS (SELECT host, list_filter("
            "regexp_split_to_array(path, '/'), x -> x <> '') AS segs "
            "FROM parsed), "
            "pref AS (SELECT host, CASE WHEN i = 0 THEN '/' ELSE "
            "'/' || array_to_string(list_slice(segs, 1, CAST(i AS INT)), "
            "'/') END AS prefix FROM seg, LATERAL ("
            "SELECT unnest(range(0, len(segs)+1)) AS i)) "
            "SELECT host, prefix, count(*) AS n_pages "
            "FROM pref GROUP BY host, prefix"
        ),
        "html_links": (
            _WEBLINK_PAGES_SQL
            + _WEBLINK_RES_SQL
            + "SELECT doc_id, CAST(row_number() OVER ("
            "PARTITION BY doc_id ORDER BY i) AS BIGINT) AS idx, link "
            "FROM res WHERE link IS NOT NULL"
        ),
        "host_pagerank": _host_pagerank_oracle_sql(),
        "host_hits": _host_hits_oracle_sql(),
        "host_graph": (
            _WEBLINK_PAGES_SQL
            + _WEBLINK_RES_SQL
            + "SELECT regexp_extract(url, '^https?://([^/]+)', 1) "
            "AS src_host, "
            "regexp_extract(link, '^https?://([^/]+)', 1) AS dst_host, "
            "count(*) AS n_links "
            "FROM res WHERE link IS NOT NULL GROUP BY src_host, dst_host"
        ),
        **_textclean_oracles(),
        **_sketch_oracles(),
    }
