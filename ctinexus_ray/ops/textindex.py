"""Persisted inverted text index over the versioned table format.

``ops/textstats.py bm25_topk_docs`` re-reads and re-tokenizes the whole
corpus per query — right for a one-off ranking, wasteful when the
corpus is long-lived and queries arrive forever. This module makes the
postings a TABLE (the lexical sibling of ``ops/annindex.py``'s
persisted IVF index):

  * ``text_index_build`` — ONE tokenization pass explodes every doc to
    (term, doc_id, tf, dl) posting rows, buckets them by
    ``hash64(term) % num_buckets`` (a bucket holds ALL postings of its
    terms — term-complete by construction), writes one parquet file
    per bucket inside the bucket's own reduce task, and commits as a
    ``state/tableformat`` version with the corpus stats (n_docs,
    total_len) in the manifest's ``extra`` — atomic with the data, so
    a reader can never see postings without the N/avgdl they were
    built for.
  * ``text_index_append`` — tokenize NEW docs under the same bucket
    rule and append-commit, folding the doc/length totals into the
    manifest extra. Incremental ingestion: appends cost one tokenize
    pass over the new docs only; crash-safety and time travel come
    from the table format.
  * ``text_index_search`` — for a query's terms, read ONLY their
    buckets (``bucket IN (...)`` pushed into the parquet scan; one
    file per bucket makes that a file-level skip) and rank via the
    SHARED ``bm25_rank_postings``. Because buckets are term-complete,
    per-term df computed from the scanned rows equals the full-corpus
    df — the pruned search is EXACT, not approximate: its result must
    hash-match the full-scan BM25 (``bm25_topk``'s SQL twin), the same
    a-missed-row-would-mismatch argument as ``bloom_pruned_lookup``.

Scale notes: nothing corpus-sized touches the driver (df/idf are
|query|-sized; top-k merges block partials). Posting rows are
corpus-token-sized ONCE at build; a query scans ~|query|/num_buckets
of the index. Appends add one file per touched bucket per tick — run
``state/tableformat compact_table`` periodically (correctness is
filter-based, so compaction only trades file-skip sharpness, never
results). The reference has no retrieval index; its TF-IDF demo
retriever (`/root/reference/ctinexus/demo_retriever.py`) re-vectorizes
the demo corpus per process — this is that idea made persistent and
corpus-scale.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ctinexus_ray.ops.dedup import hash64_strings
from ctinexus_ray.ops.textstats import _tokens, bm25_rank_postings
from ctinexus_ray.state.tableformat import (
    applied_ids,
    commit_version,
    latest_version,
    read_version,
    version_extra,
)


def _posting_batches(batch: pa.Table, num_buckets: int, positions: bool):
    """(bucket, term, doc_id, tf, dl[, pos]) posting rows for one doc
    batch, plus the batch's (n_docs, total_len) combiner row (doc_id =
    -1, term NULL) so build/append learn corpus stats in the same pass.
    ``positions`` adds each posting's 0-based token-position list
    (list<int32>) — the phrase-query payload; tf == len(pos) by
    construction.

    Tokenization stays the Python ``_tokens`` splitter — it IS the
    cross-engine oracle contract (Python ``re`` \\s is Unicode-aware
    where Arrow/RE2's is not, so swapping kernels would silently change
    the token stream on exotic whitespace). Everything AFTER the split
    is vectorized: profiling at 10k docs/batch showed the per-token
    dict accumulation at 78% of the map (0.37s of 0.47s) vs 22% for
    the split itself — replaced with factorize + one int64 key sort
    (measured ~3x on the map stage; parity pinned row-multiset-equal
    in tests)."""
    import pandas as pd

    ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    tok_lists = [_tokens(t or "") for t in texts]
    counts = np.fromiter(
        (len(tl) for tl in tok_lists), dtype=np.int64, count=len(tok_lists)
    )
    total = int(counts.sum())
    stat_docs, stat_len = len(texts), total
    flat = np.empty(total, dtype=object)
    i = 0
    for tl in tok_lists:
        flat[i : i + len(tl)] = tl
        i += len(tl)
    if total:
        codes, uniques = pd.factorize(flat, sort=False)
        uniques = np.asarray(uniques, dtype=object)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        key = doc_idx * len(uniques) + codes
        order = np.argsort(key, kind="stable")
        uniq_keys, tf = np.unique(key[order], return_counts=True)
        u_doc = uniq_keys // len(uniques)
        u_code = uniq_keys % len(uniques)
        terms = uniques[u_code]
        out_ids = ids_np[u_doc].astype(np.int64)
        dls = counts[u_doc]
        b = (hash64_strings(list(terms)) % np.uint64(num_buckets)).astype(
            np.int64
        )
        if positions:
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            pos_global = np.arange(total, dtype=np.int64) - starts[doc_idx]
            pos_sorted = pos_global[order]  # stable: ascending per key
            offs = np.zeros(len(tf) + 1, dtype=np.int32)
            np.cumsum(tf, out=offs[1:])
            pos_arr = pa.ListArray.from_arrays(
                pa.array(offs), pa.array(pos_sorted.astype(np.int32))
            )
    else:
        terms = np.empty(0, dtype=object)
        out_ids = np.empty(0, dtype=np.int64)
        tf = np.empty(0, dtype=np.int64)
        dls = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=np.int64)
        if positions:
            pos_arr = pa.ListArray.from_arrays(
                pa.array(np.zeros(1, dtype=np.int32)),
                pa.array(np.empty(0, dtype=np.int32)),
            )
    def with_stat(arr: np.ndarray, stat: int) -> pa.Array:
        return pa.concat_arrays(
            [
                pa.array(arr.astype(np.int64), type=pa.int64()),
                pa.array([stat], type=pa.int64()),
            ]
        )

    cols = {
        "bucket": with_stat(b, -1),
        "term": pa.concat_arrays(
            [
                pa.array(terms, type=pa.string()),
                pa.array([None], type=pa.string()),
            ]
        ),
        "doc_id": with_stat(out_ids, -1),
        "tf": with_stat(tf, stat_docs),
        "dl": with_stat(dls, stat_len),
    }
    if positions:
        null_row = pa.array([None], type=pa.list_(pa.int32()))
        cols["pos"] = pa.concat_arrays(
            [pos_arr.cast(pa.list_(pa.int32())), null_row]
        )
    return pa.Table.from_pydict(cols)


def _write_buckets(
    docs: ray.data.Dataset, table_dir: str, num_buckets: int,
    positions: bool = False,
) -> tuple[list[str], int, int]:
    """Explode postings, write one parquet file per bucket (inside the
    bucket's own reduce task), and return (paths, n_docs, total_len)."""
    data_dir = os.path.join(table_dir, f"buckets-{uuid.uuid4().hex[:12]}")
    os.makedirs(data_dir, exist_ok=True)

    posted = (
        docs.select_columns(["doc_id", "text"])
        .map_batches(
            lambda t: _posting_batches(t, num_buckets, positions),
            batch_format="pyarrow",
        )
        .materialize()  # consumed twice: stats row + bucket writes
    )

    import pyarrow.compute as pc

    stats = (
        posted.map_batches(
            lambda t: t.filter(pc.equal(t.column("bucket"), -1)),
            batch_format="pyarrow",
        )
        .aggregate(
            ray.data.aggregate.Sum("tf", alias_name="n_docs"),
            ray.data.aggregate.Sum("dl", alias_name="total_len"),
        )
    )
    n_docs = int(stats["n_docs"] or 0)
    total_len = int(stats["total_len"] or 0)

    def write_bucket(g):
        import pyarrow.parquet as pq

        bucket = int(g["bucket"].iloc[0])
        cols = {
            "bucket": pa.array(g["bucket"].to_numpy(), type=pa.int64()),
            "term": pa.array(g["term"].tolist(), type=pa.string()),
            "doc_id": pa.array(g["doc_id"].to_numpy(), type=pa.int64()),
            "tf": pa.array(g["tf"].to_numpy(), type=pa.int64()),
            "dl": pa.array(g["dl"].to_numpy(), type=pa.int64()),
        }
        if "pos" in g.columns:
            cols["pos"] = pa.array(
                [list(v) for v in g["pos"]], type=pa.list_(pa.int32())
            )
        t = pa.Table.from_pydict(cols)
        path = os.path.join(data_dir, f"bucket-{bucket:05d}.parquet")
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        import pandas as pd

        return pd.DataFrame({"path": [path]})

    written = (
        posted.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("bucket"), -1)),
            batch_format="pyarrow",
        )
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pandas")
        .take_all()
    )
    return sorted(r["path"] for r in written), n_docs, total_len


def text_index_build(
    docs: ray.data.Dataset, table_dir: str, num_buckets: int = 64,
    batch_id: str | list[str] | None = None,
    positions: bool = False,
) -> int | None:
    """Build (or rebuild) the inverted index; returns the committed
    version. Overwrite semantics: a rebuild replaces the file set.
    ``batch_id`` extends the applied-batch ledger (see
    ``text_index_append``) for callers folding an ingestion stream; a
    LIST marks several batches applied in the one atomic commit — the
    rebuild-from-latest path, where the fresh index already covers
    every corpus version. An id already applied commits nothing and
    returns None. ``positions=True`` stores each posting's
    token-position list so ``text_index_phrase`` serves phrase queries
    index-pruned (appends inherit the flag from the manifest)."""
    paths, n_docs, total_len = _write_buckets(
        docs, table_dir, num_buckets, positions
    )
    return commit_version(
        table_dir,
        paths,
        mode="overwrite",
        extra={
            "text_index": {
                "num_buckets": num_buckets,
                "n_docs": n_docs,
                "total_len": total_len,
                "positions": positions,
            }
        },
        batch_ids=[batch_id] if isinstance(batch_id, str) else batch_id,
    )


def _latest_meta(table_dir: str) -> tuple[int, dict]:
    """(latest version, its text_index metadata). A commit derived from
    that metadata pins the version as ``expected_parent``."""
    version = latest_version(table_dir)
    meta = (
        version_extra(table_dir, version).get("text_index")
        if version is not None
        else None
    )
    if not meta:
        raise FileNotFoundError(
            f"{table_dir} has no text_index metadata — build first"
        )
    return version, meta


def text_index_append(
    docs: ray.data.Dataset, table_dir: str, batch_id: str | None = None
) -> int | None:
    """Tokenize NEW docs under the existing bucket rule and
    append-commit, folding the corpus totals into the manifest extra.
    Callers own doc_id uniqueness across appends (duplicate ids would
    double-count postings, like any append-only ingest).

    ``batch_id`` makes the append EXACTLY-ONCE across crash/replay:
    ``commit_version`` keeps the ledger of applied ids IN the manifest
    (atomic with the posting files); a replayed id returns None without
    touching the index. Returns the committed version otherwise. A
    concurrent commit between reading the totals and committing raises
    ``ConcurrentWriteError`` instead of overwriting its totals."""
    parent, meta = _latest_meta(table_dir)
    if batch_id is not None and batch_id in applied_ids(table_dir, parent):
        return None
    paths, n_docs, total_len = _write_buckets(
        docs, table_dir, int(meta["num_buckets"]),
        positions=bool(meta.get("positions", False)),
    )
    return commit_version(
        table_dir,
        paths,
        mode="append",
        extra={
            "text_index": {
                "num_buckets": int(meta["num_buckets"]),
                "n_docs": int(meta["n_docs"]) + n_docs,
                "total_len": int(meta["total_len"]) + total_len,
                "positions": bool(meta.get("positions", False)),
            }
        },
        expected_parent=parent,
        batch_ids=[batch_id] if batch_id else None,
    )


def text_index_search(
    table_dir: str,
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.5,
    b: float = 0.75,
    version: int | None = None,
) -> pa.Table:
    """BM25 top-k over the PERSISTED index: scan only the query terms'
    buckets (file-level skip via the pushed ``bucket IN (...)`` filter)
    and rank with the shared ``bm25_rank_postings``. Exact by
    construction — buckets are term-complete, so df from the scanned
    rows equals full-corpus df and the result hash-matches the
    full-scan ``bm25_topk_docs`` on the same corpus."""
    import pyarrow.dataset as pads

    terms = sorted(set(query_terms))
    if not terms:
        raise ValueError("query_terms must be non-empty")
    meta = version_extra(table_dir, version).get("text_index")
    if not meta:
        raise FileNotFoundError(
            f"{table_dir} has no text_index metadata — build first"
        )
    n_docs = int(meta["n_docs"])
    if n_docs == 0:
        return pa.Table.from_pydict(
            {
                "rn": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "score_micro": pa.array([], type=pa.int64()),
            }
        )
    avgdl = float(meta["total_len"]) / n_docs  # same division as build path
    want = sorted(
        {
            int(h % np.uint64(int(meta["num_buckets"])))
            for h in hash64_strings(terms)
        }
    )
    matches = read_version(
        table_dir,
        version=version,
        columns=["term", "doc_id", "tf", "dl"],
        filter=pads.field("bucket").isin(want) & pads.field("term").isin(terms),
    ).map_batches(
        # relabel BY NAME (term->word): positional rename_columns would
        # silently mislabel columns if the table-format read path ever
        # reordered its projection
        lambda t: pa.table(
            {
                "word": t.column("term"),
                "doc_id": t.column("doc_id"),
                "tf": t.column("tf"),
                "dl": t.column("dl"),
            }
        ),
        batch_format="pyarrow",
    )
    return bm25_rank_postings(matches, n_docs, avgdl, k=k, k1=k1, b=b)


def text_index_boolean(
    table_dir: str,
    terms: list[str],
    mode: str = "and",
    version: int | None = None,
) -> ray.data.Dataset:
    """Boolean retrieval over the persisted index: doc_ids containing
    ALL query terms (``mode="and"``, posting intersection) or ANY
    (``mode="or"``, posting union) — the unranked sibling of
    ``text_index_search``, same bucket-pruned scan. AND = one
    hash-partitioned distinct-term count per doc compared to |terms|
    (postings are one row per (term, doc), so the count IS the distinct
    count); OR = one distinct-doc reduce. Exact by the same
    term-complete-bucket argument."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from ctinexus_ray.ops.groupagg import partitioned_agg

    tset = sorted(set(terms))
    if not tset:
        raise ValueError("terms must be non-empty")
    if mode not in ("and", "or"):
        raise ValueError("mode must be 'and' or 'or'")
    meta = version_extra(table_dir, version).get("text_index")
    if not meta:
        raise FileNotFoundError(
            f"{table_dir} has no text_index metadata — build first"
        )
    want = sorted(
        {
            int(h % np.uint64(int(meta["num_buckets"])))
            for h in hash64_strings(tset)
        }
    )
    postings = read_version(
        table_dir,
        version=version,
        columns=["doc_id"],
        filter=pads.field("bucket").isin(want) & pads.field("term").isin(tset),
    )
    hits = partitioned_agg(
        postings,
        keys=["doc_id"],
        named_aggs={"n_terms": ("doc_id", "size")},
        num_partitions=16,
    )
    if mode == "or":
        return hits.select_columns(["doc_id"])
    k = len(tset)
    return hits.map_batches(
        lambda t: t.filter(pc.equal(t.column("n_terms"), k)).select(
            ["doc_id"]
        ),
        batch_format="pyarrow",
    )


def text_index_phrase(
    table_dir: str,
    words: list[str],
    num_partitions: int | None = None,
    version: int | None = None,
) -> ray.data.Dataset:
    """Exact phrase search served FROM the persisted index — the
    index-pruned sibling of ``ops/textstats.py phrase_match_counts``
    (whose per-query corpus re-tokenization this retires): documents
    containing the K-word phrase as consecutive whitespace tokens, with
    per-document match counts — (doc_id, n_matches).

    Plan: scan ONLY the phrase words' buckets (``bucket IN (...)`` +
    ``term IN (...)`` pushed into the parquet read — requires an index
    built with ``positions=True``), explode each posting's stored
    position list to (doc_id, anchor = pos - k, 1 << k) per slot k of
    the word, then the same ONE hash-partitioned bitmask sum: an anchor
    summing to 2^K - 1 has every slot occupied. Exact by
    term-completeness — every posting of every phrase word lives in a
    scanned bucket, so the anchor sums equal the full-scan plan's
    (pinned ✓SQL against the positional self-join twin, including after
    an append tick). Repeated phrase words work verbatim (a word
    occupies several slots).

    At 100 TB: the scan is |phrase words|/num_buckets of the index;
    exploded volume is occurrences-of-phrase-words; both reduces
    hash-partitioned — nothing corpus-sized moves."""
    import pyarrow.dataset as pads

    from ctinexus_ray.ops.groupagg import partitioned_agg

    if not words or any(not w or w != w.strip() or " " in w for w in words):
        raise ValueError("words must be non-empty single tokens")
    K = len(words)
    if K > 62:
        raise ValueError("phrase too long for the int64 bitmask plan")
    full = (1 << K) - 1
    meta = version_extra(table_dir, version).get("text_index")
    if not meta:
        raise FileNotFoundError(
            f"{table_dir} has no text_index metadata — build first"
        )
    if not meta.get("positions"):
        raise ValueError(
            f"{table_dir} was built without positions=True — phrase "
            "queries need positional postings (rebuild with "
            "text_index_build(..., positions=True))"
        )
    slots: dict[str, list[int]] = {}
    for k, w in enumerate(words):
        slots.setdefault(w, []).append(k)
    tset = sorted(slots)
    want = sorted(
        {
            int(h % np.uint64(int(meta["num_buckets"])))
            for h in hash64_strings(tset)
        }
    )
    postings = read_version(
        table_dir,
        version=version,
        columns=["term", "doc_id", "dl", "pos"],
        filter=pads.field("bucket").isin(want) & pads.field("term").isin(tset),
    )

    def to_anchors(batch: pa.Table) -> pa.Table:
        docs_, anchors_, bits_ = [], [], []
        for term, doc_id, dl, plist in zip(
            batch.column("term").to_pylist(),
            batch.column("doc_id").to_pylist(),
            batch.column("dl").to_pylist(),
            batch.column("pos").to_pylist(),
        ):
            pos = np.asarray(plist, dtype=np.int64)
            for k in slots[term]:
                a = pos - k
                a = a[(a >= 0) & (a <= dl - K)]
                if len(a):
                    docs_.append(np.full(len(a), doc_id, dtype=np.int64))
                    anchors_.append(a)
                    bits_.append(np.full(len(a), 1 << k, dtype=np.int64))
        i64 = pa.int64()
        empty = np.zeros(0, dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(
                    np.concatenate(docs_) if docs_ else empty, type=i64
                ),
                "anchor": pa.array(
                    np.concatenate(anchors_) if anchors_ else empty, type=i64
                ),
                "bit": pa.array(
                    np.concatenate(bits_) if bits_ else empty, type=i64
                ),
            }
        )

    anchors = partitioned_agg(
        postings.map_batches(to_anchors, batch_format="pyarrow"),
        keys=["doc_id", "anchor"],
        named_aggs={"mask": ("bit", "sum")},
        num_partitions=num_partitions,
    )
    hits = anchors.filter(expr=f"mask == {full}")
    return partitioned_agg(
        hits.select_columns(["doc_id"]),
        keys=["doc_id"],
        named_aggs={"n_matches": ("doc_id", "size")},
        num_partitions=num_partitions,
    )


def text_index_delete(
    table_dir: str,
    doc_ids,
    batch_id: str | None = None,
    max_broadcast_ids: int = 4_000_000,
) -> int | None:
    """Retire every posting of the given documents — the delete half of
    the index lifecycle (dedup keep-paths and GDPR-style erasure both
    produce doc-id drop sets). Copy-on-write via the SHARED
    ``state/tableformat.cow_delete_rows`` (one ``np.isin`` rewrite task
    per file, untouched files by reference, collision-proof output
    names — a bucket touched by both a build and an append commit has
    two files with the SAME basename, which a basename-keyed rewrite
    would silently weld). Corpus stats (n_docs / total_len, and so
    avgdl) fold DOWN by the dropped docs' exact counts — deduplicated
    across files (every file sees a doc's dl identically) — atomically
    with the commit, so pruned BM25 over the survivors equals a fresh
    build over the surviving corpus (the ✓SQL contract).

    ``doc_ids``: int list / numpy array, or a Dataset with a
    ``doc_id`` column (materialized ONCE, capped at
    ``max_broadcast_ids`` with a loud refusal — shard the deletion
    upstream above that). ``batch_id`` gives the delete the same
    manifest-ledger exactly-once as appends. Deleting absent ids is a
    no-op per id. Returns the committed version, or None when the
    batch was already applied."""
    from ctinexus_ray.state.tableformat import (
        collect_delete_ids,
        cow_delete_rows,
        version_files,
    )

    snapshot_v, meta = _latest_meta(table_dir)
    bids = [batch_id] if batch_id else None
    if bids and batch_id in applied_ids(table_dir, snapshot_v):
        return None
    ids = collect_delete_ids(doc_ids, "doc_id", max_broadcast_ids)
    files = version_files(table_dir, snapshot_v)
    data_dir = os.path.join(table_dir, f"buckets-{uuid.uuid4().hex[:12]}")
    os.makedirs(data_dir, exist_ok=True)
    new_files, captured = cow_delete_rows(
        files, "doc_id", ids, data_dir, capture_cols=["doc_id", "dl"]
    )
    if not captured:
        # nothing matched: no new version for a no-change delete tick —
        # record the batch id (exactly-once) via a ledger-only commit,
        # or return None when there is nothing to record
        os.rmdir(data_dir)
        if bids:
            return commit_version(table_dir, [], "append", batch_ids=bids)
        return None
    seen: dict[int, int] = {}
    for cap in captured:
        for d, dl in zip(
            cap.column("doc_id").to_pylist(), cap.column("dl").to_pylist()
        ):
            seen[d] = dl  # dl identical across a doc's postings
    n_docs = int(meta["n_docs"]) - len(seen)
    total_len = int(meta["total_len"]) - sum(seen.values())
    return commit_version(
        table_dir,
        new_files,
        mode="overwrite",
        expected_parent=snapshot_v,
        extra={
            "text_index": {
                **meta,
                "n_docs": n_docs,
                "total_len": total_len,
            }
        },
        batch_ids=bids,
    )


def text_index_proximity(
    table_dir: str,
    word_a: str,
    word_b: str,
    window: int,
    num_partitions: int | None = None,
    version: int | None = None,
) -> ray.data.Dataset:
    """Proximity search from the positional index: documents where
    ``word_a`` and ``word_b`` co-occur within ``window`` tokens
    (|pos_a - pos_b| <= window, either order), with per-document
    co-occurrence counts — (doc_id, n_pairs). The third query family
    the stored positions serve (BM25 ranks, phrase = adjacency,
    proximity = windowed co-occurrence — the "near" operator of
    classic IR engines).

    Plan: scan ONLY the two words' buckets, then per (doc) pair the two
    sorted position lists with a two-pointer-free vectorized
    searchsorted count: for each a-position, matches = #b in
    [a-window, a+window]. Exact by term-completeness. Both words equal
    counts ordered pairs of DISTINCT positions. Volume is
    occurrences-of-the-two-words; one hash-partitioned reduce."""
    import pyarrow.dataset as pads

    for w in (word_a, word_b):
        if not w or w != w.strip() or " " in w:
            raise ValueError("words must be non-empty single tokens")
    if window < 1:
        raise ValueError("window must be >= 1")
    meta = version_extra(table_dir, version).get("text_index")
    if not meta:
        raise FileNotFoundError(
            f"{table_dir} has no text_index metadata — build first"
        )
    if not meta.get("positions"):
        raise ValueError(
            f"{table_dir} was built without positions=True — proximity "
            "queries need positional postings"
        )
    tset = sorted({word_a, word_b})
    want = sorted(
        {
            int(h % np.uint64(int(meta["num_buckets"])))
            for h in hash64_strings(tset)
        }
    )
    postings = read_version(
        table_dir,
        version=version,
        columns=["term", "doc_id", "pos"],
        filter=pads.field("bucket").isin(want) & pads.field("term").isin(tset),
    )

    same = word_a == word_b

    # reduce: group postings by doc, pair the (<=2) position lists
    def count_pairs(batch: pa.Table) -> pa.Table:
        import collections

        per_doc: dict[int, dict[str, np.ndarray]] = collections.defaultdict(
            dict
        )
        for term, doc_id, plist in zip(
            batch.column("term").to_pylist(),
            batch.column("doc_id").to_pylist(),
            batch.column("pos").to_pylist(),
        ):
            per_doc[doc_id][term] = np.asarray(plist, dtype=np.int64)
        ids, ns = [], []
        for doc_id, terms in per_doc.items():
            if same:
                a = terms.get(word_a)
                if a is None or len(a) < 2:
                    continue
                lo = np.searchsorted(a, a - window, side="left")
                hi = np.searchsorted(a, a + window, side="right")
                n = int((hi - lo - 1).sum())  # exclude self-pairs
            else:
                a, bp = terms.get(word_a), terms.get(word_b)
                if a is None or bp is None:
                    continue
                lo = np.searchsorted(bp, a - window, side="left")
                hi = np.searchsorted(bp, a + window, side="right")
                n = int((hi - lo).sum())
            if n:
                ids.append(doc_id)
                ns.append(n)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_pairs": pa.array(ns, type=pa.int64()),
            }
        )

    # hash-partition by doc so both words' postings of a doc co-locate
    from ctinexus_ray.ops.groupagg import hash_reduce

    return hash_reduce(
        postings, ["doc_id"], count_pairs,
        num_partitions=num_partitions or 16, batch_format="pyarrow",
    )
