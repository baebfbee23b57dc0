"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding near-dup.

Each operator is a composition of ``map_batches`` (vectorized partials) and
hash-partitioned shuffles with vectorized per-partition reduces — the
minimum-shuffle shapes for corpus-scale dedup (see ``groupagg`` for why
built-in per-key aggregates don't scale to corpus-cardinality keys):

  exact          hash(text) partition -> pandas min/size per partition
  minhash-lsh    shingle -> 64-perm minhash (numpy) -> band buckets ->
                 groupby(bucket mod P) -> vectorized self-merge (or STAR
                 edges on dup-heavy corpora) -> distinct -> verify
  simhash        per-doc 64-bit signature (no shuffle); near-dup pairs via
                 pigeonhole banding + the same partition-merge + exact
                 Hamming verify
  ngram-jaccard  shingle inverted index keyed by hash(shingle) mod P ->
                 per-partition merge emits one row per common shingle ->
                 partitioned count/max reduce -> |A∩B| / (|A|+|B|-|A∩B|)
  embedding      blockwise cosine vs a broadcast matrix (brute force), or
                 hyperplane-LSH buckets for the scale path
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


# --- vectorized string hashing ---------------------------------------------
#
# The hot dedup stages (minhash shingles, simhash word features, inverted-
# index partition keys) hash MILLIONS of short strings per batch; a per-
# string blake2b loop was measurable in round-1 profiles. hash64_strings
# hashes a whole string column in numpy: positional polynomial combine of
# (byte+1) * P^pos summed per string via np.add.reduceat, finalized with a
# splitmix64 mixer and the length hash. Everything wraps mod 2^64
# (deterministic, platform-independent); quality is adequate for
# partitioning / minhash permutations (not cryptographic).

_P64 = np.uint64(0x100000001B3)  # odd -> positional powers cycle well


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash64_strings(strings) -> np.ndarray:
    """Vectorized uint64 hash of a sequence/arrow array of strings.
    Accepts a Python list, pyarrow Array/ChunkedArray; nulls hash as ""."""
    if isinstance(strings, pa.ChunkedArray):
        arr = strings.combine_chunks().cast(pa.large_string())
    elif isinstance(strings, pa.Array):
        arr = strings.cast(pa.large_string())
    else:
        arr = pa.array(list(strings), type=pa.large_string())
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if arr.null_count:
        arr = arr.fill_null("")
    raw_offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    offsets = raw_offsets[arr.offset : arr.offset + n + 1]
    lens = (offsets[1:] - offsets[:-1]).astype(np.uint64)
    total = int(offsets[-1] - offsets[0])
    len_mix = _splitmix64(lens * np.uint64(0xD6E8FEB86659FD93))
    if total == 0:
        return len_mix
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[
        offsets[0] : offsets[-1]
    ]
    starts = (offsets[:-1] - offsets[0]).astype(np.int64)
    max_len = int(lens.max())
    # P^pos for pos within string (wraps mod 2^64)
    ppow = np.empty(max_len, dtype=np.uint64)
    ppow[0] = 1
    if max_len > 1:
        np.cumprod(np.full(max_len - 1, _P64, dtype=np.uint64), out=ppow[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens.astype(np.int64))
    contrib = (data.astype(np.uint64) + np.uint64(1)) * ppow[pos]
    # reduceat: pad so a trailing empty segment can't index out of bounds,
    # then zero the rows reduceat mangles for empty segments
    padded = np.concatenate([contrib, np.zeros(1, dtype=np.uint64)])
    sums = np.add.reduceat(padded, np.minimum(starts, total))
    sums[lens == 0] = 0
    return _splitmix64(sums ^ len_mix)


def list_col_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, dim) numpy matrix from an Arrow ``list<float>`` column WITHOUT
    per-row Python conversion: flatten the Arrow values buffer and
    reshape. Requires non-null, uniform-length lists (true for embedding
    columns); raises on ragged input rather than silently mangling."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    if col.null_count:
        raise ValueError("embedding column contains nulls")
    if isinstance(col.type, pa.ExtensionType):
        # Ray re-encodes numpy-array object columns that round-trip
        # through pandas (e.g. after a map_groups) as its ArrowTensorArray
        # extension; its to_numpy is already the (n, dim) matrix
        mat = col.to_numpy(zero_copy_only=False)
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError("ragged tensor column; expected uniform dim")
        return np.ascontiguousarray(mat.astype(dtype, copy=False))
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        flat = col.values.to_numpy(zero_copy_only=False)
        flat = flat[col.offset * dim : (col.offset + n) * dim]
    else:
        offs = np.asarray(col.offsets)
        lens = np.diff(offs)
        dim = int(lens[0])
        if not np.all(lens == dim):
            raise ValueError("ragged list column; expected uniform embedding dim")
        flat = col.flatten().to_numpy(zero_copy_only=False)
    return np.ascontiguousarray(
        flat.reshape(n, dim).astype(dtype, copy=False)
    )


def word_shingles(text: str, n: int = 3) -> set[str]:
    """Distinct word n-gram shingles of trimmed whitespace-split text.
    Matches the SQL formulation (1-indexed slices over
    regexp_split_to_array) used by the oracle."""
    words = text.strip().split()
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_groups(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Group identical texts; keep the smallest doc_id as the survivor.
    One hash shuffle on the text-hash key with a vectorized per-partition
    reduce (distinct texts grow with the corpus — see groupagg module).
    Returns (doc_id, n_dups)."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    agg = partitioned_agg(
        docs.select_columns(["doc_id", "text"]),
        keys=["text"],
        named_aggs={"doc_id": ("doc_id", "min"), "n_dups": ("doc_id", "size")},
    )
    return agg.select_columns(["doc_id", "n_dups"])


def exact_dedup_keep(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Survivor doc_ids only (dedup filter output)."""
    groups = exact_dedup_groups(docs)
    return groups.select_columns(["doc_id"])


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


@lru_cache(maxsize=8)
def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) permutation parameters derived from blake2b —
    no RNG state, reproducible everywhere; cached per process so
    MinHashStage construction is cheap enough for stateless tasks."""
    a = np.array(
        [(_hash64(f"mh-a-{seed}-{i}".encode()) % (_MERSENNE - 1)) + 1 for i in range(num_perm)],
        dtype=np.uint64,
    )
    b = np.array(
        [_hash64(f"mh-b-{seed}-{i}".encode()) % _MERSENNE for i in range(num_perm)],
        dtype=np.uint64,
    )
    return a, b


_SHINGLE_C = np.uint64(0x9DDFEA08EB382D69)  # window fold multiplier
_SIG_SLAB = 32768  # shingles per signature slab (bounds the perm matrix)


class MinHashStage:
    """Per-document MinHash signature + LSH band keys — fully vectorized.

    Stateless-cheap: the permutation params are deterministic and cached
    per process (``_minhash_params``), so this runs as plain
    ``map_batches`` tasks — no actor pool, no startup latency, full task
    parallelism.

    Per batch, the only per-row Python is ``text.split()``; everything
    downstream is numpy over flat arrays: word hashes (``hash64_strings``),
    shingle hashes (a masked sliding-window fold over the word-hash array,
    so a doc with fewer than ``shingle_n`` words naturally folds its whole
    word list — mirroring ``word_shingles``' single joined shingle), the
    (num_perm x shingles) permutation products in bounded slabs with
    ``np.minimum.reduceat`` per doc, and band buckets as a splitmix64 fold
    over each band's signature rows. Duplicate shingles need no dedupe: a
    min over a multiset equals the min over its set.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_n: int = 3):
        assert num_perm % bands == 0
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n
        self.a, self.b = _minhash_params(num_perm)

    def _shingle_hashes(
        self, texts: list[str | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """-> (flat shingle-hash array mod Mersenne, shingle count per doc)."""
        n_gram = self.shingle_n
        word_lists = [(t or "").strip().split() for t in texts]
        n_words = np.fromiter(
            (len(w) for w in word_lists), dtype=np.int64, count=len(word_lists)
        )
        flat: list[str] = [w for words in word_lists for w in words]
        H = hash64_strings(flat)
        word_start = np.concatenate(([0], np.cumsum(n_words)))[:-1]
        # windows: docs with >= n words slide; 1..n-1 words fold them all
        cnt = np.where(n_words > 0, np.maximum(n_words - n_gram + 1, 1), 0)
        total = int(cnt.sum())
        if total == 0:
            return np.zeros(0, dtype=np.uint64), cnt
        seg_start = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        ws = (
            np.repeat(word_start, cnt)
            + np.arange(total, dtype=np.int64)
            - np.repeat(seg_start, cnt)
        )
        wlen = np.repeat(np.minimum(n_words, n_gram), cnt)
        sh = H[ws].copy()
        for j in range(1, n_gram):
            m = wlen > j
            sh[m] = sh[m] * _SHINGLE_C + H[ws[m] + j]
        return _splitmix64(sh) % _MERSENNE, cnt

    def signatures(self, texts: list[str | None]) -> np.ndarray:
        """(n_docs, num_perm) uint64 signature matrix (empty docs get the
        all-MERSENNE sentinel row)."""
        sh, cnt = self._shingle_hashes(texts)
        sigs = np.full((len(cnt), self.num_perm), _MERSENNE, dtype=np.uint64)
        nonempty = np.nonzero(cnt)[0]
        if not len(nonempty):
            return sigs
        seg_start = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        # slab over docs so the (num_perm x shingles) matrix stays bounded
        lo = 0
        while lo < len(nonempty):
            hi = lo
            shingles = 0
            while hi < len(nonempty) and (
                shingles == 0 or shingles + cnt[nonempty[hi]] <= _SIG_SLAB
            ):
                shingles += cnt[nonempty[hi]]
                hi += 1
            docs = nonempty[lo:hi]
            s0 = seg_start[docs[0]]
            s1 = seg_start[docs[-1]] + cnt[docs[-1]]
            block = sh[s0:s1]
            products = (self.a[:, None] * block[None, :] + self.b[:, None]) % _MERSENNE
            starts = (seg_start[docs] - s0).astype(np.int64)
            sigs[docs, :] = np.minimum.reduceat(products, starts, axis=1).T
            lo = hi
        return sigs

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch.column("text").to_pylist()
        sigs = self.signatures(texts)
        n = len(doc_ids)
        # band buckets: splitmix64 fold over each band's signature rows
        s3 = sigs.reshape(n, self.bands, self.rows_per_band)
        h = _splitmix64(s3[:, :, 0] * _SHINGLE_C)
        for j in range(1, self.rows_per_band):
            h = _splitmix64(h ^ (s3[:, :, j] * _SHINGLE_C))
        h ^= _splitmix64(
            np.arange(self.bands, dtype=np.uint64)[None, :] + np.uint64(0xB5)
        )
        buckets = (h >> np.uint64(1)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(np.repeat(doc_ids, self.bands), type=pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), n),
                    type=pa.int32(),
                ),
                "bucket": pa.array(buckets.ravel(), type=pa.int64()),
            }
        )


def _minhash_rows(
    batch: pa.Table, num_perm: int, bands: int, shingle_n: int
) -> pa.Table:
    """Stateless task wrapper — construction is cheap (params cached per
    process), so no actor pool is needed."""
    return MinHashStage(num_perm=num_perm, bands=bands, shingle_n=shingle_n)(batch)


def bucket_pairs_partition(
    group: pd.DataFrame,
    key_cols: list[str],
    max_bucket: int,
    carry_cols: list[str] | None = None,
    verify=None,
    star: bool = False,
) -> pd.DataFrame:
    """Vectorized candidate-pair generation for ONE hash partition of
    bucket rows (shared by the MinHash and SimHash paths).

    The partition holds MANY buckets (grouped by a salt key, not by
    bucket), so pair generation is a pandas self-merge per partition —
    singleton buckets (the overwhelming majority) are eliminated by a
    vectorized size transform, never touching per-group Python. Hot
    buckets are truncated deterministically to ``max_bucket`` smallest
    doc_ids before the merge (a degenerate bucket of B docs would
    otherwise emit B² pairs).

    ``carry_cols`` ride along into the merge as ``<col>_a`` / ``<col>_b``
    and ``verify(merged_frame) -> bool mask`` filters candidate pairs
    (e.g. the SimHash exact-Hamming check) before output.

    ``star=True`` emits STAR edges instead of all pairs: (bucket
    representative = min doc_id, other) — B-1 rows per bucket instead of
    B²/2. On dup-heavy corpora (the common case at web scale) all-pairs
    explodes combinatorially even under ``max_bucket`` (measured 19.7M
    pair rows from 50k template-generated docs); star edges produce the
    SAME connected components under union-find, which is all dedup-keep
    needs."""
    g = group.drop_duplicates(key_cols + ["doc_id"]).sort_values(
        key_cols + ["doc_id"], kind="mergesort"
    )
    sizes = g.groupby(key_cols)["doc_id"].transform("size")
    g = g[sizes >= 2]
    empty = pd.DataFrame(
        {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
    )
    if not len(g):
        return empty
    g = g[g.groupby(key_cols).cumcount() < max_bucket]
    if star:
        # sorted by (key, doc_id) -> first per bucket is the min doc_id
        data = {
            "doc_id_a": g.groupby(key_cols)["doc_id"].transform("first"),
            "doc_id_b": g["doc_id"],
        }
        for c in carry_cols or []:
            data[f"{c}_a"] = g.groupby(key_cols)[c].transform("first")
            data[f"{c}_b"] = g[c]
        m = pd.DataFrame(data)
        m = m[m["doc_id_a"] != m["doc_id_b"]]
    else:
        keep_cols = key_cols + ["doc_id"] + (carry_cols or [])
        m = g[keep_cols].merge(g[keep_cols], on=key_cols, suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
    if verify is not None and len(m):
        m = m[verify(m)]
    if not len(m):
        return empty
    out = m[["doc_id_a", "doc_id_b"]].drop_duplicates()
    return pd.DataFrame(
        {
            "a": out["doc_id_a"].astype("int64").values,
            "b": out["doc_id_b"].astype("int64").values,
        }
    )


def distinct_pairs(
    pairs: ray.data.Dataset, num_partitions: int | None = None
) -> ray.data.Dataset:
    """Global (a, b) distinct via one hash-partitioned shuffle with a
    VECTORIZED pandas drop_duplicates per partition.

    Not ``groupby([a, b]).aggregate(Count())``: a built-in aggregate
    over millions of distinct keys pays per-group overhead linear in the
    key count (measured 139 s for 1.2M distinct pairs where this path
    takes seconds). Partitioning by a hash of the pair co-locates
    duplicates; per-partition dedup is one vectorized call."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def drop_dup(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["a", "b"])
        return pd.DataFrame(
            {
                "a": out["a"].astype("int64").values,
                "b": out["b"].astype("int64").values,
            }
        )

    return hash_reduce(
        pairs, ["a", "b"], drop_dup, num_partitions=num_partitions
    )


def minhash_candidate_pairs(
    docs: ray.data.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    max_bucket: int = 200,
    num_partitions: int | None = None,
    pair_mode: str = "all",
) -> ray.data.Dataset:
    """LSH candidate pairs: docs sharing any band bucket. Returns distinct
    (a, b) with a < b.

    ``pair_mode="all"`` enumerates every in-bucket pair (exact candidate
    semantics, right for pair listing / verification); ``"star"`` emits
    only (bucket min doc_id, other) edges — union-find-equivalent
    components at a fraction of the rows, the right mode for dedup-keep
    on dup-heavy corpora (see bucket_pairs_partition).

    Shuffle shape (2 rounds, no driver-side state):
      1. ``hash_reduce`` on the bucket id co-locating whole buckets;
         inside each partition a
         VECTORIZED pandas self-merge emits pairs, a size transform drops
         singleton buckets, and ``max_bucket`` caps degenerate buckets.
      2. a tiny ``groupby(a, b)`` distinct over the candidate pairs.

    ``num_partitions`` bounds per-task memory: size it ~ (band rows /
    comfortable task rows) at corpus scale; ``None`` derives it from the
    input's plan metadata (``derive_num_partitions``).
    """
    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    sigs = docs.select_columns(["doc_id", "text"]).map_batches(
        partial(
            _minhash_rows, num_perm=num_perm, bands=bands, shingle_n=shingle_n
        ),
        batch_format="pyarrow",
    )

    pairs = hash_reduce(
        sigs,
        ["bucket"],
        partial(
            bucket_pairs_partition,
            key_cols=["band", "bucket"],
            max_bucket=max_bucket,
            star=(pair_mode == "star"),
        ),
        num_partitions=num_partitions or derive_num_partitions(docs),
    )
    return distinct_pairs(pairs)


def minhash_dedup_pairs(
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    pair_mode: str = "all",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """LSH candidates verified by exact Jaccard over word shingles.

    Verification is fully distributed — NO driver-side id->text map: the
    candidate (a, b) pairs are joined back to the two texts with two
    hash-partitioned joins (``ops.distjoin.hash_join``; the docs side
    streams through each join's shuffle, candidates are near-dup-sized),
    then a vectorized-per-row map computes the exact shingle Jaccard. The
    driver never holds a row.
    """
    from ctinexus_ray.ops.distjoin import hash_join

    if num_partitions is None:
        from ctinexus_ray.ops.groupagg import derive_num_partitions

        num_partitions = derive_num_partitions(docs)
    candidates = minhash_candidate_pairs(
        docs, num_perm, bands, shingle_n,
        pair_mode=pair_mode, num_partitions=num_partitions,
    )
    return verify_jaccard_pairs(
        candidates, docs, threshold=threshold, shingle_n=shingle_n,
        num_partitions=num_partitions,
    )


def verify_jaccard_pairs(
    candidates: ray.data.Dataset,
    docs: ray.data.Dataset,
    threshold: float,
    shingle_n: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate (a, b) id pairs against a
    (doc_id, text) dataset — the verify phase of ``minhash_dedup_pairs``
    factored out for callers that generate candidates ELSEWHERE (the
    incremental LSH-index probe in jobs/stream_job.py joins new-tick
    docs against a persisted bucket table, then verifies here). Both
    pair endpoints must exist in ``docs``; distribution shape is the
    two hash-partitioned text joins + vectorized per-partition
    intersect documented on minhash_dedup_pairs.
    """
    from ctinexus_ray.ops.distjoin import hash_join

    if num_partitions is None:
        from ctinexus_ray.ops.groupagg import derive_num_partitions

        num_partitions = derive_num_partitions(docs)
    i64, s = pa.int64(), pa.string()
    texts = docs.select_columns(["doc_id", "text"])

    def as_side(key: str, text_col: str):
        def rename(batch: pa.Table):
            if batch.num_rows == 0:
                return
            yield pa.Table.from_pydict(
                {
                    key: batch.column("doc_id").cast(i64),
                    text_col: batch.column("text").cast(s),
                }
            )

        return rename

    # join "b" first and "a" LAST: the final partitioning is then
    # hash(a), so star-mode pairs (which share the bucket representative
    # as "a") co-locate and the verify memo below hits on every repeat
    with_b = hash_join(
        candidates,
        texts.map_batches(as_side("b", "text_b"), batch_format="pyarrow"),
        on=["b"],
        num_partitions=num_partitions,
        left_types={"b": i64, "a": i64},
        right_types={"b": i64, "text_b": s},
    )
    with_both = hash_join(
        with_b,
        texts.map_batches(as_side("a", "text_a"), batch_format="pyarrow"),
        on=["a"],
        num_partitions=num_partitions,
        left_types={"a": i64, "b": i64, "text_b": s},
        right_types={"a": i64, "text_a": s},
    )
    n = shingle_n

    def verify(batch: pa.Table):
        a_col = batch.column("a").to_pylist()
        b_col = batch.column("b").to_pylist()
        # texts repeat heavily across a partition's pairs (star mode:
        # one representative per bucket) — shingle each distinct text
        # ONCE into a sorted uint64 hash array; the per-pair overlap is
        # then a vectorized np.intersect1d instead of Python set ops
        # (64-bit shingle-hash collisions are negligible at any corpus
        # size this engine targets)
        memo: dict[str, np.ndarray] = {}

        def shingle_hashes(text: str) -> np.ndarray:
            got = memo.get(text)
            if got is None:
                got = np.sort(hash64_strings(list(word_shingles(text, n))))
                memo[text] = got
            return got

        out_a, out_b = [], []
        for a, b, ta, tb in zip(
            a_col,
            b_col,
            batch.column("text_a").to_pylist(),
            batch.column("text_b").to_pylist(),
        ):
            sa = shingle_hashes(ta or "")
            sb = shingle_hashes(tb or "")
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            if union and inter / union >= threshold:
                out_a.append(a)
                out_b.append(b)
        yield pa.Table.from_pydict(
            {
                "a": pa.array(out_a, type=pa.int64()),
                "b": pa.array(out_b, type=pa.int64()),
            }
        )

    return with_both.map_batches(verify, batch_format="pyarrow")


def resolve_dup_groups(pairs: ray.data.Dataset) -> dict[int, int]:
    """Driver-side union-find over duplicate pairs -> {doc_id: survivor_id}
    (survivor = smallest id in the connected component). Non-duplicate
    docs are absent from the map.

    SMALL-SCALE variant only (the result is a driver dict): the dedup-keep
    pipeline uses ``ops.distjoin.connected_components`` instead, which
    computes the same labels distributedly. Kept for interactive use and
    as the test oracle for the distributed path.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for row in pairs.iter_rows():
        a, b = find(row["a"]), find(row["b"])
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
    return {doc: find(doc) for doc in list(parent)}


def minhash_dedup_keep(
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    num_partitions: int | None = None,
    **kwargs,
) -> ray.data.Dataset:
    """Dedup filter: drop every document whose component survivor is a
    smaller doc_id (MinHash-LSH candidates -> exact-Jaccard verify ->
    distributed connected components -> distributed anti-join). Returns
    the surviving (doc_id) rows.

    Nothing corpus-sized ever touches the driver: components come from
    ``ops.distjoin.connected_components`` (iterated min-label propagation;
    driver sees one scalar per round) and the drop set is applied with a
    hash-partitioned anti-join instead of a broadcast Python set — at
    web-scale dup rates (30%+ of the corpus duplicated) both structures
    are corpus-sized.

    At web scale pass ``pair_mode="star"``: candidate rows stay linear in
    corpus size and components are identical for unverified edges (star
    edges span the same buckets); with threshold verification the star
    approximation is the standard web-dedup trade-off (transitively-
    connected verified pairs may differ at cluster margins)."""
    from ctinexus_ray.ops.distjoin import (
        component_drops,
        connected_components,
        hash_join,
    )

    if num_partitions is None:
        from ctinexus_ray.ops.groupagg import derive_num_partitions

        num_partitions = derive_num_partitions(docs)
    pairs = minhash_dedup_pairs(
        docs, threshold=threshold, num_partitions=num_partitions, **kwargs
    ).materialize()  # consumed by every component-propagation round
    labels = connected_components(pairs, num_partitions=num_partitions)
    drops = component_drops(labels).rename_columns({"node": "doc_id"})
    return hash_join(
        docs.select_columns(["doc_id"]),
        drops,
        on=["doc_id"],
        how="left_anti",
        num_partitions=num_partitions,
        # declared, not probed: the drop set is EMPTY without duplicates
        right_types={"doc_id": pa.int64()},
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_batch(batch: pa.Table) -> pa.Table:
    """64-bit SimHash over word features (token-frequency weighted).

    Fully vectorized: the only per-row Python is ``text.split()``. All
    words of the batch hash at once (``hash64_strings``); the ±1 bit
    contributions accumulate per doc with ``np.add.reduceat`` — summing
    every occurrence is identical to weighting unique words by count."""
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    word_lists = [(t or "").strip().split() for t in texts]
    n_words = np.fromiter(
        (len(w) for w in word_lists), dtype=np.int64, count=len(word_lists)
    )
    flat = [w for words in word_lists for w in words]
    sigs = np.zeros(len(texts), dtype=np.int64)
    nonempty = np.nonzero(n_words)[0]
    if len(nonempty):
        H = hash64_strings(flat)
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((H[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int32)
        contrib = bits * 2 - 1  # (total_words, 64) of ±1
        starts = np.concatenate(([0], np.cumsum(n_words)))[:-1][nonempty]
        acc = np.add.reduceat(contrib, starts.astype(np.int64), axis=0)
        powers = (np.uint64(1) << shifts).astype(np.uint64)
        sig_u = ((acc > 0).astype(np.uint64) * powers[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        sigs[nonempty] = (sig_u >> np.uint64(1)).astype(np.int64)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "simhash": pa.array(sigs, type=pa.int64()),
        }
    )


def simhash_signatures(docs: ray.data.Dataset) -> ray.data.Dataset:
    return docs.select_columns(["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow"
    )


def simhash_dup_pairs(
    docs: ray.data.Dataset,
    max_hamming: int = 3,
    chunks: int = 4,
    max_bucket: int = 200,
    pair_mode: str = "all",
) -> ray.data.Dataset:
    """SimHash near-dup pairs: (a, b) with Hamming distance <= max_hamming.

    Pigeonhole banding: split the 63-bit signature into ``chunks`` bands —
    any pair within ``chunks - 1`` bit flips shares at least one exact
    band, so bucketing by (band, chunk-value) finds all candidates for
    ``max_hamming < chunks``; candidates are then verified exactly.
    Same shuffle/partition-merge shape as MinHash-LSH, including the
    ``max_bucket`` hot-bucket cap (identical docs all land in the same
    band buckets — a cluster of B exact dups would otherwise build a
    B²-row merge frame in one task).
    """
    sigs = simhash_signatures(docs)
    return hamming_dup_pairs(
        sigs,
        hash_col="simhash",
        max_hamming=max_hamming,
        chunks=chunks,
        max_bucket=max_bucket,
        pair_mode=pair_mode,
    )


def hamming_dup_pairs(
    sigs: ray.data.Dataset,
    hash_col: str,
    max_hamming: int = 3,
    chunks: int = 4,
    max_bucket: int = 200,
    pair_mode: str = "all",
) -> ray.data.Dataset:
    """Near-dup (a, b) pairs among 64-bit signatures by Hamming distance
    <= ``max_hamming`` — the banding+verify core of ``simhash_dup_pairs``
    factored over ANY (doc_id, <hash_col>) dataset so other signature
    families (e.g. image perceptual hashes, ops/multimodal.py
    ``image_phash_dups``) share the identical shuffle shape, hot-bucket
    cap and exact popcount verify."""
    assert max_hamming < chunks, "pigeonhole guarantee needs max_hamming < chunks"
    from ctinexus_ray.ops.groupagg import hash_reduce

    bits_per_chunk = 64 // chunks

    def to_bands(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hashes = batch.column(hash_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(doc_ids)
        mask = (1 << bits_per_chunk) - 1
        out_doc = np.repeat(doc_ids, chunks)
        out_sig = np.repeat(hashes, chunks)
        out_band = np.tile(np.arange(chunks, dtype=np.int32), n)
        out_val = (out_sig >> (out_band.astype(np.int64) * bits_per_chunk)) & mask
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "band": pa.array(out_band, type=pa.int32()),
                "val": pa.array(out_val, type=pa.int64()),
                hash_col: pa.array(out_sig, type=pa.int64()),
            }
        )

    bands = sigs.map_batches(to_bands, batch_format="pyarrow")

    def _popcount64(x: np.ndarray) -> np.ndarray:
        return np.unpackbits(
            x.astype(np.uint64).view(np.uint8).reshape(-1, 8), axis=1
        ).sum(axis=1)

    def hamming_verify(m: pd.DataFrame) -> np.ndarray:
        # exact vectorized Hamming verify (XOR + popcount via unpackbits)
        xor = np.bitwise_xor(
            m[f"{hash_col}_a"].to_numpy(dtype=np.int64),
            m[f"{hash_col}_b"].to_numpy(dtype=np.int64),
        )
        return _popcount64(xor) <= max_hamming

    pairs = hash_reduce(
        bands,
        ["band", "val"],
        partial(
            bucket_pairs_partition,
            key_cols=["band", "val"],
            max_bucket=max_bucket,
            carry_cols=[hash_col],
            verify=hamming_verify,
            star=(pair_mode == "star"),
        ),
    )
    return distinct_pairs(pairs)


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, via shingle inverted index)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(
    docs: ray.data.Dataset,
    n: int = 3,
    threshold: float = 0.5,
    max_posting: int = 1000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact all-pairs word-n-gram Jaccard >= threshold, computed
    distributedly in TWO shuffle rounds with no driver-side state:

      1. explode distinct shingles per doc; ``hash_reduce`` on the
         shingle co-locates whole postings, and a VECTORIZED pandas self-merge
         per partition emits one (a, b, size_a, size_b) row per common
         shingle — singleton postings die in a size transform, hot
         postings are capped at ``max_posting`` (a stopword shingle
         otherwise emits |posting|²)
      2. ``groupby(a, b)`` with built-in Count/Max aggregates gives
         |A∩B| and the set sizes; the Jaccard filter is a vectorized
         map.

    Returns (a, b) with a < b. The SQL oracle mirrors the semantics
    verbatim. ``num_partitions`` bounds per-task memory at corpus scale
    (``None`` derives from plan metadata).
    """
    from ctinexus_ray.ops.groupagg import (
        derive_num_partitions,
        hash_reduce,
        partitioned_agg,
    )

    num_partitions = num_partitions or derive_num_partitions(docs)

    def shingle_rows(batch: pa.Table) -> pa.Table:
        out_doc, out_sh, out_size = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            shingles = word_shingles(text or "", n)
            for s in shingles:
                out_doc.append(doc_id)
                out_sh.append(s)
                out_size.append(len(shingles))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "shingle": pa.array(out_sh, type=pa.string()),
                "set_size": pa.array(out_size, type=pa.int64()),
            }
        )

    shingles = docs.select_columns(["doc_id", "text"]).map_batches(
        shingle_rows, batch_format="pyarrow"
    )

    def posting_pairs_partition(g: pd.DataFrame) -> pd.DataFrame:
        # one hash partition = MANY shingles; everything vectorized —
        # singleton postings die in the size transform, hot postings are
        # truncated to the max_posting smallest doc_ids, and the
        # self-merge emits one row per (pair, common shingle) so the
        # global Count() below is exactly |A ∩ B|
        g = g.drop_duplicates(["shingle", "doc_id"]).sort_values(
            ["shingle", "doc_id"], kind="mergesort"
        )
        sizes = g.groupby("shingle")["doc_id"].transform("size")
        g = g[sizes >= 2]
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64"),
                "size_a": pd.Series([], dtype="int64"),
                "size_b": pd.Series([], dtype="int64"),
            }
        )
        if not len(g):
            return empty
        g = g[g.groupby("shingle").cumcount() < max_posting]
        cols = ["shingle", "doc_id", "set_size"]
        m = g[cols].merge(g[cols], on="shingle", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        if not len(m):
            return empty
        return pd.DataFrame(
            {
                "a": m["doc_id_a"].astype("int64").values,
                "b": m["doc_id_b"].astype("int64").values,
                "size_a": m["set_size_a"].astype("int64").values,
                "size_b": m["set_size_b"].astype("int64").values,
            }
        )

    pair_partials = hash_reduce(
        shingles, ["shingle"], posting_pairs_partition,
        num_partitions=num_partitions,
    )

    # distinct (a, b) pairs grow with the corpus -> hash-partitioned
    # vectorized reduce, not a built-in per-key aggregate
    agg = partitioned_agg(
        pair_partials,
        keys=["a", "b"],
        named_aggs={
            "ix": ("size_a", "size"),
            "sa": ("size_a", "max"),
            "sb": ("size_b", "max"),
        },
    )

    def jaccard_filter(batch: pa.Table) -> pa.Table:
        ix = batch.column("ix").to_numpy(zero_copy_only=False).astype(np.float64)
        sa = batch.column("sa").to_numpy(zero_copy_only=False).astype(np.float64)
        sb = batch.column("sb").to_numpy(zero_copy_only=False).astype(np.float64)
        union = sa + sb - ix
        mask = (union > 0) & (ix / np.maximum(union, 1e-12) >= threshold)
        kept = batch.filter(pa.array(mask))
        return kept.select(["a", "b"])

    return agg.map_batches(jaccard_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


def embedding_dup_pairs(
    embeddings: ray.data.Dataset,
    threshold: float = 0.9,
    max_broadcast_bytes: int = 2 * 1024**3,
) -> ray.data.Dataset:
    """Near-duplicate (a, b) vector pairs with cosine >= threshold.

    Brute-force blockwise: the normalized matrix is assembled on the
    driver FROM ARROW BLOCK REFS (``to_arrow_refs`` + buffer flatten — no
    ``take_all``, no per-row Python conversion), broadcast once via
    ``ray.put``, and every batch computes ``batch @ matrix.T`` (numpy)
    with a fully vectorized pair emission. This is the exact baseline and
    it is inherently broadcast-bound: if the matrix exceeds
    ``max_broadcast_bytes`` (default 2 GiB ≈ 4M vectors at dim 64
    float64) the op REFUSES with a ValueError directing callers to
    ``embedding_dup_pairs_lsh``, the sublinear scale path — rather than
    OOMing the driver/workers at 100× data.
    """
    sel = embeddings.select_columns(["vec_id", "embedding"])
    blocks = [t for t in ray.get(sel.to_arrow_refs()) if t.num_rows]
    empty = pa.Table.from_pydict(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
    )
    if not blocks:
        return ray.data.from_arrow(empty)
    ids = np.concatenate(
        [
            t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            for t in blocks
        ]
    )
    mat = np.vstack([list_col_to_matrix(t.column("embedding")) for t in blocks])
    if mat.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"exact embedding near-dup needs a {mat.nbytes / 1e9:.1f} GB "
            f"broadcast matrix (> {max_broadcast_bytes / 1e9:.1f} GB limit); "
            "use embedding_dup_pairs_lsh (bucketed, no broadcast) at this scale"
        )
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat_n = mat / norms
    mat_ref = ray.put((ids, mat_n))

    def block(batch: pa.Table) -> pa.Table:
        all_ids, matrix = ray.get(mat_ref)
        b_ids = (
            batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        b_mat = list_col_to_matrix(batch.column("embedding"))
        b_norms = np.linalg.norm(b_mat, axis=1, keepdims=True)
        b_norms[b_norms == 0] = 1.0
        sims = (b_mat / b_norms) @ matrix.T
        ri, cj = np.nonzero(sims >= threshold)
        a = b_ids[ri]
        b = all_ids[cj]
        keep = a < b
        return pa.Table.from_pydict(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
            }
        )

    return sel.map_batches(block, batch_format="pyarrow")



@lru_cache(maxsize=32)
def lsh_planes(dim: int, n_planes: int) -> np.ndarray:
    """Deterministic hyperplanes (blake2b-derived, no RNG state) — any
    worker recomputes the identical matrix, so bucket ids are a pure
    function of the embedding and never need to be shipped or joined."""
    return np.array(
        [
            [
                ((_hash64(f"plane-{p}-{d}".encode()) / 2**64) * 2.0 - 1.0)
                for d in range(dim)
            ]
            for p in range(n_planes)
        ]
    )


def lsh_bucket_ids(mat: np.ndarray, n_planes: int) -> np.ndarray:
    """Vectorized bucket assignment for a (n, dim) float matrix."""
    if mat.ndim != 2 or mat.size == 0:
        return np.zeros(0, dtype=np.int64)
    planes = lsh_planes(mat.shape[1], n_planes)
    bits = (mat @ planes.T) > 0
    return bits.dot(1 << np.arange(n_planes)).astype(np.int64)


def embedding_lsh_buckets(
    embeddings: ray.data.Dataset, n_planes: int = 12
) -> ray.data.Dataset:
    """Hyperplane-LSH bucket assignment (scale path for near-dup / ANN):
    deterministic hyperplanes, one bucket id per vector; near-dup then
    reduces per bucket instead of all-pairs."""
    def assign(batch: pa.Table) -> pa.Table:
        mat = list_col_to_matrix(batch.column("embedding"))
        buckets = lsh_bucket_ids(mat, n_planes)
        return pa.Table.from_pydict(
            {
                "vec_id": batch.column("vec_id"),
                "bucket": pa.array(buckets, type=pa.int64()),
            }
        )

    return embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )


def embedding_dup_pairs_lsh(
    embeddings: ray.data.Dataset,
    threshold: float = 0.9,
    n_planes: int = 8,
) -> ray.data.Dataset:
    """Scale-path near-dup: score only pairs sharing a hyperplane-LSH
    bucket — no full-matrix broadcast, no all-pairs matmul. Sublinear and
    approximate (misses pairs split across buckets; recall rises as
    n_planes falls). One groupby(bucket) shuffle."""

    def tag(batch: pa.Table) -> pa.Table:
        mat = list_col_to_matrix(batch.column("embedding"))
        return batch.append_column(
            "bucket", pa.array(lsh_bucket_ids(mat, n_planes), type=pa.int64())
        )

    tagged = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        tag, batch_format="pyarrow"
    )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        ids = group["vec_id"].to_numpy(dtype=np.int64)
        if len(ids) < 2:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
            )
        mat = np.array(group["embedding"].tolist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
        sims = mat @ mat.T
        ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
        a = np.minimum(ids[ai], ids[bi])
        b = np.maximum(ids[ai], ids[bi])
        return pd.DataFrame({"a": pd.Series(a, dtype="int64"), "b": pd.Series(b, dtype="int64")})

    # distinct buckets are corpus-cardinality -> Ray-level group key is a
    # hash partition (O(P) overhead); the per-bucket loop runs in pandas
    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        frames = [per_bucket(sub) for _, sub in g.groupby("bucket", sort=False)]
        frames = [f for f in frames if len(f)]
        if not frames:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
            )
        return pd.concat(frames, ignore_index=True)

    return hash_reduce(
        tagged, ["bucket"], per_partition,
        num_partitions=derive_num_partitions(embeddings),
    )


# ---------------------------------------------------------------------------
# cross-document duplicated spans
# ---------------------------------------------------------------------------


def dup_span_stats(
    docs: ray.data.Dataset, n: int = 10, num_partitions: int | None = None
) -> ray.data.Dataset:
    """Cross-document duplicated-span detection — the substring-dedup
    signal of Lee et al. 2021 ("Deduplicating Training Data Makes
    Language Models Better") at word-n-gram granularity: for each
    document, how many of its distinct word n-grams appear in at least
    one OTHER document. Docs shorter than ``n`` words are excluded (the
    oracle mirrors this with an eligibility filter).

    Two shuffle rounds, no driver-side state:

      1. explode distinct sliding n-grams; ``hash_reduce`` on the gram
         co-locates whole postings; a vectorized pandas size transform
         marks grams whose posting spans >= 2 documents and emits one
         (doc_id) row per duplicated gram
      2. hash-partitioned count by doc_id (doc ids are corpus-cardinality
         -> no built-in per-key aggregate)

    Returns (doc_id, n_dup_grams) for documents with at least one
    duplicated span."""
    from ctinexus_ray.ops.groupagg import (
        derive_num_partitions,
        hash_reduce,
        partitioned_agg,
    )

    num_partitions = num_partitions or derive_num_partitions(docs)

    def explode(batch: pa.Table):
        out_doc, out_sh = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            words = (text or "").strip().split()
            if len(words) < n:
                continue
            seen = {
                " ".join(words[i : i + n]) for i in range(len(words) - n + 1)
            }
            out_doc.extend([doc_id] * len(seen))
            out_sh.extend(seen)
        if not out_doc:
            return
        yield pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "shingle": pa.array(out_sh, type=pa.string()),
            }
        )

    shingles = docs.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("shingle")["doc_id"].transform("size")
        kept = g[sizes >= 2]
        return pd.DataFrame({"doc_id": kept["doc_id"].astype("int64").values})

    dup_rows = hash_reduce(
        shingles, ["shingle"], mark_dups, num_partitions=num_partitions
    )
    return partitioned_agg(
        dup_rows,
        keys=["doc_id"],
        named_aggs={"n_dup_grams": ("doc_id", "size")},
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# paragraph-level exact dedup with document rebuild
# ---------------------------------------------------------------------------


def _chunk_explode_batch(batch: pa.Table, words_per_chunk: int) -> pa.Table:
    """(doc_id, chunk_idx, chunk): split each document's whitespace token
    stream into consecutive ``words_per_chunk``-word windows rejoined
    with single spaces — the 'paragraph' unit for corpora without
    newline structure. Matches the SQL
    ``array_to_string(ws[(i*W+1):(i*W+W)], ' ')`` slicing exactly."""
    import re as _re

    ws_re = _re.compile(r"\s+")
    ids, idxs, chunks = [], [], []
    for doc_id, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        toks = ws_re.split((t or "").strip())
        for i in range(0, max(len(toks), 1), words_per_chunk):
            ids.append(doc_id)
            idxs.append(i // words_per_chunk)
            chunks.append(" ".join(toks[i : i + words_per_chunk]))
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "chunk_idx": pa.array(idxs, type=pa.int64()),
            "chunk": pa.array(chunks, type=pa.string()),
        }
    )


_CHUNK_ORD_BASE = 1_000_000  # chunk_idx < 1e6 (a 20M-word doc) asserted


def paragraph_dedup(
    docs: ray.data.Dataset,
    words_per_chunk: int = 20,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Paragraph-level exact dedup with document REBUILD — the C4/Dolma
    pipeline step that drops repeated boilerplate paragraphs from every
    document but the first occurrence, then reassembles the survivors
    (C4 does this at the newline-delimited 'line' level; this corpus has
    no newlines, so the paragraph unit is a fixed word window; swap
    ``_chunk_explode_batch`` for a '\\n\\n' splitter on real web text —
    the dedup/rebuild plan is unchanged).

    Plan (two shuffles, both over chunk-sized rows):
      1. explode into (doc_id, chunk_idx, chunk) — vectorized window
         slicing per batch;
      2. first-occurrence winner per distinct chunk text = min composite
         order key ``doc_id * 1e6 + chunk_idx`` via a hash-partitioned
         agg (chunk text is corpus-cardinality, so the partitioned
         layout, never a built-in per-key groupby);
      3. winners regroup by doc_id: per-partition vectorized sort +
         join-with-spaces rebuilds each surviving document in chunk
         order and counts kept chunks in the same pass.

    Docs whose every chunk lost (pure duplicates) vanish — identical to
    SQL GROUP BY over winners. Output: (doc_id, n_kept, new_text).
    """
    from .groupagg import hash_reduce, partitioned_agg

    chunks = docs.map_batches(
        _chunk_explode_batch,
        fn_kwargs={"words_per_chunk": words_per_chunk},
        batch_format="pyarrow",
    )

    def add_ord(batch: pa.Table) -> pa.Table:
        idx = batch.column("chunk_idx").to_numpy()
        assert idx.max(initial=0) < _CHUNK_ORD_BASE, "chunk_idx overflow"
        ordk = batch.column("doc_id").to_numpy() * _CHUNK_ORD_BASE + idx
        return pa.Table.from_pydict(
            {"chunk": batch.column("chunk"), "ord": pa.array(ordk, type=pa.int64())}
        )

    winners = partitioned_agg(
        chunks.map_batches(add_ord, batch_format="pyarrow"),
        keys=["chunk"],
        named_aggs={"ord": ("ord", "min")},
        num_partitions=num_partitions,
    )

    def split_ord(batch: pa.Table) -> pa.Table:
        ordk = batch.column("ord").to_numpy()
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ordk // _CHUNK_ORD_BASE, type=pa.int64()),
                "chunk_idx": pa.array(ordk % _CHUNK_ORD_BASE, type=pa.int64()),
                "chunk": batch.column("chunk"),
            }
        )

    kept = winners.map_batches(split_ord, batch_format="pyarrow")

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "chunk_idx"], kind="mergesort")
        out = (
            g.groupby("doc_id", sort=False)["chunk"]
            .agg(n_kept="size", new_text=lambda s: " ".join(s))
            .reset_index()
        )
        out["n_kept"] = out["n_kept"].astype("int64")
        return out[["doc_id", "n_kept", "new_text"]]

    return hash_reduce(
        kept, ["doc_id"], rebuild, num_partitions=num_partitions
    )


# ---------------------------------------------------------------------------
# SemDeDup: semantic dedup inside embedding clusters
# ---------------------------------------------------------------------------


def semdedup_keep(
    embeddings: ray.data.Dataset,
    cluster_col: str = "label",
    threshold: float = 0.9,
    num_partitions: int | None = None,
    max_cluster_rows: int | None = None,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): drop semantic
    near-duplicates WITHIN precomputed embedding clusters, never across
    them — the clustering (k-means in the paper; any assignment column
    here, e.g. ``kmeans_assign`` output or a label) bounds the pairwise
    work to O(c^2 * dim) per cluster instead of O(n^2) corpus-wide,
    which is the entire point of the method at 100-TB scale.

    Keep rule (deterministic stand-in for the paper's "keep one random
    example per duplicate group"): x survives iff NO y in the same
    cluster with ``y.vec_id < x.vec_id`` has ``cos(x, y) >= threshold``.
    First-occurrence-wins by vec_id — the same winner rule as
    ``dedup_exact`` — and exactly SQL ``NOT EXISTS`` semantics, so the
    driver query has a DuckDB ``list_cosine_similarity`` oracle.

    Plan: ONE hash-partitioned shuffle on the cluster id; within each
    partition clusters are sliced out of a (vec_id-sorted) matrix view
    and scored with a single ``mat @ mat.T`` per cluster (float64).
    Per-cluster memory is O(c^2); the paper sizes k so c ~ n/k stays
    small. A skewed giant cluster is a misconfigured k — pass
    ``max_cluster_rows`` to RAISE (never a silent cap) instead of
    letting one group OOM a worker.

    Output: (vec_id, cluster) of the survivors.
    """
    from .groupagg import hash_reduce

    empty = pa.Table.from_pydict(
        {
            "vec_id": pa.array([], type=pa.int64()),
            "cluster": pa.array([], type=pa.int64()),
        }
    )

    def per_partition(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty
        cl = (
            part.column(cluster_col)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vid = part.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = list_col_to_matrix(part.column("embedding"))
        order = np.lexsort((vid, cl))
        cl, vid, mat = cl[order], vid[order], mat[order]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        bounds = np.concatenate([starts, [len(cl)]])
        keep_ids: list[np.ndarray] = []
        keep_cl: list[np.ndarray] = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            c = int(e - s)
            if max_cluster_rows is not None and c > max_cluster_rows:
                raise ValueError(
                    f"semdedup cluster {int(cl[s])} has {c} rows "
                    f"(> max_cluster_rows={max_cluster_rows}); re-cluster "
                    "with a larger k rather than letting O(c^2) scoring "
                    "blow up one partition"
                )
            if c == 1:
                km = np.ones(1, dtype=bool)
            else:
                sims = mat[s:e] @ mat[s:e].T
                # rows sorted by vec_id asc: x (col i) drops iff any
                # earlier y (row j < i) clears the threshold
                km = ~np.triu(sims >= threshold, k=1).any(axis=0)
            keep_ids.append(vid[s:e][km])
            keep_cl.append(cl[s:e][km])
        return pa.Table.from_pydict(
            {
                "vec_id": pa.array(np.concatenate(keep_ids), type=pa.int64()),
                "cluster": pa.array(np.concatenate(keep_cl), type=pa.int64()),
            }
        )

    return hash_reduce(
        embeddings.select_columns(["vec_id", cluster_col, "embedding"]),
        [cluster_col],
        per_partition,
        num_partitions=num_partitions,
        batch_format="pyarrow",
    )


def sorted_neighborhood_pairs(
    ds: "ray.data.Dataset",
    sort_cols: list[str],
    id_col: str,
    window: int = 3,
) -> "ray.data.Dataset":
    """Sorted-neighborhood blocking (Hernandez & Stolfo 1995): candidate
    pairs are rows within ``window - 1`` positions of each other in the
    GLOBAL order by ``sort_cols`` — the classic complement to
    hash-bucket blocking (MinHash/SimHash here): O(n·w) candidates with
    locality along any sortable key (length, normalized prefix, zip
    code), no hash collisions needed.

    Distributed shape: ONE range-partitioned sort (via
    ``global_row_number`` — the only all-to-all), then every batch
    emits its within-batch pairs vectorized; the only cross-batch work
    is each batch's first/last ``window - 1`` (rank, id) rows — O(w ·
    #batches) tiny rows collected once — whose cross-BATCH pairs are
    closed on the driver by rank arithmetic. Nothing corpus-sized
    re-shuffles after the sort.

    ``sort_cols`` must end in a unique key (the usual id tie-break) so
    ranks are deterministic. Returns (id_a, id_b, gap) with ``id_a``
    the lower-ranked row and ``1 <= gap < window``.
    """
    import ray.data

    from ctinexus_ray.ops.shards import global_row_number

    if window < 2:
        raise ValueError("window must be >= 2")
    w = int(window)
    ranked = global_row_number(
        ds.select_columns(sort_cols if id_col in sort_cols
                          else sort_cols + [id_col]),
        sort_cols,
        descending=[False] * len(sort_cols),
    ).select_columns([id_col, "rank"]).materialize()

    i64 = pa.int64()
    empty = pa.Table.from_pydict(
        {
            "id_a": pa.array([], type=i64),
            "id_b": pa.array([], type=i64),
            "gap": pa.array([], type=i64),
        }
    )

    def batch_pairs(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ranks = batch.column("rank").to_numpy(zero_copy_only=False)
        order = np.argsort(ranks, kind="stable")
        ids, ranks = ids[order], ranks[order]
        out_a, out_b, out_g = [], [], []
        for d in range(1, w):
            if d >= len(ids):
                break
            # ranks are contiguous within a sorted block, but guard on
            # the actual difference so split blocks stay correct
            ok = (ranks[d:] - ranks[:-d]) == d
            out_a.append(ids[:-d][ok])
            out_b.append(ids[d:][ok])
            out_g.append(np.full(int(ok.sum()), d, dtype=np.int64))
        if not out_a:
            return empty
        return pa.Table.from_pydict(
            {
                "id_a": pa.array(np.concatenate(out_a), type=i64),
                "id_b": pa.array(np.concatenate(out_b), type=i64),
                "gap": pa.array(np.concatenate(out_g), type=i64),
            }
        )

    inner = ranked.map_batches(batch_pairs, batch_format="pyarrow")

    def boundary_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ranks = batch.column("rank").to_numpy(zero_copy_only=False)
        order = np.argsort(ranks, kind="stable")
        ids, ranks = ids[order], ranks[order]
        take = min(w - 1, len(ids))
        sel = np.unique(np.concatenate([np.arange(take),
                                        np.arange(len(ids) - take, len(ids))]))
        tag = int(ranks[0]) if len(ranks) else -1
        return pa.Table.from_pydict(
            {
                id_col: pa.array(ids[sel], type=i64),
                "rank": pa.array(ranks[sel], type=i64),
                "tag": pa.array(np.full(len(sel), tag, dtype=np.int64),
                                type=i64),
            }
        )

    edge = ranked.map_batches(boundary_rows, batch_format="pyarrow").take_all()
    if edge:
        ids = np.array([r[id_col] for r in edge], dtype=np.int64)
        ranks = np.array([r["rank"] for r in edge], dtype=np.int64)
        tags = np.array([r["tag"] for r in edge], dtype=np.int64)
        # a rank may appear under two batch tags only if batches were
        # re-split; dedup by rank keeps one copy per row
        _, keep = np.unique(ranks, return_index=True)
        ids, ranks, tags = ids[keep], ranks[keep], tags[keep]
        out_a, out_b, out_g = [], [], []
        for i in range(len(ranks)):
            for j in range(i + 1, len(ranks)):
                d = int(ranks[j] - ranks[i])
                if d >= w:
                    break
                if d >= 1 and tags[i] != tags[j]:
                    out_a.append(int(ids[i]))
                    out_b.append(int(ids[j]))
                    out_g.append(d)
        cross = pa.Table.from_pydict(
            {
                "id_a": pa.array(out_a, type=i64),
                "id_b": pa.array(out_b, type=i64),
                "gap": pa.array(out_g, type=i64),
            }
        )
    else:
        cross = empty
    return inner.union(ray.data.from_arrow(cross))


# ---------------------------------------------------------------------------
# exact duplicated-span REMOVAL with document rebuild (ExactSubstr)
# ---------------------------------------------------------------------------


def remove_dup_spans(
    docs: ray.data.Dataset,
    n: int = 10,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact duplicated-span REMOVAL with document rebuild — the rewrite
    half of Lee et al. 2021's ExactSubstr dedup (``dup_span_stats`` is
    the detection half): every word position covered by a word n-gram
    that occurs at >= 2 positions corpus-wide (other documents OR a
    repeat within the same document — the ExactSubstr rule, stricter
    than ``dup_span_stats``'s >= 2 *documents* rule) is dropped, and
    each eligible document is rebuilt from its surviving words.

    Semantics (mirrored expression-for-expression by the SQL twin):

      * words = whitespace split of ``trim(text)``; docs with < ``n``
        words (or NULL text) are ineligible and pass through VERBATIM;
      * a gram starting at word position ``s`` is duplicated iff its
        space-joined text equals >= 2 gram positions corpus-wide;
      * word position ``p`` is removed iff some duplicated gram start
        ``s`` satisfies ``s <= p <= s + n - 1``;
      * eligible docs are ALWAYS rebuilt as surviving words joined by
        single spaces (whitespace-normalized even when nothing was
        removed — keeps the rule a pure function of the word stream).

    Returns (doc_id, text, n_removed) for every input document.

    Scale shape (nothing doc-count-sized on the driver):

      1. explode ALL gram positions (multiplicity kept — same-doc
         repeats must count) keyed by ``hash(gram) % P`` — one shuffle
         of corpus-token-sized rows, the same cost class as
         ``dup_span_stats``;
      2. per posting partition, a vectorized size-transform emits
         (doc_id, start) rows ONLY for duplicated grams;
      3. duplicated starts collapse to one comma-joined string per doc
         (``grouped_string_agg`` — bounded by the doc's own length);
      4. ONE hash shuffle of each side attaches the starts string onto
         the documents (a left ``hash_join``); the rewrite itself is
         a per-batch numpy interval-coverage pass (+1 at ``s``, -1 at
         ``s+n`` difference array, prefix sum > 0 = covered).
    """
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import (
        derive_num_partitions,
        grouped_string_agg,
        hash_reduce,
    )

    num_partitions = num_partitions or derive_num_partitions(docs)

    def explode(batch: pa.Table):
        out_doc, out_pos, out_sh = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            words = (text or "").strip().split()
            if len(words) < n:
                continue
            for i in range(len(words) - n + 1):
                out_doc.append(doc_id)
                out_pos.append(i)
                out_sh.append(" ".join(words[i : i + n]))
        if not out_doc:
            return
        yield pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "start": pa.array(out_pos, type=pa.int64()),
                "shingle": pa.array(out_sh, type=pa.string()),
            }
        )

    grams = docs.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )

    def dup_starts(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("shingle")["doc_id"].transform("size")
        kept = g[sizes >= 2]
        return pd.DataFrame(
            {
                "doc_id": kept["doc_id"].astype("int64").values,
                "start": kept["start"].astype("int64").values,
            }
        )

    starts = hash_reduce(
        grams, ["shingle"], dup_starts, num_partitions=num_partitions
    )
    per_doc = grouped_string_agg(
        starts,
        key="doc_id",
        value_col="start",
        order_col="start",
        sep=",",
        out="dup_starts",
        num_partitions=num_partitions,
    )
    # per_doc is keyed by unique doc_id (grouped_string_agg output)
    attached = hash_join(
        docs.select_columns(["doc_id", "text"]),
        per_doc,
        on=["doc_id"],
        how="left",
        num_partitions=num_partitions,
        # declared, not probed: the side is EMPTY when no gram repeats
        right_types={"doc_id": pa.int64(), "dup_starts": pa.string()},
    )

    def rewrite(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        starts_col = batch.column("dup_starts").to_pylist()
        out_text, out_removed = [], []
        for text, s in zip(texts, starts_col):
            words = (text or "").strip().split()
            if len(words) < n:  # ineligible: verbatim pass-through
                out_text.append(text)
                out_removed.append(0)
                continue
            if not s:  # eligible, nothing duplicated: rebuild only
                out_text.append(" ".join(words))
                out_removed.append(0)
                continue
            st = np.array([int(x) for x in s.split(",")], dtype=np.int64)
            diff = np.zeros(len(words) + 1, dtype=np.int64)
            np.add.at(diff, st, 1)
            ends = np.minimum(st + n, len(words))
            np.add.at(diff, ends, -1)
            covered = np.cumsum(diff[:-1]) > 0
            kept = [w for w, c in zip(words, covered) if not c]
            out_text.append(" ".join(kept))
            out_removed.append(int(covered.sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(out_text, type=pa.string()),
                "n_removed": pa.array(out_removed, type=pa.int64()),
            }
        )

    return attached.map_batches(rewrite, batch_format="pyarrow")
