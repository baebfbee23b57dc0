"""Training-shard construction operators: document chunking, distributed
prefix sums, and sequence packing.

These are the steps between a cleaned corpus and a training dataloader:
split documents into fixed-size windows, then pack them densely into
fixed-capacity sequences. The reference system (single-document CTI tool)
has no counterpart; these exist for the corpus-scale pipelines and are
defined so an ANSI-SQL oracle (DuckDB) can verify them value-for-value:

  * chunk i of a doc = substr(text, i*stride + 1, chunk_chars),
    for i in [0, ceil-ish count), stride = chunk_chars - overlap
  * pack id of a doc = floor(exclusive-prefix-sum(tokens) / capacity)
    over docs ordered by doc_id (GPT-style concatenate-then-split
    packing: a document may straddle two packs; the boundary rule is
    the exclusive cumulative sum, which a SQL window reproduces)

Scale notes: chunking is stateless map_batches (vectorized slicing, one
pass per chunk index over the whole batch, not per row). The prefix sum
is the classic two-phase scan: per-range partial sums (one small row per
range) -> exclusive scan over the O(P) partials -> broadcast offsets ->
in-partition vectorized cumsum. The driver touches only the P partials
(one int per range of ``range_size`` keys), never the rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def chunk_documents(
    docs: ray.data.Dataset,
    chunk_chars: int = 400,
    overlap: int = 100,
) -> ray.data.Dataset:
    """Split each document into windows of ``chunk_chars`` characters with
    ``overlap`` characters of context carried between consecutive windows
    (stride = chunk_chars - overlap). Returns (doc_id, chunk_id, chunk).

    Chunk starts are 0, stride, 2*stride, ... strictly below the text
    length; empty documents yield no chunks. Vectorized: one
    ``utf8_slice_codeunits`` call per chunk INDEX slices every row of the
    batch at once, and rows too short for that index are filtered with a
    mask — no per-row Python. The loop runs ceil(max_len/stride) times
    per batch, so batches of similarly-sized docs cost ~1 kernel pass per
    emitted chunk column.
    """
    if overlap >= chunk_chars:
        raise ValueError("overlap must be smaller than chunk_chars")
    stride = chunk_chars - overlap
    i64 = pa.int64()

    def chunk_batch(batch: pa.Table):
        text = batch.column("text")
        doc_id = batch.column("doc_id")
        lens = pc.utf8_length(text)
        max_len = pc.max(lens).as_py() or 0
        out: list[pa.Table] = []
        start, idx = 0, 0
        while start < max_len:
            mask = pc.greater(lens, start)
            ids = pc.filter(doc_id, mask)
            if len(ids):
                pieces = pc.utf8_slice_codeunits(
                    pc.filter(text, mask), start, start + chunk_chars
                )
                out.append(
                    pa.Table.from_arrays(
                        [
                            ids,
                            pa.array([idx] * len(ids), type=i64),
                            pieces,
                        ],
                        names=["doc_id", "chunk_id", "chunk"],
                    )
                )
            start += stride
            idx += 1
        if out:
            yield pa.concat_tables(out)

    return docs.select_columns(["doc_id", "text"]).map_batches(
        chunk_batch, batch_format="pyarrow"
    )


def leakage_safe_split(
    docs: ray.data.Dataset,
    group_col: str = "source",
    test_pct: int = 10,
    val_pct: int = 10,
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment that keeps every document
    of a group (domain/source) in the SAME split — the standard guard
    against train/test leakage through near-duplicate pages of one site.

    bucket = first 8 hex digits of md5(group) as an int, mod 100;
    bucket < test_pct -> 'test', < test_pct+val_pct -> 'val', else
    'train'. Hash-based (not row-order-based), so the assignment is
    stable under repartitioning, resharding and incremental ingestion.
    md5 is memoized per distinct group per batch (domains repeat
    heavily); the SQL oracle is the identical expression over
    ``md5(group)``. Returns (doc_id, group_col, split)."""
    import hashlib

    def assign(batch: pa.Table) -> pa.Table:
        memo: dict[str, str] = {}

        def split_of(g: str) -> str:
            got = memo.get(g)
            if got is None:
                bucket = (
                    int(hashlib.md5(g.encode("utf-8")).hexdigest()[:8], 16)
                    % 100
                )
                if bucket < test_pct:
                    got = "test"
                elif bucket < test_pct + val_pct:
                    got = "val"
                else:
                    got = "train"
                memo[g] = got
            return got

        groups = batch.column(group_col).to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                group_col: batch.column(group_col),
                "split": pa.array(
                    [split_of(g or "") for g in groups], type=pa.string()
                ),
            }
        )

    return docs.select_columns(["doc_id", group_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def partitioned_prefix_sum(
    ds: ray.data.Dataset,
    order_key: str,
    value_col: str,
    out_col: str = "running",
    range_size: int = 1 << 16,
    exclusive: bool = True,
) -> ray.data.Dataset:
    """Running total of ``value_col`` over rows ordered by the integer
    ``order_key`` — the distributed form of
    ``SUM(v) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)``.

    Two-phase scan, the standard way to do this without a global sort:

      1. range-partition on ``k // range_size`` and reduce each range to
         one partial sum — the partials are O(#ranges) rows (one int per
         ``range_size`` keys), which is the ONLY thing the driver ever
         holds (e.g. 10^12 docs / 2^16 range = 15 M partials worst case;
         pick ``range_size`` so this stays small — it is a knob precisely
         because the driver bound is #keys/range_size);
      2. exclusive-scan the partials into per-range offsets, broadcast
         them once via ``ray.put``, and compute each range's in-partition
         vectorized cumsum + offset in one hash-partitioned pass.

    ``order_key`` must be a non-negative integer column; ties are
    impossible when it is unique (doc_id). ``exclusive=True`` gives each
    row the sum of STRICTLY EARLIER rows (the packing boundary rule);
    ``False`` includes the row itself."""
    import numpy as np
    import pandas as pd

    from ctinexus_ray.ops.groupagg import partitioned_agg

    def add_range(batch: pa.Table) -> pa.Table:
        rng = pc.divide(batch.column(order_key).cast(pa.int64()), range_size)
        return batch.append_column("rng", pc.cast(rng, pa.int64()))

    with_rng = ds.map_batches(add_range, batch_format="pyarrow")

    partials = partitioned_agg(
        with_rng.select_columns(["rng", value_col]),
        keys=["rng"],
        named_aggs={"part_sum": (value_col, "sum")},
    ).take_all()  # O(#ranges) rows by construction — see docstring
    partials.sort(key=lambda r: r["rng"])
    offsets: dict[int, int] = {}
    acc = 0
    for row in partials:
        offsets[row["rng"]] = acc
        acc += int(row["part_sum"])
    offsets_ref = ray.put(offsets)

    def scan_range(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(offsets_ref)
        g = g.sort_values(order_key, kind="mergesort")
        vals = g[value_col].to_numpy(dtype=np.int64)
        cum = np.cumsum(vals)
        if exclusive:
            cum = cum - vals
        base = offs.get(int(g["rng"].iloc[0]), 0)
        g = g.assign(**{out_col: cum + base})
        return g.drop(columns=["rng"])

    return (
        with_rng.groupby("rng").map_groups(scan_range, batch_format="pandas")
    )


def pack_sequences(
    docs: ray.data.Dataset,
    capacity: int = 2048,
    token_col: str = "n_tokens",
) -> ray.data.Dataset:
    """Assign each document to a training pack of ``capacity`` tokens,
    GPT-style: documents are conceptually concatenated in ``doc_id``
    order and split every ``capacity`` tokens, so
    ``pack_id = floor(exclusive_cumsum(tokens) / capacity)`` (a document
    whose tokens straddle a boundary belongs to the pack it STARTS in).
    Returns (doc_id, n_tokens, pack_id) — deterministic, so an identical
    SQL window expression is the oracle."""
    summed = partitioned_prefix_sum(
        docs.select_columns(["doc_id", token_col]),
        order_key="doc_id",
        value_col=token_col,
        out_col="tok_before",
    )

    def assign(batch: pa.Table) -> pa.Table:
        pack = pc.cast(
            pc.divide(batch.column("tok_before"), capacity), pa.int64()
        )
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                batch.column(token_col),
                pack,
            ],
            names=["doc_id", token_col, "pack_id"],
        )

    return summed.map_batches(assign, batch_format="pyarrow")


def deterministic_sample(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    pct: int = 5,
    salt: str = "sample",
) -> ray.data.Dataset:
    """Deterministic, reshard-stable row sampling: keep a row iff
    ``md5(salt || key) mod 100 < pct``.

    The standard corpus-sampling shape at web scale: content-addressed
    (no RNG state, no row order dependence), so the same rows are chosen
    on every run, on every cluster size, and under incremental ingestion
    — unlike ``Dataset.random_sample``, which is neither stable nor
    repeatable across repartitions. Embarrassingly parallel (a pure
    filter; no shuffle). The SQL oracle is the identical md5 expression,
    so the sample is exact-matchable.
    """
    import hashlib

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        mask = [
            int(
                hashlib.md5(f"{salt}{k}".encode("utf-8")).hexdigest()[:8], 16
            ) % 100 < pct
            for k in keys
        ]
        return batch.filter(pa.array(mask, type=pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


def balanced_sample(
    ds: ray.data.Dataset,
    group_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """Deterministic per-group balanced downsampling: every group keeps
    an EXPECTED ``min(group sizes)`` rows — the data-mixing primitive
    that stops one giant domain/language from dominating a training mix
    (the alpha=0 point of the temperature-sampling family used by
    multilingual pipelines).

    Group counts reduce once (O(#groups) on the driver — groups are
    domains/langs, bounded by construction); each group's keep rate
    ``min_count / count`` becomes an 8-hex-digit md5 threshold, and the
    corpus passes through ONE stateless filter: keep iff
    ``md5(str(id))[:8] <= printf('%08x', floor(rate * 2^32))``
    (lowercase-hex lexicographic order == numeric order, so the SQL
    oracle is the identical expression; rate 1.0 clamps to ffffffff).
    The id hash makes the sample stable across runs, cluster sizes, and
    resharding. No shuffle of the corpus."""
    import hashlib
    import math

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns([group_col]),
        keys=[group_col],
        named_aggs={"cnt": (group_col, "size")},
    ).take_all()  # O(#groups) rows by construction
    if not counts:
        return ds
    min_cnt = min(r["cnt"] for r in counts)
    thr = {
        r[group_col]: format(
            min(int(math.floor((min_cnt / r["cnt"]) * 4294967296.0)),
                0xFFFFFFFF),
            "08x",
        )
        for r in counts
    }
    thr_ref = ray.put(thr)

    class Keep:
        def __init__(self, thr_ref):
            self.thr = ray.get(thr_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            groups = batch.column(group_col).to_pylist()
            ids = batch.column(id_col).to_pylist()
            mask = [
                hashlib.md5(str(i).encode()).hexdigest()[:8] <= self.thr[g]
                for g, i in zip(groups, ids)
            ]
            return batch.filter(pa.array(mask, type=pa.bool_()))

    return ds.map_batches(
        Keep,
        fn_constructor_kwargs={"thr_ref": thr_ref},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


@ray.remote
def _block_nrows(block) -> int:
    return block.num_rows if hasattr(block, "num_rows") else len(block)


@ray.remote
def _block_add_rank(block, offset: int, out_col: str) -> pa.Table:
    if not isinstance(block, pa.Table):  # pandas block fallback
        block = pa.Table.from_pandas(block, preserve_index=False)
    n = block.num_rows
    import numpy as np

    return block.append_column(
        out_col, pa.array(np.arange(offset + 1, offset + n + 1), type=pa.int64())
    )


def global_row_number(
    ds: ray.data.Dataset,
    sort_keys: list[str],
    descending: list[bool],
    out_col: str = "rank",
) -> ray.data.Dataset:
    """Global 1-based ROW_NUMBER over a total order — the distributed
    form of ``ROW_NUMBER() OVER (ORDER BY ...)``.

    One range-partitioned ``Dataset.sort`` (the only all-to-all), then
    block row-counts (O(#blocks) ints — the ONLY thing the driver
    holds) prefix-sum into per-block offsets and each block gets its
    rank column appended in place via a Ray task; the ranked blocks are
    re-assembled zero-copy with ``from_arrow_refs``. Contrast with
    ``partitioned_prefix_sum``, which avoids the sort but needs a
    bounded integer order key; this operator handles arbitrary sort
    keys at the cost of the sort shuffle.

    ``sort_keys`` must form a TOTAL order (include a unique id as the
    last key) — otherwise tie order, and therefore ranks, are
    nondeterministic across runs."""
    sorted_ds = ds.sort(sort_keys, descending=descending).materialize()
    blocks = [
        ref
        for bundle in sorted_ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    if not blocks:
        return sorted_ds
    counts = ray.get([_block_nrows.remote(b) for b in blocks])
    ranked, offset = [], 0
    for b, n in zip(blocks, counts):
        ranked.append(_block_add_rank.remote(b, offset, out_col))
        offset += n
    return ray.data.from_arrow_refs(ranked)


def temperature_sample(
    ds: ray.data.Dataset,
    group_col: str,
    id_col: str,
    alpha: float = 0.5,
) -> ray.data.Dataset:
    """Deterministic temperature-based mixing sampler: group ``g`` keeps
    rows at rate ``(min_count / count_g) ** (1 - alpha)`` — the standard
    knob between natural mixing (alpha=1: keep everything) and fully
    balanced mixing (alpha=0: ``balanced_sample``). Multilingual /
    multi-domain training mixes use exactly this family to up-weight
    small sources without flattening the distribution entirely.

    This per-group closed form needs NO cross-group normalizing sum, so
    with alpha=0.5 the rate is ``sqrt(min/cnt)`` — division and sqrt are
    IEEE-correctly-rounded in both Python and DuckDB, making the keep
    set bit-reproducible against the SQL oracle (a cross-group
    ``sum(pow(...))`` would float-drift with summation order). Same
    shuffle-free shape as ``balanced_sample``: O(#groups) driver state,
    md5-threshold filter, reshard/rerun/cluster-size stable."""
    import hashlib
    import math

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns([group_col]),
        keys=[group_col],
        named_aggs={"cnt": (group_col, "size")},
    ).take_all()  # O(#groups) rows by construction
    if not counts:
        return ds
    min_cnt = min(r["cnt"] for r in counts)
    thr = {}
    for r in counts:
        if alpha == 0.5:
            rate = math.sqrt(min_cnt / r["cnt"])
        else:
            rate = (min_cnt / r["cnt"]) ** (1.0 - alpha)
        thr[r[group_col]] = format(
            min(int(math.floor(rate * 4294967296.0)), 0xFFFFFFFF), "08x"
        )
    thr_ref = ray.put(thr)

    class Keep:
        def __init__(self, thr_ref):
            self.thr = ray.get(thr_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            groups = batch.column(group_col).to_pylist()
            ids = batch.column(id_col).to_pylist()
            mask = [
                hashlib.md5(str(i).encode()).hexdigest()[:8] <= self.thr[g]
                for g, i in zip(groups, ids)
            ]
            return batch.filter(pa.array(mask, type=pa.bool_()))

    return ds.map_batches(
        Keep,
        fn_constructor_kwargs={"thr_ref": thr_ref},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def uniform_sample_k(
    ds: ray.data.Dataset,
    id_col: str,
    k: int,
) -> ray.data.Dataset:
    """Exactly-k uniform sample, deterministic and reshard-stable: the k
    rows with the SMALLEST ``md5(str(id))`` hex digest. Content-
    addressed ranking gives reservoir-sampling semantics (every row
    equally likely under the hash's uniformity) without RNG state, and
    re-running on a grown corpus keeps the overlap maximal — the
    property a monitoring/eval holdout wants.

    Shape: each batch cuts locally to its k smallest digests (constant
    output per batch), the survivors concentrate on one partition, and
    one final vectorized cut yields the global k — the same batch-local
    top-k + small merge as ``simsearch``; no corpus sort, no shuffle of
    the data columns. Driver never sees more than the k winners.
    SQL oracle: ``ORDER BY md5(CAST(id AS VARCHAR)) LIMIT k``."""
    import hashlib

    def local_cut(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        digests = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        order = sorted(range(len(ids)), key=lambda j: digests[j])[:k]
        t = batch.take(pa.array(order, type=pa.int64()))
        yield t.append_column(
            "__digest", pa.array([digests[j] for j in order], type=pa.string())
        )

    def final_cut(batch: pa.Table):
        idx = pc.select_k_unstable(
            batch, k, [("__digest", "ascending")]
        )
        yield batch.take(idx).drop_columns(["__digest"])

    return (
        ds.map_batches(local_cut, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_cut, batch_format="pyarrow", batch_size=None)
    )


def weighted_sample_k(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    k: int,
) -> ray.data.Dataset:
    """Exactly-k WEIGHTED sample without replacement, deterministic and
    reshard-stable — the A-ES scheme (Efraimidis & Spirakis 2006): each
    row gets key ``u^(1/w)`` where ``u`` is a content-addressed uniform
    in [0,1) (the first 52 bits of ``md5(str(id))`` — exactly
    representable in a double) and ``w`` its weight; the k LARGEST keys
    are the sample, with inclusion probability proportional to weight.
    No RNG state, stable under resharding and incremental ingestion.

    Same distributed shape as ``uniform_sample_k``: batch-local top-k
    cut, one small merge, no corpus sort. The SQL oracle writes the
    identical double expression (md5 substr -> /2^52 -> pow) over the
    same ``weight > 0`` eligibility predicate, so keys match
    bit-for-bit. Rows with NULL / NaN / non-positive weight are
    INELIGIBLE (zero inclusion probability — the continuous extension of
    A-ES as w -> 0+), not an error: a corpus containing one empty
    document must not crash the sampler. Output: input columns +
    ``__akey``-free."""
    import hashlib
    import math

    two52 = 4503599627370496.0  # 16^13 = 2^52

    def local_cut(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        ws = batch.column(weight_col).to_pylist()
        keys: list[float] = []
        elig: list[int] = []
        for j, (i, w) in enumerate(zip(ids, ws)):
            # A-ES needs w > 0 (w=0 divides by zero, w<0 inverts the
            # sampling, NaN corrupts the sort) -> ineligible, skipped
            if w is None or w != w or w <= 0:
                continue
            u = int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16) / two52
            keys.append(math.pow(u, 1.0 / w))
            elig.append(j)
        order = sorted(
            range(len(keys)), key=lambda j: (-keys[j], ids[elig[j]])
        )[:k]
        t = batch.take(pa.array([elig[j] for j in order], type=pa.int64()))
        yield t.append_column(
            "__akey", pa.array([keys[j] for j in order], type=pa.float64())
        )

    def final_cut(batch: pa.Table):
        idx = pc.select_k_unstable(
            batch, k, [("__akey", "descending"), (id_col, "ascending")]
        )
        yield batch.take(idx).drop_columns(["__akey"])

    return (
        ds.map_batches(local_cut, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_cut, batch_format="pyarrow", batch_size=None)
    )


# --- Z-order (Morton) layout -------------------------------------------------

_ZSPREAD_STEPS = (
    (8, np.uint64(0x00FF00FF)),
    (4, np.uint64(0x0F0F0F0F)),
    (2, np.uint64(0x33333333)),
    (1, np.uint64(0x55555555)),
)


def _zspread16(x: np.ndarray) -> np.ndarray:
    """Spread each value's low 16 bits to the even bit positions of a
    uint64 (Morton interleave half), fully vectorized."""
    x = x.astype(np.uint64) & np.uint64(0xFFFF)
    for shift, mask in _ZSPREAD_STEPS:
        x = (x | (x << np.uint64(shift))) & mask
    return x


def zorder_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Morton/Z-order value interleaving the low 16 bits of two integer
    columns (a gets the even bits, b the odd): int64 in [0, 2^32)."""
    return (_zspread16(a) | (_zspread16(b) << np.uint64(1))).astype(np.int64)


def zorder_layout(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    out: str = "zval",
) -> ray.data.Dataset:
    """Data-layout op: append the Z-order key of (col_a, col_b) and SORT
    the dataset by it, so rows close in BOTH dimensions land in the same
    blocks/files. At 100 TB this is what makes two-dimensional scan
    predicates (lang x length, domain x time) prune row groups instead
    of reading everything: after ``write_parquet`` of the sorted stream,
    each file covers a small rectangle of the key space, and parquet
    min/max stats on the plain columns stay tight.

    The sort is the one wide operation (Ray Data range-partitions by
    sampled boundaries); the key itself is a vectorized bit-interleave.
    Columns must be non-negative integers; only the low 16 bits of each
    participate (mask wider domains into buckets upstream)."""

    def add_z(batch: pa.Table) -> pa.Table:
        a = batch.column(col_a).to_numpy(zero_copy_only=False)
        b = batch.column(col_b).to_numpy(zero_copy_only=False)
        return batch.append_column(
            out, pa.array(zorder_key(a, b), type=pa.int64())
        )

    return ds.map_batches(add_z, batch_format="pyarrow").sort(out)


# ---------------------------------------------------------------------------
# content-defined chunking (gear-hash CDC)
# ---------------------------------------------------------------------------

_GEAR_TABLE: np.ndarray | None = None


def _gear_table() -> np.ndarray:
    """256 deterministic uint64 gear constants (blake2b of the byte
    value — no RNG, so every worker and every run agrees)."""
    global _GEAR_TABLE
    if _GEAR_TABLE is None:
        import hashlib

        vals = [
            int.from_bytes(
                hashlib.blake2b(bytes([b]), digest_size=8).digest(), "big"
            )
            for b in range(256)
        ]
        _GEAR_TABLE = np.array(vals, dtype=np.uint64)
    return _GEAR_TABLE


def _gear_hashes(codes: np.ndarray) -> np.ndarray:
    """Rolling gear hash h_i = (h_{i-1} << 1) + GEAR[b_i] (mod 2^64) for
    every byte position, vectorized. Because 2^k vanishes mod 2^64 at
    k >= 64, h_i depends on the last 64 bytes only, so the recurrence
    unrolls into 64 shifted vectorized adds (the winnowing trick —
    the only Python loop is over the 64 shift offsets)."""
    g = _gear_table()[codes]
    n = len(g)
    h = np.zeros(n, dtype=np.uint64)
    for k in range(min(64, n)):
        h[k:] += g[: n - k] << np.uint64(k)
    return h


def cdc_boundaries(
    data: bytes, min_size: int, avg_size: int, max_size: int
) -> list[int]:
    """Content-defined cut points (end offsets, last == len(data)) via
    gear-hash CDC: cut after byte i when (h_i & (avg_size-1)) == 0,
    subject to min_size/max_size — the greedy rule of LBFS/FastCDC.
    Boundaries depend on CONTENT, not position, so an insertion early
    in a document shifts only the chunks it touches: the cut sequence
    re-synchronizes at the next content-defined boundary and every
    later chunk is byte-identical — the property that makes chunk-level
    dedup robust where fixed-size chunking is not."""
    if not (0 < min_size <= avg_size <= max_size):
        raise ValueError("need 0 < min_size <= avg_size <= max_size")
    if avg_size & (avg_size - 1):
        raise ValueError("avg_size must be a power of two")
    n = len(data)
    if n == 0:
        return []
    codes = np.frombuffer(data, dtype=np.uint8)
    mask = np.uint64(avg_size - 1)
    # +1: a match at byte i cuts AFTER i
    cand = np.flatnonzero((_gear_hashes(codes) & mask) == 0) + 1
    cuts: list[int] = []
    prev = 0
    while prev < n:
        limit = min(prev + max_size, n)
        i = int(np.searchsorted(cand, prev + min_size))
        if i < len(cand) and cand[i] <= limit:
            cut = int(cand[i])
        else:
            cut = limit
        cuts.append(cut)
        prev = cut
    return cuts


def cdc_chunk_batch(
    batch: pa.Table,
    min_size: int = 64,
    avg_size: int = 256,
    max_size: int = 1024,
) -> pa.Table:
    """(doc_id, chunk_id, start, length, fp) — content-defined chunks of
    each document's utf-8 bytes; fp is a 63-bit blake2b content
    fingerprint of the chunk bytes (the chunk-level dedup key). The
    per-doc loop is over CHUNKS (~len/avg_size picks), the hash pass is
    vectorized; mirrors winnow_batch's shape."""
    import hashlib

    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_doc, out_cid, out_start, out_len, out_fp = [], [], [], [], []
    for doc_id, text in zip(doc_ids, texts):
        data = (text or "").encode("utf-8", "surrogatepass")
        prev = 0
        for cid, cut in enumerate(
            cdc_boundaries(data, min_size, avg_size, max_size)
        ):
            fp = int.from_bytes(
                hashlib.blake2b(data[prev:cut], digest_size=8).digest(), "big"
            ) >> 1
            out_doc.append(doc_id)
            out_cid.append(cid)
            out_start.append(prev)
            out_len.append(cut - prev)
            out_fp.append(fp)
            prev = cut
    i64 = pa.int64()
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(out_doc, type=i64),
            "chunk_id": pa.array(out_cid, type=i64),
            "start": pa.array(out_start, type=i64),
            "length": pa.array(out_len, type=i64),
            "fp": pa.array(out_fp, type=i64),
        }
    )


def cdc_chunks(
    docs: ray.data.Dataset,
    min_size: int = 64,
    avg_size: int = 256,
    max_size: int = 1024,
) -> ray.data.Dataset:
    """Content-defined chunking over a (doc_id, text) corpus — the
    rsync/LBFS/FastCDC primitive for chunk-level dedup of crawl
    snapshots: re-crawled pages that differ by one edit share every
    chunk outside the edit, so storing/deduping by chunk fingerprint
    collapses the redundancy that document-level exact dedup misses.
    Stateless vectorized map; nothing shuffles."""
    return docs.select_columns(["doc_id", "text"]).map_batches(
        lambda b: cdc_chunk_batch(b, min_size, avg_size, max_size),
        batch_format="pyarrow",
    )


def grouped_sample_k(
    ds: ray.data.Dataset,
    group_col: str,
    id_col: str,
    k: int,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exactly-k-PER-GROUP deterministic sample (the balanced
    eval-holdout shape: k docs per language/domain): within each group
    the k rows with the smallest ``md5(str(id))`` hex digest — the same
    content-addressed, reshard-stable ranking as ``uniform_sample_k``,
    partitioned by group. Groups with fewer than k rows keep all rows.

    Shape: each batch cuts locally to its per-group k smallest digests
    (output <= groups-in-batch x k rows), then ONE group-partitioned
    reduce applies the identical rule — group cardinality never
    concentrates anywhere; the digest rides the shuffle as one string
    column. SQL oracle: ``row_number() OVER (PARTITION BY g ORDER BY
    md5(CAST(id AS VARCHAR)), id) <= k``."""
    import hashlib

    import pandas as pd

    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    def cut(df: pd.DataFrame) -> pd.DataFrame:
        # md5 ties are broken by the id itself so the pick is total
        return (
            df.sort_values(["__digest", id_col], kind="mergesort")
            .groupby(group_col, sort=False, dropna=False)
            .head(k)
        )

    def local_cut(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        # md5 IS the cross-engine contract (DuckDB twin uses md5()); one
        # digest per id per pass, bytes-formatted to skip str+encode churn
        md5 = hashlib.md5
        if ids and isinstance(ids[0], int):
            digests = [md5(b"%d" % i).hexdigest() for i in ids]
        else:
            digests = [md5(str(i).encode()).hexdigest() for i in ids]
        t = batch.append_column("__digest", pa.array(digests, type=pa.string()))
        return pa.Table.from_pandas(cut(t.to_pandas()), preserve_index=False)

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        return cut(df).drop(columns=["__digest"])

    return hash_reduce(
        ds.map_batches(local_cut, batch_format="pyarrow"),
        [group_col],
        reduce_group,
        num_partitions=num_partitions or derive_num_partitions(ds),
    )


def rendezvous_assign(
    ds: ray.data.Dataset,
    id_col: str,
    n_shards: int,
    out_col: str = "shard",
) -> ray.data.Dataset:
    """Rendezvous (highest-random-weight) shard assignment: each key
    goes to argmax over shards s of md5("<id>:<s>") — the elastic
    partitioner for 100-TB reshards: growing N -> N+1 moves ONLY the
    ~1/(N+1) of keys that the new shard wins, and they move ONLY to the
    new shard (every surviving shard keeps its keys verbatim, unlike
    mod-N hashing which reshuffles almost everything). Deterministic,
    coordinator-free, identical on every worker.

    Ties break toward the smallest shard id (md5 collisions across
    shard suffixes — astronomically rare but pinned for SQL parity).
    Stateless vectorized-ish map (one md5 pass per shard candidate,
    N_shards small by definition); nothing shuffles."""
    import hashlib

    if n_shards <= 0:
        raise ValueError("n_shards must be positive")

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        best_s = [0] * len(ids)
        best_h = [""] * len(ids)
        for s in range(n_shards):
            suffix = f":{s}"
            for i, v in enumerate(ids):
                h = hashlib.md5(f"{v}{suffix}".encode()).hexdigest()
                # (md5 desc, shard asc): strictly-greater keeps the
                # smallest shard on a tie
                if h > best_h[i]:
                    best_h[i] = h
                    best_s[i] = s
        return batch.append_column(
            out_col, pa.array(best_s, type=pa.int64())
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def mixture_sample(
    docs: ray.data.Dataset,
    weights: dict[str, int],
    budget_tokens: int,
    source_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    salt: str = "mix",
) -> ray.data.Dataset:
    """Token-budget mixture sampling — the training-mixture step (the
    DoReMi / Pile recipe shape): given integer mixture ``weights`` per
    source and a total ``budget_tokens``, downsample each source so its
    EXPECTED token contribution is ``budget * w_s / sum(w)``, by the
    content-addressed rule

        keep iff  md5(salt || id) first-8-hex  % 1_000_000  <  thresh_s
        thresh_s = min(1_000_000,
                       budget * w_s * 1_000_000 // (sum(w) * T_s))

    where ``T_s`` is the source's total token count (whitespace tokens,
    the same expression as the ✓SQL ``token_counts`` anchor). All
    integer arithmetic — the floor-division RULE is the frozen
    contract, so a SQL twin replays it bit-exactly; a source whose
    target exceeds its inventory keeps everything (thresh caps at 1e6;
    upsampling/repetition is a separate op's job). Sources absent from
    ``weights`` drop entirely.

    Scale shape: pass 1 is a per-batch (source, tokens) combine folded
    to ONE row per source (#sources ints to the driver); pass 2 is a
    broadcast-threshold filter — no shuffle, reshard-stable,
    incremental-ingestion-stable (a doc's fate never depends on other
    docs' arrival order, only on the recomputed per-source totals).

    Returns the kept rows (id, source, n_tokens)."""
    import hashlib

    from ctinexus_ray.ops.textstats import _tokens

    if not weights or any(w <= 0 for w in weights.values()):
        raise ValueError("mixture_sample: weights must be positive integers")
    if budget_tokens <= 0:
        raise ValueError("mixture_sample: budget_tokens must be positive")

    def count_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        texts = batch.column(text_col).to_pylist()
        srcs = batch.column(source_col).to_pylist()
        df = (
            pd.DataFrame(
                {
                    "source": srcs,
                    "n": [len(_tokens(t or "")) for t in texts],
                }
            )
            .groupby("source", sort=False, dropna=False)["n"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = (
        docs.select_columns([source_col, text_col])
        .map_batches(count_partial, batch_format="pyarrow")
        .take_all()
    )
    totals: dict[str, int] = {}
    for r in parts:
        totals[r["source"]] = totals.get(r["source"], 0) + int(r["n"])
    sumw = sum(weights.values())
    thresh = {
        s: min(
            1_000_000,
            budget_tokens * w * 1_000_000 // (sumw * totals[s]),
        )
        for s, w in weights.items()
        if totals.get(s)
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        srcs = batch.column(source_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        mask, toks = [], []
        for i, s in zip(ids, srcs):
            t = thresh.get(s)
            h = int(
                hashlib.md5(f"{salt}{i}".encode("utf-8")).hexdigest()[:8], 16
            ) % 1_000_000
            mask.append(t is not None and h < t)
        out = pa.Table.from_pydict(
            {
                id_col: batch.column(id_col),
                source_col: batch.column(source_col),
                "n_tokens": pa.array(
                    [len(_tokens(t or "")) for t in texts], type=pa.int64()
                ),
            }
        ).filter(pa.array(mask, type=pa.bool_()))
        return out

    return docs.select_columns([id_col, source_col, text_col]).map_batches(
        keep, batch_format="pyarrow"
    )
