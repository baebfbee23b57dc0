"""Mergeable sketches: HyperLogLog distinct counting, Misra-Gries heavy
hitters, Bloom membership, t-digest quantiles and Count-Min point
frequencies, plus grouped HLL / t-digest / Misra-Gries.

At 10^12 docs an exact COUNT(DISTINCT), top-k or quantile over a
corpus-cardinality column shuffles every distinct value; a sketch
replaces it with a fixed-size state that merges associatively. Each
whole-dataset sketch here is a (zero, lift, merge, finish) set over a
plain numpy / Python state, folded by ``monoid.mergeable_aggregate``:
every block lifts to a state inside its own task, states merge in a
bounded fan-in tree of tasks, and the driver finishes ONE state (the
zero state on empty input). The grouped sketches combine map-side to
per-key partial rows and merge them through ``groupagg.hash_reduce``,
which co-locates each key's partials, the NULL key included.

HyperLogLog: standard 2^p-register estimator (Flajolet et al. 2007)
with the usual small-range linear-counting correction; hashes come from
the engine's splitmix64-based ``hash64_strings``, so results are
deterministic across runs and partitionings (register maxima are
order-independent).

Misra-Gries: k-counter summary; merged partials keep the classic
guarantee (any value with true frequency > N/k survives), so it is the
scale path for "top words" when the exact hash-partitioned count
(``word_freq_top100``) would shuffle the whole vocabulary.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ctinexus_ray.ops.dedup import hash64_strings
from ctinexus_ray.ops.groupagg import hash_reduce, partitioned_agg
from ctinexus_ray.ops.monoid import mergeable_aggregate


def _hll_partial(values, p: int) -> np.ndarray:
    """Update-from-batch: 2^p uint8 registers from a string array."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = hash64_strings(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # vectorized count-leading-zeros: binary search for the highest set
    # bit in 6 all-numpy passes (float64 exponent tricks are unsafe at
    # 64-bit precision)
    cur = rest.copy()
    nonzero = cur != 0
    lzv = np.zeros(len(h), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        top_is_zero = (cur >> np.uint64(64 - s)) == 0
        both = nonzero & top_is_zero
        lzv[both] += s
        cur[both] = cur[both] << np.uint64(s)
    lz = np.where(nonzero, lzv, 64 - p)
    rank = np.minimum(lz + 1, 64 - p + 1)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Finalize: bias-corrected harmonic mean + linear counting."""
    m = regs.size
    alpha = 0.7213 / (1 + 1.079 / m) if m >= 128 else {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for small ranges
    return float(est)


def _hll_registers(ds: ray.data.Dataset, column: str, p: int) -> np.ndarray:
    """Fold a column into 2^p HLL registers (elementwise-max merge)."""
    m = 1 << p
    return mergeable_aggregate(
        ds.select_columns([column]),
        zero=lambda: np.zeros(m, dtype=np.uint8),
        lift=lambda block: _hll_partial(block.column(column), p),
        merge=np.maximum,
    )


def hll_distinct(
    ds: ray.data.Dataset, column: str, p: int = 14
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT column) via HyperLogLog (2^p registers,
    standard error ~ 1.04/sqrt(2^p) ≈ 0.8% at p=14). Returns ONE row
    (approx_distinct: int64). Each block contributes one fixed-size
    register state; the merge is an elementwise max — nothing
    corpus-sized moves or lands on the driver."""
    est = int(round(_hll_estimate(_hll_registers(ds, column, p))))
    return ray.data.from_arrow(
        pa.table({"approx_distinct": pa.array([est], type=pa.int64())})
    )


def _mg_compact(c: Counter, k: int) -> Counter:
    """Misra-Gries compaction back to at most k counters: decrement
    every counter by the k-th largest count and drop the ones that
    reach zero."""
    if len(c) > k:
        kth = sorted(c.values(), reverse=True)[k - 1]
        c = Counter({v: n - kth for v, n in c.items() if n > kth})
    return c


def _mg_top(c: Counter, top: int) -> list[tuple]:
    """The ``top`` (value, count) pairs by (count desc, value asc);
    a NULL value sorts last among equal counts."""
    return sorted(
        c.items(), key=lambda t: (-t[1], t[0] is None, t[0] or "")
    )[:top]


def misra_gries_topk(
    ds: ray.data.Dataset,
    column: str,
    k: int = 1024,
    top: int = 100,
    weight: str | None = None,
) -> ray.data.Dataset:
    """Approximate heavy hitters: per-block Misra-Gries summaries of k
    counters, merged pairwise (counter-wise sum, then decrement-compact
    back to k). Any value with true frequency > N/k is guaranteed to
    survive; counts are underestimates within N/k (exact when the
    column has at most k distinct values). Returns the ``top`` rows by
    (approx count desc, value asc).

    ``weight`` names an optional int count column so pre-combined
    (value, n) partials — e.g. ``word_explode_batch`` output — feed the
    sketch with WEIGHTED inserts instead of re-exploding to raw
    occurrences (same summary the raw stream would produce block-wise:
    MG compaction is insensitive to how equal values arrive).

    This is the sketch-path replacement for an exact all-vocabulary
    shuffle when only the head of the distribution matters."""

    def lift(block: pa.Table) -> Counter:
        c: Counter = Counter()
        if weight is None:
            c.update(block.column(column).to_pylist())
        else:
            for v, n in zip(
                block.column(column).to_pylist(),
                block.column(weight).to_pylist(),
            ):
                c[v] += n
        return _mg_compact(c, k)

    def merge(a: Counter, b: Counter) -> Counter:
        a.update(b)  # counter-wise sum (keeps zero counts, unlike +)
        return _mg_compact(a, k)

    rows = mergeable_aggregate(
        ds.select_columns([column] + ([weight] if weight is not None else [])),
        zero=Counter,
        lift=lift,
        merge=merge,
        finish=lambda c: _mg_top(c, top),
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "value": pa.array([v for v, _ in rows], type=pa.string()),
                "n": pa.array([n for _, n in rows], type=pa.int64()),
            }
        )
    )


def _bloom_positions(values, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing: h1 + i*h2 mod m
    (Kirsch-Mitzenmacher — two vectorized hashes give k independent-enough
    probes). Deterministic across runs/workers."""
    from ctinexus_ray.ops.dedup import _splitmix64, hash64_strings

    h1 = hash64_strings(values)
    h2 = _splitmix64(h1 ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + i * h2[:, None]) % np.uint64(m_bits)
    return pos.astype(np.int64)


def bloom_build(
    ds: ray.data.Dataset, column: str, m_bits: int = 1 << 23, k: int = 4
) -> bytes:
    """Build a Bloom filter over a key column — the mergeable membership
    sketch for incremental-ingestion dedup when the exact fingerprint
    index is too big to join against cheaply (m_bits=2^23 = 1 MiB
    packed; size m ≈ 1.44 * n * log2(1/fp) for target fp rate).

    Each block contributes one fixed-size packed bitmap and bitmaps
    merge by ``np.bitwise_or``; nothing corpus-sized moves or lands on
    the driver — the final bitmap IS sketch-sized by definition.
    Returns the packed bitmap bytes (m_bits/8)."""
    n_bytes = m_bits // 8

    def lift(block: pa.Table) -> np.ndarray:
        pos = _bloom_positions(block.column(column), m_bits, k).ravel()
        bits = np.zeros(n_bytes, dtype=np.uint8)
        np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return bits

    return mergeable_aggregate(
        ds.select_columns([column]),
        zero=lambda: np.zeros(n_bytes, dtype=np.uint8),
        lift=lift,
        merge=np.bitwise_or,
        finish=lambda bits: bits.tobytes(),
    )


def bloom_filter_new(
    ds: ray.data.Dataset,
    column: str,
    bloom_bits: bytes,
    m_bits: int = 1 << 23,
    k: int = 4,
) -> ray.data.Dataset:
    """Keep only the rows whose key is DEFINITELY NOT in the Bloom
    filter (all-bits-set rows are dropped: possibly-present, with the
    filter's false-positive rate — a Bloom filter never false-negatives,
    so every kept row is genuinely new). Broadcast the 1 MiB bitmap once
    via ``ray.put``; the corpus streams through a stateless vectorized
    membership test — no shuffle, no join. The exact-join sibling is
    ``hash_join how="left_anti"`` (query ``dedup_incremental``); this is
    the constant-memory fast path for when the known-corpus index has
    10^12 keys."""
    bits_ref = ray.put(np.frombuffer(bloom_bits, dtype=np.uint8))

    class Keep:
        def __init__(self, bits_ref):
            self.bits = ray.get(bits_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            pos = _bloom_positions(batch.column(column), m_bits, k)
            probed = (
                self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)
            ) & np.uint8(1)
            maybe_present = probed.all(axis=1)
            return batch.filter(pa.array(~maybe_present))

    return ds.map_batches(
        Keep,
        fn_constructor_kwargs={"bits_ref": bits_ref},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def _tdigest_compress(
    means: np.ndarray, weights: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One merging-t-digest compression pass (Dunning & Ertl): input
    centroids sorted by mean; greedily merge neighbours while the merged
    centroid's weight stays under the k0-style bound
    ``4 * N * q(1-q) / delta`` at its quantile position q — small near
    the tails (accurate extremes), large in the middle."""
    total = float(weights.sum())
    out_m: list[float] = []
    out_w: list[float] = []
    cur_m, cur_w = float(means[0]), float(weights[0])
    w_before = 0.0
    for m, w in zip(means[1:], weights[1:]):
        q = (w_before + cur_w / 2.0) / total
        limit = 4.0 * total * q * (1.0 - q) / delta
        if cur_w + w <= limit:
            cur_m = (cur_m * cur_w + float(m) * float(w)) / (cur_w + w)
            cur_w += float(w)
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            w_before += cur_w
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.array(out_m), np.array(out_w)


def _tdigest_digest(
    means: np.ndarray, weights: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sort centroids by mean and compress them; empty stays empty."""
    if not len(means):
        return means, weights
    order = np.argsort(means, kind="mergesort")
    return _tdigest_compress(means[order], weights[order], delta)


def _tdigest_interp(
    means: np.ndarray, weights: np.ndarray, quantiles: list[float]
) -> list[float]:
    """Quantile values by linear interpolation between centroid
    midpoints."""
    cum = np.cumsum(weights) - weights / 2.0
    total = float(weights.sum())
    return [float(np.interp(q * total, cum, means)) for q in quantiles]


def tdigest_quantiles(
    ds: ray.data.Dataset,
    column: str,
    quantiles: list[float],
    delta: float = 200.0,
) -> ray.data.Dataset:
    """Approximate quantiles of an UNBOUNDED-domain numeric column via a
    mergeable t-digest — the scale path where the exact value-domain
    histogram (``int_column_quantiles``) does not apply (continuous
    scores, latencies, losses). Relative accuracy is best at the tails
    (the merge bound shrinks like q(1-q)), typically <1% of rank at
    delta=200.

    The state is a (means, weights) centroid pair: every block sorts its
    non-NaN values and compresses them to <=delta centroids, states
    merge by sorted-mean compression, and the driver holds one final
    digest of <=delta centroids. Output: (q, value) rows with linear
    interpolation between centroid means; no rows on empty input."""

    def lift(block: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        vals = np.asarray(
            block.column(column).cast(pa.float64()).to_numpy(
                zero_copy_only=False
            ),
            dtype=np.float64,
        )
        vals = vals[~np.isnan(vals)]
        return _tdigest_digest(vals, np.ones_like(vals), delta)

    means, weights = mergeable_aggregate(
        ds.select_columns([column]),
        zero=lambda: (np.zeros(0), np.zeros(0)),
        lift=lift,
        merge=lambda a, b: _tdigest_digest(
            np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]), delta
        ),
    )
    qs = [float(q) for q in quantiles] if len(means) else []
    return ray.data.from_arrow(
        pa.table(
            {
                "q": pa.array(qs, type=pa.float64()),
                "value": pa.array(
                    _tdigest_interp(means, weights, qs), type=pa.float64()
                ),
            }
        )
    )


# ---------------------------------------------------------------------------
# Count-Min sketch
# ---------------------------------------------------------------------------

_CMS_SEED = np.uint64(0xC31B0C55)


def _cms_seeds(depth: int) -> np.ndarray:
    from ctinexus_ray.ops.dedup import _splitmix64

    return _splitmix64(np.arange(depth, dtype=np.uint64) + _CMS_SEED)


def _cms_indices(values, width: int, depth: int) -> np.ndarray:
    """(depth, n) column indices for a sequence/arrow array of strings."""
    from ctinexus_ray.ops.dedup import _splitmix64

    h = hash64_strings(values)
    seeds = _cms_seeds(depth)
    return np.stack(
        [
            (_splitmix64(h ^ seeds[d]) % np.uint64(width)).astype(np.int64)
            for d in range(depth)
        ]
    )


def count_min_estimates(
    ds: ray.data.Dataset,
    column: str,
    probe_values: list[str],
    width: int = 4096,
    depth: int = 4,
    weight: str | None = None,
) -> ray.data.Dataset:
    """Count-Min sketch (Cormode & Muthukrishnan 2005) frequency estimates
    for a bounded list of probe values.

    Each block lifts to one fixed-size (depth x width) int64 counter
    matrix and matrices merge by elementwise sum, so nothing
    corpus-sized moves or lands on the driver. Estimates (min across the
    depth rows) are never below the true count and exceed it by at most
    e/width * N with probability 1 - exp(-depth) — the sketch path for
    point-frequency queries when the exact answer would shuffle the whole
    vocabulary.

    ``weight`` names an optional int count column so pre-combined
    (value, n) partials — e.g. ``word_explode_batch`` output — feed the
    sketch without re-exploding to raw occurrences.

    Returns one (value:string, n_est:int64) row per probe, sorted by
    value. Approximate by design -> rows-only in the driver contract;
    accuracy is pinned against exact counts in tests/test_sketch.py.
    """
    cols = [column] + ([weight] if weight else [])

    def lift(block: pa.Table) -> np.ndarray:
        idx = _cms_indices(block.column(column), width, depth)
        if weight:
            wcol = block.column(weight)
            if wcol.null_count:
                raise ValueError(
                    f"count_min_estimates: weight column {weight!r} "
                    "contains NULLs; fill or filter them upstream"
                )
            w = wcol.to_numpy(zero_copy_only=False).astype(np.int64)
            if (w < 0).any():
                # a negative weight would silently break the sketch's
                # never-underestimates guarantee (np.add.at subtracts)
                raise ValueError(
                    f"count_min_estimates: weight column {weight!r} "
                    "contains negative values"
                )
        else:
            w = np.ones(block.num_rows, dtype=np.int64)
        mat = np.zeros((depth, width), dtype=np.int64)
        for d in range(depth):
            np.add.at(mat[d], idx[d], w)
        return mat

    mat = mergeable_aggregate(
        ds.select_columns(cols),
        zero=lambda: np.zeros((depth, width), dtype=np.int64),
        lift=lift,
        merge=np.add,
    )
    probes = sorted(probe_values)
    if probes:
        idx = _cms_indices(probes, width, depth)
        ests = mat[np.arange(depth)[:, None], idx].min(axis=0)
    else:
        ests = np.zeros(0, dtype=np.int64)
    return ray.data.from_arrow(
        pa.table(
            {
                "value": pa.array(probes, type=pa.string()),
                "n_est": pa.array(ests, type=pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# grouped sketches
# ---------------------------------------------------------------------------


def _reduce_per_key(
    partials: ray.data.Dataset, key: str, merge_group
) -> ray.data.Dataset:
    """Co-locate each key's partial rows with ``hash_reduce`` and merge
    them with ``merge_group`` (one pandas frame per key in, a frame of
    output rows out). ``dropna=False`` keeps the NULL group, as SQL
    GROUP BY does."""

    def reduce_partition(part: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                merge_group(g)
                for _, g in part.groupby(key, sort=False, dropna=False)
            ],
            ignore_index=True,
        )

    reduce_partition.__name__ = merge_group.__name__  # operator label
    return hash_reduce(partials, [key], reduce_partition)


def grouped_hll_distinct(
    ds: ray.data.Dataset, key: str, column: str, p: int = 12
) -> ray.data.Dataset:
    """Per-group approximate COUNT(DISTINCT column) — one HLL register set
    per key, map-side combined: each batch emits ONE (key, registers)
    partial per key it contains, so the exchange moves
    O(num_batches x keys_per_batch) fixed-size rows instead of every
    distinct (key, value) pair. The reduce is a register-wise max per key.

    The scale shape for "distinct users per dimension" when the exact
    answer would shuffle the full (key, value) distinct set. Approximate
    by design -> rows-only; anchored against the exact distributed
    distinct in tests and by the ``distinct_users_by_type`` ✓SQL query.

    Returns (``key``, approx_distinct:int64). Group cardinality must be
    modest per batch (registers are 2^p bytes per group per batch); for
    corpus-cardinality keys, pre-partition by key hash first so each
    batch holds few groups.
    """
    m = 1 << p

    def partial(batch: pa.Table):
        keys = batch.column(key).to_pylist()
        vals = batch.column(column)
        if not (
            pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type)
        ):
            vals = vals.cast(pa.string())  # hash as decimal text
        # factorize keeps the NULL group (SQL GROUP BY semantics —
        # np.unique would raise on a None key); dtype=object prevents
        # pandas coercing int64 keys to float64 when a null is present
        # (floats above 2^53 would silently merge distinct keys)
        inverse, uniq = pd.factorize(
            pd.Series(keys, dtype=object), use_na_sentinel=False
        )
        out_k, out_r = [], []
        for gi, kv in enumerate(uniq):
            rows = np.nonzero(inverse == gi)[0]
            out_k.append(None if pd.isna(kv) else kv)
            out_r.append(_hll_partial(vals.take(pa.array(rows)), p))
        if not out_k:
            return
        yield pa.Table.from_pydict(
            {
                key: pa.array(out_k),
                "regs": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.concatenate(out_r)), m
                ),
            }
        )

    def merge_hll(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.stack(list(g["regs"])).max(axis=0)
        return pd.DataFrame(
            {
                key: [g[key].iloc[0]],
                "approx_distinct": pd.array(
                    [int(round(_hll_estimate(regs)))], dtype="int64"
                ),
            }
        )

    partials = ds.select_columns([key, column]).map_batches(
        partial, batch_format="pyarrow"
    )
    return _reduce_per_key(partials, key, merge_hll)


def grouped_tdigest_quantiles(
    ds: ray.data.Dataset,
    key: str,
    column: str,
    quantiles: list[float],
    delta: float = 200.0,
) -> ray.data.Dataset:
    """Per-group approximate quantiles via one mergeable t-digest per key
    — the grouped sibling of ``tdigest_quantiles`` for unbounded numeric
    domains (per-domain latency/score/length distributions at corpus
    scale).

    Map side: each batch sorts per group and emits <=delta (key, mean,
    weight) centroid rows per group it contains — fixed-size partials,
    map-side combined. Reduce: each key's centroids merge by sorted-mean
    compression and the requested quantiles are interpolated. Group
    count is assumed >> partials per group, so the exchange moves
    O(batches x groups_per_batch x delta) small rows, never the corpus
    values.

    Output: (``key``, q:float64, value:float64) rows. Approximate by
    design -> rows-only; accuracy pinned vs exact grouped quantiles in
    tests."""

    def partial(batch: pa.Table):
        df = pd.DataFrame(
            {
                "k": batch.column(key).to_pylist(),
                "v": np.asarray(
                    batch.column(column).cast(pa.float64()).to_numpy(
                        zero_copy_only=False
                    ),
                    dtype=np.float64,
                ),
            }
        )
        df = df[~df["v"].isna()]
        out_k, out_m, out_w = [], [], []
        # dropna=False: SQL GROUP BY keeps the NULL group (same invariant
        # as partitioned_agg / grouped_hll_distinct)
        for kv, sub in df.groupby("k", sort=False, dropna=False):
            vals = sub["v"].to_numpy()
            m, w = _tdigest_digest(vals, np.ones_like(vals), delta)
            out_k.extend([None if pd.isna(kv) else kv] * len(m))
            out_m.extend(m)
            out_w.extend(w)
        if not out_k:
            return
        yield pa.Table.from_pydict(
            {
                key: pa.array(out_k),
                "mean": pa.array(out_m, type=pa.float64()),
                "weight": pa.array(out_w, type=pa.float64()),
            }
        )

    def merge_tdigest(g: pd.DataFrame) -> pd.DataFrame:
        m, w = _tdigest_digest(
            g["mean"].to_numpy(dtype=np.float64),
            g["weight"].to_numpy(dtype=np.float64),
            delta,
        )
        return pd.DataFrame(
            {
                key: [g[key].iloc[0]] * len(quantiles),
                "q": pd.array([float(q) for q in quantiles], dtype="float64"),
                "value": pd.array(
                    _tdigest_interp(m, w, quantiles), dtype="float64"
                ),
            }
        )

    partials = ds.select_columns([key, column]).map_batches(
        partial, batch_format="pyarrow"
    )
    return _reduce_per_key(partials, key, merge_tdigest)


def grouped_misra_gries_topk(
    ds: ray.data.Dataset,
    key: str,
    column: str,
    k: int = 256,
    top: int = 5,
) -> ray.data.Dataset:
    """Per-group approximate heavy hitters — one Misra-Gries k-counter
    summary per key (completing the grouped-sketch family alongside
    ``grouped_hll_distinct`` / ``grouped_tdigest_quantiles``): each batch
    emits <=k (key, value, n) counter rows per group it contains
    (map-side combined, fixed size); the reduce merges each key's
    summaries (counter-wise sum + decrement-compaction back to k) and
    keeps the ``top`` rows per group by (approx count desc, value asc).

    Classic MG guarantee per group: any value with true in-group
    frequency > N_group/k survives; counts are underestimates within
    N_group/k. Approximate -> rows-only; anchored by the exact grouped
    top-N (`top_words_by_lang`-style window) in tests."""

    def summarize(batch: pa.Table):
        per_key: dict = {}
        for kv, val in zip(
            batch.column(key).to_pylist(), batch.column(column).to_pylist()
        ):
            if val is None:
                # NULL values are ignored (SQL count(col) semantics,
                # matching grouped_hll_distinct); leaving them in would
                # crash the (count, value) tie-break sort on None vs str
                continue
            per_key.setdefault(kv, Counter())[val] += 1
        out_k, out_v, out_n = [], [], []
        for kv, c in per_key.items():
            c = _mg_compact(c, k)
            for v, n in c.items():
                out_k.append(kv)
                out_v.append(v)
                out_n.append(n)
        if not out_k:
            return
        yield pa.Table.from_pydict(
            {
                key: pa.array(out_k),
                "value": pa.array(out_v, type=pa.string()),
                "n": pa.array(out_n, type=pa.int64()),
            }
        )

    def merge_mg(g: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for v, n in zip(g["value"], g["n"]):
            c[v] += n
        rows = _mg_top(_mg_compact(c, k), top)
        return pd.DataFrame(
            {
                key: [g[key].iloc[0]] * len(rows),
                "value": pd.Series([r[0] for r in rows], dtype=object),
                "n_est": pd.array([r[1] for r in rows], dtype="int64"),
            }
        )

    partials = ds.select_columns([key, column]).map_batches(
        summarize, batch_format="pyarrow"
    )
    return _reduce_per_key(partials, key, merge_mg)


def hll_set_cardinalities(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    column: str,
    p: int = 14,
) -> ray.data.Dataset:
    """Approximate set-operation cardinalities between two corpora's
    distinct values of ``column`` via two HyperLogLog register sets:
    |A|, |B|, |A∪B| (elementwise register max — exact HLL union), then
    |A∩B| = |A|+|B|−|A∪B| (inclusion–exclusion, clamped at 0) and the
    two differences from the union. The constant-memory scale path for
    corpus-overlap questions (crawl-vs-crawl vocabulary overlap,
    contamination screening) where ``distinct_set_op`` would shuffle
    both vocabularies; the exact op is the anchor this sketch is judged
    against (same pattern as ``hll_distinct`` ↔ the exact distinct).

    Scale shape: each side folds to its own 2^p-byte register set —
    fixed-size, mergeable, nothing corpus-sized moves. Intersection
    error grows as the true intersection shrinks relative to the union
    (standard inclusion–exclusion caveat) — accuracy pinned in tests.

    Returns six (op: string, approx: int64) rows: distinct_left,
    distinct_right, union, intersect, except_left, except_right.

    NULL semantics: NULLs hash as "" (the hash64_strings convention),
    so a corpus containing BOTH NULL and '' sees them conflated into
    one distinct value — filter upstream if that distinction matters
    (the exact anchor counts them separately, as SQL DISTINCT does)."""
    regs_a = _hll_registers(left, column, p)
    regs_b = _hll_registers(right, column, p)
    a = _hll_estimate(regs_a)
    b = _hll_estimate(regs_b)
    u = _hll_estimate(np.maximum(regs_a, regs_b))
    ops = [
        ("distinct_left", a),
        ("distinct_right", b),
        ("union", u),
        ("intersect", max(0.0, a + b - u)),
        ("except_left", max(0.0, u - b)),
        ("except_right", max(0.0, u - a)),
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "op": pa.array([o for o, _ in ops], type=pa.string()),
                "approx": pa.array(
                    [int(round(v)) for _, v in ops], type=pa.int64()
                ),
            }
        )
    )


def hll_register_rows(
    ds: ray.data.Dataset, column: str, p: int = 14
) -> ray.data.Dataset:
    """HyperLogLog registers as ROWS — (reg:int64, rho:int64), nonzero
    registers only, max-combined across batches. The row form exists for
    DELTA-MAINTAINED distinct-count views (state/ivm.py): registers are
    a max-monoid, so a tick's register rows append to a persisted view
    with ``apply_delta(value_cols={"rho": "max"})``, ``read_view`` folds
    them by max, and the view's estimate equals the full-corpus sketch
    exactly (pinned in tests).
    At most 2^p rows regardless of corpus size."""

    def partial(batch: pa.Table):
        regs = _hll_partial(batch.column(column), p)
        nz = np.nonzero(regs)[0]
        if not len(nz):
            return
        yield pa.Table.from_pydict(
            {
                "reg": pa.array(nz.astype(np.int64), type=pa.int64()),
                "rho": pa.array(regs[nz].astype(np.int64), type=pa.int64()),
            }
        )

    return partitioned_agg(
        ds.select_columns([column]).map_batches(partial, batch_format="pyarrow"),
        keys=["reg"],
        named_aggs={"rho": ("rho", "max")},
        num_partitions=16,
    )


def hll_estimate_from_rows(rows: list[dict], p: int = 14) -> int:
    """Finalize an estimate from (reg, rho) rows (missing registers are
    zero) — the read side of the delta-maintained distinct view."""
    regs = np.zeros(1 << p, dtype=np.uint8)
    for r in rows:
        regs[int(r["reg"])] = int(r["rho"])
    return int(round(_hll_estimate(regs)))
