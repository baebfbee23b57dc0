"""Hash-partitioned vectorized grouped aggregation.

Ray Data's built-in per-key aggregates (``groupby(k).aggregate(...)``) pay
per-group overhead linear in the number of DISTINCT keys — measured ~139 s
to distinct 1.2 M pairs and 16.4 s to reduce 436 k entities on 32 CPUs.
When key cardinality grows with the corpus (texts, doc pairs, entities,
users), the scalable shape is:

    1. map: add ``pkey = hash(keys) mod P``  (vectorized / cheap)
    2. ``groupby(pkey)`` — P groups only, so per-group overhead is O(P)
    3. inside each partition: ONE vectorized pass (``partitioned_agg``:
       a ``pa.Table.group_by().aggregate``) over all keys that hashed there

``hash_reduce`` is that shape with a caller-supplied step 3 and the one
place in the engine that builds it; ``partitioned_agg`` and every other
key-co-locating reduce (joins, windows, pair generators) go through it.
Partitioning by key hash co-locates every key's rows, so results are
exact for order-free aggregates (sum/min/max/size/first-after-sort).
``num_partitions`` bounds per-task memory: size it ~ rows / comfortable
task rows at corpus scale.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# ~256 MB of input per reduce task: large enough that per-task overhead
# amortizes, small enough that a partition's rows + the vectorized
# groupby working set fit a worker heap comfortably. Overridable via
# CTINEXUS_PARTITION_TARGET_BYTES (tests force a tiny target to check
# the derivation raises the count).
_PARTITION_TARGET_BYTES = 256 * 1024**2
_DEFAULT_NUM_PARTITIONS = 64


def derive_num_partitions(
    *datasets: ray.data.Dataset,
    target_bytes: int | None = None,
    default: int = _DEFAULT_NUM_PARTITIONS,
) -> int:
    """Partition-count sizing rule for hash-partitioned reduces/joins:
    ceil(total input bytes / ~256 MB), rounded up to a power of two,
    clamped to [16, 65536].

    The byte estimate comes from plan metadata ONLY
    (``infer_metadata().size_bytes`` — parquet/row-count metadata, never
    triggers execution); a lazily transformed dataset with no metadata
    falls back to ``default``, so deriving is always safe on a hot path.
    Callers that know their data (skew, explode factors) pass an
    explicit ``num_partitions`` instead."""
    target = target_bytes or int(
        os.environ.get("CTINEXUS_PARTITION_TARGET_BYTES", _PARTITION_TARGET_BYTES)
    )
    total, known = 0, False
    for ds in datasets:
        try:
            sz = ds._logical_plan.dag.infer_metadata().size_bytes
        except Exception:  # noqa: BLE001 — internal probe, fall back
            sz = None
        if sz is not None:
            total += int(sz)
            known = True
    if not known:
        return default
    need = max(1, -(-total // target))
    p = 1
    while p < need:
        p <<= 1
    return max(16, min(p, 65536))


def add_hash_pkey(
    batch: pa.Table, keys: list[str], num_partitions: int
) -> pa.Table:
    """Append ``pkey`` = mixed hash of the key columns mod num_partitions.
    Integer keys mix with shifts/xors (vectorized via pyarrow.compute);
    string keys hash with the vectorized numpy polynomial hash
    (``hash64_strings``) — this sits on the hottest path in the engine
    (every string-keyed partitioned_agg / hash_join), so it must never
    fall back to a per-row Python loop."""
    from ctinexus_ray.ops.dedup import hash64_strings

    mask = num_partitions - 1
    mix = None
    for name in keys:
        col = batch.column(name)
        if pa.types.is_temporal(col.type):
            # timestamps/dates hash by their epoch integer representation
            col = col.cast(pa.int64()) if not pa.types.is_date32(col.type) \
                else col.cast(pa.int32()).cast(pa.int64())
        if pa.types.is_integer(col.type):
            part = pc.bit_wise_xor(pc.shift_left(col.cast(pa.int64()), 13), col.cast(pa.int64()))
        else:
            if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
                col = col.cast(pa.string())
            # keep the top bit clear so the int64 view stays non-negative
            h = (hash64_strings(col) >> np.uint64(1)).view(np.int64)
            part = pa.array(h, type=pa.int64())
        mix = part if mix is None else pc.bit_wise_xor(mix, part)
    return batch.append_column("pkey", pc.bit_wise_and(mix, mask))


def hash_reduce(
    ds: ray.data.Dataset,
    keys: list[str],
    fn,
    *,
    num_partitions: int | None = None,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """The one grouped reduce: hash-partition rows by ``keys`` into
    ``num_partitions`` groups and call ``fn`` once per partition.

    Every row sharing a key value lands in the same partition (NULL key
    values included), so ``fn`` sees each key's rows together alongside
    other keys that hashed there; it returns a batch of zero or more
    rows, as in ``map_batches``. ``fn`` gets the partition in
    ``batch_format`` ("pandas" or "pyarrow") without the internal
    ``pkey`` column, which is dropped zero-copy in Arrow first.
    ``num_partitions=None`` derives the count from plan metadata
    (``derive_num_partitions``, ~256 MB of input per reduce task); an
    explicit count must be a power of two.

    This is the only place that knows how a grouped reduce exchanges
    rows: per-row combines that shrink the input stay the caller's own
    ``map_batches`` and Ray fuses them with the map here.
    """
    from ray.data.block import BlockAccessor

    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    if num_partitions < 1 or num_partitions & (num_partitions - 1):
        raise ValueError(
            f"num_partitions must be a power of two, got {num_partitions}"
        )
    keys = list(keys)

    def add_pkey(batch: pa.Table) -> pa.Table:
        return add_hash_pkey(batch, keys, num_partitions)

    def reduce(block):
        part = BlockAccessor.for_block(block).to_arrow().drop_columns(["pkey"])
        return fn(BlockAccessor.for_block(part).to_batch_format(batch_format))

    reduce.__name__ = getattr(fn, "__name__", "reduce")  # operator label
    return (
        ds.map_batches(add_pkey, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(reduce, batch_format=None)
    )


# agg name -> Arrow hash aggregate (options set in ``partitioned_agg``)
_ARROW_AGGS = {"sum": "sum", "size": "count", "min": "min", "max": "max"}


def partitioned_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    named_aggs: dict[str, tuple[str, str]],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Grouped aggregation with O(P) per-group overhead.

    ``named_aggs`` maps output column -> (input column, agg name), e.g.
    ``{"n_dups": ("doc_id", "size"), "doc_id": ("doc_id", "min")}``. The
    agg names are ``sum`` (numeric columns; NULLs and NaNs skipped, 0 for
    a group with no value, int64 for any integer input), ``size`` (rows,
    NULLs included), ``min`` and ``max`` (numeric, string or temporal;
    NULL for a group with no value). NULL keys form their own group.
    Output columns: keys + named_aggs keys. Each partition is reduced by
    one ``pa.Table.group_by().aggregate``.
    ``num_partitions=None`` derives the count (see ``hash_reduce``).
    """
    keys = list(keys)
    named_aggs = {out: (col, fn) for out, (col, fn) in named_aggs.items()}
    # distinct (col, agg, Arrow agg); an unknown agg name fails here
    specs = [(c, fn, _ARROW_AGGS[fn]) for c, fn in dict.fromkeys(named_aggs.values())]

    def reduce_partition(part: pa.Table) -> pa.Table:
        schema = part.schema
        for col in {c for c, _, _ in specs if pa.types.is_floating(schema.field(c).type)}:
            # NaN counts as missing, like NULL (Arrow's min of all-NaN is inf)
            x = part.column(col)
            part = part.set_column(schema.get_field_index(col), col,
                                   pc.if_else(pc.is_nan(x), None, x))
        gkeys, dicts = keys, None
        if len(keys) > 1 and any(part.column(k).null_count for k in keys):
            # pyarrow 16 splits a multi-column key's NULL-bearing groups
            # into several: group by the keys' dictionary indices instead
            dicts = [pc.dictionary_encode(part.column(k).combine_chunks(),
                                          null_encoding="encode") for k in keys]
            gkeys = [f"__key{i}" for i in range(len(keys))]
            part = pa.Table.from_arrays(
                part.columns + [d.indices for d in dicts],
                names=part.column_names + gkeys,
            )
        # sum gives 0 for a group with no value, size counts every row
        # (options are built here: they do not pickle)
        opts = {"sum": pc.ScalarAggregateOptions(min_count=0),
                "size": pc.CountOptions(mode="all")}
        g = part.group_by(gkeys, use_threads=False).aggregate(
            [(col, agg, opts.get(fn)) for col, fn, agg in specs]
        )
        cols = [g.column(k) for k in gkeys]
        if dicts:
            cols = [d.dictionary.take(c) for d, c in zip(dicts, cols)]
        cols += [g.column(f"{col}_{_ARROW_AGGS[fn]}") for col, fn in named_aggs.values()]
        return pa.Table.from_arrays(cols, names=keys + list(named_aggs))

    return hash_reduce(ds, keys, reduce_partition,
                       num_partitions=num_partitions, batch_format="pyarrow")


def rollup_counts(
    ds: ray.data.Dataset,
    keys: list[str],
    out: str = "n",
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """``GROUP BY ROLLUP(keys...)`` row counts: every prefix level of the
    key list, coarsest level last. Grouped-out key columns take the
    sentinel ``'ALL'`` (all key columns are cast to string), which equals
    ``COALESCE(CAST(k AS VARCHAR), 'ALL')`` over SQL ROLLUP output when
    the data itself has no NULL keys.

    Scale shape: the corpus is read and shuffled ONCE for the finest
    level (hash-partitioned vectorized count); every coarser level
    re-aggregates the PREVIOUS level's counts — rollup-from-rollup, so
    level j's input is level j+1's output (group-cardinality-sized, not
    corpus-sized). Output: keys + [out]."""
    import pyarrow as pa

    def stringify(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(k).cast(pa.string()) for k in keys]
        return pa.Table.from_arrays(arrays, names=keys)

    level = partitioned_agg(
        ds.map_batches(stringify, batch_format="pyarrow"),
        keys=keys,
        named_aggs={out: (keys[0], "size")},
        num_partitions=num_partitions,
    )
    levels = [level]
    for j in range(len(keys) - 1, -1, -1):
        kept = keys[:j]
        prev = levels[-1]
        if kept:
            coarser = partitioned_agg(
                prev,
                keys=kept,
                named_aggs={out: (out, "sum")},
                num_partitions=num_partitions,
            )
        else:
            total = prev.sum(out)

            def _one(total=total):
                return pa.Table.from_pydict({out: pa.array([total], type=pa.int64())})

            coarser = ray.data.from_arrow(_one())

        def widen(batch: pa.Table, kept=tuple(kept)) -> pa.Table:
            n = batch.num_rows
            arrays, names = [], []
            for k in keys:
                if k in kept:
                    arrays.append(batch.column(k))
                else:
                    arrays.append(pa.array(["ALL"] * n, type=pa.string()))
                names.append(k)
            arrays.append(batch.column(out).cast(pa.int64()))
            names.append(out)
            return pa.Table.from_arrays(arrays, names=names)

        levels.append(coarser)
        levels[-1] = coarser.map_batches(widen, batch_format="pyarrow")

    def pin(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(k).cast(pa.string()) for k in keys]
        arrays.append(batch.column(out).cast(pa.int64()))
        return pa.Table.from_arrays(arrays, names=keys + [out])

    result = levels[0].map_batches(pin, batch_format="pyarrow")
    for lv in levels[1:]:
        result = result.union(lv.map_batches(pin, batch_format="pyarrow"))
    return result


def cube_counts(
    ds: ray.data.Dataset,
    keys: list[str],
    out: str = "n",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """``GROUP BY CUBE(keys...)`` row counts: every subset of the key
    list. Grouped-out key columns take the sentinel ``'ALL'`` (all key
    columns are cast to string), matching
    ``COALESCE(CAST(k AS VARCHAR), 'ALL')`` over SQL CUBE output when the
    data itself has no NULL keys (same caveat as ``rollup_counts``).

    Scale shape: the corpus is read and shuffled ONCE for the finest
    level; every coarser subset re-aggregates a one-key-larger parent
    subset's counts, so all 2^k - 1 derived levels work on
    group-cardinality-sized inputs. Each level is materialized before
    fan-out (a level feeds both its child subsets and the final union —
    without pinning, Ray's lazy plan would re-execute the corpus
    aggregate once per consumer). Output: keys + [out]."""
    from itertools import combinations

    if not keys:
        raise ValueError("cube_counts requires at least one key")

    def stringify(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(k).cast(pa.string()) for k in keys]
        return pa.Table.from_arrays(arrays, names=keys)

    full = tuple(keys)
    raw: dict[tuple[str, ...], ray.data.Dataset] = {
        full: partitioned_agg(
            ds.map_batches(stringify, batch_format="pyarrow"),
            keys=list(full),
            named_aggs={out: (keys[0], "size")},
            num_partitions=num_partitions,
        ).materialize()
    }
    for r in range(len(keys) - 1, 0, -1):
        for s in combinations(keys, r):
            parent = next(
                p for p in raw if set(s) < set(p) and len(p) == len(s) + 1
            )
            raw[s] = partitioned_agg(
                raw[parent],
                keys=list(s),
                named_aggs={out: (out, "sum")},
                num_partitions=16,
            ).materialize()

    any_single = (keys[0],)
    total = int(raw[any_single].sum(out) or 0)  # sum() is None when empty

    def widen(batch: pa.Table, present: tuple[str, ...]) -> pa.Table:
        n = batch.num_rows
        arrays, names = [], []
        for k in keys:
            if k in present:
                arrays.append(batch.column(k).cast(pa.string()))
            else:
                arrays.append(pa.array(["ALL"] * n, type=pa.string()))
            names.append(k)
        arrays.append(batch.column(out).cast(pa.int64()))
        names.append(out)
        return pa.Table.from_arrays(arrays, names=names)

    import functools

    levels = [
        sub_ds.map_batches(
            functools.partial(widen, present=s), batch_format="pyarrow"
        )
        for s, sub_ds in raw.items()
    ]
    grand = pa.Table.from_pydict(
        {
            **{k: pa.array(["ALL"], type=pa.string()) for k in keys},
            out: pa.array([total], type=pa.int64()),
        }
    )
    levels.append(ray.data.from_arrow(grand))
    result = levels[0]
    for lv in levels[1:]:
        result = result.union(lv)
    return result


def grouped_string_agg(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    order_col: str,
    sep: str = ",",
    out: str = "agg",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed ``string_agg(value ORDER BY order_col)`` per key — the
    collect-list shape (grouping keys are corpus-cardinality, so the
    usual hash-partitioned layout; per partition ONE vectorized sort +
    one ``groupby.agg(join)``). The order column makes the concatenation
    deterministic regardless of partitioning/batch order.

    Beware output-row width at scale: a key with millions of members
    builds a string of their concatenation — cap or bucket upstream if
    values-per-key is unbounded (same caveat as SQL string_agg)."""
    def agg_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order_col], kind="mergesort")
        out_df = (
            g.groupby(key, sort=False)[value_col]
            .agg(lambda s: sep.join(s.astype(str)))
            .reset_index()
        )
        out_df.columns = [key, out]
        return out_df

    # the value may BE the order column (e.g. posting lists sorted by id)
    cols = list(dict.fromkeys([key, value_col, order_col]))
    return hash_reduce(
        ds.select_columns(cols), [key], agg_partition,
        num_partitions=num_partitions,
    )


def key_skew_profile(
    ds: ray.data.Dataset,
    key: str,
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    num_partitions: int | None = None,
) -> pa.Table:
    """Key-skew diagnostic run BEFORE picking a partitioning/salting plan:
    one row with ``n_keys``, ``n_rows``, ``max_n``, the requested
    discrete quantiles of per-key row counts (``p{q}_n``, DuckDB
    ``quantile_disc`` index rule: sorted element at ``max(0,
    ceil(q*n)-1)``), and ``top_key`` (smallest key among those with the
    maximal count — deterministic under ties).

    Scale shape: ONE hash-partitioned count reduce (corpus -> per-key
    counts, key-cardinality sized), materialized ONCE so the two
    downstream consumers don't re-execute the corpus shuffle; then a
    count-of-counts reduce whose output is O(distinct count values) —
    tiny in practice (a power-law corpus has far fewer distinct group
    sizes than groups) — walked cumulatively on the driver. The driver
    never holds per-key rows."""
    counts = partitioned_agg(
        ds.select_columns([key]),
        keys=[key],
        named_aggs={"n": (key, "size")},
        num_partitions=num_partitions,
    ).materialize()  # key-cardinality sized; consumed twice below

    hist = partitioned_agg(
        counts, keys=["n"], named_aggs={"freq": ("n", "size")}
    ).take_all()  # O(distinct count values) rows by construction
    hist.sort(key=lambda r: r["n"])
    ns = np.array([r["n"] for r in hist], dtype=np.int64)
    freqs = np.array([r["freq"] for r in hist], dtype=np.int64)
    n_keys = int(freqs.sum())
    n_rows = int((ns * freqs).sum())
    max_n = int(ns[-1]) if len(ns) else 0
    cum = np.cumsum(freqs)
    q_vals = {}
    for q in quantiles:
        idx = max(0, int(np.ceil(q * n_keys)) - 1)
        pos = int(np.searchsorted(cum, idx + 1))
        q_vals[q] = int(ns[pos]) if len(ns) else 0

    def keep_max(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("n"), max_n))

    top_key = (
        counts.map_batches(keep_max, batch_format="pyarrow").min(key)
        if n_keys
        else None
    )

    cols: dict[str, pa.Array] = {
        "n_keys": pa.array([n_keys], type=pa.int64()),
        "n_rows": pa.array([n_rows], type=pa.int64()),
        "max_n": pa.array([max_n], type=pa.int64()),
    }
    for q in quantiles:
        label = f"p{int(round(q * 100))}_n"
        cols[label] = pa.array([q_vals[q]], type=pa.int64())
    if top_key is None or isinstance(top_key, (int, np.integer)):
        cols["top_key"] = pa.array(
            [None if top_key is None else int(top_key)], type=pa.int64()
        )
    else:  # string keys keep their own type
        cols["top_key"] = pa.array([top_key])
    return pa.Table.from_pydict(cols)


def grouped_arg_extremum(
    ds: ray.data.Dataset,
    keys: list[str],
    order_col: str,
    tie_col: str,
    payload_cols: list[str],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """FIRST_VALUE / LAST_VALUE per group over a total order: for each
    key group, the ``payload_cols`` (and ``order_col``) of the row with
    the smallest and the largest ``order_col`` — ties broken by the
    smallest ``tie_col`` on BOTH ends, so the result is deterministic
    whenever (order_col, tie_col) is unique per group (pass a unique id
    as the tie). The arg-extremum shape SQL spells as
    ``row_number() OVER (ORDER BY order, tie) = 1``.

    Scale shape: per input batch a vectorized combine keeps at most TWO
    candidate rows per group (the batch's own first/last), then ONE
    hash-partitioned reduce applies the identical rule — classic
    mergeable-partial aggregation; group cardinality never
    materializes anywhere. Output columns: keys + first_<c> / last_<c>
    for order_col and every payload column.

    NULL order values sort LAST on both ends (pandas na_position,
    matching DuckDB's default NULLS LAST for ASC and DESC), so a null
    row is only ever picked when the whole group is null. Caveat: an
    int64 order/payload column CONTAINING nulls round-trips through
    pandas as float64 in the output (the usual Arrow->pandas nullable
    degradation) — pass non-null columns for exact integer outputs.
    """
    # order-preserving dedupe: tie_col may double as a payload column
    cols = list(dict.fromkeys(keys + [order_col, tie_col] + list(payload_cols)))

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        firsts = (
            df.sort_values([order_col, tie_col])
            .groupby(keys, sort=False, dropna=False)
            .head(1)
        )
        lasts = (
            df.sort_values(
                [order_col, tie_col], ascending=[False, True]
            )
            .groupby(keys, sort=False, dropna=False)
            .head(1)
        )
        return pd.concat([firsts, lasts], ignore_index=True)

    def combine(batch: pa.Table) -> pa.Table:
        df = candidates(batch.select(cols).to_pandas())
        return pa.Table.from_pandas(df, preserve_index=False)

    def reduce_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g[cols]
        f = (
            g.sort_values([order_col, tie_col])
            .groupby(keys, sort=False, dropna=False)
            .head(1)
            .set_index(keys)
        )
        l = (
            g.sort_values([order_col, tie_col], ascending=[False, True])
            .groupby(keys, sort=False, dropna=False)
            .head(1)
            .set_index(keys)
        )
        out = f[[order_col, *payload_cols]].rename(
            columns={c: f"first_{c}" for c in [order_col, *payload_cols]}
        )
        lastr = l[[order_col, *payload_cols]].rename(
            columns={c: f"last_{c}" for c in [order_col, *payload_cols]}
        )
        return out.join(lastr).reset_index()

    return hash_reduce(
        ds.select_columns(cols).map_batches(combine, batch_format="pyarrow"),
        keys, reduce_partition, num_partitions=num_partitions,
    )
