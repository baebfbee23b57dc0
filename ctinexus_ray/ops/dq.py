"""Data-quality rule engine: one-pass violation counting over a corpus.

The gate a 100-TB ingest runs BEFORE spending compute downstream: a set
of named row predicates ("value non-negative", "timestamp in range",
"key not null", "type in enum") evaluated vectorized in a single
``map_batches`` pass. Each batch emits ONE fixed-size partial row
(n_rows + one violation count per rule), so the merged report is
O(#batches) driver work and the corpus never shuffles.

Rules are callables ``pa.Table -> pa.BooleanArray`` returning True where
the row PASSES; nulls count as violations (SQL ``NOT coalesce(pred,
false)`` semantics — an unknown is not a pass).
"""

from __future__ import annotations

from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

Rule = Callable[[pa.Table], "pa.BooleanArray | pa.ChunkedArray"]


def data_quality_report(
    ds: ray.data.Dataset,
    rules: dict[str, Rule],
) -> pa.Table:
    """Evaluate every rule over every row in ONE streaming pass; return
    one row per rule: (rule, n_rows, n_violations, violation_rate).
    Rule order in the output follows the dict order."""
    names = list(rules)

    def partial(batch: pa.Table):
        if batch.num_rows == 0:  # pc.sum of an empty mask is null —
            return  # `n_rows - None` would TypeError the whole report
        cols: dict[str, list[int]] = {"n_rows": [batch.num_rows]}
        for name in names:
            passed = pc.fill_null(rules[name](batch), False)
            if isinstance(passed, pa.ChunkedArray):
                passed = passed.combine_chunks()
            cols[name] = [batch.num_rows - (pc.sum(passed).as_py() or 0)]
        yield pa.Table.from_pydict(
            {k: pa.array(v, type=pa.int64()) for k, v in cols.items()}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n_rows = sum(p["n_rows"] for p in parts)
    out_rules, out_viol = [], []
    for name in names:
        out_rules.append(name)
        out_viol.append(sum(p[name] for p in parts))
    return pa.Table.from_pydict(
        {
            "rule": pa.array(out_rules, type=pa.string()),
            "n_rows": pa.array([n_rows] * len(names), type=pa.int64()),
            "n_violations": pa.array(out_viol, type=pa.int64()),
            "violation_rate": pa.array(
                [v / n_rows if n_rows else 0.0 for v in out_viol],
                type=pa.float64(),
            ),
        }
    )


def table_checksum(
    ds: ray.data.Dataset,
    cols: list[str],
    sep: str = "|",
) -> pa.Table:
    """Order-independent corpus checksum: XOR of a content-addressed
    60-bit hash (md5 prefix) of every row's ``sep``-joined column
    values, plus the row count — the cheap way to verify a 100-TB copy,
    migration, or replica WITHOUT moving or sorting the data (XOR is
    commutative/associative, so block order, partitioning, and cluster
    size cannot change the result; pair it with n_rows because XOR
    alone cannot see a row duplicated an even number of times).

    One streaming pass; each batch emits a fixed-size (xor, n) partial;
    the driver folds O(#batches) partials. Row rendering is
    INJECTIVE: each value is length-prefixed ("<len>:<value>", SQL
    CAST(x AS VARCHAR) for non-strings) and NULL renders as the bare
    marker "N" — so a separator character INSIDE a value cannot make
    two different rows render identically ('x|y'+'z' vs 'x'+'y|z'),
    and NULL stays distinct from every string including ''. 60 bits
    keeps the result in a positive BIGINT on both sides (DuckDB
    bit_xor over UBIGINT)."""
    import hashlib

    def partial(batch: pa.Table):
        if batch.num_rows == 0:
            return
        rendered = []
        for c in cols:
            col = batch.column(c)
            if not (
                pa.types.is_string(col.type)
                or pa.types.is_large_string(col.type)
            ):
                col = col.cast(pa.string())
            rendered.append(col.to_pylist())
        acc = 0
        for parts in zip(*rendered):
            key = sep.join(
                "N" if p is None else f"{len(p)}:{p}" for p in parts
            )
            acc ^= int(
                hashlib.md5(key.encode("utf-8")).hexdigest()[:15], 16
            )
        yield pa.Table.from_pydict(
            {
                "x": pa.array([acc], type=pa.int64()),
                "n": pa.array([batch.num_rows], type=pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc, n = 0, 0
    for p in parts:  # O(#batches) driver rows
        acc ^= p["x"]
        n += p["n"]
    return pa.Table.from_pydict(
        {
            "checksum": pa.array([acc], type=pa.int64()),
            "n_rows": pa.array([n], type=pa.int64()),
        }
    )


def corr_matrix(
    ds: ray.data.Dataset,
    cols: list[str],
    scale: int = 100,
) -> pa.Table:
    """Exact Pearson correlation for every column pair in ONE streaming
    pass — the profiling shape for wide numeric tables at 100 TB: each
    batch emits a single fixed-size partial row of quantized sufficient
    statistics (n, Σx, Σx², Σxy per pair), so nothing corpus-sized
    moves and no shuffle happens at all.

    Bit-exactness: values quantize per row to ``FLOOR(x * scale + 0.5)``
    int64 BEFORE any sum, per-batch sums stay int64 (bound: batch_rows ×
    max|x_q·y_q| < 2^63 — overflow raises, it never wraps), and the
    cross-batch accumulation uses arbitrary-precision Python ints — the
    exact match of a SQL engine's HUGEINT sums. The final per-pair
    correlation is the textbook
    ``(n·Σxy − Σx·Σy) / sqrt((n·Σx²−Σx²)·(n·Σy²−Σy²))`` evaluated in
    doubles with pinned operand order, so a SQL twin reproduces the
    identical bit pattern (IEEE sqrt is correctly rounded).

    Returns an arrow table (col_x, col_y, n, corr) for pairs x < y in
    ``cols`` order; a zero-variance column yields NULL corr (SQL
    semantics). Quantization at ``scale`` IS the contract — both sides
    correlate the quantized values.
    """
    import math

    import numpy as np

    if len(cols) < 2:
        raise ValueError("need at least two columns")
    pairs = [
        (i, j) for i in range(len(cols)) for j in range(i + 1, len(cols))
    ]

    def partial(batch: pa.Table) -> pa.Table:
        mats = []
        for c in cols:
            if batch.column(c).null_count:
                raise ValueError(
                    f"corr_matrix: column {c!r} contains NULLs — filter "
                    "or impute upstream (SQL corr drops pairwise, which "
                    "a one-pass all-pairs reduce cannot mirror)"
                )
            x = batch.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            mats.append(np.floor(x * scale + 0.5).astype(np.int64))
        out = {"n": pa.array([batch.num_rows], type=pa.int64())}
        with np.errstate(over="raise"):
            for i, c in enumerate(cols):
                out[f"s_{i}"] = pa.array(
                    [int(mats[i].sum())], type=pa.int64()
                )
                out[f"ss_{i}"] = pa.array(
                    [int((mats[i] * mats[i]).sum())], type=pa.int64()
                )
            for i, j in pairs:
                out[f"sp_{i}_{j}"] = pa.array(
                    [int((mats[i] * mats[j]).sum())], type=pa.int64()
                )
        return pa.Table.from_pydict(out)

    partials = ds.select_columns(list(cols)).map_batches(
        partial, batch_format="pyarrow"
    )
    # exact cross-batch reduce: Python ints (arbitrary precision), the
    # bit-match of SQL HUGEINT sums; O(#batches) driver rows, each tiny
    totals: dict[str, int] = {}
    for b in partials.iter_batches(batch_format="pyarrow"):
        for name in b.column_names:
            col_sum = sum(int(v) for v in b.column(name).to_pylist())
            totals[name] = totals.get(name, 0) + col_sum
    n = totals.get("n", 0)

    out_x, out_y, out_n, out_r = [], [], [], []
    for i, j in pairs:
        out_x.append(cols[i])
        out_y.append(cols[j])
        out_n.append(n)
        if n == 0:
            out_r.append(None)
            continue
        sx, sy = totals[f"s_{i}"], totals[f"s_{j}"]
        sxx, syy = totals[f"ss_{i}"], totals[f"ss_{j}"]
        sxy = totals[f"sp_{i}_{j}"]
        num = float(n * sxy - sx * sy)
        dx = float(n * sxx - sx * sx)
        dy = float(n * syy - sy * sy)
        if dx <= 0.0 or dy <= 0.0:
            out_r.append(None)
            continue
        out_r.append(num / math.sqrt(dx * dy))
    return pa.Table.from_pydict(
        {
            "col_x": pa.array(out_x, type=pa.string()),
            "col_y": pa.array(out_y, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
            "corr": pa.array(out_r, type=pa.float64()),
        }
    )


def range_checksums(
    ds: ray.data.Dataset,
    cols: list[str],
    key_col: str,
    bucket_size: int,
    sep: str = "|",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Merkle-style range-bucketed checksums: ``table_checksum``'s
    order-independent 60-bit XOR, computed per key range
    (``key_col // bucket_size``) — so two replicas of a 100-TB table
    can be compared range-by-range and a divergence localized to ONE
    bucket's worth of rows instead of re-scanning everything (the
    anti-entropy / replica-repair shape). Same injective
    length-prefixed row rendering as ``table_checksum``, so the two
    agree: XOR of all bucket checksums == the whole-table checksum.

    One streaming pass emitting per-batch per-bucket (xor, n) partials,
    then ONE bucket-partitioned XOR/sum reduce. Output:
    (bucket, checksum, n_rows)."""
    import hashlib

    import numpy as np
    import pandas as pd

    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    if bucket_size <= 0:
        raise ValueError("bucket_size must be positive")

    def partial(batch: pa.Table):
        if batch.num_rows == 0:
            return
        keys = (
            batch.column(key_col).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
        )
        buckets = keys // bucket_size
        rendered = []
        for c in cols:
            col = batch.column(c)
            if not (
                pa.types.is_string(col.type)
                or pa.types.is_large_string(col.type)
            ):
                col = col.cast(pa.string())
            rendered.append(col.to_pylist())
        acc: dict[int, list[int]] = {}
        for b, parts in zip(buckets.tolist(), zip(*rendered)):
            key = sep.join(
                "N" if p is None else f"{len(p)}:{p}" for p in parts
            )
            h = int(hashlib.md5(key.encode("utf-8")).hexdigest()[:15], 16)
            slot = acc.setdefault(b, [0, 0])
            slot[0] ^= h
            slot[1] += 1
        yield pa.Table.from_pydict(
            {
                "bucket": pa.array(list(acc), type=pa.int64()),
                "x": pa.array([v[0] for v in acc.values()], type=pa.int64()),
                "n": pa.array([v[1] for v in acc.values()], type=pa.int64()),
            }
        )

    def reduce_partition(g: pd.DataFrame) -> pd.DataFrame:
        def fold(s: pd.Series) -> int:
            return int(np.bitwise_xor.reduce(s.to_numpy(dtype=np.int64)))

        out = (
            g.groupby("bucket", sort=False)
            .agg(checksum=("x", fold), n_rows=("n", "sum"))
            .reset_index()
        )
        return out[["bucket", "checksum", "n_rows"]]

    return hash_reduce(
        ds.select_columns(list(dict.fromkeys([key_col] + cols)))
        .map_batches(partial, batch_format="pyarrow"),
        ["bucket"],
        reduce_partition,
        num_partitions=num_partitions or derive_num_partitions(ds),
    )


def unique_violations(
    ds: ray.data.Dataset,
    cols: list[str],
    num_partitions: int | None = None,
) -> int:
    """Count rows violating a uniqueness expectation on ``cols``:
    ``n_rows - n_distinct`` — i.e. every row beyond the first occurrence
    of its key counts once (0 = the column set is a valid primary key).
    The cross-row sibling of ``data_quality_report``'s per-row rules
    (a uniqueness check cannot be a batch predicate).

    Scale shape: ONE hash-partitioned (cols -> count) reduce with
    map-side combine, then per-partition ``sum(n - 1)`` partials —
    O(partitions) ints reach the driver; group cardinality never
    materializes anywhere. NULL keys group together (SQL
    ``count(*) - count(DISTINCT ...)`` counts NULL duplicates the same
    way only under ``DISTINCT`` treating NULLs equal — DuckDB does).
    """
    import pandas as pd

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns(cols),
        keys=cols,
        named_aggs={"n": (cols[0], "size")},
        num_partitions=num_partitions,
    )

    def extra(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"extra": [int((df["n"] - 1).sum())]})

    parts = counts.map_batches(extra, batch_format="pandas").take_all()
    return sum(int(p["extra"]) for p in parts)


def fk_violations(
    child: ray.data.Dataset,
    parent: ray.data.Dataset,
    key: str,
    num_partitions: int | None = None,
) -> int:
    """Count referential-integrity violations: child rows whose ``key``
    has no matching parent row (orphans). NULL child keys count as
    violations (they reference nothing) — stricter than SQL's FK rule,
    which ignores NULLs; filter them first for SQL parity, or keep them
    to catch both problems in one number.

    Scale shape: distinct child keys (one count reduce) anti-joined
    against distinct parent keys — both sides stream, the per-key
    multiplicity rides the reduce so orphan ROWS are counted, not just
    orphan keys. O(P) ints to the driver.
    """
    import pandas as pd

    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    try:
        key_type = child.schema().base_schema.field(key).type
    except Exception:  # pandas-block schema upstream: assume int64 keys
        key_type = pa.int64()

    def as_arrow(batch: pa.Table) -> pa.Table:
        # pandas reduces degrade a nullable int64 key to float64;
        # restore the arrow type so the join keys line up
        i = batch.schema.names.index(key)
        return batch.set_column(i, key, batch.column(key).cast(key_type))

    child_counts = partitioned_agg(
        child.select_columns([key]),
        keys=[key],
        named_aggs={"n": (key, "size")},
        num_partitions=num_partitions,
    ).map_batches(as_arrow, batch_format="pyarrow")
    parent_keys = partitioned_agg(
        parent.select_columns([key]),
        keys=[key],
        named_aggs={"_one": (key, "size")},
        num_partitions=num_partitions,
    ).select_columns([key]).map_batches(as_arrow, batch_format="pyarrow")
    orphans = hash_join(
        child_counts,
        parent_keys,
        on=[key],
        how="left_anti",
        num_partitions=num_partitions,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(df["n"].sum())]})

    parts = orphans.map_batches(partial, batch_format="pandas").take_all()
    return sum(int(p["n"]) for p in parts)
