"""Relational / temporal operators: windows, sessionization, grouped
ranks and quantiles, and the non-equi joins (as-of, band, interval).

The reference has no relational joins (SURVEY §2.4) — these are the
corpus-scale patterns the engine adds. Equi-joins, broadcast and
shuffle, live in ``ops.distjoin``.

  * tumbling window — vectorized epoch-bucket derivation + groupby
  * sessionization — ``groupagg.hash_reduce`` on the user with an
    in-partition time sort (the partitioning assumption: one user's
    events fit in one partition)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count

MICROS_PER_HOUR = 3_600_000_000


def hourly_event_counts(events: ray.data.Dataset) -> ray.data.Dataset:
    """Tumbling 1-hour window: (hour_ts, event_type, n_events).
    ``hour_ts`` = epoch seconds of the window start (int64, vectorized
    from the timestamp column — no Python datetime objects in the loop)."""

    def add_hour(batch: pa.Table) -> pa.Table:
        micros = batch.column("ts").cast(pa.int64())
        hours = pc.multiply(
            pc.divide(micros, MICROS_PER_HOUR), 3600
        )  # integer division: timestamps are non-negative
        return pa.Table.from_pydict(
            {
                "hour_ts": hours.cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    bucketed = events.select_columns(["ts", "event_type"]).map_batches(
        add_hour, batch_format="pyarrow"
    )
    agg = bucketed.groupby(["hour_ts", "event_type"]).aggregate(Count())

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["n_events" if c == "count()" else c for c in batch.column_names]
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def _ts_to_us(batch: pa.Table) -> pa.Table:
    """Replace the ``ts`` column by ``ts_us``, its int64 microseconds."""
    return batch.append_column(
        "ts_us", batch.column("ts").cast(pa.int64())
    ).drop_columns(["ts"])


def sessionize(events: ray.data.Dataset, gap_seconds: int = 1800) -> ray.data.Dataset:
    """Per-user session counts with a ``gap_seconds`` inactivity gap:
    (user_id, n_sessions, n_events).

    One shuffle on hash(user_id); each hash partition holds MANY whole
    users and computes all their session counts in vectorized pandas
    (sort by (user, ts, event_id), per-user shift/diff for gaps) — no
    per-user Python, so millions of users cost O(P) group overhead.
    Scale note: a single user's events must fit in a partition;
    pathological users would need day-salting (documented partitioning
    assumption).
    """
    from ctinexus_ray.ops.groupagg import hash_reduce

    def reduce_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id", sort=False)["ts"].shift(1)
        gaps = (g["ts"] - prev).dt.total_seconds()
        new_session = gaps.isna() | (gaps > gap_seconds)
        out = (
            g.assign(_ns=new_session)
            .groupby("user_id", sort=False)
            .agg(n_sessions=("_ns", "sum"), n_events=("_ns", "size"))
            .reset_index()
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64").values,
                "n_sessions": out["n_sessions"].astype("int64").values,
                "n_events": out["n_events"].astype("int64").values,
            }
        )

    return hash_reduce(
        events.select_columns(["event_id", "ts", "user_id"]),
        ["user_id"], reduce_partition, num_partitions=64,
    )


def minmax_count_by_key(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    out_min: str = "min_v",
    out_max: str = "max_v",
    out_n: str = "n",
) -> ray.data.Dataset:
    """Grouped Min/Max/Count with built-in vectorized aggregates (one
    shuffle, map-side combined by Ray). Suitable for BOUNDED key
    cardinality (event types, statuses); for corpus-cardinality keys use
    ``ops.groupagg.partitioned_agg`` — built-in aggregates pay per-group
    overhead linear in distinct keys."""
    from ray.data.aggregate import Max, Min

    agg = ds.groupby(key).aggregate(Min(value_col), Max(value_col), Count())

    def rename(batch: pa.Table) -> pa.Table:
        mapping = {
            f"min({value_col})": out_min,
            f"max({value_col})": out_max,
            "count()": out_n,
        }
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names]
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def grouped_topn(
    ds: ray.data.Dataset,
    group_key: str,
    order_col: str,
    n: int,
    tiebreak_col: str,
    out_rank: str = "rn",
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Top-n rows per group by (order_col DESC, tiebreak_col ASC) with a
    1-based rank column — the distributed form of a row_number() window.

    One hash shuffle on the group key; each partition holds MANY whole
    groups and ranks them all in one vectorized pandas pass (sort +
    per-group cumcount) — O(P) per-group overhead, no per-group Python.
    Same partitioning assumption as sessionize: one group's rows fit in a
    partition."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    cols = [group_key, order_col, tiebreak_col]

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [group_key, order_col, tiebreak_col],
            ascending=[True, False, True],
            kind="mergesort",
        )
        # dropna=False: a NULL group key gets ranks like any other group
        # (SQL PARTITION BY keeps the NULL partition; default cumcount
        # emits NaN ranks for null keys and the rows silently vanish)
        rn = g.groupby(group_key, sort=False, dropna=False).cumcount() + 1
        g = g.assign(**{out_rank: rn})
        g = g[g[out_rank] <= n]
        return g[[group_key, out_rank, tiebreak_col, order_col]].reset_index(
            drop=True
        )

    return hash_reduce(
        ds.select_columns(cols), [group_key], rank_partition,
        num_partitions=num_partitions,
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    right_attach: list[str],
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Distributed as-of join: each left row gains the ``right_attach``
    columns of the LATEST right row with the same ``by`` key and
    ``right.on <= left.on`` (left-join semantics: no match -> nulls).

    Ray Data has no as-of join; this is the documented composition: both
    sides are tagged and co-shuffled ONCE on hash(by), and each partition
    runs one vectorized ``pandas.merge_asof`` (sorted by ``on``,
    ``by``-grouped). Partitioning assumption: one key's rows (both sides)
    fit in a partition — same as sessionize; salt hot keys if violated.
    ``on`` must be a monotonic-comparable dtype (int64 epoch recommended;
    timestamps work). Ties on ``on`` within a key are resolved toward the
    LAST right row in sort order, matching SQL ASOF's max(right.on)."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def tag(side: int, keep: list[str]):
        def fn(batch: pa.Table):
            if batch.num_rows == 0:
                return
            t = batch.select(keep)
            yield t.append_column(
                "_side", pa.array([side] * batch.num_rows, type=pa.int8())
            )

        return fn

    lcols = [c for c in left.schema().names]
    rcols = [by, on, *right_attach]
    # align to a shared wide schema: left cols + right-attach cols
    shared = list(dict.fromkeys(lcols + rcols))

    def widen(batch: pa.Table) -> pa.Table:
        for c in shared:
            if c not in batch.column_names:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, type=pa.float64())
                )
        return batch.select(shared + ["_side"])

    tagged = (
        left.map_batches(tag(0, lcols), batch_format="pyarrow")
        .map_batches(widen, batch_format="pyarrow")
        .union(
            right.map_batches(tag(1, rcols), batch_format="pyarrow").map_batches(
                widen, batch_format="pyarrow"
            )
        )
    )

    out_cols = lcols + [f"{c}_right" for c in right_attach]

    def asof_partition(g: pd.DataFrame) -> pd.DataFrame:
        lt = g[g["_side"] == 0][lcols].sort_values(on, kind="mergesort")
        rt = (
            g[g["_side"] == 1][rcols]
            .rename(columns={c: f"{c}_right" for c in right_attach})
            .sort_values(on, kind="mergesort")
        )
        merged = pd.merge_asof(
            lt,
            rt,
            on=on,
            by=by,
            direction="backward",
            allow_exact_matches=True,
        )
        return merged[out_cols].reset_index(drop=True)

    return hash_reduce(
        tagged, [by], asof_partition, num_partitions=num_partitions
    )


def int_column_quantiles(
    ds: ray.data.Dataset, col: str, quantiles: list[float]
) -> ray.data.Dataset:
    """EXACT discrete quantiles (SQL ``quantile_disc`` semantics — the
    inverse-CDF element at 0-based index ``max(0, ceil(q * n) - 1)`` of
    the sorted column, verified against DuckDB empirically; the
    ``floor(q * (n-1))`` rule differs at high q and small n) for a
    bounded-cardinality integer column, without a global sort.

    Shape: one hash-partitioned (value -> count) reduce — the histogram
    is value-DOMAIN-sized, not corpus-sized (lengths, scores, buckets) —
    then a driver-side cumulative walk over the sorted distinct values.
    For unbounded/continuous columns use a sort-based or sketch
    (t-digest) path instead; this operator asserts the domain stays
    small by construction."""
    import numpy as np

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns([col]),
        keys=[col],
        named_aggs={"n": (col, "size")},
    ).take_all()
    values = np.array([r[col] for r in counts], dtype=np.int64)
    ns = np.array([r["n"] for r in counts], dtype=np.int64)
    order = np.argsort(values, kind="stable")
    values, ns = values[order], ns[order]
    cum = np.cumsum(ns)
    total = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in quantiles:
        if not total:
            continue
        idx = max(0, int(np.ceil(q * total)) - 1)
        pos = int(np.searchsorted(cum, idx + 1))
        out_q.append(float(q))
        out_v.append(int(values[pos]))
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "q": pa.array(out_q, type=pa.float64()),
                "value": pa.array(out_v, type=pa.int64()),
            }
        )
    )


def rolling_user_windows(
    events: ray.data.Dataset,
    window: int = 3,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Per-user rolling-window sum and lag delta — the distributed form of
    SQL ``SUM(...) OVER (PARTITION BY user ORDER BY ts ROWS window-1
    PRECEDING)`` and ``ts - LAG(ts) OVER (...)``.

    One hash shuffle on user_id; each partition holds MANY whole users and
    computes every window in two vectorized pandas passes (groupby.rolling
    sum + groupby.shift) — O(P) per-group overhead. Values are summed in
    integer cents (``round(value * 100)``) and deltas in integer
    microseconds so the result is EXACT (bit-stable against any summation
    order, including the SQL oracle's). Same partitioning assumption as
    sessionize: one user's events fit in a partition.

    Output: (event_id, user_id, rolling_cents, gap_us); gap_us is -1
    for each user's first event (sentinel instead of NULL so the column
    stays non-nullable int64 — pandas/DuckDB render NULL ints
    differently, and downstream arithmetic needs a concrete type)."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(batch.column("value"), 100.0))
        batch = batch.append_column("cents", cents.cast(pa.int64()))
        return _ts_to_us(batch.drop_columns(["value"]))

    def window_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        rolling = (
            grp["cents"].rolling(window, min_periods=1).sum()
            .reset_index(drop=True)
        )
        gap = g["ts_us"] - grp["ts_us"].shift(1)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64").values,
                "user_id": g["user_id"].astype("int64").values,
                "rolling_cents": rolling.astype("int64").values,
                "gap_us": gap.fillna(-1).astype("int64").values,
            }
        )

    return hash_reduce(
        events.select_columns(["event_id", "user_id", "ts", "value"])
        .map_batches(to_cents, batch_format="pyarrow"),
        ["user_id"], window_partition, num_partitions=num_partitions,
    )


def int_column_quantiles_cont(
    ds: ray.data.Dataset, col: str, quantiles: list[float]
) -> ray.data.Dataset:
    """EXACT interpolated quantiles (``percentile_cont`` semantics: at
    fractional position ``h = q * (n - 1)`` the result is
    ``v[floor(h)] + (v[ceil(h)] - v[floor(h)]) * (h - floor(h))``) for a
    bounded-cardinality integer column — same histogram shape as
    ``int_column_quantiles`` (one value-domain-sized reduce, no global
    sort), plus a driver-side walk that pulls the TWO order statistics
    around each target position. The interpolation arithmetic uses
    doubles with pinned operand order, so a SQL twin computing the same
    documented formula is bit-exact. Returns (q, value:double)."""
    import math

    import numpy as np

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns([col]),
        keys=[col],
        named_aggs={"n": (col, "size")},
    ).take_all()
    values = np.array([r[col] for r in counts], dtype=np.int64)
    ns = np.array([r["n"] for r in counts], dtype=np.int64)
    order = np.argsort(values, kind="stable")
    values, ns = values[order], ns[order]
    cum = np.cumsum(ns)
    total = int(cum[-1]) if len(cum) else 0

    def order_stat(rank: int) -> int:
        # 0-based rank -> value of the rank-th element of the sorted col
        return int(values[int(np.searchsorted(cum, rank + 1))])

    out_q, out_v = [], []
    for q in quantiles:
        if not total:
            continue
        h = q * float(total - 1)
        lo = order_stat(int(math.floor(h)))
        hi = order_stat(int(math.ceil(h)))
        out_q.append(float(q))
        # pinned operand order — the SQL twin mirrors this expression
        out_v.append(float(lo) + (float(hi) - float(lo)) * (h - math.floor(h)))
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "q": pa.array(out_q, type=pa.float64()),
                "value": pa.array(out_v, type=pa.float64()),
            }
        )
    )


def grouped_int_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    quantiles: list[float],
) -> ray.data.Dataset:
    """Per-group EXACT discrete quantiles (``quantile_disc`` semantics,
    same inverse-CDF index rule as ``int_column_quantiles``: element at
    0-based ``max(0, ceil(q * n) - 1)`` of the group's sorted column)
    without any sort.

    One hash-partitioned (group, value) -> count reduce; the histogram
    is #groups x value-domain rows (langs x lengths — bounded by
    construction, NOT corpus-sized), then a vectorized cumulative walk
    per group on the driver. Output: (group_col, q, value)."""
    import numpy as np

    from ctinexus_ray.ops.groupagg import partitioned_agg

    counts = partitioned_agg(
        ds.select_columns([group_col, col]),
        keys=[group_col, col],
        named_aggs={"n": (col, "size")},
    ).take_all()  # O(#groups x value domain) rows by construction
    by_group: dict = {}
    for r in counts:
        by_group.setdefault(r[group_col], []).append((r[col], r["n"]))
    out_g, out_q, out_v = [], [], []
    for g in sorted(by_group):
        pairs = sorted(by_group[g])
        values = np.array([v for v, _ in pairs], dtype=np.int64)
        cum = np.cumsum([n for _, n in pairs])
        total = int(cum[-1])
        for q in quantiles:
            idx = max(0, int(np.ceil(q * total)) - 1)
            pos = int(np.searchsorted(cum, idx + 1))
            out_g.append(g)
            out_q.append(float(q))
            out_v.append(int(values[pos]))
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(out_g, type=pa.string()),
                "q": pa.array(out_q, type=pa.float64()),
                "value": pa.array(out_v, type=pa.int64()),
            }
        )
    )


def band_join_count(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_id: str,
    left_on: str,
    right_on: str,
    lower: int,
    upper: int,
    out: str = "n_matches",
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Band (interval/range) join with aggregate pushdown: for every left
    row, count the right rows whose ``right_on`` lies in the inclusive
    band ``[left_on + lower, left_on + upper]``. No equi key at all —
    the shape Ray Data's API can't express and a naive cross join makes
    quadratic.

    Axis columns must be int64 (epoch micros recommended). Output:
    ``(left_id, out)`` — one row per left row, zero counts preserved
    (LEFT JOIN ... GROUP BY semantics).

    Scale shape: the axis is bucketed at the band width ``B = upper -
    lower`` so a left row's band overlaps at most 2 buckets. Right rows
    shuffle ONCE to their bucket; left rows replicate to the <=2 buckets
    they probe (bounded 2x replication of (id, axis) pairs only — never
    payload columns). Within a partition each bucket's right axis values
    are sorted once and every probe is a vectorized ``np.searchsorted``
    pair, so matches are counted without materializing the joined rows.
    A second hash-partitioned reduce sums per-bucket partial counts per
    left id. Both sides stream; nothing corpus-sized on the driver.
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import hash_reduce, partitioned_agg

    assert upper >= lower, "empty band"
    bucket = max(upper - lower, 1)
    i64 = pa.int64()

    def right_tag(batch: pa.Table):
        if batch.num_rows == 0:
            return
        axis = batch.column(right_on).cast(i64).to_numpy(zero_copy_only=False)
        # numpy floor division, matching left_tag — pc.divide truncates
        # toward zero and would mis-bucket negative (pre-1970) axes
        b = axis // bucket
        yield pa.Table.from_pydict(
            {
                "bucket": pa.array(b, type=i64),
                "axis": pa.array(axis, type=i64),
                # 0 sentinel, never read (is_right separates the sides);
                # a NULL here would null-pad lid through pandas, coercing
                # int64 -> float64 and corrupting ids above 2^53
                "lid": pa.array(np.zeros(len(axis), dtype=np.int64), type=i64),
                "is_right": pa.array([True] * len(axis)),
            }
        )

    def left_tag(batch: pa.Table):
        if batch.num_rows == 0:
            return
        axis = batch.column(left_on).cast(i64).to_numpy(zero_copy_only=False)
        lid = batch.column(left_id).cast(i64).to_numpy(zero_copy_only=False)
        lo = axis + lower
        hi = axis + upper
        b0 = lo // bucket
        b1 = hi // bucket
        # probe rows: one per overlapped bucket (<= 2 since band <= bucket)
        reps = (b1 - b0 + 1).astype(np.int64)
        ridx = np.repeat(np.arange(len(axis)), reps)
        # bucket sequence b0[i] .. b1[i] per row, flattened (vectorized
        # ragged-range: global index minus each row's segment start)
        cum = np.cumsum(reps)
        offs = np.arange(int(cum[-1]) if len(cum) else 0, dtype=np.int64) \
            - np.repeat(cum - reps, reps)
        buckets = b0[ridx] + offs
        yield pa.Table.from_pydict(
            {
                "bucket": pa.array(buckets, type=i64),
                "axis": pa.array(axis[ridx], type=i64),
                "lid": pa.array(lid[ridx], type=i64),
                "is_right": pa.array([False] * len(ridx)),
            }
        )

    tagged = right.select_columns([right_on]).map_batches(
        right_tag, batch_format="pyarrow"
    ).union(
        left.select_columns([left_id, left_on]).map_batches(
            left_tag, batch_format="pyarrow"
        )
    )

    def count_partition(g: pd.DataFrame) -> pd.DataFrame:
        probes = g[~g["is_right"]]
        if len(probes) == 0:
            return pd.DataFrame({left_id: pd.array([], dtype="int64"),
                                 "_n": pd.array([], dtype="int64")})
        rt = g[g["is_right"]]
        out_ids = probes["lid"].to_numpy(dtype=np.int64)
        out_n = np.zeros(len(probes), dtype=np.int64)
        if len(rt):
            # per-bucket sorted axis slices; loop is over BUCKETS not rows
            rt_sorted = rt.sort_values(["bucket", "axis"], kind="mergesort")
            r_bucket = rt_sorted["bucket"].to_numpy(dtype=np.int64)
            r_axis = rt_sorted["axis"].to_numpy(dtype=np.int64)
            starts = np.searchsorted(r_bucket, np.unique(r_bucket), "left")
            bounds = dict(
                zip(
                    np.unique(r_bucket).tolist(),
                    zip(starts.tolist(),
                        np.append(starts[1:], len(r_bucket)).tolist()),
                )
            )
            p_bucket = probes["bucket"].to_numpy(dtype=np.int64)
            p_axis = probes["axis"].to_numpy(dtype=np.int64)
            for bk, (s, e) in bounds.items():
                sel = p_bucket == bk
                if not sel.any():
                    continue
                seg = r_axis[s:e]
                lo = np.searchsorted(seg, p_axis[sel] + lower, "left")
                hi = np.searchsorted(seg, p_axis[sel] + upper, "right")
                out_n[sel] = hi - lo
        return pd.DataFrame({left_id: out_ids, "_n": out_n})

    partials = hash_reduce(
        tagged, ["bucket"], count_partition, num_partitions=num_partitions
    )
    return partitioned_agg(
        partials,
        keys=[left_id],
        named_aggs={out: ("_n", "sum")},
        num_partitions=num_partitions,
    )


def sliding_window_counts(
    events: ray.data.Dataset,
    ts_col: str = "ts",
    window_s: int = 3600,
    slide_s: int = 900,
    distinct_col: str | None = None,
) -> ray.data.Dataset:
    """Sliding (hopping) event-time window counts: windows start at every
    multiple of ``slide_s`` seconds and span ``[start, start + window_s)``;
    each event lands in ``window_s / slide_s`` windows. Output:
    ``(window_start_s, n_events)`` with int64 epoch-second starts — or,
    with ``distinct_col``, ``(window_start_s, n_distinct)``: the exact
    windowed COUNT(DISTINCT col) (rolling reach), computed as one extra
    (window, col)-partitioned presence reduce before the count, so no
    distinct set ever materializes in one place.

    Vectorized fan-out (np.repeat of epoch buckets — the per-event window
    replication never materializes payload columns) + one hash-partitioned
    count reduce. Only non-empty windows are emitted (same as SQL GROUP
    BY). Scale: output rows ~ time-span / slide, shuffle volume ~
    events x fan-out of one (or two) int64 columns.
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import partitioned_agg

    assert window_s % slide_s == 0, "window must be a multiple of slide"
    fanout = window_s // slide_s
    cols = [ts_col] + ([distinct_col] if distinct_col else [])

    def explode(batch: pa.Table):
        if batch.num_rows == 0:
            return
        secs = (
            batch.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 1_000_000
        )
        base = (secs // slide_s) * slide_s
        ks = np.arange(fanout, dtype=np.int64) * slide_s
        starts = (base[:, None] - ks[None, :]).ravel()
        out = {"window_start_s": pa.array(starts, type=pa.int64())}
        if distinct_col:
            vals = batch.column(distinct_col)
            idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), fanout)
            # NULL rows stay: they must keep their windows alive (SQL
            # GROUP BY emits a window of only-NULL rows with count 0)
            yield pa.Table.from_pydict(
                {
                    "window_start_s": out["window_start_s"],
                    distinct_col: vals.take(pa.array(idx, type=pa.int64())),
                }
            )
            return
        yield pa.Table.from_pydict(out)

    exploded = events.select_columns(cols).map_batches(
        explode, batch_format="pyarrow"
    )
    if distinct_col:
        # dropna=False keeps the NULL group, so an only-NULL window
        # still emits one presence row; the indicator then counts only
        # non-NULL values — SQL COUNT(DISTINCT col) semantics exactly
        present = partitioned_agg(
            exploded,
            keys=["window_start_s", distinct_col],
            named_aggs={"one": (distinct_col, "size")},
        )

        def indicator(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.Table.from_pydict(
                {
                    "window_start_s": batch.column("window_start_s"),
                    "ind": pc.cast(
                        pc.is_valid(batch.column(distinct_col)), pa.int64()
                    ),
                }
            )

        return partitioned_agg(
            present.map_batches(indicator, batch_format="pyarrow"),
            keys=["window_start_s"],
            named_aggs={"n_distinct": ("ind", "sum")},
        )
    return partitioned_agg(
        exploded,
        keys=["window_start_s"],
        named_aggs={"n_events": ("window_start_s", "size")},
    )


def event_transition_counts(
    events: ray.data.Dataset, num_partitions: int = 64
) -> ray.data.Dataset:
    """Markov transition counts over per-user event sequences: how often
    does event type A directly precede event type B for the same user
    (ordered by ts, event_id)? The clickstream-modeling shape — the
    distributed form of ``LAG(event_type) OVER (PARTITION BY user_id
    ORDER BY ts, event_id)`` followed by a GROUP BY (prev, cur).

    One hash shuffle on user_id (whole users co-locate — same assumption
    as sessionize); per partition one vectorized sort + groupby.shift,
    counts combined per partition, then a tiny (|types|²-row) final sum.
    Output: (prev_type, event_type, n)."""
    from ray.data.aggregate import Sum

    from ctinexus_ray.ops.groupagg import hash_reduce

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        prev = grp["event_type"].shift(1)
        mask = prev.notna()
        pairs = pd.DataFrame(
            {
                "prev_type": prev[mask].astype(str).values,
                "event_type": g["event_type"][mask].astype(str).values,
            }
        )
        out = (
            pairs.groupby(["prev_type", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype("int64")
        return out

    partials = hash_reduce(
        events.select_columns(["event_id", "user_id", "ts", "event_type"])
        .map_batches(_ts_to_us, batch_format="pyarrow"),
        ["user_id"], transitions, num_partitions=num_partitions,
    )
    return partials.groupby(["prev_type", "event_type"]).aggregate(Sum("n"))


def funnel_users(
    events: ray.data.Dataset,
    steps: list[str],
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Ordered-funnel detection: user_ids with a strictly time-increasing
    subsequence of event types matching ``steps`` (e.g. view -> click ->
    purchase). The greedy earliest-completion scan is optimal (matching
    each step at its earliest feasible time can only enlarge what later
    steps may match), so one vectorized pass per step suffices.

    One hash shuffle on user_id; per partition each step is ONE pandas
    groupby.min over the events of that type later than the user's
    previous-step time — no per-user Python. Output: (user_id)."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        # state: per-user completion time of the previous step
        state = None  # Series indexed by user_id
        for i, step in enumerate(steps):
            ev = g[g["event_type"] == step]
            if i > 0:
                prev = state.reindex(ev["user_id"]).to_numpy()
                ev = ev[ev["ts_us"].to_numpy() > prev]  # NaN prev -> False
            if not len(ev):
                return pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
            state = ev.groupby("user_id", sort=False)["ts_us"].min()
        return pd.DataFrame(
            {"user_id": pd.Series(state.index, dtype="int64")}
        )

    return hash_reduce(
        events.select_columns(["user_id", "ts", "event_type"])
        .map_batches(_ts_to_us, batch_format="pyarrow"),
        ["user_id"], scan, num_partitions=num_partitions,
    )


def session_intervals(
    events: ray.data.Dataset,
    gap_seconds: int = 1800,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Materialize per-user session INTERVALS (user_id, sid, s_us, e_us):
    the interval form of ``sessionize`` — a new session starts when the
    gap to the previous event exceeds ``gap_seconds`` (strict >, integer
    microseconds — exactly the SQL lag/cumsum-window formulation). One
    user-hash shuffle; sort + shift + cumsum + grouped min/max, all
    vectorized per partition."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    gap_us = gap_seconds * 1_000_000

    def to_intervals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        prev = grp["ts_us"].shift(1)
        new_s = (prev.isna() | ((g["ts_us"] - prev) > gap_us)).astype("int64")
        sid = new_s.groupby(g["user_id"].values, sort=False).cumsum()
        out = (
            g.assign(sid=sid)
            .groupby(["user_id", "sid"], sort=False)["ts_us"]
            .agg(["min", "max"])
            .reset_index()
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64").values,
                "sid": out["sid"].astype("int64").values,
                "s_us": out["min"].astype("int64").values,
                "e_us": out["max"].astype("int64").values,
            }
        )

    return hash_reduce(
        events.select_columns(["event_id", "user_id", "ts"])
        .map_batches(_ts_to_us, batch_format="pyarrow"),
        ["user_id"], to_intervals, num_partitions=num_partitions,
    )


def interval_overlap_pairs(
    intervals: ray.data.Dataset,
    owner_col: str,
    start_col: str,
    end_col: str,
    bucket_us: int = 3_600_000_000,
    max_bucket: int | None = None,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Interval-overlap join (both sides = the same interval table): one
    (owner_a, owner_b) row per pair of intervals with DIFFERENT owners
    that overlap (inclusive: s_a <= e_b AND s_b <= e_a), owner_a <
    owner_b. The genomics/log-correlation join shape — no equi key, so a
    hash join cannot express it.

    Shuffle shape: each interval replicates to every ``bucket_us``-wide
    time bucket it spans (short intervals -> ~1 bucket); a groupby
    co-locates buckets and a vectorized pandas self-merge emits
    candidate pairs. A pair is counted ONLY in the bucket containing
    ``max(s_a, s_b)`` — every overlapping pair shares that bucket by
    construction, so emission is exactly-once with NO global dedup
    shuffle. Default is EXACT (no cap) so the oracle-checked query keeps
    its bit-exact contract; pass ``max_bucket`` to opt in to capping
    degenerate buckets (same cap pattern as the LSH/ngram partition
    merges) — an engaged cap logs a warning with the dropped-interval
    count, never truncates silently. ``bucket_us`` trades replication
    (long intervals) against bucket width (pair fan-in)."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def explode(batch: pa.Table):
        if batch.num_rows == 0:
            return
        s = batch.column(start_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch.column(end_col).to_numpy(zero_copy_only=False).astype(np.int64)
        owner = batch.column(owner_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = s // bucket_us
        nb = (e // bucket_us - b0 + 1).astype(np.int64)
        total = int(nb.sum())
        seg = np.concatenate(([0], np.cumsum(nb)))[:-1]
        off = np.arange(total, dtype=np.int64) - np.repeat(seg, nb)
        bucket = np.repeat(b0, nb) + off
        yield pa.Table.from_pydict(
            {
                "owner": pa.array(np.repeat(owner, nb), type=pa.int64()),
                "s": pa.array(np.repeat(s, nb), type=pa.int64()),
                "e": pa.array(np.repeat(e, nb), type=pa.int64()),
                "bucket": pa.array(bucket, type=pa.int64()),
            }
        )

    exploded = intervals.map_batches(explode, batch_format="pyarrow")

    def pairs_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bucket", "owner", "s"], kind="mergesort")
        if max_bucket is not None:
            keep_mask = g.groupby("bucket").cumcount() < max_bucket
            dropped = int((~keep_mask).sum())
            if dropped:
                import logging

                logging.getLogger(__name__).warning(
                    "interval_overlap_pairs: max_bucket=%d engaged, "
                    "dropping %d interval replicas — pair counts are now "
                    "approximate", max_bucket, dropped,
                )
            g = g[keep_mask]
        cols = ["bucket", "owner", "s", "e"]
        m = g[cols].merge(g[cols], on="bucket", suffixes=("_a", "_b"))
        later_start = np.maximum(m["s_a"], m["s_b"])
        keep = (
            (m["s_a"] <= m["e_b"])
            & (m["s_b"] <= m["e_a"])
            & (m["owner_a"] < m["owner_b"])
            # exactly-once: only the bucket holding max(s_a, s_b) emits
            & ((later_start // bucket_us) == m["bucket"])
        )
        m = m[keep]
        return pd.DataFrame(
            {
                "owner_a": m["owner_a"].astype("int64").values,
                "owner_b": m["owner_b"].astype("int64").values,
            }
        )

    return hash_reduce(
        exploded, ["bucket"], pairs_partition, num_partitions=num_partitions
    )


def grouped_running_sum(
    ds: ray.data.Dataset,
    group_key: str,
    order_cols: list[str],
    value_col: str,
    scale: int = 100,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed running total per group — the ordered-window
    ``SUM(x) OVER (PARTITION BY g ORDER BY o)`` plus its row counter.

    One hash shuffle on the group key; each partition sorts its (many,
    whole) groups once and computes every group's prefix sum in a single
    vectorized pandas ``groupby.cumsum`` — O(P) per-group overhead.
    Same partitioning assumption as sessionize/grouped_topn: one group's
    rows fit in a partition (time-split giant groups upstream if not).

    Values are quantized to integers (``FLOOR(x * scale + 0.5)``) BEFORE
    summing: DuckDB evaluates window sums with a segment tree, so a
    float prefix sum would drift from numpy's sequential order at the
    ULP level — integer prefix sums are order-independent and bit-exact
    on both sides. Output: (group_key, *order_cols, run_units:int64,
    run_n:int64).
    """
    from ctinexus_ray.ops.groupagg import hash_reduce

    def add_units(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        if v.dtype != np.float64:  # an all-null block arrives as object
            v = v.astype(np.float64)  # dtype (None -> nan under cast)
        # NULL values contribute 0 but keep their row — exactly SQL's
        # SUM(...) OVER (skips NULLs) + ROW_NUMBER() (counts all rows);
        # without the mask, floor(NaN).astype(int64) is INT64_MIN and
        # silently corrupts every later prefix sum in the group
        units = np.where(
            np.isnan(v), 0, np.floor(v * scale + 0.5)
        ).astype(np.int64)
        return batch.drop_columns([value_col]).append_column(
            "__units", pa.array(units, type=pa.int64())
        )

    def run_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_key, *order_cols], kind="mergesort")
        grp = g.groupby(group_key, sort=False, dropna=False)
        out = g[[group_key, *order_cols]].reset_index(drop=True)
        out["run_units"] = grp["__units"].cumsum().astype("int64").values
        out["run_n"] = (grp.cumcount() + 1).astype("int64").values
        return out

    return hash_reduce(
        ds.select_columns([group_key, *order_cols, value_col])
        .map_batches(add_units, batch_format="pyarrow"),
        [group_key], run_partition, num_partitions=num_partitions,
    )


def grouped_zscore(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    id_cols: list[str],
    scale: int = 100,
    out: str = "z",
) -> ray.data.Dataset:
    """Per-group z-score standardization (the feature-normalization
    primitive): ``z = (v - mean_g) / stddev_pop_g`` with values quantized
    to integer units (``floor(v*scale+0.5)``) so the distributed power
    sums (n, Σv, Σv²) are order-independent and the final double
    expression is bit-exact vs a SQL oracle writing the same expression.

    Scale shape: ONE pass computes per-batch combined power sums (the
    group column is assumed DOMAIN-BOUNDED — event types, languages,
    shards — so the stats table is tiny and is broadcast back via
    ``ray.put``; the corpus itself never shuffles). For
    corpus-cardinality group keys, join the stats back with
    ``ops.distjoin.hash_join`` instead of this broadcast path.

    Groups with a single row (or constant values) have zero variance:
    the z-score is ±inf/NaN exactly as SQL's division by zero produces —
    callers filter such groups upstream if that matters."""
    from ray.data.aggregate import Sum

    sel = ds.select_columns([group_col, value_col, *id_cols])

    def drop_nulls(batch: pa.Table) -> pa.Table:
        # NULL group or NULL value rows standardize to nothing — the
        # SQL twin's stats CTE inner-joins back to the rows, dropping
        # both; without this, floor(NaN) -> INT64_MIN poisons the power
        # sums and a NaN stats-lookup miss crashes zmap
        keep = pc.and_(
            pc.is_valid(batch.column(group_col)),
            pc.is_valid(batch.column(value_col)),
        )
        return batch.filter(keep)

    def partial(batch: pa.Table):
        batch = drop_nulls(batch)
        if batch.num_rows == 0:
            return
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        vc = np.floor(v * scale + 0.5).astype(np.int64)
        df = pd.DataFrame(
            {
                group_col: batch.column(group_col).to_pandas(),
                "sq": vc,
                "sq2": vc * vc,
                "n": np.ones(len(vc), dtype=np.int64),
            }
        )
        yield pa.Table.from_pandas(
            df.groupby(group_col, sort=False).sum().reset_index(),
            preserve_index=False,
        )

    stats = (
        sel.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("sq"), Sum("sq2"), Sum("n"))
        .take_all()
    )  # domain-bounded rows by contract
    mean_sd: dict = {}
    for r in stats:
        n = float(r["sum(n)"])
        sq = float(r["sum(sq)"])
        sq2 = float(r["sum(sq2)"])
        mean = sq / n
        sd = np.sqrt((sq2 - sq * sq / n) / n)
        mean_sd[r[group_col]] = (mean, sd)
    stats_ref = ray.put(mean_sd)

    def zmap(batch: pa.Table) -> pa.Table:
        batch = drop_nulls(batch)
        lookup = ray.get(stats_ref)
        g = batch.column(group_col).to_pandas()
        ms = g.map(lookup)
        mean = np.array([m for m, _ in ms], dtype=np.float64)
        sd = np.array([s for _, s in ms], dtype=np.float64)
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        vc = np.floor(v * scale + 0.5).astype(np.int64)
        z = (vc.astype(np.float64) - mean) / sd
        return batch.select([*id_cols, group_col]).append_column(
            out, pa.array(z, type=pa.float64())
        )

    return sel.map_batches(zmap, batch_format="pyarrow")


def basket_pairs(
    ds: ray.data.Dataset,
    basket_col: str,
    item_col: str,
    min_support: int = 1,
    max_basket: int | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Market-basket co-occurrence: support counts for every unordered
    item pair appearing together in at least one basket (the frequent-
    itemset / "users who did X also did Y" primitive). Output
    (t1, t2, support) with t1 < t2 and support >= min_support.

    Scale shape: ONE basket-hash shuffle; per partition a vectorized
    dedup + self-merge generates each basket's pairs, then one
    pair-cardinality count reduce. A basket with k distinct items emits
    k*(k-1)/2 pairs — at web scale a single hot basket (a bot user
    touching every item) explodes quadratically, so ``max_basket``
    RAISES (never silently drops) when a basket exceeds it; pre-cap
    baskets upstream with an explicit sample if that fires."""
    from ctinexus_ray.ops.groupagg import hash_reduce, partitioned_agg

    def drop_nulls(batch: pa.Table) -> pa.Table:
        # NULL basket ids or items join to nothing in SQL (the oracle's
        # equi-join emits no 'null basket'); pandas merge would instead
        # match NaN==NaN and a null item would crash the < comparison
        return batch.filter(
            pc.and_(
                pc.is_valid(batch.column(basket_col)),
                pc.is_valid(batch.column(item_col)),
            )
        )

    def pairs_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[basket_col, item_col]].drop_duplicates()
        if max_basket is not None:
            sizes = g.groupby(basket_col, sort=False)[item_col].transform(
                "size"
            )
            if (sizes > max_basket).any():
                worst = g.loc[sizes.idxmax(), basket_col]
                raise ValueError(
                    f"basket {worst!r} has {int(sizes.max())} distinct items"
                    f" > max_basket={max_basket}; cap baskets upstream"
                )
        m = g.merge(g, on=basket_col, suffixes=("_1", "_2"))
        m = m[m[f"{item_col}_1"] < m[f"{item_col}_2"]]
        return m.rename(
            columns={f"{item_col}_1": "t1", f"{item_col}_2": "t2"}
        )[["t1", "t2"]]

    pair_rows = hash_reduce(
        ds.select_columns([basket_col, item_col])
        .map_batches(drop_nulls, batch_format="pyarrow"),
        [basket_col], pairs_partition, num_partitions=num_partitions,
    )
    counts = partitioned_agg(
        pair_rows,
        keys=["t1", "t2"],
        named_aggs={"support": ("t1", "size")},
    )
    if min_support > 1:

        def keep(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.greater_equal(batch.column("support"), min_support)
            )

        counts = counts.map_batches(keep, batch_format="pyarrow")
    return counts


def ks_drift(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    g1,
    g2,
) -> pa.Table:
    """EXACT two-sample Kolmogorov-Smirnov distance between the
    ``value_col`` distributions of two slices (drift detection between
    crawls / languages / shard generations). Returns one row
    (n1, n2, ks).

    Scale shape: one (group, value) count reduce whose output is
    value-DOMAIN-sized (the op targets discrete/bucketed columns —
    lengths, scores quantized upstream), then a cumulative walk on the
    driver. The KS sup statistic is computed in INTEGERS
    (``max |cum1*n2 - cum2*n1|``) and divided once at the end, so the
    result is bit-exact vs the SQL window twin (exact while counts stay
    below 2^53; at web scale bucket the value domain first)."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    def keep(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col)
        mask = pc.or_(pc.equal(g, g1), pc.equal(g, g2))
        return batch.select([group_col, value_col]).filter(mask)

    counts = partitioned_agg(
        ds.map_batches(keep, batch_format="pyarrow"),
        keys=[group_col, value_col],
        named_aggs={"n": (value_col, "size")},
    ).take_all()  # O(2 x value domain) rows by construction

    per_value: dict = {}
    for r in counts:
        c1, c2 = per_value.get(r[value_col], (0, 0))
        if r[group_col] == g1:
            per_value[r[value_col]] = (c1 + r["n"], c2)
        else:
            per_value[r[value_col]] = (c1, c2 + r["n"])
    n1 = sum(c1 for c1, _ in per_value.values())
    n2 = sum(c2 for _, c2 in per_value.values())
    cum1 = cum2 = 0
    best = 0
    for v in sorted(per_value):
        c1, c2 = per_value[v]
        cum1 += c1
        cum2 += c2
        d = abs(cum1 * n2 - cum2 * n1)
        if d > best:
            best = d
    ks = float(best) / float(n1 * n2) if n1 and n2 else float("nan")
    return pa.Table.from_pydict(
        {
            "n1": pa.array([n1], type=pa.int64()),
            "n2": pa.array([n2], type=pa.int64()),
            "ks": pa.array([ks], type=pa.float64()),
        }
    )


def melt(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "key",
    value_name: str = "val",
    drop_nulls: bool = True,
) -> ray.data.Dataset:
    """UNPIVOT / melt: one output row per (input row, value column) —
    wide metric tables become long (id..., key, val) tables for grouped
    analysis or sparse storage. Pure stateless ``map_batches`` (each
    batch emits len(value_cols) stacked projections, all zero-copy
    column slices + one constant dictionary column) — NO shuffle, so it
    composes freely at any corpus size; the value columns must share one
    Arrow type (cast upstream if mixed, same rule as SQL UNPIVOT).
    ``drop_nulls=True`` (default) skips NULL values, matching SQL
    UNPIVOT's EXCLUDE NULLS default; pass False for INCLUDE NULLS."""
    if not value_cols:
        raise ValueError("value_cols must be non-empty")

    def unpivot(batch: pa.Table):
        if batch.num_rows == 0:
            return
        vt = batch.column(value_cols[0]).type
        for c in value_cols[1:]:
            if batch.column(c).type != vt:
                raise TypeError(
                    f"value column {c!r} has type {batch.column(c).type}, "
                    f"expected {vt} — cast value columns to one type first"
                )
        n = batch.num_rows
        for c in value_cols:
            arrays = [batch.column(k) for k in id_cols]
            arrays.append(pa.array([c] * n, type=pa.string()))
            arrays.append(batch.column(c))
            t = pa.Table.from_arrays(
                arrays, names=id_cols + [var_name, value_name]
            )
            if drop_nulls:
                t = t.filter(pc.is_valid(t.column(value_name)))
            if t.num_rows:
                yield t

    return ds.map_batches(unpivot, batch_format="pyarrow")


def skyline_2d(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    keep_cols: list[str],
    max_candidates: int = 1_000_000,
) -> pa.Table:
    """2-D skyline (Pareto frontier, minimize both columns): rows not
    dominated by any other row (dominated = other is <= on both axes
    and strictly < on at least one) — the multi-criteria shortlist
    shape (cheapest-and-earliest, smallest-and-cleanest).

    Scale shape: each block prunes LOCALLY with one vectorized
    sort + running-min pass (sound: a row pruned locally is dominated
    by its in-block witness, and dominance is transitive, so no global
    skyline member is ever pruned; ties kept generously). Only the
    per-block candidate frontiers — typically O(log block rows) each on
    real data — reach the driver, where one exact vectorized dominance
    pass replays the NOT EXISTS. A corpus that is ITSELF mostly
    non-dominated has an output that large by definition;
    ``max_candidates`` RAISES (never truncates) when the merged
    candidate set exceeds it. NULLs on either axis are dropped (SQL
    comparison semantics: an unknown never survives NOT EXISTS)."""
    import numpy as np

    def local_prune(batch: pa.Table):
        keep = pc.and_(
            pc.is_valid(batch.column(x_col)),
            pc.is_valid(batch.column(y_col)),
        )
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return
        x = np.asarray(batch.column(x_col), dtype=np.int64)
        y = np.asarray(batch.column(y_col), dtype=np.int64)
        order = np.lexsort((y, x))  # x asc, then y asc
        ys = y[order]
        runmin = np.minimum.accumulate(ys)
        mask = ys <= runmin  # generous on ties; driver pass is exact
        yield batch.take(pa.array(order[mask]))

    pruned = ds.map_batches(
        local_prune, batch_format="pyarrow"
    ).materialize()  # object-store resident (spillable), NOT driver heap
    n_cand = pruned.count()
    if n_cand > max_candidates:
        # guard BEFORE the candidates ever reach the driver — a
        # corpus-sized frontier must raise here, not OOM in take_all
        raise ValueError(
            f"skyline candidate set has {n_cand} rows > "
            f"max_candidates={max_candidates}; the frontier itself is "
            "corpus-sized — shard by a partition key upstream"
        )
    cand = pruned.take_all()
    if not cand:
        from ctinexus_ray.ops.distjoin import _arrow_type

        i64 = pa.int64()
        sch = ds.schema()
        types = {
            n: _arrow_type(t) for n, t in zip(sch.names, sch.types)
        }  # typed empty result: consumers union/write it like any other
        return pa.Table.from_pydict(
            {
                **{
                    c: pa.array([], type=types.get(c, i64))
                    for c in keep_cols
                },
                x_col: pa.array([], type=i64),
                y_col: pa.array([], type=i64),
            }
        )
    x = np.array([r[x_col] for r in cand], dtype=np.int64)
    y = np.array([r[y_col] for r in cand], dtype=np.int64)
    # exact dominance replay of the NOT EXISTS, fully vectorized over
    # the (small) candidate set: sort (x asc, y asc); p is dominated iff
    #   A. some earlier x-group reaches y <= y_p  (x strictly smaller), or
    #   B. p's own x-group has min y < y_p        (x equal, y strict).
    lex = np.lexsort((y, x))
    x, y = x[lex], y[lex]
    gid = np.concatenate(([0], np.cumsum(np.diff(x) != 0)))
    first_idx = np.searchsorted(gid, gid)  # first row of own x-group
    prefix_min = np.minimum.accumulate(y)
    big = np.iinfo(np.int64).max
    min_y_prev = np.where(first_idx > 0, prefix_min[np.maximum(first_idx, 1) - 1], big)
    case_a = min_y_prev <= y
    case_b = y[first_idx] < y  # group's min y (y sorted within group)
    rows = [cand[lex[i]] for i in np.flatnonzero(~(case_a | case_b))]
    cols = keep_cols + [x_col, y_col]
    return pa.Table.from_pydict(
        {c: pa.array([r[c] for r in rows]) for c in cols}
    )


def scd2_history(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    tie_col: str,
    payload_cols: list[str],
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Type-2 slowly-changing-dimension history from a change log: one
    row per version with ``valid_from`` = its own timestamp and
    ``valid_to`` = the NEXT version's timestamp within the key (NULL
    for the current version) — the warehouse upsert-history shape
    (Kimball SCD2) and the crawl analogue "which snapshot of this url
    was live at time t". The within-key total order is (ts_col,
    tie_col); pass a unique tie (event/order id) so output is
    deterministic under timestamp ties — a tied earlier row gets an
    empty [ts, ts) window, exactly like SQL ``LEAD``.

    Scale shape: ONE hash shuffle on the key; each partition windows
    MANY whole keys in a single vectorized pass (sort + boundary-masked
    shift, no per-key Python) — the sessionize partitioning assumption
    (one key's versions fit a partition). ``ts_col``/``tie_col`` must
    be int64; ``valid_to`` is built as a masked IntegerArray, so NULLs
    never round-trip through float64 (timestamps above 2^53 stay
    exact). Output: (key, valid_from, tie, *payload, valid_to).
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import hash_reduce

    cols = [key_col, ts_col, tie_col, *payload_cols]

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g[cols].sort_values([key_col, ts_col, tie_col], kind="mergesort")
        ts = g[ts_col].to_numpy(dtype=np.int64)
        keys = g[key_col].to_numpy()
        n = len(ts)
        nxt = np.zeros(n, dtype=np.int64)
        same = np.zeros(n, dtype=bool)
        if n > 1:
            nxt[:-1] = ts[1:]
            same[:-1] = keys[1:] == keys[:-1]
        out = g.rename(columns={ts_col: "valid_from"})
        out["valid_to"] = pd.arrays.IntegerArray(
            np.where(same, nxt, 0).astype(np.int64), mask=~same
        )
        return out.reset_index(drop=True)

    return hash_reduce(
        ds.select_columns(cols), [key_col], window,
        num_partitions=num_partitions,
    )


def exact_kth_element(
    ds: ray.data.Dataset, col: str, k: int, n_buckets: int = 1024
) -> int:
    """EXACT k-th smallest element (1-based, duplicates counted, NULLs
    ignored — SQL ``quantile_disc`` semantics) of an UNBOUNDED int64
    column, by iterative histogram narrowing (distributed quickselect):
    each pass histograms the current [lo, hi] candidate range into
    ``n_buckets`` equal-width buckets with per-batch vectorized
    ``bincount`` partials and a bucket-keyed count reduce (<= n_buckets
    rows ever reach the driver), then recurses into the bucket
    containing the k-th rank. ceil(64 / log2(n_buckets)) <= 7 passes
    worst case over the full int64 domain, 2-3 in practice.

    This is the exact-median path when the value domain is too wide for
    ``int_column_quantiles``'s value-domain histogram (prices, byte
    sizes, timestamps) and an approximation (t-digest) is not
    acceptable. Contrast: a full ``Dataset.sort`` moves the corpus;
    this moves <= n_buckets ints per pass.

    The input is projected to ``col`` and materialized ONCE (each pass
    re-scans it; re-executing a lazy upstream per pass would multiply
    its cost). Raises on k out of range.
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import partitioned_agg

    vals = ds.select_columns([col]).materialize()

    def minmax_partial(batch: pa.Table) -> pa.Table:
        a = batch.column(col).drop_null()
        if len(a) == 0:
            return pa.Table.from_pydict(
                {"lo": pa.array([], type=pa.int64()),
                 "hi": pa.array([], type=pa.int64()),
                 "n": pa.array([], type=pa.int64())}
            )
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "lo": pa.array([pc.min(a).as_py()], type=pa.int64()),
                "hi": pa.array([pc.max(a).as_py()], type=pa.int64()),
                "n": pa.array([len(a)], type=pa.int64()),
            }
        )

    parts = vals.map_batches(minmax_partial, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("exact_kth_element: no non-null values")
    lo = min(int(p["lo"]) for p in parts)
    hi = max(int(p["hi"]) for p in parts)
    n = sum(int(p["n"]) for p in parts)
    if not 1 <= k <= n:
        raise ValueError(f"exact_kth_element: k={k} outside [1, {n}]")
    if hi - lo >= (1 << 63) - 1:
        raise ValueError(
            "exact_kth_element: value span exceeds int64 (the numpy "
            "a - lo shift would overflow) — split the range first"
        )

    while lo < hi:
        span = hi - lo + 1
        b = min(n_buckets, span)
        width = -(-span // b)  # ceil

        def hist_partial(batch: pa.Table, lo=lo, hi=hi, width=width, b=b):
            a = batch.column(col).drop_null().to_numpy(zero_copy_only=False)
            a = a[(a >= lo) & (a <= hi)]
            if len(a) == 0:
                return pa.Table.from_pydict(
                    {"bucket": pa.array([], type=pa.int64()),
                     "n": pa.array([], type=pa.int64())}
                )
            cnt = np.bincount((a - lo) // width, minlength=b)
            nz = np.flatnonzero(cnt)
            return pa.Table.from_pydict(
                {"bucket": pa.array(nz, type=pa.int64()),
                 "n": pa.array(cnt[nz], type=pa.int64())}
            )

        counts = partitioned_agg(
            vals.map_batches(hist_partial, batch_format="pyarrow"),
            keys=["bucket"],
            named_aggs={"n": ("n", "sum")},
            num_partitions=16,
        ).take_all()  # <= n_buckets rows by construction
        counts.sort(key=lambda r: r["bucket"])
        acc = 0
        for row in counts:
            nb = int(row["n"])
            if acc + nb >= k:
                bucket = int(row["bucket"])
                k -= acc
                break
            acc += nb
        else:  # pragma: no cover — k validated against n above
            raise AssertionError("rank fell off the histogram")
        lo, hi = lo + bucket * width, min(hi, lo + (bucket + 1) * width - 1)
    return lo


def interval_union_length(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    dur_us: int = 300_000_000,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Total ACTIVE time per user: each event opens a [ts, ts + dur)
    activity interval, overlapping intervals merge (the islands-and-
    gaps problem), and the user's covered-time is the summed length of
    the merged islands — "minutes of real engagement" instead of raw
    event counts, which double-count bursts. Output: (user, n_islands,
    active_us), both int64.

    Scale shape: ONE hash shuffle on the user; each partition processes
    MANY whole users in a single vectorized pass — sort by (user, ts),
    per-user running max of interval ends (cummax), an island starts
    where a start exceeds the previous running max, then per-island
    min-start/max-end via a groupby on the island counter. The
    sessionize partitioning assumption (one user's events fit a
    partition). All arithmetic int64 microseconds — bit-exact vs the
    SQL window twin.
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import hash_reduce

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "u": batch.column(user_col).cast(pa.int64()),
                "s": batch.column(ts_col).cast(pa.int64()),
            }
        )

    def reduce_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["u", "s"], kind="mergesort")
        u = g["u"].to_numpy(dtype=np.int64)
        if len(u) == 0:
            return pd.DataFrame(
                {
                    user_col: pd.Series([], dtype="int64"),
                    "n_islands": pd.Series([], dtype="int64"),
                    "active_us": pd.Series([], dtype="int64"),
                }
            )
        s = g["s"].to_numpy(dtype=np.int64)
        e = s + dur_us
        first_of_user = np.r_[True, u[1:] != u[:-1]]
        # per-user running max of interval ends (C-level grouped cummax
        # — no per-user Python), shifted one row for the island test
        run_user = (
            pd.Series(e).groupby(pd.Series(u), sort=False).cummax().to_numpy()
        )
        prev_max = np.empty_like(run_user)
        if len(run_user):
            prev_max[1:] = run_user[:-1]
        new_island = first_of_user | (s > prev_max)
        isl = np.cumsum(new_island)  # global island ids (users disjoint)
        df = pd.DataFrame({"u": u, "isl": isl, "s": s, "e": run_user})
        per = df.groupby(["u", "isl"], sort=False).agg(
            mn=("s", "min"), mx=("e", "max")
        ).reset_index()
        out = (
            per.assign(length=per["mx"] - per["mn"])
            .groupby("u", sort=False)
            .agg(n_islands=("isl", "size"), active_us=("length", "sum"))
            .reset_index()
        )
        return pd.DataFrame(
            {
                user_col: out["u"].astype("int64"),
                "n_islands": out["n_islands"].astype("int64"),
                "active_us": out["active_us"].astype("int64"),
            }
        )

    return hash_reduce(
        events.select_columns([user_col, ts_col])
        .map_batches(to_us, batch_format="pyarrow"),
        ["u"], reduce_partition, num_partitions=num_partitions,
    )


def funnel_users_windowed(
    events: ray.data.Dataset,
    steps: list[str],
    window_s: int,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Time-BOUNDED ordered funnel: user_ids having a strictly
    time-increasing event-type subsequence matching ``steps`` whose
    total span fits ``window_s`` (view -> click -> purchase within an
    hour — the Amplitude/Mixpanel conversion-window semantics).

    Unlike the unbounded ``funnel_users``, one global greedy pass is
    NOT sufficient (the earliest step-1 start may overrun the window
    while a later start converts). But for a FIXED start t1, taking the
    EARLIEST feasible later steps minimizes the completion time, so a
    user converts iff min over its step-1 events t1 of
    (completion(t1) - t1) <= window. Every step-1 event of every user
    therefore advances through k-1 vectorized ``searchsorted`` rounds
    simultaneously — no per-user, no per-candidate Python.

    The "first event of THIS user strictly after t" search uses a
    composite key ``dense_user_rank * time_span + (ts - t_min)``
    (int64; raises loudly if ranks x span would overflow — ~9e6
    users per partition at a ~30-year microsecond span). One hash
    shuffle on user_id. Output: (user_id), distinct.
    """
    import numpy as np

    from ctinexus_ray.ops.groupagg import hash_reduce

    if len(steps) < 2:
        raise ValueError("funnel needs at least 2 steps")

    window_us = window_s * 1_000_000

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
        per_step = []
        for step in steps:
            ev = g[g["event_type"] == step].sort_values(
                ["user_id", "ts_us"], kind="mergesort"
            )
            per_step.append(
                (
                    ev["user_id"].to_numpy(dtype=np.int64),
                    ev["ts_us"].to_numpy(dtype=np.int64),
                )
            )
        if any(len(u) == 0 for u, _ in per_step):
            return empty
        all_t = np.concatenate([t for _, t in per_step])
        t_min = int(all_t.min())
        span = int(all_t.max()) - t_min + 2
        uniq = np.unique(np.concatenate([u for u, _ in per_step]))
        if len(uniq) * span >= (1 << 63):
            raise ValueError(
                "funnel_users_windowed: user-rank x time-span composite "
                "key would overflow int64 — raise num_partitions"
            )
        step_keys = []
        for u_j, t_j in per_step:
            rank = np.searchsorted(uniq, u_j)
            step_keys.append((rank * span + (t_j - t_min), t_j))

        cand_rank = np.searchsorted(uniq, per_step[0][0])
        cand_t = per_step[0][1]
        start_t = cand_t.copy()
        for key_j, t_j in step_keys[1:]:
            query = cand_rank * span + (cand_t - t_min)
            pos = np.searchsorted(key_j, query, side="right")
            ok = pos < len(key_j)
            # same user iff the found key stays inside the rank's span
            same = np.zeros(len(pos), dtype=bool)
            same[ok] = key_j[pos[ok]] // span == cand_rank[ok]
            cand_rank = cand_rank[same]
            cand_t = t_j[pos[same]]
            start_t = start_t[same]
            if not len(cand_rank):
                return empty
        hit = cand_t - start_t <= window_us
        users = np.unique(uniq[cand_rank[hit]])
        return pd.DataFrame({"user_id": pd.Series(users, dtype="int64")})

    return hash_reduce(
        events.select_columns(["user_id", "ts", "event_type"])
        .map_batches(_ts_to_us, batch_format="pyarrow"),
        ["user_id"], scan, num_partitions=num_partitions,
    )
