"""Tests for relational/temporal ops vs DuckDB oracles on sf0.001."""

from __future__ import annotations

import duckdb
import pytest
import ray.data

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders", "customer", "nation", "region", "lineitem", "supplier"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


class TestWindow:
    def test_hourly_counts_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.relational import hourly_event_counts

        events = ray.data.read_parquet(f"{SF}/events.parquet")
        got = {
            (r["hour_ts"], r["event_type"], r["n_events"])
            for r in hourly_event_counts(events).take_all()
        }
        want = set(
            con.sql(
                "SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT), "
                "event_type, count(*) FROM events GROUP BY 1, 2"
            ).fetchall()
        )
        assert got == want


class TestSessionize:
    def test_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.relational import sessionize

        events = ray.data.read_parquet(f"{SF}/events.parquet")
        got = {
            (r["user_id"], r["n_sessions"], r["n_events"])
            for r in sessionize(events).take_all()
        }
        want = set(
            con.sql(
                "WITH ordered AS (SELECT user_id, ts, lag(ts) OVER ("
                "PARTITION BY user_id ORDER BY ts, event_id) AS prev FROM events) "
                "SELECT user_id, CAST(count(CASE WHEN prev IS NULL "
                "OR epoch(ts) - epoch(prev) > 1800 THEN 1 END) AS BIGINT), "
                "count(*) FROM ordered GROUP BY user_id"
            ).fetchall()
        )
        assert got == want


class TestBroadcastJoin:
    def test_vs_duckdb(self, ray_session, con):
        """Per-key count + broadcast attach (the join-count shape)."""
        from ctinexus_ray.ops.distjoin import broadcast_join
        from ctinexus_ray.ops.groupagg import partitioned_agg

        orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey"])
        customer = ray.data.read_parquet(
            f"{SF}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        ).rename_columns({"c_custkey": "o_custkey"})
        counted = partitioned_agg(
            orders, keys=["o_custkey"], named_aggs={"n": ("o_custkey", "size")}
        )
        got = {
            (r["o_custkey"], r["c_mktsegment"], r["n"])
            for r in broadcast_join(
                counted, customer, on=["o_custkey"], how="left"
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT o_custkey, c_mktsegment, count(*) FROM orders o "
                "JOIN customer c ON c.c_custkey = o.o_custkey GROUP BY 1, 2"
            ).fetchall()
        )
        assert got == want


class TestBroadcastEnrich:
    def test_join_chain_vs_duckdb(self, ray_session, con):
        """customer -> nation -> region snowflake walk via chained
        broadcast joins (the big side never shuffles)."""
        from ray.data.aggregate import Count

        from ctinexus_ray.ops.distjoin import broadcast_join

        customer = ray.data.read_parquet(
            f"{SF}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        nation = ray.data.read_parquet(
            f"{SF}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
        ).rename_columns({"n_nationkey": "c_nationkey"})
        region = ray.data.read_parquet(
            f"{SF}/region.parquet", columns=["r_regionkey", "r_name"]
        ).rename_columns({"r_regionkey": "n_regionkey"})
        enriched = broadcast_join(
            broadcast_join(customer, nation, on=["c_nationkey"], how="left"),
            region,
            on=["n_regionkey"],
            how="left",
        )
        got = {
            (r["r_name"], r["count()"])
            for r in enriched.groupby("r_name").aggregate(Count()).take_all()
        }
        want = set(
            con.sql(
                "SELECT r_name, count(*) FROM customer c "
                "JOIN nation n ON c.c_nationkey = n.n_nationkey "
                "JOIN region r ON n.n_regionkey = r.r_regionkey GROUP BY r_name"
            ).fetchall()
        )
        assert got == want

    def test_unmatched_keys_get_nulls(self, ray_session):
        import pyarrow as pa

        from ctinexus_ray.ops.distjoin import broadcast_join

        big = ray.data.from_arrow(
            pa.Table.from_pydict({"k": pa.array([1, 2], type=pa.int64())})
        )
        small = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k2": pa.array([1], type=pa.int64()), "v": pa.array(["x"])}
            )
        ).rename_columns({"k2": "k"})
        joined = broadcast_join(big, small, on=["k"], how="left")
        rows = {r["k"]: r["v"] for r in joined.take_all()}
        assert rows == {1: "x", 2: None}


class TestMinMax:
    def test_minmax_count_vs_duckdb(self, ray_session, con):
        import pyarrow as pa
        import pyarrow.compute as pc

        from ctinexus_ray.ops.relational import minmax_count_by_key

        def to_epoch(batch: pa.Table) -> pa.Table:
            secs = pc.divide(batch.column("ts").cast(pa.int64()), 1_000_000)
            return pa.Table.from_pydict(
                {"event_type": batch.column("event_type"), "epoch_s": secs}
            )

        ds = (
            ray.data.read_parquet(f"{SF}/events.parquet")
            .select_columns(["ts", "event_type"])
            .map_batches(to_epoch, batch_format="pyarrow")
        )
        got = {
            (r["event_type"], r["min_ts"], r["max_ts"], r["n_events"])
            for r in minmax_count_by_key(
                ds, "event_type", "epoch_s",
                out_min="min_ts", out_max="max_ts", out_n="n_events",
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT event_type, CAST(min(floor(epoch(ts))) AS BIGINT), "
                "CAST(max(floor(epoch(ts))) AS BIGINT), count(*) "
                "FROM events GROUP BY event_type"
            ).fetchall()
        )
        assert got == want


class TestGroupedTopn:
    def test_matches_window_function(self, ray_session):
        import duckdb
        import pandas as pd

        from ctinexus_ray.ops.relational import grouped_topn

        rows = [
            {"k": i % 7, "v": float((i * 37) % 100), "id": i} for i in range(200)
        ]
        ds = ray.data.from_items(rows)
        got = (
            pd.DataFrame(
                grouped_topn(ds, "k", "v", n=3, tiebreak_col="id").take_all()
            )
            .sort_values(["k", "rn"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("df", pd.DataFrame(rows))
        want = con.execute(
            "SELECT k, rn, id, v FROM (SELECT k, id, v, row_number() "
            "OVER (PARTITION BY k ORDER BY v DESC, id) AS rn FROM df) "
            "WHERE rn <= 3 ORDER BY k, rn"
        ).df()
        pd.testing.assert_frame_equal(
            got[["k", "rn", "id", "v"]].astype({"rn": "int64"}),
            want.astype({"rn": "int64"}),
            check_dtype=False,
        )


class TestAsofJoin:
    def test_matches_pandas_merge_asof(self, ray_session):
        import numpy as np
        import pandas as pd

        from ctinexus_ray.ops.relational import asof_join

        rng = np.random.RandomState(11)
        left_rows = [
            {"lid": i, "u": int(rng.randint(0, 6)), "t": int(rng.randint(0, 10_000))}
            for i in range(150)
        ]
        right_rows = [
            {"u": int(rng.randint(0, 6)), "t": int(rng.randint(0, 10_000)), "rv": float(i)}
            for i in range(80)
        ]
        lds = ray.data.from_items(left_rows)
        rds = ray.data.from_items(right_rows)
        got = (
            pd.DataFrame(
                asof_join(lds, rds, by="u", on="t", right_attach=["rv"]).take_all()
            )
            .sort_values(["lid"])
            .reset_index(drop=True)
        )
        want = pd.merge_asof(
            pd.DataFrame(left_rows).sort_values("t", kind="mergesort"),
            pd.DataFrame(right_rows)
            .rename(columns={"rv": "rv_right"})
            .sort_values("t", kind="mergesort"),
            on="t",
            by="u",
            direction="backward",
        ).sort_values("lid").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["lid", "u", "t", "rv_right"]],
            want[["lid", "u", "t", "rv_right"]],
            check_dtype=False,
        )

    def test_no_right_rows_for_key(self, ray_session):
        import pandas as pd

        from ctinexus_ray.ops.relational import asof_join

        lds = ray.data.from_items([{"lid": 1, "u": 5, "t": 10}])
        rds = ray.data.from_items([{"u": 9, "t": 1, "rv": 1.0}])
        out = asof_join(lds, rds, by="u", on="t", right_attach=["rv"]).take_all()
        assert len(out) == 1
        assert out[0]["rv_right"] is None or out[0]["rv_right"] != out[0]["rv_right"]


class TestIntQuantiles:
    def test_matches_quantile_disc(self, ray_session):
        import duckdb
        import pandas as pd

        from ctinexus_ray.ops.relational import int_column_quantiles

        rows = [{"x": (i * 13) % 257} for i in range(1000)]
        ds = ray.data.from_items(rows)
        qs = [0.1, 0.5, 0.9, 0.99]
        got = {
            r["q"]: r["value"]
            for r in int_column_quantiles(ds, "x", qs).take_all()
        }
        con = duckdb.connect()
        con.register("df", pd.DataFrame(rows))
        for q in qs:
            want = con.execute(
                f"SELECT quantile_disc(x, {q}) FROM df"
            ).fetchone()[0]
            assert got[q] == want, (q, got[q], want)


class TestRollingWindows:
    def test_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.relational import rolling_user_windows

        events = ray.data.read_parquet(f"{SF}/events.parquet")
        got = {
            (r["event_id"], r["user_id"], r["rolling_cents"], r["gap_us"])
            for r in rolling_user_windows(events, window=3).take_all()
        }
        want = set(
            con.sql(
                "SELECT event_id, user_id, "
                "sum(CAST(round(value * 100) AS BIGINT)) OVER "
                "(PARTITION BY user_id ORDER BY ts, event_id "
                "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), "
                "coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER "
                "(PARTITION BY user_id ORDER BY ts, event_id), -1) "
                "FROM events"
            ).fetchall()
        )
        assert got == want

    def test_single_row_user(self, ray_session):
        import pandas as pd

        from ctinexus_ray.ops.relational import rolling_user_windows

        one = ray.data.from_pandas(
            pd.DataFrame(
                {
                    "event_id": [1],
                    "user_id": [7],
                    "ts": pd.to_datetime(["2024-01-01"]),
                    "value": [2.5],
                }
            )
        )
        rows = rolling_user_windows(one).take_all()
        assert rows == [
            {"event_id": 1, "user_id": 7, "rolling_cents": 250, "gap_us": -1}
        ]


class TestPartitionedAggTemporalKey:
    def test_timestamp_group_key(self, ray_session, con):
        from ctinexus_ray.ops.groupagg import partitioned_agg

        orders = ray.data.read_parquet(
            f"{SF}/orders.parquet", columns=["o_orderdate", "o_orderkey"]
        )
        got = {
            (r["o_orderdate"], r["n"])
            for r in partitioned_agg(
                orders,
                keys=["o_orderdate"],
                named_aggs={"n": ("o_orderkey", "size")},
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT o_orderdate, count(*) FROM orders GROUP BY o_orderdate"
            ).fetchall()
        )
        assert {(ts.to_pydatetime() if hasattr(ts, "to_pydatetime") else ts, n)
                for ts, n in got} == want


class TestBandJoinCount:
    def test_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.relational import band_join_count

        ev = ray.data.read_parquet(f"{SF}/events.parquet")
        got = {
            (r["event_id"], r["n_clicks"])
            for r in band_join_count(
                ev.filter(expr="event_type == 'purchase'"),
                ev.filter(expr="event_type == 'click'"),
                left_id="event_id",
                left_on="ts",
                right_on="ts",
                lower=-3_600_000_000,
                upper=0,
                out="n_clicks",
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT p.event_id, count(c.event_id) FROM "
                "(SELECT event_id, ts FROM events WHERE event_type='purchase') p "
                "LEFT JOIN (SELECT event_id, ts FROM events WHERE event_type='click') c "
                "ON c.ts >= p.ts - INTERVAL 1 HOUR AND c.ts <= p.ts "
                "GROUP BY p.event_id"
            ).fetchall()
        )
        assert got == want

    def test_zero_matches_preserved(self, ray_session):
        import pyarrow as pa

        from ctinexus_ray.ops.relational import band_join_count

        left = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"id": [1, 2], "t": [0, 10_000_000]}
            )
        )
        right = ray.data.from_arrow(
            pa.Table.from_pydict({"t": [1, 2]})  # near t=0 only
        )
        got = {
            (r["id"], r["n"])
            for r in band_join_count(
                left, right, "id", "t", "t", lower=0, upper=5, out="n"
            ).take_all()
        }
        assert got == {(1, 2), (2, 0)}

    def test_forward_and_backward_band(self, ray_session):
        import numpy as np
        import pyarrow as pa

        from ctinexus_ray.ops.relational import band_join_count

        rng = np.random.RandomState(3)
        lt = rng.randint(0, 1000, size=200)
        rt = rng.randint(0, 1000, size=300)
        left = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"id": np.arange(200), "t": lt}
            )
        )
        right = ray.data.from_arrow(pa.Table.from_pydict({"t": rt}))
        for lo, hi in ((-50, 25), (10, 80), (0, 0)):
            got = {
                (r["id"], r["n"])
                for r in band_join_count(
                    left, right, "id", "t", "t", lower=lo, upper=hi, out="n"
                ).take_all()
            }
            want = {
                (i, int(((rt >= t + lo) & (rt <= t + hi)).sum()))
                for i, t in enumerate(lt)
            }
            assert got == want, (lo, hi)


class TestSlidingWindows:
    def test_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.relational import sliding_window_counts

        ev = ray.data.read_parquet(f"{SF}/events.parquet")
        got = {
            (r["window_start_s"], r["n_events"])
            for r in sliding_window_counts(
                ev, ts_col="ts", window_s=3600, slide_s=900
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT ((epoch_us(ts) // 1000000) // 900) * 900 - k * 900, "
                "count(*) FROM events, LATERAL (SELECT unnest(range(4)) AS k) t "
                "GROUP BY 1"
            ).fetchall()
        )
        assert got == want

    def test_every_event_in_exactly_fanout_windows(self, ray_session):
        import pyarrow as pa

        from ctinexus_ray.ops.relational import sliding_window_counts

        ts = pa.array([1_000_000_000_000], type=pa.timestamp("us"))
        ds = ray.data.from_arrow(pa.Table.from_pydict({"ts": ts}))
        rows = sliding_window_counts(ds, window_s=60, slide_s=15).take_all()
        assert sum(r["n_events"] for r in rows) == 4
        starts = sorted(r["window_start_s"] for r in rows)
        # event at t=1_000_000s: containing slide-aligned starts are
        # 999990 (= floor(1e6/15)*15) back through 3 more hops of 15s
        assert starts == [999945, 999960, 999975, 999990]


class TestRollupCounts:
    def test_vs_duckdb(self, ray_session, con):
        from ctinexus_ray.ops.groupagg import rollup_counts
        import pyarrow as pa
        import pyarrow.compute as pc

        orders = ray.data.read_parquet(f"{SF}/orders.parquet")

        def keyed(batch):
            return pa.Table.from_pydict(
                {
                    "y": pc.year(batch.column("o_orderdate")),
                    "s": batch.column("o_orderstatus"),
                }
            )

        got = {
            (r["y"], r["s"], r["n"])
            for r in rollup_counts(
                orders.map_batches(keyed, batch_format="pyarrow"), keys=["y", "s"]
            ).take_all()
        }
        want = set(
            con.sql(
                "SELECT COALESCE(CAST(y AS VARCHAR),'ALL'), COALESCE(s,'ALL'), "
                "count(*) FROM (SELECT year(o_orderdate) AS y, o_orderstatus AS s "
                "FROM orders) GROUP BY ROLLUP(y, s)"
            ).fetchall()
        )
        assert got == want


class TestGroupedStringAgg:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import grouped_string_agg

        t = pa.Table.from_pydict(
            {
                "k": [1, 2, 1, 3, 2, 1],
                "v": ["a", "b", "c", "d", "e", "f"],
                "o": [30, 10, 20, 5, 40, 10],
            }
        )
        ds = ray.data.from_arrow(t).repartition(3)
        got = {
            r["k"]: r["agg"]
            for r in grouped_string_agg(ds, "k", "v", "o").take_all()
        }
        want = {
            k: s
            for k, s in duckdb.sql(
                "SELECT k, string_agg(v, ',' ORDER BY o) FROM t GROUP BY k"
            ).fetchall()
        }
        assert got == want


class TestSequenceOps:
    def _events(self):
        import pyarrow as pa
        import ray.data

        # user 1 completes view->click->purchase; user 2 clicks before
        # viewing (wrong order); user 3 never purchases
        rows = [
            (1, 1, 10, "view"), (2, 1, 20, "click"), (3, 1, 30, "purchase"),
            (4, 2, 10, "click"), (5, 2, 20, "view"), (6, 2, 30, "other"),
            (7, 3, 10, "view"), (8, 3, 20, "click"),
        ]
        t = pa.Table.from_pydict(
            {
                "event_id": [r[0] for r in rows],
                "user_id": [r[1] for r in rows],
                "ts": pa.array(
                    [r[2] * 1_000_000 for r in rows], type=pa.timestamp("us")
                ),
                "event_type": [r[3] for r in rows],
            }
        )
        return ray.data.from_arrow(t).repartition(3)

    def test_funnel_greedy_order(self, ray_session):
        from ctinexus_ray.ops.relational import funnel_users

        got = sorted(
            r["user_id"]
            for r in funnel_users(
                self._events(), steps=["view", "click", "purchase"]
            ).take_all()
        )
        assert got == [1]

    def test_transition_counts(self, ray_session):
        from ctinexus_ray.ops.relational import event_transition_counts

        got = {
            (r["prev_type"], r["event_type"]): r["sum(n)"]
            for r in event_transition_counts(self._events()).take_all()
        }
        assert got == {
            ("view", "click"): 2,
            ("click", "purchase"): 1,
            ("click", "view"): 1,
            ("view", "other"): 1,
        }


class TestGroupedTopnNullKeys:
    def test_null_group_ranked(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import grouped_topn

        t = pa.Table.from_pydict(
            {
                "g": ["a", None, None, "a", None],
                "v": [5, 9, 7, 3, 8],
                "id": [1, 2, 3, 4, 5],
            }
        )
        rows = grouped_topn(
            ray.data.from_arrow(t), "g", "v", n=2, tiebreak_col="id"
        ).take_all()
        got = {(r["g"], r["rn"]): r["id"] for r in rows}
        assert got == {
            ("a", 1): 1,
            ("a", 2): 4,
            (None, 1): 2,
            (None, 2): 5,
        }


class TestIntervalOverlap:
    def test_exactly_once_across_buckets(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import interval_overlap_pairs

        W = 100
        # intervals spanning multiple W-buckets; overlap matrix known:
        #   owner 1: [50, 250]   owner 2: [240, 260]  -> overlap
        #   owner 3: [300, 310]  (no overlap with 1 or 2... 2 ends 260)
        #   owner 4: [0, 1000]   overlaps everyone
        t = pa.Table.from_pydict(
            {
                "owner": [1, 2, 3, 4],
                "s": [50, 240, 300, 0],
                "e": [250, 260, 310, 1000],
            }
        )
        rows = interval_overlap_pairs(
            ray.data.from_arrow(t).repartition(2),
            owner_col="owner",
            start_col="s",
            end_col="e",
            bucket_us=W,
        ).take_all()
        got = sorted((r["owner_a"], r["owner_b"]) for r in rows)
        # exactly once each, despite multi-bucket replication
        assert got == [(1, 2), (1, 4), (2, 4), (3, 4)]

    def test_session_intervals_match_sessionize_counts(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import session_intervals, sessionize

        rows = []
        eid = 0
        for u in (1, 2, 3):
            for s in range(u):  # user u has u sessions
                for j in range(3):
                    rows.append((eid, u, (s * 10_000 + j) * 1_000_000))
                    eid += 1
        t = pa.Table.from_pydict(
            {
                "event_id": [r[0] for r in rows],
                "user_id": [r[1] for r in rows],
                "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
            }
        )
        ds = ray.data.from_arrow(t).repartition(3)
        ivs = session_intervals(ds, gap_seconds=1800).take_all()
        per_user = {}
        for r in ivs:
            per_user.setdefault(r["user_id"], []).append(
                (r["s_us"], r["e_us"])
            )
        counts = {
            r["user_id"]: r["n_sessions"]
            for r in sessionize(ds, gap_seconds=1800).take_all()
        }
        assert {u: len(v) for u, v in per_user.items()} == counts
        # intervals of one user never overlap (gap > threshold by def)
        for spans in per_user.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert e1 < s2


class TestBandJoinEdgeCases:
    def test_negative_axis_values(self, ray_session):
        """Pre-1970 (negative) axis values: both sides must bucket with
        FLOOR division or counts diverge at bucket boundaries."""
        import numpy as np
        import pyarrow as pa

        from ctinexus_ray.ops.relational import band_join_count

        rng = np.random.RandomState(7)
        lt = rng.randint(-500, 500, size=150)
        rt = rng.randint(-500, 500, size=250)
        left = ray.data.from_arrow(
            pa.Table.from_pydict({"id": np.arange(150), "t": lt})
        )
        right = ray.data.from_arrow(pa.Table.from_pydict({"t": rt}))
        got = {
            (r["id"], r["n"])
            for r in band_join_count(
                left, right, "id", "t", "t", lower=-40, upper=15, out="n"
            ).take_all()
        }
        want = {
            (i, int(((rt >= t - 40) & (rt <= t + 15)).sum()))
            for i, t in enumerate(lt)
        }
        assert got == want

    def test_left_ids_above_2_53_stay_distinct(self, ray_session):
        """lid must never round-trip through a null-padded float64 —
        ids above 2^53 would silently merge."""
        import pyarrow as pa

        from ctinexus_ray.ops.relational import band_join_count

        big = 2**53
        left = ray.data.from_arrow(
            pa.Table.from_pydict({"id": [big + 1, big + 2], "t": [0, 0]})
        )
        right = ray.data.from_arrow(pa.Table.from_pydict({"t": [0, 1, 2]}))
        got = {
            (r["id"], r["n"])
            for r in band_join_count(
                left, right, "id", "t", "t", lower=0, upper=1, out="n"
            ).take_all()
        }
        assert got == {(big + 1, 2), (big + 2, 2)}


class TestIntervalOverlapCap:
    def test_cap_is_opt_in_and_logged(self, ray_session, caplog):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import interval_overlap_pairs

        t = pa.Table.from_pydict(
            {
                "owner": [1, 2, 3, 4],
                "s": [0, 0, 0, 0],
                "e": [10, 10, 10, 10],
            }
        )
        ds = ray.data.from_arrow(t)
        exact = interval_overlap_pairs(
            ds, owner_col="owner", start_col="s", end_col="e", bucket_us=100
        ).take_all()
        assert len(exact) == 6  # default: unlimited, exact
        capped = interval_overlap_pairs(
            ds,
            owner_col="owner",
            start_col="s",
            end_col="e",
            bucket_us=100,
            max_bucket=2,
        ).take_all()
        assert len(capped) < 6  # engaged cap -> approximate (and logged)


class TestGroupedRunningSum:
    def test_running_sum_and_count(self, ray_session):
        import pyarrow as pa

        import ray.data
        from ctinexus_ray.ops.relational import grouped_running_sum

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "g": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
                    "o": pa.array([3, 1, 2, 1, 2], type=pa.int64()),
                    "v": pa.array([0.5, 1.0, 2.25, 10.0, -0.25], type=pa.float64()),
                }
            )
        )
        rows = grouped_running_sum(ds, "g", ["o"], "v", scale=100).take_all()
        got = {(r["g"], r["o"]): (r["run_units"], r["run_n"]) for r in rows}
        # group 1 ordered by o: 1.0, 2.25, 0.5 -> 100, 325, 375
        assert got == {
            (1, 1): (100, 1),
            (1, 2): (325, 2),
            (1, 3): (375, 3),
            (2, 1): (1000, 1),
            (2, 2): (975, 2),
        }

    def test_stable_under_repartition(self, ray_session):
        import pyarrow as pa

        import ray.data
        from ctinexus_ray.ops.relational import grouped_running_sum

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "g": pa.array([i % 7 for i in range(100)], type=pa.int64()),
                    "o": pa.array(range(100), type=pa.int64()),
                    "v": pa.array([i * 0.13 for i in range(100)], type=pa.float64()),
                }
            )
        )
        a = sorted(
            map(tuple, (r.values() for r in grouped_running_sum(ds, "g", ["o"], "v").take_all()))
        )
        b = sorted(
            map(tuple, (r.values() for r in grouped_running_sum(ds.repartition(13), "g", ["o"], "v").take_all()))
        )
        assert a == b


class TestKeySkewProfile:
    def test_vs_duckdb(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import key_skew_profile

        # skewed: key 7 has 10 rows, key 3 has 10 rows (tie -> min key 3)
        keys = [7] * 10 + [3] * 10 + [1] * 4 + [2] * 2 + [5, 6, 8, 9]
        t = pa.Table.from_pydict({"user_id": keys})
        ds = ray.data.from_arrow(t).repartition(5)
        got = key_skew_profile(ds, "user_id").to_pylist()[0]
        want = duckdb.sql(
            "WITH c AS (SELECT user_id, count(*) AS n FROM t "
            "GROUP BY user_id) SELECT count(*), SUM(n), MAX(n), "
            "quantile_disc(n, 0.5), quantile_disc(n, 0.9), "
            "quantile_disc(n, 0.99), (SELECT MIN(user_id) FROM c "
            "WHERE n = (SELECT MAX(n) FROM c)) FROM c"
        ).fetchone()
        assert (
            got["n_keys"],
            got["n_rows"],
            got["max_n"],
            got["p50_n"],
            got["p90_n"],
            got["p99_n"],
            got["top_key"],
        ) == want

    def test_string_keys(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import key_skew_profile

        t = pa.Table.from_pydict({"k": ["a", "b", "a", "c", "a", "b"]})
        got = key_skew_profile(ray.data.from_arrow(t), "k").to_pylist()[0]
        assert got["n_keys"] == 3
        assert got["max_n"] == 3
        assert got["top_key"] == "a"


class TestCubeCounts:
    def test_vs_duckdb_three_keys(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.groupagg import cube_counts

        t = pa.Table.from_pydict(
            {
                "a": ["x", "x", "y", "y", "y", "z"],
                "b": [1, 2, 1, 1, 2, 2],
                "c": ["p", "p", "q", "p", "q", "q"],
            }
        )
        ds = ray.data.from_arrow(t).repartition(3)
        got = sorted(
            (r["a"], r["b"], r["c"], r["n"])
            for r in cube_counts(ds, ["a", "b", "c"]).take_all()
        )
        want = sorted(
            duckdb.sql(
                "SELECT COALESCE(a, 'ALL'), "
                "COALESCE(CAST(b AS VARCHAR), 'ALL'), "
                "COALESCE(c, 'ALL'), count(*) FROM t "
                "GROUP BY CUBE(a, b, c)"
            ).fetchall()
        )
        assert got == want


class TestGroupedZscore:
    def test_vs_duckdb_bitexact(self, ray_session):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import grouped_zscore

        rng = np.random.default_rng(7)
        n = 400
        t = pa.Table.from_pydict(
            {
                "rid": list(range(n)),
                "g": [f"g{i % 3}" for i in range(n)],
                "v": np.round(rng.uniform(0, 50, n), 2),
            }
        )
        ds = ray.data.from_arrow(t).repartition(4)
        got = (
            grouped_zscore(ds, "g", "v", id_cols=["rid"])
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            "WITH q AS (SELECT rid, g, "
            "CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS vc FROM t), "
            "s AS (SELECT g, CAST(count(*) AS BIGINT) AS n, "
            "CAST(SUM(vc) AS BIGINT) AS sq, "
            "CAST(SUM(vc * vc) AS BIGINT) AS sq2 FROM q GROUP BY g) "
            "SELECT q.rid, (CAST(q.vc AS DOUBLE) - "
            "CAST(s.sq AS DOUBLE) / s.n) / "
            "sqrt((CAST(s.sq2 AS DOUBLE) - CAST(s.sq AS DOUBLE) * "
            "CAST(s.sq AS DOUBLE) / s.n) / s.n) AS z "
            "FROM q JOIN s USING (g) ORDER BY rid"
        ).df()
        assert np.array_equal(got["z"].to_numpy(), want["z"].to_numpy())

    def test_constant_group_is_nan(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import grouped_zscore

        t = pa.Table.from_pydict(
            {"rid": [0, 1, 2], "g": ["a", "a", "a"], "v": [5.0, 5.0, 5.0]}
        )
        got = grouped_zscore(
            ray.data.from_arrow(t), "g", "v", id_cols=["rid"]
        ).to_pandas()
        assert np.isnan(got["z"]).all()  # 0/0, same as the SQL expression


class TestBasketPairs:
    def test_vs_duckdb_with_min_support(self, ray_session):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import basket_pairs

        rng = np.random.default_rng(9)
        n = 500
        t = pa.Table.from_pydict(
            {
                "basket": rng.integers(0, 60, n),
                "item": [f"i{int(x)}" for x in rng.integers(0, 8, n)],
            }
        )
        ds = ray.data.from_arrow(t).repartition(4)
        got = sorted(
            (r["t1"], r["t2"], r["support"])
            for r in basket_pairs(
                ds, "basket", "item", min_support=3
            ).take_all()
        )
        want = sorted(
            duckdb.sql(
                "WITH d AS (SELECT DISTINCT basket, item FROM t) "
                "SELECT a.item, b.item, count(*) FROM d a JOIN d b "
                "ON a.basket = b.basket AND a.item < b.item "
                "GROUP BY 1, 2 HAVING count(*) >= 3"
            ).fetchall()
        )
        assert got == want

    def test_max_basket_raises(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data

        from ctinexus_ray.ops.relational import basket_pairs

        t = pa.Table.from_pydict(
            {"basket": [1] * 5, "item": ["a", "b", "c", "d", "e"]}
        )
        ds = ray.data.from_arrow(t)
        with pytest.raises(Exception, match="max_basket"):
            basket_pairs(ds, "basket", "item", max_basket=3).take_all()


class TestKsDrift:
    def test_matches_scipy_semantics(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import ks_drift

        rng = np.random.default_rng(17)
        a = rng.integers(0, 100, 400)
        b = rng.integers(20, 120, 300)  # shifted distribution
        t = pa.Table.from_pydict(
            {
                "g": ["a"] * len(a) + ["b"] * len(b),
                "v": np.concatenate([a, b]),
            }
        )
        ds = ray.data.from_arrow(t).repartition(4)
        row = ks_drift(ds, "g", "v", "a", "b").to_pylist()[0]

        # independent reference: step-CDF sup over the union of values
        def cdf(xs, v):
            return (xs <= v).sum() / len(xs)

        union = np.unique(np.concatenate([a, b]))
        want = max(abs(cdf(a, v) - cdf(b, v)) for v in union)
        assert row["n1"] == len(a) and row["n2"] == len(b)
        assert abs(row["ks"] - want) < 1e-12
        assert row["ks"] > 0.1  # the shift is detected

    def test_identical_slices_zero(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import ks_drift

        t = pa.Table.from_pydict(
            {"g": ["a", "b"] * 50, "v": [x // 2 for x in range(100)]}
        )
        row = ks_drift(
            ray.data.from_arrow(t), "g", "v", "a", "b"
        ).to_pylist()[0]
        assert row["ks"] == 0.0


class TestMelt:
    def test_unpivots_rows(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import melt

        t = pa.Table.from_pydict(
            {"id": [1, 2], "a": [10, 20], "b": [30, 40]}
        )
        got = sorted(
            (r["id"], r["key"], r["val"])
            for r in melt(
                ray.data.from_arrow(t), ["id"], ["a", "b"]
            ).take_all()
        )
        assert got == [
            (1, "a", 10), (1, "b", 30), (2, "a", 20), (2, "b", 40),
        ]

    def test_mixed_value_types_raise(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data

        from ctinexus_ray.ops.relational import melt

        t = pa.Table.from_pydict({"id": [1], "a": [1], "b": [1.5]})
        with pytest.raises(Exception, match="one type"):
            melt(ray.data.from_arrow(t), ["id"], ["a", "b"]).take_all()

    def test_empty_value_cols_raise(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data

        from ctinexus_ray.ops.relational import melt

        t = pa.Table.from_pydict({"id": [1]})
        with pytest.raises(ValueError):
            melt(ray.data.from_arrow(t), ["id"], [])


class TestJsonScalar:
    def test_extracts_and_null_safety(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.semistruct import json_scalar

        t = pa.Table.from_pydict(
            {
                "id": [1, 2, 3, 4, 5, 6],
                "js": [
                    '{"k": 7}',
                    '{"k": null}',
                    '{"other": 1}',
                    "not json",
                    None,
                    "[1, 2]",
                ],
            }
        )
        got = {
            r["id"]: r["k"]
            for r in json_scalar(
                ray.data.from_arrow(t), "js", "k"
            ).take_all()
        }
        assert got == {1: 7, 2: None, 3: None, 4: None, 5: None, 6: None}

    def test_keep_projection_and_string_type(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.semistruct import json_scalar

        t = pa.Table.from_pydict(
            {"id": [1], "extra": ["x"], "js": ['{"name": "web"}']}
        )
        rows = json_scalar(
            ray.data.from_arrow(t),
            "js",
            "name",
            arrow_type=pa.string(),
            keep=["id"],
        ).take_all()
        assert rows == [{"id": 1, "name": "web"}]


class TestReviewHardening:
    def test_json_scalar_mixed_types_yield_null(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.semistruct import json_scalar

        t = pa.Table.from_pydict(
            {
                "id": [1, 2, 3, 4, 5],
                "js": [
                    '{"k": 7}',
                    '{"k": "abc"}',
                    '{"k": [1]}',
                    '{"k": 2.0}',
                    '{"k": "12"}',
                ],
            }
        )
        got = {
            r["id"]: r["k"]
            for r in json_scalar(
                ray.data.from_arrow(t), "js", "k"
            ).take_all()
        }
        # TRY_CAST semantics: strings parse if numeric, integral floats
        # convert, nested values and non-numeric strings are NULL
        assert got == {1: 7, 2: None, 3: None, 4: 2, 5: 12}

    def test_melt_null_handling(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import melt

        t = pa.Table.from_pydict(
            {"id": [1, 2], "a": [10, None], "b": [None, 40]}
        )
        ds = ray.data.from_arrow(t)
        dropped = sorted(
            (r["id"], r["key"], r["val"])
            for r in melt(ds, ["id"], ["a", "b"]).take_all()
        )
        assert dropped == [(1, "a", 10), (2, "b", 40)]  # EXCLUDE NULLS
        kept = melt(ds, ["id"], ["a", "b"], drop_nulls=False).take_all()
        assert len(kept) == 4  # INCLUDE NULLS


class TestNullHardening:
    def test_running_sum_null_value_contributes_zero(self, ray_session):
        import ray.data

        from ctinexus_ray.ops.relational import grouped_running_sum

        rows = [
            {"g": 1, "o": 1, "v": 2.0},
            {"g": 1, "o": 2, "v": None},
            {"g": 1, "o": 3, "v": 3.0},
        ]
        got = sorted(
            (r["o"], r["run_units"], r["run_n"])
            for r in grouped_running_sum(
                ray.data.from_items(rows), "g", ["o"], "v",
                num_partitions=16,
            ).take_all()
        )
        # NULL row kept (ROW_NUMBER semantics) with 0 contribution
        assert got == [(1, 200, 1), (2, 200, 2), (3, 500, 3)]

    def test_zscore_null_rows_dropped(self, ray_session):
        import ray.data

        from ctinexus_ray.ops.relational import grouped_zscore

        rows = [
            {"g": "a", "id": 1, "v": 1.0},
            {"g": "a", "id": 2, "v": 3.0},
            {"g": None, "id": 3, "v": 9.0},
            {"g": "a", "id": 4, "v": None},
        ]
        got = grouped_zscore(
            ray.data.from_items(rows), "g", "v", ["id"]
        ).take_all()
        ids = sorted(r["id"] for r in got)
        assert ids == [1, 2]  # null group and null value rows dropped
        z = {r["id"]: r["z"] for r in got}
        assert z[1] == -1.0 and z[2] == 1.0

    def test_basket_pairs_null_keys_ignored(self, ray_session):
        import ray.data

        from ctinexus_ray.ops.relational import basket_pairs

        rows = [
            {"b": 1, "t": "x"},
            {"b": 1, "t": "y"},
            {"b": None, "t": "x"},
            {"b": None, "t": "z"},
            {"b": 2, "t": None},
            {"b": 2, "t": "x"},
        ]
        got = sorted(
            (r["t1"], r["t2"], r["support"])
            for r in basket_pairs(
                ray.data.from_items(rows), "b", "t", num_partitions=16
            ).take_all()
        )
        assert got == [("x", "y", 1)]  # no 'null basket', no null items

    def test_dq_report_empty_blocks(self, ray_session):
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        from ctinexus_ray.ops.dq import data_quality_report

        ds = ray.data.from_items(
            [{"v": 1}, {"v": -2}]
        ).repartition(8)  # most blocks empty
        rep = data_quality_report(
            ds, {"nonneg": lambda b: pc.greater_equal(b.column("v"), 0)}
        )
        assert rep.to_pydict() == {
            "rule": ["nonneg"],
            "n_rows": [2],
            "n_violations": [1],
            "violation_rate": [0.5],
        }


class TestSkyline2D:
    def _brute(self, pts):
        out = []
        for i, (xi, yi) in enumerate(pts):
            dom = any(
                xj <= xi and yj <= yi and (xj < xi or yj < yi)
                for j, (xj, yj) in enumerate(pts)
                if j != i
            )
            if not dom:
                out.append((xi, yi))
        return sorted(out)

    def test_matches_brute_force_with_ties(self, ray_session):
        import random

        import ray.data

        from ctinexus_ray.ops.relational import skyline_2d

        rng = random.Random(7)
        for trial in range(5):
            pts = [
                (rng.randint(0, 12), rng.randint(0, 12))
                for _ in range(rng.randint(1, 60))
            ]
            rows = [
                {"id": i, "x": a, "y": b} for i, (a, b) in enumerate(pts)
            ]
            t = skyline_2d(
                ray.data.from_items(rows).repartition(4), "x", "y", ["id"]
            )
            got = sorted(
                zip(t.column("x").to_pylist(), t.column("y").to_pylist())
            )
            assert got == self._brute(pts), f"trial {trial}: {pts}"

    def test_duplicate_frontier_points_both_survive(self, ray_session):
        import ray.data

        from ctinexus_ray.ops.relational import skyline_2d

        rows = [
            {"id": 1, "x": 0, "y": 5},
            {"id": 2, "x": 0, "y": 5},
            {"id": 3, "x": 1, "y": 9},
        ]
        t = skyline_2d(ray.data.from_items(rows), "x", "y", ["id"])
        assert sorted(t.column("id").to_pylist()) == [1, 2]

    def test_candidate_cap_raises(self, ray_session):
        import pytest
        import ray.data

        from ctinexus_ray.ops.relational import skyline_2d

        # anti-chain: every point is on the frontier
        rows = [{"id": i, "x": i, "y": 100 - i} for i in range(50)]
        with pytest.raises(ValueError, match="max_candidates"):
            skyline_2d(
                ray.data.from_items(rows), "x", "y", ["id"],
                max_candidates=10,
            )


class TestContQuantiles:
    def test_matches_numpy_linear_interpolation(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import int_column_quantiles_cont

        rng = np.random.default_rng(5)
        vals = rng.integers(0, 300, 997)
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"v": pa.array(vals, type=pa.int64())})
        )
        qs = [0.0, 0.1, 0.5, 0.77, 0.9, 1.0]
        out = int_column_quantiles_cont(ds, "v", qs).to_pandas()
        want = np.quantile(vals, qs, method="linear")
        np.testing.assert_allclose(
            out.sort_values("q")["value"].to_numpy(), want, rtol=0, atol=1e-9
        )

    def test_empty_column(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import int_column_quantiles_cont

        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"v": pa.array([], type=pa.int64())})
        )
        assert int_column_quantiles_cont(ds, "v", [0.5]).count() == 0


class TestSlidingDistinct:
    def test_windowed_distinct_ignores_nulls(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import sliding_window_counts

        # 4 events in one slide bucket: users 1, 1, 2, NULL
        base = 1_000_000 * 900 * 100  # epoch µs aligned to a 900 s bucket
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "ts": pa.array(
                        [base, base + 1, base + 2, base + 3],
                        type=pa.timestamp("us"),
                    ),
                    "user_id": pa.array([1, 1, 2, None], type=pa.int64()),
                }
            )
        ).repartition(2)
        out = {
            r["window_start_s"]: r["n_distinct"]
            for r in sliding_window_counts(
                ds, ts_col="ts", window_s=3600, slide_s=900,
                distinct_col="user_id",
            ).take_all()
        }
        # every one of the 4 covering windows sees exactly 2 distinct
        # users — the NULL never counts (SQL COUNT(DISTINCT) semantics)
        assert len(out) == 4
        assert set(out.values()) == {2}

    def test_only_null_window_emits_zero(self, ray_session):
        """A window whose only events carry NULL still appears with
        n_distinct = 0 — SQL GROUP BY emits the window row."""
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import sliding_window_counts

        base = 1_000_000 * 900 * 200
        far = base + 50_000 * 1_000_000  # a different slide bucket
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "ts": pa.array([base, far], type=pa.timestamp("us")),
                    "user_id": pa.array([None, 7], type=pa.int64()),
                }
            )
        )
        out = {
            r["window_start_s"]: r["n_distinct"]
            for r in sliding_window_counts(
                ds, ts_col="ts", window_s=3600, slide_s=900,
                distinct_col="user_id",
            ).take_all()
        }
        # both events produce their 4 windows; the NULL-only ones say 0
        assert len(out) == 8
        assert sorted(out.values()) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_windowed_count_unchanged(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.relational import sliding_window_counts

        base = 1_000_000 * 900 * 100
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "ts": pa.array([base, base + 5], type=pa.timestamp("us")),
                }
            )
        )
        out = sliding_window_counts(ds, window_s=3600, slide_s=900).take_all()
        assert len(out) == 4 and all(r["n_events"] == 2 for r in out)


class TestScd2History:
    def _ds(self, rows):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "k": pa.array([r[0] for r in rows], type=pa.int64()),
                    "ts": pa.array([r[1] for r in rows], type=pa.int64()),
                    "id": pa.array([r[2] for r in rows], type=pa.int64()),
                    "v": pa.array([r[3] for r in rows], type=pa.string()),
                }
            )
        )

    def _run(self, rows, **kw):
        from ctinexus_ray.ops.relational import scd2_history

        out = scd2_history(
            self._ds(rows), "k", "ts", "id", ["v"], **kw
        ).take_all()
        return sorted(
            (r["k"], r["valid_from"], r["id"], r["v"], r["valid_to"])
            for r in out
        )

    def test_basic_versions(self, ray_session):
        rows = [(1, 10, 100, "a"), (1, 20, 101, "b"), (2, 15, 102, "x")]
        assert self._run(rows, num_partitions=4) == [
            (1, 10, 100, "a", 20),
            (1, 20, 101, "b", None),
            (2, 15, 102, "x", None),
        ]

    def test_timestamp_tie_gives_empty_window(self, ray_session):
        rows = [(1, 10, 101, "late"), (1, 10, 100, "early")]
        assert self._run(rows, num_partitions=4) == [
            (1, 10, 100, "early", 10),  # [10, 10): superseded instantly
            (1, 10, 101, "late", None),
        ]

    def test_matches_pandas_lead(self, ray_session):
        import numpy as np
        import pandas as pd

        rng = np.random.RandomState(21)
        rows = [
            (int(rng.randint(0, 12)), int(rng.randint(0, 50)), i, f"v{i}")
            for i in range(300)
        ]
        df = pd.DataFrame(rows, columns=["k", "ts", "id", "v"])
        df = df.sort_values(["k", "ts", "id"])
        df["valid_to"] = df.groupby("k")["ts"].shift(-1)
        want = sorted(
            (
                int(r.k),
                int(r.ts),
                int(r.id),
                r.v,
                None if pd.isna(r.valid_to) else int(r.valid_to),
            )
            for r in df.itertuples()
        )
        assert self._run(rows, num_partitions=8) == want

    def test_big_int64_ts_exact(self, ray_session):
        # beyond 2^53: a float64 round trip would corrupt these
        big = (1 << 62) + 1
        rows = [(5, big, 1, "a"), (5, big + 1, 2, "b")]
        assert self._run(rows, num_partitions=4) == [
            (5, big, 1, "a", big + 1),
            (5, big + 1, 2, "b", None),
        ]


class TestRegexExtractAll:
    def _ds(self, rows):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array(
                        [r[0] for r in rows], type=pa.int64()
                    ),
                    "text": pa.array([r[1] for r in rows], type=pa.string()),
                }
            )
        )

    def _run(self, rows, pattern):
        from ctinexus_ray.ops.semistruct import regex_extract_all

        out = regex_extract_all(
            self._ds(rows), "doc_id", "text", pattern
        ).take_all()
        return sorted((r["doc_id"], r["idx"], r["match"]) for r in out)

    def test_basic_and_null_and_empty(self, ray_session):
        rows = [(1, "ab12cd345"), (2, None), (3, "nope"), (4, "9")]
        assert self._run(rows, r"[0-9]+") == [
            (1, 1, "12"),
            (1, 2, "345"),
            (4, 1, "9"),
        ]

    def test_groups_return_whole_match(self, ray_session):
        # a capturing group must NOT change the output (SQL group-0)
        assert self._run([(1, "a1b2")], r"([a-z])[0-9]") == [
            (1, 1, "a1"),
            (1, 2, "b2"),
        ]

    def test_non_overlapping_leftmost(self, ray_session):
        assert self._run([(1, "aaaa")], r"aa") == [(1, 1, "aa"), (1, 2, "aa")]

    def test_empty_match_pattern_rejected(self, ray_session):
        import pytest

        with pytest.raises(ValueError, match="empty"):
            self._run([(1, "x")], r"[0-9]*")

    def test_matches_duckdb(self, ray_session):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(3)
        alphabet = "ab1 2-"
        rows = [
            (i, "".join(rng.choice(list(alphabet), size=30)))
            for i in range(60)
        ]
        got = self._run(rows, r"[ab]+[0-9]")
        con = duckdb.connect()
        con.execute(
            "CREATE TABLE t (doc_id BIGINT, text VARCHAR)"
        )
        con.executemany("INSERT INTO t VALUES (?, ?)", rows)
        want = sorted(
            tuple(r)
            for r in con.execute(
                "SELECT doc_id, CAST(generate_subscripts(m, 1) AS BIGINT), "
                "unnest(m) FROM (SELECT doc_id, "
                "regexp_extract_all(text, '[ab]+[0-9]') AS m FROM t)"
            ).fetchall()
        )
        assert got == want


class TestExactKth:
    def _ds(self, values):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict({"v": pa.array(values, type=pa.int64())})
        )

    def test_matches_sorted_order_wide_domain(self, ray_session):
        import numpy as np

        from ctinexus_ray.ops.relational import exact_kth_element

        rng = np.random.RandomState(31)
        vals = rng.randint(-(10**15), 10**15, 500).tolist()
        vals += [vals[0]] * 5  # duplicates
        s = sorted(vals)
        ds = self._ds(vals)
        for k in (1, 2, 100, 253, len(vals)):
            assert exact_kth_element(ds, "v", k, n_buckets=16) == s[k - 1]

    def test_nulls_ignored(self, ray_session):
        from ctinexus_ray.ops.relational import exact_kth_element

        ds = self._ds([5, None, 1, None, 9])
        assert exact_kth_element(ds, "v", 2) == 5

    def test_k_out_of_range(self, ray_session):
        import pytest

        from ctinexus_ray.ops.relational import exact_kth_element

        with pytest.raises(ValueError, match="outside"):
            exact_kth_element(self._ds([1, 2]), "v", 3)

    def test_matches_duckdb_quantile_disc(self, ray_session):
        import duckdb
        import numpy as np

        from ctinexus_ray.ops.relational import exact_kth_element

        rng = np.random.RandomState(7)
        vals = rng.randint(0, 10**12, 301).tolist()
        n = len(vals)
        con = duckdb.connect()
        con.execute("CREATE TABLE t AS SELECT unnest(?) AS v", [vals])
        for q in (0.1, 0.5, 0.99):
            k = max(1, __import__("math").ceil(q * n))
            want = con.execute(
                f"SELECT quantile_disc(v, {q}) FROM t"
            ).fetchone()[0]
            assert exact_kth_element(self._ds(vals), "v", k) == want


class TestIntervalUnionLength:
    def _ds(self, rows):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "ts": pa.array([r[1] for r in rows], type=pa.int64()),
                }
            )
        )

    @staticmethod
    def _brute(rows, dur):
        out = {}
        by_user: dict = {}
        for u, t in rows:
            by_user.setdefault(u, []).append(t)
        for u, ts in by_user.items():
            ts.sort()
            islands = []
            start, end = ts[0], ts[0] + dur
            for t in ts[1:]:
                if t > end:
                    islands.append((start, end))
                    start, end = t, t + dur
                else:
                    end = max(end, t + dur)
            islands.append((start, end))
            out[u] = (len(islands), sum(e - s for s, e in islands))
        return out

    def _run(self, rows, dur):
        from ctinexus_ray.ops.relational import interval_union_length

        got = interval_union_length(
            self._ds(rows), dur_us=dur, num_partitions=4
        ).take_all()
        return {r["user_id"]: (r["n_islands"], r["active_us"]) for r in got}

    def test_matches_brute_force(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(15)
        rows = [
            (int(rng.randint(0, 10)), int(rng.randint(0, 10000)))
            for _ in range(400)
        ]
        assert self._run(rows, 500) == self._brute(rows, 500)

    def test_single_burst_is_one_island(self, ray_session):
        rows = [(1, 0), (1, 100), (1, 200)]
        assert self._run(rows, 300) == {1: (1, 500)}

    def test_disjoint_events_separate_islands(self, ray_session):
        rows = [(1, 0), (1, 1000), (2, 5)]
        assert self._run(rows, 100) == {1: (2, 200), 2: (1, 100)}

    def test_duplicate_timestamps(self, ray_session):
        rows = [(1, 50), (1, 50), (1, 50)]
        assert self._run(rows, 10) == {1: (1, 10)}


class TestWindowedFunnel:
    def _ds(self, rows):
        import pyarrow as pa

        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "ts": pa.array(
                        [r[1] * 1_000_000 for r in rows], type=pa.int64()
                    ),
                    "event_type": pa.array(
                        [r[2] for r in rows], type=pa.string()
                    ),
                }
            )
        )

    @staticmethod
    def _brute(rows, steps, window_s):
        from itertools import combinations

        converted = set()
        by_user: dict = {}
        for u, t, e in rows:
            by_user.setdefault(u, []).append((t, e))
        for u, evs in by_user.items():
            evs.sort()
            # exhaustive subsequence search (small inputs only)
            def ok(idx_start, step_i, t_prev, t0):
                if step_i == len(steps):
                    return True
                for j in range(idx_start, len(evs)):
                    t, e = evs[j]
                    if e == steps[step_i] and t > t_prev:
                        if step_i == 0:
                            if ok(j + 1, 1, t, t):
                                return True
                        elif t - t0 <= window_s:
                            if ok(j + 1, step_i + 1, t, t0):
                                return True
                return False

            if ok(0, 0, -1, 0):
                converted.add(u)
        return converted

    def _run(self, rows, steps, window_s):
        from ctinexus_ray.ops.relational import funnel_users_windowed

        out = funnel_users_windowed(
            self._ds(rows), steps, window_s, num_partitions=4
        ).take_all()
        return {r["user_id"] for r in out}

    def test_early_start_overruns_later_converts(self, ray_session):
        # user 1: A at 0 -> B at 500 (span 500 > 60) but A at 490 -> B
        # at 500 fits; the global greedy from t=0 would MISS this user
        rows = [(1, 0, "A"), (1, 490, "A"), (1, 500, "B")]
        assert self._run(rows, ["A", "B"], 60) == {1}

    def test_window_excludes(self, ray_session):
        rows = [(1, 0, "A"), (1, 100, "B"), (2, 0, "A"), (2, 10, "B")]
        assert self._run(rows, ["A", "B"], 50) == {2}

    def test_matches_exhaustive_search(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(29)
        types = ["A", "B", "C", "X"]
        rows = [
            (
                int(rng.randint(0, 12)),
                int(rng.randint(0, 2000)),
                types[rng.randint(0, 4)],
            )
            for _ in range(500)
        ]
        for window in (50, 300, 5000):
            assert self._run(rows, ["A", "B", "C"], window) == self._brute(
                rows, ["A", "B", "C"], window
            )

    def test_strictly_increasing_times_required(self, ray_session):
        rows = [(1, 100, "A"), (1, 100, "B")]  # tie: B not after A
        assert self._run(rows, ["A", "B"], 1000) == set()
