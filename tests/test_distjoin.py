"""Distributed hash join + connected components (ops/distjoin.py)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ctinexus_ray.ops.distjoin import (
    broadcast_join,
    component_drops,
    connected_components,
    hash_join,
)


def _ds(rows):
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


class TestHashJoin:
    def test_inner(self, ray_session):
        left = _ds([{"k": i, "x": f"l{i}"} for i in range(10)])
        right = _ds([{"k": i, "y": i * 10} for i in range(5, 15)])
        out = hash_join(left, right, on=["k"]).take_all()
        assert sorted(r["k"] for r in out) == list(range(5, 10))
        by_k = {r["k"]: r for r in out}
        assert by_k[7]["x"] == "l7" and by_k[7]["y"] == 70

    def test_inner_duplicate_keys_cross_product(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}, {"k": 1, "x": "b"}])
        right = _ds([{"k": 1, "y": 10}, {"k": 1, "y": 20}])
        out = hash_join(left, right, on=["k"]).take_all()
        assert len(out) == 4

    def test_left_outer_null_fill(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}, {"k": 2, "x": "b"}])
        right = _ds([{"k": 1, "y": 10}])
        out = {r["k"]: r for r in hash_join(left, right, on=["k"], how="left").take_all()}
        assert out[1]["y"] == 10
        assert out[2]["y"] is None

    def test_left_anti(self, ray_session):
        left = _ds([{"k": i} for i in range(10)])
        right = _ds([{"k": i} for i in range(0, 10, 2)])
        out = hash_join(left, right, on=["k"], how="left_anti").take_all()
        assert sorted(r["k"] for r in out) == [1, 3, 5, 7, 9]

    def test_left_semi(self, ray_session):
        left = _ds([{"k": i, "x": f"l{i}"} for i in range(10)])
        # duplicate right keys must NOT duplicate left rows (EXISTS)
        right = _ds([{"k": i} for i in (2, 2, 4, 4, 11)])
        out = hash_join(left, right, on=["k"], how="left_semi").take_all()
        assert sorted((r["k"], r["x"]) for r in out) == [(2, "l2"), (4, "l4")]
        assert set(out[0]) == {"k", "x"}  # right columns dropped

    def test_matches_pandas_merge(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(7)
        lrows = [{"k": int(rng.randint(0, 50)), "x": i} for i in range(300)]
        rrows = [{"k": int(rng.randint(0, 50)), "y": i} for i in range(200)]
        got = pd.DataFrame(
            hash_join(_ds(lrows), _ds(rrows), on=["k"]).take_all()
        ).sort_values(["k", "x", "y"]).reset_index(drop=True)
        want = (
            pd.DataFrame(lrows)
            .merge(pd.DataFrame(rrows), on="k")
            .sort_values(["k", "x", "y"])
            .reset_index(drop=True)[["k", "x", "y"]]
        )
        pd.testing.assert_frame_equal(got[["k", "x", "y"]], want)

    def test_string_keys(self, ray_session):
        left = _ds([{"k": w, "x": i} for i, w in enumerate(["a", "b", "c"])])
        right = _ds([{"k": w, "y": i} for i, w in enumerate(["b", "c", "d"])])
        out = sorted(r["k"] for r in hash_join(left, right, on=["k"]).take_all())
        assert out == ["b", "c"]

    def test_overlapping_value_columns_rejected(self, ray_session):
        left = _ds([{"k": 1, "x": 1}])
        right = _ds([{"k": 1, "x": 2}])
        with pytest.raises(ValueError, match="disjoint"):
            hash_join(left, right, on=["k"])

    def test_left_anti_renamed_drop_key(self, ray_session):
        ds = _ds([{"doc_id": i, "text": "t"} for i in range(8)])
        drop = _ds([{"node": 2}, {"node": 5}])
        out = hash_join(
            ds,
            drop.rename_columns({"node": "doc_id"}),
            on=["doc_id"],
            how="left_anti",
        ).take_all()
        assert sorted(r["doc_id"] for r in out) == [0, 1, 3, 4, 6, 7]

    def test_left_anti_empty_drop_set(self, ray_session):
        ds = _ds([{"doc_id": i} for i in range(4)])
        out = hash_join(
            ds,
            _empty_like(ds),
            on=["doc_id"],
            how="left_anti",
            right_types={"doc_id": pa.int64()},
        ).take_all()
        assert sorted(r["doc_id"] for r in out) == [0, 1, 2, 3]

    def test_left_attach_list_payload(self, ray_session):
        emb = ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([1, 2, 3], type=pa.int64()),
                    "embedding": pa.array(
                        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        )
        lang = ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([1, 2], type=pa.int64()),
                    "lang": ["en", "de"],
                }
            )
        )
        rows = sorted(
            _arrow_rows(
                hash_join(emb, lang, on=["vec_id"], how="left", num_partitions=16)
            ),
            key=lambda r: r["vec_id"],
        )
        # left-join semantics, the list payload survives the shuffle
        assert rows == [
            {"vec_id": 1, "embedding": [1.0, 2.0], "lang": "en"},
            {"vec_id": 2, "embedding": [3.0, 4.0], "lang": "de"},
            {"vec_id": 3, "embedding": [5.0, 6.0], "lang": None},
        ]


def _empty_like(ds: ray.data.Dataset) -> ray.data.Dataset:
    """A schemaless empty dataset (a map that yields nothing)."""

    def drop_all(batch: pa.Table):
        return
        yield

    return ds.map_batches(drop_all, batch_format="pyarrow")


def _arrow_rows(ds) -> list[dict]:
    """Every row of ``ds`` as plain Python values (nested lists/structs
    included), via Arrow rather than ``take_all``'s numpy conversion."""
    from ray.data.block import BlockAccessor

    return [
        row
        for block in ray.get(ds.to_arrow_refs())
        for row in BlockAccessor.for_block(block).to_arrow().to_pylist()
    ]


def _nested_sides():
    left = pa.table(
        {
            "k": pa.array([1, 2, 2, 3], type=pa.int64()),
            "emb": pa.array(
                [[0.5], [1.0, 1.5], None, [2.0]], pa.list_(pa.float32())
            ),
        }
    )
    right = pa.table(
        {
            "k": pa.array([2, 3, 3, 4], type=pa.int64()),
            "meta": pa.array(
                [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, None, {"a": 3, "b": "z"}]
            ),
        }
    )
    return left, right


# (left rows, right rows, declared right types); None right rows = an
# empty, schemaless right side
_PARITY_CASES = {
    "plain": (
        [{"k": i, "x": f"l{i}"} for i in range(8)],
        [{"k": i, "y": i * 10} for i in range(5, 12)],
        None,
    ),
    "dup_left_keys": (
        [{"k": i % 3, "x": f"l{i}"} for i in range(9)],
        [{"k": 1, "y": 10}, {"k": 2, "y": 20}, {"k": 7, "y": 70}],
        None,
    ),
    "dup_right_keys": (
        [{"k": 1, "x": "a"}, {"k": 2, "x": "b"}, {"k": 3, "x": "c"}],
        [{"k": 1, "y": 10}, {"k": 1, "y": 11}, {"k": 2, "y": 20},
         {"k": 2, "y": 21}, {"k": 2, "y": 22}],
        None,
    ),
    "null_keys": (
        [{"k": None, "x": "n"}, {"k": 1, "x": "a"}, {"k": 2, "x": "b"}],
        [{"k": None, "y": 0}, {"k": 1, "y": 10}],
        None,
    ),
    "nested_payloads": (_nested_sides()[0], _nested_sides()[1], None),
    "empty_right": (
        [{"k": 1, "x": "a"}, {"k": 2, "x": "b"}],
        None,
        {"k": pa.int64(), "y": pa.int64()},
    ),
}


def _side(rows) -> ray.data.Dataset:
    if isinstance(rows, pa.Table):
        return ray.data.from_arrow(rows)
    return ray.data.from_arrow(
        pa.Table.from_pylist(rows).cast(
            pa.schema(
                [pa.field("k", pa.int64())]
                + [pa.field(c, pa.int64() if c == "y" else pa.string())
                   for c in rows[0] if c != "k"]
            )
        )
    )


def _reference_join(lrows, rrows, rcols, how):
    """Nested-loop SQL equi-join (NULL keys never match)."""
    out = []
    for lrow in lrows:
        hits = [r for r in rrows if lrow["k"] is not None and r["k"] == lrow["k"]]
        if how == "left_semi":
            out += [lrow] if hits else []
        elif how == "left_anti":
            out += [] if hits else [lrow]
        elif hits:
            out += [{**lrow, **r} for r in hits]
        elif how == "left":
            out.append({**lrow, **{c: None for c in rcols}})
    return out


def _sorted_rows(rows):
    return sorted(repr(sorted(r.items())) for r in rows)


class TestJoinStrategyParity:
    """hash_join (shuffle) and broadcast_join (map-side) are one join:
    equal rows and columns for every ``how`` they share."""

    @pytest.mark.parametrize("how", ["inner", "left", "left_semi", "left_anti"])
    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_same_rows_as_hash_join(self, ray_session, case, how):
        lrows, rrows, right_types = _PARITY_CASES[case]
        left = _side(lrows)
        if rrows is None:
            right = _empty_like(left)
        else:
            right = _side(rrows)
        shuffled = hash_join(
            left, right, on=["k"], how=how, num_partitions=4,
            right_types=right_types,
        )
        mapped = broadcast_join(
            left, right, on=["k"], how=how, right_types=right_types
        )
        got_hash, got_bcast = _arrow_rows(shuffled), _arrow_rows(mapped)
        assert _sorted_rows(got_hash) == _sorted_rows(got_bcast)
        assert shuffled.schema().names == mapped.schema().names

        lpy = lrows.to_pylist() if isinstance(lrows, pa.Table) else lrows
        if rrows is None:
            rpy, rcols = [], [c for c in right_types if c != "k"]
        else:
            rpy = rrows.to_pylist() if isinstance(rrows, pa.Table) else rrows
            rcols = [c for c in rpy[0] if c != "k"]
        want = _reference_join(lpy, rpy, rcols, how)
        assert _sorted_rows(got_bcast) == _sorted_rows(want)


class TestBroadcastJoin:
    def test_cap_refuses_loudly(self, ray_session, monkeypatch):
        from ctinexus_ray.ops import distjoin

        monkeypatch.setattr(distjoin, "BROADCAST_MAX_ROWS", 2)
        left = _ds([{"k": 1, "x": "a"}])
        right = _ds([{"k": i, "y": i} for i in range(3)])
        with pytest.raises(ValueError, match="hash_join"):
            broadcast_join(left, right, on=["k"])
        # at the cap it still joins
        small = _ds([{"k": i, "y": i} for i in range(2)])
        assert broadcast_join(left, small, on=["k"]).take_all() == [
            {"k": 1, "x": "a", "y": 1}
        ]

    def test_outer_joins_refused(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}])
        right = _ds([{"k": 1, "y": 1}])
        for how in ("right", "full"):
            with pytest.raises(ValueError, match="hash_join"):
                broadcast_join(left, right, on=["k"], how=how)

    def test_key_type_mismatch_refused(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}])
        right = ray.data.from_arrow(
            pa.table({"k": pa.array([1], pa.int32()), "y": [1]})
        )
        # checked per left batch, so it surfaces as the failed task
        with pytest.raises(Exception, match="type mismatch: int64 vs int32"):
            broadcast_join(left, right, on=["k"]).take_all()


class TestConnectedComponents:
    def _labels(self, pairs):
        ds = _ds([{"a": a, "b": b} for a, b in pairs])
        return {
            r["node"]: r["label"]
            for r in connected_components(ds, num_partitions=8).take_all()
        }

    def test_two_components(self, ray_session):
        labels = self._labels([(1, 2), (2, 3), (10, 11)])
        assert labels == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}

    def test_long_chain_pointer_jumping(self, ray_session):
        # a 40-node path: plain min-propagation needs 40 rounds; pointer
        # jumping must converge well inside max_iters=30
        labels = self._labels([(i, i + 1) for i in range(40)])
        assert set(labels.values()) == {0}
        assert len(labels) == 41

    def test_matches_union_find(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(3)
        pairs = [
            (int(rng.randint(0, 60)), int(rng.randint(0, 60))) for _ in range(80)
        ]
        pairs = [(a, b) for a, b in pairs if a != b]
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        nodes = set()
        for a, b in pairs:
            nodes.update((a, b))
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        want = {n: find(n) for n in nodes}
        assert self._labels(pairs) == want

    def test_empty(self, ray_session):
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
            )
        )
        assert connected_components(ds).take_all() == []

    def test_contraction_tier(self, ray_session):
        # local_threshold=0 forces contraction rounds; components spanning
        # blocks must still merge via star-edge collisions + the fallback
        pairs = [(i, i + 1) for i in range(40)] + [(100, 101), (101, 102)]
        ds = _ds([{"a": a, "b": b} for a, b in pairs])
        labels = {
            r["node"]: r["label"]
            for r in connected_components(
                ds, num_partitions=8, local_threshold=0, contract_rounds=4
            ).take_all()
        }
        want = {i: 0 for i in range(41)} | {100: 100, 101: 100, 102: 100}
        assert labels == want

    def test_label_prop_tier(self, ray_session):
        # contract_rounds=0 routes straight to min-label propagation
        pairs = [(1, 2), (2, 3), (10, 11)]
        ds = _ds([{"a": a, "b": b} for a, b in pairs])
        labels = {
            r["node"]: r["label"]
            for r in connected_components(
                ds, num_partitions=8, local_threshold=0, contract_rounds=0
            ).take_all()
        }
        assert labels == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}

    def test_self_edges_ignored(self, ray_session):
        labels = self._labels([(5, 5), (1, 2), (2, 2)])
        assert labels == {1: 1, 2: 1}

    def test_component_drops(self, ray_session):
        ds = _ds([{"a": 1, "b": 2}, {"a": 2, "b": 3}])
        labels = connected_components(ds, num_partitions=8)
        drops = sorted(r["node"] for r in component_drops(labels).take_all())
        assert drops == [2, 3]


class TestOuterJoins:
    def test_right_outer(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}, {"k": 2, "x": "b"}])
        right = _ds([{"k": 2, "y": 20}, {"k": 3, "y": 30}])
        out = {r["k"]: r for r in hash_join(left, right, on=["k"], how="right").take_all()}
        assert set(out) == {2, 3}
        assert out[2]["x"] == "b" and out[2]["y"] == 20
        assert out[3]["x"] is None and out[3]["y"] == 30

    def test_full_outer(self, ray_session):
        left = _ds([{"k": 1, "x": "a"}, {"k": 2, "x": "b"}])
        right = _ds([{"k": 2, "y": 20}, {"k": 3, "y": 30}])
        out = {r["k"]: r for r in hash_join(left, right, on=["k"], how="full").take_all()}
        assert set(out) == {1, 2, 3}  # keys coalesce across sides
        assert out[1]["x"] == "a" and out[1]["y"] is None
        assert out[2]["x"] == "b" and out[2]["y"] == 20
        assert out[3]["x"] is None and out[3]["y"] == 30

    def test_full_outer_matches_pandas(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(11)
        lrows = [{"k": int(rng.randint(0, 40)), "x": i} for i in range(200)]
        rrows = [{"k": int(rng.randint(20, 60)), "y": i} for i in range(200)]
        got = hash_join(_ds(lrows), _ds(rrows), on=["k"], how="full").to_pandas()
        want = pd.merge(
            pd.DataFrame(lrows), pd.DataFrame(rrows), on="k", how="outer"
        )
        key = ["k", "x", "y"]
        got_s = got[key].sort_values(key, na_position="last").reset_index(drop=True)
        want_s = want[key].sort_values(key, na_position="last").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got_s.astype("float64"), want_s.astype("float64")
        )


class TestSaltedJoin:
    def _sides(self):
        import pyarrow as pa
        import ray.data

        # skewed left: one hot key with 300 rows
        left = pa.Table.from_pydict(
            {
                "k": [1] * 300 + [2, 3, 4],
                "lv": list(range(303)),
            }
        )
        right = pa.Table.from_pydict(
            {"k": [1, 2, 5], "rv": ["a", "b", "c"]}
        )
        return ray.data.from_arrow(left).repartition(4), ray.data.from_arrow(
            right
        )

    def test_inner_matches_hash_join(self, ray_session):
        from ctinexus_ray.ops.distjoin import hash_join, salted_join

        l, r = self._sides()
        plain = sorted(
            (row["k"], row["lv"], row["rv"])
            for row in hash_join(l, r, on=["k"]).take_all()
        )
        salted = sorted(
            (row["k"], row["lv"], row["rv"])
            for row in salted_join(l, r, on=["k"], salt=4).take_all()
        )
        assert salted == plain and len(salted) == 301

    def test_left_outer_unmatched_once(self, ray_session):
        from ctinexus_ray.ops.distjoin import salted_join

        l, r = self._sides()
        rows = salted_join(l, r, on=["k"], how="left", salt=3).take_all()
        assert len(rows) == 303  # every left row exactly once
        unmatched = [row for row in rows if row["rv"] is None]
        assert sorted(row["k"] for row in unmatched) == [3, 4]

    def test_rejects_bad_args(self, ray_session):
        import pytest

        from ctinexus_ray.ops.distjoin import salted_join

        l, r = self._sides()
        with pytest.raises(ValueError):
            salted_join(l, r, on=["k"], how="full")
        with pytest.raises(ValueError):
            salted_join(l, r, on=["k"], salt=0)


class TestBloomPrefilteredJoin:
    def test_equals_plain_inner_join(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.distjoin import bloom_prefiltered_join, hash_join

        left = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": list(range(1000)), "lv": list(range(1000))}
            )
        ).repartition(4)
        right = ray.data.from_arrow(
            pa.Table.from_pydict({"k": [3, 77, 500, 2000], "rv": list("abcd")})
        )
        want = sorted(
            (r["k"], r["lv"], r["rv"])
            for r in hash_join(left, right, on=["k"]).take_all()
        )
        got = sorted(
            (r["k"], r["lv"], r["rv"])
            for r in bloom_prefiltered_join(left, right, on=["k"]).take_all()
        )
        assert got == want and len(got) == 3

    def test_prune_actually_drops_rows(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray

        from ctinexus_ray.ops.sketch import _bloom_positions, bloom_build

        # the bitmap built over 4 keys must reject almost all of 10k keys
        right = ray.data.from_arrow(
            pa.Table.from_pydict({"k": ["3", "77", "500", "2000"]})
        )
        bits = np.frombuffer(bloom_build(right, "k"), dtype=np.uint8)
        pos = _bloom_positions(
            [str(i) for i in range(10_000)], 1 << 23, 4
        )
        hit = ((bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
        assert hit.sum() <= 10  # 4 true keys + rare false positives

    def test_single_key_only(self, ray_session):
        import pytest
        import ray.data

        from ctinexus_ray.ops.distjoin import bloom_prefiltered_join

        ds = ray.data.range(4)
        with pytest.raises(ValueError):
            bloom_prefiltered_join(ds, ds, on=["a", "b"])


class TestDerivedPartitionCount:
    def test_metadata_derivation_and_tiny_target(self, ray_session, monkeypatch):
        import ray.data

        from ctinexus_ray.ops.groupagg import derive_num_partitions

        ds = ray.data.read_parquet("/root/testdata/sf0.001/orders.parquet")
        default = derive_num_partitions(ds)
        assert default & (default - 1) == 0 and default >= 16
        # forcing a tiny per-task byte target must RAISE the count
        monkeypatch.setenv("CTINEXUS_PARTITION_TARGET_BYTES", "1024")
        tiny = derive_num_partitions(ds)
        assert tiny > default
        assert tiny & (tiny - 1) == 0
        # no metadata (lazily transformed) -> safe fallback, no execution
        mapped = ds.map_batches(lambda b: b, batch_format="pyarrow")
        assert derive_num_partitions(mapped) == 64

    def test_derived_defaults_match_explicit(self, ray_session):
        import ray.data

        from ctinexus_ray.ops.distjoin import hash_join

        left = ray.data.read_parquet(
            "/root/testdata/sf0.001/orders.parquet",
            columns=["o_orderkey", "o_custkey"],
        )
        right = ray.data.read_parquet(
            "/root/testdata/sf0.001/customer.parquet",
            columns=["c_custkey", "c_name"],
        ).rename_columns({"c_custkey": "o_custkey"})
        derived = hash_join(left, right, on=["o_custkey"]).take_all()
        explicit = hash_join(
            left, right, on=["o_custkey"], num_partitions=64
        ).take_all()
        key = lambda r: (r["o_custkey"], r["o_orderkey"])
        assert sorted(map(dict, derived), key=key) == sorted(
            map(dict, explicit), key=key
        )


class TestSnapshotDelta:
    def test_classification(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.distjoin import snapshot_delta

        old = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": [1, 2, 3, 4], "fp": ["a", "b", "c", "d"]}
            )
        ).repartition(2)
        new = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": [2, 3, 4, 5], "fp": ["b", "X", "d", "e"]}
            )
        ).repartition(2)
        got = {
            r["k"]: r["status"]
            for r in snapshot_delta(old, new, "k", "fp").take_all()
        }
        # k=2 and k=4 unchanged -> dropped; 1 removed; 3 changed; 5 added
        assert got == {1: "removed", 3: "changed", 5: "added"}

    def test_empty_sides(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.ops.distjoin import snapshot_delta

        empty = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": pa.array([], type=pa.int64()),
                 "fp": pa.array([], type=pa.string())}
            )
        )
        new = ray.data.from_arrow(
            pa.Table.from_pydict({"k": [9], "fp": ["z"]})
        )
        rows = snapshot_delta(empty, new, "k", "fp").take_all()
        assert [(r["k"], r["status"]) for r in rows] == [(9, "added")]


class TestSkewAwareJoin:
    def _sides(self, left_keys):
        import pyarrow as pa

        import ray.data

        left = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "k": pa.array(left_keys, type=pa.int64()),
                    "lv": pa.array(range(len(left_keys)), type=pa.int64()),
                }
            )
        )
        right = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "k": pa.array(sorted(set(left_keys)), type=pa.int64()),
                    "rv": pa.array(
                        [k * 10 for k in sorted(set(left_keys))],
                        type=pa.int64(),
                    ),
                }
            )
        )
        return left, right

    @staticmethod
    def _rows(ds):
        return sorted((r["k"], r["lv"], r["rv"]) for r in ds.take_all())

    def test_skewed_left_picks_salted_same_result(self, ray_session):
        from ctinexus_ray.ops.distjoin import hash_join, skew_aware_join

        keys = [7] * 500 + list(range(100))  # one key holds ~83%
        left, right = self._sides(keys)
        out, strategy = skew_aware_join(
            left, right, on=["k"], num_partitions=4, sample_stride=5,
            return_strategy=True,
        )
        assert strategy == "salted"
        want = hash_join(left, right, on=["k"], num_partitions=4)
        assert self._rows(out) == self._rows(want)

    def test_uniform_left_picks_hash(self, ray_session):
        from ctinexus_ray.ops.distjoin import skew_aware_join

        keys = list(range(400))
        left, right = self._sides(keys)
        out, strategy = skew_aware_join(
            left, right, on=["k"], num_partitions=4, sample_stride=3,
            return_strategy=True,
        )
        assert strategy == "hash"
        assert len(self._rows(out)) == 400

    def test_unsupported_how_falls_back_to_hash(self, ray_session):
        from ctinexus_ray.ops.distjoin import skew_aware_join

        keys = [7] * 300
        left, right = self._sides(keys)
        out, strategy = skew_aware_join(
            left,
            right.filter(expr="k > 100"),  # empty right
            on=["k"],
            how="left_anti",
            num_partitions=4,
            return_strategy=True,
        )
        assert strategy == "hash"  # anti can't replicate the right side
        assert out.count() == 300


class TestBucketedJoin:
    """Storage-aligned bucketing: bucketed_write + zero-shuffle
    bucketed_join vs a plain pandas join reference."""

    @staticmethod
    def _write(ray_session, tmp_path, name, table, n_buckets=8):
        import ray.data

        from ctinexus_ray.ops.distjoin import bucketed_write

        d = str(tmp_path / name)
        spec = bucketed_write(
            ray.data.from_arrow(table), ["k"], d, n_buckets=n_buckets
        )
        return d, spec

    def test_inner_matches_plain_join(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.ops.distjoin import bucketed_join

        left = pa.table(
            {"k": pa.array([1, 2, 2, 3, 9], type=pa.int64()),
             "a": ["p", "q", "r", "s", "t"]}
        )
        right = pa.table(
            {"k": pa.array([2, 3, 3, 4], type=pa.int64()),
             "b": ["x", "y", "z", "w"]}
        )
        da, sa = self._write(ray_session, tmp_path, "a", left)
        db, sb = self._write(ray_session, tmp_path, "b", right)
        assert sa["rows"] == 5 and sb["rows"] == 4
        got = sorted(
            (r["k"], r["a"], r["b"])
            for r in bucketed_join(da, db, on=["k"]).take_all()
        )
        assert got == [
            (2, "q", "x"), (2, "r", "x"), (3, "s", "y"), (3, "s", "z"),
        ]

    def test_left_join_null_fills(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.ops.distjoin import bucketed_join

        left = pa.table({"k": pa.array([1, 2], type=pa.int64()), "a": ["p", "q"]})
        right = pa.table({"k": pa.array([2], type=pa.int64()), "b": ["x"]})
        da, _ = self._write(ray_session, tmp_path, "a", left)
        db, _ = self._write(ray_session, tmp_path, "b", right)
        got = {
            r["k"]: r.get("b")
            for r in bucketed_join(da, db, on=["k"], how="left").take_all()
        }
        assert got == {1: None, 2: "x"}

    def test_incompatible_specs_refuse(self, ray_session, tmp_path):
        import pyarrow as pa
        import pytest

        from ctinexus_ray.ops.distjoin import bucketed_join

        t = pa.table({"k": pa.array([1], type=pa.int64()), "a": ["p"]})
        da, _ = self._write(ray_session, tmp_path, "a", t, n_buckets=8)
        db, _ = self._write(ray_session, tmp_path, "b", t, n_buckets=4)
        with pytest.raises(ValueError, match="bucket counts differ"):
            bucketed_join(da, db, on=["k"])
        with pytest.raises(ValueError, match="bucketed by"):
            bucketed_join(da, da, on=["wrong"])

    def test_string_keys(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.ops.distjoin import bucketed_join

        left = pa.table({"k": ["aa", "bb", "cc"], "a": [1, 2, 3]})
        right = pa.table({"k": ["bb", "cc", "dd"], "b": [20, 30, 40]})
        da, _ = self._write(ray_session, tmp_path, "a", left)
        db, _ = self._write(ray_session, tmp_path, "b", right)
        got = sorted(
            (r["k"], r["a"], r["b"])
            for r in bucketed_join(da, db, on=["k"]).take_all()
        )
        assert got == [("bb", 2, 20), ("cc", 3, 30)]

    def test_list_payload(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.ops.distjoin import bucketed_join

        left = pa.table(
            {
                "k": pa.array([1, 2, 3], type=pa.int64()),
                "emb": pa.array(
                    [[1.0, 2.0], [3.0], [4.0, 5.0]], pa.list_(pa.float32())
                ),
            }
        )
        right = pa.table({"k": pa.array([1, 3], type=pa.int64()), "b": [10, 30]})
        da, _ = self._write(ray_session, tmp_path, "a", left)
        db, _ = self._write(ray_session, tmp_path, "b", right)
        got = sorted(
            (r["k"], r["emb"], r["b"])
            for r in _arrow_rows(bucketed_join(da, db, on=["k"], how="left"))
        )
        assert got == [(1, [1.0, 2.0], 10), (2, [3.0], None), (3, [4.0, 5.0], 30)]
