"""Empty-partition regression tests (VERDICT r1 item 3).

Datasets whose upstream filters legitimately empty out some blocks must
flow through the partition-reduce / top-k merge / hash-join shapes with
correct results and stable output schemas — Ray's shuffle emits
schema-less empty blocks for unpopulated partitions, and downstream code
must be immune (see ctinexus_ray/rayutil.py)."""

import pyarrow as pa
import ray.data


def _sparse_ds(n_keep: int = 3):
    """20 input blocks; all but ``n_keep`` become empty after the filter,
    guaranteeing empty blocks enter every downstream shuffle."""
    ds = ray.data.range(2000, override_num_blocks=20)

    def filt(batch):
        t = pa.Table.from_pydict(
            {"doc_id": pa.array(batch["id"], type=pa.int64())}
        )
        first = t.column("doc_id").to_pylist()[0]
        if (first // 100) >= n_keep:
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], type=pa.int64())}
            )
        return t

    return ds.map_batches(filt, batch_format="numpy")


def test_partitioned_agg_with_empty_blocks(ray_session):
    from ctinexus_ray.ops.groupagg import partitioned_agg

    sparse = _sparse_ds()

    def add_val(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "v", pc.multiply(batch.column("doc_id"), 2)
        )

    agg = partitioned_agg(
        sparse.map_batches(add_val, batch_format="pyarrow"),
        keys=["doc_id"],
        named_aggs={"v": ("v", "max")},
    )
    rows = agg.take_all()
    assert len(rows) == 300
    assert all(r["v"] == r["doc_id"] * 2 for r in rows)
    schema = agg.schema()
    assert schema.names == ["doc_id", "v"]


def test_hash_reduce_with_empty_blocks(ray_session):
    """Empty blocks reach neither reducer format as rows or as a pkey."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    sparse = _sparse_ds()
    for fmt in ("pandas", "pyarrow"):
        out = hash_reduce(
            sparse, ["doc_id"], lambda part: part, num_partitions=16,
            batch_format=fmt,
        )
        ids = sorted(r["doc_id"] for r in out.take_all())
        assert ids == list(range(300))
        assert out.schema().names == ["doc_id"]


def test_merge_topk_with_empty_blocks(ray_session):
    """IVF/LSH searches emit nothing for batches with no candidates; the
    merge reduce must still rank correctly and keep its schema."""
    import numpy as np

    from ctinexus_ray.ops.simsearch import _merge_topk

    ds = ray.data.range(1000, override_num_blocks=10)

    def partials(batch):
        ids = np.asarray(batch["id"], dtype=np.int64)
        if ids[0] >= 300:  # 7 of 10 blocks contribute nothing
            return
        yield pa.Table.from_pydict(
            {
                "query_id": pa.array(ids % 3, type=pa.int64()),
                "neighbor_id": pa.array(ids, type=pa.int64()),
                "sim": pa.array(1.0 / (1 + ids), type=pa.float64()),
            }
        )

    merged = _merge_topk(ds.map_batches(partials, batch_format="numpy"), k=4)
    rows = merged.take_all()
    assert len(rows) == 12  # 3 queries x top-4
    assert merged.schema().names == ["query_id", "rank", "neighbor_id", "sim"]
    best = {r["query_id"]: r["neighbor_id"] for r in rows if r["rank"] == 1}
    assert best == {0: 0, 1: 1, 2: 2}


def test_hash_join_with_empty_blocks(ray_session):
    from ctinexus_ray.ops.distjoin import hash_join

    left = _sparse_ds()
    right = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array(range(0, 600, 2), type=pa.int64()),
                "y": pa.array(range(0, 600, 2), type=pa.int64()),
            }
        )
    )
    out = hash_join(
        left,
        right,
        on=["doc_id"],
        left_types={"doc_id": pa.int64()},
        right_types={"doc_id": pa.int64(), "y": pa.int64()},
    )
    rows = out.take_all()
    assert sorted(r["doc_id"] for r in rows) == list(range(0, 300, 2))
    assert all(r["y"] == r["doc_id"] for r in rows)
