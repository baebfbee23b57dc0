"""Generic monoid aggregation (ops/monoid.py): exactness vs direct
computation, tree-reduce depth independence and empty inputs."""

import numpy as np
import pyarrow as pa
import ray.data

from ctinexus_ray.ops.monoid import mergeable_aggregate


def _ds(values, n_blocks=6):
    t = pa.Table.from_pydict({"v": pa.array(values, type=pa.int64())})
    return ray.data.from_arrow(t).repartition(n_blocks)


class TestMergeableAggregate:
    def test_sum_count_minmax_in_one_pass(self, ray_session):
        rng = np.random.RandomState(2)
        vals = rng.randint(-1000, 1000, 500).tolist()

        def lift(block):
            a = block.column("v").to_numpy(zero_copy_only=False)
            return (int(a.sum()), len(a), int(a.min()), int(a.max()))

        def merge(x, y):
            return (x[0] + y[0], x[1] + y[1], min(x[2], y[2]), max(x[3], y[3]))

        got = mergeable_aggregate(
            _ds(vals),
            zero=lambda: (0, 0, 2**62, -(2**62)),
            lift=lift,
            merge=merge,
        )
        assert got == (sum(vals), len(vals), min(vals), max(vals))

    def test_merge_arity_does_not_change_result(self, ray_session):
        vals = list(range(333))

        def run(arity):
            return mergeable_aggregate(
                _ds(vals, n_blocks=11),
                zero=lambda: 0,
                lift=lambda b: int(
                    b.column("v").to_numpy(zero_copy_only=False).sum()
                ),
                merge=lambda a, b: a + b,
                merge_arity=arity,
            )

        assert run(2) == run(8) == sum(vals)

    def test_empty_dataset_returns_finished_zero(self, ray_session):
        got = mergeable_aggregate(
            _ds([]),
            zero=lambda: 0,
            lift=lambda b: 1,
            merge=lambda a, b: a + b,
            finish=lambda s: ("total", s),
        )
        assert got == ("total", 0)

    def test_numpy_state_histogram(self, ray_session):
        vals = [i % 7 for i in range(140)]
        got = mergeable_aggregate(
            _ds(vals),
            zero=lambda: np.zeros(7, dtype=np.int64),
            lift=lambda b: np.bincount(
                b.column("v").to_numpy(zero_copy_only=False), minlength=7
            ),
            merge=lambda a, b: a + b,
            finish=lambda s: s.tolist(),
        )
        assert got == [20] * 7

