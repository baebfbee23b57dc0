"""Tests for mergeable sketches (ops/sketch.py)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from ctinexus_ray.ops.sketch import (
    _hll_estimate,
    _hll_partial,
    hll_distinct,
    misra_gries_topk,
)


class TestHLL:
    def test_error_within_bound(self, ray_session):
        # p=14 -> standard error ~0.8%; assert within 4 sigma
        for n in (1_000, 50_000, 200_000):
            vals = pa.array([f"item-{i}" for i in range(n)])
            est = _hll_estimate(_hll_partial(vals, 14))
            assert abs(est - n) / n < 0.033, (n, est)

    def test_merge_equals_single_pass(self, ray_session):
        # register-wise max of split partials == one-shot partial
        vals = [f"x{i}" for i in range(10_000)]
        whole = _hll_partial(pa.array(vals), 12)
        a = _hll_partial(pa.array(vals[:6_000]), 12)
        b = _hll_partial(pa.array(vals[4_000:]), 12)  # overlapping halves
        assert np.array_equal(np.maximum(a, b), whole)

    def test_distributed_matches_exact_within_error(self, ray_session):
        rows = pa.Table.from_pydict(
            {"w": [f"w{i % 30_000}" for i in range(90_000)]}
        )
        ds = ray.data.from_arrow(rows).repartition(16)
        got = hll_distinct(ds, "w").take_all()[0]["approx_distinct"]
        assert abs(got - 30_000) / 30_000 < 0.033

    def test_empty(self, ray_session):
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"w": pa.array([], type=pa.string())})
        )
        assert hll_distinct(ds, "w").take_all()[0]["approx_distinct"] == 0


class TestMisraGries:
    def test_heavy_hitters_survive(self, ray_session):
        data = (
            ["hot-a"] * 5_000
            + ["hot-b"] * 3_000
            + [f"cold{i}" for i in range(2_000)]
        )
        ds = ray.data.from_items([{"w": w} for w in data]).repartition(8)
        top = misra_gries_topk(ds, "w", k=64, top=5).take_all()
        ranked = [(r["value"], r["n"]) for r in top]
        assert ranked[0][0] == "hot-a" and ranked[1][0] == "hot-b"
        # MG counts are underestimates within N / k
        n_over_k = len(data) / 64
        assert 5_000 - n_over_k <= ranked[0][1] <= 5_000
        assert 3_000 - n_over_k <= ranked[1][1] <= 3_000

    def test_exact_when_under_k(self, ray_session):
        data = ["a"] * 10 + ["b"] * 7 + ["c"] * 3
        ds = ray.data.from_items([{"w": w} for w in data])
        top = misra_gries_topk(ds, "w", k=64, top=3).take_all()
        assert [(r["value"], r["n"]) for r in top] == [
            ("a", 10), ("b", 7), ("c", 3)
        ]


class TestCountMin:
    def test_never_underestimates_and_tight_on_sparse(self, ray_session):
        from collections import Counter

        from ctinexus_ray.ops.sketch import count_min_estimates

        vals = [f"w{i % 500}" for i in range(20_000)] + ["hot"] * 5_000
        exact = Counter(vals)
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"w": vals})
        ).repartition(8)
        probes = ["hot", "w0", "w499", "absent"]
        got = {
            r["value"]: r["n_est"]
            for r in count_min_estimates(ds, "w", probes).take_all()
        }
        assert set(got) == set(probes)
        for p in probes:
            assert got[p] >= exact[p], p  # CMS never underestimates
            # 501 distinct values vs width 4096 -> collisions are rare;
            # allow a small additive slack
            assert got[p] <= exact[p] + 60, (p, got[p], exact[p])

    def test_weighted_partials_equal_raw(self, ray_session):
        from ctinexus_ray.ops.sketch import count_min_estimates

        raw = ray.data.from_arrow(
            pa.Table.from_pydict({"w": ["a"] * 7 + ["b"] * 3})
        )
        weighted = ray.data.from_arrow(
            pa.Table.from_pydict({"w": ["a", "b"], "n": [7, 3]})
        )
        p = ["a", "b", "c"]
        r1 = {x["value"]: x["n_est"] for x in count_min_estimates(raw, "w", p).take_all()}
        r2 = {
            x["value"]: x["n_est"]
            for x in count_min_estimates(weighted, "w", p, weight="n").take_all()
        }
        assert r1 == r2 == {"a": 7, "b": 3, "c": 0}

    def test_empty_dataset(self, ray_session):
        from ctinexus_ray.ops.sketch import count_min_estimates

        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"w": pa.array([], type=pa.string())})
        )
        rows = count_min_estimates(ds, "w", ["x"]).take_all()
        assert rows == [{"value": "x", "n_est": 0}]


class TestGroupedHLL:
    def test_close_to_exact_per_group(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_hll_distinct

        rows = {
            "k": ["a"] * 6000 + ["b"] * 3000 + ["c"] * 10,
            "v": [f"u{i % 500}" for i in range(6000)]
            + [f"w{i % 120}" for i in range(3000)]
            + [f"x{i}" for i in range(10)],
        }
        ds = ray.data.from_arrow(pa.Table.from_pydict(rows)).repartition(8)
        got = {
            r["k"]: r["approx_distinct"]
            for r in grouped_hll_distinct(ds, "k", "v", p=12).take_all()
        }
        exact = {"a": 500, "b": 120, "c": 10}
        assert set(got) == set(exact)
        for k, n in exact.items():
            assert abs(got[k] - n) / n < 0.05, (k, got[k])

    def test_int_column_and_merge_across_blocks(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_hll_distinct

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": ["t"] * 1000, "v": list(range(200)) * 5}
            )
        ).repartition(10)
        got = grouped_hll_distinct(ds, "k", "v", p=12).take_all()
        assert len(got) == 1 and abs(got[0]["approx_distinct"] - 200) <= 10


class TestGroupedTDigest:
    def test_rank_error_vs_exact(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_tdigest_quantiles

        # two groups with very different distributions
        a = [float(i) for i in range(10_000)]          # uniform 0..1e4
        b = [float(i * i) / 1000 for i in range(3000)]  # convex
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": ["a"] * len(a) + ["b"] * len(b), "v": a + b}
            )
        ).repartition(16)
        qs = [0.25, 0.5, 0.95]
        got = {}
        for r in grouped_tdigest_quantiles(ds, "k", "v", qs).take_all():
            got[(r["k"], r["q"])] = r["value"]
        for k, vals in (("a", a), ("b", b)):
            arr = np.sort(np.array(vals))
            for q in qs:
                est = got[(k, q)]
                # rank error < 2% (same bound as the global t-digest test)
                rank = np.searchsorted(arr, est) / len(arr)
                assert abs(rank - q) < 0.02, (k, q, est, rank)

    def test_small_group_exactish(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_tdigest_quantiles

        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"k": ["x"] * 5, "v": [1.0, 2, 3, 4, 5]})
        )
        got = {
            r["q"]: r["value"]
            for r in grouped_tdigest_quantiles(ds, "k", "v", [0.5]).take_all()
        }
        assert abs(got[0.5] - 3.0) < 1e-9


class TestGroupedSketchNullKeys:
    def test_grouped_hll_keeps_null_group(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_hll_distinct

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "k": ["a", "a", None, None, "b"],
                    "v": ["x", "y", "p", "q", "z"],
                }
            )
        )
        got = {
            r["k"]: r["approx_distinct"]
            for r in grouped_hll_distinct(ds, "k", "v", p=12).take_all()
        }
        assert got == {"a": 2, None: 2, "b": 1}

    def test_grouped_tdigest_keeps_null_group(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_tdigest_quantiles

        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": ["a", None, None], "v": [1.0, 10.0, 20.0]}
            )
        )
        rows = grouped_tdigest_quantiles(ds, "k", "v", [0.5]).take_all()
        got = {r["k"]: r["value"] for r in rows}
        assert set(got) == {"a", None}
        assert abs(got[None] - 15.0) < 1e-9


class TestGroupedMisraGries:
    def test_heavy_hitters_survive_per_group(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_misra_gries_topk

        rows_k, rows_v = [], []
        # group a: 'hot' 500x among 200 distinct light values
        rows_k += ["a"] * 700
        rows_v += ["hot"] * 500 + [f"w{i}" for i in range(200)]
        # group b: 'x' 40x, 'y' 30x, rest singletons
        rows_k += ["b"] * 90
        rows_v += ["x"] * 40 + ["y"] * 30 + [f"z{i}" for i in range(20)]
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"k": rows_k, "v": rows_v})
        ).repartition(6)
        got = {}
        for r in grouped_misra_gries_topk(ds, "k", "v", k=64, top=2).take_all():
            got.setdefault(r["k"], []).append((r["value"], r["n_est"]))
        assert got["a"][0][0] == "hot"
        assert got["a"][0][1] <= 500  # MG never overestimates
        assert [v for v, _ in got["b"]] == ["x", "y"]

    def test_matches_exact_when_under_capacity(self, ray_session):
        from collections import Counter

        from ctinexus_ray.ops.sketch import grouped_misra_gries_topk

        vals = ["p"] * 7 + ["q"] * 3 + ["r"] * 5
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"k": ["g"] * len(vals), "v": vals})
        ).repartition(3)
        got = [
            (r["value"], r["n_est"])
            for r in grouped_misra_gries_topk(ds, "k", "v", k=64, top=3).take_all()
        ]
        # no compaction occurred (3 distinct << k=64): counts are exact
        assert got == [("p", 7), ("r", 5), ("q", 3)]


class TestSketchInputGuards:
    def test_mg_null_values_ignored_with_ties(self, ray_session):
        from ctinexus_ray.ops.sketch import grouped_misra_gries_topk

        # NULL values + a count tie used to crash the (−n, value) sort
        # with None-vs-str TypeError; NULLs are ignored (SQL count(col))
        ds = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"k": ["g"] * 6, "v": ["x", "x", None, None, "y", "y"]}
            )
        )
        got = [
            (r["value"], r["n_est"])
            for r in grouped_misra_gries_topk(ds, "k", "v", k=8, top=3).take_all()
        ]
        assert got == [("x", 2), ("y", 2)]

    def test_cms_rejects_null_and_negative_weights(self, ray_session):
        import pytest

        from ctinexus_ray.ops.sketch import count_min_estimates

        nulls = ray.data.from_arrow(
            pa.Table.from_pydict({"w": ["a", "b"], "n": [1, None]})
        )
        with pytest.raises(Exception, match="NULL"):
            count_min_estimates(nulls, "w", ["a"], weight="n").take_all()
        neg = ray.data.from_arrow(
            pa.Table.from_pydict({"w": ["a", "b"], "n": [1, -2]})
        )
        with pytest.raises(Exception, match="negative"):
            count_min_estimates(neg, "w", ["a"], weight="n").take_all()


class TestWeightedMisraGries:
    def test_weighted_partials_match_raw_stream(self, ray_session):
        from ctinexus_ray.ops.sketch import misra_gries_topk

        raw_vals = ["a"] * 30 + ["b"] * 20 + ["c"] * 5 + ["d"] * 2
        raw = ray.data.from_arrow(
            pa.Table.from_pydict({"v": raw_vals})
        ).repartition(3)
        combined = ray.data.from_arrow(
            pa.Table.from_pydict(
                {"v": ["a", "b", "c", "d"], "n": [30, 20, 5, 2]}
            )
        )
        got_raw = [
            (r["value"], r["n"])
            for r in misra_gries_topk(raw, "v", k=16, top=4).take_all()
        ]
        got_weighted = [
            (r["value"], r["n"])
            for r in misra_gries_topk(
                combined, "v", k=16, top=4, weight="n"
            ).take_all()
        ]
        # under capacity: both are exact and identical
        assert got_raw == got_weighted == [
            ("a", 30), ("b", 20), ("c", 5), ("d", 2)
        ]

    def test_weighted_guarantee_survives_compaction(self, ray_session):
        from ctinexus_ray.ops.sketch import misra_gries_topk

        # 64 distinct values, one dominating: k=4 forces compaction;
        # the > N/k heavy hitter must survive with weighted inserts
        vals = [f"w{i}" for i in range(63)] + ["heavy"]
        ns = [1] * 63 + [100]
        ds = ray.data.from_arrow(
            pa.Table.from_pydict({"v": vals, "n": ns})
        ).repartition(4)
        got = misra_gries_topk(ds, "v", k=4, top=1, weight="n").take_all()
        assert got[0]["value"] == "heavy"


class TestHllSetCardinalities:
    def test_accuracy_vs_exact(self, ray_session):
        from ctinexus_ray.ops.sketch import hll_set_cardinalities

        # two overlapping value universes with known exact set sizes
        a_vals = [f"v{i}" for i in range(0, 6000)]  # |A| = 6000
        b_vals = [f"v{i}" for i in range(4000, 9000)]  # |B| = 5000
        # |A∪B| = 9000, |A∩B| = 2000, |A\B| = 4000, |B\A| = 3000
        left = ray.data.from_arrow(
            pa.Table.from_pydict({"w": a_vals * 2})  # dups must not matter
        ).repartition(4)
        right = ray.data.from_arrow(
            pa.Table.from_pydict({"w": b_vals})
        ).repartition(3)
        got = {
            r["op"]: r["approx"]
            for r in hll_set_cardinalities(left, right, "w").take_all()
        }
        exact = {
            "distinct_left": 6000,
            "distinct_right": 5000,
            "union": 9000,
            "intersect": 2000,
            "except_left": 4000,
            "except_right": 3000,
        }
        assert set(got) == set(exact)
        for op, want in exact.items():
            # p=14 -> ~0.8% on the HLLs; inclusion-exclusion compounds to
            # a few % on the derived intersection/differences
            assert abs(got[op] - want) <= 0.05 * want, (op, got[op], want)

    def test_empty_side(self, ray_session):
        from ctinexus_ray.ops.sketch import hll_set_cardinalities

        left = ray.data.from_arrow(
            pa.Table.from_pydict({"w": ["x", "y", "z"]})
        )
        empty = ray.data.from_arrow(
            pa.Table.from_pydict({"w": pa.array([], type=pa.string())})
        )
        got = {
            r["op"]: r["approx"]
            for r in hll_set_cardinalities(left, empty, "w").take_all()
        }
        assert got["distinct_right"] == 0
        assert got["intersect"] == 0
        assert got["union"] == got["distinct_left"] == got["except_left"] == 3
        assert got["except_right"] == 0


def _zipf_words(n: int, vocab: int, seed: int = 7) -> list[str]:
    rng = np.random.default_rng(seed)
    return [f"w{int(r) % vocab}" for r in rng.zipf(1.3, n)]


def _blocks(values: list[str], n_blocks: int) -> ray.data.Dataset:
    """``values`` as a one-column dataset of exactly ``n_blocks`` blocks
    (0 = an empty dataset)."""
    t = pa.Table.from_pydict({"w": pa.array(values, type=pa.string())})
    if n_blocks == 0:
        return ray.data.from_arrow(t.slice(0, 0))
    return ray.data.from_arrow(t).repartition(n_blocks)


SPLITS = pytest.mark.parametrize("n_blocks", [0, 1, 7, 32])


class TestFoldInvariance:
    """Max / or / sum states are exactly associative and commutative, so
    the folded sketches equal a single-pass numpy computation over the
    whole column bit for bit, however the input is split into blocks."""

    @SPLITS
    def test_hll_distinct(self, ray_session, n_blocks):
        vals = _zipf_words(20_000, 5_000) if n_blocks else []
        got = hll_distinct(_blocks(vals, n_blocks), "w").take_all()
        regs = _hll_partial(pa.array(vals, type=pa.string()), 14)
        want = int(round(_hll_estimate(regs)))
        assert got == [{"approx_distinct": want}]

    @SPLITS
    def test_count_min(self, ray_session, n_blocks):
        from ctinexus_ray.ops.sketch import _cms_indices, count_min_estimates

        vals = _zipf_words(20_000, 5_000) if n_blocks else []
        probes = ["w1", "w2", "w17", "w4999", "absent"]
        got = count_min_estimates(_blocks(vals, n_blocks), "w", probes).take_all()
        mat = np.zeros((4, 4096), dtype=np.int64)
        if vals:
            idx = _cms_indices(pa.array(vals), 4096, 4)
            for d in range(4):
                np.add.at(mat[d], idx[d], 1)
        pidx = _cms_indices(sorted(probes), 4096, 4)
        want = [mat[d, pidx[d]] for d in range(4)]
        assert got == [
            {"value": v, "n_est": int(n)}
            for v, n in zip(sorted(probes), np.minimum.reduce(want))
        ]

    @SPLITS
    def test_bloom_build(self, ray_session, n_blocks):
        from ctinexus_ray.ops.sketch import _bloom_positions, bloom_build

        m_bits = 1 << 16
        vals = _zipf_words(20_000, 5_000) if n_blocks else []
        got = bloom_build(_blocks(vals, n_blocks), "w", m_bits=m_bits)
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        if vals:
            pos = _bloom_positions(pa.array(vals), m_bits, 4).ravel()
            np.bitwise_or.at(
                bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8)
            )
        assert got == bits.tobytes()

    @SPLITS
    def test_hll_set_cardinalities_both_sides(self, ray_session, n_blocks):
        from ctinexus_ray.ops.sketch import hll_set_cardinalities

        left = _zipf_words(20_000, 5_000, seed=1) if n_blocks else []
        right = _zipf_words(9_000, 3_000, seed=2)
        got = {
            r["op"]: r["approx"]
            for r in hll_set_cardinalities(
                _blocks(left, n_blocks), _blocks(right, 5), "w"
            ).take_all()
        }
        regs_a = _hll_partial(pa.array(left, type=pa.string()), 14)
        regs_b = _hll_partial(pa.array(right, type=pa.string()), 14)
        assert got["distinct_left"] == int(round(_hll_estimate(regs_a)))
        assert got["distinct_right"] == int(round(_hll_estimate(regs_b)))
        assert got["union"] == int(
            round(_hll_estimate(np.maximum(regs_a, regs_b)))
        )

    @SPLITS
    def test_misra_gries_exact_under_k(self, ray_session, n_blocks):
        from collections import Counter

        vals = _zipf_words(20_000, 500) if n_blocks else []
        got = misra_gries_topk(
            _blocks(vals, n_blocks), "w", k=1024, top=40
        ).take_all()
        want = sorted(Counter(vals).items(), key=lambda t: (-t[1], t[0]))[:40]
        assert [(r["value"], r["n"]) for r in got] == want
