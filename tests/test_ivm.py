"""Incremental view maintenance (state/ivm.py): delta-maintained word
counts equal a full recompute, replayed batches are exactly-once, and
the applied-batch ledger is atomic with the data commit."""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pytest

import ray

from ctinexus_ray.state.ivm import apply_delta
from ctinexus_ray.state.tableformat import applied_ids, read_version

BATCHES = [
    ["a b b c", "c c d"],
    ["b d d e e e"],
    ["a a a f", "f b"],
]


def _delta(texts):
    from ctinexus_ray.ops.dedup import hash64_strings

    c = Counter()
    for t in texts:
        c.update(t.split())
    words = sorted(c)
    # hash64_strings is uint64; reinterpret as int64 for the key column
    keys = hash64_strings(words).astype("int64").tolist()
    return ray.data.from_arrow(
        pa.table(
            {
                "wkey": pa.array(keys, type=pa.int64()),
                "word": pa.array(words, type=pa.string()),
                "n": pa.array([c[w] for w in words], type=pa.int64()),
            }
        )
    )


def _counts(view):
    return {r["word"]: r["n"] for r in read_version(view).take_all()}


def _recompute(batches):
    want = Counter()
    for texts in batches:
        for t in texts:
            want.update(t.split())
    return dict(want)


@pytest.mark.usefixtures("ray_session")
class TestApplyDelta:
    def test_view_equals_full_recompute(self, tmp_path):
        view = str(tmp_path / "wc")
        for i, texts in enumerate(BATCHES):
            out = apply_delta(
                view, _delta(texts), key_col="wkey",
                value_cols={"n": "sum"}, batch_id=f"b{i}",
                num_partitions=16,
            )
            assert out["applied"] is True
        got = {
            r["word"]: r["n"] for r in read_version(view).take_all()
        }
        want = Counter()
        for texts in BATCHES:
            for t in texts:
                want.update(t.split())
        assert got == dict(want)
        assert applied_ids(view) == ["b0", "b1", "b2"]

    def test_replay_is_exactly_once(self, tmp_path):
        view = str(tmp_path / "wc")
        for i, texts in enumerate(BATCHES):
            apply_delta(
                view, _delta(texts), key_col="wkey",
                value_cols={"n": "sum"}, batch_id=f"b{i}",
            )
        before = sorted(
            (r["word"], r["n"]) for r in read_version(view).take_all()
        )
        out = apply_delta(
            view, _delta(BATCHES[1]), key_col="wkey",
            value_cols={"n": "sum"}, batch_id="b1",
        )
        assert out["applied"] is False
        after = sorted(
            (r["word"], r["n"]) for r in read_version(view).take_all()
        )
        assert before == after

    def test_min_max_combines(self, tmp_path):
        view = str(tmp_path / "mm")

        def d(vals):
            return ray.data.from_arrow(
                pa.table(
                    {
                        "k": pa.array(list(vals), type=pa.int64()),
                        "lo": pa.array(
                            [v * 10 for v in vals], type=pa.int64()
                        ),
                        "hi": pa.array(
                            [v * 10 for v in vals], type=pa.int64()
                        ),
                    }
                )
            )

        apply_delta(view, d([1, 2]), "k",
                    {"lo": "min", "hi": "max"}, "t0")
        apply_delta(view, d([2, 3]), "k",
                    {"lo": "min", "hi": "max"}, "t1")
        got = {r["k"]: (r["lo"], r["hi"])
               for r in read_version(view).take_all()}
        assert got == {1: (10, 10), 2: (20, 20), 3: (30, 30)}

    def test_non_monoid_combine_refuses(self, tmp_path):
        with pytest.raises(ValueError, match="monoid"):
            apply_delta(
                str(tmp_path / "x"), _delta(["a"]), "wkey",
                {"n": "avg"}, "t0",
            )

    def test_time_travel_keeps_old_views(self, tmp_path):
        view = str(tmp_path / "wc")
        apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        apply_delta(view, _delta(BATCHES[1]), "wkey", {"n": "sum"}, "b1")
        v1 = {r["word"]: r["n"]
              for r in read_version(view, version=1).take_all()}
        want = Counter()
        for t in BATCHES[0]:
            want.update(t.split())
        assert v1 == dict(want)

    def test_ledger_survives_compaction(self, tmp_path):
        """compact_table commits without knowing about the IVM ledger;
        extra inheritance must carry it forward or replays double-fold."""
        from ctinexus_ray.state.tableformat import compact_table

        view = str(tmp_path / "wc")
        for i, texts in enumerate(BATCHES):
            apply_delta(view, _delta(texts), "wkey", {"n": "sum"}, f"b{i}")
        compact_table(view)
        assert applied_ids(view) == ["b0", "b1", "b2"]
        out = apply_delta(
            view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0"
        )
        assert out["applied"] is False

    def test_concurrent_first_delta_aborts(self, tmp_path, monkeypatch):
        """A concurrent first delta that lands after apply_delta chose
        the first-batch branch must abort the overwrite, not be
        silently replaced by it."""
        from ctinexus_ray.state import ivm, tableformat

        view = str(tmp_path / "wc")
        real_latest = tableformat.latest_version
        landed = []

        def latest_then_race(table_dir):
            head = real_latest(table_dir)
            if not landed:
                landed.append(True)
                tableformat.write_dataset_version(
                    table_dir, _delta(BATCHES[1]), mode="overwrite",
                    batch_ids=["other"], expected_parent=head,
                )
            return head

        monkeypatch.setattr(ivm, "latest_version", latest_then_race)
        with pytest.raises(tableformat.ConcurrentWriteError):
            apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        assert applied_ids(view) == ["other"]

    def test_overtaken_ledger_only_commit_keeps_both_entries(
        self, tmp_path, monkeypatch
    ):
        """A ledger-only commit (a corpus version with no rows for the
        view) racing a delta's commit: both ledger entries survive, so
        a replay of either batch is recognized."""
        from ctinexus_ray.state import tableformat

        view = str(tmp_path / "wc")
        apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0",
                    num_partitions=16)
        real_latest = tableformat.latest_version

        def latest_then_race(table_dir):
            head = real_latest(table_dir)
            monkeypatch.setattr(tableformat, "latest_version", real_latest)
            apply_delta(view, _delta(BATCHES[1]), "wkey", {"n": "sum"},
                        "b1", num_partitions=16)
            return head

        monkeypatch.setattr(tableformat, "latest_version", latest_then_race)
        assert tableformat.commit_version(
            view, [], "append", batch_ids=["compact-v2"]
        ) == 3
        assert applied_ids(view) == ["b0", "b1", "compact-v2"]
        assert _counts(view) == _recompute(BATCHES[:2])

    def test_overtaken_merge_aborts_instead_of_losing_update(
        self, tmp_path, monkeypatch
    ):
        """A fold whose ledger check and view read saw version N must
        not merge onto a concurrent fold's version N+1: its combined
        counts miss the racer's delta, so committing them would drop
        the racer's rows and ledger entry."""
        from ctinexus_ray.state import ivm, tableformat

        view = str(tmp_path / "wc")
        apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0",
                    num_partitions=16)
        real_merge = ivm.merge_upsert

        def overtaken(*args, **kwargs):
            monkeypatch.setattr(ivm, "merge_upsert", real_merge)
            apply_delta(view, _delta(BATCHES[1]), "wkey", {"n": "sum"},
                        "b1", num_partitions=16)
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(ivm, "merge_upsert", overtaken)
        with pytest.raises(tableformat.ConcurrentWriteError):
            apply_delta(view, _delta(BATCHES[2]), "wkey", {"n": "sum"},
                        "b2", num_partitions=16)
        assert applied_ids(view) == ["b0", "b1"]
        assert _counts(view) == _recompute(BATCHES[:2])
        # the aborted batch retries cleanly on top of the racer
        apply_delta(view, _delta(BATCHES[2]), "wkey", {"n": "sum"}, "b2",
                    num_partitions=16)
        assert _counts(view) == _recompute(BATCHES)


@pytest.mark.usefixtures("ray_session")
class TestHLLView:
    """Delta-maintained distinct-count view: register max-folding across
    batches must equal the full-corpus sketch EXACTLY."""

    def test_view_estimate_equals_full_sketch(self, tmp_path):
        from ctinexus_ray.ops.sketch import (
            hll_distinct,
            hll_estimate_from_rows,
            hll_register_rows,
        )

        p = 10
        users = [f"user-{i % 37}" for i in range(500)]
        t = pa.table({"u": users, "i": list(range(500))})
        full = ray.data.from_arrow(t)
        want = full.select_columns(["u"])
        want_est = hll_distinct(want, "u", p=p).take_all()[0]["approx_distinct"]

        view = str(tmp_path / "hll")
        for s in range(3):
            part = ray.data.from_arrow(
                t.filter(pa.array([i % 3 == s for i in range(500)]))
            )
            delta = hll_register_rows(part, "u", p=p)
            apply_delta(view, delta, key_col="reg",
                        value_cols={"rho": "max"}, batch_id=f"s{s}")
        got_est = hll_estimate_from_rows(
            read_version(view).take_all(), p=p
        )
        assert got_est == want_est
        assert abs(got_est - 37) / 37 < 0.15  # sketch sanity

    def test_empty_first_delta(self, tmp_path):
        """An empty first batch must not wedge the view: the ledger
        records it and the next non-empty delta initializes the data."""
        view = str(tmp_path / "e")
        empty = ray.data.from_arrow(
            pa.table(
                {
                    "wkey": pa.array([], type=pa.int64()),
                    "word": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        )
        out0 = apply_delta(view, empty, "wkey", {"n": "sum"}, "b0")
        assert out0["applied"] is True
        out1 = apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b1")
        assert out1["applied"] is True
        got = {r["word"]: r["n"] for r in read_version(view).take_all()}
        want = Counter()
        for t in BATCHES[0]:
            want.update(t.split())
        assert got == dict(want)
        assert applied_ids(view) == ["b0", "b1"]
