"""Incremental view maintenance (state/ivm.py): delta-maintained word
counts equal a full recompute, replayed batches are exactly-once, the
applied-batch ledger is atomic with the data commit, and racing folds
and compactions lose no update."""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pytest

import ray

from ctinexus_ray.state.ivm import apply_delta, read_view
from ctinexus_ray.state.tableformat import applied_ids

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


def _counts(view, version=None):
    return {r["word"]: r["n"] for r in
            read_view(view, "wkey", {"n": "sum"}, version).take_all()}


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
                value_cols={"n": "sum"}, batch_id=f"b{i}"
            )
            assert out["applied"] is True
        assert _counts(view) == _recompute(BATCHES)
        assert applied_ids(view) == ["b0", "b1", "b2"]

    def test_replay_is_exactly_once(self, tmp_path):
        view = str(tmp_path / "wc")
        for i, texts in enumerate(BATCHES):
            apply_delta(
                view, _delta(texts), key_col="wkey",
                value_cols={"n": "sum"}, batch_id=f"b{i}",
            )
        before = _counts(view)
        out = apply_delta(
            view, _delta(BATCHES[1]), key_col="wkey",
            value_cols={"n": "sum"}, batch_id="b1",
        )
        assert out["applied"] is False
        assert _counts(view) == before

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
        got = {r["k"]: (r["lo"], r["hi"]) for r in
               read_view(view, "k", {"lo": "min", "hi": "max"}).take_all()}
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
        assert _counts(view, version=1) == _recompute(BATCHES[:1])

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

    def test_concurrent_first_deltas_both_land(self, tmp_path, monkeypatch):
        """A first delta that lands between another first delta's ledger
        check and its append: both appends land, both ledger entries
        are present, and the counts are the sum."""
        from ctinexus_ray.state import ivm, tableformat

        view = str(tmp_path / "wc")
        real_applied = ivm.applied_ids

        def applied_then_race(table_dir):
            seen = real_applied(table_dir)
            monkeypatch.setattr(ivm, "applied_ids", real_applied)
            tableformat.write_dataset_version(
                table_dir, _delta(BATCHES[1]), "append", batch_ids=["other"]
            )
            return seen

        monkeypatch.setattr(ivm, "applied_ids", applied_then_race)
        out = apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        assert out["applied"] is True
        assert applied_ids(view) == ["other", "b0"]
        assert _counts(view) == _recompute(BATCHES[:2])

    def test_overtaken_ledger_only_commit_keeps_both_entries(
        self, tmp_path, monkeypatch
    ):
        """A ledger-only commit (a corpus version with no rows for the
        view) racing a delta's commit: both ledger entries survive, so
        a replay of either batch is recognized."""
        from ctinexus_ray.state import tableformat

        view = str(tmp_path / "wc")
        apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        real_latest = tableformat.latest_version

        def latest_then_race(table_dir):
            head = real_latest(table_dir)
            monkeypatch.setattr(tableformat, "latest_version", real_latest)
            apply_delta(view, _delta(BATCHES[1]), "wkey", {"n": "sum"},
                        "b1")
            return head

        monkeypatch.setattr(tableformat, "latest_version", latest_then_race)
        assert tableformat.commit_version(
            view, [], "append", batch_ids=["compact-v2"]
        ) == 3
        assert applied_ids(view) == ["b0", "b1", "compact-v2"]
        assert _counts(view) == _recompute(BATCHES[:2])

    def test_racing_folds_both_land(self, tmp_path, monkeypatch):
        """A fold that lands between another fold's ledger check and its
        append: appends of distinct batches commute, so both land, both
        ledger entries are present and the counts are the sum — no
        update is lost."""
        from ctinexus_ray.state import ivm

        view = str(tmp_path / "wc")
        apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        real_write = ivm.write_dataset_version

        def overtaken(*args, **kwargs):
            monkeypatch.setattr(ivm, "write_dataset_version", real_write)
            apply_delta(view, _delta(BATCHES[1]), "wkey", {"n": "sum"}, "b1")
            return real_write(*args, **kwargs)

        monkeypatch.setattr(ivm, "write_dataset_version", overtaken)
        out = apply_delta(view, _delta(BATCHES[2]), "wkey", {"n": "sum"}, "b2")
        assert out["applied"] is True
        assert applied_ids(view) == ["b0", "b1", "b2"]
        assert _counts(view) == _recompute(BATCHES)
        # a replay of either batch is recognized
        assert not apply_delta(view, _delta(BATCHES[1]), "wkey",
                               {"n": "sum"}, "b1")["applied"]

    def test_compaction_racing_an_append_gives_way(self, tmp_path, monkeypatch):
        """A compaction computed from version N aborts when an append
        lands first: the append's rows survive, and the next fold's
        compaction folds them into the base."""
        from ctinexus_ray.state import ivm, tableformat

        view = str(tmp_path / "wc")
        big = [" ".join(f"w{i}" for i in range(200))]
        apply_delta(view, _delta(["a"]), "wkey", {"n": "sum"}, "small")
        real_read = ivm.read_view

        def read_then_race(*args, **kwargs):
            monkeypatch.setattr(ivm, "read_view", real_read)
            tableformat.write_dataset_version(
                view, _delta(BATCHES[2]), "append", batch_ids=["racer"]
            )
            return real_read(*args, **kwargs)

        monkeypatch.setattr(ivm, "read_view", read_then_race)
        out = apply_delta(view, _delta(big), "wkey", {"n": "sum"}, "big")
        assert out["applied"] is True and out["compacted"] is None
        assert applied_ids(view) == ["small", "big", "racer"]
        want = _recompute([["a"], big, BATCHES[2]])
        assert _counts(view) == want
        modes = [tableformat.version_mode(view, v) for v in (1, 2, 3)]
        assert modes == ["append"] * 3

        out = apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b0")
        assert tableformat.version_mode(view, out["compacted"]) == "compact"
        assert len(tableformat.version_files(view, out["compacted"])) >= 1
        assert applied_ids(view) == ["small", "big", "racer", "b0"]
        assert _counts(view) == _recompute([["a"], big, BATCHES[2], BATCHES[0]])


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
            read_view(view, "reg", {"rho": "max"}).take_all(), p=p
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
        # only an empty delta so far (no file, so no schema): reads empty
        assert read_view(view, "wkey", {"n": "sum"}).count() == 0
        out1 = apply_delta(view, _delta(BATCHES[0]), "wkey", {"n": "sum"}, "b1")
        assert out1["applied"] is True
        assert _counts(view) == _recompute(BATCHES[:1])
        assert applied_ids(view) == ["b0", "b1"]
