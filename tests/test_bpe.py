"""BPE training parity: the distributed learner must reproduce an
independent pure-Python Sennrich learn-BPE bit-for-bit (same tie-break),
and the iteration-0 pair counts must match brute force."""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pytest

import ray.data

from ctinexus_ray.ops.bpe import (
    END_OF_WORD,
    _merge_syms,
    bpe_pair_counts,
    bpe_train,
)


def _docs(texts: list[str]) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )


def _ref_pair_counts(texts: list[str]) -> Counter:
    pc: Counter = Counter()
    for t in texts:
        for w in (t or "").strip().split():
            for a, b in zip(w, w[1:]):
                pc[(a, b)] += 1
            pc[(w[-1], END_OF_WORD)] += 1
    return pc


def _ref_learn_bpe(texts: list[str], n_merges: int, min_frequency: int = 2):
    """Independent reference: Sennrich learn_bpe over a word-count dict,
    max count then lexicographically smallest pair."""
    vocab: Counter = Counter()
    for t in texts:
        for w in (t or "").strip().split():
            vocab[tuple(list(w) + [END_OF_WORD])] += 1
    merges = []
    for _ in range(n_merges):
        pc: Counter = Counter()
        for syms, n in vocab.items():
            for a, b in zip(syms, syms[1:]):
                pc[(a, b)] += n
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), n = best
        if n < min_frequency:
            break
        merges.append((l, r, n))
        new_vocab: Counter = Counter()
        for syms, cnt in vocab.items():
            new_vocab[tuple(_merge_syms(list(syms), l, r, l + r))] += cnt
        vocab = new_vocab
    return merges


class TestMergeRule:
    def test_left_to_right_nonoverlapping(self):
        # 'aaa' under (a, a): merge the FIRST two, then the lone 'a' stays
        assert _merge_syms(list("aaa"), "a", "a", "aa") == ["aa", "a"]
        assert _merge_syms(list("aaaa"), "a", "a", "aa") == ["aa", "aa"]

    def test_no_match_is_identity(self):
        assert _merge_syms(list("abc"), "x", "y", "xy") == ["a", "b", "c"]


class TestPairCounts:
    def test_matches_brute_force(self, ray_session):
        texts = ["the cat sat", "the bat", "", "  ", "a", None]
        got = {
            (r["l"], r["r"]): r["n"]
            for r in bpe_pair_counts(_docs(texts)).take_all()
        }
        want = dict(_ref_pair_counts([t for t in texts if t is not None]))
        # null text tokenizes to nothing (SQL unnest(NULL) semantics)
        assert got == {k: v for k, v in want.items()}

    def test_single_char_word_only_boundary(self, ray_session):
        got = {
            (r["l"], r["r"]): r["n"]
            for r in bpe_pair_counts(_docs(["a a a"])).take_all()
        }
        assert got == {("a", END_OF_WORD): 3}


class TestBpeTrain:
    def test_parity_with_reference(self, ray_session):
        texts = [
            "low lower lowest low low",
            "new newer newest new newer",
            "wide wider widest wide",
            "low newer wide lowest",
        ] * 3
        got = [
            (r["l"], r["r"], r["n"])
            for r in sorted(bpe_train(_docs(texts), n_merges=12).take_all(),
                            key=lambda r: r["rank"])
        ]
        assert got == _ref_learn_bpe(texts, n_merges=12)

    def test_min_frequency_stops(self, ray_session):
        # every pair is unique -> nothing reaches min_frequency=2
        out = bpe_train(_docs(["abc"]), n_merges=5).take_all()
        assert out == []

    def test_merge_ranks_are_dense(self, ray_session):
        rows = bpe_train(_docs(["aa aa aa bb bb"]), n_merges=4).take_all()
        ranks = sorted(r["rank"] for r in rows)
        assert ranks == list(range(len(rows)))


def _ref_encode(w: str, merges: list[tuple[str, str]]) -> list[str]:
    """Independent apply_bpe reference: repeatedly merge the lowest-rank
    pair present (all occurrences, left-to-right)."""
    ranks = {p: i for i, p in enumerate(merges)}
    syms = (list(w) + [END_OF_WORD]) if w else [END_OF_WORD]
    while len(syms) > 1:
        present = [(ranks[p], p) for p in zip(syms, syms[1:]) if p in ranks]
        if not present:
            break
        _, (l, r) = min(present)
        syms = _merge_syms(syms, l, r, l + r)
    return syms


class TestBpeEncode:
    def test_parity_with_reference_apply(self, ray_session):
        from ctinexus_ray.ops.bpe import BpeEncodeStage, bpe_encode

        texts = [
            "low lower lowest low low",
            "new newer newest new newer",
            "wide wider widest wide",
            "low newer wide lowest",
        ] * 3
        merges = [
            (r["l"], r["r"])
            for r in sorted(
                bpe_train(_docs(texts), n_merges=12).take_all(),
                key=lambda r: r["rank"],
            )
        ]
        stage = BpeEncodeStage(merges)
        for w in {w for t in texts for w in t.split()}:
            assert stage.encode_word(w) == _ref_encode(w, merges), w
        got = {
            r["doc_id"]: r["n_subwords"]
            for r in bpe_encode(_docs(texts), merges).take_all()
        }
        want = {
            i: sum(len(_ref_encode(w, merges)) for w in t.split())
            for i, t in enumerate(texts)
        }
        assert got == want

    def test_zero_merges_counts_symbols(self, ray_session):
        from ctinexus_ray.ops.bpe import bpe_encode

        # no merges: every word costs len(word) chars + </w>
        got = bpe_encode(_docs(["ab c"]), []).take_all()
        assert got == [{"doc_id": 0, "n_subwords": (2 + 1) + (1 + 1)}]

    def test_apply_order_is_rank_not_position(self, ray_session):
        from ctinexus_ray.ops.bpe import BpeEncodeStage

        # rank 0 = (b, c) merges FIRST even though (a, b) appears earlier
        stage = BpeEncodeStage([("b", "c"), ("a", "b")])
        assert stage.encode_word("abc") == ["a", "bc", END_OF_WORD]


_ENCODE_PARQUET = """
import sys
import pyarrow as pa, pyarrow.parquet as pq, ray, ray.data
from ctinexus_ray.ops.bpe import bpe_encode
pq.write_table(pa.table({"doc_id": list(range(64)),
                         "text": ["low lower lowest"] * 64}), sys.argv[1])
ray.init(address="local", num_cpus=4, include_dashboard=False)
rows = bpe_encode(ray.data.read_parquet(sys.argv[1]), [("l", "o")]).take_all()
print(sorted(r["n_subwords"] for r in rows)[0], len(rows))
"""


class TestBpeEncodeCpuBound:
    def test_read_parquet_source_finishes_on_four_cpus(self, tmp_path):
        """A 4-actor pool on a 4-CPU session once took every CPU, so the
        upstream ReadParquet task never ran and the encode hung. Own
        session in a child process, so a hang fails by timeout here
        without wedging the shared test session."""
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", _ENCODE_PARQUET, str(tmp_path / "d.parquet")],
            capture_output=True, text=True, timeout=180, cwd=repo,
            env={**os.environ, "RAY_ADDRESS": "", "PYTHONPATH": repo},
        )
        assert out.returncode == 0, out.stderr[-2000:]
        # "low lower lowest" with the (l, o) merge: 3 + 5 + 6 symbols
        assert out.stdout.split()[-2:] == ["14", "64"]
