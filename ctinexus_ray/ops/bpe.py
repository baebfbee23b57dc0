"""Distributed byte-pair-encoding (BPE) vocabulary training.

Sennrich, Haddow & Birch (2016), *Neural Machine Translation of Rare
Words with Subword Units* (arXiv:1508.07909): start from characters
plus an end-of-word marker, repeatedly merge the most frequent adjacent
symbol pair. The reference CTINexus tool consumes pretrained tokenizers
(litellm counts tokens server-side); a corpus-scale engine needs to
TRAIN the subword vocabulary too, so this module implements learn-BPE
as Ray Data stages:

- the corpus is scanned ONCE into distinct-word counts (the word table
  is vocabulary-sized, orders of magnitude smaller than the corpus);
- every merge iteration runs over that word table only: a per-batch
  pair-count combiner (O(distinct pairs per batch) rows moved, not
  O(symbols)) -> one small hash-partitioned agg -> per-batch top-1
  partials -> a driver argmax over <= #blocks tiny rows;
- the winning pair is applied by a vocabulary-sized ``map_batches``
  (broadcast as a plain closure arg — two strings), and the word table
  is re-materialized so per-iteration lineage stays O(1).

Tie-break is deterministic everywhere: max count, then lexicographically
smallest (left, right) — required for bit-stable merges across runs and
for the reference-implementation parity test.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

import ray
import ray.data

END_OF_WORD = "</w>"


def _pair_table(counter: Counter) -> pa.Table:
    ls, rs, ns = [], [], []
    for (l, r), n in counter.items():
        ls.append(l)
        rs.append(r)
        ns.append(n)
    return pa.Table.from_pydict(
        {
            "l": pa.array(ls, type=pa.string()),
            "r": pa.array(rs, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
        }
    )


def _char_pair_partials(batch: pa.Table) -> pa.Table:
    """Per-batch combiner for iteration-0 pair counts straight off the
    corpus: count words once (memoizes the per-word work across repeated
    tokens), then weight each distinct word's adjacent character pairs —
    plus the (last-char, </w>) boundary pair — by its occurrence count.
    Empty tokens contribute nothing (their only symbol is ``</w>``)."""
    from .textstats import _tokens

    wc: Counter = Counter()
    for t in batch.column("text").to_pylist():
        wc.update(_tokens(t or ""))
    pc: Counter = Counter()
    for w, n in wc.items():
        if not w:
            continue
        for a, b in zip(w, w[1:]):
            pc[(a, b)] += n
        pc[(w[-1], END_OF_WORD)] += n
    return _pair_table(pc)


def bpe_pair_counts(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Exact symbol-pair counts at BPE iteration 0 (characters +
    end-of-word marker), the quantity whose argmax drives the first
    merge. Corpus shuffles NOTHING: per-batch combiners emit (l, r, n)
    partials bounded by the batch's distinct pair count, then one
    hash-partitioned agg over pair-cardinality rows. SQL-expressible
    (substr explode + GROUP BY), so the driver query has an exact
    DuckDB oracle. Output: (l, r, n)."""
    from .groupagg import partitioned_agg

    partials = docs.map_batches(_char_pair_partials, batch_format="pyarrow")
    return partitioned_agg(
        partials, keys=["l", "r"], named_aggs={"n": ("n", "sum")}
    )


def _word_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct-word counts: (word, n). One corpus scan, one
    vocabulary-sized agg."""
    from .groupagg import partitioned_agg
    from .textstats import word_explode_batch

    partials = docs.map_batches(word_explode_batch, batch_format="pyarrow")
    return partitioned_agg(
        partials, keys=["word"], named_aggs={"n": ("n", "sum")}
    )


def _syms_pair_partials(batch: pa.Table) -> pa.Table:
    """Per-batch combiner over the word table's current symbol
    sequences: adjacent-pair counts weighted by word count."""
    pc: Counter = Counter()
    for syms, n in zip(
        batch.column("syms").to_pylist(), batch.column("n").to_pylist()
    ):
        for a, b in zip(syms, syms[1:]):
            pc[(a, b)] += n
    return _pair_table(pc)


def _top1_partial(batch: pa.Table) -> pa.Table:
    """At most one row per batch: the (l, r, n) winner under max-n /
    min-(l, r) — merged on the driver across <= #blocks partials."""
    if batch.num_rows == 0:
        return batch
    n = batch.column("n").to_numpy()
    best = int(n.max())
    at = np.flatnonzero(n == best)
    ls = batch.column("l").to_pylist()  # hoisted: converting the whole
    rs = batch.column("r").to_pylist()  # column per tied index is
    cand = sorted((ls[i], rs[i]) for i in at.tolist())  # O(ties x rows)
    l, r = cand[0]
    return pa.Table.from_pydict(
        {
            "l": pa.array([l], type=pa.string()),
            "r": pa.array([r], type=pa.string()),
            "n": pa.array([best], type=pa.int64()),
        }
    )


def _merge_syms(syms: list[str], l: str, r: str, new: str) -> list[str]:
    """Left-to-right non-overlapping merge of (l, r) -> new — the
    Sennrich apply rule ('aaa' under (a,a) merges the FIRST two)."""
    out: list[str] = []
    i = 0
    m = len(syms)
    while i < m:
        if i + 1 < m and syms[i] == l and syms[i + 1] == r:
            out.append(new)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_train(
    docs: ray.data.Dataset,
    n_merges: int = 30,
    min_frequency: int = 2,
) -> ray.data.Dataset:
    """Learn a BPE merge table from the corpus (Sennrich et al. 2016,
    learn_bpe): up to ``n_merges`` iterations of
    most-frequent-adjacent-pair merging over the distinct-word table,
    stopping early when the best pair's count falls below
    ``min_frequency`` (the reference implementation's default guard
    against memorizing hapax spellings).

    Scale shape: the corpus is read ONCE (word-count combiners); every
    iteration after that touches only the vocabulary-sized word table —
    a pair-count combiner map, one small shuffle over distinct pairs,
    and a two-string broadcast to apply the merge. The word table is
    re-materialized per iteration so lineage does not accumulate.
    Iterative argmax is not SQL-expressible, so the driver query is
    rows-only; parity is pinned by a test against an independent
    pure-Python learn-BPE with the identical tie-break.

    Output: (rank, l, r, n) — merge rules in application order.
    """
    words = _word_table(docs)

    def to_syms(batch: pa.Table) -> pa.Table:
        syms = [
            (list(w) + [END_OF_WORD]) if w else [END_OF_WORD]
            for w in batch.column("word").to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "syms": pa.array(syms, type=pa.list_(pa.string())),
                "n": batch.column("n"),
            }
        )

    vocab = words.map_batches(to_syms, batch_format="pyarrow").materialize()

    from .groupagg import partitioned_agg

    ranks: list[int] = []
    ls: list[str] = []
    rs: list[str] = []
    ns: list[int] = []
    for rank in range(n_merges):
        pairs = partitioned_agg(
            vocab.map_batches(_syms_pair_partials, batch_format="pyarrow"),
            keys=["l", "r"],
            named_aggs={"n": ("n", "sum")},
        )
        partials = pairs.map_batches(
            _top1_partial, batch_format="pyarrow"
        ).take_all()
        if not partials:
            break
        # deterministic driver merge of per-batch winners
        best = sorted(partials, key=lambda p: (-p["n"], p["l"], p["r"]))[0]
        if best["n"] < min_frequency:
            break
        l, r, n = best["l"], best["r"], int(best["n"])
        new = l + r

        def apply(batch: pa.Table, l=l, r=r, new=new) -> pa.Table:
            merged = [
                _merge_syms(s, l, r, new)
                for s in batch.column("syms").to_pylist()
            ]
            return pa.Table.from_pydict(
                {
                    "syms": pa.array(merged, type=pa.list_(pa.string())),
                    "n": batch.column("n"),
                }
            )

        vocab = vocab.map_batches(apply, batch_format="pyarrow").materialize()
        ranks.append(rank)
        ls.append(l)
        rs.append(r)
        ns.append(n)

    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "rank": pa.array(ranks, type=pa.int64()),
                "l": pa.array(ls, type=pa.string()),
                "r": pa.array(rs, type=pa.string()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )
    )


class BpeEncodeStage:
    """Actor-pool BPE application (Sennrich apply_bpe): state — the
    merge-rank dict and a word->subwords memo — is built ONCE per actor
    in ``__init__``; ``__call__`` encodes a batch. The memo is the whole
    trick at corpus scale: natural text reuses words, so the per-word
    merge loop runs once per DISTINCT word per actor, not per token.

    Apply rule: repeatedly merge the LOWEST-rank pair present in the
    symbol sequence (all occurrences, left-to-right non-overlapping)
    until no learned pair remains — the standard subword-nmt/HF order,
    pinned by a parity test against an independent reference.
    """

    def __init__(self, merges: list[tuple[str, str]]):
        self.ranks = {tuple(p): i for i, p in enumerate(merges)}
        self._memo: dict[str, int] = {}

    def encode_word(self, w: str) -> list[str]:
        syms = (list(w) + [END_OF_WORD]) if w else [END_OF_WORD]
        while len(syms) > 1:
            best_rank = None
            best_pair = None
            for a, b in zip(syms, syms[1:]):
                r = self.ranks.get((a, b))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, (a, b)
            if best_pair is None:
                break
            syms = _merge_syms(syms, best_pair[0], best_pair[1], best_pair[0] + best_pair[1])
        return syms

    def n_subwords(self, w: str) -> int:
        n = self._memo.get(w)
        if n is None:
            n = len(self.encode_word(w))
            self._memo[w] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .textstats import _tokens

        counts = []
        for t in batch.column("text").to_pylist():
            if t is None:
                counts.append(0)
                continue
            counts.append(sum(self.n_subwords(w) for w in _tokens(t)))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_subwords": pa.array(counts, type=pa.int64()),
            }
        )


def bpe_encode(
    docs: ray.data.Dataset,
    merges: list[tuple[str, str]],
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Subword-token counts per document under a trained merge table.
    The merge list is tiny (vocabulary growth, not corpus growth) and
    ships once per actor as a constructor arg — never per batch. The
    pool stays one CPU short of the session so the upstream read can
    still run. Output: (doc_id, n_subwords)."""
    cpus = int(ray.cluster_resources().get("CPU", 2))
    return docs.map_batches(
        BpeEncodeStage,
        fn_constructor_args=(merges,),
        batch_format="pyarrow",
        concurrency=max(1, min(concurrency, cpus - 1)),
    )
