"""Distributed edit-distance self-join (entity resolution / record
linkage blocking) via FastSS deletion neighborhoods.

Bocek, Hunt & Stiller (2007), *Fast Similarity Search in Large
Dictionaries* (FastSS), later popularized as SymSpell: for strings a, b
with ``levenshtein(a, b) <= d``, the depth-``d`` deletion neighborhoods
``U_d(a)`` and ``U_d(b)`` intersect — deleting at most ``d`` characters
from each side reaches a common string. So exact-match blocking on
deletion variants is a SOUND and COMPLETE candidate generator for a
bounded-distance join: no a-priori length/prefix band heuristics, no
missed pairs. Candidates are then verified with a banded Levenshtein DP
(O(d * min_len) per pair, early exit when a whole band row exceeds d).

The reference CTINexus canonicalizes entity mentions by exact text and
embedding similarity (/root/reference/ctinexus/graph_constructor.py);
a corpus-scale KG needs typo-tolerant alignment too, which is this op.

Scale shape:
- variant explosion is per-row and bounded: |U_d(s)| <= C(L, d) + ... ~
  (L^d / d!) — at d=1 that is L+1 rows per string, at d=2 ~ L^2/2. This
  op targets SHORT entity-name strings (tens of chars); for long texts
  use the MinHash path (ops/dedup.py), where the blocking cost is
  independent of document length.
- ONE hash-partitioned shuffle on the 64-bit variant hash co-locates
  each block; pair generation is a vectorized pandas self-merge per
  partition (singleton blocks eliminated vectorized), verify runs
  inside the same task, and a final pair-keyed distinct removes the
  cross-block duplicates (a pair can share several variants).
- names ride along with the variant rows (short strings, bounded
  fan-out) so verification needs NO extra text join.
- no silent caps: ``max_bucket`` is opt-in and LOGS when it engages —
  the default emits every true pair, keeping the exact-SQL contract.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

logger = logging.getLogger(__name__)


def deletion_variants(s: str, d: int) -> set[str]:
    """All strings reachable from ``s`` by 0..d single-character
    deletions (the FastSS indexing set, including ``s`` itself)."""
    out = {s}
    frontier = {s}
    for _ in range(d):
        nxt: set[str] = set()
        for t in frontier:
            for i in range(len(t)):
                nxt.add(t[:i] + t[i + 1 :])
        frontier = nxt - out
        out |= frontier
    return out


def levenshtein_within(a: str, b: str, d: int) -> int | None:
    """Banded Levenshtein: the exact distance if it is <= ``d``, else
    None. Only the |i-j| <= d diagonal band is computed and the DP exits
    as soon as a full band row exceeds ``d``."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > d:
        return None
    big = d + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [big] * (lb + 1)
        if i <= big:
            cur[0] = i
        lo = max(1, i - d)
        hi = min(lb, i + d)
        # column 0 (b exhausted: j=0 is inside the band iff i <= d) must
        # seed `best`, or an empty/short b kills the row spuriously
        best = cur[0] if i <= d else big
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            v = prev[j - 1] + cost
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if cur[j - 1] + 1 < v:
                v = cur[j - 1] + 1
            cur[j] = v
            if v < best:
                best = v
        if best > d:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= d else None


def edit_distance_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    max_dist: int = 1,
    num_partitions: int | None = None,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """All id pairs (id_a < id_b) whose ``text_col`` values are within
    Levenshtein distance ``max_dist``, with the exact distance.

    Output: (id_a:int64, id_b:int64, dist:int64). Exact — equivalent to
    the quadratic SQL ``JOIN ... ON levenshtein(a, b) <= d`` — but the
    corpus is touched once and only variant-hash blocks co-locate.

    ``max_bucket`` (opt-in) truncates degenerate blocks to the smallest
    ``max_bucket`` ids and LOGS; leaving it None (default) preserves the
    exact contract.
    """
    from ctinexus_ray.ops.dedup import hash64_strings
    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    sel = ds.select_columns([id_col, text_col])
    # variant fan-out multiplies the row count ~L^d/d!; the exploded
    # stream carries no size metadata, so size off the input and let
    # the explosion ride (short strings)
    num_partitions = num_partitions or derive_num_partitions(sel)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id: list[int] = []
        out_txt: list[str] = []
        variants: list[str] = []
        for i, t in zip(ids, texts):
            if t is None:
                continue
            for v in deletion_variants(t, max_dist):
                out_id.append(i)
                out_txt.append(t)
                variants.append(v)
        vh = (hash64_strings(pa.array(variants, type=pa.string())) >> np.uint64(1)).view(
            np.int64
        ) if variants else np.array([], dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "vh": pa.array(vh, type=pa.int64()),
                "doc_id": pa.array(out_id, type=pa.int64()),
                "txt": pa.array(out_txt, type=pa.string()),
            }
        )

    empty = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "dist": pd.Series([], dtype="int64"),
        }
    )

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["vh", "doc_id"]).sort_values(
            ["vh", "doc_id"], kind="mergesort"
        )
        sizes = g.groupby("vh")["doc_id"].transform("size")
        g = g[sizes >= 2]
        if not len(g):
            return empty
        if max_bucket is not None:
            before = len(g)
            g = g[g.groupby("vh").cumcount() < max_bucket]
            if len(g) < before:
                logger.warning(
                    "edit_distance_pairs: max_bucket=%d engaged, dropped "
                    "%d block rows — output is no longer exact",
                    max_bucket,
                    before - len(g),
                )
        keep = ["vh", "doc_id", "txt"]
        m = g[keep].merge(g[keep], on="vh", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        # a pair can share many variants within this partition: verify once
        m = m.drop_duplicates(["doc_id_a", "doc_id_b"])
        if not len(m):
            return empty
        dists = np.fromiter(
            (
                -1 if (r := levenshtein_within(x, y, max_dist)) is None else r
                for x, y in zip(m["txt_a"].to_numpy(), m["txt_b"].to_numpy())
            ),
            dtype=np.int64,
            count=len(m),
        )
        ok = dists >= 0
        if not ok.any():
            return empty
        return pd.DataFrame(
            {
                "id_a": m["doc_id_a"].to_numpy(dtype=np.int64)[ok],
                "id_b": m["doc_id_b"].to_numpy(dtype=np.int64)[ok],
                "dist": dists[ok],
            }
        )

    pairs = hash_reduce(
        sel.map_batches(explode, batch_format="pyarrow"),
        ["vh"], block_pairs, num_partitions=num_partitions,
    )

    # cross-partition distinct on the pair key; dist is pair-determined,
    # so first-wins is exact (same route as dedup.distinct_pairs)
    def drop_dup(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["id_a", "id_b"])
        return pd.DataFrame(
            {
                "id_a": out["id_a"].astype("int64").values,
                "id_b": out["id_b"].astype("int64").values,
                "dist": out["dist"].astype("int64").values,
            }
        )

    return hash_reduce(pairs, ["id_a", "id_b"], drop_dup)
