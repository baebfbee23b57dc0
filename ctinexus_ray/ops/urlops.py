"""URL canonicalization + keep-latest-capture dedup.

A web crawl re-fetches the same page under many spellings (scheme/host
case, default ports, fragments, tracking params, shuffled query order)
and across many snapshots. The standard prep steps are:

  1. canonicalize every URL to one spelling, and
  2. keep exactly ONE capture per canonical URL — the latest.

The reference validates/normalizes single URLs for fetching
(`/root/reference/ctinexus/llm_processor.py:865-874` — scheme prepend +
structural check); this module is the corpus-scale counterpart: a
deterministic canonical form usable as a dedup/join key across 10^12
captures, plus the hash-partitioned keep-latest reduce.

Canonical form (documented, frozen — the key must never drift between
crawls or the incremental dedup breaks):

  * scheme and host lowercased (path/query stay case-sensitive)
  * default ports stripped (``:80`` for http, ``:443`` for https)
  * fragment dropped
  * tracking params dropped (names starting ``utm_`` or in
    ``fbclid/gclid/msclkid``)
  * remaining query params sorted bytewise by their full ``k=v`` text
    (a stable total order independent of crawler emission order)
  * empty path becomes ``/``
  * non-hierarchical strings (no ``://``) pass through unchanged

Like the extraction stage (E1), canonicalization is an inherently
per-string parse — the loop is pure ``str.partition`` slicing (no regex,
no urllib allocation churn) inside a ``map_batches`` task; URLs are
near-unique so memoization would not pay.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

_TRACKING_EXACT = frozenset({"fbclid", "gclid", "msclkid"})


def canonicalize_url(u: str) -> str:
    """Canonicalize one URL per the module contract."""
    scheme, sep, rest = u.partition("://")
    if not sep:
        return u
    scheme = scheme.lower()
    rest, _, _frag = rest.partition("#")
    # the authority ends at the first '/' OR '?' (a query can follow the
    # host directly with no path component)
    cut = len(rest)
    for ch in "/?":
        i = rest.find(ch)
        if i != -1 and i < cut:
            cut = i
    authority, pathq = rest[:cut], rest[cut:]
    authority = authority.lower()
    if scheme == "https" and authority.endswith(":443"):
        authority = authority[:-4]
    elif scheme == "http" and authority.endswith(":80"):
        authority = authority[:-3]
    path, qmark, query = pathq.partition("?")
    if not path:
        path = "/"
    if qmark:
        kept = sorted(
            p
            for p in query.split("&")
            if p
            and not (
                (name := p.split("=", 1)[0]).startswith("utm_")
                or name in _TRACKING_EXACT
            )
        )
        return (
            f"{scheme}://{authority}{path}?{'&'.join(kept)}"
            if kept
            else f"{scheme}://{authority}{path}"
        )
    return f"{scheme}://{authority}{path}"


def canonicalize_url_batch(
    batch: pa.Table, col: str = "url", out: str = "url"
) -> pa.Table:
    """Replace/append ``out`` with the canonical form of ``col`` —
    plug into ``ds.map_batches(..., batch_format="pyarrow")``."""
    urls = batch.column(col).to_pylist()
    canon = pa.array(
        [None if u is None else canonicalize_url(u) for u in urls],
        type=pa.string(),
    )
    if out in batch.column_names:
        return batch.set_column(batch.column_names.index(out), out, canon)
    return batch.append_column(out, canon)


def keep_latest_by_key(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    n_col: str = "n_dups",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Keep exactly one row per ``key`` — the one with the GREATEST
    ``order_cols`` tuple (latest capture wins; make the last order
    column a unique id so ties are impossible) — and append ``n_col`` =
    number of rows seen for that key.

    Scale shape: one hash shuffle on the key; per partition ONE
    vectorized sort + ``drop_duplicates`` over all keys that hashed
    there. All non-key columns ride along, so the survivor row keeps its
    full payload (html/text/metadata) without a second join."""
    from ctinexus_ray.ops.groupagg import hash_reduce

    def reduce_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [key, *order_cols],
            ascending=[True] + [False] * len(order_cols),
            kind="mergesort",
        )
        sizes = g.groupby(key, sort=False)[key].transform("size")
        g = g.assign(**{n_col: sizes.astype("int64")})
        return g.drop_duplicates(key, keep="first")

    return hash_reduce(
        ds, [key], reduce_partition, num_partitions=num_partitions
    )
