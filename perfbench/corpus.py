"""Seeded synthetic CTI corpus in the Common-Crawl parquet shape.

The program under test only ever sees the parquet shards written here.
Properties the pipeline's cost depends on, and how they are set:

* named entities (actors, malware, tools, places) are drawn from fixed
  pools with Zipf-like popularity, so a few head entities recur across
  most reports (embedding-cache hits, hot canonicalization keys) while
  the tail is rare;
* IOCs (CVE ids, IPs, MD5 hashes) are unique per document, so every
  report also brings entities nobody has seen (cache misses, new keys);
* report length varies from 3 to 14 sentences (geometric), which moves
  the number of entities per report and with it the triple count, the
  EA similarity matrix and the number of link-prediction calls, up to
  the mock extractor's cap of 10 entities; past it, length still grows
  the prompts, hence tokens, extraction and LP prompt cost.

Shards are cached under the work directory keyed by (seed, shape); a
second run with the same seed reuses them, so generation stays out of
every timed region.
"""

from __future__ import annotations

import datetime
import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ctinexus_ray.sources.synth import CC_SCHEMA, make_html

_SYLLABLES = (
    "ka", "ven", "tor", "mi", "dra", "sol", "quen", "bar", "lys", "zen",
    "ox", "pha", "rin", "gul", "tesh", "nor", "vak", "ely", "cro", "dun",
)
_SECTORS = ("healthcare", "finance", "energy", "manufacturing", "education",
            "logistics", "telecom", "government")
_COUNTRIES = ("Germany", "Brazil", "Japan", "Canada", "Australia", "Kenya",
              "Norway", "Chile", "Vietnam", "Poland")
_EPOCH = datetime.datetime(2025, 1, 1, tzinfo=datetime.timezone.utc)
# part of the cache key: raise it whenever make_table's output changes
_GENERATION = 2


def _name_pool(n: int, rng: np.random.Generator) -> list[str]:
    """``n`` distinct capitalized pseudo-names of 3-4 syllables."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        k = int(rng.integers(3, 5))
        word = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), k))
        name = word.capitalize()
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


# pools are seed-independent: every seed draws from the same vocabulary,
# only popularity draws and IOCs change with the seed
_POOL_RNG = np.random.default_rng(20240901)
_ACTORS = [f"{n} Group" for n in _name_pool(400, _POOL_RNG)]
_MALWARE = _name_pool(1200, _POOL_RNG)
_TOOLS = _name_pool(200, _POOL_RNG)


class _Popularity:
    """Zipf-like draw over a pool: rank r has weight r**-s."""

    def __init__(self, pool: list[str], s: float = 1.1):
        self.pool = pool
        weights = np.arange(1, len(pool) + 1, dtype=np.float64) ** -s
        self.cdf = np.cumsum(weights / weights.sum())

    def pick(self, rng: np.random.Generator, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.pool[i] for i in np.minimum(idx, len(self.pool) - 1).tolist()]


_ACTOR_POP = _Popularity(_ACTORS)
_MALWARE_POP = _Popularity(_MALWARE)
_TOOL_POP = _Popularity(_TOOLS)


class _Iocs:
    """IOCs of one document; ``(doc, n)`` is unique within a corpus, so
    no two documents share an IOC."""

    def __init__(self, seed: int, doc: int):
        self.seed = seed
        self.doc = doc
        self.n = 0

    def _next(self) -> int:
        self.n += 1
        return self.doc * 16 + self.n

    def cve(self) -> str:
        return f"CVE-{2019 + self.seed % 7}-{10000 + self._next()}"

    def ip(self) -> str:
        k = self._next()
        return f"{11 + (k >> 24) % 200}.{(k >> 16) % 256}.{(k >> 8) % 256}.{k % 256}"

    def md5(self) -> str:
        import hashlib

        return hashlib.md5(f"{self.seed}:{self._next()}".encode()).hexdigest()


def _sentence(kind: int, actor: str, malware: str, tool: str, sector: str, country: str,
              iocs: _Iocs) -> str:
    if kind == 0:
        return f"{actor} deployed {malware} against {sector} networks in {country}."
    if kind == 1:
        return f"The operators of {malware} exploited {iocs.cve()} for initial access."
    if kind == 2:
        return f"{malware} beacons to {iocs.ip()} and stages payloads with {tool}."
    if kind == 3:
        return f"Analysts linked the sample {iocs.md5()} to {actor} and {malware}."
    if kind == 4:
        return f"{actor} moved laterally with {tool} across {sector} domain controllers."
    return f"Victims in {country} reported {malware} encrypting shared volumes."


def make_table(seed: int, n_docs: int, first_doc: int = 0) -> pa.Table:
    """``n_docs`` CC-shaped rows; a pure function of (seed, first_doc)."""
    rng = np.random.default_rng([seed, first_doc, n_docs])
    # every draw of the table at once: one numpy call per field, not per sentence
    n_sent = np.minimum(14, 2 + rng.geometric(0.22, n_docs)).tolist()
    total = sum(n_sent)
    fields = zip(
        rng.integers(6, size=total).tolist(),
        _ACTOR_POP.pick(rng, total),
        _MALWARE_POP.pick(rng, total),
        _TOOL_POP.pick(rng, total),
        [_SECTORS[k] for k in rng.integers(len(_SECTORS), size=total).tolist()],
        [_COUNTRIES[k] for k in rng.integers(len(_COUNTRIES), size=total).tolist()],
    )
    rows = []
    for i, n in zip(range(first_doc, first_doc + n_docs), n_sent):
        iocs = _Iocs(seed, i)
        text = " ".join(_sentence(*next(fields), iocs) for _ in range(n))
        rows.append(
            {
                "url": f"https://reports.example.org/s{seed}/{i:08d}",
                "warc_ts": _EPOCH + datetime.timedelta(seconds=i),
                "html": make_html(i, text),
                "text": text,
                "lang": "en",
            }
        )
    return pa.Table.from_pylist(rows, schema=CC_SCHEMA)


def shard_files(
    cache_dir: str | os.PathLike, seed: int, n_shards: int, docs_per_shard: int
) -> list[str]:
    """Write (or reuse) ``n_shards`` parquet shards of ``docs_per_shard``
    docs each and return their paths in shard order. Each shard is one
    row group, so one shard is one read block."""
    out = Path(cache_dir) / f"gen{_GENERATION}-seed{seed}-{n_shards}x{docs_per_shard}"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in range(n_shards):
        path = out / f"shard-{s:04d}.parquet"
        if not path.exists():
            table = make_table(seed, docs_per_shard, first_doc=s * docs_per_shard)
            tmp = path.with_suffix(".tmp")
            pq.write_table(table, tmp)
            tmp.rename(path)
        paths.append(str(path))
    return paths
