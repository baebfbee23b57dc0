"""Hyperlink extraction + host-level link graph over crawled HTML.

The input table is Common-Crawl-shaped (url, html, ...) — see
BASELINE.json's input_hint. Beside the text path (extraction E1), the
OTHER thing a 10^12-page crawl yields is the link graph: which page
links where, aggregated to host->host edges for ranking (PageRank /
TrustRank over hosts), crawl frontier scheduling, and spam-cluster
detection. The reference operates on one fetched page at a time
(`/root/reference/ctinexus/llm_processor.py:865-874` fetches a single
URL); this module is the corpus-scale sibling: every page's hrefs in
one stateless pass, then one count reduce.

Link semantics (documented, frozen — the SQL twin replays them):

  * hrefs are ``href="..."`` attributes (double-quoted form; the
    leftmost non-overlapping matches, RE2-compatible pattern so DuckDB
    ``regexp_extract_all(html, pattern, 1)`` sees the identical list)
  * absolute http(s) links pass through unchanged
  * scheme-relative ``//host/path`` links inherit the page's scheme
  * root-relative ``/path`` links resolve against the page's
    ``scheme://host``
  * everything else (mailto:, javascript:, fragment-only, dotted
    relative paths, empty) is DROPPED — path-relative resolution needs
    RFC 3986 dot-segment removal, which no SQL twin can replay; a
    crawl frontier treats those as same-page noise anyway
  * ``idx`` numbers the KEPT links 1-based in document order

Scale shape: extraction is a stateless map (regex scanning is
inherently sequential per string — the per-row finditer mirrors
``ops/semistruct.py regex_extract_all``); resolution and host parsing
are vectorized Arrow kernels over the exploded matches; the host graph
is ONE (src_host, dst_host)-keyed count reduce with map-side combine,
so the shuffle ships (src, dst, n) partials, never raw link rows.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# Double-quoted href attributes. Group 1 is the link target. The
# pattern is RE2-compatible (no lookaround/backrefs) so DuckDB's
# regexp_extract_all computes the identical match list.
HREF_PATTERN = r'href="([^"]*)"'

# scheme://host of a page or link; used for both resolution and the
# host graph. Named group for pyarrow's extract_regex.
_ORIGIN_PATTERN = r"^(?P<scheme>https?)://(?P<host>[^/]+)"


def _origins(urls: pa.Array) -> tuple[pa.Array, pa.Array]:
    """Vectorized (scheme, host) of each url; nulls where not http(s)."""
    st = pc.extract_regex(urls, _ORIGIN_PATTERN)
    return pc.struct_field(st, "scheme"), pc.struct_field(st, "host")


def resolve_links(raw: pa.Array, page_scheme: pa.Array, page_host: pa.Array) -> pa.Array:
    """Resolve raw href values against their page's origin per the
    module contract. Returns null for dropped links. Fully vectorized
    (three prefix tests + two string assemblies)."""
    raw = raw.cast(pa.string()) if raw.type != pa.string() else raw
    is_abs = pc.or_(
        pc.starts_with(raw, pattern="http://"),
        pc.starts_with(raw, pattern="https://"),
    )
    is_proto_rel = pc.starts_with(raw, pattern="//")
    is_root_rel = pc.and_(
        pc.starts_with(raw, pattern="/"), pc.invert(is_proto_rel)
    )
    proto_form = pc.binary_join_element_wise(
        page_scheme, ":", raw, "", null_handling="emit_null"
    )
    root_form = pc.binary_join_element_wise(
        page_scheme, "://", page_host, raw, "", null_handling="emit_null"
    )
    out = pc.if_else(
        is_abs,
        raw,
        pc.if_else(
            is_proto_rel,
            proto_form,
            pc.if_else(is_root_rel, root_form, pa.nulls(len(raw), pa.string())),
        ),
    )
    return out


def extract_links(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """Explode each page into its resolved outbound links:
    (id, url, idx, link), idx 1-based over the KEPT links in document
    order. Pages with NULL html or zero kept links contribute nothing
    (SQL unnest semantics). The html column may be string or binary
    (binary decodes as UTF-8 with replacement — crawl payloads are not
    always valid UTF-8, and a replacement char can never create a new
    ``href="`` byte sequence)."""
    rx = re.compile(HREF_PATTERN)

    def explode(batch: pa.Table) -> pa.Table:
        ids_in = batch.column(id_col).to_pylist()
        urls_in = batch.column(url_col).to_pylist()
        html_in = batch.column(html_col).to_pylist()
        ids, urls, raws = [], [], []
        for i, u, h in zip(ids_in, urls_in, html_in):
            if h is None:
                continue
            if isinstance(h, (bytes, bytearray)):
                h = h.decode("utf-8", errors="replace")
            for m in rx.finditer(h):
                ids.append(i)
                urls.append(u)
                raws.append(m.group(1))
        url_arr = pa.array(urls, type=pa.string())
        scheme, host = _origins(url_arr)
        link = resolve_links(pa.array(raws, type=pa.string()), scheme, host)
        t = pa.Table.from_pydict(
            {
                id_col: pa.array(ids, type=batch.schema.field(id_col).type),
                url_col: url_arr,
                "link": link,
            }
        )
        t = t.filter(pc.is_valid(t.column("link")))
        # idx: 1-based rank among kept links per doc. Explode order is
        # document order and one page's matches never split across
        # batches, so a per-batch grouped cumsum is globally correct.
        doc_ids = t.column(id_col).to_numpy(zero_copy_only=False)
        idx = (
            pd.Series(np.ones(len(doc_ids), dtype=np.int64))
            .groupby(doc_ids, sort=False)
            .cumsum()
            .to_numpy()
        )
        return t.append_column("idx", pa.array(idx, type=pa.int64()))

    return ds.select_columns([id_col, url_col, html_col]).map_batches(
        explode, batch_format="pyarrow"
    )


def path_prefix_counts(
    pages: ray.data.Dataset,
    url_col: str = "url",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Pages per (host, path-prefix) — the crawl-budget / site-section
    rollup: every URL contributes one count to each cumulative prefix
    of its path, root ``'/'`` included (``/a/b/c`` counts under ``/``,
    ``/a``, ``/a/b``, ``/a/b/c``). Empty path segments collapse
    (``//`` and trailing slashes do not mint distinct prefixes); query
    strings and fragments are not part of the path. URLs without an
    http(s) origin are skipped.

    Scale shape: the prefix explode is a stateless map (per-string
    split loop, same sequential-per-string stance as ``extract_links``)
    with a per-batch count combine, then ONE (host, prefix)-keyed sum
    reduce — the shuffle ships count partials, never raw page rows.
    Depth is naturally bounded by real URL structure; a hostile
    million-segment URL explodes only its own row."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    rx = re.compile(r"^https?://([^/]+)(/[^?#]*)?")

    def explode(batch: pa.Table) -> pa.Table:
        hosts, prefixes = [], []
        for u in batch.column(url_col).to_pylist():
            if u is None:
                continue
            m = rx.match(u)
            if not m:
                continue
            host = m.group(1)
            path = m.group(2) or "/"
            segs = [s for s in path.split("/") if s]
            hosts.append(host)
            prefixes.append("/")
            for i in range(1, len(segs) + 1):
                hosts.append(host)
                prefixes.append("/" + "/".join(segs[:i]))
        part = (
            pd.DataFrame({"host": hosts, "prefix": prefixes})
            .groupby(["host", "prefix"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(part, preserve_index=False)

    partials = pages.select_columns([url_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    return partitioned_agg(
        partials,
        ["host", "prefix"],
        {"n_pages": ("n", "sum")},
        num_partitions=num_partitions,
    )


def host_link_graph(
    links: ray.data.Dataset,
    url_col: str = "url",
    link_col: str = "link",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Aggregate resolved links to host->host edges:
    (src_host, dst_host, n_links). Map-side combine (per-batch pandas
    value_counts) so the shuffle ships (src, dst, n) partials; one
    (src, dst)-keyed sum reduce. Self-loops (intra-host links) are
    kept — dropping them is a one-line filter the caller owns."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    def to_hosts(batch: pa.Table) -> pa.Table:
        _, src_host = _origins(batch.column(url_col).combine_chunks())
        _, dst_host = _origins(batch.column(link_col).combine_chunks())
        part = (
            pd.DataFrame(
                {
                    "src_host": src_host.to_pandas(),
                    "dst_host": dst_host.to_pandas(),
                }
            )
            .groupby(["src_host", "dst_host"], sort=False, dropna=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(part, preserve_index=False)

    partials = links.map_batches(to_hosts, batch_format="pyarrow")
    agg = partitioned_agg(
        partials,
        ["src_host", "dst_host"],
        {"n_links": ("n", "sum")},
        num_partitions=num_partitions,
    )
    return agg


# ---------------------------------------------------------------------------
# robots.txt politeness (RFC 9309)
# ---------------------------------------------------------------------------


def parse_robots(robots_txt: str, agent: str = "*") -> dict:
    """Parse one robots.txt into the matched user-agent group's rules.

    RFC 9309 subset (the crawl-politeness contract):
      * groups = consecutive ``User-agent:`` lines + their rules; the
        group whose agent PRODUCT TOKEN matches ``agent``'s product
        token wins, else the ``*`` group — RFC 9309 §2.2.1 matches on
        the product token, so a caller passing ``"FooBot/1.0"`` (and a
        robots file writing ``User-agent: FooBot/2.1``) both resolve
        to ``foobot``; comments (#) stripped; field names
        case-insensitive;
      * ``Allow`` / ``Disallow`` values are path patterns with ``*``
        wildcards and an optional ``$`` end anchor; an EMPTY Disallow
        means "allow all" (no rule);
      * ``Crawl-delay`` (non-standard but ubiquitous) is captured.

    Returns ``{"rules": [(allow: bool, pattern: str)], "crawl_delay":
    float | None, "sitemaps": [str]}`` — ``Sitemap:`` directives are
    collected from the WHOLE file regardless of groups (RFC 9309 §2.3:
    the sitemap line is not group-scoped), linking the politeness file
    to crawl discovery (``sources/sitemap.py``).
    """
    groups: list = []  # {"agents": set, "rules": [(allow, pat)], "delay"}
    sitemaps: list = []
    cur = None
    last_was_agent = False
    for raw in robots_txt.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "sitemap":
            if value:
                sitemaps.append(value)
            continue
        if field == "user-agent":
            if not last_was_agent or cur is None:
                cur = {"agents": set(), "rules": [], "delay": None}
                groups.append(cur)
            cur["agents"].add(value.split("/", 1)[0].strip().lower())
            last_was_agent = True
            continue
        last_was_agent = False
        if cur is None:  # rules before any User-agent line: ignored
            continue
        if field in ("allow", "disallow"):
            if value:  # empty Disallow == allow all: no rule
                cur["rules"].append((field == "allow", value))
        elif field == "crawl-delay":
            try:
                cur["delay"] = float(value)
            except ValueError:
                pass
    a = agent.split("/", 1)[0].strip().lower()
    sel = [g for g in groups if a in g["agents"]]
    if not sel:  # no specific group: fall back to the * group(s)
        sel = [g for g in groups if "*" in g["agents"]]
    rules = [r for g in sel for r in g["rules"]]
    delay = next((g["delay"] for g in sel if g["delay"] is not None), None)
    return {"rules": rules, "crawl_delay": delay, "sitemaps": sitemaps}


def normalize_authority(netloc: str) -> str:
    """Canonicalize a URL authority for robots-index keys: strip
    userinfo (``user:pw@``), lowercase (DNS names are case-insensitive)
    — but KEEP the ``:port``: RFC 9309 scopes robots.txt per authority
    including the port, so ``example.com`` and ``example.com:8443`` may
    legitimately carry different policies and must not collapse."""
    return netloc.rsplit("@", 1)[-1].strip().lower()


def normalize_host(netloc: str) -> str:
    """``normalize_authority`` with the ``:port`` stripped — the
    FALLBACK lookup key: a page on ``host3.example.com:8080`` whose
    crawl fetched only ``host3.example.com``'s robots.txt should hit
    those rules rather than silently defaulting to allowed.
    ``[::1]:8080`` keeps its brackets so IPv6 literals stay intact."""
    host = normalize_authority(netloc)
    if host.startswith("["):  # IPv6 literal: port follows the bracket
        return host.split("]", 1)[0] + "]"
    return host.split(":", 1)[0]


def _rule_regex(pattern: str):
    """Compile a robots path pattern: ``*`` matches anything, a single
    trailing ``$`` anchors the end; everything else is literal."""
    import re as _re

    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    rx = "".join(".*" if ch == "*" else _re.escape(ch) for ch in body)
    return _re.compile(rx + ("$" if anchored else ""))


class _RobotsIndex:
    """Per-host compiled rule sets, built once and broadcast."""

    def __init__(self, per_host: dict):
        self.per_host: dict = {}
        for h, parsed in per_host.items():
            key = normalize_authority(h)
            if key in self.per_host:
                # two robots rows collapsing to one authority would be
                # last-writer-wins politeness — refuse loudly instead
                raise ValueError(
                    f"robots index: host {h!r} normalizes to {key!r}, "
                    "which another row already claimed — dedupe the "
                    "robots side by authority first"
                )
            self.per_host[key] = (
                [
                    (allow, len(pat), _rule_regex(pat))
                    for allow, pat in parsed["rules"]
                ],
                parsed["crawl_delay"],
            )

    def allowed(self, host: str, path: str) -> bool:
        # exact authority (incl. port) first — RFC 9309 scope — then
        # the bare-host fallback for pages on a port whose crawl only
        # fetched the default-port robots.txt
        entry = self.per_host.get(normalize_authority(host))
        if entry is None:
            entry = self.per_host.get(normalize_host(host))
        if entry is None:
            return True  # no robots.txt: everything allowed
        best_len, best_allow = -1, True
        for allow, plen, rx in entry[0]:
            if rx.match(path) and (
                plen > best_len or (plen == best_len and allow)
            ):
                # longest pattern wins; Allow wins exact-length ties
                best_len, best_allow = plen, allow
        return best_allow


def robots_allowed(
    pages: "ray.data.Dataset",
    robots: "ray.data.Dataset",
    agent: str = "*",
    max_hosts: int = 2_000_000,
) -> "ray.data.Dataset":
    """Crawl-politeness filter: attach ``allowed`` (RFC 9309 longest-
    match verdict for ``agent``) to every page row by (host, path) of
    its ``url`` column. ``robots`` is (host, robots_txt) —
    host-cardinality, so it BROADCASTS: parsed+compiled once on the
    driver, ``ray.put`` once, read per task; above ``max_hosts`` this
    refuses loudly (shard the crawl by host range upstream, or port to
    a left ``hash_join`` keyed on host).

    Pages with unparseable urls (no host) and hosts with no robots row
    are allowed — the crawl default."""
    n_hosts = robots.count()
    if n_hosts > max_hosts:
        raise ValueError(
            f"robots side has {n_hosts} hosts > max_hosts={max_hosts}; "
            "shard by host range or raise the cap explicitly"
        )
    per_host = {
        r["host"]: parse_robots(r["robots_txt"] or "", agent)
        for r in robots.take_all()
    }
    idx_ref = ray.put(_RobotsIndex(per_host))

    def mark(batch: pa.Table) -> pa.Table:
        idx = ray.get(idx_ref)
        urls = batch.column("url").to_pylist()
        out = np.empty(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            u = u or ""
            rest = u.split("://", 1)[1] if "://" in u else ""
            host, _, path = rest.partition("/")
            out[i] = idx.allowed(host, "/" + path)
        return batch.append_column("allowed", pa.array(out, type=pa.bool_()))

    return pages.map_batches(mark, batch_format="pyarrow")
