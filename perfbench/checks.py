"""Output checks. Each raises ``CheckFailed`` on the first mismatch;
the benchmark then exits non-zero without printing a result."""

from __future__ import annotations

import collections
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def read_parts(path) -> pa.Table:
    """Every ``*.parquet`` under ``path`` as one table (sidecars and
    manifests are skipped)."""
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")
    )
    return pa.concat_tables(pq.read_table(f) for f in files)


def docs_complete(docs_kg: pa.Table, inputs: list[str]) -> None:
    """Every input url appears in docs_kg exactly once."""
    want = collections.Counter(
        u for f in inputs for u in pq.read_table(f, columns=["url"]).column("url").to_pylist()
    )
    got = collections.Counter(docs_kg.column("url").to_pylist())
    _require(got == want, f"docs_kg urls differ from the input: {sum((want - got).values())} "
                          f"missing, {sum((got - want).values())} extra")


def expected_docs_kg(inputs: list[str], columns: list[str]) -> pa.Table:
    """docs_kg of ``inputs`` computed in this process by the same public
    stages with the in-process mock provider, sorted by url."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import default_demos
    from ctinexus_ray.sources.synth import CC_SCHEMA
    from ctinexus_ray.stages.extract import extract_batch
    from ctinexus_ray.stages.kg import KGDocStage

    config = PipelineConfig()
    stage = KGDocStage(config=config, demos=default_demos(config))
    parts = [
        stage(extract_batch(pq.read_table(f, columns=list(CC_SCHEMA.names)))).select(columns)
        for f in inputs
    ]
    return pa.concat_tables(parts).sort_by("url")


def docs_kg_equal(docs_kg: pa.Table, expected: pa.Table) -> None:
    got = docs_kg.select(expected.column_names).sort_by("url")
    _require(got.num_rows == expected.num_rows, "docs_kg row count differs from the mock run")
    for name in expected.column_names:
        a, b = got.column(name), expected.column(name).cast(got.schema.field(name).type)
        if not a.equals(b):
            bad = next(i for i, (x, y) in enumerate(zip(a.to_pylist(), b.to_pylist())) if x != y)
            raise CheckFailed(
                f"docs_kg column {name} differs from the mock run at url "
                f"{got.column('url')[bad].as_py()}"
            )


def sampled_rows(docs_kg: pa.Table, inputs: list[str], every: int) -> int:
    """Every ``every``-th document by url: its docs_kg row equals what
    ``singledoc.process_document`` gives for the same text. Returns the
    number of documents compared."""
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.llm.client import get_client
    from ctinexus_ray.llm.prompts import make_ie_prefix
    from ctinexus_ray.pipelines import singledoc
    from ctinexus_ray.pipelines.kg import default_demos
    from ctinexus_ray.sources.synth import CC_SCHEMA
    from ctinexus_ray.stages.extract import extract_batch

    config = PipelineConfig()
    client, demos = get_client(config), default_demos(config)
    prefix = make_ie_prefix(demos)
    rows = {r["url"]: r for r in docs_kg.to_pylist()}
    source = pa.concat_tables(pq.read_table(f, columns=list(CC_SCHEMA.names)) for f in inputs)
    source = source.sort_by("url")
    picked = source.take(list(range(0, source.num_rows, every)))
    extracted = extract_batch(picked)
    for url, text in zip(extracted.column("url").to_pylist(),
                         extracted.column("cti_text").to_pylist()):
        env = singledoc.process_document(text, client, config, demos, {}, ie_prefix=prefix)
        row = rows[url]
        usage = [env[s]["model_usage"] for s in ("IE", "ET", "LP")]
        expect = {
            "kg_aligned_json": json.dumps(env["EA"]["aligned_triplets"]),
            "kg_links_json": json.dumps(env["LP"]["predicted_links"]),
            "triples_count": env["IE"]["triples_count"],
            "mentions_num": env["EA"]["mentions_num"],
            "entity_num": env["EA"]["entity_num"],
            "subgraph_num": env["LP"]["subgraph_num"],
            "llm_input_tokens": sum(u["input"]["tokens"] for u in usage),
            "llm_output_tokens": sum(u["output"]["tokens"] for u in usage),
            "embed_tokens": env["EA"]["model_usage"]["input"]["tokens"],
        }
        for key, value in expect.items():
            _require(row[key] == value, f"docs_kg {key} of {url} differs from process_document")
    return picked.num_rows


_NORM = "trim(regexp_replace(lower({}), '\\s+', ' ', 'g'))"


def nodes_match_triples(nodes_dir, triples_dir) -> int:
    """Canonical nodes equal an independent DuckDB group-by over the
    exploded triples: same normalized keys, doc and mention counts.
    Returns the node count."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("triples", read_parts(triples_dir))
        con.register("nodes", read_parts(nodes_dir))
        con.execute(f"""
            CREATE TEMP TABLE expected AS
            WITH m AS (
                SELECT doc_url, subj_entity_text AS t FROM triples WHERE subj_entity_id <> -2
                UNION ALL
                SELECT doc_url, obj_entity_text FROM triples WHERE obj_entity_id <> -2
            )
            SELECT {_NORM.format('t')} AS key, count(DISTINCT doc_url) AS doc_count,
                   count(*) AS mention_count
            FROM m WHERE t <> '' AND t <> 'hallucination' GROUP BY 1
        """)
        bad = con.execute(f"""
            SELECT count(*) FROM expected e FULL OUTER JOIN (
                SELECT {_NORM.format('entity_text')} AS key, doc_count, mention_count FROM nodes
            ) n USING (key)
            WHERE e.doc_count IS DISTINCT FROM n.doc_count
               OR e.mention_count IS DISTINCT FROM n.mention_count
        """).fetchone()[0]
        n_nodes = con.execute("SELECT count(*) FROM nodes").fetchone()[0]
        n_keys = con.execute("SELECT count(*) FROM expected").fetchone()[0]
    finally:
        con.close()
    _require(bad == 0, f"{bad} canonical nodes differ from the DuckDB group-by")
    _require(n_nodes == n_keys, f"{n_nodes} nodes for {n_keys} distinct entity keys")
    return n_nodes


def views_match_full(out_dir: str, config) -> None:
    """After the last tick: the incremental nodes view equals a full
    ``canonicalize_nodes`` over the same docs_kg, and the triples and
    edges views hold as many rows as a full explode of it."""
    import ray
    import ray.data

    from ctinexus_ray.pipelines.kg import canonicalize_nodes
    from ctinexus_ray.pipelines.kg_incr import committed_kg_shards, read_kg_nodes_view
    from ctinexus_ray.stages.triples import explode_triples_batch
    from ctinexus_ray.state.tableformat import read_version

    parts = [f for _, f in committed_kg_shards(os.path.join(out_dir, "docs_kg"))]

    def table(ds) -> pa.Table:
        return pa.concat_tables(ray.get(ds.to_arrow_refs()))

    full = table(canonicalize_nodes(ray.data.read_parquet(parts), config)).sort_by("entity_key")
    view = table(read_kg_nodes_view(os.path.join(out_dir, "nodes_view"))).sort_by("entity_key")
    view = view.select(full.column_names).cast(full.schema)
    _require(view.equals(full), "nodes_view differs from a full canonicalize_nodes")

    docs_kg = pa.concat_tables(pq.read_table(f) for f in parts)
    n_triples = explode_triples_batch(docs_kg).num_rows
    for name in ("triples_view", "edges_view"):
        rows = read_version(os.path.join(out_dir, name)).count()
        _require(rows == n_triples, f"{name} has {rows} rows, a full explode gives {n_triples}")
