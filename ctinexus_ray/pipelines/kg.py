"""Corpus-scale KG construction pipeline (SURVEY §3.4 restated on Ray Data).

    read_parquet(documents)                    # S1, column-pruned
      -> map_batches(extract_batch)            # E0-E3, stateless, drops html
      -> map_batches(KGDocStage, concurrency)  # IE+ET+EA+LP fused task map
      -> map_batches(explode_triples_batch)    # nested -> flat triples
      -> [entity partials -> partitioned_agg(entity_key) -> nodes]  # THE wide shuffle
      -> write_parquet(triples/nodes/edges)

Everything streams; nothing materializes the corpus. The only all-to-all
exchange is the canonicalization reduce, fed by map-side-combined partials
(one row per (doc, entity)) — see SURVEY §7.3 for the skew rationale.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.llm.client import stage_task_map
from ctinexus_ray.sources.demos import select_demos
from ctinexus_ray.sources.synth import make_demo_corpus
from ctinexus_ray.stages.extract import extract_batch
from ctinexus_ray.stages.kg import KGDocStage
from ctinexus_ray.stages.triples import (
    edges_batch,
    entity_partials_batch,
    explode_triples_batch,
)

DOCUMENT_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]
KG_DOC_COLUMNS = [
    "url", "kg_aligned_json", "kg_links_json", "triples_count",
    "mentions_num", "entity_num", "subgraph_num", "dropped_triplets",
    "llm_input_tokens", "llm_output_tokens", "embed_tokens",
]


def read_documents(paths: str | list[str], columns: list[str] | None = None) -> ray.data.Dataset:
    """Column-pruned parquet read of the Common-Crawl-shaped corpus."""
    return ray.data.read_parquet(paths, columns=columns or DOCUMENT_COLUMNS)


def default_demos(config: PipelineConfig) -> list[dict]:
    """Driver-side demo selection — constant per corpus (quirk Q1), shipped
    to the KG stage as a constructor argument (once per process per plan).

    ``retriever == "fixed"`` means no few-shot demos at all (the
    reference's other working retriever path,
    ctinexus/llm_processor.py:1104-1107).
    """
    if config.retriever == "fixed":
        return []
    return select_demos(
        make_demo_corpus(), shot=config.shot, permutation=config.permutation
    )


def extract_documents(ds: ray.data.Dataset, config: PipelineConfig) -> ray.data.Dataset:
    """E0-E3: html -> extracted/normalized/focused text; html dropped."""
    return ds.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=config.cpu_batch_size
    )


def run_kg_stage(
    ds: ray.data.Dataset,
    config: PipelineConfig,
    demos: list[dict] | None = None,
) -> ray.data.Dataset:
    """Fused IE->ET->EA->LP task map over extracted documents."""
    demos = demos if demos is not None else default_demos(config)
    return stage_task_map(ds, KGDocStage, {"config": config, "demos": demos},
                          config, config.doc_batch_size)


def triples_dataset(kg_ds: ray.data.Dataset, config: PipelineConfig) -> ray.data.Dataset:
    """Flat triples table (one row per aligned or predicted triple)."""
    return kg_ds.select_columns(
        ["url", "kg_aligned_json", "kg_links_json"]
    ).map_batches(
        explode_triples_batch,
        batch_format="pyarrow",
        batch_size=config.cpu_batch_size,
    )


def canonicalize_node_partials(
    docs_kg_ds: ray.data.Dataset, config: PipelineConfig
) -> ray.data.Dataset:
    """Cross-document entity canonicalization — the one wide shuffle.

    Input: per-DOCUMENT kg rows (``kg_aligned_json`` [+ ``kg_links_json``])
    — doc-aligned batching keeps doc counts exact. A map-side combine
    (``entity_partials_batch``: one row per (doc, entity)) feeds ONE
    ``partitioned_agg`` on ``entity_key``: P hash partitions, each
    reduced by a single Arrow ``group_by().aggregate`` (Max/Sum) over
    all the keys that hashed there. Ray's built-in per-key aggregates pay
    per-group overhead linear in distinct entities (measured 16.4 s over
    436 k entities at 400 k docs vs ~4 s this way); here the Python cost
    is per partition, not per entity. Partitioning by key hash keeps
    every key's rows together, so results are exact.

    Canonical rules (deterministic regardless of partitioning; the
    reference's A1 most-frequent-mention rule applies WITHIN a document,
    in merge_doc — cross-doc canonicalization is this engine's addition):
      * entity_text  = Max over per-doc first-seen variants (variants of a
        key differ only in case/whitespace — key = hash(normalized text))
      * entity_class = class of the (doc,key) record with the highest
        in-doc mention count, ties toward the lexicographically greatest
        class (pre-encoded in ``class_rank`` so a plain Max suffices)
      * doc_count / mention_count = exact Sums of the batch partials
    """
    from ctinexus_ray.ops.groupagg import partitioned_agg

    partials = docs_kg_ds.map_batches(
        entity_partials_batch,
        batch_format="pyarrow",
        batch_size=config.cpu_batch_size,
    )
    return partitioned_agg(
        partials,
        ["entity_key"],
        {
            "entity_text": ("entity_text", "max"),
            "class_rank": ("class_rank", "max"),
            "doc_count": ("doc_count", "sum"),
            "mention_count": ("mention_count", "sum"),
        },
        config.canon_num_partitions or 64,
    )


def strip_class_rank_batch(batch: pa.Table) -> pa.Table:
    """Final presentation map: decode ``class_rank``
    ("<zero-padded count>|<class>") into ``entity_class`` — applied
    AFTER all folding, because class_rank is the Max-monoid encoding
    the incremental view keeps foldable across ticks."""
    import pyarrow.compute as pc

    return pa.table(
        {
            "entity_key": batch.column("entity_key"),
            "entity_text": batch.column("entity_text"),
            "entity_class": pc.replace_substring_regex(
                batch.column("class_rank"), r"^[^|]*\|", ""
            ),
            "doc_count": batch.column("doc_count"),
            "mention_count": batch.column("mention_count"),
        }
    )


def canonicalize_nodes(
    docs_kg_ds: ray.data.Dataset, config: PipelineConfig
) -> ray.data.Dataset:
    """Canonical nodes table — ``canonicalize_node_partials`` (the
    foldable Sum/Max shape, shared with the incremental view in
    ``pipelines/kg_incr.py``) plus the class_rank -> entity_class
    presentation map."""
    return canonicalize_node_partials(docs_kg_ds, config).map_batches(
        strip_class_rank_batch, batch_format="pyarrow"
    )


def edges_dataset(triples_ds: ray.data.Dataset, config: PipelineConfig) -> ray.data.Dataset:
    """Canonical-keyed edges; no shuffle (keys are computed per row)."""
    return triples_ds.map_batches(
        edges_batch, batch_format="pyarrow", batch_size=config.cpu_batch_size
    )


# corpus metrics column -> the per-doc docs_kg counter it sums
METRIC_SOURCES = {
    "triples": "triples_count", "mentions": "mentions_num",
    "entities": "entity_num", "subgraphs": "subgraph_num",
    "dropped_triplets": "dropped_triplets",
    "llm_input_tokens": "llm_input_tokens",
    "llm_output_tokens": "llm_output_tokens", "embed_tokens": "embed_tokens",
}
METRIC_COLUMNS = ["docs", *METRIC_SOURCES]


def metrics_dataset(kg_ds: ray.data.Dataset) -> ray.data.Dataset:
    """Corpus-level stage metrics (A2/A3): one ``stage="kg"`` row of
    token totals + doc/triple/entity counters (no row for an empty
    ``kg_ds``). Each batch sums to one row; ``repartition(1)`` gathers
    those rows into one block and one Arrow sum map totals them, so the
    one-row result needs no sort shuffle. Only the ``METRIC_SOURCES``
    columns are read: callers prune to them."""
    import pyarrow.compute as pc

    def sums(batch: pa.Table, cols) -> dict:  # cols: (out, in) pairs
        return {"stage": ["kg"], **{
            out: [pc.sum(batch.column(col)).as_py() or 0] for out, col in cols}}

    def to_rows(batch: pa.Table) -> pa.Table:
        return pa.table({**sums(batch, METRIC_SOURCES.items()), "docs": [batch.num_rows]})

    def total(batch: pa.Table) -> pa.Table:
        return pa.table(sums(batch, [(c, c) for c in METRIC_COLUMNS]))

    return (
        kg_ds.map_batches(to_rows, batch_format="pyarrow")
        .repartition(1)
        .map_batches(total, batch_format="pyarrow", batch_size=None)
    )


def run_kg_to_parquet(
    documents: ray.data.Dataset,
    out_dir: str,
    config: PipelineConfig | None = None,
    demos: list[dict] | None = None,
) -> dict[str, str]:
    """Execute the expensive per-doc stages ONCE, checkpointing their
    output to parquet on disk (not the object store); triples / nodes /
    edges / metrics all derive from re-reading that checkpoint, so the
    LLM stages never run twice and nothing corpus-sized is pinned in
    memory."""
    from pathlib import Path

    config = config or PipelineConfig()
    out = Path(out_dir)
    extracted = extract_documents(documents, config)
    kg = run_kg_stage(extracted, config, demos)

    docs_kg_path = str(out / "docs_kg")
    kg.select_columns(KG_DOC_COLUMNS).write_parquet(docs_kg_path)

    paths = _write_derived_outputs(docs_kg_path, out, config)
    return {"docs_kg": docs_kg_path, **paths}


def _settle_fsspec_http_import() -> None:
    """Ray's path resolution probes ``fsspec.implementations.http`` on
    every read/write. In this environment that import always fails
    (aiohttp absent) and therefore never lands in ``sys.modules`` — so
    two driver threads resolving paths concurrently race inside the
    import machinery and one sees a half-initialized module (plain
    ImportError, which Ray does NOT catch, vs the ModuleNotFoundError it
    does). Seed a sentinel module once, single-threaded: the class is
    never instantiated here (no http filesystems in this engine), it only
    makes ``isinstance`` checks answer False deterministically."""
    import sys as _sys
    import types as _types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        mod = _types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel only
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = mod


def _write_derived_outputs(docs_kg_path: str, out, config: PipelineConfig) -> dict[str, str]:
    """Derive triples / nodes / edges / metrics from the docs_kg
    checkpoint CONCURRENTLY (each in its own driver thread with its own
    read of the checkpoint — the four pipelines are independent, and
    running them serially pays 4× the fixed per-execution latency).
    Edges re-run the cheap explode map instead of waiting on the written
    triples table."""
    import concurrent.futures as cf
    from pathlib import Path

    _settle_fsspec_http_import()
    triples_path = str(out / "triples")
    nodes_path = str(out / "nodes")
    edges_path = str(out / "edges")
    metrics_path = str(out / "metrics")

    def _read():
        return ray.data.read_parquet(docs_kg_path)

    def _explode(ds):
        return ds.map_batches(
            explode_triples_batch,
            batch_format="pyarrow",
            batch_size=config.cpu_batch_size,
        )

    # build the (lazy) plans serially on the main thread — concurrent
    # read_parquet calls race on fsspec's lazy imports; only the
    # write_parquet EXECUTIONS run in the pool
    plans = {
        "triples": (_explode(_read()), triples_path),
        "nodes": (canonicalize_nodes(_read(), config), nodes_path),
        "edges": (edges_dataset(_explode(_read()), config), edges_path),
        "metrics": (metrics_dataset(ray.data.read_parquet(
            docs_kg_path, columns=list(METRIC_SOURCES.values()))), metrics_path),
    }
    jobs = {
        name: (lambda ds=ds, path=path: ds.write_parquet(path))
        for name, (ds, path) in plans.items()
    }
    # Concurrency across executions overlaps their fixed per-execution
    # latency (~1s each) — a win only while the checkpoint is small.
    # Once the corpus is large each derivation saturates the cluster on
    # its own and running them concurrently just contends for CPU and
    # object-store memory (measured 28% slower at 400k docs), so fall
    # back to serial above a size threshold.
    ckpt_bytes = sum(
        f.stat().st_size for f in Path(docs_kg_path).glob("**/*") if f.is_file()
    )
    workers = 4 if ckpt_bytes < 64 * 1024 * 1024 else 1
    with cf.ThreadPoolExecutor(max_workers=workers) as ex:
        futures = {name: ex.submit(fn) for name, fn in jobs.items()}
        for name, fut in futures.items():
            fut.result()  # propagate the first failure
    return {
        "triples": triples_path,
        "nodes": nodes_path,
        "edges": edges_path,
        "metrics": metrics_path,
    }


def checkpoint_docs_kg(
    input_files: list[str],
    docs_kg_dir,
    config: PipelineConfig,
    demos: list[dict] | None = None,
    reader=None,
) -> dict:
    """The expensive per-doc stages, run per INPUT SHARD with
    per-partition commits + lineage sidecars (extract -> fused LLM
    task map -> KG_DOC_COLUMNS). The checkpoint half of
    ``pipelines/kg_incr.run_kg_incremental``; ``reader`` maps one shard
    path to a CC-shaped Dataset (default: the parquet reader
    ``sources.documents.read_cc``)."""
    from ctinexus_ray.sources.documents import read_cc
    from ctinexus_ray.state.checkpoint import run_resumable

    def pipeline(ds: ray.data.Dataset) -> ray.data.Dataset:
        return run_kg_stage(
            extract_documents(ds, config), config, demos
        ).select_columns(KG_DOC_COLUMNS)

    def lineage_fn(table: pa.Table) -> dict:
        def s(col):
            return int(pa.compute.sum(table.column(col)).as_py() or 0)

        return {
            "docs": table.num_rows,
            "triples": s("triples_count"),
            "llm_input_tokens": s("llm_input_tokens"),
            "llm_output_tokens": s("llm_output_tokens"),
            "embed_tokens": s("embed_tokens"),
        }

    return run_resumable(
        input_files, docs_kg_dir, pipeline, reader=reader or read_cc,
        lineage_fn=lineage_fn,
    )


def build_kg(
    documents: ray.data.Dataset,
    config: PipelineConfig | None = None,
    demos: list[dict] | None = None,
) -> dict[str, ray.data.Dataset]:
    """Full pipeline; returns lazy datasets {'triples', 'nodes', 'edges'}.

    The caller consumes them with write_parquet / iter_batches — nothing is
    materialized here.
    """
    config = config or PipelineConfig()
    extracted = extract_documents(documents, config)
    kg = run_kg_stage(extracted, config, demos)
    triples = triples_dataset(kg, config)
    return {
        "triples": triples,
        "nodes": canonicalize_nodes(
            kg.select_columns(["url", "kg_aligned_json", "kg_links_json"]), config
        ),
        "edges": edges_dataset(triples, config),
    }
