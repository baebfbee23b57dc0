"""Corpus-scale KG construction pipeline (SURVEY §3.4 restated on Ray Data).

    read_parquet(documents)                    # S1, column-pruned
      -> map_batches(extract_batch)            # E0-E3, stateless, drops html
      -> map_batches(KGDocStage, concurrency)  # IE+ET+EA+LP fused task map
      -> derive_partials                       # docs_kg, triples, edges: all
                                               # written task-side; entity
                                               # partials out
      -> partitioned_agg(entity_key)           # THE wide shuffle
      -> write_parquet(nodes)                  # ONE execution end to end
    docs_kg counters -> one streaming Arrow scan -> metrics (one row)

Everything streams; nothing materializes the corpus. The only all-to-all
exchange is the canonicalization reduce, fed by map-side-combined partials
(one row per (doc, entity)) — see SURVEY §7.3 for the skew rationale.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
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
# the docs_kg columns every derived output (triples / edges / nodes) reads
DERIVE_COLUMNS = ["url", "kg_aligned_json", "kg_links_json"]
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
    return kg_ds.select_columns(DERIVE_COLUMNS).map_batches(
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
    return reduce_entity_partials(docs_kg_ds.map_batches(
        entity_partials_batch,
        batch_format="pyarrow",
        batch_size=config.cpu_batch_size,
    ), config)


def reduce_entity_partials(
    partials: ray.data.Dataset, config: PipelineConfig
) -> ray.data.Dataset:
    """The canonicalization reduce over ``entity_partials_batch`` rows."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

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
METRICS_SCHEMA = pa.schema(
    [("stage", pa.string()), *((c, pa.int64()) for c in METRIC_COLUMNS)]
)


def metrics_total(source: str | list[str]) -> pa.Table:
    """Corpus-level stage metrics (A2/A3) of the docs_kg parquet at
    ``source`` (a directory or a list of files): one ``stage="kg"`` row
    of token totals + doc/triple/entity counters, or no row when there is
    no document. One streaming scan of the ``METRIC_SOURCES`` columns in
    constant memory; the kg json payloads are never read."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    counters = pa.schema([(c, pa.int64()) for c in METRIC_SOURCES.values()])
    totals = dict.fromkeys(METRIC_COLUMNS, 0)
    for batch in pads.dataset(source, schema=counters, format="parquet").to_batches():
        totals["docs"] += batch.num_rows
        for out, col in METRIC_SOURCES.items():
            totals[out] += pc.sum(batch.column(col)).as_py() or 0
    rows = [{"stage": "kg", **totals}] if totals["docs"] else []
    return pa.Table.from_pylist(rows, schema=METRICS_SCHEMA)


def run_kg_to_parquet(
    documents: ray.data.Dataset,
    out_dir: str,
    config: PipelineConfig | None = None,
    demos: list[dict] | None = None,
) -> dict[str, str]:
    """The one-shot build as ONE Ray Data execution: the KG task map
    feeds ``derive_partials``, whose tasks write the docs_kg, triples
    and edges files and whose entity partials feed the canonicalization
    reduce and the nodes write; then ``metrics_total`` scans the docs_kg
    counters on the driver. An empty corpus leaves every output
    directory empty. The resumable path (``checkpoint_docs_kg`` +
    ``kg_incr.fold_kg_derived``) checkpoints first instead, so a failed
    reduce there never redoes LLM work."""
    import uuid

    config = config or PipelineConfig()
    paths = {name: os.path.join(out_dir, name)
             for name in ("docs_kg", "triples", "nodes", "edges", "metrics")}
    for path in paths.values():
        os.makedirs(path, exist_ok=True)  # Ray writes none for no rows
    kg = run_kg_stage(extract_documents(documents, config), config, demos)
    partials = derive_partials(kg, paths["triples"], paths["edges"], config,
                               docs_kg_dir=paths["docs_kg"])
    reduce_entity_partials(partials, config).map_batches(
        strip_class_rank_batch, batch_format="pyarrow"
    ).write_parquet(paths["nodes"])
    total = metrics_total(paths["docs_kg"])
    if total.num_rows:
        pq.write_table(total, os.path.join(paths["metrics"], f"{uuid.uuid4().hex}.parquet"))
    return paths


def derive_batch(
    batch: pa.Table, docs_kg_dir: str | None, triples_dir: str | None,
    edges_dir: str | None, token: str, task_idx: int, ordinal: int,
) -> pa.Table:
    """One docs_kg batch of the derive pass: write it as
    ``<token>_<task>_<ordinal>.parquet`` under ``docs_kg_dir``, explode
    its triples once, map them to edges, write both under the same name
    in ``triples_dir`` / ``edges_dir`` (nothing for a batch with no row
    or no triple, nor for a dir given as None), and return the batch's
    entity partials for the canonicalization reduce."""
    name = f"{token}_{task_idx:06d}_{ordinal:06d}.parquet"
    if docs_kg_dir is not None and batch.num_rows:
        pq.write_table(batch, os.path.join(docs_kg_dir, name))
    triples = explode_triples_batch(batch)
    if triples.num_rows:
        if triples_dir is not None:
            pq.write_table(triples, os.path.join(triples_dir, name))
        if edges_dir is not None:
            pq.write_table(edges_batch(triples), os.path.join(edges_dir, name))
    return entity_partials_batch(batch)


def derive_partials(
    docs_kg: str | list[str] | ray.data.Dataset, triples_dir: str | None,
    edges_dir: str | None, config: PipelineConfig,
    docs_kg_dir: str | None = None,
) -> ray.data.Dataset:
    """THE derive map, shared by the full build and the incremental
    fold, over ``docs_kg``: the docs_kg parquet at a directory or a list
    of shard files (the fold), or a Dataset of KG rows (the one-shot
    build, whose tasks also write those rows' ``KG_DOC_COLUMNS`` as the
    docs_kg files under ``docs_kg_dir``). Its tasks write the triples
    and edges files themselves (``derive_batch``) and it yields the
    entity partials for ``reduce_entity_partials``. Lazy: the files
    exist once the returned dataset has executed.

    Task-side file names are ``<plan token>_<task index>_<batch
    ordinal>``: a retried task re-runs the same input batches in the
    same order under the same task index, so it overwrites its earlier
    attempt's files instead of adding rows. (The ordinal counts batches
    in the task's own ``TaskContext``, which every attempt gets anew.)
    Urls are not part of the name: duplicate input urls would collide."""
    import uuid

    from ray.data._internal.execution.interfaces.task_context import TaskContext

    token = uuid.uuid4().hex

    def derive(batch: pa.Table) -> pa.Table:
        ctx = TaskContext.get_current()
        ordinal = ctx.kwargs[token] = ctx.kwargs.get(token, -1) + 1
        return derive_batch(batch, docs_kg_dir, triples_dir, edges_dir,
                            token, ctx.task_idx, ordinal)

    columns = DERIVE_COLUMNS if docs_kg_dir is None else KG_DOC_COLUMNS
    ds = (docs_kg.select_columns(columns) if isinstance(docs_kg, ray.data.Dataset)
          else ray.data.read_parquet(docs_kg, columns=columns))
    return ds.map_batches(
        derive, batch_format="pyarrow", batch_size=config.cpu_batch_size
    )


def checkpoint_docs_kg(
    input_files: list[str],
    docs_kg_dir,
    config: PipelineConfig,
    demos: list[dict] | None = None,
    reader=None,
) -> dict:
    """The expensive per-doc stages, run per INPUT SHARD (extract ->
    fused LLM task map -> KG_DOC_COLUMNS) through ``run_resumable``: the
    shard's tasks write its docs_kg files and one ledgered manifest
    commit adds them, with the shard's ``metrics_total`` counters as its
    lineage. The checkpoint half of
    ``pipelines/kg_incr.run_kg_incremental``; ``reader`` maps one shard
    path to a CC-shaped Dataset (default: the parquet reader
    ``sources.documents.read_cc``)."""
    from ctinexus_ray.sources.documents import read_cc
    from ctinexus_ray.state.checkpoint import run_resumable

    def pipeline(ds: ray.data.Dataset) -> ray.data.Dataset:
        return run_kg_stage(
            extract_documents(ds, config), config, demos
        ).select_columns(KG_DOC_COLUMNS)

    return run_resumable(
        input_files, docs_kg_dir, pipeline, reader=reader or read_cc,
        lineage_fn=lambda files: (metrics_total(files).select(METRIC_COLUMNS).to_pylist()
                                  or [dict.fromkeys(METRIC_COLUMNS, 0)])[0],
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
            kg.select_columns(DERIVE_COLUMNS), config
        ),
        "edges": edges_dataset(triples, config),
    }
