"""Per-layer probes for the traced run.

Each probe calls one layer of ``ctinexus_ray`` through its public
functions, inside spans of the benchmark's own, and turns spans and
counts into the ``per_layer`` metrics of BENCHMARK.json. Which
end-to-end metric each of them should move, and on which workload, is
recorded in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import os
import re
import statistics
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from spans import CountingCache, CountingClient, Tracer

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(r"^Operator (\d+) (.+?): ")
_TOTAL_RE = re.compile(r"([\d.]+)(us|ms|s)? total")


def stage_probe(tracer: Tracer, table: pa.Table, config, demos, client) -> dict:
    """extract -> IE/ET/EA/LP per document -> KGDocStage -> explode /
    partials / edges, all in the driver on ``table`` (CC-shaped rows)."""
    from ctinexus_ray.llm.prompts import make_ie_prefix
    from ctinexus_ray.pipelines import singledoc
    from ctinexus_ray.stages.extract import extract_batch
    from ctinexus_ray.stages.kg import KGDocStage
    from ctinexus_ray.stages.triples import (
        edges_batch,
        entity_partials_batch,
        explode_triples_batch,
    )

    n = table.num_rows
    with tracer.span("extract"):
        extracted = extract_batch(table)
    texts = extracted.column("cti_text").to_pylist()

    proxy = CountingClient(client, tracer)
    cache = CountingCache()
    prefix = make_ie_prefix(demos)
    for i, text in enumerate(texts):
        with tracer.span("doc", trace_id=i):
            with tracer.span("ie"):
                ie = singledoc.run_ie(text, proxy, config, demos, ie_prefix=prefix)
            with tracer.span("et"):
                et = singledoc.run_et(ie["triplets"], proxy, config)
            with tracer.span("ea"):
                ea = singledoc.run_ea(et["typed_triplets"], proxy, config, cache)
            with tracer.span("lp"):
                singledoc.run_lp(text, ea["aligned_triplets"], proxy, config)

    with tracer.span("kg_stage.init"):
        stage = KGDocStage(config=config, demos=demos)
    with tracer.span("kg_stage.call"):
        docs_kg = stage(extracted)

    batch = config.cpu_batch_size
    exploded, partial_rows = [], 0
    for start in range(0, n, batch):
        part = docs_kg.slice(start, batch)
        with tracer.span("explode"):
            exploded.append(explode_triples_batch(part))
        with tracer.span("partials"):
            partial_rows += entity_partials_batch(part).num_rows
    triples = pa.concat_tables(exploded)
    for start in range(0, triples.num_rows, batch):
        with tracer.span("edges"):
            edges_batch(triples.slice(start, batch))

    c = tracer.counts
    attempts = c["llm.complete_attempts"] + c["llm.embed_attempts"]
    return {
        "extract.us_per_doc": tracer.total_s("extract") / n * 1e6,
        "extract.bytes_in": table.nbytes / n,
        "extract.bytes_out": extracted.nbytes / n,
        **{f"{s}.us_per_doc": tracer.self_s(s) / n * 1e6 for s in ("ie", "et", "ea", "lp")},
        "ea.embed_cache_hit_ratio": cache.hits / max(1, cache.lookups),
        "llm.complete_calls_per_doc": c["llm.complete_attempts"] / n,
        "llm.embed_calls_per_doc": c["llm.embed_attempts"] / n,
        "llm.embed_texts_per_call": c["llm.embed_texts"] / max(1, c["llm.embed_attempts"]),
        "llm.wait_s": tracer.total_s("llm.wait") / n,
        "llm.inflight_mean": proxy.inflight.mean(),
        "llm.inflight_max": proxy.inflight.max,
        "llm.retries": c["llm.failed"],
        "llm.useful_ratio": (attempts - c["llm.failed"]) / max(1, attempts),
        "kg_stage.init_s": tracer.total_s("kg_stage.init"),
        "kg_stage.us_per_doc": tracer.total_s("kg_stage.call") / n * 1e6,
        "explode.us_per_doc": tracer.total_s("explode") / n * 1e6,
        "partials.rows_out": partial_rows,
        "partials.combine_ratio": _mentions(triples) / max(1, partial_rows),
        "edges.us_per_row": tracer.total_s("edges") / max(1, triples.num_rows) * 1e6,
    }


def _mentions(triples: pa.Table) -> int:
    """Entity mentions the canonicalization sees in exploded triples."""
    total = 0
    for side in ("subj", "obj"):
        text = triples.column(f"{side}_entity_text")
        ok = pc.and_(
            pc.not_equal(triples.column(f"{side}_entity_id"), -2),
            pc.invert(pc.is_in(text, value_set=pa.array(["", "hallucination"]))),
        )
        total += pc.sum(pc.cast(ok, pa.int64())).as_py() or 0
    return total


def _parse_stats(text: str) -> list[dict]:
    """Operator sections of ``Dataset.stats()``: wall/cpu seconds and
    output bytes/rows totals (sub-operators fold into their operator)."""
    ops: list[dict] = []
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            ops.append({"name": m.group(2), "wall_s": 0.0, "cpu_s": 0.0,
                        "bytes_out": 0, "rows_out": 0})
            continue
        if not ops:
            continue
        t = _TOTAL_RE.search(line)
        if not t:
            continue
        value = float(t.group(1))
        if "Remote wall time" in line:
            ops[-1]["wall_s"] += value * _UNIT_S[t.group(2) or "s"]
        elif "Remote cpu time" in line:
            ops[-1]["cpu_s"] += value * _UNIT_S[t.group(2) or "s"]
        elif "Output size bytes per block" in line:
            ops[-1]["bytes_out"] = int(value)
        elif "Output num rows per block" in line:
            ops[-1]["rows_out"] = int(value)
    return ops


def operator_probe(files: list[str], config, demos) -> dict:
    """Run the corpus pipeline step by step from the public stage
    functions, materializing between steps so each step's operators
    are its own, and read wall/cpu/bytes from ``Dataset.stats()``."""
    import ray

    from ctinexus_ray.pipelines import kg
    from ctinexus_ray.sources.documents import read_cc
    from ctinexus_ray.stages.triples import entity_partials_batch

    steps = {}
    read = read_cc(files).materialize()
    steps["read"] = (read, None)
    ext = kg.extract_documents(read, config).materialize()
    steps["extract"] = (ext, read)
    kg_ds = kg.run_kg_stage(ext, config, demos).materialize()
    steps["kg_stage"] = (kg_ds, ext)
    triples = kg.triples_dataset(kg_ds, config).materialize()
    steps["explode"] = (triples, kg_ds)
    nodes = kg.canonicalize_nodes(
        kg_ds.select_columns(["url", "kg_aligned_json", "kg_links_json"]), config
    ).materialize()
    steps["canon"] = (nodes, kg_ds)
    edges = kg.edges_dataset(triples, config).materialize()
    steps["edges"] = (edges, triples)

    out: dict = {}
    for name, (ds, parent) in steps.items():
        ops = _parse_stats(ds.stats())
        own = ops[len(_parse_stats(parent.stats())):] if parent is not None else ops
        out[f"op.{name}.wall_s"] = sum(o["wall_s"] for o in own)
        out[f"op.{name}.cpu_s"] = sum(o["cpu_s"] for o in own)
        out[f"op.{name}.bytes_out"] = own[-1]["bytes_out"] if own else 0

    # shuffle input: the map-side partials, keyed like the reduce keys them
    kg_table = pa.concat_tables(ray.get(kg_ds.to_arrow_refs()))
    partials = pa.concat_tables(
        entity_partials_batch(kg_table.slice(s, config.cpu_batch_size))
        for s in range(0, kg_table.num_rows, config.cpu_batch_size)
    )
    parts = config.canon_num_partitions or 64
    pkeys = pc.bit_wise_and(partials.column("entity_key"), parts - 1).to_numpy()
    sizes = [int((pkeys == p).sum()) for p in range(parts)]
    out["canon.rows_in"] = partials.num_rows
    out["canon.rows_out"] = nodes.count()
    out["canon.partition_skew"] = max(sizes) / max(1e-9, statistics.mean(sizes))
    return out


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


VIEWS = ("nodes_view", "triples_view", "edges_view", "metrics_view")


def split_ticks(tracer: Tracer, files: list[str], out_dir: str, config,
                start: int) -> tuple[list[float], list[int]]:
    """One tick per shard of ``files[start:]``, each as a
    ``checkpoint_docs_kg`` call and a ``fold_kg_derived`` call. Returns
    the tick durations and the bytes each fold added to the views."""
    from ctinexus_ray.pipelines.kg import checkpoint_docs_kg
    from ctinexus_ray.pipelines.kg_incr import fold_kg_derived

    docs_kg = os.path.join(out_dir, "docs_kg")
    durations, written = [], []
    for k in range(start, len(files)):
        with tracer.span("tick", trace_id=k) as tick:
            with tracer.span("tick.checkpoint"):
                checkpoint_docs_kg(files[:k + 1], docs_kg, config)
            before = sum(dir_bytes(os.path.join(out_dir, v)) for v in VIEWS)
            with tracer.span("tick.fold"):
                fold_kg_derived(out_dir, config)
            written.append(sum(dir_bytes(os.path.join(out_dir, v)) for v in VIEWS) - before)
        durations.append(tick["end"] - tick["start"])
    return durations, written


def tick_probe(tracer: Tracer, files: list[str], out_dir: str, config, cold: int) -> dict:
    """Cold ``run_kg_incremental`` over ``files[:cold]``, then split
    ticks over the rest."""
    from ctinexus_ray.pipelines.kg_incr import run_kg_incremental

    run_kg_incremental(files[:cold], out_dir, config)
    _, written = split_ticks(tracer, files, out_dir, config, cold)
    return fold_metrics(tracer, out_dir, written)


def fold_metrics(tracer: Tracer, out_dir: str, written: list[int]) -> dict:
    from ctinexus_ray.state.checkpoint import read_lineage
    from ctinexus_ray.state.tableformat import latest_version, version_files

    docs_kg = os.path.join(out_dir, "docs_kg")
    lineage = read_lineage(docs_kg)
    parts = sorted(Path(docs_kg).glob("part-*.parquet"))
    views = [os.path.join(out_dir, v) for v in VIEWS]
    return {
        "checkpoint.shard_s": statistics.median(s["wall_time_s"] for s in lineage),
        "checkpoint.bytes_per_shard": statistics.mean(p.stat().st_size for p in parts),
        "tick.checkpoint_s": statistics.median(tracer.durations("tick.checkpoint")),
        "tick.fold_s": statistics.median(tracer.durations("tick.fold")),
        "fold.bytes_written": statistics.median(written),
        "fold.view_files": sum(len(version_files(v, latest_version(v))) for v in views),
        "fold.versions": sum(latest_version(v) + 1 for v in views),
    }

