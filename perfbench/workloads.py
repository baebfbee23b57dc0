"""The three workloads. Each is a closed loop: the next build or tick
starts when the previous one has returned.

* ``corpus_cpu``  — ``run_kg_to_parquet`` with the in-process mock LLM:
  Python CPU in extraction, the IE/ET/EA/LP functions, explode and the
  canonicalization shuffle sets the pace.
* ``corpus_llm``  — the same build with ``provider="openai"`` against
  the loopback stub: waiting on LLM calls sets the pace.
* ``shard_ticks`` — the resumable ``kg_job`` path: a cold
  ``run_kg_incremental`` over a few shards, then one-shard ticks that
  fold into the versioned derived tables.

A round (one build, or one cold build plus its ticks) repeats in a
fresh output directory; on the corpus workloads another round starts
only while it is expected (the median round so far) to end within
``--seconds``, and at least one runs. Every metric is the median over
rounds (ticks, for ``tick_p50_s``).
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

import checks
import layers


@dataclass(frozen=True)
class Shape:
    """Corpus and probe sizes of one workload."""

    shards: int
    docs_per_shard: int
    cold_shards: int = 0  # shard_ticks: shards of the cold build
    probe_docs: int = 256  # driver-side stage probe sample
    op_probe_shards: int = 2  # shards run through the Dataset.stats() probe
    tick_probe_docs: int = 128  # shard size of the corpus workloads' tick probe


SHAPES = {
    # 6 files of 1024 docs read as 12 blocks of 512 = 12 equal actor
    # batches, 4 per actor (12 files of 512 read as 8 unequal blocks and
    # left the build's time to which actor drew the big ones). A build
    # takes 10-21 s on a 4-vCPU host, so a 30 s run takes the median of
    # one to three; one 12 x 1024 build per run spread 0.20 across seeds
    # even while the host's speed held steady
    "corpus_cpu": Shape(shards=6, docs_per_shard=1024, op_probe_shards=1),
    # one actor batch (doc_batch_size is 512), so one of the pool's actors
    # does all the waiting: at 1536 docs the pool ran its three 512-doc
    # bundles one after another, so a larger corpus only adds serial time
    "corpus_llm": Shape(shards=1, docs_per_shard=128, probe_docs=64, op_probe_shards=1,
                        tick_probe_docs=64),
    # four cold shards, so the cold build's first-execution costs spread
    # over 1024 docs (two shards left docs_per_s spreading 0.22 across
    # seeds), and one tick: a fold costs ~10 s on a 4-CPU host
    "shard_ticks": Shape(shards=5, docs_per_shard=256, cold_shards=4),
}
TINY = {
    "corpus_cpu": Shape(shards=2, docs_per_shard=48, probe_docs=16, op_probe_shards=1,
                        tick_probe_docs=16),
    "corpus_llm": Shape(shards=2, docs_per_shard=48, probe_docs=16, op_probe_shards=1,
                        tick_probe_docs=16),
    "shard_ticks": Shape(shards=2, docs_per_shard=32, cold_shards=1, probe_docs=16,
                         op_probe_shards=1),
}

KG_DOC_COLUMNS = [
    "url", "kg_aligned_json", "kg_links_json", "triples_count", "mentions_num",
    "entity_num", "subgraph_num", "dropped_triplets", "llm_input_tokens",
    "llm_output_tokens", "embed_tokens",
]


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tokens_per_doc(metrics: pa.Table) -> float:
    row = metrics.to_pylist()[0]
    return (row["llm_input_tokens"] + row["llm_output_tokens"] + row["embed_tokens"]) / row["docs"]


def completion_calls_per_doc(docs_kg: pa.Table) -> float:
    """Completion calls the mock answered, implied by docs_kg: one IE
    call, one ET call when IE kept a triple, one LP call per predicted
    link."""
    n = docs_kg.num_rows
    et = sum(1 for c in docs_kg.column("triples_count").to_pylist() if c > 0)
    lp = sum(len(json.loads(x)) for x in docs_kg.column("kg_links_json").to_pylist())
    return (n + et + lp) / n


def _stub_delta(after: dict, before: dict) -> dict:
    """One round's stub counters (the stub restarts its maximum per round)."""
    return {k: after[k] - before[k] for k in after if k != "inflight_max"} | {
        "inflight_max": after["inflight_max"]}


def run_corpus(ctx) -> Result:
    """``corpus_cpu`` / ``corpus_llm``."""
    from ctinexus_ray.pipelines.kg import run_kg_to_parquet
    from ctinexus_ray.sources.documents import read_cc

    config = ctx.config()
    n_docs = ctx.n_docs
    durations, deltas = [], []
    deadline = time.perf_counter() + ctx.seconds
    out = None
    while True:
        if out is not None:
            shutil.rmtree(out)
        out = ctx.run_dir / f"round{len(durations)}"
        before = ctx.stub_new_round()
        with ctx.tracer.span("round", trace_id=len(durations)):
            start = time.perf_counter()
            run_kg_to_parquet(read_cc(ctx.files), str(out), config)
            durations.append(time.perf_counter() - start)
        if before is not None:
            deltas.append(_stub_delta(ctx.stub_stats(), before))
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    rss = peak_rss_mb()

    docs_kg = checks.read_parts(out / "docs_kg")
    checks.docs_complete(docs_kg, ctx.files)
    if ctx.workload == "corpus_llm":
        checks.docs_kg_equal(docs_kg, checks.expected_docs_kg(ctx.files, KG_DOC_COLUMNS))
        calls = statistics.median(d["requests"] / n_docs for d in deltas)
    else:
        checks.sampled_rows(docs_kg, ctx.files, every=max(1, n_docs // 128))
        calls = completion_calls_per_doc(docs_kg)
    checks.nodes_match_triples(out / "nodes", out / "triples")

    # a lost document fails docs_complete above, so none fail here
    attempted, failed = n_docs * len(durations), 0
    docs_per_s = statistics.median(n_docs / d for d in durations)
    metrics = {
        "docs_per_s": docs_per_s,
        "tick_p50_s": statistics.median(durations),
        "driver_peak_rss_mb": rss,
        "llm_tokens_per_doc": tokens_per_doc(checks.read_parts(out / "metrics")),
        "llm_calls_per_doc": calls,
        "ok_frac": 1.0 - failed / attempted,
    }
    if ctx.trace:
        metrics = corpus_layers(ctx, config, docs_per_s, deltas)
    return Result(metrics, attempted, failed)


def corpus_layers(ctx, config, docs_per_s: float, deltas: list[dict]) -> dict:
    from ctinexus_ray.pipelines.kg import default_demos

    demos = default_demos(config)
    found = {"trace.docs_per_s": docs_per_s}
    found |= _common_probes(ctx, config, demos)
    if deltas:  # the stub saw the timed builds' concurrent traffic
        found |= {
            "llm.inflight_mean": statistics.median(d["inflight_area"] / d["busy_s"] for d in deltas),
            "llm.inflight_max": max(d["inflight_max"] for d in deltas),
            "llm.retries": statistics.median(d["failed"] for d in deltas),
            "llm.useful_ratio": statistics.median(
                (d["requests"] - d["failed"]) / d["requests"] for d in deltas),
        }
    probe_files = ctx.probe_shards(2, ctx.shape.tick_probe_docs)
    found |= layers.tick_probe(ctx.tracer, probe_files, str(ctx.run_dir / "tick_probe"),
                               config, cold=1)
    return found


def _common_probes(ctx, config, demos) -> dict:
    from ctinexus_ray.llm.client import get_client

    sample = pq.read_table(ctx.files[0]).slice(0, ctx.shape.probe_docs)
    ctx.stub_new_round()
    found = layers.stage_probe(ctx.tracer, sample, config, demos, get_client(config))
    found |= layers.operator_probe(ctx.files[:ctx.shape.op_probe_shards], config, demos)
    return found


def run_shard_ticks(ctx) -> Result:
    from ctinexus_ray.pipelines.kg_incr import read_kg_metrics_view, run_kg_incremental

    import ray

    config = ctx.config()
    cold = ctx.shape.cold_shards
    cold_docs = cold * ctx.shape.docs_per_shard
    builds, ticks, written = [], [], []
    deadline = time.perf_counter() + ctx.seconds
    out = None
    while True:
        if out is not None:
            shutil.rmtree(out)
        out = ctx.run_dir / f"round{len(builds)}"
        with ctx.tracer.span("cold", trace_id=len(builds)):
            start = time.perf_counter()
            run_kg_incremental(ctx.files[:cold], str(out), config)
            builds.append(time.perf_counter() - start)
        if ctx.trace:
            d, w = layers.split_ticks(ctx.tracer, ctx.files, str(out), config, cold)
            ticks += d
            written += w
        else:
            for k in range(cold, len(ctx.files)):
                start = time.perf_counter()
                run_kg_incremental(ctx.files[:k + 1], str(out), config)
                ticks.append(time.perf_counter() - start)
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()

    docs_kg = checks.read_parts(out / "docs_kg")
    checks.docs_complete(docs_kg, ctx.files)
    checks.views_match_full(str(out), config)
    metrics_view = pa.concat_tables(
        ray.get(read_kg_metrics_view(str(out / "metrics_view")).to_arrow_refs()))

    # a tick that raises ends the run, and a lost document fails
    # docs_complete above, so none fail here
    attempted = len(builds) * cold_docs + len(ticks) * ctx.shape.docs_per_shard
    failed = 0
    docs_per_s = statistics.median(cold_docs / b for b in builds)
    metrics = {
        "docs_per_s": docs_per_s,
        "tick_p50_s": statistics.median(ticks),
        "driver_peak_rss_mb": rss,
        "llm_tokens_per_doc": tokens_per_doc(metrics_view),
        "llm_calls_per_doc": completion_calls_per_doc(docs_kg),
        "ok_frac": 1.0 - failed / attempted,
    }
    if ctx.trace:
        from ctinexus_ray.pipelines.kg import default_demos

        metrics = {"trace.docs_per_s": docs_per_s}
        metrics |= _common_probes(ctx, config, default_demos(config))
        metrics |= layers.fold_metrics(ctx.tracer, str(out), written)
    return Result(metrics, attempted, failed)


WORKLOADS = {
    "corpus_cpu": run_corpus,
    "corpus_llm": run_corpus,
    "shard_ticks": run_shard_ticks,
}
