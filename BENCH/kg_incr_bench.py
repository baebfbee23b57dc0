"""Incremental vs full derived-layer maintenance: +1 shard into 64.

The question the incremental KG view answers: when one new shard lands
on a large committed corpus, what does maintaining the derived layer
(nodes / triples / edges / metrics) cost?

  * FULL  — re-derive all four outputs from the entire docs_kg
    checkpoint: one fold of every shard into empty views (the
    canonicalization re-shuffle is O(corpus)).
  * INCR  — what ``pipelines/kg_incr.py`` does: fold only the new
    shard (O(new docs) map work + one copy-on-write merge over the key
    ranges its entities touch).

Run: python BENCH/kg_incr_bench.py [--shards 64] [--docs-per-shard 2500]
Prints one JSON line; the BASELINE.md round block records it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--shards", type=int, default=64)
    ap.add_argument("--docs-per-shard", type=int, default=2500)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--workdir", default="/tmp/kg_incr_bench")
    ap.add_argument("--entity-mod", type=int, default=0,
                    help="cycle document TEXTS modulo N distinct reports "
                         "(urls stay unique) — bounds the entity "
                         "vocabulary the way real webtext does (Heaps-"
                         "sublinear), so the nodes view is key-domain-"
                         "sized instead of corpus-sized; 0 = every doc "
                         "its own text (the worst case for IVM)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False)

    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import checkpoint_docs_kg
    from ctinexus_ray.pipelines.kg_incr import fold_kg_derived
    from ctinexus_ray.sources.synth import write_cc_corpus

    n_docs = args.shards * args.docs_per_shard
    corpus = os.path.join(args.workdir, "cc")
    if len(glob.glob(f"{corpus}/*.parquet")) < args.shards + 1:
        shutil.rmtree(corpus, ignore_errors=True)
        if args.entity_mod:
            import pyarrow.parquet as pq

            from ctinexus_ray.sources.synth import (
                CC_SCHEMA,
                make_cc_row,
                make_report_text,
            )

            os.makedirs(corpus)
            total = n_docs + args.docs_per_shard
            for s in range(0, total, args.docs_per_shard):
                rows = [
                    make_cc_row(i, make_report_text(i % args.entity_mod))
                    for i in range(s, min(s + args.docs_per_shard, total))
                ]
                import pyarrow as pa

                pq.write_table(
                    pa.Table.from_pylist(rows, schema=CC_SCHEMA),
                    os.path.join(
                        corpus,
                        f"part-{s // args.docs_per_shard:05d}.parquet",
                    ),
                )
        else:
            write_cc_corpus(
                corpus, n_docs + args.docs_per_shard,
                rows_per_file=args.docs_per_shard,
            )
    files = sorted(glob.glob(f"{corpus}/*.parquet"))
    base, extra = files[: args.shards], files[args.shards]

    pool = max(2, args.cpus - 4)
    config = PipelineConfig(llm_concurrency=(pool, pool))
    out = os.path.join(args.workdir, "kg")
    shutil.rmtree(out, ignore_errors=True)
    docs_kg = os.path.join(out, "docs_kg")

    t0 = time.time()
    checkpoint_docs_kg(base, docs_kg, config)
    base_ckpt_sec = time.time() - t0
    t0 = time.time()
    fold_kg_derived(out, config)
    base_fold_sec = time.time() - t0

    # the tick: one new shard lands
    t0 = time.time()
    checkpoint_docs_kg(base + [extra], docs_kg, config)
    tick_ckpt_sec = time.time() - t0
    t0 = time.time()
    incr = fold_kg_derived(out, config)
    incr_fold_sec = time.time() - t0
    assert incr["nodes_folded"] == 1, incr

    # the counterfactual: full re-derive over the 65-shard checkpoint
    # (a fold into fresh views, the checkpoint linked in)
    full_out = os.path.join(args.workdir, "kg_full_derived")
    shutil.rmtree(full_out, ignore_errors=True)
    os.makedirs(full_out)
    os.symlink(docs_kg, os.path.join(full_out, "docs_kg"))
    t0 = time.time()
    fold_kg_derived(full_out, config)
    full_derive_sec = time.time() - t0

    print(json.dumps({
        "metric": "kg_incr_tick",
        "shards": args.shards,
        "docs": n_docs,
        "docs_per_shard": args.docs_per_shard,
        "num_cpus": args.cpus,
        "base_checkpoint_sec": round(base_ckpt_sec, 2),
        "base_fold_sec": round(base_fold_sec, 2),
        "tick_checkpoint_sec": round(tick_ckpt_sec, 2),
        "incr_fold_sec": round(incr_fold_sec, 2),
        "full_derive_sec": round(full_derive_sec, 2),
        "derived_speedup": round(full_derive_sec / incr_fold_sec, 2),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
