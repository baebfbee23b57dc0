"""Generic mergeable (monoid) aggregation — the engine's one
whole-dataset fold: lift each block to a FIXED-SIZE partial state,
merge states associatively, finish once.

    result = finish( merge(lift(b1), lift(b2), ...) )

Correctness contract the caller owns: ``merge`` must be associative
and commutative over the states ``lift`` produces (block boundaries
and merge order are scheduler-controlled, so anything
order-dependent will be nondeterministic across runs) and ``zero()``
must be its identity. Hold to it and the aggregate is exact at any
scale for free.

Scale shape: ONE streaming pass lifts each block to a state inside the
block's own task (states serialize through the object store as
cloudpickle — keep them fixed-size: numpy arrays, dicts of counters,
sketch registers); a tree reduce (fan-in ``merge_arity``) combines
them so no single process ever folds more than ``merge_arity`` states
— the driver touches only the final state.

Callers: the six whole-dataset sketches in ``ops/sketch.py``
(``hll_distinct``, ``hll_set_cardinalities``, ``misra_gries_topk``,
``bloom_build``, ``tdigest_quantiles``, ``count_min_estimates``) and
the ``corpus_stats_monoid`` query. Per-key folds are
``groupagg.hash_reduce``'s job.
"""

from __future__ import annotations

from typing import Any, Callable

import ray
import ray.data


@ray.remote
def _lift_block(block, lift: Callable, zero: Callable):
    import pyarrow as pa

    if not isinstance(block, pa.Table):  # pandas block
        block = pa.Table.from_pandas(block, preserve_index=False)
    if block.num_rows == 0:
        return zero()
    return lift(block)


@ray.remote
def _merge_states(merge: Callable, *states):
    acc = states[0]
    for s in states[1:]:
        acc = merge(acc, s)
    return acc


def mergeable_aggregate(
    ds: ray.data.Dataset,
    zero: Callable[[], Any],
    lift: Callable[[Any], Any],
    merge: Callable[[Any, Any], Any],
    finish: Callable[[Any], Any] = lambda s: s,
    merge_arity: int = 8,
):
    """Fold the whole dataset into ``finish(merge(...lift(block)...))``.

    ``lift`` receives a pyarrow Table (one per block, inside that
    block's task); ``merge`` combines two states; ``zero()`` is the
    empty-input state. The reduce is a ``merge_arity``-way tree of Ray
    tasks — O(log_arity #blocks) depth, nothing corpus-sized anywhere.
    """
    if merge_arity < 2:
        raise ValueError("merge_arity must be >= 2")
    blocks = [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    if not blocks:
        return finish(zero())
    states = [_lift_block.remote(b, lift, zero) for b in blocks]
    while len(states) > 1:
        states = [
            _merge_states.remote(merge, *states[i : i + merge_arity])
            for i in range(0, len(states), merge_arity)
        ]
    return finish(ray.get(states[0]))

