"""Distributed graph algorithms over edge datasets.

Connected components lives in ``ops.distjoin`` (it shares the join
machinery); this module holds the iterative rank/propagation family.

The reference system has no corpus-scale graph ops (its graphs are
per-document, reference ctinexus/graph_constructor.py) — these exist for
the web-scale link-analysis shapes (host ranking for crawl
prioritization, dup-cluster authority picking).

Two implementations of PageRank, identical semantics:

``pagerank``        Pregel-style pinned partitions (the default). The
                    edge set is hash-shuffled by ``src`` ONCE into P
                    partition actors; after setup, each iteration moves
                    only node-sized float arrays (the per-partition
                    contribution sums) between actors — the edge set
                    never crosses the wire again. This is the classic
                    fixed-cluster iterative-graph shape (Pregel /
                    GraphX): raw Ray actors are justified here because
                    the Dataset API cannot express "keep this partition
                    resident across iterations" — a Dataset join
                    re-shuffles edge-sized data every round.
``pagerank_joins``  The pure-Dataset expression (2 hash joins + 1
                    partitioned aggregate per iteration). Exact same
                    results; kept as the no-actor-state fallback and as
                    the parity oracle for the Pregel path. Per-iteration
                    cost is edge-sized shuffles, so it loses badly on
                    latency — use only where actor lifetimes are
                    unavailable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ctinexus_ray.ops.distjoin import hash_join
from ctinexus_ray.ops.groupagg import partitioned_agg

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _symmetrize_edges(
    edges: ray.data.Dataset,
    out_a: str,
    out_b: str,
    carry: list[str] | None = None,
) -> ray.data.Dataset:
    """Both directions of a canonical (a, b) edge list as int64
    (out_a, out_b) — the shared first step of the wedge/walk family.
    ``carry`` names extra int64 columns (e.g. a weight) duplicated onto
    both directions."""

    def do(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        cols = {
            out_a: pc.cast(pa.chunked_array([a, b]), pa.int64()),
            out_b: pc.cast(pa.chunked_array([b, a]), pa.int64()),
        }
        for name in carry or ():
            c = batch.column(name).combine_chunks()
            cols[name] = pc.cast(pa.chunked_array([c, c]), pa.int64())
        return pa.Table.from_pydict(cols)

    return edges.map_batches(do, batch_format="pyarrow")


def _coalesce_blocks(d: ray.data.Dataset) -> ray.data.Dataset:
    """Materialize with block-count hygiene for ITERATIVE frontier ops:
    a dataset inheriting 64 tiny blocks from an upstream shuffle costs
    64 sub-second tasks PER STAGE PER ROUND (measured 108 s -> 7 s on
    the name graph after coalescing in bfs_hops). Target ~250k
    rows/block; inputs needing more than 64 such blocks are genuinely
    large — they SKIP coalescing and keep their parallelism (clamping
    them to 64 giant blocks would be the opposite bug)."""
    m = d.materialize()
    need = m.count() // 250_000 + 1
    if need > 64:
        return m
    target = max(1, need)
    if m.num_blocks() > 4 * target:
        # identity map pins ARROW block type (upstream map_groups
        # stages emit pandas blocks; repartition refuses mixed types)
        m = (
            m.map_batches(lambda b: b, batch_format="pyarrow")
            .repartition(target)
            .materialize()
        )
    return m


def _frontier_fanout(f_node: "np.ndarray", e_s: "np.ndarray"):
    """Vectorized frontier fan-out shared by the broadcast-frontier ops
    (betweenness_sampled.expand, sssp_bounded.relax): for edge sources
    ``e_s`` against the NODE-SORTED frontier array ``f_node``, return
    (keep, fidx, reps) — the boolean edge mask, the frontier row index
    per fan-out row, and the per-kept-edge repeat counts. None when no
    edge source appears in the frontier."""
    lo = np.searchsorted(f_node, e_s, "left")
    hi = np.searchsorted(f_node, e_s, "right")
    reps = hi - lo
    keep = reps > 0
    if not keep.any():
        return None
    lo, reps = lo[keep], reps[keep]
    cum = np.cumsum(reps)
    offs = np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(
        cum - reps, reps
    )
    fidx = np.repeat(lo, reps) + offs
    return keep, fidx, reps


def _rename_cols(ds: ray.data.Dataset, names: list[str]) -> ray.data.Dataset:
    def do(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(names)

    return ds.map_batches(do, batch_format="pyarrow")


def _node_part(nodes: np.ndarray, p: int) -> np.ndarray:
    """Deterministic partition of int64 node ids: Fibonacci multiply-mix
    then mod P (plain ``% P`` would collide with structured id spaces
    like offset ranges)."""
    with np.errstate(over="ignore"):
        h = nodes.astype(np.uint64) * _MIX
    return ((h >> np.uint64(33)) % np.uint64(p)).astype(np.int64)


@ray.remote
def _split_block(block: pa.Table, p: int) -> list[pa.Table]:
    """Map side of the one-time edge shuffle: slice a block into P
    sub-tables by ``hash(src) % P``. Returned as a list so the driver can
    route shard j of every block to actor j (each byte moves once)."""
    if block.num_rows == 0:  # empty blocks may carry an empty schema
        return [block.slice(0, 0)] * p
    src = block.column("src").to_numpy(zero_copy_only=False)
    part = _node_part(src, p)
    out = []
    for j in range(p):
        mask = part == j
        out.append(block.filter(pa.array(mask)) if mask.any() else block.slice(0, 0))
    return out


@ray.remote
class _PRPartition:
    """Owns the edges whose src hashes to this partition AND the rank
    slice for the nodes that hash here. All per-iteration state is
    preloaded numpy; iterations are pure vector ops + P outgoing float
    arrays."""

    def __init__(self, part_id: int, p: int):
        self.part_id = part_id
        self.p = p

    def load_edges(self, shards: list) -> None:
        # refs arrive unresolved inside the list (Ray only resolves
        # top-level args); get() here is zero-copy from the local store
        shards = [
            ray.get(s) if isinstance(s, ray.ObjectRef) else s for s in shards
        ]
        tabs = [t for t in shards if t.num_rows]
        if tabs:
            t = pa.concat_tables(tabs)
            self.src = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
            self.dst = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            self.src = np.empty(0, dtype=np.int64)
            self.dst = np.empty(0, dtype=np.int64)

    def dst_nodes_by_part(self) -> list[np.ndarray]:
        """Distinct dst node ids grouped by owner partition. Sent once at
        setup — these are also the fixed key vectors for the
        per-iteration contribution sums, so iterations ship floats only."""
        part = _node_part(self.dst, self.p)
        self._dst_unique = []
        self._dst_pos = []  # per target partition: edge-subset indices
        self._edges_to = []
        for j in range(self.p):
            sel = np.nonzero(part == j)[0]
            uniq, pos = (
                np.unique(self.dst[sel], return_inverse=True)
                if len(sel)
                else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            )
            self._dst_unique.append(uniq)
            self._dst_pos.append(pos)
            self._edges_to.append(sel)
        return self._dst_unique

    def build_nodes(self, incoming_dsts: list[np.ndarray]) -> int:
        """Node universe for this partition = local srcs ∪ dsts routed
        here from every partition. Also precomputes the per-edge src
        index, out-degrees, and the incoming-array scatter indexes (all
        fixed across iterations). Returns the local node count."""
        self.nodes = np.unique(
            np.concatenate([self.src] + [a for a in incoming_dsts])
        ) if (len(self.src) or any(len(a) for a in incoming_dsts)) else np.empty(0, dtype=np.int64)
        self.src_idx = np.searchsorted(self.nodes, self.src)
        self.outdeg = np.zeros(len(self.nodes), dtype=np.float64)
        np.add.at(self.outdeg, self.src_idx, 1.0)
        # where each partition's fixed dst-key vector lands in my nodes
        self._in_idx = None  # built lazily on first apply (needs peers' keys)
        return len(self.nodes)

    def init_ranks(self, n_total: int, damping: float) -> None:
        self.n_total = n_total
        self.damping = damping
        self.rank = np.full(len(self.nodes), 1.0 / n_total) if n_total else np.empty(0)

    def compute(self) -> list:
        """Per-iteration send: for each target partition j, the float sums
        aligned with the fixed dst-key vector sent at setup; final slot is
        this partition's dangling rank mass (outdeg == 0)."""
        shares = np.zeros(len(self.src), dtype=np.float64)
        if len(self.src):
            shares = self.rank[self.src_idx] / self.outdeg[self.src_idx]
        out = []
        for j in range(self.p):
            sums = np.zeros(len(self._dst_unique[j]), dtype=np.float64)
            sel = self._edges_to[j]
            if len(sel):
                np.add.at(sums, self._dst_pos[j], shares[sel])
            out.append(sums)
        out.append(float(self.rank[self.outdeg == 0.0].sum()))
        return out

    def set_in_keys(self, keys: list[np.ndarray]) -> None:
        """Cache, once, where each peer's fixed dst-key vector scatters
        into this partition's node array."""
        self._in_idx = [
            np.searchsorted(self.nodes, k) if len(k) else np.empty(0, dtype=np.int64)
            for k in keys
        ]

    def apply(self, dangling_total: float, partials: list) -> None:
        partials = [
            ray.get(s) if isinstance(s, ray.ObjectRef) else s for s in partials
        ]
        contrib = np.zeros(len(self.nodes), dtype=np.float64)
        for idx, sums in zip(self._in_idx, partials):
            if len(idx):
                np.add.at(contrib, idx, sums)
        d, n = self.damping, self.n_total
        self.rank = (1.0 - d) / n + d * contrib + d * dangling_total / n

    def ranks_table(self) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "node": pa.array(self.nodes, type=pa.int64()),
                "rank": pa.array(self.rank, type=pa.float64()),
            }
        )


def pagerank(
    edges: ray.data.Dataset,
    damping: float = 0.85,
    iterations: int = 5,
    num_partitions: int = 8,
) -> ray.data.Dataset:
    """Iterative PageRank over an (src, dst) int64 edge dataset —
    Pregel-style pinned partitions (module docstring has the two-impl
    rationale).

    Setup: ONE hash shuffle of the edge set by ``src`` into
    ``num_partitions`` actors (each byte moves once, map tasks split
    blocks, actors concatenate their shards), then a single node-id
    exchange that doubles as the fixed key vectors for every later
    round. Per iteration: each actor computes ``rank/outdeg`` shares
    (numpy, vectorized), pre-combines them by dst per target partition,
    and ships P float arrays; the driver reduces only the P dangling
    scalars. Rank vectors never leave their actor until the final
    ``ranks_table`` collection.

    Dangling mass is handled exactly: actors report the rank sum of
    their zero-outdegree nodes; every node receives
    ``d * dangling / n`` (the uniform teleport of the dangling rank),
    matching the textbook formulation and ``pagerank_joins``.

    At 100 TB (host graph ~10^9 nodes, 10^11 edges): each actor holds
    |E|/P edges and |V|/P ranks; per-iteration network is the
    contribution partials, ~|V| floats total after the in-actor
    combine. Size ``num_partitions`` so an actor's edge slice fits its
    heap. Multi-edges contribute multiply (dedup upstream if unwanted).
    Returns (node, rank).
    """
    p = num_partitions
    blocks = [
        ref
        for bundle in edges.materialize().iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    actors = [_PRPartition.remote(i, p) for i in range(p)]
    if not blocks:
        for actor in actors:
            actor.load_edges.remote([])
    elif p == 1:
        # no split needed: every block belongs to the single partition
        # (block refs resolve to the Arrow tables inside the actor)
        actors[0].load_edges.remote(list(blocks))
    else:
        split_refs = [
            _split_block.options(num_returns=p).remote(b, p) for b in blocks
        ]
        for j, actor in enumerate(actors):
            actor.load_edges.remote([shards[j] for shards in split_refs])
    # node-id exchange (fixed per-iteration key vectors fall out of it)
    dst_lists = ray.get([a.dst_nodes_by_part.remote() for a in actors])
    counts = ray.get(
        [
            a.build_nodes.remote([dst_lists[i][j] for i in range(p)])
            for j, a in enumerate(actors)
        ]
    )
    n_total = int(sum(counts))
    if n_total == 0:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array([], type=pa.int64()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        )
    ray.get([a.init_ranks.remote(n_total, damping) for a in actors])
    ray.get(
        [
            a.set_in_keys.remote([dst_lists[i][j] for i in range(p)])
            for j, a in enumerate(actors)
        ]
    )

    for _ in range(iterations):
        outs = [a.compute.options(num_returns=p + 1).remote() for a in actors]
        dangling = float(sum(ray.get([o[p] for o in outs])))
        ray.get(
            [
                a.apply.remote(dangling, [outs[i][j] for i in range(p)])
                for j, a in enumerate(actors)
            ]
        )

    tables = ray.get([a.ranks_table.remote() for a in actors])
    for a in actors:
        ray.kill(a)
    return ray.data.from_arrow(
        [t for t in tables if t.num_rows]
        or [
            pa.Table.from_pydict(
                {
                    "node": pa.array([], type=pa.int64()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        ]
    )


def pagerank_joins(
    edges: ray.data.Dataset,
    damping: float = 0.85,
    iterations: int = 5,
    num_partitions: int = 16,
    seeds: list[int] | None = None,
) -> ray.data.Dataset:
    """Pure-Dataset PageRank (parity twin of ``pagerank`` — see module
    docstring).

    ``seeds`` switches on PERSONALIZED PageRank: the teleport vector
    concentrates on the seed set (p(v) = 1/len(seeds) for seeds, 0
    elsewhere) instead of being uniform — initial rank, the (1-d) base
    term and the dangling-mass redistribution all follow p(v). This is
    the topic-/trust-biased relevance primitive (TrustRank seed
    propagation, crawl-frontier prioritization from trusted hosts).
    Seeds absent from the graph silently drop their teleport share on
    both engine and oracle (total rank < 1), keeping the SQL twin
    exact. The seed array is broadcast once; the plan is otherwise
    identical to uniform PageRank. The Pregel ``pagerank`` actor path
    stays uniform-teleport; use this joins path for PPR.

    Per iteration: ranks (node-sized) hash-join the edge list on src,
    contributions ``rank / outdeg`` reduce by dst (hash-partitioned,
    map-side combinable), and a left join writes the new rank vector —
    2 joins + 1 aggregate, all streaming shuffles; the ONLY driver-side
    value is the scalar total-contribution (dangling mass = ``1 -
    total``, exact because ranks are normalized to sum to 1). The rank
    vector is materialized each iteration so lineage stays O(1) deep.
    Every materialize coalesces to ``num_partitions`` blocks: sort
    shuffles scale with input block count, and unbounded growth is what
    made the first cut of this function minutes-slow on a 1 600-node
    graph. Multi-edges are NOT deduplicated. Returns (node, rank).
    """
    # the edge input feeds FOUR scans below (src/dst node universe,
    # out-degree, the weighted-edge join) — materialize once so a lazy
    # upstream pipeline (e.g. an orders x lineitem join) doesn't
    # re-execute per scan (measured 30 s -> 14 s on the trade graph)
    edges = edges.materialize()
    # node universe + out-degree (computed once)
    src_nodes = edges.select_columns(["src"]).map_batches(
        lambda b: b.rename_columns(["node"]), batch_format="pyarrow"
    )
    dst_nodes = edges.select_columns(["dst"]).map_batches(
        lambda b: b.rename_columns(["node"]), batch_format="pyarrow"
    )
    nodes = (
        partitioned_agg(
            src_nodes.union(dst_nodes),
            keys=["node"],
            named_aggs={"_one": ("node", "size")},
            num_partitions=num_partitions,
        )
        .select_columns(["node"])
        .repartition(num_partitions)
        .materialize()
    )
    n_nodes = nodes.count()

    outdeg = partitioned_agg(
        edges.select_columns(["src"]),
        keys=["src"],
        named_aggs={"outdeg": ("src", "size")},
        num_partitions=num_partitions,
    )
    # attach outdeg to each edge once: per-iteration work is then a
    # single rank join (deg never moves again)
    edges_w = (
        hash_join(edges, outdeg, on=["src"], num_partitions=num_partitions)
        .repartition(num_partitions)
        .materialize()
    )

    seed_arr = None
    if seeds is not None:
        if not seeds:
            raise ValueError("pagerank_joins: seeds must be non-empty")
        seed_arr = np.sort(np.asarray(sorted(set(seeds)), dtype=np.int64))
        if len(seed_arr) != len(seeds):
            raise ValueError("pagerank_joins: duplicate seed ids")
        seed_ref = ray.put(seed_arr)
        p_seed = 1.0 / len(seeds)

        def p_of(node_col: pa.ChunkedArray | pa.Array) -> np.ndarray:
            sa = ray.get(seed_ref)
            nodes_np = np.asarray(
                node_col.to_numpy(zero_copy_only=False), dtype=np.int64
            )
            pos = np.searchsorted(sa, nodes_np)
            pos[pos == len(sa)] = 0
            hit = sa[pos] == nodes_np
            return np.where(hit, p_seed, 0.0)

    init = 1.0 / n_nodes

    def seed(batch: pa.Table) -> pa.Table:
        if seed_arr is None:
            rank = pa.array([init] * batch.num_rows, type=pa.float64())
        else:
            rank = pa.array(p_of(batch.column("node")), type=pa.float64())
        return batch.append_column("rank", rank)

    ranks = nodes.map_batches(seed, batch_format="pyarrow").materialize()
    base = (1.0 - damping) / n_nodes

    for _ in range(iterations):
        ranks_keyed = ranks.map_batches(
            lambda b: b.rename_columns(["src", "rank"]), batch_format="pyarrow"
        )
        joined = hash_join(
            edges_w, ranks_keyed, on=["src"], num_partitions=num_partitions
        )

        def contrib(batch: pa.Table) -> pa.Table:
            share = pc.divide(
                batch.column("rank"),
                batch.column("outdeg").cast(pa.float64()),
            )
            return pa.Table.from_pydict(
                {"node": batch.column("dst"), "share": share}
            )

        contribs = (
            partitioned_agg(
                joined.map_batches(contrib, batch_format="pyarrow"),
                keys=["node"],
                named_aggs={"contrib": ("share", "sum")},
                num_partitions=num_partitions,
            )
            .repartition(num_partitions)
            .materialize()
        )
        total = contribs.sum("contrib") or 0.0
        dangling = 1.0 - total

        updated = hash_join(
            nodes,
            contribs,
            on=["node"],
            how="left",
            num_partitions=num_partitions,
        )

        def new_rank(batch: pa.Table) -> pa.Table:
            c = batch.column("contrib").combine_chunks().fill_null(0.0)
            if seed_arr is None:
                rank = pc.add(
                    pc.add(
                        pa.scalar(base),
                        pc.multiply(pa.scalar(damping), c),
                    ),
                    pa.scalar(damping * dangling / n_nodes),
                )
            else:
                # mirrors the SQL twin term for term:
                # (1-d)*p + d*contrib + (d*(1-tot))*p
                p = p_of(batch.column("node"))
                cf = np.asarray(c.to_numpy(zero_copy_only=False))
                rank = pa.array(
                    (1.0 - damping) * p
                    + damping * cf
                    + (damping * dangling) * p,
                    type=pa.float64(),
                )
            return pa.Table.from_pydict(
                {"node": batch.column("node"), "rank": rank}
            )

        ranks = (
            updated.map_batches(new_rank, batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )

    return ranks


def triangle_count(
    edges: ray.data.Dataset, num_partitions: int | None = None
) -> int:
    """Exact triangle count of an undirected graph, distributed.

    ``edges`` must be canonical: columns (a, b) with a < b, one row per
    edge. Two hash-partitioned joins (the standard wedge-close plan —
    each triangle a<b<c is produced exactly once with b as the wedge
    middle):

      1. wedges: edges(a,b) JOIN edges(b,c) on the shared middle b
      2. close:  wedges(a,b,c) SEMI-JOIN edges on (a,c)

    Both sides stream through the exchange; no adjacency list ever
    materializes on one node. Skewed hubs cost what they cost in wedge
    fan-out (degree^2) — cap or sample hub nodes upstream if the graph
    has celebrity vertices.
    """
    from ctinexus_ray.ops.distjoin import hash_join

    # consumed three times (both wedge-join sides + the close join) —
    # materialize once or the whole upstream edge plan re-executes 3x
    edges = edges.materialize()

    def rename(ds, names):
        def do(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(names)

        return ds.map_batches(do, batch_format="pyarrow")

    int64 = pa.int64()
    left = rename(edges, ["wa", "mid"])   # (a, b) -> middle = b
    right = rename(edges, ["mid", "wc"])  # (b, c)
    wedges = hash_join(
        left,
        right,
        on=["mid"],
        num_partitions=num_partitions,
        left_types={"wa": int64, "mid": int64},
        right_types={"mid": int64, "wc": int64},
    ).select_columns(["wa", "wc"])
    closed = hash_join(
        wedges,
        rename(edges, ["wa", "wc"]),
        on=["wa", "wc"],
        how="left_semi",
        num_partitions=num_partitions,
        left_types={"wa": int64, "wc": int64},
        right_types={"wa": int64, "wc": int64},
    )
    return closed.count()


def degree_histogram(
    edges: ray.data.Dataset, num_partitions: int | None = None
) -> ray.data.Dataset:
    """(degree, n_nodes) distribution of an undirected canonical edge
    list — two hash-partitioned counts (node endpoints explode is 2x
    the edge table; nothing else moves)."""
    from ctinexus_ray.ops.groupagg import partitioned_agg

    def endpoints(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nodes = pa.chunked_array(
            [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
        )
        return pa.Table.from_pydict({"node": pc.cast(nodes, pa.int64())})

    deg = partitioned_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        keys=["node"],
        named_aggs={"degree": ("node", "size")},
        num_partitions=num_partitions,
    )
    return partitioned_agg(
        deg.select_columns(["degree"]),
        keys=["degree"],
        named_aggs={"n_nodes": ("degree", "size")},
        num_partitions=num_partitions,
    )


def k_core(
    edges: ray.data.Dataset,
    k: int,
    rounds: int = 8,
    num_partitions: int | None = None,
    dead_broadcast_rows: int = 4_000_000,
) -> ray.data.Dataset:
    """k-core peeling over an undirected canonical (a < b) edge list:
    ``rounds`` iterations of "drop every node with degree < k and all
    its edges", then the surviving nodes with their in-core degrees.

    A FIXED round count (not run-to-convergence) keeps the op
    SQL-expressible — the oracle is the same ``rounds`` unrolled CTE
    stages, exactly like the PageRank twin — while an early exit fires
    when an iteration removes nothing (further rounds are then no-ops on
    both sides, so results still match bit-for-bit). Real graphs peel in
    a handful of rounds; pass a larger ``rounds`` for pathological
    chains.

    Scale shape: per round one endpoint-exploded degree count (edge-2x
    map volume, node-sized output), then edges touching DEAD nodes are
    dropped. The dead set after round 1 is almost always tiny (peeling
    removes the fringe), so when it fits ``dead_broadcast_rows`` it is
    ``ray.put`` once and the filter is a zero-shuffle vectorized
    ``searchsorted`` map; a large dead set falls back to two
    hash-partitioned semi-joins against the live set. Each round
    materializes the surviving edges so lineage stays O(1); convergence
    (dead set empty) exits early — both sides then agree bit-for-bit
    because the remaining oracle rounds are no-ops. Output:
    (node:int64, deg:int64).
    """
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    def endpoints(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nodes = pa.chunked_array(
            [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
        )
        return pa.Table.from_pydict({"node": pc.cast(nodes, pa.int64())})

    def degrees(es: ray.data.Dataset) -> ray.data.Dataset:
        return partitioned_agg(
            es.map_batches(endpoints, batch_format="pyarrow"),
            keys=["node"],
            named_aggs={"deg": ("node", "size")},
            num_partitions=num_partitions,
        )

    def rename(ds: ray.data.Dataset, src: str, dst: str) -> ray.data.Dataset:
        def do(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [dst if c == src else c for c in batch.schema.names]
            )

        return ds.map_batches(do, batch_format="pyarrow")

    cur = edges.select_columns(["a", "b"]).materialize()
    for _ in range(rounds):
        if cur.count() == 0:
            break
        deg = degrees(cur).materialize()
        dead = deg.filter(expr=f"deg < {k}").select_columns(["node"])
        n_dead = dead.count()
        if n_dead == 0:
            break  # converged: every remaining node is in the k-core
        if n_dead <= dead_broadcast_rows:
            # n_dead > 0 guarantees at least one non-empty block; empty
            # filter partitions can carry a column-less schema, skip them
            dead_ids = np.sort(
                np.concatenate(
                    [
                        t.column("node").to_numpy(zero_copy_only=False)
                        for t in ray.get(dead.to_arrow_refs())
                        if t.num_rows
                    ]
                ).astype(np.int64)
            )
            dead_ref = ray.put(dead_ids)

            def drop_dead(batch: pa.Table, dead_ref=dead_ref) -> pa.Table:
                ids = ray.get(dead_ref)
                a = batch.column("a").to_numpy(zero_copy_only=False)
                b = batch.column("b").to_numpy(zero_copy_only=False)

                def hit(x: np.ndarray) -> np.ndarray:
                    pos = np.searchsorted(ids, x)
                    pos[pos == len(ids)] = 0
                    return ids[pos] == x if len(ids) else np.zeros(len(x), bool)

                return batch.filter(pa.array(~(hit(a) | hit(b))))

            cur = cur.map_batches(drop_dead, batch_format="pyarrow").materialize()
        else:
            live = deg.filter(expr=f"deg >= {k}").select_columns(["node"])
            kept = rename(
                hash_join(
                    rename(cur, "a", "node"),
                    live,
                    on=["node"],
                    how="left_semi",
                    num_partitions=num_partitions,
                ),
                "node",
                "a",
            )
            cur = (
                rename(
                    hash_join(
                        rename(kept, "b", "node"),
                        live,
                        on=["node"],
                        how="left_semi",
                        num_partitions=num_partitions,
                    ),
                    "node",
                    "b",
                )
                .select_columns(["a", "b"])
                .materialize()
            )
    return degrees(cur)


def bfs_hops(
    edges: ray.data.Dataset,
    seeds: ray.data.Dataset,
    max_hops: int,
    num_partitions: int | None = None,
    frontier_broadcast_rows: int = 4_000_000,
) -> ray.data.Dataset:
    """Multi-source BFS hop distances over an undirected canonical
    (a < b) edge list: every node reachable from any seed within
    ``max_hops`` hops, with its minimum hop count — the
    neighborhood-expansion shape (crawl frontier scheduling, dup-cluster
    blast radius, graph feature generation).

    A FIXED hop cap (not run-to-convergence) keeps the op
    SQL-expressible — the oracle is a depth-capped recursive CTE with
    ``min(dist)`` — while an early exit fires when a round discovers
    nothing new (further rounds are no-ops on both sides, so results
    still match bit-for-bit).

    Scale shape: the symmetrized edge set materializes ONCE; each round
    expands the frontier one hop. When the frontier fits
    ``frontier_broadcast_rows`` it ships once via ``ray.put`` and edge
    filtering is a zero-shuffle vectorized ``np.isin`` map (the k_core
    dead-set pattern); a giant frontier falls back to a hash-partitioned
    semi-join. Newly seen nodes are separated from the visited set by a
    distributed left-anti join — the driver never holds the visited set.
    Per-round moved data is frontier-edge-sized, never corpus-sized.
    Output: (node:int64, dist:int64); seeds are dist 0.
    """
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()

    def symmetrize(batch: pa.Table):
        if batch.num_rows == 0:
            return
        a = batch.column("a").cast(i64)
        b = batch.column("b").cast(i64)
        yield pa.Table.from_pydict(
            {
                "s": pa.chunked_array(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "d": pa.chunked_array(
                    [b.combine_chunks(), a.combine_chunks()]
                ),
            }
        )

    _coalesce = _coalesce_blocks

    sym = _coalesce(
        edges.map_batches(symmetrize, batch_format="pyarrow")
    )  # edge-sized, read every round; pinned once

    def seed_prep(batch: pa.Table):
        if batch.num_rows == 0:
            return
        yield pa.Table.from_pydict(
            {"node": batch.column("node").cast(i64)}
        )

    # distinct seeds at dist 0
    frontier = _coalesce(
        partitioned_agg(
            seeds.map_batches(seed_prep, batch_format="pyarrow"),
            keys=["node"],
            named_aggs={"_one": ("node", "size")},
            num_partitions=num_partitions or 16,
        ).select_columns(["node"])
    )

    def with_dist(ds: ray.data.Dataset, dist: int) -> ray.data.Dataset:
        def tag(batch: pa.Table):
            if batch.num_rows == 0:
                return
            n = batch.num_rows
            yield pa.Table.from_pydict(
                {
                    "node": batch.column("node"),
                    "dist": pa.array([dist] * n, type=i64),
                }
            )

        return ds.map_batches(tag, batch_format="pyarrow")

    outs = [with_dist(frontier, 0)]  # per-round node-sized pieces;
    visited = frontier  # unioned ONCE at the end (materializing the
    # growing union every round would be O(rounds^2) executions)

    for r in range(1, max_hops + 1):
        n_frontier = frontier.count()
        if n_frontier == 0:
            break
        if n_frontier <= frontier_broadcast_rows:
            fr_sorted = np.sort(
                np.concatenate(
                    [
                        np.asarray(b.column("node"))
                        for b in frontier.iter_batches(
                            batch_format="pyarrow"
                        )
                    ]
                    or [np.array([], dtype=np.int64)]
                )
            )
            fr_ref = ray.put(fr_sorted)

            def expand(batch: pa.Table, fr_ref=fr_ref):
                fr = ray.get(fr_ref)
                s = np.asarray(batch.column("s"))
                pos = np.searchsorted(fr, s)
                pos[pos == len(fr)] = 0
                hit = fr[pos] == s if len(fr) else np.zeros(len(s), bool)
                if not hit.any():
                    return
                yield pa.Table.from_pydict(
                    {"node": batch.column("d").filter(pa.array(hit))}
                )

            neighbors = sym.map_batches(expand, batch_format="pyarrow")
        else:  # giant frontier: hash-partitioned semi-join
            neighbors = hash_join(
                sym.rename_columns({"s": "node", "d": "nbr"}),
                frontier,
                on=["node"],
                how="left_semi",
                left_types={"node": i64, "nbr": i64},
                right_types={"node": i64},
                num_partitions=num_partitions,
            ).select_columns(["nbr"]).rename_columns({"nbr": "node"})

        # ONE node-hash shuffle merges the distinct and the anti-join:
        # candidates and visited co-locate by node, each partition emits
        # unique candidates not yet visited (two shuffles -> one; the
        # round-latency win measured 37 s -> ~20 s on the name graph)
        from ctinexus_ray.ops.groupagg import hash_reduce

        def tag(side: int):
            def fn(batch: pa.Table):
                if batch.num_rows == 0:
                    return
                yield pa.Table.from_pydict(
                    {
                        "node": batch.column("node").cast(i64),
                        "_side": pa.array(
                            [side] * batch.num_rows, type=pa.int8()
                        ),
                    }
                )

            return fn

        both = neighbors.map_batches(
            tag(0), batch_format="pyarrow"
        ).union(visited.map_batches(tag(1), batch_format="pyarrow"))

        def fresh(g: pa.Table) -> pa.Table:
            side = g.column("_side")
            cand = np.unique(
                np.asarray(g.filter(pc.equal(side, 0)).column("node"))
            )
            seen = np.asarray(g.filter(pc.equal(side, 1)).column("node"))
            keep = cand[~np.isin(cand, seen)]
            return pa.Table.from_pydict({"node": pa.array(keep, type=i64)})

        new = _coalesce(
            hash_reduce(
                both, ["node"], fresh, num_partitions=num_partitions or 16,
                batch_format="pyarrow",
            )
        )
        if new.count() == 0:
            break
        outs.append(with_dist(new, r))
        visited = _coalesce(visited.union(new))
        frontier = new
    out = outs[0]
    for piece in outs[1:]:
        out = out.union(piece)
    return out


def hits_scores(
    edges: ray.data.Dataset,
    iterations: int = 2,
    num_partitions: int = 16,
    broadcast_max: int = 2_000_000,
) -> ray.data.Dataset:
    """HITS (Kleinberg hubs/authorities) over an (src, dst) int64 edge
    dataset — the link-analysis companion to ``pagerank`` (hub = points
    at good authorities, authority = pointed at by good hubs; the
    crawl-frontier ranking signal PageRank's single score conflates).

    Bit-exact by construction, unlike the float textbook form: scores
    live as int64 "e9" units (initial hub = 10^9). Per half-iteration
    the raw mass ``sum(score over incident edges)`` is an INTEGER sum
    (order-independent — a distributed float sum would never
    value-hash), the global normalizer is an exact int64 sum scalar,
    and the L1 re-normalization is the per-row double
    ``FLOOR(raw * 1e9 / total + 0.5)`` with pinned operand order, so a
    SQL twin computes the identical bit pattern. Overflow bound: a
    node's raw mass is <= 1e9 * degree, and the global total <= 1e9 *
    |E| — safe in int64 below ~9e9 edges; shard the normalizer above
    that.

    Two plans, identical integer results (parity-tested):

    * ``|V| <= broadcast_max`` (the default path, and the right one up
      to ~1e8 hosts): the EDGE SET NEVER SHUFFLES. Edges materialize
      once; each half-step is one ``map_batches`` pass that looks the
      broadcast score vector up via ``ray.put`` + ``np.searchsorted``
      and emits per-batch (node, mass) integer combiners, streamed to
      the driver into a dense node vector (O(|V|) driver memory — the
      same bound the broadcast itself already imposes).
    * above ``broadcast_max``: the pure-Dataset join form (mirrors
      ``pagerank_joins``) — per half-step the node-sized score vector
      hash-joins the edge list and a hash-partitioned integer reduce +
      re-normalization join follow; only the scalar normalizers touch
      the driver. The ``pagerank`` Pregel-actor layout applies
      identically when iteration latency matters at 1e9-node scale.

    Returns (node, auth_e9, hub_e9) over the full node universe —
    sink/source nodes carry exact zeros.
    """
    from ctinexus_ray.ops.distjoin import hash_join
    from ctinexus_ray.ops.groupagg import partitioned_agg

    i64 = pa.int64()

    src_nodes = edges.select_columns(["src"]).map_batches(
        lambda b: b.rename_columns(["node"]), batch_format="pyarrow"
    )
    dst_nodes = edges.select_columns(["dst"]).map_batches(
        lambda b: b.rename_columns(["node"]), batch_format="pyarrow"
    )
    nodes = (
        partitioned_agg(
            src_nodes.union(dst_nodes),
            keys=["node"],
            named_aggs={"_one": ("node", "size")},
            num_partitions=num_partitions,
        )
        .select_columns(["node"])
        .repartition(num_partitions)
        .materialize()
    )
    edges_m = edges.repartition(num_partitions).materialize()

    def seed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "hub_e9",
            pa.array([10**9] * batch.num_rows, type=i64),
        )

    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array([], type=i64),
                    "auth_e9": pa.array([], type=i64),
                    "hub_e9": pa.array([], type=i64),
                }
            )
        )
    if n_nodes <= broadcast_max:
        return _hits_broadcast(edges, nodes, iterations)

    hubs = nodes.map_batches(seed, batch_format="pyarrow").materialize()
    auths = None

    def _normalized(
        raw: ray.data.Dataset, raw_col: str, out_col: str
    ) -> ray.data.Dataset:
        """L1 e9 re-normalization over the full node universe."""
        total = raw.sum(raw_col) or 0
        total_f = float(total)
        joined = hash_join(
            nodes, raw, on=["node"], how="left", num_partitions=num_partitions
        )

        def renorm(batch: pa.Table) -> pa.Table:
            r = (
                batch.column(raw_col)
                .combine_chunks()
                .fill_null(0)
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            if total_f > 0:
                out = np.floor(r * 1e9 / total_f + 0.5).astype(np.int64)
            else:
                out = np.zeros(len(r), dtype=np.int64)
            return pa.Table.from_pydict(
                {"node": batch.column("node"), out_col: pa.array(out, type=i64)}
            )

        return (
            joined.map_batches(renorm, batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )

    for _ in range(iterations):
        # authority step: mass flows along edges src -> dst
        hub_keyed = hubs.map_batches(
            lambda b: b.rename_columns(["src", "hub_e9"]),
            batch_format="pyarrow",
        )
        auth_raw = partitioned_agg(
            hash_join(
                edges_m, hub_keyed, on=["src"], num_partitions=num_partitions
            ).map_batches(
                lambda b: pa.Table.from_pydict(
                    {"node": b.column("dst"), "mass": b.column("hub_e9")}
                ),
                batch_format="pyarrow",
            ),
            keys=["node"],
            named_aggs={"mass": ("mass", "sum")},
            num_partitions=num_partitions,
        )
        auths = _normalized(auth_raw, "mass", "auth_e9")

        # hub step: the NEW authorities flow back dst -> src
        auth_keyed = auths.map_batches(
            lambda b: b.rename_columns(["dst", "auth_e9"]),
            batch_format="pyarrow",
        )
        hub_raw = partitioned_agg(
            hash_join(
                edges_m, auth_keyed, on=["dst"], num_partitions=num_partitions
            ).map_batches(
                lambda b: pa.Table.from_pydict(
                    {"node": b.column("src"), "mass": b.column("auth_e9")}
                ),
                batch_format="pyarrow",
            ),
            keys=["node"],
            named_aggs={"mass": ("mass", "sum")},
            num_partitions=num_partitions,
        )
        hubs = _normalized(hub_raw, "mass", "hub_e9")

    return hash_join(
        auths, hubs, on=["node"], num_partitions=num_partitions
    )


def _hits_broadcast(
    edges: ray.data.Dataset, nodes: ray.data.Dataset, iterations: int
) -> ray.data.Dataset:
    """Broadcast-score HITS (see ``hits_scores``): edges never shuffle;
    each half-step is one combiner map pass + a driver-side dense
    integer accumulate bounded by |V| <= broadcast_max."""
    i64 = pa.int64()
    node_arr = np.sort(
        np.concatenate(
            [
                np.asarray(b.column("node"))
                for b in nodes.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            or [np.array([], dtype=np.int64)]
        ).astype(np.int64)
    )
    n = len(node_arr)
    node_ref = ray.put(node_arr)
    edges_m = edges.materialize()

    def half_step(scores: np.ndarray, from_col: str, to_col: str) -> np.ndarray:
        score_ref = ray.put(scores)

        def partial(batch: pa.Table) -> pa.Table:
            nodes_l = ray.get(node_ref)
            scores_l = ray.get(score_ref)
            frm = np.asarray(batch.column(from_col)).astype(np.int64)
            to = np.asarray(batch.column(to_col)).astype(np.int64)
            mass = scores_l[np.searchsorted(nodes_l, frm)]
            uniq, inv = np.unique(to, return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv, mass)
            return pa.Table.from_pydict(
                {
                    "node": pa.array(uniq, type=i64),
                    "mass": pa.array(sums, type=i64),
                }
            )

        raw = np.zeros(n, dtype=np.int64)
        partials = edges_m.map_batches(partial, batch_format="pyarrow")
        for b in partials.iter_batches(batch_format="pyarrow"):
            if not b.num_rows:
                continue
            idx = np.searchsorted(node_arr, np.asarray(b.column("node")))
            np.add.at(raw, idx, np.asarray(b.column("mass")))
        total = float(raw.sum())
        if total <= 0:
            return np.zeros(n, dtype=np.int64)
        # pinned operand order — must mirror the SQL twin exactly
        return np.floor(raw.astype(np.float64) * 1e9 / total + 0.5).astype(
            np.int64
        )

    hub = np.full(n, 10**9, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        auth = half_step(hub, "src", "dst")
        hub = half_step(auth, "dst", "src")

    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(node_arr, type=i64),
                "auth_e9": pa.array(auth, type=i64),
                "hub_e9": pa.array(hub, type=i64),
            }
        )
    )


def _wedges(
    edges: ray.data.Dataset,
    num_partitions: int | None,
    with_center_degree: bool,
    max_center_degree: int | None = None,
) -> ray.data.Dataset:
    """All open-or-closed 2-paths (x, y, center) of an undirected
    canonical (a < b) edge list, with x < y — each unordered neighbor
    pair of each center exactly once. Expressed as ONE self hash-join
    of the symmetrized edge list on the center (the triangle_count
    plan generalized to centers in any position), so wedge fan-out
    streams through the exchange and no adjacency list materializes.
    ``with_center_degree`` joins the center's degree in (for
    Adamic-Adar weights) before the wedge join so the degree rides the
    same shuffle. ``edges`` must already be materialized (it is
    consumed by both join sides)."""

    rename = _rename_cols
    int64 = pa.int64()
    sym = _symmetrize_edges(edges.select_columns(["a", "b"]), "c", "n")
    left = rename(sym, ["c", "x"])
    left_types = {"c": int64, "x": int64}
    if with_center_degree:
        deg = rename(node_degrees(edges, num_partitions), ["c", "deg"])
        left = hash_join(
            left,
            deg,
            on=["c"],
            num_partitions=num_partitions,
            left_types=left_types,
            right_types={"c": int64, "deg": int64},
        )
        left_types = {"c": int64, "x": int64, "deg": int64}
        if max_center_degree is not None:
            # opt-in celebrity-node cap (deg^2 wedge fan-out): scores
            # become "via neighbors of degree <= cap" — an explicit,
            # caller-requested approximation, never a silent default
            left = left.filter(expr=f"deg <= {int(max_center_degree)}")
    wedge = hash_join(
        left,
        rename(sym, ["c", "y"]),
        on=["c"],
        num_partitions=num_partitions,
        left_types=left_types,
        right_types={"c": int64, "y": int64},
    )

    def ordered(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("x"), batch.column("y")))

    return wedge.map_batches(ordered, batch_format="pyarrow")


def node_degrees(
    edges: ray.data.Dataset, num_partitions: int | None = None
) -> ray.data.Dataset:
    """(node, deg) of an undirected canonical edge list — endpoint
    explode (2x edge map volume) + one hash-partitioned count."""

    def endpoints(batch: pa.Table) -> pa.Table:
        nodes = pa.chunked_array(
            [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
        )
        return pa.Table.from_pydict({"node": pc.cast(nodes, pa.int64())})

    return partitioned_agg(
        edges.select_columns(["a", "b"]).map_batches(
            endpoints, batch_format="pyarrow"
        ),
        keys=["node"],
        named_aggs={"deg": ("node", "size")},
        num_partitions=num_partitions,
    )


def link_prediction(
    edges: ray.data.Dataset,
    top: int = 100,
    num_partitions: int | None = None,
    max_center_degree: int | None = None,
) -> ray.data.Dataset:
    """Common-neighbors + Adamic-Adar link prediction over an
    undirected canonical (a:int64, b:int64, a < b) edge list: for every
    NON-adjacent node pair sharing >= 1 neighbor, the shared-neighbor
    count ``cn`` and the Adamic-Adar score ``aa_u`` (sum over shared
    neighbors c of 1/ln(deg(c)), in integer nano-units — per-wedge
    FLOOR(1e9/ln(deg)+0.5) summed as int64, so the cross-row sum is
    order-independent and bit-exact vs a SQL twin). Returns the ``top``
    candidate edges by (cn desc, aa_u desc, u, v) as
    (u, v, cn, aa_u) — the KG-completion / entity-resolution
    "suggest missing edges" primitive.

    Scale shape: one degree count, one degree join, one wedge
    self-join on the center (all hash-partitioned streams; the
    triangle_count plan), one (u,v)-partitioned aggregate, one
    anti-join against the edge list, then sort+limit on the
    candidate table. Hub fan-out is deg^2 wedges, same caveat as
    triangle_count — pass ``max_center_degree`` to EXPLICITLY drop
    celebrity wedge centers (scores become "via neighbors of degree
    <= cap"; default None stays exact — never a silent cap)."""
    int64 = pa.int64()
    edges = edges.select_columns(["a", "b"]).materialize()

    wedge = _wedges(
        edges,
        num_partitions,
        with_center_degree=True,
        max_center_degree=max_center_degree,
    )

    def weight(batch: pa.Table) -> pa.Table:
        deg = batch.column("deg").to_numpy(zero_copy_only=False)
        # pinned operand order — must mirror the SQL twin exactly
        w = np.floor(1e9 / np.log(deg.astype(np.float64)) + 0.5).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {
                "u": batch.column("x"),
                "v": batch.column("y"),
                "w_u": pa.array(w, type=pa.int64()),
            }
        )

    cand = partitioned_agg(
        wedge.map_batches(weight, batch_format="pyarrow"),
        keys=["u", "v"],
        named_aggs={"cn": ("w_u", "size"), "aa_u": ("w_u", "sum")},
        num_partitions=num_partitions,
    )

    def as_uv(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["u", "v"])

    pred = hash_join(
        cand,
        edges.map_batches(as_uv, batch_format="pyarrow"),
        on=["u", "v"],
        how="left_anti",
        num_partitions=num_partitions,
        left_types={"u": int64, "v": int64, "cn": int64, "aa_u": int64},
        right_types={"u": int64, "v": int64},
    )
    return pred.sort(
        ["cn", "aa_u", "u", "v"], descending=[True, True, False, False]
    ).limit(top)


def local_clustering(
    edges: ray.data.Dataset, num_partitions: int | None = None
) -> ray.data.Dataset:
    """Per-node triangle participation over an undirected canonical
    (a < b) edge list: (node, tri, deg) for every node with deg >= 2 —
    the exact integer numerator/denominator of the local clustering
    coefficient 2*tri/(deg*(deg-1)), kept rational so the output is
    bit-exact (callers divide if they want the float).

    Plan: wedge self-join on the center (triangle_count generalized),
    close each wedge with a semi-join against the edge list, count
    closed wedges per center, left-join onto the deg >= 2 node set
    with tri defaulting to 0. All stages hash-partitioned streams."""
    int64 = pa.int64()
    edges = edges.select_columns(["a", "b"]).materialize()

    wedge = _wedges(edges, num_partitions, with_center_degree=False)

    rename = _rename_cols

    closed = hash_join(
        wedge.select_columns(["x", "y", "c"]),
        rename(edges, ["x", "y"]),
        on=["x", "y"],
        how="left_semi",
        num_partitions=num_partitions,
        left_types={"x": int64, "y": int64, "c": int64},
        right_types={"x": int64, "y": int64},
    )
    tri = rename(
        partitioned_agg(
            closed.select_columns(["c"]),
            keys=["c"],
            named_aggs={"tri": ("c", "size")},
            num_partitions=num_partitions,
        ),
        ["node", "tri"],
    )
    deg2 = node_degrees(edges, num_partitions).filter(expr="deg >= 2")
    out = hash_join(
        deg2,
        tri,
        on=["node"],
        how="left",
        num_partitions=num_partitions,
        left_types={"node": int64, "deg": int64},
        right_types={"node": int64, "tri": int64},
    )

    def finalize(batch: pa.Table) -> pa.Table:
        tri_col = pc.fill_null(pc.cast(batch.column("tri"), pa.int64()), 0)
        return pa.Table.from_pydict(
            {
                "node": batch.column("node"),
                "tri": tri_col,
                "deg": batch.column("deg"),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


_WALK_A = 2654435761  # Knuth multiplicative constant
_WALK_B = 40503


def random_walks(
    edges: ray.data.Dataset,
    walk_len: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Deterministic 'random' walks over an undirected canonical
    (a < b) edge list — the DeepWalk/node2vec corpus-generation
    primitive, made reproducible (and SQL-verifiable) by replacing the
    RNG with a pinned integer hash: one walk starts at every node, and
    at step t walk w moves to sorted-neighbors[(w*A + t*B) mod deg].
    Every worker, every run, and the SQL twin agree exactly.

    Scale shape: the frontier is walk-sized (one row per walk), the
    symmetrized edge set is materialized ONCE; each step is one
    hash-partitioned frontier-edge join (fan-out = frontier degrees)
    plus one walk-partitioned vectorized pick — no adjacency list and
    no walk history ever sit on the driver. Output:
    (walk_id, step, node) for steps 0..walk_len.
    """
    from ctinexus_ray.ops.groupagg import hash_reduce

    int64 = pa.int64()
    edges = edges.select_columns(["a", "b"]).materialize()

    sym = _symmetrize_edges(edges, "node", "nbr").materialize()

    # one walk per node; endpoints of the edge list are the node set
    def seed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"walk_id": batch.column("node"), "node": batch.column("node")}
        )

    frontier = (
        node_degrees(edges, num_partitions)
        .select_columns(["node"])
        .map_batches(seed, batch_format="pyarrow")
        .materialize()
    )

    def tag(ds: ray.data.Dataset, step: int) -> ray.data.Dataset:
        def do(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "walk_id": batch.column("walk_id"),
                    "step": pa.array(
                        np.full(batch.num_rows, step, dtype=np.int64),
                        type=int64,
                    ),
                    "node": batch.column("node"),
                }
            )

        return ds.map_batches(do, batch_format="pyarrow")

    if num_partitions is None:
        from ctinexus_ray.ops.groupagg import derive_num_partitions

        num_partitions = derive_num_partitions(sym)

    out = [tag(frontier, 0)]
    for t in range(1, walk_len + 1):
        fan = hash_join(
            frontier,
            sym,
            on=["node"],
            num_partitions=num_partitions,
            left_types={"walk_id": int64, "node": int64},
            right_types={"node": int64, "nbr": int64},
        )

        def pick(g: "pd.DataFrame", _t=t) -> "pd.DataFrame":
            # per walk: sorted neighbors, index (w*A + t*B) mod deg —
            # vectorized via group offsets on the partition frame
            g = g.sort_values(["walk_id", "nbr"], kind="mergesort")
            w = g["walk_id"].to_numpy()
            # group boundaries on the sorted frame
            starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
            sizes = np.diff(np.r_[starts, len(w)])
            wid = w[starts]
            if len(wid) and int(wid.max()) >= (1 << 31):
                # w*A must stay inside int64 exactly like the SQL twin
                raise ValueError(
                    "random_walks requires node ids < 2^31 "
                    "(the pinned walk hash multiplies by a 32-bit constant)"
                )
            idx = (wid * _WALK_A + _t * _WALK_B) % sizes
            rows = g.iloc[starts + idx]
            return rows[["walk_id", "nbr"]].rename(columns={"nbr": "node"})

        frontier = hash_reduce(
            fan.select_columns(["walk_id", "nbr"]), ["walk_id"], pick,
            num_partitions=num_partitions,
        ).materialize()
        out.append(tag(frontier, t))

    result = out[0]
    for ds in out[1:]:
        result = result.union(ds)
    return result


def biased_random_walks(
    edges: ray.data.Dataset,
    walk_len: int = 3,
    p: float = 1.0,
    q: float = 1.0,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """node2vec second-order biased walks (Grover & Leskovec 2016) with
    the RNG replaced by a pinned integer hash — reproducible across
    workers and runs. From (prev, cur), each sorted neighbor cand of
    cur gets the classic integer milli-weight: round(1000/p) if cand ==
    prev (return), 1000 if cand is adjacent to prev (BFS-ish), else
    round(1000/q) (DFS-ish); the walk picks the first candidate whose
    cumulative weight exceeds hash(walk, t) mod total. p > 1 / q < 1
    push outward (depth), p < 1 / q > 1 keep walks local (breadth).
    Step 1 has no prev, so it follows the unbiased first-order rule.

    Scale shape per step: one frontier-edge join (fan-out = frontier
    degrees), one canonical-pair left-semi join against the edge list
    to mark prev-adjacency (the only second-order state — no adjacency
    list ever materializes), one walk-partitioned vectorized pick.
    Output: (walk_id, step, node). Node ids must be < 2^31 (same
    pinned-hash contract as ``random_walks``)."""
    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    w_ret = int(round(1000.0 / p))
    w_mid = 1000
    w_out = int(round(1000.0 / q))
    if w_ret == 0 or w_out == 0:
        # a zero milli-weight can make a candidate group sum to 0 —
        # integer % 0 silently corrupts the vectorized pick (and the
        # SQL twin would error); refuse loudly instead
        raise ValueError(
            "p and q must be <= 2000 (round(1000/p) and round(1000/q) "
            "must stay >= 1 so no candidate group has zero total weight)"
        )
    int64 = pa.int64()
    edges = edges.select_columns(["a", "b"]).materialize()

    sym = _symmetrize_edges(edges, "node", "nbr").materialize()
    if num_partitions is None:
        num_partitions = derive_num_partitions(sym)

    def seed(batch: pa.Table) -> pa.Table:
        n = batch.column("node")
        return pa.Table.from_pydict(
            {
                "walk_id": n,
                "prev": pa.array(
                    np.full(len(n), -1, dtype=np.int64), type=int64
                ),
                "node": n,
            }
        )

    frontier = (
        node_degrees(edges, num_partitions)
        .select_columns(["node"])
        .map_batches(seed, batch_format="pyarrow")
        .materialize()
    )

    def tag(ds: ray.data.Dataset, step: int) -> ray.data.Dataset:
        def do(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "walk_id": batch.column("walk_id"),
                    "step": pa.array(
                        np.full(batch.num_rows, step, dtype=np.int64),
                        type=int64,
                    ),
                    "node": batch.column("node"),
                }
            )

        return ds.map_batches(do, batch_format="pyarrow")

    out = [tag(frontier, 0)]
    for t in range(1, walk_len + 1):
        fan = hash_join(
            frontier,
            sym,
            on=["node"],
            num_partitions=num_partitions,
            left_types={"walk_id": int64, "prev": int64, "node": int64},
            right_types={"node": int64, "nbr": int64},
        )

        def keyed(batch: pa.Table) -> pa.Table:
            prev = batch.column("prev").to_numpy(zero_copy_only=False)
            nbr = batch.column("nbr").to_numpy(zero_copy_only=False)
            return pa.Table.from_pydict(
                {
                    "walk_id": batch.column("walk_id"),
                    "prev": batch.column("prev"),
                    "cur": batch.column("node"),
                    "nbr": batch.column("nbr"),
                    # canonical (a, b) of the prev-nbr pair for the
                    # adjacency probe; -1 prev probes (-1, nbr): absent
                    "pa_": pa.array(np.minimum(prev, nbr), type=int64),
                    "pb_": pa.array(np.maximum(prev, nbr), type=int64),
                }
            )

        probe = fan.map_batches(keyed, batch_format="pyarrow")
        # mark candidates adjacent to prev: LEFT join edge list with a
        # presence flag riding the shuffle
        def flag_edges(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "pa_": pc.cast(batch.column("a"), int64),
                    "pb_": pc.cast(batch.column("b"), int64),
                    "adj": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64), type=int64
                    ),
                }
            )

        marked = hash_join(
            probe,
            edges.map_batches(flag_edges, batch_format="pyarrow"),
            on=["pa_", "pb_"],
            how="left",
            num_partitions=num_partitions,
            left_types={
                "pa_": int64,
                "pb_": int64,
                "walk_id": int64,
                "prev": int64,
                "cur": int64,
                "nbr": int64,
            },
            right_types={"pa_": int64, "pb_": int64, "adj": int64},
        )

        def pick(g: "pd.DataFrame", _t=t) -> "pd.DataFrame":
            g = g.sort_values(["walk_id", "nbr"], kind="mergesort")
            w = g["walk_id"].to_numpy()
            prev = g["prev"].to_numpy()
            nbr = g["nbr"].to_numpy()
            adj = g["adj"].to_numpy()
            if len(w) and int(w.max()) >= (1 << 31):
                raise ValueError(
                    "biased_random_walks requires node ids < 2^31 "
                    "(the pinned walk hash multiplies by a 32-bit constant)"
                )
            # integer milli-weights per candidate
            wt = np.where(
                nbr == prev,
                w_ret,
                np.where(~np.isnan(adj.astype(np.float64)), w_mid, w_out),
            ).astype(np.int64)
            # first-order step (prev == -1): uniform
            wt = np.where(prev == -1, 1, wt)
            starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
            sizes = np.diff(np.r_[starts, len(w)])
            totals = np.add.reduceat(wt, starts)
            wid = w[starts]
            draw = (wid * _WALK_A + _t * _WALK_B) % totals
            cum = np.cumsum(wt)
            base = np.r_[0, cum[:-1]][starts]  # cum before each group
            # pick: first index in group where running-sum > draw
            targets = base + draw
            idx = np.searchsorted(cum, targets, side="right")
            rows = g.iloc[idx]
            out_ = rows[["walk_id", "nbr"]].rename(columns={"nbr": "node"})
            out_ = out_.assign(prev=rows["cur"].to_numpy())
            return out_[["walk_id", "prev", "node"]]

        frontier = hash_reduce(
            marked.select_columns(["walk_id", "prev", "cur", "nbr", "adj"]),
            ["walk_id"], pick, num_partitions=num_partitions,
        ).materialize()
        out.append(tag(frontier, t))

    result = out[0]
    for ds in out[1:]:
        result = result.union(ds)
    return result


def lpa_communities(
    edges: ray.data.Dataset,
    rounds: int = 4,
    num_partitions: int | None = None,
    label_broadcast_rows: int = 4_000_000,
) -> ray.data.Dataset:
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007) over an undirected canonical (a, b) edge list: every node
    starts in its own community (label = node id); each round every
    node simultaneously adopts the label most frequent among its
    neighbors, ties broken by the SMALLEST label. A FIXED round count
    (not run-to-convergence) keeps the op SQL-expressible — the oracle
    is the same ``rounds`` unrolled CTE stages (count + row_number
    QUALIFY per round), the PageRank/k-core twin pattern. Synchronous
    updates make the result order-independent and bit-deterministic;
    the usual async-LPA tie flapping cannot occur.

    The reference system has no corpus-scale community detection (its
    graphs are per-document, reference ctinexus/graph_constructor.py);
    this is the dup-cluster / host-community shape for crawl curation.

    Scale shape: edges symmetrized and materialized ONCE; per round ONE
    hash join (labels onto edge sources — node-sized stream against the
    static edge set) and ONE hash-partitioned count+argmax reduce with a
    map-side (dst, label) count combine, so the shuffle carries at most
    one row per distinct (node, neighbor-label) pair, never the raw
    edge multiplicity. Labels are node-sized throughout; nothing is
    ever driver-materialized. Output: (node:int64, label:int64).
    """
    import pandas as pd

    from ctinexus_ray.ops.groupagg import derive_num_partitions, hash_reduce

    directed = _symmetrize_edges(edges, "src", "dst").materialize()
    if directed.count() == 0:
        # a fully-empty dataset carries no schema — short-circuit with
        # the typed empty result instead of feeding hash_join nothing
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array([], type=pa.int64()),
                    "label": pa.array([], type=pa.int64()),
                }
            )
        )
    if num_partitions is None:
        num_partitions = derive_num_partitions(directed)

    # round 0: every endpoint is its own community (min(node) == node)
    labels = partitioned_agg(
        _rename_cols(directed.select_columns(["src"]), ["node"]),
        keys=["node"],
        named_aggs={"label": ("node", "min")},
        num_partitions=num_partitions,
    ).materialize()

    def combine(batch: pa.Table) -> pa.Table:
        # map-side (dst, label) count: the shuffle ships partials, not
        # raw neighbor rows
        df = (
            batch.select(["dst", "label"])
            .to_pandas()
            .groupby(["dst", "label"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["dst", "label"], sort=False)["n"].sum().reset_index()
        )
        cnt = cnt.sort_values(
            ["n", "label"], ascending=[False, True], kind="mergesort"
        )
        top = cnt.groupby("dst", sort=False).head(1)
        out = top[["dst", "label"]].rename(columns={"dst": "node"})
        return out.astype({"node": "int64", "label": "int64"})

    # node-sized label tables up to ``label_broadcast_rows`` take a
    # zero-shuffle path: the sorted (node, label) arrays are ray.put
    # once per round and each edge batch attaches labels with a
    # vectorized searchsorted — ONE reduce per round instead of a hash
    # join + reduce (the k_core dead_broadcast_rows pattern). Larger
    # graphs keep the fully-streaming hash join.
    broadcast = labels.count() <= label_broadcast_rows

    def collect_labels():
        blocks = [
            t
            for t in ray.get(labels.to_arrow_refs())
            if t.num_rows
        ]
        nodes_arr = np.concatenate(
            [b.column("node").to_numpy(zero_copy_only=False) for b in blocks]
        ).astype(np.int64)
        labels_arr = np.concatenate(
            [b.column("label").to_numpy(zero_copy_only=False) for b in blocks]
        ).astype(np.int64)
        order = np.argsort(nodes_arr, kind="stable")
        return ray.put((nodes_arr[order], labels_arr[order]))

    for _ in range(rounds):
        if broadcast:
            ref = collect_labels()

            def attach(batch: pa.Table, ref=ref) -> pa.Table:
                node_arr, lab_arr = ray.get(ref)
                src = batch.column("src").to_numpy(zero_copy_only=False)
                pos = np.searchsorted(node_arr, src)
                # every src is a labeled endpoint by construction
                return pa.Table.from_pydict(
                    {
                        "dst": batch.column("dst"),
                        "label": pa.array(lab_arr[pos], type=pa.int64()),
                    }
                )

            joined = directed.map_batches(attach, batch_format="pyarrow")
        else:
            joined = hash_join(
                directed,
                _rename_cols(labels, ["src", "label"]),
                on=["src"],
                num_partitions=num_partitions,
            )
        labels = hash_reduce(
            joined.map_batches(combine, batch_format="pyarrow"),
            ["dst"], pick, num_partitions=num_partitions,
        ).materialize()
    return labels


# ---------------------------------------------------------------------------
# sampled k-bounded betweenness centrality (Brandes 2001, truncated)
# ---------------------------------------------------------------------------


def betweenness_sampled(
    edges: ray.data.Dataset,
    sources: list[int],
    max_hops: int = 3,
    num_partitions: int = 16,
    scale: int = 1_000_000_000,
    frontier_broadcast_rows: int = 4_000_000,
) -> ray.data.Dataset:
    """Sampled k-bounded betweenness centrality over an undirected
    canonical (a, b) edge list: Brandes (2001) dependency accumulation
    from a SAMPLE of source nodes (the standard estimator — Brandes &
    Pich 2007), truncated at ``max_hops`` shortest-path levels
    (k-betweenness, Pfeffer & Carley 2012) so every pass is a bounded
    number of stages AND the SQL twin stays expressible as an unrolled
    CTE chain.

    ALL sources advance together: level tables carry (src, node, sigma)
    rows. Levels are frontier-sized (<= reached nodes x sources); while
    a level fits ``frontier_broadcast_rows`` it ships ONCE via
    ``ray.put`` and both the edge expansion and the visited-set
    subtraction run as zero-shuffle vectorized maps over the
    materialized edge set (the ``bfs_hops`` broadcast pattern), leaving
    exactly ONE hash-partitioned sum per level — the path-count /
    dependency reduce. A giant frontier falls back to distributed
    hash joins, so nothing is driver-bound by construction.

    Dependencies are exact integers:
    ``delta(v) = sum_w (sigma_v * (scale + delta_w)) // sigma_w`` over
    successor edges (w one level deeper, same src) — the identical
    floor-division expression in the oracle, so the distributed sum is
    order-independent and bit-exact; Python-int contributions overflow
    LOUDLY at Arrow conversion instead of wrapping. Output:
    (node, betweenness_u) = sum over sources of delta(node) in
    ``scale`` units, one row per node reached at dist >= 1 from any
    sampled source.
    """
    from .distjoin import hash_join
    from .groupagg import partitioned_agg

    i64 = pa.int64()
    sym = _coalesce_blocks(_symmetrize_edges(edges, "node", "dst"))

    def _pairkey(src: np.ndarray, node: np.ndarray) -> np.ndarray:
        # (src, node) as one int64 probe key: src in 19 bits above 44
        # (sources are a SMALL sample by definition), node in the low 44.
        # XOR with zeroed top bits == concatenation, so src recovers via
        # >> 44. Out-of-range ids refuse loudly (the random_walks rule).
        s = np.asarray(src, dtype=np.int64)
        n = np.asarray(node, dtype=np.int64)
        if n.size and (
            int(n.max(initial=0)) >= 1 << 44 or int(n.min(initial=0)) < 0
        ):
            raise ValueError("betweenness_sampled: node ids must be in [0, 2^44)")
        if s.size and (
            int(s.max(initial=0)) >= 1 << 19 or int(s.min(initial=0)) < 0
        ):
            raise ValueError("betweenness_sampled: source ids must be in [0, 2^19)")
        return (s << 44) ^ n

    def _rows(level: ray.data.Dataset) -> list[dict]:
        return level.take_all()

    # src carries the SAMPLE INDEX (0..len(sources)-1), not the node id,
    # so the 20-bit probe-key prefix never constrains graph node ids
    seed = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "src": pa.array(range(len(sources)), type=i64),
                "node": pa.array(list(sources), type=i64),
                "sigma": pa.array([1] * len(sources), type=i64),
            }
        )
    )
    levels: list[ray.data.Dataset] = [seed.materialize()]
    level_counts = [len(sources)]
    visited = levels[0].select_columns(["src", "node"]).materialize()
    visited_count = level_counts[0]

    for _d in range(1, max_hops + 1):
        frontier = levels[-1]
        small = (
            level_counts[-1] + visited_count <= frontier_broadcast_rows
        )
        if small:
            fr = _rows(frontier)
            vis = _rows(visited)
            fr_ref = ray.put(
                (
                    np.array([r["src"] for r in fr], dtype=np.int64),
                    np.array([r["node"] for r in fr], dtype=np.int64),
                    np.array([r["sigma"] for r in fr], dtype=np.int64),
                    _pairkey(
                        np.array([r["src"] for r in vis], dtype=np.int64),
                        np.array([r["node"] for r in vis], dtype=np.int64),
                    ),
                )
            )

            def expand(batch: pa.Table, ref=fr_ref):
                f_src, f_node, f_sigma, vis_keys = ray.get(ref)
                if batch.num_rows == 0:
                    return
                e_s = batch.column("node").to_numpy(zero_copy_only=False)
                e_d = batch.column("dst").to_numpy(zero_copy_only=False)
                # order frontier rows by node for searchsorted fan-out
                order = np.argsort(f_node, kind="stable")
                fn, fs, fg = f_node[order], f_src[order], f_sigma[order]
                fan = _frontier_fanout(fn, e_s)
                if fan is None:
                    return
                keep, fidx, reps = fan
                src = fs[fidx]
                sigma = fg[fidx]
                dst = np.repeat(e_d[keep], reps)
                fresh_mask = ~np.isin(_pairkey(src, dst), vis_keys)
                if not fresh_mask.any():
                    return
                yield pa.Table.from_pydict(
                    {
                        "src": pa.array(src[fresh_mask], type=i64),
                        "node": pa.array(dst[fresh_mask], type=i64),
                        "sigma": pa.array(sigma[fresh_mask], type=i64),
                    }
                )

            fresh = partitioned_agg(
                sym.map_batches(expand, batch_format="pyarrow"),
                keys=["src", "node"],
                named_aggs={"sigma": ("sigma", "sum")},
                num_partitions=num_partitions,
            ).materialize()
        else:  # distributed fallback: join + agg + anti-join
            hop = hash_join(
                sym,
                frontier,
                on=["node"],
                num_partitions=num_partitions,
                left_types={"node": i64, "dst": i64},
                right_types={"node": i64, "src": i64, "sigma": i64},
            )

            def to_dst(batch: pa.Table):
                if batch.num_rows == 0:
                    return
                yield pa.Table.from_pydict(
                    {
                        "src": batch.column("src"),
                        "node": batch.column("dst"),
                        "sigma": batch.column("sigma"),
                    }
                )

            summed = partitioned_agg(
                hop.map_batches(to_dst, batch_format="pyarrow"),
                keys=["src", "node"],
                named_aggs={"sigma": ("sigma", "sum")},
                num_partitions=num_partitions,
            )
            fresh = hash_join(
                summed,
                visited,
                on=["src", "node"],
                how="left_anti",
                num_partitions=num_partitions,
                left_types={"src": i64, "node": i64, "sigma": i64},
                right_types={"src": i64, "node": i64},
            ).materialize()
        levels.append(fresh)
        level_counts.append(fresh.count())
        visited = visited.union(
            fresh.select_columns(["src", "node"])
        ).materialize()
        visited_count += level_counts[-1]

    # backward: deltas per level, deepest first. Broadcast shape: the
    # (v-level, w-level [+delta]) dicts ship once; ONE map over the edge
    # set emits integer contributions; ONE reduce per level.
    deltas: dict[int, dict[int, int]] = {}
    for d in range(max_hops - 1, 0, -1):
        v_rows = _rows(levels[d])
        w_rows = _rows(levels[d + 1])
        if (
            len(v_rows) + len(w_rows) > frontier_broadcast_rows
        ):  # pragma: no cover - exercised only at cluster scale
            raise ValueError(
                "betweenness_sampled: backward level exceeds "
                f"frontier_broadcast_rows={frontier_broadcast_rows}; "
                "raise the cap or reduce max_hops/sources"
            )
        dmap = deltas.get(d + 1, {})
        v_keys = _pairkey(
            np.array([r["src"] for r in v_rows], dtype=np.int64),
            np.array([r["node"] for r in v_rows], dtype=np.int64),
        )
        v_sigma = np.array([r["sigma"] for r in v_rows], dtype=np.int64)
        v_order = np.argsort(v_keys, kind="stable")
        v_keys, v_sigma = v_keys[v_order], v_sigma[v_order]
        w_keys = _pairkey(
            np.array([r["src"] for r in w_rows], dtype=np.int64),
            np.array([r["node"] for r in w_rows], dtype=np.int64),
        )
        w_sigma = np.array([r["sigma"] for r in w_rows], dtype=np.int64)
        w_delta = np.array(
            [dmap.get(int(k), 0) for k in w_keys], dtype=np.int64
        )
        w_order = np.argsort(w_keys, kind="stable")
        w_keys, w_sigma, w_delta = (
            w_keys[w_order], w_sigma[w_order], w_delta[w_order]
        )
        bref = ray.put((v_keys, v_sigma, w_keys, w_sigma, w_delta))

        def back(batch: pa.Table, ref=bref):
            vk, vs, wk, ws, wd = ray.get(ref)
            if batch.num_rows == 0 or len(vk) == 0 or len(wk) == 0:
                return
            e_s = batch.column("node").to_numpy(zero_copy_only=False)
            e_d = batch.column("dst").to_numpy(zero_copy_only=False)
            out_src, out_node, out_delta = [], [], []
            # every (src) pairing of edge (v, w): v in level d, w in d+1
            # with the SAME src. Enumerate per-source via the probe keys.
            n_src_arr = np.unique(vk >> 44)
            for s in n_src_arr:
                kv = (np.int64(s) << 44) ^ e_s
                kw = (np.int64(s) << 44) ^ e_d
                iv = np.searchsorted(vk, kv)
                iw = np.searchsorted(wk, kw)
                okv = (iv < len(vk)) & (vk[np.minimum(iv, len(vk) - 1)] == kv)
                okw = (iw < len(wk)) & (wk[np.minimum(iw, len(wk) - 1)] == kw)
                ok = okv & okw
                if not ok.any():
                    continue
                sv = vs[iv[ok]]
                sw = ws[iw[ok]]
                dw = wd[iw[ok]]
                # Python ints: exact; pa.array raises on int64 overflow
                vals = [
                    (int(a) * (scale + int(c))) // int(b)
                    for a, b, c in zip(sv, sw, dw)
                ]
                out_src.extend([int(s)] * len(vals))
                out_node.extend(int(x) for x in e_s[ok])
                out_delta.extend(vals)
            if not out_node:
                return
            yield pa.Table.from_pydict(
                {
                    "src": pa.array(out_src, type=i64),
                    "node": pa.array(out_node, type=i64),
                    "delta": pa.array(out_delta, type=i64),
                }
            )

        dd = partitioned_agg(
            sym.map_batches(back, batch_format="pyarrow"),
            keys=["src", "node"],
            named_aggs={"delta": ("delta", "sum")},
            num_partitions=num_partitions,
        ).materialize()
        deltas[d] = {
            int(_pairkey(np.int64(r["src"]), np.int64(r["node"]))): int(
                r["delta"]
            )
            for r in _rows(dd)
        }

    # accumulate: every (src, node) reached at dist >= 1 contributes its
    # delta (or 0); one reduce sums over sources
    parts = []
    for d in range(1, max_hops + 1):
        dmap_ref = ray.put(deltas.get(d, {}))

        def with_delta(batch: pa.Table, ref=dmap_ref):
            dmap = ray.get(ref)
            if batch.num_rows == 0:
                return
            src = batch.column("src").to_numpy(zero_copy_only=False)
            node = batch.column("node").to_numpy(zero_copy_only=False)
            keys = _pairkey(src, node)
            yield pa.Table.from_pydict(
                {
                    "node": pa.array(node, type=i64),
                    "delta": pa.array(
                        [dmap.get(int(k), 0) for k in keys], type=i64
                    ),
                }
            )

        parts.append(
            levels[d]
            .select_columns(["src", "node"])
            .map_batches(with_delta, batch_format="pyarrow")
        )

    uni = parts[0]
    for ds in parts[1:]:
        uni = uni.union(ds)
    return partitioned_agg(
        uni,
        keys=["node"],
        named_aggs={"betweenness_u": ("delta", "sum")},
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# bounded weighted shortest paths (Bellman-Ford rounds, min-plus)
# ---------------------------------------------------------------------------


def sssp_bounded(
    edges: ray.data.Dataset,
    sources: list[int],
    max_rounds: int = 3,
    num_partitions: int = 16,
    dist_broadcast_rows: int = 4_000_000,
) -> ray.data.Dataset:
    """Multi-source weighted shortest paths over an undirected canonical
    (a, b, w) edge list, bounded at ``max_rounds`` Bellman-Ford
    relaxation rounds — the min-plus-semiring sibling of ``bfs_hops``
    (which is the w==1 special case). A fixed round count keeps the op
    SQL-expressible (the oracle is an unrolled relax-CTE chain with the
    identical ``min(dist, dist_u + w)`` expression); extra rounds after
    convergence are no-ops on both sides because min is idempotent.

    Scale shape: the symmetrized weighted edge set materializes ONCE.
    Each round the (src, node, dist) table — bounded by reached nodes x
    sampled sources — ships once via ``ray.put`` while it fits
    ``dist_broadcast_rows``; ONE zero-shuffle searchsorted map over the
    edge set emits relax candidates, and ONE hash-partitioned MIN per
    (src, node) closes the round. A distance table past the cap falls
    back to a distributed hash join on ``node`` (the betweenness
    giant-frontier pattern) — identical candidates, one extra shuffle,
    nothing driver-bound. Weights must be non-negative int64 (negative
    weights refuse: bounded-round Bellman-Ford would silently truncate
    negative cycles).

    Output: (node, best_dist, n_sources) — per reached node, the min
    distance over the sampled sources and how many sources reach it
    within the horizon. ``src`` carries the sample index internally;
    node ids are unconstrained int64.
    """
    from .groupagg import partitioned_agg

    i64 = pa.int64()

    def check_w(batch: pa.Table) -> pa.Table:
        wmin = pc.min(batch.column("w")).as_py()
        if wmin is not None and wmin < 0:
            raise ValueError("sssp_bounded: negative edge weights refuse")
        return batch

    sym = _coalesce_blocks(
        _symmetrize_edges(
            edges.map_batches(check_w, batch_format="pyarrow"),
            "node",
            "dst",
            carry=["w"],
        )
    )


    dist = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "src": pa.array(range(len(sources)), type=i64),
                "node": pa.array(list(sources), type=i64),
                "dist": pa.array([0] * len(sources), type=i64),
            }
        )
    ).materialize()
    n_rows = len(sources)

    from ctinexus_ray.ops.distjoin import hash_join

    for _r in range(max_rounds):
        if n_rows <= dist_broadcast_rows:
            rows = dist.take_all()
            d_src = np.array([r["src"] for r in rows], dtype=np.int64)
            d_node = np.array([r["node"] for r in rows], dtype=np.int64)
            d_dist = np.array([r["dist"] for r in rows], dtype=np.int64)
            order = np.argsort(d_node, kind="stable")
            ref = ray.put((d_src[order], d_node[order], d_dist[order]))

            def relax(batch: pa.Table, ref=ref):
                f_src, f_node, f_dist = ray.get(ref)
                if batch.num_rows == 0:
                    return
                e_s = batch.column("node").to_numpy(zero_copy_only=False)
                e_d = batch.column("dst").to_numpy(zero_copy_only=False)
                e_w = batch.column("w").to_numpy(zero_copy_only=False)
                fan = _frontier_fanout(f_node, e_s)
                if fan is None:
                    return
                keep, fidx, reps = fan
                yield pa.Table.from_pydict(
                    {
                        "src": pa.array(f_src[fidx], type=i64),
                        "node": pa.array(np.repeat(e_d[keep], reps), type=i64),
                        "dist": pa.array(
                            f_dist[fidx] + np.repeat(e_w[keep], reps), type=i64
                        ),
                    }
                )

            candidates = sym.map_batches(relax, batch_format="pyarrow")
        else:
            # giant distance table: distributed relax — ONE hash join on
            # node co-locates each node's distances with its out-edges
            # (same candidates as the broadcast path, one extra shuffle)
            def join_relax(batch: pa.Table):
                if batch.num_rows == 0:
                    return
                yield pa.Table.from_pydict(
                    {
                        "src": batch.column("src"),
                        "node": batch.column("dst"),
                        "dist": pc.add(
                            batch.column("dist"), batch.column("w")
                        ),
                    }
                )

            candidates = hash_join(
                dist,
                sym,
                on=["node"],
                num_partitions=num_partitions,
                left_types={"src": i64, "node": i64, "dist": i64},
                right_types={"node": i64, "dst": i64, "w": i64},
            ).map_batches(join_relax, batch_format="pyarrow")
        dist = partitioned_agg(
            dist.union(candidates),
            keys=["src", "node"],
            named_aggs={"dist": ("dist", "min")},
            num_partitions=num_partitions,
        ).materialize()
        n_rows = dist.count()

    return partitioned_agg(
        dist,
        keys=["node"],
        named_aggs={
            "best_dist": ("dist", "min"),
            "n_sources": ("dist", "size"),
        },
        num_partitions=num_partitions,
    )
