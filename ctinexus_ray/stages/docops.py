"""Per-document KG semantics: preprocess (E8), merge (D3/A1), IOC unmerge
(E10), graph analysis + link targets (G1-G4).

These are pure functions over plain Python structures, shared by
  (a) the Ray stages (which call them per row inside ``map_batches``), and
  (b) the single-document straight-line runner used by the P/R parity tests
      (``ctinexus_ray.pipelines.singledoc``).

Faithfulness notes (SURVEY §2.11 quirks):
  * Q3 — merger clusters are DIRECT-neighbor sets, not transitive closures;
    overlapping clusters assign last-write-wins entity ids. Pair generation
    iterates a Python ``set`` of mention ids exactly like the reference
    (CPython set-of-small-int iteration order is deterministic for given
    contents), reference ctinexus/graph_constructor.py:394-436.
  * Q4 — singleton class-groups get entity ids first, in class first-seen
    order; main/topic ties break by set-iteration order.
  * The reference's recursive DFS (ctinexus/graph_constructor.py:149-157)
    is replaced by an iterative traversal pushing neighbors in the same
    visit order — same components, no RecursionError on chain graphs.
"""

from __future__ import annotations

from collections import defaultdict

from ctinexus_ray.functions.ioc import detect_iocs
from ctinexus_ray.functions.validators import (
    filter_valid,
    validate_aligned_triplet,
    validate_preprocessed_triplet,
    validate_typed_triplet,
)

# ---------------------------------------------------------------------------
# E8 — preprocess: mention-id assignment
# ---------------------------------------------------------------------------


def preprocess_doc(typed_triplets: list) -> tuple[list, int, int]:
    """Assign dense first-seen mention ids and rename fields.

    Mirrors reference ctinexus/cti_processor.py:147-202. Returns
    (aligned_triplets, mentions_num, dropped_count). Triple order is
    preserved — it drives all downstream id numbering.
    """
    if not isinstance(typed_triplets, list):
        typed_triplets = []
    valid, dropped = filter_valid(typed_triplets, validate_typed_triplet)

    mention_id_map: dict[str, int] = {}
    current_id = 0
    aligned = []
    for triple in valid:
        new_triple = {"relation": triple["relation"]}
        for key in ("subject", "object"):
            entity = dict(triple[key])
            mention_text = entity.pop("text", "")
            mention_class = entity.pop("class", "default")
            # dict-valued hierarchical class flattens to its first key
            # (reference ctinexus/cti_processor.py:197-198)
            if isinstance(mention_class, dict):
                mention_class = next(iter(mention_class.keys()))
            if mention_text not in mention_id_map:
                mention_id_map[mention_text] = current_id
                current_id += 1
            new_triple[key] = {
                "mention_id": mention_id_map[mention_text],
                "mention_text": mention_text,
                "mention_class": mention_class,
            }
        aligned.append(new_triple)
    return aligned, current_id, dropped


# ---------------------------------------------------------------------------
# D3/A1 — merge: embedding-threshold clustering per class group
# ---------------------------------------------------------------------------


def _cosine(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = sum(x * x for x in a) ** 0.5
    nb = sum(x * x for x in b) ** 0.5
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


def merge_doc(
    aligned_triplets: list,
    embeddings: dict[int, list[float]],
    similarity_threshold: float,
) -> tuple[list, int, int]:
    """Within-document mention clustering.

    ``embeddings`` maps mention_id -> vector (computed by the caller; the
    KG runner embeds a batch's uncached mentions in one call and caches
    them per plan). Mutates nodes in
    place like the reference Merger (ctinexus/graph_constructor.py:321-441)
    and returns (aligned_triplets, entity_num, dropped_count).
    """
    if not isinstance(aligned_triplets, list):
        aligned_triplets = []
    valid, dropped = filter_valid(aligned_triplets, validate_preprocessed_triplet)
    if not valid:
        return [], 0, dropped

    node_dict: dict[int, list[dict]] = {}
    for triple in valid:
        for key in ("subject", "object"):
            node = triple[key]
            node_dict.setdefault(node["mention_id"], []).append(node)

    class_dict: dict[str, set[int]] = {}
    for triple in valid:
        for key in ("subject", "object"):
            node = triple[key]
            class_dict.setdefault(node["mention_class"], set()).add(node["mention_id"])

    def entity_text_for(cluster: set[int]) -> str:
        # most-frequent mention wins; Python's stable sort keeps
        # set-iteration order among ties (reference :292-302)
        freq = {m_id: len(node_dict[m_id]) for m_id in cluster}
        ranked = sorted(freq.items(), key=lambda kv: kv[1], reverse=True)
        return node_dict[ranked[0][0]][0]["mention_text"]

    entity_id = 0
    for grouped_nodes in class_dict.values():
        if len(grouped_nodes) == 1:
            for node in node_dict[next(iter(grouped_nodes))]:
                node["entity_id"] = entity_id
                node["mention_merged"] = []
                node["entity_text"] = node["mention_text"]
            entity_id += 1
            continue

        # pairwise direct-neighbor clustering (NOT transitive closure — Q3).
        # One numpy similarity matrix per class group instead of a Python
        # _cosine per pair (profiled at ~18% of per-doc time); zero-norm
        # vectors score 0.0 like _cosine. Key order in ``clusters``
        # matches the reference's pair-enumeration insertion order
        # (= member iteration order), which unique_clusters depends on.
        import numpy as np

        members = list(grouped_nodes)
        mat = np.asarray([embeddings[m] for m in members], dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        safe = np.where(norms == 0, 1.0, norms)
        unit = mat / safe[:, None]
        sims = unit @ unit.T
        if (norms == 0).any():
            sims[norms == 0, :] = 0.0
            sims[:, norms == 0] = 0.0
        clusters: dict[int, set[int]] = {m: set() for m in members}
        ii, jj = np.nonzero(np.triu(sims >= similarity_threshold, k=1))
        for i, j in zip(ii.tolist(), jj.tolist()):
            clusters[members[i]].add(members[j])
            clusters[members[j]].add(members[i])

        unique_clusters: list[set[int]] = []
        for m_id, merged_ids in clusters.items():
            cluster = set(merged_ids)
            cluster.add(m_id)
            if cluster not in unique_clusters:
                unique_clusters.append(cluster)

        for cluster in unique_clusters:
            this_id = entity_id
            entity_id += 1
            text = entity_text_for(cluster)
            merged_texts = [node_dict[m][0]["mention_text"] for m in cluster]
            for m_id in cluster:
                for node in node_dict[m_id]:
                    # overlapping clusters: later assignment wins (Q3)
                    node["entity_id"] = this_id
                    node["mention_merged"] = [
                        t for t in merged_texts if t != node["mention_text"]
                    ]
                    node["entity_text"] = text

    return valid, entity_id, dropped


def collect_mention_texts(aligned_triplets: list) -> dict[int, str]:
    """mention_id -> mention_text in first-seen order (for embedding)."""
    out: dict[int, str] = {}
    for triple in aligned_triplets:
        for key in ("subject", "object"):
            node = triple.get(key)
            if isinstance(node, dict) and node.get("mention_id") not in out:
                out[node["mention_id"]] = node.get("mention_text", "")
    return out


# ---------------------------------------------------------------------------
# E10 — IOC-protection unmerge
# ---------------------------------------------------------------------------


def postprocess_doc(aligned_triplets: list, entity_num: int) -> int:
    """Un-merge clusters whose members are ALL IOCs; mutates nodes in place
    and returns the updated entity_num.

    Mirrors reference ctinexus/cti_processor.py:53-115 including the
    explicit no-op branch for partially-IOC clusters.
    """
    mention_dict: dict[str, int] = {}
    node_dict: dict[int, list[dict]] = {}
    for triple in aligned_triplets:
        for key in ("subject", "object"):
            node = triple[key]
            if node["mention_text"] not in mention_dict:
                mention_dict[node["mention_text"]] = node["mention_id"]
            node_dict.setdefault(node["mention_id"], []).append(node)

    entity_idx = entity_num
    for triple in aligned_triplets:
        for key in ("subject", "object"):
            node = triple[key]
            if node["mention_merged"] == []:
                continue
            iocs = detect_iocs(node["mention_merged"], node["mention_text"])
            if not iocs:
                continue
            if len(iocs) < len(node["mention_merged"]) + 1:
                # partially-IOC cluster: deliberate no-op, matching the
                # reference's TODO branch (ctinexus/cti_processor.py:83-86)
                continue
            for m_text in iocs:
                if m_text not in mention_dict:
                    continue
                m_id = mention_dict[m_text]
                node_list = node_dict[m_id]
                new_entity_id = entity_idx
                if node_list[0]["entity_text"] != m_text:
                    entity_idx += 1
                    entity_num += 1
                for n in node_list:
                    if n["mention_text"] == n["entity_text"]:
                        n["mention_merged"] = []
                        continue
                    n["mention_merged"] = []
                    n["entity_id"] = new_entity_id
                    n["entity_text"] = m_text
    return entity_num


# ---------------------------------------------------------------------------
# G1-G4 — per-document graph analysis
# ---------------------------------------------------------------------------

EMPTY_TOPIC_NODE = {
    "entity_id": -1,
    "entity_text": "",
    "mention_text": "",
    "mention_class": "default",
    "mention_merged": [],
}


def analyze_graph(aligned_triplets: list) -> dict:
    """Build the undirected entity graph, find connected components, pick
    per-component main nodes and the topic node.

    Returns {"valid_triplets", "dropped", "subgraphs", "main_nodes",
    "topic_node"} where main_nodes already excludes the topic node
    (reference ctinexus/graph_constructor.py:106-209 with G2 made
    iterative).
    """
    if not isinstance(aligned_triplets, list):
        aligned_triplets = []
    valid, dropped = filter_valid(aligned_triplets, validate_aligned_triplet)
    if not valid:
        return {
            "valid_triplets": [],
            "dropped": dropped,
            "subgraphs": [],
            "main_nodes": [],
            "topic_node": dict(EMPTY_TOPIC_NODE),
        }

    graph: dict[int, list[int]] = {}
    for triplet in valid:
        s = triplet["subject"]["entity_id"]
        o = triplet["object"]["entity_id"]
        graph.setdefault(s, [])
        graph.setdefault(o, [])
        graph[s].append(o)
        graph[o].append(s)

    # iterative DFS, neighbors visited in adjacency order (same components
    # as the reference's recursion, no stack-depth hazard)
    visited: set[int] = set()
    subgraphs: list[set[int]] = []
    for start in graph:
        if start in visited:
            continue
        component: set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            component.add(node)
            for neighbour in reversed(graph[node]):
                if neighbour not in visited:
                    stack.append(neighbour)
        subgraphs.append(component)

    # degrees over the WHOLE document graph (computed once; the reference
    # redundantly recomputes per component — same values)
    degrees: dict[int, int] = defaultdict(int)
    for triplet in valid:
        degrees[triplet["subject"]["entity_id"]] += 1
        degrees[triplet["object"]["entity_id"]] += 1

    def main_node_of(component: set[int]) -> int | None:
        best, best_deg = None, 0
        for node in component:  # set-iteration order breaks ties (Q4)
            if degrees[node] > best_deg:
                best_deg = degrees[node]
                best = node
        return best

    def node_of(entity_id) -> dict | None:
        for triplet in valid:
            for key in ("subject", "object"):
                if triplet[key]["entity_id"] == entity_id:
                    return triplet[key]
        return None

    main_nodes = []
    for component in subgraphs:
        node = node_of(main_node_of(component))
        if node is not None:
            main_nodes.append(node)

    largest = subgraphs[0]
    for component in subgraphs:
        if len(component) > len(largest):
            largest = component
    topic_node = node_of(main_node_of(largest)) or dict(EMPTY_TOPIC_NODE)

    main_nodes = [n for n in main_nodes if n["entity_id"] != topic_node["entity_id"]]
    return {
        "valid_triplets": valid,
        "dropped": dropped,
        "subgraphs": [sorted(c) for c in subgraphs],
        "main_nodes": main_nodes,
        "topic_node": topic_node,
    }
