"""Straight-line single-document IE -> ET -> EA -> LP runner.

This is the reference-semantics engine for ONE document (the reference
processes exactly one report per invocation — ctinexus/utils/
gradio_utils.py:89-150). The Ray stages call these same functions per row,
so the distributed pipeline and this runner cannot drift apart; the P/R
parity tests compare the two directly.

Returns the reference-shaped nested result envelope
(reference ctinexus/llm_processor.py:1119-1138, ctinexus/cti_processor.py:
179-200, ctinexus/graph_constructor.py:56-135).
"""

from __future__ import annotations

import time

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.functions.jsonrescue import extract_json_from_response
from ctinexus_ray.functions.usage import calculate_usage, zero_usage
from ctinexus_ray.functions.validators import filter_valid, validate_ie_triplet
from ctinexus_ray.llm.client import LLMClient, call_with_retry
from ctinexus_ray.llm.prompts import build_et_prompt, build_ie_prompt, build_link_prompt
from ctinexus_ray.stages.docops import (
    EMPTY_TOPIC_NODE,
    analyze_graph,
    collect_mention_texts,
    merge_doc,
    postprocess_doc,
    preprocess_doc,
)

# ---------------------------------------------------------------------------
# IE
# ---------------------------------------------------------------------------


def run_ie(
    text: str,
    client: LLMClient,
    config: PipelineConfig,
    demos: list[dict],
    ie_prefix: str | None = None,
) -> dict:
    """Few-shot triple extraction (reference ctinexus/llm_processor.py:1101-1138).

    ``ie_prefix``: cached static prompt prefix (see prompts.make_ie_prefix)
    — the KG stage passes it to avoid re-rendering the constant demo block per doc."""
    prompt = build_ie_prompt(text, demos, prefix=ie_prefix)
    start = time.perf_counter()
    response, in_tok, out_tok = call_with_retry(
        lambda: client.complete(prompt, temperature=config.temperature),
        max_attempts=config.max_retries,
    )
    elapsed = time.perf_counter() - start
    try:
        content = extract_json_from_response(response)
    except ValueError:
        content = {"triplets": []}
    triplets = content.get("triplets", [])
    if not isinstance(triplets, list):
        triplets = []
    triplets, dropped = filter_valid(triplets, validate_ie_triplet)
    return {
        "triplets": triplets,
        "triples_count": len(triplets),
        "dropped": dropped,
        "model_usage": calculate_usage(config.model, in_tok, out_tok),
        "response_time": elapsed,
    }


# ---------------------------------------------------------------------------
# ET
# ---------------------------------------------------------------------------


def run_et(ie_triplets: list[dict], client: LLMClient, config: PipelineConfig) -> dict:
    """One typing call for all triples (reference ctinexus/llm_processor.py:163-198).

    Accepts the response under 'typed_triplets', 'tagged_triples' or
    'triplets' like the reference's alternative-key fallback (:179-184).
    """
    if not ie_triplets:
        return {
            "typed_triplets": [],
            "dropped": 0,
            "model_usage": zero_usage(config.model),
            "response_time": 0.0,
        }
    prompt = build_et_prompt(ie_triplets)
    start = time.perf_counter()
    response, in_tok, out_tok = call_with_retry(
        lambda: client.complete(prompt, temperature=config.temperature),
        max_attempts=config.max_retries,
    )
    elapsed = time.perf_counter() - start
    try:
        content = extract_json_from_response(response)
    except ValueError:
        content = {}
    if not isinstance(content, dict):
        content = {}
    typed = (
        content.get("typed_triplets")
        or content.get("tagged_triples")
        or content.get("triplets")
        or []
    )
    if not isinstance(typed, list):
        typed = []
    typed, dropped = filter_valid(typed, validate_ie_triplet)
    return {
        "typed_triplets": typed,
        "dropped": dropped,
        "model_usage": calculate_usage(config.model, in_tok, out_tok),
        "response_time": elapsed,
    }


# ---------------------------------------------------------------------------
# EA
# ---------------------------------------------------------------------------


def run_ea(
    typed_triplets: list[dict],
    client: LLMClient,
    config: PipelineConfig,
    embed_cache: dict[str, tuple[list[float], int]] | None = None,
) -> dict:
    """Preprocess + embedding merge + IOC unmerge
    (reference ctinexus/cti_processor.py + ctinexus/graph_constructor.py:246-441).

    ``embed_cache`` (normalized mention text -> (vector, token_count))
    is plan-lifetime state in the Ray stage — head mentions repeat
    across documents, so the cache turns the dominant embedding cost
    into a lookup. Metering charges EVERY document for its own mention
    texts, cache hit or not (the reference runs one document per
    process with no cross-doc cache, so its per-doc usage equals this
    full-text accounting): the per-doc usage columns are a pure
    function of the document — independent of batch composition, batch
    order, and thread interleaving under ``llm_max_inflight`` > 1.
    """
    aligned, mentions_num, pre_dropped = preprocess_doc(typed_triplets)

    mention_texts = collect_mention_texts(aligned)
    embeddings: dict[int, list[float]] = {}
    to_embed: list[tuple[int, str]] = []
    cache = embed_cache if embed_cache is not None else {}
    embed_tokens = 0
    for m_id, text in mention_texts.items():
        key = text.casefold().strip()
        if key in cache:
            vec, tok = cache[key]
            embeddings[m_id] = vec
            embed_tokens += tok
        else:
            to_embed.append((m_id, text))
    if to_embed:
        vectors, counts = call_with_retry(
            lambda: client.embed([t for _, t in to_embed]),
            max_attempts=config.max_retries,
        )
        for (m_id, text), vec, tok in zip(to_embed, vectors, counts):
            embeddings[m_id] = vec
            embed_tokens += tok
            cache[text.casefold().strip()] = (vec, tok)

    merged, entity_num, merge_dropped = merge_doc(
        aligned, embeddings, config.similarity_threshold
    )
    entity_num = postprocess_doc(merged, entity_num)
    return {
        "aligned_triplets": merged,
        "mentions_num": mentions_num,
        "entity_num": entity_num,
        "dropped": pre_dropped + merge_dropped,
        "model_usage": calculate_usage(config.embedding_model, embed_tokens, 0),
    }


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def run_lp(
    text: str,
    aligned_triplets: list[dict],
    client: LLMClient,
    config: PipelineConfig,
) -> dict:
    """Graph analysis + one link-prediction call per disconnected main node,
    with the hallucination guard (reference ctinexus/graph_constructor.py:
    51-209 + ctinexus/llm_processor.py:900-996, quirk Q7)."""
    analysis = analyze_graph(aligned_triplets)
    topic_node = analysis["topic_node"]
    predicted_links = []
    total_in = total_out = 0
    start = time.perf_counter()

    for main_node in analysis["main_nodes"]:
        prompt = build_link_prompt(
            text, main_node["entity_text"], topic_node["entity_text"]
        )
        response, in_tok, out_tok = call_with_retry(
            lambda p=prompt: client.complete(p, temperature=config.temperature),
            max_attempts=config.max_retries,
        )
        total_in += in_tok
        total_out += out_tok
        try:
            content = extract_json_from_response(response)
        except ValueError:
            content = None

        if not content or not isinstance(content, dict):
            pred_sub = pred_rel = pred_obj = "unknown"
        elif "predicted_triple" in content:
            pt = content["predicted_triple"]
            pred_sub = pt.get("subject", "unknown")
            pred_rel = pt.get("relation", "unknown")
            pred_obj = pt.get("object", "unknown")
        else:
            values = list(content.values())
            if len(values) >= 3:
                pred_sub, pred_rel, pred_obj = values[0], values[1], values[2]
            else:
                pred_sub = pred_rel = pred_obj = "unknown"

        if pred_sub == main_node["entity_text"] and pred_obj == topic_node["entity_text"]:
            new_sub = {
                "entity_id": main_node["entity_id"],
                "mention_text": main_node["entity_text"],
            }
            new_obj = topic_node
        elif pred_obj == main_node["entity_text"] and pred_sub == topic_node["entity_text"]:
            new_sub = topic_node
            new_obj = {
                "entity_id": main_node["entity_id"],
                "mention_text": main_node["entity_text"],
            }
        else:
            new_sub = {"entity_id": "hallucination", "mention_text": "hallucination"}
            new_obj = {"entity_id": "hallucination", "mention_text": "hallucination"}

        predicted_links.append(
            {"subject": new_sub, "relation": pred_rel, "object": new_obj}
        )

    return {
        "predicted_links": predicted_links,
        "response_time": time.perf_counter() - start,
        "model_usage": calculate_usage(config.model, total_in, total_out),
        "topic_node": topic_node,
        "main_nodes": analysis["main_nodes"],
        "subgraphs": analysis["subgraphs"],
        "subgraph_num": len(analysis["subgraphs"]),
        "dropped": analysis["dropped"],
    }


# ---------------------------------------------------------------------------
# full envelope
# ---------------------------------------------------------------------------


def process_document(
    text: str,
    client: LLMClient,
    config: PipelineConfig,
    demos: list[dict],
    embed_cache: dict[str, tuple[list[float], int]] | None = None,
    ie_prefix: str | None = None,
) -> dict:
    """Run one document through all four stages; reference-shaped envelope."""
    ie = run_ie(text, client, config, demos, ie_prefix=ie_prefix)
    et = run_et(ie["triplets"], client, config)
    ea = run_ea(et["typed_triplets"], client, config, embed_cache)
    lp = run_lp(text, ea["aligned_triplets"], client, config)
    return {"text": text, "IE": ie, "ET": et, "EA": ea, "LP": lp}


def empty_lp(config: PipelineConfig) -> dict:
    """LP envelope for documents with no valid triples
    (reference ctinexus/graph_constructor.py:82-104)."""
    return {
        "predicted_links": [],
        "response_time": 0,
        "model_usage": zero_usage(config.model),
        "topic_node": dict(EMPTY_TOPIC_NODE),
        "main_nodes": [],
        "subgraphs": [],
        "subgraph_num": 0,
        "dropped": 0,
    }
