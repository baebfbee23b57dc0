"""Straight-line IE -> ET -> EA -> LP runner over a batch of documents.

``process_documents`` is the one KG runner. Reference semantics are
those of ONE document (the reference processes exactly one report per
invocation — ctinexus/utils/gradio_utils.py:89-150); a batch changes
only how embedding requests are grouped, never a document's output:

1. IE -> ET -> EA preprocess per document, through ``map_fn``;
2. one ``client.embed`` call per ``EMBED_MAX_INPUTS`` distinct uncached
   mention keys of the whole batch, filling ``embed_cache``;
3. EA merge + LP per document, through ``map_fn``.

``process_document`` is its one-element case, and ``run_ea`` runs the
same EA helpers for one document. The Ray KG stage calls
``process_documents`` per batch, so the distributed pipeline and this
runner cannot drift apart; the P/R parity tests compare the two directly.

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


# OpenAI's cap on inputs per /embeddings request
EMBED_MAX_INPUTS = 2048


def _serial_map(fn, items: list) -> list:
    return [fn(x) for x in items]


def _embed_key(text: str) -> str:
    return text.casefold().strip()


def _prepare_ea(typed_triplets: list[dict]) -> tuple:
    """Preprocess: (aligned, mentions_num, dropped, mention_id -> text)."""
    aligned, mentions_num, dropped = preprocess_doc(typed_triplets)
    return aligned, mentions_num, dropped, collect_mention_texts(aligned)


def _embed_missing(
    mention_texts: list[dict[int, str]],
    client: LLMClient,
    config: PipelineConfig,
    cache: dict[str, tuple[list[float], int]],
) -> None:
    """Embed every mention key of the documents that ``cache`` lacks,
    first-seen text per key, in requests of at most ``EMBED_MAX_INPUTS``
    texts (each under its own ``call_with_retry``), and cache the
    (vector, token_count) pairs."""
    missing: dict[str, str] = {}
    for texts in mention_texts:
        for text in texts.values():
            key = _embed_key(text)
            if key not in cache:
                missing.setdefault(key, text)
    keys = list(missing)
    for start in range(0, len(keys), EMBED_MAX_INPUTS):
        chunk = keys[start:start + EMBED_MAX_INPUTS]
        vectors, counts = call_with_retry(
            lambda: client.embed([missing[k] for k in chunk]),
            max_attempts=config.max_retries,
        )
        cache.update(zip(chunk, zip(vectors, counts)))


def _finish_ea(prepared: tuple, config: PipelineConfig,
               cache: dict[str, tuple[list[float], int]]) -> dict:
    """Embedding merge + IOC unmerge over cached vectors. Metering
    charges the document for every one of its mention texts, cache hit
    or not (the reference runs one document per process with no
    cross-doc cache, so its per-doc usage equals this full-text
    accounting): the usage columns are a pure function of the document,
    whatever the batch, its order or the thread interleaving, as long as
    texts sharing a key share a count (a key keeps the count of the first
    text embedded under it)."""
    aligned, mentions_num, pre_dropped, mention_texts = prepared
    embeddings: dict[int, list[float]] = {}
    embed_tokens = 0
    for m_id, text in mention_texts.items():
        embeddings[m_id], tok = cache[_embed_key(text)]
        embed_tokens += tok
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


def run_ea(
    typed_triplets: list[dict],
    client: LLMClient,
    config: PipelineConfig,
    embed_cache: dict[str, tuple[list[float], int]] | None = None,
) -> dict:
    """Preprocess + embedding merge + IOC unmerge for one document
    (reference ctinexus/cti_processor.py + ctinexus/graph_constructor.py:246-441).

    ``embed_cache`` maps a normalized mention text (casefolded,
    stripped) to (vector, token_count); mentions it already holds are
    not sent again."""
    cache = embed_cache if embed_cache is not None else {}
    prepared = _prepare_ea(typed_triplets)
    _embed_missing([prepared[3]], client, config, cache)
    return _finish_ea(prepared, config, cache)


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


def process_documents(
    texts: list[str],
    client: LLMClient,
    config: PipelineConfig,
    demos: list[dict],
    embed_cache: dict[str, tuple[list[float], int]] | None = None,
    ie_prefix: str | None = None,
    map_fn=_serial_map,
) -> list[dict]:
    """Run a batch of documents through all four stages; one
    reference-shaped envelope per document, in input order.

    ``map_fn(fn, items)`` is an order-preserving map for the per-document
    phases (the KG stage passes its ``InflightPool.map``; serial by
    default). All embedding requests are made between the two phases,
    so no two documents ever request the same mention."""
    cache = embed_cache if embed_cache is not None else {}

    def extract(text: str) -> tuple:
        ie = run_ie(text, client, config, demos, ie_prefix=ie_prefix)
        et = run_et(ie["triplets"], client, config)
        return text, ie, et, _prepare_ea(et["typed_triplets"])

    fronts = map_fn(extract, texts)
    _embed_missing([prepared[3] for *_, prepared in fronts], client, config, cache)

    def finish(front: tuple) -> dict:
        text, ie, et, prepared = front
        ea = _finish_ea(prepared, config, cache)
        lp = run_lp(text, ea["aligned_triplets"], client, config)
        return {"text": text, "IE": ie, "ET": et, "EA": ea, "LP": lp}

    return map_fn(finish, fronts)


def process_document(
    text: str,
    client: LLMClient,
    config: PipelineConfig,
    demos: list[dict],
    embed_cache: dict[str, tuple[list[float], int]] | None = None,
    ie_prefix: str | None = None,
) -> dict:
    """Run one document through all four stages; reference-shaped envelope."""
    return process_documents([text], client, config, demos, embed_cache, ie_prefix)[0]


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
