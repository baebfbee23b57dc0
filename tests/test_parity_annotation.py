"""The BASELINE headline gate: triple-extraction / entity-alignment /
link-prediction P/R >= 0.95 between the Ray pipeline and the
reference-semantics single-document engine under the same deterministic
mock, over the reference's own annotated CTI-report texts."""

from __future__ import annotations

import pytest

from ctinexus_ray.eval import ANNOTATION_DIR, evaluate_parity, load_annotations

pytestmark = pytest.mark.skipif(
    not ANNOTATION_DIR.exists(),
    reason="reference annotation corpus not available",
)


def test_annotated_corpus_parity(ray_session):
    records = load_annotations()
    assert len(records) >= 100
    # a representative subset keeps the suite fast; determinism makes a
    # subset exactly as binding as the full corpus
    texts = [r["text"] for r in records[:60]]
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.eval import make_canned_map

    config = PipelineConfig(llm_concurrency=(1, 2))
    canned = make_canned_map(records[:60])
    report = evaluate_parity(texts=texts, config=config, canned=canned)

    for stage in ("triple_extraction", "entity_alignment", "link_prediction"):
        assert report[stage]["precision"] >= 0.95, (stage, report[stage])
        assert report[stage]["recall"] >= 0.95, (stage, report[stage])
    # with a shared deterministic mock the two engines should agree exactly
    assert report["triple_extraction"]["precision"] == 1.0
    assert report["triple_extraction"]["recall"] == 1.0


def test_ground_truth_flows_through(ray_session):
    """With canned ground truth, the pipeline's non-predicted triples are
    exactly the annotation's explicit triplets (modulo validator drops)."""
    from ctinexus_ray.eval import focus_text, make_canned_map
    from ctinexus_ray.functions.validators import filter_valid, validate_ie_triplet
    from ctinexus_ray.llm.mock import MockLLM
    from ctinexus_ray.llm.prompts import build_ie_prompt
    from ctinexus_ray.functions.jsonrescue import extract_json_from_response

    records = load_annotations()[:10]
    canned = make_canned_map(records)
    client = MockLLM(canned_triples=canned)
    for rec in records:
        text = focus_text(rec["text"])
        response, _, _ = client.complete(build_ie_prompt(text, []))
        got = extract_json_from_response(response)["triplets"]
        want, _ = filter_valid(rec["explicit_triplets"], validate_ie_triplet)
        got_set = {(t["subject"], t["relation"], t["object"]) for t in
                   filter_valid(got, validate_ie_triplet)[0]}
        want_set = {(t["subject"], t["relation"], t["object"]) for t in want}
        assert got_set == want_set
