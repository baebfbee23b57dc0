"""P/R parity evaluation (the BASELINE.json headline metric).

The reference pipeline is nondeterministic end-to-end (temperature 0.8 —
quirk Q5), so parity is defined against a deterministic mock provider
(SURVEY §5): run the reference-semantics straight-line single-document
engine (``pipelines.singledoc`` — a faithful reimplementation of the
reference's per-stage semantics, quirks included) and the distributed Ray
pipeline over the SAME documents with the SAME mock, and compare emitted
triples per stage:

  * triple extraction — (subj_text, rel, obj_text) multisets per doc
  * entity alignment  — within-doc mention pairs sharing an entity_id
  * link prediction   — (subj, rel, obj, sentinel) predicted links per doc

When the reference's annotated CTI-report corpus is available (read-only
at /root/reference/ctinexus/data/annotation), its ground-truth
explicit_triplets are loaded as canned mock responses, so the comparison
runs over the reference's own evaluation texts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pyarrow as pa

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.functions.text import build_cti_focus_text, normalize_text
from ctinexus_ray.llm.mock import MockLLM
from ctinexus_ray.pipelines.singledoc import process_document
from ctinexus_ray.schemas import DOCUMENTS_SCHEMA

ANNOTATION_DIR = Path("/root/reference/ctinexus/data/annotation")


def load_annotations(directory: str | Path = ANNOTATION_DIR) -> list[dict]:
    """Load the reference's ground-truth records (text, explicit_triplets,
    entities, implicit_triplets) in sorted filename order."""
    directory = Path(directory)
    if not directory.exists():
        return []
    records = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        rec["name"] = path.name
        records.append(rec)
    return records


def focus_text(raw_text: str) -> str:
    """The text that reaches the IE stage for a text-only document
    (extract fallback: normalize (E2) then CTI-focus (E3))."""
    return build_cti_focus_text(normalize_text(raw_text))


def build_eval_config(texts: list[str], config: PipelineConfig) -> PipelineConfig:
    """Config whose mock client answers IE with the canned ground-truth
    triples for each (processed) text."""
    return config  # canned map travels via make_canned_client/extra below


def make_canned_map(records: list[dict]) -> dict[str, list[dict]]:
    """processed-text -> explicit_triplets (keys must match what the IE
    stage actually sends — the focused text)."""
    return {
        focus_text(rec["text"]): rec["explicit_triplets"]
        for rec in records
    }


def documents_table_from_texts(texts: list[str]) -> pa.Table:
    """Text-only Common-Crawl-shaped table (html=NULL -> extraction falls
    back to normalize(text), identically in both engines)."""
    import datetime

    epoch = datetime.datetime(2025, 1, 1, tzinfo=datetime.timezone.utc)
    rows = [
        {
            "url": f"https://eval.example.com/{i:06d}",
            "warc_ts": epoch + datetime.timedelta(seconds=i),
            "html": None,
            "text": t,
            "lang": "en",
        }
        for i, t in enumerate(texts)
    ]
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _pr(expected: set, got: set) -> dict:
    tp = len(expected & got)
    precision = tp / len(got) if got else 1.0
    recall = tp / len(expected) if expected else 1.0
    return {
        "precision": precision,
        "recall": recall,
        "expected": len(expected),
        "got": len(got),
    }


def _expected_sets(
    texts: list[str],
    urls: list[str],
    config: PipelineConfig,
    canned: dict[str, list[dict]] | None,
    demos: list[dict],
):
    client = MockLLM(
        model=config.model,
        embedding_model=config.embedding_model,
        canned_triples=canned or {},
    )
    cache: dict[str, list[float]] = {}
    triples, align_pairs, links = set(), set(), set()
    for url, text in zip(urls, texts):
        env = process_document(
            focus_text(text), client, config, demos, cache
        )
        by_entity: dict[int, list[str]] = {}
        for t in env["EA"]["aligned_triplets"]:
            triples.add(
                (url, t["subject"]["mention_text"], t["relation"],
                 t["object"]["mention_text"])
            )
            for node in (t["subject"], t["object"]):
                by_entity.setdefault(node["entity_id"], []).append(
                    node["mention_text"]
                )
        for mentions in by_entity.values():
            uniq = sorted(set(mentions))
            for i, a in enumerate(uniq):
                for b in uniq[i + 1 :]:
                    align_pairs.add((url, a, b))
        for link in env["LP"]["predicted_links"]:
            links.add(
                (url, link["subject"]["mention_text"], link["relation"],
                 link["object"]["mention_text"])
            )
    return triples, align_pairs, links


def _got_sets(triples_rows: list[dict]):
    triples, align_pairs, links = set(), set(), set()
    by_doc_entity: dict[tuple, set] = {}
    for r in triples_rows:
        key = (r["doc_url"], r["subj_text"], r["rel"], r["obj_text"])
        if r["predicted"]:
            links.add(key)
            continue
        triples.add(key)
        for side in ("subj", "obj"):
            by_doc_entity.setdefault(
                (r["doc_url"], r[f"{side}_entity_id"]), set()
            ).add(r[f"{side}_text"])
    for (url, _), mentions in by_doc_entity.items():
        uniq = sorted(mentions)
        for i, a in enumerate(uniq):
            for b in uniq[i + 1 :]:
                align_pairs.add((url, a, b))
    return triples, align_pairs, links


def evaluate_parity(
    texts: list[str] | None = None,
    config: PipelineConfig | None = None,
    canned: dict[str, list[dict]] | None = None,
) -> dict:
    """Run both engines over ``texts`` (default: the annotated corpus) and
    return per-stage P/R. Requires an initialized Ray session."""
    import ray.data

    from ctinexus_ray.pipelines.kg import build_kg, default_demos

    config = config or PipelineConfig(llm_concurrency=(1, 4))
    if texts is None:
        records = load_annotations()
        if not records:
            raise FileNotFoundError(
                "annotation corpus not found; pass texts explicitly"
            )
        texts = [r["text"] for r in records]
        canned = make_canned_map(records)

    if canned:
        config = PipelineConfig(
            **{**config.__dict__, "extra": {**config.extra, "canned_triples": canned}}
        )

    table = documents_table_from_texts(texts)
    urls = table.column("url").to_pylist()
    docs = ray.data.from_arrow(table).repartition(4)
    demos = default_demos(config)

    out = build_kg(docs, config, demos)
    got = _got_sets(out["triples"].take_all())
    expected = _expected_sets(texts, urls, config, canned, demos)

    return {
        "triple_extraction": _pr(expected[0], got[0]),
        "entity_alignment": _pr(expected[1], got[1]),
        "link_prediction": _pr(expected[2], got[2]),
        "docs": len(texts),
    }
