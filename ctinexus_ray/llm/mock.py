"""Deterministic mock LLM + embedding provider.

The sandbox has no network, so every test/bench run uses this provider.
Design goals (SURVEY §5, §7):

  * **Deterministic**: responses and embeddings are pure functions of the
    prompt text (stable hashes only — never Python's seeded ``hash()``), so
    the pipeline is reproducible across processes, workers and cluster
    sizes and the P/R parity harness can compare the Ray pipeline against a
    straight-line single-document reference-semantics run of the SAME mock.
  * **Behavior-shaped**: responses come back as JSON *text* (occasionally
    deliberately malformed in rescuable ways) so the real parse path —
    JSON rescue (E6) + validators (E7) — is exercised, like the reference's
    mocked-litellm integration tests (reference
    tests/integration/test_pipeline.py:8-304).
  * **Grounded when possible**: a canned ``text -> triples`` lookup can be
    loaded (e.g. from annotated ground-truth reports) so evaluation runs
    emit the reference's expected triples; otherwise a deterministic
    rule-based extractor produces plausible CTI triples from any text.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from ctinexus_ray.functions.text import split_type_suffix

# ---------------------------------------------------------------------------
# stable hashing / embeddings
# ---------------------------------------------------------------------------


def stable_hash(text: str) -> int:
    """64-bit stable hash (blake2b) — deterministic across processes."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def embed_text(text: str, dim: int = 64) -> np.ndarray:
    """Character-trigram hashing embedding, L2-normalized float32.

    Identical strings map to identical unit vectors; morphologically close
    strings ("batch" / "batches") share trigrams and land above the 0.6
    cosine threshold, unrelated words far below — giving the EA merger
    (reference ctinexus/graph_constructor.py:378-436) meaningful geometry
    without a model.
    """
    s = f"^{text.casefold().strip()}$"
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(len(s) - 2):
        tri = s[i : i + 3]
        h = stable_hash(tri)
        vec[h % dim] += 1.0 if (h >> 32) % 2 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec.astype(np.float32)


# ---------------------------------------------------------------------------
# deterministic rule-based "IE model"
# ---------------------------------------------------------------------------

_CVE_RE = re.compile(r"\bCVE-\d{4}-\d{4,7}\b")
_IP_RE = re.compile(r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b")
_MD5_RE = re.compile(r"\b[a-fA-F0-9]{32}\b")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]{4,}")

_STOP = frozenset(
    "about above after again being below between could every found other "
    "since their there these thing think those through under until using "
    "where which while would should against during before".split()
)

_WORD_CLASSES = (
    "Malware", "Application", "System", "Threat Actor", "Campaign",
    "Location", "Indicator", "Vulnerability", "Attack Pattern", "Report",
)

_RELATIONS = (
    "uses", "targets", "exploits", "communicates with", "is associated with",
    "drops", "deploys", "connects to",
)

_LINK_RELATIONS = ("is related to", "is part of", "is attributed to")


def rule_extract_entities(text: str, max_entities: int = 10) -> list[tuple[str, str]]:
    """Deterministic entity mentions: IOC-shaped spans with fixed classes
    first, then first-seen distinct words (len >= 5, non-stopword) with a
    hash-assigned class. Order is first appearance in the text."""
    entities: list[tuple[str, str]] = []
    taken: set[str] = set()

    def add(mention: str, cls: str) -> None:
        key = mention.casefold()
        if key not in taken and len(entities) < max_entities:
            taken.add(key)
            entities.append((mention, cls))

    ioc_spans: list[tuple[int, str, str]] = []
    for pattern, cls in ((_CVE_RE, "Vulnerability"), (_IP_RE, "Indicator"), (_MD5_RE, "Indicator")):
        for m in pattern.finditer(text):
            ioc_spans.append((m.start(), m.group(), cls))
    for _, mention, cls in sorted(ioc_spans):
        add(mention, cls)

    for m in _WORD_RE.finditer(text):
        word = m.group()
        if word.lower() in _STOP:
            continue
        add(word, _WORD_CLASSES[stable_hash(word.casefold()) % len(_WORD_CLASSES)])
        if len(entities) >= max_entities:
            break
    return entities


def rule_extract_triples(text: str, max_entities: int = 10) -> list[dict]:
    """Chain consecutive entities into triples, skipping some pairs by hash
    so documents have multiple connected components (exercises LP)."""
    entities = rule_extract_entities(text, max_entities)
    triples: list[dict] = []
    for a, b in zip(entities, entities[1:]):
        pair_key = f"{a[0]}|{b[0]}"
        h = stable_hash(pair_key)
        if h % 4 == 0:
            continue  # deliberate break -> disconnected subgraph
        triples.append(
            {
                "subject": f"{a[0]} ({a[1]})",
                "relation": _RELATIONS[h % len(_RELATIONS)],
                "object": f"{b[0]} ({b[1]})",
            }
        )
    return triples


# IE inline class -> ET taxonomy class (deterministic "ET model").
_ET_MAP = {
    "Malware": "Malware",
    "Malware Type": "Malware",
    "Application": "Tool",
    "System": "Infrastructure",
    "System Feature": "Infrastructure",
    "Threat Actor": "Attacker",
    "Campaign": "Event",
    "Location": "Location",
    "Time": "Time",
    "Indicator": "Indicator",
    "Indicator Type": "Indicator",
    "Vulnerability": "Vulnerability",
    "Vulnerability Type": "Vulnerability",
    "Attack Pattern": "Malware Characteristic",
    "Report": "Information",
    "Orginzation": "Organization",
}

_ET_FALLBACK = (
    "Tool", "Attacker", "Event", "Information", "Organization", "Infrastructure",
)


def classify_mention(text: str):
    """Type one mention. Returns a string class, or occasionally (by hash) a
    hierarchical dict class like {"Indicator": "IP"} to exercise the
    dict-class flattening path (reference ctinexus/cti_processor.py:197-198)."""
    stripped, suffix = split_type_suffix(text)
    cls = _ET_MAP.get(suffix) if suffix else None
    if cls is None:
        cls = _ET_FALLBACK[stable_hash(stripped.casefold()) % len(_ET_FALLBACK)]
    if cls == "Indicator" and stable_hash(stripped) % 3 == 0:
        if _IP_RE.search(stripped):
            return {"Indicator": "IP"}
        return {"Indicator": "Hash"}
    return cls


# ---------------------------------------------------------------------------
# the mock client
# ---------------------------------------------------------------------------

_IE_QUERY_RE = re.compile(r'"CTI": ([\s\S]*?)\n\n"""insert your answer here"""')
_ET_TRIPLES_RE = re.compile(r"Triples:\n([\s\S]*)$")
_MERGE_RE = re.compile(
    r'Entity A: "([\s\S]*?)" \(class ([\s\S]*?)\)\n'
    r'Entity B: "([\s\S]*?)" \(class ([\s\S]*?)\)'
)
_LINK_RE = re.compile(
    r'relationship between entity "([\s\S]*?)" and entity "([\s\S]*?)"\?'
)


class MockLLM:
    """Deterministic LLMClient implementation (see llm/client.py)."""

    # in-process CPU work: threads only add GIL contention, so a
    # default config runs the mock serially
    max_inflight = 1

    def __init__(
        self,
        model: str = "mock-1",
        embedding_model: str = "mock-embed-64",
        canned_triples: dict[str, list[dict]] | None = None,
        hallucination_rate_mod: int = 13,
    ):
        self.model = model
        self.embedding_model = embedding_model
        self.dim = int(embedding_model.rsplit("-", 1)[-1]) if embedding_model[-1].isdigit() else 64
        # text -> triples lookup for grounded evaluation runs
        self.canned_triples = canned_triples or {}
        self.hallucination_rate_mod = hallucination_rate_mod

    # -- LLMClient interface ------------------------------------------------

    def complete(self, prompt: str, *, temperature: float = 0.8) -> tuple[str, int, int]:
        payload = self._respond(prompt)
        text = self._render(payload, prompt)
        return text, len(prompt) // 4, len(text) // 4

    def embed(self, texts: list[str]) -> tuple[list[list[float]], list[int]]:
        vecs = [embed_text(t, self.dim).tolist() for t in texts]
        # per-text counts: deterministic pure function of each text
        return vecs, [len(t) // 4 for t in texts]

    # -- stage dispatch -----------------------------------------------------

    def _respond(self, prompt: str):
        if prompt.startswith("Do these two entity mentions"):
            return self._respond_merge(prompt)
        link = _LINK_RE.search(prompt)
        if link and "predicted_triple" in prompt:
            return self._respond_link(prompt, link.group(1), link.group(2))
        ie = _IE_QUERY_RE.search(prompt)
        if ie:
            return self._respond_ie(ie.group(1).strip())
        et = _ET_TRIPLES_RE.search(prompt)
        if et and "typed_triplets" in prompt:
            return self._respond_et(et.group(1).strip())
        if prompt.startswith("Summarize the following threat report"):
            return self._respond_summary(prompt)
        if prompt.startswith("Rewrite the draft summary"):
            return self._respond_repair(prompt)
        return {"triplets": []}

    @staticmethod
    def _respond_merge(prompt: str) -> str:
        """Deterministic canonical-merge judge (the fine pass of
        coarse-to-fine entity merging): YES iff the two mention texts
        are equal after casefold + whitespace collapse, or one contains
        the other (abbreviation/qualifier pattern: "APT28" vs
        "APT28 group"). Pure function of the prompt — reproducible
        across workers and runs like every other mock stage."""
        m = _MERGE_RE.search(prompt)
        if not m:
            return "NO"
        a = " ".join(m.group(1).casefold().split())
        b = " ".join(m.group(3).casefold().split())
        same = a == b or (a in b if a else False) or (b in a if b else False)
        return "YES" if same else "NO"

    @staticmethod
    def _summary_of(content: str) -> str:
        sentences = [s.strip() for s in re.split(r"(?<=[.!?])\s+", content) if s.strip()]
        return " ".join(sentences[:4])

    def _respond_summary(self, prompt: str):
        content = prompt.split("Report content:\n", 1)[-1]
        summary = self._summary_of(content)
        # deterministically drift to an ill-formed shape on a hash subset so
        # the well-formedness check + repair pass (E5/E13) are exercised
        if stable_hash(content) % 5 == 0:
            return "Here is a summary. " + summary
        return summary

    def _respond_repair(self, prompt: str):
        draft = prompt.split("Draft summary:\n", 1)[-1].split("\n\nSource excerpt:", 1)[0]
        for prefix in ("Here is a summary. ", "Here is ", "Summary: "):
            if draft.startswith(prefix):
                draft = draft[len(prefix):]
        return draft.strip()

    def _respond_ie(self, query_text: str) -> dict:
        canned = self.canned_triples.get(query_text)
        if canned is not None:
            return {"triplets": canned}
        return {"triplets": rule_extract_triples(query_text)}

    def _respond_et(self, triples_json: str) -> dict:
        try:
            triples = json.loads(triples_json)
        except json.JSONDecodeError:
            return {"typed_triplets": []}
        typed = []
        for t in triples:
            subj = t.get("subject", "")
            obj = t.get("object", "")
            typed.append(
                {
                    "subject": {"text": subj, "class": classify_mention(subj)},
                    "relation": t.get("relation", ""),
                    "object": {"text": obj, "class": classify_mention(obj)},
                }
            )
        return {"typed_triplets": typed}

    def _respond_link(self, prompt: str, main_node: str, topic_node: str) -> dict:
        h = stable_hash(f"{main_node}->{topic_node}")
        if h % self.hallucination_rate_mod == 0:
            # Deliberately violate the choose-from-the-two-entities contract
            # so the hallucination guard path (quirk Q7,
            # reference ctinexus/llm_processor.py:940-965) is exercised.
            return {
                "predicted_triple": {
                    "subject": f"{main_node} group",
                    "relation": "is linked to",
                    "object": topic_node,
                }
            }
        rel = _LINK_RELATIONS[h % len(_LINK_RELATIONS)]
        if (h >> 8) % 2:
            return {
                "predicted_triple": {
                    "subject": main_node, "relation": rel, "object": topic_node,
                }
            }
        return {
            "predicted_triple": {
                "subject": topic_node, "relation": rel, "object": main_node,
            }
        }

    # -- response rendering (exercises the rescue parser) -------------------

    @staticmethod
    def _render(payload, prompt: str) -> str:
        """Serialize; by prompt hash occasionally emit rescuable
        malformations (fences / chatter prefix / trailing comma).
        String payloads (summaries) pass through untouched."""
        if isinstance(payload, str):
            return payload
        text = json.dumps(payload)
        mode = stable_hash(prompt) % 17
        if mode == 0:
            return f"```json\n{text}\n```"
        if mode == 1:
            return f"Sure, here is the JSON you asked for:\n{text}"
        if mode == 2 and text.endswith("]}"):
            return text[:-2] + ",]}"
        return text
