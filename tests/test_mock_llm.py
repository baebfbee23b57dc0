"""Determinism and shape tests for the mock LLM provider."""

from __future__ import annotations

import numpy as np

from ctinexus_ray.llm.mock import (
    MockLLM,
    classify_mention,
    embed_text,
    rule_extract_triples,
    stable_hash,
)
from ctinexus_ray.llm.prompts import build_ie_prompt, build_link_prompt


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")


class TestEmbeddings:
    def test_unit_norm_and_deterministic(self):
        v1 = embed_text("ShadowPulse")
        v2 = embed_text("ShadowPulse")
        assert np.allclose(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-5

    def test_similar_strings_similar_vectors(self):
        a = embed_text("ShadowPulse")
        b = embed_text("ShadowPulse malware")
        c = embed_text("totally unrelated words")
        assert float(a @ b) > 0.6
        assert float(a @ c) < 0.6


class TestRuleExtraction:
    def test_deterministic(self):
        text = "ShadowPulse exploited CVE-2023-1234 via 10.0.0.1 against finance targets"
        assert rule_extract_triples(text) == rule_extract_triples(text)

    def test_ioc_entities_classed(self):
        text = "ShadowPulse exploited CVE-2023-1234 via 10.0.0.1 against finance targets"
        triples = rule_extract_triples(text)
        flat = [t["subject"] for t in triples] + [t["object"] for t in triples]
        assert any("CVE-2023-1234 (Vulnerability)" == s for s in flat)
        assert any("10.0.0.1 (Indicator)" == s for s in flat)

    def test_class_suffix_format(self):
        triples = rule_extract_triples("alpha bravo charlie delta echo foxtrot")
        for t in triples:
            assert t["subject"].endswith(")") and "(" in t["subject"]


class TestClassify:
    def test_suffix_mapping(self):
        assert classify_mention("X (Malware)") == "Malware"
        assert classify_mention("X (Threat Actor)") == "Attacker"
        assert classify_mention("X (Application)") == "Tool"

    def test_dict_class_for_some_indicators(self):
        # the mock intentionally emits hierarchical dict classes for a
        # deterministic subset of Indicator mentions
        results = {
            str(classify_mention(f"10.0.0.{i} (Indicator)")) for i in range(1, 30)
        }
        assert any(r.startswith("{") for r in results)


class TestMockClient:
    def test_ie_roundtrip(self, demos):
        client = MockLLM()
        prompt = build_ie_prompt("ShadowPulse exploited CVE-2023-1234 today", demos)
        text, in_tok, out_tok = client.complete(prompt)
        assert in_tok > 0 and out_tok > 0
        # parse through the production rescue path
        from ctinexus_ray.functions.jsonrescue import extract_json_from_response

        content = extract_json_from_response(text)
        assert "triplets" in content

    def test_link_guard_paths_exist(self):
        client = MockLLM()
        honest = hallucinated = 0
        for i in range(40):
            prompt = build_link_prompt("ctx", f"node{i}", "topic")
            content_text, _, _ = client.complete(prompt)
            from ctinexus_ray.functions.jsonrescue import extract_json_from_response

            pt = extract_json_from_response(content_text)["predicted_triple"]
            if {pt["subject"], pt["object"]} == {f"node{i}", "topic"}:
                honest += 1
            else:
                hallucinated += 1
        assert honest > 0 and hallucinated > 0  # both guard paths exercised

    def test_canned_lookup(self):
        canned = {"known text": [{"subject": "A (Malware)", "relation": "r", "object": "B (Tool)"}]}
        client = MockLLM(canned_triples=canned)
        prompt = build_ie_prompt("known text", [])
        from ctinexus_ray.functions.jsonrescue import extract_json_from_response

        content = extract_json_from_response(client.complete(prompt)[0])
        assert content["triplets"] == canned["known text"]


class TestBoundedInflight:
    """llm_max_inflight: bounded concurrent LLM requests per actor call
    (VERDICT r1 item 5). Serial (=1) is exact reference parity; >1 must
    not change any output."""

    def test_concurrent_matches_serial(self, ray_session):
        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        texts = [
            "APT29 used Mimikatz to dump credentials from 10.0.0.5. "
            "The actor then exfiltrated data to evil.example.com.",
            "Lazarus Group deployed the AppleJeus malware against exchanges.",
            "A phishing campaign delivered Emotet via malicious documents.",
            "",
        ] * 3
        batch = pa.Table.from_pydict(
            {"cti_text": pa.array(texts, type=pa.string())}
        )
        serial = KGDocStage(PipelineConfig(llm_max_inflight=1))(batch)
        threaded = KGDocStage(PipelineConfig(llm_max_inflight=4))(batch)
        assert serial.to_pydict() == threaded.to_pydict()

    def test_inflight_bound_is_respected(self):
        import threading
        import time

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        stage = KGDocStage(PipelineConfig(llm_max_inflight=3))
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def fake_llm_call(x):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.05)
            with lock:
                state["now"] -= 1
            return x * 2

        out = stage.inflight.map(fake_llm_call, list(range(12)))
        assert out == [x * 2 for x in range(12)]  # order preserved
        assert 2 <= state["peak"] <= 3  # overlapped, but bounded


class TestEmbedMeteringDeterminism:
    """Per-doc embed usage is a pure function of the document: cache
    state (who warmed it, in which order, on which thread) must never
    change any output column — the race this pins showed up as a rare
    serial-vs-threaded embed_tokens mismatch."""

    def test_warm_cache_charges_same_tokens(self):
        import json

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.llm.mock import MockLLM
        from ctinexus_ray.pipelines import singledoc

        config = PipelineConfig()
        client = MockLLM()
        text = (
            "APT29 used Mimikatz to dump credentials from 10.0.0.5. "
            "The actor then exfiltrated data to evil.example.com."
        )
        ie = singledoc.run_ie(text, client, config, demos=[])
        et = singledoc.run_et(ie["triplets"], client, config)

        cold = singledoc.run_ea(
            json.loads(json.dumps(et["typed_triplets"])), client, config, {}
        )
        warm_cache = {}
        singledoc.run_ea(
            json.loads(json.dumps(et["typed_triplets"])),
            client, config, warm_cache,
        )
        warm = singledoc.run_ea(
            json.loads(json.dumps(et["typed_triplets"])),
            client, config, warm_cache,
        )
        assert (
            cold["model_usage"]["input"]["tokens"]
            == warm["model_usage"]["input"]["tokens"]
        )
        assert cold["aligned_triplets"] == warm["aligned_triplets"]

    def test_threaded_equals_serial_with_shared_mentions(self, ray_session):
        """Duplicated docs run concurrently (inflight >= batch) so
        threads race on the shared cache for identical mention texts —
        outputs must still match the serial run bit for bit."""
        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        texts = [
            "APT29 used Mimikatz to dump credentials from 10.0.0.5.",
            "APT29 used Mimikatz to dump credentials from 10.0.0.5.",
            "Lazarus Group deployed AppleJeus against exchanges. "
            "APT29 used Mimikatz there too.",
        ] * 4
        batch = pa.Table.from_pydict(
            {"cti_text": pa.array(texts, type=pa.string())}
        )
        serial = KGDocStage(PipelineConfig(llm_max_inflight=1))(batch)
        threaded = KGDocStage(PipelineConfig(llm_max_inflight=12))(batch)
        assert serial.to_pydict() == threaded.to_pydict()


class _CountingMock(MockLLM):
    """MockLLM that counts its ``embed`` calls."""

    def __init__(self):
        super().__init__()
        self.embed_calls = 0

    def embed(self, texts):
        self.embed_calls += 1
        return super().embed(texts)


def _shared_heads_batch(n: int = 24):
    """``n`` docs whose head entities (actors, malware, domains) repeat
    across documents; some docs also mention an IP of their own."""
    import pyarrow as pa

    actors = ["APT29", "Lazarus Group", "FIN7"]
    malware = ["Emotet", "Mimikatz", "AppleJeus", "Cobalt Strike"]
    texts = [
        f"{actors[i % 3]} deployed {malware[i % 4]} against finance targets "
        f"from 10.0.{i}.5 and exfiltrated data to evil{i % 2}.example.com."
        for i in range(n)
    ]
    return pa.Table.from_pydict({
        "url": [f"https://cti.example/{i:02d}" for i in range(n)],
        "cti_text": texts,
    })


def _rows_by_url(table) -> dict:
    from ctinexus_ray.pipelines.kg import KG_DOC_COLUMNS

    return {r["url"]: r for r in table.select(KG_DOC_COLUMNS).to_pylist()}


class TestBatchEmbedding:
    """The KG stage embeds a batch's uncached mentions in one request,
    and no row depends on the batch it ran in."""

    def _stage(self, demos):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        stage = KGDocStage(PipelineConfig(), demos)
        stage.client = _CountingMock()
        return stage

    def test_one_embed_call_per_batch(self, demos):
        batch = _shared_heads_batch()
        stage = self._stage(demos)
        stage(batch)
        assert stage.client.embed_calls == 1
        stage(batch)  # every mention is cached now
        assert stage.client.embed_calls == 1
        split = self._stage(demos)
        for start in range(0, 24, 8):
            split(batch.slice(start, 8))
        assert split.client.embed_calls == 3

    def test_rows_independent_of_batching(self, demos):
        import json

        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines import singledoc

        batch = _shared_heads_batch()
        whole = _rows_by_url(self._stage(demos)(batch))
        split_stage = self._stage(demos)
        split = _rows_by_url(pa.concat_tables(
            split_stage(batch.slice(start, 8)) for start in range(0, 24, 8)
        ))
        reversed_rows = _rows_by_url(
            self._stage(demos)(batch.take(list(range(23, -1, -1))))
        )
        assert whole == split == reversed_rows
        assert sum(r["embed_tokens"] for r in whole.values()) > 0

        config = PipelineConfig()
        for url, text in zip(batch.column("url").to_pylist(),
                             batch.column("cti_text").to_pylist()):
            env = singledoc.process_document(text, MockLLM(), config, demos, {})
            usage = [env[s]["model_usage"] for s in ("IE", "ET", "LP")]
            assert whole[url] == {
                "url": url,
                "kg_aligned_json": json.dumps(env["EA"]["aligned_triplets"]),
                "kg_links_json": json.dumps(env["LP"]["predicted_links"]),
                "triples_count": env["IE"]["triples_count"],
                "mentions_num": env["EA"]["mentions_num"],
                "entity_num": env["EA"]["entity_num"],
                "subgraph_num": env["LP"]["subgraph_num"],
                "dropped_triplets": sum(
                    env[s]["dropped"] for s in ("IE", "ET", "EA", "LP")),
                "llm_input_tokens": sum(u["input"]["tokens"] for u in usage),
                "llm_output_tokens": sum(u["output"]["tokens"] for u in usage),
                "embed_tokens": env["EA"]["model_usage"]["input"]["tokens"],
            }


class TestClientInflightBound:
    """llm_max_inflight=0 (the default) defers to the client's own
    bound: the in-process mock stays serial and builds no thread pool;
    an explicit value >= 1 always wins."""

    def test_bound_resolution(self):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.llm.client import inflight_bound
        from ctinexus_ray.llm.http import HTTPLLMClient

        http_client = HTTPLLMClient("http://127.0.0.1:9")
        assert inflight_bound(PipelineConfig(), MockLLM()) == 1
        assert inflight_bound(PipelineConfig(), http_client) == 16
        assert inflight_bound(PipelineConfig(), object()) == 1
        assert inflight_bound(PipelineConfig(llm_max_inflight=3), http_client) == 3
        assert inflight_bound(PipelineConfig(llm_max_inflight=5), MockLLM()) == 5

    def test_default_mock_stage_is_serial(self):
        import threading
        import time

        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        stage = KGDocStage(PipelineConfig())
        assert stage.inflight.bound == 1
        assert stage.inflight.executor is None

        lock = threading.Lock()
        state = {"now": 0, "peak": 0}
        complete = stage.client.complete

        def counted_complete(prompt, **kw):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.002)
            try:
                return complete(prompt, **kw)
            finally:
                with lock:
                    state["now"] -= 1

        stage.client.complete = counted_complete
        texts = [
            f"APT{i} used Mimikatz to dump credentials from 10.0.0.{i}."
            for i in range(8)
        ]
        out = stage(pa.Table.from_pydict({"cti_text": pa.array(texts)}))
        assert out.num_rows == 8
        assert state["peak"] == 1

    def test_executor_lives_across_calls(self):
        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        batch = pa.Table.from_pydict({"cti_text": pa.array([
            "Lazarus Group deployed the AppleJeus malware against exchanges.",
            "A phishing campaign delivered Emotet via malicious documents.",
            "APT29 used Mimikatz to dump credentials from 10.0.0.5.",
        ])})
        stage = KGDocStage(PipelineConfig(llm_max_inflight=4))
        executor = stage.inflight.executor
        assert executor is not None
        first = stage(batch)
        assert stage.inflight.executor is executor
        second = stage(batch)
        assert stage.inflight.executor is executor
        assert first.equals(second)

    def test_compose_config_accepts_zero(self):
        from ctinexus_ray.config import PipelineConfig, compose_config

        assert PipelineConfig().llm_max_inflight == 0
        assert compose_config(
            overrides=["llm_max_inflight=0"]
        ).llm_max_inflight == 0
        assert compose_config(
            overrides=["llm_max_inflight=8"]
        ).llm_max_inflight == 8

    def test_merge_verify_memo_under_thread_stress(self):
        """Threads share MergeVerifyStage's memo; a race can only repeat
        a deterministic verdict, so verdicts match the serial run."""
        import sys

        import pyarrow as pa

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines.nearcanon import MergeVerifyStage

        names = ["Emotet", "emotet", "Emotet loader", "APT29", "apt29"]
        pairs = [(a, b) for a in names for b in names] * 8
        batch = pa.Table.from_pydict({
            "text_a": [a for a, _ in pairs],
            "text_b": [b for _, b in pairs],
            "klass": ["Malware"] * len(pairs),
        })
        serial = list(MergeVerifyStage(PipelineConfig())(batch))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = list(
                MergeVerifyStage(PipelineConfig(llm_max_inflight=32))(batch)
            )
        finally:
            sys.setswitchinterval(interval)
        assert [t.to_pydict() for t in threaded] == [
            t.to_pydict() for t in serial
        ]
