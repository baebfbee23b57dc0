"""HTTP transport + live fetcher tests against a loopback http.server.

No external network is used — the loopback server stands in for an
OpenAI-compatible gateway (reference drives litellm,
ctinexus/llm_processor.py:1018-1094) and for crawled origin servers
(reference trafilatura.fetch_url, :228-235).
"""

from __future__ import annotations

import http.server
import json
import threading
import time

import pyarrow as pa
import pytest

from ctinexus_ray.llm.client import call_with_retry, get_client
from ctinexus_ray.llm.http import (
    HTTPLLMClient,
    HTTPStatusError,
    fetch_url,
    post_json,
    resolve_base_url,
)

_PAGE = (
    "<html><head><title>APT99 report</title></head><body>"
    "<article><p>APT99 used Cobalt Strike against the finance sector. "
    "The malware beaconed to evil.example.com every hour.</p></article>"
    "</body></html>"
)


class _Handler(http.server.BaseHTTPRequestHandler):
    server_version = "stub/1.0"
    flaky_remaining = 0  # class-level: set by tests
    flaky_status = 500
    chat_posts = 0

    def log_message(self, *a):  # silence
        pass

    def _send(self, code, body: bytes, ctype="application/json"):
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/page":
            self._send(200, _PAGE.encode(), "text/html; charset=utf-8")
        elif self.path == "/latin":
            self._send(200, "olé".encode("latin-1"),
                       "text/html; charset=latin-1")
        elif self.path == "/empty":
            self._send(200, b"", "text/html")
        else:
            self._send(404, b"not found", "text/plain")

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length).decode())
        type(self).last_request = payload
        type(self).last_auth = self.headers.get("Authorization")
        if self.path.endswith("/chat/completions"):
            type(self).chat_posts += 1
            if type(self).flaky_remaining > 0:
                type(self).flaky_remaining -= 1
                self._send(type(self).flaky_status, b'{"error": "overloaded"}')
                return
            prompt = payload["messages"][-1]["content"]
            content = json.dumps({"echo_len": len(prompt),
                                  "model": payload["model"]})
            body = {
                "choices": [{"message": {"role": "assistant",
                                         "content": content}}],
                "usage": {"prompt_tokens": 11, "completion_tokens": 7},
            }
            self._send(200, json.dumps(body).encode())
        elif self.path.endswith("/embeddings"):
            texts = payload["input"]
            # deliberately out of order: index field is authoritative
            data = [
                {"index": i, "embedding": [float(len(t)), float(i)]}
                for i, t in enumerate(texts)
            ][::-1]
            body = {"data": data, "usage": {"prompt_tokens": 5}}
            self._send(200, json.dumps(body).encode())
        elif self.path == "/v1/messages":
            # Anthropic Messages API stub
            type(self).last_headers = {k.lower(): v for k, v in self.headers.items()}
            prompt = payload["messages"][-1]["content"]
            body = {
                "content": [
                    {"type": "text",
                     "text": json.dumps({"echo_len": len(prompt),
                                         "model": payload["model"],
                                         "system": payload.get("system")})}
                ],
                "usage": {"input_tokens": 13, "output_tokens": 9},
            }
            self._send(200, json.dumps(body).encode())
        elif self.path == "/api/chat":
            # ollama native chat API stub
            type(self).last_headers = {k.lower(): v for k, v in self.headers.items()}
            prompt = payload["messages"][-1]["content"]
            body = {
                "message": {"role": "assistant",
                            "content": json.dumps({"echo_len": len(prompt),
                                                   "model": payload["model"]})},
                "prompt_eval_count": 23,
                "eval_count": 6,
                "done": True,
            }
            self._send(200, json.dumps(body).encode())
        elif ":generateContent" in self.path:
            # Gemini generateContent stub
            type(self).last_headers = {k.lower(): v for k, v in self.headers.items()}
            type(self).last_path = self.path
            prompt = payload["contents"][-1]["parts"][0]["text"]
            body = {
                "candidates": [{"content": {"parts": [
                    {"text": json.dumps({"echo_len": len(prompt)})}
                ]}}],
                "usageMetadata": {"promptTokenCount": 17,
                                  "candidatesTokenCount": 4},
            }
            self._send(200, json.dumps(body).encode())
        else:
            self._send(404, b"not found", "text/plain")


@pytest.fixture(scope="module")
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


class TestHTTPLLMClient:
    def test_complete_roundtrip_and_usage(self, server):
        client = HTTPLLMClient(server, model="gpt-4.1", api_key="sk-test")
        text, in_tok, out_tok = client.complete("hello world")
        parsed = json.loads(text)
        assert parsed == {"echo_len": 11, "model": "gpt-4.1"}
        assert (in_tok, out_tok) == (11, 7)
        # provider shaping reached the wire (openai default: json format)
        assert _Handler.last_request["response_format"] == {"type": "json_object"}
        assert _Handler.last_request["temperature"] == 0.8
        assert _Handler.last_request["max_tokens"] == 4096
        assert _Handler.last_auth == "Bearer sk-test"

    def test_temperature_override(self, server):
        client = HTTPLLMClient(server)
        client.complete("x", temperature=0.0)
        assert _Handler.last_request["temperature"] == 0.0

    def test_embed_restores_index_order(self, server):
        client = HTTPLLMClient(server, embedding_model="text-embedding-3-large")
        vecs, tokens = client.embed(["a", "bbb", "cc"])
        assert vecs == [[1.0, 0.0], [3.0, 1.0], [2.0, 2.0]]
        # billed total 5, zero-length weights -> equal largest-remainder
        assert tokens == [2, 2, 1]
        assert sum(tokens) == 5
        assert _Handler.last_request["model"] == "text-embedding-3-large"

    def test_non_2xx_raises_status_error(self, server):
        with pytest.raises(HTTPStatusError) as exc:
            post_json(f"{server}/nope", {})
        assert exc.value.status == 404

    def test_app_level_retry_recovers(self, server):
        _Handler.flaky_remaining = 2
        client = HTTPLLMClient(server)
        text, _, _ = call_with_retry(lambda: client.complete("p"), max_attempts=5)
        assert json.loads(text)["echo_len"] == 1
        assert _Handler.flaky_remaining == 0

    def test_app_level_retry_exhausts(self, server):
        _Handler.flaky_remaining = 99
        client = HTTPLLMClient(server)
        with pytest.raises(HTTPStatusError):
            call_with_retry(lambda: client.complete("p"), max_attempts=3)
        _Handler.flaky_remaining = 0

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_rejected_request_is_sent_once(self, server, status):
        """A 4xx other than 408/429 rejects the request itself: no retry."""
        client = HTTPLLMClient(server)
        _Handler.flaky_status, _Handler.flaky_remaining = status, 99
        _Handler.chat_posts = 0
        try:
            with pytest.raises(HTTPStatusError) as exc:
                call_with_retry(lambda: client.complete("p"), max_attempts=5)
        finally:
            _Handler.flaky_status, _Handler.flaky_remaining = 500, 0
        assert exc.value.status == status
        assert _Handler.chat_posts == 1

    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_transient_status_is_retried(self, server, status):
        client = HTTPLLMClient(server)
        _Handler.flaky_status, _Handler.flaky_remaining = status, 2
        _Handler.chat_posts = 0
        try:
            text, _, _ = call_with_retry(lambda: client.complete("p"), max_attempts=5)
        finally:
            _Handler.flaky_status, _Handler.flaky_remaining = 500, 0
        assert json.loads(text)["echo_len"] == 1
        assert _Handler.chat_posts == 3


class TestGetClientHTTP:
    def test_api_base_resolves_http_client(self, server):
        from ctinexus_ray.config import PipelineConfig

        cfg = PipelineConfig(provider="openai", model="gpt-4.1",
                             extra={"api_base": server, "api_key": "k"})
        client = get_client(cfg)
        assert isinstance(client, HTTPLLMClient)
        text, _, _ = client.complete("abc")
        assert json.loads(text)["echo_len"] == 3

    def test_no_endpoint_raises(self, monkeypatch):
        from ctinexus_ray.config import PipelineConfig

        monkeypatch.delenv("CUSTOM_BASE_URL", raising=False)
        with pytest.raises(NotImplementedError):
            get_client(PipelineConfig(provider="openai"))

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv("CUSTOM_BASE_URL", "http://env:1")
        assert resolve_base_url("openai", {"api_base": "http://cfg:2"}) == "http://cfg:2"
        assert resolve_base_url("openai", {}) == "http://env:1"
        monkeypatch.setenv("OLLAMA_BASE_URL", "http://ol:3")
        assert resolve_base_url("ollama", {}) == "http://ol:3/v1"


class TestFetchUrl:
    def test_success(self, server):
        assert fetch_url(f"{server}/page") == _PAGE

    def test_charset_from_headers(self, server):
        assert fetch_url(f"{server}/latin") == "olé"

    def test_404_returns_none(self, server):
        assert fetch_url(f"{server}/missing") is None

    def test_empty_body_returns_none(self, server):
        assert fetch_url(f"{server}/empty") is None

    def test_bad_scheme_returns_none(self):
        assert fetch_url("ftp://example.com/x") is None
        assert fetch_url("not a url") is None

    def test_connection_refused_returns_none(self):
        assert fetch_url("http://127.0.0.1:1/x", timeout=0.5) is None


class TestFetchStageRay:
    def test_fetch_dataset_live(self, ray_session, server):
        import ray

        from ctinexus_ray.stages.urlsource import fetch_dataset

        urls = ray.data.from_items(
            [{"url": f"{server}/page"}, {"url": f"{server}/missing"},
             {"url": "nonsense"}]
        )
        rows = sorted(fetch_dataset(urls, concurrency=1).take_all(),
                      key=lambda r: r["url"])
        by_url = {r["url"]: r for r in rows}
        ok = by_url[f"{server}/page"]
        assert ok["fetch_status"] == "success"
        assert ok["html"] == _PAGE.encode()
        assert by_url[f"{server}/missing"]["fetch_status"] == "fetch_failed"
        assert by_url[f"{server}/missing"]["html"] is None
        assert by_url["nonsense"]["fetch_status"] == "fetch_failed"

    def test_cli_url_mode(self, server, tmp_path, capsys):
        """--url parity path: live fetch -> url-source -> KG stages -> envelope
        with URL_SOURCE attached (reference app.py:54 + gradio_utils
        run_pipeline)."""
        import json as _json

        from ctinexus_ray.__main__ import main

        out = tmp_path / "res.json"
        rc = main(["--url", f"{server}/page", "--output", str(out)])
        assert rc == 0
        envelope = _json.loads(out.read_text())
        assert envelope["URL_SOURCE"]["status"] == "success"
        assert envelope["URL_SOURCE"]["url"] == f"{server}/page"
        assert "IE" in envelope and "LP" in envelope

    def test_cli_url_mode_fetch_failure(self, server, capsys):
        from ctinexus_ray.__main__ import main

        assert main(["--url", f"{server}/missing"]) == 1
        assert "fetch_failed" in capsys.readouterr().err

    def test_url_source_over_http_provider(self, ray_session, server):
        """End-to-end: live fetch -> extraction -> summarize via the REAL
        HTTP client against the loopback gateway, inside Ray actors."""
        import ray

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.urlsource import (
            fetch_dataset,
            url_source_dataset,
        )

        cfg = PipelineConfig(
            provider="openai", model="gpt-4.1",
            llm_concurrency=1, doc_batch_size=8,
            extra={"api_base": server},
        )
        urls = ray.data.from_items([{"url": f"{server}/page"}])
        out = url_source_dataset(fetch_dataset(urls, concurrency=1), cfg).take_all()
        assert len(out) == 1
        rec = out[0]
        assert rec["status"] == "success"
        # summarizer returned the gateway's JSON content; the normalizer
        # keeps it as a single paragraph string
        assert "echo_len" in rec["final_text"]
        assert rec["summary_input_tokens"] >= 11


class TestNativeWireTransports:
    """Anthropic / Gemini native wire formats behind the same
    build_request shaping (VERDICT r2 item 4) — the reference reaches
    these providers through litellm's per-provider transports
    (reference ctinexus/llm_processor.py:1018-1094)."""

    def test_anthropic_messages_wire(self, server):
        client = HTTPLLMClient(server, provider="anthropic",
                               model="claude-sonnet-4-5", api_key="ak-test")
        assert client.wire == "anthropic"
        text, in_tok, out_tok = client.complete("hello anthropic")
        parsed = json.loads(text)
        assert parsed["echo_len"] == len("hello anthropic")
        assert parsed["model"] == "claude-sonnet-4-5"
        # shaping's system message maps to the top-level system field
        assert parsed["system"] == "Respond with valid JSON only."
        assert (in_tok, out_tok) == (13, 9)
        # only user/assistant roles ship; no response_format leaks
        assert all(m["role"] in ("user", "assistant")
                   for m in _Handler.last_request["messages"])
        assert "response_format" not in _Handler.last_request
        assert _Handler.last_request["max_tokens"] == 4096
        # Messages-API auth headers, not Bearer
        assert _Handler.last_headers.get("x-api-key") == "ak-test"
        assert _Handler.last_headers.get("anthropic-version") == "2023-06-01"
        assert "authorization" not in _Handler.last_headers

    def test_gemini_generatecontent_wire(self, server):
        client = HTTPLLMClient(server, provider="gemini",
                               model="gemini-2.5-pro", api_key="gk-test")
        assert client.wire == "gemini"
        text, in_tok, out_tok = client.complete("hi gemini", temperature=0.3)
        assert json.loads(text)["echo_len"] == len("hi gemini")
        assert (in_tok, out_tok) == (17, 4)
        # model id in the path WITHOUT the litellm gemini/ routing prefix
        assert _Handler.last_path.endswith(
            "/v1beta/models/gemini-2.5-pro:generateContent")
        cfg = _Handler.last_request["generationConfig"]
        assert cfg["temperature"] == 0.3
        assert cfg["maxOutputTokens"] == 4096
        # json response_format becomes responseMimeType
        assert cfg["responseMimeType"] == "application/json"
        assert _Handler.last_headers.get("x-goog-api-key") == "gk-test"

    def test_ollama_native_chat_wire(self, server, monkeypatch):
        monkeypatch.setenv("OLLAMA_BASE_URL", server + "/v1")
        client = HTTPLLMClient(server + "/v1", provider="ollama",
                               model="llama3.1", wire="ollama")
        text, in_tok, out_tok = client.complete("hi ollama", temperature=0.2)
        parsed = json.loads(text)
        # model ships WITHOUT the litellm ollama/ routing prefix
        assert parsed["model"] == "llama3.1"
        assert (in_tok, out_tok) == (23, 6)
        req = _Handler.last_request
        # native chat API: non-streaming, options carry the knobs
        assert req["stream"] is False
        assert req["options"]["temperature"] == 0.2
        assert req["options"]["num_predict"] == 4096
        # ollama shaping appends the JSON instruction to the prompt
        assert "JSON" in req["messages"][-1]["content"]

    def test_ollama_default_wire_is_openai_gateway(self, server, monkeypatch):
        # provider ollama without an explicit wire keeps the /v1 gateway
        monkeypatch.setenv("OLLAMA_BASE_URL", server)
        client = HTTPLLMClient(server, provider="ollama", model="llama3.1")
        assert client.wire == "openai"
        text, _, _ = client.complete("via v1 gateway")
        assert json.loads(text)["model"] == "ollama/llama3.1"

    def test_wire_override_forces_openai_gateway(self, server):
        # anthropic through an OpenAI-compatible gateway (LiteLLM proxy)
        client = HTTPLLMClient(server, provider="anthropic",
                               model="claude-sonnet-4-5", wire="openai")
        text, _, _ = client.complete("via gateway")
        assert json.loads(text)["model"] == "claude-sonnet-4-5"
        assert _Handler.last_request["response_format"] == {
            "type": "json_object"}

    def test_unknown_wire_rejected(self, server):
        with pytest.raises(ValueError, match="wire"):
            HTTPLLMClient(server, wire="smoke-signals")

    def test_get_client_passes_wire(self, server):
        from ctinexus_ray.config import PipelineConfig

        cfg = PipelineConfig(provider="gemini", model="gemini-2.5-flash",
                             extra={"api_base": server, "wire": "gemini"})
        client = get_client(cfg)
        assert isinstance(client, HTTPLLMClient) and client.wire == "gemini"
        text, _, _ = client.complete("abc")
        assert json.loads(text)["echo_len"] == 3


class _MockReplyHandler(http.server.BaseHTTPRequestHandler):
    """OpenAI-compatible endpoint answering with ``MockLLM`` replies (and
    the mock's own token counts) after a short sleep; records the peak
    number of requests being served at once and counts ``/embeddings``
    requests."""

    delay_s = 0.02
    lock = threading.Lock()
    now = 0
    peak = 0
    embed_posts = 0

    def log_message(self, *a):  # silence
        pass

    @classmethod
    def reset(cls):
        with cls.lock:
            cls.now = cls.peak = cls.embed_posts = 0

    def do_POST(self):
        from ctinexus_ray.llm.mock import MockLLM

        cls = type(self)
        with cls.lock:
            cls.now += 1
            cls.peak = max(cls.peak, cls.now)
            cls.embed_posts += self.path.endswith("/embeddings")
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length).decode())
            mock = MockLLM()
            if self.path.endswith("/chat/completions"):
                text, in_tok, out_tok = mock.complete(
                    payload["messages"][-1]["content"]
                )
                body = {
                    "choices": [{"message": {"role": "assistant",
                                             "content": text}}],
                    "usage": {"prompt_tokens": in_tok,
                              "completion_tokens": out_tok},
                }
            else:
                vecs, counts = mock.embed(payload["input"])
                body = {
                    "data": [{"index": i, "embedding": v}
                             for i, v in enumerate(vecs)],
                    "usage": {"prompt_tokens": sum(counts)},
                }
            time.sleep(cls.delay_s)
            data = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        finally:
            with cls.lock:
                cls.now -= 1


@pytest.fixture(scope="module")
def mock_reply_server():
    class Server(http.server.ThreadingHTTPServer):
        request_queue_size = 64  # 16 concurrent connects must not hit the backlog

    httpd = Server(("127.0.0.1", 0), _MockReplyHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def _kg_batch(n: int) -> pa.Table:
    texts = [
        f"APT{i} used Mimikatz to dump credentials from 10.0.{i}.5. The "
        f"actor then exfiltrated data to evil{i % 3}.example.com via Emotet."
        for i in range(n)
    ]
    return pa.Table.from_pydict({"cti_text": pa.array(texts, type=pa.string())})


def _ipc_bytes(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


class TestKGStageInflightOverHTTP:
    """The default config lets the HTTP client keep up to 16 requests in
    flight per actor; outputs stay those of the serial in-process mock."""

    def test_default_config_overlaps_requests(self, mock_reply_server):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        batch = _kg_batch(16)
        stage = KGDocStage(PipelineConfig(
            provider="openai", extra={"api_base": mock_reply_server}))
        assert stage.inflight.bound == 16
        _MockReplyHandler.reset()
        out = stage(batch)
        assert 1 < _MockReplyHandler.peak <= 16
        expected = KGDocStage(PipelineConfig())(batch)
        assert _ipc_bytes(out) == _ipc_bytes(expected)

    def test_explicit_bound_one_stays_serial(self, mock_reply_server):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.stages.kg import KGDocStage

        stage = KGDocStage(PipelineConfig(
            provider="openai", llm_max_inflight=1,
            extra={"api_base": mock_reply_server}))
        assert stage.inflight.executor is None
        _MockReplyHandler.reset()
        out = stage(_kg_batch(4))
        assert out.num_rows == 4
        assert _MockReplyHandler.peak == 1


class TestActorLoopsInflightOverHTTP:
    """UrlSourceStage and MergeVerifyStage share the KG stage's bounded
    map: over HTTP they overlap requests, and rows stay in input order."""

    def test_url_source_rows_match_mock(self, mock_reply_server):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.sources.synth import make_cc_table
        from ctinexus_ray.stages.urlsource import UrlSourceStage

        batch = make_cc_table(12)
        _MockReplyHandler.reset()
        out = UrlSourceStage(PipelineConfig(
            provider="openai", extra={"api_base": mock_reply_server}))(batch)
        assert _MockReplyHandler.peak > 1
        assert out.equals(UrlSourceStage(PipelineConfig())(batch))

    def test_merge_verdicts_match_mock(self, mock_reply_server):
        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines.nearcanon import MergeVerifyStage

        names = ["Emotet", "emotet", "Emotet loader", "Lazarus", "APT29",
                 "apt29", "Mimikatz", "mimikatz tool"]
        batch = pa.Table.from_pydict({
            "text_a": [a for a in names for _ in names],
            "text_b": [b for _ in names for b in names],
            "klass": ["Malware"] * len(names) ** 2,
        })
        _MockReplyHandler.reset()
        out = list(MergeVerifyStage(PipelineConfig(
            provider="openai", extra={"api_base": mock_reply_server}))(batch))
        assert _MockReplyHandler.peak > 1
        expected = list(MergeVerifyStage(PipelineConfig())(batch))
        assert [t.to_pydict() for t in out] == [t.to_pydict() for t in expected]
        assert 0 < sum(t.num_rows for t in out) < batch.num_rows


class TestKGBuildOverHTTP:
    def test_docs_kg_matches_mock_build(
        self, ray_session, mock_reply_server, tmp_path
    ):
        """A whole ``run_kg_to_parquet`` over the loopback gateway, three
        batches through the KG task map and no actor pool, sends at most
        one embedding request per batch and writes the docs_kg rows of
        the in-process mock build."""
        import ray.data
        from ray._private import state

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines.kg import run_kg_to_parquet
        from ctinexus_ray.sources.synth import make_cc_table

        def build(provider: str, name: str) -> pa.Table:
            cfg = PipelineConfig(
                provider=provider, llm_concurrency=(1, 2), doc_batch_size=4,
                extra={"api_base": mock_reply_server},
            )
            paths = run_kg_to_parquet(
                ray.data.from_arrow(make_cc_table(12)), str(tmp_path / name), cfg
            )
            import pyarrow.parquet as pq

            return pq.read_table(paths["docs_kg"]).sort_by("url")

        actors_before = set(state.actors())
        _MockReplyHandler.reset()
        got = build("openai", "http")
        assert _MockReplyHandler.peak >= 1
        assert 1 <= _MockReplyHandler.embed_posts <= 3
        assert not [
            a for a, info in state.actors().items()
            if a not in actors_before and "MapWorker" in info["ActorClassName"]
        ]
        want = build("mock", "mock")
        assert got.num_rows == 12
        assert got.equals(want)
