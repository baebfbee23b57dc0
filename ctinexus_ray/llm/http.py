"""Real HTTP transport for the LLM/embedding client layer (operator M1/M3)
and a live URL fetcher (operator S2).

The reference drives providers through litellm
(reference ctinexus/llm_processor.py:1018-1094) and fetches URLs with
``trafilatura.fetch_url`` (reference ctinexus/llm_processor.py:228-235).
Neither dependency is installable here, so this module implements the same
wire behavior on the stdlib:

  * ``HTTPLLMClient`` — an OpenAI-compatible JSON-over-HTTP client
    (``POST {base}/chat/completions`` and ``POST {base}/embeddings``).
    Request shaping reuses ``build_request`` (the per-provider
    temperature/top_p/response_format contract mirrored from the
    reference); retries stay APP-LEVEL in the calling stage via
    ``call_with_retry`` — the transport itself is single-attempt, exactly
    like the reference's ``@with_retry`` around ``query_llm`` — except
    that a 4xx other than 408/429 (``HTTPStatusError.retryable``) is
    raised on the first attempt.
  * ``fetch_url`` — semantics of ``trafilatura.fetch_url``: returns the
    decoded HTML document for an http(s) URL, or ``None`` on any failure
    (bad scheme, network error, non-2xx, undecodable body). The caller
    treats ``None`` as fetch_failed (reference :234-236).

There is no external network in this sandbox; both are exercised against a
loopback ``http.server`` in tests, which is exactly how they would talk to
an OpenAI-compatible gateway (vLLM, ollama's /v1, LiteLLM proxy) in
production. Each worker process builds its own client once per plan,
in the stage's ``__init__``; a ``urllib`` opener per call keeps the
client thread-safe under the stage's in-flight thread pool.

Concurrency: ``HTTPLLMClient.max_inflight`` (16) is the number of
requests one LLM-stage task keeps in flight when ``llm_max_inflight``
is 0 (the default; the mock's bound is 1). The total in flight against
the provider is the number of concurrent tasks (the max of
``llm_concurrency``) times that bound, so set ``llm_max_inflight``
explicitly to fit a provider's rate limit. A read block larger than
``doc_batch_size`` reaches one task as one bundle, so it is this
in-task overlap, not a smaller batch, that hides the waits.

Requests per document: the KG stage sends IE, ET (when IE kept a
triple) and LP completions per document, but one ``/embeddings``
request per batch (``singledoc.process_documents``), carrying every
mention of the batch that the plan's embedding cache lacks.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.parse
import urllib.request

from ctinexus_ray.llm.client import build_request

_UA = "ctinexus-ray/1.0"


class HTTPStatusError(RuntimeError):
    """Non-2xx response from the provider; carries the status for retry policy."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status
        self.body = body

    @property
    def retryable(self) -> bool:
        """A 4xx other than 408 (timeout) and 429 (rate limit) rejects the
        request itself: sending it again gets the same answer."""
        return not (400 <= self.status < 500) or self.status in (408, 429)


def post_json(url: str, payload: dict, *, timeout: float = 60.0,
              headers: dict | None = None) -> dict:
    """POST a JSON payload, return the parsed JSON response."""
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json", "User-Agent": _UA,
                 **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:  # non-2xx
        body = exc.read().decode("utf-8", errors="replace")
        raise HTTPStatusError(exc.code, body) from exc


_ANTHROPIC_VERSION = "2023-06-01"
_WIRES = ("openai", "anthropic", "gemini", "ollama")


class HTTPLLMClient:
    """``LLMClient`` over a provider HTTP endpoint.

    ``complete`` maps ``build_request`` output onto the provider's wire
    format; ``embed`` posts the batch to ``/embeddings`` (OpenAI shape —
    the one embeddings wire every gateway here speaks). Token counts
    come from the provider's usage block, falling back to the
    reference's ``len(text) // 4`` estimate when absent
    (reference ctinexus/utils/gradio_utils.py token display convention).

    ``wire`` selects the completion wire format (the reference reaches
    these same providers through litellm's per-provider transports,
    reference ctinexus/llm_processor.py:1018-1094):

      * ``"openai"`` — ``POST {base}/chat/completions``; vLLM, LiteLLM
        proxy, ollama's ``/v1`` and OpenAI itself all speak it.
      * ``"anthropic"`` — the public Anthropic Messages API: ``POST
        {base}/v1/messages`` with ``x-api-key`` + ``anthropic-version``
        headers; the shaping's system message maps to the top-level
        ``system`` field and only user/assistant turns ship (the same
        role filter the reference applies, llm_processor.py:1032-1036).
      * ``"gemini"`` — the public Generative Language API: ``POST
        {base}/v1beta/models/{model}:generateContent`` with an
        ``x-goog-api-key`` header; temperature/max_tokens map into
        ``generationConfig`` and the json response_format becomes
        ``responseMimeType: application/json``.
      * ``"ollama"`` — ollama's native chat API: ``POST
        {base}/api/chat`` (a ``/v1`` suffix on the base is stripped)
        with ``stream: false``; temperature/max_tokens map into
        ``options`` (``num_predict``) and a json response_format becomes
        ``format: "json"``. Token counts come from
        ``prompt_eval_count``/``eval_count``.

    Default: the provider's native wire for anthropic/gemini, openai
    otherwise — including for provider "ollama", whose configured base
    (``resolve_base_url``) targets its OpenAI-compatible ``/v1``
    gateway; pass ``wire="ollama"`` to use the native chat API instead,
    or ``wire="openai"`` to drive anthropic/gemini through a gateway.
    """

    # requests one LLM-stage task keeps in flight when ``llm_max_inflight`` is 0:
    # calls block on sockets, not the GIL, so threads overlap the waits
    max_inflight = 16

    def __init__(
        self,
        base_url: str,
        *,
        provider: str = "openai",
        model: str = "gpt-4.1",
        embedding_model: str = "text-embedding-3-large",
        api_key: str | None = None,
        timeout: float = 60.0,
        wire: str | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.provider = provider
        self.model = model
        self.embedding_model = embedding_model
        self.api_key = api_key
        self.timeout = timeout
        if wire is None:
            wire = provider if provider in ("anthropic", "gemini") else "openai"
        if wire not in _WIRES:
            raise ValueError(f"unknown wire format {wire!r}; expected one of {_WIRES}")
        self.wire = wire

    def _headers(self) -> dict:
        return {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}

    # -- LLMClient interface ------------------------------------------------

    def complete(self, prompt: str, *, temperature: float = 0.8) -> tuple[str, int, int]:
        request = build_request(self.provider, self.model, prompt,
                                temperature=temperature)
        # api_base/api_key are litellm-isms; the wire payload excludes
        # them. The CLIENT's base_url wins: it came from resolve_base_url
        # and already carries the gateway path (e.g. ollama's /v1 —
        # build_request's raw OLLAMA_BASE_URL lacks it and would 404 the
        # openai-wire POST against real ollama).
        base = self.base_url or request.pop("api_base", None)
        request.pop("api_base", None)
        request.pop("api_key", None)
        if self.wire == "anthropic":
            return self._complete_anthropic(base, request, prompt)
        if self.wire == "gemini":
            return self._complete_gemini(base, request, prompt)
        if self.wire == "ollama":
            return self._complete_ollama(base, request, prompt)
        resp = post_json(f"{base}/chat/completions", request,
                         timeout=self.timeout, headers=self._headers())
        text = resp["choices"][0]["message"]["content"]
        usage = resp.get("usage") or {}
        in_tok = int(usage.get("prompt_tokens", len(prompt) // 4))
        out_tok = int(usage.get("completion_tokens", len(text) // 4))
        return text, in_tok, out_tok

    def _complete_anthropic(
        self, base: str, request: dict, prompt: str
    ) -> tuple[str, int, int]:
        system = "\n".join(
            m["content"] for m in request["messages"] if m["role"] == "system"
        )
        payload = {
            "model": request["model"],
            "max_tokens": request["max_tokens"],
            "temperature": request["temperature"],
            "messages": [
                m for m in request["messages"]
                if m["role"] in ("user", "assistant")
            ],
        }
        if system:
            payload["system"] = system
        headers = {"anthropic-version": _ANTHROPIC_VERSION}
        if self.api_key:
            headers["x-api-key"] = self.api_key
        resp = post_json(f"{base}/v1/messages", payload,
                         timeout=self.timeout, headers=headers)
        text = "".join(
            block.get("text", "")
            for block in resp.get("content", [])
            if block.get("type") == "text"
        )
        usage = resp.get("usage") or {}
        in_tok = int(usage.get("input_tokens", len(prompt) // 4))
        out_tok = int(usage.get("output_tokens", len(text) // 4))
        return text, in_tok, out_tok

    def _complete_gemini(
        self, base: str, request: dict, prompt: str
    ) -> tuple[str, int, int]:
        model = request["model"].removeprefix("gemini/")
        gen_config: dict = {
            "temperature": request["temperature"],
            "maxOutputTokens": request["max_tokens"],
        }
        if request.get("response_format", {}).get("type") == "json_object":
            gen_config["responseMimeType"] = "application/json"
        payload = {
            "contents": [
                {"role": "user", "parts": [{"text": m["content"]}]}
                for m in request["messages"]
                if m["role"] == "user"
            ],
            "generationConfig": gen_config,
        }
        headers = {"x-goog-api-key": self.api_key} if self.api_key else {}
        resp = post_json(
            f"{base}/v1beta/models/{model}:generateContent", payload,
            timeout=self.timeout, headers=headers,
        )
        parts = (
            (resp.get("candidates") or [{}])[0]
            .get("content", {})
            .get("parts", [])
        )
        text = "".join(p.get("text", "") for p in parts)
        meta = resp.get("usageMetadata") or {}
        in_tok = int(meta.get("promptTokenCount", len(prompt) // 4))
        out_tok = int(meta.get("candidatesTokenCount", len(text) // 4))
        return text, in_tok, out_tok

    def _complete_ollama(
        self, base: str, request: dict, prompt: str
    ) -> tuple[str, int, int]:
        base = base.removesuffix("/v1")  # native API lives beside the gateway
        payload = {
            "model": request["model"].removeprefix("ollama/"),
            "messages": request["messages"],
            "stream": False,
            "options": {
                "temperature": request["temperature"],
                "num_predict": request["max_tokens"],
            },
        }
        if request.get("response_format", {}).get("type") == "json_object":
            payload["format"] = "json"
        resp = post_json(f"{base}/api/chat", payload,
                         timeout=self.timeout, headers=self._headers())
        text = (resp.get("message") or {}).get("content", "")
        in_tok = int(resp.get("prompt_eval_count", len(prompt) // 4))
        out_tok = int(resp.get("eval_count", len(text) // 4))
        return text, in_tok, out_tok

    def embed(self, texts: list[str]) -> tuple[list[list[float]], list[int]]:
        resp = post_json(
            f"{self.base_url}/embeddings",
            {"model": self.embedding_model, "input": texts},
            timeout=self.timeout,
            headers=self._headers(),
        )
        # provider may return out of order; "index" is authoritative
        rows = sorted(resp["data"], key=lambda d: d["index"])
        vecs = [r["embedding"] for r in rows]
        usage = resp.get("usage") or {}
        total = int(usage.get("prompt_tokens",
                              sum(len(t) // 4 for t in texts)))
        return vecs, _apportion_tokens(total, texts)


def _apportion_tokens(total: int, texts: list[str]) -> list[int]:
    """Deterministic largest-remainder split of a billed call-total
    into per-text counts, weighted by the length estimate ``len//4``
    (the reference's own fallback estimator). Exactly sums to
    ``total``; remainder tokens go to the earliest texts. A KG call's
    texts are the uncached mentions of a whole batch and the cache
    keeps each text's first count, so a text's count can differ by ±1
    token with the batch that first met it — a metering estimate on
    the real-API path only (the mock client counts per text exactly)."""
    n = len(texts)
    if n == 0:
        return []
    weights = [len(t) // 4 for t in texts]
    w_sum = sum(weights)
    if w_sum == 0:
        weights = [1] * n
        w_sum = n
    base = [total * w // w_sum for w in weights]
    rem = total - sum(base)
    return [b + (1 if i < rem else 0) for i, b in enumerate(base)]


def fetch_url(url: str, *, timeout: float = 30.0,
              max_bytes: int = 20_000_000) -> str | None:
    """Fetch an http(s) URL and return the decoded body, or None on failure.

    Mirrors ``trafilatura.fetch_url`` as used by the reference
    (ctinexus/llm_processor.py:228-235): any error — invalid scheme,
    connection failure, non-2xx status, empty or undecodable body — yields
    ``None`` rather than an exception, and the caller emits fetch_failed.
    ``max_bytes`` bounds worker memory against pathological responses.
    """
    try:
        scheme = urllib.parse.urlsplit(url).scheme
        if scheme not in ("http", "https"):
            return None
        req = urllib.request.Request(url, headers={"User-Agent": _UA})
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            if not (200 <= resp.status < 300):
                return None
            raw = resp.read(max_bytes)
            charset = resp.headers.get_content_charset() or "utf-8"
        text = raw.decode(charset, errors="replace")
        return text or None
    except Exception:
        return None


def resolve_base_url(provider: str, extra: dict) -> str | None:
    """Locate a configured OpenAI-compatible endpoint for ``provider``.

    Precedence: explicit config (``extra["api_base"]``) > provider env
    (``OLLAMA_BASE_URL`` for ollama, reference llm_processor.py:1060;
    ``CUSTOM_BASE_URL`` otherwise, reference custom-gateway path).
    Returns None when no endpoint is configured (the no-network default).
    """
    if extra.get("api_base"):
        return str(extra["api_base"])
    if provider == "ollama":
        base = os.getenv("OLLAMA_BASE_URL")
        return f"{base}/v1" if base else None
    return os.getenv("CUSTOM_BASE_URL") or None
