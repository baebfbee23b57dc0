"""LLM completion client layer (operator M1 in SURVEY §2.3).

Re-expresses the reference's ``LLMCaller`` provider shaping
(reference ctinexus/llm_processor.py:1018-1094):

  * anthropic  — system/user message split + json response format
  * gemini     — ``gemini/`` model prefix, temperature 0.8, json format
  * meta       — temperature 0.8, top_p 0.9
  * ollama     — base-url override + "output valid JSON" instruction suffix
  * openai / default — temperature 0.8, json format
  * all        — max_tokens 4096 (reference :1022)

In this sandbox there is no network and no litellm, so the only *callable*
provider is the deterministic mock (``ctinexus_ray.llm.mock``). The request
shaping is still implemented and unit-tested as pure functions so that a
real HTTP provider can be plugged in by implementing ``LLMClient``.

Retries are app-level (5 attempts, reference :140-160) and live INSIDE the
stage's ``__call__`` so an API failure never poisons a Ray task; a request
the provider rejects (4xx other than 408/429) is not sent again.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Protocol

from ctinexus_ray.config import PipelineConfig


def build_request(
    provider: str,
    model: str,
    prompt: str,
    *,
    temperature: float = 0.8,
    max_tokens: int = 4096,
) -> dict:
    """Shape a completion request for a provider. Pure; unit-testable."""
    provider = provider.lower()
    request: dict = {
        "model": model,
        "max_tokens": max_tokens,
        "temperature": temperature,
        "messages": [{"role": "user", "content": prompt}],
    }
    if provider == "anthropic":
        request["messages"] = [
            {"role": "system", "content": "Respond with valid JSON only."},
            {"role": "user", "content": prompt},
        ]
        request["response_format"] = {"type": "json_object"}
    elif provider == "gemini":
        request["model"] = f"gemini/{model}"
        request["response_format"] = {"type": "json_object"}
    elif provider == "meta":
        request["top_p"] = 0.9
    elif provider == "ollama":
        request["api_base"] = os.getenv("OLLAMA_BASE_URL", "http://localhost:11434")
        request["model"] = f"ollama/{model}"
        request["messages"] = [
            {"role": "user", "content": prompt + "\nYou must output valid JSON."}
        ]
    else:  # openai / custom gateway / default
        request["response_format"] = {"type": "json_object"}
        base_url = os.getenv("CUSTOM_BASE_URL")
        if base_url:
            request["api_base"] = base_url
            request["api_key"] = os.getenv("CUSTOM_API_KEY")
    return request


class LLMClient(Protocol):
    """Minimal completion/embedding interface the stages depend on."""

    def complete(self, prompt: str, *, temperature: float = 0.8) -> tuple[str, int, int]:
        """Return (response_text, input_tokens, output_tokens)."""
        ...

    def embed(self, texts: list[str]) -> tuple[list[list[float]], list[int]]:
        """Return (vectors, per_text_token_counts).

        Per-TEXT counts (not one call total) so usage attribution is a
        pure function of each text: with the plan-lifetime embed cache,
        a document's metered embed tokens must not depend on which other
        document warmed the cache first — and one KG call carries the
        uncached mentions of a whole batch, so a call total could not
        be attributed to its documents at all.
        """
        ...


def inflight_bound(config: PipelineConfig, client) -> int:
    """Requests one LLM-stage task keeps in flight. An explicit
    ``config.llm_max_inflight`` >= 1 wins; 0 defers to the client's own
    ``max_inflight`` (network clients block on sockets and overlap
    well, the in-process mock computes under the GIL and does not). A
    client without the attribute stays serial."""
    if config.llm_max_inflight >= 1:
        return config.llm_max_inflight
    return max(1, getattr(client, "max_inflight", 1))


class InflightPool:
    """Order-preserving map with at most ``bound`` calls in flight, for
    the per-item loops of LLM-calling stages. The thread pool is built
    once and lives as long as the stage; at bound 1 there is none and
    ``map`` is a plain serial loop (reference parity)."""

    def __init__(self, config: PipelineConfig, client):
        self.bound = inflight_bound(config, client)
        self.executor = None
        if self.bound > 1:
            from concurrent.futures import ThreadPoolExecutor

            self.executor = ThreadPoolExecutor(
                max_workers=self.bound, thread_name_prefix="llm-inflight"
            )

    def map(self, fn, items: list) -> list:
        if self.executor is None or len(items) <= 1:
            return [fn(x) for x in items]
        return list(self.executor.map(fn, items))


_STAGES: dict[type, tuple[str, object]] = {}  # class -> (plan token, stage)


def stage_for(stage_cls, token: str, ctor_kwargs: dict):
    """This worker process's ``stage_cls`` object for plan ``token``,
    shared by every batch of the plan. A new token retires the old
    plan's object (executor shut down, embed cache dropped), so no cache
    outlives its plan."""
    held, stage = _STAGES.get(stage_cls, (None, None))
    if held == token:
        return stage
    if getattr(stage, "inflight", None) and stage.inflight.executor:
        stage.inflight.executor.shutdown(wait=False)
    getattr(stage, "embed_cache", {}).clear()
    _STAGES[stage_cls] = (token, stage_cls(**ctor_kwargs))
    return _STAGES[stage_cls][1]


def stage_task_map(ds, stage_cls, ctor_kwargs: dict, config: PipelineConfig,
                   batch_size: int | None):
    """Map an LLM stage as Ray Data tasks over per-process state
    (``stage_for``, keyed by a token drawn per plan). Pooled task workers
    outlive the execution: no actor pool to spawn, no cold workers after
    it. The max of ``config.llm_concurrency`` bounds concurrent tasks."""
    token = uuid.uuid4().hex

    def run(batch):
        return stage_for(stage_cls, token, ctor_kwargs)(batch)

    run.__name__ = stage_cls.__name__  # the operator stays MapBatches(<stage>)
    bounds = config.llm_concurrency
    return ds.map_batches(
        run, batch_format="pyarrow", batch_size=batch_size,
        concurrency=max(bounds) if isinstance(bounds, tuple) else bounds,
        num_cpus=config.llm_num_cpus,
    )


def call_with_retry(fn, max_attempts: int = 5, base_delay: float = 0.0):
    """App-level retry mirroring reference ctinexus/llm_processor.py:140-160
    (re-raise after the final attempt). An exception whose ``retryable``
    is false (``llm.http.HTTPStatusError`` for a 4xx other than 408/429)
    is raised at once. ``base_delay`` adds linear backoff, which the
    reference lacks; pass 0 for exact parity."""
    last_exc: Exception | None = None
    for attempt in range(max_attempts):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — API errors are data here
            if not getattr(exc, "retryable", True):
                raise
            last_exc = exc
            if base_delay and attempt < max_attempts - 1:
                time.sleep(base_delay * (attempt + 1))
    raise last_exc  # type: ignore[misc]


def get_client(config: PipelineConfig) -> LLMClient:
    """Resolve the configured provider to a client instance.

    ``mock`` is always constructible. Any other provider resolves to the
    real OpenAI-compatible HTTP client when an endpoint is configured
    (``config.extra["api_base"]``, ``OLLAMA_BASE_URL``, or
    ``CUSTOM_BASE_URL`` — see ``llm.http.resolve_base_url``); with no
    endpoint configured it raises, since this sandbox has no external
    network.
    """
    if config.provider == "mock":
        from ctinexus_ray.llm.mock import MockLLM

        return MockLLM(
            model=config.model,
            embedding_model=config.embedding_model,
            canned_triples=config.extra.get("canned_triples"),
        )
    from ctinexus_ray.llm.http import HTTPLLMClient, resolve_base_url

    base_url = resolve_base_url(config.provider, config.extra)
    if base_url:
        return HTTPLLMClient(
            base_url,
            provider=config.provider,
            model=config.model,
            embedding_model=config.embedding_model,
            api_key=config.extra.get("api_key") or os.getenv("CUSTOM_API_KEY"),
            timeout=float(config.extra.get("llm_timeout", 60.0)),
            wire=config.extra.get("wire"),
        )
    raise NotImplementedError(
        f"Provider '{config.provider}' has no endpoint configured and this "
        "environment has no external network. Set config.extra['api_base'] "
        "(or CUSTOM_BASE_URL / OLLAMA_BASE_URL) to an OpenAI-compatible "
        "endpoint to use the real HTTP client."
    )
