"""Loopback OpenAI-compatible LLM endpoint with a seeded latency and
fault model, run as its own process.

    python3 perfbench/llm_stub.py --seed 7

Serves ``POST /chat/completions`` and ``POST /embeddings`` on
127.0.0.1 (port printed as the first stdout line, ``PORT <n>``),
``GET /stats`` (counters as JSON) and ``POST /reset`` (starts a round:
see below; answers with the counters). Closing the process's stdin
shuts it down; its last stdout line is then the final counters as JSON.

Answers come from ``MockLLM.complete`` / ``MockLLM.embed`` with a
``usage`` block equal to the mock's own token counts, so a pipeline run
against this endpoint writes the same ``docs_kg`` bytes as a run with
``provider="mock"``. What the endpoint adds is time and faults, both a
pure function of (seed, request body) within a round, never of arrival
order:

* latency = a heavy-tailed time to the first token plus the output
  tokens at a fixed decode rate, both from public figures for hosted
  chat models and scaled down by ``SCALE`` (see the constants); the
  handler thread sleeps, so the endpoint costs waiting, not CPU;
* a seeded share of request bodies fails on its first attempt in a
  round with 429 or 503 (a retry of the same body succeeds), the way a
  rate limiter or an overloaded replica sheds load. ``POST /reset``
  forgets which bodies were tried, so every round sees the same faults.
"""

from __future__ import annotations

import argparse
import hashlib
import http.server
import json
import math
import statistics
import sys
import threading
import time

from ctinexus_ray.llm.mock import MockLLM
from spans import InflightGauge

_NORMAL = statistics.NormalDist()
# Round figures for a small hosted chat model, as public API latency
# trackers (e.g. the Artificial Analysis LLM leaderboard) reported them
# in 2024-25: about 0.5 s to the first token and about 100 output tokens
# per second. Embedding calls get the first-token share only.
FIRST_TOKEN_S = 0.5
OUT_TOKENS_PER_S = 100.0
# Every modelled latency is divided by SCALE so that a 128-document
# build takes under 20 s, one build per run: at full scale one document
# (three completions of ~155 output tokens and one embedding call with
# the mock's answers) waits about 7 s, here about 70 ms. That is still
# about 80 % of the KG
# stage's wall time per document; its CPU time, HTTP and JSON work
# included, is about 8 ms (perfbench/README.md, "LLM stub").
SCALE = 100.0
# The first-token time is log-normal around its median (p99 about 6x
# the median) and capped at 25x the median, far below the client's
# 60 s timeout. A choice, not a measurement: it makes the tail matter
# without letting one call decide a round.
SIGMA = 0.8
CAP = 25.0
# Share of request bodies whose first attempt fails. Also a choice, not
# a measured provider error rate: it makes every round take the retry
# path a few dozen times.
FAIL_SHARE = 0.03


class Counters:
    """Request/in-flight/retry counters shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inflight = InflightGauge()
        self.t0 = time.perf_counter()
        self.complete_calls = 0
        self.embed_calls = 0
        self.embed_texts = 0
        self.failed = 0
        self.sleep_s = 0.0

    def leave(self, kind: str, n_texts: int, ok: bool, slept: float) -> None:
        self.inflight.leave()
        with self.lock:
            if kind == "complete":
                self.complete_calls += 1
            else:
                self.embed_calls += 1
                self.embed_texts += n_texts
            if not ok:
                self.failed += 1
            self.sleep_s += slept

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "complete_calls": self.complete_calls,
                "embed_calls": self.embed_calls,
                "embed_texts": self.embed_texts,
                "requests": self.complete_calls + self.embed_calls,
                "failed": self.failed,
                "sleep_s": self.sleep_s,
                "wall_s": time.perf_counter() - self.t0,
            } | self.inflight.snapshot()


class Model:
    """Seeded latency and first-attempt fault model."""

    def __init__(self, seed: int):
        self.seed = seed
        self.seen: set[bytes] = set()
        self.seen_lock = threading.Lock()

    def reset(self) -> None:
        """Start a round: every body's next attempt is a first attempt."""
        with self.seen_lock:
            self.seen.clear()

    def _uniforms(self, body: bytes) -> tuple[float, float, bytes]:
        digest = hashlib.blake2b(body, digest_size=16,
                                 key=str(self.seed).encode()).digest()
        u1 = (int.from_bytes(digest[:8], "big") + 0.5) / 2**64
        u2 = (int.from_bytes(digest[8:], "big") + 0.5) / 2**64
        return u1, u2, digest

    def delay_s(self, body: bytes, out_tokens: int) -> float:
        u1, _, _ = self._uniforms(body)
        first = FIRST_TOKEN_S * min(CAP, math.exp(SIGMA * _NORMAL.inv_cdf(u1)))
        return (first + out_tokens / OUT_TOKENS_PER_S) / SCALE

    def first_attempt_fails(self, body: bytes) -> int:
        """0, or the status (429/503) to answer this body with."""
        _, u2, digest = self._uniforms(body)
        if u2 >= FAIL_SHARE:
            return 0
        with self.seen_lock:
            if digest in self.seen:
                return 0
            self.seen.add(digest)
        return 429 if digest[0] % 2 else 503


def make_handler(model: Model, counters: Counters):
    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path.rstrip("/") == "/stats":
                self._send(200, counters.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            path = self.path.rstrip("/")
            if path == "/reset":
                model.reset()
                counters.inflight.restart_max()
                self._send(200, counters.snapshot())
                return
            if path not in ("/chat/completions", "/embeddings"):
                self._send(404, {"error": "not found"})
                return
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            kind = "complete" if path == "/chat/completions" else "embed"
            counters.inflight.enter()
            ok, slept, n_texts = False, 0.0, 0
            try:
                request = json.loads(body)
                if kind == "embed":
                    n_texts = len(request["input"])
                status = model.first_attempt_fails(body)
                if status:
                    self._send(status, {"error": {"message": "try again",
                                                  "type": "rate_limit"}})
                    return
                if kind == "complete":
                    payload, out_tokens = _complete(MockLLM(model=request["model"]), request)
                else:
                    payload, out_tokens = _embed(MockLLM(embedding_model=request["model"]), request)
                slept = model.delay_s(body, out_tokens)
                time.sleep(slept)
                self._send(200, payload)
                ok = True
            finally:
                counters.leave(kind, n_texts, ok, slept)

    return Handler


def _complete(mock: MockLLM, request: dict) -> tuple[dict, int]:
    prompt = request["messages"][-1]["content"]
    text, in_tok, out_tok = mock.complete(prompt, temperature=request.get("temperature", 0.8))
    return {
        "object": "chat.completion",
        "model": request["model"],
        "choices": [{"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": in_tok, "completion_tokens": out_tok,
                  "total_tokens": in_tok + out_tok},
    }, out_tok


def _embed(mock: MockLLM, request: dict) -> tuple[dict, int]:
    vectors, counts = mock.embed(list(request["input"]))
    total = sum(counts)
    return {
        "object": "list",
        "model": request["model"],
        "data": [{"object": "embedding", "index": i, "embedding": v}
                 for i, v in enumerate(vectors)],
        "usage": {"prompt_tokens": total, "total_tokens": total},
    }, 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    counters = Counters()
    model = Model(args.seed)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, counters))
    server.daemon_threads = True
    # a short poll interval so that shutdown() at exit returns promptly
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # parent closes stdin to stop us
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        print(json.dumps(counters.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
