"""In-memory spans and counts for the traced benchmark run.

A span records (name, start, end, parent, trace id); spans opened inside
another span on the same thread become its children and inherit its
trace id (one document or one tick). Nothing is written until
``write`` at the end of the run.
"""

from __future__ import annotations

import collections
import contextlib
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, trace_id=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent["trace"]
        rec = {"name": name, "parent": parent["id"] if parent else None,
               "trace": trace_id, "start": time.perf_counter(), "end": None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_s(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their children's."""
        children = collections.defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - children[s["id"]]
            for s in self.spans if s["name"] == name
        )

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class InflightGauge:
    """Requests in flight: the current and highest count, and the time
    integral of the count over the time at least one is in flight (so
    ``area / busy_s`` is the mean concurrency while busy)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.current = 0
        self.max = 0
        self.area = 0.0
        self.busy_s = 0.0
        self._last = time.perf_counter()

    def _advance(self) -> None:
        now = time.perf_counter()
        dt = now - self._last
        self.area += self.current * dt
        if self.current:
            self.busy_s += dt
        self._last = now

    def enter(self) -> None:
        with self.lock:
            self._advance()
            self.current += 1
            self.max = max(self.max, self.current)

    def leave(self) -> None:
        with self.lock:
            self._advance()
            self.current -= 1

    def restart_max(self) -> None:
        """Start a new maximum from the current count."""
        with self.lock:
            self.max = self.current

    def snapshot(self) -> dict:
        with self.lock:
            self._advance()
            return {"inflight_max": self.max, "inflight_area": self.area,
                    "busy_s": self.busy_s}

    def mean(self) -> float:
        snap = self.snapshot()
        return snap["inflight_area"] / snap["busy_s"] if snap["busy_s"] else 0.0


class CountingClient:
    """``LLMClient`` proxy: one span per call attempt plus call, text,
    failure and in-flight counts; the wrapped client is untouched."""

    def __init__(self, client, tracer: Tracer):
        self.client = client
        self.tracer = tracer
        self.inflight = InflightGauge()

    def complete(self, prompt: str, *, temperature: float = 0.8):
        return self._call("complete", 0, lambda: self.client.complete(prompt, temperature=temperature))

    def embed(self, texts: list[str]):
        return self._call("embed", len(texts), lambda: self.client.embed(texts))

    def _call(self, kind: str, n_texts: int, fn):
        self.tracer.count(f"llm.{kind}_attempts")
        self.tracer.count("llm.embed_texts", n_texts)
        with self.tracer.span("llm.wait"):
            self.inflight.enter()
            try:
                return fn()
            except Exception:
                self.tracer.count("llm.failed")
                raise
            finally:
                self.inflight.leave()


class CountingCache(dict):
    """Embedding cache that counts lookups and hits (``run_ea`` probes
    it with ``in`` once per mention text)."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def __contains__(self, key) -> bool:
        found = super().__contains__(key)
        self.lookups += 1
        self.hits += found
        return found
