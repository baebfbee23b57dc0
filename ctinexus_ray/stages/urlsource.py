"""URL-source ingestion stage (S2 + E0/E1-E5 + E13 + summarizer M1):
per-url validate -> extract -> normalize -> focus -> summarize (temp 0.0)
-> well-formedness check -> conditional repair -> final_text.

Re-expresses the reference's ``UrlSourceInput.call``
(reference ctinexus/llm_processor.py:220-313) over Arrow batches: the
``html`` column of the input corpus replaces the live fetch (the corpus IS
the crawl), errors become status/error_code columns instead of error
dicts, and the summarizer runs as a task map over per-process state.
"""

from __future__ import annotations

import pyarrow as pa

from ctinexus_ray.config import PipelineConfig
from ctinexus_ray.functions.extract import extract_hybrid_content
from ctinexus_ray.functions.text import (
    build_cti_focus_text,
    extract_domain,
    is_valid_url,
    is_well_formed_cti_paragraph,
    normalize_summary_text,
    normalize_text,
    normalize_url,
)
from ctinexus_ray.llm.client import InflightPool, call_with_retry, get_client
from ctinexus_ray.llm.client import stage_task_map
from ctinexus_ray.llm.prompts import build_repair_prompt, build_summary_prompt


_RECORD_TYPES = {
    "url": pa.string(), "status": pa.string(), "error_code": pa.string(),
    "source_domain": pa.string(), "title": pa.string(),
    "author": pa.string(), "date": pa.string(),
    "raw_text_length": pa.int64(), "summarized_text": pa.string(),
    "final_text": pa.string(), "summary_input_tokens": pa.int64(),
    "summary_output_tokens": pa.int64(),
}


def _error_row(url: str, error_code: str, domain: str = "") -> dict:
    return {
        "url": url, "status": "error", "error_code": error_code,
        "source_domain": domain, "title": None, "author": None, "date": None,
        "raw_text_length": 0, "summarized_text": "", "final_text": "",
        "summary_input_tokens": 0, "summary_output_tokens": 0,
    }


class UrlSourceStage:
    """LLM stage: (url, html, ...) -> url-source record columns, built
    once per worker process per plan. URLs of a batch overlap their
    summarize calls up to the client's in-flight bound."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.client = get_client(config)
        self.inflight = InflightPool(config, self.client)

    def _summarize(self, url, domain, title, focused, normalized):
        prompt = build_summary_prompt(url, domain, title, focused or normalized)
        text, in_tok, out_tok = call_with_retry(
            lambda: self.client.complete(
                prompt, temperature=self.config.summary_temperature
            ),
            max_attempts=self.config.max_retries,
        )
        summary = normalize_summary_text(text)
        # paragraph-only enforcement with one repair attempt
        # (reference ctinexus/llm_processor.py:293-309)
        if not is_well_formed_cti_paragraph(summary):
            repair_prompt = build_repair_prompt(
                url, domain, title, summary, focused or normalized
            )
            repaired, r_in, r_out = call_with_retry(
                lambda: self.client.complete(
                    repair_prompt, temperature=self.config.summary_temperature
                ),
                max_attempts=self.config.max_retries,
            )
            repaired = normalize_summary_text(repaired)
            in_tok += r_in
            out_tok += r_out
            if repaired:
                summary = repaired
        return summary, in_tok, out_tok

    def _record(self, url, html) -> dict:
        """One url's output row: validate -> extract -> summarize."""
        if not isinstance(url, str) or not url.strip():
            return _error_row(url or "", "invalid_url")
        normalized_url = normalize_url(url)
        if not is_valid_url(normalized_url):
            return _error_row(normalized_url, "invalid_url")
        if not html:
            return _error_row(normalized_url, "fetch_failed")
        if isinstance(html, bytes):
            html = html.decode("utf-8", errors="replace")
        extract = extract_hybrid_content(html)
        raw_text = extract.get("text") or ""
        if not raw_text:
            return _error_row(normalized_url, "extraction_failed",
                              extract_domain(normalized_url))
        normalized = normalize_text(raw_text)
        if not normalized:
            return _error_row(normalized_url, "empty_content",
                              extract_domain(normalized_url))
        focused = build_cti_focus_text(normalized)
        domain = extract_domain(normalized_url)
        summary, in_tok, out_tok = self._summarize(
            normalized_url, domain, extract.get("title"), focused, normalized
        )
        return {
            "url": normalized_url, "status": "success", "error_code": "",
            "source_domain": domain, "title": extract.get("title"),
            "author": extract.get("author"), "date": extract.get("date"),
            "raw_text_length": len(raw_text.strip()),
            "summarized_text": summary, "final_text": summary or normalized,
            "summary_input_tokens": in_tok, "summary_output_tokens": out_tok,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        pairs = list(zip(batch.column("url").to_pylist(),
                         batch.column("html").to_pylist()))
        rows = self.inflight.map(lambda pair: self._record(*pair), pairs)
        return pa.Table.from_pydict(
            {k: pa.array([r[k] for r in rows], type=t)
             for k, t in _RECORD_TYPES.items()}
        )


def url_source_dataset(documents, config: PipelineConfig):
    """documents (CC shape) -> url-source records (summarized final_text)."""
    return stage_task_map(documents, UrlSourceStage, {"config": config}, config,
                          config.doc_batch_size)


class FetchStage:
    """Live URL fetcher (S2): (url, ...) -> + (html, fetch_status) columns.

    The reference fetches one URL inline via ``trafilatura.fetch_url``
    (ctinexus/llm_processor.py:228-235); at corpus scale fetching is an
    I/O-bound actor-pool stage — each actor keeps ``max_inflight``
    requests outstanding on a thread pool (threads block on sockets, not
    the GIL), and failures become ``fetch_status="fetch_failed"`` with a
    null html rather than exceptions. Output html is ``binary`` (utf-8),
    matching the corpus ``html`` column, so the result feeds straight
    into ``url_source_dataset``.
    """

    def __init__(self, timeout: float = 30.0, max_inflight: int = 8):
        from concurrent.futures import ThreadPoolExecutor

        self.timeout = timeout
        self.pool = ThreadPoolExecutor(max_workers=max(1, max_inflight))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ctinexus_ray.llm.http import fetch_url

        urls = batch.column("url").to_pylist()

        def one(url):
            if not isinstance(url, str) or not is_valid_url(normalize_url(url)):
                return None
            return fetch_url(normalize_url(url), timeout=self.timeout)

        htmls = list(self.pool.map(one, urls))
        out = batch.append_column(
            "html",
            pa.array([h.encode("utf-8") if h else None for h in htmls],
                     type=pa.binary()),
        )
        return out.append_column(
            "fetch_status",
            pa.array(["success" if h else "fetch_failed" for h in htmls]),
        )


def fetch_dataset(urls, *, timeout: float = 30.0, max_inflight: int = 8,
                  concurrency=(1, 8), batch_size: int = 64):
    """urls dataset (url column) -> + html/fetch_status via live HTTP fetch.

    Small batches keep per-task latency bounded when some hosts are slow;
    size ``concurrency`` x ``max_inflight`` to the politeness budget, not
    the CPU count — fetching is network-bound.
    """
    return urls.map_batches(
        FetchStage,
        fn_constructor_kwargs={"timeout": timeout, "max_inflight": max_inflight},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=0.25,
    )
