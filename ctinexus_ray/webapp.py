"""Dependency-free interactive web UI for the single-document pipeline —
the counterpart of the reference's Gradio Blocks app (reference
ctinexus/utils/gradio_utils.py:250-569, ctinexus/app.py:209-226) built
on stdlib ``http.server`` only (no Gradio/CDN assets exist in this
environment, and a data engine should not ship a UI framework).

Surface parity with the reference app:
  * paste report text OR give a URL (fetch -> extract -> summarize);
  * provider / model / similarity-threshold / shot controls;
  * run -> triples table, per-stage usage, and the interactive
    force-layout knowledge graph (the same canvas renderer as the S5
    HTML sink), plus the raw reference-shaped JSON envelope;
  * ``POST /api/run`` returns the raw envelope for scripting.

Single-document work is driver-local by design (the reference app is
too); the corpus-scale path stays ``python -m ctinexus_ray corpus``.
Start with ``python -m ctinexus_ray.webapp [--port N]``.
"""

from __future__ import annotations

import html as _html
import json
import sys
import urllib.parse

DEFAULT_PORT = 57631


def build_envelope(
    text: str | None,
    url: str | None,
    provider: str = "mock",
    model: str = "mock-1",
    similarity_threshold: float = 0.6,
    shot: int = 3,
) -> dict:
    """Run the four-stage single-document pipeline; reference envelope."""
    from ctinexus_ray.config import compose_config
    from ctinexus_ray.eval import focus_text
    from ctinexus_ray.llm.client import get_client
    from ctinexus_ray.pipelines.kg import default_demos
    from ctinexus_ray.pipelines.singledoc import process_document

    config = compose_config(
        {
            "provider": provider,
            "model": model,
            "similarity_threshold": similarity_threshold,
            "shot": shot,
        }
    )
    url_source_record = None
    if url:
        import pyarrow as pa

        from ctinexus_ray.llm.http import fetch_url
        from ctinexus_ray.stages.urlsource import UrlSourceStage

        page = fetch_url(url)
        one = pa.Table.from_pydict(
            {"url": [url], "html": [page.encode() if page else None]}
        )
        record = UrlSourceStage(config)(one).to_pylist()[0]
        if record["status"] != "success":
            raise ValueError(
                f"[{record['error_code']}] URL ingestion failed for {url!r}"
            )
        url_source_record = record
        text = record["final_text"]
    if not text or not text.strip():
        raise ValueError("provide report text or a URL")
    client = get_client(config)
    demos = default_demos(config)
    envelope = process_document(focus_text(text), client, config, demos)
    if url_source_record is not None:
        envelope["URL_SOURCE"] = url_source_record
    return envelope


def envelope_graph(envelope: dict) -> tuple[list[dict], list[dict]]:
    """(nodes, edges) for the interactive renderer from one envelope —
    aligned triples plus dashed-red predicted links (the reference
    graph_constructor node/edge shape)."""
    from ctinexus_ray.stages.triples import entity_key

    nodes: dict[int, dict] = {}
    edges: list[dict] = []

    def see(node: dict) -> int | None:
        t = node.get("entity_text") or node.get("mention_text") or ""
        if not t or node.get("entity_id") == "hallucination":
            return None
        key = entity_key(t)
        nodes.setdefault(
            key,
            {
                "entity_key": key,
                "entity_text": t,
                "entity_class": node.get("mention_class", "default"),
            },
        )
        return key

    for triple in envelope.get("EA", {}).get("aligned_triplets", []):
        s = see(triple.get("subject", {}))
        o = see(triple.get("object", {}))
        if s is None or o is None:
            continue
        edges.append(
            {"subj_key": s, "rel": triple.get("relation", ""), "obj_key": o}
        )
    for link in envelope.get("LP", {}).get("predicted_links", []):
        s = see(link.get("subject", {}))
        o = see(link.get("object", {}))
        if s is None or o is None:
            continue
        edges.append(
            {
                "subj_key": s,
                "rel": link.get("relation", ""),
                "obj_key": o,
                "predicted": True,
            }
        )
    return list(nodes.values()), edges


_FORM = """<!DOCTYPE html><html><head><meta charset="utf-8">
<title>ctinexus-ray</title>
<style>
 body {{ background:#27272a; color:#eee; font-family:sans-serif;
        max-width:860px; margin:2em auto; padding:0 1em; }}
 textarea, input, select {{ width:100%; box-sizing:border-box;
   background:#1b1b1e; color:#eee; border:1px solid #555;
   border-radius:4px; padding:8px; margin:4px 0 12px; }}
 textarea {{ height:14em; font-family:monospace; }}
 .row {{ display:flex; gap:1em; }} .row > div {{ flex:1; }}
 button {{ background:#3b82f6; color:#fff; border:0; padding:10px 28px;
   border-radius:4px; font-size:1em; cursor:pointer; }}
 h1 {{ font-size:1.4em; }} .err {{ color:#f87171; }}
</style></head><body>
<h1>ctinexus-ray — CTI knowledge-graph extraction</h1>
{error}
<form method="post" action="/run">
<label>Report text</label>
<textarea name="text" placeholder="Paste a CTI report...">{text}</textarea>
<label>— or URL</label>
<input name="url" value="{url}" placeholder="https://...">
<div class="row">
 <div><label>Provider</label>
  <select name="provider">{provider_opts}</select></div>
 <div><label>Model</label><input name="model" value="{model}"></div>
 <div><label>Similarity threshold</label>
  <input name="similarity_threshold" value="{thr}"></div>
 <div><label>Shots</label><input name="shot" value="{shot}"></div>
</div>
<button type="submit">Extract knowledge graph</button>
</form></body></html>"""

_PROVIDERS = ("mock", "openai", "anthropic", "gemini", "meta", "ollama")


def _form_page(error: str = "", **vals) -> str:
    provider = vals.get("provider", "mock")
    opts = "".join(
        f'<option value="{p}"{" selected" if p == provider else ""}>{p}</option>'
        for p in _PROVIDERS
    )
    return _FORM.format(
        error=f'<p class="err">{_html.escape(error)}</p>' if error else "",
        text=_html.escape(vals.get("text", "")),
        url=_html.escape(vals.get("url", "")),
        provider_opts=opts,
        model=_html.escape(vals.get("model", "mock-1")),
        thr=_html.escape(str(vals.get("similarity_threshold", 0.6))),
        shot=_html.escape(str(vals.get("shot", 3))),
    )


def _result_page(envelope: dict) -> str:
    from ctinexus_ray.viz import interactive_graph_html

    nodes, edges = envelope_graph(envelope)
    graph_doc = interactive_graph_html(nodes, edges, title="extracted graph")
    text_of = {n["entity_key"]: n["entity_text"] for n in nodes}
    rows = "".join(
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>".format(
            _html.escape(str(text_of.get(e["subj_key"], ""))),
            _html.escape(str(e.get("rel", ""))),
            _html.escape(str(text_of.get(e["obj_key"], ""))),
            "predicted" if e.get("predicted") else "extracted",
        )
        for e in edges
    )
    payload = json.dumps(envelope, indent=2)
    return f"""<!DOCTYPE html><html><head><meta charset="utf-8">
<title>ctinexus-ray result</title>
<style>
 body {{ background:#27272a; color:#eee; font-family:sans-serif;
        max-width:1000px; margin:2em auto; padding:0 1em; }}
 table {{ border-collapse:collapse; width:100%; margin:1em 0; }}
 td, th {{ border:1px solid #555; padding:6px 10px; text-align:left; }}
 iframe {{ width:100%; height:520px; border:1px solid #555;
           border-radius:4px; background:#27272a; }}
 details {{ margin:1em 0; }} pre {{ overflow:auto; background:#1b1b1e;
   padding:1em; border-radius:4px; }}
 a {{ color:#60a5fa; }}
</style></head><body>
<p><a href="/">&larr; new extraction</a></p>
<h1>{len(nodes)} entities, {len(edges)} triples</h1>
<iframe srcdoc="{_html.escape(graph_doc)}"></iframe>
<table><tr><th>subject</th><th>relation</th><th>object</th><th>kind</th></tr>
{rows}</table>
<details><summary>raw envelope JSON</summary><pre>{_html.escape(payload)}</pre></details>
</body></html>"""


def make_handler():
    import http.server

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):  # quiet
            pass

        def _send(self, body: str, status: int = 200,
                  ctype: str = "text/html; charset=utf-8"):
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path in ("/", "/index.html"):
                self._send(_form_page())
            else:
                self._send("not found", 404)

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length).decode("utf-8", "replace")
            if self.path == "/api/run":
                try:
                    req = json.loads(raw or "{}")
                    envelope = build_envelope(
                        req.get("text"),
                        req.get("url"),
                        provider=req.get("provider", "mock"),
                        model=req.get("model", "mock-1"),
                        similarity_threshold=float(
                            req.get("similarity_threshold", 0.6)
                        ),
                        shot=int(req.get("shot", 3)),
                    )
                    self._send(json.dumps(envelope),
                               ctype="application/json")
                except Exception as exc:  # surfaced to the caller
                    self._send(
                        json.dumps({"error": str(exc)}), 400,
                        ctype="application/json",
                    )
                return
            if self.path != "/run":
                self._send("not found", 404)
                return
            fields = {
                k: v[0]
                for k, v in urllib.parse.parse_qs(raw, keep_blank_values=True).items()
            }
            try:
                envelope = build_envelope(
                    fields.get("text") or None,
                    fields.get("url") or None,
                    provider=fields.get("provider", "mock"),
                    model=fields.get("model", "mock-1"),
                    similarity_threshold=float(
                        fields.get("similarity_threshold") or 0.6
                    ),
                    shot=int(fields.get("shot") or 3),
                )
            except Exception as exc:
                self._send(_form_page(error=str(exc), **fields))
                return
            self._send(_result_page(envelope))

    return Handler


def serve(port: int | None = None):
    """Blocking server loop; returns the bound (server, port) when
    ``port`` is 0 (test mode binds an ephemeral port and the caller
    drives ``handle_request``)."""
    import http.server

    from ctinexus_ray.viz import find_free_port

    bind = port if port is not None else find_free_port(DEFAULT_PORT)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", bind), make_handler())
    return server, server.server_address[1]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="ctinexus_ray.webapp")
    parser.add_argument("--port", type=int, default=None)
    args = parser.parse_args(argv)
    server, port = serve(args.port)
    print(f"ctinexus-ray web UI on http://127.0.0.1:{port}/ (Ctrl-C stops)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
