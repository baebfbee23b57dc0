"""CLI entry point.

Single-document mode mirrors the reference CLI (reference
ctinexus/app.py:98-195): read report text from --text / --input-file, run
IE -> ET -> EA -> LP, write the nested JSON result envelope (indent=4) to
--output or stdout. No Ray session is needed for one document.

Corpus mode runs the distributed pipeline over a Common-Crawl-shaped
parquet directory and writes triples/nodes/edges/metrics parquet.

    python -m ctinexus_ray --text "APT29 used PowerShell ..."
    python -m ctinexus_ray --input-file report.txt --output result.json
    python -m ctinexus_ray corpus --input /data/cc --output /data/kg
"""

from __future__ import annotations

import argparse
import json
import sys


def run_single(args) -> int:
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.eval import focus_text
    from ctinexus_ray.llm.client import get_client
    from ctinexus_ray.pipelines.kg import default_demos
    from ctinexus_ray.pipelines.singledoc import process_document

    from ctinexus_ray.config import compose_config

    config = compose_config(
        {
            "provider": args.provider,
            "model": args.model,
            "similarity_threshold": args.similarity_threshold,
        },
        *args.config,
        overrides=args.overrides,
    )

    url_source_record = None
    if args.text:
        text = args.text
    elif args.input_file:
        with open(args.input_file, encoding="utf-8") as fh:
            text = fh.read()
    elif args.url:
        # live single-URL ingestion (reference ctinexus/app.py:54,
        # gradio_utils.py run_pipeline: fetch -> extract -> summarize,
        # then the KG stages run over final_text)
        import pyarrow as pa

        from ctinexus_ray.llm.http import fetch_url
        from ctinexus_ray.stages.urlsource import UrlSourceStage

        html = fetch_url(args.url)
        one = pa.Table.from_pydict(
            {"url": [args.url], "html": [html.encode() if html else None]}
        )
        record = UrlSourceStage(config)(one).to_pylist()[0]
        if record["status"] != "success":
            print(f"error: [{record['error_code']}] URL ingestion failed",
                  file=sys.stderr)
            return 1
        url_source_record = record
        text = record["final_text"]
    else:
        print("error: provide --text, --input-file, or --url", file=sys.stderr)
        return 2

    client = get_client(config)
    demos = default_demos(config)
    envelope = process_document(focus_text(text), client, config, demos)
    if url_source_record is not None:
        envelope["URL_SOURCE"] = url_source_record
    payload = json.dumps(envelope, indent=4)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


def run_corpus(args) -> int:
    import ray

    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.pipelines.kg import read_documents, run_kg_to_parquet

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    from ctinexus_ray.config import compose_config

    config = compose_config(
        {"similarity_threshold": args.similarity_threshold},
        *args.config,
        overrides=args.overrides,
    )
    paths = run_kg_to_parquet(read_documents(args.input), args.output, config)
    print(json.dumps(paths, indent=2))
    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ctinexus_ray")
    parser.add_argument("--text", help="report text")
    parser.add_argument("--input-file", help="path to a report text file")
    parser.add_argument("--url", help="CTI report URL to fetch and process")
    parser.add_argument("--output", help="output path (JSON envelope)")
    parser.add_argument("--provider", default="mock")
    parser.add_argument("--model", default="mock-1")
    parser.add_argument(
        "--similarity-threshold", type=float, default=0.6,
        help="EA cosine threshold (0-1)",
    )
    parser.add_argument(
        "--config", action="append", default=[], metavar="FILE.json",
        help="config layer(s), later wins (compose surface)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="dotted config override, e.g. --set shot=5 --set extra.api_base=...",
    )
    sub = parser.add_subparsers(dest="command")
    corpus = sub.add_parser("corpus", help="run the distributed pipeline")
    corpus.add_argument("--input", required=True, help="parquet dir (CC shape)")
    corpus.add_argument("--output", required=True, help="output dir")
    corpus.add_argument("--similarity-threshold", type=float, default=0.6)
    corpus.add_argument("--config", action="append", default=[])
    corpus.add_argument("--set", action="append", default=[], dest="overrides")

    args = parser.parse_args(argv)
    if args.command == "corpus":
        return run_corpus(args)
    return run_single(args)


if __name__ == "__main__":
    raise SystemExit(main())
