"""End-to-end Ray Data pipeline tests: parity with the straight-line
single-document runner (P/R), determinism across runs, schema stability."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from ctinexus_ray.pipelines.kg import build_kg, extract_documents
from ctinexus_ray.pipelines.singledoc import process_document
from ctinexus_ray.schemas import TRIPLES_SCHEMA
from ctinexus_ray.sources.synth import make_cc_table


@pytest.fixture(scope="module")
def small_corpus(ray_session):
    return ray.data.from_arrow(make_cc_table(40)).repartition(4)


def _triple_set(rows):
    """Comparable (doc, subj, rel, obj, predicted) set."""
    return {
        (r["doc_url"], r["subj_text"], r["rel"], r["obj_text"], r["predicted"])
        for r in rows
    }


class TestEndToEnd:
    def test_flagship_counts_and_schema(self, small_corpus, config):
        out = build_kg(small_corpus, config)
        triples = out["triples"].materialize()
        assert triples.count() > 0
        assert triples.schema().base_schema.equals(TRIPLES_SCHEMA)

    def test_parity_with_singledoc(self, small_corpus, config, mock_client, demos):
        """The distributed pipeline must emit exactly the triples the
        straight-line per-document runner emits (P/R = 1.0) — the parity
        gate of BASELINE.md, testable because the mock is deterministic."""
        out = build_kg(small_corpus, config, demos)
        ray_rows = out["triples"].take_all()

        expected = set()
        from ctinexus_ray.functions.text import build_cti_focus_text, normalize_text
        from ctinexus_ray.functions.extract import extract_hybrid_content
        from ctinexus_ray.stages.triples import HALLUCINATION_ENTITY_ID  # noqa: F401

        for row in small_corpus.take_all():
            html = row["html"]
            text = extract_hybrid_content(
                html.decode() if isinstance(html, bytes) else html
            )["text"]
            cti = build_cti_focus_text(text)
            env = process_document(cti, mock_client, config, demos, {})
            for t in env["EA"]["aligned_triplets"]:
                expected.add(
                    (row["url"], t["subject"]["mention_text"], t["relation"],
                     t["object"]["mention_text"], False)
                )
            for link in env["LP"]["predicted_links"]:
                expected.add(
                    (row["url"], link["subject"]["mention_text"], link["relation"],
                     link["object"]["mention_text"], True)
                )

        got = _triple_set(ray_rows)
        missing = expected - got
        extra = got - expected
        assert not missing and not extra, (
            f"precision/recall < 1.0: {len(missing)} missing, {len(extra)} extra"
        )

    def test_deterministic_across_runs(self, small_corpus, config):
        a = _triple_set(build_kg(small_corpus, config)["triples"].take_all())
        b = _triple_set(build_kg(small_corpus, config)["triples"].take_all())
        assert a == b

    def test_extraction_byte_identity_across_runs(self, small_corpus, config):
        cols = ["url", "extracted_text"]
        a = {r["url"]: r["extracted_text"]
             for r in extract_documents(small_corpus, config).select_columns(cols).take_all()}
        b = {r["url"]: r["extracted_text"]
             for r in extract_documents(small_corpus, config).select_columns(cols).take_all()}
        assert a == b

    def test_html_dropped_after_extraction(self, small_corpus, config):
        extracted = extract_documents(small_corpus, config)
        assert "html" not in extracted.schema().names

    def test_nodes_canonicalization(self, small_corpus, config):
        out = build_kg(small_corpus, config)
        nodes = out["nodes"].take_all()
        assert len(nodes) > 0
        keys = [n["entity_key"] for n in nodes]
        assert len(keys) == len(set(keys))  # one row per canonical entity
        assert all(n["doc_count"] >= 1 and n["mention_count"] >= 1 for n in nodes)


class TestHallucinationSentinel:
    def test_sentinel_rows_emitted(self, small_corpus, config):
        """Quirk Q7: hallucinated predictions are kept, flagged with the
        sentinel entity id."""
        out = build_kg(small_corpus, config)
        rows = out["triples"].take_all()
        predicted = [r for r in rows if r["predicted"]]
        assert predicted, "expected some predicted links on 40 docs"
        sentinels = [r for r in predicted if r["subj_entity_id"] == -2]
        honest = [r for r in predicted if r["subj_entity_id"] != -2]
        # the mock's hallucination rate guarantees both kinds on 40 docs
        assert honest
        assert all(r["subj_text"] == "hallucination" for r in sentinels)


def _sorted_frame(table: pa.Table):
    """``table`` as a pandas frame sorted by every column (list values as
    tuples, which sort)."""
    df = table.to_pandas()
    for name in df.columns:
        if pa.types.is_list(table.schema.field(name).type):
            df[name] = df[name].map(tuple)
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _rows_under(path) -> int:
    import os

    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
               for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet"))


class TestRunKgToParquet:
    """The four tables ``run_kg_to_parquet`` derives from its docs_kg
    checkpoint."""

    def test_derived_outputs_equal_the_per_table_plans(self, ray_session, tmp_path):
        import os

        import pandas as pd
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from ctinexus_ray.config import PipelineConfig
        from ctinexus_ray.pipelines.kg import (
            canonicalize_nodes,
            edges_dataset,
            run_kg_to_parquet,
            triples_dataset,
        )

        config = PipelineConfig(llm_concurrency=(1, 2), doc_batch_size=8,
                                cpu_batch_size=8)
        paths = run_kg_to_parquet(ray.data.from_arrow(make_cc_table(48)),
                                  str(tmp_path / "out"), config)
        docs_kg = ray.data.read_parquet(paths["docs_kg"])
        assert docs_kg.count() == 48
        assert len(os.listdir(paths["triples"])) > 1  # several writing tasks

        triples = triples_dataset(docs_kg, config)
        for name, plan in [("triples", triples),
                           ("edges", edges_dataset(triples, config)),
                           ("nodes", canonicalize_nodes(docs_kg, config))]:
            want = pa.concat_tables(
                t for t in ray.get(plan.to_arrow_refs()) if t.num_rows)
            got = pq.read_table(paths[name])
            assert got.num_rows > 0
            assert got.schema.equals(want.schema), name
            pd.testing.assert_frame_equal(_sorted_frame(got), _sorted_frame(want))

        table = pq.read_table(paths["docs_kg"])
        sums = {"docs": table.num_rows}
        for out, col in [("triples", "triples_count"), ("mentions", "mentions_num"),
                         ("entities", "entity_num"), ("subgraphs", "subgraph_num"),
                         ("dropped_triplets", "dropped_triplets"),
                         ("llm_input_tokens", "llm_input_tokens"),
                         ("llm_output_tokens", "llm_output_tokens"),
                         ("embed_tokens", "embed_tokens")]:
            sums[out] = pc.sum(table.column(col)).as_py()
        metrics = pq.read_table(paths["metrics"])
        assert metrics.schema == pa.schema(
            [("stage", pa.string())] + [(n, pa.int64()) for n in sums])
        assert metrics.to_pylist() == [{"stage": "kg", **sums}]

    def test_empty_corpus_writes_empty_outputs(self, ray_session, config, tmp_path):
        import os

        from ctinexus_ray.pipelines.kg import run_kg_to_parquet

        paths = run_kg_to_parquet(
            ray.data.from_arrow(make_cc_table(4).slice(0, 0)),
            str(tmp_path / "out"), config,
        )
        assert sorted(paths) == ["docs_kg", "edges", "metrics", "nodes", "triples"]
        for path in paths.values():
            assert os.path.isdir(path)
            assert _rows_under(path) == 0

    def test_build_runs_one_execution(self, ray_session, config, tmp_path, monkeypatch):
        """extract -> KG task map -> derive map -> reduce -> nodes write
        run as ONE Ray Data execution (the metrics row is a driver-side
        scan)."""
        import pyarrow.parquet as pq
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from ctinexus_ray.pipelines.kg import run_kg_to_parquet

        calls, real = [], StreamingExecutor.execute

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", counted)
        paths = run_kg_to_parquet(ray.data.from_arrow(make_cc_table(24)),
                                  str(tmp_path / "out"), config)
        assert len(calls) == 1
        assert pq.read_table(paths["docs_kg"]).num_rows == 24
        assert pq.read_table(paths["metrics"]).column("docs").to_pylist() == [24]

    def test_retried_derive_batch_overwrites_its_files(self, config, demos, tmp_path):
        """A retried derive task re-runs a batch under the same (plan
        token, task index, batch ordinal): the same docs_kg, triples and
        edges files, the same rows."""
        import os

        import pyarrow.parquet as pq

        from ctinexus_ray.pipelines.kg import KG_DOC_COLUMNS, derive_batch
        from ctinexus_ray.stages.extract import extract_batch
        from ctinexus_ray.stages.kg import KGDocStage
        from ctinexus_ray.stages.triples import (
            entity_partials_batch,
            explode_triples_batch,
        )

        batch = KGDocStage(config, demos)(
            extract_batch(make_cc_table(12))).select(KG_DOC_COLUMNS)
        dirs = [tmp_path / "docs_kg", tmp_path / "triples", tmp_path / "edges"]
        for d in dirs:
            d.mkdir()

        def derive(ordinal):
            return derive_batch(batch, *map(str, dirs), "plan", 3, ordinal)

        def state():
            return [(sorted(os.listdir(d)), _rows_under(d)) for d in dirs]

        partials = derive(0)
        first = state()
        name = "plan_000003_000000.parquet"
        n = explode_triples_batch(batch).num_rows
        assert n > 0 and first == [([name], 12), ([name], n), ([name], n)]
        assert pq.read_table(dirs[0] / name).equals(batch)
        assert partials.equals(entity_partials_batch(batch))
        derive(0)
        assert state() == first
        derive(1)  # the task's next batch gets a file of its own
        assert [len(files) for files, _ in state()] == [2, 2, 2]


class TestSourcesConform:
    def test_conform_schema_cast_fill_drop_order(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ctinexus_ray.sources.documents import conform_schema

        messy = pa.Table.from_pydict(
            {
                "text": pa.array(["a", "b"], type=pa.large_string()),
                "extra": [1, 2],
                "url": ["u1", "u2"],
            }
        )
        target = pa.schema(
            [("url", pa.string()), ("text", pa.string()), ("lang", pa.string())]
        )
        out = conform_schema(ray.data.from_arrow(messy), target)
        t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
        assert t.schema == target
        assert t.column("lang").null_count == 2
        assert t.column("text").to_pylist() == ["a", "b"]

    def test_read_cc_jsonl_roundtrip(self, ray_session, tmp_path):
        import json

        import ray.data

        from ctinexus_ray.sources.documents import read_cc_jsonl
        from ctinexus_ray.sources.synth import CC_SCHEMA

        path = tmp_path / "shard.jsonl"
        with open(path, "w") as f:
            for i in range(5):
                f.write(
                    json.dumps(
                        {
                            "url": f"https://example.test/{i}",
                            "warc_ts": "2024-01-02T03:04:05",
                            "html": f"<html>{i}</html>",
                            "text": f"doc {i}",
                            "lang": "en",
                        }
                    )
                    + "\n"
                )
        ds = read_cc_jsonl(str(path))
        import pyarrow as pa

        t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
        assert t.schema == CC_SCHEMA
        assert t.num_rows == 5
        rows = sorted(
            zip(t.column("url").to_pylist(), t.column("html").to_pylist())
        )
        assert rows[0] == ("https://example.test/0", b"<html>0</html>")

    def test_read_cc_csv_roundtrip(self, ray_session, tmp_path):
        import csv

        from ctinexus_ray.sources.documents import read_cc_csv
        from ctinexus_ray.sources.synth import CC_SCHEMA

        path = tmp_path / "shard.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["url", "warc_ts", "html", "text", "lang"])
            for i in range(4):
                w.writerow(
                    [
                        f"https://example.test/{i}",
                        "2024-01-02T03:04:05",
                        f"<html>{i}</html>",
                        f"doc {i}",
                        "en",
                    ]
                )
        import pyarrow as pa

        ds = read_cc_csv(str(path))
        t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
        assert t.schema == CC_SCHEMA and t.num_rows == 4
        rows = sorted(
            zip(t.column("url").to_pylist(), t.column("html").to_pylist())
        )
        assert rows[0] == ("https://example.test/0", b"<html>0</html>")


class TestOrcReader:
    def test_read_cc_orc_roundtrip(self, ray_session, tmp_path):
        import pyarrow as pa

        from ctinexus_ray.sources.documents import read_cc_orc, write_cc_orc
        from ctinexus_ray.sources.synth import CC_SCHEMA, make_cc_row

        write_cc_orc(tmp_path, 25, rows_per_file=10)
        assert len(list(tmp_path.glob("*.orc"))) == 3
        ds = read_cc_orc(str(tmp_path))
        t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
        assert t.schema == CC_SCHEMA and t.num_rows == 25
        by_url = dict(zip(t.column("url").to_pylist(),
                          t.column("html").to_pylist()))
        for i in (0, 9, 10, 24):
            want = make_cc_row(i)
            assert by_url[want["url"]] == want["html"]
