"""Resumable corpus-run tests (``run_kg_incremental``): shard commits,
skip-on-restart, lineage metrics, derived views covering the corpus."""

from __future__ import annotations

import pytest

from ctinexus_ray.pipelines.kg import METRIC_COLUMNS, metrics_total
from ctinexus_ray.pipelines.kg_incr import run_kg_incremental
from ctinexus_ray.sources.synth import write_cc_corpus
from ctinexus_ray.state.checkpoint import read_lineage
from ctinexus_ray.state.tableformat import latest_version, read_version, version_files


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cc")
    return [str(p) for p in write_cc_corpus(out, 60, rows_per_file=20)]


def test_resume_skips_committed_shards(corpus_files, tmp_path, ray_session, config):
    out = tmp_path / "kg"
    first = run_kg_incremental(corpus_files, str(out), config)
    assert first["processed"] == 3 and first["skipped"] == 0

    second = run_kg_incremental(corpus_files, str(out), config)
    assert second["processed"] == 0 and second["skipped"] == 3

    # each shard commit's lineage carries per-shard metrics
    recs = read_lineage(first["docs_kg"])
    assert len(recs) == 3
    for rec in recs:
        assert rec["docs"] == 20
        assert rec["triples"] > 0
        assert rec["llm_input_tokens"] > 0
        assert "wall_time_s" in rec
    # ... under the metrics table's names: summed over shards, every
    # counter equals the metrics row of the same docs_kg
    docs_kg = first["docs_kg"]
    (total,) = metrics_total(version_files(docs_kg, latest_version(docs_kg))).to_pylist()
    assert {c: sum(rec[c] for rec in recs) for c in METRIC_COLUMNS} == {
        c: total[c] for c in METRIC_COLUMNS
    }

    # final outputs cover the whole corpus
    triples = read_version(first["triples_view"])
    assert triples.count() > 0
    urls = {r["doc_url"] for r in triples.take_all()}
    assert len(urls) == 60

    nodes = read_version(first["nodes_view"])
    keys = [r["entity_key"] for r in nodes.take_all()]
    assert len(keys) == len(set(keys)) > 0


def test_partial_restart_completes(corpus_files, tmp_path, ray_session, config):
    out = tmp_path / "kg2"
    # simulate a crashed run: process only the first shard
    run_kg_incremental(corpus_files[:1], str(out), config)
    result = run_kg_incremental(corpus_files, str(out), config)
    assert result["skipped"] == 1 and result["processed"] == 2
    triples = read_version(result["triples_view"])
    assert len({r["doc_url"] for r in triples.take_all()}) == 60
