"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints exactly the metrics BENCHMARK.json
names, that the output checks catch a wrong result, and that the
benchmark fails cleanly where the program is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT)]

import checks  # noqa: E402
import corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600, env=env,
    )


@pytest.mark.parametrize("workload,trace", [
    ("corpus_cpu", "0"), ("corpus_llm", "0"), ("shard_ticks", "0"), ("corpus_llm", "1"),
])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_same_seed_same_corpus(tmp_path):
    a = corpus.shard_files(tmp_path / "a", 5, 2, 8)
    b = corpus.shard_files(tmp_path / "b", 5, 2, 8)
    c = corpus.shard_files(tmp_path / "c", 6, 2, 8)
    assert all(pq.read_table(x).equals(pq.read_table(y)) for x, y in zip(a, b))
    assert not pq.read_table(a[0]).equals(pq.read_table(c[0]))


def test_stub_faults_repeat_every_round():
    from llm_stub import Model

    model = Model(seed=4)
    bodies = [f'{{"n": {i}}}'.encode() for i in range(400)]
    first = [model.first_attempt_fails(b) for b in bodies]
    assert any(first) and not any(model.first_attempt_fails(b) for b in bodies)
    model.reset()
    assert [model.first_attempt_fails(b) for b in bodies] == first


@pytest.fixture(scope="module")
def small_kg(tmp_path_factory):
    """docs_kg, triples and nodes of a 24-doc corpus, computed in-process."""
    from ctinexus_ray.pipelines.kg import strip_class_rank_batch
    from ctinexus_ray.stages.triples import entity_partials_batch, explode_triples_batch

    from workloads import KG_DOC_COLUMNS

    tmp = tmp_path_factory.mktemp("kg")
    files = corpus.shard_files(tmp / "corpus", 9, 1, 24)
    docs_kg = checks.expected_docs_kg(files, KG_DOC_COLUMNS)
    (tmp / "triples").mkdir()
    (tmp / "nodes").mkdir()
    pq.write_table(explode_triples_batch(docs_kg), tmp / "triples" / "t.parquet")
    # one batch holds every document, so its partials are the nodes
    pq.write_table(strip_class_rank_batch(entity_partials_batch(docs_kg)),
                   tmp / "nodes" / "n.parquet")
    return files, docs_kg, tmp


def test_checks_pass_on_right_output(small_kg):
    files, docs_kg, tmp = small_kg
    checks.docs_complete(docs_kg, files)
    checks.docs_kg_equal(docs_kg, docs_kg)
    assert checks.sampled_rows(docs_kg, files, every=5) == 5
    assert checks.nodes_match_triples(tmp / "nodes", tmp / "triples") > 0


def test_checks_catch_wrong_output(small_kg, tmp_path):
    files, docs_kg, tmp = small_kg
    with pytest.raises(checks.CheckFailed):
        checks.docs_complete(docs_kg.slice(1), files)
    tokens = docs_kg.column("llm_input_tokens").to_pylist()
    tokens[3] += 1
    wrong = docs_kg.set_column(docs_kg.schema.get_field_index("llm_input_tokens"),
                               "llm_input_tokens", pa.array(tokens, pa.int64()))
    with pytest.raises(checks.CheckFailed):
        checks.docs_kg_equal(wrong, docs_kg)
    with pytest.raises(checks.CheckFailed):
        checks.sampled_rows(wrong, files, every=1)
    nodes = pq.read_table(tmp / "nodes" / "n.parquet")
    counts = nodes.column("mention_count").to_pylist()
    counts[0] += 1
    (tmp_path / "nodes").mkdir()
    pq.write_table(nodes.set_column(nodes.schema.get_field_index("mention_count"),
                                    "mention_count", pa.array(counts, pa.int64())),
                   tmp_path / "nodes" / "n.parquet")
    with pytest.raises(checks.CheckFailed):
        checks.nodes_match_triples(tmp_path / "nodes", tmp / "triples")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(tmp_path, "--workload", "corpus_cpu", "--seed", "1", "--seconds", "1",
                "--trace", "0", env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
