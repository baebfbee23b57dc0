"""LLM stages run as Ray Data task maps over per-process stage state
(``llm.client.stage_task_map`` / ``stage_for``): no actor pool per
execution, stage objects scoped to the plan that built them, and a
stage map that runs as wide as its concurrency bound."""

from __future__ import annotations

import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ctinexus_ray.llm import client as llm_client


def _map_workers() -> set[str]:
    """Ids of every Ray Data actor-pool worker the session has made."""
    from ray._private import state

    return {
        actor_id for actor_id, info in state.actors().items()
        if "MapWorker" in info["ActorClassName"]
    }


def test_run_kg_to_parquet_creates_no_actors(ray_session, config, tmp_path):
    from ctinexus_ray.pipelines.kg import run_kg_to_parquet
    from ctinexus_ray.sources.synth import make_cc_table

    before = _map_workers()
    paths = run_kg_to_parquet(
        ray.data.from_arrow(make_cc_table(24)), str(tmp_path / "out"), config
    )
    assert _map_workers() == before
    assert pq.read_table(paths["docs_kg"]).num_rows == 24


def test_batches_of_one_plan_share_one_stage(ray_session, config):
    """Per worker process, every batch of a plan sees the same stage
    object; a second plan over the same stage class sees new ones."""

    class Probe:
        def __init__(self):
            import os
            import uuid

            self.pid, self.sid = os.getpid(), uuid.uuid4().hex

        def __call__(self, batch):
            n = batch.num_rows
            return pa.table({
                "id": batch.column("id"),
                "pid": pa.array([self.pid] * n, type=pa.int64()),
                "sid": pa.array([self.sid] * n, type=pa.string()),
            })

    def run_plan() -> dict[int, set[str]]:
        ds = llm_client.stage_task_map(
            ray.data.range(64, override_num_blocks=8), Probe, {}, config, 4
        )
        rows = ds.take_all()
        assert sorted(r["id"] for r in rows) == list(range(64))
        by_pid: dict[int, set[str]] = {}
        for r in rows:
            by_pid.setdefault(r["pid"], set()).add(r["sid"])
        return by_pid

    first, second = run_plan(), run_plan()
    assert all(len(sids) == 1 for sids in first.values())
    assert all(len(sids) == 1 for sids in second.values())
    assert not set().union(*first.values()) & set().union(*second.values())


def test_new_plan_retires_the_old_stage(monkeypatch):
    from ctinexus_ray.config import PipelineConfig
    from ctinexus_ray.stages.kg import KGDocStage

    monkeypatch.setattr(llm_client, "_STAGES", {})
    kwargs = {"config": PipelineConfig(llm_max_inflight=2), "demos": []}
    old = llm_client.stage_for(KGDocStage, "plan-a", kwargs)
    assert llm_client.stage_for(KGDocStage, "plan-a", kwargs) is old
    old.embed_cache["apt29"] = ([0.0], 1)

    new = llm_client.stage_for(KGDocStage, "plan-b", kwargs)
    assert new is not old
    assert old.inflight.executor._shutdown
    assert old.embed_cache == {}
    assert new.inflight.executor is not None and not new.inflight.executor._shutdown
    new.inflight.executor.shutdown()


def test_engine_turns_off_operator_reservation(ray_session, tmp_path):
    from ray.data.context import DataContext

    import ctinexus_ray  # noqa: F401 — applies the context defaults

    assert DataContext.get_current().op_resource_reservation_enabled is False
    pq.write_table(pa.table({"id": [1, 2]}), tmp_path / "t.parquet")
    ds = ray.data.read_parquet(str(tmp_path))
    assert ds.context.op_resource_reservation_enabled is False


def _max_overlap(spans: list[tuple[float, float]]) -> int:
    """Most spans open at one instant (each start probed)."""
    return max(
        sum(1 for s, e in spans if s <= start < e) for start, _ in spans
    )


def test_kg_shaped_plan_runs_stage_tasks_at_full_concurrency(
    ray_session, tmp_path
):
    """The docs_kg plan shape (read -> stateless map -> stage task map ->
    select -> write) on 4 CPUs keeps 3 stage tasks running at once.
    Ray Data's per-operator reservation held such a stage to 2: each of
    the 4 operators reserved one task's CPU, leaving no shared pool."""
    from ctinexus_ray.config import PipelineConfig

    class SleepStage:
        def __call__(self, batch):
            start = time.time()
            time.sleep(1.0)
            n = batch.num_rows
            return pa.table({
                "id": batch.column("id"),
                "start": pa.array([start] * n, type=pa.float64()),
                "end": pa.array([time.time()] * n, type=pa.float64()),
            })

    def widen(batch):
        return batch.append_column("pad", pa.array([0] * batch.num_rows))

    src = tmp_path / "src"
    src.mkdir()
    for i in range(9):
        pq.write_table(
            pa.table({"id": list(range(4 * i, 4 * i + 4))}),
            src / f"part-{i}.parquet",
        )
    ds = ray.data.read_parquet(str(src)).map_batches(
        widen, batch_format="pyarrow", batch_size=None
    )
    ds = llm_client.stage_task_map(
        ds, SleepStage, {}, PipelineConfig(llm_concurrency=(3, 3)), None
    )
    ds.select_columns(["id", "start", "end"]).write_parquet(
        str(tmp_path / "out")
    )

    out = pq.read_table(tmp_path / "out")
    assert sorted(out.column("id").to_pylist()) == list(range(36))
    spans = sorted(set(zip(out.column("start").to_pylist(),
                           out.column("end").to_pylist())))
    assert len(spans) >= 6
    assert _max_overlap(spans) == 3
