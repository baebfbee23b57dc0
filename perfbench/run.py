#!/usr/bin/env python3
"""Benchmark of the ctinexus_ray knowledge-graph pipeline.

    python3 perfbench/run.py --workload corpus_cpu --seed 1 --seconds 10 --trace 0

Run from the repository root. Generates a seeded corpus (cached under
``perfbench/.work``), sets up a 4-CPU local Ray session (several times,
reporting the median set-up time), runs the workload's rounds for
``--seconds``, checks the outputs and prints one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (and writes the spans next to the
corpus cache). Any failed output check exits non-zero with no result.
``--tiny`` shrinks every size for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# Ray puts unix sockets under its temp dir; AF_UNIX paths stop at 107
# bytes and the session directory adds about 62 of them
_RAY_TMP_MAX = 42
CPUS = min(4, len(os.sched_getaffinity(0)))
# one LLM actor per CPU but one: Ray Data's read/extract/explode/write
# tasks need a free CPU (a 2-CPU session with two actors made no progress)
POOL = max(1, CPUS - 1)
SETUPS = 3


class Stub:
    """The loopback LLM endpoint (perfbench/llm_stub.py) as a child process.
    It starts in the background; ``wait_ready`` returns once it listens."""

    def __init__(self, seed: int, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "llm_stub.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.url = None

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"LLM stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def new_round(self) -> dict:
        """Reset the stub's first-attempt faults and return its counters."""
        with urllib.request.urlopen(f"{self.url}/reset", data=b"", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> dict | None:
        """Stop the stub and return its final counters."""
        try:
            out, _ = self.proc.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


class Context:
    """One benchmark run: its inputs, session and tracer."""

    def __init__(self, args):
        import workloads
        from spans import Tracer

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.shape = (workloads.TINY if args.tiny else workloads.SHAPES)[args.workload]
        self.setups = 1 if args.tiny else SETUPS
        self.tracer = Tracer()
        self.run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.cache = WORK / "corpus"
        self.stub: Stub | None = None
        self.stub_final: dict | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    @property
    def n_docs(self) -> int:
        return self.shape.shards * self.shape.docs_per_shard

    def make_inputs(self) -> None:
        import corpus

        self.files = corpus.shard_files(self.cache, self.seed, self.shape.shards,
                                        self.shape.docs_per_shard)

    def probe_shards(self, n: int, docs: int) -> list[str]:
        import corpus

        return corpus.shard_files(self.cache, self.seed, n, docs)

    def config(self):
        from ctinexus_ray.config import PipelineConfig

        if self.workload == "corpus_llm":
            return PipelineConfig(provider="openai", llm_concurrency=(POOL, POOL),
                                  extra={"api_base": self.stub.url})
        return PipelineConfig(llm_concurrency=(POOL, POOL))

    def stub_stats(self) -> dict | None:
        return self.stub.stats() if self.stub else None

    def stub_new_round(self) -> dict | None:
        return self.stub.new_round() if self.stub else None

    # -- session ------------------------------------------------------------

    def start(self) -> float:
        """Ray init + worker warm-up (+ stub start); returns seconds."""
        import ray
        import ray.data

        @ray.remote(num_cpus=1)
        def _warm_worker() -> int:
            """Import every pipeline stage and extract one document."""
            from ctinexus_ray.pipelines import kg  # noqa: F401  (imports the stages)
            from ctinexus_ray.sources.synth import make_cc_table
            from ctinexus_ray.stages.extract import extract_batch

            time.sleep(0.2)
            return extract_batch(make_cc_table(1)).num_rows

        start = time.perf_counter()
        if self.workload == "corpus_llm":  # starts while Ray does
            self.stub = Stub(self.seed, self.env)
        kwargs = {}
        ray_tmp = WORK / "ray"
        if len(str(ray_tmp)) <= _RAY_TMP_MAX:
            kwargs["_temp_dir"] = str(ray_tmp)
        os.environ["PYTHONPATH"] = self.env["PYTHONPATH"]
        ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
                 log_to_driver=False, object_store_memory=512 * 1024 * 1024, **kwargs)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        # one task per CPU, each held long enough that no worker takes two,
        # so every worker Ray started imports the pipeline modules
        ray.get([_warm_worker.remote() for _ in range(CPUS)])
        if self.stub is not None:
            self.stub.wait_ready()
        return time.perf_counter() - start

    def stop(self) -> None:
        import ray

        if self.stub is not None:
            self.stub_final = self.stub.close()
            self.stub = None
        if ray.is_initialized():
            session = Path(ray._private.worker.global_worker.node.get_session_dir_path()).name
            ray.shutdown()
            _wait_exited(session)


def _wait_exited(marker: str, timeout: float = 60.0) -> None:
    """Wait until no process has ``marker`` (the Ray session directory
    name, on every Ray process's command line) in its command line:
    ``ray.shutdown`` signals the session's processes but does not wait
    for their exit."""
    deadline = time.monotonic() + timeout
    needle = marker.encode()
    while time.monotonic() < deadline:
        alive = False
        for proc in Path("/proc").iterdir():
            if not proc.name.isdigit():
                continue
            try:
                alive = needle in (proc / "cmdline").read_bytes()
            except OSError:  # exited while we looked
                continue
            if alive:
                break
        if not alive:
            return
        time.sleep(0.1)


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()

    ctx = Context(args)
    ctx.make_inputs()
    ctx.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for i in range(ctx.setups):
            setup_s.append(ctx.start())
            if i < ctx.setups - 1:
                ctx.stop()
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.stop()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        shutil.rmtree(WORK / "ray", ignore_errors=True)

    metrics = result.metrics
    if not ctx.trace:
        metrics["setup_s"] = statistics.median(setup_s)
    else:
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        ctx.tracer.write(trace_file)
        if ctx.stub_final:
            trace_file.with_suffix(".stub.json").write_text(json.dumps(ctx.stub_final))
    units = unit_table()
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


def unit_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    import ctinexus_ray  # noqa: F401  (fail fast where the program is absent)
    from checks import CheckFailed

    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        sys.exit(1)
