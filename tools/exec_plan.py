"""Where one dedup job's fixed costs go: its Ray Data executions, its
Dataset wrappers and its driver round trips.

Runs ONE ``run_dedup(read_parquet(pages)).write_parquet(out)`` job on
dedupbench-shaped inputs — ``generate_pages(--pages, seed)`` with the
pre-extracted ``text`` column dropped, written as parquet shards — in a
fresh one-CPU Ray session, after one warm-up job on the same pages.
It prints each execution's plan line (from Ray Data's "Execution plan
of Dataset" log records) and the number of driver ``ray.get`` calls the
job made: ``ray.get`` is wrapped in this process only, so round trips
that moved out of Ray Data executions into plain tasks still show.  It
also counts the job's ``ray.data.from_arrow_refs`` wraps and the block
refs they cover (each wrap runs one metadata task per ref and waits for
them), the streaming executors Ray Data creates
(``ExecutionPlan.create_executor``: every execution creates one, and so
does each walk of a Dataset not yet executed), and the CPU seconds of
the driver's main thread over the job (``time.thread_time``), where a
saving in driver-side work shows even when the wall is noisy.

Usage: python tools/exec_plan.py [--plan default|recrawl]
                                 [--seed 5] [--pages 1000] [--repo DIR]

``--plan recrawl`` runs against a signature store filled by one
earlier job on the same pages.  ``--repo`` names the
source tree to import (default: this checkout), so two trees run the
same script.  The last line is JSON: ``{"plan", "executions",
"ray_get_calls", "from_arrow_refs", "wrapped_refs", "executors",
"wall_s", "driver_cpu_s"}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Plans(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.plans: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset"):
            self.plans.append(msg.split(": ", 1)[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", choices=("default", "recrawl"),
                    default="default")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--pages", type=int, default=1000)
    ap.add_argument("--repo", default=HERE)
    args = ap.parse_args()
    repo = os.path.abspath(args.repo)
    sys.path.insert(0, repo)
    # Ray workers import the engine from the same tree (they also see
    # the driver's working directory)
    os.chdir(repo)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [repo] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])

    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data._internal.plan import ExecutionPlan

    from deduplicator_go_ray.config import PipelineConfig
    from deduplicator_go_ray.pipelines.dedup import run_dedup
    from deduplicator_go_ray.sources.corpus import generate_pages

    work = tempfile.mkdtemp(prefix="exec_plan_")
    pages, _ = generate_pages(args.pages, seed=args.seed)
    pages = pages.drop_columns(["text"])
    pages_dir = os.path.join(work, "pages")
    os.makedirs(pages_dir)
    # dedupbench's shard layout (inputs.write_pages): 2,048 rows a shard
    shards = max(1, len(pages) // 2048)
    per = -(-len(pages) // shards)
    for i in range(shards):
        pq.write_table(pages.slice(i * per, per),
                       os.path.join(pages_dir, f"part-{i:04d}.parquet"),
                       row_group_size=2048)

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR",
             object_store_memory=256 << 20)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    def job(out: str, store: str | None) -> None:
        run_dedup(ray.data.read_parquet(pages_dir),
                  PipelineConfig(sig_store_dir=store)).write_parquet(
            os.path.join(work, out))

    seed_store = os.path.join(work, "store-seed")
    try:
        job("warm", seed_store if args.plan == "recrawl" else None)
        store = None
        if args.plan == "recrawl":
            store = os.path.join(work, "store")
            shutil.copytree(seed_store, store)
        plans = _Plans()
        logger = logging.getLogger("ray.data")
        calls = {"ray_get_calls": 0, "from_arrow_refs": 0, "wrapped_refs": 0,
                 "executors": 0}
        real = (ray.get, ray.data.from_arrow_refs,
                ExecutionPlan.create_executor)

        def counted(name, fn):
            def call(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
            return call

        def wrap(refs, *a, **kw):
            calls["wrapped_refs"] += (len(refs) if isinstance(refs, list)
                                      else 1)
            return counted("from_arrow_refs", real[1])(refs, *a, **kw)

        logger.addHandler(plans)
        ray.get = counted("ray_get_calls", real[0])
        ray.data.from_arrow_refs = wrap
        ExecutionPlan.create_executor = counted("executors", real[2])
        try:
            t, cpu = time.perf_counter(), time.thread_time()
            job("out", store)
            wall = time.perf_counter() - t
            cpu = time.thread_time() - cpu
        finally:
            (ray.get, ray.data.from_arrow_refs,
             ExecutionPlan.create_executor) = real
            logger.removeHandler(plans)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    for i, plan in enumerate(plans.plans, 1):
        print(f"{i:2d}. {plan}")
    print(json.dumps({"plan": args.plan, "executions": len(plans.plans),
                      **calls, "wall_s": round(wall, 3),
                      "driver_cpu_s": round(cpu, 3)}))


if __name__ == "__main__":
    main()
