"""Benchmark entry point: one run of one workload of the flagship dedup
pipeline (``pipelines.dedup.run_dedup``) on seeded synthetic crawls.

    python3 dedupbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  It stops any Ray left running, runs
the workload in a fresh child process (``job.py``) with the ``GRAFT_*``
toggles cleared and the checkout on ``PYTHONPATH`` (Ray workers import
the engine from there), stops Ray again, and prints an info line and
then, as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A child that crashes or times out counts as a failed job; the figures it
saved before dying are still printed.  Without the engine package next
to the benchmark it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".benchwork")
WORKLOADS = ("crawl", "crawl_flood", "recrawl")
CHILD_TIMEOUT_S = 160
# Ray's unix socket paths (<temp>/session_<stamp>/sockets/plasma_store)
# must stay under the kernel's 107-byte limit
RAY_TEMP_MAX_CHARS = 40


def ray_stop() -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60, check=False)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAFT_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    return env


def ray_temp_dir() -> str:
    """Ray's session directory inside the checkout, or "" (Ray's default)
    when the checkout path is too long for Ray's sockets."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= RAY_TEMP_MAX_CHARS else ""


def run_child(args, run_dir: str, result_path: str) -> tuple[dict | None, str]:
    cmd = [sys.executable, "-m", "dedupbench.job",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", run_dir, "--result", result_path,
           "--ray-temp", ray_temp_dir()]
    log_path = os.path.join(WORK, f"last-{args.workload}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
            why = f"child exited with code {code}" if code else ""
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            why = f"child timed out after {CHILD_TIMEOUT_S} s"
    saved = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            saved = json.load(fh)
    return saved, why


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json promises for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return []
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "deduplicator_go_ray", "pipelines",
                                       "dedup.py")):
        print(f"no engine package under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    result_path = os.path.join(WORK, f"result-{os.getpid()}.json")
    os.makedirs(run_dir, exist_ok=True)
    ray_stop()
    try:
        saved, why = run_child(args, run_dir, result_path)
    finally:
        ray_stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    if saved is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        info = {"workload": args.workload, "seed": args.seed}
    else:
        result, info = saved["result"], saved["info"]
        if not saved["done"]:
            # the job that was running when the child died
            result["attempted"] += 1
            result["failed"] += 1
            result["correct"] = False
        os.remove(result_path)
    if why:
        info["child"] = why
        result["correct"] = False
    info["failed_frac"] = result["failed"] / result["attempted"]
    info["ray_temp"] = ray_temp_dir() or "Ray's default"
    for name, unit in declared_metrics(args.trace):
        result["metrics"].setdefault(name, {"value": 0.0, "unit": unit})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
