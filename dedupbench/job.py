"""One benchmark run of one workload, in its own process.

Started by ``run.py`` (never imported by it).  The run:

1. imports the engine and builds the seed's inputs;
2. sets up one Ray session (``ray.init`` plus one warm-up job on a small
   slice; with the imports this is ``setup_s``);
3. prepares what the workload needs outside timing: the default-plan
   reference on ``crawl_flood``, the filled signature store on
   ``recrawl``;
4. runs closed-loop timed jobs, one at a time: as many whole jobs as fit
   in ``--seconds``, and at least ``MIN_JOBS``;
5. checks every job's output (``checks.py``) and that every job of the
   run yields the same assignment digest;
6. with ``--trace 1`` adds one traced job and the in-process kernel
   rates, and reports per-layer metrics instead of end-to-end ones.

The result is written as JSON to ``--result`` after every job, so a run
that dies part-way still leaves its figures for ``run.py``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

from deduplicator_go_ray.config import PipelineConfig  # noqa: E402
from deduplicator_go_ray.pipelines import dedup  # noqa: E402

from dedupbench import checks, hoststamp, inputs, kernels, tracing  # noqa: E402

IMPORT_S = time.perf_counter() - T0

PAGES = 1000
# timed jobs per run, at least: a single job's wall varies by 10-20% on a
# shared host, so each run reports a median over several
MIN_JOBS = {"crawl": 3, "crawl_flood": 3, "recrawl": 3}
OBJECT_STORE_BYTES = 256 << 20
# crawl_flood: gates lowered so the partitioned verify and the one-task
# components tier select themselves.  onetask_cc_max_edges keeps its
# default: the distributed tier's label-propagation loop costs ~5 s of
# exchanges per job at this size, which the run's time cannot afford
FLOOD_GATES = {"smallset_max_edges": 0, "driver_dsu_max_edges": 0}
RSS_PERIOD_S = 0.25
MIB = 1 << 20


def pipeline_config(workload: str, store_dir: str | None,
                    notes: list[str]) -> PipelineConfig:
    """The workload's config, built only from fields PipelineConfig
    still defines."""
    have = {f.name for f in dataclasses.fields(PipelineConfig)}
    want = dict(FLOOD_GATES) if workload == "crawl_flood" else {}
    if workload == "recrawl":
        want["sig_store_dir"] = store_dir
    for name in sorted(set(want) - have):
        notes.append(f"PipelineConfig has no {name}: left at the engine default")
    return PipelineConfig(**{k: v for k, v in want.items() if k in have})


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def tree_rss_bytes(root: int) -> int:
    """Resident bytes of ``root`` and every process descended from it:
    this process plus the Ray session it started."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    total, todo, page = 0, [root], os.sysconf("SC_PAGE_SIZE")
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total


class PeakRss:
    """Samples the session's summed RSS on a thread while open."""

    def __enter__(self):
        self.peak = tree_rss_bytes(os.getpid())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.work = args.work_dir
        self.notes: list[str] = []
        self.setup_s = 0.0
        self.walls: list[float] = []
        self.rss: list[int] = []
        self.written: list[int] = []
        self.recall: list[float] = []
        self.false_merges = 0
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.executions: list[int] = []
        self.layers: dict[str, float] = {}
        self.spans: list[dict] = []
        self.host = hoststamp.probe()
        self.inp = inputs.build(args.workload, args.seed,
                                args.pages or PAGES, self.work)
        self.urls = self.inp.pages["url"].to_pylist()
        self.jobs = 0

    # ---- sessions -------------------------------------------------------------
    def session_up(self) -> None:
        t = time.perf_counter()
        ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.args.ray_temp or None)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        self.job(self.inp.warm_dir, PipelineConfig(), self._out("warm"))
        self.setup_s = time.perf_counter() - t

    def _out(self, name: str) -> str:
        self.jobs += 1
        return os.path.join(self.work, f"out-{self.jobs:03d}-{name}")

    @staticmethod
    def job(pages_dir: str, cfg: PipelineConfig, out_dir: str) -> float:
        """read_parquet → run_dedup → write_parquet; the timed unit."""
        t = time.perf_counter()
        dedup.run_dedup(ray.data.read_parquet(pages_dir), cfg).write_parquet(out_dir)
        return time.perf_counter() - t

    # ---- per-workload preparation (outside timing) ----------------------------
    def prepare(self) -> None:
        wl = self.args.workload
        self.seed_store = os.path.join(self.work, "store-seed")
        if wl == "crawl_flood":
            out = self._out("reference")
            self.job(self.inp.pages_dir, PipelineConfig(), out)
            ref = checks.check_job(pq.read_table(out), self.urls, self.inp.truth)
            self.digest = ref.digest
            if not ref.ok:
                self.notes.append("default-plan reference failed: "
                                  + "; ".join(ref.problems))
        elif wl == "recrawl":
            cfg = pipeline_config(wl, self.seed_store, self.notes)
            self.job(self.inp.earlier_dir, cfg, self._out("earlier"))

    def _job_store(self) -> str | None:
        if self.args.workload != "recrawl":
            return None
        store = os.path.join(self.work, f"store-{self.jobs + 1:03d}")
        shutil.copytree(self.seed_store, store)
        return store

    # ---- one checked job ----------------------------------------------------
    def checked_job(self, traced: bool = False) -> float | None:
        store = self._job_store()
        cfg = pipeline_config(self.args.workload, store, self.notes)
        out = self._out("traced" if traced else "timed")
        counter = tracing.ExecutionCounter()
        self.attempted += 1
        # drop the previous job's datasets now, not inside this job's timing
        gc.collect()
        try:
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    with tracer.span("job"):
                        t = time.perf_counter()
                        ds = dedup.run_dedup(ray.data.read_parquet(self.inp.pages_dir), cfg)
                        with tracer.span("sink", ops=tracing.ops_label(ds)):
                            ds.write_parquet(out)
                        wall = time.perf_counter() - t
                finally:
                    tracer.uninstall()
                self.notes.extend(n for n in tracer.notes if n not in self.notes)
                self.layers = tracing.layer_metrics(tracer.spans, len(self.urls))
                self.spans = tracing.span_records(tracer.spans)
            else:
                with counter.installed(), PeakRss() as rss:
                    wall = self.job(self.inp.pages_dir, cfg, out)
            res = checks.check_job(pq.read_table(out), self.urls, self.inp.truth)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if store:
                written_store = dir_bytes(store) - dir_bytes(self.seed_store)
                shutil.rmtree(store, ignore_errors=True)
        problems = list(res.problems)
        if self.digest is None:
            self.digest = res.digest
        elif res.digest != self.digest:
            problems.append("assignment digest differs from the run's first"
                            + (" (default-plan reference)"
                               if self.args.workload == "crawl_flood" else ""))
        self.false_merges = max(self.false_merges, res.false_merges)
        if problems:
            print(f"job {self.attempted} failed its checks: {problems}",
                  file=sys.stderr)
            self.failed += 1
            return None
        if not traced:
            self.walls.append(wall)
            self.rss.append(rss.peak)
            self.written.append(dir_bytes(out) + (written_store if store else 0))
            self.recall.append(res.recall)
            self.executions.append(counter.count)
        elif store:
            self.layers["sigstore.append_mb"] = written_store / MIB
        return wall

    # ---- the run ------------------------------------------------------------
    def run(self) -> None:
        self.session_up()
        self.save(done=False)
        try:
            self.prepare()
            # closed loop: whole jobs that fit in --seconds, at least MIN_JOBS
            t = time.perf_counter()
            last = 0.0
            while (self.attempted < MIN_JOBS[self.args.workload]
                   or time.perf_counter() - t + last <= self.args.seconds):
                start = time.perf_counter()
                self.checked_job()
                last = time.perf_counter() - start
                self.save(done=False)
            if self.args.trace:
                traced = self.checked_job(traced=True)
                if traced is not None and self.walls:
                    self.layers["trace.overhead_frac"] = (
                        traced / statistics.median(self.walls) - 1.0)
        finally:
            ray.shutdown()
        if self.args.trace:
            rate, errors, ok = kernels.extract_rate(self.inp.pages)
            self.layers["extract.kernel_pages_per_s"] = rate
            self.layers["extract.error_rows"] = float(errors)
            self.layers["signatures.kernel_docs_per_s"] = kernels.signature_rate(ok)
            self.layers["cluster.kernel_edges_per_s"] = kernels.cc_rate(self.args.seed)
            if self.executions:
                self.layers["dedup.executions"] = float(statistics.median(self.executions))
        self.save(done=True)

    # ---- result ---------------------------------------------------------------
    def metrics(self) -> dict:
        med = statistics.median
        n = len(self.urls)
        e2e = {
            "setup_s": (IMPORT_S + self.setup_s, "s"),
            "pages_per_s": (n / med(self.walls) if self.walls else 0.0, "pages/s"),
            "peak_rss_mb": (max(self.rss) / MIB if self.rss else 0.0, "MiB"),
            "written_mb": (med(self.written) / MIB if self.written else 0.0, "MiB"),
            "recall": (min(self.recall) if self.recall else 0.0, "ratio"),
        }
        if self.args.trace:
            return {k: {"value": self.layers.get(k, 0.0), "unit": u}
                    for k, u in UNITS.items()}
        return {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    def save(self, done: bool) -> None:
        info = {
            "workload": self.args.workload, "seed": self.args.seed,
            "pages": len(self.urls), "import_s": IMPORT_S,
            "session_setup_s": self.setup_s,
            "job_walls_s": self.walls, "false_merges": self.false_merges,
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "host": self.host, "notes": list(dict.fromkeys(self.notes)),
        }
        if self.args.trace:
            info["layers"] = self.layers
            info["spans"] = self.spans
        result = {
            "correct": done and self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted, "failed": self.failed,
            "metrics": self.metrics(),
        }
        tmp = self.args.result + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"result": result, "info": info, "done": done}, fh)
        os.replace(tmp, self.args.result)


UNITS = {
    "extract.kernel_pages_per_s": "pages/s", "extract.error_rows": "count",
    "exact.content_key_s": "s", "exact.groups_s": "s", "exact.reps_per_page": "ratio",
    "signatures.s": "s", "signatures.kernel_docs_per_s": "docs/s",
    "signatures.computed_frac": "ratio",
    "candidates.s": "s", "candidates.per_rep": "ratio",
    "verify.s": "s", "verify.yield": "ratio",
    "cluster.s": "s", "cluster.kernel_edges_per_s": "edges/s",
    "cluster.components": "count",
    "keeper.s": "s", "keeper.dup_rows": "count",
    "exchange.count": "count", "exchange.rows": "count", "exchange.self_s": "s",
    "sigstore.s": "s", "sigstore.hit_frac": "ratio", "sigstore.append_mb": "MiB",
    "dedup.self_s": "s", "dedup.executions": "count",
    "trace.overhead_frac": "ratio",
}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(MIN_JOBS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--ray-temp", default="")
    p.add_argument("--pages", type=int, default=0,
                   help=f"pages per job (default {PAGES})")
    Run(p.parse_args()).run()


if __name__ == "__main__":
    main()
