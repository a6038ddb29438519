"""uid width A/B: ``run_dedup`` at 64- and 128-bit uids, and the uid
codec's kernels at 1M uids, on one or more source trees.

Jobs: ``run_dedup`` on ``generate_pages(n, seed=5)`` for each
``--pages`` size, once per width, in a fresh one-CPU Ray session per
tree and round (one warm-up job first).  128 bits are forced by
lowering ``stages.buckets.UID128_MIN_REPS`` to 0; a tree from before
that constant is forced with ``PipelineConfig(uid_bits=128)``.  Trees
alternate within a round, and the first tree alternates across rounds.

Kernels (``--kernel-uids``, 0 to skip): 128-bit mint
(``uid_of_urls``), encode (``uid_arrow``), decode (``uid_np``),
``np.unique`` and ``sorted_probe`` of every uid against the unique
set, best of ``--kernel-repeat``, in-process per tree.

Usage: python tools/uid_width_ab.py [--repos DIR1,DIR2] [--rounds 3]
                                    [--pages 1000,10000]
                                    [--kernel-uids 1000000]

Prints one JSON line per job (``{"repo", "round", "pages", "bits",
"s", "digest"}``, ``repo`` the tree's directory name) and per kernel
sweep (``{"repo", "kernel", "uids", ...seconds}``).  Exits non-zero unless every job of a page count has
the same assignment digest, across widths and across trees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(df) -> str:
    import hashlib

    cols = ["url", "cluster_id", "keeper_url", "is_keeper", "action",
            "match_kind"]
    df = df[cols].sort_values("url").reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()[:16]


def _config(bits: int):
    """The config of a job at ``bits``, forcing 128 the tree's way."""
    from deduplicator_go_ray.config import PipelineConfig
    from deduplicator_go_ray.stages import buckets

    if hasattr(buckets, "UID128_MIN_REPS"):
        buckets.UID128_MIN_REPS = 0 if bits == 128 else 10_000_000
        return PipelineConfig()
    return PipelineConfig(uid_bits=bits)


def jobs_child(args) -> None:
    import ray
    import ray.data

    from deduplicator_go_ray.pipelines import dedup
    from deduplicator_go_ray.sources.corpus import generate_pages

    # the width each job's candidate exchange was given, read back so a
    # forcing that did not take shows
    minted, exchange = [], dedup.candidate_edges_fused

    def spy(*a, **k):
        minted.append(k["uid_bits"])
        return exchange(*a, **k)

    dedup.candidate_edges_fused = spy
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        warm, _ = generate_pages(200, seed=5)
        dedup.run_dedup(ray.data.from_arrow(warm), _config(64)).to_pandas()
        for n in args.pages:
            pages, _ = generate_pages(n, seed=5)
            order = (64, 128) if args.round % 2 == 0 else (128, 64)
            for bits in order:
                cfg = _config(bits)
                t0 = time.perf_counter()
                df = dedup.run_dedup(ray.data.from_arrow(pages), cfg).to_pandas()
                s = time.perf_counter() - t0
                assert minted[-1] == bits, (minted[-1], bits)
                print("RESULT " + json.dumps({
                    "pages": n, "bits": bits, "s": round(s, 3),
                    "digest": _digest(df)}), flush=True)
    finally:
        ray.shutdown()


def kernels_child(args) -> None:
    import inspect

    import numpy as np

    from deduplicator_go_ray.stages import buckets
    from deduplicator_go_ray.stages.common import sorted_probe

    n = args.kernel_uids
    urls = [f"https://host{i % 9973}.example/{i}/page" for i in range(n)]
    # trees from before the fixed-width codec take the width in uid_np
    takes_bits = "bits" in inspect.signature(buckets.uid_np).parameters

    def decode(col):
        return buckets.uid_np(col, 128) if takes_bits else buckets.uid_np(col)

    best: dict = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        best[name] = min(best.get(name, 1e9), time.perf_counter() - t0)
        return out

    for _ in range(args.kernel_repeat):
        uids = timed("mint_s", lambda: buckets.uid_of_urls(urls, 128))
        col = timed("encode_s", lambda: buckets.uid_arrow(uids))
        back = timed("decode_s", lambda: decode(col))
        keys = timed("unique_s", lambda: np.unique(back))
        _, hit = timed("probe_s", lambda: sorted_probe(keys, back))
        assert hit.all() and len(keys) == n
    print("RESULT " + json.dumps({
        "kernel": "uid128", "uids": n, "dtype": str(uids.dtype),
        **{k: round(v, 6) for k, v in best.items()}}), flush=True)


def _run(args, repo: str, extra: list) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", *extra]
    env = dict(os.environ, RAY_ADDRESS="local",
               PYTHONPATH=repo + os.pathsep + os.environ.get("PYTHONPATH", ""))
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=args.timeout, cwd=repo)
    out = [json.loads(ln[7:]) for ln in p.stdout.splitlines()
           if ln.startswith("RESULT ")]
    if p.returncode or not out:
        raise RuntimeError(f"{repo}: child failed\n{p.stderr[-2000:]}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repos", default=HERE)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--pages", default="1000,10000")
    ap.add_argument("--kernel-uids", type=int, default=1_000_000)
    ap.add_argument("--kernel-repeat", type=int, default=3)
    ap.add_argument("--timeout", type=int, default=900)
    ap.add_argument("--child", action="store_true")
    ap.add_argument("--kernels", action="store_true")
    ap.add_argument("--round", type=int, default=0)
    args = ap.parse_args()
    args.pages = [int(x) for x in args.pages.split(",")]
    if args.child:
        (kernels_child if args.kernels else jobs_child)(args)
        return
    repos = [os.path.abspath(r) for r in args.repos.split(",")]
    digests: dict = {}
    for rnd in range(args.rounds):
        order = repos if rnd % 2 == 0 else repos[::-1]
        for repo in order:
            for rec in _run(args, repo, ["--round", str(rnd), "--pages",
                                         ",".join(map(str, args.pages))]):
                rec = {"repo": os.path.basename(repo), "round": rnd, **rec}
                digests.setdefault(rec["pages"], set()).add(rec["digest"])
                print(json.dumps(rec), flush=True)
    if args.kernel_uids:
        for repo in repos:
            for rec in _run(args, repo, [
                    "--kernels", "--kernel-uids", str(args.kernel_uids),
                    "--kernel-repeat", str(args.kernel_repeat)]):
                print(json.dumps({"repo": os.path.basename(repo), **rec}),
                      flush=True)
    bad = {n: sorted(d) for n, d in digests.items() if len(d) != 1}
    print(json.dumps({"assignments_equal": not bad, "digests": {
        n: sorted(d) for n, d in digests.items()}}), flush=True)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
