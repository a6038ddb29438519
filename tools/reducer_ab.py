"""Reducer A/B: the flagship's three exchange reducers (exact groups,
candidate edges, keepers) timed on captured partitions, and
``run_dedup``'s assignments under forced plans, on one or more trees.

Reducers: one ``run_dedup`` job on ``generate_pages(n, seed)`` (the
pre-extracted text dropped, as dedupbench does) with the exchange
patched where ``stages.exact``, ``stages.buckets`` and
``pipelines.dedup`` bind it; each call's partitions are rebuilt in
process with the exchange's own split (``pre_fn``, key hash, slices),
and each partition's reduce side (concatenate the slices, convert when
the function takes pandas, run it, convert back and cast) is timed
``--repeat`` times.  Prints per reducer the partitions, input rows,
the median and best milliseconds summed over partitions, and an output
digest (row order and schema included for exact and keepers; the
sorted edge rows for candidates).

Assignments (``--variants``): the whole job's assignment table, sorted
by url, digested per variant: ``default``, ``two_attach`` (both verify
round-2 caps at 0), ``onetask0`` (``onetask_cc_max_edges=0``),
``broadcast0`` (``broadcast_max_reps=0``, the keyed root join),
``uid128`` (``stages.buckets.UID128_MIN_REPS = 0``), ``popularity`` and
``priority`` (the non-default keeper policies), ``recrawl`` (a
signature store filled by dedupbench's earlier crawl of the seed).

Usage: python tools/reducer_ab.py [--repos DIR1,DIR2] [--pages 1000]
           [--seeds 7] [--rounds 3] [--repeat 5] [--variants a,b,...]

One fresh one-CPU Ray session per tree, seed and round; trees
alternate within a round and the first tree alternates across rounds.
Prints one JSON line per child.  Exits non-zero unless every digest is
equal across trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LABELS = {"stages.exact": "exact", "stages.buckets": "candidates",
          "pipelines.dedup": "keepers"}


def _split(ds, keys, num_partitions, pre_fn) -> list:
    """The slices each partition's reduce task receives."""
    import numpy as np
    import ray
    from ray.data.block import BlockAccessor

    from deduplicator_go_ray.stages import common

    b = common.as_blocks(ds)
    n = common._exchange_partitions(num_partitions, sum(b.sizes))
    parts = [[] for _ in range(n)]
    for ref in b.refs:
        t = BlockAccessor.for_block(ray.get(ref)).to_arrow()
        t = pre_fn(t) if pre_fn is not None else t
        sl = ([t] if n == 1 else common.slice_parts(
            t, (common._key_hash(t, keys) % np.uint64(n)).astype(np.int64), n))
        for p, s in enumerate(sl):
            parts[p].append(s)
    return [p for p in parts if any(s.num_rows for s in p)]


def _reduce(fn, arrow_fn, schema, slices):
    """A reduce task's work on one partition (``_reduce_partition``)."""
    import pandas as pd
    import pyarrow as pa

    full = pa.concat_tables([s for s in slices if s.num_rows],
                            promote_options="default")
    out = fn(full if arrow_fn else full.to_pandas())
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
        if schema is not None and not out.schema.equals(schema):
            out = out.cast(schema)
    return out.replace_schema_metadata(None)


def _digest(label, outs) -> str:
    import pyarrow as pa

    h = hashlib.sha256()
    for t in outs:
        if label == "candidates":
            rows = sorted(zip(*(t[c].to_pylist() for c in t.column_names)))
            h.update(repr((str(t.schema), rows)).encode())
        else:
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t)
            h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()[:16]


def _assign_digest(ds) -> str:
    df = ds.to_pandas().sort_values("url", kind="mergesort")
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()[:16]


_DEFAULTS: dict = {}


def _variant(name, pages, seed, work):
    """(pages, config) of a variant, with its forcing applied."""
    from deduplicator_go_ray.config import KeeperPolicy, PipelineConfig
    from deduplicator_go_ray.stages import buckets, verify

    # each variant forces only its own plan
    saved = _DEFAULTS.setdefault("v", (verify.NEAR_ROUND2_MAX_BYTES,
                                       verify.CONTAINMENT_ROUND2_MAX_PAIRS,
                                       buckets.UID128_MIN_REPS))
    (verify.NEAR_ROUND2_MAX_BYTES, verify.CONTAINMENT_ROUND2_MAX_PAIRS,
     buckets.UID128_MIN_REPS) = saved
    if name == "two_attach":
        verify.NEAR_ROUND2_MAX_BYTES = verify.CONTAINMENT_ROUND2_MAX_PAIRS = 0
    if name == "uid128":
        buckets.UID128_MIN_REPS = 0
    kw = {"onetask0": {"onetask_cc_max_edges": 0},
          "broadcast0": {"broadcast_max_reps": 0},
          "popularity": {"keeper": KeeperPolicy(policy="site_popularity")},
          "priority": {"keeper": KeeperPolicy(policy="priority_limits",
                                              min_copies=2)}}.get(name, {})
    if name == "recrawl":
        import ray.data

        from dedupbench.inputs import earlier_crawl
        from deduplicator_go_ray.pipelines.dedup import run_dedup

        kw = {"sig_store_dir": os.path.join(work, "store")}
        run_dedup(ray.data.from_arrow(earlier_crawl(pages, seed)),
                  PipelineConfig(**kw)).to_pandas()
    return PipelineConfig(**kw)


def child(args) -> None:
    import importlib
    import statistics

    import ray
    import ray.data

    from deduplicator_go_ray.pipelines import dedup
    from deduplicator_go_ray.sources.corpus import generate_pages

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    pages = generate_pages(args.pages, seed=args.seed)[0].drop_columns(["text"])
    out = {"repo": os.path.basename(os.getcwd()), "pages": args.pages,
           "seed": args.seed}
    try:
        if args.repeat:
            captured, reals = [], {}
            for mod, label in LABELS.items():
                m = importlib.import_module(f"deduplicator_go_ray.{mod}")
                real = reals[m] = m.grouped_apply

                def spy(ds, keys, fn, num_partitions=64, empty_result=None,
                        arrow_fn=False, pre_fn=None, _real=real, _label=label):
                    res = _real(ds, keys, fn, num_partitions, empty_result,
                                arrow_fn, pre_fn)
                    captured.append((_label, fn, arrow_fn, None if empty_result
                                     is None else empty_result.schema,
                                     _split(ds, keys, num_partitions, pre_fn)))
                    return res
                m.grouped_apply = spy
            dedup.run_dedup(ray.data.from_arrow(pages)).to_pandas()
            for m, real in reals.items():
                m.grouped_apply = real
            for label, fn, arrow_fn, schema, parts in captured:
                ms = []
                for _ in range(args.repeat):
                    t0 = time.perf_counter()
                    outs = [_reduce(fn, arrow_fn, schema, p) for p in parts]
                    ms.append((time.perf_counter() - t0) * 1e3)
                out[label] = {
                    "partitions": len(parts),
                    "rows": sum(s.num_rows for p in parts for s in p),
                    "ms_median": round(statistics.median(ms), 2),
                    "ms_min": round(min(ms), 2),
                    "digest": _digest(label, outs)}
        with tempfile.TemporaryDirectory() as work:
            for name in args.variants:
                cfg = _variant(name, pages, args.seed, work)
                out[f"assign.{name}"] = _assign_digest(
                    dedup.run_dedup(ray.data.from_arrow(pages), cfg))
    finally:
        ray.shutdown()
    print("RESULT " + json.dumps(out), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repos", default=HERE)
    ap.add_argument("--pages", type=int, default=1000)
    ap.add_argument("--seeds", default="7")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--variants", default="")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--child", action="store_true")
    ap.add_argument("--timeout", type=int, default=900)
    args = ap.parse_args()
    args.variants = [v for v in args.variants.split(",") if v]
    if args.child:
        return child(args)
    repos = [os.path.abspath(r) for r in args.repos.split(",")]
    digests: dict = {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        for rnd in range(args.rounds):
            for repo in (repos if rnd % 2 == 0 else repos[::-1]):
                cmd = [sys.executable, os.path.abspath(__file__), "--child",
                       "--pages", str(args.pages), "--seed", str(seed),
                       "--repeat", str(args.repeat),
                       "--variants", ",".join(args.variants)]
                env = dict(os.environ, PYTHONPATH=repo + os.pathsep
                           + os.environ.get("PYTHONPATH", ""))
                p = subprocess.run(cmd, capture_output=True, text=True,
                                   env=env, timeout=args.timeout, cwd=repo)
                lines = [ln[7:] for ln in p.stdout.splitlines()
                         if ln.startswith("RESULT ")]
                if p.returncode or not lines:
                    sys.exit(f"{repo} failed:\n{p.stderr[-3000:]}")
                res = dict(json.loads(lines[0]), round=rnd)
                print(json.dumps(res), flush=True)
                for k, v in res.items():
                    d = v.get("digest") if isinstance(v, dict) else (
                        v if k.startswith("assign.") else None)
                    if d is not None:
                        digests.setdefault((seed, k), set()).add(d)
    bad = {f"{s}:{k}": sorted(v) for (s, k), v in digests.items() if len(v) > 1}
    if bad:
        sys.exit(f"digests differ: {bad}")


if __name__ == "__main__":
    main()
