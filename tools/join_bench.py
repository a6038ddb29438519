"""Forced-join timings: the keyed paths the dedupbench workloads never
reach, each timed in a fresh Ray session under a timeout.

Cases (``--cases``, default all):

* ``attach``: the flagship's keyed root enrichment alone — a left
  outer join of ``--rows`` member rows onto a component map of a tenth
  as many keys (full-range int64 values), at each ``--cpus``;
* ``flagship``: ``run_dedup(PipelineConfig(broadcast_max_reps=0))`` on
  ``generate_pages(1000, seed=7)`` at one CPU;
* ``sigstore``: ``incremental_signatures`` forced to 4 prefix ranges
  (the default at one CPU is 2) on the same 1,000 pages against a
  store that already holds 900 of them, at each ``--cpus``;
* ``sigstore_legacy``: the same, with the store first rewritten as 4
  files that are not range-named, rows shuffled (the layout before
  prefix ranges, which every range reads through one split task per
  file);
* ``sigstore_cold``: 5,000 pages against an empty store, every
  signature computed, the range count sized from the cluster
  (``ranges`` in the record), at each ``--cpus``;
* ``verify``: ``run_dedup(PipelineConfig())`` with both round-2 caps
  at 0, so every pair takes the two keyed attach exchanges;
  ``verify_s`` is the time spent inside them.

Usage: python tools/join_bench.py [--repo DIR] [--cases attach,flagship]
                                  [--rows 10000,200000] [--cpus 1,4]
                                  [--timeout 120] [--repeat 3]

``--repo`` names the source tree to import (default: this checkout),
so two trees run the same script.  Prints one JSON line per run:
``{"case", "cpus", "rows", "s", "digest"}``, or ``"timeout": true``
when the run did not finish in ``--timeout`` seconds.  ``digest``
hashes the output, so equal digests mean equal results.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assign_digest(df) -> str:
    import hashlib

    cols = ["url", "cluster_id", "keeper_url", "is_keeper", "action",
            "match_kind"]
    df = df[cols].sort_values("url").reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()[:16]


def _refs(out) -> list:
    """Block refs of a stage result: ``Blocks``, or the executed Dataset
    trees from before the one stage contract return."""
    if hasattr(out, "refs"):
        return list(out.refs)
    return out.materialize().to_arrow_refs()


def _attach(rows: int) -> dict:
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    rng = np.random.default_rng(7)
    space = rng.integers(-2**63, 2**63 - 1, max(rows // 2, 1), dtype=np.int64)
    keys = rng.choice(space, rows)
    left = pa.table({"i": np.arange(rows, dtype=np.int64), "rep_uid": keys,
                     "url": [f"u{i}" for i in range(rows)],
                     "n_bytes": rng.integers(0, 1 << 20, rows)})
    rk = rng.choice(space, max(rows // 10, 1), replace=False)
    right = pa.table({"url": rk, "root": rng.integers(-2**63, 2**63 - 1,
                                                      len(rk), dtype=np.int64)})
    step = -(-rows // 8)
    ld = ray.data.from_arrow([left.slice(o, step)
                              for o in range(0, rows, step)]).materialize()
    rd = ray.data.from_arrow(right).materialize()

    t0 = time.perf_counter()
    try:
        from deduplicator_go_ray.stages.joins import hash_join

        out = hash_join(ld, rd.map_batches(
            lambda t: pa.table({"rep_uid": t["url"], "near_root": t["root"]}),
            batch_format="pyarrow"), "rep_uid", "left outer")
    except ImportError:          # trees from before hash_join
        from deduplicator_go_ray.stages.joins import left_attach

        out = left_attach(ld, rd, left_key="rep_uid", right_key="url",
                          value_col="root", out_col="near_root")
    tbl = pa.concat_tables(ray.get(_refs(out)))
    s = time.perf_counter() - t0
    tbl = tbl.sort_by("i")
    root = tbl["near_root"].combine_chunks()
    h = hashlib.sha256(np.asarray(tbl["i"]).tobytes())
    h.update(np.asarray(root.fill_null(0), np.int64).tobytes())
    h.update(np.asarray(root.is_valid()).tobytes())
    return {"s": s, "digest": h.hexdigest()[:16], "out_rows": tbl.num_rows}


def _flagship() -> dict:
    import ray.data as rd

    from deduplicator_go_ray.config import PipelineConfig
    from deduplicator_go_ray.pipelines.dedup import run_dedup
    from deduplicator_go_ray.sources.corpus import generate_pages

    pages, _ = generate_pages(1000, seed=7)
    t0 = time.perf_counter()
    df = run_dedup(rd.from_arrow(pages),
                   PipelineConfig(broadcast_max_reps=0)).to_pandas()
    return {"s": time.perf_counter() - t0, "digest": _assign_digest(df)}


def _unrange(store: str) -> None:
    """Rewrite a store's data files as 4 files that are not
    range-named, rows shuffled."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    names = [f for f in os.listdir(store) if f.endswith(".parquet")
             and not f.startswith(("_", "."))]
    t = pa.concat_tables([pq.read_table(os.path.join(store, f))
                          for f in names])
    t = t.take(np.random.default_rng(7).permutation(len(t)))
    step = -(-len(t) // 4)
    for i in range(4):
        pq.write_table(t.slice(i * step, step),
                       os.path.join(store, f"part-{i}.parquet"))
    for f in names:
        os.remove(os.path.join(store, f))


def _sigstore(layout: str = "ranged") -> dict:
    import hashlib
    import tempfile

    import ray.data

    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.stages.exact import add_content_key
    from deduplicator_go_ray.state import sigstore
    from deduplicator_go_ray.state.sigstore import incremental_signatures

    ranges = []
    sized = getattr(sigstore, "_range_count", None)
    if layout == "cold" and sized is not None:
        sigstore._range_count = lambda b: ranges.append(sized(b)) or ranges[-1]
    elif layout != "cold":
        sigstore._range_count = lambda b: 4
    pages, _ = generate_pages(5000 if layout == "cold" else 1000, seed=7)
    reps = add_content_key(ray.data.from_arrow(
        pages.select(["url", "text"]))).materialize()
    with tempfile.TemporaryDirectory() as d:
        store = os.path.join(d, "sigstore")
        if layout != "cold":
            incremental_signatures(reps.limit(900).materialize(), store)
        if layout == "legacy":
            _unrange(store)
        t0 = time.perf_counter()
        sigs, n = incremental_signatures(reps, store)
        df = sigs.to_pandas()
        s = time.perf_counter() - t0
    df = df.sort_values("url").reset_index(drop=True)
    blob = df[["url", "text_sha256", "n_shingles", "simhash"]].to_csv(index=False)
    blob += "".join(str(list(m)) for m in df["minhash"])
    return {"s": s, "computed": int(n),
            "ranges": ranges[-1] if ranges else None,
            "digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def _verify() -> dict:
    import ray
    import ray.data as rd

    from deduplicator_go_ray.config import PipelineConfig
    from deduplicator_go_ray.pipelines.dedup import run_dedup
    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.stages import verify

    verify.NEAR_ROUND2_MAX_BYTES = 0
    verify.CONTAINMENT_ROUND2_MAX_PAIRS = 0
    inner = verify._two_attach_check
    spent = [0.0]

    def timed(*args, **kwargs):
        t = time.perf_counter()
        out = inner(*args, **kwargs)
        ray.get(_refs(out))
        spent[0] += time.perf_counter() - t
        return out

    verify._two_attach_check = timed
    pages, _ = generate_pages(1000, seed=7)
    t0 = time.perf_counter()
    df = run_dedup(rd.from_arrow(pages), PipelineConfig()).to_pandas()
    return {"s": time.perf_counter() - t0, "verify_s": spent[0],
            "digest": _assign_digest(df)}


def child(args) -> None:
    import signal

    sys.path.insert(0, args.repo)
    import ray
    import ray.data

    def stop(*_):
        raise TimeoutError

    signal.signal(signal.SIGALRM, stop)
    signal.alarm(args.timeout)
    ray.init(address="local", num_cpus=args.cpus[0], include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    rec = {"case": args.cases[0], "cpus": args.cpus[0]}
    try:
        if rec["case"] == "attach":
            rec["rows"] = args.rows[0]
            rec.update(_attach(args.rows[0]))
        else:
            rec.update({"flagship": _flagship, "sigstore": _sigstore,
                        "sigstore_legacy": lambda: _sigstore("legacy"),
                        "sigstore_cold": lambda: _sigstore("cold"),
                        "verify": _verify}[rec["case"]]())
    except TimeoutError:
        rec["timeout"] = True
    finally:
        signal.alarm(0)
        ray.shutdown()
    print("RESULT " + json.dumps(rec), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo", default=HERE)
    ap.add_argument("--cases", default="attach,flagship,sigstore,"
                    "sigstore_legacy,sigstore_cold,verify")
    ap.add_argument("--rows", default="10000,200000")
    ap.add_argument("--cpus", default="1,4")
    ap.add_argument("--timeout", type=int, default=120)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--child", action="store_true")
    args = ap.parse_args()
    args.repo = os.path.abspath(args.repo)
    args.cases = args.cases.split(",")
    args.rows = [int(x) for x in args.rows.split(",")]
    args.cpus = [int(x) for x in args.cpus.split(",")]
    if args.child:
        child(args)
        return
    for case in args.cases:
        # the flagship-scale cases run at one CPU only
        cpus = (args.cpus if case == "attach" or case.startswith("sigstore")
                else [1])
        rows = args.rows if case == "attach" else [0]
        for c in cpus:
            for r in rows:
                for _ in range(args.repeat):
                    cmd = [sys.executable, os.path.abspath(__file__), "--child",
                           "--repo", args.repo, "--cases", case,
                           "--rows", str(r), "--cpus", str(c),
                           "--timeout", str(args.timeout)]
                    p = subprocess.run(cmd, capture_output=True, text=True,
                                       timeout=args.timeout + 120,
                                       env=dict(os.environ, RAY_ADDRESS="local"))
                    line = [ln for ln in p.stdout.splitlines()
                            if ln.startswith("RESULT ")]
                    print(line[0][7:] if line else json.dumps(
                        {"case": case, "cpus": c, "rows": r,
                         "error": p.stderr[-500:]}), flush=True)


if __name__ == "__main__":
    main()
