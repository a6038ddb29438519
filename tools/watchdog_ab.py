"""Extract watchdog A/B: ``ExtractStage`` armed (``timeout_s=60``, the
config default) against unarmed (``timeout_s=None``), in one process,
over dedupbench's pages (``generate_pages(n, seed)``, the pre-extracted
text dropped) in 128-row batches, the extract map's batch size.

Usage: python tools/watchdog_ab.py [--pages 1000] [--seed 7]
                                   [--alternations 21]

Each alternation times one pass over every batch on each side, the
first side alternating.  Prints one JSON line per alternation
(``{"alt", "armed_s", "unarmed_s"}``) and then a summary line with each
side's median, quartiles and range and the median of the per-pair
armed/unarmed ratio.  Exits non-zero unless both sides' outputs are
equal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--alternations", type=int, default=21)
    args = ap.parse_args()

    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.stages.extract import ExtractStage

    pages = generate_pages(args.pages, seed=args.seed)[0].drop_columns(["text"])
    batches = [pages.slice(i, 128) for i in range(0, len(pages), 128)]
    stages = {"armed": ExtractStage(timeout_s=60.0),
              "unarmed": ExtractStage(timeout_s=None)}
    outs = {k: [st(b) for b in batches] for k, st in stages.items()}
    if not all(a.equals(b) for a, b in zip(outs["armed"], outs["unarmed"])):
        sys.exit("armed and unarmed outputs differ")
    s: dict = {"armed": [], "unarmed": []}
    for alt in range(args.alternations):
        order = ("armed", "unarmed") if alt % 2 == 0 else ("unarmed", "armed")
        for k in order:
            t0 = time.perf_counter()
            for b in batches:
                stages[k](b)
            s[k].append(time.perf_counter() - t0)
        print(json.dumps({"alt": alt, "armed_s": round(s["armed"][-1], 4),
                          "unarmed_s": round(s["unarmed"][-1], 4)}), flush=True)
    ratio = np.array(s["armed"]) / np.array(s["unarmed"])
    print(json.dumps({"summary": {
        k: {"median_s": round(statistics.median(v), 4),
            "q1_s": round(float(np.percentile(v, 25)), 4),
            "q3_s": round(float(np.percentile(v, 75)), 4),
            "min_s": round(min(v), 4), "max_s": round(max(v), 4)}
        for k, v in s.items()} | {
        "pages": args.pages, "seed": args.seed,
        "alternations": args.alternations,
        "ratio_median": round(float(np.median(ratio)), 4),
        "armed_slower_pairs": int((ratio > 1).sum())}}), flush=True)


if __name__ == "__main__":
    main()
