"""Seeded inputs for the benchmark workloads.

Pages come from the engine's own planted-duplicate generator
(``sources.corpus.generate_pages``): 10% exact, 10% near-high, 5%
borderline, 2% substring, 1% error rows, four size-guard pairs and a
boilerplate hot band in ~30% of groups.  The pre-extracted ``text``
column is dropped, so the engine extracts from ``html`` as it would on a
crawl.  The same seed always gives the same pages, truth and earlier
crawl.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from deduplicator_go_ray.sources.corpus import generate_pages

ROWS_PER_SHARD = 2048      # write_corpus's shard and row-group size
WARM_PAGES = 64            # the warm-up job's slice
CHANGED_FRAC = 0.10        # recrawl: share of urls whose content changed


@dataclass
class Inputs:
    pages: pa.Table          # url, warc_ts, html, lang
    truth: pa.Table          # url_a, url_b, relation, jaccard
    pages_dir: str
    warm_dir: str
    earlier_dir: str | None  # recrawl only: the crawl that fills the store


def write_pages(pages: pa.Table, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    shards = max(1, len(pages) // ROWS_PER_SHARD)
    per = -(-len(pages) // shards)
    for i in range(shards):
        pq.write_table(pages.slice(i * per, per),
                       os.path.join(out_dir, f"part-{i:04d}.parquet"),
                       row_group_size=ROWS_PER_SHARD)
    return out_dir


def earlier_crawl(pages: pa.Table, seed: int,
                  frac: float = CHANGED_FRAC) -> pa.Table:
    """The same urls crawled earlier, when ``frac`` of them served other
    content (html taken from an unrelated seed's corpus)."""
    n = len(pages)
    k = max(1, round(n * frac))
    rng = np.random.default_rng(seed + 7919)
    changed = np.sort(rng.choice(n, size=k, replace=False))
    other, _ = generate_pages(k, seed=seed + 1_000_003)
    html = pages["html"].to_pylist()
    for i, h in zip(changed.tolist(), other["html"].to_pylist()):
        html[i] = h
    return pages.set_column(pages.schema.get_field_index("html"), "html",
                            pa.array(html, pa.binary()))


def build(workload: str, seed: int, n_pages: int, work_dir: str) -> Inputs:
    pages, truth = generate_pages(n_pages, seed=seed)
    pages = pages.drop_columns(["text"])
    earlier_dir = None
    if workload == "recrawl":
        earlier_dir = write_pages(earlier_crawl(pages, seed),
                                  os.path.join(work_dir, "earlier"))
    return Inputs(
        pages=pages, truth=truth,
        pages_dir=write_pages(pages, os.path.join(work_dir, "pages")),
        warm_dir=write_pages(pages.slice(0, WARM_PAGES),
                             os.path.join(work_dir, "warm")),
        earlier_dir=earlier_dir)
