"""Output checks for one dedup job, computed only from the same run's
generated inputs (its pages and its planted truth pairs).

A job passes when:

* every input url has exactly one assignment row and no other url has one
  (row conservation);
* recall over the planted exact / near_high / substring pairs is at least
  ``RECALL_FLOOR`` (the engine scores 1.0 on these corpora; the floor only
  catches gross breakage, the ``recall`` metric's bound catches drift);
* no planted ``nondup_size_guard`` pair shares a cluster (a false merge).

Digest equality across the jobs of a run, and plan equivalence on
``crawl_flood``, compare ``assignment_digest`` values; see ``job.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import pyarrow as pa

# relations in the recall denominator: the pairs tools/recall_report.py
# counts (near_border is planted below the engine's verify threshold)
RECALL_RELATIONS = ("exact", "near_high", "substring")
GUARD_RELATION = "nondup_size_guard"
RECALL_FLOOR = 0.9


@dataclass
class JobCheck:
    ok: bool
    digest: str
    recall: float
    false_merges: int
    problems: list[str] = field(default_factory=list)


def assignment_digest(assign: pa.Table) -> str:
    """sha256 over every assignment row, rows ordered by url and columns
    by name, so the digest is independent of block layout."""
    cols = sorted(assign.column_names)
    rows = assign.select(cols).sort_by("url").to_pylist()
    blob = json.dumps(rows, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _pair_stats(cluster_of: dict, truth: pa.Table) -> tuple[int, int, int]:
    """(recall pairs, recovered pairs, merged size-guard pairs)."""
    den = hit = merged = 0
    for a, b, rel in zip(truth["url_a"].to_pylist(),
                         truth["url_b"].to_pylist(),
                         truth["relation"].to_pylist()):
        same = cluster_of.get(a) is not None and cluster_of.get(a) == cluster_of.get(b)
        if rel in RECALL_RELATIONS:
            den += 1
            hit += same
        elif rel == GUARD_RELATION:
            merged += same
    return den, hit, merged


def check_job(assign: pa.Table, input_urls: list[str],
              truth: pa.Table) -> JobCheck:
    """Check one job's assignments against its inputs and planted truth."""
    problems = []
    urls = assign["url"].to_pylist()
    expected = set(input_urls)
    if len(urls) != len(input_urls):
        problems.append(f"{len(urls)} assignment rows for {len(input_urls)} pages")
    got = set(urls)
    if len(got) != len(urls):
        problems.append(f"{len(urls) - len(got)} urls assigned more than once")
    if got != expected:
        problems.append(f"{len(expected - got)} pages unassigned, "
                        f"{len(got - expected)} unknown urls assigned")
    cluster_of = dict(zip(urls, assign["cluster_id"].to_pylist()))
    den, hit, merged = _pair_stats(cluster_of, truth)
    recall = hit / den if den else 1.0
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.4f} below {RECALL_FLOOR}")
    if merged:
        problems.append(f"{merged} size-guard pairs merged")
    return JobCheck(ok=not problems, digest=assignment_digest(assign),
                    recall=recall, false_merges=merged, problems=problems)
