"""Query registry: every operator exposed as a (queries, oracle_sql)
pair for the driver's DuckDB conformance harness.

Each ``queries()`` callable takes ``sf_dir`` and returns a Dataset /
pandas DataFrame / pyarrow Table — a query whose last stage hands back
``stages.common.Blocks`` is wrapped here, the engine's one registry
edge (``stages.common.dataset_of``); the matching ``oracle_sql()`` entry
is ANSI SQL DuckDB runs over the same parquet tables (views: region
nation customer supplier part orders lineitem events documents
embeddings).  Column names match exactly on both sides.  Non-SQL-
expressible pipelines (LSH clustering, SimHash, ANN) have no oracle —
the driver records a rows-only check and they are verified against
planted truth in tests/ instead.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any

_QUERIES: dict[str, Callable[[str], Any]] = {}
_ORACLES: dict[str, str] = {}


def register(name: str, fn: Callable[[str], Any], sql: str | None = None) -> None:
    _QUERIES[name] = _at_edge(fn)
    if sql is not None:
        _ORACLES[name] = sql


def _at_edge(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` with a :class:`~..stages.common.Blocks` result handed back
    as an executed Dataset."""
    from ..stages.common import Blocks, dataset_of

    @functools.wraps(fn)
    def query(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataset_of(out) if isinstance(out, Blocks) else out

    return query


# The driver's correctness harness caps its per-round sweep at the
# FIRST 50 registry entries (dict order).  Keep that sample the
# highest-signal subset (VERDICT r3 #9): thin single-clause relational
# queries are DEMOTED to the tail so the flagship and the code-heavy
# operator families (curation, scrub, sigstore migration, media,
# containment) always sit inside the cap.  Every entry — demoted or
# not — still runs in the full `tools/check_oracle.py` protocol.
_DEMOTE = (
    "sample_head", "sample_mod", "substring_search", "age_filter",
    "large_first", "region_customers", "lang_counts", "events_daily",
    "min_size_groups", "prefix_dup_groups", "dup_size_groups",
    "keep_first", "savings", "topk_groups", "dup_members",
    "delete_plan", "prune_dead", "mirror_conflicts", "import_plan",
    "char_classes", "stopword_stats",
    # r5: demoted so the new code-heavy families (CDC chunk dedup,
    # count-min heavy hitters) sit inside the driver's 50-cap — the
    # exhaustive-probe ANN REDUCTIONS are near-twins of the ann_ivf /
    # ann_lsh oracles that stay in the sample, and source_stats is a
    # single grouped count
    "ann_ivf_exhaustive", "ann_lsh_exhaustive", "source_stats",
    "mirror_missing",
)


def _priority_order(names) -> list[str]:
    head = [n for n in names if n not in _DEMOTE]
    return head + [n for n in names if n in _DEMOTE]


def queries() -> dict[str, Callable[[str], Any]]:
    _ensure_loaded()
    return {n: _QUERIES[n] for n in _priority_order(_QUERIES)}


def oracle_sql() -> dict[str, str]:
    _ensure_loaded()
    return {n: _ORACLES[n] for n in _priority_order(_ORACLES)}


_LOADED = False

# modules that self-register on import; the list grows as operator
# families land — a missing module is fine, a broken one is not.
_MODULES = ("relational", "dedup_queries", "textqc", "ann_queries", "windows",
            "parity_queries", "curation", "scrub", "cdc_queries",
            "sketch_queries")


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    import importlib
    import importlib.util

    for mod in _MODULES:
        if importlib.util.find_spec(f"{__package__}.{mod}") is not None:
            importlib.import_module(f"{__package__}.{mod}")
    _LOADED = True
