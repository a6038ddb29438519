"""Explicit Arrow schema constants of the stage boundaries.

The reference's fixed SQL schema evolved by migrations
(``db/migrate.go:14-48``, ``migrations/000002_files.up.sql:1-11``) maps
to pinned ``pyarrow.Schema`` constants here (SURVEY.md §1.2).  Error
states stay *in-band* as a nullable ``error`` string column, exactly as
the reference stores ``'TIMEOUT_ERROR'`` / ``'HASH_ERROR'`` sentinels in
``files.hash`` (``files/hash.go:245-264``) and filters them out of every
duplicate query (``files/utils.go:72``).
"""

from __future__ import annotations

import pyarrow as pa

# --- input: Common-Crawl-style pages (BASELINE.json input_hint) -------------
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),            # globally unique row id; keeper tiebreak
        ("warc_ts", pa.timestamp("us")),  # crawl time; age-gate predicate input
        ("html", pa.binary()),           # raw page bytes; dropped after extraction
        ("text", pa.string()),           # extracted text (may arrive pre-extracted)
        ("lang", pa.string()),           # ISO code; filter predicate input
    ]
)

# --- after extract + hash stages -------------------------------------------
# `(text_sha256, n_bytes)` is the exact content-identity key, the direct
# generalisation of the reference's `(hash, size)` pair (files/utils.go:84).
EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("error", pa.string()),          # NULL = ok; sentinel string otherwise
    ]
)

HASHED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("error", pa.string()),
        ("text_sha256", pa.string()),
        ("n_bytes", pa.int64()),
    ]
)

# --- error sentinels (≙ files/hash.go:245-264) ------------------------------
DECODE_ERROR = "DECODE_ERROR"      # html bytes not valid utf-8
EMPTY_ERROR = "EMPTY_ERROR"        # empty/blank page after extraction
HASH_ERROR = "HASH_ERROR"          # unexpected failure inside a per-row kernel

# --- final assignments output ----------------------------------------------
ASSIGNMENTS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("cluster_id", pa.string()),     # hash of the cluster's canonical url
        ("keeper_url", pa.string()),     # the member this policy keeps
        ("is_keeper", pa.bool_()),
        ("action", pa.string()),         # "keep" | "drop"
        ("match_kind", pa.string()),     # "unique"|"exact"|"near"|"substring"
        ("n_bytes", pa.int64()),
        ("partition_id", pa.int64()),    # lineage: which input partition
    ]
)

METRICS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int64()),
        ("stage", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("errors", pa.int64()),
        ("wall_s", pa.float64()),
    ]
)
