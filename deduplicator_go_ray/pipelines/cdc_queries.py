"""Content-defined-chunking dedup queries over ``documents``.

Sub-file dedup: the reference's whole-content dup grouping
(``files/hash.go:37-48``: GROUP BY (hash, size) HAVING > 1 → savings
report) applied at CDC chunk granularity — duplicate CHUNK groups and
the storage-dedup savings summary a chunk store would realize.  The
boundary/key kernel and its HUGEINT SQL re-derivation live in
``functions/cdc.py`` (rationale + citations there).

Scale shape (100 TB): the text never leaves the chunking stage — each
batch emits a skinny ``(ck:int64, clen:int64)`` stream that is
combined map-side (per-batch ``groupby(ck)``) before the ONE global
hash exchange on the u64 chunk key; the dup-group report then sorts
only the duplicate keys, and the savings summary is a driver-side
scalar aggregate of the already-combined per-key table.  Expected
chunk size is ``CDC_DIVISOR`` (64 B here for test-corpus-sized docs;
a real store would run 4-64 KiB — one config knob, same plan).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Min, Sum

from ..functions.cdc import CDC_DIVISOR, CDC_WINDOW, cdc_chunk_arrays
from ..functions.sqlgen import (M64, bytes_cte, mix64_ctes, roll_poly_cte,
                                u64_bigint)
from .registry import register


def _chunk_partials(t: pa.Table) -> pa.Table:
    """documents batch → map-side-combined (ck, n_copies, chunk_bytes,
    sum_bytes) partials; the wide text column dies here.  A null text
    chunks as "" (no chunks), as in the signature stage."""
    bufs = [(s or "").encode("utf-8") for s in t["text"].to_pylist()]
    _, ck, clen = cdc_chunk_arrays(bufs)
    df = pd.DataFrame({"ck": ck.view(np.int64), "clen": clen})
    g = df.groupby("ck", sort=False).agg(
        n_copies=("clen", "size"), chunk_bytes=("clen", "min"),
        sum_bytes=("clen", "sum")).reset_index()
    return pa.table({
        "ck": pa.array(g["ck"], pa.int64()),
        "n_copies": pa.array(g["n_copies"], pa.int64()),
        "chunk_bytes": pa.array(g["chunk_bytes"], pa.int64()),
        "sum_bytes": pa.array(g["sum_bytes"], pa.int64()),
    })


def _chunk_table(sf_dir: str) -> "ray.data.Dataset":
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    partials = docs.map_batches(_chunk_partials, batch_format="pyarrow")
    return partials.groupby("ck").aggregate(
        Sum("n_copies", alias_name="n_copies"),
        Min("chunk_bytes", alias_name="chunk_bytes"),
        Sum("sum_bytes", alias_name="sum_bytes"),
    )


def cdc_chunk_dup_groups(sf_dir: str) -> "ray.data.Dataset":
    """Duplicate CDC chunk groups, biggest reclaimable bytes first
    (≙ the reference's dup-group savings ordering, files/hash.go:37-48,
    at chunk granularity)."""
    agg = _chunk_table(sf_dir)

    def finish(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n_copies"], np.int64)
        keep = n > 1
        mn = np.asarray(t["chunk_bytes"], np.int64)[keep]
        sm = np.asarray(t["sum_bytes"], np.int64)[keep]
        return pa.table({
            "ck": pa.array(np.asarray(t["ck"], np.int64)[keep], pa.int64()),
            "n_copies": pa.array(n[keep], pa.int64()),
            "chunk_bytes": pa.array(mn, pa.int64()),
            "reclaim_bytes": pa.array(sm - mn, pa.int64()),
        })

    dups = agg.map_batches(finish, batch_format="pyarrow")
    return dups.sort(["reclaim_bytes", "ck"], descending=[True, False])


def cdc_savings(sf_dir: str) -> pd.DataFrame:
    """One-row storage-dedup summary: corpus bytes vs a chunk store
    keeping one copy per distinct chunk (the chunk-level analogue of
    the reference's whole-file savings accumulator).  An empty corpus
    gives the SQL answer: NULL sums and ratio, zero unique chunks."""
    agg = _chunk_table(sf_dir)
    tot = agg.aggregate(Sum("sum_bytes", alias_name="total_bytes"),
                        Sum("chunk_bytes", alias_name="stored_bytes"),
                        Sum("n_copies", alias_name="n_chunks"),
                        Count(alias_name="n_unique_chunks"))

    def cell(name: str) -> pd.Series:
        v = tot[name]
        return pd.Series([v], dtype="Int64" if v is None else "int64")

    total, stored = tot["total_bytes"], tot["stored_bytes"]
    return pd.DataFrame({
        "total_bytes": cell("total_bytes"),
        "stored_bytes": cell("stored_bytes"),
        "n_chunks": cell("n_chunks"),
        "n_unique_chunks": pd.Series([int(tot["n_unique_chunks"] or 0)],
                                     dtype="int64"),
        "dedup_ratio": pd.Series([total / stored if stored else None],
                                 dtype="float64"),
    })


def _chunks_ctes() -> str:
    """Shared CTE block ending in ``chunks(doc_id, cs, cku, clen)`` —
    the SQL re-derivation of ``functions/cdc.py`` (boundary = mixed
    k-window rolling hash % divisor == divisor-1 at byte position w≥2;
    key = mod-2^64 sum of mix64((offset<<8)|byte))."""
    k, d = CDC_WINDOW, CDC_DIVISOR
    return f"""
    {bytes_cte('documents', 'text', 'doc_id')},
    {roll_poly_cte('rollp', 'doc_id', k)},
    {mix64_ctes('rh', 'rollp', 'doc_id, w', 'poly')},
    cuts AS (SELECT doc_id, w FROM rh5 WHERE x % {d} = {d - 1} AND w >= 2),
    bstart AS (
        SELECT d.doc_id, d.p, d.b,
               coalesce(max(c.w) OVER (PARTITION BY d.doc_id ORDER BY d.p
                        ROWS UNBOUNDED PRECEDING), 1) AS cs
        FROM dbytes d LEFT JOIN cuts c ON c.doc_id = d.doc_id AND c.w = d.p
    ),
    {mix64_ctes('ct', 'bstart', 'doc_id, p, cs',
                f'((p - cs)::HUGEINT * 256 + b) % {M64}::HUGEINT')},
    chunks AS (
        SELECT doc_id, cs, sum(x) % {M64}::HUGEINT AS cku, count(*) AS clen
        FROM ct5 GROUP BY doc_id, cs
    )"""


register(
    "cdc_chunk_dup_groups",
    cdc_chunk_dup_groups,
    f"""
    WITH {_chunks_ctes()}
    SELECT {u64_bigint('cku')} AS ck,
           count(*) AS n_copies,
           min(clen) AS chunk_bytes,
           CAST(sum(clen) - min(clen) AS BIGINT) AS reclaim_bytes
    FROM chunks
    GROUP BY cku HAVING count(*) > 1
    ORDER BY reclaim_bytes DESC, ck ASC
    """,
)

register(
    "cdc_savings",
    cdc_savings,
    f"""
    WITH {_chunks_ctes()},
    per_key AS (
        SELECT cku, count(*) AS n_copies, min(clen) AS stored,
               sum(clen) AS total
        FROM chunks GROUP BY cku
    )
    SELECT CAST(sum(total) AS BIGINT) AS total_bytes,
           CAST(sum(stored) AS BIGINT) AS stored_bytes,
           CAST(sum(n_copies) AS BIGINT) AS n_chunks,
           count(*) AS n_unique_chunks,
           CAST(sum(total) AS DOUBLE) / CAST(sum(stored) AS DOUBLE)
               AS dedup_ratio
    FROM per_key
    """,
)
