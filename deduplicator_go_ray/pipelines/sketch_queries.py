"""Mergeable-sketch queries: count-min-sketch heavy hitters over the
``documents`` token stream.

The task brief lists "a novel sketch" as the canonical custom operator
Ray Data lacks; count-min (Cormode & Muthukrishnan 2005) is THE
mergeable frequency sketch for corpus-scale streams: each batch folds
its tokens into a d×w counter grid, grids merge by plain addition
(map-side combine → one tiny groupby — no corpus-wide word shuffle),
and a second streaming pass reports every word whose estimate clears
the heavy-hitter threshold.  At 100 TB the d×w grid is ~32 KiB —
broadcast once via ``ray.put`` — while the exact alternative (count
every distinct word) is a corpus-sized groupby; the sketch trades a
bounded overestimate (ε = e/w per row, union bound over d rows) for
never shuffling the long tail.

Token identity is the SimHash tokenizer's (lowercased ``\\w+``,
crc32+len+seed → splitmix64 — ``functions/shingles.py:word_tokens``),
so the SQL oracle rides the same tb/tcrc HUGEINT machinery as
``simhash_pairs`` (parity caveats documented there).  Row r's bucket is ``mix64(h + r·GOLDEN) % W`` — an
independent-enough hash family derived from the one mixer both sides
already implement.

Determinism: the sketch is exact arithmetic on u64 hashes — no RNG,
no floats — so the engine and the oracle compute the SAME estimates,
bucket collisions included; the oracle is a full re-derivation, not a
ground-truth comparison.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from ..functions.hashing import byte_view, mix64, window_hashes
from ..functions.shingles import word_tokens
from ..functions.sqlgen import GOLDEN, U64_MOD, crc32_list_sql, mix64_ctes
from .registry import register

CMS_DEPTH = 4        # d hash rows
CMS_WIDTH = 1024     # w buckets per row (ε ≈ e/1024 per row)
HH_PERMILLE = 1      # heavy hitter: est ≥ 0.1% of the token stream


def _read_docs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"])


def _batch_words(t: pa.Table):
    """Batch → (distinct words as a string array, their u64 ids,
    multiplicities), from the shared tokenizer
    (``functions/shingles.py:word_tokens``, seed 0).  Every token's
    bytes are gathered by its span into one Arrow string array and
    factorized exactly by string (not by id: crc32 + length can
    collide); each word's id is its first token's."""
    tok = word_tokens(t["text"])
    n = tok.ids.size
    if n == 0:
        return pa.array([], pa.string()), np.empty(0, np.uint64), \
            np.empty(0, np.int64)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(tok.lens, out=offs[1:])
    gather = np.repeat(tok.starts - offs[:-1], tok.lens) + np.arange(offs[-1])
    words = pa.LargeStringArray.from_buffers(
        n, pa.py_buffer(offs), pa.py_buffer(tok.data[gather]))
    enc = words.dictionary_encode()
    codes = enc.indices.to_numpy()
    _, first = np.unique(codes, return_index=True)
    cnt = np.bincount(codes, minlength=len(first)).astype(np.int64)
    return enc.dictionary.cast(pa.string()), tok.ids[first], cnt


def _buckets(h: np.ndarray) -> np.ndarray:
    """(d, n) bucket ids: row r uses mix64(h + r·GOLDEN) % W."""
    # r·GOLDEN mod 2^64 as a Python int: a numpy scalar product would
    # wrap too, but with an overflow warning
    return np.stack([
        (mix64(h + np.uint64(r * GOLDEN % (1 << 64)))
         % np.uint64(CMS_WIDTH)).astype(np.int64)
        for r in range(CMS_DEPTH)])


def _cms_grid(sf_dir: str) -> np.ndarray:
    """The merged (d, w) int64 count-min grid — map-side partial grids
    (≤ d·w rows each), one tiny (r,b) groupby, driver holds 32 KiB."""

    def partial(t: pa.Table) -> pa.Table:
        _, h, cnt = _batch_words(t)
        if h.size == 0:
            return pa.table({"r": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        bk = _buckets(h)
        flat = (np.repeat(np.arange(CMS_DEPTH, dtype=np.int64), h.size)
                * CMS_WIDTH + bk.ravel())
        grid = np.bincount(flat, weights=np.tile(cnt, CMS_DEPTH),
                           minlength=CMS_DEPTH * CMS_WIDTH).astype(np.int64)
        nz = np.flatnonzero(grid)
        return pa.table({"r": pa.array(nz // CMS_WIDTH, pa.int64()),
                         "b": pa.array(nz % CMS_WIDTH, pa.int64()),
                         "cnt": pa.array(grid[nz], pa.int64())})

    cells = (_read_docs(sf_dir)
             .map_batches(partial, batch_format="pyarrow")
             .groupby(["r", "b"]).aggregate(Sum("cnt", alias_name="cnt"))
             .to_pandas())                       # ≤ d·w rows — driver-safe
    grid = np.zeros((CMS_DEPTH, CMS_WIDTH), dtype=np.int64)
    grid[cells["r"].to_numpy(), cells["b"].to_numpy()] = \
        cells["cnt"].to_numpy()
    return grid


def cms_heavy_hitters(sf_dir: str) -> "ray.data.Dataset":
    """Words whose count-min estimate clears 0.1% of the token stream,
    largest first.  Pass 1 builds the mergeable grid; pass 2 streams
    the corpus again, probing the broadcast grid per distinct word —
    the standard two-pass CMS heavy-hitter shape (the candidate set
    never materializes the long tail)."""
    grid = _cms_grid(sf_dir)
    total = int(grid[0].sum())
    thr = (total * HH_PERMILLE + 999) // 1000
    grid_ref = ray.put(grid)

    def probe(t: pa.Table) -> pa.Table:
        g = ray.get(grid_ref)
        words, h, _ = _batch_words(t)
        if not len(words):
            return pa.table({"word": pa.array([], pa.string()),
                             "est_count": pa.array([], pa.int64())})
        bk = _buckets(h)
        est = g[np.arange(CMS_DEPTH)[:, None], bk].min(axis=0)
        keep = est >= thr
        return pa.table({
            "word": words.filter(pa.array(keep)),
            "est_count": pa.array(est[keep], pa.int64()),
        })

    cands = _read_docs(sf_dir).map_batches(probe, batch_format="pyarrow")
    # a word can surface from many batches, always with the SAME
    # estimate (the grid is global) — min() is a pure distinct pass
    # over the tiny survivor set
    from ray.data.aggregate import Min
    hh = cands.groupby("word").aggregate(
        Min("est_count", alias_name="est_count"))
    return hh.map_batches(
        lambda t: pa.table({
            "word": t["word"],
            "est_count": pa.compute.cast(t["est_count"], pa.int64()),
        }), batch_format="pyarrow",
    ).sort(["est_count", "word"], descending=[True, False])


def _cms_oracle_sql() -> str:
    crc_list = crc32_list_sql()
    word = r"[\p{L}\p{N}_]+"
    return f"""
    WITH toks AS (
        SELECT t.tok FROM documents,
             LATERAL (SELECT unnest(regexp_extract_all(lower(text),
                                    '{word}')) AS tok) t
    ),
    wcnt AS MATERIALIZED (
        SELECT tok, count(*) AS cnt FROM toks GROUP BY tok
    ),
    tb AS (
        SELECT tok, cnt, length(tok) AS clen,
               list_transform(generate_series(1, octet_length(encode(tok))),
                 p -> (strpos('0123456789ABCDEF',
                              substr(upper(hex(encode(tok))), 2*p-1, 1)) - 1) * 16
                    + (strpos('0123456789ABCDEF',
                              substr(upper(hex(encode(tok))), 2*p,   1)) - 1)) AS bs
        FROM wcnt
    ),
    tcrc AS (
        SELECT tok, cnt, clen,
               xor(list_reduce(list_prepend(4294967295::BIGINT, bs),
                       (acc, x) -> xor({crc_list}[((xor(acc, x)) & 255) + 1],
                                       acc >> 8)),
                   4294967295::BIGINT) AS crc
        FROM tb
    ),
    {mix64_ctes('hm', 'tcrc', 'tok, cnt',
                '(crc::HUGEINT + clen::HUGEINT * 4294967296::HUGEINT) % '
                + U64_MOD)},
    rb AS (
        SELECT tok, cnt, x AS h, r.r
        FROM hm5, LATERAL (SELECT unnest(generate_series(0, {CMS_DEPTH - 1}))
                           AS r) r
    ),
    {mix64_ctes('cb', 'rb', 'tok, cnt, r',
                f'(h + r::HUGEINT * {GOLDEN}::HUGEINT) % ' + U64_MOD)},
    wb AS MATERIALIZED (
        SELECT tok, cnt, r, x % {CMS_WIDTH} AS b FROM cb5
    ),
    cells AS MATERIALIZED (
        SELECT r, b, sum(cnt) AS cell FROM wb GROUP BY r, b
    ),
    est AS (
        SELECT w.tok, min(c.cell) AS est_count
        FROM wb w JOIN cells c ON w.r = c.r AND w.b = c.b
        GROUP BY w.tok
    ),
    tot AS (SELECT sum(cnt) AS n FROM wcnt)
    SELECT tok AS word, CAST(est_count AS BIGINT) AS est_count
    FROM est, tot
    WHERE est_count >= (n + 999) // 1000
    ORDER BY est_count DESC, word ASC
    """


register("cms_heavy_hitters", cms_heavy_hitters, _cms_oracle_sql())


# --------------------------------------------------------------------------
# HyperLogLog distinct-shingle cardinality per language (Flajolet et al.
# 2007) — the companion mergeable sketch: CMS answers "how often",
# HLL answers "how many distinct" without ever shuffling the universe.
# Registers merge by elementwise max, so each batch emits ≤ langs·m
# (lang, register, max-rank) partials and ONE tiny groupby-max merges
# the corpus; the universe here is the engine's own 9-byte shingle
# hashes (functions/hashing.py:rolling_hashes — the exact kernel the
# MinHash oracle already re-derives in SQL), sized so the RAW
# estimator is in its accurate regime (n ≫ 2.5·m; the small-range
# linear-counting correction needs ln(), whose libm results are not
# bit-portable between numpy and DuckDB — documented trade: this is
# the raw estimator, deterministic and oracle-equal by construction).
# --------------------------------------------------------------------------

HLL_B = 10
HLL_M = 1 << HLL_B            # 1024 registers
_REST_BITS = 64 - HLL_B       # hash bits feeding the rank
_MAXRANK = _REST_BITS + 1
# alpha_m · m² · 2^MAXRANK — ONE shared float constant, embedded in the
# SQL as its repr so both sides divide identical doubles
_HLL_C = 0.7213 / (1.0 + 1.079 / HLL_M) * HLL_M * HLL_M * float(1 << _MAXRANK)
SHINGLE_K = 9                 # ≙ the MinHash shingle width


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length (float log2 rounds at 2^53+)."""
    bl = np.zeros(x.size, np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    return bl + (v > 0)


def hll_distinct_shingles(sf_dir: str) -> pd.DataFrame:
    """Per language: total 9-byte shingle windows and the HLL estimate
    of how many DISTINCT shingles the language's text contains — the
    dedup-planning cardinality (a low distinct/total ratio predicts a
    high dedup yield) at sketch cost."""

    def partial(t: pa.Table) -> pa.Table:
        _, data, offs = byte_view(t["text"])
        h = window_hashes(data, offs, (SHINGLE_K,))[0]
        wlens = np.maximum(np.diff(offs) - SHINGLE_K + 1, 0)
        langs = np.repeat(np.asarray(t["lang"].to_pylist(), object), wlens)
        if not langs.size:
            return pa.table({"lang": pa.array([], pa.string()),
                             "j": pa.array([], pa.int64()),
                             "mr": pa.array([], pa.int64()),
                             "nw": pa.array([], pa.int64())})
        j = (h >> np.uint64(_REST_BITS)).astype(np.int64)
        rest = h & np.uint64((1 << _REST_BITS) - 1)
        rank = _MAXRANK - _bit_length_u64(rest)
        df = pd.DataFrame({"lang": langs, "j": j, "rank": rank})
        g = df.groupby(["lang", "j"], sort=False)["rank"].max().reset_index()
        nw = df.groupby("lang", sort=False).size()
        # window counts ride register j = -1 (no register collision)
        cnt = pd.DataFrame({"lang": nw.index, "j": -1, "rank": 0,
                            "nw": nw.to_numpy()})
        g["nw"] = 0
        allrows = pd.concat([g.rename(columns={"rank": "mr"}),
                             cnt.rename(columns={"rank": "mr"})])
        return pa.table({
            "lang": pa.array(allrows["lang"], pa.string()),
            "j": pa.array(allrows["j"].to_numpy(np.int64), pa.int64()),
            "mr": pa.array(allrows["mr"].to_numpy(np.int64), pa.int64()),
            "nw": pa.array(allrows["nw"].to_numpy(np.int64), pa.int64()),
        })

    from ray.data.aggregate import Max

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text", "lang"])
    merged = (docs.map_batches(partial, batch_format="pyarrow")
              .groupby(["lang", "j"])
              .aggregate(Max("mr", alias_name="mr"),
                         Sum("nw", alias_name="nw"))
              .to_pandas())                 # ≤ langs·(m+1) rows
    out = []
    for lang, grp in merged.groupby("lang", sort=True):
        regs = grp[grp["j"] >= 0]
        n_windows = int(grp.loc[grp["j"] < 0, "nw"].sum())
        s = sum(1 << (_MAXRANK - int(m)) for m in regs["mr"])
        s += (HLL_M - len(regs)) * (1 << _MAXRANK)
        out.append((lang, n_windows, _HLL_C / float(s)))
    return pd.DataFrame(out, columns=["lang", "n_windows", "distinct_est"])


def _hll_oracle_sql() -> str:
    from ..functions.sqlgen import bytes_cte, pow_list_sql, roll_poly_cte
    pow2 = pow_list_sql(2, _MAXRANK + 1)
    return f"""
    WITH {bytes_cte('documents', 'text', 'doc_id')},
    {roll_poly_cte('rollp', 'doc_id', SHINGLE_K)},
    {mix64_ctes('rh', 'rollp', 'doc_id, w', 'poly')},
    jr AS (
        SELECT d.lang, rh5.x >> {_REST_BITS} AS j,
               CASE WHEN rh5.x % {1 << _REST_BITS} = 0 THEN {_MAXRANK}
                    ELSE {_MAXRANK}
                         - length(ltrim(bin(rh5.x % {1 << _REST_BITS}), '0'))
               END AS rank
        FROM rh5 JOIN documents d USING (doc_id)
    ),
    nwin AS (SELECT lang, count(*) AS n_windows FROM jr GROUP BY lang),
    regs AS (SELECT lang, j, max(rank) AS mr FROM jr GROUP BY lang, j),
    ssum AS (
        SELECT lang,
               sum(({pow2})[({_MAXRANK} - mr) + 1]) AS s_used,
               count(*) AS n_used
        FROM regs GROUP BY lang)
    SELECT n.lang, n.n_windows,
           {_HLL_C!r} / CAST(s.s_used
               + ({HLL_M} - s.n_used) * {1 << _MAXRANK}::HUGEINT AS DOUBLE)
               AS distinct_est
    FROM nwin n JOIN ssum s USING (lang)
    ORDER BY lang
    """


register("hll_distinct_shingles", hll_distinct_shingles, _hll_oracle_sql())
