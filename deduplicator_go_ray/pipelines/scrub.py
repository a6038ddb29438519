"""Text-scrubbing curation operators: PII masking and corpus-wide
boilerplate-line removal.

Two steps every large-scale training-data pipeline runs before
training (task brief "operations a large-scale training-data pipeline
would need"):

* ``pii_scrub`` — mask email / phone / IPv4 literals with typed
  placeholder tokens.  Pure per-row kernel, zero-copy Arrow end to end:
  the regexes run as RE2 via ``pyarrow.compute.replace_substring_regex``
  / ``count_substring_regex`` (DuckDB's regexp functions are RE2 too,
  so the oracle shares the exact pattern semantics).  Since the
  synthetic corpus carries no real PII, the query first appends a
  deterministic PII suffix (a pure function of ``doc_id``, derivable in
  SQL) so the masking is exercised on every row.

* ``boilerplate_lines`` — drop lines that repeat across ≥10% of the
  corpus (the CCNet / RefinedWeb bulk-repetition-removal step:
  Wenzek et al. 2020 §3.1 dedup by line; Penedo et al. 2023 §3).  The
  synthetic corpus is single-line, so each page is first wrapped in a
  deterministic nav / section / tag / footer frame (pure function of
  ``doc_id``): the constant nav+footer (100% of docs) and the
  ``sec <id%7>`` family (~14%) cross the 10% threshold and are
  removed; the ``tag <id%11>`` family (~9%) and the body stay.

  Scale plan (two passes, like the flagship's exact stage):
  pass 1 counts line occurrences — per-batch partial ``value_counts``
  on a 64-bit line hash (map-side combiner), then a skinny
  ``groupby(lh).Sum`` so the exchange moves O(distinct-lines-per-batch)
  int64 rows, never text; the *frequent* set (tiny by construction —
  boilerplate is frequent, so there are few of them; a production run
  would also cap it top-K) is collected once and broadcast via
  ``ray.put``.  Pass 2 re-hashes lines per batch and drops members of
  the broadcast set — no shuffle touches document text.
  ≙ the reference's two-phase candidate flow (count first, act on the
  survivors: files/hash.go:37-48 dup-size pruning).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import hash64_str
from ..stages.common import (Blocks, as_blocks, gather, keys_over, map_blocks,
                             with_stats)
from .registry import register


def _read_docs(sf_dir: str, columns: list[str]) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


# --------------------------------------------------------------------------
# PII masking
# --------------------------------------------------------------------------

_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PHONE_RE = r"\+[0-9]{1,3}-[0-9]{3}-[0-9]{4}"
_IP_RE = r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"


def _augment_with_pii(t: pa.Table) -> pa.Array:
    """text || deterministic PII suffix (pure function of doc_id)."""
    ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
    id_str = pa.array(ids.astype(str))
    phone = pa.array(np.char.zfill((ids % 10_000).astype(str), 4))
    ip3 = pa.array(((ids // 256) % 256).astype(str))
    ip4 = pa.array((ids % 256).astype(str))
    return pc.binary_join_element_wise(
        t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray)
        else t["text"],
        " contact user", id_str, "@mail.example.org or +1-555-",
        phone, " from 10.0.", ip3, ".", ip4, "")


def pii_scrub(sf_dir: str) -> "ray.data.Dataset":
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def scrub(t: pa.Table) -> pa.Table:
        raw = _augment_with_pii(t)
        clean = raw
        for pat, rep in ((_EMAIL_RE, "[EMAIL]"), (_PHONE_RE, "[PHONE]"),
                         (_IP_RE, "[IP]")):
            clean = pc.replace_substring_regex(
                clean, pattern=pat, replacement=rep)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_emails": pc.cast(
                pc.count_substring_regex(raw, pattern=_EMAIL_RE), pa.int64()),
            "n_phones": pc.cast(
                pc.count_substring_regex(raw, pattern=_PHONE_RE), pa.int64()),
            "n_ips": pc.cast(
                pc.count_substring_regex(raw, pattern=_IP_RE), pa.int64()),
            "clean_text": clean,
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


register(
    "pii_scrub",
    pii_scrub,
    f"""
    WITH aug AS (
      SELECT doc_id,
             text || ' contact user' || CAST(doc_id AS VARCHAR)
                  || '@mail.example.org or +1-555-'
                  || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                  || ' from 10.0.' || CAST((doc_id // 256) % 256 AS VARCHAR)
                  || '.' || CAST(doc_id % 256 AS VARCHAR) AS raw
      FROM documents)
    SELECT doc_id,
           CAST(len(regexp_extract_all(raw, '{_EMAIL_RE}')) AS BIGINT)
               AS n_emails,
           CAST(len(regexp_extract_all(raw, '{_PHONE_RE}')) AS BIGINT)
               AS n_phones,
           CAST(len(regexp_extract_all(raw, '{_IP_RE}')) AS BIGINT) AS n_ips,
           regexp_replace(regexp_replace(regexp_replace(raw,
               '{_EMAIL_RE}', '[EMAIL]', 'g'),
               '{_PHONE_RE}', '[PHONE]', 'g'),
               '{_IP_RE}', '[IP]', 'g') AS clean_text
    FROM aug
    """,
)


# --------------------------------------------------------------------------
# boilerplate-line removal
# --------------------------------------------------------------------------

_NAV = "home | about | contact"
_FOOTER = "copyright example.org all rights reserved"
_FREQ_FRACTION = 0.10   # a line in >=10% of docs is boilerplate


def _synth_pages(t: pa.Table) -> pa.Array:
    """nav \\n sec<k> \\n text \\n tag<k> \\n footer (pure fn of doc_id)."""
    ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
    sec = pa.array(np.char.add("sec ", (ids % 7).astype(str)))
    tag = pa.array(np.char.add("tag ", (ids % 11).astype(str)))
    text = (t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray) else t["text"])
    return pc.binary_join_element_wise(_NAV, sec, text, tag, _FOOTER, "\n")


def _line_frame(t: pa.Table) -> pd.DataFrame:
    pages = _synth_pages(t)
    s = pd.Series(pages.to_pandas(), copy=False)
    lines = s.str.split("\n").explode()
    return pd.DataFrame({
        "row": lines.index.to_numpy(),
        "line": lines.to_numpy(),
        # the engine's vectorized kernel — the hash is engine-internal
        # (the oracle groups by the line string itself), so no md5
        # parity constraint applies and the O(bytes) path is free
        "lh": hash64_str(lines.tolist()).view(np.int64),
    })


def _line_hashes(t: pa.Table) -> pa.Table:
    return pa.table({"lh": pa.array(_line_frame(t)["lh"].to_numpy(),
                                    pa.int64())})


def _drop_frequent(t: pa.Table, bad: np.ndarray):
    """One (doc_id, text) block with the lines whose hash is in ``bad``
    removed, with its stats."""
    lf = _line_frame(t)
    keep = ~np.isin(lf["lh"].to_numpy(), bad)
    kept = lf[keep]
    joined = kept.groupby("row", sort=True)["line"].agg("\n".join)
    n_rows = t.num_rows
    clean = pd.Series([""] * n_rows)
    clean[joined.index] = joined
    dropped = pd.Series(np.zeros(n_rows, dtype=np.int64))
    drop_counts = lf[~keep].groupby("row", sort=True).size()
    dropped[drop_counts.index] = drop_counts
    return with_stats(pa.table({
        "doc_id": t["doc_id"],
        "clean_text": pa.array(clean.tolist(), pa.string()),
        "n_dropped": pa.array(dropped.to_numpy(), pa.int64()),
    }))


def remove_frequent_lines(docs: "Blocks | ray.data.Dataset",
                          thr: int) -> "Blocks":
    """Two-pass frequent-line removal over (doc_id, text) rows: lines
    (of the synthetic page frame) occurring ``>= thr`` times
    corpus-wide are dropped.  Pass 1 moves only (hash, count) int64
    partials through one count exchange (``keys_over``); the frequent
    set, tiny by construction (it IS the boilerplate), ships once
    through the object store to one task per block."""
    docs = as_blocks(docs)
    freq = keys_over(docs, "lh", thr - 1, pre_fn=_line_hashes)
    return gather(map_blocks(docs.refs, _drop_frequent, ray.put(freq),
                             num_returns=2))


def boilerplate_lines(sf_dir: str) -> "ray.data.Dataset":
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    # count is integral, so `>= fraction·n_docs` ≡ `>= ceil(fraction·n_docs)`
    thr = int(np.ceil(_FREQ_FRACTION * docs.count()))
    return remove_frequent_lines(docs, thr)


register(
    "boilerplate_lines",
    boilerplate_lines,
    f"""
    WITH pages AS (
      SELECT doc_id,
             '{_NAV}' || chr(10) ||
             'sec ' || CAST(doc_id % 7 AS VARCHAR) || chr(10) ||
             text || chr(10) ||
             'tag ' || CAST(doc_id % 11 AS VARCHAR) || chr(10) ||
             '{_FOOTER}' AS page
      FROM documents),
    lines AS (
      SELECT doc_id,
             unnest(string_split(page, chr(10))) AS line,
             unnest(range(len(string_split(page, chr(10))))) AS ln
      FROM pages),
    freq AS (
      SELECT line FROM lines GROUP BY line
      HAVING COUNT(*) >= {_FREQ_FRACTION} * (SELECT COUNT(*) FROM documents)),
    kept AS (
      SELECT doc_id, line, ln FROM lines
      WHERE line NOT IN (SELECT line FROM freq)),
    totals AS (SELECT doc_id, COUNT(*) AS n_total FROM lines GROUP BY doc_id),
    agg AS (
      SELECT doc_id, string_agg(line, chr(10) ORDER BY ln) AS clean_text,
             COUNT(*) AS n_kept
      FROM kept GROUP BY doc_id)
    SELECT t.doc_id,
           COALESCE(a.clean_text, '') AS clean_text,
           CAST(t.n_total - COALESCE(a.n_kept, 0) AS BIGINT) AS n_dropped
    FROM totals t LEFT JOIN agg a USING (doc_id)
    """,
)


# --------------------------------------------------------------------------
# unicode text normalization
# --------------------------------------------------------------------------


def normalize_text(sf_dir: str) -> "ray.data.Dataset":
    """Canonical text normalization — the normalize-BEFORE-hash step of
    every dedup/curation stack (without it, byte-different encodings of
    the same text defeat exact and near dedup alike): Unicode NFC,
    whitespace-run collapse to one space, edge trim.  Collapse and trim
    are zero-copy Arrow RE2 kernels; the NFC step is pandas
    ``.str.normalize`` (unicodedata) because **pyarrow 16.1's
    ``utf8_normalize(form="NFC")`` does not compose** — verified:
    ``e + U+0301`` passes through as two codepoints under every form,
    while DuckDB's utf8proc ``nfc_normalize`` and Python's unicodedata
    both compose to ``U+00E9``.  Both oracle sides therefore agree on
    real NFC; the per-element normalize is the cost of correctness for
    this scalar op (same accepted trade as ``_md5_lower64``).

    The synthetic corpus is ASCII, so the query first appends a
    deterministic unicode-hostile suffix (a pure function of doc_id,
    derivable in SQL): a decomposed e + COMBINING ACUTE (NFC composes
    it), a tab, doubled spaces, and a newline.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
        text = (t["text"].combine_chunks()
                if isinstance(t["text"], pa.ChunkedArray) else t["text"])
        # NFD on purpose (e + U+0301, matching the oracle's chr(769));
        # spelled as an escape so an NFC-normalizing editor can't
        # silently compose it and shift n_chars_raw by 1
        raw = pc.binary_join_element_wise(
            text, " cafe\u0301\t  x", pa.array((ids % 5).astype(str)),
            "\n ", "")
        norm = pa.array(raw.to_pandas().str.normalize("NFC"), pa.string())
        collapsed = pc.replace_substring_regex(
            norm, pattern=r"\s+", replacement=" ")
        trimmed = pc.utf8_trim(collapsed, characters=" ")
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_text": trimmed,
            "n_chars_raw": pc.cast(pc.utf8_length(raw), pa.int64()),
            "n_chars_norm": pc.cast(pc.utf8_length(trimmed), pa.int64()),
        })

    return docs.map_batches(f, batch_format="pyarrow")


register(
    "normalize_text",
    normalize_text,
    r"""
    WITH aug AS (
      SELECT doc_id,
             text || ' cafe' || chr(769) || chr(9) || '  x'
                  || CAST(doc_id % 5 AS VARCHAR) || chr(10) || ' ' AS raw
      FROM documents),
    n AS (
      SELECT doc_id, raw,
             trim(regexp_replace(nfc_normalize(raw), '\s+', ' ', 'g'),
                  ' ') AS norm_text
      FROM aug)
    SELECT doc_id, norm_text,
           CAST(length(raw) AS BIGINT) AS n_chars_raw,
           CAST(length(norm_text) AS BIGINT) AS n_chars_norm
    FROM n
    """,
)


# --------------------------------------------------------------------------
# keep-first line dedup
# --------------------------------------------------------------------------

# owner encoding: doc_id * _LN_K + line-index; the synthesized page has
# 5 lines, so ln < _LN_K holds with 7 orders of magnitude to spare and
# doc_id keeps headroom to ~9e15
_LN_K = 1024
# dup-winner rows above this skip the driver collect and take the keyed
# grouped_apply plan (same switch discipline as import_anti_join /
# curation_pipeline's keeper semi-join)
_DUP_BROADCAST_MAX = 1_000_000


def _occurrence_frame(t: pa.Table) -> pd.DataFrame:
    """Per-line occurrence rows of the synthesized pages: batch-local
    row, line index, global owner key, line text, 64-bit line hash."""
    ids = np.asarray(t["doc_id"].to_numpy(), dtype=np.int64)
    s = pd.Series(_synth_pages(t).to_pandas(), copy=False)
    lines = s.str.split("\n").explode()
    row = lines.index.to_numpy()
    ln = lines.groupby(level=0).cumcount().to_numpy()
    return pd.DataFrame({
        "row": row,
        "ln": ln,
        "owner": ids[row] * _LN_K + ln,
        "line": lines.to_numpy(),
        "lh": hash64_str(lines.tolist()).view(np.int64),
    })


def _assemble_clean(t: pa.Table, lf: pd.DataFrame,
                    drop_mask: np.ndarray) -> pa.Table:
    """Rebuild (doc_id, clean_text, n_dropped) from per-occurrence
    drop decisions over one input batch."""
    kept = lf[~drop_mask]
    joined = kept.groupby("row", sort=True)["line"].agg("\n".join)
    clean = pd.Series([""] * t.num_rows)
    clean[joined.index] = joined
    dropped = pd.Series(np.zeros(t.num_rows, dtype=np.int64))
    drop_counts = lf[drop_mask].groupby("row", sort=True).size()
    dropped[drop_counts.index] = drop_counts
    return pa.table({
        "doc_id": t["doc_id"],
        "clean_text": pa.array(clean.tolist(), pa.string()),
        "n_dropped": pa.array(dropped.to_numpy(), pa.int64()),
    })


_LDF_EMPTY = pa.table({"doc_id": pa.array([], pa.int64()),
                       "clean_text": pa.array([], pa.string()),
                       "n_dropped": pa.array([], pa.int64())})


def line_dedup_first_ds(docs: "ray.data.Dataset",
                        plan: str = "auto") -> "ray.data.Dataset":
    """Keep-first exact line dedup: a line occurring at several
    (doc, position) sites corpus-wide survives only at its globally
    first site — min ``doc_id * K + ln`` wins, every later occurrence
    is dropped.  This is the keep-ONE-copy semantics of sub-document
    exact dedup (C4's duplicated-span discard, Raffel et al. 2020 §2.2;
    RefinedWeb exact substring dedup, Penedo et al. 2023 §3.2) — the
    complement of :func:`remove_frequent_lines`, which drops ALL copies
    of over-frequent lines; ≙ the reference's keep-first prune
    (files/prune.go:175-204) applied at line granularity.

    Scale plan: pass 1 moves only (line-hash, min-owner, count) int64
    partials — a per-batch map-side combiner, then one skinny
    ``groupby(lh).aggregate(Min, Sum)``; only hashes with count ≥ 2
    need a decision.  Pass 2 either broadcasts the sorted dup-winner
    arrays (small side) or, above ``_DUP_BROADCAST_MAX`` winner rows,
    ships skinny occurrence rows through a ``grouped_apply`` on the
    line hash to emit per-occurrence drop keys, which then join the
    (unshuffled) text by a second grouped pass on ``doc_id`` — document
    text crosses the wire once, drop keys are int64 pairs.  Both plans
    are equality-tested (``plan=`` forces one).

    The dedup key is the engine's 64-bit line hash; the oracle groups
    by the line string itself, so a collision would surface as a hash
    mismatch (same accepted bound as the fused shuffle's uid64,
    stages/buckets.py).
    """
    from ray.data.aggregate import Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"lh": pa.array([], pa.int64()),
                          "w": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        lf = _occurrence_frame(t)
        g = lf.groupby("lh", sort=False)["owner"]
        mn = g.min()
        return pa.table({"lh": pa.array(mn.index.to_numpy(), pa.int64()),
                         "w": pa.array(mn.to_numpy(), pa.int64()),
                         "n": pa.array(g.size().to_numpy(), pa.int64())})

    dups = (docs.map_batches(partial, batch_format="pyarrow")
                .groupby("lh")
                .aggregate(Min("w", alias_name="w"),
                           Sum("n", alias_name="n"))
                .filter(expr="n >= 2")
                .select_columns(["lh", "w"])
                .materialize())

    if plan == "auto":
        plan = ("broadcast" if dups.count() <= _DUP_BROADCAST_MAX
                else "keyed")

    if plan == "broadcast":
        parts = [b for b in dups.iter_batches(batch_format="pyarrow")]
        lh_all = (np.concatenate([b["lh"].to_numpy() for b in parts])
                  if parts else np.array([], dtype=np.int64))
        w_all = (np.concatenate([b["w"].to_numpy() for b in parts])
                 if parts else np.array([], dtype=np.int64))
        order = np.argsort(lh_all)
        ref = ray.put((lh_all[order], w_all[order]))

        def drop_later(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _LDF_EMPTY
            lh_s, w_s = ray.get(ref)
            lf = _occurrence_frame(t)
            # numpy & does not short-circuit: with zero corpus-wide dup
            # lines lh_s is empty and lh_s[idx_c] would IndexError
            if len(lh_s) == 0:
                return _assemble_clean(t, lf, np.zeros(len(lf), bool))
            lh = lf["lh"].to_numpy()
            idx = np.searchsorted(lh_s, lh)
            idx_c = np.minimum(idx, len(lh_s) - 1)
            found = lh_s[idx_c] == lh
            drop = found & (lf["owner"].to_numpy() != w_s[idx_c])
            return _assemble_clean(t, lf, drop)

        return docs.map_batches(drop_later, batch_format="pyarrow")

    # keyed plan: no driver-side winner collect.  Stage A co-locates
    # skinny occurrence rows with winner rows on lh and emits only the
    # DROPPED (doc_id, ln) keys; stage B co-locates those keys with the
    # document text on doc_id and rebuilds the page.
    from ..stages.common import grouped_apply

    def occ_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lh": pa.array([], pa.int64()),
                             "owner": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64()),
                             "__m": pa.array([], pa.int8())})
        lf = _occurrence_frame(t)
        n = len(lf)
        return pa.table({
            "lh": pa.array(lf["lh"].to_numpy(), pa.int64()),
            "owner": pa.array(lf["owner"].to_numpy(), pa.int64()),
            "w": pa.array(np.zeros(n, np.int64), pa.int64()),
            "__m": pa.array(np.zeros(n, np.int8), pa.int8()),
        })

    def win_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "lh": t["lh"],
            "owner": pa.array(np.zeros(n, np.int64), pa.int64()),
            "w": t["w"],
            "__m": pa.array(np.ones(n, np.int8), pa.int8()),
        })

    def emit_drops(df: pd.DataFrame) -> pd.DataFrame:
        wins = df[df["__m"] == 1].set_index("lh")["w"]
        occ = df[df["__m"] == 0]
        # fill_value=-1 keeps reindex in exact int64 (owners are >= 0);
        # .fillna(-1) would upcast through float64 on any miss and drop
        # low bits past 2^53 at 10^10-doc scale
        w = wins.reindex(occ["lh"], fill_value=-1).to_numpy().astype(np.int64)
        drop = (w >= 0) & (occ["owner"].to_numpy() != w)
        return pd.DataFrame({"drop_key": occ.loc[drop, "owner"].to_numpy()})

    drops = grouped_apply(
        [docs, dups], ["lh"], emit_drops,
        empty_result=pa.table({"drop_key": pa.array([], pa.int64())}),
        pre_fn=[occ_rows, win_rows])

    def doc_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "text": t["text"],
            "drop_key": pa.array(
                np.full(len(t), -1, np.int64), pa.int64()),
        })

    def drop_rows(t: pa.Table) -> pa.Table:
        keys = t["drop_key"].to_numpy()
        return pa.table({
            "doc_id": pa.array(keys // _LN_K, pa.int64()),
            "text": pa.array([""] * len(t), pa.string()),
            "drop_key": t["drop_key"],
        })

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        dd = df[df["drop_key"] >= 0]
        drop_keys = np.sort(dd["drop_key"].to_numpy())
        d = df[df["drop_key"] < 0].sort_values("doc_id")
        if not len(d):
            return pd.DataFrame({"doc_id": np.array([], np.int64),
                                 "clean_text": np.array([], object),
                                 "n_dropped": np.array([], np.int64)})
        t = pa.table({"doc_id": pa.array(d["doc_id"].to_numpy(), pa.int64()),
                      "text": pa.array(d["text"].tolist(), pa.string())})
        lf = _occurrence_frame(t)
        # a doc_id partition with no drop rows is routine on sparsely
        # duplicated corpora; drop_keys[idx_c] on empty would IndexError
        if len(drop_keys) == 0:
            drop = np.zeros(len(lf), bool)
        else:
            idx = np.searchsorted(drop_keys, lf["owner"].to_numpy())
            idx_c = np.minimum(idx, len(drop_keys) - 1)
            drop = drop_keys[idx_c] == lf["owner"].to_numpy()
        return _assemble_clean(t, lf, drop).to_pandas()

    return grouped_apply([docs, drops], ["doc_id"], rebuild,
                         empty_result=_LDF_EMPTY, pre_fn=[doc_rows, drop_rows])


def line_dedup_first(sf_dir: str) -> "ray.data.Dataset":
    return line_dedup_first_ds(_read_docs(sf_dir, ["doc_id", "text"]))


register(
    "line_dedup_first",
    line_dedup_first,
    f"""
    WITH pages AS (
      SELECT doc_id,
             '{_NAV}' || chr(10) ||
             'sec ' || CAST(doc_id % 7 AS VARCHAR) || chr(10) ||
             text || chr(10) ||
             'tag ' || CAST(doc_id % 11 AS VARCHAR) || chr(10) ||
             '{_FOOTER}' AS page
      FROM documents),
    lines AS (
      SELECT doc_id,
             unnest(string_split(page, chr(10))) AS line,
             unnest(range(len(string_split(page, chr(10))))) AS ln
      FROM pages),
    marked AS (
      SELECT doc_id, line, ln,
             doc_id * {_LN_K} + ln
               = MIN(doc_id * {_LN_K} + ln) OVER (PARTITION BY line)
                 AS keep
      FROM lines)
    SELECT doc_id,
           COALESCE(string_agg(CASE WHEN keep THEN line END,
                               chr(10) ORDER BY ln), '') AS clean_text,
           CAST(SUM(CASE WHEN NOT keep THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dropped
    FROM marked
    GROUP BY doc_id
    """,
)


# --------------------------------------------------------------------------
# composite curation pipeline
# --------------------------------------------------------------------------

_MIN_FINAL_CHARS = 250   # post-scrub length floor
_BROADCAST_MAX_KEEPERS = 1_000_000


def curation_pipeline(sf_dir: str) -> "ray.data.Dataset":
    """End-to-end curation chain — what a user of this engine actually
    runs before training: URL-recrawl dedup (latest capture per
    canonical URL wins) → corpus-wide boilerplate-line removal → PII
    masking → minimum-length filter → exact content-hash keep-first.

    Every stage reuses an individually-oracled kernel and the whole
    chain has ONE composed DuckDB oracle, so the correctness gate
    covers the composition, not just the parts.  Streaming shape:

    * the keeper set (one id per canonical URL) is the output of a
      skinny argmax aggregate — broadcast when small, keyed-shuffle
      semi-join above ``_BROADCAST_MAX_KEEPERS`` (same size switch as
      ``import_anti_join``);
    * the frequent-line pass is the two-pass count→broadcast→drop flow
      of :func:`remove_frequent_lines` (text never shuffles);
    * PII masking and the length filter are per-batch Arrow kernels;
    * the final keep-first is one hash shuffle on ``content_hash``
      with a vectorized per-partition drop_duplicates.

    The survivors dataset is re-derived per pass (two passes read the
    filtered input — inherent to corpus-relative frequency, the SQL
    oracle scans twice as well).
    """
    from ..functions.hashing import md5_hex
    from ..stages.common import grouped_apply
    from ..stages.joins import broadcast_semi_filter, hash_join
    from .curation import url_dedup_latest

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    # 1. url recrawl dedup: keeper ids from the per-url argmax aggregate
    keepers = url_dedup_latest(sf_dir).select_columns(
        ["keeper_id"]).materialize()
    n_keep = keepers.count()
    if n_keep <= _BROADCAST_MAX_KEEPERS:
        ids = np.sort(np.concatenate(
            [b["keeper_id"].to_numpy() for b in
             keepers.iter_batches(batch_format="pyarrow")]
            or [np.array([], dtype=np.int64)]))
        base = broadcast_semi_filter(docs, "doc_id", ids.tolist())
    else:
        base = hash_join(docs, keepers.rename_columns({"keeper_id": "doc_id"}),
                         "doc_id", "left semi")

    # 2. boilerplate-line removal, threshold relative to the SURVIVOR
    #    count (== the url-family count, known from the tiny aggregate)
    thr = int(np.ceil(_FREQ_FRACTION * n_keep))
    clean = remove_frequent_lines(base, thr)

    # 3. PII mask + 4. length floor
    def scrub_and_filter(t: pa.Table) -> pa.Table:
        raw = _augment_with_pii(
            pa.table({"doc_id": t["doc_id"], "text": t["clean_text"]}))
        out = raw
        for pat, rep in ((_EMAIL_RE, "[EMAIL]"), (_PHONE_RE, "[PHONE]"),
                         (_IP_RE, "[IP]")):
            out = pc.replace_substring_regex(out, pattern=pat, replacement=rep)
        keep = pc.greater_equal(pc.utf8_length(out), _MIN_FINAL_CHARS)
        return pa.table({
            "doc_id": t["doc_id"],
            "final_text": out,
        }).filter(keep)

    # 5. exact keep-first on the content hash
    def hash_stage(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "content_hash": pa.array(
                md5_hex(t["final_text"].to_pylist()), pa.string()),
            "final_text": t["final_text"],
        })

    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["content_hash", "doc_id"], kind="mergesort")
        out = df.drop_duplicates("content_hash", keep="first")
        return pd.DataFrame({
            "doc_id": out["doc_id"].astype("int64"),
            "content_hash": out["content_hash"],
            "final_text": out["final_text"],
        })

    return grouped_apply(clean, ["content_hash"], keep_min,
                         empty_result=pa.table({
                             "doc_id": pa.array([], pa.int64()),
                             "content_hash": pa.array([], pa.string()),
                             "final_text": pa.array([], pa.string())}),
                         pre_fn=lambda t: hash_stage(scrub_and_filter(t)))


register(
    "curation_pipeline",
    curation_pipeline,
    f"""
    WITH keyed AS (
      SELECT doc_id,
             doc_id % 97 AS url_key,
             (doc_id * 37) % 100000 AS warc_off
      FROM documents),
    keepers AS (
      SELECT MAX(warc_off * 10000000 + doc_id) % 10000000 AS doc_id
      FROM keyed GROUP BY url_key),
    base AS (
      SELECT d.doc_id, d.text FROM documents d JOIN keepers USING (doc_id)),
    pages AS (
      SELECT doc_id,
             '{_NAV}' || chr(10) ||
             'sec ' || CAST(doc_id % 7 AS VARCHAR) || chr(10) ||
             text || chr(10) ||
             'tag ' || CAST(doc_id % 11 AS VARCHAR) || chr(10) ||
             '{_FOOTER}' AS page
      FROM base),
    lines AS (
      SELECT doc_id,
             unnest(string_split(page, chr(10))) AS line,
             unnest(range(len(string_split(page, chr(10))))) AS ln
      FROM pages),
    freq AS (
      SELECT line FROM lines GROUP BY line
      HAVING COUNT(*) >= {_FREQ_FRACTION} * (SELECT COUNT(*) FROM base)),
    kept AS (
      SELECT doc_id, line, ln FROM lines
      WHERE line NOT IN (SELECT line FROM freq)),
    clean AS (
      SELECT p.doc_id, COALESCE(a.ct, '') AS clean_text
      FROM pages p LEFT JOIN (
        SELECT doc_id, string_agg(line, chr(10) ORDER BY ln) AS ct
        FROM kept GROUP BY doc_id) a USING (doc_id)),
    scrubbed AS (
      SELECT doc_id,
             regexp_replace(regexp_replace(regexp_replace(
                 clean_text || ' contact user' || CAST(doc_id AS VARCHAR)
                     || '@mail.example.org or +1-555-'
                     || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                     || ' from 10.0.'
                     || CAST((doc_id // 256) % 256 AS VARCHAR)
                     || '.' || CAST(doc_id % 256 AS VARCHAR),
                 '{_EMAIL_RE}', '[EMAIL]', 'g'),
                 '{_PHONE_RE}', '[PHONE]', 'g'),
                 '{_IP_RE}', '[IP]', 'g') AS final_text
      FROM clean),
    filtered AS (
      SELECT * FROM scrubbed WHERE length(final_text) >= {_MIN_FINAL_CHARS})
    SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
           md5(final_text) AS content_hash,
           final_text
    FROM filtered GROUP BY final_text
    """,
)
