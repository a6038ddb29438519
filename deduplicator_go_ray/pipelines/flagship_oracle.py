"""DuckDB SQL oracle for the flagship ``dedup_pipeline`` query.

One SQL statement re-derives the entire pipeline from the ``documents``
parquet, independently of every Ray/numpy kernel:

1.  **pages + extraction** — url/warc derivation and the HTML wrap +
    extract round-trip collapse to a pure string function on this
    corpus (``extracted = title4(text) || '\\n' || text``; the corpus
    carries no HTML-active characters, double whitespace or newlines —
    asserted corpus-wide before this oracle landed).
2.  **exact groups** — sha256 over the extracted text; representative
    = min url, ``exact_size`` = member count.
3.  **signatures on representatives** — the shared ``sqlgen`` blocks:
    9-byte rolling shingles → OPH + rotation densification → 128-slot
    ``sig`` table → GOLDEN band fold; SimHash over word tokens; 48-byte
    winnowing anchors (``hash % 64 == 0``, documents ≥ 200 bytes); doc
    uid = ``hash64_str(url, seed=3)`` viewed as signed int64 (bucket
    ordering is signed, exactly like the numpy int64 bit-view).
4.  **fused candidate edges** (``stages/buckets.py:bucket_rows`` /
    ``candidate_edges_fused``):
    * bands: per band-key bucket sorted by uid — consecutive *chain*
      edges plus a *star* from the bucket minimum to members at local
      index ≥ 2 (stars only for buckets ≤ group_cap);
    * simhash: 16-bit chunk buckets (≤ 512), all uid-ordered pairs
      within Hamming ≤ 3;
    * anchors: shorts (rows carrying the doc's minimum anchor) × longs
      (buckets ≤ 4096) with strictly smaller byte length.
    Hot-band pre-salting never engages at oracle scale
    (``presalt_min_band_rows`` = 2M band rows).  The oracle emits the
    UNPRUNED candidates: the engine's reducer also drops pairs by its
    slot-fingerprint and anchor-bloom bounds, which only over-count
    (equal slots give equal low bits; a contained text's anchors are a
    subset of its container's), so it never drops a pair that step 5
    keeps and the verified edge sets agree.
5.  **verification** — near edges (band+simhash) by signature
    slot-equality ≥ 103/128 (integer-exact 0.80); anchor edges by
    exact substring containment of the shorter text.
6.  **components** — recursive-CTE transitive closure over verified
    edges; root = min reachable uid (any canonical representative
    yields the same partition, and the output never exposes root
    values — cluster identity is ``md5(min url)``).
7.  **assignment** — match_kind precedence substring > near > exact >
    unique (``pipelines/dedup.py:finalize``); keeper = min url per
    cluster; ``cluster_id = md5(min url)[:16]``.

min_size = 0 and the corpus extracts cleanly, so no too_small / error
sentinel rows exist on the oracle inputs (the sentinel paths are
pytest-verified instead: tests/test_dedup_pipeline.py).
"""

from __future__ import annotations

from ..config import MinHashConfig, PipelineConfig
from ..functions.sqlgen import (U64_MOD, band_key_ctes, bytes_cte,
                                hash64_seed, mix64_ctes, oph_sig_ctes,
                                pow_list_sql, roll_poly_cte,
                                simhash_sig_ctes, u64_bigint)

ROLL_BASE = 1000000007


def flagship_oracle_sql() -> str:
    cfg = PipelineConfig()
    mh: MinHashConfig = cfg.minhash
    min_eq = next(n for n in range(mh.num_perms + 1)
                  if n / mh.num_perms >= mh.verify_threshold)
    ham = cfg.simhash.hamming_threshold          # 3
    sim_seed = cfg.simhash.seed                  # 42
    chunk_bits, n_chunks = 16, 4
    aw = cfg.substring.window                    # 48
    amod = cfg.substring.modulus                 # 64
    amin_len = cfg.substring.min_len             # 200 bytes
    group_cap = cfg.lsh.group_cap                # 512 (band stars)
    sim_cap, anchor_cap = 512, 4096
    pow_a = pow_list_sql(ROLL_BASE, aw)
    sd3 = hash64_seed(3)                         # uid seed

    return f"""
    WITH RECURSIVE
    docs0 AS (
        SELECT doc_id,
               'https://docs' || (doc_id % 89) || '.example/' ||
                   substr(md5('doc:' || doc_id), 1, 16) AS url,
               -- empty text ≙ pages_from_documents' (t or "untitled")
               -- title fallback; body '' adds nothing after extraction
               CASE WHEN coalesce(text, '') = '' THEN 'untitled'
                    ELSE array_to_string(
                             list_slice(string_split(text, ' '), 1, 4), ' ')
                         || chr(10) || text END AS etext
        FROM documents
    ),
    members AS MATERIALIZED (
        SELECT doc_id, url, etext,
               octet_length(encode(etext)) AS n_bytes,
               min(url)  OVER (PARTITION BY sha256(etext)) AS rep_url,
               count(*)  OVER (PARTITION BY sha256(etext)) AS exact_size
        FROM docs0
    ),
    reps AS MATERIALIZED (
        SELECT url, etext, n_bytes FROM members WHERE url = rep_url
    ),
    -- ---- rep uid = hash64_str(url, seed=3), signed int64 bit-view ----
    ub AS (
        SELECT url, length(url) AS un, p, ascii(substr(url, p, 1)) AS b
        FROM reps, LATERAL (SELECT unnest(generate_series(1, length(url))) AS p) _
    ),
    upoly AS (
        SELECT url, any_value(un) AS un,
               sum(b::HUGEINT * ({pow_a})[(un - p) + 1]) % {U64_MOD} AS poly
        FROM ub GROUP BY url
    ),
    {mix64_ctes('ulm', 'upoly', 'url, poly',
                f'(un + {sd3}::HUGEINT) % {U64_MOD}')},
    {mix64_ctes('uh', 'ulm5', 'url', 'xor(poly, x)')},
    uidmap AS MATERIALIZED (SELECT url, {u64_bigint('x')} AS uid FROM uh5),
    -- ---- minhash signature + band keys over rep extracted text --------
    {bytes_cte('reps', 'etext', 'url')},
    {oph_sig_ctes('url', mh.shingle_k, mh.num_perms)},
    {band_key_ctes('url', mh.bands, mh.rows)},
    -- ---- simhash over word tokens of the rep text (shared block) -------
    {simhash_sig_ctes('url', 'reps', 'etext', sim_seed)},
    -- ---- winnowing anchors: {aw}-byte windows, hash % {amod} == 0 ------
    {roll_poly_cte('arollp', 'url', aw, where=f'n >= {amin_len}')},
    {mix64_ctes('am', 'arollp', 'url', 'poly')},
    anch AS MATERIALIZED (  -- signed int64 bit-view, like the numpy path
        SELECT DISTINCT url, {u64_bigint('x')} AS anchor
        FROM am5 WHERE x % {amod} = 0
    ),
    -- ---- fused candidate edges -----------------------------------------
    bkd AS (
        SELECT DISTINCT bk.band_key, u.uid
        FROM bandkeys bk JOIN uidmap u USING (url)
    ),
    bw AS (
        SELECT uid,
               row_number() OVER w AS rn,
               count(*)    OVER (PARTITION BY band_key) AS sz,
               min(uid)    OVER (PARTITION BY band_key) AS fst,
               lead(uid)   OVER w AS nx
        FROM bkd
        WINDOW w AS (PARTITION BY band_key ORDER BY uid)
    ),
    -- NOTE: inside WITH RECURSIVE, DuckDB 1.0 stops deduplicating
    -- top-level UNIONs in non-recursive CTEs — every set union below is
    -- therefore an explicit DISTINCT over UNION ALL.  near_cand MUST be
    -- distinct: duplicate candidate rows would double the slot-equality
    -- sums in ver_near.
    band_e AS (
        SELECT DISTINCT u, v FROM (
            SELECT uid AS u, nx AS v FROM bw WHERE rn < sz
            UNION ALL
            SELECT fst, uid FROM bw WHERE rn >= 3 AND sz <= {group_cap})
    ),
    schunk AS (
        SELECT u.uid, c, (s.simhash >> (c * {chunk_bits}))
               & {(1 << chunk_bits) - 1} AS cv, s.simhash
        FROM simh s JOIN uidmap u USING (url),
             LATERAL (SELECT unnest(generate_series(0, {n_chunks - 1})) AS c) _
    ),
    scnt AS (
        SELECT c, cv, count(*) AS cnt FROM schunk GROUP BY c, cv
    ),
    sim_e AS (
        SELECT a.uid AS u, b.uid AS v
        FROM schunk a
        JOIN schunk b ON a.c = b.c AND a.cv = b.cv AND a.uid < b.uid
        JOIN scnt n ON n.c = a.c AND n.cv = a.cv
        WHERE n.cnt <= {sim_cap}
          AND bit_count(xor(a.simhash, b.simhash)) <= {ham}
    ),
    amin AS (SELECT url, min(anchor) AS mn FROM anch GROUP BY url),
    acnt AS (SELECT anchor, count(*) AS cnt FROM anch GROUP BY anchor),
    anchor_e AS (
        SELECT DISTINCT su.uid AS u, lu.uid AS v
        FROM anch s
        JOIN amin m ON m.url = s.url AND s.anchor = m.mn
        JOIN anch l ON l.anchor = s.anchor
        JOIN acnt c ON c.anchor = s.anchor AND c.cnt <= {anchor_cap}
        JOIN reps rs ON rs.url = s.url
        JOIN reps rl ON rl.url = l.url AND rs.n_bytes < rl.n_bytes
        JOIN uidmap su ON su.url = s.url
        JOIN uidmap lu ON lu.url = l.url
    ),
    -- ---- verification ---------------------------------------------------
    near_cand AS (
        SELECT DISTINCT u, v FROM (
            SELECT u, v FROM band_e UNION ALL SELECT u, v FROM sim_e)
    ),
    ver_near AS MATERIALIZED (
        SELECT e.u, e.v
        FROM near_cand e
        JOIN uidmap mu ON mu.uid = e.u
        JOIN uidmap mv ON mv.uid = e.v
        JOIN sig sa ON sa.url = mu.url
        JOIN sig sb ON sb.url = mv.url AND sb.j = sa.j
        GROUP BY e.u, e.v
        HAVING sum(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END) >= {min_eq}
    ),
    ver_anchor AS MATERIALIZED (
        SELECT e.u, e.v
        FROM anchor_e e
        JOIN uidmap mu ON mu.uid = e.u
        JOIN uidmap mv ON mv.uid = e.v
        JOIN reps ru ON ru.url = mu.url
        JOIN reps rv ON rv.url = mv.url
        WHERE contains(rv.etext, ru.etext)
    ),
    edges_all AS MATERIALIZED (
        SELECT DISTINCT u, v FROM (
            SELECT u, v FROM ver_near UNION ALL SELECT u, v FROM ver_anchor)
    ),
    und AS MATERIALIZED (
        SELECT DISTINCT a, b FROM (
            SELECT u AS a, v AS b FROM edges_all
            UNION ALL SELECT v, u FROM edges_all
            UNION ALL SELECT u, u FROM edges_all
            UNION ALL SELECT v, v FROM edges_all)
    ),
    reach AS (
        SELECT a, b FROM und
        UNION
        SELECT r.a, u.b FROM reach r JOIN und u ON u.a = r.b
    ),
    comp AS (SELECT a AS uid, min(b) AS root FROM reach GROUP BY a),
    subu AS (
        SELECT DISTINCT uid FROM (
            SELECT u AS uid FROM ver_anchor
            UNION ALL SELECT v FROM ver_anchor)
    ),
    -- ---- member assignment ----------------------------------------------
    repinfo AS (
        SELECT r.url, m.uid, c.root, (s.uid IS NOT NULL) AS is_sub
        FROM reps r
        JOIN uidmap m USING (url)
        LEFT JOIN comp c ON c.uid = m.uid
        LEFT JOIN subu s ON s.uid = m.uid
    ),
    assign AS (
        SELECT mb.url,
               coalesce(ri.root, ri.uid) AS canon,
               CASE WHEN ri.root IS NOT NULL AND ri.is_sub THEN 'substring'
                    WHEN ri.root IS NOT NULL THEN 'near'
                    WHEN mb.exact_size > 1 THEN 'exact'
                    ELSE 'unique' END AS match_kind
        FROM members mb JOIN repinfo ri ON ri.url = mb.rep_url
    )
    SELECT url,
           substr(md5(min(url) OVER pc), 1, 16) AS cluster_id,
           min(url) OVER pc AS keeper_url,
           url = min(url) OVER pc AS is_keeper,
           CASE WHEN url = min(url) OVER pc THEN 'keep' ELSE 'drop' END
               AS action,
           match_kind
    FROM assign
    WINDOW pc AS (PARTITION BY canon)
    """
