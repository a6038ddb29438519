"""SQL-generation helpers for the DuckDB hash-kernel oracles.

The engine's hash kernels (splitmix64, crc32, mod-2^64 polynomial
rolling hashes — functions/hashing.py) are re-derived in pure SQL so
the driver's DuckDB oracle can hash-check queries whose values depend
on them (``doc_fingerprints``, ``simhash_pairs``, ``minhash_lsh_pairs``).
Only *algorithm constants* are embedded as literals (the CRC-32/IEEE
byte table, power tables of the rolling base, the splitmix64 / golden
multipliers) — the same status as a regex pattern in other oracles;
everything data-dependent is computed by DuckDB from the parquet.

Arithmetic rules that keep HUGEINT (int128) exact under mod-2^64:

* 64×64-bit multiply mod 2^64 by a *constant* splits the constant into
  32-bit halves: ``x*lo + (x % 2^32)*hi*2^32`` — every intermediate
  < 2^97, well inside int128.
* splitmix64 runs as a chain of single-reference CTE projections; a
  nested string-template would duplicate each subexpression ~16× and
  DuckDB cannot CSE across the blow-up.
"""

from __future__ import annotations

MIX_MUL1 = 0xBF58476D1CE4E5B9
MIX_MUL2 = 0x94D049BB133111EB
GOLDEN = 0x9E3779B97F4A7C15
M64 = 1 << 64
U64_MOD = "18446744073709551616::HUGEINT"


def mul64_const(x: str, mul: int) -> str:
    """SQL expr: ``(x * mul) mod 2^64`` for a constant ``mul``."""
    lo, hi = mul & 0xFFFFFFFF, mul >> 32
    return (f"(({x}) * {lo}::HUGEINT + (({x}) % 4294967296) * "
            f"{hi}::HUGEINT * 4294967296::HUGEINT) % {U64_MOD}")


def mix64_ctes(prefix: str, src: str, cols: str, xin: str) -> str:
    """CTE chain applying the splitmix64 finalizer to expression ``xin``
    over rows of ``src``; the final CTE ``{prefix}5`` carries ``{cols}``
    plus the mixed value as ``x``."""
    return f"""
    {prefix}0 AS (SELECT {cols}, {xin} AS x FROM {src}),
    {prefix}1 AS (SELECT {cols}, xor(x, x >> 30) AS x FROM {prefix}0),
    {prefix}2 AS (SELECT {cols}, {mul64_const('x', MIX_MUL1)} AS x FROM {prefix}1),
    {prefix}3 AS (SELECT {cols}, xor(x, x >> 27) AS x FROM {prefix}2),
    {prefix}4 AS (SELECT {cols}, {mul64_const('x', MIX_MUL2)} AS x FROM {prefix}3),
    {prefix}5 AS (SELECT {cols}, xor(x, x >> 31) AS x FROM {prefix}4)"""


def crc32_list_sql() -> str:
    """The CRC-32/IEEE byte table as a SQL list literal (1-indexed)."""
    tbl = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        tbl.append(c)
    return "[" + ",".join(str(c) for c in tbl) + "]"


def pow_list_sql(base: int, k: int) -> str:
    """``[base^0, .., base^(k-1)] mod 2^64`` as a HUGEINT list literal."""
    return ("[" + ",".join(f"{pow(base, e, M64)}::HUGEINT" for e in range(k))
            + "]")


def u64_bigint(expr: str) -> str:
    """Bit-view a mod-2^64 HUGEINT value as BIGINT (matches the numpy
    ``.view(np.int64)`` transport convention on the Ray side)."""
    return (f"CAST(CASE WHEN ({expr}) >= 9223372036854775808::HUGEINT "
            f"THEN ({expr}) - {U64_MOD} ELSE ({expr}) END AS BIGINT)")


def bytes_cte(src: str = "documents", text_col: str = "text",
              id_col: str = "doc_id") -> str:
    """CTEs ``hx`` + ``dbytes``: explode each row's utf-8 bytes to
    (id, n, p, b) rows — byte value ``b`` at 1-based position ``p`` of
    ``n`` total — via hex digits (DuckDB has no direct blob indexing)."""
    return f"""
    hx AS (
        SELECT {id_col}, upper(hex(encode({text_col}))) AS h,
               octet_length(encode({text_col})) AS n
        FROM {src}
    ),
    dbytes AS (
        SELECT {id_col}, n, p,
               (strpos('0123456789ABCDEF', substr(h, 2*p-1, 1)) - 1) * 16
             + (strpos('0123456789ABCDEF', substr(h, 2*p,   1)) - 1) AS b
        FROM hx, LATERAL (SELECT unnest(generate_series(1, n)) AS p) _
        WHERE n > 0
    )"""


ROLL_BASE = 1000000007


def hash64_seed(seed: int) -> int:
    """The widened seed ``hash64_str`` mixes into each string's length
    (functions/hashing.py:_hash64_pass)."""
    return (seed * GOLDEN + 0xA5A5A5A5A5A5A5A5) % M64


def roll_poly_cte(name: str, id_col: str, k: int,
                  where: str | None = None) -> str:
    """CTE computing all ``k``-byte rolling polynomial window hashes
    (pre-mix) from a ``dbytes`` CTE: byte ``b`` at position ``p``
    contributes ``b·base^(k-1-p+w)`` to window ``w`` — a byte×window
    contribution join, grouped per window.  ``where`` defaults to the
    minimum-length condition ``n >= k``; pass a stricter predicate to
    also gate row eligibility (e.g. the anchor pass's 200-byte floor).
    Feed the result through :func:`mix64_ctes` for the finalized
    hashes."""
    pow_list = pow_list_sql(ROLL_BASE, k)
    cond = where if where is not None else f"n >= {k}"
    return f"""
    {name} AS (
        SELECT {id_col}, w,
               sum(b::HUGEINT * ({pow_list})[({k} - 1 - p + w) + 1])
                 % {U64_MOD} AS poly
        FROM dbytes,
             LATERAL (SELECT unnest(generate_series(greatest(1, p - {k - 1}),
                                                    least(n - {k - 1}, p))) AS w) _
        WHERE {cond}
        GROUP BY {id_col}, w
    )"""


def oph_sig_ctes(id_col: str, shingle_k: int = 9, num_perms: int = 128) -> str:
    """CTE block computing the densified OPH MinHash signature table
    ``sig`` (``{id_col}``, slot ``j`` 0..P-1, value ``v`` HUGEINT) from
    a ``dbytes`` CTE (see :func:`bytes_cte`) — the SQL twin of
    ``SignatureStage._minhash_all`` over char shingles:

    * shingles: ``shingle_k``-byte rolling polynomial window hashes
      (splitmix64-finalized); rows shorter than ``shingle_k`` bytes
      fall back to ``hash64_str(text, seed=1)``;
    * one-permutation hashing: bucket = top bits, per-(row, bucket)
      minimum; rotation densification borrows from the nearest occupied
      bucket circularly right, salted by distance — the doubled-index
      reverse window ``min``.

    Emits CTE names rollp/rm*/tinyp/lm*/tm*/shingles/oph/grid/slots0/
    nxt/borrow/bm*/sig — callers must not reuse them.
    """
    k, perms = shingle_k, num_perms
    shift = 64 - perms.bit_length() + 1
    pow_list = pow_list_sql(ROLL_BASE, k)
    sd1 = hash64_seed(1)

    return f"""
    {roll_poly_cte('rollp', id_col, k)},
    {mix64_ctes('rm', 'rollp', id_col + ', w', 'poly')},
    tinyp AS (  -- 0 < n < {k}: hash64_str(text, seed=1) single shingle
        SELECT {id_col}, any_value(n) AS n,
               sum(b::HUGEINT * ({pow_list})[(n - p) + 1]) % {U64_MOD} AS poly
        FROM dbytes WHERE n < {k}
        GROUP BY {id_col}
    ),
    {mix64_ctes('lm', 'tinyp', id_col + ', poly',
                f'(n + {sd1}::HUGEINT) % {U64_MOD}')},
    {mix64_ctes('tm', 'lm5', id_col, 'xor(poly, x)')},
    shingles AS MATERIALIZED (
        SELECT {id_col}, x AS sh FROM rm5
        UNION ALL
        SELECT {id_col}, x AS sh FROM tm5
    ),
    oph AS MATERIALIZED (
        SELECT {id_col}, (sh >> {shift})::BIGINT AS bucket, min(sh) AS mn
        FROM shingles GROUP BY {id_col}, bucket
    ),
    grid AS (
        SELECT {id_col}, j
        FROM (SELECT DISTINCT {id_col} FROM shingles) e,
             LATERAL (SELECT unnest(generate_series(0, {perms - 1})) AS j) _
    ),
    slots0 AS MATERIALIZED (
        SELECT g.{id_col}, g.j, o.mn
        FROM grid g LEFT JOIN oph o
          ON o.{id_col} = g.{id_col} AND o.bucket = g.j
    ),
    nxt AS (  -- doubled index space; reverse window min finds the
              -- nearest occupied bucket at or after j (circular)
        SELECT {id_col}, jj,
               min(CASE WHEN mn IS NOT NULL THEN jj END)
                 OVER (PARTITION BY {id_col} ORDER BY jj
                       ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nx
        FROM (SELECT {id_col}, j + {perms} * dup AS jj, mn
              FROM slots0, (VALUES (0), (1)) d(dup))
    ),
    borrow AS (  -- empty slot j borrows the pre-densified min at src
        SELECT s.{id_col}, s.j,
               (o.mn + (n.nx - s.j)::HUGEINT) % {U64_MOD} AS bx
        FROM slots0 s
        JOIN nxt n ON n.{id_col} = s.{id_col} AND n.jj = s.j
        JOIN oph o ON o.{id_col} = s.{id_col} AND o.bucket = (n.nx % {perms})
        WHERE s.mn IS NULL
    ),
    {mix64_ctes('bm', 'borrow', id_col + ', j', 'bx')},
    sig AS MATERIALIZED (
        SELECT {id_col}, j, mn AS v FROM slots0 WHERE mn IS NOT NULL
        UNION ALL
        SELECT {id_col}, j, x AS v FROM bm5
    )"""


def simhash_sig_ctes(id_col: str, src: str, text_col: str,
                     seed: int = 42) -> str:
    """CTE block computing the 64-bit SimHash per row of ``src`` as CTE
    ``simh`` (``{id_col}``, ``simhash`` HUGEINT; tokenless rows get 0)
    — the SQL twin of ``SignatureStage._simhash_all``: tokenize the
    lowercased text with ``[\\p{{L}}\\p{{N}}_]+`` (Python's unicode
    ``\\w`` — combining marks are NOT word characters, so ``\\p{{M}}``
    must stay out or NFD text tokenizes differently), hash each token
    (crc32 + charlen·2^32 + seed → splitmix64), majority-vote the 64
    bit positions.

    Parity caveat: Python's ``str.lower`` and DuckDB's utf8proc
    lowercase disagree on a handful of special casings (e.g. ``İ`` →
    ``i`` + combining dot vs plain ``i``), so exact parity assumes text
    without such characters — trivially true for the ASCII oracle
    corpus; NFC/NFD latin, digits, CJK and punctuation were fuzzed
    clean.

    Emits CTE names toks/tb/tcrc/sm*/simbits/simh — callers must not
    reuse them.  Row eligibility is the caller's concern (``simh``
    covers every ``src`` row).
    """
    crc_list = crc32_list_sql()
    word = r"[\p{L}\p{N}_]+"
    return f"""
    toks AS (
        SELECT {id_col}, t.tok
        FROM {src},
             LATERAL (SELECT unnest(regexp_extract_all(lower({text_col}),
                                    '{word}')) AS tok) t
    ),
    tb AS (
        SELECT {id_col}, length(tok) AS clen,
               list_transform(generate_series(1, octet_length(encode(tok))),
                 p -> (strpos('0123456789ABCDEF',
                              substr(upper(hex(encode(tok))), 2*p-1, 1)) - 1) * 16
                    + (strpos('0123456789ABCDEF',
                              substr(upper(hex(encode(tok))), 2*p,   1)) - 1)) AS bs
        FROM toks
    ),
    tcrc AS (
        SELECT {id_col}, clen,
               xor(list_reduce(list_prepend(4294967295::BIGINT, bs),
                       (acc, x) -> xor({crc_list}[((xor(acc, x)) & 255) + 1],
                                       acc >> 8)),
                   4294967295::BIGINT) AS crc
        FROM tb
    ),
    {mix64_ctes('sm', 'tcrc', id_col,
                f'(crc::HUGEINT + clen::HUGEINT * 4294967296::HUGEINT '
                f'+ {seed}) % {U64_MOD}')},
    simbits AS (
        SELECT {id_col}, j, sum(((x >> j) & 1)::BIGINT) AS cnt,
               count(*) AS n
        FROM sm5, LATERAL (SELECT unnest(generate_series(0, 63)) AS j) _
        GROUP BY {id_col}, j
    ),
    simh AS MATERIALIZED (
        SELECT s.{id_col}, coalesce(agg.simhash, 0::HUGEINT) AS simhash
        FROM {src} s LEFT JOIN (
            SELECT {id_col}, sum(CASE WHEN 2*cnt > n THEN (1::HUGEINT << j)
                                      ELSE 0::HUGEINT END) AS simhash
            FROM simbits GROUP BY {id_col}
        ) agg USING ({id_col})
    )"""


def band_key_ctes(id_col: str, bands: int = 16, rows: int = 8) -> str:
    """CTE block folding the ``sig`` slot table into per-band keys
    (CTE ``bandkeys``: ``{id_col}``, band ``b``, ``band_key`` HUGEINT)
    — the SQL twin of ``combine64`` + the band-index mix of
    ``bucket_rows``: ``acc = mix64(acc·GOLDEN + slot +
    pos)`` unrolled, then ``mix64(acc + 2·band_idx)``.

    Emits CTE names bandp/f{{r}}_*/bk* — callers must not reuse them.
    """
    parts = []
    prev = "bandp"
    for r in range(rows):
        rest = ", ".join(f"s{i}" for i in range(r + 1, rows))
        cols = f"{id_col}, b{', ' + rest if rest else ''}"
        acc = mul64_const("x", GOLDEN) if r else "0::HUGEINT"
        xin = f"(({acc}) + s{r} + {r + 1}) % {U64_MOD}"
        parts.append(mix64_ctes(f"f{r}_", prev, cols, xin))
        prev = f"f{r}_5"
    fold_sql = ",".join(parts)
    slot_pivot = ", ".join(
        f"max(CASE WHEN j % {rows} = {r} THEN v END) AS s{r}"
        for r in range(rows))
    return f"""
    bandp AS (  -- pivot each band's {rows} slots into columns
        SELECT {id_col}, (j // {rows})::BIGINT AS b, {slot_pivot}
        FROM sig GROUP BY {id_col}, j // {rows}
    ),
    {fold_sql},
    {mix64_ctes('bk', prev, id_col + ', b',
                f'(x + 2 * b::HUGEINT) % {U64_MOD}')},
    bandkeys AS (SELECT {id_col}, b, x AS band_key FROM bk5)"""
