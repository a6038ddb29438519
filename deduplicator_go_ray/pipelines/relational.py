"""Reference-operator analogues as registry queries with DuckDB oracles.

Each query is the Ray-Data-native restatement of an operator from
SURVEY.md §2, run over the driver's read-only testdata tables.  The
``documents`` table plays the reference's ``files`` table (doc_id ≙ id,
``n_chars`` ≙ size, md5(text) ≙ hash); ``source`` ≙ hostname; the
reference citation for each query names the operator it mirrors.

Design rules (scale-first):

* column pruning at the read — never load ``text`` for a size-only query;
* aggregates via ``groupby().aggregate()`` (Ray pre-combines per block —
  the partial-aggregation pattern) or ``grouped_apply`` (one hash shuffle,
  vectorized per-partition pandas);
* small sides broadcast (``ray.put`` once) instead of shuffled joins;
* value-hash parity with DuckDB: money stays integer cents, ratios stay
  integer permille — no float-summation-order hazards.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min, Sum

from ..functions.hashing import md5_hex
from ..stages.common import grouped_apply
from ..stages.joins import broadcast_lookup, broadcast_semi_filter
from .registry import register


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


# --------------------------------------------------------------------------
# A2/M6 — duplicate-size candidate groups (files/hash.go:37-48)
# --------------------------------------------------------------------------

def dup_size_groups(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["n_chars"])
    agg = docs.groupby("n_chars").aggregate(
        Count(alias_name="cnt"), Sum("n_chars", alias_name="total_size")
    )
    agg = agg.filter(expr="cnt > 1")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({
            "size": t["n_chars"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "total_size": pc.cast(t["total_size"], pa.int64()),
        })

    return agg.map_batches(rename, batch_format="pyarrow")


register(
    "dup_size_groups",
    dup_size_groups,
    """
    SELECT n_chars AS size, COUNT(*) AS cnt,
           CAST(SUM(n_chars) AS BIGINT) AS total_size
    FROM documents GROUP BY n_chars HAVING COUNT(*) > 1
    """,
)


# --------------------------------------------------------------------------
# A1 — exact dup grouping GROUP BY (hash, size) HAVING COUNT(*)>1
# (files/utils.go:67-95); md5(text) ≙ the content hash
# --------------------------------------------------------------------------

def exact_dup_groups(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["text", "n_chars"])

    def hash_stage(t: pa.Table) -> pa.Table:
        return pa.table({
            "hash": pa.array(md5_hex(t["text"].to_pylist()), pa.string()),
            "size": pc.cast(t["n_chars"], pa.int64()),
        })

    hashed = docs.map_batches(hash_stage, batch_format="pyarrow")
    agg = hashed.groupby(["hash", "size"]).aggregate(
        Count(alias_name="cnt"), Sum("size", alias_name="total_size")
    )
    agg = agg.filter(expr="cnt > 1")
    out = agg.map_batches(
        lambda t: pa.table({
            "hash": t["hash"],
            "size": t["size"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "total_size": pc.cast(t["total_size"], pa.int64()),
        }),
        batch_format="pyarrow",
    )
    # a legitimately-empty result loses its schema through the shuffle;
    # pin it so the driver's schema compare still sees the columns
    # (≙ the reference's zero-dup early exits printing an empty report)
    df = out.to_pandas()
    if df.empty:
        df = pd.DataFrame({
            "hash": pd.Series(dtype=str), "size": pd.Series(dtype="int64"),
            "cnt": pd.Series(dtype="int64"), "total_size": pd.Series(dtype="int64"),
        })
    return df


register(
    "exact_dup_groups",
    exact_dup_groups,
    """
    SELECT md5(text) AS hash, n_chars AS size,
           COUNT(*) AS cnt, CAST(SUM(n_chars) AS BIGINT) AS total_size
    FROM documents GROUP BY 1, 2 HAVING COUNT(*) > 1
    """,
)


# --------------------------------------------------------------------------
# A1 variant with live groups: 64-char-prefix fingerprint dup groups —
# same grouping shape, non-empty at every sf.
# --------------------------------------------------------------------------

def prefix_dup_groups(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["text"])

    def hash_stage(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        return pa.table({
            "hash": pa.array(md5_hex([x[:64] for x in texts]), pa.string()),
        })

    hashed = docs.map_batches(hash_stage, batch_format="pyarrow")
    agg = hashed.groupby("hash").aggregate(Count(alias_name="cnt"))
    agg = agg.filter(expr="cnt > 1")
    return agg.map_batches(
        lambda t: pa.table({"hash": t["hash"], "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow",
    )


register(
    "prefix_dup_groups",
    prefix_dup_groups,
    """
    SELECT md5(substr(text, 1, 64)) AS hash, COUNT(*) AS cnt
    FROM documents GROUP BY 1 HAVING COUNT(*) > 1
    """,
)


# --------------------------------------------------------------------------
# J1 — dup-group member fetch: one shuffle does group + members
# (files/utils.go:97-107)
# --------------------------------------------------------------------------

def dup_members(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def members(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("n_chars")["doc_id"].transform("size")
        out = df[cnt > 1].copy()
        out["cnt"] = cnt[cnt > 1].astype("int64")
        return pd.DataFrame({
            "doc_id": out["doc_id"],
            "size": out["n_chars"].astype("int64"),
            "cnt": out["cnt"],
        })

    return grouped_apply(docs, ["n_chars"], members)


register(
    "dup_members",
    dup_members,
    """
    WITH g AS (SELECT n_chars, COUNT(*) AS cnt FROM documents
               GROUP BY n_chars HAVING COUNT(*) > 1)
    SELECT d.doc_id AS doc_id, d.n_chars AS size, g.cnt AS cnt
    FROM documents d JOIN g USING (n_chars)
    """,
)


# --------------------------------------------------------------------------
# O1/O2 — top-k dup groups by total_size with deterministic tiebreak
# (files/utils.go:89-107)
# --------------------------------------------------------------------------

def topk_groups(sf_dir: str) -> "ray.data.Dataset":
    groups = dup_size_groups(sf_dir)
    return groups.sort(["total_size", "size"], descending=[True, False]).limit(10)


register(
    "topk_groups",
    topk_groups,
    """
    SELECT n_chars AS size, COUNT(*) AS cnt,
           CAST(SUM(n_chars) AS BIGINT) AS total_size
    FROM documents GROUP BY n_chars HAVING COUNT(*) > 1
    ORDER BY total_size DESC, size ASC LIMIT 10
    """,
)


# --------------------------------------------------------------------------
# A4 — reclaimable-savings accumulator size*(copies-1)
# (files/utils.go:181-188, files/dedupe.go:96-99)
# --------------------------------------------------------------------------

def savings(sf_dir: str) -> pa.Table:
    groups = dup_size_groups(sf_dir)

    def per_group(t: pa.Table) -> pa.Table:
        sz = np.asarray(t["size"], dtype=np.int64)
        cnt = np.asarray(t["cnt"], dtype=np.int64)
        return pa.table({"part": pa.array(sz * (cnt - 1), pa.int64())})

    total = groups.map_batches(per_group, batch_format="pyarrow").sum("part")
    return pa.table({"reclaimable": pa.array([int(total or 0)], pa.int64())})


register(
    "savings",
    savings,
    """
    SELECT CAST(COALESCE(SUM(n_chars * (cnt - 1)), 0) AS BIGINT) AS reclaimable
    FROM (SELECT n_chars, COUNT(*) AS cnt FROM documents
          GROUP BY n_chars HAVING COUNT(*) > 1)
    """,
)


# --------------------------------------------------------------------------
# M3 — min-size predicate on dup groups (files/utils.go:77-81)
# --------------------------------------------------------------------------

def min_size_groups(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["n_chars"]).filter(expr="n_chars >= 300")
    agg = docs.groupby("n_chars").aggregate(Count(alias_name="cnt"))
    agg = agg.filter(expr="cnt > 1")
    return agg.map_batches(
        lambda t: pa.table({
            "size": t["n_chars"], "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow",
    )


register(
    "min_size_groups",
    min_size_groups,
    """
    SELECT n_chars AS size, COUNT(*) AS cnt FROM documents
    WHERE n_chars >= 300 GROUP BY n_chars HAVING COUNT(*) > 1
    """,
)


# --------------------------------------------------------------------------
# D1/D3 — keeper assignment: keeper = min(doc_id) per dup group, a pure
# function of group content (files/move.go:226-236)
# --------------------------------------------------------------------------

def keeper_assignments(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        grp = df.groupby("n_chars")["doc_id"]
        cnt = grp.transform("size")
        keeper = grp.transform("min")
        out = df[cnt > 1]
        keeper = keeper[cnt > 1]
        return pd.DataFrame({
            "doc_id": out["doc_id"],
            "size": out["n_chars"].astype("int64"),
            "keeper_id": keeper.astype("int64"),
            "is_keeper": out["doc_id"] == keeper,
        })

    return grouped_apply(docs, ["n_chars"], resolve)


register(
    "keeper_assignments",
    keeper_assignments,
    """
    WITH g AS (SELECT n_chars FROM documents GROUP BY n_chars HAVING COUNT(*) > 1)
    SELECT d.doc_id AS doc_id, d.n_chars AS size,
           MIN(d.doc_id) OVER (PARTITION BY d.n_chars) AS keeper_id,
           d.doc_id = MIN(d.doc_id) OVER (PARTITION BY d.n_chars) AS is_keeper
    FROM documents d JOIN g USING (n_chars)
    """,
)


# --------------------------------------------------------------------------
# D5 — keep-first prune: first row per key wins (files/prune.go:122,175-204)
# --------------------------------------------------------------------------

def keep_first(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    agg = docs.groupby("n_chars").aggregate(
        Min("doc_id", alias_name="keeper_id"), Count(alias_name="cnt")
    )
    return agg.map_batches(
        lambda t: pa.table({
            "size": t["n_chars"],
            "keeper_id": pc.cast(t["keeper_id"], pa.int64()),
            "cnt": pc.cast(t["cnt"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


register(
    "keep_first",
    keep_first,
    """
    SELECT n_chars AS size, MIN(doc_id) AS keeper_id, COUNT(*) AS cnt
    FROM documents GROUP BY n_chars
    """,
)


# --------------------------------------------------------------------------
# J3/S4 — import anti-join: src0 rows whose content key is absent from
# src1 (files/import.go:269-281) — broadcast key set, no shuffle
# --------------------------------------------------------------------------

BROADCAST_MAX_KEYS = 1_000_000


def import_anti_join(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    target = docs.filter(expr="source == 'src1'")
    candidates = docs.filter(expr="source == 'src0'")
    target_keys = target.select_columns(["n_chars"]).materialize()
    if target_keys.count() <= BROADCAST_MAX_KEYS:
        # small side: distinct target keys, collected once and broadcast
        existing = {r["n_chars"] for r in target_keys.take_all()}
        return broadcast_semi_filter(candidates, "n_chars", existing,
                                     anti=True).select_columns(["doc_id"])
    # large target: keyed-shuffle anti-join — nothing broadcast,
    # nothing on the driver (the scale twin; equality-tested)
    from ..stages.joins import hash_join
    return hash_join(candidates, target_keys, "n_chars", "left anti",
                     post_fn=lambda t: t.select(["doc_id"]))


register(
    "import_anti_join",
    import_anti_join,
    """
    SELECT d.doc_id AS doc_id FROM documents d
    WHERE d.source = 'src0' AND NOT EXISTS (
        SELECT 1 FROM documents t
        WHERE t.source = 'src1' AND t.n_chars = d.n_chars)
    """,
)


# --------------------------------------------------------------------------
# Q3 — delete-by-id, re-expressed as a batch mutation
# (cmd/server.go:356-408): the serving point-delete becomes a plan over
# a request set plus an anti-join survivor dataset.  The reference's
# LOWER(hostname) guard maps to the request's source scope: a row whose
# source differs is invisible to the request and reports not_found
# (exactly the reference's no-rows branch); a visible row reports
# deleted with its reclaimed byte count (the FS-removal half of the
# reference is the survivor write, exercised in tests).
# --------------------------------------------------------------------------

DELETE_REQ_MOD = 7
DELETE_REQ_MAX = 200
DELETE_REQ_SOURCE = "src0"
# ids past any corpus: the reference's 404 branch
DELETE_REQ_MISSING = (1_000_000_000, 1_000_000_001, 1_000_000_002)


def _delete_request_ids() -> list[int]:
    return (list(range(0, DELETE_REQ_MAX, DELETE_REQ_MOD))
            + list(DELETE_REQ_MISSING))


def delete_plan(sf_dir: str) -> pd.DataFrame:
    """Per requested id: status ``deleted`` (row exists in the request's
    source scope) or ``not_found`` (absent, or scope mismatch), with the
    reclaimed byte count.  The tiny request set is broadcast; one
    column-pruned map pass over the corpus collects the hits."""
    req = _delete_request_ids()
    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    wanted = ray.put(np.array(sorted(req), dtype=np.int64))

    def hits(t: pa.Table) -> pa.Table:
        w = ray.get(wanted)
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        keep = np.isin(ids, w)              # vectorized membership probe
        kept = t.filter(pa.array(keep))
        nb = pc.binary_length(pc.cast(kept["text"], pa.binary()))
        return pa.table({
            "doc_id": kept["doc_id"],
            "source": kept["source"],
            "n_bytes": pc.cast(nb, pa.int64()),
        })

    hit = docs.map_batches(hits, batch_format="pyarrow").to_pandas()
    by_id = {int(r.doc_id): r for r in hit.itertuples()}
    rows = []
    for i in req:
        r = by_id.get(i)
        ok = r is not None and r.source == DELETE_REQ_SOURCE
        rows.append({"doc_id": i,
                     "status": "deleted" if ok else "not_found",
                     "freed_bytes": int(r.n_bytes) if ok else 0})
    return (pd.DataFrame(rows)
            .astype({"doc_id": "int64", "freed_bytes": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def delete_survivors(docs: "ray.data.Dataset",
                     plan: pd.DataFrame) -> "ray.data.Dataset":
    """The mutation half: corpus minus the plan's deleted ids (broadcast
    anti semi-filter — deletion sets are tiny next to the corpus).
    Idempotent: re-applying the same plan is a no-op."""
    deleted = set(plan.loc[plan["status"] == "deleted", "doc_id"].tolist())
    return broadcast_semi_filter(docs, "doc_id", deleted, anti=True)


_DELETE_REQ_VALUES = ", ".join(f"({i})" for i in _delete_request_ids())

register(
    "delete_plan",
    delete_plan,
    f"""
    WITH req(doc_id) AS (VALUES {_DELETE_REQ_VALUES}),
    hit AS (
        SELECT r.doc_id, d.source, octet_length(encode(d.text)) AS nb
        FROM req r LEFT JOIN documents d
          ON d.doc_id = r.doc_id AND d.source = '{DELETE_REQ_SOURCE}'
    )
    SELECT doc_id,
           CASE WHEN source IS NOT NULL THEN 'deleted'
                ELSE 'not_found' END AS status,
           coalesce(nb, 0) AS freed_bytes
    FROM hit
    """,
)


# --------------------------------------------------------------------------
# D6/J5 — mirror set-completion planning: per dup key, how many sources
# hold it vs are missing it (files/group_mirror.go:281-366, mirror.go:46-128)
# --------------------------------------------------------------------------

def mirror_plan(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["source", "n_chars"])
    n_sources = len({r["source"] for r in
                     docs.groupby("source").count().select_columns(["source"]).take_all()})

    def plan(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_chars")["source"]
        agg = g.agg(cnt="size", present_cnt="nunique").reset_index()
        agg = agg[agg["cnt"] > 1]
        return pd.DataFrame({
            "size": agg["n_chars"].astype("int64"),
            "present_cnt": agg["present_cnt"].astype("int64"),
            "missing_cnt": (n_sources - agg["present_cnt"]).astype("int64"),
        })

    return grouped_apply(docs, ["n_chars"], plan)


register(
    "mirror_plan",
    mirror_plan,
    """
    SELECT n_chars AS size,
           COUNT(DISTINCT source) AS present_cnt,
           (SELECT COUNT(DISTINCT source) FROM documents) - COUNT(DISTINCT source)
               AS missing_cnt
    FROM documents GROUP BY n_chars HAVING COUNT(*) > 1
    """,
)


# --------------------------------------------------------------------------
# Q1 — substring search with top-k paging (cmd/server.go:299-354)
# --------------------------------------------------------------------------

def substring_search(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def match(t: pa.Table) -> pa.Table:
        mask = pc.match_substring(t["text"], "merge batch")
        kept = t.filter(mask)
        return pa.table({
            "doc_id": kept["doc_id"],
            "size": pc.cast(kept["n_chars"], pa.int64()),
        })

    return docs.map_batches(match, batch_format="pyarrow").sort(
        "doc_id", descending=True).limit(100)


register(
    "substring_search",
    substring_search,
    """
    SELECT doc_id, n_chars AS size FROM documents
    WHERE text LIKE '%merge batch%' ORDER BY doc_id DESC LIMIT 100
    """,
)


# --------------------------------------------------------------------------
# A3 — per-key counts (files/hash.go:207-212, group_mirror.go:222-234)
# --------------------------------------------------------------------------

def lang_counts(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    agg = docs.groupby("lang").aggregate(
        Count(alias_name="cnt"), Sum("n_chars", alias_name="total_chars")
    )
    return agg.map_batches(
        lambda t: pa.table({
            "lang": t["lang"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "total_chars": pc.cast(t["total_chars"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


register(
    "lang_counts",
    lang_counts,
    """
    SELECT lang, COUNT(*) AS cnt, CAST(SUM(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang
    """,
)


# --------------------------------------------------------------------------
# M4 — age predicate (files/import.go:149-157) over the events table
# --------------------------------------------------------------------------

_AGE_CUTOFF_US = 1_705_276_800_000_000  # 2024-01-15T00:00:00Z in epoch µs


def age_filter(sf_dir: str) -> "ray.data.Dataset":
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def old_only(t: pa.Table) -> pa.Table:
        cutoff = pa.scalar(_AGE_CUTOFF_US, pa.timestamp("us"))
        return t.filter(pc.less(t["ts"], cutoff))

    agg = ev.map_batches(old_only, batch_format="pyarrow").groupby(
        "event_type").aggregate(Count(alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({
            "event_type": t["event_type"], "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow",
    )


register(
    "age_filter",
    age_filter,
    """
    SELECT event_type, COUNT(*) AS cnt FROM events
    WHERE ts < TIMESTAMP '2024-01-15 00:00:00' GROUP BY event_type
    """,
)


# --------------------------------------------------------------------------
# O3 — --large-first work ordering (files/hash.go:109-123)
# --------------------------------------------------------------------------

def large_first(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = docs.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)
    return out.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"], "size": pc.cast(t["n_chars"], pa.int64())}),
        batch_format="pyarrow",
    )


register(
    "large_first",
    large_first,
    """
    SELECT doc_id, n_chars AS size FROM documents
    ORDER BY n_chars DESC, doc_id ASC LIMIT 20
    """,
)


# --------------------------------------------------------------------------
# O6/O7 — deterministic dev-scale sampling / count caps (files/utils.go:17-27)
# --------------------------------------------------------------------------

def sample_head(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return docs.sort("doc_id").limit(100)


register(
    "sample_head",
    sample_head,
    """
    SELECT doc_id, lang, n_chars FROM documents ORDER BY doc_id ASC LIMIT 100
    """,
)


# --------------------------------------------------------------------------
# J4 — broadcast dim join: customer ⋈ nation ⋈ region rollup
# (files/group_dedup.go:99-101: tiny dim broadcast into the fact scan)
# --------------------------------------------------------------------------

def region_customers(sf_dir: str) -> "ray.data.Dataset":
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).take_all()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).take_all()
    r_name = {r["r_regionkey"]: r["r_name"] for r in region}
    nation_to_region = {n["n_nationkey"]: r_name[n["n_regionkey"]] for n in nation}

    cust = _read(sf_dir, "customer", ["c_nationkey"])
    enriched = broadcast_lookup(
        cust, "c_nationkey", nation_to_region, "region_name", out_type=pa.string())
    agg = enriched.groupby("region_name").aggregate(Count(alias_name="customers"))
    return agg.map_batches(
        lambda t: pa.table({
            "region_name": t["region_name"],
            "customers": pc.cast(t["customers"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


register(
    "region_customers",
    region_customers,
    """
    SELECT r.r_name AS region_name, COUNT(*) AS customers
    FROM customer c
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY r.r_name
    """,
)


# --------------------------------------------------------------------------
# wide-aggregate demo: pricing summary over lineitem (partial aggregation
# inside map_batches before a small groupby — the combiner pattern).
# Money is integer cents end-to-end: value-hash-safe vs DuckDB.
# --------------------------------------------------------------------------

def pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "l_returnflag": t["l_returnflag"].to_pylist(),
            "l_linestatus": t["l_linestatus"].to_pylist(),
            "qty": np.asarray(t["l_quantity"], dtype=np.float64).astype(np.int64),
            "price_cents": np.rint(
                np.asarray(t["l_extendedprice"], dtype=np.float64) * 100
            ).astype(np.int64),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            cnt=("qty", "size"), sum_qty=("qty", "sum"),
            sum_price_cents=("price_cents", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = li.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("cnt", alias_name="cnt"),
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price_cents", alias_name="sum_price_cents"),
    )
    return agg.map_batches(
        lambda t: pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "sum_qty": pc.cast(t["sum_qty"], pa.int64()),
            "sum_price_cents": pc.cast(t["sum_price_cents"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


register(
    "pricing_summary",
    pricing_summary,
    """
    SELECT l_returnflag, l_linestatus, COUNT(*) AS cnt,
           CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
)


# --------------------------------------------------------------------------
# time-bucketed aggregate over the events stream table
# --------------------------------------------------------------------------

def events_daily(sf_dir: str) -> "ray.data.Dataset":
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        df = pd.DataFrame({
            "event_type": t["event_type"].to_pylist(),
            "day": day.to_pandas(),
            "value_cents": np.rint(
                np.asarray(t["value"], dtype=np.float64) * 100).astype(np.int64),
        })
        g = df.groupby(["event_type", "day"], sort=False).agg(
            cnt=("value_cents", "size"),
            sum_value_cents=("value_cents", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ev.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["event_type", "day"]).aggregate(
        Sum("cnt", alias_name="cnt"),
        Sum("sum_value_cents", alias_name="sum_value_cents"),
    )

    def clean(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "day": pc.cast(t["day"], pa.timestamp("us")),
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "sum_value_cents": pc.cast(t["sum_value_cents"], pa.int64()),
        })

    return agg.map_batches(clean, batch_format="pyarrow")


register(
    "events_daily",
    events_daily,
    """
    SELECT event_type, date_trunc('day', ts) AS day, COUNT(*) AS cnt,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
    FROM events GROUP BY 1, 2
    """,
)


# --------------------------------------------------------------------------
# O6 — deterministic sampling (≙ the dev-mode LIMIT sampling,
# files/utils.go:17-27 — made reproducible: modulo key selection)
# --------------------------------------------------------------------------

def sample_mod(sf_dir: str) -> "ray.data.Dataset":
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        return t.filter(pa.array(ids % 10 == 0))

    return docs.map_batches(pick, batch_format="pyarrow")


register(
    "sample_mod",
    sample_mod,
    """
    SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 10 = 0
    """,
)
