"""The flagship's Arrow/numpy reducers against the pandas partition
functions they replaced, kept here as references: the exact, candidate,
gate and keeper reducers, on generated partitions (hypothesis).  Exact
and keeper must match table for table, schema and row order included;
candidate and gate edges as multisets of (u, v, kind)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from deduplicator_go_ray.config import KeeperPolicy
from deduplicator_go_ray.functions.hashing import md5_hex16
from deduplicator_go_ray.pipelines.dedup import _finished, keeper_reduce
from deduplicator_go_ray.stages.buckets import (
    KIND_ANCHOR, KIND_BAND, KIND_SIMHASH, _chain_star_pairs, _popcount,
    candidate_reduce, empty_edges, gate_reduce, uid_arrow)
from deduplicator_go_ray.stages.exact import exact_reduce
from deduplicator_go_ray.stages.keeper import select_keepers

REDUCERS = settings(max_examples=150, deadline=None)


# ---- the pandas references ------------------------------------------------

def _pandas_reduce(fn, t: pa.Table, schema=None) -> pa.Table:
    """``fn`` on ``t`` as the exchange's reduce task runs a pandas
    partition function: to pandas, back to Arrow, cast to ``schema``."""
    out = fn(t.to_pandas())
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
        if schema is not None and not out.schema.equals(schema):
            out = out.cast(schema)
    return out.replace_schema_metadata(None)


def ref_exact(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["text_sha256", "n_bytes", "url"], kind="mergesort")
    grp = df.groupby(["text_sha256", "n_bytes"], sort=False)
    df["rep_url"] = grp["url"].transform("first")
    df["exact_size"] = grp["url"].transform("size").astype("int64")
    df["is_rep"] = df["url"] == df["rep_url"]
    if "text" in df.columns:
        df.loc[~df["is_rep"] & (df["exact_size"] > 1), "text"] = ""
    if "key64" in df.columns:
        df = df.drop(columns="key64")
    return df


def ref_candidates(df: pd.DataFrame, group_cap: int, simhash_hamming: int,
                   anchor_bucket_cap: int, sim_group_cap: int,
                   max_diff: int) -> pd.DataFrame:
    uid_dtype = df["uid"].dtype if len(df) else "int64"
    empty = pd.DataFrame({"u": pd.Series(dtype=uid_dtype),
                          "v": pd.Series(dtype=uid_dtype),
                          "kind": pd.Series(dtype="int8")})
    near: list[pd.DataFrame] = []

    def add_near(rows: pd.DataFrame, pu: np.ndarray, pv: np.ndarray,
                 kind: int) -> None:
        uids = rows["uid"].to_numpy()
        dig = rows[["d0", "d1"]].to_numpy(np.int64)
        x = dig[pu] ^ dig[pv]
        near.append(pd.DataFrame({
            "u": uids[pu], "v": uids[pv],
            "kind": np.full(pu.size, kind, dtype=np.int8),
            "x0": x[:, 0], "x1": x[:, 1]}))

    band = df[df["kind"] == KIND_BAND]
    if len(band):
        band = band.drop_duplicates(["key", "uid"]).sort_values(
            ["key", "uid"], kind="mergesort")
        k = band["key"].to_numpy()
        flags = band["flag"].to_numpy()
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        sizes = np.diff(np.r_[starts, k.size])
        if (sizes > 1).any():
            pu, pv = _chain_star_pairs(sizes, starts, group_cap,
                                       star_allowed=~flags[starts])
            add_near(band, pu, pv, KIND_BAND)

    sim = df[df["kind"] == KIND_SIMHASH]
    if len(sim):
        sim = sim.drop_duplicates(["key", "uid"])
        cnt = sim.groupby("key")["uid"].transform("size")
        sim = sim[(cnt > 1) & (cnt <= sim_group_cap)]
        sim = sim.sort_values(["key", "uid"], kind="mergesort")
        k = sim["key"].to_numpy()
        sh_all = sim["payload"].to_numpy().view(np.uint64)
        gstarts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        gsizes = np.diff(np.r_[gstarts, k.size])
        for s in np.unique(gsizes):
            sel = gstarts[gsizes == s]
            idx = sel[:, None] + np.arange(s)[None, :]
            sh = sh_all[idx]
            iu, jv = np.triu_indices(int(s), 1)
            xor = sh[:, iu] ^ sh[:, jv]
            hd = _popcount(xor.reshape(-1, 1)).reshape(xor.shape)
            keep = hd <= simhash_hamming
            if keep.any():
                add_near(sim, idx[:, iu][keep], idx[:, jv][keep],
                         KIND_SIMHASH)

    outs: list[pd.DataFrame] = []
    if near:
        nr = (pd.concat(near, ignore_index=True)
              .sort_values("kind", kind="mergesort")
              .drop_duplicates(["u", "v"]))
        x = nr[["x0", "x1"]].to_numpy(np.int64).view(np.uint64)
        outs.append(nr.loc[_popcount(x) <= max_diff, ["u", "v", "kind"]])

    anc = df[df["kind"] == KIND_ANCHOR]
    if len(anc):
        anc = anc.drop_duplicates(["key", "uid"])
        shorts = anc[anc["flag"]]
        bucket_sz = anc.groupby("key")["uid"].transform("size")
        longs = anc[bucket_sz <= anchor_bucket_cap]
        m = shorts.merge(longs[["key", "uid", "payload", "d0", "d1"]],
                         on="key", suffixes=("_u", "_v"))
        m = m[(m["payload_u"] < m["payload_v"])
              & ((m["d0_u"] & ~m["d0_v"]) == 0)
              & ((m["d1_u"] & ~m["d1_v"]) == 0)]
        if len(m):
            outs.append(pd.DataFrame({
                "u": m["uid_u"].to_numpy(),
                "v": m["uid_v"].to_numpy(),
                "kind": np.full(len(m), KIND_ANCHOR, dtype=np.int8),
            }).drop_duplicates(["u", "v"]))

    if not outs:
        return empty
    return pd.concat(outs, ignore_index=True)


def ref_gate(df: pd.DataFrame, existing_cap: int) -> pd.DataFrame:
    df = df.drop_duplicates(["key", "uid", "is_ex"])
    ex = df[df["is_ex"]].sort_values(["key", "uid"], kind="mergesort")
    ex = ex[ex.groupby("key").cumcount() < existing_cap]
    pairs = df.loc[~df["is_ex"], ["key", "uid"]].merge(
        ex[["key", "uid"]], on="key", suffixes=("_u", "_v"))
    return pd.DataFrame({
        "u": pairs["uid_u"].to_numpy(), "v": pairs["uid_v"].to_numpy(),
        "kind": np.full(len(pairs), KIND_BAND, np.int8),
    }).drop_duplicates(["u", "v"])


def ref_keeper(df: pd.DataFrame, policy: KeeperPolicy,
               num_partitions: int) -> pa.Table:
    df = df.sort_values(["canonical", "url"], kind="mergesort")
    if policy.policy == "deterministic":
        grp = df.groupby("canonical", sort=False)
        keeper = grp["url"].transform("first")
        df = df.assign(keeper_url=keeper, is_keeper=df["url"] == keeper)
        df["action"] = np.where(df["is_keeper"], "keep", "drop")
    else:
        df = pd.concat([select_keepers(g, policy)
                        for _, g in df.groupby("canonical", sort=False)])
    min_url = df.groupby("canonical", sort=False)["url"].transform("min")
    uniq_min = min_url.unique()
    cids = dict(zip(uniq_min, md5_hex16(list(uniq_min)).to_pylist()))
    return _finished(pa.Table.from_pandas(pd.DataFrame({
        "url": df["url"],
        "cluster_id": min_url.map(cids),
        "keeper_url": df["keeper_url"],
        "is_keeper": df["is_keeper"],
        "action": df["action"],
        "match_kind": df["match_kind"],
        "n_bytes": df["n_bytes"].astype("int64"),
    }), preserve_index=False), num_partitions)


# ---- generated partitions -------------------------------------------------

def _chunked(t: pa.Table, rng, n_chunks: int) -> pa.Table:
    """``t`` as the concatenation of ``n_chunks`` slices, as the reduce
    task receives its partition."""
    cuts = np.sort(rng.integers(0, len(t) + 1, n_chunks - 1))
    bounds = np.r_[0, cuts, len(t)]
    return pa.concat_tables([t.slice(a, b - a)
                             for a, b in zip(bounds[:-1], bounds[1:])])


def _uids(rng, n_docs: int, wide: bool, doc_ids: bool) -> np.ndarray:
    """``n_docs`` distinct uids: 64-bit hashes, small caller doc ids
    (a ``DOC_UID`` input), or 16 bytes — some with trailing NULs, which
    numpy item access would strip."""
    if wide:
        raw = rng.integers(0, 256, (n_docs, 16), dtype=np.uint8)
        raw[::2, 12:] = 0
        raw[:, 0] = np.arange(n_docs)
        return raw.view("S16")[:, 0]
    if doc_ids:
        return rng.permutation(n_docs).astype(np.int64) - n_docs // 2
    return rng.choice(np.arange(-2**40, 2**40, 2**30), n_docs, replace=False)


PARTS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 120),
    "n_keys": st.integers(1, 12),
    "n_docs": st.integers(1, 30),
    "wide": st.booleans(),
    "doc_ids": st.booleans(),
    "n_chunks": st.integers(1, 4),
})


@REDUCERS
@given(PARTS, st.booleans())
def test_exact_reducer_equals_pandas(p, with_text):
    rng = np.random.default_rng(p["seed"])
    n = p["n"]
    shas = np.array([f"{i:064x}" for i in range(p["n_keys"])])
    cols = {
        "url": pa.array([f"https://h{u % 3}.example/{u}"
                         for u in rng.integers(0, p["n_docs"] + 1, n)]),
        "warc_ts": pa.array(rng.integers(0, 10**15, n), pa.timestamp("us")),
        "lang": pa.array(rng.choice(["en", "de", "fr"], n)),
    }
    if with_text:
        cols["text"] = pa.array([f"t{i}" for i in rng.integers(0, 4, n)])
    sha = rng.integers(0, p["n_keys"], n)
    cols["text_sha256"] = pa.array(shas[sha])
    cols["n_bytes"] = pa.array(rng.integers(5, 7, n), pa.int64())
    cols["key64"] = pa.array(sha.astype(np.int64))
    t = _chunked(pa.table(cols), rng, p["n_chunks"])
    got = exact_reduce(t)
    want = _pandas_reduce(ref_exact, t)
    assert got.schema.equals(want.schema)
    assert got.equals(want)


def _bucket_rows(p, kinds: list, flag_frac: float) -> pa.Table:
    """Bucket rows as :func:`~deduplicator_go_ray.stages.buckets.
    bucket_batch` lays them out: per document a fixed simhash, byte
    length, fingerprint and anchor bloom; a band key's rows all flagged
    (a hot, salted bucket) or none; duplicated (key, uid) rows."""
    rng = np.random.default_rng(p["seed"])
    n, nd = p["n"], p["n_docs"]
    uid = _uids(rng, nd, p["wide"], p["doc_ids"])
    # few distinct bit patterns, so some pairs survive every bound
    sh = rng.choice(np.array([0, 1, 3, 7, 2**40 - 1, -1], np.int64), nd)
    nbytes = rng.integers(10, 14, nd)
    dig = rng.choice(np.array([0, 1, 3, 5, -1], np.int64), (nd, 2))
    doc = rng.integers(0, nd, n)
    kind = rng.choice(np.array(kinds, np.int8), n)
    key = rng.integers(0, p["n_keys"], n).astype(np.int64)
    hot = rng.random(p["n_keys"]) < flag_frac
    flag = np.where(kind == KIND_BAND, hot[key],
                    np.where(kind == KIND_ANCHOR, rng.random(n) < 0.5, False))
    pay = np.where(kind == KIND_SIMHASH, sh[doc],
                   np.where(kind == KIND_ANCHOR, nbytes[doc], 0))
    return _chunked(pa.table({
        "key": pa.array(key), "kind": pa.array(kind, pa.int8()),
        "uid": uid_arrow(uid[doc]), "payload": pa.array(pay, pa.int64()),
        "flag": pa.array(flag), "d0": pa.array(dig[doc, 0]),
        "d1": pa.array(dig[doc, 1])}), rng, p["n_chunks"])


def _edge_rows(t: pa.Table) -> list:
    return sorted(zip(*(t[c].to_pylist() for c in ("u", "v", "kind"))))


@REDUCERS
@given(PARTS, st.sampled_from([[0], [1], [2], [0, 1], [0, 2], [1, 2],
                               [0, 1, 2]]),
       st.floats(0, 1), st.integers(2, 5), st.integers(0, 64),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 128))
def test_candidate_reducer_equals_pandas(p, kinds, flag_frac, group_cap,
                                         hamming, anchor_cap, sim_cap,
                                         max_diff):
    t = _bucket_rows(p, kinds, flag_frac)
    caps = dict(group_cap=group_cap, anchor_cap=anchor_cap, sim_cap=sim_cap,
                max_diff=max_diff)
    got = candidate_reduce(t, hamming=hamming, **caps)
    want = _pandas_reduce(
        lambda df: ref_candidates(df, group_cap, hamming, anchor_cap,
                                  sim_cap, max_diff),
        t, empty_edges(128 if p["wide"] else 64).schema)
    assert got.schema.equals(want.schema)
    assert _edge_rows(got) == _edge_rows(want)


@REDUCERS
@given(PARTS, st.integers(0, 4))
def test_gate_reducer_equals_pandas(p, existing_cap):
    rng = np.random.default_rng(p["seed"])
    uid = _uids(rng, p["n_docs"], False, p["doc_ids"])
    n = p["n"]
    t = _chunked(pa.table({
        "key": pa.array(rng.integers(0, p["n_keys"], n).astype(np.int64)),
        "uid": pa.array(uid[rng.integers(0, p["n_docs"], n)]),
        "is_ex": pa.array(rng.random(n) < 0.6)}), rng, p["n_chunks"])
    got = gate_reduce(t, existing_cap)
    want = _pandas_reduce(lambda df: ref_gate(df, existing_cap), t,
                          empty_edges().schema)
    assert got.schema.equals(want.schema)
    assert _edge_rows(got) == _edge_rows(want)


POLICIES = [KeeperPolicy(), KeeperPolicy(policy="site_popularity"),
            KeeperPolicy(policy="priority_limits", min_copies=2,
                         site_priority={"h1.example": 0, "h2.example": 1}),
            KeeperPolicy(policy="priority_limits", min_copies=3,
                         max_copies=2, respect_max=True)]


@REDUCERS
@given(PARTS, st.sampled_from(range(len(POLICIES))))
def test_keeper_reducer_equals_pandas(p, policy):
    rng = np.random.default_rng(p["seed"])
    n = p["n"]
    canon = _uids(rng, p["n_keys"], p["wide"], p["doc_ids"])
    t = _chunked(pa.table({
        "url": pa.array([f"https://h{u % 3}.example/{u}"
                         for u in rng.integers(0, p["n_docs"] + 1, n)]),
        "lang": pa.array(rng.choice(["en", "de"], n)),
        "n_bytes": pa.array(rng.integers(1, 9, n), pa.int64()),
        "canonical": uid_arrow(canon[rng.integers(0, p["n_keys"], n)]),
        "match_kind": pa.array(rng.choice(["exact", "near", "substring"], n)),
    }), rng, p["n_chunks"])
    got = keeper_reduce(t, POLICIES[policy], 8)
    want = _pandas_reduce(lambda df: ref_keeper(df, POLICIES[policy], 8), t)
    assert got.schema.equals(want.schema)
    assert got.equals(want)
