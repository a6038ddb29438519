"""LSH banding, hot-band skew handling, candidate-pair generation and
signature verification.

The band-bucket groupby is THE skewed shuffle of the engine (SURVEY.md
§4): a boilerplate block shared by 30% of documents produces one giant
``(band_idx, band_hash)`` bucket.  Handling (north rule: "explicit
salting/repartitioning for hot-band skew"):

1. pre-aggregate band-key counts (cheap, combiner-style);
2. keys with count > ``group_cap`` are broadcast as a hot set; their
   rows get a salt = hash(url) % num_salts appended to the groupby key
   so no single reducer materialises the bucket;
3. pair emission inside a group is bounded: sorted-consecutive chain
   + star-to-min per bucket, chain-only inside salted sub-buckets.  Genuine
   near-dup pairs share ~b·J^r other bands, so recall is carried by
   the un-hot bands; the cap's effect is measured by the recall tests.

Verification (≙ the reference verifying candidate groups by full
(hash,size) identity before acting): candidate pairs are joined back
to the signature table and kept only when the signature-estimated
Jaccard ≥ ``verify_threshold``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import LSHConfig, MinHashConfig
from ..functions.hashing import combine64, hash64_str, mix64
from .common import grouped_apply, keys_over
from .joins import hash_join


def band_rows(sigs: "ray.data.Dataset", cfg: MinHashConfig) -> "ray.data.Dataset":
    """Explode each signature into (band_key, url) rows — b per doc.

    band_key folds (band_idx, the band's r minhash slots) into one u64.
    Rows for empty documents (n_shingles == 0) are suppressed.
    """
    b, r = cfg.bands, cfg.rows

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table({"band_key": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string())})
        sig = np.asarray(batch["minhash"].combine_chunks().flatten()).reshape(n, b, r)
        keys = combine64(sig, axis=2)                      # (n, b)
        keys = mix64(keys + (np.arange(b, dtype=np.uint64) << np.uint64(1))[None, :])
        ns = np.asarray(batch["n_shingles"], dtype=np.int64)
        urls = batch["url"].to_pylist()
        keep = ns > 0
        # int64 bit-view: groupby keys must avoid uint64 (Ray's shuffle
        # round-trips keys through Python ints and re-infers int64)
        out_keys = keys[keep].reshape(-1).view(np.int64)
        out_urls = np.repeat(np.array(urls, dtype=object)[keep], b)
        return pa.table({"band_key": pa.array(out_keys, pa.int64()),
                         "url": pa.array(out_urls.tolist(), pa.string())})

    return sigs.map_batches(explode, batch_format="pyarrow")


def hot_band_keys(bands: "ray.data.Dataset", cfg: LSHConfig) -> np.ndarray:
    """Band keys whose bucket exceeds group_cap (assumed few — the
    boilerplate bands): a combined count exchange, then the hot list is
    broadcast, not shuffled."""
    return keys_over(bands, "band_key", cfg.group_cap)


def salt_bands(bands: "ray.data.Dataset", hot: np.ndarray, cfg: LSHConfig) -> "ray.data.Dataset":
    """Append the skew salt: 0 for normal keys, hash(url)%num_salts+1
    for hot keys (so salted sub-buckets stay disjoint from salt 0)."""
    hot_ref = ray.put(np.sort(hot))

    def f(batch: pa.Table) -> pa.Table:
        hot_sorted = ray.get(hot_ref)
        keys = np.asarray(batch["band_key"], dtype=np.int64)
        salt = np.zeros(len(batch), dtype=np.int32)
        if hot_sorted.size:
            is_hot = np.isin(keys, hot_sorted)
            if is_hot.any():
                uh = hash64_str(batch["url"].filter(pa.array(is_hot)))
                salt[is_hot] = (uh % np.uint64(cfg.num_salts)).astype(np.int32) + 1
        return batch.append_column("salt", pa.array(salt, pa.int32()))

    return bands.map_batches(f, batch_format="pyarrow")


def candidate_edges(salted: "ray.data.Dataset", cfg: LSHConfig) -> "ray.data.Dataset":
    """Hash-partition on band_key → fully vectorized bounded edge
    emission per bucket: sorted-consecutive **chain** edges (O(g),
    keeps the bucket connected) plus a **star** to the bucket minimum
    for unsalted buckets (keeps verification from splitting chains).
    Salted (hot) sub-buckets emit chains only.  Edge list is deduped
    within the partition; cross-band duplicate edges are removed by the
    pair-key dedupe downstream (or tolerated — union-find is idempotent)."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["band_key", "salt", "url"]).sort_values(
            ["band_key", "salt", "url"], kind="mergesort")
        grp = df.groupby(["band_key", "salt"], sort=False)
        size = grp["url"].transform("size").to_numpy()
        idx = grp.cumcount().to_numpy()
        urls = df["url"].to_numpy()
        first = grp["url"].transform("first").to_numpy()
        salt = df["salt"].to_numpy()
        nxt = np.roll(urls, -1)
        chain_mask = (idx < size - 1) & (size > 1)
        star_mask = (idx >= 2) & (salt == 0)
        u = np.concatenate([urls[chain_mask], first[star_mask]])
        v = np.concatenate([nxt[chain_mask], urls[star_mask]])
        out = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        return out

    return grouped_apply(salted, ["band_key"], emit)


def verify_edges(
    edges: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    cfg: MinHashConfig,
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Join candidate pairs to both members' signatures and keep pairs
    whose estimated Jaccard ≥ verify_threshold.  Output: (u, v, est_jaccard)."""
    P = cfg.num_perms
    skinny = sigs.select_columns(["url", "minhash"])

    def prep(side: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({side: batch["url"], f"sig_{side}": batch["minhash"]})
        return f

    thr = cfg.verify_threshold

    def score(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table({"u": pa.array([], pa.string()),
                             "v": pa.array([], pa.string()),
                             "est_jaccard": pa.array([], pa.float64())})
        def mat(col):
            return np.asarray(col.combine_chunks().flatten()).reshape(n, P)

        a = mat(batch["sig_u"])
        b = mat(batch["sig_v"])
        est = (a == b).mean(axis=1)
        keep = est >= thr
        return pa.table({
            "u": batch["u"].filter(pa.array(keep)),
            "v": batch["v"].filter(pa.array(keep)),
            "est_jaccard": pa.array(est[keep], pa.float64()),
        })

    left = hash_join(edges, skinny.map_batches(prep("u"), batch_format="pyarrow"),
                     "u", num_partitions=num_partitions)
    return hash_join(left, skinny.map_batches(prep("v"), batch_format="pyarrow"),
                     "v", post_fn=score, num_partitions=num_partitions)


# per-worker cache of deserialized broadcast indexes, keyed by the
# object refs — built once per worker process, reused by every task
# (bounded — see common.bounded_cache_put)
_BCAST_CACHE: dict = {}


def _bcast_put(key, val):
    from .common import bounded_cache_put

    return bounded_cache_put(_BCAST_CACHE, key, val)


def block_refs_of(ds: "ray.data.Dataset") -> list:
    """Object refs of a materialized Dataset's blocks — the broadcast
    handle: shipping refs costs nothing, workers fetch the Arrow blocks
    zero-copy from the object store (no driver-side pull, no 100s-of-MB
    pickled dict — both of which serialize on the driver and then
    re-deserialize per worker)."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    return refs


def _worker_index(refs: tuple, columns: tuple[str, ...]):
    """(pandas.Index over column0, [column1 arrays...]) built once per
    worker from broadcast block refs."""
    key = (refs, columns)
    hit = _BCAST_CACHE.get(key)
    if hit is not None:
        return hit
    import pandas as pd
    tables = ray.get(list(refs))  # blocks are pyarrow Tables
    # empty blocks (zero-row filter outputs) may carry no schema — skip
    usable = [t for t in tables
              if len(t) and all(c in t.column_names for c in columns)]
    if not usable:
        out = (pd.Index([]), [pa.chunked_array([], pa.null()) for _ in columns[1:]])
        return _bcast_put(key, out)
    tbl = pa.concat_tables([t.select(list(columns)) for t in usable])
    idx = pd.Index(tbl[columns[0]].to_pandas())
    payload = [tbl[c] for c in columns[1:]]
    out = (idx, payload)
    return _bcast_put(key, out)


def edge_urls(edges: "ray.data.Dataset") -> set:
    """Distinct endpoint urls of a (small, materialized) edge set."""
    urls: set = set()
    for b in edges.iter_batches(batch_size=65536, batch_format="pyarrow"):
        urls.update(b["u"].to_pylist())
        urls.update(b["v"].to_pylist())
    return urls


def verify_edges_smallset(
    edges: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    cfg: MinHashConfig,
) -> "ray.data.Dataset":
    """Verification plan for SMALL edge sets over LARGE signature
    tables: semi-filter the signature table to the edge endpoints
    (broadcast url set, one parallel map pass, no shuffle), then
    broadcast the now-small signature subset for direct-index
    verification.  With high-threshold banding the candidate set is
    ~O(true pairs), so this is the common plan; the partitioned-join
    path remains for candidate floods."""
    from .joins import broadcast_semi_filter

    urls = edge_urls(edges)
    skinny = broadcast_semi_filter(
        sigs.select_columns(["url", "minhash"]), "url", urls)
    return verify_edges_broadcast(edges, skinny, cfg)


def verify_edges_broadcast(
    edges: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    cfg: MinHashConfig,
) -> "ray.data.Dataset":
    """Join-free verification for corpora whose signature table fits the
    object store comfortably: the skinny (url, minhash) table's block
    refs are shipped to every task; each worker builds a lookup index
    once and verifies edge batches by direct indexing.  Semantically
    identical to :func:`verify_edges`; the join path remains the
    100 TB-scale plan."""
    P = cfg.num_perms
    skinny = sigs.select_columns(["url", "minhash"]).materialize()
    refs = tuple(block_refs_of(skinny))
    thr = cfg.verify_threshold

    def score(batch: pa.Table) -> pa.Table:
        idx, (mh,) = _worker_index(refs, ("url", "minhash"))
        key = (refs, "sigmat")
        m = _BCAST_CACHE.get(key)
        if m is None:
            m = np.asarray(mh.combine_chunks().flatten()).reshape(len(idx), P)
            _bcast_put(key, m)
        iu = idx.get_indexer(batch["u"].to_pandas())
        iv = idx.get_indexer(batch["v"].to_pandas())
        ok = (iu >= 0) & (iv >= 0)
        est = np.zeros(len(batch))
        if ok.any():
            est[ok] = (m[iu[ok]] == m[iv[ok]]).mean(axis=1)
        keep = est >= thr
        return pa.table({
            "u": batch["u"].filter(pa.array(keep)),
            "v": batch["v"].filter(pa.array(keep)),
            "est_jaccard": pa.array(est[keep], pa.float64()),
        })

    return edges.map_batches(score, batch_format="pyarrow")


# shared hot-bucket cap for simhash chunk buckets — the SQL oracle
# interpolates THIS constant so the two paths stay cap-consistent
SIMHASH_GROUP_CAP = 512


def simhash_edges(
    sigs: "ray.data.Dataset", hamming_threshold: int = 3, chunk_bits: int = 16,
    group_cap: int = SIMHASH_GROUP_CAP,
) -> "ray.data.Dataset":
    """SimHash near-dup candidates via table-rotation bucketing: split
    the 64-bit fingerprint into 64/chunk_bits chunks — two fingerprints
    within Hamming distance < n_chunks share at least one chunk
    (pigeonhole).  groupby (chunk_idx, chunk_value), verify Hamming
    in-group (the 8-byte simhash travels with the row — no join)."""
    n_chunks = 64 // chunk_bits
    mask = np.uint64((1 << chunk_bits) - 1)
    thr = hamming_threshold

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        sim = np.asarray(batch["simhash"], dtype=np.uint64)
        ns = np.asarray(batch["n_shingles"], dtype=np.int64)
        urls = np.array(batch["url"].to_pylist(), dtype=object)
        keep = ns > 0
        sim, urls = sim[keep], urls[keep]
        chunks = []
        for c in range(n_chunks):
            cv = (sim >> np.uint64(c * chunk_bits)) & mask
            key = ((cv << np.uint64(3)) | np.uint64(c)).astype(np.int64)  # fits 19 bits
            chunks.append(pa.table({
                "chunk_key": pa.array(key, pa.int64()),
                "url": pa.array(urls.tolist(), pa.string()),
                "simhash": pa.array(sim.view(np.int64), pa.int64()),
            }))
        if not chunks:
            return pa.table({"chunk_key": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string()),
                             "simhash": pa.array([], pa.int64())})
        return pa.concat_tables(chunks)

    def emit_bucket(g: pd.DataFrame) -> pd.DataFrame | None:
        if len(g) < 2 or len(g) > group_cap:
            return None
        urls = g["url"].tolist()
        sims = g["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
        xor = sims[:, None] ^ sims[None, :]
        hd = np.zeros_like(xor, dtype=np.int64)
        for s in range(64):
            hd += ((xor >> np.uint64(s)) & np.uint64(1)).astype(np.int64)
        iu, jv = np.nonzero(np.triu(hd <= thr, k=1))
        if iu.size == 0:
            return None
        return pd.DataFrame({"u": [urls[i] for i in iu], "v": [urls[j] for j in jv]})

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["chunk_key", "url"])
        # keep only buckets with ≥2 members before the per-bucket O(g²)
        counts = df.groupby("chunk_key")["url"].transform("size")
        df = df[counts > 1]
        frames = [out for _, g in df.groupby("chunk_key", sort=False)
                  if (out := emit_bucket(g)) is not None]
        if not frames:
            return pd.DataFrame({"u": pd.Series([], dtype=str),
                                 "v": pd.Series([], dtype=str)})
        return pd.concat(frames).drop_duplicates()

    exploded = sigs.select_columns(["url", "simhash", "n_shingles"]).map_batches(
        explode, batch_format="pyarrow")
    return grouped_apply(exploded, ["chunk_key"], emit)
