"""Fused candidate-bucket shuffle: LSH bands + SimHash chunks +
substring anchors in ONE groupby.

Three separate bucket shuffles (bands, simhash chunks, anchors) each pay
a full sort-shuffle round; their keys and semantics differ but their
*shape* is identical — (bucket_key, member, small payload) rows reduced
per bucket into candidate edges.  Fusing them:

* one shuffle instead of three (the dominant fixed+volume cost of the
  candidate phase);
* rows are SKINNY: documents are keyed by ``uid`` (a hash of the url:
  int64, or 16 bytes from ``UID128_MIN_REPS`` reps) instead of the url
  string — ~5× less shuffle volume and numpy-sortable inside the
  reducers.  uid→url resolution happens once at the end of the
  pipeline (the collision tradeoff is documented at the uid codec).
  An input that carries the reserved ``DOC_UID`` column (the registry
  queries' ``doc_id``) is keyed by it instead (:func:`batch_uids`), so
  chain and star order is the oracles' ``ORDER BY doc_id``; page
  inputs may not carry it (:func:`refuse_doc_uid`).

Row layout: (key: i64, kind: i8, uid, payload: i64, flag: bool,
d0: i64, d1: i64)
  kind 0 = LSH band   — payload unused; emission: sorted chain + star
                         (star only under the group cap; hot buckets,
                         salted in flight, chain-only)
  kind 1 = simhash    — payload = simhash bits; emission: in-bucket
                         Hamming-verified pairs (buckets over
                         ``SIMHASH_GROUP_CAP`` skipped as hot)
  kind 2 = anchor     — payload = n_bytes, flag = is-min-anchor;
                         emission: shorts × longs containment candidates
  d0, d1 — the document's 128-bit digest: on band and simhash rows the
  low bit of each MinHash slot (b-bit minwise fingerprint, b = 1); on
  anchor rows a bloom of the anchor set, bit ``mix64(anchor) % 128``
  (anchors are ≡ 0 mod 64, so the raw value would set two bits).

The reducer holds both endpoints of every pair it emits, so it prunes
there (≙ files/hash.go:37-48) before any payload moves:

* near pairs (kinds 0/1) are deduplicated per partition on (u, v),
  keeping the minimum kind, and dropped when more fingerprint bits
  differ than the threshold allows (``P - min_slot_matches``);
* anchor pairs are dropped unless the short side's bloom is a
  bit-subset of the long side's.

Both bounds only over-count: equal slots give equal bits, and a
contained text's anchors are a subset of its container's — no true
edge is lost.  Anchor pairs are never deduplicated against near pairs
(their kind carries the "substring" match kind).

Output: (u, v, kind: i8) candidate edges, u and v of the uid type.
Which pairs are emitted and kept is a pure function of each bucket and
its members' digests — the partition-count-invariance contract
(files/move.go:226-236); only how many duplicate near rows survive
depends on which buckets share a partition.
Candidates are verified exactly by ``stages/verify.py``; this module
also holds the uid codec both share.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import LSHConfig, MinHashConfig, PipelineConfig
from ..functions.hashing import combine64, hash64_str, mix64
from .common import Blocks, grouped_apply, keys_over, sorted_runs

KIND_BAND = 0
KIND_SIMHASH = 1
KIND_ANCHOR = 2
ALL_KINDS = (KIND_BAND, KIND_SIMHASH, KIND_ANCHOR)

# byte-wise popcount lookup — Hamming distance of uint64 xors in one
# gather+sum instead of a 64-pass shift/mask/add loop
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
DIGEST_BITS = 128             # d0, d1: two int64 words per bucket row
# the caller-assigned doc-id column (:func:`batch_uids`); a name page
# inputs may not carry, so their own columns never re-key a document
DOC_UID = "__doc_uid"
# hot-bucket cap for simhash chunk buckets — the simhash_pairs SQL
# oracle interpolates THIS constant so the two paths stay cap-consistent
SIMHASH_GROUP_CAP = 512


def min_slot_matches(cfg: MinHashConfig) -> int:
    """Smallest slot-match count m with m / P >= ``verify_threshold``:
    the float-mean cutoff of the SQL oracle, in integers (P + 1 when no
    count reaches it).  The exact verify and the reducer prune share it."""
    P = cfg.num_perms
    return next((m for m in range(P + 1) if m / P >= cfg.verify_threshold),
                P + 1)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of an (n, w) uint64 matrix."""
    # C order for the uint8 view (xor of fancy-indexed inputs may be F)
    w = np.ascontiguousarray(words)
    return _POPCNT8[w.view(np.uint8)].sum(axis=1, dtype=np.int64)


def slot_fingerprints(sig: np.ndarray) -> np.ndarray:
    """(n, 2) uint64: bit i = low bit of slot i, for the first
    ``DIGEST_BITS`` slots (unused bits zero)."""
    bits = np.zeros((len(sig), DIGEST_BITS), dtype=np.uint8)
    c = min(sig.shape[1], DIGEST_BITS)
    bits[:, :c] = sig[:, :c] & np.uint64(1)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def anchor_blooms(flat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 bloom per document of its anchors (``flat``, the
    concatenated per-document lists of lengths ``lens``)."""
    out = np.zeros((len(lens), 2), dtype=np.uint64)
    nz = lens > 0
    if flat.size:
        bit = mix64(flat.view(np.uint64)) % np.uint64(DIGEST_BITS)
        one = np.uint64(1) << (bit & np.uint64(63))
        hi = bit >= np.uint64(64)
        starts = (np.cumsum(lens) - lens)[nz]
        for w, sel in ((0, ~hi), (1, hi)):
            out[nz, w] = np.bitwise_or.reduceat(
                np.where(sel, one, np.uint64(0)), starts)
    return out


# ---- the uid codec ---------------------------------------------------------
# A doc uid is int64 at 64 bits and 16 bytes at 128: ``binary(16)`` in
# Arrow, numpy ``S16`` (the url's two hash words, viewed as bytes) in
# numpy.  Every function below reads the width off the column type or
# the array dtype; only the mint takes it.  Invariant: an ``S16`` array
# is only ever handled whole — sorted, uniqued, compared, probed, viewed
# as words or as an Arrow buffer — never iterated or ``tolist``-ed,
# because numpy item access strips trailing NUL bytes.  Whole-array
# ``S16`` order is bytewise, i.e. Python ``bytes`` order (property-tested).
# rep count at or above which a job mints 128-bit uids: the chance of ANY
# 64-bit collision (n²/2⁶⁵, a spurious cluster merge) is 2.7e-6 per job
# at 10^7 reps, 3e-4 at 10^8
UID128_MIN_REPS = 10_000_000
_UID128 = np.dtype("S16")


def uid_bits_for(n_reps: int) -> int:
    """The uid width of a job over ``n_reps`` representatives."""
    return 64 if n_reps < UID128_MIN_REPS else 128


def uid_pa_type(bits: int) -> pa.DataType:
    """Arrow type of a uid column of ``bits``."""
    return pa.int64() if bits == 64 else pa.binary(16)


def uid_width(x) -> int:
    """Width of a uid numpy array or Arrow type."""
    if isinstance(x, np.ndarray):
        return 64 if x.dtype == np.int64 else 128
    return 64 if pa.types.is_integer(x) else 128


def uid_of_urls(urls, bits: int = 64) -> np.ndarray:
    """Mint doc uids from urls (a list[str] or a pyarrow (Chunked)Array).

    At ``bits=64``: int64, the polynomial url hash (``hash64_str``).
    For n arbitrary urls the chance of ANY collision is ~n²/2⁶⁵, but the
    hash is a polynomial mod 2⁶⁴, so crafted urls collide at will (two
    distinct 1 KiB Thue–Morse strings do); the checkpoint done set keys
    on this uid too.  At ``bits=128``: ``S16``, that word plus SipHash-2-4
    of the url bytes (``pd.util.hash_array``, pandas' fixed key), an
    independent non-polynomial hash, so a polynomial collision alone no
    longer merges two uids; the key is public, so this is collision
    resistance against accidents, not against an adversary who targets
    SipHash too.  The bucket exchange stays int64-KEYED either way; only
    the doc identity payload widens."""
    h = hash64_str(urls, seed=3)
    if bits == 64:
        return h.view(np.int64)
    if bits != 128:
        raise ValueError(f"uid bits must be 64 or 128, got {bits}")
    objs = (urls.to_numpy(zero_copy_only=False)
            if isinstance(urls, (pa.Array, pa.ChunkedArray))
            else np.asarray(urls, dtype=object))
    sip = pd.util.hash_array(objs, categorize=False)
    return np.column_stack([h, sip]).view(_UID128)[:, 0]


def batch_uids(t: pa.Table, bits: int = 64) -> np.ndarray:
    """Doc uids of a batch: its ``DOC_UID`` column when it has one (a
    caller-assigned id — the registry passes ``doc_id``; the verify
    payload rows carry it), else :func:`uid_of_urls` of its ``url``
    column at ``bits``."""
    if DOC_UID in t.column_names:
        return uid_np(t[DOC_UID])
    return uid_of_urls(t["url"], bits)


def refuse_doc_uid(columns, where: str) -> None:
    """Raise if page input ``columns`` include the reserved ``DOC_UID``:
    a batch that carries it is keyed by it, not by its url hash.  Any
    other extra column (a page's own ``uid`` too) is just carried."""
    if DOC_UID in columns:
        raise ValueError(f"{where}: column {DOC_UID!r} is reserved for "
                         f"internal doc ids")


def uid_arrow(arr: np.ndarray) -> pa.Array:
    """Arrow array of a uid ndarray (int64 or ``S16``), zero-copy."""
    if arr.dtype == np.int64:
        return pa.array(arr, pa.int64())
    if arr.dtype != _UID128:
        raise TypeError(f"uids are int64 or S16, got {arr.dtype}")
    arr = np.ascontiguousarray(arr)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(16), len(arr), [None, pa.py_buffer(arr)])


def uid_np(col) -> np.ndarray:
    """Numpy array of a uid column (int64 or ``binary(16)``): one buffer
    view per chunk, honouring its offset.  Slots under nulls hold
    undefined values."""
    if pa.types.is_integer(col.type) and col.type != pa.int64():
        col = col.cast(pa.int64())
    dt = {pa.int64(): np.dtype(np.int64), pa.binary(16): _UID128}.get(col.type)
    if dt is None:
        raise TypeError(f"uid columns are int64 or binary(16), got {col.type}")
    parts = [np.frombuffer(c.buffers()[1], dt, count=c.offset + len(c))[c.offset:]
             for c in (col.chunks if isinstance(col, pa.ChunkedArray) else [col])
             if len(c)]
    if not parts:
        return np.empty(0, dt)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def uid_words(uids: np.ndarray) -> np.ndarray:
    """(n, 1) or (n, 2) uint64 word view of a uid array."""
    return np.ascontiguousarray(uids).view(np.uint64).reshape(
        len(uids), uids.itemsize // 8)


def sampled_hot_band_keys(
    sigs: "Blocks | ray.data.Dataset",
    cfg: PipelineConfig,
    n_docs: int,
    sample_mod: int = 8,
) -> np.ndarray | None:
    """The hot-band policy: None (no salting) while the ``n_docs``
    signatures explode to fewer than ``cfg.presalt_min_band_rows`` band
    rows, else the sorted hot band keys.  Detection runs on a
    deterministic 1/sample_mod document sample (uid % sample_mod == 0 —
    a pure content-hash predicate, so the hot set is identical at any
    parallelism).  A bucket of true size S appears with ~S/sample_mod
    sampled members; keys whose sampled count exceeds
    group_cap/sample_mod are flagged hot.  This replaces the full
    band-rows pre-count groupby (r1 presalt path) — same determinism,
    1/sample_mod the shuffle volume, and it feeds the ONE fused shuffle
    instead of a separate string-keyed band path."""
    minhash, lsh = cfg.minhash, cfg.lsh
    if n_docs * minhash.bands < cfg.presalt_min_band_rows:
        return None
    b, r = minhash.bands, minhash.rows
    mod = np.uint64(sample_mod)

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table({"key": pa.array([], pa.int64())})
        uid = batch_uids(batch).view(np.uint64)
        ns = np.asarray(batch["n_shingles"], dtype=np.int64)
        keep = (uid % mod == 0) & (ns > 0)
        kn = int(keep.sum())
        if not kn:
            return pa.table({"key": pa.array([], pa.int64())})
        sig = np.asarray(batch["minhash"].combine_chunks().flatten()
                         ).reshape(n, b, r)[keep]
        bkeys = combine64(sig, axis=2)
        bkeys = mix64(bkeys + (np.arange(b, dtype=np.uint64) << np.uint64(1))[None, :])
        return pa.table({"key": pa.array(bkeys.reshape(-1).view(np.int64),
                                         pa.int64())})

    return keys_over(sigs, "key", max(1, lsh.group_cap // sample_mod),
                     pre_fn=explode)


def bucket_batch(
    batch: pa.Table,
    minhash: MinHashConfig,
    kinds: tuple = ALL_KINDS,
    chunk_bits: int = 16,
    hot_band_keys: np.ndarray | None = None,
    num_salts: int = 16,
    uid_bits: int = 64,
) -> pa.Table:
    # chunk_bits=16 → 4 chunks: pigeonhole guarantee for hamming ≤ 3 and
    # ~2^16 values per chunk slot, so buckets stay small even at 10^6+
    # docs (8-bit chunks collapse into a few hundred giant buckets that
    # the group cap then drops — zero recall AND wasted shuffle)
    """Explode a batch of signature rows into their bucket rows of
    ``kinds`` only (``KIND_BAND``, ``KIND_SIMHASH``, ``KIND_ANCHOR``),
    keyed by :func:`batch_uids` (the input's ``DOC_UID`` column when it
    has one, else urls minted at ``uid_bits``).  The batch kernel of
    :func:`bucket_rows`; ``run_dedup`` runs it as the candidate
    exchange's split ``pre_fn``.

    ``hot_band_keys`` (sorted int64, from :func:`sampled_hot_band_keys`)
    activates in-flight salting: a band row whose key is hot gets
    key = mix64(key + uid%num_salts + 1) and flag=True — the giant
    bucket splits across num_salts reducers, and the reducer emits
    chain-only edges for flagged rows (north-rule skew handling fused
    into the single shuffle)."""
    b, r = minhash.bands, minhash.rows
    n = len(batch)
    empty = pa.table({
        "key": pa.array([], pa.int64()),
        "kind": pa.array([], pa.int8()),
        "uid": pa.array([], uid_pa_type(uid_bits)),
        "payload": pa.array([], pa.int64()),
        "flag": pa.array([], pa.bool_()),
        "d0": pa.array([], pa.int64()),
        "d1": pa.array([], pa.int64()),
    })
    if n == 0:
        return empty
    uid = batch_uids(batch, uid_bits)
    ns = np.asarray(batch["n_shingles"], dtype=np.int64)
    keep = ns > 0
    keys_out: list[np.ndarray] = []
    kind_out: list[np.ndarray] = []
    uid_out: list[np.ndarray] = []
    pay_out: list[np.ndarray] = []
    flag_out: list[np.ndarray] = []
    dig_out: list[np.ndarray] = []

    kn = int(keep.sum())
    if kn and (KIND_BAND in kinds or KIND_SIMHASH in kinds):
        sig = np.asarray(batch["minhash"].combine_chunks().flatten()
                         ).reshape(n, b, r)[keep]
        fp = slot_fingerprints(sig.reshape(kn, b * r))       # (kn, 2)
    if kn and KIND_BAND in kinds:
        bkeys = combine64(sig, axis=2)                       # (kn, b)
        bkeys = mix64(bkeys + (np.arange(b, dtype=np.uint64) << np.uint64(1))[None, :])
        flat_keys = bkeys.reshape(-1).view(np.int64)
        flags = np.zeros(kn * b, dtype=bool)
        if hot_band_keys is not None and len(hot_band_keys):
            is_hot = np.isin(flat_keys, hot_band_keys)
            if is_hot.any():
                # salt source is a dedicated url hash (uid-width
                # independent, so 64/128-bit modes salt identically)
                s64 = np.repeat(hash64_str(batch["url"], seed=5)[keep], b)
                salt = (s64[is_hot] % np.uint64(num_salts)) + np.uint64(1)
                flat_keys = flat_keys.copy()
                flat_keys[is_hot] = mix64(
                    flat_keys[is_hot].view(np.uint64) + salt).view(np.int64)
                flags[is_hot] = True
        keys_out.append(flat_keys)
        kind_out.append(np.zeros(kn * b, dtype=np.int8))
        uid_out.append(np.repeat(uid[keep], b))
        pay_out.append(np.zeros(kn * b, dtype=np.int64))
        flag_out.append(flags)
        dig_out.append(np.repeat(fp, b, axis=0))

    if kn and KIND_SIMHASH in kinds:
        n_chunks = 64 // chunk_bits
        mask = np.uint64((1 << chunk_bits) - 1)
        sh = np.asarray(batch["simhash"], dtype=np.uint64)[keep]
        for c in range(n_chunks):
            cv = (sh >> np.uint64(c * chunk_bits)) & mask
            key = ((cv << np.uint64(3)) | np.uint64(c)).astype(np.int64)
            keys_out.append(key)
            kind_out.append(np.full(kn, KIND_SIMHASH, dtype=np.int8))
            uid_out.append(uid[keep])
            pay_out.append(sh.view(np.int64))
            flag_out.append(np.zeros(kn, dtype=bool))
            dig_out.append(fp)

    if KIND_ANCHOR in kinds and "anchors" in batch.column_names:
        # vectorized list-column explode: flatten + reduceat over the
        # list offsets — no Python loop over documents
        la = batch["anchors"].combine_chunks()
        flat = np.asarray(la.flatten(), dtype=np.int64)
        offs = np.asarray(la.offsets, dtype=np.int64)
        lens = np.diff(offs)
        nz = lens > 0
        if flat.size:
            starts = offs[:-1][nz]
            mins = np.minimum.reduceat(flat, starts)
            nb = np.asarray(batch["n_bytes"], dtype=np.int64)
            keys_out.append(flat)
            kind_out.append(np.full(flat.size, KIND_ANCHOR, dtype=np.int8))
            uid_out.append(np.repeat(uid, lens))
            pay_out.append(np.repeat(nb, lens))
            flag_out.append(flat == np.repeat(mins, lens[nz]))
            dig_out.append(np.repeat(anchor_blooms(flat, lens), lens,
                                     axis=0))

    if not keys_out:
        return empty
    dig = np.concatenate(dig_out).view(np.int64)
    return pa.table({
        "key": pa.array(np.concatenate(keys_out), pa.int64()),
        "kind": pa.array(np.concatenate(kind_out), pa.int8()),
        "uid": uid_arrow(np.concatenate(uid_out)),
        "payload": pa.array(np.concatenate(pay_out), pa.int64()),
        "flag": pa.array(np.concatenate(flag_out), pa.bool_()),
        "d0": pa.array(dig[:, 0], pa.int64()),
        "d1": pa.array(dig[:, 1], pa.int64()),
    })


def bucket_rows(
    sigs: "ray.data.Dataset",
    minhash: MinHashConfig,
    kinds: tuple = ALL_KINDS,
    chunk_bits: int = 16,
    hot_band_keys: np.ndarray | None = None,
    num_salts: int = 16,
) -> "ray.data.Dataset":
    """The bucket rows of ``kinds`` of every signature row of ``sigs``
    (:func:`bucket_batch` as a lazy map, 64-bit uids unless the input
    carries ``DOC_UID``)."""
    return sigs.map_batches(
        bucket_batch, batch_format="pyarrow",
        fn_kwargs={"minhash": minhash, "kinds": tuple(kinds),
                   "chunk_bits": chunk_bits, "hot_band_keys": hot_band_keys,
                   "num_salts": num_salts})


def empty_edges(uid_bits: int = 64) -> pa.Table:
    """Zero-row (u, v, kind) edge table for a uid width."""
    return pa.table({"u": pa.array([], uid_pa_type(uid_bits)),
                     "v": pa.array([], uid_pa_type(uid_bits)),
                     "kind": pa.array([], pa.int8())})


def _chain_star_pairs(sizes: np.ndarray, starts: np.ndarray, group_cap: int,
                      star_allowed: np.ndarray | None = None):
    """Vectorized bounded pair emission for sorted band buckets laid out
    consecutively: chain edges for every bucket, plus star-to-min for
    buckets ≤ group_cap (hot/salted buckets stay chain-only via
    ``star_allowed``, a per-bucket bool mask).  Returns the pairs' row
    positions."""
    idx = np.arange(int(sizes.sum()))
    # chain: consecutive members within a bucket
    bucket_id = np.repeat(np.arange(sizes.size), sizes)
    chain_mask = np.r_[bucket_id[1:] == bucket_id[:-1], False]
    # star: member -> bucket minimum (first element, sorted) for members
    # at local position ≥ 2, only in buckets ≤ group_cap
    local = idx - np.repeat(starts, sizes)
    allowed = sizes <= group_cap
    if star_allowed is not None:
        allowed = allowed & star_allowed
    star_ok = np.repeat(allowed, sizes) & (local >= 2)
    first = np.repeat(starts, sizes)
    return (np.concatenate([idx[chain_mask], first[star_ok]]),
            np.concatenate([idx[np.r_[False, chain_mask[:-1]]], idx[star_ok]]))


def _expand(starts: np.ndarray, lens: np.ndarray):
    """Row positions ``starts[i] .. starts[i] + lens[i] - 1`` for every
    ``i``, and the ``i`` of each."""
    which = np.repeat(np.arange(lens.size), lens)
    return np.arange(which.size) + np.repeat(starts - np.cumsum(lens) + lens,
                                             lens), which


def _first_pairs(doc: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Positions in ``pu``/``pv`` of the first occurrence of each
    distinct (``doc[pu]``, ``doc[pv]``) pair; ``doc`` numbers each
    row's document (``np.unique``'s inverse of the uids)."""
    return np.unique(doc[pu] * len(doc) + doc[pv], return_index=True)[1]


def _edges(uid: np.ndarray, pu: np.ndarray, pv: np.ndarray,
           kind: np.ndarray) -> pa.Table:
    return pa.table({"u": uid_arrow(uid[pu]), "v": uid_arrow(uid[pv]),
                     "kind": pa.array(kind, pa.int8())})


def candidate_reduce(t: pa.Table, group_cap: int, hamming: int,
                     anchor_cap: int, sim_cap: int, max_diff: int) -> pa.Table:
    """One candidate partition's (u, v, kind) edges (module docstring):
    one sort over (kind, key, uid) keeps the first row of each
    (kind, key, doc), and the buckets are its runs of (kind, key)."""
    t, first, _ = sorted_runs(t, ["kind", "key", "uid"])
    t = t.take(first)
    kind, key, flag = (np.asarray(t[c]) for c in ("kind", "key", "flag"))
    uid, pay = uid_np(t["uid"]), np.asarray(t["payload"])
    doc = np.unique(uid, return_inverse=True)[1]
    dig = np.column_stack([np.asarray(t["d0"]), np.asarray(t["d1"])])
    starts = np.flatnonzero(np.r_[True, (key[1:] != key[:-1])
                                  | (kind[1:] != kind[:-1])])
    sizes = np.diff(np.r_[starts, len(t)])
    bkind = kind[starts]
    pu, pv = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    pk = [np.empty(0, np.int8)]

    # ---- kind 0: LSH bands (sorted first) — chain + star -----------------
    band = bkind == KIND_BAND
    if (sizes[band] > 1).any():
        u, v = _chain_star_pairs(sizes[band], starts[band], group_cap,
                                 star_allowed=~flag[starts[band]])
        pu, pv, pk = [u], [v], [np.full(u.size, KIND_BAND, np.int8)]

    # ---- kind 1: simhash chunks — Hamming-verified pairs -----------------
    # vectorized across buckets by size class: same-size buckets stack
    # into (m, s) matrices, and pairwise XOR + LUT popcount run over
    # every bucket of that size at once
    sim = (bkind == KIND_SIMHASH) & (sizes > 1) & (sizes <= sim_cap)
    for s in np.unique(sizes[sim]):
        idx = starts[sim & (sizes == s)][:, None] + np.arange(s)[None, :]
        iu, jv = np.triu_indices(int(s), 1)
        xor = pay[idx[:, iu]] ^ pay[idx[:, jv]]
        keep = (_popcount(xor.view(np.uint64).reshape(-1, 1))
                .reshape(xor.shape) <= hamming)
        pu.append(idx[:, iu][keep])
        pv.append(idx[:, jv][keep])
        pk.append(np.full(int(keep.sum()), KIND_SIMHASH, np.int8))

    # one row per (u, v) — the first, of the min kind — then the
    # fingerprint bound
    pu, pv, pk = (np.concatenate(x) for x in (pu, pv, pk))
    first = _first_pairs(doc, pu, pv)
    pu, pv, pk = pu[first], pv[first], pk[first]
    near = _popcount((dig[pu] ^ dig[pv]).view(np.uint64)) <= max_diff

    # ---- kind 2: anchors — each flagged row × its bucket -----------------
    anc = (bkind == KIND_ANCHOR) & (sizes <= anchor_cap)
    bucket = np.repeat(np.arange(starts.size), sizes)
    shorts = np.flatnonzero(flag & np.repeat(anc, sizes))
    av, i = _expand(starts[bucket[shorts]], sizes[bucket[shorts]])
    au = shorts[i]
    # the short side's bloom must be a bit-subset of the long's
    keep = (pay[au] < pay[av]) & ((dig[au] & ~dig[av]) == 0).all(axis=1)
    au, av = au[keep], av[keep]
    first = _first_pairs(doc, au, av)
    return _edges(uid, np.r_[pu[near], au[first]], np.r_[pv[near], av[first]],
                  np.r_[pk[near], np.full(first.size, KIND_ANCHOR, np.int8)])


def gate_reduce(t: pa.Table, existing_cap: int) -> pa.Table:
    """One gate partition's (u, v, kind) band edges: per key, every
    incoming doc × the first ``existing_cap`` existing docs by uid.
    One row per (key, side, doc) — a doc whose bands fold to the same
    key twice must not shift the existing-side rank."""
    t, first, _ = sorted_runs(t, ["key", "is_ex", "uid"])
    t = t.take(first)
    key, ex, uid = np.asarray(t["key"]), np.asarray(t["is_ex"]), uid_np(t["uid"])
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[starts, len(t)])
    # each key's incoming rows sort first, then its existing rows by uid
    n_in = np.add.reduceat((~ex).astype(np.int64), starts)
    inc = np.flatnonzero(~ex)
    bucket = np.repeat(np.arange(starts.size), sizes)[inc]
    pv, i = _expand(starts[bucket] + n_in[bucket],
                    np.minimum(sizes - n_in, existing_cap)[bucket])
    pu = inc[i]
    first = _first_pairs(np.unique(uid, return_inverse=True)[1], pu, pv)
    return _edges(uid, pu[first], pv[first],
                  np.full(first.size, KIND_BAND, np.int8))


def candidate_edges_fused(
    buckets: "Blocks | ray.data.Dataset",
    lsh: LSHConfig,
    simhash_hamming: int,
    anchor_bucket_cap: int = 4096,
    sim_group_cap: int = SIMHASH_GROUP_CAP,
    num_partitions: int = 128,
    uid_bits: int = 64,
    minhash: MinHashConfig | None = None,
    pre_fn=None,
) -> Blocks:
    """One hash shuffle on ``key``; per partition, vectorized per-kind
    emission and the digest prune (module docstring).  ``minhash``
    (default ``MinHashConfig()``) sets the near threshold.  ``pre_fn``
    builds the bucket rows inside the exchange's split tasks —
    ``run_dedup`` passes :func:`bucket_batch` and its signature
    :class:`~.common.Blocks`, so the rows are never stored unsplit.
    Returns (u, v, kind) candidate edges, u and v of the bucket rows'
    uid type (:func:`candidate_reduce`, an Arrow/numpy reducer);
    ``uid_bits``, the width of those uids, types the result when no
    partition holds a row."""
    mh = minhash or MinHashConfig()
    # most fingerprint bits that may differ: with m_min equal slots at
    # most P - m_min bits differ, over any P (unused bits are equal)
    max_diff = mh.num_perms - min_slot_matches(mh)

    emit = functools.partial(
        candidate_reduce, group_cap=lsh.group_cap, hamming=simhash_hamming,
        anchor_cap=anchor_bucket_cap, sim_cap=sim_group_cap, max_diff=max_diff)
    return grouped_apply(buckets, ["key"], emit, num_partitions=num_partitions,
                         empty_result=empty_edges(uid_bits), arrow_fn=True,
                         pre_fn=pre_fn)


def gate_candidates(
    incoming: "Blocks | ray.data.Dataset",
    existing: "Blocks | ray.data.Dataset",
    minhash: MinHashConfig,
    existing_cap: int,
    num_partitions: int = 64,
) -> Blocks:
    """(u, v, kind) band candidates of the near-dup import gates, u
    incoming and v existing: per band bucket, every incoming doc × the
    first ``existing_cap`` existing docs by uid.  Per-incoming emission
    is bounded by bands × existing_cap whatever the bucket skew, and
    the cap is part of the gates' definition (their SQL oracle ranks
    the same way), not a silent truncation.  Each side's band rows are
    built in the exchange's split tasks; :func:`gate_reduce` pairs
    them."""

    def side(is_ex: bool):
        def rows(t: pa.Table) -> pa.Table:
            b = bucket_batch(t, minhash, (KIND_BAND,))
            return pa.table({
                "key": b["key"], "uid": b["uid"],
                "is_ex": pa.array(np.full(len(b), is_ex), pa.bool_())})
        return rows

    return grouped_apply([incoming, existing], ["key"],
                         functools.partial(gate_reduce, existing_cap=existing_cap),
                         num_partitions=num_partitions,
                         empty_result=empty_edges(), arrow_fn=True,
                         pre_fn=[side(False), side(True)])
