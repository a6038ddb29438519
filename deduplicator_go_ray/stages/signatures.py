"""Signature stage: 128-perm MinHash + 64-bit SimHash + substring anchors.

This is the engine's stateful heavy kernel — the slot the reference
fills with its streaming SHA-256 worker pool (``files/files.go:18-156``,
pool ``files/process.go:243-307``).  It runs as a task-based map stage
whose instance is cached per worker process
(``pipelines/dedup.py:_signature_cached``): the seeded permutation
constants are built once per worker in ``__init__`` (≙ ST1 in
SURVEY.md §2.3), and each ``__call__`` processes one Arrow batch as
batch-level numpy with no per-token or per-shingle Python: the texts'
utf-8 bytes are read out of the Arrow buffers, one prefix-sum pass
gives both the shingle and the anchor window hashes, the word tokens
come from the one batched tokenizer (``functions/shingles.py``), and the
anchors are deduplicated by one lexsort and built straight into list
offsets.

The reference writes ``HASH_ERROR`` sentinels instead of aborting the
run (``files/hash.go:245-264``); the ``sig_error`` column carries that
slot, and stays null here because Arrow text is always valid utf-8.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import MinHashConfig, SimHashConfig, SubstringConfig
from ..functions.hashing import byte_view, hash64_str, mix64, window_hashes
from ..functions.shingles import word_tokens

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

# SWAR bit-spread constants: b * _SWAR_MAGIC >> 7 & _SWAR_LOW places bit
# j of byte b into 8-bit lane (7 - j) of a uint64 — eight counters per
# machine word instead of one byte per bit.
_SWAR_MAGIC = np.uint64(0x8040201008040201)
_SWAR_LOW = np.uint64(0x0101010101010101)
_SWAR_SEG_CAP = 255  # max tokens per sub-segment before an 8-bit lane overflows
_SWAR_LUT = (((np.arange(256, dtype=np.uint64) * _SWAR_MAGIC)
              >> np.uint64(7)) & _SWAR_LOW)


def simhash_bit_sums(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment column sums of the 64 bit positions of ``flat``
    (concatenated uint64 token hashes; ``lengths`` = tokens per segment,
    all > 0).  Returns (n_segments, 64) int64 — bit position j in
    little-endian order, identical to
    ``np.add.reduceat(np.unpackbits(..., bitorder="little"), starts)``
    but ~7× faster: each token's 64 bits spread into 8 uint64 words of
    8-bit lanes (one multiply per byte), summed segment-wise by ONE
    ``np.add.reduceat`` over uint64 words (8 counters per add), with
    segments capped at 255 tokens so no lane overflows."""
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    # 8 bits -> 8 lanes per byte column via a 256-entry lookup (one
    # gather instead of an astype + multiply + shift + mask chain);
    # lane order is bit-reversed
    spread = _SWAR_LUT[flat.view(np.uint8)].reshape(-1, 8)
    n = len(lengths)
    splits = (lengths + (_SWAR_SEG_CAP - 1)) // _SWAR_SEG_CAP
    if int(splits.max(initial=1)) == 1:
        substarts, seg_of = starts, None
    else:
        substarts = np.concatenate([
            np.arange(s, s + l, _SWAR_SEG_CAP, dtype=np.int64)
            for s, l in zip(starts, lengths)])
        seg_of = np.repeat(np.arange(n, dtype=np.int64), splits)
    part = np.add.reduceat(spread, substarts, axis=0)
    # uint64 words -> 8-bit lanes; reverse lanes within each byte group
    lanes = (part.view(np.uint8).reshape(len(substarts), 8, 8)[:, :, ::-1]
             .reshape(len(substarts), 64).astype(np.int64))
    if seg_of is None:
        return lanes
    out = np.zeros((n, 64), dtype=np.int64)
    np.add.at(out, seg_of, lanes)
    return out


class SignatureStage:
    """Callable class for ``map_batches`` — one instance per actor."""

    def __init__(
        self,
        minhash: MinHashConfig | None = None,
        simhash: SimHashConfig | None = None,
        substring: SubstringConfig | None = None,
        compute_anchors: bool = True,
        text_col: str = "text",
    ) -> None:
        self.cfg = minhash or MinHashConfig()
        self.sim = simhash or SimHashConfig()
        self.sub = substring or SubstringConfig()
        self.compute_anchors = compute_anchors
        self.text_col = text_col
        if self.cfg.num_perms & (self.cfg.num_perms - 1):
            raise ValueError("num_perms must be a power of two (OPH bucketing)")
        self.shifts = np.arange(64, dtype=np.uint64)

    # -- kernels -------------------------------------------------------------

    def _shingle_sets(self, wins: np.ndarray, lens: np.ndarray,
                      texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
        """Each doc's shingle set from the batch's k-byte window hashes
        ``wins`` (doc order, doc ``d`` holding ``max(lens[d] - k + 1,
        0)``): its distinct window hashes in ascending order, or for a
        doc shorter than k bytes but not empty, one hash of its whole
        text (``char_shingles_u64``'s tiny-document identity).  Returns
        (flat sets in doc order, set sizes).  Each doc's windows are
        sorted in place, so its distinct values are the first of their
        runs."""
        k = self.cfg.shingle_k
        cnt = np.maximum(lens - k + 1, 0)
        sizes = np.zeros(len(lens), np.int64)
        docs = np.flatnonzero(cnt)
        ends = np.cumsum(cnt)[docs]
        starts = ends - cnt[docs]
        for s, e in zip(starts.tolist(), ends.tolist()):
            wins[s:e].sort()
        new = np.empty(wins.size, bool)
        np.not_equal(wins[1:], wins[:-1], out=new[1:])
        new[starts] = True
        flat = wins[new]
        if docs.size:
            sizes[docs] = np.add.reduceat(new, starts)
        tiny = np.flatnonzero((lens > 0) & (lens < k))
        if tiny.size:
            sizes[tiny] = 1
            at = np.zeros(int(sizes.sum()), bool)
            at[(np.cumsum(sizes) - 1)[tiny]] = True
            merged = np.empty(at.size, np.uint64)
            merged[at] = hash64_str(texts.take(pa.array(tiny)), seed=1)
            merged[~at] = flat
            flat = merged
        return flat, sizes

    def _minhash_all(self, flat: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
        """(ndocs, num_perms) signature matrix over the shingle sets
        (``flat``: each doc's set ascending, ``sizes`` per doc).

        One-permutation hashing (Li/Owen/Zhang 2012) with rotation
        densification (Shrivastava/Li 2014): each shingle hash lands in
        bucket = top-log2(P) bits, the per-(doc,bucket) minimum is the
        signature slot, and empty buckets borrow from the nearest
        occupied bucket to the right (circularly), salted by the
        distance.  One O(total_shingles) pass replaces 128 independent
        permutation passes — the classic-vs-OPH estimator variance is
        comparable, and exact-dup signatures stay identical.  The sets
        are ascending and the bucket is the hash's top bits, so each
        (doc, bucket) minimum is the first of its run.
        """
        P = self.cfg.num_perms
        ndocs = len(sizes)
        shift = np.uint64(64 - P.bit_length() + 1)  # P a power of two
        sig = np.full(ndocs * P, _U64_MAX, dtype=np.uint64)
        if flat.size:
            ends = np.cumsum(sizes)
            bucket = flat >> shift
            first = np.empty(flat.size, bool)
            np.not_equal(bucket[1:], bucket[:-1], out=first[1:])
            first[(ends - sizes)[sizes > 0]] = True
            at = np.flatnonzero(first)
            doc = np.searchsorted(ends, at, side="right")
            sig[doc * P + bucket[at].astype(np.int64)] = flat[at]
        sig = sig.reshape(ndocs, P)
        # --- rotation densification for rows with empty buckets ----------
        empty = sig == _U64_MAX
        rows = np.nonzero(empty.any(axis=1) & ~empty.all(axis=1))[0]
        if rows.size:
            sub = sig[rows]                                   # (m, P)
            occ = sub != _U64_MAX
            # distance to nearest occupied bucket at or after j (circular):
            # scan the doubled index space right-to-left once.
            m = rows.size
            nxt = np.full((m, 2 * P), -1, dtype=np.int64)
            occ2 = np.concatenate([occ, occ], axis=1)
            last = np.full(m, -1, dtype=np.int64)
            for j in range(2 * P - 1, -1, -1):
                last = np.where(occ2[:, j], j, last)
                nxt[:, j] = last
            src = nxt[:, :P] % P
            dist = (nxt[:, :P] - np.arange(P)[None, :]).astype(np.uint64)
            borrowed = mix64(np.take_along_axis(sub, src, axis=1) + dist)
            sig[rows] = np.where(occ, sub, borrowed)
        return sig

    def _simhash_all(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """64-bit SimHash per text over its word-token ids (``ids`` in
        text order, ``counts`` per text)."""
        out = np.zeros(len(counts), dtype=np.uint64)
        nonempty = counts > 0
        if not nonempty.any():
            return out
        sums = simhash_bit_sums(ids, counts[nonempty])
        majority = (2 * sums) > counts[nonempty][:, None]
        packed = (majority.astype(np.uint64) << self.shifts).sum(axis=1, dtype=np.uint64)
        out[nonempty] = packed
        return out

    def _anchors_all(self, wins: np.ndarray, lens: np.ndarray) -> pa.Array:
        """Winnowing-style substring anchors as a list column: per doc of
        at least ``min_len`` bytes, the distinct ``window``-byte window
        hashes (``wins``, doc order) that are ≡ 0 mod ``modulus``, in
        ascending uint64 order, bit-viewed as int64 (they feed a key
        column downstream).  One lexsort over (doc, hash) for the batch;
        the list offsets come straight from the per-doc counts."""
        cnt = np.maximum(lens - self.sub.window + 1, 0)
        mod = self.sub.modulus
        hit = np.flatnonzero(
            (wins & np.uint64(mod - 1) if mod & (mod - 1) == 0
             else wins % np.uint64(mod)) == 0)
        doc = np.searchsorted(np.cumsum(cnt), hit, side="right")
        ok = lens[doc] >= self.sub.min_len
        doc, val = doc[ok], wins[hit[ok]]
        order = np.lexsort((val, doc))
        doc, val = doc[order], val[order]
        new = np.ones(val.size, bool)
        new[1:] = (val[1:] != val[:-1]) | (doc[1:] != doc[:-1])
        offsets = np.zeros(len(lens) + 1, np.int32)
        np.cumsum(np.bincount(doc[new], minlength=len(lens)), out=offsets[1:])
        return pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(val[new].view(np.int64)))

    # -- batch entry ---------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the utf-8 bytes of every text (null → ""), read once out of the
        # Arrow buffers: ONE prefix-sum pass serves the shingle width and
        # the anchor window (functions/hashing.py:window_hashes)
        texts, data, offs = byte_view(batch[self.text_col])
        n = len(texts)
        lens = np.diff(offs)
        ks = (self.cfg.shingle_k,) + (
            (self.sub.window,) if self.compute_anchors else ())
        wins = window_hashes(data, offs, ks)

        flat, n_shingles = self._shingle_sets(wins[0], lens, texts)
        sig = self._minhash_all(flat, n_shingles)
        tok = word_tokens(texts, seed=self.sim.seed)
        sim = self._simhash_all(tok.ids, tok.counts)

        out = batch.append_column(
            "minhash",
            pa.FixedSizeListArray.from_arrays(pa.array(sig.reshape(-1), pa.uint64()),
                                              self.cfg.num_perms),
        )
        out = out.append_column("simhash", pa.array(sim, pa.uint64()))
        out = out.append_column("n_shingles", pa.array(n_shingles, pa.int64()))
        if self.compute_anchors:
            out = out.append_column("anchors", self._anchors_all(wins[1], lens))
        if "sig_error" not in out.column_names:
            # Arrow text is valid utf-8, so no row fails to hash; the
            # column keeps the store's row schema
            out = out.append_column("sig_error", pa.nulls(n, pa.string()))
        return out

