"""Signature stage: 128-perm MinHash + 64-bit SimHash + substring anchors.

This is the engine's stateful heavy kernel — the slot the reference
fills with its streaming SHA-256 worker pool (``files/files.go:18-156``,
pool ``files/process.go:243-307``).  It runs as a task-based map stage
whose instance is cached per worker process
(``pipelines/dedup.py:_signature_cached``): the seeded permutation
constants are built once per worker in ``__init__`` (≙ ST1 in
SURVEY.md §2.3), each ``__call__`` processes one
Arrow batch fully vectorized (numpy over concatenated shingle arrays,
``np.minimum.reduceat`` per document — no Python loop over shingles).

Per-row failures are captured in-band (``error`` column) exactly as the
reference writes ``HASH_ERROR`` sentinels instead of aborting the run
(``files/hash.go:245-264``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import MinHashConfig, SimHashConfig, SubstringConfig
from ..functions.hashing import mix64, rolling_hashes
from ..functions.shingles import word_tokens_u64_many

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

    def _minhash_all(self, flat: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """(ndocs, num_perms) signature matrix over concatenated shingles.

        One-permutation hashing (Li/Owen/Zhang 2012) with rotation
        densification (Shrivastava/Li 2014): each shingle hash lands in
        bucket = top-log2(P) bits, the per-(doc,bucket) minimum is the
        signature slot, and empty buckets borrow from the nearest
        occupied bucket to the right (circularly), salted by the
        distance.  One O(total_shingles) pass replaces 128 independent
        permutation passes — the classic-vs-OPH estimator variance is
        comparable, and exact-dup signatures stay identical.
        """
        P = self.cfg.num_perms
        ndocs = len(starts)
        sig = np.full(ndocs * P, _U64_MAX, dtype=np.uint64)
        if flat.size:
            shift = np.uint64(64 - P.bit_length() + 1)  # P a power of two
            bucket = (flat >> shift).astype(np.int64)
            doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lengths)
            np.minimum.at(sig, doc_idx * P + bucket, flat)
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

    def _simhash_all(self, texts: list[str]) -> np.ndarray:
        """64-bit SimHash per text over word-token features."""
        flat, lengths = word_tokens_u64_many(texts, seed=self.sim.seed)
        out = np.zeros(len(texts), dtype=np.uint64)
        nonempty = lengths > 0
        if not nonempty.any():
            return out
        sums = simhash_bit_sums(flat, lengths[nonempty])
        majority = (2 * sums) > lengths[nonempty][:, None]
        packed = (majority.astype(np.uint64) << self.shifts).sum(axis=1, dtype=np.uint64)
        out[nonempty] = packed
        return out

    def _anchors(self, text: str) -> np.ndarray:
        """Winnowing-style substring anchors: rolling-hash values of
        `window`-byte windows sampled where hash % modulus == 0."""
        data = text.encode("utf-8")
        if len(data) < self.sub.min_len:
            return np.empty(0, dtype=np.uint64)
        h = rolling_hashes(data, self.sub.window)
        sel = h[h % np.uint64(self.sub.modulus) == 0]
        return np.unique(sel)

    # -- batch entry ---------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import hash64_str, rolling_hashes_many

        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        # one utf-8 encode per doc, shared by the shingle and anchor
        # rolling-hash passes; encode failure → in-band HASH_ERROR
        # sentinel (≙ files/hash.go:245-264), row survives
        datas: list[bytes] = []
        errors: list[str | None] = []
        for t in texts:
            try:
                datas.append((t or "").encode("utf-8"))
                errors.append(None)
            except Exception:
                datas.append(b"")
                errors.append("HASH_ERROR")
        k = self.cfg.shingle_k
        rolls = rolling_hashes_many(datas, k)
        shingle_sets: list[np.ndarray] = []
        for t, d, r, err in zip(texts, datas, rolls, errors):
            if err is not None or not d:
                shingle_sets.append(np.empty(0, dtype=np.uint64))
            elif len(d) < k:
                # ≙ char_shingles_u64's tiny-document identity hash
                shingle_sets.append(hash64_str([t or ""], seed=1))
            else:
                shingle_sets.append(np.unique(r))
        lengths = np.array([s.size for s in shingle_sets], dtype=np.int64)
        flat = (np.concatenate([s for s in shingle_sets if s.size])
                if lengths.sum() else np.empty(0, np.uint64))
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)

        sig = self._minhash_all(flat, starts, lengths)
        sim = self._simhash_all(texts)

        out = batch.append_column(
            "minhash",
            pa.FixedSizeListArray.from_arrays(pa.array(sig.reshape(-1), pa.uint64()),
                                              self.cfg.num_perms),
        )
        out = out.append_column("simhash", pa.array(sim, pa.uint64()))
        out = out.append_column("n_shingles", pa.array(lengths, pa.int64()))
        if self.compute_anchors:
            # int64 bit-view — anchor values feed a groupby key downstream
            # (batched rolling pass over the shared encoded buffers;
            # identical values to the per-doc _anchors method)
            rollw = rolling_hashes_many(datas, self.sub.window)
            mod = np.uint64(self.sub.modulus)
            anchors = []
            for d, h in zip(datas, rollw):
                if len(d) < self.sub.min_len:
                    anchors.append(np.empty(0, dtype=np.int64))
                else:
                    anchors.append(
                        np.unique(h[h % mod == 0]).view(np.int64))
            out = out.append_column(
                "anchors",
                pa.array([a.tolist() for a in anchors], pa.list_(pa.int64())),
            )
        if "sig_error" not in out.column_names:
            out = out.append_column("sig_error", pa.array(errors, pa.string()))
        return out


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Row-wise signature-estimated Jaccard of two (n, P) matrices."""
    return (sig_a == sig_b).mean(axis=1)
