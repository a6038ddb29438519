"""Content-defined chunking (CDC) kernel: Rabin-style fixed-window
boundaries + order-encoded commutative chunk keys, one vectorized pass
per batch.

The reference dedups at FILE granularity (whole-content SHA-256,
``files/hash.go:245-264``); classic storage dedup goes one level finer
— split each document at positions chosen by its *content* (a rolling
window hash hitting a divisor pattern), so an insertion or deletion
only re-chunks the neighborhood of the edit while every chunk after
the next boundary realigns byte-identically (Muthitacharoen et al.,
"A Low-Bandwidth Network File System", SOSP '01; the FastCDC line of
work speeds the same idea up).  Duplicate chunks across documents then
dedup exactly like duplicate files.

Engine/oracle contract (both sides re-derive, nothing is copied):

* boundary rule: a new chunk starts at byte position ``c > 0`` iff the
  ``k``-byte window hash starting at ``c`` (the mix64-finalized
  rolling polynomial of :func:`..functions.hashing.rolling_hashes`,
  i.e. the exact kernel the substring anchors already use and
  ``sqlgen.roll_poly_cte`` already re-derives in HUGEINT SQL)
  satisfies ``h % divisor == divisor - 1``.  Expected chunk size ≈
  ``divisor`` bytes.  No min/max clamp: the pure windowed rule keeps
  the decision a function of ``k`` local bytes — SQL-expressible and
  edit-local — where FastCDC's clamps would re-introduce sequential
  state.  (The trade: a pathological byte run can yield tiny or huge
  chunks; acceptable for dedup analytics, documented here.)
* chunk key: ``sum_j mix64((offset_j << 8) | byte_j) mod 2^64`` over
  the chunk's bytes, ``offset_j`` the 0-based position *within* the
  chunk.  The sum is order-independent but the offsets encode order,
  so the key respects byte order while staying computable as one
  vectorized ``np.add.reduceat`` here and one ``GROUP BY ... sum()``
  in DuckDB — no sequential recurrence on either side.

Everything is one concatenated pass over the batch (the
``window_hashes`` pattern): no per-doc numpy dispatch, no
per-row Python.
"""

from __future__ import annotations

import numpy as np

from .hashing import mix64, window_hashes

CDC_WINDOW = 8      # boundary window bytes (k)
CDC_DIVISOR = 64    # expected chunk size in bytes


def cdc_chunk_arrays(bufs: list[bytes], k: int = CDC_WINDOW,
                     divisor: int = CDC_DIVISOR):
    """Chunk every buffer, one vectorized pass over the whole batch.

    Returns ``(doc_idx, ck, clen)``: for each chunk, the index of its
    source buffer in ``bufs`` (int64), its u64 content key, and its
    byte length (int64).  Chunks tile each non-empty buffer exactly
    (``sum(clen) == sum(len(b))``); empty buffers yield no chunks.
    """
    n_docs = len(bufs)
    lens = np.fromiter((len(b) for b in bufs), np.int64, n_docs)
    total = int(lens.sum())
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.uint64),
                np.empty(0, np.int64))
    b_all = np.frombuffer(b"".join(bufs), np.uint8)
    ends_of_doc = np.cumsum(lens)
    boff = ends_of_doc - lens                      # doc start offsets

    # boundary windows: one batched rolling-hash pass, cuts mapped
    # back to (doc, local position) without a per-doc loop
    hcat = window_hashes(b_all, np.r_[0, ends_of_doc], (k,))[0]
    woff = np.concatenate([[0], np.cumsum(np.maximum(lens - k + 1, 0))])
    if hcat.size:
        cut = np.flatnonzero(hcat % np.uint64(divisor)
                             == np.uint64(divisor - 1))
        doc_of = np.searchsorted(woff, cut, side="right") - 1
        local = cut - woff[doc_of]
        keep = local > 0                           # position 0 already starts
        cut_bytes = boff[doc_of[keep]] + local[keep]
    else:
        cut_bytes = np.empty(0, np.int64)

    # global chunk starts: every non-empty doc's offset 0 plus its
    # cuts; global byte offsets are strictly increasing across docs,
    # so one sort yields doc-grouped, position-ordered starts
    starts = np.sort(np.concatenate([boff[lens > 0], cut_bytes]))
    ends = np.append(starts[1:], total)
    clen = ends - starts

    # chunk keys: offset-within-chunk transported in the high bits,
    # byte value in the low 8, mixed, then segment-summed
    offs = np.arange(total, dtype=np.uint64) - np.repeat(
        starts.astype(np.uint64), clen)
    terms = mix64((offs << np.uint64(8)) | b_all.astype(np.uint64))
    ck = np.add.reduceat(terms, starts)            # mod-2^64 wraparound
    doc_idx = np.searchsorted(ends_of_doc, starts, side="right")
    return doc_idx.astype(np.int64), ck, clen
