"""Shingle extraction for MinHash / SimHash signatures.

The reference's content-identity unit is the whole file (one SHA-256,
``files/files.go:76-156``); near-dup identity needs sub-document units:
character k-shingles (byte windows over utf-8 text) for MinHash and
word tokens for SimHash.  Both are produced as uint64 hash arrays so
the signature stages never touch Python strings in their hot loop.

**Token identity** (SimHash features, count-min words): a text is
lowercased with ``str.lower()``, per text, since lowering can change
its length (``"İ".lower()`` is two codepoints); a token is a maximal
run of codepoints ``c`` with ``chr(c).isalnum() or c == "_"`` — exactly
Python's ``\\w``; its id is ``mix64(crc32(utf-8 bytes) + (length in
codepoints << 32) + seed)``.  That is ``re.findall(r"\\w+", t.lower())``
with a ``zlib.crc32`` per token, which the property tests keep as the
reference.  :func:`word_tokens` computes it for a whole batch with no
per-token Python: ASCII batches lowercase and classify their bytes
with ``bytes.lower``/``bytes.translate``; other batches go through one UTF-32 codepoint array
(a 64 K BMP ``\\w`` table built once per process, the rare non-BMP
codepoints looked up once per distinct value); CRC-32 runs table-driven
across all tokens at once, one byte position per step over the tokens
still that long (:func:`crc32_spans`).
"""

from __future__ import annotations

from typing import NamedTuple
from zlib import crc32

import numpy as np
import pyarrow as pa

from .hashing import byte_view, hash64_str, mix64, rolling_hashes

# \w membership of each ASCII byte, as a bytes.translate table
_ASCII_WORD = bytes(int(chr(b).isalnum() or b == 0x5F) if b < 0x80 else 0
                    for b in range(256))

_BMP_WORD: np.ndarray | None = None


def _bmp_word_table() -> np.ndarray:
    """``\\w`` membership of every BMP codepoint (built once per process)."""
    global _BMP_WORD
    if _BMP_WORD is None:
        table = np.fromiter((chr(c).isalnum() for c in range(0x10000)),
                            bool, 0x10000)
        table[0x5F] = True
        _BMP_WORD = table
    return _BMP_WORD


def _is_word(cps: np.ndarray) -> np.ndarray:
    """``\\w`` mask of a uint32 codepoint array."""
    word = _bmp_word_table()[np.minimum(cps, 0xFFFF)]   # U+FFFF is not \w
    hi = np.flatnonzero(cps > 0xFFFF)
    if hi.size:
        u, inv = np.unique(cps[hi], return_inverse=True)
        word[hi] = np.array([chr(c).isalnum() for c in u.tolist()], bool)[inv]
    return word


def _crc_table() -> np.ndarray:
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, (t >> 1) ^ np.uint32(0xEDB88320), t >> 1)
    return t.astype(np.uint32)


_CRC_TABLE = _crc_table()
# one vector step costs about as much as this many zlib calls
_CRC_TAIL_RATIO = 8


def crc32_spans(data: np.ndarray, starts: np.ndarray,
                lens: np.ndarray) -> np.ndarray:
    """``zlib.crc32(data[s:s+l])`` for every span, as uint32.  The
    spans are ordered longest first, so byte position ``j`` updates a
    prefix of them (the spans longer than ``j``) with one table gather.
    The vector steps stop at the ``j`` that minimises ``j`` steps plus
    the spans still longer than ``j`` (:data:`_CRC_TAIL_RATIO` zlib
    calls per step); those few finish in ``zlib.crc32`` from their
    running value, so a batch's one very long token costs one call,
    not one vector step per byte, and the short majority never leaves
    the vector steps."""
    n = starts.size
    out = np.empty(n, np.uint32)
    if n == 0:
        return out
    order = np.argsort(-lens)
    sl = lens[order]
    ss = starts[order].astype(np.int64)
    maxlen = int(sl[0])
    # active[j]: spans longer than j — a prefix of the order
    active = n - np.searchsorted(sl[::-1], np.arange(maxlen + 1),
                                 side="right")
    stop = int(np.argmin(_CRC_TAIL_RATIO * np.arange(maxlen + 1) + active))
    reg = np.full(n, 0xFFFFFFFF, np.uint32)
    for j in range(stop):
        c = reg[:active[j]]             # in place: reg's active prefix
        x = data.take(ss[:c.size] + j)
        x ^= c.astype(np.uint8)         # (crc ^ byte) & 0xFF
        c >>= 8
        c ^= _CRC_TABLE.take(x)
    reg ^= np.uint32(0xFFFFFFFF)
    if active[stop]:
        mv = memoryview(np.ascontiguousarray(data))
        for i, (s, l, r) in enumerate(zip(ss[:active[stop]].tolist(),
                                          sl[:active[stop]].tolist(),
                                          reg[:active[stop]].tolist())):
            reg[i] = crc32(mv[s + stop:s + l], r)
    out[order] = reg
    return out


class WordTokens(NamedTuple):
    """A batch's word tokens in text order.  ``data`` holds the utf-8
    bytes of the lowercased texts; token ``i`` is
    ``data[starts[i]:starts[i] + lens[i]]``."""
    ids: np.ndarray       # uint64 token ids
    counts: np.ndarray    # int64 tokens per text
    data: np.ndarray      # uint8
    starts: np.ndarray    # int64 byte offsets into data
    lens: np.ndarray      # int64 byte lengths


def _runs(word: np.ndarray, doc_starts: np.ndarray):
    """(start, end) positions of the maximal ``word`` runs, cut at every
    document start."""
    n = word.size
    edge = np.empty(n + 1, bool)           # runs begin/end at the edges
    edge[0] = n and word[0]
    edge[n] = n and word[-1]
    np.not_equal(word[1:], word[:-1], out=edge[1:n])
    idx = np.flatnonzero(edge)             # start, end, start, end, ...
    cut = np.unique(doc_starts[(doc_starts > 0) & (doc_starts < n)])
    cut = cut[word[cut] & word[cut - 1]]   # a run spanning two docs
    if cut.size:
        idx = np.sort(np.concatenate([idx, cut, cut]))
    return idx[0::2], idx[1::2]


def word_tokens(texts, seed: int = 0) -> WordTokens:
    """Word tokens of a batch (a pyarrow string/binary (Chunked)Array or
    a str list; null counts as ""), with the module docstring's token
    identity."""
    arr, raw, offs = byte_view(texts)
    low = raw.tobytes().lower()
    if low.isascii():
        return _ascii_tokens(low, offs[:-1], seed)
    lowered = [t.lower() for t in arr.cast(pa.large_string()).to_pylist()]
    doc_starts = np.zeros(len(lowered), np.int64)
    lens = np.fromiter(map(len, lowered), np.int64, len(lowered))
    np.cumsum(lens[:-1] + 1, out=doc_starts[1:])
    joined = "\n".join(lowered)       # "\n" is never \w: runs stop there
    cps = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    u8 = (1 + (cps >= 0x80).astype(np.int64) + (cps >= 0x800)
          + (cps >= 0x10000))
    boff = np.zeros(cps.size + 1, np.int64)
    np.cumsum(u8, out=boff[1:])
    data = np.frombuffer(joined.encode("utf-8"), np.uint8)
    return _tokens(_is_word(cps), data, doc_starts, boff, seed)


def _ascii_tokens(low: bytes, doc_starts: np.ndarray, seed: int) -> WordTokens:
    """Tokens of lowercased ASCII bytes: one byte per codepoint."""
    return _tokens(np.frombuffer(low.translate(_ASCII_WORD), bool),
                   np.frombuffer(low, np.uint8), doc_starts, None, seed)


def _tokens(word: np.ndarray, data: np.ndarray, doc_starts: np.ndarray,
            boff: np.ndarray | None, seed: int) -> WordTokens:
    """Tokens from a ``\\w`` mask over positions (bytes when ``boff`` is
    None, else codepoints with ``boff`` their utf-8 byte offsets)."""
    cs, ce = _runs(word, doc_starts)
    counts = np.diff(np.searchsorted(cs, np.r_[doc_starts, word.size]))
    if boff is None:
        bs, bl = cs.astype(np.int64), (ce - cs).astype(np.int64)
    else:
        bs = boff[cs]
        bl = boff[ce] - bs
    chars = (ce - cs).astype(np.uint64)
    ids = mix64(crc32_spans(data, bs, bl).astype(np.uint64)
                + (chars << np.uint64(32)) + np.uint64(seed))
    return WordTokens(ids, counts.astype(np.int64), data, bs, bl)


def char_shingles_u64(text: str, k: int) -> np.ndarray:
    """Unique uint64 hashes of all k-byte shingles of utf-8 `text`.

    Text shorter than k bytes yields a single hash of the whole text so
    tiny documents still carry an identity.
    """
    data = text.encode("utf-8")
    if len(data) < k:
        if not data:
            return np.empty(0, dtype=np.uint64)
        return hash64_str([text], seed=1)
    return np.unique(rolling_hashes(data, k))


def word_tokens_u64(text: str, seed: int = 0) -> np.ndarray:
    """uint64 ids of one text's word tokens (with repetition)."""
    return word_tokens([text], seed=seed).ids


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard similarity of two unique-hash shingle sets."""
    if a.size == 0 and b.size == 0:
        return 1.0
    if a.size == 0 or b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)
