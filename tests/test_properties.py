"""Property-based checks (hypothesis) for the pure kernels — the
determinism contracts every distributed stage relies on."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from deduplicator_go_ray.functions.hashing import rolling_hashes
from deduplicator_go_ray.functions.shingles import char_shingles_u64, jaccard
from deduplicator_go_ray.functions.text import extract_text
from deduplicator_go_ray.functions.urls import canonicalize_url
from deduplicator_go_ray.stages.suffix import lcs_length

SMALL = settings(max_examples=60, deadline=None)


def _lcs_brute(a: str, b: str) -> int:
    best = 0
    for i in range(len(a)):
        for j in range(i + best + 1, len(a) + 1):
            if a[i:j] in b:
                best = j - i
            else:
                break
    return best


@SMALL
@given(st.text(alphabet="abcd ", max_size=40), st.text(alphabet="abcd ", max_size=40))
def test_lcs_matches_bruteforce(a, b):
    assert lcs_length(a, b) == _lcs_brute(a, b)


@SMALL
@given(st.binary(max_size=500))
def test_extract_total_and_deterministic(data):
    t1, e1 = extract_text(data)
    t2, e2 = extract_text(data)
    assert (t1, e1) == (t2, e2)
    assert (t1 == "") == (e1 is not None)


@SMALL
@given(st.text(max_size=300))
def test_extract_roundtrip_idempotent_on_plain_text(s):
    # plain text without markup survives extraction up to whitespace
    # normalization, and a second pass is a no-op
    t1, e1 = extract_text(s.encode("utf-8"))
    if e1 is not None:
        return
    t2, e2 = extract_text(t1.encode("utf-8"))
    assert e2 is None
    assert t2 == t1


@SMALL
@given(st.binary(min_size=0, max_size=300), st.integers(min_value=2, max_value=16))
def test_rolling_hash_window_locality(data, k):
    """Equal windows hash equally; count is len-k+1."""
    h = rolling_hashes(data, k)
    n = max(0, len(data) - k + 1)
    assert h.size == n
    for i in range(min(n, 8)):
        for j in range(i + 1, min(n, 8)):
            if data[i:i + k] == data[j:j + k]:
                assert h[i] == h[j]


@SMALL
@given(st.text(alphabet="abcdefg ", min_size=0, max_size=200))
def test_shingles_deterministic_and_set_semantics(s):
    a = char_shingles_u64(s, 5)
    b = char_shingles_u64(s, 5)
    assert np.array_equal(a, b)
    assert np.unique(a).size == a.size          # distinct shingles
    assert jaccard(a, a) in (1.0, 0.0)          # 0.0 only when empty


@SMALL
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=60))
def test_url_canonicalization_idempotent(path):
    u = f"https://Example.com/{path}"
    once = canonicalize_url(u)
    assert canonicalize_url(once) == once


@SMALL
@given(st.lists(st.text(max_size=50), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=64))
def test_hash64_chunking_invisible(strings, chunk_bytes):
    """hash64_str's internal payload chunking must be invisible: each
    value's hash depends only on its own bytes, so any chunk size gives
    bit-identical output (the determinism invariant under the cache-
    residency optimization)."""
    from deduplicator_go_ray.functions import hashing

    old = hashing._HASH_CHUNK_BYTES
    try:
        hashing._HASH_CHUNK_BYTES = 1 << 40
        ref = hashing.hash64_str(strings, seed=5)
        hashing._HASH_CHUNK_BYTES = chunk_bytes
        got = hashing.hash64_str(strings, seed=5)
    finally:
        hashing._HASH_CHUNK_BYTES = old
    assert np.array_equal(ref, got)


@SMALL
@given(st.lists(st.binary(max_size=120), min_size=0, max_size=25),
       st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=3),
       st.integers(min_value=8, max_value=300))
def test_window_hashes_equal_per_doc(datas, ks, chunk_bytes):
    """The batched rolling-hash pass (one prefix sum over the
    concatenated buffers for every width, chunked for cache residency)
    must be bit-identical to the per-doc function for every doc and
    width, any chunking."""
    from deduplicator_go_ray.functions import hashing

    lens = [len(d) for d in datas]
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    old = hashing._ROLL_CHUNK_BYTES
    try:
        hashing._ROLL_CHUNK_BYTES = chunk_bytes
        flats = hashing.window_hashes(np.frombuffer(b"".join(datas), np.uint8),
                                      offs, ks)
    finally:
        hashing._ROLL_CHUNK_BYTES = old
    for k, flat in zip(ks, flats):
        want = [rolling_hashes(d, k) for d in datas]
        assert np.array_equal(flat, np.concatenate(
            want) if want else np.empty(0, np.uint64))


@SMALL
@given(st.lists(st.integers(min_value=1, max_value=600),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=2**32))
def test_simhash_bit_sums_equals_unpackbits(lengths, seed):
    """The SWAR lane-packed segment sum must equal the naive
    unpackbits + reduceat per-bit column sums, including segments
    longer than the 255-token lane cap."""
    from deduplicator_go_ray.stages.signatures import simhash_bit_sums

    rng = np.random.default_rng(seed)
    lens = np.asarray(lengths, dtype=np.int64)
    flat = rng.integers(0, 2**63, int(lens.sum()), dtype=np.int64).view(np.uint64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
    bits = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    naive = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
    assert np.array_equal(naive, simhash_bit_sums(flat, lens))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),     # frames
       st.integers(min_value=1, max_value=24),    # height
       st.integers(min_value=1, max_value=24),    # width
       st.integers(min_value=1, max_value=40),    # palette colors
       st.booleans(),                             # interlace
       st.integers(min_value=0, max_value=2**32 - 1))
def test_gif_roundtrip_random(n, h, w, ncol, interlace, seed):
    """Any full-frame opaque animation survives encode→decode
    byte-exactly — LZW clear-code runs, width bumps near palette-size
    boundaries, and the interlace row permutation included."""
    import numpy as np

    from deduplicator_go_ray.functions.video import decode_gif, encode_gif

    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, (ncol, 3), dtype=np.uint8)
    idx = rng.integers(0, ncol, (n, h, w))
    frames = palette[idx]
    got, durs = decode_gif(encode_gif(frames, [10 * (i + 1) for i in range(n)],
                                      interlace=interlace))
    np.testing.assert_array_equal(got, frames)
    assert durs.tolist() == [10 * (i + 1) for i in range(n)]
