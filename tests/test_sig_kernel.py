"""The signature kernel's contracts: the batched tokenizer equals the
per-token reference it replaced, the SignatureStage output is pinned by
digest, and the store's kernel fingerprint is unchanged, so signature
stores filled before the batched kernel stay valid."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import re
import zlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from deduplicator_go_ray.functions import shingles
from deduplicator_go_ray.functions.hashing import mix64
from deduplicator_go_ray.functions.shingles import crc32_spans, word_tokens
from deduplicator_go_ray.sources.corpus import generate_pages
from deduplicator_go_ray.stages.signatures import SignatureStage
from deduplicator_go_ray.state.sigstore import sig_config_version

SMALL = settings(max_examples=80, deadline=None)


def _reference(texts, seed: int = 0):
    """The token identity as a per-token loop: ``re`` ``\\w+`` over the
    lowered text, crc32 + (length << 32) + seed through mix64."""
    ids, counts = [], []
    for t in texts:
        toks = re.findall(r"\w+", (t or "").lower())
        counts.append(len(toks))
        ids += [zlib.crc32(w.encode("utf-8")) + (len(w) << 32) + seed
                for w in toks]
    return mix64(np.array(ids, np.uint64)), np.array(counts, np.int64)


# 0 keeps every span in the vector steps; the default finishes the few
# longest in zlib; a huge ratio sends every span to zlib
_RATIOS = (0, shingles._CRC_TAIL_RATIO, 10**9)


@contextlib.contextmanager
def _tail_ratio(ratio: int):
    old, shingles._CRC_TAIL_RATIO = shingles._CRC_TAIL_RATIO, ratio
    try:
        yield
    finally:
        shingles._CRC_TAIL_RATIO = old


def _assert_tokens(texts, seed: int = 0) -> None:
    """``word_tokens`` equals the reference on a list input and on Arrow
    inputs (chunked, and sliced so the buffers start at an offset), for
    every split between the vector steps and the zlib tail; each
    token's span holds its bytes."""
    arr = pa.array(texts, pa.string())
    cases = [(list(texts), texts), (arr, texts),
             (pa.chunked_array([arr]), texts), (arr.slice(1), texts[1:])]
    for (x, ref), ratio in itertools.product(cases, _RATIOS):
        ids, counts = _reference(ref, seed)
        with _tail_ratio(ratio):
            tok = word_tokens(x, seed)
        assert np.array_equal(tok.ids, ids)
        assert np.array_equal(tok.counts, counts)
        spans = [tok.data[s:s + n].tobytes()
                 for s, n in zip(tok.starts, tok.lens)]
        assert spans == [w.encode() for t in ref
                         for w in re.findall(r"\w+", (t or "").lower())]


# characters whose lowering or \w membership is easy to get wrong
_TRICKY = ("\u03a3\u03c3\u03c2", "\u0130\u0131i\u0307", "\u01c5\u01c8\u01cb",
           "\ufb01\ufb02\u1e9e\u00df", "_", "\u0301\u0308\u20dd",
           "\U0001d400\U0001d41a\U0001d7ce\U00010400\U00010428\U0001f600",
           "\u0660\u0661\u0662", "\n\r\t ", "aZ09", "-.,")


@SMALL
@given(st.lists(st.one_of(
    st.none(),
    st.text(alphabet=st.sampled_from("".join(_TRICKY)), max_size=40),
    st.text(max_size=30)), max_size=12),
       st.integers(min_value=0, max_value=2**32))
def test_word_tokens_equal_per_token_reference(texts, seed):
    _assert_tokens(texts, seed)


def test_word_tokens_named_cases():
    long = "Ab" * 40_000                                # one 80,000-byte token
    cases = [
        [None, "", "   ", "a"],
        ["ΟΔΟΣ ΣΟΦΟΣ ΑΣ.ΑΣ Σ", "İstanbul İİx", "ǅemal ﬁnance STRASSE ẞ"],
        ["𝐀𝐁𝐂 𝟎𝟏𝟐 𐐀𐐨 😀word", "٠١٢٣ é café", "snake_case __x__"],
        ["line1\nline2\r\nLINE3", "tab\there", long, "after " + long + " x"],
        ["abc", "def", "", "ghi jkl"],                 # ASCII, adjacent docs
        ["\u212a kelvin"],                              # lowers to ASCII
    ]
    for texts in cases:
        _assert_tokens(texts)


@SMALL
@given(st.binary(min_size=0, max_size=400),
       st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)),
                max_size=40))
def test_crc32_spans_equal_zlib(data, spans):
    buf = np.frombuffer(data, np.uint8)
    spans = [(min(s, len(data)), min(l, len(data) - min(s, len(data))))
             for s, l in spans]
    starts = np.array([s for s, _ in spans], np.int64)
    lens = np.array([l for _, l in spans], np.int64)
    want = [zlib.crc32(data[s:s + l]) for s, l in spans]
    for ratio in _RATIOS:
        with _tail_ratio(ratio):
            assert crc32_spans(buf, starts, lens).tolist() == want


def test_crc32_long_token_alone_goes_to_zlib(monkeypatch):
    """A batch's one very long token finishes in zlib while its short
    tokens stay in the vector steps: a handful of zlib calls, not one
    per token."""
    calls = []

    def counting(buf, value=0):
        calls.append(len(buf))
        return zlib.crc32(buf, value)

    monkeypatch.setattr(shingles, "crc32", counting)
    pages, _ = generate_pages(64, seed=7)
    texts = pages["text"].to_pylist()[:63] + ["x" * 70000 + " tail"]
    tok = word_tokens(texts)
    assert tok.ids.size > 5000
    assert 1 <= len(calls) <= 8
    assert max(calls) > 69000
    ids, _ = _reference(texts)
    assert np.array_equal(tok.ids, ids)


# ---- the SignatureStage output, pinned ---------------------------------------
NON_ASCII = [
    "ΟΔΟΣ ΣΟΦΟΣ ΑΣ σοφός Σ ΑΣ.ΑΣ ΑΣ1 Σ_Σ",         # final sigma
    "İstanbul İİİ DİYARBAKIR İİx",                  # İ lowers to two codepoints
    "ǅemal ǈubav ǋ ﬁnance ﬂow ﬃ",                   # titlecase digraphs, ligatures
    "𝐀𝐁𝐂 letters 𝟎𝟏𝟐 digits 𐐀𐐨 deseret 😀😀 👍🏽",   # non-BMP
    "٠١٢٣ arabic ٤٥ digits snake_case __init__",
    "e\u0301 combining cafe\u0301 \u00f1 line1\nline2\r\nLINE3",
    "日本語のテキスト 東京 漢字 " * 12,
    "Größe naïve café 東京 żółw ẞtraße STRASSE " * 30,
    "x" * 70000 + " tail",                          # a token longer than 64 KiB
    "", "a", "tiny",
]


def _corpus() -> pa.Table:
    pages, _ = generate_pages(200, seed=7)
    texts = pages["text"].to_pylist()
    for i, t in enumerate(NON_ASCII):
        texts.insert((i * 37) % len(texts), t)
    return pa.table({"url": [f"https://x.example/{i}" for i in range(len(texts))],
                     "text": pa.array(texts, pa.string())})


def _digest(out: pa.Table, cols) -> str:
    h = hashlib.sha256()
    for name in cols:
        if len(cols) > 1:
            h.update(name.encode())
        h.update(repr(out[name].to_pylist()).encode())
    return h.hexdigest()[:16]


def test_signature_stage_output_pinned():
    """The digests were taken from the per-doc kernel (per-token crc32
    generators, one rolling pass per width, per-doc ``np.unique``) that
    the batched kernel replaced; 64-row batches, so rows of every kind
    share batches with ASCII rows."""
    t = _corpus()
    out = pa.concat_tables([SignatureStage()(t.slice(i, 64))
                            for i in range(0, len(t), 64)])
    assert len(out) == 212
    assert _digest(out, ("minhash", "simhash", "n_shingles", "anchors",
                         "sig_error")) == "92273794a7983771"
    plain = pa.concat_tables([SignatureStage(compute_anchors=False)(
        t.slice(i, 64)) for i in range(0, len(t), 64)])
    assert "anchors" not in plain.column_names
    assert _digest(plain, ("minhash",)) == "118de28b295c8e92"


def test_sig_config_version_unchanged():
    """A store filled by the per-doc kernel stays valid: its rows carry
    this fingerprint, and a changed one would recompute every row."""
    assert sig_config_version() == 1936131290427472258
    assert sig_config_version({"compute_anchors": False}) == -6359637791545487582
