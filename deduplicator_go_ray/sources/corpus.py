"""Deterministic synthetic web-page corpus with planted duplicate structure.

Plays the role of the reference's test fixtures — go-sqlmock canned
rows (``files/duplicates_scenarios_test.go:17-100``), tempdir file
trees (``files/process_test.go:23-47``) and the Gherkin scenario
contracts (``test/scenarios/duplicates.md``) — per FIXTURES.md §1:

* exact dups (~10% of rows): identical ``text`` under 2-5 urls;
  ``html`` identical except a url-bearing nav href (stripped by
  extraction, so text stays byte-identical).
* near dups high (~10%): 0.5-2% token edits, shingle-Jaccard ≳ 0.92.
* near dups borderline (~5%): 8-15% edits, Jaccard ≈ 0.65-0.88
  (excluded from the recall denominator, reported separately).
* substring dups (~2%): doc A's full visible text embedded verbatim
  inside a 3-5× longer doc B.
* size-guard pairs (4): same length, different content — must land in
  different groups (≙ same-hash-different-size split,
  ``files/duplicates_scenarios_test.go:60-100``).
* boilerplate hot band: one shared 40-token block injected into ~30%
  of groups — forces a giant LSH band bucket (skew exercise).
* error rows (~1%): invalid-utf8 / truncated / empty html → in-band
  ``error`` sentinels (≙ ``files/hash.go:245-264``).
* uniques: the rest.

Everything derives from one seed; ``text`` is this engine's own
extraction of ``html`` (frozen golden), so extraction byte-identity is
testable by construction.  Relations are labelled from the *measured*
char-shingle Jaccard at the engine's config (k=9): ≥ 0.92 → near_high
(in the recall denominator), else near_border.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.shingles import char_shingles_u64, jaccard
from ..functions.text import extract_text

EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z in microseconds

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "han", "jel", "kom", "lun", "mar",
    "nor", "pel", "qua", "rin", "sol", "tam", "ver", "wex", "yor", "zan",
]

_LANG_STOPS = {
    "en": ["the", "and", "of", "to", "that", "for", "with", "is"],
    "de": ["der", "und", "nicht", "mit", "eine", "von", "das", "ist"],
    "fr": ["le", "les", "est", "une", "des", "pour", "dans", "que"],
    "es": ["el", "los", "una", "que", "por", "para", "con", "es"],
}

BOILERPLATE = (
    "subscribe newsletter cookie consent privacy policy terms service "
    "follow twitter facebook linkedin share article related stories "
    "trending topics sponsored content advertisement partner offers "
    "download mobile app sign account manage preferences help center "
    "contact support careers press media sitemap accessibility statement"
)  # 40 tokens


def _make_vocab(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    vocab = []
    for _ in range(600):
        n = int(rng.integers(2, 5))
        vocab.append("".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), n)))
    return vocab


@dataclass
class _Doc:
    kind: str                    # unique|exact|near_base|near_var|sub_a|sub_b|size_guard|error
    group: int
    title: str = ""
    paras: list[list[str]] = field(default_factory=list)
    boiler: bool = False
    error_mode: str | None = None
    member: int = 0


def _doc_text_lines(d: _Doc) -> list[str]:
    lines = [d.title]
    if d.boiler:
        lines.append(BOILERPLATE)
    lines.extend(" ".join(p) for p in d.paras)
    return lines


def _wrap_html(d: _Doc, url: str) -> bytes:
    """Deterministic HTML wrapper.  The nav carries the url in an href
    (tag-internal, stripped by extraction) so exact-dup members have
    distinct html but byte-identical text."""
    parts = [
        "<html><head><title>", d.title, "</title>",
        '<style>body { font: 14px sans-serif; }</style>',
        "</head><body>",
        f'<nav><a href="{url}" rel="home"></a></nav>',
    ]
    if d.boiler:
        parts.append(f"<nav>{BOILERPLATE}</nav>")
    for p in d.paras:
        parts.append("<p>" + " ".join(p) + "</p>")
    parts.append('<script type="text/javascript">var tracked = true;</script>')
    parts.append("</body></html>")
    return "".join(parts).encode("utf-8")


def _rand_paras(rng: np.random.Generator, vocab: list[str], lang: str,
                n_paras: int, words_per: tuple[int, int]) -> list[list[str]]:
    stops = _LANG_STOPS.get(lang, _LANG_STOPS["en"])
    paras = []
    for _ in range(n_paras):
        n = int(rng.integers(*words_per))
        idx = rng.integers(0, len(vocab), n)
        words = [vocab[int(i)] for i in idx]
        # weave function words in so lang-id heuristics have signal
        for j in range(0, n, 4):
            words[j] = stops[int(rng.integers(0, len(stops)))]
        paras.append(words)
    return paras


def _edit(rng: np.random.Generator, vocab: list[str],
          paras: list[list[str]], rate: float) -> list[list[str]]:
    out = []
    for p in paras:
        p = list(p)
        n_edits = max(1, int(len(p) * rate)) if rate > 0 else 0
        for _ in range(n_edits):
            op = int(rng.integers(0, 3))
            pos = int(rng.integers(0, len(p)))
            if op == 0:
                p[pos] = vocab[int(rng.integers(0, len(vocab)))]
            elif op == 1 and len(p) > 3:
                del p[pos]
            else:
                p.insert(pos, vocab[int(rng.integers(0, len(vocab)))])
        out.append(p)
    return out


def generate_pages(n_rows: int, seed: int = 42,
                   shingle_k: int = 9) -> tuple[pa.Table, pa.Table]:
    """Build (pages, truth_pairs) tables; fully deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(seed + 1)
    langs = ["en"] * 9 + ["de", "fr", "es"]

    docs: list[_Doc] = []
    truth: list[tuple[int, int, str]] = []  # (doc_idx_a, doc_idx_b, relation)
    group = 0

    def new_group() -> int:
        nonlocal group
        group += 1
        return group

    budget = {
        "exact": int(n_rows * 0.10),
        "near_high": int(n_rows * 0.10),
        "near_border": int(n_rows * 0.05),
        "substring": int(n_rows * 0.02),
        "error": max(1, int(n_rows * 0.01)),
    }

    def base_doc(kind: str, g: int, lang: str, n_paras=(2, 6), words=(40, 120)) -> _Doc:
        title = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), 4))
        return _Doc(kind=kind, group=g, title=title,
                    paras=_rand_paras(rng, vocab, lang, int(rng.integers(*n_paras)), words),
                    boiler=bool(rng.random() < 0.30))

    # exact groups: 2-5 members of identical content
    used = 0
    while used < budget["exact"]:
        g = new_group()
        size = int(rng.integers(2, 6))
        lang = langs[int(rng.integers(0, len(langs)))]
        d = base_doc("exact", g, lang)
        members = []
        for m in range(size):
            dm = _Doc(kind="exact", group=g, title=d.title, paras=d.paras,
                      boiler=d.boiler, member=m)
            members.append(len(docs))
            docs.append(dm)
        a0 = members[0]
        truth.extend((a0, b, "exact") for b in members[1:])
        used += size

    # near-dup groups (high + borderline), mostly pairs, some triples
    for klass, rate_lo, rate_hi in (("near_high", 0.005, 0.02), ("near_border", 0.08, 0.15)):
        used = 0
        while used < budget[klass]:
            g = new_group()
            lang = langs[int(rng.integers(0, len(langs)))]
            base = base_doc("near_base", g, lang, n_paras=(3, 6))
            n_var = 2 if rng.random() < 0.15 else 1
            base_idx = len(docs)
            docs.append(base)
            for m in range(n_var):
                rate = float(rng.uniform(rate_lo, rate_hi))
                var = _Doc(kind="near_var", group=g, title=base.title,
                           paras=_edit(rng, vocab, base.paras, rate),
                           boiler=base.boiler, member=m + 1)
                truth.append((base_idx, len(docs), klass))
                docs.append(var)
            used += 1 + n_var

    # substring pairs: A's full visible text embedded inside longer B
    used = 0
    while used < budget["substring"]:
        g = new_group()
        lang = langs[int(rng.integers(0, len(langs)))]
        a = base_doc("sub_a", g, lang, n_paras=(2, 3), words=(50, 90))
        a.boiler = False
        b = base_doc("sub_b", g, lang, n_paras=(3, 5), words=(60, 120))
        b.boiler = False
        # B's paragraph stream embeds A's title + paragraphs verbatim
        embed_at = 1 + int(rng.integers(0, max(1, len(b.paras) - 1)))
        b.paras = b.paras[:embed_at] + [[a.title]] + list(a.paras) + b.paras[embed_at:]
        a_idx = len(docs); docs.append(a)
        b_idx = len(docs); docs.append(b)
        truth.append((a_idx, b_idx, "substring"))
        used += 2

    # 4 size-guard pairs: same byte length, different content → non-dup
    for _ in range(4):
        g = new_group()
        a = base_doc("size_guard", g, "en", n_paras=(2, 3), words=(40, 60))
        a.boiler = False
        b = _Doc(kind="size_guard", group=g, title=a.title,
                 paras=[[vocab[(int(rng.integers(0, len(vocab))))] for _ in p] for p in a.paras],
                 boiler=False, member=1)
        # pad the shorter one's last word byte-by-byte until lengths match
        ta = "\n".join(_doc_text_lines(a)); tb = "\n".join(_doc_text_lines(b))
        while len(tb.encode()) < len(ta.encode()):
            b.paras[-1][-1] += "x"; tb = "\n".join(_doc_text_lines(b))
        while len(ta.encode()) < len(tb.encode()):
            a.paras[-1][-1] += "x"; ta = "\n".join(_doc_text_lines(a))
        a_idx = len(docs); docs.append(a)
        b_idx = len(docs); docs.append(b)
        truth.append((a_idx, b_idx, "nondup_size_guard"))

    # error rows
    for i in range(budget["error"]):
        docs.append(_Doc(kind="error", group=new_group(),
                         error_mode=("invalid", "truncated", "empty")[i % 3]))

    # uniques fill the remainder
    while len(docs) < n_rows:
        docs.append(base_doc("unique", new_group(),
                             langs[int(rng.integers(0, len(langs)))]))
    docs = docs[:n_rows]
    # a small n_rows cuts planted groups short: keep only the truth
    # pairs whose members both survive the cut
    truth = [t for t in truth if max(t[0], t[1]) < len(docs)]

    # ---- materialise rows (deterministic shuffle of row order) -------------
    order = rng.permutation(len(docs))
    pos_of = np.empty(len(docs), dtype=np.int64)
    pos_of[order] = np.arange(len(docs))

    urls, tss, htmls, texts, errs, langs_col = [], [], [], [], [], []
    for out_i, doc_i in enumerate(order):
        d = docs[int(doc_i)]
        key = hashlib.md5(f"{seed}:{doc_i}".encode()).hexdigest()[:16]
        url = f"https://site{int(doc_i) % 97}.example/{key}"
        if d.kind == "error":
            if d.error_mode == "invalid":
                html = b"<html><body>\xff\xfe\x80garbage</body></html>"
            elif d.error_mode == "truncated":
                html = "<html><body><p>héllo".encode("utf-8")[:-1]
            else:
                html = b""
        else:
            html = _wrap_html(d, url)
        text, err = extract_text(html)
        # lang metadata: derived deterministically from group
        lang = ["en", "en", "en", "en", "en", "en", "en", "en", "en",
                "de", "fr", "es"][d.group % 12]
        urls.append(url)
        tss.append(EPOCH_US + out_i * 60_000_000)
        htmls.append(html)
        texts.append(text)
        errs.append(err)
        langs_col.append(lang)

    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs_col, pa.string()),
    })

    # ---- truth pairs with measured Jaccard at the engine's config ----------
    t_urls_a, t_urls_b, t_rel, t_jac = [], [], [], []
    sh_cache: dict[int, np.ndarray] = {}

    def sh(i: int) -> np.ndarray:
        if i not in sh_cache:
            sh_cache[i] = char_shingles_u64(texts[int(pos_of[i])], shingle_k)
        return sh_cache[i]

    for a, b, rel in truth:
        j = jaccard(sh(a), sh(b))
        if rel in ("near_high", "near_border"):
            rel = "near_high" if j >= 0.92 else "near_border"
        ua, ub = urls[int(pos_of[a])], urls[int(pos_of[b])]
        if ua > ub:
            ua, ub = ub, ua
        t_urls_a.append(ua); t_urls_b.append(ub)
        t_rel.append(rel); t_jac.append(j)

    truth_pairs = pa.table({
        "url_a": pa.array(t_urls_a, pa.string()),
        "url_b": pa.array(t_urls_b, pa.string()),
        "relation": pa.array(t_rel, pa.string()),
        "jaccard": pa.array(t_jac, pa.float64()),
    })
    return pages, truth_pairs


def write_corpus(out_dir: str, n_rows: int, seed: int = 42,
                 shards: int | None = None) -> tuple[str, str]:
    """Write pages as a SHARDED parquet directory + truth_pairs.parquet,
    fixed row-group size (stable goldens).  Sharding matters: a single
    parquet file is one read task — a serial scan that caps the whole
    pipeline's scaling (and mirrors the resumable per-partition output
    layout the engine itself writes).  Returns (pages_dir, truth_path)."""
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    pages, truth = generate_pages(n_rows, seed)
    if shards is None:
        shards = max(1, min(64, n_rows // 2048))
    per = (len(pages) + shards - 1) // shards
    for i in range(shards):
        part = pages.slice(i * per, per)
        if len(part):
            pq.write_table(part, os.path.join(pages_dir, f"part-{i:04d}.parquet"),
                           row_group_size=2048)
    p2 = os.path.join(out_dir, "truth_pairs.parquet")
    pq.write_table(truth, p2, row_group_size=8192)
    return pages_dir, p2
