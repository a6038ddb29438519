"""Signature kernel A/B: in-process per-part rates of ``SignatureStage``
on one or more source trees, and equality of their output tables.

Docs: the extracted ok rows of ``generate_pages(--pages, --seed)`` (the
dedupbench crawl), cut into ``--batch``-row batches (the pipeline's
``signature_batch_size``).  With ``--non-ascii``, every batch's last
row is one of a few non-ASCII texts (final sigma, dotted capital I,
ligatures, CJK, non-BMP letters and digits), so every batch takes the
tokenizer's general (UTF-32) path instead of the ASCII byte path; the
records count the batches whose bytes are all ASCII.  Per tree, in a fresh child process with the
tree on ``PYTHONPATH``, each part runs over every batch, median of
``--repeat`` passes:

* ``total``: ``SignatureStage()(batch)``, the whole kernel;
* ``tokenize``: the SimHash word tokens;
* ``windows``: the rolling hashes at the shingle width and the anchor
  window (the text's utf-8 bytes included);
* ``shingle_sets``: each doc's distinct shingles;
* ``minhash``: the OPH signature from the shingle sets;
* ``simhash``: the bit sums and majority from the token ids;
* ``anchors``: the anchor lists from the window hashes;
* ``crc32`` (batched trees only): the tokens' CRC-32s by
  ``crc32_spans``, the part of ``tokenize`` it replaces;
* ``crc32_dedupe_zlib`` (batched trees only): the same CRC-32s by the
  alternative design: gather the token bytes into one Arrow array,
  dictionary-encode it and run ``zlib.crc32`` once per distinct token.

A tree from before the batched kernel (no ``shingles.word_tokens``) is
timed through its own functions where they exist and, for the parts it
ran inline in ``__call__`` (shingle sets, anchors), through a replay of
those per-doc loops.  Trees alternate within a round, and the first
tree alternates across rounds.

Usage: python tools/sig_kernel_ab.py [--repos DIR1,DIR2] [--rounds 3]
                                     [--pages 1000] [--seed 7]
                                     [--batch 128] [--repeat 5]
                                     [--non-ascii]

Prints one JSON line per tree and round (``{"repo", "round", "docs",
"batch", "ascii_batches", "batches", "<part>_docs_per_s", ...}``) and a last line
``{"outputs_equal": ..., "digests": {...}}``; exits non-zero unless
every tree's output table is equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NON_ASCII = [
    "ΟΔΟΣ ΣΟΦΟΣ σοφός Σ the road of the wise " * 8,
    "İstanbul DİYARBAKIR şehir merkezi city centre " * 8,
    "ﬁnance ﬂow ǅemal Größe naïve café STRASSE " * 8,
    "日本語のテキスト 東京 漢字 mixed with latin words " * 8,
    "𝐀𝐁𝐂 letters 𝟎𝟏𝟐 digits 😀 emoji ٠١٢ arabic " * 8,
]


def _docs(pages: int, seed: int, batch: int, non_ascii: bool):
    import pyarrow as pa
    import pyarrow.compute as pc

    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.stages.extract import ExtractStage

    t, _ = generate_pages(pages, seed=seed)
    out = ExtractStage()(t.drop_columns(["text"]))
    out = out.filter(pc.is_null(out["error"])).select(["url", "text"])
    if not non_ascii:
        return out
    urls, texts = out["url"].to_pylist(), out["text"].to_pylist()
    mixed_urls, mixed = [], []
    for b, i in enumerate(range(0, len(texts), batch - 1)):
        mixed_urls += urls[i:i + batch - 1] + [f"https://non-ascii.example/{b}"]
        mixed += texts[i:i + batch - 1] + [NON_ASCII[b % len(NON_ASCII)]]
    return pa.table({"url": pa.array(mixed_urls, pa.string()),
                     "text": pa.array(mixed, pa.string())})


def _crc32_dedupe_zlib(tok):
    """CRC-32 of every token span: one zlib call per distinct token."""
    import zlib

    import numpy as np
    import pyarrow as pa

    n = tok.starts.size
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(tok.lens, out=offs[1:])
    gather = np.repeat(tok.starts - offs[:-1], tok.lens) + np.arange(offs[-1])
    enc = pa.Array.from_buffers(pa.large_binary(), n, [
        None, pa.py_buffer(offs), pa.py_buffer(tok.data[gather])]
    ).dictionary_encode()
    words = enc.dictionary.to_pylist()
    crc = np.fromiter(map(zlib.crc32, words), np.uint32, len(words))
    return crc[enc.indices.to_numpy()]


def _batched_parts(st):
    """Part functions of a tree with the batched kernel, each mapping
    one batch's prepared inputs to its output."""
    import numpy as np

    from deduplicator_go_ray.functions.hashing import byte_view, window_hashes
    from deduplicator_go_ray.functions.shingles import crc32_spans, word_tokens

    ks = (st.cfg.shingle_k, st.sub.window)

    def prep(b):
        texts, data, offs = byte_view(b["text"])
        tok = word_tokens(texts, st.sim.seed)
        wins = window_hashes(data, offs, ks)
        lens = np.diff(offs)
        sets = st._shingle_sets(wins[0].copy(), lens, texts)
        return dict(texts=texts, data=data, offs=offs, lens=lens, tok=tok,
                    wins=wins, sets=sets)

    return prep, {
        "tokenize": lambda p: word_tokens(p["texts"], st.sim.seed),
        "windows": lambda p: window_hashes(p["data"], p["offs"], ks),
        "shingle_sets": lambda p: st._shingle_sets(p["wins"][0].copy(),
                                                   p["lens"], p["texts"]),
        "minhash": lambda p: st._minhash_all(*p["sets"]),
        "simhash": lambda p: st._simhash_all(p["tok"].ids, p["tok"].counts),
        "anchors": lambda p: st._anchors_all(p["wins"][1], p["lens"]),
        "crc32": lambda p: crc32_spans(p["tok"].data, p["tok"].starts,
                                       p["tok"].lens),
        "crc32_dedupe_zlib": lambda p: _crc32_dedupe_zlib(p["tok"]),
    }


def _per_doc_parts(st):
    """Part functions of a tree from before the batched kernel: its own
    tokenizer, rolling pass and OPH, and replays of its inline per-doc
    shingle-set and anchor loops."""
    import numpy as np
    import pyarrow as pa

    from deduplicator_go_ray.functions.hashing import (hash64_str,
                                                       rolling_hashes_many)
    from deduplicator_go_ray.functions.shingles import word_tokens_u64_many
    from deduplicator_go_ray.stages.signatures import simhash_bit_sums

    k, w = st.cfg.shingle_k, st.sub.window

    def windows(p):
        datas = [(t or "").encode("utf-8") for t in p["texts"]]
        return rolling_hashes_many(datas, k), rolling_hashes_many(datas, w)

    def shingle_sets(p):
        sets = [np.empty(0, np.uint64) if not d
                else hash64_str([t], seed=1) if len(d) < k
                else np.unique(r)
                for t, d, r in zip(p["texts"], p["datas"], p["wins"][0])]
        lengths = np.array([s.size for s in sets], np.int64)
        flat = (np.concatenate([s for s in sets if s.size]) if lengths.sum()
                else np.empty(0, np.uint64))
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
        return flat, starts, lengths

    def simhash(p):
        flat, lengths = p["tok"]
        nz = lengths > 0
        sums = simhash_bit_sums(flat, lengths[nz])
        return (((2 * sums) > lengths[nz][:, None]).astype(np.uint64)
                << st.shifts).sum(axis=1, dtype=np.uint64)

    def anchors(p):
        mod = np.uint64(st.sub.modulus)
        out = [np.empty(0, np.int64) if len(d) < st.sub.min_len
               else np.unique(h[h % mod == 0]).view(np.int64)
               for d, h in zip(p["datas"], p["wins"][1])]
        return pa.array([a.tolist() for a in out], pa.list_(pa.int64()))

    def prep(b):
        texts = b["text"].to_pylist()
        p = dict(texts=texts, datas=[(t or "").encode("utf-8") for t in texts])
        p["tok"] = word_tokens_u64_many(texts, seed=st.sim.seed)
        p["wins"] = windows(p)
        p["sets"] = shingle_sets(p)
        return p

    return prep, {
        "tokenize": lambda p: word_tokens_u64_many(p["texts"], st.sim.seed),
        "windows": windows,
        "shingle_sets": shingle_sets,
        "minhash": lambda p: st._minhash_all(*p["sets"]),
        "simhash": simhash,
        "anchors": anchors,
    }


def child(args) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.feather as feather

    from deduplicator_go_ray.functions import shingles
    from deduplicator_go_ray.stages.signatures import SignatureStage

    docs = _docs(args.pages, args.seed, args.batch, args.non_ascii)
    batches = [docs.slice(i, args.batch) for i in range(0, len(docs), args.batch)]
    ascii_batches = sum(all(t is None or t.isascii()
                            for t in b["text"].to_pylist()) for b in batches)
    st = SignatureStage()
    prep, parts = (_batched_parts if hasattr(shingles, "word_tokens")
                   else _per_doc_parts)(st)
    prepped = [prep(b) for b in batches]
    if "crc32" in parts:
        for p in prepped:
            assert np.array_equal(parts["crc32"](p),
                                  parts["crc32_dedupe_zlib"](p))

    def rate(fn, inputs) -> float:
        fn(inputs[0])                                   # warm the caches
        runs = []
        for _ in range(args.repeat):
            t = time.perf_counter()
            for x in inputs:
                fn(x)
            runs.append(len(docs) / (time.perf_counter() - t))
        return statistics.median(runs)

    rec = {"docs": len(docs), "batch": args.batch,
           "ascii_batches": ascii_batches, "batches": len(batches),
           "total_docs_per_s": rate(st, batches)}
    for name, fn in parts.items():
        rec[f"{name}_docs_per_s"] = rate(fn, prepped)
    out = pa.concat_tables([st(b) for b in batches])
    feather.write_feather(out, args.out)
    print("RESULT " + json.dumps({k: round(v, 1) if isinstance(v, float)
                                  else v for k, v in rec.items()}), flush=True)


def _run(args, repo: str, out: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--out", out,
           "--pages", str(args.pages), "--seed", str(args.seed),
           "--batch", str(args.batch), "--repeat", str(args.repeat)]
    cmd += ["--non-ascii"] if args.non_ascii else []
    env = dict(os.environ,
               PYTHONPATH=repo + os.pathsep + os.environ.get("PYTHONPATH", ""))
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=args.timeout, cwd=repo)
    res = [json.loads(ln[7:]) for ln in p.stdout.splitlines()
           if ln.startswith("RESULT ")]
    if p.returncode or not res:
        raise RuntimeError(f"{repo}: child failed\n{p.stderr[-2000:]}")
    return res[0]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repos", default=HERE)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--pages", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--batch", type=int, default=128)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--non-ascii", action="store_true")
    ap.add_argument("--timeout", type=int, default=900)
    ap.add_argument("--child", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.child:
        child(args)
        return
    import pyarrow.feather as feather

    repos = [os.path.abspath(r) for r in args.repos.split(",")]
    tables: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(args.rounds):
            for i, repo in enumerate(repos if rnd % 2 == 0 else repos[::-1]):
                out = os.path.join(tmp, f"{rnd}-{i}.arrow")
                rec = _run(args, repo, out)
                print(json.dumps({"repo": os.path.basename(repo), "round": rnd,
                                  **rec}), flush=True)
                tables.setdefault(repo, feather.read_table(out))
    first = next(iter(tables.values()))
    equal = all(t.equals(first) for t in tables.values())
    digests = {os.path.basename(r): hashlib.sha256(
        repr(t.to_pydict()).encode()).hexdigest()[:16] for r, t in tables.items()}
    print(json.dumps({"outputs_equal": equal, "digests": digests}), flush=True)
    if not equal:
        sys.exit(1)


if __name__ == "__main__":
    main()
