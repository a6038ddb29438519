"""Fixture-corpus contract tests (FIXTURES.md §1/§4)."""

import numpy as np
import pytest

from deduplicator_go_ray.sources.corpus import BOILERPLATE, generate_pages


def test_corpus_deterministic():
    p1, t1 = generate_pages(300, seed=42)
    p2, t2 = generate_pages(300, seed=42)
    assert p1.equals(p2)
    assert t1.equals(t2)


def test_corpus_planted_structure():
    pages, truth = generate_pages(800, seed=42)
    texts = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    tdf = truth.to_pandas()

    ex = tdf[tdf.relation == "exact"]
    assert len(ex) > 0
    assert all(texts[r.url_a] == texts[r.url_b] for _, r in ex.iterrows())

    nh = tdf[tdf.relation == "near_high"]
    assert len(nh) > 0
    assert (nh.jaccard >= 0.92).all()

    nb = tdf[tdf.relation == "near_border"]
    assert (nb.jaccard < 0.92).all()

    sub = tdf[tdf.relation == "substring"]
    assert len(sub) > 0
    assert all(
        texts[r.url_a] in texts[r.url_b] or texts[r.url_b] in texts[r.url_a]
        for _, r in sub.iterrows()
    )

    guard = tdf[tdf.relation == "nondup_size_guard"]
    assert len(guard) == 4
    for _, r in guard.iterrows():
        ta, tb = texts[r.url_a], texts[r.url_b]
        assert ta != tb
        assert len(ta.encode()) == len(tb.encode())

    # error rows present with empty text
    empty = [u for u, t in texts.items() if t == ""]
    assert len(empty) >= 1

    # boilerplate hot block in ~30% of docs
    frac = sum(1 for t in texts.values() if BOILERPLATE in t) / len(texts)
    assert 0.15 < frac < 0.45


def test_extraction_golden_identity():
    """text column IS the extraction of html (byte-identity invariant)."""
    from deduplicator_go_ray.functions.text import extract_text

    pages, _ = generate_pages(200, seed=42)
    for html, text in zip(pages["html"].to_pylist(), pages["text"].to_pylist()):
        got, err = extract_text(html)
        assert got == text


@pytest.mark.parametrize("seed", [7, 42])
def test_corpus_small_sizes_keep_only_whole_truth_pairs(seed):
    """Every size builds: a cut that drops a member of a planted pair
    drops that truth pair (seed 7 used to raise IndexError at 5 and
    10-14 rows), and every surviving pair names two existing pages."""
    for n in range(1, 31):
        pages, truth = generate_pages(n, seed=seed)
        assert len(pages) == n
        urls = set(pages["url"].to_pylist())
        assert set(truth["url_a"].to_pylist()) <= urls
        assert set(truth["url_b"].to_pylist()) <= urls
