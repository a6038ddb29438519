"""Count-min-sketch heavy-hitter properties (the SQL-oracle hash
equality runs in tools/check_oracle.py — the driver protocol)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from deduplicator_go_ray.pipelines.sketch_queries import (
    CMS_DEPTH, CMS_WIDTH, _batch_words, _buckets, _cms_grid,
    cms_heavy_hitters)

SF = "/root/testdata/sf0.001"


def _exact_counts(sf_dir: str) -> Counter:
    import re

    import pyarrow.parquet as pq
    texts = pq.read_table(sf_dir + "/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    return Counter(w for s in texts for w in re.findall(r"\w+", s.lower()))


def test_cms_never_underestimates(ray_session):
    """The defining CMS guarantee: est(w) ≥ true(w) for every word."""
    grid = _cms_grid(SF)
    exact = _exact_counts(SF)
    words = list(exact)
    for w in words[:500]:
        _, hw, _ = _batch_words(pa.table({"text": [w]}))
        bk = _buckets(hw)
        est = int(grid[np.arange(CMS_DEPTH)[:, None], bk].min())
        assert est >= exact[w], (w, est, exact[w])


def test_cms_total_is_token_count(ray_session):
    grid = _cms_grid(SF)
    total = int(grid[0].sum())
    assert total == sum(_exact_counts(SF).values())
    # every row folds the whole stream
    assert all(int(grid[r].sum()) == total for r in range(CMS_DEPTH))


def test_heavy_hitters_cover_all_true_hitters(ray_session):
    """No false negatives: every word whose TRUE count clears the
    threshold must be reported (overestimates only ADD rows)."""
    hh = cms_heavy_hitters(SF).to_pandas()
    exact = _exact_counts(SF)
    total = sum(exact.values())
    thr = (total + 999) // 1000
    true_hitters = {w for w, c in exact.items() if c >= thr}
    reported = set(hh["word"])
    assert true_hitters <= reported
    # and the estimates dominate the true counts
    for w, est in zip(hh["word"], hh["est_count"]):
        assert est >= exact[w]
    # deterministic ordering: est desc, word asc
    key = list(zip(-hh["est_count"], hh["word"]))
    assert key == sorted(key)


def test_heavy_hitter_threshold_scales_with_permille(ray_session,
                                                     monkeypatch):
    """HH_PERMILLE = 2 sets the threshold to ceil(2 * total / 1000): the
    report is exactly the permille-1 report's words whose estimate
    clears the doubled bar (not every word, as a zero bar would give)."""
    from deduplicator_go_ray.pipelines import sketch_queries

    total = int(_cms_grid(SF)[0].sum())
    one = cms_heavy_hitters(SF).to_pandas()
    monkeypatch.setattr(sketch_queries, "HH_PERMILLE", 2)
    two = cms_heavy_hitters(SF).to_pandas()
    thr = (2 * total + 999) // 1000
    assert thr > (total + 999) // 1000
    assert 0 < len(two) < len(one)
    assert set(two["word"]) == set(one.loc[one["est_count"] >= thr, "word"])


def test_hll_estimates_within_error_bound(ray_session):
    """Raw-regime accuracy: the HLL estimate per lang lands within the
    ~1.04/sqrt(m) relative-error envelope (3 sigma) of the exact
    distinct-shingle count."""
    from deduplicator_go_ray.functions.hashing import rolling_hashes
    from deduplicator_go_ray.pipelines.sketch_queries import (
        HLL_M, SHINGLE_K, hll_distinct_shingles)

    import pyarrow.parquet as pq
    docs = pq.read_table(SF + "/documents.parquet", columns=["text", "lang"])
    bufs = [s.encode("utf-8") for s in docs["text"].to_pylist()]
    hs = [rolling_hashes(b, SHINGLE_K) for b in bufs]
    exact: dict[str, set] = {}
    for lang, h in zip(docs["lang"].to_pylist(), hs):
        exact.setdefault(lang, set()).update(h.tolist())
    est = hll_distinct_shingles(SF)
    tol = 3 * 1.04 / np.sqrt(HLL_M)
    for lang, _, e in est.itertuples(index=False):
        true = len(exact[lang])
        assert abs(e - true) / true < tol, (lang, e, true)
        assert true > 2.5 * HLL_M  # raw-estimator regime, no correction


def test_hll_bit_length_exact():
    from deduplicator_go_ray.pipelines.sketch_queries import _bit_length_u64
    xs = np.array([0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 54) - 1,
                   (1 << 54), (2**54) - 1], dtype=np.uint64)
    assert _bit_length_u64(xs).tolist() == [int(x).bit_length() for x in xs]


def test_grid_merge_is_additive():
    """Partial grids merge by addition — the mergeability the map-side
    combine relies on: grid(A ∪ B) == grid(A) + grid(B)."""
    a = pa.table({"text": ["the quick brown fox", "jumps over the dog"]})
    b = pa.table({"text": ["the lazy dog sleeps"]})
    both = pa.table({"text": list(a["text"].to_pylist())
                     + list(b["text"].to_pylist())})

    def grid_of(t):
        g = np.zeros((CMS_DEPTH, CMS_WIDTH), np.int64)
        _, h, cnt = _batch_words(t)
        if h.size:
            bk = _buckets(h)
            for r in range(CMS_DEPTH):
                np.add.at(g[r], bk[r], cnt)
        return g

    assert (grid_of(both) == grid_of(a) + grid_of(b)).all()
