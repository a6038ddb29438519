"""Query-registry behavior tests (sf0.001 inputs — smallest driver tables).

The SQL-oracled queries are covered by the driver's DuckDB comparison
(and tools/check_oracle.py locally); these tests cover what the oracle
can't: near-dup recall against exact Jaccard, IVF recall against the
brute-force baseline, and determinism of the heuristic ops.
"""

from __future__ import annotations

import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def registry(ray_session):
    import __ray_entry__ as e

    return e.queries()


def _pair_set(df: pd.DataFrame, a: str, b: str) -> set[tuple[int, int]]:
    return {(min(x, y), max(x, y)) for x, y in zip(df[a], df[b])}


def test_registry_complete(registry, ray_session):
    import __ray_entry__ as e

    oracles = e.oracle_sql()
    assert set(oracles) <= set(registry)
    # every operator family from the build plan is represented
    for name in [
        "exact_dup_groups", "dup_size_groups", "keeper_assignments",
        "import_anti_join", "mirror_plan", "topk_groups",
        "ngram_jaccard_pairs", "minhash_lsh_pairs", "simhash_pairs",
        "embedding_dup_pairs", "ann_topk", "ann_ivf_topk",
        "token_counts", "quality_scores", "lang_id_pred", "doc_fingerprints",
        "dedup_pipeline", "import_near_gate", "tier_report",
    ]:
        assert name in registry, name


def test_minhash_recall_vs_exact_jaccard(registry):
    exact = registry["ngram_jaccard_pairs"](SF_DIR)
    lsh = registry["minhash_lsh_pairs"](SF_DIR)
    truth = _pair_set(exact, "doc_id_a", "doc_id_b")
    found = _pair_set(lsh, "doc_id_a", "doc_id_b")
    assert truth, "corpus should contain planted near-dup pairs"
    recall = len(truth & found) / len(truth)
    assert recall >= 0.99, f"recall {recall:.3f} on {len(truth)} truth pairs"


def test_simhash_finds_high_sim_pairs(registry):
    exact = registry["ngram_jaccard_pairs"](SF_DIR)
    sim = registry["simhash_pairs"](SF_DIR)
    near_exact = _pair_set(exact[exact["jaccard"] >= 0.95], "doc_id_a", "doc_id_b")
    found = _pair_set(sim, "doc_id_a", "doc_id_b")
    # SimHash (hamming ≤ 3) must catch the near-identical tier
    recall = len(near_exact & found) / max(len(near_exact), 1)
    assert recall >= 0.9, f"simhash recall {recall:.3f}"


def test_ann_ivf_recall(registry):
    exact = registry["ann_topk"](SF_DIR)
    approx = registry["ann_ivf_topk"](SF_DIR)
    hits = total = 0
    for qid, g in exact.groupby("query_id"):
        truth = set(g["neighbor_id"])
        got = set(approx[approx["query_id"] == qid]["neighbor_id"])
        hits += len(truth & got)
        total += len(truth)
    recall = hits / total
    assert recall >= 0.5, f"IVF nprobe recall {recall:.3f}"
    # every query answered with a full top-k
    assert (approx.groupby("query_id").size() == 10).all()


def test_fingerprints_deterministic(registry):
    a = registry["doc_fingerprints"](SF_DIR).to_pandas().sort_values("doc_id")
    b = registry["doc_fingerprints"](SF_DIR).to_pandas().sort_values("doc_id")
    assert (a["fingerprint"].to_numpy() == b["fingerprint"].to_numpy()).all()
    # fingerprints separate distinct docs (collision-free on this corpus)
    assert a["fingerprint"].nunique() >= a["doc_id"].nunique() * 95 // 100


def test_lang_id_deterministic_and_total(registry):
    out = registry["lang_id_pred"](SF_DIR).to_pandas()
    assert len(out) == 500
    assert out["pred_lang"].notna().all()


def test_embedding_pairs_symmetric_ordering(registry):
    pairs = registry["embedding_dup_pairs"](SF_DIR)
    assert (pairs["id_a"] < pairs["id_b"]).all()


def test_embedding_pairs_lsh_equals_exact(registry):
    # the bucketed (shuffle-keyed) plan recovers the exact all-pairs
    # result at the fixture threshold — same frame, same ordering
    exact = registry["embedding_dup_pairs"](SF_DIR)
    lsh = registry["embedding_dup_pairs_lsh"](SF_DIR)
    assert exact.equals(lsh), (len(exact), len(lsh))


def test_embedding_pairs_router_is_size_aware(registry):
    # exact_max_rows=0 forces the router onto the bucketed LSH plan;
    # the switch must be invisible in the result (same frame, same
    # ordering as the exact plan the oracle pins)
    from deduplicator_go_ray.pipelines.dedup_queries import (
        embedding_dup_pairs)
    exact = embedding_dup_pairs(SF_DIR, exact_max_rows=None)
    routed = embedding_dup_pairs(SF_DIR, exact_max_rows=0)
    assert exact.equals(routed), (len(exact), len(routed))


def test_ann_lsh_recall(registry):
    exact = registry["ann_topk"](SF_DIR)
    approx = registry["ann_lsh_topk"](SF_DIR)
    hits = total = 0
    for qid, g in exact.groupby("query_id"):
        truth = set(g["neighbor_id"])
        got = set(approx[approx["query_id"] == qid]["neighbor_id"])
        hits += len(truth & got)
        total += len(truth)
    assert hits / total >= 0.5, f"LSH ANN recall {hits / total:.3f}"


def test_embedding_clusters_consistent(registry):
    pairs = registry["embedding_dup_pairs"](SF_DIR)
    clusters = registry["embedding_clusters"](SF_DIR)
    root = dict(zip(clusters["vec_id"], clusters["cluster_root"]))
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        assert root[a] == root[b]
    # keeper = component minimum
    for r, g in clusters.groupby("cluster_root"):
        assert g["vec_id"].min() == r
        assert g[g["is_keeper"]]["vec_id"].iloc[0] == r


def test_long_substring_pairs(registry, ray_session):
    import duckdb

    from deduplicator_go_ray.stages.suffix import lcs_length

    out = registry["long_substring_pairs"](SF_DIR)
    found = _pair_set(out, "doc_id_a", "doc_id_b")

    # exact ground truth: true LCS of every near-dup candidate pair
    exact = registry["ngram_jaccard_pairs"](SF_DIR)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF_DIR}/documents.parquet'")
    texts = dict(con.execute("SELECT doc_id, text FROM documents").fetchall())
    strong = {(a, b) for a, b in _pair_set(exact, "doc_id_a", "doc_id_b")
              if lcs_length(texts[a], texts[b]) >= 400}
    assert strong, "corpus should contain pairs with long shared runs"
    recall = len(strong & found) / len(strong)
    assert recall >= 0.9, f"long-run recall {recall:.2f} on {len(strong)} pairs"

    # precision: every reported lcs_len is the true LCS and >= min_len
    for _, r in out.iterrows():
        true_lcs = lcs_length(texts[r.doc_id_a], texts[r.doc_id_b])
        assert r.lcs_len == true_lcs
        assert true_lcs >= 200


def test_lcs_kernel():
    from deduplicator_go_ray.stages.suffix import lcs_length

    assert lcs_length("", "x") == 0
    assert lcs_length("abcdef", "zabcq") == 3
    run = "shared exact fragment " * 20
    a = "prefix stuff " + run + " tail a"
    b = "other lead " + run + " different end"
    assert lcs_length(a, b) >= len(run)
    assert lcs_length("abc", "xyz") == 0


def test_hopping_window_fanout_law(registry):
    import duckdb

    from deduplicator_go_ray.pipelines.windows import (
        _HOP_MIN, _WINDOW_HOPS)

    out = registry["hopping_window_counts"](SF_DIR).to_pandas()
    n_events = duckdb.sql(
        f"SELECT COUNT(*) FROM '{SF_DIR}/events.parquet'").fetchone()[0]
    # every event lands in exactly _WINDOW_HOPS windows
    assert out["cnt"].sum() == _WINDOW_HOPS * n_events
    # window starts are hop-aligned
    assert (out["window_start"].dt.minute % _HOP_MIN == 0).all()
    assert (out["window_start"].dt.second == 0).all()


def test_delete_survivors_idempotent(registry, ray_session):
    """Q3 mutation half: survivors = corpus minus the plan's deleted
    ids; re-applying the same plan is a no-op (idempotent delete, the
    reference's already-missing branch)."""
    import ray.data

    from deduplicator_go_ray.pipelines.relational import (delete_plan,
                                                          delete_survivors)

    plan = delete_plan(SF_DIR)
    assert set(plan["status"]) <= {"deleted", "not_found"}
    n_del = int((plan["status"] == "deleted").sum())
    assert n_del >= 1                       # scope-visible rows exist
    assert (plan.loc[plan["status"] == "deleted", "freed_bytes"] > 0).all()
    assert (plan.loc[plan["status"] == "not_found", "freed_bytes"] == 0).all()

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                 columns=["doc_id", "source"])
    n_docs = docs.count()
    once = delete_survivors(docs, plan).materialize()
    assert once.count() == n_docs - n_del
    twice = delete_survivors(once, plan).materialize()
    assert twice.count() == once.count()    # idempotent
    gone = set(plan.loc[plan["status"] == "deleted", "doc_id"])
    left = {r["doc_id"] for r in once.select_columns(["doc_id"]).take_all()}
    assert gone.isdisjoint(left)


def test_import_near_gate_blocks_cross_split_dups(registry):
    """The near-dup import gate must block incoming docs with a
    verified near-dup on the existing side of the deterministic split,
    report an existing-side doc as evidence, and use the -1 sentinel
    for admitted rows."""
    from deduplicator_go_ray.pipelines.parity_queries import GATE_MOD

    out = registry["import_near_gate"](SF_DIR)
    assert (out["doc_id"] % GATE_MOD == 0).all()
    blocked = out[~out["admitted"]]
    assert len(blocked) > 0
    # evidence ids come from the existing (non-sample) side
    assert (blocked["match_id"] % GATE_MOD != 0).all()
    assert (out.loc[out["admitted"], "match_id"] == -1).all()


def test_embedding_clusters_distributed_path_identical(registry, ray_session):
    """The size-aware component switch must be invisible in the output:
    forcing the distributed large-star/small-star tier
    (max_onetask_edges=0) yields the exact frame the one-task kernel
    produces."""
    from deduplicator_go_ray.pipelines.ann_queries import embedding_clusters

    onetask = embedding_clusters(SF_DIR)
    dist = embedding_clusters(SF_DIR, max_onetask_edges=0)
    pd.testing.assert_frame_equal(
        onetask.reset_index(drop=True), dist.reset_index(drop=True))


def test_pair_queries_verify_plans_equal(ray_session, monkeypatch):
    # VERDICT r2 #4: the standalone pair queries' scale twins must
    # produce byte-identical pairs to their endpoint index plans.
    # minhash_lsh_pairs takes the verify stage's plan: with the near
    # round-2 cap at 0 it is the two-attach check.  ngram_jaccard_pairs
    # has one plan, checked against its oracle below
    from deduplicator_go_ray.pipelines.dedup_queries import minhash_lsh_pairs
    from deduplicator_go_ray.stages import verify

    small = minhash_lsh_pairs(SF_DIR).reset_index(drop=True)
    monkeypatch.setattr(verify, "NEAR_ROUND2_MAX_BYTES", 0)
    keyed = minhash_lsh_pairs(SF_DIR).reset_index(drop=True)
    pd.testing.assert_frame_equal(small, keyed)
    assert len(small) > 0


def _ngram_and_oracle(tmp_path, texts: list[str]):
    """``ngram_jaccard_pairs`` and its registered oracle SQL over a
    ``documents.parquet`` of ``texts`` (doc_id = position)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from deduplicator_go_ray.pipelines.dedup_queries import ngram_jaccard_pairs

    path = tmp_path / "documents.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                             "text": pa.array(texts, pa.string())}), path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    oracle = (con.execute(e.oracle_sql()["ngram_jaccard_pairs"]).fetch_df()
              .sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True))
    return ngram_jaccard_pairs(str(tmp_path)), oracle


def test_ngram_pairs_find_a_pair_of_hot_grams(ray_session, tmp_path):
    """Every gram that docs A and B share occurs in 203 docs: 201
    fillers are the same 60-word passage plus 40 words of their own.
    J(A, B) = 58/62 and every other pair is below 0.8.  A cap on gram
    document frequency (the earlier plan skipped buckets of more than
    200 docs) loses the pair; the prefix filter must not."""
    passage = [f"p{i}" for i in range(60)]
    texts = [" ".join(passage + [f"f{d}w{j}" for j in range(40)])
             for d in range(201)]
    texts += [" ".join(passage + ["a0", "a1"]), " ".join(passage + ["b0", "b1"])]
    got, oracle = _ngram_and_oracle(tmp_path, texts)
    pd.testing.assert_frame_equal(got, oracle)
    assert list(zip(got["doc_id_a"], got["doc_id_b"])) == [(201, 202)]
    assert got["jaccard"][0] == 58 / 62


def test_ngram_pairs_keep_a_pair_at_the_threshold(ray_session, tmp_path):
    """A 35-gram doc and a 28-gram doc whose grams are a subset of it:
    J = 28/35 = 0.8 exactly, so the length filter (0.8 · 35 = 28) and
    the positional filter sit at equality.  A strict comparison, or a
    prefix length rounded the wrong way, drops the pair."""
    words = [f"x{i}" for i in range(37)]
    texts = [" ".join(words), " ".join(words[:30]),
             " ".join(f"y{i}" for i in range(40)),
             " ".join(words[:3] + [f"z{i}" for i in range(20)])]
    got, oracle = _ngram_and_oracle(tmp_path, texts)
    pd.testing.assert_frame_equal(got, oracle)
    assert list(zip(got["doc_id_a"], got["doc_id_b"], got["jaccard"])) == [
        (0, 1, 0.8)]


_GRAM_SETS = st.lists(st.one_of(st.integers(0, 40),
                                st.integers(-(1 << 63), (1 << 63) - 1)),
                      unique=True, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_GRAM_SETS, _GRAM_SETS), max_size=12))
def test_overlap_counts_match_intersect1d(pairs):
    """The batched overlap count equals ``np.intersect1d`` pair by
    pair, with empty, identical and disjoint sets always in the batch."""
    import numpy as np

    from deduplicator_go_ray.pipelines.dedup_queries import overlap_counts

    some = pairs[0][0] if pairs else [3, 1, 2]
    pairs = pairs + [([], []), ([], some), (some, some),
                     ([1, 2, 3], [4, 5, 6])]
    sets = [[np.array(s, np.int64) for s in side] for side in zip(*pairs)]
    got = overlap_counts(*(a for side in sets for a in (
        np.array([len(s) for s in side], np.int64),
        np.concatenate(side))))
    want = [np.intersect1d(a, b).size for a, b in zip(*sets)]
    assert got.tolist() == want


def _loop_gram_sets(texts: list[str]) -> list[list[int]]:
    """The reference the batched gram sets must equal: each doc's words
    split on single spaces (empty words dropped), the set of its word
    trigrams, hashed, sorted as u64 and read as int64 bits."""
    import numpy as np

    from deduplicator_go_ray.functions.hashing import hash64_str
    from deduplicator_go_ray.pipelines.dedup_queries import NGRAM_N

    out = []
    for s in texts:
        w = [x for x in s.split(" ") if x]
        grams = {" ".join(w[i:i + NGRAM_N])
                 for i in range(len(w) - NGRAM_N + 1)}
        out.append(np.sort(hash64_str(list(grams))).view(np.int64).tolist()
                   if grams else [])
    return out


_WORDS = st.sampled_from(["a", "b", "ab", "é", "日本", "x\ty", " ", "  ", ""])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_WORDS, max_size=14).map(" ".join), max_size=8))
def test_gram_set_batch_equals_the_loop(texts):
    """One Arrow pass per batch gives each doc the gram list of the
    per-doc loop: runs of spaces, leading and trailing spaces, docs of
    fewer than three words, repeated grams, tabs inside a word and
    non-ASCII words included."""
    import pyarrow as pa

    from deduplicator_go_ray.pipelines.dedup_queries import gram_set_batch

    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = gram_set_batch(t)
    assert out["grams"].to_pylist() == _loop_gram_sets(texts)
    assert out.column(0).to_pylist() == list(range(len(texts)))
