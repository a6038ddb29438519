"""Incremental signature store: content-keyed re-use across runs must
be invisible in the output (byte-identical to a fresh compute) and must
only run the kernels on content the store has never seen."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from deduplicator_go_ray.stages.exact import add_content_key
from deduplicator_go_ray.state.sigstore import incremental_signatures


def _pages(texts: dict[str, str]) -> "ray.data.Dataset":
    urls = sorted(texts)
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "text": pa.array([texts[u] for u in urls], pa.string()),
    })
    return add_content_key(ray.data.from_arrow(tbl)).materialize()


def _fresh(pages: "ray.data.Dataset") -> pd.DataFrame:
    from deduplicator_go_ray.pipelines.dedup import _signature_cached

    out = pages.map_batches(
        _signature_cached, fn_kwargs={"compute_anchors": True},
        batch_format="pyarrow", batch_size=512)
    return _frame(out)


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    df = df[["url", "text_sha256", "minhash", "simhash", "n_shingles",
             "anchors", "sig_error"]]
    df["minhash"] = df["minhash"].map(tuple)
    df["anchors"] = df["anchors"].map(tuple)
    return df.sort_values("url").reset_index(drop=True)


@pytest.fixture()
def corpus():
    base = {f"site{i:03d}/p": f"doc {i} " + ("lorem ipsum dolor " * 30)
            + f"tail {i * 7}" for i in range(40)}
    return base


def test_incremental_signatures_store_roundtrip(ray_session, tmp_path, corpus):
    store = str(tmp_path / "sigstore")
    pages = _pages(corpus)

    s1, n1 = incremental_signatures(pages, store)
    assert n1 == len(corpus)                      # cold store: all compute
    assert _frame(s1).equals(_fresh(pages))

    s2, n2 = incremental_signatures(pages, store)
    assert n2 == 0                                # warm store: zero compute
    assert _frame(s2).equals(_fresh(pages))


def test_empty_results_are_typed(ray_session, tmp_path, corpus):
    """A store call on reps with no rows, and an exact exchange whose
    rows are all error sentinels, return empty ``Blocks`` and start no
    streaming executor: no driver-side kernel runs to type them, and
    nothing walks a Dataset after the inputs were executed."""
    from ray.data._internal.plan import ExecutionPlan

    from deduplicator_go_ray.stages.common import Blocks
    from deduplicator_go_ray.stages.exact import assign_exact_groups

    pages = _pages(corpus)
    empty = pages.filter(expr="url == ''").materialize()
    errors = add_content_key(ray.data.from_arrow(pa.table({
        "url": pa.array(["a", "b"]), "text": pa.array(["x", "x"]),
        "error": pa.array(["bad", "bad"])}))).materialize()
    executors = []
    real = ExecutionPlan.create_executor
    ExecutionPlan.create_executor = (
        lambda plan: executors.append(plan) or real(plan))
    try:
        sigs, n = incremental_signatures(empty, str(tmp_path / "store"),
                                         passthrough=("n_bytes",))
        members = assign_exact_groups(errors, keep_cols=("url",))
    finally:
        ExecutionPlan.create_executor = real
    assert executors == []
    assert n == 0 and sigs == Blocks() and members == Blocks()


def test_incremental_signatures_changed_and_new_docs(ray_session, tmp_path,
                                                     corpus):
    store = str(tmp_path / "sigstore")
    incremental_signatures(_pages(corpus), store)

    corpus2 = dict(corpus)
    corpus2["site007/p"] = corpus["site007/p"] + " EDITED"   # changed text
    corpus2["site900/p"] = "a brand new page " * 20          # new doc
    corpus2["site901/p"] = "another brand new page " * 20
    pages2 = _pages(corpus2)

    s3, n3 = incremental_signatures(pages2, store)
    assert n3 == 3                      # one changed + two new keys only
    assert _frame(s3).equals(_fresh(pages2))

    # changed content ADDS a key (append-only store); old key remains
    s4, n4 = incremental_signatures(pages2, store)
    assert n4 == 0
    assert _frame(s4).equals(_fresh(pages2))


def test_encode_decode_roundtrip_no_ray():
    """Wire-format identity: encode -> decode reproduces the canonical
    signature columns exactly (values, types, nulls), including empty
    anchor lists and empty tables."""
    import numpy as np

    from deduplicator_go_ray.config import MinHashConfig
    from deduplicator_go_ray.state.sigstore import (decode_sig_columns,
                                                    encode_sig_columns)

    P = MinHashConfig().num_perms
    rng = np.random.default_rng(3)
    n = 37
    mh = rng.integers(0, 2**63, size=(n, P), dtype=np.int64).view(np.uint64)
    anchors = [rng.integers(-2**62, 2**62, size=rng.integers(0, 9)).tolist()
               for _ in range(n)]
    anchors[0] = []                                   # explicit empties
    anchors[-1] = []
    t = pa.table({
        "text_sha256": pa.array([f"{i:064x}" for i in range(n)], pa.string()),
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(mh.reshape(-1), pa.uint64()), P),
        "simhash": pa.array(
            rng.integers(0, 2**63, n, dtype=np.int64).view(np.uint64),
            pa.uint64()),
        "n_shingles": pa.array(rng.integers(0, 5000, n), pa.int64()),
        "anchors": pa.array(anchors, pa.list_(pa.int64())),
        "sig_error": pa.array([None] * (n - 1) + ["HASH_ERROR"], pa.string()),
    })
    back = decode_sig_columns(encode_sig_columns(t))
    back = back.select(t.column_names)
    assert back.schema.equals(t.schema)
    assert back.equals(t)

    empty = t.slice(0, 0)
    back_empty = decode_sig_columns(encode_sig_columns(empty))
    assert back_empty.select(t.column_names).equals(empty)

    # sliced input: offsets no longer start at 0 — the buffer-view
    # encode must rebase correctly
    sl = t.slice(5, 11)
    back_sl = decode_sig_columns(encode_sig_columns(sl))
    assert back_sl.select(t.column_names).equals(sl.combine_chunks())


def _force_ranges(monkeypatch, k: int) -> None:
    """Make every store call below use ``k`` prefix ranges."""
    from deduplicator_go_ray.state import sigstore

    monkeypatch.setattr(sigstore, "_range_count", lambda b: k)


def test_scale_twin_join_path_identical(ray_session, tmp_path, corpus,
                                        monkeypatch):
    """A store read by a multi-range plan (forced to 3 ranges; the
    default at one CPU is 2) must yield the same frame and the same
    zero-compute warm behavior."""
    store = str(tmp_path / "sigstore")
    pages = _pages(corpus)
    incremental_signatures(pages, store)

    _force_ranges(monkeypatch, 3)
    s, n = incremental_signatures(pages, store)
    assert n == 0
    assert _frame(s).equals(_fresh(pages))


def test_nondefault_num_perms_roundtrip(ray_session, tmp_path, corpus):
    """A store written under a non-default MinHash config must
    round-trip exactly (the encode width comes from the column type,
    not the config default) and must reject a mismatched run."""
    from deduplicator_go_ray.config import MinHashConfig

    cfg = MinHashConfig(num_perms=64, bands=8, rows=8)
    store = str(tmp_path / "sigstore64")
    pages = _pages(corpus)
    kw = {"minhash": cfg, "compute_anchors": True}

    s1, n1 = incremental_signatures(pages, store, sig_kwargs=kw)
    assert n1 == len(corpus)
    s2, n2 = incremental_signatures(pages, store, sig_kwargs=kw)
    assert n2 == 0

    def norm(ds):
        df = ds.to_pandas()[["url", "minhash", "simhash", "n_shingles"]]
        df["minhash"] = df["minhash"].map(tuple)
        return df.sort_values("url").reset_index(drop=True)

    assert norm(s2).equals(norm(s1))
    assert all(len(m) == 64 for m in norm(s2)["minhash"])

    # a default-config run against the 64-perm store must fail fast
    with pytest.raises(ValueError, match="mismatch"):
        incremental_signatures(pages, store)


def test_near_gate_against_store(ray_session, tmp_path, corpus):
    """Store-backed import gate: incoming copies of store content are
    blocked with a valid existing content key as evidence; genuinely
    new docs are admitted.  The existing side costs one store scan —
    no texts, no kernels."""
    import hashlib

    from deduplicator_go_ray.state.sigstore import near_gate_against_store

    store = str(tmp_path / "gate_store")
    ex = dict(list(corpus.items())[:25])
    incremental_signatures(_pages(ex), store)

    inc = {f"newsite{i:02d}/p": ex[k] for i, k in enumerate(list(ex)[:5])}
    inc.update({f"fresh{i:02d}/p":
                f"completely different subject {i} " + (f"qq{i}ww " * 40)
                for i in range(5)})
    out = near_gate_against_store(_pages(inc), store)

    blocked = set(out.loc[~out["admitted"], "url"])
    assert blocked == {u for u in inc if u.startswith("newsite")}
    ex_shas = {hashlib.sha256(t.encode()).hexdigest() for t in ex.values()}
    for _, r in out[~out["admitted"]].iterrows():
        assert r["match_key"] in ex_shas
    assert out.loc[out["admitted"], "match_key"].isna().all()

    # determinism: a second gate call is frame-identical
    out2 = near_gate_against_store(_pages(inc), store)
    pd.testing.assert_frame_equal(out, out2)


def test_near_gate_against_store_ignores_page_uid_column(ray_session,
                                                       tmp_path, corpus):
    """Incoming pages that carry their own ``uid`` column are gated by
    content like any other page: the gate keys them by url hash, so the
    frame equals the one for the same pages without the column.  The
    internal doc-id column name is refused on input."""
    from deduplicator_go_ray.stages.buckets import DOC_UID
    from deduplicator_go_ray.state.sigstore import near_gate_against_store

    store = str(tmp_path / "gate_store")
    ex = dict(list(corpus.items())[:25])
    incremental_signatures(_pages(ex), store)
    inc = {f"newsite{i:02d}/p": ex[k] for i, k in enumerate(list(ex)[:5])}
    inc.update({f"fresh{i:02d}/p": f"other subject {i} " + (f"zz{i}yy " * 40)
                for i in range(5)})
    pages = _pages(inc)
    base = near_gate_against_store(pages, store)
    assert (~base["admitted"]).sum() == 5
    tagged = pages.map_batches(
        lambda t: t.append_column("uid", pa.array(
            range(len(t), 0, -1), pa.int64())), batch_format="pyarrow")
    pd.testing.assert_frame_equal(near_gate_against_store(tagged, store), base)
    reserved = pages.map_batches(
        lambda t: t.append_column(DOC_UID, pa.array(
            range(len(t)), pa.int64())), batch_format="pyarrow")
    with pytest.raises(ValueError, match=DOC_UID):
        near_gate_against_store(reserved, store)


def test_compact_and_prune_store(ray_session, tmp_path, corpus):
    """Operational maintenance: compaction shrinks the append-only
    file count without changing warm behavior; liveness pruning drops
    content keys absent from the current corpus (they recompute on the
    next run) while live keys stay warm."""
    from deduplicator_go_ray.state.sigstore import (_file_ranges, _ranges,
                                                    _store_files,
                                                    compact_store,
                                                    incremental_signatures,
                                                    prune_store)

    store = str(tmp_path / "maint_store")
    first = dict(list(corpus.items())[:20])
    incremental_signatures(_pages(first), store)            # run 1
    incremental_signatures(_pages(corpus), store)           # run 2 adds 20

    n_files = compact_store(store, target_files=2)
    assert n_files <= 4
    # one range-named file per prefix range
    assert sorted(r[1:] for r in _file_ranges(_store_files(store))) == (
        _ranges(2))
    s, n = incremental_signatures(_pages(corpus), store)
    assert n == 0                                           # still warm
    assert _frame(s).equals(_fresh(_pages(corpus)))

    live = _pages(first).select_columns(["text_sha256"])
    dropped = prune_store(store, live)
    assert dropped == len(corpus) - len(first)

    s2, n2 = incremental_signatures(_pages(corpus), store)
    assert n2 == len(corpus) - len(first)                   # pruned recompute
    assert _frame(s2).equals(_fresh(_pages(corpus)))


def _fresh_cfg(pages: "ray.data.Dataset", sig_kwargs: dict) -> pd.DataFrame:
    from deduplicator_go_ray.pipelines.dedup import _signature_cached

    out = pages.map_batches(
        _signature_cached, fn_kwargs=dict(sig_kwargs),
        batch_format="pyarrow", batch_size=512)
    return _frame(out)


def test_sigstore_version_upgrade(ray_session, tmp_path, corpus):
    # ≙ files/hash_upgrade.go:17-110: a signature-config bump must
    # (a) never silently reuse old-config rows, (b) recompute exactly
    # the stale rows, (c) drop superseded files, with accounting
    from deduplicator_go_ray.config import MinHashConfig
    from deduplicator_go_ray.state.sigstore import (_store_files,
                                                    sig_config_version,
                                                    upgrade_signatures)

    store = str(tmp_path / "sigstore")
    pages = _pages(corpus)

    v1_kwargs = {"compute_anchors": True}
    v2_kwargs = {"minhash": MinHashConfig(shingle_k=7),
                 "compute_anchors": True}
    assert sig_config_version(v1_kwargs) != sig_config_version(v2_kwargs)

    s1, n1 = incremental_signatures(pages, store, sig_kwargs=v1_kwargs)
    assert n1 == len(corpus)
    n_files_v1 = len(_store_files(store))

    # the membership key is (sha, version): a changed shingle_k with
    # IDENTICAL num_perms/anchors (meta passes) must NOT reuse v1 rows
    s_mix, n_mix = incremental_signatures(pages, store,
                                          sig_kwargs=v2_kwargs)
    assert n_mix == len(corpus)
    assert _frame(s_mix).equals(_fresh_cfg(pages, v2_kwargs))

    # explicit upgrade on a fresh v1-only store
    store2 = str(tmp_path / "sigstore2")
    incremental_signatures(pages, store2, sig_kwargs=v1_kwargs)
    sigs, report = upgrade_signatures(pages, store2, sig_kwargs=v2_kwargs)
    assert report["upgraded"] == len(corpus)
    assert report["unchanged"] == 0
    assert report["failed"] == 0
    assert report["superseded_files"] >= 1
    assert _frame(sigs).equals(_fresh_cfg(pages, v2_kwargs))

    # resumed upgrade: everything already at v2 — pure warm path
    sigs2, report2 = upgrade_signatures(pages, store2, sig_kwargs=v2_kwargs)
    assert report2["upgraded"] == 0
    assert report2["unchanged"] == len(corpus)
    assert report2["superseded_files"] == 0
    assert _frame(sigs2).equals(_fresh_cfg(pages, v2_kwargs))


def test_mixed_legacy_and_versioned_store_version_filter(
        ray_session, tmp_path, corpus, monkeypatch):
    """A MIXED store (pre-fingerprint legacy files + versioned files)
    must still apply the version filter to the versioned rows: the
    classification is per-file from the parquet footer, never from the
    unified dataset schema (whose inference order is arbitrary)."""
    import os

    import pyarrow.parquet as pq

    from deduplicator_go_ray.config import MinHashConfig

    store = str(tmp_path / "sigstore")
    keys = sorted(corpus)
    A = {k: corpus[k] for k in keys[:20]}
    v1 = {"minhash": MinHashConfig(seed=1)}
    v2 = {"minhash": MinHashConfig(seed=2)}

    incremental_signatures(_pages(A), store, sig_kwargs=v1)
    # strip sig_version from run 1's files → legacy (pre-fingerprint)
    for f in os.listdir(store):
        if f.endswith(".parquet"):
            p = os.path.join(store, f)
            t = pq.read_table(p)
            if "sig_version" in t.schema.names:
                pq.write_table(t.drop_columns(["sig_version"]), p)

    # append the rest under v1 → mixed legacy + versioned-v1 store
    s1, n1 = incremental_signatures(_pages(corpus), store, sig_kwargs=v1)
    assert n1 == len(corpus) - len(A)

    # run under v2: the versioned-v1 rows are invisible (recompute);
    # the legacy rows are trusted-as-current one time, by contract
    s2, n2 = incremental_signatures(_pages(corpus), store, sig_kwargs=v2)
    assert n2 == len(corpus) - len(A)

    # and a forced 3-range plan agrees on the same mixed store
    _force_ranges(monkeypatch, 3)
    s3, n3 = incremental_signatures(_pages(corpus), store, sig_kwargs=v2)
    assert n3 == 0      # v2 rows were just persisted; legacy still trusted


def test_upgrade_query_counts_distinct_texts(ray_session, tmp_path):
    """Duplicated document texts must count ONCE per distinct text in
    the upgrade/resume accounting (the oracle's COUNT(DISTINCT text)),
    and must not double-persist their content key in the store."""
    import pyarrow.parquet as pq

    from deduplicator_go_ray.pipelines.parity_queries import (
        upgrade_signatures_q)

    texts = ["alpha doc " * 20, "beta doc " * 20, "alpha doc " * 20]
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"))
    out = upgrade_signatures_q(str(tmp_path)).to_pandas().set_index("phase")
    assert out.loc["upgrade", "n_upgraded"] == 2      # distinct texts
    assert out.loc["resume", "n_unchanged"] == 2
    assert out.loc["upgrade", "n_failed"] == 0


def test_compact_prune_respect_fence_and_sentinel_survives_swap(
        ray_session, tmp_path, corpus):
    """Dir-swap rewrites are fenced by the SIBLING sentinel (ADVICE r4
    #2): a live holder blocks compaction/pruning, and a successful
    compact leaves no lock debris inside or beside the store."""
    import json
    import os
    import time

    from deduplicator_go_ray.state.fence import FenceHeldError, lock_path
    from deduplicator_go_ray.state.sigstore import (compact_store,
                                                    incremental_signatures,
                                                    prune_store)

    store = str(tmp_path / "fenced_store")
    first = dict(list(corpus.items())[:20])
    incremental_signatures(_pages(first), store)     # ≥2 files so the
    incremental_signatures(_pages(corpus), store)    # compact gate opens
    # plant a live foreign holder (fresh mtime -> not stale)
    with open(lock_path(store), "w") as f:
        json.dump({"owner": "other:9", "host": "other-host", "pid": 1,
                   "acquired_unix": time.time()}, f)
    with pytest.raises(FenceHeldError):
        compact_store(store, target_files=1)
    with pytest.raises(FenceHeldError):
        prune_store(store, _pages(corpus).select_columns(["text_sha256"]))
    os.remove(lock_path(store))

    n_files = compact_store(store, target_files=2)
    assert n_files >= 1
    assert not os.path.exists(lock_path(store))       # released
    assert not [f for f in os.listdir(store)          # no in-dir debris
                if f.endswith(".writer.lock")]
    s, n = incremental_signatures(_pages(corpus), store)
    assert n == 0                                     # still warm


def test_store_written_at_three_ranges_read_at_two_and_one(
        ray_session, tmp_path, corpus, monkeypatch):
    """Range files written at K=3 are read back at K=2 and K=1 (a range
    task opens every file whose range meets its own and keeps only its
    own prefixes): zero compute and the fresh frame each time."""
    from deduplicator_go_ray.state import sigstore

    store = str(tmp_path / "sigstore")
    pages = _pages(corpus)
    _force_ranges(monkeypatch, 3)
    incremental_signatures(pages, store)
    files = sigstore._store_files(store)
    assert {r[1:] for r in sigstore._file_ranges(files)} == set(
        sigstore._ranges(3))
    for k in (2, 1):
        _force_ranges(monkeypatch, k)
        s, n = incremental_signatures(pages, store)
        assert n == 0
        assert _frame(s).equals(_fresh(pages))
    assert len(sigstore._store_files(store)) == 3       # nothing appended


def test_parent_layout_store_reused(ray_session, tmp_path, corpus,
                                    monkeypatch):
    """A store in the layout before ranges (files named by the Dataset
    writer, one of them pre-fingerprint) counts as covering every range:
    a run over it plus three new docs computes only the new three, and
    the frame equals a fresh compute."""
    import json
    import os

    import pyarrow.parquet as pq

    from deduplicator_go_ray.state import sigstore

    store = tmp_path / "sigstore"
    store.mkdir()
    keys = sorted(corpus)
    for name, part, versioned in (
            ("4c1e_000000_000000.parquet", keys[:15], False),
            ("9a0b_000000_000000.parquet", keys[15:], True)):
        t = sigstore.encode_sig_columns(
            _computed_sigs({k: corpus[k] for k in part}).select(
                ["text_sha256", *sigstore.SIG_COLS]))
        if versioned:
            t = t.append_column("sig_version", pa.array(
                [sigstore.sig_config_version()] * len(t), pa.int64()))
        pq.write_table(t, str(store / name))
    (store / "_sigstore_meta.json").write_text(
        json.dumps({"num_perms": 128, "anchors": True}))

    corpus2 = dict(corpus)
    corpus2.update({f"site9{i:02d}/p": f"a brand new page {i} " * 20
                    for i in range(3)})
    _force_ranges(monkeypatch, 3)
    s, n = incremental_signatures(_pages(corpus2), str(store))
    assert n == 3
    assert _frame(s).equals(_fresh(_pages(corpus2)))
    assert len(os.listdir(store)) <= 2 + 3 + 1    # appends are range files

    # compaction turns the store into range files even when it already
    # has no more files than the target
    assert len(os.listdir(store)) - 1 <= 8
    n_files = sigstore.compact_store(str(store), target_files=8)
    files = sigstore._store_files(str(store))
    assert n_files == len(files) and not sigstore._unranged(files)
    assert {r[1:] for r in sigstore._file_ranges(files)} <= set(
        sigstore._ranges(8))
    s, n = incremental_signatures(_pages(corpus2), str(store))
    assert n == 0
    assert _frame(s).equals(_fresh(_pages(corpus2)))


def _computed_sigs(texts: dict) -> pa.Table:
    """Signature rows computed in process, with no Ray task."""
    import hashlib

    from deduplicator_go_ray.pipelines.dedup import _signature_cached

    urls = sorted(texts)
    return _signature_cached(pa.table({
        "url": urls, "text": [texts[u] for u in urls],
        "text_sha256": [hashlib.sha256(texts[u].encode()).hexdigest()
                        for u in urls]}), compute_anchors=True)


def test_append_failing_before_commit_leaves_listing_unchanged(
        tmp_path, corpus, monkeypatch):
    """An append that fails after its temp write and before the commit
    rename leaves only a dot-prefixed temp file, which the listing
    never shows."""
    from deduplicator_go_ray.state import sigstore
    from deduplicator_go_ray.state.statefs import StatePath

    sp = StatePath(str(tmp_path / "sigstore"))
    sp.makedirs()
    sigs = _computed_sigs(corpus)
    sigstore._append_range(sp, "a" * 16, 0, 1 << 16, sigs.slice(0, 10), 7)
    before = sigstore._store_files(sp)

    def crash(self, dst):
        raise OSError("crashed before the commit rename")

    monkeypatch.setattr(StatePath, "move_to", crash)
    with pytest.raises(OSError, match="commit rename"):
        sigstore._append_range(sp, "b" * 16, 0, 1 << 16, sigs.slice(10), 7)
    assert sigstore._store_files(sp) == before
    assert any(f.startswith(".") for f in sp.listdir())


def test_retried_range_write_leaves_one_file(tmp_path, corpus):
    """A range task retried under the same run token rewrites the same
    name: one file, holding the rows once."""
    import pyarrow.parquet as pq

    from deduplicator_go_ray.state import sigstore
    from deduplicator_go_ray.state.statefs import StatePath

    sp = StatePath(str(tmp_path / "sigstore"))
    sp.makedirs()
    sigs = _computed_sigs(corpus)
    for _ in range(2):
        sigstore._append_range(sp, "c" * 16, 0, 1 << 16, sigs, 7)
    (name,) = sigstore._store_files(sp)
    back = sigstore.decode_sig_columns(pq.read_table(sp.join(name).rel))
    cols = ["text_sha256", *sigstore.SIG_COLS]
    assert back.select(cols).equals(sigs.select(cols).combine_chunks())
    assert back["sig_version"].to_pylist() == [7] * len(sigs)


def test_failed_range_task_awaits_every_range_before_fence_release(
        ray_session, tmp_path, monkeypatch):
    """When one range task fails, the error reaches the caller only
    after every other range task has finished its append, so no task
    writes once the write fence is released.  Range 0 fails at once on
    an unreadable store file; ranges 1 and 2 run the kernel on ~200
    docs each first."""
    import os

    from deduplicator_go_ray.state import sigstore
    from deduplicator_go_ray.state.fence import lock_path

    store = tmp_path / "sigstore"
    store.mkdir()
    lo, hi = sigstore._ranges(3)[0]
    bad = sigstore._range_file("0" * 16, lo, hi)
    (store / bad).write_bytes(b"not a parquet file")
    texts = {f"site{i:04d}/p": f"page {i} " + " ".join(
        f"w{(i * 7 + j) % 997}" for j in range(300)) for i in range(600)}
    pages = _pages(texts)
    _force_ranges(monkeypatch, 3)
    with pytest.raises(Exception):
        incremental_signatures(pages, str(store))
    appended = [f for f in sigstore._store_files(store) if f != bad]
    assert ({r[1:] for r in sigstore._file_ranges(appended)}
            == set(sigstore._ranges(3)[1:]))
    assert not os.path.exists(lock_path(str(store)))


def test_range_task_rerun_after_release_writes_nothing(
        ray_session, tmp_path, corpus, monkeypatch):
    """Ray re-runs a range task from lineage when its output block is
    lost, possibly after the call returned and the fence was released.
    Such a re-run must not write: here the call's appends are removed
    (as a prune would) and a range task is re-run with the call's own
    arguments, which brings back no file."""
    import os

    import ray

    from deduplicator_go_ray.state import sigstore

    calls, real = [], sigstore._range_task

    class Recorder:
        def remote(self, *args):
            calls.append(args)
            return real.remote(*args)

    monkeypatch.setattr(sigstore, "_range_task", Recorder())
    store = str(tmp_path / "sigstore")
    _force_ranges(monkeypatch, 2)
    _, n = incremental_signatures(_pages(corpus), store)
    assert n == len(corpus)
    appended = sigstore._store_files(store)
    assert len(appended) == 2
    for f in appended:
        os.remove(os.path.join(store, f))
    sigs, stats, counts, _ = ray.get(list(real.remote(*calls[0])))
    assert counts[0] > 0 and len(sigs) == stats[0]
    assert sigstore._store_files(store) == []
