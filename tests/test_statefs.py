"""State plane on pyarrow.fs (VERDICT r4 next #1): checkpoint resume,
sigstore warm path and the write fence against ``file://`` URIs, plus
the marker commit protocol object stores get (forced onto local disk
via ``force_marker``)."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from deduplicator_go_ray.state.statefs import StatePath, as_state_path


def _pages(n=40, start=0):
    urls = [f"https://site{i}.example/p" for i in range(start, start + n)]
    texts = [f"document body {i} " * 20 for i in range(start, start + n)]
    return ray.data.from_arrow(pa.table({
        "url": urls,
        "text": texts,
        "error": pa.array([None] * n, pa.string()),
        "text_sha256": [hashlib.sha256(t.encode()).hexdigest()
                        for t in texts],
    }))


# ---------------------------------------------------------------------------
# StatePath unit behavior
# ---------------------------------------------------------------------------

def test_statepath_resolution_and_join(tmp_path):
    d = str(tmp_path / "store")
    for raw in (d, "file://" + d):
        sp = StatePath(raw)
        assert sp.is_local and sp.atomic_rename
        assert sp.local() == d
        assert sp.join("a", "b").rel == d + "/a/b"
    m = StatePath(d, force_marker=True)
    assert m.is_local and not m.atomic_rename


def test_marker_protocol_commit_visibility(tmp_path):
    """Marker protocol: a data object without its .ok marker (crash
    between PUTs) is invisible to committed_names; uncommit removes
    the marker first so no committed-looking orphan can survive."""
    d = StatePath(str(tmp_path / "mstore"), force_marker=True)
    d.makedirs()
    f1 = d.join("part-00001.parquet")
    f1.commit_table(pa.table({"a": [1]}))
    # uncommitted object: written directly, no marker
    pq.write_table(pa.table({"a": [2]}), d.join("part-00002.parquet").rel)
    assert d.committed_names() == ["part-00001.parquet"]
    assert not d.join("part-00002.parquet").is_committed()
    f1.uncommit()
    assert d.committed_names() == []


# ---------------------------------------------------------------------------
# checkpoint on file:// and under the marker protocol
# ---------------------------------------------------------------------------

def test_checkpoint_resume_file_uri(ray_session, tmp_path):
    """Crash-then-resume against a file:// URI state dir: the resumed
    checkpoint equals a clean one byte-for-byte."""
    from deduplicator_go_ray.state.checkpoint import (checkpointed_write,
                                                      done_partitions,
                                                      read_checkpoint)

    uri = "file://" + str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected failure"):
        checkpointed_write(_pages(), uri, num_partitions=8,
                           stage="t", fail_after=3)
    n_done = len(done_partitions(uri))
    assert 0 < n_done < 8
    m = checkpointed_write(_pages(), uri, num_partitions=8, stage="t")
    assert len(m) == 8 - n_done          # only missing partitions ran
    got = (read_checkpoint(uri).to_pandas()
           .sort_values("url").reset_index(drop=True))
    clean_dir = str(tmp_path / "clean")
    checkpointed_write(_pages(), clean_dir, num_partitions=8, stage="t")
    want = (read_checkpoint(clean_dir).to_pandas()
            .sort_values("url").reset_index(drop=True))
    assert got.equals(want)


def test_checkpoint_marker_protocol_resume(ray_session, tmp_path):
    """The object-store commit protocol end-to-end on local disk: a
    crashed write leaves uncommitted objects invisible; resume rewrites
    exactly the uncommitted partitions; read_checkpoint reads the
    committed list (never the directory)."""
    from deduplicator_go_ray.state.checkpoint import (checkpointed_write,
                                                      done_partitions,
                                                      read_checkpoint)

    root = StatePath(str(tmp_path / "objstore"), force_marker=True)
    with pytest.raises(RuntimeError, match="injected failure"):
        checkpointed_write(_pages(), root, num_partitions=8,
                           stage="t", fail_after=3)
    done1 = done_partitions(root)
    assert 0 < len(done1) < 8
    # plant a crash artifact: a complete-LOOKING data object with rows
    # that were never committed — directory-scan reads would ingest it
    orphan = root.join("part-00099.parquet")
    pq.write_table(pa.table({
        "url": ["https://orphan.example/"], "text": ["zombie"],
        "error": pa.array([None], pa.string()),
        "text_sha256": ["x"], "partition_id": [99]}), orphan.rel)
    m = checkpointed_write(_pages(), root, num_partitions=8, stage="t")
    assert len(m) == 8 - len(done1)
    got = read_checkpoint(root).to_pandas()
    assert "https://orphan.example/" not in set(got.url)   # invisible
    assert len(got) == 40 and got.url.nunique() == 40


def test_incremental_hash_file_uri_warm(ray_session, tmp_path):
    """incremental_hash warm path against a file:// URI: second run
    recomputes nothing."""
    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.state.checkpoint import incremental_hash

    tbl, _ = generate_pages(60, seed=3)
    pages = ray.data.from_arrow(tbl)
    uri = "file://" + str(tmp_path / "inc")
    m1 = incremental_hash(pages, uri, num_partitions=8)
    assert int(m1["rows_out"].sum()) == 60
    m2 = incremental_hash(pages, uri, num_partitions=8)
    assert len(m2) == 0                   # fully warm


# ---------------------------------------------------------------------------
# sigstore on file://
# ---------------------------------------------------------------------------

def test_sigstore_warm_path_file_uri(ray_session, tmp_path):
    from deduplicator_go_ray.state.sigstore import incremental_signatures

    uri = "file://" + str(tmp_path / "sigs")
    sigs1, n1 = incremental_signatures(_pages(30), uri,
                                       compute_anchors=False)
    assert n1 == 30 and sigs1.num_rows == 30
    sigs2, n2 = incremental_signatures(_pages(30), uri,
                                       compute_anchors=False)
    assert n2 == 0 and sigs2.num_rows == 30      # warm: nothing recomputed
    drop = ["sig_cached"]                       # provenance flag differs
    a = (sigs1.to_pandas().drop(columns=drop)
         .sort_values("url").reset_index(drop=True))
    b = (sigs2.to_pandas().drop(columns=drop)
         .sort_values("url").reset_index(drop=True))
    assert a.equals(b)


def test_sigstore_unfenced_warning_off_local(ray_session, tmp_path):
    """A store on a non-local filesystem cannot fence — the writer
    proceeds with a loud warning (single-writer by deployment
    convention there), and the warm path still works."""
    from pyarrow import fs as pafs

    from deduplicator_go_ray.state.sigstore import incremental_signatures

    base = tmp_path / "subfs"
    base.mkdir()
    sub = pafs.SubTreeFileSystem(str(base), pafs.LocalFileSystem())
    store = StatePath("sigs", fs=sub)
    assert store.local() is None
    with pytest.warns(UserWarning, match="write fence cannot operate"):
        sigs1, n1 = incremental_signatures(_pages(20), store,
                                           compute_anchors=False)
    assert n1 == 20 and sigs1.num_rows == 20
    with pytest.warns(UserWarning):
        sigs2, n2 = incremental_signatures(_pages(20), store,
                                           compute_anchors=False)
    assert n2 == 0 and sigs2.num_rows == 20


def test_compact_store_fails_fast_off_local(tmp_path):
    from pyarrow import fs as pafs

    from deduplicator_go_ray.state.sigstore import compact_store

    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    with pytest.raises(NotImplementedError, match="atomic directory swap"):
        compact_store(StatePath("s", fs=sub), target_files=1)


# ---------------------------------------------------------------------------
# fence on file:// URIs
# ---------------------------------------------------------------------------

def test_fence_file_uri(tmp_path):
    from deduplicator_go_ray.state.fence import (FenceHeldError, WriteFence,
                                                 lock_path)

    d = str(tmp_path / "store")
    uri = "file://" + d
    assert lock_path(uri) == lock_path(d)
    with WriteFence(uri):
        with pytest.raises(FenceHeldError):
            WriteFence(d).acquire()       # URI and plain path = one lock
    assert not os.path.exists(lock_path(d))


# ---------------------------------------------------------------------------
# flagship end-to-end with a URI state dir
# ---------------------------------------------------------------------------

def test_run_dedup_checkpointed_file_uri(ray_session, tmp_path):
    from deduplicator_go_ray.sources.corpus import generate_pages
    from deduplicator_go_ray.state.checkpoint import run_dedup_checkpointed

    tbl, _ = generate_pages(80, seed=9)
    pages = ray.data.from_arrow(tbl)
    uri = "file://" + str(tmp_path / "run")
    out = run_dedup_checkpointed(pages, uri, num_partitions=8).to_pandas()
    assert len(out) == 80
    assert {"url", "cluster_id", "keeper_url", "partition_id"} <= set(
        out.columns)
    # metrics landed under the URI root
    mdir = as_state_path(uri).join("metrics")
    assert any(n.endswith(".parquet") for n in mdir.listdir())
