"""Content-defined-chunking kernel + query properties.

The SQL-oracle hash equality for ``cdc_chunk_dup_groups`` /
``cdc_savings`` runs in tools/check_oracle.py (the driver protocol);
here: the kernel's tiling/locality invariants, equality against a
deliberately-slow per-doc reference implementation, and the pipeline's
end-to-end consistency between the two registered queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from deduplicator_go_ray.functions.cdc import (CDC_DIVISOR, CDC_WINDOW,
                                               cdc_chunk_arrays)
from deduplicator_go_ray.functions.hashing import mix64, rolling_hashes


def _chunks_slow(buf: bytes, k: int = CDC_WINDOW,
                 divisor: int = CDC_DIVISOR):
    """Per-doc reference: same spec, no batching, explicit loops."""
    n = len(buf)
    if n == 0:
        return []
    h = rolling_hashes(buf, k)
    starts = [0] + [int(c) for c in np.flatnonzero(
        h % divisor == divisor - 1) if c > 0]
    out = []
    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else n
        terms = mix64((np.arange(e - s, dtype=np.uint64) << np.uint64(8))
                      | np.frombuffer(buf[s:e], np.uint8).astype(np.uint64))
        out.append((int(terms.sum(dtype=np.uint64)), e - s))
    return out


RNG = np.random.default_rng(7)
DOCS = [RNG.integers(0, 256, size=m, dtype=np.uint8).tobytes()
        for m in (0, 1, 5, CDC_WINDOW - 1, CDC_WINDOW, 300, 4096)]


def test_batched_kernel_matches_per_doc_reference():
    doc_idx, ck, clen = cdc_chunk_arrays(DOCS)
    got = {}
    for d, c, l in zip(doc_idx, ck, clen):
        got.setdefault(int(d), []).append((int(c), int(l)))
    for i, buf in enumerate(DOCS):
        assert got.get(i, []) == _chunks_slow(buf), f"doc {i}"


def test_chunks_tile_each_document():
    doc_idx, _, clen = cdc_chunk_arrays(DOCS)
    for i, buf in enumerate(DOCS):
        assert clen[doc_idx == i].sum() == len(buf)
    # empty docs yield no chunks
    assert 0 not in doc_idx[np.fromiter(
        (len(DOCS[d]) == 0 for d in doc_idx), bool, len(doc_idx))].tolist()


def test_edit_locality_prefix_insert_realigns():
    """The CDC property the fixed-size grid lacks: prepending bytes
    re-chunks only up to the first content boundary — every chunk
    after it realigns with identical keys (Muthitacharoen et al.,
    SOSP '01)."""
    base = RNG.integers(0, 256, size=8192, dtype=np.uint8).tobytes()
    edited = b"INSERTED-PREFIX-BYTES!" + base
    (_, ck_a, _), (_, ck_b, _) = (cdc_chunk_arrays([base]),
                                  cdc_chunk_arrays([edited]))
    shared = len(set(ck_a.tolist()) & set(ck_b.tolist()))
    # all but the first couple of chunks must survive the edit
    assert shared >= len(ck_a) - 2
    assert len(ck_a) > 10  # the corpus actually chunked


def test_chunk_key_is_order_sensitive():
    a = cdc_chunk_arrays([b"abcdef"])[1]
    b = cdc_chunk_arrays([b"fedcba"])[1]
    assert a.tolist() != b.tolist()


def test_queries_consistent(ray_session):
    from deduplicator_go_ray.pipelines.cdc_queries import (
        cdc_chunk_dup_groups, cdc_savings)

    sf_dir = "/root/testdata/sf0.001"
    dups = cdc_chunk_dup_groups(sf_dir).to_pandas()
    sav = cdc_savings(sf_dir)
    assert (dups["n_copies"] > 1).all()
    assert (dups["reclaim_bytes"]
            >= (dups["n_copies"] - 1) * dups["chunk_bytes"]).all()
    # savings identity: total - stored == all reclaimable duplicate bytes
    assert (int(sav["total_bytes"][0]) - int(sav["stored_bytes"][0])
            == int(dups["reclaim_bytes"].sum()))
    assert sav["dedup_ratio"][0] >= 1.0


@pytest.mark.parametrize("divisor", [16, 256])
def test_divisor_sets_mean_chunk_size(divisor):
    buf = RNG.integers(0, 256, size=65536, dtype=np.uint8).tobytes()
    _, _, clen = cdc_chunk_arrays([buf], divisor=divisor)
    mean = clen.mean()
    assert divisor / 2 < mean < divisor * 2


def test_null_text_chunks_as_empty():
    """A null document text yields no chunks instead of crashing the
    chunk stage, like an empty one."""
    import pyarrow as pa

    from deduplicator_go_ray.pipelines.cdc_queries import _chunk_partials

    texts = ["some text " * 40, None, "", "more text " * 30]
    got = _chunk_partials(pa.table({"text": pa.array(texts, pa.string())}))
    exp = _chunk_partials(pa.table({"text": [t for t in texts if t]}))
    assert len(got) > 0
    assert got.sort_by("ck").equals(exp.sort_by("ck"))


def test_savings_on_empty_corpus(ray_session, tmp_path):
    """A zero-row documents table gives the SQL oracle's one row: NULL
    byte sums and ratio, zero unique chunks — not a crash."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduplicator_go_ray.pipelines.cdc_queries import cdc_savings
    from deduplicator_go_ray.pipelines.registry import oracle_sql

    path = tmp_path / "documents.parquet"
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), path)
    got = cdc_savings(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    exp = con.execute(oracle_sql()["cdc_savings"]).fetch_df()
    assert len(got) == len(exp) == 1
    assert sorted(got.columns) == sorted(exp.columns)
    for c in exp.columns:
        assert got[c].isna().tolist() == exp[c].isna().tolist(), c
    assert int(got["n_unique_chunks"][0]) == int(exp["n_unique_chunks"][0]) == 0
