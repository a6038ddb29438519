"""Fused bucket-shuffle unit tests: kind multiplexing, bounded emission,
partition invariance, uid verification paths."""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data

from deduplicator_go_ray.config import LSHConfig, MinHashConfig
from deduplicator_go_ray.stages.buckets import (
    DOC_UID, KIND_ANCHOR, KIND_BAND, KIND_SIMHASH, bucket_rows,
    candidate_edges_fused, uid_of_urls)
from deduplicator_go_ray.stages.verify import verify_near_edges
from deduplicator_go_ray.stages.signatures import SignatureStage


def _sigs(texts: dict[str, str], ray_on) -> "ray.data.Dataset":
    tbl = pa.table({
        "url": pa.array(list(texts), pa.string()),
        "text": pa.array(list(texts.values()), pa.string()),
        "n_bytes": pa.array([len(t.encode()) for t in texts.values()], pa.int64()),
    })
    st = SignatureStage()
    return ray.data.from_arrow(st(tbl)).map_batches(
        lambda t: t.drop_columns(["text"]), batch_format="pyarrow").materialize()


_BASE = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
         "lambda mu nu xi omicron pi rho sigma tau upsilon " * 6)
_SMALL_TEXTS = {
    "a": _BASE,
    "b": _BASE,                                     # exact near pair with a
    "c": _BASE.replace("gamma", "GAMMA", 1),        # near pair (1 token edit)
    "d": "completely different text about nothing at all " * 12,
    "e": "short doc",                               # too short for anchors
}


@pytest.fixture(scope="module")
def small_sigs(ray_session):
    return _sigs(_SMALL_TEXTS, ray_session)


def _zero_digests(n: int) -> dict:
    """The d0/d1 digest columns of hand-built bucket rows, all zero."""
    return {c: pa.array(np.zeros(n, np.int64), pa.int64()) for c in ("d0", "d1")}


def test_bucket_rows_kinds(small_sigs):
    rows = bucket_rows(small_sigs, MinHashConfig()).to_pandas()
    kinds = set(rows["kind"])
    assert {KIND_BAND, KIND_SIMHASH, KIND_ANCHOR} <= kinds
    cfg = MinHashConfig()
    per_doc_bands = rows[rows["kind"] == KIND_BAND].groupby("uid").size()
    assert (per_doc_bands == cfg.bands).all()
    per_doc_chunks = rows[rows["kind"] == KIND_SIMHASH].groupby("uid").size()
    assert (per_doc_chunks == 4).all()              # 64 / 16-bit chunks
    # exactly one min-anchor flag per doc that has anchors
    anc = rows[rows["kind"] == KIND_ANCHOR]
    assert (anc.groupby("uid")["flag"].sum() >= 1).all()


def _stage_runs(small_sigs, tmp_path):
    """Every stage of the one contract as ``name -> run(into)``, where
    ``into`` turns each Dataset input into the form under test."""
    from deduplicator_go_ray.stages.buckets import bucket_batch, gate_candidates
    from deduplicator_go_ray.stages.cluster import (
        connected_components_distributed, resolve_components)
    from deduplicator_go_ray.stages.common import (dataset_of, dedupe_rows,
                                                   grouped_apply)
    from deduplicator_go_ray.stages.exact import (add_content_key,
                                                  assign_exact_groups)
    from deduplicator_go_ray.stages.joins import hash_join
    from deduplicator_go_ray.stages.verify import verify_containment_edges
    from deduplicator_go_ray.state.sigstore import (incremental_signatures,
                                                    upgrade_signatures)

    rows = bucket_rows(small_sigs, MinHashConfig()).materialize()
    kinds = ray.data.from_arrow(pa.table({
        "kind": pa.array([KIND_BAND, KIND_ANCHOR], pa.int8()),
        "name": ["band", "anchor"]})).materialize()
    docs = add_content_key(ray.data.from_arrow(pa.table({
        "url": list(_SMALL_TEXTS) + ["a2"],
        "text": list(_SMALL_TEXTS.values()) + [_SMALL_TEXTS["a"]]}))
    ).materialize()
    long = " ".join(f"token{i * 7919 % 1000}" for i in range(300))
    contained = {"long": long, "short": long[300:1200]}
    texts = ray.data.from_arrow(pa.table({
        "url": list(contained), "text": list(contained.values())}))
    anchors = dataset_of(candidate_edges_fused(
        bucket_rows(_sigs(contained, None), MinHashConfig(), (KIND_ANCHOR,)),
        LSHConfig(), 3))
    cand = dataset_of(candidate_edges_fused(rows, LSHConfig(), 3))
    edges = dataset_of(verify_near_edges(cand, small_sigs, MinHashConfig()))

    def per_kind(t: pa.Table) -> pa.Table:
        return t.group_by("kind", use_threads=False).aggregate(
            [("uid", "count")])

    def store(into, name):
        return str(tmp_path / f"{name}-{into.__name__}")

    return {
        "grouped_apply": lambda into: grouped_apply(
            into(rows), ["kind"], per_kind, arrow_fn=True),
        "hash_join": lambda into: hash_join(into(rows), into(kinds), "kind"),
        "dedupe_rows": lambda into: dedupe_rows(into(rows), ["kind", "uid"]),
        "assign_exact_groups": lambda into: assign_exact_groups(
            into(docs), keep_cols=("url", "text")),
        "candidate_edges_fused": lambda into: candidate_edges_fused(
            into(rows), LSHConfig(), 3),
        "candidate_edges_fused_pre_fn": lambda into: candidate_edges_fused(
            into(small_sigs), LSHConfig(), 3,
            pre_fn=functools.partial(bucket_batch, minhash=MinHashConfig())),
        "gate_candidates": lambda into: gate_candidates(
            into(small_sigs), into(small_sigs), MinHashConfig(), 8),
        "verify_near_edges": lambda into: verify_near_edges(
            into(cand), into(small_sigs), MinHashConfig()),
        "verify_containment_edges": lambda into: verify_containment_edges(
            into(anchors), into(texts)),
        "resolve_components": lambda into: resolve_components(into(edges)),
        "connected_components_distributed":
            lambda into: connected_components_distributed(into(edges)),
        "incremental_signatures": lambda into: incremental_signatures(
            into(docs), store(into, "inc"))[0],
        "upgrade_signatures": lambda into: upgrade_signatures(
            into(docs), store(into, "up"))[0],
    }


_STAGES = ("grouped_apply", "hash_join", "dedupe_rows", "assign_exact_groups",
           "candidate_edges_fused", "candidate_edges_fused_pre_fn",
           "gate_candidates", "verify_near_edges", "verify_containment_edges",
           "resolve_components", "connected_components_distributed",
           "incremental_signatures", "upgrade_signatures")


@pytest.mark.parametrize("stage", _STAGES)
def test_exchanges_answer_blocks_with_blocks(stage, small_sigs, tmp_path,
                                             monkeypatch):
    """The one stage contract: given a Dataset or ``Blocks``, every
    stage returns ``Blocks`` — non-empty blocks with their row counts
    and sizes, holding equal rows — and given ``Blocks`` it builds no
    Dataset."""
    from deduplicator_go_ray.stages.common import Blocks, as_blocks

    run = _stage_runs(small_sigs, tmp_path)[stage]

    def dataset(ds):
        return ds

    via_ds = run(dataset)
    wraps = []
    real = ray.data.from_arrow_refs
    monkeypatch.setattr(ray.data, "from_arrow_refs",
                        lambda *a, **k: wraps.append(1) or real(*a, **k))
    via_b = run(as_blocks)
    assert wraps == []
    for out in (via_ds, via_b):
        assert isinstance(out, Blocks)
        assert out.refs and all(n > 0 for n in out.rows)
        assert all(size > 0 for size in out.sizes)
        assert out.schema == out.to_arrow().schema
    assert via_b.num_rows == via_ds.num_rows
    assert (sorted(via_b.to_arrow().to_pylist(), key=repr)
            == sorted(via_ds.to_arrow().to_pylist(), key=repr))


def test_fused_edges_find_planted_pairs(small_sigs):
    from deduplicator_go_ray.stages.common import dataset_of

    rows = bucket_rows(small_sigs, MinHashConfig())
    edges = dataset_of(candidate_edges_fused(rows, LSHConfig(), 3))
    verified = verify_near_edges(edges.filter(expr=f"kind != {KIND_ANCHOR}"),
                                 small_sigs, MinHashConfig()).to_pandas()
    ua, ub, uc = uid_of_urls(["a", "b", "c"])
    got = {(min(u, v), max(u, v)) for u, v in zip(verified["u"], verified["v"])}
    assert (min(ua, ub), max(ua, ub)) in got
    assert (min(ua, uc), max(ua, uc)) in got


def test_fused_edges_partition_invariant(small_sigs):
    rows = bucket_rows(small_sigs, MinHashConfig()).materialize()

    def canon(ds):
        df = candidate_edges_fused(ds, LSHConfig(), 3).to_pandas()
        return (df.assign(a=np.minimum(df.u, df.v), b=np.maximum(df.u, df.v))
                [["a", "b", "kind"]].drop_duplicates()
                .sort_values(["a", "b", "kind"]).reset_index(drop=True))

    pd.testing.assert_frame_equal(canon(rows), canon(rows.repartition(5)))


def test_hot_bucket_bounded_emission(ray_session):
    # one shared band bucket with many members must emit O(n) chain
    # edges, not O(n^2) cliques
    n = 600
    tbl = pa.table({
        "key": pa.array([42] * n, pa.int64()),
        "kind": pa.array([KIND_BAND] * n, pa.int8()),
        "uid": pa.array(np.arange(n), pa.int64()),
        "payload": pa.array(np.zeros(n), pa.int64()),
        "flag": pa.array([False] * n, pa.bool_()),
        **_zero_digests(n),
    })
    lsh = LSHConfig(group_cap=512)
    edges = candidate_edges_fused(ray.data.from_arrow(tbl), lsh, 3).to_pandas()
    # chain-only for a hot bucket: exactly n-1 edges
    assert len(edges) == n - 1
    # connectivity: the chain spans all members (single component)
    from deduplicator_go_ray.stages.cluster import connected_components_driver

    mapping = connected_components_driver(
        list(zip(edges["u"].tolist(), edges["v"].tolist())))
    assert len(set(mapping.values())) == 1
    assert len(mapping) == n


def test_uid_stability():
    a = uid_of_urls(["x", "y", "z"])
    b = uid_of_urls(["x", "y", "z"])
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 3


def test_uid128_separates_polynomial_collisions():
    """Two distinct 1 KiB Thue–Morse urls collide on the polynomial url
    hash — the 64-bit uid, whatever its seed — but the 128-bit uid's
    second word is SipHash, independent of it, so the two stay apart;
    list and Arrow inputs mint the same uids."""
    from deduplicator_go_ray.stages.buckets import uid_words

    swap = str.maketrans("ab", "ba")
    a = "a"
    for _ in range(10):
        a += a.translate(swap)
    b = a.translate(swap)
    assert len(a) == 1024 and a != b
    u64 = uid_of_urls([a, b])
    assert u64[0] == u64[1]                     # the known 64-bit weakness
    u128 = uid_of_urls([a, b], 128)
    words = uid_words(u128)
    assert words[0, 0] == words[1, 0] and words[0, 1] != words[1, 1]
    assert len(np.unique(u128)) == 2
    assert uid_of_urls(pa.array([a, b]), 128).tobytes() == u128.tobytes()
    assert uid_of_urls(pa.chunked_array([pa.array([a]), pa.array([b])]),
                       128).tobytes() == u128.tobytes()


def test_uid128_codec_roundtrip_and_order():
    """16-byte uids with leading or trailing NUL bytes round-trip numpy →
    Arrow → numpy byte for byte through sliced and multi-chunk columns,
    and whole-array sort, unique and probe follow Python ``bytes``
    order — the trailing-NUL case numpy item access would corrupt."""
    import bisect

    from deduplicator_go_ray.stages.buckets import (uid_arrow, uid_np,
                                                    uid_words)
    from deduplicator_go_ray.stages.common import sorted_probe

    rng = np.random.default_rng(14)
    raw = rng.integers(0, 256, (64, 16), dtype=np.uint8)
    raw[:12, -4:] = 0                  # trailing NULs
    raw[12:24, :5] = 0                 # leading NULs
    raw[24, :] = 0                     # all NUL
    raw[25:30, 8:] = 0                 # a NUL word
    raw[30:34] = raw[:4]               # duplicates
    raw[34:40, 0] = 0x80 + np.arange(6, dtype=np.uint8)   # high bytes
    uids = raw.view("S16")[:, 0]
    py = [bytes(r) for r in raw]
    assert uids.tobytes() == b"".join(py)

    arr = uid_arrow(uids)
    assert arr.type == pa.binary(16) and arr.to_pylist() == py
    cols = {
        "array": (arr, py),
        "slice": (arr.slice(5, 40), py[5:45]),
        "chunks": (pa.chunked_array([arr.slice(0, 20), arr.slice(20)]), py),
        "sliced chunks": (pa.chunked_array([arr.slice(3, 9), arr.slice(30, 7)]),
                          py[3:12] + py[30:37]),
        "from python": (pa.array([b"\x00" * 16] + py, pa.binary(16)).slice(1),
                        py),
        "empty": (pa.chunked_array([], pa.binary(16)), []),
    }
    for name, (col, want) in cols.items():
        got = uid_np(col)
        assert got.dtype == np.dtype("S16"), name
        assert got.tobytes() == b"".join(want), name
        assert uid_words(got).tobytes() == got.tobytes(), name
        assert uid_arrow(got).to_pylist() == want, name

    def as_py(a):
        return uid_arrow(a).to_pylist()

    assert as_py(np.sort(uids)) == sorted(py)
    keys = np.unique(uids)
    assert as_py(keys) == sorted(set(py))
    queries = np.concatenate([uids, uid_np(pa.array(
        [b"\x00" * 15 + b"\x01", b"\xff" * 16, py[0][:15] + b"\x01"],
        pa.binary(16)))])
    pos, hit = sorted_probe(keys, queries)
    ref = sorted(set(py))
    for q, p, h in zip(as_py(queries), pos, hit):
        i = bisect.bisect_left(ref, q)
        assert h == (i < len(ref) and ref[i] == q)
        if h:
            assert p == i
    # the int64 width through the same codec
    ints = pa.chunked_array([pa.array([5, -1, 7], pa.int64()).slice(1),
                             pa.array([3], pa.int64())])
    assert uid_np(ints).tolist() == [-1, 7, 3]
    assert uid_np(pa.array([4, 2], pa.int32())).dtype == np.int64
    assert uid_words(uid_np(ints)).shape == (3, 1)


def test_slot_matrix_refuses_non_fixed_blobs():
    """Signature blobs are viewed through their fixed-stride data buffer;
    a variable-binary or wrong-width column raises TypeError instead of
    misreading its offsets as slot values."""
    from deduplicator_go_ray.stages.verify import _slot_matrix

    sig = np.arange(6, dtype=np.uint64).reshape(2, 3)
    fixed = pa.Array.from_buffers(pa.binary(24), 2,
                                  [None, pa.py_buffer(sig.tobytes())])
    assert (_slot_matrix(fixed, 2, 3) == sig).all()
    assert (_slot_matrix(pa.chunked_array([fixed]), 2, 3) == sig).all()
    with pytest.raises(TypeError):
        _slot_matrix(pa.array(fixed.to_pylist(), pa.binary()), 2, 3)
    with pytest.raises(TypeError):
        _slot_matrix(fixed, 2, 2)


def _canon_edges(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return (df.assign(a=np.minimum(df.u, df.v), b=np.maximum(df.u, df.v))
            [["a", "b"]].drop_duplicates()
            .sort_values(["a", "b"]).reset_index(drop=True))


@pytest.mark.parametrize("kind,threshold", [("near", 0.8), ("near", 0.5),
                                            ("containment", None)])
def test_keyed_round2_equals_index_plans(kind, threshold, ray_session,
                                         monkeypatch):
    """With the kind's round-2 cap at 0 every pair is checked through
    the two keyed attach exchanges instead of an endpoint index.  Its
    edges and the endpoint index plan's must both equal a brute-force
    reference.  The payloads plant borderline pairs that fail the
    exact check by a few slots."""
    from deduplicator_go_ray.stages import verify

    rng = np.random.default_rng(5)
    if kind == "near":
        base = rng.integers(0, 2**63, 128, dtype=np.int64).astype(np.uint64)

        def mutate(keep: slice) -> np.ndarray:
            sig = rng.integers(0, 2**63, 128, dtype=np.int64).astype(np.uint64)
            sig[keep] = base[keep]
            return sig

        c = base.copy()
        c[64:74] += np.uint64(1)                   # 118 of 128 slots match
        sigs = {"a": base, "b": base.copy(), "c": c,
                "d": mutate(slice(0, 64)),         # first half only: 64
                "e": mutate(slice(0, 40)),         # 40: survives round 1
                "f": mutate(slice(0, 0))}
        source = ray.data.from_arrow(pa.table({
            "url": list(sigs),
            "minhash": pa.array([x.tolist() for x in sigs.values()],
                                pa.list_(pa.uint64()))})).materialize()
        cap = "NEAR_ROUND2_MAX_BYTES"
        run = functools.partial(verify.verify_near_edges,
                                cfg=MinHashConfig(verify_threshold=threshold))

        def passes(x, y):
            return (sigs[x] == sigs[y]).mean() >= threshold
    else:
        long = "the quick brown fox jumps over the lazy dog " * 6
        texts = {"short": long[45:130], "long": long, "other": long[:200],
                 "miss": "a completely unrelated passage of some length",
                 "empty": ""}
        source = ray.data.from_arrow(pa.table({
            "url": list(texts), "text": list(texts.values())})).materialize()
        cap = "CONTAINMENT_ROUND2_MAX_PAIRS"
        run = verify.verify_containment_edges

        def passes(x, y):
            return bool(texts[x]) and bool(texts[y]) and texts[x] in texts[y]
    urls = source.to_pandas()["url"].tolist()
    names = urls + ["absent"]
    uid = dict(zip(names, uid_of_urls(names)))
    ordered = [(x, y) for x in names for y in names if x != y]
    pairs = ray.data.from_arrow(pa.table({
        "u": pa.array([uid[x] for x, _ in ordered], pa.int64()),
        "v": pa.array([uid[y] for _, y in ordered], pa.int64()),
        "kind": pa.array(np.full(len(ordered), KIND_ANCHOR if kind != "near"
                                 else KIND_BAND, np.int8))}))
    expect = sorted({tuple(sorted((uid[x], uid[y]))) for x, y in ordered
                     if "absent" not in (x, y) and passes(x, y)})
    assert len(expect) >= 3

    plans = [run(pairs, source)]
    monkeypatch.setattr(verify, cap, 0)
    plans += [run(pairs, source)]
    for ds in plans:
        assert list(_canon_edges(ds).itertuples(index=False, name=None)) == expect


def _random_sig_source(n: int, seed: int):
    """(source with ``n`` signature rows, their url → uid map); rows
    "a" and "b" share one signature."""
    rng = np.random.default_rng(seed)
    urls = [chr(ord("a") + i) for i in range(n)]
    sigs = rng.integers(0, 2**63, (n, 128), dtype=np.int64).astype(np.uint64)
    sigs[1] = sigs[0]
    source = ray.data.from_arrow(pa.table({
        "url": urls, "minhash": pa.array(sigs.tolist(),
                                         pa.list_(pa.uint64()))})).materialize()
    return source, dict(zip(urls, uid_of_urls(urls)))


def test_endpoint_index_build_gets_only_endpoint_rows(ray_session,
                                                      monkeypatch):
    """The endpoint filter runs in one task per source block: the one
    build task receives the endpoints' payload rows, not the source."""
    from deduplicator_go_ray.stages import verify

    source, uid = _random_sig_source(6, 3)
    pairs = ray.data.from_arrow(pa.table({
        "u": pa.array([uid["a"]], pa.int64()),
        "v": pa.array([uid["b"]], pa.int64())})).materialize()
    monkeypatch.setattr(verify, "_build_index", ray.remote(
        lambda *blocks: sum(len(b) for b in blocks)))
    payload = verify.near_spec(MinHashConfig()).payload
    assert ray.get(verify.endpoint_index(pairs, source, payload)) == 2


def test_flood_plan_reads_the_kinds_own_pair_count(ray_session, monkeypatch):
    """A verify given a mixed-kind candidate table picks its plan from
    its own kind's pair count: 2 near pairs under a 2-pair near cap keep
    the endpoint index although the table holds 10 rows."""
    from deduplicator_go_ray.stages import verify

    source, uid = _random_sig_source(6, 4)
    us = [uid["a"], uid["a"]] + [uid["c"]] * 8
    vs = [uid["b"], uid["c"]] + [uid["d"]] * 8
    pairs = ray.data.from_arrow(pa.table({
        "u": pa.array(us, pa.int64()), "v": pa.array(vs, pa.int64()),
        "kind": pa.array([KIND_BAND] * 2 + [KIND_ANCHOR] * 8, pa.int8())}))
    monkeypatch.setattr(verify, "NEAR_ROUND2_MAX_BYTES", 2 * 2 * 128 * 8)

    def no_attach(*a, **k):
        raise AssertionError("two-attach plan below the kind's cap")

    monkeypatch.setattr(verify, "_two_attach_check", no_attach)
    got = _canon_edges(verify.verify_near_edges(
        pairs, source, MinHashConfig()))
    assert list(got.itertuples(index=False, name=None)) == [
        tuple(sorted((uid["a"], uid["b"])))]


def test_keyed_round2_uid128_drops_duplicate_pairs(ray_session, monkeypatch):
    """The two keyed attach exchanges on 16-byte uids, with every pair
    listed twice under two kinds: one row per (u, v) pair comes out,
    the min-kind copy, and the edges equal the index plan's."""
    from deduplicator_go_ray.stages import verify
    from deduplicator_go_ray.stages.buckets import uid_arrow

    rng = np.random.default_rng(9)
    base = rng.integers(0, 2**63, 128, dtype=np.int64).astype(np.uint64)
    sigs = {"a": base, "b": base.copy(),
            "c": rng.integers(0, 2**63, 128, dtype=np.int64).astype(np.uint64)}
    source = ray.data.from_arrow(pa.table({
        "url": list(sigs),
        "minhash": pa.array([x.tolist() for x in sigs.values()],
                            pa.list_(pa.uint64()))})).materialize()
    uids = uid_of_urls(list(sigs), 128)
    # Python bytes of the full 16-byte uids (an S16 item would drop NULs)
    uid = dict(zip(sigs, uid_arrow(uids).to_pylist()))
    pos = {x: i for i, x in enumerate(sigs)}
    ordered = [(x, y) for x in sigs for y in sigs if x != y] * 2
    kinds = [KIND_SIMHASH] * 6 + [KIND_BAND] * 6
    pairs = ray.data.from_arrow(pa.table({
        "u": uid_arrow(uids[[pos[x] for x, _ in ordered]]),
        "v": uid_arrow(uids[[pos[y] for _, y in ordered]]),
        "kind": pa.array(kinds, pa.int8())}))
    cfg = MinHashConfig()
    index = verify.verify_near_edges(pairs, source, cfg)
    monkeypatch.setattr(verify, "NEAR_ROUND2_MAX_BYTES", 0)
    keyed = verify.verify_near_edges(pairs, source, cfg).to_pandas()
    assert sorted(zip(keyed["u"], keyed["v"])) == sorted(
        [(uid["a"], uid["b"]), (uid["b"], uid["a"])])
    assert (keyed["kind"] == KIND_BAND).all()
    assert _canon_edges(index).equals(
        _canon_edges(ray.data.from_pandas(keyed)))


def test_simhash_pair_emission_equals_naive(ray_session):
    """The size-class-vectorized SimHash pair emission (LUT popcount,
    no per-key loop) must produce the exact edge set of the naive
    per-key 64-shift Hamming loop on dense random buckets."""
    import ray.data

    from deduplicator_go_ray.stages.buckets import (KIND_SIMHASH,
                                                    candidate_edges_fused)

    rng = np.random.default_rng(4)
    n, thr = 3000, 6
    base = rng.integers(0, 2**63, 40, dtype=np.int64)
    pay = base[rng.integers(0, 40, n)].view(np.uint64)
    flips = ((np.uint64(1) << rng.integers(0, 64, n).astype(np.uint64))
             * (rng.random(n) < 0.7))
    tbl = pa.table({
        "key": pa.array(rng.integers(0, 150, n), pa.int64()),
        "kind": pa.array(np.full(n, KIND_SIMHASH, np.int8), pa.int8()),
        "uid": pa.array(rng.permutation(n).astype(np.int64), pa.int64()),
        "payload": pa.array((pay ^ flips.astype(np.uint64)).view(np.int64),
                            pa.int64()),
        "flag": pa.array(np.zeros(n, bool), pa.bool_()),
        **_zero_digests(n),              # equal digests prune nothing
    })
    got = candidate_edges_fused(ray.data.from_arrow(tbl), LSHConfig(),
                                thr).to_pandas()
    got_set = set(zip(got["u"].tolist(), got["v"].tolist()))

    df = tbl.to_pandas().drop_duplicates(["key", "uid"])
    cnt = df.groupby("key")["uid"].transform("size")
    df = df[(cnt > 1) & (cnt <= 512)]
    exp = set()
    for _, g in df.groupby("key", sort=False):
        uids = g["uid"].to_numpy()
        order = np.argsort(uids, kind="stable")
        uids = uids[order]
        sh = g["payload"].to_numpy()[order].view(np.uint64)
        xor = sh[:, None] ^ sh[None, :]
        hd = np.zeros_like(xor, dtype=np.int64)
        for s in range(64):
            hd += ((xor >> np.uint64(s)) & np.uint64(1)).astype(np.int64)
        iu, jv = np.nonzero(np.triu(hd <= thr, k=1))
        exp |= set(zip(uids[iu].tolist(), uids[jv].tolist()))
    assert len(exp) > 500          # dense enough to be a real check
    assert got_set == exp


# ---- the candidate reducer's prune -------------------------------------------
def _sig_source(sigs: dict) -> "ray.data.Dataset":
    """A signature table (url, minhash, n_shingles) of hand-made slots."""
    return ray.data.from_arrow(pa.table({
        "url": list(sigs),
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate(list(sigs.values())), pa.uint64()), 128),
        "n_shingles": pa.array(np.full(len(sigs), 50), pa.int64()),
    }))


def _pairs(edges: pd.DataFrame, kind: int) -> set:
    sub = edges[edges["kind"] == kind]
    return set(zip(sub["u"].tolist(), sub["v"].tolist()))


def _forged_pairs(rows: pd.DataFrame, key: int) -> tuple:
    """Candidate edges of bucket ``rows`` moved into one bucket ``key``:
    with their own digests, and with the digests zeroed (no prune)."""
    forged = pa.Table.from_pandas(rows.assign(key=key), preserve_index=False)
    zeroed = forged.drop_columns(["d0", "d1"])
    for c, arr in _zero_digests(len(rows)).items():
        zeroed = zeroed.append_column(c, arr)
    return tuple(candidate_edges_fused(ray.data.from_arrow(t), LSHConfig(), 3)
                 .to_pandas() for t in (forged, zeroed))


@pytest.mark.parametrize("threshold,m_min", [(0.8, 103), (0.5, 64)])
def test_reducer_prune_keeps_pairs_at_the_bound(threshold, m_min, ray_session):
    """Soundness of the fingerprint bound: pairs with exactly m_min equal
    slots are kept, both when every unequal slot also differs in its
    low bit (P - m_min differing bits: the bound is tight) and when
    some unequal slots collide in their low bit."""
    from deduplicator_go_ray.stages.buckets import min_slot_matches

    cfg = MinHashConfig(verify_threshold=threshold)
    assert min_slot_matches(cfg) == m_min
    rng = np.random.default_rng(17)
    sigs, planted = {}, []
    for name, collide in (("tight", 0), ("collide", (128 - m_min) // 2)):
        a = rng.integers(0, 2**62, 128, dtype=np.int64).astype(np.uint64)
        b = a.copy()
        b[m_min:] ^= np.uint64(1)                    # low bit differs
        b[m_min:m_min + collide] ^= np.uint64(3)     # unequal, low bit equal
        assert (a == b).sum() == m_min               # bands 0-7 shared
        sigs[name + "_a"], sigs[name + "_b"] = a, b
        planted.append(tuple(sorted(uid_of_urls([name + "_a", name + "_b"]))))
    edges = candidate_edges_fused(
        bucket_rows(_sig_source(sigs), cfg, (KIND_BAND,)),
        LSHConfig(), 3, minhash=cfg).to_pandas()
    assert set(planted) <= _pairs(edges, KIND_BAND)


def test_reducer_prune_drops_unrelated_signatures(ray_session):
    """Bite of the fingerprint bound: unrelated random signatures forced
    into one band bucket are all dropped; with the digests zeroed the
    same bucket emits its chain and star pairs."""
    rng = np.random.default_rng(23)
    sigs = {f"r{i}": rng.integers(0, 2**62, 128, dtype=np.int64).astype(np.uint64)
            for i in range(20)}
    rows = bucket_rows(_sig_source(sigs), MinHashConfig(),
                       (KIND_BAND,)).to_pandas()
    got, ctl = _forged_pairs(rows, 99)
    assert len(ctl) >= 19
    assert len(got) == 0


def _anchor_text(rng, n_words: int, vocab=None) -> str:
    vocab = vocab or ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                      "golf", "hotel", "india", "juliet", "kilo", "lima"]
    return " ".join(rng.choice(vocab, n_words).tolist())


def test_reducer_prune_keeps_contained_texts(ray_session):
    """Soundness of the anchor bloom: a contained text is kept at exactly
    min_len (200 bytes), at an offset inside its container, and with
    multi-byte UTF-8."""
    from deduplicator_go_ray.config import SubstringConfig

    rng = np.random.default_rng(29)
    st = SignatureStage()
    long = _anchor_text(rng, 400)
    raw = long.encode()
    # the first 200-byte window with an anchor (a short needs a min anchor
    # to be a candidate at all)
    windows = [raw[o:o + 200].decode() for o in range(0, len(raw) - 200)]
    n_anchors = pc.list_value_length(
        st(pa.table({"text": windows}))["anchors"]).to_numpy()
    exact200 = windows[int(np.flatnonzero(n_anchors)[0])]
    assert len(exact200.encode()) == SubstringConfig().min_len
    mb_long = _anchor_text(rng, 300, ["größe", "日本語", "naïve", "café",
                                      "ẞtraße", "über", "東京", "żółw"])
    texts = {"long": long, "exact200": exact200,
             "offset": long[900:1500], "mb_long": mb_long,
             "mb_short": mb_long[300:700]}
    assert len(texts["mb_short"].encode()) > len(texts["mb_short"])
    sigs = _sigs(texts, ray_session)
    edges = candidate_edges_fused(
        bucket_rows(sigs, MinHashConfig(), (KIND_BAND, KIND_ANCHOR)),
        LSHConfig(), 3).to_pandas()
    uid = dict(zip(texts, uid_of_urls(list(texts))))
    got = _pairs(edges, KIND_ANCHOR)
    for short, container in (("exact200", "long"), ("offset", "long"),
                             ("mb_short", "mb_long")):
        assert (uid[short], uid[container]) in got, short


def test_reducer_prune_drops_unrelated_texts(ray_session):
    """Bite of the anchor bloom: unrelated texts of 1 KB or more forced
    to share an anchor bucket are all dropped; with the digests zeroed
    every shorter one pairs with every longer one.  A bloom bit taken
    from the raw anchor value would keep them (anchors are ≡ 0 mod 64,
    so each bloom would be a subset of {0, 64})."""
    rng = np.random.default_rng(31)
    texts = {f"t{i}": _anchor_text(rng, 180 + 15 * i) for i in range(10)}
    assert min(len(t.encode()) for t in texts.values()) >= 1024
    rows = bucket_rows(_sigs(texts, ray_session), MinHashConfig(),
                       (KIND_BAND, KIND_ANCHOR)).to_pandas()
    rows = rows[(rows["kind"] == KIND_ANCHOR) & rows["flag"]]
    assert len(rows) == len(texts)
    got, ctl = _forged_pairs(rows, 7)
    assert len(ctl) == 45
    assert len(got) == 0


def test_reducer_dedupes_near_pairs_but_keeps_anchor_rows(ray_session):
    """One partition: a pair sharing two band buckets and a SimHash chunk
    comes out once, as kind 0 (the minimum near kind); the same pair's
    anchor candidate keeps its own row, which carries the substring
    match kind."""
    key = [10, 11, 10, 11, 20, 20, 30, 30]
    kind = [KIND_BAND] * 4 + [KIND_SIMHASH] * 2 + [KIND_ANCHOR] * 2
    tbl = pa.table({
        "key": pa.array(key, pa.int64()),
        "kind": pa.array(kind, pa.int8()),
        "uid": pa.array([1, 1, 2, 2, 1, 2, 1, 2], pa.int64()),
        "payload": pa.array([0, 0, 0, 0, 5, 5, 300, 500], pa.int64()),
        "flag": pa.array([False] * 6 + [True, False], pa.bool_()),
        **_zero_digests(8),
    })
    got = candidate_edges_fused(ray.data.from_arrow(tbl), LSHConfig(), 3,
                                num_partitions=1).to_pandas()
    assert sorted(zip(got["u"], got["v"], got["kind"])) == [
        (1, 2, KIND_BAND), (1, 2, KIND_ANCHOR)]


def _identical_sigs_with_uids(ray_on) -> "ray.data.Dataset":
    """Three identical documents whose ``DOC_UID`` column orders them
    unlike their urls (url a < b < c, uid 30 > 10 < 20)."""
    text = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon " * 6)
    uid = {"a": 30, "b": 10, "c": 20}
    return _sigs({u: text for u in uid}, ray_on).map_batches(
        lambda t: t.append_column(DOC_UID, pa.array(
            [uid[u] for u in t["url"].to_pylist()], pa.int64())),
        batch_format="pyarrow").materialize()


def test_bucket_rows_key_on_doc_uid_column(ray_session):
    """An input with a ``DOC_UID`` column is keyed by it: every band bucket
    of the three identical docs emits its chain and star over the uids
    in uid order (10-20, 20-30, then the star 10-30), not over url
    hashes or in url order."""
    rows = bucket_rows(_identical_sigs_with_uids(ray_session), MinHashConfig(),
                       (KIND_BAND,))
    assert sorted(set(rows.to_pandas()["uid"])) == [10, 20, 30]
    got = candidate_edges_fused(rows, LSHConfig(), 3).to_pandas()
    assert set(zip(got["u"], got["v"])) == {(10, 20), (20, 30), (10, 30)}


@pytest.mark.parametrize("two_attach", [False, True])
def test_index_check_probes_source_doc_uid_column(ray_session, monkeypatch,
                                                  two_attach):
    """The verify index over a ``DOC_UID``-carrying source is keyed by that
    column, and so is the two-attach check (near round-2 cap 0): pairs
    named by those uids verify, a pair naming an absent uid is
    dropped."""
    from deduplicator_go_ray.stages import verify

    if two_attach:
        monkeypatch.setattr(verify, "NEAR_ROUND2_MAX_BYTES", 0)
    sigs = _identical_sigs_with_uids(ray_session)
    pairs = ray.data.from_arrow(pa.table({
        "u": pa.array([10, 20, 10], pa.int64()),
        "v": pa.array([20, 30, 99], pa.int64()),
        "kind": pa.array([KIND_BAND] * 3, pa.int8())}))
    got = verify_near_edges(pairs, sigs, MinHashConfig()).to_pandas()
    assert sorted(zip(got["u"], got["v"])) == [(10, 20), (20, 30)]


def test_simhash_pairs_survive_digest_prune_at_zero_threshold(ray_session):
    """Two kind-1 rows with equal SimHash bits but slot digests that
    differ in all 128 bits: at ``verify_threshold=0.0`` every bit may
    differ, so the Hamming pair is kept; at the default threshold the
    fingerprint prune drops it."""
    tbl = pa.table({
        "key": pa.array([7, 7], pa.int64()),
        "kind": pa.array([KIND_SIMHASH] * 2, pa.int8()),
        "uid": pa.array([1, 2], pa.int64()),
        "payload": pa.array([5, 5], pa.int64()),
        "flag": pa.array([False, False], pa.bool_()),
        "d0": pa.array([0, -1], pa.int64()),
        "d1": pa.array([0, -1], pa.int64()),
    })

    def edges(cfg):
        return candidate_edges_fused(ray.data.from_arrow(tbl), LSHConfig(), 8,
                                     minhash=cfg).to_pandas()

    kept = edges(MinHashConfig(verify_threshold=0.0))
    assert list(zip(kept["u"], kept["v"], kept["kind"])) == [(1, 2, KIND_SIMHASH)]
    assert len(edges(MinHashConfig())) == 0
