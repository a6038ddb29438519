"""Join primitives: the keyed hash join (scale path) — inner, left
outer, semi and anti — against pandas merges and the broadcast filter
(small path)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from deduplicator_go_ray.stages.joins import broadcast_semi_filter, hash_join


@pytest.fixture()
def data(ray_session):
    n = 500
    rows = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        # full-range int64 payload: catches lossy float round-trips
        "big": pa.array((np.arange(n, dtype=np.uint64)
                         * np.uint64(0x9E3779B97F4A7C15)).view(np.int64),
                        pa.int64()),
        "k": pa.array(np.arange(n) % 97, pa.int64()),
    })
    keys = pa.table({"k": pa.array(np.arange(0, 97, 3), pa.int64())})
    return ray.data.from_arrow(rows), ray.data.from_arrow(keys)


def _arrow(blocks) -> pa.Table:
    return blocks.to_arrow()


def _sorted(df):
    return df.sort_values("doc_id").reset_index(drop=True)


def test_keyed_semi_equals_broadcast(data):
    ds, keys_ds = data
    keyset = {r["k"] for r in keys_ds.take_all()}
    b = _sorted(broadcast_semi_filter(ds, "k", keyset).to_pandas())
    s = _sorted(hash_join(ds, keys_ds, "k", "left semi").to_pandas())
    assert b.equals(s[b.columns])
    assert len(b) > 0


def test_keyed_anti_equals_broadcast(data):
    ds, keys_ds = data
    keyset = {r["k"] for r in keys_ds.take_all()}
    b = _sorted(broadcast_semi_filter(ds, "k", keyset, anti=True).to_pandas())
    s = _sorted(hash_join(ds, keys_ds, "k", "left anti").to_pandas())
    assert b.equals(s[b.columns])
    assert len(b) > 0
    # int64 payloads survive bit-exact through the shuffle
    assert s["big"].dtype == np.int64


def test_hash_join_left_outer_keeps_int64_exact(data):
    """Left outer join: every left row once, matched rows carry the
    right side's columns, unmatched rows get nulls, and full-range
    int64 values on both sides stay bit-exact (no float round trip)."""
    ds, _ = data
    n = 500
    big = (np.arange(n, dtype=np.uint64)
           * np.uint64(0x9E3779B97F4A7C15)).view(np.int64)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(0, 97, 2), pa.int64()),
        "rbig": pa.array(-big[:49], pa.int64()),
    }))
    got = _arrow(hash_join(ds, right, "k", "left outer", num_partitions=8))
    got = got.sort_by("doc_id").to_pydict()
    rbig = dict(zip(range(0, 97, 2), (-big[:49]).tolist()))
    assert got["doc_id"] == list(range(n))
    assert got["big"] == big.tolist()
    assert got["rbig"] == [rbig.get(k) for k in got["k"]]
    assert sum(r is None for r in got["rbig"]) > 0
    # one right key: most partitions get no right rows and must still
    # emit the right column, typed (blocks of one schema)
    one = ray.data.from_arrow(pa.table({"k": pa.array([3], pa.int64()),
                                        "rbig": pa.array(big[:1], pa.int64())}))
    got = _arrow(hash_join(ds, one, "k", "left outer", num_partitions=8))
    assert got.num_rows == n and got.schema.field("rbig").type == pa.int64()
    assert got["rbig"].null_count == n - int((np.arange(n) % 97 == 3).sum())


def test_hash_join_inner_equals_pandas_merge(ray_session):
    """The inner join that attaches a verify payload must equal a plain
    pandas inner merge: missing endpoints drop, each edge row gets its
    endpoint's payload, edge columns ride unchanged."""
    rng = np.random.default_rng(7)
    n_pay, n_edge = 200, 500
    uids = rng.choice(10_000, size=n_pay, replace=False).astype(np.int64)
    vals = [bytes(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
            for _ in range(n_pay)]
    payload = ray.data.from_arrow(pa.table({
        "u": pa.array(uids, pa.int64()),
        "sig_u": pa.array(vals, pa.binary(16)),
    }))
    u = rng.choice(12_000, n_edge).astype(np.int64)   # ~1/6 miss
    v = rng.choice(12_000, n_edge).astype(np.int64)
    kind = rng.integers(0, 3, n_edge).astype(np.int8)
    edges = ray.data.from_arrow(pa.table({
        "u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
        "kind": pa.array(kind, pa.int8()),
    }))
    got = hash_join(edges, payload, "u", num_partitions=8).to_pandas()

    exp = (pd.DataFrame({"u": u, "v": v, "kind": kind})
           .merge(pd.DataFrame({"u": uids, "sig_u": vals}),
                  on="u", how="inner"))
    key = ["u", "v", "kind", "sig_u"]
    got_s = got[key].sort_values(key).reset_index(drop=True)
    exp_s = exp[key].sort_values(key).reset_index(drop=True)
    assert len(got_s) == len(exp_s) > 0
    pd.testing.assert_frame_equal(
        got_s, exp_s, check_dtype=False)


def test_hash_join_partitions_without_right_rows(ray_session):
    """Partitions that receive left rows but NO right rows (key absent
    from the right side) must contribute zero rows, not crash: 2 right
    keys + 64 partitions leaves most partitions left-only."""
    rng = np.random.default_rng(11)
    payload = ray.data.from_arrow(pa.table({
        "u": pa.array([5, 9], pa.int64()),
        "sig_u": pa.array([b"A" * 16, b"B" * 16], pa.binary(16)),
    }))
    u = rng.choice(12_000, 300).astype(np.int64)
    u[:3] = [5, 9, 5]                       # a few real hits
    edges = ray.data.from_arrow(pa.table({
        "u": pa.array(u, pa.int64()),
        "v": pa.array(rng.choice(12_000, 300).astype(np.int64), pa.int64()),
        "kind": pa.array(np.zeros(300, np.int8), pa.int8()),
    }))
    got = hash_join(edges, payload, "u", num_partitions=64).to_pandas()
    n_hits = int((u == 5).sum() + (u == 9).sum())
    assert len(got) == n_hits
    assert set(got.loc[got["u"] == 5, "sig_u"]) == {b"A" * 16}
    assert set(got.loc[got["u"] == 9, "sig_u"]) == {b"B" * 16}


def test_hash_join_uid128_keys_and_list_payload(ray_session):
    """16-byte keys join like int64 ones, and payload types Arrow's
    join cannot carry itself (lists) ride through.  An empty right side
    keeps every left row on a left outer or anti join, none on a semi
    join."""
    keys = [bytes([i]) * 16 for i in range(6)]
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.binary(16)),
        "x": pa.array(range(6), pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(keys[::2], pa.binary(16)),
        "anchors": pa.array([[1, 2], [], [3]], pa.list_(pa.int64()))}))
    got = _arrow(hash_join(left, right, "k", "left outer")).sort_by("x")
    assert got["anchors"].to_pylist() == [[1, 2], None, [], None, [3], None]
    empty = right.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    assert hash_join(left, empty, "k", "left outer").num_rows == 6
    assert hash_join(left, empty, "k", "left anti").num_rows == 6
    assert hash_join(left, empty, "k", "left semi").num_rows == 0


def test_broadcast_semi_filter_empty_keys(ray_session):
    """Empty key set: semi keeps nothing, anti keeps everything —
    regression for the pa.array([])-infers-null-type is_in crash."""
    import pyarrow as pa
    import ray.data

    from deduplicator_go_ray.stages.joins import broadcast_semi_filter

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c"], pa.string()),
        "v": pa.array([1, 2, 3], pa.int64()),
    }))
    assert broadcast_semi_filter(ds, "k", set()).count() == 0
    assert broadcast_semi_filter(ds, "k", set(), anti=True).count() == 3
    # int-typed key column takes the same path
    assert broadcast_semi_filter(ds, "v", set()).count() == 0


def test_broadcast_lookup_pair_mapping_honors_default(ray_session):
    """The (keys, values) numpy-pair fast path must fill misses with
    ``default`` exactly like the documented dict plan — not nulls."""
    import ray.data

    from deduplicator_go_ray.stages.joins import broadcast_lookup

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64())}))
    pair = (np.array([2, 4], np.int64), np.array([20, 40], np.int64))
    out = broadcast_lookup(ds, "k", pair, "v", default=-1).to_pandas()
    assert out.sort_values("k")["v"].tolist() == [-1, 20, -1, 40]
    # dict plan agreement on the same inputs
    out2 = broadcast_lookup(ds, "k", {2: 20, 4: 40}, "v",
                            default=-1).to_pandas()
    assert out2.sort_values("k")["v"].tolist() == [-1, 20, -1, 40]
    # default=None keeps the null-on-miss contract
    out3 = broadcast_lookup(ds, "k", pair, "v").to_pandas()
    assert out3.sort_values("k")["v"].isna().tolist() == [
        True, False, True, False]


def test_hash_shuffle_three_exchange_dag_completes(tmp_path):
    """Three chained grouped_applys whose middle output also feeds a
    union once deadlocked Ray's streaming executor on a small cluster.
    The same shape must complete in a fresh 4-cpu subprocess, with every
    key present once and the union's rows counted twice.  A hung job is
    stopped by an alarm inside the subprocess, so its Ray session still
    shuts down."""
    import os
    import subprocess
    import sys

    script = r"""
import signal, sys
sys.path.insert(0, %r)
import ray, ray.data
import pyarrow as pa
import pandas as pd

def stop(*_):
    raise TimeoutError("the three-exchange DAG did not finish")

signal.signal(signal.SIGALRM, stop)
signal.alarm(200)
ray.init(address="local", num_cpus=4, include_dashboard=False)
try:
    from deduplicator_go_ray.stages.common import grouped_apply

    t = pa.table({"k": list(range(100)) * 5,
                  "v": [float(i) for i in range(500)]})
    ds = ray.data.from_arrow(t)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["v"].sum()

    a = grouped_apply(ds, ["k"], f)
    b = grouped_apply(a, ["k"], f)
    c = grouped_apply([b, a], ["k"], f)
    df = c.to_pandas().sort_values("k").reset_index(drop=True)
    print("RESULT", df["k"].tolist() == list(range(100)),
          float(df["v"].sum()))
finally:
    ray.shutdown()
""" % (os.path.dirname(os.path.dirname(os.path.abspath(__file__))),)
    env = dict(os.environ, RAY_ADDRESS="local")
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=240)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("RESULT")]
    assert lines and lines[0].split()[1] == "True", p.stdout[-2000:]
    assert float(lines[0].split()[2]) == 2.0 * sum(range(500)), lines[0]
