"""Join-primitive equivalence: the keyed-shuffle semi/anti join (scale
path) must agree with the broadcast filter (small path) — VERDICT r1
"what's wrong" #4."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from deduplicator_go_ray.stages.joins import (broadcast_semi_filter,
                                              keyed_membership_filter)


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


def _sorted(df):
    return df.sort_values("doc_id").reset_index(drop=True)


def test_keyed_semi_equals_broadcast(data):
    ds, keys_ds = data
    keyset = {r["k"] for r in keys_ds.take_all()}
    b = _sorted(broadcast_semi_filter(ds, "k", keyset).to_pandas())
    s = _sorted(keyed_membership_filter(ds, "k", keys_ds).to_pandas())
    assert b.equals(s[b.columns])
    assert len(b) > 0


def test_keyed_anti_equals_broadcast(data):
    ds, keys_ds = data
    keyset = {r["k"] for r in keys_ds.take_all()}
    b = _sorted(broadcast_semi_filter(ds, "k", keyset, anti=True).to_pandas())
    s = _sorted(keyed_membership_filter(ds, "k", keys_ds, anti=True).to_pandas())
    assert b.equals(s[b.columns])
    assert len(b) > 0
    # int64 payloads survive bit-exact through the shuffle
    assert s["big"].dtype == np.int64


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
    key present once and the union's rows counted twice."""
    import os
    import subprocess
    import sys

    script = r"""
import os, sys
sys.path.insert(0, %r)
import ray, ray.data
import pyarrow as pa
import pandas as pd
ray.init(address="local", num_cpus=4, include_dashboard=False)
from deduplicator_go_ray.stages.common import grouped_apply

t = pa.table({"k": list(range(100)) * 5,
              "v": [float(i) for i in range(500)]})
ds = ray.data.from_arrow(t)

def f(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby("k", as_index=False)["v"].sum()

a = grouped_apply(ds, ["k"], f)
b = grouped_apply(a, ["k"], f)
c = grouped_apply(b.union(a), ["k"], f)
df = c.to_pandas().sort_values("k").reset_index(drop=True)
print("RESULT", df["k"].tolist() == list(range(100)),
      float(df["v"].sum()))
ray.shutdown()
""" % (os.path.dirname(os.path.dirname(os.path.abspath(__file__))),)
    env = dict(os.environ, RAY_ADDRESS="local")
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=240)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("RESULT")]
    assert lines and lines[0].split()[1] == "True", p.stdout[-2000:]
    assert float(lines[0].split()[2]) == 2.0 * sum(range(500)), lines[0]
