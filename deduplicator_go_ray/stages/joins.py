"""Join / lookup primitives (SURVEY.md §2.4).

The reference's joins are either Postgres-side (dup-group CTE,
``files/utils.go:97-107``) or N+1 point lookups (``files/import.go:
269-281``).  Here:

* small side → **broadcast**: `ray.put` once, read per actor/task,
  dict/pandas lookup inside ``map_batches`` (≙ J2/J4's priorityMap and
  hosts-dim enrichment) — no shuffle.
* both sides large → :func:`hash_join`, the package's one keyed join:
  ONE task exchange (``grouped_apply`` over both sides) and Arrow's
  hash join inside each reduce task — inner, left outer, and the
  semi/anti joins (≙ J3 import hash anti-join at scale).
* semi/anti join against a small key set → broadcast the keys and
  filter inside ``map_batches``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .common import Blocks, grouped_apply

# per-worker-process cache for broadcast_lookup's deserialized probe
# indexes (FIFO-bounded via common.bounded_cache_put — two lookup
# stages of one topology may interleave batches in the same worker)
_LOOKUP_CACHE: dict = {}

JOIN_TYPES = ("inner", "left outer", "left semi", "left anti")
# hash_join's exchange: the side tag, and the prefix that marks the
# right side's columns
_SIDE, _RIGHT = "__side", "__right__."


def hash_join(
    left: "Blocks | ray.data.Dataset",
    right: "Blocks | ray.data.Dataset",
    key: str,
    how: str = "inner",
    *,
    post_fn: Callable[[pa.Table], pa.Table] | None = None,
    num_partitions: int = 64,
) -> "Blocks":
    """Equi-join two inputs on their shared column ``key`` through one
    hash exchange: each row is tagged with its side, both sides
    partition on ``key`` (one ``grouped_apply`` over ``[left,
    right]``) and every reduce task splits its partition by the tag
    and joins it with ``pa.Table.join`` (single-threaded — the task is
    the unit of parallelism).  Returns ``common.Blocks``.

    ``how`` is one of :data:`JOIN_TYPES`.  ``inner`` and ``left outer``
    append the right side's other columns (null on unmatched left rows
    — Arrow null-pads, so full-range int64 columns stay exact); the
    semi and anti joins return left rows only, each at most once, and
    read only the right side's ``key``.  Arrow joins the key and a row
    index; the columns are gathered by ``take``, so any column type
    rides.  The right side's columns travel under a prefix, so which
    side owns a column never depends on its values; a right column may
    not share a left column's name.  A right side with no rows at all
    adds no columns.  A partition's rows come out in left-row order.

    ``post_fn`` runs on each partition's joined table inside the
    reduce (it must accept a zero-row table): a check fused there
    never writes the wide joined rows to the object store."""
    if how not in JOIN_TYPES:
        raise ValueError(f"unknown join type {how!r}; one of {JOIN_TYPES}")
    semi = how in ("left semi", "left anti")

    def tag_left(t: pa.Table) -> pa.Table:
        return t.append_column(_SIDE, pa.array(np.zeros(len(t), np.int8)))

    def tag_right(t: pa.Table) -> pa.Table:
        if semi:
            t = t.select([key])
        t = t.rename_columns([c if c == key else _RIGHT + c
                              for c in t.column_names])
        return t.append_column(_SIDE, pa.array(np.ones(len(t), np.int8)))

    def join(t: pa.Table) -> pa.Table:
        is_r = pc.equal(t[_SIDE], 1)
        rcols = [c for c in t.column_names if c.startswith(_RIGHT)]
        lcols = [c for c in t.column_names if c not in rcols and c != _SIDE]
        out = _join_partition(
            t.select(lcols).filter(pc.invert(is_r)),
            t.select([key, *rcols]).filter(is_r).rename_columns(
                [key, *(c[len(_RIGHT):] for c in rcols)]),
            key, how)
        return post_fn(out) if post_fn is not None else out

    # the side tags are the split tasks' pre_fns: over materialized
    # sides the join starts no Dataset execution
    return grouped_apply([left, right], [key], join,
                         num_partitions=num_partitions, arrow_fn=True,
                         pre_fn=[tag_left, tag_right])


def _join_partition(left: pa.Table, right: pa.Table, key: str,
                    how: str) -> pa.Table:
    index = pa.table({key: right[key].cast(left[key].type),
                      "__r": pa.array(np.arange(right.num_rows))})
    pairs = pa.table({key: left[key],
                      "__l": pa.array(np.arange(left.num_rows))}).join(
        index, keys=key, join_type=how, use_threads=False)
    if how in ("left semi", "left anti"):
        return left.take(pairs.sort_by("__l")["__l"])
    rest = right.drop_columns([key])
    clash = set(rest.column_names) & set(left.column_names)
    if clash:
        raise ValueError(f"join column collision: {sorted(clash)}")
    pairs = pairs.sort_by([("__l", "ascending"), ("__r", "ascending")])
    out = left.take(pairs["__l"])
    for c in rest.column_names:
        out = out.append_column(c, rest[c].take(pairs["__r"]))
    return out


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
        raise TypeError(f"array mappings take int64 keys, got {mapping[0].dtype}")
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
