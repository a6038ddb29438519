"""Candidate verification for both match kinds: near duplicates
(signature Jaccard) and containment (exact substring).

The cheap prune runs earlier, inside the candidate reducer
(``stages/buckets.py``: slot fingerprints and anchor blooms), so every
candidate that reaches this module goes straight to the exact check,
built from two shared parts:

* **one index check** — one task gathers the kind's pairs and keeps
  one row per (u, v); ONE Ray task builds a uid-sorted index of the
  kind's payload over those pairs' endpoints only, which one task per
  source block filters out first (:func:`endpoint_index`); then one
  plain task per pair slice, the index a top-level argument mapped
  zero-copy from the object store, applies the exact predicate — no
  exchange and no Dataset execution, and each pair is checked once.
  Registry queries whose per-pair result is more than a keep mask
  (n-gram Jaccard, longest common substring) probe the same index
  (:func:`index_rows`);
* **one two-attach check** — two keyed :func:`~.joins.hash_join`
  exchanges (payload of u, then of v) with the exact predicate applied
  inside the second reduce, so the wide (pair + payload) rows never
  reach the object store.

A per-kind spec (:class:`VerifySpec`) names the payload, the exact
predicate, the round-2 cap and the candidate kinds it reads, so both
checks take the same candidate table and each picks its own kind
inside its tasks.  Sources are keyed like the candidate rows
(``buckets.batch_uids``): by their ``DOC_UID`` column when they carry
one, else by the url hash.  Each kind has one rule, read only in
:func:`_verify`: the index check while the kind's pairs are at or below
its round-2 cap, the two-attach check above it (the only plan whose
per-worker memory does not grow with the pair set).  The kind's pairs
are counted only when the candidate total exceeds the cap; below it the
check's tasks are submitted and nothing is awaited, so a caller's two
verifies run side by side.

Both checks yield the same edge set (equality-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import MinHashConfig
from .buckets import (DOC_UID, KIND_ANCHOR, KIND_BAND, KIND_SIMHASH,
                      batch_uids, min_slot_matches, uid_arrow, uid_np,
                      uid_width, uid_words)
from .common import (Blocks, as_blocks, bounded_cache_put, gather,
                     map_blocks, sorted_probe, with_stats)
from .joins import hash_join

# round-2 caps: up to this many pairs the exact check runs against an
# endpoint index built by one task; above it the pairs' full payloads
# ride the two keyed attach exchanges instead
NEAR_ROUND2_MAX_BYTES = 4 << 30        # both endpoints' full signatures
CONTAINMENT_ROUND2_MAX_PAIRS = 500_000

U, V, UV = ("u",), ("v",), ("u", "v")


@dataclass(frozen=True)
class VerifySpec:
    """What one match kind verifies.  ``payload`` maps a source batch
    to its value array; ``exact`` maps two aligned value arrays to a
    keep mask; ``kinds`` are the candidate kinds the check reads from
    a pair table that carries a ``kind`` column (:func:`_pick`)."""
    payload: Callable[[pa.Table], pa.Array]
    exact: Callable[[pa.Array, pa.Array], np.ndarray]
    round2_max: int
    kinds: tuple = ()


def _pick(t: pa.Table, kinds: tuple) -> pa.Table:
    """The pair rows of ``kinds`` — every row when ``kinds`` is empty or
    the table has no ``kind`` column.  So one candidate table feeds
    both checks and each reads its own kind inside its tasks."""
    if not kinds or "kind" not in t.column_names:
        return t
    return t.filter(pc.is_in(t["kind"], pa.array(kinds, pa.int8())))


def _slot_matrix(col, n: int, P: int) -> np.ndarray:
    """(n, P) uint64 view of a ``fixed_size_binary(P * 8)`` column — one
    buffer view, no per-row Python.  Any other type has no fixed-stride
    data buffer to view, so it is refused."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    width = P * 8
    if not (pa.types.is_fixed_size_binary(arr.type)
            and arr.type.byte_width == width):
        raise TypeError(f"payload blobs must be fixed_size_binary({width}),"
                        f" got {arr.type}")
    if n == 0:
        return np.empty((0, P), np.uint64)
    flat = np.frombuffer(arr.buffers()[1], dtype=np.uint64,
                         count=(arr.offset + n) * P)[arr.offset * P:]
    return flat.reshape(n, P)


def _blob(mat: np.ndarray) -> pa.Array:
    """fixed_size_binary column over the rows of a 2-D numpy matrix."""
    mat = np.ascontiguousarray(mat)
    return pa.Array.from_buffers(pa.binary(mat.shape[1] * mat.itemsize),
                                 len(mat), [None, pa.py_buffer(mat)])


def near_spec(cfg: MinHashConfig) -> VerifySpec:
    """Signature Jaccard: value = the P-slot signature blob; a pair
    passes when at least ``min_slot_matches(cfg)`` slots match."""
    P = cfg.num_perms
    m_min = min_slot_matches(cfg)

    def payload(t: pa.Table) -> pa.Array:
        sig = np.asarray(t["minhash"].combine_chunks().flatten())
        return _blob(sig.reshape(len(t), P))

    def exact(a: pa.Array, b: pa.Array) -> np.ndarray:
        n = len(a)
        return (_slot_matrix(a, n, P) == _slot_matrix(b, n, P)).sum(axis=1) >= m_min

    return VerifySpec(payload, exact, NEAR_ROUND2_MAX_BYTES // (2 * P * 8),
                      (KIND_BAND, KIND_SIMHASH))


def containment_spec() -> VerifySpec:
    """Exact substring: value = the text; a (short, long) pair passes
    when both are non-empty and short occurs in long."""

    def payload(t: pa.Table) -> pa.Array:
        return t["text"].combine_chunks()

    def exact(a: pa.Array, b: pa.Array) -> np.ndarray:
        return np.fromiter((bool(x) and bool(y) and (x in y)
                            for x, y in zip(a.to_pylist(), b.to_pylist())),
                           bool, len(a))

    return VerifySpec(payload, exact, CONTAINMENT_ROUND2_MAX_PAIRS,
                      (KIND_ANCHOR,))


# ---- uid sets and the per-worker plasma cache --------------------------------
# per-worker cache of object-store arrays keyed by their ObjectRef
# (bounded — see common.bounded_cache_put)
_UID_CACHE: dict = {}


def _shared(ref):
    """Per-worker zero-copy view of an ObjectRef's value (an index or a
    sorted uid array), fetched once per worker process."""
    hit = _UID_CACHE.get(ref)
    if hit is None:
        hit = bounded_cache_put(_UID_CACHE, ref, ray.get(ref))
    return hit


def uid_set(tables, cols: tuple) -> np.ndarray:
    """Sorted-unique uids of ``cols`` over tables, of the columns' uid
    type (int64 when there are no tables)."""
    parts = [uid_np(t[c]) for t in tables for c in cols]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)


@ray.remote(num_cpus=1)
def _uid_set_task(cols: tuple, *blocks):
    return uid_set(blocks, cols)


def uid_set_refs(ds: "Blocks | ray.data.Dataset", roles) -> list:
    """One ObjectRef per role (a tuple of uid columns): the role's
    sorted-unique uids, built by a 1-cpu Ray task from ``ds``'s block
    refs — nothing reaches the driver, and every
    worker maps the array zero-copy.  Roles matter for the attach
    exchanges: each joins on ONE endpoint, and the u and v endpoint
    sets barely overlap on a web corpus (500k docs: 92k u / 92k v /
    149k union near endpoints), so a role-scoped payload ships ~40%
    fewer bytes per exchange than the union-filtered one."""
    refs = as_blocks(ds).refs
    return [_uid_set_task.remote(tuple(cols), *refs) for cols in roles]


def semi_filter_by_uid_ref(ds: "ray.data.Dataset", uid_ref,
                           columns: list[str] | None = None) -> "ray.data.Dataset":
    """Keep the rows of ``ds`` whose uid (``batch_uids``: the
    ``DOC_UID`` column, else the url hashed at the width of the array)
    is in the sorted-unique array behind ``uid_ref`` (from
    :func:`uid_set_refs`) — a searchsorted probe per batch, no shuffle.
    ``columns`` selects the output columns (default: all)."""

    def f(batch: pa.Table) -> pa.Table:
        wanted = _shared(uid_ref)
        _, keep = sorted_probe(wanted, batch_uids(batch, uid_width(wanted)))
        out = batch if columns is None else batch.select(columns)
        return out.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


# ---- the index check ---------------------------------------------------------
def _endpoint_payload(t: pa.Table, wanted: np.ndarray, payload) -> pa.Table:
    """The (``DOC_UID``, value) payload rows of a source block whose uid
    is in ``wanted``, minted at its width."""
    uid = batch_uids(t, uid_width(wanted))
    _, hit = sorted_probe(wanted, uid)
    return pa.table({DOC_UID: uid_arrow(uid[hit]),
                     "value": payload(t.filter(pa.array(hit)))})


def _endpoint_rows(source, wanted_ref, payload) -> list:
    """One task per source block: its payload rows of the uids behind
    ``wanted_ref``."""
    return map_blocks(as_blocks(source).refs, _endpoint_payload, wanted_ref,
                      payload)


@ray.remote(num_cpus=1)
def _build_index(*blocks):
    """Build a uid-sorted index ONCE, in one Ray task, over (uid, value)
    payload blocks: (sorted uids, argsort permutation, value array in
    block order).  Workers map the result zero-copy from plasma —
    per-node memory is one copy, not one per worker process.  Text is
    cast to large_string BEFORE combining, since combining int32-offset
    strings raises past 2 GiB; the values stay in block order (probes
    map sorted positions through the permutation), so the build pays
    ONE contiguous copy."""
    from ray.data.block import BlockAccessor

    tables = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
              if len(t)]
    if not tables:
        return np.empty(0, np.int64), np.empty(0, np.int64), None
    tbl = pa.concat_tables(tables)
    uid = uid_np(tbl[DOC_UID])
    value = tbl["value"]
    if pa.types.is_string(value.type):
        value = value.cast(pa.large_string())
    order = np.argsort(uid, kind="stable")
    return uid[order], order, value.combine_chunks()


@ray.remote
def _kind_rows(kinds: tuple, *blocks) -> int:
    return sum(len(_pick(t, kinds)) for t in blocks)


def endpoint_index(pairs: "Blocks | ray.data.Dataset",
                   source: "Blocks | ray.data.Dataset", payload):
    """Launch the index build over the ``payload`` values of the (u, v)
    ``pairs``' endpoint rows of ``source``; returns its ObjectRef.  One
    task builds the endpoint set, one task per source block filters it
    to those rows' payloads, and only they reach the one build task —
    no Dataset execution and no driver pull."""
    wanted = _uid_set_task.remote(UV, *as_blocks(pairs).refs)
    return _build_index.remote(*_endpoint_rows(source, wanted, payload))


@ray.remote(num_cpus=1)
def _kind_pairs_task(kinds: tuple, n_out: int, *blocks):
    """The pairs of ``kinds``, one row per (u, v) (:func:`_distinct_pairs`):
    the candidate reducer dedupes within its partition only, so a pair
    whose shared buckets hash to different partitions arrives once per
    partition.  Returns their sorted-unique endpoint uids, then the
    pairs in ``n_out`` slices, one check task each."""
    t = _distinct_pairs(pa.concat_tables([_pick(b, kinds) for b in blocks]))
    step = -(-len(t) // n_out)
    return (uid_set([t], UV), *(t.slice(i * step, step) for i in range(n_out)))


def _probe(index, batch: pa.Table):
    uid_s, order, value = index
    rows = []
    for col in ("u", "v"):
        pos, hit = sorted_probe(uid_s, uid_np(batch[col]))
        rows.append(np.where(hit, order[pos] if len(order) else 0, -1))
    return rows[0], rows[1], value


def index_rows(batch: pa.Table, index_ref):
    """(u rows, v rows, values): each pair endpoint's position in the
    shared index's value array, -1 where the endpoint is absent."""
    return _probe(_shared(index_ref), batch)


def _kept(batch: pa.Table, keep: np.ndarray) -> pa.Table:
    """The (u, v, kind) rows of ``batch`` where ``keep`` holds."""
    m = pa.array(keep, pa.bool_())
    return pa.table({c: batch[c].filter(m).combine_chunks()
                     for c in ("u", "v", "kind")})


def _check_block(batch: pa.Table, spec: VerifySpec, index):
    """Probe both endpoints of the block's pairs of the spec's kinds in
    the index and apply the exact predicate; pairs with an endpoint
    absent are dropped.  Returns the kept edges with their stats."""
    batch = _pick(batch, spec.kinds)
    ru, rv, value = _probe(index, batch)
    ok = (ru >= 0) & (rv >= 0)
    keep = np.zeros(len(batch), bool)
    if ok.any():
        keep[ok] = spec.exact(value.take(pa.array(ru[ok])),
                              value.take(pa.array(rv[ok])))
    return with_stats(_kept(batch, keep))


def _index_check(pairs: Blocks, source, spec: VerifySpec) -> Blocks:
    """The kind's distinct pairs (:func:`_kind_pairs_task`), an index
    over their endpoints' payloads (:func:`endpoint_index`'s tasks),
    then one check task per pair slice, the index a top-level
    argument; the kept edges once the checks have run."""
    refs = pairs.refs
    wanted, *slices = _kind_pairs_task.options(
        num_returns=1 + len(refs)).remote(spec.kinds, len(refs), *refs)
    index = _build_index.remote(*_endpoint_rows(source, wanted, spec.payload))
    return gather(map_blocks(slices, _check_block, spec, index,
                             num_returns=2))


# ---- the two-attach check ----------------------------------------------------
def _distinct_pairs(t: pa.Table) -> pa.Table:
    """One row per (u, v) pair: the min-``kind`` copy.  The fused
    candidate emitter surfaces a pair once per shared band/chunk, and a
    uid with two payload rows would attach twice; equal pairs
    co-locate on either endpoint, so this is global."""
    if not len(t):
        return t
    t = t.sort_by([("u", "ascending"), ("v", "ascending"),
                   ("kind", "ascending")])
    words = np.column_stack([uid_words(uid_np(t[c])) for c in ("u", "v")])
    first = np.ones(len(t), bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    return t.filter(pa.array(first))


def _picked(t: pa.Table, kinds: tuple):
    return with_stats(_pick(t, kinds))


def _attach_payload(t: pa.Table, wanted: np.ndarray, payload, end: str):
    """:func:`_endpoint_payload` keyed for the attach on ``end``."""
    return with_stats(_endpoint_payload(t, wanted, payload).rename_columns(
        [end, f"p_{end}"]))


def _two_attach_check(pairs: Blocks, source: Blocks, spec: VerifySpec,
                      num_partitions: int) -> Blocks:
    """The pairs of the spec's kinds (one task per pair block), then
    the payload of u attached on u, then that of v on v with the exact
    predicate applied inside the second reduce; both reduces keep one
    row per pair (:func:`_distinct_pairs`).  Each attach's payload rows
    are those of its endpoint role only, one task per source block."""
    picked = gather(map_blocks(pairs.refs, _picked, spec.kinds,
                               num_returns=2))
    pay_u, pay_v = (map_blocks(source.refs, _attach_payload, ref,
                               spec.payload, end, num_returns=2)
                    for ref, end in zip(uid_set_refs(picked, (U, V)), UV))

    def attach(edges: Blocks, payload: list, end: str, post_fn) -> Blocks:
        return hash_join(edges, gather(payload), end, post_fn=post_fn,
                         num_partitions=num_partitions)

    def check(t: pa.Table) -> pa.Table:
        t = _distinct_pairs(t)
        if not len(t):
            return t.select(["u", "v", "kind"])
        return _kept(t, spec.exact(t["p_u"].combine_chunks(),
                                   t["p_v"].combine_chunks()))

    return attach(attach(picked, pay_u, "u", _distinct_pairs), pay_v, "v",
                  check)


# ---- the rule ----------------------------------------------------------------
def _verify(pairs, source, spec: VerifySpec,
            num_partitions: int) -> Blocks:
    """The index check while the kind's pairs are at or below
    ``spec.round2_max``, the two-attach check above it.  The kind's
    pairs are counted (one task, awaited) only when the candidate
    total, the sum of the input's row counts, exceeds the cap.  Both
    checks have run when this returns."""
    pairs = as_blocks(pairs)
    n = pairs.num_rows
    if n > spec.round2_max:
        n = ray.get(_kind_rows.remote(spec.kinds, *pairs.refs))
    if n > spec.round2_max:
        return _two_attach_check(pairs, as_blocks(source), spec,
                                 num_partitions)
    return _index_check(pairs, source, spec) if n else Blocks()


def verify_near_edges(
    edges: "Blocks | ray.data.Dataset",
    sigs: "Blocks | ray.data.Dataset",
    cfg: MinHashConfig,
    num_partitions: int = 128,
) -> Blocks:
    """Keep the uid edges whose signature Jaccard estimate reaches
    ``cfg.verify_threshold``; the plan is :func:`_verify`'s rule."""
    return _verify(edges, sigs, near_spec(cfg), num_partitions)


def verify_containment_edges(
    pairs: "Blocks | ray.data.Dataset",
    texts: "Blocks | ray.data.Dataset",
    num_partitions: int = 128,
) -> Blocks:
    """Keep the uid (short, long) pairs where the short text occurs in
    the long one; the plan is :func:`_verify`'s rule."""
    return _verify(pairs, texts, containment_spec(), num_partitions)
