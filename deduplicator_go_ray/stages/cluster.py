"""Cluster merge: connected components over verified candidate edges.

≙ SURVEY.md §7.4 "union-find at 10^12-doc semantics".
:func:`resolve_components` is the engine's one components resolver, with
two tiers by edge count.  At or below ``max_onetask_edges`` one Ray task
gathers the edge blocks and runs the vectorized min-label kernel
(:func:`cc_label_arrays`) — the candidate-edge set after exact-dedup
collapse + verification is orders of magnitude smaller than the corpus.
Above it, an iterative alternating large-star/small-star label
propagation (Kiveris et al., "Connected Components in MapReduce and
Beyond", public) runs as ``grouped_apply`` task exchanges — every step a
pure function of the edge set, so results are identical at any
parallelism (≙ files/move.go:226-236).

Node labels are urls or uids; the component root is the smallest label,
which doubles as the cluster canonical member (keeper tiebreak key) —
one convention shared by both tiers.  :func:`connected_components_driver`
is the plain dict union-find the kernel is property-tested against.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .buckets import KIND_ANCHOR, uid_arrow, uid_np
from .common import (Blocks, as_blocks, gather, grouped_apply, map_blocks,
                     with_stats)


def _dsu_find(parent: dict, x: str) -> str:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def connected_components_driver(edges: list[tuple[str, str]]) -> dict[str, str]:
    """Reference dict union-find; root = min(url) per component."""
    parent: dict[str, str] = {}
    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = _dsu_find(parent, u), _dsu_find(parent, v)
        if ru != rv:
            # union by lexicographic min so the root IS the canonical url
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return {x: _dsu_find(parent, x) for x in parent}


def cc_label_arrays(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over edge endpoint arrays:
    returns ``(nodes_sorted, root_per_node)`` with root = component
    minimum — the exact mapping :func:`connected_components_driver`
    produces (property-tested), with no Python call per edge.

    Min-label propagation with pointer jumping (Shiloach-Vishkin
    style): labels are INDICES into the sorted unique node array, so
    the kernel is dtype-agnostic — int64 or ``S16`` uids and string
    urls all reduce to integer index arithmetic after ``np.unique``
    (whose sort order matches Python ``min``).  Each
    round is O(E) scatter-min + O(N·log) pointer jumps; rounds are
    O(log N) (dup graphs: 2-4)."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[:u.size].astype(np.int64), inv[u.size:].astype(np.int64)
    lbl = np.arange(nodes.size, dtype=np.int64)
    while True:
        lu, lv = lbl[ui], lbl[vi]
        m = np.minimum(lu, lv)
        new = lbl.copy()
        np.minimum.at(new, ui, m)
        np.minimum.at(new, vi, m)
        # hook the labels themselves so stars collapse across rounds
        np.minimum.at(new, lu, m)
        np.minimum.at(new, lv, m)
        changed = not np.array_equal(new, lbl)
        lbl = new
        while True:                      # pointer jumping to closure
            nxt = lbl[lbl]
            if np.array_equal(nxt, lbl):
                break
            lbl = nxt
        if not changed:
            break
    return nodes, nodes[lbl]


def anchor_endpoints(tables) -> np.ndarray:
    """Sorted-unique endpoints of the substring-anchor edges (``kind``
    ``KIND_ANCHOR``) among edge tables; empty when none carries a
    ``kind`` column."""
    from .verify import UV, uid_set

    return uid_set([t.filter(pc.equal(t["kind"], KIND_ANCHOR)) for t in tables
                    if "kind" in t.column_names], UV)


def _labels(col) -> np.ndarray:
    """Node labels of an edge column: url strings as an object array,
    uids through the codec."""
    return col.to_numpy() if pa.types.is_string(col.type) else uid_np(col)


def _labels_arrow(labels: np.ndarray, typ: pa.DataType) -> pa.Array:
    return pa.array(labels, typ) if pa.types.is_string(typ) else uid_arrow(labels)


@ray.remote(num_cpus=1, num_returns=3)
def _cc_onetask(*blocks):
    """Run :func:`cc_label_arrays` over the edge blocks (top-level
    arguments) in ONE Ray task — the one-task tier of
    :func:`resolve_components`: below genuinely-distributed scale the
    edge set (orders of magnitude smaller than the corpus) fits one
    worker's heap, and a single vectorized task beats ~10 alternating
    label-propagation shuffles by 2 orders of magnitude of fixed cost.
    Returns the Arrow (url, root) table, of the edges' label type, the
    sorted anchor-edge endpoints (:func:`anchor_endpoints`), both
    living in the object store, and the table's stats
    (:func:`~.common.with_stats`); ``blocks`` must hold at least one
    edge.  Labels are uids (through the codec)
    or url strings."""
    from ray.data.block import BlockAccessor

    tables = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
              if len(t)]
    u = np.concatenate([_labels(t["u"]) for t in tables])
    v = np.concatenate([_labels(t["v"]) for t in tables])
    nodes, roots = cc_label_arrays(u, v)
    typ = tables[0]["u"].type
    cc = pa.table({"url": _labels_arrow(nodes, typ),
                   "root": _labels_arrow(roots, typ)})
    cc, stats = with_stats(cc)
    return cc, anchor_endpoints(tables), stats


def _undirect(t: pa.Table) -> pa.Table:
    """Both directions of every edge (u, v)."""
    u, v = t["u"].combine_chunks(), t["v"].combine_chunks()
    return pa.table({"u": pa.concat_arrays([u, v]),
                     "v": pa.concat_arrays([v, u])})


def _edge_hash(t: pa.Table) -> int:
    """Order-insensitive xor hash of a block's (u, v) edges."""
    from ..functions.hashing import hash64_str, mix64

    u, v = t["u"], t["v"]
    if pa.types.is_integer(u.type):
        hu = mix64(np.asarray(u, np.int64).view(np.uint64))
        hv = mix64(np.asarray(v, np.int64).view(np.uint64))
    else:
        hu = hash64_str(u)
        hv = hash64_str(v)
    return int(np.bitwise_xor.reduce(mix64(hu * np.uint64(3) + hv)))


def connected_components_distributed(
    edges: "Blocks | ray.data.Dataset", max_iters: int = 50
) -> Blocks:
    """Alternating large-star/small-star over edges (u, v) (Kiveris et
    al.).  Every round is hash-partitioned ``grouped_apply`` exchanges
    with fully vectorized per-partition pandas — NO Python call per
    node or per edge (the scale requirement; a per-group UDF at 10^12
    nodes is pathological) — each exchange undirecting its input
    blocks in its split tasks.  Converges in O(log n) rounds;
    convergence is detected by a (count, xor-hash) signature of each
    round's output.  Returns (url, root): every node mapped to its
    component minimum.
    """

    def large_star(df: pd.DataFrame) -> pd.DataFrame:
        # entry dedup is GLOBAL for (u, v): the exchange keys on u, so
        # every copy of a pair co-locates here — no separate dedupe
        # shuffle needed (it was 1/3 of the per-iteration exchanges)
        df = df.drop_duplicates(["u", "v"])
        g = df.groupby("u", sort=False)["v"]
        m = np.minimum(g.transform("min"), df["u"])      # per-u component min
        bigger = df["v"] > df["u"]
        out = pd.DataFrame({"u": df["v"][bigger], "v": m[bigger]})
        # u with no bigger neighbor still links itself to the min
        no_big = ~df["u"].isin(df["u"][bigger])
        selfrows = df[no_big & (m < df["u"])]
        if len(selfrows):
            out = pd.concat([out, pd.DataFrame({
                "u": selfrows["u"], "v": m[selfrows.index]})])
        return out.drop_duplicates()

    def small_star(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["u", "v"])
        keep = df["v"] <= df["u"]
        sub = df[keep]
        if not len(sub):
            return pd.DataFrame({"u": df["u"][:0], "v": df["v"][:0]})
        g = sub.groupby("u", sort=False)["v"]
        m = np.minimum(g.transform("min"), sub["u"])
        rows_u = pd.concat([sub["v"], sub["u"]])
        rows_m = pd.concat([m, m])
        out = pd.DataFrame({"u": rows_u, "v": rows_m})
        return out[out["u"] != out["v"]].drop_duplicates()

    def signature(b: Blocks) -> tuple:
        """(edge count, order-insensitive xor hash): one task per block
        hashes it; only an int per block reaches the driver (the r2
        version streamed the FULL edge set to the driver per
        iteration — a flood-scale killer)."""
        acc = 0
        for x in ray.get(map_blocks(b.refs, _edge_hash)):
            acc ^= x
        return (b.num_rows, acc)

    cur = as_blocks(edges)
    # pandas infers the partitions' output types: cast them to the
    # edges' label type
    key_t = cur.schema.field("u").type
    edge_empty = pa.table({"u": pa.array([], key_t),
                           "v": pa.array([], key_t)})

    # signature-vs-previous convergence sees the POSSIBLY-duplicated
    # small_star output (cross-partition duplicate pairs exist only
    # pre-convergence; the fixed-point star emits each edge exactly
    # once, so termination is still detected one round after
    # stabilization) — the r2 version paid a third exchange per round
    # for a globally-deduped multiset whose only consumer was this
    # signature.
    prev_sig = None
    for _ in range(max_iters):
        cur = grouped_apply(cur, ["u"], large_star, empty_result=edge_empty,
                            pre_fn=_undirect)
        cur = grouped_apply(cur, ["u"], small_star, empty_result=edge_empty,
                            pre_fn=_undirect)
        sig = signature(cur)
        if sig == prev_sig:
            break
        prev_sig = sig

    # after convergence every edge is (node, root).  Emit over the
    # UNDIRECTED star so the root node itself also gets a (root, root)
    # row — the driver/one-task kernels list every node, and a missing
    # self-row downstream turns the root member's near_root null,
    # silently demoting its match_kind (caught by
    # test_cc_tiers_same_assignments).
    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["u", "v"])
        g = df.groupby("u", sort=False)["v"].min()
        root = np.minimum(g.values, g.index.to_numpy())
        return pd.DataFrame({"url": g.index, "root": root})

    return grouped_apply(cur, ["u"], emit, pre_fn=_undirect,
                         empty_result=pa.table({
                             "url": pa.array([], key_t),
                             "root": pa.array([], key_t)}))


def resolve_components(
    edges: "Blocks | ray.data.Dataset",
    max_onetask_edges: int = 200_000_000,
) -> Blocks:
    """Two-tier component resolution by edge count over edges (u, v,
    ...); both tiers return (url, root) listing every node with root =
    component minimum (equality-tested), and no block when there are no
    edges:

    * ≤ ``max_onetask_edges``: ONE Ray task gathers the edge block
      refs and runs :func:`cc_label_arrays` — nothing on the
      driver; at 16 B/edge the default cap is a ~3 GiB single-worker
      gather, orders of magnitude cheaper than the shuffle loop's fixed
      cost.
    * above: alternating large-star/small-star label propagation —
      the only tier whose memory never exceeds a partition.

    Node labels may be strings (urls), int64 uids or 16-byte uids."""
    edges = as_blocks(edges)
    if not edges.refs:
        return Blocks()
    if edges.num_rows <= max_onetask_edges:
        cc, _, stats = _cc_onetask.remote(*edges.refs)
        return gather([(cc, stats)])
    return connected_components_distributed(edges)
