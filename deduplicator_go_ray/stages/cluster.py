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
from .common import block_refs_of, dataset_of, grouped_apply


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
    living in the object store, and the table's row count; ``blocks``
    must hold at least one edge.  Labels are uids (through the codec)
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
    return cc, anchor_endpoints(tables), len(cc)


def connected_components_distributed(
    edges: "ray.data.Dataset", max_iters: int = 50
) -> "ray.data.Dataset":
    """Alternating large-star/small-star over an edge Dataset (u, v)
    (Kiveris et al.).  Every round is hash-partitioned ``grouped_apply``
    shuffles with fully vectorized per-partition pandas — NO Python call
    per node or per edge (the scale requirement; a per-group UDF at
    10^12 nodes is pathological).  Converges in O(log n) rounds;
    convergence is detected by a (count, xor-hash) signature computed
    inside the dedupe pass.  Returns (url, root): every non-root node
    mapped to its component minimum.
    """
    from ..functions.hashing import hash64_str, mix64

    def undirect(t: pa.Table) -> pa.Table:
        return pa.table({
            "u": pa.concat_arrays([t["u"].combine_chunks(), t["v"].combine_chunks()]),
            "v": pa.concat_arrays([t["v"].combine_chunks(), t["u"].combine_chunks()]),
        })

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

    def _sig_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "x": pa.array([0], pa.int64())})
        u, v = b["u"], b["v"]
        if pa.types.is_integer(u.type):
            hu = mix64(np.asarray(u, np.int64).view(np.uint64))
            hv = mix64(np.asarray(v, np.int64).view(np.uint64))
        else:
            hu = hash64_str(u)
            hv = hash64_str(v)
        x = int(np.bitwise_xor.reduce(mix64(hu * np.uint64(3) + hv)))
        if x >= 1 << 63:
            x -= 1 << 64
        return pa.table({"n": pa.array([b.num_rows], pa.int64()),
                         "x": pa.array([x], pa.int64())})

    def signature(ds: "ray.data.Dataset") -> tuple:
        """(edge count, order-insensitive xor hash) — computed as
        per-block partials in the cluster; only two int64s per block
        reach the driver (the r2 version streamed the FULL edge set to
        the driver per iteration — a flood-scale killer)."""
        parts = ds.map_batches(_sig_partial,
                               batch_format="pyarrow").to_pandas()
        n = int(parts["n"].sum())
        acc = 0
        for x in parts["x"].to_numpy():
            acc ^= int(x) + (1 << 64 if x < 0 else 0)
        return (n, acc)

    # pin empty-partition output schemas (a grouped_apply without
    # empty_result lets empty shuffle ranges surface as schema-less
    # blocks that ride every downstream operator — VERDICT r2 #9)
    key_t = edges.schema().base_schema.field("u").type
    edge_empty = pa.table({"u": pa.array([], key_t),
                           "v": pa.array([], key_t)})

    # signature-vs-previous convergence sees the POSSIBLY-duplicated
    # small_star output (cross-partition duplicate pairs exist only
    # pre-convergence; the fixed-point star emits each edge exactly
    # once, so termination is still detected one round after
    # stabilization) — the r2 version paid a third exchange per round
    # for a globally-deduped multiset whose only consumer was this
    # signature.
    cur = edges
    prev_sig = None
    for _ in range(max_iters):
        both = cur.map_batches(undirect, batch_format="pyarrow")
        cur = grouped_apply(both, ["u"], large_star,
                            empty_result=edge_empty)
        both = cur.map_batches(undirect, batch_format="pyarrow")
        cur = grouped_apply(both, ["u"], small_star,
                            empty_result=edge_empty)
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

    return grouped_apply(cur.map_batches(undirect, batch_format="pyarrow"),
                         ["u"], emit,
                         empty_result=pa.table({
                             "url": pa.array([], key_t),
                             "root": pa.array([], key_t)}))


def resolve_components(
    edges_ds: "ray.data.Dataset",
    key_type: "pa.DataType | None" = None,
    max_onetask_edges: int = 200_000_000,
) -> "ray.data.Dataset":
    """Two-tier component resolution by edge count over an edge Dataset
    (u, v, ...); both tiers return a materialized Dataset (url, root)
    listing every node with root = component minimum (equality-tested):

    * ≤ ``max_onetask_edges``: ONE Ray task gathers the edge block
      refs and runs :func:`cc_label_arrays` — nothing on the
      driver; at 16 B/edge the default cap is a ~3 GiB single-worker
      gather, orders of magnitude cheaper than the shuffle loop's fixed
      cost.
    * above: alternating large-star/small-star label propagation —
      the only tier whose memory never exceeds a partition.

    Node labels may be strings (urls), int64 uids or 16-byte uids;
    ``key_type`` types the output when there are no edges."""
    key_type = key_type or pa.string()
    n = edges_ds.count()
    if n == 0:
        return dataset_of([ray.put(pa.table({"url": pa.array([], key_type),
                                             "root": pa.array([], key_type)}))])
    if n <= max_onetask_edges:
        cc, _, _ = _cc_onetask.remote(*block_refs_of(edges_ds))
        return dataset_of([cc])
    return connected_components_distributed(edges_ds)
