"""Long exact-substring pair detection (partial overlap).

The containment kind of the candidate stage (stages/buckets.py kind 2,
verified by stages/verify.py) finds full-document embeddings; this
stage finds pairs of documents that merely SHARE one
long exact run (≥ ``min_len`` bytes) — plagiarized paragraphs, quoted
blocks, syndicated fragments.  North-rule component ("suffix-array pass
for long exact substrings").

Design:

* candidates — two docs sharing an exact run of length L share
  ~(L - window)/modulus winnowing anchors in expectation, so pairs with
  ≥ ``min_shared_anchors`` common anchor buckets are candidates (the
  anchor rows are the candidate stage's kind-2 bucket rows — no extra
  text scan);
* verification — the exact longest-common-substring of each candidate
  pair, computed with a suffix automaton of the shorter text (O(n+m),
  the suffix-structure role; a generalized suffix array would batch
  many docs per partition — the automaton is the per-pair equivalent
  with the same output), against the verify stage's shared endpoint
  index of the texts.

Pure per-pair decisions → partition-count invariant like every other
stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .common import Blocks, gather, grouped_apply, map_blocks, with_stats


def lcs_length(a: str, b: str) -> int:
    """Longest common substring length via a suffix automaton of `a`
    (linear construction), streaming `b` through it."""
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    # suffix automaton of a
    MAXN = 2 * len(a) + 5
    nxt: list[dict[str, int]] = [dict() for _ in range(MAXN)]
    link = [0] * MAXN
    length = [0] * MAXN
    link[0] = -1
    last, size = 0, 1
    for ch in a:
        cur = size; size += 1
        length[cur] = length[last] + 1
        p = last
        while p >= 0 and ch not in nxt[p]:
            nxt[p][ch] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = size; size += 1
                length[clone] = length[p] + 1
                nxt[clone] = dict(nxt[q])
                link[clone] = link[q]
                while p >= 0 and nxt[p].get(ch) == q:
                    nxt[p][ch] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    # stream b
    v, l, best = 0, 0, 0
    for ch in b:
        while v and ch not in nxt[v]:
            v = link[v]
            l = length[v]
        if ch in nxt[v]:
            v = nxt[v][ch]
            l += 1
            if l > best:
                best = l
        else:
            v, l = 0, 0
    return best


def shared_anchor_pairs(
    anchors: "Blocks | ray.data.Dataset",
    min_shared_anchors: int = 2,
    bucket_cap: int = 1024,
) -> Blocks:
    """(u, v, shared) candidate uid pairs from common anchor buckets
    (``anchors``: kind-2 ``bucket_rows``, u < v).

    Unlike the containment pass there is no min-anchor shortcut (either
    doc may hold the run anywhere), so buckets emit cliques bounded by
    ``bucket_cap`` and pairs are counted across buckets — the count IS
    the evidence of a long shared run."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["key", "uid"]).sort_values(
            ["key", "uid"], kind="mergesort")
        a = df["key"].to_numpy()
        u = df["uid"].to_numpy()
        starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
        sizes = np.diff(np.r_[starts, a.size])
        keep = (sizes > 1) & (sizes <= bucket_cap)
        frames = []
        for s in np.unique(sizes[keep]):
            idx = starts[keep][sizes[keep] == s]
            mat = u[idx[:, None] + np.arange(s)[None, :]]
            iu, jv = np.triu_indices(s, k=1)
            frames.append(pd.DataFrame({"u": mat[:, iu].ravel(),
                                        "v": mat[:, jv].ravel()}))
        if not frames:
            return pd.DataFrame({"u": pd.Series(dtype="int64"),
                                 "v": pd.Series(dtype="int64")})
        out = pd.concat(frames)
        g = out.groupby(["u", "v"], sort=False).size().reset_index(name="shared")
        return g  # per-partition counts; buckets of one anchor value
                  # are never split, so counts are complete per pair
                  # only after the cross-partition sum below

    per_part = grouped_apply(anchors, ["key"], emit)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False)["shared"].sum().reset_index()
        return g[g["shared"] >= min_shared_anchors]

    return grouped_apply(per_part, ["u", "v"], total)


def long_substring_pairs(
    texts: "Blocks | ray.data.Dataset",
    anchors: "Blocks | ray.data.Dataset",
    min_len: int = 256,
    min_shared_anchors: int = 2,
) -> Blocks:
    """(u, v, lcs_len) uid pairs whose exact longest common substring
    is at least ``min_len`` bytes.  ``texts``: rows with ``text`` and
    a ``DOC_UID`` (or ``url``) column; ``anchors``: kind-2 bucket rows of
    the same documents."""
    from .verify import containment_spec, endpoint_index, index_rows

    cand = shared_anchor_pairs(anchors, min_shared_anchors)
    if cand.num_rows == 0:
        return cand

    index = endpoint_index(cand, texts, containment_spec().payload)

    def verify(t: pa.Table) -> pa.Table:
        ru, rv, txt = index_rows(t, index)
        u = np.asarray(t["u"], np.int64)
        v = np.asarray(t["v"], np.int64)
        ok = (ru >= 0) & (rv >= 0)
        lcs = np.zeros(len(t), np.int64)
        for k in np.flatnonzero(ok):
            lcs[k] = lcs_length(txt[int(ru[k])].as_py() or "",
                                txt[int(rv[k])].as_py() or "")
        keep = ok & (lcs >= min_len)
        return with_stats(pa.table({"u": pa.array(u[keep], pa.int64()),
                                    "v": pa.array(v[keep], pa.int64()),
                                    "lcs_len": pa.array(lcs[keep], pa.int64())}))

    return gather(map_blocks(cand.refs, verify, num_returns=2))
