"""Long-exact-substring duplicate pass.

North-rule component with no reference analogue (the reference's
identity is whole-file only): detect pairs where one document's full
text is embedded verbatim inside another (fixture class "substring
dups", FIXTURES.md §1).

Design (SURVEY.md §7.1 M3): winnowing-style anchors — rolling hashes
of ``window``-byte windows, kept where hash % modulus == 0 — are
computed in the signature actor pass (no extra scan of the text).  A
contained document shares *all* its anchors with its container, so
bucketing by anchor hash surfaces (short, long) candidate pairs; pairs
sharing ≥ ``min_shared_anchors`` buckets are verified by an actual
substring containment check against the two texts.

Shuffle keys: anchor hash (skew-capped like the LSH bands), then the
pair key for the shared-anchor count.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from ..config import SubstringConfig
from .common import grouped_apply


def anchor_rows(sigs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Explode (anchor, url, n_bytes, min_anchor) rows from the anchors
    column.  ``min_anchor`` rides along so the pair stage knows which
    single bucket carries each doc's "short side" candidacy — computed
    here, while the doc's full anchor list is still in one row, so no
    per-url shuffle is needed."""

    def explode(batch: pa.Table) -> pa.Table:
        anchors = batch["anchors"].to_pylist()
        urls = batch["url"].to_pylist()
        nb = batch["n_bytes"].to_pylist()
        a_out, u_out, n_out, m_out = [], [], [], []
        for a, u, nbyte in zip(anchors, urls, nb):
            if a:
                mn = min(a)
                a_out.extend(a)
                u_out.extend([u] * len(a))
                n_out.extend([nbyte] * len(a))
                m_out.extend([mn] * len(a))
        return pa.table({
            "anchor": pa.array(a_out, pa.int64()),
            "url": pa.array(u_out, pa.string()),
            "n_bytes": pa.array(n_out, pa.int64()),
            "min_anchor": pa.array(m_out, pa.int64()),
        })

    return sigs.select_columns(["url", "anchors", "n_bytes"]).map_batches(
        explode, batch_format="pyarrow")


def candidate_pairs(
    anchors: "ray.data.Dataset", cfg: SubstringConfig, bucket_cap: int = 4096
) -> "ray.data.Dataset":
    """(short, long) candidate pairs via min-anchor bucketing.

    Anchor selection depends only on window *content* (hash % modulus),
    so if u's text is embedded verbatim in v, every anchor of u is also
    an anchor of v — in particular u's MINIMUM anchor.  Bucketing the
    short side by its min anchor and the long side by every anchor
    therefore surfaces each true containment exactly once, and the
    per-partition pair expansion is a single vectorized pandas merge —
    no Python loop over the (near-dup-heavy) anchor groups.

    Hot long-side buckets (boilerplate windows) are capped at
    ``bucket_cap`` like the LSH bands; a short doc whose min anchor is
    that hot is the one candidate-loss mode (logged by callers via
    metrics, measured by the recall tests).
    """

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["anchor", "url"])
        # short side: the one row where this anchor is the doc's minimum
        shorts = df[df["anchor"] == df["min_anchor"]]
        # long side: every anchor row, hot buckets capped
        bucket_sz = df.groupby("anchor")["url"].transform("size")
        longs = df[bucket_sz <= bucket_cap]
        out = shorts.merge(longs[["anchor", "url", "n_bytes"]],
                           on="anchor", suffixes=("_u", "_v"))
        out = out[out["n_bytes_u"] < out["n_bytes_v"]]
        return (out[["url_u", "url_v"]]
                .rename(columns={"url_u": "u", "url_v": "v"})
                .drop_duplicates())

    return grouped_apply(anchors, ["anchor"], emit)


def verify_containment_smallset(
    pairs: "ray.data.Dataset", texts: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """Containment plan for SMALL pair sets over LARGE corpora:
    semi-filter the text table to the pair endpoints first (broadcast
    url set — no shuffle), then broadcast the small text subset."""
    from .joins import broadcast_semi_filter
    from .lsh import edge_urls

    urls = edge_urls(pairs)
    skinny = broadcast_semi_filter(
        texts.select_columns(["url", "text"]), "url", urls)
    return verify_containment_broadcast(pairs, skinny)


def verify_containment_broadcast(
    pairs: "ray.data.Dataset", texts: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """Join-free containment check: the (url, text) table's block refs
    are broadcast; each worker builds its lookup index once (zero-copy
    Arrow from the object store — no driver-side dict pull).  Exact
    substring semantics."""
    from .lsh import _worker_index, block_refs_of

    skinny = texts.select_columns(["url", "text"]).materialize()
    refs = tuple(block_refs_of(skinny))

    def check(batch: pa.Table) -> pa.Table:
        idx, (txt,) = _worker_index(refs, ("url", "text"))
        iu = idx.get_indexer(batch["u"].to_pandas())
        iv = idx.get_indexer(batch["v"].to_pandas())
        keep = []
        for a, b in zip(iu, iv):
            if a < 0 or b < 0:
                keep.append(False)
                continue
            ta = txt[int(a)].as_py()
            tb = txt[int(b)].as_py()
            keep.append(bool(ta) and bool(tb) and (ta in tb))
        m = pa.array(keep)
        return pa.table({"u": batch["u"].filter(m), "v": batch["v"].filter(m)})

    return pairs.map_batches(check, batch_format="pyarrow")

