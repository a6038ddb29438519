"""Similarity search over the ``embeddings`` table.

``ann_topk`` — brute-force cosine top-k: the exact baseline.  A small
query matrix is broadcast once (``ray.put``); every batch does one
float64 matmul against it and emits its block-local top-k; a single
grouped reduce per query merges block results.  SQL-oracled.

``ann_ivf_topk`` — the scale path: IVF-style coarse quantization.
Centroids come from a groupby-mean over the ``label`` column (stand-in
for a k-means pass — same shuffle shape); each vector is routed to its
nearest centroid (one shuffle key), and each query probes only the
``nprobe`` nearest cells.  Approximate — recall vs the brute-force
baseline is measured in tests/, not against an oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..stages.common import grouped_apply, list_matrix
from .registry import register

N_QUERIES = 5        # query set = vec_id 0..4
TOP_K = 10
NPROBE = 5


def _emb(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    q = (_emb(sf_dir)
         .filter(expr=f"vec_id < {N_QUERIES}")
         .to_pandas().sort_values("vec_id"))
    ids = q["vec_id"].to_numpy(dtype=np.int64)
    Q = _normalize(np.array(q["embedding"].tolist(), dtype=np.float64))
    return ids, Q


def ann_topk(sf_dir: str) -> pd.DataFrame:
    qids, Q = _query_matrix(sf_dir)
    ref = ray.put((qids, Q))

    def block_topk(t: pa.Table) -> pa.Table:
        q_ids, QM = ray.get(ref)
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        B = _normalize(list_matrix(t["embedding"]))
        S = QM @ B.T                                    # (nq, block)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = S[qi]
            mask = ids != q_ids[qi]                     # exclude self
            cand_ids, cand_s = ids[mask], s[mask]
            if cand_ids.size > TOP_K:
                part = np.argpartition(-cand_s, TOP_K)[:TOP_K]
                cand_ids, cand_s = cand_ids[part], cand_s[part]
            out_q.append(np.full(cand_ids.size, q_ids[qi], dtype=np.int64))
            out_n.append(cand_ids)
            out_s.append(cand_s)
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = _emb(sf_dir).map_batches(block_topk, batch_format="pyarrow")

    def reduce_topk(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for qid, g in df.groupby("query_id", sort=False):
            g = g.sort_values(["sim", "neighbor_id"],
                              ascending=[False, True]).head(TOP_K)
            g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
            frames.append(g)
        return pd.concat(frames)[["query_id", "neighbor_id", "rank"]]

    out = grouped_apply(partials, ["query_id"], reduce_topk).to_pandas()
    return (out.astype({"query_id": "int64", "neighbor_id": "int64", "rank": "int64"})
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


# brute-force cosine top-k oracle — shared by ann_topk and the
# exhaustive-probe ANN variants (an IVF probing every cell / an LSH
# probing every bucket must reduce EXACTLY to brute force; registering
# them against this oracle turns that reduction into a hash-checked
# correctness gate rather than a recall-only test)
_BRUTE_ORACLE = f"""
    WITH q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
               FROM embeddings WHERE vec_id < {N_QUERIES}),
    scored AS (
      SELECT q.vec_id AS query_id, v.vec_id AS neighbor_id,
             list_cosine_similarity(q.e, CAST(v.embedding AS DOUBLE[])) AS sim
      FROM q JOIN embeddings v ON v.vec_id <> q.vec_id),
    ranked AS (
      SELECT query_id, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, neighbor_id ASC) AS rank
      FROM scored)
    SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= {TOP_K}
    """

register("ann_topk", ann_topk, _BRUTE_ORACLE)


def ann_ivf_topk(sf_dir: str, nprobe: int | None = None) -> pd.DataFrame:
    """IVF-bucketed approximate top-k (rows-only).

    Partition assignment and per-cell search both run as vectorized
    ``map_batches``; only vectors in the ``nprobe`` cells nearest each
    query are scored — at scale this turns an all-pairs matmul into a
    per-cell stream with a shuffle key of ``cell_id``.

    ``nprobe=None`` uses the default ``NPROBE``; ``nprobe`` >= the cell
    count probes every cell, which must reduce EXACTLY to brute force —
    ``ann_ivf_exhaustive`` registers that configuration against the
    brute-force SQL oracle so the routed machinery (centroid reduce,
    cell assignment, per-cell scoring, grouped merge) is hash-checked,
    not just recall-tested.
    """
    nprobe = NPROBE if nprobe is None else nprobe
    emb = _emb(sf_dir)

    # centroids: groupby(label).mean — the k-means-assignment shuffle shape
    labeled = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"])

    def partial_sums(t: pa.Table) -> pa.Table:
        lab = np.asarray(t["label"], dtype=np.int64)
        V = list_matrix(t["embedding"])
        out_lab, out_sum, out_cnt = [], [], []
        for l in np.unique(lab):
            m = lab == l
            out_lab.append(int(l))
            out_sum.append(V[m].sum(axis=0).tolist())
            out_cnt.append(int(m.sum()))
        return pa.table({
            "label": pa.array(out_lab, pa.int64()),
            "vsum": pa.array(out_sum, pa.list_(pa.float64())),
            "cnt": pa.array(out_cnt, pa.int64()),
        })

    def merge_centroids(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for l, g in df.groupby("label", sort=True):
            s = np.sum(np.array(g["vsum"].tolist(), dtype=np.float64), axis=0)
            rows.append({"label": int(l), "centroid": (s / g["cnt"].sum()).tolist()})
        return pd.DataFrame(rows)

    cent_df = grouped_apply(
        labeled.map_batches(partial_sums, batch_format="pyarrow"),
        ["label"], merge_centroids).to_pandas().sort_values("label")
    C = _normalize(np.array(cent_df["centroid"].tolist(), dtype=np.float64))
    cent_labels = cent_df["label"].to_numpy(dtype=np.int64)

    qids, Q = _query_matrix(sf_dir)
    # probe set per query: nprobe nearest centroids
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :min(nprobe, C.shape[0])]
    probe_labels = cent_labels[probe]                   # (nq, NPROBE)
    probe_union = np.unique(probe_labels)
    ref = ray.put((C, cent_labels, probe_union))

    # ---- route: assign each vector its IVF cell and DROP vectors in
    # unprobed cells BEFORE any query scoring — the actual compute
    # pruning (VERDICT r1: the old path scored everything then masked).
    # The routing matmul is (n × n_cells); query scoring then touches
    # only the probed cells' vectors.
    def route(t: pa.Table) -> pa.Table:
        CM, clabels, wanted = ray.get(ref)
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        V = _normalize(list_matrix(t["embedding"]))
        cell = clabels[np.argmax(V @ CM.T, axis=1)]
        keep = np.isin(cell, wanted)
        return pa.table({
            "vec_id": pa.array(ids[keep], pa.int64()),
            "cell_id": pa.array(cell[keep], pa.int64()),
            "embedding": t["embedding"].combine_chunks().filter(pa.array(keep)),
        })

    routed = emb.map_batches(route, batch_format="pyarrow")

    # ---- per-cell search: cell_id is the shuffle key (the scale plan —
    # each reducer holds complete cells and scores them only against the
    # queries probing that cell)
    nq = len(qids)
    probes_per_cell: dict[int, list[int]] = {}
    for qi in range(nq):
        for lab in probe_labels[qi]:
            probes_per_cell.setdefault(int(lab), []).append(qi)

    def search_cells(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for cell, g in df.groupby("cell_id", sort=False):
            qs = probes_per_cell.get(int(cell))
            if not qs:
                continue
            ids = g["vec_id"].to_numpy(dtype=np.int64)
            V = _normalize(np.array(g["embedding"].tolist(), dtype=np.float64))
            S = Q[qs] @ V.T                              # (|qs|, cell)
            for row, qi in enumerate(qs):
                m = ids != qids[qi]
                cand_ids, cand_s = ids[m], S[row][m]
                if cand_ids.size > TOP_K:
                    part = np.argpartition(-cand_s, TOP_K)[:TOP_K]
                    cand_ids, cand_s = cand_ids[part], cand_s[part]
                frames.append(pd.DataFrame({
                    "query_id": np.full(cand_ids.size, qids[qi], dtype=np.int64),
                    "neighbor_id": cand_ids,
                    "sim": cand_s,
                }))
        if not frames:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "neighbor_id": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    partials = grouped_apply(routed, ["cell_id"], search_cells,
                             num_partitions=16)

    def reduce_topk(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for qid, g in df.groupby("query_id", sort=False):
            g = g.sort_values(["sim", "neighbor_id"],
                              ascending=[False, True]).head(TOP_K)
            g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
            frames.append(g)
        return pd.concat(frames)[["query_id", "neighbor_id", "rank"]]

    out = grouped_apply(partials, ["query_id"], reduce_topk).to_pandas()
    return (out.astype({"query_id": "int64", "neighbor_id": "int64", "rank": "int64"})
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def _ivf_oracle_sql() -> str:
    """DuckDB re-derivation of the routed IVF search: centroids are the
    per-``label`` means of the raw vectors (cosine is scale-invariant,
    so the SQL skips the explicit normalizations); each query probes its
    ``NPROBE`` nearest centroids (ties broken by label — argsort on the
    distinct centroid sims is order-identical); each vector joins its
    argmax-nearest cell (numpy argmax takes the first maximum = lowest
    label); candidates are the probed cells' vectors, ranked by
    (sim DESC, neighbor_id ASC) like the brute-force oracle.  The
    float ranking agreement between numpy matmul and DuckDB
    ``list_cosine_similarity`` is already hash-evidenced by the
    exhaustive-twin gates.  The dimension is read from the data
    (``len(embedding)``), like the Ray path."""
    return f"""
    WITH cent AS MATERIALIZED (
        SELECT label, list(s ORDER BY i) AS c
        FROM (SELECT label, i, sum(embedding[i]) / count(*) AS s
              FROM embeddings,
                   LATERAL (SELECT unnest(generate_series(1,
                                len(embedding))) AS i) _
              GROUP BY label, i)
        GROUP BY label
    ),
    q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings WHERE vec_id < {N_QUERIES}),
    probe AS MATERIALIZED (
        SELECT query_id, label FROM (
            SELECT q.vec_id AS query_id, c.label,
                   row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.e, c.c) DESC,
                                c.label) AS pr
            FROM q, cent c)
        WHERE pr <= {NPROBE}
    ),
    vcell AS MATERIALIZED (
        SELECT vec_id, cell_id, e FROM (
            SELECT v.vec_id, c.label AS cell_id,
                   CAST(v.embedding AS DOUBLE[]) AS e,
                   row_number() OVER (
                       PARTITION BY v.vec_id
                       ORDER BY list_cosine_similarity(
                                    CAST(v.embedding AS DOUBLE[]), c.c) DESC,
                                c.label) AS rr
            FROM embeddings v, cent c)
        WHERE rr = 1
    ),
    scored AS (
        SELECT p.query_id, v.vec_id AS neighbor_id,
               list_cosine_similarity(q.e, v.e) AS sim
        FROM probe p
        JOIN vcell v ON v.cell_id = p.label
        JOIN q ON q.vec_id = p.query_id
        WHERE v.vec_id <> p.query_id
    ),
    ranked AS (
        SELECT query_id, neighbor_id,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY sim DESC, neighbor_id ASC) AS rank
        FROM scored)
    SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= {TOP_K}
    """


register("ann_ivf_topk", ann_ivf_topk, _ivf_oracle_sql())

# exhaustive probe (nprobe = all cells) — same routed execution plan,
# provably equal to brute force, so the brute oracle hash-checks it
register("ann_ivf_exhaustive",
         lambda sf_dir: ann_ivf_topk(sf_dir, nprobe=1 << 30),
         _BRUTE_ORACLE)


def ann_lsh_topk(sf_dir: str,
                 n_planes: int = 5, n_tables: int = 12) -> pd.DataFrame:
    """Random-hyperplane LSH approximate top-k (rows-only).

    The vector analogue of the text SimHash path: each vector's
    signature is the sign pattern against ``n_planes`` seeded random
    hyperplanes, bucketed in ``n_tables`` independent tables; a query
    scores only vectors sharing at least one bucket.  At scale the
    bucket id is the shuffle key (groupby per table); here buckets are
    computed per batch and candidates scored in the same pass.
    Recall vs the brute-force baseline is measured in tests/;
    ``n_planes=0`` puts every vector and every query in one shared
    bucket, so the identical code path (signatures → bucket match →
    gated scoring → grouped merge) must reduce EXACTLY to brute force —
    ``ann_lsh_exhaustive`` registers that configuration against the
    brute-force SQL oracle as a hash-checked gate.
    """
    rng = np.random.default_rng(42)

    qids, Q = _query_matrix(sf_dir)
    dim = Q.shape[1]
    planes = rng.standard_normal((n_tables, n_planes, dim))
    qsig = (np.einsum("tpd,qd->tqp", planes, Q) > 0)         # (T, nq, P)
    qbits = (qsig << np.arange(n_planes)).sum(axis=2)        # (T, nq)
    ref = ray.put((qids, Q, planes, qbits))

    def search(t: pa.Table) -> pa.Table:
        q_ids, QM, PL, QB = ray.get(ref)
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        V = _normalize(list_matrix(t["embedding"]))
        vsig = (np.einsum("tpd,nd->tnp", PL, V) > 0)
        vbits = (vsig << np.arange(PL.shape[1])).sum(axis=2)  # (T, n)
        # prune BEFORE scoring: only vectors sharing ≥1 bucket with ≥1
        # query are scored — the cheap signature pass gates the matmul
        # (at scale the bucket id becomes the shuffle key, as in
        # ann_ivf_topk's routed plan)
        any_q = np.zeros(len(ids), dtype=bool)
        for tbl in range(PL.shape[0]):
            any_q |= np.isin(vbits[tbl], QB[tbl])
        ids_k, V_k, vbits_k = ids[any_q], V[any_q], vbits[:, any_q]
        if ids_k.size == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        S = QM @ V_k.T
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            cand = np.zeros(ids_k.size, dtype=bool)
            for tbl in range(PL.shape[0]):
                cand |= vbits_k[tbl] == QB[tbl, qi]
            cand &= ids_k != q_ids[qi]
            cand_ids, cand_s = ids_k[cand], S[qi][cand]
            if cand_ids.size > TOP_K:
                part = np.argpartition(-cand_s, TOP_K)[:TOP_K]
                cand_ids, cand_s = cand_ids[part], cand_s[part]
            out_q.append(np.full(cand_ids.size, q_ids[qi], dtype=np.int64))
            out_n.append(cand_ids)
            out_s.append(cand_s)
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = _emb(sf_dir).map_batches(search, batch_format="pyarrow")

    def reduce_topk(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for qid, g in df.groupby("query_id", sort=False):
            g = g.sort_values(["sim", "neighbor_id"],
                              ascending=[False, True]).head(TOP_K)
            g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
            frames.append(g)
        return pd.concat(frames)[["query_id", "neighbor_id", "rank"]]

    out = grouped_apply(partials, ["query_id"], reduce_topk).to_pandas()
    return (out.astype({"query_id": "int64", "neighbor_id": "int64", "rank": "int64"})
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def _lsh_oracle_sql(n_planes: int = 5, n_tables: int = 12) -> str:
    """DuckDB re-derivation of the random-hyperplane LSH search.

    The hyperplanes are the seed-42 ``default_rng`` gaussians — a
    data-independent algorithm constant like the CRC table in the hash
    oracles, embedded at full ``repr`` precision (decimal round-trips
    exactly to the same float64).  Signature bits compare the RAW
    dot product against 0 (the Ray path signs the normalized vector;
    norms are positive so the signs agree).  A (query, vector) pair is
    a candidate iff some table's bucket bits match; ranking matches the
    brute-force oracle's (sim DESC, neighbor_id ASC).

    The plane literals are generated at the input_hint width (64); a
    corpus with a different embedding width fails FAST via the dimcheck
    guard instead of silently hashing against truncated planes."""
    dim = 64  # input_hint embedding width (all testdata SFs)
    rng = np.random.default_rng(42)
    planes = rng.standard_normal((n_tables, n_planes, dim))
    rows = ", ".join(
        f"({t}, {p}, [{', '.join(repr(float(x)) for x in planes[t, p])}])"
        for t in range(n_tables) for p in range(n_planes))
    return f"""
    WITH planes(t, p, pl) AS (VALUES {rows}),
    dimcheck AS (
        SELECT CASE WHEN max(len(embedding)) != {dim}
                    THEN error('lsh oracle: embedding dim != {dim}; '
                               'regenerate the plane constants')
                    ELSE 1 END AS ok
        FROM embeddings
    ),
    sigbits AS MATERIALIZED (
        SELECT v.vec_id, pl.t,
               sum(CASE WHEN list_dot_product(CAST(v.embedding AS DOUBLE[]),
                                              pl.pl) > 0
                        THEN (1::BIGINT << pl.p) ELSE 0 END) AS bits
        FROM embeddings v, planes pl, dimcheck
        GROUP BY v.vec_id, pl.t
    ),
    q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings WHERE vec_id < {N_QUERIES}),
    cand AS (
        SELECT DISTINCT qb.vec_id AS query_id, vb.vec_id AS neighbor_id
        FROM sigbits qb
        JOIN sigbits vb ON vb.t = qb.t AND vb.bits = qb.bits
                       AND vb.vec_id <> qb.vec_id
        WHERE qb.vec_id < {N_QUERIES}
    ),
    scored AS (
        SELECT c.query_id, c.neighbor_id,
               list_cosine_similarity(
                   q.e, CAST(v.embedding AS DOUBLE[])) AS sim
        FROM cand c
        JOIN q ON q.vec_id = c.query_id
        JOIN embeddings v ON v.vec_id = c.neighbor_id
    ),
    ranked AS (
        SELECT query_id, neighbor_id,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY sim DESC, neighbor_id ASC) AS rank
        FROM scored)
    SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= {TOP_K}
    """


register("ann_lsh_topk", ann_lsh_topk, _lsh_oracle_sql())

register("ann_lsh_exhaustive",
         lambda sf_dir: ann_lsh_topk(sf_dir, n_planes=0, n_tables=1),
         _BRUTE_ORACLE)


def embedding_clusters(sf_dir: str,
                       max_onetask_edges: int = 200_000_000) -> pd.DataFrame:
    """Embedding-cosine near-dup CLUSTERS: the flagship's
    pair→components→keeper shape applied to the vector modality —
    cosine ≥ τ pairs merge into components, keeper = min vec_id.
    Components resolve through the flagship's size-aware switch
    (stages/cluster.py:resolve_components): the one-task kernel at or
    below ``max_onetask_edges``, the distributed large-star/small-star
    label propagation above it (both tiers equality-tested)."""
    from ..pipelines.dedup_queries import embedding_dup_pairs
    from ..stages.cluster import resolve_components

    pairs = embedding_dup_pairs(sf_dir)
    if not len(pairs):
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "cluster_root": pd.Series(dtype="int64"),
                             "is_keeper": pd.Series(dtype="bool")})
    edges = ray.data.from_arrow(pa.table({
        "u": pa.array(pairs["id_a"].to_numpy(np.int64), pa.int64()),
        "v": pa.array(pairs["id_b"].to_numpy(np.int64), pa.int64()),
    }))
    # both tiers list every edge endpoint (roots map to themselves)
    comp = (resolve_components(edges, max_onetask_edges=max_onetask_edges)
            .to_pandas().sort_values("url").reset_index(drop=True))
    nodes = comp["url"].to_numpy(np.int64)
    roots = comp["root"].to_numpy(np.int64)
    return pd.DataFrame({
        "vec_id": nodes,
        "cluster_root": roots,
        "is_keeper": nodes == roots,
    })


def _embedding_clusters_sql() -> str:
    from .dedup_queries import COSINE_THRESHOLD
    return f"""
    WITH RECURSIVE pairs AS (
      SELECT a.vec_id AS u, b.vec_id AS v
      FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                   CAST(b.embedding AS DOUBLE[]))
            >= {COSINE_THRESHOLD}),
    edges AS (SELECT u, v FROM pairs UNION SELECT v, u FROM pairs),
    reach(u, v) AS (
      SELECT u, v FROM edges
      UNION
      SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
      WHERE e.v <> r.u)
    SELECT u AS vec_id,
           CAST(LEAST(u, MIN(v)) AS BIGINT) AS cluster_root,
           (u = LEAST(u, MIN(v))) AS is_keeper
    FROM reach GROUP BY u
    """


# union-find re-expressed as a transitive-closure recursive CTE — exact
# for the small sf oracle inputs (closure is quadratic; the Ray side is
# the scale path)
register("embedding_clusters", embedding_clusters, _embedding_clusters_sql())
