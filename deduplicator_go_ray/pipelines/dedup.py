"""The flagship end-to-end dedup pipeline (SURVEY.md §3.4 DAG):

    read_parquet(pages)                               # Ray Data execution 1
      → map_batches(_extract_cached)                  # M1/ST1
      → add_content_key (sha256 + n_bytes)            # hash stage
    ── plain Ray tasks over block refs from here ──
      → grouped_apply(exact key, assign_rep)          # A1/D1  [exchange 1]
        (sentinel / too-small filter + projection in its split tasks)
      → rep texts: one task per extracted block       # rep-uid set task
      → reps → map_batches(_signature_slim)           # Ray Data execution 2
        (with a signature store: split and range      # state/sigstore.py
        tasks, no execution)
      → bucket_batch (bands [+salt] + SimHash chunks  # split pre_fn of
        + substring anchors) → candidate edges        # [one fused exchange]
      → verify: per-kind endpoint index task          # stages/verify.py
        + one check task per candidate block (or the
        attach exchanges above a kind's round-2 cap)
      → _cc_onetask: components + anchor endpoints    # one task
      → _finalize: one task per members block →       # canonical, match_kind
        (dup rows, finished unique rows)
      → grouped_apply(canonical, keeper policy)       # D2-D4 [keeper exchange]
      → assignments: keeper partitions + unique rows + self-clusters
        (error / too-small rows, one task per extracted block), each
        block finished with its partition_id
      → _packed: in order, into bins of at most the   # one concat task
        target block size                             # per bin of 2+ blocks
      → the caller's write_parquet                    # Ray Data execution 3
        (one write task and one parquet file per packed block)

Ray Data runs only the edges: the read → extract → content-key map and
the signature map (task-based ``map_batches`` with a per-worker stage
cache, ``_STAGE_CACHE``); with a signature store the signatures are
plain tasks too, so a store run has two executions.  Every stage
between them is plain Ray tasks whose inputs are block refs passed as
top-level task arguments, and the stages hand one another
``stages.common.Blocks``: the non-empty block refs with the row count
and byte size their producing tasks report.  Each stage awaits those
small counts (it needs them anyway: ``n_reps``, ``n_cand``,
``n_edges``, the component count, the zero-row blocks dropped before
the sink), so it has run when it returns.  A Dataset is built from
refs (``stages.common.dataset_of``: one metadata task per block and a
stats-actor round trip per Dataset, 7-9 ms for 3 blocks on one CPU)
only where Ray Data must run: the signature map's input, and the
result handed to the caller.  A Ray Data execution costs ~55 ms of
fixed time on one CPU against ~4 ms for a plain task.

The result's block count is the write's cost: each block the caller's
write receives is one metadata task, one write task and one parquet
file (~17 ms on one CPU).  Left as they come, the self-clusters alone
are one block per extracted block, most holding a few error rows, so
``_packed`` packs the non-empty result blocks, in order, into bins of
at most Ray Data's target block size by the sizes their tasks
reported: a 1,000-page job hands the write 1 block instead of 6, a
10,000-page job 1 instead of 30, and blocks already near the target
pass through as they are.

Every per-group decision is a pure function of group content, so the
assignment set is identical at any parallelism — the reference's
coordination-free determinism invariant (files/move.go:226-236),
validated by the N-vs-4N scaling protocol (BASELINE.md §3).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import hash64_str, md5_hex16
from ..schema import ASSIGNMENTS_SCHEMA
from ..stages.buckets import (KIND_ANCHOR, KIND_BAND, KIND_SIMHASH,
                              bucket_batch, candidate_edges_fused,
                              refuse_doc_uid, sampled_hot_band_keys, uid_arrow,
                              uid_bits_for, uid_np, uid_of_urls, uid_pa_type,
                              uid_width)
from ..stages.cluster import _cc_onetask, anchor_endpoints, resolve_components
from ..stages.common import (Blocks, as_blocks, block_refs_of, dataset_of,
                             gather, grouped_apply, map_blocks, sorted_probe,
                             with_stats)
from ..stages.exact import add_content_key, assign_exact_groups, dup_candidates
from ..stages.extract import ExtractStage
from ..stages.joins import hash_join
from ..stages.keeper import select_keepers
from ..stages.signatures import SignatureStage
from ..stages.verify import verify_containment_edges, verify_near_edges

# per-worker-process stage cache: task-based map stages build their
# state once per worker because Ray reuses worker processes across
# tasks.
_STAGE_CACHE: dict = {}


def _extract_cached(batch: pa.Table, extractor="deterministic",
                    timeout_s: float | None = 60.0) -> pa.Table:
    """Per-worker cached extract stage.  ``extractor`` is the config
    slot: "deterministic" (default kernel, the oracle twin) or a
    ``(name, factory)`` tuple — ``factory()`` runs once per worker
    process when the cache misses, so a heavy production extractor
    pays its setup once per worker exactly like an actor ``__init__``
    (stages/extract.py docstring has the contract).  ``timeout_s`` is
    the per-row watchdog budget (config ``extract_timeout_s``; default
    ON ≙ files/files.go:33)."""
    name = extractor if isinstance(extractor, str) else extractor[0]
    key = ("extract", name, timeout_s)
    st = _STAGE_CACHE.get(key)
    if st is None:
        factory = None if isinstance(extractor, str) else extractor[1]
        st = _STAGE_CACHE[key] = ExtractStage(
            extract_factory=factory, timeout_s=timeout_s)
    return st(batch)


def extract_pages(pages: "ray.data.Dataset", cfg: PipelineConfig,
                  batch_size: int | None = None) -> "ray.data.Dataset":
    """The extract map stage: ``_extract_cached`` over ``pages`` with the
    config's extractor slot and watchdog budget.  Shared by
    :func:`run_dedup` and the checkpointed runs (state/checkpoint.py)."""
    return pages.map_batches(
        _extract_cached,
        fn_kwargs={"extractor": cfg.extractor,
                   "timeout_s": cfg.extract_timeout_s},
        batch_format="pyarrow",
        batch_size=batch_size or cfg.signature_batch_size,
    )


def _signature_cached(batch: pa.Table, **kwargs) -> pa.Table:
    key = ("sig", tuple(sorted((k, repr(v)) for k, v in kwargs.items())))
    st = _STAGE_CACHE.get(key)
    if st is None:
        st = _STAGE_CACHE[key] = SignatureStage(**kwargs)
    return st(batch)


def _signature_slim(batch: pa.Table, **kwargs) -> pa.Table:
    """Signature stage + drop the text column: the signature table is
    materialized and re-read by several consumers — the wide text column
    would ride along through all of them (containment pulls texts from
    the reps dataset instead)."""
    out = _signature_cached(batch, **kwargs)
    return out.drop_columns(["text"]) if "text" in out.column_names else out

_EMPTY_ASSIGN = ASSIGNMENTS_SCHEMA.empty_table()


def _finished(t: pa.Table, num_partitions: int) -> pa.Table:
    """An assignment block as the sink writes it: the lineage partition
    id from the url (stable across runs) appended, cast to
    ``ASSIGNMENTS_SCHEMA``."""
    pid = (hash64_str(t["url"], seed=7) % np.uint64(num_partitions)
           ).astype(np.int64) if len(t) else np.empty(0, np.int64)
    t = t.append_column("partition_id", pa.array(pid, pa.int64()))
    return t.select(ASSIGNMENTS_SCHEMA.names).cast(ASSIGNMENTS_SCHEMA)


def _self_clustered(t: pa.Table, kind: str) -> pa.Table:
    """Assignment rows of documents (``url``, ``n_bytes``) that are
    their own cluster — no per-row Python (VERDICT r2 #3)."""
    n = len(t)
    return pa.table({
        "url": t["url"],
        "cluster_id": md5_hex16(t["url"]),
        "keeper_url": t["url"],
        "is_keeper": pa.array(np.ones(n, bool), pa.bool_()),
        "action": pa.array(np.full(n, "keep"), pa.string()),
        "match_kind": pa.array(np.full(n, kind), pa.string()),
        "n_bytes": pc.cast(t["n_bytes"], pa.int64()),
    })


def _self_clusters(t: pa.Table, min_size: int, num_partitions: int):
    """The pass-through rows of one extracted block as a sink block:
    error rows, and with ``min_size`` the too-small rows, each its own
    cluster.  Returns the block with its stats."""
    parts = [_self_clustered(t.filter(pc.is_valid(t["error"])), "error")]
    if min_size:
        small = pc.and_kleene(pc.is_null(t["error"]),
                              pc.less(t["n_bytes"], int(min_size)))
        parts.append(_self_clustered(t.filter(small), "too_small"))
    return with_stats(_finished(pa.concat_tables(parts), num_partitions))


@ray.remote
def _rep_uids(*blocks) -> np.ndarray:
    """Sorted uids of the representative rows of the exact groups."""
    return np.unique(np.concatenate(
        [uid_of_urls(t.filter(t["is_rep"])["url"]) for t in blocks]))


def _rep_rows(t: pa.Table, cols: list, rep_uids=None, min_size: int = 0):
    """The representative rows of a members block or, given the sorted
    ``rep_uids``, of an extracted block; ``cols`` only, with their
    stats."""
    if rep_uids is None:
        return with_stats(t.filter(t["is_rep"]).select(cols))
    t = dup_candidates(t, min_size)
    _, hit = sorted_probe(rep_uids, uid_of_urls(t["url"]))
    return with_stats(t.filter(pa.array(hit)).select(cols))


# the distributed components tier's anchor-endpoint set (the one-task
# tier returns it with its component map)
_anchor_uids = ray.remote(lambda *blocks: anchor_endpoints(blocks))


def _with_rep_uid(t: pa.Table, uid_type: pa.DataType):
    if "text" in t.column_names:
        t = t.drop_columns(["text"])
    return with_stats(t.append_column("rep_uid", uid_arrow(
        uid_of_urls(t["rep_url"], uid_width(uid_type)))))


def _as_near_root(t: pa.Table):
    return with_stats(pa.table({"rep_uid": t["url"], "near_root": t["root"]}))


def _finalize(t: pa.Table, cc, sub, uid_type: pa.DataType,
              num_partitions: int):
    """One members block → (its duplicate rows, with ``canonical`` and
    ``match_kind``, for the keeper exchange; their stats; its unique
    rows as finished assignment rows; their stats).  A member's canonical is
    its exact representative's component root (the ``near_root``
    column after a keyed join, else a probe of the one-task tier's
    sorted component map ``cc``) or the representative itself; ``sub``
    holds the sorted anchor-edge endpoints; uids are of ``uid_type``,
    the candidate edges' uid type.  Fully vectorized (VERDICT r1 #3)."""
    if "text" in t.column_names:
        t = t.drop_columns(["text"])
    rep_uid = (uid_np(t["rep_uid"]) if "rep_uid" in t.column_names
               else uid_of_urls(t["rep_url"], uid_width(uid_type)))
    if "near_root" in t.column_names:
        near = pc.is_valid(t["near_root"]).to_numpy(zero_copy_only=False)
        roots = uid_np(t["near_root"])
    elif cc is not None:
        pos, near = sorted_probe(uid_np(cc["url"]), rep_uid)
        roots = uid_np(cc["root"])[pos] if len(cc) else rep_uid
    else:
        near, roots = np.zeros(len(t), bool), rep_uid
    canonical = np.where(near, roots, rep_uid)
    _, is_sub = sorted_probe(sub if sub is not None else np.empty(0, np.int64),
                             rep_uid)
    exact_sz = np.asarray(t["exact_size"], dtype=np.int64)
    kinds = np.select([near & is_sub, near, exact_sz > 1],
                      ["substring", "near", "exact"], default="unique")
    dup = kinds != "unique"
    uniq = t.filter(pa.array(~dup))
    dups = (t.append_column("canonical", uid_arrow(canonical))
            .append_column("match_kind", pa.array(kinds, pa.string()))
            .filter(pa.array(dup)))
    return (*with_stats(dups),
            *with_stats(_finished(_self_clustered(uniq, "unique"),
                                  num_partitions)))


@ray.remote
def _concat_blocks(*blocks) -> pa.Table:
    """One bin of result blocks as one block (:func:`_packed`)."""
    return pa.concat_tables(blocks)


def _packed(*parts: Blocks) -> "ray.data.Dataset":
    """The result as the caller's write receives it: the blocks of
    ``parts``, in order, packed greedily by the sizes their tasks
    reported into bins of at most Ray Data's target block size (the
    target ``stages.common.sized_partitions`` sizes partitions by), and
    wrapped once.  One ``pa.concat_tables`` task per bin of two or more
    blocks; a bin of one block (a block near or above the target)
    passes through untouched.  Each block the write receives costs a
    metadata task, a write task and a parquet file, ~17 ms on one CPU,
    and the self-clusters alone are one block per extracted block; the
    rows and their ``partition_id`` do not change.  ``Blocks`` hold no
    zero-row block: Ray forwards such a block untouched through a
    caller's later map, still in the pre-map schema (VERDICT r2 #9)."""
    target = (ray.data.DataContext.get_current().target_max_block_size
              or float("inf"))
    bins, size = [], 0
    for ref, n in ((r, n) for p in parts for r, n in zip(p.refs, p.sizes)):
        if bins and size + n <= target:
            bins[-1].append(ref)
            size += n
        else:
            bins.append([ref])
            size = n
    refs = [b[0] if len(b) == 1 else _concat_blocks.remote(*b) for b in bins]
    return dataset_of(refs or [ray.put(_EMPTY_ASSIGN)])


class _PhaseTimer:
    """Prints per-phase wall times when GRAFT_PHASE_TIMING=1 — the
    pipeline's own observability hook (≙ the reference's per-run
    self-instrumentation, files/process.go:459-465)."""

    def __init__(self) -> None:
        import os
        import time
        self.on = os.environ.get("GRAFT_PHASE_TIMING") == "1"
        self.t = time.time()

    def tick(self, label: str) -> None:
        if not self.on:
            return
        import time
        now = time.time()
        print(f"[phase] {label}: {now - self.t:.2f}s", flush=True)
        self.t = now

    def note(self, label: str, value) -> None:
        if self.on:
            print(f"[note] {label}: {value}", flush=True)


def run_dedup(
    pages: "ray.data.Dataset",
    cfg: PipelineConfig | None = None,
    num_partitions: int = 8,
) -> "ray.data.Dataset":
    """pages (url, warc_ts, html, text?, lang) → materialized
    assignments Dataset (ASSIGNMENTS_SCHEMA): the keeper partitions, the
    unique rows and the self-clusters, each block finished with its
    lineage ``partition_id``, so the caller's write runs alone."""
    cfg = cfg or PipelineConfig()
    timer = _PhaseTimer()

    # ---- extract + hash ----------------------------------------------------
    in_schema = pages.schema()
    in_cols = list(in_schema.names) if in_schema is not None else []
    refuse_doc_uid(in_cols, "run_dedup")
    if in_cols and "html" not in in_cols:
        # pre-extracted input (e.g. resuming from the extract+hash
        # checkpoint): text + error columns already present, skip the
        # extract stage entirely
        extracted = pages
    else:
        extracted = extract_pages(pages, cfg)
    # materialize ONCE: the exact exchange, the rep texts and the
    # self-cluster task all read its blocks
    docs = as_blocks(add_content_key(extracted).materialize())
    timer.tick("extract+hash")
    n_docs = docs.num_rows
    if n_docs == 0:
        return dataset_of([ray.put(_EMPTY_ASSIGN)])
    # error rows + too-small rows pass through as self-clusters: one
    # task per extracted block, submitted now (zero-row results are
    # dropped, the rest packed, at the end)
    tail = map_blocks(docs.refs, _self_clusters, cfg.min_size,
                      num_partitions, num_returns=2)

    # ---- exact dedup (shuffle on content key) ------------------------------
    # size-aware physical plan for representative texts (VERDICT r1 #2):
    #   * small corpus (≤ broadcast_max_reps docs): the exact groupby
    #     shuffles ONLY keys + metadata — never the text column — and
    #     rep texts are re-fetched per extracted block against a
    #     sorted rep-uid set one task builds in the object store
    #     (nothing is collected on the driver);
    #   * large corpus: the text column rides through the ONE exact
    #     hash exchange (bounded per partition, spills with the
    #     exchange) and reps fall out of the group reduce directly — no
    #     O(n_reps) set exists anywhere, on the driver or in any worker.
    texts_through_shuffle = n_docs > cfg.broadcast_max_reps
    keep = (("url", "warc_ts", "lang", "text") if texts_through_shuffle
            else ("url", "warc_ts", "lang"))
    members = assign_exact_groups(docs, keep_cols=keep,
                                  min_size=cfg.min_size)
    timer.tick("exact_groups")
    if not members.refs:
        # empty / all-error corpus: only the self-clusters flow through
        return _packed(gather(tail))

    rep_cols = ["url", "text", "n_bytes"] + (
        ["text_sha256"] if cfg.sig_store_dir else [])
    rep_outs = (
        map_blocks(members.refs, _rep_rows, rep_cols, num_returns=2)
        if texts_through_shuffle
        else map_blocks(docs.refs, _rep_rows, rep_cols,
                        _rep_uids.remote(*members.refs), cfg.min_size,
                        num_returns=2))

    # ---- signatures on representatives only (candidate pruning §7.0) -------
    sig_kwargs = {
        "minhash": cfg.minhash,
        "simhash": cfg.simhash,
        "substring": cfg.substring,
        "compute_anchors": cfg.run_substring_pass,
    }
    if cfg.sig_store_dir:
        # incremental signature store (state/sigstore.py): unchanged
        # content keys re-use their stored signatures; only unseen
        # content runs the kernels, inside the store's range tasks.
        # Output is byte-identical to the full compute
        # (equality-tested), so every downstream stage is untouched.
        # The sigs table carries two store-bookkeeping columns the
        # baseline path doesn't (text_sha256, sig_cached for the
        # compute accounting) — ~65 B/row of plasma residency; they
        # never enter a shuffle (the bucket rows are skinny, the verify
        # index gathers url+minhash only).
        from ..state.sigstore import incremental_signatures

        reps = gather(rep_outs)
        timer.tick("rep_texts")
        sigs, _n_new = incremental_signatures(
            reps, cfg.sig_store_dir, sig_kwargs=sig_kwargs,
            passthrough=("n_bytes",), batch_size=cfg.signature_batch_size)
        timer.note("sigs_computed", _n_new)
    else:
        # the signature map is Ray Data's: its input is wrapped, and
        # its executed output is read back as Blocks
        reps = dataset_of([b for b, _ in rep_outs])
        timer.tick("rep_texts")
        sigs = as_blocks(reps.map_batches(
            functools.partial(_signature_slim, **sig_kwargs),
            batch_format="pyarrow",
            batch_size=cfg.signature_batch_size,
        ).materialize())

    timer.tick("signatures")
    # ---- candidate edges: ONE fused bucket exchange ------------------------
    # LSH bands + SimHash chunks + substring anchors share one exchange
    # over skinny int64 rows (uid keys, not url strings), built by
    # bucket_batch inside its split tasks — see stages/buckets.py.
    # Hot-band skew (north rule): above presalt_min_band_rows a
    # deterministic 1/8 content-hash sample pre-counts band keys, and
    # hot keys are salted IN-FLIGHT inside the same fused exchange —
    # salted sub-buckets emit chain-only edges.
    n_reps = sigs.num_rows
    timer.note("n_reps", n_reps)
    # the uid width self-selects from the rep count (128 bits where an
    # accidental 64-bit collision becomes likely), here where the count
    # first exists; only the mint takes it — everything downstream
    # reads uid_type, the type the candidate exchange casts its edges to
    uid_bits = uid_bits_for(n_reps)
    uid_type = uid_pa_type(uid_bits)
    timer.note("uid_bits", uid_bits)

    hot = sampled_hot_band_keys(sigs, cfg, n_reps)
    if timer.on:
        timer.tick("hot_precount")
    kinds = ((KIND_BAND,) + ((KIND_SIMHASH,) if cfg.run_simhash else ())
             + ((KIND_ANCHOR,) if cfg.run_substring_pass else ()))
    cand = candidate_edges_fused(
        sigs, cfg.lsh, cfg.simhash.hamming_threshold,
        num_partitions=cfg.bucket_partitions,
        uid_bits=uid_bits, minhash=cfg.minhash,
        pre_fn=functools.partial(
            bucket_batch, minhash=cfg.minhash, kinds=kinds,
            hot_band_keys=hot, num_salts=cfg.lsh.num_salts,
            uid_bits=uid_bits))
    timer.tick("candidates")

    # ---- verify: both kinds read the one candidate table -------------------
    # each kind's plan is the verify stage's rule (stages/verify.py:
    # _verify): an index over its pairs' endpoints up to its round-2
    # cap, two keyed attach exchanges above it (plans equality-tested
    # in tests/test_dedup_pipeline.py); each call returns its edges
    # once its checks have run
    n_cand = cand.num_rows
    timer.note("n_cand", n_cand)
    edge_sets = []
    if n_cand:
        edge_sets.append(verify_near_edges(
            cand, sigs, cfg.minhash, cfg.bucket_partitions))
    if n_cand and cfg.run_substring_pass:
        edge_sets.append(verify_containment_edges(
            cand, reps, cfg.bucket_partitions))
    edge_refs = [r for e in edge_sets for r in e.refs]
    n_edges = sum(e.num_rows for e in edge_sets)
    timer.tick("verify+edges")
    timer.note("n_edges", n_edges)

    # ---- components → rep cluster assignment -------------------------------
    # the one-task tier returns the (url, root) map, the sorted
    # anchor-edge endpoints and the map's row count; the first two stay
    # in the object store and reach the finalize tasks as top-level
    # arguments — no driver pull
    cc_ref = sub_ref = None
    cc_refs, n_comp = [], 0
    if n_edges and n_edges <= cfg.onetask_cc_max_edges:
        cc_ref, sub_ref, n_ref = _cc_onetask.remote(*edge_refs)
        n_comp = ray.get(n_ref)
        cc_refs = [cc_ref]
    elif n_edges:
        rep_clusters = resolve_components(
            dataset_of(edge_refs), key_type=uid_type,
            max_onetask_edges=cfg.onetask_cc_max_edges)
        sub_ref = _anchor_uids.remote(*edge_refs)
        cc_refs = block_refs_of(rep_clusters)
        n_comp = rep_clusters.count()
    timer.tick("components")

    if n_comp > cfg.broadcast_max_reps or (n_comp and cc_ref is None):
        # the component map is too large to broadcast (or spread over
        # the distributed tier's partitions): one keyed join attaches
        # each member's near_root
        members = hash_join(
            gather(map_blocks(members.refs, _with_rep_uid, uid_type,
                              num_returns=2)),
            gather(map_blocks(cc_refs, _as_near_root, num_returns=2)),
            "rep_uid", "left outer", num_partitions=num_partitions)
        cc_ref = None
    finals = map_blocks(members.refs, _finalize, cc_ref, sub_ref,
                        uid_type, num_partitions, num_returns=4)
    tail += [(u, st) for _, _, u, st in finals]
    timer.tick("finalize")

    # ---- keeper resolution per cluster (shuffle on canonical uid) ----------
    # Singleton clusters (match_kind == "unique": exact_size == 1 and no
    # near/substring membership) have a policy-independent resolution —
    # keeper = self, action = keep — so finalize emits them finished and
    # they NEVER enter the keeper exchange.  Only the dup fraction of
    # the corpus (typically a small minority at web scale) pays the
    # canonical-uid exchange.
    policy = cfg.keeper

    def resolve(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["canonical", "url"], kind="mergesort")
        if policy.policy == "deterministic":
            grp = df.groupby("canonical", sort=False)
            keeper = grp["url"].transform("first")
            df = df.assign(
                keeper_url=keeper,
                is_keeper=df["url"] == keeper,
            )
            df["action"] = np.where(df["is_keeper"], "keep", "drop")
        else:
            df = pd.concat([
                select_keepers(g, policy)
                for _, g in df.groupby("canonical", sort=False)
            ])
        # cluster identity = hash of the cluster's minimum url — a pure
        # function of group content (≙ files/move.go:226-236), never of
        # the internal integer labels
        min_url = df.groupby("canonical", sort=False)["url"].transform("min")
        uniq_min = min_url.unique()
        cids = dict(zip(uniq_min, md5_hex16(list(uniq_min)).to_pylist()))
        return _finished(pa.Table.from_pandas(pd.DataFrame({
            "url": df["url"],
            "cluster_id": min_url.map(cids),
            "keeper_url": df["keeper_url"],
            "is_keeper": df["is_keeper"],
            "action": df["action"],
            "match_kind": df["match_kind"],
            "n_bytes": df["n_bytes"].astype("int64"),
        }), preserve_index=False), num_partitions)

    keepers = grouped_apply(
        gather((d, st) for d, st, _, _ in finals), ["canonical"],
        resolve, num_partitions=cfg.bucket_partitions,
        empty_result=_EMPTY_ASSIGN)
    return _packed(keepers, gather(tail))
