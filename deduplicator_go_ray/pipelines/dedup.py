"""The flagship end-to-end dedup pipeline (SURVEY.md §3.4 DAG):

    read_parquet(pages)
      → map_batches(_extract_cached)                  # M1/ST1
      → add_content_key (sha256 + n_bytes)            # hash stage
      → grouped_apply(exact key, assign_rep)          # A1/D1  [exchange 1]
      → reps → map_batches(_signature_slim)           # ST1
      → LSH bands [+salt] + SimHash chunks + substring
        anchors → candidate edges                     # [one fused exchange]
      → verify (signature Jaccard / containment)      # stages/verify.py:
                                                      # index or attach exchanges
      → connected components (resolve_components)     # cluster merge
      → propagate rep cluster → members               # broadcast or join
      → grouped_apply(canonical, keeper policy)       # D2-D4 [keeper exchange]
      → assignments (+ error rows re-unioned)

Per-row stages are task-based ``map_batches`` with a per-worker stage
cache (``_STAGE_CACHE``).

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
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import hash64_str, md5_hex16
from ..stages.common import grouped_apply
from ..stages.exact import add_content_key, assign_exact_groups
from ..stages.extract import ExtractStage
from ..stages.keeper import select_keepers
from ..stages.buckets import (KIND_ANCHOR, bucket_rows, candidate_edges_fused,
                              refuse_doc_uid)
from ..stages.verify import verify_containment_edges, verify_near_edges
from ..stages.joins import broadcast_lookup, hash_join
from ..stages.signatures import SignatureStage

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

_EMPTY_ASSIGN = pa.table({
    "url": pa.array([], pa.string()),
    "cluster_id": pa.array([], pa.string()),
    "keeper_url": pa.array([], pa.string()),
    "is_keeper": pa.array([], pa.bool_()),
    "action": pa.array([], pa.string()),
    "match_kind": pa.array([], pa.string()),
    "n_bytes": pa.array([], pa.int64()),
})


def _sub_uids_task(refs: tuple, uid_bits: int):
    """Sorted unique substring-anchor edge endpoints, built in a single
    Ray task from the verified-edge table's block refs — the result
    lives in the object store and finalize maps it zero-copy.  Runs
    remotely via ``ray.remote(_sub_uids_task).remote(...)``."""
    import ray as _ray

    from ..stages.buckets import uid_np as _uid_np

    tables = _ray.get(list(refs))
    parts = []
    for t in tables:
        if not len(t):
            continue
        sub = t.filter(pc.equal(t["kind"], KIND_ANCHOR))
        if len(sub):
            parts.append(_uid_np(sub["u"], uid_bits))
            parts.append(_uid_np(sub["v"], uid_bits))
    return (np.unique(np.concatenate(parts)) if parts
            else np.empty(0, np.int64))


def _started(fn, background: bool):
    """Call ``fn`` now, or on a background thread; returns a getter for
    its result that joins the thread and re-raises its exception."""
    if not background:
        out = fn()
        return lambda: out
    import threading

    box: dict = {}

    def run() -> None:
        try:
            box["out"] = fn()
        except Exception as e:  # pragma: no cover
            # Exception, not BaseException: an interrupt on this thread
            # must propagate, not be parked
            box["err"] = e

    th = threading.Thread(target=run, name="containment-verify", daemon=True)
    th.start()

    def result():
        th.join()
        if "err" in box:
            raise box["err"]
        return box["out"]

    return result


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
    """pages (url, warc_ts, html, text?, lang) → assignments Dataset
    (ASSIGNMENTS_SCHEMA).  Streaming end-to-end except the small edge /
    cluster intermediates, which are materialized (they are orders of
    magnitude smaller than the corpus after exact collapse)."""
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
    # materialize ONCE: the ok branch here plus the error/too-small
    # self-cluster passes inside _finish all consume this dataset —
    # left lazy, the whole extract pipeline would re-execute per
    # consumer (3× the heaviest map stage)
    hashed = add_content_key(extracted).materialize()
    timer.tick("extract+hash")
    # ≙ every reference dup query excluding sentinel rows (files/utils.go:72)
    # (the error and too-small branches live inside _finish's
    # selfcluster — see below)
    ok = hashed.map_batches(
        lambda t: t.filter(pc.is_null(t["error"])), batch_format="pyarrow")

    if cfg.min_size:
        # ≙ --min-size predicate (files/utils.go:77-81): tiny docs are
        # never dup candidates but still flow through as uniques (the
        # too-small self-cluster pass in _finish).
        ok = ok.filter(expr=f"n_bytes >= {int(cfg.min_size)}")

    # ---- shared tail: self-cluster pass-throughs + lineage ------------------
    # (also the early-exit path for an empty / all-error corpus)
    def selfcluster(kind: str, predicate):
        # the branch filter is folded INTO this UDF: a separate fused
        # filter stage yielding zero rows would make Ray skip this fn
        # and emit a schema-less empty block that rides every downstream
        # operator untouched (VERDICT r2 #9)
        def f(batch: pa.Table) -> pa.Table:
            batch = batch.filter(predicate(batch))
            n = batch.num_rows
            nb = (np.asarray(batch["n_bytes"], dtype=np.int64)
                  if "n_bytes" in batch.column_names
                  else np.zeros(n, np.int64))
            return pa.table({
                "url": batch["url"],
                "cluster_id": md5_hex16(batch["url"]),
                "keeper_url": batch["url"],
                "is_keeper": pa.array(np.ones(n, bool), pa.bool_()),
                "action": pa.array(np.full(n, "keep"), pa.string()),
                "match_kind": pa.array(np.full(n, kind), pa.string()),
                "n_bytes": pa.array(nb, pa.int64()),
            })
        return f

    def _finish(assignments: "ray.data.Dataset",
                num_partitions: int = num_partitions) -> "ray.data.Dataset":
        # error rows + too-small rows pass through as self-clusters;
        # both branch filters run inside selfcluster on the materialized
        # `hashed` (no fused zero-row stage, see above)
        parts = [assignments, hashed.map_batches(
            selfcluster("error", lambda t: pc.is_valid(t["error"])),
            batch_format="pyarrow")]
        if cfg.min_size:
            parts.append(hashed.map_batches(
                selfcluster(
                    "too_small",
                    lambda t: pc.and_kleene(
                        pc.is_null(t["error"]),
                        pc.less(t["n_bytes"], pa.scalar(int(cfg.min_size),
                                                        pa.int64())))),
                batch_format="pyarrow"))
        out = parts[0].union(*parts[1:])

        # lineage: partition id from the url (stable across runs)
        def lineage(batch: pa.Table) -> pa.Table:
            pid = (hash64_str(batch["url"], seed=7)
                   % np.uint64(num_partitions)).astype(np.int64)
            return batch.append_column("partition_id",
                                       pa.array(pid, pa.int64()))

        return out.map_batches(lineage, batch_format="pyarrow")

    # ---- exact dedup (shuffle on content key) ------------------------------
    # size-aware physical plan for representative texts (VERDICT r1 #2):
    #   * small corpus (≤ broadcast_max_reps docs): the exact groupby
    #     shuffles ONLY keys + metadata — never the text column — and
    #     rep texts are re-fetched by a semi-filter whose sorted rep-uid
    #     set one task builds in the object store (nothing is collected
    #     on the driver);
    #   * large corpus: the text column rides through the ONE exact
    #     hash exchange (bounded per partition, spills with the
    #     exchange) and reps fall out of the group reduce directly — no
    #     O(n_reps) set exists anywhere, on the driver or in any worker.
    from ..stages.buckets import uid_of_urls
    from ..stages.verify import semi_filter_by_uid_ref, uid_set_refs

    n_docs = hashed.count()  # metadata read — hashed is materialized
    if n_docs == 0:
        # fully-empty corpus: short-circuit with the assignment schema
        # (the union tail would otherwise lose it through empty blocks)
        return ray.data.from_arrow(
            _EMPTY_ASSIGN.append_column(
                "partition_id", pa.array([], pa.int64())))
    texts_through_shuffle = n_docs > cfg.broadcast_max_reps
    keep = (("url", "warc_ts", "lang", "text") if texts_through_shuffle
            else ("url", "warc_ts", "lang"))
    members_full = assign_exact_groups(ok, keep_cols=keep).materialize()
    timer.tick("exact_groups")
    if members_full.count() == 0:
        # empty / all-error corpus: only sentinel rows flow through
        assignments = ray.data.from_arrow(_EMPTY_ASSIGN)
        return _finish(assignments)

    rep_cols = ["url", "text", "n_bytes"] + (
        ["text_sha256"] if cfg.sig_store_dir else [])
    if texts_through_shuffle:
        reps = members_full.map_batches(
            lambda t: t.filter(t["is_rep"]).select(rep_cols),
            batch_format="pyarrow").materialize()
        members = members_full.map_batches(
            lambda t: t.drop_columns(["text"]) if "text" in t.column_names else t,
            batch_format="pyarrow")
    else:
        members = members_full

        def rep_uid_batches(t: pa.Table) -> pa.Table:
            kept = t.filter(t["is_rep"])
            return pa.table({"uid": pa.array(uid_of_urls(kept["url"]),
                                             pa.int64())})

        rep_uids = (members_full.select_columns(["url", "is_rep"])
                    .map_batches(rep_uid_batches, batch_format="pyarrow")
                    .materialize())
        (rep_ref,) = uid_set_refs(rep_uids, [("uid",)])
        reps = semi_filter_by_uid_ref(
            ok, rep_ref, columns=rep_cols).materialize()
    timer.tick("rep_texts")

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
        # content runs the kernels.  Output is byte-identical to the
        # full compute (equality-tested), so every downstream stage is
        # untouched.  The sigs table carries two store-bookkeeping
        # columns the baseline path doesn't (text_sha256 for the
        # append-only persist, sig_cached for the compute accounting) —
        # ~65 B/row of plasma residency; they never enter a shuffle
        # (bucket_rows emits skinny rows, the verify index gathers
        # url+minhash only).
        from ..state.sigstore import incremental_signatures

        sigs, _n_new = incremental_signatures(
            reps, cfg.sig_store_dir, num_partitions=num_partitions,
            sig_kwargs=sig_kwargs, passthrough=("n_bytes",),
            batch_size=cfg.signature_batch_size)
        sigs = sigs.materialize()
        timer.note("sigs_computed", _n_new)
    else:
        sigs = reps.map_batches(
            functools.partial(_signature_slim, **sig_kwargs),
            batch_format="pyarrow",
            batch_size=cfg.signature_batch_size,
        ).materialize()

    timer.tick("signatures")
    # ---- candidate edges: ONE fused bucket shuffle -------------------------
    # LSH bands + SimHash chunks + substring anchors share one groupby
    # over skinny int64 rows (uid keys, not url strings) — see
    # stages/buckets.py.  Hot-band skew (north rule): above
    # presalt_min_band_rows a deterministic 1/8 content-hash sample
    # pre-counts band keys (8× less pre-count shuffle volume than the r1
    # full count, and no separate string-keyed band path), and hot keys
    # are salted IN-FLIGHT inside the same fused shuffle — salted
    # sub-buckets emit chain-only edges.
    from ..stages.buckets import sampled_hot_band_keys

    n_reps = sigs.count()
    timer.note("n_reps", n_reps)

    # size-aware uid width (VERDICT r3 #1): with uid_bits unset the
    # collision-safe width self-selects from the rep count — 64-bit
    # int uids below uid_auto_threshold, 16-byte uids at/above it.
    # Resolved HERE (first point the count exists, before any uid is
    # minted); everything downstream reads the resolved cfg.
    if cfg.uid_bits is None:
        import dataclasses as _dc

        cfg = _dc.replace(cfg, uid_bits=cfg.resolved_uid_bits(n_reps))
        timer.note("uid_bits", cfg.uid_bits)

    # Speculatively launch the shared verify-index builds NOW (sigs and
    # reps are materialized) so the single 1-cpu gather+sort tasks
    # overlap the candidate shuffle instead of serializing after it —
    # they were the worst-scaling phases of the N-vs-4N profile (near
    # flat 1.5×/1.4× at 4→16 cpus vs 2.6-3.4× elsewhere).  Only the
    # direct-refs plan can use a url-keyed prebuilt index; the flood
    # path drops the refs and plasma reclaims the objects.
    # the configured budget is a per-node plasma allowance — clamp it
    # to what the SMALLEST node's object store can actually hold (the
    # index is one monolithic plasma object; cluster_resources() sums
    # across nodes and would overstate it on a multi-node cluster;
    # letting the index dominate a node's store forces
    # spill/ObjectStoreFullError where the flood plan streams fine)
    from ..stages.common import per_node_object_store_bytes

    store_bytes = per_node_object_store_bytes()
    budget = cfg.verify_direct_max_bytes
    if store_bytes:
        budget = min(budget, int(store_bytes * 0.25))
    direct_plan = (cfg.uid_bits == 64
                   and n_reps * cfg.minhash.num_perms * 8 <= budget)
    near_idx_ref = cont_idx_ref = None
    if direct_plan and n_reps:
        from ..stages.verify import containment_spec, near_spec, prebuild_index

        near_idx_ref = prebuild_index(sigs, near_spec(cfg.minhash))
        if cfg.run_substring_pass:
            cont_idx_ref = prebuild_index(reps, containment_spec())

    hot = sampled_hot_band_keys(sigs, cfg, n_reps)
    if timer.on:
        timer.tick("hot_precount")
    buckets = bucket_rows(sigs, cfg.minhash,
                          cfg.simhash if cfg.run_simhash else None,
                          with_anchors=cfg.run_substring_pass,
                          hot_band_keys=hot,
                          num_salts=cfg.lsh.num_salts,
                          uid_bits=cfg.uid_bits)
    cand = candidate_edges_fused(
        buckets, cfg.lsh, cfg.simhash.hamming_threshold,
        num_partitions=cfg.bucket_partitions,
        uid_bits=cfg.uid_bits, minhash=cfg.minhash).materialize()
    timer.tick("candidates")

    from ..stages.buckets import empty_edges, uid_np, uid_pa_type

    n_cand = cand.count()
    timer.note("n_cand", n_cand)
    if n_cand == 0:
        all_tagged = ray.data.from_arrow(empty_edges(cfg.uid_bits)).materialize()
    else:
        # size-aware verification plan: at or below smallset_max_edges
        # candidates the pairs are checked against a broadcast index (the
        # prebuilt one, else one over the candidate endpoints); a
        # candidate FLOOD never holds the full index: its pairs (already
        # pruned in the candidate reducer) are checked against an index
        # over their endpoints, or above the kind's round-2 cap through
        # two hash-partitioned attach exchanges
        # (equality-tested in tests/test_dedup_pipeline.py)
        flood = n_cand > cfg.smallset_max_edges
        anchor_flood = False
        if flood:
            # the speculative index builds lost the bet — stop them NOW
            # instead of letting a wasted 1-cpu gather+sort run under the
            # verify exchanges; cancel on a finished task is a no-op and
            # plasma reclaims the object either way
            for _ref in (near_idx_ref, cont_idx_ref):
                if _ref is not None:
                    ray.cancel(_ref, force=False)
            near_idx_ref = cont_idx_ref = None
            # PER-KIND routing: the flood gate fires on the TOTAL
            # candidate count, which band edges dominate — anchor pairs
            # are typically orders of magnitude fewer and keep the
            # small-set plan while the near verify floods
            n_anchor = (cand.filter(expr=f"kind == {KIND_ANCHOR}").count()
                        if cfg.run_substring_pass else 0)
            anchor_flood = not (cfg.uid_bits == 64
                                and 0 < n_anchor <= cfg.smallset_max_edges)
            timer.note("anchor_plan", "flood" if anchor_flood else "smallset")
        common = {"uid_bits": cfg.uid_bits,
                  "num_partitions": cfg.bucket_partitions}
        cont = None
        if cfg.run_substring_pass:
            # on the flood plan the containment verify (endpoint tasks,
            # text scan, its exchanges) runs on a background thread, so
            # its payload scan shares the cluster with the near verify
            # instead of running serially after it
            cont = _started(
                functools.partial(
                    verify_containment_edges,
                    cand.filter(expr=f"kind == {KIND_ANCHOR}"), reps,
                    prebuilt=cont_idx_ref, flood=anchor_flood, **common),
                background=flood)
        edge_sets = [verify_near_edges(
            cand.filter(expr=f"kind != {KIND_ANCHOR}"), sigs, cfg.minhash,
            prebuilt=near_idx_ref, flood=flood, **common)]
        if cont is not None:
            edge_sets.append(cont())
        all_tagged = (edge_sets[0].union(*edge_sets[1:])
                      if len(edge_sets) > 1 else edge_sets[0]).materialize()
    timer.tick("verify+edges")

    # ---- components → rep cluster assignment -------------------------------
    # the substring-uid set is built in ONE Ray task from all_tagged's
    # materialized block refs and stays in the object store — no driver
    # array, nothing captured in a task closure (same pattern as
    # stages/verify.py:_build_index)
    from ..stages.cluster import resolve_components
    from ..stages.common import block_refs_of

    timer.note("n_edges", all_tagged.count())
    sub_ref = ray.remote(num_cpus=1)(_sub_uids_task).remote(
        tuple(block_refs_of(all_tagged)), cfg.uid_bits)
    # materialize() is a no-op on the already-materialized result; it
    # marks the components barrier, where dedupbench's traced run counts
    # the components
    rep_clusters = resolve_components(
        all_tagged, key_type=uid_pa_type(cfg.uid_bits),
        max_onetask_edges=cfg.onetask_cc_max_edges).materialize()
    n_comp = rep_clusters.count()

    def add_rep_uid(t: pa.Table) -> pa.Table:
        from ..stages.buckets import uid_arrow, uid_of_urls
        return t.append_column(
            "rep_uid", uid_arrow(uid_of_urls(t["rep_url"], cfg.uid_bits)))

    timer.tick("components")
    members_u = members.map_batches(add_rep_uid, batch_format="pyarrow")

    if n_comp == 0:
        enriched = members_u.map_batches(
            lambda t: t.append_column(
                "near_root",
                pa.array([None] * len(t), uid_pa_type(cfg.uid_bits))),
            batch_format="pyarrow")
    elif n_comp <= cfg.broadcast_max_reps:
        # the component map is tiny relative to the corpus (near-dup
        # members only) — broadcast it instead of a shuffle join
        tables = ray.get(block_refs_of(rep_clusters))
        mapping = tuple(
            np.concatenate([uid_np(t[col], cfg.uid_bits) for t in tables])
            for col in ("url", "root"))
        enriched = broadcast_lookup(
            members_u, "rep_uid", mapping,
            "near_root", out_type=uid_pa_type(cfg.uid_bits))
    else:
        enriched = hash_join(
            members_u,
            rep_clusters.map_batches(
                lambda t: pa.table({"rep_uid": t["url"],
                                    "near_root": t["root"]}),
                batch_format="pyarrow"),
            "rep_uid", "left outer", num_partitions=num_partitions)

    def finalize(batch: pa.Table) -> pa.Table:
        # fully vectorized (VERDICT r1 #3): no per-row Python in this
        # corpus-wide stage.  The substring-uid set arrives by object
        # ref (zero-copy numpy over plasma), never in the closure.
        from ..stages.buckets import uid_arrow
        near = pc.is_valid(batch["near_root"]).to_numpy(zero_copy_only=False)
        zero = 0 if cfg.uid_bits == 64 else b"\x00" * 16
        roots = uid_np(pc.fill_null(batch["near_root"], zero), cfg.uid_bits)
        rep_uid = uid_np(batch["rep_uid"], cfg.uid_bits)
        exact_sz = np.asarray(batch["exact_size"], dtype=np.int64)
        canonical = np.where(near, roots, rep_uid)
        sub_sorted = ray.get(sub_ref)
        if len(sub_sorted) == 0:
            is_sub = np.zeros(len(rep_uid), bool)
        elif sub_sorted.dtype == np.int64:
            # sorted-unique by construction → membership by searchsorted
            pos = np.searchsorted(sub_sorted, rep_uid)
            pos = np.minimum(pos, len(sub_sorted) - 1)
            is_sub = sub_sorted[pos] == rep_uid
        else:
            is_sub = np.isin(rep_uid, sub_sorted)
        kinds = np.select(
            [near & is_sub, near, exact_sz > 1],
            ["substring", "near", "exact"],
            default="unique")
        out = batch.append_column("canonical", uid_arrow(canonical))
        return out.append_column("match_kind",
                                 pa.array(kinds.tolist(), pa.string()))

    # materialize ONCE: the dup/uniq branches below both consume this
    # dataset — left lazy, the whole members→enrich→finalize map chain
    # re-executes per branch (2× the corpus-wide maps; the r1 profile's
    # post-components tail scaled at 0.36 mostly because of this).  The
    # table is skinny (no text column on either rep-text plan).
    # repartition(shuffle=False) coalesces the read-inherited block
    # fragmentation — every downstream stage's task count and the
    # keeper exchange's input-block count drop with it (see
    # cfg.tail_rows_per_block)
    try:
        _cpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:
        _cpus = 32
    tail_blocks = int(max(2 * _cpus, n_docs // cfg.tail_rows_per_block))
    from ..stages.common import compact_materialized
    final_members = compact_materialized(
        enriched.map_batches(finalize, batch_format="pyarrow")
        .repartition(tail_blocks)
        .materialize())
    timer.tick("finalize")

    # ---- keeper resolution per cluster (shuffle on canonical uid) ----------
    # Singleton clusters (match_kind == "unique": exact_size == 1 and no
    # near/substring membership) have a policy-independent resolution —
    # keeper = self, action = keep — so they NEVER enter the keeper
    # shuffle.  Only the dup fraction of the corpus (typically a small
    # minority at web scale) pays the canonical-uid exchange; the
    # majority streams map-only from extract to sink.
    policy = cfg.keeper

    # the dup/uniq splits are folded INTO the consuming UDFs (pre_fn /
    # in-function filter) rather than standing as separate fused map
    # stages: a fused stage yielding zero rows makes Ray skip the rest
    # of the chain and emit a schema-less empty block that then rides
    # through every downstream operator (VERDICT r2 #9)
    def _dup_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["match_kind"], "unique"))

    def resolve_unique(batch: pa.Table) -> pa.Table:
        # corpus-MAJORITY branch: fully vectorized (VERDICT r2 #3) —
        # cluster_id = md5(url)[:16] via the lane-parallel kernel, no
        # to_pylist / per-row Python anywhere
        batch = batch.filter(pc.equal(batch["match_kind"], "unique"))
        n = batch.num_rows
        return pa.table({
            "url": batch["url"],
            "cluster_id": md5_hex16(batch["url"]),
            "keeper_url": batch["url"],
            "is_keeper": pa.array(np.ones(n, bool), pa.bool_()),
            "action": pa.array(np.full(n, "keep"), pa.string()),
            "match_kind": batch["match_kind"],
            "n_bytes": batch["n_bytes"].cast(pa.int64()),
        })

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
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
        return pd.DataFrame({
            "url": df["url"],
            "cluster_id": min_url.map(cids),
            "keeper_url": df["keeper_url"],
            "is_keeper": df["is_keeper"],
            "action": df["action"],
            "match_kind": df["match_kind"],
            "n_bytes": df["n_bytes"].astype("int64"),
        })

    assignments = grouped_apply(final_members, ["canonical"], resolve,
                                num_partitions=cfg.bucket_partitions,
                                empty_result=_EMPTY_ASSIGN,
                                pre_fn=_dup_filter).union(
        final_members.map_batches(resolve_unique, batch_format="pyarrow"))

    return _finish(assignments)
