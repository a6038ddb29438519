"""Checkpointed, resumable runs with per-partition lineage + metrics.

The reference's resume model is a *predicated re-run*: completed work is
visible in shared state (``hash IS NOT NULL``) and the next run's WHERE
clause skips it (``files/hash.go:18-35``), with keyset bookmarks inside
a run (``files/hash.go:271-276``).  Here the same contract is expressed
Ray-natively:

* every row gets a deterministic ``partition_id`` = hash64(url) % P —
  the lineage unit (pure function of the row, independent of cluster
  size or block layout);
* a checkpointed stage writes ONE parquet file per partition with an
  atomic tmp→rename, so a file's existence IS the completion marker
  (no separate manifest to get out of sync — idempotent like the
  reference's ``ON CONFLICT`` upserts, ``files/process.go:53-58``);
* resume = anti-join input against the done-partition set (a broadcast
  of ≤P small ints) and recompute only the missing partitions;
* each partition write also emits a METRICS_SCHEMA row (rows, errors,
  wall seconds) — the per-partition lineage + metrics the north rule
  requires.

Because every per-group decision downstream is a pure function of group
content, re-running the cheap cluster stages on top of checkpointed
per-row stages reproduces byte-identical assignments — "any partition's
dedup decisions are replayable".
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.hashing import hash64_str
from ..stages.common import grouped_apply
from .statefs import as_state_path

PART_SEED = 7  # must match pipelines.dedup lineage hashing


def add_partition_id(ds: "ray.data.Dataset", num_partitions: int,
                     url_col: str = "url") -> "ray.data.Dataset":
    def f(batch: pa.Table) -> pa.Table:
        pid = (hash64_str(batch[url_col], seed=PART_SEED)
               % np.uint64(num_partitions)).astype(np.int64)
        return batch.append_column("partition_id", pa.array(pid, pa.int64()))

    return ds.map_batches(f, batch_format="pyarrow")


def done_partitions(out_dir) -> set[int]:
    """Partition ids whose output file is COMMITTED under the
    directory's protocol (statefs: atomic rename on local/shared-POSIX
    filesystems, ``.ok`` marker objects on object stores)."""
    sp = as_state_path(out_dir)
    return {int(n[5:-8]) for n in sp.committed_names()
            if n.startswith("part-")}


def checkpointed_write(
    ds: "ray.data.Dataset",
    out_dir: str,
    num_partitions: int,
    stage: str,
    url_col: str = "url",
    fail_after: int | None = None,
    fence: bool = True,
) -> pd.DataFrame:
    """Write `ds` as per-partition parquet under `out_dir`, skipping
    partitions already on disk.  Returns the metrics frame (one row per
    partition written this run).  ``fail_after`` aborts after that many
    partition writes — the crash-injection hook the resume tests use.

    The whole write holds the directory's write fence
    (``state/fence.py`` ≙ ``lock/lock.go:65-114``): a second job
    writing the same checkpoint dir raises ``FenceHeldError`` instead
    of racing the tmp-sweep / done-set scan below.  A crashed writer's
    fence is reclaimed by pid-liveness or heartbeat staleness — resume
    semantics are unchanged.  Flows that already hold the directory's
    fence (incremental_hash, prune_checkpoint — they delete stale
    partitions first, which must sit under the SAME hold) pass
    ``fence=False``.
    """
    from .fence import WriteFence

    sp = as_state_path(out_dir)
    if not fence or sp.local() is None:
        # no fencing primitive on object stores (statefs docstring has
        # the trade; single-writer is by deployment convention there)
        if fence and sp.local() is None:
            import warnings

            warnings.warn(
                f"checkpoint dir {sp.raw!r} is not on a local/shared-"
                "POSIX filesystem: the write fence cannot operate — "
                "ensure ONE writer per store by deployment convention",
                stacklevel=2)
        return _checkpointed_write_fenced(
            ds, sp, num_partitions, stage, url_col, fail_after)
    with WriteFence(sp.local()):
        return _checkpointed_write_fenced(
            ds, sp, num_partitions, stage, url_col, fail_after)


def _checkpointed_write_fenced(
    ds: "ray.data.Dataset",
    out_dir: str,
    num_partitions: int,
    stage: str,
    url_col: str = "url",
    fail_after: int | None = None,
) -> pd.DataFrame:
    out_dir = as_state_path(out_dir)
    out_dir.makedirs()
    # sweep tmp orphans from a crashed prior run: their partition was
    # never renamed, so it is NOT in the done set and will be rewritten
    # this run — a stale tmp is pure garbage (and, were it not
    # dot-hidden, read_parquet over the dir would ingest it as
    # duplicate rows).  Marker-protocol stores have no tmps (data
    # objects are overwritten in place; uncommitted ones are invisible)
    for name in out_dir.listdir():
        if ".tmp." in name:
            out_dir.join(name).remove()
    done = done_partitions(out_dir)
    with_pid = (ds if "partition_id" in (ds.schema().names or [])
                else add_partition_id(ds, num_partitions, url_col))
    todo = with_pid
    if done:
        done_arr = np.array(sorted(done), dtype=np.int64)

        def drop_done(batch: pa.Table) -> pa.Table:
            pid = np.asarray(batch["partition_id"], dtype=np.int64)
            return batch.filter(pa.array(~np.isin(pid, done_arr)))

        todo = with_pid.map_batches(drop_done, batch_format="pyarrow")

    def write_part(df: pd.DataFrame) -> pd.DataFrame:
        t0 = time.time()
        frames = []
        for pid, g in df.groupby("partition_id", sort=True):
            pid = int(pid)
            if fail_after is not None:
                # crude cross-task counter via marker files (test hook)
                n_before = len(done_partitions(out_dir))
                if n_before >= fail_after:
                    raise RuntimeError(f"injected failure after {fail_after} partitions")
            g = g.sort_values(url_col, kind="mergesort").reset_index(drop=True)
            final = out_dir.join(f"part-{pid:05d}.parquet")
            tbl = pa.Table.from_pandas(g, preserve_index=False)
            # an all-None column infers as null type, which poisons the
            # multi-file dataset schema — pin such columns to string
            for i, f_ in enumerate(tbl.schema):
                if pa.types.is_null(f_.type):
                    tbl = tbl.set_column(
                        i, f_.name, tbl.column(i).cast(pa.string()))
            # all-or-nothing commit under the directory protocol:
            # dot-prefixed tmp + atomic rename (exists == complete) on
            # local/shared-POSIX, data PUT + .ok marker on object
            # stores (statefs.commit_table)
            final.commit_table(tbl)
            errors = int(g["error"].notna().sum()) if "error" in g.columns else 0
            frames.append(pd.DataFrame({
                "partition_id": [pid], "stage": [stage],
                "rows_in": [len(g)], "rows_out": [len(g)],
                "errors": [errors], "wall_s": [time.time() - t0],
            }))
        if not frames:
            return pd.DataFrame({
                "partition_id": pd.Series(dtype="int64"),
                "stage": pd.Series(dtype=str),
                "rows_in": pd.Series(dtype="int64"),
                "rows_out": pd.Series(dtype="int64"),
                "errors": pd.Series(dtype="int64"),
                "wall_s": pd.Series(dtype="float64"),
            })
        return pd.concat(frames)

    metrics = grouped_apply(todo, ["partition_id"], write_part,
                            num_partitions=num_partitions).to_pandas()
    return metrics


def read_checkpoint(out_dir) -> "ray.data.Dataset":
    sp = as_state_path(out_dir)
    if sp.atomic_rename:
        # rename protocol: every visible parquet file is committed —
        # one directory discovery (dot/underscore tmps are hidden)
        return ray.data.read_parquet(sp.rel, filesystem=sp.fs)
    # marker protocol: an uncommitted data object from a crashed
    # writer LOOKS complete (PUTs are atomic per object), so read the
    # committed list explicitly, never the directory
    names = sp.committed_names()
    return ray.data.read_parquet([sp.join(n).rel for n in names],
                                 filesystem=sp.fs)


def incremental_hash(
    pages: "ray.data.Dataset",
    out_dir: str,
    num_partitions: int = 64,
    force: bool = False,
    retry_errors: bool = False,
    renew_older_than: float | None = None,
    _now: float | None = None,
) -> pd.DataFrame:
    """Incremental extract+hash against an existing checkpoint — the
    reference's unchanged-skip / predicated re-run semantics
    (``files/process.go`` skip-by-(hash,size,mtime); ``--force`` drops
    the predicate and ``--retry-problematic`` re-queues sentinel rows,
    ``files/hash.go:18-35``):

    * rows whose url already has a non-error checkpoint entry are
      SKIPPED (anti-join against the checkpoint's done set, shipped as
      a sorted int64 uid array — broadcast, no shuffle, 8 B/row);
    * ``retry_errors=True`` re-processes rows whose checkpoint entry
      carries an error sentinel (≙ ``--retry-problematic``);
    * ``force=True`` wipes the checkpoint and recomputes everything
      (≙ ``--force``);
    * ``renew_older_than=<seconds>`` re-processes rows whose checkpoint
      ``processed_at`` stamp is older than that TTL — the reference's
      1-week ``last_hashed_at`` staleness predicate (``--renew``,
      ``files/hash.go:31,236-238``); every (re)computed row is stamped.
      ``_now`` is a test hook for the clock.

    Returns the metrics frame for the partitions (re)written.
    """
    from ..config import PipelineConfig
    from ..pipelines.dedup import extract_pages
    from ..stages.buckets import uid_of_urls
    from ..stages.exact import add_content_key

    hashed_dir = as_state_path(out_dir).join("hashed")
    if force and hashed_dir.isdir():
        hashed_dir.rmtree()

    now = _now if _now is not None else time.time()
    cutoff = (now - renew_older_than) if renew_older_than is not None else None

    todo = pages
    # done set accumulates as sorted int64 uids, not url strings — 8 B
    # per done row on the driver and a vectorized searchsorted probe in
    # the anti-filter, instead of a Python string set (same thrift as
    # the rep-uid broadcast; uid-collision bound documented at
    # buckets.uid_of_urls)
    done_uid_sorted = np.empty(0, np.int64)
    if hashed_dir.isdir() and done_partitions(hashed_dir):
        existing = read_checkpoint(hashed_dir)
        have_stamp = "processed_at" in (existing.schema().names or [])
        cols = ["url", "error"] + (["processed_at"] if have_stamp else [])
        uid_chunks = []
        for b in existing.select_columns(cols).iter_batches(
                batch_size=65536, batch_format="pyarrow"):
            keep = np.ones(len(b), dtype=bool)
            if retry_errors:
                import pyarrow.compute as _pc
                keep &= _pc.is_null(b["error"]).to_numpy(zero_copy_only=False)
            if cutoff is not None:
                # stale rows re-enter the work set (≙ files/hash.go:31);
                # rows from pre-TTL checkpoints (no stamp) count stale
                if have_stamp:
                    ts = np.asarray(
                        pa.compute.fill_null(b["processed_at"], 0.0),
                        dtype=np.float64)
                    keep &= ts >= cutoff
                else:
                    keep &= False
            if keep.any():
                uid_chunks.append(uid_of_urls(b["url"])[keep])
        if uid_chunks:
            done_uid_sorted = np.unique(np.concatenate(uid_chunks))
    if done_uid_sorted.size:
        done_ref = ray.put(done_uid_sorted)

        def drop_done(t: pa.Table) -> pa.Table:
            arr = ray.get(done_ref)
            u = uid_of_urls(t["url"])
            pos = np.minimum(np.searchsorted(arr, u), arr.size - 1)
            return t.filter(pa.array(arr[pos] != u))

        todo = pages.map_batches(drop_done, batch_format="pyarrow")

    extracted = extract_pages(todo, PipelineConfig(), batch_size=256)

    def stamp(t: pa.Table) -> pa.Table:
        return t.append_column(
            "processed_at", pa.array(np.full(len(t), now), pa.float64()))

    hashed = add_content_key(extracted).map_batches(
        stamp, batch_format="pyarrow")
    # merge into the checkpoint: recomputed rows land in their partition
    # files; untouched partitions keep their existing file.  A partition
    # containing BOTH old and new rows must be rewritten with the union,
    # so stale partition files for affected pids are removed first.
    with_pid = add_partition_id(hashed, num_partitions).materialize()
    if with_pid.count() == 0:
        return pd.DataFrame()
    affected = set()
    for b in with_pid.select_columns(["partition_id"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        affected.update(np.asarray(b["partition_id"], dtype=np.int64).tolist())
    merged = with_pid
    if hashed_dir.isdir() and done_partitions(hashed_dir):
        old = read_checkpoint(hashed_dir)
        # one rule covers retry/renew/new alike: an old row survives the
        # rewrite of its partition iff it was counted done (skipped);
        # done_uid_sorted from the scan above is exactly that set
        affected_arr = np.array(sorted(affected), dtype=np.int64)
        # ship the done set through the object store (one plasma copy
        # per node), not inside every task's closure
        done_set_ref = ray.put(done_uid_sorted)

        def keep_affected_done(t: pa.Table) -> pa.Table:
            done_arr = ray.get(done_set_ref)
            pid = np.asarray(t["partition_id"], dtype=np.int64)
            keep = (np.isin(pid, affected_arr)
                    & np.isin(uid_of_urls(t["url"]), done_arr))
            return t.filter(pa.array(keep))

        # materialize BEFORE deleting the stale files — the read is lazy
        old_affected = old.map_batches(
            keep_affected_done, batch_format="pyarrow").materialize()
        merged = with_pid.union(old_affected)
        # stale-partition delete + rewrite under ONE fence hold: a
        # second writer observing the gap would resurrect deleted rows
        from .fence import WriteFence
        from contextlib import nullcontext

        lp = hashed_dir.local()
        with (WriteFence(lp) if lp is not None else nullcontext()):
            for pid in affected:
                hashed_dir.join(f"part-{pid:05d}.parquet").uncommit()
            return checkpointed_write(merged, hashed_dir, num_partitions,
                                      stage="incremental_hash", fence=False)
    return checkpointed_write(merged, hashed_dir, num_partitions,
                              stage="incremental_hash")


def prune_checkpoint(
    out_dir: str,
    pages: "ray.data.Dataset",
    url_col: str = "url",
) -> pd.DataFrame:
    """Remove checkpoint rows whose url is absent from ``pages`` (the
    current listing) — the liveness half of the reference's prune flow
    (``files/prune.go:122,175-204``: DB rows for files that no longer
    exist are deleted; the dup-row half is the keep-first operator).

    Only partitions that actually contain dead rows are rewritten
    (atomic tmp→rename, like every checkpoint write); untouched
    partitions keep their file.  Returns a metrics frame with one row
    per rewritten partition (rows_in = before, rows_out = surviving).
    """
    from ..stages.buckets import uid_of_urls
    from ..stages.common import sorted_probe
    from ..stages.verify import _shared, uid_set_refs

    hashed_dir = as_state_path(out_dir).join("hashed")
    if not hashed_dir.isdir() or not done_partitions(hashed_dir):
        return pd.DataFrame()

    def to_uids(t: pa.Table) -> pa.Table:
        return pa.table({"uid": pa.array(uid_of_urls(t[url_col]), pa.int64())})

    live = pages.map_batches(to_uids, batch_format="pyarrow").materialize()
    # sorted live-uid set: built by one task, mapped zero-copy per worker
    (live_ref,) = uid_set_refs(live, [("uid",)])

    existing = read_checkpoint(hashed_dir)

    def flag_dead(t: pa.Table) -> pa.Table:
        _, alive = sorted_probe(_shared(live_ref), uid_of_urls(t[url_col]))
        return pa.table({
            "partition_id": t["partition_id"],
            "dead": pa.array(~alive, pa.bool_()),
        })

    # pass 1: which partitions contain dead rows (small driver pull)
    flags = existing.map_batches(flag_dead, batch_format="pyarrow")
    affected: set[int] = set()
    for b in flags.iter_batches(batch_size=65536, batch_format="pyarrow"):
        pid = np.asarray(b["partition_id"], np.int64)
        dead = np.asarray(b["dead"], bool)
        affected.update(pid[dead].tolist())
    if not affected:
        return pd.DataFrame()

    # pass 2: distributed rewrite of the affected partitions with the
    # surviving rows only (materialize BEFORE deleting stale files —
    # the read is lazy)
    affected_arr = np.array(sorted(affected), dtype=np.int64)
    num_partitions = max(done_partitions(hashed_dir)) + 1

    def keep_affected_live(t: pa.Table) -> pa.Table:
        pid = np.asarray(t["partition_id"], np.int64)
        _, alive = sorted_probe(_shared(live_ref), uid_of_urls(t[url_col]))
        return t.filter(pa.array(np.isin(pid, affected_arr) & alive))

    survivors = existing.map_batches(
        keep_affected_live, batch_format="pyarrow").materialize()
    # delete + rewrite under one fence hold (same rule as
    # incremental_hash): no second writer may see the gap
    from contextlib import nullcontext

    from .fence import WriteFence

    lp = hashed_dir.local()
    with (WriteFence(lp) if lp is not None else nullcontext()):
        for pid in affected_arr.tolist():
            hashed_dir.join(f"part-{pid:05d}.parquet").uncommit()
        return checkpointed_write(survivors, hashed_dir, num_partitions,
                                  stage="prune", url_col=url_col,
                                  fence=False)


def run_dedup_checkpointed(
    pages: "ray.data.Dataset",
    out_dir: str,
    cfg=None,
    num_partitions: int = 64,
    fail_after: int | None = None,
) -> "ray.data.Dataset":
    """Resumable flagship run.

    Stage A (expensive, per-row): extract + content-key → checkpointed
    per partition under ``{out_dir}/hashed``.  A re-run recomputes ONLY
    missing partitions (predicated re-run ≙ ``hash IS NULL``).

    Stage B (cheap, global): the cluster/keeper pipeline re-runs over
    the checkpointed rows — deterministic, so the final assignments are
    identical whether or not the run was interrupted — and lands
    per-partition under ``{out_dir}/assignments`` the same way.

    Metrics rows accumulate under ``{out_dir}/metrics``.
    """
    from ..config import PipelineConfig
    from ..pipelines.dedup import extract_pages, run_dedup
    from ..stages.exact import add_content_key

    cfg = cfg or PipelineConfig()
    root = as_state_path(out_dir)
    hashed_dir = root.join("hashed")
    assign_dir = root.join("assignments")
    metrics_dir = root.join("metrics")

    # ---- stage A: per-row extract+hash, checkpointed ----------------------
    hashed = add_content_key(extract_pages(pages, cfg))
    m1 = checkpointed_write(hashed, hashed_dir, num_partitions,
                            stage="extract_hash", fail_after=fail_after)

    # ---- stage B: global dedup over checkpointed rows ---------------------
    hashed_all = read_checkpoint(hashed_dir)
    # no html column → run_dedup skips its extract stage and dedups the
    # checkpointed (text, error) rows directly; the content key is
    # recomputed (cheap) so the column set matches the normal path
    assignments = run_dedup(
        hashed_all.map_batches(
            lambda t: t.drop_columns(
                [c for c in ("text_sha256", "key64", "n_bytes", "partition_id")
                 if c in t.column_names]),
            batch_format="pyarrow"),
        cfg)
    m2 = checkpointed_write(assignments, assign_dir, num_partitions,
                            stage="assignments")

    # ---- metrics ----------------------------------------------------------
    metrics_dir.makedirs()
    metrics = pd.concat([m1, m2], ignore_index=True)
    if len(metrics):
        metrics_dir.join(
            f"run-{int(max(os.getpid(), 1))}-{len(metrics)}.parquet"
        ).commit_table(pa.Table.from_pandas(metrics, preserve_index=False))
    return read_checkpoint(assign_dir)
