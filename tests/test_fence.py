"""Cross-job write fencing (state/fence.py ≙ lock/lock.go:65-114):
single writer per state directory, stale-lock reclaim, loud second
writer."""

import json
import os
import threading
import time

import pyarrow as pa
import pytest

from deduplicator_go_ray.state.fence import (FenceHeldError, WriteFence,
                                             lock_path)


def _plant_sentinel(d, *, pid, host=None, age=0.0):
    import socket

    os.makedirs(d, exist_ok=True)
    p = lock_path(d)
    with open(p, "w") as f:
        json.dump({"owner": "other:1", "pid": pid,
                   "host": host or socket.gethostname(),
                   "acquired_unix": time.time() - age}, f)
    if age:
        os.utime(p, (time.time() - age, time.time() - age))
    return p


def test_concurrent_writer_fenced(tmp_path):
    """A second writer on a live-held store fails loudly, naming the
    holder; after release it acquires cleanly."""
    d = str(tmp_path / "store")
    a = WriteFence(d).acquire()
    with pytest.raises(FenceHeldError, match="fenced by live writer"):
        WriteFence(d).acquire()
    a.release()
    b = WriteFence(d).acquire()   # no error once released
    b.release()
    assert not os.path.exists(lock_path(d))


def test_dead_same_host_pid_is_reclaimed_immediately(tmp_path):
    """Same-host crashed holder: pid-liveness probe reclaims with no
    staleness wait (≙ lock/lock.go cleanStaleLock)."""
    d = str(tmp_path / "store")
    # find a dead pid: fork-and-wait guarantees a recently-freed one
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    _plant_sentinel(d, pid=pid)
    f = WriteFence(d, stale_after=3600).acquire()   # no window wait
    f.release()


def test_stale_heartbeat_foreign_host_taken_over(tmp_path):
    """Foreign-host sentinel (pid probe meaningless) with a heartbeat
    older than the window is taken over; a FRESH foreign sentinel is
    respected."""
    d = str(tmp_path / "store")
    _plant_sentinel(d, pid=os.getpid(), host="some-other-host", age=10.0)
    f = WriteFence(d, stale_after=1.0).acquire()
    f.release()
    _plant_sentinel(d, pid=os.getpid(), host="some-other-host", age=0.0)
    with pytest.raises(FenceHeldError):
        WriteFence(d, stale_after=3600).acquire()


def test_wait_mode_blocks_until_release(tmp_path):
    d = str(tmp_path / "store")
    a = WriteFence(d, stale_after=3600).acquire()
    t = threading.Timer(0.5, a.release)
    t.start()
    t0 = time.monotonic()
    b = WriteFence(d, stale_after=3600).acquire(wait=True, timeout=30)
    assert time.monotonic() - t0 >= 0.4
    b.release()
    t.join()


def test_heartbeat_keeps_sentinel_fresh(tmp_path):
    """A healthy holder's heartbeat refreshes the sentinel mtime, so a
    short staleness window never lets a contender steal a live lock."""
    d = str(tmp_path / "store")
    a = WriteFence(d, stale_after=0.4).acquire()   # beat every 0.1s
    time.sleep(1.0)   # several windows pass; heartbeats keep it fresh
    with pytest.raises(FenceHeldError):
        WriteFence(d, stale_after=0.4).acquire()
    a.release()


def test_checkpointed_write_respects_fence(ray_session, tmp_path):
    """The checkpoint writer is fenced end-to-end: with a live foreign
    writer planted, checkpointed_write fails loudly and writes
    NOTHING; after the holder clears, the same call succeeds."""
    import ray.data

    from deduplicator_go_ray.state.checkpoint import (checkpointed_write,
                                                      read_checkpoint)

    d = str(tmp_path / "ckpt")
    ds = ray.data.from_arrow(pa.table({
        "url": [f"https://e{i}.com/" for i in range(20)],
        "error": pa.array([None] * 20, pa.string()),
        "v": list(range(20)),
    }))
    sentinel = _plant_sentinel(d, pid=1)   # pid 1: alive, not ours
    with pytest.raises(FenceHeldError):
        checkpointed_write(ds, d, num_partitions=4, stage="t")
    assert not [f for f in os.listdir(d) if f.endswith(".parquet")]
    os.remove(sentinel)
    m = checkpointed_write(ds, d, num_partitions=4, stage="t")
    assert int(m["rows_out"].sum()) == 20
    assert read_checkpoint(d).count() == 20
    assert not os.path.exists(lock_path(d))  # released


def test_sigstore_writer_respects_fence(ray_session, tmp_path):
    """incremental_signatures holds the store fence for the whole
    classify→compute→persist flow; a second writer is refused."""
    import hashlib

    import ray.data

    from deduplicator_go_ray.state.sigstore import incremental_signatures

    d = str(tmp_path / "sigs")
    texts = [f"doc text number {i} with some words" * 3 for i in range(8)]
    ds = ray.data.from_arrow(pa.table({
        "url": [f"https://e{i}.com/" for i in range(8)],
        "text": texts,
        "text_sha256": [hashlib.sha256(t.encode()).hexdigest()
                        for t in texts],
    }))
    sentinel = _plant_sentinel(d, pid=1)
    with pytest.raises(FenceHeldError):
        incremental_signatures(ds, d, compute_anchors=False)
    os.remove(sentinel)
    sigs, n = incremental_signatures(ds, d, compute_anchors=False)
    assert n == 8 and sigs.num_rows == 8
    assert not os.path.exists(lock_path(d))


def test_lock_sentinel_is_sibling_of_store(tmp_path):
    """The sentinel lives OUTSIDE the fenced directory (dot-prefixed
    sibling), so whole-directory swap rewrites (sigstore
    compact/prune) keep the fence held and parquet discovery never
    sees it (ADVICE r4 #2)."""
    d = str(tmp_path / "store")
    p = lock_path(d)
    assert os.path.dirname(p) == str(tmp_path)
    assert os.path.basename(p) == ".store.writer.lock"
    with WriteFence(d):
        assert os.path.exists(p)
        assert os.listdir(d) == []          # data dir stays clean
        # a directory swap (what compact/prune do) moves the DATA but
        # never the sentinel — the fence survives the rename window
        os.rename(d, d + ".old")
        os.rename(d + ".old", d)
        assert os.path.exists(p)


def test_live_same_host_pid_never_stale(tmp_path):
    """A live same-host holder keeps its fence no matter how old the
    sentinel mtime looks (GC pause / NFS hang must not get it stolen —
    ADVICE r4 #1)."""
    d = str(tmp_path / "store")
    _plant_sentinel(d, pid=os.getpid(), age=1000.0)
    with pytest.raises(FenceHeldError):
        WriteFence(d, stale_after=0.2).acquire()


def test_fence_skewed_clock_not_stolen(tmp_path):
    """A LIVE foreign-host writer whose mtimes are skewed far into the
    past (FS server clock behind the contender's) is NOT taken over:
    staleness needs the mtime to stop ADVANCING across two local
    observations, not an absolute age (VERDICT r4 wrong #2)."""
    d = str(tmp_path / "store")
    p = _plant_sentinel(d, pid=os.getpid(), host="other-host", age=100.0)
    stop = threading.Event()

    def skewed_heartbeat() -> None:
        # live writer whose FS timestamps land 100s in the past but
        # keep advancing — exactly what a skewed NFS server produces
        while not stop.wait(0.05):
            t = time.time() - 100.0
            try:
                os.utime(p, (t, t))
            except FileNotFoundError:
                return

    th = threading.Thread(target=skewed_heartbeat, daemon=True)
    th.start()
    try:
        with pytest.raises(FenceHeldError):
            WriteFence(d, stale_after=0.4).acquire()
        assert os.path.exists(p)   # the live holder kept its sentinel
    finally:
        stop.set()
        th.join()


def test_crashed_foreign_writer_still_reclaimed(tmp_path):
    """The two-observation rule still reclaims a genuinely crashed
    foreign writer: old mtime AND no advance across the confirm
    window."""
    d = str(tmp_path / "store")
    _plant_sentinel(d, pid=os.getpid(), host="other-host", age=100.0)
    f = WriteFence(d, stale_after=0.4).acquire()   # ~0.2s confirm wait
    f.release()
    assert not os.path.exists(lock_path(d))


def test_release_after_takeover_keeps_new_holders_sentinel(tmp_path):
    """A holder that lost its fence to a takeover must not delete the
    NEW holder's sentinel on release (ADVICE r4 #1: the unconditional
    unlink re-enabled exactly the concurrent-writer corruption the
    fence exists to prevent)."""
    d = str(tmp_path / "store")
    a = WriteFence(d, stale_after=3600).acquire()
    # simulate a takeover: a's sentinel renamed away, successor's in place
    os.rename(lock_path(d), lock_path(d) + ".stale.x")
    os.remove(lock_path(d) + ".stale.x")
    b = WriteFence(d, stale_after=3600).acquire()
    a.release()                      # must NOT unlink b's sentinel
    assert os.path.exists(lock_path(d))
    with pytest.raises(FenceHeldError):
        WriteFence(d, stale_after=3600).acquire()   # b still fences
    b.release()
    assert not os.path.exists(lock_path(d))
