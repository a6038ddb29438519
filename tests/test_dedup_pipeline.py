"""End-to-end dedup pipeline conformance (SURVEY.md §5 transplant):
recall vs planted truth, keeper determinism, same-hash-different-size
split, sentinel exclusion."""

import numpy as np
import pytest
import ray.data as rd

from deduplicator_go_ray.config import KeeperPolicy, PipelineConfig
from deduplicator_go_ray.pipelines.dedup import run_dedup
from deduplicator_go_ray.sources.corpus import generate_pages

N_ROWS = 600


@pytest.fixture(scope="module")
def corpus():
    return generate_pages(N_ROWS, seed=42)


@pytest.fixture(scope="module")
def result(corpus):
    pages_tbl, truth = corpus
    out = run_dedup(rd.from_arrow(pages_tbl)).to_pandas()
    return out, truth.to_pandas()


def test_row_conservation(result):
    out, _ = result
    assert len(out) == N_ROWS
    assert out.url.nunique() == N_ROWS


def test_recall_on_planted_truth(result):
    out, tdf = result
    cl = dict(zip(out.url, out.cluster_id))
    den = tdf[tdf.relation.isin(["exact", "near_high", "substring"])]
    rec = sum(1 for _, r in den.iterrows() if cl[r.url_a] == cl[r.url_b])
    assert rec / len(den) >= 0.99


def test_same_size_different_content_split(result):
    """≙ same-hash-different-size guard (duplicates_scenarios_test.go:60-100)."""
    out, tdf = result
    cl = dict(zip(out.url, out.cluster_id))
    guard = tdf[tdf.relation == "nondup_size_guard"]
    assert len(guard) == 4
    for _, r in guard.iterrows():
        assert cl[r.url_a] != cl[r.url_b]


def test_error_rows_in_band(result):
    """Sentinel rows flow through as self-clusters (files/hash.go:245-264)."""
    out, _ = result
    errs = out[out.match_kind == "error"]
    assert len(errs) >= 1
    assert (errs.action == "keep").all()
    assert (errs.is_keeper).all()


def test_keeper_is_cluster_minimum(result):
    """Keeper = min(url) per cluster — pure function of group content
    (files/move.go:226-236)."""
    out, _ = result
    mins = out.groupby("cluster_id").url.min()
    assert (out.keeper_url == out.cluster_id.map(mins)).all()
    keepers = out[out.is_keeper]
    assert (keepers.url == keepers.keeper_url).all()


def test_actions_consistent(result):
    out, _ = result
    assert set(out.action) <= {"keep", "drop"}
    # exactly one keeper per cluster under the deterministic policy
    per = out.groupby("cluster_id").is_keeper.sum()
    assert (per == 1).all()


def test_partition_count_invariance(corpus):
    """Same assignments at different parallelism/partitioning
    (the N-vs-4N determinism invariant, BASELINE.md §3)."""
    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    a = run_dedup(rd.from_arrow(small)).to_pandas()
    b = run_dedup(rd.from_arrow(small).repartition(7)).to_pandas()
    a = a.sort_values("url").reset_index(drop=True)
    b = b.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action"]:
        assert (a[col] == b[col]).all(), col


def test_keeper_policies_pure():
    """site_popularity / priority_limits policies on a hand-made group."""
    import pandas as pd

    from deduplicator_go_ray.stages.keeper import select_keepers

    g = pd.DataFrame({
        "url": [
            "https://a.example/1", "https://a.example/2",
            "https://b.example/1",
        ]
    })
    det = select_keepers(g.sample(frac=1, random_state=3), KeeperPolicy())
    assert det[det.is_keeper].url.iloc[0] == "https://a.example/1"

    pop = select_keepers(g, KeeperPolicy(policy="site_popularity"))
    assert pop[pop.is_keeper].url.iloc[0] == "https://a.example/1"  # a.example has 2

    pri = select_keepers(
        g,
        KeeperPolicy(policy="priority_limits", min_copies=2,
                     site_priority={"b.example": 0, "a.example": 1}),
    )
    kept = set(pri[pri.action == "keep"].url)
    assert kept == {"https://b.example/1", "https://a.example/1"}


def test_pipeline_with_alternate_keeper_policies(corpus):
    """Policies D2/D4 through the FULL pipeline (not just the unit
    helper): cluster membership identical to the default run; only
    keeper/action assignments differ by policy."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()

    pop = run_dedup(
        rd.from_arrow(small),
        PipelineConfig(keeper=KeeperPolicy(policy="site_popularity")),
    ).to_pandas()
    pri = run_dedup(
        rd.from_arrow(small),
        PipelineConfig(keeper=KeeperPolicy(policy="priority_limits",
                                           min_copies=2)),
    ).to_pandas()

    for other in (pop, pri):
        a = base.sort_values("url").reset_index(drop=True)
        b = other.sort_values("url").reset_index(drop=True)
        # same clustering regardless of keeper policy
        assert (a["cluster_id"] == b["cluster_id"]).all()
        # exactly one keeper per cluster for site_popularity;
        # priority_limits keeps up to min_copies members
    assert (pop.groupby("cluster_id")["is_keeper"].sum() == 1).all()
    kept = pri[pri["action"] == "keep"].groupby("cluster_id").size()
    sizes = pri.groupby("cluster_id").size()
    assert (kept <= np.maximum(2, 1)).all() or (kept <= sizes[kept.index]).all()
    multi = sizes[sizes >= 2].index
    assert (kept[multi] == 2).all(), "min_copies=2 keeps two members"


def test_presalted_hot_band_path_same_assignments(corpus):
    """The at-scale branch (hot-band pre-count + salting, taken when
    band rows exceed presalt_min_band_rows) must produce the same
    assignments as the fused default path."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    forced = run_dedup(
        rd.from_arrow(small),
        PipelineConfig(presalt_min_band_rows=1),   # force the presalt branch
    ).to_pandas()
    a = base.sort_values("url").reset_index(drop=True)
    b = forced.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action"]:
        assert (a[col] == b[col]).all(), col


def _force_uid128(monkeypatch, force: bool = True) -> list:
    """Lower ``UID128_MIN_REPS`` to 0 (with ``force``), so every
    run_dedup job mints 128-bit uids; returns the list the jobs'
    resolved widths are appended to."""
    from deduplicator_go_ray.pipelines import dedup
    from deduplicator_go_ray.stages import buckets

    widths, real = [], dedup.uid_bits_for

    def spy(n_reps):
        widths.append(real(n_reps))
        return widths[-1]

    if force:
        monkeypatch.setattr(buckets, "UID128_MIN_REPS", 0)
    monkeypatch.setattr(dedup, "uid_bits_for", spy)
    return widths


def _force_two_attach(monkeypatch, containment: bool = True) -> list:
    """Lower the near round-2 cap (and the containment one) to 0, so
    every pair of that kind takes the two-attach check; returns the
    list the checks that run append to."""
    from deduplicator_go_ray.stages import verify

    ran, real = [], verify._two_attach_check

    def spy(*args, **kwargs):
        ran.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_two_attach_check", spy)
    monkeypatch.setattr(verify, "NEAR_ROUND2_MAX_BYTES", 0)
    if containment:
        monkeypatch.setattr(verify, "CONTAINMENT_ROUND2_MAX_PAIRS", 0)
    return ran


def test_flood_verify_partitioned_same_assignments(corpus, monkeypatch):
    """VERDICT r1 #1: the size-aware verification fallback.  With both
    round-2 caps at 0 every candidate of both kinds is checked through
    the two keyed attach exchanges instead of an endpoint index;
    assignments must be byte-identical to the default plan's."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    ran = _force_two_attach(monkeypatch)
    flood = run_dedup(rd.from_arrow(small)).to_pandas()
    assert len(ran) == 2
    a = base.sort_values("url").reset_index(drop=True)
    b = flood.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_flood_verify_low_threshold_same_assignments(corpus, monkeypatch):
    """At verify_threshold=0.5 the candidate reducer's all-slot
    fingerprint bound still prunes (a pair with more than 64 differing
    fingerprint bits cannot reach 64 of 128 equal slots), but far less
    than at 0.8, so most candidates reach the two-attach check's exact
    predicate.  Assignments must equal the endpoint index plan's."""
    import ray.data as rd

    from deduplicator_go_ray.config import MinHashConfig

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    mh = MinHashConfig(verify_threshold=0.5)
    base = run_dedup(rd.from_arrow(small), PipelineConfig(minhash=mh)).to_pandas()
    ran = _force_two_attach(monkeypatch)
    flood = run_dedup(rd.from_arrow(small), PipelineConfig(minhash=mh)).to_pandas()
    assert len(ran) == 2
    a = base.sort_values("url").reset_index(drop=True)
    b = flood.sort_values("url").reset_index(drop=True)
    assert (a["match_kind"] == "near").sum() > 0
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_near_pairs_checked_once_across_candidate_partitions(corpus,
                                                            tmp_path,
                                                            monkeypatch):
    """The candidate reducer dedupes near pairs within its partition
    only, so at 4 candidate partitions some pairs reach the near verify
    more than once.  The index check gathers the kind's pairs in one
    task and keeps one row per (u, v): the exact check sees each
    distinct pair once, as many as at 1 partition, and the assignments
    equal the 1-partition run's."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from deduplicator_go_ray.stages import verify
    from deduplicator_go_ray.stages.buckets import KIND_ANCHOR
    from deduplicator_go_ray.stages.common import block_refs_of

    real_verify, real_check = verify._verify, verify._check_block
    log = str(tmp_path / "checked")
    seen = {}

    def spy_verify(pairs, source, spec, num_partitions):
        if KIND_ANCHOR not in spec.kinds:
            seen["pairs"] = pairs
        return real_verify(pairs, source, spec, num_partitions)

    def spy_check(batch, spec, index):
        if KIND_ANCHOR not in spec.kinds:
            with open(log, "a") as f:
                f.write(f"{len(verify._pick(batch, spec.kinds))}\n")
        return real_check(batch, spec, index)

    monkeypatch.setattr(verify, "_verify", spy_verify)
    monkeypatch.setattr(verify, "_check_block", spy_check)
    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    runs = {}
    for parts in (1, 4):
        open(log, "w").close()
        out = run_dedup(rd.from_arrow(small),
                        PipelineConfig(bucket_partitions=parts)).to_pandas()
        near = pa.concat_tables(
            ray.get(block_refs_of(seen["pairs"]))).to_pandas()
        near = near[near["kind"] != KIND_ANCHOR]
        checked = sum(int(x) for x in open(log).read().split())
        runs[parts] = (out.sort_values("url").reset_index(drop=True),
                       len(near), len(near.drop_duplicates(["u", "v"])),
                       checked)
    (one, rows1, pairs1, checked1), (four, rows4, pairs4, checked4) = (
        runs[1], runs[4])
    assert rows1 == pairs1 and rows4 > pairs4       # copies at 4 partitions
    assert checked1 == pairs1 == pairs4 == checked4 > 0
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (one[col] == four[col]).all(), col


def test_cc_tiers_same_assignments(corpus):
    """The two component-resolution tiers (one-task kernel by default,
    distributed star loop at onetask_cc_max_edges=0) must be
    assignment-identical through the full pipeline."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    dist = run_dedup(
        rd.from_arrow(small),
        PipelineConfig(onetask_cc_max_edges=0),
    ).to_pandas()
    a = base.sort_values("url").reset_index(drop=True)
    b = dist.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper",
                "action", "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_cc_distributed_tier_uid128_same_assignments(corpus, monkeypatch):
    """The distributed star loop on 16-byte uids: its pandas reducers
    see Python bytes, and their output must come back as the exchange's
    ``binary(16)`` uids, assignment-identical to the int64 default."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    widths = _force_uid128(monkeypatch)
    dist = run_dedup(
        rd.from_arrow(small),
        PipelineConfig(onetask_cc_max_edges=0),
    ).to_pandas()
    assert widths == [128]
    a = base.sort_values("url").reset_index(drop=True)
    b = dist.sort_values("url").reset_index(drop=True)
    assert (a["match_kind"] == "near").any()
    for col in ["url", "cluster_id", "keeper_url", "is_keeper",
                "action", "match_kind"]:
        assert (a[col] == b[col]).all(), col


@pytest.mark.parametrize("uid_bits", [64, 128])
def test_texts_through_shuffle_same_assignments(corpus, uid_bits, monkeypatch):
    """VERDICT r1 #2: above broadcast_max_reps the rep texts ride the
    exact packed shuffle instead of a broadcast uid semi-filter, and the
    component roots attach through the keyed left outer join — no
    O(n_reps) structure anywhere.  Same assignments either way, at
    both uid widths."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    widths = _force_uid128(monkeypatch, uid_bits == 128)
    big = run_dedup(
        rd.from_arrow(small),
        # force the shuffle path
        PipelineConfig(broadcast_max_reps=0),
    ).to_pandas()
    assert widths == [uid_bits]
    a = base.sort_values("url").reset_index(drop=True)
    b = big.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def _executions(job) -> tuple[int, int, int]:
    """(Ray Data executions, streaming executors, block-ref wraps) that
    ``job()`` starts: executions counted from the ``ray.data`` logger's
    "Starting execution of Dataset" records (the way dedupbench counts
    them), executors from calls of ``ExecutionPlan.create_executor``,
    wraps from calls of ``ray.data.from_arrow_refs``."""
    import logging

    from ray.data._internal.plan import ExecutionPlan

    seen, executors, wraps = [], [], []

    class Count(logging.Handler):
        def emit(self, record):
            if str(record.msg).startswith("Starting execution of Dataset"):
                seen.append(record)

    def create_executor(plan):
        executors.append(plan)
        return real_create(plan)

    def from_arrow_refs(*a, **kw):
        wraps.append(a)
        return real_wrap(*a, **kw)

    handler, logger = Count(logging.INFO), logging.getLogger("ray.data")
    real_create, real_wrap = ExecutionPlan.create_executor, rd.from_arrow_refs
    logger.addHandler(handler)
    ExecutionPlan.create_executor = create_executor
    rd.from_arrow_refs = from_arrow_refs
    try:
        job()
    finally:
        ExecutionPlan.create_executor = real_create
        rd.from_arrow_refs = real_wrap
        logger.removeHandler(handler)
    return len(seen), len(executors), len(wraps)


# block-ref wraps per job: the stages pass Blocks, so Ray Data wraps
# refs only for the signature map's input and for the result
_WRAPS = {"default": 2, "sig_store_rerun": 1, "no_duplicates": 2,
          "all_error": 1}


@pytest.mark.parametrize("plan,executions", [
    ("default", 3), ("sig_store_rerun", 2), ("no_duplicates", 3),
    ("all_error", 2)])
def test_ray_data_runs_only_the_edges(corpus, tmp_path, plan, executions):
    """One ``run_dedup(...).write_parquet(...)`` job starts Ray Data
    executions only at its edges: read → extract → content key, the
    signature map (none on a store re-run: the store's range tasks are
    plain tasks) and the caller's write.  Every stage between them is
    plain tasks over block refs passed as ``Blocks``: block refs are
    wrapped as a Dataset only for the signature map's input and for the
    result, and no walk of a wrap starts a streaming executor of its
    own: executors equal executions.  ``no_duplicates`` gives every
    page its own random text, so the candidate, verify and keeper
    stages come out empty; ``all_error`` fails every page's
    extraction, so no exact group forms.  The result's blocks are
    packed to Ray Data's target block size, so the write makes one
    parquet file on every plan (each extra block would cost a metadata
    task, a write task and a file)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pages_tbl, _ = corpus
    if plan == "no_duplicates":
        rng = np.random.default_rng(11)
        html = ["<html><body><p>" + " ".join(
            f"w{x}" for x in rng.integers(0, 1 << 40, 120)) + "</p></body></html>"
            for _ in range(N_ROWS)]
        pages_tbl = pages_tbl.set_column(
            pages_tbl.schema.get_field_index("html"), "html",
            pa.array([h.encode() for h in html], pa.binary()))
    if plan == "all_error":
        pages_tbl = pages_tbl.set_column(
            pages_tbl.schema.get_field_index("html"), "html",
            pa.array([None] * N_ROWS, pa.binary()))
    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(pages_tbl.drop_columns(["text"]), pages / "p.parquet")
    cfg = PipelineConfig()
    if plan == "sig_store_rerun":
        cfg = PipelineConfig(sig_store_dir=str(tmp_path / "store"))
    if plan == "sig_store_rerun":
        run_dedup(rd.read_parquet(str(pages)), cfg).write_parquet(
            str(tmp_path / "fill"))
    out = tmp_path / "out"
    got, executors, wraps = _executions(
        lambda: run_dedup(rd.read_parquet(str(pages)), cfg)
        .write_parquet(str(out)))
    written = rd.read_parquet(str(out)).to_pandas()
    assert len(written) == N_ROWS
    if plan == "no_duplicates":
        assert written["is_keeper"].all()
    if plan == "all_error":
        assert (written["match_kind"] == "error").all()
    assert got == executions
    assert executors == executions
    assert wraps == _WRAPS[plan]
    assert len(list(out.glob("*.parquet"))) == 1


def test_result_blocks_packed_to_the_target(corpus, result, monkeypatch):
    """``run_dedup`` packs its result blocks, in order, into bins of at
    most Ray Data's target block size, one concat task per bin of two
    or more.  With the target lowered to 32 KiB the result has several
    blocks, each at most the target unless it is one upstream block
    passed through, and the assignments equal the default target's.
    The lowered target also changes the extracted blocks and the
    exchanges' partition counts, so the equality is also one across
    block layouts."""
    from deduplicator_go_ray.pipelines import dedup
    from deduplicator_go_ray.stages.common import nonempty_blocks

    packed, concat = [], dedup._concat_blocks

    class Spy:
        @staticmethod
        def remote(*refs):
            packed.append(concat.remote(*refs))
            return packed[-1]

    monkeypatch.setattr(dedup, "_concat_blocks", Spy)
    target = 32 << 10
    ctx = rd.DataContext.get_current()
    default, ctx.target_max_block_size = ctx.target_max_block_size, target
    try:
        ds = run_dedup(rd.from_arrow(corpus[0]))
    finally:
        ctx.target_max_block_size = default
    blocks = list(nonempty_blocks(ds))
    assert len(blocks) >= 2 and packed
    for ref, meta in blocks:
        assert meta.size_bytes <= target or ref not in packed
    got = ds.to_pandas().sort_values("url").reset_index(drop=True)
    want = result[0].sort_values("url").reset_index(drop=True)
    assert got.equals(want)


def test_keyed_enrichment_completes_on_one_cpu():
    """The keyed root enrichment (``broadcast_max_reps=0``) once ran on
    Ray's ``Dataset.join``, whose shuffle actors starved the map tasks
    of a one-CPU session: the job never finished.  In a fresh
    ``num_cpus=1`` subprocess it must finish well inside the timeout
    and equal the default plan's assignments.  A hung job is stopped
    by an alarm inside the subprocess, so its Ray session still shuts
    down."""
    import os
    import subprocess
    import sys

    script = r"""
import signal, sys
sys.path.insert(0, %r)
import ray, ray.data as rd

def stop(*_):
    raise TimeoutError("the keyed enrichment did not finish")

signal.signal(signal.SIGALRM, stop)
signal.alarm(150)
ray.init(address="local", num_cpus=1, include_dashboard=False)
try:
    from deduplicator_go_ray.config import PipelineConfig
    from deduplicator_go_ray.pipelines.dedup import run_dedup
    from deduplicator_go_ray.sources.corpus import generate_pages

    pages, _ = generate_pages(1000, seed=7)
    cols = ["url", "cluster_id", "keeper_url", "is_keeper", "action",
            "match_kind"]
    base = run_dedup(rd.from_arrow(pages)).to_pandas()
    keyed = run_dedup(rd.from_arrow(pages),
                      PipelineConfig(broadcast_max_reps=0)).to_pandas()
    a = base[cols].sort_values("url").reset_index(drop=True)
    b = keyed[cols].sort_values("url").reset_index(drop=True)
    print("RESULT", len(a) == 1000 and a.equals(b))
finally:
    ray.shutdown()
""" % (os.path.dirname(os.path.dirname(os.path.abspath(__file__))),)
    env = dict(os.environ, RAY_ADDRESS="local")
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("RESULT")]
    assert lines and lines[0].split()[1] == "True", p.stdout[-2000:]


def test_page_uid_column_same_assignments(corpus):
    """Pages may carry extra columns, a ``uid`` (a common name for a
    document id) among them: the pipeline keys documents by their url
    hash whatever the input calls its own columns, so the assignments
    equal those of the same pages without it, near duplicates
    included.  The internal doc-id column name is refused on input."""
    import pyarrow as pa
    import ray.data as rd

    from deduplicator_go_ray.stages.buckets import DOC_UID

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    ids = pa.array(np.arange(len(small), dtype=np.int64)[::-1])
    tagged = run_dedup(
        rd.from_arrow(small.append_column("uid", ids))).to_pandas()
    a = base.sort_values("url").reset_index(drop=True)
    b = tagged.sort_values("url").reset_index(drop=True)
    assert (a["match_kind"] == "near").any()
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col
    with pytest.raises(ValueError, match=DOC_UID):
        run_dedup(rd.from_arrow(small.append_column(DOC_UID, ids)))


def test_uid128_same_assignments(corpus, monkeypatch):
    """VERDICT r1 #10: the 16-byte uids must produce the same
    clusters/keepers as the int64 ones (cluster ids are content-derived,
    never internal uid labels, so the widths agree bit-for-bit)."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    widths = _force_uid128(monkeypatch)
    wide = run_dedup(rd.from_arrow(small)).to_pandas()
    assert widths == [128]
    a = base.sort_values("url").reset_index(drop=True)
    b = wide.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_uid_width_auto_switch_straddles_boundary(corpus, monkeypatch):
    """VERDICT r3 #1: the uid width self-selects from the rep count at
    plan time (``uid_bits_for``: 64 below ``UID128_MIN_REPS``, 128 at or
    above it).  The same corpus run with the boundary pushed below its
    rep count must pick 128, with it far above must pick 64, and both
    must produce assignments byte-identical to the default run."""
    import ray.data as rd

    from deduplicator_go_ray.stages import buckets

    # sanity on the resolver itself
    n = buckets.UID128_MIN_REPS
    assert buckets.uid_bits_for(n - 1) == 64
    assert buckets.uid_bits_for(n) == 128

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    widths = _force_uid128(monkeypatch, force=False)
    got = []
    for min_reps in (10, 10**9):
        monkeypatch.setattr(buckets, "UID128_MIN_REPS", min_reps)
        got.append(run_dedup(rd.from_arrow(small)).to_pandas())
    assert widths == [128, 64]
    a = base.sort_values("url").reset_index(drop=True)
    for out in got:
        b = out.sort_values("url").reset_index(drop=True)
        for col in ["url", "cluster_id", "keeper_url", "is_keeper",
                    "action", "match_kind"]:
            assert (a[col] == b[col]).all(), col


def test_uid_width_primitives():
    import pyarrow as pa

    from deduplicator_go_ray.stages.buckets import uid_arrow, uid_np, uid_of_urls

    urls = [f"https://e{i}.com/{i}" for i in range(100)]
    u64 = uid_of_urls(urls, 64)
    u128 = uid_of_urls(urls, 128)
    assert u64.dtype == np.int64 and len(set(u64.tolist())) == 100
    assert u128.dtype == np.dtype("S16") and u128.nbytes == 16 * 100
    assert len(np.unique(u128)) == 100
    # arrow round-trip preserves full 16-byte values (incl. NUL tails)
    arr = uid_arrow(u128)
    assert arr.type == pa.binary(16)
    assert all(len(b) == 16 for b in arr.to_pylist())
    back = uid_np(arr)
    assert back.tobytes() == u128.tobytes()
    # determinism
    assert (uid_of_urls(urls, 128) == u128).all()


def test_sig_store_same_assignments(corpus, tmp_path):
    """cfg.sig_store_dir must be invisible in the output: the cold run
    (store empty, everything computed) and the warm run (every content
    key re-used from the store, zero kernel rows) both produce the
    baseline's byte-identical assignments."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    store = str(tmp_path / "sigstore")
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    cold = run_dedup(rd.from_arrow(small),
                     PipelineConfig(sig_store_dir=store)).to_pandas()
    warm = run_dedup(rd.from_arrow(small),
                     PipelineConfig(sig_store_dir=store)).to_pandas()
    a = base.sort_values("url").reset_index(drop=True)
    for got in (cold, warm):
        b = got.sort_values("url").reset_index(drop=True)
        for col in ["url", "cluster_id", "keeper_url", "is_keeper",
                    "action", "match_kind"]:
            assert (a[col] == b[col]).all(), col


def test_uid128_with_sig_store_same_assignments(corpus, tmp_path,
                                                monkeypatch):
    """Mechanism combination: the content-keyed signature store is
    uid-width-independent — a warm 128-bit-uid run (every signature
    re-used from a store written by a 128-bit cold run) matches the
    default-mode baseline byte-for-byte."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    store = str(tmp_path / "sigstore128")
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    widths = _force_uid128(monkeypatch)
    cfg = PipelineConfig(sig_store_dir=store)
    run_dedup(rd.from_arrow(small), cfg).to_pandas()          # cold
    warm = run_dedup(rd.from_arrow(small), cfg).to_pandas()   # warm
    assert widths == [128, 128]
    a = base.sort_values("url").reset_index(drop=True)
    b = warm.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_empty_and_all_error_corpus(ray_session):
    # the empty-corpus early exit previously referenced an undefined
    # _finish (NameError) — pin both degenerate paths end to end
    import pyarrow as pa

    from deduplicator_go_ray.sources.corpus import generate_pages

    pages_tbl, _ = generate_pages(40, seed=7)
    pages_tbl = pages_tbl.slice(0, 4)
    empty = pages_tbl.slice(0, 0)
    ds = run_dedup(rd.from_arrow(empty))
    assert ds.count() == 0
    # assert on the Dataset schema: Ray's to_pandas drops columns on a
    # fully-empty dataset
    names = set(ds.schema().names)
    assert names >= {"url", "cluster_id", "keeper_url",
                     "action", "match_kind", "partition_id"}

    # all-error corpus: html=None rows fail extraction -> error band
    bad = pages_tbl.set_column(
        pages_tbl.schema.get_field_index("html"), "html",
        pa.array([None] * 4, pa.binary()))
    out2 = run_dedup(rd.from_arrow(bad)).to_pandas()
    assert len(out2) == 4
    assert (out2["match_kind"] == "error").all()
    assert (out2["action"] == "keep").all()


def test_pluggable_extractor_slot(corpus, tmp_path):
    """VERDICT r3 #5: a user extractor rides the extract stage via
    cfg.extractor=(name, factory) without touching pipeline code.  A
    factory wrapping the deterministic kernel reproduces the baseline
    byte-for-byte; a genuinely different extractor visibly changes the
    flagship's grouping input (proof the slot is live), and the
    factory runs on the WORKERS (once per process), not the driver."""
    import ray.data as rd

    from deduplicator_go_ray.config import PipelineConfig as PC
    from deduplicator_go_ray.functions.text import extract_text
    from deduplicator_go_ray.state.checkpoint import run_dedup_checkpointed

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 120)
    base = run_dedup(rd.from_arrow(small)).to_pandas()

    driver_calls = []

    def wrapping_factory():
        driver_calls.append(1)   # never appended on the DRIVER process
        return extract_text

    same = run_dedup(
        rd.from_arrow(small),
        PC(extractor=("wrapped-deterministic", wrapping_factory)),
    ).to_pandas()
    assert not driver_calls   # factory ran in workers only
    a = base.sort_values("url").reset_index(drop=True)
    b = same.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col

    # a constant-text extractor collapses every ok row into one exact
    # cluster — only possible if the custom callable actually ran
    def constant_factory():
        return lambda html: ("the same extracted text for every page", None)

    allsame = run_dedup(
        rd.from_arrow(small), PC(extractor=("constant", constant_factory)),
    ).to_pandas()
    ok = allsame[allsame["match_kind"] != "error"]
    assert ok["cluster_id"].nunique() == 1

    # the checkpointed run's extract stage takes the same slot
    ckpt = run_dedup_checkpointed(
        rd.from_arrow(small), str(tmp_path / "ckpt"),
        PC(extractor=("constant", constant_factory)), num_partitions=4,
    ).to_pandas()
    okc = ckpt[ckpt["match_kind"] != "error"]
    assert len(okc) and okc["cluster_id"].nunique() == 1

    # config validation fails loudly on a malformed slot
    import pytest as _pytest
    with _pytest.raises(ValueError, match="extractor"):
        PC(extractor=("missing-factory",))


def test_flood_verify_with_uid128_same_assignments(corpus, monkeypatch):
    """Mechanism combination: the two keyed attach exchanges with
    16-byte uids — endpoint arrays are numpy ``S16`` arrays there — must
    still match the baseline byte-for-byte."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    ran = _force_two_attach(monkeypatch)
    widths = _force_uid128(monkeypatch)
    flood128 = run_dedup(rd.from_arrow(small)).to_pandas()
    assert len(ran) == 2 and widths == [128]
    a = base.sort_values("url").reset_index(drop=True)
    b = flood128.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_mixed_verify_routing_same_assignments(corpus, monkeypatch):
    """Per-kind verify routing: with only the near round-2 cap at 0 the
    near pairs take the two-attach check while the containment pairs
    (2 anchor pairs on this fixture) keep their endpoint index —
    assignments must match the baseline byte-for-byte (both kinds on
    the two-attach check stay covered by
    test_flood_verify_partitioned_same_assignments)."""
    import ray.data as rd

    pages_tbl, _ = corpus
    small = pages_tbl.slice(0, 250)
    base = run_dedup(rd.from_arrow(small)).to_pandas()
    ran = _force_two_attach(monkeypatch, containment=False)
    mixed = run_dedup(rd.from_arrow(small)).to_pandas()
    assert len(ran) == 1
    a = base.sort_values("url").reset_index(drop=True)
    b = mixed.sort_values("url").reset_index(drop=True)
    for col in ["url", "cluster_id", "keeper_url", "is_keeper", "action",
                "match_kind"]:
        assert (a[col] == b[col]).all(), col


def test_pathological_page_times_out_in_band(corpus):
    """The extraction watchdog is ON BY DEFAULT (config
    extract_timeout_s=60 ≙ files/files.go:33; VERDICT r4 wrong #4): a
    planted page whose extraction hangs becomes a TIMEOUT_ERROR
    sentinel self-cluster instead of stalling its worker.  The rest of
    the corpus dedups normally."""
    import time

    import pyarrow as pa

    assert PipelineConfig().extract_timeout_s == 60.0

    pages_tbl, _ = corpus
    marker = pa.table({
        "url": ["https://pathological.example/hang"],
        "warc_ts": pages_tbl["warc_ts"][:1],
        "html": [b"<html>HANG-MARKER</html>"],
        "lang": ["en"],
    })
    sub = pa.concat_tables(
        [pages_tbl.select(marker.column_names).slice(0, 60), marker])

    def hang_factory():
        from deduplicator_go_ray.functions.text import extract_text

        def fn(html):
            if b"HANG-MARKER" in html:
                time.sleep(30)
            return extract_text(html)
        return fn

    cfg = PipelineConfig(extractor=("hang-test", hang_factory),
                         extract_timeout_s=0.5)
    t0 = time.monotonic()
    out = run_dedup(rd.from_arrow(sub), cfg).to_pandas()
    assert time.monotonic() - t0 < 25          # did not wait out the hang
    row = out[out.url == "https://pathological.example/hang"]
    assert len(row) == 1
    assert (row.match_kind == "error").all()   # in-band sentinel row
    assert (row.action == "keep").all()
    assert len(out) == 61                      # every row accounted for
