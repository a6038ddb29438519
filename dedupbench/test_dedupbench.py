"""Tests of the benchmark itself: the output checks reject corrupted
assignments, a tiny run of every workload passes its checks, and the
entry point refuses a checkout without the engine.

    python3 -m pytest dedupbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from dedupbench import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def planted():
    """A small corpus and a correct assignment table for it: planted
    duplicate pairs share a cluster, everything else is alone."""
    from deduplicator_go_ray.sources.corpus import generate_pages

    pages, truth = generate_pages(300, seed=5)
    urls = pages["url"].to_pylist()
    cluster = {u: u for u in urls}
    for a, b, rel in zip(truth["url_a"].to_pylist(), truth["url_b"].to_pylist(),
                         truth["relation"].to_pylist()):
        if rel in checks.RECALL_RELATIONS:
            root, old = cluster[a], cluster[b]
            for u, c in list(cluster.items()):
                if c == old:
                    cluster[u] = root
    assign = pa.table({"url": urls, "cluster_id": [cluster[u] for u in urls]})
    return urls, truth, assign


def test_correct_assignments_pass(planted):
    urls, truth, assign = planted
    res = checks.check_job(assign, urls, truth)
    assert res.ok, res.problems
    assert res.recall == 1.0 and res.false_merges == 0


def test_dropped_row_is_rejected(planted):
    urls, truth, assign = planted
    res = checks.check_job(assign.slice(1), urls, truth)
    assert not res.ok
    assert any("pages unassigned" in p for p in res.problems)


def test_duplicated_row_is_rejected(planted):
    urls, truth, assign = planted
    res = checks.check_job(pa.concat_tables([assign, assign.slice(0, 1)]), urls, truth)
    assert not res.ok
    assert any("more than once" in p for p in res.problems)


def test_merged_size_guard_pair_is_rejected(planted):
    urls, truth, assign = planted
    guard = truth.filter(pc.equal(truth["relation"], checks.GUARD_RELATION))
    a, b = guard["url_a"][0].as_py(), guard["url_b"][0].as_py()
    cid = assign["cluster_id"].to_pylist()
    cid[urls.index(b)] = cid[urls.index(a)]
    res = checks.check_job(assign.set_column(1, "cluster_id", pa.array(cid)), urls, truth)
    assert not res.ok and res.false_merges == 1


def test_split_clusters_fail_the_recall_floor(planted):
    urls, truth, _ = planted
    alone = pa.table({"url": urls, "cluster_id": urls})
    res = checks.check_job(alone, urls, truth)
    assert not res.ok and res.recall == 0.0


def test_digest_ignores_row_and_column_order(planted):
    _, _, assign = planted
    shuffled = assign.take(pa.array(range(len(assign) - 1, -1, -1)))
    assert checks.assignment_digest(shuffled.select(["cluster_id", "url"])) \
        == checks.assignment_digest(assign)
    changed = assign.set_column(1, "cluster_id",
                                pa.array(["x"] + assign["cluster_id"].to_pylist()[1:]))
    assert checks.assignment_digest(changed) != checks.assignment_digest(assign)


@pytest.mark.parametrize("workload", ["crawl", "crawl_flood", "recrawl"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(workload, trace, tmp_path):
    result = tmp_path / "result.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAFT_")}
    env["PYTHONPATH"] = ROOT
    subprocess.run(
        [sys.executable, "-m", "dedupbench.job", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--pages", "200",
         "--work-dir", str(tmp_path / "work"), "--result", str(result)],
        cwd=ROOT, env=env, check=True, timeout=300)
    saved = json.loads(result.read_text())
    res = saved["result"]
    assert saved["done"] and res["correct"], saved["info"]
    assert res["attempted"] >= 1 + trace and res["failed"] == 0
    spec = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(res["metrics"]) == declared
    if trace:
        layers = saved["info"]["layers"]
        assert layers["exchange.count"] >= 3
        if workload == "recrawl":
            assert 0 < layers["sigstore.hit_frac"] < 1
    else:
        assert res["metrics"]["pages_per_s"]["value"] > 0


def test_refuses_a_checkout_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(ROOT, "dedupbench"), tmp_path / "dedupbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "dedupbench/run.py", "--workload", "crawl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
