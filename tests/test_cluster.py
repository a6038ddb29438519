"""Cluster-merge conformance: both tiers of resolve_components (the
one-task min-label kernel and the distributed large-star/small-star
label propagation) must reproduce the reference dict union-find
(SURVEY.md §7.4 — the one-task kernel is the small-scale path, the
propagation the 10^12-doc plan)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from deduplicator_go_ray.stages.cluster import (
    cc_label_arrays, connected_components_driver, resolve_components)


def _edge_table(pairs, typ=pa.string()):
    return pa.table({"u": pa.array([p[0] for p in pairs], typ),
                     "v": pa.array([p[1] for p in pairs], typ)})


@pytest.fixture(scope="module")
def random_graph():
    rng = np.random.default_rng(7)
    pairs = []
    # several chains, rings, stars and isolated pairs over 400 nodes
    nodes = [f"n{i:03d}" for i in range(400)]
    for s in range(0, 100, 10):                      # chains
        pairs += [(nodes[i], nodes[i + 1]) for i in range(s, s + 9)]
    for s in range(100, 200, 20):                    # rings
        ring = nodes[s:s + 20]
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    for s in range(200, 300, 25):                    # stars
        pairs += [(nodes[s], nodes[s + k]) for k in range(1, 25)]
    extra = rng.integers(300, 400, size=(40, 2))     # random edges
    pairs += [(nodes[a], nodes[b]) for a, b in extra if a != b]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("force", ["onetask", "distributed"])
def test_driver_and_scaled_tiers_agree(random_graph, ray_session, force):
    expected = connected_components_driver(list(random_graph))

    ds = ray.data.from_arrow(_edge_table(random_graph)).repartition(7)
    # max_onetask_edges=0 forces the label-propagation loop
    out = resolve_components(
        ds, max_onetask_edges=0 if force == "distributed" else 10**9,
    ).to_pandas()
    # both tiers list every node, roots included
    assert dict(zip(out["url"], out["root"])) == expected


@pytest.mark.parametrize("force", ["onetask", "distributed"])
def test_scaled_tiers_int_keys(ray_session, force):
    pairs = [(1, 2), (2, 3), (10, 11), (30, 10)]
    ds = ray.data.from_arrow(_edge_table(pairs, pa.int64()))
    out = resolve_components(
        ds, max_onetask_edges=0 if force == "distributed" else 10**9,
    ).to_pandas()
    assert dict(zip(out["url"], out["root"])) == {
        1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 30: 10}


def test_cc_label_arrays_matches_dict_dsu(random_graph):
    """The vectorized min-label kernel (production hot path) must
    reproduce the reference dict DSU exactly — every node present,
    root = component minimum."""
    expected = connected_components_driver(list(random_graph))
    u = np.array([p[0] for p in random_graph], dtype=object)
    v = np.array([p[1] for p in random_graph], dtype=object)
    nodes, roots = cc_label_arrays(u, v)
    assert dict(zip(nodes.tolist(), roots.tolist())) == expected


def test_cc_label_arrays_random_int_graphs():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(2, 200))
        e = int(rng.integers(1, 400))
        u = rng.integers(-n, n, e).astype(np.int64)
        v = rng.integers(-n, n, e).astype(np.int64)
        expected = connected_components_driver(
            list(zip(u.tolist(), v.tolist())))
        nodes, roots = cc_label_arrays(u, v)
        assert dict(zip(nodes.tolist(), roots.tolist())) == expected, trial


def test_root_is_component_minimum(random_graph):
    mapping = connected_components_driver(list(random_graph))
    comp: dict[str, list[str]] = {}
    for n, r in mapping.items():
        comp.setdefault(r, []).append(n)
    for root, members in comp.items():
        assert root == min(members + [root])
