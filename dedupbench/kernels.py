"""In-process kernel rates, without Ray: the per-row work of the extract
and signature layers and the component-labelling kernel, measured on one
core so kernel speed is separated from scheduling."""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BATCH_ROWS = 128           # PipelineConfig.signature_batch_size
REPEATS = 3
CC_NODES = 50_000
CC_EDGES = 100_000


def _batches(table: pa.Table):
    return [table.slice(i, BATCH_ROWS) for i in range(0, len(table), BATCH_ROWS)]


def _median_rate(fn, n_items: int) -> float:
    rates = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        rates.append(n_items / (time.perf_counter() - t))
    return statistics.median(rates)


def extract_rate(pages: pa.Table) -> tuple[float, int, pa.Table]:
    """(pages/s, error rows, extracted ok rows as url+text)."""
    from deduplicator_go_ray.stages.extract import ExtractStage

    stage = ExtractStage()
    batches = _batches(pages)
    rate = _median_rate(lambda: [stage(b) for b in batches], len(pages))
    out = pa.concat_tables(stage(b) for b in batches)
    errors = int(pc.sum(pc.is_valid(out["error"])).as_py() or 0)
    ok = out.filter(pc.is_null(out["error"])).select(["url", "text"])
    return rate, errors, ok


def signature_rate(docs: pa.Table) -> float:
    from deduplicator_go_ray.stages.signatures import SignatureStage

    stage = SignatureStage()
    batches = _batches(docs)
    return _median_rate(lambda: [stage(b) for b in batches], len(docs))


def cc_rate(seed: int) -> float:
    """Edges/s of ``cc_label_arrays`` on a seeded graph of small
    components, the shape of a verified near-dup edge set."""
    from deduplicator_go_ray.stages.cluster import cc_label_arrays

    rng = np.random.default_rng(seed)
    u = rng.integers(0, CC_NODES, CC_EDGES, dtype=np.int64)
    v = np.minimum(u + rng.integers(1, 4, CC_EDGES), CC_NODES - 1)
    ids = rng.permutation(CC_NODES).astype(np.int64) * 7919 + 1
    return _median_rate(lambda: cc_label_arrays(ids[u], ids[v]), CC_EDGES)
