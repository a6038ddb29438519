"""Single-core host stamp: integer ALU rate and memory-copy bandwidth.

Printed beside every result so a reader can tell a slow host phase from
a slow change.  It is information only and never normalizes a metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ALU_WORDS = 1 << 15        # 256 KiB of int64: stays in the L2 cache
MEM_BYTES = 64 << 20       # per buffer: far beyond the last-level cache
REPEATS = 7


def _alu_gops() -> float:
    x = np.arange(ALU_WORDS, dtype=np.int64)
    passes = 512
    rates = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        for _ in range(passes):
            np.multiply(x, 3, out=x)
            np.add(x, 1, out=x)
            np.bitwise_xor(x, 0x5DEECE66D, out=x)
        rates.append(3 * passes * ALU_WORDS / (time.perf_counter() - t))
    return statistics.median(rates) / 1e9


def _mem_gbps() -> float:
    src = np.ones(MEM_BYTES // 8, dtype=np.float64)
    dst = np.empty_like(src)
    rates = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * MEM_BYTES / (time.perf_counter() - t))
    return statistics.median(rates) / 1e9


def probe() -> dict[str, float]:
    return {"alu_gops": round(_alu_gops(), 4), "mem_copy_gbps": round(_mem_gbps(), 4)}
