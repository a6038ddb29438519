"""The engine's one stage contract, and its exchange.

Every stage takes and returns :class:`Blocks`: refs of non-empty Arrow
blocks in the object store with the row count, byte size and schema
their producing tasks reported.  A stage handed a Dataset converts it
once (:func:`as_blocks`); a Dataset is built back from Blocks only
where Ray Data must run (:func:`dataset_of`), so the stages themselves
are plain Ray tasks over block refs.

The exchange is :func:`grouped_apply`.  Ray's
``groupby(key).map_groups(fn)`` invokes ``fn`` once per key — at web
scale the dup-group key space has ~as many groups as rows, and a Python
call per group dominates wall time.  The engine's pattern instead:
route every row to partition ``hash(key) % P`` (each partition a
complete set of key-groups) and run a **vectorized partition-level
function** (Arrow sorts and numpy runs, :func:`sorted_runs`, or pandas)
once per partition.
Correctness only needs co-location of equal keys, which the hash
guarantees; determinism holds because every partition function is a
pure function of its rows (≙ the reference's coordination-free
invariant, files/move.go:226-236).  The exchange is one split task per
block and one reduce task per partition, with no sample/sort barriers
or shuffle actors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import hash64_str, mix64


def _key_hash(batch: pa.Table, keys: list[str], seed: int = 11) -> np.ndarray:
    acc = np.full(len(batch), np.uint64(seed), dtype=np.uint64)
    for k in keys:
        col = batch[k]
        if (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
                or pa.types.is_binary(col.type)
                or pa.types.is_large_binary(col.type)
                or pa.types.is_fixed_size_binary(col.type)):
            h = hash64_str(col, seed=seed)
        else:
            h = mix64(np.asarray(col.cast(pa.int64())).view(np.uint64))
        acc = mix64(acc * np.uint64(0x9E3779B97F4A7C15) + h)
    return acc


@ray.remote
def _split_block(block, keys: list[str], n_parts: int, pre_fn):
    """Map side of the exchange: one input block → ``n_parts`` Arrow
    slices, slice ``p`` holding the rows whose key hash is ``p`` mod
    ``n_parts``."""
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    if pre_fn is not None:
        tbl = pre_fn(tbl)
    if n_parts == 1:
        return tbl
    return slice_parts(
        tbl, (_key_hash(tbl, keys) % np.uint64(n_parts)).astype(np.int64),
        n_parts)


def slice_parts(tbl: pa.Table, part: np.ndarray, n_parts: int) -> tuple:
    """``n_parts`` Arrow slices of ``tbl``, slice ``p`` holding the rows
    whose ``part`` is ``p`` (in their input order)."""
    order = np.argsort(part, kind="stable")
    # combine first: take() with a shuffled index over a MANY-chunk
    # table degrades ~1000x on wide binary columns (per-element chunk
    # binary search); upstream unions deliver dozens of chunks a block
    tbl = tbl.combine_chunks().take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    return tuple(tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
                 for p in range(n_parts))


@ray.remote(num_returns=2)
def _reduce_partition(partition_fn, arrow_fn: bool, fill: bool, schema,
                      *slices):
    """Reduce side: concatenate one partition's slices and run
    ``partition_fn`` on them.  Returns the table with its stats
    (:func:`with_stats`), or :data:`NO_ROWS` when the partition
    received no rows (``partition_fn`` is never called on an empty
    partition).  A pandas result is cast to ``schema`` when one is
    given: pandas infers variable binary for bytes, so a 16-byte uid
    column comes back as ``binary(16)``.

    ``fill`` (a list of inputs): a column that only the partition's
    zero-row slices carry — an input that sent it no rows — is added
    as typed nulls."""
    tables = [t for t in slices if t.num_rows]
    if not tables:
        return NO_ROWS
    # unioned inputs may disagree on column ORDER: unify by name
    full = pa.concat_tables(tables, promote_options="default")
    if fill:
        for t in slices:
            for f in t.schema:
                if f.name not in full.column_names:
                    full = full.append_column(f, pa.nulls(len(full), f.type))
    out = partition_fn(full if arrow_fn else full.to_pandas())
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
        if schema is not None and not out.schema.equals(schema):
            out = out.cast(schema)
    # strip the pandas schema-metadata dict: Ray hashes schemas for
    # dedup and a dict payload defeats it
    return with_stats(out.replace_schema_metadata(None))


def sized_partitions(input_bytes: int) -> int:
    """Enough partitions to keep every CPU busy (two per CPU) and every
    partition near Ray Data's target block size.  Results never depend
    on it."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    target = ray.data.DataContext.get_current().target_max_block_size
    by_size = -(-input_bytes // target) if target else 1
    return max(1, 2 * cpus, by_size)


def _exchange_partitions(num_partitions: int, input_bytes: int) -> int:
    """Reduce-task count: :func:`sized_partitions` (``input_bytes`` are
    measured BEFORE any ``pre_fn``), never more than the caller's
    ``num_partitions``."""
    return max(1, min(num_partitions, sized_partitions(input_bytes)))


def grouped_apply(
    ds: "Blocks | ray.data.Dataset | list",
    keys: list[str],
    partition_fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_partitions: int = 64,
    empty_result: pa.Table | None = None,
    arrow_fn: bool = False,
    pre_fn: "Callable[[pa.Table], pa.Table] | list | None" = None,
) -> Blocks:
    """Hash-partition `ds` on `keys`, then run `partition_fn` once per
    partition over a pandas frame (an Arrow table with ``arrow_fn``)
    containing only complete key-groups.

    `partition_fn` must be pure and must not depend on row order
    beyond what it itself sorts — results are then independent of the
    partition count (N-vs-4N determinism).

    The exchange is plain Ray tasks over block refs (a Dataset input is
    converted once, :func:`as_blocks`).  One split task per input block
    applies ``pre_fn``, hashes ``keys`` and returns one Arrow slice per
    partition; one reduce task per partition concatenates its slices
    and runs ``partition_fn``.  No block data reaches the driver, only
    each partition's stats, which the call awaits: the exchange has run
    when it returns, and the result is the :class:`Blocks` of the
    non-empty partitions.  Their schema is that of `partition_fn`'s
    output, zero-row outputs included, else ``empty_result``'s.  When
    a reduce fails, every other partition task is awaited before the
    error is re-raised, so none is still running (or writing) when the
    caller sees it.

    ``empty_result``: a ZERO-ROW Arrow table with `partition_fn`'s
    output schema; a pandas partition result is cast to its schema.

    ``arrow_fn=True``: `partition_fn` receives the concatenated
    partition as a **pyarrow Table** and must return one — skipping
    the ``to_pandas`` round trip and pandas' fixed cost per call, which
    dominate small partitions: a 1,000-page job's pandas reducers took
    13 (exact), 71 (candidates) and 19 ms (keepers) on one CPU, their
    Arrow twins 1.4, 23 and 6 ms (``tools/reducer_ab.py``).  Every
    exchange of ``run_dedup``'s default plan passes it, as do the
    import gates and ``keys_over``.

    ``ds`` may be a LIST of inputs (a union exchange — e.g. the two
    sides of :func:`~.joins.hash_join`); their columns are unified by
    name inside each partition, and a partition that received no rows
    of an input still carries that input's columns, as typed nulls (an
    input with no rows at all carries none).  ``pre_fn`` may then be a
    list too, one function (or None) per input."""
    multi = isinstance(ds, (list, tuple))
    inputs = [as_blocks(d) for d in (ds if multi else [ds])]
    pre_fns = (list(pre_fn) if isinstance(pre_fn, (list, tuple))
               else [pre_fn] * len(inputs))
    pre_refs = {id(f): ray.put(f) for f in pre_fns if f is not None}
    blocks = [(ref, pre_refs.get(id(f)))
              for b, f in zip(inputs, pre_fns) for ref in b.refs]
    n_parts = _exchange_partitions(
        num_partitions, sum(sum(b.sizes) for b in inputs))
    split = _split_block.options(num_returns=n_parts)
    slices = [split.remote(b, keys, n_parts, f) for b, f in blocks]
    if n_parts == 1:
        slices = [[s] for s in slices]
    fn_ref = ray.put(partition_fn)
    schema = None if empty_result is None else empty_result.schema
    outs = [_reduce_partition.remote(fn_ref, arrow_fn, multi, schema,
                                     *[s[p] for s in slices])
            for p in range(n_parts if blocks else 0)]
    return blocks_of(outs, get_all([st for _, st in outs]), schema)


def get_all(refs: list) -> list:
    """``ray.get(refs)``, except that when one task failed every other
    one is awaited before the error is re-raised, so none is still
    running (or writing) when the caller sees it."""
    try:
        return ray.get(refs)
    except Exception:
        ray.wait(refs, num_returns=len(refs))
        raise


@dataclass(frozen=True)
class Blocks:
    """The value every stage takes and returns: refs of non-empty Arrow
    blocks in the object store, with the row count and byte size of
    each as the task that produced it reported them
    (:func:`with_stats`).  ``schema`` is the blocks' schema as a task
    reported it, zero-row outputs included, or as the caller of an
    exchange gave it (``empty_result``) or a Dataset's metadata gave it
    (:func:`as_blocks`); None when nothing produced a block.  Passing
    Blocks costs no Ray Data work: a stage reads its input's sizes and
    counts from here, and ships the refs to its tasks as top-level
    arguments."""

    refs: tuple = ()
    rows: tuple = ()
    sizes: tuple = ()
    schema: "pa.Schema | None" = None

    @property
    def num_rows(self) -> int:
        return sum(self.rows)

    def __add__(self, other: "Blocks") -> "Blocks":
        """Both inputs' blocks, in order (a union of one schema)."""
        return Blocks(self.refs + other.refs, self.rows + other.rows,
                      self.sizes + other.sizes,
                      self.schema if self.schema is not None else other.schema)

    def to_arrow(self) -> pa.Table:
        """The rows as one table on the driver; with no block, zero
        rows of ``schema`` (no columns when it is unknown)."""
        from ray.data.block import BlockAccessor

        if not self.refs:
            return (self.schema or pa.schema([])).empty_table()
        return pa.concat_tables(
            [BlockAccessor.for_block(b).to_arrow()
             for b in ray.get(list(self.refs))], promote_options="default")

    def to_pandas(self) -> pd.DataFrame:
        return self.to_arrow().to_pandas()


# a task's output when it received no rows: no block, and no schema to
# report
NO_ROWS = (pa.table({}), (0, 0, None))


def with_stats(t: pa.Table) -> tuple:
    """``(t, (rows, bytes, schema))``: a task's output block and the
    small stats value its stage awaits (:func:`gather`).  The bytes are
    Arrow's ``nbytes``, the size Ray Data's block metadata reports."""
    return t, (t.num_rows, t.nbytes, t.schema)


def blocks_of(outs, stats, schema=None) -> Blocks:
    """The :class:`Blocks` of ``(block ref, stats ref)`` pairs given their
    awaited ``stats``: the non-empty blocks, in input order, typed by
    the first non-empty block, else by the first zero-row block a task
    produced, else by ``schema``."""
    kept = [(b, n, size) for (b, _), (n, size, _) in zip(outs, stats) if n]
    typed = ([s for n, _, s in stats if n]
             or [s for _, _, s in stats if s is not None] or [schema])
    return Blocks(tuple(b for b, _, _ in kept), tuple(n for _, n, _ in kept),
                  tuple(size for _, _, size in kept), typed[0])


def gather(outs) -> Blocks:
    """Await the stats of ``(block ref, stats ref)`` pairs (tasks whose
    function returns :func:`with_stats`); the non-empty blocks as
    :class:`Blocks`, in input order."""
    return gather_all(outs)[0]


def gather_all(*parts) -> tuple:
    """:func:`gather` of several lists of pairs in one driver round
    trip: one :class:`Blocks` per list."""
    parts = [list(p) for p in parts]
    stats = iter(get_all([st for p in parts for _, st in p]))
    return tuple(blocks_of(p, [next(stats) for _ in p]) for p in parts)


def as_blocks(ds: "Blocks | ray.data.Dataset") -> Blocks:
    """A stage input as :class:`Blocks`: as is, or a Dataset's non-empty
    blocks with the row counts, sizes and schema of its block metadata,
    from one walk of its bundles (a Dataset not yet executed executes
    there) — the engine's one way from a Dataset to block refs.
    Zero-row blocks are skipped: Ray forwards them untouched, often
    without a schema, so one must never reach a task that reads
    columns."""
    if isinstance(ds, Blocks):
        return ds
    bundles = list(ds.iter_internal_ref_bundles())
    kept = [(ref, meta) for b in bundles for ref, meta in b.blocks
            if meta.num_rows]
    # a bundle of rows types the blocks before a zero-row one does
    schemas = ([b.schema for b in bundles
                if any(meta.num_rows for _, meta in b.blocks)]
               + [b.schema for b in bundles])
    return Blocks(tuple(r for r, _ in kept), tuple(m.num_rows for _, m in kept),
                  tuple(m.size_bytes or 0 for _, m in kept),
                  next((s for s in schemas if isinstance(s, pa.Schema)), None))


def dataset_of(blocks: Blocks) -> "ray.data.MaterializedDataset":
    """``blocks`` as an executed Dataset, typed by their schema when
    they hold no block: the one way back from :class:`Blocks`, used
    only where Ray Data must run — a map over them, a caller's write,
    the registry's edge.  ``from_arrow_refs`` runs one metadata task
    per block and waits for them, and every Dataset Ray Data constructs
    asks its stats actor for an id: the wrap and its snapshot cost 7-9
    ms for 3 blocks on one CPU.  The wrapper is not executed: each walk
    of its bundles would start a Ray Data streaming executor, ~13 ms of
    fixed time on one CPU.  ``materialize()`` on it starts none (the
    blocks are already in the object store) and returns a snapshot
    that every walk reads directly."""
    refs = list(blocks.refs) or [ray.put(blocks.to_arrow())]
    return ray.data.from_arrow_refs(refs).materialize()


@ray.remote
def _block_task(fn, block, *args):
    from ray.data.block import BlockAccessor

    return fn(BlockAccessor.for_block(block).to_arrow(), *args)


def map_blocks(refs: list, fn, *args, num_returns: int = 1) -> list:
    """One plain Ray task per block ref: ``fn(block, *args)``, the
    block as an Arrow table — a stage's per-block map.  ``args`` that
    are ObjectRefs arrive resolved (zero-copy from the object store),
    as top-level task arguments do; nothing is fetched inside the task.
    Submits and returns at once: the tasks' output refs (a list of
    ``num_returns``-tuples when ``num_returns > 1``).  A stage whose
    ``fn`` returns :func:`with_stats` (``num_returns=2``) awaits the
    small stats with :func:`gather` and hands on :class:`Blocks`."""
    task = _block_task.options(num_returns=num_returns)
    return [task.remote(fn, r, *args) for r in refs]


def bounded_cache_put(cache: dict, key, val, max_entries: int = 8):
    """FIFO-bounded worker-cache insert.  Broadcast-index caches hold
    zero-copy views that pin their backing plasma objects alive, so an
    unbounded cache leaks object-store memory across pipeline runs in a
    long session; insertion-order eviction keeps only the active run's
    indexes."""
    while len(cache) >= max_entries:
        cache.pop(next(iter(cache)))
    cache[key] = val
    return val


def list_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, d) numpy matrix from an Arrow ``list``/``fixed_size_list``
    numeric column via the FLAT child buffer — no ``to_pylist`` row
    boxing (VERDICT r3 #3: the per-row Python path boxed every float of
    an embedding block).  Falls back to the boxed path only for ragged
    rows (not a legal embedding column anyway)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 1), dtype=dtype)
    flat = np.asarray(col.flatten(), dtype=dtype)
    if pa.types.is_fixed_size_list(col.type):
        return flat.reshape(n, col.type.list_size)
    import pyarrow.compute as _pc

    lens = np.asarray(_pc.list_value_length(col))
    d = int(lens[0])
    if (lens == d).all() and flat.size == n * d:
        return flat.reshape(n, d)
    return np.array(col.to_pylist(), dtype=dtype)


def sorted_runs(t: pa.Table, keys: list[str], runs_of: list[str] | None = None):
    """``t`` stably sorted by ``keys`` (ascending), the start row of
    each run of rows equal on ``runs_of`` (default ``keys``; a prefix
    of them) and each row's run id — the Arrow reducers' group-by."""
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    same = np.zeros(t.num_rows, bool)
    same[1:] = True
    for k in runs_of or keys:
        same[1:] &= np.asarray(pc.equal(t[k][1:], t[k][:-1]).fill_null(False))
    return t, np.flatnonzero(~same), np.cumsum(~same) - 1


def sorted_probe(keys_sorted: np.ndarray, queries: np.ndarray):
    """(clamped positions, hit mask) of ``queries`` in a SORTED key
    array — the membership-probe idiom shared by the broadcast lookup
    paths (rep semi-filters, store hits, gate matches, payload joins).
    Empty key sets probe as all-miss."""
    if keys_sorted.size == 0 or queries.size == 0:
        return (np.zeros(queries.size, dtype=np.int64),
                np.zeros(queries.size, dtype=bool))
    pos = np.minimum(np.searchsorted(keys_sorted, queries),
                     keys_sorted.size - 1)
    return pos, keys_sorted[pos] == queries


def dedupe_rows(ds: "Blocks | ray.data.Dataset", keys: list[str],
                num_partitions: int = 64) -> Blocks:
    """Distinct rows by `keys` (one hash shuffle, vectorized dedupe)."""
    return grouped_apply(
        ds, keys, lambda df: df.drop_duplicates(keys), num_partitions
    )


def keys_over(ds: "Blocks | ray.data.Dataset", col: str, cap: int,
              pre_fn=None) -> np.ndarray:
    """Sorted int64 keys of ``col`` that occur more than ``cap`` times:
    one exchange whose split tasks ship per-block (key, count)
    partials (``value_counts`` — the map-side combine) and whose
    partitions sum them.  Only the (few) hot keys reach the driver.
    ``pre_fn`` builds the keyed rows from each block inside the split
    tasks."""

    def partial(t: pa.Table) -> pa.Table:
        if pre_fn is not None:
            t = pre_fn(t)
        vc = pc.value_counts(t[col])
        return pa.table({col: vc.field("values"), "n": vc.field("counts")})

    def over(t: pa.Table) -> pa.Table:
        s = t.group_by(col, use_threads=False).aggregate([("n", "sum")])
        return s.filter(pc.greater(s["n_sum"], cap)).select([col])

    hot = grouped_apply(ds, [col], over, arrow_fn=True, pre_fn=partial)
    parts = [np.asarray(t[col], np.int64) for t in ray.get(list(hot.refs))]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
