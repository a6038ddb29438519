"""Layer spans for the traced job, recorded from outside the engine.

``Tracer.install`` wraps the engine's public layer functions wherever a
module of the package binds them (``pipelines.dedup`` binds some at
import time and imports others inside ``run_dedup``, so the defining
module is patched too).  A wrapped call that returns a Dataset is
materialized inside its span, so the span covers the layer's execution
and not only its plan construction.  ``Dataset.materialize`` is wrapped
as well: every engine barrier becomes an ``exec`` span labelled with the
operator names of the dataset it runs.  A target that no longer exists
(a later change deleted that plan) is skipped with a note.

Spans live in memory; ``layer_metrics`` turns them into the per-layer
metrics after the job.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PKG = "deduplicator_go_ray"
# modules that define or bind the wrapped functions
MODULES = ("pipelines.dedup", "stages.common", "stages.exact", "stages.buckets",
           "stages.cluster", "state.sigstore")
# (span name, function name, materialize the returned Dataset)
TARGETS = (
    ("run_dedup", "run_dedup", False),
    ("exact.content_key", "add_content_key", True),
    ("exact.groups", "assign_exact_groups", True),
    ("candidates", "candidate_edges_fused", True),
    ("verify", "verify_near_edges", True),
    ("verify", "verify_containment_edges", True),
    ("verify", "verify_near_edges_partitioned", True),
    ("verify", "verify_containment_edges_partitioned", True),
    ("sigstore", "incremental_signatures", True),
    ("cluster", "cc_label_arrays", False),
    ("exchange", "grouped_apply", True),
)
# operator names of the executions that run the signature kernels: the
# plain map and the store's hit/miss map
SIGNATURE_OPS = ("_signature", "MapBatches(fused)")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    attrs: dict = field(default_factory=dict)
    end: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def ops_label(ds) -> str:
    """Operator names of a lazy Dataset, sink first, from its repr: the
    first line and each ``+- `` child line, minus materialized inputs."""
    lines = repr(ds).splitlines()
    ops = lines[:1] + [ln.strip()[3:] for ln in lines[1:]
                       if ln.strip().startswith("+- ")]
    return " <- ".join(op for op in ops
                       if not op.startswith(("Dataset(", "MaterializedDataset(")))[:400]


class ExecutionCounter(logging.Handler):
    """Counts Dataset executions from Ray Data's executor log."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.count = 0
        self._lock = threading.Lock()

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("Starting execution of Dataset"):
            with self._lock:
                self.count += 1

    @contextmanager
    def installed(self):
        logger = logging.getLogger("ray.data")
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a thread the engine starts inherits the installing
            # thread's open span as its parent
            stack = self._local.stack = list(self._root_stack[-1:])
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(name, time.perf_counter(), stack[-1] if stack else None, attrs)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    # ---- patching -----------------------------------------------------------
    def install(self) -> None:
        import ray.data
        from ray.data.dataset import MaterializedDataset

        self._local.stack = self._root_stack
        for name in MODULES:
            try:
                importlib.import_module(f"{PKG}.{name}")
            except ImportError:
                self.notes.append(f"module {name} missing: not traced")
        mods = [m for n, m in sorted(dict(sys.modules).items())
                if n == PKG or n.startswith(PKG + ".")]
        for span_name, fn_name, materialize in TARGETS:
            originals = {getattr(m, fn_name) for m in mods
                         if callable(getattr(m, fn_name, None))
                         and getattr(getattr(m, fn_name), "__module__", "").startswith(PKG)}
            if not originals:
                self.notes.append(f"{fn_name} not found: span {span_name} skipped")
                continue
            for orig in originals:
                wrapped = self._wrap(span_name, orig, materialize)
                for m in mods:
                    if getattr(m, fn_name, None) is orig:
                        self._patch(m, fn_name, wrapped)

        orig_mat = ray.data.Dataset.materialize
        self._orig_materialize = orig_mat
        tracer = self

        def materialize(ds):
            if isinstance(ds, MaterializedDataset):
                # no execution; the one-task components tier hands its
                # (url, root) table over this way
                schema = ds.schema()
                if schema is not None and list(schema.names) == ["url", "root"]:
                    with tracer.span("cluster") as sp:
                        tracer._count_outputs(ds, sp)
                return orig_mat(ds)
            with tracer.span("exec", ops=ops_label(ds)) as sp:
                out = orig_mat(ds)
                tracer._count_outputs(out, sp)
            return out

        self._patch(ray.data.Dataset, "materialize", materialize)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _wrap(self, span_name: str, fn, materialize: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            with tracer.span(span_name, fn=fn.__name__, caller=caller) as sp:
                out = fn(*args, **kwargs)
                if materialize:
                    out = tracer._materialize_result(out, sp)
                else:
                    tracer._describe_result(out, sp)
            return out

        return wrapper

    def _materialize_result(self, out, sp: Span):
        import ray
        import ray.data

        rest = None
        if isinstance(out, tuple) and out and isinstance(out[0], ray.data.Dataset):
            out, rest = out[0], out[1:]
            if rest and isinstance(rest[0], int):
                sp.attrs["computed"] = rest[0]
        if isinstance(out, ray.data.Dataset):
            sp.attrs["ops"] = ops_label(out)
            out = self._orig_materialize(out)
            self._count_outputs(out, sp)
        return out if rest is None else (out, *rest)

    @staticmethod
    def _count_outputs(out, sp: Span) -> None:
        """Row count of a materialized dataset, plus the representatives
        of the exact groups and the components of a (url, root) component
        table; block refs are read without a new execution."""
        import ray

        sp.attrs["rows"] = out.count()
        schema = out.schema()
        names = list(schema.names) if schema is not None else []
        if sp.name == "exact.groups" and "is_rep" in names:
            import pyarrow.compute as pc

            sp.attrs["reps"] = sum(int(pc.sum(t["is_rep"]).as_py() or 0)
                                   for t in ray.get(out.to_arrow_refs()) if len(t))
        elif names == ["url", "root"]:
            import numpy as np

            roots = [np.asarray(t["root"]) for t in ray.get(out.to_arrow_refs())
                     if len(t)]
            sp.attrs["components"] = (
                int(np.unique(np.concatenate(roots)).size) if roots else 0)

    @staticmethod
    def _describe_result(out, sp: Span) -> None:
        import numpy as np

        if (isinstance(out, tuple) and len(out) == 2
                and all(isinstance(a, np.ndarray) for a in out)):
            sp.attrs["components"] = int(np.unique(out[1]).size)


# ---- span arithmetic --------------------------------------------------------
def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready records, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "start_s": round(s.start - t0, 4),
             "dur_s": round(s.dur, 4), "parent": s.parent,
             **{k: (v[:120] if isinstance(v, str) else v) for k, v in s.attrs.items()}}
            for s in spans]


def _union_len(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.dur - _union_len(kids.get(i, ())) for i, sp in enumerate(spans)]


def _components_phase(spans: list[Span]) -> float:
    """From the end of the last verify span to the start of the finalize
    execution: the components phase of every tier, including the
    one-task tier, whose kernel runs inside a Ray task no span reaches."""
    verify_end = max((s.end for s in spans if s.name == "verify"), default=None)
    if verify_end is None:
        return 0.0
    finalize = [s.start for s in spans if s.name == "exec"
                and "finalize" in s.attrs.get("ops", "") and s.start >= verify_end]
    return min(finalize) - verify_end if finalize else 0.0


def layer_metrics(spans: list[Span], n_pages: int) -> dict[str, float]:
    """Per-layer times and counts of one traced job."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    reps = attr_sum("exact.groups", "reps")
    store = named("sigstore")
    computed = attr_sum("sigstore", "computed") if store else reps
    cand_rows = attr_sum("candidates", "rows")
    exchanges = [(i, s) for i, s in enumerate(spans) if s.name == "exchange"]
    keeper = [s for _, s in exchanges if s.attrs.get("caller") == "run_dedup"]
    sig_exec = [s for s in named("exec")
                if any(p in s.attrs.get("ops", "") for p in SIGNATURE_OPS)]
    dedup = [(i, s) for i, s in enumerate(spans) if s.name == "run_dedup"]
    return {
        "exact.content_key_s": total("exact.content_key"),
        "exact.groups_s": total("exact.groups"),
        "exact.reps_per_page": reps / n_pages if n_pages else 0.0,
        "signatures.s": sum(s.dur for s in sig_exec),
        "signatures.computed_frac": computed / reps if reps else 0.0,
        "candidates.s": total("candidates"),
        "candidates.per_rep": cand_rows / reps if reps else 0.0,
        "verify.s": _union_len((s.start, s.end) for s in named("verify")),
        "verify.yield": (attr_sum("verify", "rows") / cand_rows
                         if cand_rows else 0.0),
        "cluster.s": _components_phase(spans),
        "cluster.components": float(max((s.attrs.get("components", 0) for s in spans),
                                        default=0)),
        "keeper.s": sum(s.dur for s in keeper) + total("sink"),
        "keeper.dup_rows": float(sum(s.attrs.get("rows", 0) for s in keeper)),
        "exchange.count": float(len(exchanges)),
        "exchange.rows": float(sum(s.attrs.get("rows", 0) for _, s in exchanges)),
        "exchange.self_s": sum(selfs[i] for i, _ in exchanges),
        "sigstore.s": float(total("sigstore")),
        "sigstore.hit_frac": 1.0 - computed / reps if store and reps else 0.0,
        "dedup.self_s": sum(selfs[i] for i, _ in dedup),
    }
