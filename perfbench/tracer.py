"""In-memory span tracer installed from outside the program.

Every layer is timed at the boundary where a caller enters it: class
methods are wrapped on the class, free functions are replaced on the
module the caller looks them up in.  Nothing under ``src/`` knows the
tracer exists; :func:`instrument` installs the wrappers and returns a
callable that removes them again, so traced and untraced iterations can
alternate inside one run.

A span is ``[id, name, start, end, parent, op, attrs]``.  The parent is
the innermost open span of the calling thread; pool threads started by
``repro.parallel.threads.thread_map`` inherit the parent and operation of
the thread that called the map.  Recording takes no lock (``list.append``
and ``next()`` on ``itertools.count`` are atomic), so a process pool that
forks while a span is open cannot inherit a held lock.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class Tracer:
    """Span store plus the per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.op = None
        return stack

    def context(self) -> tuple:
        """The calling thread's ``(parent span id, op id)``."""
        stack = self._stack()
        return (stack[-1] if stack else None), self._local.op

    def adopt(self, parent, op) -> tuple:
        """Make this thread's spans children of ``parent`` in ``op``;
        returns the previous context for :meth:`restore`."""
        stack = self._stack()
        saved = (list(stack), self._local.op)
        stack[:] = [] if parent is None else [parent]
        self._local.op = op
        return saved

    def restore(self, saved: tuple) -> None:
        stack, op = saved
        self._stack()[:] = stack
        self._local.op = op

    def set_op(self, op) -> None:
        self._stack()
        self._local.op = op

    def open(self, name: str) -> list:
        stack = self._stack()
        rec = [next(self._ids), name, time.perf_counter(), None,
               stack[-1] if stack else None, self._local.op, None]
        self.spans.append(rec)
        stack.append(rec[ID])
        return rec

    def close(self, rec: list, attrs: dict | None) -> None:
        rec[END] = time.perf_counter()
        rec[ATTRS] = attrs
        stack = self._stack()
        if stack and stack[-1] == rec[ID]:
            stack.pop()


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)``
    adds counters.  A raised exception closes the span with
    ``{"error": 1}`` and propagates unchanged."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(rec, {"error": 1})
            raise
        tracer.close(rec, attrs(args, kwargs, result) if attrs else None)
        return result

    return traced


def _wrap_thread_map(tracer: Tracer, thread_map):
    """``thread_map`` whose pool threads inherit the caller's context."""

    @functools.wraps(thread_map)
    def traced_map(fn, items, **kwargs):
        parent, op = tracer.context()

        def in_context(item):
            saved = tracer.adopt(parent, op)
            try:
                return fn(item)
            finally:
                tracer.restore(saved)

        return thread_map(in_context, items, **kwargs)

    return traced_map


# -- span attributes ------------------------------------------------------


def _deflate_attrs(args, kwargs, out):
    return {"in": len(args[0]), "out": len(out), "raw": int(out[:1] == b"\x00")}


def _encode_attrs(args, kwargs, enc):
    payload = args[1]
    n = len(payload) if isinstance(payload, (bytes, bytearray)) else payload.nbytes
    return {"bytes": n}


def _put_attrs(args, kwargs, _):
    return {"bytes": int(args[1].nbytes)}


def _fetch_attrs(args, kwargs, sf):
    return {"bytes": len(sf.payload) if sf.payload is not None else 0}


def _kv_attrs(args, kwargs, _):
    return {"bytes": len(args[1]) + len(args[2])}


def _aco_attrs(args, kwargs, res):
    return {"iterations": res.iterations, "evaluations": res.evaluations,
            "value": res.value, "warm": res.history[0]}


def _prepare_attrs(args, kwargs, report):
    pp = report.extra.get("procpipe", {})
    return {"spooled": pp.get("spooled_bytes", 0),
            "arena_peak": pp.get("arena_peak_bytes", 0)}


def instrument(tracer: Tracer):
    """Install every layer wrapper; returns the uninstall callable."""
    from repro.core import pipeline
    from repro.core.pipeline import RAPIDS
    from repro.ec.codec import ErasureCodec
    from repro.healing.ledger import DurabilityLedger
    from repro.metadata.catalog import MetadataCatalog
    from repro.metadata.kvstore import KVStore
    from repro.optimize.aco import ACOSolver
    from repro.parallel import procpipe, threads
    from repro.refactor import kernels, transform
    from repro.refactor.refactorer import Refactorer
    from repro.service.frontend import ArchiveService
    from repro.storage.cluster import StorageCluster
    from repro.storage.system import StorageSystem
    import repro.transfer

    targets = [
        (RAPIDS, "prepare", "pipeline.prepare", _prepare_attrs),
        (RAPIDS, "restore", "pipeline.restore", None),
        (Refactorer, "refactor", "refactor.refactor", None),
        (Refactorer, "reconstruct", "refactor.reconstruct", None),
        (transform, "decompose", "refactor.decompose", None),
        (transform, "recompose", "refactor.recompose", None),
        (kernels, "quantise", "refactor.quantise", None),
        (kernels, "deflate", "refactor.deflate", _deflate_attrs),
        (kernels, "inflate", "refactor.inflate", None),
        (ErasureCodec, "encode_level", "ec.encode", _encode_attrs),
        (ErasureCodec, "decode_level", "ec.decode", None),
        (pipeline, "heuristic", "ft.solve", None),
        (pipeline, "optimized_strategy", "gather.optimized", None),
        (pipeline, "naive_strategy", "gather.naive", None),
        (ACOSolver, "solve", "gather.aco", _aco_attrs),
        (StorageSystem, "put", "storage.put", _put_attrs),
        (StorageCluster, "fetch", "storage.fetch", _fetch_attrs),
        (MetadataCatalog, "put_object", "metadata.catalog_put", None),
        (MetadataCatalog, "put_fragment", "metadata.catalog_put", None),
        (MetadataCatalog, "get_object", "metadata.catalog_get", None),
        (MetadataCatalog, "get_fragment", "metadata.catalog_get", None),
        (KVStore, "put", "metadata.kv_put", _kv_attrs),
        (DurabilityLedger, "record", "healing.ledger_record", None),
        (procpipe, "prepare_tiled", "procpipe.prepare_tiled", None),
        (procpipe, "decode_tiled", "procpipe.decode_tiled", None),
        (procpipe, "reconstruct_tiled", "procpipe.reconstruct_tiled", None),
        # procpipe imports phase_latency from the package at call time.
        (pipeline, "phase_latency", "transfer.phase_latency", None),
        (repro.transfer, "phase_latency", "transfer.phase_latency", None),
        (ArchiveService, "submit", "service.submit", None),
        (ArchiveService, "_run_one", "service.exec", None),
    ]
    saved = []
    for owner, attr, name, attrs in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, attrs))

    # Every module that bound thread_map by name gets the context-carrying
    # version, so spans opened on pool threads keep their parent.
    original_map = threads.thread_map
    traced_map = _wrap_thread_map(tracer, original_map)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, "thread_map", None) is original_map:
            saved.append((mod, "thread_map", original_map))
            setattr(mod, "thread_map", traced_map)

    # A service worker's spans of one request share its request id.
    traced_exec = ArchiveService._run_one

    @functools.wraps(traced_exec)
    def run_one_in_op(self, req):
        tracer.set_op(req.request_id)
        try:
            return traced_exec(self, req)
        finally:
            tracer.set_op(None)

    ArchiveService._run_one = run_one_in_op

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- analysis -------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span), so overlapping pool-thread children count once."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        kids = [
            (max(c[START], lo), min(c[END], hi))
            for c in children.get(s[ID], ())
            if c[END] > lo and c[START] < hi
        ]
        out[s[ID]] = (hi - lo) - _union(kids)
    return out


def wall_shares(spans: list[list], root_id: int) -> dict[str, float]:
    """Partition one root span's wall time over layer names.

    At every instant the time goes to the innermost open spans (those
    with no open child); concurrent innermost spans split it equally.
    The shares sum to the root's duration exactly.
    """
    by_id = {s[ID]: s for s in spans}
    members = []
    for s in spans:
        p = s
        while p is not None and p[ID] != root_id:
            p = by_id.get(p[PARENT])
        if p is not None:
            members.append(s)
    events = sorted(
        [(s[START], 1, s[ID]) for s in members]
        + [(s[END], 0, s[ID]) for s in members]
    )
    active: dict[int, int] = {}  # span id -> number of open children
    shares: dict[str, float] = {}
    prev = None
    for t, kind, sid in events:
        if prev is not None and t > prev and active:
            leaves = [i for i, n in active.items() if n == 0]
            names = {by_id[i][NAME] for i in leaves}
            for name in names:
                shares[name] = shares.get(name, 0.0) + (t - prev) / len(names)
        prev = t
        parent = by_id[sid][PARENT]
        if kind == 1:
            active[sid] = 0
            if parent in active:
                active[parent] += 1
        else:
            active.pop(sid, None)
            if parent in active:
                active[parent] -= 1
    return shares


# -- per-step reduction ---------------------------------------------------

_SUMMED_ATTRS = ("in", "out", "raw", "bytes", "error", "iterations", "evaluations")


def step_layers(spans: list[list]) -> dict:
    """Reduce one traced step's spans to per-layer busy/self/count sums.

    ``refactor.recompose`` spans under ``refactor.refactor`` are the
    error measurement and are renamed ``refactor.error_measure``.
    """
    spans = [s for s in spans if s[END] is not None]
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        if s[NAME] == "refactor.recompose":
            p = by_id.get(s[PARENT])
            while p is not None and not p[NAME].startswith("refactor.r"):
                p = by_id.get(p[PARENT])
            if p is not None and p[NAME] == "refactor.refactor":
                s[NAME] = "refactor.error_measure"
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    for s in spans:
        row = layers.setdefault(s[NAME], {"busy": 0.0, "self": 0.0, "calls": 0})
        row["busy"] += s[END] - s[START]
        row["self"] += selfs[s[ID]]
        row["calls"] += 1
        for key, value in (s[ATTRS] or {}).items():
            if key in _SUMMED_ATTRS:
                row[key] = row.get(key, 0) + value
    aco = [s[ATTRS] for s in spans if s[NAME] == "gather.aco"]
    prepares = [s[ATTRS] for s in spans if s[NAME] == "pipeline.prepare"]
    roots: dict[str, dict] = {}
    for s in spans:
        # An archive operation is a root pipeline span in op "<step>.<kind>".
        if s[PARENT] is None and s[NAME].startswith("pipeline.") and s[OP]:
            roots[s[OP].rsplit(".", 1)[-1]] = {
                "wall": s[END] - s[START], "shares": wall_shares(spans, s[ID]),
            }
    return {
        "layers": layers,
        "spans": len(spans),
        "roots": roots,
        "submit_s": [s[END] - s[START] for s in spans if s[NAME] == "service.submit"],
        "pipeline_s": [
            s[END] - s[START] for s in spans
            if s[NAME].startswith("pipeline.")
            and by_id.get(s[PARENT], (None, None))[NAME] == "service.exec"
        ],
        "aco_gain": [1.0 - a["value"] / a["warm"] for a in aco if a["warm"] > 0],
        "spooled": max((a.get("spooled", 0) for a in prepares), default=0),
        "arena_peak": max((a.get("arena_peak", 0) for a in prepares), default=0),
    }


def _med(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(layer_steps: list[dict], traced_steps, e2e: dict, e2e_traced: dict) -> dict:
    """The ``per_layer`` metrics of ``BENCHMARK.json``: medians over traced
    steps of per-step sums; 0 for a layer the workload never enters."""

    def col(name, key="busy"):
        return _med(st["layers"].get(name, {}).get(key, 0) for st in layer_steps)

    def ratio(name, num, den):
        vals = []
        for st in layer_steps:
            row = st["layers"].get(name, {})
            if row.get(den, 0):
                vals.append(row.get(num, 0) / row[den])
        return _med(vals)

    MiB = float(2**20)
    counters = [s.counters for s in traced_steps]
    samples = {k: [x for s in traced_steps for x in s.samples.get(k, ())]
               for k in ("queue_wait", "exec")}
    values = {
        "refactor.refactor_s": (col("refactor.refactor"), "s"),
        "refactor.decompose_s": (col("refactor.decompose"), "s"),
        "refactor.quantise_s": (col("refactor.quantise"), "s"),
        "refactor.deflate_s": (col("refactor.deflate"), "s"),
        "refactor.deflate_calls": (col("refactor.deflate", "calls"), "count"),
        "refactor.deflate_raw_frac": (ratio("refactor.deflate", "raw", "calls"), "frac"),
        "refactor.deflate_ratio": (ratio("refactor.deflate", "in", "out"), "ratio"),
        "refactor.error_measure_s": (col("refactor.error_measure"), "s"),
        "refactor.reconstruct_s": (col("refactor.reconstruct"), "s"),
        "refactor.inflate_s": (col("refactor.inflate"), "s"),
        "ec.encode_s": (col("ec.encode"), "s"),
        "ec.encode_mib": (col("ec.encode", "bytes") / MiB, "MiB"),
        "ec.decode_s": (col("ec.decode"), "s"),
        "ec.decode_calls": (col("ec.decode", "calls"), "count"),
        "ft.solve_s": (col("ft.solve"), "s"),
        "gather.solve_s": (col("gather.optimized"), "s"),
        "gather.aco_iterations": (col("gather.aco", "iterations"), "count"),
        "gather.aco_evaluations": (col("gather.aco", "evaluations"), "count"),
        "gather.aco_gain_frac": (_med(g for st in layer_steps for g in st["aco_gain"]), "frac"),
        "gather.naive_s": (col("gather.naive"), "s"),
        "storage.place_s": (col("storage.put"), "s"),
        "storage.place_mib": (col("storage.put", "bytes") / MiB, "MiB"),
        "storage.fetch_s": (col("storage.fetch"), "s"),
        "storage.fetch_calls": (col("storage.fetch", "calls"), "count"),
        "storage.fetch_mib": (col("storage.fetch", "bytes") / MiB, "MiB"),
        "storage.fetch_fail_frac": (ratio("storage.fetch", "error", "calls"), "frac"),
        "metadata.catalog_put_s": (col("metadata.catalog_put"), "s"),
        "metadata.catalog_get_s": (col("metadata.catalog_get"), "s"),
        "metadata.kv_put_calls": (col("metadata.kv_put", "calls"), "count"),
        "metadata.kv_put_bytes": (col("metadata.kv_put", "bytes"), "bytes"),
        "healing.ledger_record_s": (col("healing.ledger_record"), "s"),
        "transfer.model_s": (col("transfer.phase_latency"), "s"),
        "procpipe.prepare_self_s": (col("procpipe.prepare_tiled", "self"), "s"),
        "procpipe.decode_s": (col("procpipe.decode_tiled"), "s"),
        "procpipe.reconstruct_s": (col("procpipe.reconstruct_tiled"), "s"),
        "procpipe.spooled_mib": (_med(st["spooled"] for st in layer_steps) / MiB, "MiB"),
        "procpipe.arena_peak_mib": (_med(st["arena_peak"] for st in layer_steps) / MiB, "MiB"),
        "service.submit_ms": (1e3 * _med(x for st in layer_steps for x in st["submit_s"]), "ms"),
        "service.queue_wait_ms_p50": (1e3 * _med(samples["queue_wait"]), "ms"),
        "service.exec_ms_p50": (1e3 * _med(samples["exec"]), "ms"),
        "service.pipeline_ms_p50": (1e3 * _med(x for st in layer_steps for x in st["pipeline_s"]), "ms"),
        "service.coalesced": (_med(c.get("coalesced", 0) for c in counters), "count"),
        "service.cached": (_med(c.get("cached", 0) for c in counters), "count"),
        "service.failed_prepares": (_med(c.get("failed_prepares", 0) for c in counters), "count"),
        "trace.spans": (_med(st["spans"] for st in layer_steps), "count"),
        "trace.prepare_unattributed_s": (col("pipeline.prepare", "self"), "s"),
        "trace.restore_unattributed_s": (col("pipeline.restore", "self"), "s"),
    }
    # Overhead: how much worse each timing reads with the wrappers on.
    for name in OVERHEAD_METRICS:
        plain, traced = e2e[name]["value"], e2e_traced[name]["value"]
        worse = plain / traced if name.endswith("per_s") else traced / plain
        values[f"trace.overhead.{name}"] = (worse - 1.0, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


OVERHEAD_METRICS = (
    "prepare_s_p50", "restore_s_p50", "restore_degraded_s_p50",
    "svc_ops_per_s", "svc_restore_p50_ms",
)


def layer_table(layer_steps: list[dict]) -> dict:
    """Layer name -> median per-step busy/self seconds and call count."""
    names = sorted({n for st in layer_steps for n in st["layers"]})
    return {
        n: {
            key: _med(st["layers"].get(n, {}).get(key, 0) for st in layer_steps)
            for key in ("busy", "self", "calls")
        }
        for n in names
    }


def accounting(layer_steps: list[dict], e2e: dict) -> dict:
    """Per archive operation: median wall share of every layer, the
    traced wall, and the untraced p50 it should match within overhead."""
    untraced = {"prepare": "prepare_s_p50", "restore": "restore_s_p50",
                "degraded": "restore_degraded_s_p50"}
    out = {}
    for kind, metric in untraced.items():
        rows = [st["roots"][kind] for st in layer_steps if kind in st["roots"]]
        if not rows:
            continue
        names = sorted({n for r in rows for n in r["shares"]})
        out[kind] = {
            "untraced_p50_s": e2e[metric]["value"],
            "traced_p50_s": _med(r["wall"] for r in rows),
            "shares_s": {n: _med(r["shares"].get(n, 0.0) for r in rows) for n in names},
        }
    return out
